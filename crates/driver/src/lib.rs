//! # pim-driver
//!
//! The PyPIM host driver (§V-B): translates ISA macro-instructions
//! ([`pim_isa::Instruction`]) into micro-operation sequences
//! ([`pim_arch::MicroOp`]) that adhere to the proposed microarchitecture.
//!
//! The driver contains:
//!
//! * A [`CircuitBuilder`] that compiles gate-level routines under the
//!   stateful-logic discipline (every `NOT`/`NOR` output initialized to 1),
//!   with scratch-cell management in the driver-reserved registers: a cell
//!   is placed by how long it lives, so a scratch register empties as a
//!   whole and one partition-parallel `INIT` re-arms 32 gate outputs.
//! * The **AritPIM suite** re-implemented from scratch: bit-serial
//!   ripple-carry integer arithmetic (the 9-NOR full adder), truncated
//!   32-bit multiplication, signed restoring division/modulo, and complete
//!   gate-level IEEE-754 `binary32` addition, multiplication, and division
//!   (guard/round/sticky bits, round-to-nearest-even, subnormals,
//!   infinities, and NaNs) — plus the comparison and multiplexing routines
//!   PyPIM adds to complement the suite (§V-B).
//! * A **partition-parallel** (bit-parallel element-parallel) Kogge-Stone
//!   prefix adder exploiting semi-parallel half-gate operations across
//!   partitions (§III-D), selectable through [`ParallelismMode`].
//! * A [`RoutineCache`] so that steady-state translation of a
//!   macro-instruction is an iteration over a precompiled sequence — the
//!   property that makes the software driver faster than the PIM chip it
//!   feeds (Figure 13, "Host Driver" series). The cache holds each routine
//!   as a [`PreparedRoutine`]: validated once, so backends replay it
//!   through [`Backend::execute_prepared`](pim_arch::Backend::execute_prepared)
//!   without re-checking any operation.
//! * A [`SinkBackend`] that reroutes micro-operations to a buffer, used to
//!   measure the driver's maximal supported throughput exactly as in the
//!   paper's artifact (Appendix E).
//! * A [`theory`] module exposing the pure-logic cycle count of every
//!   routine — the "theoretical PIM" baseline of Figure 13.
//!
//! # Example
//!
//! ```
//! use pim_arch::{Backend, PimConfig};
//! use pim_driver::Driver;
//! use pim_isa::{DType, Instruction, RegOp, ThreadRange};
//! use pim_sim::PimSimulator;
//!
//! # fn main() -> Result<(), pim_driver::DriverError> {
//! let cfg = PimConfig::small();
//! let mut driver = Driver::new(PimSimulator::new(cfg.clone())?);
//!
//! // Broadcast constants, then add register 0 and register 1 everywhere.
//! let all = ThreadRange::all(&cfg);
//! driver.execute(&Instruction::Write { reg: 0, value: 7, target: all })?;
//! driver.execute(&Instruction::Write { reg: 1, value: 35, target: all })?;
//! driver.execute(&Instruction::RType {
//!     op: RegOp::Add,
//!     dtype: DType::Int32,
//!     dst: 2,
//!     srcs: [0, 1, 0],
//!     target: all,
//! })?;
//! let got = driver.execute(&Instruction::Read { reg: 2, warp: 3, row: 5 })?;
//! assert_eq!(got, Some(42));
//! # Ok(())
//! # }
//! ```

mod builder;
mod cache;
mod driver;
mod error;
mod sink;

pub mod routines;
pub mod theory;

pub use builder::{Bits, CircuitBuilder, PreparedRoutine, Routine, RoutineStats};
pub use cache::{RoutineCache, RoutineKey};
pub use driver::{Driver, IssuedCycles, ParallelismMode};
pub use error::DriverError;
pub use sink::SinkBackend;
