//! # pim-sim
//!
//! A bit-accurate simulator for the PyPIM digital PIM microarchitecture — a
//! drop-in replacement for a physical chip (§VI of the paper). The simulator
//! interacts with the host driver *only* through the micro-operation
//! interface ([`pim_arch::Backend`]), models every operation cycle-by-cycle,
//! and keeps profiling metrics (micro-operation counts per type, which are
//! cycle counts under the 1-op/cycle model).
//!
//! Two of the paper's GPU optimizations are reproduced on the CPU:
//!
//! * **Memory**: rows are stored in a condensed 32-bit format defined by the
//!   strided data layout — word `k` of a row holds the 32 bits at
//!   intra-partition offset `k`, i.e. word `k` *is* register `k`. Storage
//!   is **register-major** (`words[reg * rows + row]`): a horizontal
//!   micro-operation reads/writes the *same* registers of many rows, so
//!   each register is one contiguous column slice in host memory.
//! * **Logic**: partition-parallel stateful logic evaluates as three bitwise
//!   word operations (shift, mask, and-not) instead of iterating over
//!   partitions. Under a **dense row mask** (step 1 — the shape of
//!   whole-tensor operations) a gate is a straight-line loop over one, two,
//!   or three contiguous `&[u32]` slices with the strict-mode check hoisted
//!   out as a pre-scan; LLVM autovectorizes these loops, so the host
//!   exploits the same row-parallelism the chip executes in a single cycle.
//!   Strided masks take a row-indexed fall-back. Batches replay
//!   **crossbar-major** (each crossbar runs the whole micro-op run while
//!   its words are cache-hot) and execute in parallel across crossbars
//!   (std scoped threads stand in for the paper's CUDA kernel).
//!
//! A *strict mode* (default on) additionally checks the stateful-logic
//! discipline: every `NOT`/`NOR` output cell must hold logical 1 when the
//! gate fires, catching missing initializations in driver routines.
//!
//! # Example
//!
//! ```
//! use pim_arch::{Backend, GateKind, HLogic, MicroOp, PimConfig, RangeMask};
//! use pim_sim::PimSimulator;
//!
//! let cfg = PimConfig::small();
//! let mut sim = PimSimulator::new(cfg.clone())?;
//!
//! // Select crossbar 0, row 3; write 0xFFFF_FFFF to register 1.
//! sim.execute(&MicroOp::XbMask(RangeMask::single(0)))?;
//! sim.execute(&MicroOp::RowMask(RangeMask::single(3)))?;
//! sim.execute(&MicroOp::Write { index: 1, value: 0xFFFF_FFFF })?;
//!
//! // NOT register 1 into register 2 in every partition at once.
//! sim.execute(&MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg)?))?;
//! sim.execute(&MicroOp::LogicH(HLogic::parallel(GateKind::Not, 1, 1, 2, &cfg)?))?;
//! assert_eq!(sim.execute(&MicroOp::Read { index: 2 })?, Some(0));
//! # Ok::<(), pim_arch::ArchError>(())
//! ```

mod cost;
mod crossbar;
mod profiler;
mod simulator;

pub use cost::{charge_batch, charge_op};
pub use crossbar::Crossbar;
pub use profiler::{OpTypeCounts, Profiler};
pub use simulator::{PimSimulator, SimSnapshot};
