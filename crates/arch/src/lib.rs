//! # pim-arch
//!
//! The micro-operation model for partition-enabled digital memristive
//! processing-in-memory (PIM), as proposed by *PyPIM: Integrating Digital
//! Processing-in-Memory from Microarchitectural Design to Python Tensors*
//! (MICRO 2024).
//!
//! This crate is the shared vocabulary of the whole stack. It defines:
//!
//! * [`PimConfig`] — the geometry and timing of a PIM memory (crossbar count,
//!   rows, partitions, registers, clock), including the paper's Table III
//!   configuration ([`PimConfig::paper`]).
//! * [`RangeMask`] — the `{start, start+step, …, stop}` range pattern used by
//!   crossbar-mask and row-mask operations (§III-B).
//! * [`MicroOp`] — the five micro-operation types broadcast to all crossbars:
//!   mask, read/write, horizontal logic, vertical logic, and move (§III,
//!   Figure 5).
//! * [`HLogic`] — horizontal stateful-logic operations with the *half-gates*
//!   partition encoding (§III-D), including Table I per-partition opcodes and
//!   expansion into individual gate instances for validation.
//! * [`PreparedBatch`] — a micro-operation sequence validated once and
//!   summarized (cost, replay records) so backends can replay it cheaply.
//! * [`encode`] — the concrete 64-bit wire format (Figure 5) with lossless
//!   round-tripping.
//! * [`htree`] — hierarchical H-tree addressing for distributed inter-crossbar
//!   moves (§III-F).
//!
//! # Example
//!
//! ```
//! use pim_arch::{GateKind, HLogic, ColAddr, PimConfig, encode};
//!
//! let cfg = PimConfig::small();
//! // A partition-parallel NOR: one gate inside every partition
//! // (inputs at offsets 0 and 1, output at offset 2).
//! let op = HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg)?;
//! assert_eq!(op.gate_count(), cfg.partitions as u64);
//!
//! // Round-trip through the 64-bit wire format.
//! let word = encode::encode(&pim_arch::MicroOp::LogicH(op.clone()));
//! assert_eq!(encode::decode(word)?, pim_arch::MicroOp::LogicH(op));
//! # Ok::<(), pim_arch::ArchError>(())
//! ```

mod backend;
mod config;
mod error;
mod hlogic;
mod mask;
mod microop;
mod prepared;

pub mod encode;
pub mod htree;

pub use backend::{Backend, CellRun, RowMove};
pub use config::PimConfig;
pub use error::ArchError;
pub use hlogic::{ColAddr, GateInstance, GateKind, HLogic, PartitionOpcode};
pub use mask::RangeMask;
pub use microop::{MicroOp, MoveOp, VGate};
pub use prepared::{BatchCost, PreparedBatch, ReplayRecord};

/// Identifier of a crossbar array (a *warp* in ISA terms).
pub type XbId = u32;
/// Identifier of a wordline/row within a crossbar (a *thread* in ISA terms).
pub type RowId = u32;
/// Intra-partition column offset — equivalently, a register index (§IV).
pub type RegId = u8;
/// Partition index within a crossbar row (0..N).
pub type PartId = u8;

/// Number of bits in an architectural word (`N` in the paper, Table III).
///
/// The word size equals the partition count in the evaluated configuration;
/// the simulator's plane indexing ([`pim-sim`]) relies on this being 32.
///
/// [`pim-sim`]: https://docs.rs/pim-sim
pub const WORD_BITS: usize = 32;
