//! # pim-func
//!
//! The word-array *reference implementation* of the PyPIM micro-operation
//! interface ([`pim_arch::Backend`]): [`FuncBackend`] produces the same
//! architectural state and the same modeled-cycle totals as the engine
//! every chip runs on ([`pim_sim::PimSimulator`]), computed independently
//! — plain vectorized host code over 32-bit words, no bit planes, no
//! stateful-logic discipline. Nothing serves on it; the differential
//! oracle (`crates/func/tests`, `tests/backend_equivalence.rs`) holds the
//! engine to it.
//!
//! How it executes:
//!
//! * **Row-pair packing** — cell state lives in one flat `Vec<u64>` where
//!   each word packs *two* adjacent rows of one register of one crossbar
//!   (low 32 bits = even row, high 32 bits = odd row). Whole-memory
//!   horizontal gates become straight-line loops over contiguous `u64`
//!   slices spanning *all* crossbars at once; the shift-mask-andnot gate
//!   evaluation is applied to both packed rows per word operation.
//! * **Segmented masks** — a row mask is lowered once per mask change
//!   into at most three contiguous word-range segments with a constant
//!   lane mask (dense masks → head half-pair, full middle, tail half-pair;
//!   step-2 masks → one segment selecting a single 32-bit lane), so the
//!   inner loops stay branch-free.
//! * **Batch dead-store elimination** — [`Backend::execute_batch`] charges
//!   every operation through the shared cost model first, then walks the
//!   batch backward and skips stores whose output register is completely
//!   overwritten later in the same batch before any read. Driver-generated
//!   routines re-initialize their scratch registers before every gate, so
//!   on arithmetic-heavy batches this removes most of the physical work
//!   while the modeled cycles stay exactly those of the full stream.
//! * **Prepared replay** — [`Backend::execute_prepared`] runs a
//!   [`pim_arch::PreparedBatch`] (what the driver's routine cache holds)
//!   through the same kernel loop without validating, charging or planning
//!   per operation: one closed-form [`pim_sim::charge_batch`], the
//!   precomputed elision plan when the masks are full.
//!
//! What the reference does **not** do: enforce the stateful-logic strict
//! discipline (output cells of `NOT`/`NOR` holding 1 when the gate fires).
//! The strict flag is carried (and snapshotted) for interface
//! compatibility, but no check runs — the engine checks, on every chip.
//! See `crates/func/README.md` for the full guarantee table.
//!
//! [`AnyBackend`] and [`BackendKind`] are names `benchmark/` still spells
//! from when the engine was a run-time choice; both build a
//! [`pim_sim::PimSimulator`].
//!
//! # Example
//!
//! ```
//! use pim_arch::{Backend, GateKind, HLogic, MicroOp, PimConfig, RangeMask};
//! use pim_func::FuncBackend;
//!
//! let cfg = PimConfig::small();
//! let mut f = FuncBackend::new(cfg.clone())?;
//! f.execute(&MicroOp::XbMask(RangeMask::single(0)))?;
//! f.execute(&MicroOp::RowMask(RangeMask::single(3)))?;
//! f.execute(&MicroOp::Write { index: 1, value: 0xFFFF_FFFF })?;
//! f.execute(&MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg)?))?;
//! f.execute(&MicroOp::LogicH(HLogic::parallel(GateKind::Not, 1, 1, 2, &cfg)?))?;
//! assert_eq!(f.execute(&MicroOp::Read { index: 2 })?, Some(0));
//! # Ok::<(), pim_arch::ArchError>(())
//! ```

mod any;
mod backend;

pub use any::{AnyBackend, BackendKind};
pub use backend::{FuncBackend, FuncSnapshot};
