//! # pim-func
//!
//! The *reference implementation* of the PyPIM micro-operation interface
//! ([`pim_arch::Backend`]). [`FuncBackend`] is the contract written out:
//! one `u32` per `(register, crossbar, row)`, and every operation applied
//! to every cell it selects — a horizontal operation gate by gate, as
//! [`pim_arch::HLogic::expand_gates`] lists its gates. Nothing serves on
//! it. The differential oracle (`crates/func/tests`,
//! `tests/backend_equivalence.rs`) holds the engine every chip runs on,
//! [`pim_sim::PimSimulator`], to it.
//!
//! [`Backend::execute`](pim_arch::Backend::execute) validates, charges
//! through the shared cost model [`pim_sim::charge_op`], then applies.
//! [`Backend::execute_batch`](pim_arch::Backend::execute_batch) is whole or
//! nothing: it validates and charges every operation first, rolls the
//! profiler back on a refusal, then applies. `access` and
//! `execute_prepared` are the trait defaults: a run is its expansion, and a
//! prepared batch is its operations.
//!
//! | Against the engine, for any operation stream             | `FuncBackend` |
//! |-----------------------------------------------------------|---------------|
//! | Cells of every register after an accepted op or batch     | identical     |
//! | Accept / refuse, and the error (validation, H-tree plan, read protocol, batch rollback) | identical |
//! | `Profiler` counters (cycles, gates, row-gates, moves)     | identical, by construction |
//! | Stateful-logic strict checking                            | **none**: a gate onto a cell no `INIT1` armed overwrites it; the engine refuses it |
//! | Host speed                                                | none sought: one cell at a time |
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
pub use backend::FuncBackend;
