//! Names `benchmark/` still spells from when a chip's engine was a
//! run-time choice. Every chip runs [`PimSimulator`]; nothing here selects
//! anything, and each item goes once the benchmark file its comment names
//! stops spelling it (ROADMAP, "Benchmark-only debts").

use pim_arch::{ArchError, Backend, CellRun, MicroOp, PimConfig, PreparedBatch, RowMove};
use pim_sim::PimSimulator;

/// A label, not a selection: both values build the same chip. Spelt by
/// `benchmark/src/workload/{tensor,serve,loadgen,ladder}.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Row name `sim`.
    #[default]
    BitAccurate,
    /// Row name `func`.
    Functional,
}

impl BackendKind {
    /// Short stable name used in benchmark rows and logs.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::BitAccurate => "sim",
            BackendKind::Functional => "func",
        }
    }
}

/// [`PimSimulator`] under the name
/// `benchmark/src/workload/{tensor,serve}.rs` construct their ladder
/// drivers with.
#[derive(Debug)]
pub struct AnyBackend(pub PimSimulator);

impl AnyBackend {
    /// A [`PimSimulator`] of geometry `cfg`, whatever `kind` says.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(_kind: BackendKind, cfg: PimConfig) -> Result<Self, ArchError> {
        PimSimulator::new(cfg).map(AnyBackend)
    }
}

/// Every entry point [`PimSimulator`] overrides is forwarded: a missing
/// one would fall back to the trait default and silently lose its block
/// path (`crates/func/tests/equivalence.rs` holds all six to the bare
/// simulator).
impl Backend for AnyBackend {
    fn config(&self) -> &PimConfig {
        self.0.config()
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        self.0.execute(op)
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        self.0.execute_batch(ops)
    }

    fn access(&mut self, run: &CellRun<'_>, out: &mut Vec<u32>) -> Result<(), ArchError> {
        self.0.access(run, out)
    }

    fn move_rows(&mut self, mv: &RowMove) -> Result<(), ArchError> {
        self.0.move_rows(mv)
    }

    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        self.0.execute_prepared(batch)
    }
}
