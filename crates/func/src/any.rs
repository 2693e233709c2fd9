use crate::{FuncBackend, FuncSnapshot};
use pim_arch::{ArchError, Backend, CellRun, MicroOp, PimConfig, PreparedBatch};
use pim_sim::{PimSimulator, Profiler, SimSnapshot};

/// Selects which [`Backend`] implementation executes a chip's
/// micro-operation stream. Threaded through `ClusterOptions` (per shard)
/// and `Device` constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The bit-accurate simulator ([`PimSimulator`]): models the stateful
    /// logic cell-by-cell and enforces the strict discipline. The default.
    #[default]
    BitAccurate,
    /// The vectorized functional backend ([`FuncBackend`]): identical
    /// architectural results and modeled cycles, much faster, no strict
    /// discipline checking.
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

/// A concrete runtime-selected backend: one enum wrapping the two
/// implementations so drivers, shard workers and journals hold a single
/// type while the kind varies per chip.
#[derive(Debug)]
pub enum AnyBackend {
    /// Bit-accurate simulator.
    Sim(PimSimulator),
    /// Vectorized functional backend.
    Func(FuncBackend),
}

/// Snapshot of an [`AnyBackend`] — carries the kind so restores are
/// checked against the live backend.
#[derive(Debug, Clone)]
pub enum AnySnapshot {
    /// Snapshot of a bit-accurate simulator.
    Sim(SimSnapshot),
    /// Snapshot of a functional backend.
    Func(FuncSnapshot),
}

impl AnyBackend {
    /// Creates a backend of the requested kind.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(kind: BackendKind, cfg: PimConfig) -> Result<Self, ArchError> {
        Ok(match kind {
            BackendKind::BitAccurate => AnyBackend::Sim(PimSimulator::new(cfg)?),
            BackendKind::Functional => AnyBackend::Func(FuncBackend::new(cfg)?),
        })
    }

    /// Which implementation this is.
    pub fn kind(&self) -> BackendKind {
        match self {
            AnyBackend::Sim(_) => BackendKind::BitAccurate,
            AnyBackend::Func(_) => BackendKind::Functional,
        }
    }

    /// The profiling counters accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        match self {
            AnyBackend::Sim(s) => s.profiler(),
            AnyBackend::Func(f) => f.profiler(),
        }
    }

    /// Resets the profiling counters.
    pub fn reset_profiler(&mut self) {
        match self {
            AnyBackend::Sim(s) => s.reset_profiler(),
            AnyBackend::Func(f) => f.reset_profiler(),
        }
    }

    /// Enables or disables strict stateful-logic checking. Enforced only
    /// by the bit-accurate simulator; the functional backend stores the
    /// flag without checking.
    pub fn set_strict(&mut self, strict: bool) {
        match self {
            AnyBackend::Sim(s) => s.set_strict(strict),
            AnyBackend::Func(f) => f.set_strict(strict),
        }
    }

    /// The stored strict flag.
    pub fn strict(&self) -> bool {
        match self {
            AnyBackend::Sim(s) => s.strict(),
            AnyBackend::Func(f) => f.strict(),
        }
    }

    /// Charges `cycles` modeled cycles without executing anything.
    pub fn stall(&mut self, cycles: u64) {
        match self {
            AnyBackend::Sim(s) => s.stall(cycles),
            AnyBackend::Func(f) => f.stall(cycles),
        }
    }

    /// Direct state inspection for tests: the word at `(xb, row, reg)`.
    pub fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        match self {
            AnyBackend::Sim(s) => s.peek(xb, row, reg),
            AnyBackend::Func(f) => f.peek(xb, row, reg),
        }
    }

    /// Direct state mutation for tests; see [`peek`](AnyBackend::peek).
    pub fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        match self {
            AnyBackend::Sim(s) => s.poke(xb, row, reg, value),
            AnyBackend::Func(f) => f.poke(xb, row, reg, value),
        }
    }

    /// Captures the complete architectural state.
    pub fn snapshot(&self) -> AnySnapshot {
        match self {
            AnyBackend::Sim(s) => AnySnapshot::Sim(s.snapshot()),
            AnyBackend::Func(f) => AnySnapshot::Func(f.snapshot()),
        }
    }

    /// Restores a snapshot taken from a backend of the same kind and
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot kind does not match the live backend — a
    /// logic error in checkpoint bookkeeping, never a data-dependent
    /// condition.
    pub fn restore(&mut self, snap: &AnySnapshot) {
        match (self, snap) {
            (AnyBackend::Sim(s), AnySnapshot::Sim(snap)) => s.restore(snap),
            (AnyBackend::Func(f), AnySnapshot::Func(snap)) => f.restore(snap),
            (live, snap) => panic!(
                "snapshot kind mismatch: live backend is {:?} but snapshot is {}",
                live.kind(),
                match snap {
                    AnySnapshot::Sim(_) => "sim",
                    AnySnapshot::Func(_) => "func",
                }
            ),
        }
    }
}

impl Backend for AnyBackend {
    fn config(&self) -> &PimConfig {
        match self {
            AnyBackend::Sim(s) => s.config(),
            AnyBackend::Func(f) => f.config(),
        }
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        match self {
            AnyBackend::Sim(s) => s.execute(op),
            AnyBackend::Func(f) => f.execute(op),
        }
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        match self {
            AnyBackend::Sim(s) => s.execute_batch(ops),
            AnyBackend::Func(f) => f.execute_batch(ops),
        }
    }

    fn access(&mut self, run: &CellRun<'_>, out: &mut Vec<u32>) -> Result<(), ArchError> {
        match self {
            AnyBackend::Sim(s) => s.access(run, out),
            AnyBackend::Func(f) => f.access(run, out),
        }
    }

    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        match self {
            AnyBackend::Sim(s) => s.execute_prepared(batch),
            AnyBackend::Func(f) => f.execute_prepared(batch),
        }
    }
}
