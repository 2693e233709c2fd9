/// Per-type micro-operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTypeCounts {
    /// Crossbar-mask operations.
    pub xb_mask: u64,
    /// Row-mask operations.
    pub row_mask: u64,
    /// Write operations.
    pub write: u64,
    /// Read operations.
    pub read: u64,
    /// Horizontal logic operations.
    pub logic_h: u64,
    /// Vertical logic operations.
    pub logic_v: u64,
    /// Inter-crossbar move operations.
    pub mv: u64,
}

impl OpTypeCounts {
    /// Total micro-operations across all types.
    pub fn total(&self) -> u64 {
        self.xb_mask
            + self.row_mask
            + self.write
            + self.read
            + self.logic_h
            + self.logic_v
            + self.mv
    }
}

/// Profiling metrics kept by the simulator (§VI: "the simulator keeps track
/// of basic profiling metrics (e.g., the number of micro-operations
/// performed from each micro-operation type)").
///
/// Under the microarchitectural model, each micro-operation occupies one PIM
/// clock cycle, except distributed moves whose transfers share H-tree links
/// (those serialize — see [`pim_arch::htree::plan_move`]). [`cycles`]
/// therefore measures latency directly; throughput follows from the paper's
/// Eq. (1).
///
/// [`cycles`]: Profiler::cycles
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profiler {
    /// PIM cycles consumed.
    pub cycles: u64,
    /// Micro-operations executed, by type.
    pub ops: OpTypeCounts,
    /// Individual logic-gate instances fired (summed over the partition
    /// pattern, but not over rows/crossbars).
    pub gates: u64,
    /// Gate instances × active rows × active crossbars — a proxy for
    /// switching energy.
    pub row_gates: u64,
    /// Source→destination pairs moved over the H-tree.
    pub move_pairs: u64,
    /// Highest H-tree level climbed by any move.
    pub max_move_level: u32,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = Profiler::default();
    }

    /// Adds `other`'s counters into `self` — aggregation across simulators
    /// (e.g. the per-shard chips of `pim-cluster`). All counters sum;
    /// `max_move_level` takes the maximum. Lives next to the struct so a
    /// new counter cannot be forgotten by an external aggregator.
    pub fn absorb(&mut self, other: &Profiler) {
        let Profiler {
            cycles,
            ops,
            gates,
            row_gates,
            move_pairs,
            max_move_level,
        } = other;
        self.cycles += cycles;
        self.ops.xb_mask += ops.xb_mask;
        self.ops.row_mask += ops.row_mask;
        self.ops.write += ops.write;
        self.ops.read += ops.read;
        self.ops.logic_h += ops.logic_h;
        self.ops.logic_v += ops.logic_v;
        self.ops.mv += ops.mv;
        self.gates += gates;
        self.row_gates += row_gates;
        self.move_pairs += move_pairs;
        self.max_move_level = self.max_move_level.max(*max_move_level);
    }

    /// Difference between `self` and an earlier `snapshot` — used to
    /// attribute cycles to a region of execution (the library's `Profiler`
    /// scope in the paper's Figure 12 example).
    ///
    /// Counters subtract saturating: if `reset` raced the snapshot (the
    /// snapshot is "ahead" of `self`), the region reads as empty rather
    /// than panicking in debug builds or wrapping in release builds.
    /// `max_move_level` is **carried, not differenced** — it is a
    /// high-water mark, so the region inherits the current peak; a move in
    /// the region can only raise it.
    pub fn since(&self, snapshot: &Profiler) -> Profiler {
        Profiler {
            cycles: self.cycles.saturating_sub(snapshot.cycles),
            ops: OpTypeCounts {
                xb_mask: self.ops.xb_mask.saturating_sub(snapshot.ops.xb_mask),
                row_mask: self.ops.row_mask.saturating_sub(snapshot.ops.row_mask),
                write: self.ops.write.saturating_sub(snapshot.ops.write),
                read: self.ops.read.saturating_sub(snapshot.ops.read),
                logic_h: self.ops.logic_h.saturating_sub(snapshot.ops.logic_h),
                logic_v: self.ops.logic_v.saturating_sub(snapshot.ops.logic_v),
                mv: self.ops.mv.saturating_sub(snapshot.ops.mv),
            },
            gates: self.gates.saturating_sub(snapshot.gates),
            row_gates: self.row_gates.saturating_sub(snapshot.row_gates),
            move_pairs: self.move_pairs.saturating_sub(snapshot.move_pairs),
            max_move_level: self.max_move_level,
        }
    }
}

impl pim_telemetry::MetricsSource for Profiler {
    fn fill_metrics(&self, snap: &mut pim_telemetry::MetricsSnapshot) {
        snap.set_counter("sim.cycles", self.cycles);
        snap.set_counter("sim.op.xb_mask", self.ops.xb_mask);
        snap.set_counter("sim.op.row_mask", self.ops.row_mask);
        snap.set_counter("sim.op.write", self.ops.write);
        snap.set_counter("sim.op.read", self.ops.read);
        snap.set_counter("sim.op.logic_h", self.ops.logic_h);
        snap.set_counter("sim.op.logic_v", self.ops.logic_v);
        snap.set_counter("sim.op.mv", self.ops.mv);
        snap.set_counter("sim.gates", self.gates);
        snap.set_counter("sim.row_gates", self.row_gates);
        snap.set_counter("sim.move_pairs", self.move_pairs);
        snap.set_gauge("sim.max_move_level", i64::from(self.max_move_level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_reset() {
        let mut p = Profiler::new();
        p.ops.logic_h = 10;
        p.ops.write = 2;
        p.cycles = 12;
        assert_eq!(p.ops.total(), 12);
        p.reset();
        assert_eq!(p.ops.total(), 0);
        assert_eq!(p.cycles, 0);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = Profiler::new();
        a.cycles = 5;
        a.ops.logic_h = 3;
        a.max_move_level = 2;
        let mut b = Profiler::new();
        b.cycles = 7;
        b.ops.logic_h = 4;
        b.ops.read = 1;
        b.gates = 9;
        b.max_move_level = 1;
        a.absorb(&b);
        assert_eq!(a.cycles, 12);
        assert_eq!(a.ops.logic_h, 7);
        assert_eq!(a.ops.read, 1);
        assert_eq!(a.gates, 9);
        assert_eq!(a.max_move_level, 2);
    }

    #[test]
    fn since_subtracts() {
        let mut p = Profiler::new();
        p.cycles = 5;
        p.ops.logic_h = 5;
        let snap = p.clone();
        p.cycles += 7;
        p.ops.logic_h += 6;
        p.ops.read += 1;
        let d = p.since(&snap);
        assert_eq!(d.cycles, 7);
        assert_eq!(d.ops.logic_h, 6);
        assert_eq!(d.ops.read, 1);
    }

    #[test]
    fn since_saturates_when_reset_races_snapshot() {
        // A reset between snapshot and readout leaves the snapshot "ahead";
        // the region must read empty, not panic or wrap.
        let mut p = Profiler::new();
        p.cycles = 5;
        p.ops.write = 3;
        p.gates = 4;
        let snap = p.clone();
        p.reset();
        p.cycles = 2;
        p.max_move_level = 1;
        let d = p.since(&snap);
        assert_eq!(d.cycles, 0);
        assert_eq!(d.ops.write, 0);
        assert_eq!(d.gates, 0);
        // max_move_level is carried, not differenced.
        assert_eq!(d.max_move_level, 1);
    }

    #[test]
    fn profiler_is_a_metrics_source() {
        use pim_telemetry::{MetricsSnapshot, MetricsSource as _};
        let mut p = Profiler::new();
        p.cycles = 11;
        p.ops.logic_h = 7;
        p.max_move_level = 3;
        let mut snap = MetricsSnapshot::new();
        p.fill_metrics(&mut snap);
        assert_eq!(snap.counters["sim.cycles"], 11);
        assert_eq!(snap.counters["sim.op.logic_h"], 7);
        assert_eq!(snap.gauges["sim.max_move_level"], 3);
    }
}
