use crate::DriverError;
use pim_arch::{
    ArchError, ColAddr, GateKind, HLogic, MicroOp, PimConfig, PreparedBatch, RegId, WORD_BITS,
};

/// An ordered collection of cell addresses representing a multi-bit value,
/// least-significant bit first.
pub type Bits = Vec<ColAddr>;

/// Cost statistics of a compiled routine.
///
/// `logic_cycles` counts `NOT`/`NOR` micro-operations — the pure gate work
/// that defines the *theoretical PIM* latency of the routine (AritPIM-style
/// lower bound). `overhead_cycles` counts initialization micro-operations
/// required by the stateful-logic discipline. The paper's "distance from
/// theoretical PIM" (§VI-B) is the overhead fraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutineStats {
    /// `NOT`/`NOR` gate micro-operations (one PIM cycle each).
    pub logic_cycles: u64,
    /// `INIT0`/`INIT1` micro-operations (one PIM cycle each).
    pub overhead_cycles: u64,
    /// Peak number of simultaneously live scratch cells.
    pub scratch_high_water: usize,
}

impl RoutineStats {
    /// Total PIM cycles of the routine body (`logic + overhead`).
    pub fn total_cycles(&self) -> u64 {
        self.logic_cycles + self.overhead_cycles
    }

    /// Fraction of cycles spent on initialization overhead.
    pub fn overhead_fraction(&self) -> f64 {
        self.overhead_cycles as f64 / self.total_cycles() as f64
    }
}

/// In-flight full-adder state between
/// [`CircuitBuilder::full_adder_prep`] and
/// [`CircuitBuilder::full_adder_finish`].
#[derive(Debug)]
pub struct PendingAdder {
    t1: ColAddr,
    t2: ColAddr,
    t3: ColAddr,
    t4: ColAddr,
    t5: ColAddr,
    t6: ColAddr,
    t7: ColAddr,
}

/// A compiled micro-operation sequence for one macro-instruction, ready to
/// be replayed under any crossbar/row mask.
#[derive(Debug, Clone)]
pub struct Routine {
    /// The micro-operations, in order.
    pub ops: Vec<MicroOp>,
    /// Cost statistics.
    pub stats: RoutineStats,
}

impl Routine {
    /// Encodes the whole routine into its 64-bit wire words — the form a
    /// production driver streams to the on-chip controller, and what the
    /// host-driver throughput benchmark measures the streaming rate of.
    pub fn encode_ops(&self) -> Vec<u64> {
        self.ops.iter().map(pim_arch::encode::encode).collect()
    }

    /// Validates the routine against `cfg` once and moves its operations
    /// into the replay form — no second copy of them exists afterwards.
    ///
    /// # Errors
    ///
    /// See [`PreparedBatch::new`].
    pub fn prepare(self, cfg: &PimConfig) -> Result<PreparedRoutine, ArchError> {
        Ok(PreparedRoutine {
            batch: PreparedBatch::new(self.ops, cfg)?,
            stats: self.stats,
        })
    }
}

/// A [`Routine`] as the [`RoutineCache`](crate::RoutineCache) holds it:
/// validated and cost-summed once, ready for
/// [`Backend::execute_prepared`](pim_arch::Backend::execute_prepared)
/// under any crossbar/row mask.
#[derive(Debug, Clone)]
pub struct PreparedRoutine {
    /// The micro-operations (`batch.ops()`) and their replay summary.
    pub batch: PreparedBatch,
    /// Cost statistics.
    pub stats: RoutineStats,
}

const ALL: u32 = u32::MAX;

/// Lifetime-class boundaries, in gates between a cell's [`alloc`] and its
/// [`release`]: a cell whose lifetime reaches `CLASS_SPLITS[k]` belongs to
/// class `k + 1` or above. The ladder is not delicate: `[16, 128, 1024]` and
/// `[32, 256, 2048]` compile every arithmetic routine within two cycles of
/// it, and `[64, 512]` does so for all but the divisions (Int div +1.4 %).
///
/// [`alloc`]: CircuitBuilder::alloc
/// [`release`]: CircuitBuilder::release
const CLASS_SPLITS: [u32; 4] = [16, 64, 256, 1024];

/// Number of lifetime classes.
const CLASSES: usize = CLASS_SPLITS.len() + 1;

/// The lifetime of a cell that is never released (shared constants,
/// results) or whose lifetime is not known yet (the measuring run).
const NEVER_RELEASED: u32 = u32::MAX;

fn class_of(lifetime: u32) -> usize {
    CLASS_SPLITS.iter().filter(|&&s| lifetime >= s).count()
}

/// Compiles gate-level circuits into micro-operation sequences under the
/// stateful-logic discipline.
///
/// The builder manages the driver-reserved scratch registers
/// (`user_regs..regs` intra-row offsets): [`alloc`](Self::alloc) hands out
/// cells guaranteed to hold logical 1 (ready to be a `NOT`/`NOR` output).
/// Serial gate emitters compose the derived gate library (`or`, `and`,
/// `xor`, `mux`, full adders) from the native `NOT`/`NOR` set, while the
/// `par_*` family emits partition-parallel operations on whole registers
/// (one micro-op for up to 32 gates).
///
/// # Two runs
///
/// A routine is built by [`compile`](Self::compile), which walks the
/// routine body **twice**. A scratch cell costs an `INIT1` only when its
/// register cannot be re-armed as a whole, and a register can be re-armed
/// as a whole only when all of its cells are dead at once — so where a cell
/// should go depends on how long it will live, which is not known when it
/// is allocated. The first (*measuring*) run therefore emits nothing: it
/// only counts, and records for the `n`-th allocation how many gates were
/// emitted between its `alloc` and its `release`. The clock is
/// [`RoutineStats::logic_cycles`], which no placement decision can move.
/// The second (*emitting*) run is handed that table and places every cell
/// by its lifetime. Routine bodies are pure functions of their arguments
/// and only compare cells for identity, so both runs make the same calls;
/// `compile` asserts that their allocation counts agree.
///
/// Theoretical-vs-measured accounting is kept per [`RoutineStats`].
#[derive(Debug)]
pub struct CircuitBuilder<'c> {
    cfg: &'c PimConfig,
    ops: Vec<MicroOp>,
    stats: RoutineStats,
    /// Per scratch register (offset `user_regs + i`): bit set = cell free.
    free: Vec<u32>,
    /// Bit set = free cell known to hold logical 1.
    clean: Vec<u32>,
    /// Bit set = cell has been written since allocation (so freeing it
    /// leaves it dirty).
    written: Vec<u32>,
    /// Whole-register reservations made by [`alloc_reg`](Self::alloc_reg).
    reserved: Vec<bool>,
    in_use: usize,
    const0: Option<ColAddr>,
    const1: Option<ColAddr>,
    /// Whether this is the measuring run: count, record lifetimes, emit
    /// nothing.
    measuring: bool,
    /// Lifetime in gates per allocation sequence number: written by the
    /// measuring run, read by the emitting run.
    lifetimes: Vec<u32>,
    /// Allocations made so far — the next allocation's sequence number.
    allocs: usize,
    /// Measuring run only: per scratch cell, the sequence number and the
    /// birth clock of the allocation that holds it.
    born: Vec<(usize, u64)>,
    /// Per lifetime class, the register it currently takes cells from.
    open: [Option<usize>; CLASSES],
}

impl<'c> CircuitBuilder<'c> {
    /// Compiles the routine that `body` describes: runs `body` once to
    /// measure every scratch cell's lifetime and once more to emit, with
    /// all scratch cells free and dirty at the start of each run (their
    /// contents from previous routines are unknown). This is the only way
    /// to obtain a builder.
    ///
    /// # Errors
    ///
    /// Propagates the error of either run.
    ///
    /// # Panics
    ///
    /// Panics if the two runs of `body` allocate differently — a body that
    /// is not a pure function of its arguments is a driver bug.
    pub fn compile(
        cfg: &'c PimConfig,
        mut body: impl FnMut(&mut CircuitBuilder<'c>) -> Result<(), DriverError>,
    ) -> Result<Routine, DriverError> {
        let mut measure = CircuitBuilder::new(cfg, true, Vec::new());
        body(&mut measure)?;
        let mut emit = CircuitBuilder::new(cfg, false, measure.lifetimes);
        // A compiled routine is cached for the life of its cluster, so its
        // stream should not carry the slack of a vector grown by doubling.
        // One INIT per 32 gate outputs is the floor; a sixteenth on top of
        // the gates covers every routine in the library.
        let gates = measure.stats.logic_cycles as usize;
        emit.ops.reserve_exact(gates + gates / 16 + 64);
        body(&mut emit)?;
        assert_eq!(
            emit.allocs,
            emit.lifetimes.len(),
            "the measuring and the emitting run must allocate alike"
        );
        Ok(Routine {
            ops: emit.ops,
            stats: emit.stats,
        })
    }

    fn new(cfg: &'c PimConfig, measuring: bool, lifetimes: Vec<u32>) -> Self {
        let n = cfg.scratch_regs();
        CircuitBuilder {
            cfg,
            ops: Vec::new(),
            stats: RoutineStats::default(),
            free: vec![ALL; n],
            clean: vec![0; n],
            written: vec![0; n],
            reserved: vec![false; n],
            in_use: 0,
            const0: None,
            const1: None,
            measuring,
            lifetimes,
            allocs: 0,
            born: vec![(0, 0); if measuring { n * WORD_BITS } else { 0 }],
            open: [None; CLASSES],
        }
    }

    /// The configuration this builder compiles for.
    pub fn config(&self) -> &PimConfig {
        self.cfg
    }

    /// Number of scratch cells currently live.
    pub fn live_cells(&self) -> usize {
        self.in_use
    }

    // ----- scratch management -------------------------------------------

    fn scratch_index(&self, c: ColAddr) -> Option<usize> {
        let off = c.offset as usize;
        (off >= self.cfg.user_regs && off < self.cfg.regs).then(|| off - self.cfg.user_regs)
    }

    fn scratch_offset(&self, index: usize) -> RegId {
        (self.cfg.user_regs + index) as RegId
    }

    /// The free cells of scratch register `i` that hold logical 1.
    fn ready(&self, i: usize) -> u32 {
        self.free[i] & self.clean[i]
    }

    /// Allocates one scratch cell guaranteed to hold logical 1 — ready to
    /// serve as a stateful-gate output (or as a constant-1 input).
    ///
    /// A cell is placed by how long it will live (the measuring run's
    /// table, see the type-level docs): its lifetime picks one of a few
    /// classes (split at 16, 64, 256 and 1 024 gates — constants, not
    /// parameters), and the cell is the lowest clean cell of that class's
    /// *open* register. Cells that die together thus share a
    /// register, the register empties as a whole, and one
    /// partition-parallel `INIT1` re-arms all 32 of its cells — whereas a
    /// register holding even one long-lived cell can only ever be re-armed
    /// piecemeal, one strided `INIT1` per run of dead cells.
    ///
    /// When the open register has no clean cell left, the class opens the
    /// register that yields the most free cells per `INIT1` (a wholly free
    /// register: 32 for one), initializing its dirty free cells on the
    /// spot — registers are armed on demand, never ahead of use. A register
    /// whose clean cells another class is still drawing from is passed
    /// over; only when nothing else is free is such a cell taken.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::ScratchExhausted`] when every scratch cell is
    /// live.
    pub fn alloc(&mut self) -> Result<ColAddr, DriverError> {
        let seq = self.allocs;
        self.allocs += 1;
        if self.measuring {
            self.lifetimes.push(NEVER_RELEASED);
        }
        let lifetime = self.lifetimes.get(seq).copied().unwrap_or(NEVER_RELEASED);
        let class = class_of(lifetime);
        let i = match self.open[class].filter(|&i| self.ready(i) != 0) {
            Some(i) => i,
            None => self
                .open_register(class)
                .or_else(|| (0..self.free.len()).find(|&i| self.ready(i) != 0))
                .ok_or(DriverError::ScratchExhausted {
                    available: self.cfg.scratch_regs() * WORD_BITS,
                })?,
        };
        let part = self.ready(i).trailing_zeros();
        self.free[i] &= !(1 << part);
        self.clean[i] &= !(1 << part);
        self.written[i] &= !(1 << part);
        self.in_use += 1;
        self.stats.scratch_high_water = self.stats.scratch_high_water.max(self.in_use);
        if self.measuring {
            self.born[i * WORD_BITS + part as usize] = (seq, self.stats.logic_cycles);
        }
        Ok(ColAddr::new(part as u8, self.scratch_offset(i)))
    }

    /// Makes the register with the most free cells per `INIT1` needed the
    /// open register of `class` and initializes its dirty free cells: each
    /// contiguous run of them is one strided `INIT1` (init gates occupy one
    /// partition each, so any contiguous partition range is a valid
    /// pattern), and a wholly free register is one run. Returns `None` when
    /// every free cell sits in a register that another class holds open
    /// with clean cells left.
    fn open_register(&mut self, class: usize) -> Option<usize> {
        // (register, free cells, INITs needed)
        let mut best: Option<(usize, u32, u32)> = None;
        for i in 0..self.free.len() {
            let free = self.free[i];
            let held = self.ready(i) != 0 && self.open.contains(&Some(i));
            if free == 0 || held {
                continue;
            }
            let dirty = free & !self.clean[i];
            let cells = free.count_ones();
            let inits = (dirty & !(dirty << 1)).count_ones();
            if best.is_none_or(|(_, c, n)| cells * n > c * inits) {
                best = Some((i, cells, inits));
            }
        }
        let (i, ..) = best?;
        let reg = self.scratch_offset(i);
        let dirty = self.free[i] & !self.clean[i];
        let mut mask = dirty;
        while mask != 0 {
            let start = mask.trailing_zeros();
            let run = (mask >> start).trailing_ones();
            let cell = ColAddr::new(start as u8, reg);
            let p_end = (start + run - 1) as u8;
            self.init("contiguous init range", |cfg| {
                HLogic::strided(GateKind::Init1, cell, cell, cell, p_end, 1, cfg)
            });
            mask &= !((((1u64 << run) - 1) as u32) << start);
        }
        self.clean[i] |= dirty;
        // A class that ran this register dry and has not allocated since
        // still points at it: these cells are not for it.
        for o in &mut self.open {
            if *o == Some(i) {
                *o = None;
            }
        }
        self.open[class] = Some(i);
        Some(i)
    }

    /// Releases a scratch cell. Cells that were never written since
    /// allocation are returned as clean (still logical 1).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a live scratch cell (double free or foreign
    /// address) — these are driver bugs, not runtime conditions.
    pub fn release(&mut self, c: ColAddr) {
        // Cannot fire: routine bodies release only cells this builder
        // handed out, and `routines::tests` compiles every body.
        let i = self
            .scratch_index(c)
            .expect("release of a non-scratch cell");
        let bit = 1u32 << c.part;
        assert_eq!(self.free[i] & bit, 0, "double free of scratch cell {c:?}");
        assert!(
            !self.reserved[i],
            "release of a cell inside a reserved register"
        );
        self.free[i] |= bit;
        // The measuring run emits nothing, so there a dead cell is as good
        // as a clean one, and no register is ever searched for to re-arm.
        if self.measuring || self.written[i] & bit == 0 {
            self.clean[i] |= bit;
        }
        self.in_use -= 1;
        if self.measuring {
            let (seq, born) = self.born[i * WORD_BITS + c.part as usize];
            let gates = self.stats.logic_cycles - born;
            self.lifetimes[seq] = u32::try_from(gates).unwrap_or(NEVER_RELEASED);
        }
    }

    /// Releases several scratch cells.
    pub fn release_all<I: IntoIterator<Item = ColAddr>>(&mut self, cells: I) {
        for c in cells {
            self.release(c);
        }
    }

    /// Reserves a whole scratch register for partition-parallel use
    /// (contents unspecified; initialize with [`init_reg`](Self::init_reg)).
    ///
    /// # Errors
    ///
    /// Returns [`DriverError::ScratchExhausted`] when no register is fully
    /// free.
    pub fn alloc_reg(&mut self) -> Result<RegId, DriverError> {
        // Prefer dirty registers, keeping clean ones for cell allocation.
        let candidate = (0..self.free.len())
            .filter(|&i| self.free[i] == ALL && !self.reserved[i])
            .max_by_key(|&i| (self.clean[i] != ALL) as u8);
        match candidate {
            Some(i) => {
                self.reserved[i] = true;
                self.free[i] = 0;
                self.clean[i] = 0;
                self.written[i] = ALL;
                self.in_use += WORD_BITS;
                self.stats.scratch_high_water = self.stats.scratch_high_water.max(self.in_use);
                Ok(self.scratch_offset(i))
            }
            None => Err(DriverError::ScratchExhausted {
                available: self.cfg.scratch_regs() * WORD_BITS,
            }),
        }
    }

    /// Releases a register reserved by [`alloc_reg`](Self::alloc_reg).
    ///
    /// # Panics
    ///
    /// Panics if `reg` is not a reserved scratch register.
    pub fn release_reg(&mut self, reg: RegId) {
        // Cannot fire: routine bodies release only registers `alloc_reg`
        // returned, and `routines::tests` compiles every body.
        let i = (reg as usize)
            .checked_sub(self.cfg.user_regs)
            .filter(|&i| i < self.reserved.len())
            .expect("release of a non-scratch register");
        assert!(
            self.reserved[i],
            "release of a register that was not reserved"
        );
        self.reserved[i] = false;
        self.free[i] = ALL;
        self.clean[i] = 0;
        self.in_use -= WORD_BITS;
    }

    /// A shared constant-0 cell (created on first use; never write to it).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn zero(&mut self) -> Result<ColAddr, DriverError> {
        if let Some(c) = self.const0 {
            return Ok(c);
        }
        let c = self.alloc()?;
        self.init_cell(c, false);
        self.const0 = Some(c);
        Ok(c)
    }

    /// A shared constant-1 cell (created on first use; never write to it).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion.
    pub fn one(&mut self) -> Result<ColAddr, DriverError> {
        if let Some(c) = self.const1 {
            return Ok(c);
        }
        let c = self.alloc()?;
        self.const1 = Some(c);
        Ok(c)
    }

    // ----- raw emission ---------------------------------------------------

    fn mark_written(&mut self, c: ColAddr) {
        if let Some(i) = self.scratch_index(c) {
            self.written[i] |= 1 << c.part;
        }
    }

    /// Appends one horizontal micro-operation. The measuring run neither
    /// builds nor validates it: only the caller's cycle counters move.
    ///
    /// # Panics
    ///
    /// Panics if the operation is invalid for the geometry — `what` the
    /// caller promised it is; a driver bug.
    fn push(&mut self, what: &str, op: impl FnOnce(&PimConfig) -> Result<HLogic, ArchError>) {
        if !self.measuring {
            let op = op(self.cfg).unwrap_or_else(|e| panic!("{what}: {e}"));
            self.ops.push(MicroOp::LogicH(op));
        }
    }

    /// One `NOT`/`NOR` micro-operation (a theoretical-PIM cycle).
    fn logic(&mut self, what: &str, op: impl FnOnce(&PimConfig) -> Result<HLogic, ArchError>) {
        self.stats.logic_cycles += 1;
        self.push(what, op);
    }

    /// One `INIT0`/`INIT1` micro-operation (an overhead cycle).
    fn init(&mut self, what: &str, op: impl FnOnce(&PimConfig) -> Result<HLogic, ArchError>) {
        self.stats.overhead_cycles += 1;
        self.push(what, op);
    }

    /// Initializes a single cell (overhead cycle). The cell may be a user
    /// register cell; scratch bookkeeping is updated when applicable.
    pub fn init_cell(&mut self, c: ColAddr, v: bool) {
        let gate = if v { GateKind::Init1 } else { GateKind::Init0 };
        self.init("validated cell address", |cfg| {
            HLogic::serial(gate, c, c, c, cfg)
        });
        self.mark_written(c);
    }

    /// Initializes a whole register with one partition-parallel `INIT`
    /// micro-operation (overhead cycle).
    pub fn init_reg(&mut self, reg: RegId, v: bool) {
        self.init("validated register", |cfg| HLogic::init_reg(v, reg, cfg));
    }

    /// Emits a serial `NOR` gate into `out`, which must already hold 1.
    ///
    /// # Panics
    ///
    /// Panics if the gate is electrically invalid (an input coincides with
    /// the output) — a driver bug.
    pub fn nor_into(&mut self, a: ColAddr, b: ColAddr, out: ColAddr) {
        let (a, b) = if a.part <= b.part { (a, b) } else { (b, a) };
        self.logic("electrically valid NOR gate", |cfg| {
            HLogic::serial(GateKind::Nor, a, b, out, cfg)
        });
        self.mark_written(out);
    }

    /// Emits a serial `NOT` gate into `out`, which must already hold 1.
    ///
    /// # Panics
    ///
    /// Panics if `a == out` (driver bug).
    pub fn not_into(&mut self, a: ColAddr, out: ColAddr) {
        self.logic("electrically valid NOT gate", |cfg| {
            HLogic::serial(GateKind::Not, a, a, out, cfg)
        });
        self.mark_written(out);
    }

    // ----- derived serial gates ------------------------------------------

    /// `!(a | b)` into a fresh cell (1 gate).
    ///
    /// # Errors
    ///
    /// Propagates scratch exhaustion (as do all derived gates below).
    pub fn nor(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let out = self.alloc()?;
        self.nor_into(a, b, out);
        Ok(out)
    }

    /// `!a` into a fresh cell (1 gate).
    pub fn not(&mut self, a: ColAddr) -> Result<ColAddr, DriverError> {
        let out = self.alloc()?;
        self.not_into(a, out);
        Ok(out)
    }

    /// `a | b` (2 gates).
    pub fn or(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let t = self.nor(a, b)?;
        let out = self.not(t)?;
        self.release(t);
        Ok(out)
    }

    /// `a | b` into `out` (2 gates; `out` must hold 1).
    pub fn or_into(&mut self, a: ColAddr, b: ColAddr, out: ColAddr) -> Result<(), DriverError> {
        let t = self.nor(a, b)?;
        self.not_into(t, out);
        self.release(t);
        Ok(())
    }

    /// `a & b` (3 gates).
    pub fn and(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let na = self.not(a)?;
        let nb = self.not(b)?;
        let out = self.nor(na, nb)?;
        self.release(na);
        self.release(nb);
        Ok(out)
    }

    /// `a & !b` (2 gates).
    pub fn and_not(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let na = self.not(a)?;
        let out = self.nor(na, b)?;
        self.release(na);
        Ok(out)
    }

    /// `a ^ b` (5 gates).
    pub fn xor(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let x = self.xnor(a, b)?;
        let out = self.not(x)?;
        self.release(x);
        Ok(out)
    }

    /// `!(a ^ b)` (4 gates).
    pub fn xnor(&mut self, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let t1 = self.nor(a, b)?;
        let t2 = self.nor(a, t1)?; // !a & b
        let t3 = self.nor(b, t1)?; // a & !b
        let out = self.nor(t2, t3)?;
        self.release_all([t1, t2, t3]);
        Ok(out)
    }

    /// `c ? a : b` (7 gates).
    pub fn mux(&mut self, c: ColAddr, a: ColAddr, b: ColAddr) -> Result<ColAddr, DriverError> {
        let out = self.alloc()?;
        self.mux_into(c, a, b, out)?;
        Ok(out)
    }

    /// `c ? a : b` into `out` (7 gates; `out` must hold 1).
    pub fn mux_into(
        &mut self,
        c: ColAddr,
        a: ColAddr,
        b: ColAddr,
        out: ColAddr,
    ) -> Result<(), DriverError> {
        let ac = self.and(a, c)?; // 3
        let nb = self.not(b)?; // 1
        let bnc = self.nor(nb, c)?; // 1: b & !c
        self.or_into(ac, bnc, out)?; // 2
        self.release_all([ac, nb, bnc]);
        Ok(())
    }

    /// Copies a cell value into `out` via two `NOT`s (`out` must hold 1).
    pub fn copy_into(&mut self, src: ColAddr, out: ColAddr) -> Result<(), DriverError> {
        let n = self.not(src)?;
        self.not_into(n, out);
        self.release(n);
        Ok(())
    }

    /// OR of many cells via a serial tree (`2(n-1)` gates; 0 cells → const
    /// 0, 1 cell → copy).
    pub fn or_many(&mut self, cells: &[ColAddr]) -> Result<ColAddr, DriverError> {
        match cells {
            [] => self.zero(),
            [c] => {
                let n = self.not(*c)?;
                let out = self.not(n)?;
                self.release(n);
                Ok(out)
            }
            _ => {
                let mut acc = self.or(cells[0], cells[1])?;
                for c in &cells[2..] {
                    let next = self.or(acc, *c)?;
                    self.release(acc);
                    acc = next;
                }
                Ok(acc)
            }
        }
    }

    /// `!(c0 | c1 | …)` — the all-zero test (`2(n-1) - 1` gates for n ≥ 2).
    pub fn nor_many(&mut self, cells: &[ColAddr]) -> Result<ColAddr, DriverError> {
        match cells {
            [] => self.one(),
            [c] => self.not(*c),
            [a, b] => self.nor(*a, *b),
            _ => {
                let head = self.or_many(&cells[..cells.len() - 1])?;
                let out = self.nor(head, cells[cells.len() - 1])?;
                self.release(head);
                Ok(out)
            }
        }
    }

    /// AND of many cells (`2(n-1)`-ish gates via De Morgan).
    pub fn and_many(&mut self, cells: &[ColAddr]) -> Result<ColAddr, DriverError> {
        match cells {
            [] => self.one(),
            [c] => {
                let n = self.not(*c)?;
                let out = self.not(n)?;
                self.release(n);
                Ok(out)
            }
            _ => {
                let mut acc = self.and(cells[0], cells[1])?;
                for c in &cells[2..] {
                    let next = self.and(acc, *c)?;
                    self.release(acc);
                    acc = next;
                }
                Ok(acc)
            }
        }
    }

    // ----- full adders -----------------------------------------------------

    /// The 9-NOR full adder of the bit-serial element-parallel approach
    /// (§II-B): returns `(sum, carry)`.
    pub fn full_adder(
        &mut self,
        a: ColAddr,
        b: ColAddr,
        c: ColAddr,
    ) -> Result<(ColAddr, ColAddr), DriverError> {
        let sum = self.alloc()?;
        let cout = self.full_adder_into(a, b, c, sum)?;
        Ok((sum, cout))
    }

    /// Full adder with the sum targeted at `sum_out` (which must hold 1);
    /// returns the carry. Exactly 9 NOR gates.
    pub fn full_adder_into(
        &mut self,
        a: ColAddr,
        b: ColAddr,
        c: ColAddr,
        sum_out: ColAddr,
    ) -> Result<ColAddr, DriverError> {
        let pending = self.full_adder_prep(a, b, c)?;
        self.full_adder_finish(pending, sum_out)
    }

    /// First phase of the full adder: 7 NOR gates that consume the inputs.
    /// After this returns, the inputs may be overwritten (e.g. a lazily
    /// initialized aliased destination cell) before
    /// [`full_adder_finish`](Self::full_adder_finish) writes the sum.
    pub fn full_adder_prep(
        &mut self,
        a: ColAddr,
        b: ColAddr,
        c: ColAddr,
    ) -> Result<PendingAdder, DriverError> {
        let t1 = self.nor(a, b)?;
        let t2 = self.nor(a, t1)?; // !a & b
        let t3 = self.nor(b, t1)?; // a & !b
        let t4 = self.nor(t2, t3)?; // xnor(a, b)
        let t5 = self.nor(t4, c)?; // !(xnor | c)
        let t6 = self.nor(t4, t5)?; // xor & c
        let t7 = self.nor(c, t5)?; // xnor & !c
        Ok(PendingAdder {
            t1,
            t2,
            t3,
            t4,
            t5,
            t6,
            t7,
        })
    }

    /// Second phase of the full adder: 2 NOR gates writing the sum into
    /// `sum_out` (which must hold 1) and returning the carry.
    pub fn full_adder_finish(
        &mut self,
        p: PendingAdder,
        sum_out: ColAddr,
    ) -> Result<ColAddr, DriverError> {
        self.nor_into(p.t6, p.t7, sum_out); // a ^ b ^ c
        let cout = self.nor(p.t1, p.t5)?; // majority(a, b, c)
        self.release_all([p.t1, p.t2, p.t3, p.t4, p.t5, p.t6, p.t7]);
        Ok(cout)
    }

    // ----- partition-parallel (whole-register) operations -----------------

    /// Partition-parallel `NOT` of a whole register: one micro-operation for
    /// all 32 gates. `dst` must be initialized to all-ones.
    pub fn par_not(&mut self, src: RegId, dst: RegId) {
        self.logic("validated registers", |cfg| {
            HLogic::parallel(GateKind::Not, src, src, dst, cfg)
        });
    }

    /// Partition-parallel `NOR` of two whole registers into `dst` (one
    /// micro-operation; `dst` must be all-ones).
    pub fn par_nor(&mut self, a: RegId, b: RegId, dst: RegId) {
        self.logic("validated registers", |cfg| {
            HLogic::parallel(GateKind::Nor, a, b, dst, cfg)
        });
    }

    /// Cross-partition shifted `NOT`: `dst[p + shift] = !src[p]` for every
    /// partition `p` with `p + shift` in range. Because concurrent half-gate
    /// sections must be disjoint (§III-D3), this costs `|shift| + 1`
    /// micro-operations. Out-of-range destination partitions are untouched
    /// (initialize `dst` to choose their value).
    ///
    /// # Panics
    ///
    /// Panics if `shift == 0` (use [`par_not`](Self::par_not)) or
    /// `|shift| >= N` (no partitions would remain).
    pub fn par_shift_not(&mut self, src: RegId, dst: RegId, shift: i32) {
        let n = self.cfg.partitions as i32;
        assert!(shift != 0 && shift.abs() < n, "shift {shift} out of range");
        let width = shift.unsigned_abs() as u8; // section span
        let step = width + 1;
        for class in 0..step {
            // Output partitions congruent to `first_out` mod `step`.
            let first_out = if shift > 0 {
                class as i32 + shift
            } else {
                class as i32
            };
            let first_in = first_out - shift;
            if first_out >= n || first_in < 0 || first_in >= n {
                continue;
            }
            // Last repetition keeping both operands in range.
            let reps_out = (n - 1 - first_out) / step as i32;
            let reps_in = (n - 1 - first_in) / step as i32;
            let reps = reps_out.min(reps_in);
            if reps < 0 {
                continue;
            }
            let p_end = (first_out + reps * step as i32) as u8;
            let input = ColAddr::new(first_in as u8, src);
            let output = ColAddr::new(first_out as u8, dst);
            self.logic("validated shift pattern", |cfg| {
                HLogic::strided(GateKind::Not, input, input, output, p_end, step, cfg)
            });
        }
    }

    /// The cells of a register, least-significant (partition 0) first.
    pub fn reg_bits(&self, reg: RegId) -> Bits {
        (0..self.cfg.partitions as u8)
            .map(|p| ColAddr::new(p, reg))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routines::testutil::compile;
    use pim_arch::{Backend, PimConfig, RangeMask};
    use pim_sim::PimSimulator;

    fn cfg() -> PimConfig {
        PimConfig::small().with_crossbars(1).with_rows(8)
    }

    /// Compiles `build`, then evaluates the routine on rows whose scratch
    /// region starts dirty, with `inputs` cells preset. Returns the values
    /// of the cells `build` returned.
    fn run(
        c: &PimConfig,
        inputs: &[(ColAddr, bool)],
        build: impl FnMut(&mut CircuitBuilder) -> Vec<ColAddr>,
    ) -> Vec<bool> {
        let (routine, probes) = compile(c, build);
        let routine = routine.prepare(c).unwrap();
        let mut sim = PimSimulator::new(c.clone()).unwrap();
        // Dirty the scratch region to prove routines self-initialize.
        for reg in c.user_regs..c.regs {
            for row in 0..c.rows {
                sim.poke(0, row, reg, 0xA5A5_5A5A);
            }
        }
        for (cell, v) in inputs {
            for row in 0..c.rows {
                let w = sim.peek(0, row, cell.offset as usize);
                let w = if *v {
                    w | 1 << cell.part
                } else {
                    w & !(1 << cell.part)
                };
                sim.poke(0, row, cell.offset as usize, w);
            }
        }
        sim.execute(&pim_arch::MicroOp::XbMask(RangeMask::single(0)))
            .unwrap();
        sim.execute(&pim_arch::MicroOp::RowMask(
            RangeMask::dense(0, c.rows as u32).unwrap(),
        ))
        .unwrap();
        sim.execute_prepared(&routine.batch).unwrap();
        probes
            .iter()
            .map(|p| sim.peek(0, 0, p.offset as usize) >> p.part & 1 == 1)
            .collect()
    }

    fn in_cell(i: u8) -> ColAddr {
        // Input cells live in user registers 0..; partition = index.
        ColAddr::new(i, 0)
    }

    #[test]
    fn derived_gates_truth_tables() {
        let c = cfg();
        for a in [false, true] {
            for bv in [false, true] {
                let (ca, cb) = (in_cell(0), in_cell(1));
                let got = run(&c, &[(ca, a), (cb, bv)], |b| {
                    vec![
                        b.nor(ca, cb).unwrap(),
                        b.or(ca, cb).unwrap(),
                        b.and(ca, cb).unwrap(),
                        b.and_not(ca, cb).unwrap(),
                        b.xor(ca, cb).unwrap(),
                        b.xnor(ca, cb).unwrap(),
                        b.not(ca).unwrap(),
                    ]
                });
                assert_eq!(
                    got,
                    vec![!(a | bv), a | bv, a & bv, a & !bv, a ^ bv, !(a ^ bv), !a],
                    "a={a} b={bv}"
                );
            }
        }
    }

    #[test]
    fn mux_truth_table() {
        let c = cfg();
        for sel in [false, true] {
            for a in [false, true] {
                for bv in [false, true] {
                    let (cs, ca, cb) = (in_cell(0), in_cell(1), in_cell(2));
                    let got = run(&c, &[(cs, sel), (ca, a), (cb, bv)], |b| {
                        vec![b.mux(cs, ca, cb).unwrap()]
                    });
                    assert_eq!(got[0], if sel { a } else { bv }, "sel={sel} a={a} b={bv}");
                }
            }
        }
    }

    #[test]
    fn full_adder_exhaustive() {
        let c = cfg();
        for a in [false, true] {
            for bv in [false, true] {
                for ci in [false, true] {
                    let (ca, cb, cc) = (in_cell(0), in_cell(1), in_cell(2));
                    let got = run(&c, &[(ca, a), (cb, bv), (cc, ci)], |b| {
                        let (s, co) = b.full_adder(ca, cb, cc).unwrap();
                        vec![s, co]
                    });
                    let total = a as u8 + bv as u8 + ci as u8;
                    assert_eq!(got[0], total & 1 == 1, "sum a={a} b={bv} c={ci}");
                    assert_eq!(got[1], total >= 2, "carry a={a} b={bv} c={ci}");
                }
            }
        }
    }

    #[test]
    fn full_adder_costs_9_gates() {
        let (x, y, z) = (in_cell(0), in_cell(1), in_cell(2));
        let (routine, _) = compile(&cfg(), |b| b.full_adder(x, y, z).unwrap());
        assert_eq!(routine.stats.logic_cycles, 9);
    }

    #[test]
    fn tree_gates() {
        let c = cfg();
        let cells: Vec<ColAddr> = (0..5).map(in_cell).collect();
        for pattern in 0..32u32 {
            let inputs: Vec<(ColAddr, bool)> = cells
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, pattern >> i & 1 == 1))
                .collect();
            let cs = cells.clone();
            let got = run(&c, &inputs, |b| {
                vec![
                    b.or_many(&cs).unwrap(),
                    b.nor_many(&cs).unwrap(),
                    b.and_many(&cs).unwrap(),
                ]
            });
            assert_eq!(got[0], pattern != 0, "or pattern={pattern:05b}");
            assert_eq!(got[1], pattern == 0, "nor pattern={pattern:05b}");
            assert_eq!(got[2], pattern == 31, "and pattern={pattern:05b}");
        }
    }

    #[test]
    fn constants() {
        let c = cfg();
        let got = run(&c, &[], |b| {
            let z = b.zero().unwrap();
            let o = b.one().unwrap();
            // Shared: second call returns the same cell.
            assert_eq!(b.zero().unwrap(), z);
            assert_eq!(b.one().unwrap(), o);
            vec![z, o]
        });
        assert_eq!(got, vec![false, true]);
    }

    #[test]
    fn alloc_reuse_keeps_cells_clean() {
        let c = cfg();
        // Allocate, free, and re-allocate many times; every allocation must
        // hand back a cell holding 1 even though the scratch started dirty.
        let got = run(&c, &[], |b| {
            let mut probes = Vec::new();
            for round in 0..40 {
                let cells: Vec<ColAddr> = (0..13).map(|_| b.alloc().unwrap()).collect();
                if round % 3 == 0 {
                    probes.push(cells[round % 13]);
                    // Leak this one (stays allocated), free the rest.
                    for (i, c) in cells.iter().enumerate() {
                        if i != round % 13 {
                            // Dirty some cells by gating into them.
                            if i % 2 == 0 {
                                let src = probes[0];
                                b.not_into(src, *c);
                            }
                            b.release(*c);
                        }
                    }
                } else {
                    b.release_all(cells);
                }
            }
            probes
        });
        assert!(
            got.iter().all(|&v| v),
            "allocated cells must hold 1: {got:?}"
        );

        // Interleaved lifetimes on a pool of four registers, so that every
        // placement path is taken. Each cell handed out becomes a gate
        // output at once — the strict simulator refuses a gate whose output
        // does not hold 1 — except the shared constant, which is probed.
        let c = cfg().with_user_regs(28);
        let src = in_cell(0);
        let fresh = |b: &mut CircuitBuilder| {
            let cell = b.alloc().unwrap();
            b.not_into(src, cell);
            cell
        };
        // Lets `gates` gates pass (into user register 1).
        let tick = |b: &mut CircuitBuilder, gates: usize| {
            for k in 0..gates {
                let part = (k % WORD_BITS) as u8;
                if part == 0 {
                    b.init_reg(1, true);
                }
                b.not_into(src, ColAddr::new(part, 1));
            }
        };
        // `count` cells that live for nine gates each, eight at a time;
        // returns their scratch registers and what initializing them cost.
        let shorts = |b: &mut CircuitBuilder, count: usize| {
            let before = b.stats.overhead_cycles;
            let mut ring = std::collections::VecDeque::new();
            let mut regs = Vec::new();
            for _ in 0..count {
                let cell = fresh(b);
                regs.push(b.scratch_index(cell).unwrap());
                ring.push_back(cell);
                if ring.len() > 8 {
                    b.release(ring.pop_front().unwrap());
                }
            }
            b.release_all(ring);
            (regs, b.stats.overhead_cycles - before)
        };
        let total = c.scratch_regs() * WORD_BITS;
        let mut trace = None;
        let got = run(&c, &[], |b| {
            let one = b.one().unwrap(); // never released
            let first = shorts(b, 80);
            let medium = fresh(b);
            tick(b, 20);
            b.release(medium);
            let long = fresh(b);
            tick(b, 70);
            b.release(long);
            let longer = fresh(b);
            tick(b, 300);
            b.release(longer);
            let second = shorts(b, 24);
            // Exhaustion: every remaining cell is handed out, once.
            let mut rest = 0;
            while let Ok(cell) = b.alloc() {
                b.not_into(src, cell);
                rest += 1;
            }
            assert_eq!(rest, total - 1);
            assert_eq!(b.live_cells(), total);
            assert!(matches!(
                b.alloc(),
                Err(DriverError::ScratchExhausted { .. })
            ));
            let reg = |cell| b.scratch_index(cell).unwrap();
            trace = Some((first, reg(medium), reg(long), longer, second));
            vec![one]
        });
        assert_eq!(got, [true]);
        let ((first, first_inits), medium, long, longer, (second, second_inits)) = trace.unwrap();
        // Open: the constant took register 0, so the short class opens
        // register 1; when that runs dry with eight cells still live, a
        // wholly free register (32 cells for one INIT) beats re-arming its
        // 24 dead ones. Reopen: by the time register 2 runs dry, register 1
        // has emptied as a whole and is armed again — three INITs in all.
        assert_eq!(first[..32], [1; 32]);
        assert_eq!(first[32..64], [2; 32]);
        assert_eq!(first[64..], [1; 16]);
        assert_eq!(first_inits, 3);
        // Each longer-lived class opens a register of its own while one is
        // to be had...
        assert_eq!((medium, long), (2, 3));
        // ...and steals when every register with a free cell is another
        // class's open one: the lowest clean cell, next to the constant.
        assert_eq!(longer, ColAddr::new(1, c.user_regs as RegId));
        // Re-arm in place: with no other register to be had, the short
        // class initializes the 24 dead cells of its own with one strided
        // INIT while its last eight are still live.
        assert_eq!(second, [1; 24]);
        assert_eq!(second_inits, 1);
    }

    #[test]
    fn par_ops_match_word_semantics() {
        let c = cfg();
        let (routine, ()) = compile(&c, |b| {
            // dst regs: user regs 2 and 3.
            b.init_reg(2, true);
            b.par_not(0, 2); // reg2 = !reg0
            b.init_reg(3, true);
            b.par_nor(0, 1, 3); // reg3 = !(reg0 | reg1)
        });
        let routine = routine.prepare(&c).unwrap();
        let mut sim = PimSimulator::new(c.clone()).unwrap();
        sim.poke(0, 0, 0, 0x1234_5678);
        sim.poke(0, 0, 1, 0x0F0F_0F0F);
        sim.execute(&pim_arch::MicroOp::XbMask(RangeMask::single(0)))
            .unwrap();
        sim.execute(&pim_arch::MicroOp::RowMask(RangeMask::single(0)))
            .unwrap();
        sim.execute_prepared(&routine.batch).unwrap();
        assert_eq!(sim.peek(0, 0, 2), !0x1234_5678u32);
        assert_eq!(sim.peek(0, 0, 3), !(0x1234_5678u32 | 0x0F0F_0F0F));
        assert_eq!(routine.stats.logic_cycles, 2);
        assert_eq!(routine.stats.overhead_cycles, 2);
    }

    #[test]
    fn par_shift_not_shifts_partitions() {
        let c = cfg();
        for shift in [-31, -7, -3, -1, 1, 2, 5, 31] {
            let (routine, ()) = compile(&c, |b| {
                b.init_reg(2, true);
                b.par_shift_not(0, 2, shift);
            });
            let expected_ops = shift.unsigned_abs() as u64 + 1;
            let routine = routine.prepare(&c).unwrap();
            assert!(
                routine.stats.logic_cycles <= expected_ops,
                "shift {shift}: {} ops",
                routine.stats.logic_cycles
            );
            let mut sim = PimSimulator::new(c.clone()).unwrap();
            let input = 0x9E37_79B9u32;
            sim.poke(0, 0, 0, input);
            sim.execute(&pim_arch::MicroOp::XbMask(RangeMask::single(0)))
                .unwrap();
            sim.execute(&pim_arch::MicroOp::RowMask(RangeMask::single(0)))
                .unwrap();
            sim.execute_prepared(&routine.batch).unwrap();
            let got = sim.peek(0, 0, 2);
            for p in 0..32i32 {
                let src = p - shift;
                let expect = if (0..32).contains(&src) {
                    input >> src & 1 == 0 // NOT of the shifted-in bit
                } else {
                    true // untouched: stays at the init value 1
                };
                assert_eq!(got >> p & 1 == 1, expect, "shift {shift} partition {p}");
            }
        }
    }

    #[test]
    fn scratch_exhaustion_is_reported() {
        let c = cfg();
        let total = c.scratch_regs() * WORD_BITS;
        compile(&c, |b| {
            for _ in 0..total {
                b.alloc().unwrap();
            }
            assert!(matches!(
                b.alloc(),
                Err(DriverError::ScratchExhausted { .. })
            ));
        });
    }

    #[test]
    fn alloc_reg_reserves_and_releases() {
        let c = cfg();
        compile(&c, |b| {
            let r1 = b.alloc_reg().unwrap();
            let r2 = b.alloc_reg().unwrap();
            assert_ne!(r1, r2);
            assert!(r1 as usize >= c.user_regs && (r1 as usize) < c.regs);
            // Cells never come from reserved registers.
            for _ in 0..(c.scratch_regs() - 2) * WORD_BITS {
                let cell = b.alloc().unwrap();
                assert_ne!(cell.offset, r1);
                assert_ne!(cell.offset, r2);
            }
            assert!(b.alloc().is_err());
            b.release_reg(r1);
            assert!(b.alloc().is_ok());
        });
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        compile(&cfg(), |b| {
            let cell = b.alloc().unwrap();
            b.release(cell);
            b.release(cell);
        });
    }

    #[test]
    fn overhead_fraction_is_small_for_adder_chains() {
        // 32 chained full adders (a ripple add) must spend most cycles on
        // logic, not initialization — the §VI-B "close to theoretical" claim
        // starts here.
        let (routine, ()) = compile(&cfg(), |b| {
            let mut carry = b.zero().unwrap();
            for i in 0..32u8 {
                let a = ColAddr::new(i, 0);
                let x = ColAddr::new(i, 1);
                let (s, co) = b.full_adder(a, x, carry).unwrap();
                b.release(s);
                if carry != b.zero().unwrap() {
                    b.release(carry);
                }
                carry = co;
            }
        });
        let stats = routine.stats;
        assert_eq!(stats.logic_cycles, 9 * 32);
        assert!(
            stats.overhead_fraction() < 0.05,
            "overhead fraction {} too high ({} overhead cycles)",
            stats.overhead_fraction(),
            stats.overhead_cycles
        );
    }
}
