use pim_arch::{
    plan_elisions, ArchError, Backend, GateKind, HLogic, MicroOp, MoveOp, OpBits, PimConfig,
    PreparedBatch, RangeMask, VGate,
};
use pim_sim::{charge_batch, charge_op, Profiler};

/// Lane mask selecting the even row (low 32 bits) of a packed word.
const LOW: u64 = 0x0000_0000_FFFF_FFFF;
/// Lane mask selecting the odd row (high 32 bits) of a packed word.
const HIGH: u64 = 0xFFFF_FFFF_0000_0000;

/// Shifts gate bits from input partitions to output partitions in both
/// packed rows at once: positive `s` moves bit `p` to bit `p + s` within
/// each 32-bit lane. Bits that cross the lane boundary are annihilated by
/// the caller's lane-replicated `out_bits` mask: for every output bit `q`
/// the source partition `q - s` is in `[0, 32)` (enforced by
/// [`HLogic::validate`]), so a bit shifted in from the *other* lane can
/// never land on a masked output position.
#[inline]
fn part_shift64(x: u64, s: i32) -> u64 {
    if s >= 0 {
        x << s
    } else {
        x >> (-s)
    }
}

/// One contiguous run of packed words plus the lane mask to apply there.
type Span = (std::ops::Range<usize>, u64);

/// Lowers a row mask into contiguous row-pair segments with constant lane
/// masks, handing each to `f`. Dense masks produce at most three segments
/// (odd head half-pair, full middle, even tail half-pair); step-2 masks
/// produce one single-lane segment; other strides fall back to one segment
/// per row.
fn for_each_row_segment(mask: &RangeMask, mut f: impl FnMut(std::ops::Range<usize>, u64)) {
    let (start, stop) = (mask.start() as usize, mask.stop() as usize);
    match mask.step() {
        1 => {
            let mut lo = start;
            if lo & 1 == 1 {
                f(lo >> 1..(lo >> 1) + 1, HIGH);
                lo += 1;
                if lo > stop {
                    return;
                }
            }
            if stop & 1 == 1 {
                f(lo >> 1..(stop >> 1) + 1, u64::MAX);
            } else {
                if lo < stop {
                    f(lo >> 1..stop >> 1, u64::MAX);
                }
                f(stop >> 1..(stop >> 1) + 1, LOW);
            }
        }
        2 => {
            let lane = if start & 1 == 0 { LOW } else { HIGH };
            f(start >> 1..(stop >> 1) + 1, lane);
        }
        _ => {
            for row in mask.iter() {
                let row = row as usize;
                let lane = if row & 1 == 0 { LOW } else { HIGH };
                f(row >> 1..(row >> 1) + 1, lane);
            }
        }
    }
}

/// Rebuilds `spans` as the flat word spans, within one register block, of
/// the rows `row_mask` selects in the crossbars `xb_mask` selects. A dense
/// crossbar mask whose rows lower to one segment covering every row pair
/// collapses into a *single* span over all selected crossbars — the
/// whole-memory fast path.
fn rebuild_spans(spans: &mut Vec<Span>, xb_mask: &RangeMask, row_mask: &RangeMask, rph: usize) {
    spans.clear();
    if let (Some(xr), true) = (xb_mask.as_dense_range(), row_mask.step() <= 2) {
        let mut segments = 0;
        let mut last = (0..0, 0);
        for_each_row_segment(row_mask, |seg, lane| {
            segments += 1;
            last = (seg, lane);
        });
        if segments == 1 && last.0 == (0..rph) {
            spans.push((xr.start * rph..xr.end * rph, last.1));
            return;
        }
    }
    for xb in xb_mask.iter() {
        let base = xb as usize * rph;
        for_each_row_segment(row_mask, |seg, lane| {
            spans.push((base + seg.start..base + seg.end, lane));
        });
    }
}

/// The output block of a fused gate kernel (mutable) plus its input
/// blocks, split out of the image in O(1). An input equal to `out` comes
/// back as `None` — the kernel then reads the output word itself, which is
/// exactly the pre-gate value because each word is read before it is
/// written.
#[allow(clippy::type_complexity)]
fn out_and_inputs(
    words: &mut [u64],
    block: usize,
    out: usize,
    a: usize,
    b: usize,
) -> (&mut [u64], Option<&[u64]>, Option<&[u64]>) {
    let (below, rest) = words.split_at_mut(out * block);
    let (dst, above) = rest.split_at_mut(block);
    let (below, above): (&[u64], &[u64]) = (below, above);
    let input = |reg: usize| match reg.cmp(&out) {
        std::cmp::Ordering::Less => Some(&below[reg * block..(reg + 1) * block]),
        std::cmp::Ordering::Equal => None,
        std::cmp::Ordering::Greater => Some(&above[(reg - out - 1) * block..(reg - out) * block]),
    };
    (dst, input(a), input(b))
}

/// The vectorized functional backend: architecturally equivalent to
/// [`pim_sim::PimSimulator`] (bit-identical reads, identical profiler
/// totals via the shared cost model [`pim_sim::charge_op`]) but executed
/// as plain word-level host code. See the crate docs for the design and
/// `README.md` for what "functional" does and does not guarantee.
#[derive(Debug)]
pub struct FuncBackend {
    cfg: PimConfig,
    /// Crossbar count (hoisted from `cfg` for indexing).
    xbs: usize,
    /// Row pairs per crossbar: `cfg.rows.div_ceil(2)`.
    rph: usize,
    /// Packed cell state: `words[(reg * xbs + xb) * rph + pair]`, low
    /// 32 bits = row `2·pair`, high 32 bits = row `2·pair + 1`.
    words: Vec<u64>,
    xb_mask: RangeMask,
    row_mask: RangeMask,
    /// The word spans the two masks select within one register block,
    /// rebuilt on first use after a mask changed (`spans_stale`) — every
    /// gate and write between two mask operations shares them.
    spans: Vec<Span>,
    spans_stale: bool,
    strict: bool,
    profiler: Profiler,
    /// Source words of the move in flight (reused across moves).
    move_scratch: Vec<u32>,
}

/// A point-in-time copy of a functional backend's architectural state —
/// the per-backend analog of [`pim_sim::SimSnapshot`], used by
/// `pim-cluster` as a shard checkpoint.
#[derive(Debug, Clone)]
pub struct FuncSnapshot {
    words: Vec<u64>,
    xb_mask: RangeMask,
    row_mask: RangeMask,
    strict: bool,
    profiler: Profiler,
}

impl FuncBackend {
    /// Creates a functional backend with all cells at logical 0 and both
    /// masks covering the whole memory. Mirrors
    /// [`pim_sim::PimSimulator::new`]; the strict flag defaults to on for
    /// interface parity even though no strict check executes here.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(cfg: PimConfig) -> Result<Self, ArchError> {
        cfg.validate()?;
        let xbs = cfg.crossbars;
        let rph = cfg.rows.div_ceil(2);
        Ok(FuncBackend {
            xb_mask: RangeMask::dense(0, cfg.crossbars as u32).expect("validated nonzero"),
            row_mask: RangeMask::dense(0, cfg.rows as u32).expect("validated nonzero"),
            words: vec![0; cfg.regs * xbs * rph],
            spans: Vec::new(),
            spans_stale: true,
            xbs,
            rph,
            cfg,
            strict: true,
            profiler: Profiler::new(),
            move_scratch: Vec::new(),
        })
    }

    /// Stores the strict flag for interface parity with the simulator.
    /// The functional backend performs **no** stateful-logic discipline
    /// checking; validate routines against the bit-accurate simulator.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// The stored strict flag (not enforced; see [`set_strict`]).
    ///
    /// [`set_strict`]: FuncBackend::set_strict
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The profiling counters accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Resets the profiling counters.
    pub fn reset_profiler(&mut self) {
        self.profiler.reset();
    }

    /// Charges `cycles` modeled cycles without executing anything (fault
    /// injection models a stalled shard this way).
    pub fn stall(&mut self, cycles: u64) {
        self.profiler.cycles += cycles;
    }

    /// Direct state inspection for tests and debugging: the word at
    /// `(crossbar, row, reg)`. Bypasses the micro-operation interface.
    pub fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        (self.words[self.widx(reg, xb, row >> 1)] >> ((row & 1) * 32)) as u32
    }

    /// Direct state mutation for tests and debugging; see [`peek`].
    ///
    /// [`peek`]: FuncBackend::peek
    pub fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        let i = self.widx(reg, xb, row >> 1);
        let shift = (row & 1) * 32;
        let lane = 0xFFFF_FFFFu64 << shift;
        self.words[i] = (self.words[i] & !lane) | ((value as u64) << shift);
    }

    /// Captures the complete architectural state as a [`FuncSnapshot`].
    /// The thread preference is host policy and is not captured.
    pub fn snapshot(&self) -> FuncSnapshot {
        FuncSnapshot {
            words: self.words.clone(),
            xb_mask: self.xb_mask,
            row_mask: self.row_mask,
            strict: self.strict,
            profiler: self.profiler.clone(),
        }
    }

    /// Restores the state captured by [`snapshot`](FuncBackend::snapshot).
    /// The snapshot must come from a backend with the same geometry.
    pub fn restore(&mut self, snap: &FuncSnapshot) {
        debug_assert_eq!(
            snap.words.len(),
            self.words.len(),
            "snapshot geometry mismatch"
        );
        self.words.clone_from(&snap.words);
        self.set_masks(snap.xb_mask, snap.row_mask);
        self.strict = snap.strict;
        self.profiler = snap.profiler.clone();
    }

    #[inline]
    fn widx(&self, reg: usize, xb: usize, pair: usize) -> usize {
        (reg * self.xbs + xb) * self.rph + pair
    }

    fn set_masks(&mut self, xb_mask: RangeMask, row_mask: RangeMask) {
        self.xb_mask = xb_mask;
        self.row_mask = row_mask;
        self.spans_stale = true;
    }

    /// The image and the spans the stored masks select in a register
    /// block, brought up to date first.
    fn words_and_spans(&mut self) -> (&mut [u64], &[Span]) {
        if self.spans_stale {
            rebuild_spans(&mut self.spans, &self.xb_mask, &self.row_mask, self.rph);
            self.spans_stale = false;
        }
        (&mut self.words, &self.spans)
    }

    /// Applies a horizontal stateful-logic operation under the stored
    /// masks — the word-level gate evaluation over packed row pairs, and
    /// the one gate kernel every execution path ends in. Shifts and the
    /// output-partition bits come from the operation itself each time;
    /// nothing about an operation is stored beyond the `MicroOp`.
    fn apply_hlogic(&mut self, op: &HLogic) {
        let bits = op.out_bits() as u64;
        let bits64 = bits << 32 | bits;
        let (sa, sb) = (op.shift_a(), op.shift_b());
        let block = self.xbs * self.rph;
        let (words, spans) = self.words_and_spans();
        let (dst, col_a, col_b) = out_and_inputs(
            words,
            block,
            op.out.offset as usize,
            op.in_a.offset as usize,
            op.in_b.offset as usize,
        );
        for (r, lane) in spans {
            let m = bits64 & lane;
            let dst = &mut dst[r.clone()];
            match op.gate {
                GateKind::Init0 => dst.iter_mut().for_each(|w| *w &= !m),
                GateKind::Init1 => dst.iter_mut().for_each(|w| *w |= m),
                GateKind::Not => match col_a {
                    Some(av) => {
                        for (d, &x) in dst.iter_mut().zip(&av[r.clone()]) {
                            *d &= !(part_shift64(x, sa) & m);
                        }
                    }
                    None => {
                        for d in dst.iter_mut() {
                            *d &= !(part_shift64(*d, sa) & m);
                        }
                    }
                },
                GateKind::Nor => match (col_a, col_b) {
                    (Some(av), Some(bv)) => {
                        for ((d, &x), &y) in dst.iter_mut().zip(&av[r.clone()]).zip(&bv[r.clone()])
                        {
                            *d &= !((part_shift64(x, sa) | part_shift64(y, sb)) & m);
                        }
                    }
                    (None, Some(bv)) => {
                        for (d, &y) in dst.iter_mut().zip(&bv[r.clone()]) {
                            *d &= !((part_shift64(*d, sa) | part_shift64(y, sb)) & m);
                        }
                    }
                    (Some(av), None) => {
                        for (d, &x) in dst.iter_mut().zip(&av[r.clone()]) {
                            *d &= !((part_shift64(x, sa) | part_shift64(*d, sb)) & m);
                        }
                    }
                    (None, None) => {
                        for d in dst.iter_mut() {
                            *d &= !((part_shift64(*d, sa) | part_shift64(*d, sb)) & m);
                        }
                    }
                },
            }
        }
    }

    /// Writes `value` to one register of every masked row of every masked
    /// crossbar (memory write semantics).
    fn apply_write(&mut self, reg: usize, value: u32) {
        let packed = (value as u64) << 32 | value as u64;
        let block = self.xbs * self.rph;
        let (words, spans) = self.words_and_spans();
        let dst = &mut words[reg * block..(reg + 1) * block];
        for (r, lane) in spans {
            if *lane == u64::MAX {
                dst[r.clone()].fill(packed);
            } else {
                for w in &mut dst[r.clone()] {
                    *w = (*w & !lane) | (packed & lane);
                }
            }
        }
    }

    /// Applies a vertical gate between two rows of every masked crossbar.
    /// No strict check runs (see [`set_strict`](FuncBackend::set_strict)).
    fn apply_vlogic(&mut self, gate: VGate, row_in: usize, row_out: usize, reg: usize) {
        let mask = self.xb_mask;
        for xb in mask.iter() {
            let xb = xb as usize;
            match gate {
                VGate::Init0 => self.poke(xb, row_out, reg, 0),
                VGate::Init1 => self.poke(xb, row_out, reg, u32::MAX),
                VGate::Not => {
                    let src = self.peek(xb, row_in, reg);
                    let dst = self.peek(xb, row_out, reg);
                    self.poke(xb, row_out, reg, dst & !src);
                }
            }
        }
    }

    /// Distributed move: gather all source words, then scatter — sources
    /// and destinations are disjoint (H-tree rules), and the two-phase
    /// form matches the simulator exactly.
    fn apply_move(&mut self, mv: &MoveOp) {
        let mask = self.xb_mask;
        let mut sent = std::mem::take(&mut self.move_scratch);
        sent.clear();
        sent.extend(
            mask.iter()
                .map(|src| self.peek(src as usize, mv.row_src as usize, mv.index_src as usize)),
        );
        for (src, &value) in mask.iter().zip(&sent) {
            let dst = (src as i64 + mv.dist as i64) as usize;
            self.poke(dst, mv.row_dst as usize, mv.index_dst as usize, value);
        }
        self.move_scratch = sent;
    }

    fn read_word(&self, index: u8) -> Result<u32, ArchError> {
        if !self.xb_mask.is_single() || !self.row_mask.is_single() {
            return Err(ArchError::Protocol {
                reason: format!(
                    "read requires masks selecting a single row of a single crossbar \
                     (crossbar mask selects {}, row mask selects {})",
                    self.xb_mask.len(),
                    self.row_mask.len()
                ),
            });
        }
        Ok(self.peek(
            self.xb_mask.start() as usize,
            self.row_mask.start() as usize,
            index as usize,
        ))
    }

    /// Applies one validated, charged, non-read operation. Infallible:
    /// bounds were validated and moves were planned during accounting, and
    /// no strict discipline check runs here.
    fn apply(&mut self, op: &MicroOp) {
        match op {
            MicroOp::XbMask(m) => self.set_masks(*m, self.row_mask),
            MicroOp::RowMask(m) => self.set_masks(self.xb_mask, *m),
            MicroOp::Write { index, value } => self.apply_write(*index as usize, *value),
            MicroOp::LogicH(l) => self.apply_hlogic(l),
            MicroOp::LogicV {
                gate,
                row_in,
                row_out,
                index,
            } => self.apply_vlogic(*gate, *row_in as usize, *row_out as usize, *index as usize),
            MicroOp::Move(mv) => self.apply_move(mv),
            MicroOp::Read { .. } => unreachable!("reads are handled by the dispatcher"),
        }
    }

    /// Whether `xb_mask` and `row_mask` select the entire memory (every
    /// crossbar, every row) — the condition under which a whole-register
    /// store fully defines the register for dead-store elimination.
    fn masks_full(&self, xb_mask: &RangeMask, row_mask: &RangeMask) -> bool {
        let full =
            |m: &RangeMask, n: usize| m.start() == 0 && m.step() == 1 && m.stop() as usize == n - 1;
        full(xb_mask, self.cfg.crossbars) && full(row_mask, self.cfg.rows)
    }

    /// Applies validated, charged, read-free operations in order, skipping
    /// the ones `elide` marks. [`plan_elisions`] never marks a mask
    /// operation, so the final mask state matches op-by-op execution.
    fn run(&mut self, ops: &[MicroOp], elide: Option<&OpBits>) {
        for (i, op) in ops.iter().enumerate() {
            if !elide.is_some_and(|e| e.get(i)) {
                self.apply(op);
            }
        }
    }
}

impl Backend for FuncBackend {
    fn config(&self) -> &PimConfig {
        &self.cfg
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        op.validate(&self.cfg)?;
        charge_op(
            &mut self.profiler,
            op,
            &self.xb_mask,
            &self.row_mask,
            &self.cfg,
        )?;
        if let MicroOp::Read { index } = op {
            return self.read_word(*index).map(Some);
        }
        self.apply(op);
        Ok(None)
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        // Validate and charge the full stream first, tracking the evolving
        // mask state and recording which ops see whole-memory masks. On any
        // rejection the profiler rolls back (the stored masks are not
        // touched until the stream is accepted), so a failed batch leaves
        // the backend exactly as it was.
        let (mut xb_mask, mut row_mask) = (self.xb_mask, self.row_mask);
        let profiler0 = self.profiler.clone();
        let mut full: Option<OpBits> = None;
        let mut is_full = self.masks_full(&xb_mask, &row_mask);
        for (i, op) in ops.iter().enumerate() {
            let checked = match op {
                MicroOp::Read { .. } => Err(ArchError::Protocol {
                    reason: "read operations cannot be batched".into(),
                }),
                _ => op.validate(&self.cfg).and_then(|()| {
                    charge_op(&mut self.profiler, op, &xb_mask, &row_mask, &self.cfg)
                }),
            };
            if let Err(e) = checked {
                self.profiler = profiler0;
                return Err(e);
            }
            match op {
                MicroOp::XbMask(m) => {
                    xb_mask = *m;
                    is_full = self.masks_full(&xb_mask, &row_mask);
                }
                MicroOp::RowMask(m) => {
                    row_mask = *m;
                    is_full = self.masks_full(&xb_mask, &row_mask);
                }
                _ if is_full => full.get_or_insert_with(|| OpBits::new(ops.len())).set(i),
                _ => {}
            }
        }
        // Only a store under whole-memory masks can make another one dead.
        let elide = full.map(|full| plan_elisions(ops, |i| full.get(i)));
        self.run(ops, elide.as_ref());
        Ok(())
    }

    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        if !batch.prepared_for(&self.cfg) {
            // Validated for another geometry: nothing about it is trusted.
            return self.execute_batch(batch.ops());
        }
        // The batch holds no mask operation, so the stored masks hold for
        // all of it: one closed-form charge (atomic on a bad move), and the
        // elision plan is the precomputed one or none at all.
        charge_batch(
            &mut self.profiler,
            batch,
            &self.xb_mask,
            &self.row_mask,
            &self.cfg,
        )?;
        let elide = self
            .masks_full(&self.xb_mask, &self.row_mask)
            .then(|| batch.full_mask_elisions());
        self.run(batch.ops(), elide);
        Ok(())
    }
}
