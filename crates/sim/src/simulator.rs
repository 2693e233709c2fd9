use crate::{charge_batch, charge_op, Crossbars, Profiler, Selection};
use pim_arch::{
    ArchError, Backend, CellRun, MicroOp, PimConfig, PreparedBatch, RangeMask, RowMove,
};

mod access;
mod moves;

/// The bit-accurate digital PIM simulator (§VI) — a drop-in replacement for
/// a physical chip behind the [`Backend`] micro-operation interface.
///
/// State: the cells of every crossbar as one bit-plane image
/// ([`Crossbars`]), the stored crossbar mask and the stored row mask
/// (start/stop/step, §III-B). A [`Profiler`] records micro-operation counts
/// per type; under the 1-op/cycle model these are latency measurements.
///
/// Operations execute one after another on the calling thread, each over
/// the selected crossbars only: a micro-operation touches too few words of
/// the plane image to repay a thread hand-off.
///
/// A clone is a point-in-time copy of the whole chip (cells, masks,
/// strict flag, profiler); `pim-cluster` checkpoints a shard as a clone of
/// its driver, and so of this.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct PimSimulator {
    cfg: PimConfig,
    cells: Crossbars,
    xb_mask: RangeMask,
    row_mask: RangeMask,
    /// The two masks as the plane kernels take them, lowered on the first
    /// gate or write after a mask operation (`sel_stale`).
    sel: Selection,
    sel_stale: bool,
    strict: bool,
    profiler: Profiler,
    /// Source words of the move in flight (reused across moves).
    move_scratch: Vec<u32>,
    /// Row patterns and source words of the row move in flight (reused
    /// across row moves).
    row_scratch: Vec<u64>,
}

impl PimSimulator {
    /// Creates a simulator with all cells at logical 0, both masks covering
    /// the whole memory, and strict stateful-logic checking enabled.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(cfg: PimConfig) -> Result<Self, ArchError> {
        cfg.validate()?;
        Ok(PimSimulator {
            xb_mask: RangeMask::dense(0, cfg.crossbars as u32)?,
            row_mask: RangeMask::dense(0, cfg.rows as u32)?,
            cells: Crossbars::new(cfg.crossbars, cfg.rows, cfg.regs),
            cfg,
            sel: Selection::default(),
            sel_stale: true,
            strict: true,
            profiler: Profiler::new(),
            move_scratch: Vec::new(),
            row_scratch: Vec::new(),
        })
    }

    /// Enables or disables strict stateful-logic checking (output cells of
    /// `NOT`/`NOR` gates must be 1 when the gate fires). Strict mode is on
    /// by default, and nothing that builds a chip for a device turns it
    /// off. Only the randomized gate suites (whose gates fire onto cells no
    /// `INIT1` armed), the strict-versus-relaxed block-form tests and the
    /// `simulator/int_add_fast` bench row call this.
    pub fn set_strict(&mut self, strict: bool) {
        self.strict = strict;
    }

    /// Whether strict stateful-logic checking is enabled.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The profiling counters accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Resets the profiling counters.
    pub fn reset_counters(&mut self) {
        self.profiler.reset();
    }

    /// Direct state inspection for tests and debugging: the word (register
    /// value) at `(crossbar, row, reg)`. Bypasses the micro-operation
    /// interface — production code must use [`MicroOp::Read`].
    pub fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        self.cells.word(xb, row, reg)
    }

    /// Direct state mutation for tests and debugging; see [`peek`].
    ///
    /// [`peek`]: PimSimulator::peek
    pub fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        self.cells.set_word(xb, row, reg, value);
    }

    /// Charges `cycles` modeled cycles without executing anything — the
    /// chip is alive but making no progress (used by fault injection to
    /// model a stalled shard worker). Data and masks are unaffected.
    pub fn stall(&mut self, cycles: u64) {
        self.profiler.cycles += cycles;
    }

    fn read(&self, index: u8) -> Result<u32, ArchError> {
        check_read_masks(&self.xb_mask, &self.row_mask)?;
        let (xb, row) = (self.xb_mask.start(), self.row_mask.start());
        Ok(self.cells.word(xb as usize, row as usize, index as usize))
    }

    /// Applies one validated, charged operation under the stored masks —
    /// the one place every execution path ends in. A move was planned when
    /// it was charged, so its destinations are in range.
    fn apply(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        if matches!(op, MicroOp::Write { .. } | MicroOp::LogicH(_)) {
            self.lower_selection();
        }
        match op {
            MicroOp::XbMask(m) => (self.xb_mask, self.sel_stale) = (*m, true),
            MicroOp::RowMask(m) => (self.row_mask, self.sel_stale) = (*m, true),
            MicroOp::Read { index } => return self.read(*index).map(Some),
            MicroOp::Write { index, value } => self.cells.write(*index as usize, *value, &self.sel),
            MicroOp::LogicH(l) => self.cells.apply_hlogic(l, &self.sel, self.strict)?,
            MicroOp::LogicV {
                gate,
                row_in,
                row_out,
                index,
            } => {
                let rows = (*row_in as usize, *row_out as usize);
                self.cells
                    .apply_vlogic(*gate, rows, *index as usize, &self.xb_mask, self.strict)?
            }
            MicroOp::Move(mv) => self
                .cells
                .move_words(mv, &self.xb_mask, &mut self.move_scratch),
        }
        Ok(None)
    }

    /// Brings `sel` up to date with the stored masks.
    fn lower_selection(&mut self) {
        if self.sel_stale {
            self.cells
                .lower_masks(&self.xb_mask, &self.row_mask, &mut self.sel);
            self.sel_stale = false;
        }
    }

    /// Validates and charges a whole stream against the mask state each
    /// operation will run under; a read has no place in one. The stored
    /// masks are not touched and the profiler rolls back on a rejection, so
    /// a refused stream leaves the simulator exactly as it was.
    fn accept(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        let (mut xb_mask, mut row_mask) = (self.xb_mask, self.row_mask);
        let profiler0 = self.profiler.clone();
        for op in ops {
            let checked = op
                .validate(&self.cfg)
                .and_then(|()| match op {
                    MicroOp::Read { .. } => Err(ArchError::Protocol {
                        reason: "read operations cannot be batched".into(),
                    }),
                    _ => Ok(()),
                })
                .and_then(|()| charge_op(&mut self.profiler, op, &xb_mask, &row_mask, &self.cfg));
            if let Err(e) = checked {
                self.profiler = profiler0;
                return Err(e);
            }
            match op {
                MicroOp::XbMask(m) => xb_mask = *m,
                MicroOp::RowMask(m) => row_mask = *m,
                _ => {}
            }
        }
        Ok(())
    }

    /// Applies an accepted stream in order. A run of moves at the head of
    /// the remaining stream is applied in its block form
    /// ([`move_run`](Self::move_run)); every other operation — and a lone
    /// move — goes through [`apply`](Self::apply).
    fn run_blocks(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        let mut rest = ops;
        while let Some(op) = rest.first() {
            let covered = match op {
                MicroOp::Move(_) => self.move_run(rest),
                _ => 0,
            };
            if covered == 0 {
                self.apply(op)?;
            }
            rest = &rest[covered.max(1)..];
        }
        Ok(())
    }
}

/// The read protocol (§III-B): a read answers with one word, so the masks
/// in force must select a single row of a single crossbar.
fn check_read_masks(xb_mask: &RangeMask, row_mask: &RangeMask) -> Result<(), ArchError> {
    if xb_mask.is_single() && row_mask.is_single() {
        return Ok(());
    }
    Err(ArchError::Protocol {
        reason: format!(
            "read requires masks selecting a single row of a single crossbar \
             (crossbar mask selects {}, row mask selects {})",
            xb_mask.len(),
            row_mask.len()
        ),
    })
}

impl Backend for PimSimulator {
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
        self.apply(op)
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        self.accept(ops)?;
        self.run_blocks(ops)
    }

    fn access(&mut self, run: &CellRun<'_>, out: &mut Vec<u32>) -> Result<(), ArchError> {
        // The block form starts from the mask the run's contract promises,
        // one value to a row; any other run is what its expansion does.
        let counted = run.values.is_none_or(|v| v.len() == run.rows.len());
        let lead = run.rows.first().map(|&row| RangeMask::single(row));
        match counted && lead == Some(self.row_mask) {
            true => self.access_block(run, out),
            false => run.expand(self, out),
        }
    }

    fn move_rows(&mut self, mv: &RowMove) -> Result<(), ArchError> {
        self.move_rows_block(mv)
    }

    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        if !batch.prepared_for(&self.cfg) {
            // Validated for another geometry: nothing about it is trusted.
            return self.execute_batch(batch.ops());
        }
        // No mask operation inside, so the stored masks hold for all of it:
        // one closed-form charge, atomic on a bad move, and one selection.
        charge_batch(
            &mut self.profiler,
            batch,
            &self.xb_mask,
            &self.row_mask,
            &self.cfg,
        )?;
        self.lower_selection();
        // Runs of plain gates go through the replay loop; the record that
        // ends a run is applied alone, checked if strict and unproved.
        let (ops, records, strict) = (batch.ops(), batch.records(), self.strict);
        let mut at = 0;
        loop {
            at += self.cells.replay_plain(&records[at..], &self.sel, strict);
            match records.get(at) {
                None => return Ok(()),
                Some(gate) if gate.is_gate() => {
                    self.cells
                        .apply_gate(gate, &self.sel, strict && !gate.armed())?
                }
                Some(_) => self.apply(&ops[at]).map(drop)?,
            }
            at += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::{GateKind, HLogic, MoveOp, VGate};

    fn sim() -> PimSimulator {
        PimSimulator::new(PimConfig::small()).unwrap()
    }

    fn ops_write_all(value: u32, index: u8) -> Vec<MicroOp> {
        vec![MicroOp::Write { index, value }]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut s = sim();
        s.execute(&MicroOp::XbMask(RangeMask::single(2))).unwrap();
        s.execute(&MicroOp::RowMask(RangeMask::single(5))).unwrap();
        s.execute(&MicroOp::Write {
            index: 3,
            value: 0xCAFE_BABE,
        })
        .unwrap();
        assert_eq!(
            s.execute(&MicroOp::Read { index: 3 }).unwrap(),
            Some(0xCAFE_BABE)
        );
        // Other crossbars and rows untouched.
        assert_eq!(s.peek(1, 5, 3), 0);
        assert_eq!(s.peek(2, 4, 3), 0);
    }

    #[test]
    fn read_requires_single_masks() {
        let mut s = sim();
        let err = s.execute(&MicroOp::Read { index: 0 }).unwrap_err();
        assert!(matches!(err, ArchError::Protocol { .. }));
    }

    #[test]
    fn masked_write_covers_pattern() {
        let mut s = sim();
        s.execute(&MicroOp::XbMask(RangeMask::new(0, 8, 4).unwrap()))
            .unwrap();
        s.execute(&MicroOp::RowMask(RangeMask::new(1, 61, 4).unwrap()))
            .unwrap();
        s.execute(&MicroOp::Write {
            index: 7,
            value: 42,
        })
        .unwrap();
        for xb in 0..16 {
            for row in 0..64 {
                let expect = [0, 4, 8].contains(&xb) && row % 4 == 1;
                assert_eq!(s.peek(xb, row, 7) == 42, expect, "xb {xb} row {row}");
            }
        }
    }

    #[test]
    fn logic_runs_on_masked_crossbars_only() {
        let mut s = sim();
        let cfg = s.config().clone();
        s.execute(&MicroOp::XbMask(RangeMask::single(3))).unwrap();
        s.execute(&MicroOp::LogicH(HLogic::init_reg(true, 0, &cfg).unwrap()))
            .unwrap();
        assert_eq!(s.peek(3, 0, 0), u32::MAX);
        assert_eq!(s.peek(2, 0, 0), 0);
    }

    #[test]
    fn move_transfers_between_crossbars() {
        let mut s = sim();
        s.poke(1, 9, 4, 0x1111_2222);
        s.poke(5, 9, 4, 0x3333_4444);
        // Sources {1, 5}, step 4 (power of 4), dist +1.
        s.execute(&MicroOp::XbMask(RangeMask::new(1, 5, 4).unwrap()))
            .unwrap();
        s.execute(&MicroOp::Move(MoveOp {
            dist: 1,
            row_src: 9,
            row_dst: 11,
            index_src: 4,
            index_dst: 6,
        }))
        .unwrap();
        assert_eq!(s.peek(2, 11, 6), 0x1111_2222);
        assert_eq!(s.peek(6, 11, 6), 0x3333_4444);
        assert_eq!(s.profiler().move_pairs, 2);
        // Parallel within leaf groups: one cycle.
        assert_eq!(s.profiler().cycles, 2); // 1 mask + 1 move
    }

    #[test]
    fn move_rejects_bad_patterns() {
        let mut s = sim();
        s.execute(&MicroOp::XbMask(RangeMask::new(0, 6, 2).unwrap()))
            .unwrap();
        let err = s
            .execute(&MicroOp::Move(MoveOp {
                dist: 1,
                row_src: 0,
                row_dst: 0,
                index_src: 0,
                index_dst: 0,
            }))
            .unwrap_err();
        assert!(matches!(err, ArchError::InvalidMove { .. }));
    }

    #[test]
    fn profiler_counts_types_and_gates() {
        let mut s = sim();
        let cfg = s.config().clone();
        s.execute(&MicroOp::XbMask(RangeMask::dense(0, 16).unwrap()))
            .unwrap();
        s.execute(&MicroOp::RowMask(RangeMask::dense(0, 64).unwrap()))
            .unwrap();
        s.execute(&MicroOp::LogicH(HLogic::init_reg(true, 1, &cfg).unwrap()))
            .unwrap();
        s.execute(&MicroOp::LogicH(
            HLogic::parallel(GateKind::Not, 0, 0, 1, &cfg).unwrap(),
        ))
        .unwrap();
        let p = s.profiler();
        assert_eq!(p.ops.xb_mask, 1);
        assert_eq!(p.ops.row_mask, 1);
        assert_eq!(p.ops.logic_h, 2);
        assert_eq!(p.gates, 64); // two 32-gate partition-parallel ops
        assert_eq!(p.row_gates, 64 * 64 * 16);
        assert_eq!(p.cycles, 4);
    }

    #[test]
    fn vertical_logic_applies_across_masked_crossbars() {
        let mut s = sim();
        s.poke(0, 3, 2, 77);
        s.poke(9, 3, 2, 0xFF);
        s.execute(&MicroOp::LogicV {
            gate: VGate::Init1,
            row_in: 0,
            row_out: 8,
            index: 2,
        })
        .unwrap();
        s.execute(&MicroOp::LogicV {
            gate: VGate::Not,
            row_in: 3,
            row_out: 8,
            index: 2,
        })
        .unwrap();
        assert_eq!(s.peek(0, 8, 2), !77);
        assert_eq!(s.peek(9, 8, 2), !0xFF);
    }

    #[test]
    fn batch_matches_serial_execution() {
        let cfg = PimConfig::small().with_crossbars(64);
        let mut batch_ops: Vec<MicroOp> = Vec::new();
        batch_ops.push(MicroOp::XbMask(RangeMask::new(0, 62, 2).unwrap()));
        batch_ops.push(MicroOp::RowMask(RangeMask::new(0, 60, 4).unwrap()));
        batch_ops.extend(ops_write_all(0xF0F0_F0F0, 0));
        batch_ops.push(MicroOp::LogicH(HLogic::init_reg(true, 1, &cfg).unwrap()));
        batch_ops.push(MicroOp::LogicH(
            HLogic::parallel(GateKind::Not, 0, 0, 1, &cfg).unwrap(),
        ));
        batch_ops.push(MicroOp::XbMask(RangeMask::new(1, 33, 4).unwrap()));
        batch_ops.push(MicroOp::Move(MoveOp {
            dist: 2,
            row_src: 0,
            row_dst: 1,
            index_src: 1,
            index_dst: 2,
        }));
        batch_ops.push(MicroOp::LogicH(HLogic::init_reg(false, 3, &cfg).unwrap()));
        // A long logic tail under the post-move masks.
        for _ in 0..600 {
            batch_ops.push(MicroOp::LogicH(HLogic::init_reg(true, 4, &cfg).unwrap()));
            batch_ops.push(MicroOp::LogicH(
                HLogic::parallel(GateKind::Not, 0, 0, 4, &cfg).unwrap(),
            ));
        }

        let mut serial = PimSimulator::new(cfg.clone()).unwrap();
        let mut batch = PimSimulator::new(cfg.clone()).unwrap();
        for op in &batch_ops {
            serial.execute(op).unwrap();
        }
        batch.execute_batch(&batch_ops).unwrap();
        for xb in 0..cfg.crossbars {
            for row in 0..cfg.rows {
                for reg in 0..8 {
                    assert_eq!(
                        serial.peek(xb, row, reg),
                        batch.peek(xb, row, reg),
                        "mismatch at xb {xb} row {row} reg {reg}"
                    );
                }
            }
        }
        assert_eq!(serial.profiler().cycles, batch.profiler().cycles);
        assert_eq!(serial.profiler().ops, batch.profiler().ops);
        assert_eq!(serial.profiler().gates, batch.profiler().gates);
    }

    #[test]
    fn batch_rejects_reads() {
        let mut s = sim();
        let err = s.execute_batch(&[MicroOp::Read { index: 0 }]).unwrap_err();
        assert!(matches!(err, ArchError::Protocol { .. }));
    }

    #[test]
    fn a_run_uploads_and_reads_back_across_plane_words() {
        // 80 rows of one crossbar written and read back (downwards) as two
        // runs, crossing the plane-word boundary at row 64: same words,
        // same counters and same final masks as op by op.
        let cfg = PimConfig::small().with_rows(96);
        let value = |row: u32| 0x9E37_79B9u32.wrapping_mul(row + 1);
        let up: Vec<u32> = (10..90).collect();
        let down: Vec<u32> = up.iter().rev().copied().collect();
        let values: Vec<u32> = up.iter().map(|&row| value(row)).collect();
        let runs = [(&up, Some(&values[..])), (&down, None)];
        let mut block = PimSimulator::new(cfg.clone()).unwrap();
        let mut serial = PimSimulator::new(cfg).unwrap();
        let (mut words, mut serial_words) = (Vec::new(), Vec::new());
        for sim in [&mut block, &mut serial] {
            sim.execute(&MicroOp::XbMask(RangeMask::single(2))).unwrap();
        }
        for (rows, values) in runs {
            let run = CellRun {
                reg: 3,
                rows,
                values,
            };
            for sim in [&mut block, &mut serial] {
                sim.execute(&MicroOp::RowMask(RangeMask::single(rows[0])))
                    .unwrap();
            }
            block.access(&run, &mut words).unwrap();
            run.expand(&mut serial, &mut serial_words).unwrap();
        }
        assert_eq!(
            words,
            down.iter().map(|&row| value(row)).collect::<Vec<_>>()
        );
        assert_eq!(words, serial_words);
        for sim in [&mut block, &mut serial] {
            sim.execute(&MicroOp::Write { index: 4, value: 1 }).unwrap();
        }
        assert_eq!(block.cells, serial.cells);
        assert_eq!(block.profiler(), serial.profiler());
        assert_eq!((block.peek(2, 10, 4), block.peek(2, 11, 4)), (1, 0));
    }

    #[test]
    fn a_run_with_an_unaddressed_read_is_refused_whole() {
        let mut s = sim();
        s.execute_batch(&[
            MicroOp::XbMask(RangeMask::dense(0, 2).unwrap()),
            MicroOp::RowMask(RangeMask::single(0)),
        ])
        .unwrap();
        let before = (s.cells.clone(), s.profiler().clone());
        let mut words = Vec::new();
        let run = CellRun {
            reg: 0,
            rows: &[0, 1],
            values: None,
        };
        let err = s.access(&run, &mut words).unwrap_err();
        assert!(matches!(err, ArchError::Protocol { .. }), "{err}");
        assert!(words.is_empty());
        assert_eq!((&s.cells, s.profiler()), (&before.0, &before.1));
        // The masks still select row 0 of the first two crossbars.
        s.execute(&MicroOp::Write { index: 0, value: 7 }).unwrap();
        assert_eq!(
            (s.peek(1, 0, 0), s.peek(1, 1, 0), s.peek(2, 0, 0)),
            (7, 0, 0)
        );
    }

    #[test]
    fn failed_batch_rolls_back_masks_and_profiler() {
        let mut s = sim();
        let cycles0 = s.profiler().cycles;
        // Valid mask op followed by an invalid write: the batch must fail
        // without leaving the narrowed mask or phantom cycles behind.
        let err = s
            .execute_batch(&[
                MicroOp::XbMask(RangeMask::single(2)),
                MicroOp::Write {
                    index: 99,
                    value: 0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, ArchError::AddressOutOfBounds { .. }));
        assert_eq!(s.profiler().cycles, cycles0);
        // Masks still cover the whole memory.
        s.execute(&MicroOp::Write { index: 0, value: 7 }).unwrap();
        assert_eq!(s.peek(0, 0, 0), 7);
        assert_eq!(s.peek(15, 63, 0), 7);
    }

    #[test]
    fn strict_mode_propagates_from_batches() {
        let mut s = sim();
        let cfg = s.config().clone();
        let not = MicroOp::LogicH(HLogic::parallel(GateKind::Not, 0, 0, 1, &cfg).unwrap());
        assert!(s.execute_batch(std::slice::from_ref(&not)).is_err());
        s.set_strict(false);
        assert!(s.execute_batch(std::slice::from_ref(&not)).is_ok());
    }

    #[test]
    fn strict_failure_mid_batch_keeps_the_failing_op_atomic() {
        // The batch is accepted (valid, charged) and runs until the gate
        // whose outputs were never initialized; that gate changes nothing.
        let mut s = sim();
        let cfg = s.config().clone();
        let ops = [
            MicroOp::Write {
                index: 0,
                value: 0xFFFF_0000,
            },
            MicroOp::RowMask(RangeMask::new(1, 63, 2).unwrap()),
            MicroOp::LogicH(HLogic::parallel(GateKind::Not, 0, 0, 1, &cfg).unwrap()),
            MicroOp::Write { index: 2, value: 9 },
        ];
        let err = s.execute_batch(&ops).unwrap_err();
        assert!(matches!(err, ArchError::Protocol { .. }));
        assert_eq!(s.peek(3, 5, 0), 0xFFFF_0000);
        assert!((0..64).all(|row| s.peek(3, row, 1) == 0 && s.peek(3, row, 2) == 0));
    }

    #[test]
    fn batch_prepared_for_another_geometry_is_never_trusted() {
        let tall = PimConfig::small(); // 64 rows
        let mut s = PimSimulator::new(PimConfig::small().with_rows(8)).unwrap();
        s.poke(0, 3, 1, 0x1111_2222);
        // Valid where it was prepared, out of bounds here: refused whole,
        // like the same `execute_batch` would be.
        let escaping = PreparedBatch::new(
            vec![
                MicroOp::Write { index: 1, value: 7 },
                MicroOp::LogicV {
                    gate: VGate::Init1,
                    row_in: 0,
                    row_out: 40,
                    index: 1,
                },
            ],
            &tall,
        )
        .unwrap();
        let err = s.execute_prepared(&escaping).unwrap_err();
        assert!(matches!(err, ArchError::AddressOutOfBounds { .. }));
        assert_eq!(s.peek(0, 3, 1), 0x1111_2222);
        assert_eq!(s.profiler(), &Profiler::new());
        // Valid in both: validated in full, then executed.
        let portable =
            PreparedBatch::new(vec![MicroOp::Write { index: 1, value: 7 }], &tall).unwrap();
        s.execute_prepared(&portable).unwrap();
        assert_eq!(s.peek(0, 3, 1), 7);
        assert_eq!(s.profiler().ops.write, 1);
    }

    #[test]
    fn rejects_out_of_geometry_ops() {
        let mut s = sim();
        assert!(s
            .execute(&MicroOp::Write {
                index: 32,
                value: 0
            })
            .is_err());
        assert!(s.execute(&MicroOp::XbMask(RangeMask::single(99))).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pim_arch::{ColAddr, GateKind, HLogic, PreparedBatch};
    use proptest::prelude::*;

    fn arbitrary_op(cfg: &PimConfig, seed: (u8, u8, u8, u8, u8, u8, u8)) -> Option<MicroOp> {
        let (kind, a, b, c, d, e, f) = seed;
        let regs = cfg.regs as u8;
        let rows = cfg.rows as u32;
        let xbs = cfg.crossbars as u32;
        Some(match kind % 5 {
            0 => MicroOp::XbMask(
                RangeMask::strided(a as u32 % xbs, 1 + b as u32 % 3, 1 + c as u32 % 2)
                    .ok()
                    .filter(|m| m.stop() < xbs)?,
            ),
            1 => MicroOp::RowMask(
                RangeMask::strided(a as u32 % rows, 1 + b as u32 % 4, 1 + c as u32 % 3)
                    .ok()
                    .filter(|m| m.stop() < rows)?,
            ),
            2 => MicroOp::Write {
                index: a % regs,
                value: u32::from_le_bytes([b, c, d, e]),
            },
            3 => MicroOp::LogicH(
                HLogic::strided(
                    [
                        GateKind::Init0,
                        GateKind::Init1,
                        GateKind::Not,
                        GateKind::Nor,
                    ][f as usize % 4],
                    ColAddr::new(a % 8, b % regs),
                    ColAddr::new(a % 8 + c % 4, d % regs),
                    ColAddr::new(a % 8 + e % 4, f % regs),
                    (a % 8 + e % 4) + (c % 3) * 8,
                    8,
                    cfg,
                )
                .ok()?,
            ),
            _ => MicroOp::LogicV {
                gate: [VGate::Init0, VGate::Init1, pim_arch::VGate::Not][a as usize % 3],
                row_in: b as u32 % rows,
                row_out: c as u32 % rows,
                index: d % regs,
            },
        })
        // A vertical NOT from a row onto itself is not an operation.
        .filter(|op| op.validate(cfg).is_ok())
    }

    use pim_arch::VGate;

    /// One operation of a mask-free batch that leans on the stateful-logic
    /// discipline: horizontal INITs and gates over a handful of output
    /// shapes on registers `0..regs`, so that an `INIT1` often covers the
    /// outputs of a later gate — and the writes, vertical gates and moves
    /// into the same registers that come in between. `row` is a row the
    /// batch's row mask selects (where a vertical gate does damage); a move
    /// must be legal under `xb_mask`, or the whole batch is refused.
    fn discipline_op(
        cfg: &PimConfig,
        regs: u8,
        (xb_mask, row): (&RangeMask, u32),
        (kind, a, b, c, d): (u8, u8, u8, u8, u8),
    ) -> Option<MicroOp> {
        // (first output partition, last, stride): partition-parallel,
        // serial, both halves of a register, every eighth partition.
        const SHAPES: [(u8, u8, u8); 5] =
            [(0, 31, 1), (3, 3, 1), (0, 30, 2), (1, 31, 2), (4, 28, 8)];
        let rows = cfg.rows as u32;
        let gate = match kind % 16 {
            0..=2 => GateKind::Init1,
            3 => GateKind::Init0,
            4..=6 => GateKind::Not,
            7 | 8 => GateKind::Nor,
            9 => {
                let value = [u32::MAX, 0xFFFF_0000, !(1 << (b % 32)), 0x0F0F_F0F0][c as usize % 4];
                return Some(MicroOp::Write {
                    index: d % regs,
                    value,
                });
            }
            10 | 11 => {
                return Some(MicroOp::LogicV {
                    gate: [VGate::Init0, VGate::Init1, VGate::Not][a as usize % 3],
                    row_in: u32::from(b) * 7 % rows,
                    row_out: if c % 4 == 0 { u32::from(c) % rows } else { row },
                    index: d % regs,
                })
                .filter(|op| op.validate(cfg).is_ok());
            }
            _ => {
                let mv = pim_arch::MoveOp {
                    dist: [1, -1, 4][a as usize % 3],
                    row_src: u32::from(b) * 5 % rows,
                    row_dst: row,
                    index_src: c % regs,
                    index_dst: d % regs,
                };
                return pim_arch::htree::plan_move(xb_mask, &mv, cfg)
                    .is_ok()
                    .then_some(MicroOp::Move(mv));
            }
        };
        let (out, p_end, step) = SHAPES[a as usize % SHAPES.len()];
        // Inputs inside the first gate's section, in any of the registers
        // (the output's own included, in another partition).
        let input = |x: u8| ColAddr::new(out + x % step.min(4), x / 4 % regs);
        let (in_a, in_b) = (input(b.min(c)), input(b.max(c)));
        let out = ColAddr::new(out, d % regs);
        HLogic::strided(gate, in_a, in_b, out, p_end, step, cfg)
            .ok()
            .map(MicroOp::LogicH)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random micro-operation programs: batched execution leaves the
        /// memory in exactly the same state as serial execution, with
        /// identical profiling counters.
        #[test]
        fn batch_equals_serial_fuzz(
            seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 1..40),
        ) {
            let cfg = PimConfig::small().with_crossbars(32).with_rows(16);
            let ops: Vec<MicroOp> =
                seeds.iter().filter_map(|&s| arbitrary_op(&cfg, s)).collect();
            prop_assume!(!ops.is_empty());
            let mut serial = PimSimulator::new(cfg.clone()).unwrap();
            let mut batch = PimSimulator::new(cfg.clone()).unwrap();
            serial.set_strict(false); // random gates may hit uninitialized cells
            batch.set_strict(false);
            for op in &ops {
                serial.execute(op).unwrap();
            }
            batch.execute_batch(&ops).unwrap();
            for xb in 0..cfg.crossbars {
                for row in 0..cfg.rows {
                    for reg in 0..cfg.regs {
                        prop_assert_eq!(
                            serial.peek(xb, row, reg),
                            batch.peek(xb, row, reg),
                            "xb {} row {} reg {}", xb, row, reg
                        );
                    }
                }
            }
            prop_assert_eq!(serial.profiler().cycles, batch.profiler().cycles);
            prop_assert_eq!(serial.profiler().ops, batch.profiler().ops);
        }

        /// The three entry points on one mask-free body under the same
        /// masks — `execute_prepared`, `execute_batch`, op-by-op `execute`
        /// — agree on accept/reject, on the image (padding included: 80
        /// rows), on the final masks and on every `Profiler` counter; a
        /// body with an illegal move is refused whole by both batch forms.
        #[test]
        fn prepared_batch_and_serial_agree(
            seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 1..40),
            mv in any::<(u8, u8, u8, u8)>(),
            shape in any::<(u8, u8, u8)>(),
        ) {
            let cfg = PimConfig::small().with_crossbars(32).with_rows(80);
            let mut body: Vec<MicroOp> = seeds
                .iter()
                .filter_map(|&(kind, a, b, c, d, e, f)| arbitrary_op(&cfg, (2 + kind % 3, a, b, c, d, e, f)))
                .collect();
            if mv.0 % 2 == 0 {
                let at = mv.1 as usize % (body.len() + 1);
                body.insert(at, MicroOp::Move(pim_arch::MoveOp {
                    dist: [1, -1, 2, 16][mv.2 as usize % 4],
                    row_src: mv.2 as u32 % 80,
                    row_dst: mv.3 as u32 % 80,
                    index_src: mv.3 % 32,
                    index_dst: mv.1 % 32,
                }));
            }
            // Whole memory, a dense window, strided crossbars and rows, a
            // single row.
            let (a, b) = (shape.1 as u32, shape.2 as u32);
            let (xb_mask, row_mask) = match shape.0 % 4 {
                0 => (RangeMask::dense(0, 32).unwrap(), RangeMask::dense(0, 80).unwrap()),
                1 => (
                    RangeMask::dense(a % 31, a % 31 + 1 + b % (32 - a % 31)).unwrap(),
                    RangeMask::dense(b % 79, b % 79 + 1 + a % (80 - b % 79)).unwrap(),
                ),
                2 => (
                    RangeMask::strided(a % 4, 1 + b % 4, 4).unwrap(),
                    RangeMask::strided(b % 3, 1 + a % 16, 2 + a % 4).unwrap(),
                ),
                _ => (RangeMask::single(a % 32), RangeMask::single(b % 80)),
            };
            // Distinct contents, so a skipped or misplaced store shows.
            let mut setup: Vec<MicroOp> = (0..32)
                .flat_map(|reg| [
                    MicroOp::RowMask(RangeMask::new(reg % 5, 75 + reg % 5, 5).unwrap()),
                    MicroOp::Write { index: reg as u8, value: 0x9E37_79B9u32.wrapping_mul(reg + 1) },
                ])
                .collect();
            setup.extend([MicroOp::XbMask(xb_mask), MicroOp::RowMask(row_mask)]);

            let prepared = PreparedBatch::new(body.clone(), &cfg).unwrap();
            let mut sims = [(); 3].map(|()| PimSimulator::new(cfg.clone()).unwrap());
            for sim in &mut sims {
                sim.set_strict(false); // random gates may hit uninitialized cells
                sim.execute_batch(&setup).unwrap();
            }
            let [replay, batch, serial] = &mut sims;
            let before = (batch.cells.clone(), batch.profiler().clone());
            let expected = batch.execute_batch(&body);
            prop_assert_eq!(replay.execute_prepared(&prepared), expected.clone());
            if expected.is_err() {
                for sim in [&*replay, &*batch] {
                    prop_assert!(sim.cells == before.0 && sim.profiler() == &before.1);
                }
                return Ok(());
            }
            // Twice: the second run starts from the first one's leftovers.
            replay.execute_prepared(&prepared).unwrap();
            batch.execute_batch(&body).unwrap();
            for op in body.iter().chain(&body) {
                serial.execute(op).unwrap();
            }
            for sim in &mut sims {
                // Final masks: a follow-up write lands on the same cells.
                sim.execute(&MicroOp::Write { index: 0, value: 0xA5A5_5A5A }).unwrap();
            }
            for sim in &sims[1..] {
                prop_assert!(sim.cells == sims[0].cells, "images diverge");
                prop_assert_eq!(sim.profiler(), sims[0].profiler());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A strict check a prepared batch proves and skips is a check that
        /// would have passed: on random batches with missing and clobbered
        /// INITs, under every mask shape and over random cells, prepared
        /// replay and op-by-op execution return the same `Result` (the same
        /// gate refused, in the same row, in the same words), leave the same
        /// cells and — where the batch runs through — the same `Profiler`;
        /// with strict off they leave the same cells. (A refused gate parts
        /// the profilers by design: a prepared batch is charged whole.)
        #[test]
        fn proved_checks_are_checks_that_pass(
            seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8)>(), 1..32),
            (geometry, regs, fill) in any::<(u8, u8, u32)>(),
            shape in any::<(u8, u8, u8, u8)>(),
        ) {
            let (xbs, rows) = [(1, 64), (2, 96), (16, 512)][geometry as usize % 3];
            let cfg = PimConfig::small().with_crossbars(xbs as usize).with_rows(rows as usize);
            let regs = 2 + regs % 3;
            let (a, b) = (u32::from(shape.2), u32::from(shape.3));
            // Every crossbar, a dense window, some of every fourth, one (a
            // move is legal only under a mask that stops short of the last
            // crossbars).
            let xb0 = a % xbs;
            let xb_mask = match shape.0 % 4 {
                0 => RangeMask::dense(0, xbs).unwrap(),
                1 => RangeMask::dense(xb0, xb0 + 1 + b % (xbs - xb0)).unwrap(),
                2 => RangeMask::strided(xb0, 1 + b % ((xbs - 1 - xb0) / 4 + 1), 4).unwrap(),
                _ => RangeMask::single(xb0),
            };
            // Whole crossbar, a dense window, strided rows, one row.
            let row0 = b * 3 % rows;
            let row_mask = match shape.1 % 4 {
                0 => RangeMask::dense(0, rows).unwrap(),
                1 => RangeMask::dense(row0, row0 + 1 + a % (rows - row0)).unwrap(),
                2 => RangeMask::strided(row0, 1 + a % ((rows - 1 - row0) / 3 + 1), 3).unwrap(),
                _ => RangeMask::single(row0),
            };
            let selected = row_mask.start() + row_mask.step() * (a % row_mask.len() as u32);
            // Three seeds in sixteen are the hazard itself: an `INIT1`, an
            // operation that writes its planes (`INIT0`, a gate) or into its
            // register (`Write`, vertical gate, `Move`), a gate on its planes.
            let body: Vec<MicroOp> = seeds
                .iter()
                .flat_map(|&(kind, a, b, c, d)| {
                    let hazard = [0, [3, 4, 9, 10, 12, 12][b as usize % 6], 4 + c % 5];
                    let kinds = if kind % 16 < 13 { &[kind][..] } else { &hazard[..] };
                    let ops = kinds.iter().filter_map(|&kind| {
                        discipline_op(&cfg, regs, (&xb_mask, selected), (kind, a, b, c, d))
                    });
                    ops.collect::<Vec<_>>()
                })
                .collect();
            prop_assume!(!body.is_empty());
            let prepared = PreparedBatch::new(body.clone(), &cfg).unwrap();

            // Per register: all ones (twice as often), ones with a hole in
            // one word of 64, noise.
            let mut seeded = PimSimulator::new(cfg.clone()).unwrap();
            let mut noise = fill | 1;
            for reg in 0..regs as usize {
                for (xb, row) in (0..xbs as usize).flat_map(|xb| (0..rows as usize).map(move |row| (xb, row))) {
                    noise ^= noise << 13;
                    noise ^= noise >> 17;
                    noise ^= noise << 5;
                    let word = match (fill >> (2 * reg)) % 4 {
                        0 | 1 => u32::MAX,
                        2 if noise % 64 == 0 => !(1 << ((noise >> 8) % 32)),
                        2 => u32::MAX,
                        _ => noise,
                    };
                    seeded.poke(xb, row, reg, word);
                }
            }
            seeded.execute_batch(&[MicroOp::XbMask(xb_mask), MicroOp::RowMask(row_mask)]).unwrap();

            for strict in [true, false] {
                let mut sims = [(); 2].map(|()| seeded.clone());
                for sim in &mut sims {
                    sim.set_strict(strict);
                }
                let [replay, serial] = &mut sims;
                // Twice: the second pass starts from what the first left.
                for pass in 0..2 {
                    let expected = body.iter().try_for_each(|op| serial.execute(op).map(drop));
                    let got = replay.execute_prepared(&prepared);
                    prop_assert_eq!(&got, &expected, "strict {}, pass {}", strict, pass);
                    prop_assert!(replay.cells == serial.cells, "strict {}, pass {}: cells diverge", strict, pass);
                    if expected.is_err() {
                        prop_assert!(strict, "only a strict check refuses a valid gate");
                        break;
                    }
                    prop_assert_eq!(replay.profiler(), serial.profiler());
                }
            }
        }
    }
}
