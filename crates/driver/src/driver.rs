use crate::cache::{RoutineCache, RoutineKey};
use crate::{DriverError, RoutineStats};
use pim_arch::{
    encode, htree, Backend, CellRun, MicroOp, MoveOp, PimConfig, RangeMask, RegId, VGate, XbId,
};
use pim_isa::{DType, Instruction, RegOp, ThreadRange};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Which arithmetic implementation the driver compiles where both exist
/// (§II-B): bit-serial element-parallel or bit-parallel element-parallel
/// (partition-exploiting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParallelismMode {
    /// Serial gate sequences (one gate per row per cycle).
    BitSerial,
    /// Partition-parallel algorithms (up to `N` gates per row per cycle) —
    /// the default for the partition-enabled microarchitecture.
    #[default]
    BitParallel,
}

/// Cycles the driver has *issued*, split into the pure-logic component
/// (the theoretical-PIM baseline for whatever program ran) and the total
/// (including stateful-init overhead and mask operations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssuedCycles {
    /// Logic (`NOT`/`NOR`/move/write/read) cycles — the theoretical
    /// lower bound of the issued program.
    pub logic: u64,
    /// All issued micro-operations.
    pub total: u64,
}

impl IssuedCycles {
    /// Measured-over-theoretical ratio (≥ 1).
    pub fn overhead_ratio(&self) -> f64 {
        self.total as f64 / self.logic as f64
    }
}

impl std::ops::Add for IssuedCycles {
    type Output = IssuedCycles;

    fn add(self, rhs: IssuedCycles) -> IssuedCycles {
        IssuedCycles {
            logic: self.logic + rhs.logic,
            total: self.total + rhs.total,
        }
    }
}

impl std::ops::AddAssign for IssuedCycles {
    fn add_assign(&mut self, rhs: IssuedCycles) {
        *self = *self + rhs;
    }
}

/// Aggregation across drivers (e.g. the per-shard drivers of a cluster).
impl std::iter::Sum for IssuedCycles {
    fn sum<I: Iterator<Item = IssuedCycles>>(iter: I) -> IssuedCycles {
        iter.fold(IssuedCycles::default(), |a, b| a + b)
    }
}

/// The host driver (§V-B): translates ISA macro-instructions into
/// micro-operations and feeds them to a [`Backend`] (the simulator, a
/// physical chip, or the measurement sink).
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Driver<B> {
    backend: B,
    cache: RoutineCache,
    mode: ParallelismMode,
    cfg: PimConfig,
    issued: IssuedCycles,
    /// Wire words of routine *bodies* (mask-free, so valid under any
    /// target) for [`execute_streamed`](Self::execute_streamed).
    encoded_cache: HashMap<RoutineKey, (Vec<u64>, RoutineStats)>,
    /// Masks currently stored in the memory (the driver is the sole
    /// micro-operation source, so it can elide redundant mask operations).
    cur_xb: Option<RangeMask>,
    cur_rows: Option<RangeMask>,
    /// The run [`execute_many`](Self::execute_many) is collecting — the row
    /// of each cell and, for an upload, its word — and the words its reads
    /// returned (all reused across calls).
    run_rows: Vec<u32>,
    run_values: Vec<u32>,
    read_words: Vec<u32>,
    /// The micro-operations of the `MoveRows` being executed (reused across
    /// calls; see [`lower_move_rows`](Self::lower_move_rows)).
    move_ops: Vec<MicroOp>,
}

impl<B: Backend> Driver<B> {
    /// Creates a driver over `backend` with the default (partition-enabled)
    /// parallelism mode.
    pub fn new(backend: B) -> Self {
        let cfg = backend.config().clone();
        Driver {
            backend,
            cache: RoutineCache::new(),
            mode: ParallelismMode::default(),
            cfg,
            issued: IssuedCycles::default(),
            encoded_cache: HashMap::new(),
            cur_xb: None,
            cur_rows: None,
            run_rows: Vec::new(),
            run_values: Vec::new(),
            read_words: Vec::new(),
            move_ops: Vec::new(),
        }
    }

    /// Creates a driver with an explicit parallelism mode.
    pub fn with_mode(backend: B, mode: ParallelismMode) -> Self {
        let mut d = Driver::new(backend);
        d.mode = mode;
        d
    }

    /// Creates a driver with an explicit parallelism mode and an injected
    /// routine cache — the seam the cluster uses to hand every shard
    /// driver a [`share`](RoutineCache::share) of one compilation map, so
    /// a routine compiles once per cluster instead of once per shard.
    pub fn with_cache(backend: B, mode: ParallelismMode, cache: RoutineCache) -> Self {
        let mut d = Driver::with_mode(backend, mode);
        d.cache = cache;
        d
    }

    /// The configuration the driver compiles for.
    pub fn config(&self) -> &PimConfig {
        &self.cfg
    }

    /// The active parallelism mode.
    pub fn mode(&self) -> ParallelismMode {
        self.mode
    }

    /// Access to the backend (e.g. the simulator's profiler).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Consumes the driver, returning the backend.
    pub fn into_backend(self) -> B {
        self.backend
    }

    /// Routine-cache statistics `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Forgets the masks the driver believes are stored in the memory.
    ///
    /// The driver elides redundant mask micro-operations because it is
    /// normally the sole micro-operation source. Call this after issuing
    /// micro-operations to the backend directly (e.g. through
    /// [`backend_mut`](Self::backend_mut)), so the next instruction
    /// re-issues its masks instead of trusting a stale cache.
    pub fn invalidate_masks(&mut self) {
        self.cur_xb = None;
        self.cur_rows = None;
    }

    /// Cycles issued so far (logic vs total) — the driver-side counterpart
    /// of the simulator's profiler, used to derive the theoretical-PIM
    /// baseline of arbitrary programs.
    pub fn issued(&self) -> IssuedCycles {
        self.issued
    }

    /// Starts the driver's side of a measurement region: zeroes the
    /// issued-cycle counters and the routine-cache hit/miss telemetry
    /// (compiled routines are kept). The backend's profiler is reset by
    /// its owner.
    pub fn reset_counters(&mut self) {
        self.issued = IssuedCycles::default();
        self.cache.reset_stats();
    }

    /// Overwrites the issued-cycle counters with a previously captured
    /// value. Used by checkpoint/restore recovery (`pim-cluster`): a
    /// respawned shard driver resumes accounting from the checkpointed
    /// counters instead of zero.
    pub fn restore_issued(&mut self, issued: IssuedCycles) {
        self.issued = issued;
    }

    /// Emits crossbar/row mask operations, eliding ones that match the
    /// masks already stored in the memory. Returns the number of
    /// micro-operations issued (0..=2).
    fn set_masks(
        &mut self,
        warps: Option<RangeMask>,
        rows: Option<RangeMask>,
    ) -> Result<u64, DriverError> {
        let warps = warps.filter(|w| self.cur_xb.replace(*w) != Some(*w));
        let rows = rows.filter(|r| self.cur_rows.replace(*r) != Some(*r));
        let stale = [warps.map(MicroOp::XbMask), rows.map(MicroOp::RowMask)];
        for op in stale.iter().flatten() {
            self.backend.execute(op)?;
        }
        Ok(stale.iter().flatten().count() as u64)
    }

    /// Issues one `Write` or `Read` behind the masks of `at`.
    fn access_at(&mut self, at: ThreadRange, op: &MicroOp) -> Result<Option<u32>, DriverError> {
        let masks = self.set_masks(Some(at.warps), Some(at.rows))?;
        let word = self.backend.execute(op)?;
        self.issued.logic += 1;
        self.issued.total += 1 + masks;
        Ok(word)
    }

    fn routine_key(&self, op: RegOp, dtype: DType, dst: RegId, srcs: &[RegId; 3]) -> RoutineKey {
        let mut key_srcs = [0; 3];
        key_srcs[..op.arity()].copy_from_slice(&srcs[..op.arity()]);
        RoutineKey {
            op,
            dtype,
            dst,
            srcs: key_srcs,
            mode: self.mode,
        }
    }

    /// Executes one macro-instruction, returning the value for
    /// [`Instruction::Read`] and `None` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`DriverError`] on invalid instructions, unsupported
    /// operation/datatype combinations, or backend failures.
    pub fn execute(&mut self, instr: &Instruction) -> Result<Option<u32>, DriverError> {
        instr.validate(&self.cfg)?;
        match instr {
            Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                target,
            } => {
                let key = self.routine_key(*op, *dtype, *dst, srcs);
                let routine = self.cache.get_or_compile(&self.cfg, key)?;
                let masks = self.set_masks(Some(target.warps), Some(target.rows))?;
                self.backend.execute_prepared(&routine.batch)?;
                self.issued.logic += routine.stats.logic_cycles;
                self.issued.total += routine.stats.total_cycles() + masks;
                Ok(None)
            }
            Instruction::Write { reg, value, target } => {
                let (index, value) = (*reg, *value);
                self.access_at(*target, &MicroOp::Write { index, value })
            }
            Instruction::Read { reg, warp, row } => {
                let target = ThreadRange::single(*warp, *row);
                self.access_at(target, &MicroOp::Read { index: *reg })
            }
            Instruction::MoveRows {
                src,
                dst,
                src_rows,
                dst_rows,
                warps,
            } => {
                self.lower_move_rows(*src, *dst, src_rows, dst_rows, warps)?;
                // The crossbar mask comes first and goes out only when the
                // memory holds another one.
                let elide = usize::from(self.cur_xb == Some(*warps));
                let ops = &self.move_ops[elide..];
                self.backend.execute_batch(ops)?;
                self.cur_xb = Some(*warps);
                self.cur_rows = Some(*dst_rows);
                // Theoretical: one vertical transfer per pair plus the
                // horizontal complement chain.
                self.issued.logic += src_rows.len() as u64 + 4;
                self.issued.total += ops.len() as u64;
                Ok(None)
            }
            Instruction::MoveWarps {
                src,
                dst,
                row_src,
                row_dst,
                warps,
                dist,
            } => {
                let masks = self.set_masks(Some(*warps), None)?;
                let mv = MoveOp {
                    dist: *dist,
                    row_src: *row_src,
                    row_dst: *row_dst,
                    index_src: *src,
                    index_dst: *dst,
                };
                self.backend.execute(&MicroOp::Move(mv))?;
                let plan = htree::plan_move(warps, &mv, &self.cfg)?;
                // H-tree serialization is intrinsic to the communication
                // pattern, so it belongs to the theoretical baseline too.
                self.issued.logic += plan.cycles;
                self.issued.total += plan.cycles + masks;
                Ok(None)
            }
        }
    }

    /// Executes one R-type macro-instruction by *streaming* its cached
    /// pre-encoded 64-bit words to the backend — the production-driver hot
    /// path whose rate the Figure 13 "Host Driver" series measures. Only
    /// the routine body is cached; the target's masks go out per call
    /// (elided when the memory already holds them), exactly as in
    /// [`execute`](Self::execute).
    ///
    /// # Errors
    ///
    /// See [`execute`](Self::execute).
    pub fn execute_streamed(&mut self, instr: &Instruction) -> Result<(), DriverError> {
        let Instruction::RType {
            op,
            dtype,
            dst,
            srcs,
            target,
        } = instr
        else {
            self.execute(instr)?;
            return Ok(());
        };
        let key = self.routine_key(*op, *dtype, *dst, srcs);
        if !self.encoded_cache.contains_key(&key) {
            let routine = self.cache.get_or_compile(&self.cfg, key)?;
            let words = routine.batch.ops().iter().map(encode::encode).collect();
            self.encoded_cache.insert(key, (words, routine.stats));
        }
        let masks = self.set_masks(Some(target.warps), Some(target.rows))?;
        let (words, stats) = &self.encoded_cache[&key];
        self.backend.stream(words)?;
        self.issued.logic += stats.logic_cycles;
        self.issued.total += stats.total_cycles() + masks;
        Ok(())
    }

    /// Executes a sequence of macro-instructions (non-read).
    ///
    /// # Errors
    ///
    /// Fails on the first erroring instruction.
    pub fn execute_all(&mut self, instrs: &[Instruction]) -> Result<(), DriverError> {
        for i in instrs {
            self.execute(i)?;
        }
        Ok(())
    }

    /// Executes a sequence of macro-instructions, appending one result per
    /// instruction to `out` (the word for an [`Instruction::Read`], `None`
    /// otherwise; a `Vec`, or a sink that keeps only what the caller
    /// wants) — [`execute`](Self::execute) in a loop, except that a run of
    /// single-thread writes, or of reads, of one register of one warp (a
    /// host upload or read-back) reaches the backend as one [`CellRun`]
    /// through [`Backend::access`]. The micro-operations it stands for, the
    /// elided masks and [`issued`](Self::issued) are exactly the loop's.
    ///
    /// # Errors
    ///
    /// Fails on the first erroring instruction, with the instructions
    /// before it executed; see [`execute`](Self::execute). A run the
    /// backend refuses counts nothing towards `issued`.
    pub fn execute_many<I, O>(&mut self, instrs: I, out: &mut O) -> Result<(), DriverError>
    where
        I: IntoIterator,
        I::Item: Borrow<Instruction>,
        O: Extend<Option<u32>>,
    {
        let mut run = None;
        for instr in instrs {
            let instr = instr.borrow();
            let cell = match instr {
                // The masks of a run are `single(..)`: a one-thread range
                // spelt with another step keeps its own spelling.
                Instruction::Write { reg, value, target } => {
                    let (warp, row) = (target.warps.start(), target.rows.start());
                    let cell = Some(((*reg, warp, true), row, *value));
                    cell.filter(|_| *target == ThreadRange::single(warp, row))
                }
                Instruction::Read { reg, warp, row } => Some(((*reg, *warp, false), *row, 0)),
                _ => None,
            };
            // An invalid cell ends the run like any other instruction;
            // `execute` then reports it. Only the row is new in a cell that
            // extends the run (the whole check cost 3.5 ns a cell).
            let cell = cell.filter(|&(key, row, _)| match run == Some(key) {
                true => (row as usize) < self.cfg.rows,
                false => instr.validate(&self.cfg).is_ok(),
            });
            let Some((key, row, value)) = cell else {
                self.issue_run(run.take(), out)?;
                out.extend([self.execute(instr)?]);
                continue;
            };
            if run != Some(key) {
                self.issue_run(run.replace(key), out)?;
                self.run_rows.clear();
                self.run_values.clear();
            }
            self.run_rows.push(row);
            if key.2 {
                self.run_values.push(value);
            }
        }
        self.issue_run(run, out)
    }

    /// Hands the collected run — `(register, warp, is a write)` — to the
    /// backend behind the masks of its first cell, counts it as issued and
    /// appends its results to `out`. If the backend refuses the run, the
    /// masks it holds are no longer known.
    fn issue_run(
        &mut self,
        run: Option<(RegId, XbId, bool)>,
        out: &mut impl Extend<Option<u32>>,
    ) -> Result<(), DriverError> {
        let Some((reg, warp, write)) = run else {
            return Ok(());
        };
        let (lead, cells) = (self.run_rows[0], self.run_rows.len());
        if cells == 1 {
            // A lone cell is the instruction it came from: a run's fixed
            // cost is not worth paying for one cell.
            let (index, value) = (reg, write.then(|| self.run_values[0]));
            let access = value.map_or(MicroOp::Read { index }, |value| MicroOp::Write {
                index,
                value,
            });
            out.extend([self.access_at(ThreadRange::single(warp, lead), &access)?]);
            return Ok(());
        }
        let masks = self.set_masks(Some(RangeMask::single(warp)), Some(RangeMask::single(lead)))?;
        let rows = &self.run_rows;
        let values = write.then_some(&self.run_values[..]);
        let run = CellRun { reg, rows, values };
        self.read_words.clear();
        let mut done = self.backend.access(&run, &mut self.read_words);
        let (reads, answered) = (if write { 0 } else { cells }, self.read_words.len());
        if done.is_ok() && answered != reads {
            let reason = format!("backend answered {reads} reads with {answered} words");
            done = Err(pim_arch::ArchError::Protocol { reason });
        }
        if let Err(e) = done {
            self.invalidate_masks();
            return Err(e.into());
        }
        self.cur_rows = Some(RangeMask::single(rows[cells - 1]));
        self.issued.logic += cells as u64;
        self.issued.total += cells as u64 + run.row_changes() + masks;
        match write {
            true => out.extend(std::iter::repeat_n(None, cells)),
            false => out.extend(self.read_words.iter().copied().map(Some)),
        }
        Ok(())
    }

    /// Lowers a warp-parallel thread-serial move (Figure 11b) into
    /// `self.move_ops`, crossbar mask first: the source register is
    /// complemented once for all source rows into scratch register `t1`
    /// (row mask + 2 horizontal micro-ops), each row pair transfers through
    /// one vertical `NOT` inside `t1` (un-complementing in the process), and
    /// the value lands in the destination register through two more
    /// horizontal `NOT`s under the destination row mask (4 micro-ops). A
    /// vertical `NOT` needs its output row initialized, and the two shapes
    /// differ in who does that:
    ///
    /// * **disjoint row sets** (no destination row is a source row): one
    ///   horizontal `INIT` of `t1` under the destination row mask serves
    ///   every pair, so the transfers are the bare `NOT`s —
    ///   `pairs + 10` micro-operations;
    /// * **overlapping sets** (a uniform shift, equal strides): the
    ///   destination rows of `t1` hold complements still to be read, so each
    ///   pair initializes its own output row (`INIT1` + `NOT`), ordered so
    ///   that every source row is read before a pair overwrites it —
    ///   `2 * pairs + 9` micro-operations.
    ///
    /// Theory counts one transfer per pair plus the complement chain
    /// (`pairs + 4`) for both.
    fn lower_move_rows(
        &mut self,
        src: u8,
        dst: u8,
        src_rows: &RangeMask,
        dst_rows: &RangeMask,
        warps: &RangeMask,
    ) -> Result<(), DriverError> {
        if self.cfg.scratch_regs() < 2 {
            return Err(DriverError::Unsupported {
                what: "row moves require at least 2 scratch registers".into(),
            });
        }
        let cfg = &self.cfg;
        let t1 = cfg.user_regs as u8;
        let t2 = t1 + 1;
        let init = |reg| pim_arch::HLogic::init_reg(true, reg, cfg).map(MicroOp::LogicH);
        let not = |from, to| {
            pim_arch::HLogic::parallel(pim_arch::GateKind::Not, from, from, to, cfg)
                .map(MicroOp::LogicH)
        };
        let ops = &mut self.move_ops;
        ops.clear();
        ops.push(MicroOp::XbMask(*warps));
        // t1 = !src on all source rows.
        ops.push(MicroOp::RowMask(*src_rows));
        ops.push(init(t1)?);
        ops.push(not(src, t1)?);
        // Vertical transfer per pair: t1[dst_row] = !t1[src_row] = value.
        let disjoint = !src_rows.intersects(dst_rows);
        if disjoint {
            ops.push(MicroOp::RowMask(*dst_rows));
            ops.push(init(t1)?);
        }
        // When the row sets overlap, order the thread-serial transfers so
        // each source row is read before any pair overwrites it: descending
        // for an upward shift, ascending for a downward one.
        let pairs = src_rows.len() as u32;
        let upward = !disjoint && dst_rows.start() > src_rows.start();
        for k in 0..pairs {
            let k = if upward { pairs - 1 - k } else { k };
            let row_in = src_rows.start() + k * src_rows.step();
            let row_out = dst_rows.start() + k * dst_rows.step();
            let gate = |gate| MicroOp::LogicV {
                gate,
                row_in,
                row_out,
                index: t1,
            };
            if !disjoint {
                ops.push(gate(VGate::Init1));
            }
            ops.push(gate(VGate::Not));
        }
        // dst = !!t1 on all destination rows.
        if !disjoint {
            ops.push(MicroOp::RowMask(*dst_rows));
        }
        ops.push(init(t2)?);
        ops.push(not(t1, t2)?);
        ops.push(init(dst)?);
        ops.push(not(t2, dst)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::{DType, RegOp};
    use pim_sim::PimSimulator;

    fn driver() -> Driver<PimSimulator> {
        let cfg = PimConfig::small();
        Driver::new(PimSimulator::new(cfg).unwrap())
    }

    fn all(cfg: &PimConfig) -> ThreadRange {
        ThreadRange::all(cfg)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = driver();
        let cfg = d.config().clone();
        d.execute(&Instruction::Write {
            reg: 3,
            value: 0x42,
            target: all(&cfg),
        })
        .unwrap();
        let got = d
            .execute(&Instruction::Read {
                reg: 3,
                warp: 7,
                row: 13,
            })
            .unwrap();
        assert_eq!(got, Some(0x42));
    }

    #[test]
    fn rtype_add_across_all_threads() {
        let mut d = driver();
        let cfg = d.config().clone();
        d.execute(&Instruction::Write {
            reg: 0,
            value: 30,
            target: all(&cfg),
        })
        .unwrap();
        d.execute(&Instruction::Write {
            reg: 1,
            value: 12,
            target: all(&cfg),
        })
        .unwrap();
        d.execute(&Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all(&cfg),
        })
        .unwrap();
        for (w, r) in [(0u32, 0u32), (15, 63), (8, 31)] {
            let got = d
                .execute(&Instruction::Read {
                    reg: 2,
                    warp: w,
                    row: r,
                })
                .unwrap();
            assert_eq!(got, Some(42), "warp {w} row {r}");
        }
    }

    #[test]
    fn rtype_respects_thread_ranges() {
        let mut d = driver();
        let cfg = d.config().clone();
        d.execute(&Instruction::Write {
            reg: 0,
            value: 5,
            target: all(&cfg),
        })
        .unwrap();
        d.execute(&Instruction::Write {
            reg: 1,
            value: 6,
            target: all(&cfg),
        })
        .unwrap();
        d.execute(&Instruction::Write {
            reg: 2,
            value: 999,
            target: all(&cfg),
        })
        .unwrap();
        // Multiply only even rows of warp 2.
        let target = ThreadRange::new(RangeMask::single(2), RangeMask::new(0, 62, 2).unwrap());
        d.execute(&Instruction::RType {
            op: RegOp::Mul,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target,
        })
        .unwrap();
        assert_eq!(
            d.execute(&Instruction::Read {
                reg: 2,
                warp: 2,
                row: 4
            })
            .unwrap(),
            Some(30)
        );
        assert_eq!(
            d.execute(&Instruction::Read {
                reg: 2,
                warp: 2,
                row: 5
            })
            .unwrap(),
            Some(999)
        );
        assert_eq!(
            d.execute(&Instruction::Read {
                reg: 2,
                warp: 3,
                row: 4
            })
            .unwrap(),
            Some(999)
        );
    }

    #[test]
    fn cache_hits_on_repeat() {
        let mut d = driver();
        let cfg = d.config().clone();
        let add = Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all(&cfg),
        };
        d.execute(&add).unwrap();
        d.execute(&add).unwrap();
        d.execute(&add).unwrap();
        assert_eq!(d.cache_stats(), (2, 1));
    }

    #[test]
    fn move_rows_transfers_registers() {
        let mut d = driver();
        let cfg = d.config().clone();
        // Value v = 100 + row in register 0 of every row.
        for row in 0..cfg.rows as u32 {
            d.execute(&Instruction::Write {
                reg: 0,
                value: 100 + row,
                target: ThreadRange::new(
                    RangeMask::dense(0, cfg.crossbars as u32).unwrap(),
                    RangeMask::single(row),
                ),
            })
            .unwrap();
        }
        // Move register 0 of odd rows into register 1 of even rows.
        d.execute(&Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::new(1, 63, 2).unwrap(),
            dst_rows: RangeMask::new(0, 62, 2).unwrap(),
            warps: RangeMask::dense(0, cfg.crossbars as u32).unwrap(),
        })
        .unwrap();
        for (warp, row) in [(0u32, 0u32), (5, 10), (15, 62)] {
            let got = d.execute(&Instruction::Read { reg: 1, warp, row }).unwrap();
            assert_eq!(got, Some(100 + row + 1), "warp {warp} row {row}");
            // Source register unchanged.
            let src = d.execute(&Instruction::Read { reg: 0, warp, row }).unwrap();
            assert_eq!(src, Some(100 + row));
        }
    }

    /// The two lowerings row movement rests on. A `MoveRows` whose source
    /// and destination rows overlap is a uniform shift (`shifted()`): the
    /// thread-serial vertical transfers must run in the order that reads
    /// every source row before a pair overwrites its scratch copy, each
    /// behind its own `INIT1`. One between disjoint row sets (`exchange()`,
    /// the reduction halves) initializes all its outputs with one horizontal
    /// `INIT`. Checked on the strict simulator (every gate output
    /// initialized first) against a host reference, together with the
    /// micro-op count the cost model assumes.
    #[test]
    fn move_rows_lowers_overlapping_uniform_shifts() {
        let cfg = PimConfig::small();
        let rows = cfg.rows as u32;
        let everywhere = RangeMask::dense(0, cfg.crossbars as u32).unwrap();
        let warps = RangeMask::dense(2, 11).unwrap();
        let span = |start, count, step| RangeMask::strided(start, count, step).unwrap();
        // (source rows, destination rows, sets overlap)
        let mut cases = Vec::new();
        for shift in [1, rows / 2 - 3, rows - 1] {
            let (low, high) = (span(0, rows - shift, 1), span(shift, rows - shift, 1));
            // The `rows - 1` shift is a single pair: disjoint.
            let overlap = shift != rows - 1;
            cases.push((low, high, overlap)); // upward
            cases.push((high, low, overlap)); // downward
        }
        // Equal strides, overlapping sets: rows 0,3,..,57 <-> 6,9,..,63.
        cases.push((span(0, 20, 3), span(6, 20, 3), true));
        cases.push((span(6, 20, 3), span(0, 20, 3), true));
        // Disjoint sets: dense blocks, the two halves of strided pairs (an
        // exchange at distance 4), and differing strides.
        cases.push((span(8, 8, 1), span(0, 8, 1), false));
        cases.push((span(16, 16, 1), span(32, 16, 1), false));
        cases.push((span(1, 8, 8), span(5, 8, 8), false));
        cases.push((span(5, 8, 8), span(1, 8, 8), false));
        cases.push((span(0, 6, 1), span(10, 6, 9), false));
        for (src_rows, dst_rows, overlap) in cases {
            let mut d = driver();
            assert!(d.backend().strict());
            for row in 0..rows {
                for (reg, value) in [(0, 100 + row), (1, 7)] {
                    d.execute(&Instruction::Write {
                        reg,
                        value,
                        target: ThreadRange::new(everywhere, RangeMask::single(row)),
                    })
                    .unwrap();
                }
            }
            let mv = Instruction::MoveRows {
                src: 0,
                dst: 1,
                src_rows,
                dst_rows,
                warps,
            };
            let pairs = src_rows.len() as u64;
            let total = if overlap { 2 * pairs + 9 } else { pairs + 10 };
            // The second issue finds the crossbar mask already stored.
            for elided in [0, 1] {
                d.reset_counters();
                d.execute(&mv).unwrap();
                assert_eq!(d.issued().total, total - elided, "{mv:?}");
                assert_eq!(d.issued().logic, pairs + 4);
            }
            let mut want = vec![7; rows as usize];
            for (s, t) in src_rows.iter().zip(dst_rows.iter()) {
                want[t as usize] = 100 + s;
            }
            for warp in everywhere.iter() {
                for row in 0..rows {
                    let moved = if warps.contains(warp) {
                        want[row as usize]
                    } else {
                        7
                    };
                    let got = d.execute(&Instruction::Read { reg: 1, warp, row }).unwrap();
                    assert_eq!(got, Some(moved), "{mv:?} warp {warp} row {row}");
                    let src = d.execute(&Instruction::Read { reg: 0, warp, row }).unwrap();
                    assert_eq!(src, Some(100 + row), "{mv:?} source warp {warp} row {row}");
                }
            }
        }
    }

    /// The horizontal `INIT` of the disjoint shape is what initializes the
    /// outputs of its vertical `NOT`s. Run once in full, the move leaves the
    /// moved words (zeros) in the destination rows of the scratch register;
    /// the same stream without that `INIT` then fails the strict check.
    #[test]
    fn disjoint_move_rows_needs_its_horizontal_init() {
        let mut d = driver();
        let (low, high) = (
            RangeMask::dense(0, 8).unwrap(),
            RangeMask::dense(8, 16).unwrap(),
        );
        d.lower_move_rows(0, 1, &low, &high, &RangeMask::single(0))
            .unwrap();
        let mut ops = d.move_ops.clone();
        let init = 1 + ops
            .iter()
            .rposition(|op| matches!(op, MicroOp::RowMask(_)))
            .unwrap();
        assert!(matches!(&ops[init], MicroOp::LogicH(l) if l.gate == pim_arch::GateKind::Init1));
        d.backend_mut().execute_batch(&ops).unwrap();
        ops.remove(init);
        let err = d.backend_mut().execute_batch(&ops).unwrap_err();
        assert!(matches!(err, pim_arch::ArchError::Protocol { .. }), "{err}");
    }

    #[test]
    fn execute_many_chunks_long_runs_and_stops_at_a_bad_instruction() {
        let cell = |i: u32| (i * 7 / 64 % 16, i * 7 % 64);
        let mut instrs: Vec<Instruction> = (0..812)
            .map(|i| {
                let (warp, row) = cell(i);
                Instruction::Write {
                    reg: 1,
                    value: 1000 + i,
                    target: ThreadRange::single(warp, row),
                }
            })
            .collect();
        instrs.extend((0..265).map(|i| {
            let (warp, row) = cell(i);
            Instruction::Read { reg: 1, warp, row }
        }));
        let (mut bulk, mut looped) = (driver(), driver());
        let mut got = Vec::new();
        bulk.execute_many(&instrs, &mut got).unwrap();
        let want: Vec<_> = instrs.iter().map(|i| looped.execute(i).unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(bulk.issued(), looped.issued());
        assert_eq!(bulk.backend().profiler(), looped.backend().profiler());

        // A cell the ISA refuses ends the call there: the cells before it
        // are in memory and in `out`, and the masks the driver believes in
        // are the ones stored.
        let bad = [
            instrs[0].clone(),
            Instruction::Read {
                reg: 1,
                warp: 0,
                row: 0,
            },
            Instruction::Read {
                reg: 1,
                warp: 99,
                row: 0,
            },
            instrs[1].clone(),
        ];
        got.clear();
        let err = bulk.execute_many(&bad, &mut got).unwrap_err();
        assert!(matches!(
            err,
            DriverError::Arch(pim_arch::ArchError::AddressOutOfBounds { .. })
        ));
        assert_eq!(got, [None, Some(1000)]);
        bulk.execute_many(&instrs[5..6], &mut got).unwrap();
        let (warp, row) = cell(5);
        assert_eq!(bulk.backend().peek(warp as usize, row as usize, 1), 1005);
    }

    #[test]
    fn move_rows_onto_the_same_rows_is_refused() {
        // A zero shift would lower to vertical NOTs that read the row they
        // have just initialized and silently zero the destination.
        let mut d = driver();
        let cfg = d.config().clone();
        let everywhere = RangeMask::dense(0, cfg.crossbars as u32).unwrap();
        for row in 0..8 {
            for (reg, value) in [(0, 100 + row), (1, 7)] {
                d.execute(&Instruction::Write {
                    reg,
                    value,
                    target: ThreadRange::new(everywhere, RangeMask::single(row)),
                })
                .unwrap();
            }
        }
        let cycles = d.backend().profiler().cycles;
        let err = d
            .execute(&Instruction::MoveRows {
                src: 0,
                dst: 1,
                src_rows: RangeMask::dense(0, 8).unwrap(),
                dst_rows: RangeMask::dense(0, 8).unwrap(),
                warps: everywhere,
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                DriverError::Arch(pim_arch::ArchError::InvalidRange { .. })
            ),
            "{err}"
        );
        assert_eq!(d.backend().profiler().cycles, cycles);
        assert_eq!(d.backend().peek(3, 5, 1), 7);
    }

    #[test]
    fn move_warps_transfers_between_crossbars() {
        let mut d = driver();
        let cfg = d.config().clone();
        for warp in 0..cfg.crossbars as u32 {
            d.execute(&Instruction::Write {
                reg: 0,
                value: 1000 + warp,
                target: ThreadRange::new(
                    RangeMask::single(warp),
                    RangeMask::dense(0, cfg.rows as u32).unwrap(),
                ),
            })
            .unwrap();
        }
        // Upper half -> lower half (the reduction pattern).
        d.execute(&Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 3,
            row_dst: 3,
            warps: RangeMask::new(8, 15, 1).unwrap(),
            dist: -8,
        })
        .unwrap();
        for w in 0..8u32 {
            let got = d
                .execute(&Instruction::Read {
                    reg: 1,
                    warp: w,
                    row: 3,
                })
                .unwrap();
            assert_eq!(got, Some(1000 + w + 8), "warp {w}");
        }
    }

    #[test]
    fn driver_is_send() {
        // The cluster moves whole driver+simulator pairs onto shard worker
        // threads; this locks in that capability at compile time.
        fn assert_send<T: Send>() {}
        assert_send::<Driver<PimSimulator>>();
        assert_send::<Driver<crate::SinkBackend>>();
    }

    #[test]
    fn issued_cycles_aggregate() {
        let a = IssuedCycles {
            logic: 10,
            total: 15,
        };
        let b = IssuedCycles { logic: 1, total: 2 };
        assert_eq!(
            a + b,
            IssuedCycles {
                logic: 11,
                total: 17
            }
        );
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        let s: IssuedCycles = [a, b, b].into_iter().sum();
        assert_eq!(
            s,
            IssuedCycles {
                logic: 12,
                total: 19
            }
        );
    }

    #[test]
    fn rejects_invalid_instructions() {
        let mut d = driver();
        let cfg = d.config().clone();
        let bad = Instruction::RType {
            op: RegOp::Mod,
            dtype: DType::Float32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all(&cfg),
        };
        assert!(d.execute(&bad).is_err());
    }
}
