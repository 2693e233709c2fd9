//! Routing and submission: the one way a batch of logical instructions
//! goes through the cluster — validate, split per shard, coalesce crossing
//! moves, barrier, transfer, launch — plus the host-staged transfer itself
//! and the bulk gather/scatter it is built from.

use super::shard::{CellJob, Step};
use super::PimCluster;
use crate::coalesce::{CrossingMove, MoveCoalescer};
use crate::sched::{BatchScheduler, Piece};
use crate::{ClusterError, LinkFaultKind, MoveRoute};
use pim_arch::{ArchError, RangeMask};
use pim_fault::LinkFault;
use pim_isa::{Instruction, ThreadRange};
use pim_telemetry::{RequestId, RequestStats};

/// A global memory location: `(warp, row, register)` in cluster-wide warp
/// numbering. [`GlobalWrite`] is the named, value-carrying counterpart used
/// by [`PimCluster::scatter`].
pub type GlobalLoc = (u32, u32, u8);

/// A global write: the word to deposit at one cluster-wide memory cell.
///
/// Field-for-field parity with [`GlobalLoc`] — `(warp, row, reg)` address a
/// cell exactly as a gather location does — plus the `value` to store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalWrite {
    /// Global warp (cluster-wide numbering).
    pub warp: u32,
    /// Row within the warp.
    pub row: u32,
    /// Register to write.
    pub reg: u8,
    /// Raw word value (for floats, the IEEE-754 bit pattern).
    pub value: u32,
}

impl GlobalWrite {
    /// Builds a write in [`GlobalLoc`] field order plus the value.
    pub fn new(warp: u32, row: u32, reg: u8, value: u32) -> Self {
        GlobalWrite {
            warp,
            row,
            reg,
            value,
        }
    }

    /// The cell this write addresses, as a gather location.
    pub fn loc(&self) -> GlobalLoc {
        (self.warp, self.row, self.reg)
    }
}

/// The outcome of one submission ([`PimCluster::submit_batch`]): every
/// shard job it launched ran before the call returned, and
/// [`wait`](JobSet::wait) reports the first error among them, in launch
/// order.
#[derive(Debug)]
#[must_use = "a submission's shard errors surface only through `wait`"]
pub struct JobSet(pub(crate) Result<(), ClusterError>);

impl JobSet {
    /// The submission's outcome.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(self) -> Result<(), ClusterError> {
        self.0
    }
}

/// One client batch tagged with the request it belongs to — the unit the
/// serving gateway submits through [`PimCluster::submit_batch_tagged`] so
/// shard jobs can attribute their modeled cycles to the request.
#[derive(Debug, Clone)]
pub struct TaggedBatch {
    /// The request this batch executes for ([`RequestId::UNTAGGED`] for
    /// background work).
    pub request: RequestId,
    /// The batch's non-read instructions, in program order.
    pub instrs: Vec<Instruction>,
}

/// `instr` addressed to `warps` (one shard's local warp mask) in place of
/// its own; rows, registers and distances are per-warp and pass through.
fn rebased(instr: &Instruction, warps: RangeMask) -> Instruction {
    let mut local = instr.clone();
    match &mut local {
        Instruction::RType { target, .. } | Instruction::Write { target, .. } => {
            target.warps = warps;
        }
        Instruction::MoveRows { warps: mask, .. } | Instruction::MoveWarps { warps: mask, .. } => {
            *mask = warps;
        }
        Instruction::Read { warp, .. } => *warp = warps.start(),
    }
    local
}

impl PimCluster {
    /// Executes one *logical* macro-instruction addressed in global warp
    /// space, splitting it across the affected shards and blocking until
    /// all of them finish. Returns the value for [`Instruction::Read`].
    ///
    /// # Errors
    ///
    /// Returns validation errors against the aggregate geometry and shard
    /// execution errors.
    pub fn execute(&self, instr: &Instruction) -> Result<Option<u32>, ClusterError> {
        match instr {
            Instruction::Read { reg, warp, row } => {
                instr.validate(&self.logical_cfg)?;
                Ok(self.gather(&[(*warp, *row, *reg)])?.pop())
            }
            // All non-read instructions share the batched routing, so the
            // shard-splitting rules live in exactly one place.
            _ => {
                self.execute_batch(std::slice::from_ref(instr))?;
                Ok(None)
            }
        }
    }

    /// Executes a sequence of non-read logical instructions:
    /// [`submit_batch`](PimCluster::submit_batch)`(instrs)?.wait()`.
    ///
    /// # Errors
    ///
    /// See [`submit_batch`](PimCluster::submit_batch), plus shard
    /// execution errors.
    pub fn execute_batch(&self, instrs: &[Instruction]) -> Result<(), ClusterError> {
        self.submit_batch(instrs)?.wait()
    }

    /// Submits a batch of non-read logical instructions. Consecutive
    /// instructions accumulate into per-shard queues, and one job per
    /// involved shard runs before the call returns; the returned
    /// [`JobSet`] holds the first shard error. An inter-warp move that
    /// crosses a chip boundary is staged through the host: it drains only
    /// the shards it touches (source + destination warp owners), while
    /// every untouched shard's queue is launched as a job of its own just
    /// before the transfer (the drain rule; see the crate-level docs).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Protocol`] for reads (which return data and
    /// must go through [`execute`](PimCluster::execute)), plus validation
    /// errors; nothing runs if validation fails. A shard job's error —
    /// a crash, or a shard down for good — is the [`JobSet`]'s, unless a
    /// chip-crossing transfer touches that shard: then it is returned
    /// here, before the transfer stages.
    pub fn submit_batch(&self, instrs: &[Instruction]) -> Result<JobSet, ClusterError> {
        self.submit_routed(std::iter::once((RequestId::UNTAGGED, instrs)))
    }

    /// [`submit_batch`](PimCluster::submit_batch) over request-tagged
    /// batches — the serving gateway's submission path. Per-shard work
    /// keeps batch order but carries each batch's [`RequestId`] as a
    /// segment of the shard's job, so execution spans and modeled cycles
    /// attribute to the request that caused them (even inside a coalesced
    /// group), and each batch's transfers attribute to its own request. A
    /// batch that staged a transfer completes before the next one is
    /// routed.
    ///
    /// # Errors
    ///
    /// See [`submit_batch`](PimCluster::submit_batch). Nothing runs if any
    /// batch fails validation.
    pub fn submit_batch_tagged(&self, batches: &[TaggedBatch]) -> Result<JobSet, ClusterError> {
        self.submit_routed(batches.iter().map(|b| (b.request, b.instrs.as_slice())))
    }

    /// Validates a whole non-read batch before anything is queued: a
    /// validation or protocol error must mean *nothing* ran (a mid-batch
    /// failure would otherwise leave earlier instructions applied on some
    /// shards and discard ones still queued).
    fn validate_batch(&self, instrs: &[Instruction]) -> Result<(), ClusterError> {
        for instr in instrs {
            instr.validate(&self.logical_cfg)?;
            if matches!(instr, Instruction::Read { .. }) {
                return Err(ClusterError::Protocol {
                    reason: "read instructions cannot be batched (they return data)".into(),
                });
            }
        }
        Ok(())
    }

    /// The one batch path every entry point calls into. Shard-local work
    /// streams through the [`BatchScheduler`] while the [`MoveCoalescer`]
    /// accumulates the current run of compatible crossing moves. Any
    /// instruction that cannot join the run — a different distance, a data
    /// hazard, or simply not a crossing move — flushes the run *before* it
    /// is enqueued, so shard-visible effects keep instruction-stream order.
    /// A run never spans two batches (each transfer attributes to its own
    /// request), and a batch that staged a transfer is drained before the
    /// next is routed. The jobs launched last hold the result.
    fn submit_routed<'a>(
        &self,
        batches: impl Iterator<Item = (RequestId, &'a [Instruction])> + Clone,
    ) -> Result<JobSet, ClusterError> {
        for (_, instrs) in batches.clone() {
            self.validate_batch(instrs)?;
        }
        let mut sched = BatchScheduler::new(self);
        let mut coalescer = MoveCoalescer::new();
        let mut parts: Vec<(usize, Piece)> = Vec::new();
        // What a `MoveWarps` routes its crossing pairs into.
        let mut route = MoveRoute::default();
        for (request, instrs) in batches {
            let mut crossed = false;
            for instr in instrs {
                let mv = self.split_local(instr, &mut parts, &mut route)?;
                crossed |= mv.is_some();
                if !coalescer.is_empty() && !mv.as_ref().is_some_and(|mv| coalescer.accepts(mv)) {
                    self.flush_run(&mut sched, &mut coalescer, request)?;
                }
                for (shard, part) in parts.drain(..) {
                    sched.enqueue(shard, request, part);
                }
                if let Some(mv) = mv {
                    route.cross = coalescer.push(mv);
                }
            }
            if crossed {
                if !coalescer.is_empty() {
                    self.flush_run(&mut sched, &mut coalescer, request)?;
                }
                sched.drain()?;
            }
        }
        Ok(sched.finish())
    }

    /// Splits one validated logical instruction into its shard-local pieces
    /// (appended to `parts` as `(shard, piece)` pairs) and returns the
    /// chip-crossing remainder of a `MoveWarps`, if any, its pairs routed
    /// into the (empty) `route`. A write to one thread spelt
    /// [`ThreadRange::single`] is a cell of its owner's run of cells (any
    /// other spelling keeps its masks, so it stays an instruction). Every
    /// other instruction splits along its warp mask alone: a piece is the
    /// instruction itself, addressed to one shard's local warps
    /// ([`rebased`]). A read has no place in a batch (`validate_batch`
    /// refuses it before anything is routed): [`ClusterError::Protocol`].
    fn split_local(
        &self,
        instr: &Instruction,
        parts: &mut Vec<(usize, Piece)>,
        route: &mut MoveRoute,
    ) -> Result<Option<CrossingMove>, ClusterError> {
        let piece =
            |(shard, warps): (usize, RangeMask)| (shard, Piece::Instr(rebased(instr, warps)));
        Ok(match instr {
            Instruction::Read { .. } => {
                return Err(ClusterError::Protocol {
                    reason: "a read reached batch routing".into(),
                })
            }
            Instruction::Write { reg, value, target }
                if *target == ThreadRange::single(target.warps.start(), target.rows.start()) =>
            {
                let (warp, row) = (target.warps.start(), target.rows.start());
                let cell = Piece::Cell(self.plan.local_warp(warp), *reg, row, *value);
                parts.push((self.plan.shard_of_warp(warp), cell));
                None
            }
            Instruction::RType { target, .. } | Instruction::Write { target, .. } => {
                parts.extend(self.plan.split_warps(&target.warps).map(piece));
                None
            }
            Instruction::MoveRows { warps, .. } => {
                parts.extend(self.plan.split_warps(warps).map(piece));
                None
            }
            Instruction::MoveWarps {
                src,
                dst,
                row_src,
                row_dst,
                warps,
                dist,
            } => {
                self.plan
                    .route_into(warps, *dist, &mut route.cross, |p| parts.push(piece(p)));
                if route.cross.is_empty() {
                    return Ok(None);
                }
                let route = std::mem::take(route);
                CrossingMove::new(route, warps, *dist, *src, *dst, *row_src, *row_dst)?
            }
        })
    }

    /// Flushes the coalescer's current (non-empty) run as one inter-chip
    /// transfer over the modeled interconnect: one barrier over the union
    /// of the shards the run touches, then the crossing pairs of *every*
    /// member grouped into one message per `(source, destination)` shard
    /// pair (one gathered read burst and one scattered write burst each,
    /// their cycles accounted to [`TrafficStats`](crate::TrafficStats)).
    ///
    /// The words are staged warp-major: the gather reads its cells in
    /// source `(warp, register, row)` order and the scatter writes in
    /// destination order, so each chip receives runs of one register of
    /// one warp (one [`CellRun`](pim_arch::CellRun) each, behind one
    /// crossbar mask) rather than the members' row-by-row lone cells. The
    /// reorder, like the gathers all preceding the scatters, is safe
    /// because run members are cell-independent of each other
    /// ([`MoveCoalescer::accepts`]) and each member's own source and
    /// destination warp sets are disjoint (H-tree rule).
    fn flush_run(
        &self,
        sched: &mut BatchScheduler<'_>,
        run: &mut MoveCoalescer,
        request: RequestId,
    ) -> Result<(), ClusterError> {
        let touched = self.plan.touched_shards(run.pairs());
        self.interconnect.record_barrier(sched.busy(&touched));
        sched.barrier(&touched)?;
        let groups = self.interconnect.group(&self.plan, run.pairs());
        if run.len() >= 2 {
            // Messages a per-move staging would have sent (each member's
            // distinct shard pairs), minus the merged transfer's. A scratch
            // set keeps this O(pairs) — no per-member grouping allocations
            // on the hot path.
            let mut distinct: Vec<(usize, usize)> = Vec::new();
            let per_move: usize = run
                .members()
                .map(|(_, pairs)| {
                    distinct.clear();
                    for &(s, d) in pairs {
                        let key = (self.plan.shard_of_warp(s), self.plan.shard_of_warp(d));
                        if !distinct.contains(&key) {
                            distinct.push(key);
                        }
                    }
                    distinct.len()
                })
                .sum();
            self.interconnect
                .record_coalesced(run.len() as u64, (per_move - groups.len()) as u64);
        }
        for g in &groups {
            self.check_link(g.src_shard, g.dst_shard)?;
            let words = g.pairs.len() as u64;
            let cycles = self.interconnect.record_burst(words);
            self.record_burst_span(request, words, cycles);
        }
        let mut cells: Vec<(GlobalLoc, GlobalLoc)> = run
            .members()
            .flat_map(|(mv, pairs)| {
                let (r, w) = (mv.reads, mv.writes);
                pairs
                    .iter()
                    .map(move |&(s, d)| ((s, r.row, r.reg), (d, w.row, w.reg)))
            })
            .collect();
        cells.sort_unstable_by_key(|&((warp, row, reg), _)| (warp, reg, row));
        let locs: Vec<GlobalLoc> = cells.iter().map(|&(src, _)| src).collect();
        let values = self.gather(&locs)?;
        let mut writes: Vec<GlobalWrite> = cells
            .iter()
            .zip(values)
            .map(|(&(_, (d, row, reg)), v)| GlobalWrite::new(d, row, reg, v))
            .collect();
        writes.sort_unstable_by_key(|w| (w.warp, w.reg, w.row));
        run.clear();
        self.scatter(&writes)
    }

    /// Records one accounted burst as a trace span on the interconnect
    /// track and attributes its traffic to `request`. The burst occupies
    /// `[now, now + cycles)` on the global modeled clock and advances it —
    /// host-staged transfers serialize after the drained shards' work,
    /// matching
    /// [`ClusterStats::modeled_latency_cycles`](crate::ClusterStats::modeled_latency_cycles)'s
    /// upper bound.
    fn record_burst_span(&self, request: RequestId, words: u64, cycles: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let start = self.telemetry.now();
        self.telemetry.advance_clock(start + cycles);
        self.ic_track
            .record_complete("burst", start, cycles, request, Some(("words", words)));
        self.telemetry.attribute(
            request,
            RequestStats {
                cross_words: words,
                link_cycles: cycles,
                ..RequestStats::default()
            },
        );
    }

    /// Consults the fault injector for one staged burst; a scheduled drop
    /// or detected corruption aborts the transfer *before* any data moves,
    /// so nothing of a faulted message ever lands (no silent corruption).
    /// Both by-index and cycle-window schedules apply — the burst is
    /// stamped with the modeled clock so window schedules (partitions) see
    /// when it was staged.
    fn check_link(&self, src_shard: usize, dst_shard: usize) -> Result<(), ClusterError> {
        let Some(inj) = &self.fault else {
            return Ok(());
        };
        if let Some(fault) = inj.link_fault_at(self.telemetry.now()) {
            return Err(ClusterError::LinkFault {
                src_shard,
                dst_shard,
                kind: match fault {
                    LinkFault::Drop => LinkFaultKind::Dropped,
                    LinkFault::Corrupt => LinkFaultKind::Corrupted,
                },
            });
        }
        Ok(())
    }

    /// The shard owning the cell `(warp, row, reg)`, checked against the
    /// logical geometry with plain comparisons. [`gather`](Self::gather)
    /// and [`scatter`](Self::scatter) place every cell through it before
    /// any job runs, so a refused cell fails the whole call and nothing
    /// of it reaches a chip.
    fn shard_of_cell(&self, (warp, row, reg): GlobalLoc) -> Result<usize, ClusterError> {
        let shard = self.plan.shard_of_warp(warp);
        if shard >= self.shards() {
            return Err(ClusterError::ShardIndex {
                shard,
                shards: self.shards(),
            });
        }
        let cfg = &self.logical_cfg;
        let out_of_bounds = |what, value: u64, bound: usize| {
            Err(ClusterError::Invalid(ArchError::AddressOutOfBounds {
                what,
                value,
                bound: bound as u64,
            }))
        };
        if row as usize >= cfg.rows {
            return out_of_bounds("row", row.into(), cfg.rows);
        }
        if reg as usize >= cfg.user_regs {
            return out_of_bounds("ISA register", reg.into(), cfg.user_regs);
        }
        Ok(shard)
    }

    /// Reads many global `(warp, row, register)` locations, one shard job
    /// per involved shard, in shard order. Results come back in input
    /// order.
    ///
    /// # Errors
    ///
    /// Returns an addressing error, before any job runs, for a cell
    /// outside the logical geometry; otherwise the first shard job error
    /// (a crash or a shard down for good alike), in shard order, once
    /// every involved shard has run its job.
    pub fn gather(&self, locs: &[GlobalLoc]) -> Result<Vec<u32>, ClusterError> {
        let share = locs.len().div_ceil(self.shards());
        let mut per: Vec<(Vec<usize>, CellJob)> = (0..self.shards())
            .map(|_| {
                (
                    Vec::with_capacity(share),
                    CellJob::with_capacity(share, false),
                )
            })
            .collect();
        for (i, &(warp, row, reg)) in locs.iter().enumerate() {
            let (indices, job) = &mut per[self.shard_of_cell((warp, row, reg))?];
            indices.push(i);
            job.push(self.plan.local_warp(warp), reg, row, None);
        }
        let mut out = vec![0u32; locs.len()];
        let mut outcome = Ok(());
        for (shard, (indices, job)) in per.into_iter().enumerate() {
            if job.cells() > 0 {
                let job = vec![(RequestId::UNTAGGED, vec![Step::Cells(job)])];
                outcome = outcome.and(self.run_job(shard, job).map(|words| {
                    for (i, word) in indices.into_iter().zip(words) {
                        out[i] = word;
                    }
                }));
            }
        }
        outcome.map(|()| out)
    }

    /// Writes many [`GlobalWrite`] cells, one shard job per involved
    /// shard, in shard order.
    ///
    /// # Errors
    ///
    /// Returns an addressing error, before any job runs, for a cell
    /// outside the logical geometry; otherwise the first shard job error
    /// (a crash or a shard down for good alike), in shard order, once
    /// every involved shard has run its job.
    pub fn scatter(&self, writes: &[GlobalWrite]) -> Result<(), ClusterError> {
        // Tensors stripe evenly across chips, so an even share is the
        // likely size of each shard's job (and the exact one on one chip).
        let share = writes.len().div_ceil(self.shards());
        let mut per: Vec<CellJob> = (0..self.shards())
            .map(|_| CellJob::with_capacity(share, true))
            .collect();
        for w in writes {
            let warp = self.plan.local_warp(w.warp);
            per[self.shard_of_cell(w.loc())?].push(warp, w.reg, w.row, Some(w.value));
        }
        let mut outcome = Ok(());
        for (shard, job) in per.into_iter().enumerate() {
            if job.cells() > 0 {
                let job = vec![(RequestId::UNTAGGED, vec![Step::Cells(job)])];
                outcome = outcome.and(self.run_job(shard, job).map(drop));
            }
        }
        outcome
    }
}
