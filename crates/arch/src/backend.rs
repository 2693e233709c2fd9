use crate::{
    ArchError, GateKind, HLogic, MicroOp, PimConfig, PreparedBatch, RangeMask, RegId, RowId, VGate,
};

/// A run of single-cell accesses to register `reg` under the stored
/// crossbar mask: `values[i]` written to row `rows[i]`, or (`None`) each
/// row read in turn. The stored row mask selects `rows[0]`, so the run
/// stands for the access of `rows[0]`, then for every further cell a
/// single-row [`MicroOp::RowMask`] if its row differs from the one before,
/// then its [`MicroOp::Write`] or [`MicroOp::Read`].
#[derive(Debug, Clone, Copy)]
pub struct CellRun<'a> {
    /// Intra-partition (register) index of every cell.
    pub reg: RegId,
    /// The row of each cell, in access order.
    pub rows: &'a [RowId],
    /// One word per row to write; `None` reads.
    pub values: Option<&'a [u32]>,
}

impl CellRun<'_> {
    /// The single-row masks the run stands for.
    pub fn row_changes(&self) -> u64 {
        self.rows
            .windows(2)
            .filter(|pair| pair[0] != pair[1])
            .count() as u64
    }

    /// Executes the micro-operations the run stands for, one by one.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Protocol`] before anything runs unless a write
    /// brings one value per row, else the first failing operation's error.
    pub fn expand<B: Backend + ?Sized>(
        &self,
        backend: &mut B,
        out: &mut Vec<u32>,
    ) -> Result<(), ArchError> {
        let (rows, values) = (self.rows, self.values);
        if let Some(values) = values.filter(|v| v.len() != rows.len()) {
            let reason = format!(
                "a run of {} rows brings {} values",
                rows.len(),
                values.len()
            );
            return Err(ArchError::Protocol { reason });
        }
        for (i, &row) in rows.iter().enumerate() {
            if i > 0 && row != rows[i - 1] {
                backend.execute(&MicroOp::RowMask(RangeMask::single(row)))?;
            }
            let index = self.reg;
            let access = values.map_or(MicroOp::Read { index }, |values| MicroOp::Write {
                index,
                value: values[i],
            });
            out.extend(backend.execute(&access)?);
        }
        Ok(())
    }
}

/// A warp-parallel, thread-serial row move (Figure 11b) under the stored
/// crossbar mask: register `src` of row `src_rows[k]` goes to register
/// `dst` of row `dst_rows[k]` in every selected crossbar, through the first
/// two scratch registers `t1` and `t2` ([`scratch`](Self::scratch)). Its
/// meaning is [`expand`](Self::expand): the source register is
/// complemented once for all source rows into `t1` (row mask + 2
/// horizontal micro-ops), each row pair transfers through one vertical
/// `NOT` inside `t1` (un-complementing in the process), and the value lands
/// in the destination register through two more horizontal `NOT`s under
/// the destination row mask (4 micro-ops). A vertical `NOT` needs its
/// output row initialized, and the two shapes differ in who does that:
///
/// * **disjoint row sets** (no destination row is a source row): one
///   horizontal `INIT` of `t1` under the destination row mask serves every
///   pair, so the transfers are the bare `NOT`s — `pairs + 9`
///   micro-operations;
/// * **overlapping sets** (a uniform shift, equal strides): the
///   destination rows of `t1` hold complements still to be read, so each
///   pair initializes its own output row (`INIT1` + `NOT`), ordered so that
///   every source row is read before a pair overwrites it —
///   `2 * pairs + 8` micro-operations.
///
/// Theory counts one transfer per pair plus the complement chain
/// (`pairs + 4`) for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowMove {
    /// Source register.
    pub src: RegId,
    /// Destination register.
    pub dst: RegId,
    /// Source row of each pair.
    pub src_rows: RangeMask,
    /// Destination row of each pair.
    pub dst_rows: RangeMask,
}

impl RowMove {
    /// The two scratch registers `(t1, t2)` the move passes through: the
    /// first two above the user registers.
    pub fn scratch(cfg: &PimConfig) -> (RegId, RegId) {
        let t1 = cfg.user_regs as RegId;
        (t1, t1 + 1)
    }

    /// Whether the row sets are disjoint (the bare-`NOT` shape).
    pub fn disjoint(&self) -> bool {
        !self.src_rows.intersects(&self.dst_rows)
    }

    /// The micro-operations [`expand`](Self::expand) emits.
    pub fn micro_ops(&self) -> u64 {
        let pairs = self.src_rows.len() as u64;
        match self.disjoint() {
            true => pairs + 9,
            false => 2 * pairs + 8,
        }
    }

    /// Appends the micro-operations the move stands for to `ops`.
    ///
    /// # Errors
    ///
    /// Returns the error of a horizontal operation that does not exist in
    /// `cfg` (a register out of range, or an input that is its own output);
    /// nothing is appended then.
    pub fn expand(&self, cfg: &PimConfig, ops: &mut Vec<MicroOp>) -> Result<(), ArchError> {
        let (src, dst) = (self.src, self.dst);
        let (src_rows, dst_rows) = (&self.src_rows, &self.dst_rows);
        let (t1, t2) = Self::scratch(cfg);
        let init = |reg| HLogic::init_reg(true, reg, cfg).map(MicroOp::LogicH);
        let not =
            |from, to| HLogic::parallel(GateKind::Not, from, from, to, cfg).map(MicroOp::LogicH);
        let (init_t1, complement) = (init(t1)?, not(src, t1)?);
        let tail = [init(t2)?, not(t1, t2)?, init(dst)?, not(t2, dst)?];
        // t1 = !src on all source rows.
        ops.extend([MicroOp::RowMask(*src_rows), init_t1.clone(), complement]);
        // Vertical transfer per pair: t1[dst_row] = !t1[src_row] = value.
        let disjoint = self.disjoint();
        if disjoint {
            ops.extend([MicroOp::RowMask(*dst_rows), init_t1]);
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
        ops.extend(tail);
        Ok(())
    }
}

/// The execution side of the micro-operation interface — implemented by the
/// physical chip, by the bit-accurate simulator ([`pim-sim`]), and by the
/// driver-benchmark sink that reroutes operations to a memory buffer
/// (Artifact Appendix E of the paper).
///
/// The host driver interacts with the memory *only* through this trait,
/// which is what lets the simulator act as a drop-in replacement for a
/// digital PIM chip (§VI).
///
/// Every entry point past [`execute`](Self::execute) means what its
/// default body does with `execute`, and is kept for a reason a production
/// caller has:
///
/// * [`access`](Self::access): a run of cells reaches the chip as one run
///   instead of a mask and an access per word. Its one production caller
///   is `Driver::issue_run`, which a cluster's cell jobs call: a scatter, a
///   gather, and the one-thread writes of a batch (a planned upload);
/// * [`move_rows`](Self::move_rows): the only way a row move skips its
///   per-row lowering and the per-operation checks and charges of a batch;
/// * [`execute_prepared`](Self::execute_prepared): a cached routine replays
///   without being validated again;
/// * [`execute_batch`](Self::execute_batch): refusal of a whole stream.
///   Its production callers are the runs of warp moves
///   `Driver::execute_many` forms and the fallback of a prepared batch
///   whose geometry is not the chip's;
/// * [`stream`](Self::stream): the wire form a production host driver
///   sends; only `Driver::execute_streamed` calls it, for the
///   driver-throughput benchmark.
///
/// [`pim-sim`]: https://docs.rs/pim-sim
pub trait Backend {
    /// The geometry this backend was built for.
    fn config(&self) -> &PimConfig;

    /// Executes one micro-operation, returning the `N`-bit response for
    /// [`MicroOp::Read`] and `None` for every other type.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] when the operation is invalid for the
    /// configured geometry or violates the execution protocol.
    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError>;

    /// Executes a batch of non-read micro-operations. Backends may override
    /// this to parallelize; the default loops over [`execute`](Self::execute).
    ///
    /// The read check runs as a single pre-scan over the batch, so the
    /// execution loop itself is branch-free on the operation type and the
    /// protocol violation is detected before any operation runs (nothing
    /// executes from a read-carrying batch).
    ///
    /// # Errors
    ///
    /// Returns an error on the first failing operation, or
    /// [`ArchError::Protocol`] if the batch contains a read (reads return
    /// data and must go through `execute`).
    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        if ops.iter().any(|op| matches!(op, MicroOp::Read { .. })) {
            return Err(ArchError::Protocol {
                reason: "read operations cannot be batched".into(),
            });
        }
        for op in ops {
            self.execute(op)?;
        }
        Ok(())
    }

    /// Executes a run of single-cell accesses — the bulk form of a host
    /// upload or read-back — appending the word of each read to `out`. The
    /// meaning of a run **is** this default body, [`CellRun::expand`]: one
    /// [`execute`](Self::execute) per micro-operation, stopping at the first
    /// failing one with the earlier ones applied. A backend overrides it
    /// only to reach the same cells, stored masks and counters faster
    /// (`pim-sim` refuses a bad run whole, charges it in closed form and
    /// applies the cells of one plane word as one block).
    ///
    /// # Errors
    ///
    /// Returns the error of the first failing operation.
    fn access(&mut self, run: &CellRun<'_>, out: &mut Vec<u32>) -> Result<(), ArchError> {
        run.expand(self, out)
    }

    /// Executes a row move under the stored crossbar mask. The meaning of
    /// a move **is** this default body: [`RowMove::expand`] handed to
    /// [`execute_batch`](Self::execute_batch). It is the only way a row
    /// move reaches a backend without being lowered to `pairs + 9` or
    /// more micro-operations that are each validated and charged: a
    /// backend overrides it only to reach the same cells, stored masks and
    /// counters faster (`pim-sim` checks the move once, charges it in
    /// closed form and applies it as one pass per register plane).
    ///
    /// # Errors
    ///
    /// See [`RowMove::expand`] and [`execute_batch`](Self::execute_batch).
    fn move_rows(&mut self, mv: &RowMove) -> Result<(), ArchError> {
        let mut ops = Vec::with_capacity(mv.micro_ops() as usize);
        mv.expand(self.config(), &mut ops)?;
        self.execute_batch(&ops)
    }

    /// Replays a batch that was validated once when it was prepared. The
    /// default hands the operations to
    /// [`execute_batch`](Self::execute_batch), which is always correct; a
    /// backend overrides this only to skip work the preparation already
    /// did, and must then check
    /// [`PreparedBatch::prepared_for`] its own geometry.
    ///
    /// # Errors
    ///
    /// See [`execute_batch`](Self::execute_batch).
    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        self.execute_batch(batch.ops())
    }

    /// Consumes a stream of pre-encoded 64-bit operation words — the form a
    /// production host driver DMAs to the on-chip controller. The default
    /// decodes and executes each word; buffer-style backends override this
    /// with a plain copy, which is what the driver-throughput benchmark
    /// measures.
    ///
    /// # Errors
    ///
    /// Returns decode or execution errors.
    fn stream(&mut self, words: &[u64]) -> Result<(), ArchError> {
        for &w in words {
            self.execute(&crate::encode::decode(w)?)?;
        }
        Ok(())
    }
}
