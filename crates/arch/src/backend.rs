use crate::{ArchError, MicroOp, PimConfig, PreparedBatch, RangeMask, RegId, RowId};

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

/// The execution side of the micro-operation interface — implemented by the
/// physical chip, by the bit-accurate simulator ([`pim-sim`]), and by the
/// driver-benchmark sink that reroutes operations to a memory buffer
/// (Artifact Appendix E of the paper).
///
/// The host driver interacts with the memory *only* through this trait,
/// which is what lets the simulator act as a drop-in replacement for a
/// digital PIM chip (§VI).
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
