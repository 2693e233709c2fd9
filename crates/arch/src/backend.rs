use crate::{ArchError, MicroOp, PimConfig, PreparedBatch};

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

    /// Executes a batch that may contain reads, appending the word each
    /// [`MicroOp::Read`] returns to `out` in stream order — the bulk form
    /// of a host upload or read-back, where every word is a mask operation
    /// plus one access. The default loops over [`execute`](Self::execute),
    /// which is always correct but stops at the first failing operation
    /// with the earlier ones applied. A backend overrides it to treat the
    /// stream as a whole, as [`execute_batch`](Self::execute_batch) does
    /// (`pim-sim` accepts or refuses it atomically and applies runs of
    /// single-row accesses as block operations); each read must still find
    /// masks that select a single row of a single crossbar at its point of
    /// the stream.
    ///
    /// # Errors
    ///
    /// Returns an error on the first failing operation; `out` then holds
    /// the reads that completed before it.
    fn execute_reading(&mut self, ops: &[MicroOp], out: &mut Vec<u32>) -> Result<(), ArchError> {
        for op in ops {
            out.extend(self.execute(op)?);
        }
        Ok(())
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

impl<B: Backend + ?Sized> Backend for &mut B {
    fn config(&self) -> &PimConfig {
        (**self).config()
    }

    fn execute(&mut self, op: &MicroOp) -> Result<Option<u32>, ArchError> {
        (**self).execute(op)
    }

    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        (**self).execute_batch(ops)
    }

    fn execute_reading(&mut self, ops: &[MicroOp], out: &mut Vec<u32>) -> Result<(), ArchError> {
        (**self).execute_reading(ops, out)
    }

    fn execute_prepared(&mut self, batch: &PreparedBatch) -> Result<(), ArchError> {
        (**self).execute_prepared(batch)
    }

    fn stream(&mut self, words: &[u64]) -> Result<(), ArchError> {
        (**self).stream(words)
    }
}
