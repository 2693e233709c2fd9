use super::PimSimulator;
use crate::charge_row_move;
use pim_arch::{ArchError, Backend, MicroOp, MoveOp, RowMove};

impl PimSimulator {
    /// The block form of [`Backend::move_rows`]: a move whose registers
    /// and rows lie in the geometry, whose row sets are equally long, share
    /// their step (or hold one row each) and differ, is checked once,
    /// charged in closed form ([`charge_row_move`]) and applied as one
    /// pass per register plane over the words of `t1`, `t2` and the
    /// destination ([`Crossbars::move_rows`](crate::Crossbars)), leaving
    /// the row mask on the destination rows as its expansion does. Such a
    /// move cannot fail: every gate of its expansion fires on cells the
    /// expansion has just initialized. Any other move is its expansion,
    /// through [`execute_batch`](Backend::execute_batch).
    ///
    /// Out of line, next to the other block forms, for the reason
    /// `access.rs` gives.
    #[inline(never)]
    pub(super) fn move_rows_block(&mut self, mv: &RowMove) -> Result<(), ArchError> {
        let (t1, t2) = RowMove::scratch(&self.cfg);
        let (src_rows, dst_rows) = (&mv.src_rows, &mv.dst_rows);
        let rows = self.cfg.rows as u32;
        let shaped = (t2 as usize) < self.cfg.regs
            && mv.src.max(mv.dst) < t1
            && src_rows.stop().max(dst_rows.stop()) < rows
            && src_rows.len() == dst_rows.len()
            && (src_rows.len() == 1 || src_rows.step() == dst_rows.step())
            && src_rows != dst_rows;
        if !shaped {
            let mut ops = Vec::with_capacity(mv.micro_ops() as usize);
            mv.expand(&self.cfg, &mut ops)?;
            return self.execute_batch(&ops);
        }
        charge_row_move(&mut self.profiler, mv, &self.xb_mask, &self.cfg);
        let regs = [mv.src, t1, t2, mv.dst].map(usize::from);
        self.cells.move_rows(
            regs,
            (src_rows, dst_rows),
            &self.xb_mask,
            &mut self.row_scratch,
        );
        (self.row_mask, self.sel_stale) = (*dst_rows, true);
        Ok(())
    }

    /// Applies the run of moves at the head of an accepted stream in its
    /// block form and returns the operations it covered: two or more
    /// moves that differ only in their rows, each advancing both rows of
    /// the one before by one — what `Driver::execute_many` hands over for
    /// consecutive `MoveWarps` ([`Crossbars::move_run`](crate::Crossbars)).
    /// Returns 0, applying nothing, for anything shorter.
    #[inline(never)]
    pub(super) fn move_run(&mut self, ops: &[MicroOp]) -> usize {
        let [MicroOp::Move(first), ..] = ops else {
            return 0;
        };
        let next = |k: u32| MoveOp {
            row_src: first.row_src + k,
            row_dst: first.row_dst + k,
            ..*first
        };
        let n = ops
            .iter()
            .zip(0..)
            .take_while(|&(op, k)| matches!(op, MicroOp::Move(mv) if *mv == next(k)))
            .count();
        if n < 2 {
            return 0;
        }
        self.cells.move_run(first, n, &self.xb_mask);
        n
    }
}
