use super::{check_read_masks, PimSimulator};
use crate::crossbar::LANE;
use pim_arch::{ArchError, CellRun, MicroOp, RangeMask};

impl PimSimulator {
    /// The block form of [`Backend::access`](pim_arch::Backend::access):
    /// `run` whole or not at all. The caller has found the stored row mask
    /// at `single(run.rows[0])` and one value to a row. Checked in the order
    /// the run's micro-operations would fail and charged as they would be;
    /// then consecutive cells whose rows share a plane word are one
    /// transposed store into every crossbar of the stored crossbar mask (a
    /// later write to a row wins, as it would cell by cell) or one
    /// transposed gather from the one crossbar a read may select.
    ///
    /// Out of line, in a module of its own: inside `simulator.rs` this body
    /// cost small-geometry prepared replay a tenth through layout alone.
    #[inline(never)]
    pub(super) fn access_block(
        &mut self,
        run: &CellRun<'_>,
        out: &mut Vec<u32>,
    ) -> Result<(), ArchError> {
        let (reg, rows) = (run.reg as usize, run.rows);
        MicroOp::Read { index: run.reg }.validate(&self.cfg)?;
        if run.values.is_none() {
            check_read_masks(&self.xb_mask, &self.row_mask)?;
        }
        if let Some(&row) = rows.iter().find(|&&row| row as usize >= self.cfg.rows) {
            RangeMask::single(row).check_bound("row", self.cfg.rows as u64)?;
        }

        let (cells, moves) = (rows.len() as u64, run.row_changes());
        self.profiler.ops.row_mask += moves;
        match run.values {
            Some(_) => self.profiler.ops.write += cells,
            None => self.profiler.ops.read += cells,
        }
        self.profiler.cycles += cells + moves;

        let xb = self.xb_mask.start() as usize;
        let mut at = 0;
        for group in rows.chunk_by(|a, b| a / LANE as u32 == b / LANE as u32) {
            let (row0, word) = (group[0] as usize, group[0] as usize / LANE);
            match (run.values.map(|v| &v[at..at + group.len()]), group.len()) {
                (Some(values), 1) => {
                    for xb in self.xb_mask.iter() {
                        self.cells.set_word(xb as usize, row0, reg, values[0]);
                    }
                }
                (Some(values), _) => {
                    let (mut lanes, mut written) = ([0; LANE], 0);
                    for (&row, &value) in group.iter().zip(values) {
                        lanes[row as usize % LANE] = u64::from(value);
                        written |= 1 << (row as usize % LANE);
                    }
                    self.cells
                        .write_rows(reg, word, lanes, written, &self.xb_mask);
                }
                (None, 1) => out.push(self.cells.word(xb, row0, reg)),
                (None, _) => {
                    let lanes = self.cells.read_rows(xb, word, reg);
                    out.extend(group.iter().map(|&row| lanes[row as usize % LANE] as u32));
                }
            }
            at += group.len();
        }
        (self.row_mask, self.sel_stale) = (RangeMask::single(rows[rows.len() - 1]), true);
        Ok(())
    }
}
