use pim_arch::{
    ArchError, Backend, ColAddr, GateInstance, GateKind, MicroOp, MoveOp, PimConfig, RangeMask,
    VGate,
};
use pim_sim::{charge_op, Profiler};

/// The reference implementation of the micro-operation contract: one
/// `u32` per cell, every operation applied to every cell it selects, a
/// horizontal operation gate by gate ([`HLogic::expand_gates`]). Modeled
/// cycles come from the shared cost model ([`charge_op`]), so its
/// `Profiler` equals [`pim_sim::PimSimulator`]'s by construction; the cells
/// are computed here, independently of the engine. See the crate docs for
/// what it does and does not guarantee.
///
/// [`HLogic::expand_gates`]: pim_arch::HLogic::expand_gates
#[derive(Debug)]
pub struct FuncBackend {
    cfg: PimConfig,
    /// `cells[(reg * crossbars + xb) * rows + row]`: the word register
    /// `reg` holds in row `row` of crossbar `xb`.
    cells: Vec<u32>,
    xb_mask: RangeMask,
    row_mask: RangeMask,
    profiler: Profiler,
}

/// The indices `mask` selects, in ascending order.
fn selected(mask: &RangeMask) -> impl Iterator<Item = usize> {
    (mask.start() as usize..=mask.stop() as usize).step_by(mask.step() as usize)
}

impl FuncBackend {
    /// Creates a reference backend with all cells at logical 0 and both
    /// masks covering the whole memory, as [`pim_sim::PimSimulator::new`]
    /// does.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] if `cfg` fails validation.
    pub fn new(cfg: PimConfig) -> Result<Self, ArchError> {
        cfg.validate()?;
        Ok(FuncBackend {
            cells: vec![0; cfg.regs * cfg.crossbars * cfg.rows],
            xb_mask: RangeMask::dense(0, cfg.crossbars as u32).expect("validated nonzero"),
            row_mask: RangeMask::dense(0, cfg.rows as u32).expect("validated nonzero"),
            cfg,
            profiler: Profiler::new(),
        })
    }

    /// The profiling counters accumulated so far.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    fn index(&self, xb: usize, row: usize, reg: usize) -> usize {
        (reg * self.cfg.crossbars + xb) * self.cfg.rows + row
    }

    /// Direct state inspection for tests and debugging: the word at
    /// `(crossbar, row, reg)`. Bypasses the micro-operation interface.
    pub fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        self.cells[self.index(xb, row, reg)]
    }

    /// Direct state mutation for tests and debugging; see [`peek`].
    ///
    /// [`peek`]: FuncBackend::peek
    pub fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        let i = self.index(xb, row, reg);
        self.cells[i] = value;
    }

    /// Fires one gate in one row of one crossbar. An `INIT` sets its output
    /// bit; a `NOT` or `NOR` clears it when an input bit is 1 and leaves it
    /// otherwise — stateful logic only ever switches an output from 1 to 0.
    /// The gates of one operation never touch each other's cells (their
    /// sections are disjoint), so firing them one by one is firing them at
    /// once.
    fn fire(&mut self, xb: usize, row: usize, g: &GateInstance) {
        let bit = |c: ColAddr| self.peek(xb, row, c.offset as usize) >> c.part & 1 == 1;
        let set = match g.gate {
            GateKind::Init0 => Some(false),
            GateKind::Init1 => Some(true),
            GateKind::Not => bit(g.a).then_some(false),
            GateKind::Nor => (bit(g.a) || bit(g.b)).then_some(false),
        };
        if let Some(value) = set {
            let i = self.index(xb, row, g.out.offset as usize);
            let bit = 1 << g.out.part;
            self.cells[i] = if value {
                self.cells[i] | bit
            } else {
                self.cells[i] & !bit
            };
        }
    }

    /// A distributed move: every source word is read before any
    /// destination is written, as the H-tree transfers them at once.
    fn apply_move(&mut self, mv: &MoveOp) {
        let (row_src, reg_src) = (mv.row_src as usize, mv.index_src as usize);
        let sent: Vec<(usize, u32)> = selected(&self.xb_mask)
            .map(|src| (src, self.peek(src, row_src, reg_src)))
            .collect();
        for (src, value) in sent {
            let dst = (src as i64 + mv.dist as i64) as usize;
            self.poke(dst, mv.row_dst as usize, mv.index_dst as usize, value);
        }
    }

    /// Applies one validated, charged operation other than a read to every
    /// cell it selects.
    fn apply(&mut self, op: &MicroOp) {
        match op {
            MicroOp::XbMask(m) => self.xb_mask = *m,
            MicroOp::RowMask(m) => self.row_mask = *m,
            MicroOp::Write { index, value } => {
                for xb in selected(&self.xb_mask) {
                    for row in selected(&self.row_mask) {
                        self.poke(xb, row, *index as usize, *value);
                    }
                }
            }
            MicroOp::LogicH(l) => {
                let gates = l.expand_gates();
                for xb in selected(&self.xb_mask) {
                    for row in selected(&self.row_mask) {
                        for g in &gates {
                            self.fire(xb, row, g);
                        }
                    }
                }
            }
            // A vertical gate ignores the row mask: it runs between two
            // rows of every selected crossbar.
            MicroOp::LogicV {
                gate,
                row_in,
                row_out,
                index,
            } => {
                let (row_in, row_out, reg) = (*row_in as usize, *row_out as usize, *index as usize);
                for xb in selected(&self.xb_mask) {
                    let value = match gate {
                        VGate::Init0 => 0,
                        VGate::Init1 => u32::MAX,
                        VGate::Not => self.peek(xb, row_out, reg) & !self.peek(xb, row_in, reg),
                    };
                    self.poke(xb, row_out, reg, value);
                }
            }
            MicroOp::Move(mv) => self.apply_move(mv),
            MicroOp::Read { .. } => unreachable!("reads are answered by `execute`"),
        }
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

    /// Whole or nothing, as the engine's batch is: every operation is
    /// validated and charged against the masks in effect when it runs
    /// before any is applied, and a refused batch rolls the profiler back
    /// and changes nothing else.
    fn execute_batch(&mut self, ops: &[MicroOp]) -> Result<(), ArchError> {
        let (mut xb_mask, mut row_mask) = (self.xb_mask, self.row_mask);
        let profiler0 = self.profiler.clone();
        for op in ops {
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
                MicroOp::XbMask(m) => xb_mask = *m,
                MicroOp::RowMask(m) => row_mask = *m,
                _ => {}
            }
        }
        for op in ops {
            self.apply(op);
        }
        Ok(())
    }
}
