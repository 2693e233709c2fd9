use crate::{ArchError, GateKind, MicroOp, MoveOp, PimConfig};

/// One bit per operation of a batch: which operations a backend may skip.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBits {
    words: Vec<u64>,
}

impl OpBits {
    /// All-clear bits for a batch of `len` operations.
    pub fn new(len: usize) -> Self {
        OpBits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Bit `i`. Out-of-range indices read as clear.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the length the bits were created for.
    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The backward dead-store walk over a validated, read-free batch.
/// `full(i)` tells whether op `i` runs under whole-memory masks. An
/// operation is marked when its only effect is a store to a register that
/// is completely overwritten later in the batch before any read; skipping
/// it changes no cell the batch leaves behind. Cost accounting covers the
/// full stream regardless, so elision never moves a modeled cycle.
pub fn plan_elisions(ops: &[MicroOp], full: impl Fn(usize) -> bool) -> OpBits {
    let mut elide = OpBits::new(ops.len());
    // dead[r]: every bit of register r (all crossbars/rows) is overwritten
    // later in the batch before any operation reads it. `RegId` is a `u8`.
    let mut dead = [false; 256];
    for (i, op) in ops.iter().enumerate().rev() {
        match op {
            MicroOp::XbMask(_) | MicroOp::RowMask(_) => {}
            MicroOp::Write { index, .. } => {
                let r = *index as usize;
                if dead[r] {
                    elide.set(i);
                } else if full(i) {
                    dead[r] = true;
                }
            }
            MicroOp::LogicH(l) => {
                let out = l.out.offset as usize;
                if dead[out] {
                    elide.set(i);
                    continue;
                }
                match l.gate {
                    GateKind::Init0 | GateKind::Init1 => {
                        if full(i) && l.out_bits() == u32::MAX {
                            dead[out] = true;
                        }
                    }
                    GateKind::Not => dead[l.in_a.offset as usize] = false,
                    GateKind::Nor => {
                        dead[l.in_a.offset as usize] = false;
                        dead[l.in_b.offset as usize] = false;
                    }
                }
            }
            MicroOp::LogicV { index, .. } => {
                // Writes one row (and NOT reads the same register); a
                // single-row store never fully defines the register.
                if dead[*index as usize] {
                    elide.set(i);
                }
            }
            MicroOp::Move(mv) => {
                // Reads the source register; writes one row of the
                // destination register (partial — does not define it).
                dead[mv.index_src as usize] = false;
                dead[mv.index_dst as usize] = false;
            }
            MicroOp::Read { .. } => unreachable!("reads rejected before planning"),
        }
    }
    elide
}

/// What a [`PreparedBatch`] costs, independent of the masks it replays
/// under: everything a cost model needs to charge the whole batch in one
/// step (`pim_sim::charge_batch`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchCost {
    /// Write operations.
    pub writes: u64,
    /// Horizontal logic operations.
    pub logic_h: u64,
    /// Vertical logic operations.
    pub logic_v: u64,
    /// Sum of [`HLogic::gate_count`](crate::HLogic::gate_count) over the
    /// horizontal logic operations.
    pub h_gates: u64,
    /// The distributed moves, in order: their cost depends on the crossbar
    /// mask in effect, so they are kept rather than summed.
    pub moves: Vec<MoveOp>,
}

/// An immutable micro-operation sequence that was validated against one
/// geometry exactly once, so a backend can replay it without re-checking,
/// re-charging or re-planning each operation.
///
/// The sequence holds no mask operation and no read: every operation runs
/// under whatever masks the memory holds when the batch starts. That makes
/// the cost a closed form ([`cost`](Self::cost)) and the dead-store plan
/// for the whole-memory-mask case a constant
/// ([`full_mask_elisions`](Self::full_mask_elisions)); under any other
/// masks no store defines a whole register, so nothing is elidable.
///
/// Beyond the operations themselves the prepared form adds O(1) state plus
/// one bit per operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedBatch {
    ops: Vec<MicroOp>,
    /// `(crossbars, rows, partitions, regs)` the operations were validated
    /// against — the only configuration fields validation reads.
    geometry: [usize; 4],
    cost: BatchCost,
    full_mask_elisions: OpBits,
}

fn geometry(cfg: &PimConfig) -> [usize; 4] {
    [cfg.crossbars, cfg.rows, cfg.partitions, cfg.regs]
}

impl PreparedBatch {
    /// Validates `ops` against `cfg` and summarizes them.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::Protocol`] if `ops` holds a read or a mask
    /// operation, or the first operation's validation error.
    pub fn new(ops: Vec<MicroOp>, cfg: &PimConfig) -> Result<Self, ArchError> {
        let mut cost = BatchCost::default();
        for op in &ops {
            // Before anything reads the operation: `gate_count` of an
            // invalid pattern is not defined.
            op.validate(cfg)?;
            match op {
                MicroOp::Read { .. } => {
                    return Err(ArchError::Protocol {
                        reason: "read operations cannot be batched".into(),
                    })
                }
                MicroOp::XbMask(_) | MicroOp::RowMask(_) => {
                    return Err(ArchError::Protocol {
                        reason: "a prepared batch replays under the caller's masks and \
                                 cannot hold mask operations"
                            .into(),
                    })
                }
                MicroOp::Write { .. } => cost.writes += 1,
                MicroOp::LogicH(l) => {
                    cost.logic_h += 1;
                    cost.h_gates += l.gate_count();
                }
                MicroOp::LogicV { .. } => cost.logic_v += 1,
                MicroOp::Move(mv) => cost.moves.push(*mv),
            }
        }
        let full_mask_elisions = plan_elisions(&ops, |_| true);
        Ok(PreparedBatch {
            ops,
            geometry: geometry(cfg),
            cost,
            full_mask_elisions,
        })
    }

    /// The operations, in order.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Whether the operations were validated against `cfg`'s geometry. A
    /// backend of another geometry must treat [`ops`](Self::ops) as
    /// unvalidated.
    pub fn prepared_for(&self, cfg: &PimConfig) -> bool {
        self.geometry == geometry(cfg)
    }

    /// The mask-independent cost summary.
    pub fn cost(&self) -> &BatchCost {
        &self.cost
    }

    /// The dead stores of the batch when it runs under masks selecting
    /// every row of every crossbar ([`plan_elisions`] with `full` always true).
    pub fn full_mask_elisions(&self) -> &OpBits {
        &self.full_mask_elisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HLogic, RangeMask};

    fn cfg() -> PimConfig {
        PimConfig::small()
    }

    fn init(reg: u8) -> MicroOp {
        MicroOp::LogicH(HLogic::init_reg(true, reg, &cfg()).unwrap())
    }

    fn nor(a: u8, b: u8, out: u8) -> MicroOp {
        MicroOp::LogicH(HLogic::parallel(GateKind::Nor, a, b, out, &cfg()).unwrap())
    }

    #[test]
    fn summarizes_cost_and_plans_dead_stores() {
        let mv = MoveOp {
            dist: 4,
            row_src: 0,
            row_dst: 1,
            index_src: 5,
            index_dst: 6,
        };
        let ops = vec![
            init(3),                               // dead: register 3 is re-initialized before any read
            MicroOp::Write { index: 3, value: 7 }, // dead too
            init(3),
            nor(0, 1, 3),
            MicroOp::LogicV {
                gate: crate::VGate::Not,
                row_in: 0,
                row_out: 1,
                index: 3,
            },
            MicroOp::Move(mv),
        ];
        let batch = PreparedBatch::new(ops.clone(), &cfg()).unwrap();
        assert_eq!(batch.ops(), &ops[..]);
        assert_eq!(
            batch.cost(),
            &BatchCost {
                writes: 1,
                logic_h: 3,
                logic_v: 1,
                h_gates: 96,
                moves: vec![mv],
            }
        );
        let plan = batch.full_mask_elisions();
        assert_eq!(plan.count(), 2);
        assert!(plan.get(0) && plan.get(1) && !plan.get(2));
        // Under partial masks no store defines a register: nothing elides.
        assert_eq!(plan_elisions(&ops, |_| false).count(), 0);
    }

    #[test]
    fn refuses_reads_masks_and_foreign_geometry() {
        let c = cfg();
        for bad in [
            MicroOp::Read { index: 0 },
            MicroOp::XbMask(RangeMask::single(0)),
            MicroOp::RowMask(RangeMask::single(0)),
        ] {
            let err = PreparedBatch::new(vec![init(2), bad], &c).unwrap_err();
            assert!(matches!(err, ArchError::Protocol { .. }), "{err}");
        }
        // Validation runs against the geometry handed in.
        let narrow = c.clone().with_rows(4);
        let tall = MicroOp::LogicV {
            gate: crate::VGate::Init1,
            row_in: 0,
            row_out: 40,
            index: 0,
        };
        assert!(PreparedBatch::new(vec![tall.clone()], &narrow).is_err());
        let batch = PreparedBatch::new(vec![tall], &c).unwrap();
        assert!(batch.prepared_for(&c));
        assert!(!batch.prepared_for(&narrow));
    }
}
