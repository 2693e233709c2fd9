use crate::{ArchError, GateKind, HLogic, MicroOp, MoveOp, PimConfig, WORD_BITS};
use std::sync::OnceLock;

/// One operation of a batch as a bit-plane engine replays it: a horizontal
/// gate resolved into the planes it names, or — the default record — a
/// marker that the operation at the same index of [`PreparedBatch::ops`] is
/// not a horizontal gate and runs from there. A plane is a crossbar column,
/// `offset · 32 + part`, so a record is independent of the geometry. Eight
/// bytes: replaying a routine reads a third of what its [`MicroOp`]s occupy
/// and decodes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayRecord {
    out: u16,
    in_a: u16,
    in_b: u16,
    /// Concurrent gates; 0 for an operation that is not a horizontal gate.
    gates: u8,
    /// Bits 0-1: [`GateKind::code`]; bit 2: armed; bits 3-7: plane stride.
    flags: u8,
}

const ARMED: u8 = 1 << 2;

impl ReplayRecord {
    /// Resolves a valid horizontal operation; `armed` as
    /// [`armed`](Self::armed) defines it.
    #[inline]
    pub fn gate(op: &HLogic, armed: bool) -> Self {
        let plane = |c: crate::ColAddr| (c.offset as usize * WORD_BITS + c.part as usize) as u16;
        let gates = op.gate_count() as u8;
        // A single gate has no stride; among several it is below 32.
        let step = if gates == 1 { 0 } else { op.p_step & 31 };
        // A NOT is a NOR of its input with itself.
        let in_b = if op.gate == GateKind::Nor {
            op.in_b
        } else {
            op.in_a
        };
        ReplayRecord {
            out: plane(op.out),
            in_a: plane(op.in_a),
            in_b: plane(in_b),
            gates,
            flags: op.gate.code() | if armed { ARMED } else { 0 } | step << 3,
        }
    }

    /// Whether the operation is a horizontal gate (and the other accessors
    /// mean anything).
    #[inline]
    pub fn is_gate(&self) -> bool {
        self.gates != 0
    }

    /// Gate type of every concurrent gate.
    #[inline]
    pub fn kind(&self) -> GateKind {
        GateKind::from_code(self.flags & 3).unwrap_or(GateKind::Nor)
    }

    /// Output plane of the first gate.
    #[inline]
    pub fn out(&self) -> usize {
        self.out as usize
    }

    /// Input planes of the first gate (twice the same for a `NOT`).
    #[inline]
    pub fn inputs(&self) -> (usize, usize) {
        (self.in_a as usize, self.in_b as usize)
    }

    /// Number of concurrent gates.
    #[inline]
    pub fn gates(&self) -> usize {
        self.gates as usize
    }

    /// Planes between one concurrent gate and the next.
    #[inline]
    pub fn step(&self) -> usize {
        (self.flags >> 3) as usize
    }

    /// The strict check of this `NOT`/`NOR` is discharged by the batch
    /// itself: whatever selection the batch replays under, every output
    /// cell holds 1 when the gate fires.
    #[inline]
    pub fn armed(&self) -> bool {
        self.flags & ARMED != 0
    }

    /// Whether the record is one `NOT`/`NOR` gate whose strict check a
    /// replay may skip: armed, or any such gate when `strict` is off — the
    /// gates a bit-plane engine replays in its tight loop.
    #[inline]
    pub fn plain(&self, strict: bool) -> bool {
        // Gate codes 2 (`NOT`) and 3 (`NOR`) are the ones with bit 1 set.
        let need = 2 | if strict { ARMED } else { 0 };
        self.gates == 1 && self.flags & need == need
    }
}

/// Resolves a validated batch into its replay records and proves what it
/// can of the stateful-logic discipline — a forward dataflow, sound because
/// the batch holds no mask operation and so runs under **one** selection: a
/// horizontal `INIT1` sets every selected cell of its output planes, which
/// are then the cells a later gate on those planes selects. Any operation
/// that can clear a cell of a plane takes the plane out of the set again: a
/// `NOT`/`NOR` (its own outputs), an `INIT0`, and a `Write`, a vertical gate
/// or a `Move` into the register (all 32 planes; the last two ignore the
/// row mask). A `NOT`/`NOR` whose output planes are all in the set is armed.
fn resolve(ops: &[MicroOp]) -> Vec<ReplayRecord> {
    // set[r]: the partitions of register r whose plane is set.
    let mut set = [0u32; 256];
    let records = ops.iter().map(|op| {
        match op {
            MicroOp::LogicH(l) => {
                let (planes, bits) = (&mut set[l.out.offset as usize], l.out_bits());
                let armed = l.gate.inputs() > 0 && *planes & bits == bits;
                match l.gate {
                    GateKind::Init1 => *planes |= bits,
                    _ => *planes &= !bits,
                }
                return ReplayRecord::gate(l, armed);
            }
            MicroOp::Write { index, .. } | MicroOp::LogicV { index, .. } => {
                set[*index as usize] = 0
            }
            // Belt and braces: the destinations of a legal move lie outside
            // the crossbar mask (`htree::plan_move`), so no replay can show
            // this clear — it keeps the proof from resting on that rule.
            MicroOp::Move(mv) => set[mv.index_dst as usize] = 0,
            // `new` admits none of these; a mask would end the one
            // selection the proof rests on.
            MicroOp::XbMask(_) | MicroOp::RowMask(_) | MicroOp::Read { .. } => set = [0; 256],
        }
        ReplayRecord::default()
    });
    records.collect()
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
/// re-charging or re-resolving each operation.
///
/// The sequence holds no mask operation and no read: every operation runs
/// under whatever masks the memory holds when the batch starts. That makes
/// the cost a closed form ([`cost`](Self::cost)).
///
/// Beyond the operations themselves the prepared form adds O(1) state —
/// and, once a bit-plane backend has asked for them, the
/// [`records`](Self::records): 8 bytes per operation, built on the first
/// replay and never for a batch only the reference sees.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    ops: Vec<MicroOp>,
    /// `(crossbars, rows, partitions, regs)` the operations were validated
    /// against — the only configuration fields validation reads.
    geometry: [usize; 4],
    cost: BatchCost,
    /// `resolve(ops)`, built on first use.
    records: OnceLock<Vec<ReplayRecord>>,
}

/// Batches are equal when they hold the same operations for the same
/// geometry; everything else is derived from those, built or not.
impl PartialEq for PreparedBatch {
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops && self.geometry == other.geometry
    }
}

impl Eq for PreparedBatch {}

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
        Ok(PreparedBatch {
            ops,
            geometry: geometry(cfg),
            cost,
            records: OnceLock::new(),
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

    /// The operations as a bit-plane engine replays them, one record per
    /// operation of [`ops`](Self::ops) and in their order: planes resolved,
    /// strict checks proved where the batch itself discharges them
    /// ([`ReplayRecord::armed`]). Built by the first call.
    pub fn records(&self) -> &[ReplayRecord] {
        self.records.get_or_init(|| resolve(&self.ops))
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
    fn summarizes_cost() {
        let mv = MoveOp {
            dist: 4,
            row_src: 0,
            row_dst: 1,
            index_src: 5,
            index_dst: 6,
        };
        let ops = vec![
            init(3),
            MicroOp::Write { index: 3, value: 7 },
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

    #[test]
    fn records_resolve_planes_and_arm_gates_behind_an_init1() {
        let c = cfg();
        let mv = |index_src, index_dst| {
            MicroOp::Move(MoveOp {
                dist: 1,
                row_src: 0,
                row_dst: 0,
                index_src,
                index_dst,
            })
        };
        let vertical = |index| MicroOp::LogicV {
            gate: crate::VGate::Init1,
            row_in: 0,
            row_out: 1,
            index,
        };
        let cell = |part| crate::ColAddr::new(part, 3);
        let serial =
            |gate| MicroOp::LogicH(HLogic::serial(gate, cell(1), cell(1), cell(9), &c).unwrap());
        // What sits between `INIT1 r3` and `NOR r0, r1 -> r3`, and whether
        // the NOR is still armed behind it.
        let between = [
            (vec![], true),
            (
                vec![MicroOp::Write { index: 4, value: 0 }, vertical(2), mv(3, 4)],
                true,
            ),
            (vec![nor(3, 3, 5)], true), // reads the register
            (
                vec![MicroOp::Write {
                    index: 3,
                    value: u32::MAX,
                }],
                false,
            ),
            (vec![vertical(3)], false),
            (vec![mv(4, 3)], false),
            (vec![serial(GateKind::Init0)], false),
            (vec![serial(GateKind::Not)], false), // a gate's own output
            (vec![serial(GateKind::Not), serial(GateKind::Init1)], true),
        ];
        for (clobber, armed) in between {
            let mut ops = vec![init(3)];
            ops.extend(clobber);
            ops.push(nor(0, 1, 3));
            let batch = PreparedBatch::new(ops.clone(), &c).unwrap();
            let records = batch.records();
            assert_eq!(records.len(), ops.len());
            for (record, op) in records.iter().zip(&ops) {
                assert_eq!(record.is_gate(), matches!(op, MicroOp::LogicH(_)), "{op:?}");
            }
            let last = records[ops.len() - 1];
            assert_eq!(last.armed(), armed, "{ops:?}");
            assert_eq!(
                (
                    last.kind(),
                    last.out(),
                    last.inputs(),
                    last.gates(),
                    last.step()
                ),
                (GateKind::Nor, 3 * 32, (0, 32), 32, 1)
            );
            assert!(!records[0].armed(), "an INIT has no check to prove");
        }
        // Every output plane must be set, not some: one armed cell does
        // not arm a gate on the whole register, and an unarmed batch start
        // arms nothing.
        let ops = vec![serial(GateKind::Init1), serial(GateKind::Not), nor(0, 1, 3)];
        let batch = PreparedBatch::new(ops, &c).unwrap();
        let armed: Vec<bool> = batch.records().iter().map(ReplayRecord::armed).collect();
        assert_eq!(armed, [false, true, false]);
        // Plain: a lone NOT/NOR, armed unless strict is off — never an INIT
        // or a 32-gate NOR.
        let plain = |batch: &PreparedBatch, strict| -> Vec<bool> {
            batch.records().iter().map(|r| r.plain(strict)).collect()
        };
        assert_eq!(plain(&batch, true), [false, true, false]);
        assert_eq!(plain(&batch, false), [false, true, false]);
        let unarmed = vec![serial(GateKind::Not), serial(GateKind::Init1)];
        let unarmed = PreparedBatch::new(unarmed, &c).unwrap();
        assert_eq!(plain(&unarmed, true), [false, false]);
        assert_eq!(plain(&unarmed, false), [true, false]);
        let serial = batch.records()[1];
        assert_eq!(
            (serial.kind(), serial.out(), serial.inputs(), serial.gates()),
            (GateKind::Not, 3 * 32 + 9, (3 * 32 + 1, 3 * 32 + 1), 1)
        );
        assert_eq!(std::mem::size_of::<ReplayRecord>(), 8);
    }

    #[test]
    fn equality_and_clones_ignore_whether_records_were_built() {
        let ops = vec![init(3), nor(0, 1, 3), MicroOp::Write { index: 3, value: 7 }];
        let built = PreparedBatch::new(ops.clone(), &cfg()).unwrap();
        let unbuilt = built.clone();
        built.records();
        assert_eq!(built, unbuilt);
        assert_eq!(built.clone(), unbuilt);
        assert_eq!(built.clone().records(), unbuilt.records());
        let other = PreparedBatch::new(ops[..2].to_vec(), &cfg()).unwrap();
        assert_ne!(built, other);
    }
}
