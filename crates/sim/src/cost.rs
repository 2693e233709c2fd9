//! The shared micro-operation cost model.
//!
//! Every backend — the bit-accurate [`PimSimulator`](crate::PimSimulator)
//! and the cell-by-cell reference it is tested against (`pim-func`) —
//! charges modeled cycles through [`charge_op`], so `Profiler` totals,
//! telemetry attribution and deadline semantics are identical regardless
//! of how the cells are computed on the host. [`charge_batch`] is its
//! closed form over a [`PreparedBatch`]: the same totals in one step (a
//! proptest holds the two equal field for field), and [`charge_row_move`]
//! the one over a [`RowMove`]'s expansion.
//!
//! Under the microarchitectural model every micro-operation occupies one
//! PIM clock cycle, except distributed moves whose transfers share H-tree
//! links (those serialize; see [`pim_arch::htree::plan_move`]).

use crate::Profiler;
use pim_arch::{htree, ArchError, MicroOp, PimConfig, PreparedBatch, RangeMask, RowMove};

/// Charges one micro-operation to `p` given the mask state in effect,
/// returning the operation's cycle cost.
///
/// Gate counters: a horizontal logic op fires `gate_count()` gate
/// instances per selected row per selected crossbar; a vertical logic op
/// fires one per selected crossbar. A distributed move is validated
/// against the H-tree pattern rules as a side effect.
///
/// # Errors
///
/// Returns [`ArchError::InvalidMove`] when a move violates the H-tree
/// rules (nothing is charged in that case).
pub fn charge_op(
    p: &mut Profiler,
    op: &MicroOp,
    xb_mask: &RangeMask,
    row_mask: &RangeMask,
    cfg: &PimConfig,
) -> Result<u64, ArchError> {
    let cycles = match op {
        MicroOp::XbMask(_) => {
            p.ops.xb_mask += 1;
            1
        }
        MicroOp::RowMask(_) => {
            p.ops.row_mask += 1;
            1
        }
        MicroOp::Write { .. } => {
            p.ops.write += 1;
            1
        }
        MicroOp::Read { .. } => {
            p.ops.read += 1;
            1
        }
        MicroOp::LogicH(l) => {
            p.ops.logic_h += 1;
            p.gates += l.gate_count();
            p.row_gates += l.gate_count() * row_mask.len() as u64 * xb_mask.len() as u64;
            1
        }
        MicroOp::LogicV { .. } => {
            p.ops.logic_v += 1;
            p.gates += 1;
            p.row_gates += xb_mask.len() as u64;
            1
        }
        MicroOp::Move(mv) => {
            let plan = htree::plan_move(xb_mask, mv, cfg)?;
            p.ops.mv += 1;
            p.move_pairs += plan.pairs;
            p.max_move_level = p.max_move_level.max(plan.tree_level);
            plan.cycles
        }
    };
    p.cycles += cycles;
    Ok(cycles)
}

/// Charges a whole prepared batch to `p` under the masks it replays
/// under, returning its cycle cost: exactly what folding [`charge_op`]
/// over `batch.ops()` charges, computed from the batch's cost summary.
/// The batch holds no mask operation, so both masks are constant across
/// it and only the moves need a per-operation step.
///
/// # Errors
///
/// Returns [`ArchError::InvalidMove`] when a move violates the H-tree
/// rules under `xb_mask`; nothing is charged in that case.
pub fn charge_batch(
    p: &mut Profiler,
    batch: &PreparedBatch,
    xb_mask: &RangeMask,
    row_mask: &RangeMask,
    cfg: &PimConfig,
) -> Result<u64, ArchError> {
    let cost = batch.cost();
    let (mut move_cycles, mut move_pairs, mut move_level) = (0, 0, 0);
    for mv in &cost.moves {
        let plan = htree::plan_move(xb_mask, mv, cfg)?;
        move_cycles += plan.cycles;
        move_pairs += plan.pairs;
        move_level = move_level.max(plan.tree_level);
    }
    let xbs = xb_mask.len() as u64;
    p.ops.write += cost.writes;
    p.ops.logic_h += cost.logic_h;
    p.ops.logic_v += cost.logic_v;
    p.ops.mv += cost.moves.len() as u64;
    p.gates += cost.h_gates + cost.logic_v;
    p.row_gates += cost.h_gates * row_mask.len() as u64 * xbs + cost.logic_v * xbs;
    p.move_pairs += move_pairs;
    p.max_move_level = p.max_move_level.max(move_level);
    let cycles = cost.writes + cost.logic_h + cost.logic_v + move_cycles;
    p.cycles += cycles;
    Ok(cycles)
}

/// Charges a row move to `p` under the crossbar mask it runs under,
/// returning its cycle cost: exactly what folding [`charge_op`] over
/// [`RowMove::expand`] charges. Every horizontal operation of the
/// expansion is a whole-register one (one gate per partition): two under
/// the source rows, the rest under the destination rows.
pub fn charge_row_move(
    p: &mut Profiler,
    mv: &RowMove,
    xb_mask: &RangeMask,
    cfg: &PimConfig,
) -> u64 {
    let (pairs, xbs) = (mv.src_rows.len() as u64, xb_mask.len() as u64);
    let (vertical, h_dst) = match mv.disjoint() {
        true => (pairs, 5),
        false => (2 * pairs, 4),
    };
    let (h_src, parts) = (2, cfg.partitions as u64);
    let rows = h_src * mv.src_rows.len() as u64 + h_dst * mv.dst_rows.len() as u64;
    p.ops.row_mask += 2;
    p.ops.logic_h += h_src + h_dst;
    p.ops.logic_v += vertical;
    p.gates += parts * (h_src + h_dst) + vertical;
    p.row_gates += (parts * rows + vertical) * xbs;
    let cycles = mv.micro_ops();
    p.cycles += cycles;
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::{ColAddr, GateKind, HLogic, MoveOp, RowMove, VGate};
    use proptest::prelude::*;

    #[test]
    fn charges_match_op_types() {
        let cfg = PimConfig::small();
        let xb = RangeMask::dense(0, cfg.crossbars as u32).unwrap();
        let rows = RangeMask::dense(0, cfg.rows as u32).unwrap();
        let mut p = Profiler::new();
        let gate = HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg).unwrap();
        let c = charge_op(&mut p, &MicroOp::LogicH(gate.clone()), &xb, &rows, &cfg).unwrap();
        assert_eq!(c, 1);
        assert_eq!(p.ops.logic_h, 1);
        assert_eq!(p.gates, gate.gate_count());
        assert_eq!(
            p.row_gates,
            gate.gate_count() * rows.len() as u64 * xb.len() as u64
        );
        assert_eq!(p.cycles, 1);
    }

    #[test]
    fn invalid_move_charges_nothing() {
        let cfg = PimConfig::small();
        let xb = RangeMask::single(0);
        let rows = RangeMask::dense(0, cfg.rows as u32).unwrap();
        let mut p = Profiler::new();
        let mv = MoveOp {
            dist: 0,
            row_src: 0,
            row_dst: 0,
            index_src: 0,
            index_dst: 0,
        };
        assert!(charge_op(&mut p, &MicroOp::Move(mv), &xb, &rows, &cfg).is_err());
        assert_eq!(p.cycles, 0);
        assert_eq!(p.ops.mv, 0);
    }

    /// One mask-free, read-free operation from seven bytes of entropy.
    fn arbitrary_op(cfg: &PimConfig, seed: (u8, u8, u8, u8, u8, u8, u8)) -> Option<MicroOp> {
        let (kind, a, b, c, d, e, f) = seed;
        let regs = cfg.regs as u8;
        let rows = cfg.rows as u32;
        Some(match kind % 4 {
            0 => MicroOp::Write {
                index: a % regs,
                value: u32::from_le_bytes([b, c, d, e]),
            },
            1 => MicroOp::LogicH(
                HLogic::strided(
                    [
                        GateKind::Init0,
                        GateKind::Init1,
                        GateKind::Not,
                        GateKind::Nor,
                    ][f as usize % 4],
                    ColAddr::new(a % 8, b % regs),
                    ColAddr::new(a % 8 + c % 4, d % regs),
                    ColAddr::new(a % 8 + e % 4, f % regs),
                    (a % 8 + e % 4) + (c % 3) * 8,
                    8,
                    cfg,
                )
                .ok()?,
            ),
            2 => MicroOp::LogicV {
                gate: [VGate::Init0, VGate::Init1, VGate::Not][a as usize % 3],
                row_in: b as u32 % rows,
                row_out: c as u32 % rows,
                index: d % regs,
            },
            _ => MicroOp::Move(MoveOp {
                // Mostly legal distances for the masks below, some not.
                dist: [1, -1, 2, 4, -4, 16, 0][a as usize % 7],
                row_src: b as u32 % rows,
                row_dst: c as u32 % rows,
                index_src: d % regs,
                index_dst: e % regs,
            }),
        })
        // A vertical NOT from a row onto itself is not an operation.
        .filter(|op| op.validate(cfg).is_ok())
    }

    proptest! {
        /// `charge_row_move` is the closed form of folding `charge_op` over
        /// the move's expansion: disjoint and overlapping row sets, dense
        /// and strided, both directions, under any crossbar mask.
        #[test]
        fn charge_row_move_equals_folded_charge_op(
            (start, shift, count, step) in any::<(u8, u8, u8, u8)>(),
            xb in any::<(u8, u8)>(),
        ) {
            let cfg = PimConfig::small();
            let step = 1 + u32::from(step) % 3;
            let count = 1 + u32::from(count) % 20;
            let start = u32::from(start) % (64 - (count - 1) * step);
            let src_rows = RangeMask::strided(start, count, step).unwrap();
            let dst_start = (start + 1 + u32::from(shift)) % (64 - (count - 1) * step);
            let dst_rows = RangeMask::strided(dst_start, count, step).unwrap();
            prop_assume!(src_rows != dst_rows);
            let mv = RowMove { src: 0, dst: 1 + shift % 3, src_rows, dst_rows };
            let xb_mask = RangeMask::strided(u32::from(xb.0) % 8, 1 + u32::from(xb.1) % 8, 1).unwrap();
            let row_mask = RangeMask::single(3);
            let mut ops = Vec::new();
            mv.expand(&cfg, &mut ops).unwrap();
            prop_assert_eq!(ops.len() as u64, mv.micro_ops());
            let mut folded = Profiler::new();
            let mut masks = (xb_mask, row_mask);
            for op in &ops {
                charge_op(&mut folded, op, &masks.0, &masks.1, &cfg).unwrap();
                if let MicroOp::RowMask(m) = op {
                    masks.1 = *m;
                }
            }
            let mut closed = Profiler::new();
            prop_assert_eq!(charge_row_move(&mut closed, &mv, &xb_mask, &cfg), folded.cycles);
            prop_assert_eq!(closed, folded);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `charge_batch` is the closed form of folding `charge_op`: every
        /// `Profiler` field agrees, over writes, strided gates, vertical
        /// gates and moves, under dense, strided and single masks; and a
        /// batch the fold rejects is rejected with nothing charged.
        #[test]
        fn charge_batch_equals_folded_charge_op(
            seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 0..40),
            xb in any::<(u8, u8, u8)>(),
            rows in any::<(u8, u8, u8)>(),
        ) {
            let cfg = PimConfig::small().with_crossbars(32).with_rows(16);
            let mask = |(start, count, step): (u8, u8, u8), n: u32, steps: [u32; 3]| {
                RangeMask::strided(start as u32 % n, 1 + count as u32 % 8, steps[step as usize % 3])
                    .ok()
                    .filter(|m| m.stop() < n)
            };
            let xb_mask = mask(xb, 32, [1, 4, 16]);
            let row_mask = mask(rows, 16, [1, 2, 3]);
            prop_assume!(xb_mask.is_some() && row_mask.is_some());
            let (xb_mask, row_mask) = (xb_mask.unwrap(), row_mask.unwrap());
            let ops: Vec<MicroOp> =
                seeds.iter().filter_map(|&s| arbitrary_op(&cfg, s)).collect();
            let batch = PreparedBatch::new(ops.clone(), &cfg).unwrap();

            // A profiler that already holds counts: charging must add.
            let mut start = Profiler::new();
            charge_op(&mut start, &MicroOp::Read { index: 0 }, &xb_mask, &row_mask, &cfg).unwrap();
            start.max_move_level = 1;
            let mut folded = start.clone();
            let fold: Result<u64, ArchError> = ops.iter().try_fold(0, |sum, op| {
                Ok(sum + charge_op(&mut folded, op, &xb_mask, &row_mask, &cfg)?)
            });
            let mut closed = start.clone();
            let direct = charge_batch(&mut closed, &batch, &xb_mask, &row_mask, &cfg);
            match fold {
                Ok(cycles) => {
                    prop_assert_eq!(direct, Ok(cycles));
                    prop_assert_eq!(closed, folded);
                }
                Err(e) => {
                    prop_assert_eq!(direct, Err(e));
                    prop_assert_eq!(closed, start, "a rejected batch charges nothing");
                }
            }
        }
    }
}
