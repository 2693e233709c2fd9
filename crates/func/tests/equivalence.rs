//! Differential oracle: the engine (`PimSimulator`) and the reference
//! (`FuncBackend`) must produce bit-identical architectural state and
//! identical profiling counters for the same micro-operation stream — both
//! op-by-op and batched. Replaying a `PreparedBatch` must in turn be
//! indistinguishable from `execute_batch` of the same operations: image,
//! masks and every profiler counter.

use pim_arch::{
    Backend, ColAddr, GateKind, HLogic, MicroOp, MoveOp, PimConfig, PreparedBatch, RangeMask, VGate,
};
use pim_func::{AnyBackend, BackendKind, FuncBackend};
use pim_sim::PimSimulator;
use proptest::prelude::*;

fn assert_same_state(sim: &PimSimulator, func: &FuncBackend, cfg: &PimConfig) {
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                assert_eq!(
                    sim.peek(xb, row, reg),
                    func.peek(xb, row, reg),
                    "cell mismatch at xb {xb} row {row} reg {reg}"
                );
            }
        }
    }
    let (sp, fp) = (sim.profiler(), func.profiler());
    assert_eq!(sp.cycles, fp.cycles, "modeled cycles diverge");
    assert_eq!(sp.ops, fp.ops, "per-type op counts diverge");
    assert_eq!(sp.gates, fp.gates, "gate counts diverge");
    assert_eq!(sp.row_gates, fp.row_gates, "row-gate counts diverge");
    assert_eq!(sp.move_pairs, fp.move_pairs, "move pairs diverge");
    assert_eq!(sp.max_move_level, fp.max_move_level, "move levels diverge");
}

/// Same generator shape as the simulator's own batch-equals-serial fuzz:
/// seeds map onto (possibly invalid) operations, invalid ones are skipped.
fn arbitrary_op(cfg: &PimConfig, seed: (u8, u8, u8, u8, u8, u8, u8)) -> Option<MicroOp> {
    let (kind, a, b, c, d, e, f) = seed;
    let regs = cfg.regs as u8;
    let rows = cfg.rows as u32;
    let xbs = cfg.crossbars as u32;
    Some(match kind % 5 {
        0 => MicroOp::XbMask(
            RangeMask::strided(a as u32 % xbs, 1 + b as u32 % 3, 1 + c as u32 % 2)
                .ok()
                .filter(|m| m.stop() < xbs)?,
        ),
        1 => MicroOp::RowMask(
            RangeMask::strided(a as u32 % rows, 1 + b as u32 % 4, 1 + c as u32 % 3)
                .ok()
                .filter(|m| m.stop() < rows)?,
        ),
        2 => MicroOp::Write {
            index: a % regs,
            value: u32::from_le_bytes([b, c, d, e]),
        },
        3 => MicroOp::LogicH(
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
        _ => MicroOp::LogicV {
            gate: [VGate::Init0, VGate::Init1, VGate::Not][a as usize % 3],
            row_in: b as u32 % rows,
            row_out: c as u32 % rows,
            index: d % regs,
        },
    })
    // A vertical NOT from a row onto itself is not an operation.
    .filter(|op| op.validate(cfg).is_ok())
}

#[test]
fn vertical_not_onto_its_own_row_is_refused_alike() {
    // The gate would read the memristor it drives; both backends refuse it
    // with the same error through every entry point, and change nothing.
    let cfg = PimConfig::small();
    let not = |row_in| MicroOp::LogicV {
        gate: VGate::Not,
        row_in,
        row_out: 5,
        index: 2,
    };
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    let mut func = FuncBackend::new(cfg.clone()).unwrap();
    sim.set_strict(false);
    let refused = sim.execute(&not(5)).unwrap_err();
    assert!(
        matches!(refused, pim_arch::ArchError::InvalidRange { .. }),
        "{refused}"
    );
    assert_eq!(func.execute(&not(5)), Err(refused.clone()));
    assert_eq!(sim.execute_batch(&[not(4), not(5)]), Err(refused.clone()));
    assert_eq!(func.execute_batch(&[not(4), not(5)]), Err(refused));
    assert!(PreparedBatch::new(vec![not(5)], &cfg).is_err());
    assert_same_state(&sim, &func, &cfg);
    assert_eq!(sim.profiler().cycles, 0);
}

/// Interleaves single-source moves (with their mask) into a stream so the
/// distributed path is exercised under valid H-tree patterns.
fn with_moves(cfg: &PimConfig, ops: &mut Vec<MicroOp>, seeds: &[(u8, u8, u8, u8)]) {
    let xbs = cfg.crossbars as u32;
    let rows = cfg.rows as u32;
    let regs = cfg.regs as u8;
    // Positions are computed against the base stream and spliced in
    // descending order so every mask+move pair stays adjacent — a later
    // insertion can never change the mask a move executes under.
    let mut pairs: Vec<(usize, [MicroOp; 2])> = seeds
        .iter()
        .filter_map(|&(a, b, c, d)| {
            let src = a as u32 % xbs;
            let dst = b as u32 % xbs;
            if src == dst {
                return None;
            }
            let at = (a as usize * 31 + b as usize) % (ops.len() + 1);
            Some((
                at,
                [
                    MicroOp::XbMask(RangeMask::single(src)),
                    MicroOp::Move(MoveOp {
                        dist: dst as i32 - src as i32,
                        row_src: c as u32 % rows,
                        row_dst: d as u32 % rows,
                        index_src: c % regs,
                        index_dst: d % regs,
                    }),
                ],
            ))
        })
        .collect();
    pairs.sort_by_key(|p| std::cmp::Reverse(p.0));
    for (at, pair) in pairs {
        ops.splice(at..at, pair);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Op-by-op execution: every read-back and every profiler counter of
    /// the functional backend matches the bit-accurate simulator.
    #[test]
    fn serial_matches_simulator(
        seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 1..48),
        move_seeds in proptest::collection::vec(any::<(u8, u8, u8, u8)>(), 0..4),
    ) {
        let cfg = PimConfig::small().with_crossbars(32).with_rows(16);
        let mut ops: Vec<MicroOp> =
            seeds.iter().filter_map(|&s| arbitrary_op(&cfg, s)).collect();
        with_moves(&cfg, &mut ops, &move_seeds);
        prop_assume!(!ops.is_empty());
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        let mut func = FuncBackend::new(cfg.clone()).unwrap();
        sim.set_strict(false); // random gates may hit uninitialized cells
        for op in &ops {
            let s = sim.execute(op);
            let f = func.execute(op);
            prop_assert_eq!(s.is_ok(), f.is_ok(), "acceptance diverges on {:?}", op);
            if let (Ok(sv), Ok(fv)) = (s, f) {
                prop_assert_eq!(sv, fv, "read value diverges on {:?}", op);
            }
        }
        assert_same_state(&sim, &func, &cfg);
    }

    /// Batched execution leaves identical state and identical modeled
    /// cycles to the simulator's batch path.
    #[test]
    fn batch_matches_simulator(
        seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 1..48),
        move_seeds in proptest::collection::vec(any::<(u8, u8, u8, u8)>(), 0..4),
    ) {
        let cfg = PimConfig::small().with_crossbars(32).with_rows(16);
        let mut ops: Vec<MicroOp> =
            seeds.iter().filter_map(|&s| arbitrary_op(&cfg, s)).collect();
        with_moves(&cfg, &mut ops, &move_seeds);
        prop_assume!(!ops.is_empty());
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        let mut func = FuncBackend::new(cfg.clone()).unwrap();
        sim.set_strict(false);
        sim.execute_batch(&ops).unwrap();
        func.execute_batch(&ops).unwrap();
        assert_same_state(&sim, &func, &cfg);
        // Masks evolved identically: a follow-up write lands on the same
        // cells in both backends.
        sim.execute(&MicroOp::Write { index: 0, value: 0xA5A5_5A5A }).unwrap();
        func.execute(&MicroOp::Write { index: 0, value: 0xA5A5_5A5A }).unwrap();
        assert_same_state(&sim, &func, &cfg);
    }

    /// Modeled-cycle accounting on randomized routine-shaped mixes
    /// (init-gate-heavy streams like driver arithmetic emits, where most
    /// stores are overwritten before anything reads them) matches the
    /// simulator's profiler exactly.
    #[test]
    fn elided_batches_charge_identical_cycles(
        regs in proptest::collection::vec(0u8..8, 1..24),
        rounds in 1usize..6,
    ) {
        let cfg = PimConfig::small().with_crossbars(16).with_rows(32);
        let mut ops = Vec::new();
        for _ in 0..rounds {
            for &r in &regs {
                ops.push(MicroOp::LogicH(HLogic::init_reg(true, r, &cfg).unwrap()));
                ops.push(MicroOp::LogicH(
                    HLogic::parallel(GateKind::Nor, (r + 1) % 8, (r + 2) % 8, r, &cfg).unwrap(),
                ));
            }
        }
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        let mut func = FuncBackend::new(cfg.clone()).unwrap();
        sim.execute_batch(&ops).unwrap();
        func.execute_batch(&ops).unwrap();
        assert_same_state(&sim, &func, &cfg);
    }
}

/// The four mask shapes a routine replays under: whole memory, a dense
/// window, strided rows and crossbars, a single row.
fn replay_masks(cfg: &PimConfig, shape: u8, a: u8, b: u8) -> [MicroOp; 2] {
    let (xbs, rows) = (cfg.crossbars as u32, cfg.rows as u32);
    let (xb, row) = match shape % 4 {
        0 => (
            RangeMask::dense(0, xbs).unwrap(),
            RangeMask::dense(0, rows).unwrap(),
        ),
        1 => {
            let (x0, r0) = (a as u32 % (xbs - 1), b as u32 % (rows - 1));
            (
                RangeMask::dense(x0, x0 + 1 + (b as u32 % (xbs - x0))).unwrap(),
                RangeMask::dense(r0, r0 + 1 + (a as u32 % (rows - r0))).unwrap(),
            )
        }
        2 => (
            RangeMask::strided(a as u32 % 4, 1 + b as u32 % 4, 4).unwrap(),
            RangeMask::strided(b as u32 % 3, 1 + a as u32 % 4, 2 + a as u32 % 2).unwrap(),
        ),
        _ => (
            RangeMask::single(a as u32 % xbs),
            RangeMask::single(b as u32 % rows),
        ),
    };
    [MicroOp::XbMask(xb), MicroOp::RowMask(row)]
}

/// Runs `body` under `masks` three ways — `execute_batch` on the
/// functional backend, `execute_prepared` on it, `execute_prepared` on the
/// simulator (its own closed-form charge) — and holds all three equal.
fn assert_prepared_replay_matches(cfg: &PimConfig, masks: &[MicroOp], body: Vec<MicroOp>) {
    let prepared = PreparedBatch::new(body.clone(), cfg).unwrap();
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    let mut batch = FuncBackend::new(cfg.clone()).unwrap();
    let mut replay = FuncBackend::new(cfg.clone()).unwrap();
    sim.set_strict(false);
    // Distinct cell contents, so a skipped or misplaced store shows.
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                let v = (xb * 0x0101_0101 + row * 0x0001_0203 + reg * 0x1F00_0035) as u32;
                sim.poke(xb, row, reg, v);
                batch.poke(xb, row, reg, v);
                replay.poke(xb, row, reg, v);
            }
        }
    }
    sim.execute_batch(masks).unwrap();
    batch.execute_batch(masks).unwrap();
    replay.execute_batch(masks).unwrap();
    let expected = batch.execute_batch(&body);
    assert_eq!(replay.execute_prepared(&prepared), expected);
    assert_eq!(sim.execute_prepared(&prepared), expected);
    // Twice: the second replay starts from the first one's leftovers.
    if expected.is_ok() {
        batch.execute_batch(&body).unwrap();
        replay.execute_prepared(&prepared).unwrap();
        sim.execute_prepared(&prepared).unwrap();
    }
    for probe in [&mut batch, &mut replay] {
        // Final masks: a follow-up write lands on the same cells.
        probe
            .execute(&MicroOp::Write {
                index: 0,
                value: 0xA5A5_5A5A,
            })
            .unwrap();
    }
    sim.execute(&MicroOp::Write {
        index: 0,
        value: 0xA5A5_5A5A,
    })
    .unwrap();
    assert_same_state(&sim, &batch, cfg);
    assert_same_state(&sim, &replay, cfg);
    assert_eq!(batch.profiler(), replay.profiler());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random mask-free bodies (writes, strided gates, vertical gates,
    /// moves that may be illegal under the masks) under every mask shape.
    #[test]
    fn prepared_replay_matches_batch(
        seeds in proptest::collection::vec(any::<(u8, u8, u8, u8, u8, u8, u8)>(), 1..48),
        mv in any::<(u8, u8, u8, u8)>(),
        shape in any::<(u8, u8, u8)>(),
    ) {
        let cfg = PimConfig::small().with_crossbars(32).with_rows(16);
        let mut body: Vec<MicroOp> = seeds
            .iter()
            .filter_map(|&(kind, a, b, c, d, e, f)| arbitrary_op(&cfg, (2 + kind % 3, a, b, c, d, e, f)))
            .collect();
        if mv.0 % 2 == 0 {
            let at = mv.1 as usize % (body.len() + 1);
            body.insert(at, MicroOp::Move(MoveOp {
                dist: [1, -1, 2, 16][mv.2 as usize % 4],
                row_src: mv.2 as u32 % 16,
                row_dst: mv.3 as u32 % 16,
                index_src: mv.3 % 32,
                index_dst: mv.1 % 32,
            }));
        }
        assert_prepared_replay_matches(&cfg, &replay_masks(&cfg, shape.0, shape.1, shape.2), body);
    }

    /// Routine-shaped bodies whose stores are overwritten before any read,
    /// replayed under every mask shape.
    #[test]
    fn prepared_replay_matches_batch_where_stores_are_dead(
        regs in proptest::collection::vec(0u8..8, 1..24),
        shape in any::<(u8, u8, u8)>(),
    ) {
        let cfg = PimConfig::small().with_crossbars(16).with_rows(32);
        let mut body = Vec::new();
        for &r in &regs {
            body.push(MicroOp::Write { index: r, value: 0x0F0F_F0F0 });
            body.push(MicroOp::LogicH(HLogic::init_reg(true, r, &cfg).unwrap()));
            body.push(MicroOp::LogicH(
                HLogic::parallel(GateKind::Nor, (r + 1) % 8, (r + 2) % 8, r, &cfg).unwrap(),
            ));
        }
        assert_prepared_replay_matches(&cfg, &replay_masks(&cfg, shape.0, shape.1, shape.2), body);
    }
}

#[test]
fn prepared_elision_plan_is_not_applied_under_partial_masks() {
    // The vertical store lands in row 9 and the whole-register INIT that
    // follows overwrites it — but only when the INIT covers row 9. Under a
    // row mask that excludes it the store must show.
    let cfg = PimConfig::small();
    let body = vec![
        MicroOp::LogicV {
            gate: VGate::Init0,
            row_in: 0,
            row_out: 9,
            index: 3,
        },
        MicroOp::LogicH(HLogic::init_reg(true, 3, &cfg).unwrap()),
    ];
    for rows in [
        RangeMask::dense(0, cfg.rows as u32).unwrap(),
        RangeMask::dense(0, 8).unwrap(),
    ] {
        let masks = [
            MicroOp::XbMask(RangeMask::dense(0, cfg.crossbars as u32).unwrap()),
            MicroOp::RowMask(rows),
        ];
        assert_prepared_replay_matches(&cfg, &masks, body.clone());
    }
}

#[test]
fn batch_prepared_for_another_geometry_is_never_trusted() {
    let tall = PimConfig::small(); // 64 rows
    let short = PimConfig::small().with_rows(8);
    let mut func = FuncBackend::new(short.clone()).unwrap();
    func.poke(0, 3, 1, 0x1111_2222);

    // Valid for the geometry it was prepared for, out of bounds here: the
    // replay is refused whole, like the same `execute_batch` would be.
    let escaping = PreparedBatch::new(
        vec![
            MicroOp::Write { index: 1, value: 7 },
            MicroOp::LogicV {
                gate: VGate::Init1,
                row_in: 0,
                row_out: 40,
                index: 1,
            },
        ],
        &tall,
    )
    .unwrap();
    assert!(!escaping.prepared_for(&short));
    let err = func.execute_prepared(&escaping).unwrap_err();
    assert!(matches!(
        err,
        pim_arch::ArchError::AddressOutOfBounds { .. }
    ));
    assert_eq!(func.peek(0, 3, 1), 0x1111_2222);
    assert_eq!(func.profiler(), &pim_sim::Profiler::new());

    // Valid in both: falls back to full validation and executes.
    let portable = PreparedBatch::new(vec![MicroOp::Write { index: 1, value: 7 }], &tall).unwrap();
    func.execute_prepared(&portable).unwrap();
    assert_eq!(func.peek(0, 3, 1), 7);
    assert_eq!(func.profiler().ops.write, 1);
}

#[test]
fn dead_store_elimination_preserves_final_state() {
    // 256 redundant init+nor rounds into one register: only the last
    // round's effect is observable, and cycles count all 512 ops.
    let cfg = PimConfig::small();
    let mut ops = Vec::new();
    for _ in 0..256 {
        ops.push(MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg).unwrap()));
        ops.push(MicroOp::LogicH(
            HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg).unwrap(),
        ));
    }
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    let mut func = FuncBackend::new(cfg.clone()).unwrap();
    sim.execute_batch(&ops).unwrap();
    func.execute_batch(&ops).unwrap();
    assert_same_state(&sim, &func, &cfg);
    assert_eq!(func.profiler().cycles, 512);
    // Registers 0 and 1 are zero, so NOR leaves all ones.
    assert_eq!(func.peek(0, 0, 2), u32::MAX);
}

#[test]
fn partial_masks_block_elision() {
    // A narrow write after a full-memory init: both must show, the write
    // only in the one cell it selects.
    let cfg = PimConfig::small();
    let ops = vec![
        MicroOp::LogicH(HLogic::init_reg(false, 3, &cfg).unwrap()),
        MicroOp::XbMask(RangeMask::single(1)),
        MicroOp::RowMask(RangeMask::single(5)),
        MicroOp::Write {
            index: 3,
            value: 0xDEAD_BEEF,
        },
    ];
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    let mut func = FuncBackend::new(cfg.clone()).unwrap();
    sim.execute_batch(&ops).unwrap();
    func.execute_batch(&ops).unwrap();
    assert_same_state(&sim, &func, &cfg);
    assert_eq!(func.peek(1, 5, 3), 0xDEAD_BEEF);
    assert_eq!(func.peek(0, 5, 3), 0);
}

#[test]
fn failed_batch_rolls_back() {
    let cfg = PimConfig::small();
    let mut func = FuncBackend::new(cfg.clone()).unwrap();
    let cycles0 = func.profiler().cycles;
    let err = func
        .execute_batch(&[
            MicroOp::XbMask(RangeMask::single(2)),
            MicroOp::Write {
                index: 99,
                value: 0,
            },
        ])
        .unwrap_err();
    assert!(matches!(
        err,
        pim_arch::ArchError::AddressOutOfBounds { .. }
    ));
    assert_eq!(func.profiler().cycles, cycles0);
    // Masks still cover the whole memory.
    func.execute(&MicroOp::Write { index: 0, value: 7 })
        .unwrap();
    assert_eq!(func.peek(0, 0, 0), 7);
    assert_eq!(func.peek(15, 63, 0), 7);
}

#[test]
fn batch_rejects_reads_before_executing() {
    let cfg = PimConfig::small();
    let mut func = FuncBackend::new(cfg).unwrap();
    let err = func
        .execute_batch(&[
            MicroOp::Write {
                index: 0,
                value: 0xFFFF_FFFF,
            },
            MicroOp::Read { index: 0 },
        ])
        .unwrap_err();
    assert!(matches!(err, pim_arch::ArchError::Protocol { .. }));
    // Nothing from the batch ran.
    assert_eq!(func.peek(0, 0, 0), 0);
}

#[test]
fn read_requires_single_masks() {
    let cfg = PimConfig::small();
    let mut func = FuncBackend::new(cfg).unwrap();
    let err = func.execute(&MicroOp::Read { index: 0 }).unwrap_err();
    assert!(matches!(err, pim_arch::ArchError::Protocol { .. }));
}

/// `AnyBackend` is a name for `PimSimulator`: the same stream through each
/// of the six `Backend` entry points ends in the same reads, cells, stored
/// masks and `Profiler` on both. Two refusals tell a forward from the trait
/// default it would otherwise fall back to — a batch with a bad operation
/// and a run with a row past the end change nothing on the simulator, where
/// the defaults (an `execute` loop, the run's expansion) apply what comes
/// before the flaw. A dropped `execute_prepared` or `move_rows` forward
/// costs only time.
#[test]
fn the_shim_is_the_simulator_through_every_entry_point() {
    let cfg = PimConfig::small().with_rows(96);
    let rows: Vec<u32> = (3..83).collect();
    let words: Vec<u32> = rows
        .iter()
        .map(|r| 0x9E37_79B9u32.wrapping_mul(r + 1))
        .collect();
    let mut past_end = rows.clone();
    past_end[40] = 96;
    let routine = PreparedBatch::new(
        vec![
            MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg).unwrap()),
            MicroOp::LogicH(HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg).unwrap()),
        ],
        &cfg,
    )
    .unwrap();
    let shift: Vec<MicroOp> = (0..40)
        .flat_map(|row| {
            [VGate::Init1, VGate::Not].map(|gate| MicroOp::LogicV {
                gate,
                row_in: row + 3,
                row_out: row + 50,
                index: 3,
            })
        })
        .collect();

    let drive = |chip: &mut dyn Backend| {
        let run = |rows, values| pim_arch::CellRun {
            reg: 1,
            rows,
            values,
        };
        let on_first_row = |chip: &mut dyn Backend| {
            let mask = MicroOp::RowMask(RangeMask::single(rows[0]));
            assert_eq!(chip.execute(&mask), Ok(None));
        };
        let mut reads = Vec::new();
        assert_eq!(chip.config(), &cfg);
        chip.execute(&MicroOp::XbMask(RangeMask::single(5)))
            .unwrap();
        on_first_row(chip);
        chip.access(&run(&rows, Some(&words)), &mut reads).unwrap();
        // The upload left the row mask on its last row; a run starts on its first.
        on_first_row(chip);
        let flawed = run(&past_end, Some(&[0; 80]));
        assert!(chip.access(&flawed, &mut reads).is_err());
        chip.execute_batch(&shift).unwrap();
        let dense = |start, stop| RangeMask::dense(start, stop).unwrap();
        chip.move_rows(&pim_arch::RowMove {
            src: 1,
            dst: 2,
            src_rows: dense(3, 43),
            dst_rows: dense(40, 80),
        })
        .unwrap();
        let flawed = [7, 99].map(|index| MicroOp::Write { index, value: 7 });
        assert!(chip.execute_batch(&flawed).is_err());
        chip.execute_prepared(&routine).unwrap();
        on_first_row(chip);
        chip.access(&run(&rows, None), &mut reads).unwrap();
        reads
    };
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    let mut shim = AnyBackend::new(BackendKind::Functional, cfg.clone()).unwrap();
    let want = drive(&mut sim);
    assert_eq!(want, words, "the read-back returns the upload");
    assert_eq!(drive(&mut shim), want);
    assert_eq!(shim.0.profiler(), sim.profiler());
    // A write under the final masks makes them visible in the image.
    let marker = MicroOp::Write {
        index: 4,
        value: 0xA5A5_5A5A,
    };
    sim.execute(&marker).unwrap();
    shim.execute(&marker).unwrap();
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                assert_eq!(
                    shim.0.peek(xb, row, reg),
                    sim.peek(xb, row, reg),
                    "xb {xb} row {row} reg {reg}"
                );
            }
        }
    }
    // Neither refusal left a mark: the flawed run's cells hold the first
    // upload, the flawed batch's first write never landed.
    assert_eq!(sim.peek(5, past_end[0] as usize, 1), words[0]);
    assert_eq!(sim.peek(5, rows[0] as usize, 7), 0);
    assert!(shim.0.strict(), "the chips that serve check the discipline");
    assert_eq!(BackendKind::Functional.name(), "func");
    assert_eq!(BackendKind::default().name(), "sim");
}

#[test]
fn odd_head_and_tail_row_segments_match() {
    // Row masks that start and stop on odd rows, and strides of 1 to 3.
    let cfg = PimConfig::small();
    for (start, stop, step) in [
        (1, 9, 1),
        (1, 1, 1),
        (2, 2, 1),
        (1, 9, 2),
        (0, 8, 2),
        (3, 9, 3),
    ] {
        let mask = RangeMask::new(start, stop, step).unwrap();
        let ops = vec![
            MicroOp::RowMask(mask),
            MicroOp::Write {
                index: 2,
                value: 0x5A5A_A5A5,
            },
            MicroOp::LogicH(HLogic::init_reg(true, 1, &cfg).unwrap()),
        ];
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        let mut func = FuncBackend::new(cfg.clone()).unwrap();
        for op in &ops {
            sim.execute(op).unwrap();
            func.execute(op).unwrap();
        }
        assert_same_state(&sim, &func, &cfg);
    }
}
