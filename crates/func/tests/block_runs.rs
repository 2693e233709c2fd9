//! The batch executor of the bit-accurate simulator applies runs of
//! micro-operations in block form: vertical `NOT`s that move a dense or
//! strided row set by a uniform shift (each behind its own `INIT1`, or bare
//! after one horizontal `INIT` of the destination rows — the two shapes
//! `MoveRows` lowers to), and single-row writes or reads that walk the rows
//! of one plane word. This suite feeds it random batches salted with such runs —
//! well-formed, cut short, interrupted and illegal ones — and holds the
//! batch entry points (`execute_batch`, `execute_reading`) equal to
//! op-by-op `execute`: cells, stored masks, `Profiler`, returned reads and
//! error values, with strict checking on and off, and against the
//! functional backend.
//!
//! Rows per crossbar default to 160 (two and a half plane words) and follow
//! `PIM_ORACLE_ROWS` when set; CI runs the suite a second time at 96.

use pim_arch::{ArchError, Backend, GateKind, HLogic, MicroOp, PimConfig, RangeMask, VGate};
use pim_func::{AnyBackend, BackendKind};
use pim_sim::Profiler;
use proptest::prelude::*;

const XBS: u32 = 4;
/// Registers the generated operations touch; register `REGS` takes the
/// marker write that makes the final masks visible.
const REGS: u8 = 4;

type Seed = (u8, u8, u8, u8, u8, u8, u8);

fn cfg() -> PimConfig {
    let rows = std::env::var("PIM_ORACLE_ROWS").map_or(160, |rows| {
        rows.parse().expect("PIM_ORACLE_ROWS must be a row count")
    });
    PimConfig::small()
        .with_crossbars(XBS as usize)
        .with_rows(rows)
}

fn single_row(row: i64) -> MicroOp {
    MicroOp::RowMask(RangeMask::single(row as u32))
}

/// An operation that belongs to no run: a mask, a broadcast write, a
/// horizontal `INIT1` or `NOT`, a lone vertical gate.
fn foreign(cfg: &PimConfig, (_, a, b, c, d, _, _): Seed) -> MicroOp {
    let rows = cfg.rows as u32;
    let (a32, b32) = (a as u32, b as u32);
    match d % 7 {
        0 => MicroOp::XbMask(RangeMask::single(a32 % XBS)),
        1 => MicroOp::XbMask(RangeMask::new(a32 % 2, 2 + a32 % 2, 2).unwrap()),
        2 => {
            let (start, step) = (a32 % rows, 1 + b32 % 3);
            let count = 1 + c as u32 % ((rows - 1 - start) / step + 1);
            MicroOp::RowMask(RangeMask::strided(start, count, step).unwrap())
        }
        3 => MicroOp::Write {
            index: a % REGS,
            value: u32::from_le_bytes([a, b, c, d]),
        },
        4 => MicroOp::LogicH(HLogic::init_reg(true, c % REGS, cfg).unwrap()),
        // In strict mode this fails unless its output register was just
        // initialized under a covering mask.
        5 => MicroOp::LogicH(
            HLogic::parallel(
                GateKind::Not,
                a % REGS,
                a % REGS,
                (a + 1 + c % 3) % REGS,
                cfg,
            )
            .unwrap(),
        ),
        // A vertical NOT outside any run: strict mode wants its output
        // row initialized.
        _ => MicroOp::LogicV {
            gate: [VGate::Init0, VGate::Init1, VGate::Not][a as usize % 3],
            row_in: (b32 + 1 + a32 % (rows - 1)) % rows,
            row_out: b32 % rows,
            index: c % REGS,
        },
    }
}

/// A candidate row-transfer run: `pairs` transfers from source row `s` to
/// `s + shift`, advancing by `step`, clipped to the geometry — every
/// vertical `NOT` behind the `INIT1` of its output row, or (`bare`) all of
/// them behind one horizontal `INIT` under the destination row mask. `flaw`
/// then breaks the run in the middle the ways a recogniser must notice, or
/// leaves an output of a bare run uninitialized.
fn transfer_run(cfg: &PimConfig, seed: Seed, ops: &mut Vec<MicroOp>) {
    let (kind, a, b, c, d, flaw, f) = seed;
    let rows = cfg.rows as i64;
    let bare = kind / 8 % 2 == 1;
    // Row by row, up or down, and the strides of a strided row set.
    let step = [1, -1, 1, -1, 1, -1, 2, -3, 4, 8][c as usize % 10];
    // Small shifts both ways (the overlapping cases, inside and outside
    // the interval that makes serial and simultaneous differ) and large.
    let shift = match b % 4 {
        0 => 1 + (b as i64 / 4) % 5,
        1 => -1 - (b as i64 / 4) % 5,
        2 => 1 + b as i64 % (rows - 1),
        _ => -1 - b as i64 % (rows - 1),
    };
    let reg = d % REGS;
    let mut s = a as i64 * 7 % rows;
    let pairs = [1, 2, 3, 70, 130][f as usize % 5];
    let in_rows = |row: i64| (0..rows).contains(&row);
    if bare && flaw % 8 != 5 {
        // The outputs of the unbroken run — all but the last with flaw 4.
        let fit = (0..pairs)
            .take_while(|k| in_rows(s + k * step) && in_rows(s + k * step + shift))
            .count() as i64;
        let set = fit - i64::from(flaw % 8 == 4);
        if set > 0 {
            let lowest = (s + shift).min(s + shift + (fit - 1) * step);
            let skipped = if step < 0 { fit - set } else { 0 };
            let outputs = RangeMask::strided(
                (lowest + skipped * step.abs()) as u32,
                set as u32,
                step.unsigned_abs() as u32,
            );
            ops.push(MicroOp::RowMask(outputs.unwrap()));
            ops.push(MicroOp::LogicH(HLogic::init_reg(true, reg, cfg).unwrap()));
        }
    }
    for k in 0..pairs {
        let (mut init, mut reg_k) = (s + shift, reg);
        if k == pairs / 2 {
            match flaw % 8 {
                0 => ops.push(foreign(cfg, seed)),
                1 => reg_k = (reg + 1) % REGS,
                2 => s += 2 * step, // row jump
                3 => init = s,      // the INIT1 prepares another row
                _ => {}
            }
        }
        if !in_rows(s) || !in_rows(s + shift) || !in_rows(init) {
            break;
        }
        if !bare {
            ops.push(MicroOp::LogicV {
                gate: VGate::Init1,
                row_in: s as u32,
                row_out: init as u32,
                index: reg_k,
            });
        }
        ops.push(MicroOp::LogicV {
            gate: VGate::Not,
            row_in: s as u32,
            row_out: (s + shift) as u32,
            index: reg_k,
        });
        s += step;
    }
}

/// A candidate upload (`read == false`) or read-back run: a crossbar mask,
/// then `cells` single-row accesses of one register walking up or down from
/// row `a`, broken in the middle by `flaw`. A read-back under a crossbar
/// mask that is not single violates the read protocol.
fn access_run(cfg: &PimConfig, seed: Seed, read: bool, ops: &mut Vec<MicroOp>) {
    let (_, a, b, c, d, flaw, f) = seed;
    let rows = cfg.rows as i64;
    let step = if c % 4 == 0 { -1 } else { 1 };
    let index = d % REGS;
    ops.push(match f % 8 {
        0 => MicroOp::XbMask(RangeMask::new(0, 2, 2).unwrap()),
        _ => MicroOp::XbMask(RangeMask::single(f as u32 % XBS)),
    });
    let mut row = a as i64 * 5 % rows;
    let cells = [1, 2, 5, 64, 100][b as usize % 5];
    for k in 0..cells {
        let mut index_k = index;
        if k == cells / 2 {
            match flaw % 8 {
                0 => ops.push(foreign(cfg, seed)),
                1 => index_k = (index + 1) % REGS,
                2 => row += 5 * step,           // row jump
                3 => row -= step,               // the previous cell again
                4 => ops.push(single_row(row)), // a mask without an access
                _ => {}
            }
        }
        if !(0..rows).contains(&row) {
            break;
        }
        ops.push(single_row(row));
        ops.push(match read ^ (k == cells / 2 && flaw % 8 == 5) {
            true => MicroOp::Read { index: index_k },
            false => MicroOp::Write {
                index: index_k,
                value: 0x9E37_79B9u32.wrapping_mul(k as u32 + a as u32),
            },
        });
        row += step;
    }
}

fn batch(cfg: &PimConfig, seeds: &[Seed]) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for &seed in seeds {
        match seed.0 % 8 {
            0 | 1 => ops.push(foreign(cfg, seed)),
            2..=4 => transfer_run(cfg, seed, &mut ops),
            5 => access_run(cfg, seed, false, &mut ops),
            _ => access_run(cfg, seed, true, &mut ops),
        }
    }
    ops
}

/// Distinct contents in every register the batches touch, so a skipped,
/// misplaced or complemented row shows.
fn setup(cfg: &PimConfig) -> Vec<MicroOp> {
    (0..5 * REGS as u32)
        .flat_map(|i| {
            let last = cfg.rows as u32 - 1;
            [
                MicroOp::RowMask(RangeMask::new(i % 5, last - (last - i % 5) % 5, 5).unwrap()),
                MicroOp::Write {
                    index: (i / 5) as u8,
                    value: 0x85EB_CA6Bu32.wrapping_mul(i + 1),
                },
            ]
        })
        .chain([MicroOp::RowMask(
            RangeMask::dense(0, cfg.rows as u32).unwrap(),
        )])
        .collect()
}

/// What one way of running a batch leaves behind: the outcome, the reads,
/// the cells (after a marker write under the final masks) and the profiler
/// before that write.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Result<(), ArchError>,
    reads: Vec<u32>,
    cells: Vec<u32>,
    profiler: Profiler,
}

fn outcome(
    mut chip: AnyBackend,
    run: impl FnOnce(&mut dyn Backend, &mut Vec<u32>) -> Result<(), ArchError>,
) -> Outcome {
    let cfg = chip.config().clone();
    chip.execute_batch(&setup(&cfg)).unwrap();
    let mut reads = Vec::new();
    let result = run(&mut chip, &mut reads);
    let profiler = chip.profiler().clone();
    chip.execute(&MicroOp::Write {
        index: REGS,
        value: 0xA5A5_5A5A,
    })
    .unwrap();
    let cells = (0..cfg.crossbars)
        .flat_map(|xb| (0..cfg.rows).map(move |row| (xb, row)))
        .flat_map(|(xb, row)| (0..=REGS as usize).map(move |reg| (xb, row, reg)))
        .map(|(xb, row, reg)| chip.peek(xb, row, reg))
        .collect();
    Outcome {
        result,
        reads,
        cells,
        profiler,
    }
}

fn serially(
    ops: &[MicroOp],
) -> impl FnOnce(&mut dyn Backend, &mut Vec<u32>) -> Result<(), ArchError> + '_ {
    move |chip, reads| {
        for op in ops {
            reads.extend(chip.execute(op)?);
        }
        Ok(())
    }
}

fn batched(
    ops: &[MicroOp],
) -> impl FnOnce(&mut dyn Backend, &mut Vec<u32>) -> Result<(), ArchError> + '_ {
    move |chip, reads| match ops.iter().any(|op| matches!(op, MicroOp::Read { .. })) {
        true => chip.execute_reading(ops, reads),
        false => chip.execute_batch(ops),
    }
}

fn sim(cfg: &PimConfig, strict: bool) -> AnyBackend {
    let mut sim = AnyBackend::new(BackendKind::BitAccurate, cfg.clone()).unwrap();
    sim.set_strict(strict);
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn batch_entry_points_equal_op_by_op_execution(
        seeds in proptest::collection::vec(any::<Seed>(), 1..10),
    ) {
        let cfg = cfg();
        let ops = batch(&cfg, &seeds);
        let func = || AnyBackend::new(BackendKind::Functional, cfg.clone()).unwrap();

        // Without strict checking only the read protocol can refuse an
        // operation. Op by op the stream then stops there; a batch is
        // refused whole and leaves the simulator as it was.
        let loose = outcome(sim(&cfg, false), serially(&ops));
        let untouched = outcome(sim(&cfg, false), |_, _| Ok(()));
        for strict in [false, true] {
            let batch = outcome(sim(&cfg, strict), batched(&ops));
            match &loose.result {
                Err(refusal) => {
                    prop_assert!(matches!(refusal, ArchError::Protocol { .. }));
                    prop_assert_eq!(&batch.result, &loose.result);
                    prop_assert!(batch.reads.is_empty());
                    prop_assert!(batch.cells == untouched.cells, "a refused batch changed cells or masks");
                    prop_assert_eq!(&batch.profiler, &untouched.profiler);
                }
                Ok(()) if !strict => prop_assert!(batch == loose, "batch and op-by-op diverge"),
                // A strict failure stops both at the same operation, with
                // the same cells, masks and reads; the batch was charged
                // whole when it was accepted.
                Ok(()) => {
                    let serial = outcome(sim(&cfg, true), serially(&ops));
                    prop_assert_eq!(&batch.result, &serial.result);
                    prop_assert_eq!(&batch.reads, &serial.reads);
                    prop_assert!(batch.cells == serial.cells, "strict batch and op-by-op diverge");
                    if serial.result.is_ok() {
                        prop_assert_eq!(&batch.profiler, &serial.profiler);
                        prop_assert!(serial == loose);
                    }
                }
            }
        }

        // The functional backend: the same reads, cells and counters both
        // ways; a stream it refuses stops at the refused operation.
        let func_serial = outcome(func(), serially(&ops));
        prop_assert!(func_serial == loose, "functional backend diverges from the simulator");
        if loose.result.is_ok() {
            prop_assert!(outcome(func(), batched(&ops)) == loose);
        }
    }
}
