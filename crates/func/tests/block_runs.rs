//! The bit-accurate simulator applies four kinds of runs in block form.
//!
//! Its batch executor applies moves that advance both rows by one (what
//! `Driver::execute_many` hands over for a run of `MoveWarps`) as one plane
//! copy. The first suite feeds `execute_batch` random batches salted with
//! such runs and with uploads — well-formed, cut short, interrupted and
//! illegal ones — and holds it equal to op-by-op `execute`: cells, stored
//! masks, `Profiler` and error values, with strict checking on and off, and
//! against the reference (`FuncBackend`).
//!
//! An upload or a read-back arrives as a run already (`Backend::access`),
//! and a run means the micro-operations it expands to. The second suite
//! holds the simulator's block form to that expansion and to the reference
//! (which keeps the trait default): cells, stored masks, `Profiler`,
//! returned reads and error values — and a run the block form refuses
//! changes nothing. A row move arrives whole too (`Backend::move_rows`),
//! and the third suite holds it to its expansion the same way, scratch
//! registers included.
//!
//! A cached routine replays gate by gate, in a loop specialised once per
//! batch to the width of the selection's word spans. The last suite
//! replays the routines the driver compiles, and a program of every plane
//! fill (`Write`, `INIT0`, `INIT1`, strided `INIT1`), under a selection of
//! every shape that loop and the fill tell apart and holds the result to
//! the reference:
//! cells of every register and `Profiler`; and a gate the batch does not
//! prove is still checked under strict mode, before it changes anything.
//!
//! Rows per crossbar default to 160 (two and a half plane words) and follow
//! `PIM_ORACLE_ROWS` when set; CI runs the suite a second time at 96.

use pim_arch::{
    ArchError, Backend, CellRun, ColAddr, GateKind, HLogic, MicroOp, MoveOp, PimConfig,
    PreparedBatch, RangeMask, RowMove, VGate,
};
use pim_driver::{routines, ParallelismMode};
use pim_func::FuncBackend;
use pim_isa::{DType, RegOp};
use pim_sim::{PimSimulator, Profiler};
use proptest::prelude::*;

const XBS: u32 = 4;
/// Registers the generated operations touch; register `REGS` takes the
/// marker write that makes the final masks visible.
const REGS: u8 = 4;

type Seed = (u8, u8, u8, u8, u8, u8, u8);
/// One way of running something on a chip, appending what it reads.
type Act<'a> = &'a dyn Fn(&mut dyn Backend, &mut Vec<u32>) -> Result<(), ArchError>;

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

/// A candidate run of moves as a batch carries it: a crossbar mask the
/// moves are legal under, then `moves` moves of one register pair whose
/// rows both advance by one from rows that need not start a plane word,
/// clipped to the geometry — broken in the middle by `flaw`: an operation
/// of another kind, another register, another distance, a row jump, the
/// previous move again.
fn move_run(cfg: &PimConfig, seed: Seed, ops: &mut Vec<MicroOp>) {
    let (_, a, b, c, d, flaw, f) = seed;
    let rows = cfg.rows;
    // (sources, distance, another legal distance)
    let (xb_mask, dist, other) = match c % 4 {
        0 => (RangeMask::dense(0, 2).unwrap(), 2, 2),
        1 => (RangeMask::dense(2, XBS).unwrap(), -2, -2),
        _ => {
            let xb = a as u32 % XBS;
            let dists: Vec<i32> = (-(xb as i32)..(XBS - xb) as i32)
                .filter(|&d| d != 0)
                .collect();
            let pick = |i: u8| dists[i as usize % dists.len()];
            (RangeMask::single(xb), pick(b), pick(b / 3 + 1))
        }
    };
    ops.push(MicroOp::XbMask(xb_mask));
    let moves = [1, 2, 3, 64, 100][f as usize % 5];
    let (index_src, index_dst) = (d % REGS, d / 4 % REGS);
    let (mut row_src, mut row_dst) = (a as usize * 7 % rows, b as usize * 5 % rows);
    for k in 0..moves {
        let mut mv = MoveOp {
            dist,
            row_src: row_src as u32,
            row_dst: row_dst as u32,
            index_src,
            index_dst,
        };
        if k == moves / 2 {
            match flaw % 8 {
                // An operation that keeps the crossbar mask.
                0 => ops.push(match foreign(cfg, seed) {
                    MicroOp::XbMask(_) => MicroOp::Write {
                        index: c % REGS,
                        value: 7,
                    },
                    op => op,
                }),
                1 => mv.index_dst = (index_dst + 1) % REGS,
                2 => mv.dist = other,
                3 => mv.row_src = (row_src as u32 + 2) % rows as u32,
                4 => mv.row_dst = row_dst.saturating_sub(1) as u32,
                _ => {}
            }
        }
        if row_src.max(row_dst) >= rows {
            break;
        }
        ops.push(MicroOp::Move(mv));
        (row_src, row_dst) = (row_src + 1, row_dst + 1);
    }
}

/// A candidate upload as a batch carries it: a crossbar mask, then `cells`
/// single-row writes of one register walking up or down from row `a`,
/// broken in the middle by `flaw`.
fn upload(cfg: &PimConfig, seed: Seed, ops: &mut Vec<MicroOp>) {
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
        if k == cells / 2 && (0..rows).contains(&row) {
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
        ops.push(MicroOp::Write {
            index: index_k,
            value: 0x9E37_79B9u32.wrapping_mul(k as u32 + a as u32),
        });
        row += step;
    }
}

fn batch(cfg: &PimConfig, seeds: &[Seed]) -> Vec<MicroOp> {
    let mut ops = Vec::new();
    for &seed in seeds {
        match seed.0 % 8 {
            0 | 1 => ops.push(foreign(cfg, seed)),
            2..=4 => move_run(cfg, seed, &mut ops),
            _ => upload(cfg, seed, &mut ops),
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

/// What the suites inspect and seed on either implementation.
trait Chip: Backend {
    fn profiler(&self) -> &Profiler;
    fn peek(&self, xb: usize, row: usize, reg: usize) -> u32;
    fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32);
}

impl Chip for PimSimulator {
    fn profiler(&self) -> &Profiler {
        self.profiler()
    }
    fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        self.peek(xb, row, reg)
    }
    fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        self.poke(xb, row, reg, value)
    }
}

impl Chip for FuncBackend {
    fn profiler(&self) -> &Profiler {
        self.profiler()
    }
    fn peek(&self, xb: usize, row: usize, reg: usize) -> u32 {
        self.peek(xb, row, reg)
    }
    fn poke(&mut self, xb: usize, row: usize, reg: usize, value: u32) {
        self.poke(xb, row, reg, value)
    }
}

fn outcome(
    mut chip: impl Chip,
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
    move |chip, _| chip.execute_batch(ops)
}

fn sim(cfg: &PimConfig, strict: bool) -> PimSimulator {
    let mut sim = PimSimulator::new(cfg.clone()).unwrap();
    sim.set_strict(strict);
    sim
}

/// What `act` leaves behind on `chip` once it holds `masks`.
fn under_masks(chip: impl Chip, masks: &[MicroOp], act: Act<'_>) -> Outcome {
    outcome(chip, |chip, reads| {
        chip.execute_batch(masks).unwrap();
        act(chip, reads)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn batch_entry_points_equal_op_by_op_execution(
        seeds in proptest::collection::vec(any::<Seed>(), 1..10),
    ) {
        let cfg = cfg();
        let ops = batch(&cfg, &seeds);
        let func = || FuncBackend::new(cfg.clone()).unwrap();

        // Without strict checking nothing refuses a valid operation.
        let loose = outcome(sim(&cfg, false), serially(&ops));
        prop_assert_eq!(&loose.result, &Ok(()));
        prop_assert!(outcome(sim(&cfg, false), batched(&ops)) == loose, "batch and op-by-op diverge");
        // A strict failure stops both at the same operation, with the same
        // cells and masks; the batch was charged whole when it was accepted.
        let batch = outcome(sim(&cfg, true), batched(&ops));
        let serial = outcome(sim(&cfg, true), serially(&ops));
        prop_assert_eq!(&batch.result, &serial.result);
        prop_assert!(batch.cells == serial.cells, "strict batch and op-by-op diverge");
        if serial.result.is_ok() {
            prop_assert_eq!(&batch.profiler, &serial.profiler);
            prop_assert!(serial == loose);
        }

        // The reference: the same cells and counters both ways.
        prop_assert!(outcome(func(), serially(&ops)) == loose, "the reference diverges from the simulator");
        prop_assert!(outcome(func(), batched(&ops)) == loose);
    }

    /// A run is its expansion. Over four geometries, either kind, row lists
    /// stitched from segments (up, down, strided, a row repeated, plane
    /// words crossed back and forth, a single cell, one row out of range),
    /// a register or a value count that is wrong now and then, and stored
    /// masks that keep the run's contract (one crossbar or several, the row
    /// mask on `rows[0]`) or break it: the simulator's `access`, the
    /// expansion executed op by op on a second simulator, and the
    /// reference (the trait default) return the same `Result` and
    /// the same words and leave the same cells, stored masks and
    /// `Profiler`. A run the block form refuses changed nothing.
    #[test]
    fn a_run_is_its_expansion(
        segments in proptest::collection::vec(any::<(u8, u8, u8)>(), 1..5),
        (geometry, reg, read, flaw, at) in any::<(u8, u8, bool, u8, u8)>(),
        (xb_shape, row_shape, salt) in any::<(u8, u8, u32)>(),
    ) {
        let (xbs, rows) = [(XBS, cfg().rows as u32), (1, 64), (2, 96), (3, 200)][geometry as usize % 4];
        let cfg = PimConfig::small().with_crossbars(xbs as usize).with_rows(rows as usize);

        let mut run_rows = Vec::new();
        for &(start, len, style) in &segments {
            let start = i64::from(start) * 3 % i64::from(rows);
            let len = [1, 1, 2, 5, 40, 70, 130][len as usize % 7];
            let step = [1, -1, 0, 2, -3, 7, 64, -64][style as usize % 8];
            let walk = (0..len).map(|k| start + k * step);
            run_rows.extend(walk.take_while(|row| (0..i64::from(rows)).contains(row)).map(|row| row as u32));
        }
        if flaw % 8 == 0 {
            let at = at as usize % run_rows.len();
            run_rows[at] = rows + u32::from(at as u8 % 3);
        }
        let mut values: Vec<u32> = (0..run_rows.len() as u32)
            .map(|i| 0x9E37_79B9u32.wrapping_mul(i ^ salt))
            .collect();
        match flaw % 16 {
            1 => values.truncate(values.len() - 1),
            9 => values.push(salt),
            _ => {}
        }
        let run = CellRun {
            reg: if flaw % 16 == 2 { cfg.regs as u8 } else { reg % REGS },
            rows: &run_rows,
            values: (!read).then_some(&values[..]),
        };

        let lead = run_rows[0].min(rows - 1);
        let xb_mask = match xb_shape % 8 {
            0 => RangeMask::dense(0, xbs).unwrap(),
            1 => RangeMask::new(0, (xbs - 1) / 2 * 2, 2).unwrap(),
            shape => RangeMask::single(u32::from(shape) % xbs),
        };
        let row_mask = match row_shape % 8 {
            0 => RangeMask::single((lead + 1 + u32::from(row_shape)) % rows),
            1 => RangeMask::dense(0, rows).unwrap(),
            2 => RangeMask::strided(lead % 4, 1 + (rows - 1 - lead % 4) / 4, 4).unwrap(),
            _ => RangeMask::single(lead),
        };
        let kept = row_mask == RangeMask::single(run_rows[0]);
        let masks = [MicroOp::XbMask(xb_mask), MicroOp::RowMask(row_mask)];

        let sim = || PimSimulator::new(cfg.clone()).unwrap();
        let block = under_masks(sim(), &masks, &|chip, reads| chip.access(&run, reads));
        let serial = under_masks(sim(), &masks, &|chip, reads| run.expand(chip, reads));
        let func = under_masks(FuncBackend::new(cfg.clone()).unwrap(), &masks, &|chip, reads| {
            chip.access(&run, reads)
        });
        prop_assert!(func == serial, "the reference diverges from the expansion");
        prop_assert_eq!(&block.result, &serial.result);
        if serial.result.is_ok() || !kept {
            prop_assert!(block == serial, "block form and expansion diverge");
        } else {
            let untouched = under_masks(sim(), &masks, &|_, _| Ok(()));
            prop_assert!(block.reads.is_empty());
            prop_assert!(block.cells == untouched.cells, "a refused run changed cells or masks");
            prop_assert_eq!(&block.profiler, &untouched.profiler);
        }
        let addressed = run_rows.len() == values.len() || read;
        if read && addressed && flaw % 16 != 2 && !(xb_mask.is_single() && row_mask.is_single()) {
            prop_assert!(matches!(block.result, Err(ArchError::Protocol { .. })), "{:?}", block.result);
        }
    }
}

/// What a move left on `chip`: its result, the `Profiler`, then every cell
/// of every register once a marker write has gone out under the final
/// masks.
fn settled(
    mut chip: impl Chip,
    result: Result<(), ArchError>,
) -> (Result<(), ArchError>, Profiler, Vec<u32>) {
    let profiler = chip.profiler().clone();
    chip.execute(&MicroOp::Write {
        index: REGS,
        value: 0xA5A5_5A5A,
    })
    .unwrap();
    (result, profiler, image(&chip))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A row move is its expansion. Over dense and strided row sets,
    /// disjoint and overlapping, up and down, into another register and
    /// back into the source one, under dense, strided and single crossbar
    /// masks — and now and then sets of unequal steps or lengths, identical
    /// sets, a row past the last, or a scratch register as source or
    /// destination (moves the block form leaves to the expansion, or that
    /// fail): the simulator's `move_rows`, the expansion handed to
    /// `execute_batch` (the trait default) on a second simulator, and the
    /// reference return the same `Result` and leave the same cells of every
    /// register, scratch ones included, the same stored masks and the same
    /// `Profiler`, with strict checking on — and so does the expansion op
    /// by op, wherever it runs through.
    #[test]
    fn a_row_move_is_its_expansion(
        (start, shift, count, step) in any::<(u8, u8, u8, u8)>(),
        (regs, flaw, xb_shape, far) in any::<(u8, u8, u8, u16)>(),
    ) {
        let cfg = cfg();
        let rows = cfg.rows as u32;
        let step = [1, 1, 2, 3, 8][step as usize % 5];
        let count = [1, 2, 5, 40, 70, rows][count as usize % 6].min((rows - 1) / step + 1);
        let room = rows - (count - 1) * step;
        let src_start = u32::from(start) % room;
        // Near the source (overlapping when the shift is a multiple of the
        // step), or anywhere.
        let dst_start = match shift % 4 {
            0 => src_start + 1 + u32::from(shift / 4) % 4,
            1 => src_start.saturating_sub(1 + u32::from(shift / 4) % 4),
            _ => u32::from(far) % room,
        }
        .min(room - 1);
        let span = |start, count, step| RangeMask::strided(start, count, step).unwrap();
        let (mut src_rows, mut dst_rows) = (span(src_start, count, step), span(dst_start, count, step));
        let (t1, t2) = RowMove::scratch(&cfg);
        let (mut src, mut dst) = (regs % REGS, if regs % 3 == 0 { regs % REGS } else { regs / 4 % REGS });
        match flaw % 16 {
            0 => dst_rows = span(dst_start.min(rows - 1 - (count - 1) * (step + 1) % rows), count, step + 1),
            1 => dst_rows = src_rows,
            2 if count > 1 => src_rows = span(src_start, count - 1, step),
            3 => src_rows = span(rows - 1, 2, 1),
            4 => src = t1,
            5 => dst = t2,
            6 => src = t2,
            _ => {}
        }
        let mv = RowMove { src, dst, src_rows, dst_rows };
        let xb_mask = match xb_shape % 5 {
            0 => RangeMask::dense(0, XBS).unwrap(),
            1 => RangeMask::strided(0, 2, 2).unwrap(),
            2 => RangeMask::strided(1, 2, 2).unwrap(),
            3 => RangeMask::dense(1, 3).unwrap(),
            _ => RangeMask::single(u32::from(xb_shape) % XBS),
        };
        let all_rows = RangeMask::dense(0, rows).unwrap();
        let expansion = || {
            let mut ops = Vec::new();
            mv.expand(&cfg, &mut ops).map(|()| ops)
        };

        let mut chip = seeded(sim(&cfg, true), xb_mask, all_rows);
        let result = chip.move_rows(&mv);
        let block = settled(chip, result);
        let mut chip = seeded(sim(&cfg, true), xb_mask, all_rows);
        let result = expansion().and_then(|ops| chip.execute_batch(&ops));
        let batched = settled(chip, result);
        let mut chip = seeded(FuncBackend::new(cfg.clone()).unwrap(), xb_mask, all_rows);
        let result = chip.move_rows(&mv);
        let reference = settled(chip, result);
        prop_assert!(reference == batched, "the reference diverges from the expansion: {:?}", mv);
        prop_assert_eq!(&block.0, &batched.0, "{:?}", mv);
        prop_assert!(block == batched, "block form and expansion diverge: {:?}", mv);
        if batched.0.is_ok() {
            let mut chip = seeded(sim(&cfg, true), xb_mask, all_rows);
            let result = expansion().and_then(|ops| ops.iter().try_for_each(|op| chip.execute(op).map(drop)));
            prop_assert!(settled(chip, result) == batched, "op by op diverges: {:?}", mv);
        }
    }
}

/// Every selection shape prepared replay tells apart, as `(what, chip,
/// crossbar mask, row mask)`: word spans of 1, 2, 4 and 8 words (the
/// fixed-width bodies) and of other widths (the slice body), each with one
/// start and with several — and a wide span, strided rows and crossbars, a
/// single row. The first six follow `PIM_ORACLE_ROWS`.
fn replay_shapes() -> Vec<(&'static str, PimConfig, RangeMask, RangeMask)> {
    let rows = cfg().rows as u32;
    let chip = |xbs: usize, rows: usize| PimConfig::small().with_crossbars(xbs).with_rows(rows);
    let dense = |start, stop| RangeMask::dense(start, stop).unwrap();
    let strided = |start, count, step| RangeMask::strided(start, count, step).unwrap();
    vec![
        ("one word", cfg(), RangeMask::single(1), dense(3, 40)),
        (
            "a single row",
            cfg(),
            RangeMask::single(XBS - 1),
            RangeMask::single(rows - 1),
        ),
        ("the whole chip", cfg(), dense(0, XBS), dense(0, rows)),
        (
            "partial rows on several crossbars",
            cfg(),
            dense(0, XBS),
            dense(10, 60),
        ),
        (
            "strided rows",
            cfg(),
            dense(1, 3),
            strided(1, (rows - 1) / 3, 3),
        ),
        ("strided crossbars", cfg(), strided(0, 2, 2), dense(0, rows)),
        (
            "merged spans of 2 words",
            chip(8, 64),
            dense(0, 2),
            dense(0, 64),
        ),
        (
            "merged spans of 4 words",
            chip(8, 64),
            dense(2, 6),
            dense(0, 64),
        ),
        (
            "merged spans of 8 words",
            chip(8, 64),
            dense(0, 8),
            dense(0, 64),
        ),
        (
            "1 word on strided crossbars",
            chip(8, 64),
            strided(1, 4, 2),
            dense(0, 64),
        ),
        (
            "2 words on several crossbars",
            chip(4, 512),
            dense(0, 4),
            dense(0, 128),
        ),
        (
            "4 words on several crossbars",
            chip(4, 512),
            dense(1, 4),
            dense(64, 320),
        ),
        (
            "8 words on strided crossbars",
            chip(4, 512),
            strided(0, 2, 2),
            dense(0, 512),
        ),
        (
            "5 words of strided rows",
            chip(4, 512),
            dense(0, 4),
            strided(100, 86, 3),
        ),
        (
            "a wide span: 16 x 512",
            chip(16, 512),
            dense(0, 16),
            dense(0, 512),
        ),
    ]
}

/// `chip` with distinct contents in every cell, under the two masks.
fn seeded<C: Chip>(mut chip: C, xb_mask: RangeMask, row_mask: RangeMask) -> C {
    let cfg = chip.config().clone();
    for (xb, row, reg) in every_cell(&cfg) {
        let at = ((xb * cfg.rows + row) * cfg.regs + reg) as u32;
        chip.poke(
            xb,
            row,
            reg,
            0x9E37_79B9u32.wrapping_mul(at + 1).rotate_left(at % 32),
        );
    }
    chip.execute_batch(&[MicroOp::XbMask(xb_mask), MicroOp::RowMask(row_mask)])
        .unwrap();
    chip
}

fn every_cell(cfg: &PimConfig) -> impl Iterator<Item = (usize, usize, usize)> {
    let (rows, regs) = (cfg.rows, cfg.regs);
    (0..cfg.crossbars)
        .flat_map(move |xb| (0..rows).flat_map(move |row| (0..regs).map(move |reg| (xb, row, reg))))
}

/// Every register of every row of every crossbar.
fn image(chip: &impl Chip) -> Vec<u32> {
    every_cell(chip.config())
        .map(|(xb, row, reg)| chip.peek(xb, row, reg))
        .collect()
}

/// `r2 = r0 op r1` as the driver's routine cache holds it.
fn routine(cfg: &PimConfig, op: RegOp, dtype: DType) -> PreparedBatch {
    let routine = routines::compile_rtype(cfg, ParallelismMode::BitSerial, op, dtype, 2, &[0, 1]);
    routine.unwrap().prepare(cfg).unwrap().batch
}

/// Every kind of plane fill between `NOR` gates that read what it left: a
/// whole-register `Write`, a whole-register `INIT0` and `INIT1`, and an
/// `INIT1` of every second partition (16 gates, two planes apart) under a
/// strided `NOR` of as many gates.
fn fills(cfg: &PimConfig) -> PreparedBatch {
    let col = ColAddr::new;
    let op = |op: Result<HLogic, ArchError>| MicroOp::LogicH(op.unwrap());
    let init = |value, reg| op(HLogic::init_reg(value, reg, cfg));
    let nor = |a, b, out| op(HLogic::serial(GateKind::Nor, a, b, out, cfg));
    let every_second = |gate, a, b| op(HLogic::strided(gate, a, b, col(1, 6), 31, 2, cfg));
    let ops = vec![
        init(true, 4),
        nor(col(3, 1), col(9, 0), col(0, 4)),
        MicroOp::Write {
            index: 3,
            value: 0x5A0F_C396,
        },
        nor(col(5, 3), col(9, 0), col(5, 4)),
        init(false, 5),
        nor(col(2, 5), col(5, 3), col(6, 4)),
        init(true, 7),
        nor(col(1, 3), col(6, 4), col(3, 7)),
        every_second(GateKind::Init1, col(1, 6), col(1, 6)),
        every_second(GateKind::Nor, col(0, 3), col(0, 7)),
        nor(col(3, 3), col(3, 6), col(4, 7)),
    ];
    PreparedBatch::new(ops, cfg).unwrap()
}

/// The routines of int add / mul / `<` and fp add / mul, and [`fills`],
/// replayed by the simulator (strict on and off) under every selection
/// shape, leave the cells of every register and the `Profiler` the
/// reference leaves.
#[test]
fn prepared_replay_matches_the_reference_on_every_selection_shape() {
    let programs = [
        (RegOp::Add, DType::Int32),
        (RegOp::Mul, DType::Int32),
        (RegOp::Lt, DType::Int32),
        (RegOp::Add, DType::Float32),
        (RegOp::Mul, DType::Float32),
    ];
    for (what, cfg, xb_mask, row_mask) in replay_shapes() {
        let start = seeded(sim(&cfg, true), xb_mask, row_mask);
        let routines = programs
            .iter()
            .map(|&(op, dtype)| (format!("{op} {dtype}"), routine(&cfg, op, dtype)));
        for (name, batch) in routines.chain([("fills".to_string(), fills(&cfg))]) {
            let reference = FuncBackend::new(cfg.clone()).unwrap();
            let mut reference = seeded(reference, xb_mask, row_mask);
            reference.execute_prepared(&batch).unwrap();
            let cells = image(&reference);
            for strict in [true, false] {
                let mut chip = start.clone();
                chip.set_strict(strict);
                chip.execute_prepared(&batch).unwrap();
                let case = format!("{what}: {name}, strict {strict}");
                assert!(image(&chip) == cells, "{case}: cells differ");
                assert_eq!(chip.profiler(), reference.profiler(), "{case}");
            }
        }
    }
}

/// [`seeded`], with register `reg` holding 1 in every cell but bit `part`
/// of the last row the masks select in the last crossbar they select.
fn holed<C: Chip>(chip: C, xb_mask: RangeMask, row_mask: RangeMask, reg: u8, part: u8) -> C {
    let mut chip = seeded(chip, xb_mask, row_mask);
    let cfg = chip.config().clone();
    for (xb, row, _) in every_cell(&cfg).filter(|&(.., at)| at == reg as usize) {
        chip.poke(xb, row, reg as usize, u32::MAX);
    }
    let (xb, row) = (xb_mask.stop() as usize, row_mask.stop() as usize);
    chip.poke(xb, row, reg as usize, !(1 << part));
    chip
}

/// Under strict checking, a `NOR` the batch does not prove (no `INIT1` of
/// the batch set its output) is checked when its turn comes, between two
/// routines' runs of proved gates: under every selection shape the replay
/// stops there with the error the op-by-op path gives, naming the row of
/// the one selected output cell that holds 0, with every operation before
/// it applied and none after.
#[test]
fn an_unproved_gate_is_checked_between_replayed_runs() {
    let (reg, part) = (5, 7);
    for (what, cfg, xb_mask, row_mask) in replay_shapes() {
        let col = |reg| ColAddr::new(part, reg);
        let nor = HLogic::serial(GateKind::Nor, col(0), col(1), col(reg), &cfg).unwrap();
        let before = routine(&cfg, RegOp::Add, DType::Int32);
        let after = routine(&cfg, RegOp::Mul, DType::Float32);
        let ops: Vec<MicroOp> = (before.ops().iter().cloned())
            .chain([MicroOp::LogicH(nor)])
            .chain(after.ops().iter().cloned())
            .collect();
        let batch = PreparedBatch::new(ops.clone(), &cfg).unwrap();
        let refused = Err(ArchError::Protocol {
            reason: format!(
                "stateful Nor gate in row {} writes to partition bits {:#010x} of register {reg} \
                 that were not initialized to 1",
                row_mask.stop(),
                1u32 << part
            ),
        });

        let mut replay = holed(sim(&cfg, true), xb_mask, row_mask, reg, part);
        assert_eq!(replay.execute_prepared(&batch), refused, "{what}");
        let mut serial = holed(sim(&cfg, true), xb_mask, row_mask, reg, part);
        let stepped = ops.iter().try_for_each(|op| serial.execute(op).map(drop));
        assert_eq!(stepped, refused, "{what}: op by op");
        let reference = FuncBackend::new(cfg.clone()).unwrap();
        let mut reference = holed(reference, xb_mask, row_mask, reg, part);
        reference.execute_prepared(&before).unwrap();
        let cells = image(&replay);
        assert!(
            cells == image(&serial),
            "{what}: replay and op by op diverge"
        );
        assert!(
            cells == image(&reference),
            "{what}: not exactly the operations before"
        );
    }
}
