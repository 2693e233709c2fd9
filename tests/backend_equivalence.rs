//! The differential oracle at the driver layer. Every chip in the stack
//! runs one engine, `PimSimulator`; `pim-func`'s cell-by-cell `FuncBackend`
//! is the independent reference it is held to. So the two meet here, below
//! `Device`: the same `Instruction` stream through `Driver::execute_many`
//! on a `Driver<PimSimulator>` (strict checking on) and on a
//! `Driver<FuncBackend>` must return the same words and leave the same
//! cells, the same `issued()` and the same `Profiler`. Seven programs — the
//! fused plans the serving layer emits where a plan exists
//! (`RequestPlan::into_instrs`), hand-placed `RType` / `MoveRows` /
//! `MoveWarps` / `Write` / `Read` streams otherwise — and one proptest over
//! every `RType` that `Instruction::validate` accepts. (One chip against
//! clusters of chips is `tests/cluster_equivalence.rs`.)

use proptest::prelude::*;
use pypim::arch::{PimConfig, RangeMask};
use pypim::driver::Driver;
use pypim::func::FuncBackend;
use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::serve::{ClusterClient, DeviceServeExt, ServeConfig};
use pypim::sim::PimSimulator;
use pypim::{Device, Tensor};

/// The chip geometry under test: 16 crossbars x 64 rows, or
/// `PIM_ORACLE_ROWS` rows when that is set. CI runs the suite a second
/// time at 96 rows — not a multiple of the engine's 64-row plane words, so
/// every crossbar's planes end in a partly used word and the kernels'
/// handling of it is held against the reference.
fn chip() -> PimConfig {
    let rows = std::env::var("PIM_ORACLE_ROWS")
        .map(|rows| rows.parse().expect("PIM_ORACLE_ROWS must be a row count"));
    PimConfig::small().with_rows(rows.unwrap_or(64))
}

/// Runs `stream` on the engine and on the reference, holds everything
/// observable equal, and returns the words the stream read.
fn assert_engines_agree(cfg: &PimConfig, stream: &[Instruction]) -> Vec<u32> {
    let mut engine = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let mut reference = Driver::new(FuncBackend::new(cfg.clone()).unwrap());
    assert!(engine.backend().strict());
    let (mut got, mut want) = (Vec::new(), Vec::new());
    engine.execute_many(stream, &mut got).unwrap();
    reference.execute_many(stream, &mut want).unwrap();
    assert_same_chips(&engine, &reference);
    assert_eq!(got, want, "read words diverge");
    got
}

fn assert_same_chips(engine: &Driver<PimSimulator>, reference: &Driver<FuncBackend>) {
    let cfg = engine.config();
    assert_eq!(engine.issued(), reference.issued(), "issued cycles diverge");
    assert_eq!(
        engine.backend().profiler(),
        reference.backend().profiler(),
        "profiler counters diverge"
    );
    for xb in 0..cfg.crossbars {
        for row in 0..cfg.rows {
            for reg in 0..cfg.regs {
                assert_eq!(
                    engine.backend().peek(xb, row, reg),
                    reference.backend().peek(xb, row, reg),
                    "cell mismatch at xb {xb} row {row} reg {reg}"
                );
            }
        }
    }
}

/// A session whose window is the whole of a fresh `cfg` chip: its plans
/// are instruction streams addressed to that chip.
fn planner(cfg: &PimConfig) -> ClusterClient {
    let gateway = Device::new(cfg.clone()).unwrap().serve(ServeConfig {
        session_warps: cfg.crossbars as u32,
        ..ServeConfig::default()
    });
    gateway.session().unwrap()
}

fn reads(t: &Tensor) -> impl Iterator<Item = Instruction> {
    let locs = t.element_locs().into_iter();
    locs.map(|(warp, row, reg)| Instruction::Read { reg, warp, row })
}

/// Element `i` of a hand-placed vector is thread `i`: warp `i / rows`, row
/// `i % rows`.
fn cell(cfg: &PimConfig, i: usize) -> (u32, u32) {
    ((i / cfg.rows) as u32, (i % cfg.rows) as u32)
}

fn upload<'a>(
    cfg: &'a PimConfig,
    reg: u8,
    words: &'a [u32],
) -> impl Iterator<Item = Instruction> + 'a {
    words.iter().enumerate().map(move |(i, &value)| {
        let (warp, row) = cell(cfg, i);
        Instruction::Write {
            reg,
            value,
            target: ThreadRange::single(warp, row),
        }
    })
}

fn download(cfg: &PimConfig, reg: u8, n: usize) -> impl Iterator<Item = Instruction> + '_ {
    (0..n).map(move |i| {
        let (warp, row) = cell(cfg, i);
        Instruction::Read { reg, warp, row }
    })
}

/// The first `n` threads: the whole warps, then the head of the next one.
fn threads(cfg: &PimConfig, n: usize) -> Vec<ThreadRange> {
    let (whole, tail) = ((n / cfg.rows) as u32, (n % cfg.rows) as u32);
    let all_rows = RangeMask::dense(0, cfg.rows as u32).unwrap();
    let mut ranges = Vec::new();
    if whole > 0 {
        ranges.push(ThreadRange::new(
            RangeMask::dense(0, whole).unwrap(),
            all_rows,
        ));
    }
    if tail > 0 {
        let rows = RangeMask::dense(0, tail).unwrap();
        ranges.push(ThreadRange::new(RangeMask::single(whole), rows));
    }
    ranges
}

/// `dst = op(srcs)` over the given threads.
fn rtype(
    over: &[ThreadRange],
    op: RegOp,
    dtype: DType,
    dst: u8,
    srcs: [u8; 3],
) -> Vec<Instruction> {
    let instr = |&target| Instruction::RType {
        op,
        dtype,
        dst,
        srcs,
        target,
    };
    over.iter().map(instr).collect()
}

fn fill(over: &[ThreadRange], reg: u8, value: u32) -> Vec<Instruction> {
    let instr = |&target| Instruction::Write { reg, value, target };
    over.iter().map(instr).collect()
}

fn float_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 7 {
            0 => 0.1 + i as f32,
            1 => -3.75e-3 * i as f32,
            2 => 1.0e-40, // subnormal
            3 => 3.4e37,
            4 => -0.0,
            5 => -7.25e-9 * i as f32,
            _ => (i as f32).sin() * 100.0,
        })
        .collect()
}

fn int_inputs(n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| (i as i32).wrapping_mul(0x9E37_79B9u32 as i32) ^ (i as i32) << 7)
        .collect()
}

fn int_words(n: usize) -> Vec<u32> {
    int_inputs(n).into_iter().map(|v| v as u32).collect()
}

#[test]
fn arithmetic_chain_matches_across_backends() {
    let cfg = chip();
    let client = planner(&cfg);
    let mut plan = client.plan();
    let a = plan.upload_f32(&float_inputs(300)).unwrap();
    let b = plan.full_f32(300, 1.0625).unwrap();
    let ab = plan.mul(&a, &b).unwrap();
    let z = plan.add(&ab, &a).unwrap();
    let z = plan.binary(RegOp::Sub, &z, &b).unwrap();
    let d = plan.binary(RegOp::Div, &z, &b).unwrap();
    let mut stream = plan.into_instrs();
    stream.extend(reads(&d));
    let got = assert_engines_agree(&cfg, &stream);
    let want = float_inputs(300)
        .into_iter()
        .map(|a| ((a * 1.0625 + a) - 1.0625) / 1.0625);
    assert_eq!(got, want.map(f32::to_bits).collect::<Vec<_>>());
}

#[test]
fn int_ops_and_select_match_across_backends() {
    let cfg = chip();
    let n = 200;
    let (a, over) = (int_words(n), threads(&cfg, n));
    let b: Vec<u32> = a.iter().map(|v| v ^ 0x55).collect();
    let int = |op, dst, srcs| rtype(&over, op, DType::Int32, dst, srcs);
    let mut stream: Vec<Instruction> = upload(&cfg, 0, &a).chain(upload(&cfg, 1, &b)).collect();
    stream.extend(int(RegOp::Add, 2, [0, 1, 0]));
    stream.extend(int(RegOp::Mul, 3, [0, 1, 0]));
    stream.extend(int(RegOp::Lt, 4, [0, 1, 0]));
    stream.extend(int(RegOp::Mux, 5, [4, 2, 3]));
    stream.extend(int(RegOp::Xor, 6, [5, 0, 0]));
    stream.extend(download(&cfg, 6, n));
    let got = assert_engines_agree(&cfg, &stream);
    let want = a.iter().zip(&b).map(|(&a, &b)| {
        let picked = if (a as i32) < (b as i32) {
            a.wrapping_add(b)
        } else {
            a.wrapping_mul(b)
        };
        picked ^ a
    });
    assert_eq!(got, want.collect::<Vec<_>>());
}

/// The maximum of register 0 over `lanes` rows of every warp, then over
/// all `warps`, ends in `(warp 0, row 0)`: halve with a disjoint `MoveRows`
/// (then a `MoveWarps`), compare, select.
fn max_tree(cfg: &PimConfig, lanes: u32, warps: u32) -> Vec<Instruction> {
    let mut stream = Vec::new();
    let keep_larger = |over: ThreadRange| {
        let gt = rtype(&[over], RegOp::Gt, DType::Int32, 2, [0, 1, 0]);
        gt.into_iter()
            .chain(rtype(&[over], RegOp::Mux, DType::Int32, 0, [2, 0, 1]))
    };
    let all_warps = RangeMask::dense(0, warps).unwrap();
    let mut half = lanes / 2;
    while half >= 1 {
        let low = RangeMask::dense(0, half).unwrap();
        stream.push(Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::dense(half, 2 * half).unwrap(),
            dst_rows: low,
            warps: all_warps,
        });
        stream.extend(keep_larger(ThreadRange::new(all_warps, low)));
        half /= 2;
    }
    let mut half = warps / 2;
    while half >= 1 {
        let instr = Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::dense(half, 2 * half).unwrap(),
            dist: -(half as i32),
        };
        instr.validate(cfg).unwrap();
        stream.push(instr);
        let heads = ThreadRange::new(RangeMask::dense(0, half).unwrap(), RangeMask::single(0));
        stream.extend(keep_larger(heads));
        half /= 2;
    }
    stream
}

#[test]
fn reductions_match_across_backends() {
    // The planned trees need a power-of-two row count; the hand-built one
    // runs at the geometry under test.
    let cfg = PimConfig::small();
    let client = planner(&cfg);
    let mut plan = client.plan();
    let t = plan.upload_f32(&float_inputs(333)).unwrap();
    let scale = plan.full_f32(333, 1.0 / 64.0).unwrap();
    let small = plan.mul(&t, &scale).unwrap();
    let sum = plan.reduce(&t, RegOp::Add).unwrap();
    let prod = plan.reduce(&small, RegOp::Mul).unwrap();
    let i = plan.upload_i32(&int_inputs(250)).unwrap();
    let isum = plan.reduce(&i, RegOp::Add).unwrap();
    let mut stream = plan.into_instrs();
    stream.extend(reads(&sum).chain(reads(&prod)).chain(reads(&isum)));
    let got = assert_engines_agree(&cfg, &stream);
    assert_eq!(got.len(), 3);
    let want = int_inputs(250).into_iter().fold(0i32, i32::wrapping_add);
    assert_eq!(got[2], want as u32);

    let cfg = chip();
    let words = int_words(cfg.crossbars * cfg.rows);
    let mut stream: Vec<Instruction> = upload(&cfg, 0, &words).collect();
    stream.extend(max_tree(&cfg, 64, cfg.crossbars as u32));
    stream.push(Instruction::Read {
        reg: 0,
        warp: 0,
        row: 0,
    });
    let got = assert_engines_agree(&cfg, &stream);
    let in_tree = words.iter().enumerate().filter(|(i, _)| i % cfg.rows < 64);
    assert_eq!(got, [in_tree.map(|(_, &w)| w as i32).max().unwrap() as u32]);
}

/// `dst[i] = src[i ^ j]` over `lanes` rows of every warp: the lanes with
/// bit `j` clear and the lanes with it set trade places, by block or by
/// offset, whichever takes fewer `MoveRows`.
fn exchange(warps: RangeMask, lanes: u32, j: u32, src: u8, dst: u8) -> Vec<Instruction> {
    let blocks = lanes / (2 * j);
    let pairs: Vec<(RangeMask, RangeMask)> = if blocks <= j {
        let block = |b| (b * 2 * j, b * 2 * j + j);
        let dense = |start| RangeMask::dense(start, start + j).unwrap();
        (0..blocks)
            .map(block)
            .map(|(lo, hi)| (dense(lo), dense(hi)))
            .collect()
    } else {
        let strided = |start| RangeMask::strided(start, blocks, 2 * j).unwrap();
        (0..j).map(|r| (strided(r), strided(r + j))).collect()
    };
    let mv = |src_rows, dst_rows| Instruction::MoveRows {
        src,
        dst,
        src_rows,
        dst_rows,
        warps,
    };
    pairs
        .into_iter()
        .flat_map(|(lo, hi)| [mv(lo, hi), mv(hi, lo)])
        .collect()
}

#[test]
fn sort_and_scan_match_across_backends() {
    let cfg = chip();
    let (rows, lanes) = (cfg.rows as u32, 64u32);
    let all_warps = RangeMask::dense(0, cfg.crossbars as u32).unwrap();
    let all = [ThreadRange::all(&cfg)];
    let int = |op, dst, srcs| rtype(&all, op, DType::Int32, dst, srcs);
    let words = int_words(cfg.crossbars * cfg.rows);
    let mut stream: Vec<Instruction> = upload(&cfg, 0, &words).collect();

    // Hillis–Steele prefix sums down every warp, in register 8: a uniform
    // shift over overlapping rows, the identity into the head, one add.
    stream.extend(int(RegOp::Or, 8, [0, 0, 0]));
    let mut d = 1;
    while d < rows {
        stream.push(Instruction::MoveRows {
            src: 8,
            dst: 9,
            src_rows: RangeMask::dense(0, rows - d).unwrap(),
            dst_rows: RangeMask::dense(d, rows).unwrap(),
            warps: all_warps,
        });
        let head = ThreadRange::new(all_warps, RangeMask::dense(0, d).unwrap());
        stream.extend(fill(&[head], 9, 0));
        stream.extend(int(RegOp::Add, 8, [8, 9, 0]));
        d *= 2;
    }

    // A bitonic network over the first 64 rows of every warp, in register
    // 0 (`pypim_core::sort`'s stage: masks from an index register, partner
    // by exchange, `take = lt ^ zk ^ zj`, select).
    let bit_clear = |bit: u32, dst| {
        let mut instrs = fill(&all, 2, bit);
        instrs.extend(int(RegOp::And, dst, [1, 2, 0]));
        instrs.extend(int(RegOp::Zero, dst, [dst, 0, 0]));
        instrs
    };
    for row in 0..rows {
        let lane = ThreadRange::new(all_warps, RangeMask::single(row));
        stream.extend(fill(&[lane], 1, row));
    }
    let mut k = 2;
    while k <= lanes {
        stream.extend(bit_clear(k, 3));
        let mut j = k / 2;
        while j >= 1 {
            stream.extend(bit_clear(j, 4));
            stream.extend(exchange(all_warps, lanes, j, 0, 5));
            stream.extend(int(RegOp::Lt, 6, [0, 5, 0]));
            stream.extend(int(RegOp::Xor, 7, [6, 3, 0]));
            stream.extend(int(RegOp::Xor, 7, [7, 4, 0]));
            stream.extend(int(RegOp::Mux, 0, [7, 0, 5]));
            j /= 2;
        }
        k *= 2;
    }
    let n = words.len();
    stream.extend(download(&cfg, 0, n).chain(download(&cfg, 8, n)));
    assert!(stream.iter().all(|instr| instr.validate(&cfg).is_ok()));

    let got = assert_engines_agree(&cfg, &stream);
    for (warp, column) in words.chunks(cfg.rows).enumerate() {
        let at = warp * cfg.rows;
        let mut sorted: Vec<i32> = column[..64].iter().map(|&w| w as i32).collect();
        sorted.sort_unstable();
        let got_sorted = got[at..at + 64].iter().map(|&w| w as i32);
        assert_eq!(got_sorted.collect::<Vec<_>>(), sorted, "warp {warp}");
        let sums = column.iter().scan(0u32, |acc, &w| {
            *acc = acc.wrapping_add(w);
            Some(*acc)
        });
        assert_eq!(
            got[n + at..n + at + cfg.rows],
            sums.collect::<Vec<_>>(),
            "warp {warp}"
        );
    }
}

#[test]
fn crossing_moves_match_across_backends() {
    // Whole-warp shifts by 4 warps up and down and by 8, a row at a time,
    // each split in the phases the H-tree's disjointness rule asks for.
    let cfg = chip();
    let words = int_words(cfg.crossbars * cfg.rows);
    let mut stream: Vec<Instruction> = upload(&cfg, 0, &words).collect();
    let dense = |start, stop| RangeMask::dense(start, stop).unwrap();
    let shifts = [
        (1, dense(0, 4), 4),
        (1, dense(4, 8), 4),
        (1, dense(8, 12), 4),
        (2, dense(12, 16), -4),
        (2, dense(8, 12), -4),
        (2, dense(4, 8), -4),
        (3, dense(0, 8), 8),
        (3, RangeMask::strided(1, 4, 4).unwrap(), 1),
    ];
    for row in 0..cfg.rows as u32 {
        for &(dst, warps, dist) in &shifts {
            stream.push(Instruction::MoveWarps {
                src: 0,
                dst,
                row_src: row,
                row_dst: (row + dst as u32) % cfg.rows as u32,
                warps,
                dist,
            });
        }
    }
    assert!(stream.iter().all(|instr| instr.validate(&cfg).is_ok()));
    let all = [ThreadRange::all(&cfg)];
    stream.extend(rtype(&all, RegOp::Add, DType::Int32, 4, [1, 2, 0]));
    stream.extend(rtype(&all, RegOp::Sub, DType::Int32, 4, [4, 3, 0]));
    stream.extend(download(&cfg, 4, words.len()));
    let got = assert_engines_agree(&cfg, &stream);
    assert!(got.iter().any(|&w| w != 0));
}

#[test]
fn cordic_matches_across_backends() {
    // `Tensor::sin_cos`'s iteration on two warps: x in 1, y in 2, z in 0.
    let cfg = chip();
    let n = 2 * cfg.rows;
    let over = threads(&cfg, n);
    // Spread over CORDIC's domain, [-pi/2, pi/2].
    let angles: Vec<u32> = (0..n)
        .map(|i| (3.0 * i as f32 / n as f32 - 1.5).to_bits())
        .collect();
    let float = |op, dst, srcs| rtype(&over, op, DType::Float32, dst, srcs);
    let mut stream: Vec<Instruction> = upload(&cfg, 0, &angles).collect();
    stream.extend(fill(&over, 1, 0.607_252_9f32.to_bits()));
    stream.extend(fill(&over, 2, 0));
    stream.extend(fill(&over, 3, 0));
    for i in 0..pypim::CORDIC_ITERS as i32 {
        stream.extend(fill(&over, 4, 2.0f32.powi(-i).to_bits()));
        stream.extend(fill(&over, 5, (2.0f64.powi(-i).atan() as f32).to_bits()));
        stream.extend(float(RegOp::Ge, 6, [0, 3, 0]));
        stream.extend(float(RegOp::Mul, 7, [1, 4, 0]));
        stream.extend(float(RegOp::Mul, 8, [2, 4, 0]));
        for (state, step) in [(1, 8), (2, 7), (0, 5)] {
            // x and z step against the rotation, y with it.
            let (pos, neg) = if state == 2 {
                (RegOp::Add, RegOp::Sub)
            } else {
                (RegOp::Sub, RegOp::Add)
            };
            stream.extend(float(pos, 9, [state, step, 0]));
            stream.extend(float(neg, 10, [state, step, 0]));
            stream.extend(float(RegOp::Mux, state, [6, 9, 10]));
        }
    }
    stream.extend(download(&cfg, 2, n));
    let got = assert_engines_agree(&cfg, &stream);
    for (&angle, &sin) in angles.iter().zip(&got) {
        let (angle, sin) = (f32::from_bits(angle), f32::from_bits(sin));
        assert!((sin - angle.sin()).abs() < 1e-5, "sin({angle}) = {sin}");
    }
}

/// Two fused gateway requests back to back on one session, as the serving
/// layer submits them: upload, two element-parallel ops and a full
/// reduction tree each; the second plan recycles the first one's stripes.
#[test]
fn fused_request_plans_match_across_backends() {
    // Always 64 rows: the planned reduction tree needs a power of two.
    let cfg = PimConfig::small();
    let client = planner(&cfg);
    let values: Vec<f32> = (0..256).map(|i| (i % 13) as f32 * 0.25).collect();
    let mut stream = Vec::new();
    let mut want = Vec::new();
    for scale in [2.0, -0.5] {
        let mut plan = client.plan();
        let x = plan.upload_f32(&values).unwrap();
        let y = plan.full_f32(values.len(), scale).unwrap();
        let xy = plan.mul(&x, &y).unwrap();
        let z = plan.add(&xy, &x).unwrap();
        let sum = plan.reduce(&z, RegOp::Add).unwrap();
        stream.extend(plan.into_instrs());
        stream.extend(reads(&sum));
        // Small multiples of 1/8: every partial sum is exact.
        want.push(values.iter().map(|v| v * scale + v).sum::<f32>().to_bits());
    }
    assert_eq!(assert_engines_agree(&cfg, &stream), want);
}

/// What the ISA documents for the integer operations (`RegOp`).
fn host_int(op: RegOp, a: u32, x: u32, y: u32) -> u32 {
    let (ai, xi) = (a as i32, x as i32);
    match op {
        RegOp::Add => a.wrapping_add(x),
        RegOp::Sub => a.wrapping_sub(x),
        RegOp::Mul => a.wrapping_mul(x),
        RegOp::Div => (if xi == 0 { 0 } else { ai.wrapping_div(xi) }) as u32,
        RegOp::Mod => (if xi == 0 { ai } else { ai.wrapping_rem(xi) }) as u32,
        RegOp::Neg => ai.wrapping_neg() as u32,
        RegOp::Lt => (ai < xi) as u32,
        RegOp::Le => (ai <= xi) as u32,
        RegOp::Gt => (ai > xi) as u32,
        RegOp::Ge => (ai >= xi) as u32,
        RegOp::Eq => (a == x) as u32,
        RegOp::Ne => (a != x) as u32,
        RegOp::Not => !a,
        RegOp::And => a & x,
        RegOp::Or => a | x,
        RegOp::Xor => a ^ x,
        RegOp::Sign => ai.signum() as u32,
        RegOp::Zero => (a == 0) as u32,
        RegOp::Abs => ai.wrapping_abs() as u32,
        RegOp::Mux => {
            if a != 0 {
                x
            } else {
                y
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every `RType` `Instruction::validate` accepts — any operation and
    /// datatype, destination and sources aliased or not, any thread range,
    /// now and then a register or a thread past the end (refused, so not
    /// run) — on random register contents: the engine and the reference
    /// agree on every cell and counter, the integer operations mean what
    /// the host says, and no thread outside the range changes.
    #[test]
    fn every_valid_rtype_matches_the_reference_and_the_host(
        (op, float, dst, srcs) in any::<(u8, bool, u8, (u8, u8, u8))>(),
        (warps, rows) in any::<((u8, u8, u8), (u8, u8, u8))>(),
        salt in any::<u32>(),
    ) {
        let cfg = PimConfig::small().with_crossbars(4).with_rows(80);
        let regs = cfg.user_regs as u8 + 1;
        let op = RegOp::ALL[op as usize % RegOp::ALL.len()];
        let dtype = if float { DType::Float32 } else { DType::Int32 };
        let (dst, srcs) = (dst % regs, [srcs.0 % regs, srcs.1 % regs, srcs.2 % regs]);
        // Often past the last warp or row: `validate` refuses those.
        let strided = |(start, count, step): (u8, u8, u8), bound: u32| {
            let (count, step) = (1 + u32::from(count) % (bound / 2), 1 + u32::from(step) % 3);
            RangeMask::strided(u32::from(start) % bound, count, step).unwrap()
        };
        let (warps, rows) = (strided(warps, cfg.crossbars as u32), strided(rows, cfg.rows as u32));
        let target = ThreadRange::new(warps, rows);
        let instr = Instruction::RType { op, dtype, dst, srcs, target };
        prop_assume!(instr.validate(&cfg).is_ok());

        let mut engine = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
        let mut reference = Driver::new(FuncBackend::new(cfg.clone()).unwrap());
        // Small values and zeros among the random words, so comparisons,
        // `Zero`, `Sign` and division by zero see both outcomes.
        let word = |xb: usize, row: usize, reg: usize| {
            let w = salt.wrapping_add(((xb * cfg.rows + row) * cfg.regs + reg) as u32).wrapping_mul(0x9E37_79B9);
            match w >> 29 { 0 => 0, 1 => w % 3, 2 => (w % 5).wrapping_neg(), _ => w }
        };
        for xb in 0..cfg.crossbars {
            for row in 0..cfg.rows {
                for reg in 0..cfg.user_regs {
                    engine.backend_mut().poke(xb, row, reg, word(xb, row, reg));
                    reference.backend_mut().poke(xb, row, reg, word(xb, row, reg));
                }
            }
        }
        prop_assert_eq!(engine.execute_many([&instr], &mut Vec::new()), Ok(()));
        prop_assert_eq!(reference.execute_many([&instr], &mut Vec::new()), Ok(()));
        assert_same_chips(&engine, &reference);
        for xb in 0..cfg.crossbars {
            for row in 0..cfg.rows {
                let before = |reg: u8| word(xb, row, reg as usize);
                let selected = warps.contains(xb as u32) && rows.contains(row as u32);
                for reg in 0..cfg.user_regs as u8 {
                    let got = engine.backend().peek(xb, row, reg as usize);
                    if !(selected && reg == dst) {
                        prop_assert_eq!(got, before(reg), "{:?} changed xb {} row {} reg {}", instr, xb, row, reg);
                    } else if !float {
                        let want = host_int(op, before(srcs[0]), before(srcs[1]), before(srcs[2]));
                        prop_assert_eq!(got, want, "{:?} at xb {} row {}", instr, xb, row);
                    }
                }
            }
        }
    }
}
