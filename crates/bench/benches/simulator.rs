//! Simulator execution speed: how many micro-operations per second the
//! bit-accurate CPU simulator sustains — the CPU stand-in for the paper's
//! GPU acceleration (§VI). Measured through the batch entry points with
//! the strict checker on/off.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pim_arch::{Backend, CellRun, MicroOp, PimConfig, RangeMask};
use pim_bench::hlogic_ops;
use pim_driver::{routines, Driver, ParallelismMode, PreparedRoutine};
use pim_isa::{DType, Instruction, RegOp};
use pim_sim::PimSimulator;

/// The bit-serial routine `r2 = r0 op r1` as the driver's cache holds it.
fn prepared(cfg: &PimConfig, op: RegOp, dtype: DType) -> PreparedRoutine {
    routines::compile_rtype(cfg, ParallelismMode::BitSerial, op, dtype, 2, &[0, 1])
        .unwrap()
        .prepare(cfg)
        .unwrap()
}

/// The simulator's horizontal-logic kernel in isolation (strict on) on
/// partition-parallel gates: a dense row mask, a strided one, and a
/// single row — the one shape the bit-plane layout makes dear (a 32-gate
/// operation touches 32 plane words per operand and crossbar where a
/// word-per-row format touches one). Comparable before/after any kernel
/// change through BENCH_simulator.json.
fn bench_hlogic(c: &mut Criterion) {
    let cfg = PimConfig::small().with_crossbars(64).with_rows(256);
    let ops = hlogic_ops(&cfg, 256);
    let mut group = c.benchmark_group("hlogic");
    group.throughput(Throughput::Elements(ops.len() as u64));
    let masks = [
        ("dense", RangeMask::dense(0, cfg.rows as u32).unwrap()),
        (
            "strided",
            RangeMask::new(0, cfg.rows as u32 - 2, 2).unwrap(),
        ),
        ("single_row", RangeMask::single(77)),
    ];
    for (name, row_mask) in masks {
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        let mut batch = vec![MicroOp::RowMask(row_mask)];
        batch.extend(ops.iter().cloned());
        group.bench_function(name, |b| {
            b.iter(|| sim.execute_batch(&batch).unwrap());
        });
    }
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let cfg = PimConfig::small().with_crossbars(64).with_rows(256);
    let routine = prepared(&cfg, RegOp::Add, DType::Int32);
    let ops = routine.batch.ops();
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(ops.len() as u64));
    for strict in [true, false] {
        let mut sim = PimSimulator::new(cfg.clone()).unwrap();
        sim.set_strict(strict);
        let name = if strict {
            "int_add_strict"
        } else {
            "int_add_fast"
        };
        group.bench_function(name, |b| {
            b.iter(|| sim.execute_batch(ops).unwrap());
        });
    }
    // The same routine the way the driver replays it from its cache: no
    // per-operation validate/charge prologue.
    let mut sim = PimSimulator::new(cfg).unwrap();
    group.bench_function("prepared_int_add", |b| {
        b.iter(|| sim.execute_prepared(&routine.batch).unwrap());
    });
    // Prepared replay of a long bit-serial routine (FP mul, ~11.5 k
    // micro-ops, strict on) under three selections: one plane word per
    // gate, where a row is the fixed per-op cost of the replay loop; a
    // two-crossbar window of a 4 x 64 chip (two plane words, `serve_fused`'s
    // shape); and `tensor_sim`'s 128 words, where it is the word cost.
    for (name, xbs, rows, window) in [
        ("prepared_fp_mul_1x64", 1, 64, 1),
        ("prepared_fp_mul_2x64", 4, 64, 2),
        ("prepared_fp_mul_16x512", 16, 512, 16),
    ] {
        let cfg = PimConfig::small().with_crossbars(xbs).with_rows(rows);
        let routine = prepared(&cfg, RegOp::Mul, DType::Float32);
        let mut sim = PimSimulator::new(cfg).unwrap();
        let window = RangeMask::dense(0, window).unwrap();
        sim.execute(&MicroOp::XbMask(window)).unwrap();
        group.throughput(Throughput::Elements(routine.batch.ops().len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| sim.execute_prepared(&routine.batch).unwrap());
        });
    }
    group.finish();
}

/// The two accesses that cross the plane layout, through the driver, at
/// the geometry `pimbench`'s `tensor_sim` runs (16 x 512, strict on): a
/// tensor-sized upload and read-back (one run of single-row writes, then
/// one of reads, per warp, through `Driver::issue_run` — the one way a
/// run of cells reaches a chip, as a shard's cell job hands it over), the
/// row transfer of a shift (one `MoveRows` whose 511 row pairs overlap)
/// and one direction of a distance-1 compare-exchange (one `MoveRows` from
/// the 256 odd rows to the 256 even rows: disjoint strided sets), and the
/// warp move of a reduction's first halving (a run of 512 `MoveWarps`, one
/// per row, over 8 warp pairs). Each run of cells reaches the simulator as
/// one `Backend::access`, the two row moves as one `Backend::move_rows`
/// each, the warp moves as one batch its executor applies as a plane copy.
/// `upload_readback_16` is the short end of the first: two 16-word
/// uploads to two registers and one 16-word read-back on 8 x 64, where the
/// fixed cost of a run is what is measured.
fn bench_row_access(c: &mut Criterion) {
    let cfg = PimConfig::small().with_crossbars(16).with_rows(512);
    let mut group = c.benchmark_group("simulator");
    let warp_rows: Vec<u32> = (0..cfg.rows as u32).collect();
    let values: Vec<Vec<u32>> = (0..cfg.crossbars as u32)
        .map(|warp| {
            let first = warp * cfg.rows as u32;
            (first..first + cfg.rows as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect()
        })
        .collect();
    let mut driver = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    let cells = cfg.crossbars * cfg.rows;
    let mut words = Vec::with_capacity(cells);
    group.throughput(Throughput::Elements(2 * cells as u64));
    group.bench_function("upload_readback", |b| {
        b.iter(|| {
            words.clear();
            for (warp, values) in (0..).zip(&values) {
                let run = CellRun {
                    reg: 0,
                    rows: &warp_rows,
                    values: Some(values),
                };
                driver.issue_run(warp, &run, &mut words).unwrap();
            }
            for warp in 0..cfg.crossbars as u32 {
                let run = CellRun {
                    reg: 0,
                    rows: &warp_rows,
                    values: None,
                };
                driver.issue_run(warp, &run, &mut words).unwrap();
            }
        });
    });

    let short: Vec<u32> = (0..16).map(|row| row * 3 + 1).collect();
    let runs = [(0, Some(&short[..])), (1, Some(&short[..])), (1, None)];
    let small = PimConfig::small().with_crossbars(8).with_rows(64);
    let mut short_driver = Driver::new(PimSimulator::new(small).unwrap());
    group.throughput(Throughput::Elements(48));
    group.bench_function("upload_readback_16", |b| {
        b.iter(|| {
            words.clear();
            for (reg, values) in runs {
                let run = CellRun {
                    reg,
                    rows: &warp_rows[..16],
                    values,
                };
                short_driver.issue_run(5, &run, &mut words).unwrap();
            }
        });
    });

    let rows = cfg.rows as u32;
    let shift = Instruction::MoveRows {
        src: 0,
        dst: 1,
        src_rows: RangeMask::dense(0, rows - 1).unwrap(),
        dst_rows: RangeMask::dense(1, rows).unwrap(),
        warps: RangeMask::dense(0, 2).unwrap(),
    };
    group.throughput(Throughput::Elements(u64::from(rows) - 1));
    group.bench_function("move_rows_shift", |b| {
        b.iter(|| driver.execute(&shift).unwrap());
    });

    let exchange = Instruction::MoveRows {
        src: 0,
        dst: 1,
        src_rows: RangeMask::strided(1, rows / 2, 2).unwrap(),
        dst_rows: RangeMask::strided(0, rows / 2, 2).unwrap(),
        warps: RangeMask::dense(0, 2).unwrap(),
    };
    group.throughput(Throughput::Elements(u64::from(rows) / 2));
    group.bench_function("move_rows_disjoint", |b| {
        b.iter(|| driver.execute(&exchange).unwrap());
    });

    let halving: Vec<Instruction> = (0..rows)
        .map(|row| Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: row,
            row_dst: row,
            warps: RangeMask::dense(8, 16).unwrap(),
            dist: -8,
        })
        .collect();
    let mut results = Vec::new();
    group.throughput(Throughput::Elements(u64::from(rows) * 8));
    group.bench_function("move_warps_run", |b| {
        b.iter(|| {
            results.clear();
            driver.execute_many(&halving, &mut results).unwrap();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_simulator, bench_hlogic, bench_row_access);
criterion_main!(benches);
