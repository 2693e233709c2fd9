//! Bulk host I/O takes one path — `Driver::execute_many` hands every run
//! of single-thread writes, or of reads, of one register of one warp to
//! the backend as one `CellRun` — and that path must be
//! indistinguishable from issuing the instructions one
//! by one: the same result words, the same `Driver::issued`, the same
//! `Profiler`, on one chip and through the shards of a cluster.

use proptest::prelude::*;
use pypim::arch::{PimConfig, RangeMask};
use pypim::cluster::{GlobalWrite, PimCluster};
use pypim::driver::Driver;
use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::sim::PimSimulator;

/// 96 rows: one and a half plane words per crossbar, so access runs end at
/// a word boundary, at the crossbar's last row and mid-word.
fn chip() -> PimConfig {
    PimConfig::small().with_crossbars(4).with_rows(96)
}

/// A scatter/gather pattern over `threads` threads, as `(warp, row)` cells:
/// a view of `len` elements starting at `start` with a stride that is
/// dense, strided or reversed, wrapped into the memory; every fourth
/// pattern visits its cells twice.
fn pattern(cfg: &PimConfig, warps: u32, (start, len, shape): (u16, u16, u8)) -> Vec<(u32, u32)> {
    let threads = warps as i64 * cfg.rows as i64;
    let stride = [1, -1, 2, -3, 1, 7, -1, 64][shape as usize % 8];
    let len = 1 + len as i64 % 300;
    let cells = (0..len).map(|i| {
        let thread = (start as i64 + i * stride).rem_euclid(threads);
        (
            (thread / cfg.rows as i64) as u32,
            (thread % cfg.rows as i64) as u32,
        )
    });
    match shape / 8 % 4 {
        0 => cells.clone().chain(cells).collect(),
        _ => cells.collect(),
    }
}

fn write(reg: u8, (warp, row): (u32, u32), value: u32) -> Instruction {
    Instruction::Write {
        reg,
        value,
        target: ThreadRange::single(warp, row),
    }
}

fn word(i: usize) -> u32 {
    0x9E37_79B9u32.wrapping_mul(i as u32 + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One chip: uploads and read-backs interleaved with a
    /// broadcast write and an R-type instruction (which go through
    /// `execute` inside the same call).
    #[test]
    fn execute_many_equals_the_instruction_loop(
        patterns in proptest::collection::vec(any::<(u16, u16, u8)>(), 1..5),
    ) {
        let cfg = chip();
        let mut instrs = Vec::new();
        for (p, &seed) in patterns.iter().enumerate() {
            let cells = pattern(&cfg, cfg.crossbars as u32, seed);
            let reg = (p % 2) as u8;
            instrs.extend(cells.iter().enumerate().map(|(i, &cell)| write(reg, cell, word(i))));
            if p % 2 == 1 {
                instrs.push(Instruction::Write {
                    reg: 2,
                    value: 7,
                    target: ThreadRange::new(
                        RangeMask::dense(0, cfg.crossbars as u32).unwrap(),
                        RangeMask::new(1, 95, 2).unwrap(),
                    ),
                });
                instrs.push(Instruction::RType {
                    op: RegOp::Add,
                    dtype: DType::Int32,
                    dst: 3,
                    srcs: [0, 2, 0],
                    target: ThreadRange::all(&cfg),
                });
            }
            instrs.extend(cells.iter().map(|&(warp, row)| Instruction::Read { reg, warp, row }));
            instrs.extend(cells.iter().rev().map(|&(warp, row)| Instruction::Read { reg: 3, warp, row }));
        }
        let driver = || Driver::new(PimSimulator::new(cfg.clone()).unwrap());
        let (mut bulk, mut looped) = (driver(), driver());
        let mut got = Vec::new();
        bulk.execute_many(&instrs, &mut got).unwrap();
        let want: Vec<Option<u32>> =
            instrs.iter().map(|i| looped.execute(i).unwrap()).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(bulk.issued(), looped.issued());
        prop_assert_eq!(bulk.backend().profiler(), looped.backend().profiler());
        for xb in 0..cfg.crossbars {
            for row in 0..cfg.rows {
                for reg in 0..4 {
                    prop_assert_eq!(
                        bulk.backend().peek(xb, row, reg),
                        looped.backend().peek(xb, row, reg)
                    );
                }
            }
        }
    }

    /// Two shards: `scatter`/`gather` (one segment per
    /// shard, batched by the shard's job) against the same cells issued
    /// one instruction at a time.
    #[test]
    fn scatter_gather_equal_single_instructions(
        patterns in proptest::collection::vec(any::<(u16, u16, u8)>(), 1..4),
    ) {
        let cfg = chip();
        let cluster = || PimCluster::new(cfg.clone(), 2).unwrap();
        let (bulk, single) = (cluster(), cluster());
        for &seed in &patterns {
            let cells = pattern(&cfg, 2 * cfg.crossbars as u32, seed);
            let writes: Vec<GlobalWrite> = cells
                .iter()
                .enumerate()
                .map(|(i, &(warp, row))| GlobalWrite::new(warp, row, 1, word(i)))
                .collect();
            bulk.scatter(&writes).unwrap();
            for (i, &cell) in cells.iter().enumerate() {
                single.execute(&write(1, cell, word(i))).unwrap();
            }
            let locs: Vec<_> = cells.iter().map(|&(warp, row)| (warp, row, 1)).collect();
            let got = bulk.gather(&locs).unwrap();
            let want: Vec<u32> = locs
                .iter()
                .map(|&(warp, row, reg)| {
                    single.execute(&Instruction::Read { reg, warp, row }).unwrap().unwrap()
                })
                .collect();
            prop_assert_eq!(got, want);
        }
        let (bulk, single) = (bulk.stats().unwrap(), single.stats().unwrap());
        prop_assert_eq!(bulk.issued(), single.issued());
        prop_assert_eq!(bulk.merged_profiler(), single.merged_profiler());
    }
}
