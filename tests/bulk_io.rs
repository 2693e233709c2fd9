//! Bulk host I/O takes one path — every run of single-thread writes, or
//! of reads, of one register of one warp reaches the chip's driver as one
//! `CellRun` through `Driver::issue_run`, from a shard's cell job: a
//! batch's one-thread writes, which the router every device submits to
//! turns into cells, a `scatter` or a `gather` — and that path must be
//! indistinguishable from issuing the instructions one by one: the same
//! result words, the same `Driver::issued`, the same `Profiler`, on one
//! chip and through the shards of a cluster.

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

    /// One chip through the router: uploads batched with a broadcast
    /// write and an R-type instruction (which stay instructions in the
    /// same shard job), each read back through `gather`, against the same
    /// instructions one by one on a bare driver.
    #[test]
    fn a_routed_upload_equals_the_instruction_loop(
        patterns in proptest::collection::vec(any::<(u16, u16, u8)>(), 1..5),
    ) {
        let cfg = chip();
        let cluster = PimCluster::new(cfg.clone(), 1).unwrap();
        let mut looped = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (p, &seed) in patterns.iter().enumerate() {
            let cells = pattern(&cfg, cfg.crossbars as u32, seed);
            let reg = (p % 2) as u8;
            let mut batch: Vec<Instruction> =
                cells.iter().enumerate().map(|(i, &cell)| write(reg, cell, word(i))).collect();
            if p % 2 == 1 {
                batch.push(Instruction::Write {
                    reg: 2,
                    value: 7,
                    target: ThreadRange::new(
                        RangeMask::dense(0, cfg.crossbars as u32).unwrap(),
                        RangeMask::new(1, 95, 2).unwrap(),
                    ),
                });
                batch.push(Instruction::RType {
                    op: RegOp::Add,
                    dtype: DType::Int32,
                    dst: 3,
                    srcs: [0, 2, 0],
                    target: ThreadRange::all(&cfg),
                });
            }
            cluster.execute_batch(&batch).unwrap();
            for instr in &batch {
                looped.execute(instr).unwrap();
            }
            let locs: Vec<_> = cells
                .iter()
                .map(|&(warp, row)| (warp, row, reg))
                .chain(cells.iter().rev().map(|&(warp, row)| (warp, row, 3)))
                .collect();
            got.extend(cluster.gather(&locs).unwrap());
            want.extend(locs.iter().map(|&(warp, row, reg)| {
                looped.execute(&Instruction::Read { reg, warp, row }).unwrap().unwrap()
            }));
        }
        prop_assert_eq!(&got, &want);
        let stats = cluster.stats().unwrap();
        prop_assert_eq!(stats.issued(), looped.issued());
        prop_assert_eq!(stats.merged_profiler(), looped.backend().profiler().clone());
        let cells: Vec<_> = (0..cfg.crossbars as u32)
            .flat_map(|xb| (0..cfg.rows as u32).flat_map(move |row| (0..4).map(move |reg| (xb, row, reg))))
            .collect();
        let image = cluster.gather(&cells).unwrap();
        for (&(xb, row, reg), &word) in cells.iter().zip(&image) {
            prop_assert_eq!(word, looped.backend().peek(xb as usize, row as usize, reg as usize));
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
