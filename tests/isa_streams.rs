//! The ISA layer between micro-operations and tensors: any stream of the
//! data-movement instructions — `Write` to one thread (alone and in
//! uploads, whole and broken) or broadcast over a range, `Read`,
//! `MoveRows`, `MoveWarps` (alone and in runs of rows, whole and broken) —
//! that `Instruction::validate` accepts means what a host word array says
//! it means. The stream runs through `Driver::execute_many` on a strict
//! chip and, one instruction at a time, through `execute` on a second
//! driver; and through the batch router every device submits to, a
//! `PimCluster` of 1 and of 3 chips, where a one-thread write becomes a
//! cell of its shard's run: the same words as the reference, the same
//! final image, the same `issued()` and `Profiler` as one instruction at a
//! time. (`RType` is `tests/proptest_stack.rs`'s.)

use proptest::prelude::*;
use pypim::arch::{PimConfig, RangeMask};
use pypim::cluster::{ClusterStats, PimCluster};
use pypim::driver::Driver;
use pypim::isa::{Instruction, ThreadRange};
use pypim::sim::PimSimulator;

const XBS: u32 = 8;
/// One and a quarter plane words, so runs cross a word boundary and end in
/// a partly used one.
const ROWS: u32 = 80;
/// Registers the streams touch.
const REGS: u8 = 3;

type Seed = (u8, u8, u8, u8, u8, u8, u8);

fn cfg() -> PimConfig {
    PimConfig::small()
        .with_crossbars(XBS as usize)
        .with_rows(ROWS as usize)
}

/// The instructions one seed stands for; some reach past the geometry or
/// break a pattern rule, and `validate` decides which go into the stream.
fn candidates((kind, a, b, c, d, e, f): Seed) -> Vec<Instruction> {
    let (a32, b32, c32) = (u32::from(a), u32::from(b), u32::from(c));
    let value = u32::from_le_bytes([c, d, e, f]);
    // Now and then one past the last warp or row.
    let (warp, row) = (a32 % (XBS + 1), b32 % (ROWS + 1));
    let strided = |start, count, step| RangeMask::strided(start, count, step).ok();
    let one = |instr: Option<Instruction>| instr.into_iter().collect();
    match kind % 8 {
        0 => one(Some(Instruction::Write {
            reg: c % REGS,
            value,
            target: ThreadRange::single(warp, row),
        })),
        1 => one(Some(Instruction::Read {
            reg: c % REGS,
            warp,
            row,
        })),
        2 => one((|| {
            Some(Instruction::Write {
                reg: f % REGS,
                value,
                target: ThreadRange::new(
                    strided(a32 % XBS, 1 + b32 % 3, 1 + c32 % 2)?,
                    strided(
                        u32::from(d) % ROWS,
                        1 + u32::from(e) % 6,
                        1 + u32::from(f) % 3,
                    )?,
                ),
            })
        })()),
        // An upload, then its read-back: up, down or strided from `row`.
        // Now and then the upload is broken halfway by a fill of every
        // other row, a write to another register or warp, or a write to one
        // thread whose warp mask is spelt with another step.
        3 | 4 => {
            let step = [1, -1, 3, -2][c as usize % 4];
            let cells: Vec<u32> = (0..[2, 5, 30, 70][d as usize % 4])
                .map(|k| i64::from(row) + k * step)
                .filter(|r| (0..i64::from(ROWS)).contains(r))
                .map(|r| r as u32)
                .collect();
            let reg = e % REGS;
            let write = |reg, target| Instruction::Write {
                reg,
                value: !value,
                target,
            };
            let mut writes: Vec<Instruction> = cells
                .iter()
                .map(|&row| Instruction::Write {
                    reg,
                    value: value.wrapping_mul(row + 1),
                    target: ThreadRange::single(warp, row),
                })
                .collect();
            let half = cells.len() / 2;
            let at = cells.get(half).copied().unwrap_or(row);
            let breaker = match f % 8 {
                0 => strided(at % 2, ROWS / 2, 2)
                    .map(|rows| write(reg, ThreadRange::new(RangeMask::single(warp), rows))),
                1 => Some(write((reg + 1) % REGS, ThreadRange::single(warp, at))),
                2 => Some(write(reg, ThreadRange::single((warp + 1) % XBS, at))),
                3 => RangeMask::new(warp, warp, 2)
                    .ok()
                    .map(|warps| write(reg, ThreadRange::new(warps, RangeMask::single(at)))),
                _ => None,
            };
            writes.splice(half..half, breaker);
            let reads = cells
                .iter()
                .rev()
                .map(|&row| Instruction::Read { reg, warp, row });
            writes.into_iter().chain(reads).collect()
        }
        // Equal strides (disjoint or a uniform shift) and unequal ones.
        5 | 6 => one((|| {
            let (count, step) = (1 + c32 % 12, 1 + u32::from(d) % 3);
            Some(Instruction::MoveRows {
                src: e % REGS,
                dst: f % REGS,
                src_rows: strided(a32 % ROWS, count, step)?,
                dst_rows: strided(b32 % ROWS, count, step + u32::from(kind / 8 % 4 == 0))?,
                warps: strided(u32::from(e) % XBS, 1 + u32::from(f) % 4, 1)?,
            })
        })()),
        // A run of moves whose rows both advance by one (what a halving or
        // a whole-warp shift emits), broken in the middle by a gap, another
        // warp mask, another register or another distance.
        _ => {
            let warps = match c % 3 {
                0 => RangeMask::single(a32 % XBS),
                1 => match strided(a32 % 4, 1 + b32 % 2, 4) {
                    Some(warps) => warps,
                    None => return Vec::new(),
                },
                _ => match strided(a32 % XBS, 1 + b32 % 3, 1) {
                    Some(warps) => warps,
                    None => return Vec::new(),
                },
            };
            let dist = [1, -1, 2, -2, 3, 4, -4, 5][kind as usize / 8 % 8];
            let count = [1, 2, 6, 40][kind as usize / 64];
            let (mut row_src, mut row_dst) = (b32 % ROWS, u32::from(f) % ROWS);
            (0..count)
                .map(|k| {
                    let mut mv = Instruction::MoveWarps {
                        src: d % REGS,
                        dst: e % REGS,
                        row_src,
                        row_dst,
                        warps,
                        dist,
                    };
                    if let (
                        true,
                        Instruction::MoveWarps {
                            dst, warps, dist, ..
                        },
                    ) = (k == count / 2, &mut mv)
                    {
                        match a / 16 % 8 {
                            0 => (row_src, row_dst) = (row_src + 1, row_dst + 1),
                            1 => *warps = RangeMask::single(warps.start()),
                            2 => *dst = (*dst + 1) % REGS,
                            3 => *dist = -*dist,
                            _ => {}
                        }
                    }
                    (row_src, row_dst) = (row_src + 1, row_dst + 1);
                    mv
                })
                .collect()
        }
    }
}

/// The memory as the host sees it: `words[warp][row][reg]`.
struct Reference {
    words: Vec<u32>,
}

impl Reference {
    fn at(&mut self, warp: u32, row: u32, reg: u8) -> &mut u32 {
        &mut self.words[((warp * ROWS + row) * u32::from(REGS)) as usize + reg as usize]
    }

    /// What the instruction returns. Both moves read every source word
    /// before they write any destination.
    fn execute(&mut self, instr: &Instruction) -> Option<u32> {
        match *instr {
            Instruction::Write { reg, value, target } => {
                for warp in target.warps.iter() {
                    for row in target.rows.iter() {
                        *self.at(warp, row, reg) = value;
                    }
                }
            }
            Instruction::Read { reg, warp, row } => return Some(*self.at(warp, row, reg)),
            Instruction::MoveRows {
                src,
                dst,
                src_rows,
                dst_rows,
                warps,
            } => {
                for warp in warps.iter() {
                    let moved: Vec<u32> = src_rows
                        .iter()
                        .map(|row| *self.at(warp, row, src))
                        .collect();
                    for (row, word) in dst_rows.iter().zip(moved) {
                        *self.at(warp, row, dst) = word;
                    }
                }
            }
            Instruction::MoveWarps {
                src,
                dst,
                row_src,
                row_dst,
                warps,
                dist,
            } => {
                let moved: Vec<u32> = warps
                    .iter()
                    .map(|warp| *self.at(warp, row_src, src))
                    .collect();
                for (warp, word) in warps.iter().zip(moved) {
                    *self.at((i64::from(warp) + i64::from(dist)) as u32, row_dst, dst) = word;
                }
            }
            Instruction::RType { .. } => unreachable!("no R-type in these streams"),
        }
        None
    }
}

/// Every cell of the reference's memory as a one-thread write of
/// `words`, register by register of each warp: an upload through the
/// router, and the fill of a chip driven one instruction at a time.
fn upload(words: &[u32]) -> Vec<Instruction> {
    let mut upload = Vec::with_capacity(words.len());
    for warp in 0..XBS {
        for reg in 0..REGS {
            upload.extend((0..ROWS).map(|row| Instruction::Write {
                reg,
                value: words[((warp * ROWS + row) * u32::from(REGS) + u32::from(reg)) as usize],
                target: ThreadRange::single(warp, row),
            }));
        }
    }
    upload
}

/// `stream` through a cluster of `shards` chips presenting the reference's
/// warps (and one more for 3 chips of 3), after `upload`: one instruction at
/// a time through `execute`, or (`batched`) each read through `execute`
/// and the instructions between reads through `execute_batch`, with a
/// chip-crossing `MoveWarps` in a batch of its own (coalesced crossing
/// moves stage their cells in another order than one move at a time).
/// Returns the words read, the memory laid out as the reference's, and
/// the stats before that memory was read.
fn through_cluster(
    shards: usize,
    upload: &[Instruction],
    stream: &[Instruction],
    batched: bool,
) -> (Vec<Option<u32>>, Vec<u32>, ClusterStats) {
    let chip = cfg().with_crossbars((XBS as usize).div_ceil(shards));
    let cluster = PimCluster::new(chip, shards).unwrap();
    cluster.execute_batch(upload).unwrap();
    let (mut got, mut batch) = (Vec::new(), Vec::new());
    let flush = |batch: &mut Vec<Instruction>| {
        if !batch.is_empty() {
            cluster.execute_batch(batch).unwrap();
            batch.clear();
        }
    };
    for instr in stream {
        let crossing = match instr {
            Instruction::MoveWarps { warps, dist, .. } => !cluster
                .plan()
                .route_move_warps(warps, *dist)
                .cross
                .is_empty(),
            _ => false,
        };
        if batched && !crossing && !matches!(instr, Instruction::Read { .. }) {
            batch.push(instr.clone());
            got.push(None);
        } else {
            flush(&mut batch);
            got.push(cluster.execute(instr).unwrap());
        }
    }
    flush(&mut batch);
    let cells: Vec<_> = (0..XBS * ROWS * u32::from(REGS))
        .map(|cell| {
            let (thread, reg) = (cell / u32::from(REGS), (cell % u32::from(REGS)) as u8);
            (thread / ROWS, thread % ROWS, reg)
        })
        .collect();
    let stats = cluster.stats().unwrap();
    (got, cluster.gather(&cells).unwrap(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn valid_movement_streams_mean_what_the_host_reference_says(
        seeds in proptest::collection::vec(any::<Seed>(), 1..24),
        fill in any::<u32>(),
    ) {
        let cfg = cfg();
        let stream: Vec<Instruction> = seeds
            .iter()
            .flat_map(|&seed| candidates(seed))
            .filter(|instr| instr.validate(&cfg).is_ok())
            .collect();
        prop_assume!(!stream.is_empty());

        // Distinct contents everywhere, so a misplaced move shows.
        let mut reference = Reference { words: Vec::new() };
        let driver = || Driver::new(PimSimulator::new(cfg.clone()).unwrap());
        let (mut bulk, mut looped) = (driver(), driver());
        prop_assert!(bulk.backend().strict());
        for cell in 0..XBS * ROWS * u32::from(REGS) {
            let word = (fill | 1).wrapping_mul(cell + 1);
            reference.words.push(word);
            let (thread, reg) = ((cell / u32::from(REGS)) as usize, (cell % u32::from(REGS)) as usize);
            for chip in [bulk.backend_mut(), looped.backend_mut()] {
                chip.poke(thread / ROWS as usize, thread % ROWS as usize, reg, word);
            }
        }

        let before = reference.words.clone();
        let want: Vec<Option<u32>> = stream.iter().map(|instr| reference.execute(instr)).collect();
        let after = reference.words.clone();
        let mut got = Vec::new();
        bulk.execute_many(&stream, &mut got).unwrap();
        let read: Vec<u32> = want.iter().flatten().copied().collect();
        prop_assert_eq!(&got, &read, "execute_many diverges from the reference");
        let one_by_one: Vec<Option<u32>> =
            stream.iter().map(|instr| looped.execute(instr).unwrap()).collect();
        prop_assert_eq!(&one_by_one, &want, "the execute loop diverges from the reference");

        // A write past the last row in the middle of an upload: both ways
        // stop there, with the writes before it done.
        let cell = |row| Instruction::Write {
            reg: 0,
            value: fill,
            target: ThreadRange::single(fill % XBS, row),
        };
        let broken = [cell(3), cell(4), cell(ROWS), cell(5)];
        got.clear();
        let refused = bulk.execute_many(&broken, &mut got).unwrap_err();
        prop_assert!(got.is_empty());
        let stopped = broken.iter().find_map(|instr| looped.execute(instr).err());
        prop_assert_eq!(Some(refused.to_string()), stopped.map(|e| e.to_string()));
        for instr in &broken[..2] {
            reference.execute(instr);
        }

        prop_assert_eq!(bulk.issued(), looped.issued());
        prop_assert_eq!(bulk.backend().profiler(), looped.backend().profiler());
        for (cell, &word) in reference.words.iter().enumerate() {
            let (thread, reg) = (cell / REGS as usize, cell % REGS as usize);
            let at = (thread / ROWS as usize, thread % ROWS as usize, reg);
            prop_assert_eq!(bulk.backend().peek(at.0, at.1, at.2), word, "execute_many at {:?}", at);
            prop_assert_eq!(looped.backend().peek(at.0, at.1, at.2), word, "execute loop at {:?}", at);
        }

        // The router: one chip against a chip driven one instruction at a
        // time, three chips against themselves driven so.
        let upload = upload(&before);
        let mut chip = driver();
        for instr in upload.iter().chain(&stream) {
            chip.execute(instr).unwrap();
        }
        for shards in [1, 3] {
            let (got, image, stats) = through_cluster(shards, &upload, &stream, true);
            prop_assert_eq!(&got, &want, "{} chips diverge from the reference", shards);
            prop_assert!(image == after, "{} chips leave another image", shards);
            let (issued, profiler) = match shards {
                1 => (chip.issued(), chip.backend().profiler().clone()),
                _ => {
                    let (_, image, one_by_one) = through_cluster(shards, &upload, &stream, false);
                    prop_assert!(image == after, "{} chips one at a time leave another image", shards);
                    (one_by_one.issued(), one_by_one.merged_profiler())
                }
            };
            prop_assert_eq!(stats.issued(), issued, "{} chips", shards);
            prop_assert_eq!(stats.merged_profiler(), profiler, "{} chips", shards);
        }
    }
}
