//! Sharded correctness: the same tensor programs on a single-chip device
//! (`Device::new`) and a 4-shard cluster presenting the identical logical
//! geometry (`Device::cluster`) must produce bit-identical results —
//! including non-associative float reductions (the cluster preserves the
//! logical combine tree rather than re-associating per shard) and sorted
//! output.

use proptest::prelude::*;
use pypim::{Device, PimConfig, Result, Tensor};

/// Single chip: 16 crossbars × 64 rows.
fn single() -> Device {
    Device::new(PimConfig::small()).unwrap()
}

/// Four chips of 4 crossbars each — the same 16-warp logical geometry.
fn sharded() -> Device {
    Device::cluster(PimConfig::small().with_crossbars(4), 4).unwrap()
}

/// Awkward float inputs: subnormals, extremes, negative zero, non-dyadic
/// fractions — anything where re-associated summation would diverge.
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

/// Runs `program` on both devices and asserts bit-identical raw output.
fn assert_equivalent(program: impl Fn(&Device) -> Result<Vec<u32>>) {
    let on_single = program(&single()).unwrap();
    let on_cluster = program(&sharded()).unwrap();
    assert_eq!(
        on_single, on_cluster,
        "cluster output diverged from single chip"
    );
}

#[test]
fn arithmetic_chain_is_bit_identical() {
    assert_equivalent(|dev| {
        let a = dev.from_slice_f32(&float_inputs(300))?;
        let b = dev.full_f32(300, 1.0625)?;
        let z: Tensor = (&(&(&a * &b)? + &a)? - &b)?;
        let d = (&z / &b)?;
        d.to_raw_vec()
    });
}

#[test]
fn int_ops_and_comparisons_are_bit_identical() {
    assert_equivalent(|dev| {
        let a = dev.from_slice_i32(&int_inputs(200))?;
        let b =
            dev.from_slice_i32(&int_inputs(200).iter().map(|v| v ^ 0x55).collect::<Vec<_>>())?;
        let sum = (&a + &b)?;
        let prod = (&a * &b)?;
        let cmp = a.lt(&b)?;
        let sel = cmp.select(&sum, &prod)?;
        let mixed = sel.bit_xor(&a)?;
        mixed.to_raw_vec()
    });
}

#[test]
fn float_reduction_is_bit_identical() {
    // Non-associative sums: the cluster must reproduce the exact combine
    // tree of the single chip, not a per-shard re-association.
    assert_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(333))?;
        let s = t.sum_f32()?;
        let p = t.slice_step(0, 333, 3)?.prod_f32()?;
        Ok(vec![s.to_bits(), p.to_bits()])
    });
}

#[test]
fn int_reduction_and_minmax_are_bit_identical() {
    assert_equivalent(|dev| {
        let t = dev.from_slice_i32(&int_inputs(250))?;
        Ok(vec![
            t.sum_i32()? as u32,
            t.prod_i32()? as u32,
            t.min_i32()? as u32,
            t.max_i32()? as u32,
        ])
    });
}

#[test]
fn sorted_output_is_bit_identical() {
    assert_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(96))?;
        let s = t.sorted()?;
        s.to_raw_vec()
    });
}

#[test]
fn views_and_movement_are_bit_identical() {
    assert_equivalent(|dev| {
        let t = dev.from_slice_i32(&int_inputs(256))?;
        // Misaligned operands force the move-based alignment fallback,
        // which on the cluster exercises cross-chip transfers.
        let even = t.even()?;
        let odd = t.odd()?;
        let mixed = (&even + &odd)?;
        let shifted = pypim::shifted(&t, 64)?; // one whole shard's worth
        let head = shifted.slice(0, 128)?;
        let mut out = mixed.to_raw_vec()?;
        out.extend(head.to_raw_vec()?);
        Ok(out)
    });
}

#[test]
fn cross_heavy_moves_are_bit_identical() {
    // Whole-shard shifts: every moved warp crosses a chip boundary on the
    // 4-shard device, so this exercises the interconnect's batched staging
    // and the dependency-aware drain end to end, in both directions and
    // mixed with element work between the crossings.
    assert_equivalent(|dev| {
        let t = dev.from_slice_i32(&int_inputs(1024))?;
        let up = pypim::shifted(&t, 256)?; // one whole shard upward
        let down = pypim::shifted(&t, -256)?; // one whole shard downward
        let mixed = (&up + &down)?;
        let far = pypim::shifted(&mixed, 512)?; // two shards at once
        let mut out = mixed.to_raw_vec()?;
        out.extend(far.to_raw_vec()?);
        Ok(out)
    });
}

#[test]
fn cross_shard_rotate_chain_is_bit_identical() {
    // A rotate built from two opposing shifts plus a partial (boundary
    // splitting) shift: sub-moves that only partially cross a chip edge
    // must split into a native part and an interconnect part.
    assert_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(512))?;
        let k = 192; // not a multiple of the 256-element shard: splits
        let hi = pypim::shifted(&t, k as i64)?;
        let lo = pypim::shifted(&t, k as i64 - 512)?;
        let rot = (&hi + &lo)?; // rotation by k (each element from one side)
        let s = rot.sum_f32()?;
        let mut out = rot.to_raw_vec()?;
        out.push(s.to_bits());
        Ok(out)
    });
}

#[test]
fn scan_is_bit_identical() {
    assert_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(120))?;
        let c = t.cumsum()?;
        c.to_raw_vec()
    });
}

#[test]
fn figure12_program_on_cluster() {
    // The paper's example program, straight on a 4-chip cluster.
    let dev = sharded();
    let n = 1024;
    let mut x = dev.zeros_f32(n).unwrap();
    let mut y = dev.zeros_f32(n).unwrap();
    x.set_f32(4, 8.0).unwrap();
    y.set_f32(4, 0.5).unwrap();
    x.set_f32(5, 20.0).unwrap();
    y.set_f32(5, 1.0).unwrap();
    x.set_f32(8, 10.0).unwrap();
    y.set_f32(8, 1.0).unwrap();
    let z = (&(&x * &y).unwrap() + &x).unwrap();
    assert_eq!(z.slice_step(0, n, 2).unwrap().sum_f32().unwrap(), 32.0);
    // Telemetry exists and shows multi-shard activity.
    let stats = dev.cluster_stats().unwrap().unwrap();
    assert_eq!(stats.shards.len(), 4);
    assert!(stats.shards.iter().all(|s| s.profiler.cycles > 0));
    let (hits, misses) = stats.cache_stats();
    assert!(hits + misses > 0);
}

#[test]
fn small_tensors_allocate_chip_local() {
    // Shard-aware placement: after a 3-warp filler, a 2-warp tensor would
    // first-fit at warp 3, straddling the chip boundary at warp 4 — the
    // shard-aware allocator skips to warp 4 instead, so shifting it (and
    // every other operation confined to its stripe) never touches the
    // interconnect.
    let dev = sharded(); // 4 chips x 4 crossbars x 64 rows
    let _filler = dev.from_slice_i32(&int_inputs(192)).unwrap(); // 3 warps
    let vals = int_inputs(128);
    let t = dev.from_slice_i32(&vals).unwrap(); // 2 warps: fits one chip
    let s = pypim::shifted(&t, 64).unwrap(); // one whole warp
    assert_eq!(
        s.slice(0, 64).unwrap().to_vec_i32().unwrap(),
        vals[64..],
        "chip-local shift must preserve values"
    );
    let mixed = (&t.even().unwrap() + &t.odd().unwrap()).unwrap();
    assert_eq!(mixed.get_i32(0).unwrap(), vals[0].wrapping_add(vals[1]));
    let traffic = dev.cluster_stats().unwrap().unwrap().traffic;
    assert_eq!(
        traffic.cross_words, 0,
        "operations on a chip-local tensor must not cross chips"
    );
}

/// pimbench's `serve_crossing` copy on the cluster it runs on — 4 chips of
/// 4 x 64, recovery on — is the 64-`MoveWarps` plan that moves warps 0-3
/// (shard 0) onto warps 4-7 (shard 1). It lands the image one chip's copy
/// does, and its staged transfer reaches each chip warp-major: a run of 64
/// cells per warp behind one crossbar mask, not 256 lone cells with one
/// mask each (512 masks, 1 152 chip cycles, a modeled latency of 648).
#[test]
fn a_crossing_copy_is_staged_warp_major() {
    let copy = |dev: &Device| -> Result<(Vec<u32>, [u64; 4])> {
        let window = dev.from_slice_i32(&int_inputs(512))?;
        let (lower, upper) = (window.slice(0, 256)?, window.slice(256, 512)?);
        let plan = pypim::plan_copy(&lower, &upper)?.expect("a move plan");
        assert_eq!(plan.len(), 64, "one MoveWarps per row");
        // The second copy is the steady state: every chip's masks are
        // where the first one left them.
        dev.submit_instrs(&plan)?.wait()?;
        dev.reset_counters()?;
        dev.submit_instrs(&plan)?.wait()?;
        let stats = dev
            .cluster_stats()?
            .expect("every device reports its shards");
        let merged = stats.merged_profiler();
        let shape = [
            merged.ops.xb_mask,
            stats.total_cycles(),
            merged.cycles,
            stats.modeled_latency_cycles(),
        ];
        Ok((window.to_raw_vec()?, shape))
    };
    let (on_single, _) = copy(&single()).unwrap();
    let (on_cluster, shape) = copy(&sharded()).unwrap();
    assert_eq!(on_single, on_cluster, "the crossing copy diverged");
    // Per chip, 4 warps x (1 crossbar mask + 1 row mask + 63 row changes
    // + 64 accesses) = 516 cycles; the copy's one 256-word burst adds 72
    // link cycles.
    assert_eq!(
        shape,
        [8, 1032, 516, 588],
        "crossbar masks, chip cycles (total, critical path), modeled latency"
    );
}

proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(5))]

    /// Arbitrary shift/rotate sequences leave bit-identical memory on the
    /// coalescing 4-shard cluster and on a single chip. Every step
    /// re-compacts the shift's defined region into a fully-initialized
    /// tensor (padding included), so the compared bytes never depend on
    /// unspecified out-of-range cells.
    #[test]
    fn shift_sequences_bit_identical_under_coalescing(
        dists_raw in proptest::collection::vec(1i64..1024, 1..4),
        signs in proptest::collection::vec(0u8..2, 3),
    ) {
        let n = 1024usize; // the whole 16-warp x 64-row logical memory
        let dists: Vec<i64> = dists_raw
            .iter()
            .zip(signs.iter().cycle())
            .map(|(&d, &s)| if s == 0 { d } else { -d })
            .collect();
        let program = |dev: &Device| -> Result<Vec<u32>> {
            let mut t = dev.from_slice_i32(&int_inputs(n))?;
            let mut out = Vec::new();
            for (step, &d) in dists.iter().enumerate() {
                let s = pypim::shifted(&t, d)?;
                // The defined region of the shift: r[i] = t[i + d].
                let (lo, hi) = if d >= 0 {
                    (0, n - d as usize)
                } else {
                    ((-d) as usize, n)
                };
                let valid = s.slice(lo, hi)?;
                out.extend(valid.to_raw_vec()?);
                // Rebuild a fully-defined input for the next round (the
                // rotate idiom: valid slice back to full length + pad).
                t = pypim::compact_with_padding(&valid, n, 0x5EED + step as u32)?;
            }
            Ok(out)
        };
        let on_single = program(&single()).unwrap();
        let coalesced = program(&sharded()).unwrap();
        prop_assert_eq!(&on_single, &coalesced, "the coalesced cluster diverged");
    }
}

proptest! {
    /// The coalescer merges two crossing moves only when they share a warp
    /// distance and are independent at the cell level: brute-force the
    /// read/write cell sets of both moves and check every accepted merge
    /// against them (different distances and overlapping masks must never
    /// merge).
    #[test]
    fn coalescer_never_merges_hazardous_moves(
        crossbars in 1usize..5, shards in 2usize..5,
        a_start in 0u32..64, a_count in 1u32..16, a_step in 1u32..4,
        b_start in 0u32..64, b_count in 1u32..16, b_step in 1u32..4,
        a_dist_raw in 0i64..4096, b_dist_raw in 0i64..4096,
        regs_raw in 0u32..256, rows_raw in 0u32..256,
    ) {
        use pypim::{CrossingMove, MoveCoalescer, RangeMask, ShardPlan};
        use std::collections::HashSet;

        let total = (crossbars * shards) as u32;
        let cfg = PimConfig::small().with_crossbars(crossbars);
        let plan = ShardPlan::new(&cfg, shards).unwrap();
        // Derive masks and distances that always fit the geometry.
        let mask = |start_raw: u32, count_raw: u32, step: u32| {
            let start = start_raw % total;
            let max_count = (total - 1 - start) / step + 1;
            RangeMask::strided(start, 1 + count_raw % max_count, step).unwrap()
        };
        let dist = |m: &RangeMask, raw: i64| {
            let lo = -(i64::from(m.start()));
            let hi = i64::from(total - 1 - m.stop());
            (lo + raw % (hi - lo + 1)) as i32
        };
        let a_mask = mask(a_start, a_count, a_step);
        let b_mask = mask(b_start, b_count, b_step);
        let a_dist = dist(&a_mask, a_dist_raw);
        let b_dist = dist(&b_mask, b_dist_raw);
        // Registers/rows: four independent 2-bit register picks and four
        // independent 2-bit rows (source and destination rows drawn
        // separately), so every hazard direction (read-write, write-read,
        // write-write) occurs in some cases and not in others, including
        // across row-mismatched footprints.
        let regs = regs_raw as u8;
        let (a_src, a_dst) = (regs & 3, (regs >> 2) & 3);
        let (b_src, b_dst) = ((regs >> 4) & 3, (regs >> 6) & 3);
        let (a_row_src, a_row_dst) = (rows_raw & 3, (rows_raw >> 2) & 3);
        let (b_row_src, b_row_dst) = ((rows_raw >> 4) & 3, (rows_raw >> 6) & 3);
        let a = CrossingMove::new(
            plan.route_move_warps(&a_mask, a_dist),
            &a_mask, a_dist, a_src, a_dst, a_row_src, a_row_dst,
        ).unwrap();
        let b = CrossingMove::new(
            plan.route_move_warps(&b_mask, b_dist),
            &b_mask, b_dist, b_src, b_dst, b_row_src, b_row_dst,
        ).unwrap();
        let (Some(a), Some(b)) = (a, b) else {
            return Ok(()); // one of the moves stayed on-chip: nothing to merge
        };
        let mut c = MoveCoalescer::new();
        c.push(a);
        if c.accepts(&b) {
            prop_assert_eq!(a_dist, b_dist, "merged across distances");
            // Brute-force cell sets of the whole logical moves.
            let cells = |reg: u8, row: u32, m: &RangeMask, d: i32| -> HashSet<(u8, u32, u32)> {
                m.iter().map(|w| (reg, row, (i64::from(w) + i64::from(d)) as u32)).collect()
            };
            let a_reads = cells(a_src, a_row_src, &a_mask, 0);
            let a_writes = cells(a_dst, a_row_dst, &a_mask, a_dist);
            let b_reads = cells(b_src, b_row_src, &b_mask, 0);
            let b_writes = cells(b_dst, b_row_dst, &b_mask, b_dist);
            prop_assert!(a_writes.is_disjoint(&b_reads), "merged a write-read hazard");
            prop_assert!(a_reads.is_disjoint(&b_writes), "merged a read-write hazard");
            prop_assert!(a_writes.is_disjoint(&b_writes), "merged a write-write hazard");
        }
    }
}

/// What the cluster's one batch path promises, checked on bare clusters
/// with generated request batches. Every batch owns a window of `WINDOW`
/// warps; at five warps over 4-crossbar chips each window spans a chip
/// boundary (the shape of pimbench's `serve_crossing` sessions), so its
/// inter-warp moves come out chip-local and chip-crossing alike.
mod one_path {
    use proptest::prelude::*;
    use pypim::driver::Driver;
    use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
    use pypim::sim::PimSimulator;
    use pypim::{
        ClusterOptions, PimCluster, PimConfig, RangeMask, RequestId, TaggedBatch, Telemetry,
    };

    const WINDOW: u32 = 5;
    /// Registers the batches use: 0 and 1 are seeded, all four are compared.
    const REGS: u8 = 4;

    /// 4 chips x 4 crossbars x 64 rows: the 16-warp logical geometry of
    /// `PimConfig::small()`.
    fn cluster4(telemetry: Telemetry) -> PimCluster {
        let options = ClusterOptions {
            telemetry,
            ..ClusterOptions::default()
        };
        PimCluster::with_options(PimConfig::small().with_crossbars(4), 4, options).unwrap()
    }

    /// One of four interleaved 16-row classes.
    fn row_class(c: u32) -> RangeMask {
        RangeMask::new(c % 4, 60 + c % 4, 4).unwrap()
    }

    /// Registers 0 and 1 of every thread, distinct per warp and row class.
    fn seed() -> Vec<Instruction> {
        let cells =
            (0..16u32).flat_map(|w| (0..4u32).flat_map(move |c| (0..2u8).map(move |r| (w, c, r))));
        cells
            .map(|(w, c, reg)| Instruction::Write {
                reg,
                value: 1000 * (u32::from(reg) + 1) + 10 * w + c,
                target: ThreadRange::new(RangeMask::single(w), row_class(c)),
            })
            .collect()
    }

    /// One instruction inside the window starting at warp `lo`, derived
    /// from three raw draws; a draw that does not validate becomes a
    /// `Write`.
    fn instr(lo: u32, (kind, a, b): (u32, u32, u32)) -> Instruction {
        let w0 = lo + a % WINDOW;
        let w1 = w0 + (a >> 3) % (lo + WINDOW - w0);
        let warps = RangeMask::new(w0, w1, 1).unwrap();
        let (r0, r1) = ((a >> 8) as u8 % REGS, (a >> 10) as u8 % REGS);
        let write = Instruction::Write {
            reg: r0,
            value: b,
            target: ThreadRange::new(warps, row_class(b)),
        };
        let drawn = match kind {
            0 => return write,
            1 => Instruction::RType {
                op: [RegOp::Add, RegOp::Sub, RegOp::And, RegOp::Or][(b >> 4) as usize % 4],
                dtype: DType::Int32,
                dst: 2 + r0 % 2,
                srcs: [r1 % 2, (r1 >> 1) % 2, 0],
                target: ThreadRange::new(warps, row_class(b)),
            },
            2 => Instruction::MoveRows {
                src: r0,
                dst: r1,
                src_rows: row_class(b),
                dst_rows: row_class(b >> 2),
                warps,
            },
            _ => Instruction::MoveWarps {
                src: r0,
                dst: r1,
                row_src: b % 64,
                row_dst: (b >> 6) % 64,
                warps,
                // The destination run starts anywhere it still fits the
                // window; distance 0 and overlaps fail validation.
                dist: (lo + (b >> 12) % (WINDOW - (w1 - w0))) as i32 - w0 as i32,
            },
        };
        if drawn.validate(&PimConfig::small()).is_ok() {
            drawn
        } else {
            write
        }
    }

    /// Up to three tagged batches on disjoint windows.
    fn batches(raw: &[Vec<(u32, u32, u32)>]) -> Vec<TaggedBatch> {
        raw.iter()
            .enumerate()
            .map(|(k, draws)| TaggedBatch {
                request: RequestId::new(k as u32 + 1, 0),
                instrs: draws.iter().map(|&d| instr(k as u32 * WINDOW, d)).collect(),
            })
            .collect()
    }

    fn cells() -> impl Iterator<Item = (u32, u32, u8)> {
        (0..16u32)
            .flat_map(|w| (0..64u32).flat_map(move |row| (0..REGS).map(move |reg| (w, row, reg))))
    }

    fn image(cluster: &PimCluster) -> Vec<u32> {
        cluster.gather(&cells().collect::<Vec<_>>()).unwrap()
    }

    /// The crossing `(source, destination)` pairs of a batch's moves.
    fn crossing_pairs(cluster: &PimCluster, instrs: &[Instruction]) -> u64 {
        let cross = |i: &Instruction| match i {
            Instruction::MoveWarps { warps, dist, .. } => {
                cluster.plan().route_move_warps(warps, *dist).cross.len() as u64
            }
            _ => 0,
        };
        instrs.iter().map(cross).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// One tagged submission, the same instructions one `execute` at a
        /// time, and one chip leave identical memory; the submission sends
        /// the interconnect traffic of its batches run one `execute_batch`
        /// each; and each request is attributed the crossing words of its
        /// own batch (a run never merges across a batch boundary).
        #[test]
        fn tagged_submission_matches_a_single_chip(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..6, 0u32..1 << 16, 0u32..1 << 18), 1..8),
                1..4,
            ),
        ) {
            let (seed, batches) = (seed(), batches(&raw));
            let all = || batches.iter().flat_map(|b| b.instrs.iter());

            let mut chip = Driver::new(PimSimulator::new(PimConfig::small()).unwrap());
            for i in seed.iter().chain(all()) {
                chip.execute(i).unwrap();
            }
            let reference: Vec<u32> = cells()
                .map(|(warp, row, reg)| {
                    chip.execute(&Instruction::Read { reg, warp, row }).unwrap().unwrap()
                })
                .collect();

            let telemetry = Telemetry::recording();
            let tagged = cluster4(telemetry.clone());
            tagged.execute_batch(&seed).unwrap();
            tagged.submit_batch_tagged(&batches).unwrap().wait().unwrap();
            prop_assert_eq!(&image(&tagged), &reference, "tagged submission diverged");

            let stepped = cluster4(Telemetry::disabled());
            stepped.execute_batch(&seed).unwrap();
            for i in all() {
                stepped.execute(i).unwrap();
            }
            prop_assert_eq!(&image(&stepped), &reference, "instruction-at-a-time diverged");

            let batched = cluster4(Telemetry::disabled());
            batched.execute_batch(&seed).unwrap();
            for b in &batches {
                batched.execute_batch(&b.instrs).unwrap();
            }
            let traffic = |c: &PimCluster| {
                let t = c.stats().unwrap().traffic;
                (t.messages, t.cross_words, t.link_cycles, t.barriers)
            };
            prop_assert_eq!(traffic(&tagged), traffic(&batched));

            let attributed = telemetry.request_stats();
            for b in &batches {
                let words = attributed
                    .iter()
                    .find(|(id, _)| *id == b.request)
                    .map_or(0, |(_, stats)| stats.cross_words);
                prop_assert_eq!(words, crossing_pairs(&tagged, &b.instrs), "{}", b.request);
            }
        }

        /// Every batch — one with a chip-crossing move or not — has run by
        /// the time its submission returns: before its outcome is even
        /// looked at, the memory image equals a chip that executed the
        /// same instructions.
        #[test]
        fn a_batch_that_does_not_stream_is_ready_on_its_first_poll(
            raw in proptest::collection::vec(
                proptest::collection::vec((0u32..6, 0u32..1 << 16, 0u32..1 << 18), 1..8),
                1..4,
            ),
        ) {
            let cluster = cluster4(Telemetry::disabled());
            let mut batches = batches(&raw);
            // Warp 3 -> 4 crosses from chip 0 to chip 1: no case is vacuous.
            batches.push(TaggedBatch {
                request: RequestId::new(9, 0),
                instrs: vec![Instruction::MoveWarps {
                    src: 0,
                    dst: 1,
                    row_src: 0,
                    row_dst: 0,
                    warps: RangeMask::single(3),
                    dist: 1,
                }],
            });
            let mut chip = Driver::new(PimSimulator::new(PimConfig::small()).unwrap());
            for b in &batches {
                let set = cluster.submit_batch_tagged(std::slice::from_ref(b)).unwrap();
                chip.execute_many(&b.instrs, &mut Vec::new()).unwrap();
                let reference: Vec<u32> = cells()
                    .map(|(warp, row, reg)| {
                        chip.execute(&Instruction::Read { reg, warp, row }).unwrap().unwrap()
                    })
                    .collect();
                prop_assert_eq!(&image(&cluster), &reference, "{}", b.request);
                prop_assert_eq!(set.wait(), Ok(()));
            }
        }
    }
}

#[test]
fn execute_batch_protocol_rejects_reads_on_both_engines() {
    // The no-reads-in-batches protocol holds on the single chip's
    // Backend::execute_batch and on the cluster's batch path.
    use pypim::arch::{Backend, MicroOp};
    use pypim::isa::Instruction;
    use pypim::sim::PimSimulator;

    let mut sim = PimSimulator::new(PimConfig::small()).unwrap();
    assert!(sim.execute_batch(&[MicroOp::Read { index: 0 }]).is_err());

    let cluster = pypim::PimCluster::new(PimConfig::small().with_crossbars(4), 4).unwrap();
    for warp in [0, 5, 10, 15] {
        let read = Instruction::Read {
            reg: 0,
            warp,
            row: 0,
        };
        assert!(matches!(
            cluster.execute_batch(&[read]),
            Err(pypim::cluster::ClusterError::Protocol { .. })
        ));
    }
}

#[test]
fn inline_and_threaded_single_shard_agree() {
    // `Device::new` is itself a cluster, so one chip is held to a
    // reference that shares no routing code: the instruction stream of a
    // tensor program — upload, R-type ops, a row move, a warp move,
    // read-back — on `Device::new` (recovery off), on a 1-shard
    // `Device::cluster` (recovery on, journaling every job), and on a bare
    // driver over the simulator.
    use pypim::driver::Driver;
    use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
    use pypim::sim::PimSimulator;
    use pypim::RangeMask;

    let cfg = PimConfig::small();
    let all = ThreadRange::all(&cfg);
    let data = &int_inputs(512);
    let upload = (0..4u32).flat_map(|warp| {
        (0..64u32).flat_map(move |row| {
            (0..2u8).map(move |reg| Instruction::Write {
                reg,
                value: data[(warp * 128 + row * 2 + u32::from(reg)) as usize] as u32,
                target: ThreadRange::single(warp, row),
            })
        })
    });
    let rtype = |op, dst, srcs| Instruction::RType {
        op,
        dtype: DType::Int32,
        dst,
        srcs,
        target: all,
    };
    let program: Vec<Instruction> = upload
        .chain([
            rtype(RegOp::Add, 2, [0, 1, 0]),
            rtype(RegOp::Mul, 3, [2, 0, 0]),
            Instruction::MoveRows {
                src: 3,
                dst: 4,
                src_rows: RangeMask::new(0, 31, 1).unwrap(),
                dst_rows: RangeMask::new(32, 63, 1).unwrap(),
                warps: RangeMask::new(0, 3, 1).unwrap(),
            },
            Instruction::MoveWarps {
                src: 4,
                dst: 5,
                row_src: 40,
                row_dst: 7,
                warps: RangeMask::new(0, 3, 1).unwrap(),
                dist: 4,
            },
            rtype(RegOp::Sub, 6, [5, 1, 0]),
        ])
        .collect();
    let cells: Vec<(u32, u32, u8)> = (0..8u32)
        .flat_map(|w| (0..64u32).flat_map(move |row| (0..7u8).map(move |reg| (w, row, reg))))
        .collect();

    let on_device = |dev: Device| {
        dev.submit_instrs(&program).unwrap().wait().unwrap();
        let image = dev.read_many(&cells).unwrap();
        (image, dev.cycles().unwrap(), dev.issued().unwrap())
    };
    let mut bare = Driver::new(PimSimulator::new(cfg.clone()).unwrap());
    bare.execute_many(&program, &mut Vec::new()).unwrap();
    let mut words = Vec::new();
    let reads = cells
        .iter()
        .map(|&(warp, row, reg)| Instruction::Read { reg, warp, row });
    bare.execute_many(reads, &mut words).unwrap();
    let reference = (
        words.into_iter().flatten().collect::<Vec<u32>>(),
        bare.backend().profiler().cycles,
        bare.issued(),
    );
    assert!(reference.0.iter().filter(|&&w| w != 0).count() > 1000);

    assert_eq!(on_device(Device::new(cfg.clone()).unwrap()), reference);
    assert_eq!(on_device(Device::cluster(cfg, 1).unwrap()), reference);
}
