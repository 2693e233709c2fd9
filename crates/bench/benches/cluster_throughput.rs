//! Sharded-cluster element throughput: the same element-parallel workload
//! on 1, 2, and 4 chips. Per-shard geometry is fixed, so the tensor grows
//! with the shard count. Every shard's job runs on the calling thread, so
//! host time grows with it too; the chips overlap on the modeled clock.
//!
//! Besides the criterion groups, the bench prints an explicit 4-vs-1 shard
//! scaling summary with per-shard issued-cycle and routine-cache telemetry
//! (the production observability of the cluster subsystem).
//!
//! Interconnect groups: `move_cross` times one chip-crossing `MoveWarps`
//! (one burst per shard pair); `move_mixed` a batch that interleaves heavy
//! shard-local work with cross-chip transfers (only touched shards wait at
//! a crossing move); `move_shift` a whole-memory shift whose decomposition
//! the move coalescer merges into one barrier and one burst per shard pair,
//! with its modeled link traffic and chip cycles recorded next to the wall
//! time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_arch::{PimConfig, RangeMask};
use pim_bench::random_ints;
use pim_cluster::PimCluster;
use pim_isa::{DType, Instruction, RegOp, ThreadRange};
use pypim_core::{shifted, Device, Tensor};

/// Per-chip geometry: 16 crossbars × 64 rows (1024 threads per shard).
fn shard_cfg() -> PimConfig {
    PimConfig::small()
}

fn inputs(dev: &Device) -> (Tensor, Tensor) {
    let n = dev.config().total_threads() as usize;
    let a = dev.from_slice_i32(&random_ints(n, 1)).unwrap();
    let b = dev.from_slice_i32(&random_ints(n, 2)).unwrap();
    (a, b)
}

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster_throughput");
    for shards in [1usize, 2, 4] {
        let dev = Device::cluster(shard_cfg(), shards).unwrap();
        let (a, b) = inputs(&dev);
        group.throughput(Throughput::Elements(a.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("int_add", format!("{shards}-shard")),
            &shards,
            |bench, _| {
                bench.iter(|| a.binary(RegOp::Add, &b).unwrap());
            },
        );
    }
    group.finish();
    scaling_summary();
}

/// Manual 4-vs-1 shard measurement with telemetry, printed after the
/// criterion groups.
///
/// The shards' jobs run one after another on the calling thread, so host
/// element-throughput stays near 1x across shard counts: the ratio is
/// what the sharding layer costs. The chips' parallelism shows in the
/// per-shard chip cycles, on the modeled clock.
fn scaling_summary() {
    let reps = 20;
    let mut rates = Vec::new();
    for shards in [1usize, 4] {
        let dev = Device::cluster(shard_cfg(), shards).unwrap();
        let (a, b) = inputs(&dev);
        a.binary(RegOp::Add, &b).unwrap(); // warm routine caches
        dev.reset_counters().unwrap();
        let start = std::time::Instant::now();
        for _ in 0..reps {
            a.binary(RegOp::Add, &b).unwrap();
        }
        let dt = start.elapsed().as_secs_f64();
        let elems = (a.len() * reps) as f64;
        let rate = elems / dt;
        rates.push(rate);
        println!("\n== {shards}-shard cluster: {rate:.3e} elements/s ==");
        if let Some(stats) = dev.cluster_stats().unwrap() {
            let (hits, misses) = stats.cache_stats();
            println!(
                "   issued cycles (all shards): logic {} / total {}; \
                 routine cache {hits} hits / {misses} misses",
                stats.issued().logic,
                stats.issued().total,
            );
            for s in &stats.shards {
                println!(
                    "   shard {}: {} chip cycles, issued {} ({} logic), \
                     cache {}h/{}m",
                    s.shard,
                    s.profiler.cycles,
                    s.issued.total,
                    s.issued.logic,
                    s.cache_hits,
                    s.cache_misses,
                );
            }
        }
    }
    let ratio = rates[1] / rates[0];
    println!("\n== host element-throughput, 4 shards vs 1: {ratio:.2}x ==\n");
}

/// Cross-shard move staging: a 32-warp chip-crossing `MoveWarps`, staged as
/// one message per shard pair — one gathered read burst and one scattered
/// write burst each.
fn bench_move_cross(c: &mut Criterion) {
    let mut group = c.benchmark_group("move_cross");
    // Warps 0..=31 (shards 0 and 1) -> warps 32..=63 (shards 2 and 3):
    // every pair crosses a chip boundary.
    let mv = Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 0,
        row_dst: 0,
        warps: RangeMask::new(0, 31, 1).unwrap(),
        dist: 32,
    };
    group.throughput(Throughput::Elements(32));
    let cluster = PimCluster::new(shard_cfg(), 4).unwrap();
    group.bench_function("batched", |b| {
        b.iter(|| cluster.execute_batch(std::slice::from_ref(&mv)).unwrap());
    });
    group.finish();
}

/// Dependency-aware drain: a mixed batch interleaving heavy element work on
/// shards 2/3 with chip-crossing moves between shards 0/1. Only the touched
/// shards (0, 1) drain at each crossing move — shards 2/3 are launched, and
/// their results checked only when the batch ends.
fn bench_move_mixed(c: &mut Criterion) {
    const SEGMENTS: u64 = 6;
    let rows = RangeMask::dense(0, 8).unwrap();
    let work = Instruction::RType {
        op: RegOp::Add,
        dtype: DType::Int32,
        dst: 2,
        srcs: [0, 1, 0],
        target: ThreadRange::new(RangeMask::new(32, 63, 1).unwrap(), rows),
    };
    let mv = Instruction::MoveWarps {
        src: 0,
        dst: 1,
        row_src: 0,
        row_dst: 0,
        warps: RangeMask::new(0, 15, 1).unwrap(),
        dist: 16,
    };
    let batch: Vec<Instruction> = (0..SEGMENTS)
        .flat_map(|_| [work.clone(), mv.clone()])
        .collect();
    let mut group = c.benchmark_group("move_mixed");
    // Untouched-shard work per batch: SEGMENTS x 32 warps x 8 rows.
    group.throughput(Throughput::Elements(SEGMENTS * 32 * 8));
    let cluster = PimCluster::new(shard_cfg(), 4).unwrap();
    group.bench_function("dep_sched", |b| {
        b.iter(|| cluster.execute_batch(&batch).unwrap());
    });
    group.finish();
    // The scheduler telemetry behind the row: how many shard queues the
    // crossing-move barriers drained.
    let cluster = PimCluster::new(shard_cfg(), 4).unwrap();
    cluster.execute_batch(&batch).unwrap();
    let t = cluster.stats().unwrap().traffic;
    println!(
        "\nmove_mixed drain telemetry: {} barriers drained {} shard queue(s); \
         {} messages, {} cross-chip words, {} modeled link cycles\n",
        t.barriers, t.drained_queues, t.messages, t.cross_words, t.link_cycles,
    );
}

/// Move coalescing: a whole-memory shift by one chip's worth of elements,
/// so every moved warp crosses a shard boundary. The movement layer
/// decomposes the shift into one single-warp crossing `MoveWarps` per
/// (row class x phase); the cluster merges the whole run into one barrier
/// and one burst per `(src, dst)` shard pair — O(shard pairs) instead of
/// O(warps).
fn bench_move_shift(c: &mut Criterion) {
    // Modeled link time is reported at a 1 GHz link clock.
    const LINK_HZ: f64 = 1e9;
    let mut group = c.benchmark_group("move_shift");
    let mut traffic = Vec::new();
    for shards in [2usize, 4] {
        let dev = Device::cluster(shard_cfg(), shards).unwrap();
        let n = dev.config().total_threads() as usize;
        let dist = (n / shards) as i64;
        let t = dev.arange_i32(n).unwrap();
        let moved = (n as i64 - dist) as u64;
        // The link traffic and chip cycles of one shift, before the timed
        // iterations add theirs.
        dev.reset_counters().unwrap();
        shifted(&t, dist).unwrap();
        let stats = dev.cluster_stats().unwrap().unwrap();
        let cycles = stats.merged_profiler().cycles;
        traffic.push((shards, moved, stats.traffic, cycles));
        group.throughput(Throughput::Elements(moved));
        group.bench_with_input(
            BenchmarkId::new("coalesced", format!("{shards}-shard")),
            &shards,
            |b, _| {
                b.iter(|| shifted(&t, dist).unwrap());
            },
        );
    }
    // Written into the JSON report so the traffic is machine-checkable:
    // `link_seconds` is the modeled link time (throughput = moved elements
    // per modeled second); `messages` and `barriers` are raw counts stashed
    // in the seconds field — they scale with shard pairs, not warp count;
    // `chip_cycles` is the merged profiler's (busiest chip's) cycle count,
    // stashed the same way: what staging the shift costs the chips.
    for &(shards, moved, tr, cycles) in &traffic {
        let id = |name: &str| BenchmarkId::new(name, format!("{shards}-shard"));
        group.report_metric(
            id("link_seconds_coalesced"),
            tr.link_cycles as f64 / LINK_HZ,
            Some(Throughput::Elements(moved)),
        );
        group.report_metric(id("messages_coalesced"), tr.messages as f64, None);
        group.report_metric(id("barriers_coalesced"), tr.barriers as f64, None);
        group.report_metric(id("chip_cycles_coalesced"), cycles as f64, None);
    }
    group.finish();
    let (shards, _, tr, _) = traffic[traffic.len() - 1];
    println!(
        "\nmove_shift coalescer telemetry ({shards} shards, whole-memory shift): \
         {} messages, {} barriers, {} cross-chip words, {} modeled link \
         cycles; {} runs merged {} moves (saving {} messages)\n",
        tr.messages,
        tr.barriers,
        tr.cross_words,
        tr.link_cycles,
        tr.runs_merged,
        tr.moves_merged,
        tr.bursts_saved,
    );
}

criterion_group!(
    benches,
    bench_cluster,
    bench_move_cross,
    bench_move_mixed,
    bench_move_shift
);
criterion_main!(benches);
