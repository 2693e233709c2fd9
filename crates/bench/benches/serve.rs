//! Serving-gateway throughput: the same multi-client request workload
//! driven (a) concurrently through the `pim-serve` gateway — one host
//! thread, every session in flight at once, each fused request pipeline in
//! its own chip-local placement window — and (b) sequentially, one request
//! at a time through the blocking tensor API.
//!
//! The headline numbers are **modeled-clock** (`PimConfig::clock_hz`,
//! 300 MHz): requests/s against the cluster's modeled end-to-end latency
//! (`ClusterStats::modeled_latency_cycles` — the busiest chip plus link
//! cycles). Under the model the chips genuinely run in parallel, so
//! concurrent chip-local sessions finish in ~1/shards the cycles of a
//! sequential client that drives one chip at a time; the wall-clock groups
//! (`wall_*`) track host overhead and show real speedups only on hosts
//! with enough cores to run the shard workers concurrently (see the
//! cluster bench's scaling note).
//!
//! Per-request modeled latency percentiles (p50/p99) model all requests
//! arriving at once: request `j` of the `R` hosted on a chip whose run
//! took `C` cycles completes at `(j+1)·C/R` — queueing included, so
//! oversubscribing chips (8 sessions on 4 chips) visibly stretches p99.
//! The per-request cycle counts land in a `pim-telemetry` log-bucketed
//! [`Histogram`], whose p50/p99/p999 are what the JSON report carries —
//! every latency entry now has real tail fields, not a collapsed point.
//!
//! The `degraded_crash` group reruns the gateway workload under a
//! deterministic 1-shard-crash fault schedule (`pim-fault`): shard 0's
//! worker is killed mid-stream after one request has committed, respawned
//! from checkpoint+journal (the replayed suffix is charged to the shard's
//! modeled clock), and the gateway's retry machinery re-submits the
//! failed batches. Its modeled requests/s against the fault-free
//! `gateway` row quantifies the throughput cost of one crash-and-recover
//! cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, SampleStats, Throughput};
use futures::executor::block_on;
use futures::future::join_all;
use pim_arch::PimConfig;
use pim_cluster::{ClusterOptions, RecoveryConfig};
use pim_fault::{FaultInjector, FaultPlan};
use pim_serve::{ClusterClient, DeviceServeExt, ServeConfig};
use pim_telemetry::Histogram;
use pypim_core::{Device, ErrorClass, RegOp, Result, Tensor};
use std::sync::Arc;

const SHARDS: usize = 4;
const REQUESTS_PER_SESSION: usize = 2;

/// Per-chip geometry: 4 crossbars x 64 rows -> a 16-warp, 1024-thread
/// cluster (small enough for the full sampling loop).
fn shard_cfg() -> PimConfig {
    PimConfig::small().with_crossbars(4)
}

fn cluster_dev() -> Device {
    Device::cluster(shard_cfg(), SHARDS).unwrap()
}

fn payload(cid: usize, req: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| ((cid * 31 + req * 7 + i) % 13) as f32 * 0.25)
        .collect()
}

/// The request program, fused into one gateway submission plus one read:
/// `sum(x * y + x)` (Figure 12 plus a reduction).
async fn request_fused(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let mut plan = client.plan();
    let x = plan.upload_f32(values)?;
    let y = plan.full_f32(values.len(), 2.0)?;
    let xy = plan.mul(&x, &y)?;
    let z = plan.add(&xy, &x)?;
    let s = plan.reduce(&z, RegOp::Add)?;
    plan.run().await?;
    Ok(client.to_vec_f32(&s).await?[0])
}

fn request_sync(dev: &Device, values: &[f32]) -> Result<f32> {
    let x = dev.from_slice_f32(values)?;
    let y = dev.full_f32(values.len(), 2.0)?;
    let z: Tensor = (&(&x * &y)? + &x)?;
    z.sum_f32()
}

/// Serves `sessions x REQUESTS_PER_SESSION` requests concurrently through
/// the gateway.
fn run_gateway(clients: &[ClusterClient], elems: usize) {
    block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            for req in 0..REQUESTS_PER_SESSION {
                let sum = request_fused(client, &payload(cid, req, elems))
                    .await
                    .unwrap();
                assert!(sum.is_finite());
            }
        },
    )));
}

/// Like [`run_gateway`], but a request that resolves to a transient fault
/// is re-issued, as a real client would (the gateway retries failed exec
/// batches internally, but a crash landing on a request's trailing read
/// surfaces to the client). Each request is self-contained (fresh uploads,
/// fresh destinations), so the re-issue is value-safe, and the modeled
/// clock keeps counting across the retry — the recovery cost stays in the
/// measurement.
fn run_gateway_degraded(clients: &[ClusterClient], elems: usize) {
    block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            for req in 0..REQUESTS_PER_SESSION {
                let values = payload(cid, req, elems);
                let mut attempts = 0;
                loop {
                    match request_fused(client, &values).await {
                        Ok(sum) => {
                            assert!(sum.is_finite());
                            break;
                        }
                        Err(e) if e.class() == ErrorClass::Transient && attempts < 3 => {
                            attempts += 1;
                        }
                        Err(e) => panic!("degraded request failed non-transiently: {e}"),
                    }
                }
            }
        },
    )));
}

fn run_sequential(dev: &Device, sessions: usize, elems: usize) {
    for cid in 0..sessions {
        for req in 0..REQUESTS_PER_SESSION {
            let sum = request_sync(dev, &payload(cid, req, elems)).unwrap();
            assert!(sum.is_finite());
        }
    }
}

/// Per-request modeled completion latencies (cycles), recorded into a
/// telemetry histogram: the `R_k` requests hosted on chip `k` complete at
/// `(j+1)·C_k/R_k` cycles, `j = 0..R_k` (all requests arrive at once).
fn modeled_latency_hist(shard_cycles: &[(u64, usize)]) -> Histogram {
    let hist = Histogram::new();
    for &(cycles, hosted) in shard_cycles {
        for j in 0..hosted {
            hist.record((cycles as f64 * (j + 1) as f64 / hosted as f64).round() as u64);
        }
    }
    hist
}

fn bench_serve(c: &mut Criterion) {
    let clock_hz = shard_cfg().clock_hz;
    let mut group = c.benchmark_group("serve");
    for sessions in [4usize, 8] {
        let dev = cluster_dev();
        let total_warps = dev.config().crossbars as u32;
        let session_warps = total_warps / sessions as u32;
        let warps_per_shard = (total_warps as usize / SHARDS) as u32;
        let elems = session_warps as usize * dev.config().rows;
        let requests = (sessions * REQUESTS_PER_SESSION) as u64;

        // --- Concurrent serving through the gateway (fused pipelines,
        //     chip-local session windows).
        let gateway = dev.serve(ServeConfig {
            session_warps,
            ..ServeConfig::default()
        });
        let clients: Vec<ClusterClient> =
            (0..sessions).map(|_| gateway.session().unwrap()).collect();
        run_gateway(&clients, elems); // warm routine caches
        dev.reset_counters().unwrap();
        run_gateway(&clients, elems);
        let stats = dev.cluster_stats().unwrap().unwrap();
        let gw_modeled_s = stats.modeled_latency_cycles() as f64 / clock_hz;

        // --- The same workload, one request at a time, blocking API.
        let seq_dev = cluster_dev();
        run_sequential(&seq_dev, 1, elems); // warm routine caches
        seq_dev.reset_counters().unwrap();
        run_sequential(&seq_dev, sessions, elems);
        let seq_stats = seq_dev.cluster_stats().unwrap().unwrap();
        let seq_modeled_s = seq_stats.modeled_latency_cycles() as f64 / clock_hz;

        // --- Degraded mode: the identical gateway workload under a
        //     deterministic 1-shard-crash schedule — shard 0's worker dies
        //     on its third job (the second request's fused exec batch, a
        //     retryable gateway submission; by then the first request has
        //     committed, so the respawn replays a real journal suffix),
        //     the supervisor rebuilds it from checkpoint+journal, and the
        //     gateway retries the failed batches. The gap to the
        //     fault-free `gateway` row is the recovery tax — the replayed
        //     span is charged to the shard's modeled clock.
        let fault = Arc::new(FaultInjector::new(FaultPlan::none().crash_at(0, 2), SHARDS));
        let deg_dev = Device::cluster_with_options(
            shard_cfg(),
            SHARDS,
            ClusterOptions {
                recovery: RecoveryConfig::default(),
                fault: Some(Arc::clone(&fault)),
                ..ClusterOptions::default()
            },
        )
        .unwrap();
        let deg_gateway = deg_dev.serve(ServeConfig {
            session_warps,
            max_retries: 3,
            ..ServeConfig::default()
        });
        let deg_clients: Vec<ClusterClient> = (0..sessions)
            .map(|_| deg_gateway.session().unwrap())
            .collect();
        // No warm pass: the crash is scheduled by job index and must fire
        // inside the measured run (modeled cycles don't see host-side
        // routine-cache state, so cold vs warm is identical).
        run_gateway_degraded(&deg_clients, elems);
        assert!(
            fault.stats().worker_crashes >= 1,
            "1-shard-crash schedule never fired"
        );
        let deg_stats = deg_dev.cluster_stats().unwrap().unwrap();
        let deg_modeled_s = deg_stats.modeled_latency_cycles() as f64 / clock_hz;

        // Modeled-clock headline: requests/s on the modeled machine.
        group.report_metric(
            BenchmarkId::new("gateway", format!("{sessions}-sessions")),
            gw_modeled_s,
            Some(Throughput::Elements(requests)),
        );
        group.report_metric(
            BenchmarkId::new("sequential", format!("{sessions}-sessions")),
            seq_modeled_s,
            Some(Throughput::Elements(requests)),
        );
        group.report_metric(
            BenchmarkId::new("degraded_crash", format!("{sessions}-sessions")),
            deg_modeled_s,
            Some(Throughput::Elements(requests)),
        );

        // Modeled per-request latency percentiles under full concurrency.
        // Map each session to the chip hosting its window, count requests
        // per chip, then spread each chip's cycles over its requests.
        let mut hosted = [0usize; SHARDS];
        for client in &clients {
            hosted[(client.window().warp_start / warps_per_shard) as usize] += REQUESTS_PER_SESSION;
        }
        let per_shard: Vec<(u64, usize)> = stats
            .shards
            .iter()
            .map(|s| (s.profiler.cycles, hosted[s.shard]))
            .filter(|&(_, h)| h > 0)
            .collect();
        let lat = modeled_latency_hist(&per_shard).snapshot();
        let to_s = |cycles: u64| cycles as f64 / clock_hz;
        let dist = SampleStats {
            min: to_s(lat.min),
            median: to_s(lat.p50),
            mean: lat.mean() / clock_hz,
            p50: to_s(lat.p50),
            p99: to_s(lat.p99),
            p999: to_s(lat.p999),
            iters: lat.count,
        };
        group.report_stats(
            BenchmarkId::new("latency_p50", format!("{sessions}-sessions")),
            dist,
            None,
        );
        group.report_stats(
            BenchmarkId::new("latency_p99", format!("{sessions}-sessions")),
            SampleStats {
                median: to_s(lat.p99),
                ..dist
            },
            None,
        );

        // The same percentile model over the degraded run: the crashed
        // chip's cycle count carries the replayed span and the retried
        // batches, so its hosted requests stretch the tail.
        let mut deg_hosted = [0usize; SHARDS];
        for client in &deg_clients {
            deg_hosted[(client.window().warp_start / warps_per_shard) as usize] +=
                REQUESTS_PER_SESSION;
        }
        let deg_per_shard: Vec<(u64, usize)> = deg_stats
            .shards
            .iter()
            .map(|s| (s.profiler.cycles, deg_hosted[s.shard]))
            .filter(|&(_, h)| h > 0)
            .collect();
        let deg_lat = modeled_latency_hist(&deg_per_shard).snapshot();
        group.report_stats(
            BenchmarkId::new("degraded_latency_p99", format!("{sessions}-sessions")),
            SampleStats {
                min: to_s(deg_lat.min),
                median: to_s(deg_lat.p99),
                mean: deg_lat.mean() / clock_hz,
                p50: to_s(deg_lat.p50),
                p99: to_s(deg_lat.p99),
                p999: to_s(deg_lat.p999),
                iters: deg_lat.count,
            },
            None,
        );

        // --- Wall-clock trajectory (host-bound; shard workers need real
        //     cores to overlap — see the module docs).
        group.throughput(Throughput::Elements(requests));
        group.bench_with_input(
            BenchmarkId::new("wall_gateway", format!("{sessions}-sessions")),
            &sessions,
            |b, _| b.iter(|| run_gateway(&clients, elems)),
        );
        group.bench_with_input(
            BenchmarkId::new("wall_sequential", format!("{sessions}-sessions")),
            &sessions,
            |b, _| b.iter(|| run_sequential(&seq_dev, sessions, elems)),
        );
    }
    group.finish();
}

/// Open-loop latency-vs-load sweep (`pim-loadgen`): seeded Poisson
/// traffic against a fresh single-chip gateway per
/// operating point, walking offered load from well under to well past the
/// service's knee. Rows:
///
/// * `open_loop_knee` — highest offered load (requests per **modeled**
///   second, 1 cycle = 1 µs) still achieving ≥ 95% goodput, carried in
///   `per_sec_median`;
/// * `open_loop_collapse` — lowest offered load whose windowed gateway
///   queue-wait p99 diverged (falls back to the highest swept load when
///   no point collapsed);
/// * `open_loop_p99_70` — end-to-end latency distribution (modeled
///   seconds) at the ~70%-of-peak healthy operating point.
///
/// Single-chip execution is inline and deterministic, so these rows are
/// stable across runs of the same code — modeled values, not wall noise.
fn bench_open_loop(c: &mut Criterion) {
    use pim_loadgen::{
        latency_vs_load, run, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, SloConfig,
        MODELED_CYCLES_PER_SEC,
    };

    let make_gateway = || -> Result<pim_serve::Gateway> {
        let dev = Device::new(PimConfig::small().with_crossbars(8))?;
        Ok(dev.serve(ServeConfig {
            max_queue_depth: 0, // open loop: overload must queue, not reject
            ..ServeConfig::default()
        }))
    };
    let base_cfg = |rate: f64| LoadgenConfig {
        seed: 2024,
        horizon_cycles: 200_000,
        window_cycles: 40_000,
        classes: vec![
            ClassSpec::new(
                "elementwise",
                RequestShape::Elementwise,
                ArrivalProfile::Poisson { rate: rate * 0.6 },
                16,
            ),
            ClassSpec::new(
                "fused",
                RequestShape::Fused,
                ArrivalProfile::Poisson { rate: rate * 0.4 },
                16,
            ),
        ],
        sessions_per_class: 1,
        latency_target_cycles: 0,
        drain: false,
    };

    // Calibration: a heavily saturated probe's goodput is the service
    // capacity; the sweep brackets it.
    let probe = run(&make_gateway().unwrap(), &base_cfg(30_000.0)).unwrap();
    let mu_max = probe.achieved_rps.max(1.0);
    let sweep = latency_vs_load(
        make_gateway,
        &base_cfg(mu_max),
        &[0.3, 0.5, 0.7, 0.9, 1.1, 1.5],
        SloConfig::default(),
    )
    .unwrap();

    let mut group = c.benchmark_group("serve");
    group.report_metric(
        "open_loop_knee",
        1.0,
        Some(Throughput::Elements(sweep.knee_rps.round() as u64)),
    );
    let max_offered = sweep
        .points
        .iter()
        .map(|p| p.offered_rps)
        .fold(0.0_f64, f64::max);
    group.report_metric(
        "open_loop_collapse",
        1.0,
        Some(Throughput::Elements(
            sweep.collapse_rps.unwrap_or(max_offered).round() as u64,
        )),
    );
    let peak = sweep
        .points
        .iter()
        .map(|p| p.achieved_rps)
        .fold(0.0_f64, f64::max);
    let healthy = sweep
        .points
        .iter()
        .min_by(|a, b| {
            let da = (a.achieved_rps - 0.7 * peak).abs();
            let db = (b.achieved_rps - 0.7 * peak).abs();
            da.partial_cmp(&db).unwrap()
        })
        .expect("sweep has points");
    let to_s = |cycles: u64| cycles as f64 / MODELED_CYCLES_PER_SEC;
    group.report_stats(
        "open_loop_p99_70",
        SampleStats {
            min: to_s(healthy.slo.p50_cycles),
            median: to_s(healthy.slo.p99_cycles),
            mean: to_s(healthy.slo.p99_cycles),
            p50: to_s(healthy.slo.p50_cycles),
            p99: to_s(healthy.slo.p99_cycles),
            p999: to_s(healthy.slo.p999_cycles),
            iters: healthy.slo.completed,
        },
        None,
    );
    group.finish();
}

/// Multi-host degraded serving (`pim-fleet` + `pim-loadgen`): seeded
/// open-loop Poisson traffic over a three-host fleet whose *leader* is
/// crashed mid-horizon. The lease elector detects the lapse on the
/// modeled clock, re-elects, and re-places the orphaned sessions;
/// in-flight results against the dead placement are discarded and
/// re-issued. Rows:
///
/// * `fleet_degraded_leader_kill` — modeled requests/s actually achieved
///   across the whole run, failover included (the gap to the fault-free
///   gateway rows is the fleet-level recovery tax);
/// * `fleet_failover_recovery_cycles` — distribution of failover
///   detection latency (modeled seconds from a host's last heartbeat to
///   the lapse being declared); the headline is the p99.
///
/// Hosts are single-chip gateways, so execution is
/// inline and the rows replay bit-identically from the seed.
fn bench_fleet(c: &mut Criterion) {
    use pim_fault::HostFaultPlan;
    use pim_fleet::{Fleet, FleetConfig};
    use pim_loadgen::{
        run_fleet, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, MODELED_CYCLES_PER_SEC,
    };

    let fleet = Fleet::new(FleetConfig {
        hosts: 3,
        chip: PimConfig::small().with_crossbars(8),
        serve: ServeConfig {
            max_queue_depth: 0, // open loop: overload must queue, not reject
            ..ServeConfig::default()
        },
        fault: HostFaultPlan::none().crash_at(0, 150_000),
        ..FleetConfig::default()
    })
    .unwrap();
    let cfg = LoadgenConfig {
        seed: 2024,
        horizon_cycles: 300_000,
        window_cycles: 60_000,
        classes: vec![
            ClassSpec::new(
                "fused",
                RequestShape::Fused,
                ArrivalProfile::Poisson { rate: 80.0 },
                16,
            ),
            ClassSpec::new(
                "reduction",
                RequestShape::Reduction,
                ArrivalProfile::Poisson { rate: 20.0 },
                16,
            ),
        ],
        sessions_per_class: 2,
        latency_target_cycles: 0,
        drain: true,
    };
    let report = run_fleet(&fleet, &cfg).unwrap();
    assert_eq!(report.fleet.failovers, 1, "leader-kill schedule must fire");
    assert_eq!(report.fleet.leader_changes, 1);
    assert_eq!(report.completed + report.failed, report.injected);
    assert_eq!(report.failed, 0, "two survivors must absorb the load");
    assert!(report.failover_cycles.count >= 1);

    let mut group = c.benchmark_group("serve");
    group.report_metric(
        "fleet_degraded_leader_kill",
        report.end_cycle as f64 / MODELED_CYCLES_PER_SEC,
        Some(Throughput::Elements(report.completed)),
    );
    let fo = &report.failover_cycles;
    let to_s = |cycles: u64| cycles as f64 / MODELED_CYCLES_PER_SEC;
    group.report_stats(
        "fleet_failover_recovery_cycles",
        SampleStats {
            min: to_s(fo.min),
            median: to_s(fo.p99),
            mean: fo.mean() / MODELED_CYCLES_PER_SEC,
            p50: to_s(fo.p50),
            p99: to_s(fo.p99),
            p999: to_s(fo.p999),
            iters: fo.count,
        },
        None,
    );
    group.finish();
}

criterion_group!(benches, bench_serve, bench_open_loop, bench_fleet);
criterion_main!(benches);
