//! Fault injection and recovery, end to end: a seeded fault schedule
//! against the sharded cluster must never hang and never silently corrupt
//! — every request either completes bit-identical to a fault-free run or
//! resolves to a typed error — and the supervisor's checkpoint+replay
//! respawn restores shard state so post-crash work is bit-identical.

use futures::executor::{block_on, block_on_timeout};
use proptest::prelude::*;
use pypim::cluster::{ClusterError, PimCluster};
use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::serve::ClusterClient;
use pypim::{
    ClusterOptions, Device, DeviceServeExt, ErrorClass, FaultInjector, FaultPlan, FaultProfile,
    PimConfig, RecoveryConfig, Result, ServeConfig,
};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 2;

fn cfg() -> PimConfig {
    PimConfig::small().with_crossbars(4)
}

fn faulty_device(plan: FaultPlan, recovery: RecoveryConfig) -> (Device, Arc<FaultInjector>) {
    let injector = Arc::new(FaultInjector::new(plan, SHARDS));
    let dev = Device::cluster_with_options(
        cfg(),
        SHARDS,
        ClusterOptions {
            recovery,
            fault: Some(Arc::clone(&injector)),
            ..ClusterOptions::default()
        },
    )
    .unwrap();
    (dev, injector)
}

/// The same faulty cluster on each transport — shard worker threads, then
/// the caller's thread — each with its own injector over `plan`.
fn both_transports(
    plan: &FaultPlan,
    recovery: &RecoveryConfig,
) -> [(PimCluster, Arc<FaultInjector>); 2] {
    [PimCluster::with_options, PimCluster::inline].map(|build| {
        let injector = Arc::new(FaultInjector::new(plan.clone(), SHARDS));
        let options = ClusterOptions {
            recovery: recovery.clone(),
            fault: Some(Arc::clone(&injector)),
            ..ClusterOptions::default()
        };
        (build(cfg(), SHARDS, options).unwrap(), injector)
    })
}

/// The serving request used throughout: `sum(x * 2 + x)`, one read at the
/// very end (reads bypass the gateway's retry machinery, so the fault
/// schedules below target the execution phase).
async fn request(client: &ClusterClient, n: usize, seed: f32) -> Result<f32> {
    let data: Vec<f32> = (0..n).map(|i| seed + i as f32 * 0.25).collect();
    let x = client.step(|p| p.upload_f32(&data)).await?;
    let y = client.step(|p| p.full_f32(n, 2.0)).await?;
    let xy = client.step(|p| p.mul(&x, &y)).await?;
    let z = client.step(|p| p.add(&xy, &x)).await?;
    client.sum_f32(&z).await
}

/// Fault-free reference bits for `request(n, seed)`.
fn reference_bits(n: usize, seed: f32) -> u32 {
    let dev = Device::cluster(cfg(), SHARDS).unwrap();
    let gw = dev.serve(ServeConfig::default());
    let client = gw.session_with_warps(4).unwrap();
    block_on(request(&client, n, seed)).unwrap().to_bits()
}

// ---------------------------------------------------------------------
// Zero-cost / bit-identical when no fault is scheduled
// ---------------------------------------------------------------------

#[test]
fn empty_injector_and_recovery_are_bit_identical_to_plain_cluster() {
    let program = |dev: &Device| -> (Vec<u32>, String) {
        let x = dev
            .from_slice_f32(&[1.5, -2.25, 3.0, 0.125, 9.5, -7.75, 0.0, 4.5])
            .unwrap();
        let y = dev.full_f32(8, 3.5).unwrap();
        let z = (&(&x * &y).unwrap() + &x).unwrap();
        let bits: Vec<u32> = z
            .to_vec_f32()
            .unwrap()
            .into_iter()
            .map(f32::to_bits)
            .collect();
        let mut bits = bits;
        bits.push(z.sum_f32().unwrap().to_bits());
        // Per-shard profiler and issued-cycle counters: the modeled work,
        // not just the values, must be unchanged by the idle machinery.
        (
            bits,
            format!("{:?}", dev.cluster_stats().unwrap().unwrap().shards),
        )
    };

    let plain = program(&Device::cluster(cfg(), SHARDS).unwrap());
    let (dev, injector) = faulty_device(FaultPlan::none(), RecoveryConfig::default());
    let armed = program(&dev);

    assert_eq!(plain.0, armed.0, "values diverged with an empty injector");
    assert_eq!(
        plain.1, armed.1,
        "modeled work diverged with an empty injector"
    );
    assert_eq!(injector.stats().injected(), 0);
    assert_eq!(dev.cluster_stats().unwrap().unwrap().worker_restarts, 0);
}

// ---------------------------------------------------------------------
// Supervision: typed error, respawn, checkpoint+replay
// ---------------------------------------------------------------------

/// Runs the cluster-level crash/recover scenario under `recovery`:
/// batch 1 commits, batch 2 dies with a typed transient error, the retry
/// lands on the respawned worker, and the final reads are bit-identical
/// to a fault-free run.
fn crash_recover_scenario(recovery: RecoveryConfig) {
    let all = |c: &PimCluster| ThreadRange::all(c.logical_config());
    let batch1 = |all: ThreadRange| {
        vec![
            Instruction::Write {
                reg: 0,
                value: 30,
                target: all,
            },
            Instruction::Write {
                reg: 1,
                value: 12,
                target: all,
            },
        ]
    };
    let batch2 = |all: ThreadRange| {
        vec![Instruction::RType {
            op: RegOp::Add,
            dtype: DType::Int32,
            dst: 2,
            srcs: [0, 1, 0],
            target: all,
        }]
    };

    // Fault-free reference.
    let clean = PimCluster::new(cfg(), SHARDS).unwrap();
    let r = all(&clean);
    clean.execute_batch(&batch1(r)).unwrap();
    clean.execute_batch(&batch2(r)).unwrap();
    let expected: Vec<Option<u32>> = (0..8)
        .map(|w| {
            clean
                .execute(&Instruction::Read {
                    reg: 2,
                    warp: w,
                    row: 3,
                })
                .unwrap()
        })
        .collect();

    // Shard 0's second executable job (the RType batch) crashes its worker.
    for (cluster, injector) in both_transports(&FaultPlan::none().crash_at(0, 1), &recovery) {
        let r = all(&cluster);
        cluster.execute_batch(&batch1(r)).unwrap();

        let err = cluster.execute_batch(&batch2(r)).unwrap_err();
        assert!(
            matches!(err, ClusterError::WorkerCrashed { shard: 0 }),
            "expected typed crash error, got {err:?}"
        );
        assert_eq!(err.class(), ErrorClass::Transient);

        // Retry: the send path respawns the worker from checkpoint+journal,
        // so batch 1's writes are intact and the retried batch completes.
        cluster.execute_batch(&batch2(r)).unwrap();
        let got: Vec<Option<u32>> = (0..8)
            .map(|w| {
                cluster
                    .execute(&Instruction::Read {
                        reg: 2,
                        warp: w,
                        row: 3,
                    })
                    .unwrap()
            })
            .collect();
        assert_eq!(got, expected, "post-recovery state diverged");
        assert_eq!(injector.stats().worker_crashes, 1);
        assert_eq!(cluster.stats().unwrap().worker_restarts, 1);
    }
}

#[test]
fn crash_recovers_bit_identically_from_default_checkpoints() {
    crash_recover_scenario(RecoveryConfig::default());
}

#[test]
fn crash_recovers_bit_identically_under_tight_checkpoint_bounds() {
    // A tiny instruction bound forces a checkpoint between the batches,
    // exercising snapshot-restore rather than pure journal replay.
    crash_recover_scenario(RecoveryConfig {
        checkpoint_max_instructions: 1,
        ..RecoveryConfig::default()
    });
    // A huge bound forces the opposite: pure replay from the initial
    // snapshot.
    crash_recover_scenario(RecoveryConfig {
        checkpoint_max_instructions: usize::MAX,
        checkpoint_interval_cycles: u64::MAX,
        ..RecoveryConfig::default()
    });
}

#[test]
fn journal_replay_restores_a_scatter_bit_identically() {
    // A scatter is journaled instruction by instruction and replayed
    // through the same bulk path that executed it: the revived shard holds
    // the same words and the replay counts one instruction per cell.
    let cfg = cfg();
    let cells: Vec<(u32, u32)> = (0..150u32)
        .map(|i| (i * 5 / cfg.rows as u32 % 8, i * 5 % cfg.rows as u32))
        .collect();
    let word = |i: usize| 0x85EB_CA6Bu32.wrapping_mul(i as u32 + 3);
    let writes: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, &(warp, row))| pypim::cluster::GlobalWrite::new(warp, row, 1, word(i)))
        .collect();
    let on_shard_0 = cells.iter().filter(|&&(warp, _)| warp < 4).count() as u64;
    assert!(on_shard_0 > 64 && on_shard_0 < 150);
    let locs: Vec<_> = cells.iter().map(|&(warp, row)| (warp, row, 1)).collect();

    // Shard 0's second job — its half of the gather — crashes the worker;
    // no checkpoint in between, so recovery is pure replay of the scatter.
    let pure_replay = RecoveryConfig {
        checkpoint_max_instructions: usize::MAX,
        checkpoint_interval_cycles: u64::MAX,
        ..RecoveryConfig::default()
    };
    for (cluster, _) in both_transports(&FaultPlan::none().crash_at(0, 1), &pure_replay) {
        cluster.scatter(&writes).unwrap();
        let err = cluster.gather(&locs).unwrap_err();
        assert!(
            matches!(err, ClusterError::WorkerCrashed { shard: 0 }),
            "{err:?}"
        );
        let got = cluster.gather(&locs).unwrap();
        assert_eq!(got, (0..cells.len()).map(word).collect::<Vec<_>>());
        let stats = cluster.stats().unwrap();
        assert_eq!(stats.worker_restarts, 1);
        assert_eq!(stats.replayed_instructions, on_shard_0);
    }
}

#[test]
fn recovery_disabled_turns_crashes_into_permanent_disconnects() {
    let off = RecoveryConfig {
        enabled: false,
        ..RecoveryConfig::default()
    };
    for (cluster, _) in both_transports(&FaultPlan::none().crash_at(0, 0), &off) {
        let r = ThreadRange::all(cluster.logical_config());
        let batch = vec![Instruction::Write {
            reg: 0,
            value: 7,
            target: r,
        }];
        assert!(cluster.execute_batch(&batch).is_err());
        // Without a journal there is nothing to respawn from: the shard
        // stays down, but errors remain typed — no panics, no hangs.
        let err = cluster.execute_batch(&batch).unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::Disconnected { .. } | ClusterError::WorkerCrashed { .. }
            ),
            "{err:?}"
        );
        // Stats need every worker alive; with shard 0 permanently down
        // they error, typed, rather than hang.
        assert!(cluster.stats().is_err());
    }
}

#[test]
fn a_stall_charges_its_cycles_on_either_transport() {
    // Shard 0's first executable job stalls 500 modeled cycles; both shards
    // then run the same fill, so the stall is the whole difference.
    let stalled = FaultPlan::none().stall_at(0, 0, 500);
    for (cluster, injector) in both_transports(&stalled, &RecoveryConfig::default()) {
        let target = ThreadRange::all(cluster.logical_config());
        cluster
            .execute(&Instruction::Write {
                reg: 0,
                value: 7,
                target,
            })
            .unwrap();
        let shards = cluster.stats().unwrap().shards;
        assert_eq!(shards[0].profiler.cycles, shards[1].profiler.cycles + 500);
        assert_eq!(injector.stats().stall_cycles, 500);
    }
}

// ---------------------------------------------------------------------
// Gateway absorbs transient faults
// ---------------------------------------------------------------------

#[test]
fn gateway_retries_absorb_a_worker_crash_transparently() {
    // The first session's 4-warp window lands on shard 0; its second
    // executable job (the fill batch) crashes the worker mid-request.
    let (dev, injector) =
        faulty_device(FaultPlan::none().crash_at(0, 1), RecoveryConfig::default());
    let gw = dev.serve(ServeConfig::default());
    let client = gw.session_with_warps(4).unwrap();

    let got = block_on_timeout(request(&client, 8, 1.0), Duration::from_secs(30))
        .expect("request hung under fault injection")
        .expect("gateway retry should absorb the crash");
    assert_eq!(
        got.to_bits(),
        reference_bits(8, 1.0),
        "retried result diverged"
    );

    assert_eq!(injector.stats().worker_crashes, 1);
    let stats = gw.stats();
    assert!(stats.retries >= 1, "crash was not retried: {stats:?}");

    // All the new robustness counters render in the unified snapshot.
    let snap = gw.metrics_snapshot().unwrap();
    let json = snap.to_json();
    for key in [
        "fault.injected",
        "cluster.worker_restarts",
        "cluster.replayed_instructions",
        "serve.retries",
        "serve.deadline_misses",
        "serve.rejected_overload",
    ] {
        assert!(json.contains(key), "missing metric {key} in {json}");
    }
}

#[test]
fn retry_budget_exhaustion_surfaces_the_typed_error() {
    // More crashes than the gateway will retry: the transient error must
    // eventually surface, typed, rather than loop forever.
    let plan = FaultPlan::none()
        .crash_at(0, 1)
        .crash_at(0, 2)
        .crash_at(0, 3);
    let (dev, injector) = faulty_device(plan, RecoveryConfig::default());
    let gw = dev.serve(ServeConfig {
        max_retries: 1,
        ..ServeConfig::default()
    });
    let client = gw.session_with_warps(4).unwrap();

    let expected = reference_bits(8, 2.0);
    let mut saw_typed_error = false;
    let mut recovered = false;
    // Three consecutive crashes against a retry budget of one: some
    // requests fail (typed), and once the schedule drains a request must
    // succeed bit-identically — the cluster never wedges.
    for _ in 0..6 {
        let outcome = block_on_timeout(request(&client, 8, 2.0), Duration::from_secs(30))
            .expect("request hung under fault injection");
        match outcome {
            Ok(v) => {
                assert_eq!(v.to_bits(), expected, "post-crash result diverged");
                recovered = true;
                break;
            }
            Err(e) => {
                assert_eq!(e.class(), ErrorClass::Transient, "untyped error {e:?}");
                saw_typed_error = true;
            }
        }
    }
    assert!(saw_typed_error, "retry budget of 1 absorbed 3 crashes?");
    assert!(
        recovered,
        "cluster did not recover after the schedule drained"
    );
    assert_eq!(injector.stats().worker_crashes, 3);
}

// ---------------------------------------------------------------------
// Combined schedules: worker crash overlapping a link-fault window
// ---------------------------------------------------------------------

/// A request whose reduction *must* cross the interconnect: 512 elements
/// fill all 8 warps of the session window (4 per chip), so the first fold
/// copies shard 1's half onto shard 0 through staged bursts — the traffic
/// cycle-window link faults target. Values are exact multiples of 0.25,
/// so every partial sum is exactly representable and the result's bits
/// are placement- and order-independent.
async fn crossing_request(client: &ClusterClient, seed: f32) -> Result<f32> {
    let data: Vec<f32> = (0..512).map(|i| seed + (i % 16) as f32 * 0.25).collect();
    let x = client.step(|p| p.upload_f32(&data)).await?;
    client.sum_f32(&x).await
}

/// Fault-free reference bits for `crossing_request(seed)`.
fn crossing_reference_bits(seed: f32) -> u32 {
    let dev = Device::cluster(cfg(), SHARDS).unwrap();
    let gw = dev.serve(ServeConfig::default());
    let client = gw.session_with_warps(8).unwrap();
    block_on(crossing_request(&client, seed)).unwrap().to_bits()
}

#[test]
fn crash_inside_corruption_window_is_absorbed_by_one_retry_budget() {
    // Two overlapping fault sources: shard 0's worker crashes on its
    // second job while every staged burst in the first 6 000 modeled
    // cycles corrupts (detected). Retry backoff advances the modeled
    // clock, so retries *walk the request out of the window* — one
    // generous budget absorbs both faults transparently.
    let plan = FaultPlan::none().crash_at(0, 1).corrupt_window(0, 6_000);
    let (dev, injector) = faulty_device(plan, RecoveryConfig::default());
    let gw = dev.serve(ServeConfig {
        max_retries: 5,
        retry_backoff_cycles: 3_000,
        ..ServeConfig::default()
    });
    // An 8-warp window spans both chips so reductions stage crossing
    // bursts — the traffic the window corrupts.
    let client = gw.session_with_warps(8).unwrap();

    let got = block_on_timeout(crossing_request(&client, 3.0), Duration::from_secs(30))
        .expect("request hung under combined schedule")
        .expect("budget of 5 should absorb crash + window");
    assert_eq!(
        got.to_bits(),
        crossing_reference_bits(3.0),
        "combined-fault result diverged"
    );
    assert_eq!(injector.stats().worker_crashes, 1);
    assert!(
        injector.stats().link_corrupted >= 1,
        "window never fired: {:?}",
        injector.stats()
    );
    assert!(gw.stats().retries >= 2, "both faults should cost retries");
}

#[test]
fn tight_budget_under_combined_schedule_stays_typed_then_drains() {
    // Same overlap, but a budget of one cannot cross a 6 000-cycle window
    // with 1 000-cycle backoffs: some requests must surface the typed
    // transient error. Later requests start with the clock already past
    // the window, so the fleet of faults drains and service recovers
    // bit-identically — never a hang, never corruption.
    let plan = FaultPlan::none().crash_at(0, 1).corrupt_window(0, 6_000);
    let (dev, injector) = faulty_device(plan, RecoveryConfig::default());
    let gw = dev.serve(ServeConfig {
        max_retries: 1,
        retry_backoff_cycles: 1_000,
        ..ServeConfig::default()
    });
    let client = gw.session_with_warps(8).unwrap();

    let expected = crossing_reference_bits(6.0);
    let mut saw_typed_error = false;
    let mut recovered = false;
    for _ in 0..10 {
        let outcome = block_on_timeout(crossing_request(&client, 6.0), Duration::from_secs(30))
            .expect("request hung under combined schedule");
        match outcome {
            Ok(v) => {
                assert_eq!(v.to_bits(), expected, "post-drain result diverged");
                recovered = true;
                break;
            }
            Err(e) => {
                assert_eq!(e.class(), ErrorClass::Transient, "untyped error {e:?}");
                saw_typed_error = true;
                // Failed attempts still advance the modeled clock via
                // backoff; force progress out of the window regardless.
                dev.telemetry().advance_clock(dev.telemetry().now() + 1_000);
            }
        }
    }
    assert!(
        saw_typed_error,
        "a budget of 1 crossed a 6-backoff-wide window?"
    );
    assert!(recovered, "service did not recover after the window closed");
    assert!(injector.stats().link_corrupted >= 1);
}

#[test]
fn drop_window_partitions_the_link_then_heals() {
    // A pure cycle-window partition (every burst dropped, no worker
    // faults): inside the window crossing requests resolve typed; once
    // the modeled clock passes the window's end the same session serves
    // bit-identically again.
    let plan = FaultPlan::none().drop_window(2_000, 10_000);
    let (dev, injector) = faulty_device(plan, RecoveryConfig::default());
    let gw = dev.serve(ServeConfig {
        max_retries: 0,
        ..ServeConfig::default()
    });
    let client = gw.session_with_warps(8).unwrap();

    // Park the clock inside the window: with no retries, the first
    // crossing burst surfaces the typed link fault immediately.
    dev.telemetry().advance_clock(2_000);
    let err = block_on_timeout(crossing_request(&client, 7.0), Duration::from_secs(30))
        .expect("request hung inside drop window")
        .expect_err("a dropped burst with no retries must surface");
    assert_eq!(err.class(), ErrorClass::Transient, "{err:?}");
    assert!(injector.stats().link_dropped >= 1);

    // Heal: jump past the window and the same session works again.
    dev.telemetry().advance_clock(10_000);
    let got = block_on_timeout(crossing_request(&client, 7.0), Duration::from_secs(30))
        .expect("request hung after window closed")
        .expect("healed link should serve");
    assert_eq!(got.to_bits(), crossing_reference_bits(7.0));
}

// ---------------------------------------------------------------------
// Property: seeded schedules never hang and never silently corrupt
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded single-shard fault schedule (crashes, stalls, link
    /// drops/corruptions): every request either completes bit-identical
    /// to the fault-free reference or resolves to a *typed* error, within
    /// a wall-clock bound — no hangs, no silent corruption, and the
    /// cluster serves correctly once the schedule drains.
    #[test]
    fn seeded_fault_schedules_never_hang_or_corrupt(
        seed in any::<u64>(),
        shard in 0usize..SHARDS,
    ) {
        let profile = FaultProfile {
            shards: SHARDS,
            single_shard: Some(shard),
            worker_crashes: 2,
            worker_stalls: 1,
            max_stall_cycles: 512,
            link_drops: 1,
            link_corruptions: 1,
            // Six jobs a request: every fault lands within the first three.
            job_horizon: 16,
            burst_horizon: 4,
        };
        let plan = FaultPlan::from_seed(seed, &profile);
        let (dev, injector) = faulty_device(plan.clone(), RecoveryConfig::default());
        let gw = dev.serve(ServeConfig { max_retries: 3, ..ServeConfig::default() });
        // An 8-warp window spans both chips, so reductions cross the
        // interconnect and the schedule's link faults can fire too.
        let client = gw.session_with_warps(8).unwrap();

        let expected = reference_bits(8, 4.0);
        for attempt in 0..4 {
            match block_on_timeout(request(&client, 8, 4.0), Duration::from_secs(30)) {
                Ok(Ok(v)) => {
                    prop_assert_eq!(
                        v.to_bits(), expected,
                        "silent corruption under plan {:?}", plan
                    );
                }
                Ok(Err(e)) => {
                    // Typed resolution is acceptable while faults fire;
                    // the error must carry a retry class.
                    let class = e.class();
                    prop_assert!(
                        class == ErrorClass::Transient || class == ErrorClass::Fatal,
                        "unexpected class {:?} for {:?}", class, e
                    );
                }
                Err(_) => prop_assert!(false, "request hung under plan {:?}", plan),
            }
            // Once every scheduled fault has fired, requests must succeed.
            if injector.stats().injected() >= plan.len() as u64 && attempt >= 1 {
                break;
            }
        }
        let drained = block_on_timeout(request(&client, 8, 5.0), Duration::from_secs(30));
        match drained {
            Ok(Ok(v)) => prop_assert_eq!(v.to_bits(), reference_bits(8, 5.0)),
            Ok(Err(e)) => {
                // A schedule can still hold unfired faults (the workload
                // may never reach their job indices); only transient
                // errors are acceptable here.
                prop_assert_eq!(e.class(), ErrorClass::Transient, "{:?}", e);
            }
            Err(_) => prop_assert!(false, "drain request hung under plan {:?}", plan),
        }
    }
}
