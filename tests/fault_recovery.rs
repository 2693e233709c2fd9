//! Fault injection and recovery, end to end: a seeded fault schedule
//! against the sharded cluster must never hang and never silently corrupt
//! — every request either completes bit-identical to a fault-free run or
//! resolves to a typed error — and checkpoint+replay revival restores
//! shard state so post-crash work is bit-identical.

use futures::executor::{block_on, block_on_timeout};
use proptest::prelude::*;
use pypim::cluster::{ClusterError, GlobalWrite, PimCluster, CHECKPOINT_MAX_INSTRUCTIONS};
use pypim::isa::{DType, Instruction, RegOp, ThreadRange};
use pypim::serve::ClusterClient;
use pypim::sim::Profiler;
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

/// A faulty cluster with its own injector over `plan`.
fn faulty_cluster(plan: FaultPlan, recovery: RecoveryConfig) -> (PimCluster, Arc<FaultInjector>) {
    let injector = Arc::new(FaultInjector::new(plan, SHARDS));
    let options = ClusterOptions {
        recovery,
        fault: Some(Arc::clone(&injector)),
        ..ClusterOptions::default()
    };
    (
        PimCluster::with_options(cfg(), SHARDS, options).unwrap(),
        injector,
    )
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
// Recovery: typed error, revival, checkpoint+replay
// ---------------------------------------------------------------------

/// Asserts that every shard of `revived` equals that shard of its
/// fault-free `twin`: issued cycles and every profiler counter but the
/// cycles, which carry a revival's replay as a stall.
fn assert_twin(twin: &PimCluster, revived: &PimCluster, ctx: &str) {
    let (want, got) = (twin.stats().unwrap(), revived.stats().unwrap());
    let uncycled = |p: &Profiler| Profiler {
        cycles: 0,
        ..p.clone()
    };
    for (w, g) in want.shards.iter().zip(&got.shards) {
        assert_eq!(g.issued, w.issued, "{ctx}: shard {}", w.shard);
        let (g_ops, w_ops) = (uncycled(&g.profiler), uncycled(&w.profiler));
        assert_eq!(g_ops, w_ops, "{ctx}: shard {}", w.shard);
    }
}

/// The modeled cycles `job` costs each shard of `c` (0 across a counter
/// reset).
fn cycles_spent(c: &PimCluster, job: impl FnOnce(&PimCluster)) -> Vec<u64> {
    let cycles = || -> Vec<u64> {
        let shards = c.stats().unwrap().shards;
        shards.iter().map(|s| s.profiler.cycles).collect()
    };
    let before = cycles();
    job(c);
    cycles()
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// Every word of registers 0..8 of the whole cluster, read in one gather.
fn image(c: &PimCluster) -> Vec<u32> {
    let cells: Vec<(u32, u32, u8)> = (0..8u32)
        .flat_map(|warp| (0..64u32).flat_map(move |row| (0..8u8).map(move |reg| (warp, row, reg))))
        .collect();
    c.gather(&cells).unwrap()
}

/// Runs the cluster-level crash/recover scenario: batch 1 — its two
/// fills led by `padding` single-cell writes to shard 0 — commits, batch 2
/// dies with a typed transient error, the retry lands on the revived
/// shard, and the final reads are bit-identical to a fault-free run.
/// Returns the instructions the revival replayed.
fn crash_recover_scenario(padding: u32) -> u64 {
    let all = |c: &PimCluster| ThreadRange::all(c.logical_config());
    let batch1 = |all: ThreadRange| {
        let pad = (0..padding).map(|i| Instruction::Write {
            reg: 3,
            value: i,
            target: ThreadRange::single(i % 4, i / 4 % 64),
        });
        pad.chain([
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
        ])
        .collect::<Vec<_>>()
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

    // Shard 0's second executable job (the RType batch) crashes the shard.
    let (cluster, injector) =
        faulty_cluster(FaultPlan::none().crash_at(0, 1), RecoveryConfig::default());
    let r = all(&cluster);
    cluster.execute_batch(&batch1(r)).unwrap();

    let err = cluster.execute_batch(&batch2(r)).unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerCrashed { shard: 0 }),
        "expected typed crash error, got {err:?}"
    );
    assert_eq!(err.class(), ErrorClass::Transient);

    // Retry: the next job revives the shard from checkpoint+journal,
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
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.worker_restarts, 1);
    stats.replayed_instructions
}

#[test]
fn crash_recovers_bit_identically_from_default_checkpoints() {
    // Batch 1 stays under both checkpoint budgets: the revival is pure
    // replay of its two fills from the initial snapshot.
    assert_eq!(crash_recover_scenario(0), 2);
}

#[test]
fn crash_recovers_bit_identically_under_tight_checkpoint_bounds() {
    // The instruction bound is fixed; batch 1 logs more instructions on
    // shard 0 than it allows, so the shard checkpoints between the
    // batches: the revival restores that snapshot and replays nothing.
    let padding = CHECKPOINT_MAX_INSTRUCTIONS as u32 + 8;
    assert_eq!(crash_recover_scenario(padding), 0);
}

#[test]
fn a_counter_reset_replays_across_a_crash() {
    // Execute, reset the counters, execute again; then shard 0 crashes on
    // its next job, before its next checkpoint, and is revived from a
    // journal that holds the reset between the two executions. The revived
    // shard's issued cycles and counters equal a fault-free twin's (only
    // its cycles differ: they carry the replay, charged as a stall) at
    // revival and again after the retried job, which costs both the same
    // cycles and leaves the twin's memory.
    let twin = PimCluster::new(cfg(), SHARDS).unwrap();
    let all = ThreadRange::all(twin.logical_config());
    let fill = |reg, value| Instruction::Write {
        reg,
        value,
        target: all,
    };
    let rtype = |op, dst, target| Instruction::RType {
        op,
        dtype: DType::Int32,
        dst,
        srcs: [dst - 1, 0, 0],
        target,
    };
    let program = |c: &PimCluster| {
        c.execute_batch(&[fill(0, 30), fill(1, 12)]).unwrap();
        c.reset_counters().unwrap();
        c.execute_batch(&[rtype(RegOp::Add, 2, all)]).unwrap();
    };
    // Shard 0 alone, so the crash stops no other shard's work.
    let on_shard_0 = [rtype(
        RegOp::Sub,
        3,
        ThreadRange::new(
            pypim::RangeMask::new(0, 3, 1).unwrap(),
            pypim::RangeMask::new(0, 63, 1).unwrap(),
        ),
    )];
    program(&twin);
    let (faulted, injector) =
        faulty_cluster(FaultPlan::none().crash_at(0, 2), RecoveryConfig::default());
    program(&faulted);
    assert_eq!(
        faulted.execute_batch(&on_shard_0),
        Err(ClusterError::WorkerCrashed { shard: 0 })
    );
    assert_eq!(injector.stats().worker_crashes, 1);

    // A stats snapshot revives the shard: pure replay of the fills, the
    // reset and the add.
    let got = faulted.stats().unwrap();
    assert_eq!((got.worker_restarts, got.replayed_instructions), (1, 3));
    assert_twin(&twin, &faulted, "at revival");
    let spent = cycles_spent(&faulted, |c| c.execute_batch(&on_shard_0).unwrap());
    let twin_spent = cycles_spent(&twin, |c| c.execute_batch(&on_shard_0).unwrap());
    assert_eq!(spent, twin_spent);
    assert_twin(&twin, &faulted, "at the end");
    assert_eq!(image(&faulted), image(&twin));
}

/// Shard 0 crashes at its k-th job, for every job but the last of a
/// program that touches shard 0 only — fills, an R-type, a row move, a run
/// of warp moves, a scatter, a gather, a counter reset and two more
/// R-types — and the refused job is retried on the revived shard. The
/// faulted cluster runs in lockstep with a fault-free twin: after every
/// job both hold the same issued cycles and counters but the cycles, every
/// job but the retried one (which carries the replay as a stall) costs
/// both the same cycles, and at the end both hold the same image.
#[test]
fn a_crash_at_any_job_revives_the_fault_free_twin() {
    let warps = pypim::RangeMask::new(0, 3, 1).unwrap();
    let rows = |start, end| pypim::RangeMask::dense(start, end).unwrap();
    let target = ThreadRange::new(warps, rows(0, 64));
    let fill = move |reg, value| Instruction::Write { reg, value, target };
    let rtype = move |op, dst, srcs| Instruction::RType {
        op,
        dtype: DType::Int32,
        dst,
        srcs,
        target,
    };
    let move_rows = Instruction::MoveRows {
        src: 2,
        dst: 3,
        src_rows: rows(0, 32),
        dst_rows: rows(32, 64),
        warps,
    };
    let move_warps: Vec<_> = (0..8)
        .map(|i| Instruction::MoveWarps {
            src: 3,
            dst: 4,
            row_src: 32 + i,
            row_dst: i,
            warps: pypim::RangeMask::new(0, 1, 1).unwrap(),
            dist: 2,
        })
        .collect();
    let cells: Vec<(u32, u32)> = (0..40u32).map(|i| (i % 4, i * 7 % 64)).collect();
    let writes: Vec<_> = cells
        .iter()
        .map(|&(warp, row)| GlobalWrite::new(warp, row, 5, warp * 64 + row))
        .collect();
    let reads: Vec<_> = cells.iter().map(|&(warp, row)| (warp, row, 4)).collect();
    type Job = Box<dyn Fn(&PimCluster) -> std::result::Result<(), ClusterError>>;
    let program: Vec<Job> = vec![
        Box::new(move |c| c.execute_batch(&[fill(0, 30)])),
        Box::new(move |c| c.execute_batch(&[fill(1, 12)])),
        Box::new(move |c| c.execute_batch(&[rtype(RegOp::Add, 2, [0, 1, 0])])),
        Box::new(move |c| c.execute_batch(std::slice::from_ref(&move_rows))),
        Box::new(move |c| c.execute_batch(&move_warps)),
        Box::new(move |c| c.scatter(&writes)),
        Box::new(move |c| c.gather(&reads).map(drop)),
        Box::new(|c| c.reset_counters()),
        Box::new(move |c| c.execute_batch(&[rtype(RegOp::Sub, 6, [5, 2, 0])])),
        Box::new(move |c| c.execute_batch(&[rtype(RegOp::Mul, 7, [6, 4, 0])])),
    ];

    // Nine executable jobs: the counter reset is none, so it never crashes
    // a shard. Each but the last, which no job follows, crashes once.
    for k in 0..program.len() as u64 - 2 {
        let twin = PimCluster::new(cfg(), SHARDS).unwrap();
        let (faulted, injector) =
            faulty_cluster(FaultPlan::none().crash_at(0, k), RecoveryConfig::default());
        for (i, job) in program.iter().enumerate() {
            let ctx = format!("crash at job {k}, after step {i}");
            let twin_spent = cycles_spent(&twin, |c| job(c).unwrap());
            let mut retried = false;
            let spent = cycles_spent(&faulted, |c| {
                if let Err(e) = job(c) {
                    assert_eq!(e, ClusterError::WorkerCrashed { shard: 0 }, "{ctx}");
                    retried = true;
                    job(c).unwrap();
                }
            });
            if !retried {
                assert_eq!(spent, twin_spent, "{ctx}");
            }
            assert_twin(&twin, &faulted, &ctx);
        }
        assert_eq!(injector.stats().worker_crashes, 1, "crash at job {k}");
        let restarts = faulted.stats().unwrap().worker_restarts;
        assert_eq!(restarts, 1, "crash at job {k}");
        assert_eq!(image(&faulted), image(&twin), "crash at job {k}");
    }
}

#[test]
fn journal_replay_restores_a_scatter_bit_identically() {
    for planned in [false, true] {
        replay_restores_an_upload(planned);
    }
}

/// A scatter and a gather are journaled as one cell job per shard, and so
/// is a planned upload (`planned`: the same cells as a batch of one-thread
/// writes, which the router turns into each shard's run of cells). Each is
/// replayed through the same step that executed it: the revived shard
/// holds the same words, counters and issued cycles as a fault-free twin,
/// and the replay counts one instruction per cell.
fn replay_restores_an_upload(planned: bool) {
    let cfg = cfg();
    let cells: Vec<(u32, u32)> = (0..150u32)
        .map(|i| (i * 5 / cfg.rows as u32 % 8, i * 5 % cfg.rows as u32))
        .collect();
    let word = |i: usize| 0x85EB_CA6Bu32.wrapping_mul(i as u32 + 3);
    let writes: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, &(warp, row))| GlobalWrite::new(warp, row, 1, word(i)))
        .collect();
    let on_shard_0 = cells.iter().filter(|&&(warp, _)| warp < 4).count() as u64;
    assert!(on_shard_0 > 64 && on_shard_0 < 150);
    let locs: Vec<_> = cells.iter().map(|&(warp, row)| (warp, row, 1)).collect();
    // Read back in another order than written, and cells of shard 0 only.
    let backwards: Vec<_> = locs.iter().rev().copied().collect();
    let shard_0: Vec<_> = locs
        .iter()
        .filter(|&&(warp, ..)| warp < 4)
        .copied()
        .collect();

    // Shard 0's third job — after its half of the upload and of the
    // gather — crashes the shard; both stay under the checkpoint budgets,
    // so recovery is pure replay of the two cell jobs.
    let twin = PimCluster::new(cfg.clone(), SHARDS).unwrap();
    let (cluster, _) = faulty_cluster(FaultPlan::none().crash_at(0, 2), RecoveryConfig::default());
    let planned_writes: Vec<Instruction> = writes
        .iter()
        .map(|w| Instruction::Write {
            reg: w.reg,
            value: w.value,
            target: ThreadRange::single(w.warp, w.row),
        })
        .collect();
    for c in [&twin, &cluster] {
        match planned {
            true => c.execute_batch(&planned_writes).unwrap(),
            false => c.scatter(&writes).unwrap(),
        }
        assert_eq!(
            c.gather(&backwards).unwrap(),
            (0..cells.len()).rev().map(word).collect::<Vec<_>>()
        );
    }
    let err = cluster.gather(&shard_0).unwrap_err();
    assert!(
        matches!(err, ClusterError::WorkerCrashed { shard: 0 }),
        "{err:?}"
    );

    // A stats snapshot revives the shard: issued cycles and every counter
    // but the cycles (which carry the replay, charged as a stall) equal
    // the twin's.
    let got = cluster.stats().unwrap();
    assert_eq!(
        (got.worker_restarts, got.replayed_instructions),
        (1, 2 * on_shard_0)
    );
    assert_twin(&twin, &cluster, "at revival");
    // The next job leaves the twin's words and costs the revived shard
    // exactly what it costs the twin: revival keeps the masks the replay
    // left, so the job's first run elides the crossbar mask of warp 0 on
    // both.
    let next: Vec<_> = writes[1..]
        .iter()
        .map(|w| GlobalWrite {
            value: !w.value,
            ..*w
        })
        .collect();
    assert_eq!((next[0].warp, shard_0[0].0), (0, 0));
    let spent = cycles_spent(&cluster, |c| c.scatter(&next).unwrap());
    assert_eq!(spent, cycles_spent(&twin, |c| c.scatter(&next).unwrap()));
    assert_eq!(cluster.gather(&locs).unwrap(), twin.gather(&locs).unwrap());
    assert_twin(&twin, &cluster, "after the next job");
}

#[test]
fn recovery_disabled_turns_crashes_into_permanent_disconnects() {
    let off = RecoveryConfig { enabled: false };
    let (cluster, _) = faulty_cluster(FaultPlan::none().crash_at(0, 0), off);
    let r = ThreadRange::all(cluster.logical_config());
    let batch = vec![Instruction::Write {
        reg: 0,
        value: 7,
        target: r,
    }];
    assert!(cluster.execute_batch(&batch).is_err());
    // Without a journal there is nothing to revive from: the shard
    // stays down, but errors remain typed — no panics, no hangs.
    let err = cluster.execute_batch(&batch).unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Disconnected { .. } | ClusterError::WorkerCrashed { .. }
        ),
        "{err:?}"
    );
    // Stats need every shard up; with shard 0 permanently down they
    // error, typed, rather than hang.
    assert!(cluster.stats().is_err());
}

/// A cluster with recovery off whose shard 0 crashed on its first job (a
/// one-cell scatter), so it is down for good.
fn shard_0_down() -> PimCluster {
    let off = RecoveryConfig { enabled: false };
    let (cluster, _) = faulty_cluster(FaultPlan::none().crash_at(0, 0), off);
    let crashed = cluster.scatter(&[GlobalWrite::new(0, 1, 0, 1)]);
    assert!(
        matches!(crashed, Err(ClusterError::WorkerCrashed { shard: 0 })),
        "{crashed:?}"
    );
    cluster
}

#[test]
fn a_scatter_past_a_shard_down_for_good_still_runs_the_others() {
    let cluster = shard_0_down();
    // Warp 0 is shard 0's, warp 4 shard 1's: the down shard's job fails
    // as a crashed one would, and shard 1 still runs its own.
    let writes = [GlobalWrite::new(0, 1, 0, 7), GlobalWrite::new(4, 1, 0, 9)];
    let err = cluster.scatter(&writes).unwrap_err();
    assert!(
        matches!(err, ClusterError::Disconnected { shard: 0 }),
        "{err:?}"
    );
    assert_eq!(cluster.gather(&[(4, 1, 0)]).unwrap(), vec![9]);
}

#[test]
fn a_batch_past_a_shard_down_for_good_still_runs_the_others() {
    let cluster = shard_0_down();
    let all = ThreadRange::all(cluster.logical_config());
    let fill = [Instruction::Write {
        reg: 2,
        value: 11,
        target: all,
    }];
    let err = cluster.execute_batch(&fill).unwrap_err();
    assert!(
        matches!(err, ClusterError::Disconnected { shard: 0 }),
        "{err:?}"
    );
    // Every cell of shard 1 (warps 4..8) holds the fill.
    let rows = cluster.logical_config().rows as u32;
    let locs: Vec<_> = (4..8)
        .flat_map(|warp| (0..rows).map(move |row| (warp, row, 2)))
        .collect();
    let unfilled = cluster
        .gather(&locs)
        .unwrap()
        .iter()
        .filter(|&&v| v != 11)
        .count();
    assert_eq!(unfilled, 0, "of {} cells", locs.len());
}

#[test]
fn a_stall_charges_its_cycles_on_either_transport() {
    // Shard 0's first executable job stalls 500 modeled cycles; both shards
    // then run the same fill, so the stall is the whole difference.
    let stalled = FaultPlan::none().stall_at(0, 0, 500);
    let (cluster, injector) = faulty_cluster(stalled, RecoveryConfig::default());
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

// ---------------------------------------------------------------------
// Determinism: a faulted serving run is a function of its seed
// ---------------------------------------------------------------------

/// One run of 8 gateway sessions, each issuing `sum(x * y + x)` as one
/// fused batch plus one read, on a 4-shard cluster with recovery on and
/// telemetry recording, under a seeded schedule of one shard crash and one
/// stall. A request that resolves to a transient error is issued again.
/// Returns every attempt's outcome and its batch's completion stamp, then
/// the gateway's stats, the cluster's stats and the metrics JSON.
#[allow(clippy::type_complexity)]
fn seeded_gateway_run() -> (
    Vec<(std::result::Result<u32, String>, Option<u64>)>,
    pypim::GatewayStats,
    String,
    String,
) {
    const SESSIONS: usize = 8;
    let profile = FaultProfile {
        shards: 4,
        single_shard: None,
        worker_crashes: 1,
        worker_stalls: 1,
        max_stall_cycles: 512,
        link_drops: 0,
        link_corruptions: 0,
        job_horizon: 3,
        burst_horizon: 1,
    };
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::from_seed(0x0DE7, &profile),
        4,
    ));
    let dev = Device::cluster_with_options(
        cfg(),
        4,
        ClusterOptions {
            fault: Some(Arc::clone(&injector)),
            ..ClusterOptions::default()
        },
    )
    .unwrap();
    dev.telemetry().set_enabled(true);
    let gw = dev.serve(ServeConfig {
        session_warps: 2,
        ..ServeConfig::default()
    });
    let clients: Vec<ClusterClient> = (0..SESSIONS).map(|_| gw.session().unwrap()).collect();
    let attempts = block_on(futures::future::join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            let values: Vec<f32> = (0..128)
                .map(|i| ((cid * 31 + i) % 13) as f32 * 0.25)
                .collect();
            let mut attempts = Vec::new();
            for _ in 0..4 {
                let attempt = async {
                    let mut plan = client.plan();
                    let x = plan.upload_f32(&values)?;
                    let y = plan.full_f32(values.len(), 2.0)?;
                    let xy = plan.mul(&x, &y)?;
                    let z = plan.add(&xy, &x)?;
                    let s = plan.reduce(&z, RegOp::Add)?;
                    let mut batch = client.submit(plan.into_instrs());
                    let ran = (&mut batch).await;
                    let done_at = batch.completed_at();
                    let sum = match ran {
                        Ok(()) => client.to_vec_f32(&s).await.map(|v| v[0].to_bits()),
                        Err(e) => Err(e),
                    };
                    Ok::<_, pypim::CoreError>((sum, done_at))
                };
                let (sum, done_at) = attempt.await.unwrap();
                let retry = matches!(&sum, Err(e) if e.class() == ErrorClass::Transient);
                attempts.push((sum.map_err(|e| e.to_string()), done_at));
                if !retry {
                    break;
                }
            }
            attempts
        },
    )));
    let fired = injector.stats();
    assert_eq!(
        (fired.worker_crashes, fired.worker_stalls),
        (1, 1),
        "the whole schedule must fire: {fired:?}"
    );
    (
        attempts.into_iter().flatten().collect(),
        gw.stats(),
        format!("{:?}", dev.cluster_stats().unwrap()),
        gw.metrics_snapshot().unwrap().to_json(),
    )
}

#[test]
fn a_seeded_faulted_gateway_run_replays_identically() {
    let first = seeded_gateway_run();
    assert!(first.0.iter().all(|(_, at)| at.is_some()));
    assert!(first.1.retries >= 1 || first.0.iter().any(|(r, _)| r.is_err()));
    assert!(first.2.contains("worker_restarts: 1"), "{}", first.2);
    assert_eq!(seeded_gateway_run(), first);
}

// ---------------------------------------------------------------------
// Gateway absorbs transient faults
// ---------------------------------------------------------------------

#[test]
fn gateway_retries_absorb_a_worker_crash_transparently() {
    // The first session's 4-warp window lands on shard 0; its second
    // executable job (the fill batch) crashes the shard mid-request.
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
// Combined schedules: shard crash overlapping a link-fault window
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
    // Two overlapping fault sources: shard 0 crashes on its second job
    // while every staged burst in the first 6 000 modeled cycles corrupts
    // (detected). The exponential retry backoff (1 000 cycles, doubling)
    // advances the modeled clock, so retries *walk the request out of the
    // window* — one generous budget absorbs both faults transparently.
    let plan = FaultPlan::none().crash_at(0, 1).corrupt_window(0, 6_000);
    let (dev, injector) = faulty_device(plan, RecoveryConfig::default());
    let gw = dev.serve(ServeConfig {
        max_retries: 5,
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
