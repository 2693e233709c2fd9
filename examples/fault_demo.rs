//! Deterministic fault-injection demo: a seeded fault schedule (worker
//! crashes + stalls on one shard) runs under a multi-request serving
//! workload, the supervisor respawns the crashed shard worker from its
//! checkpoint+journal, and the gateway's retry machinery absorbs the
//! transient failures — every request still returns the fault-free answer.
//!
//! The example self-checks the recovery counters (faults fired, workers
//! respawned, batches retried, values bit-identical to a clean run) and
//! writes the unified [`MetricsSnapshot`] JSON to the path given as the
//! first argument (default `target/fault_demo_metrics.json`) — the CI
//! fault smoke step validates that file.
//!
//! Run with: `cargo run --release --example fault_demo [metrics.json]`

use futures::executor::block_on;
use pypim::serve::ClusterClient;
use pypim::{
    ClusterOptions, Device, DeviceServeExt, FaultInjector, FaultPlan, FaultProfile, PimConfig,
    RecoveryConfig, Result, ServeConfig,
};
use std::sync::Arc;

const SHARDS: usize = 2;
const REQUESTS: usize = 4;
/// Fixed seed: reproducible schedule, reproducible counters.
const SEED: u64 = 0xC0FFEE;

fn config() -> PimConfig {
    PimConfig::small().with_crossbars(4)
}

/// The request program: `sum(x * 2 + x)` — several execution batches, one
/// read at the very end.
async fn request(client: &ClusterClient, n: usize, seed: f32) -> Result<f32> {
    let data: Vec<f32> = (0..n).map(|i| seed + i as f32 * 0.5).collect();
    let x = client.step(|p| p.upload_f32(&data)).await?;
    let y = client.step(|p| p.full_f32(n, 2.0)).await?;
    let xy = client.step(|p| p.mul(&x, &y)).await?;
    let z = client.step(|p| p.add(&xy, &x)).await?;
    client.sum_f32(&z).await
}

fn run_workload(gateway: &pypim::Gateway) -> Result<Vec<u32>> {
    let client = gateway.session_with_warps(4)?;
    let mut bits = Vec::new();
    for req in 0..REQUESTS {
        bits.push(block_on(request(&client, 16, req as f32))?.to_bits());
    }
    Ok(bits)
}

fn main() -> Result<()> {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/fault_demo_metrics.json".into());

    // Fault-free reference run.
    let clean = Device::cluster(config(), SHARDS)?.serve(ServeConfig::default());
    let expected = run_workload(&clean)?;

    // Seeded schedule confined to shard 0: crashes and stalls early in
    // the job stream (the workload above sends dozens of jobs, so a
    // horizon of 6 guarantees every fault fires).
    let plan = FaultPlan::from_seed(
        SEED,
        &FaultProfile {
            shards: SHARDS,
            single_shard: Some(0),
            worker_crashes: 2,
            worker_stalls: 1,
            max_stall_cycles: 2_000,
            link_drops: 0,
            link_corruptions: 0,
            job_horizon: 6,
            burst_horizon: 4,
        },
    );
    println!("fault plan (seed {SEED:#x}): {plan:?}");
    let injector = Arc::new(FaultInjector::new(plan, SHARDS));
    let dev = Device::cluster_with_options(
        config(),
        SHARDS,
        ClusterOptions {
            recovery: RecoveryConfig::default(),
            fault: Some(Arc::clone(&injector)),
            ..ClusterOptions::default()
        },
    )?;
    let gateway = dev.serve(ServeConfig {
        max_retries: 3,
        ..ServeConfig::default()
    });

    let got = run_workload(&gateway)?;
    assert_eq!(
        got, expected,
        "faulted run diverged from the fault-free reference"
    );

    // --- Self-check the recovery counters.
    let fstats = injector.stats();
    let cstats = dev.cluster_stats()?.expect("cluster stats");
    let gstats = gateway.stats();
    println!(
        "faults injected: {} (crashes {}, stalls {} for {} cycles)",
        fstats.injected(),
        fstats.worker_crashes,
        fstats.worker_stalls,
        fstats.stall_cycles
    );
    println!(
        "workers respawned: {}, instructions replayed: {}, gateway retries: {}",
        cstats.worker_restarts, cstats.replayed_instructions, gstats.retries
    );
    assert!(fstats.injected() >= 1, "no fault fired: {fstats:?}");
    assert!(fstats.worker_crashes >= 1, "no crash fired: {fstats:?}");
    assert!(
        cstats.worker_restarts >= 1,
        "crash fired but no worker was respawned"
    );
    assert!(
        gstats.retries >= 1,
        "crash fired but the gateway never retried"
    );

    // --- Export the unified metrics snapshot for the CI smoke check.
    let snap = gateway.metrics_snapshot()?;
    std::fs::write(&out_path, snap.to_json()).expect("write metrics JSON");
    println!("\nmetrics snapshot:");
    print!("{}", snap.render());
    println!("\nwrote {out_path}");
    println!("ok: all {REQUESTS} requests bit-identical through the fault schedule");
    Ok(())
}
