//! Perfetto trace export of one served workload: run a crossing request
//! mix through the `pim-serve` gateway with telemetry recording, then dump
//! a Chrome trace-event JSON (`chrome://tracing` / https://ui.perfetto.dev)
//! with one track per shard plus the gateway admission and
//! interconnect tracks — every slice tagged with the `RequestId` it is
//! attributed to, on the modeled clock (1 cycle rendered as 1 µs).
//!
//! The example self-checks the attribution story end to end: at least one
//! request's span tree must cover its gateway admission span, a shard
//! execution slice, and a cross-chip interconnect burst, all
//! carrying the same id.
//!
//! Run with: `cargo run --release --example trace_export [output.json]`

use futures::executor::block_on;
use futures::future::join_all;
use pypim::serve::ClusterClient;
use pypim::{Device, DeviceServeExt, PimConfig, RequestId, Result, ServeConfig};
use std::collections::BTreeSet;

const SHARDS: usize = 4;
const CLIENTS: usize = 2;
const REQUESTS_PER_CLIENT: usize = 2;

/// The per-request program: `sum(x * y + x)` as one fused gateway
/// submission. The session windows below span two chips each, so the
/// logarithmic reduction's warp moves cross a chip boundary and ride the
/// modeled interconnect.
async fn serve_request(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let mut plan = client.plan();
    let x = plan.upload_f32(values)?;
    let y = plan.full_f32(values.len(), 2.0)?;
    let xy = plan.mul(&x, &y)?;
    let z = plan.add(&xy, &x)?;
    let sum = plan.reduce(&z, pypim::RegOp::Add)?;
    plan.run().await?;
    Ok(client.to_vec_f32(&sum).await?[0])
}

fn main() -> Result<()> {
    // 4 chips x 4 crossbars x 64 rows -> 16 logical warps, 4 per chip.
    let dev = Device::cluster(PimConfig::small().with_crossbars(4), SHARDS)?;
    let gateway = dev.serve(ServeConfig {
        // Two sessions of 8 warps: each window spans two chips, so every
        // request's reduction crosses the interconnect.
        session_warps: (dev.config().crossbars / 2) as u32,
        ..ServeConfig::default()
    });
    gateway.telemetry().set_enabled(true);

    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session())
        .collect::<Result<_>>()?;
    let elems = (dev.config().crossbars / 2) * dev.config().rows;
    let sums = block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            let mut acc = 0.0f32;
            for req in 0..REQUESTS_PER_CLIENT {
                let values: Vec<f32> = (0..elems)
                    .map(|i| ((cid * 31 + req * 7 + i) % 13) as f32 * 0.25)
                    .collect();
                acc += serve_request(client, &values).await?;
            }
            Ok::<f32, pypim::CoreError>(acc)
        },
    )));
    for s in sums {
        assert!(s?.is_finite());
    }

    // --- Self-check: one request id must span all three layers.
    let telemetry = gateway.telemetry();
    let tracks = telemetry.recorder().tracks();
    let requests_on = |pred: &dyn Fn(&str) -> bool| -> BTreeSet<RequestId> {
        tracks
            .iter()
            .filter(|(name, _, _)| pred(name))
            .flat_map(|(_, events, _)| events.iter())
            .filter(|e| !e.request.is_untagged())
            .map(|e| e.request)
            .collect()
    };
    let admitted = requests_on(&|n| n == "gateway/admission");
    let executed = requests_on(&|n| n.starts_with("shard-"));
    let bursted = requests_on(&|n| n == "cluster/interconnect");
    let full_tree: Vec<RequestId> = admitted
        .iter()
        .filter(|r| executed.contains(r) && bursted.contains(r))
        .copied()
        .collect();
    assert!(
        !full_tree.is_empty(),
        "no request spans admission + shard exec + interconnect burst \
         (admitted {admitted:?}, executed {executed:?}, bursted {bursted:?})"
    );
    for shard in 0..SHARDS {
        let name = format!("shard-{shard}");
        let events = tracks
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, e, _)| e.len())
            .unwrap_or(0);
        assert!(events > 0, "shard track {name} recorded no slices");
    }
    let witness = full_tree[0];
    println!("request {witness} span tree (modeled cycles):");
    for (name, events, _) in &tracks {
        for e in events.iter().filter(|e| e.request == witness) {
            let detail = match e.detail {
                Some((k, v)) => format!(", {k}={v}"),
                None => String::new(),
            };
            println!("  {name:<22} {:<6} [{} +{}){detail}", e.name, e.ts, e.dur);
        }
    }

    // --- Per-session attribution rollup.
    println!("\nper-session attribution:");
    println!(
        "  {:<8} {:>8} {:>10} {:>12} {:>11} {:>11}",
        "session", "requests", "cycles", "cross_words", "link_cyc", "queue_wait"
    );
    for (session, requests, stats) in gateway.session_stats() {
        println!(
            "  s{session:<7} {requests:>8} {:>10} {:>12} {:>11} {:>11}",
            stats.cycles, stats.cross_words, stats.link_cycles, stats.queue_wait
        );
    }

    // --- Export.
    let trace = telemetry.recorder().export_chrome_trace();
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/trace_export.json".into());
    std::fs::write(&path, &trace).expect("write trace JSON");
    println!(
        "\nwrote {path}: {} bytes, {} tracks — load in https://ui.perfetto.dev",
        trace.len(),
        tracks.len(),
    );
    Ok(())
}
