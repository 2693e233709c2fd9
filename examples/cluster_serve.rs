//! Request serving on a sharded multi-chip cluster through the `pim-serve`
//! gateway: one host thread drives every client's requests concurrently —
//! no thread per client, no semaphore bounding in-flight work.
//!
//! Each client session owns a private placement window in the warp space
//! (`Gateway::session`), so concurrent requests allocate in disjoint
//! stripes and the window-exhaustion failure mode that used to require a
//! `MAX_IN_FLIGHT` admission bound is structurally gone; the gateway's
//! in-flight budget is batching backpressure, not a memory-safety valve.
//!
//! Observability: telemetry is switched on for the serving run, so the
//! wrap-up is one unified `MetricsSnapshot` across every layer (`serve.*`
//! admission counters and queue-wait histogram, `cluster.*` traffic,
//! `sim.*` profiler) plus a per-session attribution table — modeled
//! cycles, cross-chip words, link cycles, and queue wait, summed from the
//! `RequestId`-tagged spans each session's requests left behind.
//!
//! Run with: `cargo run --release --example cluster_serve`

use futures::executor::block_on;
use futures::future::join_all;
use pypim::loadgen::MODELED_CYCLES_PER_SEC;
use pypim::serve::ClusterClient;
use pypim::telemetry::WindowSampler;
use pypim::{
    ClusterOptions, Device, DeviceServeExt, InterconnectConfig, PimConfig, Result, ServeConfig,
};
use std::cell::RefCell;
use std::time::{Duration, Instant};

const SHARDS: usize = 4;
const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 2;

/// The per-request program: the paper's Figure 12 function plus a
/// logarithmic reduction — `sum(x * y + x)` — as a *fused* pipeline: the
/// upload, both element-parallel ops, and every reduction level ride one
/// gateway submission, leaving a single read at the end. (A stepwise
/// program — `client.step(|p| p.mul(&x, &y)).await` etc. — runs the same
/// ops one plan per submission.)
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

/// Deterministic request payload for client `cid`, request `req`. Values
/// are small dyadic rationals, so float sums are exact in any order and the
/// host-side check below is bit-exact.
fn payload(cid: usize, req: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| ((cid * 31 + req * 7 + i) % 13) as f32 * 0.25)
        .collect()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() -> Result<()> {
    // Explicit interconnect model: a 128-bit chip-to-chip link with 8
    // cycles of per-message latency. Crossing words travel as one burst
    // per shard pair, and only the shards a transfer touches wait for it.
    let icfg = InterconnectConfig {
        link_bits: 128,
        latency: 8,
    };
    let options = ClusterOptions {
        interconnect: icfg,
        ..ClusterOptions::default()
    };
    let dev = Device::cluster_with_options(PimConfig::small(), SHARDS, options)?;
    println!(
        "cluster: {} chips x {} crossbars x {} rows = {} logical threads",
        dev.shards(),
        dev.config().crossbars / dev.shards(),
        dev.config().rows,
        dev.config().total_threads(),
    );

    // One gateway, one session per client. Window sizing: an even share of
    // the warp space per client, so each request's tensors stay inside its
    // own stripe set (here: 8 warps of 64 threads -> 512-element requests).
    let total_warps = dev.config().crossbars as u32;
    let session_warps = total_warps / CLIENTS as u32;
    let request_elems = session_warps as usize * dev.config().rows;
    let gateway = dev.serve(ServeConfig {
        session_warps,
        ..ServeConfig::default()
    });
    // Record the serving run: admission spans, shard execution slices, and
    // interconnect bursts, each attributed to its RequestId.
    gateway.telemetry().set_enabled(true);
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session())
        .collect::<Result<_>>()?;
    println!(
        "gateway: {CLIENTS} sessions x {session_warps}-warp windows, \
         {request_elems}-element requests, no in-flight bound",
    );

    // Windowed time series over the serving run: every request completion
    // checks whether the modeled clock crossed the next window boundary
    // and closes the window if so. All client futures run on this one host
    // thread (block_on), so a RefCell suffices.
    const WINDOW_CYCLES: u64 = 50_000;
    let telemetry = gateway.telemetry().clone();
    let mut sampler = WindowSampler::new(WINDOW_CYCLES);
    sampler.watch_histogram(
        "serve.queue_wait_cycles",
        &telemetry.metrics().histogram("serve.queue_wait_cycles"),
    );
    let sampler = RefCell::new(sampler);
    let gw = &gateway;

    // One host thread drives all clients' requests concurrently.
    let start = Instant::now();
    let outcomes: Vec<Result<(f32, Vec<Duration>)>> =
        block_on(join_all(clients.iter().enumerate().map(|(cid, client)| {
            let sampler = &sampler;
            let telemetry = &telemetry;
            async move {
                let mut acc = 0.0f32;
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for req in 0..REQUESTS_PER_CLIENT {
                    let t0 = Instant::now();
                    acc += serve_request(client, &payload(cid, req, request_elems)).await?;
                    latencies.push(t0.elapsed());
                    let now = telemetry.now();
                    let mut s = sampler.borrow_mut();
                    if s.ready(now) {
                        s.sample(now, gw.metrics_snapshot()?);
                    }
                }
                Ok((acc, latencies))
            }
        })));
    // Close the partial tail window so the table covers the whole run.
    {
        let now = telemetry.now();
        let mut s = sampler.borrow_mut();
        if s.last().map_or(0, |w| w.end) < now {
            s.sample(now, gw.metrics_snapshot()?);
        }
    }

    let mut total = 0.0f32;
    let mut latencies: Vec<Duration> = Vec::new();
    for (cid, outcome) in outcomes.into_iter().enumerate() {
        let (got, lats) = outcome?;
        let want: f32 = (0..REQUESTS_PER_CLIENT)
            .map(|req| {
                payload(cid, req, request_elems)
                    .iter()
                    .map(|v| v * 2.0 + v)
                    .sum::<f32>()
            })
            .sum();
        assert_eq!(got, want, "client {cid} result mismatch");
        total += got;
        latencies.extend(lats);
    }
    let elapsed = start.elapsed();
    latencies.sort();
    println!(
        "served {} requests x {} elements from {} clients in {:.1} ms (sum {total})",
        CLIENTS * REQUESTS_PER_CLIENT,
        request_elems,
        CLIENTS,
        elapsed.as_secs_f64() * 1e3,
    );
    println!(
        "per-request latency: p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms \
         (concurrent requests overlap, so sums exceed wall time)",
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.90).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
    );
    // One unified metrics snapshot across every layer: serve.* admission
    // counters (incl. the queue-wait/group-size histograms with their
    // p50/p99/p999 tails), cluster.* traffic, sim.* profiler counters.
    println!("\n{}", gateway.metrics_snapshot()?.render());

    // The windowed view of the same run: batch throughput, queue
    // depth/in-flight at each window close, and the *windowed* queue-wait
    // tail (each window's p99 over only that window's submissions, not
    // the run-cumulative figure above).
    println!("windowed time series ({WINDOW_CYCLES}-cycle windows, 1 cycle = 1 us modeled):");
    println!(
        "{}",
        sampler.borrow().render_table(
            MODELED_CYCLES_PER_SEC,
            &["serve.batches"],
            &["serve.queue_depth", "serve.in_flight"],
            &["serve.queue_wait_cycles"],
        )
    );

    // Per-session attribution, summed from the RequestId-tagged spans.
    println!("per-session attribution (modeled cycles):");
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

    // Cross-chip traffic demo: shift a whole-memory tensor by one shard's
    // worth of elements, so every moved warp crosses a chip boundary and
    // goes over the modeled interconnect. The sessions' placement windows
    // tile the entire warp space, so release them first — dropping a
    // client returns its reservation.
    drop(clients);
    dev.reset_counters()?;
    let demo_elems = dev.config().total_threads() as usize;
    let t = dev.arange_i32(demo_elems)?;
    let rolled = pypim::shifted(&t, (demo_elems / SHARDS) as i64)?;
    assert_eq!(
        rolled.get_i32(0)?,
        (demo_elems / SHARDS) as i32,
        "cross-chip shift must preserve values"
    );
    println!(
        "\ncross-chip shift over {}-bit links ({} cycle latency):",
        icfg.link_bits, icfg.latency,
    );
    println!("{}", dev.metrics_snapshot()?.render());
    if let Some(stats) = dev.cluster_stats()? {
        println!(
            "modeled end-to-end latency: {} cycles ({} chip critical path + \
             {} link)",
            stats.modeled_latency_cycles(),
            stats.critical_path_cycles(),
            stats.traffic.link_cycles,
        );
    }
    Ok(())
}
