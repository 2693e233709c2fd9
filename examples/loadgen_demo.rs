//! Open-loop load generation against the serving gateway, on the modeled
//! clock: a seeded Poisson + burst traffic mix drives a single-chip device
//! past and below its capacity, and the run produces every observability
//! artifact the `pim-loadgen` harness knows how to make:
//!
//! * the windowed time series (throughput / queue depth / windowed
//!   latency tails), printed as a table;
//! * the machine-readable `SloReport` JSON (per-window error-budget burn
//!   against a latency target), written to `target/loadgen_slo.json`;
//! * a Perfetto trace with counter tracks (`serve/queue_depth`,
//!   `shard0/util`) next to the execution slices, written to
//!   `target/loadgen_trace.json`.
//!
//! The example self-checks the determinism contract: the whole run
//! executes on the driving thread, so a second run from the same seed must
//! produce bit-identical SLO JSON.
//!
//! Run with: `cargo run --release --example loadgen_demo`

use pypim::loadgen::{
    run_slo, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, SloConfig, SloReport,
    MODELED_CYCLES_PER_SEC,
};
use pypim::telemetry::render_window_table;
use pypim::{Device, DeviceServeExt, PimConfig, Result, ServeConfig};

fn demo_cfg() -> LoadgenConfig {
    LoadgenConfig {
        seed: 2024,
        horizon_cycles: 1_000_000, // one modeled second
        window_cycles: 100_000,
        classes: vec![
            ClassSpec::new(
                "elementwise",
                RequestShape::Elementwise,
                ArrivalProfile::Poisson { rate: 90.0 },
                16,
            ),
            ClassSpec::new(
                "fused",
                RequestShape::Fused,
                // A burst of 5 lands together every 0.25 modeled seconds on
                // top of the Poisson background — queue-depth spikes that
                // show up in the windowed series and the counter tracks.
                ArrivalProfile::Burst {
                    base: 30.0,
                    burst_size: 5,
                    period_cycles: 250_000,
                },
                16,
            ),
        ],
        sessions_per_class: 2,
        latency_target_cycles: 0, // run_slo sets it from the SLO target
        drain: true,
    }
}

/// One full run on a fresh single-chip device; returns the SLO verdict and
/// the exported Chrome trace.
fn run_once() -> Result<(pypim::loadgen::RunReport, SloReport, String)> {
    let dev = Device::new(PimConfig::small().with_crossbars(8))?;
    let gateway = dev.serve(ServeConfig {
        // Unbounded session queues: overload queues (the open-loop story)
        // instead of fast-failing with `Overloaded`.
        max_queue_depth: 0,
        ..ServeConfig::default()
    });
    let slo = SloConfig {
        target_p99_cycles: 60_000,
        error_budget: 0.05,
    };
    let (report, verdict) = run_slo(&gateway, &demo_cfg(), slo)?;
    let trace = gateway.telemetry().recorder().export_chrome_trace();
    Ok((report, verdict, trace))
}

fn main() -> Result<()> {
    let (report, verdict, trace) = run_once()?;

    println!(
        "open-loop run: {} injected, {} completed ({} in horizon), {} failed, \
         offered {:.0} rps, achieved {:.0} rps",
        report.injected,
        report.completed,
        report.completed_in_horizon,
        report.failed,
        report.offered_rps,
        report.achieved_rps,
    );
    println!(
        "\nwindowed time series ({}-cycle windows, 1 cycle = 1 us modeled):",
        report.window_cycles
    );
    println!(
        "{}",
        render_window_table(
            &report.windows,
            MODELED_CYCLES_PER_SEC,
            &["loadgen.injected", "loadgen.completed"],
            &["serve.queue_depth"],
            &["loadgen.latency_cycles", "serve.queue_wait_cycles"],
        )
    );
    println!("{}", verdict.render());

    // --- Self-checks: the totals balance, the series covers the run, and
    // the trace carries Perfetto counter tracks ("ph":"C" events).
    assert_eq!(report.completed + report.failed, report.injected);
    assert!(report.windows.len() >= 10, "expected ≥10 windows");
    let json = verdict.to_json();
    assert!(json.starts_with("{\"seed\":2024,"), "unexpected JSON head");
    assert!(json.contains("\"windows\":["), "SLO JSON lacks windows");
    assert!(
        trace.contains("\"ph\":\"C\"") && trace.contains("serve/queue_depth"),
        "trace lacks counter tracks"
    );

    // Determinism: a fresh device, same seed — bit-identical SLO JSON.
    let (_, verdict2, _) = run_once()?;
    assert_eq!(json, verdict2.to_json(), "same seed must reproduce the run");
    println!("determinism check: second run reproduced the SLO JSON bit-for-bit");

    std::fs::create_dir_all("target").expect("create target dir");
    std::fs::write("target/loadgen_slo.json", &json).expect("write SLO JSON");
    std::fs::write("target/loadgen_trace.json", &trace).expect("write trace JSON");
    println!(
        "wrote target/loadgen_slo.json ({} bytes) and target/loadgen_trace.json \
         ({} bytes — load in https://ui.perfetto.dev)",
        json.len(),
        trace.len(),
    );
    Ok(())
}
