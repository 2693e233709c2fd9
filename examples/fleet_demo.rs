//! Deterministic fleet chaos demo: a seeded host-fault schedule — the
//! *leader* host crashes mid-load and a second host later stalls past the
//! lease — runs under open-loop traffic against a three-host fleet. The
//! lease elector detects the lapses on the modeled clock, re-elects the
//! lowest surviving host, and fails the orphaned sessions over to the
//! survivors; in-flight results from dead placements are discarded and
//! re-issued, so every injected request still resolves.
//!
//! The example self-checks the control-plane counters (elections,
//! failovers, orphaned sessions, re-issues), writes the fleet-wide
//! [`pypim::telemetry`] metrics snapshot — `fleet.*` plus per-host
//! `host<i>/…` namespaces — to the first argument (default
//! `target/fleet_demo_metrics.json`), and writes the Perfetto trace of
//! the `fleet/control` track (election + failover spans) to the second
//! (default `target/fleet_demo_trace.json`). The CI fleet chaos smoke
//! step validates both files.
//!
//! Run with: `cargo run --release --example fleet_demo [metrics.json] [trace.json]`

use pypim::fleet::{Fleet, FleetConfig};
use pypim::loadgen::{run_fleet, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape};
use pypim::{HostFaultPlan, PimConfig, Result, ServeConfig};

const HOSTS: usize = 3;
/// Modeled cycle the leader (host 0 — lowest index wins the first
/// election) is killed at: mid-horizon, with sessions placed and load in
/// flight.
const LEADER_KILL_CYCLE: u64 = 150_000;
/// A second, recoverable outage: host 2 stops heartbeating for longer
/// than the lease TTL, fails over, then rejoins empty.
const STALL_CYCLE: u64 = 250_000;
const STALL_CYCLES: u64 = 40_000;
/// Fixed seed: reproducible arrivals, reproducible counters.
const SEED: u64 = 0xF1EE7;

fn main() -> Result<()> {
    let mut args = std::env::args().skip(1);
    let metrics_path = args
        .next()
        .unwrap_or_else(|| "target/fleet_demo_metrics.json".into());
    let trace_path = args
        .next()
        .unwrap_or_else(|| "target/fleet_demo_trace.json".into());

    let plan = HostFaultPlan::none()
        .crash_at(0, LEADER_KILL_CYCLE)
        .stall_at(2, STALL_CYCLE, STALL_CYCLES);
    println!("host fault plan (seed {SEED:#x}): {plan:?}");

    let fleet = Fleet::new(FleetConfig {
        hosts: HOSTS,
        chip: PimConfig::small().with_crossbars(8),
        serve: ServeConfig {
            max_queue_depth: 0, // open loop: overload queues, never rejects
            ..ServeConfig::default()
        },
        fault: plan,
    })?;
    fleet.set_telemetry_enabled(true); // record election/failover spans
    let leader = fleet.leader().expect("initial election");
    println!(
        "initial leader: host {} (epoch {})",
        leader.holder, leader.epoch
    );
    assert_eq!(leader.holder, 0, "lowest eligible index wins a free lease");

    let cfg = LoadgenConfig {
        seed: SEED,
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
    let report = run_fleet(&fleet, &cfg)?;

    println!(
        "\ninjected {} → completed {} (failed {}), {:.0} rps offered / {:.0} rps achieved",
        report.injected, report.completed, report.failed, report.offered_rps, report.achieved_rps
    );
    println!(
        "control plane: {} leader change(s), {} failover(s), {} orphaned session(s), \
         {} re-issued attempt(s), failover detection p99 {} cycles",
        report.fleet.leader_changes,
        report.fleet.failovers,
        report.fleet.orphaned_sessions,
        report.reissued,
        report.failover_cycles.p99,
    );

    // --- Self-check: the schedule's effects, exactly.
    assert_eq!(report.completed + report.failed, report.injected);
    assert_eq!(report.failed, 0, "two survivors must absorb the load");
    assert_eq!(
        report.fleet.failovers, 2,
        "one crash + one over-TTL stall → exactly two failovers"
    );
    assert_eq!(
        report.fleet.leader_changes, 1,
        "only the leader kill changes leadership mid-run"
    );
    assert!(report.fleet.orphaned_sessions >= 1, "no session moved");
    assert!(report.failover_cycles.count >= 2);
    let lease = fleet.leader().expect("a survivor holds the lease");
    assert_eq!(lease.holder, 1, "host 1 must take over from host 0");
    assert_eq!(lease.epoch, 1, "handover bumps the epoch");
    assert_eq!(fleet.live_hosts(), 2, "host 0 dead, host 2 rejoined");

    // --- Export the fleet-wide metrics snapshot (fleet.* + host<i>/…).
    let snap = fleet.metrics_snapshot()?;
    for host in 0..HOSTS {
        let key = format!("host{host}/serve.sessions");
        assert!(
            snap.counters.contains_key(&key),
            "snapshot lacks the {key} namespace"
        );
    }
    std::fs::write(&metrics_path, snap.to_json()).expect("write metrics JSON");

    // --- Export the Perfetto trace of the control plane.
    let trace = fleet.export_chrome_trace();
    assert!(trace.contains("fleet/control"), "no control-plane track");
    assert!(trace.contains("election"), "no election span recorded");
    assert!(trace.contains("failover"), "no failover span recorded");
    std::fs::write(&trace_path, &trace).expect("write trace JSON");

    println!("\nwrote {metrics_path} and {trace_path}");
    println!("ok: load survived a leader kill and a lease-lapsing stall");
    Ok(())
}
