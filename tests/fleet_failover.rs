//! Multi-host failover, end to end: seeded host-level fault schedules
//! (crashes, stalls, partitions) against the fleet router must never hang
//! and never silently corrupt — every request either completes
//! bit-identical to a fault-free run or resolves to a typed
//! [`ErrorClass`] error — and killing the leader mid-load re-elects
//! deterministically and re-places the orphaned sessions, with the
//! `fleet.*` counters matching the schedule exactly.

use futures::executor::{block_on, block_on_timeout};
use proptest::prelude::*;
use pypim::fleet::{Fleet, FleetConfig, MAX_REISSUES};
use pypim::loadgen::{run_fleet, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape};
use pypim::{
    ClusterClient, DType, Device, DeviceServeExt, ErrorClass, Gateway, GatewayHost, HostFault,
    HostFaultPlan, HostFaultProfile, PimConfig, Result, ServeConfig,
};
use std::collections::BTreeSet;
use std::time::Duration;

fn fleet_cfg(hosts: usize, fault: HostFaultPlan) -> FleetConfig {
    FleetConfig {
        hosts,
        chip: PimConfig::small().with_crossbars(8),
        serve: ServeConfig {
            max_queue_depth: 0,
            ..ServeConfig::default()
        },
        fault,
    }
}

/// The serving request used throughout: `sum(x * 2 + x)` over exactly
/// representable values, so the result's bits are placement-independent.
async fn request(client: &ClusterClient, n: usize, seed: f32) -> Result<f32> {
    let data: Vec<f32> = (0..n).map(|i| seed + i as f32 * 0.25).collect();
    let x = client.step(|p| p.upload_f32(&data)).await?;
    let y = client.step(|p| p.full_f32(n, 2.0)).await?;
    let xy = client.step(|p| p.mul(&x, &y)).await?;
    let z = client.step(|p| p.add(&xy, &x)).await?;
    client.sum_f32(&z).await
}

/// Fault-free reference bits for `request(n, seed)` on a one-host fleet.
fn reference_bits(n: usize, seed: f32) -> u32 {
    let fleet = Fleet::new(fleet_cfg(1, HostFaultPlan::none())).unwrap();
    let session = fleet.session().unwrap();
    block_on(session.run(|client| Box::pin(async move { request(client, n, seed).await })))
        .unwrap()
        .to_bits()
}

/// Hosts the plan permanently crashes (each lapses exactly once).
fn crashed_hosts(plan: &HostFaultPlan) -> BTreeSet<usize> {
    plan.events()
        .iter()
        .filter(|&&(_, _, f)| f == HostFault::Crash)
        .map(|&(_, h, _)| h)
        .collect()
}

fn open_loop_cfg(seed: u64) -> LoadgenConfig {
    LoadgenConfig {
        seed,
        horizon_cycles: 300_000,
        window_cycles: 60_000,
        classes: vec![ClassSpec::new(
            "fused",
            RequestShape::Fused,
            ArrivalProfile::Poisson { rate: 60.0 },
            16,
        )],
        sessions_per_class: 2,
        latency_target_cycles: 0,
        drain: true,
    }
}

// ---------------------------------------------------------------------
// Fault-free fleet is bit-identical to a single host
// ---------------------------------------------------------------------

#[test]
fn fault_free_fleet_matches_single_host_bits() {
    let fleet = Fleet::new(fleet_cfg(3, HostFaultPlan::none())).unwrap();
    let expected = reference_bits(16, 1.0);
    // Sessions land on different hosts; results must not depend on which.
    for _ in 0..3 {
        let session = fleet.session().unwrap();
        let got = block_on_timeout(
            session.run(|client| Box::pin(async move { request(client, 16, 1.0).await })),
            Duration::from_secs(30),
        )
        .expect("fault-free request hung")
        .unwrap();
        assert_eq!(got.to_bits(), expected, "placement changed the bits");
    }
    assert_eq!(fleet.stats().failovers, 0);
}

// ---------------------------------------------------------------------
// Leader kill mid-load: deterministic re-election and re-placement
// ---------------------------------------------------------------------

/// Asserts a drained gateway holds nothing: no session is open, one
/// placement window spanning every warp can be reserved (and is
/// released), and every ISA register takes a full-memory tensor.
fn assert_nothing_leaked(gateway: &Gateway) {
    assert_eq!(gateway.active_sessions(), 0);
    let dev = gateway.device();
    let cfg = dev.config();
    let window = dev.reserve_placement(cfg.crossbars as u32).unwrap();
    dev.release_placement(window);
    let full = cfg.total_threads() as usize;
    let tensors: Vec<_> = (0..cfg.user_regs)
        .map(|_| dev.uninit(full, DType::Int32).unwrap())
        .collect();
    assert_eq!(tensors.len(), cfg.user_regs);
}

#[test]
fn leader_kill_mid_load_reelects_and_replaces_orphans() {
    let plan = HostFaultPlan::none().crash_at(0, 150_000);
    let cfg = fleet_cfg(3, plan.clone());
    // Hosts built from gateway clones, so every device stays reachable
    // after the run.
    let gateways: Vec<Gateway> = (0..cfg.hosts)
        .map(|_| Device::new(cfg.chip.clone()).unwrap().serve(cfg.serve))
        .collect();
    let hosts = gateways
        .iter()
        .map(|g| Box::new(g.clone()) as Box<dyn GatewayHost + Send + Sync>)
        .collect();
    let fleet = Fleet::with_hosts(cfg, hosts).unwrap();
    assert_eq!(fleet.leader().unwrap().holder, 0, "host 0 leads at start");

    let report = run_fleet(&fleet, &open_loop_cfg(23)).unwrap();

    // Counters match the schedule: one crashed host → exactly one
    // failover and one leadership change (the initial election happened
    // before the run), and the next host index takes over.
    assert_eq!(report.fleet.failovers, 1);
    assert_eq!(report.fleet.failovers as usize, crashed_hosts(&plan).len());
    assert_eq!(report.fleet.leader_changes, 1);
    let lease = fleet.leader().unwrap();
    assert_eq!(lease.holder, 1, "lowest surviving index must take over");
    assert_eq!(lease.epoch, 1, "handover must bump the epoch");

    // The dead host's session pool entries moved and their in-flight
    // work was re-issued; with two survivors nothing may fail.
    assert!(report.fleet.orphaned_sessions >= 1);
    assert_eq!(report.completed + report.failed, report.injected);
    assert_eq!(report.failed, 0, "survivors must absorb the load");
    assert!(report.failover_cycles.count >= 1);
    assert!(
        report.failover_cycles.p99 > 0,
        "failover detection latency must be observable"
    );
    assert_eq!(fleet.live_hosts(), 2);
    // The drained run left nothing behind on any host, the crashed one
    // included.
    for gateway in &gateways {
        assert_nothing_leaked(gateway);
    }
}

#[test]
fn leader_kill_report_is_bit_identical_across_runs() {
    let make = || Fleet::new(fleet_cfg(3, HostFaultPlan::none().crash_at(0, 150_000)));
    let a = run_fleet(&make().unwrap(), &open_loop_cfg(7)).unwrap();
    let b = run_fleet(&make().unwrap(), &open_loop_cfg(7)).unwrap();
    assert_eq!(a.end_cycle, b.end_cycle, "failover must replay exactly");
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.reissued, b.reissued);
    assert_eq!(a.latency.p99, b.latency.p99);
    assert_eq!(a.failover_cycles.p99, b.failover_cycles.p99);
    assert_eq!(a.windows, b.windows, "window series must be identical");
}

// ---------------------------------------------------------------------
// The re-issue budget: losing every host ends the run, typed
// ---------------------------------------------------------------------

#[test]
fn losing_every_host_mid_load_resolves_every_arrival() {
    let plan = HostFaultPlan::none()
        .crash_at(0, 100_000)
        .crash_at(1, 120_000);
    let fleet = Fleet::new(fleet_cfg(2, plan)).unwrap();
    let report = run_fleet(&fleet, &open_loop_cfg(31)).unwrap();
    assert_eq!(fleet.live_hosts(), 0);
    assert_eq!(report.fleet.failovers, 2);
    assert!(report.completed > 0, "the hosts served until they died");
    assert!(report.failed > 0, "arrivals after the last crash must fail");
    assert_eq!(
        report.completed + report.failed,
        report.injected,
        "every arrival resolves — the run returned, nothing leaked"
    );
    assert!(
        report.reissued <= u64::from(MAX_REISSUES) * report.injected,
        "{} re-issues for {} arrivals",
        report.reissued,
        report.injected
    );
}

// ---------------------------------------------------------------------
// Properties: seeded host schedules never hang and never corrupt
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seeded host-fault schedule over a 3-host fleet with one
    /// guaranteed survivor: every request either completes bit-identical
    /// to the fault-free reference or resolves to a typed retryable
    /// error, within a wall-clock bound — no hangs — and once the
    /// schedule drains a fresh request on the survivors succeeds.
    #[test]
    fn seeded_host_schedules_never_hang_or_corrupt(seed in any::<u64>()) {
        let profile = HostFaultProfile {
            hosts: 3,
            single_host: None,
            crashes: 2,
            stalls: 1,
            partitions: 1,
            max_outage_cycles: 50_000,
            cycle_horizon: 200_000,
            spare_host: Some(2),
        };
        let plan = HostFaultPlan::from_seed(seed, &profile);
        let fleet = Fleet::new(fleet_cfg(3, plan.clone())).unwrap();
        let session = fleet.session().unwrap();
        let expected = reference_bits(8, 4.0);

        // Walk the modeled clock across the whole schedule plus the
        // longest possible outage, issuing a request at every step.
        for step in 1..=16u64 {
            fleet.telemetry().advance_clock(step * 25_000);
            fleet.tick_now();
            let outcome = block_on_timeout(
                session.run(|client| {
                    Box::pin(async move { request(client, 8, 4.0).await })
                }),
                Duration::from_secs(30),
            );
            match outcome {
                Ok(Ok(v)) => prop_assert_eq!(
                    v.to_bits(), expected,
                    "silent corruption under plan {:?}", plan
                ),
                Ok(Err(e)) => {
                    let class = e.class();
                    prop_assert!(
                        matches!(
                            class,
                            ErrorClass::Transient | ErrorClass::Overload | ErrorClass::Evicted
                        ),
                        "unexpected class {:?} for {:?} under plan {:?}", class, e, plan
                    );
                }
                Err(_) => prop_assert!(false, "request hung under plan {:?}", plan),
            }
        }

        // Every crash lapses exactly once; stalls/partitions add at most
        // one failover each.
        let crashed = crashed_hosts(&plan);
        let stats = fleet.stats();
        prop_assert!(
            stats.failovers >= crashed.len() as u64,
            "a crashed host never failed over: {:?} under plan {:?}", stats, plan
        );
        prop_assert!(
            stats.failovers <= (crashed.len() + 2) as u64,
            "an outage failed over twice: {:?} under plan {:?}", stats, plan
        );
        prop_assert!(stats.leader_changes >= 1);

        // The schedule has fully drained: the spare host (at least) is
        // live, the leader is a survivor, and fresh work succeeds
        // bit-identically.
        prop_assert_eq!(fleet.live_hosts(), 3 - crashed.len());
        let leader = fleet.leader().unwrap().holder;
        prop_assert!(!crashed.contains(&leader), "dead leader {} still holds the lease", leader);
        let fresh = fleet.session().unwrap();
        match block_on_timeout(
            fresh.run(|client| Box::pin(async move { request(client, 8, 5.0).await })),
            Duration::from_secs(30),
        ) {
            Ok(Ok(v)) => prop_assert_eq!(v.to_bits(), reference_bits(8, 5.0)),
            Ok(Err(e)) => prop_assert!(false, "drained fleet failed: {:?}", e),
            Err(_) => prop_assert!(false, "drained fleet hung under plan {:?}", plan),
        }
    }

    /// Open-loop load over a seeded schedule: totals always reconcile
    /// (injected == completed + failed — the no-hang invariant at load),
    /// and the whole report replays bit-identically from the same seed.
    #[test]
    fn open_loop_fleet_runs_reconcile_and_replay(seed in 0u64..1_000) {
        let profile = HostFaultProfile {
            hosts: 3,
            single_host: None,
            crashes: 1,
            stalls: 1,
            partitions: 1,
            max_outage_cycles: 40_000,
            cycle_horizon: 250_000,
            spare_host: Some(2),
        };
        let plan = HostFaultPlan::from_seed(seed, &profile);
        let make = || Fleet::new(fleet_cfg(3, plan.clone()));
        let cfg = open_loop_cfg(seed ^ 0x9E37);

        let a = run_fleet(&make().unwrap(), &cfg).unwrap();
        prop_assert_eq!(
            a.completed + a.failed, a.injected,
            "requests leaked under plan {:?}", plan
        );
        prop_assert!(
            a.fleet.failovers >= crashed_hosts(&plan).len() as u64,
            "{:?} under plan {:?}", a.fleet, plan
        );

        let b = run_fleet(&make().unwrap(), &cfg).unwrap();
        prop_assert_eq!(a.end_cycle, b.end_cycle, "plan {:?}", plan);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.failed, b.failed);
        prop_assert_eq!(a.reissued, b.reissued);
        prop_assert_eq!(&a.windows, &b.windows);
    }
}
