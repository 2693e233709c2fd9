//! # pim-loadgen
//!
//! An **open-loop traffic harness** for the serving gateway, on the
//! modeled clock: seeded arrival schedules (Poisson / burst / ramp) drive
//! requests into [`pim_serve::Gateway`] sessions at their scheduled
//! modeled cycles *whether or not earlier requests finished*, so overload
//! actually queues — the behaviour a closed loop (fixed in-flight count,
//! inject-on-completion) structurally cannot produce, because a closed
//! loop's offered load self-throttles to `in-flight / latency`.
//!
//! The harness produces three artifacts per run:
//!
//! * a [`RunReport`] — totals, whole-run latency/queue-wait summaries,
//!   and the windowed time series ([`pim_telemetry::WindowSample`]s:
//!   per-window throughput, queue depth, retries, and real windowed
//!   p50/p99/p999) over the run's own cycles, from its first to its last;
//! * an [`SloReport`] ([`run_slo`]) — per-window error-budget burn
//!   against a latency target, as stable machine-readable JSON;
//! * Perfetto counter tracks (queue depth, per-shard utilization)
//!   recorded into the device's [`pim_telemetry::Telemetry`]
//!   at window boundaries, rendered by `export_chrome_trace`.
//!
//! [`latency_vs_load`] sweeps arrival-rate multipliers across fresh
//! gateways and derives the **knee** (highest offered load with ≥ 95%
//! goodput), the **collapse point** (lowest offered load whose windowed
//! queue-wait p99 diverges), and the p99 at the ~70%-of-peak healthy
//! operating point — the `open_loop_*` rows of `BENCH_serve.json`.
//!
//! [`run_fleet`] drives a multi-host [`pim_fleet::Fleet`] — not "the same
//! open loop" re-written but the same function: [`run`] and [`run_fleet`]
//! both end in one inject-poll-window loop, over a crate-private
//! `LoadTarget` with two thin implementations. A fleet's lanes are
//! placements that move on failover; every completion goes through the
//! fleet's one staleness rule ([`pim_fleet::FleetSession::must_reissue`]),
//! a discarded attempt is re-issued against the new placement at most
//! [`pim_fleet::MAX_REISSUES`] times, and the report carries the
//! control-plane activity (elections, failovers, re-issues) the fault
//! schedule provoked. A fault-free one-host fleet run *is* the gateway
//! run, shifted by the hop cycles its session placements cost.
//!
//! ## Poll order
//!
//! The in-flight set is swept in **admission order**, for every target: a
//! re-issued attempt joins at the back and a finished one leaves without
//! reordering the rest. A poll executes queued groups on the driving
//! thread, so the sweep order decides which request a tied modeled cycle
//! is charged to; oldest-first is the order a FIFO server retires
//! requests in, and it keeps a report a function of the seed alone.
//!
//! ## Determinism
//!
//! Arrival schedules are materialized from the seed before the run
//! starts, every future resolves on the driving thread — on one chip or a
//! cluster of them — and the modeled clock advances only through
//! execution and the loop's idle jumps, so the same seed (plus, for a
//! fleet, the same fault schedule) produces bit-identical reports, the
//! SLO JSON included.
//!
//! ## Zero cost when unused
//!
//! Everything here is driver-side: nothing hooks the execution path, the
//! windowed sampler only reads snapshots when the *caller* closes a
//! window, and counter tracks record only while telemetry is enabled. A
//! binary that never runs a load sees no overhead.
//!
//! ## Example
//!
//! ```
//! use pim_arch::PimConfig;
//! use pim_loadgen::{
//!     run_slo, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, SloConfig,
//! };
//! use pim_serve::{DeviceServeExt, ServeConfig};
//! use pypim_core::Device;
//!
//! # fn main() -> pypim_core::Result<()> {
//! let dev = Device::new(PimConfig::small().with_crossbars(4))?;
//! let gateway = dev.serve(ServeConfig {
//!     max_queue_depth: 0, // unbounded: overload queues instead of failing
//!     ..ServeConfig::default()
//! });
//! let cfg = LoadgenConfig {
//!     seed: 7,
//!     horizon_cycles: 200_000,
//!     window_cycles: 50_000,
//!     classes: vec![ClassSpec::new(
//!         "elementwise",
//!         RequestShape::Elementwise,
//!         ArrivalProfile::Poisson { rate: 100.0 },
//!         16,
//!     )],
//!     sessions_per_class: 1,
//!     ..LoadgenConfig::default()
//! };
//! let (report, slo) = run_slo(&gateway, &cfg, SloConfig::default())?;
//! assert_eq!(report.completed, report.injected);
//! assert!(slo.to_json().starts_with("{\"seed\":7"));
//! # Ok(())
//! # }
//! ```

mod driver;
mod fleet;
mod profile;
mod shape;
mod slo;

pub use driver::{run, ClassSpec, LoadgenConfig, RunReport, MODELED_CYCLES_PER_SEC};
pub use fleet::{run_fleet, FleetRunReport};
pub use profile::{build_schedule, Arrival, ArrivalProfile};
pub use shape::{RequestShape, Template};
pub use slo::{latency_vs_load, run_slo, SloConfig, SloReport, SweepPoint, SweepReport, WindowSlo};

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::PimConfig;
    use pim_serve::{DeviceServeExt, ServeConfig};
    use pypim_core::{Device, Result};

    fn small_cfg() -> LoadgenConfig {
        LoadgenConfig {
            seed: 11,
            horizon_cycles: 300_000,
            window_cycles: 60_000,
            classes: vec![
                ClassSpec::new(
                    "elem",
                    RequestShape::Elementwise,
                    ArrivalProfile::Poisson { rate: 60.0 },
                    16,
                ),
                ClassSpec::new(
                    "fused",
                    RequestShape::Fused,
                    ArrivalProfile::Burst {
                        base: 20.0,
                        burst_size: 3,
                        period_cycles: 100_000,
                    },
                    16,
                ),
            ],
            sessions_per_class: 1,
            latency_target_cycles: 0,
            drain: true,
        }
    }

    fn single_chip_gateway() -> Result<pim_serve::Gateway> {
        let dev = Device::new(PimConfig::small().with_crossbars(8))?;
        Ok(dev.serve(ServeConfig {
            max_queue_depth: 0,
            ..ServeConfig::default()
        }))
    }

    #[test]
    fn open_loop_run_completes_every_request() -> Result<()> {
        let gateway = single_chip_gateway()?;
        let report = run(&gateway, &small_cfg())?;
        assert!(report.injected > 0, "schedule was empty");
        assert_eq!(report.completed + report.failed, report.injected);
        assert_eq!(report.failed, 0, "unbounded queue should not reject");
        assert!(report.latency.count == report.completed);
        assert!(!report.windows.is_empty(), "no windows closed");
        // Window counters sum back to the totals (deltas, not cumulative).
        let sum: u64 = report
            .windows
            .iter()
            .map(|w| w.counter("loadgen.injected"))
            .sum();
        assert_eq!(sum, report.injected);
        // One chip is one shard: its utilization is sampled like any other.
        let counters = gateway.telemetry().recorder().counter_tracks();
        assert!(counters.iter().any(|(name, ..)| name == "shard0/util"));
        Ok(())
    }

    #[test]
    fn same_seed_same_report_single_chip() -> Result<()> {
        let slo = SloConfig {
            target_p99_cycles: 30_000,
            error_budget: 0.01,
        };
        let (ra, sa) = run_slo(&single_chip_gateway()?, &small_cfg(), slo)?;
        let (rb, sb) = run_slo(&single_chip_gateway()?, &small_cfg(), slo)?;
        assert_eq!(sa.to_json(), sb.to_json(), "SLO JSON must be bit-identical");
        assert_eq!(ra.windows, rb.windows, "window series must be identical");
        assert_eq!(ra.end_cycle, rb.end_cycle);
        Ok(())
    }

    /// A gateway's shards have run before the run starts (here: an
    /// earlier run); none of that belongs to the first window's
    /// utilization.
    #[test]
    fn shard_utilization_of_a_reused_gateway_starts_at_the_run() -> Result<()> {
        let dev = Device::cluster(PimConfig::small().with_crossbars(8), 2)?;
        let gateway = dev.serve(ServeConfig {
            max_queue_depth: 0,
            ..ServeConfig::default()
        });
        let cfg = LoadgenConfig {
            seed: 5,
            horizon_cycles: 400_000,
            window_cycles: 50_000,
            classes: vec![ClassSpec::new(
                "fused",
                RequestShape::Fused,
                ArrivalProfile::Poisson { rate: 200.0 },
                16,
            )],
            ..LoadgenConfig::default()
        };
        let util = || -> Vec<f64> {
            let tracks = gateway.telemetry().recorder().counter_tracks();
            let track = tracks.iter().find(|(name, ..)| name == "shard0/util");
            track.map_or(Vec::new(), |(_, samples, _)| {
                samples.iter().map(|&(_, v)| v).collect()
            })
        };
        run(&gateway, &cfg)?;
        let first_run = util().len();
        run(&gateway, &cfg)?;
        let second = util().split_off(first_run);
        assert!(second.len() >= 4, "{second:?}");
        let busiest = second[1..].iter().copied().fold(0.0, f64::max);
        assert!(
            second[0] <= busiest,
            "first window {} above every other window of its run {second:?}",
            second[0]
        );
        Ok(())
    }

    /// A run's window series starts at the run's first cycle and its
    /// counters sum to the run's own totals: on a gateway that already ran
    /// a load, and on a fleet whose placement phase advanced the clock.
    #[test]
    fn windows_cover_exactly_their_run() -> Result<()> {
        fn check(start: u64, windows: &[pim_telemetry::WindowSample], totals: (u64, u64)) {
            assert_eq!(windows.first().map(|w| w.start), Some(start), "{windows:?}");
            let sum = |name| windows.iter().map(|w| w.counter(name)).sum::<u64>();
            assert_eq!((sum("loadgen.injected"), sum("loadgen.completed")), totals);
        }
        let cfg = small_cfg();
        let gateway = single_chip_gateway()?;
        for _ in 0..2 {
            let start = gateway.telemetry().now();
            let report = run(&gateway, &cfg)?;
            assert!(report.injected > 0);
            check(start, &report.windows, (report.injected, report.completed));
        }

        let fleet = pim_fleet::Fleet::new(fleet_cfg(pim_fault::HostFaultPlan::none()))?;
        let report = run_fleet(&fleet, &cfg)?;
        // The run's first cycle: the clock once its sessions are placed.
        let probe = pim_fleet::Fleet::new(fleet_cfg(pim_fault::HostFaultPlan::none()))?;
        let _placed = (0..cfg.classes.len() * cfg.sessions_per_class)
            .map(|_| probe.session())
            .collect::<Result<Vec<_>>>()?;
        let start = probe.tick_now();
        assert!(start > 0, "placement rides the hop");
        check(start, &report.windows, (report.injected, report.completed));
        Ok(())
    }

    fn fleet_cfg(fault: pim_fault::HostFaultPlan) -> pim_fleet::FleetConfig {
        pim_fleet::FleetConfig {
            hosts: 2,
            chip: PimConfig::small().with_crossbars(8),
            serve: ServeConfig {
                max_queue_depth: 0,
                ..ServeConfig::default()
            },
            fault,
            ..pim_fleet::FleetConfig::default()
        }
    }

    #[test]
    fn fleet_run_fault_free_completes_everything() -> Result<()> {
        let fleet = pim_fleet::Fleet::new(fleet_cfg(pim_fault::HostFaultPlan::none()))?;
        let report = run_fleet(&fleet, &small_cfg())?;
        assert!(report.injected > 0);
        assert_eq!(report.completed + report.failed, report.injected);
        assert_eq!(report.failed, 0, "fault-free fleet must not fail requests");
        assert_eq!(report.reissued, 0);
        assert_eq!(report.fleet.failovers, 0);
        assert_eq!(report.fleet.leader_changes, 0, "leader elected before run");
        assert!(!report.windows.is_empty());
        Ok(())
    }

    #[test]
    fn fleet_run_matches_single_host_totals_and_is_reproducible() -> Result<()> {
        let cfg = small_cfg();
        let a = run_fleet(
            &pim_fleet::Fleet::new(fleet_cfg(pim_fault::HostFaultPlan::none()))?,
            &cfg,
        )?;
        let b = run_fleet(
            &pim_fleet::Fleet::new(fleet_cfg(pim_fault::HostFaultPlan::none()))?,
            &cfg,
        )?;
        assert_eq!(a.injected, b.injected);
        assert_eq!(
            a.end_cycle, b.end_cycle,
            "same seed must replay bit-identically"
        );
        assert_eq!(a.latency.p99, b.latency.p99);
        assert_eq!(a.windows, b.windows);
        Ok(())
    }

    /// One loop drives both targets, so a fault-free one-host fleet is a
    /// gateway with a later cycle 0: placing the sessions costs
    /// host-to-host hop cycles before the schedule starts, and nothing
    /// else differs — under the knee and far past it.
    #[test]
    fn one_host_fleet_run_equals_gateway_run() -> Result<()> {
        let one_host = || pim_fleet::FleetConfig {
            hosts: 1,
            ..fleet_cfg(pim_fault::HostFaultPlan::none())
        };
        for factor in [1.0, 10.0] {
            let cfg = small_cfg().scaled(factor);
            let dev = Device::new(one_host().chip)?;
            let gateway = run(&dev.serve(one_host().serve), &cfg)?;
            let fleet = run_fleet(&pim_fleet::Fleet::new(one_host())?, &cfg)?;

            // The fleet's cycle 0: the clock once the run's sessions are
            // placed (a fresh device's is 0).
            let probe = pim_fleet::Fleet::new(one_host())?;
            let lanes = cfg.classes.len() * cfg.sessions_per_class;
            let _placed = (0..lanes)
                .map(|_| probe.session())
                .collect::<Result<Vec<_>>>()?;
            let start = probe.tick_now();
            assert!(start > 0, "placement rides the hop");

            assert_eq!(
                gateway.completed_in_horizon < gateway.injected,
                factor > 1.0,
                "x1 sits under the knee, x10 past it"
            );
            assert_eq!(fleet.injected, gateway.injected, "x{factor}");
            assert_eq!(fleet.completed, gateway.completed, "x{factor}");
            assert_eq!(
                fleet.completed_in_horizon, gateway.completed_in_horizon,
                "x{factor}"
            );
            assert_eq!((fleet.failed, gateway.failed), (0, 0), "x{factor}");
            assert_eq!(fleet.latency, gateway.latency, "x{factor}");
            assert_eq!(fleet.end_cycle - start, gateway.end_cycle, "x{factor}");
            assert_eq!(fleet.reissued, 0);
        }
        Ok(())
    }

    #[test]
    fn fleet_run_leader_kill_fails_over_and_still_completes() -> Result<()> {
        let fault = pim_fault::HostFaultPlan::none().crash_at(0, 100_000);
        let fleet = pim_fleet::Fleet::new(fleet_cfg(fault))?;
        let report = run_fleet(&fleet, &small_cfg())?;
        assert_eq!(report.fleet.failovers, 1, "one crash, one failover");
        assert_eq!(
            report.fleet.leader_changes, 1,
            "killing the leader must force exactly one re-election"
        );
        assert!(report.fleet.orphaned_sessions > 0);
        assert!(report.failover_cycles.count >= 1);
        assert_eq!(
            report.completed + report.failed,
            report.injected,
            "every request resolves — no hangs"
        );
        assert_eq!(report.failed, 0, "a survivor exists, so nothing may fail");
        Ok(())
    }

    #[test]
    fn fleet_sweep_reports_degraded_knee() -> Result<()> {
        let mut base = small_cfg();
        base.horizon_cycles = 150_000;
        base.window_cycles = 30_000;
        base.drain = false;
        // Two operating points, each on a fresh fleet so the fault
        // schedule and the queues restart.
        let mut reports = Vec::new();
        for factor in [0.5, 1.0] {
            let fault = pim_fault::HostFaultPlan::none().crash_at(0, 50_000);
            let fleet = pim_fleet::Fleet::new(fleet_cfg(fault))?;
            reports.push(run_fleet(&fleet, &base.scaled(factor))?);
        }
        assert!(reports[0].offered_rps < reports[1].offered_rps);
        assert!(reports.iter().any(|r| r.achieved_rps > 0.0), "no knee");
        assert!(reports.iter().all(|r| r.fleet.failovers == 1));
        assert!(reports.iter().any(|r| r.failover_cycles.p99 > 0));
        Ok(())
    }

    #[test]
    fn sweep_derives_knee_and_collapse_fields() -> Result<()> {
        let mut base = small_cfg();
        base.horizon_cycles = 150_000;
        base.window_cycles = 30_000;
        base.drain = false;
        let sweep = latency_vs_load(
            single_chip_gateway,
            &base,
            &[0.5, 1.0],
            SloConfig::default(),
        )?;
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.knee_rps > 0.0);
        let json = sweep.to_json();
        assert!(json.contains("\"knee_rps\""), "{json}");
        assert!(json.contains("\"collapse_rps\""), "{json}");
        assert!(json.contains("\"p99_at_70pct_cycles\""), "{json}");
        Ok(())
    }
}
