//! `open_loop` / `fleet_failover`: open-loop traffic on the modeled clock
//! through `pim-loadgen`. Arrivals come on a seeded schedule whether or
//! not earlier requests finished; latency counts from the *scheduled*
//! cycle. Single-chip execution is inline, so every modeled number of
//! these two workloads repeats exactly.

use super::ladder;
use super::{recorded_events, LayerValue, Rep, Res, Rng, Scale, Workload, CYCLES_PER_SEC};
use crate::trace::Tracer;
use pypim::fleet::{Fleet, FleetConfig, GatewayHost, HostFaultPlan};
use pypim::loadgen::{
    build_schedule, run, run_fleet, ArrivalProfile, ClassSpec, FleetRunReport, LoadgenConfig,
    RequestShape, RunReport,
};
use pypim::sim::Profiler;
use pypim::{BackendKind, Device, DeviceServeExt, Gateway, GatewayStats, PimConfig, ServeConfig};
use std::time::Instant;

/// Elements per request tensor, both workloads.
const ELEMS: usize = 16;
/// Width of the time-series windows `pim-loadgen` samples (each closes
/// with a metrics snapshot, so it is kept coarse).
const WINDOW_CYCLES: u64 = 1_000_000;

/// Report line of both workloads.
const TELEMETRY_ALWAYS_ON: &str = "pim-loadgen arms pim-telemetry itself, so this workload's \
     end-to-end run has telemetry on: host_ops_per_s includes the recording cost";

fn host_chip() -> PimConfig {
    PimConfig::small().with_crossbars(8)
}

/// Unbounded session queues: an open loop's overload must queue, not be
/// refused at admission.
fn open_loop_serve() -> ServeConfig {
    ServeConfig {
        max_queue_depth: 0,
        ..ServeConfig::default()
    }
}

/// Counts a drained run must reconcile: anything neither completed nor
/// failed is an op that vanished.
fn unreconciled(injected: u64, completed: u64, failed: u64) -> u64 {
    injected.abs_diff(completed + failed)
}

/// Per-op rollups of one gateway's device after a run.
fn device_rollup(
    rep: &mut Rep,
    profiler: &Profiler,
    issued: pypim::driver::IssuedCycles,
    ops: f64,
) {
    rep.exact("sim.microops_per_op", profiler.ops.total() as f64 / ops);
    rep.exact("sim.cycles_per_op", profiler.cycles as f64 / ops);
    rep.exact("sim.gates_per_op", profiler.gates as f64 / ops);
    rep.exact("sim.move_pairs_per_op", profiler.move_pairs as f64 / ops);
    rep.exact(
        "driver.issued_logic_cycles_per_op",
        issued.logic as f64 / ops,
    );
    rep.exact(
        "driver.issued_overhead_cycles_per_op",
        (issued.total - issued.logic) as f64 / ops,
    );
}

fn gateway_rollup(rep: &mut Rep, gw: &GatewayStats) {
    rep.exact(
        "isa.instrs_per_op",
        gw.instructions as f64 / gw.batches.max(1) as f64,
    );
    rep.exact("serve.groups", gw.groups as f64);
    rep.exact("serve.batches", gw.batches as f64);
    rep.exact(
        "serve.batches_per_group",
        gw.batches as f64 / gw.groups.max(1) as f64,
    );
    rep.exact("serve.peak_inflight", gw.peak_inflight as f64);
    rep.exact("serve.deferred", gw.deferred as f64);
    rep.exact("serve.retries", gw.retries as f64);
    rep.exact("serve.deadline_misses", gw.deadline_misses as f64);
    rep.exact("serve.rejected_overload", gw.rejected_overload as f64);
    rep.exact("serve.evicted", gw.evicted as f64);
}

fn cache_rollup(rep: &mut Rep, hits: u64, misses: u64) {
    rep.exact("driver.cache_hits", hits as f64);
    rep.exact("driver.cache_misses", misses as f64);
    rep.exact(
        "driver.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// `pim_loadgen::build_schedule` alone, timed.
fn schedule_build_metric(cfg: &LoadgenConfig) -> Res<LayerValue> {
    let profiles: Vec<ArrivalProfile> = cfg.classes.iter().map(|c| c.profile).collect();
    let t = ladder::time_iters(20, &mut || {
        std::hint::black_box(build_schedule(&profiles, cfg.seed, cfg.horizon_cycles));
        Ok(())
    })?;
    Ok(LayerValue::some("loadgen.schedule_build_s", t / 1e9))
}

fn inject_late_metric() -> LayerValue {
    LayerValue::noted(
        "loadgen.inject_late_p99_cycles",
        None,
        "RunReport does not expose how late the generator injected; the crate is not patched",
    )
}

// ------------------------------------------------------------ open loop

/// Offered rates of the fixed ladder, requests per modeled second.
const LADDER_RPS: [f64; 9] = [
    120.0, 160.0, 200.0, 240.0, 280.0, 320.0, 360.0, 400.0, 440.0,
];
/// Horizon of each ladder point (no drain: a saturated point must end).
const LADDER_HORIZON: u64 = 1_000_000;
/// The reference rate all latency metrics are quoted at.
const REFERENCE_RPS: f64 = 200.0;
/// Horizon of the reference run (drained): ~1 200 requests, so its p99
/// has twelve samples beyond it.
const REFERENCE_HORIZON: u64 = 6_000_000;
/// Latency limit a ladder rate must meet at p99, in modeled cycles.
const LATENCY_LIMIT_CYCLES: u64 = 50_000;
/// Share of injected requests a ladder rate must complete inside its
/// horizon (a growing backlog fails this).
const MIN_IN_HORIZON: f64 = 0.95;

pub struct OpenLoop {
    seed: u64,
    scale: Scale,
    /// Gateway of the last reference run (telemetry and stats source).
    last: Option<Gateway>,
}

impl OpenLoop {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let w = OpenLoop {
            seed,
            scale,
            last: None,
        };
        // Warm pass: a fresh gateway, sessions, templates, the schedule
        // and a short drained run that compiles both request shapes.
        let cfg = w.config(0, REFERENCE_RPS, 1_000_000, true);
        let report = run(&w.gateway()?, &cfg)?;
        if report.failed > 0 || unreconciled(report.injected, report.completed, report.failed) > 0 {
            return Err("warm pass: open-loop run did not reconcile".into());
        }
        Ok(w)
    }

    /// A fresh single-chip functional gateway (one per operating point).
    fn gateway(&self) -> Res<Gateway> {
        let dev = Device::with_backend(host_chip(), BackendKind::Functional)?;
        Ok(dev.serve(open_loop_serve()))
    }

    /// 60 % element-wise, 40 % fused, Poisson, at `rps` in total. `point`
    /// separates the arrival streams of the operating points.
    fn config(&self, point: u64, rps: f64, horizon: u64, drain: bool) -> LoadgenConfig {
        LoadgenConfig {
            seed: Rng::new(self.seed, 100 + point).next_u64(),
            horizon_cycles: horizon,
            window_cycles: WINDOW_CYCLES,
            classes: vec![
                ClassSpec::new(
                    "elementwise",
                    RequestShape::Elementwise,
                    ArrivalProfile::Poisson { rate: rps * 0.6 },
                    ELEMS,
                ),
                ClassSpec::new(
                    "fused",
                    RequestShape::Fused,
                    ArrivalProfile::Poisson { rate: rps * 0.4 },
                    ELEMS,
                ),
            ],
            sessions_per_class: 1,
            latency_target_cycles: LATENCY_LIMIT_CYCLES,
            drain,
        }
    }

    fn reference_config(&self) -> LoadgenConfig {
        self.config(
            LADDER_RPS.len() as u64,
            REFERENCE_RPS,
            self.scale.count(REFERENCE_HORIZON),
            true,
        )
    }

    /// One timed `run` call (one span, numbered `point`: the generator
    /// owns the ops inside it); folds its totals into `rep`.
    fn point(
        &self,
        rep: &mut Rep,
        point: u64,
        cfg: &LoadgenConfig,
        tracer: &Tracer,
    ) -> Res<(RunReport, Gateway)> {
        let gateway = self.gateway()?;
        let begun = Instant::now();
        let report = run(&gateway, cfg)?;
        let ended = Instant::now();
        tracer.record("loadgen.run", begun, ended, point, None, 0);
        rep.host_s += (ended - begun).as_secs_f64();
        rep.ops += report.injected;
        rep.failed += report.failed;
        rep.microops += gateway.device().profiler()?.ops.total();
        Ok((report, gateway))
    }
}

/// Whether an operating point meets the latency limit: at most 1 % of
/// what was injected may miss it, and a request that failed or never
/// finished inside the run counts as a miss; the backlog must not grow.
fn meets_limit(r: &RunReport) -> bool {
    let unfinished = r.injected - r.completed - r.failed;
    let misses = r.over_target + r.failed + unfinished;
    misses * 100 <= r.injected
        && r.completed_in_horizon as f64 >= MIN_IN_HORIZON * r.injected as f64
}

impl Workload for OpenLoop {
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep> {
        let mut rep = Rep::default();
        let mut max_rate = None;
        // Totals over the ladder and the reference run together.
        let (mut in_horizon, mut completed, mut cycles, mut horizon) = (0, 0, 0, 0);
        let mut tally = |report: &RunReport, gateway: &Gateway, cfg: &LoadgenConfig| -> Res<()> {
            in_horizon += report.completed_in_horizon;
            completed += report.completed;
            cycles += gateway.device().profiler()?.cycles;
            horizon += cfg.horizon_cycles;
            Ok(())
        };
        for (i, &rps) in LADDER_RPS.iter().enumerate() {
            let cfg = self.config(i as u64, rps, self.scale.count(LADDER_HORIZON), false);
            let (report, gateway) = self.point(&mut rep, i as u64, &cfg, tracer)?;
            tally(&report, &gateway, &cfg)?;
            if meets_limit(&report) {
                max_rate = Some(rps);
            }
        }
        let reference_cfg = self.reference_config();
        let (reference, gateway) =
            self.point(&mut rep, LADDER_RPS.len() as u64, &reference_cfg, tracer)?;
        tally(&reference, &gateway, &reference_cfg)?;
        rep.failed += unreconciled(reference.injected, reference.completed, reference.failed);

        // Cycles per op and goodput pool every operating point (three
        // times the reference run's sample, so a third less seed-to-seed
        // scatter); the latency figures are the reference rate's.
        rep.exact(
            "modeled_cycles_per_op",
            cycles as f64 / completed.max(1) as f64,
        );
        rep.exact(
            "modeled_goodput_rps",
            in_horizon as f64 * CYCLES_PER_SEC / horizon.max(1) as f64,
        );
        rep.exact("modeled_p50_cycles", reference.latency.p50 as f64);
        rep.exact("modeled_p99_cycles", reference.latency.p99 as f64);
        match max_rate {
            Some(rps) => rep.exact("modeled_max_rate_rps", rps),
            None => rep.absent(
                "modeled_max_rate_rps",
                "no ladder rate met the limit: nothing below the ladder was offered or measured",
            ),
        }
        rep.exact(
            "serve.queue_wait_p50_cycles",
            reference.queue_wait.p50 as f64,
        );
        rep.exact(
            "serve.queue_wait_p99_cycles",
            reference.queue_wait.p99 as f64,
        );
        rep.exact("loadgen.injected", rep.ops as f64);
        rep.exact("loadgen.completed_in_horizon", in_horizon as f64);
        // Per-op counts: the reference run's device and gateway.
        let dev = gateway.device();
        let profiler = dev.profiler()?;
        device_rollup(
            &mut rep,
            &profiler,
            dev.issued()?,
            reference.completed.max(1) as f64,
        );
        rep.exact(
            "isa.microops_per_instr",
            profiler.ops.total() as f64 / gateway.stats().instructions.max(1) as f64,
        );
        gateway_rollup(&mut rep, &gateway.stats());
        let (hits, misses) = dev.cache_stats()?;
        cache_rollup(&mut rep, hits, misses);
        rep.layer(
            "loadgen.host_ns_per_injected",
            rep.host_s * 1e9 / rep.ops.max(1) as f64,
        );
        self.last = Some(gateway);
        Ok(rep)
    }

    /// `pim_loadgen::run` arms telemetry itself (execution only charges
    /// the modeled clock while it records), so there is nothing to switch:
    /// the end-to-end runs of this workload have it on too.
    fn set_telemetry(&mut self, _on: bool) -> bool {
        false
    }

    fn telemetry_events(&self) -> u64 {
        self.last
            .as_ref()
            .map_or(0, |gw| recorded_events(gw.telemetry()))
    }

    fn layer_metrics(&mut self, _tracer: &Tracer, _traced: &Rep) -> Res<Vec<LayerValue>> {
        Ok(vec![
            schedule_build_metric(&self.reference_config())?,
            inject_late_metric(),
        ])
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "Poisson, 60% elementwise / 40% fused, {ELEMS} elements; ladder {:?} rps x {} \
                 cycles (no drain), reference {REFERENCE_RPS} rps x {} cycles (drained); limit: \
                 p99 <= {LATENCY_LIMIT_CYCLES} cycles and >= {:.0}% completed in horizon",
                LADDER_RPS,
                self.scale.count(LADDER_HORIZON),
                self.scale.count(REFERENCE_HORIZON),
                100.0 * MIN_IN_HORIZON
            ),
            TELEMETRY_ALWAYS_ON.into(),
        ]
    }
}

// ------------------------------------------------------- fleet failover

const FLEET_HOSTS: usize = 3;
const FLEET_RPS: f64 = 100.0;
const FLEET_HORIZON: u64 = 9_000_000;
/// Simultaneous fused arrivals per burst: ~100k modeled cycles of work,
/// several lease TTLs even if a later change halves a request's cycles.
const BURST_SIZE: u32 = 16;
/// Cycles after a burst's scheduled cycle at which its fault fires: past
/// the run's start offset (session placement costs a few hundred cycles
/// of host-to-host hop before cycle 0 of the schedule), so the burst is
/// injected — and the doomed host has heartbeated — before the fault.
const FAULT_INTO_BURST: u64 = 5_000;
/// Cycles a partitioned survivor stays cut off: several lease TTLs, so
/// the lapse is detected and its sessions fail over before it rejoins.
const PARTITION_CYCLES: u64 = 200_000;

/// The hosts of one fleet, kept by the benchmark so per-host profilers,
/// gateway stats and telemetry stay reachable after the run.
struct Hosts {
    fleet: Fleet,
    devices: Vec<Device>,
    gateways: Vec<Gateway>,
}

pub struct FleetFailover {
    seed: u64,
    scale: Scale,
    last: Option<Hosts>,
}

impl FleetFailover {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let w = FleetFailover {
            seed,
            scale,
            last: None,
        };
        // Warm pass: hosts, fleet, election, placements, templates and a
        // short fault-free drained run.
        let hosts = w.hosts(HostFaultPlan::none())?;
        let mut cfg = w.config();
        cfg.horizon_cycles = 1_000_000;
        let report = run_fleet(&hosts.fleet, &cfg)?;
        if report.failed > 0 || unreconciled(report.injected, report.completed, report.failed) > 0 {
            return Err("warm pass: fleet run did not reconcile".into());
        }
        Ok(w)
    }

    fn horizon(&self) -> u64 {
        self.scale.count(FLEET_HORIZON)
    }

    /// Cycles between the fused class's bursts: a third of the horizon
    /// plus a seeded jitter of up to 5 % of it, so two bursts fall inside
    /// the horizon.
    fn burst_period(&self) -> u64 {
        let h = self.horizon();
        h / 3 + Rng::new(self.seed, 5).range_u64(0, h / 20)
    }

    /// Seeded fault times: the leader (host 0 wins the first election)
    /// crashes [`FAULT_INTO_BURST`] cycles into the first burst and a
    /// seeded survivor is partitioned as far into the second. The burst's
    /// arrival makes every live host heartbeat, so the failing host's
    /// lease lapses 20–35 k cycles later — while the burst (~100 k cycles
    /// of work, half of it on that host's session) is still being served.
    /// The lapse is therefore always detected with requests outstanding
    /// and `reissued` is at least 1 for every seed; Poisson arrivals alone
    /// leave the host idle at the lapse for about a third of all seeds.
    fn fault_plan(&self) -> HostFaultPlan {
        let period = self.burst_period();
        let survivor = Rng::new(self.seed, 6).range_u64(1, FLEET_HOSTS as u64) as usize;
        HostFaultPlan::none()
            .crash_at(0, period + FAULT_INTO_BURST)
            .partition_at(survivor, 2 * period + FAULT_INTO_BURST, PARTITION_CYCLES)
    }

    /// Single-chip functional hosts, built here rather than by
    /// `Fleet::new` so the benchmark keeps a handle on each.
    fn hosts(&self, fault: HostFaultPlan) -> Res<Hosts> {
        let mut devices = Vec::new();
        let mut gateways = Vec::new();
        for _ in 0..FLEET_HOSTS {
            let dev = Device::with_backend(host_chip(), BackendKind::Functional)?;
            gateways.push(dev.serve(open_loop_serve()));
            devices.push(dev);
        }
        let boxed = gateways
            .iter()
            .map(|gw| Box::new(gw.clone()) as Box<dyn GatewayHost + Send + Sync>)
            .collect();
        let fleet = Fleet::with_hosts(
            FleetConfig {
                hosts: FLEET_HOSTS,
                chip: host_chip(),
                serve: open_loop_serve(),
                fault,
                ..FleetConfig::default()
            },
            boxed,
        )?;
        Ok(Hosts {
            fleet,
            devices,
            gateways,
        })
    }

    /// 80 % fused, 20 % reduction, Poisson, two sessions per class; the
    /// fused class (placed first, so its first session lands on host 0)
    /// adds a burst of [`BURST_SIZE`] simultaneous arrivals every
    /// [`burst_period`](Self::burst_period).
    fn config(&self) -> LoadgenConfig {
        LoadgenConfig {
            seed: Rng::new(self.seed, 200).next_u64(),
            horizon_cycles: self.horizon(),
            window_cycles: WINDOW_CYCLES,
            classes: vec![
                ClassSpec::new(
                    "fused",
                    RequestShape::Fused,
                    ArrivalProfile::Burst {
                        base: FLEET_RPS * 0.8,
                        burst_size: BURST_SIZE,
                        period_cycles: self.burst_period(),
                    },
                    ELEMS,
                ),
                ClassSpec::new(
                    "reduction",
                    RequestShape::Reduction,
                    ArrivalProfile::Poisson {
                        rate: FLEET_RPS * 0.2,
                    },
                    ELEMS,
                ),
            ],
            sessions_per_class: 2,
            latency_target_cycles: 0,
            drain: true,
        }
    }

    fn check(report: &FleetRunReport) -> Res<()> {
        if report.fleet.failovers == 0 {
            return Err("the seeded fault schedule caused no failover".into());
        }
        if report.reissued == 0 {
            return Err("no request was in flight at the failover: nothing was re-issued".into());
        }
        Ok(())
    }
}

impl Workload for FleetFailover {
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep> {
        let plan = self.fault_plan();
        let hosts = self.hosts(plan.clone())?;
        if hosts.fleet.leader().map(|l| l.holder) != Some(0) {
            return Err("host 0 did not win the first election".into());
        }
        let mut rep = Rep::default();
        let begun = Instant::now();
        let report = run_fleet(&hosts.fleet, &self.config())?;
        let ended = Instant::now();
        tracer.record("loadgen.run_fleet", begun, ended, 0, None, 0);
        rep.host_s = (ended - begun).as_secs_f64();
        Self::check(&report)?;
        rep.ops = report.injected;
        rep.failed = report.failed + unreconciled(report.injected, report.completed, report.failed);

        let mut profiler = Profiler::new();
        let mut issued = pypim::driver::IssuedCycles::default();
        let (mut hits, mut misses) = (0, 0);
        let mut gw = GatewayStats::default();
        for (dev, gateway) in hosts.devices.iter().zip(&hosts.gateways) {
            profiler.absorb(&dev.profiler()?);
            issued += dev.issued()?;
            let (h, m) = dev.cache_stats()?;
            hits += h;
            misses += m;
            let s = gateway.stats();
            gw.groups += s.groups;
            gw.batches += s.batches;
            gw.instructions += s.instructions;
            gw.peak_inflight = gw.peak_inflight.max(s.peak_inflight);
            gw.deferred += s.deferred;
            gw.retries += s.retries;
            gw.deadline_misses += s.deadline_misses;
            gw.rejected_overload += s.rejected_overload;
            gw.evicted += s.evicted;
        }
        rep.microops = profiler.ops.total();
        let completed = report.completed.max(1) as f64;
        // Work of every host, re-issued attempts included, per request
        // that completed.
        rep.exact("modeled_cycles_per_op", profiler.cycles as f64 / completed);
        rep.exact(
            "modeled_goodput_rps",
            report.completed as f64 * CYCLES_PER_SEC / report.end_cycle.max(1) as f64,
        );
        rep.exact("modeled_p50_cycles", report.latency.p50 as f64);
        rep.exact("modeled_p99_cycles", report.latency.p99 as f64);
        rep.exact("fleet.failovers", report.fleet.failovers as f64);
        rep.exact("fleet.leader_changes", report.fleet.leader_changes as f64);
        rep.exact(
            "fleet.orphaned_sessions",
            report.fleet.orphaned_sessions as f64,
        );
        rep.exact("fleet.reissued", report.reissued as f64);
        rep.exact("fleet.heartbeats", report.fleet.heartbeats as f64);
        rep.exact(
            "fleet.failover_p50_cycles",
            report.failover_cycles.p50 as f64,
        );
        rep.exact(
            "fleet.failover_p99_cycles",
            report.failover_cycles.p99 as f64,
        );
        rep.exact("loadgen.injected", report.injected as f64);
        rep.exact(
            "loadgen.completed_in_horizon",
            report.completed_in_horizon as f64,
        );
        let fired = plan
            .events()
            .iter()
            .filter(|(cycle, _, _)| *cycle <= report.end_cycle)
            .count();
        rep.exact("fault.injected", fired as f64);
        device_rollup(&mut rep, &profiler, issued, completed);
        rep.exact(
            "isa.microops_per_instr",
            profiler.ops.total() as f64 / gw.instructions.max(1) as f64,
        );
        gateway_rollup(&mut rep, &gw);
        cache_rollup(&mut rep, hits, misses);
        // Queue waits: pooled over the hosts would need the raw buckets;
        // the busiest surviving host's histogram stands for the fleet.
        let wait = hosts
            .devices
            .iter()
            .filter_map(|d| d.metrics_snapshot().ok())
            .filter_map(|s| s.histograms.get("serve.queue_wait_cycles").copied())
            .max_by_key(|h| h.count);
        if let Some(wait) = wait {
            rep.exact("serve.queue_wait_p50_cycles", wait.p50 as f64);
            rep.exact("serve.queue_wait_p99_cycles", wait.p99 as f64);
        }
        rep.layer(
            "loadgen.host_ns_per_injected",
            rep.host_s * 1e9 / rep.ops.max(1) as f64,
        );
        self.last = Some(hosts);
        Ok(rep)
    }

    /// `pim_loadgen::run_fleet` arms telemetry fleet-wide itself, in the
    /// end-to-end runs too.
    fn set_telemetry(&mut self, _on: bool) -> bool {
        false
    }

    fn telemetry_events(&self) -> u64 {
        self.last.as_ref().map_or(0, |h| {
            recorded_events(h.fleet.telemetry())
                + h.devices
                    .iter()
                    .map(|d| recorded_events(d.telemetry()))
                    .sum::<u64>()
        })
    }

    fn layer_metrics(&mut self, _tracer: &Tracer, _traced: &Rep) -> Res<Vec<LayerValue>> {
        let mut out = vec![schedule_build_metric(&self.config())?, inject_late_metric()];
        // One control-plane step (clock sync, faults, heartbeats,
        // election, failover scan) on a fault-free three-host fleet.
        let idle = self.hosts(HostFaultPlan::none())?;
        let tick = ladder::time_iters(ladder::MIN_ITERS * 10, &mut || {
            std::hint::black_box(idle.fleet.tick_now());
            Ok(())
        })?;
        out.push(LayerValue::some("fleet.tick_ns", tick));
        Ok(out)
    }

    fn notes(&self) -> Vec<String> {
        vec![
            format!(
                "{FLEET_HOSTS} single-chip functional hosts, {FLEET_RPS} rps Poisson (80% fused, \
                 20% reduction) plus {BURST_SIZE} fused arrivals every {} cycles, {} cycles, \
                 drained; faults from the seed: {:?}",
                self.burst_period(),
                self.horizon(),
                self.fault_plan().events()
            ),
            TELEMETRY_ALWAYS_ON.into(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(injected: u64, completed: u64, in_horizon: u64, over: u64, failed: u64) -> RunReport {
        RunReport {
            seed: 0,
            horizon_cycles: 1,
            window_cycles: 1,
            injected,
            completed,
            completed_in_horizon: in_horizon,
            failed,
            over_target: over,
            end_cycle: 1,
            offered_rps: 0.0,
            achieved_rps: 0.0,
            latency: Default::default(),
            queue_wait: Default::default(),
            windows: Vec::new(),
        }
    }

    #[test]
    fn a_rate_meets_the_limit_only_without_misses_or_backlog() {
        assert!(meets_limit(&report(1000, 1000, 1000, 10, 0)));
        assert!(
            !meets_limit(&report(1000, 1000, 1000, 11, 0)),
            "p99 over the limit"
        );
        assert!(
            !meets_limit(&report(1000, 985, 985, 0, 0)),
            "unfinished requests miss"
        );
        assert!(
            !meets_limit(&report(1000, 989, 989, 0, 11)),
            "failures miss"
        );
        assert!(
            !meets_limit(&report(1000, 1000, 940, 0, 0)),
            "growing backlog"
        );
    }

    #[test]
    fn unreconciled_counts_vanished_ops() {
        assert_eq!(unreconciled(10, 7, 3), 0);
        assert_eq!(unreconciled(10, 7, 2), 1);
    }
}
