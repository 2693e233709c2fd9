//! A multi-host [`Fleet`] as a load target for the open loop in
//! [`driver`](crate::driver): lanes are fleet placements that *move* when
//! their host crashes, stalls past the lease, or partitions away.
//!
//! Every completion goes through the fleet's one staleness rule,
//! [`FleetSession::must_reissue`]: a result from a failed-over placement
//! is discarded (even a successful one — its session died mid-flight) and
//! the request re-issued against the new placement with its *original*
//! scheduled cycle, so measured latency includes the full failover
//! detection and re-placement delay.

use crate::driver::{drive, ClassSpec, LoadTarget, LoadgenConfig};
use crate::shape::{RequestShape, Template};
use pim_fleet::{Fleet, FleetSession, FleetStats};
use pim_serve::{ClusterClient, ExecFuture};
use pim_telemetry::{CounterHandle, HistogramSnapshot, MetricsSnapshot, Telemetry, WindowSample};
use pypim_core::{CoreError, Result};
use std::sync::Arc;

/// What one open-loop fleet run produced: the load-side totals plus the
/// control-plane activity (elections, failovers, re-issues) the run
/// provoked.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// Scheduled horizon in modeled cycles.
    pub horizon_cycles: u64,
    /// Window width of [`windows`](FleetRunReport::windows).
    pub window_cycles: u64,
    /// Requests injected (== scheduled arrivals).
    pub injected: u64,
    /// Requests that resolved successfully against a still-current
    /// placement.
    pub completed: u64,
    /// Successful completions within the horizon — the numerator of
    /// `achieved_rps`.
    pub completed_in_horizon: u64,
    /// Requests that failed (typed errors, evicted sessions, or re-issue
    /// budget exhausted — never hangs).
    pub failed: u64,
    /// Request attempts discarded and issued again (stale generation
    /// after a failover, or a transient placement failure).
    pub reissued: u64,
    /// Modeled cycle the run ended at.
    pub end_cycle: u64,
    /// Offered load: injected per modeled second of horizon.
    pub offered_rps: f64,
    /// Achieved goodput: in-horizon completions per modeled second.
    pub achieved_rps: f64,
    /// End-to-end latency (completion − scheduled arrival; failover
    /// detection and re-issue delay included), whole run.
    pub latency: HistogramSnapshot,
    /// Failover detection latency (`fleet.failover_cycles`) during the
    /// run.
    pub failover_cycles: HistogramSnapshot,
    /// Control-plane counter deltas over the run.
    pub fleet: FleetStats,
    /// The windowed time series (counters are per-window deltas; includes
    /// the `fleet.*` counters).
    pub windows: Vec<WindowSample>,
}

/// One fleet lane: the placement plus the replay template built against
/// its *current* client, rebuilt whenever the placement generation moves.
struct Lane {
    session: FleetSession,
    /// The current placement's client and the template bound to it;
    /// `None` once the session is evicted with nowhere to go.
    bound: Option<(Arc<ClusterClient>, Template)>,
    generation: u64,
    shape: RequestShape,
    elems: usize,
}

impl Lane {
    /// Re-binds the template to the session's current placement if it
    /// moved, and hands that placement back; `None` once the session is
    /// evicted for good.
    fn placement(&mut self) -> Result<Option<&(Arc<ClusterClient>, Template)>> {
        let generation = self.session.generation();
        if self.bound.is_none() || generation != self.generation {
            self.bound = match self.session.client() {
                Some(client) => {
                    let template = Template::build(&client, self.shape, self.elems)?;
                    self.generation = generation;
                    Some((client, template))
                }
                None => None,
            };
        }
        Ok(self.bound.as_ref())
    }
}

/// What an attempt remembers: the generation it was submitted under, and
/// its client — which keeps the submission's session alive even if the
/// lane has already re-bound to a new placement.
struct Stamp {
    generation: u64,
    _client: Arc<ClusterClient>,
}

/// A [`Fleet`] as a load target.
struct FleetTarget<'a> {
    fleet: &'a Fleet,
    lanes: Vec<Lane>,
    base_stats: FleetStats,
    live_hosts: CounterHandle,
}

impl LoadTarget for FleetTarget<'_> {
    type Stamp = Stamp;

    fn telemetry(&self) -> &Telemetry {
        self.fleet.telemetry()
    }

    fn set_armed(&self, on: bool) {
        self.fleet.set_telemetry_enabled(on);
    }

    fn open_lane(&mut self, class: &ClassSpec) -> Result<()> {
        let mut lane = Lane {
            session: self.fleet.session()?,
            bound: None,
            generation: 0,
            shape: class.shape,
            elems: class.elems,
        };
        if lane.placement()?.is_none() {
            return Err(CoreError::Evicted {
                session: lane.session.id(),
            });
        }
        self.lanes.push(lane);
        Ok(())
    }

    fn histogram(&self) -> &'static str {
        "fleet.failover_cycles"
    }

    fn begin(&mut self) -> Result<u64> {
        self.base_stats = self.fleet.stats();
        Ok(self.now())
    }

    /// One control-plane step: due faults fire, heartbeats renew, lapsed
    /// hosts fail over (moving their lanes' placements).
    fn now(&self) -> u64 {
        self.fleet.tick_now()
    }

    fn submit(&mut self, lane: usize) -> Result<Option<(ExecFuture, Stamp)>> {
        let lane = &mut self.lanes[lane];
        let Some((client, template)) = lane.placement()? else {
            return Ok(None);
        };
        let fut = client.submit(template.instrs.clone());
        let stamp = Stamp {
            _client: Arc::clone(client),
            generation: lane.generation,
        };
        Ok(Some((fut, stamp)))
    }

    fn must_reissue(&mut self, lane: usize, stamp: &Stamp, result: &Result<()>) -> bool {
        let session = &self.lanes[lane].session;
        session.must_reissue(stamp.generation, result)
    }

    fn snapshot(&self) -> Result<MetricsSnapshot> {
        self.fleet.metrics_snapshot()
    }

    fn record_tracks(&mut self, at: u64) -> Result<()> {
        self.live_hosts.record(at, self.fleet.live_hosts() as f64);
        Ok(())
    }
}

/// Runs one open-loop load against `fleet` (see the module docs for the
/// failover and staleness semantics).
///
/// # Errors
///
/// Fails on an empty/zero config or on initial session/template setup
/// errors. Individual request failures — including sessions evicted
/// because every host died — do **not** fail the run; they count into
/// [`FleetRunReport::failed`].
pub fn run_fleet(fleet: &Fleet, cfg: &LoadgenConfig) -> Result<FleetRunReport> {
    let mut target = FleetTarget {
        fleet,
        lanes: Vec::new(),
        base_stats: FleetStats::default(),
        live_hosts: fleet.telemetry().counter_track("fleet/live_hosts"),
    };
    let run = drive(&mut target, cfg)?;
    let (end, base) = (fleet.stats(), target.base_stats);
    let stats = FleetStats {
        leader_changes: end.leader_changes - base.leader_changes,
        failovers: end.failovers - base.failovers,
        orphaned_sessions: end.orphaned_sessions - base.orphaned_sessions,
        reissued: end.reissued - base.reissued,
        heartbeats: end.heartbeats - base.heartbeats,
        sessions: end.sessions - base.sessions,
    };
    Ok(FleetRunReport {
        seed: run.seed,
        horizon_cycles: run.horizon_cycles,
        window_cycles: run.window_cycles,
        injected: run.injected,
        completed: run.completed,
        completed_in_horizon: run.completed_in_horizon,
        failed: run.failed,
        reissued: stats.reissued,
        end_cycle: run.end_cycle,
        offered_rps: run.offered_rps,
        achieved_rps: run.achieved_rps,
        latency: run.latency,
        // The fleet target's own histogram is the failover detection
        // latency, not a queue wait.
        failover_cycles: run.queue_wait,
        fleet: stats,
        windows: run.windows,
    })
}
