//! The open loop, written once: [`drive`] injects requests at their
//! scheduled modeled cycles regardless of completion, sweeps the
//! in-flight set from one host thread, and closes windowed samples as the
//! modeled clock crosses window boundaries (semantics, poll order and
//! determinism: the crate docs). What it drives is a [`LoadTarget`]: the
//! gateway target here ([`run`]) or the fleet target in
//! [`fleet`](crate::fleet) ([`run_fleet`](crate::run_fleet)).

use crate::profile::{build_schedule, ArrivalProfile};
use crate::shape::{RequestShape, Template};
use pim_fleet::MAX_REISSUES;
use pim_serve::{ClusterClient, ExecFuture, Gateway};
use pim_telemetry::{
    CounterHandle, HistogramSnapshot, MetricsSnapshot, Telemetry, WindowSample, WindowSampler,
};
use pypim_core::{CoreError, Result};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// Modeled cycles per modeled second in every `*_rps` figure — the trace
/// export's 1 cycle = 1 µs convention, so a profile rate of `n` reads as
/// `n` requests per modeled second.
pub const MODELED_CYCLES_PER_SEC: f64 = 1e6;

/// One traffic class: a request shape, its arrival process, and its
/// tensor size.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class name in reports and tables.
    pub name: String,
    /// Request shape this class issues.
    pub shape: RequestShape,
    /// Arrival process over the horizon.
    pub profile: ArrivalProfile,
    /// Elements per request tensor.
    pub elems: usize,
}

impl ClassSpec {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        shape: RequestShape,
        profile: ArrivalProfile,
        elems: usize,
    ) -> Self {
        ClassSpec {
            name: name.into(),
            shape,
            profile,
            elems,
        }
    }
}

/// Full specification of one open-loop run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Seed for every arrival schedule (same seed → same schedule).
    pub seed: u64,
    /// Modeled cycles of scheduled arrivals.
    pub horizon_cycles: u64,
    /// Window width for the time series.
    pub window_cycles: u64,
    /// Traffic classes (session pools and templates are per class).
    pub classes: Vec<ClassSpec>,
    /// Gateway sessions per class; arrivals round-robin across them by
    /// sequence number.
    pub sessions_per_class: usize,
    /// Latency SLO target in modeled cycles; completions above it count
    /// into the `loadgen.over_target` counter. `0` disables.
    pub latency_target_cycles: u64,
    /// Keep polling after the last arrival until every request resolves
    /// (`true`), or abandon outstanding work at the horizon (`false`;
    /// collapse sweeps use this so a saturated point terminates).
    pub drain: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 1,
            horizon_cycles: 1_000_000,
            window_cycles: 100_000,
            classes: Vec::new(),
            sessions_per_class: 2,
            latency_target_cycles: 0,
            drain: true,
        }
    }
}

impl LoadgenConfig {
    /// Offered load over the horizon, requests per modeled second.
    pub fn offered_rps(&self) -> f64 {
        self.classes
            .iter()
            .map(|c| c.profile.mean_rate(self.horizon_cycles))
            .sum()
    }

    /// Returns the config with every class's arrival profile scaled by
    /// `factor` (the sweep knob).
    pub fn scaled(&self, factor: f64) -> LoadgenConfig {
        let mut out = self.clone();
        for c in &mut out.classes {
            c.profile = c.profile.scaled(factor);
        }
        out
    }
}

/// What one open-loop run produced: totals, final latency summaries, and
/// the windowed time series.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Seed the schedule was generated from.
    pub seed: u64,
    /// Scheduled horizon in modeled cycles.
    pub horizon_cycles: u64,
    /// Window width of [`windows`](RunReport::windows).
    pub window_cycles: u64,
    /// Requests injected (== scheduled arrivals).
    pub injected: u64,
    /// Requests that resolved successfully (including after the horizon,
    /// during drain).
    pub completed: u64,
    /// Successful completions whose completion cycle was within the
    /// horizon — the numerator of `achieved_rps`.
    pub completed_in_horizon: u64,
    /// Requests that resolved with an error (admission rejections under a
    /// bounded queue, deadline misses, shard faults).
    pub failed: u64,
    /// Successful completions above
    /// [`latency_target_cycles`](LoadgenConfig::latency_target_cycles).
    pub over_target: u64,
    /// Modeled cycle the run ended at.
    pub end_cycle: u64,
    /// Offered load: injected per modeled second of horizon.
    pub offered_rps: f64,
    /// Achieved goodput: in-horizon completions per modeled second.
    pub achieved_rps: f64,
    /// End-to-end latency (completion − *scheduled* arrival, so queueing
    /// incurred before admission is included), whole run.
    pub latency: HistogramSnapshot,
    /// Gateway queue wait (admission → submission), whole run.
    pub queue_wait: HistogramSnapshot,
    /// The windowed time series (counters are per-window deltas).
    pub windows: Vec<WindowSample>,
}

/// What the open loop drives. A **lane** is one (class, session) slot: a
/// session on the target plus the replay template bound to it; the loop
/// opens `classes × sessions_per_class` of them, numbered in that order,
/// and round-robins each class's arrivals over its lanes.
pub(crate) trait LoadTarget {
    /// What an attempt remembers of the placement it was submitted under.
    type Stamp;

    /// The telemetry whose modeled clock the loop jumps when idle and
    /// whose registry holds the `loadgen.*` metrics.
    fn telemetry(&self) -> &Telemetry;

    /// Arms or disarms telemetry recording on everything that executes:
    /// execution only charges the modeled clock while telemetry records,
    /// so an open-loop run needs it on.
    fn set_armed(&self, on: bool);

    /// Opens the next lane, for `class`.
    fn open_lane(&mut self, class: &ClassSpec) -> Result<()>;

    /// Registry name of the one histogram of its own the target reports,
    /// per window and — as [`RunReport::queue_wait`] — over the run.
    fn histogram(&self) -> &'static str;

    /// Called once, with every lane open: baselines whatever else the
    /// target reports as a delta over the run, and returns the cycle the
    /// run starts at.
    fn begin(&mut self) -> Result<u64>;

    /// The current modeled cycle (a fleet runs a control-plane step to
    /// tell).
    fn now(&self) -> u64;

    /// Submits one attempt on `lane`; `None` when the lane has nowhere
    /// left to submit to (the request then counts as failed).
    fn submit(&mut self, lane: usize) -> Result<Option<(ExecFuture, Self::Stamp)>>;

    /// Whether `result` of an attempt on `lane` must be discarded and the
    /// request issued again.
    fn must_reissue(&mut self, lane: usize, stamp: &Self::Stamp, result: &Result<()>) -> bool;

    /// The metrics snapshot a window is closed from.
    fn snapshot(&self) -> Result<MetricsSnapshot>;

    /// Records the target's counter tracks for the window closing at
    /// modeled cycle `at`.
    fn record_tracks(&mut self, at: u64) -> Result<()>;
}

/// One attempt in flight.
struct Pending<S> {
    fut: ExecFuture,
    stamp: S,
    lane: usize,
    /// Modeled cycle the request was scheduled at (a re-issue keeps its
    /// original, so measured latency includes detection and re-placement).
    scheduled: u64,
    reissues: u32,
}

/// The armed target; restores the caller's arming on drop, error paths
/// included.
struct Armed<'a, T: LoadTarget> {
    target: &'a mut T,
    prev: bool,
}

impl<T: LoadTarget> Drop for Armed<'_, T> {
    fn drop(&mut self) {
        self.target.set_armed(self.prev);
    }
}

/// Runs one open-loop load against `target`. The report's `queue_wait`
/// summarizes the target's [own histogram](LoadTarget::histogram).
pub(crate) fn drive<T: LoadTarget>(target: &mut T, cfg: &LoadgenConfig) -> Result<RunReport> {
    let invalid = |reason: &str| CoreError::Protocol {
        reason: format!("loadgen config: {reason}"),
    };
    if cfg.classes.is_empty() {
        return Err(invalid("no traffic classes"));
    }
    if cfg.sessions_per_class == 0 {
        return Err(invalid("sessions_per_class must be at least 1"));
    }
    if cfg.horizon_cycles == 0 || cfg.window_cycles == 0 {
        return Err(invalid("horizon_cycles and window_cycles must be nonzero"));
    }

    let telemetry = target.telemetry().clone();
    let armed = Armed {
        prev: telemetry.is_enabled(),
        target,
    };
    armed.target.set_armed(true);
    let target = &mut *armed.target;

    // One lane per (class, session). Opening them allocates every tensor
    // the run will touch; injection itself only clones instruction
    // vectors.
    for class in &cfg.classes {
        for _ in 0..cfg.sessions_per_class {
            target.open_lane(class)?;
        }
    }

    let profiles: Vec<ArrivalProfile> = cfg.classes.iter().map(|c| c.profile).collect();
    let schedule = build_schedule(&profiles, cfg.seed, cfg.horizon_cycles);

    let metrics = telemetry.metrics();
    let injected_c = metrics.counter("loadgen.injected");
    let completed_c = metrics.counter("loadgen.completed");
    let failed_c = metrics.counter("loadgen.failed");
    let over_target_c = metrics.counter("loadgen.over_target");
    let latency_h = metrics.histogram("loadgen.latency_cycles");
    let own_h = metrics.histogram(target.histogram());
    let (base_latency, base_own) = (latency_h.state(), own_h.state());

    let mut sampler = WindowSampler::new(cfg.window_cycles);
    sampler.watch_histogram("loadgen.latency_cycles", &latency_h);
    sampler.watch_histogram(target.histogram(), &own_h);

    // Every poll runs the gateway's pump to completion on this thread, so
    // nothing is ever woken from elsewhere.
    let mut cx = Context::from_waker(Waker::noop());

    let start = target.begin()?;
    let horizon_end = start + cfg.horizon_cycles;
    let mut pending: Vec<Pending<T::Stamp>> = Vec::new();
    let mut next = 0usize;
    let (mut injected, mut completed, mut completed_in_horizon, mut failed, mut over_target) =
        (0u64, 0u64, 0u64, 0u64, 0u64);

    loop {
        let now = target.now();

        // Inject every arrival due by the current modeled time. Late
        // injection (now past the scheduled cycle because execution
        // advanced the clock in a jump) is correct open-loop accounting:
        // latency is measured from the *scheduled* cycle, so time spent
        // waiting for the driver to reach the arrival is queueing delay.
        while next < schedule.len() && start + schedule[next].cycle <= now {
            let a = schedule[next];
            next += 1;
            injected += 1;
            injected_c.inc();
            let lane = a.class * cfg.sessions_per_class + a.seq as usize % cfg.sessions_per_class;
            match target.submit(lane)? {
                Some((fut, stamp)) => pending.push(Pending {
                    fut,
                    stamp,
                    lane,
                    scheduled: start + a.cycle,
                    reissues: 0,
                }),
                None => {
                    failed += 1;
                    failed_c.inc();
                }
            }
        }

        // Close windows as the clock crosses boundaries.
        if sampler.ready(now) {
            sampler.sample(now, target.snapshot()?);
            target.record_tracks(now)?;
        }

        if pending.is_empty() {
            match schedule.get(next) {
                // Idle: jump the clock to the next arrival, but stop at
                // window boundaries on the way so the series keeps its
                // grid resolution across idle gaps (and a fleet's next
                // `now` fires the faults that became due in the jump).
                Some(a) => {
                    let boundary = (now / cfg.window_cycles + 1) * cfg.window_cycles;
                    telemetry.advance_clock((start + a.cycle).min(boundary));
                    continue;
                }
                None => break,
            }
        }

        if !cfg.drain && next >= schedule.len() && now >= horizon_end {
            break; // Abandon outstanding work: saturated sweep points end.
        }

        // Sweep the in-flight set in admission order (crate docs). A poll
        // pumps queued groups to completion, so this sweep both advances
        // the modeled clock and retires requests.
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            let Poll::Ready(res) = Pin::new(&mut pending[i].fut).poll(&mut cx) else {
                i += 1;
                continue;
            };
            progressed = true;
            let p = pending.remove(i);
            if target.must_reissue(p.lane, &p.stamp, &res) {
                let again = if p.reissues < MAX_REISSUES {
                    target.submit(p.lane)?
                } else {
                    None
                };
                match again {
                    Some((fut, stamp)) => pending.push(Pending {
                        fut,
                        stamp,
                        reissues: p.reissues + 1,
                        ..p
                    }),
                    None => {
                        failed += 1;
                        failed_c.inc();
                    }
                }
                continue;
            }
            match res {
                Ok(()) => {
                    // The slot's completion stamp, not the clock at poll
                    // time: one pump can drain many groups before this
                    // sweep resumes, and the clock has then moved past
                    // all of them.
                    let done_at = p.fut.completed_at().unwrap_or_else(|| telemetry.now());
                    let lat = done_at.saturating_sub(p.scheduled);
                    latency_h.record(lat);
                    completed += 1;
                    completed_c.inc();
                    if done_at <= horizon_end {
                        completed_in_horizon += 1;
                    }
                    if cfg.latency_target_cycles > 0 && lat > cfg.latency_target_cycles {
                        over_target += 1;
                        over_target_c.inc();
                    }
                }
                Err(_) => {
                    failed += 1;
                    failed_c.inc();
                }
            }
        }

        if !progressed {
            // The first poll of a sweep pumps every queued batch of its
            // gateway, so some request always resolves; one that did not
            // would wait forever.
            return Err(CoreError::Protocol {
                reason: format!(
                    "open loop: a sweep over {} pending requests retired none",
                    pending.len()
                ),
            });
        }
    }

    // Close the partial tail window so the series covers the whole run.
    let end_cycle = target.now();
    let tail_start = sampler.last().map_or(start, |w| w.end);
    if end_cycle > tail_start {
        sampler.sample(end_cycle, target.snapshot()?);
        target.record_tracks(end_cycle)?;
    }

    let horizon_secs = cfg.horizon_cycles as f64 / MODELED_CYCLES_PER_SEC;
    Ok(RunReport {
        seed: cfg.seed,
        horizon_cycles: cfg.horizon_cycles,
        window_cycles: cfg.window_cycles,
        injected,
        completed,
        completed_in_horizon,
        failed,
        over_target,
        end_cycle,
        offered_rps: injected as f64 / horizon_secs,
        achieved_rps: completed_in_horizon as f64 / horizon_secs,
        latency: latency_h.state().since(&base_latency).summary(),
        queue_wait: own_h.state().since(&base_own).summary(),
        windows: sampler.samples().cloned().collect(),
    })
}

/// A [`Gateway`] as a load target: lanes are plain sessions, a placement
/// never moves, so no result is ever discarded.
struct GatewayTarget<'a> {
    gateway: &'a Gateway,
    lanes: Vec<(ClusterClient, Template)>,
    /// Gauge track recorded at each window close.
    queue_depth: CounterHandle,
    /// Per shard: its utilization track and its profiler cycles when the
    /// last window closed (the run's start for the first).
    shards: Vec<(CounterHandle, u64)>,
    /// Modeled cycle the last window closed at.
    prev_at: u64,
}

impl LoadTarget for GatewayTarget<'_> {
    type Stamp = ();

    fn telemetry(&self) -> &Telemetry {
        self.gateway.telemetry()
    }

    fn set_armed(&self, on: bool) {
        self.telemetry().set_enabled(on);
    }

    fn open_lane(&mut self, class: &ClassSpec) -> Result<()> {
        let client = self.gateway.session()?;
        let template = Template::build(&client, class.shape, class.elems)?;
        self.lanes.push((client, template));
        Ok(())
    }

    fn histogram(&self) -> &'static str {
        "serve.queue_wait_cycles"
    }

    fn begin(&mut self) -> Result<u64> {
        // Utilization is a delta: whatever the shards ran before this run
        // (an earlier run on the same gateway) is not the first window's.
        if let Some(stats) = self.gateway.device().cluster_stats()? {
            for s in &stats.shards {
                let track = format!("shard{}/util", s.shard);
                let track = self.telemetry().counter_track(&track);
                self.shards.push((track, s.profiler.cycles));
            }
        }
        self.prev_at = self.now();
        Ok(self.prev_at)
    }

    fn now(&self) -> u64 {
        self.telemetry().now()
    }

    fn submit(&mut self, lane: usize) -> Result<Option<(ExecFuture, ())>> {
        let (client, template) = &self.lanes[lane];
        Ok(Some((client.submit(template.instrs.clone()), ())))
    }

    fn must_reissue(&mut self, _lane: usize, _stamp: &(), _result: &Result<()>) -> bool {
        false
    }

    fn snapshot(&self) -> Result<MetricsSnapshot> {
        self.gateway.device().metrics_snapshot()
    }

    fn record_tracks(&mut self, at: u64) -> Result<()> {
        let metrics = self.telemetry().metrics();
        self.queue_depth
            .record(at, metrics.gauge("serve.queue_depth").get() as f64);
        if let Some(stats) = self.gateway.device().cluster_stats()? {
            // A window closes late when an execution jump crosses its
            // boundary, so the share is of the cycles it really spanned.
            let span = at.saturating_sub(self.prev_at).max(1) as f64;
            for (s, (util, prev)) in stats.shards.iter().zip(&mut self.shards) {
                let delta = s.profiler.cycles.saturating_sub(*prev);
                *prev = s.profiler.cycles;
                util.record(at, 100.0 * delta as f64 / span);
            }
        }
        self.prev_at = at;
        Ok(())
    }
}

/// Runs one open-loop load against `gateway` (see the crate docs for the
/// loop's semantics, poll order and determinism guarantees).
///
/// Overload studies should build the gateway with
/// `max_queue_depth: 0` (unbounded session queues): with the default
/// bounded queues, offered load beyond the bound fast-fails with
/// `Overloaded` instead of queueing, and the run measures admission-loss
/// rather than queueing collapse.
///
/// # Errors
///
/// Fails on an empty/zero config, on session or template setup errors
/// (e.g. warp space too small for `classes × sessions_per_class`
/// windows), or if a stats snapshot fails mid-run. Individual request
/// failures do **not** fail the run — they count into
/// [`RunReport::failed`].
pub fn run(gateway: &Gateway, cfg: &LoadgenConfig) -> Result<RunReport> {
    let telemetry = gateway.telemetry();
    let mut target = GatewayTarget {
        gateway,
        lanes: Vec::new(),
        queue_depth: telemetry.counter_track("serve/queue_depth"),
        shards: Vec::new(),
        prev_at: 0,
    };
    drive(&mut target, cfg)
}
