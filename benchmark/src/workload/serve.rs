//! `serve_fused` / `serve_crossing`: closed-loop clients on a 4-shard
//! functional cluster behind the `pim-serve` gateway. A client issues its
//! next request only after the previous one returned its value.

use super::ladder::{self, MIN_ITERS};
use super::{median_opt, recorded_events, LayerValue, Rep, Res, Rng, Scale, Workload};
use crate::stats::{highest_supported_percentile, percentile, self_time};
use crate::trace::Tracer;
use futures::executor::block_on;
use futures::future::join_all;
use pypim::cluster::{ClusterStats, GlobalWrite};
use pypim::driver::Driver;
use pypim::func::AnyBackend;
use pypim::isa::Instruction;
use pypim::serve::RequestPlan;
use pypim::{
    plan_copy, BackendKind, ClusterClient, DType, Device, DeviceServeExt, Gateway, GatewayStats,
    ParallelismMode, PimCluster, PimConfig, RegOp, ServeConfig, Tensor,
};
use std::time::Instant;

const SHARDS: usize = 4;
/// Distinct request payloads a workload cycles through (each with its
/// reference value computed once in set-up).
const POOL: usize = 16;

/// Per-chip geometry: 4 crossbars × 64 rows, so the cluster is one
/// 16-warp, 1024-thread memory.
fn shard_cfg() -> PimConfig {
    PimConfig::small().with_crossbars(4)
}

fn cluster_device() -> Res<Device> {
    Ok(Device::cluster_with_options(
        shard_cfg(),
        SHARDS,
        // Recovery stays at its default (on): journal and checkpoints are
        // on the blocking path, as they are for any user of the cluster.
        ladder::cluster_options(ParallelismMode::default(), true),
    )?)
}

/// What one request came to.
struct Outcome {
    host_s: f64,
    ok: bool,
    instrs: usize,
}

/// Everything a repetition reads off the cluster and the gateway after
/// its closed loop has drained.
fn cluster_rollup(
    rep: &mut Rep,
    dev: &Device,
    stats: &ClusterStats,
    gw_before: GatewayStats,
    gw: GatewayStats,
    instrs: u64,
) -> Res<()> {
    let ops = rep.ops as f64;
    let profiler = stats.merged_profiler();
    let issued = stats.issued();
    let (hits, misses) = stats.cache_stats();
    let latency = stats.modeled_latency_cycles();
    rep.microops = profiler.ops.total();
    rep.exact("modeled_cycles_per_op", latency as f64 / ops);
    rep.exact("isa.instrs_per_op", instrs as f64 / ops);
    rep.layer(
        "isa.microops_per_instr",
        profiler.ops.total() as f64 / instrs.max(1) as f64,
    );
    rep.layer("sim.microops_per_op", profiler.ops.total() as f64 / ops);
    rep.layer("sim.cycles_per_op", stats.total_cycles() as f64 / ops);
    rep.layer("sim.gates_per_op", profiler.gates as f64 / ops);
    rep.layer("sim.move_pairs_per_op", profiler.move_pairs as f64 / ops);
    rep.layer(
        "driver.issued_logic_cycles_per_op",
        issued.logic as f64 / ops,
    );
    rep.layer(
        "driver.issued_overhead_cycles_per_op",
        (issued.total - issued.logic) as f64 / ops,
    );
    rep.layer("driver.cache_hits", hits as f64);
    rep.layer("driver.cache_misses", misses as f64);
    rep.layer(
        "driver.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let t = &stats.traffic;
    rep.layer("cluster.cross_words_per_op", t.cross_words as f64 / ops);
    rep.layer("cluster.link_cycles_per_op", t.link_cycles as f64 / ops);
    rep.layer("cluster.messages_per_op", t.messages as f64 / ops);
    rep.layer("cluster.barriers_per_op", t.barriers as f64 / ops);
    rep.layer(
        "cluster.drained_queues_per_op",
        t.drained_queues as f64 / ops,
    );
    rep.layer("cluster.runs_merged_per_op", t.runs_merged as f64 / ops);
    let least_busy = stats
        .shards
        .iter()
        .map(|s| s.profiler.cycles)
        .min()
        .unwrap_or(0);
    rep.layer(
        "cluster.shard_busy_ratio_min",
        least_busy as f64 / latency.max(1) as f64,
    );
    rep.layer("cluster.worker_restarts", stats.worker_restarts as f64);
    rep.layer(
        "cluster.replayed_instructions",
        stats.replayed_instructions as f64,
    );
    let groups = gw.groups - gw_before.groups;
    let batches = gw.batches - gw_before.batches;
    rep.layer("serve.groups", groups as f64);
    rep.layer("serve.batches", batches as f64);
    rep.layer(
        "serve.batches_per_group",
        batches as f64 / groups.max(1) as f64,
    );
    rep.layer("serve.peak_inflight", gw.peak_inflight as f64);
    rep.layer("serve.deferred", (gw.deferred - gw_before.deferred) as f64);
    rep.layer("serve.retries", (gw.retries - gw_before.retries) as f64);
    rep.layer(
        "serve.deadline_misses",
        (gw.deadline_misses - gw_before.deadline_misses) as f64,
    );
    rep.layer(
        "serve.rejected_overload",
        (gw.rejected_overload - gw_before.rejected_overload) as f64,
    );
    rep.layer("serve.evicted", (gw.evicted - gw_before.evicted) as f64);
    // The gateway only records queue waits while telemetry is on.
    if let Some(wait) = dev
        .metrics_snapshot()?
        .histograms
        .get("serve.queue_wait_cycles")
    {
        if wait.count > 0 {
            rep.layer("serve.queue_wait_p50_cycles", wait.p50 as f64);
            rep.layer("serve.queue_wait_p99_cycles", wait.p99 as f64);
        }
    }
    Ok(())
}

/// Folds per-client outcome lists into the repetition.
fn fold_outcomes(rep: &mut Rep, outcomes: Vec<Vec<Outcome>>) -> u64 {
    let mut instrs = 0;
    for o in outcomes.into_iter().flatten() {
        rep.ops += 1;
        rep.failed += u64::from(!o.ok);
        rep.op_s.push(o.host_s);
        instrs += o.instrs as u64;
    }
    instrs
}

/// What both serve workloads hold: the cluster device, its gateway, and
/// the bookkeeping of a closed-loop repetition.
struct Served {
    dev: Device,
    gateway: Gateway,
    /// Requests per client per repetition.
    rounds: u64,
    /// Ladder iterations (a tenth with `--quick`).
    ladder_iters: usize,
    next_op: std::cell::Cell<u64>,
    /// Report lines the traced run derives from the ladder.
    derived: Vec<String>,
}

impl Served {
    fn new(dev: Device, gateway: Gateway, warm_rounds: u64, scale: Scale) -> Self {
        Served {
            dev,
            gateway,
            rounds: warm_rounds,
            ladder_iters: scale.count(MIN_ITERS as u64) as usize,
            next_op: std::cell::Cell::new(0),
            derived: Vec::new(),
        }
    }

    fn op_id(&self) -> u64 {
        self.next_op.set(self.next_op.get() + 1);
        self.next_op.get()
    }

    /// One repetition: counters reset, `closed_loop` timed, everything
    /// read off the cluster and the gateway afterwards.
    fn rep(&self, closed_loop: impl FnOnce() -> Vec<Vec<Outcome>>) -> Res<Rep> {
        self.dev.reset_counters()?;
        let gw_before = self.gateway.stats();
        let mut rep = Rep::default();
        let begun = Instant::now();
        let outcomes = closed_loop();
        rep.host_s = begun.elapsed().as_secs_f64();
        let instrs = fold_outcomes(&mut rep, outcomes);
        let stats = self.dev.cluster_stats()?.expect("cluster-backed device");
        cluster_rollup(
            &mut rep,
            &self.dev,
            &stats,
            gw_before,
            self.gateway.stats(),
            instrs,
        )?;
        Ok(rep)
    }

    fn set_telemetry(&self, on: bool) {
        self.dev.telemetry().set_enabled(on);
    }

    /// Span rollups and the tail diagnostic both workloads report.
    fn span_metrics(&self, tracer: &Tracer, traced: &Rep) -> Vec<LayerValue> {
        let mut out: Vec<LayerValue> = [
            ("core.plan_build", "core.plan_build_ns_per_op"),
            ("serve.run", "serve.run_ns_per_op"),
            ("serve.readback", "serve.readback_ns_per_op"),
        ]
        .into_iter()
        .map(|(span, metric)| {
            LayerValue::noted(
                metric,
                median_opt(&tracer.durations(span)),
                "median span of the closed-loop traced repetitions",
            )
        })
        .collect();
        let samples = traced.op_s.len();
        out.push(LayerValue::noted(
            "serve.host_op_p99_s",
            Some(percentile(&traced.op_s, 99.0)),
            match highest_supported_percentile(samples) {
                Some(p) => format!(
                    "{samples} samples; highest percentile with 10 samples beyond it is p{p}"
                ),
                None => format!("{samples} samples: too few for any tail percentile"),
            },
        ));
        out
    }

    fn notes(&self, headline: String) -> Vec<String> {
        std::iter::once(headline)
            .chain(self.derived.iter().cloned())
            .collect()
    }
}

// ---------------------------------------------------------------- fused

/// Clients of the fused workload; each gets a chip-local 2-warp window.
const FUSED_CLIENTS: usize = 8;
/// Requests per client per repetition (full scale).
const FUSED_ROUNDS: u64 = 25;

struct FusedPayload {
    values: Vec<f32>,
    fill: f32,
    /// `sum(x * fill + x)` as the blocking single-chip API computes it.
    expected: u32,
}

pub struct Fused {
    served: Served,
    clients: Vec<ClusterClient>,
    pool: Vec<FusedPayload>,
}

/// Plans the request on `client`: upload, fill, mul, add and every
/// reduction level in one plan; returns it with the one-word result.
fn plan_fused<'c>(
    client: &'c ClusterClient,
    payload: &FusedPayload,
) -> pypim::Result<(RequestPlan<'c>, Tensor)> {
    let mut plan = client.plan();
    let x = plan.upload_f32(&payload.values)?;
    let y = plan.full_f32(payload.values.len(), payload.fill)?;
    let xy = plan.mul(&x, &y)?;
    let z = plan.add(&xy, &x)?;
    let sum = plan.reduce(&z, RegOp::Add)?;
    Ok((plan, sum))
}

/// The request: upload, fill, mul, add, every reduction level — one
/// submission — then a one-word read-back.
async fn fused_request(
    client: &ClusterClient,
    payload: &FusedPayload,
    tracer: &Tracer,
    op: u64,
    lane: u32,
) -> Outcome {
    let t0 = Instant::now();
    let mut instrs = 0;
    let result: pypim::Result<u32> = async {
        let (plan, s) = plan_fused(client, payload)?;
        instrs = plan.len();
        let t1 = Instant::now();
        plan.run().await?;
        let t2 = Instant::now();
        let word = client.read_locs(&s.element_locs()).await?[0];
        let t3 = Instant::now();
        let root = tracer.open_root("op", t0, op, lane);
        tracer.record("core.plan_build", t0, t1, op, root, lane);
        tracer.record("serve.run", t1, t2, op, root, lane);
        tracer.record("serve.readback", t2, t3, op, root, lane);
        tracer.close_root(root, t3);
        Ok(word)
    }
    .await;
    Outcome {
        host_s: t0.elapsed().as_secs_f64(),
        ok: result.is_ok_and(|word| word == payload.expected),
        instrs,
    }
}

/// The same request through the blocking tensor API on one chip.
fn fused_reference(dev: &Device, values: &[f32], fill: f32) -> Res<u32> {
    let x = dev.from_slice_f32(values)?;
    let y = dev.full_f32(values.len(), fill)?;
    let z = x.binary(RegOp::Mul, &y)?.binary(RegOp::Add, &x)?;
    Ok(z.sum_f32()?.to_bits())
}

impl Fused {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let dev = cluster_device()?;
        let session_warps = dev.config().crossbars as u32 / FUSED_CLIENTS as u32;
        let elems = session_warps as usize * dev.config().rows;
        let gateway = dev.serve(ServeConfig {
            session_warps,
            ..ServeConfig::default()
        });
        let clients = (0..FUSED_CLIENTS)
            .map(|_| gateway.session())
            .collect::<pypim::Result<Vec<_>>>()?;

        let reference = Device::with_backend(shard_cfg(), BackendKind::Functional)?;
        let mut rng = Rng::new(seed, 2);
        let pool = (0..POOL)
            .map(|_| {
                let values: Vec<f32> = (0..elems).map(|_| rng.range_f32(-4.0, 4.0)).collect();
                let fill = rng.range_f32(0.5, 2.5);
                let expected = fused_reference(&reference, &values, fill)?;
                Ok(FusedPayload {
                    values,
                    fill,
                    expected,
                })
            })
            .collect::<Res<Vec<_>>>()?;

        let mut w = Fused {
            // Warm pass: one round per client compiles every routine.
            served: Served::new(dev, gateway, 1, scale),
            clients,
            pool,
        };
        let warm = w.rep(&Tracer::new(false))?;
        if warm.failed > 0 {
            return Err(format!("warm pass: {} wrong sums", warm.failed).into());
        }
        w.served.rounds = scale.count(FUSED_ROUNDS);
        Ok(w)
    }

    /// Every client's closed loop of `rounds` requests, on one thread.
    fn closed_loop(&self, tracer: &Tracer) -> Vec<Vec<Outcome>> {
        let served = &self.served;
        block_on(join_all(self.clients.iter().enumerate().map(
            |(cid, client)| async move {
                let mut outcomes = Vec::with_capacity(served.rounds as usize);
                for round in 0..served.rounds as usize {
                    let payload = &self.pool[(cid * 7 + round) % POOL];
                    outcomes.push(
                        fused_request(client, payload, tracer, served.op_id(), cid as u32).await,
                    );
                }
                outcomes
            },
        )))
    }

    /// The fused request's instruction stream on one shard's geometry
    /// (a session window of the workload's size on a single chip): what
    /// the ladder pushes through each entry point.
    fn ladder_stream(&self) -> Res<Vec<Instruction>> {
        let dev = Device::with_backend(shard_cfg(), BackendKind::Functional)?;
        let gateway = dev.serve(ServeConfig {
            session_warps: self.clients[0].window().warps,
            ..ServeConfig::default()
        });
        let client = gateway.session()?;
        let (plan, _sum) = plan_fused(&client, &self.pool[0])?;
        Ok(plan.into_instrs())
    }
}

impl Workload for Fused {
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep> {
        self.served.rep(|| self.closed_loop(tracer))
    }

    fn set_telemetry(&mut self, on: bool) -> bool {
        self.served.set_telemetry(on);
        true
    }

    fn telemetry_events(&self) -> u64 {
        recorded_events(self.served.dev.telemetry())
    }

    fn exact_tolerance(&self) -> f64 {
        SERVE_MODELED_TOLERANCE
    }

    fn layer_metrics(&mut self, tracer: &Tracer, traced: &Rep) -> Res<Vec<LayerValue>> {
        let mut out = self.served.span_metrics(tracer, traced);

        // The ladder. Every rung — and the op itself, one client at a time
        // on the workload's own cluster, so nothing queues behind a peer —
        // runs interleaved.
        self.served.set_telemetry(false);
        let cfg = shard_cfg();
        let mode = ParallelismMode::default();
        let kind = BackendKind::Functional;
        let instrs = self.ladder_stream()?;
        let stream = ladder::capture(&cfg, mode, &instrs)?;
        let ops = stream.ops();
        let microops = stream.len() as f64;
        let mut words: Vec<u64> = ops.iter().map(pypim::arch::encode::encode).collect();
        let mut sim = pypim::sim::PimSimulator::new(cfg.clone())?;
        let mut func = pypim::func::FuncBackend::new(cfg.clone())?;
        let mut emit = Driver::with_mode(ladder::count_backend(&cfg), mode);
        let mut driver = Driver::with_mode(AnyBackend::new(kind, cfg.clone())?, mode);
        let device = Device::with_backend_mode(cfg.clone(), kind, mode)?;
        let cluster_off =
            PimCluster::with_options(cfg.clone(), 1, ladder::cluster_options(mode, false))?;
        let cluster_on =
            PimCluster::with_options(cfg.clone(), 1, ladder::cluster_options(mode, true))?;
        let gateway = ladder::ladder_gateway(&cfg, 1, mode)?;
        let gateway_client = gateway.session()?;
        let fleet_gateway = ladder::ladder_gateway(&cfg, 1, mode)?;
        let fleet_device = fleet_gateway.device().clone();
        let fleet = ladder::one_host_fleet(&cfg, fleet_gateway)?;
        let fleet_session = fleet.session()?;
        let solo_tracer = Tracer::new(true);
        let solo_client = &self.clients[0];
        let solo_payload = &self.pool[0];
        let mut solo_failed = 0u64;
        let mut rungs = [
            ladder::Rung::new("encode", || {
                for (w, op) in words.iter_mut().zip(&ops) {
                    *w = pypim::arch::encode::encode(op);
                }
                std::hint::black_box(&words);
                Ok(())
            }),
            ladder::Rung::new("sim", || Ok(stream.replay(&mut sim)?)),
            ladder::Rung::new("func", || Ok(stream.replay(&mut func)?)),
            ladder::Rung::new("emit", || Ok(emit.execute_all(&instrs)?)),
            ladder::Rung::new("driver", || Ok(driver.execute_all(&instrs)?)),
            ladder::Rung::new("device", || Ok(device.submit_instrs(&instrs)?.wait()?)),
            ladder::Rung::new("cluster_off", || {
                Ok(cluster_off.submit_batch(&instrs)?.wait()?)
            }),
            ladder::Rung::new("cluster_on", || {
                Ok(cluster_on.submit_batch(&instrs)?.wait()?)
            }),
            ladder::Rung::new("gateway", || {
                Ok(block_on(gateway_client.submit(instrs.clone()))?)
            }),
            ladder::Rung::new("fleet", || {
                Ok(block_on(fleet_session.run(|client| {
                    let batch = instrs.clone();
                    Box::pin(async move { client.exec(batch).await })
                }))?)
            }),
            ladder::Rung::new("op", || {
                let o = block_on(fused_request(solo_client, solo_payload, &solo_tracer, 0, 0));
                solo_failed += u64::from(!o.ok);
                Ok(())
            }),
        ];
        let samples = ladder::run_interleaved(&mut rungs, self.served.ladder_iters)?;
        drop(rungs);
        // Workers must be past their last completion wake before the
        // gateways go (see `ladder::quiesce`).
        ladder::quiesce(gateway_client.device())?;
        ladder::quiesce(&fleet_device)?;
        if solo_failed > 0 {
            return Err(format!("{solo_failed} one-client requests returned a wrong sum").into());
        }
        let decode = ladder::time_iters(self.served.ladder_iters, &mut || {
            for &w in &words {
                std::hint::black_box(pypim::arch::encode::decode(w)?);
            }
            Ok(())
        })?;

        let clamp_note = |clamped: bool| if clamped { "clamped at 0" } else { "" };
        let mut self_rung = |name: &str, upper: &str, lower: &str, per: f64| {
            let (ns, clamped) = samples.self_ns(upper, lower);
            out.push(LayerValue::noted(name, Some(ns / per), clamp_note(clamped)));
            ns
        };
        let driver_self = self_rung(
            "driver.exec_self_ns_per_microop",
            "driver",
            "func",
            microops,
        );
        self_rung("core.submit_self_ns_per_op", "device", "driver", 1.0);
        let cluster_self = self_rung(
            "cluster.submit_self_ns_per_op",
            "cluster_off",
            "driver",
            1.0,
        );
        let recovery = self_rung(
            "cluster.recovery_ns_per_op",
            "cluster_on",
            "cluster_off",
            1.0,
        );
        let serve_self = self_rung("serve.submit_self_ns_per_op", "gateway", "cluster_on", 1.0);
        self_rung("fleet.run_self_ns_per_op", "fleet", "gateway", 1.0);
        for (name, rung) in [
            ("arch.encode_ns_per_microop", "encode"),
            ("sim.replay_ns_per_microop", "sim"),
            ("func.replay_ns_per_microop", "func"),
            ("driver.emit_self_ns_per_microop", "emit"),
        ] {
            out.push(LayerValue::some(name, samples.median(rung) / microops));
        }
        out.push(LayerValue::some(
            "arch.decode_ns_per_microop",
            decode / microops,
        ));

        let op = samples.median("op");
        out.push(LayerValue::noted(
            "func.share_of_op",
            Some(samples.share("func", "op")),
            "functional replay of the request's micro-ops ÷ one-client op, paired",
        ));
        out.push(LayerValue::noted(
            "sim.share_of_op",
            None,
            "the workload runs on pim-func shards; pim-sim does nothing here",
        ));
        let solo_span = |name: &str| median_opt(&solo_tracer.durations(name)).unwrap_or(0.0);
        let (above_gateway, _) = samples.self_ns("op", "gateway");
        let (unattributed, clamped) = self_time(
            above_gateway,
            solo_span("core.plan_build") + solo_span("serve.readback"),
        );
        out.push(LayerValue::noted(
            "unattributed.share_of_op",
            Some(unattributed / op),
            format!(
                "one-client op ({op:.0} ns, {} interleaved iterations) minus the gateway rung, \
                 plan build and read-back; the rungs below the gateway sum to it{}",
                samples.iters(),
                if clamped { "; clamped at 0" } else { "" }
            ),
        ));
        self.served.derived = vec![
            format!(
                "traced: one-client op {op:.0} ns = func backend {:.0} + driver {driver_self:.0} + \
                 pim-cluster {cluster_self:.0} + recovery {recovery:.0} + pim-serve {serve_self:.0} + \
                 plan build {:.0} + read-back {:.0} + unattributed {unattributed:.0}",
                samples.median("func"),
                solo_span("core.plan_build"),
                solo_span("serve.readback"),
            ),
            format!(
                "traced: pim-serve + pim-cluster self time is {:.3} of the one-client op",
                (cluster_self + recovery + serve_self) / op
            ),
        ];
        Ok(out)
    }

    fn notes(&self) -> Vec<String> {
        self.served.notes(format!(
            "{FUSED_CLIENTS} closed-loop clients x {} requests, {}-element f32 payloads, \
             4 functional shards of 4x64; sums checked bit-equal to the blocking single-chip API",
            self.served.rounds,
            self.pool[0].values.len()
        ))
    }
}

/// `serve_*` modeled values are sums over four shard drivers whose mask
/// elision depends on which session's batch a shard saw last; sessions
/// sharing a shard interleave by thread timing, so the cycle totals are
/// reproducible to well under this, not bit for bit (README, "Exactness").
const SERVE_MODELED_TOLERANCE: f64 = 0.01;

// ------------------------------------------------------------- crossing

const CROSSING_CLIENTS: usize = 2;
/// Requests per client per repetition (full scale).
const CROSSING_ROUNDS: u64 = 500;

struct CrossingClient {
    client: ClusterClient,
    /// Upper half of the session window (the copy's destination and the
    /// gather's source); the lower half receives each request's upload.
    upper: Tensor,
    /// Keeps the whole-window stripe `upper` is a view of claimed.
    _window: Tensor,
}

pub struct Crossing {
    served: Served,
    clients: Vec<CrossingClient>,
    pool: Vec<Vec<f32>>,
}

/// Upload the lower half (scatter), copy it across the shard boundary
/// into the upper half, read the upper half back (gather).
async fn crossing_request(
    c: &CrossingClient,
    values: &[f32],
    tracer: &Tracer,
    op: u64,
    lane: u32,
) -> Outcome {
    let t0 = Instant::now();
    let mut instrs = 0;
    let result: pypim::Result<Vec<f32>> = async {
        let lower = c.client.device().from_slice_f32(values)?;
        let t1 = Instant::now();
        let plan = plan_copy(&lower, &c.upper)?.ok_or(pypim::CoreError::Misaligned {
            what: "no move plan between the window halves".into(),
        })?;
        instrs = plan.len();
        let t2 = Instant::now();
        c.client.exec(plan).await?;
        let t3 = Instant::now();
        let back = c.client.to_vec_f32(&c.upper).await?;
        let t4 = Instant::now();
        let root = tracer.open_root("op", t0, op, lane);
        tracer.record("core.upload", t0, t1, op, root, lane);
        tracer.record("core.plan_build", t1, t2, op, root, lane);
        tracer.record("serve.run", t2, t3, op, root, lane);
        tracer.record("serve.readback", t3, t4, op, root, lane);
        tracer.close_root(root, t4);
        Ok(back)
    }
    .await;
    Outcome {
        host_s: t0.elapsed().as_secs_f64(),
        ok: result.is_ok_and(|back| {
            back.len() == values.len()
                && back
                    .iter()
                    .zip(values)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        }),
        instrs,
    }
}

impl Crossing {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let dev = cluster_device()?;
        // Each window is two shards wide.
        let session_warps = dev.config().crossbars as u32 / CROSSING_CLIENTS as u32;
        let window_elems = session_warps as usize * dev.config().rows;
        let gateway = dev.serve(ServeConfig {
            session_warps,
            ..ServeConfig::default()
        });
        let mut clients = Vec::new();
        for _ in 0..CROSSING_CLIENTS {
            let client = gateway.session()?;
            let window = client.device().uninit(window_elems, DType::Float32)?;
            let upper = window.slice(window_elems / 2, window_elems)?;
            clients.push(CrossingClient {
                client,
                upper,
                _window: window,
            });
        }
        let mut rng = Rng::new(seed, 3);
        let pool = (0..POOL)
            .map(|_| {
                (0..window_elems / 2)
                    .map(|_| rng.range_f32(-1000.0, 1000.0))
                    .collect()
            })
            .collect();
        let mut w = Crossing {
            // Warm pass: four rounds per client.
            served: Served::new(dev, gateway, 4, scale),
            clients,
            pool,
        };
        let warm = w.rep(&Tracer::new(false))?;
        if warm.failed > 0 {
            return Err(format!("warm pass: {} wrong read-backs", warm.failed).into());
        }
        let crossed = warm
            .layer
            .iter()
            .any(|(k, v)| k == "cluster.cross_words_per_op" && *v > 0.0);
        if !crossed {
            return Err("the copy did not cross a shard boundary: no interconnect traffic".into());
        }
        w.served.rounds = scale.count(CROSSING_ROUNDS);
        Ok(w)
    }

    /// Every client's closed loop of `rounds` requests, on one thread.
    fn closed_loop(&self, tracer: &Tracer) -> Vec<Vec<Outcome>> {
        let served = &self.served;
        block_on(join_all(self.clients.iter().enumerate().map(
            |(cid, c)| async move {
                let mut outcomes = Vec::with_capacity(served.rounds as usize);
                for round in 0..served.rounds as usize {
                    let values = &self.pool[(cid * 7 + round) % POOL];
                    outcomes.push(
                        crossing_request(c, values, tracer, served.op_id(), cid as u32).await,
                    );
                }
                outcomes
            },
        )))
    }
}

impl Workload for Crossing {
    fn rep(&mut self, tracer: &Tracer) -> Res<Rep> {
        self.served.rep(|| self.closed_loop(tracer))
    }

    fn set_telemetry(&mut self, on: bool) -> bool {
        self.served.set_telemetry(on);
        true
    }

    fn telemetry_events(&self) -> u64 {
        recorded_events(self.served.dev.telemetry())
    }

    fn exact_tolerance(&self) -> f64 {
        SERVE_MODELED_TOLERANCE
    }

    fn layer_metrics(&mut self, tracer: &Tracer, traced: &Rep) -> Res<Vec<LayerValue>> {
        let mut out = self.served.span_metrics(tracer, traced);
        let words = self.pool[0].len() as f64;
        out.push(LayerValue::noted(
            "cluster.scatter_ns_per_word",
            median_opt(&tracer.durations("core.upload")).map(|ns| ns / words),
            "core.upload span (allocate + scatter) ÷ words",
        ));
        out.push(LayerValue::noted(
            "cluster.gather_ns_per_word",
            median_opt(&tracer.durations("serve.readback")).map(|ns| ns / words),
            "serve.readback span (gather through the gateway) ÷ words",
        ));

        // The whole request — store, crossing copy, load — as the
        // equivalent single-chip stream on the cluster's logical geometry,
        // then on a bare 4-shard `PimCluster`, then as the op itself (one
        // client at a time), all interleaved.
        self.served.set_telemetry(false);
        let c = &self.clients[0];
        let values = &self.pool[0];
        let logical = self.served.dev.config().clone();
        let mode = ParallelismMode::default();
        let lower = c.client.device().uninit(values.len(), DType::Float32)?;
        let store = lower.plan_store(values.iter().map(|v| v.to_bits()));
        let copy = plan_copy(&lower, &c.upper)?.ok_or("no move plan between the window halves")?;
        let locs = c.upper.element_locs();
        let writes: Vec<GlobalWrite> = lower
            .element_locs()
            .into_iter()
            .zip(values)
            .map(|((warp, row, reg), v)| GlobalWrite::new(warp, row, reg, v.to_bits()))
            .collect();
        let mut stream = store;
        stream.extend(copy.iter().cloned());
        stream.extend(
            locs.iter()
                .map(|&(warp, row, reg)| Instruction::Read { reg, warp, row }),
        );
        let captured = ladder::capture(&logical, mode, &stream)?;
        let microops = captured.len() as f64;
        let mut func = pypim::func::FuncBackend::new(logical.clone())?;
        let mut driver = Driver::with_mode(
            AnyBackend::new(BackendKind::Functional, logical.clone())?,
            mode,
        );
        let cluster =
            PimCluster::with_options(shard_cfg(), SHARDS, ladder::cluster_options(mode, true))?;
        let mut solo_failed = 0u64;
        let off = Tracer::new(false);
        let mut rungs = [
            ladder::Rung::new("func", || Ok(captured.replay(&mut func)?)),
            ladder::Rung::new("driver", || {
                for instr in &stream {
                    std::hint::black_box(driver.execute(instr)?);
                }
                Ok(())
            }),
            ladder::Rung::new("cluster", || {
                cluster.scatter(&writes)?;
                cluster.submit_batch(&copy)?.wait()?;
                std::hint::black_box(cluster.gather(&locs)?);
                Ok(())
            }),
            ladder::Rung::new("op", || {
                let o = block_on(crossing_request(c, values, &off, 0, 0));
                solo_failed += u64::from(!o.ok);
                Ok(())
            }),
        ];
        let samples = ladder::run_interleaved(&mut rungs, self.served.ladder_iters)?;
        drop(rungs);
        if solo_failed > 0 {
            return Err(format!("{solo_failed} one-client requests read back wrong words").into());
        }

        let clamp_note = |clamped: bool| if clamped { "clamped at 0" } else { "" };
        let mut self_rung = |name: &str, upper: &str, lower: &str, per: f64| {
            let (ns, clamped) = samples.self_ns(upper, lower);
            out.push(LayerValue::noted(name, Some(ns / per), clamp_note(clamped)));
            ns
        };
        let driver_self = self_rung(
            "driver.exec_self_ns_per_microop",
            "driver",
            "func",
            microops,
        );
        let cluster_self = self_rung("cluster.submit_self_ns_per_op", "cluster", "driver", 1.0);
        let serve_self = self_rung("serve.submit_self_ns_per_op", "op", "cluster", 1.0);
        out.push(LayerValue::some(
            "func.replay_ns_per_microop",
            samples.median("func") / microops,
        ));
        out.push(LayerValue::noted(
            "func.share_of_op",
            Some(samples.share("func", "op")),
            "functional replay of the equivalent single-chip micro-ops ÷ one-client op, paired",
        ));
        out.push(LayerValue::noted(
            "sim.share_of_op",
            None,
            "the workload runs on pim-func shards; pim-sim does nothing here",
        ));
        let op = samples.median("op");
        self.served.derived = vec![
            format!(
                "traced: one-client op {op:.0} ns = func backend {:.0} + driver {driver_self:.0} + \
                 pim-cluster {cluster_self:.0} (scatter + submit_batch + gather on a bare 4-shard \
                 PimCluster, minus the driver rung) + pim-serve and session device {serve_self:.0}",
                samples.median("func"),
            ),
            format!(
                "traced: pim-serve + pim-cluster self time is {:.3} of the one-client op",
                (cluster_self + serve_self) / op
            ),
        ];
        Ok(out)
    }

    fn notes(&self) -> Vec<String> {
        self.served.notes(format!(
            "{CROSSING_CLIENTS} closed-loop clients x {} requests; each window spans two shards: \
             scatter {} words, copy them across the shard boundary, gather them back",
            self.served.rounds,
            self.pool[0].len()
        ))
    }
}
