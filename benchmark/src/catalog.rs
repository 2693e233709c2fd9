//! The metric and workload catalogue: every name `pimbench` prints, with
//! its clock, unit, direction and bound, and — for per-layer metrics — the
//! end-to-end metric it should move. `BENCHMARK.json` at the repository
//! root is generated from this table (`pimbench manifest`) and a test
//! holds the two equal.

use crate::json::Json;

/// Which clock a number is on. *Modeled* is what the simulated PIM
/// hardware would take (cycles; 1 cycle = 1 µs where a rate is quoted) and
/// repeats exactly; *host* is what this program takes to simulate or serve
/// it and is noisy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Modeled,
    Neither,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Neither => "-",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `pimbench compare` holds a metric between two result files of one
/// seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Hold {
    /// Deterministic: any difference is a regression or an improvement.
    Exact,
    /// Noisy: the median may worsen by this share of the base.
    Within(f64),
}

pub const TENSOR_SIM: &str = "tensor_sim";
pub const TENSOR_FUNC: &str = "tensor_func";
pub const SERVE_FUSED: &str = "serve_fused";
pub const SERVE_CROSSING: &str = "serve_crossing";
pub const OPEN_LOOP: &str = "open_loop";
pub const FLEET_FAILOVER: &str = "fleet_failover";

/// The six workloads and, in one line each, why they are here (the README
/// has the long form).
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        TENSOR_SIM,
        "Figure 13 suite on one bit-accurate chip, strict checking on: the only workload where pim-sim does most of the work; carries the paper-fidelity metrics",
    ),
    (
        TENSOR_FUNC,
        "the same eight programs on one functional chip: the same layer stack with the backend swapped; a pim-sim change must not move it, and its modeled cycles must equal pim-sim's",
    ),
    (
        SERVE_FUSED,
        "closed loop, 8 gateway sessions issuing sum(x*y+x) on a 4-shard functional cluster: every layer from pim-serve down to the backend is on the blocking path; no interconnect traffic",
    ),
    (
        SERVE_CROSSING,
        "closed loop, 2 sessions whose windows span two shards: scatter, crossing copy, gather; almost no compute, so pim-serve and pim-cluster overhead is the op",
    ),
    (
        OPEN_LOOP,
        "open loop on the modeled clock via pim-loadgen: seeded Poisson arrivals at fixed rates into a single-chip gateway; queueing, the knee and tail latency live here",
    ),
    (
        FLEET_FAILOVER,
        "open loop over a 3-host fleet with a seeded leader crash and a partition: the only workload where pim-fleet and pim-fault do work",
    ),
];

/// One end-to-end metric: something a user of the stack would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub clock: Clock,
    pub unit: &'static str,
    pub better: Better,
    /// How `pimbench compare` holds it at equal seeds.
    pub hold: Hold,
    /// `Some(bound)`: an `end_to_end` entry of `BENCHMARK.json` with this
    /// bound — every workload reports it as a non-zero number (for modeled
    /// metrics the bound is the seed-to-seed allowance, since that driver
    /// compares runs of different seeds). `None`: it rides in
    /// `BENCHMARK.json`'s `per_layer` list instead, because only some
    /// workloads measure it (a number derived from another row to fill
    /// the gap would gate one quantity twice), or it reads 0 when
    /// healthy, or — `host_ns_per_microop` — it is the same timing as
    /// `host_ops_per_s` seen per micro-op, and gating one noisy
    /// measurement twice doubles the false alarms without guarding more.
    pub driver_bound: Option<f64>,
    /// Workloads that report it; the others print `null`.
    pub reported_by: &'static [&'static str],
}

const ALL: &[&str] = &[
    TENSOR_SIM,
    TENSOR_FUNC,
    SERVE_FUSED,
    SERVE_CROSSING,
    OPEN_LOOP,
    FLEET_FAILOVER,
];
const TENSORS: &[&str] = &[TENSOR_SIM, TENSOR_FUNC];
/// The workloads whose ops the benchmark issues and times one by one.
const OPS_TIMED: &[&str] = &[TENSOR_SIM, TENSOR_FUNC, SERVE_FUSED, SERVE_CROSSING];
const LOADGEN: &[&str] = &[OPEN_LOOP, FLEET_FAILOVER];

pub const END_TO_END: [EndToEnd; 13] = [
    EndToEnd {
        name: "setup_s",
        clock: Clock::Host,
        unit: "s",
        better: Better::Lower,
        hold: Hold::Within(0.25),
        driver_bound: Some(0.25),
        reported_by: ALL,
    },
    EndToEnd {
        name: "host_ops_per_s",
        clock: Clock::Host,
        unit: "ops/s",
        better: Better::Higher,
        hold: Hold::Within(0.25),
        driver_bound: Some(0.25),
        reported_by: ALL,
    },
    EndToEnd {
        name: "host_op_p50_s",
        clock: Clock::Host,
        unit: "s",
        better: Better::Lower,
        hold: Hold::Within(0.25),
        driver_bound: None,
        reported_by: OPS_TIMED,
    },
    EndToEnd {
        name: "host_ns_per_microop",
        clock: Clock::Host,
        unit: "ns",
        better: Better::Lower,
        hold: Hold::Within(0.25),
        driver_bound: None,
        reported_by: ALL,
    },
    EndToEnd {
        name: "peak_rss_bytes",
        clock: Clock::Host,
        unit: "bytes",
        better: Better::Lower,
        hold: Hold::Within(0.20),
        driver_bound: Some(0.20),
        reported_by: ALL,
    },
    EndToEnd {
        name: "modeled_cycles_per_op",
        clock: Clock::Modeled,
        unit: "cycles",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: Some(0.15),
        reported_by: ALL,
    },
    EndToEnd {
        name: "modeled_goodput_rps",
        clock: Clock::Modeled,
        unit: "rps",
        better: Better::Higher,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: LOADGEN,
    },
    EndToEnd {
        name: "theory_distance_avg",
        clock: Clock::Modeled,
        unit: "ratio",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: TENSORS,
    },
    EndToEnd {
        name: "theory_distance_worst",
        clock: Clock::Modeled,
        unit: "ratio",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: TENSORS,
    },
    EndToEnd {
        name: "modeled_p50_cycles",
        clock: Clock::Modeled,
        unit: "cycles",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: LOADGEN,
    },
    EndToEnd {
        name: "modeled_p99_cycles",
        clock: Clock::Modeled,
        unit: "cycles",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: LOADGEN,
    },
    EndToEnd {
        name: "modeled_max_rate_rps",
        clock: Clock::Modeled,
        unit: "rps",
        better: Better::Higher,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: &[OPEN_LOOP],
    },
    EndToEnd {
        name: "failed_ratio",
        clock: Clock::Neither,
        unit: "ratio",
        better: Better::Lower,
        hold: Hold::Exact,
        driver_bound: None,
        reported_by: ALL,
    },
];

/// One per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    /// The crate it measures.
    pub layer: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metric → workload it should move (written down before
    /// measuring; see the README for the full table).
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    layer: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        layer,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const ARCH_MOVES: &str = "host_ns_per_microop on tensor_func (small share; flat elsewhere)";
const ISA_MOVES: &str = "modeled_cycles_per_op on all; a plan/fusion change shows here first";
const SIM_MOVES: &str =
    "host_ops_per_s, host_ns_per_microop on tensor_sim (flat on tensor_func, serve_*, open_loop)";
const FUNC_MOVES: &str =
    "host_ops_per_s on tensor_func, serve_fused, open_loop (flat on tensor_sim)";
const DRIVER_SETUP: &str = "setup_s on all";
const DRIVER_HOST: &str = "host_ns_per_microop on tensor_func, host_ops_per_s on serve_fused";
const DRIVER_THEORY: &str = "theory_distance_* on tensor_*";
const CORE_MOVES: &str =
    "host_op_p50_s on serve_fused; host_ops_per_s on tensor_func (upload/readback per word: tensor_* only)";
const CLUSTER_FUSED: &str = "host_ops_per_s, host_op_p50_s on serve_fused";
const CLUSTER_CROSSING: &str =
    "host_ops_per_s, modeled_cycles_per_op on serve_crossing (must stay 0 on serve_fused)";
const CLUSTER_BALANCE: &str = "modeled_cycles_per_op on serve_fused";
const CLUSTER_HEALTH: &str = "failed_ratio on all (must stay 0)";
const SERVE_HOST: &str = "host_op_p50_s, host_ops_per_s on serve_fused";
const SERVE_QUEUE: &str = "modeled_p99_cycles, modeled_max_rate_rps on open_loop";
const SERVE_COALESCE: &str = "modeled_cycles_per_op on serve_fused";
const SERVE_HEALTH: &str = "failed_ratio on all (0 fault-free)";
const FLEET_HOST: &str = "host_ops_per_s on fleet_failover (flat elsewhere: no other fleet)";
const FLEET_MODELED: &str = "modeled_p99_cycles, modeled_goodput_rps on fleet_failover";
const LOADGEN_SETUP: &str = "setup_s on open_loop, fleet_failover";
const LOADGEN_HOST: &str = "host_ops_per_s on open_loop, fleet_failover";
const TELEMETRY_MOVES: &str =
    "none: end-to-end runs have telemetry off (open_loop, fleet_failover: always on, pim-loadgen arms it)";
const FAULT_MOVES: &str = "fleet_failover only; 0 on every other workload";
const UNATTRIBUTED_MOVES: &str = "keeps the ladder honest; the ROADMAP wants it under 0.10";

/// Names of the eight suite programs, in suite order
/// (`core.program_s.<name>`).
pub const PROGRAMS: [&str; 8] = [
    "int_add",
    "int_mul",
    "int_lt",
    "fp_add",
    "fp_mul",
    "fp_sum_reduce",
    "fp_prod_reduce",
    "fp_sort_1k",
];

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 81] = [
    pl("arch.encode_ns_per_microop", "pim-arch", "ns", Lower, ARCH_MOVES),
    pl("arch.decode_ns_per_microop", "pim-arch", "ns", Lower, ARCH_MOVES),
    pl("isa.instrs_per_op", "pim-isa", "count", Lower, ISA_MOVES),
    pl("isa.microops_per_instr", "pim-isa", "count", Lower, ISA_MOVES),
    pl("sim.replay_ns_per_microop", "pim-sim", "ns", Lower, SIM_MOVES),
    pl("sim.share_of_op", "pim-sim", "ratio", Lower, SIM_MOVES),
    pl("sim.microops_per_op", "pim-sim", "count", Lower, SIM_MOVES),
    pl("sim.cycles_per_op", "pim-sim", "cycles", Lower, SIM_MOVES),
    pl("sim.gates_per_op", "pim-sim", "count", Lower, SIM_MOVES),
    pl("sim.move_pairs_per_op", "pim-sim", "count", Lower, SIM_MOVES),
    pl("func.replay_ns_per_microop", "pim-func", "ns", Lower, FUNC_MOVES),
    pl("func.share_of_op", "pim-func", "ratio", Lower, FUNC_MOVES),
    pl("driver.compile_s", "pim-driver", "s", Lower, DRIVER_SETUP),
    pl("driver.emit_self_ns_per_microop", "pim-driver", "ns", Lower, DRIVER_HOST),
    pl("driver.exec_self_ns_per_microop", "pim-driver", "ns", Lower, DRIVER_HOST),
    pl("driver.cache_hits", "pim-driver", "count", Higher, DRIVER_HOST),
    pl("driver.cache_misses", "pim-driver", "count", Lower, DRIVER_SETUP),
    pl("driver.cache_hit_ratio", "pim-driver", "ratio", Higher, DRIVER_HOST),
    pl("driver.issued_logic_cycles_per_op", "pim-driver", "cycles", Lower, DRIVER_THEORY),
    pl("driver.issued_overhead_cycles_per_op", "pim-driver", "cycles", Lower, DRIVER_THEORY),
    pl("driver.headroom_avg", "pim-driver", "ratio", Higher, DRIVER_HOST),
    pl("driver.headroom_worst", "pim-driver", "ratio", Higher, DRIVER_HOST),
    pl("core.plan_build_ns_per_op", "pypim-core", "ns", Lower, CORE_MOVES),
    pl("core.alloc_ns_per_tensor", "pypim-core", "ns", Lower, CORE_MOVES),
    pl("core.upload_ns_per_word", "pypim-core", "ns", Lower, CORE_MOVES),
    pl("core.readback_ns_per_word", "pypim-core", "ns", Lower, CORE_MOVES),
    pl("core.submit_self_ns_per_op", "pypim-core", "ns", Lower, CORE_MOVES),
    pl("core.program_s.int_add", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.int_mul", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.int_lt", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.fp_add", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.fp_mul", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.fp_sum_reduce", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.fp_prod_reduce", "pypim-core", "s", Lower, CORE_MOVES),
    pl("core.program_s.fp_sort_1k", "pypim-core", "s", Lower, CORE_MOVES),
    pl("cluster.submit_self_ns_per_op", "pim-cluster", "ns", Lower, CLUSTER_FUSED),
    pl("cluster.recovery_ns_per_op", "pim-cluster", "ns", Lower, CLUSTER_FUSED),
    pl("cluster.scatter_ns_per_word", "pim-cluster", "ns", Lower, CLUSTER_CROSSING),
    pl("cluster.gather_ns_per_word", "pim-cluster", "ns", Lower, CLUSTER_CROSSING),
    pl("cluster.cross_words_per_op", "pim-cluster", "count", Lower, CLUSTER_CROSSING),
    pl("cluster.link_cycles_per_op", "pim-cluster", "cycles", Lower, CLUSTER_CROSSING),
    pl("cluster.messages_per_op", "pim-cluster", "count", Lower, CLUSTER_CROSSING),
    pl("cluster.barriers_per_op", "pim-cluster", "count", Lower, CLUSTER_CROSSING),
    pl("cluster.drained_queues_per_op", "pim-cluster", "count", Lower, CLUSTER_CROSSING),
    pl("cluster.runs_merged_per_op", "pim-cluster", "count", Higher, CLUSTER_CROSSING),
    pl("cluster.shard_busy_ratio_min", "pim-cluster", "ratio", Higher, CLUSTER_BALANCE),
    pl("cluster.worker_restarts", "pim-cluster", "count", Lower, CLUSTER_HEALTH),
    pl("cluster.replayed_instructions", "pim-cluster", "count", Lower, CLUSTER_HEALTH),
    pl("serve.run_ns_per_op", "pim-serve", "ns", Lower, SERVE_HOST),
    pl("serve.readback_ns_per_op", "pim-serve", "ns", Lower, SERVE_HOST),
    pl("serve.submit_self_ns_per_op", "pim-serve", "ns", Lower, SERVE_HOST),
    pl("serve.host_op_p99_s", "pim-serve", "s", Lower, SERVE_HOST),
    pl("serve.queue_wait_p50_cycles", "pim-serve", "cycles", Lower, SERVE_QUEUE),
    pl("serve.queue_wait_p99_cycles", "pim-serve", "cycles", Lower, SERVE_QUEUE),
    pl("serve.groups", "pim-serve", "count", Lower, SERVE_COALESCE),
    pl("serve.batches", "pim-serve", "count", Lower, SERVE_COALESCE),
    pl("serve.batches_per_group", "pim-serve", "ratio", Higher, SERVE_COALESCE),
    pl("serve.peak_inflight", "pim-serve", "count", Higher, SERVE_COALESCE),
    pl("serve.deferred", "pim-serve", "count", Lower, SERVE_HOST),
    pl("serve.retries", "pim-serve", "count", Lower, SERVE_HEALTH),
    pl("serve.deadline_misses", "pim-serve", "count", Lower, SERVE_HEALTH),
    pl("serve.rejected_overload", "pim-serve", "count", Lower, SERVE_HEALTH),
    pl("serve.evicted", "pim-serve", "count", Lower, SERVE_HEALTH),
    pl("fleet.run_self_ns_per_op", "pim-fleet", "ns", Lower, FLEET_HOST),
    pl("fleet.tick_ns", "pim-fleet", "ns", Lower, FLEET_HOST),
    pl("fleet.failovers", "pim-fleet", "count", Lower, FLEET_MODELED),
    pl("fleet.leader_changes", "pim-fleet", "count", Lower, FLEET_MODELED),
    pl("fleet.orphaned_sessions", "pim-fleet", "count", Lower, FLEET_MODELED),
    pl("fleet.reissued", "pim-fleet", "count", Lower, FLEET_MODELED),
    pl("fleet.heartbeats", "pim-fleet", "count", Lower, FLEET_HOST),
    pl("fleet.failover_p50_cycles", "pim-fleet", "cycles", Lower, FLEET_MODELED),
    pl("fleet.failover_p99_cycles", "pim-fleet", "cycles", Lower, FLEET_MODELED),
    pl("loadgen.schedule_build_s", "pim-loadgen", "s", Lower, LOADGEN_SETUP),
    pl("loadgen.host_ns_per_injected", "pim-loadgen", "ns", Lower, LOADGEN_HOST),
    pl("loadgen.injected", "pim-loadgen", "count", Higher, LOADGEN_HOST),
    pl("loadgen.completed_in_horizon", "pim-loadgen", "count", Higher, LOADGEN_HOST),
    pl("loadgen.inject_late_p99_cycles", "pim-loadgen", "cycles", Lower, LOADGEN_HOST),
    pl("telemetry.overhead_ratio", "pim-telemetry", "ratio", Higher, TELEMETRY_MOVES),
    pl("telemetry.spans_recorded", "pim-telemetry", "count", Lower, TELEMETRY_MOVES),
    pl("fault.injected", "pim-fault", "count", Lower, FAULT_MOVES),
    pl("unattributed.share_of_op", "-", "ratio", Lower, UNATTRIBUTED_MOVES),
];

/// Seconds one `BENCHMARK.json`-driven run measures for.
pub const RUN_SECONDS: u64 = 14;

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Whether `name` is a legal metric/workload name of the benchmark
/// contract: starts with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The end-to-end metrics `BENCHMARK.json` lists under `end_to_end`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.driver_bound.is_some())
}

/// Names `BENCHMARK.json` lists under `per_layer`: the end-to-end metrics
/// the driver contract cannot carry, then the 81 layer metrics.
pub fn driver_per_layer() -> impl Iterator<Item = (&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| m.driver_bound.is_none())
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
}

/// The document committed as `BENCHMARK.json`.
pub fn manifest() -> Json {
    let s = |x: &str| Json::Str(x.to_string());
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        ("command", Json::Arr(command.iter().map(|c| s(c)).collect())),
        ("paths", Json::Arr(vec![s("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| obj(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                driver_end_to_end()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.label())),
                            ("bound", Json::Num(m.driver_bound.expect("filtered"))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                driver_per_layer()
                    .map(|(name, unit, better)| {
                        obj(vec![
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Pretty form of [`manifest`]: one entry per line, as committed.
pub fn manifest_text() -> String {
    let m = manifest();
    let mut out = String::from("{\n");
    let members = m.as_obj().expect("manifest is an object");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 < members.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().all(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{c}\n", item.to_line()));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{comma}\n", other.to_line())),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name), "duplicate {name}");
        }
        for m in END_TO_END {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn every_program_has_its_row() {
        for p in PROGRAMS {
            let name = format!("core.program_s.{p}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    #[test]
    fn manifest_respects_the_contract_limits() {
        let e2e: Vec<_> = driver_end_to_end().collect();
        assert!((1..=16).contains(&e2e.len()));
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for m in &e2e {
            let b = m.driver_bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
            assert_eq!(
                m.reported_by.len(),
                WORKLOADS.len(),
                "{} is not universal",
                m.name
            );
        }
        assert!((1..=128).contains(&driver_per_layer().count()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_text().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `pimbench manifest > BENCHMARK.json`"
        );
    }
}
