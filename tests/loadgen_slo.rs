//! Open-loop loadgen acceptance contract, through the `pypim` facade:
//!
//! * a run past the knee shows **monotonically diverging** windowed
//!   gateway queue-wait p99 — the open-loop signature of unbounded queue
//!   growth that a closed-loop harness cannot produce;
//! * the same seed reproduces the SLO report bit-for-bit on a single-chip
//!   device;
//! * arrival schedules are pure functions of the seed.

use pypim::loadgen::{
    build_schedule, run_slo, ArrivalProfile, ClassSpec, LoadgenConfig, RequestShape, SloConfig,
};
use pypim::{Device, DeviceServeExt, PimConfig, Result, ServeConfig};

fn single_chip_gateway() -> Result<pypim::Gateway> {
    let dev = Device::new(PimConfig::small().with_crossbars(8))?;
    Ok(dev.serve(ServeConfig {
        // Unbounded queues: overload must queue, not fast-fail.
        max_queue_depth: 0,
        ..ServeConfig::default()
    }))
}

fn overload_cfg() -> LoadgenConfig {
    LoadgenConfig {
        seed: 42,
        horizon_cycles: 1_000_000,
        window_cycles: 100_000,
        classes: vec![
            ClassSpec::new(
                "elementwise",
                RequestShape::Elementwise,
                // A few times the single chip's measured capacity (a
                // couple hundred rps at 16 elements): past the knee but
                // not so far that the run collapses into one or two pump
                // drains — the divergence needs several active windows.
                ArrivalProfile::Poisson { rate: 900.0 },
                16,
            ),
            ClassSpec::new(
                "fused",
                RequestShape::Fused,
                ArrivalProfile::Poisson { rate: 300.0 },
                16,
            ),
        ],
        sessions_per_class: 2,
        latency_target_cycles: 0,
        drain: false, // abandon the backlog at the horizon: the point saturates
    }
}

#[test]
fn past_knee_queue_wait_p99_diverges_across_windows() -> Result<()> {
    let gateway = single_chip_gateway()?;
    let (report, slo) = run_slo(&gateway, &overload_cfg(), SloConfig::default())?;
    assert!(
        report.achieved_rps < 0.8 * report.offered_rps,
        "offered {:.0} rps was meant to overload (achieved {:.0})",
        report.offered_rps,
        report.achieved_rps,
    );

    // The windowed queue-wait p99 series over windows that saw
    // submissions: monotonically non-decreasing, strictly growing overall.
    let p99s: Vec<u64> = report
        .windows
        .iter()
        .filter_map(|w| w.histogram("serve.queue_wait_cycles"))
        .filter(|h| h.count > 0)
        .map(|h| h.p99)
        .collect();
    assert!(
        p99s.len() >= 3,
        "need ≥3 active windows to call divergence, got {p99s:?}"
    );
    for pair in p99s.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "queue-wait p99 dipped under sustained overload: {p99s:?}"
        );
    }
    let first = *p99s.iter().find(|&&p| p > 0).expect("all-zero p99 series");
    let last = *p99s.last().expect("nonempty");
    assert!(
        last >= first.saturating_mul(4),
        "queue-wait p99 did not diverge: first nonzero {first}, last {last} ({p99s:?})"
    );

    // The SLO verdict sees the same series and must be violated.
    assert!(!slo.met, "an overloaded run cannot meet the SLO");
    assert!(
        slo.windows.iter().any(|w| w.burn_rate > 1.0),
        "no window burned the error budget under overload"
    );
    Ok(())
}

#[test]
fn same_seed_reproduces_slo_json_through_facade() -> Result<()> {
    let slo = SloConfig {
        target_p99_cycles: 40_000,
        error_budget: 0.02,
    };
    let (_, a) = run_slo(&single_chip_gateway()?, &overload_cfg(), slo)?;
    let (_, b) = run_slo(&single_chip_gateway()?, &overload_cfg(), slo)?;
    assert_eq!(a.to_json(), b.to_json());
    Ok(())
}

#[test]
fn schedules_are_pure_functions_of_the_seed() {
    let profiles = [
        ArrivalProfile::Poisson { rate: 500.0 },
        ArrivalProfile::Burst {
            base: 100.0,
            burst_size: 4,
            period_cycles: 50_000,
        },
        ArrivalProfile::Ramp {
            start: 0.0,
            end: 1_000.0,
        },
    ];
    let a = build_schedule(&profiles, 7, 200_000);
    let b = build_schedule(&profiles, 7, 200_000);
    let c = build_schedule(&profiles, 8, 200_000);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must give the same schedule");
    assert_ne!(a, c, "different seeds must give different schedules");
    // Sorted by cycle: the driver injects in order.
    assert!(a.windows(2).all(|p| p[0].cycle <= p[1].cycle));
}
