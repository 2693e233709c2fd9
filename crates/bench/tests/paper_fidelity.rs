//! Paper-fidelity guard (ROADMAP aim 3): the reproduction's headline
//! numbers are deterministic modeled cycle counts, so they are held to
//! committed exact values instead of only being printed by `figure13`.
//!
//! The sorts are held exactly, because their cost is movement rather than
//! arithmetic and movement is what the lowerings keep changing: a
//! compare-and-swap stage moves only the lanes it keeps (disjoint range
//! `MoveRows`, one vertical gate per lane) while the pair distance is
//! below a warp, and shifts the whole tensor both ways (`MoveWarps` per row
//! and H-tree phase, then a select) from there on. The suite as a whole is
//! held to the paper's own §VI-B claim.

use pim_bench::{distance_summary, figure13_suite, quick_config, run_workload, Workload};
use pypim_core::{BackendKind, Device, ParallelismMode};

/// Holds one FP sort, bit-serial, on a fresh 16 x 256 device of either
/// backend under `ceiling` cycles and to its exact measured and theoretical
/// (pure-logic) cycles. Moving a number is a deliberate act: update it
/// together with the `figure13` table in ROADMAP.md. The ceilings are what
/// matters if the exact values are ever re-recorded: shifting the whole
/// tensor both ways in every stage costs 208 021 cycles at 1k, 26 % from
/// theory, and 364 415 at 4k, 31 %.
fn hold_sort(n: usize, ceiling: u64, cycles: u64, theory: u64) {
    for kind in [BackendKind::BitAccurate, BackendKind::Functional] {
        let dev = Device::with_backend_mode(quick_config(), kind, ParallelismMode::BitSerial)
            .expect("device");
        let r = run_workload(&dev, Workload::Sort(n), 0).expect("sort");
        assert!(r.measured_cycles <= ceiling, "{} cycles", r.measured_cycles);
        assert!(r.distance_from_theory() <= 0.14, "{:?}", r);
        assert_eq!(
            (r.measured_cycles, r.theoretical_cycles),
            (cycles, theory),
            "{kind:?}"
        );
    }
}

#[test]
fn fp_sort_1k_holds_its_cycles_on_both_backends() {
    hold_sort(1024, 95_000, 87_894, 80_510);
}

#[test]
fn fp_sort_4k_holds_its_cycles_on_both_backends() {
    hold_sort(4096, 180_000, 165_239, 152_193);
}

/// Paper §VI-B: "on average 5 %, worst 16 % from theoretical PIM". At
/// `figure13`'s geometry, with strict stateful-logic checking on, the suite
/// is inside the worst-case bound; the average is held where it stands.
#[test]
fn figure13_suite_is_inside_the_papers_worst_case() {
    let cfg = quick_config();
    let n = cfg.total_threads() as usize;
    let dev = Device::with_mode(cfg, ParallelismMode::BitSerial).expect("device");
    let (top, bottom) = figure13_suite(false);
    let results: Vec<_> = top
        .into_iter()
        .chain(bottom)
        .map(|w| run_workload(&dev, w, n).expect("workload"))
        .collect();
    let (average, worst) = distance_summary(&results);
    assert!(worst <= 0.16, "worst {worst:.3}: {results:#?}");
    assert!(average <= 0.10, "average {average:.3}: {results:#?}");
}
