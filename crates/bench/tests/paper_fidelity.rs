//! Paper-fidelity guard (ROADMAP aim 3): the reproduction's headline
//! numbers are deterministic modeled cycle counts, so they are held to
//! committed exact values instead of only being printed by `figure13`.
//!
//! First entry: FP Sort 1k, the suite's worst distance from theoretical
//! PIM, because its cost is movement — two uniform shifts per
//! compare-and-swap stage — rather than arithmetic.

use pim_bench::{quick_config, run_workload, Workload};
use pypim_core::{BackendKind, Device, ParallelismMode};

/// Measured and theoretical (pure-logic) cycles of FP Sort 1k, bit-serial,
/// on a fresh 16 x 256 device. Moving either number is a deliberate act:
/// update it together with the `figure13` table in ROADMAP.md.
const SORT_1K_CYCLES: u64 = 208_021;
const SORT_1K_THEORY: u64 = 165_141;

#[test]
fn fp_sort_1k_holds_its_cycles_on_both_backends() {
    for kind in [BackendKind::BitAccurate, BackendKind::Functional] {
        let dev = Device::with_backend_mode(quick_config(), kind, ParallelismMode::BitSerial)
            .expect("device");
        let r = run_workload(&dev, Workload::Sort(1024), 0).expect("sort");
        // The ceiling that matters if the exact values are ever re-recorded:
        // issuing one `MoveRows` per row instead of one per run of rows
        // costs 403 989 cycles, 53.5 % from theory.
        assert!(r.measured_cycles <= 215_000, "{} cycles", r.measured_cycles);
        assert!(r.distance_from_theory() <= 0.30, "{:?}", r);
        assert_eq!(
            (r.measured_cycles, r.theoretical_cycles),
            (SORT_1K_CYCLES, SORT_1K_THEORY),
            "{kind:?}"
        );
    }
}
