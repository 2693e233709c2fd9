//! Paper-fidelity guard (ROADMAP aim 3): the reproduction's headline
//! numbers are deterministic modeled cycle counts, so they are held to
//! committed exact values instead of only being printed by `figure13`.
//!
//! Theory is a routine's `NOT`/`NOR` count, so every cycle of distance is
//! an `INIT`, a mask or a move, and two lowerings decide how many there are.
//! The arithmetic rows (and the reductions and CORDIC built from them) pay
//! for initializing scratch cells: the driver's builder places a cell by
//! how long it lives, so a scratch register empties as a whole and one
//! partition-parallel `INIT1` re-arms 32 gate outputs — 1 / 32 = 3.1 % is
//! the floor, and the five fundamental operations are held exactly where
//! they stand above it. The sorts pay for movement on top: a
//! compare-and-swap stage moves only the lanes it keeps (disjoint range
//! `MoveRows`, one vertical gate per lane) while the pair distance is
//! below a warp, and shifts the whole tensor both ways (`MoveWarps` per row
//! and H-tree phase, then a select) from there on; both sorts are held
//! exactly. The suite as a whole is held to the paper's own §VI-B claim.

use pim_bench::{distance_summary, figure13_suite, quick_config, run_workload, Workload};
use pim_isa::{DType, RegOp};
use pypim_core::{Device, ParallelismMode};

/// Holds one FP sort, bit-serial, on a fresh 16 x 256 device under
/// `ceiling` cycles and to its exact measured and theoretical
/// (pure-logic) cycles. Moving a number is a deliberate act: update it
/// together with the `figure13` table in ROADMAP.md. The ceilings are what
/// matters if the exact values are ever re-recorded: before cells were
/// placed by lifetime the sorts cost 87 894 cycles at 1k and 165 239 at 4k
/// (9.2 % and 8.6 % from theory), and shifting the whole tensor both ways in
/// every stage costs 208 021 and 364 415 (26 % and 31 %).
fn hold_sort(n: usize, ceiling: u64, cycles: u64, theory: u64) {
    let dev = Device::with_mode(quick_config(), ParallelismMode::BitSerial).expect("device");
    let r = run_workload(&dev, Workload::Sort(n), 0).expect("sort");
    assert!(r.measured_cycles <= ceiling, "{} cycles", r.measured_cycles);
    assert!(r.distance_from_theory() <= 0.09, "{:?}", r);
    assert_eq!((r.measured_cycles, r.theoretical_cycles), (cycles, theory));
}

#[test]
fn fp_sort_1k_holds_its_cycles_on_both_backends() {
    hold_sort(1024, 90_000, 86_639, 80_510);
}

#[test]
fn fp_sort_4k_holds_its_cycles_on_both_backends() {
    hold_sort(4096, 170_000, 163_461, 152_193);
}

/// The fundamental operations (Figure 13, top), measured and theoretical
/// cycles as `figure13` prints them: the routine plus its two mask
/// operations. Theory is what no lowering may move; the distance above it
/// is the scratch allocator's (`CircuitBuilder::alloc`).
#[test]
fn arithmetic_rows_hold_their_cycles() {
    let rows = [
        (RegOp::Add, DType::Int32, 301, 288),
        (RegOp::Mul, DType::Int32, 6_308, 6_112),
        (RegOp::Lt, DType::Int32, 243, 229),
        (RegOp::Add, DType::Float32, 5_770, 5_589),
        (RegOp::Mul, DType::Float32, 11_567, 11_209),
    ];
    let cfg = quick_config();
    let n = cfg.total_threads() as usize;
    let dev = Device::with_mode(cfg, ParallelismMode::BitSerial).expect("device");
    for (op, dtype, cycles, theory) in rows {
        let r = run_workload(&dev, Workload::RType(op, dtype), n).expect("workload");
        assert_eq!(
            (r.measured_cycles, r.theoretical_cycles),
            (cycles, theory),
            "{}",
            r.name
        );
    }
}

/// Paper §VI-B: "on average 5 %, worst 16 % from theoretical PIM". At
/// `figure13`'s geometry, with strict stateful-logic checking on, the suite
/// is inside both: the average is held to the paper's number, the worst
/// case (the sorts) well inside it.
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
    assert!(average <= 0.05, "average {average:.3}: {results:#?}");
    assert!(worst <= 0.09, "worst {worst:.3}: {results:#?}");
}
