//! Regenerates Figure 13 of the PyPIM paper: throughput of the benchmark
//! suite for (1) PyPIM as measured by the cycle-accurate simulator,
//! (2) theoretical PIM, and (3) the maximal throughput supported by the
//! host driver — plus the §VI-B summary claims (average/worst distance
//! from theoretical PIM and driver headroom).
//!
//! Usage: `cargo run --release -p pim-bench --bin figure13 [--full]`
//!
//! Exits non-zero when the distance from theoretical PIM exceeds the
//! paper's claim — 5 % on average, 16 % worst case — so a CI step that runs
//! it fails on a fidelity regression.
//!
//! `--full` uses the 64k-thread geometry and sorts 64k elements (slow);
//! the default quick mode uses 4k threads and additionally reports results
//! rescaled to the paper's Table III geometry (cycle counts are
//! geometry-independent for element-parallel operations).

use pim_bench::{
    distance_summary, eng, figure13_suite, full_config, measure_driver_rate, quick_config,
    run_workload, BenchResult, Workload,
};
use pypim_core::{Device, ParallelismMode};
use std::process::ExitCode;

/// The paper's average and worst-case distance from theoretical PIM
/// (§VI-B).
const AVERAGE_DISTANCE_CLAIM: f64 = 0.05;
const WORST_DISTANCE_CLAIM: f64 = 0.16;

fn print_panel(title: &str, rows: &[BenchResult], paper_threads: u64, threads: u64) {
    println!("\n{title}");
    println!("{:-<100}", "");
    println!(
        "{:<16} {:>12} {:>12} {:>11} {:>11} {:>11} {:>8} {:>11}",
        "Benchmark", "cycles", "theory cyc", "PyPIM", "Theo. PIM", "Driver", "dist.", "@TableIII"
    );
    for r in rows {
        let scale = paper_threads as f64 / threads as f64;
        println!(
            "{:<16} {:>12} {:>12} {:>11} {:>11} {:>11} {:>7.1}% {:>11}",
            r.name,
            r.measured_cycles,
            r.theoretical_cycles,
            eng(r.pypim_tput()),
            eng(r.theoretical_tput()),
            r.driver_tput().map(eng).unwrap_or_else(|| "-".into()),
            100.0 * r.distance_from_theory(),
            eng(r.pypim_tput() * scale),
        );
    }
}

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full { full_config() } else { quick_config() };
    let threads = cfg.total_threads();
    let paper_threads = pim_arch::PimConfig::paper().total_threads();
    println!(
        "PyPIM Figure 13 reproduction — geometry: {} crossbars x {} rows ({} threads), {} MHz",
        cfg.crossbars,
        cfg.rows,
        threads,
        cfg.clock_hz / 1e6
    );

    let n = threads as usize;
    // Bit-serial mode: the mode the AritPIM-style theoretical bounds are
    // defined for (the partition-parallel ablation is reported separately).
    // Strict stateful-logic checking stays on: every lowering the table
    // measures is held to the discipline while it is measured.
    let dev = Device::with_mode(cfg.clone(), ParallelismMode::BitSerial).expect("device");

    // ---- Top panel: fundamental operations --------------------------------
    let (top_ops, bottom_ops) = figure13_suite(full);
    let mut top = Vec::new();
    for w in top_ops {
        let mut r = run_workload(&dev, w, n).expect("workload");
        if let Workload::RType(op, dtype) = w {
            r.driver_rate = Some(measure_driver_rate(&cfg, op, dtype, 300));
        }
        eprintln!("  measured {}", r.name);
        top.push(r);
    }
    print_panel(
        "Throughput Comparison (Figure 13, top)",
        &top,
        paper_threads,
        threads,
    );

    // ---- Bottom panel: library-level benchmarks ---------------------------
    let mut bottom = Vec::new();
    for w in bottom_ops {
        let r = run_workload(&dev, w, n).expect("workload");
        eprintln!("  measured {}", r.name);
        bottom.push(r);
    }
    print_panel(
        "Library benchmarks (Figure 13, bottom)",
        &bottom,
        paper_threads,
        threads,
    );

    // ---- §VI-B summary -----------------------------------------------------
    let (avg_dist, worst_dist) = distance_summary(top.iter().chain(&bottom));
    println!("\nSummary (paper §VI-B claims: avg 5%, worst 16% from theoretical PIM;");
    println!("         host driver avg 9.5x / worst-case 6.8x faster than PyPIM)");
    println!(
        "  PyPIM distance from theoretical PIM: average {:.1}%, worst {:.1}%",
        100.0 * avg_dist,
        100.0 * worst_dist
    );
    let headrooms: Vec<f64> = top.iter().filter_map(|r| r.driver_headroom()).collect();
    if !headrooms.is_empty() {
        let avg = headrooms.iter().sum::<f64>() / headrooms.len() as f64;
        let worst = headrooms.iter().fold(f64::MAX, |a, &b| a.min(b));
        println!(
            "  Host driver vs PIM clock: average {avg:.1}x, worst {worst:.1}x \
             (>1x means the driver is not a bottleneck)"
        );
    }

    // ---- Ablation -----------------------------------------------------------
    let (serial, parallel) = pim_bench::ablation_add_cycles(&cfg).expect("ablation");
    println!(
        "\nPartition ablation (int add): bit-serial {serial} cycles vs \
         bit-parallel {parallel} cycles ({:.2}x speedup from partitions)",
        serial as f64 / parallel as f64
    );

    let mut code = ExitCode::SUCCESS;
    for (what, dist, claim) in [
        ("average", avg_dist, AVERAGE_DISTANCE_CLAIM),
        ("worst", worst_dist, WORST_DISTANCE_CLAIM),
    ] {
        if dist > claim {
            eprintln!(
                "{what} distance from theoretical PIM {:.1}% exceeds the paper's {:.0}%",
                100.0 * dist,
                100.0 * claim
            );
            code = ExitCode::FAILURE;
        }
    }
    code
}
