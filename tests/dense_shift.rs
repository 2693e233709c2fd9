//! The dense-shift movement plan (`plan_copy` fast path 4) end to end:
//! `shifted()` against a host reference over many geometries on one chip
//! and on a two-shard cluster, and operations between offset views of one
//! tensor, which must align through moves alone — no element ever travels
//! through the host.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pypim::{plan_copy, shifted, Device, PimConfig};

const ROWS: [usize; 4] = [4, 8, 16, 96];

fn chip(crossbars: usize, rows: usize) -> PimConfig {
    PimConfig::small().with_crossbars(crossbars).with_rows(rows)
}

/// Distinct, sign-mixed words so a misplaced element cannot go unnoticed.
fn values(n: usize) -> Vec<i32> {
    (0..n as i32)
        .map(|i| i.wrapping_mul(0x9E37_79B1u32 as i32) ^ i)
        .collect()
}

/// `shifted(t, dist)[i] == t[i + dist]` wherever `i + dist` is in range.
/// `fill` (per mille of the device) picks the length, `dist` (per mille of
/// `n + rows`) the distance: both signs, beyond a warp, beyond the tensor.
fn check_shift(dev: &Device, fill: usize, dist: i64) -> Result<(), TestCaseError> {
    let cfg = dev.config();
    let n = 1 + fill * (cfg.crossbars * cfg.rows - 1) / 999;
    let dist = dist * (n + cfg.rows) as i64 / 1000;
    let vals = values(n);
    let t = dev.from_slice_i32(&vals).unwrap();
    dev.reset_counters().unwrap();
    let out = shifted(&t, dist).unwrap();
    // (A cluster stages its chip-crossing moves as reads and writes.)
    prop_assert!(dev.shards() > 1 || dev.profiler().unwrap().ops.read == 0);
    let got = out.to_vec_i32().unwrap();
    for i in 0..n as i64 {
        if (0..n as i64).contains(&(i + dist)) {
            prop_assert_eq!(
                got[i as usize],
                vals[(i + dist) as usize],
                "n {} dist {} index {}",
                n,
                dist,
                i
            );
        }
    }
    // The source is untouched.
    prop_assert_eq!(t.to_vec_i32().unwrap(), vals);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any length, any distance, any crossbar count, crossbar heights that
    /// are and are not a power of two — bit-accurate backend, strict
    /// checking on.
    #[test]
    fn shifted_matches_host_on_one_chip(
        crossbars in 1usize..9,
        rows in 0usize..ROWS.len(),
        fill in 1usize..1000,
        dist in -1100i64..1100,
    ) {
        check_shift(&Device::new(chip(crossbars, ROWS[rows])).unwrap(), fill, dist)?;
    }

    /// The same on two shards: warps `crossbars..` live on the second chip,
    /// so row runs split per shard and warp-changing rows cross the link.
    #[test]
    fn shifted_matches_host_on_two_shards(
        crossbars in 1usize..5,
        rows in 0usize..ROWS.len(),
        fill in 1usize..1000,
        dist in -1100i64..1100,
    ) {
        check_shift(&Device::cluster(chip(crossbars, ROWS[rows]), 2).unwrap(), fill, dist)?;
    }
}

/// `x[k:] op x[:-k]`: the two operands are offset views of one register, so
/// the right one is copied next to the left one by the dense-shift plan.
fn offset_views(dev: &Device, n: usize, k: usize, sub: bool) -> u64 {
    let vals = values(n);
    let x = dev.from_slice_i32(&vals).unwrap();
    let (hi, lo) = (x.slice(k, n).unwrap(), x.slice(0, n - k).unwrap());
    let aligned = hi.empty_aligned(lo.dtype()).unwrap();
    assert!(
        plan_copy(&lo, &aligned).unwrap().is_some(),
        "offset {k} of {n} elements has a move plan"
    );
    drop(aligned);
    dev.reset_counters().unwrap();
    let out = if sub { &hi - &lo } else { &hi + &lo };
    let out = out.unwrap();
    let p = dev.profiler().unwrap();
    // (A cluster stages its chip-crossing moves as reads and writes.)
    if dev.shards() == 1 {
        assert_eq!(p.ops.read, 0, "no element falls back to the host");
        assert_eq!(p.ops.write, 0);
    }
    let want: Vec<i32> = (0..n - k)
        .map(|i| {
            if sub {
                vals[i + k].wrapping_sub(vals[i])
            } else {
                vals[i + k].wrapping_add(vals[i])
            }
        })
        .collect();
    assert_eq!(out.to_vec_i32().unwrap(), want, "n {n} k {k}");
    p.cycles
}

#[test]
fn offset_views_align_without_the_host() {
    let dev = Device::new(chip(4, 16)).unwrap();
    // Multi-warp tensors, ragged and full; k = 16 and 19 cross a warp.
    for n in [64, 50, 33] {
        offset_views(&dev, n, 1, true);
        offset_views(&dev, n, 3, false);
        offset_views(&dev, n, 16, true);
        offset_views(&dev, n, 19, false);
    }
    // The same through a cluster: shard boundary after warp 1.
    let dev = Device::cluster(chip(2, 16), 2).unwrap();
    offset_views(&dev, 64, 1, true);
    offset_views(&dev, 50, 3, false);
}

#[test]
fn adjacent_difference_of_8192_elements_costs_moves_not_round_trips() {
    // x[1:] - x[:-1] over a full 16 x 512 chip: one range `MoveRows`, one
    // `MoveWarps` per H-tree phase and the subtraction. The per-element
    // fallback this replaces took 8191 host reads and 25 268 cycles.
    let dev = Device::new(chip(16, 512)).unwrap();
    let cycles = offset_views(&dev, 8192, 1, true);
    assert!(cycles <= 2_500, "{cycles} modeled cycles");
}
