//! The compare-exchange partner plan (`exchange()`) end to end: against a
//! host reference `t[i ^ j]` over many geometries on one chip and on a
//! two-shard cluster, strict checking on. Where the lanes of a pair share a
//! warp the plan is range `MoveRows` between disjoint row sets and nothing
//! else, and its shape is held; the 96-row geometry pins the other side,
//! the two shifts and a select.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use pypim::{exchange, Device, PimConfig};

const ROWS: [usize; 5] = [4, 8, 16, 96, 512];

fn chip(crossbars: usize, rows: usize) -> PimConfig {
    PimConfig::small().with_crossbars(crossbars).with_rows(rows)
}

/// Distinct, sign-mixed words so a misplaced element cannot go unnoticed.
fn values(n: usize) -> Vec<i32> {
    (0..n as i32)
        .map(|i| i.wrapping_mul(0x9E37_79B1u32 as i32) ^ i)
        .collect()
}

/// Every power-of-two pair distance of a tensor of `2^e` elements, `e`
/// picked by `size` (per mille) from one pair up to the whole device.
fn check_exchange(dev: &Device, size: usize) -> Result<(), TestCaseError> {
    let cfg = dev.config();
    let rows = cfg.rows;
    let capacity = cfg.crossbars * rows;
    let n = 2usize << (size * capacity.ilog2() as usize / 1000);
    let vals = values(n);
    let t = dev.from_slice_i32(&vals).unwrap();
    for j in (0..n.ilog2()).map(|bit| 1usize << bit) {
        let lower: Vec<i32> = (0..n).map(|i| (i & j == 0) as i32).collect();
        let low = dev.from_slice_i32(&lower).unwrap();
        dev.reset_counters().unwrap();
        let out = exchange(&t, j, &low).unwrap();
        let ops = dev.profiler().unwrap().ops;
        let what = format!(
            "{} x {rows}, {n} elements, distance {j}: {ops:?}",
            cfg.crossbars
        );
        let got = out.to_vec_i32().unwrap();
        for i in 0..n {
            prop_assert_eq!(got[i], vals[i ^ j], "{} index {}", what, i);
        }
        // Pairs that share a warp — any distance inside a single-warp
        // tensor, every distance below a power-of-two crossbar height —
        // exchange through row moves alone: one vertical gate per lane of
        // a warp, seven horizontal gates per `MoveRows`, nothing across
        // warps and nothing through the host.
        let lanes = n.min(rows);
        if n <= rows || (rows.is_power_of_two() && j < rows) {
            prop_assert_eq!(ops.mv + ops.read + ops.write, 0, "{}", what);
            if dev.shards() == 1 {
                let moves = 2 * j.min(lanes / (2 * j)) as u64;
                prop_assert_eq!(ops.logic_v, lanes as u64, "{}", what);
                prop_assert_eq!(ops.logic_h, 7 * moves, "{}", what);
            }
        }
        // 96 = 3 * 32: a full warp is not a whole number of 64-lane
        // blocks, so on a multi-warp tensor distance 32 (like every
        // distance from a warp up) takes the two shifts and the select,
        // which is hundreds of horizontal gates.
        if rows == 96 && n > rows && j >= 32 {
            prop_assert!(ops.logic_h > 100, "{}", what);
        }
    }
    // The source is untouched.
    prop_assert_eq!(t.to_vec_i32().unwrap(), vals);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit-accurate backend, strict checking on.
    #[test]
    fn exchange_matches_host_on_one_chip(
        crossbars in 1usize..9,
        rows in 0usize..ROWS.len(),
        size in 0usize..1000,
    ) {
        check_exchange(&Device::new(chip(crossbars, ROWS[rows])).unwrap(), size)?;
    }

    /// The same on two shards: warps `crossbars..` live on the second chip,
    /// so every `MoveRows` of the lane plan splits per shard, and only the
    /// fallback's whole-tensor shifts cross the link.
    #[test]
    fn exchange_matches_host_on_two_shards(
        crossbars in 1usize..5,
        rows in 0usize..ROWS.len(),
        size in 0usize..1000,
    ) {
        check_exchange(&Device::cluster(chip(crossbars, ROWS[rows]), 2).unwrap(), size)?;
    }
}

/// 256 elements over 96-row warps, whatever the proptest seeds reach:
/// distances up to 16 take the lane plan over two thread ranges (two full
/// warps and a 64-lane tail), distances from 32 the shifts and the select.
#[test]
fn ninety_six_rows_take_both_plans() {
    check_exchange(&Device::new(chip(3, 96)).unwrap(), 999).unwrap();
    check_exchange(&Device::cluster(chip(2, 96), 2).unwrap(), 999).unwrap();
}

#[test]
fn exchange_refuses_views_and_odd_distances() {
    let dev = Device::new(chip(2, 8)).unwrap();
    let t = dev.from_slice_i32(&values(16)).unwrap();
    let low = dev.zeros_i32(16).unwrap();
    assert!(exchange(&t, 3, &low).is_err());
    assert!(exchange(&t, 0, &low).is_err());
    let view = t.slice(1, 9).unwrap();
    assert!(exchange(&view, 2, &low.slice(1, 9).unwrap()).is_err());
}
