//! Backend equivalence: the vectorized functional backend (`pim-func`)
//! must be indistinguishable from the bit-accurate simulator through every
//! layer of the stack — identical tensor-program results *and* identical
//! modeled-cycle totals, on a single chip, on uniform clusters of either
//! backend, and on a mixed cluster where some shards are bit-accurate and
//! others functional. The functional backend shares the simulator's cost
//! model (`pim_sim::charge_op`), so any divergence in `Device::cycles`
//! is a bug, not a modeling choice.

use futures::executor::block_on;
use pypim::serve::{ClusterClient, DeviceServeExt, ServeConfig};
use pypim::{BackendKind, ClusterOptions, Device, PimConfig, RegOp, Result, ShardBackends, Tensor};

/// The chip geometry under test: 16 crossbars x 64 rows, or
/// `PIM_ORACLE_ROWS` rows when that is set. CI runs the suite a second
/// time at 96 rows — not a multiple of the simulator's 64-row plane words,
/// so every crossbar's planes end in a partly used word and the kernels'
/// handling of it is held against the functional backend.
fn chip() -> PimConfig {
    let rows = std::env::var("PIM_ORACLE_ROWS")
        .map(|rows| rows.parse().expect("PIM_ORACLE_ROWS must be a row count"));
    PimConfig::small().with_rows(rows.unwrap_or(64))
}

/// Single chip, bit-accurate.
fn sim_single() -> Device {
    Device::new(chip()).unwrap()
}

/// Single chip, functional backend, same geometry.
fn func_single() -> Device {
    Device::with_backend(chip(), BackendKind::Functional).unwrap()
}

/// Four chips of 4 crossbars with the given per-shard backends — the same
/// 16-warp logical geometry as the single-chip devices.
fn cluster(backends: ShardBackends) -> Device {
    cluster_of(chip(), backends)
}

fn cluster_of(chip: PimConfig, backends: ShardBackends) -> Device {
    Device::cluster_with_options(
        chip.with_crossbars(4),
        4,
        ClusterOptions {
            backends,
            ..ClusterOptions::default()
        },
    )
    .unwrap()
}

/// All five topologies under test: the two single-chip backends, the two
/// uniform clusters, and a mixed cluster alternating backends per shard.
fn devices() -> Vec<(&'static str, Device)> {
    vec![
        ("sim-single", sim_single()),
        ("func-single", func_single()),
        (
            "sim-cluster",
            cluster(ShardBackends::Uniform(BackendKind::BitAccurate)),
        ),
        (
            "func-cluster",
            cluster(ShardBackends::Uniform(BackendKind::Functional)),
        ),
        (
            "mixed-cluster",
            cluster(ShardBackends::PerShard(vec![
                BackendKind::BitAccurate,
                BackendKind::Functional,
                BackendKind::Functional,
                BackendKind::BitAccurate,
            ])),
        ),
    ]
}

fn float_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 7 {
            0 => 0.1 + i as f32,
            1 => -3.75e-3 * i as f32,
            2 => 1.0e-40, // subnormal
            3 => 3.4e37,
            4 => -0.0,
            5 => -7.25e-9 * i as f32,
            _ => (i as f32).sin() * 100.0,
        })
        .collect()
}

fn int_inputs(n: usize) -> Vec<i32> {
    (0..n)
        .map(|i| (i as i32).wrapping_mul(0x9E37_79B9u32 as i32) ^ (i as i32) << 7)
        .collect()
}

/// Runs `program` on every topology. Results must be bit-identical across
/// all five; modeled-cycle totals must be identical across topologies with
/// the same shape (single vs single, and all three clusters — a cluster's
/// `cycles` is its busiest shard, so single and cluster totals differ by
/// design, but the backend must never change them).
fn assert_backend_equivalent(program: impl Fn(&Device) -> Result<Vec<u32>>) {
    let mut outputs: Vec<(&str, Vec<u32>, u64)> = Vec::new();
    for (name, dev) in devices() {
        dev.reset_counters().unwrap();
        let out = program(&dev).unwrap();
        let cycles = dev.cycles().unwrap();
        outputs.push((name, out, cycles));
    }
    let (base_name, base_out, sim_single_cycles) = &outputs[0];
    for (name, out, _) in &outputs[1..] {
        assert_eq!(base_out, out, "{name} output diverged from {base_name}");
    }
    assert_eq!(
        outputs[1].2, *sim_single_cycles,
        "func-single modeled cycles diverged from sim-single"
    );
    let sim_cluster_cycles = outputs[2].2;
    for (name, _, cycles) in &outputs[3..] {
        assert_eq!(
            *cycles, sim_cluster_cycles,
            "{name} modeled cycles diverged from sim-cluster"
        );
    }
}

#[test]
fn arithmetic_chain_matches_across_backends() {
    assert_backend_equivalent(|dev| {
        let a = dev.from_slice_f32(&float_inputs(300))?;
        let b = dev.full_f32(300, 1.0625)?;
        let z: Tensor = (&(&(&a * &b)? + &a)? - &b)?;
        let d = (&z / &b)?;
        d.to_raw_vec()
    });
}

#[test]
fn int_ops_and_select_match_across_backends() {
    assert_backend_equivalent(|dev| {
        let a = dev.from_slice_i32(&int_inputs(200))?;
        let b =
            dev.from_slice_i32(&int_inputs(200).iter().map(|v| v ^ 0x55).collect::<Vec<_>>())?;
        let sum = (&a + &b)?;
        let prod = (&a * &b)?;
        let cmp = a.lt(&b)?;
        let sel = cmp.select(&sum, &prod)?;
        sel.bit_xor(&a)?.to_raw_vec()
    });
}

#[test]
fn reductions_match_across_backends() {
    assert_backend_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(333))?;
        let i = dev.from_slice_i32(&int_inputs(250))?;
        Ok(vec![
            t.sum_f32()?.to_bits(),
            t.slice_step(0, 333, 3)?.prod_f32()?.to_bits(),
            i.sum_i32()? as u32,
            i.min_i32()? as u32,
            i.max_i32()? as u32,
        ])
    });
}

#[test]
fn sort_and_scan_match_across_backends() {
    assert_backend_equivalent(|dev| {
        let t = dev.from_slice_f32(&float_inputs(96))?;
        let mut out = t.sorted()?.to_raw_vec()?;
        out.extend(t.cumsum()?.to_raw_vec()?);
        Ok(out)
    });
}

#[test]
fn crossing_moves_match_across_backends() {
    // Whole-shard shifts cross chip boundaries on the cluster topologies;
    // on the mixed cluster the transfer staging reads from a functional
    // shard and writes into a bit-accurate one (and vice versa).
    assert_backend_equivalent(|dev| {
        let t = dev.from_slice_i32(&int_inputs(1024))?;
        let up = pypim::shifted(&t, 256)?;
        let down = pypim::shifted(&t, -256)?;
        let mixed = (&up + &down)?;
        let far = pypim::shifted(&mixed, 512)?;
        let mut out = mixed.to_raw_vec()?;
        out.extend(far.to_raw_vec()?);
        Ok(out)
    });
}

#[test]
fn cordic_matches_across_backends() {
    assert_backend_equivalent(|dev| {
        let t = dev.from_slice_f32(&(0..64).map(|i| i as f32 * 0.05 - 1.6).collect::<Vec<_>>())?;
        t.sin()?.to_raw_vec()
    });
}

/// One fused gateway request — upload, two element-parallel ops, a full
/// reduction tree — on each cluster topology through the async serving
/// path. The gateway's coalesced submissions must stay bit-identical and
/// cycle-identical whatever backend each shard runs.
#[test]
fn fused_request_plans_match_across_backends() {
    let request = |client: &ClusterClient, values: &[f32]| -> Result<f32> {
        block_on(async {
            let mut plan = client.plan();
            let x = plan.upload_f32(values)?;
            let y = plan.full_f32(values.len(), 2.0)?;
            let xy = plan.mul(&x, &y)?;
            let z = plan.add(&xy, &x)?;
            let sum = plan.reduce(&z, RegOp::Add)?;
            plan.run().await?;
            Ok(client.to_vec_f32(&sum).await?[0])
        })
    };
    let values: Vec<f32> = (0..256).map(|i| (i % 13) as f32 * 0.25).collect();
    let mut outcomes: Vec<(&str, u32, u64)> = Vec::new();
    for backends in [
        ShardBackends::Uniform(BackendKind::BitAccurate),
        ShardBackends::Uniform(BackendKind::Functional),
        ShardBackends::PerShard(vec![
            BackendKind::Functional,
            BackendKind::BitAccurate,
            BackendKind::Functional,
            BackendKind::BitAccurate,
        ]),
    ] {
        let name = match &backends {
            ShardBackends::Uniform(BackendKind::BitAccurate) => "sim",
            ShardBackends::Uniform(BackendKind::Functional) => "func",
            _ => "mixed",
        };
        // Always 64 rows: the planned reduction tree needs a power of two.
        let dev = cluster_of(PimConfig::small(), backends);
        let gateway = dev.serve(ServeConfig {
            session_warps: 8,
            ..ServeConfig::default()
        });
        let client = gateway.session().unwrap();
        let got = request(&client, &values).unwrap();
        outcomes.push((name, got.to_bits(), dev.cycles().unwrap()));
    }
    let (_, base_bits, base_cycles) = outcomes[0];
    for (name, bits, cycles) in &outcomes[1..] {
        assert_eq!(*bits, base_bits, "{name} gateway result diverged");
        assert_eq!(
            *cycles, base_cycles,
            "{name} gateway modeled cycles diverged"
        );
    }
}
