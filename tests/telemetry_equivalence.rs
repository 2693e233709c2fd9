//! Telemetry's zero-cost contract: recording is observation only. Serving
//! the same workload through the gateway with telemetry recording on must
//! produce **bit-identical** results to serving it with recording off (the
//! default), for shard-local and chip-crossing request mixes alike — and
//! the recording run must actually have attributed every request.

use futures::executor::block_on;
use futures::future::join_all;
use proptest::prelude::*;
use pypim::serve::ClusterClient;
use pypim::{Device, DeviceServeExt, PimConfig, RegOp, Result, ServeConfig};

const SHARDS: usize = 4;

/// 4 chips x 4 crossbars x 64 rows = 16 logical warps, 4 per chip.
fn cluster_dev() -> Device {
    Device::cluster(PimConfig::small().with_crossbars(4), SHARDS).unwrap()
}

/// Rounding-sensitive payload: any change to execution order shows up in
/// the result bits.
fn payload(cid: usize, req: usize, elems: usize, salt: u32) -> Vec<f32> {
    (0..elems)
        .map(|i| 0.1 + (cid * 17 + req * 5 + i + salt as usize) as f32 * 0.3)
        .collect()
}

/// One fused request: `sum(x * y + x)`. With multi-chip session windows
/// the reduction's warp moves cross chip boundaries, exercising the tagged
/// interconnect path; chip-local windows keep every job on one shard.
async fn request(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let mut plan = client.plan();
    let x = plan.upload_f32(values)?;
    let y = plan.full_f32(values.len(), 1.5)?;
    let xy = plan.mul(&x, &y)?;
    let z = plan.add(&xy, &x)?;
    let s = plan.reduce(&z, RegOp::Add)?;
    plan.run().await?;
    Ok(client.to_vec_f32(&s).await?[0])
}

/// Serves `clients x requests` through a fresh gateway and returns every
/// result's bit pattern in (client, request) order.
fn serve_bits(
    session_warps: u32,
    clients: usize,
    requests: usize,
    salt: u32,
    record: bool,
) -> Vec<u32> {
    let gateway = cluster_dev().serve(ServeConfig {
        session_warps,
        ..ServeConfig::default()
    });
    gateway.telemetry().set_enabled(record);
    let sessions: Vec<ClusterClient> = (0..clients).map(|_| gateway.session().unwrap()).collect();
    let elems = session_warps as usize * 64;
    let outcomes: Vec<Result<Vec<u32>>> = block_on(join_all(sessions.iter().enumerate().map(
        |(cid, client)| async move {
            let mut bits = Vec::new();
            for req in 0..requests {
                bits.push(
                    request(client, &payload(cid, req, elems, salt))
                        .await?
                        .to_bits(),
                );
            }
            Ok(bits)
        },
    )));
    if record {
        // The recording run must have attributed every request it served.
        let attributed: u64 = gateway
            .session_stats()
            .iter()
            .map(|&(_, requests, _)| requests)
            .sum();
        assert!(
            attributed >= (clients * requests) as u64,
            "recording run attributed {attributed} of {} requests",
            clients * requests
        );
    } else {
        assert!(
            gateway.session_stats().is_empty(),
            "disabled telemetry must record nothing"
        );
    }
    outcomes.into_iter().flat_map(|r| r.unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recording on vs off is bit-identical for random request mixes, both
    /// chip-local (4-warp) and chip-crossing (8-warp) session windows.
    #[test]
    fn gateway_results_bit_identical_recording_on_vs_off(
        crossing in any::<bool>(),
        requests in 1usize..3,
        salt in 0u32..1000,
    ) {
        let window = if crossing { 8u32 } else { 4u32 };
        let clients = (16 / window) as usize;
        let off = serve_bits(window, clients, requests, salt, false);
        let on = serve_bits(window, clients, requests, salt, true);
        prop_assert_eq!(off, on);
    }
}

/// Deterministic smoke of the same contract, exercised in plain `cargo
/// test` ordering: crossing windows, recording toggled mid-gateway.
#[test]
fn recording_toggle_is_invisible_to_results() {
    let off = serve_bits(8, 2, 2, 7, false);
    let on = serve_bits(8, 2, 2, 7, true);
    assert_eq!(off, on, "telemetry recording changed results");
}
