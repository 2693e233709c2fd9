//! The serving gateway's contract: interleaved multi-client execution
//! through `pim-serve` is **bit-identical** to serving every client
//! sequentially through the synchronous tensor API, and concurrent
//! sessions' placement stripes never alias each other's warp windows.

use futures::executor::block_on;
use futures::future::join_all;
use proptest::prelude::*;
use pypim::serve::ClusterClient;
use pypim::{
    DType, Device, DeviceServeExt, PimConfig, PlacementHint, RegOp, Result, ServeConfig, Tensor,
};

const SHARDS: usize = 4;

/// 4 chips x 4 crossbars x 64 rows = 16 logical warps.
fn cluster_dev() -> Device {
    Device::cluster(PimConfig::small().with_crossbars(4), SHARDS).unwrap()
}

/// Request payload with values whose float sums are rounding-sensitive, so
/// any change to the reduction's combine order shows up in the bit
/// patterns.
fn payload(cid: usize, req: usize, elems: usize) -> Vec<f32> {
    (0..elems)
        .map(|i| 0.1 + (cid * 17 + req * 5 + i) as f32 * 0.3)
        .collect()
}

/// The async request program: `sum(-(x * y) + x)` over the gateway.
async fn request_async(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let x = client.step(|p| p.upload_f32(values)).await?;
    let y = client.step(|p| p.full_f32(values.len(), 1.5)).await?;
    let xy = client.step(|p| p.mul(&x, &y)).await?;
    let neg = client.step(|p| p.unary(RegOp::Neg, &xy)).await?;
    let z = client.step(|p| p.add(&neg, &x)).await?;
    client.sum_f32(&z).await
}

/// The identical program through the blocking tensor API.
fn request_sync(dev: &Device, values: &[f32]) -> Result<f32> {
    let x = dev.from_slice_f32(values)?;
    let y = dev.full_f32(values.len(), 1.5)?;
    let xy = (&x * &y)?;
    let neg = (-&xy)?;
    let z = (&neg + &x)?;
    z.sum_f32()
}

#[test]
fn interleaved_gateway_matches_sequential_sync_bitwise() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 2;
    const ELEMS: usize = 96; // 1.5 warps: exercises partial-warp ranges

    // Sequential reference: one client at a time on a fresh cluster.
    let sync_dev = cluster_dev();
    let mut reference = Vec::new();
    for cid in 0..CLIENTS {
        for req in 0..REQUESTS {
            reference.push(
                request_sync(&sync_dev, &payload(cid, req, ELEMS))
                    .unwrap()
                    .to_bits(),
            );
        }
    }

    // Interleaved: all clients in flight at once through the gateway.
    let gateway = cluster_dev().serve(ServeConfig::default());
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session_with_warps(4).unwrap())
        .collect();
    let outcomes: Vec<Result<Vec<u32>>> = block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            let mut bits = Vec::new();
            for req in 0..REQUESTS {
                bits.push(
                    request_async(client, &payload(cid, req, ELEMS))
                        .await?
                        .to_bits(),
                );
            }
            Ok(bits)
        },
    )));

    let got: Vec<u32> = outcomes.into_iter().flat_map(|o| o.unwrap()).collect();
    assert_eq!(
        got, reference,
        "gateway results diverged bitwise from sequential execution"
    );
    // The run exercised actual coalescing machinery.
    assert!(gateway.stats().groups > 0);
}

/// The fused request pipeline: whole request planned up front, one
/// submission + one read.
async fn request_fused(client: &ClusterClient, values: &[f32]) -> Result<f32> {
    let mut plan = client.plan();
    let x = plan.upload_f32(values)?;
    let y = plan.full_f32(values.len(), 1.5)?;
    let xy = plan.mul(&x, &y)?;
    let neg = plan.unary(RegOp::Neg, &xy)?;
    let z = plan.add(&neg, &x)?;
    let s = plan.reduce(&z, RegOp::Add)?;
    plan.run().await?;
    Ok(client.to_vec_f32(&s).await?[0])
}

#[test]
fn fused_plans_match_sequential_sync_bitwise() {
    const CLIENTS: usize = 4;
    const ELEMS: usize = 128;

    let sync_dev = cluster_dev();
    let reference: Vec<u32> = (0..CLIENTS)
        .map(|cid| {
            request_sync(&sync_dev, &payload(cid, 0, ELEMS))
                .unwrap()
                .to_bits()
        })
        .collect();

    let gateway = cluster_dev().serve(ServeConfig::default());
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session_with_warps(4).unwrap())
        .collect();
    let got: Vec<u32> = block_on(join_all(clients.iter().enumerate().map(
        |(cid, client)| async move {
            request_fused(client, &payload(cid, 0, ELEMS))
                .await
                .unwrap()
                .to_bits()
        },
    )));
    assert_eq!(
        got, reference,
        "fused pipelines diverged bitwise from sequential execution"
    );
    // A whole fused request is one gateway batch plus nothing else — far
    // fewer submissions than stepwise serving.
    let stats = gateway.stats();
    assert!(stats.batches <= (CLIENTS as u64) * 2);
}

#[test]
fn gateway_int_pipeline_matches_sync() {
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let data: Vec<i32> = (0..64).map(|i| i * 3 - 50).collect();
    let (async_vec, async_sum) = block_on(async {
        let t = client.step(|p| p.upload_i32(&data)).await?;
        let u = client.step(|p| p.full_i32(data.len(), 7)).await?;
        let v = client.step(|p| p.mul(&t, &u)).await?;
        let w = client.step(|p| p.add(&v, &t)).await?;
        Ok::<_, pypim::CoreError>((client.to_vec_i32(&w).await?, client.sum_i32(&w).await?))
    })
    .unwrap();

    let sync_dev = cluster_dev();
    let t = sync_dev.from_slice_i32(&data).unwrap();
    let u = sync_dev.full_i32(data.len(), 7).unwrap();
    let w = ((&t * &u) + &t).unwrap();
    assert_eq!(async_vec, w.to_vec_i32().unwrap());
    assert_eq!(async_sum, w.sum_i32().unwrap());
}

fn bits(v: Vec<f32>) -> Vec<u32> {
    v.into_iter().map(f32::to_bits).collect()
}

#[test]
fn gateway_handles_misaligned_operands_like_sync() {
    // Views force the alignment move, planned inside `Plan::binary`;
    // the element-wise result and its sum must match the sync path
    // bit-for-bit.
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let data: Vec<f32> = (0..64).map(|i| 0.7 + i as f32 * 0.11).collect();
    let (got, got_sum) = block_on(async {
        let t = client.step(|p| p.upload_f32(&data)).await?;
        let even = t.even()?;
        let odd = t.odd()?;
        let s = client.step(|p| p.add(&even, &odd)).await?;
        Ok::<_, pypim::CoreError>((client.to_vec_f32(&s).await?, client.sum_f32(&s).await?))
    })
    .unwrap();

    let sync_dev = cluster_dev();
    let t = sync_dev.from_slice_f32(&data).unwrap();
    let s = (&t.even().unwrap() + &t.odd().unwrap()).unwrap();
    assert_eq!(bits(got), bits(s.to_vec_f32().unwrap()));
    assert_eq!(got_sum.to_bits(), s.sum_f32().unwrap().to_bits());
}

#[test]
fn an_operand_with_no_move_plan_is_aligned_through_copy() {
    // `t.even()` of 96 elements is strided over one and a half warps, so
    // no move plan aligns it with a dense `a`: the step refuses, and
    // `empty_aligned` + `copy` (the host read-then-store) aligns it
    // instead, matching sync bit-for-bit.
    let gateway = cluster_dev().serve(ServeConfig::default());
    let client = gateway.session().unwrap();
    let data: Vec<f32> = (0..96).map(|i| 0.4 + i as f32 * 0.13).collect();
    let got = block_on(async {
        let t = client.step(|p| p.upload_f32(&data)).await?;
        let a = client.step(|p| p.full_f32(48, 1.25)).await?;
        let b = t.even()?;
        let err = client.step(|p| p.add(&a, &b)).await.unwrap_err();
        assert!(
            matches!(err, pypim::CoreError::Misaligned { .. }),
            "{err:?}"
        );
        let b_aligned = a.empty_aligned(b.dtype())?;
        client.copy(&b, &b_aligned).await?;
        let s = client.step(|p| p.add(&a, &b_aligned)).await?;
        client.to_vec_f32(&s).await
    })
    .unwrap();

    let sync_dev = cluster_dev();
    let t = sync_dev.from_slice_f32(&data).unwrap();
    let a = sync_dev.full_f32(48, 1.25).unwrap();
    let s = (&a + &t.even().unwrap()).unwrap();
    assert_eq!(bits(got), bits(s.to_vec_f32().unwrap()));
}

/// One round of a crossing-heavy request: the upload lands in the lower
/// half of the session's window, a copy moves it into the upper half
/// across a chip boundary, and `sum(u * u + u)` reduces it there.
async fn crossing_request(client: &ClusterClient, window: &Tensor, values: &[f32]) -> Result<f32> {
    let half = window.len() / 2;
    let lower = window.slice(0, half)?;
    let upper = window.slice(half, window.len())?;
    client
        .exec(lower.plan_store(values.iter().map(|v| v.to_bits())))
        .await?;
    client.copy(&lower, &upper).await?;
    let uu = client.step(|p| p.mul(&upper, &upper)).await?;
    let z = client.step(|p| p.add(&uu, &upper)).await?;
    client.sum_f32(&z).await
}

#[test]
fn crossing_sessions_on_a_threaded_cluster_match_sync_and_never_defer() {
    const CLIENTS: usize = 2;
    const ROUNDS: usize = 3;
    const WARPS: u32 = 6; // windows 0..6 and 6..12 straddle the chips of 4 warps

    let gateway = cluster_dev().serve(ServeConfig::default());
    let rows = gateway.device().config().rows;
    let clients: Vec<ClusterClient> = (0..CLIENTS)
        .map(|_| gateway.session_with_warps(WARPS).unwrap())
        .collect();
    for c in &clients {
        let w = c.window();
        assert_ne!(w.warp_start / 4, (w.warp_start + w.warps - 1) / 4, "{w:?}");
    }
    let windows: Vec<Tensor> = clients
        .iter()
        .map(|c| {
            c.device()
                .uninit(WARPS as usize * rows, pypim::isa::DType::Float32)
        })
        .collect::<Result<_>>()
        .unwrap();
    let values = |cid: usize, round: usize| payload(cid, round, WARPS as usize * rows / 2);

    let run = join_all(clients.iter().zip(&windows).enumerate().map(
        |(cid, (client, window))| async move {
            let mut bits = Vec::new();
            for round in 0..ROUNDS {
                let sum = crossing_request(client, window, &values(cid, round)).await?;
                bits.push(sum.to_bits());
            }
            Ok::<_, pypim::CoreError>(bits)
        },
    ));
    let got: Vec<u32> =
        futures::executor::block_on_timeout(run, std::time::Duration::from_secs(60))
            .expect("a crossing interleaving hung")
            .into_iter()
            .flat_map(|o| o.unwrap())
            .collect();

    let sync_dev = cluster_dev();
    let reference: Vec<u32> = (0..CLIENTS)
        .flat_map(|cid| (0..ROUNDS).map(move |round| (cid, round)))
        .map(|(cid, round)| {
            let u = sync_dev.from_slice_f32(&values(cid, round)).unwrap();
            let uu = (&u * &u).unwrap();
            let z = (&uu + &u).unwrap();
            z.sum_f32().unwrap().to_bits()
        })
        .collect();
    assert_eq!(got, reference, "crossing sessions diverged from sync");
    let traffic = gateway.device().cluster_stats().unwrap().unwrap().traffic;
    assert!(traffic.cross_words > 0, "no chip-crossing move ran");
    // Inert: nothing increments `deferred` any more (it stays for
    // `benchmark/`); the timeout above is what guards against a hang.
    assert_eq!(gateway.stats().deferred, 0);
}

/// Stripes of a tensor, as a window for overlap checks.
fn stripe_window(t: &Tensor) -> PlacementHint {
    PlacementHint {
        warp_start: t.element_locs()[0].0,
        warps: 1, // start warp is enough: combined with full containment below
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent sessions' placement stripes never alias each other's
    /// warp windows: windows are pairwise disjoint, and every tensor a
    /// session allocates within its capacity stays inside its own window.
    #[test]
    fn session_stripes_never_alias_windows(
        sessions in 2usize..5,
        window_warps in 2u32..5,
        tensors_per_session in 1usize..5,
        elems_factor in 1usize..3,
    ) {
        let dev = cluster_dev(); // 16 warps, 64 rows
        let gateway = dev.serve(ServeConfig {
            session_warps: window_warps,
            ..ServeConfig::default()
        });
        let total_warps = dev.config().crossbars as u32;
        prop_assume!(window_warps * sessions as u32 <= total_warps);
        let rows = dev.config().rows;
        let clients: Vec<ClusterClient> = (0..sessions)
            .map(|_| gateway.session().unwrap())
            .collect();
        // Windows pairwise disjoint.
        for (i, a) in clients.iter().enumerate() {
            for b in clients.iter().skip(i + 1) {
                prop_assert!(
                    !a.window().overlaps(&b.window()),
                    "windows alias: {:?} vs {:?}", a.window(), b.window()
                );
            }
        }
        // In-capacity allocations stay inside their session's window (16
        // registers per window; we allocate far fewer).
        let elems = elems_factor * rows; // 1-2 warps per tensor
        let held: Vec<(usize, Tensor)> = block_on(join_all(
            clients.iter().enumerate().flat_map(|(i, client)| {
                (0..tensors_per_session).map(move |k| async move {
                    let t = client.step(|p| p.full_f32(elems, k as f32)).await;
                    (i, t.unwrap())
                })
            }),
        ));
        for (owner, t) in &held {
            let w = clients[*owner].window();
            let start = stripe_window(t).warp_start;
            let span = elems.div_ceil(rows) as u32;
            prop_assert!(
                w.contains(start, span),
                "session {owner} stripe at warp {start} (+{span}) escaped window {w:?}"
            );
            for (other, client) in clients.iter().enumerate() {
                if other != *owner {
                    prop_assert!(
                        !client.window().contains(start, 1),
                        "session {owner} stripe landed in session {other}'s window"
                    );
                }
            }
        }
    }
}

/// A program of the blocking-versus-session cost check below.
#[derive(Clone, Copy, Debug)]
enum Program {
    /// `a op b` on dense operands of one dtype.
    Binary(RegOp, DType),
    /// `-a` (float).
    Neg,
    /// `a + b[3..]`: the right-hand side sits three threads off `a`, and a
    /// move plan aligns it.
    Shifted,
    /// The whole reduction of dense `a` with `op` (float).
    Reduce(RegOp),
    /// `sum(a[::2])`: no move plan compacts the view, so both paths copy
    /// it through the host.
    EvenSum,
}

/// Elements per operand: three warps and a partial fourth.
const ELEMS: usize = 200;

impl Program {
    fn dtype(self) -> DType {
        match self {
            Program::Binary(_, dtype) => dtype,
            _ => DType::Float32,
        }
    }

    /// Raw words of operand `salt` (`ELEMS + 3` of them, for the shift).
    fn words(self, salt: usize) -> Vec<u32> {
        (0..ELEMS + 3)
            .map(|i| match self.dtype() {
                DType::Int32 => ((i * 37 + salt * 11) % 97) as u32,
                DType::Float32 => (0.3 + (i + salt * 7) as f32 * 0.17).to_bits(),
            })
            .collect()
    }

    fn run_blocking(self, dev: &Device) -> Result<Vec<u32>> {
        let [a, b] = [1, 2].map(|salt| {
            let words = self.words(salt);
            match self.dtype() {
                DType::Int32 => {
                    dev.from_slice_i32(&words.iter().map(|&w| w as i32).collect::<Vec<_>>())
                }
                DType::Float32 => {
                    dev.from_slice_f32(&words.into_iter().map(f32::from_bits).collect::<Vec<_>>())
                }
            }
        });
        let (a, b) = (a?.slice(0, ELEMS)?, b?);
        dev.reset_counters()?;
        let out = match self {
            Program::Binary(op, _) => a.binary(op, &b.slice(0, ELEMS)?)?,
            Program::Neg => (-&a)?,
            Program::Shifted => (&a + &b.slice(3, ELEMS + 3)?)?,
            Program::Reduce(op) => return Ok(vec![a.reduce_raw(op)?]),
            Program::EvenSum => return Ok(vec![a.even()?.reduce_raw(RegOp::Add)?]),
        };
        out.to_raw_vec()
    }

    async fn run_session(self, client: &ClusterClient) -> Result<Vec<u32>> {
        let mut upload = client.plan();
        let [a, b] = [1, 2].map(|salt| {
            let words = self.words(salt);
            match self.dtype() {
                DType::Int32 => {
                    upload.upload_i32(&words.iter().map(|&w| w as i32).collect::<Vec<_>>())
                }
                DType::Float32 => {
                    upload.upload_f32(&words.into_iter().map(f32::from_bits).collect::<Vec<_>>())
                }
            }
        });
        let (a, b) = (a?.slice(0, ELEMS)?, b?);
        upload.run().await?;
        client.device().reset_counters()?;
        let out = match self {
            Program::Binary(op, _) => {
                client
                    .step(|p| p.binary(op, &a, &b.slice(0, ELEMS)?))
                    .await?
            }
            Program::Neg => client.step(|p| p.unary(RegOp::Neg, &a)).await?,
            Program::Shifted => client.step(|p| p.add(&a, &b.slice(3, ELEMS + 3)?)).await?,
            Program::Reduce(op) => return Ok(vec![client.reduce_raw(&a, op).await?]),
            Program::EvenSum => return Ok(vec![client.reduce_raw(&a.even()?, RegOp::Add).await?]),
        };
        client.read_locs(&out.element_locs()).await
    }
}

#[test]
fn blocking_ops_and_session_plans_cost_the_same() {
    // Each program runs on two fresh chips: through the blocking API, and
    // through one gateway session whose window covers the whole chip (as
    // pimbench plans its programs' instruction streams). Both lower through
    // one `Plan`, so results, issued cycles and modeled cycles match.
    let cfg = PimConfig::small().with_crossbars(4);
    let mut programs = vec![Program::Neg, Program::Shifted, Program::EvenSum];
    for dtype in [DType::Int32, DType::Float32] {
        for op in [RegOp::Add, RegOp::Mul, RegOp::Lt] {
            programs.push(Program::Binary(op, dtype));
        }
    }
    programs.extend([Program::Reduce(RegOp::Add), Program::Reduce(RegOp::Mul)]);
    let cost = |dev: &Device| (dev.issued().unwrap(), dev.profiler().unwrap().cycles);
    for program in programs {
        let dev = Device::new(cfg.clone()).unwrap();
        let want = program.run_blocking(&dev).unwrap();
        let want_cost = cost(&dev);

        let gateway = Device::new(cfg.clone()).unwrap().serve(ServeConfig {
            session_warps: cfg.crossbars as u32,
            ..ServeConfig::default()
        });
        let client = gateway.session().unwrap();
        let got = block_on(program.run_session(&client)).unwrap();
        assert_eq!(got, want, "{program:?}: result bits");
        assert_eq!(
            cost(gateway.device()),
            want_cost,
            "{program:?}: issued, cycles"
        );
        assert!(want_cost.1 > 0, "{program:?} ran nothing");
    }
}
