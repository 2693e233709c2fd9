//! # pypim
//!
//! End-to-end digital processing-in-memory (PIM) stack in Rust — a
//! reproduction of *PyPIM: Integrating Digital Processing-in-Memory from
//! Microarchitectural Design to Python Tensors* (MICRO 2024).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`arch`] — micro-operation model: configuration, range masks,
//!   half-gate partition encoding, 64-bit wire format, H-tree addressing.
//! * [`sim`] — bit-accurate PIM simulator (drop-in replacement for a chip).
//! * [`isa`] — warps-of-threads instruction set architecture.
//! * [`driver`] — host driver translating macro-instructions into
//!   micro-operations (gate-level AritPIM arithmetic, IEEE-754 floats).
//! * [`cluster`] — sharded multi-chip execution engine: `N` driver+chip
//!   pairs behind one flat address space — each on its own worker thread,
//!   or all on the submitting thread, which is how a single-chip
//!   [`Device`] runs — with batched job submission (blocking *and*
//!   pollable — job tickets are futures) and cross-shard
//!   gather/scatter/reduce.
//! * [`serve`] — async multi-client serving gateway: one host thread
//!   drives many in-flight client sessions, each with its own placement
//!   window, through an admission controller that coalesces their steps
//!   into shared cluster submissions ([`Gateway`], [`ClusterClient`]).
//! * [`fleet`] — multi-host serving: `N` in-process gateway hosts behind
//!   one router with lease-based leader election on the modeled clock and
//!   deterministic failover — sessions re-place onto survivors and
//!   in-flight results from dead placements are discarded and re-issued
//!   ([`Fleet`], [`FleetSession`]).
//! * [`telemetry`] — unified tracing + metrics: a lock-cheap registry
//!   (counters/gauges/log-bucketed histograms behind one
//!   `MetricsSnapshot`), windowed time series (`WindowSampler`), and
//!   span/counter-track tracing on the modeled clock with per-request
//!   attribution (`RequestId`) and Chrome/Perfetto trace export.
//!   Zero-cost when disabled (the default).
//! * [`loadgen`] — open-loop traffic harness: seeded Poisson/burst/ramp
//!   arrival schedules drive gateway sessions at scheduled modeled
//!   cycles, producing windowed SLO reports and latency-vs-load sweeps
//!   (knee and collapse points) — see `examples/loadgen_demo.rs`.
//! * The development library ([`Tensor`], [`Device`], …) — NumPy-like
//!   tensors with views, reductions, sorting, and CORDIC routines.
//!
//! # Quickstart
//!
//! The example program from Figure 12 of the paper:
//!
//! ```
//! use pypim::{Device, PimConfig, Tensor};
//!
//! fn my_func(a: &Tensor, b: &Tensor) -> pypim::Result<Tensor> {
//!     // Parallel multiplication and addition across every element.
//!     Ok((&(a * b)? + a)?)
//! }
//!
//! # fn main() -> pypim::Result<()> {
//! let dev = Device::new(PimConfig::small())?;
//! let mut x = dev.zeros_f32(64)?;
//! let mut y = dev.zeros_f32(64)?;
//! x.set_f32(4, 8.0)?;  y.set_f32(4, 0.5)?;
//! x.set_f32(5, 20.0)?; y.set_f32(5, 1.0)?;
//! x.set_f32(8, 10.0)?; y.set_f32(8, 1.0)?;
//!
//! let z = my_func(&x, &y)?;
//! // Logarithmic-time reduction of the even indices.
//! assert_eq!(z.slice_step(0, 64, 2)?.sum_f32()?, 32.0); // 8*1.5 + 10*2
//! # Ok(())
//! # }
//! ```
//!
//! # Sharded quickstart
//!
//! [`Device::new`] is a one-shard cluster run on the calling thread;
//! [`Device::cluster`] makes it `N` chips (`pim-cluster`), each on its own
//! worker thread: the same tensor program runs unchanged — and
//! bit-identically — while element-parallel work fans out across the
//! chips. The device is `Send + Sync`, so many
//! client threads can serve requests against one cluster concurrently (see
//! `examples/cluster_serve.rs`).
//!
//! ```
//! use pypim::{Device, PimConfig};
//!
//! # fn main() -> pypim::Result<()> {
//! // Four chips of 16 crossbars each: one 4096-thread logical memory.
//! let dev = Device::cluster(PimConfig::small(), 4)?;
//! assert_eq!(dev.shards(), 4);
//!
//! let x = dev.from_slice_f32(&[1.5; 1024])?;
//! let y = dev.full_f32(1024, 2.0)?;
//! let z = (&x * &y)?; // each chip multiplies its slice concurrently
//! assert_eq!(z.sum_f32()?, 3072.0);
//!
//! // Per-shard telemetry: chip cycles, issued cycles, cache hit rates.
//! let stats = dev.cluster_stats()?.expect("cluster-backed");
//! assert_eq!(stats.shards.len(), 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Serving quickstart
//!
//! [`DeviceServeExt::serve`] puts an async gateway in front of the
//! cluster: each client opens a [`ClusterClient`] session with a private
//! placement window, and one `block_on(join_all(…))` host thread keeps
//! every request in flight at once — no thread per client, no in-flight
//! bound to protect the allocator (see `examples/cluster_serve.rs`).
//!
//! ```
//! use futures::executor::block_on;
//! use futures::future::join_all;
//! use pypim::{Device, DeviceServeExt, PimConfig, Result, ServeConfig};
//!
//! # fn main() -> Result<()> {
//! let dev = Device::cluster(PimConfig::small().with_crossbars(4), 4)?;
//! let gateway = dev.serve(ServeConfig::default());
//! let clients: Vec<_> = (0..4)
//!     .map(|_| gateway.session())
//!     .collect::<Result<_>>()?;
//!
//! let sums = block_on(join_all(clients.iter().map(|client| async move {
//!     let x = client.step(|p| p.upload_f32(&[1.0, 2.0, 3.0])).await?;
//!     let y = client.step(|p| p.full_f32(3, 2.0)).await?;
//!     let z = client.step(|p| p.mul(&x, &y)).await?;
//!     client.sum_f32(&z).await
//! })));
//! for s in sums {
//!     assert_eq!(s?, 12.0);
//! }
//! # Ok(())
//! # }
//! ```

pub use pim_arch as arch;
pub use pim_cluster as cluster;
pub use pim_driver as driver;
pub use pim_fleet as fleet;
pub use pim_func as func;
pub use pim_isa as isa;
pub use pim_loadgen as loadgen;
pub use pim_serve as serve;
pub use pim_sim as sim;
pub use pim_telemetry as telemetry;

pub use pim_arch::{PimConfig, RangeMask};
pub use pim_cluster::{
    ClusterStats, CrossingMove, GatherTicket, GlobalWrite, Interconnect, InterconnectConfig,
    JobSet, JobTicket, MoveCoalescer, PimCluster, ShardPlan, TrafficStats,
};
pub use pim_fleet::{Fleet, FleetConfig, FleetSession, FleetStats, Lease, LeaseStore};
pub use pim_serve::{
    ClusterClient, DeviceServeExt, Gateway, GatewayHost, GatewayStats, ServeConfig,
};
pub use pypim_core::*;
