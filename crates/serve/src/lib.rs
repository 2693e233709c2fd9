//! # pim-serve
//!
//! An **async multi-client serving gateway** over the PyPIM stack: the
//! subsystem that lets *one host thread* serve many client sessions
//! against a sharded [`Device::cluster`] — the end-to-end host-to-PIM
//! serving story of the paper (conf_micro_LeitersdorfRK24) scaled from one
//! program to heavy multi-user traffic. Like the paper's host driver, the
//! gateway is one sequential translator: a group runs to completion on
//! the thread that pumps it, and the parallelism is the chips' own, on the
//! modeled clock.
//!
//! Two mechanisms compose:
//!
//! * **Admission control and coalescing** — every session step enters a
//!   per-session queue; the pump (run by whichever client polls) drains
//!   the queues fairly (round-robin) and coalesces the steps of every
//!   session admitted since the last pump into one shared device
//!   submission of at most eight batches, group after group.
//!   See [`ServeConfig`].
//! * **Per-client placement** — each session reserves a private warp
//!   window ([`pypim_core::PlacementHint`]); its tensors, results, and
//!   temporaries allocate there, so concurrent requests never exhaust a
//!   shared window's registers and chip-local windows keep whole requests
//!   on one shard.
//!
//! Results are **bit-identical** to serving every client sequentially
//! through the synchronous tensor API: sessions touch disjoint stripes
//! (their instructions commute), each session awaits its steps in program
//! order, and request plans are the blocking ops' own lowering,
//! [`pypim_core::Plan`] (`tests/serve_contract.rs`).
//!
//! A [`RequestPlan`] — that plan bound to a session — is the one op
//! vocabulary: [`ClusterClient::step`]
//! runs one op as a one-step plan (as below), and a plan built with
//! [`ClusterClient::plan`] fuses a whole request — uploads,
//! element-parallel ops, every reduction level — into **one** submission
//! plus one read (something the blocking tensor API structurally cannot
//! do, since it must execute-and-wait per op).
//!
//! # Example
//!
//! ```
//! use futures::executor::block_on;
//! use futures::future::join_all;
//! use pim_arch::PimConfig;
//! use pim_serve::{ClusterClient, DeviceServeExt, ServeConfig};
//! use pypim_core::{Device, Result};
//!
//! async fn request(client: &ClusterClient, data: &[f32]) -> Result<f32> {
//!     let x = client.step(|p| p.upload_f32(data)).await?;
//!     let y = client.step(|p| p.full_f32(data.len(), 2.0)).await?;
//!     let xy = client.step(|p| p.mul(&x, &y)).await?;
//!     let z = client.step(|p| p.add(&xy, &x)).await?;
//!     client.sum_f32(&z).await // sum(x * 2 + x)
//! }
//!
//! # fn main() -> Result<()> {
//! let dev = Device::cluster(PimConfig::small().with_crossbars(4), 4)?;
//! let gateway = dev.serve(ServeConfig::default());
//! let clients: Vec<ClusterClient> =
//!     (0..4).map(|_| gateway.session()).collect::<Result<_>>()?;
//!
//! // One host thread drives all four requests, interleaved.
//! let results = block_on(join_all(
//!     clients.iter().map(|c| request(c, &[1.0, 2.0, 3.0, 4.0])),
//! ));
//! for r in results {
//!     assert_eq!(r?, 30.0);
//! }
//! assert!(gateway.stats().groups > 0);
//! # Ok(())
//! # }
//! ```

mod gateway;
mod plan;
mod session;

pub use gateway::{ExecFuture, Gateway, GatewayHost, GatewayStats};
pub use pim_telemetry::{MetricsSnapshot, RequestId, RequestStats, Telemetry};
pub use plan::RequestPlan;
pub use session::ClusterClient;

use pypim_core::Device;

/// Maximum client batches coalesced into one submission (at most one per
/// session — fairness is round-robin).
const MAX_COALESCE: usize = 8;

/// Tuning of the gateway's admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Warp-window size reserved per session; `0` sizes windows to an
    /// eighth of the device's warp space.
    pub session_warps: u32,
    /// Maximum batches waiting in one session queue; further admissions
    /// fail fast with [`pypim_core::CoreError::Overloaded`]. `0` means
    /// unbounded.
    pub max_queue_depth: usize,
    /// Times a batch that failed with a *transient* error (shard crash,
    /// link fault — see [`pypim_core::ErrorClass::Transient`]) is retried
    /// before the error surfaces to the client.
    pub max_retries: u32,
    /// Modeled-cycle backoff charged before a retry; the `n`-th retry
    /// advances the modeled clock by `retry_backoff_cycles << n`. No
    /// wall-clock time is spent.
    pub retry_backoff_cycles: u64,
    /// Default per-batch deadline in modeled cycles from admission;
    /// batches still queued (or completing) past it resolve with
    /// [`pypim_core::CoreError::DeadlineExceeded`]. `0` disables
    /// deadlines.
    pub deadline_cycles: u64,
    /// When the warp space is exhausted, evict the least-recently-active
    /// session (its pending batches fail with
    /// [`pypim_core::CoreError::Evicted`]) instead of refusing the new
    /// session.
    pub evict_on_pressure: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            session_warps: 0,
            max_queue_depth: 64,
            max_retries: 2,
            retry_backoff_cycles: 1_000,
            deadline_cycles: 0,
            evict_on_pressure: false,
        }
    }
}

/// Extension hanging the serving entry point off [`Device`] — `dev.serve(…)`
/// builds the gateway (the trait exists because `Gateway` lives above the
/// tensor library in the crate graph).
pub trait DeviceServeExt {
    /// Builds a serving gateway over this device.
    fn serve(&self, cfg: ServeConfig) -> Gateway;
}

impl DeviceServeExt for Device {
    fn serve(&self, cfg: ServeConfig) -> Gateway {
        Gateway::new(self.clone(), cfg)
    }
}
