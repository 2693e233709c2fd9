//! # pypim-core
//!
//! The PIM development library (§V-A of the PyPIM paper): NumPy-like
//! tensors whose element-parallel operations execute *inside* a simulated
//! digital memristive PIM memory.
//!
//! The stack underneath: tensor calls become ISA macro-instructions
//! (`pim-isa`), the host driver (`pim-driver`) lowers them to gate-level
//! micro-operation sequences, and the bit-accurate simulator (`pim-sim`)
//! plays the role of the PIM chip. There is one road down: every [`Device`]
//! submits to a `pim-cluster` `PimCluster` — one shard for [`Device::new`],
//! `N` for [`Device::cluster`], every job run on the calling thread. The
//! library adds what the paper's
//! Python layer adds: dynamic warp-aligned memory management, tensor views
//! (`x[::2]`) that map onto the microarchitecture's range masks, automatic
//! move-based operand alignment, logarithmic reduction, bitonic sorting,
//! and CORDIC trigonometry.
//!
//! # Example (the paper's Figure 12 program)
//!
//! ```
//! use pypim_core::Device;
//! use pim_arch::PimConfig;
//!
//! fn my_func(a: &pypim_core::Tensor, b: &pypim_core::Tensor)
//!     -> pypim_core::Result<pypim_core::Tensor>
//! {
//!     (&(a * b)? + a)? .into()
//! }
//!
//! # fn main() -> pypim_core::Result<()> {
//! let dev = Device::new(PimConfig::small())?;
//! let mut x = dev.zeros_f32(64)?;
//! let mut y = dev.zeros_f32(64)?;
//! x.set_f32(4, 8.0)?;  y.set_f32(4, 0.5)?;
//! x.set_f32(5, 20.0)?; y.set_f32(5, 1.0)?;
//! x.set_f32(8, 10.0)?; y.set_f32(8, 1.0)?;
//! let z = my_func(&x, &y)?;
//! assert_eq!(z.slice_step(0, 64, 2)?.sum_f32()?, 32.0);
//! # Ok(())
//! # }
//! ```

mod alloc;
mod cordic;
mod device;
mod error;
mod minmax;
mod movement;
mod ops;
mod plan;
mod reduce;
mod scan;
mod sort;
mod tensor;

pub use alloc::{MemoryManager, PlacementHint, Stripe};
pub use cordic::CORDIC_ITERS;
pub use device::{Device, StepTicket};
pub use error::{CoreError, Result};
pub use movement::{compact_with_padding, copy, exchange, materialize_like, plan_copy, shifted};
pub use pim_cluster::{
    ClusterOptions, ErrorClass, FaultInjector, FaultPlan, FaultProfile, HostFault, HostFaultPlan,
    HostFaultProfile, LinkFaultKind, LinkWindow, RecoveryConfig, ShardBackends,
};
pub use pim_func::BackendKind;
pub use plan::{identity_bits, Plan};
pub use tensor::Tensor;

pub use pim_cluster::TaggedBatch;
pub use pim_driver::ParallelismMode;
pub use pim_isa::{DType, RegOp};
pub use pim_telemetry::{
    MetricsSnapshot, MetricsSource, RequestId, RequestStats, Telemetry, TelemetryConfig,
};

impl From<Tensor> for Result<Tensor> {
    fn from(t: Tensor) -> Self {
        Ok(t)
    }
}
