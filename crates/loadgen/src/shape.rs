//! Request shapes: per-class instruction templates built **once** per
//! session and replayed by cloning — injection allocates nothing on the
//! device and never waits, which is what keeps the generator open-loop.
//!
//! Every template is write-only from the device's perspective (fills,
//! stores, element-parallel ops into planned output stripes), so replays
//! of the same template — and even interleaved replays of *different*
//! templates in one session — are safe: each replay writes the same
//! stripes, the gateway's per-session FIFO keeps replays in admission
//! order, and execution timing is value-independent, so reusing output
//! stripes across in-flight replays does not perturb the latencies being
//! measured. The template pins its planned tensors alive (`_live`) so the
//! allocator cannot recycle those stripes for anything else.

use pim_isa::{DType, Instruction, RegOp};
use pim_serve::ClusterClient;
use pypim_core::{Result, Tensor};

/// Which kind of request a traffic class issues. The shapes stress
/// different parts of the stack: pure element-parallel work, fused
/// multi-op pipelines, logarithmic reductions, and partition-crossing
/// movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestShape {
    /// Two fills plus one element-parallel add — the minimal
    /// compute-dense request.
    Elementwise,
    /// A fused pipeline (two fills, a multiply, an add) built through
    /// [`pim_serve::RequestPlan`] — one coalescable batch per request.
    Fused,
    /// Fill plus a full logarithmic reduction — long dependent
    /// instruction chains on one session stream.
    Reduction,
    /// Fill plus a lower-to-upper-half copy across the tensor — movement
    /// heavy, exercising crossing paths where the layout has them.
    CrossingHeavy,
}

impl RequestShape {
    /// Stable lowercase name (used in reports and window tables).
    pub fn name(self) -> &'static str {
        match self {
            RequestShape::Elementwise => "elementwise",
            RequestShape::Fused => "fused",
            RequestShape::Reduction => "reduction",
            RequestShape::CrossingHeavy => "crossing",
        }
    }
}

/// A prebuilt instruction batch for one (session, class) pair. Cloning
/// [`instrs`](Template::instrs) is the entire per-arrival cost.
pub struct Template {
    /// The replayable batch.
    pub instrs: Vec<Instruction>,
    /// Tensors the batch writes; held so their stripes stay reserved for
    /// the template's lifetime.
    _live: Vec<Tensor>,
}

impl Template {
    /// Builds the template for `shape` over `elems`-element tensors,
    /// allocating in `client`'s session window.
    ///
    /// # Errors
    ///
    /// Fails on allocation/planning errors (e.g. a session window too
    /// small for the shape's tensors).
    pub fn build(client: &ClusterClient, shape: RequestShape, elems: usize) -> Result<Template> {
        match shape {
            RequestShape::Elementwise => {
                let mut plan = client.plan();
                let x = plan.full_i32(elems, 3)?;
                let y = plan.full_i32(elems, 4)?;
                let out = plan.add(&x, &y)?;
                Ok(Template {
                    instrs: plan.into_instrs(),
                    _live: vec![x, y, out],
                })
            }
            RequestShape::Fused => {
                let mut plan = client.plan();
                let a = plan.full_i32(elems, 3)?;
                let b = plan.full_i32(elems, 5)?;
                let ab = plan.mul(&a, &b)?;
                let out = plan.add(&ab, &a)?;
                Ok(Template {
                    instrs: plan.into_instrs(),
                    _live: vec![a, b, ab, out],
                })
            }
            RequestShape::Reduction => {
                let mut plan = client.plan();
                let t = plan.full_i32(elems, 2)?;
                let total = plan.reduce(&t, RegOp::Add)?;
                Ok(Template {
                    instrs: plan.into_instrs(),
                    _live: vec![t, total],
                })
            }
            RequestShape::CrossingHeavy => {
                // A tensor twice the class size; fill the lower half and
                // copy it into the upper — on multi-chip layouts the copy
                // crosses partitions. Layouts with no planned move for
                // the copy fall back to fill-only (still a valid, lighter
                // request; the class name keeps reports honest).
                let t = client.device().uninit(elems * 2, DType::Int32)?;
                let lo = t.slice(0, elems)?;
                let hi = t.slice(elems, elems * 2)?;
                let mut plan = client.plan();
                plan.fill(&lo, 9);
                if !plan.copy(&lo, &hi)? {
                    plan.fill(&hi, 9);
                }
                Ok(Template {
                    instrs: plan.into_instrs(),
                    _live: vec![t],
                })
            }
        }
    }

    /// Instructions per replay.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the template is empty (never true for built shapes).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}
