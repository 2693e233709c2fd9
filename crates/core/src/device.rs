use crate::alloc::{MemoryManager, PlacementHint, Stripe};
use crate::tensor::{AllocGuard, Tensor};
use crate::{CoreError, Result};
use parking_lot::Mutex;
use pim_arch::PimConfig;
use pim_cluster::{
    ClusterOptions, ClusterStats, GlobalWrite, JobSet, PimCluster, RecoveryConfig, TaggedBatch,
};
use pim_driver::ParallelismMode;
use pim_func::BackendKind;
use pim_isa::{DType, Instruction};
use pim_sim::Profiler;
use pim_telemetry::{MetricsSnapshot, MetricsSource, Telemetry};
use std::sync::Arc;

pub(crate) struct DeviceInner {
    /// The one execution engine, and the owner of the device's geometry and
    /// telemetry handle: a single chip is a 1-shard cluster.
    pub(crate) cluster: PimCluster,
    pub(crate) mem: Mutex<MemoryManager>,
}

/// The outcome of a non-read instruction batch run through
/// [`Device::submit_instrs`]: the batch has executed by the time the
/// ticket exists, and [`wait`](StepTicket::wait) reports its first shard
/// error.
#[derive(Debug)]
#[must_use = "a batch's shard errors surface only through `wait`"]
pub struct StepTicket(JobSet);

impl StepTicket {
    /// The batch's outcome.
    ///
    /// # Errors
    ///
    /// Returns the first shard error.
    pub fn wait(self) -> Result<()> {
        Ok(self.0.wait()?)
    }
}

/// A handle to a PIM memory: the entry point of the development library
/// (§V-A), owning the host driver, the simulated chip behind it, and the
/// dynamic memory manager.
///
/// There is one road from a tensor operation to a chip: every device is a
/// [`PimCluster`], whose jobs run on the calling thread and complete when
/// the call returns. [`Device::new`] and its `with_*` siblings build one
/// shard with no recovery journal; [`Device::cluster`] builds `N` shards
/// that a crash cannot take down for good. So on a single chip too,
/// [`Device::cluster_stats`] is `Some`, [`Device::metrics_snapshot`]
/// carries `cluster.*`, the trace track is `shard-0`, every submission
/// (uploads and read-backs included) records an `exec` span and advances
/// the modeled clock while telemetry records, and a chip-level failure is a
/// [`CoreError::Cluster`].
///
/// Cloning is cheap (shared handle). Tensors keep their device alive.
///
/// # Example
///
/// ```
/// use pypim_core::Device;
/// use pim_arch::PimConfig;
///
/// # fn main() -> pypim_core::Result<()> {
/// let dev = Device::new(PimConfig::small())?;
/// let x = dev.from_slice_f32(&[1.0, 2.5, -3.0])?;
/// let y = dev.full_f32(3, 2.0)?;
/// let z = (&x * &y)?;
/// assert_eq!(z.to_vec_f32()?, vec![2.0, 5.0, -6.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
    /// Default placement window of allocations made through this handle —
    /// `None` for the plain device, set on session handles produced by
    /// [`Device::with_placement`]. Cloning a handle keeps its placement, so
    /// tensors created through a session handle allocate their temporaries
    /// in the session's window too.
    placement: Option<PlacementHint>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("config", self.config())
            .field("placement", &self.placement)
            .finish()
    }
}

impl Device {
    /// Creates a device simulating a PIM memory with geometry `cfg`, using
    /// the default (partition-parallel) driver mode.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation.
    pub fn new(cfg: PimConfig) -> Result<Self> {
        Device::with_mode(cfg, ParallelismMode::default())
    }

    /// Creates a device with an explicit driver parallelism mode: one
    /// chip, recovery off.
    ///
    /// # Errors
    ///
    /// Returns an error ([`CoreError::Cluster`]) if `cfg` fails validation.
    pub fn with_mode(cfg: PimConfig, mode: ParallelismMode) -> Result<Self> {
        let options = ClusterOptions {
            mode,
            recovery: RecoveryConfig { enabled: false },
            ..ClusterOptions::default()
        };
        Ok(Device::over(PimCluster::with_options(cfg, 1, options)?))
    }

    /// [`Device::new`]; `kind` selects nothing. Spelt by
    /// `benchmark/src/workload/{serve,loadgen}.rs`.
    ///
    /// # Errors
    ///
    /// See [`Device::with_mode`].
    pub fn with_backend(cfg: PimConfig, _kind: BackendKind) -> Result<Self> {
        Device::new(cfg)
    }

    /// [`Device::with_mode`]; `kind` selects nothing. Spelt by
    /// `benchmark/src/workload/{serve,tensor}.rs`.
    ///
    /// # Errors
    ///
    /// See [`Device::with_mode`].
    pub fn with_backend_mode(
        cfg: PimConfig,
        _kind: BackendKind,
        mode: ParallelismMode,
    ) -> Result<Self> {
        Device::with_mode(cfg, mode)
    }

    /// Creates a device backed by a sharded multi-chip cluster: `shards`
    /// simulated chips of geometry `cfg`, presented as one memory with
    /// `shards × cfg.crossbars` warps. Every tensor program runs unchanged
    /// — and bit-identically — on 1 or N chips; element-parallel work fans
    /// out as one job per shard, the shards' cycles overlapping on the
    /// modeled clock. Recovery is on: a crashed shard is revived from its
    /// journal by its next job.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails validation or `shards` is zero.
    pub fn cluster(cfg: PimConfig, shards: usize) -> Result<Self> {
        Device::cluster_with_options(cfg, shards, ClusterOptions::default())
    }

    /// Creates a cluster-backed device from a full [`ClusterOptions`]
    /// bundle — the constructor that exposes the driver parallelism mode,
    /// the chip-to-chip interconnect model (its link width/latency set the
    /// modeled cycle cost of cross-chip transfers, surfaced through
    /// [`Device::cluster_stats`] as [`ClusterStats::traffic`]), crash
    /// recovery ([`pim_cluster::RecoveryConfig`]) and deterministic fault
    /// injection (`ClusterOptions::fault`).
    /// The options' telemetry handle is replaced by the device's own (the
    /// device owns the unified modeled-clock/metrics surface).
    ///
    /// # Errors
    ///
    /// See [`cluster`](Device::cluster); additionally fails for an unusable
    /// interconnect model (e.g. a zero-width link).
    pub fn cluster_with_options(
        cfg: PimConfig,
        shards: usize,
        options: ClusterOptions,
    ) -> Result<Self> {
        let cluster = PimCluster::with_options(
            cfg,
            shards,
            ClusterOptions {
                telemetry: Telemetry::disabled(),
                ..options
            },
        )?;
        Ok(Device::over(cluster))
    }

    /// The device over `cluster`. The allocator places by the cluster's
    /// shard geometry: stripes that fit one chip get chip-local placement,
    /// so small tensors' operations never touch the interconnect.
    fn over(cluster: PimCluster) -> Self {
        let mem = MemoryManager::new(*cluster.plan(), cluster.logical_config().user_regs);
        Device {
            inner: Arc::new(DeviceInner {
                cluster,
                mem: Mutex::new(mem),
            }),
            placement: None,
        }
    }

    /// The device's telemetry handle: the modeled-clock trace recorder plus
    /// the metrics registry. Disabled — zero-cost and bit-identical — by
    /// default; flip on with [`Telemetry::set_enabled`]. The handle is
    /// shared with the device's shards, so enabling it here starts
    /// recording per-shard execution spans (`shard-{i}` tracks) and
    /// interconnect bursts.
    pub fn telemetry(&self) -> &Telemetry {
        self.inner.cluster.telemetry()
    }

    /// One unified [`MetricsSnapshot`] across every layer this device owns:
    /// the telemetry registry's instruments (e.g. the serving gateway's
    /// `serve.*` histograms) plus the simulator profiler (`sim.*`), the
    /// cluster and interconnect counters (`cluster.*`, one shard for a
    /// single chip) and the fault injector's (`fault.*`) when one is
    /// installed.
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived (see [`Device::cluster_stats`]).
    pub fn metrics_snapshot(&self) -> Result<MetricsSnapshot> {
        let cluster = &self.inner.cluster;
        let mut snap = cluster.telemetry().metrics().snapshot();
        cluster.stats()?.fill_metrics(&mut snap);
        if let Some(inj) = cluster.fault_injector() {
            inj.fill_metrics(&mut snap);
        }
        Ok(snap)
    }

    /// The device geometry (for a cluster: the aggregate geometry across
    /// all shards).
    pub fn config(&self) -> &PimConfig {
        self.inner.cluster.logical_config()
    }

    /// Number of chips backing this device (1 unless built with
    /// [`Device::cluster`]).
    pub fn shards(&self) -> usize {
        self.inner.cluster.shards()
    }

    /// Per-shard telemetry — always `Some`: a single-chip device reports
    /// its one shard. Includes the interconnect's traffic counters
    /// ([`ClusterStats::traffic`]): cross-chip messages/words, modeled link
    /// cycles, barriers hit and shard queues drained (all zero on one
    /// chip).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure ([`CoreError::Cluster`], classified by
    /// [`CoreError::class`]) if a shard crashed and could not be
    /// revived — zeroed telemetry would silently misreport a broken
    /// cluster.
    pub fn cluster_stats(&self) -> Result<Option<ClusterStats>> {
        Ok(Some(self.inner.cluster.stats()?))
    }

    /// Whether two handles refer to the same device.
    pub fn same_device(&self, other: &Device) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Reserves a warp window for one client session (see
    /// [`MemoryManager::reserve_window`]): disjoint from every other active
    /// reservation and avoided by unhinted allocations while it lasts.
    /// Pair with [`Device::with_placement`] to get a session handle whose
    /// allocations are confined to the window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no disjoint window is left.
    pub fn reserve_placement(&self, warps: u32) -> Result<PlacementHint> {
        self.inner.mem.lock().reserve_window(warps)
    }

    /// Releases a window reservation made by
    /// [`reserve_placement`](Device::reserve_placement). Tensors allocated
    /// inside it stay valid; only the headroom claim ends.
    pub fn release_placement(&self, window: PlacementHint) {
        self.inner.mem.lock().release_window(window);
    }

    /// A handle onto the same device whose allocations prefer `window` —
    /// the per-client placement of the serving gateway. Tensors created
    /// through the returned handle (and their operation results and
    /// temporaries) allocate inside the window while it has space.
    pub fn with_placement(&self, window: PlacementHint) -> Device {
        Device {
            inner: Arc::clone(&self.inner),
            placement: Some(window),
        }
    }

    /// The placement window of this handle, if any.
    pub fn placement(&self) -> Option<PlacementHint> {
        self.placement
    }

    /// Snapshot of the simulator's profiling counters (cycles,
    /// micro-operation counts) — the paper's `pim.Profiler()` facility.
    ///
    /// For a cluster, operation/gate counters are summed across shards and
    /// `cycles` is the busiest shard (chips run concurrently, so that is
    /// the wall-clock latency); see [`Device::cluster_stats`] for the
    /// per-shard breakdown.
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived (see [`Device::cluster_stats`]).
    pub fn profiler(&self) -> Result<Profiler> {
        Ok(self.inner.cluster.stats()?.merged_profiler())
    }

    /// PIM cycles consumed so far.
    ///
    /// # Errors
    ///
    /// See [`profiler`](Device::profiler).
    pub fn cycles(&self) -> Result<u64> {
        Ok(self.profiler()?.cycles)
    }

    /// Routine-cache statistics `(hits, misses)` of the host driver (for a
    /// cluster: summed over the per-shard drivers).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived (see [`Device::cluster_stats`]).
    pub fn cache_stats(&self) -> Result<(u64, u64)> {
        Ok(self.inner.cluster.stats()?.cache_stats())
    }

    /// Driver-issued cycle counters (logic vs total) — the theoretical-PIM
    /// baseline of everything executed so far (for a cluster: summed over
    /// shards).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived (see [`Device::cluster_stats`]).
    pub fn issued(&self) -> Result<pim_driver::IssuedCycles> {
        Ok(self.inner.cluster.stats()?.issued())
    }

    /// Starts a measurement region: resets the simulator profiler, the
    /// routine-cache hit/miss telemetry (compiled routines are kept — a
    /// fresh region should not pay recompilation), the driver's
    /// issued-cycle counters and the interconnect's traffic counters
    /// ([`PimCluster::reset_counters`]).
    ///
    /// # Errors
    ///
    /// Returns the shard's failure if a shard crashed and could not be
    /// revived.
    pub fn reset_counters(&self) -> Result<()> {
        Ok(self.inner.cluster.reset_counters()?)
    }

    /// Executes one macro-instruction on the device.
    pub(crate) fn exec(&self, instr: &Instruction) -> Result<Option<u32>> {
        Ok(self.inner.cluster.execute(instr)?)
    }

    /// Executes a sequence of non-read macro-instructions: the whole batch
    /// is split per shard up front, one job per shard between cross-chip
    /// barriers.
    pub(crate) fn exec_batch(&self, instrs: &[Instruction]) -> Result<()> {
        Ok(self.inner.cluster.execute_batch(instrs)?)
    }

    /// Reads many `(warp, row, register)` locations, returning values in
    /// input order — one job per involved shard.
    ///
    /// # Errors
    ///
    /// Returns addressing and shard errors.
    pub fn read_many(&self, locs: &[(u32, u32, u8)]) -> Result<Vec<u32>> {
        Ok(self.inner.cluster.gather(locs)?)
    }

    /// Writes many [`GlobalWrite`] cells — one job per involved shard.
    pub(crate) fn write_many(&self, writes: &[GlobalWrite]) -> Result<()> {
        Ok(self.inner.cluster.scatter(writes)?)
    }

    /// Runs a batch of non-read macro-instructions: the batch splits into
    /// one job per involved shard (more across chip-crossing moves, which
    /// the host stages behind scheduler barriers), and every job has run
    /// when the call returns. The returned [`StepTicket`] holds the first
    /// shard error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] for read instructions, plus
    /// validation errors and shards that cannot take a job.
    pub fn submit_instrs(&self, instrs: &[Instruction]) -> Result<StepTicket> {
        refuse_reads(instrs)?;
        Ok(StepTicket(self.inner.cluster.submit_batch(instrs)?))
    }

    /// Runs request-tagged instruction batches — the attribution-aware
    /// variant of [`submit_instrs`](Device::submit_instrs) that the
    /// serving gateway runs a coalesced group through. Each
    /// [`TaggedBatch`] carries the
    /// [`RequestId`](pim_telemetry::RequestId) its modeled cycles,
    /// instruction counts, cross-chip words and trace spans are attributed
    /// to; execution results are bit-identical to running the
    /// concatenated instructions untagged, whether or not telemetry is
    /// recording.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Protocol`] for read instructions, plus
    /// validation and shard errors.
    pub fn exec_tagged(&self, batches: &[TaggedBatch]) -> Result<()> {
        refuse_reads(batches.iter().flat_map(|b| b.instrs.iter()))?;
        Ok(self.inner.cluster.submit_batch_tagged(batches)?.wait()?)
    }

    /// Allocates an uninitialized tensor of `capacity` elements (rounded up
    /// to whole warps), optionally thread-aligned with `near`.
    pub(crate) fn empty(
        &self,
        capacity: usize,
        dtype: DType,
        near: Option<Stripe>,
    ) -> Result<Tensor> {
        if capacity == 0 {
            return Err(CoreError::InvalidSlice {
                what: "zero-length tensor".into(),
            });
        }
        let rows = self.config().rows;
        let warps = capacity.div_ceil(rows) as u32;
        let stripe = self.inner.mem.lock().alloc(warps, near, self.placement)?;
        Ok(Tensor::from_stripe(
            Arc::new(AllocGuard {
                stripe,
                device: self.clone(),
            }),
            dtype,
            capacity,
        ))
    }

    /// Allocates a tensor occupying exactly the warp window of `like` on a
    /// fresh register (the fallback-copy/allocation-alignment path).
    pub(crate) fn empty_like_window(
        &self,
        like: Stripe,
        dtype: DType,
        len: usize,
    ) -> Result<Tensor> {
        let stripe = self.inner.mem.lock().alloc_like(like)?;
        Ok(Tensor::from_stripe(
            Arc::new(AllocGuard {
                stripe,
                device: self.clone(),
            }),
            dtype,
            len,
        ))
    }

    /// Allocates a tensor of `n` elements with *undefined contents* —
    /// callers that plan their own initialization (the async serving path
    /// batches the fill/store instructions with the rest of a request)
    /// write every element before reading any.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn uninit(&self, n: usize, dtype: DType) -> Result<Tensor> {
        self.empty(n, dtype, None)
    }

    /// A tensor of `n` zeros (float32) — `pim.zeros(n, dtype=pim.float32)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn zeros_f32(&self, n: usize) -> Result<Tensor> {
        self.step(|p| p.full_f32(n, 0.0))
    }

    /// A tensor of `n` zeros (int32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn zeros_i32(&self, n: usize) -> Result<Tensor> {
        self.step(|p| p.full_i32(n, 0))
    }

    /// A tensor of `n` copies of `value` (float32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn full_f32(&self, n: usize, value: f32) -> Result<Tensor> {
        self.step(|p| p.full_f32(n, value))
    }

    /// A tensor of `n` copies of `value` (int32).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free.
    pub fn full_i32(&self, n: usize, value: i32) -> Result<Tensor> {
        self.step(|p| p.full_i32(n, value))
    }

    /// A tensor initialized from a float slice — `pim.from_numpy`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfMemory`] when no stripe is free or
    /// [`CoreError::InvalidSlice`] for empty input.
    pub fn from_slice_f32(&self, data: &[f32]) -> Result<Tensor> {
        let t = self.empty(data.len(), DType::Float32, None)?;
        t.store_raw(data.iter().map(|v| v.to_bits()))?;
        Ok(t)
    }

    /// A tensor initialized from an int slice.
    ///
    /// # Errors
    ///
    /// See [`from_slice_f32`](Device::from_slice_f32).
    pub fn from_slice_i32(&self, data: &[i32]) -> Result<Tensor> {
        let t = self.empty(data.len(), DType::Int32, None)?;
        t.store_raw(data.iter().map(|v| *v as u32))?;
        Ok(t)
    }

    /// `[0, 1, 2, …, n)` as int32 — used by index-dependent algorithms
    /// (e.g. the bitonic sorting network's direction masks).
    ///
    /// # Errors
    ///
    /// See [`from_slice_f32`](Device::from_slice_f32).
    pub fn arange_i32(&self, n: usize) -> Result<Tensor> {
        let t = self.empty(n, DType::Int32, None)?;
        t.store_raw((0..n).map(|i| i as u32))?;
        Ok(t)
    }
}

/// Reads return data and have their own entry point.
fn refuse_reads<'a>(instrs: impl IntoIterator<Item = &'a Instruction>) -> Result<()> {
    if instrs
        .into_iter()
        .any(|i| matches!(i, Instruction::Read { .. }))
    {
        return Err(CoreError::Protocol {
            reason: "read instructions return data and cannot be batched \
                     (use read_many)"
                .into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let d = Device::new(PimConfig::small()).unwrap();
        assert_eq!(d.config().crossbars, 16);
        assert!(d.same_device(&d.clone()));
        let other = Device::new(PimConfig::small()).unwrap();
        assert!(!d.same_device(&other));

        let z = d.zeros_i32(10).unwrap();
        assert_eq!(z.to_vec_i32().unwrap(), vec![0; 10]);
        let f = d.full_f32(3, -1.5).unwrap();
        assert_eq!(f.to_vec_f32().unwrap(), vec![-1.5; 3]);
        let a = d.arange_i32(5).unwrap();
        assert_eq!(a.to_vec_i32().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_length_allocation_fails() {
        let d = Device::new(PimConfig::small()).unwrap();
        assert!(d.zeros_f32(0).is_err());
        assert!(d.from_slice_i32(&[]).is_err());
    }

    #[test]
    fn counters_reset_together() {
        let d = Device::new(PimConfig::small()).unwrap();
        let _ = d.full_i32(4, 3).unwrap();
        assert!(d.cycles().unwrap() > 0);
        d.reset_counters().unwrap();
        assert_eq!(d.cycles().unwrap(), 0);
        assert_eq!(d.issued().unwrap().total, 0);
    }

    #[test]
    fn functional_backend_matches_bit_accurate() {
        let sim = Device::new(PimConfig::small()).unwrap();
        let func = Device::with_backend(PimConfig::small(), BackendKind::Functional).unwrap();
        let data = [7, -3, 0, 1_000_000, -42];
        let (a, b) = (
            sim.from_slice_i32(&data).unwrap(),
            func.from_slice_i32(&data).unwrap(),
        );
        let (sa, sb) = ((&a + &a).unwrap(), (&b + &b).unwrap());
        assert_eq!(sa.to_vec_i32().unwrap(), sb.to_vec_i32().unwrap());
        assert_eq!(sim.cycles().unwrap(), func.cycles().unwrap());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = PimConfig::small();
        cfg.partitions = 8;
        let err = Device::new(cfg).unwrap_err();
        // Refused by the one-shard cluster under the device; still fatal.
        assert!(matches!(err, CoreError::Cluster(_)), "{err:?}");
        assert_eq!(err.class(), pim_cluster::ErrorClass::Fatal);
    }

    #[test]
    fn a_single_chip_is_a_one_shard_cluster() {
        let d = Device::new(PimConfig::small()).unwrap();
        d.telemetry().set_enabled(true);
        // An untagged fill and an upload: both reach the chip as cluster
        // jobs, so both record `exec` spans on `shard-0` and move the
        // modeled clock, exactly as on a `Device::cluster` device.
        let _ = d.full_i32(4, 3).unwrap();
        let after_fill = d.telemetry().now();
        assert!(after_fill > 0);
        let _ = d.from_slice_i32(&[1, 2, 3]).unwrap();
        assert!(d.telemetry().now() > after_fill);
        let tracks = d.telemetry().recorder().tracks();
        let names: Vec<&str> = tracks.iter().map(|(name, ..)| name.as_str()).collect();
        assert_eq!(names, ["shard-0", "cluster/interconnect"]);
        assert_eq!(tracks[0].1.len(), 2, "one exec span per submission");

        assert_eq!(d.cluster_stats().unwrap().unwrap().shards.len(), 1);
        let metrics = d.metrics_snapshot().unwrap().to_json();
        assert!(metrics.contains("\"cluster.shards\""), "{metrics}");
    }
}
