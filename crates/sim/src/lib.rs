//! # pim-sim
//!
//! A bit-accurate simulator for the PyPIM digital PIM microarchitecture — a
//! drop-in replacement for a physical chip (§VI of the paper). The simulator
//! interacts with the host driver *only* through the micro-operation
//! interface ([`pim_arch::Backend`]), models every operation cycle-by-cycle,
//! and keeps profiling metrics (micro-operation counts per type, which are
//! cycle counts under the 1-op/cycle model).
//!
//! The paper accelerates its simulator on a GPU with two optimizations; this
//! CPU reproduction keeps their purpose and changes their form:
//!
//! * **Memory**: the paper condenses a row into 32-bit words (word `k` of a
//!   row *is* register `k`, bit `p` its partition `p`), which suits a GPU
//!   that gives every row a thread. The workloads the paper reports
//!   (Figure 13, Table II) are bit-serial, though — almost every
//!   micro-operation is one gate on one column — and in that format such a
//!   gate reads three words and rewrites one per row to change one bit of
//!   it. Here the chip is stored the way it is built: **one bit plane per
//!   column (bitline)**, one bit per row, 64 rows to a `u64`, in a single
//!   chip-wide image `planes[reg · 32 + part][crossbar][row / 64]`
//!   ([`Crossbars`]). A bit-serial gate on 512 rows touches 8 words per
//!   crossbar instead of 512; a partition-parallel gate touches the same
//!   number of bits in either format. Word-granular operations (`Write`,
//!   `Read`, `Move`, vertical gates) cross the layout: one word is one bit
//!   in each of a register's 32 planes. Alone, such an operation gathers or
//!   scatters 32 plane words. In a tensor program they come in **runs**,
//!   and a run has a block form: an upload or a read-back arrives as one
//!   ([`access`](pim_arch::Backend::access)) and is checked whole, charged
//!   in closed form and applied one plane word at a time, 64 rows to a
//!   64 x 64 bit-matrix transpose between word format and planes; a row
//!   move arrives as one ([`move_rows`](pim_arch::Backend::move_rows)) and
//!   is checked once, charged in closed form and applied as one pass per
//!   register plane instead of its `pairs + 9` or more micro-operations;
//!   moves whose rows advance by one, found inside
//!   [`execute_batch`](pim_arch::Backend::execute_batch), are one masked
//!   plane copy. A lone operation takes the per-operation path; cells,
//!   masks, profiler and errors are the same either way.
//! * **Logic**: every horizontal gate, under every mask, is one `NOT`/`NOR`
//!   body — `out[w] &= !((a[w] | b[w]) & m[w])` over the plane words of
//!   each concurrent gate. The stored masks are lowered once per mask
//!   operation into word spans plus a row bit pattern ([`Selection`]); a
//!   strided row mask is only a different pattern, and a dense crossbar
//!   mask over whole crossbars is one contiguous span, so a whole-tensor
//!   gate is a flat loop LLVM autovectorizes — the host exploits the
//!   row-parallelism the chip executes in a single cycle. A cached routine
//!   ([`execute_prepared`](pim_arch::Backend::execute_prepared)) carries its
//!   gates resolved into planes ([`pim_arch::ReplayRecord`]): its replay is
//!   one closed-form charge, one lowered selection and
//!   [`Crossbars::replay_plain`], which matches the span width once per run
//!   of proved single gates rather than once per gate (FP mul: 3.9 ns a gate
//!   on one plane word, 6.5 ns on `serve_fused`'s two-crossbar window, 71 ns
//!   on 16 x 512; 6.6, 11.2 and 81 ns with a dispatch per record). Every
//!   other path lands in the same body through [`Crossbars::apply_gate`].
//!   Operations execute one after another on the calling thread, over the
//!   selected crossbars only: with so little data per operation a thread
//!   hand-off would cost more than the operation (the paper's CUDA kernel
//!   has no CPU counterpart here).
//!
//! A *strict mode* (default on) additionally checks the stateful-logic
//! discipline: every `NOT`/`NOR` output cell must hold logical 1 when the
//! gate fires, catching missing initializations in driver routines. The
//! check runs before the gate changes anything, whatever the masks: a
//! refused gate leaves the cells untouched and names the lowest offending
//! row. In a prepared batch a check is *proved* rather than run wherever
//! the batch itself discharges it — the gate's output planes were set by an
//! `INIT1` of the same batch and nothing wrote them since
//! ([`ReplayRecord::armed`](pim_arch::ReplayRecord::armed)); that is every
//! gate of every routine the driver compiles, so strict replay of a routine
//! scans nothing, and every unproved gate is still scanned.
//!
//! # Example
//!
//! ```
//! use pim_arch::{Backend, GateKind, HLogic, MicroOp, PimConfig, RangeMask};
//! use pim_sim::PimSimulator;
//!
//! let cfg = PimConfig::small();
//! let mut sim = PimSimulator::new(cfg.clone())?;
//!
//! // Select crossbar 0, row 3; write 0xFFFF_FFFF to register 1.
//! sim.execute(&MicroOp::XbMask(RangeMask::single(0)))?;
//! sim.execute(&MicroOp::RowMask(RangeMask::single(3)))?;
//! sim.execute(&MicroOp::Write { index: 1, value: 0xFFFF_FFFF })?;
//!
//! // NOT register 1 into register 2 in every partition at once.
//! sim.execute(&MicroOp::LogicH(HLogic::init_reg(true, 2, &cfg)?))?;
//! sim.execute(&MicroOp::LogicH(HLogic::parallel(GateKind::Not, 1, 1, 2, &cfg)?))?;
//! assert_eq!(sim.execute(&MicroOp::Read { index: 2 })?, Some(0));
//! # Ok::<(), pim_arch::ArchError>(())
//! ```

mod cost;
mod crossbar;
mod profiler;
mod simulator;

pub use cost::{charge_batch, charge_op, charge_row_move};
pub use crossbar::{Crossbars, Selection};
pub use profiler::{OpTypeCounts, Profiler};
pub use simulator::PimSimulator;
