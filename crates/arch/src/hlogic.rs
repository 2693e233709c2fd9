use crate::{ArchError, PartId, PimConfig, RegId};
use serde::{Deserialize, Serialize};

/// The stateful-logic gate set supported in the horizontal direction
/// (§III-D2): two constant gates and the MAGIC NOT/NOR family.
///
/// `INITx` writes the constant `x` to the output column(s) without reading
/// inputs (analogous to a write). `NOT`/`NOR` can only switch an output cell
/// from logical 1 to logical 0 — the *stateful logic* discipline — so the
/// output must have been initialized to 1 beforehand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// Constant 0 (no inputs).
    Init0,
    /// Constant 1 (no inputs).
    Init1,
    /// One-input NOT: the output switches 1→0 when the input is 1.
    Not,
    /// Two-input NOR: the output switches 1→0 when either input is 1.
    Nor,
}

impl GateKind {
    /// Number of input operands read by this gate.
    #[inline]
    pub fn inputs(self) -> usize {
        match self {
            GateKind::Init0 | GateKind::Init1 => 0,
            GateKind::Not => 1,
            GateKind::Nor => 2,
        }
    }

    /// Encoding used in the 2-bit gate-type field of the wire format.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            GateKind::Init0 => 0,
            GateKind::Init1 => 1,
            GateKind::Not => 2,
            GateKind::Nor => 3,
        }
    }

    /// Decodes a 2-bit gate-type field; `None` for codes above 3 (which
    /// cannot occur in a well-formed wire word).
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => GateKind::Init0,
            1 => GateKind::Init1,
            2 => GateKind::Not,
            3 => GateKind::Nor,
            _ => return None,
        })
    }
}

/// A column address inside a crossbar row: a partition index plus the
/// intra-partition offset (which doubles as the register index under the
/// strided data format of §III-C).
///
/// The physical column index is `part * regs_per_partition + offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ColAddr {
    /// Partition index (`0..N`).
    pub part: PartId,
    /// Intra-partition offset / register index (`0..w/N`).
    pub offset: RegId,
}

impl ColAddr {
    /// Creates a column address.
    pub fn new(part: PartId, offset: RegId) -> Self {
        ColAddr { part, offset }
    }
}

/// Per-partition half-gate opcode (Table I).
///
/// Under the half-gates technique (§III-D2), each partition's column decoder
/// receives a 3-bit opcode saying which of the gate's voltage roles it
/// applies: the two input voltages (`InA`, `InB`) and the output voltage
/// (`Out`). A partition that applies only inputs "trusts" another partition
/// to apply the output voltages, and vice versa; their combination forms a
/// complete gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PartitionOpcode {
    /// This partition applies the `InA` input voltage.
    pub in_a: bool,
    /// This partition applies the `InB` input voltage.
    pub in_b: bool,
    /// This partition applies the `Out` output voltage.
    pub out: bool,
}

impl PartitionOpcode {
    /// The 3-bit index of this opcode as listed in Table I
    /// (`in_a`, `in_b`, `out` from most- to least-significant bit).
    pub fn index(self) -> u8 {
        (self.in_a as u8) << 2 | (self.in_b as u8) << 1 | self.out as u8
    }

    /// The notation used by Table I of the paper, e.g. `"(InA, ?) -> Out"`.
    /// Index 0 (`-`) means the partition does not participate at all.
    pub fn notation(self) -> &'static str {
        match self.index() {
            0 => "-",
            1 => "? -> Out",
            2 => "(?, InB) -> ?",
            3 => "(?, InB) -> Out",
            4 => "(InA, ?) -> ?",
            5 => "(InA, ?) -> Out",
            6 => "(InA, InB) -> ?",
            7 => "(InA, InB) -> Out",
            _ => unreachable!(),
        }
    }
}

/// One concrete gate obtained by expanding a periodic [`HLogic`] operation.
///
/// Fields `a` and `b` are only meaningful when [`GateKind::inputs`] says the
/// gate reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateInstance {
    /// Gate type.
    pub gate: GateKind,
    /// First input column (valid when `gate.inputs() >= 1`).
    pub a: ColAddr,
    /// Second input column (valid when `gate.inputs() == 2`).
    pub b: ColAddr,
    /// Output column.
    pub out: ColAddr,
}

/// A horizontal stateful-logic micro-operation under the restricted
/// partition model of §III-D3.
///
/// The operation describes the *leftmost* gate — input columns `in_a`,
/// `in_b` and output column `out` — plus a periodicity: the pattern repeats
/// with partition stride `p_step` until the gate whose output partition is
/// `p_end`. All concurrent gates share the same intra-partition offsets
/// (restriction 1), their opcodes repeat periodically (restriction 2), and
/// the transistor selects are derivable from the opcodes (restriction 3),
/// which this type enforces by requiring the concurrent *sections* to be
/// disjoint.
///
/// Constructors cover the three parallelism shapes of Figure 7:
/// [`serial`](HLogic::serial) (one gate), [`parallel`](HLogic::parallel)
/// (one gate in every partition), and [`strided`](HLogic::strided)
/// (semi-parallel).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HLogic {
    /// Gate type applied by every concurrent gate.
    pub gate: GateKind,
    /// First input column of the leftmost gate.
    pub in_a: ColAddr,
    /// Second input column of the leftmost gate (NOR only; `pA <= pB`).
    pub in_b: ColAddr,
    /// Output column of the leftmost gate.
    pub out: ColAddr,
    /// Output partition of the *last* concurrent gate.
    pub p_end: PartId,
    /// Partition stride between consecutive concurrent gates.
    pub p_step: u8,
}

impl HLogic {
    /// A single gate (serial parallelism, Figure 7a).
    ///
    /// For `Init*` gates the inputs are ignored and canonicalized to `out`.
    ///
    /// # Errors
    ///
    /// Returns an error if any address is out of bounds for `cfg`.
    pub fn serial(
        gate: GateKind,
        in_a: ColAddr,
        in_b: ColAddr,
        out: ColAddr,
        cfg: &PimConfig,
    ) -> Result<Self, ArchError> {
        let (in_a, in_b) = canonical_inputs(gate, in_a, in_b, out);
        let op = HLogic {
            gate,
            in_a,
            in_b,
            out,
            p_end: out.part,
            p_step: 1,
        };
        op.validate(cfg)?;
        Ok(op)
    }

    /// One gate inside *every* partition (full parallelism, Figure 7b):
    /// operands live at intra-partition offsets `off_a`, `off_b`, `off_out`
    /// of the same partition, repeated across all `N` partitions.
    ///
    /// # Errors
    ///
    /// Returns an error if any offset is out of bounds for `cfg`.
    pub fn parallel(
        gate: GateKind,
        off_a: RegId,
        off_b: RegId,
        off_out: RegId,
        cfg: &PimConfig,
    ) -> Result<Self, ArchError> {
        let out = ColAddr::new(0, off_out);
        let (in_a, in_b) =
            canonical_inputs(gate, ColAddr::new(0, off_a), ColAddr::new(0, off_b), out);
        let op = HLogic {
            gate,
            in_a,
            in_b,
            out,
            p_end: cfg.partitions as PartId - 1,
            p_step: 1,
        };
        op.validate(cfg)?;
        Ok(op)
    }

    /// General semi-parallel pattern (Figure 7c,d): the leftmost gate plus a
    /// periodic repetition ending at output partition `p_end` with stride
    /// `p_step`.
    ///
    /// # Errors
    ///
    /// Returns an error if the pattern violates the restricted partition
    /// model (overlapping sections, stride not dividing the span, addresses
    /// out of bounds, or `pA > pB` for a NOR gate).
    pub fn strided(
        gate: GateKind,
        in_a: ColAddr,
        in_b: ColAddr,
        out: ColAddr,
        p_end: PartId,
        p_step: u8,
        cfg: &PimConfig,
    ) -> Result<Self, ArchError> {
        let (in_a, in_b) = canonical_inputs(gate, in_a, in_b, out);
        let op = HLogic {
            gate,
            in_a,
            in_b,
            out,
            p_end,
            p_step,
        };
        op.validate(cfg)?;
        Ok(op)
    }

    /// Constant-initializes intra-partition offset `offset` in every
    /// partition — the whole-register INIT used pervasively by the driver to
    /// prepare stateful-logic outputs in a single micro-operation.
    ///
    /// # Errors
    ///
    /// Returns an error if `offset` is out of bounds for `cfg`.
    pub fn init_reg(value: bool, offset: RegId, cfg: &PimConfig) -> Result<Self, ArchError> {
        let gate = if value {
            GateKind::Init1
        } else {
            GateKind::Init0
        };
        HLogic::parallel(gate, offset, offset, offset, cfg)
    }

    /// Number of concurrent gates performed by this operation. A serial or
    /// partition-parallel operation (`p_step == 1`, nearly every one a
    /// routine holds) is counted without the division.
    #[inline]
    pub fn gate_count(&self) -> u64 {
        let span = (self.p_end - self.out.part) as u64;
        1 + if self.p_step == 1 {
            span
        } else {
            span / self.p_step as u64
        }
    }

    /// Validates the operation against the restricted partition model and
    /// the geometry of `cfg`.
    ///
    /// # Errors
    ///
    /// See [`HLogic::strided`].
    pub fn validate(&self, cfg: &PimConfig) -> Result<(), ArchError> {
        let n = cfg.partitions as u32;
        let regs = cfg.regs as u32;
        let bad = |reason: String| Err(ArchError::InvalidPartitionPattern { reason });

        if self.p_step == 0 {
            return bad("p_step must be nonzero".into());
        }
        if (self.out.part as u32) >= n {
            return Err(ArchError::AddressOutOfBounds {
                what: "partition",
                value: self.out.part as u64,
                bound: n as u64,
            });
        }
        if (self.out.offset as u32) >= regs {
            return Err(ArchError::AddressOutOfBounds {
                what: "intra-partition offset",
                value: self.out.offset as u64,
                bound: regs as u64,
            });
        }
        if self.p_end < self.out.part {
            return bad(format!(
                "p_end ({}) must be >= the first output partition ({})",
                self.p_end, self.out.part
            ));
        }
        if (self.p_end as u32) >= n {
            return Err(ArchError::AddressOutOfBounds {
                what: "partition",
                value: self.p_end as u64,
                bound: n as u64,
            });
        }
        if !(self.p_end - self.out.part).is_multiple_of(self.p_step) {
            return bad(format!(
                "p_step ({}) must divide the output span ({})",
                self.p_step,
                self.p_end - self.out.part
            ));
        }
        let reps = self.gate_count() as u32 - 1; // T
        let operands = self.operand_cols();
        for col in operands.clone() {
            if (col.offset as u32) >= regs {
                return Err(ArchError::AddressOutOfBounds {
                    what: "intra-partition offset",
                    value: col.offset as u64,
                    bound: regs as u64,
                });
            }
            // Partition of the last repetition must stay in bounds.
            let last = col.part as u32 + reps * self.p_step as u32;
            if last >= n {
                return Err(ArchError::AddressOutOfBounds {
                    what: "partition",
                    value: last as u64,
                    bound: n as u64,
                });
            }
        }
        // An output memristor cannot simultaneously be an input of the same
        // gate (the fixed voltages would conflict).
        if self.gate.inputs() >= 1 && self.in_a == self.out {
            return bad("gate input A coincides with the output column".into());
        }
        if self.gate.inputs() == 2 && self.in_b == self.out {
            return bad("gate input B coincides with the output column".into());
        }
        if self.gate == GateKind::Nor && self.in_a.part > self.in_b.part {
            return bad(format!(
                "NOR requires pA ({}) <= pB ({})",
                self.in_a.part, self.in_b.part
            ));
        }
        // Restriction 3 (derivable transistor selects): concurrent sections
        // must be disjoint, i.e. the section width must be smaller than the
        // partition stride.
        if reps > 0 {
            let lo = operands.clone().map(|c| c.part).min().expect("nonempty");
            let hi = operands.map(|c| c.part).max().expect("nonempty");
            let span = (hi - lo) as u32;
            if span >= self.p_step as u32 {
                return bad(format!(
                    "concurrent sections overlap: section width {} >= p_step {}",
                    span + 1,
                    self.p_step
                ));
            }
        }
        Ok(())
    }

    /// The columns read or written by the leftmost gate.
    fn operand_cols(&self) -> impl Iterator<Item = ColAddr> + Clone {
        [self.out, self.in_a, self.in_b]
            .into_iter()
            .take(1 + self.gate.inputs())
    }

    /// Expands the periodic pattern into its individual gate instances —
    /// the reference semantics used to cross-validate the simulator's fast
    /// word-level evaluation.
    pub fn expand_gates(&self) -> Vec<GateInstance> {
        let mut gates = Vec::with_capacity(self.gate_count() as usize);
        for t in 0..self.gate_count() as u8 {
            let d = t * self.p_step;
            let shift = |c: ColAddr| ColAddr::new(c.part + d, c.offset);
            gates.push(GateInstance {
                gate: self.gate,
                a: shift(self.in_a),
                b: shift(self.in_b),
                out: shift(self.out),
            });
        }
        gates
    }

    /// The Table I half-gate opcode dispatched to partition `p`'s column
    /// decoder by this operation.
    pub fn opcode_for_partition(&self, p: PartId) -> PartitionOpcode {
        let mut opcode = PartitionOpcode::default();
        for t in 0..self.gate_count() as u8 {
            let d = t * self.p_step;
            if self.gate.inputs() >= 1 && self.in_a.part + d == p {
                opcode.in_a = true;
            }
            if self.gate.inputs() == 2 && self.in_b.part + d == p {
                opcode.in_b = true;
            }
            if self.out.part + d == p {
                opcode.out = true;
            }
        }
        opcode
    }

    /// The per-transistor conduction selects (`true` = conducting) derived
    /// from the operation, for a memory with `n_parts` partitions.
    /// Transistor `i` sits between partitions `i` and `i + 1`.
    ///
    /// A transistor conducts exactly when partitions `i` and `i+1` belong to
    /// the same concurrent section — the pattern the paper's restriction 3
    /// makes derivable from the per-partition opcodes.
    pub fn transistor_selects(&self, n_parts: usize) -> Vec<bool> {
        let mut conducting = vec![false; n_parts.saturating_sub(1)];
        for g in self.expand_gates() {
            let parts = match self.gate.inputs() {
                0 => vec![g.out.part],
                1 => vec![g.a.part, g.out.part],
                _ => vec![g.a.part, g.b.part, g.out.part],
            };
            let lo = *parts.iter().min().expect("nonempty") as usize;
            let hi = *parts.iter().max().expect("nonempty") as usize;
            conducting[lo..hi].fill(true);
        }
        conducting
    }

    /// Bitmask (one bit per partition) of output partitions — the
    /// word-level evaluation helper used by the simulator. Meaningful for a
    /// validated operation only.
    pub fn out_bits(&self) -> u32 {
        /// `EVERY[s]`: bits `0, s, 2s, …` of a 32-bit word (`s >= 32`: bit 0).
        const EVERY: [u32; 33] = {
            let mut table = [1u32; 33];
            let mut step = 1;
            while step < 32 {
                let mut bit = 0;
                while bit < 32 {
                    table[step] |= 1 << bit;
                    bit += step;
                }
                step += 1;
            }
            table
        };
        // Every `p_step`-th partition from `out.part` through `p_end`.
        let span = (self.p_end - self.out.part) as u32;
        (EVERY[self.p_step.min(32) as usize] & (u32::MAX >> (31 - span))) << self.out.part
    }

    /// Partition shift from input A to the output (`pOUT - pA`), used to
    /// align input words with output words in the simulator.
    pub fn shift_a(&self) -> i32 {
        self.out.part as i32 - self.in_a.part as i32
    }

    /// Partition shift from input B to the output (`pOUT - pB`).
    pub fn shift_b(&self) -> i32 {
        self.out.part as i32 - self.in_b.part as i32
    }
}

/// Canonicalizes unused input operands to the output address so that equal
/// operations compare (and encode) identically.
fn canonical_inputs(
    gate: GateKind,
    in_a: ColAddr,
    in_b: ColAddr,
    out: ColAddr,
) -> (ColAddr, ColAddr) {
    match gate.inputs() {
        0 => (out, out),
        1 => (in_a, in_a),
        _ => (in_a, in_b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> PimConfig {
        PimConfig::small()
    }

    #[test]
    fn serial_gate_is_single() {
        let op = HLogic::serial(
            GateKind::Nor,
            ColAddr::new(3, 0),
            ColAddr::new(3, 1),
            ColAddr::new(3, 2),
            &cfg(),
        )
        .unwrap();
        assert_eq!(op.gate_count(), 1);
        assert_eq!(op.expand_gates().len(), 1);
    }

    #[test]
    fn parallel_covers_all_partitions() {
        let op = HLogic::parallel(GateKind::Nor, 0, 1, 2, &cfg()).unwrap();
        assert_eq!(op.gate_count(), 32);
        assert_eq!(op.out_bits(), u32::MAX);
        // Every partition both inputs and outputs (Table I opcode 111).
        for p in 0..32 {
            assert_eq!(op.opcode_for_partition(p).index(), 0b111);
            assert_eq!(op.opcode_for_partition(p).notation(), "(InA, InB) -> Out");
        }
        // All transistors non-conducting: each section is one partition.
        assert!(op.transistor_selects(32).iter().all(|&c| !c));
    }

    #[test]
    fn figure7c_example_opcodes() {
        // Figure 7(c)/8(c): inputs in even partitions, outputs in odd
        // partitions; InA, InB at offsets 0 and 1, Out at offset 3.
        let op = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            ColAddr::new(1, 3),
            31,
            2,
            &cfg(),
        )
        .unwrap();
        assert_eq!(op.gate_count(), 16);
        // Partition 0: applies both inputs, no output -> "(InA, InB) -> ?".
        assert_eq!(op.opcode_for_partition(0).notation(), "(InA, InB) -> ?");
        // Partition 1: applies only the output -> "? -> Out".
        assert_eq!(op.opcode_for_partition(1).notation(), "? -> Out");
        // Repetition (restriction 2): partitions 2 and 3 repeat 0 and 1.
        assert_eq!(op.opcode_for_partition(2), op.opcode_for_partition(0));
        assert_eq!(op.opcode_for_partition(3), op.opcode_for_partition(1));
        // Transistors: conducting inside each (even, odd) section, open
        // between sections.
        let sel = op.transistor_selects(32);
        for (i, &s) in sel.iter().enumerate().take(31) {
            assert_eq!(s, i % 2 == 0, "transistor {i}");
        }
    }

    #[test]
    fn table1_all_opcodes_reachable() {
        // Build operations exercising each nontrivial Table I opcode.
        let c = cfg();
        let op = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            ColAddr::new(2, 2),
            30,
            4,
            &c,
        )
        .unwrap();
        assert_eq!(op.opcode_for_partition(0).notation(), "(InA, ?) -> ?");
        assert_eq!(op.opcode_for_partition(1).notation(), "(?, InB) -> ?");
        assert_eq!(op.opcode_for_partition(2).notation(), "? -> Out");
        assert_eq!(op.opcode_for_partition(3).notation(), "-");

        // Same-partition input+output combinations.
        let op2 = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            ColAddr::new(0, 2),
            31,
            1,
            &c,
        )
        .unwrap();
        assert_eq!(op2.opcode_for_partition(5).notation(), "(InA, InB) -> Out");

        let op3 = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            ColAddr::new(1, 2),
            31,
            2,
            &c,
        )
        .unwrap();
        assert_eq!(op3.opcode_for_partition(1).notation(), "(?, InB) -> Out");

        let op4 = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            ColAddr::new(0, 2),
            30,
            2,
            &c,
        )
        .unwrap();
        assert_eq!(op4.opcode_for_partition(0).notation(), "(InA, ?) -> Out");
    }

    #[test]
    fn rejects_overlapping_sections() {
        // Shift-by-one NOT with step 1: section width 2 >= step 1.
        let err = HLogic::strided(
            GateKind::Not,
            ColAddr::new(0, 0),
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            31,
            1,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, ArchError::InvalidPartitionPattern { .. }));
        // Same pattern with step 2 is the valid half of a shift.
        HLogic::strided(
            GateKind::Not,
            ColAddr::new(0, 0),
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            31,
            2,
            &cfg(),
        )
        .unwrap();
    }

    #[test]
    fn rejects_out_of_bounds() {
        let c = cfg();
        assert!(HLogic::serial(
            GateKind::Not,
            ColAddr::new(32, 0),
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            &c
        )
        .is_err());
        assert!(HLogic::serial(
            GateKind::Not,
            ColAddr::new(0, 32),
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            &c
        )
        .is_err());
        // Last repetition of the input partition escapes the array.
        assert!(HLogic::strided(
            GateKind::Not,
            ColAddr::new(5, 0),
            ColAddr::new(5, 0),
            ColAddr::new(0, 1),
            30,
            5,
            &c
        )
        .is_err());
    }

    #[test]
    fn rejects_step_not_dividing_span() {
        let err = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            ColAddr::new(0, 2),
            31,
            3,
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, ArchError::InvalidPartitionPattern { .. }));
    }

    #[test]
    fn rejects_pa_greater_than_pb() {
        let err = HLogic::serial(
            GateKind::Nor,
            ColAddr::new(2, 0),
            ColAddr::new(1, 1),
            ColAddr::new(3, 2),
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, ArchError::InvalidPartitionPattern { .. }));
    }

    #[test]
    fn init_reg_covers_register() {
        let op = HLogic::init_reg(true, 5, &cfg()).unwrap();
        assert_eq!(op.gate, GateKind::Init1);
        assert_eq!(op.gate_count(), 32);
        assert_eq!(op.out_bits(), u32::MAX);
    }

    #[test]
    fn init_inputs_are_canonicalized() {
        let a = HLogic::serial(
            GateKind::Init1,
            ColAddr::new(9, 9),
            ColAddr::new(8, 8),
            ColAddr::new(1, 2),
            &cfg(),
        )
        .unwrap();
        let b = HLogic::serial(
            GateKind::Init1,
            ColAddr::new(0, 0),
            ColAddr::new(0, 0),
            ColAddr::new(1, 2),
            &cfg(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shifts_match_partition_deltas() {
        let op = HLogic::strided(
            GateKind::Nor,
            ColAddr::new(0, 0),
            ColAddr::new(1, 1),
            ColAddr::new(2, 2),
            30,
            4,
            &cfg(),
        )
        .unwrap();
        assert_eq!(op.shift_a(), 2);
        assert_eq!(op.shift_b(), 1);
        assert_eq!(op.out_bits(), 0b100_0100_0100_0100_0100_0100_0100_0100);
    }

    proptest! {
        /// Any operation accepted by the validator expands into gates whose
        /// sections are pairwise disjoint and whose opcodes repeat with the
        /// declared period (restrictions 2 and 3 of §III-D3).
        #[test]
        fn valid_ops_have_disjoint_sections(
            pa in 0u8..8, pb_delta in 0u8..4, pout_delta in 0u8..8,
            step in 1u8..16, reps in 0u8..8,
            off_a in 0u8..32, off_b in 0u8..32, off_out in 0u8..32,
        ) {
            let c = cfg();
            let in_a = ColAddr::new(pa, off_a);
            let in_b = ColAddr::new(pa + pb_delta, off_b);
            let out = ColAddr::new(pa + pout_delta, off_out);
            let p_end = out.part as u32 + reps as u32 * step as u32;
            if p_end >= 32 { return Ok(()); }
            let op = HLogic::strided(GateKind::Nor, in_a, in_b, out, p_end as u8, step, &c);
            if let Ok(op) = op {
                let gates = op.expand_gates();
                prop_assert_eq!(gates.len() as u64, op.gate_count());
                let out_parts = gates.iter().fold(0u32, |m, g| m | 1 << g.out.part);
                prop_assert_eq!(op.out_bits(), out_parts);
                // Sections disjoint.
                let sections: Vec<(u8, u8)> = gates.iter().map(|g| {
                    let lo = g.a.part.min(g.b.part).min(g.out.part);
                    let hi = g.a.part.max(g.b.part).max(g.out.part);
                    (lo, hi)
                }).collect();
                for (i, s1) in sections.iter().enumerate() {
                    for s2 in sections.iter().skip(i + 1) {
                        prop_assert!(s1.1 < s2.0 || s2.1 < s1.0,
                            "sections {:?} and {:?} overlap", s1, s2);
                    }
                }
                // Opcode periodicity (restriction 2) — only meaningful when
                // the pattern actually repeats.
                if reps > 0 {
                    for p in 0..(32 - step) {
                        let a = op.opcode_for_partition(p);
                        let b = op.opcode_for_partition(p + step);
                        if a.index() != 0 && b.index() != 0 {
                            prop_assert_eq!(a, b);
                        }
                    }
                }
            }
        }

        /// The transistor-select derivation of restriction 3 agrees with the
        /// section structure: a transistor conducts iff its two neighbors
        /// fall inside one gate's section.
        #[test]
        fn transistor_selects_match_opcode_rule(
            pa in 0u8..4, pout_delta in 1u8..6, step in 6u8..10, reps in 1u8..4,
        ) {
            let c = cfg();
            let in_a = ColAddr::new(pa, 0);
            let out = ColAddr::new(pa + pout_delta, 1);
            let p_end = out.part as u32 + reps as u32 * step as u32;
            if p_end >= 32 { return Ok(()); }
            if let Ok(op) = HLogic::strided(GateKind::Not, in_a, in_a, out, p_end as u8, step, &c) {
                // Paper's rule for pA <= pOUT: transistor i (between
                // partitions i and i+1) is NON-conducting iff partition i
                // has opcode *->Out or partition i+1 has opcode (InA,*)->*.
                let sel = op.transistor_selects(32);
                for i in 0..31u8 {
                    let left = op.opcode_for_partition(i);
                    let right = op.opcode_for_partition(i + 1);
                    let non_conducting = left.out || right.in_a;
                    // Only meaningful across/inside participating sections;
                    // outside all sections both derivations agree on "don't
                    // care" — our section rule reports non-conducting there.
                    if left.index() != 0 || right.index() != 0 {
                        prop_assert_eq!(!sel[i as usize], non_conducting,
                            "transistor {}", i);
                    }
                }
            }
        }
    }
}
