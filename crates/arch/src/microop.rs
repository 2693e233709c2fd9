use crate::{ArchError, HLogic, PimConfig, RangeMask, RegId, RowId};
use serde::{Deserialize, Serialize};

/// Gate set supported in the vertical (transposed) direction (§III-E).
///
/// Vertical stateful logic applies the gate voltages on wordlines instead of
/// bitlines, transferring data between rows of the same crossbar. Because
/// `N`-bit numbers are stored across `N` horizontal cells, arithmetic is not
/// possible in this direction, so only `{INIT0, INIT1, NOT}` are supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VGate {
    /// Constant 0 (no input row).
    Init0,
    /// Constant 1 (no input row).
    Init1,
    /// One-input vertical NOT from the input row to the output row.
    Not,
}

impl VGate {
    /// Encoding used in the 2-bit gate-type field of the wire format.
    pub fn code(self) -> u8 {
        match self {
            VGate::Init0 => 0,
            VGate::Init1 => 1,
            VGate::Not => 2,
        }
    }

    /// Decodes a 2-bit vertical gate-type field; `None` for code 3.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => VGate::Init0,
            1 => VGate::Init1,
            2 => VGate::Not,
            _ => return None,
        })
    }
}

/// A distributed inter-crossbar move over the H-tree (§III-F).
///
/// The crossbars selected by the current crossbar mask are the *sources*;
/// each source `XB` transfers the `N`-bit word at `(row_src, index_src)` to
/// `(row_dst, index_dst)` of crossbar `XB + dist`. The crossbar mask step
/// must be a power of 4 so that the pairs map onto disjoint H-tree groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MoveOp {
    /// Signed crossbar distance between each source and its destination.
    /// (The wire format stores the non-negative destination start, as in
    /// §III-F footnote 2; this in-memory form keeps the signed distance for
    /// convenience.)
    pub dist: i32,
    /// Source row within every source crossbar.
    pub row_src: RowId,
    /// Destination row within every destination crossbar.
    pub row_dst: RowId,
    /// Intra-partition index (register) read from the source row.
    pub index_src: RegId,
    /// Intra-partition index (register) written in the destination row.
    pub index_dst: RegId,
}

/// A 64-bit micro-operation broadcast from the host driver to all crossbars
/// (§III, Figure 5).
///
/// These are the *only* interface between the host driver and the memory
/// (or its simulator): mask operations select active crossbars/rows,
/// read/write operations access words in the strided format, logic
/// operations perform stateful logic, and move operations perform
/// distributed inter-crossbar transfers.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MicroOp {
    /// Set the per-crossbar activation bits from a range pattern.
    XbMask(RangeMask),
    /// Set the row mask (stored as start/stop/step in every crossbar).
    RowMask(RangeMask),
    /// Write the `N`-bit `value` at intra-row strided index `index` of every
    /// masked row of every masked crossbar.
    Write {
        /// Intra-partition (register) index.
        index: RegId,
        /// Word value to write.
        value: u32,
    },
    /// Read the `N`-bit word at strided index `index`; the preceding masks
    /// must select a single row of a single crossbar.
    Read {
        /// Intra-partition (register) index.
        index: RegId,
    },
    /// Horizontal stateful-logic operation with half-gate partition
    /// encoding.
    LogicH(HLogic),
    /// Vertical (transposed) stateful-logic operation between two rows,
    /// applied at the columns whose intra-partition index equals `index`.
    LogicV {
        /// Vertical gate type.
        gate: VGate,
        /// Input row (ignored for `Init*`).
        row_in: RowId,
        /// Output row.
        row_out: RowId,
        /// Intra-partition (register) index selecting the column group.
        index: RegId,
    },
    /// Distributed inter-crossbar move.
    Move(MoveOp),
}

impl MicroOp {
    /// Validates the operation's addresses against a configuration.
    ///
    /// Mask/logic/move pattern rules are enforced by their constructors;
    /// this re-checks bounds so that a simulator can cheaply reject
    /// operations built for a different geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError`] describing the violated bound.
    pub fn validate(&self, cfg: &PimConfig) -> Result<(), ArchError> {
        let check_reg = |index: RegId| -> Result<(), ArchError> {
            if (index as usize) < cfg.regs {
                Ok(())
            } else {
                Err(ArchError::AddressOutOfBounds {
                    what: "intra-partition offset",
                    value: index as u64,
                    bound: cfg.regs as u64,
                })
            }
        };
        let check_row = |row: RowId| -> Result<(), ArchError> {
            if (row as usize) < cfg.rows {
                Ok(())
            } else {
                Err(ArchError::AddressOutOfBounds {
                    what: "row",
                    value: row as u64,
                    bound: cfg.rows as u64,
                })
            }
        };
        match self {
            MicroOp::XbMask(m) => m.check_bound("crossbar", cfg.crossbars as u64),
            MicroOp::RowMask(m) => m.check_bound("row", cfg.rows as u64),
            MicroOp::Write { index, .. } | MicroOp::Read { index } => check_reg(*index),
            MicroOp::LogicH(op) => op.validate(cfg),
            MicroOp::LogicV {
                gate,
                row_in,
                row_out,
                index,
            } => {
                check_row(*row_in)?;
                check_row(*row_out)?;
                check_reg(*index)?;
                // As for a horizontal gate: an output memristor cannot be
                // an input of its own gate.
                if *gate == VGate::Not && row_in == row_out {
                    return Err(ArchError::InvalidRange {
                        reason: format!("vertical NOT reads row {row_in}, the row it writes"),
                    });
                }
                Ok(())
            }
            MicroOp::Move(mv) => {
                check_row(mv.row_src)?;
                check_row(mv.row_dst)?;
                check_reg(mv.index_src)?;
                check_reg(mv.index_dst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColAddr, GateKind};

    #[test]
    fn validate_bounds() {
        let cfg = PimConfig::small(); // 16 crossbars, 64 rows, 32 regs
        assert!(MicroOp::Write {
            index: 31,
            value: 0
        }
        .validate(&cfg)
        .is_ok());
        assert!(MicroOp::Write {
            index: 32,
            value: 0
        }
        .validate(&cfg)
        .is_err());
        assert!(MicroOp::Read { index: 31 }.validate(&cfg).is_ok());
        assert!(MicroOp::XbMask(RangeMask::single(15))
            .validate(&cfg)
            .is_ok());
        assert!(MicroOp::XbMask(RangeMask::single(16))
            .validate(&cfg)
            .is_err());
        assert!(MicroOp::RowMask(RangeMask::single(63))
            .validate(&cfg)
            .is_ok());
        assert!(MicroOp::RowMask(RangeMask::single(64))
            .validate(&cfg)
            .is_err());
        assert!(MicroOp::LogicV {
            gate: VGate::Not,
            row_in: 0,
            row_out: 63,
            index: 0
        }
        .validate(&cfg)
        .is_ok());
        assert!(MicroOp::LogicV {
            gate: VGate::Not,
            row_in: 64,
            row_out: 0,
            index: 0
        }
        .validate(&cfg)
        .is_err());
        // A vertical NOT cannot read the row it writes; the input row of
        // an INIT is ignored.
        for (gate, ok) in [(VGate::Not, false), (VGate::Init1, true)] {
            let op = MicroOp::LogicV {
                gate,
                row_in: 5,
                row_out: 5,
                index: 0,
            };
            assert_eq!(op.validate(&cfg).is_ok(), ok, "{gate:?}");
        }
        let mv = MoveOp {
            dist: 4,
            row_src: 0,
            row_dst: 63,
            index_src: 0,
            index_dst: 31,
        };
        assert!(MicroOp::Move(mv).validate(&cfg).is_ok());
        let mv_bad = MoveOp {
            dist: 4,
            row_src: 0,
            row_dst: 64,
            index_src: 0,
            index_dst: 0,
        };
        assert!(MicroOp::Move(mv_bad).validate(&cfg).is_err());
    }

    #[test]
    fn logic_h_validation_is_rechecked() {
        let cfg = PimConfig::small();
        let op = HLogic::serial(
            GateKind::Not,
            ColAddr::new(0, 0),
            ColAddr::new(0, 0),
            ColAddr::new(0, 1),
            &cfg,
        )
        .unwrap();
        assert!(MicroOp::LogicH(op).validate(&cfg).is_ok());
    }
}
