use crate::{DType, RegOp};
use pim_arch::{ArchError, PimConfig, RangeMask, RegId, RowId, XbId};

/// The set of threads an instruction applies to: a range of warps
/// (crossbars) and, within each, a range of rows. Both follow the flexible
/// `start:stop:step` pattern that the microarchitecture's mask operations
/// support directly (§III-B), which is what makes tensor *views* (`x[::2]`)
/// zero-cost at the ISA level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadRange {
    /// Warps (crossbars) selected.
    pub warps: RangeMask,
    /// Rows selected within each warp.
    pub rows: RangeMask,
}

impl ThreadRange {
    /// Creates a thread range.
    pub fn new(warps: RangeMask, rows: RangeMask) -> Self {
        ThreadRange { warps, rows }
    }

    /// Every thread of every warp in `cfg`.
    pub fn all(cfg: &PimConfig) -> Self {
        ThreadRange {
            warps: RangeMask::dense(0, cfg.crossbars as u32).expect("nonzero crossbars"),
            rows: RangeMask::dense(0, cfg.rows as u32).expect("nonzero rows"),
        }
    }

    /// A single thread.
    pub fn single(warp: XbId, row: RowId) -> Self {
        ThreadRange {
            warps: RangeMask::single(warp),
            rows: RangeMask::single(row),
        }
    }

    /// Number of threads selected.
    pub fn len(&self) -> usize {
        self.warps.len() * self.rows.len()
    }

    /// Always `false`; a valid range selects at least one thread.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn validate(&self, cfg: &PimConfig) -> Result<(), ArchError> {
        self.warps.check_bound("warp", cfg.crossbars as u64)?;
        self.rows.check_bound("row", cfg.rows as u64)
    }
}

/// A PIM macro-instruction (§IV, Figure 11).
///
/// Register indices refer to the `R = user_regs` ISA-visible registers of
/// every thread; the host driver reserves the remaining intra-row offsets as
/// scratch space for compiling arithmetic routines.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Register operation applied thread-parallel across `target`
    /// (Figure 11a): `dst = op(srcs…)` in every selected thread.
    RType {
        /// Operation.
        op: RegOp,
        /// Element datatype.
        dtype: DType,
        /// Destination register.
        dst: RegId,
        /// Source registers; only the first [`RegOp::arity`] entries are
        /// meaningful.
        srcs: [RegId; 3],
        /// Threads to operate on.
        target: ThreadRange,
    },
    /// Warp-parallel thread-serial move (Figure 11b, intra-warp): for every
    /// selected warp, copy register `src` of row `src_rows[k]` into register
    /// `dst` of row `dst_rows[k]`, for each position `k`.
    ///
    /// `src_rows` and `dst_rows` must select the same number of rows. They
    /// may overlap only as a uniform shift — equal strides, different
    /// starts — which the driver orders so that every row is read before it
    /// is overwritten; identical row sets are refused (a vertical transfer
    /// cannot read the row it writes; copying between registers of the same
    /// rows is an `RType` copy).
    MoveRows {
        /// Source register.
        src: RegId,
        /// Destination register.
        dst: RegId,
        /// Source row pattern.
        src_rows: RangeMask,
        /// Destination row pattern.
        dst_rows: RangeMask,
        /// Warps to operate on (all pairs move in parallel across warps).
        warps: RangeMask,
    },
    /// Inter-warp move following the distributed H-tree pattern of §III-F:
    /// every selected warp `w` sends register `src` of row `row_src` to
    /// register `dst` of row `row_dst` in warp `w + dist`.
    MoveWarps {
        /// Source register.
        src: RegId,
        /// Destination register.
        dst: RegId,
        /// Row read in each source warp.
        row_src: RowId,
        /// Row written in each destination warp.
        row_dst: RowId,
        /// Source warps (step must be a power of 4).
        warps: RangeMask,
        /// Uniform warp distance (destination = source + dist).
        dist: i32,
    },
    /// Scalar read of one register of one thread.
    Read {
        /// Register to read.
        reg: RegId,
        /// Warp holding the thread.
        warp: XbId,
        /// Row of the thread.
        row: RowId,
    },
    /// Word write, broadcast across a thread range (typically constants).
    Write {
        /// Register to write.
        reg: RegId,
        /// Raw word value (for floats, the IEEE-754 bit pattern).
        value: u32,
        /// Threads to write.
        target: ThreadRange,
    },
}

impl Instruction {
    /// Validates register indices, thread ranges, and datatype support
    /// against a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ArchError::InvalidConfig`] for an unsupported
    /// operation/dtype combination, [`ArchError::AddressOutOfBounds`] for
    /// out-of-range registers/threads, and [`ArchError::InvalidRange`] or
    /// [`ArchError::InvalidMove`] for malformed move patterns.
    pub fn validate(&self, cfg: &PimConfig) -> Result<(), ArchError> {
        let check_reg = |r: RegId| -> Result<(), ArchError> {
            if (r as usize) < cfg.user_regs {
                Ok(())
            } else {
                Err(ArchError::AddressOutOfBounds {
                    what: "ISA register",
                    value: r as u64,
                    bound: cfg.user_regs as u64,
                })
            }
        };
        match self {
            Instruction::RType {
                op,
                dtype,
                dst,
                srcs,
                target,
            } => {
                if !op.supports(*dtype) {
                    return Err(ArchError::InvalidConfig {
                        reason: format!("operation {op} does not support {dtype}"),
                    });
                }
                check_reg(*dst)?;
                for src in &srcs[..op.arity()] {
                    check_reg(*src)?;
                }
                target.validate(cfg)
            }
            Instruction::MoveRows {
                src,
                dst,
                src_rows,
                dst_rows,
                warps,
            } => {
                check_reg(*src)?;
                check_reg(*dst)?;
                warps.check_bound("warp", cfg.crossbars as u64)?;
                src_rows.check_bound("row", cfg.rows as u64)?;
                dst_rows.check_bound("row", cfg.rows as u64)?;
                if src_rows.len() != dst_rows.len() {
                    return Err(ArchError::InvalidRange {
                        reason: format!(
                            "source rows select {} rows but destination rows select {}",
                            src_rows.len(),
                            dst_rows.len()
                        ),
                    });
                }
                // Overlapping row sets are only executable when the pair
                // mapping is a uniform shift (equal strides): the driver
                // then orders the thread-serial transfers so every source
                // row is read before it is overwritten.
                if src_rows == dst_rows {
                    return Err(ArchError::InvalidRange {
                        reason: "source and destination rows are identical: a vertical transfer \
                                 cannot read the row it writes"
                            .into(),
                    });
                }
                if src_rows.intersects(dst_rows) && src_rows.step() != dst_rows.step() {
                    return Err(ArchError::InvalidRange {
                        reason: "overlapping source/destination row sets require equal strides"
                            .into(),
                    });
                }
                Ok(())
            }
            Instruction::MoveWarps {
                src,
                dst,
                row_src,
                row_dst,
                warps,
                dist,
            } => {
                check_reg(*src)?;
                check_reg(*dst)?;
                warps.check_bound("warp", cfg.crossbars as u64)?;
                let mv = pim_arch::MoveOp {
                    dist: *dist,
                    row_src: *row_src,
                    row_dst: *row_dst,
                    index_src: *src,
                    index_dst: *dst,
                };
                pim_arch::MicroOp::Move(mv).validate(cfg)?;
                pim_arch::htree::plan_move(warps, &mv, cfg)?;
                Ok(())
            }
            Instruction::Read { reg, warp, row } => {
                check_reg(*reg)?;
                ThreadRange::single(*warp, *row).validate(cfg)
            }
            Instruction::Write { reg, target, .. } => {
                check_reg(*reg)?;
                target.validate(cfg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PimConfig {
        PimConfig::small() // user_regs = 16
    }

    fn rtype(op: RegOp, dtype: DType, dst: RegId, srcs: [RegId; 3]) -> Instruction {
        Instruction::RType {
            op,
            dtype,
            dst,
            srcs,
            target: ThreadRange::all(&cfg()),
        }
    }

    #[test]
    fn accepts_valid_rtype() {
        rtype(RegOp::Add, DType::Int32, 2, [0, 1, 0])
            .validate(&cfg())
            .unwrap();
        rtype(RegOp::Mux, DType::Float32, 3, [0, 1, 2])
            .validate(&cfg())
            .unwrap();
    }

    #[test]
    fn rejects_float_modulo() {
        let err = rtype(RegOp::Mod, DType::Float32, 2, [0, 1, 0])
            .validate(&cfg())
            .unwrap_err();
        assert!(matches!(err, ArchError::InvalidConfig { .. }));
    }

    #[test]
    fn rejects_scratch_register_access() {
        // Registers 16..32 exist physically but are driver scratch.
        let err = rtype(RegOp::Add, DType::Int32, 16, [0, 1, 0])
            .validate(&cfg())
            .unwrap_err();
        assert!(matches!(
            err,
            ArchError::AddressOutOfBounds {
                what: "ISA register",
                ..
            }
        ));
        let err = rtype(RegOp::Add, DType::Int32, 2, [16, 1, 0])
            .validate(&cfg())
            .unwrap_err();
        assert!(matches!(err, ArchError::AddressOutOfBounds { .. }));
    }

    #[test]
    fn unused_sources_are_not_validated() {
        // Unary op: srcs[1..] may hold garbage.
        rtype(RegOp::Neg, DType::Int32, 2, [0, 99, 99])
            .validate(&cfg())
            .unwrap();
    }

    #[test]
    fn move_rows_validation() {
        let c = cfg();
        let warps = RangeMask::dense(0, c.crossbars as u32).unwrap();
        // Even rows -> odd rows: equal counts, disjoint.
        Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::new(0, 62, 2).unwrap(),
            dst_rows: RangeMask::new(1, 63, 2).unwrap(),
            warps,
        }
        .validate(&c)
        .unwrap();
        // Mismatched counts.
        assert!(Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::new(0, 62, 2).unwrap(),
            dst_rows: RangeMask::new(1, 31, 2).unwrap(),
            warps,
        }
        .validate(&c)
        .is_err());
        // Overlapping sets with equal strides: allowed (uniform shift).
        Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::new(0, 32, 2).unwrap(),
            dst_rows: RangeMask::new(2, 34, 2).unwrap(),
            warps,
        }
        .validate(&c)
        .unwrap();
        // A zero shift (identical sets) would transfer every row onto
        // itself: rejected, whatever the registers.
        for (src, dst) in [(0, 1), (0, 0)] {
            let err = Instruction::MoveRows {
                src,
                dst,
                src_rows: RangeMask::dense(0, 8).unwrap(),
                dst_rows: RangeMask::dense(0, 8).unwrap(),
                warps,
            }
            .validate(&c)
            .unwrap_err();
            assert!(matches!(err, ArchError::InvalidRange { .. }), "{err}");
        }
        // Overlapping sets with different strides: rejected.
        assert!(Instruction::MoveRows {
            src: 0,
            dst: 1,
            src_rows: RangeMask::new(0, 30, 2).unwrap(),
            dst_rows: RangeMask::new(1, 46, 3).unwrap(),
            warps,
        }
        .validate(&c)
        .is_err());
    }

    #[test]
    fn move_warps_validation() {
        let c = cfg();
        Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(1, 13, 4).unwrap(),
            dist: 1,
        }
        .validate(&c)
        .unwrap();
        // Bad H-tree step.
        assert!(Instruction::MoveWarps {
            src: 0,
            dst: 1,
            row_src: 0,
            row_dst: 0,
            warps: RangeMask::new(0, 6, 2).unwrap(),
            dist: 1,
        }
        .validate(&c)
        .is_err());
    }

    #[test]
    fn read_write_validation() {
        let c = cfg();
        Instruction::Read {
            reg: 0,
            warp: 15,
            row: 63,
        }
        .validate(&c)
        .unwrap();
        assert!(Instruction::Read {
            reg: 0,
            warp: 16,
            row: 0
        }
        .validate(&c)
        .is_err());
        Instruction::Write {
            reg: 1,
            value: 7,
            target: ThreadRange::all(&c),
        }
        .validate(&c)
        .unwrap();
        assert!(Instruction::Write {
            reg: 31,
            value: 7,
            target: ThreadRange::all(&c)
        }
        .validate(&c)
        .is_err());
    }

    #[test]
    fn thread_range_len() {
        let c = cfg();
        assert_eq!(ThreadRange::all(&c).len(), c.crossbars * c.rows);
        assert_eq!(ThreadRange::single(0, 0).len(), 1);
        assert!(!ThreadRange::all(&c).is_empty());
    }
}
