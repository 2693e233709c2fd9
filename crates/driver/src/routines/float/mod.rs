//! Gate-level IEEE-754 `binary32` routines: addition/subtraction,
//! multiplication, division, comparisons, and sign manipulation — the
//! floating-point half of the AritPIM suite (§V-B), implemented with full
//! round-to-nearest-even semantics including subnormals, infinities, NaNs,
//! and signed zeros.

mod add;
mod cmp;
mod misc;
mod muldiv;
mod pack;

pub use add::add;
pub use cmp::compare;
pub use misc::{abs, neg, sign};
pub use muldiv::{div, mul};

#[cfg(test)]
mod tests;
