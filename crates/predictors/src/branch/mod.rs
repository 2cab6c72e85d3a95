//! Branch predictors: TAGE direction prediction with storage-free
//! confidence, a set-associative BTB, and a return-address stack.
//!
//! EOLE's Late Execution offloads *very-high-confidence* conditional
//! branches to the pre-commit stage (§3.3). The confidence estimate comes
//! from Seznec's storage-free scheme (HPCA 2011, the paper's \[30\]):
//! a prediction is very-high-confidence iff the provider counter is
//! saturated, which empirically keeps the misprediction rate of that class
//! well under 1%.

mod bimodal;
mod btb;
mod ras;
mod tage;

pub use bimodal::Bimodal;
pub use btb::Btb;
pub use ras::ReturnStack;
pub use tage::{Tage, TageConfig, TageKeys, TAGE_COMPONENTS};

use crate::history::HistoryView;

/// Confidence class of a direction prediction (storage-free estimation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchConfidence {
    /// Provider counter saturated — eligible for Late Execution.
    VeryHigh,
    /// Anything else.
    Medium,
}

/// A direction prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchPrediction {
    /// Predicted direction.
    pub taken: bool,
    /// Confidence class.
    pub confidence: BranchConfidence,
}

/// Common interface for direction predictors.
pub trait DirectionPredictor {
    /// Predicts the direction of the conditional branch at `pc` under
    /// global history `hist`.
    fn predict(&mut self, pc: u64, hist: HistoryView<'_>) -> BranchPrediction;

    /// Trains with the resolved outcome (called in commit order).
    fn update(&mut self, pc: u64, hist: HistoryView<'_>, taken: bool);

    /// Total storage in bits.
    fn storage_bits(&self) -> u64;

    /// Short display name.
    fn name(&self) -> &'static str;
}
