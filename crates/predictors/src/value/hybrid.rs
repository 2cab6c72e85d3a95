//! The VTAGE-2DStride hybrid — the predictor the EOLE paper evaluates
//! (§4.2, Table 2).
//!
//! Selection rule: if a *tagged* VTAGE component hits, its prediction is
//! used (context-based predictions dominate when history correlates);
//! otherwise the 2-delta stride prediction is used if its entry hits;
//! otherwise the VTAGE base table provides a last-value-style fallback.
//! Both sides are always trained, so each keeps learning even while the
//! other is selected.
//!
//! The VTAGE side runs keyed ([`Vtage::keys`]): the hybrid's keys are its
//! VTAGE's, and the keyed [`VtageTwoDeltaStride::predict_keyed`] /
//! [`VtageTwoDeltaStride::train_keyed`] are the predictor. The per-call
//! [`ValuePredictor`] adapter builds the same keys and calls the same
//! pair.

use crate::history::HistoryView;
use crate::value::{
    InFlight, TwoDeltaStride, ValuePrediction, ValuePredictor, VpKeySchema, VpKeys, Vtage,
};

/// Hybrid of [`Vtage`] and [`TwoDeltaStride`] with tagged-hit-first
/// selection.
#[derive(Clone, Debug)]
pub struct VtageTwoDeltaStride {
    vtage: Vtage,
    stride: TwoDeltaStride,
}

impl VtageTwoDeltaStride {
    /// The paper's configuration (Table 2): 8192-entry 2D-Stride with full
    /// tags + 8192/6×1024 VTAGE.
    pub fn paper(seed: u64) -> Self {
        VtageTwoDeltaStride {
            vtage: Vtage::paper(seed ^ 0xa5a5),
            stride: TwoDeltaStride::paper(seed ^ 0x5a5a),
        }
    }

    /// Builds a hybrid from explicit components.
    pub fn from_parts(vtage: Vtage, stride: TwoDeltaStride) -> Self {
        VtageTwoDeltaStride { vtage, stride }
    }

    /// Access to the VTAGE side (e.g. for storage reporting).
    pub fn vtage(&self) -> &Vtage {
        &self.vtage
    }

    /// Access to the 2D-Stride side.
    pub fn stride(&self) -> &TwoDeltaStride {
        &self.stride
    }

    /// The VTAGE side's keys ([`Vtage::keys`]).
    pub fn keys(&mut self, pc: u64, hist: HistoryView<'_>) -> VpKeys {
        self.vtage.keys(pc, hist)
    }

    /// What fixes the hybrid's [`keys`](Self::keys): its VTAGE's schema.
    pub fn key_schema(&self) -> VpKeySchema {
        self.vtage.key_schema()
    }

    /// Predicts the µ-op at `pc` whose VTAGE keys are `keys`; the stride
    /// side reads `hist` and `inflight` as [`ValuePredictor::predict`]
    /// does.
    pub fn predict_keyed(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        keys: &VpKeys,
        inflight: InFlight,
    ) -> ValuePrediction {
        let (v, vtage_tagged_hit) = self.vtage.predict_and_hit(pc, keys);
        let s = self.stride.predict(pc, hist, inflight);
        // Selection: the more confident component wins; on a tie, a tagged
        // VTAGE hit beats the stride side (context dominates), which in turn
        // beats the last-value-style VTAGE base.
        match s {
            Some(s) if v.level < s.level || (v.level == s.level && !vtage_tagged_hit) => s,
            _ => v,
        }
    }

    /// Trains both sides of the µ-op at `pc` whose VTAGE keys are `keys`.
    pub fn train_keyed(&mut self, pc: u64, hist: HistoryView<'_>, keys: &VpKeys, actual: u64) {
        self.vtage.train_keyed(pc, keys, actual);
        self.stride.train(pc, hist, actual);
    }
}

/// Adapter over the keyed pair, deriving the keys per call.
impl ValuePredictor for VtageTwoDeltaStride {
    fn predict(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let keys = self.keys(pc, hist);
        Some(self.predict_keyed(pc, hist, &keys, inflight))
    }

    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        let keys = self.keys(pc, hist);
        self.train_keyed(pc, hist, &keys, actual);
    }

    fn storage_bits(&self) -> u64 {
        self.vtage.storage_bits() + self.stride.storage_bits()
    }

    fn name(&self) -> &'static str {
        "VTAGE-2DStride"
    }
}

impl crate::snapshot::Snapshot for VtageTwoDeltaStride {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        self.vtage.snap(s)?;
        self.stride.snap(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::evaluate_stream;

    #[test]
    fn strided_stream_is_covered_by_the_stride_side() {
        let hist = BranchHistory::new();
        let mut p = VtageTwoDeltaStride::paper(1);
        let stream = (0..6_000u64).map(|i| (0x10, 0u32, 24 * i));
        let s = evaluate_stream(&mut p, &hist, stream);
        assert!(s.confident > 3_000, "confident = {}", s.confident);
        assert_eq!(s.confident, s.confident_correct);
    }

    #[test]
    fn history_correlated_stream_is_covered_by_vtage() {
        let mut hist = BranchHistory::new();
        let mut p = VtageTwoDeltaStride::paper(2);
        let total = 30_000;
        let mut late_correct = 0u64;
        for i in 0..total {
            let taken = (i / 5) % 2 == 0;
            hist.push(taken);
            let pos = hist.len() as u32;
            let actual = if taken { 1111 } else { 2222 };
            let pred = p.predict(0x20, hist.view(pos as usize), InFlight::default()).unwrap();
            if i > total / 2 && pred.value == actual {
                late_correct += 1;
            }
            p.train(0x20, hist.view(pos as usize), actual);
        }
        let rate = late_correct as f64 / (total / 2 - 1) as f64;
        assert!(rate > 0.8, "hybrid accuracy on correlated stream = {rate:.3}");
    }

    #[test]
    fn constant_values_are_covered_either_way() {
        let hist = BranchHistory::new();
        let mut p = VtageTwoDeltaStride::paper(3);
        let stream = (0..5_000u64).map(|_| (0x30, 0u32, 777));
        let s = evaluate_stream(&mut p, &hist, stream);
        assert!(s.confident > 2_000);
        assert_eq!(s.confident, s.confident_correct);
    }

    #[test]
    fn storage_sums_both_components() {
        let p = VtageTwoDeltaStride::paper(1);
        assert_eq!(
            p.storage_bits(),
            p.vtage().storage_bits() + p.stride().storage_bits()
        );
        // Table 2 total ≈ 252 + 133 KB; assert the right order of magnitude.
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((300.0..450.0).contains(&kb), "hybrid storage = {kb:.1} KB");
    }
}
