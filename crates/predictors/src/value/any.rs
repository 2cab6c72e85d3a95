//! Static dispatch over every value-predictor kind.
//!
//! The timing core queries the value predictor for every VP-eligible µ-op
//! at fetch — squarely on the hot path. [`AnyValuePredictor`] is a closed
//! enum over the concrete predictors, so the core holds predictors by
//! value (one pointer-chase and one indirect call fewer per query than
//! `Box<dyn ValuePredictor>`, and the match compiles to a jump table the
//! branch predictor learns). The open [`ValuePredictor`] trait remains the
//! extension point for offline tools (`evaluate_stream` takes `&mut dyn`).

use crate::history::HistoryView;
use crate::value::{
    DVtage, Fcm, InFlight, LastValue, StridePredictor, TwoDeltaStride, ValuePrediction,
    ValuePredictor, VpKeySchema, VpKeys, Vtage, VtageTwoDeltaStride,
};

/// A value predictor held by value — every kind the harness knows.
#[derive(Clone, Debug)]
pub enum AnyValuePredictor {
    /// The paper's VTAGE + 2-delta-stride hybrid (Table 2).
    VtageTwoDeltaStride(VtageTwoDeltaStride),
    /// VTAGE alone.
    Vtage(Vtage),
    /// 2-delta stride alone.
    TwoDeltaStride(TwoDeltaStride),
    /// Simple stride.
    Stride(StridePredictor),
    /// Last value.
    LastValue(LastValue),
    /// Order-4 FCM.
    Fcm(Fcm),
    /// Block-based differential VTAGE (BeBoP/D-VTAGE, HPCA 2015), the
    /// one kind whose tables are laid out by fetch block.
    DVtage(DVtage),
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyValuePredictor::VtageTwoDeltaStride($p) => $body,
            AnyValuePredictor::Vtage($p) => $body,
            AnyValuePredictor::TwoDeltaStride($p) => $body,
            AnyValuePredictor::Stride($p) => $body,
            AnyValuePredictor::LastValue($p) => $body,
            AnyValuePredictor::Fcm($p) => $body,
            AnyValuePredictor::DVtage($p) => $body,
        }
    };
}

impl AnyValuePredictor {
    /// The keys of the µ-op at `pc` under `hist`, for the kinds that hash
    /// the branch history (VTAGE, the hybrid, D-VTAGE); `None` for the
    /// others.
    pub fn keys(&mut self, pc: u64, hist: HistoryView<'_>) -> Option<VpKeys> {
        match self {
            AnyValuePredictor::VtageTwoDeltaStride(p) => Some(p.keys(pc, hist)),
            AnyValuePredictor::Vtage(p) => Some(p.keys(pc, hist)),
            AnyValuePredictor::DVtage(p) => Some(p.keys(pc, hist)),
            _ => None,
        }
    }

    /// What fixes [`keys`](Self::keys); `None` for the kinds that have
    /// none.
    pub fn key_schema(&self) -> Option<VpKeySchema> {
        match self {
            AnyValuePredictor::VtageTwoDeltaStride(p) => Some(p.key_schema()),
            AnyValuePredictor::Vtage(p) => Some(p.key_schema()),
            AnyValuePredictor::DVtage(p) => Some(p.key_schema()),
            _ => None,
        }
    }

    /// [`ValuePredictor::predict`] with the µ-op's [`keys`](Self::keys);
    /// the kinds without keys ignore them.
    #[inline]
    pub fn predict_keyed(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        keys: &VpKeys,
        inflight: InFlight,
    ) -> Option<ValuePrediction> {
        match self {
            AnyValuePredictor::VtageTwoDeltaStride(p) => {
                Some(p.predict_keyed(pc, hist, keys, inflight))
            }
            AnyValuePredictor::Vtage(p) => Some(p.predict_keyed(pc, keys)),
            AnyValuePredictor::DVtage(p) => Some(p.predict_keyed(pc, keys, inflight)),
            p => p.predict(pc, hist, inflight),
        }
    }

    /// [`ValuePredictor::train`] with the µ-op's [`keys`](Self::keys);
    /// the kinds without keys ignore them.
    #[inline]
    pub fn train_keyed(&mut self, pc: u64, hist: HistoryView<'_>, keys: &VpKeys, actual: u64) {
        match self {
            AnyValuePredictor::VtageTwoDeltaStride(p) => p.train_keyed(pc, hist, keys, actual),
            AnyValuePredictor::Vtage(p) => p.train_keyed(pc, keys, actual),
            AnyValuePredictor::DVtage(p) => p.train_keyed(pc, keys, actual),
            p => p.train(pc, hist, actual),
        }
    }
}

impl ValuePredictor for AnyValuePredictor {
    #[inline]
    fn predict(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        inflight: InFlight,
    ) -> Option<ValuePrediction> {
        dispatch!(self, p => p.predict(pc, hist, inflight))
    }

    #[inline]
    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64) {
        dispatch!(self, p => p.train(pc, hist, actual))
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

impl crate::snapshot::Snapshot for AnyValuePredictor {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        // Variant tag pins the kind; restore refuses a different variant
        // (the predictor kind is configuration, not warm state).
        let tag: u8 = match self {
            AnyValuePredictor::VtageTwoDeltaStride(_) => 0,
            AnyValuePredictor::Vtage(_) => 1,
            AnyValuePredictor::TwoDeltaStride(_) => 2,
            AnyValuePredictor::Stride(_) => 3,
            AnyValuePredictor::LastValue(_) => 4,
            AnyValuePredictor::Fcm(_) => 5,
            AnyValuePredictor::DVtage(_) => 6,
        };
        s.shape(tag, "value predictor kind mismatch")?;
        dispatch!(self, p => p.snap(s))
    }
}

impl From<VtageTwoDeltaStride> for AnyValuePredictor {
    fn from(p: VtageTwoDeltaStride) -> Self {
        AnyValuePredictor::VtageTwoDeltaStride(p)
    }
}

impl From<Vtage> for AnyValuePredictor {
    fn from(p: Vtage) -> Self {
        AnyValuePredictor::Vtage(p)
    }
}

impl From<TwoDeltaStride> for AnyValuePredictor {
    fn from(p: TwoDeltaStride) -> Self {
        AnyValuePredictor::TwoDeltaStride(p)
    }
}

impl From<StridePredictor> for AnyValuePredictor {
    fn from(p: StridePredictor) -> Self {
        AnyValuePredictor::Stride(p)
    }
}

impl From<LastValue> for AnyValuePredictor {
    fn from(p: LastValue) -> Self {
        AnyValuePredictor::LastValue(p)
    }
}

impl From<Fcm> for AnyValuePredictor {
    fn from(p: Fcm) -> Self {
        AnyValuePredictor::Fcm(p)
    }
}

impl From<DVtage> for AnyValuePredictor {
    fn from(p: DVtage) -> Self {
        AnyValuePredictor::DVtage(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;

    /// Enum dispatch and `Box<dyn>` dispatch must be observationally
    /// identical — same predictions, same training effects.
    #[test]
    fn enum_and_dyn_dispatch_agree() {
        let hist = BranchHistory::from_outcomes(&[true, false, true, true]);
        let mut as_enum: AnyValuePredictor = TwoDeltaStride::paper(7).into();
        let mut as_dyn: Box<dyn ValuePredictor> = Box::new(TwoDeltaStride::paper(7));
        for i in 0..2_000u64 {
            let view = hist.view((i % 4) as usize);
            let inflight = InFlight { depth: (i % 3) as u32, last: None };
            let a = as_enum.predict(0x40, view, inflight);
            let b = as_dyn.predict(0x40, view, inflight);
            assert_eq!(a, b, "iteration {i}");
            as_enum.train(0x40, view, i * 3);
            as_dyn.train(0x40, view, i * 3);
        }
        assert_eq!(as_enum.name(), as_dyn.name());
        assert_eq!(as_enum.storage_bits(), as_dyn.storage_bits());
    }

    #[test]
    fn every_kind_constructs_and_reports_a_name() {
        let hist = BranchHistory::new();
        let kinds: Vec<AnyValuePredictor> = vec![
            VtageTwoDeltaStride::paper(1).into(),
            Vtage::paper(1).into(),
            TwoDeltaStride::paper(1).into(),
            StridePredictor::new(256, 1).into(),
            LastValue::new(256, 1).into(),
            Fcm::new(256, 256, 1).into(),
            crate::value::DVtage::paper(4, 4, 1).into(),
        ];
        for mut p in kinds {
            assert!(!p.name().is_empty());
            assert!(p.storage_bits() > 0);
            // The protocol is total for every variant.
            let _ = p.predict(0x8, hist.view(0), InFlight::default());
            p.train(0x8, hist.view(0), 42);
            let _ = p.predict(0x8, hist.view(0), InFlight { depth: 1, last: Some(42) });
        }
    }
}
