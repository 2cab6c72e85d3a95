//! Value predictors.
//!
//! The paper's taxonomy (§2, after Sazeides & Smith) splits predictors into
//! *computational* (apply a function to previous values: [`LastValue`],
//! [`StridePredictor`], [`TwoDeltaStride`]) and *context-based* (recognize
//! patterns in the value history: [`Fcm`], [`Vtage`]). The EOLE evaluation
//! uses the [`VtageTwoDeltaStride`] hybrid with Forward Probabilistic
//! Counter confidence.
//!
//! ## Protocols
//!
//! There are two interfaces at two altitudes:
//!
//! * **The block protocol** ([`BlockGate`] and [`BlockVp`], module
//!   `block`) is what the timing core drives. At **fetch** the gate
//!   admits the µ-op into the bounded speculative window and charges
//!   fetch-block-granular reads, and [`BlockVp::predict`] predicts it;
//!   then exactly one of [`BlockVp::commit`] at **retire** or a covering
//!   [`BlockVp::squash_from`] on a pipeline squash. The window is the
//!   only owner of in-flight state, for every predictor kind: a squash
//!   is the window drop and never reaches the predictor. For the kinds
//!   that hash the branch history (VTAGE, the hybrid, D-VTAGE), predict
//!   and commit take the µ-op's [`VpKeys`], built once per trace per
//!   [`VpKeySchema`]; the other kinds read no history.
//! * **The per-instruction protocol** ([`ValuePredictor`]) is what the
//!   window drives and what offline evaluation ([`evaluate_stream`], the
//!   predictor microbench, the `predictor_showdown` example) uses
//!   directly: `predict` at fetch with the [`InFlight`] summary of
//!   earlier in-flight instances, `train` at commit. For the keyed
//!   kinds it is a thin adapter that derives the keys per call. Predictor
//!   tables only ever learn committed results.
//!
//! A prediction is *used* by the pipeline only when `confident` is true
//! (saturated FPC), per §4.2.

mod any;
mod block;
mod dvtage;
mod fcm;
mod hybrid;
mod last_value;
mod stride;
mod vtage;

pub use any::AnyValuePredictor;
pub use block::{Admission, BlockGate, BlockParams, BlockVp};
pub use dvtage::{DVtage, DVtageConfig};
pub use fcm::Fcm;
pub use hybrid::VtageTwoDeltaStride;
pub use last_value::LastValue;
pub use stride::{StridePredictor, TwoDeltaStride};
pub use vtage::{Vtage, VtageConfig};

use crate::history::HistoryView;

/// Most tagged components a [`Vtage`] or [`DVtage`] holds (the paper's 6).
pub const VP_COMPONENTS: usize = 6;

/// One µ-op's keys into a [`Vtage`]'s or [`DVtage`]'s tagged components:
/// per component, its tag `<< index_bits |` its entry index into the
/// component-major tables, where `index_bits` is the fewest bits that
/// address every entry (components past the configured count hold 0).
/// A pure function of the µ-op's pc, its history position and the
/// predictor's [`VpKeySchema`]. 24 bytes.
pub type VpKeys = [u32; VP_COMPONENTS];

/// What fixes a [`Vtage`]'s or [`DVtage`]'s [`VpKeys`]: the predictor
/// family and the geometry its hash reads. Seeds and table contents play
/// no part, so two predictors of one schema derive the same keys for
/// every µ-op, and one key table per schema serves both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VpKeySchema {
    family: &'static str,
    history_lengths: Vec<usize>,
    rows: usize,
    base_tag_bits: u32,
    /// `(block_size, banks)`; `(1, 1)` for VTAGE, which hashes the
    /// µ-op's own pc.
    shape: (usize, usize),
}

/// A value prediction produced at fetch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ValuePrediction {
    /// The predicted 64-bit result.
    pub value: u64,
    /// True iff the confidence counter is saturated — only then may the
    /// pipeline write the prediction into the PRF.
    pub confident: bool,
    /// Raw confidence level (0–7); hybrids select the stronger component.
    pub level: u8,
}

impl ValuePrediction {
    /// Builds a prediction from a value and its FPC counter.
    pub fn from_conf(value: u64, conf: crate::fpc::Fpc) -> Self {
        ValuePrediction { value, confident: conf.is_saturated(), level: conf.level() }
    }
}

/// The earlier in-flight instances of the µ-op being predicted, as the
/// speculative window ([`BlockVp`]) sees them at fetch. The default —
/// nothing in flight — is the predict-then-train order of
/// [`evaluate_stream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InFlight {
    /// Predicted, not yet retired instances of the same static µ-op.
    pub depth: u32,
    /// The youngest one's predicted value, if the predictor produced one.
    pub last: Option<u64>,
}

/// Common interface of all value predictors.
pub trait ValuePredictor {
    /// Predicts the result of the µ-op at `pc`, fetched with branch history
    /// `hist` while `inflight` earlier instances of it are in flight.
    /// Returns `None` when the predictor has no entry. Never changes what
    /// the predictor has learned: squashing the prediction needs nothing
    /// from the predictor.
    fn predict(
        &mut self,
        pc: u64,
        hist: HistoryView<'_>,
        inflight: InFlight,
    ) -> Option<ValuePrediction>;

    /// Trains with the architectural result of the oldest in-flight
    /// instance of `pc`, at commit.
    fn train(&mut self, pc: u64, hist: HistoryView<'_>, actual: u64);

    /// Total storage in bits (for Table 2).
    fn storage_bits(&self) -> u64;

    /// Short display name.
    fn name(&self) -> &'static str;
}

/// Offline accuracy/coverage numbers from [`evaluate_stream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// µ-ops offered to the predictor.
    pub attempted: u64,
    /// Predictions returned (entry present).
    pub predicted: u64,
    /// Predictions with saturated confidence (would be used).
    pub confident: u64,
    /// Confident predictions that matched the actual value.
    pub confident_correct: u64,
    /// All predictions that matched (regardless of confidence).
    pub correct: u64,
}

impl EvalStats {
    /// Coverage: fraction of attempts that produced a *usable* prediction.
    pub fn coverage(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.confident as f64 / self.attempted as f64
        }
    }

    /// Accuracy of used predictions (the number the paper drives below
    /// ~1 misprediction per 1K with FPC).
    pub fn accuracy(&self) -> f64 {
        if self.confident == 0 {
            1.0
        } else {
            self.confident_correct as f64 / self.confident as f64
        }
    }
}

/// Replays `(pc, history position, actual value)` triples through a
/// predictor with fetch immediately followed by commit (no overlap), for
/// offline predictor comparisons (see the `predictor_showdown` example).
pub fn evaluate_stream(
    predictor: &mut dyn ValuePredictor,
    history: &crate::history::BranchHistory,
    stream: impl IntoIterator<Item = (u64, u32, u64)>,
) -> EvalStats {
    let mut stats = EvalStats::default();
    for (pc, pos, actual) in stream {
        let view = history.view(pos as usize);
        stats.attempted += 1;
        if let Some(p) = predictor.predict(pc, view, InFlight::default()) {
            stats.predicted += 1;
            if p.value == actual {
                stats.correct += 1;
            }
            if p.confident {
                stats.confident += 1;
                if p.value == actual {
                    stats.confident_correct += 1;
                }
            }
        }
        predictor.train(pc, view, actual);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;

    #[test]
    fn eval_stats_ratios() {
        let s = EvalStats {
            attempted: 100,
            predicted: 80,
            confident: 50,
            confident_correct: 49,
            correct: 70,
        };
        assert!((s.coverage() - 0.5).abs() < 1e-12);
        assert!((s.accuracy() - 0.98).abs() < 1e-12);
        assert_eq!(EvalStats::default().accuracy(), 1.0);
        assert_eq!(EvalStats::default().coverage(), 0.0);
    }

    #[test]
    fn evaluate_stream_counts_constant_stream() {
        let hist = BranchHistory::new();
        let mut lvp = LastValue::new(256, 0xbeef);
        let stream = (0..500u64).map(|_| (0x40u64, 0u32, 7u64));
        let s = evaluate_stream(&mut lvp, &hist, stream);
        assert_eq!(s.attempted, 500);
        // After the first training, every prediction is 7.
        assert!(s.correct >= 498);
        // FPC eventually saturates and stays correct.
        assert!(s.confident > 0);
        assert_eq!(s.confident, s.confident_correct);
    }
}

/// Every [`AnyValuePredictor`] kind, `kind % 7`, small where the kind
/// has a size knob; `block_size` shapes D-VTAGE.
#[cfg(test)]
pub(crate) fn test_predictor(kind: u8, seed: u64, block_size: usize) -> AnyValuePredictor {
    match kind % 7 {
        0 => LastValue::new(256, seed).into(),
        1 => StridePredictor::new(256, seed).into(),
        2 => TwoDeltaStride::new(256, seed).into(),
        3 => Fcm::new(256, 256, seed).into(),
        4 => Vtage::new(
            VtageConfig {
                base_entries: 256,
                tagged_entries: 64,
                history_lengths: vec![2, 4, 8],
                base_tag_bits: 8,
            },
            seed,
        )
        .into(),
        5 => DVtage::new(
            DVtageConfig {
                lvt_entries: 256,
                base_entries: 256,
                tagged_entries: 64,
                ..DVtageConfig::paper(block_size, 1)
            },
            seed,
        )
        .into(),
        _ => VtageTwoDeltaStride::paper(seed).into(),
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::history::BranchHistory;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any predictor survives any interleaving of predict/train
        /// without panicking, and stays deterministic.
        #[test]
        fn protocol_fuzz_is_total_and_deterministic(
            kind: u8,
            seed in 1u64..u64::MAX,
            script in proptest::collection::vec((0u8..2, 0u64..32, any::<u64>()), 1..300),
            outcomes in proptest::collection::vec(any::<bool>(), 0..64),
        ) {
            let hist = BranchHistory::from_outcomes(&outcomes);
            let run = || {
                let mut p = test_predictor(kind, seed, 1);
                let mut log = Vec::new();
                for (op, pcx, value) in &script {
                    let pc = pcx * 4;
                    let view = hist.view(outcomes.len().min(*value as usize % (outcomes.len() + 1)));
                    match op {
                        0 => {
                            let inflight = InFlight { depth: (*value % 3) as u32, last: Some(*value) };
                            log.push(p.predict(pc, view, inflight).map(|x| (x.value, x.confident)));
                        }
                        _ => p.train(pc, view, *value),
                    }
                }
                log
            };
            prop_assert_eq!(run(), run());
        }

        /// Confident predictions on a perfectly strided single-pc stream
        /// are never wrong, for every computational predictor.
        #[test]
        fn confident_never_wrong_on_pure_stride(
            kind in prop::sample::select(vec![1u8, 2, 5, 6]),
            stride in -1000i64..1000,
            start: u64,
        ) {
            let hist = BranchHistory::new();
            let mut p = test_predictor(kind, 7, 1);
            let mut wrong = 0u64;
            for i in 0..3000u64 {
                let actual = start.wrapping_add((stride.wrapping_mul(i as i64)) as u64);
                if let Some(pred) = p.predict(0x40, hist.view(0), InFlight::default()) {
                    if pred.confident && pred.value != actual {
                        wrong += 1;
                    }
                }
                p.train(0x40, hist.view(0), actual);
            }
            prop_assert_eq!(wrong, 0);
        }
    }
}
