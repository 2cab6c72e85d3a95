//! Stride and 2-Delta Stride predictors (the *computational* family).
//!
//! [`StridePredictor`] predicts `last + stride` where `stride` is the most
//! recent difference. [`TwoDeltaStride`] (Eickemeyer & Vassiliadis, the
//! paper's [5]) only commits a new stride once it has been observed twice,
//! which filters one-off jumps; it is the computational half of the paper's
//! hybrid (Table 2: 8192 entries, full tags, 251.9 KB).
//!
//! Computational predictors extrapolate from the *last committed* value, so
//! with `k` earlier instances of the same static µ-op in flight the next
//! one must be predicted as `last + stride * (k+1)` (the paper notes
//! conventional value predictors "need to track inflight predictions").
//! The speculative window ([`BlockVp`](super::BlockVp)) tracks them and
//! passes `k` in as [`InFlight::depth`]; the tables hold committed state
//! only.

use crate::fpc::{Fpc, FpcPolicy};
use crate::history::{hash_pc, HistoryView};
use crate::rng::SimRng;
use crate::value::{InFlight, ValuePrediction, ValuePredictor};

#[derive(Clone, Copy, Debug, Default)]
struct StrideEntry {
    valid: bool,
    tag: u64,
    last: u64,
    stride: i64,
    conf: Fpc,
}

/// Simple stride predictor with FPC confidence.
#[derive(Clone, Debug)]
pub struct StridePredictor {
    entries: Vec<StrideEntry>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl StridePredictor {
    /// Creates a predictor with `entries` slots (rounded to a power of two).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(entries: usize, seed: u64) -> Self {
        let n = entries.next_power_of_two().max(1);
        StridePredictor {
            entries: vec![StrideEntry::default(); n],
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    fn index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0x57de) as usize) & (self.entries.len() - 1)
    }
}

impl ValuePredictor for StridePredictor {
    fn predict(
        &mut self,
        pc: u64,
        _hist: HistoryView<'_>,
        inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let e = &self.entries[self.index(pc)];
        if e.valid && e.tag == pc {
            let steps = inflight.depth as i64 + 1;
            let value = e.last.wrapping_add((e.stride.wrapping_mul(steps)) as u64);
            Some(ValuePrediction::from_conf(value, e.conf))
        } else {
            None
        }
    }

    fn train(&mut self, pc: u64, _hist: HistoryView<'_>, actual: u64) {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == pc {
            let expected = e.last.wrapping_add(e.stride as u64);
            if expected == actual {
                e.conf.on_correct(&self.policy, &mut self.rng);
            } else {
                e.conf.on_incorrect();
            }
            e.stride = actual.wrapping_sub(e.last) as i64;
            e.last = actual;
        } else {
            *e = StrideEntry {
                valid: true,
                tag: pc,
                last: actual,
                stride: 0,
                conf: Fpc::new(),
            };
        }
    }

    fn storage_bits(&self) -> u64 {
        // full tag + last + stride + confidence.
        self.entries.len() as u64 * (64 + 64 + 64 + Fpc::BITS)
    }

    fn name(&self) -> &'static str {
        "Stride"
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TwoDeltaEntry {
    valid: bool,
    tag: u64,
    last: u64,
    stride1: i64,
    stride2: i64,
    conf: Fpc,
}

/// 2-Delta Stride predictor: `stride2` (the predicting stride) is updated
/// only when the newly observed stride matches `stride1` (the last observed
/// stride), i.e. a stride must repeat before it is trusted.
#[derive(Clone, Debug)]
pub struct TwoDeltaStride {
    entries: Vec<TwoDeltaEntry>,
    policy: FpcPolicy,
    rng: SimRng,
}

impl TwoDeltaStride {
    /// The paper's configuration: 8192 entries, full tags (Table 2).
    pub fn paper(seed: u64) -> Self {
        Self::new(8192, seed)
    }

    /// Creates a predictor with `entries` slots (rounded to a power of two).
    // lint:allow(hot-alloc) cold construction path: tables allocated once, before the measured loop
    pub fn new(entries: usize, seed: u64) -> Self {
        let n = entries.next_power_of_two().max(1);
        TwoDeltaStride {
            entries: vec![TwoDeltaEntry::default(); n],
            policy: FpcPolicy::eole(),
            rng: SimRng::new(seed),
        }
    }

    fn index(&self, pc: u64) -> usize {
        (hash_pc(pc, 0x2d57) as usize) & (self.entries.len() - 1)
    }
}

impl ValuePredictor for TwoDeltaStride {
    fn predict(
        &mut self,
        pc: u64,
        _hist: HistoryView<'_>,
        inflight: InFlight,
    ) -> Option<ValuePrediction> {
        let e = &self.entries[self.index(pc)];
        if e.valid && e.tag == pc {
            let steps = inflight.depth as i64 + 1;
            let value = e.last.wrapping_add((e.stride2.wrapping_mul(steps)) as u64);
            Some(ValuePrediction::from_conf(value, e.conf))
        } else {
            None
        }
    }

    fn train(&mut self, pc: u64, _hist: HistoryView<'_>, actual: u64) {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        if e.valid && e.tag == pc {
            let expected = e.last.wrapping_add(e.stride2 as u64);
            if expected == actual {
                e.conf.on_correct(&self.policy, &mut self.rng);
            } else {
                e.conf.on_incorrect();
            }
            let new_stride = actual.wrapping_sub(e.last) as i64;
            if new_stride == e.stride1 {
                e.stride2 = new_stride;
            }
            e.stride1 = new_stride;
            e.last = actual;
        } else {
            *e = TwoDeltaEntry {
                valid: true,
                tag: pc,
                last: actual,
                stride1: 0,
                stride2: 0,
                conf: Fpc::new(),
            };
        }
    }

    fn storage_bits(&self) -> u64 {
        // Table 2 counts tag + last value + two strides + confidence.
        self.entries.len() as u64 * (64 + 64 + 64 + 64 + Fpc::BITS)
    }

    fn name(&self) -> &'static str {
        "2D-Stride"
    }
}

impl crate::snapshot::Snapshot for StridePredictor {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.shape(self.entries.len(), "stride size mismatch")?;
        for e in &mut self.entries {
            s.field(&mut e.valid)?;
            s.field(&mut e.tag)?;
            s.field(&mut e.last)?;
            s.field(&mut e.stride)?;
            e.conf.snap(s)?;
        }
        self.rng.snap(s)
    }
}

impl crate::snapshot::Snapshot for TwoDeltaStride {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.shape(self.entries.len(), "2d-stride size mismatch")?;
        for e in &mut self.entries {
            s.field(&mut e.valid)?;
            s.field(&mut e.tag)?;
            s.field(&mut e.last)?;
            s.field(&mut e.stride1)?;
            s.field(&mut e.stride2)?;
            e.conf.snap(s)?;
        }
        self.rng.snap(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BranchHistory;
    use crate::value::evaluate_stream;

    fn h() -> BranchHistory {
        BranchHistory::new()
    }

    #[test]
    fn stride_learns_arithmetic_sequence() {
        let hist = h();
        let mut p = StridePredictor::new(64, 1);
        for i in 0..3u64 {
            p.train(0x10, hist.view(0), 100 + 8 * i);
        }
        let pr = p.predict(0x10, hist.view(0), InFlight::default()).unwrap();
        assert_eq!(pr.value, 100 + 8 * 3);
        // Two earlier instances in flight: extrapolate two strides further.
        let pr = p.predict(0x10, hist.view(0), InFlight { depth: 2, last: None }).unwrap();
        assert_eq!(pr.value, 100 + 8 * 5);
    }

    #[test]
    fn two_delta_requires_stride_to_repeat() {
        let hist = h();
        let mut p = TwoDeltaStride::new(64, 1);
        p.train(0x10, hist.view(0), 100); // allocate
        p.train(0x10, hist.view(0), 108); // stride1 = 8, stride2 still 0
        let pr = p.predict(0x10, hist.view(0), InFlight::default()).unwrap();
        assert_eq!(pr.value, 108, "stride2 not yet promoted");
        p.train(0x10, hist.view(0), 116); // stride 8 repeats → stride2 = 8
        let pr = p.predict(0x10, hist.view(0), InFlight::default()).unwrap();
        assert_eq!(pr.value, 124);
    }

    #[test]
    fn two_delta_filters_one_off_jump() {
        let hist = h();
        let mut p = TwoDeltaStride::new(64, 1);
        for i in 0..10u64 {
            p.train(0x10, hist.view(0), 8 * i);
        }
        // One-off jump: value leaps, then resumes the +8 sequence.
        p.train(0x10, hist.view(0), 1000);
        // stride1 became the jump, but stride2 is still 8: next prediction
        // extrapolates 1000 + 8.
        let pr = p.predict(0x10, hist.view(0), InFlight::default()).unwrap();
        assert_eq!(pr.value, 1008);
    }

    #[test]
    fn confidence_saturates_and_is_accurate_on_stream(){
        let hist = h();
        let mut p = TwoDeltaStride::paper(3);
        let stream = (0..4000u64).map(|i| (0x88, 0u32, 16 * i));
        let s = evaluate_stream(&mut p, &hist, stream);
        assert!(s.confident > 2000, "confident = {}", s.confident);
        assert_eq!(s.confident, s.confident_correct);
    }

    #[test]
    fn paper_storage_is_about_252_kb() {
        let p = TwoDeltaStride::paper(1);
        let kb = p.storage_bits() as f64 / 8.0 / 1024.0;
        assert!((240.0..265.0).contains(&kb), "2D-Stride storage = {kb:.1} KB");
    }
}
