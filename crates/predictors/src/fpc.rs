//! Forward Probabilistic Counters (FPC).
//!
//! Perais & Seznec (HPCA 2014, \[25\] in the paper) gate value-prediction use
//! on a confidence counter that is *probabilistically* incremented: a 3-bit
//! counter emulates a much wider one by making forward transitions succeed
//! only with probability `v[k]`. The EOLE paper uses
//! `v = {1, 1/32, 1/32, 1/32, 1/32, 1/64, 1/64}`, which makes the expected
//! number of consecutive correct predictions needed to saturate ≈ 257,
//! pushing the misprediction rate of *used* predictions low enough that
//! squash recovery is affordable.

use crate::rng::SimRng;

/// The probability vector from the EOLE paper (§4.2): entry `k` is the
/// denominator `n` of the probability `1/n` of the `k → k+1` transition.
pub const EOLE_FPC_VECTOR: [u64; 7] = [1, 32, 32, 32, 32, 64, 64];

/// Number of confidence levels (3-bit counter: 0..=7).
pub const FPC_LEVELS: u8 = 7;

/// Shared transition-probability configuration for a predictor's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FpcPolicy {
    denominators: [u64; 7],
}

impl FpcPolicy {
    /// The paper's vector.
    pub fn eole() -> Self {
        FpcPolicy { denominators: EOLE_FPC_VECTOR }
    }

    /// A custom vector (entry `k` = denominator of transition `k → k+1`).
    pub fn new(denominators: [u64; 7]) -> Self {
        FpcPolicy { denominators }
    }

    /// Deterministic counters (every transition always succeeds) — useful
    /// for tests and as an ablation of probabilistic updates.
    pub fn always() -> Self {
        FpcPolicy { denominators: [1; 7] }
    }

    /// Expected number of consecutive correct updates to saturate.
    pub fn expected_updates_to_saturate(&self) -> u64 {
        self.denominators.iter().sum()
    }
}

/// A single 3-bit forward probabilistic counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fpc {
    level: u8,
}

impl Fpc {
    /// A freshly reset (zero-confidence) counter.
    pub fn new() -> Self {
        Fpc { level: 0 }
    }

    /// Current level (0–7).
    pub fn level(self) -> u8 {
        self.level
    }

    /// True when the counter is saturated — the only state in which a
    /// prediction may actually be *used* (written into the PRF).
    pub fn is_saturated(self) -> bool {
        self.level == FPC_LEVELS
    }

    /// Registers a correct prediction: moves forward with the policy's
    /// probability for the current level.
    pub fn on_correct(&mut self, policy: &FpcPolicy, rng: &mut SimRng) {
        if self.level < FPC_LEVELS && rng.one_in(policy.denominators[self.level as usize]) {
            self.level += 1;
        }
    }

    /// Registers an incorrect prediction: resets to zero confidence.
    pub fn on_incorrect(&mut self) {
        self.level = 0;
    }

    /// Storage cost in bits.
    pub const BITS: u64 = 3;
}

impl crate::snapshot::Snapshot for Fpc {
    fn snap(&mut self, s: &mut crate::snapshot::Snap<'_>) -> Result<(), crate::snapshot::SnapError> {
        s.bounded(&mut self.level, ..=FPC_LEVELS, "fpc level out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unsaturated_and_resets() {
        let policy = FpcPolicy::always();
        let mut rng = SimRng::new(1);
        let mut c = Fpc::new();
        assert!(!c.is_saturated());
        for _ in 0..7 {
            c.on_correct(&policy, &mut rng);
        }
        assert!(c.is_saturated());
        c.on_incorrect();
        assert_eq!(c.level(), 0);
    }

    #[test]
    fn deterministic_policy_saturates_in_exactly_seven() {
        let policy = FpcPolicy::always();
        let mut rng = SimRng::new(1);
        let mut c = Fpc::new();
        for i in 1..=7u8 {
            c.on_correct(&policy, &mut rng);
            assert_eq!(c.level(), i);
        }
        // Saturated counters stay saturated on further correct updates.
        c.on_correct(&policy, &mut rng);
        assert_eq!(c.level(), 7);
    }

    #[test]
    fn eole_vector_needs_many_updates_on_average() {
        let policy = FpcPolicy::eole();
        assert_eq!(policy.expected_updates_to_saturate(), 1 + 32 * 4 + 64 * 2);
        let mut rng = SimRng::new(99);
        // Average over many counters.
        let trials = 200;
        let mut total = 0u64;
        for _ in 0..trials {
            let mut c = Fpc::new();
            let mut updates = 0u64;
            while !c.is_saturated() {
                c.on_correct(&policy, &mut rng);
                updates += 1;
            }
            total += updates;
        }
        let avg = total / trials;
        // E = 257; accept a broad band to keep the test robust.
        assert!((150..400).contains(&avg), "average updates to saturate = {avg}");
    }

    #[test]
    fn first_transition_is_always_taken_with_eole_vector() {
        let policy = FpcPolicy::eole();
        let mut rng = SimRng::new(5);
        let mut c = Fpc::new();
        c.on_correct(&policy, &mut rng);
        assert_eq!(c.level(), 1, "v[0] = 1 means 0→1 always succeeds");
    }
}
