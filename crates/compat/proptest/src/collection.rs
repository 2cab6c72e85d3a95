//! Collection strategies (subset: [`vec()`]).

use std::ops::Range;

use crate::{Strategy, TestRng};

/// Strategy returned by [`vec()`].
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    elem: S,
    size: Range<usize>,
}

/// Generates a `Vec` whose length is drawn from `size` and whose elements
/// are drawn from `elem`.
pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { elem, size }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }
}
