//! Collection strategies (`proptest::collection`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::Range;

/// Generates `Vec`s whose length is uniform in `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "collection::vec: empty size range");
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample_value(rng)).collect()
    }
}
