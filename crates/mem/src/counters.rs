//! Declared counter structs.
//!
//! Every statistics struct of the simulator (`CacheStats`, `MemStats`,
//! `SimStats`, …) is written once, as a [`counters!`](crate::counters!)
//! list. The macro generates the plain `Copy` struct itself, its stitch
//! operation (`merge`: every counter is a sum) and one name/value walk
//! (`visit_counters`) that serializers, parsers and tests drive through a
//! [`CounterVisitor`]. Adding a counter is therefore one line in its
//! list: merging, the stored-result format and the test fills follow.

/// One counter slot handed to a [`CounterVisitor`].
#[derive(Debug)]
pub enum Counter<'a> {
    /// A single count.
    Scalar(&'a mut u64),
    /// A fixed-size array of counts (e.g. one per confidence level).
    Array(&'a mut [u64]),
}

/// A walk over a counter struct, by name, in declaration order. Nested
/// counter structs are bracketed by [`CounterVisitor::enter`] and
/// [`CounterVisitor::leave`].
pub trait CounterVisitor {
    /// One counter (or counter array) named `name`.
    fn counter(&mut self, name: &'static str, value: Counter<'_>);
    /// Start of the nested counter struct in field `name`.
    fn enter(&mut self, name: &'static str);
    /// End of the innermost nested counter struct.
    fn leave(&mut self);
}

/// A type a [`counters!`](crate::counters!) list may declare as a field:
/// a count, an array of counts, or a nested counter struct.
pub trait CounterField {
    /// Adds `other` into `self`, counter by counter.
    fn accumulate(&mut self, other: &Self);
    /// Hands this field, named `name`, to `v`.
    fn visit(&mut self, name: &'static str, v: &mut dyn CounterVisitor);
}

impl CounterField for u64 {
    fn accumulate(&mut self, other: &Self) {
        *self += other;
    }

    fn visit(&mut self, name: &'static str, v: &mut dyn CounterVisitor) {
        v.counter(name, Counter::Scalar(self));
    }
}

impl<const N: usize> CounterField for [u64; N] {
    fn accumulate(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other) {
            *a += b;
        }
    }

    fn visit(&mut self, name: &'static str, v: &mut dyn CounterVisitor) {
        v.counter(name, Counter::Array(self));
    }
}

/// A visitor that applies a closure to every individual count (array
/// elements one by one) and ignores names and nesting — the shape test
/// fills and whole-struct comparisons need.
pub struct EachCount<F>(pub F);

impl<F: FnMut(&mut u64)> CounterVisitor for EachCount<F> {
    fn counter(&mut self, _name: &'static str, value: Counter<'_>) {
        match value {
            Counter::Scalar(v) => (self.0)(v),
            Counter::Array(vs) => vs.iter_mut().for_each(&mut self.0),
        }
    }

    fn enter(&mut self, _name: &'static str) {}

    fn leave(&mut self) {}
}

/// Declares a counter struct: the struct (fields as written, deriving
/// `Clone, Copy, Debug, Default` plus any derives given), an inherent
/// `merge` that sums every counter, and `visit_counters`, the walk over
/// every counter by field name. Field types must implement
/// [`CounterField`](crate::counters::CounterField): `u64`, `[u64; N]`, or
/// another struct declared with this macro.
///
/// ```
/// eole_mem::counters! {
///     /// Example counters.
///     pub struct Hits {
///         /// Lookups.
///         pub lookups: u64,
///         /// Hits by way.
///         pub by_way: [u64; 2],
///     }
/// }
/// let mut a = Hits { lookups: 3, by_way: [1, 2] };
/// let b = a;
/// a.merge(&b);
/// assert_eq!((a.lookups, a.by_way), (6, [2, 4]));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $name {
            /// Accumulates another snapshot's counters into this one:
            /// every counter is a sum, so merging the windows of a split
            /// run gives the counters of the whole run.
            pub fn merge(&mut self, other: &$name) {
                $( $crate::counters::CounterField::accumulate(&mut self.$field, &other.$field); )*
            }

            /// Hands every counter to `v` by field name, in declaration
            /// order, entering nested counter structs.
            pub fn visit_counters(&mut self, v: &mut dyn $crate::counters::CounterVisitor) {
                $(
                    $crate::counters::CounterField::visit(&mut self.$field, stringify!($field), v);
                )*
            }
        }

        impl $crate::counters::CounterField for $name {
            fn accumulate(&mut self, other: &Self) {
                self.merge(other);
            }

            fn visit(&mut self, name: &'static str, v: &mut dyn $crate::counters::CounterVisitor) {
                v.enter(name);
                self.visit_counters(v);
                v.leave();
            }
        }
    };
}
