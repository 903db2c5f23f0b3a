//! Offline stand-in for `proptest`.
//!
//! This workspace builds with no crates.io access, so the real `proptest`
//! cannot be fetched.  The shim implements the subset of the API the test
//! suites use — the [`Strategy`](strategy::Strategy) trait with `prop_map`/`boxed`, `any`,
//! `Just`, range and string-pattern strategies, tuples,
//! [`collection::vec`], [`sample::Index`], `prop_oneof!`, the `proptest!`
//! test macro and the `prop_assert*` assertions — with deterministic
//! generation seeded per test name.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.**  A failing case panics with the standard assertion
//!   message; inputs are reproducible because generation is deterministic.
//! * **String strategies** accept only character-class patterns of the
//!   form `[class]{m,n}` (sequences thereof, plus literal characters),
//!   which covers every pattern in this repo.
//! * **Case counts** come from the `PROPTEST_CASES` environment variable
//!   when set (clamped down by any explicit `ProptestConfig::with_cases`),
//!   defaulting to [`test_runner::DEFAULT_CASES`].  CI sets a low value so
//!   the property suites finish in seconds.

#![forbid(unsafe_code)]

pub mod arbitrary;
pub mod collection;
pub mod sample;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything the test suites import via `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of upstream's `prelude::prop` module shorthand.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Runs one property test: samples each strategy `cases` times and calls
/// the body.  Used by the `proptest!` macro expansion; not public API.
#[doc(hidden)]
pub fn __run_cases(name: &str, cases: u32, mut body: impl FnMut(&mut test_runner::TestRng, u32)) {
    let mut rng = test_runner::TestRng::for_test(name);
    for case in 0..cases {
        body(&mut rng, case);
    }
}

/// Defines property tests.  Mirrors `proptest::proptest!` for the
/// `fn name(arg in strategy, ...) { body }` form, with an optional leading
/// `#![proptest_config(...)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(@cfg (::core::option::Option::Some($cfg)); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(@cfg (::core::option::Option::None); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: ::core::option::Option<$crate::test_runner::ProptestConfig> = $cfg;
                let __cases = $crate::test_runner::resolve_cases(__cfg.map(|c| c.cases));
                $crate::__run_cases(stringify!($name), __cases, |__rng, __case| {
                    $(let $arg = $crate::strategy::Strategy::sample_value(&($strat), __rng);)+
                    $body
                });
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}
