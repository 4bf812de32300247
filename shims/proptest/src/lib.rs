#![warn(missing_docs)]

//! Offline shim for `proptest`: randomised property testing with the
//! API subset the workspace's `tests/properties.rs` suites use —
//! `proptest!`, range and tuple strategies, `collection::vec`,
//! `prop_map` / `prop_flat_map`, `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!`, and `ProptestConfig::with_cases`.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its panic message (and
//!   the deterministic per-test seed) but is not minimised.
//! * **Deterministic seeds.** Each test derives its seed from the test
//!   name, so failures reproduce without a persistence file. Set
//!   `PROPTEST_SEED` to explore different streams and
//!   `PROPTEST_CASES` to override the case count — the default and a
//!   `ProptestConfig::with_cases` count alike.
//! * **Default cases**: 64 (the real default of 256 is available via
//!   `ProptestConfig::with_cases` or the environment variable).

use std::ops::{Range, RangeInclusive};

pub mod test_runner;

pub use test_runner::TestRng;

/// Why a generated case did not pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// The case was vetoed by `prop_assume!` — try another input.
    Reject(String),
    /// A `prop_assert!`-style check failed — the property is violated.
    Fail(String),
}

impl TestCaseError {
    /// Constructs a failure with the given message.
    pub fn fail<S: Into<String>>(msg: S) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// Constructs a rejection with the given reason.
    pub fn reject<S: Into<String>>(msg: S) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Per-test configuration (subset of `proptest::test_runner::Config`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Maximum rejected (`prop_assume!`) cases before giving up.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self::with_cases(64)
    }
}

impl ProptestConfig {
    /// A config running `cases` successful cases, or as many as
    /// `PROPTEST_CASES` says when it is set.
    pub fn with_cases(cases: u32) -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(cases);
        Self {
            cases,
            max_global_rejects: 4096,
        }
    }
}

/// A generator of random values (subset of `proptest::strategy`;
/// generation only, no shrink trees).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Builds a second strategy from each generated value and draws
    /// from it.
    fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Type-erases this strategy (compatibility helper).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

trait DynStrategy<T> {
    fn dyn_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy produced by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy produced by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 strategy range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (a, b) = (*self.start(), *self.end());
        assert!(a <= b, "empty f64 strategy range");
        a + (b - a) * rng.unit_f64()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer strategy range");
                let span = self.end.abs_diff(self.start) as u128;
                let v = (rng.next_u64() as u128 % span) as $t;
                self.start.wrapping_add(v)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (a, b) = (*self.start(), *self.end());
                assert!(a <= b, "empty integer strategy range");
                let span = b.abs_diff(a) as u128 + 1;
                let v = (rng.next_u64() as u128 % span) as $t;
                a.wrapping_add(v)
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A);
    (A, B);
    (A, B, C);
    (A, B, C, D);
    (A, B, C, D, E);
    (A, B, C, D, E, F);
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Acceptable size arguments for [`vec`](fn@vec): a fixed size or a range.
    pub trait IntoSizeRange {
        /// Lower and inclusive upper bound of the collection length.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl IntoSizeRange for RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec`s whose elements come from `element` and whose
    /// length falls in `size`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64 + 1;
            let len = self.min + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `proptest::collection::vec`: a vector strategy.
    pub fn vec<S: Strategy, R: IntoSizeRange>(element: S, size: R) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// The glob-imported prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts inside a `proptest!` body; on failure the current case
/// fails with the formatted message (no panic unwinding mid-case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Equality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `left == right` (left: `{:?}`, right: `{:?}`)",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Inequality assertion inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `left != right` (both: `{:?}`)",
            l
        );
    }};
}

/// Vetoes the current case; the runner draws a fresh input instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!(
                $cond
            )));
        }
    };
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random inputs through the body.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strat:expr),* $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::rng_for(concat!(module_path!(), "::", stringify!($name)));
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)*
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    ::core::result::Result::Ok(()) => passed += 1,
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {
                        rejected += 1;
                        assert!(
                            rejected <= config.max_global_rejects,
                            "proptest '{}': too many prop_assume! rejections ({})",
                            stringify!($name),
                            rejected
                        );
                    }
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => panic!(
                        "proptest '{}' failed after {} passing cases (seed: name-derived, \
                         set PROPTEST_SEED to vary): {}",
                        stringify!($name),
                        passed,
                        msg
                    ),
                }
            }
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 0.5f64..2.5, n in 3u64..9) {
            prop_assert!((0.5..2.5).contains(&x));
            prop_assert!((3..9).contains(&n));
        }

        #[test]
        fn vec_lengths_in_range(v in collection::vec(0u64..10, 2..5)) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            for e in v {
                prop_assert!(e < 10);
            }
        }

        #[test]
        fn map_and_flat_map_compose(
            (len, v) in (1usize..6).prop_flat_map(|n| {
                (Just(n), collection::vec(0.0f64..1.0, n))
            }),
        ) {
            prop_assert_eq!(v.len(), len);
        }

        #[test]
        fn assume_rejects_without_failing(a in 0u64..100, b in 0u64..100) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn configured_case_count_applies(x in 0u64..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn failing_property_panics_with_message() {
        let result = std::panic::catch_unwind(|| {
            proptest! {
                fn always_fails(x in 0u64..10) {
                    prop_assert!(x > 100, "x was {}", x);
                }
            }
            always_fails();
        });
        let err = result.expect_err("property must fail");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("always_fails"), "message: {msg}");
    }

    /// Cases `configured_cases_child` ran.
    static CHILD_CASES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

    #[test]
    fn the_environment_overrides_a_configured_case_count() {
        // The variable is read by the config, so the case count is
        // checked in a process of its own with the variable set.
        let exe = std::env::current_exe().expect("test binary path");
        let out = std::process::Command::new(exe)
            .args(["--exact", "tests::configured_cases_child", "--ignored"])
            .env("PROPTEST_CASES", "3")
            .output()
            .expect("spawn child test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    #[ignore = "run by the_environment_overrides_a_configured_case_count with PROPTEST_CASES set"]
    fn configured_cases_child() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(7))]
            fn counted(x in 0u64..10) {
                CHILD_CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                prop_assert!(x < 10);
            }
        }
        counted();
        let want = std::env::var("PROPTEST_CASES").map_or(7, |v| v.parse().unwrap());
        assert_eq!(CHILD_CASES.load(std::sync::atomic::Ordering::Relaxed), want);
    }

    #[test]
    fn seeds_are_deterministic_per_name() {
        let mut a = crate::test_runner::rng_for("some::test");
        let mut b = crate::test_runner::rng_for("some::test");
        let mut c = crate::test_runner::rng_for("other::test");
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(x, y);
        assert_ne!(x, z);
    }
}
