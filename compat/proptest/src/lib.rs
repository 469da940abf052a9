//! Offline stand-in for `proptest`.
//!
//! Implements the subset this workspace's property tests use: the
//! `proptest!` macro with an optional `#![proptest_config(...)]` header,
//! `prop_assert!`/`prop_assert_eq!`, range and tuple strategies, and
//! `proptest::collection::vec`. Cases are generated from a deterministic
//! RNG seeded by the test's module path and name, so failures reproduce
//! exactly across runs. No shrinking: the failing case's values are lost,
//! but the case index and seed are stable, so rerunning hits the same
//! inputs.

use rand::Rng;

/// Per-test configuration (only the case count is meaningful here).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

pub mod test_runner {
    pub use super::ProptestConfig;

    /// Deterministic per-test RNG: seeded from an FNV-1a hash of the
    /// test's fully-qualified name, so every run replays the same cases.
    #[derive(Debug, Clone)]
    pub struct TestRng(rand::rngs::StdRng);

    impl TestRng {
        /// Builds the RNG for the named test.
        pub fn for_test(name: &str) -> Self {
            use rand::SeedableRng;
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self(rand::rngs::StdRng::seed_from_u64(h))
        }
    }

    impl rand::RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

use test_runner::TestRng;

/// A generator of random values for one `proptest!` argument.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<T> Strategy for core::ops::Range<T>
where
    T: rand::SampleUniform + Copy,
    core::ops::Range<T>: rand::SampleRange<T>,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.random_range(self.clone())
    }
}

impl<T> Strategy for core::ops::RangeInclusive<T>
where
    T: rand::SampleUniform + Copy,
    core::ops::RangeInclusive<T>: rand::SampleRange<T>,
{
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        rng.random_range(self.clone())
    }
}

/// A strategy yielding one fixed value (mirrors `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $i:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A/0, B/1)
    (A/0, B/1, C/2)
    (A/0, B/1, C/2, D/3)
}

pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Strategy for `Vec`s with a random length drawn from a range.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// A `Vec` strategy: `len` elements (uniform in the range), each drawn
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.random_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test file needs in scope.
pub mod prelude {
    pub use crate::test_runner::TestRng;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )+
    ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for __case in 0..__config.cases {
                $(
                    let $arg = $crate::Strategy::generate(&($strat), &mut __rng);
                )+
                let __outcome: ::std::result::Result<(), ::std::string::String> = (|| {
                    let _ = $body;
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(__msg) = __outcome {
                    panic!(
                        "proptest case {}/{} of `{}` failed: {}",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                        __msg
                    );
                }
            }
        }
    )+};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l == __r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(__l == __r, $($fmt)+);
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            __l != __r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples_stay_in_bounds(
            x in 1.0f64..2.0,
            pair in (0usize..10, 5u32..9),
            items in crate::collection::vec(0i64..=3, 1..7),
        ) {
            prop_assert!((1.0..2.0).contains(&x), "x out of range: {x}");
            prop_assert!(pair.0 < 10);
            prop_assert!((5..9).contains(&pair.1));
            prop_assert!(!items.is_empty() && items.len() < 7);
            prop_assert!(items.iter().all(|&v| (0..=3).contains(&v)));
        }
    }

    #[test]
    fn same_test_name_replays_identical_cases() {
        use crate::Strategy;
        let mut a = TestRng::for_test("demo");
        let mut b = TestRng::for_test("demo");
        for _ in 0..50 {
            assert_eq!(
                (0.0f64..1.0).generate(&mut a),
                (0.0f64..1.0).generate(&mut b)
            );
        }
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics_with_case_index() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]

            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
