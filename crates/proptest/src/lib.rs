//! Minimal in-tree stand-in for the `proptest` crate.
//!
//! The build environment has no registry access, so this crate vendors the
//! slice of proptest the workspace's property tests use: the [`proptest!`]
//! macro (with `#![proptest_config(...)]`, `name in strategy` and
//! `name: type` parameters), `prop_assert!` / `prop_assert_eq!` /
//! `prop_assert_ne!`, [`Strategy`] with `prop_map`, [`prop_oneof!`],
//! [`Just`], [`any`], integer-range strategies, tuple strategies, and
//! `collection::{vec, btree_set}`.
//!
//! Differences from upstream: cases are generated from a fixed per-test
//! seed (FNV-1a of the test name) so runs are fully deterministic, and
//! there is **no shrinking** — a failing case reports its inputs' assertion
//! message and case index only.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng as _, SampleUniform};

pub mod prelude {
    //! One-stop import, mirroring `proptest::prelude::*`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Per-block configuration; only `cases` is honored.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Runs each test in the block `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed `prop_assert*` inside a proptest body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Wraps an assertion-failure message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// FNV-1a of the test name: the per-test seed (stable across runs).
pub fn test_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A value generator. Unlike upstream there is no shrinking, so a strategy
/// is just a deterministic function of the RNG stream.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn gen_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn gen_value(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.gen_value(rng))
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn gen_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: SampleUniform> Strategy for RangeInclusive<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.gen_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);

/// Types with a canonical full-range strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Generates one value from the type's canonical distribution.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($ty:ty),+) => {
        $(impl Arbitrary for $ty {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<$ty>()
            }
        })+
    };
}
impl_arbitrary_uint!(u8, u16, u32, u64, usize, bool);

/// The canonical strategy for `T` (full-range uniform for integers).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Output of [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Object-safe strategy, used by [`prop_oneof!`] to erase branch types.
pub trait DynStrategy<T> {
    /// Generates one value.
    fn gen_dyn(&self, rng: &mut StdRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn gen_dyn(&self, rng: &mut StdRng) -> S::Value {
        self.gen_value(rng)
    }
}

/// Boxes a strategy for [`Union`]; used by the [`prop_oneof!`] expansion.
pub fn boxed<S: Strategy + 'static>(s: S) -> Rc<dyn DynStrategy<S::Value>> {
    Rc::new(s)
}

/// Uniform choice among type-erased strategies ([`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Rc<dyn DynStrategy<T>>>,
}

impl<T> Union<T> {
    /// Builds a union; panics if `options` is empty.
    pub fn new(options: Vec<Rc<dyn DynStrategy<T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one branch");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn gen_value(&self, rng: &mut StdRng) -> T {
        let idx = rng.gen_range(0..self.options.len());
        self.options[idx].gen_dyn(rng)
    }
}

/// Collection size specification: converted from `usize` and ranges.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_inclusive: usize,
}

impl SizeRange {
    fn sample(&self, rng: &mut StdRng) -> usize {
        rng.gen_range(self.lo..=self.hi_inclusive)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_inclusive: n,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty collection size range");
        SizeRange {
            lo: r.start,
            hi_inclusive: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            lo: *r.start(),
            hi_inclusive: *r.end(),
        }
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use super::*;
    use std::collections::BTreeSet;

    /// Strategy for `Vec<S::Value>` with a size drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.gen_value(rng)).collect()
        }
    }

    /// Strategy for `BTreeSet<S::Value>` aiming for a size drawn from
    /// `size`; duplicate draws are retried a bounded number of times, so
    /// the result may come up short when the element space is small
    /// (upstream behaves the same way).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }

    /// Output of [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn gen_value(&self, rng: &mut StdRng) -> Self::Value {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            let mut attempts = 0usize;
            let budget = target * 20 + 50;
            while set.len() < target && attempts < budget {
                set.insert(self.element.gen_value(rng));
                attempts += 1;
            }
            set
        }
    }
}

/// Defines deterministic property tests over generated inputs.
///
/// Supports the upstream forms used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     /// Docs.
///     #[test]
///     fn my_law(x in 0u32..10, y: u32, v in collection::vec(0u8..4, 1..5)) {
///         prop_assert!(x < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal: expands each `fn` in a [`proptest!`] block.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = ($cfg:expr);) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($params:tt)*) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(
                $crate::test_seed(concat!(module_path!(), "::", stringify!($name))),
            );
            for __case in 0..__config.cases {
                $crate::__proptest_bind! { __rng; $($params)* }
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(__e) = __result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case,
                        __config.cases,
                        __e
                    );
                }
            }
        }
        $crate::__proptest_fns! { cfg = ($cfg); $($rest)* }
    };
}

/// Internal: binds one generated value per parameter.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::gen_value(&($strat), &mut $rng);
    };
    ($rng:ident; $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::gen_value(&($strat), &mut $rng);
        $crate::__proptest_bind! { $rng; $($rest)* }
    };
    ($rng:ident; $name:ident : $ty:ty) => {
        let $name = $crate::Strategy::gen_value(&$crate::any::<$ty>(), &mut $rng);
    };
    ($rng:ident; $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name = $crate::Strategy::gen_value(&$crate::any::<$ty>(), &mut $rng);
        $crate::__proptest_bind! { $rng; $($rest)* }
    };
}

/// Fails the current case with a message if the condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} at {}:{}",
                format!($($fmt)+),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current case if the two values are unequal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?} == {:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a == *__b,
            "assertion failed: `{:?} == {:?}`: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// Fails the current case if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{:?} != {:?}`",
            __a,
            __b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__a, __b) = (&$a, &$b);
        $crate::prop_assert!(
            *__a != *__b,
            "assertion failed: `{:?} != {:?}`: {}",
            __a,
            __b,
            format!($($fmt)+)
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::boxed($strat)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn strategies_are_deterministic() {
        let strat = crate::collection::vec((0u32..50, any::<bool>()), 1..6);
        let mut a = rand::rngs::StdRng::seed_from_u64(1);
        let mut b = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(strat.gen_value(&mut a), strat.gen_value(&mut b));
        }
    }

    #[test]
    fn btree_set_respects_target_when_space_allows() {
        let strat = crate::collection::btree_set(0u32..1000, 5..6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..50 {
            assert_eq!(strat.gen_value(&mut rng).len(), 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The macro body sees all binding forms.
        #[test]
        fn macro_binds_all_forms(x in 0u32..10, y: u8, pair in (0usize..4, 1usize..=3)) {
            prop_assert!(x < 10);
            let _ = y;
            prop_assert!(pair.0 < 4 && (1..=3).contains(&pair.1));
            prop_assert_eq!(x, x);
            prop_assert_ne!(pair.1, 0);
        }

        #[test]
        fn oneof_and_just_cover_branches(v in prop_oneof![Just(1u8), 2u8..4]) {
            prop_assert!((1..4).contains(&v));
        }
    }
}
