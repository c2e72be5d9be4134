//! A self-contained, offline stand-in for the `proptest` crate.
//!
//! The build environment for this workspace has no network access and no
//! crates.io mirror, so the real `proptest` cannot be fetched. This crate
//! re-implements exactly the subset of its API the workspace's test
//! suites use — the `proptest!` macro, `prop_assert*`, `prop_oneof!`,
//! range/tuple/collection/option/sample strategies, `prop_map`, `any`,
//! and `ProptestConfig::with_cases` — on top of a deterministic
//! SplitMix64 generator.
//!
//! Differences from the real crate, deliberate for this environment:
//!
//! * **No shrinking.** A failing case reports its generated inputs (all
//!   strategy values are `Debug`) and the deterministic seed reproduces
//!   it, but no minimization pass runs.
//! * **Deterministic by default.** Each test function derives its RNG
//!   stream from its module path and name (override the base seed with
//!   the `PROPTEST_SEED` environment variable), so CI runs are
//!   reproducible byte for byte.
//! * **Edge biasing instead of full value-tree heuristics:** integer
//!   range strategies return the endpoints with elevated probability.

#![forbid(unsafe_code)]

/// The deterministic PRNG and run configuration.
pub mod test_runner {
    /// SplitMix64 — the same tiny generator the simulator uses for seed
    /// expansion; deterministic, fast, and good enough to drive tests.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from `PROPTEST_SEED` (if set) mixed with a
        /// stable hash of `name`, so each test gets its own stream.
        pub fn deterministic(name: &str) -> TestRng {
            let base: u64 = std::env::var("PROPTEST_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0x5AFE_C0DE_D00D_F00D);
            // FNV-1a over the test name keeps streams independent.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: base ^ h }
        }

        /// Next 64 uniformly distributed bits (SplitMix64 step).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, span)` via the multiply-shift method.
        pub fn below(&mut self, span: u64) -> u64 {
            assert!(span > 0, "empty range");
            ((self.next_u64() as u128 * span as u128) >> 64) as u64
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Run configuration. Only the field the workspace uses.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }
}

/// The `Strategy` trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::rc::Rc;

    /// A generator of test values.
    ///
    /// Unlike the real proptest (which builds shrinkable value trees),
    /// this produces plain values directly.
    pub trait Strategy {
        /// The type of generated values.
        type Value: Debug;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A type-erased strategy.
    #[derive(Clone)]
    pub struct BoxedStrategy<V>(Rc<dyn Strategy<Value = V>>);

    impl<V: Debug> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<V>(pub V);

    impl<V: Clone + Debug> Strategy for Just<V> {
        type Value = V;
        fn generate(&self, _rng: &mut TestRng) -> V {
            self.0.clone()
        }
    }

    /// Uniform choice among type-erased alternatives (`prop_oneof!`).
    pub struct Union<V> {
        alts: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// A union over `alts` (must be non-empty).
        pub fn new(alts: Vec<BoxedStrategy<V>>) -> Union<V> {
            assert!(!alts.is_empty(), "prop_oneof! needs at least one arm");
            Union { alts }
        }
    }

    impl<V: Debug> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.alts.len() as u64) as usize;
            self.alts[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    // Bias toward the endpoints (~1/16 each) the way
                    // proptest's value trees favor edges.
                    match rng.next_u64() % 32 {
                        0 => self.start,
                        1 => self.end - 1,
                        _ => self.start + rng.below(span) as $t,
                    }
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident / $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A/0);
        (A/0, B/1);
        (A/0, B/1, C/2);
        (A/0, B/1, C/2, D/3);
        (A/0, B/1, C/2, D/3, E/4);
        (A/0, B/1, C/2, D/3, E/4, F/5);
    }

    /// Full-range strategy for a primitive (`any::<T>()`).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// The canonical instance.
        pub const fn new() -> Any<T> {
            Any(core::marker::PhantomData)
        }
    }

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    any_int!(u8, u16, u32, u64, usize);

    /// Types with a canonical `any()` strategy.
    pub trait Arbitrary: Sized {
        /// The strategy `any::<Self>()` returns.
        fn any_strategy() -> Any<Self>;
    }

    macro_rules! arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn any_strategy() -> Any<$t> {
                    Any::new()
                }
            }
        )*};
    }
    arbitrary!(bool, u8, u16, u32, u64, usize);

    /// The full-range strategy for `A`.
    pub fn any<A: Arbitrary>() -> Any<A>
    where
        Any<A>: Strategy<Value = A>,
    {
        A::any_strategy()
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Anything usable as a `vec` size specification.
    pub trait IntoSizeRange {
        /// Bounds as a half-open `(min, max)` pair with `max > min`.
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    impl IntoSizeRange for core::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end)
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64;
            let len = self.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A strategy for `Vec`s of `element` values with a length drawn
    /// from `size` (an exact `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(element: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`of`].
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `None` or `Some(value)` with equal probability.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Sampling strategies (`proptest::sample::select`).
pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// See [`select`].
    pub struct Select<T>(Vec<T>);

    impl<T: Clone + std::fmt::Debug> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }

    /// Uniform choice from a non-empty list of values.
    pub fn select<T: Clone + std::fmt::Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "select needs at least one value");
        Select(values)
    }
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    /// The strategy producing both booleans.
    pub const ANY: crate::strategy::Any<::core::primitive::bool> = crate::strategy::Any::new();
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Skips the rest of the current case when its precondition does not
/// hold. The offline shim simply ends the case (counting it as passed)
/// rather than resampling, so keep preconditions likely-true.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...)` runs its
/// body over `cases` generated inputs (default 256, or the block's
/// `#![proptest_config(...)]`). A failing case prints the generated
/// inputs before propagating the panic.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$attr])*
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                for case in 0..cfg.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let rendered_inputs = {
                        let mut s = String::new();
                        $({
                            use ::std::fmt::Write as _;
                            let _ = write!(s, "{} = {:?}; ", stringify!($arg), &$arg);
                        })+
                        s
                    };
                    let outcome = ::std::panic::catch_unwind(
                        ::std::panic::AssertUnwindSafe(move || $body),
                    );
                    if let Err(panic) = outcome {
                        eprintln!(
                            "proptest (offline shim): case {}/{} of {} failed with inputs: {}",
                            case + 1, cfg.cases, stringify!($name), rendered_inputs,
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}
