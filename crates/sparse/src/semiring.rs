//! Semiring abstractions in the GraphBLAS style.
//!
//! A [`Semiring`] couples a commutative [`AddMonoid`] (the "reduce" of a dot
//! product) with a [`MulOp`] (the "combine"). All sparse kernels in this
//! crate are generic over a semiring, so a single SpGEMM implementation
//! serves walk counting (`plus_times` over integers), boolean reachability
//! (`or_and`), shortest hops (`min_plus`) and wedge counting (`plus_pair`).

use std::fmt::Debug;

/// Values storable in sparse containers.
///
/// `Copy + Send + Sync` keeps kernels allocation-free and rayon-friendly;
/// every value type the workspace uses (machine integers, floats, bool) is
/// trivially copyable.
pub trait SemiringValue: Copy + Clone + Debug + PartialEq + Send + Sync + 'static {}
impl<T: Copy + Clone + Debug + PartialEq + Send + Sync + 'static> SemiringValue for T {}

/// A commutative monoid used as the additive component of a semiring.
pub trait AddMonoid<T: SemiringValue>: Copy + Send + Sync {
    /// The monoid identity (GraphBLAS "zero").
    fn identity(&self) -> T;
    /// The associative, commutative combination.
    fn combine(&self, a: T, b: T) -> T;
}

/// A binary multiplicative operator feeding an [`AddMonoid`].
pub trait MulOp<T: SemiringValue>: Copy + Send + Sync {
    /// Combine one left-hand and one right-hand entry.
    fn mul(&self, a: T, b: T) -> T;
}

/// A GraphBLAS-style semiring: `(add, mul, zero)`.
///
/// The `is_zero` predicate lets kernels drop explicit zeros so structural
/// sparsity is preserved through arithmetic (GraphBLAS implementations are
/// permitted, but not required, to do this; bikron relies on it so that
/// `A³ ∘ A` masks behave set-theoretically).
#[derive(Copy, Clone, Debug)]
pub struct Semiring<T: SemiringValue, A: AddMonoid<T>, M: MulOp<T>> {
    /// Additive monoid.
    pub add: A,
    /// Multiplicative operator.
    pub mul: M,
    _marker: std::marker::PhantomData<T>,
}

impl<T: SemiringValue, A: AddMonoid<T>, M: MulOp<T>> Semiring<T, A, M> {
    /// Build a semiring from its two components.
    pub fn new(add: A, mul: M) -> Self {
        Semiring {
            add,
            mul,
            _marker: std::marker::PhantomData,
        }
    }

    /// The additive identity.
    #[inline]
    pub fn zero(&self) -> T {
        self.add.identity()
    }

    /// `a ⊕ b`.
    #[inline]
    pub fn plus(&self, a: T, b: T) -> T {
        self.add.combine(a, b)
    }

    /// `a ⊗ b`.
    #[inline]
    pub fn times(&self, a: T, b: T) -> T {
        self.mul.mul(a, b)
    }

    /// Whether a value equals the additive identity (used to drop zeros).
    #[inline]
    pub fn is_zero(&self, a: T) -> bool {
        a == self.add.identity()
    }
}

// ---------------------------------------------------------------------------
// Concrete monoids / operators.
// ---------------------------------------------------------------------------

/// Numeric addition with identity 0.
#[derive(Copy, Clone, Debug, Default)]
pub struct Plus;

/// Numeric multiplication.
#[derive(Copy, Clone, Debug, Default)]
pub struct Times;

/// Constant-one multiplication (`pair` in GraphBLAS): used for wedge and
/// path *existence* counting where the product of two present entries is 1.
#[derive(Copy, Clone, Debug, Default)]
pub struct Pair;

/// Minimum with identity `MAX`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Min;

/// Boolean OR with identity `false`.
#[derive(Copy, Clone, Debug, Default)]
pub struct Or;

/// Boolean AND.
#[derive(Copy, Clone, Debug, Default)]
pub struct And;

macro_rules! impl_plus_times {
    ($($t:ty),*) => {$(
        impl AddMonoid<$t> for Plus {
            #[inline]
            fn identity(&self) -> $t { 0 as $t }
            #[inline]
            fn combine(&self, a: $t, b: $t) -> $t { a.wrapping_add(b) }
        }
        impl MulOp<$t> for Times {
            #[inline]
            fn mul(&self, a: $t, b: $t) -> $t { a.wrapping_mul(b) }
        }
        impl MulOp<$t> for Pair {
            #[inline]
            fn mul(&self, _a: $t, _b: $t) -> $t { 1 as $t }
        }
    )*};
}
impl_plus_times!(u32, u64, u128, i32, i64, i128, usize);

impl AddMonoid<f64> for Plus {
    #[inline]
    fn identity(&self) -> f64 {
        0.0
    }
    #[inline]
    fn combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}
impl MulOp<f64> for Times {
    #[inline]
    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }
}
impl MulOp<f64> for Pair {
    #[inline]
    fn mul(&self, _a: f64, _b: f64) -> f64 {
        1.0
    }
}

/// The pattern "product": `()` stands for a stored entry whose value is
/// implicitly one, so a kernel over `Csr<()>` touches only the structure.
impl MulOp<()> for Times {
    #[inline]
    fn mul(&self, _a: (), _b: ()) {}
}

impl AddMonoid<u64> for Min {
    #[inline]
    fn identity(&self) -> u64 {
        u64::MAX
    }
    #[inline]
    fn combine(&self, a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Saturating addition used as the multiplicative op of min-plus so that
/// `MAX + w` does not wrap.
#[derive(Copy, Clone, Debug, Default)]
pub struct SaturatingPlus;

impl MulOp<u64> for SaturatingPlus {
    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        a.saturating_add(b)
    }
}

impl AddMonoid<bool> for Or {
    #[inline]
    fn identity(&self) -> bool {
        false
    }
    #[inline]
    fn combine(&self, a: bool, b: bool) -> bool {
        a || b
    }
}
impl MulOp<bool> for And {
    #[inline]
    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

// ---------------------------------------------------------------------------
// Canonical semiring constructors.
// ---------------------------------------------------------------------------

/// `(+, ×, 0)` over `u64` — walk counting.
pub fn u64_plus_times() -> Semiring<u64, Plus, Times> {
    Semiring::new(Plus, Times)
}

/// `(+, ×, 0)` over `i64`.
pub fn i64_plus_times() -> Semiring<i64, Plus, Times> {
    Semiring::new(Plus, Times)
}

/// `(+, ×, 0)` over `i128` — formula internals with large intermediates.
pub fn i128_plus_times() -> Semiring<i128, Plus, Times> {
    Semiring::new(Plus, Times)
}

/// `(+, ×, 0)` over `f64`.
pub fn f64_plus_times() -> Semiring<f64, Plus, Times> {
    Semiring::new(Plus, Times)
}

/// `(+, pair, 0)` over `u64` — counts *pairs* of incident entries (wedges).
pub fn u64_plus_pair() -> Semiring<u64, Plus, Pair> {
    Semiring::new(Plus, Pair)
}

/// `(min, +, ∞)` over `u64` — hop distances.
pub fn u64_min_plus() -> Semiring<u64, Min, SaturatingPlus> {
    Semiring::new(Min, SaturatingPlus)
}

/// `(∨, ∧, false)` over `bool` — reachability.
pub fn bool_or_and() -> Semiring<bool, Or, And> {
    Semiring::new(Or, And)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_u64_basics() {
        let s = u64_plus_times();
        assert_eq!(s.zero(), 0);
        assert_eq!(s.plus(2, 3), 5);
        assert_eq!(s.times(2, 3), 6);
        assert!(s.is_zero(0));
        assert!(!s.is_zero(1));
    }

    #[test]
    fn plus_pair_counts_presence() {
        let s = u64_plus_pair();
        assert_eq!(s.times(17, 23), 1);
        assert_eq!(s.plus(1, 1), 2);
    }

    #[test]
    fn min_plus_identity_absorbs() {
        let s = u64_min_plus();
        assert_eq!(s.zero(), u64::MAX);
        // MAX saturates rather than wrapping.
        assert_eq!(s.times(u64::MAX, 1), u64::MAX);
        assert_eq!(s.plus(u64::MAX, 4), 4);
        assert_eq!(s.times(3, 4), 7);
    }

    #[test]
    fn bool_or_and() {
        let s = super::bool_or_and();
        assert!(!s.zero());
        assert!(s.plus(false, true));
        assert!(s.times(true, true));
        assert!(!s.times(true, false));
    }

    #[test]
    fn i128_handles_large_intermediates() {
        let s = i128_plus_times();
        let big = 1i128 << 100;
        assert_eq!(s.times(big, 2), 1i128 << 101);
    }

    #[test]
    fn monoid_commutes_and_associates_spot() {
        let s = u64_plus_times();
        for a in 0..5u64 {
            for b in 0..5u64 {
                assert_eq!(s.plus(a, b), s.plus(b, a));
                for c in 0..5u64 {
                    assert_eq!(s.plus(s.plus(a, b), c), s.plus(a, s.plus(b, c)));
                }
            }
        }
    }
}
