//! Scalar (ring) abstraction used by every matrix kernel in the workspace.
//!
//! The (m, ℓ)-TCU model multiplies matrices over an arbitrary ring: the
//! paper uses reals for dense/sparse multiplication, non-negative integers
//! for transitive closure and Seidel's APSD, complex numbers for the DFT,
//! bounded integers for long-integer multiplication, and "semiring
//! operations" for the lower-bound arguments. [`Scalar`] captures the ring
//! operations every kernel needs; [`Field`] adds division for Gaussian
//! elimination and polynomial work over `f64` and [`crate::Fp61`].

use std::fmt::Debug;

/// A commutative ring element: the value type matrices are defined over.
///
/// All TCU tensor-unit multiplications and host baselines are generic over
/// this trait. Implementations must be `Copy` and cheap: the simulator's
/// numeric work is `Θ(n^{3/2})` scalar multiply-adds per dense product.
pub trait Scalar: Copy + PartialEq + Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Ring addition.
    #[must_use]
    fn add(self, rhs: Self) -> Self;

    /// Ring subtraction (every ring we use has additive inverses; the one
    /// boolean-flavoured algorithm in the paper — transitive closure — is
    /// implemented over integers with clamping exactly as the paper's
    /// function `D` prescribes, so no sub-free semiring type is needed).
    #[must_use]
    fn sub(self, rhs: Self) -> Self;

    /// Ring multiplication.
    #[must_use]
    fn mul(self, rhs: Self) -> Self;

    /// Additive inverse.
    #[must_use]
    #[inline]
    fn neg(self) -> Self {
        Self::ZERO.sub(self)
    }

    /// Fused multiply-add `self + a * b`; the inner-loop operation of every
    /// matrix product. Override when a fused form is cheaper.
    #[must_use]
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.add(a.mul(b))
    }

    /// Whether this type has a narrow multiplier: values that pass
    /// [`is_narrow`](Scalar::is_narrow) have an exact product from their
    /// low 32 bits. The tiled kernels (`crate::kernels`) take
    /// [`mul_add_narrow`](Scalar::mul_add_narrow) for a call whose `A`
    /// and `B` elements are all narrow, so the choice is a property of
    /// the operand values alone; nothing configures it. The default
    /// (`false`) compiles that check away, so every other type (`f64`,
    /// `f32`, complex, `Fp61`, `i32`, `i128`, …) runs the one wide path.
    const NARROW_MUL: bool = false;

    /// Whether `self` fits the narrow width. For `i64` that is
    /// `self == self as i32 as i64`; for `u64`, `self < 2^32`. Only
    /// consulted when [`NARROW_MUL`](Scalar::NARROW_MUL) is `true`.
    #[must_use]
    #[inline]
    fn is_narrow(self) -> bool {
        false
    }

    /// `self + a * b` with `a` and `b` narrowed to their low 32 bits and
    /// extended back before the multiply. Callers guarantee both
    /// operands are [`is_narrow`](Scalar::is_narrow); then the extension
    /// restores each operand's exact value, the product of two 32-bit
    /// values is exact in 64 bits, and the result is bit-identical to
    /// [`mul_add`](Scalar::mul_add). The gain is the instruction: one
    /// 32×32→64 multiply (`pmuldq`/`pmuludq`) where the wide product is
    /// a full 64-bit multiply.
    #[must_use]
    #[inline]
    fn mul_add_narrow(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
}

/// A [`Scalar`] with exact or approximate division: needed by Gaussian
/// elimination (pivot division) and by twiddle/normalization steps.
pub trait Field: Scalar {
    /// Division; callers guarantee `rhs` is invertible (non-zero).
    #[must_use]
    fn div(self, rhs: Self) -> Self;
}

// `$t => $n` gives `$t` the narrow multiplier over the half-width `$n`:
// `x as $n as $t` sign-extends the low half (zero-extends, for the
// unsigned types below), which is the identity on narrow values and is
// the form LLVM lowers to `pmuldq` (`pmuludq`). The product of two
// half-width values cannot overflow `$t`.
macro_rules! impl_scalar_prim {
    ($($t:ty $(=> $n:ty)?),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0 as $t;
            const ONE: Self = 1 as $t;
            #[inline]
            fn add(self, rhs: Self) -> Self { self + rhs }
            #[inline]
            fn sub(self, rhs: Self) -> Self { self - rhs }
            #[inline]
            fn mul(self, rhs: Self) -> Self { self * rhs }
            $(
            const NARROW_MUL: bool = true;
            #[inline]
            fn is_narrow(self) -> bool { self == self as $n as $t }
            #[inline]
            fn mul_add_narrow(self, a: Self, b: Self) -> Self {
                self + (a as $n as $t) * (b as $n as $t)
            }
            )?
        }
    )*};
}

impl_scalar_prim!(i32, i64 => i32, i128);

// Floats: when the target has hardware FMA, fuse the multiply-add the
// matrix kernels are built from (one rounding, and the instruction the
// micro-kernel's throughput lives on). Without the target feature, fall
// back to the separate multiply + add — `f64::mul_add` would otherwise
// lower to a libm call that is an order of magnitude slower than the
// unfused pair. Every matmul path (naive oracle and tiled kernels) goes
// through this same method, so they agree exactly either way.
macro_rules! impl_scalar_float {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            #[inline]
            fn add(self, rhs: Self) -> Self { self + rhs }
            #[inline]
            fn sub(self, rhs: Self) -> Self { self - rhs }
            #[inline]
            fn mul(self, rhs: Self) -> Self { self * rhs }
            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                #[cfg(target_feature = "fma")]
                { a.mul_add(b, self) }
                #[cfg(not(target_feature = "fma"))]
                { self + a * b }
            }
        }
    )*};
}

impl_scalar_float!(f32, f64);

// Unsigned integers: subtraction is wrapping so that `neg` is the proper
// two's-complement additive inverse (the ring Z/2^k). Long-integer
// multiplication (Theorem 9) relies on additions/multiplications of values
// far below 2^64, and never on subtraction, but Strassen-style kernels may
// form temporary differences that cancel; wrapping keeps them exact.
macro_rules! impl_scalar_uint {
    ($($t:ty $(=> $n:ty)?),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline]
            fn add(self, rhs: Self) -> Self { self.wrapping_add(rhs) }
            #[inline]
            fn sub(self, rhs: Self) -> Self { self.wrapping_sub(rhs) }
            #[inline]
            fn mul(self, rhs: Self) -> Self { self.wrapping_mul(rhs) }
            $(
            const NARROW_MUL: bool = true;
            #[inline]
            fn is_narrow(self) -> bool { self == self as $n as $t }
            #[inline]
            fn mul_add_narrow(self, a: Self, b: Self) -> Self {
                self.wrapping_add((a as $n as $t) * (b as $n as $t))
            }
            )?
        }
    )*};
}

impl_scalar_uint!(u32, u64 => u32, u128);

impl Field for f64 {
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
}

impl Field for f32 {
    #[inline]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_ring_ops() {
        assert_eq!(<f64 as Scalar>::ZERO, 0.0);
        assert_eq!(<f64 as Scalar>::ONE, 1.0);
        assert_eq!(2.0.add(3.0), 5.0);
        assert_eq!(2.0.sub(3.0), -1.0);
        assert_eq!(2.0.mul(3.0), 6.0);
        assert_eq!(Scalar::neg(2.0), -2.0);
        assert_eq!(1.0.mul_add(2.0, 3.0), 7.0);
    }

    #[test]
    fn i64_ring_ops() {
        assert_eq!(7i64.mul_add(2, -3), 1);
        assert_eq!(Scalar::neg(5i64), -5);
    }

    #[test]
    fn narrow_range_ends_at_32_bits() {
        let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
        assert!(lo.is_narrow() && hi.is_narrow() && (-1i64).is_narrow());
        assert!(!(hi + 1).is_narrow() && !(lo - 1).is_narrow());
        assert!(u64::from(u32::MAX).is_narrow() && !(1u64 << 32).is_narrow());
        // Products of the extremes: exact, hence equal to the wide form.
        for (x, y) in [(lo, lo), (lo, hi), (hi, hi), (-1, lo)] {
            assert_eq!(7i64.mul_add_narrow(x, y), 7i64.mul_add(x, y));
        }
        let m = u64::from(u32::MAX);
        assert_eq!(u64::MAX.mul_add_narrow(m, m), u64::MAX.mul_add(m, m));
        // Types without the hook keep the wide path only.
        assert_eq!([i64::NARROW_MUL, u64::NARROW_MUL], [true; 2]);
        let wide_only = [f64::NARROW_MUL, i32::NARROW_MUL, crate::Fp61::NARROW_MUL];
        assert_eq!(wide_only, [false; 3]);
    }

    #[test]
    fn u64_wrapping_neg_is_additive_inverse() {
        let x: u64 = 12345;
        assert_eq!(Scalar::add(Scalar::neg(x), x), 0);
    }

    #[test]
    fn field_division() {
        assert_eq!(Field::div(6.0f64, 3.0), 2.0);
        assert_eq!(Field::div(6.0f32, 4.0), 1.5);
    }
}
