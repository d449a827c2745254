//! Three-component vector math, generic over `f32`/`f64`.
//!
//! The WSE implementation in the paper computes forces in FP32 while the
//! LAMMPS reference uses FP64; the [`Real`] abstraction lets the same
//! force kernels be instantiated at either precision so the two code
//! paths can be cross-validated bit-for-bit at the algorithm level.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar abstraction (implemented for `f32` and `f64`).
pub trait Real:
    Copy
    + Clone
    + Debug
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    const TWO: Self;
    const HALF: Self;

    fn from_f64(x: f64) -> Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    fn exp(self) -> Self;
    fn powi(self, n: i32) -> Self;
    fn min_val(self, other: Self) -> Self;
    fn max_val(self, other: Self) -> Self;
    fn is_finite_val(self) -> bool;
    /// Reciprocal square root. On the WSE this is a Newton–Raphson
    /// refinement of a seed (8 FLOPs in the paper's Table III); here we
    /// delegate to `1/sqrt` which is numerically equivalent.
    #[inline]
    fn rsqrt(self) -> Self {
        Self::ONE / self.sqrt()
    }
}

macro_rules! impl_real {
    ($t:ty) => {
        impl Real for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const TWO: Self = 2.0;
            const HALF: Self = 0.5;

            #[inline]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }
            #[inline]
            fn min_val(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline]
            fn max_val(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline]
            fn is_finite_val(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_real!(f32);
impl_real!(f64);

/// A 3-vector of scalars, used for positions, velocities, and forces.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Vec3<T> {
    pub x: T,
    pub y: T,
    pub z: T,
}

/// `Vec3<f64>` — reference precision.
pub type V3d = Vec3<f64>;
/// `Vec3<f32>` — WSE tile precision.
pub type V3f = Vec3<f32>;

impl<T: Real> Vec3<T> {
    pub const fn new(x: T, y: T, z: T) -> Self {
        Self { x, y, z }
    }

    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO, T::ZERO)
    }

    pub fn splat(v: T) -> Self {
        Self::new(v, v, v)
    }

    #[inline]
    pub fn dot(self, o: Self) -> T {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn norm_sq(self) -> T {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> T {
        self.norm_sq().sqrt()
    }

    #[inline]
    pub fn cross(self, o: Self) -> Self {
        Self::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Component-wise max-norm (Chebyshev norm). The paper's assignment
    /// cost C(g) is defined in this norm.
    #[inline]
    pub fn max_norm(self) -> T {
        self.x.abs().max_val(self.y.abs()).max_val(self.z.abs())
    }

    /// Max-norm of the (x, y) components only — the in-plane displacement
    /// used for the Fig. 9 assignment-cost experiment.
    #[inline]
    pub fn max_norm_xy(self) -> T {
        self.x.abs().max_val(self.y.abs())
    }

    #[inline]
    pub fn scale(self, s: T) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }

    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n == T::ZERO {
            Self::zero()
        } else {
            self.scale(T::ONE / n)
        }
    }

    pub fn is_finite(self) -> bool {
        self.x.is_finite_val() && self.y.is_finite_val() && self.z.is_finite_val()
    }

    /// Cast to another scalar precision.
    pub fn cast<U: Real>(self) -> Vec3<U> {
        Vec3::new(
            U::from_f64(self.x.to_f64()),
            U::from_f64(self.y.to_f64()),
            U::from_f64(self.z.to_f64()),
        )
    }

    pub fn to_array(self) -> [T; 3] {
        [self.x, self.y, self.z]
    }

    pub fn from_array(a: [T; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl<T: Real> Add for Vec3<T> {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl<T: Real> Sub for Vec3<T> {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl<T: Real> Neg for Vec3<T> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl<T: Real> Mul<T> for Vec3<T> {
    type Output = Self;
    #[inline]
    fn mul(self, s: T) -> Self {
        self.scale(s)
    }
}

impl<T: Real> Div<T> for Vec3<T> {
    type Output = Self;
    #[inline]
    fn div(self, s: T) -> Self {
        Self::new(self.x / s, self.y / s, self.z / s)
    }
}

impl<T: Real> AddAssign for Vec3<T> {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        self.x += o.x;
        self.y += o.y;
        self.z += o.z;
    }
}

impl<T: Real> SubAssign for Vec3<T> {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        self.x -= o.x;
        self.y -= o.y;
        self.z -= o.z;
    }
}

impl<T: Real> Sum for Vec3<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let v = V3d::new(3.0, 4.0, 12.0);
        assert_eq!(v.norm_sq(), 169.0);
        assert_eq!(v.norm(), 13.0);
        assert_eq!(v.dot(V3d::new(1.0, 0.0, 0.0)), 3.0);
    }

    #[test]
    fn cross_is_orthogonal_and_right_handed() {
        let x = V3d::new(1.0, 0.0, 0.0);
        let y = V3d::new(0.0, 1.0, 0.0);
        let z = x.cross(y);
        assert_eq!(z, V3d::new(0.0, 0.0, 1.0));
        assert_eq!(z.dot(x), 0.0);
        assert_eq!(z.dot(y), 0.0);
    }

    #[test]
    fn max_norm_picks_largest_component() {
        let v = V3d::new(-5.0, 2.0, 4.0);
        assert_eq!(v.max_norm(), 5.0);
        assert_eq!(v.max_norm_xy(), 5.0);
        let v = V3d::new(1.0, 2.0, 40.0);
        assert_eq!(v.max_norm_xy(), 2.0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = V3d::new(1.0, -2.0, 3.0);
        let b = V3d::new(0.5, 0.25, -1.0);
        assert_eq!(a + b - b, a);
        assert_eq!(-(-a), a);
        assert_eq!(a * 2.0 / 2.0, a);
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn normalized_has_unit_length() {
        let v = V3d::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-14);
        assert_eq!(V3d::zero().normalized(), V3d::zero());
    }

    #[test]
    fn precision_cast_round_trips_small_values() {
        let v = V3d::new(1.5, -2.25, 0.125); // exactly representable in f32
        let w: V3f = v.cast();
        let back: V3d = w.cast();
        assert_eq!(v, back);
    }

    #[test]
    fn sum_of_vectors() {
        let vs = [V3d::new(1.0, 0.0, 0.0), V3d::new(0.0, 2.0, 0.0)];
        let s: V3d = vs.iter().copied().sum();
        assert_eq!(s, V3d::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn rsqrt_matches_reciprocal_sqrt() {
        let x = 7.5f64;
        assert!((x.rsqrt() - 1.0 / x.sqrt()).abs() < 1e-15);
    }
}
