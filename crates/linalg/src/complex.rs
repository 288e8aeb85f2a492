//! Complex number type used throughout the MIDAS reproduction.
//!
//! A minimal, `Copy`, `f64`-based complex scalar with the arithmetic,
//! conjugation and polar helpers required by channel modelling and MU-MIMO
//! precoding.  The implementation mirrors the conventional mathematical
//! definitions; no fast-math shortcuts are taken.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i*im` backed by two `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from its real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_re(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Complex conjugate `re - i*im`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Magnitude (absolute value) `sqrt(re^2 + im^2)`.
    ///
    /// Uses `hypot` for robustness against overflow/underflow.
    #[inline]
    pub fn norm(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `re^2 + im^2`.
    ///
    /// This is the `|h|^2` quantity that shows up throughout the paper's SINR
    /// expressions (Eqn. 4).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a complex number with non-finite components when `self` is
    /// exactly zero, matching IEEE-754 division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.norm();
        let theta = self.arg();
        Complex::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex::from_polar(self.re.exp(), self.im)
    }

    /// Returns `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Checks approximate equality within an absolute tolerance per component.
    #[inline]
    pub fn approx_eq(self, other: Complex, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_re(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division implemented as multiplication by the inverse.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl DivAssign for Complex {
    #[inline]
    fn div_assign(&mut self, rhs: Complex) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, x| acc + x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn addition_and_subtraction_are_componentwise() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert!((a + b).approx_eq(Complex::new(-2.0, 2.5), TOL));
        assert!((a - b).approx_eq(Complex::new(4.0, 1.5), TOL));
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 -4i +6i -8i^2 = 11 + 2i
        assert!((a * b).approx_eq(Complex::new(11.0, 2.0), TOL));
    }

    #[test]
    fn division_is_inverse_of_multiplication() {
        let a = Complex::new(0.7, -1.3);
        let b = Complex::new(2.5, 0.4);
        let q = a / b;
        assert!((q * b).approx_eq(a, 1e-10));
    }

    #[test]
    fn conjugate_negates_imaginary_part() {
        let a = Complex::new(1.5, -2.5);
        assert_eq!(a.conj(), Complex::new(1.5, 2.5));
        // z * conj(z) = |z|^2 (purely real)
        let p = a * a.conj();
        assert!((p.re - a.norm_sqr()).abs() < TOL);
        assert!(p.im.abs() < TOL);
    }

    #[test]
    fn norm_and_norm_sqr_are_consistent() {
        let a = Complex::new(3.0, 4.0);
        assert!((a.norm() - 5.0).abs() < TOL);
        assert!((a.norm_sqr() - 25.0).abs() < TOL);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_3);
        assert!((z.norm() - 2.0).abs() < TOL);
        assert!((z.arg() - std::f64::consts::FRAC_PI_3).abs() < TOL);
    }

    #[test]
    fn inverse_times_self_is_one() {
        let z = Complex::new(-0.3, 0.9);
        assert!((z * z.inv()).approx_eq(Complex::ONE, 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Complex::new(-1.0, 0.1);
        let r = z.sqrt();
        assert!((r * r).approx_eq(z, 1e-10));
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = Complex::new(0.0, std::f64::consts::PI).exp();
        assert!(z.approx_eq(Complex::new(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn sum_iterator_adds_all() {
        let v = vec![
            Complex::new(1.0, 1.0),
            Complex::new(2.0, -0.5),
            Complex::new(-0.5, 0.25),
        ];
        let s: Complex = v.into_iter().sum();
        assert!(s.approx_eq(Complex::new(2.5, 0.75), TOL));
    }

    #[test]
    fn real_scalar_multiplication_commutes() {
        let z = Complex::new(1.25, -0.5);
        assert_eq!(z * 2.0, 2.0 * z);
        assert!((z * 2.0).approx_eq(Complex::new(2.5, -1.0), TOL));
    }

    #[test]
    fn zero_is_additive_identity_one_is_multiplicative() {
        let z = Complex::new(0.123, -4.2);
        assert_eq!(z + Complex::ZERO, z);
        assert!((z * Complex::ONE).approx_eq(z, TOL));
        assert!((z * Complex::I).approx_eq(Complex::new(4.2, 0.123), TOL));
    }
}
