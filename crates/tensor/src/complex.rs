//! Complex arithmetic for Fourier-domain computation.
//!
//! The distillation solver of the paper works in the frequency domain
//! (`F(X) ◦ F(K) = F(Y)`), so complex numbers are a first-class value
//! type throughout the workspace. We implement our own small complex
//! type instead of pulling in an external dependency; it is `Copy`,
//! `repr(C)` and deliberately mirrors the naming of `num_complex`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + im·i`.
///
/// # Examples
///
/// ```
/// use xai_tensor::Complex64;
///
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!(a * b, Complex64::new(5.0, 5.0));
/// assert_eq!(a + b, Complex64::new(4.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r·e^{iθ}`.
    ///
    /// ```
    /// use xai_tensor::Complex64;
    /// let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((z.re).abs() < 1e-12);
    /// assert!((z.im - 2.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// A root of unity `e^{-2πi·k/n}` — the DFT twiddle factor.
    ///
    /// Used pervasively by [`xai-fourier`](https://docs.rs/xai-fourier);
    /// kept here so both crates share one definition.
    #[inline]
    pub fn twiddle(k: i64, n: usize) -> Self {
        debug_assert!(n > 0, "twiddle factor requires n > 0");
        let theta = -2.0 * std::f64::consts::PI * (k as f64) / (n as f64);
        Complex64::from_polar(1.0, theta)
    }

    /// The complex conjugate `re - im·i`.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// The squared magnitude `re² + im²` (cheaper than [`Complex64::abs`]).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `√(re² + im²)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Complex64 {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns `true` when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Returns `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Complex64::from_polar(self.re.exp(), self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl From<(f64, f64)> for Complex64 {
    #[inline]
    fn from((re, im): (f64, f64)) -> Self {
        Complex64::new(re, im)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    /// Complex division.
    ///
    /// Division by zero yields non-finite components, exactly like
    /// `f64` division.
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64::new(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(Complex64::ZERO, Complex64::new(0.0, 0.0));
        assert_eq!(Complex64::ONE, Complex64::new(1.0, 0.0));
        assert_eq!(Complex64::I, Complex64::new(0.0, 1.0));
        assert_eq!(Complex64::from_real(3.5), Complex64::new(3.5, 0.0));
        assert_eq!(Complex64::from(2.0), Complex64::new(2.0, 0.0));
        assert_eq!(Complex64::from((1.0, -1.0)), Complex64::new(1.0, -1.0));
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(2.0, -3.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z + (-z), Complex64::ZERO));
        assert!(close(z / z, Complex64::ONE));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex64::I * Complex64::I, -Complex64::ONE));
    }

    #[test]
    fn conjugate_properties() {
        let z = Complex64::new(1.5, 2.5);
        assert_eq!(z.conj().conj(), z);
        // z · conj(z) = |z|²
        let prod = z * z.conj();
        assert!((prod.re - z.norm_sqr()).abs() < EPS);
        assert!(prod.im.abs() < EPS);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex64::new(-1.0, 1.0);
        let back = Complex64::from_polar(z.abs(), z.arg());
        assert!(close(z, back));
    }

    #[test]
    fn twiddle_is_unit_circle() {
        for n in [1usize, 2, 3, 8, 17] {
            for k in 0..n as i64 {
                let w = Complex64::twiddle(k, n);
                assert!((w.abs() - 1.0).abs() < EPS);
            }
        }
    }

    #[test]
    fn twiddle_n_th_power_is_one() {
        // (e^{-2πi/n})^n = 1
        let n = 7;
        let w = Complex64::twiddle(1, n);
        let mut acc = Complex64::ONE;
        for _ in 0..n {
            acc *= w;
        }
        assert!(close(acc, Complex64::ONE));
    }

    #[test]
    fn division_by_zero_is_nonfinite() {
        let z = Complex64::new(1.0, 1.0) / Complex64::ZERO;
        assert!(!z.is_finite());
    }

    #[test]
    fn exp_of_i_pi_is_minus_one() {
        let z = Complex64::new(0.0, std::f64::consts::PI).exp();
        assert!(close(z, -Complex64::ONE));
    }

    #[test]
    fn scalar_ops() {
        let z = Complex64::new(2.0, -6.0);
        assert!(close(z * 0.5, Complex64::new(1.0, -3.0)));
        assert!(close(z / 2.0, Complex64::new(1.0, -3.0)));
    }

    #[test]
    fn sum_over_iterator() {
        let total: Complex64 = (0..4).map(|k| Complex64::new(k as f64, 1.0)).sum();
        assert!(close(total, Complex64::new(6.0, 4.0)));
    }

    #[test]
    fn assign_ops() {
        let mut z = Complex64::new(1.0, 1.0);
        z += Complex64::ONE;
        assert!(close(z, Complex64::new(2.0, 1.0)));
        z -= Complex64::I;
        assert!(close(z, Complex64::new(2.0, 0.0)));
        z *= Complex64::I;
        assert!(close(z, Complex64::new(0.0, 2.0)));
        z /= Complex64::new(0.0, 2.0);
        assert!(close(z, Complex64::ONE));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn nan_detection() {
        assert!(Complex64::new(f64::NAN, 0.0).is_nan());
        assert!(!Complex64::new(1.0, 2.0).is_nan());
    }
}
