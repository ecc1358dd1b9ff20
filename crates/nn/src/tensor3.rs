//! A channels × height × width activation tensor.
//!
//! The NN substrate works on 3-D volumes, one sample at a time: a
//! mini-batch is a set of per-sample passes, which keeps backward
//! passes simple and explicit.

use xai_tensor::{Matrix, Result, TensorError};

/// The element count of a `channels × height × width` volume,
/// refusing an empty or overflowing shape.
fn element_count(channels: usize, height: usize, width: usize) -> Result<usize> {
    if channels == 0 || height == 0 || width == 0 {
        return Err(TensorError::EmptyDimension);
    }
    channels
        .checked_mul(height)
        .and_then(|n| n.checked_mul(width))
        .ok_or(TensorError::ShapeOverflow {
            dims: vec![channels, height, width],
        })
}

/// A dense `C × H × W` volume of `f64` activations.
///
/// # Examples
///
/// ```
/// use xai_nn::Tensor3;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let mut t = Tensor3::zeros(3, 4, 4)?;
/// t.set(2, 1, 1, 5.0);
/// assert_eq!(t.get(2, 1, 1), 5.0);
/// assert_eq!(t.len(), 48);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Creates a zero-filled volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if any dimension is 0
    /// and [`TensorError::ShapeOverflow`] if their product overflows.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Result<Self> {
        let len = element_count(channels, height, width)?;
        Ok(Tensor3 {
            channels,
            height,
            width,
            data: vec![0.0; len],
        })
    }

    /// Creates a volume from a flat channel-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLength`] on a length mismatch,
    /// [`TensorError::EmptyDimension`] for zero dimensions and
    /// [`TensorError::ShapeOverflow`] if their product overflows.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f64>) -> Result<Self> {
        let len = element_count(channels, height, width)?;
        if data.len() != len {
            return Err(TensorError::DataLength {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(Tensor3 {
            channels,
            height,
            width,
            data,
        })
    }

    /// Builds a volume by evaluating `f(c, y, x)` everywhere.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for zero dimensions.
    pub fn from_fn(
        channels: usize,
        height: usize,
        width: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Result<Self> {
        let mut t = Self::zeros(channels, height, width)?;
        for c in 0..channels {
            for y in 0..height {
                for x in 0..width {
                    t.set(c, y, x, f(c, y, x));
                }
            }
        }
        Ok(t)
    }

    /// Wraps a single-channel matrix.
    pub fn from_matrix(m: &Matrix<f64>) -> Self {
        Tensor3 {
            channels: 1,
            height: m.rows(),
            width: m.cols(),
            data: m.as_slice().to_vec(),
        }
    }

    /// A 1-D feature vector as a `len × 1 × 1` volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty vector.
    pub fn from_features(v: Vec<f64>) -> Result<Self> {
        let n = v.len();
        Self::from_vec(n, 1, 1, v)
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false` (construction forbids empty dims).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    #[inline]
    pub fn get(&self, c: usize, y: usize, x: usize) -> f64 {
        self.data[self.offset(c, y, x)]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    #[inline]
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f64) {
        let i = self.offset(c, y, x);
        self.data[i] = v;
    }

    /// Adds `v` at one position.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of range.
    #[inline]
    pub fn add_at(&mut self, c: usize, y: usize, x: usize, v: f64) {
        let i = self.offset(c, y, x);
        self.data[i] += v;
    }

    #[inline]
    fn offset(&self, c: usize, y: usize, x: usize) -> usize {
        assert!(
            c < self.channels && y < self.height && x < self.width,
            "index ({c},{y},{x}) out of bounds for {:?}",
            self.shape()
        );
        (c * self.height + y) * self.width + x
    }

    /// Flat channel-major view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extracts channel `c` as a matrix.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.channels()`.
    pub fn channel(&self, c: usize) -> Matrix<f64> {
        assert!(c < self.channels, "channel {c} out of range");
        let start = c * self.height * self.width;
        Matrix::from_vec(
            self.height,
            self.width,
            self.data[start..start + self.height * self.width].to_vec(),
        )
        .expect("dims are non-zero by construction")
    }

    /// Elementwise map into a new volume.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Tensor3 {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise combination with an equally-shaped volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] for differing shapes.
    pub fn zip_with(&self, other: &Self, mut f: impl FnMut(f64, f64) -> f64) -> Result<Self> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                left: (self.channels, self.height * self.width),
                right: (other.channels, other.height * other.width),
                op: "tensor3 zip_with",
            });
        }
        Ok(Tensor3 {
            channels: self.channels,
            height: self.height,
            width: self.width,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Index of the maximum element in the flat view — the predicted
    /// class for a logit vector (the last of equal elements, `-0.0`
    /// equal to `+0.0`). NaN ranks above every number, so a poisoned
    /// logit vector points at the poison instead of panicking.
    pub fn argmax(&self) -> usize {
        let nan_high = |a: &f64, b: &f64| {
            a.partial_cmp(b)
                .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
        };
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| nan_high(a.1, b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| (c * 100 + y * 10 + x) as f64).unwrap();
        assert_eq!(t.shape(), (2, 3, 4));
        assert_eq!(t.get(1, 2, 3), 123.0);
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn empty_dims_rejected() {
        assert!(Tensor3::zeros(0, 1, 1).is_err());
        assert!(Tensor3::from_vec(1, 1, 2, vec![0.0]).is_err());
        assert!(Tensor3::from_features(vec![]).is_err());
    }

    #[test]
    fn overflowing_shapes_are_refused() {
        // (2^32, 2^32, 1) on a 64-bit target: the product wraps to 0.
        let half = 1usize << (usize::BITS / 2);
        let quarter = 1usize << (usize::BITS / 4);
        for dims in [[half, half, 1], [1, half, half], [quarter, quarter, half]] {
            let [c, h, w] = dims;
            let overflow = TensorError::ShapeOverflow {
                dims: dims.to_vec(),
            };
            assert_eq!(Tensor3::from_vec(c, h, w, vec![]).unwrap_err(), overflow);
            assert_eq!(Tensor3::zeros(c, h, w).unwrap_err(), overflow);
            let t = Tensor3::from_fn(c, h, w, |_, _, _| unreachable!("no element is built"));
            assert_eq!(t.unwrap_err(), overflow);
        }
    }

    #[test]
    fn channel_extraction_matches_layout() {
        let t = Tensor3::from_fn(3, 2, 2, |c, y, x| (c * 4 + y * 2 + x) as f64).unwrap();
        let ch1 = t.channel(1);
        assert_eq!(ch1[(0, 0)], 4.0);
        assert_eq!(ch1[(1, 1)], 7.0);
    }

    #[test]
    fn from_matrix_roundtrip() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64).unwrap();
        let t = Tensor3::from_matrix(&m);
        assert_eq!(t.channel(0), m);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor3::from_fn(1, 2, 2, |_, y, x| (y + x) as f64).unwrap();
        let doubled = a.map(|v| v * 2.0);
        assert_eq!(doubled.get(0, 1, 1), 4.0);
        let s = a.zip_with(&doubled, |x, y| x + y).unwrap();
        assert_eq!(s.get(0, 1, 1), 6.0);
        let other = Tensor3::zeros(2, 2, 2).unwrap();
        assert!(a.zip_with(&other, |x, _| x).is_err());
    }

    #[test]
    fn argmax_picks_largest() {
        let argmax = |v: &[f64]| Tensor3::from_features(v.to_vec()).unwrap().argmax();
        assert_eq!(argmax(&[0.1, 2.0, -1.0, 1.5]), 1);
        // Ties go to the last of equals, signed zeros included.
        assert_eq!(argmax(&[2.0, 0.5, 2.0, 1.0]), 2);
        assert_eq!(argmax(&[0.0, -0.0]), 1);
        assert_eq!(argmax(&[-0.0, 0.0]), 1);
        // NaN of either sign outranks every number (panicked before).
        assert_eq!(argmax(&[1.0, f64::NAN, f64::INFINITY]), 1);
        assert_eq!(argmax(&[-f64::NAN, 3.0]), 0);
        assert_eq!(argmax(&[f64::NAN, 1.0, -f64::NAN]), 2);
    }

    #[test]
    fn add_at_accumulates() {
        let mut t = Tensor3::zeros(1, 1, 2).unwrap();
        t.add_at(0, 0, 1, 2.5);
        t.add_at(0, 0, 1, 1.0);
        assert_eq!(t.get(0, 0, 1), 3.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_get_panics() {
        let t = Tensor3::zeros(1, 1, 1).unwrap();
        t.get(0, 0, 1);
    }
}
