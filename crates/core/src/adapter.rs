//! Shape adapters between the NN world and the distillation world.
//!
//! The paper states the distilled model maps "input data X" to
//! "output Y" as matrices of equal form (Equation 2) but is silent on
//! how a `d`-class logit vector becomes a matrix of the input's
//! shape. We use the canonical zero-padded embedding: logits occupy
//! the first row's leading entries, the rest is zero
//! ([`embed_output`]). Inputs with channels are reduced by channel mean —
//! the distilled model explains *spatial* structure, matching the
//! paper's block/cycle granularity.

use xai_nn::{Network, Tensor3};
use xai_tensor::{Matrix, Result, TensorError};

/// Embeds a logit vector into an `(m, n)` matrix: row 0 carries the
/// logits, everything else is zero.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the vector is longer
/// than one row.
pub fn embed_output(logits: &[f64], shape: (usize, usize)) -> Result<Matrix<f64>> {
    let (m, n) = shape;
    if logits.len() > n {
        return Err(TensorError::ShapeMismatch {
            left: (1, logits.len()),
            right: (m, n),
            op: "logit vector longer than matrix row",
        });
    }
    let mut out = Matrix::zeros(m, n)?;
    for (j, &v) in logits.iter().enumerate() {
        out[(0, j)] = v;
    }
    Ok(out)
}

/// Reduces a `C × H × W` volume to an `H × W` matrix by channel mean.
pub fn volume_to_matrix(t: &Tensor3) -> Matrix<f64> {
    let (c, h, w) = t.shape();
    Matrix::from_fn(h, w, |y, x| {
        (0..c).map(|ch| t.get(ch, y, x)).sum::<f64>() / c as f64
    })
    .expect("volume dims are non-zero")
}

/// Lifts an `H × W` matrix back to a `C × H × W` volume by
/// broadcasting (used to occlude volumes through matrix regions).
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] if `channels == 0`.
pub fn matrix_to_volume(m: &Matrix<f64>, channels: usize) -> Result<Tensor3> {
    Tensor3::from_fn(channels, m.rows(), m.cols(), |_, y, x| m[(y, x)])
}

/// Builds the distillation training set from a trained network:
/// for every input volume, `X` is the channel-mean matrix and `Y`
/// embeds the network's logits (Figure 2's "corresponding
/// input-output dataset").
///
/// # Errors
///
/// Propagates network forward errors; logits must fit one row.
pub fn pairs_from_network(
    net: &Network,
    inputs: &[Tensor3],
) -> Result<Vec<(Matrix<f64>, Matrix<f64>)>> {
    let mut pairs = Vec::with_capacity(inputs.len());
    for input in inputs {
        let logits = net.forward(input)?;
        let x = volume_to_matrix(input);
        let y = embed_output(logits.as_slice(), x.shape())?;
        pairs.push((x, y));
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_nn::models::vgg_small;

    #[test]
    fn embed_extract_roundtrip() {
        let logits = [1.5, -0.5, 3.0];
        let y = embed_output(&logits, (6, 6)).unwrap();
        assert_eq!(y[(0, 0)], 1.5);
        assert_eq!(y[(0, 2)], 3.0);
        assert_eq!(y[(1, 0)], 0.0);
        assert_eq!(y.row(0)[..3], logits);
    }

    #[test]
    fn embed_rejects_oversized_logits() {
        assert!(embed_output(&[0.0; 7], (6, 6)).is_err());
    }

    #[test]
    fn channel_mean_reduction() {
        let t = Tensor3::from_fn(2, 2, 2, |c, y, x| (c + y + x) as f64).unwrap();
        let m = volume_to_matrix(&t);
        // mean over channels 0 and 1: ((y+x) + (1+y+x))/2
        assert_eq!(m[(0, 0)], 0.5);
        assert_eq!(m[(1, 1)], 2.5);
    }

    #[test]
    fn broadcast_lift() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let t = matrix_to_volume(&m, 3).unwrap();
        assert_eq!(t.shape(), (3, 1, 2));
        assert_eq!(t.get(2, 0, 1), 2.0);
        assert!(matrix_to_volume(&m, 0).is_err());
    }

    #[test]
    fn pairs_have_matching_shapes_and_real_logits() {
        let net = vgg_small(3, 8, 4, 0).unwrap();
        let inputs: Vec<Tensor3> = (0..3)
            .map(|i| Tensor3::from_fn(3, 8, 8, |_, y, x| ((y + x + i) % 5) as f64 * 0.2).unwrap())
            .collect();
        let pairs = pairs_from_network(&net, &inputs).unwrap();
        assert_eq!(pairs.len(), 3);
        for ((x, y), input) in pairs.iter().zip(&inputs) {
            assert_eq!(x.shape(), (8, 8));
            assert_eq!(y.shape(), (8, 8));
            let logits = net.forward(input).unwrap();
            assert_eq!(&y.row(0)[..4], logits.as_slice());
        }
    }
}
