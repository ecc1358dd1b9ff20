//! Outcome interpretation: contribution factors (Equation 5).
//!
//! `con(xᵢ) ≜ Y − X′ ∗ K` where `X′` is the input with feature `i`
//! removed — occlusion through the distilled model. We report the
//! Frobenius norm of that difference as the scalar contribution
//! score, and provide the three granularities the paper evaluates:
//! per-feature (pixels), per-block (Figure 5's image sub-blocks) and
//! per-column (Figure 6's trace clock cycles).
//!
//! Every score is a score lane of [`xai_accel::scores`]: the host maps
//! ([`contribution`], [`block_contributions`], [`column_contributions`])
//! are that entry with no clock, and [`contributions_batch_on`] is the
//! same request through an [`Accelerator`], charged — the same bits.

use crate::distill::DistilledModel;
use std::cmp::Ordering;
use xai_accel::{occluded, scores, Accelerator, Rect};
use xai_tensor::{Matrix, Result, TensorError};

/// A region of the input to occlude when computing one contribution
/// factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// A single element `(row, col)`.
    Element(usize, usize),
    /// A rectangular block: top-left `(r0, c0)`, size `(h, w)`.
    Block(usize, usize, usize, usize),
    /// An entire column (a clock cycle in a trace table).
    Column(usize),
    /// An entire row (a register in a trace table).
    Row(usize),
}

/// The `(rows, cols)` ranges `region` covers of an `m × n` matrix —
/// the one bounds check behind [`occlude`], [`contribution`] and
/// [`contributions_batch_on`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the region exceeds the
/// matrix bounds.
fn region_ranges((m, n): (usize, usize), region: Region) -> Result<Rect> {
    let out_of_bounds = |left, op| {
        Err(TensorError::ShapeMismatch {
            left,
            right: (m, n),
            op,
        })
    };
    // Caller-supplied extents: a sum that would wrap saturates, and
    // `usize::MAX` is past every dimension a matrix can have.
    let end = |start: usize, len: usize| start.saturating_add(len);
    Ok(match region {
        Region::Element(r, c) if r >= m || c >= n => {
            return out_of_bounds((r, c), "occlude element")
        }
        Region::Block(r0, c0, h, w) if end(r0, h) > m || end(c0, w) > n => {
            return out_of_bounds((end(r0, h), end(c0, w)), "occlude block")
        }
        Region::Column(c) if c >= n => return out_of_bounds((0, c), "occlude column"),
        Region::Row(r) if r >= m => return out_of_bounds((r, 0), "occlude row"),
        Region::Element(r, c) => (r..r + 1, c..c + 1),
        Region::Block(r0, c0, h, w) => (r0..r0 + h, c0..c0 + w),
        Region::Column(c) => (0..m, c..c + 1),
        Region::Row(r) => (r..r + 1, 0..n),
    })
}

/// Returns `x` with the region zeroed — the `X′` of Equation 5.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the region exceeds the
/// matrix bounds.
pub fn occlude(x: &Matrix<f64>, region: Region) -> Result<Matrix<f64>> {
    occluded(x, &region_ranges(x.shape(), region)?)
}

/// Contribution factor of one region: `‖Y − X′ ∗ K‖_F`, on the host
/// ([`xai_accel::scores`] of the region's rectangle).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the region exceeds `x`'s
/// bounds, or when `y` or the model does not have `x`'s shape.
pub fn contribution(
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    region: Region,
) -> Result<f64> {
    let rect = region_ranges(x.shape(), region)?;
    Ok(scores(x, y, &[rect], model.prepared())?[0])
}

/// Contribution factors for a whole batch of regions at once,
/// exploiting the platform's multi-input parallelism (§III-D of the
/// paper): one [`Accelerator::contribution_scores`] submission, a lane
/// per region.
///
/// Bit-identical across every route of every built-in platform
/// (direct, queued, pooled; any batch composition) and to the host
/// [`contribution`] of each region: one score lane per region, within
/// the bound of the interpretation-phase numerics contract
/// (ARCHITECTURE.md) of the staged per-region chain.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a region exceeds `x`'s
/// bounds — before anything is submitted or charged; propagates shape
/// errors.
pub fn contributions_batch_on(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    regions: &[Region],
) -> Result<Vec<f64>> {
    if regions.is_empty() {
        return Ok(Vec::new());
    }
    let rects: Vec<_> = regions
        .iter()
        .map(|&r| region_ranges(x.shape(), r))
        .collect::<Result<_>>()?;
    acc.contribution_scores(x, y, &rects, model.prepared())
}

/// Per-block contribution scores on a `grid × grid` decomposition of
/// the input (the paper's Figure 5: "we segmented the given image
/// into square sub-blocks"), on the host ([`xai_accel::scores`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grid` does not divide
/// both input dimensions, or when `y` or the model does not have `x`'s
/// shape.
pub fn block_contributions(
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    grid: usize,
) -> Result<Matrix<f64>> {
    let scores = scores(x, y, &block_rects(x.shape(), grid)?, model.prepared())?;
    Matrix::from_vec(grid, grid, scores)
}

/// The `grid × grid` decomposition of an `m × n` input into equal
/// [`Region::Block`]s, row-major — the one region list behind every
/// block map.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grid` is zero or does
/// not divide both dimensions.
pub(crate) fn block_regions((m, n): (usize, usize), grid: usize) -> Result<Vec<Region>> {
    if grid == 0 || m % grid != 0 || n % grid != 0 {
        return Err(TensorError::ShapeMismatch {
            left: (m, n),
            right: (grid, grid),
            op: "block grid must divide input",
        });
    }
    let (bh, bw) = (m / grid, n / grid);
    Ok((0..grid)
        .flat_map(|by| (0..grid).map(move |bx| Region::Block(by * bh, bx * bw, bh, bw)))
        .collect())
}

/// [`block_regions`] as the rectangles they cover.
///
/// # Errors
///
/// As [`block_regions`].
pub(crate) fn block_rects(shape: (usize, usize), grid: usize) -> Result<Vec<Rect>> {
    let regions = block_regions(shape, grid)?;
    regions
        .into_iter()
        .map(|r| region_ranges(shape, r))
        .collect()
}

/// Per-column contribution scores (the paper's Figure 6: per clock
/// cycle of a trace table), on the host ([`xai_accel::scores`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `y` or the model does
/// not have `x`'s shape.
pub fn column_contributions(
    model: &DistilledModel,
    x: &Matrix<f64>,
    y: &Matrix<f64>,
) -> Result<Vec<f64>> {
    let rects: Vec<Rect> = (0..x.cols()).map(|c| (0..x.rows(), c..c + 1)).collect();
    scores(x, y, &rects, model.prepared())
}

/// Index of the highest-scoring entry of a score slice (the last of
/// equal scores, `0` for an empty slice). NaN ranks above every
/// number: one non-finite input element makes NaN the score of every
/// occlusion that keeps it, and such a poisoned map points at the
/// poison instead of panicking.
pub fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .max_by(|a, b| nan_high(a.1, b.1))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The crate's order on scores: numbers by value, NaN above every number
/// and equal to NaN — total, so no ranking panics on a poisoned score.
pub(crate) fn nan_high(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// `(row, col)` of the highest-scoring cell of a score matrix (see
/// [`argmax`] for ties and NaN).
pub fn argmax2(scores: &Matrix<f64>) -> (usize, usize) {
    let flat = argmax(scores.as_slice());
    (flat / scores.cols(), flat % scores.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distill::SolveStrategy;
    use xai_tensor::conv::conv2d_circular;
    use xai_tensor::ops;

    fn model_and_pair() -> (DistilledModel, Matrix<f64>, Matrix<f64>) {
        let k = Matrix::from_fn(6, 6, |r, c| ((r + c * 2) % 5) as f64 * 0.2).unwrap();
        let x = Matrix::from_fn(6, 6, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0).unwrap();
        let y = conv2d_circular(&x, &k).unwrap();
        let m = DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
        (m, x, y)
    }

    #[test]
    fn occlusion_zeroes_exactly_the_region() {
        let x = Matrix::filled(4, 4, 1.0).unwrap();
        let e = occlude(&x, Region::Element(1, 2)).unwrap();
        assert_eq!(e[(1, 2)], 0.0);
        assert_eq!(e.sum(), 15.0);
        let b = occlude(&x, Region::Block(0, 0, 2, 2)).unwrap();
        assert_eq!(b.sum(), 12.0);
        let c = occlude(&x, Region::Column(3)).unwrap();
        assert_eq!(c.sum(), 12.0);
        let r = occlude(&x, Region::Row(0)).unwrap();
        assert_eq!(r.sum(), 12.0);
    }

    #[test]
    fn occlusion_bounds_checked() {
        let x = Matrix::filled(4, 4, 1.0).unwrap();
        assert!(occlude(&x, Region::Element(4, 0)).is_err());
        assert!(occlude(&x, Region::Block(3, 3, 2, 2)).is_err());
        assert!(occlude(&x, Region::Column(4)).is_err());
        assert!(occlude(&x, Region::Row(9)).is_err());
        // Extents whose sum wraps: in release the first returned `Ok`
        // with nothing occluded and the second panicked on a slice.
        let wrapping = [
            Region::Block(usize::MAX, 0, 2, 1),
            Region::Block(0, usize::MAX - 1, 1, 3),
            Region::Block(1, 1, usize::MAX, usize::MAX),
        ];
        let is_block_error = |err| {
            let op = "occlude block";
            matches!(err, TensorError::ShapeMismatch { op: o, .. } if o == op)
        };
        for region in wrapping {
            assert!(
                is_block_error(occlude(&x, region).unwrap_err()),
                "{region:?}"
            );
        }
        // The same typed error through a batch on a built-in platform,
        // before anything is submitted or charged.
        let (model, x, y) = model_and_pair();
        let gpu = xai_accel::GpuModel::gtx1080();
        for region in wrapping {
            let regions = [Region::Block(0, 0, 2, 2), region];
            let err = contributions_batch_on(&gpu, &model, &x, &y, &regions).unwrap_err();
            assert!(is_block_error(err), "{region:?}");
        }
        // And every other kind of region at the far end of `usize`,
        // where `r + 1` would wrap: each its own typed error, on every
        // built-in route.
        let far = [
            (Region::Element(usize::MAX, 0), "occlude element"),
            (Region::Element(0, usize::MAX), "occlude element"),
            (
                Region::Element(usize::MAX - 1, usize::MAX),
                "occlude element",
            ),
            (Region::Row(usize::MAX), "occlude row"),
            (Region::Row(usize::MAX - 1), "occlude row"),
            (Region::Column(usize::MAX), "occlude column"),
            (Region::Column(usize::MAX - 1), "occlude column"),
        ];
        let queued = xai_accel::TpuAccel::tpu_v2().with_batching(std::time::Duration::ZERO, 16);
        let platforms: [&dyn Accelerator; 3] = [&gpu, &xai_accel::CpuModel::i7_3700(), &queued];
        for (region, op) in far {
            let is_its_error =
                |err| matches!(err, TensorError::ShapeMismatch { op: o, .. } if o == op);
            assert!(is_its_error(occlude(&x, region).unwrap_err()), "{region:?}");
            for acc in platforms {
                let regions = [Region::Row(0), region];
                let err = contributions_batch_on(acc, &model, &x, &y, &regions).unwrap_err();
                assert!(is_its_error(err), "{}: {region:?}", acc.name());
            }
        }
        for acc in platforms {
            assert_eq!(acc.stats().kernels, 0, "{}", acc.name());
        }
    }

    #[test]
    fn zero_feature_has_zero_contribution() {
        // Occluding an element that is already 0 changes nothing.
        let (model, mut x, _) = model_and_pair();
        x[(2, 2)] = 0.0;
        let y = model.predict(&x).unwrap();
        let c = contribution(&model, &x, &y, Region::Element(2, 2)).unwrap();
        assert!(c < 1e-9);
    }

    #[test]
    fn larger_magnitude_features_contribute_more() {
        let (model, mut x, _) = model_and_pair();
        x[(0, 0)] = 10.0;
        x[(3, 3)] = 0.5;
        let y = model.predict(&x).unwrap();
        let big = contribution(&model, &x, &y, Region::Element(0, 0)).unwrap();
        let small = contribution(&model, &x, &y, Region::Element(3, 3)).unwrap();
        assert!(big > small);
    }

    #[test]
    fn contribution_equals_energy_of_removed_signal_through_kernel() {
        // Y − X′∗K = (X − X′)∗K by linearity; check numerically.
        let (model, x, _) = model_and_pair();
        let y = model.predict(&x).unwrap();
        let region = Region::Block(2, 2, 2, 2);
        let via_con = contribution(&model, &x, &y, region).unwrap();
        let removed = ops::sub(&x, &occlude(&x, region).unwrap()).unwrap();
        let through_k = conv2d_circular(&removed, model.kernel()).unwrap();
        assert!((via_con - through_k.frobenius_norm()).abs() < 1e-6);
    }

    #[test]
    fn feature_map_shape_and_block_grid() {
        let (model, x, y) = model_and_pair();
        let blocks = block_contributions(&model, &x, &y, 3).unwrap();
        assert_eq!(blocks.shape(), (3, 3));
        assert!(block_contributions(&model, &x, &y, 4).is_err()); // 4 ∤ 6
        assert!(block_contributions(&model, &x, &y, 0).is_err());
    }

    #[test]
    fn column_contributions_cover_all_cycles() {
        let (model, x, y) = model_and_pair();
        let cols = column_contributions(&model, &x, &y).unwrap();
        assert_eq!(cols.len(), 6);
        assert!(cols.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn argmax_helpers() {
        assert_eq!(argmax(&[0.1, 3.0, 2.0]), 1);
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![9.0, 0.0]]).unwrap();
        assert_eq!(argmax2(&m), (1, 0));
        // Ties go to the last of equals; nothing to rank is index 0.
        assert_eq!(argmax(&[3.0, 1.0, 3.0, 2.0]), 2);
        assert_eq!(argmax(&[0.0, -0.0]), 1);
        assert_eq!(argmax(&[]), 0);
        // NaN of either sign outranks every number (panicked before).
        assert_eq!(argmax(&[1.0, f64::NAN, f64::INFINITY]), 1);
        assert_eq!(argmax(&[-f64::NAN, 7.0]), 0);
        let poisoned = Matrix::from_rows(&[vec![f64::NAN, 2.0], vec![f64::NAN, 5.0]]).unwrap();
        assert_eq!(argmax2(&poisoned), (1, 0));
    }

    /// The host score is the staged chain's on an accelerator — the lane
    /// route of [`Accelerator::contribution_scores`]: the occlusion
    /// through `filter_diff_batch` and the difference's norm.
    #[test]
    fn accelerated_contribution_matches_host() {
        use xai_accel::GpuModel;
        let (model, x, y) = model_and_pair();
        let gpu = GpuModel::gtx1080();
        let host = contribution(&model, &x, &y, Region::Column(1)).unwrap();
        let lane = occlude(&x, Region::Column(1)).unwrap().to_complex();
        let dev = gpu
            .filter_diff_batch(&[lane], model.kernel_spectrum(), &y)
            .unwrap()[0]
            .frobenius_norm();
        assert!((host - dev).abs() < 1e-9);
        assert!(gpu.elapsed_seconds() > 0.0);
    }
}
