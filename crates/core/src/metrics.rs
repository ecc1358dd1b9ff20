//! Quantitative explanation-quality metrics.
//!
//! The paper evaluates explanation quality qualitatively (Figures 5
//! and 6). This module adds the standard quantitative instruments so
//! the reproduction can *measure* what the paper eyeballs:
//!
//! * **deletion curve / AUC** — remove regions in decreasing claimed
//!   importance and watch the model's output decay; a faithful
//!   explanation makes the curve drop fast (low AUC);
//! * **Gini sparseness** — how concentrated an importance vector is
//!   (1 = all mass on one region, 0 = uniform).

use crate::contribution::{nan_high, occlude, Region};
use xai_tensor::{Matrix, Result, TensorError};

/// Model outputs along the deletion trajectory: entry `i` is the
/// score after the `i` most-important regions have been removed
/// (entry 0 = unperturbed score).
///
/// `importance[j]` ranks `regions[j]`; regions are deleted greedily
/// in decreasing importance, a NaN first.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `importance` and
/// `regions` lengths differ; propagates `score` and occlusion errors.
pub fn deletion_curve(
    mut score: impl FnMut(&Matrix<f64>) -> Result<f64>,
    x: &Matrix<f64>,
    regions: &[Region],
    importance: &[f64],
) -> Result<Vec<f64>> {
    if regions.len() != importance.len() {
        return Err(TensorError::ShapeMismatch {
            left: (regions.len(), 1),
            right: (importance.len(), 1),
            op: "deletion curve rank length",
        });
    }
    let mut order: Vec<usize> = (0..regions.len()).collect();
    order.sort_by(|&a, &b| nan_high(&importance[b].abs(), &importance[a].abs()));
    let mut curve = Vec::with_capacity(regions.len() + 1);
    let mut current = x.clone();
    curve.push(score(&current)?);
    for &idx in &order {
        current = occlude(&current, regions[idx])?;
        curve.push(score(&current)?);
    }
    Ok(curve)
}

/// Normalised area under a deletion curve: curve values are rescaled
/// so the unperturbed score maps to 1 and zero stays 0, then averaged
/// (trapezoidal). Lower is better — the explanation found the inputs
/// the model actually relies on.
pub fn deletion_auc(curve: &[f64]) -> f64 {
    if curve.len() < 2 {
        return 1.0;
    }
    let base = curve[0].abs().max(1e-12);
    let normalised: Vec<f64> = curve.iter().map(|&v| (v / base).abs()).collect();
    let mut area = 0.0;
    for pair in normalised.windows(2) {
        area += (pair[0] + pair[1]) / 2.0;
    }
    area / (normalised.len() - 1) as f64
}

/// Gini coefficient of an importance vector: 0 for perfectly uniform
/// importance, → 1 as all the mass concentrates on one region.
pub fn gini_sparseness(scores: &[f64]) -> f64 {
    let n = scores.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted: Vec<f64> = scores.iter().map(|v| v.abs()).collect();
    sorted.sort_by(nan_high);
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (2.0 * (i + 1) as f64 - n as f64 - 1.0) * v)
        .sum();
    weighted / (n as f64 * total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contribution::block_contributions;
    use crate::distill::{DistilledModel, SolveStrategy};
    use xai_tensor::conv::conv2d_circular;

    fn region_grid() -> Vec<Region> {
        (0..2)
            .flat_map(|by| (0..2).map(move |bx| Region::Block(by * 4, bx * 4, 4, 4)))
            .collect()
    }

    #[test]
    fn deletion_curve_is_monotone_for_additive_score() {
        // score = sum of all entries (all positive): every deletion
        // reduces it.
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        let importance = [4.0, 3.0, 2.0, 1.0];
        let curve = deletion_curve(|m| Ok(m.sum()), &x, &region_grid(), &importance).unwrap();
        assert_eq!(curve.len(), 5);
        for pair in curve.windows(2) {
            assert!(pair[1] < pair[0]);
        }
        assert!(curve[4].abs() < 1e-12);
        // A NaN importance ranks above every number: its region goes
        // first. Block j holds j + 1, so each deletion names its block.
        let x = Matrix::from_fn(8, 8, |r, c| (r / 4 * 2 + c / 4 + 1) as f64).unwrap();
        let importance = [1.0, f64::NAN, 3.0, 2.0];
        let curve = deletion_curve(|m| Ok(m.sum()), &x, &region_grid(), &importance).unwrap();
        assert_eq!(curve, [160.0, 128.0, 80.0, 16.0, 0.0]);
    }

    #[test]
    fn good_explanations_have_lower_auc_than_bad_ones() {
        // Score concentrated on block (1,1); a correct ranking deletes
        // it first, an inverted ranking deletes it last.
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        let score = |m: &Matrix<f64>| -> Result<f64> {
            Ok(m.submatrix(4, 4, 4, 4)?.sum() + 0.05 * m.sum())
        };
        let good = [0.1, 0.1, 0.1, 9.0]; // region 3 = Block(4,4)
        let bad = [9.0, 0.1, 0.1, 0.05];
        let auc_good = deletion_auc(&deletion_curve(score, &x, &region_grid(), &good).unwrap());
        let auc_bad = deletion_auc(&deletion_curve(score, &x, &region_grid(), &bad).unwrap());
        assert!(
            auc_good < auc_bad,
            "good {auc_good} should beat bad {auc_bad}"
        );
    }

    #[test]
    fn distilled_explanation_beats_uniform_ranking() {
        // End-to-end: contribution factors from the distilled model
        // must produce a better (or equal) deletion curve than a
        // uniform ranking on a convolutional black box.
        let k = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 4) as f64 * 0.3).unwrap();
        let mut x = Matrix::filled(8, 8, 0.1).unwrap();
        for r in 0..4 {
            for c in 4..8 {
                x[(r, c)] = 1.5;
            }
        }
        let y = conv2d_circular(&x, &k).unwrap();
        let model =
            DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
        let scores = block_contributions(&model, &x, &y, 2).unwrap();
        let ranked: Vec<f64> = scores.as_slice().to_vec();
        let uniform = vec![1.0; 4];
        let score =
            |m: &Matrix<f64>| -> Result<f64> { Ok(conv2d_circular(m, &k)?.frobenius_norm()) };
        let auc_model = deletion_auc(&deletion_curve(score, &x, &region_grid(), &ranked).unwrap());
        let auc_uniform =
            deletion_auc(&deletion_curve(score, &x, &region_grid(), &uniform).unwrap());
        assert!(auc_model <= auc_uniform + 1e-9);
    }

    #[test]
    fn rank_length_mismatch_rejected() {
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        assert!(deletion_curve(|m| Ok(m.sum()), &x, &region_grid(), &[1.0]).is_err());
    }

    #[test]
    fn auc_edge_cases() {
        assert_eq!(deletion_auc(&[1.0]), 1.0);
        assert_eq!(deletion_auc(&[]), 1.0);
        // Constant curve ⇒ AUC 1 (explanation removed nothing useful).
        assert!((deletion_auc(&[2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        // Immediate collapse ⇒ AUC ≈ 0.5/steps.
        let fast = deletion_auc(&[1.0, 0.0, 0.0]);
        assert!(fast < 0.3);
    }

    #[test]
    fn gini_behaviour() {
        assert_eq!(gini_sparseness(&[]), 0.0);
        assert_eq!(gini_sparseness(&[0.0, 0.0]), 0.0);
        let uniform = gini_sparseness(&[1.0, 1.0, 1.0, 1.0]);
        assert!(uniform.abs() < 1e-12);
        let concentrated = gini_sparseness(&[0.0, 0.0, 0.0, 10.0]);
        assert!(concentrated > 0.7);
        assert!(gini_sparseness(&[1.0, 2.0, 3.0]) > uniform);
        assert!(
            gini_sparseness(&[1.0, f64::NAN, 2.0]).is_nan(),
            "NaN, not a panic"
        );
    }
}
