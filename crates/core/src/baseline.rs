//! The baseline the paper accelerates away from: a LIME-style local
//! surrogate explainer (Ribeiro et al., "Why should I trust you?",
//! KDD 2016 — the paper's reference \[10\] and its archetype of
//! "formatting interpretability as an optimization problem").
//!
//! For each explanation, the baseline draws many random occlusion
//! patterns, queries the black-box model for every one of them, and
//! fits a weighted linear surrogate — "numerous iterations of
//! time-consuming complex computations" (paper §I). The closed-form
//! distillation of `xai-core` replaces all of it with one Fourier
//! round trip; `cargo run -p xai-bench --bin report` measures the real
//! wall-clock gap between the two approaches on the same model.
//!
//! Kept because: it is the §I LIME claim — `report`'s "§I vs iterative
//! XAI" row (`xai_bench::claims::iterative_baseline`) compares the
//! product against it.

use crate::contribution::{nan_high, occlude, Region};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_tensor::linalg::ridge_regression;
use xai_tensor::{Matrix, Result, TensorError};

/// A LIME-style surrogate explanation over a fixed region set.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateExplanation {
    /// Linear surrogate weight per region (importance scores).
    pub weights: Vec<f64>,
    /// Region with the largest absolute weight (NaN ranks above every
    /// number).
    pub top_region: usize,
    /// Number of black-box queries spent.
    pub model_queries: usize,
}

/// Configuration of the LIME-style baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimeExplainer {
    /// Number of perturbation samples (black-box queries) per
    /// explanation. LIME defaults to thousands; even hundreds make
    /// the iterative cost visible.
    pub samples: usize,
    /// Ridge regularisation of the surrogate fit.
    pub lambda: f64,
    /// Probability of keeping a region active in a perturbation.
    pub keep_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LimeExplainer {
    fn default() -> Self {
        LimeExplainer {
            samples: 200,
            lambda: 1e-3,
            keep_probability: 0.5,
            seed: 0,
        }
    }
}

impl LimeExplainer {
    /// Creates a baseline explainer with an explicit sample budget.
    pub fn new(samples: usize, seed: u64) -> Self {
        LimeExplainer {
            samples,
            seed,
            ..Self::default()
        }
    }

    /// Explains one input by fitting a local linear surrogate over
    /// `regions`: each perturbation zeroes a random subset of the
    /// regions, `score` queries the black-box model, and a ridge
    /// regression recovers per-region weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty region
    /// set or zero samples, and propagates `score`/shape errors.
    pub fn explain(
        &self,
        mut score: impl FnMut(&Matrix<f64>) -> Result<f64>,
        x: &Matrix<f64>,
        regions: &[Region],
    ) -> Result<SurrogateExplanation> {
        if regions.is_empty() || self.samples == 0 {
            return Err(TensorError::EmptyDimension);
        }
        let d = regions.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        // Design matrix: one row per perturbation, 0/1 per region
        // (1 = region kept), plus an intercept column.
        let mut design = Matrix::zeros(self.samples, d + 1)?;
        let mut targets = Vec::with_capacity(self.samples);
        for s in 0..self.samples {
            let mut perturbed = x.clone();
            for (j, &region) in regions.iter().enumerate() {
                let keep = rng.random::<f64>() < self.keep_probability;
                if keep {
                    design[(s, j)] = 1.0;
                } else {
                    perturbed = occlude(&perturbed, region)?;
                }
            }
            design[(s, d)] = 1.0; // intercept
            targets.push(score(&perturbed)?);
        }
        let mut weights = ridge_regression(&design, &targets, self.lambda)?;
        weights.pop(); // drop the intercept
        let top_region = weights
            .iter()
            .enumerate()
            .max_by(|a, b| nan_high(&a.1.abs(), &b.1.abs()))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Ok(SurrogateExplanation {
            weights,
            top_region,
            model_queries: self.samples,
        })
    }
}

/// Top-1 agreement between two importance rankings over the same
/// region set: 1.0 when both put the same region first.
pub fn top1_agreement(a: &[f64], b: &[f64]) -> f64 {
    let arg = |v: &[f64]| {
        v.iter()
            .enumerate()
            .max_by(|x, y| nan_high(&x.1.abs(), &y.1.abs()))
            .map(|(i, _)| i)
            .unwrap_or(0)
    };
    if a.is_empty() || a.len() != b.len() {
        return 0.0;
    }
    if arg(a) == arg(b) {
        1.0
    } else {
        0.0
    }
}

/// Spearman rank correlation between two score vectors — how well the
/// fast closed-form explanation preserves the baseline's ranking.
pub fn spearman_correlation(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 0.0;
    }
    let rank = |v: &[f64]| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&i, &j| nan_high(&v[i], &v[j]));
        let mut ranks = vec![0.0; v.len()];
        // Average ranks over ties (standard Spearman treatment).
        let mut start = 0;
        while start < idx.len() {
            let mut end = start;
            while end + 1 < idx.len() && v[idx[end + 1]] == v[idx[start]] {
                end += 1;
            }
            let avg = (start + end) as f64 / 2.0;
            for &i in &idx[start..=end] {
                ranks[i] = avg;
            }
            start = end + 1;
        }
        ranks
    };
    let (ra, rb) = (rank(a), rank(b));
    let n = a.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut num = 0.0;
    let mut da = 0.0;
    let mut db = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        num += (x - mean) * (y - mean);
        da += (x - mean) * (x - mean);
        db += (y - mean) * (y - mean);
    }
    if da == 0.0 || db == 0.0 {
        return 0.0;
    }
    num / (da * db).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contribution::block_contributions;
    use crate::distill::{DistilledModel, SolveStrategy};
    use xai_tensor::conv::conv2d_circular;

    /// A transparent "black box": score = weighted sum concentrated on
    /// the (1, 1) block of a 2×2 grid.
    fn block_score(x: &Matrix<f64>) -> Result<f64> {
        let mut s = 0.0;
        for r in 4..8 {
            for c in 4..8 {
                s += x[(r, c)];
            }
        }
        Ok(s + 0.01 * x[(0, 0)])
    }

    fn block_regions() -> Vec<Region> {
        (0..2)
            .flat_map(|by| (0..2).map(move |bx| Region::Block(by * 4, bx * 4, 4, 4)))
            .collect()
    }

    #[test]
    fn lime_finds_the_decisive_block() {
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        let lime = LimeExplainer::new(100, 3);
        let ex = lime.explain(block_score, &x, &block_regions()).unwrap();
        // Region 3 is Block(4, 4, 4, 4) — the one the score reads.
        assert_eq!(ex.top_region, 3, "weights {:?}", ex.weights);
        assert_eq!(ex.model_queries, 100);
        // The decisive region's weight dwarfs the others.
        for (i, w) in ex.weights.iter().enumerate() {
            if i != 3 {
                assert!(
                    ex.weights[3].abs() > w.abs() * 3.0,
                    "weights {:?}",
                    ex.weights
                );
            }
        }
    }

    #[test]
    fn lime_is_deterministic_per_seed() {
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        let a = LimeExplainer::new(50, 7)
            .explain(block_score, &x, &block_regions())
            .unwrap();
        let b = LimeExplainer::new(50, 7)
            .explain(block_score, &x, &block_regions())
            .unwrap();
        assert_eq!(a, b);
        let c = LimeExplainer::new(50, 8)
            .explain(block_score, &x, &block_regions())
            .unwrap();
        assert_ne!(a.weights, c.weights);
    }

    #[test]
    fn lime_validates_inputs() {
        let x = Matrix::filled(4, 4, 1.0).unwrap();
        let lime = LimeExplainer::default();
        assert!(lime.explain(block_score, &x, &[]).is_err());
        let zero = LimeExplainer::new(0, 0);
        assert!(zero
            .explain(block_score, &x, &[Region::Element(0, 0)])
            .is_err());
    }

    #[test]
    fn closed_form_agrees_with_lime_on_convolutional_black_box() {
        // Black box = convolution; both methods must rank the most
        // energetic block first.
        let k = Matrix::from_fn(8, 8, |r, c| ((r + c) % 3) as f64 * 0.3 + 0.1).unwrap();
        let mut x = Matrix::filled(8, 8, 0.2).unwrap();
        for r in 4..8 {
            for c in 0..4 {
                x[(r, c)] = 2.0; // block (1, 0) dominates
            }
        }
        let y = conv2d_circular(&x, &k).unwrap();
        let model =
            DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
        let fast = block_contributions(&model, &x, &y, 2).unwrap();
        let fast_flat: Vec<f64> = fast.as_slice().to_vec();

        let score =
            |p: &Matrix<f64>| -> Result<f64> { Ok(conv2d_circular(p, &k)?.frobenius_norm()) };
        let lime = LimeExplainer::new(150, 1);
        let slow = lime.explain(score, &x, &block_regions()).unwrap();

        assert_eq!(top1_agreement(&fast_flat, &slow.weights), 1.0);
        assert!(spearman_correlation(&fast_flat, &slow.weights) > 0.5);
    }

    #[test]
    fn spearman_properties() {
        assert!((spearman_correlation(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman_correlation(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(spearman_correlation(&[1.0], &[1.0]), 0.0);
        assert_eq!(spearman_correlation(&[1.0, 2.0], &[1.0]), 0.0);
        assert_eq!(spearman_correlation(&[1.0, 1.0], &[1.0, 2.0]), 0.0);
        // A NaN ranks above every number.
        let rho = spearman_correlation(&[1.0, f64::NAN, 3.0], &[1.0, 3.0, 2.0]);
        assert!((rho - 1.0).abs() < 1e-12, "{rho}");
    }

    #[test]
    fn top1_agreement_edge_cases() {
        assert_eq!(top1_agreement(&[], &[]), 0.0);
        assert_eq!(top1_agreement(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(top1_agreement(&[0.1, 0.9], &[5.0, 9.0]), 1.0);
        assert_eq!(top1_agreement(&[0.9, 0.1], &[5.0, 9.0]), 0.0);
        // A NaN ranks above every number.
        assert_eq!(top1_agreement(&[0.5, f64::NAN, 0.9], &[0.0, 9.0, 1.0]), 1.0);
    }

    /// A NaN weight ranks above every number: the top region points at
    /// it instead of panicking.
    #[test]
    fn lime_ranks_a_nan_weight_first() {
        let x = Matrix::filled(8, 8, 1.0).unwrap();
        // NaN whenever the decisive block is kept.
        let poisoned = |m: &Matrix<f64>| {
            if m[(4, 4)] == 0.0 {
                block_score(m)
            } else {
                Ok(f64::NAN)
            }
        };
        let ex = LimeExplainer::new(50, 3)
            .explain(poisoned, &x, &block_regions())
            .unwrap();
        assert!(ex.weights[ex.top_region].is_nan(), "{ex:?}");
    }
}
