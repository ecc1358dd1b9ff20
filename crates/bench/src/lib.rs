//! # xai-bench
//!
//! Benchmark harness reproducing the paper's evaluation (§IV). Every
//! claim is one function in [`claims`], and one binary, `report`,
//! runs them all, prints the tables behind each verdict and gates
//! them:
//!
//! | Artefact | Claim | Paper claim reproduced |
//! |---|---|---|
//! | Table I | [`claims::table1`] | TPU classification ≈25× GPU, ≈55× CPU |
//! | Table II | [`claims::table2`] | TPU interpretation ≈13× GPU, ≈39× CPU |
//! | Figure 4 | [`claims::fig4`] | scalability vs matrix size; >30× at scale |
//! | Figure 5 | [`claims::fig5`] | image block saliency finds the right blocks |
//! | Figure 6 | [`claims::fig6`] | trace attribution pinpoints the attack cycle |
//! | §IV-B | [`claims::energy`] | the TPU saves energy over CPU and GPU |
//! | §I | [`claims::iterative_baseline`] | the closed form replaces iterative XAI |
//!
//! `compare_baseline` diffs `report --json` against the committed
//! `BENCH_baseline.json`. Criterion benches (`cargo bench -p
//! xai-bench`) measure *real* wall-clock of the kernels and three
//! ablations: solve strategy (`distill`), transform algorithm
//! (`fourier`) and MXU precision (`tpu`); the core-count ablation is
//! part of Figure 4's table in `report`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod claims;
pub mod compare;

use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
use xai_fourier::convolve2d_fft;
use xai_tensor::{Matrix, Result};

/// Pretty-prints seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} µs", s * 1e6)
    } else {
        format!("{:.2} ns", s * 1e9)
    }
}

/// Formats a speedup factor the way the paper's tables do (`65x`).
pub fn fmt_speedup(slow: f64, fast: f64) -> String {
    if fast <= 0.0 {
        return "∞".to_string();
    }
    format!("{:.1}x", slow / fast)
}

/// The paper's three hardware configurations, freshly constructed.
pub fn platforms() -> Vec<Box<dyn Accelerator>> {
    vec![
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
    ]
}

/// Deterministic synthetic `(X, Y = X ∗ K)` distillation pairs of a
/// given size — the interpretation workload of Table II, the energy
/// claim and the serving claims. `Y` is the circular convolution through
/// the transform ([`convolve2d_fft`], O(n² log n)), within
/// `2 · ε · log₂(2n²) · ‖x‖_F ‖k‖_F` of the direct sum of
/// `conv2d_circular` per element.
///
/// # Errors
///
/// Propagates construction errors (cannot occur for `size > 0`).
pub fn distillation_pairs(n: usize, size: usize) -> Result<Vec<(Matrix<f64>, Matrix<f64>)>> {
    let k = pair_kernel(size)?;
    (0..n)
        .map(|s| {
            let x = Matrix::from_fn(size, size, |r, c| {
                (((r * 13 + c * 7 + s * 31) % 23) as f64) / 23.0 - 0.5
            })?;
            let y = convolve2d_fft(&x, &k)?;
            Ok((x, y))
        })
        .collect()
}

/// The kernel `K` of [`distillation_pairs`].
fn pair_kernel(size: usize) -> Result<Matrix<f64>> {
    Matrix::from_fn(size, size, |r, c| ((r * 2 + c * 3) % 7) as f64 * 0.15)
}

/// A Markdown-ish fixed-width table printer.
#[derive(Debug, Default)]
pub struct TablePrinter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TablePrinter {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds one row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics when the row length differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::from("|");
            for (cell, w) in cells.iter().zip(&widths) {
                s.push_str(&format!(" {cell:<w$} |"));
            }
            s
        };
        let mut out = line(&self.header);
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}-|", "-".repeat(w + 1)));
        }
        for row in &self.rows {
            out.push('\n');
            out.push_str(&line(row));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0025), "2.50 ms");
        assert_eq!(fmt_seconds(2.5e-6), "2.50 µs");
        assert_eq!(fmt_seconds(2.5e-9), "2.50 ns");
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(10.0, 2.0), "5.0x");
        assert_eq!(fmt_speedup(1.0, 0.0), "∞");
    }

    #[test]
    fn three_platforms() {
        let ps = platforms();
        assert_eq!(ps.len(), 3);
        assert!(ps[0].name().contains("CPU"));
        assert!(ps[2].name().contains("TPU"));
    }

    #[test]
    fn pairs_are_consistent_convolutions() {
        let pairs = distillation_pairs(3, 8).unwrap();
        assert_eq!(pairs.len(), 3);
        for (x, y) in &pairs {
            assert_eq!(x.shape(), (8, 8));
            assert_eq!(y.shape(), (8, 8));
        }
    }

    /// `Y` through the transform is within
    /// `C · ε · log₂(2n²) · ‖x‖_F ‖k‖_F` of the direct circular sum, per
    /// element, with `C = 2` (each side's rounding: the transforms' and
    /// the product's, and a serial sum of `n²` terms each bounded by
    /// Cauchy–Schwarz). Observed at most 0.034 of it, at 8² to 64²; 128²
    /// is left out because one direct convolution there costs more than
    /// every other test of this crate.
    #[test]
    fn pairs_are_within_the_bound_of_the_direct_convolution() {
        const C: f64 = 2.0;
        let mut worst: f64 = 0.0;
        for size in [8, 16, 32, 64] {
            let k = pair_kernel(size).unwrap();
            let bound = |x: &Matrix<f64>| {
                let log = (2.0 * (size * size) as f64).log2();
                C * f64::EPSILON * log * x.frobenius_norm() * k.frobenius_norm()
            };
            for (x, y) in distillation_pairs(2, size).unwrap() {
                let direct = xai_tensor::conv::conv2d_circular(&x, &k).unwrap();
                let ratio = y.max_abs_diff(&direct).unwrap() / bound(&x);
                assert!(ratio <= 1.0, "{size}²: {ratio} of the bound");
                worst = worst.max(ratio);
            }
        }
        eprintln!("observed: {worst:.4} of the bound");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TablePrinter::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| name"));
        assert!(s.contains("| long-name |"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
