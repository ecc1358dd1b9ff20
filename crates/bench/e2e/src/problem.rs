//! Seeded explanation problems and their reference outputs.
//!
//! The seed drives every input; the program under test receives only
//! the matrices. Each distinct input's reference map is computed once
//! at set-up with `xai_core::explain_batch_on` on a fresh accelerator
//! built by the workload's own constructor, and every completed
//! response is compared with it `.to_bits()`-wise outside the timed
//! region.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_accel::{Accelerator, CpuModel, GpuModel};
use xai_core::{explain_batch_on, DistilledModel, Region, SolveStrategy};
use xai_fourier::convolve2d_fft;
use xai_serve::{ExplainJob, JobOutput, ServeResult};
use xai_tensor::Matrix;

/// `distinct` seeded `(x, y = x ∗ k)` pairs of one shape, the model
/// distilled from them, and each pair's reference contribution map.
///
/// Every input recurs (the loops cycle through the pairs), so a future
/// result cache would need a new no-repeat workload before it could
/// claim anything here.
pub struct Problem {
    /// The distilled model every request is explained through.
    pub model: DistilledModel,
    /// The distinct inputs.
    pub pairs: Vec<(Matrix<f64>, Matrix<f64>)>,
    /// Occlusion grid of every request (`grid²` fused lanes).
    pub grid: usize,
    /// `refs[i]` is the reference map of `pairs[i]`.
    pub refs: Vec<Matrix<f64>>,
    /// Simulated seconds one request costs on `CpuModel::i7_3700`.
    pub cpu_sim_s: f64,
    /// Simulated seconds one request costs on `GpuModel::gtx1080`.
    pub gpu_sim_s: f64,
}

/// `count` seeded pairs of `size × size` inputs in `[-0.5, 0.5)` and
/// their circular convolution under a fixed dense kernel.
pub fn seeded_pairs(seed: u64, size: usize, count: usize) -> Vec<(Matrix<f64>, Matrix<f64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = Matrix::from_fn(size, size, |r, c| ((r + c * 3) % 5) as f64 * 0.25).expect("size > 0");
    (0..count)
        .map(|_| {
            let x =
                Matrix::from_fn(size, size, |_, _| rng.random::<f64>() - 0.5).expect("size > 0");
            let y = convolve2d_fft(&x, &k).expect("equal shapes");
            (x, y)
        })
        .collect()
}

/// The `grid × grid` block regions of a `size × size` input, in the
/// row-major order the serving layer sweeps them.
pub fn block_regions(size: usize, grid: usize) -> Vec<Region> {
    let b = size / grid;
    (0..grid)
        .flat_map(|by| (0..grid).map(move |bx| Region::Block(by * b, bx * b, b, b)))
        .collect()
}

impl Problem {
    /// Synthesises the problem and its references. `reference` is a
    /// fresh accelerator from the workload's own constructor.
    pub fn synth(
        seed: u64,
        size: usize,
        grid: usize,
        distinct: usize,
        reference: &dyn Accelerator,
    ) -> Self {
        let pairs = seeded_pairs(seed, size, distinct);
        let model = DistilledModel::fit(&pairs, SolveStrategy::default())
            .expect("seeded pairs share one shape");
        let refs = explain_batch_on(reference, &model, &pairs, grid).expect("grid divides size");
        let host_model_s = |acc: &dyn Accelerator| {
            explain_batch_on(acc, &model, &pairs[..1], grid).expect("grid divides size");
            acc.elapsed_seconds()
        };
        Problem {
            cpu_sim_s: host_model_s(&CpuModel::i7_3700()),
            gpu_sim_s: host_model_s(&GpuModel::gtx1080()),
            model,
            pairs,
            grid,
            refs,
        }
    }

    /// The request asking about input `i` (cycled).
    pub fn job(&self, i: usize) -> ExplainJob {
        let (x, y) = &self.pairs[i % self.pairs.len()];
        ExplainJob::Contributions {
            x: x.clone(),
            y: y.clone(),
            grid: self.grid,
        }
    }

    /// Whether `result` is the reference map of input `i`, bit for bit.
    pub fn matches(&self, i: usize, result: &ServeResult) -> bool {
        match result {
            Ok(JobOutput::Map(map)) => same_bits(map, &self.refs[i % self.refs.len()]),
            _ => false,
        }
    }

    /// Bytes of matrix data cloned into one request: `x` and `y` into
    /// the job, then per lane the occluded copy of `x` and its complex
    /// form, plus the broadcast filter and `y` shipped once per flight.
    /// Computed from sizes, not measured.
    pub fn alloc_bytes_per_req(&self) -> f64 {
        let elems = self.pairs[0].0.len() as f64;
        let lanes = (self.grid * self.grid) as f64;
        let job = 2.0 * 8.0 * elems;
        let per_lane = (8.0 + 16.0) * elems;
        let broadcast = (16.0 + 8.0) * elems;
        job + lanes * per_lane + broadcast
    }
}

/// Whether two real matrices are equal `.to_bits()`-wise.
pub fn same_bits(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_accel::TpuAccel;

    #[test]
    fn the_seed_drives_every_input() {
        let a = seeded_pairs(7, 8, 3);
        assert_eq!(a, seeded_pairs(7, 8, 3));
        assert_ne!(a, seeded_pairs(8, 8, 3));
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn references_match_a_second_fresh_accelerator_and_reject_a_flipped_bit() {
        let p = Problem::synth(42, 8, 2, 4, &TpuAccel::with_cores(4));
        assert_eq!(block_regions(8, 2).len(), 4);
        let again = explain_batch_on(&TpuAccel::with_cores(4), &p.model, &p.pairs, 2).unwrap();
        for (i, map) in again.into_iter().enumerate() {
            assert!(p.matches(i + p.pairs.len(), &Ok(JobOutput::Map(map.clone()))));
            let mut off = map;
            off[(0, 0)] = f64::from_bits(off[(0, 0)].to_bits() ^ 1);
            assert!(!p.matches(i, &Ok(JobOutput::Map(off))));
        }
        assert!(!p.matches(0, &Err(xai_serve::ServeError::ShuttingDown)));
        assert!(p.cpu_sim_s > 0.0 && p.gpu_sim_s > 0.0);
        assert!(p.alloc_bytes_per_req() > 0.0);
    }
}
