//! Algorithm 1 of the paper, executed faithfully on the simulated
//! TPU device: data decomposition of the 2-D Fourier transform.
//!
//! ```text
//! Input : M×N matrix x, number of TPU cores p
//! Output: 2D Fourier Transform result X
//! for i in 0..p:   split M/p rows xᵢ from x;  X'ᵢ = Execute(cᵢ, xᵢ)
//! merge X' = [X'₁ … X'ₚ]
//! for j in 0..p:   split N/p cols x'ⱼ from X'; Xⱼ = Execute(cⱼ, x'ⱼ)
//! merge X = [X₁ … Xₚ]
//! ```
//!
//! "Execute" performs the per-row (per-column) 1-D transforms, which
//! in the TPU mapping are matrix products with the DFT matrix
//! (Equations 10–13). Unlike the fast-path scheduler in `xai-accel`,
//! this module routes the *real numeric computation* through the
//! simulated cores' `matmul_complex`, so the result and the timing
//! both come from the device.
//!
//! Transforms take a [`SharedDevice`] handle: many pipeline threads
//! can decompose onto one device concurrently, each whole transform
//! (both stages and both collectives) scheduled atomically under the
//! device lock.
//!
//! Kept because: no served request runs it, but it is Algorithm 1 as
//! the paper states it — the `scalability` example runs it, and it is
//! the oracle `tests/device_scheduling.rs` holds the host FFT and the
//! device clocks to.

use xai_fourier::{dft_matrix, idft_matrix, Norm};
use xai_tensor::{Complex64, Matrix, Result, TensorError};
use xai_tpu::{SharedDevice, TpuDevice};

/// Splits `x` into at most `p` row shards of near-equal height.
fn split_rows(x: &Matrix<Complex64>, p: usize) -> Result<Vec<Matrix<Complex64>>> {
    if p == 0 {
        return Err(TensorError::EmptyDimension);
    }
    let rows = x.rows();
    let per = rows.div_ceil(p);
    let mut shards = Vec::new();
    let mut r = 0;
    while r < rows {
        let h = per.min(rows - r);
        shards.push(x.submatrix(r, 0, h, x.cols())?);
        r += h;
    }
    Ok(shards)
}

/// Forward 2-D DFT of `x` on `device` per Algorithm 1.
///
/// # Errors
///
/// Propagates device and shape errors.
pub fn fft2d_on_device(device: &SharedDevice, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
    device.with(|d| transform_on_device(d, x, true))
}

/// Inverse 2-D DFT of `x` on `device` per Algorithm 1.
///
/// # Errors
///
/// Propagates device and shape errors.
pub fn ifft2d_on_device(device: &SharedDevice, x: &Matrix<Complex64>) -> Result<Matrix<Complex64>> {
    device.with(|d| transform_on_device(d, x, false))
}

fn transform_on_device(
    device: &mut TpuDevice,
    x: &Matrix<Complex64>,
    forward: bool,
) -> Result<Matrix<Complex64>> {
    let (m, n) = x.shape();
    let p = device.num_cores();
    let (w_rows, w_cols) = if forward {
        (dft_matrix(n, Norm::Backward), dft_matrix(m, Norm::Backward))
    } else {
        (
            idft_matrix(n, Norm::Backward),
            idft_matrix(m, Norm::Backward),
        )
    };

    // Stage 1 — row transforms: split M/p rows; each core computes
    // xᵢ · W_N (every row of the shard transformed independently).
    let shards = split_rows(x, p)?;
    let transformed =
        device.run_phase(shards, |core, shard| core.matmul_complex(&shard, &w_rows))?;
    // Merge results (one reassembly collective).
    let x_prime = device.gather_rows(&transformed)?;

    // Stage 2 — column transforms: split N/p columns of X'; each core
    // computes W_M · x'ⱼ. Implemented as row shards of the transpose
    // (identical arithmetic, contiguous memory).
    let xt = x_prime.transpose();
    let col_shards = split_rows(&xt, p)?;
    let transformed = device.run_phase(col_shards, |core, shard| {
        core.matmul_complex(&shard, &w_cols)
    })?;
    let merged_t = device.gather_rows(&transformed)?;
    // Backward-norm inverse needs no extra scale: idft_matrix already
    // applies 1/N per axis.
    Ok(merged_t.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_tpu::TpuConfig;

    fn test_matrix(m: usize, n: usize) -> Matrix<Complex64> {
        Matrix::from_fn(m, n, |r, c| {
            Complex64::new(
                ((r * 3 + c) % 7) as f64 - 3.0,
                ((r + 2 * c) % 5) as f64 * 0.5,
            )
        })
        .unwrap()
    }

    fn device(cores: usize) -> SharedDevice {
        SharedDevice::with_cores(TpuConfig::small_test(), cores)
    }

    #[test]
    fn matches_host_fft_for_all_core_counts() {
        let x = test_matrix(8, 8);
        let reference = xai_fourier::fft2d(&x).unwrap();
        for cores in [1usize, 2, 3, 4, 8, 16] {
            let dev = device(cores);
            let got = fft2d_on_device(&dev, &x).unwrap();
            assert!(
                reference.max_abs_diff(&got).unwrap() < 1e-9,
                "cores={cores}"
            );
        }
    }

    #[test]
    fn rectangular_inputs() {
        let x = test_matrix(6, 10);
        let reference = xai_fourier::fft2d(&x).unwrap();
        let dev = device(4);
        let got = fft2d_on_device(&dev, &x).unwrap();
        assert!(reference.max_abs_diff(&got).unwrap() < 1e-9);
    }

    #[test]
    fn roundtrip_on_device() {
        let x = test_matrix(8, 8);
        let dev = device(4);
        let spec = fft2d_on_device(&dev, &x).unwrap();
        let back = ifft2d_on_device(&dev, &spec).unwrap();
        assert!(x.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn charges_device_time_and_collectives() {
        let x = test_matrix(8, 8);
        let dev = device(4);
        fft2d_on_device(&dev, &x).unwrap();
        assert!(dev.wall_seconds() > 0.0);
        // One gather per stage.
        assert_eq!(dev.collectives(), 2);
        assert!(dev.comm_seconds() > 0.0);
    }

    #[test]
    fn more_cores_reduce_wall_time() {
        let x = test_matrix(16, 16);
        let d1 = device(1);
        fft2d_on_device(&d1, &x).unwrap();
        let d8 = device(8);
        fft2d_on_device(&d8, &x).unwrap();
        assert!(
            d8.wall_seconds() < d1.wall_seconds(),
            "8 cores {} vs 1 core {}",
            d8.wall_seconds(),
            d1.wall_seconds()
        );
    }

    #[test]
    fn energy_is_accounted() {
        let x = test_matrix(8, 8);
        let dev = device(2);
        fft2d_on_device(&dev, &x).unwrap();
        assert!(dev.energy_pj() > 0.0);
    }

    #[test]
    fn concurrent_transforms_on_one_device_match_serial() {
        let x = test_matrix(8, 8);
        let reference = xai_fourier::fft2d(&x).unwrap();
        let dev = device(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let dev = dev.clone();
                let x = x.clone();
                let reference = reference.clone();
                scope.spawn(move || {
                    let got = fft2d_on_device(&dev, &x).unwrap();
                    assert!(reference.max_abs_diff(&got).unwrap() < 1e-9);
                });
            }
        });
        let serial = device(4);
        for _ in 0..4 {
            fft2d_on_device(&serial, &x).unwrap();
        }
        assert!((dev.wall_seconds() - serial.wall_seconds()).abs() < 1e-15);
        assert_eq!(dev.collectives(), serial.collectives());
    }
}
