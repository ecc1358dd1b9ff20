//! # xai-fourier
//!
//! Discrete Fourier transforms for the `tpu-xai` workspace — the
//! computational core the paper reduces explainable ML to.
//!
//! Seven evaluation strategies are provided, each exercising a
//! different hardware story:
//!
//! | Strategy | Module | Complexity | Role |
//! |---|---|---|---|
//! | naive definition | [`dft()`] | O(N²) | reference / CPU baseline |
//! | radix-4 Cooley–Tukey (one radix-2 stage when log₂ N is odd) | [`fft`] | O(N log N) | the one power-of-two kernel: 1-D, column and pool-sharded column forms |
//! | Bluestein chirp-z | [`bluestein`] | O(N log N), any N | arbitrary shapes |
//! | DFT-matrix matmul | [`matrix_form`] | O(N²) as *matmul* | the TPU mapping (Eq. 10–13) |
//! | row–column 2-D | [`fft2d()`] | O(MN log MN) | Algorithm 1 decomposition |
//! | real-input 2-D | [`Fft2d::forward_real`] / [`Fft2d::inverse_real`] (split-buffer: a real `&[f64]` image, a caller-owned `rows × (cols/2 + 1)` half spectrum) | half of row–column | the per-request spectra of a contribution score (`xai-accel`'s `filter_diff`: the residual spectrum, `c = r ⋆ k_h` and the kernel's autocorrelation), which never widen the image to complex; within a stated bound of row–column, not bit-identical to it |
//! | block-pruned real-input forward | [`Fft2d::forward_real_block`] (an image read as zero outside one rectangle: the row pass packs the rectangle's `bh` rows two by two straight from the image, the column pass is whole) with [`Fft2d::hermitian_part`] / [`Fft2d::residual_energy`] (Parseval on the kept half, the dropped mirror columns counted by weight) and [`Fft2d::weighted_energy`] (the same sum against a real weight — the transform of a kernel's autocorrelation — with its magnitude) | `⌈bh/2⌉` of the `rows/2` row transforms, no inverse; on a block's own power-of-two box (≥ 2× its extent a side), a transform of that box | a contribution *score* (`xai-accel`'s score lane in `filter_diff`, i.e. every `contributions_batch_on` on a built-in platform): the norm of a filter-diff lane without the occluded image, the inverse transform or the difference — on the block's box when it has fewer cells than the image (a 128² grid-4 block: 64² instead of 128²), else on the full image; the full rectangle is `forward_real` bit for bit |
//!
//! ## Example: the convolution theorem the paper's solver rests on
//!
//! ```
//! use xai_fourier::convolve2d_fft;
//! use xai_tensor::{conv::conv2d_circular, Matrix};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! let x = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 7) as f64)?;
//! let k = Matrix::from_fn(8, 8, |r, c| ((r + c) % 4) as f64 * 0.25)?;
//! let fast = convolve2d_fft(&x, &k)?;
//! let direct = conv2d_circular(&x, &k)?;
//! assert!(fast.max_abs_diff(&direct)? < 1e-9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bluestein;
mod cache;
pub mod dft;
pub mod fft;
pub mod fft2d;
pub mod matrix_form;
mod norm;
mod plan;
mod real;

pub use bluestein::BluesteinPlan;
pub use cache::{global_plan_cache, PlanCache};
pub use dft::{dft, idft};
pub use fft2d::{convolve2d_fft, fft2d, fft2d_batch, ifft2d, ifft2d_batch, Fft2d};
pub use matrix_form::{dft_matrix, fft2d_via_matmul, idft_matrix, ifft2d_via_matmul};
pub use norm::Norm;
pub use plan::FftPlan;
