//! # xai-core
//!
//! The paper's contribution: TPU-accelerated explainable machine
//! learning through closed-form model distillation
//! (Pan & Mishra, *"Hardware Acceleration of Explainable Machine
//! Learning using Tensor Processing Units"*, DATE 2022).
//!
//! The pipeline (paper Figure 2):
//!
//! 1. **Task transformation** ([`DistilledModel`]) — the distilled model
//!    `X ∗ K = Y` is solved in closed form via the convolution
//!    theorem: `K = F⁻¹(F(Y)/F(X))` (Equations 2–4);
//! 2. **Outcome interpretation** ([`contribution()`]) — contribution
//!    factors `con(xᵢ) = Y − X′ ∗ K` (Equation 5) at feature, block
//!    (Figure 5) and clock-cycle (Figure 6) granularity, each one score
//!    lane of [`xai_accel::scores`] — on the host with no clock, or
//!    through an accelerator ([`contributions_batch_on`]) with the same
//!    bits;
//! 3. **Data decomposition** — Algorithm 1, charged on the simulated
//!    multi-core TPU by [`xai_accel::TpuAccel`]: each 2-D transform's
//!    two matrix-product stages sharded over the cores, one
//!    `cross_replica_sum` per stage;
//! 4. **Parallel computation** ([`parallel`]) — multi-input batches
//!    across simulated cores and host threads sharing one device
//!    (§III-D).
//!
//! [`interpret_on`] runs the whole procedure on any
//! [`xai_accel::Accelerator`], producing the timing rows of the
//! paper's Table II; [`ImageExplainer`]/[`TraceExplainer`] are the
//! domain front-ends for the paper's two case studies.
//!
//! ## Example
//!
//! ```
//! use xai_core::{DistilledModel, SolveStrategy};
//! use xai_tensor::{conv::conv2d_circular, Matrix};
//!
//! # fn main() -> Result<(), xai_tensor::TensorError> {
//! // A "black box" that is secretly a convolution...
//! let k_true = Matrix::from_fn(8, 8, |r, c| ((r * 3 + c) % 5) as f64 * 0.2)?;
//! let x = Matrix::from_fn(8, 8, |r, c| ((r + 2 * c) % 7) as f64 - 3.0)?;
//! let y = conv2d_circular(&x, &k_true)?;
//! // ...is recovered exactly by one pass of Fourier arithmetic.
//! let model = DistilledModel::fit(&[(x, y)], SolveStrategy::default())?;
//! assert!(model.kernel().max_abs_diff(&k_true)? < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod baseline;
pub mod contribution;
mod distill;
pub mod explain;
pub mod metrics;
pub mod parallel;
mod pipeline;

pub use adapter::{embed_output, pairs_from_network, volume_to_matrix};
pub use baseline::{spearman_correlation, top1_agreement, LimeExplainer, SurrogateExplanation};
pub use contribution::{
    argmax, argmax2, block_contributions, column_contributions, contribution,
    contributions_batch_on, occlude, Region,
};
pub use distill::{DistilledModel, SolveStrategy};
pub use explain::{ImageExplainer, ImageExplanation, TraceExplainer, TraceExplanation};
pub use metrics::{deletion_auc, deletion_curve, gini_sparseness};
pub use parallel::{explain_batch, explain_batch_on, explain_batch_parallel_on};
pub use pipeline::{interpret_on, transform_roundtrip_seconds, InterpretationReport};
