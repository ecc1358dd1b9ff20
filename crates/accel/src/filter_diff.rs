//! Contribution scores, `‖y − x′ ∗ k‖_F` for `x′` an occlusion of `x`:
//! one *score lane* per rectangle over one set of operands per request
//! ([`Operands`], borrowing the request's `x`, `y` and prepared kernel),
//! of one of two kinds read off the request:
//!
//! - **Spectral** ([`Spectra`]): an even row count and every element of
//!   `x` finite. The score is taken in the spectrum — no occluded image,
//!   no inverse transform per region, no difference matrix.
//! - **Occluded**: any other request. The lane occludes `x` and runs the
//!   complex sequence `forward → ∘ K → inverse → y − re` on it, then the
//!   norm: per element the staged chain's arithmetic.
//!
//! The host entry [`scores`] runs a request's lanes over the host pool
//! with no clock; the built-in platforms' unqueued requests are that
//! entry, then the staged chain's charges; a queued
//! `TpuAccel` request runs them one after another on its own thread and
//! then submits one shape-only `Score` lane per rectangle, so a flight
//! carries no operand.
//!
//! A spectral score lane owns nothing but its rectangle. What it reads
//! is built at three lifetimes:
//!
//! - **Per model** ([`PreparedKernel`], one handle the model owns): the
//!   filter spectrum, `K_h` (its Hermitian part on the kept columns),
//!   the kernel mean's share `μ = |K_h(0)|² / mn` and `‖filter‖_max` —
//!   O(mn), no transform, when the model is built — and, by the first
//!   request with a box smaller than the image (on its submitting
//!   thread, before its lanes run), the mean-free
//!   autocorrelation `ã` (one dense inverse) and then one `Â_L` per box
//!   shape (a window of `ã` and one box-sized forward), each in a cell
//!   of its own, kept for the model's lifetime.
//! - **Per request** ([`Spectra`], before anything is submitted): `x`,
//!   the residual half spectrum `R̂ = Ŷ − X̂ ∘ K_h` and, when some box is
//!   smaller than the image, `‖r‖²`, the guard's scale `S` and
//!   `c = r ⋆ k_h` (one dense inverse). `R̂` is written over `Ŷ`
//!   ([`residual`]), and `c` is formed in a spare half spectrum. On a
//!   served request `X̂` and `Ŷ` are two dense real-input forwards, and
//!   the spare is `X̂`'s buffer; in
//!   [`Accelerator::interpret`](crate::Accelerator::interpret) they are
//!   the half spectra the fit transformed the pair into (`distill`), so
//!   the scores never transform `x` or `y` again: every pair's `R̂` is
//!   formed as soon as the kernel is prepared, and one `X̂` buffer is
//!   kept as every pair's spare.
//! - **Per lane** (the lent workspace): the rectangle's transform. A
//!   rectangle whose box — per side the power of two at least twice its
//!   extent ([`local_box`]) — has fewer cells than `x` is scored on that
//!   box alone ([`local_score`]): the block, copied to the box's origin,
//!   is transformed on the box and summed against the box's `Â_L`
//!   ([`Fft2d::weighted_energy`](xai_fourier::Fft2d::weighted_energy)),
//!   plus `‖r‖²` and a dot with `c` over the block. Any other rectangle,
//!   and one the cancellation guard (point 3) sends on, takes the
//!   full-size lane: `x` restricted to the rectangle is transformed into
//!   the workspace
//!   ([`Fft2d::forward_real_block`](xai_fourier::Fft2d::forward_real_block))
//!   and the lane returns `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`
//!   ([`Fft2d::residual_energy`](xai_fourier::Fft2d::residual_energy)).
//!
//! Every value built once per model is the same arithmetic on the same
//! operands as if it were built per request, so where it was built
//! cannot reach a score's bits.
//!
//! # Numerics contract
//!
//! A request reaches a score lane only once it is well formed — every
//! rectangle inside `x`, `y` and the filter of `x`'s shape — and is
//! refused before anything is charged otherwise
//! ([`Accelerator::contribution_scores`](crate::Accelerator::contribution_scores)). Its kind is read off `x`,
//! never configured, and:
//!
//! 1. A score is a pure function of `(x, y, filter, rectangle)`:
//!    bit-identical across direct / queued / pooled execution, flight
//!    composition, chip count, `XAI_THREADS`, retries, and whether the
//!    prepared kernel is fresh or shared with earlier requests. Within a
//!    spectral request the route of a rectangle is a function of its
//!    extent and `x`'s shape alone: its box has fewer cells than `x` —
//!    block-local (then the guard of point 3 decides, on the same
//!    operands) — or not — the full-size lane; so the grid-4 blocks of a
//!    128² or 16² image take 64² or 8² boxes, and a grid-2 block, or any
//!    block of an 8² image, the full-size lane.
//! 2. An occluded score — an odd row count, or a NaN or ±inf in `x` —
//!    is the staged `fft2d → hadamard → ifft2d → to_real → sub` chain's
//!    difference on the occlusion and its `frobenius_norm`: the trait
//!    default's score, bit for bit, on every placement.
//! 3. A spectral score `s` is within
//!    `C · ε · log₂(2mn) · (‖filter‖_max ‖x‖_F + ‖y‖_F)` of the trait
//!    default's `s_ref` on the same operands, with `C = 2` and
//!    `ε = f64::EPSILON`, `|s − s_ref| ≤` it, and both are within it of
//!    the O(N²) definition (`tests/spectral_score.rs`; observed ≤ 0.37 of
//!    it, at 128², ≤ 0.06 below 64 elements a side). Most of that is the
//!    *reference*: `s_ref` ends in a serial sum of `mn` squares, which
//!    on an image periodic enough for its squares to round alike drifts
//!    past the budget on its own (70 ε·s at 128² on a period-23 table);
//!    against the exactly summed norm of the reference's difference the
//!    spectral score holds the bound on that data too. Neither is the
//!    closer to the definition where the fit is good: one subtracts two
//!    nearly equal images per region, the other two nearly equal spectra
//!    per request.
//!
//!    A block-local score is
//!    `s̃² = ‖r‖² + 2⟨c, x_b⟩ + μ (Σ x_b)² + Σ w |B̂_L|² Â_L / (l_r l_c)`:
//!    `r = y − x ∗ k_h`, `c = r ⋆ k_h`, `μ = |K_h(0)|² / mn` the kernel
//!    mean's share of `‖x_b ∗ k_h‖²` (taken exactly: a box-cut constant
//!    rings), `Â_L` the box's transform of the mean-free autocorrelation
//!    of `k_h` cut to `|d| < l/2` per side, `B̂_L` the block alone on the
//!    box — exact for any box of at least `2·extent − 1` per side. Every
//!    term is a transform or sum of at most `log₂(2mn)` rounding stages,
//!    so to first order `|s̃² − s²| ≤ ε · log₂(2mn) · M`, `M` the same
//!    sum taken term by term in magnitude (`2|⟨c, x_b⟩|`, `|Â_L|`), and
//!    `|s̃ − s| = |s̃² − s²| / (s̃ + s) ≤ ε · log₂(2mn) · M / s̃`. The lane
//!    keeps `s̃` only when `M ≤ S · s̃`, `S = ‖filter‖_max ‖x‖_F + ‖y‖_F`
//!    — that is, when its own first-order error is at most half the
//!    bound above, the other half left to the reference — and otherwise
//!    takes the full-size lane. Written as a ratio the guard is
//!    `s̃² ≥ τ · M` with `τ = M / S²`: no fixed `τ` holds an absolute
//!    bound, and a fixed `τ = 1/4` would send back about a quarter of
//!    the regions of a well-fitted `serve-large` request, nearly all
//!    without the mean split (there `M / s̃²` is 1.2–15, and the guard's
//!    margin `S · s̃ / M` 105–235). What the guard is for is
//!    cancellation: `y = x′_b ∗ k` for one block leaves
//!    `s_b² ≈ 2 q_b − 2 q_b ≈ 0`, and that block, unguarded, scores NaN
//!    or ≈ 10⁵ times the bound (`tests/spectral_score.rs`). Observed,
//!    kept block-local scores are within 0.051 of the bound of the
//!    full-size lane on the test shapes and 5.6e-4 of it (≤ 1.2e-12) on
//!    `serve-large`'s requests.
//! 4. A NaN or ±inf in `x` is a pixel an occlusion may *remove*, which
//!    `X − B_r` cannot: such a request takes the occluded kind and keeps
//!    the staged chain's per-region poison pattern — a score stays
//!    finite exactly when its rectangle covers every such pixel. One in
//!    `y` or `filter` leaves no finite score of either kind.
//! 5. Simulated time never sees which kind ran, nor whether a transform
//!    did: the *modelled* device runs the paper's complex matrix-form
//!    transform (Eq. 10–13) and Eq. 5 literally — every charge is that
//!    of the staged chain, a score lane's that of the fused chain of its
//!    shape.

use crate::traits::{check_request, occluded, Rect};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use xai_fourier::global_plan_cache;
use xai_tensor::ops;
use xai_tensor::{Complex64, Matrix, Result};

/// A distilled kernel prepared for contribution scores: a cheap handle
/// (clones share one allocation) over everything a score reads that
/// depends on the kernel alone.
///
/// Built from the kernel's spectrum `K` in O(mn), with no transform:
/// the spectrum itself (what an occluded request's lanes apply), `K_h`, `K`'s Hermitian part on the
/// `m × (n/2 + 1)` columns a real-input transform keeps, the kernel
/// mean's share `|K_h(0)|² / mn`, and `‖K‖_max`. What only a rectangle
/// scored on its own box reads — the mean-free autocorrelation of the
/// kernel and its transform cut to each box shape — is built by the
/// first request that needs it and kept: one cell per power-of-two box
/// shape, so at most `(⌈log₂ 2m⌉ + 1)(⌈log₂ 2n⌉ + 1)` of them. A value is
/// the same whichever request builds it and however many share the
/// handle, so sharing one kernel across requests and threads leaves
/// every score's bits where a kernel prepared per request would.
///
/// # Examples
///
/// ```
/// use xai_accel::{Accelerator, CpuModel, PreparedKernel};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let x = Matrix::from_fn(16, 16, |r, c| ((r * 7 + c * 3) % 11) as f64)?;
/// let y = Matrix::from_fn(16, 16, |r, c| ((r + 2 * c) % 5) as f64)?;
/// let kernel = PreparedKernel::new(Matrix::from_fn(16, 16, |r, c| {
///     xai_tensor::Complex64::from_real(1.0 / (1 + r + c) as f64)
/// })?);
/// let blocks = [(0..4, 0..4), (4..8, 12..16)];
/// let cpu = CpuModel::i7_3700();
/// let first = cpu.contribution_scores(&x, &y, &blocks, &kernel)?;
/// // A second request reuses what the first one prepared.
/// assert_eq!(cpu.contribution_scores(&x, &y, &blocks, &kernel.clone())?, first);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedKernel(Arc<Prepared>);

#[derive(Debug)]
struct Prepared {
    spectrum: Matrix<Complex64>,
    /// `K_h`, row-major `m × (n/2 + 1)`.
    hermitian: Vec<Complex64>,
    /// `|K_h(0)|² / mn`.
    mean: f64,
    /// `‖K‖_max`.
    max_abs: f64,
    /// `ã`, the inverse of `|K_h|²` without its mean bin, row-major
    /// `m × n`.
    autocorrelation: OnceLock<Vec<f64>>,
    /// `Â_L` of the box `2^i × 2^j` at `i · box_cols + j`, row-major
    /// `l_r × (l_c/2 + 1)`.
    windows: Box<[OnceLock<Vec<f64>>]>,
    box_cols: usize,
}

impl PreparedKernel {
    /// Prepares the kernel whose spectrum is `spectrum`.
    pub fn new(spectrum: Matrix<Complex64>) -> Self {
        let (m, n) = spectrum.shape();
        let plan = global_plan_cache().plan_2d(m, n);
        let mut hermitian = vec![Complex64::ZERO; m * plan.half_cols()];
        plan.hermitian_part(&mut hermitian, &spectrum);
        let mean = hermitian[0].norm_sqr() / (m * n) as f64;
        let max_sqr = fold4(spectrum.as_slice(), |s, k| s.max(k.norm_sqr()));
        let max_abs = max_sqr.into_iter().fold(0.0, f64::max).sqrt();
        // Per side, one cell per power of two a box can be: 2 up to the
        // box of a rectangle spanning the whole side.
        let sides = |len: usize| (2 * len).next_power_of_two().trailing_zeros() as usize + 1;
        let windows = (0..sides(m) * sides(n)).map(|_| OnceLock::new()).collect();
        PreparedKernel(Arc::new(Prepared {
            spectrum,
            hermitian,
            mean,
            max_abs,
            autocorrelation: OnceLock::new(),
            windows,
            box_cols: sides(n),
        }))
    }

    /// The kernel's spectrum `K`, as given to [`PreparedKernel::new`].
    pub fn spectrum(&self) -> &Matrix<Complex64> {
        &self.0.spectrum
    }

    /// `ã`, built on first use (one dense inverse). Only a request
    /// scored in the spectrum reaches it, so the row count is even.
    fn autocorrelation(&self) -> &[f64] {
        self.0.autocorrelation.get_or_init(|| {
            let (m, n) = self.0.spectrum.shape();
            let plan = global_plan_cache().plan_2d(m, n);
            let power = self.0.hermitian.iter();
            let mut power: Vec<_> = power.map(|k| Complex64::from_real(k.norm_sqr())).collect();
            power[0] = Complex64::ZERO;
            let mut a = vec![0.0; m * n];
            let scratch = &mut vec![Complex64::ZERO; n];
            plan.inverse_real(&mut power, &mut a, scratch);
            a
        })
    }

    /// `Â_L` of the power-of-two box `l_r × l_c`, built on first use
    /// ([`window`]).
    fn window(&self, (l_r, l_c): (usize, usize)) -> &[f64] {
        let at = l_r.trailing_zeros() as usize * self.0.box_cols + l_c.trailing_zeros() as usize;
        self.0.windows[at]
            .get_or_init(|| window(self.autocorrelation(), self.0.spectrum.shape(), (l_r, l_c)))
    }
}

/// Two handles are equal when their spectra are: everything else a
/// handle holds is a function of the spectrum.
impl PartialEq for PreparedKernel {
    fn eq(&self, other: &Self) -> bool {
        self.spectrum() == other.spectrum()
    }
}

/// Four partial folds of `values`, value `i` into fold `i % 4`: a scale
/// needs no particular rounding, and one serial chain would be bound by
/// the latency of its additions.
fn fold4<T>(values: &[T], f: impl Fn(f64, &T) -> f64) -> [f64; 4] {
    let chunks = values.chunks_exact(4);
    let rest = chunks.remainder();
    let mut acc = chunks.fold([0.0; 4], |[a, b, c, d], v| {
        [f(a, &v[0]), f(b, &v[1]), f(c, &v[2]), f(d, &v[3])]
    });
    for (a, v) in acc.iter_mut().zip(rest) {
        *a = f(*a, v);
    }
    acc
}

/// `‖v‖_F` by [`fold4`].
fn norm(v: &Matrix<f64>) -> f64 {
    fold4(v.as_slice(), |s, v| s + v * v)
        .iter()
        .sum::<f64>()
        .sqrt()
}

/// One request's score operands, of the kind read off `x` (module
/// header), borrowing the request's own.
#[derive(Debug)]
pub(crate) enum Operands<'a> {
    /// An even row count and every element of `x` finite.
    Spectral(Spectra<'a>),
    /// Any other request: each lane occludes `x` and runs the complex
    /// sequence against `y` and the kernel's spectrum.
    Occluded {
        x: &'a Matrix<f64>,
        y: &'a Matrix<f64>,
        kernel: &'a PreparedKernel,
    },
}

/// A real pair's half spectra `(X̂, Ŷ)`, `m × (n/2 + 1)` each: what a
/// fit asked for scores keeps of each pair (`distill::fit`).
pub(crate) type HalfSpectra = (Matrix<Complex64>, Matrix<Complex64>);

/// The residual half spectrum `R̂ = Ŷ − X̂ ∘ K_h` of an even-row pair's
/// half spectra, written over `Ŷ`, and `X̂`'s buffer handed back as
/// working space for [`operands`].
pub(crate) fn residual(
    kernel: &PreparedKernel,
    (fx, mut fy): HalfSpectra,
) -> (Matrix<Complex64>, Matrix<Complex64>) {
    let bins = fy.as_mut_slice().iter_mut().zip(fx.iter());
    for ((r, x), k) in bins.zip(&kernel.0.hermitian) {
        *r -= *x * *k;
    }
    (fy, fx)
}

/// The operands of a well-formed request (non-empty `rects`, each inside
/// `x`; `y` and the kernel of `x`'s shape): [`Spectra`] when `x` has an
/// even row count and every element finite — a NaN or ±inf pixel is one
/// an occlusion may *remove*, which `X′ = X − B_r` cannot — and the
/// occluded kind otherwise. `residual`, when given, is the request's
/// [`residual`] and a half spectrum of working space, and spectral
/// operands are built from them instead of transforming `x` and `y`
/// (two dense real-input forwards on the calling thread).
pub(crate) fn operands<'a>(
    x: &'a Matrix<f64>,
    y: &'a Matrix<f64>,
    rects: &[Rect],
    kernel: &'a PreparedKernel,
    residual: Option<(Matrix<Complex64>, &mut Matrix<Complex64>)>,
) -> Operands<'a> {
    if !(x.rows().is_multiple_of(2) && x.iter().all(|v| v.is_finite())) {
        return Operands::Occluded { x, y, kernel };
    }
    let spectra = match residual {
        Some((r, work)) => spectra(x, y, rects, kernel, r, work),
        None => {
            let (r, mut work) = self::residual(kernel, half_spectra(x, y));
            spectra(x, y, rects, kernel, r, &mut work)
        }
    };
    Operands::Spectral(spectra)
}

/// `(X̂, Ŷ)` of an even-row pair: two dense real-input forwards on the
/// calling thread.
fn half_spectra(x: &Matrix<f64>, y: &Matrix<f64>) -> HalfSpectra {
    let (m, n) = x.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let scratch = &mut vec![Complex64::ZERO; n];
    let [fx, fy] = [x, y].map(|a| {
        let mut half = Matrix::zeros(m, plan.half_cols()).expect("a non-empty half spectrum");
        plan.forward_real(a.as_slice(), half.as_mut_slice(), scratch);
        half
    });
    (fx, fy)
}

/// What the score lanes of a spectral request share: `x`, the half
/// spectrum of the unoccluded residual, `R̂ = Ŷ − X̂ ∘ K_h`
/// (`m × (n/2 + 1)`), the model's [`PreparedKernel`] and, when some
/// rectangle's [`local_box`] has fewer cells than `x`, what its
/// block-local score reads of the request ([`Local`]).
#[derive(Debug)]
pub(crate) struct Spectra<'a> {
    x: &'a Matrix<f64>,
    residual: Matrix<Complex64>,
    kernel: &'a PreparedKernel,
    local: Option<Local>,
}

/// The per-request operands of a block-local score: `‖r‖_F²`, the
/// contract's scale `S = ‖filter‖_max ‖x‖_F + ‖y‖_F` and `c = r ⋆ k_h`
/// (row-major `m × n`).
#[derive(Debug)]
struct Local {
    energy: f64,
    scale: f64,
    c: Vec<f64>,
}

/// The torus a rectangle is scored on by itself: per side, the power of
/// two at least twice the rectangle's extent (and at least 2, one row
/// pair) — wide enough that no lag between two of its cells wraps.
fn local_box((rows, cols): &Rect) -> (usize, usize) {
    let side = |r: &Range<usize>| (2 * r.len()).next_power_of_two().max(2);
    (side(rows), side(cols))
}

/// A spectral request's [`Spectra`] from its residual half spectrum
/// `R̂`, and, when some rectangle is scored block-locally, `‖r‖²`, the
/// guard's scale and `c` — one dense inverse of `R̂ ∘ conj K_h`, formed in
/// `work` (a half spectrum whose contents are not read). `x` has an even
/// row count, and `y` and the kernel its shape ([`operands`]).
fn spectra<'a>(
    x: &'a Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &'a PreparedKernel,
    residual: Matrix<Complex64>,
    work: &mut Matrix<Complex64>,
) -> Spectra<'a> {
    let (m, n) = x.shape();
    let plan = global_plan_cache().plan_2d(m, n);
    let hermitian = &kernel.0.hermitian;
    let smaller = |&(l_r, l_c): &(usize, usize)| l_r.saturating_mul(l_c) < m * n;
    let mut boxes = rects.iter().map(local_box).filter(smaller).peekable();
    let local = boxes.peek().is_some().then(|| {
        let energy = plan.weighted_energy(residual.as_slice(), None).0 / (m * n) as f64;
        for ((z, r), k) in work
            .as_mut_slice()
            .iter_mut()
            .zip(residual.iter())
            .zip(hermitian)
        {
            *z = *r * k.conj();
        }
        let mut c = vec![0.0; m * n];
        plan.inverse_real(work.as_mut_slice(), &mut c, &mut vec![Complex64::ZERO; n]);
        let scale = kernel.0.max_abs * norm(x) + norm(y);
        Local { energy, scale, c }
    });
    // The kernel's windows are built here, on the submitting thread,
    // the first time a request needs them — not by a lane that the
    // lanes of its flight then wait for.
    for b in boxes {
        kernel.window(b);
    }
    Spectra {
        x,
        residual,
        kernel,
        local,
    }
}

/// `Â_L` of one box `l_r × l_c`: the real half spectrum (`l_r × (l_c/2 +
/// 1)`) of the `m × n` autocorrelation `ã` cut to the lags the box holds
/// without wrapping, `|d_r| < l_r/2` and `|d_c| < l_c/2` (a lag read off
/// `ã` modulo its shape), zero elsewhere. `ã` is real and even, so
/// `Â_L` is real.
fn window(a: &[f64], (m, n): (usize, usize), (l_r, l_c): (usize, usize)) -> Vec<f64> {
    // Per side, the element of `a` position `i` of the box reads: the
    // lag `i` or `i − l`, modulo the image's side; the lag `l/2` is its
    // own mirror and is cut.
    let lags = |l: usize, len: usize| -> Vec<Option<usize>> {
        let lag = |i: usize| match i.cmp(&(l / 2)) {
            Ordering::Less => Some(i % len),
            Ordering::Equal => None,
            Ordering::Greater => Some((len - (l - i) % len) % len),
        };
        (0..l).map(lag).collect()
    };
    let (rows, cols) = (lags(l_r, m), lags(l_c, n));
    let mut cut = vec![0.0; l_r * l_c];
    for (at, p) in cut.chunks_exact_mut(l_c).zip(&rows) {
        let Some(p) = p else { continue };
        for (v, q) in at.iter_mut().zip(&cols) {
            *v = q.map_or(0.0, |q| a[p * n + q]);
        }
    }
    let plan = global_plan_cache().plan_2d(l_r, l_c);
    let mut half = vec![Complex64::ZERO; l_r * plan.half_cols()];
    plan.forward_real(&cut, &mut half, &mut vec![Complex64::ZERO; l_c]);
    half.iter().map(|z| z.re).collect()
}

impl Operands<'_> {
    /// One score lane: `‖y − x′ ∗ k‖_F` for `x′ = x` with `rect` — a
    /// rectangle inside `x` — zeroed. An occluded lane runs the complex
    /// sequence in a buffer of its own — per element the staged `fft2d →
    /// hadamard → ifft2d → to_real → sub` arithmetic, bit for bit — and a
    /// spectral one [`Spectra::score`] through `ws`, the workspace lent
    /// from lane to lane (its contents on entry are not read).
    pub(crate) fn score(&self, rect: &Rect, ws: &mut Vec<Complex64>) -> Result<f64> {
        let (x, y, kernel) = match self {
            Operands::Spectral(spectra) => return Ok(spectra.score(rect, ws)),
            Operands::Occluded { x, y, kernel } => (x, y, kernel),
        };
        let plan = global_plan_cache().plan_2d(x.rows(), x.cols());
        let mut lane = occluded(x, rect)?.to_complex();
        plan.forward_in_place(&mut lane)?;
        ops::hadamard_assign(&mut lane, kernel.spectrum())?;
        plan.inverse_in_place(&mut lane)?;
        Ok(ops::sub_re(y, &lane)?.frobenius_norm())
    }
}

impl Spectra<'_> {
    /// The score of a rectangle inside `x`. When the request has
    /// block-local operands and `rect`'s box has fewer cells than `x`,
    /// it is taken on that box ([`local_score`]) unless the cancellation
    /// guard sends it on. Otherwise, and then, it is the full-size lane
    /// `√(Σ w |R̂ + B̂ ∘ K_h|² / mn)`, `B̂` the block-pruned forward of `x`
    /// restricted to `rect`. `ws` holds the transforms: a half spectrum
    /// and a scratch row, resized only when the shape changes.
    fn score(&self, rect: &Rect, ws: &mut Vec<Complex64>) -> f64 {
        let x = self.x;
        let (m, n) = x.shape();
        let (l_r, l_c) = local_box(rect);
        let local = self
            .local
            .as_ref()
            .filter(|_| l_r.saturating_mul(l_c) < m * n);
        if let Some(s) = local.and_then(|local| local_score(x, local, self.kernel, rect, ws)) {
            return s;
        }
        let plan = global_plan_cache().plan_2d(m, n);
        let h = plan.half_cols();
        ws.resize(m * h + n, Complex64::ZERO);
        let (block, scratch) = ws.split_at_mut(m * h);
        let (rows, cols) = rect.clone();
        plan.forward_real_block(x.as_slice(), rows, cols, block, scratch);
        let energy =
            plan.residual_energy(self.residual.as_slice(), block, &self.kernel.0.hermitian);
        (energy / (m * n) as f64).sqrt()
    }
}

thread_local! {
    /// [`local_score`]'s box image, lent from lane to lane on one
    /// thread: the block-pruned forward reads only the block's
    /// rectangle, which each lane writes, so it is never zero-filled.
    static BOX_IMAGE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The block-local score of a score lane:
/// `s² = ‖r‖² + 2⟨c, x_b⟩ + μ · (Σ x_b)² + Σ w |B̂_L|² Â_L / (l_r l_c)`,
/// `B̂_L` the block-pruned forward of the block alone at the box's
/// origin and `μ = |K_h(0)|² / mn` the kernel mean's share of
/// `‖x_b ∗ k_h‖²`. `None` — the full-size lane — unless `M ≤ S · s`,
/// `M` the same sum taken term by term in magnitude (the cancellation
/// guard of contract point 3).
fn local_score(
    x: &Matrix<f64>,
    Local { energy, scale, c }: &Local,
    kernel: &PreparedKernel,
    rect: &Rect,
    ws: &mut Vec<Complex64>,
) -> Option<f64> {
    let (rows, cols) = rect.clone();
    let (l_r, l_c) = local_box(rect);
    let plan = global_plan_cache().plan_2d(l_r, l_c);
    let h = plan.half_cols();
    ws.resize(l_r * h + l_c, Complex64::ZERO);
    let (half, scratch) = ws.split_at_mut(l_r * h);
    BOX_IMAGE.with_borrow_mut(|block| {
        block.resize(l_r * l_c, 0.0);
        for (at, r) in block.chunks_exact_mut(l_c).zip(rows.clone()) {
            at[..cols.len()].copy_from_slice(&x.row(r)[cols.clone()]);
        }
        plan.forward_real_block(block, 0..rows.len(), 0..cols.len(), half, scratch);
    });
    let (q, q_magnitude) = plan.weighted_energy(half, Some(kernel.window((l_r, l_c))));
    let n = x.cols();
    let (cross, sum) = rows.fold((0.0, 0.0), |(cross, sum), r| {
        let (x, c) = (
            &x.row(r)[cols.clone()],
            &c[r * n..(r + 1) * n][cols.clone()],
        );
        let row = x
            .iter()
            .zip(c)
            .fold((0.0, 0.0), |(d, s), (x, c)| (d + x * c, s + x));
        (cross + row.0, sum + row.1)
    });
    let (cells, mean) = ((l_r * l_c) as f64, kernel.0.mean);
    let s = (energy + 2.0 * cross + mean * sum * sum + q / cells).sqrt();
    let magnitude = energy + 2.0 * cross.abs() + mean * sum * sum + q_magnitude / cells;
    (magnitude <= scale * s).then_some(s)
}

/// The contribution scores of Equation 5 on the host, with no clock: for
/// every rectangle `r` of `rects`, `‖y − x′ᵣ ∗ k‖_F`, `x′ᵣ` being `x` with
/// `r` zeroed and `k` the kernel `kernel` was prepared from. These are the
/// score lanes of
/// [`Accelerator::contribution_scores`](crate::Accelerator::contribution_scores),
/// over the host pool, with the bits every platform returns for the same
/// request; nothing is charged.
///
/// # Errors
///
/// As [`Accelerator::contribution_scores`](crate::Accelerator::contribution_scores):
/// [`TensorError::ShapeMismatch`](xai_tensor::TensorError::ShapeMismatch)
/// when a rectangle does not lie inside `x`, or when `y` or the kernel
/// does not have `x`'s shape; an empty `rects` is `Ok(vec![])` whatever
/// the operands.
pub fn scores(
    x: &Matrix<f64>,
    y: &Matrix<f64>,
    rects: &[Rect],
    kernel: &PreparedKernel,
) -> Result<Vec<f64>> {
    if rects.is_empty() {
        return Ok(Vec::new());
    }
    check_request(x, y, rects, kernel)?;
    pooled(&operands(x, y, rects, kernel, None), rects)
}

/// A request's score lanes over the host pool — `num_threads`
/// contiguous groups (one fork-join per request), each lending lane
/// after lane one workspace; a score is a pure function of its operands,
/// so the grouping cannot reach it.
pub(crate) fn pooled(request: &Operands<'_>, rects: &[Rect]) -> Result<Vec<f64>> {
    let mut slots: Vec<_> = rects.iter().map(|rect| (rect, Ok(0.0))).collect();
    let pool = xai_parallel::global();
    let group = slots.len().div_ceil(pool.num_threads()).max(1);
    pool.par_chunks_mut(&mut slots, group, |_, slots| {
        let mut ws = Vec::new();
        for (rect, score) in slots {
            *score = request.score(rect, &mut ws);
        }
    });
    slots.into_iter().map(|(_, s)| s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_fourier::{convolve2d_fft, fft2d};

    /// A seeded image in `[-0.5, 0.5)` (SplitMix64 draws).
    fn seeded(seed: u64, (m, n): (usize, usize)) -> Matrix<f64> {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .unwrap()
    }

    fn prepared(k: &Matrix<f64>) -> PreparedKernel {
        PreparedKernel::new(fft2d(&k.to_complex()).unwrap())
    }

    /// The spectral operands of a request whose `x` is finite.
    fn spectral<'a>(
        x: &'a Matrix<f64>,
        y: &'a Matrix<f64>,
        rects: &[Rect],
        kernel: &'a PreparedKernel,
    ) -> Spectra<'a> {
        match operands(x, y, rects, kernel, None) {
            Operands::Spectral(spectra) => spectra,
            Operands::Occluded { .. } => unreachable!("an even, finite request"),
        }
    }

    /// The box cells `kernel` has built so far.
    fn built(kernel: &PreparedKernel) -> usize {
        kernel
            .0
            .windows
            .iter()
            .filter(|w| w.get().is_some())
            .count()
    }

    /// A sweep of every rectangle extent through one kernel builds one
    /// cell per box shape smaller than the image, and never more than
    /// the table's `(⌈log₂ 2m⌉ + 1)(⌈log₂ 2n⌉ + 1)`; building none until a
    /// request needs one, and nothing for a request whose boxes are all
    /// as large as the image.
    #[test]
    fn the_box_memo_holds_one_cell_per_box_shape() {
        for shape @ (m, n) in [(16, 16), (6, 10), (8, 2)] {
            let (x, k, y) = (seeded(1, shape), seeded(2, shape), seeded(3, shape));
            let kernel = prepared(&k);
            let bound = |len: usize| (2 * len).next_power_of_two().ilog2() as usize + 1;
            assert_eq!(kernel.0.windows.len(), bound(m) * bound(n), "{shape:?}");
            let whole = [(0..m, 0..n)];
            let request = spectral(&x, &y, &whole, &kernel);
            request.score(&whole[0], &mut Vec::new());
            assert!(request.local.is_none() && kernel.0.autocorrelation.get().is_none());
            assert_eq!(built(&kernel), 0, "{shape:?}: the whole image needs no box");
            let rects: Vec<Rect> = (1..=m)
                .flat_map(|h| (1..=n).map(move |w| (m - h..m, 0..w)))
                .collect();
            let request = spectral(&x, &y, &rects, &kernel);
            let ws = &mut Vec::new();
            for rect in &rects {
                request.score(rect, ws);
            }
            let mut boxes: Vec<_> = rects.iter().map(local_box).collect();
            boxes.retain(|&(l_r, l_c)| l_r * l_c < m * n);
            boxes.sort_unstable();
            boxes.dedup();
            assert_eq!(built(&kernel), boxes.len(), "{shape:?}");
            assert!(built(&kernel) <= bound(m) * bound(n), "{shape:?}");
        }
    }

    /// How many of `rects` the cancellation guard sends to the full-size
    /// lane.
    fn fallbacks(
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        rects: &[Rect],
        kernel: &PreparedKernel,
    ) -> usize {
        let request = spectral(x, y, rects, kernel);
        let local = request
            .local
            .as_ref()
            .expect("every box is smaller than the image");
        let ws = &mut Vec::new();
        let sent = |rect: &&Rect| local_score(x, local, kernel, rect, ws).is_none();
        rects.iter().filter(sent).count()
    }

    /// The guard's fallbacks, pinned on `serve-large`'s operands — the
    /// kernel `((r + 3c) % 5) / 4`, four seeded 128² inputs, `y = x ∗ k`,
    /// grid 4 — at none; and at exactly one where one block's occlusion
    /// explains `y`. A tightened guard moves the first number.
    #[test]
    fn the_guard_sends_back_no_serve_large_block_and_the_cancelled_one() {
        let shape = (128, 128);
        let k = Matrix::from_fn(128, 128, |r, c| ((r + c * 3) % 5) as f64 * 0.25).unwrap();
        let kernel = prepared(&k);
        let rects: Vec<Rect> = (0..16)
            .map(|b| (b / 4 * 32..b / 4 * 32 + 32, b % 4 * 32..b % 4 * 32 + 32))
            .collect();
        for seed in 0..4 {
            let x = seeded(42 + seed, shape);
            let y = convolve2d_fft(&x, &k).unwrap();
            assert_eq!(fallbacks(&x, &y, &rects, &kernel), 0, "input {seed}");
        }
        let x = seeded(42, shape);
        let y = convolve2d_fft(&occluded(&x, &rects[2]).unwrap(), &k).unwrap();
        assert_eq!(fallbacks(&x, &y, &rects, &kernel), 1);
    }
}
