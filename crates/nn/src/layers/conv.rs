//! 2-D convolution layer (cross-correlation convention, square
//! kernel, configurable stride and zero padding).
//!
//! Each pass is one register-blocked kernel whose SIMD lanes run
//! across *channels*, not columns: a block of `L` accumulators (8, or
//! 4 when the laned side has at most 4 channels; SSE2 holds two per
//! register) holds the same spatial element of `L` channels, and each
//! tap is one broadcast scalar times `L` packed weights or gradients.
//! All lanes of a block share their taps, so a tap that falls in the
//! padding is skipped by the whole block at once, with no masking,
//! and one loop nest per pass serves every stride and padding:
//!
//! - **Forward**: per block of output channels and output position,
//!   the lanes start at `bias` and take their taps `ic → ky → kx`
//!   from weights packed `[oc/L][ic][ky][kx][oc%L]`.
//! - **Weight gradient**: the backward pass leaves the output gradient
//!   on the sample's tape, transposed to `[oc/L][oy·ow+ox][oc%L]`.
//!   [`Layer::accumulate`] then takes a whole batch: per tap `(ky, kx)`
//!   and block of output channels, each lane loads its weight's
//!   accumulated gradient and runs its own serial chain over the
//!   samples, `(oy, ox)` ascending within each.
//! - **Input gradient**: per block of input channels and input
//!   position, the lanes start at zero and take their taps
//!   `oc → ky↓ → kx↓` from weights packed `[ic/L][oc][ky][kx][ic%L]`.
//!
//! Forward and input gradient are one gather kernel (`Gather`) with
//! the two channel axes' roles swapped. To keep more than one block's
//! chains in flight, it runs two adjacent positions of a row at once
//! when their taps have the same `k`s, and the weight gradient runs
//! two input channels at once (`Correlate`). Which taps reach which
//! positions is worked out once, in [`Conv2d::new`], as per-row and
//! per-column `(k, index)` lists (`Axis`), so no `%` or `/` runs per
//! tap. The weights are packed for both gather passes whenever they
//! change, and the weight gradient is accumulated in the forward
//! packing, so each `(output-channel block, input-channel pair)` unit
//! is one contiguous slice: one pool task.
//!
//! What the kernels may *not* change is the order in which any one
//! accumulator receives its terms: every trained weight,
//! `EpochReport` and localisation figure downstream is pinned to the
//! bit. The numerics contract is three orders, each a plain sequence
//! of `acc += a * b` (no FMA, no partial sums, no im2col regrouping —
//! `crate::im2col` is a test-only cross-reference, 1e-12 not bits):
//!
//! 1. **Output** `(oc, oy, ox)`: starts at `bias[oc]`, then takes its
//!    taps in `ic`, `ky`, `kx` ascending order.
//! 2. **`grad_bias[oc]`, `grad_weights[oc, ic, ky, kx]`**: continue
//!    from the value accumulated so far and take the terms of the
//!    batch's samples in sample order, each sample's in `oy`, `ox`
//!    ascending (row-major) order — the bits of one sample after
//!    another on one thread, whichever worker runs the unit.
//! 3. **Input gradient** `(ic, sy, sx)`: starts at zero and takes its
//!    terms in `oc`, `oy`, `ox` ascending order — for a fixed `oc`
//!    that is `ky` descending, then `kx` descending.
//!
//! A tap that falls in the zero padding is *skipped*, never multiplied
//! by a padded zero: `acc + 0.0 * w` turns an accumulated `-0.0` into
//! `+0.0` and `0.0 * inf` into NaN, so the two are different functions.

use crate::layer::{Layer, Tape};
use crate::tensor3::Tensor3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_tensor::ops::par_map;
use xai_tensor::{Result, TensorError};

/// Lanes per accumulator block when `channels` channels are laned: 4
/// when they all fit in such a block, else 8. The last block of a
/// count that is not a multiple stores only its real lanes; its
/// padded lanes read packed zeros. SSE2 holds two lanes per register.
const fn lanes(channels: usize) -> usize {
    if channels <= 4 {
        4
    } else {
        8
    }
}

/// One list of index pairs per index, stored flat.
#[derive(Debug, Clone)]
struct Lists {
    items: Vec<(usize, usize)>,
    /// Where each index's list starts in `items`, and where the last
    /// one ends.
    starts: Vec<usize>,
}

impl Lists {
    /// The lists `list(i)` yields for `i` in `0..n`.
    fn new<I: Iterator<Item = (usize, usize)>>(n: usize, list: impl Fn(usize) -> I) -> Lists {
        let mut lists = Lists {
            items: Vec::new(),
            starts: vec![0],
        };
        for i in 0..n {
            lists.items.extend(list(i));
            lists.starts.push(lists.items.len());
        }
        lists
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn get(&self, i: usize) -> &[(usize, usize)] {
        &self.items[self.starts[i]..self.starts[i + 1]]
    }
}

/// The taps that reach each index on one side of a spatial axis, in
/// the order that side's accumulators take them.
#[derive(Debug, Clone)]
struct Taps {
    /// Per index: `(k, index on the other side)`.
    of: Lists,
    /// The indices in runs `(first, len)` of one, or two adjacent
    /// indices whose taps have the same `k`s; the second one's
    /// other-side indices are then the first one's plus `step`.
    runs: Vec<(usize, usize)>,
    step: usize,
    /// Length of the other side.
    other: usize,
}

impl Taps {
    fn new(of: Lists, step: usize, other: usize) -> Taps {
        let ks = |i: usize| of.get(i).iter().map(|&(k, _)| k);
        let mut runs = Vec::new();
        let mut i = 0;
        while i < of.len() {
            let len = if i + 1 < of.len() && ks(i).eq(ks(i + 1)) {
                2
            } else {
                1
            };
            runs.push((i, len));
            i += len;
        }
        Taps {
            of,
            runs,
            step,
            other,
        }
    }
}

/// One spatial axis of a layer: tap `k` of output index `o` reads
/// input index `o·stride + k − padding`. Each in-bounds
/// `(o, k, input)` triple is listed three ways; a tap that lands in
/// the padding is in no list.
#[derive(Debug, Clone)]
struct Axis {
    /// Per output index: `(k, input index)`, `k` ascending.
    fwd: Taps,
    /// Per input index: `(k, output index)`, output ascending, which
    /// is `k` descending.
    bwd: Taps,
    /// Per `k`: `(output index, input index)`, output ascending.
    by_tap: Lists,
}

impl Axis {
    fn new(len: usize, out_len: usize, kernel: usize, stride: usize, padding: usize) -> Axis {
        let input =
            move |o: usize, k: usize| (o * stride + k).checked_sub(padding).filter(|&i| i < len);
        let fwd = Lists::new(out_len, |o| {
            (0..kernel).filter_map(move |k| Some((k, input(o, k)?)))
        });
        let bwd = Lists::new(len, |i| {
            (0..out_len).filter_map(move |o| {
                let k = (i + padding).checked_sub(o * stride)?;
                (k < kernel).then_some((k, o))
            })
        });
        let by_tap = Lists::new(kernel, |k| {
            (0..out_len).filter_map(move |o| Some((o, input(o, k)?)))
        });
        Axis {
            fwd: Taps::new(fwd, stride, len),
            bwd: Taps::new(bwd, 1, out_len),
            by_tap,
        }
    }

    fn len(&self) -> usize {
        self.bwd.of.len()
    }

    fn out_len(&self) -> usize {
        self.fwd.of.len()
    }
}

/// Packs `weights` (`[oc][ic][tap]`, `kk` taps) into `packed` in
/// blocks of `l` lanes across output channels (`[oc/l][ic][tap][oc%l]`)
/// or, without `lanes_over_oc`, across input channels
/// (`[ic/l][oc][tap][ic%l]`), padded lanes zero.
fn pack(
    packed: &mut [f64],
    weights: &[f64],
    ic_n: usize,
    kk: usize,
    l: usize,
    lanes_over_oc: bool,
) {
    let oc_n = weights.len() / (ic_n * kk);
    let planes = if lanes_over_oc { ic_n } else { oc_n };
    packed.fill(0.0);
    for (i, &w) in weights.iter().enumerate() {
        let (oc, ic, tap) = (i / (ic_n * kk), i / kk % ic_n, i % kk);
        let (lane, plane) = if lanes_over_oc { (oc, ic) } else { (ic, oc) };
        packed[((lane / l * planes + plane) * kk + tap) * l + lane % l] = w;
    }
}

/// A gather pass, forward or input gradient: destination element
/// `(c, y, x)` takes `src` plane by plane, then the taps of
/// `rows.of[y]`, then those of `cols.of[x]`, each times the packed
/// weight of its `(c, plane, ky, kx)`.
struct Gather<'a> {
    src: &'a [f64],
    rows: &'a Taps,
    cols: &'a Taps,
    kernel: usize,
}

impl Gather<'_> {
    /// Fills `dst` (`[c][y][x]`) in blocks of `L` channels, from
    /// weights packed block-major; every element starts at `init[c]`,
    /// or at zero without one.
    fn run<const L: usize>(&self, packed: &[f64], init: Option<&[f64]>, dst: &mut [f64]) {
        let (h, w) = (self.rows.of.len(), self.cols.of.len());
        let channels = dst.len() / (h * w);
        let planes = self.src.len() / (self.rows.other * self.cols.other);
        let block = planes * self.kernel * self.kernel * L;
        for (b, weights) in packed.chunks_exact(block).enumerate() {
            let (c0, n) = (b * L, L.min(channels - b * L));
            let mut start = [0.0; L];
            if let Some(init) = init {
                start[..n].copy_from_slice(&init[c0..c0 + n]);
            }
            for y in 0..h {
                for &(x, len) in &self.cols.runs {
                    let acc: &[[f64; L]] = if len == 2 {
                        &self.taps::<L, 2>(weights, start, y, x)
                    } else {
                        &self.taps::<L, 1>(weights, start, y, x)
                    };
                    for (p, acc) in acc.iter().enumerate() {
                        for (l, a) in acc[..n].iter().enumerate() {
                            dst[((c0 + l) * h + y) * w + x + p] = *a;
                        }
                    }
                }
            }
        }
    }

    /// The `L` lanes of one block (its packed `weights`) at `P`
    /// adjacent positions `(y, x..x + P)`, which share the taps of
    /// `(y, x)`.
    #[inline(always)]
    fn taps<const L: usize, const P: usize>(
        &self,
        weights: &[f64],
        start: [f64; L],
        y: usize,
        x: usize,
    ) -> [[f64; L]; P] {
        let (k, width, step) = (self.kernel, self.cols.other, self.cols.step);
        let plane = self.rows.other * width;
        let (row_taps, col_taps) = (self.rows.of.get(y), self.cols.of.get(x));
        let mut acc = [start; P];
        for (src, weights) in self
            .src
            .chunks_exact(plane)
            .zip(weights.chunks_exact(k * k * L))
        {
            for &(ky, sy) in row_taps {
                let src = &src[sy * width..][..width];
                let weights = &weights[ky * k * L..][..k * L];
                for &(kx, sx) in col_taps {
                    let w = &weights[kx * L..][..L];
                    for (p, acc) in acc.iter_mut().enumerate() {
                        let v = src[sx + p * step];
                        for (a, w) in acc.iter_mut().zip(w) {
                            *a += v * w;
                        }
                    }
                }
            }
        }
        acc
    }
}

/// The weight-gradient pass over a batch: the lanes of an
/// output-channel block run the serial chains of one weight tap
/// `(ky, kx)` for `P` adjacent input channels at once, over `g · x` at
/// the positions `rows.by_tap[ky] × cols.by_tap[kx]`, sample by
/// sample, `(oy, ox)` ascending within each.
struct Correlate<'a> {
    /// Per sample: its input (`[ic][y][x]`) and its output gradient
    /// transposed block-major (`[oc/L][oy·ow+ox][oc%L]`).
    samples: &'a [(&'a [f64], &'a [f64])],
    rows: &'a Axis,
    cols: &'a Axis,
}

impl Correlate<'_> {
    /// Accumulates onto `unit`, the gradients of output-channel block
    /// `b` and input channels `ic..` (one or two of them) packed
    /// `[ic][ky][kx][oc%L]`, every tap in turn.
    fn run<const L: usize>(&self, b: usize, ic: usize, unit: &mut [f64]) {
        let kk = self.rows.by_tap.len() * self.cols.by_tap.len();
        for tap in 0..kk {
            if unit.len() == 2 * kk * L {
                self.chains::<L, 2>(b, ic, tap, unit);
            } else {
                self.chains::<L, 1>(b, ic, tap, unit);
            }
        }
    }

    /// The chains of tap `tap = ky·k + kx` for output-channel block `b`
    /// and input channels `ic..ic + P`, each lane continuing from its
    /// weight's accumulated gradient.
    #[inline(always)]
    fn chains<const L: usize, const P: usize>(
        &self,
        b: usize,
        ic: usize,
        tap: usize,
        unit: &mut [f64],
    ) {
        let (kernel, width, out_width) =
            (self.rows.by_tap.len(), self.cols.len(), self.cols.out_len());
        let (ky, kx, kk) = (tap / kernel, tap % kernel, kernel * kernel);
        let (plane, out_plane) = (self.rows.len() * width, self.rows.out_len() * out_width);
        let mut acc = [[0.0; L]; P];
        for (p, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&unit[(p * kk + tap) * L..][..L]);
        }
        for (x, g) in self.samples {
            let x = &x[ic * plane..][..P * plane];
            let g = &g[b * out_plane * L..][..out_plane * L];
            for &(oy, sy) in self.rows.by_tap.get(ky) {
                let g = &g[oy * out_width * L..][..out_width * L];
                for &(ox, sx) in self.cols.by_tap.get(kx) {
                    let g = &g[ox * L..][..L];
                    for (p, acc) in acc.iter_mut().enumerate() {
                        let v = x[p * plane + sy * width + sx];
                        for (a, g) in acc.iter_mut().zip(g) {
                            *a += g * v;
                        }
                    }
                }
            }
        }
        for (p, acc) in acc.iter().enumerate() {
            unit[(p * kk + tap) * L..][..L].copy_from_slice(acc);
        }
    }
}

/// A multi-channel 2-D convolution layer.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    in_shape: (usize, usize, usize),
    rows: Axis,
    cols: Axis,
    /// Weights, flat `[oc][ic][ky][kx]`.
    weights: Vec<f64>,
    bias: Vec<f64>,
    /// `weights` packed for the forward pass: lanes across output
    /// channels, `[oc/L][ic][ky][kx][oc%L]`. Repacked whenever the
    /// weights change.
    fwd: Vec<f64>,
    /// `weights` packed for the input gradient: lanes across input
    /// channels, `[ic/L][oc][ky][kx][ic%L]`.
    bwd: Vec<f64>,
    /// The accumulated weight gradient, in `fwd`'s layout (padded
    /// lanes are never read).
    grad_weights: Vec<f64>,
    grad_bias: Vec<f64>,
    vel_weights: Vec<f64>,
    vel_bias: Vec<f64>,
}

/// `dims`' product, or [`TensorError::ShapeOverflow`].
fn product(dims: &[usize]) -> Result<usize> {
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| TensorError::ShapeOverflow {
            dims: dims.to_vec(),
        })
}

impl Conv2d {
    /// Creates a conv layer for inputs of shape
    /// `(in_channels, in_h, in_w)` with He-initialised weights drawn
    /// from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] if any structural
    /// parameter is zero or the kernel doesn't fit the padded input,
    /// and [`TensorError::ShapeOverflow`] if a parameter or activation
    /// count overflows `usize`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        in_h: usize,
        in_w: usize,
        seed: u64,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(TensorError::EmptyDimension);
        }
        let padded = |len: usize| {
            padding
                .checked_mul(2)
                .and_then(|p| p.checked_add(len))
                .ok_or_else(|| TensorError::ShapeOverflow {
                    dims: vec![len, padding, 2],
                })
        };
        let (padded_h, padded_w) = (padded(in_h)?, padded(in_w)?);
        if padded_h < kernel || padded_w < kernel {
            return Err(TensorError::ShapeMismatch {
                left: (padded_h, padded_w),
                right: (kernel, kernel),
                op: "conv kernel larger than padded input",
            });
        }
        let (oh, ow) = (
            (padded_h - kernel) / stride + 1,
            (padded_w - kernel) / stride + 1,
        );
        let padded_channels = |channels: usize| {
            channels
                .checked_next_multiple_of(lanes(channels))
                .ok_or_else(|| TensorError::ShapeOverflow {
                    dims: vec![channels, lanes(channels)],
                })
        };
        let (oc_padded, ic_padded) = (
            padded_channels(out_channels)?,
            padded_channels(in_channels)?,
        );
        let n_weights = product(&[out_channels, in_channels, kernel, kernel])?;
        let n_fwd = product(&[oc_padded, in_channels, kernel, kernel])?;
        let n_bwd = product(&[ic_padded, out_channels, kernel, kernel])?;
        // Per-sample activation and transposed-gradient sizes.
        product(&[in_channels, in_h, in_w])?;
        product(&[oc_padded, oh, ow])?;
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f64;
        let scale = (2.0 / fan_in).sqrt();
        let weights = (0..n_weights)
            .map(|_| (rng.random::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        let mut conv = Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            in_shape: (in_channels, in_h, in_w),
            rows: Axis::new(in_h, oh, kernel, stride, padding),
            cols: Axis::new(in_w, ow, kernel, stride, padding),
            weights,
            bias: vec![0.0; out_channels],
            fwd: vec![0.0; n_fwd],
            bwd: vec![0.0; n_bwd],
            grad_weights: vec![0.0; n_fwd],
            grad_bias: vec![0.0; out_channels],
            vel_weights: vec![0.0; n_weights],
            vel_bias: vec![0.0; out_channels],
        };
        conv.repack();
        Ok(conv)
    }

    fn out_hw(&self) -> (usize, usize) {
        (self.rows.out_len(), self.cols.out_len())
    }

    /// Read-only weight view (used by explanation tooling).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Packs `weights` for both gather passes.
    fn repack(&mut self) {
        let (ic_n, kk) = (self.in_channels, self.kernel * self.kernel);
        let (lo, li) = (lanes(self.out_channels), lanes(self.in_channels));
        pack(&mut self.fwd, &self.weights, ic_n, kk, lo, true);
        pack(&mut self.bwd, &self.weights, ic_n, kk, li, false);
    }

    /// Index of weight `i` (`[oc][ic][ky][kx]`) in `fwd`'s layout.
    fn packed_index(&self, i: usize) -> usize {
        let (ic_n, kk, l) = (
            self.in_channels,
            self.kernel * self.kernel,
            lanes(self.out_channels),
        );
        let (oc, ic, tap) = (i / (ic_n * kk), i / kk % ic_n, i % kk);
        ((oc / l * ic_n + ic) * kk + tap) * l + oc % l
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv {}→{} {}x{} s{} p{}",
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.kernel,
            self.stride,
            self.padding
        )
    }

    fn forward(&self, input: &Tensor3, tape: Option<&mut Tape>) -> Result<Tensor3> {
        if input.shape() != self.in_shape {
            return Err(TensorError::ShapeMismatch {
                left: (input.channels(), input.height() * input.width()),
                right: (self.in_shape.0, self.in_shape.1 * self.in_shape.2),
                op: "conv forward input",
            });
        }
        let (oh, ow) = self.out_hw();
        let mut out = Tensor3::zeros(self.out_channels, oh, ow)?;
        let pass = Gather {
            src: input.as_slice(),
            rows: &self.rows.fwd,
            cols: &self.cols.fwd,
            kernel: self.kernel,
        };
        let bias = Some(self.bias.as_slice());
        if lanes(self.out_channels) == 4 {
            pass.run::<4>(&self.fwd, bias, out.as_mut_slice());
        } else {
            pass.run::<8>(&self.fwd, bias, out.as_mut_slice());
        }
        if let Some(tape) = tape {
            tape.push_input(input);
        }
        Ok(out)
    }

    /// Leaves the input and the output gradient, transposed
    /// block-major (`[oc/L][oy·ow+ox][oc%L]`), for
    /// [`accumulate`](Layer::accumulate).
    fn backward(
        &self,
        grad: &Tensor3,
        tape: &mut Tape,
        input_grad: bool,
    ) -> Result<Option<Tensor3>> {
        let (input, _) = tape.pop_input()?;
        let (oh, ow) = self.out_hw();
        if grad.shape() != (self.out_channels, oh, ow) {
            return Err(TensorError::ShapeMismatch {
                left: (grad.channels(), grad.height() * grad.width()),
                right: (self.out_channels, oh * ow),
                op: "conv backward grad",
            });
        }
        let (g, l, plane) = (grad.as_slice(), lanes(self.out_channels), oh * ow);
        let grad_t = tape.store(self.out_channels.next_multiple_of(l) * plane, |grad_t| {
            for (oc, g) in g.chunks_exact(plane).enumerate() {
                for (pos, v) in g.iter().enumerate() {
                    grad_t[(oc / l * plane + pos) * l + oc % l] = *v;
                }
            }
        });
        let grad_in = if input_grad {
            let (_, ih, iw) = self.in_shape;
            let mut grad_in = Tensor3::zeros(self.in_channels, ih, iw)?;
            let pass = Gather {
                src: g,
                rows: &self.rows.bwd,
                cols: &self.cols.bwd,
                kernel: self.kernel,
            };
            if lanes(self.in_channels) == 4 {
                pass.run::<4>(&self.bwd, None, grad_in.as_mut_slice());
            } else {
                pass.run::<8>(&self.bwd, None, grad_in.as_mut_slice());
            }
            Some(grad_in)
        } else {
            None
        };
        tape.push_grads(input, grad_t);
        Ok(grad_in)
    }

    fn tape_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        let (c, ih, iw) = self.in_shape;
        c * ih * iw + self.out_channels.next_multiple_of(lanes(self.out_channels)) * oh * ow
    }

    /// The bias on the calling thread, then one task per output-channel
    /// block and input-channel pair (its weights are contiguous in the
    /// packed layout); every gradient takes its samples' terms in tape
    /// order.
    fn accumulate(&mut self, tapes: &mut [Tape]) -> Result<()> {
        let samples = tapes
            .iter_mut()
            .map(Tape::pop_grads)
            .collect::<Result<Vec<_>>>()?;
        let (l, kk) = (lanes(self.out_channels), self.kernel * self.kernel);
        let (oh, ow) = self.out_hw();
        for (b, acc) in self.grad_bias.chunks_mut(l).enumerate() {
            for (_, g) in &samples {
                for g in g[b * oh * ow * l..][..oh * ow * l].chunks_exact(l) {
                    for (a, g) in acc.iter_mut().zip(g) {
                        *a += g;
                    }
                }
            }
        }
        let units: Vec<_> = self
            .grad_weights
            .chunks_mut(self.in_channels * kk * l)
            .enumerate()
            .flat_map(|(b, block)| {
                let pairs = block.chunks_mut(2 * kk * l).enumerate();
                pairs.map(move |(pair, unit)| (b, 2 * pair, unit))
            })
            .collect();
        let pass = Correlate {
            samples: &samples,
            rows: &self.rows,
            cols: &self.cols,
        };
        par_map(units, |(b, ic, unit)| {
            if l == 4 {
                pass.run::<4>(b, ic, unit);
            } else {
                pass.run::<8>(b, ic, unit);
            }
        });
        Ok(())
    }

    fn apply_gradients(&mut self, lr: f64, momentum: f64, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        for i in 0..self.weights.len() {
            let grad = self.grad_weights[self.packed_index(i)];
            self.vel_weights[i] = momentum * self.vel_weights[i] - lr * grad * scale;
            self.weights[i] += self.vel_weights[i];
        }
        self.grad_weights.fill(0.0);
        for i in 0..self.bias.len() {
            self.vel_bias[i] = momentum * self.vel_bias[i] - lr * self.grad_bias[i] * scale;
            self.bias[i] += self.vel_bias[i];
            self.grad_bias[i] = 0.0;
        }
        self.repack();
    }

    fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn output_shape(&self) -> (usize, usize, usize) {
        let (oh, ow) = self.out_hw();
        (self.out_channels, oh, ow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::finite_difference_check;

    /// The seven-loop nests this layer ran before its blocked
    /// kernels, kept verbatim as the reference the differential below
    /// compares against.
    impl Conv2d {
        fn w_index(&self, oc: usize, ic: usize, ky: usize, kx: usize) -> usize {
            ((oc * self.in_channels + ic) * self.kernel + ky) * self.kernel + kx
        }

        fn reference_forward(&self, input: &Tensor3) -> Result<Tensor3> {
            if input.shape() != self.in_shape {
                return Err(TensorError::ShapeMismatch {
                    left: (input.channels(), input.height() * input.width()),
                    right: (self.in_shape.0, self.in_shape.1 * self.in_shape.2),
                    op: "conv forward input",
                });
            }
            let (oh, ow) = self.out_hw();
            let (_, ih, iw) = self.in_shape;
            let mut out = Tensor3::zeros(self.out_channels, oh, ow)?;
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.bias[oc];
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel {
                                let sy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if sy < 0 || sy as usize >= ih {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if sx < 0 || sx as usize >= iw {
                                        continue;
                                    }
                                    acc += input.get(ic, sy as usize, sx as usize)
                                        * self.weights[self.w_index(oc, ic, ky, kx)];
                                }
                            }
                        }
                        out.set(oc, oy, ox, acc);
                    }
                }
            }
            Ok(out)
        }

        /// Backward for the forward pass of `input`, accumulating onto
        /// `grad_weights` (`[oc][ic][ky][kx]`) and `grad_bias`.
        #[allow(clippy::needless_range_loop)] // the seven loops, as they were
        fn reference_backward(
            &self,
            input: &Tensor3,
            grad: &Tensor3,
            grad_weights: &mut [f64],
            grad_bias: &mut [f64],
        ) -> Result<Tensor3> {
            let (oh, ow) = self.out_hw();
            if grad.shape() != (self.out_channels, oh, ow) {
                return Err(TensorError::ShapeMismatch {
                    left: (grad.channels(), grad.height() * grad.width()),
                    right: (self.out_channels, oh * ow),
                    op: "conv backward grad",
                });
            }
            let (_, ih, iw) = self.in_shape;
            let mut grad_in = Tensor3::zeros(self.in_channels, ih, iw)?;
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = grad.get(oc, oy, ox);
                        grad_bias[oc] += g;
                        for ic in 0..self.in_channels {
                            for ky in 0..self.kernel {
                                let sy = (oy * self.stride + ky) as isize - self.padding as isize;
                                if sy < 0 || sy as usize >= ih {
                                    continue;
                                }
                                for kx in 0..self.kernel {
                                    let sx =
                                        (ox * self.stride + kx) as isize - self.padding as isize;
                                    if sx < 0 || sx as usize >= iw {
                                        continue;
                                    }
                                    let wi = self.w_index(oc, ic, ky, kx);
                                    grad_weights[wi] += g * input.get(ic, sy as usize, sx as usize);
                                    grad_in.add_at(
                                        ic,
                                        sy as usize,
                                        sx as usize,
                                        g * self.weights[wi],
                                    );
                                }
                            }
                        }
                    }
                }
            }
            Ok(grad_in)
        }

        /// The accumulated weight gradient, `[oc][ic][ky][kx]`.
        fn unpacked_grad_weights(&self) -> Vec<f64> {
            (0..self.weights.len())
                .map(|i| self.grad_weights[self.packed_index(i)])
                .collect()
        }
    }

    /// What the differential fills tensors with.
    #[derive(Debug, Clone, Copy)]
    enum Values {
        /// Uniform in `[-1, 1)`.
        Finite,
        /// Three in four are `-0.0`: a skipped tap keeps an
        /// accumulated `-0.0`, a tap multiplied by a padded zero
        /// does not.
        NegativeZeros,
        /// One in four is NaN, `+inf` or `-inf`: `0.0 * inf` is NaN.
        NonFinite,
    }

    fn fill(values: Values, rng: &mut StdRng, data: &mut [f64]) {
        for v in data {
            let finite = rng.random::<f64>() * 2.0 - 1.0;
            let dice = rng.random_range(0..12u32);
            *v = match (values, dice) {
                (Values::NegativeZeros, 0..=8) => -0.0,
                (Values::NonFinite, 0) => f64::NAN,
                (Values::NonFinite, 1) => f64::INFINITY,
                (Values::NonFinite, 2) => f64::NEG_INFINITY,
                _ => finite,
            };
        }
    }

    /// Bit equality, except that any NaN equals any NaN: which
    /// operand's sign and payload a NaN result inherits is not
    /// specified by the language and moves with instruction selection.
    fn assert_same_bits(what: &str, case: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what} length, {case}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}[{i}] = {g:e} ({:#x}), reference {w:e} ({:#x}), {case}",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The kernels against the seven-loop reference, bit for bit:
    /// every kernel size 1..=4, stride 1..=3 and padding 0..=2 that
    /// fits, channel pairs inside one lane block, across two (8→16)
    /// and with a partial tail block (9→17, 17→9), three value fills,
    /// a batch of two backward passes per forward, accumulated twice
    /// (the second batch continues from the first). Each of these
    /// mutations, made by hand on a copy, fails it (first failing
    /// case):
    ///
    /// - padded column taps multiplied by zero instead of skipped:
    ///   `NegativeZeros k1 s1 p1 2→3 7×7`, `output[9]` `+0.0` against
    ///   `-0.0`;
    /// - `kx` ascending in the input gradient: `Finite k2 s1 p0 1→1
    ///   3×5`, `grad_in[6]`, 1 ulp;
    /// - `ky` ascending in the input gradient: the same case and
    ///   element, 1 ulp;
    /// - a weight-gradient lane block that starts from `0.0` instead
    ///   of the accumulated value: `Finite k1 s1 p0 1→1 1×1`,
    ///   `grad_weights[0]`;
    /// - a tail block that stores its padded lanes: `Finite k1 s1 p0
    ///   1→1 1×1` panics, index out of bounds in the forward store.
    #[test]
    fn row_kernels_match_the_seven_loop_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut cases = 0;
        for values in [Values::Finite, Values::NegativeZeros, Values::NonFinite] {
            for (kernel, stride, padding) in (1..=4usize)
                .flat_map(|k| (1..=3usize).map(move |s| (k, s)))
                .flat_map(|(k, s)| (0..=2usize).map(move |p| (k, s, p)))
            {
                for (ic, oc) in [(1, 1), (2, 3), (3, 2), (8, 16), (9, 17), (17, 9)] {
                    for (h, w) in [(1, 1), (3, 5), (6, 4), (7, 7), (8, 8)] {
                        let Ok(mut conv) = Conv2d::new(ic, oc, kernel, stride, padding, h, w, 5)
                        else {
                            continue; // kernel larger than the padded input
                        };
                        let case =
                            format!("{values:?} k{kernel} s{stride} p{padding} {ic}→{oc} {h}×{w}");
                        fill(values, &mut rng, &mut conv.weights);
                        fill(values, &mut rng, &mut conv.bias);
                        conv.repack();
                        let mut x = Tensor3::zeros(ic, h, w).unwrap();
                        fill(values, &mut rng, x.as_mut_slice());
                        let mut tapes = vec![Tape::default(), Tape::default()];
                        let out = conv.forward(&x, Some(&mut tapes[0])).unwrap();
                        conv.forward(&x, Some(&mut tapes[1])).unwrap();
                        let want = conv.reference_forward(&x).unwrap();
                        assert_eq!(out.shape(), want.shape(), "{case}");
                        assert_same_bits("output", &case, out.as_slice(), want.as_slice());
                        let mut grads = Vec::new();
                        let mut grad_weights = vec![0.0; conv.weights.len()];
                        let mut grad_bias = vec![0.0; oc];
                        for tape in &mut tapes {
                            let mut grad = out.clone();
                            fill(values, &mut rng, grad.as_mut_slice());
                            let gin = conv.backward(&grad, tape, true).unwrap().unwrap();
                            let want = conv
                                .reference_backward(&x, &grad, &mut grad_weights, &mut grad_bias)
                                .unwrap();
                            assert_eq!(gin.shape(), want.shape(), "{case}");
                            assert_same_bits("grad_in", &case, gin.as_slice(), want.as_slice());
                            grads.push(grad);
                        }
                        for grad in &grads {
                            conv.reference_backward(&x, grad, &mut grad_weights, &mut grad_bias)
                                .unwrap();
                        }
                        let mut again = tapes.clone();
                        conv.accumulate(&mut tapes).unwrap();
                        conv.accumulate(&mut again).unwrap();
                        assert_same_bits(
                            "grad_weights",
                            &case,
                            &conv.unpacked_grad_weights(),
                            &grad_weights,
                        );
                        assert_same_bits("grad_bias", &case, &conv.grad_bias, &grad_bias);
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 2970);
    }

    #[test]
    fn identity_kernel_passes_signal_through() {
        // 1→1 channels, 1×1 kernel manually set to weight 1.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 3, 3, 0).unwrap();
        conv.weights[0] = 1.0;
        conv.bias[0] = 0.0;
        conv.repack();
        let x = Tensor3::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f64).unwrap();
        let y = conv.forward(&x, None).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn output_shape_arithmetic() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 8, 8, 0).unwrap(); // same padding
        assert_eq!(conv.output_shape(), (8, 8, 8));
        let strided = Conv2d::new(3, 8, 3, 2, 1, 8, 8, 0).unwrap();
        assert_eq!(strided.output_shape(), (8, 4, 4));
        let valid = Conv2d::new(1, 1, 3, 1, 0, 8, 8, 0).unwrap();
        assert_eq!(valid.output_shape(), (1, 6, 6));
    }

    #[test]
    fn known_convolution_value() {
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 2, 2, 0).unwrap();
        // kernel = [[1, 2], [3, 4]], bias = 10
        conv.weights.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        conv.bias[0] = 10.0;
        conv.repack();
        let x = Tensor3::from_vec(1, 2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let y = conv.forward(&x, None).unwrap();
        assert_eq!(y.get(0, 0, 0), 20.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let conv = Conv2d::new(2, 3, 3, 1, 1, 4, 4, 42).unwrap();
        let x = Tensor3::from_fn(2, 4, 4, |c, y, x| {
            ((c * 13 + y * 5 + x * 3) % 7) as f64 / 7.0 - 0.4
        })
        .unwrap();
        let err = finite_difference_check(&conv, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn strided_gradient_matches_finite_differences() {
        let conv = Conv2d::new(1, 2, 2, 2, 0, 4, 4, 7).unwrap();
        let x = Tensor3::from_fn(1, 4, 4, |_, y, x| ((y * 4 + x) % 5) as f64 * 0.2).unwrap();
        let err = finite_difference_check(&conv, &x, 1e-5).unwrap();
        assert!(err < 1e-6, "max fd error {err}");
    }

    #[test]
    fn weight_gradient_direction_reduces_loss() {
        // One SGD step on loss = Σ out² must reduce the loss.
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 4, 4, 3).unwrap();
        let x = Tensor3::from_fn(1, 4, 4, |_, y, x| ((y + x) % 3) as f64 - 1.0).unwrap();
        let loss = |c: &Conv2d, x: &Tensor3| -> f64 {
            let o = c.forward(x, None).unwrap();
            o.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        let before = loss(&conv, &x);
        let mut tape = Tape::default();
        let out = conv.forward(&x, Some(&mut tape)).unwrap();
        let grad = out.map(|v| 2.0 * v);
        conv.backward(&grad, &mut tape, false).unwrap();
        conv.accumulate(std::slice::from_mut(&mut tape)).unwrap();
        conv.apply_gradients(0.01, 0.0, 1);
        let after = loss(&conv, &x);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 2, 2, 0).unwrap();
        let g = Tensor3::zeros(1, 2, 2).unwrap();
        assert!(conv.backward(&g, &mut Tape::default(), true).is_err());
        // Nor may parameter gradients be accumulated before a backward.
        let mut tape = Tape::default();
        conv.forward(&g, Some(&mut tape)).unwrap();
        assert!(conv.accumulate(std::slice::from_mut(&mut tape)).is_err());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let conv = Conv2d::new(1, 1, 3, 1, 1, 4, 4, 0).unwrap();
        let x = Tensor3::zeros(2, 4, 4).unwrap();
        assert!(conv.forward(&x, None).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(Conv2d::new(0, 1, 3, 1, 1, 4, 4, 0).is_err());
        assert!(Conv2d::new(1, 1, 5, 1, 0, 4, 4, 0).is_err()); // kernel > input
        assert!(Conv2d::new(1, 1, 3, 0, 1, 4, 4, 0).is_err()); // zero stride
    }

    #[test]
    fn overflowing_parameter_and_activation_counts_are_refused() {
        // (2^32, 2^32) on a 64-bit target: the product wraps to 0.
        let half = 1usize << (usize::BITS / 2);
        let overflow = |dims: &[usize]| TensorError::ShapeOverflow {
            dims: dims.to_vec(),
        };
        // out · in · k · k
        let err = Conv2d::new(half, half, 1, 1, 0, 1, 1, 0).unwrap_err();
        assert_eq!(err, overflow(&[half, half, 1, 1]));
        // in · h · w, then out_padded · oh · ow: the weights fit, one
        // sample's input or output does not.
        let err = Conv2d::new(1, 8, 1, 1, 0, half, half, 0).unwrap_err();
        assert_eq!(err, overflow(&[1, half, half]));
        let err = Conv2d::new(1, 8, 1, 1, half, 1, half / 2, 0).unwrap_err();
        assert_eq!(err, overflow(&[8, 2 * half + 1, 2 * half + half / 2]));
        // 2 · padding
        let err = Conv2d::new(1, 1, 1, 1, usize::MAX / 2 + 1, 1, 1, 0).unwrap_err();
        assert_eq!(err, overflow(&[1, usize::MAX / 2 + 1, 2]));
        // A channel count that cannot be rounded up to a lane block.
        let err = Conv2d::new(usize::MAX, 1, 1, 1, 0, 1, 1, 0).unwrap_err();
        assert_eq!(err, overflow(&[usize::MAX, 8]));
    }

    #[test]
    fn flops_and_params_counting() {
        let conv = Conv2d::new(3, 16, 3, 1, 1, 32, 32, 0).unwrap();
        assert_eq!(conv.parameter_count(), 16 * 3 * 9 + 16);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1, 1, 0).unwrap();
        conv.weights[0] = 1.0;
        conv.repack();
        let x = Tensor3::from_vec(1, 1, 1, vec![1.0]).unwrap();
        let step = |conv: &mut Conv2d| {
            let mut tape = Tape::default();
            conv.forward(&x, Some(&mut tape)).unwrap();
            conv.backward(&x, &mut tape, true).unwrap();
            conv.accumulate(std::slice::from_mut(&mut tape)).unwrap();
        };
        // Two identical steps with momentum: second step moves farther.
        step(&mut conv);
        let w0 = conv.weights[0];
        conv.apply_gradients(0.1, 0.9, 1);
        let d1 = (conv.weights[0] - w0).abs();
        step(&mut conv);
        let w1 = conv.weights[0];
        conv.apply_gradients(0.1, 0.9, 1);
        let d2 = (conv.weights[0] - w1).abs();
        assert!(d2 > d1);
    }
}
