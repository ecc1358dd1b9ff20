//! Golden bits recorded from the commit *before* the code they pin
//! was rewritten: the 2-D transform's move to the in-place row pass +
//! whole-row column pass, `Conv2d`'s move from seven nested loops to
//! row kernels, the unqueued platforms' move from the staged
//! filter-diff chain to fused lanes, real lanes' move to the
//! real-input transform (complex lanes must not have moved with them),
//! and a mini-batch's move from one sample after another to the host
//! pool. The transform-derived pins (`TRANSFORMS`, both block maps and
//! both fit folds) were re-recorded once more when every power-of-two
//! transform moved from radix-2 to the radix-4 kernel, which rounds
//! differently, and the fit folds and the block maps (whose model is
//! fitted) once more when an even-row fit moved to the half spectrum;
//! each constant's doc states how far its values moved.
//! Every other bit-identity check in the tree compares two paths of
//! the same build, so a drift that moves both the same way would pass
//! them all; these constants cannot move with the code.

use std::time::Duration;
use tpu_xai::accel::{Accelerator, CpuModel, GpuModel, PreparedKernel, TpuAccel};
use tpu_xai::core::parallel::block_contributions_on;
use tpu_xai::core::{occlude, DistilledModel, Region, SolveStrategy};
use tpu_xai::data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
use tpu_xai::fourier::Fft2d;
use tpu_xai::nn::layers::Conv2d;
use tpu_xai::nn::{models, Layer, Tape, Tensor3, Trainer};
use tpu_xai::tensor::conv::conv2d_circular;
use tpu_xai::tensor::ops::DivPolicy;
use tpu_xai::tensor::{Complex64, Matrix, Result, TensorError};
use tpu_xai::tpu::{DevicePool, TpuConfig};

/// FNV-1a over 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the `(re, im)` bit patterns, row-major.
fn fold(m: &Matrix<Complex64>) -> u64 {
    fnv(m.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]))
}

fn input(rows: usize, cols: usize) -> Matrix<Complex64> {
    Matrix::from_fn(rows, cols, |r, c| {
        Complex64::new(
            ((r * 37 + c * 11) % 23) as f64 * 0.375 - 4.0,
            ((r * 5 + c * 29) % 19) as f64 * 0.0625 - 0.5,
        )
    })
    .unwrap()
}

/// `(rows, cols, fold(forward), forward[last] bits, fold(inverse), inverse[last] bits)`
/// — power of two both axes, power of two tall, and Bluestein columns
/// (6) with Bluestein rows (10). Re-recorded for the radix-4 kernel:
/// 268 of the 376 complex values moved, by at most 3.4e-15 of their
/// own magnitude (at most 3.1e-16 of their matrix's largest; the
/// largest own-magnitude distance, 0.49, is a bin of order 1e-15 that
/// is zero in exact arithmetic).
type Golden = (usize, usize, u64, (u64, u64), u64, (u64, u64));
const TRANSFORMS: [Golden; 3] = [
    (
        8,
        8,
        0x3bdd_0b88_5abe_a034,
        (0xbfea_debc_19b7_1720, 0x402c_7316_881c_9de8),
        0xf106_ded3_f0e9_e51b,
        (0x3f8a_debc_19b7_1700, 0xbfc4_573f_04e5_bb09),
    ),
    (
        16,
        4,
        0x0c40_c372_7070_b6c0,
        (0xc02d_7295_6340_963c, 0xc00f_3c95_89fc_5510),
        0x8b01_272a_08cc_7f56,
        (0xbfcd_7295_6340_963c, 0x3fc0_9605_6402_1735),
    ),
    (
        6,
        10,
        0x82fb_80eb_e293_a6cc,
        (0xc01e_27e3_2ac6_1b58, 0x400a_bd76_2209_db03),
        0xe4ee_b40b_591d_ec93,
        (0xbfc0_dec8_f501_6701, 0xbfa2_d511_7bce_4fbe),
    ),
];

#[test]
fn fft2d_bits_match_the_transposing_implementation() {
    let got = TRANSFORMS.map(|(rows, cols, ..)| {
        let plan = Fft2d::new(rows, cols);
        let x = input(rows, cols);
        let fwd = plan.forward(&x).unwrap();
        let inv = plan.inverse(&x).unwrap();
        let last = |m: &Matrix<Complex64>| {
            let z = m[(rows - 1, cols - 1)];
            (z.re.to_bits(), z.im.to_bits())
        };
        (rows, cols, fold(&fwd), last(&fwd), fold(&inv), last(&inv))
    });
    assert_eq!(got, TRANSFORMS, "{got:#x?}");
}

/// One served block map: 16×16, grid 4, through one queued flight of
/// score lanes. Block (1, 2) of the input is all zeros (an
/// occluded-looking block the butterflies must carry as exact zeros)
/// and one element is `-0.0`.
///
/// Re-recorded three times, each time for a change of arithmetic the
/// numerics contract (`filter_diff.rs`) holds within
/// `2 · ε · log₂(2mn) · (‖K‖_max ‖x‖_F + ‖y‖_F)` of what recorded the
/// constants before it. PR 19: these sixteen lanes are real and took
/// the real-input transform pair (at most 4 ulp from the complex
/// sequence on the fifteen scores of order 40–55; score 6 — the
/// all-zero block, whose ≈ 1.1e-6 is the model's own fit residue —
/// moved by 1.8e-16, 872 597 ulp of that residue). PR 21: the request
/// has even rows and no non-finite pixel, so each score is taken in the
/// spectrum — one residual spectrum, a block-pruned forward and a
/// Parseval sum per block, no inverse transform. Observed distance from
/// PR 19's constants: at most 3 ulp on those fifteen scores (three did
/// not move); score 6 moved by 4.8e-15, which is 22 488 198 ulp of the
/// residue (the bound here is 4.0e-12).
///
/// The third time, each 4×4 block has an 8×8 box, fewer cells than the
/// 16×16 image, so each score is taken on its own box: the block's
/// transform on that torus against the kernel's box-cut
/// autocorrelation, plus `‖r‖²`, the cross term `2⟨c, x_b⟩` and the
/// kernel mean's share. All sixteen pass the cancellation guard
/// (`M ≤ S · s`, with `M / (S · s)` at most 0.058). Observed distance
/// from the constants before: at most 1 ulp on the fifteen scores of
/// order 40–55 (four did not move); score 6, the all-zero block, did not
/// move — its block terms are exact zeros and `‖r‖²` is summed as the
/// full-size lane sums it.
/// [`COMPLEX_BLOCK_MAP`] pins that the complex sequence itself moved
/// none of these times.
///
/// The fourth time, every transform under the scores moved to the
/// radix-4 kernel. Observed distance from the constants before: at most
/// 3 ulp (5.4e-16 relative) on the fifteen scores of order 40–55 (three
/// did not move); score 6 moved by 5.6e-15 (5.1e-9 of the residue).
///
/// The fifth time, the model under the scores moved: its fit went to
/// the half spectrum ([`FIT_BITS`]), and the scores did not change
/// arithmetic. Observed distance from the constants before: at most
/// 2 ulp (2.9e-16 relative) on the fifteen scores of order 40–55 (seven
/// did not move); score 6 moved by 1.7e-15 (1.5e-9 of the residue).
const BLOCK_MAP: [u64; 16] = [
    0x4044_fe89_1515_c159,
    0x4048_3348_d9d5_808a,
    0x4049_b2a9_9450_7bb9,
    0x4043_95d4_98e0_c3b0,
    0x4045_4a2f_3e47_eef1,
    0x4043_95d4_9706_36b7,
    0x3eb2_9f39_c17b_6bd3,
    0x4048_3348_dd99_5629,
    0x404b_57a4_1ab1_5991,
    0x4043_cb06_a365_1ec5,
    0x4043_cb06_a167_ff5d,
    0x404b_57a4_1b11_7bd3,
    0x4047_d60e_0048_2991,
    0x4049_b2a9_93be_585f,
    0x4043_95d4_9785_e452,
    0x4045_4a2f_3c0d_4217,
];

/// The model and pair behind [`BLOCK_MAP`].
fn block_map_inputs() -> (DistilledModel, Matrix<f64>, Matrix<f64>) {
    let k = Matrix::from_fn(16, 16, |r, c| ((r * 3 + c * 7) % 11) as f64 * 0.125 - 0.5).unwrap();
    let mut x =
        Matrix::from_fn(16, 16, |r, c| ((r * 13 + c * 5) % 17) as f64 * 0.25 - 2.0).unwrap();
    for r in 4..8 {
        for c in 8..12 {
            x[(r, c)] = 0.0;
        }
    }
    x[(13, 2)] = -0.0;
    let y = conv2d_circular(&x, &k).unwrap();
    let model = DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default()).unwrap();
    (model, x, y)
}

#[test]
fn served_block_map_bits_match_the_batched_implementation() {
    let (model, x, y) = block_map_inputs();
    let acc = TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16);
    let map = block_contributions_on(&acc, &model, &x, &y, 4).unwrap();
    let bits: Vec<u64> = map.iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, BLOCK_MAP, "{bits:#x?}");
}

/// The same map through the three unqueued platforms, with the clock
/// bits and kernel counts their *staged* direct paths left, recorded
/// from the commit before those paths ran the fused lane.
#[test]
fn direct_block_map_bits_and_charges_match_the_staged_direct_paths() {
    let (model, x, y) = block_map_inputs();
    let platforms: [(Box<dyn Accelerator>, u64, u64); 3] = [
        (Box::new(CpuModel::i7_3700()), 0x3f0c_2f8b_88df_b80c, 64),
        (Box::new(GpuModel::gtx1080()), 0x3ef0_e0bc_b292_27cf, 4),
        (Box::new(TpuAccel::tpu_v2()), 0x3ed6_3a96_13db_73ce, 4),
    ];
    for (acc, seconds, kernels) in platforms {
        let map = block_contributions_on(acc.as_ref(), &model, &x, &y, 4).unwrap();
        let bits: Vec<u64> = map.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, BLOCK_MAP, "{}: {bits:#x?}", acc.name());
        let got = (acc.elapsed_seconds().to_bits(), acc.stats().kernels);
        assert_eq!(got, (seconds, kernels), "{}: {got:#x?}", acc.name());
    }
}

/// [`BLOCK_MAP`]'s sixteen occluded lanes with a non-zero imaginary
/// part (`im = re / 4`), handed to `filter_diff_batch` directly: lanes
/// the complex sequence runs. Recorded at the commit before real lanes
/// took the real-input transform (PR 19), which must not move them.
/// Re-recorded when the transforms moved to the radix-4 kernel: at most
/// 5 ulp (6.5e-16 relative) on the fifteen scores of order 40–55 (four
/// did not move); score 6 moved by 3.6e-15 (3.3e-9 of its value).
/// Re-recorded when the model's fit moved to the half spectrum (the
/// chain's arithmetic did not change): at most 3 ulp (3.9e-16 relative)
/// on the fifteen scores of order 40–55 (five did not move); score 6
/// moved by 2.6e-15 (2.4e-9 of its value).
const COMPLEX_BLOCK_MAP: [u64; 16] = [
    0x4044_fe89_1515_c157,
    0x4048_3348_d9d5_808b,
    0x4049_b2a9_9450_7bb7,
    0x4043_95d4_98e0_c3ad,
    0x4045_4a2f_3e47_eef0,
    0x4043_95d4_9706_36b6,
    0x3eb2_9f39_c19b_cd4c,
    0x4048_3348_dd99_5625,
    0x404b_57a4_1ab1_5992,
    0x4043_cb06_a365_1ec6,
    0x4043_cb06_a167_ff5c,
    0x404b_57a4_1b11_7bd3,
    0x4047_d60e_0048_2991,
    0x4049_b2a9_93be_5861,
    0x4043_95d4_9785_e451,
    0x4045_4a2f_3c0d_4213,
];

#[test]
fn complex_lane_block_map_bits_did_not_move_with_the_real_transform() {
    let (model, x, y) = block_map_inputs();
    let lanes: Vec<Matrix<Complex64>> = (0..16)
        .map(|b| {
            let block = Region::Block(b / 4 * 4, b % 4 * 4, 4, 4);
            let occluded = occlude(&x, block).unwrap();
            occluded.map(|v| Complex64::new(v, 0.25 * v))
        })
        .collect();
    let platforms: [Box<dyn Accelerator>; 4] = [
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
    ];
    for acc in platforms {
        let diffs = acc
            .filter_diff_batch(&lanes, model.kernel_spectrum(), &y)
            .unwrap();
        let bits: Vec<u64> = diffs.iter().map(|d| d.frobenius_norm().to_bits()).collect();
        assert_eq!(bits, COMPLEX_BLOCK_MAP, "{}: {bits:#x?}", acc.name());
    }
}

/// The charge trail of [`every_kernel_charge_matches_the_parent`], one
/// per placement: CPU, GPU, unqueued TPU, queued TPU, queued pool of two
/// small chips. Recorded from the commit *before* the built-in
/// platforms shared one kernel body, which re-routed every charge.
const CHARGE_TRAIL: [u64; 5] = [
    0xc7bc_2052_436f_3e89,
    0x6fd9_730d_bfbe_a1af,
    0xa848_6c3b_0807_73dd,
    0xb97d_21da_0766_c424,
    0x4066_6163_1854_8fcc,
];

/// The five placements of [`CHARGE_TRAIL`]: CPU, GPU, unqueued TPU,
/// queued TPU, queued pool of two small chips.
fn placements() -> [Box<dyn Accelerator>; 5] {
    [
        Box::new(CpuModel::i7_3700()),
        Box::new(GpuModel::gtx1080()),
        Box::new(TpuAccel::tpu_v2()),
        Box::new(TpuAccel::tpu_v2().with_batching(Duration::ZERO, 16)),
        Box::new(TpuAccel::over_pool(
            DevicePool::new(TpuConfig::small_test(), 2),
            Duration::ZERO,
            16,
        )),
    ]
}

/// The clock's bits and the whole ledger of `acc`.
fn ledger(acc: &dyn Accelerator) -> [u64; 5] {
    let stats = acc.stats();
    [
        acc.elapsed_seconds().to_bits(),
        stats.seconds.to_bits(),
        stats.ops.to_bits(),
        stats.bytes.to_bits(),
        stats.kernels,
    ]
}

/// Every kernel of the trait once on a fixed script — the four singles,
/// the four batches on three lanes, a spectral and an occluded
/// `contribution_scores`, a workload charge — folding the clock's bits
/// and the whole ledger after each call. No other recorded constant
/// pins a single kernel's or a batch's charge on a queued or pooled
/// placement.
#[test]
fn every_kernel_charge_matches_the_parent() {
    let real = |rows, cols, salt: usize| {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 7 + c * 3 + salt) % 13) as f64 * 0.25 - 1.5
        })
        .unwrap()
    };
    let prepared = |rows, cols| {
        let k = real(rows, cols, 5).to_complex();
        PreparedKernel::new(Fft2d::new(rows, cols).forward(&k).unwrap())
    };
    let (a, b) = (real(8, 6, 0), real(6, 4, 1));
    let (x, y) = (input(8, 8), real(8, 8, 2));
    let z = input(8, 8).map(|v| v + Complex64::new(1.0, 0.5));
    let lanes: Vec<_> = (0..3).map(|i| real(8, 8, i).to_complex()).collect();
    let preds: Vec<_> = (0..3).map(|i| real(8, 8, i + 3)).collect();
    let quadrants = [(0..4, 0..4), (0..4, 4..8), (4..8, 0..4), (4..8, 4..8)];
    let (k8, k7) = (prepared(8, 8), prepared(7, 8));
    let (x8, x7, y7) = (real(8, 8, 7), real(7, 8, 4), real(7, 8, 6));
    let got = placements().map(|acc| {
        let acc = acc.as_ref();
        let div = DivPolicy::Clamp { floor: 1e-12 };
        let occluded = [(0..3, 0..4), (3..7, 2..8)];
        let script: [&dyn Fn() -> Result<()>; 13] = [
            &|| acc.matmul(&a, &b).map(drop),
            &|| acc.fft2d(&x).map(drop),
            &|| acc.ifft2d(&x).map(drop),
            &|| acc.hadamard(&x, &z).map(drop),
            &|| acc.pointwise_div(&x, &z, div).map(drop),
            &|| acc.sub(&y, &preds[0]).map(drop),
            &|| acc.fft2d_batch(&lanes).map(drop),
            &|| acc.ifft2d_batch(&lanes).map(drop),
            &|| acc.hadamard_batch(&lanes, &z).map(drop),
            &|| acc.sub_batch(&y, &preds).map(drop),
            &|| acc.contribution_scores(&x8, &y, &quadrants, &k8).map(drop),
            &|| acc.contribution_scores(&x7, &y7, &occluded, &k7).map(drop),
            &|| {
                acc.charge_workload(1e9, 2e8);
                Ok(())
            },
        ];
        let mut trail = Vec::new();
        for call in script {
            call().unwrap();
            trail.extend(ledger(acc));
        }
        fnv(trail)
    });
    assert_eq!(got, CHARGE_TRAIL, "{got:#x?}");
}

/// An FNV fold, over every case of [`fit_cases`], of the fitted
/// kernel's bits and its spectrum's: what `fit`, and `fit_on` on each
/// placement of [`CHARGE_TRAIL`], all gave. Recorded from the commit
/// *before* Eq. 4 became one accelerator kernel; re-recorded when the
/// transforms moved to the radix-4 kernel (the charges did not move):
/// 164 704 of the 166 240 kernel and spectrum values moved, by at most
/// 1.1e-11 of their array's largest magnitude (4.1e-8 of their own, for
/// values above 1e-9 of it; below that are round-off residues of exact
/// zeros). Re-recorded once more when an even-row fit moved to the
/// half spectrum (real-input transforms, the solve on `m × (n/2 + 1)`,
/// the kernel from one real inverse; the odd-row cases did not move):
/// 235 981 of the 249 360 kernel and spectrum values (real and
/// imaginary parts counted apart) moved, by at most 4.0e-12 of their
/// array's largest magnitude (8.6e-9 of their own, for values above
/// 1e-9 of it). The bound those moves answer to is
/// `distill::tests::the_fit_is_within_its_bound_of_the_staged_body`.
const FIT_BITS: u64 = 0x8241_a95f_97cc_f4a3;

/// The clock and the ledger after each `fit_on` of
/// [`fitted_bits_and_charges_match_the_parent`], one fold per
/// placement, recorded with [`FIT_BITS`].
const FIT_CHARGE_TRAIL: [u64; 5] = [
    0x2c09_71a6_d9ff_c872,
    0xc8df_8ede_036d_7ee6,
    0xb096_9467_d99e_0650,
    0x0906_549b_2336_c42c,
    0xcc0a_4c4a_fc2f_86e0,
];

/// `fit_on`'s fold, as in [`FIT_BITS`], over a constant input under
/// every solve that accepts its nulls; recorded with [`FIT_BITS`], on
/// the CPU (every placement gave these bits). Re-recorded with
/// [`FIT_BITS`]: 44 of 512 values moved, by at most 7.8e-16 relative;
/// the NaNs of the null bins stayed where they were. Re-recorded with
/// [`FIT_BITS`] for the half-spectrum fit: 112 of 768 values (real and
/// imaginary parts counted apart) moved, by at most 2.4e-16 of their
/// array's largest magnitude (1.0e-14 of their own); no NaN moved.
const NULL_FIT_BITS: u64 = 0xeea2_7c68_73ed_4c0c;

type Pairs = Vec<(Matrix<f64>, Matrix<f64>)>;

/// Seeded pairs of `rows × cols` on integer steps, so their spectra
/// hold exact zeros and the solves' signed zeros are pinned too; the
/// delta keeps the inputs' spectra free of nulls.
fn fit_pairs(rows: usize, cols: usize, n: usize) -> Pairs {
    let m = |salt: usize, step: f64| {
        Matrix::from_fn(rows, cols, |r, c| {
            ((r * 37 + c * 11 + salt * 5) % 23) as f64 * step - 4.0
        })
        .unwrap()
    };
    (0..n)
        .map(|i| {
            let mut x = m(i, 0.375);
            x[(0, 0)] += 9.0;
            (x, m(i + 7, 0.5))
        })
        .collect()
}

/// The solves that accept a spectral null.
fn lenient_solves() -> [SolveStrategy; 4] {
    let naive = |policy| SolveStrategy::Naive { policy };
    [
        SolveStrategy::default(),
        SolveStrategy::Wiener { lambda: 0.0 },
        naive(DivPolicy::ZeroFill { tol: 1e-9 }),
        naive(DivPolicy::Clamp { floor: 1e-12 }),
    ]
}

/// Every solve on every shape: radix-2, odd rows, Bluestein both axes,
/// and `pipeline-offline`'s 4 pairs at 128².
fn fit_cases() -> Vec<(Pairs, SolveStrategy)> {
    let strict = SolveStrategy::Naive {
        policy: DivPolicy::Strict { tol: 1e-9 },
    };
    let mut cases = Vec::new();
    for (rows, cols, n) in [(8, 8, 3), (7, 8, 3), (12, 10, 2), (128, 128, 4)] {
        for strategy in lenient_solves().into_iter().chain([strict]) {
            cases.push((fit_pairs(rows, cols, n), strategy));
        }
    }
    cases
}

/// An FNV fold of a fitted model's kernel and spectrum bits.
fn fold_model(model: &DistilledModel) -> u64 {
    fnv([
        fold_f64(model.kernel().as_slice()),
        fold(model.kernel_spectrum()),
    ])
}

#[test]
fn fitted_bits_and_charges_match_the_parent() {
    let cases = fit_cases();
    let host = cases
        .iter()
        .map(|(pairs, strategy)| fold_model(&DistilledModel::fit(pairs, *strategy).unwrap()));
    let mut bits = vec![fnv(host)];
    let mut trails = Vec::new();
    for acc in placements() {
        let mut folds = Vec::new();
        let mut trail = Vec::new();
        for (pairs, strategy) in &cases {
            let model = DistilledModel::fit_on(acc.as_ref(), pairs, *strategy).unwrap();
            folds.push(fold_model(&model));
            trail.extend(ledger(acc.as_ref()));
        }
        bits.push(fnv(folds));
        trails.push(fnv(trail));
    }
    assert_eq!(
        (bits.as_slice(), trails.as_slice()),
        ([FIT_BITS; 6].as_slice(), FIT_CHARGE_TRAIL.as_slice()),
        "{bits:#x?} {trails:#x?}"
    );
}

/// A constant input has a null in every bin but DC, where the Wiener
/// solve's sums are exact zeros. `fit_on` seeds them from the first
/// pair and keeps their signs; `fit` gives the same bits, because both
/// run one body (before it, `fit` seeded from `+0` and read `+0` in
/// three bins of the default solve's spectrum where `fit_on` read `−0`).
#[test]
fn fitted_null_bits_match_the_parent_fit_on() {
    let flat = vec![(
        Matrix::filled(8, 8, 1.5).unwrap(),
        fit_pairs(8, 8, 1)[0].1.clone(),
    )];
    let fold_all = |fit: &dyn Fn(SolveStrategy) -> DistilledModel| {
        fnv(lenient_solves().map(|strategy| fold_model(&fit(strategy))))
    };
    let mut got = vec![fold_all(&|s| DistilledModel::fit(&flat, s).unwrap())];
    for acc in placements() {
        got.push(fold_all(&|s| {
            DistilledModel::fit_on(acc.as_ref(), &flat, s).unwrap()
        }));
    }
    assert_eq!(got, [NULL_FIT_BITS; 6], "{got:#x?}");
}

/// A fit that fails charges nothing: a second pair of another shape,
/// and a strict naive solve meeting a null, return the error the staged
/// body returns and leave the clock and the ledger where they were.
#[test]
fn a_failed_fit_charges_nothing() {
    let good = fit_pairs(8, 8, 1).remove(0);
    let wide = (Matrix::zeros(8, 6).unwrap(), good.1.clone());
    let flat = (Matrix::filled(8, 8, 1.5).unwrap(), good.1.clone());
    let strict = SolveStrategy::Naive {
        policy: DivPolicy::Strict { tol: 1e-9 },
    };
    let mismatch = TensorError::ShapeMismatch {
        left: (8, 6),
        right: (8, 8),
        op: "distillation pair shape",
    };
    let null = TensorError::DivisionByZero { index: 1 };
    let wiener = SolveStrategy::default();
    let cases = [
        (vec![good.clone(), wide.clone()], wiener, mismatch.clone()),
        (vec![good.clone(), wide.clone()], strict, mismatch),
        (vec![good.clone(), flat.clone()], strict, null.clone()),
        // The staged body meets the null before the misshapen pair.
        (vec![good, flat, wide], strict, null),
    ];
    for acc in placements() {
        let acc = acc.as_ref();
        for (pairs, strategy, error) in &cases {
            let before = ledger(acc);
            let got = DistilledModel::fit_on(acc, pairs, *strategy);
            assert_eq!(got.unwrap_err(), *error, "{}", acc.name());
            assert_eq!(ledger(acc), before, "{}", acc.name());
        }
    }
}

/// FNV-1a over `f64` bit patterns.
fn fold_f64(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

/// The `pipeline-offline` training set: 64 images 16×16×3, 4 classes.
fn training_set() -> Vec<(Tensor3, usize)> {
    let config = ImageConfig {
        classes: 4,
        size: 16,
        channels: 3,
        grid: 4,
        noise: 0.05,
        seed: 1,
    };
    as_training_pairs(&ImageDataset::new(config).unwrap().generate(64).unwrap())
}

/// `(mean_loss bits, accuracy bits, fold of the trained net's logits
/// on all 64 images)` after one seeded epoch, recorded from the commit
/// *before* `Conv2d` became row kernels. `Network` exposes no weights,
/// so the logits stand in for them: every weight of every layer feeds
/// one.
const VGG_EPOCH: (u64, u64, u64) = (
    0x3ff6_08e2_8b67_3955,
    0x3fe8_0000_0000_0000,
    0x2ba3_33db_3a14_0a7e,
);
const RESNET_EPOCH: (u64, u64, u64) = (
    0x3ff2_ba51_1b2d_0388,
    0x3ff0_0000_0000_0000,
    0x3a57_e1cc_cbcb_114a,
);

#[test]
fn trained_epoch_bits_match_the_seven_loop_convolution() {
    let samples = training_set();
    let nets = [
        models::vgg_small(3, 16, 4, 1).unwrap(),
        models::resnet_small(3, 16, 4, 1).unwrap(),
    ];
    let got = nets.map(|mut net| {
        let trainer = Trainer::new(0.05, 0.9, 8, 1);
        let report = trainer.fit(&mut net, &samples, 1).unwrap().pop().unwrap();
        let mut logits = Vec::new();
        for (x, _) in &samples {
            logits.extend_from_slice(net.forward(x).unwrap().as_slice());
        }
        (
            report.mean_loss.to_bits(),
            report.accuracy.to_bits(),
            fold_f64(&logits),
        )
    });
    assert_eq!(got, [VGG_EPOCH, RESNET_EPOCH], "{got:#x?}");
}

/// `vgg_small`'s first convolution on its own, so its `weights()` can
/// be read: two samples forward and backward, one momentum step.
/// `(fold of both outputs and input gradients, fold of the weights)`.
const FIRST_CONV: (u64, u64) = (0xd26d_2458_4ef3_d950, 0x9bdd_1fd9_c2e0_2ea1);

#[test]
fn first_conv_step_bits_match_the_seven_loop_convolution() {
    let mut conv = Conv2d::new(3, 8, 3, 1, 1, 16, 16, 1).unwrap();
    let grad = Tensor3::from_fn(8, 16, 16, |c, y, x| {
        ((c * 5 + y * 3 + x * 7) % 11) as f64 * 0.125 - 0.5
    })
    .unwrap();
    let mut passes = Vec::new();
    let mut tapes = Vec::new();
    for (x, _) in &training_set()[..2] {
        let mut tape = Tape::default();
        passes.extend_from_slice(conv.forward(x, Some(&mut tape)).unwrap().as_slice());
        let grad_in = conv.backward(&grad, &mut tape, true).unwrap().unwrap();
        passes.extend_from_slice(grad_in.as_slice());
        tapes.push(tape);
    }
    conv.accumulate(&mut tapes).unwrap();
    conv.apply_gradients(0.05, 0.9, 2);
    let got = (fold_f64(&passes), fold_f64(conv.weights()));
    assert_eq!(got, FIRST_CONV, "{got:#x?}");
}

/// `(mean_loss bits, accuracy bits, fold of the logits)`, as
/// [`VGG_EPOCH`].
type EpochBits = (u64, u64, u64);

/// `(batch size, VGG_EPOCH-style bits, RESNET_EPOCH-style bits)` of
/// the same seeded epoch at other batch sizes, recorded from the commit
/// *before* a mini-batch ran its samples on more than one core: one
/// sample per step, a ragged tail batch (64 = 21·3 + 1) and one batch
/// of the whole set (more samples than pool workers).
const EPOCHS_BY_BATCH: [(usize, EpochBits, EpochBits); 3] = [
    (
        1,
        (
            0x3ff8_2d9f_df5c_191b,
            0x3fd0_0000_0000_0000,
            0x685c_a061_c2cf_53f3,
        ),
        (
            0x3ff9_5b12_72c4_a8e7,
            0x3fd0_0000_0000_0000,
            0xa059_9cb4_51d1_e7a5,
        ),
    ),
    (
        3,
        (
            0x3ff1_bdfb_070e_b136,
            0x3ff0_0000_0000_0000,
            0x7bfa_85c2_8c4b_e9fc,
        ),
        (
            0x3fe0_9e89_ee0b_2edb,
            0x3ff0_0000_0000_0000,
            0x308d_f6ef_6337_343e,
        ),
    ),
    (
        64,
        (
            0x3ff6_22b3_34a9_77b7,
            0x3fe0_0000_0000_0000,
            0xb710_4776_df9d_9efb,
        ),
        (
            0x3ff6_e3e2_5e4f_1071,
            0x0000_0000_0000_0000,
            0x5278_4f95_97a8_76f3,
        ),
    ),
];

#[test]
fn trained_epoch_bits_at_other_batch_sizes_match_the_serial_trainer() {
    let samples = training_set();
    let epoch = |mut net: tpu_xai::nn::Network, batch: usize| {
        let trainer = Trainer::new(0.05, 0.9, batch, 1);
        let report = trainer.fit(&mut net, &samples, 1).unwrap().pop().unwrap();
        let logits: Vec<f64> = samples
            .iter()
            .flat_map(|(x, _)| net.forward(x).unwrap().as_slice().to_vec())
            .collect();
        (
            report.mean_loss.to_bits(),
            report.accuracy.to_bits(),
            fold_f64(&logits),
        )
    };
    let got = EPOCHS_BY_BATCH.map(|(batch, _, _)| {
        (
            batch,
            epoch(models::vgg_small(3, 16, 4, 1).unwrap(), batch),
            epoch(models::resnet_small(3, 16, 4, 1).unwrap(), batch),
        )
    });
    assert_eq!(got, EPOCHS_BY_BATCH, "{got:#x?}");
}
