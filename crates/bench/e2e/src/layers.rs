//! Per-layer timings taken from outside (layer = crate).
//!
//! Each layer's public entry point is timed on the workload's own
//! inputs, one request at a time; a layer's *self* time is its
//! inclusive time minus the next layer down. The spans are replays,
//! recorded one after another rather than nested in time, and linked
//! by `parent`; spans inside the crates are ROADMAP item 2.

use crate::problem::{block_regions, seeded_pairs, Problem};
use crate::stats::{median, micros};
use crate::trace::{SpanId, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xai_accel::{Accelerator, CpuModel, KernelStats, TpuAccel};
use xai_core::{contributions_batch_on, interpret_on, occlude, DistilledModel, SolveStrategy};
use xai_data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
use xai_fourier::global_plan_cache;
use xai_nn::models::vgg_small;
use xai_nn::Trainer;
use xai_tensor::{ops, Complex64, Matrix};
use xai_tpu::{
    BatchQueue, DevicePool, LaneCost, ShardPlan, ShardStrategy, SharedDevice, Topology, TpuConfig,
};

/// How many samples each per-layer median is over.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Calls {
    /// Requests replayed layer by layer, and calls per cheap probe.
    pub replays: usize,
    /// Calls per expensive probe (tens of milliseconds each).
    pub slow: usize,
}

impl Calls {
    /// 200 and 20 from `--seconds 10` up, so every median of a
    /// benchmark run is over at least 200 calls (20 for the slow
    /// probes); fewer, in proportion, for the short runs of the tests.
    pub fn for_seconds(seconds: f64) -> Self {
        let share = (seconds / 10.0).min(1.0);
        Calls {
            replays: ((200.0 * share).ceil() as usize).max(3),
            slow: ((20.0 * share).ceil() as usize).max(2),
        }
    }
}

/// What a workload lends the replay: its inputs and fresh accelerators
/// from its own constructor.
pub(crate) struct LayerCtx<'a> {
    pub problem: &'a Problem,
    /// The workload's accelerator (a fresh instance).
    pub acc: Arc<dyn Accelerator>,
    /// The same chip as a 1-chip pool: no fan-out oracle, no shard
    /// threads.
    pub one_chip: Arc<dyn Accelerator>,
    /// The workload's pool (a fresh instance), if it has one.
    pub pool: Option<DevicePool>,
}

/// Replays request `i` through the layers under the server, top down.
pub(crate) fn replay_request(
    ctx: &LayerCtx<'_>,
    tracer: &mut Tracer,
    i: usize,
    root: Option<SpanId>,
) {
    let p = ctx.problem;
    let (x, y) = &p.pairs[i % p.pairs.len()];
    let regions = block_regions(x.rows(), p.grid);
    let filter = p.model.kernel_spectrum();
    let request = i as u64;

    // A transiently faulted replay (sim-chaos) is simply not a sample.
    let (scores, core) = tracer.span_id("core.contributions", root, request, || {
        contributions_batch_on(&*ctx.acc, &p.model, x, y, &regions)
    });
    drop(scores);
    let occluded: Vec<Matrix<Complex64>> = tracer.span("core.occlude", core, request, || {
        regions
            .iter()
            .map(|&r| occlude(x, r).expect("region inside x").to_complex())
            .collect()
    });
    let (diffs, accel) = tracer.span_id("accel.filter_diff", core, request, || {
        ctx.acc.filter_diff_batch(&occluded, filter, y)
    });
    drop(diffs);
    let one = tracer.span("accel.filter_diff_1chip", core, request, || {
        ctx.one_chip.filter_diff_batch(&occluded, filter, y)
    });
    drop(one);
    let plan = global_plan_cache().plan_2d(x.rows(), x.cols());
    let (spectra, preds) = tracer.span("fourier.fft_batch", accel, request, || {
        let spectra = plan.forward_batch(&occluded).expect("planned shape");
        let preds = plan.inverse_batch(&spectra).expect("planned shape");
        (spectra, preds)
    });
    let preds: Vec<Matrix<f64>> = preds.iter().map(Matrix::to_real).collect();
    tracer.span("tensor.elementwise", accel, request, || {
        for (s, pred) in spectra.iter().zip(&preds) {
            std::hint::black_box(ops::hadamard(s, filter).expect("equal shapes"));
            std::hint::black_box(ops::sub(y, pred).expect("equal shapes"));
        }
    });
}

/// The per-layer metrics the replay spans support, plus the probes
/// that need the workload's accelerator or pool.
pub(crate) fn replay_metrics(
    ctx: &LayerCtx<'_>,
    tracer: &mut Tracer,
    calls: Calls,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let p = ctx.problem;
    let us = |name| tracer.median_us(name).0;
    let contributions = us("core.contributions");
    let occlude_us = us("core.occlude");
    let filter_diff = us("accel.filter_diff");
    let one_chip = us("accel.filter_diff_1chip");
    let fft = us("fourier.fft_batch");
    let elementwise = us("tensor.elementwise");
    notes.push(format!(
        "core.*/accel.filter_diff*/fourier.fft_batch/tensor.elementwise: medians of {} replayed requests",
        tracer.median_us("core.contributions").1
    ));
    let mut out = vec![
        ("core.contributions_us", contributions),
        ("core.occlude_us", occlude_us),
        ("core.self_us", contributions - filter_diff),
        ("accel.filter_diff_us", filter_diff),
        ("accel.filter_diff_1chip_us", one_chip),
        ("accel.fanout_overhead_us", filter_diff - one_chip),
        // Negative when shards overlap on host threads: reported as is.
        ("accel.dispatch_self_us", filter_diff - fft - elementwise),
        (
            "accel.numerics_overlap_x",
            (fft + elementwise) / filter_diff,
        ),
        ("fourier.fft_batch_us", fft),
        ("tensor.elementwise_us", elementwise),
        ("tensor.alloc_bytes_per_req", p.alloc_bytes_per_req()),
    ];

    // fourier.flops_per_req, computed: each lane runs a forward and an
    // inverse transform of `rows` row FFTs and `cols` column FFTs, at
    // 8 real flops per complex multiply-add.
    let (rows, cols) = p.pairs[0].0.shape();
    let plan = global_plan_cache().plan_2d(rows, cols);
    let (row_macs, col_macs) = plan.op_counts();
    let per_transform = rows as u64 * row_macs + cols as u64 * col_macs;
    let lanes = (p.grid * p.grid) as u64;
    out.push((
        "fourier.flops_per_req",
        (8 * 2 * lanes * per_transform) as f64,
    ));
    let lookups = timed_calls(calls.replays, || {
        for _ in 0..100 {
            std::hint::black_box(global_plan_cache().plan_2d(rows, cols));
        }
    });
    out.push(("fourier.plan_lookup_ns", median(&lookups) * 10.0)); // us/100 calls → ns/call

    let few = &p.pairs[..p.pairs.len().min(4)];
    let fit = timed_calls(calls.slow, || {
        DistilledModel::fit_on(&*ctx.acc, few, SolveStrategy::default()).expect("fit_on")
    });
    let interpret = timed_calls(calls.slow, || {
        interpret_on(&*ctx.acc, few, p.grid, SolveStrategy::default()).map(|_| ())
    });
    out.push(("core.distill_fit_ms", median(&fit) / 1e3));
    out.push(("core.interpret_ms", median(&interpret) / 1e3));
    notes.push(format!(
        "core.distill_fit_ms, core.interpret_ms: medians of {} calls on {} pairs",
        calls.slow,
        few.len()
    ));

    if let Some(pool) = &ctx.pool {
        let sharded = timed_calls(calls.replays, || {
            pool.run_sharded(
                vec![0u8; 4],
                |_| LaneCost {
                    compute: 1.0,
                    gather_bytes: 8,
                },
                |_, lanes| Ok((lanes, 0.0)),
            )
            .expect("no-op shards")
        });
        let clone = timed_calls(calls.replays, || pool.deep_clone());
        out.push(("tpu.run_sharded_us", median(&sharded)));
        out.push(("tpu.deep_clone_us", median(&clone)));
    }
    out
}

/// What an accelerator's kernel ledger gained between two readings,
/// per request (exact) and per flight (simulated).
pub(crate) fn kernel_counts(
    before: KernelStats,
    after: KernelStats,
    requests: usize,
) -> [(&'static str, f64); 3] {
    let flights = (after.kernels - before.kernels).max(1) as f64;
    [
        (
            "accel.flops_per_req",
            (after.ops - before.ops) / requests as f64,
        ),
        (
            "accel.bytes_per_req",
            (after.bytes - before.bytes) / requests as f64,
        ),
        (
            "accel.sim_s_per_flight",
            (after.seconds - before.seconds) / flights,
        ),
    ]
}

/// Exact counts and simulated ratios of a pool after a loop.
pub(crate) fn pool_counts(pool: &DevicePool) -> Vec<(&'static str, f64)> {
    let f = pool.fault_stats();
    let flights = pool.sharded_flights() as f64;
    let (serial, overlap) = pool.devices().iter().fold((0.0, 0.0), |(s, o), d| {
        (s + d.lane_serial_seconds(), o + d.lane_overlap_seconds())
    });
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    vec![
        ("tpu.transient_faults", f.transient_faults as f64),
        ("tpu.fail_stops", f.fail_stops as f64),
        ("tpu.retries", f.retries as f64),
        ("tpu.replans", f.replans as f64),
        ("tpu.quarantines", f.quarantines as f64),
        ("tpu.probes", f.probes as f64),
        ("tpu.readmissions", f.readmissions as f64),
        ("tpu.budget_exhausted", f.budget_exhausted as f64),
        ("tpu.retry_ratio", share(f.retries as f64, flights)),
        (
            "tpu.gather_s_frac",
            share(pool.gather_seconds(), pool.wall_seconds()),
        ),
        ("tpu.lane_overlap_frac", share(overlap, serial)),
    ]
}

/// Microseconds of each of `calls` calls of `f`.
fn timed_calls<R>(calls: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            micros(start.elapsed())
        })
        .collect()
}

/// Probes that do not depend on the workload: fixed-size calls into
/// each crate, the same on every traced run.
pub(crate) fn fixed_probes(
    tracer: &mut Tracer,
    calls: Calls,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let mut probe = |name: &'static str, calls: usize, f: &mut dyn FnMut()| {
        for call in 0..calls {
            tracer.span(name, None, call as u64, &mut *f);
        }
        tracer.median_us(name).0
    };
    let x128 = seeded_pairs(1, 128, 1).remove(0).0.to_complex();

    let tpu = TpuAccel::tpu_v2();
    let direct_fft2d = probe("accel.direct_fft2d", calls.replays, &mut || {
        std::hint::black_box(tpu.fft2d(&x128).expect("fft2d"));
    });
    let plan = global_plan_cache().plan_2d(128, 128);
    let fft2d = probe("fourier.fft2d", calls.replays, &mut || {
        std::hint::black_box(plan.forward(&x128).expect("planned shape"));
    });
    let cpu = CpuModel::i7_3700();
    let host_model_fft2d = probe("accel.host_model_fft2d", calls.replays, &mut || {
        std::hint::black_box(cpu.fft2d(&x128).expect("fft2d"));
    });

    let device = SharedDevice::new(TpuConfig::small_test());
    let queue: BatchQueue<u64, u64> = BatchQueue::new(device.clone(), Duration::ZERO, 256);
    let batch_submit = probe("tpu.batch_submit", calls.replays, &mut || {
        std::hint::black_box(
            queue
                .submit(vec![1, 2, 3, 4], |_, items| Ok(items))
                .expect("identity"),
        );
    });
    let lanes = [LaneCost {
        compute: 1.0,
        gather_bytes: 512,
    }; 16];
    let torus = Topology::torus(4);
    let shard_plan = probe("tpu.shard_plan", calls.replays, &mut || {
        std::hint::black_box(ShardPlan::plan_on(
            &lanes,
            16,
            ShardStrategy::TopologyAware,
            &torus,
        ));
    });
    let lease_timed = probe("tpu.lease_timed", calls.replays, &mut || {
        std::hint::black_box(device.lease(4).timed(|_| Ok(())).expect("no-op charge"));
    });

    let pool = xai_parallel::global();
    let scope_blocking = probe("parallel.scope_blocking", calls.replays, &mut || {
        pool.scope_blocking(|s| (0..4).for_each(|_| s.spawn(|| ())));
    });
    let scope = probe("parallel.scope", calls.replays, &mut || {
        pool.scope(|s| (0..2).for_each(|_| s.spawn(|| ())));
    });

    let a = Matrix::from_fn(256, 256, |r, c| ((r * 7 + c * 3) % 11) as f64 - 5.0).expect("256 > 0");
    let matmul = probe("tensor.matmul_256", calls.slow, &mut || {
        std::hint::black_box(ops::matmul_blocked_parallel(&a, &a, 64).expect("square"));
    });

    let dataset = ImageDataset::new(image_config(1)).expect("valid config");
    let generate = probe("data.generate", calls.slow, &mut || {
        std::hint::black_box(dataset.generate(IMAGES).expect("generate"));
    });
    let images = as_training_pairs(&dataset.generate(IMAGES).expect("generate"));
    let mut net = fresh_net(1);
    let forward = probe("nn.forward", calls.replays, &mut || {
        std::hint::black_box(net.forward(&images[0].0).expect("forward"));
    });
    let train_epoch = probe("nn.train_epoch", calls.slow, &mut || {
        let mut net = fresh_net(1);
        std::hint::black_box(trainer(1).fit(&mut net, &images, 1).expect("fit"));
    });

    notes.push(format!(
        "fixed probes: medians of {} calls (tensor.matmul_256_ms, data.generate_img_us, \
         nn.train_epoch_ms: {} calls); parallel.threads {}",
        calls.replays,
        calls.slow,
        pool.num_threads()
    ));
    vec![
        ("accel.direct_fft2d_us", direct_fft2d),
        ("accel.direct_self_us", direct_fft2d - fft2d),
        ("accel.host_model_fft2d_us", host_model_fft2d),
        ("fourier.fft2d_us", fft2d),
        ("tpu.batch_submit_us", batch_submit),
        ("tpu.shard_plan_us", shard_plan),
        ("tpu.lease_timed_us", lease_timed),
        ("parallel.scope_blocking_us", scope_blocking),
        ("parallel.scope_us", scope),
        ("parallel.threads", pool.num_threads() as f64),
        ("tensor.matmul_256_ms", matmul / 1e3),
        ("data.generate_img_us", generate / IMAGES as f64),
        ("nn.forward_us", forward),
        ("nn.train_epoch_ms", train_epoch / 1e3),
    ]
}

/// Images per classification epoch (Table I phase) of
/// `pipeline-offline`, shared with the `nn`/`data` probes.
pub(crate) const IMAGES: usize = 64;

/// The 16×16×3, 4-class synthetic image set of `pipeline-offline`.
pub(crate) fn image_config(seed: u64) -> ImageConfig {
    ImageConfig {
        classes: 4,
        size: 16,
        channels: 3,
        grid: 4,
        noise: 0.05,
        seed,
    }
}

/// An untrained `vgg_small` for [`image_config`] images.
pub(crate) fn fresh_net(seed: u64) -> xai_nn::Network {
    vgg_small(3, 16, 4, seed).expect("16 is divisible by 4")
}

/// The one-epoch trainer of `pipeline-offline`.
pub(crate) fn trainer(seed: u64) -> Trainer {
    Trainer::new(0.05, 0.9, 8, seed)
}
