//! `pipeline-offline`: the paper's Fig. 2 flow with no server, no
//! `BatchQueue` and no pool.
//!
//! One slice is: synthesise 64 images 16×16×3 (`xai-data`) → one
//! `Trainer::fit` epoch of `vgg_small` (`xai-nn`; the classification
//! phase of Table I) → `interpret_on` for 4 pairs 128×128 grid 4 on
//! `CpuModel::i7_3700`, `GpuModel::gtx1080` and an unqueued
//! `TpuAccel::tpu_v2` (the interpretation phase of Table II). It takes
//! `TpuAccel`'s *direct* kernel path and the `xai-parallel`-backed host
//! models, so serving, queue and pool work predicts no change here.
//!
//! An operation is one pair-interpretation (12 per slice); the rate is
//! taken over the whole slice, so classification-phase work shows in
//! it too, and the phases are told apart in the traced run.

use super::{as_dyn, pooled};
use crate::compare::SIM_EPSILON;
use crate::layers::{self, Calls, LayerCtx};
use crate::pace::Pace;
use crate::problem::{same_bits, seeded_pairs, Problem};
use crate::trace::Tracer;
use crate::{LoopStats, Workload};
use std::sync::Arc;
use std::time::Instant;
use xai_accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
use xai_core::{interpret_on, SolveStrategy};
use xai_data::cifar::{as_training_pairs, ImageDataset};
use xai_nn::EpochReport;
use xai_tensor::Matrix;
use xai_tpu::TpuConfig;

const SIZE: usize = 128;
const GRID: usize = 4;
const PAIRS: usize = 4;
/// CPU, GPU, TPU.
const PLATFORMS: usize = 3;

/// The paper's headline interpretation speed-ups (Table II), printed
/// beside ours with the relative error.
const PAPER_SPEEDUP_VS_CPU: f64 = 39.0;
const PAPER_SPEEDUP_VS_GPU: f64 = 13.0;

/// What one slice produced: the epoch's report, and per platform the
/// distilled kernel and the simulated seconds charged.
struct SliceOutput {
    epoch: EpochReport,
    kernels: Vec<Matrix<f64>>,
    sim_s: [f64; PLATFORMS],
}

/// The inputs and platforms of the flow, fixed at set-up.
struct Flow {
    seed: u64,
    dataset: ImageDataset,
    pairs: Vec<(Matrix<f64>, Matrix<f64>)>,
    platforms: [Box<dyn Accelerator>; PLATFORMS],
}

impl Flow {
    /// One slice of the Fig. 2 flow, pausing for the host-speed
    /// reference between phases. Returns its output and the host
    /// seconds of the interpretation phase.
    fn slice(
        &self,
        tracer: &mut Tracer,
        request: u64,
        mut pace: Option<&mut Pace>,
    ) -> (SliceOutput, f64) {
        let mut breathe = || {
            if let Some(pace) = pace.as_deref_mut() {
                pace.breathe();
            }
        };
        let images = tracer.span("data.generate", None, request, || {
            self.dataset.generate(layers::IMAGES).expect("generate")
        });
        let samples = as_training_pairs(&images);
        breathe();
        let epoch = tracer.span("nn.train_epoch", None, request, || {
            let mut net = layers::fresh_net(self.seed);
            let mut reports = layers::trainer(self.seed)
                .fit(&mut net, &samples, 1)
                .expect("fit");
            reports.pop().expect("one epoch")
        });
        let mut interpret_s = 0.0;
        let mut kernels = Vec::with_capacity(PLATFORMS);
        let mut sim_s = [0.0; PLATFORMS];
        for (platform, charged) in self.platforms.iter().zip(&mut sim_s) {
            breathe();
            let start = Instant::now();
            let (model, report) = tracer.span("core.interpret", None, request, || {
                interpret_on(&**platform, &self.pairs, GRID, SolveStrategy::default())
                    .expect("interpret_on")
            });
            interpret_s += start.elapsed().as_secs_f64();
            kernels.push(model.kernel().clone());
            *charged = report.total_s();
        }
        let output = SliceOutput {
            epoch,
            kernels,
            sim_s,
        };
        (output, interpret_s)
    }
}

pub(crate) struct PipelineOffline {
    flow: Flow,
    slices: usize,
    reference: SliceOutput,
}

impl PipelineOffline {
    /// Whether a slice reproduced the reference: the epoch's loss and
    /// accuracy and every platform's distilled kernel bit for bit, and
    /// every platform's simulated charge at [`SIM_EPSILON`] (a charge
    /// is a difference of two readings of a growing clock, so its last
    /// bits depend on how much the clock has already accumulated).
    fn matches_reference(&self, out: &SliceOutput) -> bool {
        let r = &self.reference;
        let close = |a: &f64, b: &f64| (a - b).abs() <= SIM_EPSILON * b.abs();
        out.epoch.mean_loss.to_bits() == r.epoch.mean_loss.to_bits()
            && out.epoch.accuracy.to_bits() == r.epoch.accuracy.to_bits()
            && out
                .kernels
                .iter()
                .zip(&r.kernels)
                .all(|(a, b)| same_bits(a, b))
            && out.sim_s.iter().zip(&r.sim_s).all(|(a, b)| close(a, b))
    }
}

impl Workload for PipelineOffline {
    const OPS_PER_SECOND: f64 = 1.4;
    const UNITS_PER_OP: f64 = (PAIRS * PLATFORMS) as f64;

    fn setup(seed: u64, ops: usize) -> Self {
        let flow = Flow {
            seed,
            dataset: ImageDataset::new(layers::image_config(seed)).expect("valid config"),
            pairs: seeded_pairs(seed, SIZE, PAIRS),
            platforms: [
                Box::new(CpuModel::i7_3700()),
                Box::new(GpuModel::gtx1080()),
                Box::new(TpuAccel::tpu_v2()),
            ],
        };
        // The reference slice doubles as the warm-up.
        let reference = flow.slice(&mut Tracer::disabled(), 0, None).0;
        PipelineOffline {
            flow,
            slices: ops,
            reference,
        }
    }

    fn run(&mut self, tracer: &mut Tracer) -> LoopStats {
        let units = (PAIRS * PLATFORMS) as u64;
        let tpu = &self.flow.platforms[2];
        let kernel_before = tpu.stats();
        let mut pace = Pace::start(1);
        let mut outputs = Vec::with_capacity(self.slices);
        for s in 0..self.slices {
            let (output, interpret_s) = self.flow.slice(tracer, s as u64, Some(&mut pace));
            outputs.push(output);
            // Host time of one pair-interpretation, interpretation
            // phase only.
            pace.latency_ms(interpret_s * 1e3 / units as f64);
            pace.op_done();
        }
        let (slices, latencies_ms) = pace.finish();
        let outcomes: Vec<u8> = outputs
            .iter()
            .map(|o| u8::from(self.matches_reference(o)))
            .collect();
        let good = outcomes.iter().map(|&o| u64::from(o)).sum::<u64>();
        let mut counts = vec![("serve.completed", (units * good) as f64)];
        counts.extend(layers::kernel_counts(
            kernel_before,
            tpu.stats(),
            self.slices * PAIRS,
        ));
        LoopStats {
            attempted: units * self.slices as u64,
            completed: units * good,
            failed: units * (self.slices as u64 - good),
            broken: None,
            slices,
            latencies_ms,
            // What the proposed platform charges one pair.
            sim_s_per_req: self.reference.sim_s[2] / PAIRS as f64,
            counts,
            outcomes,
        }
    }

    fn host_model_sim_s(&self) -> (f64, f64) {
        // Per pair-interpretation, like `sim_s_per_req`.
        let [cpu, gpu, _] = self.reference.sim_s;
        (cpu / PAIRS as f64, gpu / PAIRS as f64)
    }

    fn remarks(&self) -> Vec<String> {
        let [cpu, gpu, tpu] = self.reference.sim_s;
        vec![format!(
            "paper Table II: {PAPER_SPEEDUP_VS_CPU}x vs CPU, {PAPER_SPEEDUP_VS_GPU}x vs GPU; \
             here {:.2}x ({:+.1} %) and {:.2}x ({:+.1} %)",
            cpu / tpu,
            (cpu / tpu / PAPER_SPEEDUP_VS_CPU - 1.0) * 100.0,
            gpu / tpu,
            (gpu / tpu / PAPER_SPEEDUP_VS_GPU - 1.0) * 100.0,
        )]
    }

    fn layers(
        &self,
        tracer: &mut Tracer,
        calls: Calls,
        notes: &mut Vec<String>,
    ) -> Vec<(&'static str, f64)> {
        // The request replayed is one pair of this workload on the
        // direct (unqueued) TPU path; there is no pool to probe.
        let tpu = TpuAccel::tpu_v2();
        let problem = Problem::synth(self.flow.seed, SIZE, GRID, PAIRS, &tpu);
        let ctx = LayerCtx {
            problem: &problem,
            acc: Arc::new(TpuAccel::tpu_v2()),
            one_chip: as_dyn(&pooled(TpuConfig::tpu_v2(), 1)),
            pool: None,
        };
        for i in 0..calls.replays {
            layers::replay_request(&ctx, tracer, i, None);
        }
        notes.push(format!(
            "phases from the traced loop: data.generate {:.1} us, nn.train_epoch {:.1} us, core.interpret {:.1} us per call",
            tracer.median_us("data.generate").0,
            tracer.median_us("nn.train_epoch").0,
            tracer.median_us("core.interpret").0,
        ));
        layers::replay_metrics(&ctx, tracer, calls, notes)
    }
}
