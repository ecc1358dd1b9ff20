//! End-to-end integration tests of the full pipeline:
//! dataset → training → distillation → explanation → scoring.

use tpu_xai::core::{ImageExplainer, SolveStrategy, TraceExplainer};
use tpu_xai::data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
use tpu_xai::data::mirai::{TraceConfig, TraceDataset};
use tpu_xai::nn::models::{resnet_small, vgg_small};
use tpu_xai::nn::{Tensor3, Trainer};

#[test]
fn image_pipeline_localizes_salient_blocks() {
    let dataset = ImageDataset::new(ImageConfig {
        classes: 4,
        size: 12,
        channels: 3,
        grid: 3,
        noise: 0.05,
        seed: 21,
    })
    .unwrap();
    let (train, test) = dataset.generate_split(16, 8).unwrap();

    let mut net = vgg_small(3, 12, 4, 3).unwrap();
    let reports = Trainer::new(0.05, 0.9, 8, 1)
        .fit(&mut net, &as_training_pairs(&train), 16)
        .unwrap();
    assert!(
        reports.last().unwrap().accuracy >= 0.9,
        "classifier must learn the synthetic task"
    );

    let explainer = ImageExplainer::fit(&net, &train, 3, SolveStrategy::default()).unwrap();
    // Held-out generalization of the explanation, not just train fit.
    let acc = explainer.localization_accuracy(&net, &test).unwrap();
    assert!(acc >= 0.75, "held-out localization accuracy {acc}");
}

#[test]
fn malware_pipeline_localizes_attack_cycles() {
    let dataset = TraceDataset::new(TraceConfig {
        registers: 8,
        cycles: 8,
        seed: 1,
    })
    .unwrap();
    let (train, test) = dataset.generate_split(24, 12).unwrap();
    let to_pairs = |ts: &[tpu_xai::data::mirai::RegisterTrace]| {
        ts.iter()
            .map(|t| (Tensor3::from_matrix(&t.table), t.label.class_index()))
            .collect::<Vec<_>>()
    };

    let mut net = resnet_small(1, 8, 2, 2).unwrap();
    Trainer::new(0.05, 0.9, 8, 0)
        .fit(&mut net, &to_pairs(&train), 6)
        .unwrap();

    let explainer = TraceExplainer::fit(&net, &train, SolveStrategy::default()).unwrap();
    let acc = explainer.attack_localization_accuracy(&net, &test).unwrap();
    assert!(acc >= 0.6, "held-out attack localization accuracy {acc}");
}

#[test]
fn explanations_are_deterministic() {
    let dataset = ImageDataset::new(ImageConfig::default()).unwrap();
    let images = dataset.generate(8).unwrap();
    let net = vgg_small(3, 12, 4, 5).unwrap();
    let explainer1 = ImageExplainer::fit(&net, &images, 3, SolveStrategy::default()).unwrap();
    let ex1 = explainer1.explain(&net, &images[0].image).unwrap();
    let explainer2 = ImageExplainer::fit(&net, &images, 3, SolveStrategy::default()).unwrap();
    let ex2 = explainer2.explain(&net, &images[0].image).unwrap();
    assert_eq!(ex1, ex2);
}
