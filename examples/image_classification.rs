//! The paper's first case study (Figure 5): train an image
//! classifier, distil it, and explain which image blocks drive each
//! classification — scored against the synthetic dataset's
//! ground-truth salient blocks.
//!
//! Run: `cargo run --release --example image_classification`

use tpu_xai::core::{ImageExplainer, SolveStrategy};
use tpu_xai::data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
use tpu_xai::nn::models::vgg_small;
use tpu_xai::nn::Trainer;
use tpu_xai::tensor::TensorError;

fn main() -> Result<(), TensorError> {
    // Synthetic CIFAR-like data: 4 classes, each defined by a bright
    // pattern in a known 3x3-grid block.
    let dataset = ImageDataset::new(ImageConfig {
        classes: 4,
        size: 12,
        channels: 3,
        grid: 3,
        noise: 0.05,
        seed: 7,
    })?;
    let (train, test) = dataset.generate_split(16, 8)?;

    // Train the VGG-style classifier (paper benchmark 1 at toy scale).
    let mut net = vgg_small(3, 12, 4, 3)?;
    println!("training {} parameters…", net.parameter_count());
    let reports = Trainer::new(0.05, 0.9, 8, 0).fit(&mut net, &as_training_pairs(&train), 16)?;
    println!(
        "train accuracy {:.0}%, test accuracy {:.0}%",
        reports.last().map(|r| r.accuracy).unwrap_or(0.0) * 100.0,
        net.accuracy(&as_training_pairs(&test))? * 100.0
    );

    // Distil and explain.
    let explainer = ImageExplainer::fit(&net, &train, 3, SolveStrategy::default())?;
    for li in test.iter().take(3) {
        let ex = explainer.explain(&net, &li.image)?;
        println!(
            "\nlabel {} → predicted {}; ground-truth block {:?}, explanation's top block {:?}",
            li.label, ex.predicted_class, li.salient_block, ex.top_block
        );
        print!("{}", ex.to_heatmap());
    }

    let acc = explainer.localization_accuracy(&net, &test)?;
    println!(
        "\nexplanation localization accuracy on held-out images: {:.0}%",
        acc * 100.0
    );
    Ok(())
}
