//! Regenerates **Figure 5** of the paper: interpretation of an image
//! classification — which sub-blocks are crucial for the class.
//!
//! The paper shows a CIFAR-100 cat and argues by eye that the face
//! and ear blocks matter. Our synthetic dataset has ground-truth
//! salient blocks, so the same pipeline is *scored*, not just drawn.
//!
//! Run: `cargo run --release -p xai-bench --bin fig5`

use xai_core::{ImageExplainer, SolveStrategy};
use xai_data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
use xai_nn::models::vgg_small;
use xai_nn::Trainer;
use xai_tensor::Result;

fn main() -> Result<()> {
    println!("== Figure 5: Interpretation of image classification ==\n");

    let ds = ImageDataset::new(ImageConfig {
        classes: 4,
        size: 12,
        channels: 3,
        grid: 3,
        noise: 0.05,
        seed: 7,
    })?;
    let images = ds.generate(16)?;
    let mut net = vgg_small(3, 12, 4, 3)?;
    println!("training VGG-style classifier on synthetic CIFAR-like data…");
    let reports = Trainer::new(0.05, 0.9, 8, 1).fit(&mut net, &as_training_pairs(&images), 16)?;
    println!(
        "training accuracy after {} epochs: {:.0}%\n",
        reports.len(),
        reports.last().map(|r| r.accuracy).unwrap_or(0.0) * 100.0
    );

    let explainer = ImageExplainer::fit(&net, &images, 3, SolveStrategy::default())?;

    for li in images.iter().take(4) {
        let ex = explainer.explain(&net, &li.image)?;
        println!(
            "class {} (predicted {}), ground-truth salient block {:?}, top block {:?}{}",
            li.label,
            ex.predicted_class,
            li.salient_block,
            ex.top_block,
            if ex.top_block == li.salient_block {
                "  ✓"
            } else {
                "  ✗"
            }
        );
        print!("{}", ex.to_heatmap());
        println!();
    }

    let acc = explainer.localization_accuracy(&net, &images)?;
    println!(
        "block localization accuracy over {} images: {:.0}%",
        images.len(),
        acc * 100.0
    );

    // Quantitative quality (`xai_core::metrics`): deletion-curve
    // faithfulness and sparseness of the explanations.
    let mut auc_total = 0.0;
    let mut gini_total = 0.0;
    for li in &images {
        let ex = explainer.explain(&net, &li.image)?;
        let scores: Vec<f64> = ex.block_scores.as_slice().to_vec();
        let x = xai_core::volume_to_matrix(&li.image);
        let channels = li.image.channels();
        let predicted = ex.predicted_class;
        let block = x.rows() / 3;
        let regions: Vec<xai_core::Region> = (0..3)
            .flat_map(|by| {
                (0..3).map(move |bx| xai_core::Region::Block(by * block, bx * block, block, block))
            })
            .collect();
        let score = |m: &xai_tensor::Matrix<f64>| {
            let volume = xai_core::adapter::matrix_to_volume(m, channels)?;
            Ok(net.forward(&volume)?.as_slice()[predicted])
        };
        let curve = xai_core::deletion_curve(score, &x, &regions, &scores)?;
        auc_total += xai_core::deletion_auc(&curve);
        gini_total += xai_core::gini_sparseness(&scores);
    }
    let n = images.len() as f64;
    println!(
        "deletion-curve AUC {:.2} (lower = more faithful), Gini sparseness {:.2}",
        auc_total / n,
        gini_total / n
    );
    println!("(the paper's Figure 5 makes this argument qualitatively for one cat image)");
    Ok(())
}
