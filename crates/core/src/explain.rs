//! High-level explainers for the paper's two application domains:
//! image classification (Figure 5) and malware trace analysis
//! (Figure 6).

use crate::adapter::{embed_output, pairs_from_network, volume_to_matrix};
use crate::contribution::{argmax, argmax2, block_contributions, column_contributions};
use crate::distill::{DistilledModel, SolveStrategy};
use xai_data::cifar::LabelledImage;
use xai_data::mirai::RegisterTrace;
use xai_nn::{Network, Tensor3};
use xai_tensor::{Matrix, Result, TensorError};

/// Explanation of one image classification (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ImageExplanation {
    /// The classifier's predicted class.
    pub predicted_class: usize,
    /// `grid × grid` contribution factor of each sub-block.
    pub block_scores: Matrix<f64>,
    /// The block with the highest contribution — "what part is
    /// crucial for the classifier".
    pub top_block: (usize, usize),
}

impl ImageExplanation {
    /// Renders the block scores as an ASCII heat map (darker glyph =
    /// higher contribution), the textual equivalent of Figure 5.
    pub fn to_heatmap(&self) -> String {
        let glyphs = [' ', '.', ':', '+', '*', '#', '@'];
        let max = self.block_scores.max_abs().max(1e-12);
        let mut s = String::new();
        for r in 0..self.block_scores.rows() {
            for c in 0..self.block_scores.cols() {
                let level = (self.block_scores[(r, c)] / max * (glyphs.len() - 1) as f64)
                    .round()
                    .clamp(0.0, (glyphs.len() - 1) as f64) as usize;
                s.push('[');
                s.push(glyphs[level]);
                s.push(']');
            }
            s.push('\n');
        }
        s
    }
}

/// Explains image classifications through a distilled model
/// (the Figure 5 pipeline).
#[derive(Debug, Clone)]
pub struct ImageExplainer {
    model: DistilledModel,
    grid: usize,
    classes: usize,
}

impl ImageExplainer {
    /// Distils `net` over the given images and prepares a
    /// `grid × grid` block explainer.
    ///
    /// # Errors
    ///
    /// Propagates distillation errors; requires a non-empty image set.
    pub fn fit(
        net: &Network,
        images: &[LabelledImage],
        grid: usize,
        strategy: SolveStrategy,
    ) -> Result<Self> {
        let inputs: Vec<Tensor3> = images.iter().map(|li| li.image.clone()).collect();
        let pairs = pairs_from_network(net, &inputs)?;
        let classes = images.iter().map(|li| li.label).max().unwrap_or(0) + 1;
        let model = DistilledModel::fit(&pairs, strategy)?;
        Ok(ImageExplainer {
            model,
            grid,
            classes,
        })
    }

    /// The underlying distilled model.
    pub fn model(&self) -> &DistilledModel {
        &self.model
    }

    /// Explains one image: which blocks drove the classification.
    ///
    /// # Errors
    ///
    /// Propagates network and shape errors.
    pub fn explain(&self, net: &Network, image: &Tensor3) -> Result<ImageExplanation> {
        let logits = net.forward(image)?;
        let x = volume_to_matrix(image);
        let y = embed_output(logits.as_slice(), x.shape())?;
        let block_scores = block_contributions(&self.model, &x, &y, self.grid)?;
        Ok(ImageExplanation {
            predicted_class: logits.argmax(),
            top_block: argmax2(&block_scores),
            block_scores,
        })
    }

    /// Fraction of images whose top contributing block matches the
    /// dataset's ground-truth salient block — the quantitative
    /// version of Figure 5's by-eye check.
    ///
    /// # Errors
    ///
    /// Propagates explanation errors; empty input yields 0.
    pub fn localization_accuracy(&self, net: &Network, images: &[LabelledImage]) -> Result<f64> {
        if images.is_empty() {
            return Ok(0.0);
        }
        let mut hits = 0usize;
        for li in images {
            let ex = self.explain(net, &li.image)?;
            if ex.top_block == li.salient_block {
                hits += 1;
            }
        }
        Ok(hits as f64 / images.len() as f64)
    }

    /// Number of classes seen at fit time.
    pub fn classes(&self) -> usize {
        self.classes
    }
}

/// Explanation of one malware-trace classification (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceExplanation {
    /// The detector's predicted class (0 = benign, 1 = malicious).
    pub predicted_class: usize,
    /// Contribution factor of each clock cycle (column).
    pub cycle_weights: Vec<f64>,
    /// The clock cycle with the highest contribution.
    pub top_cycle: usize,
}

impl TraceExplanation {
    /// Renders the per-cycle weights as the coloured last row of the
    /// paper's Figure 6 trace snapshot (min–max normalised so the
    /// dominant cycle stands out).
    pub fn to_weight_row(&self) -> String {
        let mut s = String::from("  weight:");
        let max: f64 = self.cycle_weights.iter().cloned().fold(f64::MIN, f64::max);
        let min: f64 = self.cycle_weights.iter().cloned().fold(f64::MAX, f64::min);
        let span = (max - min).max(1e-12);
        for (c, w) in self.cycle_weights.iter().enumerate() {
            let mark = if c == self.top_cycle { '*' } else { ' ' };
            s.push_str(&format!("  {:.2}{mark}", (w - min) / span));
        }
        s
    }
}

/// Explains malware-trace classifications through a distilled model
/// (the Figure 6 pipeline).
#[derive(Debug, Clone)]
pub struct TraceExplainer {
    model: DistilledModel,
}

impl TraceExplainer {
    /// Distils `net` over the given traces.
    ///
    /// # Errors
    ///
    /// Propagates distillation errors; requires a non-empty trace set.
    pub fn fit(net: &Network, traces: &[RegisterTrace], strategy: SolveStrategy) -> Result<Self> {
        if traces.is_empty() {
            return Err(TensorError::EmptyDimension);
        }
        let mut pairs = Vec::with_capacity(traces.len());
        for t in traces {
            let input = trace_input(t);
            let logits = net.forward(&input)?;
            let y = embed_output(logits.as_slice(), t.table.shape())?;
            pairs.push((t.table.clone(), y));
        }
        let model = DistilledModel::fit(&pairs, strategy)?;
        Ok(TraceExplainer { model })
    }

    /// The underlying distilled model.
    pub fn model(&self) -> &DistilledModel {
        &self.model
    }

    /// Explains one trace: which clock cycles drove the detection.
    ///
    /// # Errors
    ///
    /// Propagates network and shape errors.
    pub fn explain(&self, net: &Network, trace: &RegisterTrace) -> Result<TraceExplanation> {
        let input = trace_input(trace);
        let logits = net.forward(&input)?;
        let y = embed_output(logits.as_slice(), trace.table.shape())?;
        let cycle_weights = column_contributions(&self.model, &trace.table, &y)?;
        Ok(TraceExplanation {
            predicted_class: logits.argmax(),
            top_cycle: argmax(&cycle_weights),
            cycle_weights,
        })
    }

    /// Fraction of malicious traces whose top-weighted cycle is the
    /// ground-truth attack cycle (or the dispatch cycle right after
    /// it) — quantifying Figure 6's claim.
    ///
    /// # Errors
    ///
    /// Propagates explanation errors.
    pub fn attack_localization_accuracy(
        &self,
        net: &Network,
        traces: &[RegisterTrace],
    ) -> Result<f64> {
        let malicious: Vec<_> = traces.iter().filter(|t| t.attack_cycle.is_some()).collect();
        if malicious.is_empty() {
            return Ok(0.0);
        }
        let mut hits = 0usize;
        for t in &malicious {
            let ex = self.explain(net, t)?;
            let target = t.attack_cycle.expect("filtered to malicious");
            if ex.top_cycle == target || ex.top_cycle == target + 1 {
                hits += 1;
            }
        }
        Ok(hits as f64 / malicious.len() as f64)
    }
}

/// A trace table as a single-channel network input.
fn trace_input(t: &RegisterTrace) -> Tensor3 {
    Tensor3::from_matrix(&t.table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_data::cifar::{as_training_pairs, ImageConfig, ImageDataset};
    use xai_data::mirai::{TraceConfig, TraceDataset};
    use xai_nn::models::{resnet_small, vgg_small};
    use xai_nn::Trainer;

    fn trained_image_setup() -> (Network, ImageDataset, Vec<LabelledImage>) {
        let ds = ImageDataset::new(ImageConfig {
            classes: 4,
            size: 12,
            channels: 3,
            grid: 3,
            noise: 0.05,
            seed: 7,
        })
        .unwrap();
        let images = ds.generate(16).unwrap();
        let mut net = vgg_small(3, 12, 4, 3).unwrap();
        let pairs = as_training_pairs(&images);
        Trainer::new(0.05, 0.9, 8, 0)
            .fit(&mut net, &pairs, 16)
            .unwrap();
        (net, ds, images)
    }

    #[test]
    fn image_explainer_finds_ground_truth_blocks() {
        let (net, _ds, images) = trained_image_setup();
        let explainer = ImageExplainer::fit(&net, &images, 3, SolveStrategy::default()).unwrap();
        let acc = explainer.localization_accuracy(&net, &images).unwrap();
        assert!(
            acc >= 0.75,
            "block localization accuracy {acc} below threshold"
        );
        assert_eq!(explainer.classes(), 4);
    }

    #[test]
    fn image_explanation_structure() {
        let (net, _ds, images) = trained_image_setup();
        let explainer = ImageExplainer::fit(&net, &images, 3, SolveStrategy::default()).unwrap();
        let ex = explainer.explain(&net, &images[0].image).unwrap();
        assert_eq!(ex.block_scores.shape(), (3, 3));
        assert!(ex.predicted_class < 4);
        let heat = ex.to_heatmap();
        assert_eq!(heat.lines().count(), 3);
        assert!(heat.contains('['));

        // One NaN pixel poisons every occlusion that keeps it: the
        // explanation carries the NaN scores and points at one of them
        // (this panicked in `argmax2`).
        let mut poisoned = images[0].image.clone();
        poisoned.set(0, 5, 5, f64::NAN);
        let ex = explainer.explain(&net, &poisoned).unwrap();
        assert!(ex.block_scores.iter().filter(|v| v.is_nan()).count() >= 8);
        assert!(ex.block_scores[ex.top_block].is_nan());
        assert!(ex.predicted_class < 4);
    }

    #[test]
    fn trace_explainer_finds_attack_cycle() {
        let ds = TraceDataset::new(TraceConfig {
            registers: 8,
            cycles: 8,
            seed: 3,
        })
        .unwrap();
        let traces = ds.generate(24).unwrap();
        let mut net = resnet_small(1, 8, 2, 5).unwrap();
        let pairs: Vec<_> = traces
            .iter()
            .map(|t| (trace_input(t), t.label.class_index()))
            .collect();
        Trainer::new(0.05, 0.9, 8, 0)
            .fit(&mut net, &pairs, 6)
            .unwrap();
        let explainer = TraceExplainer::fit(&net, &traces, SolveStrategy::default()).unwrap();
        let acc = explainer
            .attack_localization_accuracy(&net, &traces)
            .unwrap();
        assert!(acc >= 0.7, "cycle localization accuracy {acc}");
    }

    #[test]
    fn trace_explanation_renders_weight_row() {
        let ds = TraceDataset::new(TraceConfig::default()).unwrap();
        let traces = ds.generate(8).unwrap();
        let net = resnet_small(1, 8, 2, 1).unwrap();
        let explainer = TraceExplainer::fit(&net, &traces, SolveStrategy::default()).unwrap();
        let ex = explainer.explain(&net, &traces[1]).unwrap();
        assert_eq!(ex.cycle_weights.len(), 8);
        let row = ex.to_weight_row();
        assert!(row.contains("weight:"));
        assert!(row.contains('*'));
    }

    #[test]
    fn empty_trace_set_rejected() {
        let net = resnet_small(1, 8, 2, 0).unwrap();
        assert!(TraceExplainer::fit(&net, &[], SolveStrategy::default()).is_err());
    }
}
