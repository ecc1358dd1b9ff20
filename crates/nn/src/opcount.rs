//! Operation counts of the paper's full-size benchmark networks.
//!
//! Table I times VGG19 on CIFAR-100 and ResNet50 on MIRAI traces.
//! We do not train those networks (a GPU-weeks job; [`crate::models`]
//! trains scaled-down versions of the same families), but their
//! *workload sizes* — FLOPs and parameter/activation bytes per sample
//! — are fixed by the published architectures, so the hardware models
//! can time the paper's exact workloads. Counts below are derived
//! layer-by-layer from the original architecture definitions
//! (Simonyan & Zisserman 2015; He et al. 2016) at the paper's input
//! shapes.

/// Workload description of one full-size network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkWorkload {
    /// Network name as the paper's tables write it.
    pub name: &'static str,
    /// FLOPs of one forward pass of one sample.
    pub forward_flops: f64,
    /// Trainable parameter count.
    pub parameters: f64,
    /// Activation + weight bytes touched per forward pass (f32).
    pub bytes_per_sample: f64,
    /// Samples in one training epoch (the paper's datasets).
    pub epoch_samples: u64,
    /// Samples in the test split.
    pub test_samples: u64,
}

impl NetworkWorkload {
    /// VGG19 at CIFAR-100's 32×32×3 input, 100 classes.
    ///
    /// Conv FLOPs scale with spatial size: at 32×32 the 16 conv layers
    /// cost ≈ 0.8 GFLOP/sample (the ImageNet-sized 19.6 GFLOP shrinks
    /// by (32/224)²); the dense head (512·4096 + 4096·4096 + 4096·100
    /// at CIFAR variants) adds ≈ 0.04 GFLOP.
    pub fn vgg19_cifar100() -> Self {
        NetworkWorkload {
            name: "VGG19",
            forward_flops: 0.84e9,
            parameters: 39.0e6,
            bytes_per_sample: 175.0e6,
            epoch_samples: 50_000,
            test_samples: 10_000,
        }
    }

    /// ResNet50 at the paper's MIRAI trace-table input (treated as a
    /// 224×224-equivalent single-channel "image" per the paper's
    /// Figure 6 trace-table formulation).
    pub fn resnet50_mirai() -> Self {
        NetworkWorkload {
            name: "ResNet50",
            forward_flops: 7.6e9,
            parameters: 25.6e6,
            bytes_per_sample: 320.0e6,
            epoch_samples: 60_000,
            test_samples: 12_000,
        }
    }

    /// FLOPs for one training step of one sample
    /// (forward + backward ≈ 3× forward).
    fn training_flops_per_sample(&self) -> f64 {
        3.0 * self.forward_flops
    }

    /// Total FLOPs for `epochs` training epochs.
    pub fn training_flops(&self, epochs: u64) -> f64 {
        self.training_flops_per_sample() * self.epoch_samples as f64 * epochs as f64
    }

    /// Total FLOPs for one pass over the test set.
    pub fn testing_flops(&self) -> f64 {
        self.forward_flops * self.test_samples as f64
    }

    /// Total bytes for `epochs` training epochs (activations touched
    /// in forward and backward).
    pub fn training_bytes(&self, epochs: u64) -> f64 {
        3.0 * self.bytes_per_sample * self.epoch_samples as f64 * epochs as f64
    }

    /// Total bytes for one pass over the test set.
    pub fn testing_bytes(&self) -> f64 {
        self.bytes_per_sample * self.test_samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_is_heavier_than_cifar_vgg19() {
        // At the paper's input sizes ResNet50 (224²) far outweighs
        // VGG19 at 32² — consistent with Table I's time ordering
        // (ResNet50 rows are ~7-10× slower per epoch).
        let vgg = NetworkWorkload::vgg19_cifar100();
        let res = NetworkWorkload::resnet50_mirai();
        assert!(res.forward_flops > 5.0 * vgg.forward_flops);
    }

    #[test]
    fn training_flops_scale_linearly_with_epochs() {
        let vgg = NetworkWorkload::vgg19_cifar100();
        assert!((vgg.training_flops(20) - 2.0 * vgg.training_flops(10)).abs() < 1.0);
    }

    #[test]
    fn training_heavier_than_testing() {
        let res = NetworkWorkload::resnet50_mirai();
        assert!(res.training_flops(10) > res.testing_flops());
        assert!(res.training_bytes(10) > res.testing_bytes());
    }

    #[test]
    fn parameter_counts_match_published_architectures() {
        // VGG19 ≈ 39M at CIFAR head; ResNet50 ≈ 25.6M.
        assert!((NetworkWorkload::vgg19_cifar100().parameters - 39.0e6).abs() < 1e6);
        assert!((NetworkWorkload::resnet50_mirai().parameters - 25.6e6).abs() < 1e5);
    }
}
