//! Benchmark model constructors.
//!
//! The paper evaluates a VGG19 classifier (CIFAR-100) and a ResNet50
//! detector (MIRAI traces). Training those full-size networks is a
//! GPU-weeks job; for the end-to-end pipeline we build faithful
//! scaled-down versions (same structural families: VGG = conv/conv/
//! pool stacks + dense head, ResNet = residual blocks) and use
//! [`crate::opcount`] to time the *full-size* architectures on the
//! hardware models: accuracy comes from the scaled networks, time from
//! the published architectures' operation counts.

use crate::layers::{Conv2d, Dense, MaxPool2, Relu, Residual};
use crate::network::Network;
use xai_tensor::Result;

/// A scaled-down VGG-style CNN for `channels × size × size` inputs.
///
/// Architecture: `[conv3-relu ×2, pool] ×2 → dense → relu → dense`,
/// mirroring VGG19's conv/conv/pool blocks at toy scale.
///
/// # Errors
///
/// Returns a shape error if `size` is not divisible by 4.
pub fn vgg_small(channels: usize, size: usize, classes: usize, seed: u64) -> Result<Network> {
    let f1 = 8; // first block filters
    let f2 = 16; // second block filters
    let mut net = Network::new();
    net.push(Box::new(Conv2d::new(
        channels, f1, 3, 1, 1, size, size, seed,
    )?));
    net.push(Box::new(Relu::new(f1, size, size)));
    net.push(Box::new(Conv2d::new(
        f1,
        f1,
        3,
        1,
        1,
        size,
        size,
        seed + 1,
    )?));
    net.push(Box::new(Relu::new(f1, size, size)));
    net.push(Box::new(MaxPool2::new(f1, size, size)?));
    let s2 = size / 2;
    net.push(Box::new(Conv2d::new(f1, f2, 3, 1, 1, s2, s2, seed + 2)?));
    net.push(Box::new(Relu::new(f2, s2, s2)));
    net.push(Box::new(Conv2d::new(f2, f2, 3, 1, 1, s2, s2, seed + 3)?));
    net.push(Box::new(Relu::new(f2, s2, s2)));
    net.push(Box::new(MaxPool2::new(f2, s2, s2)?));
    let s4 = s2 / 2;
    let flat = f2 * s4 * s4;
    let hidden = 32;
    net.push(Box::new(Dense::new(flat, hidden, seed + 4)?));
    net.push(Box::new(Relu::new(hidden, 1, 1)));
    net.push(Box::new(Dense::new(hidden, classes, seed + 5)?));
    Ok(net)
}

/// A scaled-down ResNet-style CNN: a stem conv, two residual blocks
/// with identity skips, pooling, and a dense head.
///
/// # Errors
///
/// Returns a shape error if `size` is not divisible by 2.
pub fn resnet_small(channels: usize, size: usize, classes: usize, seed: u64) -> Result<Network> {
    let f = 8;
    let mut net = Network::new();
    // Stem.
    net.push(Box::new(Conv2d::new(
        channels, f, 3, 1, 1, size, size, seed,
    )?));
    net.push(Box::new(Relu::new(f, size, size)));
    // Two residual blocks.
    for b in 0..2u64 {
        let path: Vec<Box<dyn crate::layer::Layer>> = vec![
            Box::new(Conv2d::new(f, f, 3, 1, 1, size, size, seed + 10 + b * 2)?),
            Box::new(Relu::new(f, size, size)),
            Box::new(Conv2d::new(f, f, 3, 1, 1, size, size, seed + 11 + b * 2)?),
        ];
        net.push(Box::new(Residual::new(path, (f, size, size))?));
        net.push(Box::new(Relu::new(f, size, size)));
    }
    net.push(Box::new(MaxPool2::new(f, size, size)?));
    let s2 = size / 2;
    let flat = f * s2 * s2;
    net.push(Box::new(Dense::new(flat, classes, seed + 99)?));
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor3::Tensor3;

    #[test]
    fn vgg_small_builds_and_runs() {
        let net = vgg_small(3, 8, 10, 0).unwrap();
        let x = Tensor3::zeros(3, 8, 8).unwrap();
        let y = net.forward(&x).unwrap();
        assert_eq!(y.len(), 10);
        assert!(net.parameter_count() > 1000);
        assert!(net.summary().contains("maxpool"));
    }

    #[test]
    fn resnet_small_builds_and_runs() {
        let net = resnet_small(1, 8, 2, 0).unwrap();
        let x = Tensor3::zeros(1, 8, 8).unwrap();
        let y = net.forward(&x).unwrap();
        assert_eq!(y.len(), 2);
        assert!(net.summary().contains("residual"));
    }

    #[test]
    fn models_are_trainable() {
        // A couple of gradient steps must not blow up and must move loss.
        let mut net = resnet_small(1, 4, 2, 1).unwrap();
        let x0 = Tensor3::from_fn(1, 4, 4, |_, y, x| (y + x) as f64 * 0.1).unwrap();
        let x1 = Tensor3::from_fn(1, 4, 4, |_, y, x| 1.0 - (y + x) as f64 * 0.1).unwrap();
        let data = [(x0, 0usize), (x1, 1usize)];
        let mut first = 0.0;
        let mut last = 0.0;
        for e in 0..60 {
            let mut total = 0.0;
            for (x, y) in &data {
                total += net.accumulate_gradients(x, *y).unwrap();
            }
            net.apply_gradients(0.1, 0.9, 2);
            if e == 0 {
                first = total;
            }
            last = total;
        }
        assert!(last < first, "{last} !< {first}");
    }

    #[test]
    fn vgg_rejects_indivisible_size() {
        assert!(vgg_small(3, 6, 10, 0).is_err()); // 6/2=3 odd → second pool fails
    }
}
