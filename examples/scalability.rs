//! The paper's Figure 4 experiment as an example: sweep matrix sizes
//! across the three hardware models and watch the TPU's advantage
//! grow, then charge Algorithm 1 on simulated devices of growing core
//! count, and finally share one device between host worker threads
//! (§III-D).
//!
//! Run: `cargo run --release --example scalability`

use std::sync::Arc;
use tpu_xai::accel::{Accelerator, CpuModel, GpuModel, TpuAccel};
use tpu_xai::core::{
    explain_batch_on, explain_batch_parallel_on, transform_roundtrip_seconds, DistilledModel,
    SolveStrategy,
};
use tpu_xai::tensor::{conv::conv2d_circular, Complex64, Matrix, TensorError};

/// Whether two spectra agree bit for bit (`==` would equate `-0.0`
/// with `0.0`).
fn same_bits(a: &Matrix<Complex64>, b: &Matrix<Complex64>) -> bool {
    let bits = |m: &Matrix<Complex64>| -> Vec<(u64, u64)> {
        m.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    a.shape() == b.shape() && bits(a) == bits(b)
}

fn main() -> Result<(), TensorError> {
    println!("transform-solve-inverse round trip, simulated seconds:\n");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>9}",
        "size", "CPU", "GPU", "TPU", "TPU/CPU"
    );
    for n in [64usize, 128, 256, 512] {
        let cpu = CpuModel::i7_3700();
        let gpu = GpuModel::gtx1080();
        let tpu = TpuAccel::tpu_v2();
        let tc = transform_roundtrip_seconds(&cpu, n)?;
        let tg = transform_roundtrip_seconds(&gpu, n)?;
        let tt = transform_roundtrip_seconds(&tpu, n)?;
        println!(
            "{n:>8}² {:>10.1}µs {:>10.1}µs {:>10.1}µs {:>8.1}x",
            tc * 1e6,
            tg * 1e6,
            tt * 1e6,
            tc / tt
        );
    }

    // Algorithm 1 on the simulated device: each transform stage is
    // sharded over the cores and reassembled by one cross_replica_sum;
    // the numeric result is the host FFT's, the device charges time.
    println!("\nAlgorithm 1 on the simulated TPU device (16x16 input):");
    let x = Matrix::from_fn(16, 16, |r, c| {
        Complex64::new(((r * 3 + c) % 7) as f64, ((r + c) % 5) as f64)
    })?;
    let reference = tpu_xai::fourier::fft2d(&x)?;
    for cores in [1usize, 4, 16] {
        let tpu = TpuAccel::with_cores(cores);
        let spectrum = tpu.fft2d(&x)?;
        let device = tpu.device();
        println!(
            "  {cores:>3} cores: wall {:.3} µs, comm {:.3} µs, {} collectives, bit-equal to host FFT: {}",
            device.wall_seconds() * 1e6,
            device.comm_seconds() * 1e6,
            device.collectives(),
            same_bits(&spectrum, &reference)
        );
    }

    // §III-D on the host: many worker threads, ONE shared accelerator.
    // The kernels take &self, so the device handle crosses thread
    // boundaries as Arc<dyn Accelerator>; results are bit-identical
    // to serial execution.
    let k = Matrix::from_fn(32, 32, |r, c| ((r * 2 + c) % 5) as f64 * 0.2)?;
    let batch: Vec<_> = (0..12)
        .map(|s| {
            let x = Matrix::from_fn(32, 32, |r, c| (((r * 7 + c * 3 + s) % 11) as f64) - 5.0)
                .expect("valid dims");
            let y = conv2d_circular(&x, &k).expect("same shape");
            (x, y)
        })
        .collect();
    let model = DistilledModel::fit(&batch, SolveStrategy::default())?;
    let shared: Arc<dyn Accelerator> = Arc::new(TpuAccel::tpu_v2());
    println!("\nbatch explanation, one shared TPU, host worker threads:");
    for workers in [1usize, 2, 4, 8] {
        shared.reset();
        let maps = explain_batch_parallel_on(&*shared, &model, &batch, 4, workers)?;
        println!(
            "  {workers:>2} workers: {} maps, {} kernels on the shared device, {:.1} µs simulated",
            maps.len(),
            shared.stats().kernels,
            shared.elapsed_seconds() * 1e6
        );
    }
    let serial_acc = TpuAccel::tpu_v2();
    let serial = explain_batch_on(&serial_acc, &model, &batch, 4)?;
    let parallel = explain_batch_parallel_on(&*shared, &model, &batch, 4, 4)?;
    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| a.as_slice() == b.as_slice());
    println!("  parallel == serial, bit for bit: {identical}");
    Ok(())
}
