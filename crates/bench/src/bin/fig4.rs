//! Regenerates **Figure 4** of the paper: time efficiency of the
//! three methods on matrices of varying sizes, plus the core-count
//! ablation (`--sweep-cores`) behind the same data-decomposition
//! machinery.
//!
//! Run: `cargo run --release -p xai-bench --bin fig4`
//!      `cargo run --release -p xai-bench --bin fig4 -- --sweep-cores`

use xai_accel::{Accelerator, TpuAccel};
use xai_bench::{fmt_seconds, fmt_speedup, platforms, TablePrinter};
use xai_core::transform_roundtrip_seconds;
use xai_tensor::Result;

fn size_sweep() -> Result<()> {
    println!("== Figure 4: Scalability of three methods ==\n");
    println!("(one transform-solve-inverse round trip per matrix; paper's claim:");
    println!(" \"for matrices in the size of 1024x1024, proposed method is more");
    println!(" than 30x faster than the baseline method\")\n");

    let sizes = [64usize, 128, 256, 512, 1024];
    let mut table = TablePrinter::new(&["size", "CPU", "GPU", "TPU", "TPU vs CPU", "TPU vs GPU"]);
    let mut final_ratio = 0.0;
    for &n in &sizes {
        let mut times = Vec::new();
        for mut p in platforms() {
            times.push(transform_roundtrip_seconds(p.as_mut(), n)?);
        }
        table.row(&[
            format!("{n}x{n}"),
            fmt_seconds(times[0]),
            fmt_seconds(times[1]),
            fmt_seconds(times[2]),
            fmt_speedup(times[0], times[2]),
            fmt_speedup(times[1], times[2]),
        ]);
        final_ratio = times[0] / times[2];
    }
    println!("{}", table.render());
    println!("\n1024x1024: TPU is {final_ratio:.1}x faster than the CPU baseline (paper: >30x).");
    Ok(())
}

fn core_sweep() -> Result<()> {
    println!("== Ablation A2: data-decomposition degree (TPU cores) ==\n");
    let n = 256;
    let mut table = TablePrinter::new(&["cores", "time (256x256 round trip)", "vs 1 core"]);
    let mut one_core = 0.0;
    for cores in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let tpu = TpuAccel::with_cores(cores);
        let t = transform_roundtrip_seconds(&tpu, n)?;
        if cores == 1 {
            one_core = t;
        }
        table.row(&[cores.to_string(), fmt_seconds(t), fmt_speedup(one_core, t)]);
        let _ = tpu.elapsed_seconds();
    }
    println!("{}", table.render());
    println!("\nScaling saturates when per-core shards shrink below the MXU tile");
    println!("and the cross_replica_sum latency floor dominates (§III-D).");
    Ok(())
}

fn main() -> Result<()> {
    let sweep_cores = std::env::args().any(|a| a == "--sweep-cores");
    if sweep_cores {
        core_sweep()
    } else {
        size_sweep()
    }
}
