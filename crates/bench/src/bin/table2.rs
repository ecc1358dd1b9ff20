//! Regenerates **Table II** of the paper: average time for outcome
//! interpretation of every 10 input–output pairs, per platform.
//!
//! The interpretation procedure (fit distilled model over 10 pairs +
//! compute block contribution maps for each pair) runs end-to-end on
//! each platform's hardware model. VGG19's pairs use the CIFAR input
//! shape (32×32); ResNet50's use a large trace-table shape (128×128).
//!
//! Run: `cargo run --release -p xai-bench --bin table2`

use xai_bench::{distillation_pairs, fmt_seconds, fmt_speedup, platforms, TablePrinter};
use xai_core::{interpret_on, SolveStrategy};
use xai_tensor::Result;

fn main() -> Result<()> {
    println!("== Table II: Average time for outcome interpretation (10 pairs) ==\n");

    // (label, matrix size, block grid, paper row: cpu_s, gpu_s, tpu_s)
    let configs = [
        ("VGG19", 32usize, 4usize, (550.7f64, 168.0f64, 15.2f64)),
        ("ResNet50", 128, 8, (1456.1, 502.0, 36.8)),
    ];

    let mut table = TablePrinter::new(&[
        "Model",
        "platform",
        "time (10 pairs)",
        "distill",
        "contrib",
        "Impro./CPU",
        "Impro./GPU",
    ]);

    for (label, size, grid, paper) in configs {
        let pairs = distillation_pairs(10, size)?;
        let mut times = Vec::new();
        for mut platform in platforms() {
            let (_, report) =
                interpret_on(platform.as_mut(), &pairs, grid, SolveStrategy::default())?;
            times.push((platform.name(), report));
        }
        let cpu_t = times[0].1.total_s();
        let gpu_t = times[1].1.total_s();
        for (name, report) in &times {
            table.row(&[
                label.to_string(),
                name.clone(),
                fmt_seconds(report.total_s()),
                fmt_seconds(report.distill_s),
                fmt_seconds(report.contribution_s),
                fmt_speedup(cpu_t, report.total_s()),
                fmt_speedup(gpu_t, report.total_s()),
            ]);
        }
        let tpu_t = times[2].1.total_s();
        println!(
            "{label} ({size}x{size}, {grid}x{grid} blocks): measured TPU speedup {} /CPU, {} /GPU",
            fmt_speedup(cpu_t, tpu_t),
            fmt_speedup(gpu_t, tpu_t),
        );
        println!(
            "        paper row (s): CPU {}  GPU {}  TPU {}  → {}x /CPU, {}x /GPU\n",
            paper.0,
            paper.1,
            paper.2,
            (paper.0 / paper.2 * 10.0).round() / 10.0,
            (paper.1 / paper.2 * 10.0).round() / 10.0,
        );
    }

    println!("{}", table.render());
    println!("\nNote: absolute times differ from the paper (hardware models vs real");
    println!("hardware on full-size networks); the win/loss ordering and the");
    println!("order-of-magnitude gaps are the reproduced claims (`report` gates them).");
    Ok(())
}
