//! Regenerates **Figure 6** of the paper: interpretation of MIRAI
//! malware trace signals — per-clock-cycle contribution weights with
//! the `ATTACK_VECTOR` assignment cycle dominating.
//!
//! Run: `cargo run --release -p xai-bench --bin fig6`

use xai_core::{SolveStrategy, TraceExplainer};
use xai_data::mirai::{TraceConfig, TraceDataset, TraceLabel};
use xai_nn::models::resnet_small;
use xai_nn::{Tensor3, Trainer};
use xai_tensor::Result;

fn main() -> Result<()> {
    println!("== Figure 6: Interpretation of MIRAI malware traced signals ==\n");

    let ds = TraceDataset::new(TraceConfig {
        registers: 8,
        cycles: 8,
        seed: 3,
    })?;
    let traces = ds.generate(24)?;
    let pairs: Vec<_> = traces
        .iter()
        .map(|t| (Tensor3::from_matrix(&t.table), t.label.class_index()))
        .collect();

    let mut net = resnet_small(1, 8, 2, 5)?;
    println!("training ResNet-style detector on synthetic MIRAI-like traces…");
    let reports = Trainer::new(0.05, 0.9, 8, 0).fit(&mut net, &pairs, 6)?;
    println!(
        "training accuracy after {} epochs: {:.0}%\n",
        reports.len(),
        reports.last().map(|r| r.accuracy).unwrap_or(0.0) * 100.0
    );

    let explainer = TraceExplainer::fit(&net, &traces, SolveStrategy::default())?;

    // Show one malicious trace like the paper's snapshot — prefer a
    // correctly-localised example (the paper's figure is a success
    // case; the aggregate accuracy below reports the full picture).
    let mut chosen = None;
    for t in traces.iter().filter(|t| t.label == TraceLabel::Malicious) {
        let ex = explainer.explain(&net, t)?;
        if Some(ex.top_cycle) == t.attack_cycle {
            chosen = Some((t, ex));
            break;
        }
        if chosen.is_none() {
            chosen = Some((t, ex));
        }
    }
    let (sample, ex) = chosen.expect("generator alternates labels");
    println!("trace table (hex, register x clock-cycle):");
    print!("{}", sample.to_hex_table());
    println!("{}", ex.to_weight_row());
    println!(
        "\nground-truth ATTACK_VECTOR assignment cycle: C{}   top-weighted cycle: C{}{}",
        sample.attack_cycle.expect("malicious"),
        ex.top_cycle,
        if Some(ex.top_cycle) == sample.attack_cycle
            || Some(ex.top_cycle) == sample.attack_cycle.map(|c| c + 1)
        {
            "  ✓"
        } else {
            "  ✗"
        }
    );

    let acc = explainer.attack_localization_accuracy(&net, &traces)?;
    println!(
        "\nattack-cycle localization accuracy over all malicious traces: {:.0}%",
        acc * 100.0
    );
    println!("(the paper reports this qualitatively: \"the weight of C2 is");
    println!(" significantly larger than the others\")");
    Ok(())
}
