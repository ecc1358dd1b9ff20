//! Integration tests of the file-format loaders feeding the full
//! pipeline: bytes in → trained model → explanation out.

use tpu_xai::core::{SolveStrategy, TraceExplainer};
use tpu_xai::data::io::{parse_cifar, parse_trace_table, CifarFormat, CIFAR_SIZE};
use tpu_xai::data::mirai::{
    TraceConfig, TraceDataset, TraceLabel, ATTACK_REGISTER, ATTACK_SIGNATURE,
};
use tpu_xai::nn::layers::{Dense, Relu};
use tpu_xai::nn::models::resnet_small;
use tpu_xai::nn::{Network, Tensor3, Trainer};
use tpu_xai::tensor::TensorError;

/// Builds a CIFAR-format byte stream with two visually separable
/// classes (bright top half vs bright bottom half).
fn synthetic_cifar_bytes(n_per_class: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..n_per_class {
        for class in 0..2u8 {
            bytes.push(class); // CIFAR-10 label byte
            for c in 0..3 {
                for y in 0..CIFAR_SIZE {
                    for x in 0..CIFAR_SIZE {
                        let bright = if class == 0 { y < 16 } else { y >= 16 };
                        let base: u8 = if bright { 200 } else { 40 };
                        let jitter = ((x + y * 3 + c + i) % 17) as u8;
                        bytes.push(base.saturating_add(jitter));
                    }
                }
            }
        }
    }
    bytes
}

#[test]
fn cifar_bytes_train_a_classifier() {
    let bytes = synthetic_cifar_bytes(6);
    let records = parse_cifar(&bytes[..], CifarFormat::Cifar10).unwrap();
    assert_eq!(records.len(), 12);
    // A small dense head on the raw pixels separates the two classes.
    let mut net = Network::new();
    net.push(Box::new(Dense::new(3 * 32 * 32, 16, 0).unwrap()));
    net.push(Box::new(Relu::new(16, 1, 1)));
    net.push(Box::new(Dense::new(16, 2, 1).unwrap()));
    let pairs: Vec<(Tensor3, usize)> = records.iter().map(|r| (r.image.clone(), r.label)).collect();
    Trainer::new(0.05, 0.9, 4, 0)
        .fit(&mut net, &pairs, 6)
        .unwrap();
    let acc = net.accuracy(&pairs).unwrap();
    assert!(acc >= 0.9, "accuracy on parsed CIFAR bytes: {acc}");
}

/// Writes a trace in the Figure 6 text format and renders it back.
fn trace_text(attack_cycle: Option<usize>) -> String {
    let mut s = String::from("# synthetic trace\n");
    for r in 0..8 {
        let mut row = Vec::new();
        for c in 0..8 {
            let v = if Some(c) == attack_cycle && r == ATTACK_REGISTER {
                ATTACK_SIGNATURE
            } else {
                ((r * 7 + c * 3) % 96) as i16
            };
            row.push(format!("{v:02X}"));
        }
        s.push_str(&row.join(" "));
        s.push('\n');
    }
    s
}

#[test]
fn trace_text_roundtrips_into_the_explainer() {
    // Parse a mixed set of textual traces and run the explanation
    // pipeline on them.
    let traces: Vec<_> = (0..12)
        .map(|i| {
            let attack = if i % 2 == 1 {
                Some(1 + (i * 3) % 6)
            } else {
                None
            };
            parse_trace_table(trace_text(attack).as_bytes()).unwrap()
        })
        .collect();
    assert_eq!(
        traces
            .iter()
            .filter(|t| t.label == TraceLabel::Malicious)
            .count(),
        6
    );

    let pairs: Vec<_> = traces
        .iter()
        .map(|t| (Tensor3::from_matrix(&t.table), t.label.class_index()))
        .collect();
    let mut net = resnet_small(1, 8, 2, 4).unwrap();
    Trainer::new(0.05, 0.9, 6, 0)
        .fit(&mut net, &pairs, 5)
        .unwrap();

    let explainer = TraceExplainer::fit(&net, &traces, SolveStrategy::default()).unwrap();
    let acc = explainer
        .attack_localization_accuracy(&net, &traces)
        .unwrap();
    assert!(acc >= 0.8, "parsed-trace localization {acc}");
}

/// One CIFAR record: its label bytes, then a mid-grey image.
fn cifar_record(labels: &[u8]) -> Vec<u8> {
    let mut record = labels.to_vec();
    record.extend(std::iter::repeat_n(128u8, 3 * CIFAR_SIZE * CIFAR_SIZE));
    record
}

#[test]
fn malformed_cifar_streams_are_typed_errors() {
    // An empty stream is an empty dataset, as for a trace table.
    for format in [CifarFormat::Cifar10, CifarFormat::Cifar100] {
        assert_eq!(
            parse_cifar(&[][..], format).unwrap_err(),
            TensorError::EmptyDimension,
            "{format:?}"
        );
    }
    // A label past its range names the record (`expected`) and the
    // label byte in it (`actual`); the last in-range labels parse.
    let out_of_range = |record, byte| TensorError::DataLength {
        expected: record,
        actual: byte,
    };
    for (format, bad, byte) in [
        (CifarFormat::Cifar10, vec![10u8], 0),
        (CifarFormat::Cifar10, vec![255], 0),
        (CifarFormat::Cifar100, vec![20, 5], 0),
        (CifarFormat::Cifar100, vec![3, 100], 1),
        (CifarFormat::Cifar100, vec![255, 255], 0),
    ] {
        let good: &[u8] = if format == CifarFormat::Cifar10 {
            &[9]
        } else {
            &[19, 99]
        };
        let mut bytes = cifar_record(good);
        bytes.extend(cifar_record(good));
        bytes.extend(cifar_record(&bad));
        assert_eq!(
            parse_cifar(&bytes[..], format).unwrap_err(),
            out_of_range(2, byte),
            "{format:?} {bad:?}"
        );
        let records = parse_cifar(&bytes[..2 * bytes.len() / 3], format).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].label, usize::from(good[good.len() - 1]));
    }
}

#[test]
fn malformed_trace_tables_are_typed_errors() {
    let malformed = |row, token| TensorError::DataLength {
        expected: row,
        actual: token,
    };
    // A register value is unsigned hex: a sign is a malformed token,
    // before or after the optional `0x`.
    for (text, row, token) in [
        ("-1f 02\n03 04", 0, 0),
        ("+1f 02\n03 04", 0, 0),
        ("01 02\n03 0x-1f", 1, 1),
        ("01 0x+1f\n03 04", 0, 1),
        ("01 02\n-0x1f 04", 1, 0),
    ] {
        assert_eq!(
            parse_trace_table(text.as_bytes()).unwrap_err(),
            malformed(row, token),
            "{text:?}"
        );
    }
    for empty in ["", "\n\n", "# only a comment\n"] {
        assert_eq!(
            parse_trace_table(empty.as_bytes()).unwrap_err(),
            TensorError::EmptyDimension,
            "{empty:?}"
        );
    }
    // A ragged last row: the width of the first row, the shortest row.
    assert_eq!(
        parse_trace_table("00 01 02\n10 11 12\n20 21".as_bytes()).unwrap_err(),
        TensorError::DataLength {
            expected: 3,
            actual: 2
        }
    );
}

/// A malicious trace writes its flag on a cycle with one before and one
/// after it: a generator with fewer than three cycles is refused with a
/// typed error instead of panicking when it draws that cycle.
#[test]
fn trace_generators_need_a_mid_trace_cycle() {
    let config = |cycles| TraceConfig {
        registers: 4,
        cycles,
        seed: 3,
    };
    for cycles in [1, 2] {
        assert_eq!(
            TraceDataset::new(config(cycles)).unwrap_err(),
            TensorError::ShapeMismatch {
                left: (1, cycles),
                right: (1, 3),
                op: "trace needs a mid-trace attack cycle",
            },
            "{cycles} cycles"
        );
    }
    let traces = TraceDataset::new(config(3)).unwrap().generate(4).unwrap();
    for trace in &traces {
        assert_eq!(trace.raw.shape(), (4, 3));
        let expected = (trace.label == TraceLabel::Malicious).then_some(1);
        assert_eq!(trace.attack_cycle, expected);
    }
}
