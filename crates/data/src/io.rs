//! Loaders for the real datasets' on-disk formats.
//!
//! The paper evaluates on CIFAR-100 and MIRAI register traces. The
//! synthetic generators in [`crate::cifar`]/[`crate::mirai`] stand in
//! for them offline (the build has no network access and ships no
//! dataset); when a user *does*
//! have the real files, these parsers load them into the same types:
//!
//! * [`parse_cifar`] reads the CIFAR binary format (one or two label
//!   bytes followed by 3×32×32 pixel bytes per record — CIFAR-10 and
//!   CIFAR-100 respectively);
//! * [`parse_trace_table`] reads a whitespace-separated hex trace
//!   table like the paper's Figure 6 snapshot.
//!
//! Both parse from any `Read`, so tests exercise them on in-memory
//! buffers.

use crate::mirai::{RegisterTrace, TraceLabel, ATTACK_REGISTER, ATTACK_SIGNATURE};
use std::io::Read;
use xai_nn::Tensor3;
use xai_tensor::{Matrix, Result, TensorError};

/// CIFAR image edge (fixed by the format).
pub const CIFAR_SIZE: usize = 32;
/// CIFAR channel count (fixed by the format).
pub const CIFAR_CHANNELS: usize = 3;
const CIFAR_PIXELS: usize = CIFAR_CHANNELS * CIFAR_SIZE * CIFAR_SIZE;

/// CIFAR binary-format flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CifarFormat {
    /// One label byte per record (CIFAR-10).
    Cifar10,
    /// Coarse + fine label bytes per record (CIFAR-100, the paper's
    /// benchmark); the fine label is kept.
    Cifar100,
}

impl CifarFormat {
    /// How many classes each label byte of a record counts: CIFAR-10's
    /// one label, CIFAR-100's coarse then fine label.
    fn label_classes(self) -> &'static [usize] {
        match self {
            CifarFormat::Cifar10 => &[10],
            CifarFormat::Cifar100 => &[20, 100],
        }
    }

    fn label_bytes(self) -> usize {
        self.label_classes().len()
    }
}

/// One decoded CIFAR record.
#[derive(Debug, Clone, PartialEq)]
pub struct CifarRecord {
    /// The image as a `3 × 32 × 32` volume, pixels scaled to [0, 1].
    pub image: Tensor3,
    /// The (fine) class label.
    pub label: usize,
}

/// Parses CIFAR binary records from a reader. A mut reference can be
/// passed for readers that should remain usable afterwards.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for an empty stream (as
/// [`parse_trace_table`] does for an empty table) and
/// [`TensorError::DataLength`] when the stream ends inside a record
/// (trailing garbage or truncation). A label byte past its format's
/// range — CIFAR-10 ≥ 10, CIFAR-100 coarse ≥ 20 or fine ≥ 100 — also
/// yields [`TensorError::DataLength`], with the record's index in
/// `expected` and the byte's position in the record in `actual`.
pub fn parse_cifar<R: Read>(mut reader: R, format: CifarFormat) -> Result<Vec<CifarRecord>> {
    let record_len = format.label_bytes() + CIFAR_PIXELS;
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|_| TensorError::EmptyDimension)?;
    if bytes.is_empty() {
        return Err(TensorError::EmptyDimension);
    }
    if bytes.len() % record_len != 0 {
        return Err(TensorError::DataLength {
            expected: (bytes.len() / record_len + 1) * record_len,
            actual: bytes.len(),
        });
    }
    let mut records = Vec::with_capacity(bytes.len() / record_len);
    for (i, chunk) in bytes.chunks_exact(record_len).enumerate() {
        let mut labels = format.label_classes().iter().zip(chunk);
        if let Some(at) = labels.position(|(&classes, &label)| usize::from(label) >= classes) {
            return Err(TensorError::DataLength {
                expected: i,
                actual: at,
            });
        }
        // CIFAR-100 stores [coarse, fine]; keep the fine label.
        let label = chunk[format.label_bytes() - 1] as usize;
        let pixels = &chunk[format.label_bytes()..];
        let image = Tensor3::from_fn(CIFAR_CHANNELS, CIFAR_SIZE, CIFAR_SIZE, |c, y, x| {
            pixels[(c * CIFAR_SIZE + y) * CIFAR_SIZE + x] as f64 / 255.0
        })?;
        records.push(CifarRecord { image, label });
    }
    Ok(records)
}

/// Parses a whitespace-separated hex trace table (rows = registers,
/// columns = clock cycles) into a [`RegisterTrace`]. Values may carry
/// an optional `0x` prefix. The label is inferred: a trace containing
/// the [`ATTACK_SIGNATURE`] in the attack register row is malicious,
/// with that column as the attack cycle.
///
/// # Errors
///
/// Returns [`TensorError::EmptyDimension`] for an empty table and
/// [`TensorError::DataLength`] for ragged rows. A malformed token — a
/// non-hex digit, a sign (a register value is unsigned), a value past
/// `i16` — also yields [`TensorError::DataLength`], with the row in
/// `expected` and the token's position in that row in `actual`.
pub fn parse_trace_table<R: Read>(mut reader: R) -> Result<RegisterTrace> {
    let mut text = String::new();
    reader
        .read_to_string(&mut text)
        .map_err(|_| TensorError::EmptyDimension)?;
    let mut rows: Vec<Vec<i16>> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut row = Vec::new();
        for (i, token) in line.split_whitespace().enumerate() {
            let hex = token.strip_prefix("0x").unwrap_or(token);
            // `from_str_radix` alone would take a leading sign.
            let value = Some(hex)
                .filter(|h| !h.starts_with(['+', '-']))
                .and_then(|h| i16::from_str_radix(h, 16).ok())
                .ok_or(TensorError::DataLength {
                    expected: rows.len(),
                    actual: i,
                })?;
            row.push(value);
        }
        rows.push(row);
    }
    let first = rows.first().ok_or(TensorError::EmptyDimension)?;
    let cols = first.len();
    if cols == 0 || rows.iter().any(|r| r.len() != cols) {
        return Err(TensorError::DataLength {
            expected: cols,
            actual: rows.iter().map(Vec::len).min().unwrap_or(0),
        });
    }
    let raw = Matrix::from_fn(rows.len(), cols, |r, c| rows[r][c])?;
    let attack_cycle = (0..cols)
        .find(|&c| ATTACK_REGISTER < raw.rows() && raw[(ATTACK_REGISTER, c)] == ATTACK_SIGNATURE);
    let table = raw.map(|v| v as f64 / 255.0);
    Ok(RegisterTrace {
        raw,
        table,
        label: if attack_cycle.is_some() {
            TraceLabel::Malicious
        } else {
            TraceLabel::Benign
        },
        attack_cycle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic CIFAR byte stream with known labels/pixels.
    fn cifar_bytes(format: CifarFormat, n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            if format == CifarFormat::Cifar100 {
                out.push((i % 20) as u8); // coarse
            }
            out.push((i % 100) as u8); // (fine) label
            for p in 0..CIFAR_PIXELS {
                out.push(((p + i) % 256) as u8);
            }
        }
        out
    }

    #[test]
    fn parses_cifar10_records() {
        let bytes = cifar_bytes(CifarFormat::Cifar10, 3);
        let records = parse_cifar(&bytes[..], CifarFormat::Cifar10).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].label, 1);
        assert_eq!(records[0].image.shape(), (3, 32, 32));
        // pixel 0 of record 0 is byte 0 → 0.0
        assert_eq!(records[0].image.get(0, 0, 0), 0.0);
        // record 1's pixels start at value 1
        assert!((records[1].image.get(0, 0, 0) - 1.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn parses_cifar100_fine_labels() {
        let bytes = cifar_bytes(CifarFormat::Cifar100, 2);
        let records = parse_cifar(&bytes[..], CifarFormat::Cifar100).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, 0);
        assert_eq!(records[1].label, 1);
    }

    #[test]
    fn truncated_cifar_stream_rejected() {
        let mut bytes = cifar_bytes(CifarFormat::Cifar10, 1);
        bytes.pop();
        assert!(parse_cifar(&bytes[..], CifarFormat::Cifar10).is_err());
    }

    #[test]
    fn channel_layout_is_planar() {
        // CIFAR stores R-plane, G-plane, B-plane.
        let mut bytes = vec![7u8]; // label
        bytes.extend(std::iter::repeat_n(10u8, 1024)); // R
        bytes.extend(std::iter::repeat_n(20u8, 1024)); // G
        bytes.extend(std::iter::repeat_n(30u8, 1024)); // B
        let records = parse_cifar(&bytes[..], CifarFormat::Cifar10).unwrap();
        let img = &records[0].image;
        assert!((img.get(0, 5, 5) - 10.0 / 255.0).abs() < 1e-12);
        assert!((img.get(1, 5, 5) - 20.0 / 255.0).abs() < 1e-12);
        assert!((img.get(2, 5, 5) - 30.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn parses_benign_trace_table() {
        let text = "# header comment\n0x10 0x11 0x12\n0x20 0x21 0x22\n0x30 0x31 0x32\n";
        let trace = parse_trace_table(text.as_bytes()).unwrap();
        assert_eq!(trace.raw.shape(), (3, 3));
        assert_eq!(trace.raw[(1, 2)], 0x22);
        assert_eq!(trace.label, TraceLabel::Benign);
        assert!(trace.attack_cycle.is_none());
    }

    #[test]
    fn detects_attack_signature_in_trace() {
        // Attack register is row 2; signature 0xF4 in column 1.
        let text = "00 01 02\n10 11 12\n20 F4 22\n30 31 32\n";
        let trace = parse_trace_table(text.as_bytes()).unwrap();
        assert_eq!(trace.label, TraceLabel::Malicious);
        assert_eq!(trace.attack_cycle, Some(1));
    }

    #[test]
    fn trace_parse_errors() {
        assert!(parse_trace_table("".as_bytes()).is_err());
        assert!(parse_trace_table("00 01\n10\n".as_bytes()).is_err()); // ragged
        assert!(parse_trace_table("zz yy\n".as_bytes()).is_err()); // bad hex
    }

    #[test]
    fn parsed_trace_roundtrips_through_hex_rendering() {
        let text = "00 01\n10 11\n20 21\n";
        let trace = parse_trace_table(text.as_bytes()).unwrap();
        let rendered = trace.to_hex_table();
        assert!(rendered.contains("0x11"));
        assert!(rendered.contains("R2"));
    }
}
