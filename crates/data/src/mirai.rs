//! Synthetic MIRAI-like malware register traces.
//!
//! The paper's second benchmark feeds a trace table to a ResNet50
//! detector: "each row represents the hex values in a register in
//! specific clock cycles (each column represents a specific clock
//! cycle)" (Figure 6). The key qualitative claim is that the
//! explanation's per-cycle contribution factors single out the cycle
//! where the bot assigns its `ATTACK_VECTOR` mode flag.
//!
//! Real MIRAI traces come from a hardware-assisted tracing setup we
//! don't have; this generator synthesises traces with the same
//! structure **and a known ground-truth attack cycle**, making the
//! paper's claim testable instead of anecdotal.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xai_tensor::{Matrix, Result, TensorError};

/// Trace label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLabel {
    /// Normal firmware activity.
    Benign,
    /// Bot activity containing an attack-mode flag assignment.
    Malicious,
}

impl TraceLabel {
    /// Class index used by the classifier (benign = 0).
    pub fn class_index(self) -> usize {
        match self {
            TraceLabel::Benign => 0,
            TraceLabel::Malicious => 1,
        }
    }
}

/// Configuration of the trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Number of traced registers (rows).
    pub registers: usize,
    /// Number of recorded clock cycles (columns).
    pub cycles: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            registers: 8,
            cycles: 8,
            seed: 0,
        }
    }
}

/// One synthesised register trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterTrace {
    /// Raw 8-bit register values, `registers × cycles`.
    pub raw: Matrix<i16>,
    /// The same table normalised to `[0, 1]` for the classifier.
    pub table: Matrix<f64>,
    /// Benign or malicious.
    pub label: TraceLabel,
    /// For malicious traces, the clock cycle (column) holding the
    /// `ATTACK_VECTOR` assignment signature.
    pub attack_cycle: Option<usize>,
}

impl RegisterTrace {
    /// Renders one row range of the trace as a hex table like the
    /// paper's Figure 6 snapshot.
    pub fn to_hex_table(&self) -> String {
        let mut s = String::new();
        s.push_str("        ");
        for c in 0..self.raw.cols() {
            s.push_str(&format!("  C{c:<4}"));
        }
        s.push('\n');
        for r in 0..self.raw.rows() {
            s.push_str(&format!("  R{r:<4}:"));
            for c in 0..self.raw.cols() {
                s.push_str(&format!("  0x{:02X} ", self.raw[(r, c)] as u8));
            }
            s.push('\n');
        }
        s
    }
}

/// The register row that carries the attack-mode flag (the MIRAI
/// `ATTACK_VECTOR` variable's home register in the synthetic ISA).
pub const ATTACK_REGISTER: usize = 2;

/// The signature value written when the bot selects an attack mode —
/// a fixed opcode-like constant that never occurs in benign traffic
/// (benign register values stay below 0x80).
pub const ATTACK_SIGNATURE: i16 = 0xF4;

/// Synthetic malware-trace dataset generator.
#[derive(Debug, Clone)]
pub struct TraceDataset {
    config: TraceConfig,
}

impl TraceDataset {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for zero dimensions and
    /// [`TensorError::ShapeMismatch`] when there are fewer registers
    /// than [`ATTACK_REGISTER`] requires or fewer than three cycles: a
    /// malicious trace writes its flag on a mid-trace cycle, one with a
    /// cycle before and after it.
    pub fn new(config: TraceConfig) -> Result<Self> {
        if config.registers == 0 || config.cycles == 0 {
            return Err(TensorError::EmptyDimension);
        }
        if config.registers <= ATTACK_REGISTER {
            return Err(TensorError::ShapeMismatch {
                left: (config.registers, 1),
                right: (ATTACK_REGISTER + 1, 1),
                op: "trace needs the attack register row",
            });
        }
        if config.cycles < 3 {
            return Err(TensorError::ShapeMismatch {
                left: (1, config.cycles),
                right: (1, 3),
                op: "trace needs a mid-trace attack cycle",
            });
        }
        Ok(TraceDataset { config })
    }

    /// The generator's configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// Generates `n` traces, alternating benign/malicious.
    ///
    /// # Errors
    ///
    /// Propagates matrix construction errors (cannot occur for a
    /// validated config).
    pub fn generate(&self, n: usize) -> Result<Vec<RegisterTrace>> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let malicious = i % 2 == 1;
            out.push(self.generate_one(&mut rng, malicious)?);
        }
        Ok(out)
    }

    fn generate_one(&self, rng: &mut StdRng, malicious: bool) -> Result<RegisterTrace> {
        let (regs, cycles) = (self.config.registers, self.config.cycles);
        // Benign background: low-entropy counter/loop activity.
        let mut raw = Matrix::<i16>::zeros(regs, cycles)?;
        for r in 0..regs {
            let base = rng.random_range(0..64i16);
            for c in 0..cycles {
                // register drifts slowly; occasional reload
                let drift = ((c as i16) * ((r as i16 % 3) + 1)) % 32;
                let jitter = rng.random_range(0..8i16);
                raw[(r, c)] = (base + drift + jitter) % 128;
            }
        }
        let attack_cycle = if malicious {
            // The bot writes the mode flag somewhere mid-trace.
            let cycle = rng.random_range(1..cycles - 1);
            raw[(ATTACK_REGISTER, cycle)] = ATTACK_SIGNATURE;
            // The flag is consumed immediately after: a couple of
            // dependent registers tick up on the dispatch cycle — a
            // weaker secondary trace of the same event.
            if cycle + 1 < cycles {
                for r in 0..regs {
                    if r != ATTACK_REGISTER && r % 4 == 0 {
                        raw[(r, cycle + 1)] = (raw[(r, cycle + 1)] + 48) % 256;
                    }
                }
            }
            Some(cycle)
        } else {
            None
        };
        let table = raw.map(|v| v as f64 / 255.0);
        Ok(RegisterTrace {
            raw,
            table,
            label: if malicious {
                TraceLabel::Malicious
            } else {
                TraceLabel::Benign
            },
            attack_cycle,
        })
    }

    /// Generates a `(train, test)` split with disjoint RNG streams.
    ///
    /// # Errors
    ///
    /// Propagates generation errors.
    pub fn generate_split(
        &self,
        train: usize,
        test: usize,
    ) -> Result<(Vec<RegisterTrace>, Vec<RegisterTrace>)> {
        let train_set = self.generate(train)?;
        let mut cfg = self.config;
        cfg.seed = self.config.seed.wrapping_add(0xDEAD_BEEF_CAFE_F00D);
        let test_set = TraceDataset::new(cfg)?.generate(test)?;
        Ok((train_set, test_set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> TraceDataset {
        TraceDataset::new(TraceConfig::default()).unwrap()
    }

    #[test]
    fn validation() {
        assert!(TraceDataset::new(TraceConfig {
            registers: 0,
            ..TraceConfig::default()
        })
        .is_err());
        assert!(TraceDataset::new(TraceConfig {
            registers: 2, // attack register is row 2 — needs ≥ 3
            ..TraceConfig::default()
        })
        .is_err());
    }

    #[test]
    fn labels_alternate() {
        let traces = dataset().generate(4).unwrap();
        assert_eq!(traces[0].label, TraceLabel::Benign);
        assert_eq!(traces[1].label, TraceLabel::Malicious);
        assert_eq!(traces[0].label.class_index(), 0);
        assert_eq!(traces[1].label.class_index(), 1);
    }

    #[test]
    fn malicious_traces_carry_signature_at_ground_truth_cycle() {
        for t in dataset().generate(10).unwrap() {
            match t.label {
                TraceLabel::Malicious => {
                    let cycle = t.attack_cycle.expect("malicious trace has cycle");
                    assert_eq!(t.raw[(ATTACK_REGISTER, cycle)], ATTACK_SIGNATURE);
                }
                TraceLabel::Benign => {
                    assert!(t.attack_cycle.is_none());
                    // Signature never appears in benign traces.
                    for &v in t.raw.as_slice() {
                        assert_ne!(v, ATTACK_SIGNATURE);
                    }
                }
            }
        }
    }

    #[test]
    fn normalised_table_in_unit_range() {
        for t in dataset().generate(6).unwrap() {
            for &v in t.table.as_slice() {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn hex_rendering_mentions_rows_and_cycles() {
        let t = &dataset().generate(2).unwrap()[1];
        let s = t.to_hex_table();
        assert!(s.contains("C0"));
        assert!(s.contains("R2"));
        assert!(s.contains("0xF4"));
    }

    #[test]
    fn deterministic_and_split_streams_differ() {
        let a = dataset().generate(4).unwrap();
        let b = dataset().generate(4).unwrap();
        assert_eq!(a, b);
        let (train, test) = dataset().generate_split(2, 2).unwrap();
        assert_ne!(train[0].raw, test[0].raw);
    }
}
