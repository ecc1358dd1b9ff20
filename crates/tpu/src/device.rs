//! Multi-core TPU device with collective communication.
//!
//! Implements the two acceleration activities of the paper: data
//! decomposition (each core works on an independent shard,
//! [`TpuDevice::run_phase`]) and multi-input parallelism, with the
//! `cross_replica_sum` reassembly collective of §III-D charged at
//! `α + β·bytes`. A device adds three counters to its cores' cycles
//! and energy: wall seconds, comm seconds and the collective count.

use crate::config::TpuConfig;
use crate::core::TpuCore;
use xai_tensor::{Complex64, Matrix, Result, Scalar, TensorError};

/// A simulated multi-core TPU.
///
/// Work dispatched through [`TpuDevice::run_phase`] executes
/// sequentially on the host but is *timed* as if the cores ran
/// concurrently: the phase's wall time is the maximum per-core busy
/// time, plus any collective cost.
///
/// # Examples
///
/// ```
/// use xai_tpu::{TpuConfig, TpuDevice};
/// use xai_tensor::Matrix;
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let mut dev = TpuDevice::new(TpuConfig::small_test()); // 2 cores
/// let shards: Vec<Matrix<f64>> = (0..2)
///     .map(|i| Matrix::filled(4, 4, i as f64 + 0.25))
///     .collect::<Result<_, _>>()?;
/// let outs = dev.run_phase(shards, |core, shard| core.matmul(&shard, &shard))?;
/// assert_eq!(outs.len(), 2);
/// assert!(dev.wall_seconds() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TpuDevice {
    cfg: TpuConfig,
    cores: Vec<TpuCore>,
    wall_seconds: f64,
    comm_seconds: f64,
    collectives: u64,
}

impl TpuDevice {
    /// Creates a device with `cfg.cores` cores (clamped to ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `cfg.clock_hz`,
    /// `cfg.hbm_bytes_per_sec` and `cfg.link_bytes_per_sec` are finite
    /// and > 0 and `cfg.link_latency_s` is finite and ≥ 0: a zero rate
    /// would wrap the cycle counter or read an infinite clock, and a
    /// negative one would run it backwards.
    pub fn new(mut cfg: TpuConfig) -> Self {
        check_rates(&cfg);
        cfg.cores = cfg.cores.max(1);
        let cores = (0..cfg.cores).map(|_| TpuCore::new(cfg.clone())).collect();
        TpuDevice {
            cfg,
            cores,
            wall_seconds: 0.0,
            comm_seconds: 0.0,
            collectives: 0,
        }
    }

    /// Creates a device overriding the configured core count — used by
    /// the core-count ablation (`fig4 -- --sweep-cores`).
    ///
    /// # Panics
    ///
    /// As [`TpuDevice::new`].
    pub fn with_cores(mut cfg: TpuConfig, cores: usize) -> Self {
        cfg.cores = cores;
        Self::new(cfg)
    }

    /// Device configuration.
    pub fn config(&self) -> &TpuConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Immutable view of the cores.
    pub fn cores(&self) -> &[TpuCore] {
        &self.cores
    }

    /// Accumulated wall time across all phases, seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_seconds
    }

    /// Accumulated collective-communication time, seconds.
    pub fn comm_seconds(&self) -> f64 {
        self.comm_seconds
    }

    /// Number of collectives issued.
    pub fn collectives(&self) -> u64 {
        self.collectives
    }

    /// Total energy across cores, picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.cores.iter().map(TpuCore::energy_pj).sum()
    }

    /// Zeroes all core counters and device clocks.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            c.reset();
        }
        self.wall_seconds = 0.0;
        self.comm_seconds = 0.0;
        self.collectives = 0;
    }

    /// Executes one data-decomposition phase: work item `i` runs on
    /// core `i % cores`. The phase's wall-clock contribution is the
    /// *maximum* per-core busy-time delta (cores run concurrently).
    ///
    /// # Errors
    ///
    /// Returns the first error produced by `f`, or
    /// [`TensorError::EmptyDimension`] for an empty work list.
    pub fn run_phase<W, R>(
        &mut self,
        work: Vec<W>,
        mut f: impl FnMut(&mut TpuCore, W) -> Result<R>,
    ) -> Result<Vec<R>> {
        if work.is_empty() {
            return Err(TensorError::EmptyDimension);
        }
        let n_cores = self.cores.len();
        let before: Vec<u64> = self.cores.iter().map(TpuCore::elapsed_cycles).collect();
        let mut results = Vec::with_capacity(work.len());
        for (i, w) in work.into_iter().enumerate() {
            let core = &mut self.cores[i % n_cores];
            results.push(f(core, w)?);
        }
        let max_delta = self
            .cores
            .iter()
            .zip(&before)
            .map(|(c, &b)| c.elapsed_cycles() - b)
            .max()
            .unwrap_or(0);
        self.wall_seconds += self.cfg.cycles_to_seconds(max_delta);
        Ok(results)
    }

    /// `cross_replica_sum` over per-core partial matrices: returns
    /// their elementwise sum and charges one collective of the
    /// partial's byte size (§III-D: "required at every iteration of
    /// \[the\] reassembly process to compute the summation of the
    /// partial matrices across the cores").
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for no partials and
    /// [`TensorError::ShapeMismatch`] for inconsistent shapes.
    pub fn cross_replica_sum<T: Scalar>(&mut self, partials: &[Matrix<T>]) -> Result<Matrix<T>> {
        let first = partials.first().ok_or(TensorError::EmptyDimension)?;
        let mut acc = first.clone();
        for p in &partials[1..] {
            acc = acc.zip_with(p, |a, b| a + b)?;
        }
        self.charge_collective(acc.len() * std::mem::size_of::<T>());
        Ok(acc)
    }

    /// Charges one `cross_replica_sum`-shaped collective of `bytes`
    /// without materialising a result — used by schedulers that model
    /// the reassembly traffic of a transform whose numeric result is
    /// computed on the fast host path.
    ///
    /// The one place a device-level collective charges its clocks:
    /// the device's cores are one link apart, so the collective is a
    /// single [`TpuConfig::cross_replica_cost_s`] step.
    pub fn charge_collective(&mut self, bytes: usize) {
        let cost = self.cfg.cross_replica_cost_s(bytes);
        self.comm_seconds += cost;
        self.wall_seconds += cost;
        self.collectives += 1;
    }

    /// Advances the device wall clock by externally-accounted work
    /// (e.g. a roofline charge for layers running outside the core
    /// model). Negative durations are ignored.
    pub fn charge_external_seconds(&mut self, seconds: f64) {
        if seconds > 0.0 {
            self.wall_seconds += seconds;
        }
    }

    /// Convenience: gathers row shards from cores (Algorithm 1's
    /// "merge results") and charges one collective for the traffic.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyDimension`] for an empty shard list
    /// or [`TensorError::ShapeMismatch`] for inconsistent widths.
    pub fn gather_rows(&mut self, shards: &[Matrix<Complex64>]) -> Result<Matrix<Complex64>> {
        let merged = Matrix::vstack(shards)?;
        let bytes = merged.len() * std::mem::size_of::<Complex64>();
        self.charge_collective(bytes);
        Ok(merged)
    }
}

/// The refusal of [`TpuDevice::new`]: every rate a charge divides by
/// finite and positive, the link latency finite and non-negative.
fn check_rates(cfg: &TpuConfig) {
    let rates = [
        ("clock_hz", cfg.clock_hz),
        ("hbm_bytes_per_sec", cfg.hbm_bytes_per_sec),
        ("link_bytes_per_sec", cfg.link_bytes_per_sec),
    ];
    for (field, rate) in rates {
        assert!(
            rate.is_finite() && rate > 0.0,
            "TpuConfig::{field} must be finite and > 0, got {rate}"
        );
    }
    let latency = cfg.link_latency_s;
    assert!(
        latency.is_finite() && latency >= 0.0,
        "TpuConfig::link_latency_s must be finite and >= 0, got {latency}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_config_with_a_zero_negative_or_non_finite_rate_is_refused() {
        type Set = fn(&mut TpuConfig, f64);
        let rate = [0.0, -1.0, f64::NAN, f64::INFINITY];
        let bad: [(&str, Set, &[f64]); 4] = [
            ("clock_hz", |c, v| c.clock_hz = v, &rate),
            ("hbm_bytes_per_sec", |c, v| c.hbm_bytes_per_sec = v, &rate),
            ("link_bytes_per_sec", |c, v| c.link_bytes_per_sec = v, &rate),
            ("link_latency_s", |c, v| c.link_latency_s = v, &rate[1..]),
        ];
        for (field, set, values) in bad {
            for &value in values {
                let mut cfg = TpuConfig::tpu_v2();
                set(&mut cfg, value);
                for build in [TpuDevice::new, |cfg| TpuDevice::with_cores(cfg, 2)] {
                    let refusal = std::panic::catch_unwind(|| build(cfg.clone())).unwrap_err();
                    let message = refusal.downcast_ref::<String>().unwrap();
                    assert!(message.contains(field), "{field} = {value}: {message}");
                }
            }
        }
        let no_latency = TpuConfig {
            link_latency_s: 0.0,
            ..TpuConfig::small_test()
        };
        for cfg in [TpuConfig::tpu_v2(), TpuConfig::small_test(), no_latency] {
            assert!(TpuDevice::new(cfg).num_cores() > 0);
        }
    }

    fn shard(v: f64) -> Matrix<f64> {
        Matrix::filled(4, 4, v).unwrap()
    }

    #[test]
    fn device_has_configured_cores() {
        let dev = TpuDevice::new(TpuConfig::small_test());
        assert_eq!(dev.num_cores(), 2);
        let dev = TpuDevice::with_cores(TpuConfig::small_test(), 8);
        assert_eq!(dev.num_cores(), 8);
        let dev0 = TpuDevice::with_cores(TpuConfig::small_test(), 0);
        assert_eq!(dev0.num_cores(), 1);
    }

    #[test]
    fn run_phase_distributes_round_robin() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let work: Vec<Matrix<f64>> = (0..4).map(|i| shard(i as f64 * 0.1)).collect();
        let results = dev.run_phase(work, |core, w| core.matmul(&w, &w)).unwrap();
        assert_eq!(results.len(), 4);
        // Both cores must have been used (2 items each).
        assert!(dev.cores()[0].elapsed_cycles() > 0);
        assert!(dev.cores()[1].elapsed_cycles() > 0);
    }

    #[test]
    fn phase_wall_time_is_max_not_sum() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let work: Vec<Matrix<f64>> = (0..2).map(|_| shard(0.5)).collect();
        dev.run_phase(work, |core, w| core.matmul(&w, &w)).unwrap();
        let per_core = dev.cores()[0].elapsed_seconds();
        // Two equal items on two cores: wall ≈ one item's time, not two.
        assert!((dev.wall_seconds() - per_core).abs() < per_core * 0.5 + 1e-12);
        let sum: f64 = dev.cores().iter().map(TpuCore::elapsed_seconds).sum();
        assert!(dev.wall_seconds() < sum);
    }

    #[test]
    fn empty_phase_rejected() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let r = dev.run_phase(Vec::<Matrix<f64>>::new(), |core, w| core.matmul(&w, &w));
        assert!(r.is_err());
    }

    #[test]
    fn cross_replica_sum_adds_partials() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let partials = vec![shard(1.0), shard(2.0), shard(3.0)];
        let sum = dev.cross_replica_sum(&partials).unwrap();
        assert_eq!(sum[(2, 2)], 6.0);
        assert_eq!(dev.collectives(), 1);
        assert!(dev.comm_seconds() >= dev.config().link_latency_s);
    }

    #[test]
    fn cross_replica_sum_shape_mismatch() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let partials = vec![shard(1.0), Matrix::filled(3, 3, 1.0).unwrap()];
        assert!(dev.cross_replica_sum(&partials).is_err());
        assert!(dev.cross_replica_sum::<f64>(&[]).is_err());
    }

    #[test]
    fn gather_rows_merges_and_charges() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        let a = Matrix::filled(2, 3, Complex64::ONE).unwrap();
        let b = Matrix::filled(1, 3, Complex64::I).unwrap();
        let merged = dev.gather_rows(&[a, b]).unwrap();
        assert_eq!(merged.shape(), (3, 3));
        assert_eq!(merged[(2, 0)], Complex64::I);
        assert_eq!(dev.collectives(), 1);
    }

    #[test]
    fn more_cores_reduce_phase_time() {
        let work = |n: usize| -> Vec<Matrix<f64>> {
            (0..8)
                .map(|_| shard(0.5))
                .collect::<Vec<_>>()
                .into_iter()
                .take(n)
                .collect()
        };
        let mut d2 = TpuDevice::with_cores(TpuConfig::small_test(), 2);
        d2.run_phase(work(8), |c, w| c.matmul(&w, &w)).unwrap();
        let mut d8 = TpuDevice::with_cores(TpuConfig::small_test(), 8);
        d8.run_phase(work(8), |c, w| c.matmul(&w, &w)).unwrap();
        assert!(d8.wall_seconds() < d2.wall_seconds());
    }

    #[test]
    fn reset_zeroes_device() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![shard(0.1)], |c, w| c.matmul(&w, &w))
            .unwrap();
        dev.cross_replica_sum(&[shard(1.0)]).unwrap();
        dev.reset();
        assert_eq!(dev.wall_seconds(), 0.0);
        assert_eq!(dev.collectives(), 0);
        assert_eq!(dev.energy_pj(), 0.0);
    }

    #[test]
    fn energy_sums_across_cores() {
        let mut dev = TpuDevice::new(TpuConfig::small_test());
        dev.run_phase(vec![shard(0.1), shard(0.2)], |c, w| c.matmul(&w, &w))
            .unwrap();
        let total: f64 = dev.cores().iter().map(TpuCore::energy_pj).sum();
        assert_eq!(dev.energy_pj(), total);
        assert!(total > 0.0);
    }
}
