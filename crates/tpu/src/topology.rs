//! Interconnect topologies for collective pricing.
//!
//! The seed cost model priced every collective as one flat
//! `α + β·bytes` hop ([`crate::TpuConfig::cross_replica_cost_s`]),
//! which makes 16–64-chip fleets look linearly cheap: an ideal
//! crossbar where every participant is one hop from every other. Real
//! TPU pods are rings and 2-D tori, so a gather's latency and link
//! pressure grow with the fleet. This module supplies that layer:
//!
//! * [`Topology::flat`] — the seed's ideal crossbar, kept as the
//!   default and **bit-for-bit identical** to
//!   [`crate::TpuConfig::cross_replica_cost_s`];
//! * [`Topology::ring`] — a single bidirectional ring; gathers pay
//!   the farthest participant's hop latency and squeeze all shards
//!   through the root's two ring links;
//! * [`Topology::torus`] — a 2-D torus of ring-shaped pods;
//!   collectives run hierarchically (§III-D's reassembly, one level
//!   up): an intra-pod ring gather, then pod leaders exchange their
//!   pod-aggregated payloads over the inter-pod ring.
//!
//! All costs follow the per-shard parallel-links convention of
//! [`crate::TpuDevice::charge_collective`]: `bytes` is one (the
//! largest) participant's payload, not the summed traffic; latency
//! scales with the farthest participant's hop count, bandwidth time
//! with how many payloads serialise through the root's links. Every
//! link has the configuration's `α` ([`TpuConfig::link_latency_s`])
//! and bandwidth ([`TpuConfig::link_bytes_per_sec`]).
//!
//! # Examples
//!
//! ```
//! use xai_tpu::{Topology, TpuConfig};
//!
//! let cfg = TpuConfig::tpu_v2();
//! let flat = Topology::flat();
//! let ring = Topology::ring();
//! // The flat crossbar reproduces the seed charge exactly.
//! assert_eq!(
//!     flat.gather_cost_s(&cfg, 4096, 16),
//!     cfg.cross_replica_cost_s(4096),
//! );
//! // A 16-chip ring gather pays real hop latency and link pressure.
//! assert!(ring.gather_cost_s(&cfg, 4096, 16) > flat.gather_cost_s(&cfg, 4096, 16));
//! // A 4×4 torus splits the collective hierarchically and lands
//! // between the ring and the ideal crossbar.
//! let torus = Topology::torus(4);
//! assert!(torus.gather_cost_s(&cfg, 4096, 16) < ring.gather_cost_s(&cfg, 4096, 16));
//! ```

use crate::config::TpuConfig;
use std::num::NonZeroUsize;

/// The shape of the interconnect fabric. The default is
/// [`Topology::flat`], which prices every collective exactly as
/// [`crate::TpuConfig::cross_replica_cost_s`] — the seed model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// Ideal crossbar: every participant is one hop from every other
    /// and every collective costs a single `α + β·bytes` step — the
    /// seed cost model, byte-for-byte.
    #[default]
    FlatCrossbar,
    /// One bidirectional ring over all participants.
    Ring,
    /// A 2-D torus: ring-shaped pods of `pod` chips each, joined by
    /// an inter-pod ring. Collectives are hierarchical: intra-pod
    /// ring gather, then pod leaders exchange pod aggregates.
    Torus2d {
        /// Chips per pod (the torus row width).
        pod: NonZeroUsize,
    },
}

impl Topology {
    /// The ideal crossbar (the seed cost model).
    pub fn flat() -> Self {
        Topology::FlatCrossbar
    }

    /// A single bidirectional ring over all participants.
    pub fn ring() -> Self {
        Topology::Ring
    }

    /// A 2-D torus of ring-shaped pods, `pod` chips per pod (clamped
    /// to ≥ 1).
    pub fn torus(pod: usize) -> Self {
        Topology::Torus2d {
            pod: NonZeroUsize::new(pod).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// A short label for reports and benchmark IDs.
    pub fn name(&self) -> &'static str {
        match self {
            Topology::FlatCrossbar => "flat",
            Topology::Ring => "ring",
            Topology::Torus2d { .. } => "torus2d",
        }
    }

    /// Cost in seconds of one gather/all-reduce collective in which
    /// each of `participants` chips contributes a `bytes`-sized shard
    /// (the per-shard convention of
    /// [`crate::TpuDevice::charge_collective`]). Fewer than two
    /// participants exchange nothing.
    ///
    /// * Flat crossbar: one parallel-links step, `α + β·bytes`,
    ///   independent of the participant count — bit-for-bit the seed
    ///   [`crate::TpuConfig::cross_replica_cost_s`] charge.
    /// * Ring: the root waits `⌈p/2⌉` hops of latency for the
    ///   farthest shard, and the `p − 1` remote shards drain through
    ///   its two ring links — `max(1, (p−1)/2)` serialised payloads.
    /// * 2-D torus: hierarchical. Each pod ring-gathers its `q`
    ///   local shards, then the `⌈p/q⌉` pod leaders exchange
    ///   pod-aggregated (`q·bytes`) payloads over the inter-pod ring.
    pub fn gather_cost_s(&self, cfg: &TpuConfig, bytes: usize, participants: usize) -> f64 {
        if participants < 2 {
            return 0.0;
        }
        match *self {
            Topology::FlatCrossbar => cfg.cross_replica_cost_s(bytes),
            Topology::Ring => ring_gather_cost_s(cfg, bytes, participants),
            Topology::Torus2d { pod } => {
                let q = pod.get().min(participants);
                let pods = participants.div_ceil(pod.get());
                let intra = ring_gather_cost_s(cfg, bytes, q);
                let inter = ring_gather_cost_s(cfg, q.saturating_mul(bytes), pods);
                intra + inter
            }
        }
    }

    /// Candidate fan-out widths for a pool of `devices` chips: the
    /// prefix sizes a topology-aware planner should weigh against
    /// using the whole pool, ordered narrowest first and always
    /// ending in `devices`. The flat crossbar gains nothing from
    /// shrinking (its gather price ignores the participant count), a
    /// ring halves its gather by halving participants (powers of
    /// two), and a torus grows pod by pod so no flight straddles a
    /// partially-filled pod.
    pub fn fanout_widths(&self, devices: usize) -> Vec<usize> {
        let devices = devices.max(1);
        let mut widths: Vec<usize> = match *self {
            Topology::FlatCrossbar => Vec::new(),
            Topology::Ring => {
                let mut w = 2usize;
                let mut out = Vec::new();
                while w < devices {
                    out.push(w);
                    w *= 2;
                }
                out
            }
            Topology::Torus2d { pod } => (1..)
                .map(|k| k * pod.get())
                .take_while(|&w| w < devices)
                .collect(),
        };
        widths.push(devices);
        widths
    }
}

/// One ring-shaped gather stage: `p` members each contribute `bytes`
/// toward a root. See [`Topology::gather_cost_s`].
fn ring_gather_cost_s(cfg: &TpuConfig, bytes: usize, p: usize) -> f64 {
    if p < 2 {
        return 0.0;
    }
    let hops = p.div_ceil(2) as f64;
    let serialised = ((p - 1) as f64 / 2.0).max(1.0);
    hops * cfg.link_latency_s + serialised * (bytes as f64 / cfg.link_bytes_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TpuConfig {
        TpuConfig::tpu_v2()
    }
    #[test]
    fn flat_gather_is_bit_identical_to_the_seed_charge() {
        let cfg = cfg();
        let flat = Topology::flat();
        for bytes in [0usize, 1, 7, 4096, 65_536, 70_000_000_000] {
            for p in [2usize, 3, 16, 64, 128] {
                assert_eq!(
                    flat.gather_cost_s(&cfg, bytes, p).to_bits(),
                    cfg.cross_replica_cost_s(bytes).to_bits(),
                    "flat gather must reproduce the seed charge exactly ({bytes} B, {p} chips)"
                );
            }
        }
    }

    #[test]
    fn ring_of_two_degenerates_to_flat() {
        let cfg = cfg();
        for bytes in [0usize, 64, 65_536] {
            assert_eq!(
                Topology::ring().gather_cost_s(&cfg, bytes, 2).to_bits(),
                cfg.cross_replica_cost_s(bytes).to_bits(),
            );
        }
    }

    #[test]
    fn gather_cost_grows_with_participants() {
        let cfg = cfg();
        for topo in [Topology::flat(), Topology::ring(), Topology::torus(4)] {
            let mut last = 0.0;
            for p in 2..=64 {
                let cost = topo.gather_cost_s(&cfg, 65_536, p);
                assert!(
                    cost >= last,
                    "{} gather must be monotone in participants (p={p})",
                    topo.name()
                );
                last = cost;
            }
        }
    }

    #[test]
    fn single_participant_gathers_are_free() {
        let cfg = cfg();
        for topo in [Topology::flat(), Topology::ring(), Topology::torus(4)] {
            assert_eq!(topo.gather_cost_s(&cfg, 1 << 20, 0), 0.0);
            assert_eq!(topo.gather_cost_s(&cfg, 1 << 20, 1), 0.0);
        }
    }

    #[test]
    fn torus_gather_is_hierarchical() {
        let cfg = cfg();
        let torus = Topology::torus(4);
        // 16 chips in 4 pods of 4: intra-pod gather over 4, plus
        // leaders exchanging 4× payloads over the pod ring.
        let intra = ring_gather_cost_s(&cfg, 4096, 4);
        let inter = ring_gather_cost_s(&cfg, 4 * 4096, 4);
        assert_eq!(torus.gather_cost_s(&cfg, 4096, 16), intra + inter);
        // A single pod skips the inter-pod stage entirely.
        assert_eq!(
            torus.gather_cost_s(&cfg, 4096, 4),
            ring_gather_cost_s(&cfg, 4096, 4)
        );
    }

    #[test]
    fn default_topology_is_flat_with_no_faults() {
        assert_eq!(Topology::default(), Topology::flat());
    }

    #[test]
    fn fanout_widths_follow_the_fabric() {
        assert_eq!(Topology::flat().fanout_widths(16), vec![16]);
        assert_eq!(Topology::ring().fanout_widths(16), vec![2, 4, 8, 16]);
        assert_eq!(Topology::torus(4).fanout_widths(16), vec![4, 8, 12, 16]);
        // A zero-chip pod is clamped to one chip.
        assert_eq!(Topology::torus(0).fanout_widths(3), vec![1, 2, 3]);
        for topo in [Topology::flat(), Topology::ring(), Topology::torus(4)] {
            assert_eq!(topo.fanout_widths(1), vec![1], "{}", topo.name());
        }
    }
}
