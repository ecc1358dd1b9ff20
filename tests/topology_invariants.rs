//! Property pins for the interconnect-topology cost model: the
//! invariants every fabric must satisfy for the pool's shard/don't-
//! shard oracle to stay sound, and the bit-for-bit identity that
//! keeps the default flat crossbar indistinguishable from the seed
//! `cross_replica_cost_s` charge.

use proptest::prelude::*;
use tpu_xai::tpu::{Topology, TpuConfig};

fn fabrics() -> Vec<Topology> {
    vec![
        Topology::flat(),
        Topology::ring(),
        Topology::torus(2),
        Topology::torus(4),
        Topology::torus(8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat crossbar reproduces the seed charge exactly — same
    /// bits, not merely the same value — for every payload size and
    /// participant count, so every simulated metric priced through
    /// the default topology is unchanged from the seed model.
    #[test]
    fn flat_crossbar_is_bit_identical_to_cross_replica_cost(
        bytes in 0usize..1 << 40,
        participants in 2usize..256,
    ) {
        let cfg = TpuConfig::tpu_v2();
        let flat = Topology::flat();
        prop_assert_eq!(
            flat.gather_cost_s(&cfg, bytes, participants).to_bits(),
            cfg.cross_replica_cost_s(bytes).to_bits()
        );
    }

    /// Gathers never get cheaper as chips join the collective.
    #[test]
    fn gathers_are_monotone_in_participants(
        participants in 2usize..65,
        bytes in 0usize..1 << 30,
    ) {
        let cfg = TpuConfig::tpu_v2();
        for topo in fabrics() {
            prop_assert!(
                topo.gather_cost_s(&cfg, bytes, participants)
                    <= topo.gather_cost_s(&cfg, bytes, participants + 1),
                "{} gather must be monotone in participants",
                topo.name()
            );
            // No fabric undercuts the ideal crossbar.
            prop_assert!(
                topo.gather_cost_s(&cfg, bytes, participants)
                    >= Topology::flat().gather_cost_s(&cfg, bytes, participants),
                "{} cannot beat the ideal crossbar",
                topo.name()
            );
        }
    }
}
