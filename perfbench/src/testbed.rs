//! Inputs shared by the workloads: seeded file contents and seeded
//! fabric jitter.

use ib_verbs::{Fabric, FaultConfig, NodeId, WireMsg};
use sim_core::{Sim, SimDuration};

/// Largest extra delivery delay of one fabric message. The closed-loop
/// workloads are otherwise identical for every seed; a sub-microsecond
/// seeded jitter on every link makes each seed a different sample of
/// the testbed, as runs on real hardware are. It never drops a message.
pub const LINK_JITTER: SimDuration = SimDuration::from_nanos(500);

/// Arm seeded delivery jitter on fabric nodes `0..nodes`.
pub fn jitter_links(sim: &Sim, fabric: &Fabric<WireMsg>, nodes: u32) {
    fabric.enable_faults(sim.fork_rng());
    for n in 0..nodes {
        fabric.set_link_faults(
            NodeId(n),
            FaultConfig {
                delay_jitter: LINK_JITTER,
                ..FaultConfig::default()
            },
        );
    }
}

/// Pattern-stream seed of file `i`'s contents under benchmark seed
/// `seed` (never the all-zeros stream).
pub fn content_seed(seed: u64, i: u64) -> u64 {
    (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9)) | 1
}
