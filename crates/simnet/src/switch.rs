//! Crossbar facade over [`packetnet`](crate::packetnet), kept only
//! because the frozen `examples/benchmark/src/probes.rs` imports it
//! (`simnet.switch.packet_ns`). A crossbar is one more topology to the
//! routed packet model; new code calls `simulate_packets` directly.

use crate::error::SimError;
use crate::link::LinkModel;
pub use crate::packetnet::Injection;
use crate::packetnet::{simulate_packets, Completion};
use crate::topology::{Topology, TopologyKind};

/// `simulate_packets` on a `ports`-host crossbar, with out-of-range
/// ports refused as a typed error.
pub fn simulate_crossbar(
    ports: u32,
    model: LinkModel,
    injections: &[Injection],
) -> Result<Vec<Completion>, SimError> {
    for inj in injections {
        if inj.src >= ports || inj.dst >= ports {
            return Err(SimError::PortOutOfRange {
                port: inj.src.max(inj.dst),
                ports,
            });
        }
    }
    let topo = Topology::new(TopologyKind::Crossbar { hosts: ports });
    Ok(simulate_packets(topo, model, injections))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Generation;
    use crate::time::SimTime;

    #[test]
    fn out_of_range_port_is_a_typed_error_not_a_panic() {
        let err = simulate_crossbar(
            2,
            Generation::GigabitEthernet.link_model(),
            &[Injection {
                at: SimTime::ZERO,
                src: 0,
                dst: 5,
                bytes: 64,
            }],
        )
        .unwrap_err();
        assert_eq!(err, SimError::PortOutOfRange { port: 5, ports: 2 });
        assert!(err.to_string().contains("out of range"));
    }
}
