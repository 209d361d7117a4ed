//! Interconnect shootout: the messaging protocols across the keynote's
//! interconnect generations, in simulated 2002-era time — a compact
//! version of experiments F2/T1/F7.
//!
//! Run with: `cargo run --release --example interconnect_shootout`

use polaris_msg::config::Protocol;
use polaris_msg::model::{eager_rendezvous_crossover, p2p_bandwidth, p2p_time, HostParams};
use polaris_simnet::circuit::CircuitSchedulerConfig;
use polaris_simnet::link::Generation;

fn main() {
    let host = HostParams::default();
    let hops = 2; // node - switch - node

    println!("8-byte one-way latency (us) by generation and protocol:\n");
    println!(
        "{:<18} {:>10} {:>10} {:>12}",
        "generation", "sockets", "eager", "rendezvous"
    );
    for g in Generation::ALL {
        let link = g.link_model();
        let t = |p| p2p_time(&link, hops, 8, p, &host).as_us();
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>12.1}",
            g.name(),
            t(Protocol::Sockets),
            t(Protocol::Eager),
            t(Protocol::Rendezvous)
        );
    }

    println!("\n4 MiB effective bandwidth (MB/s):\n");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>10}",
        "generation", "sockets", "eager", "rendezvous", "link"
    );
    for g in Generation::ALL {
        let link = g.link_model();
        let bw = |p| p2p_bandwidth(&link, hops, 4 << 20, p, &host) / 1e6;
        println!(
            "{:<18} {:>10.0} {:>10.0} {:>12.0} {:>10.0}",
            g.name(),
            bw(Protocol::Sockets),
            bw(Protocol::Eager),
            bw(Protocol::Rendezvous),
            link.bandwidth_bps as f64 / 1e6
        );
    }

    println!("\neager/rendezvous crossover size by generation:");
    for g in Generation::ALL {
        let x = eager_rendezvous_crossover(&g.link_model(), hops, &host);
        println!("  {:<18} {:>8} bytes", g.name(), x);
    }

    // Optical circuit switching: when does paying the reconfiguration win?
    let ib = Generation::InfiniBand4x.link_model();
    let crossover = CircuitSchedulerConfig::default().crossover_bytes(&ib, 4);
    println!(
        "\noptical circuit vs InfiniBand packet switching: circuit wins above {} KiB\n",
        crossover / 1024
    );
    println!("interconnect_shootout OK");
}
