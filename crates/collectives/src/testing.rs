//! The thread-per-rank world launcher: run one closure per rank on real
//! threads over a shared fabric. This crate's tests call [`run_world`];
//! `polaris::runtime::Cluster` runs on [`run_world_with_stats`], and
//! downstream integration tests use either.

use polaris_msg::prelude::{Endpoint, MsgConfig};
use polaris_nic::prelude::{Fabric, FabricStats};
use std::sync::Arc;

/// Spawn `n` rank threads, each running `f(endpoint)`, and collect the
/// per-rank results in rank order. A rank's panic propagates with its
/// own payload, so `should_panic(expected = ..)` sees the real message.
pub fn run_world<T, F>(n: u32, cfg: MsgConfig, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(Endpoint) -> T + Send + Sync + 'static,
{
    run_world_with_stats(n, cfg, f).0
}

/// [`run_world`], also returning the fabric's data-movement statistics
/// once every rank has finished.
pub fn run_world_with_stats<T, F>(n: u32, cfg: MsgConfig, f: F) -> (Vec<T>, FabricStats)
where
    T: Send + 'static,
    F: Fn(Endpoint) -> T + Send + Sync + 'static,
{
    let fabric = Fabric::new();
    let eps = Endpoint::create_world(&fabric, n, cfg).expect("world bootstrap");
    let f = Arc::new(f);
    let handles: Vec<_> = eps
        .into_iter()
        .map(|ep| {
            let f = Arc::clone(&f);
            std::thread::Builder::new()
                .name(format!("rank{}", ep.rank()))
                .spawn(move || f(ep))
                .expect("spawn rank thread")
        })
        .collect();
    let results = handles
        .into_iter()
        .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
        .collect();
    (results, fabric.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use polaris_msg::prelude::MsgConfig;

    #[test]
    fn harness_runs_all_ranks() {
        let out = run_world(4, MsgConfig::default(), |ep| ep.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn harness_supports_messaging() {
        let out = run_world(3, MsgConfig::default(), |mut ep| {
            let next = (ep.rank() + 1) % 3;
            let prev = (ep.rank() + 2) % 3;
            let me = [ep.rank() as u8];
            let got = ep.sendrecv_bytes(next, &me, prev, 42, 1);
            got[0] as u32
        });
        assert_eq!(out, vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "rank 2 gave up")]
    fn a_rank_panic_keeps_its_message() {
        run_world(3, MsgConfig::default(), |ep| {
            if ep.rank() == 2 {
                panic!("rank 2 gave up");
            }
        });
    }
}
