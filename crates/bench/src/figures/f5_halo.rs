//! F5 — application proxy: 2-D Jacobi halo exchange, weak scaling, by
//! protocol. Runs the *executable* stack (real threads, real data
//! movement) with the sockets model's overheads enabled so the
//! wall-clock comparison reflects the 2002 cost structure.

use crate::table::Table;
use polaris::prelude::*;
use std::time::Duration;

/// Per-rank block edge: each rank owns block × block cells (weak scaling).
const BLOCK: usize = 64;
const ITERS: u32 = 40;

/// Wall seconds of one run, and the bytes the ranks' endpoints copied on
/// the host (the copies zero-copy messaging exists to remove).
fn run_once(ranks: u32, cfg: MsgConfig) -> (f64, u64) {
    // Weak scaling with square process grids (1, 4, 9, 16 ranks): each
    // rank always owns exactly BLOCK x BLOCK cells.
    let (px, py) = process_grid(ranks);
    assert_eq!(px, py, "F5 uses square rank counts");
    let jacobi = JacobiConfig {
        n: BLOCK * px as usize,
        iters: ITERS,
    };
    let t0 = std::time::Instant::now();
    let (out, _) = Cluster::builder()
        .nodes(ranks)
        .messaging(cfg)
        .run(move |mut ctx| {
            let (_, res) = run_parallel(&mut ctx, jacobi);
            (res, ctx.endpoint().stats().host_copy_bytes)
        });
    let dt = t0.elapsed().as_secs_f64();
    assert!(out.iter().all(|(r, _)| r.is_finite()));
    (dt, out.iter().map(|&(_, copied)| copied).sum())
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F5",
        "Jacobi halo exchange, weak scaling: wall time (ms) by protocol",
        &["ranks", "sockets-2002", "zero-copy", "speedup"],
    );
    let mut sockets_cfg = MsgConfig::with_protocol(Protocol::Sockets);
    // The calibrated busy-waits that stand in for 2002 kernel overheads.
    sockets_cfg.syscall_overhead = Duration::from_micros(5);
    sockets_cfg.interrupt_overhead = Duration::from_micros(15);
    let zc_cfg = MsgConfig::default(); // auto eager/rendezvous

    for ranks in [1u32, 4, 9, 16] {
        let (t_sock, _) = run_once(ranks, sockets_cfg);
        let (t_zc, _) = run_once(ranks, zc_cfg);
        t.row(vec![
            ranks.to_string(),
            format!("{:.1}", t_sock * 1e3),
            format!("{:.1}", t_zc * 1e3),
            format!("{:.2}x", t_sock / t_zc),
        ]);
    }
    t.note(format!(
        "weak scaling: {BLOCK}x{BLOCK} cells per rank, {ITERS} iterations, executable stack"
    ));
    t.note("expected: zero-copy advantage grows with ranks (more halo messages/iter)");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_beats_sockets_model() {
        // One representative point to keep test time modest.
        let mut sockets_cfg = MsgConfig::with_protocol(Protocol::Sockets);
        sockets_cfg.syscall_overhead = Duration::from_micros(5);
        sockets_cfg.interrupt_overhead = Duration::from_micros(15);
        // Host bytes copied, not wall time: in this unoptimized build the
        // stencil arithmetic is most of either side's wall (67 ms
        // against 77 on a quiet box), and sibling tests oversubscribing
        // the cores turn that margin into a measurement of the thread
        // scheduler (the fastest of ten runs per side still lost four
        // suite runs in ten). What each protocol makes the host copy
        // does not depend on load.
        let (_, copied_sock) = run_once(4, sockets_cfg);
        let (_, copied_zc) = run_once(4, MsgConfig::default());
        assert!(
            copied_zc < copied_sock,
            "zero-copy copied {copied_zc} B on the host, sockets {copied_sock} B"
        );
    }
}
