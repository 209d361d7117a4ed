//! F5 — application proxy: 2-D Jacobi halo exchange, weak scaling, by
//! protocol. Runs the *executable* stack (real threads, real data
//! movement) and reports each run's virtual time: every endpoint's
//! clock, which `msg::model` charges the 2002 cost of each send and
//! each observed completion, in program order.

use crate::table::Table;
use polaris::prelude::*;

/// Per-rank block edge: each rank owns block × block cells (weak scaling).
const BLOCK: usize = 64;
const ITERS: u32 = 40;

/// Virtual seconds of one run (the largest rank clock at the end), and
/// the bytes the ranks' endpoints copied on the host (the copies
/// zero-copy messaging exists to remove).
fn run_once(ranks: u32, cfg: MsgConfig) -> (f64, u64) {
    // Weak scaling with square process grids (1, 4, 9, 16 ranks): each
    // rank always owns exactly BLOCK x BLOCK cells.
    let (px, py) = process_grid(ranks);
    assert_eq!(px, py, "F5 uses square rank counts");
    let jacobi = JacobiConfig {
        n: BLOCK * px as usize,
        iters: ITERS,
    };
    let (out, _) = Cluster::builder()
        .nodes(ranks)
        .messaging(cfg)
        .run(move |mut ctx| {
            let (_, res) = run_parallel(&mut ctx, jacobi);
            let ep = ctx.endpoint();
            (res, ep.stats().host_copy_bytes, ep.clock())
        });
    assert!(out.iter().all(|(r, _, _)| r.is_finite()));
    let clock = out
        .iter()
        .map(|&(_, _, clock)| clock)
        .max()
        .unwrap_or_default();
    (
        clock.as_secs(),
        out.iter().map(|&(_, copied, _)| copied).sum(),
    )
}

pub fn generate() -> Vec<Table> {
    let mut t = Table::new(
        "F5",
        "Jacobi halo exchange, weak scaling: virtual time (ms) by protocol",
        &["ranks", "sockets-2002", "zero-copy", "speedup"],
    );
    let sockets_cfg = MsgConfig::with_protocol(Protocol::Sockets);
    let zc_cfg = MsgConfig::default(); // auto eager/rendezvous

    for ranks in [1u32, 4, 9, 16] {
        let (t_sock, _) = run_once(ranks, sockets_cfg);
        let (t_zc, _) = run_once(ranks, zc_cfg);
        // One rank sends nothing, so both columns read zero.
        let speedup = if t_zc > 0.0 {
            format!("{:.2}x", t_sock / t_zc)
        } else {
            "-".to_string()
        };
        t.row(vec![
            ranks.to_string(),
            format!("{:.3}", t_sock * 1e3),
            format!("{:.3}", t_zc * 1e3),
            speedup,
        ]);
    }
    t.note(format!(
        "weak scaling: {BLOCK}x{BLOCK} cells per rank, {ITERS} iterations, then the residual \
         allreduce and the gather to rank 0; executable stack on its virtual clock \
         (2002 messaging costs on one GigE hop; compute is not charged)"
    ));
    t.note(
        "zero-copy wins at every rank count, by less as ranks grow: the closing gather \
         hands rank 0 one 32 KiB block per rank, and on a block that size the wire time \
         rendezvous pays is about two thirds of what sockets pays",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_copy_beats_sockets_model() {
        // One representative point to keep test time modest.
        let (t_sock, copied_sock) = run_once(4, MsgConfig::with_protocol(Protocol::Sockets));
        let (t_zc, copied_zc) = run_once(4, MsgConfig::default());
        assert!(
            copied_zc < copied_sock,
            "zero-copy copied {copied_zc} B on the host, sockets {copied_sock} B"
        );
        assert!(
            0.0 < t_zc && t_zc < t_sock,
            "zero-copy took {t_zc} virtual s, sockets {t_sock}"
        );
    }
}
