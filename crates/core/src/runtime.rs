//! The SPMD cluster runtime: spawn N node threads over one fabric and
//! hand each a connected [`NodeCtx`]. The threads come from
//! `polaris_collectives::testing::run_world_with_stats`, the one
//! thread-per-rank launcher in the workspace.
//!
//! This is the "supporting software" glue of the keynote's definition of
//! a commodity cluster: it performs the out-of-band bootstrap (QP
//! exchange, eager buffer pre-posting) and gives application code a
//! rank/size view with point-to-point messaging and tuned collectives.

use polaris_collectives::comm::Comm;
use polaris_collectives::op::{Reducible, ReduceOp};
use polaris_collectives::testing::run_world_with_stats;
use polaris_collectives::tuning;
use polaris_msg::prelude::{Endpoint, MsgBuf, MsgConfig, MsgResult, RecvInfo};
use polaris_nic::prelude::FabricStats;

/// Per-rank context handed to the SPMD closure.
pub struct NodeCtx {
    ep: Endpoint,
}

impl NodeCtx {
    pub fn rank(&self) -> u32 {
        self.ep.rank()
    }

    pub fn size(&self) -> u32 {
        self.ep.size()
    }

    /// Direct access to the messaging endpoint (zero-copy API).
    pub fn endpoint(&mut self) -> &mut Endpoint {
        &mut self.ep
    }

    /// Blocking tagged send of a byte slice (copies once into a
    /// registered buffer; use [`NodeCtx::endpoint`] for zero-copy).
    pub fn send(&mut self, dst: u32, tag: u64, data: &[u8]) -> MsgResult<()> {
        self.ep.send_slice(dst, tag, data)
    }

    /// Blocking tagged receive from `src` of at most `max_len` bytes.
    pub fn recv(&mut self, src: u32, tag: u64, max_len: usize) -> MsgResult<(Vec<u8>, RecvInfo)> {
        self.ep
            .recv_vec(polaris_msg::prelude::MatchSpec::exact(src, tag), max_len)
    }

    /// Allocate a registered buffer for zero-copy transfers.
    pub fn alloc(&mut self, len: usize) -> MsgResult<MsgBuf> {
        self.ep.alloc(len)
    }

    /// Simultaneous send and receive (deadlock-free exchange).
    pub fn sendrecv(
        &mut self,
        dst: u32,
        data: &[u8],
        src: u32,
        tag: u64,
        max_len: usize,
    ) -> Vec<u8> {
        self.ep.sendrecv_bytes(dst, data, src, tag, max_len)
    }

    /// Tuned barrier.
    pub fn barrier(&mut self) {
        tuning::barrier(&mut self.ep);
    }

    /// Tuned broadcast (same-length buffer on every rank).
    pub fn bcast(&mut self, root: u32, data: &mut [u8]) {
        tuning::bcast(&mut self.ep, root, data);
    }

    /// Tuned allreduce.
    pub fn allreduce<T: Reducible>(&mut self, op: ReduceOp, data: &mut [T]) {
        tuning::allreduce(&mut self.ep, op, data);
    }

    /// Tuned allgather of equal-size blocks.
    pub fn allgather(&mut self, mine: &[u8], out: &mut [u8]) {
        tuning::allgather(&mut self.ep, mine, out);
    }

    /// Gather equal-size blocks to `root` (linear algorithm).
    pub fn gather(&mut self, root: u32, mine: &[u8], out: &mut [u8]) {
        polaris_collectives::gather::gather_linear(&mut self.ep, root, mine, out);
    }

    /// Reduce to `root`.
    pub fn reduce<T: Reducible>(&mut self, root: u32, op: ReduceOp, data: &mut [T]) {
        polaris_collectives::reduce::reduce_binomial(&mut self.ep, root, op, data);
    }
}

/// Builder for an in-process cluster.
pub struct ClusterBuilder {
    nodes: u32,
    cfg: MsgConfig,
}

impl ClusterBuilder {
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n;
        self
    }

    pub fn messaging(mut self, cfg: MsgConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Launch the cluster and run `f` on every rank; returns per-rank
    /// results in rank order together with fabric statistics.
    pub fn run<T, F>(self, f: F) -> (Vec<T>, FabricStats)
    where
        T: Send + 'static,
        F: Fn(NodeCtx) -> T + Send + Sync + 'static,
    {
        run_world_with_stats(self.nodes, self.cfg, move |ep| f(NodeCtx { ep }))
    }
}

/// Entry point: `Cluster::builder().nodes(8).run(|ctx| ...)`.
pub struct Cluster;

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder {
            nodes: 2,
            cfg: MsgConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmd_hello() {
        let (out, stats) = Cluster::builder().nodes(4).run(|ctx| ctx.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6]);
        // Bootstrap registered eager buffers on every NIC.
        assert!(stats.registrations > 0);
    }

    #[test]
    fn point_to_point_and_collectives_compose() {
        let (out, _) = Cluster::builder().nodes(3).run(|mut ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let got = ctx.sendrecv(next, &[ctx.rank() as u8], prev, 5, 1);
            ctx.barrier();
            let mut sum = vec![got[0] as u64];
            ctx.allreduce(ReduceOp::Sum, &mut sum);
            sum[0]
        });
        // Each rank received prev's id; sum over ranks = 0+1+2.
        assert_eq!(out, vec![3, 3, 3]);
    }

    #[test]
    fn bcast_and_gather_roundtrip() {
        let (out, _) = Cluster::builder().nodes(4).run(|mut ctx| {
            let mut data = vec![0u8; 8];
            if ctx.rank() == 2 {
                data.copy_from_slice(b"polaris!");
            }
            ctx.bcast(2, &mut data);
            let mine = [ctx.rank() as u8];
            let mut all = vec![0u8; 4];
            ctx.gather(0, &mine, &mut all);
            (data, all)
        });
        for (r, (d, all)) in out.into_iter().enumerate() {
            assert_eq!(&d, b"polaris!");
            if r == 0 {
                assert_eq!(all, vec![0, 1, 2, 3]);
            }
        }
    }

    #[test]
    fn custom_messaging_config_is_honoured() {
        use polaris_msg::prelude::Protocol;
        let cfg = MsgConfig::with_protocol(Protocol::Rendezvous);
        let (out, stats) = Cluster::builder().nodes(2).messaging(cfg).run(|mut ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, &[9u8; 100_000]).unwrap();
                0
            } else {
                let (v, _) = ctx.recv(0, 1, 100_000).unwrap();
                v.len()
            }
        });
        assert_eq!(out[1], 100_000);
        // The payload crossed as a single rendezvous DMA.
        assert!(stats.dma_bytes >= 100_000);
    }
}
