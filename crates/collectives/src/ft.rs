//! ULFM-style failure-aware collectives.
//!
//! [`FtComm`] wraps a messaging [`Endpoint`] with the three ingredients
//! fault-tolerant MPI (ULFM) prescribes:
//!
//! * **absorption** — a send to or receive from a dead rank does not
//!   block or panic: the operation is recorded in the attempt's observed
//!   failure set and the collective keeps moving, so every survivor
//!   drains out of a broken round instead of deadlocking;
//! * **agreement** — [`FtComm::agree`] runs a dissemination OR-gossip
//!   over the surviving group (each round also re-polling fabric-level
//!   liveness, the perfect failure detector the virtual fabric provides)
//!   so that all survivors reach the same verdict on whether the attempt
//!   was contaminated;
//! * **shrink** — [`FtComm::shrink`] removes the agreed-dead ranks from
//!   the group and bumps the **epoch**, which salts every subsequent tag
//!   so stale frames from an aborted attempt can never match a retry's
//!   receives.
//!
//! [`ft_allreduce`] and [`ft_bcast`] compose these into retry loops:
//! snapshot the input, attempt the collective over the current group,
//! agree, and on contamination shrink and re-run from the snapshot. The
//! result on survivors is the reduction over the surviving ranks'
//! contributions — exactly what a shrink-and-continue application wants.

use crate::allreduce::{allreduce_with, AllreduceAlgo};
use crate::bcast::{bcast_with, BcastAlgo};
use crate::comm::{Comm, COLL_TAG_BASE};
use crate::op::{Reducible, ReduceOp};
use polaris_msg::prelude::{Endpoint, MatchSpec, MsgError};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Tag namespace for the agreement rounds (salted per epoch like all
/// FtComm traffic, so attempts never cross-talk).
const TAG_AGREE: u64 = COLL_TAG_BASE + 40;

/// Epoch salt position: collective tags live in the low bits, the top
/// bit marks the collective namespace, so bits 40.. are free.
const EPOCH_SHIFT: u64 = 40;

/// Why a fault-tolerant collective could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtError {
    /// This endpoint itself is dead; it cannot participate further.
    Down,
    /// The broadcast root is among the dead.
    RootFailed(u32),
    /// The group kept shrinking until no retry could succeed.
    RetriesExhausted,
}

impl std::fmt::Display for FtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtError::Down => write!(f, "local endpoint is down"),
            FtError::RootFailed(r) => write!(f, "broadcast root rank {r} failed"),
            FtError::RetriesExhausted => write!(f, "retry budget exhausted"),
        }
    }
}

impl std::error::Error for FtError {}

/// What a successful fault-tolerant collective went through.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FtReport {
    /// Epoch the successful attempt ran in (0 = no failures absorbed).
    pub epoch: u32,
    /// World ranks removed by shrinks along the way, in removal order.
    pub removed: Vec<u32>,
}

/// A shrinkable communicator over surviving ranks.
///
/// Implements [`Comm`] so every existing collective algorithm runs over
/// it unchanged; ranks seen by the algorithm are *virtual* (dense
/// positions within the surviving group) and are translated to world
/// ranks at the wire.
pub struct FtComm<'a> {
    ep: &'a mut Endpoint,
    /// Surviving world ranks, sorted; always contains the local rank
    /// while the endpoint is up.
    group: Vec<u32>,
    epoch: u32,
    /// World ranks observed dead during the current attempt.
    observed: BTreeSet<u32>,
    down: bool,
    /// Abort a blocking wait after this long: a correct absorb path
    /// never blocks for long, so a stall is a harness bug worth a loud
    /// panic rather than a silent hang.
    pub stall_timeout: Duration,
    /// Test hook: crash the endpoint after this many comm operations.
    crash_after: Option<u32>,
}

impl<'a> FtComm<'a> {
    pub fn new(ep: &'a mut Endpoint) -> Self {
        let group: Vec<u32> = (0..ep.size()).collect();
        FtComm {
            ep,
            group,
            epoch: 0,
            observed: BTreeSet::new(),
            down: false,
            stall_timeout: Duration::from_secs(30),
            crash_after: None,
        }
    }

    /// Surviving world ranks, sorted.
    pub fn group(&self) -> &[u32] {
        &self.group
    }

    /// Current epoch (bumped by every [`FtComm::shrink`]).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether the local endpoint has failed.
    fn is_down(&self) -> bool {
        self.down
    }

    /// Fault injection for tests: after `ops` more comm operations, the
    /// local endpoint calls [`Endpoint::fail`] mid-collective.
    pub fn crash_after(&mut self, ops: u32) {
        self.crash_after = Some(ops);
    }

    fn salt(&self, tag: u64) -> u64 {
        tag ^ ((self.epoch as u64) << EPOCH_SHIFT)
    }

    fn world(&self, vr: u32) -> u32 {
        self.group[vr as usize]
    }

    /// Service the test crash hook; returns true if the endpoint just
    /// went down.
    fn tick_crash(&mut self) -> bool {
        if let Some(n) = self.crash_after {
            if n == 0 {
                self.crash_after = None;
                self.ep.fail();
                self.down = true;
                return true;
            }
            self.crash_after = Some(n - 1);
        }
        false
    }

    /// Fold fabric-level liveness (the perfect failure detector the
    /// virtual fabric provides) into the observed set.
    fn poll_ground_truth(&mut self) {
        if self.down {
            return;
        }
        self.ep.detect_failures();
        let me = self.ep.rank();
        for i in 0..self.group.len() {
            let g = self.group[i];
            if g != me && !self.ep.peer_alive(g) {
                self.observed.insert(g);
            }
        }
    }

    fn absorb(&mut self, e: MsgError) {
        match e {
            MsgError::PeerFailed(p) => {
                self.observed.insert(p);
            }
            MsgError::EndpointDown => self.down = true,
            other => panic!("unexpected collective transport error: {other:?}"),
        }
    }

    /// Agreement: do all survivors think this attempt was clean?
    ///
    /// Runs ⌈log₂ m⌉ dissemination rounds OR-ing everyone's observed
    /// failure sets, re-polling ground truth between rounds. Returns
    /// true if any failure was observed group-wide.
    pub fn agree(&mut self) -> bool {
        self.poll_ground_truth();
        let m = self.group.len() as u32;
        if m > 1 && !self.down {
            let me_vr = self.rank();
            let world = self.ep.size() as usize;
            let mut step = 1u32;
            let mut round = 0u64;
            while step < m {
                let to = (me_vr + step) % m;
                let from = (me_vr + m - step) % m;
                let payload = encode_set(&self.observed);
                let got = self.sendrecv_bytes(
                    to,
                    &payload,
                    from,
                    TAG_AGREE + round,
                    4 * (world + 1),
                );
                for r in decode_set(&got) {
                    if r != self.ep.rank() {
                        self.observed.insert(r);
                    }
                }
                self.poll_ground_truth();
                step <<= 1;
                round += 1;
            }
        }
        !self.observed.is_empty()
    }

    /// ULFM `MPI_Comm_shrink`: drop the agreed-dead ranks from the
    /// group, enter a fresh epoch, and return the removed world ranks.
    pub fn shrink(&mut self) -> Vec<u32> {
        self.poll_ground_truth();
        let dead: Vec<u32> = self
            .group
            .iter()
            .copied()
            .filter(|g| self.observed.contains(g))
            .collect();
        self.group.retain(|g| !self.observed.contains(g));
        self.epoch += 1;
        self.observed.clear();
        dead
    }
}

fn encode_set(s: &BTreeSet<u32>) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 * (s.len() + 1));
    v.extend_from_slice(&(s.len() as u32).to_le_bytes());
    for r in s {
        v.extend_from_slice(&r.to_le_bytes());
    }
    v
}

fn decode_set(b: &[u8]) -> Vec<u32> {
    if b.len() < 4 {
        return Vec::new();
    }
    let n = u32::from_le_bytes(b[..4].try_into().unwrap()) as usize;
    (0..n)
        .filter_map(|i| {
            let at = 4 + 4 * i;
            b.get(at..at + 4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
        })
        .collect()
}

impl Comm for FtComm<'_> {
    fn rank(&self) -> u32 {
        let me = self.ep.rank();
        self.group
            .iter()
            .position(|&g| g == me)
            .expect("local rank left the group") as u32
    }

    fn size(&self) -> u32 {
        self.group.len() as u32
    }

    fn send_bytes(&mut self, dst: u32, tag: u64, data: &[u8]) {
        if self.tick_crash() {
            return;
        }
        let dst = self.world(dst);
        if self.down || self.observed.contains(&dst) {
            return;
        }
        let buf = match self.ep.copy_in(data) {
            Ok(b) => b,
            Err(e) => return self.absorb(e),
        };
        let req = match self.ep.isend(dst, self.salt(tag), buf) {
            Ok(r) => r,
            Err(e) => return self.absorb(e),
        };
        let deadline = Instant::now() + self.stall_timeout;
        loop {
            match self.ep.test_send(req) {
                Ok(Some(b)) => {
                    self.ep.release(b);
                    return;
                }
                Ok(None) => {}
                Err(e) => return self.absorb(e),
            }
            self.ep.detect_failures();
            assert!(Instant::now() < deadline, "FT send to {dst} stalled");
        }
    }

    fn recv_bytes(&mut self, src: u32, tag: u64, max_len: usize) -> Vec<u8> {
        if self.tick_crash() {
            return vec![0; max_len];
        }
        let src = self.world(src);
        if self.down || self.observed.contains(&src) {
            return vec![0; max_len];
        }
        let buf = match self.ep.alloc(max_len.max(1)) {
            Ok(b) => b,
            Err(e) => {
                self.absorb(e);
                return vec![0; max_len];
            }
        };
        let req = match self.ep.irecv(MatchSpec::exact(src, self.salt(tag)), buf) {
            Ok(r) => r,
            Err(e) => {
                self.absorb(e);
                return vec![0; max_len];
            }
        };
        let deadline = Instant::now() + self.stall_timeout;
        loop {
            match self.ep.test_recv(req) {
                Ok(Some((b, info))) => return self.ep.copy_out(b, info.len),
                Ok(None) => {}
                Err(e) => {
                    self.absorb(e);
                    return vec![0; max_len];
                }
            }
            self.ep.detect_failures();
            assert!(Instant::now() < deadline, "FT recv from {src} stalled");
        }
    }

    fn sendrecv_bytes(
        &mut self,
        dst: u32,
        data: &[u8],
        src: u32,
        tag: u64,
        max_len: usize,
    ) -> Vec<u8> {
        if self.tick_crash() {
            return vec![0; max_len];
        }
        let dst_w = self.world(dst);
        if self.down {
            return vec![0; max_len];
        }
        // Post the send without blocking on it, then drive the receive;
        // each side absorbs its own failures independently.
        let sreq = if self.observed.contains(&dst_w) {
            None
        } else {
            match self
                .ep
                .copy_in(data)
                .and_then(|b| self.ep.isend(dst_w, self.salt(tag), b))
            {
                Ok(r) => Some(r),
                Err(e) => {
                    self.absorb(e);
                    None
                }
            }
        };
        let out = self.recv_bytes(src, tag, max_len);
        if let Some(req) = sreq {
            let deadline = Instant::now() + self.stall_timeout;
            loop {
                match self.ep.test_send(req) {
                    Ok(Some(b)) => {
                        self.ep.release(b);
                        break;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.absorb(e);
                        break;
                    }
                }
                self.ep.detect_failures();
                assert!(Instant::now() < deadline, "FT sendrecv to {dst_w} stalled");
            }
        }
        out
    }
}

/// Allreduce that survives rank failures: attempt over the current
/// group, agree on contamination, shrink and retry from a snapshot of
/// the input. On success every survivor holds the reduction over the
/// surviving ranks' contributions.
pub fn ft_allreduce<T: Reducible>(
    ftc: &mut FtComm,
    algo: AllreduceAlgo,
    op: ReduceOp,
    data: &mut [T],
) -> Result<FtReport, FtError> {
    let snapshot = data.to_vec();
    let mut removed = Vec::new();
    let max_attempts = ftc.ep.size() + 1;
    for _ in 0..max_attempts {
        data.copy_from_slice(&snapshot);
        allreduce_with(ftc, algo, op, data);
        if ftc.is_down() {
            return Err(FtError::Down);
        }
        let contaminated = ftc.agree();
        // The local endpoint can die *during* agreement; that outranks
        // whatever verdict the rounds produced.
        if ftc.is_down() {
            return Err(FtError::Down);
        }
        if !contaminated {
            return Ok(FtReport {
                epoch: ftc.epoch(),
                removed,
            });
        }
        removed.extend(ftc.shrink());
        if ftc.size() <= 1 {
            // Lone survivor: the reduction is its own contribution.
            data.copy_from_slice(&snapshot);
            return Ok(FtReport {
                epoch: ftc.epoch(),
                removed,
            });
        }
    }
    Err(FtError::RetriesExhausted)
}

/// Broadcast that survives non-root rank failures. `root` is a world
/// rank; if it dies the broadcast cannot be saved and
/// [`FtError::RootFailed`] is returned on all survivors.
pub fn ft_bcast(
    ftc: &mut FtComm,
    algo: BcastAlgo,
    root: u32,
    data: &mut [u8],
) -> Result<FtReport, FtError> {
    let is_root = ftc.ep.rank() == root;
    let snapshot = data.to_vec();
    let mut removed = Vec::new();
    let max_attempts = ftc.ep.size() + 1;
    for _ in 0..max_attempts {
        let Some(root_vr) = ftc.group().iter().position(|&g| g == root) else {
            return Err(FtError::RootFailed(root));
        };
        if is_root {
            data.copy_from_slice(&snapshot);
        }
        bcast_with(ftc, algo, root_vr as u32, data);
        if ftc.is_down() {
            return Err(FtError::Down);
        }
        let contaminated = ftc.agree();
        if ftc.is_down() {
            return Err(FtError::Down);
        }
        if !contaminated {
            return Ok(FtReport {
                epoch: ftc.epoch(),
                removed,
            });
        }
        removed.extend(ftc.shrink());
        if removed.contains(&root) {
            return Err(FtError::RootFailed(root));
        }
        if ftc.size() <= 1 {
            if is_root {
                data.copy_from_slice(&snapshot);
            }
            return Ok(FtReport {
                epoch: ftc.epoch(),
                removed,
            });
        }
    }
    Err(FtError::RetriesExhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::run_world;
    use polaris_msg::prelude::MsgConfig;

    /// Outcome each rank reports from an FT collective test.
    type RankOutcome = Result<(Vec<u64>, FtReport), FtError>;

    fn ft_sum_world(
        p: u32,
        n: usize,
        algo: AllreduceAlgo,
        crashes: Vec<(u32, u32)>, // (rank, crash after N ops)
    ) -> Vec<RankOutcome> {
        run_world(p, MsgConfig::default(), move |mut ep| {
            let r = ep.rank() as u64;
            let mut data: Vec<u64> = (0..n as u64).map(|i| r + i * 3).collect();
            let mut ftc = FtComm::new(&mut ep);
            ftc.stall_timeout = Duration::from_secs(10);
            if let Some(&(_, ops)) = crashes.iter().find(|(cr, _)| *cr == ftc.ep.rank()) {
                ftc.crash_after(ops);
            }
            ft_allreduce(&mut ftc, algo, ReduceOp::Sum, &mut data).map(|rep| (data, rep))
        })
    }

    fn expected_sum(survivors: &[u64], n: usize) -> Vec<u64> {
        let rank_sum: u64 = survivors.iter().sum();
        let p = survivors.len() as u64;
        (0..n as u64).map(|i| rank_sum + 3 * i * p).collect()
    }

    #[test]
    fn clean_run_matches_plain_allreduce() {
        for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Ring] {
            let out = ft_sum_world(4, 16, algo, vec![]);
            let expect = expected_sum(&[0, 1, 2, 3], 16);
            for (r, o) in out.iter().enumerate() {
                let (data, rep) = o.as_ref().expect("clean run succeeds");
                assert_eq!(rep.epoch, 0, "no shrink on a clean fabric");
                assert!(rep.removed.is_empty());
                assert_eq!(data, &expect, "rank {r} under {algo:?}");
            }
        }
    }

    #[test]
    fn allreduce_survives_crash_before_collective() {
        let out = ft_sum_world(4, 8, AllreduceAlgo::RecursiveDoubling, vec![(2, 0)]);
        let expect = expected_sum(&[0, 1, 3], 8);
        for (r, o) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(o, &Err(FtError::Down));
            } else {
                let (data, rep) = o.as_ref().expect("survivor succeeds");
                assert_eq!(rep.removed, vec![2]);
                assert!(rep.epoch >= 1);
                assert_eq!(data, &expect, "survivor rank {r}");
            }
        }
    }

    #[test]
    fn allreduce_survives_crash_mid_collective() {
        for algo in [AllreduceAlgo::Ring, AllreduceAlgo::RecursiveDoubling] {
            let out = ft_sum_world(5, 12, algo, vec![(1, 3)]);
            let expect = expected_sum(&[0, 2, 3, 4], 12);
            for (r, o) in out.iter().enumerate() {
                if r == 1 {
                    assert_eq!(o, &Err(FtError::Down), "{algo:?}");
                } else {
                    let (data, rep) = o.as_ref().expect("survivor succeeds");
                    assert_eq!(rep.removed, vec![1], "{algo:?}");
                    assert_eq!(data, &expect, "survivor rank {r} under {algo:?}");
                }
            }
        }
    }

    #[test]
    fn allreduce_survives_two_crashes() {
        let out = ft_sum_world(6, 10, AllreduceAlgo::Ring, vec![(1, 2), (4, 5)]);
        let expect = expected_sum(&[0, 2, 3, 5], 10);
        for (r, o) in out.iter().enumerate() {
            if r == 1 || r == 4 {
                assert_eq!(o, &Err(FtError::Down));
            } else {
                let (data, rep) = o.as_ref().expect("survivor succeeds");
                let mut removed = rep.removed.clone();
                removed.sort_unstable();
                assert_eq!(removed, vec![1, 4]);
                assert_eq!(data, &expect, "survivor rank {r}");
            }
        }
    }

    #[test]
    fn shrink_to_lone_survivor() {
        let out = ft_sum_world(2, 4, AllreduceAlgo::RecursiveDoubling, vec![(0, 1)]);
        let expect = expected_sum(&[1], 4);
        assert_eq!(out[0], Err(FtError::Down));
        let (data, rep) = out[1].as_ref().expect("lone survivor succeeds");
        assert_eq!(rep.removed, vec![0]);
        assert_eq!(data, &expect);
    }

    #[test]
    fn bcast_survives_non_root_crash() {
        let out = run_world(4, MsgConfig::default(), move |mut ep| {
            let rank = ep.rank();
            let mut data = if rank == 0 {
                b"chaos-proof payload".to_vec()
            } else {
                vec![0u8; 19]
            };
            let mut ftc = FtComm::new(&mut ep);
            ftc.stall_timeout = Duration::from_secs(10);
            if rank == 3 {
                ftc.crash_after(1);
            }
            ft_bcast(&mut ftc, BcastAlgo::Binomial, 0, &mut data).map(|rep| (data, rep))
        });
        for (r, o) in out.iter().enumerate() {
            if r == 3 {
                assert_eq!(o, &Err(FtError::Down));
            } else {
                let (data, rep) = o.as_ref().expect("survivor succeeds");
                assert_eq!(rep.removed, vec![3]);
                assert_eq!(&data[..], b"chaos-proof payload", "rank {r}");
            }
        }
    }

    #[test]
    fn bcast_reports_root_failure() {
        let out = run_world(3, MsgConfig::default(), move |mut ep| {
            let rank = ep.rank();
            let mut data = if rank == 0 { vec![7u8; 8] } else { vec![0u8; 8] };
            let mut ftc = FtComm::new(&mut ep);
            ftc.stall_timeout = Duration::from_secs(10);
            if rank == 0 {
                ftc.crash_after(0);
            }
            ft_bcast(&mut ftc, BcastAlgo::Binomial, 0, &mut data).err()
        });
        assert_eq!(out[0], Some(FtError::Down));
        for o in &out[1..] {
            assert_eq!(o, &Some(FtError::RootFailed(0)));
        }
    }

    #[test]
    fn agreement_set_encoding_roundtrips() {
        let s: BTreeSet<u32> = [3, 17, 999].into_iter().collect();
        assert_eq!(decode_set(&encode_set(&s)), vec![3, 17, 999]);
        assert!(decode_set(&encode_set(&BTreeSet::new())).is_empty());
        // Absorbed (all-zero) agreement payloads decode as empty.
        assert!(decode_set(&[0u8; 16]).is_empty());
    }
}
