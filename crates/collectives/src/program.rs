//! Per-rank programs for the sharded executor: explicit ops with
//! collective schedules spliced between them.
//!
//! A workload compiler builds one [`Program`] per rank. The ops it
//! writes itself (compute phases, halo sends and receives) are kept as
//! [`SchedOp`]s, 16 B each. A collective it splices in is kept as the
//! arguments of [`ops`] (collective, the rank's place in it, the
//! communicator size, the payload) plus an affine [`RankMap`] from the
//! communicator's ranks to the machine's. [`Program::ops`] expands each
//! splice through [`ops`] only when the walk reaches it. So a program
//! holds its own ops and one record per splice, never a schedule:
//! spliced in as ops, the 128-rank shuffle's pairwise all-to-all would
//! hold 2.2 MB.

use crate::cursor::OpSource;
use crate::simx::{ops, Collective, OpStream, SchedOp};
use std::borrow::Borrow;

/// `base + stride * r`: where rank `r` of a spliced communicator sits
/// in the machine. A group-local communicator of group `g` is
/// `{ base: g * gs, stride: 1 }`; the group leaders are
/// `{ base: 0, stride: gs }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankMap {
    pub base: u32,
    pub stride: u32,
}

impl RankMap {
    /// The communicator is the machine.
    pub const IDENTITY: RankMap = RankMap { base: 0, stride: 1 };

    #[inline]
    fn op(self, op: SchedOp) -> SchedOp {
        let global = |r: u32| self.base + self.stride * r;
        match op {
            SchedOp::Send { to, bytes } => SchedOp::Send { to: global(to), bytes },
            SchedOp::Recv { from } => SchedOp::Recv { from: global(from) },
            local => local,
        }
    }
}

/// One collective schedule spliced into a program.
#[derive(Debug, Clone, Copy)]
struct Splice {
    /// Runs before `ops[at]`; splices with the same `at` run in the
    /// order they were spliced.
    at: u32,
    coll: Collective,
    rank: u32,
    p: u32,
    bytes: u64,
    map: RankMap,
}

/// One rank's program; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Program {
    ops: Vec<SchedOp>,
    /// In program order.
    splices: Vec<Splice>,
}

impl From<Vec<SchedOp>> for Program {
    fn from(ops: Vec<SchedOp>) -> Self {
        Program { ops, splices: Vec::new() }
    }
}

impl Program {
    pub fn push(&mut self, op: SchedOp) {
        self.ops.push(op);
    }

    /// Append rank `rank`'s schedule of `coll` over a `p`-rank
    /// communicator, `bytes` as [`ops`] takes them, with every peer
    /// placed by `map`.
    pub fn splice(&mut self, coll: Collective, rank: u32, p: u32, bytes: u64, map: RankMap) {
        let at = u32::try_from(self.ops.len()).expect("a program has fewer than 2^32 ops");
        self.splices.push(Splice { at, coll, rank, p, bytes, map });
    }

    /// The program's ops in order, each splice expanded as it is reached.
    pub fn ops(&self) -> ProgramOps<&Program> {
        ProgramOps::new(self)
    }

    /// [`Program::ops`], owning the program.
    pub(crate) fn into_ops(self) -> ProgramOps<Program> {
        ProgramOps::new(self)
    }
}

/// A program's op stream: O(1) state beside the program it walks.
#[derive(Debug)]
pub struct ProgramOps<P> {
    program: P,
    /// Index of the next explicit op.
    next_op: usize,
    /// Index of the next splice.
    next_splice: usize,
    /// The splice being expanded and where it places its peers.
    splice: Option<(OpStream, RankMap)>,
    yielded: usize,
}

impl<P> ProgramOps<P> {
    fn new(program: P) -> Self {
        ProgramOps { program, next_op: 0, next_splice: 0, splice: None, yielded: 0 }
    }
}

impl From<OpStream> for ProgramOps<Program> {
    /// One collective schedule as a program: the stream itself, spliced
    /// into an empty program.
    fn from(stream: OpStream) -> Self {
        ProgramOps {
            splice: Some((stream, RankMap::IDENTITY)),
            ..ProgramOps::new(Program::default())
        }
    }
}

impl<P: Borrow<Program>> Iterator for ProgramOps<P> {
    type Item = SchedOp;

    #[inline]
    fn next(&mut self) -> Option<SchedOp> {
        loop {
            if let Some((stream, map)) = &mut self.splice {
                if let Some(op) = stream.next() {
                    self.yielded += 1;
                    return Some(map.op(op));
                }
                self.splice = None;
            }
            let program = self.program.borrow();
            match program.splices.get(self.next_splice) {
                Some(s) if s.at as usize == self.next_op => {
                    self.splice = Some((ops(s.coll, s.rank, s.p, s.bytes), s.map));
                    self.next_splice += 1;
                }
                _ => {
                    let op = *program.ops.get(self.next_op)?;
                    self.next_op += 1;
                    self.yielded += 1;
                    return Some(op);
                }
            }
        }
    }
}

impl<P: Borrow<Program>> OpSource for ProgramOps<P> {
    fn yielded(&self) -> usize {
        self.yielded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::AllreduceAlgo;
    use crate::simx::schedule;

    #[test]
    fn splices_expand_in_place_with_their_rank_map() {
        let coll = Collective::Allreduce(AllreduceAlgo::RecursiveDoubling);
        let leaders = RankMap { base: 0, stride: 4 };
        let mut program = Program::from(vec![SchedOp::Work { ps: 7 }]);
        program.splice(coll, 1, 4, 64, leaders);
        program.splice(Collective::AlltoallPairwise, 1, 4, 8, RankMap::IDENTITY);
        program.push(SchedOp::Work { ps: 9 });

        let mut want = vec![SchedOp::Work { ps: 7 }];
        want.extend(schedule(coll, 1, 4, 64).into_iter().map(|op| leaders.op(op)));
        want.extend(schedule(Collective::AlltoallPairwise, 1, 4, 8));
        want.push(SchedOp::Work { ps: 9 });
        assert_eq!(program.ops().collect::<Vec<_>>(), want);
        assert_eq!(program.into_ops().count(), want.len());
        assert_eq!(leaders.op(SchedOp::Recv { from: 3 }), SchedOp::Recv { from: 12 });
    }

    #[test]
    fn a_stream_is_a_one_splice_program() {
        let coll = Collective::Allreduce(AllreduceAlgo::Ring);
        let streamed: Vec<_> = ProgramOps::from(ops(coll, 2, 5, 1000)).collect();
        assert_eq!(streamed, schedule(coll, 2, 5, 1000));
    }
}
