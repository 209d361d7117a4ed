//! A rank's place in its schedule, shared by both schedule executors
//! ([`crate::simx`] and [`crate::parsim`]).
//!
//! Neither executor holds a rank's ops. Each holds the stream they come
//! from and the op the rank stands on, and pulls the next op only when
//! the rank has done this one. So a rank's schedule state is O(1) however
//! long its schedule is: a 1024-rank ring allreduce is 5115 ops a rank,
//! 84 MB across the machine if collected.

use crate::simx::SchedOp;

/// An op stream that can say how many ops it has yielded.
pub(crate) trait OpSource: Iterator<Item = SchedOp> {
    fn yielded(&self) -> usize;
}

/// A stream and the op a rank stands on in it.
#[derive(Debug)]
pub(crate) struct Cursor<S> {
    stream: S,
    /// `None` once the stream is spent.
    op: Option<SchedOp>,
}

impl<S: OpSource> Cursor<S> {
    pub(crate) fn new(mut stream: S) -> Self {
        Cursor { op: stream.next(), stream }
    }

    /// The op the rank stands on; `None` once it has done them all.
    #[inline]
    pub(crate) fn op(&self) -> Option<SchedOp> {
        self.op
    }

    /// Step past the op the rank stands on.
    #[inline]
    pub(crate) fn advance(&mut self) {
        self.op = self.stream.next();
    }

    /// Index of the op the rank stands on: where a deadlocked rank is
    /// stuck.
    pub(crate) fn index(&self) -> usize {
        self.stream.yielded() - usize::from(self.op.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    #[test]
    fn index_is_the_op_the_cursor_stands_on() {
        let ops = vec![SchedOp::Work { ps: 1 }, SchedOp::Recv { from: 2 }];
        let mut at = Cursor::new(Program::from(ops).into_ops());
        assert_eq!((at.op(), at.index()), (Some(SchedOp::Work { ps: 1 }), 0));
        at.advance();
        assert_eq!((at.op(), at.index()), (Some(SchedOp::Recv { from: 2 }), 1));
        at.advance();
        assert_eq!((at.op(), at.index()), (None, 2));
        let empty = Cursor::new(Program::default().into_ops());
        assert_eq!((empty.op(), empty.index()), (None, 0));
    }
}
