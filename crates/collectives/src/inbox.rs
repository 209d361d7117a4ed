//! The messages one rank has been sent and not yet received, shared by
//! both schedule executors ([`crate::simx`] and [`crate::parsim`]).
//!
//! One queue per rank, in the order the messages were pushed, tagged
//! with their sender. A `Recv { from }` takes the first entry from
//! `from`, so each sender's messages are received in the order it sent
//! them, whatever other senders' messages sit before them. Schedules
//! receive in nearly the order their messages come in: over all eleven
//! collectives at 1024 ranks every receive matches the head, and the
//! compiled workloads scan at most 1.5 entries on average. So the scan
//! costs less than the hash and probe of one queue per sender pair, and
//! the memory follows the messages in flight, not the pairs that ever
//! spoke (a pairwise alltoall touches all p² of them).

use polaris_simnet::time::SimTime;
use std::collections::VecDeque;

/// One rank's unreceived messages: `(sender, arrival)` in push order.
#[derive(Debug, Default)]
pub(crate) struct Inbox(VecDeque<(u32, SimTime)>);

impl Inbox {
    #[inline]
    pub(crate) fn push(&mut self, from: u32, arrival: SimTime) {
        self.0.push_back((from, arrival));
    }

    /// Position and arrival of the earliest-pushed message from `from`.
    #[inline]
    pub(crate) fn find(&self, from: u32) -> Option<(usize, SimTime)> {
        self.0
            .iter()
            .enumerate()
            .find_map(|(i, &(s, arrival))| (s == from).then_some((i, arrival)))
    }

    /// Remove the message at `pos`, a position [`Inbox::find`] returned.
    #[inline]
    pub(crate) fn take(&mut self, pos: usize) {
        // Nearly every match is the head, and `pop_front` skips
        // `remove`'s shift bookkeeping (about 1 ns of 8 per message).
        if pos == 0 {
            self.0.pop_front();
        } else {
            self.0.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_keeps_each_senders_order() {
        let mut inbox = Inbox::default();
        for (from, ps) in [(1, 10), (2, 5), (1, 3), (3, 7)] {
            inbox.push(from, SimTime(ps));
        }
        assert_eq!(inbox.find(3), Some((3, SimTime(7))));
        inbox.take(3);
        assert_eq!(inbox.find(1), Some((0, SimTime(10))));
        inbox.take(0);
        assert_eq!(inbox.find(1), Some((1, SimTime(3))));
        inbox.take(1);
        assert_eq!(inbox.find(2), Some((0, SimTime(5))));
        inbox.take(0);
        assert_eq!(inbox.find(1), None);
        assert_eq!(inbox.find(3), None);
    }
}
