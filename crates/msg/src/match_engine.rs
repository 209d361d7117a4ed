//! Tag matching: pairing posted receives with arriving messages.
//!
//! MPI-style matching semantics: a receive names a source (or wildcard)
//! and a tag (or wildcard); arrivals match the *earliest* posted receive
//! they satisfy, and receives match the earliest unexpected arrival —
//! both FIFO, which yields the non-overtaking guarantee: two messages
//! from the same sender with the same tag are received in send order.

use std::collections::VecDeque;

/// A receive's matching criteria. `None` is the wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchSpec {
    pub src: Option<u32>,
    pub tag: Option<u64>,
}

impl MatchSpec {
    pub fn exact(src: u32, tag: u64) -> Self {
        MatchSpec {
            src: Some(src),
            tag: Some(tag),
        }
    }

    pub fn any() -> Self {
        MatchSpec {
            src: None,
            tag: None,
        }
    }

    #[inline]
    pub fn matches(&self, src: u32, tag: u64) -> bool {
        self.src.is_none_or(|s| s == src) && self.tag.is_none_or(|t| t == tag)
    }
}

/// An arrival we could not match yet. The payload representation is the
/// caller's business (eager data, a parked RTS, ...).
#[derive(Debug)]
pub struct Unexpected<P> {
    pub src: u32,
    pub tag: u64,
    pub payload: P,
}

/// A posted receive awaiting an arrival. `R` identifies the request.
#[derive(Debug)]
struct Posted<R> {
    spec: MatchSpec,
    req: R,
}

/// The matching engine for one endpoint.
#[derive(Debug)]
pub struct MatchEngine<R, P> {
    posted: VecDeque<Posted<R>>,
    unexpected: VecDeque<Unexpected<P>>,
}

impl<R, P> Default for MatchEngine<R, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R, P> MatchEngine<R, P> {
    pub fn new() -> Self {
        MatchEngine {
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
        }
    }

    /// A receive is being posted: if an unexpected arrival satisfies it,
    /// consume and return that arrival; otherwise queue the receive.
    pub fn post_recv(&mut self, spec: MatchSpec, req: R) -> Option<Unexpected<P>> {
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|u| spec.matches(u.src, u.tag))
        {
            return self.unexpected.remove(pos);
        }
        self.posted.push_back(Posted { spec, req });
        None
    }

    /// A message has arrived: if a posted receive matches, consume and
    /// return its request id; otherwise the caller must park the payload
    /// via [`MatchEngine::park`].
    pub fn arrive(&mut self, src: u32, tag: u64) -> Option<R> {
        if let Some(pos) = self.posted.iter().position(|p| p.spec.matches(src, tag)) {
            return self.posted.remove(pos).map(|p| p.req);
        }
        None
    }

    /// Park an arrival that found no posted receive.
    pub fn park(&mut self, src: u32, tag: u64, payload: P) {
        self.unexpected.push_back(Unexpected { src, tag, payload });
    }

    pub fn posted_len(&self) -> usize {
        self.posted.len()
    }

    pub fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    /// Cancel posted receives whose spec satisfies `pred`, returning
    /// their request ids (failure handling: receives that can only match
    /// a dead source).
    pub fn cancel_posted<F: Fn(&MatchSpec) -> bool>(&mut self, pred: F) -> Vec<R> {
        let mut cancelled = Vec::new();
        // Rotate the deque through itself once: kept entries cycle to the
        // back in their original order, cancelled ones are extracted. No
        // reallocation — the deque keeps its storage.
        for _ in 0..self.posted.len() {
            let p = self.posted.pop_front().expect("length-bounded");
            if pred(&p.spec) {
                cancelled.push(p.req);
            } else {
                self.posted.push_back(p);
            }
        }
        cancelled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Eng = MatchEngine<u64, Vec<u8>>;

    #[test]
    fn exact_match_pairs_up() {
        let mut e = Eng::new();
        assert!(e.post_recv(MatchSpec::exact(1, 10), 100).is_none());
        assert_eq!(e.arrive(1, 10), Some(100));
        assert_eq!(e.posted_len(), 0);
    }

    #[test]
    fn mismatched_arrival_is_not_matched() {
        let mut e = Eng::new();
        e.post_recv(MatchSpec::exact(1, 10), 100);
        assert_eq!(e.arrive(2, 10), None);
        assert_eq!(e.arrive(1, 11), None);
        assert_eq!(e.posted_len(), 1);
    }

    #[test]
    fn wildcards_match_anything() {
        let mut e = Eng::new();
        e.post_recv(MatchSpec::any(), 1);
        assert_eq!(e.arrive(9, 999), Some(1));
        e.post_recv(
            MatchSpec {
                src: None,
                tag: Some(5),
            },
            2,
        );
        assert_eq!(e.arrive(3, 4), None);
        assert_eq!(e.arrive(3, 5), Some(2));
    }

    #[test]
    fn posted_receives_match_fifo() {
        let mut e = Eng::new();
        e.post_recv(MatchSpec::exact(1, 10), 100);
        e.post_recv(MatchSpec::exact(1, 10), 101);
        assert_eq!(e.arrive(1, 10), Some(100));
        assert_eq!(e.arrive(1, 10), Some(101));
    }

    #[test]
    fn wildcard_does_not_steal_from_earlier_exact() {
        let mut e = Eng::new();
        e.post_recv(MatchSpec::exact(1, 10), 100);
        e.post_recv(MatchSpec::any(), 200);
        // Arrival matching both goes to the earlier posted receive.
        assert_eq!(e.arrive(1, 10), Some(100));
        // Arrival matching only the wildcard goes there.
        assert_eq!(e.arrive(7, 7), Some(200));
    }

    #[test]
    fn unexpected_arrivals_match_fifo_on_post() {
        let mut e = Eng::new();
        e.park(1, 10, b"first".to_vec());
        e.park(1, 10, b"second".to_vec());
        let u = e.post_recv(MatchSpec::exact(1, 10), 1).unwrap();
        assert_eq!(u.payload, b"first");
        let u = e.post_recv(MatchSpec::any(), 2).unwrap();
        assert_eq!(u.payload, b"second");
        assert_eq!(e.unexpected_len(), 0);
    }

    #[test]
    fn non_overtaking_per_sender_tag() {
        // Messages (src=1,tag=5) parked in order 'a','b'; receives posted
        // later must see them in that order even with wildcards mixed in.
        let mut e = Eng::new();
        e.park(1, 5, vec![b'a']);
        e.park(2, 5, vec![b'x']);
        e.park(1, 5, vec![b'b']);
        let u = e.post_recv(MatchSpec::exact(1, 5), 0).unwrap();
        assert_eq!(u.payload, vec![b'a']);
        let u = e.post_recv(MatchSpec::exact(1, 5), 0).unwrap();
        assert_eq!(u.payload, vec![b'b']);
        let u = e.post_recv(MatchSpec::any(), 0).unwrap();
        assert_eq!(u.payload, vec![b'x']);
    }

    #[test]
    fn cancel_posted_extracts_in_place() {
        let mut e = Eng::new();
        for i in 0..8u64 {
            let src = if i % 2 == 0 { 1 } else { 2 };
            e.post_recv(MatchSpec::exact(src, i), i);
        }
        let cap = e.posted.capacity();
        let cancelled = e.cancel_posted(|s| s.src == Some(1));
        assert_eq!(cancelled, vec![0, 2, 4, 6]);
        // Survivors keep FIFO order and the deque keeps its storage.
        let kept: Vec<u64> = e.posted.iter().map(|p| p.req).collect();
        assert_eq!(kept, vec![1, 3, 5, 7]);
        assert_eq!(e.posted.capacity(), cap, "no reallocation");
        // A sweep matching nothing returns a non-allocating empty vec.
        let none = e.cancel_posted(|s| s.src == Some(9));
        assert!(none.is_empty());
        assert_eq!(none.capacity(), 0);
        assert_eq!(e.posted_len(), 4);
    }
}
