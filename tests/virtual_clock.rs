//! The messaging endpoints' virtual clock is a function of each rank's
//! program, not of when its messages happen to arrive: a receive posted
//! before its message lands and one that finds the message already
//! parked as unexpected leave the same clock behind.

use polaris_msg::prelude::*;
use polaris_nic::prelude::Fabric;

const RANKS: u32 = 4;
const PER_PEER: u64 = 2;

/// Payload size of message `tag` from `src` to `dst`, around `base`.
fn size(base: usize, src: u32, dst: u32, tag: u64) -> usize {
    base + 97 * (src * RANKS + dst) as usize + 13 * tag as usize
}

/// In what order one thread steps the ranks through their programs.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    /// Every rank posts all its receives before anyone sends: every
    /// message finds its receive waiting.
    PostedFirst,
    /// Each rank in turn drains what has arrived, then runs its posts
    /// and sends: a rank's messages from lower ranks wait parked.
    Ascending,
    /// The same from the highest rank down.
    Descending,
}

/// Run the exchange: every rank posts a receive for each message from
/// each peer, sends `PER_PEER` messages to each peer, then reaps its
/// receives and its sends in a fixed order. Returns every rank's clock
/// and how many messages arrived before their receive was posted.
fn exchange(proto: Protocol, base: usize, schedule: Schedule) -> (Vec<u64>, u64) {
    let fabric = Fabric::new();
    let mut eps = Endpoint::create_world(&fabric, RANKS, MsgConfig::with_protocol(proto)).unwrap();
    let mut recvs: Vec<Vec<ReqId>> = vec![Vec::new(); RANKS as usize];
    let mut sends: Vec<Vec<ReqId>> = vec![Vec::new(); RANKS as usize];
    let post = |ep: &mut Endpoint, recvs: &mut Vec<ReqId>| {
        let me = ep.rank();
        for src in (0..RANKS).filter(|&s| s != me) {
            for tag in 0..PER_PEER {
                let buf = ep.alloc(size(base, src, me, tag)).unwrap();
                recvs.push(ep.irecv(MatchSpec::exact(src, tag), buf).unwrap());
            }
        }
    };
    let send = |ep: &mut Endpoint, sends: &mut Vec<ReqId>| {
        let me = ep.rank();
        for dst in (0..RANKS).filter(|&d| d != me) {
            for tag in 0..PER_PEER {
                let len = size(base, me, dst, tag);
                let mut buf = ep.alloc(len).unwrap();
                buf.fill_from(&vec![tag as u8; len]);
                sends.push(ep.isend(dst, tag, buf).unwrap());
            }
        }
    };
    match schedule {
        Schedule::PostedFirst => {
            for ep in eps.iter_mut() {
                post(ep, &mut recvs[ep.rank() as usize]);
            }
            for ep in eps.iter_mut() {
                send(ep, &mut sends[ep.rank() as usize]);
            }
        }
        Schedule::Ascending | Schedule::Descending => {
            let mut order: Vec<usize> = (0..RANKS as usize).collect();
            if matches!(schedule, Schedule::Descending) {
                order.reverse();
            }
            for r in order {
                let ep = &mut eps[r];
                while ep.progress() > 0 {}
                post(ep, &mut recvs[r]);
                send(ep, &mut sends[r]);
            }
        }
    }
    for ep in eps.iter_mut() {
        for &req in &recvs[ep.rank() as usize] {
            let (buf, _) = ep.wait_recv(req).unwrap();
            ep.release(buf);
        }
    }
    for ep in eps.iter_mut() {
        for &req in &sends[ep.rank() as usize] {
            let buf = ep.wait_send(req).unwrap();
            ep.release(buf);
        }
    }
    let clocks = eps.iter().map(|ep| ep.clock().as_ps()).collect();
    let unexpected = eps.iter().map(|ep| ep.stats().unexpected_arrivals).sum();
    (clocks, unexpected)
}

#[test]
fn the_clock_does_not_depend_on_arrival_order() {
    for (proto, base) in [
        (Protocol::Eager, 200),
        (Protocol::Sockets, 3_000),
        (Protocol::Rendezvous, 20_000),
    ] {
        let (posted, none_parked) = exchange(proto, base, Schedule::PostedFirst);
        assert_eq!(none_parked, 0, "{proto:?}: every receive was posted first");
        assert!(posted.iter().all(|&c| c > 0), "{proto:?}: {posted:?}");
        for schedule in [Schedule::Ascending, Schedule::Descending] {
            let (clocks, parked) = exchange(proto, base, schedule);
            assert!(
                parked > 0,
                "{proto:?} {schedule:?}: nothing took the parked path"
            );
            assert_eq!(clocks, posted, "{proto:?} {schedule:?}");
        }
    }
}
