//! Single-flight admission: concurrent requests for the same descriptor
//! coalesce onto one computation.
//!
//! The cache already guarantees that sibling computations of the same
//! descriptor are *correct* (one install wins, everyone shares the winning
//! `Arc`) — but each sibling still pays the full traversal. Under a burst of
//! identical cold queries that is N traversals for one answer. This module
//! makes admission explicit: the first request for a descriptor becomes the
//! **leader** and computes; every request arriving while the leader is in
//! flight **parks its connection** in the leader's slot and consumes no
//! execution resources at all. When the leader finishes it serves its own
//! connection and every parked one from the same serialized bytes.
//!
//! Parking the *connection* rather than blocking the handling thread is the
//! load-bearing choice: every handler holds a connection thread and an
//! admission slot (`ServerConfig::max_inflight`) while it runs. A parked
//! follower returns both at once, so a burst of 10k identical requests
//! holds 10k sockets but exactly one busy thread, the leader's.
//!
//! The slot map is keyed by the builder's canonical [`QueryDescriptor`], so
//! two requests coalesce exactly when the cache would consider them the
//! same query — the admission layer and the cache can never disagree about
//! identity.

use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::lock;

use egraph_query::QueryDescriptor;

/// One in-flight computation: the connections waiting on it, and a latch
/// the leader can watch (test hook) as they arrive.
#[derive(Debug, Default)]
struct Slot {
    waiters: Mutex<Vec<TcpStream>>,
    arrived: Condvar,
}

/// The admission table: descriptor → in-flight slot.
#[derive(Debug, Default)]
pub struct SingleFlight {
    slots: Mutex<HashMap<QueryDescriptor, Arc<Slot>>>,
}

/// The outcome of [`SingleFlight::admit`].
pub enum Admission<'a> {
    /// This request leads: compute, then call [`LeaderGuard::finish`] and
    /// answer every returned connection. The request's own stream is handed
    /// back untouched.
    Leader(TcpStream, LeaderGuard<'a>),
    /// The connection was parked in an existing flight; the leader now owns
    /// responding to it. The calling handler is done.
    Parked,
}

/// Proof of leadership for one descriptor. Dropping the guard without
/// calling [`LeaderGuard::finish`] (a panicking engine, say) closes the
/// flight and answers parked connections with a `500`, so followers are
/// never stranded and the next request for the descriptor starts fresh.
pub struct LeaderGuard<'a> {
    flight: &'a SingleFlight,
    descriptor: QueryDescriptor,
    slot: Arc<Slot>,
    finished: bool,
}

impl SingleFlight {
    /// An empty admission table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one request for `descriptor` carrying `stream`.
    ///
    /// If a flight for the descriptor is already open, the stream is parked
    /// in it ([`Admission::Parked`]); otherwise a flight opens and the
    /// caller leads. A stream is parked only while its slot is still in the
    /// table (both locks are taken in table → slot order, and
    /// [`LeaderGuard::finish`] drains under the same ordering), so a parked
    /// connection can never miss its leader's answer.
    pub fn admit<'a>(&'a self, descriptor: &QueryDescriptor, stream: TcpStream) -> Admission<'a> {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(descriptor) {
            let slot = Arc::clone(slot);
            lock(&slot.waiters).push(stream);
            drop(slots);
            slot.arrived.notify_all();
            return Admission::Parked;
        }
        let slot = Arc::new(Slot::default());
        slots.insert(descriptor.clone(), Arc::clone(&slot));
        Admission::Leader(
            stream,
            LeaderGuard {
                flight: self,
                descriptor: descriptor.clone(),
                slot,
                finished: false,
            },
        )
    }

    fn close(&self, descriptor: &QueryDescriptor, slot: &Slot) -> Vec<TcpStream> {
        // Hold the table lock across the drain: `admit` parks streams while
        // holding it, so nothing can slip into the slot between its removal
        // from the table and the drain.
        let mut slots = lock(&self.slots);
        slots.remove(descriptor);
        let drained = std::mem::take(&mut *lock(&slot.waiters));
        drop(slots);
        drained
    }
}

impl LeaderGuard<'_> {
    /// Blocks until at least `count` connections are parked in this flight.
    ///
    /// A determinism hook for tests (via
    /// [`ServerConfig::hold_leader_until_waiters`](crate::ServerConfig)):
    /// holding the leader until every racing request has parked makes
    /// "16 concurrent requests → 1 computation + 15 coalesced" assertable
    /// rather than probabilistic. Never used in production serving.
    /// The wait is bounded (30 s): if the environment cannot deliver the
    /// expected concurrency — a thread pool too small to run the racing
    /// requests, say — the leader proceeds and the test fails on its
    /// counts instead of hanging the suite.
    pub fn wait_for_waiters(&self, count: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let mut waiters = lock(&self.slot.waiters);
        while waiters.len() < count {
            let now = std::time::Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .slot
                .arrived
                .wait_timeout(waiters, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            waiters = guard;
        }
    }

    /// Closes the flight and returns every parked connection. New requests
    /// for the descriptor admitted after this point start a fresh flight —
    /// important, because the graph may have moved and their answer with it.
    pub fn finish(mut self) -> Vec<TcpStream> {
        self.finished = true;
        self.flight.close(&self.descriptor, &self.slot)
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // The leader died without publishing: answer parked connections
        // with a 500 so they are not stranded until their socket times out.
        let stranded = self.flight.close(&self.descriptor, &self.slot);
        let body = crate::http::error_body("the computation leading this request failed");
        for mut stream in stranded {
            let _ = crate::http::write_response(&mut stream, 500, &body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::ids::TemporalNode;
    use egraph_query::Search;
    use std::io::BufReader;
    use std::net::TcpListener;

    impl SingleFlight {
        fn open_flights(&self) -> usize {
            lock(&self.slots).len()
        }
    }

    fn descriptor(node: u32) -> QueryDescriptor {
        Search::from(TemporalNode::from_raw(node, 0)).descriptor()
    }

    /// A connected socket pair via a throwaway loopback listener.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn first_request_leads_and_later_ones_park() {
        let flight = SingleFlight::new();
        let (_c1, s1) = socket_pair();
        let (_c2, s2) = socket_pair();
        let (_c3, s3) = socket_pair();

        let Admission::Leader(_own, guard) = flight.admit(&descriptor(0), s1) else {
            panic!("first request must lead");
        };
        assert!(matches!(
            flight.admit(&descriptor(0), s2),
            Admission::Parked
        ));
        assert!(matches!(
            flight.admit(&descriptor(0), s3),
            Admission::Parked
        ));
        assert_eq!(flight.open_flights(), 1);

        let parked = guard.finish();
        assert_eq!(parked.len(), 2);
        assert_eq!(flight.open_flights(), 0);
    }

    #[test]
    fn distinct_descriptors_fly_independently() {
        let flight = SingleFlight::new();
        let (_c1, s1) = socket_pair();
        let (_c2, s2) = socket_pair();
        let a = flight.admit(&descriptor(0), s1);
        let b = flight.admit(&descriptor(1), s2);
        assert!(matches!(a, Admission::Leader(..)));
        assert!(matches!(b, Admission::Leader(..)));
        assert_eq!(flight.open_flights(), 2);
    }

    #[test]
    fn after_finish_the_next_request_leads_a_fresh_flight() {
        let flight = SingleFlight::new();
        let (_c1, s1) = socket_pair();
        let (_c2, s2) = socket_pair();
        let Admission::Leader(_own, guard) = flight.admit(&descriptor(0), s1) else {
            panic!("must lead");
        };
        guard.finish();
        assert!(matches!(
            flight.admit(&descriptor(0), s2),
            Admission::Leader(..)
        ));
    }

    #[test]
    fn a_dropped_leader_answers_parked_connections_with_500() {
        let flight = SingleFlight::new();
        let (_c1, s1) = socket_pair();
        let (client, s2) = socket_pair();
        let Admission::Leader(_own, guard) = flight.admit(&descriptor(0), s1) else {
            panic!("must lead");
        };
        assert!(matches!(
            flight.admit(&descriptor(0), s2),
            Admission::Parked
        ));
        drop(guard); // leader dies without finish()

        let response = crate::http::read_response(&mut BufReader::new(client)).unwrap();
        assert_eq!(response.status, 500);
        assert!(response.body.contains("failed"));
        assert_eq!(flight.open_flights(), 0);
    }

    #[test]
    fn wait_for_waiters_latches_on_arrivals() {
        let flight = SingleFlight::new();
        let (_c1, s1) = socket_pair();
        let Admission::Leader(_own, guard) = flight.admit(&descriptor(0), s1) else {
            panic!("must lead");
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..3 {
                    let (_c, s) = socket_pair();
                    assert!(matches!(flight.admit(&descriptor(0), s), Admission::Parked));
                }
            });
            guard.wait_for_waiters(3);
        });
        assert_eq!(guard.finish().len(), 3);
    }
}
