//! The connection-thread set, seen through `/stats` and `Server::stats`:
//! threads are made on demand, admission bounds them by `max_inflight`,
//! and shutdown leaves none alive.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use egraph_core::ids::{NodeId, TemporalNode};
use egraph_query::codec::descriptor_to_json;
use egraph_query::Search;
use egraph_serve::{Client, RetryPolicy, Server, ServerConfig};
use egraph_stream::LiveGraph;

fn fixture_live() -> LiveGraph {
    let mut live = LiveGraph::directed(6);
    live.insert(NodeId(0), NodeId(1)).unwrap();
    live.insert(NodeId(1), NodeId(2)).unwrap();
    live.seal_snapshot(0).unwrap();
    live.insert(NodeId(2), NodeId(3)).unwrap();
    live.seal_snapshot(1).unwrap();
    live
}

/// The `"server"` section's thread counters, read over the wire.
fn stats_threads(client: &Client) -> (usize, usize) {
    let response = client.get("/stats").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let value = egraph_io::parse_value(&response.body).unwrap();
    let stats = value.as_object("stats").unwrap();
    let server = stats.get("server").unwrap().as_object("server").unwrap();
    let count = |key: &str| server.get(key).unwrap().as_usize(key).unwrap();
    (
        count("connection_threads_created"),
        count("connection_threads_alive"),
    )
}

#[test]
fn connection_threads_stay_within_max_inflight_and_exit_on_shutdown() {
    const MAX_INFLIGHT: usize = 4;
    const RACERS: usize = 12;
    let mut server = Server::start(
        fixture_live(),
        ServerConfig {
            max_inflight: MAX_INFLIGHT,
            retry_after_secs: 0,
            // The leader holds its thread until every other racer has
            // parked behind it, so at least two threads are busy at once.
            hold_leader_until_waiters: Some(RACERS - 1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = Client::new(server.addr());
    assert_eq!(stats_threads(&client), (1, 1), "only /stats has run");

    let body = descriptor_to_json(&Search::from(TemporalNode::from_raw(0, 0)).descriptor());
    let policy = RetryPolicy {
        attempts: 100_000,
        backoff: Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let stats = server.stats();
                assert!(
                    stats.connection_threads_alive <= MAX_INFLIGHT as u64,
                    "{stats:?}"
                );
                assert!(
                    stats.connection_threads_created <= MAX_INFLIGHT as u64,
                    "{stats:?}"
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let racers: Vec<_> = (0..RACERS)
            .map(|_| {
                let (client, body, policy) = (client.clone(), &body, &policy);
                scope.spawn(move || client.post_with_retry("/query", body, policy).unwrap())
            })
            .collect();
        for racer in racers {
            let (response, _retries) = racer.join().unwrap();
            assert_eq!(response.status, 200, "{}", response.body);
        }
        done.store(true, Ordering::SeqCst);
        sampler.join().unwrap();
    });

    let stats = server.stats();
    assert!(stats.connection_threads_created >= 2, "{stats:?}");
    assert!(
        stats.connection_threads_created <= MAX_INFLIGHT as u64,
        "{stats:?}"
    );
    let (created, alive) = stats_threads(&client);
    assert!((2..=MAX_INFLIGHT).contains(&created), "{created}");
    assert_eq!(alive, created, "threads park between connections");

    server.shutdown();
    let stats = server.stats();
    assert_eq!(stats.connection_threads_alive, 0, "{stats:?}");
    assert_eq!(stats.connection_threads_created, created as u64);
}
