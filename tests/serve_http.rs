//! Socket-layer tests of `egraph-serve`: everything here talks to the
//! server over real loopback TCP connections, through the same HTTP dialect
//! a `curl` user would speak — no in-process shortcuts.
//!
//! The load-bearing assertions:
//!
//! * single-flight admission: a burst of identical cold requests performs
//!   **exactly one** underlying computation (1 miss + N−1 coalesced), and
//!   every response is byte-identical;
//! * wire answers are the scratch answers: a mixed bag of unique
//!   descriptors served concurrently equals `Search::run` on an identical
//!   graph, byte for byte through the codec;
//! * standing queries: a subscriber gets one frame per sealed snapshot, in
//!   seal order, each carrying the result the graph had at that seal;
//! * hostile input: malformed, wrong-shaped and oversized requests get
//!   structured `4xx` answers and the accept loop keeps serving.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use egraph_core::ids::{NodeId, TemporalNode};
use egraph_query::codec::search_result_to_json;
use egraph_query::{Search, Strategy};
use egraph_serve::{Client, Server, ServerConfig};
use egraph_stream::LiveGraph;

/// The shared fixture: built twice per test that needs a local twin —
/// once moved into the server, once kept for scratch comparisons.
fn fixture_live() -> LiveGraph {
    let mut live = LiveGraph::directed(6);
    live.insert(NodeId(0), NodeId(1)).unwrap();
    live.insert(NodeId(1), NodeId(2)).unwrap();
    live.seal_snapshot(0).unwrap();
    live.insert(NodeId(2), NodeId(3)).unwrap();
    live.insert(NodeId(0), NodeId(4)).unwrap();
    live.seal_snapshot(1).unwrap();
    live.insert(NodeId(3), NodeId(5)).unwrap();
    live.seal_snapshot(2).unwrap();
    live
}

fn start(config: ServerConfig) -> (Server, Client) {
    let server = Server::start(fixture_live(), config).unwrap();
    let client = Client::new(server.addr());
    (server, client)
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_computation() {
    const RACERS: usize = 16;
    let (server, client) = start(ServerConfig {
        // Determinism hook: the leader computes only once the other 15
        // requests are parked behind it, so the coalescing counts below
        // are exact, not race-dependent.
        hold_leader_until_waiters: Some(RACERS - 1),
        ..ServerConfig::default()
    });
    let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();

    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                let client = client.clone();
                let descriptor = descriptor.clone();
                scope.spawn(move || {
                    let response = client.query(&descriptor).unwrap();
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identical responses, all equal to the scratch answer.
    let scratch = descriptor.to_search().run(fixture_live().graph()).unwrap();
    let expected = search_result_to_json(&scratch);
    for body in &bodies {
        assert_eq!(body, &expected);
    }

    // Exactly one computation happened: 1 miss, 15 coalesced, no hits
    // (every racer arrived before the entry existed).
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "one leader computes");
    assert_eq!(
        stats.coalesced,
        RACERS as u64 - 1,
        "everyone else coalesces"
    );
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.requests(), RACERS as u64);

    // The next identical request is a pure cache hit (tier 1, no flight).
    let response = client.query(&descriptor).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.body, expected);
    assert_eq!(server.cache_stats().hits, 1);
}

#[test]
fn concurrent_unique_descriptors_match_single_threaded_scratch() {
    let (_server, client) = start(ServerConfig::default());
    let twin = fixture_live();

    // One descriptor per query shape the builder supports.
    let searches: Vec<Search> = vec![
        Search::from(TemporalNode::from_raw(0, 0)),
        Search::from(TemporalNode::from_raw(0, 0)).strategy(Strategy::Parallel),
        Search::from(TemporalNode::from_raw(0, 0)).strategy(Strategy::Algebraic),
        Search::from(TemporalNode::from_raw(0, 0)).strategy(Strategy::Foremost),
        Search::from(TemporalNode::from_raw(3, 2)).backward(),
        Search::from(TemporalNode::from_raw(0, 0)).reverse(),
        Search::from(TemporalNode::from_raw(0, 1)).window(1..=2),
        Search::from(TemporalNode::from_raw(0, 0)).with_parents(),
        Search::from_sources([TemporalNode::from_raw(0, 0), TemporalNode::from_raw(2, 1)]),
        Search::from_sources([TemporalNode::from_raw(0, 0), TemporalNode::from_raw(2, 1)])
            .strategy(Strategy::SharedFrontier),
    ];

    std::thread::scope(|scope| {
        for search in &searches {
            let client = client.clone();
            let twin = &twin;
            scope.spawn(move || {
                let expected = search_result_to_json(&search.run(twin.graph()).unwrap());
                // Twice each: the second round exercises the peek tier.
                for _ in 0..2 {
                    let response = client.query(&search.descriptor()).unwrap();
                    assert_eq!(response.status, 200);
                    assert_eq!(
                        response.body,
                        expected,
                        "descriptor {:?}",
                        search.descriptor()
                    );
                }
            });
        }
    });
}

#[test]
fn subscribers_receive_one_frame_per_seal_in_order() {
    let (server, client) = start(ServerConfig::default());
    let search = Search::from(TemporalNode::from_raw(0, 0));
    let mut subscription = client.subscribe(&search.descriptor()).unwrap();

    // The initial frame carries the current answer, seq 0, no label.
    let twin = fixture_live();
    let frame = parse_frame(&subscription.next_frame().unwrap().unwrap());
    assert_eq!(frame.seq, 0);
    assert_eq!(frame.label, None);
    assert_eq!(
        frame.result_json,
        search_result_to_json(&search.run(twin.graph()).unwrap())
    );

    // Three seals → three frames, in order, each matching a twin graph
    // sealed to the same point.
    let mut twin = twin;
    let seals: [(u32, u32, i64); 3] = [(4, 5, 10), (5, 0, 11), (2, 0, 12)];
    for (i, &(u, v, label)) in seals.iter().enumerate() {
        let response = client
            .post(
                "/ingest",
                &format!("{{\"events\": [[{u}, {v}]], \"seal\": {label}}}"),
            )
            .unwrap();
        assert_eq!(response.status, 200);

        twin.insert(NodeId(u), NodeId(v)).unwrap();
        twin.seal_snapshot(label).unwrap();

        let frame = parse_frame(&subscription.next_frame().unwrap().unwrap());
        assert_eq!(frame.seq, i as u64 + 1, "frames arrive in seal order");
        assert_eq!(frame.label, Some(label));
        assert_eq!(
            frame.result_json,
            search_result_to_json(&search.run(twin.graph()).unwrap()),
            "frame {} must carry the answer as of seal {label}",
            i + 1
        );
        // Forward unbounded hop query: the standing query is advanced
        // incrementally, never recomputed.
        assert_eq!(frame.outcome, "extended");
    }

    let stats = server.stats();
    assert_eq!(stats.subscriptions_opened, 1);
    assert_eq!(stats.frames_pushed, 4);
}

#[test]
fn shared_and_windowed_subscriptions_repair_incrementally_on_the_wire() {
    // The two matrix rows this PR closes, observed end to end through the
    // socket: a shared-frontier standing query must push `extended` frames
    // (its packed frontier grows append-only) and a bounded-window standing
    // query must push `redimensioned` frames (no graph work at all) — and
    // both must carry byte-identical JSON to a from-scratch run on a twin
    // graph sealed to the same point.
    let (server, client) = start(ServerConfig::default());
    let shared = Search::from_sources([TemporalNode::from_raw(0, 0), TemporalNode::from_raw(2, 1)])
        .strategy(Strategy::SharedFrontier);
    let windowed = Search::from(TemporalNode::from_raw(0, 0)).window(0..=2);
    let mut shared_sub = client.subscribe(&shared.descriptor()).unwrap();
    let mut windowed_sub = client.subscribe(&windowed.descriptor()).unwrap();

    let mut twin = fixture_live();
    for (sub, search) in [(&mut shared_sub, &shared), (&mut windowed_sub, &windowed)] {
        let frame = parse_frame(&sub.next_frame().unwrap().unwrap());
        assert_eq!(frame.seq, 0);
        assert_eq!(
            frame.result_json,
            search_result_to_json(&search.run(twin.graph()).unwrap())
        );
    }

    let seals: [(u32, u32, i64); 2] = [(4, 5, 10), (5, 1, 11)];
    for (i, &(u, v, label)) in seals.iter().enumerate() {
        let response = client
            .post(
                "/ingest",
                &format!("{{\"events\": [[{u}, {v}]], \"seal\": {label}}}"),
            )
            .unwrap();
        assert_eq!(response.status, 200);
        twin.insert(NodeId(u), NodeId(v)).unwrap();
        twin.seal_snapshot(label).unwrap();

        for (sub, search, outcome) in [
            (&mut shared_sub, &shared, "extended"),
            (&mut windowed_sub, &windowed, "redimensioned"),
        ] {
            let frame = parse_frame(&sub.next_frame().unwrap().unwrap());
            assert_eq!(frame.seq, i as u64 + 1);
            assert_eq!(frame.label, Some(label));
            assert_eq!(frame.outcome, outcome, "seal {label}");
            assert_eq!(
                frame.result_json,
                search_result_to_json(&search.run(twin.graph()).unwrap()),
                "seal {label}: wire answer must equal the scratch twin"
            );
        }
    }

    // The push path reported its repairs through the same per-row counters
    // the /stats endpoint exposes.
    let stats = server.cache_stats();
    assert_eq!(stats.extended_shared, 2, "{stats:?}");
    assert_eq!(stats.redimensioned, 2, "{stats:?}");
    assert_eq!(stats.recomputes, 0, "{stats:?}");
}

struct Frame {
    seq: u64,
    label: Option<i64>,
    outcome: String,
    result_json: String,
}

fn parse_frame(raw: &str) -> Frame {
    let value = egraph_io::parse_value(raw).unwrap();
    let object = value.as_object("frame").unwrap();
    Frame {
        seq: object.get("seq").unwrap().as_i64("seq").unwrap() as u64,
        label: object.get_opt("label").map(|v| v.as_i64("label").unwrap()),
        outcome: object
            .get("outcome")
            .unwrap()
            .as_str("outcome")
            .unwrap()
            .to_string(),
        result_json: object.get("result").unwrap().to_json(),
    }
}

#[test]
fn hostile_requests_get_structured_errors_and_the_server_keeps_serving() {
    let (server, client) = start(ServerConfig {
        max_body_bytes: 512,
        ..ServerConfig::default()
    });

    // Not HTTP at all.
    {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"garbage\r\n\r\n").unwrap();
        let mut buf = String::new();
        raw.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "got {buf:?}");
    }

    // Valid HTTP, body is not JSON.
    let response = client.post("/query", "not json").unwrap();
    assert_eq!(response.status, 400);
    assert!(
        response.body.starts_with("{\"error\": "),
        "{}",
        response.body
    );

    // Valid JSON, wrong shape (no sources).
    let response = client.post("/query", "{}").unwrap();
    assert_eq!(response.status, 400);

    // Non-canonical descriptor forms are rejected, not guessed at.
    let response = client
        .post("/query", r#"{"sources": [[0, 0]], "strategy": "quantum"}"#)
        .unwrap();
    assert_eq!(response.status, 400);

    // Oversized body: 413 from the declaration alone.
    let huge = format!(
        r#"{{"sources": [[0, 0]], "padding": "{}"}}"#,
        "x".repeat(4096)
    );
    let response = client.post("/query", &huge).unwrap();
    assert_eq!(response.status, 413);

    // Well-formed but semantically impossible: snapshot 9 does not exist.
    let bad_root = Search::from(TemporalNode::from_raw(0, 9)).descriptor();
    let response = client.query(&bad_root).unwrap();
    assert_eq!(response.status, 422);

    // Unknown route / wrong method.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/query").unwrap().status, 405);

    // Ingest validation: malformed pairs and bad labels.
    assert_eq!(
        client
            .post("/ingest", r#"{"events": [[0]]}"#)
            .unwrap()
            .status,
        400
    );
    assert_eq!(client.post("/ingest", "{}").unwrap().status, 400);
    // Seal labels must be strictly increasing: the fixture sealed label 2.
    assert_eq!(
        client.post("/ingest", r#"{"seal": 0}"#).unwrap().status,
        422
    );

    // After all of that, the accept loop still serves real queries.
    let good = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    let response = client.query(&good).unwrap();
    assert_eq!(response.status, 200);
    let expected = search_result_to_json(&good.to_search().run(fixture_live().graph()).unwrap());
    assert_eq!(response.body, expected);
    // Every 4xx above counted once: six 400s, a 413, two 422s, a 404, a 405.
    assert_eq!(server.stats().bad_requests, 11);
}

#[test]
fn stats_and_health_report_the_serving_state() {
    let (server, client) = start(ServerConfig::default());
    let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    client.query(&descriptor).unwrap(); // miss
    client.query(&descriptor).unwrap(); // peek hit

    let health = client.get("/health").unwrap();
    assert_eq!(health.status, 200);
    let value = egraph_io::parse_value(&health.body).unwrap();
    let object = value.as_object("health").unwrap();
    assert!(object.get("ok").unwrap().as_bool("ok").unwrap());
    assert_eq!(
        object
            .get("num_sealed")
            .unwrap()
            .as_usize("num_sealed")
            .unwrap(),
        3
    );

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let value = egraph_io::parse_value(&stats.body).unwrap();
    let object = value.as_object("stats").unwrap();
    let cache = object.get("cache").unwrap().as_object("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_i64("misses").unwrap(), 1);
    assert_eq!(cache.get("hits").unwrap().as_i64("hits").unwrap(), 1);
    assert_eq!(
        cache.get("requests").unwrap().as_i64("requests").unwrap(),
        2
    );
    assert!((cache.get("hit_rate").unwrap().as_f64("hit_rate").unwrap() - 0.5).abs() < 1e-9);
    let graph = object.get("graph").unwrap().as_object("graph").unwrap();
    assert_eq!(graph.get("num_nodes").unwrap().as_usize("n").unwrap(), 6);
    // Server-side counters: 2 queries + health + this stats request so far.
    let served = object.get("server").unwrap().as_object("server").unwrap();
    assert!(served.get("requests").unwrap().as_i64("requests").unwrap() >= 4);
    drop(server);
}

#[test]
fn shutdown_terminates_subscriptions_and_refuses_new_connections() {
    let (mut server, client) = start(ServerConfig::default());
    let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    let mut subscription = client.subscribe(&descriptor).unwrap();
    // Drain the initial frame so shutdown's final chunk is next.
    assert!(subscription.next_frame().unwrap().is_some());

    let addr = server.addr();
    server.shutdown();

    // The stream ends cleanly with the chunked terminator, not an abort.
    assert_eq!(subscription.next_frame().unwrap(), None);

    // The listener is gone: new connections fail outright or are never
    // answered (the accept loop has exited either way).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = [0u8; 1];
            let n = (&stream).read(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "nothing must answer after shutdown");
        }
    }
}

#[test]
fn a_stalled_client_cannot_wedge_the_server() {
    let (server, client) = start(ServerConfig {
        io_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    });
    // Connect and send nothing: the handler's read times out and the
    // connection is abandoned without a response.
    let stalled = TcpStream::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // The server is still fully serviceable.
    let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    let response = client.query(&descriptor).unwrap();
    assert_eq!(response.status, 200);
    drop(stalled);
}
