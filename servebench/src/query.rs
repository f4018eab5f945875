//! `query_hot` and `query_cold`: `/query` against a server over a fixed,
//! bulk-built graph.
//!
//! Both run in episodes: set up a server from the inputs in memory (build
//! the `LiveGraph`, `Server::start`, warm the standing set), then send a
//! fixed number of `/query` requests in a closed loop. Every episode sends
//! the same requests, so episodes repeat exactly and a run is as many
//! whole episodes as fit in its seconds.

use std::collections::{BTreeMap, HashSet};
use std::io::Cursor;
use std::time::{Duration, Instant};

use egraph_core::instrument::CountingView;
use egraph_query::codec::{descriptor_from_json, search_result_to_json};
use egraph_query::{QueryDescriptor, Strategy};
use egraph_serve::{http, Client, Server, ServerConfig};
use egraph_stream::{CacheOutcome, LiveGraph, QueryCache};

use crate::harness::{self, Book, Measured, Meter, Report};
use crate::inputs::{self, Rng, Roots, Snapshot};
use crate::sys;
use crate::trace::Tracer;

const NODES: usize = 1_000;
const SNAPSHOTS: usize = 8;
const EDGES_PER_SNAPSHOT: usize = 16_000;
/// Roots sit in the first (forward) or last (backward) two snapshots, so
/// every answer covers the whole history.
const ROOTS: (Roots, usize) = (Roots::Covering, 2);
/// The standing set every episode warms; `query_hot` cycles over it.
const STANDING: usize = 64;
const STRATEGIES: [Strategy; 3] = [
    Strategy::Serial,
    Strategy::Parallel,
    Strategy::SharedFrontier,
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "query_hot",
            Kind::Cold => "query_cold",
        }
    }

    /// Requests per episode.
    fn ops(self) -> usize {
        match self {
            Kind::Hot => 1_200,
            Kind::Cold => 600,
        }
    }

    /// Requests replayed through the layers in the traced run.
    fn traced_ops(self) -> usize {
        match self {
            Kind::Hot => 300,
            Kind::Cold => 90,
        }
    }
}

/// Cold bodies checked against the twin: every this-many-th request.
const COLD_SAMPLE_EVERY: usize = 10;

struct Inputs {
    snapshots: Vec<Snapshot>,
    standing: Vec<String>,
    /// The twin's answer to each standing request.
    standing_expected: Vec<String>,
    /// One request body per op of an episode.
    ops: Vec<String>,
    /// The twin's answer for the ops that are checked.
    expected: BTreeMap<usize, String>,
}

fn twin_json(live: &LiveGraph, descriptor: &QueryDescriptor) -> String {
    let result = descriptor
        .to_search()
        .run(live.graph())
        .expect("generated roots are active");
    search_result_to_json(&result)
}

fn inputs(kind: Kind, seed: u64) -> Inputs {
    let snapshots = inputs::random_snapshots(
        &mut Rng::derive(seed, 1),
        NODES,
        SNAPSHOTS,
        EDGES_PER_SNAPSHOT,
    );
    let mut rng = Rng::derive(seed, 2);
    let standing = inputs::distinct_descriptors(
        &mut rng,
        &snapshots,
        STANDING,
        &STRATEGIES,
        ROOTS,
        &HashSet::new(),
    );
    let twin = inputs::build_live(NODES, &snapshots);
    let standing_expected = standing.iter().map(|d| twin_json(&twin, d)).collect();
    let (ops, expected): (Vec<String>, BTreeMap<usize, String>) = match kind {
        Kind::Hot => (
            (0..kind.ops())
                .map(|i| inputs::query_body(&standing[i % STANDING]))
                .collect(),
            BTreeMap::new(),
        ),
        Kind::Cold => {
            let exclude: HashSet<_> = standing.iter().cloned().collect();
            let cold = inputs::distinct_descriptors(
                &mut rng,
                &snapshots,
                kind.ops(),
                &STRATEGIES,
                ROOTS,
                &exclude,
            );
            let expected = (0..cold.len())
                .filter(|i| i % COLD_SAMPLE_EVERY == 0)
                .map(|i| (i, twin_json(&twin, &cold[i])))
                .collect();
            (cold.iter().map(inputs::query_body).collect(), expected)
        }
    };
    Inputs {
        snapshots,
        standing: standing.iter().map(inputs::query_body).collect(),
        standing_expected,
        ops,
        expected,
    }
}

fn expected_body(kind: Kind, inputs: &Inputs, op: usize) -> Option<&String> {
    match kind {
        Kind::Hot => Some(&inputs.standing_expected[op % STANDING]),
        Kind::Cold => inputs.expected.get(&op),
    }
}

#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    op_us: Vec<f64>,
    transport_us: Vec<f64>,
    measured: Measured,
}

fn config() -> ServerConfig {
    ServerConfig {
        io_timeout: Some(Duration::from_secs(30)),
        ..ServerConfig::default()
    }
}

/// One episode: set up a server, run every op, check the answers and the
/// cache's exact counts. With `probe`, a `GET /health` follows every op.
fn episode(kind: Kind, inputs: &Inputs, probe: bool, totals: &mut Totals, book: &mut Book) {
    let setup = Instant::now();
    let live = inputs::build_live(NODES, &inputs.snapshots);
    let server = match Server::start(live, config()) {
        Ok(server) => server,
        Err(err) => {
            book.fail(format!("server failed to start: {err}"));
            return;
        }
    };
    let client = Client::new(server.addr());
    let mut warm_us = Vec::new();
    for (body, expected) in inputs.standing.iter().zip(&inputs.standing_expected) {
        let answer = harness::timed_post(&client, "/query", body, book, &mut warm_us);
        if answer.is_some_and(|answer| answer != *expected) {
            book.fail("a warm-up answer differs from the twin's".into());
        }
    }
    totals.setup_s.push(setup.elapsed().as_secs_f64());

    let before = server.cache_stats();
    let first_op = totals.op_us.len();
    let meter = Meter::start();
    for (op, body) in inputs.ops.iter().enumerate() {
        let answer = harness::timed_post(&client, "/query", body, book, &mut totals.op_us);
        if let (Some(answer), Some(expected)) = (answer, expected_body(kind, inputs, op)) {
            if answer != *expected {
                book.fail(format!("request {op}: the body differs from the twin's"));
            }
        }
        if probe {
            totals
                .transport_us
                .extend(harness::health_rtt_us(&client, book));
        }
    }
    meter.stop(&totals.op_us[first_op..], &mut totals.measured);
    let after = server.cache_stats();
    drop(server);

    let ops = inputs.ops.len() as u64;
    match kind {
        Kind::Hot => book.check(after.hits - before.hits == ops, || {
            format!(
                "query_hot: {} hits for {ops} requests",
                after.hits - before.hits
            )
        }),
        Kind::Cold => book.check(after.misses - before.misses == ops, || {
            format!(
                "query_cold: {} misses for {ops} requests",
                after.misses - before.misses
            )
        }),
    }
}

pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, report: &mut Report, book: &mut Book) {
    let inputs = inputs(kind, seed);
    report.reset_rss_peak();
    let mut totals = Totals::default();
    if !trace {
        harness::repeat_episodes(seconds, book, |book| {
            episode(kind, &inputs, false, &mut totals, book)
        });
        if !totals.setup_s.is_empty() {
            report.tail("/query", &totals.op_us);
            report.end_to_end(&totals.setup_s, &totals.op_us, &totals.measured);
        }
        return;
    }

    // Traced run: one probed untraced episode for the over-the-wire
    // reference, then the in-process replay through each layer.
    episode(kind, &inputs, true, &mut totals, book);
    if totals.setup_s.is_empty() {
        return;
    }
    report.tail("/query (untraced reference episode)", &totals.op_us);
    report.noise(&totals.measured);
    let transport_us = sys::median_or_zero(&totals.transport_us);
    let untraced_us = sys::median(&totals.op_us);
    let tracer = traced_replay(kind, &inputs, report, book);

    let traced_us: Vec<f64> = tracer
        .root_us("serve.request")
        .iter()
        .map(|request| request + transport_us)
        .collect();
    report.metric("serve.transport_us", transport_us, "us");
    report.reconcile(untraced_us, &traced_us);
    crate::write_trace(&tracer, kind.name(), seed, report);
}

fn engine_span(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Serial => "core.engine_serial",
        Strategy::Parallel => "core.engine_parallel",
        Strategy::SharedFrontier => "core.engine_shared",
        Strategy::Foremost => "core.engine_foremost",
        Strategy::Algebraic => "core.engine_algebraic",
    }
}

/// Replays the first ops of an episode in process, one span per layer call,
/// on a twin server state (same graph, same warmed cache). Misses also run
/// their engine alone, once timed and once on a `CountingView`.
fn traced_replay(kind: Kind, inputs: &Inputs, report: &mut Report, book: &mut Book) -> Tracer {
    let mut tracer = Tracer::new();
    // The set-up's bulk build, one apply span and one seal span per snapshot.
    let mut live = LiveGraph::directed(NODES);
    for (label, snapshot) in inputs.snapshots.iter().enumerate() {
        tracer.span("stream.live_apply", 0, |_| {
            for &(u, v) in snapshot {
                live.insert(u, v).expect("generated edges are in range");
            }
        });
        tracer
            .span("stream.live_seal", 0, |_| live.seal_snapshot(label as i64))
            .expect("labels increase");
    }
    let cache = QueryCache::new();
    for body in &inputs.standing {
        let descriptor = descriptor_from_json(body).expect("generated bodies decode");
        cache
            .execute(&live, &descriptor.to_search())
            .expect("generated roots are active");
    }
    let mut body_bytes = Vec::new();
    let (mut neighbors, mut expansions, mut engine_calls) = (Vec::new(), Vec::new(), 0u64);
    for (op, body) in inputs.ops.iter().enumerate().take(kind.traced_ops()) {
        let req = op as u64;
        let wire = inputs::request_bytes("/query", body);
        let (answer, missed) = tracer.span("serve.request", req, |t| {
            let request = t
                .span("serve.http_parse", req, |_| {
                    http::read_request(&mut Cursor::new(&wire), config().max_body_bytes)
                })
                .expect("generated requests parse");
            let (descriptor, search) = t.span("query.decode", req, |_| {
                let descriptor =
                    descriptor_from_json(&request.body).expect("generated bodies decode");
                let search = descriptor.to_search();
                (descriptor, search)
            });
            let peeked = t.span("stream.cache_peek", req, |_| cache.peek(&live, &search));
            let (result, missed) = match peeked {
                Some(result) => (result, None),
                None => {
                    let (result, outcome) = t
                        .span("stream.cache_execute", req, |_| {
                            cache.execute_traced(&live, &search)
                        })
                        .expect("generated roots are active");
                    (
                        result,
                        (outcome == CacheOutcome::Miss).then_some((descriptor, search)),
                    )
                }
            };
            let answer = t.span("query.encode", req, |_| search_result_to_json(&result));
            let written = t.span("serve.http_write", req, |_| {
                let mut sink = Vec::with_capacity(answer.len() + 256);
                http::write_response(&mut sink, 200, &answer).expect("writing to memory succeeds");
                sink.len()
            });
            std::hint::black_box(written);
            (answer, missed)
        });
        body_bytes.push(answer.len() as f64);
        if expected_body(kind, inputs, op).is_some_and(|expected| *expected != answer) {
            book.fail(format!(
                "traced request {op}: the body differs from the twin's"
            ));
        }
        if let Some((descriptor, search)) = missed {
            engine_calls += 1;
            tracer.span(engine_span(descriptor.strategy()), req, |_| {
                std::hint::black_box(
                    search
                        .run(live.graph())
                        .expect("generated roots are active"),
                )
            });
            let view = CountingView::new(live.graph());
            search.run(&view).expect("generated roots are active");
            let counters = view.counters();
            neighbors.push(counters.neighbors_delivered as f64);
            expansions.push(counters.expansions() as f64);
        }
    }

    report.self_times(
        &tracer,
        &[
            ("serve.http_parse_us", "serve.http_parse"),
            ("serve.http_write_us", "serve.http_write"),
            ("query.decode_us", "query.decode"),
            ("query.encode_us", "query.encode"),
            ("stream.cache_peek_us", "stream.cache_peek"),
            ("stream.cache_execute_us", "stream.cache_execute"),
            ("stream.live_apply_us", "stream.live_apply"),
            ("stream.live_seal_us", "stream.live_seal"),
            ("core.engine_serial_us", "core.engine_serial"),
            ("core.engine_parallel_us", "core.engine_parallel"),
            ("core.engine_shared_us", "core.engine_shared"),
        ],
    );
    report.metric("query.body_bytes", sys::median(&body_bytes), "B");
    report.metric("core.engine_calls", engine_calls as f64, "count");
    report.metric(
        "core.neighbors_delivered",
        sys::median_or_zero(&neighbors),
        "count",
    );
    report.metric("core.expansions", sys::median_or_zero(&expansions), "count");
    crate::cache_metrics(&cache, report);
    tracer
}
