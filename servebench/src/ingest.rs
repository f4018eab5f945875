//! `ingest_durable`: writes beside reads on a durable leader.
//!
//! Untimed prep writes a seeded event log (fsync on every seal, a
//! checkpoint every [`CHECKPOINT_EVERY`] seals) into a directory under the
//! checkout. Each episode copies that log into a fresh data directory and
//! sets up by recovering it (`DurableGraph::open`), starting the durable
//! server, subscribing and warming the standing set. Then it runs
//! [`ROUNDS`] rounds, each one operation:
//!
//! 1. `/ingest` of [`EVENTS_PER_ROUND`] events with a seal,
//! 2. read that seal's subscription frame,
//! 3. [`READS_PER_ROUND`] `/query` reads cycling twice over the standing
//!    set — the first read of each after the seal takes the cache's repair
//!    path (extension forward, stable-core resettle backward), the second
//!    is a hit.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use egraph_core::csr::CsrAdjacency;
use egraph_io::checkpoint::{decode_checkpoint, encode_checkpoint};
use egraph_log::EventLog;
use egraph_query::codec::{descriptor_from_json, search_result_to_json};
use egraph_query::{QueryDescriptor, Search, Strategy};
use egraph_serve::{http, Client, Server, ServerConfig};
use egraph_stream::durable::{event_to_record, replay_segment};
use egraph_stream::{DurableGraph, EdgeEvent, LiveGraph, QueryCache};

use crate::harness::{self, Book, Measured, Meter, Report};
use crate::inputs::{self, Rng, Roots, Snapshot};
use crate::sys;
use crate::trace::Tracer;

const NODES: usize = 1_000;
const PREP_SEALS: usize = 300;
const PREP_EVENTS_PER_SEAL: usize = 8_000;
const CHECKPOINT_EVERY: u64 = 16;
const RETAIN_CHECKPOINTS: usize = 2;
const ROUNDS: usize = 32;
const EVENTS_PER_ROUND: usize = 300;
const STANDING: usize = 4;
const READS_PER_ROUND: usize = 2 * STANDING;
/// Rounds whose frame and reads are checked against the twin.
const SAMPLE_EVERY: usize = 4;
/// Forward roots in the last two prep snapshots, backward roots in the
/// first two: answers stay small while the history is long.
const ROOTS: (Roots, usize) = (Roots::Edge, 2);

struct Inputs {
    prep: Vec<Snapshot>,
    rounds: Vec<Snapshot>,
    /// `/ingest` body of each round.
    ingest: Vec<String>,
    subscription: QueryDescriptor,
    standing: Vec<String>,
    /// Twin answers at the prep version: the subscription's, then each
    /// standing query's.
    warm_expected: (String, Vec<String>),
    /// Twin answers after sampled rounds, same layout.
    expected: BTreeMap<usize, (String, Vec<String>)>,
}

fn label(round: usize) -> i64 {
    (PREP_SEALS + round) as i64
}

fn answers(live: &LiveGraph, subscription: &Search, standing: &[Search]) -> (String, Vec<String>) {
    let json = |search: &Search| {
        search_result_to_json(
            &search
                .run(live.graph())
                .expect("generated roots are active"),
        )
    };
    (json(subscription), standing.iter().map(json).collect())
}

fn inputs(seed: u64) -> Inputs {
    let prep = inputs::random_snapshots(
        &mut Rng::derive(seed, 1),
        NODES,
        PREP_SEALS,
        PREP_EVENTS_PER_SEAL,
    );
    let rounds =
        inputs::random_snapshots(&mut Rng::derive(seed, 3), NODES, ROUNDS, EVENTS_PER_ROUND);
    let strategies = [Strategy::Serial, Strategy::SharedFrontier];
    let mut queries = inputs::distinct_descriptors(
        &mut Rng::derive(seed, 2),
        &prep,
        STANDING + 1,
        &strategies,
        ROOTS,
        &HashSet::new(),
    );
    let subscription = queries.pop().expect("one more than the standing set");
    let sub_search = subscription.to_search();
    let standing_search: Vec<Search> = queries.iter().map(QueryDescriptor::to_search).collect();

    let mut twin = inputs::build_live(NODES, &prep);
    let warm_expected = answers(&twin, &sub_search, &standing_search);
    let mut expected = BTreeMap::new();
    for (round, events) in rounds.iter().enumerate() {
        for &(u, v) in events {
            twin.insert(u, v).expect("generated edges are in range");
        }
        twin.seal_snapshot(label(round)).expect("labels increase");
        if round % SAMPLE_EVERY == 0 {
            expected.insert(round, answers(&twin, &sub_search, &standing_search));
        }
    }
    Inputs {
        ingest: rounds
            .iter()
            .enumerate()
            .map(|(round, events)| inputs::ingest_body(events, label(round)))
            .collect(),
        prep,
        rounds,
        subscription,
        standing: queries.iter().map(inputs::query_body).collect(),
        warm_expected,
        expected,
    }
}

/// A directory under the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> std::io::Result<WorkDir> {
        let path = crate::out_dir().join(format!("work-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes the prep log: every prep snapshot sealed (and fsynced) through a
/// `DurableGraph` with the same checkpoint policy the server runs.
fn write_prep(inputs: &Inputs, dir: &Path) -> Result<(), String> {
    let mut graph = DurableGraph::create(dir, NODES, true).map_err(|e| e.to_string())?;
    graph.set_checkpoint_policy(CHECKPOINT_EVERY, RETAIN_CHECKPOINTS);
    for (label, events) in inputs.prep.iter().enumerate() {
        for &(u, v) in events {
            graph.insert(u, v).map_err(|e| e.to_string())?;
        }
        graph
            .seal_snapshot(label as i64)
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn copy_log(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Names and sizes of the segment and checkpoint files in `dir`.
fn log_files(dir: &Path) -> HashMap<String, u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return HashMap::new();
    };
    entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let counted = (name.starts_with("seg-") && name.ends_with(".seg"))
                || (name.starts_with("checkpoint-") && name.ends_with(".bin"));
            counted.then(|| Some((name, entry.metadata().ok()?.len())))?
        })
        .collect()
}

#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    round_us: Vec<f64>,
    seal_ack_us: Vec<f64>,
    frame_us: Vec<f64>,
    read_us: Vec<f64>,
    transport_us: Vec<f64>,
    log_bytes: u64,
    events: u64,
    measured: Measured,
}

fn config() -> ServerConfig {
    ServerConfig {
        io_timeout: Some(Duration::from_secs(30)),
        checkpoint_every: CHECKPOINT_EVERY,
        retain_checkpoints: RETAIN_CHECKPOINTS,
        ..ServerConfig::default()
    }
}

fn check_frame(frame: &str, expected: &str) -> bool {
    frame
        .strip_suffix('}')
        .and_then(|head| head.strip_suffix(expected))
        .is_some_and(|head| head.ends_with("\"result\": "))
}

/// One episode over a fresh copy of the prep log. With `probe`, a
/// `GET /health` follows every round.
fn episode(
    inputs: &Inputs,
    prep: &Path,
    work: &Path,
    probe: bool,
    totals: &mut Totals,
    book: &mut Book,
) {
    let data = work.join("data");
    let _ = std::fs::remove_dir_all(&data);
    if let Err(err) = copy_log(prep, &data) {
        book.fail(format!("copying the prep log failed: {err}"));
        return;
    }
    let on_disk_before = log_files(&data);

    let setup = Instant::now();
    let recovered = match DurableGraph::open(&data) {
        Ok(recovered) => recovered,
        Err(err) => {
            book.fail(format!("recovery failed: {err}"));
            return;
        }
    };
    let recovered_sealed = recovered.graph.live().num_sealed();
    let server = match Server::start_durable(recovered, config()) {
        Ok(server) => server,
        Err(err) => {
            book.fail(format!("durable server failed to start: {err}"));
            return;
        }
    };
    let client = Client::new(server.addr());
    let mut subscription = match client.subscribe(&inputs.subscription) {
        Ok(subscription) => subscription,
        Err(err) => {
            book.fail(format!("subscribe failed: {err}"));
            return;
        }
    };
    let initial = subscription.next_frame();
    let mut warm_us = Vec::new();
    let warm: Vec<Option<String>> = inputs
        .standing
        .iter()
        .map(|body| harness::timed_post(&client, "/query", body, book, &mut warm_us))
        .collect();
    totals.setup_s.push(setup.elapsed().as_secs_f64());

    book.check(recovered_sealed == PREP_SEALS, || {
        format!("recovered {recovered_sealed} sealed snapshots, prep sealed {PREP_SEALS}")
    });
    let (sub_expected, standing_expected) = &inputs.warm_expected;
    book.check(
        matches!(&initial, Ok(Some(frame)) if check_frame(frame, sub_expected)),
        || "the initial subscription frame differs from the twin's".into(),
    );
    for (answer, expected) in warm.iter().zip(standing_expected) {
        book.check(answer.as_ref().is_none_or(|a| a == expected), || {
            "a warm-up answer differs from the twin's".into()
        });
    }

    let before = server.cache_stats();
    let frames_before = server.stats().frames_pushed;
    let mut on_disk = on_disk_before.clone();
    let mut frames = 0u64;
    let first_round = totals.round_us.len();
    let meter = Meter::start();
    for (round, body) in inputs.ingest.iter().enumerate() {
        let start = Instant::now();
        let mut ack_us = Vec::with_capacity(1);
        let ack = harness::timed_post(&client, "/ingest", body, book, &mut ack_us);
        let sealed = (PREP_SEALS + round + 1).to_string();
        book.check(
            ack.as_ref()
                .is_none_or(|ack| ack.contains(&format!("\"num_sealed\": {sealed}"))),
            || format!("round {round}: the ack does not report {sealed} sealed snapshots"),
        );
        let frame_start = Instant::now();
        let frame = subscription.next_frame();
        let frame_us = frame_start.elapsed().as_secs_f64() * 1e6;
        let mut reads = Vec::with_capacity(READS_PER_ROUND);
        for q in 0..READS_PER_ROUND {
            reads.push(harness::timed_post(
                &client,
                "/query",
                &inputs.standing[q % STANDING],
                book,
                &mut totals.read_us,
            ));
        }
        totals.round_us.push(start.elapsed().as_secs_f64() * 1e6);
        totals.seal_ack_us.extend(ack_us);
        totals.frame_us.push(frame_us);

        match &frame {
            Ok(Some(_)) => frames += 1,
            Ok(None) => book.fail(format!("round {round}: the subscription closed")),
            Err(err) => book.fail(format!("round {round}: frame read failed: {err}")),
        }
        if let Some((sub_expected, standing_expected)) = inputs.expected.get(&round) {
            book.check(
                matches!(&frame, Ok(Some(frame)) if check_frame(frame, sub_expected)),
                || format!("round {round}: the frame differs from the twin's"),
            );
            for (q, read) in reads.iter().enumerate() {
                book.check(
                    read.as_ref()
                        .is_none_or(|r| *r == standing_expected[q % STANDING]),
                    || format!("round {round}: read {q} differs from the twin's"),
                );
            }
        }
        for (name, size) in log_files(&data) {
            on_disk.insert(name, size);
        }
        if probe {
            totals
                .transport_us
                .extend(harness::health_rtt_us(&client, book));
        }
    }
    meter.stop(&totals.round_us[first_round..], &mut totals.measured);
    let after = server.cache_stats();
    let frames_pushed = server.stats().frames_pushed - frames_before;
    drop(subscription);
    drop(server);

    book.check(after.recomputes == before.recomputes, || {
        format!("{} recomputes", after.recomputes - before.recomputes)
    });
    book.check(
        frames == ROUNDS as u64 && frames_pushed == ROUNDS as u64,
        || format!("{frames} frames read and {frames_pushed} pushed for {ROUNDS} seals"),
    );
    totals.log_bytes += on_disk
        .iter()
        .filter(|(name, _)| !on_disk_before.contains_key(*name))
        .map(|(_, size)| size)
        .sum::<u64>();
    totals.events += (ROUNDS * EVENTS_PER_ROUND) as u64;
}

pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report, book: &mut Book) {
    let inputs = inputs(seed);
    let work = match WorkDir::new("ingest") {
        Ok(work) => work,
        Err(err) => {
            book.fail(format!("cannot create the work directory: {err}"));
            return;
        }
    };
    let prep = work.0.join("prep");
    if let Err(err) = write_prep(&inputs, &prep) {
        book.fail(format!("prep failed: {err}"));
        return;
    }
    report.reset_rss_peak();
    let mut totals = Totals::default();
    if !trace {
        harness::repeat_episodes(seconds, book, |book| {
            episode(&inputs, &prep, &work.0, false, &mut totals, book)
        });
        if !totals.setup_s.is_empty() {
            report.note(format!(
                "log_bytes_per_event: {:.3} B ({} B for {} events)",
                totals.log_bytes as f64 / totals.events as f64,
                totals.log_bytes,
                totals.events
            ));
            report.tail("round", &totals.round_us);
            report.tail("seal ack", &totals.seal_ack_us);
            report.tail("/query read", &totals.read_us);
            report.end_to_end(&totals.setup_s, &totals.round_us, &totals.measured);
        }
        return;
    }

    episode(&inputs, &prep, &work.0, true, &mut totals, book);
    if totals.setup_s.is_empty() {
        return;
    }
    report.tail("round (untraced reference episode)", &totals.round_us);
    report.noise(&totals.measured);
    let transport_us = sys::median_or_zero(&totals.transport_us);
    let untraced_us = sys::median(&totals.round_us);
    report.metric("serve.transport_us", transport_us, "us");
    report.metric(
        "serve.seal_ack_p50_us",
        sys::median(&totals.seal_ack_us),
        "us",
    );
    report.metric("serve.frame_p50_us", sys::median(&totals.frame_us), "us");
    report.metric("serve.read_p50_us", sys::median(&totals.read_us), "us");
    report.metric(
        "log.bytes_per_event",
        totals.log_bytes as f64 / totals.events as f64,
        "B",
    );

    let tracer = match traced_replay(&inputs, &prep, &work.0.join("traced"), report, book) {
        Ok(tracer) => tracer,
        Err(err) => {
            book.fail(format!("traced replay failed: {err}"));
            return;
        }
    };
    // Each round sends 1 + READS_PER_ROUND requests over the wire.
    let requests = (1 + READS_PER_ROUND) as f64;
    let traced_us: Vec<f64> = tracer
        .root_us("round")
        .iter()
        .map(|round| round + requests * transport_us)
        .collect();
    report.reconcile(untraced_us, &traced_us);
    crate::write_trace(&tracer, "ingest_durable", seed, report);
}

/// One `/query` read replayed through the layers, as the server runs it.
fn traced_read(
    t: &mut Tracer,
    req: u64,
    body: &str,
    live: &LiveGraph,
    cache: &QueryCache,
) -> String {
    let wire = inputs::request_bytes("/query", body);
    let request = t
        .span("serve.http_parse", req, |_| {
            http::read_request(&mut Cursor::new(&wire), config().max_body_bytes)
        })
        .expect("generated requests parse");
    let search = t.span("query.decode", req, |_| {
        descriptor_from_json(&request.body)
            .expect("generated bodies decode")
            .to_search()
    });
    let result = match t.span("stream.cache_peek", req, |_| cache.peek(live, &search)) {
        Some(result) => result,
        None => t
            .span("stream.cache_execute", req, |_| {
                cache.execute(live, &search)
            })
            .expect("generated roots are active"),
    };
    let answer = t.span("query.encode", req, |_| search_result_to_json(&result));
    t.span("serve.http_write", req, |_| {
        let mut sink = Vec::with_capacity(answer.len() + 256);
        http::write_response(&mut sink, 200, &answer).expect("writing to memory succeeds");
    });
    answer
}

/// Replays recovery and every round in process, one span per layer call,
/// on its own copy of the prep log.
fn traced_replay(
    inputs: &Inputs,
    prep: &Path,
    dir: &Path,
    report: &mut Report,
    book: &mut Book,
) -> Result<Tracer, String> {
    let _ = std::fs::remove_dir_all(dir);
    copy_log(prep, dir).map_err(|e| e.to_string())?;
    let mut t = Tracer::new();

    // Recovery, as `DurableGraph::open` runs it: open the log, load the
    // newest checkpoint, replay the segments sealed after it.
    let recovered = t
        .span("recover.log_open", 0, |_| EventLog::open(dir))
        .map_err(|e| e.to_string())?;
    let (mut live, last_seq) = t.span("recover.checkpoint_load", 0, |_| {
        let last_seq = *egraph_log::list_checkpoints(dir)
            .map_err(|e| e.to_string())?
            .last()
            .ok_or("the prep log has no checkpoint")?;
        let payload = egraph_log::read_checkpoint(dir, last_seq).map_err(|e| e.to_string())?;
        let (parts, version) = decode_checkpoint(&payload).map_err(|e| e.to_string())?;
        let csr = CsrAdjacency::from_parts(parts)?;
        Ok::<_, String>((LiveGraph::from_csr_at_version(csr, version), last_seq))
    })?;
    let replayed = t.span("recover.replay", 0, |_| {
        let mut replayed = 0u64;
        for segment in recovered.segments.iter().filter(|s| s.seq > last_seq) {
            replay_segment(&mut live, segment).map_err(|e| e.to_string())?;
            replayed += segment.events.len() as u64;
        }
        Ok::<_, String>(replayed)
    })?;
    book.check(live.num_sealed() == PREP_SEALS, || {
        format!(
            "traced recovery rebuilt {} sealed snapshots",
            live.num_sealed()
        )
    });
    let mut log = recovered.log;

    let cache = QueryCache::new();
    let subscription = inputs.subscription.to_search();
    cache
        .execute(&live, &subscription)
        .map_err(|e| e.to_string())?;
    for body in &inputs.standing {
        traced_read(&mut Tracer::new(), 0, body, &live, &cache);
    }

    let (mut seal_wait_us, mut body_bytes) = (Vec::new(), Vec::new());
    let (mut segment_bytes, mut checkpoint_bytes) = (0u64, 0u64);
    for (round, events) in inputs.rounds.iter().enumerate() {
        let req = round as u64 + 1;
        let label = label(round);
        let (frame, reads) = t.span("round", req, |t| {
            let wire = inputs::request_bytes("/ingest", &inputs.ingest[round]);
            let request = t
                .span("serve.http_parse", req, |_| {
                    http::read_request(&mut Cursor::new(&wire), config().max_body_bytes)
                })
                .map_err(|e| format!("{e:?}"))?;
            t.span("serve.ingest_decode", req, |_| {
                egraph_io::parse_value(&request.body)
            })
            .map_err(|e| e.to_string())?;
            t.span("stream.live_apply", req, |_| {
                events
                    .iter()
                    .try_for_each(|&(u, v)| live.apply(EdgeEvent::insert(u, v)))
            })
            .map_err(|e| e.to_string())?;
            t.span("log.append", req, |_| {
                for &(u, v) in events {
                    log.append(event_to_record(&EdgeEvent::insert(u, v)));
                }
            });
            let (wall, cpu) = (Instant::now(), sys::thread_cpu_s());
            let sealed = t
                .span("log.seal", req, |_| log.seal(label))
                .map_err(|e| e.to_string())?;
            seal_wait_us.push((wall.elapsed().as_secs_f64() - (sys::thread_cpu_s() - cpu)) * 1e6);
            segment_bytes += sealed.bytes.len() as u64;
            t.span("stream.live_seal", req, |_| live.seal_snapshot(label))
                .map_err(|e| e.to_string())?;
            let result = t
                .span("stream.cache_execute", req, |_| {
                    cache.execute(&live, &subscription)
                })
                .map_err(|e| e.to_string())?;
            let frame = t.span("query.encode", req, |_| search_result_to_json(&result));
            let version = live.version();
            if version % CHECKPOINT_EVERY == 0 {
                checkpoint_bytes += t
                    .span("log.checkpoint", req, |_| {
                        let payload = encode_checkpoint(&live.graph().to_parts(), version);
                        let bytes = egraph_log::write_checkpoint(log.dir(), version - 1, &payload)?;
                        let retained =
                            egraph_log::retain_checkpoints(log.dir(), RETAIN_CHECKPOINTS)?;
                        log.compact_through(retained.first().copied().unwrap_or(version - 1))?;
                        Ok::<_, egraph_log::LogError>(bytes)
                    })
                    .map_err(|e| e.to_string())?;
            }
            t.span("serve.http_write", req, |_| {
                let mut sink = Vec::with_capacity(256);
                let ack = format!("{{\"version\": {version}}}");
                http::write_response(&mut sink, 200, &ack).expect("writing to memory succeeds");
            });
            let reads: Vec<String> = (0..READS_PER_ROUND)
                .map(|q| traced_read(t, req, &inputs.standing[q % STANDING], &live, &cache))
                .collect();
            Ok::<_, String>((frame, reads))
        })?;
        body_bytes.extend(reads.iter().map(|read| read.len() as f64));
        if let Some((sub_expected, standing_expected)) = inputs.expected.get(&round) {
            book.check(frame == *sub_expected, || {
                format!("traced round {round}: the frame differs from the twin's")
            });
            for (q, read) in reads.iter().enumerate() {
                book.check(*read == standing_expected[q % STANDING], || {
                    format!("traced round {round}: read {q} differs from the twin's")
                });
            }
        }
    }

    report.self_times(
        &t,
        &[
            ("serve.http_parse_us", "serve.http_parse"),
            ("serve.http_write_us", "serve.http_write"),
            ("query.decode_us", "query.decode"),
            ("query.encode_us", "query.encode"),
            ("stream.cache_peek_us", "stream.cache_peek"),
            ("stream.cache_execute_us", "stream.cache_execute"),
            ("stream.live_apply_us", "stream.live_apply"),
            ("stream.live_seal_us", "stream.live_seal"),
            ("log.append_us", "log.append"),
            ("log.seal_us", "log.seal"),
            ("log.checkpoint_us", "log.checkpoint"),
            ("recover.checkpoint_load_us", "recover.checkpoint_load"),
            ("recover.replay_us", "recover.replay"),
        ],
    );
    report.metric("log.seal_wait_us", sys::median(&seal_wait_us), "us");
    report.metric("log.segment_bytes", segment_bytes as f64, "B");
    report.metric("log.checkpoint_bytes", checkpoint_bytes as f64, "B");
    report.metric("recover.replayed_events", replayed as f64, "count");
    report.metric("query.body_bytes", sys::median(&body_bytes), "B");
    crate::cache_metrics(&cache, report);
    Ok(t)
}
