//! The read path: `POST /query`, `POST /subscribe` and its push frames,
//! `GET /stats` and `GET /health`.

use std::fmt::Display;
use std::net::TcpStream;
use std::sync::Arc;

use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::TimeIndex;
use egraph_io::{write_json_i64, write_json_string, write_json_u64};
use egraph_query::codec::{
    descriptor_from_json, search_result_json_capacity, write_search_result_json,
};
use egraph_query::{QueryDescriptor, Search, SearchResult};
use egraph_stream::{CacheOutcome, LiveGraph};

use super::{answer, lock, read_live, reject, Shared, Subscriber};
use crate::http::{self, Request};
use crate::singleflight::Admission;
use crate::ServerStats;

/// Decodes a request body's descriptor, refusing a bad one with `400`.
fn descriptor(
    shared: &Shared,
    stream: &mut TcpStream,
    request: &Request,
) -> Option<QueryDescriptor> {
    match descriptor_from_json(&request.body) {
        Ok(descriptor) => Some(descriptor),
        Err(err) => {
            reject(shared, stream, 400, &err.to_string());
            None
        }
    }
}

pub(super) fn handle_query(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    let Some(descriptor) = descriptor(shared, &mut stream, request) else {
        return;
    };
    let search = descriptor.to_search();

    // Tier 1: a current entry serves straight off the shard read lock —
    // the hot path for standing queries, bypassing admission entirely.
    let peeked = {
        let live = read_live(shared);
        shared.cache.peek(&live, &search)
    };
    if let Some(result) = peeked {
        answer(shared, &mut stream, Vec::new(), Ok(&result));
        return;
    }

    // Tier 2: single-flight. Parked connections are answered by the
    // leader; this handler is done with them either way.
    let Admission::Leader(mut own, leader) = shared.flight.admit(&descriptor, stream) else {
        return;
    };
    if let Some(count) = shared.config.hold_leader_until_waiters {
        leader.wait_for_waiters(count);
    }

    // Failpoint: a scripted delay here stretches the cold computation,
    // which is how the chaos suite pins connection threads to manufacture
    // overload deterministically.
    let _ = egraph_fault::fired("serve.query.compute");

    // Tier 3: compute through the cache, under the graph's read lock (the
    // graph cannot move mid-computation; concurrent `/query`s share the
    // read side, only `/ingest` writes).
    let computed = {
        let live = read_live(shared);
        shared.cache.execute_traced(&live, &search)
    };
    let waiters = leader.finish();
    let computed = computed.as_ref().map(|(result, _)| &**result);
    answer(
        shared,
        &mut own,
        waiters,
        computed.map_err(|err| err.to_string()),
    );
}

pub(super) fn handle_subscribe(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    let Some(descriptor) = descriptor(shared, &mut stream, request) else {
        return;
    };

    // Registration happens under `seal_lock`, so the initial frame and the
    // subscription list entry are atomic with respect to the publish
    // section: no seal can fall between them (which would either skip a
    // frame or double-send one).
    let _ordering = lock(&shared.seal_lock);
    let initial = {
        let live = read_live(shared);
        let search = descriptor.to_search();
        let counters = *lock(&shared.counters);
        standing_frame(shared, &live, &search, 0, None, &counters)
    };
    match initial {
        Err(message) => reject(shared, &mut stream, 422, &message),
        Ok(frame) => {
            // All that is left after the initial frame is registering the
            // subscriber, so the thread counts as finishing from here.
            shared.connections.finishing();
            if http::write_chunked_head(&mut stream).is_err()
                || http::write_chunk(&mut stream, &frame).is_err()
            {
                return; // client vanished before the stream opened
            }
            shared.count(|c| {
                c.frames_pushed += 1;
                c.subscriptions_opened += 1;
            });
            lock(&shared.subscribers).push(Subscriber {
                stream,
                descriptor,
                seq: 1,
            });
        }
    }
}

/// Re-executes every standing subscription at the current version and
/// pushes one frame each, labelled with the newest snapshot's label;
/// subscribers whose sockets are gone are dropped. Runs in the publish
/// section, after the write lock has been released — pushes overlap new
/// `/query` reads, never block them.
pub(super) fn broadcast_frames(shared: &Shared) {
    let live = read_live(shared);
    let (version, label) = (live.version(), newest_label(&live));
    let counters = *lock(&shared.counters);
    let mut subscribers = lock(&shared.subscribers);
    let mut frames_pushed = 0u64;
    subscribers.retain_mut(|subscriber| {
        let search = subscriber.descriptor.to_search();
        let seq = subscriber.seq;
        let frame = standing_frame(shared, &live, &search, seq, label, &counters).unwrap_or_else(
            |message| frame_body(seq, version, label, "error", &counters, Err(&message)),
        );
        subscriber.seq += 1;
        let delivered = http::write_chunk(&mut subscriber.stream, &frame).is_ok();
        if delivered {
            frames_pushed += 1;
        }
        delivered
    });
    shared.count(|c| c.frames_pushed += frames_pushed);
}

/// The label of `live`'s newest sealed snapshot, which every frame after a
/// subscription's initial one carries.
fn newest_label(live: &LiveGraph) -> Option<i64> {
    let newest = live.num_sealed().checked_sub(1)?;
    Some(live.graph().timestamp(TimeIndex::from_index(newest)))
}

/// Answers one standing query through the cache at `live`'s version and
/// renders its push frame; `Err` carries the failing query's message.
fn standing_frame(
    shared: &Shared,
    live: &LiveGraph,
    search: &Search,
    seq: u64,
    label: Option<i64>,
    log: &ServerStats,
) -> Result<String, String> {
    let (result, outcome) = shared
        .cache
        .execute_traced(live, search)
        .map_err(|err| err.to_string())?;
    Ok(frame_body(
        seq,
        live.version(),
        label,
        outcome_name(outcome),
        log,
        Ok(&result),
    ))
}

/// One push frame. `result` is `Err(message)` when the standing query
/// failed at this version (the stream stays open — it may heal).
fn frame_body(
    seq: u64,
    version: u64,
    label: Option<i64>,
    outcome: &str,
    log: &ServerStats,
    result: Result<&SearchResult, &str>,
) -> String {
    // The header is at most 320 bytes (every counter at 20 digits) and
    // the result at most its capacity bound, so the frame is written into
    // one buffer with no regrowth.
    const HEADER_BYTES: usize = 320;
    let body_bound = result.map_or(0, search_result_json_capacity);
    let mut out = String::with_capacity(HEADER_BYTES + body_bound);
    out.push_str("{\"seq\": ");
    write_json_u64(&mut out, seq);
    out.push_str(", \"version\": ");
    write_json_u64(&mut out, version);
    if let Some(label) = label {
        out.push_str(", \"label\": ");
        write_json_i64(&mut out, label);
    }
    out.push_str(", \"segments_sealed\": ");
    write_json_u64(&mut out, log.segments_sealed);
    out.push_str(", \"segments_replayed\": ");
    write_json_u64(&mut out, log.segments_replayed);
    out.push_str(", \"follower_lag_seals\": ");
    write_json_u64(&mut out, log.follower_lag_seals);
    out.push_str(", \"outcome\": ");
    write_json_string(&mut out, outcome);
    match result {
        Ok(result) => {
            out.push_str(", \"result\": ");
            write_search_result_json(&mut out, result);
        }
        Err(message) => {
            out.push_str(", \"error\": ");
            write_json_string(&mut out, message);
        }
    }
    out.push('}');
    out
}

fn outcome_name(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Miss => "miss",
        CacheOutcome::Hit => "hit",
        CacheOutcome::Extended => "extended",
        CacheOutcome::Redimensioned => "redimensioned",
        CacheOutcome::Resettled => "resettled",
        CacheOutcome::Recomputed => "recomputed",
    }
}

// ---------------------------------------------------------------------------
// GET /stats and GET /health
// ---------------------------------------------------------------------------

pub(super) fn server_stats(shared: &Shared) -> ServerStats {
    let mut stats = *lock(&shared.counters);
    let threads = shared.connections.counts();
    stats.connection_threads_created = threads.created;
    stats.connection_threads_alive = threads.alive;
    stats.checkpoints = lock(&shared.checkpointer).stats();
    // Disk gauges: bytes held by manifest + segment files, and by
    // installed checkpoint files; zero on a server without a log.
    if let Some(log) = shared.log.as_ref() {
        let log = lock(log);
        stats.segments_bytes = log.segments_bytes();
        stats.checkpoint_bytes = egraph_log::checkpoints_bytes(log.dir());
    }
    stats
}

/// One section of the `/stats` document: `"name": {"key": value, ...}`.
fn section(name: &str, fields: &[(&str, &dyn Display)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("\"{name}\": {{{}}}", fields.join(", "))
}

pub(super) fn stats_body(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let (version, num_sealed, num_nodes) = {
        let live = read_live(shared);
        (live.version(), live.num_sealed(), live.graph().num_nodes())
    };
    let subscribers = lock(&shared.subscribers).len();
    let server = server_stats(shared);
    let checkpoints = server.checkpoints;
    let sections = [
        section(
            "cache",
            &[
                ("hits", &cache.hits),
                ("extensions", &cache.extensions),
                ("extended_shared", &cache.extended_shared),
                ("redimensioned", &cache.redimensioned),
                ("stable_core_resettled", &cache.stable_core_resettled),
                ("recomputes", &cache.recomputes),
                ("misses", &cache.misses),
                ("evictions", &cache.evictions),
                ("coalesced", &cache.coalesced),
                ("requests", &cache.requests()),
                ("hit_rate", &format!("{:.6}", cache.hit_rate())),
            ],
        ),
        section(
            "server",
            &[
                ("requests", &server.requests),
                ("bad_requests", &server.bad_requests),
                ("subscribers", &subscribers),
                ("subscriptions_opened", &server.subscriptions_opened),
                ("frames_pushed", &server.frames_pushed),
                ("requests_shed", &server.requests_shed),
                (
                    "connection_threads_created",
                    &server.connection_threads_created,
                ),
                ("connection_threads_alive", &server.connection_threads_alive),
                ("tail_read_errors", &server.tail_read_errors),
                ("ingest_forwarded", &server.ingest_forwarded),
                ("forward_failures", &server.forward_failures),
            ],
        ),
        section(
            "log",
            &[
                ("segments_sealed", &server.segments_sealed),
                ("segments_replayed", &server.segments_replayed),
                ("follower_lag_seals", &server.follower_lag_seals),
                ("segments_bytes", &server.segments_bytes),
                ("checkpoint_bytes", &server.checkpoint_bytes),
                ("segments_compacted", &checkpoints.segments_compacted),
                ("checkpoints_written", &checkpoints.written),
                ("checkpoint_bases_written", &checkpoints.bases_written),
                ("checkpoint_failures", &checkpoints.failures),
                ("checkpoint_us_total", &checkpoints.us_total),
                ("checkpoint_bytes_written", &checkpoints.bytes_written),
                ("recovery_replayed_events", &server.recovery_replayed_events),
            ],
        ),
        section(
            "graph",
            &[
                ("version", &version),
                ("num_sealed", &num_sealed),
                ("num_nodes", &num_nodes),
            ],
        ),
    ];
    format!("{{{}}}", sections.join(", "))
}

pub(super) fn health_body(shared: &Shared) -> String {
    let live = read_live(shared);
    format!(
        "{{\"ok\": true, \"version\": {}, \"num_sealed\": {}}}",
        live.version(),
        live.num_sealed()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_query::codec::search_result_to_json;

    #[test]
    fn frames_carry_sequence_version_label_log_counters_and_outcome() {
        let labels = ServerStats {
            segments_sealed: 4,
            segments_replayed: 2,
            follower_lag_seals: 1,
            ..ServerStats::default()
        };
        let frame = frame_body(3, 9, Some(41), "extended", &labels, Err("window moved"));
        assert_eq!(
            frame,
            "{\"seq\": 3, \"version\": 9, \"label\": 41, \"segments_sealed\": 4, \
             \"segments_replayed\": 2, \"follower_lag_seals\": 1, \
             \"outcome\": \"extended\", \"error\": \"window moved\"}"
        );
        let initial = frame_body(0, 1, None, "miss", &labels, Err("x"));
        assert!(!initial.contains("\"label\""));
    }

    #[test]
    fn frames_embed_the_streamed_result_document_verbatim() {
        let g = egraph_core::examples::paper_figure1();
        let result = egraph_query::Search::from(egraph_core::ids::TemporalNode::from_raw(0, 0))
            .with_parents()
            .run(&g)
            .unwrap();
        let labels = ServerStats {
            segments_sealed: 0,
            segments_replayed: 1 << 40,
            follower_lag_seals: 7,
            ..ServerStats::default()
        };
        let frame = frame_body(1, 2, Some(i64::MIN), "hit", &labels, Ok(&result));
        let head = format!(
            "{{\"seq\": 1, \"version\": 2, \"label\": {}, \"segments_sealed\": 0, \
             \"segments_replayed\": {}, \"follower_lag_seals\": 7, \"outcome\": \"hit\", \
             \"result\": ",
            i64::MIN,
            1u64 << 40
        );
        assert_eq!(frame, format!("{head}{}}}", search_result_to_json(&result)));
        let parsed = egraph_io::parse_value(&frame).unwrap();
        let obj = parsed.as_object("frame").unwrap();
        assert_eq!(obj.get("label").unwrap().as_i64("label").unwrap(), i64::MIN);
    }
}
