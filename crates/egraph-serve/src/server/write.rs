//! The write path: `POST /ingest` on a leader, the publish section every
//! visible change goes through, checkpointing, and the two replication
//! endpoints a leader serves, `GET /log/tail` and `GET /checkpoint/latest`.

use std::convert::Infallible;
use std::error::Error;
use std::net::TcpStream;
use std::sync::{Arc, MutexGuard};

use egraph_core::error::GraphError;
use egraph_log::Sealed;
use egraph_stream::durable::{event_to_record, newest_loadable_checkpoint};
use egraph_stream::{EdgeEvent, LiveGraph};

use super::follower::forward_ingest;
use super::read::broadcast_frames;
use super::{lock, read_live, reject, respond, respond_with, write_live, Shared};
use crate::http::{self, Request};

/// The parsed shape of an ingest body.
struct IngestRequest {
    grow_nodes: Option<usize>,
    events: Vec<(u32, u32)>,
    seal: Option<i64>,
}

fn parse_ingest(body: &str) -> Result<IngestRequest, Box<dyn Error>> {
    let value = egraph_io::parse_value(body)?;
    let object = value.as_object("ingest request")?;
    let grow_nodes = object
        .get_opt("grow_nodes")
        .map(|v| v.as_usize("grow_nodes"))
        .transpose()?;
    let mut events = Vec::new();
    if let Some(value) = object.get_opt("events") {
        let entries = value.as_array("events")?;
        events.reserve(entries.len());
        for entry in entries {
            let pair = entry.as_array("events entry")?;
            if pair.len() != 2 {
                return Err(format!(
                    "an events entry must be a [src, dst] pair, got {} elements",
                    pair.len()
                )
                .into());
            }
            events.push((pair[0].as_u32("event src")?, pair[1].as_u32("event dst")?));
        }
    }
    let seal = object
        .get_opt("seal")
        .map(|v| v.as_i64("seal label"))
        .transpose()?;
    if grow_nodes.is_none() && events.is_empty() && seal.is_none() {
        return Err("an ingest request must grow nodes, insert events, or seal".into());
    }
    Ok(IngestRequest {
        grow_nodes,
        events,
        seal,
    })
}

pub(super) fn handle_ingest(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    if let Some(ctl) = shared.follower.as_ref() {
        forward_ingest(shared, stream, request, ctl.leader);
        return;
    }
    let ingest = match parse_ingest(&request.body) {
        Ok(ingest) => ingest,
        Err(err) => {
            reject(shared, &mut stream, 400, &err.to_string());
            return;
        }
    };

    // The whole mutate→log→publish section is serialized: frames reach
    // subscribers in seal order, and subscription registration cannot
    // interleave into the middle of it.
    let ordering = lock(&shared.seal_lock);

    // Phase 1 — apply events under the write lock, mirroring each accepted
    // one into the log's open-segment buffer (a rejected event is never
    // logged), and validate the seal label *without* sealing.
    let applied = {
        let mut live = write_live(shared);
        let mut log = shared.log.as_ref().map(lock);
        let grow = ingest.grow_nodes.map(EdgeEvent::grow_nodes);
        let inserts = ingest
            .events
            .iter()
            .map(|&(src, dst)| EdgeEvent::insert(src, dst));
        let mut apply = |event: EdgeEvent| {
            live.apply(event)?;
            if let Some(log) = log.as_mut() {
                log.append(event_to_record(&event));
            }
            Ok::<(), GraphError>(())
        };
        let applied = grow.into_iter().chain(inserts).try_for_each(&mut apply);
        applied.and_then(|()| match ingest.seal {
            // `can_seal` is the only way a seal can fail; checking it here
            // means the fsync below commits a label the graph is
            // guaranteed to accept.
            Some(label) if !live.can_seal(label) => Err(GraphError::UnsortedTimestamps {
                position: live.num_sealed(),
            }),
            _ => Ok(()),
        })
    };
    if let Err(err) = applied {
        // Rejected events never become visible to queries — only sealed
        // snapshots are searched, and a failing request reaches no seal —
        // but events applied before the failure stay pending (in graph and
        // log alike), so a corrected retry continues from them.
        reject(shared, &mut stream, 422, &err.to_string());
        return;
    }

    // Phase 2 — write-ahead: fsync the segment before the snapshot becomes
    // visible or the request is acknowledged. No graph lock is held here,
    // so readers proceed while the disk syncs; `seal_lock` keeps other
    // writers out.
    let mut sealed: Option<Sealed> = None;
    if let (Some(label), Some(log)) = (ingest.seal, shared.log.as_ref()) {
        match lock(log).seal(label) {
            Ok(segment) => sealed = Some(segment),
            Err(err) => {
                // Durability failed: nothing was published and the seal is
                // not acknowledged. Events stay pending on both sides for
                // a retry once the disk recovers.
                let message = format!("failed to persist the seal: {err}");
                respond(shared, &mut stream, 500, &http::error_body(&message));
                return;
            }
        }
    }

    // Phase 3 — publish and acknowledge.
    let mut ack = (0, 0, None);
    let Ok(_) = publish(shared, &ordering, sealed.as_ref(), |live| {
        let sealed_index = ingest.seal.map(|label| {
            live.seal_snapshot(label)
                .expect("label was validated before the segment was fsynced")
                .index()
        });
        ack = (live.version(), live.num_sealed(), sealed_index);
        Ok::<_, Infallible>(sealed_index.is_some())
    });
    let (version, num_sealed, sealed_index) = ack;
    let sealed_json = match sealed_index {
        Some(index) => index.to_string(),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"version\": {version}, \"num_sealed\": {num_sealed}, \"sealed_index\": {sealed_json}}}"
    );
    respond(shared, &mut stream, 200, &body);
}

/// The publish section: every change a reader can see goes through here,
/// under `seal_lock` (the caller's `_ordering` guard). `mutate` moves the
/// graph under its write lock and returns whether a sealed snapshot became
/// visible. If one did, a durable leader's fsynced `segment` goes to the
/// tailers, every subscriber gets one frame, and a checkpoint is written
/// when one is due.
pub(super) fn publish<E>(
    shared: &Shared,
    _ordering: &MutexGuard<'_, ()>,
    segment: Option<&Sealed>,
    mutate: impl FnOnce(&mut LiveGraph) -> Result<bool, E>,
) -> Result<bool, E> {
    let version = {
        let mut live = write_live(shared);
        if !mutate(&mut live)? {
            return Ok(false);
        }
        live.version()
    };
    if let Some(segment) = segment {
        shared.count(|c| c.segments_sealed += 1);
        push_segment_to_tailers(shared, segment);
    }
    broadcast_frames(shared);
    maybe_checkpoint(shared, version);
    Ok(true)
}

/// Policy-driven checkpointing through the durable layer's
/// [`Checkpointer`](egraph_stream::durable::Checkpointer), run at the end of
/// the publish section (so no writer waits on the graph's read lock held
/// here). Failure is counted and logged, never surfaced to the ingesting
/// client — the seal itself is already fsynced and acknowledged; a
/// checkpoint only bounds how much of the log future recoveries replay.
fn maybe_checkpoint(shared: &Shared, version: u64) {
    let mut checkpointer = lock(&shared.checkpointer);
    let Some(log) = shared.log.as_ref().filter(|_| checkpointer.is_due(version)) else {
        return;
    };
    let live = read_live(shared);
    if let Err(err) = checkpointer.write(&mut lock(log), live.graph(), version) {
        eprintln!(
            "egraph-serve: checkpoint at version {version} failed \
             (the seal itself is already durable): {err}"
        );
    }
}

// ---------------------------------------------------------------------------
// GET /log/tail — replication: serving the segment stream
// ---------------------------------------------------------------------------

/// Parses the `from=<seq>` parameter of a tail request (default `0`).
fn parse_tail_from(query: Option<&str>) -> Result<u64, String> {
    let Some(query) = query else { return Ok(0) };
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key == "from" {
            return value
                .parse()
                .map_err(|_| format!("unparseable from={value:?}"));
        }
    }
    Ok(0)
}

/// Writes one sealed segment onto a tail stream: a JSON header chunk
/// (`seq`, byte length, and the log's latest seal count so followers can
/// report their lag), then the segment's exact bytes as a binary chunk.
fn write_segment_chunks(
    stream: &mut TcpStream,
    seq: u64,
    latest: u64,
    bytes: &[u8],
) -> std::io::Result<()> {
    let header = format!(
        "{{\"seq\": {seq}, \"len\": {}, \"latest\": {latest}}}",
        bytes.len()
    );
    http::write_chunk(stream, &header)?;
    http::write_chunk_bytes(stream, bytes)
}

/// `GET /log/tail?from=seq`: streams every sealed segment from `from`
/// onward, then parks the connection to receive future seals as they
/// happen. Only a durable leader (a server with a log) can be tailed.
pub(super) fn handle_tail(shared: &Arc<Shared>, mut stream: TcpStream, query: Option<&str>) {
    let Some(log) = shared.log.as_ref() else {
        reject(
            shared,
            &mut stream,
            403,
            "this server has no durable log to tail (start it durable)",
        );
        return;
    };
    let from = match parse_tail_from(query) {
        Ok(from) => from,
        Err(message) => {
            reject(shared, &mut stream, 400, &message);
            return;
        }
    };
    let (num_nodes, directed, mut latest, first_seq) = {
        let log = lock(log);
        let (num_nodes, directed) = log.init();
        (num_nodes, directed, log.segments_sealed(), log.first_seq())
    };
    if from > latest {
        let message = format!("from={from} is beyond the log's {latest} sealed segments");
        reject(shared, &mut stream, 400, &message);
        return;
    }
    if from < first_seq {
        // Compaction deleted the requested prefix. The covering state
        // lives in a checkpoint now, so point the tailer there instead of
        // streaming a hole.
        let message = format!(
            "from={from} was compacted away (the log now starts at segment {first_seq}); \
             bootstrap from GET /checkpoint/latest and tail the suffix"
        );
        reject(shared, &mut stream, 410, &message);
        return;
    }
    let init_frame = format!(
        "{{\"init\": {{\"num_nodes\": {num_nodes}, \"directed\": {directed}}}, \"latest\": {latest}}}"
    );
    if http::write_chunked_head(&mut stream).is_err()
        || http::write_chunk(&mut stream, &init_frame).is_err()
    {
        return;
    }
    let mut next = from;
    loop {
        // Catch up from disk without blocking ingest for the whole sweep:
        // the log lock is taken per segment, never across the socket write.
        while next < latest {
            let bytes = match lock(log).segment_bytes(next) {
                Ok(bytes) => bytes,
                Err(err) => {
                    // Disk trouble: drop the tailer (it reconnects from its
                    // own version) — but *count* it, so an operator watching
                    // `/stats` can see replication flapping instead of
                    // wondering why followers keep falling behind.
                    shared.count(|c| c.tail_read_errors += 1);
                    eprintln!("egraph-serve: tail segment read failed: {err}");
                    return;
                }
            };
            if write_segment_chunks(&mut stream, next, latest, &bytes).is_err() {
                return;
            }
            next += 1;
        }
        // Caught up to what we saw — register under `seal_lock` so no seal
        // can slip between the last shipped segment and registration. If
        // one landed while we were streaming, go around again.
        let _ordering = lock(&shared.seal_lock);
        let now = lock(log).segments_sealed();
        if now > next {
            latest = now;
            continue;
        }
        lock(&shared.tailers).push(stream);
        return;
    }
}

/// `GET /checkpoint/latest`: the checkpoint recovery would load (the
/// durable layer's [`newest_loadable_checkpoint`]), framed as one
/// self-contained `EGCP` file (CRC included), so a bootstrapping follower
/// verifies exactly what local recovery would.
/// `404` when no checkpoint has been installed yet; only a durable leader
/// has checkpoints to serve.
pub(super) fn handle_checkpoint_latest(shared: &Arc<Shared>, mut stream: TcpStream) {
    let Some(log) = shared.log.as_ref() else {
        reject(
            shared,
            &mut stream,
            403,
            "this server has no durable log (and so no checkpoints)",
        );
        return;
    };
    // Holding the log lock keeps a concurrent retention sweep from
    // deleting a chain file mid-read.
    let newest = newest_loadable_checkpoint(&lock(log));
    match newest {
        Ok(Some(loaded)) => {
            let file = egraph_log::encode_checkpoint_file(loaded.last_seq, &loaded.payload);
            respond_with(
                shared,
                &mut stream,
                200,
                "application/octet-stream",
                &file,
                None,
            );
        }
        Ok(None) => {
            reject(
                shared,
                &mut stream,
                404,
                "no readable checkpoint has been installed",
            );
        }
        Err(err) => {
            let message = format!("could not list checkpoints: {err}");
            respond(shared, &mut stream, 500, &http::error_body(&message));
        }
    }
}

/// Pushes one freshly sealed segment to every parked tailer (runs in the
/// publish section, right after the seal was published). Tailers whose
/// sockets are gone are dropped; they reconnect from their own version.
fn push_segment_to_tailers(shared: &Shared, sealed: &Sealed) {
    let latest = lock(&shared.counters).segments_sealed;
    let mut tailers = lock(&shared.tailers);
    tailers.retain_mut(|stream| {
        write_segment_chunks(stream, sealed.seq, latest, &sealed.bytes).is_ok()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_bodies_parse_and_reject_cleanly() {
        let ok = parse_ingest(r#"{"events": [[0, 1], [1, 2]], "seal": 7}"#).unwrap();
        assert_eq!(ok.events, vec![(0, 1), (1, 2)]);
        assert_eq!(ok.seal, Some(7));
        assert_eq!(ok.grow_nodes, None);

        let grow = parse_ingest(r#"{"grow_nodes": 12}"#).unwrap();
        assert_eq!(grow.grow_nodes, Some(12));
        assert!(grow.events.is_empty());

        for bad in [
            "",
            "[]",
            "{}",
            r#"{"events": [[0]]}"#,
            r#"{"events": [[0, 1, 2]]}"#,
            r#"{"events": [["a", "b"]]}"#,
            r#"{"seal": "tomorrow"}"#,
            r#"{"grow_nodes": -4}"#,
        ] {
            assert!(parse_ingest(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn tail_from_parameters_parse_and_reject() {
        assert_eq!(parse_tail_from(None).unwrap(), 0);
        assert_eq!(parse_tail_from(Some("")).unwrap(), 0);
        assert_eq!(parse_tail_from(Some("from=7")).unwrap(), 7);
        assert_eq!(parse_tail_from(Some("x=1&from=3")).unwrap(), 3);
        assert!(parse_tail_from(Some("from=minus")).is_err());
        assert!(parse_tail_from(Some("from=-1")).is_err());
    }
}
