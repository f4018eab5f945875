//! The follower: checkpoint-first bootstrap from a leader, the tail loop
//! that applies the leader's sealed segments, and write-forwarding of
//! `/ingest` to the leader.

use std::convert::Infallible;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use egraph_core::graph::EvolvingGraph;
use egraph_log::decode_segment;
use egraph_stream::durable::{live_from_checkpoint, replay_segment};
use egraph_stream::LiveGraph;

use super::write::publish;
use super::{
    lock, read_live, respond_with, FollowerCtl, Server, ServerConfig, ServerStats, Shared,
};
use crate::client::{Client, LogTail, RetryPolicy, TailInit, TailSegment};
use crate::http::{self, Request};

impl Server {
    /// Starts a **follower** replicating from the durable leader at
    /// `leader`: tails its segment stream, rebuilds a local [`LiveGraph`],
    /// and serves `/query`, `/subscribe`, `/stats` and `/health` from its
    /// own cache. `/ingest` is forwarded to the leader (with
    /// [`ServerConfig::forward_attempts`] jittered retries) and the
    /// leader's answer relayed; the write becomes visible here when its
    /// segment arrives on the tail. The connection to the leader is
    /// established (and its init frame read) before this returns; segment
    /// catch-up and live tailing continue on a background thread that
    /// reconnects with backoff until shutdown.
    ///
    /// Bootstrap is checkpoint-first: the follower fetches
    /// `GET /checkpoint/latest`, restores the leader's sealed CSR state
    /// directly when one exists, and tails only the segment suffix sealed
    /// after it. A leader without checkpoints (or an unusable one) is
    /// tailed from segment 0 as before.
    pub fn start_follower(leader: SocketAddr, config: ServerConfig) -> std::io::Result<Server> {
        // Bootstrap synchronously so a bad leader address fails here, not
        // silently on a background thread. No checkpoint (404) or an
        // unreachable/odd answer tails from 0 — a dead leader fails loudly
        // on the tail_log below.
        let client = Client::new(leader).with_timeout(config.io_timeout);
        let bootstrapped = checkpoint_graph(&client);
        let from = bootstrapped.as_ref().map_or(0, LiveGraph::version);
        let (init, tail) = client.tail_log(from)?;
        let fresh = |init: &TailInit| {
            if init.directed {
                LiveGraph::directed(init.num_nodes)
            } else {
                LiveGraph::undirected(init.num_nodes)
            }
        };
        let (live, init, tail) = match bootstrapped {
            Some(live) if live.graph().is_directed() == init.directed => (live, init, tail),
            Some(_) => {
                // The checkpoint contradicts the leader's init frame:
                // distrust it and re-tail the full log from 0.
                drop(tail);
                let (init, tail) = client.tail_log(0)?;
                (fresh(&init), init, tail)
            }
            None => (fresh(&init), init, tail),
        };
        let live_version = live.version();
        let mut shared = Shared::new(live, config);
        shared.counters = Mutex::new(ServerStats {
            follower_lag_seals: init.latest.saturating_sub(live_version),
            ..ServerStats::default()
        });
        shared.follower = Some(FollowerCtl {
            leader,
            tail_stream: Mutex::new(None),
        });
        let mut server = Self::launch(shared)?;
        let tail_shared = Arc::clone(&server.shared);
        server.tail_thread = Some(
            std::thread::Builder::new()
                .name("egraph-serve-tail".into())
                .spawn(move || follower_tail_loop(tail_shared, Some((init, tail))))?,
        );
        Ok(server)
    }
}

/// The leader's newest checkpoint as a graph: `None` when the leader has
/// none, cannot be reached, or sends one that does not decode.
fn checkpoint_graph(client: &Client) -> Option<LiveGraph> {
    let (last_seq, payload) = client.fetch_checkpoint().ok().flatten()?;
    live_from_checkpoint(last_seq, &payload).ok()
}

/// Re-bootstraps a follower whose tail position the leader has compacted
/// away: fetches the leader's newest checkpoint and, when it is strictly
/// ahead of the local graph, publishes it like a seal, so subscribers get
/// a frame at the new version. Returns `false` (the caller halts) when no
/// usable checkpoint moves us forward — without forward progress this
/// would spin against the same gap forever.
fn try_rebootstrap(shared: &Shared, ctl: &FollowerCtl) -> bool {
    let client = Client::new(ctl.leader).with_timeout(shared.config.io_timeout);
    let Some(fresh) = checkpoint_graph(&client) else {
        return false;
    };
    let version = fresh.version();
    let ordering = lock(&shared.seal_lock);
    let Ok(adopted) = publish(shared, &ordering, None, |live| {
        if version <= live.version() {
            return Ok::<_, Infallible>(false);
        }
        // The fresh graph carries a fresh graph id, so every cached entry
        // re-validates (and recomputes) rather than extending across the
        // jump.
        *live = fresh;
        Ok(true)
    });
    if adopted {
        eprintln!(
            "egraph-serve follower: tail position compacted on the leader; \
             re-bootstrapped from its checkpoint at version {version}"
        );
    }
    adopted
}

/// Applies one tailed segment to the follower's graph and re-broadcasts to
/// its subscribers. Returns `Err` on corruption or a sequence gap — state
/// the leader's fsync-ordered stream can never produce, so replication
/// stops loudly rather than serving a wrong graph.
fn apply_tailed_segment(shared: &Shared, segment: &TailSegment) -> Result<(), String> {
    let decoded = decode_segment(&segment.bytes).map_err(|err| err.to_string())?;
    let ordering = lock(&shared.seal_lock);
    publish(shared, &ordering, None, |live| {
        let version = live.version();
        if decoded.seq < version {
            // Already applied (a reconnect re-shipped it); skip silently.
            return Ok(false);
        }
        if decoded.seq > version {
            return Err(format!(
                "segment gap: leader shipped seq {} but this follower is at {version}",
                decoded.seq
            ));
        }
        replay_segment(live, &decoded).map_err(|err| err.to_string())?;
        let lag = segment.latest.saturating_sub(live.version());
        shared.count(|c| {
            c.segments_replayed += 1;
            c.follower_lag_seals = lag;
        });
        Ok(true)
    })?;
    Ok(())
}

/// The follower's tail thread: consumes segments from the already-open
/// bootstrap stream, and reconnects (from the current version) with
/// backoff whenever the leader goes away — until shutdown.
fn follower_tail_loop(shared: Arc<Shared>, first: Option<(TailInit, LogTail)>) {
    let ctl = shared
        .follower
        .as_ref()
        .expect("the tail loop only runs on a follower");
    let mut session = first;
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let (init, mut tail) = match session.take() {
            Some(open) => open,
            None => {
                let from = read_live(&shared).version();
                let client = Client::new(ctl.leader).with_timeout(shared.config.io_timeout);
                match client.tail_log(from) {
                    Ok(open) => open,
                    Err(err) if err.to_string().contains("rejected with 410") => {
                        // Our resume point was compacted on the leader; the
                        // only way forward is its checkpoint.
                        if try_rebootstrap(&shared, ctl) {
                            continue;
                        }
                        eprintln!(
                            "egraph-serve follower: replication halted: resume point \
                             compacted on the leader and no usable checkpoint: {err}"
                        );
                        return;
                    }
                    Err(_) => {
                        std::thread::sleep(shared.config.forward_backoff);
                        continue;
                    }
                }
            }
        };
        // Park the stream where shutdown can reach it, then re-check the
        // flag so a shutdown racing the store cannot leave us blocked.
        if let Ok(clone) = tail.try_clone_stream() {
            *lock(&ctl.tail_stream) = Some(clone);
        }
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Pushes arrive at seal pace, which can be far apart: the tail
        // read must be allowed to block indefinitely.
        let _ = tail.set_read_timeout(None);
        let lag = init.latest.saturating_sub(read_live(&shared).version());
        shared.count(|c| c.follower_lag_seals = lag);
        // Leader closing or a transport failure ends this inner loop and
        // reconnects from wherever we got to.
        while let Ok(Some(segment)) = tail.next_segment() {
            if let Err(message) = apply_tailed_segment(&shared, &segment) {
                // A sequence gap can be legitimate: the leader may have
                // compacted past our resume point, and its checkpoint can
                // legally jump the graph forward. Anything else — or a
                // failed bootstrap — halts loudly rather than serving a
                // possibly-wrong graph.
                if try_rebootstrap(&shared, ctl) {
                    break; // reconnect from the bootstrapped version
                }
                eprintln!("egraph-serve follower: replication halted: {message}");
                return;
            }
        }
    }
}

/// Write-forwarding: a follower proxies `/ingest` to its leader with
/// bounded jittered retries and relays the leader's exact status and body
/// — from a client's point of view, writes work against any server in the
/// group. The forward happens *before* any local lock: the write becomes
/// visible here only when the leader's segment arrives on the tail stream,
/// exactly like every other replicated write. When the retry budget is
/// exhausted (leader down longer than the backoff window) the client gets
/// `503` + `Retry-After` and may retry against the recovering leader
/// through us again.
pub(super) fn forward_ingest(
    shared: &Shared,
    mut stream: TcpStream,
    request: &Request,
    leader: SocketAddr,
) {
    let forwarded = if egraph_fault::fired("serve.ingest.forward").is_some() {
        Err("injected forward failure".to_string())
    } else {
        let client = Client::new(leader).with_timeout(shared.config.io_timeout);
        let policy = RetryPolicy {
            attempts: shared.config.forward_attempts,
            backoff: shared.config.forward_backoff,
            ..RetryPolicy::default()
        };
        client
            .post_with_retry("/ingest", &request.body, &policy)
            .map_err(|err| err.to_string())
    };
    let (status, body, retry_after) = match forwarded {
        Ok((response, _retries)) => {
            shared.count(|c| c.ingest_forwarded += 1);
            (response.status, response.body, response.retry_after)
        }
        Err(detail) => {
            shared.count(|c| c.forward_failures += 1);
            let message = format!("could not forward the write to the leader: {detail}");
            (
                503,
                http::error_body(&message),
                Some(shared.config.retry_after_secs),
            )
        }
    };
    respond_with(
        shared,
        &mut stream,
        status,
        http::JSON,
        body.as_bytes(),
        retry_after,
    );
}
