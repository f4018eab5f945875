//! The server: accept loop, routing, request handlers, graceful shutdown.
//!
//! One dedicated thread owns `accept()` and admission; every admitted
//! connection runs on a connection thread of its own, taken from a set
//! separate from the rayon compute pool (`crate::connections`). The set is
//! bounded by [`ServerConfig::max_inflight`], grows only when no parked
//! thread can take a connection, parks its threads between connections,
//! and exits with the server. A handler may therefore block on another
//! connection (a single-flight leader waiting for its followers, a
//! follower forwarding `/ingest` to a leader in the same process) without
//! starving it, at any pool size. Engines and cache repairs run on the
//! rayon pool, which serves nothing else. A handler blocked on slow client
//! I/O is bounded by the per-connection socket timeouts
//! ([`ServerConfig::io_timeout`]).
//!
//! ## Routes
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /query` | a [`QueryDescriptor`] JSON document | the `SearchResult` JSON document |
//! | `POST /subscribe` | a descriptor | chunked stream: one frame now, one per sealed snapshot |
//! | `POST /ingest` | `{"grow_nodes": n?, "events": [[u,v],...], "seal": label?}` | `{"version", "num_sealed", "sealed_index"}` |
//! | `GET /stats` | — | cache + server + log counters; `server` includes `connection_threads_created` and `connection_threads_alive`; `log` includes the checkpoint writer's `checkpoints_written`, `checkpoint_bases_written`, `checkpoint_failures`, `checkpoint_us_total` and `checkpoint_bytes_written` |
//! | `GET /health` | — | `{"ok": true, ...}` |
//! | `GET /log/tail?from=seq` | — | chunked stream: init frame, then per sealed segment a JSON header + the raw segment bytes |
//! | `GET /checkpoint/latest` | — | the checkpoint recovery would load, its chain framed as one self-contained `EGCP` file (`404` when none exists) |
//!
//! Malformed bodies get structured `400`s (`{"error": ...}`), oversized
//! bodies `413`, semantically failing queries (root outside the sealed
//! range, say) `422` — all without disturbing the accept loop.
//!
//! ## Admission and the serve path
//!
//! `/query` serves in three tiers, cheapest first:
//!
//! 1. [`QueryCache::peek`] — a current entry is served straight off the
//!    shard read lock; hot standing queries never touch admission.
//! 2. Single-flight ([`crate::singleflight`]) — the first cold request
//!    leads and computes through [`QueryCache::execute_traced`]; identical
//!    requests arriving meanwhile park their connections and are answered
//!    by the leader from the same serialized bytes (counted as
//!    [`CacheStats::coalesced`]).
//! 3. The computation itself — which still lands in the cache, so the
//!    *next* burst starts at tier 1.
//!
//! ## Writes and push
//!
//! `/ingest` takes the graph's write lock for the mutation only, then (if
//! the request sealed a snapshot) re-executes every standing subscription
//! through the cache — extendable queries advance incrementally per the
//! cache's invalidation matrix — and pushes one frame per subscriber.
//! `seal_lock` serializes ingest→broadcast sections and subscription
//! registration, so every subscriber sees every seal exactly once, in
//! order, with no gap between its initial frame and the first push.
//!
//! ## Durability and replication
//!
//! [`Server::start_durable`] pairs the graph with an `egraph-log`
//! [`EventLog`]: `/ingest` mirrors every accepted event into the log, and a
//! sealing request follows write-ahead order — validate the label, fsync
//! the segment ([`EventLog::seal`]), *then* publish the snapshot to
//! searches and acknowledge. The fsync happens outside the graph's write
//! lock (`seal_lock` already serializes writers), so readers never wait on
//! the disk. A crash can only lose events whose seal was never
//! acknowledged; [`egraph_stream::DurableGraph::open`] replays the rest.
//!
//! With [`ServerConfig::checkpoint_every`] set, every N-th seal also runs
//! the durable layer's [`Checkpointer`]: it installs an atomically renamed
//! `checkpoint-<seq>.bin` — a link holding only what was sealed since the
//! previous checkpoint, or a fresh base once the chain's links outgrow
//! half of it — prunes checkpoints beyond
//! [`ServerConfig::retain_checkpoints`] (keeping the ancestors their
//! chains need and, at a retain of 2 or more, a fallback chain on another
//! base), and compacts the segment files the oldest kept checkpoint
//! covers. Recovery then replays only the bounded suffix sealed
//! after the newest valid checkpoint (`recovery_replayed_events` in
//! `/stats` is the proof). A checkpoint failure is counted
//! (`checkpoint_failures`), logged and skipped: the seal it rode on is
//! already durable.
//!
//! [`Server::start_follower`] runs the read-scaling side: it opens
//! `GET /log/tail?from=version` against a leader, rebuilds its own
//! [`LiveGraph`] from the init frame, and applies each sealed segment the
//! leader ships — through the *same* [`egraph_stream::replay_segment`]
//! crash recovery uses — then re-broadcasts to its own subscribers from
//! its own [`QueryCache`], inheriting the full incremental-repair matrix
//! per tailed seal. A follower *forwards* `/ingest` to its leader with
//! bounded jittered retries (relaying the leader's exact answer), so a
//! client can write to any server in the group; reads and subscriptions
//! are served locally. `follower_lag_seals` in `/stats` (and on every push
//! frame) reports how far behind the leader's latest known seal this
//! server is; the tail thread reconnects with backoff until shutdown.
//! Bootstrap is checkpoint-first (`GET /checkpoint/latest` restores the
//! leader's sealed CSR state directly, then only the suffix is tailed),
//! and a follower whose resume point the leader compacted away (`410` on
//! tail, or a sequence gap) re-bootstraps from the leader's checkpoint
//! instead of halting.
//!
//! ## Overload
//!
//! Admission is bounded: when [`ServerConfig::max_inflight`] connections
//! are already admitted, each on its own connection thread, the accept
//! thread sheds the next one with `503` + `Retry-After` *before* reading
//! the request. Every connection thread may be pinned by a slow cold
//! computation, which is exactly the condition being defended against, so
//! the shed path runs on the accept thread and needs none of them. Parked
//! connections (subscribers, tailers, coalesced single-flight waiters)
//! hold no thread and do not count against the bound. Shed requests are
//! counted as `requests_shed` in `/stats`;
//! [`crate::client::Client::post_with_retry`] is the client side of the
//! contract, honoring `Retry-After` with jittered backoff.
//!
//! ## Failpoints
//!
//! The serving path declares [`egraph_fault`] sites (no-ops in release
//! builds): `serve.query.compute` (delay a cold computation — how the
//! chaos suite manufactures overload deterministically) and
//! `serve.ingest.forward` (fail a follower's forward before it reaches
//! the leader). The layers below add their own sites (`log.*`,
//! `durable.publish`, and the checkpoint lifecycle's `ckpt.write`,
//! `ckpt.fsync`, `ckpt.rename`, `ckpt.read`, `log.compact.delete`).

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Duration;

use egraph_core::graph::EvolvingGraph;
use egraph_io::{write_json_i64, write_json_string, write_json_u64};
use egraph_log::{decode_segment, EventLog, Sealed};
use egraph_query::codec::{
    descriptor_from_json, search_result_json_capacity, search_result_to_json,
    write_search_result_json,
};
use egraph_query::QueryDescriptor;
use egraph_stream::durable::{
    event_to_record, live_from_checkpoint, newest_loadable_checkpoint, replay_segment,
    CheckpointStats, Checkpointer, RecoveredGraph,
};
use egraph_stream::{CacheOutcome, CacheStats, EdgeEvent, LiveGraph, QueryCache};

use crate::client::{Client, LogTail, TailInit};
use crate::connections::ConnectionThreads;
use crate::http::{self, Request, RequestError};
use crate::singleflight::{Admission, SingleFlight};

/// Tunables for [`Server::start`]. `Default` is production-shaped; tests
/// tighten limits and set the determinism hook.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Largest accepted request body; bigger declarations get `413` without
    /// the body ever being read.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout — a stalled or vanished
    /// client cannot pin a handler forever. `None` disables.
    pub io_timeout: Option<Duration>,
    /// Test-only determinism hook: a `/query` leader blocks until this many
    /// requests have parked behind it before computing, making coalescing
    /// counts exact instead of race-dependent. Must be `None` in production.
    pub hold_leader_until_waiters: Option<usize>,
    /// Address to bind; `None` binds an ephemeral loopback port (the right
    /// choice for tests and examples — the `egraph-serve` binary sets it).
    pub bind: Option<SocketAddr>,
    /// Admission bound: up to this many connections are handled at once,
    /// each on its own connection thread (separate from the rayon pool,
    /// which runs engines and cache repairs), and a connection accepted
    /// while this many are admitted is shed with `503` + `Retry-After`. It
    /// also bounds the connection threads, which are made only when no
    /// parked one is free. Parked connections (subscribers, tailers,
    /// coalesced waiters) hold no thread and don't count.
    pub max_inflight: usize,
    /// The `Retry-After` value (seconds) stamped on shed responses. `0` is
    /// legal — "immediately" — and what latency-sensitive tests use.
    pub retry_after_secs: u64,
    /// On a follower: total attempts (first included) when forwarding an
    /// `/ingest` to the leader before giving up with `503`.
    pub forward_attempts: u32,
    /// Base backoff between forward attempts (doubles, jittered), and the
    /// follower tail thread's pause between reconnect attempts.
    pub forward_backoff: Duration,
    /// On a durable leader: write a checkpoint (and compact covered
    /// segments) every this many seals. `0` disables checkpointing.
    pub checkpoint_every: u64,
    /// How many installed checkpoints to keep on disk; must be at least 1
    /// (the newest checkpoint is what covers the compacted prefix). From 2
    /// on, a fallback chain on another base is kept too.
    pub retain_checkpoints: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_body_bytes: 1 << 20,
            io_timeout: Some(Duration::from_secs(10)),
            hold_leader_until_waiters: None,
            bind: None,
            max_inflight: 256,
            retry_after_secs: 1,
            forward_attempts: 4,
            forward_backoff: Duration::from_millis(50),
            checkpoint_every: 0,
            retain_checkpoints: 2,
        }
    }
}

impl ServerConfig {
    /// Rejects configurations that cannot serve: a zero admission bound
    /// would shed every request, and zero forward attempts would make a
    /// follower's `/ingest` unconditionally fail.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_inflight == 0 {
            return Err("max_inflight must be >= 1 (0 would shed every request)".into());
        }
        if self.forward_attempts == 0 {
            return Err("forward_attempts must be >= 1".into());
        }
        if self.max_body_bytes == 0 {
            return Err("max_body_bytes must be >= 1".into());
        }
        if self.retain_checkpoints == 0 {
            return Err(
                "retain_checkpoints must be >= 1 (compaction may only delete segments \
                 a surviving checkpoint covers)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Server-side request counters (the cache keeps its own in
/// [`CacheStats`]). Exposed at `GET /stats` and via [`Server::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests that parsed to a valid head (any route, any outcome).
    pub requests: u64,
    /// Requests answered `4xx`.
    pub bad_requests: u64,
    /// Subscriptions accepted over the server's lifetime.
    pub subscriptions_opened: u64,
    /// Frames pushed to subscribers (initial frames included).
    pub frames_pushed: u64,
    /// Segments durably sealed (fsynced) by this server's event log —
    /// includes segments recovered from disk at boot. Zero without a log.
    pub segments_sealed: u64,
    /// Segments replayed into the live graph: at boot from the local log,
    /// or (on a follower) tailed from the leader.
    pub segments_replayed: u64,
    /// On a follower: the leader's latest known seal count minus this
    /// server's applied count — `0` when fully converged. Always `0` on a
    /// leader or standalone server.
    pub follower_lag_seals: u64,
    /// Connections shed by bounded admission (`503` + `Retry-After`
    /// before the request was read).
    pub requests_shed: u64,
    /// Connection threads created since the server started. A thread is
    /// made only when no parked or finishing one can take a connection, so
    /// this tracks the most connections handled at once.
    pub connection_threads_created: u64,
    /// Connection threads alive now, busy or parked: at most
    /// [`ServerConfig::max_inflight`], and `0` once [`Server::shutdown`]
    /// has returned. Under glibc each one that has allocated holds its own
    /// malloc arena, so this is the count that explains resident memory.
    pub connection_threads_alive: u64,
    /// Segment reads that failed while serving a `/log/tail` catch-up —
    /// each one silently dropped a tailer before this counter existed, so
    /// a non-zero value here is how an operator sees replication flapping.
    pub tail_read_errors: u64,
    /// On a follower: `/ingest` requests successfully forwarded to the
    /// leader (whatever status the leader answered).
    pub ingest_forwarded: u64,
    /// On a follower: `/ingest` forwards that exhausted their retry budget
    /// without reaching the leader (answered `503` locally).
    pub forward_failures: u64,
    /// This server's policy-driven checkpoints (at seal time): installed,
    /// of those bases, failed (each logged; the seal it rode on still
    /// succeeded), µs and bytes spent, segment files compacted. Zero
    /// without a log or with `checkpoint_every: 0`.
    pub checkpoints: CheckpointStats,
    /// Events replayed from segment files when this server's graph was
    /// recovered at boot — the bounded-replay proof: with checkpointing
    /// enabled this stays at most `checkpoint_every` seals' worth of
    /// events, however long the log's history grows.
    pub recovery_replayed_events: u64,
    /// Bytes currently on disk in manifest + segment files (gauge).
    pub segments_bytes: u64,
    /// Bytes currently on disk in installed checkpoint files (gauge).
    pub checkpoint_bytes: u64,
}

/// One standing query: the held-open connection, what it asked for, and
/// the next frame sequence number.
struct Subscriber {
    stream: TcpStream,
    descriptor: QueryDescriptor,
    seq: u64,
}

/// Handle to a follower's upstream connection, kept so shutdown can
/// unblock the tail thread's read.
struct FollowerCtl {
    leader: SocketAddr,
    /// The currently open tail stream (replaced across reconnects);
    /// shutdown calls `shutdown(Both)` on it to wake the blocked read.
    tail_stream: Mutex<Option<TcpStream>>,
}

/// Everything handlers share.
struct Shared {
    live: RwLock<LiveGraph>,
    cache: QueryCache,
    flight: SingleFlight,
    subscribers: Mutex<Vec<Subscriber>>,
    /// Serializes ingest+broadcast sections and subscription registration:
    /// frames reach every subscriber in seal order with no duplicates or
    /// gaps.
    seal_lock: Mutex<()>,
    /// The write-ahead log (durable leader mode only). Locked *inside* the
    /// graph's write lock when mirroring events, and on its own for the
    /// fsync on seal — which deliberately happens while no graph lock is
    /// held, so readers never wait on the disk.
    log: Option<Mutex<EventLog>>,
    /// Followers currently tailing this server's log; each gets every
    /// sealed segment pushed as a JSON header chunk + a raw bytes chunk.
    tailers: Mutex<Vec<TcpStream>>,
    /// Present on a follower: where to tail from, and the open stream.
    follower: Option<FollowerCtl>,
    config: ServerConfig,
    shutting_down: AtomicBool,
    /// The threads that run handlers; admission and drain-on-shutdown.
    connections: ConnectionThreads,
    requests: AtomicU64,
    bad_requests: AtomicU64,
    subscriptions_opened: AtomicU64,
    frames_pushed: AtomicU64,
    segments_sealed: AtomicU64,
    segments_replayed: AtomicU64,
    follower_lag_seals: AtomicU64,
    requests_shed: AtomicU64,
    tail_read_errors: AtomicU64,
    ingest_forwarded: AtomicU64,
    forward_failures: AtomicU64,
    /// The checkpoint writer and its counters (policy from the config).
    checkpointer: Mutex<Checkpointer>,
    recovery_replayed_events: AtomicU64,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running HTTP server over one [`LiveGraph`].
///
/// Dropping the server shuts it down gracefully: the listener closes, open
/// requests drain (bounded by the I/O timeout), and subscription streams
/// are terminated with a final chunk.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    tail_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `live` with no durability: a plain
    /// in-memory server (events die with the process).
    pub fn start(live: LiveGraph, config: ServerConfig) -> std::io::Result<Server> {
        Self::start_inner(live, config, None, None, 0)
    }

    /// Starts a **durable leader** over a recovered (or freshly created)
    /// [`egraph_stream::DurableGraph`]: `/ingest` write-ahead logs every
    /// event, seals are fsynced before they are acknowledged, and
    /// followers may tail `GET /log/tail`.
    ///
    /// ```no_run
    /// # use egraph_serve::{Server, ServerConfig};
    /// # use egraph_stream::DurableGraph;
    /// let recovered = DurableGraph::open_or_create("data", 100, true).unwrap();
    /// let server = Server::start_durable(recovered, ServerConfig::default()).unwrap();
    /// # drop(server);
    /// ```
    pub fn start_durable(
        recovered: RecoveredGraph,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let segments_replayed = recovered.segments_replayed;
        let recovery_replayed_events = recovered.recovery_replayed_events;
        let (live, log, mut checkpointer) = recovered.graph.into_parts();
        checkpointer.set_policy(config.checkpoint_every, config.retain_checkpoints);
        let server = Self::start_inner(
            live,
            config,
            Some((log, checkpointer)),
            None,
            segments_replayed,
        )?;
        server
            .shared
            .recovery_replayed_events
            .store(recovery_replayed_events, Ordering::Relaxed);
        Ok(server)
    }

    /// Starts a **follower** replicating from the durable leader at
    /// `leader`: tails its segment stream, rebuilds a local [`LiveGraph`],
    /// and serves `/query`, `/subscribe`, `/stats` and `/health` from its
    /// own cache. `/ingest` is refused with `403` — writes go to the
    /// leader. The connection to the leader is established (and its init
    /// frame read) before this returns; segment catch-up and live tailing
    /// continue on a background thread that reconnects with backoff until
    /// shutdown.
    ///
    /// Bootstrap is checkpoint-first: the follower fetches
    /// `GET /checkpoint/latest`, restores the leader's sealed CSR state
    /// directly when one exists, and tails only the segment suffix sealed
    /// after it. A leader without checkpoints (or an unusable one) is
    /// tailed from segment 0 as before.
    pub fn start_follower(leader: SocketAddr, config: ServerConfig) -> std::io::Result<Server> {
        // Bootstrap synchronously so a bad leader address fails here, not
        // silently on a background thread.
        let client = Client::new(leader).with_timeout(config.io_timeout);
        let bootstrapped = match client.fetch_checkpoint() {
            Ok(Some((last_seq, payload))) => live_from_checkpoint(last_seq, &payload).ok(),
            // No checkpoint (404) or an unreachable/odd answer: tail from 0
            // — a dead leader fails loudly on the tail_log below.
            Ok(None) | Err(_) => None,
        };
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
        let lag = init.latest.saturating_sub(live.version());
        let ctl = FollowerCtl {
            leader,
            tail_stream: Mutex::new(None),
        };
        let mut server = Self::start_inner(live, config, None, Some(ctl), 0)?;
        server
            .shared
            .follower_lag_seals
            .store(lag, Ordering::Relaxed);
        let tail_shared = Arc::clone(&server.shared);
        server.tail_thread = Some(
            std::thread::Builder::new()
                .name("egraph-serve-tail".into())
                .spawn(move || follower_tail_loop(tail_shared, Some((init, tail))))?,
        );
        Ok(server)
    }

    fn start_inner(
        live: LiveGraph,
        config: ServerConfig,
        log: Option<(EventLog, Checkpointer)>,
        follower: Option<FollowerCtl>,
        segments_replayed: u64,
    ) -> std::io::Result<Server> {
        config
            .validate()
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message))?;
        let listener = match config.bind {
            Some(addr) => TcpListener::bind(addr)?,
            None => TcpListener::bind(("127.0.0.1", 0))?,
        };
        let addr = listener.local_addr()?;
        let segments_sealed = log.as_ref().map_or(0, |(log, _)| log.segments_sealed());
        let (log, checkpointer) = match log {
            Some((log, checkpointer)) => (Some(log), checkpointer),
            None => (None, Checkpointer::default()),
        };
        let connections = ConnectionThreads::new(config.max_inflight);
        let shared = Arc::new(Shared {
            live: RwLock::new(live),
            cache: QueryCache::new(),
            flight: SingleFlight::new(),
            subscribers: Mutex::new(Vec::new()),
            seal_lock: Mutex::new(()),
            log: log.map(Mutex::new),
            tailers: Mutex::new(Vec::new()),
            follower,
            config,
            shutting_down: AtomicBool::new(false),
            connections,
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            subscriptions_opened: AtomicU64::new(0),
            frames_pushed: AtomicU64::new(0),
            segments_sealed: AtomicU64::new(segments_sealed),
            segments_replayed: AtomicU64::new(segments_replayed),
            follower_lag_seals: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            tail_read_errors: AtomicU64::new(0),
            ingest_forwarded: AtomicU64::new(0),
            forward_failures: AtomicU64::new(0),
            checkpointer: Mutex::new(checkpointer),
            recovery_replayed_events: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("egraph-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            tail_thread: None,
        })
    }

    /// The bound address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cache's counters — what `/stats` reports under `"cache"`.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// The server's own counters — what `/stats` reports under `"server"`
    /// and `"log"`.
    pub fn stats(&self) -> ServerStats {
        server_stats(&self.shared)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests
    /// (bounded), close every subscription with a final chunk. Idempotent;
    /// also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // `accept()` blocks until a connection arrives; poke it awake so
        // the thread observes the flag, drains the connection threads and
        // exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // A follower's tail thread blocks reading the leader; shut the
        // stream down to wake it, then join.
        if let Some(ctl) = self.shared.follower.as_ref() {
            if let Some(stream) = lock(&ctl.tail_stream).take() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some(handle) = self.tail_thread.take() {
            let _ = handle.join();
        }
        for subscriber in lock(&self.shared.subscribers).drain(..) {
            let mut stream = subscriber.stream;
            let _ = http::write_final_chunk(&mut stream);
        }
        for mut tailer in lock(&self.shared.tailers).drain(..) {
            let _ = http::write_final_chunk(&mut tailer);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Bounded admission, decided here on the accept thread: if every
        // connection thread is pinned by a slow handler, a shed must not
        // need one. The 503 goes out before the request is even read — an
        // overloaded server spends only a head-sized socket write per
        // refusal.
        let spawn = || {
            let thread_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("egraph-serve-conn".into())
                .spawn(move || {
                    thread_shared
                        .connections
                        .run(|stream| handle_connection(&thread_shared, stream))
                })
        };
        if let Err(stream) = shared.connections.admit(stream, spawn) {
            shared.requests_shed.fetch_add(1, Ordering::Relaxed);
            shed_connection(&shared, stream);
        }
    }
    drop(listener);
    // Drain: connection threads finish what they hold and exit. The bound
    // keeps a wedged client from holding shutdown hostage beyond its socket
    // timeout. The drain runs here, not in `Server::shutdown`, so that the
    // connection threads exit before this thread does: glibc hands a new
    // thread the arena of the thread that exited last, and this order gives
    // the next server's accept thread this one's small arena, and its
    // connection threads the arenas that already hold their working sets.
    let drain_bound = shared
        .config
        .io_timeout
        .map(|t| t * 3)
        .unwrap_or(Duration::from_secs(30));
    shared.connections.close_and_wait(drain_bound);
}

/// Refuses one connection with `503` + `Retry-After`, without reading the
/// request. Closing with unread request bytes in the receive buffer would
/// RST the connection and could destroy the response before the client
/// reads it, so the refusal half-closes and briefly drains instead — the
/// client sees the 503 and a clean FIN. The drain is tightly bounded (it
/// runs on the accept thread): a cooperating client reads the response and
/// closes within a round trip; a stalled one costs at most the short
/// timeout.
fn shed_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(shared.config.io_timeout);
    let _ = http::write_response_with_retry_after(
        &mut stream,
        503,
        &http::error_body("server overloaded; retry after the indicated delay"),
        Some(shared.config.retry_after_secs),
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut scratch = [0u8; 4096];
    while let Ok(n) = std::io::Read::read(&mut stream, &mut scratch) {
        if n == 0 {
            break;
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(shared.config.io_timeout);
    let _ = stream.set_write_timeout(shared.config.io_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let request = match http::read_request(&mut reader, shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(RequestError::Io(_)) => return, // nobody left to answer
        Err(RequestError::Malformed(message)) => {
            reject(shared, &mut stream, 400, &message);
            return;
        }
        Err(RequestError::BodyTooLarge { declared, limit }) => {
            let message =
                format!("request body of {declared} bytes exceeds the {limit}-byte bound");
            reject(shared, &mut stream, 413, &message);
            return;
        }
    };
    // `reader` holds the read half; requests are one-shot, so only the
    // write half travels further (into single-flight or a subscription).
    drop(reader);
    shared.requests.fetch_add(1, Ordering::Relaxed);

    if shared.shutting_down.load(Ordering::SeqCst) {
        respond(
            shared,
            &mut stream,
            503,
            &http::error_body("the server is shutting down"),
        );
        return;
    }

    // The request target may carry a query string (`/log/tail?from=3`);
    // routing happens on the bare path.
    let (path, query) = match request.path.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.path.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("POST", "/query") => handle_query(shared, stream, &request),
        ("POST", "/subscribe") => handle_subscribe(shared, stream, &request),
        ("POST", "/ingest") => handle_ingest(shared, stream, &request),
        ("GET", "/log/tail") => handle_tail(shared, stream, query),
        ("GET", "/checkpoint/latest") => handle_checkpoint_latest(shared, stream),
        ("GET", "/stats") => {
            let body = stats_body(shared);
            respond(shared, &mut stream, 200, &body);
        }
        ("GET", "/health") => {
            let (version, num_sealed) = {
                let live = read_live(shared);
                (live.version(), live.num_sealed())
            };
            let body =
                format!("{{\"ok\": true, \"version\": {version}, \"num_sealed\": {num_sealed}}}");
            respond(shared, &mut stream, 200, &body);
        }
        (
            _,
            "/query" | "/subscribe" | "/ingest" | "/stats" | "/health" | "/log/tail"
            | "/checkpoint/latest",
        ) => {
            let message = format!("method {} not allowed here", request.method);
            reject(shared, &mut stream, 405, &message);
        }
        (_, path) => {
            let message = format!("no route {path}");
            reject(shared, &mut stream, 404, &message);
        }
    }
}

/// Writes a handler's final response. The thread first marks itself as
/// finishing, so a client that reconnects the moment it has read the last
/// byte is handed back to this thread rather than to a new one (see
/// [`crate::connections`]).
fn respond(shared: &Shared, stream: &mut TcpStream, status: u16, body: &str) {
    respond_with_retry_after(shared, stream, status, body, None);
}

/// Answers a request the server refuses with a `4xx` status and the
/// structured JSON error body, counting it in [`ServerStats::bad_requests`].
fn reject(shared: &Shared, stream: &mut TcpStream, status: u16, message: &str) {
    shared.bad_requests.fetch_add(1, Ordering::Relaxed);
    respond(shared, stream, status, &http::error_body(message));
}

fn respond_with_retry_after(
    shared: &Shared,
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after: Option<u64>,
) {
    shared.connections.finishing();
    let _ = http::write_response_with_retry_after(stream, status, body, retry_after);
}

fn read_live(shared: &Shared) -> std::sync::RwLockReadGuard<'_, LiveGraph> {
    shared.live.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_live(shared: &Shared) -> std::sync::RwLockWriteGuard<'_, LiveGraph> {
    shared.live.write().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// POST /query
// ---------------------------------------------------------------------------

fn handle_query(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    let descriptor = match descriptor_from_json(&request.body) {
        Ok(descriptor) => descriptor,
        Err(err) => {
            reject(shared, &mut stream, 400, &err.to_string());
            return;
        }
    };
    let search = descriptor.to_search();

    // Tier 1: a current entry serves straight off the shard read lock —
    // the hot path for standing queries, bypassing admission entirely.
    let peeked = {
        let live = read_live(shared);
        shared.cache.peek(&live, &search)
    };
    if let Some(result) = peeked {
        respond(shared, &mut stream, 200, &search_result_to_json(&result));
        return;
    }

    // Tier 2: single-flight. Parked connections are answered by the
    // leader; this handler is done with them either way.
    let Admission::Leader(own, leader) = shared.flight.admit(&descriptor, stream) else {
        return;
    };
    let mut own = own;
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
    match computed {
        Ok((result, _outcome)) => {
            // Serialized once; leader and every coalesced follower receive
            // byte-identical responses from this one buffer.
            let body = search_result_to_json(&result);
            respond(shared, &mut own, 200, &body);
            for mut waiter in waiters {
                shared.cache.note_coalesced();
                let _ = http::write_response(&mut waiter, 200, &body);
            }
        }
        Err(err) => {
            // A semantically failing query (e.g. root outside the sealed
            // range): 422, shared by everyone who coalesced onto it. The
            // cache never stores errors, so nothing is counted — the same
            // request can heal as the graph grows.
            let message = err.to_string();
            reject(shared, &mut own, 422, &message);
            let body = http::error_body(&message);
            for mut waiter in waiters {
                let _ = http::write_response(&mut waiter, 422, &body);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// POST /subscribe
// ---------------------------------------------------------------------------

fn handle_subscribe(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    let descriptor = match descriptor_from_json(&request.body) {
        Ok(descriptor) => descriptor,
        Err(err) => {
            reject(shared, &mut stream, 400, &err.to_string());
            return;
        }
    };
    let search = descriptor.to_search();

    // Registration happens under `seal_lock`, so the initial frame and the
    // subscription list entry are atomic with respect to `/ingest`'s
    // seal+broadcast section: no seal can fall between them (which would
    // either skip a frame or double-send one).
    let _ordering = lock(&shared.seal_lock);
    let initial = {
        let live = read_live(shared);
        shared
            .cache
            .execute_traced(&live, &search)
            .map(|(result, outcome)| (result, outcome, live.version()))
    };
    match initial {
        Err(err) => {
            reject(shared, &mut stream, 422, &err.to_string());
        }
        Ok((result, outcome, version)) => {
            let frame = frame_body(
                0,
                version,
                None,
                outcome_name(outcome),
                log_labels(shared),
                Ok(&result),
            );
            // All that is left after the initial frame is registering the
            // subscriber, so the thread counts as finishing from here.
            shared.connections.finishing();
            if http::write_chunked_head(&mut stream).is_err()
                || http::write_chunk(&mut stream, &frame).is_err()
            {
                return; // client vanished before the stream opened
            }
            shared.frames_pushed.fetch_add(1, Ordering::Relaxed);
            shared.subscriptions_opened.fetch_add(1, Ordering::Relaxed);
            lock(&shared.subscribers).push(Subscriber {
                stream,
                descriptor,
                seq: 1,
            });
        }
    }
}

/// The durability/replication counters stamped onto every push frame and
/// the `/stats` `"log"` section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LogLabels {
    segments_sealed: u64,
    segments_replayed: u64,
    follower_lag_seals: u64,
}

fn log_labels(shared: &Shared) -> LogLabels {
    LogLabels {
        segments_sealed: shared.segments_sealed.load(Ordering::Relaxed),
        segments_replayed: shared.segments_replayed.load(Ordering::Relaxed),
        follower_lag_seals: shared.follower_lag_seals.load(Ordering::Relaxed),
    }
}

/// One push frame. `result` is `Err(message)` when the standing query
/// failed at this version (the stream stays open — it may heal).
fn frame_body(
    seq: u64,
    version: u64,
    label: Option<i64>,
    outcome: &str,
    log: LogLabels,
    result: Result<&egraph_query::SearchResult, &str>,
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
// POST /ingest
// ---------------------------------------------------------------------------

/// The parsed shape of an ingest body.
struct IngestRequest {
    grow_nodes: Option<usize>,
    events: Vec<(u32, u32)>,
    seal: Option<i64>,
}

fn parse_ingest(body: &str) -> Result<IngestRequest, String> {
    let value = egraph_io::parse_value(body).map_err(|e| e.to_string())?;
    let object = value
        .as_object("ingest request")
        .map_err(|e| e.to_string())?;
    let grow_nodes = match object.get_opt("grow_nodes") {
        Some(v) => Some(v.as_usize("grow_nodes").map_err(|e| e.to_string())?),
        None => None,
    };
    let events = match object.get_opt("events") {
        Some(value) => {
            let entries = value.as_array("events").map_err(|e| e.to_string())?;
            let mut events = Vec::with_capacity(entries.len());
            for entry in entries {
                let pair = entry.as_array("events entry").map_err(|e| e.to_string())?;
                if pair.len() != 2 {
                    return Err(format!(
                        "an events entry must be a [src, dst] pair, got {} elements",
                        pair.len()
                    ));
                }
                events.push((
                    pair[0].as_u32("event src").map_err(|e| e.to_string())?,
                    pair[1].as_u32("event dst").map_err(|e| e.to_string())?,
                ));
            }
            events
        }
        None => Vec::new(),
    };
    let seal = match object.get_opt("seal") {
        Some(v) => Some(v.as_i64("seal label").map_err(|e| e.to_string())?),
        None => None,
    };
    if grow_nodes.is_none() && events.is_empty() && seal.is_none() {
        return Err("an ingest request must grow nodes, insert events, or seal".into());
    }
    Ok(IngestRequest {
        grow_nodes,
        events,
        seal,
    })
}

fn handle_ingest(shared: &Arc<Shared>, mut stream: TcpStream, request: &Request) {
    if let Some(ctl) = shared.follower.as_ref() {
        forward_ingest(shared, stream, request, ctl.leader);
        return;
    }
    let ingest = match parse_ingest(&request.body) {
        Ok(ingest) => ingest,
        Err(message) => {
            reject(shared, &mut stream, 400, &message);
            return;
        }
    };

    // The whole mutate→log→broadcast section is serialized: frames reach
    // subscribers in seal order, and subscription registration cannot
    // interleave into the middle of it.
    let _ordering = lock(&shared.seal_lock);

    // Phase 1 — apply events under the write lock, mirroring each accepted
    // one into the log's open-segment buffer (a rejected event is never
    // logged), and validate the seal label *without* sealing.
    let applied: Result<(), egraph_core::error::GraphError> = {
        let mut live = write_live(shared);
        let mut log = shared.log.as_ref().map(lock);
        (|| {
            let mut apply = |live: &mut LiveGraph, event: EdgeEvent| {
                live.apply(event)?;
                if let Some(log) = log.as_mut() {
                    log.append(event_to_record(&event));
                }
                Ok::<(), egraph_core::error::GraphError>(())
            };
            if let Some(num_nodes) = ingest.grow_nodes {
                apply(&mut live, EdgeEvent::grow_nodes(num_nodes))?;
            }
            for &(src, dst) in &ingest.events {
                apply(&mut live, EdgeEvent::insert(src, dst))?;
            }
            if let Some(label) = ingest.seal {
                // `can_seal` is the only way a seal can fail; checking it
                // here means the fsync below commits a label the graph is
                // guaranteed to accept.
                if !live.can_seal(label) {
                    return Err(egraph_core::error::GraphError::UnsortedTimestamps {
                        position: live.num_sealed(),
                    });
                }
            }
            Ok(())
        })()
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
    let (version, num_sealed, sealed_index) = {
        let mut live = write_live(shared);
        let sealed_index = ingest.seal.map(|label| {
            live.seal_snapshot(label)
                .expect("label was validated before the segment was fsynced")
                .index()
        });
        (live.version(), live.num_sealed(), sealed_index)
    };
    if sealed_index.is_some() {
        let label = ingest.seal.expect("sealed implies a label");
        if let Some(segment) = sealed.as_ref() {
            shared.segments_sealed.fetch_add(1, Ordering::Relaxed);
            push_segment_to_tailers(shared, segment);
        }
        broadcast_frames(shared, label);
        maybe_checkpoint(shared, version);
    }
    let sealed_json = match sealed_index {
        Some(index) => index.to_string(),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"version\": {version}, \"num_sealed\": {num_sealed}, \"sealed_index\": {sealed_json}}}"
    );
    respond(shared, &mut stream, 200, &body);
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
fn forward_ingest(
    shared: &Arc<Shared>,
    mut stream: TcpStream,
    request: &Request,
    leader: SocketAddr,
) {
    let unavailable = |stream: &mut TcpStream, shared: &Arc<Shared>, detail: &str| {
        shared.forward_failures.fetch_add(1, Ordering::Relaxed);
        let message = format!("could not forward the write to the leader: {detail}");
        respond_with_retry_after(
            shared,
            stream,
            503,
            &http::error_body(&message),
            Some(shared.config.retry_after_secs),
        );
    };
    if egraph_fault::fired("serve.ingest.forward").is_some() {
        unavailable(&mut stream, shared, "injected forward failure");
        return;
    }
    let client = Client::new(leader).with_timeout(shared.config.io_timeout);
    let policy = crate::client::RetryPolicy {
        attempts: shared.config.forward_attempts,
        backoff: shared.config.forward_backoff,
        ..crate::client::RetryPolicy::default()
    };
    match client.post_with_retry("/ingest", &request.body, &policy) {
        Ok((response, _retries)) => {
            shared.ingest_forwarded.fetch_add(1, Ordering::Relaxed);
            respond_with_retry_after(
                shared,
                &mut stream,
                response.status,
                &response.body,
                response.retry_after,
            );
        }
        Err(err) => unavailable(&mut stream, shared, &err.to_string()),
    }
}

/// Re-executes every standing subscription at the current version and
/// pushes one frame each; subscribers whose sockets are gone are dropped.
/// Runs under `seal_lock`, after the write lock has been released — pushes
/// overlap new `/query` reads, never block them.
fn broadcast_frames(shared: &Arc<Shared>, label: i64) {
    let live = read_live(shared);
    let version = live.version();
    let labels = log_labels(shared);
    let mut subscribers = lock(&shared.subscribers);
    let mut frames_pushed = 0u64;
    subscribers.retain_mut(|subscriber| {
        let search = subscriber.descriptor.to_search();
        let frame = match shared.cache.execute_traced(&live, &search) {
            Ok((result, outcome)) => frame_body(
                subscriber.seq,
                version,
                Some(label),
                outcome_name(outcome),
                labels,
                Ok(&result),
            ),
            Err(err) => frame_body(
                subscriber.seq,
                version,
                Some(label),
                "error",
                labels,
                Err(&err.to_string()),
            ),
        };
        subscriber.seq += 1;
        let delivered = http::write_chunk(&mut subscriber.stream, &frame).is_ok();
        if delivered {
            frames_pushed += 1;
        }
        delivered
    });
    shared
        .frames_pushed
        .fetch_add(frames_pushed, Ordering::Relaxed);
}

/// Policy-driven checkpointing through the durable layer's
/// [`Checkpointer`], run under `seal_lock` right after a seal was
/// published and broadcast (so no writer waits on the graph's read lock
/// held here). Failure is counted and logged, never surfaced to the
/// ingesting client — the seal itself is already fsynced and acknowledged;
/// a checkpoint only bounds how much of the log future recoveries replay.
fn maybe_checkpoint(shared: &Arc<Shared>, version: u64) {
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
fn handle_tail(shared: &Arc<Shared>, mut stream: TcpStream, query: Option<&str>) {
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
                    shared.tail_read_errors.fetch_add(1, Ordering::Relaxed);
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
fn handle_checkpoint_latest(shared: &Arc<Shared>, mut stream: TcpStream) {
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
            shared.connections.finishing();
            let _ = http::write_response_bytes(&mut stream, 200, &file);
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

/// Pushes one freshly sealed segment to every parked tailer (runs under
/// `seal_lock`, right after the seal was published). Tailers whose sockets
/// are gone are dropped; they reconnect from their own version.
fn push_segment_to_tailers(shared: &Arc<Shared>, sealed: &Sealed) {
    let latest = shared.segments_sealed.load(Ordering::Relaxed);
    let mut tailers = lock(&shared.tailers);
    tailers.retain_mut(|stream| {
        write_segment_chunks(stream, sealed.seq, latest, &sealed.bytes).is_ok()
    });
}

// ---------------------------------------------------------------------------
// Follower: tailing a leader's segment stream
// ---------------------------------------------------------------------------

/// Re-bootstraps a follower whose tail position the leader has compacted
/// away: fetches the leader's newest checkpoint and adopts it when it is
/// strictly ahead of the local graph. Returns `false` (the caller halts)
/// when no usable checkpoint moves us forward — without forward progress
/// this would spin against the same gap forever.
fn try_rebootstrap(shared: &Arc<Shared>, ctl: &FollowerCtl) -> bool {
    let client = Client::new(ctl.leader).with_timeout(shared.config.io_timeout);
    let Ok(Some((last_seq, payload))) = client.fetch_checkpoint() else {
        return false;
    };
    let Ok(live) = live_from_checkpoint(last_seq, &payload) else {
        return false;
    };
    let version = live.version();
    // Same ordering discipline as a tailed segment: the swap serializes
    // against ingest/broadcast sections and subscription registration.
    let _ordering = lock(&shared.seal_lock);
    {
        let mut current = write_live(shared);
        if version <= current.version() {
            return false;
        }
        // The fresh graph carries a fresh graph id, so every cached entry
        // re-validates (and recomputes) rather than extending across the
        // jump.
        *current = live;
    }
    eprintln!(
        "egraph-serve follower: tail position compacted on the leader; \
         re-bootstrapped from its checkpoint at version {version}"
    );
    true
}

/// Applies one tailed segment to the follower's graph and re-broadcasts to
/// its subscribers. Returns `Err` on corruption or a sequence gap — state
/// the leader's fsync-ordered stream can never produce, so replication
/// stops loudly rather than serving a wrong graph.
fn apply_tailed_segment(
    shared: &Arc<Shared>,
    segment: &crate::client::TailSegment,
) -> Result<(), String> {
    let decoded = decode_segment(&segment.bytes).map_err(|err| err.to_string())?;
    let label = decoded.label;
    // The same ordering discipline as `/ingest`: the whole apply→broadcast
    // section is serialized against subscription registration.
    let _ordering = lock(&shared.seal_lock);
    let version = {
        let mut live = write_live(shared);
        let version = live.version();
        if decoded.seq < version {
            // Already applied (a reconnect re-shipped it); skip silently.
            return Ok(());
        }
        if decoded.seq > version {
            return Err(format!(
                "segment gap: leader shipped seq {} but this follower is at {version}",
                decoded.seq
            ));
        }
        replay_segment(&mut live, &decoded).map_err(|err| err.to_string())?;
        live.version()
    };
    shared.segments_replayed.fetch_add(1, Ordering::Relaxed);
    shared
        .follower_lag_seals
        .store(segment.latest.saturating_sub(version), Ordering::Relaxed);
    broadcast_frames(shared, label);
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
        let version = read_live(&shared).version();
        shared
            .follower_lag_seals
            .store(init.latest.saturating_sub(version), Ordering::Relaxed);
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

// ---------------------------------------------------------------------------
// GET /stats
// ---------------------------------------------------------------------------

/// Disk gauges for `/stats` and [`Server::stats`]: bytes currently held by
/// manifest + segment files, and by installed checkpoint files. `(0, 0)`
/// on a server without a log.
fn disk_bytes(shared: &Shared) -> (u64, u64) {
    match shared.log.as_ref() {
        Some(log) => {
            let log = lock(log);
            (
                log.segments_bytes(),
                egraph_log::checkpoints_bytes(log.dir()),
            )
        }
        None => (0, 0),
    }
}

fn server_stats(shared: &Shared) -> ServerStats {
    let (segments_bytes, checkpoint_bytes) = disk_bytes(shared);
    let threads = shared.connections.counts();
    ServerStats {
        requests: shared.requests.load(Ordering::Relaxed),
        bad_requests: shared.bad_requests.load(Ordering::Relaxed),
        subscriptions_opened: shared.subscriptions_opened.load(Ordering::Relaxed),
        frames_pushed: shared.frames_pushed.load(Ordering::Relaxed),
        segments_sealed: shared.segments_sealed.load(Ordering::Relaxed),
        segments_replayed: shared.segments_replayed.load(Ordering::Relaxed),
        follower_lag_seals: shared.follower_lag_seals.load(Ordering::Relaxed),
        requests_shed: shared.requests_shed.load(Ordering::Relaxed),
        connection_threads_created: threads.created,
        connection_threads_alive: threads.alive,
        tail_read_errors: shared.tail_read_errors.load(Ordering::Relaxed),
        ingest_forwarded: shared.ingest_forwarded.load(Ordering::Relaxed),
        forward_failures: shared.forward_failures.load(Ordering::Relaxed),
        checkpoints: lock(&shared.checkpointer).stats(),
        recovery_replayed_events: shared.recovery_replayed_events.load(Ordering::Relaxed),
        segments_bytes,
        checkpoint_bytes,
    }
}

fn stats_body(shared: &Arc<Shared>) -> String {
    let cache = shared.cache.stats();
    let (version, num_sealed, num_nodes) = {
        let live = read_live(shared);
        (live.version(), live.num_sealed(), live.graph().num_nodes())
    };
    let subscribers = lock(&shared.subscribers).len();
    let server = server_stats(shared);
    let checkpoints = server.checkpoints;
    format!(
        "{{\"cache\": {{\"hits\": {}, \"extensions\": {}, \"extended_shared\": {}, \
         \"redimensioned\": {}, \"stable_core_resettled\": {}, \"recomputes\": {}, \
         \"misses\": {}, \"evictions\": {}, \"coalesced\": {}, \"requests\": {}, \
         \"hit_rate\": {:.6}}}, \
         \"server\": {{\"requests\": {}, \"bad_requests\": {}, \"subscribers\": {subscribers}, \
         \"subscriptions_opened\": {}, \"frames_pushed\": {}, \"requests_shed\": {}, \
         \"connection_threads_created\": {}, \"connection_threads_alive\": {}, \
         \"tail_read_errors\": {}, \"ingest_forwarded\": {}, \"forward_failures\": {}}}, \
         \"log\": {{\"segments_sealed\": {}, \"segments_replayed\": {}, \
         \"follower_lag_seals\": {}, \"segments_bytes\": {}, \
         \"checkpoint_bytes\": {}, \"segments_compacted\": {}, \
         \"checkpoints_written\": {}, \"checkpoint_bases_written\": {}, \
         \"checkpoint_failures\": {}, \"checkpoint_us_total\": {}, \
         \"checkpoint_bytes_written\": {}, \"recovery_replayed_events\": {}}}, \
         \"graph\": {{\"version\": {version}, \"num_sealed\": {num_sealed}, \"num_nodes\": {num_nodes}}}}}",
        cache.hits,
        cache.extensions,
        cache.extended_shared,
        cache.redimensioned,
        cache.stable_core_resettled,
        cache.recomputes,
        cache.misses,
        cache.evictions,
        cache.coalesced,
        cache.requests(),
        cache.hit_rate(),
        server.requests,
        server.bad_requests,
        server.subscriptions_opened,
        server.frames_pushed,
        server.requests_shed,
        server.connection_threads_created,
        server.connection_threads_alive,
        server.tail_read_errors,
        server.ingest_forwarded,
        server.forward_failures,
        server.segments_sealed,
        server.segments_replayed,
        server.follower_lag_seals,
        server.segments_bytes,
        server.checkpoint_bytes,
        checkpoints.segments_compacted,
        checkpoints.written,
        checkpoints.bases_written,
        checkpoints.failures,
        checkpoints.us_total,
        checkpoints.bytes_written,
        server.recovery_replayed_events,
    )
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
    fn frames_carry_sequence_version_label_log_counters_and_outcome() {
        let labels = LogLabels {
            segments_sealed: 4,
            segments_replayed: 2,
            follower_lag_seals: 1,
        };
        let frame = frame_body(3, 9, Some(41), "extended", labels, Err("window moved"));
        assert_eq!(
            frame,
            "{\"seq\": 3, \"version\": 9, \"label\": 41, \"segments_sealed\": 4, \
             \"segments_replayed\": 2, \"follower_lag_seals\": 1, \
             \"outcome\": \"extended\", \"error\": \"window moved\"}"
        );
        let initial = frame_body(0, 1, None, "miss", labels, Err("x"));
        assert!(!initial.contains("\"label\""));
    }

    #[test]
    fn frames_embed_the_streamed_result_document_verbatim() {
        let g = egraph_core::examples::paper_figure1();
        let result = egraph_query::Search::from(egraph_core::ids::TemporalNode::from_raw(0, 0))
            .with_parents()
            .run(&g)
            .unwrap();
        let labels = LogLabels {
            segments_sealed: 0,
            segments_replayed: 1 << 40,
            follower_lag_seals: 7,
        };
        let frame = frame_body(1, 2, Some(i64::MIN), "hit", labels, Ok(&result));
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
