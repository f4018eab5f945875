//! The server: configuration, lifecycle, the accept loop, routing and the
//! seam every final response goes through. The handlers live in one
//! submodule per suite that drives them: `read` (`/query`, `/subscribe`
//! and its frames, `/stats`, `/health`), `write` (`/ingest`, the publish
//! section, checkpointing, `/log/tail`, `/checkpoint/latest`) and
//! `follower` (bootstrap, the tail loop, write-forwarding).
//!
//! One thread owns `accept()` and admission; every admitted connection
//! runs on a connection thread of its own (`crate::connections`), so a
//! handler may block on another connection without starving it. Engines
//! and cache repairs run on the rayon pool, which serves nothing else;
//! slow client I/O is bounded by [`ServerConfig::io_timeout`].
//!
//! ## Routes
//!
//! | route | body | answer |
//! |---|---|---|
//! | `POST /query` | a [`QueryDescriptor`] JSON document | the `SearchResult` JSON document |
//! | `POST /subscribe` | a descriptor | chunked stream: one frame now, one per sealed snapshot, each `{"seq", "version", "label"?, "segments_sealed", "segments_replayed", "follower_lag_seals", "outcome", "result"}` |
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
//! 2. Single-flight (`crate::singleflight`) — the first cold request
//!    leads and computes through [`QueryCache::execute_traced`]; identical
//!    requests arriving meanwhile park their connections and are answered
//!    by the leader from the same serialized bytes (counted as
//!    [`CacheStats::coalesced`]).
//! 3. The computation itself — which still lands in the cache, so the
//!    *next* burst starts at tier 1.
//!
//! ## Writes and push
//!
//! Every change a reader can see — an `/ingest` seal, a tailed segment, a
//! follower's re-bootstrap — goes through one publish section: it takes
//! the graph's write lock for the mutation only, then (if a snapshot
//! became visible) re-executes every standing subscription through the
//! cache — extendable queries advance incrementally per the cache's
//! invalidation matrix — and pushes one frame per subscriber. `seal_lock`
//! serializes publish sections and subscription registration, so every
//! subscriber sees every seal exactly once, in order, with no gap between
//! its initial frame and the first push.
//!
//! ## Durability and replication
//!
//! [`Server::start_durable`] pairs the graph with an `egraph-log`
//! [`EventLog`]. A sealing `/ingest` follows write-ahead order: validate
//! the label, fsync the segment ([`EventLog::seal`]) outside the graph's
//! write lock, so readers never wait on the disk, *then* publish and
//! acknowledge. A crash loses only events whose seal was never
//! acknowledged; [`egraph_stream::DurableGraph::open`] replays the rest.
//! With [`ServerConfig::checkpoint_every`] set, the publish section also
//! runs the durable layer's [`Checkpointer`], so recovery replays only the
//! suffix sealed after the newest checkpoint (`recovery_replayed_events`
//! in `/stats`); a failed checkpoint is counted, logged and skipped, since
//! the seal it rode on is already durable.
//!
//! [`Server::start_follower`] tails a leader's sealed segments, applies
//! them through the [`egraph_stream::replay_segment`] crash recovery uses,
//! and re-broadcasts from its own [`QueryCache`]; `follower_lag_seals` in
//! `/stats` and on every frame says how far behind the leader it is. A
//! follower whose resume point the leader compacted away (`410` on tail,
//! or a sequence gap) re-bootstraps from the leader's checkpoint instead
//! of halting, and its subscribers get a frame at the new version.
//!
//! ## Overload
//!
//! Past [`ServerConfig::max_inflight`] admitted connections, the accept
//! thread sheds the next one with `503` + `Retry-After` *before* reading
//! the request, so shedding needs no connection thread even when slow
//! computations pin them all. Parked connections (subscribers, tailers,
//! coalesced waiters) do not count against the bound. Shed requests are
//! counted as `requests_shed` in `/stats`;
//! [`crate::client::Client::post_with_retry`] is the client side.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use egraph_log::EventLog;
use egraph_query::codec::search_result_to_json;
use egraph_query::{QueryDescriptor, SearchResult};
use egraph_stream::durable::{CheckpointStats, Checkpointer, RecoveredGraph};
use egraph_stream::{CacheStats, LiveGraph, QueryCache};

use crate::connections::ConnectionThreads;
use crate::http::{self, RequestError};
use crate::lock;
use crate::singleflight::SingleFlight;

mod follower;
mod read;
mod write;

/// Tunables for [`Server::start`]. `Default` is production-shaped; tests
/// tighten limits and set the determinism hook.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Largest accepted request body; bigger declarations get `413` without
    /// the body ever being read.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout — a stalled or vanished
    /// client cannot pin a handler forever. `None` disables; a zero
    /// duration is rejected.
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
    /// would shed every request, zero forward attempts would make a
    /// follower's `/ingest` unconditionally fail, and a zero I/O timeout
    /// cannot be set on a socket (it would leave connections with none).
    pub fn validate(&self) -> Result<(), String> {
        if self.io_timeout == Some(Duration::ZERO) {
            return Err("io_timeout must be nonzero (use None to disable)".into());
        }
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
    /// Serializes publish sections and subscription registration:
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
    /// The request and replication counters; [`Server::stats`] adds the
    /// gauges (threads, disk bytes, checkpoint counters) to a copy.
    counters: Mutex<ServerStats>,
    /// The checkpoint writer and its counters (policy from the config).
    checkpointer: Mutex<Checkpointer>,
}

impl Shared {
    /// A server's state with no log, no leader and every counter at zero;
    /// durable leaders and followers set their parts before launch.
    fn new(live: LiveGraph, config: ServerConfig) -> Shared {
        Shared {
            live: RwLock::new(live),
            cache: QueryCache::new(),
            flight: SingleFlight::new(),
            subscribers: Mutex::new(Vec::new()),
            seal_lock: Mutex::new(()),
            log: None,
            tailers: Mutex::new(Vec::new()),
            follower: None,
            connections: ConnectionThreads::new(config.max_inflight),
            config,
            shutting_down: AtomicBool::new(false),
            counters: Mutex::default(),
            checkpointer: Mutex::default(),
        }
    }

    /// Updates the counters under their lock.
    fn count(&self, update: impl FnOnce(&mut ServerStats)) {
        update(&mut lock(&self.counters));
    }
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
        Self::launch(Shared::new(live, config))
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
        let (live, log, mut checkpointer) = recovered.graph.into_parts();
        checkpointer.set_policy(config.checkpoint_every, config.retain_checkpoints);
        let mut shared = Shared::new(live, config);
        shared.counters = Mutex::new(ServerStats {
            segments_sealed: log.segments_sealed(),
            segments_replayed: recovered.segments_replayed,
            recovery_replayed_events: recovered.recovery_replayed_events,
            ..ServerStats::default()
        });
        shared.log = Some(Mutex::new(log));
        shared.checkpointer = Mutex::new(checkpointer);
        Self::launch(shared)
    }

    /// Validates the configuration, binds, and starts the accept thread.
    fn launch(shared: Shared) -> std::io::Result<Server> {
        let config = &shared.config;
        config
            .validate()
            .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message))?;
        let listener = match config.bind {
            Some(addr) => TcpListener::bind(addr)?,
            None => TcpListener::bind(("127.0.0.1", 0))?,
        };
        let addr = listener.local_addr()?;
        let shared = Arc::new(shared);
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
        read::server_stats(&self.shared)
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
            shared.count(|c| c.requests_shed += 1);
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
    let _ = http::write_sized_response(
        &mut stream,
        503,
        http::JSON,
        http::error_body("server overloaded; retry after the indicated delay").as_bytes(),
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
    shared.count(|c| c.requests += 1);

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
        ("POST", "/query") => read::handle_query(shared, stream, &request),
        ("POST", "/subscribe") => read::handle_subscribe(shared, stream, &request),
        ("POST", "/ingest") => write::handle_ingest(shared, stream, &request),
        ("GET", "/log/tail") => write::handle_tail(shared, stream, query),
        ("GET", "/checkpoint/latest") => write::handle_checkpoint_latest(shared, stream),
        ("GET", "/stats") => respond(shared, &mut stream, 200, &read::stats_body(shared)),
        ("GET", "/health") => respond(shared, &mut stream, 200, &read::health_body(shared)),
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

/// The seam every final response goes through. The thread first marks
/// itself as finishing, so a client that reconnects the moment it has read
/// the last byte is handed back to this thread rather than to a new one
/// (see `crate::connections`).
fn respond_with(
    shared: &Shared,
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    retry_after: Option<u64>,
) {
    shared.connections.finishing();
    let _ = http::write_sized_response(stream, status, content_type, body, retry_after);
}

/// A final JSON response through [`respond_with`].
fn respond(shared: &Shared, stream: &mut TcpStream, status: u16, body: &str) {
    respond_with(shared, stream, status, http::JSON, body.as_bytes(), None);
}

/// Answers a request the server refuses with a `4xx` status and the
/// structured JSON error body, counting it in [`ServerStats::bad_requests`].
fn reject(shared: &Shared, stream: &mut TcpStream, status: u16, message: &str) {
    shared.count(|c| c.bad_requests += 1);
    respond(shared, stream, status, &http::error_body(message));
}

/// Answers a `/query`: the body is encoded once, and the caller and every
/// connection coalesced onto it (each counted in
/// [`CacheStats::coalesced`]) receive the same bytes. A semantically
/// failing query (a root outside the sealed range, say) is a `422` for all
/// of them, counted once in [`ServerStats::bad_requests`]; the cache never
/// stores errors, so the same request can heal as the graph grows.
fn answer(
    shared: &Shared,
    stream: &mut TcpStream,
    waiters: Vec<TcpStream>,
    computed: Result<&SearchResult, String>,
) {
    let (status, body) = match computed {
        Ok(result) => (200, search_result_to_json(result)),
        Err(message) => {
            shared.count(|c| c.bad_requests += 1);
            (422, http::error_body(&message))
        }
    };
    respond(shared, stream, status, &body);
    for mut waiter in waiters {
        if status == 200 {
            shared.cache.note_coalesced();
        }
        let _ = http::write_response(&mut waiter, status, &body);
    }
}

fn read_live(shared: &Shared) -> std::sync::RwLockReadGuard<'_, LiveGraph> {
    shared.live.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_live(shared: &Shared) -> std::sync::RwLockWriteGuard<'_, LiveGraph> {
    shared.live.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_io_timeout_is_rejected_and_none_disables() {
        let zero = ServerConfig {
            io_timeout: Some(Duration::ZERO),
            ..ServerConfig::default()
        };
        let err = zero.validate().unwrap_err();
        assert!(err.contains("use None to disable"), "{err}");
        let none = ServerConfig {
            io_timeout: None,
            ..ServerConfig::default()
        };
        assert_eq!(none.validate(), Ok(()));
        assert_eq!(ServerConfig::default().validate(), Ok(()));
    }
}
