//! Durability for [`LiveGraph`]: write-ahead logging and crash recovery.
//!
//! This module is the bridge between the in-memory event model
//! ([`EdgeEvent`]) and the graph-agnostic storage engine (`egraph-log`):
//! it owns the `EdgeEvent` ↔ [`LogRecord`] mapping, the segment replay
//! used by both recovery and follower replication, and [`DurableGraph`] —
//! a `LiveGraph` paired with an [`EventLog`] so every applied event is
//! mirrored into the log and every seal is fsynced *before* it is
//! acknowledged.
//!
//! The write-ahead ordering on seal is:
//!
//! 1. validate the label with [`LiveGraph::can_seal`] (the only way a seal
//!    can fail, checked before anything is committed);
//! 2. [`EventLog::seal`] — encode, write, fsync; the durability point;
//! 3. [`LiveGraph::seal_snapshot`] — publish to searches; cannot fail
//!    after step 1.
//!
//! Events applied but not yet sealed live only in memory (both buffers);
//! a crash loses them, which is exactly the contract — the seal is the
//! acknowledgement boundary, and recovery restores the last sealed
//! snapshot bit-for-bit.
//!
//! Checkpoints bound how much of that log recovery must replay. The one
//! writer, [`Checkpointer`], installs an atomically renamed
//! `checkpoint-<seq>.bin` after which covered segment files may be
//! compacted away. Checkpoints chain (`egraph-log`'s checkpoint module):
//! a link holds one `egraph-io` append record with only the columns sealed
//! since its predecessor, and a fresh base (the whole graph) is written
//! only once the chain's links outgrow half of their base in bytes — so
//! the bytes written per sealed event stay bounded by a constant however
//! long the history grows. The first checkpoint after a restart links onto
//! the one recovery loaded. The one loader, [`newest_loadable_checkpoint`],
//! serves both [`DurableGraph::open`] — which restores from the newest
//! valid checkpoint and replays only the segments sealed after it, falling
//! back to an older checkpoint and ultimately to full replay, never to
//! silent corruption — and the server's `GET /checkpoint/latest`; followers
//! decode what that serves through [`live_from_checkpoint`].

use std::path::Path;
use std::time::Instant;

use egraph_core::csr::CsrAdjacency;
use egraph_core::error::GraphError;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::{NodeId, TimeIndex, Timestamp};
use egraph_io::binary::LogRecord;
use egraph_io::checkpoint::{decode_checkpoint, encode_append_record};
use egraph_log::{ChainSize, EventLog, LogError, SealedSegment};

use crate::event::EdgeEvent;
use crate::live::LiveGraph;

/// Why a durable-graph operation failed.
#[derive(Debug)]
pub enum DurableError {
    /// The graph layer rejected an event or a seal.
    Graph(GraphError),
    /// The log layer failed (I/O or on-disk corruption).
    Log(LogError),
    /// A replayed record could not be turned into an event (e.g. a node
    /// count beyond this platform's address space). Never produced by
    /// logs this process wrote.
    Replay(String),
    /// Checkpoint bookkeeping failed, or recovery found a compacted log
    /// whose missing prefix no valid checkpoint covers — the one corruption
    /// shape the fallback chain cannot repair, reported loudly instead of
    /// rebuilding a silently shorter history.
    Checkpoint(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Graph(err) => write!(f, "graph: {err}"),
            DurableError::Log(err) => write!(f, "log: {err}"),
            DurableError::Replay(detail) => write!(f, "replay: {detail}"),
            DurableError::Checkpoint(detail) => write!(f, "checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Graph(err) => Some(err),
            DurableError::Log(err) => Some(err),
            DurableError::Replay(_) | DurableError::Checkpoint(_) => None,
        }
    }
}

impl From<GraphError> for DurableError {
    fn from(err: GraphError) -> Self {
        DurableError::Graph(err)
    }
}

impl From<LogError> for DurableError {
    fn from(err: LogError) -> Self {
        DurableError::Log(err)
    }
}

/// A [`DurableError`] result.
pub type Result<T> = std::result::Result<T, DurableError>;

/// The wire/log record for an event. Total: every event has a record.
pub fn event_to_record(event: &EdgeEvent) -> LogRecord {
    match *event {
        EdgeEvent::Insert { src, dst } => LogRecord::Insert {
            src: src.0,
            dst: dst.0,
        },
        EdgeEvent::InsertUnique { src, dst } => LogRecord::InsertUnique {
            src: src.0,
            dst: dst.0,
        },
        EdgeEvent::GrowNodes { num_nodes } => LogRecord::GrowNodes {
            num_nodes: num_nodes as u64,
        },
    }
}

/// The event a log record replays as.
///
/// # Errors
/// [`DurableError::Replay`] for `Init`/`Seal` (the log's own framing —
/// [`egraph_log::decode_segment`] never leaves them in a segment body) and
/// for a `GrowNodes` count that does not fit this platform's `usize`.
pub fn record_to_event(record: &LogRecord) -> Result<EdgeEvent> {
    match *record {
        LogRecord::Insert { src, dst } => Ok(EdgeEvent::insert(NodeId(src), NodeId(dst))),
        LogRecord::InsertUnique { src, dst } => {
            Ok(EdgeEvent::insert_unique(NodeId(src), NodeId(dst)))
        }
        LogRecord::GrowNodes { num_nodes } => match usize::try_from(num_nodes) {
            Ok(num_nodes) => Ok(EdgeEvent::grow_nodes(num_nodes)),
            Err(_) => Err(DurableError::Replay(format!(
                "grow_nodes({num_nodes}) exceeds this platform's usize"
            ))),
        },
        LogRecord::Seal { .. } | LogRecord::Init { .. } => Err(DurableError::Replay(format!(
            "{record:?} is log framing, not an event"
        ))),
    }
}

/// Applies one sealed segment to a live graph: every event, then the seal
/// under the segment's label. This is the single replay primitive shared
/// by crash recovery and follower replication, so a follower's graph is
/// built by exactly the code a restart uses.
pub fn replay_segment(live: &mut LiveGraph, segment: &SealedSegment) -> Result<TimeIndex> {
    for record in &segment.events {
        live.apply(record_to_event(record)?)?;
    }
    Ok(live.seal_snapshot(segment.label)?)
}

/// What [`Checkpointer::write`] durably installed.
#[derive(Clone, Debug)]
pub struct CheckpointReceipt {
    /// The checkpoint's sequence number: the last log segment it absorbs
    /// (= the checkpointed version − 1).
    pub last_seq: u64,
    /// The installed checkpoint file's size in bytes.
    pub bytes: u64,
    /// How many covered segment files compaction deleted afterwards.
    pub segments_compacted: u64,
    /// Links in the chain once this checkpoint is installed: `0` when it
    /// is a fresh base.
    pub chain_links: u64,
}

/// Counters over every checkpoint a [`Checkpointer`] attempted — what the
/// server's `/stats` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints installed, bases and links.
    pub written: u64,
    /// Of those, fresh bases.
    pub bases_written: u64,
    /// Attempts that failed. The seal each rode on still succeeded.
    pub failures: u64,
    /// Wall time of every attempt, encode through compaction, in µs.
    pub us_total: u64,
    /// Size of every installed checkpoint file, summed.
    pub bytes_written: u64,
    /// Segment files compaction deleted.
    pub segments_compacted: u64,
}

/// The newest checkpoint of the chain the next link extends.
#[derive(Clone, Copy, Debug)]
struct ChainTip {
    seq: u64,
    /// Snapshots it covers: where the next link's record starts.
    snapshots: usize,
    size: ChainSize,
}

/// The one checkpoint writer, shared by [`DurableGraph`] and the HTTP
/// server: the policy (checkpoint `every` N seals, 0 = never; `retain` the
/// newest N), the chain the next checkpoint extends, and the counters.
#[derive(Clone, Debug, Default)]
pub struct Checkpointer {
    every: u64,
    retain: usize,
    tip: Option<ChainTip>,
    stats: CheckpointStats,
}

impl Checkpointer {
    /// Sets the policy: every `every` seals (0 = never), keeping the newest
    /// `retain` checkpoints plus their ancestors on disk (at least 1, so
    /// compaction can never orphan the log's missing prefix; from 2 on,
    /// also a fallback chain on another base — see
    /// [`egraph_log::retain_checkpoints`]). The chain in progress is kept.
    pub fn set_policy(&mut self, every: u64, retain: usize) {
        self.every = every;
        self.retain = retain;
    }

    /// Whether the policy checkpoints the seal that produced `version`.
    pub fn is_due(&self, version: u64) -> bool {
        self.every > 0 && version > 0 && version.is_multiple_of(self.every)
    }

    /// The counters so far.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// Checkpoints `graph` at `version` into `log`'s directory: a link
    /// holding only the columns sealed since the chain's newest checkpoint,
    /// or a fresh base when there is no chain yet or its links have
    /// outgrown half of their base. Encodes straight from the borrowed
    /// columns, installs atomically, prunes beyond the retain count, then
    /// deletes the segment files the *oldest kept* checkpoint absorbs.
    ///
    /// # Errors
    /// [`DurableError::Checkpoint`] at version 0, [`DurableError::Log`]
    /// for I/O failures; either leaves the log recoverable and is counted
    /// in [`CheckpointStats::failures`].
    pub fn write(
        &mut self,
        log: &mut EventLog,
        graph: &CsrAdjacency,
        version: u64,
    ) -> Result<CheckpointReceipt> {
        let started = Instant::now();
        let result = self.install(log, graph, version);
        let stats = &mut self.stats;
        stats.us_total += started.elapsed().as_micros() as u64;
        match &result {
            Ok(receipt) => {
                stats.written += 1;
                stats.bases_written += u64::from(receipt.chain_links == 0);
                stats.bytes_written += receipt.bytes;
                stats.segments_compacted += receipt.segments_compacted;
            }
            Err(_) => stats.failures += 1,
        }
        result
    }

    fn install(
        &mut self,
        log: &mut EventLog,
        graph: &CsrAdjacency,
        version: u64,
    ) -> Result<CheckpointReceipt> {
        if version == 0 {
            return Err(DurableError::Checkpoint(
                "version 0 has no sealed history to checkpoint".to_string(),
            ));
        }
        let last_seq = version - 1;
        let link = self
            .tip
            .filter(|tip| tip.seq < last_seq && 2 * tip.size.links_bytes <= tip.size.base_bytes);
        let from = link.map_or(0, |tip| tip.snapshots);
        let payload = encode_append_record(graph.columns(), from, version);
        let prev = link.map(|tip| tip.seq);
        let bytes = egraph_log::install_checkpoint(log.dir(), last_seq, prev, &payload)?;
        let size = match link {
            Some(tip) => ChainSize {
                links_bytes: tip.size.links_bytes + bytes,
                links: tip.size.links + 1,
                ..tip.size
            },
            None => ChainSize {
                base_bytes: bytes,
                ..ChainSize::default()
            },
        };
        self.tip = Some(ChainTip {
            seq: last_seq,
            snapshots: graph.num_timestamps(),
            size,
        });
        // Nothing is compacted until a second chain stands in for this one.
        let segments_compacted = match egraph_log::retain_checkpoints(log.dir(), self.retain)?[..] {
            [oldest, ..] => log.compact_through(oldest)?,
            [] => 0,
        };
        Ok(CheckpointReceipt {
            last_seq,
            bytes,
            segments_compacted,
            chain_links: size.links,
        })
    }
}

/// What [`DurableGraph::seal_snapshot`] durably committed.
#[derive(Clone, Debug)]
pub struct SealReceipt {
    /// The sealed snapshot's time index in the graph.
    pub time: TimeIndex,
    /// The sealed segment's sequence number in the log.
    pub seq: u64,
    /// The segment's exact on-disk bytes (what replication ships).
    pub bytes: Vec<u8>,
    /// The checkpoint this seal triggered under the configured policy:
    /// `None` when none was due, `Some(Err(why))` when one was due but
    /// failed (also counted in [`CheckpointStats::failures`]). A
    /// checkpoint is a recovery optimisation, not part of the durability
    /// contract, so its failure never fails the already-fsynced seal.
    pub checkpoint: Option<std::result::Result<CheckpointReceipt, String>>,
}

/// What [`DurableGraph::open`] (and [`LiveGraph::recover`]) rebuilt.
#[derive(Debug)]
pub struct RecoveredGraph {
    /// The recovered graph, ready to keep appending.
    pub graph: DurableGraph,
    /// How many sealed segments were replayed from disk. Without a
    /// checkpoint this equals the restored [`LiveGraph::version`]; with one
    /// it counts only the suffix sealed after [`checkpoint_seq`].
    ///
    /// [`checkpoint_seq`]: RecoveredGraph::checkpoint_seq
    pub segments_replayed: u64,
    /// How many events (edge inserts and grows) those segments replayed —
    /// the bounded-replay metric: with checkpointing enabled this stays at
    /// most the events of `checkpoint_every` seals, however long the total
    /// history grows.
    pub recovery_replayed_events: u64,
    /// The checkpoint recovery restored state from (its `last_seq`), or
    /// `None` for a full replay from segment 0.
    pub checkpoint_seq: Option<u64>,
    /// Whether a torn final segment — the residue of a crash mid-seal —
    /// was found and truncated away.
    pub dropped_torn_tail: bool,
}

/// A [`LiveGraph`] whose event stream is write-ahead logged to an
/// [`EventLog`] so it survives a crash or restart. See the
/// [module docs](self) for the ordering contract.
#[derive(Debug)]
pub struct DurableGraph {
    live: LiveGraph,
    log: EventLog,
    checkpointer: Checkpointer,
}

impl DurableGraph {
    fn assemble(live: LiveGraph, log: EventLog, tip: Option<ChainTip>) -> DurableGraph {
        let checkpointer = Checkpointer {
            retain: 2,
            tip,
            ..Checkpointer::default()
        };
        DurableGraph {
            live,
            log,
            checkpointer,
        }
    }

    /// Creates a fresh durable graph: a new [`EventLog`] at `dir` plus an
    /// empty [`LiveGraph`] over `num_nodes` nodes.
    pub fn create(dir: impl AsRef<Path>, num_nodes: usize, directed: bool) -> Result<DurableGraph> {
        let log = EventLog::create(dir, num_nodes as u64, directed)?;
        let live = if directed {
            LiveGraph::directed(num_nodes)
        } else {
            LiveGraph::undirected(num_nodes)
        };
        Ok(DurableGraph::assemble(live, log, None))
    }

    /// Opens the log at `dir` and rebuilds the live graph exactly as it
    /// stood at its last acknowledged seal (same CSR contents, same
    /// monotone version = seal count).
    ///
    /// Recovery is checkpoint-first with bounded replay: the newest *valid*
    /// checkpoint restores the sealed CSR state directly and only segments
    /// sealed after it are replayed. A corrupt, torn or inconsistent
    /// checkpoint falls back to the next older one, and ultimately to a
    /// full replay from segment 0 — never silent corruption. A torn final
    /// segment is truncated; corrupt segment history fails loudly, as does
    /// a compacted log whose missing prefix no valid checkpoint covers
    /// ([`DurableError::Checkpoint`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<RecoveredGraph> {
        let dir = dir.as_ref();
        let recovered = EventLog::open(dir)?;
        let (num_nodes, directed) = recovered.log.init();
        let num_nodes = usize::try_from(num_nodes).map_err(|_| {
            DurableError::Replay(format!(
                "init num_nodes {num_nodes} exceeds this platform's usize"
            ))
        })?;

        if let Some(loaded) = newest_loadable_checkpoint(&recovered.log)? {
            let LoadedCheckpoint {
                last_seq,
                mut live,
                tip,
                payload,
            } = loaded;
            drop(payload);
            let mut segments_replayed = 0u64;
            let mut recovery_replayed_events = 0u64;
            for segment in &recovered.segments {
                if segment.seq <= last_seq {
                    continue;
                }
                recovery_replayed_events += segment.events.len() as u64;
                replay_segment(&mut live, segment)?;
                segments_replayed += 1;
            }
            return Ok(RecoveredGraph {
                graph: DurableGraph::assemble(live, recovered.log, Some(tip)),
                segments_replayed,
                recovery_replayed_events,
                checkpoint_seq: Some(last_seq),
                dropped_torn_tail: recovered.dropped_torn_tail,
            });
        }

        // Full replay — only legal if the segment chain still starts at 0.
        if recovered.first_seq > 0 {
            return Err(DurableError::Checkpoint(format!(
                "log at {} starts at segment {} and no valid checkpoint covers \
                 segments 0..={}; refusing to rebuild a truncated history",
                dir.display(),
                recovered.first_seq,
                recovered.first_seq - 1,
            )));
        }
        let mut live = if directed {
            LiveGraph::directed(num_nodes)
        } else {
            LiveGraph::undirected(num_nodes)
        };
        let mut recovery_replayed_events = 0u64;
        for segment in &recovered.segments {
            recovery_replayed_events += segment.events.len() as u64;
            replay_segment(&mut live, segment)?;
        }
        Ok(RecoveredGraph {
            graph: DurableGraph::assemble(live, recovered.log, None),
            segments_replayed: recovered.segments.len() as u64,
            recovery_replayed_events,
            checkpoint_seq: None,
            dropped_torn_tail: recovered.dropped_torn_tail,
        })
    }

    /// [`DurableGraph::open`] if a log exists at `dir`, otherwise
    /// [`DurableGraph::create`] (reported as zero segments replayed).
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        num_nodes: usize,
        directed: bool,
    ) -> Result<RecoveredGraph> {
        let dir = dir.as_ref();
        if dir.join(egraph_log::log::MANIFEST_FILE).exists() {
            Self::open(dir)
        } else {
            Ok(RecoveredGraph {
                graph: Self::create(dir, num_nodes, directed)?,
                segments_replayed: 0,
                recovery_replayed_events: 0,
                checkpoint_seq: None,
                dropped_torn_tail: false,
            })
        }
    }

    /// The live graph (read-only: all mutation goes through this wrapper
    /// so the log never falls behind the graph).
    pub fn live(&self) -> &LiveGraph {
        &self.live
    }

    /// The underlying event log.
    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Splits into the live graph, the log and the checkpoint writer (with
    /// the chain recovery loaded) — for callers (like the HTTP server) that
    /// interleave their own locking between them. The caller inherits the
    /// ordering contract in the [module docs](self).
    pub fn into_parts(self) -> (LiveGraph, EventLog, Checkpointer) {
        (self.live, self.log, self.checkpointer)
    }

    /// Buffers one event into the open snapshot of both the graph and the
    /// log. Validation happens in the graph first, so a rejected event is
    /// never logged.
    pub fn apply(&mut self, event: EdgeEvent) -> Result<()> {
        self.live.apply(event)?;
        self.log.append(event_to_record(&event));
        Ok(())
    }

    /// Convenience: buffers a plain edge insert.
    pub fn insert(&mut self, src: impl Into<NodeId>, dst: impl Into<NodeId>) -> Result<()> {
        self.apply(EdgeEvent::insert(src, dst))
    }

    /// Durably seals the open snapshot: validates the label, fsyncs the
    /// segment to disk, *then* publishes it to searches. Once this
    /// returns, the snapshot survives any crash.
    ///
    /// When a checkpoint policy is set ([`set_checkpoint_policy`]) and the
    /// new version is a multiple of `every`, the seal also writes a
    /// checkpoint, prunes old ones and compacts covered segments. That
    /// bookkeeping is best-effort: the seal is already durable, so a
    /// checkpoint failure is reported as `checkpoint: Some(Err(..))` on the
    /// receipt, never as a seal error.
    ///
    /// [`set_checkpoint_policy`]: DurableGraph::set_checkpoint_policy
    pub fn seal_snapshot(&mut self, label: Timestamp) -> Result<SealReceipt> {
        if !self.live.can_seal(label) {
            return Err(DurableError::Graph(GraphError::UnsortedTimestamps {
                position: self.live.num_sealed(),
            }));
        }
        let sealed = self.log.seal(label)?;
        // Failpoint between the durability point and the publish: a panic
        // scripted here models a crash *after* the fsync — recovery must
        // replay the sealed segment even though no ack was ever sent.
        let _ = egraph_fault::fired("durable.publish");
        let time = self
            .live
            .seal_snapshot(label)
            .expect("can_seal validated the label; publish after fsync cannot fail");
        let checkpoint = self
            .checkpointer
            .is_due(self.live.version())
            .then(|| self.write_checkpoint().map_err(|err| err.to_string()));
        Ok(SealReceipt {
            time,
            seq: sealed.seq,
            bytes: sealed.bytes,
            checkpoint,
        })
    }

    /// Sets the auto-checkpoint policy; see [`Checkpointer::set_policy`].
    pub fn set_checkpoint_policy(&mut self, every: u64, retain: usize) {
        self.checkpointer.set_policy(every, retain);
    }

    /// Checkpoints the sealed state right now; see [`Checkpointer::write`].
    pub fn write_checkpoint(&mut self) -> Result<CheckpointReceipt> {
        let version = self.live.version();
        self.checkpointer
            .write(&mut self.log, self.live.graph(), version)
    }
}

/// Rebuilds a [`LiveGraph`] from a checkpoint payload (a chain's append
/// records, base first) and checks that it pins the version its sequence
/// number implies — a checkpoint covering segments `..= last_seq` is
/// version `last_seq + 1`. Followers decode a fetched checkpoint here.
pub fn live_from_checkpoint(
    last_seq: u64,
    payload: &[u8],
) -> std::result::Result<LiveGraph, String> {
    let (parts, version) = decode_checkpoint(payload).map_err(|err| err.to_string())?;
    if version != last_seq + 1 {
        return Err(format!(
            "checkpoint {last_seq} stores version {version}, expected {}",
            last_seq + 1
        ));
    }
    let csr = CsrAdjacency::from_parts(parts)?;
    Ok(LiveGraph::from_csr_at_version(csr, version))
}

/// A checkpoint that passed every check recovery applies.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The last segment it covers.
    pub last_seq: u64,
    /// Its chain's payloads, base first.
    pub payload: Vec<u8>,
    /// The graph it restores.
    pub live: LiveGraph,
    tip: ChainTip,
}

/// The one checkpoint loader: the newest checkpoint in `log`'s directory
/// whose chain reads back, decodes through [`live_from_checkpoint`],
/// agrees with the manifest and still has its segment suffix on disk. A
/// candidate failing any check falls back to the next older one.
/// [`DurableGraph::open`] and the server's `GET /checkpoint/latest` both
/// pick through here.
///
/// # Errors
/// [`DurableError::Log`] if the directory cannot be listed.
pub fn newest_loadable_checkpoint(log: &EventLog) -> Result<Option<LoadedCheckpoint>> {
    let (init_nodes, directed) = log.init();
    for last_seq in egraph_log::list_checkpoints(log.dir())?.into_iter().rev() {
        // Segments this checkpoint needs were compacted away — only a
        // *newer* checkpoint (already tried) could cover them.
        if log.first_seq() > last_seq + 1 {
            continue;
        }
        let Ok((payload, size)) = egraph_log::read_checkpoint_chain(log.dir(), last_seq) else {
            continue;
        };
        let Ok(live) = live_from_checkpoint(last_seq, &payload) else {
            continue;
        };
        let graph = live.graph();
        if graph.is_directed() != directed || (graph.num_nodes() as u64) < init_nodes {
            continue;
        }
        let tip = ChainTip {
            seq: last_seq,
            snapshots: graph.num_timestamps(),
            size,
        };
        return Ok(Some(LoadedCheckpoint {
            last_seq,
            payload,
            live,
            tip,
        }));
    }
    Ok(None)
}

impl LiveGraph {
    /// Recovers a live graph from the event log at `dir`, rebuilding the
    /// CSR serve graph, the touched sets and the monotone version stamp
    /// exactly as they stood at the last acknowledged seal — from the
    /// newest valid checkpoint plus the segment suffix sealed after it,
    /// or by replaying every durably sealed segment in order when no
    /// checkpoint exists. Convenience alias for [`DurableGraph::open`];
    /// the returned [`RecoveredGraph`] keeps the log handle so ingest can
    /// continue where it left off.
    pub fn recover(dir: impl AsRef<Path>) -> Result<RecoveredGraph> {
        DurableGraph::open(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egraph_core::graph::EvolvingGraph;
    use egraph_io::checkpoint::encode_checkpoint;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir()
                .join(format!("egraph-durable-{tag}-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn every_event_round_trips_through_its_record() {
        for event in [
            EdgeEvent::insert(NodeId(0), NodeId(u32::MAX)),
            EdgeEvent::insert_unique(NodeId(7), NodeId(3)),
            EdgeEvent::grow_nodes(0),
            EdgeEvent::grow_nodes(1 << 20),
        ] {
            let record = event_to_record(&event);
            assert_eq!(record_to_event(&record).unwrap(), event);
        }
        assert!(matches!(
            record_to_event(&LogRecord::Seal { label: 3 }),
            Err(DurableError::Replay(_))
        ));
        assert!(matches!(
            record_to_event(&LogRecord::Init {
                num_nodes: 1,
                directed: true
            }),
            Err(DurableError::Replay(_))
        ));
    }

    #[test]
    fn recovery_rebuilds_the_graph_at_its_last_seal() {
        let dir = TempDir::new("rebuild");
        {
            let mut durable = DurableGraph::create(dir.path(), 3, true).unwrap();
            durable.insert(NodeId(0), NodeId(1)).unwrap();
            let receipt = durable.seal_snapshot(10).unwrap();
            assert_eq!((receipt.time, receipt.seq), (TimeIndex(0), 0));
            durable.apply(EdgeEvent::grow_nodes(5)).unwrap();
            durable.insert(NodeId(1), NodeId(4)).unwrap();
            durable
                .apply(EdgeEvent::insert_unique(NodeId(1), NodeId(4)))
                .unwrap();
            durable.seal_snapshot(20).unwrap();
            // Applied but never sealed: must not survive.
            durable.insert(NodeId(2), NodeId(3)).unwrap();
        }
        let recovered = LiveGraph::recover(dir.path()).unwrap();
        assert_eq!(recovered.segments_replayed, 2);
        assert!(!recovered.dropped_torn_tail);
        let live = recovered.graph.live();
        assert_eq!(live.version(), 2);
        assert_eq!(live.num_pending(), 0);
        assert_eq!(live.num_nodes(), 5);
        assert_eq!(live.num_static_edges(), 2); // the InsertUnique deduped
        assert!(live
            .graph()
            .has_static_edge(NodeId(0), NodeId(1), TimeIndex(0)));
        assert!(live
            .graph()
            .has_static_edge(NodeId(1), NodeId(4), TimeIndex(1)));
        assert_eq!(EvolvingGraph::timestamp(live, TimeIndex(1)), 20);

        // Ingest continues where the log left off.
        let mut durable = recovered.graph;
        durable.insert(NodeId(2), NodeId(3)).unwrap();
        let receipt = durable.seal_snapshot(30).unwrap();
        assert_eq!((receipt.time, receipt.seq), (TimeIndex(2), 2));
    }

    #[test]
    fn a_rejected_seal_commits_nothing_durably() {
        let dir = TempDir::new("reject");
        let mut durable = DurableGraph::create(dir.path(), 3, true).unwrap();
        durable.seal_snapshot(5).unwrap();
        durable.insert(NodeId(0), NodeId(1)).unwrap();
        assert!(matches!(
            durable.seal_snapshot(5),
            Err(DurableError::Graph(GraphError::UnsortedTimestamps { .. }))
        ));
        // Neither the log nor the graph advanced; a later label succeeds.
        assert_eq!(durable.log().segments_sealed(), 1);
        durable.seal_snapshot(6).unwrap();
        let recovered = DurableGraph::open(dir.path()).unwrap();
        assert_eq!(recovered.segments_replayed, 2);
    }

    #[test]
    fn a_rejected_event_is_never_logged() {
        let dir = TempDir::new("badevent");
        let mut durable = DurableGraph::create(dir.path(), 2, true).unwrap();
        assert!(durable.insert(NodeId(0), NodeId(9)).is_err());
        assert!(durable.insert(NodeId(1), NodeId(1)).is_err());
        durable.insert(NodeId(0), NodeId(1)).unwrap();
        durable.seal_snapshot(0).unwrap();
        assert_eq!(durable.log().num_pending(), 0);
        let recovered = DurableGraph::open(dir.path()).unwrap();
        assert_eq!(recovered.graph.live().num_static_edges(), 1);
    }

    /// Seal `s`'s scripted event batch and label — the same deterministic
    /// stream for a durable graph and its never-restarted twin.
    fn scripted_batch(s: u64) -> (Vec<EdgeEvent>, Timestamp) {
        let src = NodeId((s % 4) as u32);
        let dst = NodeId(((s + 1) % 4) as u32);
        let events = vec![
            EdgeEvent::insert(src, dst),
            EdgeEvent::insert_unique(dst, src),
        ];
        (events, 10 * (s as i64 + 1))
    }

    #[test]
    fn checkpointed_recovery_replays_only_the_suffix() {
        let dir = TempDir::new("ckpt-suffix");
        let mut twin = LiveGraph::directed(4);
        {
            let mut durable = DurableGraph::create(dir.path(), 4, true).unwrap();
            durable.set_checkpoint_policy(2, 1);
            for s in 0..5 {
                let (events, label) = scripted_batch(s);
                for event in events {
                    durable.apply(event).unwrap();
                    twin.apply(event).unwrap();
                }
                let receipt = durable.seal_snapshot(label).unwrap();
                twin.seal_snapshot(label).unwrap();
                let checkpoint = receipt.checkpoint;
                if (s + 1) % 2 == 0 {
                    let checkpoint = checkpoint
                        .expect("policy-due seal must checkpoint")
                        .unwrap();
                    assert_eq!(checkpoint.last_seq, s);
                    assert_eq!(checkpoint.segments_compacted, 2);
                } else {
                    assert!(checkpoint.is_none());
                }
            }
        }
        let recovered = LiveGraph::recover(dir.path()).unwrap();
        assert_eq!(recovered.checkpoint_seq, Some(3));
        assert_eq!(recovered.segments_replayed, 1);
        // Bounded replay: only seal 4's two events, not the whole history.
        assert_eq!(recovered.recovery_replayed_events, 2);
        let live = recovered.graph.live();
        assert_eq!(live.version(), 5);
        assert_eq!(live.graph().to_parts(), twin.graph().to_parts());
        // Ingest continues after the compacted prefix without seq reuse.
        let mut durable = recovered.graph;
        durable.insert(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(durable.seal_snapshot(1000).unwrap().seq, 5);
    }

    #[test]
    fn a_bad_checkpoint_falls_back_to_an_older_one_and_then_to_full_replay() {
        let dir = TempDir::new("ckpt-fallback");
        let mut parts_v2 = None;
        {
            let mut durable = DurableGraph::create(dir.path(), 4, true).unwrap();
            for s in 0..3 {
                let (events, label) = scripted_batch(s);
                for event in events {
                    durable.apply(event).unwrap();
                }
                durable.seal_snapshot(label).unwrap();
                if s == 1 {
                    parts_v2 = Some(durable.live().graph().to_parts());
                }
            }
            // Install checkpoints by hand (no compaction) so every
            // fallback tier stays reachable: a valid one at seq 1 and a
            // newest one at seq 2 we then damage.
            let v2 = encode_checkpoint(parts_v2.as_ref().unwrap(), 2);
            egraph_log::write_checkpoint(dir.path(), 1, &v2).unwrap();
            let v3 = encode_checkpoint(&durable.live().graph().to_parts(), 3);
            egraph_log::write_checkpoint(dir.path(), 2, &v3).unwrap();
        }
        let newest = egraph_log::checkpoint_path(dir.path(), 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // breaks the payload CRC
        std::fs::write(&newest, &bytes).unwrap();

        let recovered = LiveGraph::recover(dir.path()).unwrap();
        assert_eq!(recovered.checkpoint_seq, Some(1));
        assert_eq!(recovered.segments_replayed, 1);
        assert_eq!(recovered.graph.live().version(), 3);
        let full_state = recovered.graph.live().graph().to_parts();

        // Damage the older one too (version/name mismatch this time):
        // recovery degrades to a full replay of the intact segment chain.
        let older = egraph_log::checkpoint_path(dir.path(), 1);
        let wrong_version = encode_checkpoint(parts_v2.as_ref().unwrap(), 99);
        std::fs::write(
            &older,
            egraph_log::encode_checkpoint_file(1, &wrong_version),
        )
        .unwrap();
        let recovered = LiveGraph::recover(dir.path()).unwrap();
        assert_eq!(recovered.checkpoint_seq, None);
        assert_eq!(recovered.segments_replayed, 3);
        assert_eq!(recovered.graph.live().version(), 3);
        assert_eq!(recovered.graph.live().graph().to_parts(), full_state);
    }

    #[test]
    fn a_compacted_log_without_a_valid_checkpoint_fails_loudly() {
        let dir = TempDir::new("ckpt-orphan");
        {
            let mut durable = DurableGraph::create(dir.path(), 4, true).unwrap();
            durable.set_checkpoint_policy(2, 1);
            for s in 0..2 {
                let (events, label) = scripted_batch(s);
                for event in events {
                    durable.apply(event).unwrap();
                }
                durable.seal_snapshot(label).unwrap();
            }
        }
        // Segments 0..=1 are compacted; destroying the covering checkpoint
        // leaves a history no fallback can honestly rebuild.
        let path = egraph_log::checkpoint_path(dir.path(), 1);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = LiveGraph::recover(dir.path()).unwrap_err();
        assert!(matches!(err, DurableError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("no valid checkpoint"), "{err}");
    }

    #[test]
    fn write_checkpoint_requires_a_sealed_history() {
        let dir = TempDir::new("ckpt-v0");
        let mut durable = DurableGraph::create(dir.path(), 2, true).unwrap();
        assert!(matches!(
            durable.write_checkpoint(),
            Err(DurableError::Checkpoint(_))
        ));
    }

    #[test]
    fn open_or_create_is_idempotent_and_undirected_survives() {
        let dir = TempDir::new("undirected");
        {
            let mut recovered = DurableGraph::open_or_create(dir.path(), 4, false).unwrap();
            assert_eq!(recovered.segments_replayed, 0);
            recovered.graph.insert(NodeId(0), NodeId(1)).unwrap();
            recovered.graph.seal_snapshot(0).unwrap();
        }
        let recovered = DurableGraph::open_or_create(dir.path(), 4, false).unwrap();
        assert_eq!(recovered.segments_replayed, 1);
        let live = recovered.graph.live();
        assert!(!live.is_directed());
        // Undirected: the edge is visible from both endpoints.
        assert!(live
            .graph()
            .has_static_edge(NodeId(1), NodeId(0), TimeIndex(0)));
    }
}
