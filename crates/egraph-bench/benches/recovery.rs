//! RECOVERY — what durability costs, measured end to end.
//!
//! Three numbers anchor the durable event log's perf story:
//!
//! 1. **Replay rate.** `LiveGraph::recover` decodes every sealed segment
//!    and rebuilds the CSR serve graph; the events-per-second it sustains
//!    bounds restart time. Gated (`replay_events_per_sec`, best of five
//!    runs) against the committed baseline.
//! 2. **Checkpointed recovery rate.** The same history written under a
//!    checkpoint policy (`every 6, retain 1`) recovers from the installed
//!    checkpoint plus a two-segment suffix. The effective rate —
//!    total logged events divided by recovery wall time — is gated
//!    (`checkpoint_recover_events_per_sec`), and the run *asserts* the
//!    bounded-replay contract: `recovery_replayed_events` never exceeds
//!    two snapshots' worth of events, however long the history.
//! 3. **Seal fsync cost.** `DurableGraph::seal_snapshot` encodes, writes
//!    and fsyncs the segment *before* publishing — the per-seal latency
//!    tax every durable ingest pays. Recorded, not gated: fsync time on
//!    shared CI storage is weather, not signal.
//! 4. **Tail-to-serve latency.** From the leader's `/ingest` seal ack to a
//!    follower subscriber receiving the pushed frame: the whole
//!    replication pipe (segment ship over `GET /log/tail`, replay into the
//!    replica, cache repair, push). Recorded, not gated.
//! 5. **Checkpoint cost at two history lengths.** A base (the whole graph)
//!    and then a link (only the snapshots sealed since) are written after
//!    8 and after 64 snapshots. The run *asserts* the deterministic bytes:
//!    the base grows with history while the link, covering the same two
//!    snapshots both times, stays the same size. The write times are
//!    recorded, not asserted.
//! 6. **Every-seal cadence.** A checkpoint after each of 64 snapshots
//!    (retain 2), the cadence at which chains grow longest: the write
//!    times, the chain lengths, the checkpoint files left on disk and the
//!    time to recover from them. Recorded, not asserted.
//!
//! What *is* asserted is correctness under the measurement load: recovery
//! restores the exact version, the follower converges to zero lag, and
//! every live seal reaches the follower's subscriber.
//!
//! Results land in a machine-readable `BENCH_recovery.json` (committed);
//! CI's `bench_compare` step gates `replay_events_per_sec` and
//! `checkpoint_recover_events_per_sec`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use egraph_core::ids::{NodeId, TemporalNode};
use egraph_query::Search;
use egraph_serve::{Client, Server, ServerConfig};
use egraph_stream::{DurableGraph, LiveGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NUM_NODES: usize = 400;
const EDGES_PER_SNAPSHOT: usize = 2_000;
const SNAPSHOTS: usize = 8;
const REPLAY_RUNS: usize = 5;
const LIVE_SEALS: usize = 12;
/// Checkpoint cadence for the checkpointed-recovery dir: a checkpoint at
/// version 6 of 8 leaves exactly a two-segment replay suffix.
const CHECKPOINT_EVERY: u64 = 6;
/// History lengths the checkpoint cost is measured at.
const CHECKPOINT_HISTORIES: [usize; 2] = [8, 64];
/// Snapshots a measured link covers.
const LINK_SNAPSHOTS: usize = 2;
/// History the every-seal cadence runs over.
const CADENCE_SNAPSHOTS: usize = 64;

/// A scratch directory under the system temp root, removed on drop (the
/// container has no `tempfile` crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "egraph-bench-recovery-{tag}-{}-{n}",
            std::process::id()
        ));
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

/// Writes the measurement log: `SNAPSHOTS` sealed segments of random
/// edges, optionally under a checkpoint policy (`retain 1`, so compaction
/// runs too). Returns the total event count and the per-seal wall times.
fn build_log(dir: &Path, checkpoint_every: u64) -> (u64, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(0x5EA1);
    let mut durable = DurableGraph::create(dir, NUM_NODES, true).unwrap();
    durable.set_checkpoint_policy(checkpoint_every, 1);
    let mut events = 0u64;
    let mut seal_us = Vec::with_capacity(SNAPSHOTS);
    for label in 0..SNAPSHOTS {
        insert_snapshot(&mut durable, &mut rng);
        events += EDGES_PER_SNAPSHOT as u64;
        let sealed_at = Instant::now();
        durable.seal_snapshot(label as i64).unwrap();
        seal_us.push(sealed_at.elapsed().as_nanos() as f64 / 1_000.0);
    }
    (events, seal_us)
}

/// Buffers one snapshot's worth of random edges.
fn insert_snapshot(durable: &mut DurableGraph, rng: &mut SmallRng) {
    let mut inserted = 0;
    while inserted < EDGES_PER_SNAPSHOT {
        let u = rng.gen_range(0..NUM_NODES) as u32;
        let v = rng.gen_range(0..NUM_NODES) as u32;
        if u != v {
            durable.insert(NodeId(u), NodeId(v)).unwrap();
            inserted += 1;
        }
    }
}

/// What one checkpoint chain costs after `history` snapshots: a base over
/// the whole history, then a link over `LINK_SNAPSHOTS` more snapshots —
/// the same seeded snapshots at every history length. Returns the base's
/// and the link's `(bytes, write µs)`.
fn measure_checkpoint_cost(history: usize) -> [(u64, f64); 2] {
    let dir = TempDir::new("ckpt-cost");
    let mut durable = DurableGraph::create(dir.path(), NUM_NODES, true).unwrap();
    let write = |durable: &mut DurableGraph, seed: u64, labels: std::ops::Range<usize>| {
        let mut rng = SmallRng::seed_from_u64(seed);
        for label in labels {
            insert_snapshot(durable, &mut rng);
            durable.seal_snapshot(label as i64).unwrap();
        }
        let started = Instant::now();
        let receipt = durable.write_checkpoint().unwrap();
        let us = started.elapsed().as_nanos() as f64 / 1_000.0;
        (receipt, us)
    };
    let (base, base_us) = write(&mut durable, 0x5EA1, 0..history);
    let (link, link_us) = write(&mut durable, 0x11C4, history..history + LINK_SNAPSHOTS);
    assert_eq!((base.chain_links, link.chain_links), (0, 1));
    [(base.bytes, base_us), (link.bytes, link_us)]
}

/// A checkpoint after every one of `CADENCE_SNAPSHOTS` seals (retain 2,
/// compaction on). Returns the JSON object the summary records: the
/// checkpoint write times, bases written, the longest chain, checkpoint
/// files left on disk and the best-of-3 recovery time from them.
fn measure_every_seal_cadence() -> String {
    let dir = TempDir::new("cadence");
    let mut durable = DurableGraph::create(dir.path(), NUM_NODES, true).unwrap();
    durable.set_checkpoint_policy(0, 2);
    let mut rng = SmallRng::seed_from_u64(0x5EA1);
    let (mut write_us, mut bases, mut longest) = (Vec::new(), 0, 0);
    for label in 0..CADENCE_SNAPSHOTS {
        insert_snapshot(&mut durable, &mut rng);
        durable.seal_snapshot(label as i64).unwrap();
        let started = Instant::now();
        let receipt = durable.write_checkpoint().unwrap();
        write_us.push(started.elapsed().as_nanos() as f64 / 1_000.0);
        bases += u32::from(receipt.chain_links == 0);
        longest = longest.max(receipt.chain_links);
    }
    let last_us = sorted(write_us[CADENCE_SNAPSHOTS - 8..].to_vec());
    let write_us = sorted(write_us);
    drop(durable);
    let files = std::fs::read_dir(dir.path())
        .unwrap()
        .filter(|entry| {
            let name = entry.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("checkpoint-") && name.ends_with(".bin")
        })
        .count();
    let recover_us = (0..3)
        .map(|_| {
            let started = Instant::now();
            let recovered = DurableGraph::open(dir.path()).unwrap();
            let us = started.elapsed().as_nanos() as f64 / 1_000.0;
            assert_eq!(recovered.checkpoint_seq, Some(CADENCE_SNAPSHOTS as u64 - 1));
            us
        })
        .fold(f64::INFINITY, f64::min);
    format!(
        "{{\"snapshots\": {CADENCE_SNAPSHOTS}, \"bases_written\": {bases}, \
         \"longest_chain_links\": {longest}, \"checkpoint_files_on_disk\": {files}, \
         \"checkpoint_us_median\": {:.1}, \"checkpoint_us_median_last8\": {:.1}, \
         \"checkpoint_us_max\": {:.1}, \"recover_us\": {recover_us:.1}}}",
        percentile(&write_us, 0.5),
        percentile(&last_us, 0.5),
        write_us.last().copied().unwrap_or(0.0),
    )
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Best-of-N replay rate, with the recovered state verified every run.
fn measure_replay(dir: &Path, events: u64) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..REPLAY_RUNS {
        let started = Instant::now();
        let recovered = LiveGraph::recover(dir).unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(recovered.segments_replayed, SNAPSHOTS as u64);
        assert!(!recovered.dropped_torn_tail);
        assert_eq!(recovered.graph.live().version(), SNAPSHOTS as u64);
        best = best.min(elapsed);
    }
    events as f64 / best
}

/// Best-of-N effective recovery rate on the checkpointed dir: total logged
/// events divided by the wall time of a checkpoint-plus-suffix recovery.
/// Every run asserts the bounded-replay contract the checkpoint exists to
/// provide: only the two post-checkpoint segments are replayed, and the
/// replayed event count never exceeds two snapshots' worth.
fn measure_checkpoint_recover(dir: &Path, events: u64) -> (f64, u64) {
    let suffix_segments = SNAPSHOTS as u64 - CHECKPOINT_EVERY;
    let mut best = f64::MAX;
    let mut replayed_events = 0u64;
    for _ in 0..REPLAY_RUNS {
        let started = Instant::now();
        let recovered = LiveGraph::recover(dir).unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        assert_eq!(
            recovered.checkpoint_seq,
            Some(CHECKPOINT_EVERY - 1),
            "recovery must start from the installed checkpoint"
        );
        assert_eq!(recovered.segments_replayed, suffix_segments);
        assert!(
            recovered.recovery_replayed_events <= suffix_segments * EDGES_PER_SNAPSHOT as u64,
            "bounded replay: {} events replayed, bound {}",
            recovered.recovery_replayed_events,
            suffix_segments * EDGES_PER_SNAPSHOT as u64
        );
        assert!(!recovered.dropped_torn_tail);
        assert_eq!(recovered.graph.live().version(), SNAPSHOTS as u64);
        replayed_events = recovered.recovery_replayed_events;
        best = best.min(elapsed);
    }
    (events as f64 / best, replayed_events)
}

/// Leader + follower over loopback: median time from the leader's seal ack
/// to the follower's push frame, across `LIVE_SEALS` live seals.
fn measure_tail_to_serve(dir: &Path) -> Vec<f64> {
    let recovered = DurableGraph::open(dir).unwrap();
    let mut leader = Server::start_durable(recovered, ServerConfig::default()).unwrap();
    let leader_client = Client::new(leader.addr());
    let mut follower = Server::start_follower(leader.addr(), ServerConfig::default()).unwrap();

    // Converge before measuring: the backlog replay is the replay bench's
    // story, not this one's.
    let deadline = Instant::now() + Duration::from_secs(30);
    while follower.stats().follower_lag_seals != 0
        || follower.stats().segments_replayed != SNAPSHOTS as u64
    {
        assert!(
            Instant::now() < deadline,
            "follower failed to converge: {:?}",
            follower.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let standing = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    let follower_client = Client::new(follower.addr());
    let mut subscription = follower_client.subscribe(&standing).unwrap();
    assert!(subscription.next_frame().unwrap().is_some());

    let mut samples = Vec::with_capacity(LIVE_SEALS);
    for i in 0..LIVE_SEALS {
        let label = (SNAPSHOTS + i) as i64;
        let body = format!(
            "{{\"events\": [[{}, {}]], \"seal\": {label}}}",
            i % 7,
            i % 5 + 7
        );
        let sealed_at = Instant::now();
        let response = leader_client.post("/ingest", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let frame = subscription
            .next_frame()
            .unwrap()
            .expect("every live seal must reach the follower's subscriber");
        samples.push(sealed_at.elapsed().as_nanos() as f64 / 1_000.0);
        assert!(frame.contains(&format!("\"label\": {label}")), "{frame}");
    }
    follower.shutdown();
    leader.shutdown();
    samples
}

fn recovery(c: &mut Criterion) {
    let dir = TempDir::new("log");
    let (events, seal_us) = build_log(dir.path(), 0);
    let replay_events_per_sec = measure_replay(dir.path(), events);
    let ckpt_dir = TempDir::new("ckpt");
    let (ckpt_events, _) = build_log(ckpt_dir.path(), CHECKPOINT_EVERY);
    assert_eq!(ckpt_events, events, "both dirs log the same seeded history");
    let (checkpoint_recover_events_per_sec, checkpoint_replayed_events) =
        measure_checkpoint_recover(ckpt_dir.path(), events);
    let tail_us = sorted(measure_tail_to_serve(dir.path()));
    let seal_us = sorted(seal_us);
    let [short, long] = CHECKPOINT_HISTORIES.map(measure_checkpoint_cost);
    let (link_short, link_long) = (short[1].0, long[1].0);
    assert!(
        link_short.abs_diff(link_long) * 100 <= link_short,
        "a link's size must not grow with history: {link_short} B after {} snapshots, \
         {link_long} B after {}",
        CHECKPOINT_HISTORIES[0],
        CHECKPOINT_HISTORIES[1]
    );
    assert!(
        long[0].0 > 4 * short[0].0,
        "a base holds the whole history: {} B vs {} B",
        long[0].0,
        short[0].0
    );
    let checkpoint_cost: Vec<String> = CHECKPOINT_HISTORIES
        .iter()
        .zip([short, long])
        .map(|(history, [(base_bytes, base_us), (link_bytes, link_us)])| {
            format!(
                "{{\"history_snapshots\": {history}, \"base_bytes\": {base_bytes}, \
                 \"base_us\": {base_us:.1}, \"link_bytes\": {link_bytes}, \"link_us\": {link_us:.1}}}"
            )
        })
        .collect();
    let cadence = measure_every_seal_cadence();

    println!(
        "recovery: {events} events over {SNAPSHOTS} segments; replay {:.0} events/s; \
         checkpointed recovery {:.0} events/s ({checkpoint_replayed_events} replayed); \
         seal fsync p50 {:.0} us (max {:.0} us); follower tail-to-serve p50 {:.0} us \
         (max {:.0} us over {LIVE_SEALS} live seals); checkpoint cost {}; every-seal \
         cadence {cadence}",
        replay_events_per_sec,
        checkpoint_recover_events_per_sec,
        percentile(&seal_us, 0.50),
        seal_us.last().copied().unwrap_or(0.0),
        percentile(&tail_us, 0.50),
        tail_us.last().copied().unwrap_or(0.0),
        checkpoint_cost.join(", "),
    );

    let json = format!(
        "{{\n  \"bench\": \"recovery\",\n  \"num_nodes\": {NUM_NODES},\n  \
         \"edges_per_snapshot\": {EDGES_PER_SNAPSHOT},\n  \"snapshots\": {SNAPSHOTS},\n  \
         \"events_logged\": {events},\n  \"replay_runs\": {REPLAY_RUNS},\n  \
         \"replay_events_per_sec\": {replay_events_per_sec:.0},\n  \
         \"checkpoint_every\": {CHECKPOINT_EVERY},\n  \
         \"checkpoint_recover_events_per_sec\": {checkpoint_recover_events_per_sec:.0},\n  \
         \"checkpoint_replayed_events\": {checkpoint_replayed_events},\n  \
         \"checkpoint_replay_asserted\": true,\n  \
         \"seal_fsync_p50_us\": {:.1},\n  \"seal_fsync_max_us\": {:.1},\n  \
         \"live_seals\": {LIVE_SEALS},\n  \
         \"tail_to_serve_p50_us\": {:.1},\n  \"tail_to_serve_max_us\": {:.1},\n  \
         \"fsync_asserted\": false,\n  \"tail_to_serve_asserted\": false,\n  \
         \"checkpoint_link_snapshots\": {LINK_SNAPSHOTS},\n  \
         \"checkpoint_cost\": [{}],\n  \
         \"checkpoint_bytes_asserted\": true,\n  \"checkpoint_us_asserted\": false,\n  \
         \"every_seal_cadence\": {cadence},\n  \"every_seal_cadence_asserted\": false,\n  \
         \"notes\": \"replay_events_per_sec and checkpoint_recover_events_per_sec are \
         the gated metrics (best of {REPLAY_RUNS} full LiveGraph::recover runs each, \
         recovered state verified every run); the checkpointed run also asserts bounded \
         replay — recovery_replayed_events stays within the post-checkpoint suffix \
         regardless of total history; seal fsync and follower tail-to-serve latencies \
         are wall-clock on shared storage/loopback and are recorded, not gated — the \
         recovery and replication test suites assert the correctness half \
         (byte-identical restarts, zero-lag convergence) deterministically; \
         checkpoint_cost writes a base and then a link after each history length and \
         asserts the bytes (the link stays the same size while the base grows), recording \
         the write times without asserting them; every_seal_cadence checkpoints after \
         each of its snapshots and records the write times, chain lengths, files on disk \
         and recovery time\"\n}}\n",
        percentile(&seal_us, 0.50),
        seal_us.last().copied().unwrap_or(0.0),
        percentile(&tail_us, 0.50),
        tail_us.last().copied().unwrap_or(0.0),
        checkpoint_cost.join(", "),
    );
    let path = "BENCH_recovery.json";
    std::fs::write(path, &json).expect("write bench summary");
    println!("wrote {path}");

    // Criterion trajectory entry: one full recovery of the measurement log.
    let mut group = c.benchmark_group("recovery");
    group.sample_size(10);
    group.bench_function("replay_log", |b| {
        b.iter(|| std::hint::black_box(LiveGraph::recover(dir.path()).unwrap().segments_replayed))
    });
    group.finish();
}

criterion_group!(benches, recovery);
criterion_main!(benches);
