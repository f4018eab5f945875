//! Chaos differential suite: scripted faults, crashes and overload against
//! the durability contract PR 8 promised.
//!
//! Every test here drives the *real* stack — `DurableGraph` over
//! `egraph-log`, or a full `egraph-serve` server over a socket — with
//! faults scripted through the `egraph-fault` registry, and asserts the
//! recovered state against a **never-faulted twin** built from the model of
//! what was acknowledged:
//!
//! * a failed seal leaves both the graph and the log unsealed and
//!   retryable, and the eventual successful seal is byte-identical to a
//!   twin that never saw the fault;
//! * publish-after-fsync cannot fail — a crash scripted between the fsync
//!   and the publish recovers the sealed segment even though it was never
//!   acknowledged;
//! * recovery after any interleaving of ingest / seal / query / fault /
//!   crash equals the twin, payload-for-payload
//!   ([`common::matrix::assert_equivalent`]);
//! * overload sheds with `503` + `Retry-After` from the accept thread
//!   while admitted requests and parked subscribers ride it out, and the
//!   retrying client lands its request once the storm passes;
//! * a follower's write-forwarding survives a leader restart, an injected
//!   forward failure is shed and recovered by the client's retry, and a
//!   replication gap halts the follower loudly instead of skipping ahead;
//! * checkpoint lifecycle faults (`ckpt.write` / `ckpt.fsync` /
//!   `ckpt.rename` / `ckpt.read` / `log.compact.delete`) never fail the
//!   seal they ride on and never corrupt recovery — a torn or unreadable
//!   newest checkpoint falls back to an older one, replay stays bounded
//!   by the retained checkpoints, and the recovered graph equals the
//!   never-faulted twin;
//! * a follower whose tail position the leader compacted away
//!   re-bootstraps from `GET /checkpoint/latest` and converges instead of
//!   halting.
//!
//! Failpoints compile out of release builds ([`fault::is_active_build`]),
//! so fault-dependent tests skip there — but the crash/restart,
//! leader-restart and gap-halt tests run in every build. The seed sweep
//! defaults to eight fixed seeds; override with a comma-separated
//! `EGRAPH_CHAOS_SEEDS` to reproduce or broaden a run. All tests serialize
//! on one gate: the failpoint registry is process-global, and a rule armed
//! by one test must never leak into another's I/O.

mod common;

use std::fs;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use common::matrix::assert_equivalent;
use egraph_core::ids::{NodeId, TemporalNode};
use egraph_fault::{self as fault, Rule};
use egraph_io::binary::LogRecord;
use egraph_log::encode_segment;
use egraph_log::log::segment_path;
use egraph_query::codec::{descriptor_to_json, search_result_to_json};
use egraph_query::{Search, Strategy};
use egraph_serve::http;
use egraph_serve::{Client, RetryPolicy, Server, ServerConfig};
use egraph_stream::durable::DurableError;
use egraph_stream::{DurableGraph, EdgeEvent, LiveGraph, QueryCache};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Serializes the whole suite and guarantees a clean registry on both
/// entry (a previous test may have panicked mid-script) and exit.
struct FaultGate(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGate {
    fn drop(&mut self) {
        fault::reset();
    }
}

fn gate() -> FaultGate {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    FaultGate(guard)
}

/// A scratch directory under the system temp root, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("egraph-chaos-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Polls `ok` for up to ten seconds; panics with `what` on timeout.
fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The `serve_http` fixture graph: three sealed snapshots over six nodes.
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

/// One search per query shape the matrix distinguishes, rooted inside the
/// six-node universe every chaos graph here uses. Shapes whose window or
/// root does not exist yet *error* — [`assert_equivalent`] compares errors
/// exactly, so those cells pin the error paths too.
fn chaos_searches() -> Vec<Search> {
    vec![
        Search::from(TemporalNode::from_raw(0, 0)),
        Search::from(TemporalNode::from_raw(0, 0)).strategy(Strategy::Parallel),
        Search::from(TemporalNode::from_raw(1, 0)).strategy(Strategy::Foremost),
        Search::from(TemporalNode::from_raw(2, 0)).backward(),
        Search::from(TemporalNode::from_raw(0, 0)).reverse(),
        Search::from(TemporalNode::from_raw(0, 0)).with_parents(),
        Search::from(TemporalNode::from_raw(0, 0)).window(0u32..=1),
        Search::from_sources([TemporalNode::from_raw(0, 0), TemporalNode::from_raw(1, 0)])
            .strategy(Strategy::SharedFrontier),
    ]
}

// ---------------------------------------------------------------------------
// The failpoint contract itself
// ---------------------------------------------------------------------------

#[test]
fn release_builds_compile_failpoints_to_no_ops() {
    let _gate = gate();
    fault::configure("chaos.release.probe", Rule::error());
    if fault::is_active_build() {
        assert!(fault::fired("chaos.release.probe").is_some());
        assert_eq!(fault::times_evaluated("chaos.release.probe"), 1);
    } else {
        assert_eq!(
            fault::fired("chaos.release.probe"),
            None,
            "a configured site must still be inert in a release build"
        );
        assert_eq!(fault::times_evaluated("chaos.release.probe"), 0);
    }
}

#[test]
fn failpoint_scripts_parse_and_the_env_hook_is_sound() {
    let _gate = gate();
    // The grammar parses (and rejects typos loudly) in every build.
    assert!(fault::script("log.seal.fsync=times:1,error; serve.query.compute=delay:5").is_ok());
    assert!(fault::script("log.seal.fsync=wat").is_err());
    assert!(fault::script("p:1.5,error").is_err());
    fault::reset();
    // The env hook is what CI's chaos job scripts through: a malformed
    // EGRAPH_FAILPOINTS must fail the run, a well-formed one must reach
    // the registry (in debug builds).
    let spec = std::env::var("EGRAPH_FAILPOINTS").unwrap_or_default();
    let configured = fault::script_from_env().expect("EGRAPH_FAILPOINTS must parse");
    if fault::is_active_build() && spec.contains('=') && !spec.contains("off") {
        assert!(
            configured > 0,
            "a non-empty EGRAPH_FAILPOINTS script must configure at least one site"
        );
    }
    if spec.is_empty() {
        assert_eq!(configured, 0);
    }
}

// ---------------------------------------------------------------------------
// Seal faults at the DurableGraph layer (ENOSPC / torn write / failed
// fsync): unsealed, retryable, byte-identical on recovery
// ---------------------------------------------------------------------------

#[test]
fn a_faulted_seal_stays_unsealed_and_retries_byte_identically() {
    let _gate = gate();
    if !fault::is_active_build() {
        return; // failpoints compile out of release builds
    }
    let faulted_dir = TempDir::new("seal-fault");
    let twin_dir = TempDir::new("seal-twin");
    let mut faulted = DurableGraph::create(faulted_dir.path(), 6, true).unwrap();
    let mut twin = DurableGraph::create(twin_dir.path(), 6, true).unwrap();
    for (u, v) in [(0u32, 1u32), (1, 2), (0, 3)] {
        faulted.insert(NodeId(u), NodeId(v)).unwrap();
        twin.insert(NodeId(u), NodeId(v)).unwrap();
    }

    // Every disk-failure class in sequence: ENOSPC on the write, a torn
    // write (crash residue), a failed file fsync, a failed directory sync.
    // Each one must leave the graph unsealed and everything pending.
    for (site, rule) in [
        ("log.seal.write", Rule::error().times(1)),
        ("log.seal.write", Rule::partial(40).times(1)),
        ("log.seal.fsync", Rule::error().times(1)),
        ("log.dir.fsync", Rule::error().times(1)),
    ] {
        fault::configure(site, rule);
        let err = faulted.seal_snapshot(10).unwrap_err();
        assert!(
            matches!(err, DurableError::Log(_)),
            "{site}: injected fault must surface as a log error, got {err}"
        );
        assert_eq!(faulted.live().version(), 0, "{site}: nothing published");
        assert_eq!(
            faulted.live().num_pending(),
            3,
            "{site}: events stay pending"
        );
        assert_eq!(faulted.log().segments_sealed(), 0, "{site}: log unsealed");
        assert_eq!(
            faulted.log().num_pending(),
            3,
            "{site}: records stay pending"
        );
        fault::clear(site);
    }

    // Ingest stays retryable after the faults: more events still append...
    faulted.insert(NodeId(3), NodeId(4)).unwrap();
    twin.insert(NodeId(3), NodeId(4)).unwrap();

    // ...and the eventual successful seal is byte-identical to the twin
    // that never saw a fault — in the receipt and on disk.
    let healed = faulted.seal_snapshot(10).unwrap();
    let clean = twin.seal_snapshot(10).unwrap();
    assert_eq!(healed.seq, clean.seq);
    assert_eq!(
        healed.bytes, clean.bytes,
        "the healed seal must produce the never-faulted twin's exact bytes"
    );
    assert_eq!(
        fs::read(segment_path(faulted_dir.path(), 0)).unwrap(),
        fs::read(segment_path(twin_dir.path(), 0)).unwrap(),
        "the on-disk segments must be byte-identical"
    );

    // Both recover to the same graph.
    drop(faulted);
    drop(twin);
    let faulted = DurableGraph::open(faulted_dir.path()).unwrap();
    let twin = DurableGraph::open(twin_dir.path()).unwrap();
    assert_eq!(faulted.segments_replayed, 1);
    assert_eq!(twin.segments_replayed, 1);
    let cache = QueryCache::new();
    for (i, search) in chaos_searches().iter().enumerate() {
        let label = format!("post-recovery cell {i}");
        let cached = cache.execute(faulted.graph.live(), search);
        let scratch = search.run(twin.graph.live().graph());
        assert_equivalent(
            &label,
            faulted.graph.live().graph(),
            search,
            cached,
            scratch,
        );
    }
}

#[test]
fn a_failed_seal_over_the_wire_is_unacknowledged_and_retryable() {
    let _gate = gate();
    if !fault::is_active_build() {
        return;
    }
    let dir = TempDir::new("wire-enospc");
    let recovered = DurableGraph::open_or_create(dir.path(), 6, true).unwrap();
    let mut server = Server::start_durable(recovered, ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());

    let response = client
        .post("/ingest", r#"{"events": [[0, 1], [1, 2]]}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // The disk refuses the fsync: the seal is answered 500 and nothing is
    // acknowledged or published.
    fault::configure("log.seal.fsync", Rule::error().times(1));
    let response = client.post("/ingest", r#"{"seal": 0}"#).unwrap();
    assert_eq!(response.status, 500, "{}", response.body);
    assert!(
        response.body.contains("failed to persist the seal"),
        "{}",
        response.body
    );
    let health = client.get("/health").unwrap();
    assert!(health.body.contains("\"num_sealed\": 0"), "{}", health.body);
    assert_eq!(server.stats().segments_sealed, 0);

    // The disk recovers; the same seal retried succeeds, and every answer
    // equals a twin that never saw the fault.
    let response = client.post("/ingest", r#"{"seal": 0}"#).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        response.body.contains("\"num_sealed\": 1"),
        "{}",
        response.body
    );
    let mut twin = LiveGraph::directed(6);
    twin.insert(NodeId(0), NodeId(1)).unwrap();
    twin.insert(NodeId(1), NodeId(2)).unwrap();
    twin.seal_snapshot(0).unwrap();
    for search in [
        Search::from(TemporalNode::from_raw(0, 0)),
        Search::from(TemporalNode::from_raw(2, 0)).backward(),
    ] {
        let response = client.query(&search.descriptor()).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(
            response.body,
            search_result_to_json(&search.run(twin.graph()).unwrap()),
            "{:?}",
            search.descriptor()
        );
    }
    server.shutdown();
}

#[test]
fn a_crash_between_fsync_and_publish_recovers_the_sealed_segment() {
    let _gate = gate();
    if !fault::is_active_build() {
        return;
    }
    let dir = TempDir::new("publish-crash");
    let mut durable = DurableGraph::create(dir.path(), 6, true).unwrap();
    durable.insert(NodeId(0), NodeId(1)).unwrap();
    durable.seal_snapshot(0).unwrap();
    durable.insert(NodeId(1), NodeId(2)).unwrap();

    // The process "dies" between the segment fsync and the publish: the
    // seal was durable but never acknowledged and never visible.
    fault::configure("durable.publish", Rule::panic_now().times(1));
    let outcome = catch_unwind(AssertUnwindSafe(|| durable.seal_snapshot(1)));
    assert!(outcome.is_err(), "the scripted panic must fire");
    fault::reset();
    drop(durable);

    // Recovery replays the fsynced segment — publish-after-fsync can never
    // fail, so the durability point alone decides what survives.
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(
        recovered.segments_replayed, 2,
        "the fsynced-but-unacknowledged segment must be replayed"
    );
    let mut twin = LiveGraph::directed(6);
    twin.insert(NodeId(0), NodeId(1)).unwrap();
    twin.seal_snapshot(0).unwrap();
    twin.insert(NodeId(1), NodeId(2)).unwrap();
    twin.seal_snapshot(1).unwrap();
    let cache = QueryCache::new();
    for (i, search) in chaos_searches().iter().enumerate() {
        let label = format!("publish-crash cell {i}");
        let cached = cache.execute(recovered.graph.live(), search);
        let scratch = search.run(twin.graph());
        assert_equivalent(
            &label,
            recovered.graph.live().graph(),
            search,
            cached,
            scratch,
        );
    }
}

// ---------------------------------------------------------------------------
// The seeded chaos differential: ingest / seal / query / fault / crash
// ---------------------------------------------------------------------------

const DEFAULT_CHAOS_SEEDS: [u64; 8] = [
    0xC4A0501, 0xC4A0502, 0xC4A0503, 0xC4A0504, 0xD15C0BE, 0xFA17ED, 0x0DD5EED, 0xB007CA7,
];

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("EGRAPH_CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad seed {s:?} in EGRAPH_CHAOS_SEEDS"))
            })
            .collect(),
        Err(_) => DEFAULT_CHAOS_SEEDS.to_vec(),
    }
}

/// The never-faulted twin of an acknowledged history: replaying exactly the
/// acked seals must reproduce the durable graph bit-for-bit.
fn twin_of(history: &[(i64, Vec<EdgeEvent>)], num_nodes: usize) -> LiveGraph {
    let mut twin = LiveGraph::directed(num_nodes);
    for (label, events) in history {
        for &event in events {
            twin.apply(event).unwrap();
        }
        twin.seal_snapshot(*label).unwrap();
    }
    twin
}

/// Asserts the durable graph equals the model: version, seal count and
/// pending depth match the acked history, and every matrix shape answers
/// payload-for-payload like the never-faulted twin.
fn assert_matches_twin(
    seed: u64,
    stage: &str,
    cache: &QueryCache,
    durable: &DurableGraph,
    history: &[(i64, Vec<EdgeEvent>)],
    pending: usize,
    num_nodes: usize,
) {
    let live = durable.live();
    assert_eq!(
        live.version(),
        history.len() as u64,
        "seed {seed:#x} {stage}: version"
    );
    assert_eq!(
        durable.log().segments_sealed(),
        history.len() as u64,
        "seed {seed:#x} {stage}: log seal count"
    );
    assert_eq!(
        live.num_pending(),
        pending,
        "seed {seed:#x} {stage}: pending events"
    );
    let twin = twin_of(history, num_nodes);
    for (i, search) in chaos_searches().iter().enumerate() {
        let label = format!("seed {seed:#x} {stage} cell {i}");
        let cached = cache.execute(live, search);
        let scratch = search.run(twin.graph());
        assert_equivalent(&label, live.graph(), search, cached, scratch);
    }
}

/// One seeded run: a random interleaving of ingest bursts, seals (clean or
/// scripted to fail at one of the four disk sites), query differentials and
/// kill/restart cycles. The model tracks the acked history, the pending
/// tail, and the one subtle case — a seal whose file was completely written
/// and fsynced before the failure (failed file-fsync *ack*, or failed
/// directory sync): never acknowledged, but durably on disk, so a crash
/// legitimately recovers it.
fn run_chaos_seed(seed: u64) {
    const NUM_NODES: usize = 6;
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = TempDir::new(&format!("diff-{seed:x}"));
    let mut durable = DurableGraph::create(dir.path(), NUM_NODES, true).unwrap();
    let cache = QueryCache::new();
    let mut history: Vec<(i64, Vec<EdgeEvent>)> = Vec::new();
    let mut pending: Vec<EdgeEvent> = Vec::new();
    let mut unacked_complete: Option<(i64, Vec<EdgeEvent>)> = None;
    let mut next_label: i64 = 0;

    for step in 0..16u32 {
        match rng.gen_range(0..8u32) {
            // Ingest a burst of events, mirrored into the model.
            0..=2 => {
                for _ in 0..rng.gen_range(1..4u32) {
                    let u = rng.gen_range(0..NUM_NODES as u32);
                    let v = rng.gen_range(0..NUM_NODES as u32);
                    if u == v {
                        continue;
                    }
                    let event = if rng.gen_range(0..4u32) == 0 {
                        EdgeEvent::insert_unique(NodeId(u), NodeId(v))
                    } else {
                        EdgeEvent::insert(NodeId(u), NodeId(v))
                    };
                    durable.apply(event).unwrap();
                    pending.push(event);
                }
            }
            // Seal — clean, or scripted to fail at one disk site. The
            // third tuple field records whether the failure mode leaves a
            // complete segment on disk (fsync-ack and dir-sync failures do;
            // write errors and torn writes leave only truncatable residue).
            3..=5 => {
                let label = next_label;
                next_label += 1;
                let roll = rng.gen_range(0..8u32);
                let scripted: Option<(&str, Rule, bool)> = if !fault::is_active_build() {
                    None // failpoints compile out: every seal runs clean
                } else {
                    match roll {
                        0 => Some(("log.seal.write", Rule::error().times(1), false)),
                        1 => Some((
                            "log.seal.write",
                            Rule::partial(rng.gen_range(1..99u32) as u8).times(1),
                            false,
                        )),
                        2 => Some(("log.seal.fsync", Rule::error().times(1), true)),
                        3 => Some(("log.dir.fsync", Rule::error().times(1), true)),
                        _ => None,
                    }
                };
                if let Some((site, rule, _)) = &scripted {
                    fault::configure(site, rule.clone());
                }
                let result = durable.seal_snapshot(label);
                if let Some((site, _, _)) = &scripted {
                    fault::clear(site);
                }
                match (result, &scripted) {
                    (Ok(receipt), scripted) => {
                        assert!(
                            scripted.is_none(),
                            "seed {seed:#x} step {step}: a scripted fault must fail the seal"
                        );
                        assert_eq!(receipt.seq, history.len() as u64);
                        history.push((label, std::mem::take(&mut pending)));
                        unacked_complete = None;
                    }
                    (Err(err), Some((site, _, complete))) => {
                        assert!(
                            matches!(err, DurableError::Log(_)),
                            "seed {seed:#x} step {step}: injected {site} fault must surface \
                             as a log error, got {err}"
                        );
                        // Failed seal: neither side advanced; everything
                        // stays pending and retryable on both sides.
                        assert_eq!(durable.live().version(), history.len() as u64);
                        assert_eq!(durable.log().segments_sealed(), history.len() as u64);
                        assert_eq!(durable.live().num_pending(), pending.len());
                        unacked_complete = if *complete {
                            Some((label, pending.clone()))
                        } else {
                            None
                        };
                        // Half the time the disk "heals" and the seal is
                        // retried immediately; otherwise the failure is
                        // left to interact with whatever comes next.
                        if rng.gen_bool(0.5) {
                            let receipt = durable.seal_snapshot(label).unwrap();
                            assert_eq!(receipt.seq, history.len() as u64);
                            history.push((label, std::mem::take(&mut pending)));
                            unacked_complete = None;
                        }
                    }
                    (Err(err), None) => {
                        panic!("seed {seed:#x} step {step}: unscripted seal failure: {err}")
                    }
                }
            }
            // Query differential against the never-faulted twin.
            6 => assert_matches_twin(
                seed,
                &format!("step {step}"),
                &cache,
                &durable,
                &history,
                pending.len(),
                NUM_NODES,
            ),
            // Kill and restart: everything in memory dies; recovery must
            // rebuild exactly the durable prefix — the acked history plus
            // at most one complete-but-unacknowledged segment.
            7 => {
                drop(durable);
                if let Some((label, events)) = unacked_complete.take() {
                    history.push((label, events));
                }
                pending.clear();
                let recovered = DurableGraph::open(dir.path()).unwrap();
                assert_eq!(
                    recovered.segments_replayed,
                    history.len() as u64,
                    "seed {seed:#x} step {step}: recovery must replay exactly the durable seals"
                );
                durable = recovered.graph;
                assert_matches_twin(
                    seed,
                    &format!("step {step} post-crash"),
                    &cache,
                    &durable,
                    &history,
                    0,
                    NUM_NODES,
                );
            }
            _ => unreachable!(),
        }
    }

    // Wind down deterministically: one clean seal, then a final
    // crash/recovery round trip so every seed ends on a recovery check.
    durable.insert(NodeId(0), NodeId(1)).unwrap();
    pending.push(EdgeEvent::insert(NodeId(0), NodeId(1)));
    durable.seal_snapshot(next_label).unwrap();
    history.push((next_label, std::mem::take(&mut pending)));
    unacked_complete = None;
    assert_matches_twin(seed, "final", &cache, &durable, &history, 0, NUM_NODES);
    drop(durable);
    drop(unacked_complete);
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(recovered.segments_replayed, history.len() as u64);
    assert_matches_twin(
        seed,
        "final post-crash",
        &cache,
        &recovered.graph,
        &history,
        0,
        NUM_NODES,
    );
}

#[test]
fn chaos_differential_recovered_state_equals_a_never_faulted_twin() {
    let _gate = gate();
    for seed in chaos_seeds() {
        run_chaos_seed(seed);
    }
}

// ---------------------------------------------------------------------------
// The checkpointed chaos differential: the checkpoint lifecycle itself
// under faults — seals must survive them, recovery must stay bounded
// ---------------------------------------------------------------------------

/// One seeded run with the checkpoint policy on (every 2 seals, retain 2)
/// and the checkpoint lifecycle under scripted faults: the temp write, its
/// fsync, the rename, and the compaction delete at seal time; the
/// checkpoint read at recovery time. The invariants this pins:
///
/// * a checkpoint fault never fails the seal it rides on — the segment is
///   already fsynced when the hook runs, so the receipt merely reports no
///   checkpoint and the next due seal retries;
/// * recovery replays at most the suffix past the *oldest* retained
///   checkpoint, even when the newest is unreadable (`ckpt.read` falls
///   back) — replay is bounded, never a full-history rebuild;
/// * whatever the interleaving, the recovered graph answers every matrix
///   shape payload-identically to the never-faulted twin.
///
/// The wind-down corrupts the newest *installed* checkpoint on disk
/// (truncation, not a failpoint — so it runs in release builds too) and
/// proves the CRC frame rejects it and recovery lands on the older one.
fn run_checkpoint_chaos_seed(seed: u64) {
    const NUM_NODES: usize = 6;
    const EVERY: u64 = 2;
    let mut rng = SmallRng::seed_from_u64(seed);
    let dir = TempDir::new(&format!("ckpt-{seed:x}"));
    let mut durable = DurableGraph::create(dir.path(), NUM_NODES, true).unwrap();
    durable.set_checkpoint_policy(EVERY, 2);
    let cache = QueryCache::new();
    let mut history: Vec<(i64, Vec<EdgeEvent>)> = Vec::new();
    let mut pending: Vec<EdgeEvent> = Vec::new();
    let mut next_label: i64 = 0;

    for step in 0..16u32 {
        match rng.gen_range(0..8u32) {
            // Ingest a burst of events, mirrored into the model.
            0..=2 => {
                for _ in 0..rng.gen_range(1..4u32) {
                    let u = rng.gen_range(0..NUM_NODES as u32);
                    let v = rng.gen_range(0..NUM_NODES as u32);
                    if u == v {
                        continue;
                    }
                    let event = EdgeEvent::insert(NodeId(u), NodeId(v));
                    durable.apply(event).unwrap();
                    pending.push(event);
                }
            }
            // Seal — sometimes with one checkpoint-lifecycle site scripted
            // to fail. The seal itself must succeed either way.
            3..=5 => {
                let label = next_label;
                next_label += 1;
                let scripted: Option<(&str, Rule)> = if !fault::is_active_build() {
                    None // failpoints compile out: every checkpoint runs clean
                } else {
                    match rng.gen_range(0..8u32) {
                        0 => Some(("ckpt.write", Rule::error().times(1))),
                        1 => Some((
                            "ckpt.write",
                            Rule::partial(rng.gen_range(1..99u32) as u8).times(1),
                        )),
                        2 => Some(("ckpt.fsync", Rule::error().times(1))),
                        3 => Some(("ckpt.rename", Rule::error().times(1))),
                        4 => Some(("log.compact.delete", Rule::error().times(1))),
                        _ => None,
                    }
                };
                if let Some((site, rule)) = &scripted {
                    fault::configure(site, rule.clone());
                }
                let receipt = durable.seal_snapshot(label).unwrap_or_else(|err| {
                    panic!(
                        "seed {seed:#x} step {step}: a checkpoint fault must never fail \
                         the seal it rides on: {err}"
                    )
                });
                if let Some((site, _)) = &scripted {
                    fault::clear(site);
                }
                assert_eq!(receipt.seq, history.len() as u64);
                let due = (history.len() as u64 + 1).is_multiple_of(EVERY);
                match (due, &scripted) {
                    // A scripted `log.compact.delete` only fires when the
                    // covered range still holds segment files; when an
                    // earlier checkpoint already compacted it, the loop is
                    // empty and the checkpoint legitimately installs.
                    (true, Some(("log.compact.delete", _))) => {
                        if let Some(Ok(checkpoint)) = &receipt.checkpoint {
                            assert_eq!(
                                checkpoint.segments_compacted, 0,
                                "seed {seed:#x} step {step}: a checkpoint that survived a \
                                 scripted compaction fault cannot have deleted anything"
                            );
                        }
                    }
                    (true, Some((site, _))) => assert!(
                        matches!(receipt.checkpoint, Some(Err(_))),
                        "seed {seed:#x} step {step}: a checkpoint faulted at {site} must \
                         not be reported installed"
                    ),
                    (true, None) => assert!(
                        matches!(receipt.checkpoint, Some(Ok(_))),
                        "seed {seed:#x} step {step}: a clean due checkpoint must install"
                    ),
                    (false, _) => assert!(
                        receipt.checkpoint.is_none(),
                        "seed {seed:#x} step {step}: no checkpoint was due"
                    ),
                }
                history.push((label, std::mem::take(&mut pending)));
            }
            // Query differential against the never-faulted twin.
            6 => assert_matches_twin(
                seed,
                &format!("ckpt step {step}"),
                &cache,
                &durable,
                &history,
                pending.len(),
                NUM_NODES,
            ),
            // Kill and restart. When at least two checkpoints are retained,
            // half the kills also make the newest unreadable (`ckpt.read`):
            // recovery must fall back to the older one, and in every case
            // replay is bounded by the oldest retained checkpoint's suffix.
            7 => {
                drop(durable);
                pending.clear();
                let checkpoints = egraph_log::list_checkpoints(dir.path()).unwrap();
                if fault::is_active_build() && checkpoints.len() >= 2 && rng.gen_bool(0.5) {
                    fault::configure("ckpt.read", Rule::error().times(1));
                }
                let recovered = DurableGraph::open(dir.path()).unwrap();
                fault::clear("ckpt.read");
                if let Some(&oldest) = checkpoints.first() {
                    assert!(
                        recovered.checkpoint_seq.is_some(),
                        "seed {seed:#x} step {step}: with a checkpoint on disk, recovery \
                         must start from one"
                    );
                    let bound = history.len() as u64 - (oldest + 1);
                    assert!(
                        recovered.segments_replayed <= bound,
                        "seed {seed:#x} step {step}: replay must be bounded by the oldest \
                         retained checkpoint's suffix ({} > {bound})",
                        recovered.segments_replayed
                    );
                }
                durable = recovered.graph;
                durable.set_checkpoint_policy(EVERY, 2);
                assert_matches_twin(
                    seed,
                    &format!("ckpt step {step} post-crash"),
                    &cache,
                    &durable,
                    &history,
                    0,
                    NUM_NODES,
                );
            }
            _ => unreachable!(),
        }
    }

    // Wind down: clean seals until the checkpoint chain holds at least
    // three links (a short history's base is small, so the geometric base
    // rule rewrites it often; a longer one leaves room for links), a
    // restart that recovers from that chain, then a final restart with the
    // newest installed checkpoint torn in half on disk.
    let mut chain_links = 0;
    while chain_links < 3 {
        assert!(
            history.len() < 256,
            "seed {seed:#x}: no checkpoint chain reached three links"
        );
        durable.insert(NodeId(0), NodeId(1)).unwrap();
        pending.push(EdgeEvent::insert(NodeId(0), NodeId(1)));
        let receipt = durable.seal_snapshot(next_label).unwrap();
        history.push((next_label, std::mem::take(&mut pending)));
        next_label += 1;
        if let Some(Ok(checkpoint)) = receipt.checkpoint {
            chain_links = checkpoint.chain_links;
        }
    }
    drop(durable);
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(
        recovered.checkpoint_seq,
        Some(history.len() as u64 - 1),
        "seed {seed:#x}: recovery must load the three-link chain"
    );
    assert_matches_twin(
        seed,
        "ckpt three-link chain",
        &cache,
        &recovered.graph,
        &history,
        0,
        NUM_NODES,
    );
    drop(recovered);
    let checkpoints = egraph_log::list_checkpoints(dir.path()).unwrap();
    if checkpoints.len() >= 2 {
        let newest = checkpoints[checkpoints.len() - 1];
        let fallback = checkpoints[checkpoints.len() - 2];
        let path = egraph_log::checkpoint_path(dir.path(), newest);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let recovered = DurableGraph::open(dir.path()).unwrap();
        assert_eq!(
            recovered.checkpoint_seq,
            Some(fallback),
            "seed {seed:#x}: a torn newest checkpoint must fall back to the older one"
        );
        assert_matches_twin(
            seed,
            "ckpt final torn-newest",
            &cache,
            &recovered.graph,
            &history,
            0,
            NUM_NODES,
        );
    } else {
        let recovered = DurableGraph::open(dir.path()).unwrap();
        assert_matches_twin(
            seed,
            "ckpt final",
            &cache,
            &recovered.graph,
            &history,
            0,
            NUM_NODES,
        );
    }
}

#[test]
fn checkpoint_chaos_recovery_equals_a_never_faulted_twin() {
    let _gate = gate();
    for seed in chaos_seeds() {
        run_checkpoint_chaos_seed(seed);
    }
}

// ---------------------------------------------------------------------------
// Overload: bounded admission sheds, in-flight completes, retry recovers
// ---------------------------------------------------------------------------

#[test]
fn overload_sheds_with_retry_after_while_inflight_completes() {
    let _gate = gate();
    if !fault::is_active_build() {
        return; // overload is manufactured with a scripted compute delay
    }
    let config = ServerConfig {
        max_inflight: 2,
        retry_after_secs: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::start(fixture_live(), config).unwrap();
    let addr = server.addr();
    let client = Client::new(addr);

    // A parked subscriber holds no handler slot and must ride out the
    // storm untouched. Its *handler* does hold a slot for an instant after
    // the initial frame lands, so give it a beat to return before filling
    // admission — otherwise one pinned query below is the one shed.
    let standing = Search::from(TemporalNode::from_raw(0, 0));
    let mut subscription = client.subscribe(&standing.descriptor()).unwrap();
    assert!(subscription.next_frame().unwrap().is_some());
    std::thread::sleep(Duration::from_millis(500));

    // Pin both admission slots with slow cold computations (distinct
    // descriptors, so they cannot coalesce). Spawning is staged on the
    // request counter: a pinned query that has been *read* holds its slot
    // for the full scripted delay, so once both are counted the server is
    // provably saturated.
    fault::configure("serve.query.compute", Rule::delay_ms(2500).times(2));
    let mut pinned = Vec::new();
    for (n, search) in [
        Search::from(TemporalNode::from_raw(1, 0)),
        Search::from(TemporalNode::from_raw(2, 0)),
    ]
    .into_iter()
    .enumerate()
    {
        pinned.push(std::thread::spawn(move || {
            Client::new(addr).query(&search.descriptor()).unwrap()
        }));
        wait_until("the pinned query to be admitted", || {
            server.stats().requests >= 2 + n as u64
        });
    }

    // Both slots are pinned: anything else is shed straight from the
    // accept thread — full 503, Retry-After header, clean close.
    let shed = client.get("/health").unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(
        shed.retry_after,
        Some(1),
        "a shed response must carry Retry-After"
    );
    assert!(shed.body.contains("overloaded"), "{}", shed.body);

    // A retrying client honors the hint and lands its query once the
    // storm passes — the cold compute behind it runs undelayed (the delay
    // rule is exhausted by the two pinned queries).
    let policy = RetryPolicy {
        attempts: 10,
        backoff: Duration::from_millis(25),
        ..RetryPolicy::default()
    };
    let cold = Search::from(TemporalNode::from_raw(3, 1));
    let (response, retries) = client
        .post_with_retry("/query", &descriptor_to_json(&cold.descriptor()), &policy)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(
        retries > 0,
        "the retrying client must have been shed at least once"
    );

    // The pinned requests complete unharmed, and the shed counter saw the
    // refusals.
    for handle in pinned {
        let response = handle.join().unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    assert!(server.stats().requests_shed >= 2, "{:?}", server.stats());

    // The parked subscriber was never shed: the next seal still reaches it.
    let response = client
        .post("/ingest", r#"{"events": [[4, 5]], "seal": 9}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let frame = subscription.next_frame().unwrap().unwrap();
    assert!(frame.contains("\"label\": 9"), "{frame}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Follower forwarding under faults and restarts
// ---------------------------------------------------------------------------

#[test]
fn an_injected_forward_failure_sheds_and_the_client_retry_recovers() {
    let _gate = gate();
    if !fault::is_active_build() {
        return;
    }
    let dir = TempDir::new("forward-fault");
    let recovered = DurableGraph::open_or_create(dir.path(), 6, true).unwrap();
    let mut leader = Server::start_durable(recovered, ServerConfig::default()).unwrap();
    let follower_config = ServerConfig {
        retry_after_secs: 0, // shed responses say "retry immediately"
        ..ServerConfig::default()
    };
    let mut follower = Server::start_follower(leader.addr(), follower_config).unwrap();
    let follower_client = Client::new(follower.addr());

    // The first forward dies before it reaches the leader: the follower
    // answers 503 + Retry-After; the client's retry goes through.
    fault::configure("serve.ingest.forward", Rule::error().times(1));
    let policy = RetryPolicy {
        attempts: 4,
        backoff: Duration::from_millis(10),
        ..RetryPolicy::default()
    };
    let (response, retries) = follower_client
        .post_with_retry("/ingest", r#"{"events": [[0, 1]], "seal": 0}"#, &policy)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(retries, 1, "exactly the injected failure is retried");
    assert_eq!(follower.stats().forward_failures, 1);
    assert_eq!(follower.stats().ingest_forwarded, 1);
    wait_until("the forwarded write to replicate back", || {
        follower.stats().segments_replayed == 1
    });
    follower.shutdown();
    leader.shutdown();
}

#[test]
fn write_forwarding_survives_a_leader_restart() {
    let _gate = gate(); // serializes against armed failpoints elsewhere
    let dir = TempDir::new("leader-restart");

    // Reserve a concrete port so the restarted leader comes back at the
    // address the follower keeps forwarding to.
    let addr = TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap();
    let leader_config = ServerConfig {
        bind: Some(addr),
        ..ServerConfig::default()
    };
    let start_leader = |dir: PathBuf, config: ServerConfig| -> Server {
        // The old listener may linger briefly; retry the bind.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let recovered = DurableGraph::open_or_create(&dir, 6, true).unwrap();
            match Server::start_durable(recovered, config.clone()) {
                Ok(server) => return server,
                Err(err) => {
                    assert!(Instant::now() < deadline, "leader could not rebind: {err}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    };

    let mut leader = start_leader(dir.path().to_path_buf(), leader_config.clone());
    let leader_client = Client::new(addr);
    for body in [
        r#"{"events": [[0, 1], [1, 2]], "seal": 0}"#,
        r#"{"events": [[2, 3], [0, 4]], "seal": 1}"#,
        r#"{"events": [[3, 5]], "seal": 2}"#,
    ] {
        assert_eq!(leader_client.post("/ingest", body).unwrap().status, 200);
    }

    let follower_config = ServerConfig {
        forward_attempts: 20,
        forward_backoff: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut follower = Server::start_follower(addr, follower_config).unwrap();
    let follower_client = Client::new(follower.addr());
    wait_until("the follower to bootstrap", || {
        follower.stats().segments_replayed == 3 && follower.stats().follower_lag_seals == 0
    });

    // A write through the follower while the leader is up.
    let response = follower_client
        .post("/ingest", r#"{"events": [[4, 5]], "seal": 10}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    wait_until("the forwarded write to replicate", || {
        follower.stats().segments_replayed == 4
    });

    // Kill the leader. A write forwarded during the outage rides the
    // bounded retry loop until the restarted leader answers it.
    leader.shutdown();
    drop(leader);
    let restart = {
        let dir = dir.path().to_path_buf();
        let config = leader_config.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            start_leader(dir, config)
        })
    };
    let response = follower_client
        .post("/ingest", r#"{"events": [[5, 0]], "seal": 11}"#)
        .unwrap();
    assert_eq!(
        response.status, 200,
        "the forward must survive the restart: {}",
        response.body
    );
    let mut leader = restart.join().unwrap();

    // The follower reconnects its tail and converges on the full history,
    // and both servers answer byte-identically.
    wait_until("the follower to reconverge after the restart", || {
        follower.stats().segments_replayed == 5 && follower.stats().follower_lag_seals == 0
    });
    assert_eq!(follower.stats().ingest_forwarded, 2);
    for search in chaos_searches() {
        let from_leader = leader_client.query(&search.descriptor()).unwrap();
        let from_follower = follower_client.query(&search.descriptor()).unwrap();
        assert_eq!(from_leader.status, from_follower.status);
        assert_eq!(
            from_follower.body,
            from_leader.body,
            "follower must serve the restarted leader's bytes for {:?}",
            search.descriptor()
        );
    }
    follower.shutdown();
    leader.shutdown();
}

// ---------------------------------------------------------------------------
// Replication under faults: read errors recover, gaps halt loudly
// ---------------------------------------------------------------------------

#[test]
fn tail_read_errors_are_counted_and_the_tailer_recovers() {
    let _gate = gate();
    if !fault::is_active_build() {
        return;
    }
    let dir = TempDir::new("tail-read");
    let recovered = DurableGraph::open_or_create(dir.path(), 6, true).unwrap();
    let mut leader = Server::start_durable(recovered, ServerConfig::default()).unwrap();
    let leader_client = Client::new(leader.addr());
    for body in [
        r#"{"events": [[0, 1], [1, 2]], "seal": 0}"#,
        r#"{"events": [[2, 3]], "seal": 1}"#,
        r#"{"events": [[3, 5]], "seal": 2}"#,
    ] {
        assert_eq!(leader_client.post("/ingest", body).unwrap().status, 200);
    }

    // The first segment read of the follower's catch-up fails: the tailer
    // is dropped (and counted), reconnects, and converges anyway.
    fault::configure("log.segment.read", Rule::error().times(1));
    let follower_config = ServerConfig {
        forward_backoff: Duration::from_millis(20), // fast tail reconnect
        ..ServerConfig::default()
    };
    let mut follower = Server::start_follower(leader.addr(), follower_config).unwrap();
    wait_until(
        "the follower to converge past the injected read error",
        || follower.stats().segments_replayed == 3 && follower.stats().follower_lag_seals == 0,
    );
    assert_eq!(
        leader.stats().tail_read_errors,
        1,
        "the dropped tailer must be visible in the leader's stats"
    );
    follower.shutdown();
    leader.shutdown();
}

#[test]
fn a_follower_halts_loudly_on_a_replication_gap() {
    let _gate = gate();
    // A fake "leader" speaking just enough of /log/tail to ship segment 0
    // and then segment 2 — a sequence gap the real leader's fsync-ordered
    // stream can never produce. (Dropped connections *reconnect* — the
    // tail-read-error test above proves convergence after that; a gap is
    // corruption and must stop replication instead of skipping history.)
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let fake_leader = std::thread::spawn(move || {
        // The follower probes `/checkpoint/latest` before tailing, and once
        // more when it hits the gap (a checkpoint could legally bridge it).
        // Answer 404 both times: with no checkpoint on offer, the gap has
        // no legitimate explanation and must halt.
        let refuse_checkpoint = |listener: &TcpListener| {
            let (mut stream, _) = listener.accept().unwrap();
            let mut scratch = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut scratch);
            let _ = http::write_response(
                &mut stream,
                404,
                &http::error_body("no checkpoint has been installed yet"),
            );
        };
        refuse_checkpoint(&listener);
        let (mut stream, _) = listener.accept().unwrap();
        let mut scratch = [0u8; 1024];
        let _ = std::io::Read::read(&mut stream, &mut scratch); // the GET head
        http::write_chunked_head(&mut stream).unwrap();
        http::write_chunk(
            &mut stream,
            "{\"init\": {\"num_nodes\": 4, \"directed\": true}, \"latest\": 3}",
        )
        .unwrap();
        let insert = LogRecord::Insert { src: 0, dst: 1 };
        for (seq, label) in [(0u64, 0i64), (2, 2)] {
            let bytes = encode_segment(seq, &[insert], label);
            http::write_chunk(
                &mut stream,
                &format!(
                    "{{\"seq\": {seq}, \"len\": {}, \"latest\": 3}}",
                    bytes.len()
                ),
            )
            .unwrap();
            http::write_chunk_bytes(&mut stream, &bytes).unwrap();
        }
        refuse_checkpoint(&listener); // the gap-time probe
        stream // held open: EOF must not be mistaken for the halt
    });

    let mut follower = Server::start_follower(addr, ServerConfig::default()).unwrap();
    let follower_client = Client::new(follower.addr());
    wait_until("the good segment to apply", || {
        follower.stats().segments_replayed == 1
    });
    // The gap halts replication: the out-of-order segment is never
    // applied, no matter how long we wait.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        follower.stats().segments_replayed,
        1,
        "a sequence gap must halt replication, not skip ahead"
    );
    // Reads keep serving the last good state.
    let response = follower_client
        .query(&Search::from(TemporalNode::from_raw(0, 0)).descriptor())
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let stream = fake_leader.join().unwrap();
    drop(stream);
    follower.shutdown();
}

#[test]
fn a_follower_rebootstraps_from_a_checkpoint_after_compaction() {
    let _gate = gate(); // serializes against armed failpoints elsewhere
    let dir = TempDir::new("rebootstrap");

    // Reserve a concrete port so the restarted leader comes back at the
    // address the follower keeps tailing.
    let addr = TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap();
    let leader_config = ServerConfig {
        bind: Some(addr),
        checkpoint_every: 2,
        retain_checkpoints: 1,
        ..ServerConfig::default()
    };
    let start_leader = |dir: PathBuf, config: ServerConfig| -> Server {
        // The old listener may linger briefly; retry the bind.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let recovered = DurableGraph::open_or_create(&dir, 6, true).unwrap();
            match Server::start_durable(recovered, config.clone()) {
                Ok(server) => return server,
                Err(err) => {
                    assert!(Instant::now() < deadline, "leader could not rebind: {err}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    };

    // Two seals: version 2, so the checkpoint at segment 1 is installed
    // and segments 0..=1 are already compacted away.
    let mut leader = start_leader(dir.path().to_path_buf(), leader_config.clone());
    let leader_client = Client::new(addr);
    let mut history: Vec<(i64, Vec<EdgeEvent>)> = Vec::new();
    for (body, label, events) in [
        (
            r#"{"events": [[0, 1], [1, 2]], "seal": 0}"#,
            0i64,
            vec![(0u32, 1u32), (1, 2)],
        ),
        (
            r#"{"events": [[2, 3], [0, 4]], "seal": 1}"#,
            1,
            vec![(2, 3), (0, 4)],
        ),
    ] {
        assert_eq!(leader_client.post("/ingest", body).unwrap().status, 200);
        let events = events
            .into_iter()
            .map(|(u, v)| EdgeEvent::insert(NodeId(u), NodeId(v)))
            .collect();
        history.push((label, events));
    }

    // A fresh follower bootstraps from the checkpoint: nothing is tailed
    // (the covered segments no longer exist to replay).
    let follower_config = ServerConfig {
        forward_backoff: Duration::from_millis(25), // fast tail reconnect
        ..ServerConfig::default()
    };
    let mut follower = Server::start_follower(addr, follower_config).unwrap();
    let follower_client = Client::new(follower.addr());
    wait_until("the follower to bootstrap from the checkpoint", || {
        let health = follower_client.get("/health").unwrap();
        health.body.contains("\"version\": 2") && follower.stats().follower_lag_seals == 0
    });
    assert_eq!(
        follower.stats().segments_replayed,
        0,
        "the bootstrap must come from the checkpoint, not a segment replay"
    );

    // Kill the leader; while it is down, advance and compact the log past
    // the follower's resume point (version 2): four more seals install
    // checkpoints at segments 3 and 5, and retain-1 compaction leaves the
    // log starting at segment 6.
    leader.shutdown();
    drop(leader);
    {
        let recovered = DurableGraph::open(dir.path()).unwrap();
        let mut durable = recovered.graph;
        durable.set_checkpoint_policy(2, 1);
        for (label, (u, v)) in [(2i64, (3u32, 5u32)), (3, (4, 5)), (4, (5, 0)), (5, (0, 2))] {
            durable.insert(NodeId(u), NodeId(v)).unwrap();
            durable.seal_snapshot(label).unwrap();
            history.push((label, vec![EdgeEvent::insert(NodeId(u), NodeId(v))]));
        }
    }

    // The restarted leader answers the follower's resume with 410 Gone;
    // the follower must fetch the checkpoint and re-bootstrap instead of
    // halting.
    let mut leader = start_leader(dir.path().to_path_buf(), leader_config.clone());
    wait_until("the follower to re-bootstrap past the compaction", || {
        let health = follower_client.get("/health").unwrap();
        health.body.contains("\"version\": 6") && follower.stats().follower_lag_seals == 0
    });

    // Replication is live again: a new seal flows through the re-opened
    // tail.
    let response = leader_client
        .post("/ingest", r#"{"events": [[1, 3]], "seal": 6}"#)
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    history.push((6, vec![EdgeEvent::insert(NodeId(1), NodeId(3))]));
    wait_until("the post-re-bootstrap seal to replicate", || {
        follower.stats().segments_replayed == 1 && follower.stats().follower_lag_seals == 0
    });

    // The follower serves the leader's exact bytes, and both match the
    // never-restarted twin of the full history.
    let twin = twin_of(&history, 6);
    for search in chaos_searches() {
        let from_leader = leader_client.query(&search.descriptor()).unwrap();
        let from_follower = follower_client.query(&search.descriptor()).unwrap();
        assert_eq!(from_follower.status, from_leader.status);
        assert_eq!(
            from_follower.body,
            from_leader.body,
            "the re-bootstrapped follower must serve the leader's bytes for {:?}",
            search.descriptor()
        );
        if let Ok(result) = search.run(twin.graph()) {
            assert_eq!(
                from_follower.body,
                search_result_to_json(&result),
                "the re-bootstrapped follower must match the twin for {:?}",
                search.descriptor()
            );
        }
    }
    follower.shutdown();
    leader.shutdown();
}

#[test]
fn a_rebootstrapped_follower_pushes_its_subscribers_the_new_version() {
    let _gate = gate();
    let dir = TempDir::new("rebootstrap-frame");
    let addr = TcpListener::bind(("127.0.0.1", 0))
        .unwrap()
        .local_addr()
        .unwrap();
    let leader_config = ServerConfig {
        bind: Some(addr),
        checkpoint_every: 2,
        retain_checkpoints: 1,
        ..ServerConfig::default()
    };
    let start_leader = || -> Server {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let recovered = DurableGraph::open_or_create(dir.path(), 6, true).unwrap();
            match Server::start_durable(recovered, leader_config.clone()) {
                Ok(server) => return server,
                Err(err) => {
                    assert!(Instant::now() < deadline, "leader could not rebind: {err}");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    };

    // Version 2 on the leader, bootstrapped from its checkpoint by the
    // follower, with a subscriber on the follower.
    let mut leader = start_leader();
    let leader_client = Client::new(addr);
    for body in [
        r#"{"events": [[0, 1], [1, 2]], "seal": 0}"#,
        r#"{"events": [[2, 3], [0, 4]], "seal": 1}"#,
    ] {
        assert_eq!(leader_client.post("/ingest", body).unwrap().status, 200);
    }
    let follower_config = ServerConfig {
        forward_backoff: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let mut follower = Server::start_follower(addr, follower_config).unwrap();
    let follower_client = Client::new(follower.addr());
    let descriptor = Search::from(TemporalNode::from_raw(0, 0)).descriptor();
    let mut subscription = follower_client.subscribe(&descriptor).unwrap();
    let initial = subscription.next_frame().unwrap().unwrap();
    assert!(
        initial.starts_with("{\"seq\": 0, \"version\": 2,"),
        "{initial}"
    );

    // While the leader is down, four seals move its log to version 6 and
    // compact it past the follower's resume point.
    leader.shutdown();
    drop(leader);
    {
        let mut durable = DurableGraph::open(dir.path()).unwrap().graph;
        durable.set_checkpoint_policy(2, 1);
        for (label, (u, v)) in [(2i64, (3u32, 5u32)), (3, (4, 5)), (4, (5, 0)), (5, (0, 2))] {
            durable.insert(NodeId(u), NodeId(v)).unwrap();
            durable.seal_snapshot(label).unwrap();
        }
    }

    // Nothing is ingested after the restart: the re-bootstrap alone must
    // push the subscriber a frame at version 6, carrying the newest label
    // and the leader's answer there.
    let mut leader = start_leader();
    let frame = subscription.next_frame().unwrap().unwrap();
    assert!(
        frame.starts_with("{\"seq\": 1, \"version\": 6, \"label\": 5,"),
        "{frame}"
    );
    let from_leader = leader_client.query(&descriptor).unwrap();
    assert_eq!(from_leader.status, 200, "{}", from_leader.body);
    assert!(
        frame.ends_with(&format!("\"result\": {}}}", from_leader.body)),
        "{frame}"
    );
    follower.shutdown();
    leader.shutdown();
}
