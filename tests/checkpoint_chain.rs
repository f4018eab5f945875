//! Checkpoint chains against their twins.
//!
//! A checkpoint is a base (the whole graph as one append record) or a link
//! (only the columns sealed since its predecessor). The assertions:
//!
//! * **chain twin**: at every checkpoint of a seeded history — directed
//!   and undirected, with the node universe growing between links — the
//!   chain read back from disk decodes to exactly the live graph's
//!   columns;
//! * **damage sweep**: every truncation and every bit flip of every file
//!   of a base + two-link chain falls back as the recovery table says (a
//!   damaged link to its predecessor, a damaged base to an older chain,
//!   then to full replay), and the recovered graph equals the twin;
//! * **retention**: under the shipped policy (retain 2, compaction on),
//!   any one damaged checkpoint file — the current chain's base included —
//!   still recovers the twin, from the independent fallback chain;
//! * **format 1**: a compacted data directory written by a build before
//!   chaining opens, and the next checkpoint links onto its base;
//! * **link start**: a link whose record does not start where its
//!   predecessor ends is rejected, never folded;
//! * **restart**: the first checkpoint after recovery links onto the chain
//!   recovery loaded — in the durable graph and in the server's `/stats`;
//! * **loud failure**: a failed checkpoint never fails its seal, and is
//!   reported on the receipt and counted in `/stats`.
//!
//! Every test holds one gate: the failpoint registry is process-global.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use egraph_core::csr::CsrAdjacency;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::NodeId;
use egraph_fault::{self as fault, Rule};
use egraph_io::checkpoint::{decode_checkpoint, encode_append_record, encode_checkpoint};
use egraph_log::checkpoint_path;
use egraph_serve::{Client, Server, ServerConfig};
use egraph_stream::{DurableGraph, EdgeEvent, LiveGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("egraph-chain-{tag}-{}-{n}", std::process::id()));
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

/// One seeded batch of edges over the current universe, then a seal.
fn seal_batch(rng: &mut SmallRng, durable: &mut DurableGraph, label: i64) -> Option<u64> {
    let n = durable.live().graph().num_nodes() as u32;
    for _ in 0..rng.gen_range(1..5u32) {
        let u = rng.gen_range(0..n);
        let v = (u + rng.gen_range(1..n)) % n;
        durable.insert(NodeId(u), NodeId(v)).unwrap();
    }
    let receipt = durable.seal_snapshot(label).unwrap();
    receipt
        .checkpoint
        .map(|checkpoint| checkpoint.unwrap().chain_links)
}

#[test]
fn every_checkpoint_of_a_seeded_history_decodes_to_the_live_columns() {
    let _gate = gate();
    for directed in [true, false] {
        let dir = TempDir::new("twin");
        let mut rng = SmallRng::seed_from_u64(0xC4A1 + directed as u64);
        let mut durable = DurableGraph::create(dir.path(), 5, directed).unwrap();
        durable.set_checkpoint_policy(2, 2);
        let (mut longest, mut links_over_a_grow) = (0, 0);
        let mut nodes_at_last_checkpoint = 5;
        for label in 0..48 {
            if label % 7 == 3 {
                let grown = durable.live().graph().num_nodes() + 1;
                durable.apply(EdgeEvent::grow_nodes(grown)).unwrap();
            }
            let Some(links) = seal_batch(&mut rng, &mut durable, label) else {
                continue;
            };
            let live = durable.live();
            let payload = egraph_log::read_checkpoint(dir.path(), live.version() - 1).unwrap();
            let (parts, version) = decode_checkpoint(&payload).unwrap();
            assert_eq!(version, live.version());
            assert_eq!(
                parts,
                live.graph().to_parts(),
                "directed={directed} label {label}"
            );
            longest = longest.max(links);
            if links > 0 && live.graph().num_nodes() > nodes_at_last_checkpoint {
                links_over_a_grow += 1;
            }
            nodes_at_last_checkpoint = live.graph().num_nodes();
        }
        assert!(longest >= 3, "directed={directed}: longest chain {longest}");
        assert!(links_over_a_grow > 0, "directed={directed}");
    }
}

/// A log of seven seals with hand-installed checkpoints and no compaction,
/// so every fallback tier stays reachable: an older standalone base at 0,
/// then base 1 ← link 3 ← link 5. Returns the graph after each seal.
fn write_chain_fixture(dir: &Path) -> Vec<CsrAdjacency> {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut durable = DurableGraph::create(dir, 6, true).unwrap();
    let mut states = Vec::new();
    for label in 0..7 {
        seal_batch(&mut rng, &mut durable, label);
        states.push(durable.live().graph().clone());
    }
    let base = |seq: usize| encode_checkpoint(&states[seq].to_parts(), seq as u64 + 1);
    let link =
        |seq: usize, from: usize| encode_append_record(states[seq].columns(), from, seq as u64 + 1);
    egraph_log::write_checkpoint(dir, 0, &base(0)).unwrap();
    egraph_log::write_checkpoint(dir, 1, &base(1)).unwrap();
    egraph_log::install_checkpoint(dir, 3, Some(1), &link(3, 2)).unwrap();
    egraph_log::install_checkpoint(dir, 5, Some(3), &link(5, 4)).unwrap();
    states
}

#[test]
fn damage_to_any_chain_file_falls_back_as_the_table_says() {
    let _gate = gate();
    let dir = TempDir::new("sweep");
    let states = write_chain_fixture(dir.path());
    let twin = states[6].to_parts();
    // The file damaged, and where recovery must land: a link falls back to
    // its predecessor, a damaged middle link takes every later link with
    // it, and a damaged base falls back to the older chain.
    for (damaged, fallback) in [(5, 3), (3, 1), (1, 0)] {
        let path = checkpoint_path(dir.path(), damaged);
        let pristine = fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut flipped = pristine.clone();
            flipped[i] ^= 1 << (i % 8);
            for (how, bytes) in [("cut", &pristine[..i]), ("flip", &flipped[..])] {
                fs::write(&path, bytes).unwrap();
                let recovered = DurableGraph::open(dir.path())
                    .unwrap_or_else(|err| panic!("file {damaged} {how} {i}: {err}"));
                let stage = format!("file {damaged} {how} at byte {i}");
                assert_eq!(recovered.checkpoint_seq, Some(fallback), "{stage}");
                assert_eq!(recovered.graph.live().version(), 7, "{stage}");
                assert_eq!(recovered.graph.live().graph().to_parts(), twin, "{stage}");
            }
        }
        fs::write(&path, &pristine).unwrap();
    }
    // Both bases damaged: nothing is compacted, so recovery replays the
    // whole log.
    for seq in [0, 1] {
        let path = checkpoint_path(dir.path(), seq);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    }
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(recovered.checkpoint_seq, None);
    assert_eq!(recovered.graph.live().graph().to_parts(), twin);
}

#[test]
fn retention_under_compaction_survives_any_one_damaged_file() {
    let _gate = gate();
    let dir = TempDir::new("retain");
    let mut rng = SmallRng::seed_from_u64(0x2E7A);
    let mut durable = DurableGraph::create(dir.path(), 8, true).unwrap();
    durable.set_checkpoint_policy(2, 2);
    // Seal until a later chain holds two links: the newest two checkpoints
    // then share one base, and compaction has run past the first chain.
    let (mut label, mut bases) = (0, 0);
    loop {
        assert!(label < 400, "no second chain reached two links");
        let links = seal_batch(&mut rng, &mut durable, label);
        label += 1;
        bases += u32::from(links == Some(0));
        if bases >= 2 && links >= Some(2) {
            break;
        }
    }
    let twin = durable.live().graph().to_parts();
    drop(durable);
    assert!(!egraph_log::log::segment_path(dir.path(), 0).exists());
    let newest = *egraph_log::list_checkpoints(dir.path())
        .unwrap()
        .last()
        .unwrap();
    let current_base = egraph_log::list_checkpoints(dir.path())
        .unwrap()
        .into_iter()
        .rev()
        .find(|&seq| {
            let (_, size) = egraph_log::read_checkpoint_chain(dir.path(), seq).unwrap();
            size.links == 0 && seq < newest
        })
        .unwrap();

    for seq in egraph_log::list_checkpoints(dir.path()).unwrap() {
        let path = checkpoint_path(dir.path(), seq);
        let pristine = fs::read(&path).unwrap();
        // Every byte of the current chain's base; the middle of the rest.
        let at: Vec<usize> = if seq == current_base {
            (0..pristine.len()).collect()
        } else {
            vec![pristine.len() / 2]
        };
        for i in at {
            let mut flipped = pristine.clone();
            flipped[i] ^= 0x40;
            for (how, bytes) in [("cut", &pristine[..i]), ("flip", &flipped[..])] {
                fs::write(&path, bytes).unwrap();
                let stage = format!("file {seq} {how} at byte {i}");
                let recovered =
                    DurableGraph::open(dir.path()).unwrap_or_else(|err| panic!("{stage}: {err}"));
                assert_eq!(recovered.graph.live().graph().to_parts(), twin, "{stage}");
            }
        }
        fs::write(&path, &pristine).unwrap();
    }
}

/// A data directory as the build before chaining left it: a directed
/// 4-node graph, policy (2, 1) over seven seals of [`format1_batch`] — so
/// only the format-1 checkpoint 5 remains, segments 0..=5 are compacted
/// and segment 6 follows.
const FORMAT1_DIR: [(&str, &str); 3] = [
    ("manifest.bin", "45474c4d0103000401802c2aec"),
    (
        "checkpoint-0000000005.bin",
        "454743500105000000000000008b010606010c0614283c5064780500010202020502020304040504040405\
         060706070707080808070808080808090a070a0b0b0b0b0b0c0c0100020103020300050405000500010202\
         020502020304040504040405060706070707080808070808080808090a070a0b0b0b0b0b0c0c0100020103\
         020300050405000300030502000102010202020301040204051c06876e",
    ),
    (
        "seg-0000000006.seg",
        "4547534701060000000000000003010001b3838489030201003d3cdee503048c011f967918",
    ),
];

/// Seal `s`'s events in [`FORMAT1_DIR`]: an edge and its unique reverse
/// over the nodes sealed so far, plus a grow to 6 nodes in seal 3.
fn format1_batch(s: u32) -> Vec<EdgeEvent> {
    let mut events = Vec::new();
    if s == 3 {
        events.push(EdgeEvent::grow_nodes(6));
    }
    let n = if s > 3 { 6 } else { 4 };
    let (u, v) = (NodeId(s % n), NodeId((s + 1) % n));
    events.extend([EdgeEvent::insert(u, v), EdgeEvent::insert_unique(v, u)]);
    events
}

#[test]
fn a_format1_data_directory_opens_and_the_next_checkpoint_links_onto_it() {
    let _gate = gate();
    let dir = TempDir::new("format1");
    fs::create_dir_all(dir.path()).unwrap();
    for (name, hex) in FORMAT1_DIR {
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        fs::write(dir.path().join(name), bytes).unwrap();
    }
    let mut twin = LiveGraph::directed(4);
    let seal_twin = |twin: &mut LiveGraph, s: u32| {
        for event in format1_batch(s) {
            twin.apply(event).unwrap();
        }
        twin.seal_snapshot(10 * (i64::from(s) + 1)).unwrap();
    };
    for s in 0..7 {
        seal_twin(&mut twin, s);
    }

    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(recovered.checkpoint_seq, Some(5));
    assert_eq!(recovered.segments_replayed, 1);
    assert_eq!(recovered.graph.live().version(), 7);
    assert_eq!(
        recovered.graph.live().graph().to_parts(),
        twin.graph().to_parts()
    );

    // The next checkpoint links onto the format-1 base, and the mixed
    // chain reads back.
    let mut durable = recovered.graph;
    durable.set_checkpoint_policy(8, 2);
    for event in format1_batch(7) {
        durable.apply(event).unwrap();
    }
    let receipt = durable.seal_snapshot(80).unwrap();
    assert_eq!(receipt.checkpoint.unwrap().unwrap().chain_links, 1);
    seal_twin(&mut twin, 7);
    drop(durable);
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(recovered.checkpoint_seq, Some(7));
    assert_eq!(
        recovered.graph.live().graph().to_parts(),
        twin.graph().to_parts()
    );
}

#[test]
fn a_link_that_does_not_start_where_its_predecessor_ends_is_rejected() {
    let _gate = gate();
    let dir = TempDir::new("start");
    let states = write_chain_fixture(dir.path());
    // Link 5 claims to continue link 3 (4 snapshots) but its record starts
    // at snapshot 2 (overlap) or 5 (gap): the chain must not fold it.
    for from in [2, 5] {
        let record = encode_append_record(states[5].columns(), from, 6);
        egraph_log::install_checkpoint(dir.path(), 5, Some(3), &record).unwrap();
        let payload = egraph_log::read_checkpoint(dir.path(), 5).unwrap();
        assert!(decode_checkpoint(&payload).is_err(), "from {from}");
        let recovered = DurableGraph::open(dir.path()).unwrap();
        assert_eq!(recovered.checkpoint_seq, Some(3), "from {from}");
        assert_eq!(
            recovered.graph.live().graph().to_parts(),
            states[6].to_parts()
        );
    }
}

#[test]
fn the_first_checkpoint_after_a_restart_links_onto_the_recovered_chain() {
    let _gate = gate();
    let dir = TempDir::new("restart");
    let mut rng = SmallRng::seed_from_u64(0xAB);
    {
        // One base covering 16 snapshots, then two more seals.
        let mut durable = DurableGraph::create(dir.path(), 8, true).unwrap();
        durable.set_checkpoint_policy(16, 2);
        for label in 0..18 {
            seal_batch(&mut rng, &mut durable, label);
        }
    }
    let recovered = DurableGraph::open(dir.path()).unwrap();
    assert_eq!(recovered.checkpoint_seq, Some(15));
    let mut durable = recovered.graph;
    durable.set_checkpoint_policy(4, 2);
    seal_batch(&mut rng, &mut durable, 18);
    assert_eq!(seal_batch(&mut rng, &mut durable, 19), Some(1));
    let (_, size) = egraph_log::read_checkpoint_chain(dir.path(), 19).unwrap();
    assert_eq!(size.links, 1);
    assert_eq!(
        egraph_log::list_checkpoints(dir.path()).unwrap(),
        vec![15, 19]
    );
    drop(durable);

    // The server inherits the recovered chain the same way.
    let recovered = DurableGraph::open(dir.path()).unwrap();
    let config = ServerConfig {
        checkpoint_every: 4,
        ..ServerConfig::default()
    };
    let server = Server::start_durable(recovered, config).unwrap();
    let client = Client::new(server.addr());
    for label in 20..24 {
        let body = format!(
            "{{\"events\": [[{}, 1]], \"seal\": {label}}}",
            label % 6 + 2
        );
        assert_eq!(client.post("/ingest", &body).unwrap().status, 200);
    }
    let stats = server.stats().checkpoints;
    assert_eq!(stats.written, 1, "{stats:?}");
    assert_eq!(stats.bases_written, 0, "{stats:?}");
    assert_eq!(stats.failures, 0, "{stats:?}");
    assert!(stats.bytes_written > 0, "{stats:?}");
    let body = client.get("/stats").unwrap().body;
    assert!(body.contains("\"checkpoint_bases_written\": 0"), "{body}");
}

#[test]
fn a_failed_checkpoint_is_reported_and_counted_while_its_seal_succeeds() {
    let _gate = gate();
    if !fault::is_active_build() {
        return; // failpoints compile out of release builds
    }
    let dir = TempDir::new("loud");
    let mut durable = DurableGraph::create(dir.path(), 4, true).unwrap();
    durable.set_checkpoint_policy(1, 2);
    durable.insert(NodeId(0), NodeId(1)).unwrap();
    fault::configure("ckpt.write", Rule::error().times(1));
    let receipt = durable.seal_snapshot(0).unwrap();
    fault::clear("ckpt.write");
    assert!(matches!(receipt.checkpoint, Some(Err(_))), "{receipt:?}");
    drop(durable);

    let recovered = DurableGraph::open(dir.path()).unwrap();
    let config = ServerConfig {
        checkpoint_every: 1,
        ..ServerConfig::default()
    };
    let server = Server::start_durable(recovered, config).unwrap();
    let client = Client::new(server.addr());
    fault::configure("ckpt.fsync", Rule::error().times(1));
    let response = client
        .post("/ingest", "{\"events\": [[1, 2]], \"seal\": 1}")
        .unwrap();
    fault::clear("ckpt.fsync");
    assert_eq!(response.status, 200, "{}", response.body);
    let stats = server.stats().checkpoints;
    assert_eq!(stats.failures, 1, "{stats:?}");
    assert_eq!(stats.written, 0, "{stats:?}");
    let body = client.get("/stats").unwrap().body;
    assert!(body.contains("\"checkpoint_failures\": 1"), "{body}");
}
