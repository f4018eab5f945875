//! Seeded inputs: random evolving graphs, query descriptors and the
//! request bytes a client puts on the wire. The same seed always gives the
//! same inputs; the program under test sees nothing else.

use std::collections::HashSet;

use egraph_core::ids::TemporalNode;
use egraph_query::codec::descriptor_to_json;
use egraph_query::{QueryDescriptor, Search, Strategy};
use egraph_stream::LiveGraph;

/// SplitMix64: small, fast and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose, derived from the run seed.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut mix = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Rng(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One snapshot's edges, `src != dst`.
pub type Snapshot = Vec<(u32, u32)>;

/// `count` snapshots of `edges` uniformly random directed edges each.
pub fn random_snapshots(rng: &mut Rng, nodes: usize, count: usize, edges: usize) -> Vec<Snapshot> {
    (0..count)
        .map(|_| {
            let mut snapshot = Vec::with_capacity(edges);
            while snapshot.len() < edges {
                let (u, v) = (rng.below(nodes) as u32, rng.below(nodes) as u32);
                if u != v {
                    snapshot.push((u, v));
                }
            }
            snapshot
        })
        .collect()
}

/// Bulk-builds a directed live graph, sealing snapshot `i` under label `i`.
pub fn build_live(nodes: usize, snapshots: &[Snapshot]) -> LiveGraph {
    let mut live = LiveGraph::directed(nodes);
    for (label, snapshot) in snapshots.iter().enumerate() {
        for &(u, v) in snapshot {
            live.insert(u, v).expect("generated edges are in range");
        }
        live.seal_snapshot(label as i64).expect("labels increase");
    }
    live
}

/// Nodes with at least one edge in `snapshot`, ascending.
pub fn active_nodes(snapshot: &Snapshot) -> Vec<u32> {
    let mut nodes: Vec<u32> = snapshot.iter().flat_map(|&(u, v)| [u, v]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// A single-source query descriptor.
pub fn descriptor(node: u32, time: u32, strategy: Strategy, backward: bool) -> QueryDescriptor {
    let search = Search::from(TemporalNode::from_raw(node, time)).strategy(strategy);
    let search = if backward { search.backward() } else { search };
    search.descriptor()
}

/// Where roots sit in the history.
#[derive(Clone, Copy)]
pub enum Roots {
    /// Forward roots in the first snapshots, backward roots in the last:
    /// every answer covers the whole history.
    Covering,
    /// Forward roots in the last snapshots, backward roots in the first:
    /// answers cover only the edge of the history, and forward ones grow as
    /// snapshots are appended.
    Edge,
}

/// `count` distinct descriptors, none in `exclude`. Strategies rotate
/// fastest, then direction; each root sits in one of the `depth` snapshots
/// at the end of the history `roots` names, and is active there.
pub fn distinct_descriptors(
    rng: &mut Rng,
    snapshots: &[Snapshot],
    count: usize,
    strategies: &[Strategy],
    (roots, depth): (Roots, usize),
    exclude: &HashSet<QueryDescriptor>,
) -> Vec<QueryDescriptor> {
    let active: Vec<Vec<u32>> = snapshots.iter().map(active_nodes).collect();
    let last = snapshots.len() - 1;
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let strategy = strategies[i % strategies.len()];
        let backward = (i / strategies.len()) % 2 == 1;
        let descriptor = loop {
            let offset = rng.below(depth);
            let early = match roots {
                Roots::Covering => !backward,
                Roots::Edge => backward,
            };
            let time = if early { offset } else { last - offset };
            let nodes = &active[time];
            let node = nodes[rng.below(nodes.len())];
            let candidate = descriptor(node, time as u32, strategy, backward);
            if seen.insert(candidate.clone()) {
                break candidate;
            }
        };
        out.push(descriptor);
    }
    out
}

/// The `/query` request body for a descriptor.
pub fn query_body(descriptor: &QueryDescriptor) -> String {
    descriptor_to_json(descriptor)
}

/// An `/ingest` body: insert `events`, then seal under `label`.
pub fn ingest_body(events: &[(u32, u32)], label: i64) -> String {
    let pairs: Vec<String> = events.iter().map(|(u, v)| format!("[{u}, {v}]")).collect();
    format!("{{\"events\": [{}], \"seal\": {label}}}", pairs.join(", "))
}

/// The bytes `egraph_serve::Client` sends for a `POST`, so the traced replay
/// parses what the server parses.
pub fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = random_snapshots(&mut Rng::derive(5, 1), 50, 3, 40);
        let b = random_snapshots(&mut Rng::derive(5, 1), 50, 3, 40);
        let c = random_snapshots(&mut Rng::derive(6, 1), 50, 3, 40);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().flatten().all(|&(u, v)| u != v && u < 50 && v < 50));
    }

    #[test]
    fn descriptors_are_distinct_and_valid() {
        let mut rng = Rng::derive(3, 0);
        let snapshots = random_snapshots(&mut rng, 30, 4, 60);
        let strategies = [
            Strategy::Serial,
            Strategy::Parallel,
            Strategy::SharedFrontier,
        ];
        let exclude: HashSet<_> =
            [descriptor(snapshots[0][0].0, 0, Strategy::Serial, false)].into();
        let list = distinct_descriptors(
            &mut rng,
            &snapshots,
            200,
            &strategies,
            (Roots::Covering, 2),
            &exclude,
        );
        let unique: HashSet<_> = list.iter().cloned().collect();
        assert_eq!(unique.len(), 200);
        assert!(unique.is_disjoint(&exclude));
        let live = build_live(30, &snapshots);
        for d in &list {
            d.to_search()
                .run(live.graph())
                .expect("every root is active");
        }
    }

    #[test]
    fn request_bytes_parse_as_the_server_parses() {
        let body = ingest_body(&[(1, 2), (3, 4)], 9);
        let bytes = request_bytes("/ingest", &body);
        let request =
            egraph_serve::http::read_request(&mut std::io::Cursor::new(bytes), 1 << 20).unwrap();
        assert_eq!(request.path, "/ingest");
        assert_eq!(request.body, body);
    }
}
