//! CAUSAL — each node's causal edges delivered once.
//!
//! Theorem 1's equivalent static graph holds Σ_v a_v(a_v − 1)/2 causal
//! edges, where a_v is the number of snapshots at which node v is active.
//! The traversal kernel's causal cursor delivers, per expansion of
//! `(v, t)`, only the active times of `v` between `t` and the earliest
//! expansion of `v` so far, so one single-source search receives at most
//! one causal delivery per active temporal node.
//!
//! For 1 000 nodes of uniform random directed edges at 8, 32, 100 and 300
//! snapshots, this bench counts (`CountingView`) the active times one
//! `Strategy::Serial` search receives over `CsrAdjacency` — forward from
//! the first active temporal node, backward from the last — and asserts each count is at most the number of active
//! temporal nodes. It records the causal edge count the search would walk
//! without the cursor and the search's wall clock (best of 5, not gated),
//! and writes `BENCH_causal.json`.

use std::time::Instant;

use egraph_core::csr::CsrAdjacency;
use egraph_core::graph::EvolvingGraph;
use egraph_core::ids::NodeId;
use egraph_core::instrument::CountingView;
use egraph_gen::random::figure5_workload;
use egraph_query::Search;

const NUM_NODES: usize = 1_000;
/// `(snapshots, static edges per snapshot)`.
const SHAPES: [(usize, usize); 4] = [(8, 16_000), (32, 4_000), (100, 2_000), (300, 300)];

/// Best wall clock of five runs of `f`, in microseconds.
fn best_us<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut rows = Vec::new();
    for (snapshots, edges) in SHAPES {
        let nested = figure5_workload(
            NUM_NODES,
            snapshots,
            snapshots * edges,
            0xCA05 + snapshots as u64,
        );
        let graph = CsrAdjacency::from_graph(&nested);
        let active = graph.active_nodes();
        let active_nodes = active.len() as u64;
        let causal_edges: u64 = (0..NUM_NODES)
            .map(|v| graph.active_slice(NodeId::from_index(v)).len() as u64)
            .map(|a| a * a.saturating_sub(1) / 2)
            .sum();
        let mut row = format!(
            "    {{\"snapshots\": {snapshots}, \"edges_per_snapshot\": {edges}, \
             \"active_temporal_nodes\": {active_nodes}, \"causal_edges\": {causal_edges}"
        );
        for (name, search) in [
            ("forward", Search::from(active[0])),
            (
                "backward",
                Search::from(active[active.len() - 1]).backward(),
            ),
        ] {
            let view = CountingView::new(&graph);
            let reached = search.run(&view).unwrap().num_reached();
            let delivered = view.counters().active_times_delivered;
            assert!(
                delivered <= active_nodes,
                "{snapshots} snapshots, {name}: {delivered} active times delivered for \
                 {active_nodes} active temporal nodes"
            );
            let us = best_us(|| search.run(&graph).unwrap().num_reached());
            println!(
                "causal_cursor/{snapshots}x{edges} {name}: {delivered} active times delivered \
                 (active temporal nodes {active_nodes}, causal edges {causal_edges}), \
                 {reached} reached, best {us:.0} us"
            );
            row.push_str(&format!(
                ", \"{name}_active_times_delivered\": {delivered}, \"{name}_reached\": {reached}, \
                 \"{name}_serial_us\": {us:.0}"
            ));
        }
        row.push('}');
        rows.push(row);
    }
    let json = format!(
        "{{\n  \"bench\": \"causal_cursor\",\n  \"num_nodes\": {NUM_NODES},\n  \
         \"notes\": \"one Strategy::Serial search over CsrAdjacency, forward from the first \
         active temporal node (node order, then time) and backward from the last, over \
         uniform random directed edges; *_active_times_delivered are \
         CountingView active_times_delivered (the causal edges the search walks plus the \
         root's activeness check) and are asserted <= active_temporal_nodes; causal_edges is \
         the equivalent static graph's causal edge count; *_serial_us is the best of 5 \
         uncounted runs, recorded and not gated\",\n  \"shapes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    let path = "BENCH_causal.json";
    std::fs::write(path, json).expect("write bench summary");
    println!("wrote {path}");
}
