//! Live streaming quickstart: ingest edge events into a `LiveGraph`, seal
//! snapshots as time advances, and watch the `QueryCache` serve the same
//! standing query by cache hit or by the incremental repair row its shape
//! selects — frontier extension for forward queries, a stable-core resettle
//! for backward ones — depending on what the delta can invalidate.
//!
//! Run with `cargo run --release --example live_stream`.

use evolving_graphs::prelude::*;

fn main() -> Result<()> {
    // ------------------------------------------------------------------
    // 1. A live graph: no snapshots yet, events buffer until sealed.
    // ------------------------------------------------------------------
    let mut live = LiveGraph::directed(5);
    live.apply(EdgeEvent::insert(NodeId(0), NodeId(1)))?;
    live.apply(EdgeEvent::insert(NodeId(1), NodeId(2)))?;
    let t0 = live.seal_snapshot(0)?;
    println!(
        "sealed t{} (version {}): {} edges, touched {:?}",
        t0.0,
        live.version(),
        live.graph().num_static_edges(),
        live.touched_at(t0)
    );

    // ------------------------------------------------------------------
    // 2. Standing queries through the cache: one forward (extended when
    //    stale), one backward (stable-core resettled when stale).
    // ------------------------------------------------------------------
    let cache = QueryCache::new();
    let root = TemporalNode::from_raw(0, 0);
    let forward = Search::from(root);
    let influencers = Search::from(TemporalNode::from_raw(2, 0)).backward();

    let (result, outcome) = cache.execute_traced(&live, &forward)?;
    println!(
        "\nforward from (0, t0): {:?}, reaches {:?}",
        outcome,
        result.reached_node_ids()
    );
    let (result, outcome) = cache.execute_traced(&live, &influencers)?;
    println!(
        "backward from (2, t0): {:?}, reaches {:?}",
        outcome,
        result.reached_node_ids()
    );

    // ------------------------------------------------------------------
    // 3. The stream keeps flowing: grow the universe, seal a new snapshot.
    // ------------------------------------------------------------------
    live.apply(EdgeEvent::grow_nodes(7))?;
    live.apply(EdgeEvent::insert(NodeId(2), NodeId(5)))?;
    live.apply(EdgeEvent::insert(NodeId(5), NodeId(6)))?;
    let t1 = live.seal_snapshot(1)?;
    println!(
        "\nsealed t{} (version {}): now {} nodes, {} edges",
        t1.0,
        live.version(),
        live.graph().num_nodes(),
        live.graph().num_static_edges()
    );

    // The forward query is *extended* from its retained frontier — work
    // proportional to the new snapshot — while the backward query is
    // *resettled*: causal edges only go forward in time, so a backward
    // search never reaches the new snapshot and its answer is the stable
    // core — re-dimensioned to the grown graph, an O(result) copy with no
    // graph work.
    let (result, outcome) = cache.execute_traced(&live, &forward)?;
    println!(
        "forward from (0, t0): {:?}, reaches {:?}",
        outcome,
        result.reached_node_ids()
    );
    assert_eq!(outcome, CacheOutcome::Extended);
    assert!(result.reaches_node(NodeId(6)));
    let (result, outcome) = cache.execute_traced(&live, &influencers)?;
    println!(
        "backward from (2, t0): {:?}, reaches {:?}",
        outcome,
        result.reached_node_ids()
    );
    assert_eq!(outcome, CacheOutcome::Resettled);

    // Re-asking with no new seals is a pure cache hit.
    let (_, outcome) = cache.execute_traced(&live, &forward)?;
    assert_eq!(outcome, CacheOutcome::Hit);
    println!("\nre-asked with no new seals: {outcome:?}");
    println!("cache stats: {:?}", cache.stats());

    // The fluent route through the builder works too.
    let fluent = Search::from(root)
        .strategy(Strategy::Foremost)
        .run_via(&mut live.session(&cache))?;
    println!(
        "foremost arrival of node 6: t{}",
        fluent.arrival(NodeId(6)).expect("reached").0
    );
    Ok(())
}
