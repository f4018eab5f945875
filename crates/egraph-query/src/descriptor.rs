//! [`QueryDescriptor`]: the canonical, hashable identity of a [`Search`].
//!
//! Differently phrased builders that would execute the *same traversal*
//! produce equal descriptors wherever that is decidable without a graph:
//! an explicit [`Search::reverse`] composed with
//! [`Direction::Backward`](crate::Direction::Backward) collapses
//! into a single *effective reverse* bit (the builder executes both through
//! the same reversed view), and a window start bound of `0` canonicalises
//! away (`0..` ≡ `..`). The one graph-dependent phrasing stays distinct: an
//! explicit end bound that happens to equal the last snapshot (`..=last`)
//! is not unified with an unbounded end, because the two *diverge* the
//! moment a snapshot is appended. Caching layers (the `egraph-stream`
//! crate's `QueryCache`) key memoised results on this type instead of
//! re-deriving the builder's dispatch rules, so the cache composes with
//! every strategy rather than bypassing the builder.
//!
//! [`Search`]: crate::Search
//! [`Search::reverse`]: crate::Search::reverse

use egraph_core::ids::TemporalNode;

use crate::builder::{Strategy, WindowSpec};

/// The canonical identity of a search: root(s) × strategy × direction ×
/// window × reverse, after the builder's dispatch rules are applied.
///
/// Obtained from [`Search::descriptor`](crate::Search::descriptor).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryDescriptor {
    sources: Vec<TemporalNode>,
    strategy: Strategy,
    effective_reverse: bool,
    window: WindowSpec,
    with_parents: bool,
}

impl QueryDescriptor {
    pub(crate) fn new(
        sources: Vec<TemporalNode>,
        strategy: Strategy,
        effective_reverse: bool,
        window: WindowSpec,
        with_parents: bool,
    ) -> Self {
        QueryDescriptor {
            sources,
            strategy,
            effective_reverse,
            window,
            with_parents,
        }
    }

    /// The configured sources, in builder order (order is part of the
    /// identity: per-source payloads are returned in this order).
    pub fn sources(&self) -> &[TemporalNode] {
        &self.sources
    }

    /// The strategy that will actually execute — [`Strategy::Serial`] when
    /// the builder requested BFS-tree parents, regardless of the configured
    /// strategy (see [`Search::with_parents`](crate::Search::with_parents)).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Whether the traversal runs on time-reversed coordinates: an explicit
    /// [`reverse`](crate::Search::reverse) XOR a backward
    /// [`direction`](crate::Search::direction).
    pub fn effective_reverse(&self) -> bool {
        self.effective_reverse
    }

    /// The snapshot-window restriction.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Whether BFS-tree parents are recorded.
    pub fn with_parents(&self) -> bool {
        self.with_parents
    }

    /// Whether a cached result of this query can be *extended in place* when
    /// strictly later snapshots are appended to the graph — shorthand for
    /// `self.append_repair() == AppendRepair::Extend`. Every descriptor
    /// shape has *some* incremental repair (see [`AppendRepair`]); this
    /// predicate singles out the frontier-growing one.
    pub fn is_append_extendable(&self) -> bool {
        self.append_repair() == AppendRepair::Extend
    }

    /// Classifies how a cached result of this query is repaired when
    /// strictly later snapshots are appended to the graph — one row of the
    /// cache-invalidation matrix (ROADMAP / README).
    ///
    /// Appending a snapshot only ever adds causal edges *into* it and static
    /// edges *inside* it. That gives every shape a cheap repair:
    ///
    /// * **Forward, unbounded end** ([`AppendRepair::Extend`]): previously
    ///   computed distances / arrivals / frontier claims all survive; the
    ///   result merely gains coverage of the new snapshot —
    ///   [`ResumableBfs`](egraph_core::resume::ResumableBfs) /
    ///   [`ResumableForemost`](egraph_core::resume::ResumableForemost) /
    ///   [`ResumableShared`](egraph_core::resume::ResumableShared), parents
    ///   included.
    /// * **Bounded window end** ([`AppendRepair::Redimension`]): the window
    ///   never covers appended snapshots, so the answer is append-invariant
    ///   *modulo its time dimensions* — remap coordinates, touch no edges.
    /// * **Effective reversal** ([`AppendRepair::Resettle`]): causal edges
    ///   only go forward in time, so a reversed traversal from a fixed-time
    ///   root only reaches times at or before the root — strictly earlier
    ///   than any appended snapshot. The prior answer is the *stable core*
    ///   (Afarin et al.) and holds unchanged; the repair re-dimensions it,
    ///   an `O(result)` copy with no graph work.
    /// * **Empty window** ([`AppendRepair::None`]): the query always errors
    ///   and errors are never cached — nothing to repair.
    pub fn append_repair(&self) -> AppendRepair {
        if self.window.is_empty_spec() {
            AppendRepair::None
        } else if self.window.end_bound().is_some() {
            AppendRepair::Redimension
        } else if self.effective_reverse {
            AppendRepair::Resettle
        } else {
            AppendRepair::Extend
        }
    }

    /// Rebuilds an executable [`Search`](crate::Search) from this identity —
    /// the deserialization half of shipping queries over a wire: a server
    /// decodes a descriptor (see [`codec`](crate::codec)) and calls this to
    /// get something it can `run`. Round-trips:
    /// `descriptor.to_search().descriptor() == descriptor`.
    pub fn to_search(&self) -> crate::Search {
        let mut search = crate::Search::from_sources(self.sources.iter().copied())
            .strategy(self.strategy)
            .window(self.window);
        if self.effective_reverse {
            search = search.reverse();
        }
        if self.with_parents {
            search = search.with_parents();
        }
        search
    }
}

/// How a cached result is repaired when snapshots are appended — the rows of
/// the cache-invalidation matrix. See
/// [`QueryDescriptor::append_repair`] for the classification rules and the
/// `egraph-stream` `QueryCache` for the implementations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppendRepair {
    /// Grow the retained result append-only (resumable frontier extension).
    Extend,
    /// Remap the result's time dimensions; no graph work.
    Redimension,
    /// Reuse the stable core: a reversed traversal never reaches an appended
    /// snapshot, so the result is re-dimensioned (an `O(result)` copy, no
    /// graph work).
    Resettle,
    /// No repair applies (the query unconditionally errors; never cached).
    None,
}

/// An execution back end a [`Search`](crate::Search) can be routed through —
/// the inversion that lets caching / live layers sit *behind* the builder
/// instead of wrapping it. Implemented by `egraph-stream`'s
/// `CachedSession`; [`Search::run_via`](crate::Search::run_via) is the
/// entry point.
pub trait QueryExecutor {
    /// Executes `search`, by whatever mix of cache hits, incremental
    /// extension and recomputation the back end implements. Must be
    /// answer-equivalent to [`Search::run`](crate::Search::run) against the
    /// backing graph — errors included. The shared return is what makes a
    /// cache hit `O(1)`: serving an existing result is an `Arc` clone, not a
    /// re-materialisation.
    fn run_search(
        &mut self,
        search: &crate::Search,
    ) -> egraph_core::error::Result<std::sync::Arc<crate::SearchResult>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Search;
    use crate::Direction;
    use egraph_core::ids::TemporalNode;

    fn root() -> TemporalNode {
        TemporalNode::from_raw(0, 0)
    }

    #[test]
    fn backward_and_reversed_collapse_to_the_same_descriptor() {
        let a = Search::from(root()).backward().descriptor();
        let b = Search::from(root()).reverse().descriptor();
        assert_eq!(a, b);
        assert!(a.effective_reverse());
        // ...and double reversal cancels.
        let c = Search::from(root())
            .direction(Direction::Backward)
            .reverse()
            .descriptor();
        assert!(!c.effective_reverse());
        assert_eq!(c, Search::from(root()).descriptor());
    }

    #[test]
    fn zero_start_windows_collapse_to_the_unwindowed_descriptor() {
        // `0..` restricts nothing: one standing query, one cache entry.
        assert_eq!(
            Search::from(root()).window(0u32..).descriptor(),
            Search::from(root()).descriptor()
        );
        assert_eq!(
            Search::from(root()).window(0u32..=3).descriptor(),
            Search::from(root()).window(..=3u32).descriptor()
        );
        // A bounded end stays distinct from an unbounded one — they diverge
        // as soon as a snapshot is appended.
        assert_ne!(
            Search::from(root()).window(..=3u32).descriptor(),
            Search::from(root()).descriptor()
        );
    }

    #[test]
    fn with_parents_forces_the_serial_strategy_in_the_descriptor() {
        let d = Search::from(root())
            .strategy(Strategy::Algebraic)
            .with_parents()
            .descriptor();
        assert_eq!(d.strategy(), Strategy::Serial);
        assert!(d.with_parents());
        assert_ne!(d, Search::from(root()).descriptor());
    }

    #[test]
    fn append_repair_matrix() {
        let r = |s: Search| s.descriptor().append_repair();
        // Forward unbounded-end queries extend — every engine, parents
        // included.
        assert_eq!(r(Search::from(root())), AppendRepair::Extend);
        assert_eq!(
            r(Search::from(root()).strategy(Strategy::Foremost)),
            AppendRepair::Extend
        );
        assert_eq!(r(Search::from(root()).window(1u32..)), AppendRepair::Extend);
        assert_eq!(r(Search::from(root()).with_parents()), AppendRepair::Extend);
        assert_eq!(
            r(Search::from(root()).strategy(Strategy::SharedFrontier)),
            AppendRepair::Extend
        );
        assert!(d_extendable(Search::from(root())));
        // Bounded window ends re-dimension — the window bound wins over
        // reversal (a bounded reversed result is still append-invariant
        // modulo dimensions).
        assert_eq!(
            r(Search::from(root()).window(0u32..=1)),
            AppendRepair::Redimension
        );
        assert_eq!(
            r(Search::from(root()).backward().window(..=1u32)),
            AppendRepair::Redimension
        );
        // Effective reversal (unbounded end) resettles the stable core.
        assert_eq!(r(Search::from(root()).backward()), AppendRepair::Resettle);
        assert_eq!(r(Search::from(root()).reverse()), AppendRepair::Resettle);
        assert!(!d_extendable(Search::from(root()).backward()));
        // Double reversal cancels back to extension.
        assert_eq!(
            r(Search::from(root()).backward().reverse()),
            AppendRepair::Extend
        );
        // Empty windows always error; nothing is ever cached to repair.
        #[allow(clippy::reversed_empty_ranges)]
        let empty = Search::from(root()).window(3u32..1);
        assert_eq!(r(empty), AppendRepair::None);
    }

    fn d_extendable(s: Search) -> bool {
        s.descriptor().is_append_extendable()
    }

    #[test]
    fn source_order_is_part_of_the_identity() {
        let a = TemporalNode::from_raw(0, 0);
        let b = TemporalNode::from_raw(1, 0);
        assert_ne!(
            Search::from_sources([a, b]).descriptor(),
            Search::from_sources([b, a]).descriptor()
        );
    }
}
