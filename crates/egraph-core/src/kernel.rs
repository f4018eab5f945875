//! The level-synchronous traversal kernel behind every hop engine.
//!
//! Algorithm 1 is one loop, and Theorem 1 says why one loop is enough: BFS
//! on an evolving graph is BFS on its equivalent static graph. Each temporal
//! node owns one atomic slot holding its best *key*, a distance or a packed
//! distance and source index, both defined in [`crate::distance`], where
//! the kernel's finished table becomes the result. A node at
//! level `k − 1` hands each neighbour the key "level `k`, my source"; the
//! claim that finds the slot unreached enqueues it. The pool's join ends
//! every wide level, so the key a node hands on is final; a slot publishes
//! no other data, so Relaxed ordering suffices.
//!
//! **Push and pull.** Because the equivalent static graph is an ordinary
//! graph, the best static BFS applies unchanged: direction-optimizing levels
//! (Beamer et al., SC'12). A *push* level walks each frontier node's
//! out-row and claims what it finds. A *pull* level claims from the other
//! end: every slot `(w, s)` of the search's rows still above the level's
//! floor opens its static in-row and takes the key handed on by an entry
//! `u` with `(u, s)` on level `k − 1`. A single-source slot stops at the
//! first such entry; a shared-frontier slot takes the minimum over all of
//! them and stops early only on the smallest key the level can hold, so
//! ties still go to the smallest source index. The causal in-edges need no
//! scan: before the static pull, each frontier node hands its later active
//! times their claims through the causal cursor below, exactly as a push
//! does. Those deliveries are at most one per active slot over the whole
//! search, so a pull level reads no active-time list, and only the static
//! half, which grows with the frontier, changes direction.
//!
//! Both directions claim exactly the slots one hop from level `k − 1` at
//! their minimum key, so the answer is the same whichever runs, and each
//! level chooses from its own contents alone, never from the threshold or
//! the pool size. The choice is Beamer's rule: pull when the frontier's
//! out-row total times [`ALPHA`] exceeds the unvisited slots' in-row total,
//! push again once the frontier times [`BETA`] is narrower than the
//! search's slots. Neither total is read from the graph, which would cost a
//! row per slot: both are slot counts times the same mean row length, which
//! cancels. The unvisited slots are the rows from the earliest seed on
//! minus the slots claimed, an over-count by the inactive slots that only
//! makes a pull rarer. Searches that record parents never pull: only the
//! serial push writes the parent sidecar, so parents follow
//! first-discoverer order as in the paper.
//!
//! **Serial and wide.** A level runs serially (Relaxed `load`/`store` are
//! plain moves) when it is narrower than the threshold, the pool has one
//! thread, or parents are recorded, and otherwise chunked over the pool:
//! a wide push claims with `fetch_min` into per-chunk buffers spliced in
//! chunk order; a wide pull splits the rows' slots, and each slot is written
//! only by the chunk that holds it.
//!
//! **Listed and marked levels.** A level's claims are listed in claim
//! order while there are at most a row's worth or `1/β` of the search's
//! slots, whichever is more; beyond that they move into a bitmap of the
//! search's rows, one bit per slot, and the level is expanded row by row.
//! So a whole-graph search allocates its key table, two lists no longer
//! than that cap and two bitmaps of an eighth of a byte per slot.
//! Distances and attributions do not depend on the order a level is
//! expanded in; first discoverers do, so a search recording parents lists
//! every level.
//!
//! **The causal cursor.** A hop from `(v, t)` follows `v`'s static
//! out-edges at `t` and its causal edges to later active times. The causal
//! edges `E′` are quadratic in each node's active count, but level-synchronous
//! order makes most of them redundant: the first expansion of `v` already
//! offers every later active time a claim. A per-node *causal cursor* `lo[v]`
//! — the earliest time at which `v` has been expanded — removes the
//! redundancy. Expanding `(v, t)` delivers only the active times in
//! `(t, lo[v])`, from the graph's ranged active-time slice, then lowers
//! `lo[v]` to `t` (`fetch_min` on a wide level). The delivered intervals
//! are disjoint, so a single-source
//! search walks each node's causal edges at most once per active time:
//! Theorem 2's bound in static edges plus active nodes. For the shared
//! frontier a later expansion at the same level may carry a smaller source
//! index, so the suffix is skipped only when the key of the node that set
//! the cursor is no larger than the expander's; otherwise a second cursor,
//! the last expansion that delivered its whole suffix, is tried the same
//! way before the expander delivers its whole suffix and becomes that
//! cursor. A skipped delivery could only have met a
//! slot already as good, so answers and first-discoverer parents are those
//! of the plain loop.
//!
//! Seeds enter at any level, in key order: a search seeds its sources at
//! level 0, and a [`crate::resume`] extension seeds each touched node of an
//! appended snapshot at its cheapest causal entry (its best key handed on
//! one level deeper), the stable-value reuse of Afarin et al. An extension
//! settles only the new snapshot, so its causal bound is that snapshot and
//! it follows static edges alone.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

use rayon::prelude::*;

use crate::distance::{DistanceMap, Key, KeyTable, MultiSourceMap, NO_PARENT};
use crate::error::{GraphError, Result};
use crate::graph::EvolvingGraph;
use crate::ids::{NodeId, TemporalNode, TimeIndex};

/// Default frontier width below which a level expands serially.
/// `EGRAPH_PAR_THRESHOLD` overrides it per process (read once), the query
/// builder's `parallel_threshold` per query.
///
/// Swept on a 2-vCPU host from a thread outside a 2-thread pool, as a
/// server's connection threads call it: at every width from 256 to 16 384
/// the wide path spent 15–60% more CPU than the serial loop and finished no
/// sooner, on 8 000 to 240 000 temporal nodes whose widest levels hold
/// 5 161 to 24 091 nodes. No measured level is this wide, so on such a host
/// `Parallel` runs the serial loop; a host with more cores may lower it
/// through either override.
pub const PARALLEL_FRONTIER_THRESHOLD: usize = 1 << 16;

/// Beamer's α, in slots: a push level turns to pull once the frontier,
/// times `ALPHA`, outnumbers the unvisited slots (see the module docs).
///
/// Swept over 1 to 14 on uniform random graphs of 1 000–1 500 nodes with 8
/// to 300 snapshots: 2 read the fewest row entries on every shape that
/// pulls at all. On 1 000 nodes × 8 snapshots of 16 000 edges a forward
/// search read 10 381 entries, against 79 304 pushing only, 12 045 at
/// α = 1, 13 107 at 8 and 32 272 at 14. Beamer's 14 counts edges with an
/// early exit at every unvisited vertex; here a pull level also opens the
/// in-row of every slot it cannot reach yet, in full.
pub const ALPHA: usize = 2;

/// Beamer's β: a pulling search pushes again once the frontier, times
/// `BETA`, is narrower than all of its slots. Beamer's value; 8 to 1 000
/// read within 10% of each other in the same sweep.
pub const BETA: usize = 24;

/// The process-wide default threshold: `EGRAPH_PAR_THRESHOLD` if set to a
/// parseable `usize`, else [`PARALLEL_FRONTIER_THRESHOLD`].
pub fn default_parallel_threshold() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("EGRAPH_PAR_THRESHOLD")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(PARALLEL_FRONTIER_THRESHOLD)
    })
}

/// A seed: its key, its node, and the parent it records if it claims.
pub(crate) type Seed<K> = (K, TemporalNode, u64);

/// An atomic claim slot holding a [`Key`]; smaller keys win.
pub(crate) trait Slot: Sync + Sized + From<Self::Key> {
    type Key: Key;
    fn load(&self) -> Self::Key;
    fn store(&self, key: Self::Key);
    fn fetch_min(&self, key: Self::Key) -> Self::Key;
    fn into_key(self) -> Self::Key;
}

macro_rules! slot {
    ($atomic:ident, $key:ty) => {
        impl Slot for $atomic {
            type Key = $key;
            #[inline]
            fn load(&self) -> $key {
                $atomic::load(self, Relaxed)
            }
            #[inline]
            fn store(&self, key: $key) {
                $atomic::store(self, key, Relaxed)
            }
            #[inline]
            fn fetch_min(&self, key: $key) -> $key {
                $atomic::fetch_min(self, key, Relaxed)
            }
            fn into_key(self) -> $key {
                self.into_inner()
            }
        }
    };
}

slot!(AtomicU32, u32);
slot!(AtomicU64, u64);

/// A fresh table of `len` unreached slots.
pub(crate) fn table<S: Slot>(len: usize) -> Vec<S> {
    (0..len).map(|_| S::from(S::Key::UNREACHED)).collect()
}

/// Collects a finished table into its keys, in place.
pub(crate) fn into_keys<S: Slot>(slots: Vec<S>) -> Vec<S::Key> {
    slots.into_iter().map(S::into_key).collect()
}

/// One level's claimed nodes: listed in claim order while there are at
/// most `cap` of them, beyond that marked in a bitmap of the search's rows
/// and visited row by row.
#[derive(Debug, Default)]
struct Claims {
    list: Vec<TemporalNode>,
    /// Once the list overflowed: bit `v % 64` of word `v / 64` of row
    /// `t - first`, each row `words` words.
    bits: Vec<u64>,
    count: usize,
    cap: usize,
    first: u32,
    rows: usize,
    words: usize,
}

impl Claims {
    /// Claims of a chunk of a wide level, listed in full until they join
    /// the level's own.
    fn chunk() -> Self {
        Claims {
            cap: usize::MAX,
            ..Claims::default()
        }
    }

    /// Lists up to `cap` claims a level; the bitmap covers `rows` rows of
    /// `num_nodes` slots from row `first`.
    fn shape(&mut self, cap: usize, first: u32, rows: usize, num_nodes: usize) {
        (self.cap, self.first, self.rows) = (cap, first, rows);
        self.words = num_nodes.div_ceil(64);
    }

    #[inline]
    fn push(&mut self, tn: TemporalNode) {
        if self.count < self.cap {
            self.list.push(tn);
        } else {
            if self.count == self.cap {
                self.overflow();
            }
            self.mark(tn);
        }
        self.count += 1;
    }

    /// Moves the full list into the bitmap.
    #[cold]
    #[inline(never)]
    fn overflow(&mut self) {
        self.bits.resize(self.rows * self.words, 0);
        for i in 0..self.list.len() {
            self.mark(self.list[i]);
        }
        self.list.clear();
    }

    fn mark(&mut self, tn: TemporalNode) {
        let (t, v) = ((tn.time.0 - self.first) as usize, tn.node.index());
        self.bits[t * self.words + v / 64] |= 1 << (v % 64);
    }

    /// Adds a wide level's chunk after these claims.
    fn append(&mut self, chunk: Claims) {
        chunk.list.into_iter().for_each(|tn| self.push(tn));
    }

    /// Whether the list holds every claim.
    fn listed(&self) -> bool {
        self.count <= self.cap
    }

    /// The rows the bitmap covers.
    fn times(&self) -> Range<u32> {
        self.first..self.first + self.rows as u32
    }

    /// Calls `f` on the marked nodes of row `t`, in node order.
    fn for_each_in_row(&self, t: u32, mut f: impl FnMut(TemporalNode)) {
        let words = &self.bits[(t - self.first) as usize * self.words..][..self.words];
        for (base, &word) in (0..).step_by(64).zip(words) {
            let mut ones = word;
            while ones != 0 {
                f(TemporalNode::new(
                    NodeId(base + ones.trailing_zeros()),
                    TimeIndex(t),
                ));
                ones &= ones - 1;
            }
        }
    }

    fn clear(&mut self) {
        if !self.listed() {
            self.bits.fill(0);
        }
        self.list.clear();
        self.count = 0;
    }
}

/// A kernel's working memory beside its slots: the causal cursors and the
/// two levels' claims. A caller settling rows in
/// turn hands it from one kernel to the next, so only the first allocates.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per node, the earliest time at which it has been expanded (`end`
    /// before any): every later active time has been offered a claim from
    /// that expansion or an earlier one. Relaxed suffices: the cursor
    /// publishes no other data. The slot of the node that set it was final
    /// before its level began, and the deliveries it stands for finish
    /// before the level's join.
    cursor: Vec<AtomicU32>,
    /// Per node, the time of the last expansion whose key the cursor's
    /// setter could not cover, so that it handed on its whole suffix
    /// (`end` before any): a shared frontier's second cursor.
    suffix: Vec<AtomicU32>,
    frontier: Claims,
    next: Claims,
}

impl Scratch {
    /// Scratch whose lists hold a level one row of `num_nodes` wide: the
    /// presize for a whole-graph search.
    fn rows(num_nodes: usize) -> Self {
        let mut scratch = Scratch::default();
        scratch.reserve(num_nodes);
        scratch
    }

    /// Room for levels `width` nodes wide in both lists.
    pub(crate) fn reserve(&mut self, width: usize) {
        self.frontier.list.reserve(width);
        self.next.list.reserve(width);
    }
}

/// The loop over one slot table. Temporal node `tn` owns
/// `slots[tn.flat_index(num_nodes) - base]`. One hop from `(v, t)` follows
/// `v`'s static out-edges at `t`, then its causal edges to the active times
/// in `(t, end)` that the causal cursor has not already handed on.
pub(crate) struct Kernel<'a, S, G> {
    slots: &'a [S],
    graph: &'a G,
    num_nodes: usize,
    base: usize,
    end: u32,
    scratch: Scratch,
}

impl<'a, S: Slot, G: EvolvingGraph> Kernel<'a, S, G> {
    /// A kernel over `slots` whose causal edges stop before snapshot `end`,
    /// working in `scratch`.
    pub(crate) fn new(
        slots: &'a [S],
        graph: &'a G,
        num_nodes: usize,
        base: usize,
        end: TimeIndex,
        mut scratch: Scratch,
    ) -> Self {
        for cursor in [&mut scratch.cursor, &mut scratch.suffix] {
            cursor.clear();
            cursor.resize_with(num_nodes, || AtomicU32::new(end.0));
        }
        Kernel {
            slots,
            graph,
            num_nodes,
            base,
            end: end.0,
            scratch,
        }
    }

    /// The working memory, for the next kernel.
    pub(crate) fn into_scratch(self) -> Scratch {
        self.scratch
    }

    /// Runs the level loop from `seeds`, leaving the list empty. Each level
    /// pushes or pulls by Beamer's rule unless `parents` (indexed like the
    /// slots) are recorded, which only the serial push writes. A level at
    /// least `threshold` wide runs across the pool unless it has one thread
    /// or parents are recorded; the rest run serially. Returns the slots
    /// claimed and the last level that claimed any.
    pub(crate) fn run(
        &mut self,
        seeds: &mut Vec<Seed<S::Key>>,
        parents: Option<&mut [u64]>,
        threshold: usize,
    ) -> (usize, u32) {
        let mut levels = [
            std::mem::take(&mut self.scratch.frontier),
            std::mem::take(&mut self.scratch.next),
        ];
        let settled = self.levels(seeds, parents, threshold, &mut levels);
        [self.scratch.frontier, self.scratch.next] = levels.map(|mut claims| {
            claims.clear();
            claims
        });
        settled
    }

    /// [`Kernel::run`] over the two levels' claims.
    fn levels(
        &self,
        seeds: &mut Vec<Seed<S::Key>>,
        mut parents: Option<&mut [u64]>,
        threshold: usize,
        [frontier, next]: &mut [Claims; 2],
    ) -> (usize, u32) {
        let pooled = parents.is_none() && rayon::current_num_threads() > 1;
        seeds.sort_by_key(|s| s.0);
        // Causal edges only go forward, so no slot before the earliest seed
        // is reached: a pull scans the rows `start..end`, and Beamer's rule
        // counts their slots.
        let Some(start) = seeds.iter().map(|s| s.1.time.0).min() else {
            return (0, 0);
        };
        let rows = self.flat(start)..self.flat(self.end);
        // Parents follow claim order, so a search recording them lists every
        // level; any other lists a row's worth or `1/β` of its slots, the
        // rest marked in a bitmap (see the module docs).
        let cap = match parents {
            Some(_) => usize::MAX,
            None => (rows.len() / BETA).max(self.num_nodes),
        };
        for claims in [&mut *frontier, &mut *next] {
            claims.shape(cap, start, (self.end - start) as usize, self.num_nodes);
        }
        let mut seeds = seeds.drain(..).peekable();
        let (mut reached, mut depth, mut pulling) = (0, 0, false);
        let mut level = seeds.peek().map_or(0, |s| s.0.level());
        loop {
            next.clear();
            while let Some((key, tn, parent)) = seeds.next_if(|s| s.0.level() == level) {
                self.claim(tn, key, parent, next, &mut parents);
            }
            let width = frontier.count;
            pulling = parents.is_none()
                && width > 0
                && match pulling {
                    true => width * BETA >= rows.len(),
                    false => width * ALPHA > rows.len().saturating_sub(reached),
                };
            let wide = pooled && width >= threshold;
            if wide {
                self.expand_wide(frontier, level, !pulling, next);
            } else {
                let statics = !pulling;
                if frontier.listed() {
                    for &tn in &frontier.list {
                        self.visit(tn, level, statics, next, &mut parents);
                    }
                } else {
                    for t in frontier.times() {
                        let (next, parents) = (&mut *next, &mut parents);
                        frontier.for_each_in_row(t, move |tn| {
                            self.visit(tn, level, statics, next, parents);
                        });
                    }
                }
            }
            if pulling {
                self.pull(rows.clone(), level, wide, next);
            }
            if next.count > 0 {
                (reached, depth) = (reached + next.count, level);
            }
            std::mem::swap(frontier, next);
            level = match (frontier.count == 0, seeds.peek()) {
                (false, _) => level + 1,
                (true, Some(&(key, _, _))) => key.level(),
                (true, None) => return (reached, depth),
            };
        }
    }

    /// The index of the first slot of row `t`.
    fn flat(&self, t: u32) -> usize {
        t as usize * self.num_nodes - self.base
    }

    fn slot(&self, tn: TemporalNode) -> &S {
        &self.slots[tn.flat_index(self.num_nodes) - self.base]
    }

    /// Serial expansion of the frontier node `tn`, handing on keys of
    /// `level`. Inlined into both of a level's loops, list and bitmap.
    #[inline(always)]
    fn visit(
        &self,
        tn: TemporalNode,
        level: u32,
        statics: bool,
        next: &mut Claims,
        parents: &mut Option<&mut [u64]>,
    ) {
        let from = tn.flat_index(self.num_nodes);
        let key = self.slots[from - self.base].load().hand_on(level);
        self.expand(tn, false, statics, move |nbr| {
            // The common case, a slot already as good, costs one plain
            // load; the claim itself is out of line.
            if key < self.slot(nbr).load() {
                self.claim(nbr, key, from as u64, next, parents);
            }
        });
    }

    /// Calls `f` on every node one hop from the frontier node `tn = (v, t)`
    /// that could still improve: `v`'s static out-edges at `t` unless
    /// `statics` is off (a pull level claims those from the other end),
    /// then `v`'s active times in `(t, upper)`, earliest first, and lowers
    /// `v`'s cursor to `t` (`wide`: with `fetch_min`).
    ///
    /// `upper` is the cursor `lo` when the node `(v, lo)` that set it holds a
    /// key no larger than `tn`'s: that expansion, or one before it, offered
    /// every active time past `lo` a claim no worse than `tn`'s, so the
    /// suffix would claim nothing and is skipped. Otherwise (a shared
    /// frontier whose setter came from a larger source index at the same
    /// level) `upper` is the second cursor under the same test, else `end`,
    /// and an expander handing on its whole suffix sets that cursor. Each
    /// node's deliveries are thus disjoint intervals, at most its active
    /// count in a single-source search, and skipped deliveries change no
    /// slot and so no parent.
    #[inline]
    fn expand(&self, tn: TemporalNode, wide: bool, statics: bool, mut f: impl FnMut(TemporalNode)) {
        let (v, t) = (tn.node, tn.time);
        if statics {
            for &w in self.graph.out_row(v, t) {
                f(TemporalNode::new(w, t));
            }
        }
        let cursor = &self.scratch.cursor[v.index()];
        let lo = if wide {
            cursor.fetch_min(t.0, Relaxed)
        } else {
            let lo = cursor.load(Relaxed);
            if t.0 < lo {
                cursor.store(t.0, Relaxed);
            }
            lo
        };
        let setter = TemporalNode::new(v, TimeIndex(lo));
        let upper = if lo == self.end {
            // The node's first expansion: the cursor it set covers it.
            self.end
        } else if self.slot(setter).load() <= self.slot(tn).load() {
            lo
        } else {
            self.second_cursor(tn)
        };
        if t.0 + 1 < upper {
            let later = self
                .graph
                .active_times_in(v, TimeIndex(t.0 + 1)..TimeIndex(upper));
            later.iter().for_each(|s| f(TemporalNode::new(v, s)));
        }
    }

    /// The upper end of `tn`'s causal delivery when its cursor's setter
    /// holds a larger key: the second cursor if that expansion's key is no
    /// larger than `tn`'s, else `end`, `tn` becoming the second cursor. Any
    /// expansion that handed on its whole suffix is a valid second cursor,
    /// so racing stores need no order.
    #[cold]
    #[inline(never)]
    fn second_cursor(&self, tn: TemporalNode) -> u32 {
        let suffix = &self.scratch.suffix[tn.node.index()];
        let whole = suffix.load(Relaxed);
        let setter = TemporalNode::new(tn.node, TimeIndex(whole));
        if whole < self.end && self.slot(setter).load() <= self.slot(tn).load() {
            whole
        } else {
            suffix.store(tn.time.0, Relaxed);
            self.end
        }
    }

    /// Serial claim: Relaxed loads and stores, which compile to plain moves.
    #[inline(never)]
    fn claim(
        &self,
        tn: TemporalNode,
        key: S::Key,
        parent: u64,
        next: &mut Claims,
        parents: &mut Option<&mut [u64]>,
    ) {
        let i = tn.flat_index(self.num_nodes) - self.base;
        let prev = self.slots[i].load();
        if key < prev {
            self.slots[i].store(key);
            if prev == S::Key::UNREACHED {
                next.push(tn);
                if let Some(parents) = parents {
                    parents[i] = parent;
                }
            }
        }
    }

    /// Wide expansion: `fetch_min` claims from every chunk of the frontier
    /// (of its list, or of its bitmap's rows) into private claims, appended
    /// in chunk order.
    fn expand_wide(&self, frontier: &Claims, level: u32, statics: bool, next: &mut Claims) {
        let step = |acc: &mut Claims, tn: TemporalNode| {
            let key = self.slot(tn).load().hand_on(level);
            self.expand(tn, true, statics, |nbr| {
                let slot = self.slot(nbr);
                // One claimant sees the slot unreached; rivals only lower
                // the key. The plain load skips updates that cannot help.
                if slot.load() > key && slot.fetch_min(key) == S::Key::UNREACHED {
                    acc.push(nbr);
                }
            });
        };
        let chunks: Vec<Claims> = match frontier.listed() {
            true => frontier
                .list
                .par_iter()
                .fold(Claims::chunk, |mut acc, &tn| {
                    step(&mut acc, tn);
                    acc
                })
                .collect(),
            false => frontier
                .times()
                .into_par_iter()
                .fold(Claims::chunk, |mut acc, t| {
                    frontier.for_each_in_row(t, |tn| step(&mut acc, tn));
                    acc
                })
                .collect(),
        };
        chunks.into_iter().for_each(|chunk| next.append(chunk));
    }

    /// The static half of a pull level, after the frontier's causal edges:
    /// every slot of `rows` still above the level's floor takes the best
    /// key its in-row hands on from level `level − 1`. A single-source slot
    /// stops at the first such entry; a shared-frontier slot stops only on
    /// the floor, so ties go to the smallest source index. Wide, the rows
    /// are chunked over the pool: each slot is written by its own chunk and
    /// read by others only to test for level `level − 1`, which no write of
    /// this level makes.
    fn pull(&self, rows: Range<usize>, level: u32, wide: bool, next: &mut Claims) {
        if !wide {
            rows.for_each(|i| self.pull_slot(i, level, next));
            return;
        }
        let chunks: Vec<Claims> = rows
            .into_par_iter()
            .fold(Claims::chunk, |mut acc, i| {
                self.pull_slot(i, level, &mut acc);
                acc
            })
            .collect();
        chunks.into_iter().for_each(|chunk| next.append(chunk));
    }

    /// Pulls slot `i` at `level`, pushing it to `next` if it was unreached.
    #[inline]
    fn pull_slot(&self, i: usize, level: u32, next: &mut Claims) {
        let (floor, prev) = (S::Key::floor(level), level - 1);
        let key = self.slots[i].load();
        if key <= floor {
            return;
        }
        let tn = TemporalNode::from_flat_index(i + self.base, self.num_nodes);
        let mut best = key;
        for &u in self.graph.in_row(tn.node, tn.time) {
            let from = self.slot(TemporalNode::new(u, tn.time)).load();
            if from.level() == prev {
                best = best.min(from.hand_on(level));
                if best == floor {
                    break;
                }
            }
        }
        if best < key {
            self.slots[i].store(best);
            if key == S::Key::UNREACHED {
                next.push(tn);
            }
        }
    }
}

/// One past `graph`'s last snapshot: a full search's causal bound.
fn graph_end<G: EvolvingGraph>(graph: &G) -> TimeIndex {
    TimeIndex::from_index(graph.num_timestamps())
}

/// Validates that `root` is inside the graph and active: Definition 4
/// makes every temporal path from an inactive node empty.
///
/// # Errors
/// [`GraphError::EmptyGraph`] for a graph without snapshots,
/// [`GraphError::NodeOutOfRange`] / [`GraphError::TimeOutOfRange`] for a
/// root outside the graph, and [`GraphError::InactiveRoot`] for an inactive
/// one.
pub fn check_root<G: EvolvingGraph>(graph: &G, root: TemporalNode) -> Result<()> {
    if graph.num_timestamps() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if root.node.index() >= graph.num_nodes() {
        return Err(GraphError::NodeOutOfRange {
            node: root.node,
            num_nodes: graph.num_nodes(),
        });
    }
    if root.time.index() >= graph.num_timestamps() {
        return Err(GraphError::TimeOutOfRange {
            time: root.time,
            num_timestamps: graph.num_timestamps(),
        });
    }
    if !graph.is_active(root.node, root.time) {
        return Err(GraphError::InactiveRoot { root });
    }
    Ok(())
}

/// Algorithm 1 from `root` over forward neighbours: the engine behind the
/// query builder's `Strategy::Serial` (`threshold` = `usize::MAX`, every
/// level serial) and `Strategy::Parallel`. Levels at least `threshold` wide
/// expand across the rayon pool (`0` sends every level there) unless
/// parents are recorded; the answer is the same at every threshold and
/// pool size. A backward search is this search on a
/// [`crate::reverse::ReversedView`].
///
/// # Errors
/// The root-validation errors of [`check_root`].
pub fn distances<G: EvolvingGraph>(
    graph: &G,
    root: TemporalNode,
    with_parents: bool,
    threshold: usize,
) -> Result<DistanceMap> {
    check_root(graph, root)?;
    let (n, t) = (graph.num_nodes(), graph.num_timestamps());
    let slots = table::<AtomicU32>(n * t);
    let mut parents = with_parents.then(|| vec![NO_PARENT; slots.len()]);
    let mut seeds = vec![(0, root, NO_PARENT)];
    let mut kernel = Kernel::new(&slots, graph, n, 0, graph_end(graph), Scratch::rows(n));
    let (reached, depth) = kernel.run(&mut seeds, parents.as_deref_mut(), threshold);
    // Causal edges only go forward, so nothing before the root is reached.
    let table = KeyTable {
        num_nodes: n,
        num_timestamps: t,
        keys: into_keys(slots),
        parents,
        reached_count: reached,
        max_distance: depth,
        rows: root.time.index()..t,
    };
    Ok(DistanceMap { table, root })
}

/// Forward shared-frontier BFS, source `i` seeded with key `i`: the engine
/// behind the query builder's `Strategy::SharedFrontier`. For every temporal
/// node it records the distance to the nearest source and which source that
/// is, ties to the smallest index; duplicate sources are allowed (the
/// earliest occurrence claims). One traversal costs `O(|E| + |V|)` however
/// many sources there are. Distances and attributions are the same at every
/// threshold and pool size.
///
/// # Errors
/// [`GraphError::NoSources`] for no sources, else the root-validation
/// errors of [`check_root`] for any invalid source.
pub fn nearest_sources<G: EvolvingGraph>(
    graph: &G,
    sources: &[TemporalNode],
    threshold: usize,
) -> Result<MultiSourceMap> {
    if sources.is_empty() {
        return Err(GraphError::NoSources);
    }
    for &s in sources {
        check_root(graph, s)?;
    }
    let (n, t) = (graph.num_nodes(), graph.num_timestamps());
    let slots = table::<AtomicU64>(n * t);
    let mut seeds = (0..)
        .zip(sources)
        .map(|(i, &s)| (i, s, NO_PARENT))
        .collect();
    let mut kernel = Kernel::new(&slots, graph, n, 0, graph_end(graph), Scratch::rows(n));
    let (reached, depth) = kernel.run(&mut seeds, None, threshold);
    // Causal edges only go forward, so nothing before the earliest source
    // is reached.
    let first = sources.iter().map(|s| s.time.index()).min().unwrap_or(0);
    let table = KeyTable {
        num_nodes: n,
        num_timestamps: t,
        keys: into_keys(slots),
        parents: None,
        reached_count: reached,
        max_distance: depth,
        rows: first..t,
    };
    Ok(MultiSourceMap {
        table,
        sources: sources.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjacency::AdjacencyListGraph;
    use crate::examples::paper_figure1;
    use crate::ids::{NodeId, TimeIndex};
    use crate::instrument::{CountingView, TraversalCounters};
    use crate::static_equiv::EquivalentStaticGraph;
    use rayon::ThreadPoolBuilder;

    fn dense_random_graph(seed: u64) -> AdjacencyListGraph {
        let n = 400usize;
        let n_t = 4usize;
        let mut g = AdjacencyListGraph::directed_with_unit_times(n, n_t);
        let mut state = seed;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..6000 {
            let u = (next() % n as u64) as u32;
            let v = (next() % n as u64) as u32;
            let t = (next() % n_t as u64) as u32;
            if u != v {
                g.add_edge(NodeId(u), NodeId(v), TimeIndex(t)).unwrap();
            }
        }
        g
    }

    /// Theorem 1's oracle: BFS on the equivalent static graph, laid out as
    /// a distance map.
    fn oracle(g: &AdjacencyListGraph, root: TemporalNode) -> DistanceMap {
        let reached = EquivalentStaticGraph::build(g)
            .bfs_distances_from(root)
            .unwrap();
        DistanceMap::from_reached(g.num_nodes(), g.num_timestamps(), root, &reached)
    }

    /// The serial and pooled shared-frontier engines against the
    /// per-source minimum of the static oracle, ties to the smallest source
    /// index.
    fn assert_shared_matches_oracle(g: &AdjacencyListGraph, sources: &[TemporalNode]) {
        let per_source: Vec<DistanceMap> = sources.iter().map(|&s| oracle(g, s)).collect();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let maps = [
            nearest_sources(g, sources, usize::MAX).unwrap(),
            pool.install(|| nearest_sources(g, sources, 1)).unwrap(),
        ];
        for tn in g.active_nodes() {
            let expected = per_source
                .iter()
                .enumerate()
                .filter_map(|(i, m)| m.distance(tn).map(|d| (d, i)))
                .min();
            for map in &maps {
                assert_eq!(map.distance(tn), expected.map(|(d, _)| d), "{tn:?}");
                assert_eq!(
                    map.nearest_source_index(tn),
                    expected.map(|(_, i)| i),
                    "attribution at {tn:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_paper_example() {
        let g = paper_figure1();
        for &root in &g.active_nodes() {
            let expected = oracle(&g, root);
            let pooled = distances(&g, root, false, 0).unwrap();
            assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice());
            let serial = distances(&g, root, false, usize::MAX).unwrap();
            assert_eq!(expected.as_flat_slice(), serial.as_flat_slice());
        }
    }

    #[test]
    fn invalid_roots_are_rejected_before_any_traversal() {
        let g = paper_figure1();
        let inactive = TemporalNode::from_raw(2, 0);
        let cases = [
            (inactive, GraphError::InactiveRoot { root: inactive }),
            (
                TemporalNode::from_raw(9, 0),
                GraphError::NodeOutOfRange {
                    node: NodeId(9),
                    num_nodes: 3,
                },
            ),
            (
                TemporalNode::from_raw(0, 9),
                GraphError::TimeOutOfRange {
                    time: TimeIndex(9),
                    num_timestamps: 3,
                },
            ),
        ];
        for (root, expected) in cases {
            for threshold in [0, usize::MAX] {
                let err = distances(&g, root, false, threshold).unwrap_err();
                assert_eq!(err, expected, "{root:?}");
                assert_eq!(err, nearest_sources(&g, &[root], threshold).unwrap_err());
            }
        }
        let empty = AdjacencyListGraph::directed(3, Vec::new()).unwrap();
        assert_eq!(
            check_root(&empty, TemporalNode::from_raw(0, 0)),
            Err(GraphError::EmptyGraph)
        );
    }

    #[test]
    fn parallel_matches_serial_on_a_dense_random_graph() {
        let g = dense_random_graph(0x2545F4914F6CDD1D);
        let root = g.active_nodes()[0];
        let expected = oracle(&g, root);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        // Narrower than the graph's widest levels (the default is not), so
        // some levels expand wide.
        let pooled = pool.install(|| distances(&g, root, false, 256)).unwrap();
        assert_eq!(expected.num_reached(), pooled.num_reached());
        assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice());
    }

    #[test]
    fn threshold_extremes_cannot_change_the_answer() {
        // 0 = every level wide (even single-node frontiers), MAX = every
        // level serial; both must equal the oracle, counters included.
        let g = dense_random_graph(0xD1CE);
        let root = g.active_nodes()[0];
        let expected = oracle(&g, root);
        for threads in [1, 2] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for threshold in [0, 1, 7, usize::MAX] {
                let pooled = pool
                    .install(|| distances(&g, root, false, threshold))
                    .unwrap();
                let case = format!("threshold {threshold}, {threads} threads");
                assert_eq!(expected.as_flat_slice(), pooled.as_flat_slice(), "{case}");
                assert_eq!(expected.num_reached(), pooled.num_reached(), "{case}");
                assert_eq!(expected.max_distance(), pooled.max_distance(), "{case}");
            }
        }
    }

    #[test]
    fn kernel_counters_match_the_oracle_histogram() {
        // `num_reached` and `max_distance` come from the kernel's own
        // counts, not a table scan: a double-counted or dropped claim
        // would show here.
        let g = dense_random_graph(0xBEEF);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        for &root in g.active_nodes().iter().step_by(101) {
            let expected = oracle(&g, root);
            for map in [
                distances(&g, root, false, usize::MAX).unwrap(),
                pool.install(|| distances(&g, root, false, 1)).unwrap(),
            ] {
                assert_eq!(expected.num_reached(), map.num_reached(), "{root:?}");
                assert_eq!(expected.distance_histogram(), map.distance_histogram());
            }
        }
    }

    #[test]
    fn shared_frontier_twins_agree_on_paper_example() {
        let g = paper_figure1();
        assert_shared_matches_oracle(&g, &g.active_nodes());
    }

    #[test]
    fn shared_frontier_twins_agree_on_a_dense_random_graph() {
        let g = dense_random_graph(0x9E3779B97F4A7C15);
        let sources: Vec<TemporalNode> = g.active_nodes().into_iter().step_by(97).collect();
        assert_shared_matches_oracle(&g, &sources);
    }

    #[test]
    fn duplicate_sources_are_seeded_once() {
        // A duplicated source claims its slot once, with the smallest
        // source index, and does not inflate num_reached.
        let g = paper_figure1();
        let s = g.active_nodes()[0];
        let pooled = nearest_sources(&g, &[s, s], 1).unwrap();
        assert_eq!(pooled.num_reached(), oracle(&g, s).num_reached());
        assert_eq!(pooled.nearest_source_index(s), Some(0));
        assert_shared_matches_oracle(&g, &[s, s]);
    }

    #[test]
    fn par_shared_frontier_rejects_bad_inputs() {
        let g = paper_figure1();
        assert!(matches!(
            nearest_sources(&g, &[], 1).unwrap_err(),
            GraphError::NoSources
        ));
        assert!(matches!(
            nearest_sources(&g, &[TemporalNode::from_raw(2, 0)], 1).unwrap_err(),
            GraphError::InactiveRoot { .. }
        ));
    }

    #[test]
    fn seeds_enter_at_their_own_levels_and_claim_each_slot_once() {
        // Seeds at levels 0 and 2 on the paper example: the level-2 seed on
        // an already-claimed slot is a no-op, a level-2 seed on a slot the
        // traversal reaches only later wins it at level 2 with its parent.
        // Threshold 0 on an 8-thread pool: recorded parents must still keep
        // every level on the serial expansion, the only one writing them.
        let g = paper_figure1();
        let slots = table::<AtomicU32>(g.num_nodes() * g.num_timestamps());
        let mut parents = vec![NO_PARENT; slots.len()];
        let root = TemporalNode::from_raw(0, 1);
        let claimed = TemporalNode::from_raw(2, 1);
        let mut seeds = vec![
            (2, claimed, 7),
            (0, root, NO_PARENT),
            (2, TemporalNode::from_raw(1, 2), 9),
        ];
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        pool.install(|| {
            Kernel::new(
                &slots,
                &g,
                g.num_nodes(),
                0,
                graph_end(&g),
                Scratch::default(),
            )
            .run(&mut seeds, Some(&mut parents), 0)
        });
        let dist = into_keys(slots);
        assert_eq!(dist[claimed.flat_index(3)], 1);
        assert_eq!(parents[claimed.flat_index(3)], root.flat_index(3) as u64);
        assert_eq!(dist[TemporalNode::from_raw(1, 2).flat_index(3)], 2);
        assert_eq!(parents[TemporalNode::from_raw(1, 2).flat_index(3)], 9);
        assert_eq!(dist.iter().filter(|&&d| d != u32::MAX).count(), 4);
    }

    /// The pull tests' graph: 400 nodes over 4 snapshots with ~3.75
    /// out-edges per temporal node, so the middle levels of a search from
    /// one root hold far more than half the slots still unvisited.
    fn pulling_graph() -> AdjacencyListGraph {
        dense_random_graph(0x5EED_9011)
    }

    /// The counters of `search` run once on a counted view of `g`.
    fn counted<T>(
        g: &AdjacencyListGraph,
        search: impl FnOnce(&CountingView<'_, AdjacencyListGraph>) -> T,
    ) -> (T, TraversalCounters) {
        let view = CountingView::new(g);
        let out = search(&view);
        (out, view.counters())
    }

    #[test]
    fn a_search_that_pulls_matches_the_oracle_at_every_threshold_and_pool() {
        let g = pulling_graph();
        for &root in g.active_nodes().iter().step_by(157) {
            let expected = oracle(&g, root);
            let (_, counters) = counted(&g, |v| distances(v, root, false, usize::MAX));
            // Only a pull level opens in-rows: the search really pulled.
            assert!(counters.static_in_calls > 0, "{root:?} never pulled");
            for threads in [1, 2] {
                let pool = ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for threshold in [0, 1, usize::MAX] {
                    let map = pool
                        .install(|| distances(&g, root, false, threshold))
                        .unwrap();
                    let case = format!("{root:?}, threshold {threshold}, {threads} threads");
                    assert_eq!(expected.as_flat_slice(), map.as_flat_slice(), "{case}");
                    assert_eq!(expected.num_reached(), map.num_reached(), "{case}");
                    assert_eq!(expected.max_distance(), map.max_distance(), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_pulling_search_reads_fewer_rows_than_it_would_push() {
        // Pull levels open each unreached slot's in-row and stop at the
        // first parent; a push level would walk every frontier out-row.
        let g = pulling_graph();
        let root = g.active_nodes()[0];
        let (_, counters) = counted(&g, |v| distances(v, root, false, usize::MAX));
        let static_edges = g.num_static_edges() as u64;
        let static_delivered = counters.neighbors_delivered - counters.active_times_delivered;
        assert!(counters.static_in_calls > 0);
        assert!(
            static_delivered < static_edges,
            "{static_delivered} static entries read for {static_edges} static edges"
        );
    }

    #[test]
    fn shared_frontier_pull_levels_keep_smallest_index_ties() {
        // Many sources at the first snapshot, listed against node order and
        // with duplicates, so equal distances from different sources meet on
        // the pull levels; every attribution must be the smallest index.
        let g = pulling_graph();
        let firsts: Vec<TemporalNode> = g.active_at(TimeIndex(0)).into_iter().step_by(23).collect();
        let mut sources: Vec<TemporalNode> = firsts.iter().rev().copied().collect();
        sources.extend(firsts.iter().step_by(2));
        let (_, counters) = counted(&g, |v| nearest_sources(v, &sources, usize::MAX));
        assert!(
            counters.static_in_calls > 0,
            "the shared frontier never pulled"
        );
        assert_shared_matches_oracle(&g, &sources);
        let expected = nearest_sources(&g, &sources, usize::MAX).unwrap();
        for threads in [1, 2] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for threshold in [0, 1] {
                let map = pool
                    .install(|| nearest_sources(&g, &sources, threshold))
                    .unwrap();
                for tn in g.active_nodes() {
                    assert_eq!(map.distance(tn), expected.distance(tn), "{tn:?}");
                    assert_eq!(
                        map.nearest_source_index(tn),
                        expected.nearest_source_index(tn),
                        "attribution at {tn:?}, threshold {threshold}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn searches_with_parents_never_pull_and_keep_valid_paths() {
        // Only the serial push writes parents, so a search recording them
        // opens no in-row where the same search without them pulls; its
        // distances are the oracle's and every path steps along a forward
        // neighbour one level at a time.
        let g = pulling_graph();
        let root = g.active_nodes()[0];
        let (plain, pulled) = counted(&g, |v| distances(v, root, false, usize::MAX));
        let (traced, pushed) = counted(&g, |v| distances(v, root, true, 0));
        assert!(pulled.static_in_calls > 0);
        assert_eq!(pushed.static_in_calls, 0, "a search with parents pulled");
        let (plain, traced) = (plain.unwrap(), traced.unwrap());
        assert_eq!(plain.as_flat_slice(), traced.as_flat_slice());
        assert_eq!(oracle(&g, root).as_flat_slice(), traced.as_flat_slice());
        for (tn, d) in traced.reached() {
            let path = traced.path_to(tn).expect("every reached node has a path");
            assert_eq!(path.len() as u32, d + 1, "{tn:?}");
            assert_eq!(path[0], root);
            for hop in path.windows(2) {
                assert!(g.forward_neighbors(hop[0]).contains(&hop[1]), "{hop:?}");
            }
        }
    }

    #[test]
    fn levels_wider_than_their_list_are_marked_and_match_the_oracle() {
        // 400 nodes × 4 snapshots list at most a row, 400 claims, a level;
        // the widest level holds more, so it moves into the bitmap, and
        // neither list outgrows its one-row presize.
        let g = pulling_graph();
        let (n, t) = (g.num_nodes(), g.num_timestamps());
        let sources: Vec<TemporalNode> = g.active_nodes().into_iter().step_by(131).collect();
        let slots = table::<AtomicU64>(n * t);
        let mut seeds = (0..)
            .zip(&sources)
            .map(|(i, &s)| (i, s, NO_PARENT))
            .collect();
        let mut kernel = Kernel::new(&slots, &g, n, 0, graph_end(&g), Scratch::rows(n));
        kernel.run(&mut seeds, None, usize::MAX);
        let scratch = kernel.into_scratch();
        let capacity = scratch
            .frontier
            .list
            .capacity()
            .max(scratch.next.list.capacity());
        assert!(capacity <= n, "a list grew to {capacity}");
        let mut widths = std::collections::HashMap::new();
        for key in into_keys(slots)
            .into_iter()
            .filter(|&k| k != u64::UNREACHED)
        {
            *widths.entry(key.level()).or_insert(0) += 1;
        }
        let widest = widths.into_values().max().unwrap();
        assert!(widest > n, "no level outgrew a row (widest {widest})");
        assert_shared_matches_oracle(&g, &sources);
    }
}
