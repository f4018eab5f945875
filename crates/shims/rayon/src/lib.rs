//! Offline stand-in for the `rayon` crate — with a **real** executor.
//!
//! The build environment has no access to crates.io, so this crate mirrors
//! the subset of rayon's parallel-iterator API the workspace uses —
//! `par_iter()` / `par_iter_mut()` / `into_par_iter()` with `map`, `filter`,
//! `filter_map`, `fold`, `reduce`, `for_each`, `sum`, `count` and `collect` —
//! and, since PR 5, executes it on a lazily-initialized global pool of
//! `std::thread` workers (the `pool` module): the input index range is split
//! into cache-friendly chunks, chunks are claimed dynamically by the pool's
//! threads (the caller included), and per-chunk outputs are recombined **in
//! input order**, so every combinator is deterministic and order-preserving
//! exactly like real rayon's indexed iterators.
//!
//! Thread count comes from `RAYON_NUM_THREADS` (or the machine's available
//! parallelism); [`ThreadPoolBuilder`] + [`ThreadPool::install`] scope an
//! explicit count, which the workspace's determinism suites use to pin
//! results across 1, 2 and 8 threads. Panics inside parallel closures
//! propagate to the caller and leave the pool serviceable. With one thread,
//! every operation runs inline on the caller — bit-for-bit the behavior of
//! the old sequential stand-in.
//!
//! All algorithms in this workspace are written so their results are
//! identical regardless of execution interleaving (discoveries within a BFS
//! level go through atomic first-writer-wins claims, per-root searches are
//! independent, matrix rows are independent reductions), which the
//! differential suites check under several pool sizes. Swapping the real
//! rayon back in remains a one-line change in each `Cargo.toml`.

#![deny(unsafe_code)] // one audited exception in pool.rs (lifetime erasure)
#![warn(missing_docs)]

mod pool;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

use std::sync::Arc;

/// How many chunks each scheduling thread gets on average. Oversplitting
/// lets the dynamic chunk claim smooth out uneven per-item cost without the
/// per-item overhead of task-per-element.
const CHUNKS_PER_THREAD: usize = 4;

/// A source of items that can be split by index range and drained
/// sequentially — the shim's analogue of rayon's `Producer`. Implementations
/// are provided for slices, vectors, ranges and the lazy combinator
/// adaptors; user code never implements this.
pub trait Producer: Send + Sized {
    /// The element type this producer yields.
    type Item: Send;

    /// Number of *base* items (pre-`filter`); used for chunk sizing.
    fn len(&self) -> usize;

    /// Whether the producer holds no base items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits into the first `index` base items and the rest.
    fn split_at(self, index: usize) -> (Self, Self);

    /// Feeds every item, in order, to `sink`.
    fn drive(self, sink: &mut dyn FnMut(Self::Item));
}

/// A parallel iterator: a splittable pipeline executed across the ambient
/// thread pool by the terminal methods (`reduce`, `for_each`, `sum`,
/// `collect`, `count`).
pub struct ParIter<P: Producer> {
    producer: P,
}

// ---------------------------------------------------------------------------
// Base producers
// ---------------------------------------------------------------------------

/// Borrowing producer over a slice (`par_iter`).
pub struct SliceProducer<'data, T: Sync> {
    slice: &'data [T],
}

impl<'data, T: Sync> Producer for SliceProducer<'data, T> {
    type Item = &'data T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at(index);
        (SliceProducer { slice: head }, SliceProducer { slice: tail })
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        for item in self.slice {
            sink(item);
        }
    }
}

/// Mutably borrowing producer over a slice (`par_iter_mut`).
pub struct SliceMutProducer<'data, T: Send> {
    slice: &'data mut [T],
}

impl<'data, T: Send> Producer for SliceMutProducer<'data, T> {
    type Item = &'data mut T;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.slice.split_at_mut(index);
        (
            SliceMutProducer { slice: head },
            SliceMutProducer { slice: tail },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        for item in self.slice {
            sink(item);
        }
    }
}

/// Owning producer over a vector (`Vec::into_par_iter`). Splitting moves the
/// tail into a new vector, so chunks can migrate to workers without copies
/// of the elements themselves.
pub struct VecProducer<T: Send> {
    items: Vec<T>,
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    fn len(&self) -> usize {
        self.items.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.items.split_off(index);
        (self, VecProducer { items: tail })
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        for item in self.items {
            sink(item);
        }
    }
}

/// Sealed helper giving [`RangeProducer`] a single generic implementation
/// over the index types the workspace iterates (`usize`, `u32`).
pub trait RangeIndex: Copy + Send + 'static {
    #[doc(hidden)]
    fn steps_between(start: Self, end: Self) -> usize;
    #[doc(hidden)]
    fn advance(self, by: usize) -> Self;
    #[doc(hidden)]
    fn successor(self) -> Self;
}

impl RangeIndex for usize {
    fn steps_between(start: Self, end: Self) -> usize {
        end.saturating_sub(start)
    }
    fn advance(self, by: usize) -> Self {
        self + by
    }
    fn successor(self) -> Self {
        self + 1
    }
}

impl RangeIndex for u32 {
    fn steps_between(start: Self, end: Self) -> usize {
        end.saturating_sub(start) as usize
    }
    fn advance(self, by: usize) -> Self {
        self + by as u32
    }
    fn successor(self) -> Self {
        self + 1
    }
}

/// Producer over an integer range (`(a..b).into_par_iter()`).
pub struct RangeProducer<T: RangeIndex> {
    start: T,
    end: T,
}

impl<T: RangeIndex> Producer for RangeProducer<T> {
    type Item = T;
    fn len(&self) -> usize {
        T::steps_between(self.start, self.end)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.start.advance(index);
        (
            RangeProducer {
                start: self.start,
                end: mid,
            },
            RangeProducer {
                start: mid,
                end: self.end,
            },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        let mut current = self.start;
        for _ in 0..T::steps_between(self.start, self.end) {
            sink(current);
            current = current.successor();
        }
    }
}

// ---------------------------------------------------------------------------
// Combinator producers
// ---------------------------------------------------------------------------

/// Lazy `map` adaptor. The closure is shared across chunks behind an `Arc`
/// (rayon shares it by reference; the `Arc` costs one allocation per
/// combinator per call and keeps this crate free of scoped borrows).
pub struct MapProducer<P, F> {
    base: P,
    map: Arc<F>,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Send + Sync,
    R: Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            MapProducer {
                base: head,
                map: Arc::clone(&self.map),
            },
            MapProducer {
                base: tail,
                map: self.map,
            },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        let map = &*self.map;
        self.base.drive(&mut |item| sink(map(item)));
    }
}

/// Lazy `filter` adaptor.
pub struct FilterProducer<P, F> {
    base: P,
    keep: Arc<F>,
}

impl<P, F> Producer for FilterProducer<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            FilterProducer {
                base: head,
                keep: Arc::clone(&self.keep),
            },
            FilterProducer {
                base: tail,
                keep: self.keep,
            },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        let keep = &*self.keep;
        self.base.drive(&mut |item| {
            if keep(&item) {
                sink(item);
            }
        });
    }
}

/// Lazy `filter_map` adaptor.
pub struct FilterMapProducer<P, F> {
    base: P,
    map: Arc<F>,
}

impl<P, F, R> Producer for FilterMapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> Option<R> + Send + Sync,
    R: Send,
{
    type Item = R;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            FilterMapProducer {
                base: head,
                map: Arc::clone(&self.map),
            },
            FilterMapProducer {
                base: tail,
                map: self.map,
            },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        let map = &*self.map;
        self.base.drive(&mut |item| {
            if let Some(mapped) = map(item) {
                sink(mapped);
            }
        });
    }
}

/// Lazy split-wise `fold` adaptor: every *chunk* the executor drives yields
/// exactly one accumulator (rayon: one accumulator per split), so
/// `fold(...).collect::<Vec<_>>()` is the per-worker-buffer pattern and
/// `fold(...).reduce(...)` splices the buffers once.
pub struct FoldProducer<P, ID, F> {
    base: P,
    identity: Arc<ID>,
    fold_op: Arc<F>,
}

impl<P, T, ID, F> Producer for FoldProducer<P, ID, F>
where
    P: Producer,
    T: Send,
    ID: Fn() -> T + Send + Sync,
    F: Fn(T, P::Item) -> T + Send + Sync,
{
    type Item = T;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (head, tail) = self.base.split_at(index);
        (
            FoldProducer {
                base: head,
                identity: Arc::clone(&self.identity),
                fold_op: Arc::clone(&self.fold_op),
            },
            FoldProducer {
                base: tail,
                identity: self.identity,
                fold_op: self.fold_op,
            },
        )
    }
    fn drive(self, sink: &mut dyn FnMut(Self::Item)) {
        let fold_op = &*self.fold_op;
        let mut accumulator = Some((self.identity)());
        self.base.drive(&mut |item| {
            let acc = accumulator.take().expect("fold accumulator present");
            accumulator = Some(fold_op(acc, item));
        });
        sink(accumulator.take().expect("fold accumulator present"));
    }
}

// ---------------------------------------------------------------------------
// The combinator + terminal surface
// ---------------------------------------------------------------------------

impl<P: Producer> ParIter<P> {
    /// Applies `f` to every element (rayon: `ParallelIterator::map`).
    pub fn map<F, R>(self, f: F) -> ParIter<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> R + Send + Sync,
        R: Send,
    {
        ParIter {
            producer: MapProducer {
                base: self.producer,
                map: Arc::new(f),
            },
        }
    }

    /// Keeps elements satisfying `f` (rayon: `ParallelIterator::filter`).
    pub fn filter<F>(self, f: F) -> ParIter<FilterProducer<P, F>>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        ParIter {
            producer: FilterProducer {
                base: self.producer,
                keep: Arc::new(f),
            },
        }
    }

    /// Filter-and-map in one pass (rayon: `ParallelIterator::filter_map`).
    pub fn filter_map<F, R>(self, f: F) -> ParIter<FilterMapProducer<P, F>>
    where
        F: Fn(P::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        ParIter {
            producer: FilterMapProducer {
                base: self.producer,
                map: Arc::new(f),
            },
        }
    }

    /// Rayon's split-wise fold: one accumulator per chunk the executor
    /// creates (so downstream `collect` sees the per-worker buffers, and
    /// downstream `reduce` splices them once).
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> ParIter<FoldProducer<P, ID, F>>
    where
        T: Send,
        ID: Fn() -> T + Send + Sync,
        F: Fn(T, P::Item) -> T + Send + Sync,
    {
        ParIter {
            producer: FoldProducer {
                base: self.producer,
                identity: Arc::new(identity),
                fold_op: Arc::new(fold_op),
            },
        }
    }

    /// Reduces all elements with `op`, starting from `identity()` (rayon:
    /// `ParallelIterator::reduce`). Per-chunk partials are combined in input
    /// order, so reductions are deterministic even when `op` is not
    /// commutative.
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        F: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        let partials = self.execute(|producer| {
            let mut accumulator: Option<P::Item> = None;
            producer.drive(&mut |item| {
                accumulator = Some(match accumulator.take() {
                    Some(acc) => op(acc, item),
                    None => item,
                });
            });
            accumulator
        });
        partials
            .into_iter()
            .flatten()
            .reduce(&op)
            .unwrap_or_else(identity)
    }

    /// Runs `f` on every element (rayon: `ParallelIterator::for_each`).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        self.execute(|producer| producer.drive(&mut |item| f(item)));
    }

    /// Sums the elements (rayon: `ParallelIterator::sum`).
    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        self.execute(|producer| {
            let mut chunk = Vec::new();
            producer.drive(&mut |item| chunk.push(item));
            chunk.into_iter().sum::<S>()
        })
        .into_iter()
        .sum()
    }

    /// Collects into any `FromIterator` container, preserving input order
    /// (rayon: `ParallelIterator::collect`, including the
    /// `FromParallelIterator` impls for `Vec<T>` and `Vec<Result<T, E>>`).
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<P::Item>,
    {
        self.execute(|producer| {
            let mut chunk = Vec::new();
            producer.drive(&mut |item| chunk.push(item));
            chunk
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Returns the number of elements (rayon: `ParallelIterator::count`).
    pub fn count(self) -> usize {
        self.execute(|producer| {
            let mut count = 0usize;
            producer.drive(&mut |_| count += 1);
            count
        })
        .into_iter()
        .sum()
    }

    /// The execution core every terminal method funnels through: split the
    /// producer into contiguous chunks, run `per_chunk` on each across the
    /// ambient pool, and return the per-chunk outputs **in input order**.
    /// One chunk (or a 1-thread pool) bypasses the pool entirely.
    fn execute<R, F>(self, per_chunk: F) -> Vec<R>
    where
        R: Send,
        F: Fn(P) -> R + Sync,
    {
        let handle = pool::current_handle();
        let len = self.producer.len();
        let threads = handle.num_threads();
        if threads <= 1 || len <= 1 {
            return vec![per_chunk(self.producer)];
        }

        let target_chunks = (threads * CHUNKS_PER_THREAD).min(len).max(1);
        let chunk_size = len.div_ceil(target_chunks);
        // Peel fixed-size chunks off the TAIL, then reverse into input
        // order: for owned producers (`VecProducer`, whose `split_at` is
        // `Vec::split_off`) each element is moved exactly once — peeling
        // from the front would re-move the whole remaining tail per chunk,
        // O(len × chunks) instead of O(len).
        let mut chunks_rev: Vec<P> = Vec::with_capacity(target_chunks);
        let mut rest = self.producer;
        while rest.len() > chunk_size {
            let split_point = rest.len() - chunk_size;
            let (head, tail) = rest.split_at(split_point);
            chunks_rev.push(tail);
            rest = head;
        }
        chunks_rev.push(rest);
        let parts: Vec<std::sync::Mutex<Option<P>>> = chunks_rev
            .into_iter()
            .rev()
            .map(|chunk| std::sync::Mutex::new(Some(chunk)))
            .collect();

        let slots: Vec<std::sync::Mutex<Option<R>>> = (0..parts.len())
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        pool::run_chunks(&handle, parts.len(), &|index| {
            let producer = pool::lock(&parts[index])
                .take()
                .expect("each chunk is claimed exactly once");
            let output = per_chunk(producer);
            *pool::lock(&slots[index]) = Some(output);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("run_chunks completed every chunk")
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Conversion of owned collections into a parallel iterator.
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Producer backing the iterator.
    type Producer: Producer<Item = Self::Item>;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecProducer<T>;
    fn into_par_iter(self) -> ParIter<Self::Producer> {
        ParIter {
            producer: VecProducer { items: self },
        }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Producer = RangeProducer<usize>;
    fn into_par_iter(self) -> ParIter<Self::Producer> {
        ParIter {
            producer: RangeProducer {
                start: self.start,
                end: self.end.max(self.start),
            },
        }
    }
}

impl IntoParallelIterator for std::ops::Range<u32> {
    type Item = u32;
    type Producer = RangeProducer<u32>;
    fn into_par_iter(self) -> ParIter<Self::Producer> {
        ParIter {
            producer: RangeProducer {
                start: self.start,
                end: self.end.max(self.start),
            },
        }
    }
}

/// Borrowing conversion (`par_iter`) for slice-like collections.
pub trait IntoParallelRefIterator<'data> {
    /// Borrowed element type.
    type Item: Send + 'data;
    /// Producer backing the iterator.
    type Producer: Producer<Item = Self::Item>;
    /// Returns a parallel iterator over borrowed elements.
    fn par_iter(&'data self) -> ParIter<Self::Producer>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    type Producer = SliceProducer<'data, T>;
    fn par_iter(&'data self) -> ParIter<Self::Producer> {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    type Producer = SliceProducer<'data, T>;
    fn par_iter(&'data self) -> ParIter<Self::Producer> {
        ParIter {
            producer: SliceProducer { slice: self },
        }
    }
}

/// Mutably borrowing conversion (`par_iter_mut`) for slice-like collections.
pub trait IntoParallelRefMutIterator<'data> {
    /// Mutably borrowed element type.
    type Item: Send + 'data;
    /// Producer backing the iterator.
    type Producer: Producer<Item = Self::Item>;
    /// Returns a parallel iterator over mutably borrowed elements.
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Producer>;
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for [T] {
    type Item = &'data mut T;
    type Producer = SliceMutProducer<'data, T>;
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Producer> {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

impl<'data, T: Send + 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
    type Item = &'data mut T;
    type Producer = SliceMutProducer<'data, T>;
    fn par_iter_mut(&'data mut self) -> ParIter<Self::Producer> {
        ParIter {
            producer: SliceMutProducer { slice: self },
        }
    }
}

/// The usual glob import, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_collect_matches_serial() {
        let v = vec![1, 2, 3, 4];
        let doubled: Vec<i32> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6, 8]);
    }

    #[test]
    fn fold_then_reduce() {
        let v: Vec<usize> = (0..100).collect();
        let sum = v
            .par_iter()
            .fold(Vec::new, |mut acc, &x| {
                acc.push(x);
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(sum.len(), 100);
        assert_eq!(sum.iter().sum::<usize>(), 4950);
        // Chunk recombination is order-preserving, so the spliced buffers
        // reproduce the input order exactly.
        assert_eq!(sum, (0..100).collect::<Vec<usize>>());
    }

    #[test]
    fn reduce_with_identity() {
        let v = vec![3usize, 5, 7];
        assert_eq!(v.par_iter().map(|&x| x).reduce(|| 0, |a, b| a + b), 15);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(empty.par_iter().map(|&x| x).reduce(|| 9, |a, b| a + b), 9);
    }

    #[test]
    fn range_into_par_iter() {
        let squares: Vec<usize> = (0usize..5).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn collect_results() {
        let v = vec![1i32, -2, 3];
        let res: Vec<Result<i32, String>> = v
            .par_iter()
            .map(|&x| if x > 0 { Ok(x) } else { Err("neg".to_string()) })
            .collect();
        assert!(res[0].is_ok() && res[1].is_err() && res[2].is_ok());
    }

    #[test]
    fn collect_preserves_input_order_on_large_inputs() {
        // Large enough to split into many chunks on any pool size.
        let expected: Vec<usize> = (0..10_000).map(|x| x * 3).collect();
        let pool = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let got: Vec<usize> =
            pool.install(|| (0usize..10_000).into_par_iter().map(|x| x * 3).collect());
        assert_eq!(got, expected);
    }

    #[test]
    fn results_are_identical_across_pool_sizes() {
        let input: Vec<u64> = (0..5_000).collect();
        let run = || -> (u64, usize, Vec<u64>) {
            let sum: u64 = input.par_iter().map(|&x| x * x).sum();
            let count = input.par_iter().filter(|&&x| x % 3 == 0).count();
            let evens: Vec<u64> = input
                .par_iter()
                .filter_map(|&x| (x % 2 == 0).then_some(x))
                .collect();
            (sum, count, evens)
        };
        let baseline = ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(run);
        for threads in [2, 3, 8] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(run), baseline, "{threads} threads");
        }
    }

    #[test]
    fn empty_inputs_are_fine_on_every_terminal() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(empty.par_iter().map(|&x| x).collect::<Vec<u32>>(), vec![]);
        assert_eq!(empty.par_iter().map(|&x| x).sum::<u32>(), 0);
        assert_eq!(empty.par_iter().count(), 0);
        empty
            .par_iter()
            .for_each(|_| panic!("no elements to visit"));
        #[allow(clippy::reversed_empty_ranges)]
        let backwards: Vec<u32> = (5u32..3).into_par_iter().collect();
        assert!(backwards.is_empty());
    }

    #[test]
    fn for_each_visits_every_element_exactly_once() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let hits: Vec<AtomicUsize> = (0..2_000).map(|_| AtomicUsize::new(0)).collect();
        pool.install(|| {
            (0usize..2_000).into_par_iter().for_each(|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut v: Vec<usize> = (0..1_000).collect();
        pool.install(|| v.par_iter_mut().for_each(|x| *x *= 2));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let strings: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let lengths: Vec<usize> =
            pool.install(|| strings.into_par_iter().map(|s| s.len()).collect());
        assert_eq!(lengths.len(), 100);
        assert_eq!(lengths[10], 2);
    }

    #[test]
    fn panics_propagate_and_leave_the_pool_serviceable() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0usize..1_000).into_par_iter().for_each(|i| {
                    if i == 777 {
                        panic!("boom at {i}");
                    }
                })
            })
        }));
        let payload = result.expect_err("the chunk panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("boom at 777"), "payload: {message:?}");
        // The pool keeps working after delivering the panic.
        let sum: usize = pool.install(|| (0usize..100).into_par_iter().sum());
        assert_eq!(sum, 4950);
    }

    #[test]
    fn nested_par_iter_does_not_deadlock() {
        // Every outer chunk issues an inner parallel operation on the same
        // pool; caller participation guarantees progress even when all
        // workers are parked inside outer chunks.
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let totals: Vec<usize> = pool.install(|| {
            (0usize..16)
                .into_par_iter()
                .map(|i| (0usize..200).into_par_iter().map(|j| i + j).sum())
                .collect()
        });
        let expected: Vec<usize> = (0..16).map(|i| (0..200).map(|j| i + j).sum()).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn install_scopes_the_ambient_pool_and_restores_it() {
        let two = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let eight = ThreadPoolBuilder::new().num_threads(8).build().unwrap();
        let ambient = current_num_threads();
        two.install(|| {
            assert_eq!(current_num_threads(), 2);
            eight.install(|| assert_eq!(current_num_threads(), 8));
            assert_eq!(current_num_threads(), 2);
        });
        assert_eq!(current_num_threads(), ambient);
        assert_eq!(two.current_num_threads(), 2);
    }

    #[test]
    fn zero_thread_request_falls_back_to_the_default() {
        let pool = ThreadPoolBuilder::new().num_threads(0).build().unwrap();
        assert!(pool.current_num_threads() >= 1);
    }

    #[test]
    fn reduce_is_deterministic_for_noncommutative_ops() {
        // String concatenation is order-sensitive: identical output across
        // pool sizes proves chunk partials are combined in input order.
        let words: Vec<String> = (0..500).map(|i| format!("w{i};")).collect();
        let concat = |pool: &ThreadPool| -> String {
            pool.install(|| {
                words
                    .par_iter()
                    .map(|w| w.clone())
                    .reduce(String::new, |a, b| a + &b)
            })
        };
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let four = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(concat(&one), concat(&four));
    }
}
