//! The executor behind the parallel iterators: a lazily-initialized global
//! pool of `std::thread` workers plus optional scoped pools
//! ([`ThreadPoolBuilder`]), with a chunked self-scheduling work queue.
//!
//! ## Execution model
//!
//! A bulk parallel operation is split into `chunks` index ranges. The chunks
//! are *self-scheduled*: every participating thread claims the next unclaimed
//! chunk index with one `fetch_add` until the supply is exhausted, which
//! load-balances uneven chunks exactly like a work-stealing deque would for
//! this fan-out shape, without per-worker deques. The **calling thread always
//! participates** — it claims chunks like any worker and only then blocks on
//! the completion latch — so a parallel operation issued from *inside* a pool
//! worker (nested `par_iter`) can never deadlock: the nested caller drains
//! its own chunks even if every other worker is busy.
//!
//! ## Pools
//!
//! * The **global pool** is created lazily on first use with
//!   `RAYON_NUM_THREADS` (if set to a positive integer) or
//!   [`std::thread::available_parallelism`] threads. A pool of `n` threads
//!   spawns `n - 1` workers; the caller is the `n`-th.
//! * [`ThreadPoolBuilder::build`] creates an independent pool;
//!   [`ThreadPool::install`] runs a closure with that pool as the ambient
//!   executor for every `par_*` call it makes (thread-locally, so concurrent
//!   installs do not interfere). Workers are joined on drop.
//!
//! ## Panic propagation
//!
//! A panicking chunk marks the operation aborted (remaining chunks are
//! skipped), the first panic payload is stored, and the latch still counts
//! every chunk so the caller never hangs; the payload is re-raised on the
//! calling thread via [`std::panic::resume_unwind`]. Workers survive payload
//! delivery and keep serving later operations.
//!
//! ## Why the one `unsafe` block is sound
//!
//! Worker jobs must be `'static`, but parallel operations borrow the caller's
//! stack (producers, result slots, user closures). [`run_chunks`] erases the
//! chunk closure's lifetime and hands workers an `Arc`'d task referencing it.
//! Soundness rests on a latch invariant, documented at the `unsafe` site:
//! the closure is only ever invoked for chunk indices `< chunks`, and
//! `run_chunks` does not return (or unwind) before all `chunks` completions
//! are counted — so no thread can touch the borrow after it expires. Jobs
//! that start late find no chunk left and return without touching the
//! closure.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// A unit of queued work: claim chunks from one [`ActiveTask`] until dry.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolState {
    queue: Mutex<Queue>,
    work_available: Condvar,
}

/// A cheap handle to a pool: the shared queue plus the pool's thread budget.
#[derive(Clone)]
pub(crate) struct PoolHandle {
    state: Arc<PoolState>,
    num_threads: usize,
}

impl PoolHandle {
    /// Total threads this pool schedules across, caller included.
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }
}

/// Mutex lock that shrugs off poisoning: every mutex in this crate (queue,
/// latch, chunk and result slots) protects state mutated by single
/// push/pop/take/increment operations, so a panicking thread can never
/// leave it inconsistent.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn new_state() -> Arc<PoolState> {
    Arc::new(PoolState {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            shutdown: false,
        }),
        work_available: Condvar::new(),
    })
}

fn spawn_workers(handle: &PoolHandle, count: usize) -> Vec<JoinHandle<()>> {
    (0..count)
        .map(|i| {
            let worker = handle.clone();
            std::thread::Builder::new()
                .name(format!("egraph-rayon-{i}"))
                .spawn(move || worker_loop(worker))
                .expect("spawn pool worker thread")
        })
        .collect()
}

fn worker_loop(handle: PoolHandle) {
    // Nested `par_*` calls issued from inside a job schedule onto this
    // worker's own pool.
    CURRENT_POOL.with(|current| *current.borrow_mut() = Some(handle.clone()));
    loop {
        let job = {
            let mut queue = lock(&handle.state.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = handle
                    .state
                    .work_available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            // Jobs contain their own panic handling; this catch is a
            // backstop so a worker can never die and silently shrink the
            // pool.
            Some(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            None => return,
        }
    }
}

thread_local! {
    static CURRENT_POOL: std::cell::RefCell<Option<PoolHandle>> =
        const { std::cell::RefCell::new(None) };
}

/// The pool the current thread's `par_*` calls execute on: an installed or
/// worker-local pool if one is active, the global pool otherwise.
pub(crate) fn current_handle() -> PoolHandle {
    CURRENT_POOL
        .with(|current| current.borrow().clone())
        .unwrap_or_else(|| global_handle().clone())
}

fn global_handle() -> &'static PoolHandle {
    static GLOBAL: OnceLock<PoolHandle> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let num_threads = default_num_threads();
        let handle = PoolHandle {
            state: new_state(),
            num_threads,
        };
        // The caller of every parallel operation participates, so `n`
        // scheduling threads need `n - 1` workers. The global pool's workers
        // are never joined; they park on the condvar between operations.
        spawn_workers(&handle, num_threads.saturating_sub(1));
        handle
    })
}

/// `RAYON_NUM_THREADS` if set to a positive integer, else the machine's
/// available parallelism (1 if that cannot be determined).
fn default_num_threads() -> usize {
    if let Ok(value) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(parsed) = value.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Number of threads the ambient pool schedules across (rayon's
/// `current_num_threads`). `1` means `par_*` calls run sequentially on the
/// caller.
pub fn current_num_threads() -> usize {
    current_handle().num_threads()
}

// ---------------------------------------------------------------------------
// Bulk execution
// ---------------------------------------------------------------------------

/// One in-flight bulk operation: `chunks` indices claimed by `fetch_add`,
/// completion counted under a latch the caller waits on.
struct ActiveTask {
    /// The chunk body, lifetime-erased. Valid until the latch releases; see
    /// the safety argument in [`run_chunks`].
    body: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    next: AtomicUsize,
    /// Set on the first panic: remaining chunks are skipped (but still
    /// counted) so the operation fails fast without hanging the latch.
    aborted: AtomicBool,
    completed: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

impl ActiveTask {
    /// Claims and runs chunks until none remain. Called by workers and by
    /// the issuing thread alike.
    fn participate(&self) {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            if index >= self.chunks {
                return;
            }
            if !self.aborted.load(Ordering::Relaxed) {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(index))) {
                    self.aborted.store(true, Ordering::Relaxed);
                    let mut slot = lock(&self.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            let mut completed = lock(&self.completed);
            *completed += 1;
            if *completed == self.chunks {
                self.all_done.notify_all();
            }
        }
    }
}

/// Runs `body(0..chunks)` across the pool, blocking until every chunk has
/// completed and re-raising the first panic. `chunks <= 1` or a 1-thread
/// pool runs inline with zero scheduling overhead.
pub(crate) fn run_chunks(handle: &PoolHandle, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
    if chunks <= 1 || handle.num_threads <= 1 {
        for index in 0..chunks {
            body(index);
        }
        return;
    }

    // SAFETY (lifetime erasure): `task.body` borrows the caller's stack, and
    // worker jobs holding `Arc<ActiveTask>` may outlive this call. The borrow
    // is only dereferenced inside `participate` for claimed indices
    // `< chunks`; every such claim is counted exactly once into `completed`,
    // and this function does not return — on success or unwind — until
    // `completed == chunks`. A job that runs after that point claims an
    // index `>= chunks` and returns without touching `body`. Hence no thread
    // dereferences the borrow after `run_chunks` returns, which is the whole
    // requirement for extending the lifetime.
    #[allow(unsafe_code)]
    let body: &'static (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
    let task = Arc::new(ActiveTask {
        body,
        chunks,
        next: AtomicUsize::new(0),
        aborted: AtomicBool::new(false),
        completed: Mutex::new(0),
        all_done: Condvar::new(),
        panic: Mutex::new(None),
    });

    // One helper job per thread that could usefully claim a chunk beyond the
    // participating caller.
    let helpers = (handle.num_threads - 1).min(chunks - 1);
    {
        let mut queue = lock(&handle.state.queue);
        for _ in 0..helpers {
            let task = Arc::clone(&task);
            queue.jobs.push_back(Box::new(move || task.participate()));
        }
    }
    handle.state.work_available.notify_all();

    // The caller works too (this is what makes nested calls deadlock-free),
    // then waits for any chunks still running on helpers.
    task.participate();
    {
        let mut completed = lock(&task.completed);
        while *completed < task.chunks {
            completed = task
                .all_done
                .wait(completed)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    let payload = lock(&task.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

// ---------------------------------------------------------------------------
// Configurable pools (rayon's ThreadPoolBuilder / ThreadPool surface)
// ---------------------------------------------------------------------------

/// Builder for an independent [`ThreadPool`] (rayon: `ThreadPoolBuilder`).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (thread count from the environment).
    pub fn new() -> Self {
        ThreadPoolBuilder::default()
    }

    /// Sets the pool's thread count. `0` (rayon's convention) and unset both
    /// mean the environment default. `1` makes every operation run
    /// sequentially on the calling thread.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = if num_threads == 0 {
            None
        } else {
            Some(num_threads)
        };
        self
    }

    /// Builds the pool, spawning its workers eagerly.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let num_threads = self.num_threads.unwrap_or_else(default_num_threads);
        let handle = PoolHandle {
            state: new_state(),
            num_threads,
        };
        let workers = spawn_workers(&handle, num_threads.saturating_sub(1));
        Ok(ThreadPool { handle, workers })
    }
}

/// Error from [`ThreadPoolBuilder::build`]. Kept for rayon API parity; the
/// in-tree builder only fails by panicking on thread-spawn exhaustion.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("failed to build thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// An independent pool of workers (rayon: `ThreadPool`). Dropping the pool
/// shuts its workers down and joins them.
pub struct ThreadPool {
    handle: PoolHandle,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.handle.num_threads)
            .finish()
    }
}

impl ThreadPool {
    /// Runs `op` with this pool as the ambient executor: every `par_*` call
    /// `op` makes (on this thread) schedules onto this pool instead of the
    /// global one. Unlike real rayon, `op` itself runs on the calling thread
    /// — the calling thread is one of the pool's scheduling threads — which
    /// changes no observable result.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        CURRENT_POOL.with(|current| {
            let previous = current.borrow_mut().replace(self.handle.clone());
            // Restore the previous ambient pool even if `op` unwinds, so a
            // caught panic cannot leave the thread pinned to this pool.
            struct Restore<'a>(
                &'a std::cell::RefCell<Option<PoolHandle>>,
                Option<PoolHandle>,
            );
            impl Drop for Restore<'_> {
                fn drop(&mut self) {
                    *self.0.borrow_mut() = self.1.take();
                }
            }
            let _restore = Restore(current, previous);
            op()
        })
    }

    /// This pool's thread count (caller included).
    pub fn current_num_threads(&self) -> usize {
        self.handle.num_threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut queue = lock(&self.handle.state.queue);
            queue.shutdown = true;
            // Jobs still queued are stragglers of completed operations (the
            // issuing thread has already drained their chunks); workers exit
            // without running them and dropping them is sound — destroying a
            // job only drops its `Arc<ActiveTask>`.
            queue.jobs.clear();
        }
        self.handle.state.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
