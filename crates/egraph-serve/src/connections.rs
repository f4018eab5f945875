//! The connection threads: a set of plain `std::thread`s, separate from the
//! rayon compute pool, that run request handlers.
//!
//! A handler may block on another connection: a single-flight leader
//! waiting for its followers, a follower forwarding `/ingest` to a leader
//! in the same process, a slow cold computation pinned by a failpoint. Run
//! on the compute pool, such a handler holds a worker that the connection
//! it waits for may need, and a 2-core host's pool has one worker. Here
//! every admitted connection has a thread of its own for as long as it is
//! handled, and engines and cache repairs still fan out over the pool.
//!
//! The set is sized by demand, bounded by admission:
//!
//! * a thread is created only when an admitted connection finds no parked
//!   thread to take it, and at most `max_inflight` are alive, since
//!   admission caps busy threads plus queued connections at that bound;
//! * a thread parks between connections and is reused, never respawned;
//! * every thread exits once [`ConnectionThreads::close_and_wait`] has closed
//!   the set and the queue is empty.
//!
//! **Steady state is one thread per concurrent client.** A client sending
//! one request at a time reconnects the moment it reads the last byte of a
//! response, which is before the handler that wrote it has closed the
//! socket and parked. A handler therefore marks itself *finishing* just
//! before it writes its final response ([`ConnectionThreads::finishing`]),
//! and a connection that arrives while a finishing thread exists waits up
//! to [`HANDOFF_GRACE`] for that thread before a new one is made. Without
//! this a closed loop grows the set by a thread each time it wins the race,
//! and each thread that allocates brings its own malloc arena.

use std::cell::Cell;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::lock;

/// How long an admitted connection waits for a finishing thread before a
/// new thread is made for it. A finishing thread only has to close its
/// socket and return, which takes microseconds; the grace covers its being
/// descheduled, and bounds the wait when its final write stalls on a client
/// that does not read.
///
/// It is long next to a scheduler time slice because one miss is not
/// transient: the new thread's malloc arena keeps its share of the working
/// set after the server is gone. At 5 ms, servebench's `ingest_durable`
/// loop on a 2-vCPU host that was also compiling or running busy loops
/// missed the handoff in one server of 15 to 100, and each run with a miss
/// peaked 8–30 MB above the 115–119 MB of the runs without one.
pub(crate) const HANDOFF_GRACE: Duration = Duration::from_millis(100);

/// Counters for `/stats`: threads made over the set's lifetime, and alive
/// now (busy or parked).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThreadCounts {
    /// Connection threads created since the server started.
    pub(crate) created: u64,
    /// Connection threads alive now, busy or parked.
    pub(crate) alive: u64,
}

#[derive(Default)]
struct State {
    /// Admitted connections no thread has taken yet.
    queue: VecDeque<TcpStream>,
    /// Threads parked for work, and threads created but not yet started.
    idle: usize,
    /// Threads handling a connection; `finishing` of them have begun their
    /// final response.
    busy: usize,
    finishing: usize,
    created: u64,
    /// Joined on close, so each thread's malloc arena is free for reuse
    /// before the caller goes on.
    handles: Vec<JoinHandle<()>>,
    /// The accept thread is waiting on `claimed` for a finishing thread.
    handoff_waiting: bool,
    closed: bool,
}

thread_local! {
    /// Whether this connection thread has begun its connection's final
    /// response ([`ConnectionThreads::finishing`]).
    static FINISHING: Cell<bool> = const { Cell::new(false) };
}

/// The connection-thread set of one server.
pub(crate) struct ConnectionThreads {
    max_inflight: usize,
    state: Mutex<State>,
    /// Parked threads wait here for a queued connection or for the close.
    work: Condvar,
    /// The accept thread waits here for a finishing thread to take its
    /// connection.
    claimed: Condvar,
    /// `close_and_wait` waits here for the last thread to exit.
    exited: Condvar,
}

impl ConnectionThreads {
    /// An empty set admitting at most `max_inflight` connections at once.
    pub(crate) fn new(max_inflight: usize) -> Self {
        ConnectionThreads {
            max_inflight,
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            claimed: Condvar::new(),
            exited: Condvar::new(),
        }
    }

    /// Admits `stream` and hands it to a thread: a finishing one if it
    /// comes back within [`HANDOFF_GRACE`], else a parked one, else one
    /// made by `spawn` (which must start a thread running
    /// [`ConnectionThreads::run`]). Gives the stream back when
    /// `max_inflight` connections are already admitted, or when no thread
    /// could be made for it; the caller sheds it.
    pub(crate) fn admit(
        &self,
        stream: TcpStream,
        spawn: impl FnOnce() -> std::io::Result<JoinHandle<()>>,
    ) -> Result<(), TcpStream> {
        let mut state = lock(&self.state);
        if state.busy + state.queue.len() >= self.max_inflight {
            return Err(stream);
        }
        state.queue.push_back(stream);
        // A finishing thread goes first even when others are parked: a
        // client that reconnects as soon as it has its answer then keeps
        // one hot thread, and the parked ones stay cold.
        if state.queue.len() <= state.finishing {
            let deadline = Instant::now() + HANDOFF_GRACE;
            state.handoff_waiting = true;
            while !state.queue.is_empty() && state.queue.len() <= state.finishing {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                state = self
                    .claimed
                    .wait_timeout(state, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            state.handoff_waiting = false;
        }
        if state.queue.len() <= state.idle {
            let parked_needed = !state.queue.is_empty();
            drop(state);
            if parked_needed {
                self.work.notify_one();
            }
            return Ok(());
        }
        // Counted idle from now on: it takes a queued connection as soon
        // as it starts.
        state.idle += 1;
        if let Ok(handle) = spawn() {
            state.created += 1;
            state.handles.push(handle);
            return Ok(());
        }
        state.idle -= 1;
        // The queue is FIFO and only this call pushes, so the stream at the
        // back is this call's; if a thread took it, it took the rest too.
        match state.queue.pop_back() {
            Some(stream) => Err(stream),
            None => Ok(()),
        }
    }

    /// The body of a connection thread: takes queued connections and
    /// passes each to `handle`, parking while there are none, until the
    /// set is closed and drained. A panicking handler is caught so the
    /// thread, and the counts, survive it.
    pub(crate) fn run(&self, mut handle: impl FnMut(TcpStream)) {
        let mut state = lock(&self.state);
        loop {
            if let Some(stream) = state.queue.pop_front() {
                state.idle -= 1;
                state.busy += 1;
                if state.handoff_waiting {
                    self.claimed.notify_one();
                }
                drop(state);
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle(stream)));
                state = lock(&self.state);
                state.busy -= 1;
                if FINISHING.replace(false) {
                    state.finishing -= 1;
                }
                state.idle += 1;
            } else if state.closed {
                state.idle -= 1;
                if state.idle + state.busy == 0 {
                    self.exited.notify_all();
                }
                return;
            } else {
                state = self
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Marks the calling connection thread as finishing: it is about to
    /// write its final response, and takes the next connection once it
    /// returns. Idempotent per connection. Only handlers call it, and they
    /// run on connection threads.
    pub(crate) fn finishing(&self) {
        if !FINISHING.replace(true) {
            lock(&self.state).finishing += 1;
        }
    }

    /// Threads created so far and alive now.
    pub(crate) fn counts(&self) -> ThreadCounts {
        let state = lock(&self.state);
        ThreadCounts {
            created: state.created,
            alive: (state.idle + state.busy) as u64,
        }
    }

    /// Closes the set: parked threads exit, busy ones exit after their
    /// connection and whatever is still queued. Waits up to `bound` for the
    /// last one, and joins them all if they exit in time.
    pub(crate) fn close_and_wait(&self, bound: Duration) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.work.notify_all();
        let deadline = Instant::now() + bound;
        while state.idle + state.busy > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            state = self
                .exited
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        let handles = std::mem::take(&mut state.handles);
        drop(state);
        for handle in handles {
            let _ = handle.join();
        }
    }
}
