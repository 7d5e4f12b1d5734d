//! Minimal deterministic task pool.
//!
//! The build environment is offline, so there is no rayon; this crate
//! hand-rolls the one primitive the workspace needs: run `n` independent
//! tasks indexed `0..n` and collect their results **in index order**,
//! spreading the work over a fixed number of OS threads.
//!
//! # Determinism contract
//!
//! The pool never makes scheduling visible to the tasks. Work is split into
//! static contiguous chunks (no work stealing between chunks), each task
//! sees only its index, and each chunk's results land in that chunk's own
//! slot, so for any **pure** task function the output `Vec` is
//! byte-identical at any thread count. Randomised callers keep the
//! guarantee by deriving a per-index seed
//! (`pipefail_stats::rng::derive_seed`) from a master seed — never by
//! sharing an RNG across tasks.
//!
//! # Workers
//!
//! A [`TaskPool`] is only a partition width. The threads that run chunks
//! are process-wide and persistent: they start lazily, the first time a
//! fan-out needs one, and never exceed `available_parallelism`, however
//! wide the pools that callers build. A `run` call pushes its chunks onto
//! the shared queue, runs chunk 0 on the calling thread, then claims its
//! own still-unclaimed chunks until none are left and waits for the rest.
//! Because a caller can always run its own chunks, a task that calls `run`
//! again (nested fan-out) cannot deadlock, even with every worker busy. A
//! width above the worker count still partitions into that many chunks;
//! at most `available_parallelism + 1` of them run at once.
//!
//! Thread count comes from `TaskPool::new` or the `PIPEFAIL_THREADS`
//! environment variable (`from_env`); `0`/unset/unparsable means "use the
//! machine's available parallelism". `threads == 1` short-circuits to a
//! plain serial loop on the calling thread; if a worker cannot be started,
//! the caller runs the chunks that no worker claims.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A fixed-width partition of indexed tasks over the process-wide workers.
///
/// Cheap to construct and `Copy` (it owns no threads; see the module docs),
/// so callers can freely create one per call site or thread a copy through
/// configuration structs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskPool {
    threads: usize,
}

/// Environment variable read by [`TaskPool::from_env`].
pub const THREADS_ENV: &str = "PIPEFAIL_THREADS";

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

impl Default for TaskPool {
    /// Auto-sized pool (`available_parallelism`).
    fn default() -> Self {
        Self::new(0)
    }
}

impl TaskPool {
    /// Pool with exactly `threads` workers; `0` means auto
    /// (`available_parallelism`, min 1).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { available() } else { threads };
        Self { threads }
    }

    /// Serial pool: every task runs on the calling thread, in index order.
    pub const fn serial() -> Self {
        Self { threads: 1 }
    }

    /// Pool sized from `PIPEFAIL_THREADS`. Unset, empty, `0`, or unparsable
    /// values mean auto; anything else is the exact worker count.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Self::new(threads)
    }

    /// The worker count this pool fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(i)` for every `i in 0..n` and return the results in index
    /// order. `task` must be pure in `i` for the determinism contract to
    /// hold (same inputs → same output regardless of thread count).
    ///
    /// A panic in a task is re-raised on the caller once every chunk has
    /// finished (the first chunk to panic wins), and the workers stay
    /// usable.
    pub fn run<T, F>(&self, n: usize, task: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let width = self.threads.min(n.max(1));
        if width <= 1 || n <= 1 {
            return (0..n).map(task).collect();
        }

        // Static contiguous partitioning: chunk c owns indices
        // [c*chunk, (c+1)*chunk). Which thread runs a chunk is not
        // observable — its results land in its own slot, and the slots are
        // concatenated in chunk order.
        let chunk = n.div_ceil(width);
        let chunks = n.div_ceil(chunk);
        let slots: Vec<Mutex<Vec<T>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
        let run_chunk = |c: usize| {
            let out: Vec<T> = (c * chunk..n.min((c + 1) * chunk)).map(&task).collect();
            *lock(&slots[c]) = out;
        };
        fan_out(&run_chunk, chunks);

        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.append(&mut slot.into_inner().unwrap_or_else(PoisonError::into_inner));
        }
        out
    }

    /// Like [`run`](TaskPool::run) but for fallible tasks: returns the first
    /// error by **index order** (not completion order, so the winning error
    /// is deterministic too), or all results.
    pub fn try_run<T, E, F>(&self, n: usize, task: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        for res in self.run(n, task) {
            out.push(res?);
        }
        Ok(out)
    }
}

/// Lock `m`, ignoring poison: every critical section in this crate leaves
/// its data valid at every step, and task panics are caught before they
/// can unwind through a guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The chunk runner of one `run` call, with its borrow lifetime erased so
/// the `'static` workers can hold it.
type ChunkFn<'a> = dyn Fn(usize) + Sync + 'a;

/// One `run` call's chunks and the bookkeeping its caller waits on. Shared
/// by `Arc` between the caller and every queue entry, so the counters
/// outlive any worker that still touches them; only `task` borrows from
/// the caller's stack.
struct Job {
    /// The caller's chunk runner. Dereferenced only while running a chunk
    /// claimed from `next`, and the caller does not return before every
    /// claimed chunk has finished (see [`fan_out`]).
    task: *const ChunkFn<'static>,
    chunks: usize,
    /// The next unclaimed chunk; chunk 0 is the caller's.
    next: AtomicUsize,
    state: Mutex<JobState>,
    finished: Condvar,
}

struct JobState {
    /// Chunks not yet finished.
    unfinished: usize,
    /// The first panic any chunk raised, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `task` points to a `Sync` closure, so sharing and calling it from
// any thread is sound while it lives; `fan_out` keeps it alive until no
// thread can claim another chunk and every claimed chunk has finished. The
// other fields are atomics and mutex-guarded state, themselves `Send` and
// `Sync` (the panic payload is `Send`).
unsafe impl Send for Job {}
// SAFETY: as for `Send` above.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run chunks until none are left unclaimed.
    fn drain(&self) {
        loop {
            // A claim publishes no data: the job reached this thread
            // through the queue mutex, and results go back through the
            // `state` mutex.
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= self.chunks {
                return;
            }
            self.run_chunk(c);
        }
    }

    /// Run chunk `c`, catching a panic, and count it finished.
    fn run_chunk(&self, c: usize) {
        // SAFETY: chunk `c` was claimed exactly once (from `next`, or as the
        // caller's chunk 0) and is not yet counted finished, so the caller is
        // still blocked in `fan_out` and the closure `task` points to is
        // alive.
        let task = unsafe { &*self.task };
        let result = panic::catch_unwind(AssertUnwindSafe(|| task(c)));
        let mut state = lock(&self.state);
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        state.unfinished -= 1;
        if state.unfinished == 0 {
            self.finished.notify_all();
        }
    }
}

/// Run chunks `0..chunks` of `task`: offer chunks 1.. to the workers, run
/// chunk 0 here, claim whatever the workers have not, wait for the rest,
/// then re-raise the first panic. Returns (or unwinds) only when every
/// chunk has finished, which is what lets the workers borrow `task`.
fn fan_out(task: &ChunkFn<'_>, chunks: usize) {
    // SAFETY: only the lifetime changes (same fat-pointer layout). The
    // erased pointer is dereferenced only in `Job::run_chunk` on a claimed,
    // unfinished chunk, and this function does not return until every
    // chunk has finished, so no dereference outlives the borrow.
    let task = unsafe { std::mem::transmute::<*const ChunkFn<'_>, *const ChunkFn<'static>>(task) };
    let job = Arc::new(Job {
        task,
        chunks,
        next: AtomicUsize::new(1),
        state: Mutex::new(JobState {
            unfinished: chunks,
            panic: None,
        }),
        finished: Condvar::new(),
    });
    workers().offer(&job, chunks - 1);
    job.run_chunk(0);
    job.drain();
    let mut state = lock(&job.state);
    while state.unfinished > 0 {
        state = job
            .finished
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if let Some(payload) = state.panic.take() {
        drop(state);
        panic::resume_unwind(payload);
    }
}

/// The process-wide workers and their queue.
struct Workers {
    queue: Mutex<Queue>,
    ready: Condvar,
    cap: usize,
}

struct Queue {
    /// One entry per offered chunk; an entry whose job has no unclaimed
    /// chunk left is dropped when popped.
    jobs: VecDeque<Arc<Job>>,
    started: usize,
    idle: usize,
}

fn workers() -> &'static Workers {
    static WORKERS: OnceLock<Workers> = OnceLock::new();
    WORKERS.get_or_init(|| Workers {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            started: 0,
            idle: 0,
        }),
        ready: Condvar::new(),
        cap: available(),
    })
}

impl Workers {
    /// Queue `extra` entries for `job` and wake (or start, up to the cap)
    /// enough workers to take them.
    fn offer(&'static self, job: &Arc<Job>, extra: usize) {
        let mut queue = lock(&self.queue);
        let grow = extra
            .saturating_sub(queue.idle)
            .min(self.cap - queue.started);
        for _ in 0..grow {
            let spawned = std::thread::Builder::new()
                .name(format!("pipefail-par-{}", queue.started))
                .spawn(move || self.work());
            if spawned.is_err() {
                break;
            }
            queue.started += 1;
        }
        if queue.started == 0 {
            // No worker could start: the caller claims every chunk, and
            // entries nobody pops must not pile up.
            return;
        }
        queue.jobs.extend(std::iter::repeat_n(job, extra).cloned());
        let wake = extra.min(queue.idle);
        drop(queue);
        for _ in 0..wake {
            self.ready.notify_one();
        }
    }

    /// A worker's life: take the next entry, drain its job, repeat. The
    /// thread is never joined; it parks on `ready` between fan-outs for
    /// the rest of the process.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(job) = queue.jobs.pop_front() {
                        break job;
                    }
                    queue.idle += 1;
                    queue = self
                        .ready
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.idle -= 1;
                }
            };
            job.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_matches_map() {
        let pool = TaskPool::serial();
        let got = pool.run(10, |i| i * i);
        let want: Vec<usize> = (0..10).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // A "work"-like task: value depends only on the index.
        let f = |i: usize| {
            let mut acc = i as u64;
            for k in 0..100 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let baseline = TaskPool::new(1).run(97, f);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                TaskPool::new(threads).run(97, f),
                baseline,
                "thread count {threads} changed results"
            );
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let out = TaskPool::new(4).run(33, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 33);
        assert_eq!(out, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_tiny_n() {
        let pool = TaskPool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 41), vec![41]);
        // More workers than tasks must not spawn empty chunks that panic.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn auto_sizing_is_at_least_one() {
        assert!(TaskPool::new(0).threads() >= 1);
        assert!(TaskPool::default().threads() >= 1);
    }

    #[test]
    fn try_run_returns_first_error_by_index() {
        let pool = TaskPool::new(4);
        let res: Result<Vec<usize>, String> = pool.try_run(20, |i| {
            if i == 17 || i == 3 {
                Err(format!("task {i} failed"))
            } else {
                Ok(i)
            }
        });
        // Index order, not completion order: 3 beats 17 regardless of which
        // worker finishes first.
        assert_eq!(res.expect_err("tasks 3 and 17 fail"), "task 3 failed");
        let ok: Result<Vec<usize>, String> = pool.try_run(5, Ok);
        assert_eq!(ok.expect("no failures"), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn task_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            TaskPool::new(4).run(8, |i| {
                assert_ne!(i, 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn a_panic_waits_for_every_chunk_and_leaves_the_pool_usable() {
        // One task per chunk. Chunk 0 runs on the caller; the others on
        // workers or the caller. The healthy tasks are slow, so a panic
        // re-raised before they finish would show in the count.
        for bad in [0, 1, 3] {
            let finished = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                TaskPool::new(4).run(4, |i| {
                    assert_ne!(i, bad, "boom");
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }));
            let payload = caught.expect_err("the task panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or("");
            assert!(message.contains("boom"), "{message:?}");
            // Re-raised only after every other task ran to completion.
            assert_eq!(finished.load(Ordering::SeqCst), 3);
            assert_eq!(
                TaskPool::new(4).run(9, |i| i * 2),
                (0..9).map(|i| i * 2).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn concurrent_callers_share_the_workers() {
        // Several callers fan out at once, each also nesting, so the queue
        // interleaves entries of many jobs.
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                scope.spawn(move || {
                    for round in 0..200 {
                        let pool = TaskPool::new(1 + (caller + round) % 4);
                        let got = pool.run(7, |i| pool.run(3, |j| caller + round + i + j));
                        let want: Vec<Vec<usize>> = (0..7)
                            .map(|i| (0..3).map(|j| caller + round + i + j).collect())
                            .collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_runs_complete_at_every_width() {
        let want: Vec<usize> = (0..12).map(|i| (0..6).map(|j| i * 10 + j).sum()).collect();
        for width in 1..=4 {
            let pool = TaskPool::new(width);
            let got = pool.run(12, |i| {
                // A third level, so tasks on workers fan out from workers.
                pool.run(6, |j| pool.run(1, |_| i * 10 + j)[0])
                    .into_iter()
                    .sum::<usize>()
            });
            assert_eq!(got, want, "width {width}");
        }
    }

    #[test]
    fn from_env_parses_thread_count() {
        // Env mutation: run the combinations in one test to avoid races
        // between parallel test threads over the same variable.
        let old = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(TaskPool::from_env().threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        assert!(TaskPool::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(TaskPool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(TaskPool::from_env().threads() >= 1);
        if let Some(v) = old {
            std::env::set_var(THREADS_ENV, v);
        }
    }
}
