//! Offline stand-in for `rayon`, backed by real threads.
//!
//! The first seed of this crate executed every `par_iter` sequentially so the
//! workspace could build without the crates.io registry. It now ships two
//! pieces of actual concurrency machinery:
//!
//! * [`ThreadPool`] — a fixed-size pool of persistent worker threads with a
//!   shared job queue ([`ThreadPool::execute`] for `'static` jobs), which
//!   `multiem-serve` creates to execute parsed requests;
//! * `par_iter().map().collect()`, which cuts its input into contiguous
//!   blocks and maps them concurrently on up to [`current_num_threads`]
//!   threads (a map nested in another runs on its caller) while preserving
//!   the sequential output order, so
//!   `parallel: true` pipelines produce byte-identical results to sequential
//!   runs (the equivalence the test-suite asserts).
//!
//! A parallel map borrows its input, so it runs on scoped threads
//! (`std::thread::scope`) rather than on persistent workers: forwarding
//! non-`'static` closures to long-lived threads is not expressible in safe
//! Rust, and this crate stays `unsafe`-free. The process-wide width is
//! therefore a number, not a pool. A real rayon can be swapped back in by
//! restoring the crates.io dependency.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

// --------------------------------------------------------------------------
// Thread pool
// --------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads: [`ThreadPool::execute`] queues a
/// `'static` job on the persistent workers (fire-and-forget, FIFO).
///
/// Dropping the pool closes the queue and joins every worker, so queued jobs
/// always finish.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool of `size` persistent workers (`size` is clamped to at
    /// least 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("multiem-pool-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to dequeue, never while running
                        // the job, so workers drain the queue concurrently.
                        let job = receiver.lock().expect("pool queue poisoned").recv();
                        match job {
                            Ok(job) => job(),
                            Err(_) => break, // queue closed: pool is dropping
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Queue a job on the persistent workers.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool is alive")
            .send(Box::new(job))
            .expect("pool workers are alive");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

static WIDTH: OnceLock<usize> = OnceLock::new();

/// How many threads a parallel map may use: `RAYON_NUM_THREADS`, or the
/// available parallelism. Read once per process.
pub fn current_num_threads() -> usize {
    *WIDTH.get_or_init(default_num_threads)
}

fn default_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

// --------------------------------------------------------------------------
// Parallel mapping core
// --------------------------------------------------------------------------

/// Blocks per thread in [`map_chunked`]. With one block per thread a map is as
/// slow as its slowest thread: a worker that loses its core for a while holds
/// its whole share back while the others sit idle. With small blocks they
/// take over what it has not started.
const BLOCKS_PER_THREAD: usize = 16;

thread_local! {
    /// This thread's index among the threads working a parallel map's
    /// blocks (the caller is 0), while it works them.
    static IN_MAP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The index of the current thread among those mapping a parallel map's
/// blocks, or `None` outside a map — as rayon's, which is `Some` on its pool's
/// workers. A caller that sees `Some` is inside a map, where a nested one
/// runs on it alone.
pub fn current_thread_index() -> Option<usize> {
    IN_MAP.get()
}

/// Marks the current thread as map worker `index` until dropped (also when
/// `f` panics, so a caller that survives the panic can fan out again).
struct InMap;

impl InMap {
    fn enter(index: usize) -> Self {
        IN_MAP.set(Some(index));
        Self
    }
}

impl Drop for InMap {
    fn drop(&mut self) {
        IN_MAP.set(None);
    }
}

/// Map `f` over `items` concurrently, preserving input order in the output.
/// The slice is cut into contiguous blocks which the threads claim from a
/// shared counter; the per-block outputs are concatenated in block order, so
/// the result is identical to `items.iter().map(f).collect()`.
///
/// A map nested inside another map's `f` runs sequentially on its caller, so
/// at most [`current_num_threads`] threads map at once, as under rayon's
/// fixed pool. Spawning a width's worth of threads per nesting level instead
/// oversubscribes the cores, and how the extra threads' allocations
/// interleave shows in the process's peak RSS, which then differs from one
/// run to the next.
fn map_chunked<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let width = if IN_MAP.get().is_some() {
        1
    } else {
        current_num_threads().min(items.len())
    };
    if width <= 1 {
        return items.iter().map(f).collect();
    }
    let block = items.len().div_ceil(width * BLOCKS_PER_THREAD);
    let next = AtomicUsize::new(0);
    let work = |index| {
        let _in_map = InMap::enter(index);
        let mut mine = Vec::new();
        loop {
            // relaxed-ok: block-ticket dispenser; the RMW uniqueness is all that matters
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = items.chunks(block).nth(b) else {
                break mine;
            };
            mine.push((b, chunk.iter().map(f).collect::<Vec<R>>()));
        }
    };
    // The caller is one of the `width` threads: it would only wait in `join`
    // otherwise, so `width - 1` scoped threads are spawned and the caller
    // works the same counter beside them.
    let mut blocks: Vec<(usize, Vec<R>)> = thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..width).map(|i| scope.spawn(move || work(i))).collect();
        let mut blocks = work(0);
        for handle in handles {
            blocks.extend(handle.join().expect("parallel map worker panicked"));
        }
        blocks
    });
    blocks.sort_unstable_by_key(|&(b, _)| b);
    blocks.into_iter().flat_map(|(_, mapped)| mapped).collect()
}

// --------------------------------------------------------------------------
// Parallel iterator adapters
// --------------------------------------------------------------------------

/// Parallel iterator over `&[T]` (the result of `par_iter`).
#[derive(Debug)]
pub struct ParSlice<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSlice<'a, T> {
    /// Map every item through `f` (lazily; drive with `collect`).
    pub fn map<R, F>(self, f: F) -> ParMap<'a, T, F>
    where
        R: Send,
        F: Fn(&'a T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator over `&[T]`.
#[derive(Debug)]
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, R, F> ParMap<'a, T, F>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    /// Evaluate the map concurrently, collecting results in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        map_chunked(self.items, &self.f).into_iter().collect()
    }
}

// --------------------------------------------------------------------------
// Entry-point traits (the rayon prelude surface this workspace uses)
// --------------------------------------------------------------------------

/// `par_iter` over slices (and anything that derefs to a slice).
pub trait IntoParallelRefIterator<T> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParSlice<'_, T>;
}

impl<T: Sync> IntoParallelRefIterator<T> for [T] {
    fn par_iter(&self) -> ParSlice<'_, T> {
        ParSlice { items: self }
    }
}

/// The rayon prelude: import to get `par_iter` in scope.
pub mod prelude {
    pub use super::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn par_iter_behaves_like_iter() {
        let v = [1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn par_map_preserves_order_at_scale() {
        // Empty, fewer items than blocks, a ragged last block, many blocks.
        for n in [0usize, 1, 2, 3, 31, 33, 1_001, 10_000] {
            let items: Vec<usize> = (0..n).collect();
            let seq: Vec<usize> = items.iter().map(|&x| x * x).collect();
            let par: Vec<usize> = items.par_iter().map(|&x| x * x).collect();
            assert_eq!(seq, par, "n = {n}");
        }
    }

    #[test]
    fn a_nested_map_runs_on_its_caller() {
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..256).collect();
        let runs: Vec<(thread::ThreadId, Vec<thread::ThreadId>)> = outer
            .par_iter()
            .map(|_| {
                assert!(current_thread_index().is_some_and(|i| i < current_num_threads()));
                let threads = inner.par_iter().map(|_| thread::current().id()).collect();
                (thread::current().id(), threads)
            })
            .collect();
        for (caller, threads) in runs {
            assert!(threads.iter().all(|&t| t == caller));
        }
        // Outside any map, the caller is free to fan out again.
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn pool_executes_jobs_concurrently() {
        // Two jobs that can only complete if they run at the same time.
        let pool = ThreadPool::new(2);
        let barrier = Arc::new(Barrier::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let barrier = Arc::clone(&barrier);
            let done = Arc::clone(&done);
            pool.execute(move || {
                barrier.wait();
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }
}
