//! Offline stand-in for `rayon`, backed by a real thread pool.
//!
//! The first seed of this crate executed every `par_iter` sequentially so the
//! workspace could build without the crates.io registry. It now ships two
//! pieces of actual concurrency machinery:
//!
//! * [`ThreadPool`] — a fixed-size pool of persistent worker threads with a
//!   shared job queue ([`ThreadPool::execute`] for `'static` jobs, used by
//!   `multiem-serve` to drive HTTP connections) plus a scoped fork-join entry
//!   point ([`ThreadPool::run_scoped`]) for jobs that borrow local data;
//! * the `par_iter` adapters below, which cut their input into contiguous
//!   blocks and map them concurrently — capped at the width of the process
//!   [`global_pool`] — while preserving the sequential output order, so
//!   `parallel: true` pipelines produce byte-identical results to sequential
//!   runs (the equivalence the test-suite asserts).
//!
//! Borrowed-data bursts run on scoped threads (`std::thread::scope`) rather
//! than the persistent workers: forwarding non-`'static` closures to
//! long-lived threads is not expressible in safe Rust, and this crate stays
//! `unsafe`-free. The pool still governs their width. A real rayon can be
//! swapped back in by restoring the crates.io dependency.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread;

// --------------------------------------------------------------------------
// Thread pool
// --------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads.
///
/// Two execution modes:
///
/// * [`ThreadPool::execute`] queues a `'static` job on the persistent
///   workers (fire-and-forget, FIFO);
/// * [`ThreadPool::run_scoped`] runs a batch of index-addressed jobs that may
///   borrow the caller's stack, blocking until all complete. Jobs are claimed
///   work-stealing-style from a shared counter, with concurrency capped at
///   the pool size.
///
/// Dropping the pool closes the queue and joins every worker, so queued jobs
/// always finish.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    size: usize,
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
            size,
        }
    }

    /// The number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.size
    }

    /// Queue a job on the persistent workers.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool is alive")
            .send(Box::new(job))
            .expect("pool workers are alive");
    }

    /// Queue `job` on the persistent workers and hand its result to
    /// `complete` on the same worker thread (submit-with-completion): the
    /// submitting thread never blocks, and the completion typically ships
    /// the result back over a channel. This is the primitive the serving
    /// layer's event loops use to dispatch parsed requests without parking
    /// an I/O thread on the response.
    pub fn execute_then<T, F, C>(&self, job: F, complete: C)
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
        C: FnOnce(T) + Send + 'static,
    {
        self.execute(move || complete(job()));
    }

    /// Run `jobs` index-addressed tasks concurrently and wait for all of
    /// them. `f(i)` is called exactly once for every `i < jobs`, from up to
    /// `num_threads` threads. Unlike [`ThreadPool::execute`], `f` may borrow
    /// from the caller's stack.
    pub fn run_scoped<F: Fn(usize) + Sync>(&self, jobs: usize, f: F) {
        run_scoped_width(self.size, jobs, &f);
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

/// Run `jobs` tasks on up to `width` threads, claiming indices from a shared
/// atomic counter. The calling thread is one of the `width`: it would only
/// wait in `join` otherwise, so `width - 1` scoped threads are spawned and the
/// caller works the same counter beside them.
fn run_scoped_width<F: Fn(usize) + Sync>(width: usize, jobs: usize, f: &F) {
    if jobs == 0 {
        return;
    }
    let width = width.min(jobs).max(1);
    let next = AtomicUsize::new(0);
    let work = || loop {
        // relaxed-ok: job-ticket dispenser; the RMW uniqueness is all that matters
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= jobs {
            break;
        }
        f(i);
    };
    thread::scope(|scope| {
        for _ in 1..width {
            scope.spawn(work);
        }
        work();
    });
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool used by the `par_iter` adapters (width from
/// `RAYON_NUM_THREADS` or the available parallelism).
pub fn global_pool() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_num_threads()))
}

/// Width of the global pool.
pub fn current_num_threads() -> usize {
    global_pool().num_threads()
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

/// Map `f` over `items` concurrently, preserving input order in the output.
/// The slice is cut into contiguous blocks which the threads claim from a
/// shared counter; the per-block outputs are concatenated in block order, so
/// the result is identical to `items.iter().map(f).collect()`.
fn map_chunked<'a, T, R, F>(items: &'a [T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let width = current_num_threads().min(items.len());
    if width <= 1 {
        return items.iter().map(f).collect();
    }
    let block = items.len().div_ceil(width * BLOCKS_PER_THREAD);
    let next = AtomicUsize::new(0);
    let work = || {
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
    // The caller is one of the `width` threads (see `run_scoped_width`).
    let mut blocks: Vec<(usize, Vec<R>)> = thread::scope(|scope| {
        let handles: Vec<_> = (1..width).map(|_| scope.spawn(work)).collect();
        let mut blocks = work();
        for handle in handles {
            blocks.extend(handle.join().expect("parallel map worker panicked"));
        }
        blocks
    });
    blocks.sort_unstable_by_key(|&(b, _)| b);
    blocks.into_iter().flat_map(|(_, mapped)| mapped).collect()
}

/// `for_each` over mutable chunks, one contiguous chunk per thread.
fn for_each_mut_chunked<T, F>(items: &mut [T], f: &F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let width = current_num_threads().min(items.len());
    if width <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let chunk = items.len().div_ceil(width);
    thread::scope(|scope| {
        for chunk in items.chunks_mut(chunk) {
            scope.spawn(move || chunk.iter_mut().for_each(f));
        }
    });
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
    /// Map every item through `f` (lazily; drive with `collect`/`for_each`).
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

    /// Run `f` on every item concurrently.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        map_chunked(self.items, &|item| f(item));
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
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

    /// Evaluate the map concurrently for its side effects.
    pub fn for_each(self) {
        map_chunked(self.items, &self.f);
    }

    /// Evaluate concurrently and sum the results.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        map_chunked(self.items, &self.f).into_iter().sum()
    }
}

/// Parallel iterator over `&mut [T]` (the result of `par_iter_mut`).
#[derive(Debug)]
pub struct ParSliceMut<'a, T> {
    items: &'a mut [T],
}

impl<T: Send> ParSliceMut<'_, T> {
    /// Run `f` on every item concurrently.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        for_each_mut_chunked(self.items, &f);
    }
}

/// Owning parallel iterator (the result of `into_par_iter` on a `Vec`).
#[derive(Debug)]
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send + Sync> ParVec<T> {
    /// Sum the items concurrently.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T> + std::iter::Sum<S> + Send,
    {
        let width = current_num_threads().min(self.items.len()).max(1);
        if width <= 1 {
            return self.items.into_iter().sum();
        }
        let chunk = self.items.len().div_ceil(width);
        let mut chunks: Vec<Vec<T>> = Vec::new();
        let mut items = self.items;
        while !items.is_empty() {
            let rest = items.split_off(items.len().min(chunk));
            chunks.push(std::mem::replace(&mut items, rest));
        }
        let partials: Vec<S> = map_chunked_owned(chunks);
        partials.into_iter().sum()
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }
}

/// Sum helper: consume each chunk on its own scoped thread.
fn map_chunked_owned<T: Send, S: std::iter::Sum<T> + Send>(chunks: Vec<Vec<T>>) -> Vec<S> {
    let mut out = Vec::with_capacity(chunks.len());
    thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().sum::<S>()))
            .collect();
        for handle in handles {
            out.push(handle.join().expect("parallel sum worker panicked"));
        }
    });
    out
}

/// Parallel iterator over a `Range<usize>`.
#[derive(Debug)]
pub struct ParRange {
    range: std::ops::Range<usize>,
}

impl ParRange {
    /// Number of indices.
    pub fn count(self) -> usize {
        self.range.len()
    }

    /// Run `f` on every index concurrently.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.range.start;
        global_pool().run_scoped(self.range.len(), |i| f(start + i));
    }

    /// Map every index through `f`, collecting in input order.
    pub fn map<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let indices: Vec<usize> = self.range.collect();
        map_chunked(&indices, &|&i| f(i))
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

/// `par_iter_mut` over slices.
pub trait IntoParallelRefMutIterator<T> {
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&mut self) -> ParSliceMut<'_, T>;
}

impl<T: Send> IntoParallelRefMutIterator<T> for [T] {
    fn par_iter_mut(&mut self) -> ParSliceMut<'_, T> {
        ParSliceMut { items: self }
    }
}

/// Owning `into_par_iter`.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type ParIter;

    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::ParIter;
}

impl<T: Send + Sync> IntoParallelIterator for Vec<T> {
    type ParIter = ParVec<T>;

    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type ParIter = ParRange;

    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// The rayon prelude: import to get `par_iter` & friends in scope.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    #[test]
    fn par_iter_behaves_like_iter() {
        let v = [1, 2, 3];
        let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let mut m = vec![1, 2];
        m.par_iter_mut().for_each(|x| *x += 1);
        assert_eq!(m, vec![2, 3]);
        let s: i32 = vec![1, 2, 3].into_par_iter().sum();
        assert_eq!(s, 6);
        assert_eq!((0..3usize).into_par_iter().count(), 3);
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

    #[test]
    fn execute_then_delivers_results_without_blocking_the_submitter() {
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        for i in 0..8 {
            let tx = tx.clone();
            pool.execute_then(
                move || i * i,
                move |square| {
                    let _ = tx.send(square);
                },
            );
        }
        drop(tx);
        let mut squares: Vec<usize> = rx.iter().collect();
        squares.sort_unstable();
        assert_eq!(squares, (0..8).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_scoped_visits_every_index_once() {
        let pool = ThreadPool::new(4);
        let hits = Mutex::new(vec![0usize; 1000]);
        pool.run_scoped(1000, |i| {
            hits.lock().unwrap()[i] += 1;
        });
        assert!(hits.into_inner().unwrap().iter().all(|&h| h == 1));
    }

    #[test]
    fn run_scoped_borrows_local_data() {
        let data: Vec<usize> = (0..64).collect();
        let total = AtomicUsize::new(0);
        global_pool().run_scoped(data.len(), |i| {
            total.fetch_add(data[i], Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), (0..64).sum::<usize>());
    }
}
