//! Lock discipline for the serving layer: class-ordered lock wrappers with a
//! `debug_assertions`-gated runtime lock-order sanitizer, plus a
//! poison-tolerant helper for leaf locks.
//!
//! The serving layer's deadlock-freedom argument is a total order on its two
//! blocking lock classes: **shard store locks before WAL locks** (`shard →
//! wal`), everywhere. The static `lock-order` rule in `multiem-lint` checks
//! that order lexically; this module enforces it *dynamically* in debug
//! builds. [`OrderedRwLock`] and [`OrderedMutex`] wrap the std primitives
//! with a declared [`LockClass`]; every acquisition pushes its class onto a
//! thread-local stack and panics if the thread already holds a
//! higher-ranked class. Each integration test that drives the real server
//! therefore doubles as a lock-inversion probe. Release builds compile the
//! tracking away entirely (the token is a zero-sized type and the check is
//! `cfg`'d out).
//!
//! Equal classes are allowed to stack: the checkpoint legitimately holds
//! every shard guard at once (acquired in ascending shard order, which the
//! class rank cannot see but the static rule's ascending-loop idiom covers).
//!
//! Poisoning policy: the data-bearing shard/WAL locks *propagate* poison —
//! a panic mid-mutation leaves state that must not be served, so the
//! wrappers here panic on poison (annotated, deliberate). Leaf locks that
//! only guard self-consistent telemetry values (published stats, analytics
//! windows) use [`lock_unpoisoned`] and keep serving the last value instead.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Take a mutex whose contents stay consistent even if a holder panicked
/// (single-word or copy-updated telemetry values): poisoning carries no
/// information for such locks, so recover the guard instead of propagating.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lock classes in acquisition order: a thread may acquire a class only
/// while holding classes of equal or lower rank. The declared serving-layer
/// order `shard → wal` makes [`LockClass::Shard`] rank below
/// [`LockClass::Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// A shard's `EntityStore` RwLock.
    Shard = 0,
    /// A per-shard WAL mutex.
    Wal = 1,
}

#[cfg(debug_assertions)]
impl LockClass {
    fn name(self) -> &'static str {
        match self {
            LockClass::Shard => "shard",
            LockClass::Wal => "wal",
        }
    }
}

#[cfg(debug_assertions)]
mod sanitizer {
    use super::LockClass;
    use std::cell::RefCell;

    thread_local! {
        /// Classes this thread currently holds, in acquisition order.
        static HELD: RefCell<Vec<LockClass>> = const { RefCell::new(Vec::new()) };
    }

    /// Record an acquisition *before* blocking on the lock, so an inversion
    /// panics loudly instead of deadlocking silently.
    pub(super) fn acquire(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&worst) = held.iter().max() {
                assert!(
                    worst <= class,
                    "lock-order inversion: acquiring a {} lock while holding a {} lock; \
                     declared order is shard → wal (held stack: {:?})",
                    class.name(),
                    worst.name(),
                    held
                );
            }
            held.push(class);
        });
    }

    pub(super) fn release(class: LockClass) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }
}

/// RAII token recording one tracked acquisition on the current thread's
/// stack. Zero-sized and inert in release builds.
#[derive(Debug)]
pub struct Held {
    #[cfg(debug_assertions)]
    class: LockClass,
}

impl Held {
    fn new(class: LockClass) -> Self {
        #[cfg(debug_assertions)]
        {
            sanitizer::acquire(class);
            Held { class }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = class;
            Held {}
        }
    }
}

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        sanitizer::release(self.class);
    }
}

/// An `RwLock` with a declared [`LockClass`], order-checked in debug builds.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    class: LockClass,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wrap `value` in an RwLock belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: RwLock::new(value),
        }
    }

    /// Shared acquisition, order-checked.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let held = Held::new(self.class);
        // lint:allow(no-panic-hot-path): deliberate poison propagation — a panic mid-mutation under this data lock leaves state that must not be served
        let guard = self.inner.read().expect("ordered lock poisoned");
        OrderedReadGuard { guard, _held: held }
    }

    /// Exclusive acquisition, order-checked.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let held = Held::new(self.class);
        // lint:allow(no-panic-hot-path): deliberate poison propagation — a panic mid-mutation under this data lock leaves state that must not be served
        let guard = self.inner.write().expect("ordered lock poisoned");
        OrderedWriteGuard { guard, _held: held }
    }

    /// Non-blocking shared acquisition. Untracked: a `try_` acquisition can
    /// never participate in a deadlock cycle, and the fast path relies on it
    /// staying lock-free in the blocking sense.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        self.inner.try_read().ok()
    }
}

// In every guard struct below, `guard` is declared before `_held` so the std
// guard drops (releasing the lock) before the tracking token pops the class
// stack.

/// Shared guard from [`OrderedRwLock::read`].
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard from [`OrderedRwLock::write`].
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A `Mutex` with a declared [`LockClass`], order-checked in debug builds.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    class: LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wrap `value` in a mutex belonging to `class`.
    pub fn new(class: LockClass, value: T) -> Self {
        Self {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Blocking acquisition, order-checked.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let held = Held::new(self.class);
        // lint:allow(no-panic-hot-path): deliberate poison propagation — a panic mid-mutation under this data lock leaves state that must not be served
        let guard = self.inner.lock().expect("ordered lock poisoned");
        OrderedMutexGuard { guard, _held: held }
    }
}

/// Guard from [`OrderedMutex::lock`].
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_order_is_accepted() {
        let shard = OrderedRwLock::new(LockClass::Shard, 1u32);
        let wal = OrderedMutex::new(LockClass::Wal, 2u32);
        let s = shard.write();
        let w = wal.lock();
        assert_eq!(*s + *w, 3);
    }

    #[test]
    fn equal_classes_stack_for_multi_shard_sections() {
        let a = OrderedRwLock::new(LockClass::Shard, 1u32);
        let b = OrderedRwLock::new(LockClass::Shard, 2u32);
        let ga = a.write();
        let gb = b.read();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn wal_then_shard_inversion_panics_under_debug_assertions() {
        let shard = OrderedRwLock::new(LockClass::Shard, 1u32);
        let wal = OrderedMutex::new(LockClass::Wal, 2u32);
        let result = std::panic::catch_unwind(|| {
            let _w = wal.lock();
            let _s = shard.read();
        });
        if cfg!(debug_assertions) {
            assert!(result.is_err(), "wal → shard must panic in debug builds");
        } else {
            assert!(result.is_ok(), "release builds do not track lock order");
        }
    }

    #[test]
    fn release_unwinds_the_stack_for_later_acquisitions() {
        let shard = OrderedRwLock::new(LockClass::Shard, 1u32);
        let wal = OrderedMutex::new(LockClass::Wal, 2u32);
        {
            let _w = wal.lock();
        }
        // The WAL guard is gone, so a shard acquisition is legal again.
        let _s = shard.read();
        let _w = wal.lock();
    }

    #[test]
    fn try_read_is_untracked_and_nonblocking() {
        let shard = OrderedRwLock::new(LockClass::Shard, 7u32);
        let writer = shard.write();
        assert!(shard.try_read().is_none());
        drop(writer);
        assert_eq!(*shard.try_read().expect("uncontended"), 7);
    }

    #[test]
    fn lock_unpoisoned_recovers_after_a_panicking_holder() {
        let leaf = Mutex::new(41u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = leaf.lock().expect("first take");
            panic!("poison it");
        }));
        let mut g = lock_unpoisoned(&leaf);
        *g += 1;
        assert_eq!(*g, 42);
    }
}
