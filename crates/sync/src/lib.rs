//! Lockdep-instrumented synchronisation primitives: the workspace's
//! lock hierarchy, written down as types instead of prose.
//!
//! The serving stack is genuinely concurrent — a work-stealing host
//! pool, per-core lane leases, leader/follower batch flights, a
//! device-pool fan-out and an admission loop — which puts the next
//! regression class squarely at *deadlocks and policy drift* rather
//! than wrong numbers (those are property-pinned). This crate closes
//! that gap with two moves:
//!
//! 1. **Every lock belongs to a named [`LockClass`] with an explicit
//!    rank.** The workspace hierarchy (outermost first) is
//!    `serve::state` → `tpu::queue` → `tpu::pool` → `tpu::device` →
//!    `device::lanes` → `parallel::injector` → `parallel::deque` →
//!    the leaves (`accel::clock`, `fourier::cache`, clock sources,
//!    response slots). A thread must acquire classes in
//!    non-decreasing rank order; same-rank acquisitions of *distinct*
//!    classes are legal and watched by the cycle detector instead.
//! 2. **The only acquisition API is [`OrderedMutex::lock_recover`]**,
//!    which recovers poisoned locks via
//!    [`std::sync::PoisonError::into_inner`]. The repo-wide policy —
//!    one panicking request must never wedge a shared ledger, cache
//!    or queue — becomes the type-system default instead of a
//!    convention repeated at ninety call sites.
//!
//! # Lockdep
//!
//! Under the `lockdep` cargo feature each acquisition pushes its
//! class onto a thread-local held-lock stack and records
//! held-class → acquired-class edges in a global acquisition-order
//! graph. Three violations panic **at acquisition time** — long
//! before CI timing could ever manifest the deadlock:
//!
//! * acquiring a class already held by the same thread (self-deadlock
//!   of a non-reentrant mutex);
//! * acquiring a class whose rank is *below* a held class's rank (a
//!   hierarchy inversion);
//! * an acquisition whose new graph edge closes a cycle (the classic
//!   AB/BA pattern between same-rank classes) — the panic reports
//!   both acquisition chains: the current thread's held stack and the
//!   chain recorded when the conflicting edge was first observed.
//!
//! With the feature **off** (the default), no stack, no graph and no
//! class bookkeeping exist: [`OrderedMutex`] is a newtype over
//! [`std::sync::Mutex`] whose guard is a newtype over
//! [`std::sync::MutexGuard`], and the only behavioural difference
//! from a raw mutex is the built-in poison recovery.
//!
//! Because the full test suite runs once more with `--features
//! lockdep` in CI, every concurrency test, proptest and load test in
//! the workspace doubles as a lock-order witness.
//!
//! # Wakes
//!
//! Every condition variable is an [`OrderedCondvar`], which counts its
//! parked waiters and makes a notify with nobody parked a single
//! atomic load instead of a futex system call. The count is sound
//! only under one rule, and every notifier in the workspace keeps it:
//! **the state a waiter tests is changed under the paired
//! [`OrderedMutex`], or the notifier takes that mutex after changing
//! it and before notifying.** A waiter raises the count while it
//! still holds the mutex, so a notifier that took the mutex after the
//! waiter parked reads a non-zero count, and one that took it before
//! changed the state the waiter then tests and finds set. A notifier
//! that changed the waited-on state without ever taking the mutex
//! could read a zero count while a waiter is about to park, and its
//! wake would be lost.
//!
//! # Examples
//!
//! ```
//! use xai_sync::{LockClass, OrderedMutex};
//!
//! static LEDGER: LockClass = LockClass::new("example::ledger", 50);
//!
//! let cell = OrderedMutex::new(&LEDGER, 0u64);
//! *cell.lock_recover() += 3;
//! assert_eq!(*cell.lock_recover(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult};
use std::time::Duration;

/// A named rank in the workspace lock hierarchy.
///
/// Every [`OrderedMutex`] is registered to exactly one class;
/// several mutexes may share a class (e.g. all per-worker deques, or
/// every chip of a device pool) when the invariant is "no two of
/// these are ever held at once by one thread". Classes are declared
/// as `static`s next to the lock they govern, so `xai-lint
/// --list-locks` can emit the whole hierarchy from source.
///
/// Lower rank = acquired earlier (outermost). A thread may only
/// acquire a class whose rank is ≥ every rank it already holds, and
/// never a class it already holds.
pub struct LockClass {
    name: &'static str,
    rank: u32,
    #[cfg(feature = "lockdep")]
    id: std::sync::atomic::AtomicUsize,
}

impl LockClass {
    /// Declares a class `name` at `rank` (const, for `static`s).
    pub const fn new(name: &'static str, rank: u32) -> Self {
        LockClass {
            name,
            rank,
            #[cfg(feature = "lockdep")]
            id: std::sync::atomic::AtomicUsize::new(usize::MAX),
        }
    }

    /// The class name, as it appears in lockdep reports and the
    /// generated hierarchy table.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The class rank (lower = outer).
    pub fn rank(&self) -> u32 {
        self.rank
    }
}

impl fmt::Debug for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(rank {})", self.name, self.rank)
    }
}

/// A leaf class for test scaffolding and scratch state: maximum rank,
/// so it can be taken while holding anything (and never the reverse).
pub static SCRATCH: LockClass = LockClass::new("sync::scratch", u32::MAX);

/// A mutex registered to a [`LockClass`], acquired exclusively
/// through the poison-recovering [`OrderedMutex::lock_recover`].
///
/// With the `lockdep` feature enabled every acquisition is validated
/// against the rank hierarchy and the global acquisition-order graph
/// (see the [crate docs](crate)); without it this is a zero-cost
/// wrapper over [`std::sync::Mutex`].
pub struct OrderedMutex<T> {
    class: &'static LockClass,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex of `class` guarding `value`.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        OrderedMutex {
            class,
            inner: Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the guarded value (recovering a
    /// poisoned lock, per the workspace policy).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> OrderedMutex<T> {
    /// Acquires the lock, recovering from poisoning: the guarded
    /// state of every lock in this workspace is a ledger, cache or
    /// queue that stays internally consistent across a panicking
    /// holder, so one crashed worker must not wedge the process.
    ///
    /// # Panics
    ///
    /// Under the `lockdep` feature, panics on a rank inversion, a
    /// recursive acquisition or an acquisition-order cycle — see the
    /// [crate docs](crate).
    pub fn lock_recover(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(feature = "lockdep")]
        lockdep::check_and_push(self.class);
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        #[cfg(not(feature = "lockdep"))]
        {
            OrderedMutexGuard { inner }
        }
        #[cfg(feature = "lockdep")]
        {
            OrderedMutexGuard {
                inner: Some(inner),
                class: self.class,
            }
        }
    }

    /// Whether a holder has panicked while holding this lock.
    /// [`OrderedMutex::lock_recover`] still serves afterwards; this
    /// is introspection for tests pinning the recovery policy.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// The class this mutex is registered to.
    pub fn class(&self) -> &'static LockClass {
        self.class
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("class", &self.class)
            .field("inner", &self.inner)
            .finish()
    }
}

impl<T: Default> Default for OrderedMutex<T> {
    /// A default-valued mutex in the [`SCRATCH`] class. Real
    /// subsystem locks should name their own class via
    /// [`OrderedMutex::new`]; this exists so `#[derive(Default)]`
    /// containers of scratch state keep working.
    fn default() -> Self {
        OrderedMutex::new(&SCRATCH, T::default())
    }
}

/// RAII guard returned by [`OrderedMutex::lock_recover`]. Under
/// `lockdep`, dropping it pops the class off the thread's held-lock
/// stack.
pub struct OrderedMutexGuard<'a, T> {
    #[cfg(not(feature = "lockdep"))]
    inner: MutexGuard<'a, T>,
    #[cfg(feature = "lockdep")]
    inner: Option<MutexGuard<'a, T>>,
    #[cfg(feature = "lockdep")]
    class: &'static LockClass,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        #[cfg(not(feature = "lockdep"))]
        {
            &self.inner
        }
        #[cfg(feature = "lockdep")]
        {
            self.inner.as_ref().expect("guard holds the lock")
        }
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        #[cfg(not(feature = "lockdep"))]
        {
            &mut self.inner
        }
        #[cfg(feature = "lockdep")]
        {
            self.inner.as_mut().expect("guard holds the lock")
        }
    }
}

#[cfg(feature = "lockdep")]
impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        // `None` means OrderedCondvar::wait took the inner guard: the
        // lock is still logically held by this thread (it re-acquires
        // on wake), so the class stays on the stack.
        if self.inner.take().is_some() {
            lockdep::pop(self.class);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A condition variable for [`OrderedMutex`]-guarded state, with the
/// workspace poison policy built into [`OrderedCondvar::wait`].
///
/// It counts the threads parked on it: [`OrderedCondvar::notify_one`]
/// and [`OrderedCondvar::notify_all`] with nobody parked return after
/// one atomic load, without the system call a bare
/// [`std::sync::Condvar`] may make. That holds only while every
/// notifier keeps the rule in the [crate docs](crate#wakes): the state
/// a waiter tests is changed under the paired mutex, or the notifier
/// takes that mutex between the change and the notify.
///
/// During a wait the class stays on the waiter's held-lock stack:
/// the parked thread acquires nothing else, and on wake it holds
/// exactly what it held before, so no re-validation is needed.
#[derive(Debug, Default)]
pub struct OrderedCondvar {
    inner: Condvar,
    /// Threads inside [`OrderedCondvar::wait`] or
    /// [`OrderedCondvar::wait_timeout`]: raised while the waiter still
    /// holds the mutex, lowered after it has taken the mutex back. A
    /// `u32`, not a `usize`: every response handle carries a condvar
    /// for as long as its client holds the handle.
    waiters: AtomicU32,
}

impl OrderedCondvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: Condvar::new(),
            waiters: AtomicU32::new(0),
        }
    }

    /// Releases `guard` and blocks until notified, then re-acquires
    /// (recovering a poisoned lock) and returns the guard.
    pub fn wait<'a, T>(&self, guard: OrderedMutexGuard<'a, T>) -> OrderedMutexGuard<'a, T> {
        // Relaxed suffices: the raise is ordered before the mutex's
        // release inside `Condvar::wait`, and a notifier reads the
        // count only after acquiring that mutex itself.
        self.waiters.fetch_add(1, Ordering::Relaxed);
        #[cfg(not(feature = "lockdep"))]
        let guard = OrderedMutexGuard {
            inner: self
                .inner
                .wait(guard.inner)
                .unwrap_or_else(PoisonError::into_inner),
        };
        #[cfg(feature = "lockdep")]
        let guard = {
            let mut guard = guard;
            let class = guard.class;
            let inner = guard.inner.take().expect("guard holds the lock");
            drop(guard); // inner is None: the class stays on the stack
            OrderedMutexGuard {
                inner: Some(
                    self.inner
                        .wait(inner)
                        .unwrap_or_else(PoisonError::into_inner),
                ),
                class,
            }
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// As [`OrderedCondvar::wait`], giving up after `timeout` — the
    /// flag reports whether the wait timed out.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: OrderedMutexGuard<'a, T>,
        timeout: Duration,
    ) -> (OrderedMutexGuard<'a, T>, WaitTimeoutResult) {
        self.waiters.fetch_add(1, Ordering::Relaxed);
        #[cfg(not(feature = "lockdep"))]
        let woken = {
            let (inner, timed_out) = self
                .inner
                .wait_timeout(guard.inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            (OrderedMutexGuard { inner }, timed_out)
        };
        #[cfg(feature = "lockdep")]
        let woken = {
            let mut guard = guard;
            let class = guard.class;
            let inner = guard.inner.take().expect("guard holds the lock");
            drop(guard);
            let (inner, timed_out) = self
                .inner
                .wait_timeout(inner, timeout)
                .unwrap_or_else(PoisonError::into_inner);
            (
                OrderedMutexGuard {
                    inner: Some(inner),
                    class,
                },
                timed_out,
            )
        };
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        woken
    }

    /// Wakes one waiter; returns at once when none is parked.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes every waiter; returns at once when none is parked.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::Relaxed) != 0 {
            self.inner.notify_all();
        }
    }
}

#[cfg(feature = "lockdep")]
mod lockdep {
    //! The detector: a thread-local held-lock stack plus a global
    //! acquisition-order graph over lock classes.
    //!
    //! The graph records an edge `H → C` the first time any thread
    //! acquires class `C` while holding class `H`, together with that
    //! thread's full held chain as the witness. An acquisition whose
    //! new edge would close a cycle panics with both chains. The
    //! graph's own mutex is a raw `std::sync::Mutex` — instrumenting
    //! the instrumenter would recurse.

    use super::LockClass;
    use std::cell::RefCell;
    use std::sync::atomic::Ordering;
    use std::sync::{Mutex, OnceLock, PoisonError};

    thread_local! {
        /// Classes held by the current thread, outermost first.
        static HELD: RefCell<Vec<&'static LockClass>> = const { RefCell::new(Vec::new()) };
    }

    #[derive(Default)]
    struct Graph {
        /// Registered class names/ranks, indexed by class id.
        classes: Vec<(&'static str, u32)>,
        /// `edges[a]` holds every class id ever acquired while `a`
        /// was held.
        edges: Vec<Vec<usize>>,
        /// First-observation witness chain per `(from, to)` edge: the
        /// acquiring thread's held names plus the acquired name.
        witness: Vec<((usize, usize), String)>,
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    /// Registers `class` on first use, returning its dense id.
    fn class_id(class: &'static LockClass, g: &mut Graph) -> usize {
        let id = class.id.load(Ordering::Acquire);
        if id != usize::MAX {
            return id;
        }
        let id = g.classes.len();
        g.classes.push((class.name, class.rank));
        g.edges.push(Vec::new());
        class.id.store(id, Ordering::Release);
        id
    }

    fn chain(held: &[&'static LockClass], acquiring: &LockClass) -> String {
        let mut s = String::new();
        for c in held {
            s.push_str(&format!("{}(rank {}) -> ", c.name(), c.rank()));
        }
        s.push_str(&format!("{}(rank {})", acquiring.name(), acquiring.rank()));
        s
    }

    /// Depth-first reachability `from →* to` over the recorded edges.
    fn reaches(g: &Graph, from: usize, to: usize) -> bool {
        let mut seen = vec![false; g.edges.len()];
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            stack.extend(g.edges[n].iter().copied());
        }
        false
    }

    /// Validates acquiring `class` against the current thread's held
    /// stack and the global graph, then pushes it. Panics (before any
    /// state is recorded) on a violation.
    pub(super) fn check_and_push(class: &'static LockClass) {
        HELD.with(|h| {
            {
                let held = h.borrow();
                for c in held.iter() {
                    if std::ptr::eq(*c, class) {
                        panic!(
                            "lockdep: recursive acquisition of class `{}` (rank {}); held chain: [{}]",
                            class.name(),
                            class.rank(),
                            chain(&held, class)
                        );
                    }
                    if c.rank() > class.rank() {
                        panic!(
                            "lockdep: rank inversion — acquiring `{}` (rank {}) while holding \
                             `{}` (rank {}); held chain: [{}]",
                            class.name(),
                            class.rank(),
                            c.name(),
                            c.rank(),
                            chain(&held, class)
                        );
                    }
                }
                if !held.is_empty() {
                    let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
                    let to = class_id(class, &mut g);
                    for c in held.iter() {
                        let from = class_id(c, &mut g);
                        if g.edges[from].contains(&to) {
                            continue;
                        }
                        // Adding `from -> to` closes a cycle iff `to`
                        // already reaches `from`.
                        if reaches(&g, to, from) {
                            let recorded = g
                                .witness
                                .iter()
                                .find(|((f, t), _)| *f == to && reaches(&g, *t, from))
                                .map(|(_, w)| w.clone())
                                .unwrap_or_else(|| "<recorded chain unavailable>".into());
                            panic!(
                                "lockdep: lock-order cycle — acquiring `{}` while holding `{}` \
                                 contradicts the recorded order; this chain: [{}]; recorded \
                                 chain: [{}]",
                                class.name(),
                                c.name(),
                                chain(&held, class),
                                recorded
                            );
                        }
                        g.edges[from].push(to);
                        g.witness.push(((from, to), chain(&held, class)));
                    }
                }
            }
            h.borrow_mut().push(class);
        });
    }

    /// Removes the most recent hold of `class` from the stack (guards
    /// may drop out of acquisition order).
    pub(super) fn pop(class: &'static LockClass) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|c| std::ptr::eq(*c, class)) {
                held.remove(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    static OUTER: LockClass = LockClass::new("test::outer", 1);
    static INNER: LockClass = LockClass::new("test::inner", 2);

    #[test]
    fn lock_recover_round_trips() {
        let m = OrderedMutex::new(&OUTER, 41);
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 42);
        assert_eq!(m.class().name(), "test::outer");
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn correctly_ordered_nesting_is_fine() {
        let a = OrderedMutex::new(&OUTER, 1);
        let b = OrderedMutex::new(&INNER, 2);
        for _ in 0..3 {
            let ga = a.lock_recover();
            let gb = b.lock_recover();
            assert_eq!(*ga + *gb, 3);
        }
    }

    #[test]
    fn poisoned_lock_recovers_and_reports() {
        let m = Arc::new(OrderedMutex::new(&SCRATCH, 7u32));
        let crashing = Arc::clone(&m);
        let worker = std::thread::spawn(move || {
            let _guard = crashing.lock_recover();
            panic!("deliberate poison");
        });
        assert!(worker.join().is_err());
        assert!(m.is_poisoned(), "the std mutex underneath is poisoned");
        // The policy: recovered, still serving, state intact.
        assert_eq!(*m.lock_recover(), 7);
        *m.lock_recover() += 1;
        assert_eq!(*m.lock_recover(), 8);
    }

    #[test]
    fn condvar_wait_and_notify() {
        static CV_CLASS: LockClass = LockClass::new("test::cv", 90);
        let pair = Arc::new((OrderedMutex::new(&CV_CLASS, false), OrderedCondvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock_recover();
                while !*ready {
                    ready = cv.wait(ready);
                }
                true
            })
        };
        {
            let (lock, cv) = &*pair;
            *lock.lock_recover() = true;
            cv.notify_all();
        }
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn condvar_wait_timeout_reports_timeout() {
        static CVT_CLASS: LockClass = LockClass::new("test::cv-timeout", 91);
        let lock = OrderedMutex::new(&CVT_CLASS, ());
        let cv = OrderedCondvar::new();
        let guard = lock.lock_recover();
        let (guard, timed_out) = cv.wait_timeout(guard, Duration::from_millis(1));
        assert!(timed_out.timed_out());
        drop(guard);
        // The lock still serves after a timed-out wait.
        drop(lock.lock_recover());
    }

    /// Spins (yielding) until `done` holds, failing the test once
    /// `deadline` passes instead of hanging it.
    fn spin_until(deadline: std::time::Instant, what: &str, done: impl Fn() -> bool) {
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    /// The waiter count is back at zero after each way out of a wait:
    /// a wake after a state change, a wake with no state change, and
    /// a timed-out wait. While a waiter is parked it reads one.
    #[test]
    fn waiter_count_returns_to_zero_after_every_way_out_of_a_wait() {
        static CVC_CLASS: LockClass = LockClass::new("test::cv-count", 92);
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let pair = Arc::new((OrderedMutex::new(&CVC_CLASS, false), OrderedCondvar::new()));
        // A state change, then a wake.
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                let mut ready = lock.lock_recover();
                while !*ready {
                    ready = cv.wait(ready);
                }
            })
        };
        let (lock, cv) = &*pair;
        spin_until(deadline, "the waiter parks", || {
            cv.waiters.load(Ordering::Relaxed) == 1
        });
        *lock.lock_recover() = true;
        cv.notify_all();
        waiter.join().unwrap();
        assert_eq!(
            cv.waiters.load(Ordering::Relaxed),
            0,
            "after a wake with a state change"
        );
        // A wake with nothing changed: one wait, no predicate loop.
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                drop(cv.wait(lock.lock_recover()));
            })
        };
        spin_until(deadline, "the waiter parks again", || {
            cv.waiters.load(Ordering::Relaxed) == 1
        });
        // Taking the mutex first means the waiter has parked: it
        // raised the count while holding it.
        drop(lock.lock_recover());
        cv.notify_one();
        spin_until(deadline, "the bare wake lands", || waiter.is_finished());
        waiter.join().unwrap();
        assert_eq!(
            cv.waiters.load(Ordering::Relaxed),
            0,
            "after a wake with no state change"
        );
        // A timed-out wait.
        let (guard, timed_out) = cv.wait_timeout(lock.lock_recover(), Duration::from_millis(1));
        assert!(timed_out.timed_out());
        drop(guard);
        assert_eq!(
            cv.waiters.load(Ordering::Relaxed),
            0,
            "after a timed-out wait"
        );
        // A notify with nobody parked is a no-op that leaves it at zero.
        cv.notify_one();
        cv.notify_all();
        assert_eq!(cv.waiters.load(Ordering::Relaxed), 0);
        // The count costs four bytes, no more: every response handle
        // carries a condvar for as long as its client holds it.
        assert!(
            std::mem::size_of::<OrderedCondvar>() <= std::mem::size_of::<Condvar>() + 4,
            "the waiter count must stay a u32"
        );
    }

    /// Seeded stress of the wake protocol: consumers park on one
    /// token count, some in `wait` and some in `wait_timeout`, while
    /// producers add tokens under the mutex and wake with
    /// `notify_one` or `notify_all`, inside the critical section or
    /// just after it. Every token must be taken; a lost wake leaves a
    /// consumer parked forever, so the run fails by a deadline rather
    /// than hanging the suite.
    #[test]
    fn no_wake_is_lost_under_seeded_stress() {
        static STRESS: LockClass = LockClass::new("test::cv-stress", 93);
        const CONSUMERS: usize = 4;
        const PRODUCERS: usize = 2;
        const TOKENS_EACH: u64 = 200;
        let xorshift = |s: &mut u64| {
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            *s
        };
        for seed in 1..=8u64 {
            let shared = Arc::new((OrderedMutex::new(&STRESS, 0u64), OrderedCondvar::new()));
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let mut threads = Vec::new();
            for c in 0..CONSUMERS {
                let (shared, done_tx) = (Arc::clone(&shared), done_tx.clone());
                let mut rng = seed * 0x9E37_79B9 + c as u64 + 1;
                threads.push(std::thread::spawn(move || {
                    let (lock, cv) = &*shared;
                    let timed = xorshift(&mut rng) % 2 == 0;
                    let quota = PRODUCERS as u64 * TOKENS_EACH / CONSUMERS as u64;
                    for _ in 0..quota {
                        let mut tokens = lock.lock_recover();
                        while *tokens == 0 {
                            tokens = if timed {
                                let wait = Duration::from_micros(xorshift(&mut rng) % 200);
                                cv.wait_timeout(tokens, wait).0
                            } else {
                                cv.wait(tokens)
                            };
                        }
                        *tokens -= 1;
                    }
                    done_tx.send(()).unwrap();
                }));
            }
            for p in 0..PRODUCERS {
                let shared = Arc::clone(&shared);
                let mut rng = seed * 0x85EB_CA6B + p as u64 + 101;
                threads.push(std::thread::spawn(move || {
                    let (lock, cv) = &*shared;
                    for _ in 0..TOKENS_EACH {
                        for _ in 0..xorshift(&mut rng) % 4 {
                            std::thread::yield_now();
                        }
                        let draw = xorshift(&mut rng);
                        let mut tokens = lock.lock_recover();
                        *tokens += 1;
                        let notify = |cv: &OrderedCondvar| match draw % 2 {
                            0 => cv.notify_one(),
                            _ => cv.notify_all(),
                        };
                        if draw & 4 == 0 {
                            notify(cv);
                            drop(tokens);
                        } else {
                            drop(tokens);
                            notify(cv);
                        }
                    }
                }));
            }
            drop(done_tx);
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            for _ in 0..CONSUMERS {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                done_rx
                    .recv_timeout(left)
                    .unwrap_or_else(|_| panic!("seed {seed}: a consumer never woke"));
            }
            for t in threads {
                t.join().unwrap();
            }
            let (lock, cv) = &*shared;
            assert_eq!(*lock.lock_recover(), 0, "seed {seed}: every token taken");
            assert_eq!(cv.waiters.load(Ordering::Relaxed), 0, "seed {seed}");
        }
    }

    #[test]
    fn get_mut_and_default_work() {
        let mut m: OrderedMutex<Vec<u8>> = OrderedMutex::default();
        m.get_mut().push(9);
        assert_eq!(m.lock_recover().as_slice(), &[9]);
        assert_eq!(m.class().name(), "sync::scratch");
    }

    #[test]
    fn debug_formats_mention_the_class() {
        let m = OrderedMutex::new(&OUTER, 5);
        let s = format!("{m:?}");
        assert!(s.contains("test::outer"), "{s}");
        let g = m.lock_recover();
        assert_eq!(format!("{g:?}"), "5");
    }

    /// Satellite pin: the detector actually fires. A deliberate
    /// hierarchy inversion — inner rank acquired before outer — must
    /// panic in the acquiring (spawned) thread under `lockdep`.
    #[cfg(feature = "lockdep")]
    #[test]
    fn lockdep_catches_rank_inversion() {
        static LO: LockClass = LockClass::new("test::inversion-lo", 10);
        static HI: LockClass = LockClass::new("test::inversion-hi", 20);
        let lo = Arc::new(OrderedMutex::new(&LO, ()));
        let hi = Arc::new(OrderedMutex::new(&HI, ()));
        let offender = std::thread::spawn(move || {
            let _hi = hi.lock_recover();
            let _lo = lo.lock_recover(); // rank 10 under rank 20: inversion
        });
        let payload = offender
            .join()
            .expect_err("the inverted acquisition must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("rank inversion"), "unexpected panic: {msg}");
        assert!(msg.contains("test::inversion-lo"), "{msg}");
        assert!(msg.contains("test::inversion-hi"), "{msg}");
    }

    /// Satellite pin: a deliberate AB/BA cycle between two classes of
    /// the *same* rank (so the rank check cannot catch it) is caught
    /// by the acquisition-order graph, and the panic reports both
    /// chains.
    #[cfg(feature = "lockdep")]
    #[test]
    fn lockdep_catches_ab_ba_cycle() {
        static A: LockClass = LockClass::new("test::cycle-a", 30);
        static B: LockClass = LockClass::new("test::cycle-b", 30);
        let a = Arc::new(OrderedMutex::new(&A, ()));
        let b = Arc::new(OrderedMutex::new(&B, ()));
        {
            // Record the legal order A -> B.
            let _ga = a.lock_recover();
            let _gb = b.lock_recover();
        }
        let offender = std::thread::spawn(move || {
            let _gb = b.lock_recover();
            let _ga = a.lock_recover(); // B -> A: closes the cycle
        });
        let payload = offender.join().expect_err("the BA acquisition must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "unexpected panic: {msg}");
        assert!(
            msg.contains("this chain") && msg.contains("recorded chain"),
            "both acquisition chains must be reported: {msg}"
        );
        assert!(
            msg.contains("test::cycle-a") && msg.contains("test::cycle-b"),
            "{msg}"
        );
    }

    /// Recursive acquisition of one class is a self-deadlock and must
    /// panic rather than hang.
    #[cfg(feature = "lockdep")]
    #[test]
    fn lockdep_catches_recursive_acquisition() {
        static R: LockClass = LockClass::new("test::recursive", 40);
        let m1 = Arc::new(OrderedMutex::new(&R, ()));
        let m2 = Arc::new(OrderedMutex::new(&R, ()));
        let offender = std::thread::spawn(move || {
            let _g1 = m1.lock_recover();
            let _g2 = m2.lock_recover(); // same class, same thread
        });
        let payload = offender.join().expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("recursive acquisition"), "{msg}");
    }

    /// Unwinding pops the held stack: after a lockdep panic the
    /// thread that *caught* it can keep locking in legal order.
    #[cfg(feature = "lockdep")]
    #[test]
    fn held_stack_survives_caught_panics() {
        static S1: LockClass = LockClass::new("test::unwind-1", 50);
        static S2: LockClass = LockClass::new("test::unwind-2", 51);
        let a = OrderedMutex::new(&S1, ());
        let b = OrderedMutex::new(&S2, ());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ga = a.lock_recover();
            let _gb = b.lock_recover();
            panic!("task failure while holding both");
        }));
        assert!(err.is_err());
        // Both guards unwound: the same thread can retake both.
        let _ga = a.lock_recover();
        let _gb = b.lock_recover();
    }
}
