//! The pool: persistent workers, a chunked injector queue, scoped
//! task submission over borrowed data, and the process-wide
//! [`global`] instance every hot path shares.
//!
//! Design notes (the "your call" choices of the runtime):
//!
//! * **Per-worker deques over a shared injector.** Each compute
//!   worker owns a deque with the classic Chase–Lev discipline (the
//!   owner pushes and pops at the back, thieves take from the front —
//!   realised as `Mutex<VecDeque>` per worker, which at row-block
//!   granularity costs the same as the lock-free version while
//!   keeping the crate to its single `unsafe`). The injector queue
//!   remains as the overflow / external-submission path: callers that
//!   are not pool workers enqueue there, and a worker that drains it
//!   moves half the backlog into its own deque in one lock
//!   acquisition. Idle workers steal half a victim deque at a time,
//!   so ragged splits never idle a core and a burst of nested spawns
//!   spreads across the fleet instead of convoying on one lock.
//! * **The caller helps.** A thread waiting on [`Scope`] completion
//!   runs compute tasks from the injector instead of sleeping. This
//!   is what makes nested scopes (a pool task opening its own
//!   `par_chunks_mut`) deadlock-free even on a one-worker pool.
//! * **Panic isolation.** A panicking task never takes a worker down:
//!   the payload is caught, stashed in its scope, and re-raised in
//!   the scope's caller after every sibling task finished — the same
//!   observable behaviour `std::thread::scope` has, minus the thread
//!   churn. The pool keeps serving later submissions.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xai_sync::{LockClass, OrderedCondvar, OrderedMutex, OrderedMutexGuard};

/// The injector queue + crew bookkeeping. May be held while a deque
/// is locked (never the reverse), hence the lower rank.
static PARALLEL_INJECTOR: LockClass = LockClass::new("parallel::injector", 40);

/// The per-worker Chase–Lev-style deques. One class for all of them:
/// no two deques are ever held at once (steals stage through a local
/// buffer), so a second same-class acquisition is itself a bug that
/// lockdep's recursion check catches.
static PARALLEL_DEQUE: LockClass = LockClass::new("parallel::deque", 44);

/// A scope's first-panic slot — touched only after a task has run,
/// with no queue lock held; a leaf next to the ledgers.
static PARALLEL_SCOPE_PANIC: LockClass = LockClass::new("parallel::scope_panic", 48);
use std::thread::JoinHandle;

/// Hard ceiling on configured worker counts, so a typo'd
/// `XAI_THREADS` cannot fork-bomb the process.
const MAX_THREADS: usize = 512;

thread_local! {
    /// `(pool identity, worker index)` of the compute worker running
    /// the current thread, if any. Lets `push_task` route a worker's
    /// own spawns straight to its deque (the Chase–Lev owner end) and
    /// lets a helping waiter drain its own deque — the pool identity
    /// guards against a task of one pool submitting into another.
    static WORKER_SLOT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// A queueable unit of work whose closure lifetime has been erased.
///
/// Only [`Scope::spawn`] constructs these, and only with the scope's
/// join guarantee backing the erasure — see [`Task::erase`].
struct Task(Box<dyn FnOnce() + Send + 'static>);

impl Task {
    /// Erases the closure's borrow lifetime so persistent (`'static`)
    /// worker threads can run it.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the closure (and everything it
    /// borrows) outlives the task's execution **and** drop. [`Scope`]
    /// provides this: `pending` is incremented before a task is
    /// queued, decremented only after the closure has run and been
    /// consumed, and [`Pool::run_scope`] unconditionally waits for
    /// `pending == 0` before returning — including when the scope
    /// body or a task panics — so no borrow handed to [`Scope::spawn`]
    /// is ever dangling while a task can still touch it.
    // SAFETY: the crate denies unsafe_code at the manifest level;
    // this scoped allow marks the one sanctioned erasure.
    #[allow(unsafe_code)]
    unsafe fn erase<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> Task {
        // SAFETY: lifetime-only transmute between identically laid
        // out trait-object boxes; validity is the caller's contract
        // above. This is the crate's single unsafe expression.
        Task(unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        })
    }

    fn run(self) {
        (self.0)()
    }
}

/// Which queue a scope submits to — see the [crate docs](crate) for
/// the compute/blocking split.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lane {
    /// Bounded worker fleet + caller help; tasks must not block.
    Compute,
    /// Elastic crew; every task is guaranteed its own thread.
    Blocking,
}

#[derive(Default)]
struct Inner {
    compute: VecDeque<Task>,
    blocking: VecDeque<Task>,
    /// Crew threads currently parked on the condvar (or between
    /// spawn and first pop), i.e. able to take a blocking task.
    idle_crew: usize,
    /// Crew threads ever spawned — the high-water mark tests pin.
    crew_spawned: usize,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

struct Shared {
    inner: OrderedMutex<Inner>,
    /// One condvar for everything: workers wait for queue pushes,
    /// scope waiters additionally wake on final task completions.
    /// Fine at row-block granularity; simplicity beats a wakeup
    /// hierarchy here.
    work_available: OrderedCondvar,
    /// One work deque per compute worker. Lock order: `inner` may be
    /// held while a deque is locked, never the reverse, and no two
    /// deques are ever held at once (steals stage through a local
    /// buffer) — owner pushes therefore release the deque before
    /// taking `inner` to notify.
    deques: Vec<OrderedMutex<VecDeque<Task>>>,
}

impl Shared {
    /// Locks the queue state, recovering a poisoned lock. Tasks run
    /// outside the lock and catch their own panics, so poisoning can
    /// only come from an abort-adjacent path; the state is a plain
    /// queue and always consistent.
    fn lock(&self) -> OrderedMutexGuard<'_, Inner> {
        self.inner.lock_recover()
    }

    fn wait<'a>(&self, guard: OrderedMutexGuard<'a, Inner>) -> OrderedMutexGuard<'a, Inner> {
        self.work_available.wait(guard)
    }

    /// Identity of this pool for the [`WORKER_SLOT`] tag. Stable for
    /// the pool's lifetime; its workers are joined before the
    /// allocation can be reused.
    fn id(&self) -> usize {
        self as *const Shared as usize
    }

    fn deque(&self, index: usize) -> OrderedMutexGuard<'_, VecDeque<Task>> {
        self.deques[index].lock_recover()
    }

    /// Finds the next runnable compute task for a thread whose worker
    /// slot is `slot` (`None` for a helping external caller):
    /// own deque first (owner end), then the injector — moving half
    /// of any remaining backlog into the worker's own deque in the
    /// same lock acquisition — then a steal of half a victim deque.
    ///
    /// Must be called with the `inner` lock held: every queue
    /// inspection that can precede a sleep happens under that lock,
    /// and every publication notifies while holding it, so a `None`
    /// here can never race a missed wakeup.
    fn next_task(&self, inner: &mut Inner, slot: Option<usize>) -> Option<Task> {
        if let Some(i) = slot {
            if let Some(task) = self.deque(i).pop_back() {
                return Some(task);
            }
        }
        if let Some(first) = inner.compute.pop_front() {
            if let Some(i) = slot {
                let extra = inner.compute.len() / 2;
                if extra > 0 {
                    let mut own = self.deque(i);
                    for _ in 0..extra {
                        own.push_back(inner.compute.pop_front().expect("counted backlog"));
                    }
                }
            }
            return Some(first);
        }
        for victim in 0..self.deques.len() {
            if Some(victim) == slot {
                continue;
            }
            let mut stolen: VecDeque<Task> = {
                let mut dq = self.deque(victim);
                let take = match (dq.len(), slot) {
                    (0, _) => 0,
                    // A worker steals half the victim's queue …
                    (n, Some(_)) => n.div_ceil(2),
                    // … a helping caller has no deque to bank into.
                    (_, None) => 1,
                };
                dq.drain(..take).collect()
            };
            let Some(first) = stolen.pop_front() else {
                continue;
            };
            if let Some(i) = slot {
                self.deque(i).append(&mut stolen);
            }
            return Some(first);
        }
        None
    }
}

/// Per-scope bookkeeping shared between the scope's caller and its
/// in-flight tasks.
struct ScopeState {
    /// Tasks spawned but not yet finished. Never reaches zero while
    /// work is outstanding: a task that spawns a sibling increments
    /// *before* its own decrement.
    pending: AtomicUsize,
    /// First panic payload raised by a task, re-thrown by the caller.
    panic: OrderedMutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Default for ScopeState {
    fn default() -> Self {
        ScopeState {
            pending: AtomicUsize::new(0),
            panic: OrderedMutex::new(&PARALLEL_SCOPE_PANIC, None),
        }
    }
}

impl ScopeState {
    fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.panic.lock_recover().get_or_insert(payload);
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.panic.lock_recover().take()
    }
}

/// A scope for spawning borrowed tasks onto a [`Pool`], mirroring
/// [`std::thread::scope`]'s lifetime discipline: everything spawned
/// here is joined before the scope call returns, so tasks may borrow
/// anything that outlives the call.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope Pool,
    state: Arc<ScopeState>,
    lane: Lane,
    /// Invariant in `'scope` (same trick as `std`): prevents the
    /// borrow checker from shrinking the scope lifetime under us.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task onto the scope's lane.
    ///
    /// The task may borrow from the environment (`'scope`). A panic
    /// inside the task is caught, the first such payload is re-raised
    /// by the scope call itself after all sibling tasks finish, and
    /// the worker thread that ran the task keeps serving the pool.
    ///
    /// Tasks may themselves spawn onto the scope (it is `Sync`), and
    /// compute-lane tasks may open nested scopes; blocking-lane work
    /// is the only place a task may park.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let shared = Arc::clone(&self.pool.shared);
        let lane = self.lane;
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state.store_panic(payload);
            }
            // A blocking task returns its crew thread to the idle set
            // BEFORE its completion becomes observable below —
            // otherwise a caller could see the scope finish, start the
            // next fan-out, find the crew "busy" and spawn threads it
            // is about to get back (the high-water mark would creep).
            if lane == Lane::Blocking {
                shared.lock().idle_crew += 1;
            }
            // `f` and its borrows are consumed/dropped above;
            // decrementing afterwards is what makes Task::erase sound.
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last task out wakes the scope waiter. Taking the
                // queue lock first closes the race against a waiter
                // that just checked `pending` and is about to sleep.
                let _guard = shared.lock();
                shared.work_available.notify_all();
            }
        });
        // SAFETY: `run_scope` joins this task (waits for pending == 0)
        // before the scope call returns on every path — see
        // `Task::erase` for the full argument.
        #[allow(unsafe_code)]
        let task = unsafe { Task::erase(job) };
        self.pool.push_task(self.lane, task);
    }

    /// Blocks until every spawned task finished, running compute-lane
    /// tasks from the injector and the worker deques while waiting
    /// (the caller is one of the workers — this is what keeps nested
    /// scopes live, including a worker's own scope whose spawns sit
    /// in that worker's own deque).
    fn wait_all(&self) {
        if self.state.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let shared = &self.pool.shared;
        let slot = self.pool.worker_slot();
        let mut guard = shared.lock();
        loop {
            if self.state.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(task) = shared.next_task(&mut guard, slot) {
                drop(guard);
                task.run();
                guard = shared.lock();
            } else {
                guard = shared.wait(guard);
            }
        }
    }
}

/// The work-stealing pool. See the [crate docs](crate) for the lane
/// model and determinism contract; most callers want [`global`].
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
}

impl Pool {
    /// Creates a pool with `threads` persistent compute workers
    /// (clamped to `1..=512`). Blocking-lane crew threads are spawned
    /// lazily on first demand and reused afterwards.
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            inner: OrderedMutex::new(&PARALLEL_INJECTOR, Inner::default()),
            work_available: OrderedCondvar::new(),
            deques: (0..threads)
                .map(|_| OrderedMutex::new(&PARALLEL_DEQUE, VecDeque::new()))
                .collect(),
        });
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let worker_shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("xai-par-cpu-{i}"))
                    .spawn(move || compute_loop(worker_shared, i))
                    .expect("spawn pool worker"),
            );
        }
        shared.lock().handles = handles;
        Pool { shared, threads }
    }

    /// Number of persistent compute workers.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// High-water mark of blocking-lane crew threads ever spawned —
    /// exposed so tests can pin that repeated fan-outs reuse threads
    /// instead of growing the process.
    pub fn crew_threads(&self) -> usize {
        self.shared.lock().crew_spawned
    }

    /// Runs `f` with a compute-lane [`Scope`]: bounded workers plus
    /// the helping caller drain spawned tasks; returns after every
    /// task finished. Re-raises the first task panic.
    ///
    /// Tasks on this lane must be CPU-bound: a compute task that
    /// parks (on a lock held across a rendezvous, a channel, another
    /// task's result) can idle the whole fleet — use
    /// [`Pool::scope_blocking`] for those.
    pub fn scope<'env, F, T>(&'env self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        self.run_scope(Lane::Compute, f)
    }

    /// Runs `f` with a blocking-lane [`Scope`]: every spawned task is
    /// guaranteed a thread of its own (the crew grows to the
    /// high-water mark of demanded concurrency, then is reused), so
    /// tasks may rendezvous with each other — the contract the
    /// `BatchQueue` leader/follower protocol needs. The waiting
    /// caller helps with *compute* tasks in the meantime.
    pub fn scope_blocking<'env, F, T>(&'env self, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        self.run_scope(Lane::Blocking, f)
    }

    /// Runs two closures potentially in parallel (the first on the
    /// pool, the second inline) and returns both results. Panics in
    /// either propagate after both finished.
    pub fn join<'env, A, B, RA, RB>(&'env self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send + 'env,
        B: FnOnce() -> RB,
        RA: Send + 'env,
    {
        let mut slot_a = None;
        let rb = self.scope(|s| {
            let slot_a = &mut slot_a;
            s.spawn(move || {
                *slot_a = Some(a());
            });
            b()
        });
        (slot_a.expect("scope joined the spawned half of join"), rb)
    }

    /// The `par_chunks_mut` of the runtime: splits `data` at fixed
    /// points (`chunk_len` elements per chunk, last one ragged), runs
    /// `f(chunk_index, chunk)` for every chunk on the compute lane,
    /// and returns when all chunks are done.
    ///
    /// Split points depend only on `chunk_len`, never on the worker
    /// count, and each chunk runs the caller's sequential code — this
    /// is the determinism contract that keeps parallel results
    /// bit-identical to serial. On a one-worker pool (or when there is
    /// only one chunk) the chunks simply run in order on the caller.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0`, and re-raises the first panic from
    /// `f` after every chunk finished.
    pub fn par_chunks_mut<'env, T, F>(&'env self, data: &'env mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync + 'env,
    {
        assert!(chunk_len > 0, "par_chunks_mut requires chunk_len > 0");
        if self.threads <= 1 || data.len() <= chunk_len {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
            }
            return;
        }
        self.scope(|s| {
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                let f = &f;
                s.spawn(move || f(i, chunk));
            }
        });
    }

    fn run_scope<'env, F, T>(&'env self, lane: Lane, f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState::default()),
            lane,
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join every task on every path — this wait is what makes the
        // lifetime erasure in `Task::erase` sound.
        scope.wait_all();
        match (result, scope.state.take_panic()) {
            (Err(body_panic), _) => resume_unwind(body_panic),
            (Ok(_), Some(task_panic)) => resume_unwind(task_panic),
            (Ok(value), None) => value,
        }
    }

    /// Worker index of the current thread *in this pool's fleet*, if
    /// the thread is one of this pool's compute workers.
    fn worker_slot(&self) -> Option<usize> {
        WORKER_SLOT
            .with(Cell::get)
            .and_then(|(id, i)| (id == self.shared.id()).then_some(i))
    }

    fn push_task(&self, lane: Lane, task: Task) {
        if lane == Lane::Compute {
            if let Some(i) = self.worker_slot() {
                // Owner push: a worker's own spawn goes to the back of
                // its deque, where the owner pops first (LIFO keeps the
                // working set warm) and thieves steal from the front.
                // The deque lock is released before `inner` is taken to
                // notify — the lock order every other path relies on —
                // and taking `inner` after the push is what lets the
                // notify skip its wake when no worker is parked.
                self.shared.deque(i).push_back(task);
                let _guard = self.shared.lock();
                self.shared.work_available.notify_all();
                return;
            }
        }
        let mut guard = self.shared.lock();
        match lane {
            Lane::Compute => guard.compute.push_back(task),
            Lane::Blocking => {
                guard.blocking.push_back(task);
                // Guarantee a thread per queued blocking task: grow
                // the crew to cover demand, permanently (reuse is the
                // whole point — threads are counted, not churned).
                while guard.blocking.len() > guard.idle_crew {
                    let i = guard.crew_spawned;
                    guard.crew_spawned += 1;
                    guard.idle_crew += 1;
                    let crew_shared = Arc::clone(&self.shared);
                    let handle = std::thread::Builder::new()
                        .name(format!("xai-par-io-{i}"))
                        .spawn(move || crew_loop(crew_shared))
                        .expect("spawn crew thread");
                    guard.handles.push(handle);
                }
            }
        }
        drop(guard);
        self.shared.work_available.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No scope can be alive here (scopes borrow the pool), so the
        // queues are empty; workers just need waking and joining.
        let handles = {
            let mut guard = self.shared.lock();
            guard.shutdown = true;
            std::mem::take(&mut guard.handles)
        };
        self.shared.work_available.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .field("crew_spawned", &self.shared.lock().crew_spawned)
            .finish()
    }
}

fn compute_loop(shared: Arc<Shared>, index: usize) {
    WORKER_SLOT.with(|slot| slot.set(Some((shared.id(), index))));
    let mut guard = shared.lock();
    loop {
        if let Some(task) = shared.next_task(&mut guard, Some(index)) {
            drop(guard);
            task.run();
            guard = shared.lock();
        } else if guard.shutdown {
            return;
        } else {
            guard = shared.wait(guard);
        }
    }
}

fn crew_loop(shared: Arc<Shared>) {
    let mut guard = shared.lock();
    loop {
        if let Some(task) = guard.blocking.pop_front() {
            guard.idle_crew -= 1;
            drop(guard);
            // The task's wrapper restores `idle_crew` itself, just
            // before signalling completion — see `Scope::spawn`.
            task.run();
            guard = shared.lock();
        } else if guard.shutdown {
            return;
        } else {
            guard = shared.wait(guard);
        }
    }
}

/// Parses a worker-count override the way [`global`] treats
/// `XAI_THREADS`: a positive integer wins, anything else falls back.
fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .map(|n| n.min(MAX_THREADS))
}

fn default_threads() -> usize {
    parse_threads(std::env::var("XAI_THREADS").ok().as_deref()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// The process-wide pool every hot path shares, created on first use
/// with `XAI_THREADS` workers if set (clamped to `1..=512`), else
/// `available_parallelism`. Pin `XAI_THREADS=1` to force fully serial
/// execution; results are bit-identical either way. To pin the size
/// programmatically (e.g. from a test harness, where mutating the
/// environment of an already-threaded process is hazardous), call
/// [`init_global`] before anything touches the pool.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Explicitly initialises the [`global`] pool with `threads` workers
/// (clamped to `1..=512`), taking precedence over `XAI_THREADS`.
/// First initialisation wins: returns `true` if this call created the
/// pool, `false` if it already existed (with whatever size it got) —
/// callers that require the size should assert on
/// `global().num_threads()`.
pub fn init_global(threads: usize) -> bool {
    let mut created = false;
    GLOBAL.get_or_init(|| {
        created = true;
        Pool::new(threads)
    });
    created
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_rules() {
        assert_eq!(parse_threads(Some("7")), Some(7));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("100000")), Some(MAX_THREADS));
    }

    #[test]
    fn scope_joins_before_returning() {
        let pool = Pool::new(3);
        let mut hits = [false; 17];
        pool.scope(|s| {
            for slot in hits.iter_mut() {
                s.spawn(move || *slot = true);
            }
        });
        assert!(hits.iter().all(|&h| h));
    }

    #[test]
    fn join_returns_both_sides() {
        let pool = Pool::new(2);
        let (a, b) = pool.join(|| (0..100).sum::<u64>(), || "inline");
        assert_eq!(a, 4950);
        assert_eq!(b, "inline");
    }

    #[test]
    fn one_worker_pool_runs_serially_in_order() {
        let pool = Pool::new(1);
        let order: OrderedMutex<Vec<usize>> = OrderedMutex::default();
        pool.par_chunks_mut(&mut [0u8; 10], 3, |i, _| order.lock_recover().push(i));
        assert_eq!(order.into_inner(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Pool::new(4);
        let mut data = vec![0u32; 100];
        pool.par_chunks_mut(&mut data, 7, |i, c| {
            c.iter_mut().for_each(|v| *v = i as u32)
        });
        drop(pool); // must not hang or leak
        assert_eq!(data[99], (100 / 7) as u32);
    }

    #[test]
    #[should_panic(expected = "chunk_len > 0")]
    fn zero_chunk_rejected() {
        Pool::new(1).par_chunks_mut(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn nested_scope_on_one_worker_pool_drains_own_deque() {
        // A worker's own spawns land in its own deque; its nested
        // wait must drain that deque or a one-worker pool deadlocks.
        let pool = Pool::new(1);
        let hits = AtomicUsize::new(0);
        pool.scope(|s| {
            let (pool, hits) = (&pool, &hits);
            s.spawn(move || {
                pool.scope(|inner| {
                    for _ in 0..5 {
                        inner.spawn(|| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                hits.fetch_add(100, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 105);
    }

    #[test]
    fn recursive_spawns_complete_across_pool_sizes() {
        // Fan-out from inside worker tasks: owner pushes plus thief
        // steal-half must account for every task exactly once.
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let count = AtomicUsize::new(0);
            pool.scope(|s| {
                let (pool, count) = (&pool, &count);
                for _ in 0..8 {
                    s.spawn(move || {
                        count.fetch_add(1, Ordering::SeqCst);
                        // Nested fan-out from a worker thread: these
                        // land on the worker's own deque and are either
                        // drained by it or stolen in halves.
                        pool.scope(|inner| {
                            for _ in 0..16 {
                                inner.spawn(|| {
                                    count.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        });
                    });
                }
            });
            assert_eq!(
                count.load(Ordering::SeqCst),
                8 + 8 * 16,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_spawns_route_to_other_pools_injector() {
        // A task of pool A driving pool B must not push into A's (or a
        // phantom) deque: the worker-slot tag is per-pool identity.
        let a = Pool::new(2);
        let b = Pool::new(2);
        let total = AtomicUsize::new(0);
        a.scope(|s| {
            let (b, total) = (&b, &total);
            s.spawn(move || {
                b.scope(|sb| {
                    for _ in 0..6 {
                        sb.spawn(|| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 6);
    }
}
