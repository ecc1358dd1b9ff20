//! Cross-request batching: a submission queue that coalesces work
//! arriving from concurrent threads into single device dispatches.
//!
//! The paper's §III-D multi-input parallelism assumes the batch is
//! already assembled. In a serving deployment it is not: N request
//! threads each show up with their own handful of transforms, and
//! dispatching them per-request issues O(N·phases) device phases and
//! collectives. [`BatchQueue`] closes that gap with a leader/follower
//! protocol: the first submitter of a *flight* becomes its leader,
//! waits a bounded batching window for peers (dispatching immediately
//! once [`BatchQueue::max_lanes`] work items are pending), then runs
//! the caller-supplied dispatch once over the coalesced batch —
//! typically one [`crate::TpuDevice::run_phase`] with each item on
//! its own core lane and one `cross_replica_sum` per transform stage.
//! Followers block until the flight lands and receive exactly their
//! items' results, in submission order.
//!
//! The queue is deliberately generic over work/result types so the
//! accelerator layer can route *every* kernel kind through one queue
//! without this crate knowing about plan caches or cost models.
//! [`KernelJob`] is the ready-made payload for that: a shape-only lane
//! descriptor — the submitter has already computed its numerics, so a
//! flight carries no operand — and one flight can mix transform,
//! elementwise, matmul and score lanes, sharding across a
//! [`crate::DevicePool`] exactly like a homogeneous one.

use crate::shared::SharedDevice;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xai_sync::{LockClass, OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use xai_tensor::{Result, TensorError};

/// The flight-forming queue state. Ranked between the serving front
/// door (whose workers submit into queues) and the device locks a
/// leader charges while the flight state is briefly re-held.
static TPU_QUEUE: LockClass = LockClass::new("tpu::queue", 20);

/// A [`ManualTime`]'s clock cell — a deep leaf: a flight leader
/// reads the queue clock while holding the queue state.
static TPU_QUEUE_TIME: LockClass = LockClass::new("tpu::queue_time", 56);

/// The time source a [`BatchQueue`] measures its batching window on.
///
/// Production queues run on [`WallTime`]; the queue's own
/// deterministic tests substitute [`ManualTime`], whose `now` only
/// moves when the test advances it — so window-expiry behaviour can be
/// pinned exactly instead of raced against the host scheduler. (The
/// serving layer's simulated-clock suites keep their own virtual clock,
/// `xai_serve::SimClock`.)
pub trait QueueTime: Send + Sync + std::fmt::Debug {
    /// Monotonic elapsed time since an arbitrary epoch.
    fn now(&self) -> Duration;

    /// Upper bound on the *real* time a leader may block waiting for
    /// arrivals when `remaining` window time is left on this source.
    /// Wall clocks return `remaining` (one sleep covers the window);
    /// manual clocks return a short poll slice so the leader re-reads
    /// the clock promptly after a test advances it.
    fn wait_hint(&self, remaining: Duration) -> Duration {
        remaining
    }
}

/// The default [`QueueTime`]: real monotonic wall time.
#[derive(Debug)]
pub struct WallTime {
    epoch: Instant,
}

impl WallTime {
    /// A wall-time source with its epoch at construction.
    pub fn new() -> Self {
        WallTime {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallTime {
    fn default() -> Self {
        Self::new()
    }
}

impl QueueTime for WallTime {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A manually-advanced [`QueueTime`] for deterministic window tests:
/// `now` is frozen until [`ManualTime::advance`] (or
/// [`ManualTime::set`]) moves it, so a flight's window expires exactly
/// when the test says it does, never when the host scheduler does.
///
/// Cheap to clone; clones share the same clock.
#[derive(Debug, Clone)]
pub struct ManualTime {
    now: Arc<OrderedMutex<Duration>>,
}

impl ManualTime {
    /// A manual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `dt`.
    pub fn advance(&self, dt: Duration) {
        *self.now.lock_recover() += dt;
    }

    /// Jumps the clock to an absolute reading (must not move
    /// backwards; a backwards set is clamped to the current reading).
    pub fn set(&self, t: Duration) {
        let mut now = self.now.lock_recover();
        *now = t.max(*now);
    }
}

impl Default for ManualTime {
    fn default() -> Self {
        ManualTime {
            now: Arc::new(OrderedMutex::new(&TPU_QUEUE_TIME, Duration::ZERO)),
        }
    }
}

impl QueueTime for ManualTime {
    fn now(&self) -> Duration {
        *self.now.lock_recover()
    }

    fn wait_hint(&self, _remaining: Duration) -> Duration {
        // Poll slice: the manual clock can be advanced at any moment
        // by another thread, so the leader re-reads it every
        // millisecond of real time rather than sleeping out a window
        // that may never elapse on this source.
        Duration::from_millis(1)
    }
}

/// One lane of a kernel-generic flight: the work-item descriptor an
/// accelerator layer routes through a single [`BatchQueue`] so one
/// coalesced dispatch can mix kernel kinds — 2-D transforms,
/// elementwise vector work, real matmuls and contribution scores ride
/// the same flight and shard across a [`crate::DevicePool`] together.
///
/// A lane is its kernel's kind and shapes, nothing else: the caller
/// computes the numerics before it submits, and every charge the
/// modelled device pays — planning, dispatch, retries, the ledger — is
/// a function of the shapes alone. A transform lane prices the forward
/// and the inverse alike, so it carries no direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelJob {
    /// A whole 2-D Fourier transform of a `rows × cols` input.
    Transform {
        /// Input rows.
        rows: usize,
        /// Input columns.
        cols: usize,
    },
    /// An elementwise Hadamard product `a ∘ b` of `elems` elements on
    /// the vector units.
    Hadamard {
        /// Elements per operand.
        elems: usize,
    },
    /// An elementwise division `a ⊘ b` of `elems` elements.
    PointwiseDiv {
        /// Elements per operand.
        elems: usize,
    },
    /// An elementwise difference `a − b` of `elems` elements (the
    /// Equation-5 residual).
    Sub {
        /// Elements per operand.
        elems: usize,
    },
    /// A real matrix product `m×k · k×n` on the systolic MXU.
    Matmul {
        /// Rows of the left factor.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of the right factor.
        n: usize,
    },
    /// One contribution score `‖y − x′ ∗ k‖_F` of a `rows × cols`
    /// input (Equation 5). The modelled device runs the fused fft →
    /// hadamard → ifft → sub chain on the occlusion as one lane — one
    /// real gather instead of four per-stage round-trips, per-stage
    /// charges identical to the staged chain — however the host
    /// computed the score.
    Score {
        /// Input rows.
        rows: usize,
        /// Input columns.
        cols: usize,
    },
}

impl KernelJob {
    /// Short static label of the lane's kernel kind, for traces and
    /// error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            KernelJob::Transform { .. } => "transform",
            KernelJob::Hadamard { .. } => "hadamard",
            KernelJob::PointwiseDiv { .. } => "pointwise-div",
            KernelJob::Sub { .. } => "sub",
            KernelJob::Matmul { .. } => "matmul",
            KernelJob::Score { .. } => "score",
        }
    }
}

/// A coalescing submission queue in front of one [`SharedDevice`].
///
/// Cheap to share behind an `Arc`; see the [module docs](self) for
/// the protocol. Three knobs govern a flight:
///
/// * `window` — how long a leader waits for peers before dispatching
///   whatever is pending (a zero window dispatches immediately, which
///   disables cross-thread coalescing but keeps the code path);
/// * `max_lanes` — a flight dispatches as soon as this many work
///   items are pending, without waiting out the window. Sizing it to
///   the device core count fills every lane of one phase.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use xai_tpu::{BatchQueue, SharedDevice, TpuConfig};
///
/// let dev = SharedDevice::new(TpuConfig::small_test());
/// let queue: BatchQueue<u64, u64> = BatchQueue::new(dev, Duration::ZERO, 2);
/// let doubled = queue
///     .submit(vec![1, 2, 3], |_device, items| {
///         Ok(items.into_iter().map(|v| v * 2).collect())
///     })
///     .unwrap();
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
#[derive(Debug)]
pub struct BatchQueue<W, R> {
    device: SharedDevice,
    window: Duration,
    max_lanes: usize,
    /// The clock the batching window is measured on (wall time unless
    /// constructed through [`BatchQueue::with_time`]).
    time: Arc<dyn QueueTime>,
    state: OrderedMutex<QueueState<W, R>>,
    /// Wakes the current leader when followers add lanes.
    arrivals: OrderedCondvar,
    /// Wakes followers when a flight lands.
    completions: OrderedCondvar,
}

#[derive(Debug)]
struct QueueState<W, R> {
    /// Id of the flight currently forming.
    generation: u64,
    /// Work items of the forming flight, in submission order.
    pending: Vec<W>,
    /// When the forming flight's *first* lane was enqueued, on the
    /// queue's [`QueueTime`]. The batching window is anchored here —
    /// not at whenever the leader gets around to waiting — so a
    /// slowly-scheduled leader can never stretch the window beyond
    /// `window` for the lanes already pending.
    window_open: Option<Duration>,
    /// Submissions participating in the forming flight.
    submissions: usize,
    /// Whether the forming flight already has a leader.
    has_leader: bool,
    /// Completed flights awaiting collection, keyed by generation.
    landed: HashMap<u64, Landing<R>>,
}

#[derive(Debug)]
struct Landing<R> {
    /// Per-item result slots (taken once each) or the flight's error,
    /// which every submitter of the flight receives.
    outcome: Result<Vec<Option<R>>>,
    /// Submissions that still have to collect from this landing.
    outstanding: usize,
}

impl<W: Send, R: Send> BatchQueue<W, R> {
    /// Creates a queue over `device` with the given batching `window`
    /// and early-dispatch threshold (`max_lanes` is clamped to ≥ 1),
    /// measuring the window on real wall time.
    pub fn new(device: SharedDevice, window: Duration, max_lanes: usize) -> Self {
        Self::with_time(device, window, max_lanes, Arc::new(WallTime::new()))
    }

    /// Like [`BatchQueue::new`], but the batching window is measured
    /// on the supplied [`QueueTime`] — a [`ManualTime`] makes window
    /// expiry fully deterministic for tests and simulated serving.
    pub fn with_time(
        device: SharedDevice,
        window: Duration,
        max_lanes: usize,
        time: Arc<dyn QueueTime>,
    ) -> Self {
        BatchQueue {
            device,
            window,
            max_lanes: max_lanes.max(1),
            time,
            state: OrderedMutex::new(
                &TPU_QUEUE,
                QueueState {
                    generation: 0,
                    pending: Vec::new(),
                    window_open: None,
                    submissions: 0,
                    has_leader: false,
                    landed: HashMap::new(),
                },
            ),
            arrivals: OrderedCondvar::new(),
            completions: OrderedCondvar::new(),
        }
    }

    /// The device this queue dispatches to.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// The batching window a leader waits for peers.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The lane count that triggers dispatch before the window ends.
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Lanes currently enqueued in the *forming* flight (work items
    /// accepted but not yet dispatched). The serving layer reads this
    /// as device backpressure: admission control can translate a deep
    /// forming flight into an expected queueing delay and shed
    /// deadline-doomed requests before they cost anything.
    pub fn pending_lanes(&self) -> usize {
        self.lock().pending.len()
    }

    /// Submits `items` and blocks until their results are available,
    /// returning them in the order given. One submitter per flight —
    /// the leader — executes `dispatch` over the *whole* coalesced
    /// batch; every submitter passes an equivalent closure so it does
    /// not matter who wins. An empty submission returns immediately.
    ///
    /// # Errors
    ///
    /// Propagates the flight's dispatch error to every participating
    /// submitter, [`TensorError::DataLength`] when `dispatch` returns
    /// a result count that does not match the batch, and
    /// [`TensorError::WorkerPanicked`] to followers whose leader
    /// panicked mid-dispatch (the panic itself resumes on the
    /// leader's thread).
    pub fn submit(
        &self,
        items: Vec<W>,
        dispatch: impl FnOnce(&SharedDevice, Vec<W>) -> Result<Vec<R>>,
    ) -> Result<Vec<R>> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let mut st = self.lock();
        let generation = st.generation;
        let offset = st.pending.len();
        let count = items.len();
        if st.pending.is_empty() {
            // First enqueue of this flight: the batching window opens
            // *now*, whoever ends up leading and however slowly they
            // reach their wait loop.
            st.window_open = Some(self.time.now());
        }
        st.pending.extend(items);
        st.submissions += 1;
        if st.has_leader {
            // Follower: wake the leader in case our lanes crossed the
            // early-dispatch threshold, then wait for the landing.
            self.arrivals.notify_all();
        } else {
            st.has_leader = true;
            st = self.run_flight(st, generation, dispatch);
        }
        self.collect(st, generation, offset, count)
    }

    /// Leader path: waits out the batching window (or `max_lanes`),
    /// closes the flight, runs `dispatch` outside the queue lock and
    /// publishes the landing.
    fn run_flight<'q>(
        &'q self,
        mut st: OrderedMutexGuard<'q, QueueState<W, R>>,
        generation: u64,
        dispatch: impl FnOnce(&SharedDevice, Vec<W>) -> Result<Vec<R>>,
    ) -> OrderedMutexGuard<'q, QueueState<W, R>> {
        // The window is anchored at the flight's FIRST enqueue (not at
        // this leader's arrival in the wait loop): lanes already
        // pending dispatch no later than `window_open + window`, even
        // when the leading thread is scheduled late. Every wake —
        // arrival notify, timeout or spurious — re-reads the queue's
        // clock, so a [`ManualTime`] drives this loop deterministically.
        while st.pending.len() < self.max_lanes {
            let now = self.time.now();
            let deadline = st.window_open.unwrap_or(now) + self.window;
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .arrivals
                .wait_timeout(st, self.time.wait_hint(deadline - now));
            st = guard;
        }
        // Close the flight: later submitters start the next one.
        let batch = std::mem::take(&mut st.pending);
        let submissions = std::mem::replace(&mut st.submissions, 0);
        let lanes = batch.len();
        st.window_open = None;
        st.generation += 1;
        st.has_leader = false;
        drop(st);

        // Dispatch outside the lock so new flights can form while the
        // device runs. A panicking dispatch still lands an error for
        // the followers (then resumes on this thread) — otherwise one
        // crashed leader would strand every follower forever.
        let outcome = match catch_unwind(AssertUnwindSafe(|| dispatch(&self.device, batch))) {
            Ok(Ok(results)) if results.len() == lanes => {
                Ok(results.into_iter().map(Some).collect())
            }
            Ok(Ok(results)) => Err(TensorError::DataLength {
                expected: lanes,
                actual: results.len(),
            }),
            Ok(Err(e)) => Err(e),
            Err(payload) => {
                // The leader never collects after a panic, so only
                // land an error entry when followers are waiting.
                if submissions > 1 {
                    let mut st = self.lock();
                    st.landed.insert(
                        generation,
                        Landing {
                            outcome: Err(TensorError::WorkerPanicked {
                                op: "batch queue dispatch",
                            }),
                            outstanding: submissions - 1,
                        },
                    );
                    self.completions.notify_all();
                    drop(st);
                }
                resume_unwind(payload);
            }
        };
        let mut st = self.lock();
        st.landed.insert(
            generation,
            Landing {
                outcome,
                outstanding: submissions,
            },
        );
        self.completions.notify_all();
        st
    }

    /// Takes this submission's slice of its flight's results, waiting
    /// for the landing if necessary.
    fn collect(
        &self,
        mut st: OrderedMutexGuard<'_, QueueState<W, R>>,
        generation: u64,
        offset: usize,
        count: usize,
    ) -> Result<Vec<R>> {
        loop {
            if let Some(landing) = st.landed.get_mut(&generation) {
                let taken = match &mut landing.outcome {
                    Ok(slots) => Ok(slots[offset..offset + count]
                        .iter_mut()
                        .map(|s| s.take().expect("each result slot is taken exactly once"))
                        .collect()),
                    Err(e) => Err(e.clone()),
                };
                landing.outstanding -= 1;
                if landing.outstanding == 0 {
                    st.landed.remove(&generation);
                }
                return taken;
            }
            st = self.completions.wait(st);
        }
    }

    fn lock(&self) -> OrderedMutexGuard<'_, QueueState<W, R>> {
        self.state.lock_recover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpuConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// When the forming flight's first lane was enqueued, on the
    /// queue's [`QueueTime`] — `None` while no flight is forming. The
    /// flight dispatches no later than this instant plus the window.
    fn window_open_at<W: Send, R: Send>(q: &BatchQueue<W, R>) -> Option<Duration> {
        q.lock().window_open
    }

    /// How long a test whose flights dispatch on `max_lanes` may take:
    /// well under the 60 s straggler window, so a flight that waited the
    /// window out fails instead of passing slowly.
    const STRAGGLER_BOUND: Duration = Duration::from_secs(30);

    fn queue(window_ms: u64, max_lanes: usize) -> BatchQueue<u64, u64> {
        BatchQueue::new(
            SharedDevice::new(TpuConfig::small_test()),
            Duration::from_millis(window_ms),
            max_lanes,
        )
    }

    #[test]
    fn empty_submission_returns_without_dispatch() {
        let q = queue(0, 4);
        let out = q
            .submit(vec![], |_, _| panic!("must not dispatch an empty flight"))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_submitter_results_in_order() {
        let q = queue(0, 8);
        let out = q
            .submit(vec![3, 1, 4, 1, 5], |_, items| {
                Ok(items.into_iter().map(|v| v * 10).collect())
            })
            .unwrap();
        assert_eq!(out, vec![30, 10, 40, 10, 50]);
    }

    #[test]
    fn dispatch_errors_propagate() {
        let q = queue(0, 8);
        let err = q
            .submit(vec![1], |_, _| {
                Err::<Vec<u64>, _>(TensorError::EmptyDimension)
            })
            .unwrap_err();
        assert_eq!(err, TensorError::EmptyDimension);
        // The queue still serves after an errored flight.
        assert_eq!(q.submit(vec![2], |_, v| Ok(v)).unwrap(), vec![2]);
    }

    #[test]
    fn wrong_result_arity_is_an_error_not_a_hang() {
        let q = queue(0, 8);
        let err = q.submit(vec![1, 2], |_, _| Ok(vec![7])).unwrap_err();
        assert!(matches!(
            err,
            TensorError::DataLength {
                expected: 2,
                actual: 1
            }
        ));
    }

    #[test]
    fn concurrent_submissions_coalesce_into_one_flight() {
        let threads = 4usize;
        let lanes_per = 3usize;
        // max_lanes equals the total, so the flight dispatches the
        // moment everyone has submitted — deterministic coalescing
        // (the long window is only the straggler guard).
        let q = Arc::new(queue(60_000, threads * lanes_per));
        let dispatches = AtomicUsize::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let q = Arc::clone(&q);
                    let dispatches = &dispatches;
                    scope.spawn(move || {
                        let items: Vec<u64> = (0..lanes_per as u64).map(|i| t * 100 + i).collect();
                        let expect: Vec<u64> = items.iter().map(|v| v + 1).collect();
                        let got = q
                            .submit(items, |_, batch| {
                                dispatches.fetch_add(1, Ordering::SeqCst);
                                Ok(batch.into_iter().map(|v| v + 1).collect())
                            })
                            .unwrap();
                        assert_eq!(got, expect, "each submitter gets exactly its own results");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched the flight"
        );
        assert_eq!(
            dispatches.load(Ordering::SeqCst),
            1,
            "all submissions must ride one coalesced flight"
        );
    }

    #[test]
    fn window_expires_at_first_enqueue_plus_window_on_the_queue_clock() {
        let time = ManualTime::new();
        time.set(Duration::from_secs(10));
        let q: Arc<BatchQueue<u64, u64>> = Arc::new(BatchQueue::with_time(
            SharedDevice::new(TpuConfig::small_test()),
            Duration::from_secs(5),
            64,
            Arc::new(time.clone()),
        ));
        let dispatched_at = Arc::new(OrderedMutex::<Option<Duration>>::default());
        std::thread::scope(|scope| {
            let leader = {
                let q = Arc::clone(&q);
                let time = time.clone();
                let dispatched_at = Arc::clone(&dispatched_at);
                scope.spawn(move || {
                    q.submit(vec![1], move |_, v| {
                        let at = time.now();
                        *dispatched_at.lock_recover() = Some(at);
                        Ok(v)
                    })
                })
            };
            // The first enqueue anchors the window at t = 10 s.
            while q.pending_lanes() < 1 {
                std::thread::yield_now();
            }
            assert_eq!(window_open_at(&q), Some(Duration::from_secs(10)));

            // A follower arriving at t = 13 s must not re-anchor it.
            time.set(Duration::from_secs(13));
            let follower = {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    q.submit(vec![2], |_, _| unreachable!("the follower never leads"))
                })
            };
            while q.pending_lanes() < 2 {
                std::thread::yield_now();
            }
            assert_eq!(window_open_at(&q), Some(Duration::from_secs(10)));

            // While the queue clock is frozen short of the deadline the
            // flight stays open no matter how much real time passes...
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(q.pending_lanes(), 2, "window must not expire on wall time");

            // ...and crossing first-enqueue + window releases it.
            time.set(Duration::from_secs(15));
            assert_eq!(leader.join().unwrap().unwrap(), vec![1]);
            assert_eq!(follower.join().unwrap().unwrap(), vec![2]);
        });
        assert_eq!(
            *dispatched_at.lock_recover(),
            Some(Duration::from_secs(15)),
            "dispatch is pinned at first-enqueue + window on the queue clock"
        );
        assert_eq!(
            window_open_at(&q),
            None,
            "the window anchor clears when the flight closes"
        );
    }

    #[test]
    fn leader_panic_fails_followers_instead_of_stranding_them() {
        let q = Arc::new(queue(60_000, 2));
        let started = Instant::now();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let q = Arc::clone(&q);
                    scope.spawn(move || {
                        // Stagger so thread 0 reliably leads.
                        if i == 1 {
                            std::thread::sleep(Duration::from_millis(50));
                        }
                        q.submit(vec![i], |_, _| panic!("leader crash"))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| ()))
                .collect::<Vec<_>>()
        });
        // Exactly one thread led the flight and re-raised the panic;
        // the other observed WorkerPanicked instead of hanging.
        let panicked = results.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "exactly one leader panics: {results:?}");
        let follower = results
            .into_iter()
            .find_map(|r| r.ok())
            .expect("one follower result");
        assert!(matches!(
            follower.unwrap_err(),
            TensorError::WorkerPanicked { .. }
        ));
        // And the queue recovers for the next flight (two lanes so
        // the early-dispatch threshold fires instead of the window).
        assert_eq!(q.submit(vec![8, 9], |_, v| Ok(v)).unwrap(), vec![8, 9]);
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched both flights"
        );
    }

    #[test]
    fn sequential_flights_advance_generations() {
        let q = queue(0, 1);
        for round in 0..5u64 {
            let out = q.submit(vec![round], |_, v| Ok(v)).unwrap();
            assert_eq!(out, vec![round]);
        }
    }

    #[test]
    fn kernel_job_kinds_are_labelled() {
        let jobs = [
            KernelJob::Transform { rows: 2, cols: 2 },
            KernelJob::Hadamard { elems: 4 },
            KernelJob::PointwiseDiv { elems: 4 },
            KernelJob::Sub { elems: 4 },
            KernelJob::Matmul { m: 2, k: 2, n: 2 },
            KernelJob::Score { rows: 2, cols: 2 },
        ];
        let kinds: Vec<_> = jobs.iter().map(KernelJob::kind).collect();
        assert_eq!(
            kinds,
            vec![
                "transform",
                "hadamard",
                "pointwise-div",
                "sub",
                "matmul",
                "score"
            ]
        );
    }

    /// The queue is payload-generic: a mixed-kind flight of
    /// [`KernelJob`] lanes from two submitters coalesces and returns
    /// per-lane results in submission order, whatever the mix.
    #[test]
    fn mixed_kernel_jobs_ride_one_queue() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        let q: Arc<BatchQueue<KernelJob, KernelJob>> =
            Arc::new(BatchQueue::new(dev, Duration::from_secs(60), 5));
        let submissions = [
            vec![
                KernelJob::Hadamard { elems: 16 },
                KernelJob::Transform { rows: 4, cols: 4 },
                KernelJob::Score { rows: 4, cols: 4 },
            ],
            vec![
                KernelJob::Sub { elems: 16 },
                KernelJob::Matmul { m: 4, k: 2, n: 3 },
            ],
        ];
        let flights = AtomicUsize::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for jobs in &submissions {
                let (q, flights) = (Arc::clone(&q), &flights);
                scope.spawn(move || {
                    let out = q.submit(jobs.clone(), |_, flight| {
                        flights.fetch_add(1, Ordering::SeqCst);
                        Ok(flight)
                    });
                    assert_eq!(
                        out.unwrap(),
                        *jobs,
                        "each submitter gets its own lanes back"
                    );
                });
            }
        });
        assert!(
            started.elapsed() < STRAGGLER_BOUND,
            "max_lanes dispatched the flight"
        );
        assert_eq!(flights.load(Ordering::SeqCst), 1, "one mixed flight");
    }

    #[test]
    fn dispatch_sees_the_shared_device() {
        let dev = SharedDevice::new(TpuConfig::small_test());
        let q: BatchQueue<usize, usize> = BatchQueue::new(dev.clone(), Duration::ZERO, 4);
        let out = q
            .submit(vec![4, 8], |device, sizes| {
                device.with(|d| {
                    d.run_phase(sizes.iter().copied(), |core, n| {
                        core.charge_matmul_work(n, n, n, 1)
                    })
                })?;
                Ok(sizes.iter().map(|n| n * n).collect())
            })
            .unwrap();
        assert_eq!(out, vec![16, 64]);
        assert!(dev.wall_seconds() > 0.0, "dispatch charged the device");
        assert!(q.device().same_device(&dev));
    }
}
