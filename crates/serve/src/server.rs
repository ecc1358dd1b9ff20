//! The threaded serving front door — an mpsc/condvar request loop over
//! a shared [`Accelerator`] — and the per-request serving core
//! (`serve_pending`) it shares with [`crate::SimServer`].

use crate::clock::{TimeSource, WallClock};
use crate::queue::{AdmissionQueue, Pending, ShedPolicy};
use crate::request::{retryable_kernel_error, run_job, ExplainJob, ResponseHandle, ServeError};
use std::sync::Arc;
use xai_sync::{LockClass, OrderedCondvar, OrderedMutex, OrderedMutexGuard};

/// The admission queue + drain state: the outermost lock of the
/// serving stack — a worker that popped a request goes on to take
/// queue, pool and device locks while this one is long released,
/// but admission checks may read queue depth while holding it.
static SERVE_STATE: LockClass = LockClass::new("serve::state", 10);
use std::thread::JoinHandle;
use xai_accel::Accelerator;
use xai_core::DistilledModel;

/// Serving knobs: queue bound, shedding policy, worker parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission-queue capacity — arrivals beyond it are shed
    /// according to `policy` instead of queueing unboundedly.
    pub capacity: usize,
    /// What to shed when the queue is full.
    pub policy: ShedPolicy,
    /// Worker threads draining the queue. Each worker drives the
    /// shared accelerator concurrently, so on a batching accelerator
    /// in-flight requests coalesce into shared device flights.
    pub workers: usize,
    /// Extra attempts for a request whose kernel failed *transiently*
    /// (fault-injection budget exhausted, panicked flight dispatch). A
    /// retry is only taken while it can still finish inside the
    /// request's deadline; deterministic kernel errors (shape
    /// mismatch, strict ÷0, …) are never retried. `0` disables
    /// serving-level retry entirely.
    pub retry_budget: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 64,
            policy: ShedPolicy::RejectNewest,
            workers: 2,
            retry_budget: 0,
        }
    }
}

/// What shutdown does with requests still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Serve everything already admitted, then stop.
    Drain,
    /// Resolve everything still queued with
    /// [`ServeError::ShuttingDown`], serve only what is already on a
    /// worker, then stop.
    Reject,
}

#[derive(Debug)]
struct State {
    queue: AdmissionQueue,
    stopping: Option<DrainMode>,
}

struct Shared {
    acc: Arc<dyn Accelerator>,
    model: DistilledModel,
    clock: Arc<dyn TimeSource>,
    state: OrderedMutex<State>,
    arrivals: OrderedCondvar,
    retry_budget: usize,
}

impl Shared {
    fn lock(&self) -> OrderedMutexGuard<'_, State> {
        self.state.lock_recover()
    }
}

/// The serving front door: submissions become [`ResponseHandle`]s,
/// worker threads drain a bounded admission queue onto one shared
/// [`Accelerator`], and saturation produces fast
/// [`ServeError::Rejected`] / [`ServeError::DeadlineExceeded`] errors
/// instead of unbounded latency.
///
/// Deadlines are checked twice: at dequeue (an already-dead request is
/// dropped without touching the device) and at completion (a result
/// that arrives late resolves `DeadlineExceeded`, never a stale `Ok`).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xai_accel::{Accelerator, TpuAccel};
/// use xai_core::{DistilledModel, SolveStrategy};
/// use xai_serve::{ExplainJob, ExplainServer, JobOutput, ServeConfig};
/// use xai_tensor::{conv::conv2d_circular, Matrix};
///
/// # fn main() -> Result<(), xai_tensor::TensorError> {
/// let k = Matrix::from_fn(8, 8, |r, c| ((r + c * 3) % 5) as f64 * 0.25)?;
/// let x = Matrix::from_fn(8, 8, |r, c| ((r * 5 + c) % 9) as f64 - 4.0)?;
/// let y = conv2d_circular(&x, &k)?;
/// let model = DistilledModel::fit(&[(x.clone(), y.clone())], SolveStrategy::default())?;
///
/// let acc: Arc<dyn Accelerator> = Arc::new(TpuAccel::with_cores(4));
/// let server = ExplainServer::new(acc, model, ServeConfig::default());
/// let handle = server.submit(ExplainJob::Contributions { x, y, grid: 2 }, 3600.0);
/// match handle.wait() {
///     Ok(JobOutput::Map(map)) => assert_eq!(map.shape(), (2, 2)),
///     other => panic!("unexpected: {other:?}"),
/// }
/// # Ok(())
/// # }
/// ```
pub struct ExplainServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExplainServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExplainServer")
            .field("workers", &self.workers.len())
            .field("queue_len", &self.queue_len())
            .finish()
    }
}

impl ExplainServer {
    /// Starts a server over `acc` on real wall time.
    pub fn new(acc: Arc<dyn Accelerator>, model: DistilledModel, config: ServeConfig) -> Self {
        Self::with_clock(acc, model, config, Arc::new(WallClock::new()))
    }

    /// Starts a server measuring deadlines and latencies on `clock` —
    /// the deterministic test suites substitute a
    /// [`crate::SimClock`].
    pub fn with_clock(
        acc: Arc<dyn Accelerator>,
        model: DistilledModel,
        config: ServeConfig,
        clock: Arc<dyn TimeSource>,
    ) -> Self {
        let shared = Arc::new(Shared {
            acc,
            model,
            clock,
            state: OrderedMutex::new(
                &SERVE_STATE,
                State {
                    queue: AdmissionQueue::new(config.capacity, config.policy),
                    stopping: None,
                },
            ),
            arrivals: OrderedCondvar::new(),
            retry_budget: config.retry_budget,
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("xai-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        ExplainServer { shared, workers }
    }

    /// Submits a request with a deadline `deadline_s` seconds from
    /// now, returning immediately with a handle. A shed request's
    /// handle is already resolved when this returns — saturation is a
    /// fast error, never a blocked submitter.
    pub fn submit(&self, job: ExplainJob, deadline_s: f64) -> ResponseHandle {
        let now = self.shared.clock.now_s();
        let handle = {
            let mut st = self.shared.lock();
            if st.stopping.is_some() {
                drop(st);
                let handle = ResponseHandle::pending(now, now + deadline_s);
                handle.fulfill(Err(ServeError::ShuttingDown), now);
                return handle;
            }
            // Reading the healthy fraction takes fault/quarantine
            // locks, and resolving a shed victim takes its response
            // lock: all ranked above serve::state, so the nesting is
            // lockdep-clean.
            let healthy = self.shared.acc.healthy_fraction();
            st.queue.admit(healthy, job, now, deadline_s)
        };
        // Admitted under the state lock: a worker about to park has
        // raised the condvar's waiter count, so this wake reaches it.
        self.shared.arrivals.notify_one();
        handle
    }

    /// Requests currently admitted but not yet picked up by a worker.
    pub fn queue_len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Deepest queue occupancy observed so far (never exceeds the
    /// configured capacity).
    pub fn high_water(&self) -> usize {
        self.shared.lock().queue.high_water()
    }

    /// The configured shedding policy.
    pub fn policy(&self) -> ShedPolicy {
        self.shared.lock().queue.policy()
    }

    /// The backpressure signal: admitted-but-unserved requests plus
    /// kernel lanes already enqueued on the accelerator's coalescing
    /// queue but not yet dispatched
    /// ([`Accelerator::queue_depth`]).
    pub fn pressure(&self) -> usize {
        self.queue_len() + self.shared.acc.queue_depth()
    }

    /// Stops the server: no further admissions, queued requests
    /// drained or rejected per `mode`, workers joined. Every handle
    /// ever returned by [`ExplainServer::submit`] is resolved when
    /// this returns.
    pub fn shutdown(mut self, mode: DrainMode) {
        self.shutdown_inner(mode);
    }

    fn shutdown_inner(&mut self, mode: DrainMode) {
        let victims = {
            let mut st = self.shared.lock();
            if st.stopping.is_none() {
                st.stopping = Some(mode);
            }
            match mode {
                DrainMode::Reject => st.queue.drain_all(),
                DrainMode::Drain => Vec::new(),
            }
        };
        let now = self.shared.clock.now_s();
        for victim in victims {
            victim.handle.fulfill(Err(ServeError::ShuttingDown), now);
        }
        self.shared.arrivals.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ExplainServer {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner(DrainMode::Drain);
        }
    }
}

fn worker_loop(shared: &Shared) {
    // The last request's handle, released one request late: by then its
    // client has almost always dropped its own, so the response this
    // thread allocated is freed here — not by the client's thread, into
    // the client's allocator cache, whence its next retained clone
    // would land in (and fragment) this worker's arena.
    let mut served: Option<ResponseHandle> = None;
    loop {
        let pending = {
            let mut st = shared.lock();
            loop {
                if let Some(p) = st.queue.pop() {
                    break p;
                }
                if st.stopping.is_some() {
                    return; // queue empty and stopping: done
                }
                st = shared.arrivals.wait(st);
            }
        };
        let handle = pending.handle.clone();
        serve_pending(
            &*shared.acc,
            &shared.model,
            &*shared.clock,
            shared.retry_budget,
            pending,
        );
        drop(served.replace(handle));
    }
}

/// Serves one dequeued request to resolution on `clock` — the whole
/// serving core: the threaded workers call it, and [`crate::SimServer`]
/// is this function on a [`crate::SimClock`]. Returns the
/// serving-level retries it took.
///
/// A request already dead at dequeue resolves `DeadlineExceeded`
/// without touching the device. A *transient* kernel failure re-runs
/// while the budget holds AND a rerun of the observed cost could still
/// land inside the deadline; a result that lands late is stale, never
/// `Ok`.
pub(crate) fn serve_pending(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    clock: &dyn TimeSource,
    retry_budget: usize,
    pending: Pending,
) -> usize {
    let Pending { job, handle } = pending;
    let deadline_s = handle.deadline_s();
    let start = clock.now_s();
    if start > deadline_s {
        handle.fulfill(
            Err(ServeError::DeadlineExceeded {
                missed_by_s: start - deadline_s,
            }),
            start,
        );
        return 0;
    }
    let mut retries = 0usize;
    let mut attempt_start = start;
    let (result, end) = loop {
        let charged_before = acc.elapsed_seconds();
        let result = run_job(acc, model, &job);
        let attempt_s = clock.charge_attempt(attempt_start, acc.elapsed_seconds() - charged_before);
        let end = clock.now_s();
        match result {
            Err(ref e)
                if retries < retry_budget
                    && retryable_kernel_error(e)
                    && end + attempt_s <= deadline_s =>
            {
                retries += 1;
                attempt_start = end;
            }
            other => break (other, end),
        }
    };
    let resolved = match result {
        Ok(_) if end > deadline_s => Err(ServeError::DeadlineExceeded {
            missed_by_s: end - deadline_s,
        }),
        Ok(out) => Ok(out),
        Err(e) => Err(ServeError::Kernel(e)),
    };
    handle.fulfill(resolved, end);
    retries
}
