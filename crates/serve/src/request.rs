//! Requests, responses and the futures-like [`ResponseHandle`].

use std::sync::Arc;
use xai_sync::{LockClass, OrderedCondvar, OrderedMutex};

/// A response handle's result slot — the deepest leaf: fulfilment
/// happens after every server/queue/device lock has been released.
static SERVE_RESPONSE: LockClass = LockClass::new("serve::response", 60);
use xai_accel::Accelerator;
use xai_core::parallel::block_contributions_on;
use xai_core::DistilledModel;
use xai_tensor::ops::DivPolicy;
use xai_tensor::{Complex64, Matrix, TensorError};

/// One explanation request accepted at the front door.
#[derive(Debug, Clone)]
pub enum ExplainJob {
    /// A `grid × grid` block-contribution map for the pair `(x, y)` —
    /// the paper's Figure-5 occlusion sweep, served as one §III-D
    /// batched kernel submission (`grid²` score lanes, each charged as
    /// the fused filter-diff chain).
    Contributions {
        /// The input whose features are explained.
        x: Matrix<f64>,
        /// The black-box output being attributed.
        y: Matrix<f64>,
        /// Occlusion grid: must divide both dimensions of `x`.
        grid: usize,
    },
    /// A kernel-spectrum recovery `F(Y) ⊘ F(X)` (Equation 4) under
    /// `policy` — a single elementwise-division lane, so concurrent
    /// requests coalesce into one flight on a batching accelerator.
    RecoverSpectrum {
        /// Spectrum of the observed output.
        y_spec: Matrix<Complex64>,
        /// Spectrum of the input (the divisor).
        x_spec: Matrix<Complex64>,
        /// Division-by-zero policy (Strict surfaces per-request errors).
        policy: DivPolicy,
    },
}

/// A completed request's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Block-contribution scores from [`ExplainJob::Contributions`].
    Map(Matrix<f64>),
    /// Recovered spectrum from [`ExplainJob::RecoverSpectrum`].
    Spectrum(Matrix<Complex64>),
}

/// Why a request produced no output.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Shed by the admission policy — either refused on arrival or
    /// evicted later to make room (fast failure, no device work).
    Rejected {
        /// Queue occupancy observed at the shedding decision.
        queue_len: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The request's deadline passed before (or while) it was served.
    DeadlineExceeded {
        /// Seconds past the deadline at resolution time.
        missed_by_s: f64,
    },
    /// The server was shutting down when the request arrived or while
    /// it was still queued under [`crate::DrainMode::Reject`].
    ShuttingDown,
    /// The kernel itself failed (shape mismatch, strict ÷0, …) — a
    /// per-request error that never poisons flight-mates.
    Kernel(TensorError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected {
                queue_len,
                capacity,
            } => write!(
                f,
                "shed by admission control ({queue_len}/{capacity} queued)"
            ),
            ServeError::DeadlineExceeded { missed_by_s } => {
                write!(f, "deadline exceeded by {missed_by_s:.6} s")
            }
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Kernel(e) => write!(f, "kernel error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Kernel(e)
    }
}

/// What a [`ResponseHandle`] resolves to.
pub type ServeResult = std::result::Result<JobOutput, ServeError>;

/// Coarse disposition of a finished request, for load accounting and
/// determinism pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served within its deadline.
    Completed,
    /// Shed by admission control or shutdown (no device work).
    Shed,
    /// Dropped or invalidated by its deadline.
    DeadlineExceeded,
    /// Failed inside the kernel (per-request error).
    Failed,
}

#[derive(Debug)]
struct HandleState {
    /// `(result, resolved_at_s)` — set exactly once.
    slot: OrderedMutex<Option<(ServeResult, f64)>>,
    done: OrderedCondvar,
    submitted_at_s: f64,
    deadline_s: f64,
}

/// A futures-like handle to an in-flight explanation request.
///
/// The submitter keeps one clone, the server keeps another; whichever
/// side resolves it (completion, shed, deadline, shutdown) wakes every
/// waiter. A handle resolves **exactly once** — double resolution is a
/// server bug and panics.
#[derive(Debug, Clone)]
pub struct ResponseHandle {
    inner: Arc<HandleState>,
}

impl ResponseHandle {
    /// An unresolved handle for a request submitted at
    /// `submitted_at_s` with absolute deadline `deadline_s` (both on
    /// the server's [`crate::TimeSource`]).
    pub(crate) fn pending(submitted_at_s: f64, deadline_s: f64) -> Self {
        ResponseHandle {
            inner: Arc::new(HandleState {
                slot: OrderedMutex::new(&SERVE_RESPONSE, None),
                done: OrderedCondvar::new(),
                submitted_at_s,
                deadline_s,
            }),
        }
    }

    /// Resolves the handle. Panics on double resolution: every
    /// submission completes XOR sheds XOR misses its deadline.
    pub(crate) fn fulfill(&self, result: ServeResult, at_s: f64) {
        let mut slot = self.inner.slot.lock_recover();
        assert!(
            slot.is_none(),
            "a response handle must resolve exactly once"
        );
        *slot = Some((result, at_s));
        self.inner.done.notify_all();
    }

    /// Blocks until the request resolves, then returns the result.
    pub fn wait(&self) -> ServeResult {
        let mut slot = self.inner.slot.lock_recover();
        while slot.is_none() {
            slot = self.inner.done.wait(slot);
        }
        slot.as_ref().expect("resolved").0.clone()
    }

    /// The result if already resolved, `None` while in flight.
    pub fn poll(&self) -> Option<ServeResult> {
        self.inner
            .slot
            .lock_recover()
            .as_ref()
            .map(|(r, _)| r.clone())
    }

    /// `true` once the request has resolved.
    pub fn is_resolved(&self) -> bool {
        self.inner.slot.lock_recover().is_some()
    }

    /// The coarse disposition, once resolved (no payload clone).
    pub fn outcome(&self) -> Option<Outcome> {
        self.inner
            .slot
            .lock_recover()
            .as_ref()
            .map(|(r, _)| match r {
                Ok(_) => Outcome::Completed,
                Err(ServeError::Rejected { .. }) | Err(ServeError::ShuttingDown) => Outcome::Shed,
                Err(ServeError::DeadlineExceeded { .. }) => Outcome::DeadlineExceeded,
                Err(ServeError::Kernel(_)) => Outcome::Failed,
            })
    }

    /// Seconds from submission to resolution, once resolved.
    pub fn latency_s(&self) -> Option<f64> {
        self.inner
            .slot
            .lock_recover()
            .as_ref()
            .map(|&(_, at)| at - self.inner.submitted_at_s)
    }

    /// Submission instant on the server's clock.
    pub fn submitted_at_s(&self) -> f64 {
        self.inner.submitted_at_s
    }

    /// Absolute deadline on the server's clock.
    pub fn deadline_s(&self) -> f64 {
        self.inner.deadline_s
    }
}

/// Whether a kernel failure is worth re-running the job for: fault
/// injection and a panicked flight dispatch are transient conditions of
/// the *device*, not of the request, so a retry can legitimately succeed.
/// Deterministic input errors (shape mismatch, strict ÷0, …) fail the
/// same way every time and are never retried.
pub(crate) fn retryable_kernel_error(e: &TensorError) -> bool {
    matches!(
        e,
        TensorError::FaultBudgetExhausted { .. } | TensorError::WorkerPanicked { .. }
    )
}

/// Executes one job on the accelerator. A served contribution map is
/// `xai_core`'s own `block_contributions_on`, so it is bit-identical
/// to `explain_batch_parallel_on` over the same accelerator model.
pub(crate) fn run_job(
    acc: &dyn Accelerator,
    model: &DistilledModel,
    job: &ExplainJob,
) -> xai_tensor::Result<JobOutput> {
    match job {
        ExplainJob::Contributions { x, y, grid } => Ok(JobOutput::Map(block_contributions_on(
            acc, model, x, y, *grid,
        )?)),
        ExplainJob::RecoverSpectrum {
            y_spec,
            x_spec,
            policy,
        } => Ok(JobOutput::Spectrum(
            acc.pointwise_div(y_spec, x_spec, *policy)?,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_resolves_exactly_once_and_wakes_waiters() {
        let h = ResponseHandle::pending(1.0, 5.0);
        assert!(!h.is_resolved());
        assert_eq!(h.poll(), None);
        let waiter = {
            let h = h.clone();
            std::thread::spawn(move || h.wait())
        };
        h.fulfill(Err(ServeError::ShuttingDown), 2.5);
        assert_eq!(waiter.join().unwrap(), Err(ServeError::ShuttingDown));
        assert_eq!(h.outcome(), Some(Outcome::Shed));
        assert_eq!(h.latency_s(), Some(1.5));
        assert_eq!(h.submitted_at_s(), 1.0);
        assert_eq!(h.deadline_s(), 5.0);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn double_resolution_panics() {
        let h = ResponseHandle::pending(0.0, 1.0);
        h.fulfill(Err(ServeError::ShuttingDown), 0.0);
        h.fulfill(Err(ServeError::ShuttingDown), 0.0);
    }

    #[test]
    fn serve_error_display_is_informative() {
        let e = ServeError::Rejected {
            queue_len: 4,
            capacity: 4,
        };
        assert!(e.to_string().contains("4/4"));
        assert!(ServeError::DeadlineExceeded { missed_by_s: 0.25 }
            .to_string()
            .contains("0.25"));
        let k: ServeError = TensorError::EmptyDimension.into();
        assert!(matches!(k, ServeError::Kernel(_)));
    }
}
