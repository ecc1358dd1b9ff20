//! The serving core, single-threaded, in virtual time.
//!
//! [`SimServer`] calls the same admission function and the same
//! per-request serving function as [`crate::ExplainServer`]'s workers,
//! directly instead of under a lock from threads. Only its clock
//! differs: a [`SimClock`] advances by exactly the simulated device
//! time each kernel attempt charged
//! ([`TimeSource::charge_attempt`]), so outcomes are a pure function
//! of (seed, config) — the property the deterministic load-test suite
//! pins.

use crate::clock::{SimClock, TimeSource};
use crate::queue::{AdmissionQueue, ShedPolicy};
use crate::request::{ExplainJob, ResponseHandle};
use crate::server::serve_pending;
use std::sync::Arc;
use xai_accel::Accelerator;
use xai_core::DistilledModel;

/// The deterministic serving simulator: one simulated device, one
/// logical server, virtual time.
pub struct SimServer {
    acc: Arc<dyn Accelerator>,
    model: DistilledModel,
    clock: SimClock,
    queue: AdmissionQueue,
    /// Transient kernel failures re-run at most this many times.
    retry_budget: usize,
    /// Serving-level retries performed (each one re-ran a whole job).
    retries: u64,
}

impl std::fmt::Debug for SimServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimServer")
            .field("now_s", &self.now_s())
            .field("queue_len", &self.queue.len())
            .finish()
    }
}

impl SimServer {
    /// A simulator serving `model` on `acc` behind a bounded queue.
    pub fn new(
        acc: Arc<dyn Accelerator>,
        model: DistilledModel,
        capacity: usize,
        policy: ShedPolicy,
    ) -> Self {
        SimServer {
            acc,
            model,
            clock: SimClock::new(),
            queue: AdmissionQueue::new(capacity, policy),
            retry_budget: 0,
            retries: 0,
        }
    }

    /// Re-runs a request whose kernel failed transiently (fault budget
    /// exhausted, panicked flight dispatch) up to `budget` extra times —
    /// but only while a retry can still finish inside the request's
    /// deadline. Deterministic kernel errors are never retried.
    #[must_use]
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Serving-level retries performed so far (whole-job re-runs after
    /// a transient kernel failure).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The simulator's virtual clock (clones share the reading).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Current virtual time in seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Requests admitted but not yet served.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest queue occupancy observed.
    pub fn high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Submits a request arriving at virtual time `arrival_s` with a
    /// relative deadline of `deadline_rel_s` seconds. Admission (and
    /// any shedding) is decided at the arrival instant; a shed
    /// request's handle is resolved before this returns.
    ///
    /// The virtual clock may already sit past `arrival_s` when the
    /// device finished its previous request late; the queue contents
    /// are still exactly those of the arrival instant because nothing
    /// dequeues between the two moments (see [`SimServer::step_until`]).
    pub fn submit_at(
        &mut self,
        arrival_s: f64,
        job: ExplainJob,
        deadline_rel_s: f64,
    ) -> ResponseHandle {
        self.clock.set(arrival_s);
        let healthy = self.acc.healthy_fraction();
        self.queue.admit(healthy, job, arrival_s, deadline_rel_s)
    }

    /// Serves the next queued request **iff** its service would start
    /// strictly before `horizon_s` (the next arrival). Returns `false`
    /// when the device is already at/past the horizon or the queue is
    /// empty — the open-loop driver then delivers the next arrival
    /// first, keeping discrete events in time order.
    pub fn step_until(&mut self, horizon_s: f64) -> bool {
        if self.now_s() >= horizon_s || self.queue.is_empty() {
            return false;
        }
        self.step()
    }

    /// Serves one queued request to completion, advancing the virtual
    /// clock by exactly the simulated device time it charges. An
    /// already-dead request (deadline behind the clock) resolves
    /// `DeadlineExceeded` without touching the device. Returns `false`
    /// when idle.
    pub fn step(&mut self) -> bool {
        let Some(pending) = self.queue.pop() else {
            return false;
        };
        self.retries += serve_pending(
            &*self.acc,
            &self.model,
            &self.clock,
            self.retry_budget,
            pending,
        ) as u64;
        true
    }

    /// Serves everything still queued.
    pub fn drain(&mut self) {
        while self.step() {}
    }
}
