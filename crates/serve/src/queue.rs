//! The bounded admission queue and its shedding policies.

use crate::request::{ExplainJob, ResponseHandle, ServeError};
use std::collections::VecDeque;

/// What admission control does with an arrival when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the arriving request (tail drop): queued work keeps its
    /// first-come-first-served promise.
    RejectNewest,
    /// Evict the oldest queued request to admit the arrival (head
    /// drop): freshest work wins, long-waiting work — which has the
    /// least deadline slack anyway — is shed.
    RejectOldest,
    /// Shed whichever of queued-plus-arrival has the **earliest**
    /// deadline: the request least likely to finish in time pays for
    /// the overload, maximising the number of met deadlines. Ties
    /// shed the arrival (queued work keeps its position).
    DeadlineAware,
}

/// One admitted-but-not-yet-served request.
#[derive(Debug)]
pub(crate) struct Pending {
    pub(crate) job: ExplainJob,
    pub(crate) handle: ResponseHandle,
}

/// A bounded FIFO of [`Pending`] requests with a pluggable
/// [`ShedPolicy`]. Not internally locked: the owning server
/// serialises access (threaded server under its state mutex, the
/// simulator single-threaded).
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    /// The configured bound; the live `capacity` is this scaled by the
    /// accelerator's healthy fraction at each arrival.
    base_capacity: usize,
    capacity: usize,
    policy: ShedPolicy,
    entries: VecDeque<Pending>,
    high_water: usize,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` requests (clamped to ≥ 1).
    pub(crate) fn new(capacity: usize, policy: ShedPolicy) -> Self {
        AdmissionQueue {
            base_capacity: capacity.max(1),
            capacity: capacity.max(1),
            policy,
            entries: VecDeque::new(),
            high_water: 0,
        }
    }

    /// The one front door of both servers: a request arriving at
    /// `now_s` with `deadline_rel_s` seconds to live is admitted, or
    /// the policy's victim (the arrival or an evicted entry) is resolved
    /// `Rejected` on the spot. Returns the arrival's handle.
    ///
    /// Degraded-mode gate: the bound scales with `healthy_fraction`
    /// (never below 1), so a fleet that lost chips sheds at the door
    /// instead of queueing work the survivors cannot absorb. Entries
    /// already admitted are never evicted by a shrink.
    pub(crate) fn admit(
        &mut self,
        healthy_fraction: f64,
        job: ExplainJob,
        now_s: f64,
        deadline_rel_s: f64,
    ) -> ResponseHandle {
        self.capacity = ((self.base_capacity as f64 * healthy_fraction).ceil() as usize).max(1);
        let handle = ResponseHandle::pending(now_s, now_s + deadline_rel_s);
        let queue_len = self.entries.len();
        let arrival = Pending {
            job,
            handle: handle.clone(),
        };
        if let Some(victim) = self.offer(arrival) {
            victim.handle.fulfill(
                Err(ServeError::Rejected {
                    queue_len,
                    capacity: self.capacity,
                }),
                now_s,
            );
        }
        handle
    }

    pub(crate) fn policy(&self) -> ShedPolicy {
        self.policy
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deepest occupancy ever observed — the proptest invariant pins
    /// `high_water ≤ capacity`.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Offers `arrival` to the queue. Returns the shed victim — the
    /// arrival itself, or an evicted entry — `None` means a plain
    /// admit.
    fn offer(&mut self, arrival: Pending) -> Option<Pending> {
        let victim = if self.entries.len() < self.capacity {
            None
        } else {
            match self.policy {
                ShedPolicy::RejectNewest => return Some(arrival),
                ShedPolicy::RejectOldest => self.entries.pop_front(),
                ShedPolicy::DeadlineAware => {
                    // Evict the strictly-earliest deadline among the
                    // queued entries; if none beats the arrival, the
                    // arrival itself is shed. Deadlines come from the
                    // caller, so NaN is possible: under the total order
                    // it is never "earlier" than the arrival.
                    let arrival_deadline = arrival.handle.deadline_s();
                    let earliest = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            a.handle.deadline_s().total_cmp(&b.handle.deadline_s())
                        })
                        .map(|(i, p)| (i, p.handle.deadline_s()));
                    match earliest {
                        Some((i, d)) if d < arrival_deadline => self.entries.remove(i),
                        _ => return Some(arrival),
                    }
                }
            }
        };
        self.entries.push_back(arrival);
        self.high_water = self.high_water.max(self.entries.len());
        victim
    }

    /// Dequeues the oldest admitted request.
    pub(crate) fn pop(&mut self) -> Option<Pending> {
        self.entries.pop_front()
    }

    /// Empties the queue, returning everything still admitted (used
    /// by reject-mode shutdown).
    pub(crate) fn drain_all(&mut self) -> Vec<Pending> {
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_tensor::ops::DivPolicy;
    use xai_tensor::Matrix;

    fn pending(deadline_s: f64) -> Pending {
        Pending {
            job: ExplainJob::RecoverSpectrum {
                y_spec: Matrix::filled(2, 2, xai_tensor::Complex64::ONE).unwrap(),
                x_spec: Matrix::filled(2, 2, xai_tensor::Complex64::ONE).unwrap(),
                policy: DivPolicy::default(),
            },
            handle: ResponseHandle::pending(0.0, deadline_s),
        }
    }

    #[test]
    fn reject_newest_sheds_the_arrival() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::RejectNewest);
        assert!(q.offer(pending(1.0)).is_none());
        assert!(q.offer(pending(2.0)).is_none());
        let victim = q.offer(pending(3.0)).expect("full queue sheds");
        assert_eq!(victim.handle.deadline_s(), 3.0);
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 2);
    }

    #[test]
    fn reject_oldest_evicts_the_head() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::RejectOldest);
        q.offer(pending(1.0));
        q.offer(pending(2.0));
        let victim = q.offer(pending(3.0)).expect("full queue evicts");
        assert_eq!(victim.handle.deadline_s(), 1.0);
        // FIFO order of the survivors is preserved.
        assert_eq!(q.pop().unwrap().handle.deadline_s(), 2.0);
        assert_eq!(q.pop().unwrap().handle.deadline_s(), 3.0);
    }

    #[test]
    fn deadline_aware_sheds_the_earliest_deadline() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::DeadlineAware);
        q.offer(pending(5.0));
        q.offer(pending(2.0));
        // The queued 2.0 has the least slack: it is evicted.
        let victim = q.offer(pending(9.0)).expect("sheds earliest deadline");
        assert_eq!(victim.handle.deadline_s(), 2.0);
        // An arrival with the earliest deadline is shed itself (ties
        // keep queued work).
        let victim = q.offer(pending(1.0)).expect("arrival sheds itself");
        assert_eq!(victim.handle.deadline_s(), 1.0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn capacity_clamps_to_one_and_never_overflows() {
        let mut q = AdmissionQueue::new(0, ShedPolicy::RejectNewest);
        assert_eq!(q.capacity, 1);
        assert_eq!(q.policy(), ShedPolicy::RejectNewest);
        for d in 0..10 {
            q.offer(pending(d as f64));
            assert!(q.len() <= q.capacity);
        }
        assert_eq!(q.high_water(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.drain_all().len(), 1);
        assert!(q.is_empty());
    }
}
