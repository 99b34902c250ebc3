//! Control-plane plumbing: learning filter → switch CPU → ConnTable.
//!
//! Tracks which connections are *pending* (learned but not yet installed) —
//! the population the 3-step update protocol reasons about — and carries
//! per-VIP outstanding counters for the step-transition checks.

use crate::dataplane::ConnHashes;
use sr_asic::{LearningFilter, LearningFilterConfig, SwitchCpu, SwitchCpuConfig};
use sr_hash::{FxHashMap, FxHashSet};
use sr_types::{Dip, Nanos, PoolVersion, TupleKey, Vip};

/// Metadata captured when the data plane learns a new connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LearnMeta {
    /// The VIP the connection targets.
    pub vip: Vip,
    /// The pool version the data plane selected at first-packet time.
    pub version: PoolVersion,
    /// The DIP that version's pool hashed the connection to.
    pub dip: Dip,
    /// The packet-time ConnTable hashes, carried to install time so the
    /// cuckoo insert never re-hashes the key ([`ConnHashes::empty`] only
    /// in control-plane unit tests, which never reach a ConnTable).
    pub hashes: ConnHashes,
}

/// How the control plane disposed of a learn attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LearnOutcome {
    /// The event entered the pipeline (filter → CPU → install).
    Entered,
    /// The key is already somewhere in the pipeline; the attempt is a
    /// duplicate and the connection stays pending.
    AlreadyPending,
    /// The filter was full; the connection stays unlearned and retries on
    /// its next packet.
    Overflow,
}

/// A pending ConnTable insertion travelling through the CPU queue.
#[derive(Clone, Copy, Debug)]
pub struct InstallJob {
    /// Connection key (canonical 5-tuple bytes), stored inline — install
    /// jobs flow through the setup fast path, where a heap key per new
    /// connection would be an allocation per setup.
    pub key: TupleKey,
    /// Learn-time metadata.
    pub meta: LearnMeta,
    /// First-packet arrival time.
    pub arrived: Nanos,
}

/// An install that finished its CPU processing.
#[derive(Clone, Copy, Debug)]
pub struct CompletedInstall {
    /// The job.
    pub job: InstallJob,
    /// When the entry became visible in ConnTable.
    pub completed_at: Nanos,
}

/// The control plane.
pub struct ControlPlane {
    /// The hardware learning filter.
    pub learning: LearningFilter<LearnMeta>,
    /// The management CPU.
    pub cpu: SwitchCpu<InstallJob>,
    /// Keys anywhere in the learn→install pipeline (inline keys — the set
    /// reaches steady state and stops allocating once its table is sized).
    in_flight: FxHashSet<TupleKey>,
    /// Per-VIP count of in-flight (pending) connections.
    outstanding: FxHashMap<Vip, u64>,
    /// Connections closed before their install completed.
    closed_early: FxHashSet<TupleKey>,
}

impl ControlPlane {
    /// Build from filter and CPU configurations.
    pub fn new(learning: LearningFilterConfig, cpu: SwitchCpuConfig) -> ControlPlane {
        ControlPlane {
            learning: LearningFilter::new(learning),
            cpu: SwitchCpu::new(cpu),
            in_flight: FxHashSet::default(),
            outstanding: FxHashMap::default(),
            closed_early: FxHashSet::default(),
        }
    }

    /// Whether `key` is currently pending (filter or CPU queue).
    pub fn is_pending(&self, key: &[u8]) -> bool {
        self.in_flight.contains(key)
    }

    /// Pending connections for `vip`.
    pub fn outstanding(&self, vip: Vip) -> u64 {
        self.outstanding.get(&vip).copied().unwrap_or(0)
    }

    /// Data-plane learn: returns whether the event entered the pipeline
    /// (false on duplicate or filter overflow — the connection stays
    /// unlearned and retries on its next packet).
    pub fn learn(&mut self, key: &[u8], meta: LearnMeta, now: Nanos) -> bool {
        self.learn_gate(key, meta, now) == LearnOutcome::Entered
    }

    /// [`ControlPlane::learn`] with the dedup check fused into the insert:
    /// one hashed operation on `in_flight` decides duplicate-vs-new (the
    /// set covers both the filter and the CPU queue, so the filter's own
    /// dedup probe is skipped), and the distinct outcomes let the miss
    /// path drop its separate `is_pending` probe.
    pub fn learn_gate(&mut self, key: &[u8], meta: LearnMeta, now: Nanos) -> LearnOutcome {
        let inline = TupleKey::from_bytes(key);
        if !self.in_flight.insert(inline) {
            return LearnOutcome::AlreadyPending;
        }
        if !self.learning.learn_preapproved(inline, meta, now) {
            // Rare: the filter was at capacity. Roll back the membership.
            self.in_flight.remove(&inline);
            return LearnOutcome::Overflow;
        }
        *self.outstanding.entry(meta.vip).or_insert(0) += 1;
        LearnOutcome::Entered
    }

    /// Drain the learning filter into the CPU queue if its notification is
    /// due at `now`. Returns how many jobs were submitted. Allocation-free
    /// at steady state: events move straight from the filter's recycled
    /// buffer into the CPU queue.
    pub fn drain_learning(&mut self, now: Nanos) -> usize {
        let ControlPlane { learning, cpu, .. } = self;
        // The CPU starts work when notified, i.e. at the drain time.
        learning.drain_if_due_with(now, |ev| {
            cpu.submit(
                InstallJob {
                    key: ev.key,
                    meta: ev.meta,
                    arrived: ev.arrived,
                },
                now,
            );
        })
    }

    /// Pop installs whose CPU processing finished by `now`.
    pub fn pop_installs(&mut self, now: Nanos) -> Vec<CompletedInstall> {
        let mut out = Vec::new();
        self.pop_installs_into(now, &mut out);
        out
    }

    /// The recycled-buffer form of [`ControlPlane::pop_installs`]: append
    /// completions to `out` (which the caller reuses across batches) and
    /// return how many were popped.
    pub fn pop_installs_into(&mut self, now: Nanos, out: &mut Vec<CompletedInstall>) -> usize {
        self.cpu.pop_completed_with(now, |j| {
            out.push(CompletedInstall {
                completed_at: j.completes_at,
                job: j.payload,
            });
        })
    }

    /// Mark a key's pipeline journey finished (installed, dropped, or
    /// failed). Must be called exactly once per completed learn.
    pub fn mark_terminal(&mut self, key: &[u8], vip: Vip) {
        if self.in_flight.remove(key) {
            if let Some(c) = self.outstanding.get_mut(&vip) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Whether an install batch that was just popped emptied the whole
    /// pipeline: nothing buffered in the filter, nothing queued on the
    /// CPU. When it did, every remaining `in_flight` key belongs to the
    /// popped batch, and the batched drain can settle the membership with
    /// one [`ControlPlane::clear_in_flight`] instead of a hashed removal
    /// per job — the dominant per-install cost once the set's table has
    /// grown to its churn high-water mark.
    pub fn drained_pipeline_empty(&self) -> bool {
        self.learning.is_empty() && self.cpu.next_completion().is_none()
    }

    /// The per-VIP half of [`ControlPlane::mark_terminal`] for a job the
    /// batched drain just popped: its key is in `in_flight` by
    /// construction (learns insert it; only terminals remove it; the CPU
    /// queue pops each job once), so the membership check is skipped and
    /// the counter decremented directly. The caller settles the set
    /// itself via [`ControlPlane::clear_in_flight`].
    pub fn mark_terminal_popped(&mut self, vip: Vip) {
        debug_assert!(!self.in_flight.is_empty());
        if let Some(c) = self.outstanding.get_mut(&vip) {
            *c = c.saturating_sub(1);
        }
    }

    /// Bulk-settle the in-flight membership after a drain that emptied
    /// the pipeline (see [`ControlPlane::drained_pipeline_empty`]). Keeps
    /// the set's capacity for the next burst.
    pub fn clear_in_flight(&mut self) {
        debug_assert!(self.drained_pipeline_empty());
        debug_assert!(self.outstanding.values().all(|&c| c == 0));
        self.in_flight.clear();
    }

    /// Note that a connection closed; if it is still pending, its eventual
    /// install must be skipped.
    pub fn note_close(&mut self, key: &[u8]) {
        if self.in_flight.contains(key) {
            self.closed_early.insert(TupleKey::from_bytes(key));
        }
    }

    /// Whether `key` closed while pending (consumes the marker).
    pub fn take_closed_early(&mut self, key: &[u8]) -> bool {
        self.closed_early.remove(key)
    }

    /// Whether any connection closed while its install was pending. The
    /// install drain checks this before hashing each key against the
    /// (almost always empty) early-close set.
    pub fn has_closed_early(&self) -> bool {
        !self.closed_early.is_empty()
    }

    /// The learning filter's next notification deadline, if any — the
    /// batched install drain pops every CPU completion due before it in
    /// one pass.
    pub fn learning_deadline(&self) -> Option<Nanos> {
        self.learning.notify_deadline()
    }

    /// Events currently buffered in the learning filter (the churn bench
    /// samples this as its learn-queue depth).
    pub fn learn_queue_depth(&self) -> usize {
        self.learning.len()
    }

    /// The next instant at which control-plane work becomes due.
    pub fn next_wakeup(&self) -> Option<Nanos> {
        match (self.learning.notify_deadline(), self.cpu.next_completion()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sr_types::{Addr, Duration};

    fn meta() -> LearnMeta {
        LearnMeta {
            vip: Vip(Addr::v4(20, 0, 0, 1, 80)),
            version: PoolVersion(0),
            dip: Dip(Addr::v4(10, 0, 0, 1, 20)),
            hashes: ConnHashes::empty(),
        }
    }

    fn cp() -> ControlPlane {
        ControlPlane::new(
            LearningFilterConfig {
                capacity: 8,
                timeout: Duration::from_millis(1),
            },
            SwitchCpuConfig {
                insertions_per_sec: 200_000,
            },
        )
    }

    #[test]
    fn learn_to_install_pipeline() {
        let mut c = cp();
        assert!(c.learn(b"k1", meta(), Nanos::ZERO));
        assert!(!c.learn(b"k1", meta(), Nanos::ZERO), "duplicate learn");
        assert!(c.is_pending(b"k1"));
        assert_eq!(c.outstanding(meta().vip), 1);

        // Nothing drains before the filter timeout.
        assert_eq!(c.drain_learning(Nanos::from_micros(500)), 0);
        assert_eq!(c.drain_learning(Nanos::from_millis(1)), 1);

        // CPU takes 5 µs after the drain.
        let done = c.pop_installs(Nanos::from_millis(1) + Duration::from_micros(5));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].job.key.as_slice(), b"k1");
        assert_eq!(done[0].job.arrived, Nanos::ZERO);

        c.mark_terminal(b"k1", meta().vip);
        assert!(!c.is_pending(b"k1"));
        assert_eq!(c.outstanding(meta().vip), 0);
    }

    #[test]
    fn close_while_pending() {
        let mut c = cp();
        c.learn(b"k1", meta(), Nanos::ZERO);
        c.note_close(b"k1");
        assert!(c.take_closed_early(b"k1"));
        assert!(!c.take_closed_early(b"k1"), "marker must be consumed");
        // Closing a non-pending key leaves no marker.
        c.note_close(b"k2");
        assert!(!c.take_closed_early(b"k2"));
    }

    #[test]
    fn wakeup_is_min_of_deadlines() {
        let mut c = cp();
        assert_eq!(c.next_wakeup(), None);
        c.learn(b"k1", meta(), Nanos::from_micros(100));
        // Only the filter deadline exists.
        assert_eq!(
            c.next_wakeup(),
            Some(Nanos::from_micros(100) + Duration::from_millis(1))
        );
        c.drain_learning(Nanos::from_millis(2));
        // Now only the CPU completion exists.
        assert_eq!(
            c.next_wakeup(),
            Some(Nanos::from_millis(2) + Duration::from_micros(5))
        );
    }

    #[test]
    fn overflow_rejects_learn_without_tracking() {
        let mut c = cp();
        for i in 0..8u32 {
            assert!(c.learn(&i.to_be_bytes(), meta(), Nanos::ZERO));
        }
        assert!(!c.learn(b"overflow", meta(), Nanos::ZERO));
        assert!(!c.is_pending(b"overflow"));
        assert_eq!(c.outstanding(meta().vip), 8);
    }

    #[test]
    fn mark_terminal_is_idempotent() {
        let mut c = cp();
        c.learn(b"k1", meta(), Nanos::ZERO);
        c.mark_terminal(b"k1", meta().vip);
        c.mark_terminal(b"k1", meta().vip);
        assert_eq!(c.outstanding(meta().vip), 0);
    }
}
