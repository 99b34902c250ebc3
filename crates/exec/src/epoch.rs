//! Generic epoch-versioned op log — the lockstep-control idiom of the
//! fleet simulator (`sr_sim::fleet`).
//!
//! The fleet keeps its per-cluster shards bit-identical across worker
//! counts by broadcasting every control change (epoch advances, update
//! storm toggles) through an append-only log of immutable ops: the log's
//! length is the **epoch**, workers adopt ops in publication order at
//! epoch boundaries only, and published entries are shared by `Arc` so a
//! reader never holds the log lock while applying one. Resident workers
//! park in [`EpochLog::wait_beyond`] between epochs instead of spinning.
//! (The multi-pipe packet engine needs no log: its control ops ride the
//! same FIFO job rings as its batches.)
//!
//! Guarantees:
//!
//! * `epoch()` counts every op ever published; it never goes backwards.
//! * `copy_range(from, to, ..)` returns the ops `[from, to)` in
//!   publication order (clamped to what the log retains — see
//!   [`EpochLog::truncate_to`]).
//! * Every reader that adopts `[cursor, epoch())` batches in cursor order
//!   observes the identical op sequence, regardless of scheduling — the
//!   property that makes per-shard state worker-count invariant.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// Append-only, epoch-versioned log of immutable ops.
pub struct EpochLog<T> {
    /// Published-op count; readable without the lock.
    epoch: AtomicU64,
    /// Set once by [`EpochLog::close`]; wakes blocked waiters for good.
    closed: AtomicBool,
    inner: Mutex<Inner<T>>,
    cond: Condvar,
}

struct Inner<T> {
    /// Epoch of the first retained op (earlier ops were truncated).
    base: u64,
    ops: Vec<Arc<T>>,
}

impl<T> EpochLog<T> {
    /// An empty, open log at epoch 0.
    pub fn new() -> EpochLog<T> {
        EpochLog {
            epoch: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                base: 0,
                ops: Vec::new(),
            }),
            cond: Condvar::new(),
        }
    }

    /// The current epoch (total ops ever published).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Whether [`EpochLog::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(SeqCst)
    }

    /// Publish one op; returns the epoch that includes it.
    ///
    /// Publishing to a closed log is a caller bug in any lockstep
    /// protocol (late ops would be unobservable by already-exited
    /// readers), so it panics rather than silently dropping the op.
    pub fn publish(&self, op: T) -> u64 {
        let mut g = self.inner.lock();
        assert!(!self.is_closed(), "publish on a closed EpochLog");
        g.ops.push(Arc::new(op));
        let e = g.base + g.ops.len() as u64;
        self.epoch.store(e, SeqCst);
        self.cond.notify_all();
        e
    }

    /// Close the log: no further ops will be published. Wakes every
    /// blocked [`EpochLog::wait_beyond`] caller.
    pub fn close(&self) {
        let _g = self.inner.lock();
        self.closed.store(true, SeqCst);
        self.cond.notify_all();
    }

    /// Block until the epoch exceeds `cursor` or the log is closed.
    /// Returns the epoch observed at wake-up — if it equals `cursor`, the
    /// log closed with nothing further to adopt.
    pub fn wait_beyond(&self, cursor: u64) -> u64 {
        let mut g = self.inner.lock();
        loop {
            let e = self.epoch();
            if e > cursor || self.is_closed() {
                return e;
            }
            self.cond.wait(&mut g);
        }
    }

    /// Copy the `Arc` refs of ops in `[from, to)` into `buf` (clamped to
    /// what the log retains). Callers apply them *after* this returns —
    /// the internal lock is held only for the pointer copies.
    pub fn copy_range(&self, from: u64, to: u64, buf: &mut Vec<Arc<T>>) {
        let g = self.inner.lock();
        let lo = from.max(g.base).saturating_sub(g.base) as usize;
        let hi = (to.max(g.base).saturating_sub(g.base) as usize).min(g.ops.len());
        if let Some(range) = g.ops.get(lo..hi) {
            buf.extend(range.iter().cloned());
        }
    }

    /// Drop every op at epoch ≤ `upto`. Only call once all adopters have
    /// confirmed reaching `upto`.
    pub fn truncate_to(&self, upto: u64) {
        let mut g = self.inner.lock();
        if upto <= g.base {
            return;
        }
        let n = ((upto - g.base) as usize).min(g.ops.len());
        g.ops.drain(..n);
        g.base += n as u64;
    }

    /// Ops currently retained (post-truncation).
    pub fn retained(&self) -> usize {
        self.inner.lock().ops.len()
    }
}

impl<T> Default for EpochLog<T> {
    fn default() -> EpochLog<T> {
        EpochLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_ranges_clamp() {
        let log: EpochLog<u64> = EpochLog::new();
        assert_eq!(log.epoch(), 0);
        for s in 0..10 {
            assert_eq!(log.publish(s), s + 1);
        }
        let mut buf = Vec::new();
        log.copy_range(3, 7, &mut buf);
        assert_eq!(buf.iter().map(|a| **a).collect::<Vec<_>>(), [3, 4, 5, 6]);
        buf.clear();
        log.copy_range(10, 10, &mut buf);
        log.copy_range(7, 3, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn truncation_keeps_epoch_addressing_stable() {
        let log: EpochLog<u64> = EpochLog::new();
        for s in 0..8 {
            log.publish(s);
        }
        log.truncate_to(5);
        assert_eq!(log.epoch(), 8);
        assert_eq!(log.retained(), 3);
        let mut buf = Vec::new();
        log.copy_range(0, 8, &mut buf);
        assert_eq!(buf.iter().map(|a| **a).collect::<Vec<_>>(), [5, 6, 7]);
        log.truncate_to(2); // monotonic: no-op
        assert_eq!(log.retained(), 3);
    }

    #[test]
    fn wait_beyond_returns_immediately_when_ahead_or_closed() {
        let log: EpochLog<u64> = EpochLog::new();
        log.publish(1);
        assert_eq!(log.wait_beyond(0), 1);
        log.close();
        assert!(log.is_closed());
        assert_eq!(log.wait_beyond(1), 1);
    }

    #[test]
    #[should_panic]
    fn publish_after_close_panics() {
        let log: EpochLog<u64> = EpochLog::new();
        log.close();
        log.publish(1);
    }

    #[test]
    fn blocked_waiters_adopt_every_op_in_order() {
        const OPS: u64 = 2_000;
        const READERS: usize = 4;
        let log: Arc<EpochLog<u64>> = Arc::new(EpochLog::new());
        let mut threads = Vec::new();
        for _ in 0..READERS {
            let log = Arc::clone(&log);
            threads.push(std::thread::spawn(move || {
                let mut cursor = 0u64;
                let mut buf = Vec::new();
                let mut seen = Vec::new();
                loop {
                    let target = log.wait_beyond(cursor);
                    if target == cursor {
                        break; // closed, fully adopted
                    }
                    buf.clear();
                    log.copy_range(cursor, target, &mut buf);
                    assert_eq!(buf.len() as u64, target - cursor, "range short");
                    seen.extend(buf.iter().map(|a| **a));
                    cursor = target;
                }
                seen
            }));
        }
        for s in 0..OPS {
            log.publish(s);
        }
        log.close();
        let expect: Vec<u64> = (0..OPS).collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), expect, "reader lost or reordered ops");
        }
    }
}
