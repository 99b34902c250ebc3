//! Execution primitives for the experiment driver and the packet engine.
//!
//! Two distinct consumers, two distinct shapes:
//!
//! * **Scoped batch fan-out** — [`Exec::run`] fans a job list across a
//!   scoped thread pool and returns the results **in submission order**,
//!   keyed by each job's slot index, so anything rendered from them is
//!   byte-identical to a sequential run regardless of worker count or
//!   scheduling. The experiment driver (`sr-bench`) uses it for
//!   simulation-backed figures: lists of independent (data point,
//!   system, seed) jobs. The fleet simulator (`sr-sim::fleet`) runs one
//!   job per cluster on it.
//! * **Run-to-completion plumbing** — the multi-pipe packet engine
//!   (`silkroad::engine`) keeps long-lived per-pipe workers fed through
//!   bounded [`ring`] SPSC rings ([`spsc`]), padded with [`CachePadded`]
//!   and optionally pinned to cores with [`pin_current_thread`]. The
//!   old per-batch scoped fan-out it replaced paid a thread
//!   spawn/join per batch and could never scale wall-clock throughput.
//!
//! Built on `std` plus the vendored `parking_lot`: no executor
//! dependency, no `'static` bounds in `Exec::run`, and no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod pad;
pub mod ring;

pub use affinity::{available_cores, pin_current_thread};
pub use pad::CachePadded;
pub use ring::{spsc, Consumer, Producer, PushError};

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A scoped worker pool for independent jobs.
#[derive(Clone, Copy, Debug)]
pub struct Exec {
    workers: usize,
}

impl Exec {
    /// A pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Exec {
        Exec {
            workers: workers.max(1),
        }
    }

    /// Single-worker pool: jobs run inline on the caller's thread.
    pub fn sequential() -> Exec {
        Exec::new(1)
    }

    /// One worker per available core (the `--jobs` default).
    pub fn available() -> Exec {
        Exec::new(available_cores())
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every job and return the outputs in input order.
    ///
    /// Jobs are handed to workers front-to-back (submission order), which
    /// keeps wall-clock short when costs are skewed; the *results* are
    /// written into per-job slots, so ordering — and therefore any table
    /// rendered from them — never depends on scheduling.
    pub fn run<I, O, F>(&self, inputs: Vec<I>, job: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = inputs.len();
        if self.workers == 1 || n <= 1 {
            return inputs.into_iter().map(job).collect();
        }
        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(inputs.into_iter().enumerate().collect());
        let slots: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(|| loop {
                    let next = queue.lock().pop_front();
                    let Some((slot, input)) = next else { break };
                    let out = job(input);
                    slots.lock()[slot] = Some(out);
                });
            }
        });
        slots
            .into_inner()
            .into_iter()
            .map(|o| o.expect("every job ran to completion"))
            .collect()
    }
}

impl Default for Exec {
    fn default() -> Exec {
        Exec::available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // Real sleeps are banned workspace-wide (clippy.toml); this test needs
    // them precisely to force out-of-order completion.
    #[allow(clippy::disallowed_methods)]
    fn results_keep_submission_order() {
        // Jobs finish out of order (later jobs are cheaper) but the
        // output order must match the input order.
        let inputs: Vec<u64> = (0..32).collect();
        let out = Exec::new(4).run(inputs.clone(), |i| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * 10
        });
        assert_eq!(out, inputs.iter().map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = Exec::new(16).run(vec![1, 2], |i| i + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn sequential_path_matches() {
        let inputs: Vec<u32> = (0..10).collect();
        let a = Exec::sequential().run(inputs.clone(), |i| i * i);
        let b = Exec::new(3).run(inputs, |i| i * i);
        assert_eq!(a, b);
    }

    // std::thread::scope replaces the payload with its own ("a scoped
    // thread panicked"), so only the fact of the panic is asserted.
    #[test]
    #[should_panic]
    fn job_panics_propagate() {
        Exec::new(2).run(vec![0, 1, 2, 3], |i| {
            if i == 2 {
                panic!("job failed");
            }
            i
        });
    }

    #[test]
    fn mutable_borrows_flow_through_jobs() {
        // The engine's fan-out hands each job an exclusive &mut into
        // caller-owned state; results land back in submission order.
        let mut cells = [0u64; 8];
        let inputs: Vec<(usize, &mut u64)> = cells.iter_mut().enumerate().collect();
        Exec::new(4).run(inputs, |(i, cell)| *cell = i as u64 + 1);
        assert_eq!(cells, [1, 2, 3, 4, 5, 6, 7, 8]);
    }
}
