//! Hierarchical timer wheel — O(events due) expiry for millions of
//! in-flight connections.
//!
//! The fleet engine closes flows by deadline. A scan-based expiry pass
//! touches every live flow every tick (O(live) per tick — millions of
//! loads to fire a handful of closes), and a `BinaryHeap` costs a
//! 16-byte entry plus O(log n) re-heapification per event. This wheel
//! is the classic hashed hierarchical design instead:
//!
//! * **4 levels × 256 slots.** Level 0 ticks at 2^24 ns ≈ 16.8 ms;
//!   each higher level is 256× coarser. The wheel natively spans
//!   256^4 ticks ≈ 2.3 years of simulated time; deadlines beyond that
//!   park in the furthest level-3 slot and re-cascade (they never fire
//!   early).
//! * **Intrusive links.** Flows are addressed by their [`FlowStore`]
//!   slot index, so per-flow wheel state is one `u32` link plus the
//!   `u64` deadline — 12 bytes, in two dense arrays indexed by slot.
//!   No per-event allocation, ever.
//! * **O(events due) per advance.** Firing a tick pops one list;
//!   cascading redistributes one coarser slot every 256 ticks. Flows
//!   that never expire inside the run are never touched after
//!   scheduling.
//!
//! Deadlines are bucketed to tick granularity, rounding *up*: a flow
//! fires on the first [`TimerWheel::advance`] whose target tick reaches
//! the deadline rounded up to a tick boundary — never before its exact
//! deadline, at most one tick after (deadlines at or before the current
//! tick fire on the next tick). Within a tick, flows fire in LIFO
//! schedule order — deterministic, like everything else here.
//!
//! [`FlowStore`]: sr_workload::FlowStore

/// No-link sentinel in the intrusive lists.
const NIL: u32 = u32::MAX;

/// log2 of the level-0 tick, in nanoseconds (2^24 ns ≈ 16.8 ms).
pub const GRANULARITY_BITS: u32 = 24;
/// Slots per level (and the per-level fan-out between levels).
pub const SLOTS_PER_LEVEL: u64 = 256;
const LEVELS: usize = 4;
/// Ticks spanned by the wheel before far deadlines start parking.
const SPAN_TICKS: u64 = SLOTS_PER_LEVEL.pow(LEVELS as u32);

/// Hierarchical 4-level timer wheel keyed by dense `u32` ids.
#[derive(Clone, Debug)]
pub struct TimerWheel {
    /// `LEVELS * 256` list heads, flattened (`level * 256 + slot`).
    heads: Vec<u32>,
    /// Intrusive next-links, indexed by id.
    next: Vec<u32>,
    /// Scheduled deadline (ns), indexed by id; needed when cascading.
    deadline: Vec<u64>,
    /// Current tick (absolute, level-0 granularity).
    cur: u64,
    /// Scheduled-but-not-fired events.
    pending: u64,
}

impl TimerWheel {
    /// An empty wheel at tick 0, with room for ids `< cap`.
    pub fn with_capacity(cap: usize) -> TimerWheel {
        TimerWheel {
            heads: vec![NIL; LEVELS * SLOTS_PER_LEVEL as usize],
            next: vec![NIL; cap],
            deadline: vec![0; cap],
            cur: 0,
            pending: 0,
        }
    }

    /// Schedule id `id` to fire once `advance` reaches `deadline_ns`.
    /// Deadlines at or before the current tick fire on the next tick.
    /// `id` must not already be scheduled (ids are flow-store slots;
    /// the engine schedules each exactly once per occupancy).
    pub fn schedule(&mut self, id: u32, deadline_ns: u64) {
        let i = id as usize;
        if i >= self.next.len() {
            let cap = (i + 1).max(self.next.len() * 2).max(64);
            self.next.resize(cap, NIL);
            self.deadline.resize(cap, 0);
        }
        if let Some(d) = self.deadline.get_mut(i) {
            *d = deadline_ns;
        }
        self.insert_at(id, deadline_ns, self.cur + 1);
        self.pending += 1;
    }

    /// Link `id` into the slot for `max(fire_tick(deadline_ns),
    /// min_tick)`. Deadlines round *up* to the next tick boundary, so an
    /// event never fires before its deadline. Cascading passes
    /// `min_tick = cur` (the tick being processed may still fire); fresh
    /// schedules pass `cur + 1`.
    fn insert_at(&mut self, id: u32, deadline_ns: u64, min_tick: u64) {
        let gran = 1u64 << GRANULARITY_BITS;
        let tick =
            (deadline_ns / gran + u64::from(!deadline_ns.is_multiple_of(gran))).max(min_tick);
        let idx = self.slot_index(tick);
        if let (Some(head), Some(link)) = (self.heads.get_mut(idx), self.next.get_mut(id as usize))
        {
            *link = *head;
            *head = id;
        }
    }

    /// The flattened slot for an event at `tick` (> `self.cur`).
    fn slot_index(&self, tick: u64) -> usize {
        let tick = tick.min(self.cur + SPAN_TICKS - 1);
        let delta = tick - self.cur;
        let level = match delta {
            0..=0xff => 0,
            0x100..=0xffff => 1,
            0x1_0000..=0xff_ffff => 2,
            _ => 3,
        };
        let slot = (tick >> (8 * level)) & (SLOTS_PER_LEVEL - 1);
        level as usize * SLOTS_PER_LEVEL as usize + slot as usize
    }

    /// Advance to `now_ns`, calling `fire(id, deadline_ns)` for every
    /// event due. Cost is O(ticks crossed + events due), independent of
    /// how many events remain scheduled.
    pub fn advance(&mut self, now_ns: u64, mut fire: impl FnMut(u32, u64)) {
        let target = now_ns >> GRANULARITY_BITS;
        while self.cur < target {
            self.cur += 1;
            let c = self.cur;
            // Crossing a coarser boundary: pull the matching coarse slot
            // down before firing (its events belong to the next 256 finer
            // ticks, including this one).
            if c & 0xff == 0 {
                if c & 0xffff == 0 {
                    if c & 0xff_ffff == 0 {
                        self.cascade(3, ((c >> 24) & 0xff) as usize);
                    }
                    self.cascade(2, ((c >> 16) & 0xff) as usize);
                }
                self.cascade(1, ((c >> 8) & 0xff) as usize);
            }
            let idx = (c & 0xff) as usize;
            let mut id = self.heads.get(idx).copied().unwrap_or(NIL);
            if let Some(h) = self.heads.get_mut(idx) {
                *h = NIL;
            }
            while id != NIL {
                let i = id as usize;
                let nxt = self.next.get(i).copied().unwrap_or(NIL);
                if let Some(link) = self.next.get_mut(i) {
                    *link = NIL;
                }
                let due = self.deadline.get(i).copied().unwrap_or(0);
                self.pending -= 1;
                fire(id, due);
                id = nxt;
            }
        }
    }

    /// Re-distribute one coarse slot into finer levels.
    fn cascade(&mut self, level: usize, slot: usize) {
        let idx = level * SLOTS_PER_LEVEL as usize + slot;
        let mut id = self.heads.get(idx).copied().unwrap_or(NIL);
        if let Some(h) = self.heads.get_mut(idx) {
            *h = NIL;
        }
        while id != NIL {
            let i = id as usize;
            let nxt = self.next.get(i).copied().unwrap_or(NIL);
            let due = self.deadline.get(i).copied().unwrap_or(0);
            self.insert_at(id, due, self.cur);
            id = nxt;
        }
    }

    /// Events scheduled and not yet fired.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Heap bytes held (link + deadline arrays plus the fixed slot
    /// heads) — the wheel's entire footprint.
    pub fn allocated_bytes(&self) -> u64 {
        (self.heads.capacity() * 4 + self.next.capacity() * 4 + self.deadline.capacity() * 8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const TICK: u64 = 1 << GRANULARITY_BITS;

    /// Oracle semantics: an event scheduled at deadline `d` (while the
    /// wheel sat at tick 0) fires on the first advance whose target tick
    /// reaches `max(ceil(d / TICK), 1)`.
    #[test]
    fn matches_binary_heap_oracle_under_random_advances() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        let mut wheel = TimerWheel::with_capacity(64);
        let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let n = 5_000u32;
        for id in 0..n {
            // Mix of near (same tick), mid (minutes) and far deadlines.
            let d = match id % 5 {
                0 => rng.gen_range(0..TICK * 2),
                4 => rng.gen_range(TICK * 100_000..TICK * 200_000),
                _ => rng.gen_range(0..TICK * 4_000),
            };
            wheel.schedule(id, d);
            oracle.push(Reverse(((d / TICK + u64::from(d % TICK != 0)).max(1), id)));
        }
        assert_eq!(wheel.pending(), u64::from(n));
        let mut now = 0u64;
        while wheel.pending() > 0 {
            now += rng.gen_range(1..TICK * 700);
            let mut fired: Vec<u32> = Vec::new();
            wheel.advance(now, |id, _| fired.push(id));
            let mut expect: Vec<u32> = Vec::new();
            while let Some(&Reverse((t, id))) = oracle.peek() {
                if t <= now >> GRANULARITY_BITS {
                    expect.push(id);
                    oracle.pop();
                } else {
                    break;
                }
            }
            fired.sort_unstable();
            expect.sort_unstable();
            assert_eq!(fired, expect, "at now={now}");
        }
        assert!(oracle.is_empty());
    }

    #[test]
    fn fires_with_bucketed_deadline_not_early() {
        let mut w = TimerWheel::with_capacity(4);
        w.schedule(0, TICK * 10 + 5);
        let mut fired = Vec::new();
        w.advance(TICK * 10 + 4, |id, d| fired.push((id, d)));
        assert!(fired.is_empty(), "tick 10 not reached yet");
        w.advance(TICK * 11, |id, d| fired.push((id, d)));
        assert_eq!(fired, [(0, TICK * 10 + 5)], "deadline passes through");
    }

    #[test]
    fn past_deadlines_fire_next_tick() {
        let mut w = TimerWheel::with_capacity(4);
        w.advance(TICK * 100, |_, _| panic!("nothing scheduled"));
        w.schedule(1, 0);
        w.schedule(2, TICK * 100); // == current tick
        let mut fired = Vec::new();
        w.advance(TICK * 101, |id, _| fired.push(id));
        fired.sort_unstable();
        assert_eq!(fired, [1, 2]);
    }

    #[test]
    fn far_deadlines_park_without_firing() {
        let mut w = TimerWheel::with_capacity(4);
        // Beyond the native span (~2.3 years): must park, not wrap into
        // an early slot.
        w.schedule(0, TICK * (SPAN_TICKS * 3));
        let mut fired = Vec::new();
        w.advance(TICK * 2_000_000, |id, _| fired.push(id));
        assert!(fired.is_empty());
        assert_eq!(w.pending(), 1);
    }

    #[test]
    fn twelve_bytes_per_id_plus_fixed_slots() {
        let w = TimerWheel::with_capacity(1_000);
        assert_eq!(w.allocated_bytes(), 12 * 1_000 + 4 * 4 * 256);
    }
}
