//! Deterministic discrete-event queue.
//!
//! The SoC simulator advances by repeatedly popping the earliest pending
//! event (a thread ready to issue its next DMA burst or waiting for its DMA
//! window to drain, a CPU thread reaching an invocation point, a flush
//! completing, …), processing it, and scheduling follow-up events.
//! Determinism requires a total order even when several events share a
//! timestamp, so the queue breaks ties by insertion order (FIFO).

use crate::time::Cycle;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Events of type `E` are scheduled at absolute [`Cycle`] timestamps and
/// popped in non-decreasing time order. Two events scheduled for the same
/// cycle are popped in the order they were scheduled, which makes simulation
/// runs bit-reproducible.
///
/// Pending events live in one vector sorted by descending `(time, sequence
/// number)`, so the next event is the last element and a pop is a
/// `Vec::pop`. A schedule scans from the back for its slot, which is cheap
/// while few events are pending: the SoC engine keeps at most one per
/// simulated thread, and an event earlier than everything pending (a
/// thread's own short follow-up, most often) is a plain push.
///
/// # Example
///
/// ```
/// use cohmeleon_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(Cycle(8), 'b');
/// q.schedule(Cycle(3), 'a');
/// q.schedule(Cycle(8), 'c'); // same time as 'b': FIFO order preserved
///
/// assert_eq!(q.pop(), Some((Cycle(3), 'a')));
/// assert_eq!(q.pop(), Some((Cycle(8), 'b')));
/// assert_eq!(q.pop(), Some((Cycle(8), 'c')));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `(key(at, seq), event)`, sorted by descending key.
    pending: Vec<(u128, E)>,
    seq: u64,
    now: Cycle,
}

/// Packs `(at, seq)` into one integer that orders exactly as the pair.
fn key(at: Cycle, seq: u64) -> u128 {
    (u128::from(at.raw()) << 64) | u128::from(seq)
}

/// The timestamp half of a [`key`].
fn time_of(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at time zero.
    pub fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events —
    /// the arena form: a caller that knows its concurrency bound (e.g. one
    /// in-flight event per simulated thread) pre-sizes once and never pays
    /// a buffer growth mid-simulation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            pending: Vec::with_capacity(capacity),
            seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// Reserves room for at least `additional` more pending events beyond
    /// the current length. The buffer survives pops, so reserving once per
    /// phase keeps later phases allocation-free.
    pub fn reserve(&mut self, additional: usize) {
        self.pending.reserve(additional);
    }

    /// The number of pending events the queue can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.pending.capacity()
    }

    /// The timestamp of the most recently popped event (time zero before the
    /// first pop). Simulated components use this as "the current time".
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](Self::now): scheduling into the
    /// past would silently corrupt causality, so it is treated as a bug in
    /// the caller.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} < now={}",
            self.now
        );
        let key = key(at, self.seq);
        self.seq += 1;
        // Sequence numbers are unique, so no pending key equals `key`: the
        // new event goes right after the last one that fires later.
        let slot = self
            .pending
            .iter()
            .rposition(|&(pending, _)| pending > key)
            .map_or(0, |later| later + 1);
        self.pending.insert(slot, (key, event));
    }

    /// Schedules `event` to fire `delay` cycles after the current time.
    pub fn schedule_after(&mut self, delay: Cycle, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing [`now`](Self::now)
    /// to its timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (key, event) = self.pending.pop()?;
        self.now = time_of(key);
        Some((self.now, event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.pending.last().map(|&(key, _)| time_of(key))
    }

    /// Removes every event scheduled at the earliest pending timestamp,
    /// appending them to `out` in exactly the order repeated [`pop`](Self::pop)
    /// calls would return them (FIFO among equal timestamps), and advances
    /// [`now`](Self::now) to that timestamp. Returns the drained timestamp,
    /// or `None` if the queue was empty.
    ///
    /// The batch is the tail of the sorted buffer, popped from the end, and
    /// lets the caller process a whole simulated cycle without re-peeking
    /// between events and without per-event borrow juggling. `out` is not
    /// cleared: callers reuse a scratch buffer across batches.
    pub fn pop_batch_at(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        let (at, event) = self.pop()?;
        out.push(event);
        while let Some((_, event)) = self.pending.pop_if(|&mut (key, _)| time_of(key) == at) {
            out.push(event);
        }
        Some(at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(30), 3);
        q.schedule(Cycle(10), 1);
        q.schedule(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(7), i)));
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), Cycle::ZERO);
        q.schedule(Cycle(5), ());
        q.pop();
        assert_eq!(q.now(), Cycle(5));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), "first");
        q.pop();
        q.schedule_after(Cycle(10), "second");
        assert_eq!(q.pop(), Some((Cycle(15), "second")));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(10), ());
        q.pop();
        q.schedule(Cycle(9), ());
    }

    #[test]
    fn with_capacity_pre_sizes_and_survives_pops() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.capacity() >= 16);
        for i in 0..16 {
            q.schedule(Cycle(i), i);
        }
        let cap = q.capacity();
        while q.pop().is_some() {}
        // Draining must not shrink the arena.
        assert_eq!(q.capacity(), cap);
        q.reserve(32);
        assert!(q.capacity() >= 32);
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Cycle(1), ());
        q.schedule(Cycle(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), ());
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        assert_eq!(q.now(), Cycle::ZERO);
    }

    #[test]
    fn pop_batch_at_drains_one_timestamp_fifo() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(5), 'a');
        q.schedule(Cycle(3), 'x');
        q.schedule(Cycle(5), 'b');
        q.schedule(Cycle(3), 'y');
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_at(&mut batch), Some(Cycle(3)));
        assert_eq!(batch, vec!['x', 'y']);
        assert_eq!(q.now(), Cycle(3));
        batch.clear();
        assert_eq!(q.pop_batch_at(&mut batch), Some(Cycle(5)));
        assert_eq!(batch, vec!['a', 'b']);
        batch.clear();
        assert_eq!(q.pop_batch_at(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_at_allows_scheduling_at_drained_time() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(4), 1);
        let mut batch = Vec::new();
        q.pop_batch_at(&mut batch);
        // A handler may schedule a zero-delay follow-up at the drained
        // time; it lands in the *next* batch, exactly as with pop().
        q.schedule(Cycle(4), 2);
        batch.clear();
        assert_eq!(q.pop_batch_at(&mut batch), Some(Cycle(4)));
        assert_eq!(batch, vec![2]);
    }

    /// Property: over randomized schedules (with mid-drain insertions),
    /// batch draining yields the exact event sequence per-pop draining
    /// yields. This is the bit-identity contract the engine relies on.
    #[test]
    fn pop_batch_at_is_bit_identical_to_per_pop_order() {
        let mut rng = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            // xorshift64* — deterministic, no external crates.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545F4914F6CDD1D)
        };
        for _case in 0..50 {
            let mut q: EventQueue<u32> = EventQueue::new();
            let mut id = 0u32;
            for _ in 0..40 {
                // Clustered timestamps force plenty of equal-time ties.
                q.schedule(Cycle(next() % 8), id);
                id += 1;
            }
            let mut per_pop = q.clone();
            let mut rng_a = next();
            let mut rng_b = rng_a; // identical decision streams

            // Drain both queues fully, occasionally scheduling follow-ups
            // (same pseudo-random choices on both sides).
            let mut batch_seq = Vec::new();
            let mut scratch = Vec::new();
            while let Some(at) = q.pop_batch_at(&mut scratch) {
                for &e in &scratch {
                    batch_seq.push((at, e));
                    rng_a = rng_a.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if rng_a >> 60 == 0 && id < 100 {
                        q.schedule(at + Cycle(rng_a % 4), id);
                        id += 1;
                    }
                }
                scratch.clear();
            }

            let mut id = 40u32; // mirror: ids continue from the same point
            let mut pop_seq = Vec::new();
            while let Some((at, e)) = per_pop.pop() {
                pop_seq.push((at, e));
                rng_b = rng_b.wrapping_mul(6364136223846793005).wrapping_add(1);
                if rng_b >> 60 == 0 && id < 100 {
                    per_pop.schedule(at + Cycle(rng_b % 4), id);
                    id += 1;
                }
            }

            assert_eq!(batch_seq, pop_seq, "drain orders diverged");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(Cycle(1), 1);
        q.schedule(Cycle(100), 100);
        assert_eq!(q.pop(), Some((Cycle(1), 1)));
        q.schedule(Cycle(50), 50);
        q.schedule(Cycle(2), 2);
        assert_eq!(q.pop(), Some((Cycle(2), 2)));
        assert_eq!(q.pop(), Some((Cycle(50), 50)));
        assert_eq!(q.pop(), Some((Cycle(100), 100)));
    }
}
