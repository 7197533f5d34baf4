//! Property tests for the simulation primitives.

use cohmeleon_sim::stats::{geometric_mean, Counter, RunningExtrema};
use cohmeleon_sim::{Cycle, EventQueue, Resource, SeedStream};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    /// Events pop in non-decreasing time order regardless of insertion order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Cycle(*t), i);
        }
        let mut last = Cycle::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Same-time events preserve FIFO order.
    #[test]
    fn event_queue_is_fifo_within_a_timestamp(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Cycle(42), i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some((Cycle(42), i)));
        }
    }

    /// A resource never grants overlapping windows, and service time is
    /// conserved.
    #[test]
    fn resource_grants_never_overlap(reqs in proptest::collection::vec((0u64..10_000, 0u64..100), 1..100)) {
        let mut r = Resource::new("prop");
        let mut sorted = reqs.clone();
        sorted.sort_by_key(|(at, _)| *at);
        let mut prev_end = Cycle::ZERO;
        let mut total_service = 0u64;
        for (at, service) in sorted {
            let g = r.acquire(Cycle(at), Cycle(service));
            prop_assert!(g.start >= prev_end, "grants must not overlap");
            prop_assert!(g.start >= Cycle(at), "service cannot start before arrival");
            prop_assert_eq!(g.end - g.start, Cycle(service));
            prev_end = g.end;
            total_service += service;
        }
        prop_assert_eq!(r.busy_cycles(), Cycle(total_service));
    }

    /// Seed streams are pure functions of (master, tag, n).
    #[test]
    fn seed_streams_are_reproducible(master in any::<u64>(), n in any::<u64>()) {
        let s = SeedStream::new(master);
        let a: u64 = s.stream_n("tag", n).gen();
        let b: u64 = s.stream_n("tag", n).gen();
        prop_assert_eq!(a, b);
    }

    /// Counter deltas are exact for any pair of sample points.
    #[test]
    fn counter_delta_is_exact(start in any::<u64>(), increments in proptest::collection::vec(0u64..1_000, 0..50)) {
        let mut c = Counter::new();
        c.add(start);
        let before = c.sample();
        let mut expect = 0u64;
        for i in &increments {
            c.add(*i);
            expect = expect.wrapping_add(*i);
        }
        prop_assert_eq!(Counter::delta(before, c.sample()), expect);
    }

    /// Extrema bound every observation.
    #[test]
    fn extrema_bound_observations(values in proptest::collection::vec(-1e12f64..1e12, 1..100)) {
        let mut e = RunningExtrema::new();
        for v in &values {
            e.observe(*v);
        }
        let min = e.min().expect("populated");
        let max = e.max().expect("populated");
        for v in &values {
            prop_assert!(*v >= min && *v <= max);
        }
    }

    /// The geometric mean lies between the extremes of positive inputs.
    #[test]
    fn geomean_is_between_min_and_max(values in proptest::collection::vec(1e-6f64..1e6, 1..50)) {
        let g = geometric_mean(values.iter().copied()).expect("non-empty");
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        prop_assert!(g >= min * 0.999_999 && g <= max * 1.000_001);
    }
}

/// The queue's reference model: pending events in insertion order, the
/// next one found by a linear scan for the minimum `(at, seq)`.
#[derive(Default)]
struct NaiveQueue {
    pending: Vec<(Cycle, u64, u32)>,
    seq: u64,
    now: Cycle,
}

impl NaiveQueue {
    fn schedule(&mut self, at: Cycle, event: u32) {
        self.pending.push((at, self.seq, event));
        self.seq += 1;
    }

    fn next(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.next().map(|i| self.pending[i].0)
    }

    fn pop(&mut self) -> Option<(Cycle, u32)> {
        let (at, _, event) = self.pending.remove(self.next()?);
        self.now = at;
        Some((at, event))
    }
}

proptest! {
    /// Under random interleavings of `schedule`, `pop` and `pop_batch_at`,
    /// with clustered times so that ties (also at `now()`) are common, the
    /// queue pops exactly the naive model's `(at, event)` stream and agrees
    /// on `now()`, `len()` and `peek_time()` after every step.
    #[test]
    fn event_queue_matches_naive_model(
        ops in proptest::collection::vec((0u8..8, 0u64..3, 0u64..1000, 0u8..8), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = NaiveQueue::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut batch = Vec::new();
        let mut next_id = 0u32;
        for (step, &(op, near, far, spread)) in ops.iter().enumerate() {
            match op {
                0..=3 => {
                    // Mostly within a few cycles of now (a third exactly at
                    // now), sometimes far ahead.
                    let at = q.now() + Cycle(if spread == 0 { far } else { near });
                    q.schedule(at, next_id);
                    model.schedule(at, next_id);
                    next_id += 1;
                }
                4 | 5 => {
                    got.extend(q.pop());
                    want.extend(model.pop());
                }
                _ => {
                    let at = q.pop_batch_at(&mut batch);
                    got.extend(batch.drain(..).map(|e| (at.expect("batch has a time"), e)));
                    if let Some(t) = model.peek_time() {
                        while model.peek_time() == Some(t) {
                            want.extend(model.pop());
                        }
                    }
                }
            }
            prop_assert_eq!(&got, &want, "step {}: popped streams diverged", step);
            prop_assert_eq!(q.now(), model.now, "step {}: now", step);
            prop_assert_eq!(q.len(), model.pending.len(), "step {}: len", step);
            prop_assert_eq!(q.peek_time(), model.peek_time(), "step {}: peek_time", step);
        }
    }
}
