//! Property tests for the simulation primitives.

use cohmeleon_sim::stats::{geometric_mean, Counter, RunningExtrema};
use cohmeleon_sim::{Cycle, EventQueue, Resource, SeedStream};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 64;

/// Events pop in non-decreasing time order regardless of insertion order.
#[test]
fn event_queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n: usize = rng.gen_range(1..200);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Cycle(rng.gen_range(0..1_000_000)), i);
        }
        let mut last = Cycle::ZERO;
        let mut popped = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "case {case}: {at} after {last}");
            last = at;
            popped += 1;
        }
        assert_eq!(popped, n, "case {case}");
    }
}

/// Same-time events preserve FIFO order.
#[test]
fn event_queue_is_fifo_within_a_timestamp() {
    for case in 0..CASES {
        let n: usize = SmallRng::seed_from_u64(case).gen_range(1..100);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(Cycle(42), i);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some((Cycle(42), i)), "case {case}");
        }
    }
}

/// A resource never grants overlapping windows, each window is exactly
/// its service time, and the resource is next free when the last one
/// ends.
#[test]
fn resource_grants_never_overlap() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut reqs: Vec<(u64, u64)> = (0..rng.gen_range(1..100usize))
            .map(|_| (rng.gen_range(0..10_000), rng.gen_range(0..100)))
            .collect();
        reqs.sort_by_key(|(at, _)| *at);
        let mut r = Resource::new("prop");
        let mut prev_end = Cycle::ZERO;
        for (at, service) in reqs {
            let g = r.acquire(Cycle(at), Cycle(service));
            assert!(g.start >= prev_end, "case {case}: grants must not overlap");
            assert!(g.start >= Cycle(at), "case {case}: starts before arrival");
            assert_eq!(g.end - g.start, Cycle(service), "case {case}");
            prev_end = g.end;
        }
        assert_eq!(r.next_free(), prev_end, "case {case}");
    }
}

/// Seed streams are pure functions of (master, tag, n).
#[test]
fn seed_streams_are_reproducible() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (s, n) = (SeedStream::new(rng.gen()), rng.gen());
        let a: u64 = s.stream_n("tag", n).gen();
        let b: u64 = s.stream_n("tag", n).gen();
        assert_eq!(a, b, "case {case}");
    }
}

/// Counter deltas are exact for any pair of sample points.
#[test]
fn counter_delta_is_exact() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut c = Counter::new();
        c.add(rng.gen());
        let before = c.sample();
        let mut expect = 0u64;
        for _ in 0..rng.gen_range(0..50usize) {
            let i = rng.gen_range(0..1_000);
            c.add(i);
            expect = expect.wrapping_add(i);
        }
        assert_eq!(Counter::delta(before, c.sample()), expect, "case {case}");
    }
}

/// Extrema bound every observation.
#[test]
fn extrema_bound_observations() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let values: Vec<f64> = (0..rng.gen_range(1..100usize))
            .map(|_| rng.gen_range(-1e12..1e12))
            .collect();
        let mut e = RunningExtrema::new();
        for v in &values {
            e.observe(*v);
        }
        let min = e.min().expect("populated");
        let max = e.max().expect("populated");
        for v in &values {
            assert!(*v >= min && *v <= max, "case {case}: {v}");
        }
    }
}

/// The geometric mean lies between the extremes of positive inputs.
#[test]
fn geomean_is_between_min_and_max() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let values: Vec<f64> = (0..rng.gen_range(1..50usize))
            .map(|_| rng.gen_range(1e-6..1e6))
            .collect();
        let g = geometric_mean(values.iter().copied()).expect("non-empty");
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            g >= min * 0.999_999 && g <= max * 1.000_001,
            "case {case}: {g}"
        );
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

/// Under random interleavings of `schedule`, `pop` and `pop_batch_at`,
/// with clustered times so that ties (also at `now()`) are common, the
/// queue pops exactly the naive model's `(at, event)` stream and agrees
/// on `now()`, `len()` and `peek_time()` after every step.
#[test]
fn event_queue_matches_naive_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut q = EventQueue::new();
        let mut model = NaiveQueue::default();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut batch = Vec::new();
        let mut next_id = 0u32;
        for step in 0..rng.gen_range(1..300usize) {
            match rng.gen_range(0..8u8) {
                0..=3 => {
                    // Mostly within a few cycles of now (a third exactly at
                    // now), sometimes far ahead.
                    let (near, far) = (rng.gen_range(0..3), rng.gen_range(0..1000));
                    let spread = rng.gen_range(0..8u8);
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
            assert_eq!(got, want, "case {case}, step {step}");
            assert_eq!(q.now(), model.now, "case {case}, step {step}");
            assert_eq!(q.len(), model.pending.len(), "case {case}, step {step}");
            assert_eq!(q.peek_time(), model.peek_time(), "case {case}, step {step}");
        }
    }
}
