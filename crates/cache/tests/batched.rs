//! Property tests: the batched range APIs on `CoherenceController` are
//! bit-equivalent to the per-line loops they replaced — same accumulated
//! `AccessEffects`, same hit counts, same observable cache state — across
//! random geometries, priming traffic, modes and burst shapes.

use cohmeleon_cache::{
    AccessEffects, AddressMap, CacheGeometry, CacheId, CoherenceController, LineAddr, WalkMode,
};
use cohmeleon_core::PartitionId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 96;

/// A random but valid cache geometry: sets × small ways, deliberately
/// including non-power-of-two set counts (and 3-way associativity) so the
/// reciprocal set mapping and the stripe walk see awkward shapes.
fn arb_geometry(rng: &mut SmallRng, max_sets: u64) -> CacheGeometry {
    let sets = rng.gen_range(2..=max_sets);
    let ways = [1u32, 2, 3, 4][rng.gen_range(0..4)];
    CacheGeometry::new(sets * u64::from(ways) * 64, ways, 64)
}

/// One priming operation, interpreted against a controller.
#[derive(Debug, Clone, Copy)]
struct PrimeOp {
    kind: u8,
    cache: u16,
    line: u64,
    write: bool,
}

fn arb_prime_ops(rng: &mut SmallRng, lines_span: u64) -> Vec<PrimeOp> {
    (0..rng.gen_range(0..40usize))
        .map(|_| PrimeOp {
            kind: rng.gen_range(0..5),
            cache: rng.gen_range(0..4),
            line: rng.gen_range(0..lines_span),
            write: rng.gen(),
        })
        .collect()
}

fn apply_prime(c: &mut CoherenceController, op: PrimeOp, n_l2s: u16, base: LineAddr) {
    let cache = CacheId(op.cache % n_l2s);
    let line = LineAddr(base.0 + op.line);
    match op.kind {
        0 => {
            c.l2_access(cache, line, op.write);
        }
        1 => {
            c.coh_dma_access(line, op.write);
        }
        2 => {
            c.llc_coh_dma_access(line, op.write);
        }
        3 => {
            c.l2_store_streaming(cache, line);
        }
        _ => {
            c.flush_l2(cache);
        }
    }
}

/// The setup every range property shares: an L2 and an LLC geometry,
/// 1–3 L2s over 1–2 partitions, priming traffic, and the partition whose
/// region the burst hits.
struct Setup {
    l2_geom: CacheGeometry,
    llc_geom: CacheGeometry,
    n_l2s: u16,
    partitions: u16,
    prime: Vec<PrimeOp>,
    p: u16,
}

fn arb_setup(rng: &mut SmallRng) -> Setup {
    Setup {
        l2_geom: arb_geometry(rng, 16),
        llc_geom: arb_geometry(rng, 48),
        n_l2s: rng.gen_range(1..4),
        partitions: rng.gen_range(1..3),
        prime: arb_prime_ops(rng, SPAN),
        p: rng.gen_range(0..3),
    }
}

/// Builds two identical controllers, primes both with the same traffic, and
/// returns them with the base line of partition `s.p`.
fn primed_pair(s: &Setup) -> (CoherenceController, CoherenceController, LineAddr) {
    let map = AddressMap::new(s.partitions);
    let geoms = vec![s.l2_geom; s.n_l2s as usize];
    let mut a = CoherenceController::new(map, &geoms, s.llc_geom);
    let mut b = CoherenceController::new(map, &geoms, s.llc_geom);
    let base = map.region_base(PartitionId(s.p % s.partitions));
    for op in &s.prime {
        apply_prime(&mut a, *op, s.n_l2s, base);
        apply_prime(&mut b, *op, s.n_l2s, base);
    }
    (a, b, base)
}

/// Asserts every observable piece of state matches over the given line span.
fn assert_state_eq(
    case: u64,
    a: &CoherenceController,
    b: &CoherenceController,
    base: LineAddr,
    span: u64,
) {
    assert_eq!(a.llc_valid_lines(), b.llc_valid_lines(), "case {case}");
    assert_eq!(a.llc_dirty_lines(), b.llc_dirty_lines(), "case {case}");
    for c in 0..a.num_l2s() {
        let (x, y) = (a.l2(CacheId(c as u16)), b.l2(CacheId(c as u16)));
        assert_eq!(x.valid_lines(), y.valid_lines(), "case {case}: L2 {c}");
        assert_eq!(x.dirty_lines(), y.dirty_lines(), "case {case}: L2 {c}");
        assert_eq!(x.hits(), y.hits(), "case {case}: L2 {c}");
        assert_eq!(x.misses(), y.misses(), "case {case}: L2 {c}");
    }
    for p in 0..a.num_partitions() {
        let (x, y) = (a.llc(PartitionId(p as u16)), b.llc(PartitionId(p as u16)));
        assert_eq!(x.valid_lines(), y.valid_lines(), "case {case}: LLC {p}");
        assert_eq!(x.hits(), y.hits(), "case {case}: LLC {p}");
        assert_eq!(x.misses(), y.misses(), "case {case}: LLC {p}");
    }
    for i in 0..span {
        let line = LineAddr(base.0 + i);
        for c in 0..a.num_l2s() {
            let id = CacheId(c as u16);
            assert_eq!(
                a.l2(id).peek(line),
                b.l2(id).peek(line),
                "case {case}: L2 {c} line {i}"
            );
        }
        let pa = a.llc(a.address_map().partition_of(line)).peek(line);
        let pb = b.llc(b.address_map().partition_of(line)).peek(line);
        assert_eq!(pa, pb, "case {case}: LLC line {i}");
    }
    for c in [a, b] {
        c.validate_coherence()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// One operation from the full mixed vocabulary — per-line accesses, all
/// four batched range paths, and L2 flushes (interleaved invalidations).
#[derive(Debug, Clone, Copy)]
struct MixedOp {
    kind: u8,
    cache: u16,
    line: u64,
    count: u64,
    write: bool,
}

fn arb_mixed_ops(rng: &mut SmallRng, lines_span: u64) -> Vec<MixedOp> {
    (0..rng.gen_range(1..24usize))
        .map(|_| MixedOp {
            kind: rng.gen_range(0..9),
            cache: rng.gen_range(0..4),
            line: rng.gen_range(0..lines_span),
            count: rng.gen_range(1..160),
            write: rng.gen(),
        })
        .collect()
}

/// Applies one mixed op; returns everything the caller can observe from
/// it: the access effects plus the L2 range hit count / flush totals.
fn apply_mixed(
    c: &mut CoherenceController,
    op: MixedOp,
    n_l2s: u16,
    base: LineAddr,
) -> (AccessEffects, u64, u64) {
    let cache = CacheId(op.cache % n_l2s);
    let line = LineAddr(base.0 + op.line);
    match op.kind {
        0 => (c.l2_access(cache, line, op.write), 0, 0),
        1 => (c.coh_dma_access(line, op.write), 0, 0),
        2 => (c.llc_coh_dma_access(line, op.write), 0, 0),
        3 => (c.l2_store_streaming(cache, line), 0, 0),
        4 => {
            let (fx, hits) = c.l2_access_range(cache, line, op.count, op.write);
            (fx, hits, 0)
        }
        5 => (c.coh_dma_access_range(line, op.count, op.write), 0, 0),
        6 => (c.llc_coh_dma_access_range(line, op.count, op.write), 0, 0),
        7 => (c.l2_store_streaming_range(cache, line, op.count), 0, 0),
        _ => {
            let fx = c.flush_l2(cache);
            (AccessEffects::new(), fx.writebacks, fx.lines())
        }
    }
}

const SPAN: u64 = 256;

/// `coh_dma_access_range` ≡ per-line `coh_dma_access`.
#[test]
fn coh_dma_range_matches_per_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (mut a, mut b, base) = primed_pair(&arb_setup(&mut rng));
        let first = LineAddr(base.0 + rng.gen_range(0..SPAN));
        let (count, write) = (rng.gen_range(1..128), rng.gen());
        let batched = a.coh_dma_access_range(first, count, write);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.coh_dma_access(first.offset(i), write));
        }
        assert_eq!(batched, looped, "case {case}");
        assert_state_eq(case, &a, &b, base, SPAN + 128);
    }
}

/// `llc_coh_dma_access_range` ≡ per-line `llc_coh_dma_access`.
#[test]
fn llc_coh_dma_range_matches_per_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (mut a, mut b, base) = primed_pair(&arb_setup(&mut rng));
        let first = LineAddr(base.0 + rng.gen_range(0..SPAN));
        let (count, write) = (rng.gen_range(1..128), rng.gen());
        let batched = a.llc_coh_dma_access_range(first, count, write);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.llc_coh_dma_access(first.offset(i), write));
        }
        assert_eq!(batched, looped, "case {case}");
        assert_state_eq(case, &a, &b, base, SPAN + 128);
    }
}

/// `l2_access_range` ≡ per-line `l2_access`, including the hit count.
#[test]
fn l2_access_range_matches_per_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let setup = arb_setup(&mut rng);
        let (mut a, mut b, base) = primed_pair(&setup);
        let cache = CacheId(rng.gen_range(0..4) % setup.n_l2s);
        let first = LineAddr(base.0 + rng.gen_range(0..SPAN));
        let (count, write) = (rng.gen_range(1..128), rng.gen());
        let (batched, batched_hits) = a.l2_access_range(cache, first, count, write);
        let mut looped = AccessEffects::new();
        let mut looped_hits = 0u64;
        for i in 0..count {
            let fx = b.l2_access(cache, first.offset(i), write);
            if fx.l2_hit {
                looped_hits += 1;
            }
            looped.accumulate(&fx);
        }
        assert_eq!(batched, looped, "case {case}");
        assert_eq!(batched_hits, looped_hits, "case {case}");
        assert_state_eq(case, &a, &b, base, SPAN + 128);
    }
}

/// `l2_store_streaming_range` ≡ per-line `l2_store_streaming`.
#[test]
fn l2_streaming_range_matches_per_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let setup = arb_setup(&mut rng);
        let (mut a, mut b, base) = primed_pair(&setup);
        let cache = CacheId(rng.gen_range(0..4) % setup.n_l2s);
        let first = LineAddr(base.0 + rng.gen_range(0..SPAN));
        let count = rng.gen_range(1..128);
        let batched = a.l2_store_streaming_range(cache, first, count);
        let mut looped = AccessEffects::new();
        for i in 0..count {
            looped.accumulate(&b.l2_store_streaming(cache, first.offset(i)));
        }
        assert_eq!(batched, looped, "case {case}");
        assert_state_eq(case, &a, &b, base, SPAN + 128);
    }
}

/// A controller in `Run` walk mode stays observably identical to one
/// in `PerLine` mode across random mixed op sequences — per-op access
/// effects, hit counts, flush totals, and every probe-visible piece
/// of state, including the LRU order as exposed by later evictions.
#[test]
fn run_walk_matches_per_line_walk() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let Setup {
            l2_geom,
            llc_geom,
            n_l2s,
            partitions,
            p,
            ..
        } = arb_setup(&mut rng);
        let map = AddressMap::new(partitions);
        let geoms = vec![l2_geom; n_l2s as usize];
        let mut a = CoherenceController::new(map, &geoms, llc_geom);
        let mut b = CoherenceController::new(map, &geoms, llc_geom);
        a.set_walk_mode(WalkMode::Run);
        b.set_walk_mode(WalkMode::PerLine);
        let base = map.region_base(PartitionId(p % partitions));
        for (i, op) in arb_mixed_ops(&mut rng, SPAN).into_iter().enumerate() {
            let fa = apply_mixed(&mut a, op, n_l2s, base);
            let fb = apply_mixed(&mut b, op, n_l2s, base);
            assert_eq!(fa, fb, "case {case}: op {i}");
        }
        assert_state_eq(case, &a, &b, base, SPAN + 192);
    }
}

/// Focused wraparound stripes: bursts longer than the LLC set count
/// (every set gets a multi-member stripe, wrapping several laps)
/// match the per-line reference, with the LRU/dirty evolution pinned
/// by follow-up mixed traffic over the same lines.
#[test]
fn llc_stripe_wraparound_matches_per_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let l2_geom = arb_geometry(&mut rng, 8);
        let llc_sets = rng.gen_range(2..12);
        let ways = [1u32, 2, 3, 4][rng.gen_range(0..4)];
        let n_l2s = rng.gen_range(1..3);
        let llc_geom = CacheGeometry::new(llc_sets * u64::from(ways) * 64, ways, 64);
        let map = AddressMap::new(1);
        let geoms = vec![l2_geom; n_l2s as usize];
        let mut a = CoherenceController::new(map, &geoms, llc_geom);
        let mut b = CoherenceController::new(map, &geoms, llc_geom);
        a.set_walk_mode(WalkMode::Run);
        b.set_walk_mode(WalkMode::PerLine);
        let base = map.region_base(PartitionId(0));
        for op in arb_prime_ops(&mut rng, SPAN) {
            apply_prime(&mut a, op, n_l2s, base);
            apply_prime(&mut b, op, n_l2s, base);
        }
        let first = LineAddr(base.0 + rng.gen_range(0..SPAN));
        let count = llc_sets * rng.gen_range(1..4) + rng.gen_range(1..32);
        let write = rng.gen();
        let fa = a.llc_coh_dma_access_range(first, count, write);
        let fb = b.llc_coh_dma_access_range(first, count, write);
        assert_eq!(fa, fb, "case {case}");
        for (i, op) in arb_mixed_ops(&mut rng, SPAN).into_iter().enumerate() {
            let fa = apply_mixed(&mut a, op, n_l2s, base);
            let fb = apply_mixed(&mut b, op, n_l2s, base);
            assert_eq!(fa, fb, "case {case}: follow op {i}");
        }
        assert_state_eq(case, &a, &b, base, SPAN + 192);
    }
}

/// Flushes drain exactly the resident lines: effects match the dirty /
/// valid counts observed beforehand, and both structures end empty.
#[test]
fn flush_accounts_for_every_resident_line() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let setup = Setup {
            p: 0,
            ..arb_setup(&mut rng)
        };
        let (mut a, _, _) = primed_pair(&setup);
        for c in 0..setup.n_l2s {
            let id = CacheId(c);
            let valid = a.l2(id).valid_lines();
            let dirty = a.l2(id).dirty_lines();
            let fx = a.flush_l2(id);
            assert_eq!(fx.writebacks, dirty, "case {case}: L2 {c}");
            assert_eq!(fx.lines(), valid, "case {case}: L2 {c}");
            assert_eq!(a.l2(id).valid_lines(), 0, "case {case}: L2 {c}");
        }
        let llc_valid = a.llc_valid_lines();
        let llc_dirty = a.llc_dirty_lines();
        let fx = a.flush_all_llcs();
        assert_eq!(fx.writebacks, llc_dirty, "case {case}");
        assert_eq!(fx.lines(), llc_valid, "case {case}");
        assert_eq!(a.llc_valid_lines(), 0, "case {case}");
        a.validate_coherence()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
