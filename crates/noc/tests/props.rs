//! Property tests for the mesh and NoC model.

use cohmeleon_noc::network::PlaneStats;
use cohmeleon_noc::{Coord, Mesh, Noc, NocConfig, Plane};
use cohmeleon_sim::{Cycle, Grant, Resource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `n` draws its inputs from `SmallRng::seed_from_u64(n)`.
const CASES: u64 = 64;

/// A (source, destination) pair on a `w` × `h` mesh.
fn arb_coords(rng: &mut SmallRng, w: u8, h: u8) -> (Coord, Coord) {
    let mut tile = || Coord::new(rng.gen_range(0..w), rng.gen_range(0..h));
    (tile(), tile())
}

/// XY routes have exactly Manhattan-distance hops and end at the
/// destination.
#[test]
fn routes_are_minimal_and_correct() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (w, h) = (rng.gen_range(1..8), rng.gen_range(1..8));
        let mesh = Mesh::new(w, h);
        let mut lcg: u64 = rng.gen();
        for _ in 0..16 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let src = Coord::new((lcg >> 8) as u8 % w, (lcg >> 16) as u8 % h);
            let dst = Coord::new((lcg >> 24) as u8 % w, (lcg >> 32) as u8 % h);
            let route = mesh.route(src, dst);
            assert_eq!(
                route.len() as u32,
                src.manhattan(dst),
                "case {case}: {src:?} -> {dst:?}"
            );
            // Links are within the array bounds.
            for link in &route {
                assert!(mesh.link_index(*link) < mesh.links(), "case {case}");
            }
        }
    }
}

/// Transfers always arrive strictly after injection, and uncontended
/// latency grows with distance and payload.
#[test]
fn transfer_latency_is_positive_and_monotone() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (src, dst) = arb_coords(&mut rng, 6, 6);
        let bytes = rng.gen_range(0..4096);
        let mut noc = Noc::new(NocConfig::new(6, 6));
        let arrival = noc.transfer(Plane::DmaReq, src, dst, bytes, Cycle(1000));
        assert!(arrival > Cycle(1000), "case {case}");
        let ideal = noc.ideal_latency(src, dst, bytes);
        // First transfer on an idle NoC matches the ideal latency.
        assert_eq!(arrival - Cycle(1000), ideal, "case {case}");

        // More payload on a fresh NoC is never faster.
        let mut noc2 = Noc::new(NocConfig::new(6, 6));
        let bigger = noc2.transfer(Plane::DmaReq, src, dst, bytes + 512, Cycle(1000));
        assert!(bigger >= arrival, "case {case}");
    }
}

/// Back-to-back transfers on one plane serialize: total flits carried
/// equal the sum of each transfer's flits.
#[test]
fn flit_accounting_is_additive() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let mut noc = Noc::new(NocConfig::new(4, 4));
        let mut expected = 0;
        for i in 0..rng.gen_range(1..20) {
            let bytes = rng.gen_range(0..2048);
            expected += noc.flits_for(bytes);
            noc.transfer(
                Plane::DmaRsp,
                Coord::new(0, 0),
                Coord::new(3, (i % 4) as u8),
                bytes,
                Cycle(i * 10),
            );
        }
        assert_eq!(
            noc.plane_stats(Plane::DmaRsp).flits,
            expected,
            "case {case}"
        );
        assert_eq!(noc.plane_stats(Plane::CohReq).flits, 0, "case {case}");
    }
}

fn churn(noc: &mut Noc, seed: u64, transfers: usize) {
    // Pre-load the NoC with deterministic pseudo-random traffic so burst
    // equivalence is tested against contended links, not just idle ones.
    let mut rng = seed | 1;
    for _ in 0..transfers {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let src = Coord::new((rng >> 8) as u8 % 6, (rng >> 16) as u8 % 6);
        let dst = Coord::new((rng >> 24) as u8 % 6, (rng >> 32) as u8 % 6);
        let bytes = (rng >> 40) % 2048;
        let at = Cycle((rng >> 48) % 4096);
        noc.transfer(Plane::CohFwd, src, dst, bytes, at);
    }
}

/// `transfer_burst` with flit-aligned beats is bit-identical to the
/// aggregated single `transfer` it replaced on the recall/writeback
/// paths: same arrival, same plane flit totals, and the same
/// contention left behind for later traffic — even on a pre-loaded
/// network.
#[test]
fn burst_matches_aggregated_transfer_when_flit_aligned() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (src, dst) = arb_coords(&mut rng, 6, 6);
        let (beat_flits, beats) = (rng.gen_range(1..40), rng.gen_range(1..48));
        let seed = rng.gen();
        let beat_bytes = beat_flits * 4; // flit-aligned, like lines/headers
        let at = Cycle(2000);

        let mut burst_noc = Noc::new(NocConfig::new(6, 6));
        churn(&mut burst_noc, seed, 12);
        let burst = burst_noc.transfer_burst(Plane::CohFwd, src, dst, beat_bytes, beats, at);

        let mut agg_noc = Noc::new(NocConfig::new(6, 6));
        churn(&mut agg_noc, seed, 12);
        let agg = agg_noc.transfer(Plane::CohFwd, src, dst, beat_bytes * beats, at);

        assert_eq!(burst, agg, "case {case}");
        assert_eq!(
            burst_noc.plane_stats(Plane::CohFwd).flits,
            agg_noc.plane_stats(Plane::CohFwd).flits,
            "case {case}"
        );
        // The reservations left behind are identical: a probe transfer
        // injected right after sees exactly the same queueing either way.
        let probe_at = Cycle(2001);
        let probe_a = burst_noc.transfer(Plane::CohFwd, src, dst, 256, probe_at);
        let probe_b = agg_noc.transfer(Plane::CohFwd, src, dst, 256, probe_at);
        assert_eq!(probe_a, probe_b, "case {case}");
    }
}

/// Per link, the one-pass series reservation is bit-identical to
/// acquiring the burst's beats one at a time (the head flit riding the
/// first beat) — `Resource::acquire_series` equivalence lifted to a
/// route: arrival and residual contention match a reference that
/// walks the route once per beat.
#[test]
fn burst_matches_per_beat_acquisition() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (src, dst) = arb_coords(&mut rng, 5, 5);
        let (beat_flits, beats) = (rng.gen_range(1..20), rng.gen_range(1..32));
        let beat_bytes = beat_flits * 4;
        let at = Cycle(500);

        // Reference: every link along the route as a bare Resource,
        // acquired once per beat at the burst head's arrival time — the
        // "per-transfer acquisition" the one-pass form replaces.
        let mesh = Mesh::new(5, 5);
        let mut links: std::collections::HashMap<usize, Resource> =
            std::collections::HashMap::new();
        let mut lcg = rng.gen::<u64>() | 1;
        // The same churn traffic, replayed against the bare resources.
        let churn_route = |links: &mut std::collections::HashMap<usize, Resource>,
                           s: Coord,
                           d: Coord,
                           bytes: u64,
                           t: Cycle| {
            let service = Cycle(1 + bytes.div_ceil(4));
            let mut head = t;
            if s == d {
                return;
            }
            for link in mesh.route(s, d) {
                let idx = mesh.link_index(link);
                let grant = links
                    .entry(idx)
                    .or_insert_with(|| Resource::new("ref-link"))
                    .acquire(head, service);
                head = grant.start + Cycle(1);
            }
        };
        let mut noc = Noc::new(NocConfig::new(5, 5));
        for _ in 0..12 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = Coord::new((lcg >> 8) as u8 % 5, (lcg >> 16) as u8 % 5);
            let d = Coord::new((lcg >> 24) as u8 % 5, (lcg >> 32) as u8 % 5);
            let bytes = (lcg >> 40) % 2048;
            let t = Cycle((lcg >> 48) % 4096);
            noc.transfer(Plane::CohRsp, s, d, bytes, t);
            churn_route(&mut links, s, d, bytes, t);
        }

        let arrival = noc.transfer_burst(Plane::CohRsp, src, dst, beat_bytes, beats, at);

        let expected = if src != dst {
            // Reference: per-beat acquisition, head flit with the first.
            let first = Cycle(1 + beat_flits);
            let rest = Cycle(beat_flits);
            let mut head = at;
            for link in mesh.route(src, dst) {
                let idx = mesh.link_index(link);
                let r = links
                    .entry(idx)
                    .or_insert_with(|| Resource::new("ref-link"));
                let g0 = r.acquire(head, first);
                for _ in 1..beats {
                    r.acquire(head, rest);
                }
                head = g0.start + Cycle(1);
            }
            head + Cycle(1 + beats * beat_flits)
        } else {
            at + Cycle(1) + Cycle(1 + beats * beat_flits)
        };
        assert_eq!(arrival, expected, "case {case}");
    }
}

/// The reference the NoC's flat next-free table must match: one
/// `Resource` per (plane, link), reserved hop by hop along `Mesh::route`
/// with `acquire` for a transfer and `acquire_series` for a burst.
struct ReferenceNoc {
    config: NocConfig,
    mesh: Mesh,
    links: Vec<Vec<Resource>>,
    stats: [PlaneStats; 6],
}

impl ReferenceNoc {
    fn new(config: NocConfig) -> ReferenceNoc {
        let mesh = Mesh::new(config.width, config.height);
        ReferenceNoc {
            config,
            mesh,
            links: vec![vec![Resource::new("ref-link"); mesh.links()]; 6],
            stats: [PlaneStats::default(); 6],
        }
    }

    fn transfer(&mut self, plane: Plane, src: Coord, dst: Coord, bytes: u64, at: Cycle) -> Cycle {
        let service = Cycle(1 + bytes.div_ceil(self.config.flit_bytes));
        self.walk(plane, src, dst, service, at, |link, head| {
            link.acquire(head, service)
        })
    }

    fn transfer_burst(
        &mut self,
        plane: Plane,
        src: Coord,
        dst: Coord,
        beat_bytes: u64,
        beats: u64,
        at: Cycle,
    ) -> Cycle {
        let beat_flits = beat_bytes.div_ceil(self.config.flit_bytes);
        let total = Cycle(1 + beats * beat_flits);
        self.walk(plane, src, dst, total, at, |link, head| {
            link.acquire_series(head, Cycle(1 + beat_flits), Cycle(beat_flits), beats)
        })
    }

    fn walk(
        &mut self,
        plane: Plane,
        src: Coord,
        dst: Coord,
        flits: Cycle,
        at: Cycle,
        mut reserve: impl FnMut(&mut Resource, Cycle) -> Grant,
    ) -> Cycle {
        let stats = &mut self.stats[plane.index()];
        stats.transfers += 1;
        stats.flits += flits.raw();
        let hop = Cycle(self.config.router_latency);
        if src == dst {
            return at + hop + flits;
        }
        let mut head = at;
        for link in self.mesh.route(src, dst) {
            let grant = reserve(
                &mut self.links[plane.index()][self.mesh.link_index(link)],
                head,
            );
            stats.queued_cycles += grant.start.saturating_sub(head).raw();
            head = grant.start + hop;
        }
        head + flits
    }
}

/// On random meshes, under random interleavings of transfers and
/// bursts on all six planes, the precomputed routes and bare next-free
/// times return every arrival and every plane statistic the per-link
/// `Resource` reference returns.
#[test]
fn next_free_table_matches_per_link_resources() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let (w, h) = (rng.gen_range(1..=8), rng.gen_range(1..=8));
        let config = NocConfig {
            router_latency: rng.gen_range(1..=3),
            flit_bytes: rng.gen_range(1..=16),
            ..NocConfig::new(w, h)
        };
        let mut noc = Noc::new(config);
        let mut reference = ReferenceNoc::new(config);
        let tiles = u16::from(w) * u16::from(h);
        let tile = |i: u16| Coord::new((i % u16::from(w)) as u8, (i / u16::from(w)) as u8);
        for step in 0..rng.gen_range(1..120usize) {
            let burst: bool = rng.gen();
            let plane = Plane::ALL[rng.gen_range(0..6)];
            let (src, dst) = (tile(rng.gen_range(0..tiles)), tile(rng.gen_range(0..tiles)));
            let (bytes, beats, at) = (
                rng.gen_range(0..2048),
                rng.gen_range(1..48),
                Cycle(rng.gen_range(0..4096)),
            );
            let (got, want) = if burst {
                let beat_bytes = bytes % 128;
                (
                    noc.transfer_burst(plane, src, dst, beat_bytes, beats, at),
                    reference.transfer_burst(plane, src, dst, beat_bytes, beats, at),
                )
            } else {
                (
                    noc.transfer(plane, src, dst, bytes, at),
                    reference.transfer(plane, src, dst, bytes, at),
                )
            };
            assert_eq!(got, want, "case {case}, step {step}: arrival");
            for p in Plane::ALL {
                assert_eq!(
                    noc.plane_stats(p),
                    reference.stats[p.index()],
                    "case {case}, step {step}: {p:?} stats diverged"
                );
            }
        }
    }
}
