//! The multi-plane NoC with per-link bandwidth reservation.

use cohmeleon_sim::Cycle;
use serde::{Deserialize, Serialize};

use crate::mesh::{Coord, Mesh};

/// The six physical planes of the ESP NoC. Splitting traffic classes onto
/// separate planes avoids protocol deadlock and keeps coherence traffic from
/// contending with bulk DMA — which is why, in the paper's experiments,
/// coherence-mode choice changes *which* plane (and thus which bottleneck)
/// an accelerator's traffic lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Plane {
    /// Coherence requests (GetS/GetM/PutM from private caches to the LLC).
    CohReq,
    /// Coherence forwards (recalls/invalidations from the LLC to owners).
    CohFwd,
    /// Coherence responses (data and acks).
    CohRsp,
    /// DMA requests (non-coherent, LLC-coherent and coherent DMA).
    DmaReq,
    /// DMA responses (data returned to accelerators).
    DmaRsp,
    /// Memory-mapped I/O: configuration registers, interrupts, monitors.
    Io,
}

impl Plane {
    /// All six planes.
    pub const ALL: [Plane; 6] = [
        Plane::CohReq,
        Plane::CohFwd,
        Plane::CohRsp,
        Plane::DmaReq,
        Plane::DmaRsp,
        Plane::Io,
    ];

    /// Stable index in `0..6`.
    pub fn index(self) -> usize {
        match self {
            Plane::CohReq => 0,
            Plane::CohFwd => 1,
            Plane::CohRsp => 2,
            Plane::DmaReq => 3,
            Plane::DmaRsp => 4,
            Plane::Io => 5,
        }
    }
}

/// NoC configuration. Defaults mirror the paper's prototypes: 32-bit flits
/// and one-cycle latency between neighbouring routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Mesh width (columns).
    pub width: u8,
    /// Mesh height (rows).
    pub height: u8,
    /// Per-hop router traversal latency in cycles (paper: 1).
    pub router_latency: u64,
    /// Flit width in bytes (paper: 32-bit planes ⇒ 4 bytes).
    pub flit_bytes: u64,
}

impl NocConfig {
    /// A `width × height` mesh with the paper's defaults (1-cycle hops,
    /// 4-byte flits).
    pub fn new(width: u8, height: u8) -> NocConfig {
        NocConfig {
            width,
            height,
            router_latency: 1,
            flit_bytes: 4,
        }
    }
}

/// Per-plane aggregate traffic statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Transfers injected.
    pub transfers: u64,
    /// Total flits carried (sum over transfers, not over links).
    pub flits: u64,
    /// Total queueing cycles across all link reservations.
    pub queued_cycles: u64,
}

/// The network-on-chip: a mesh of routers with six planes of directed
/// links. Each link is a serially shared channel that holds a transfer for
/// its full flit count; all it remembers is the cycle it next becomes free.
#[derive(Debug, Clone)]
pub struct Noc {
    config: NocConfig,
    mesh: Mesh,
    /// Next-free time of every directed link, at
    /// `plane.index() * mesh.links() + link_index`.
    next_free: Vec<Cycle>,
    /// The XY route of the ordered tile pair `src * tiles + dst` is
    /// `route_links[route_starts[pair]..route_starts[pair + 1]]`, as link
    /// indices within a plane.
    route_starts: Vec<u32>,
    route_links: Vec<u32>,
    stats: [PlaneStats; 6],
}

impl Noc {
    /// Builds an idle NoC, with the XY route of every ordered tile pair
    /// precomputed as link indices. The table holds one span per pair and
    /// one entry per hop: 2,000 hops over 625 pairs on a 5×5 mesh.
    pub fn new(config: NocConfig) -> Noc {
        let mesh = Mesh::new(config.width, config.height);
        let tiles: Vec<Coord> = (0..config.height)
            .flat_map(|y| (0..config.width).map(move |x| Coord::new(x, y)))
            .collect();
        let mut route_starts = Vec::with_capacity(tiles.len() * tiles.len() + 1);
        let mut route_links = Vec::new();
        route_starts.push(0);
        for &src in &tiles {
            for &dst in &tiles {
                route_links.extend(mesh.route_iter(src, dst).map(|link| {
                    u32::try_from(mesh.link_index(link)).expect("link index fits in u32")
                }));
                route_starts
                    .push(u32::try_from(route_links.len()).expect("route table fits in u32"));
            }
        }
        Noc {
            config,
            mesh,
            next_free: vec![Cycle::ZERO; Plane::ALL.len() * mesh.links()],
            route_starts,
            route_links,
            stats: [PlaneStats::default(); 6],
        }
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The configuration this NoC was built with.
    pub fn config(&self) -> NocConfig {
        self.config
    }

    /// Number of flits needed for a payload of `bytes` (head flit included).
    pub fn flits_for(&self, bytes: u64) -> u64 {
        1 + bytes.div_ceil(self.config.flit_bytes)
    }

    /// Injects a transfer of `bytes` from `src` to `dst` on `plane` at time
    /// `at`, reserving every link along the XY route. Returns the arrival
    /// time of the tail flit at `dst`.
    ///
    /// The transfer is pipelined wormhole-style: each hop adds the router
    /// latency, and each link is occupied for the full flit count. A
    /// same-tile transfer (`src == dst`) models the tile-local crossbar and
    /// costs one router traversal.
    pub fn transfer(
        &mut self,
        plane: Plane,
        src: Coord,
        dst: Coord,
        bytes: u64,
        at: Cycle,
    ) -> Cycle {
        let flits = self.flits_for(bytes);
        self.reserve_route(plane, src, dst, Cycle(flits), at)
    }

    /// Injects an `beats`-beat burst (one wormhole packet: a head flit
    /// followed by `beats` payload beats of `beat_bytes` each) from `src`
    /// to `dst` on `plane` at time `at`, reserving every link along the XY
    /// route **in one pass**: each link is held once for the whole packet
    /// (head flit plus every beat), so an n-beat recall or writeback stream
    /// costs O(hops) reservation work instead of O(n × hops).
    /// Returns the arrival time of the last beat's tail flit at `dst`.
    ///
    /// Equivalences, pinned by the property tests in `tests/props.rs`:
    ///
    /// * per link, the one-pass reservation is bit-identical to reserving
    ///   the `beats` beats one at a time at the burst head's arrival, the
    ///   head flit riding the first beat, and
    /// * when `beat_bytes` is flit-aligned, the returned arrival time and
    ///   all link reservations are bit-identical to one aggregated
    ///   [`transfer`](Self::transfer) of `beats × beat_bytes` — which is
    ///   how the machine's recall/writeback paths previously modelled
    ///   these streams, so adopting the burst form changed no results.
    ///
    /// # Panics
    ///
    /// Panics if `beats` is zero.
    pub fn transfer_burst(
        &mut self,
        plane: Plane,
        src: Coord,
        dst: Coord,
        beat_bytes: u64,
        beats: u64,
        at: Cycle,
    ) -> Cycle {
        assert!(beats > 0, "a burst needs at least one beat");
        let beat_flits = beat_bytes.div_ceil(self.config.flit_bytes);
        self.reserve_route(plane, src, dst, Cycle(1 + beats * beat_flits), at)
    }

    /// Counts one `flits`-flit packet on `plane` and reserves every link of
    /// its XY route from `src` to `dst` for `flits` cycles, each hop
    /// starting when the head flit reaches the link and the link is free.
    /// Returns the tail flit's arrival at `dst`.
    fn reserve_route(
        &mut self,
        plane: Plane,
        src: Coord,
        dst: Coord,
        flits: Cycle,
        at: Cycle,
    ) -> Cycle {
        let stats = &mut self.stats[plane.index()];
        stats.transfers += 1;
        stats.flits += flits.raw();
        let hop = Cycle(self.config.router_latency);
        assert!(self.mesh.contains(src), "source {src} outside mesh");
        if src == dst {
            return at + hop + flits;
        }
        assert!(self.mesh.contains(dst), "destination {dst} outside mesh");
        let pair = self.mesh.tile_index(src) * self.mesh.tiles() + self.mesh.tile_index(dst);
        let route = &self.route_links
            [self.route_starts[pair] as usize..self.route_starts[pair + 1] as usize];
        let plane_links = self.mesh.links();
        let links = &mut self.next_free[plane.index() * plane_links..][..plane_links];
        let mut head = at;
        let mut queued = 0;
        for &link in route {
            let free = &mut links[link as usize];
            let start = head.max(*free);
            *free = start + flits;
            queued += (start - head).raw();
            // The head flit reaches the next router one router-latency after
            // the link begins serving it.
            head = start + hop;
        }
        stats.queued_cycles += queued;
        // Tail flit trails the head by the serialization length.
        head + flits
    }

    /// The minimum (contention-free) latency for `bytes` from `src` to `dst`.
    pub fn ideal_latency(&self, src: Coord, dst: Coord, bytes: u64) -> Cycle {
        let hops = src.manhattan(dst).max(1) as u64;
        Cycle(hops * self.config.router_latency + self.flits_for(bytes))
    }

    /// Aggregate statistics for `plane`.
    pub fn plane_stats(&self, plane: Plane) -> PlaneStats {
        self.stats[plane.index()]
    }

    /// Total flits injected across all planes.
    pub fn total_flits(&self) -> u64 {
        self.stats.iter().map(|s| s.flits).sum()
    }

    /// Clears reservations and statistics (between experiment repetitions).
    pub fn reset(&mut self) {
        self.next_free.fill(Cycle::ZERO);
        self.stats = [PlaneStats::default(); 6];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(NocConfig::new(4, 4))
    }

    #[test]
    fn flit_count_includes_header() {
        let n = noc();
        assert_eq!(n.flits_for(0), 1);
        assert_eq!(n.flits_for(4), 2);
        assert_eq!(n.flits_for(5), 3);
        assert_eq!(n.flits_for(64), 17);
    }

    #[test]
    fn uncontended_transfer_matches_ideal_latency() {
        let mut n = noc();
        let src = Coord::new(0, 0);
        let dst = Coord::new(3, 0);
        let arrival = n.transfer(Plane::DmaReq, src, dst, 64, Cycle(0));
        assert_eq!(arrival, n.ideal_latency(src, dst, 64));
    }

    #[test]
    fn longer_routes_take_longer() {
        let mut n = noc();
        let near = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(1, 0),
            64,
            Cycle(0),
        );
        let mut n2 = noc();
        let far = n2.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 3),
            64,
            Cycle(0),
        );
        assert!(far > near);
    }

    #[test]
    fn contending_transfers_queue_on_shared_links() {
        let mut n = noc();
        let a = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            1024,
            Cycle(0),
        );
        // Same route, same time: must serialize behind the first transfer.
        let b = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            1024,
            Cycle(0),
        );
        assert!(b > a);
        assert!(n.plane_stats(Plane::DmaReq).queued_cycles > 0);
    }

    #[test]
    fn different_planes_do_not_contend() {
        let mut n = noc();
        let a = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            1024,
            Cycle(0),
        );
        let b = n.transfer(
            Plane::CohReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            1024,
            Cycle(0),
        );
        assert_eq!(a, b);
        assert_eq!(n.plane_stats(Plane::CohReq).queued_cycles, 0);
    }

    #[test]
    fn disjoint_routes_do_not_contend() {
        let mut n = noc();
        let a = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            1024,
            Cycle(0),
        );
        let b = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 3),
            Coord::new(3, 3),
            1024,
            Cycle(0),
        );
        assert_eq!(a - Cycle(0), b - Cycle(0));
    }

    #[test]
    fn same_tile_transfer_is_cheap_but_nonzero() {
        let mut n = noc();
        let arrival = n.transfer(Plane::Io, Coord::new(1, 1), Coord::new(1, 1), 4, Cycle(10));
        assert!(arrival > Cycle(10));
        assert!(arrival <= Cycle(10 + 4));
    }

    #[test]
    fn stats_accumulate_per_plane() {
        let mut n = noc();
        n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(1, 0),
            64,
            Cycle(0),
        );
        n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(1, 0),
            64,
            Cycle(1000),
        );
        let s = n.plane_stats(Plane::DmaReq);
        assert_eq!(s.transfers, 2);
        assert_eq!(s.flits, 2 * 17);
        assert_eq!(n.plane_stats(Plane::CohReq).transfers, 0);
        assert_eq!(n.total_flits(), 34);
    }

    #[test]
    fn reset_restores_idle_network() {
        let mut n = noc();
        n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            4096,
            Cycle(0),
        );
        n.reset();
        assert_eq!(n.total_flits(), 0);
        let arrival = n.transfer(
            Plane::DmaReq,
            Coord::new(0, 0),
            Coord::new(3, 0),
            64,
            Cycle(0),
        );
        assert_eq!(
            arrival,
            n.ideal_latency(Coord::new(0, 0), Coord::new(3, 0), 64)
        );
    }

    #[test]
    fn plane_indices_are_distinct() {
        let mut seen = [false; 6];
        for p in Plane::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn back_to_back_transfers_pipeline_at_bottleneck() {
        // Two transfers injected 1 flit-time apart on the same route should
        // complete roughly one serialization window apart, not fully
        // serialized end-to-end.
        let mut n = noc();
        let src = Coord::new(0, 0);
        let dst = Coord::new(2, 0);
        let a = n.transfer(Plane::DmaReq, src, dst, 256, Cycle(0));
        let b = n.transfer(Plane::DmaReq, src, dst, 256, Cycle(0));
        let window = Cycle(n.flits_for(256));
        assert_eq!(b - a, window);
    }
}
