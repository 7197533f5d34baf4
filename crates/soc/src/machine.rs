//! The simulated SoC "hardware": NoC + cache hierarchy + DRAM controllers,
//! wired according to a [`SocConfig`], with the per-burst memory paths of
//! the four coherence modes.
//!
//! The machine is time-free state plus *timed operations*: each operation
//! takes the current simulated time, reserves the shared resources it
//! crosses (NoC links, LLC ports, DRAM channels) and returns its completion
//! time together with the traffic it generated. The [`crate::engine`] calls
//! these operations in global time order from its event loop, which is what
//! makes the contention between concurrent accelerators physical rather
//! than statistical.

use cohmeleon_accel::BurstOp;
use cohmeleon_cache::{
    AccessEffects, AddressMap, CacheGeometry, CacheId, CoherenceController, FlushEffects,
};
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, ModeSet, PartitionId};
use cohmeleon_mem::{DramConfig, DramController};
use cohmeleon_noc::{Coord, Noc, Plane};
use cohmeleon_sim::{Cycle, Resource};

use crate::alloc::{Allocator, Dataset};
use crate::config::SocConfig;
use crate::params::TimingParams;

/// Static description of one accelerator tile after elaboration.
#[derive(Debug, Clone, Copy)]
pub struct AccelInfo {
    /// The instance id (index into the SoC's accelerator list).
    pub instance: AccelInstanceId,
    /// The accelerator kind.
    pub kind: AccelKindId,
    /// Tile position in the mesh.
    pub coord: Coord,
    /// The tile's private cache, if it has one.
    pub cache: Option<CacheId>,
    /// Modes the tile supports.
    pub available_modes: ModeSet,
}

/// Timing outcome of one burst through the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOutcome {
    /// When the issuing engine may inject its next burst (request fully
    /// serialized toward the memory system). DMA engines pipeline bursts
    /// behind this point; MESI misses serialize on the MSHRs instead.
    pub accept: Cycle,
    /// When the burst's data movement completed (read data delivered, or
    /// write accepted).
    pub complete: Cycle,
    /// Ground-truth DRAM line accesses this burst caused.
    pub true_dram: u64,
}

/// The elaborated SoC.
#[derive(Debug)]
pub struct Soc {
    config: SocConfig,
    params: TimingParams,
    noc: Noc,
    caches: CoherenceController,
    drams: Vec<DramController>,
    /// One request port per LLC partition: the serialization point of the
    /// directory pipeline.
    llc_ports: Vec<Resource>,
    /// One resource per CPU: threads sharing a core serialize their
    /// software work on it.
    cpus: Vec<Resource>,
    allocator: Allocator,
    mem_coords: Vec<Coord>,
    cpu_coords: Vec<Coord>,
    accel_infos: Vec<AccelInfo>,
    /// Cache ids of the processor L2s (`0..cpus`).
    cpu_caches: Vec<CacheId>,
}

impl Soc {
    /// Elaborates a configuration into a machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SocConfig::validate`].
    pub fn new(config: SocConfig) -> Soc {
        Soc::with_params(config, TimingParams::default())
    }

    /// Elaborates with explicit timing parameters.
    pub fn with_params(config: SocConfig, params: TimingParams) -> Soc {
        config.validate().expect("valid SoC configuration");
        let (mem_coords, cpu_coords, accel_coords) = config.placement();
        let map = AddressMap::new(config.mem_tiles as u16);

        // L2 caches: processors first, then accelerator tiles that have one.
        let l2_geom = CacheGeometry::new(config.l2_bytes, config.l2_ways, config.line_bytes);
        let llc_geom =
            CacheGeometry::new(config.llc_slice_bytes, config.llc_ways, config.line_bytes);
        let mut l2_geoms = vec![l2_geom; config.cpus];
        let cpu_caches: Vec<CacheId> = (0..config.cpus).map(|i| CacheId(i as u16)).collect();
        let mut accel_infos = Vec::with_capacity(config.accels.len());
        for (i, (tile, coord)) in config.accels.iter().zip(&accel_coords).enumerate() {
            let cache = if tile.has_private_cache {
                l2_geoms.push(l2_geom);
                Some(CacheId((l2_geoms.len() - 1) as u16))
            } else {
                None
            };
            accel_infos.push(AccelInfo {
                instance: AccelInstanceId(i as u16),
                kind: tile.spec.kind,
                coord: *coord,
                cache,
                available_modes: tile.available_modes(),
            });
        }

        let caches = CoherenceController::new(map, &l2_geoms, llc_geom);
        let drams = (0..config.mem_tiles)
            .map(|_| DramController::new(DramConfig::default()))
            .collect();
        let llc_ports = (0..config.mem_tiles)
            .map(|_| Resource::new("llc-port"))
            .collect();
        let cpus = (0..config.cpus).map(|_| Resource::new("cpu")).collect();
        let noc = Noc::new(config.noc_config());
        let allocator = Allocator::new(map, config.line_bytes);

        Soc {
            config,
            params,
            noc,
            caches,
            drams,
            llc_ports,
            cpus,
            allocator,
            mem_coords,
            cpu_coords,
            accel_infos,
            cpu_caches,
        }
    }

    /// The configuration this machine was elaborated from.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The timing parameters.
    pub fn params(&self) -> &TimingParams {
        &self.params
    }

    /// Accelerator tile descriptions, indexed by instance id.
    pub fn accel_infos(&self) -> &[AccelInfo] {
        &self.accel_infos
    }

    /// Information for one accelerator instance.
    pub fn accel(&self, instance: AccelInstanceId) -> &AccelInfo {
        &self.accel_infos[instance.0 as usize]
    }

    /// Allocates a dataset (delegates to the round-robin [`Allocator`]).
    pub fn alloc(&mut self, bytes: u64) -> Dataset {
        self.allocator.alloc(bytes)
    }

    /// The cache-line size.
    pub fn line_bytes(&self) -> u64 {
        self.config.line_bytes
    }

    /// Read access to the cache hierarchy (tests, diagnostics).
    pub fn caches(&self) -> &CoherenceController {
        &self.caches
    }

    /// Samples the off-chip access counter of every memory controller
    /// (the monitor registers software reads before/after an invocation).
    pub fn dram_totals(&self) -> Vec<u64> {
        self.drams.iter().map(|d| d.total_accesses()).collect()
    }

    /// [`dram_totals`](Self::dram_totals) into a caller-owned buffer
    /// (cleared first), so per-invocation monitor sampling allocates
    /// nothing.
    pub fn dram_totals_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.drams.iter().map(|d| d.total_accesses()));
    }

    /// CPU processor-cache ids.
    pub fn cpu_caches(&self) -> &[CacheId] {
        &self.cpu_caches
    }

    // ------------------------------------------------------------------
    // CPU-side data movement
    // ------------------------------------------------------------------

    /// The CPU `cpu` writes `count` lines of `dataset` starting at line
    /// offset `from` (data initialisation). Returns the completion time.
    pub fn cpu_write_lines(
        &mut self,
        cpu: usize,
        dataset: &Dataset,
        from: u64,
        count: u64,
        at: Cycle,
    ) -> Cycle {
        self.cpu_access_lines(cpu, dataset, from, count, at, true)
    }

    /// The CPU `cpu` reads `count` lines of `dataset` (result checking).
    pub fn cpu_read_lines(
        &mut self,
        cpu: usize,
        dataset: &Dataset,
        from: u64,
        count: u64,
        at: Cycle,
    ) -> Cycle {
        self.cpu_access_lines(cpu, dataset, from, count, at, false)
    }

    fn cpu_access_lines(
        &mut self,
        cpu: usize,
        dataset: &Dataset,
        from: u64,
        count: u64,
        at: Cycle,
        write: bool,
    ) -> Cycle {
        let cache = self.cpu_caches[cpu];
        let first = dataset.line_range(from, count);
        // Initialisation uses full-line streaming stores: no fetch of
        // stale data on a write miss.
        let fx = if write {
            self.caches.l2_store_streaming_range(cache, first, count)
        } else {
            self.caches.l2_access_range(cache, first, count, false).0
        };
        let per_line = if write {
            self.params.cpu_init_line_cycles
        } else {
            self.params.cpu_check_line_cycles
        };
        // The core itself is busy for the instruction stream.
        let grant = self.cpus[cpu].acquire(at, Cycle(count * per_line));
        let t = grant.end;
        // Misses travel CPU tile → home memory tile and back.
        if fx.reached_llc {
            let src = self.cpu_coords[cpu];
            self.charge_coherent_path(src, dataset.partition, &fx, t)
        } else {
            t
        }
    }

    /// Charges `cycles` of software work on CPU `cpu` starting at `at`
    /// (driver execution, policy decision, TLB loading). Threads sharing a
    /// core serialize here.
    pub fn cpu_work(&mut self, cpu: usize, cycles: u64, at: Cycle) -> Cycle {
        self.cpus[cpu].acquire(at, Cycle(cycles)).end
    }

    // ------------------------------------------------------------------
    // Invocation setup: flushes and software overheads
    // ------------------------------------------------------------------

    /// Performs the software cache flush required by `mode`, if any,
    /// starting at `at` on CPU `cpu`. Private caches of *running*
    /// fully-coherent accelerators are skipped (`busy_caches`).
    ///
    /// Returns the completion time and the ground-truth DRAM writebacks.
    pub fn flush_for_mode(
        &mut self,
        cpu: usize,
        mode: CoherenceMode,
        busy_caches: &[CacheId],
        at: Cycle,
    ) -> (Cycle, u64) {
        if !mode.requires_private_flush() {
            return (at, 0);
        }
        let mut t = at;
        let mut cpu_work = self.params.flush_base_cycles;
        let mut l2fx = FlushEffects::new();
        let mut walked_lines = 0u64;
        for c in 0..self.caches.num_l2s() {
            let id = CacheId(c as u16);
            if busy_caches.contains(&id) {
                continue;
            }
            walked_lines += self.caches.l2(id).geometry().lines();
            let sub = self.caches.flush_l2(id);
            l2fx.accumulate(&sub);
        }
        // The flush FSM walks every set and way of each flushed cache.
        cpu_work += walked_lines * self.params.flush_walk_cycles_per_line;
        cpu_work += l2fx.writebacks * self.params.flush_l2_line_cycles;

        let mut dram_writes = 0;
        if mode.requires_llc_flush() {
            // Flush partition by partition: each slice's walk is CPU work,
            // and its dirty lines go to its *own* DRAM controller.
            let mut slowest = t;
            for p in 0..self.caches.num_partitions() {
                let partition = PartitionId(p as u16);
                cpu_work += self.caches.llc(partition).geometry().lines()
                    * self.params.flush_walk_cycles_per_line;
                let fx = self.caches.flush_llc(partition);
                cpu_work += fx.lines() * self.params.flush_llc_line_cycles;
                dram_writes += fx.writebacks;
                if fx.writebacks > 0 {
                    let done = self.drams[p].scattered_access(t, fx.writebacks, true);
                    slowest = slowest.max(done);
                }
            }
            t = slowest;
        }
        let grant = self.cpus[cpu].acquire(t, Cycle(cpu_work));
        (grant.end, dram_writes)
    }

    // ------------------------------------------------------------------
    // Accelerator bursts
    // ------------------------------------------------------------------

    /// Executes one DMA burst of accelerator `instance` over `dataset`
    /// under `mode`, starting at `at`.
    pub fn accel_burst(
        &mut self,
        instance: AccelInstanceId,
        dataset: &Dataset,
        op: &BurstOp,
        mode: CoherenceMode,
        at: Cycle,
    ) -> BurstOutcome {
        match mode {
            CoherenceMode::NonCohDma => self.burst_non_coherent(instance, dataset, op, at),
            CoherenceMode::LlcCohDma | CoherenceMode::CohDma => {
                self.burst_llc(instance, dataset, op, mode == CoherenceMode::CohDma, at)
            }
            CoherenceMode::FullCoh => self.burst_fully_coherent(instance, dataset, op, at),
        }
    }

    /// Non-coherent DMA: requests bypass the cache hierarchy and access the
    /// DRAM controller directly.
    fn burst_non_coherent(
        &mut self,
        instance: AccelInstanceId,
        dataset: &Dataset,
        op: &BurstOp,
        at: Cycle,
    ) -> BurstOutcome {
        let src = self.accel(instance).coord;
        let dst = self.mem_coords[dataset.partition.0 as usize];
        let bytes = op.lines * self.config.line_bytes;
        let req_bytes = self.params.header_bytes + if op.write { bytes } else { 0 };
        let t1 = self.noc.transfer(Plane::DmaReq, src, dst, req_bytes, at);
        let dram = &mut self.drams[dataset.partition.0 as usize];
        let t2 = dram.burst_access(t1, dataset.line(op.line_offset).0, op.lines, op.write);
        let resp_bytes = if op.write {
            self.params.header_bytes
        } else {
            bytes
        };
        let t3 = self.noc.transfer(Plane::DmaRsp, dst, src, resp_bytes, t2);
        BurstOutcome {
            accept: t1,
            complete: t3,
            true_dram: op.lines,
        }
    }

    /// LLC-coherent or coherent DMA: requests are served by the home LLC
    /// partition; coherent DMA additionally walks the directory and recalls
    /// private copies.
    fn burst_llc(
        &mut self,
        instance: AccelInstanceId,
        dataset: &Dataset,
        op: &BurstOp,
        coherent: bool,
        at: Cycle,
    ) -> BurstOutcome {
        let src = self.accel(instance).coord;
        let p = dataset.partition.0 as usize;
        let dst = self.mem_coords[p];
        let bytes = op.lines * self.config.line_bytes;
        let req_bytes = self.params.header_bytes + if op.write { bytes } else { 0 };
        let t1 = self.noc.transfer(Plane::DmaReq, src, dst, req_bytes, at);

        // Protocol state changes + effect counting (time-free), one batched
        // walk over the burst's consecutive lines.
        let first = dataset.line_range(op.line_offset, op.lines);
        let fx = if coherent {
            self.caches.coh_dma_access_range(first, op.lines, op.write)
        } else {
            self.caches
                .llc_coh_dma_access_range(first, op.lines, op.write)
        };

        // Directory/port reservation. Coherent DMA *occupies* the
        // directory pipeline longer (recall bookkeeping) without adding
        // uncontended latency: solo it matches LLC-coherent DMA, but under
        // sharing its occupancy is what queues everyone up (Figure 3).
        let latency = op.lines * self.params.llc_service_cycles
            + fx.recalls * self.params.recall_service_cycles
            + fx.invalidations * self.params.inval_service_cycles;
        let occupancy = op.lines * self.params.llc_line_cycles(coherent)
            + fx.recalls * self.params.recall_service_cycles
            + fx.invalidations * self.params.inval_service_cycles;
        let grant = self.llc_ports[p].acquire(t1, Cycle(occupancy));
        let t2 = grant.start + Cycle(latency);

        // Recall traffic crosses the coherence planes (owner ↔ LLC): one
        // burst of per-line recall requests and one of line-sized replies,
        // each reserving its route in a single pass.
        if fx.recalls > 0 {
            let owner_tile = self.cpu_coords[0];
            self.noc.transfer_burst(
                Plane::CohFwd,
                dst,
                owner_tile,
                self.params.header_bytes,
                fx.recalls,
                t1,
            );
            self.noc.transfer_burst(
                Plane::CohRsp,
                owner_tile,
                dst,
                self.config.line_bytes,
                fx.recalls,
                t1,
            );
        }

        // DRAM for misses and dirty-victim writebacks.
        let mut t_data = t2;
        if fx.dram_fetches > 0 {
            let done = self.drams[p].burst_access(
                t2,
                dataset.line(op.line_offset).0,
                fx.dram_fetches,
                false,
            );
            t_data = t_data.max(done);
        }
        if fx.dram_writebacks > 0 {
            // Posted writebacks: they occupy the channel (and disturb its
            // row locality) but the burst does not wait for them.
            self.drams[p].scattered_access(t2, fx.dram_writebacks, true);
        }

        let resp_bytes = if op.write {
            self.params.header_bytes
        } else {
            bytes
        };
        let t3 = self
            .noc
            .transfer(Plane::DmaRsp, dst, src, resp_bytes, t_data);
        // Coherent DMA is blocking at the bridge: a burst's coherence
        // actions (directory check, recalls) must resolve before the next
        // burst may issue, so directory queueing delays are paid serially —
        // the mechanism behind coherent DMA's worst-case contention
        // behaviour in Figure 3. LLC-coherent DMA streams bursts back to
        // back without waiting for coherence resolution.
        let accept = if coherent { t2 } else { t1 };
        BurstOutcome {
            accept,
            complete: t3,
            true_dram: fx.dram_accesses(),
        }
    }

    /// Fully-coherent: the accelerator's private cache issues MESI requests
    /// line by line; hits stay tile-local, misses cross the coherence
    /// planes to the home LLC partition.
    fn burst_fully_coherent(
        &mut self,
        instance: AccelInstanceId,
        dataset: &Dataset,
        op: &BurstOp,
        at: Cycle,
    ) -> BurstOutcome {
        let info = *self.accel(instance);
        let cache = info
            .cache
            .expect("fully-coherent mode requires a private cache");
        let p = dataset.partition.0 as usize;
        let dst = self.mem_coords[p];

        let first = dataset.line_range(op.line_offset, op.lines);
        let (fx, hits) = self
            .caches
            .l2_access_range(cache, first, op.lines, op.write);
        let misses = op.lines - hits;

        // Hits are a serial prefix of local pipelined accesses.
        let t0 = at + Cycle(hits * self.params.l2_hit_cycles);
        if misses == 0 {
            return BurstOutcome {
                accept: t0,
                complete: t0,
                true_dram: fx.dram_accesses(),
            };
        }

        let t1 = self.noc.transfer(
            Plane::CohReq,
            info.coord,
            dst,
            misses * self.params.header_bytes,
            t0,
        );
        let service = misses * self.params.llc_service_cycles
            + fx.recalls * self.params.recall_service_cycles
            + fx.invalidations * self.params.inval_service_cycles;
        let t2 = self.llc_ports[p].acquire(t1, Cycle(service)).end;

        if fx.recalls > 0 {
            let owner_tile = self.cpu_coords[0];
            self.noc.transfer_burst(
                Plane::CohFwd,
                dst,
                owner_tile,
                self.params.header_bytes,
                fx.recalls,
                t1,
            );
            self.noc.transfer_burst(
                Plane::CohRsp,
                owner_tile,
                dst,
                self.config.line_bytes,
                fx.recalls,
                t1,
            );
        }

        let mut t_data = t2;
        if fx.dram_fetches > 0 {
            let done = self.drams[p].burst_access(
                t2,
                dataset.line(op.line_offset).0,
                fx.dram_fetches,
                false,
            );
            t_data = t_data.max(done);
        }
        if fx.dram_writebacks > 0 {
            self.drams[p].scattered_access(t2, fx.dram_writebacks, true);
        }

        // Dirty L2 victims stream back to the LLC on the request plane,
        // one burst reserving the route in a single pass.
        if fx.llc_writebacks > 0 {
            self.noc.transfer_burst(
                Plane::CohReq,
                info.coord,
                dst,
                self.config.line_bytes,
                fx.llc_writebacks,
                t0,
            );
        }

        // Data response for the missing lines.
        let t3 = self.noc.transfer(
            Plane::CohRsp,
            dst,
            info.coord,
            misses * self.config.line_bytes,
            t_data,
        );
        // Line-granular misses cannot pipeline as deeply as DMA bursts:
        // the accelerator-side request issue serializes on its MSHRs.
        let issue_bound = t0 + Cycle(misses * self.params.l2_miss_issue_cycles);
        BurstOutcome {
            accept: issue_bound,
            complete: t3.max(issue_bound),
            true_dram: fx.dram_accesses(),
        }
    }

    /// Shared tail of the CPU access path: charges the coherence-plane
    /// round trip and DRAM fetches for a batch of CPU misses.
    fn charge_coherent_path(
        &mut self,
        src: Coord,
        partition: PartitionId,
        fx: &AccessEffects,
        at: Cycle,
    ) -> Cycle {
        let p = partition.0 as usize;
        let dst = self.mem_coords[p];
        let t1 = self
            .noc
            .transfer(Plane::CohReq, src, dst, self.params.header_bytes, at);
        let service = (fx.dram_fetches + 1) * self.params.llc_service_cycles
            + fx.recalls * self.params.recall_service_cycles
            + fx.invalidations * self.params.inval_service_cycles;
        let t2 = self.llc_ports[p].acquire(t1, Cycle(service)).end;
        let mut t_data = t2;
        if fx.dram_fetches > 0 {
            let done = self.drams[p].burst_access(t2, 0, fx.dram_fetches, false);
            t_data = t_data.max(done);
        }
        if fx.dram_writebacks > 0 {
            self.drams[p].burst_access(t2, 0, fx.dram_writebacks, true);
        }
        self.noc.transfer(
            Plane::CohRsp,
            dst,
            src,
            (fx.dram_fetches + 1) * self.config.line_bytes,
            t_data,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::motivation_isolation_soc;

    fn soc() -> Soc {
        Soc::new(motivation_isolation_soc())
    }

    fn read_op(offset: u64, lines: u64) -> BurstOp {
        BurstOp {
            line_offset: offset,
            lines,
            write: false,
            compute_cycles: 0,
        }
    }

    fn write_op(offset: u64, lines: u64) -> BurstOp {
        BurstOp {
            line_offset: offset,
            lines,
            write: true,
            compute_cycles: 0,
        }
    }

    #[test]
    fn elaboration_assigns_caches_and_coords() {
        let s = soc();
        // 4 CPUs + 12 accelerators with private caches = 16 L2s.
        assert_eq!(s.caches().num_l2s(), 16);
        assert_eq!(s.caches().num_partitions(), 2);
        assert_eq!(s.accel_infos().len(), 12);
        for info in s.accel_infos() {
            assert!(info.cache.is_some());
            assert_eq!(info.available_modes, ModeSet::all());
        }
    }

    #[test]
    fn non_coherent_burst_goes_to_dram() {
        let mut s = soc();
        let d = s.alloc(64 * 1024);
        let out = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::NonCohDma,
            Cycle(0),
        );
        assert_eq!(out.true_dram, 16);
        assert!(out.complete > Cycle(16 * 16), "pays DRAM transfer time");
    }

    #[test]
    fn llc_dma_hit_avoids_dram() {
        let mut s = soc();
        let d = s.alloc(4 * 1024);
        // Warm the LLC via a first DMA pass.
        s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::LlcCohDma,
            Cycle(0),
        );
        let warm = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::LlcCohDma,
            Cycle(1_000_000),
        );
        assert_eq!(warm.true_dram, 0, "warm LLC serves the burst");
        let cold = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(16, 16),
            CoherenceMode::LlcCohDma,
            Cycle(2_000_000),
        );
        assert_eq!(cold.true_dram, 16);
        assert!(warm.complete - Cycle(1_000_000) < cold.complete - Cycle(2_000_000));
    }

    #[test]
    fn coherent_dma_recalls_cpu_data_without_dram() {
        let mut s = soc();
        let d = s.alloc(1024);
        // CPU 0 writes the data: it becomes M in the CPU's L2.
        s.cpu_write_lines(0, &d, 0, 16, Cycle(0));
        let out = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::CohDma,
            Cycle(1_000_000),
        );
        assert_eq!(
            out.true_dram, 0,
            "recalled data comes from the L2, not DRAM"
        );
        s.caches().validate_coherence().unwrap();
    }

    #[test]
    fn full_coh_burst_fills_private_cache() {
        let mut s = soc();
        let d = s.alloc(4 * 1024);
        let cold = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::FullCoh,
            Cycle(0),
        );
        assert_eq!(cold.true_dram, 16);
        let warm = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 16),
            CoherenceMode::FullCoh,
            Cycle(1_000_000),
        );
        assert_eq!(warm.true_dram, 0);
        // Warm hits are tile-local: far cheaper than the cold fill.
        assert!(
            (warm.complete - Cycle(1_000_000)).raw() * 4 < cold.complete.raw(),
            "warm={} cold={}",
            warm.complete - Cycle(1_000_000),
            cold.complete
        );
        s.caches().validate_coherence().unwrap();
    }

    #[test]
    fn dma_write_needs_no_dram_fetch() {
        let mut s = soc();
        let d = s.alloc(4 * 1024);
        let out = s.accel_burst(
            AccelInstanceId(0),
            &d,
            &write_op(0, 16),
            CoherenceMode::LlcCohDma,
            Cycle(0),
        );
        assert_eq!(out.true_dram, 0, "full-line write allocation");
    }

    #[test]
    fn flush_cost_scales_with_dirty_data() {
        let mut s = soc();
        let d = s.alloc(16 * 1024);
        s.cpu_write_lines(0, &d, 0, 256, Cycle(0));
        let t0 = Cycle(10_000_000);
        let (end_dirty, wb) = s.flush_for_mode(0, CoherenceMode::NonCohDma, &[], t0);
        assert!(wb > 0, "dirty LLC lines reach DRAM");
        // A second flush has nothing left to write back.
        let (end_clean, wb2) = s.flush_for_mode(0, CoherenceMode::NonCohDma, &[], end_dirty);
        assert_eq!(wb2, 0);
        assert!(end_clean - end_dirty < end_dirty - t0);
    }

    #[test]
    fn coh_dma_needs_no_flush() {
        let mut s = soc();
        let (end, wb) = s.flush_for_mode(0, CoherenceMode::CohDma, &[], Cycle(5));
        assert_eq!(end, Cycle(5));
        assert_eq!(wb, 0);
    }

    #[test]
    fn llc_coh_flushes_private_only() {
        let mut s = soc();
        let d = s.alloc(16 * 1024);
        s.cpu_write_lines(0, &d, 0, 256, Cycle(0));
        let (_, wb) = s.flush_for_mode(0, CoherenceMode::LlcCohDma, &[], Cycle(1_000_000));
        assert_eq!(wb, 0, "private flush moves data to the LLC, not DRAM");
        // The data is now dirty in the LLC.
        assert!(s.caches().llc_dirty_lines() >= 256);
    }

    #[test]
    fn busy_caches_are_skipped_by_flush() {
        let mut s = soc();
        let d = s.alloc(1024);
        // Accel 0 (cache id 4: after 4 CPUs) warms its private cache.
        s.accel_burst(
            AccelInstanceId(0),
            &d,
            &write_op(0, 16),
            CoherenceMode::FullCoh,
            Cycle(0),
        );
        let accel_cache = s.accel(AccelInstanceId(0)).cache.unwrap();
        let dirty_before = s.caches().l2(accel_cache).dirty_lines();
        assert!(dirty_before > 0);
        s.flush_for_mode(
            0,
            CoherenceMode::LlcCohDma,
            &[accel_cache],
            Cycle(1_000_000),
        );
        assert_eq!(s.caches().l2(accel_cache).dirty_lines(), dirty_before);
        s.caches().validate_coherence().unwrap();
    }

    #[test]
    fn dram_monitors_advance_with_noncoh_traffic() {
        let mut s = soc();
        let d = s.alloc(64 * 1024);
        let before = s.dram_totals();
        s.accel_burst(
            AccelInstanceId(0),
            &d,
            &read_op(0, 64),
            CoherenceMode::NonCohDma,
            Cycle(0),
        );
        let after = s.dram_totals();
        let delta: u64 = after.iter().sum::<u64>() - before.iter().sum::<u64>();
        assert_eq!(delta, 64);
    }

    #[test]
    fn concurrent_bursts_contend_on_llc_port() {
        let mut s = soc();
        let d0 = s.alloc(64 * 1024);
        // Force both datasets onto the same partition.
        let d1 = {
            let p = d0.partition;
            let mut other = s.alloc(64 * 1024);
            while other.partition != p {
                other = s.alloc(64 * 1024);
            }
            other
        };
        let solo = s.accel_burst(
            AccelInstanceId(0),
            &d0,
            &read_op(0, 64),
            CoherenceMode::CohDma,
            Cycle(0),
        );
        let solo_latency = solo.complete;
        // Re-issue two bursts at the same instant on a fresh machine.
        let mut s2 = soc();
        let e0 = s2.alloc(64 * 1024);
        let e1 = {
            let p = e0.partition;
            let mut other = s2.alloc(64 * 1024);
            while other.partition != p {
                other = s2.alloc(64 * 1024);
            }
            other
        };
        let _ = d1;
        let a = s2.accel_burst(
            AccelInstanceId(0),
            &e0,
            &read_op(0, 64),
            CoherenceMode::CohDma,
            Cycle(0),
        );
        let b = s2.accel_burst(
            AccelInstanceId(1),
            &e1,
            &read_op(0, 64),
            CoherenceMode::CohDma,
            Cycle(0),
        );
        assert!(b.complete > a.complete);
        assert!(b.complete > solo_latency, "queueing behind the first burst");
    }

    #[test]
    fn cpu_reads_after_accel_write_see_llc_data_cheaply() {
        let mut s = soc();
        let d = s.alloc(4 * 1024);
        s.accel_burst(
            AccelInstanceId(0),
            &d,
            &write_op(0, 64),
            CoherenceMode::CohDma,
            Cycle(0),
        );
        let t0 = Cycle(1_000_000);
        let warm_done = s.cpu_read_lines(0, &d, 0, 64, t0);
        // Fresh SoC: the same read goes to DRAM.
        let mut s2 = soc();
        let d2 = s2.alloc(4 * 1024);
        let cold_done = s2.cpu_read_lines(0, &d2, 0, 64, t0);
        assert!(warm_done - t0 < cold_done - t0);
    }
}
