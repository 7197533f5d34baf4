//! SoC configurations: the seven evaluation SoCs of Table 4, the motivation
//! SoCs of Section 3, and a builder for custom designs.
//!
//! An ESP SoC is a grid of tiles connected by the NoC: processor tiles
//! (CPU + private L2), memory tiles (LLC partition + DRAM controller),
//! accelerator tiles (accelerator + optional private L2) and one auxiliary
//! tile. This module decides *what* is in the SoC and *where*; the
//! simulation machinery lives in [`crate::machine`].

use cohmeleon_accel::{catalog, AccelSpec};
use cohmeleon_core::snapshot::ArchParams;
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, ModeSet};
use cohmeleon_noc::{Coord, NocConfig};

/// One accelerator tile: its communication spec and whether the tile
/// includes a private cache (required for the fully-coherent mode).
#[derive(Debug, Clone, PartialEq)]
pub struct AccelTile {
    /// The accelerator occupying the tile.
    pub spec: AccelSpec,
    /// Whether the tile integrates a private L2. All accelerators in the
    /// paper have one except five tiles of SoC3 (FPGA resource limits).
    pub has_private_cache: bool,
}

impl AccelTile {
    /// The coherence modes this tile supports.
    pub fn available_modes(&self) -> ModeSet {
        if self.has_private_cache {
            ModeSet::all()
        } else {
            ModeSet::all().without(CoherenceMode::FullCoh)
        }
    }
}

/// A full SoC configuration (one column of Table 4).
#[derive(Debug, Clone, PartialEq)]
pub struct SocConfig {
    /// Display name (`SoC0` … `SoC6`, or custom).
    pub name: String,
    /// Mesh dimensions.
    pub noc_width: u8,
    /// Mesh dimensions.
    pub noc_height: u8,
    /// Number of processor tiles.
    pub cpus: usize,
    /// Number of memory tiles (LLC partition + DDR controller each).
    pub mem_tiles: usize,
    /// Private (L2) cache capacity in bytes (processors and accelerators).
    pub l2_bytes: u64,
    /// One LLC partition's capacity in bytes.
    pub llc_slice_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// LLC associativity.
    pub llc_ways: u32,
    /// The accelerator tiles.
    pub accels: Vec<AccelTile>,
}

/// Dense accelerator topology tables derived from a [`SocConfig`]:
/// instance → kind and kind → first instance, indexed by the raw ids.
/// Built once per config (instance ids are the positions in
/// [`SocConfig::accels`], so the tables are exact, not sparse maps).
#[derive(Debug, Clone)]
pub struct DenseTopology {
    /// Kind of each accelerator instance (index = instance id).
    pub kind_of: Vec<AccelKindId>,
    /// First instance of each kind (index = kind id; `None` = no instance
    /// of that kind on this SoC).
    pub first_instance: Vec<Option<AccelInstanceId>>,
}

impl DenseTopology {
    /// The registered (instance, kind) pairs in instance-id order — the
    /// shape [`Policy::bind_topology`](cohmeleon_core::policy::Policy::bind_topology)
    /// consumes.
    pub fn pairs(&self) -> Vec<(AccelInstanceId, AccelKindId)> {
        self.kind_of
            .iter()
            .enumerate()
            .map(|(i, &k)| (AccelInstanceId(i as u16), k))
            .collect()
    }
}

impl SocConfig {
    /// Architecture parameters as seen by the Cohmeleon sense layer.
    pub fn arch_params(&self) -> ArchParams {
        ArchParams::new(self.l2_bytes, self.llc_slice_bytes, self.mem_tiles)
    }

    /// Builds the dense instance/kind topology tables (one pass over the
    /// accelerator list; no per-call map allocation for consumers).
    pub fn dense_topology(&self) -> DenseTopology {
        let mut kind_of = Vec::with_capacity(self.accels.len());
        let mut first_instance: Vec<Option<AccelInstanceId>> = Vec::new();
        for (i, tile) in self.accels.iter().enumerate() {
            let kind = tile.spec.kind;
            kind_of.push(kind);
            let k = kind.0 as usize;
            if k >= first_instance.len() {
                first_instance.resize(k + 1, None);
            }
            if first_instance[k].is_none() {
                first_instance[k] = Some(AccelInstanceId(i as u16));
            }
        }
        DenseTopology {
            kind_of,
            first_instance,
        }
    }

    /// Total LLC capacity.
    pub fn llc_total_bytes(&self) -> u64 {
        self.llc_slice_bytes * self.mem_tiles as u64
    }

    /// The NoC configuration.
    pub fn noc_config(&self) -> NocConfig {
        NocConfig::new(self.noc_width, self.noc_height)
    }

    /// Checks that every tile fits in the mesh.
    ///
    /// # Errors
    ///
    /// Returns a message naming the deficiency (too many tiles, no CPU, no
    /// memory tile, or empty accelerator list).
    pub fn validate(&self) -> Result<(), String> {
        let tiles = usize::from(self.noc_width) * usize::from(self.noc_height);
        let needed = self.cpus + self.mem_tiles + self.accels.len() + 1; // +1 aux
        if needed > tiles {
            return Err(format!(
                "{}: {needed} tiles needed but the {}x{} mesh has {tiles}",
                self.name, self.noc_width, self.noc_height
            ));
        }
        if self.cpus == 0 {
            return Err(format!("{}: at least one CPU required", self.name));
        }
        if self.mem_tiles == 0 {
            return Err(format!("{}: at least one memory tile required", self.name));
        }
        if self.accels.is_empty() {
            return Err(format!("{}: at least one accelerator required", self.name));
        }
        Ok(())
    }

    /// Deterministic tile placement: memory tiles at the mesh corners (ESP
    /// convention, maximising DDR spread), then CPUs, then accelerators
    /// row-major over the remaining tiles; the last free tile is auxiliary.
    ///
    /// Returns `(mem_coords, cpu_coords, accel_coords)`.
    pub fn placement(&self) -> (Vec<Coord>, Vec<Coord>, Vec<Coord>) {
        let w = self.noc_width;
        let h = self.noc_height;
        let corners = [
            Coord::new(0, 0),
            Coord::new(w - 1, 0),
            Coord::new(0, h - 1),
            Coord::new(w - 1, h - 1),
        ];
        let mut taken: Vec<Coord> = Vec::new();
        let mut mems = Vec::new();
        for i in 0..self.mem_tiles {
            let c = if let Some(corner) = corners.get(i) {
                *corner
            } else {
                // More than four memory tiles: continue along the top edge.
                Coord::new((1 + i as u8 - 4).min(w - 2), 0)
            };
            mems.push(c);
            taken.push(c);
        }
        let mut free = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let c = Coord::new(x, y);
                if !taken.contains(&c) {
                    free.push(c);
                }
            }
        }
        let cpus: Vec<Coord> = free[..self.cpus].to_vec();
        let accels: Vec<Coord> = free[self.cpus..self.cpus + self.accels.len()].to_vec();
        (mems, cpus, accels)
    }
}

fn accel_tiles(specs: Vec<AccelSpec>, cacheless: usize) -> Vec<AccelTile> {
    let n = specs.len();
    specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| AccelTile {
            // The last `cacheless` tiles lack a private cache (SoC3).
            has_private_cache: i < n - cacheless,
            spec,
        })
        .collect()
}

/// The motivation SoC of Section 3, Figure 2: one instance of each catalog
/// accelerator, 32 KiB private caches, 1 MiB LLC split across two memory
/// tiles.
pub fn motivation_isolation_soc() -> SocConfig {
    SocConfig {
        name: "motivation-isolation".into(),
        noc_width: 5,
        noc_height: 5,
        cpus: 4,
        mem_tiles: 2,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 512 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(catalog(), 0),
    }
}

/// The motivation SoC of Section 3, Figure 3: 12 accelerators — three
/// instances each of FFT, Night-vision, Sort and SPMV.
pub fn motivation_parallel_soc() -> SocConfig {
    let cat = catalog();
    let pick = |name: &str| {
        cat.iter()
            .find(|s| s.profile.name == name)
            .expect("catalog accelerator")
            .clone()
    };
    let mut specs = Vec::new();
    for name in ["fft", "night-vision", "sort", "spmv"] {
        for _ in 0..3 {
            specs.push(pick(name));
        }
    }
    SocConfig {
        name: "motivation-parallel".into(),
        noc_width: 5,
        noc_height: 5,
        cpus: 4,
        mem_tiles: 2,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 512 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(specs, 0),
    }
}

/// SoC0 (Table 4): 12 traffic generators, 5×5 mesh, 4 CPUs, 4 DDRs,
/// 512 KiB LLC partitions, 64 KiB L2s.
pub fn soc0() -> SocConfig {
    SocConfig {
        name: "SoC0".into(),
        noc_width: 5,
        noc_height: 5,
        cpus: 4,
        mem_tiles: 4,
        l2_bytes: 64 * 1024,
        llc_slice_bytes: 512 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(cohmeleon_accel::catalog::mixed_generators(12), 0),
    }
}

/// SoC0 with purely streaming traffic generators (Figure 9,
/// "SoC0 – Streaming").
pub fn soc0_streaming() -> SocConfig {
    let mut cfg = soc0();
    cfg.name = "SoC0-streaming".into();
    cfg.accels = accel_tiles(cohmeleon_accel::catalog::streaming_generators(12), 0);
    cfg
}

/// SoC0 with irregular traffic generators (Figure 9, "SoC0 – Irregular").
pub fn soc0_irregular() -> SocConfig {
    let mut cfg = soc0();
    cfg.name = "SoC0-irregular".into();
    cfg.accels = accel_tiles(cohmeleon_accel::catalog::irregular_generators(12), 0);
    cfg
}

/// SoC1 (Table 4): 7 mixed traffic generators, 4×4 mesh, 2 CPUs, 4 DDRs,
/// 256 KiB LLC partitions, 32 KiB L2s.
pub fn soc1() -> SocConfig {
    SocConfig {
        name: "SoC1".into(),
        noc_width: 4,
        noc_height: 4,
        cpus: 2,
        mem_tiles: 4,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 256 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(cohmeleon_accel::catalog::mixed_generators(7), 0),
    }
}

/// SoC2 (Table 4): 9 mixed traffic generators, 4×4 mesh, 4 CPUs, 2 DDRs,
/// 512 KiB LLC partitions, 32 KiB L2s.
pub fn soc2() -> SocConfig {
    SocConfig {
        name: "SoC2".into(),
        noc_width: 4,
        noc_height: 4,
        cpus: 4,
        mem_tiles: 2,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 512 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(cohmeleon_accel::catalog::mixed_generators(9), 0),
    }
}

/// SoC3 (Table 4): 16 mixed traffic generators, 5×5 mesh, 4 CPUs, 4 DDRs,
/// 256 KiB LLC partitions, 64 KiB L2s. Five accelerators have no private
/// cache (FPGA resource constraints in the paper), so they cannot use the
/// fully-coherent mode.
pub fn soc3() -> SocConfig {
    SocConfig {
        name: "SoC3".into(),
        noc_width: 5,
        noc_height: 5,
        cpus: 4,
        mem_tiles: 4,
        l2_bytes: 64 * 1024,
        llc_slice_bytes: 256 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(cohmeleon_accel::catalog::mixed_generators(16), 5),
    }
}

/// SoC4 (Table 4, "Mixed Accelerators" case study): 11 catalog
/// accelerators, one per type, 5×4 mesh, 2 CPUs, 4 DDRs.
/// (Table 4 lists 11 accelerators while Table 2 has 12 columns; we follow
/// Table 4 and omit NVDLA, the largest block, as the most plausible victim
/// of the FPGA resource budget.)
pub fn soc4() -> SocConfig {
    let specs: Vec<AccelSpec> = catalog()
        .into_iter()
        .filter(|s| s.profile.name != "nvdla")
        .collect();
    SocConfig {
        name: "SoC4".into(),
        noc_width: 5,
        noc_height: 4,
        cpus: 2,
        mem_tiles: 4,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 256 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(specs, 0),
    }
}

/// SoC5 (Table 4, "Autonomous Driving" case study): two each of FFT,
/// Viterbi (V2V communication) and Conv-2D, GEMM (CNN inference);
/// 4×4 mesh, 1 CPU, 4 DDRs.
pub fn soc5() -> SocConfig {
    let cat = catalog();
    let pick = |name: &str| {
        cat.iter()
            .find(|s| s.profile.name == name)
            .expect("catalog accelerator")
            .clone()
    };
    let mut specs = Vec::new();
    for name in ["fft", "viterbi", "conv2d", "gemm"] {
        for _ in 0..2 {
            specs.push(pick(name));
        }
    }
    SocConfig {
        name: "SoC5".into(),
        noc_width: 4,
        noc_height: 4,
        cpus: 1,
        mem_tiles: 4,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 256 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(specs, 0),
    }
}

/// SoC6 (Table 4, "Computer Vision" case study): three instances of the
/// night-vision → autoencoder → MLP classification pipeline; 4×4 mesh,
/// 1 CPU, 2 DDRs, 512 KiB total LLC.
pub fn soc6() -> SocConfig {
    let cat = catalog();
    let pick = |name: &str| {
        cat.iter()
            .find(|s| s.profile.name == name)
            .expect("catalog accelerator")
            .clone()
    };
    let mut specs = Vec::new();
    for _ in 0..3 {
        specs.push(pick("night-vision"));
        specs.push(pick("autoencoder"));
        specs.push(pick("mlp"));
    }
    SocConfig {
        name: "SoC6".into(),
        noc_width: 4,
        noc_height: 4,
        cpus: 1,
        mem_tiles: 2,
        l2_bytes: 32 * 1024,
        llc_slice_bytes: 256 * 1024,
        line_bytes: 64,
        l2_ways: 4,
        llc_ways: 16,
        accels: accel_tiles(specs, 0),
    }
}

/// All seven evaluation SoCs of Table 4, in order.
pub fn table4() -> Vec<SocConfig> {
    vec![soc0(), soc1(), soc2(), soc3(), soc4(), soc5(), soc6()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_parameters() {
        let socs = table4();
        let accel_counts: Vec<usize> = socs.iter().map(|s| s.accels.len()).collect();
        assert_eq!(accel_counts, vec![12, 7, 9, 16, 11, 8, 9]);
        let cpu_counts: Vec<usize> = socs.iter().map(|s| s.cpus).collect();
        assert_eq!(cpu_counts, vec![4, 2, 4, 4, 2, 1, 1]);
        let ddr_counts: Vec<usize> = socs.iter().map(|s| s.mem_tiles).collect();
        assert_eq!(ddr_counts, vec![4, 4, 2, 4, 4, 4, 2]);
        let llc_slices: Vec<u64> = socs.iter().map(|s| s.llc_slice_bytes / 1024).collect();
        assert_eq!(llc_slices, vec![512, 256, 512, 256, 256, 256, 256]);
        let llc_totals: Vec<u64> = socs.iter().map(|s| s.llc_total_bytes() / 1024).collect();
        assert_eq!(llc_totals, vec![2048, 1024, 1024, 1024, 1024, 1024, 512]);
        let l2s: Vec<u64> = socs.iter().map(|s| s.l2_bytes / 1024).collect();
        assert_eq!(l2s, vec![64, 32, 32, 64, 32, 32, 32]);
    }

    #[test]
    fn all_configs_validate_and_place() {
        for cfg in table4()
            .into_iter()
            .chain([motivation_isolation_soc(), motivation_parallel_soc()])
            .chain([soc0_streaming(), soc0_irregular()])
        {
            cfg.validate().unwrap_or_else(|e| panic!("{e}"));
            let (mems, cpus, accels) = cfg.placement();
            assert_eq!(mems.len(), cfg.mem_tiles);
            assert_eq!(cpus.len(), cfg.cpus);
            assert_eq!(accels.len(), cfg.accels.len());
            // No tile is used twice.
            let mut all: Vec<Coord> = mems
                .iter()
                .chain(cpus.iter())
                .chain(accels.iter())
                .copied()
                .collect();
            let before = all.len();
            all.sort();
            all.dedup();
            assert_eq!(all.len(), before, "{}: overlapping tiles", cfg.name);
        }
    }

    #[test]
    fn soc3_has_five_cacheless_accelerators() {
        let cfg = soc3();
        let cacheless = cfg.accels.iter().filter(|a| !a.has_private_cache).count();
        assert_eq!(cacheless, 5);
        let tile = cfg.accels.last().unwrap();
        assert!(!tile.available_modes().contains(CoherenceMode::FullCoh));
        let cached = cfg.accels.first().unwrap();
        assert_eq!(cached.available_modes(), ModeSet::all());
    }

    #[test]
    fn memory_tiles_sit_at_corners() {
        let (mems, _, _) = soc0().placement();
        assert!(mems.contains(&Coord::new(0, 0)));
        assert!(mems.contains(&Coord::new(4, 0)));
        assert!(mems.contains(&Coord::new(0, 4)));
        assert!(mems.contains(&Coord::new(4, 4)));
    }

    #[test]
    fn case_study_socs_have_domain_accelerators() {
        let soc5 = soc5();
        let names: Vec<&str> = soc5
            .accels
            .iter()
            .map(|a| a.spec.profile.name.as_str())
            .collect();
        assert_eq!(names.iter().filter(|n| **n == "fft").count(), 2);
        assert_eq!(names.iter().filter(|n| **n == "gemm").count(), 2);
        let soc6 = soc6();
        let names6: Vec<&str> = soc6
            .accels
            .iter()
            .map(|a| a.spec.profile.name.as_str())
            .collect();
        assert_eq!(names6.iter().filter(|n| **n == "night-vision").count(), 3);
        assert_eq!(names6.iter().filter(|n| **n == "mlp").count(), 3);
    }

    #[test]
    fn motivation_socs_match_section3() {
        let iso = motivation_isolation_soc();
        assert_eq!(iso.accels.len(), 12);
        assert_eq!(iso.l2_bytes, 32 * 1024);
        assert_eq!(iso.llc_total_bytes(), 1024 * 1024);
        assert_eq!(iso.mem_tiles, 2);
        let par = motivation_parallel_soc();
        assert_eq!(par.accels.len(), 12);
    }

    #[test]
    fn validation_rejects_overfull_mesh() {
        let mut cfg = soc0();
        cfg.noc_width = 3;
        cfg.noc_height = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn arch_params_projection() {
        let cfg = soc1();
        let arch = cfg.arch_params();
        assert_eq!(arch.l2_bytes, 32 * 1024);
        assert_eq!(arch.llc_slice_bytes, 256 * 1024);
        assert_eq!(arch.num_partitions, 4);
    }
}
