//! Every timing constant of the simulated SoC, in one place.
//!
//! Absolute values cannot match the authors' FPGA prototypes; what matters
//! (`docs/ARCHITECTURE.md`, "Tuning and validation") is that the *relative*
//! costs reproduce the paper's shapes: invocation/flush overheads that
//! dominate small workloads, LLC service costs that make coherent DMA the
//! most contention-sensitive mode, and DRAM burst behaviour that lets
//! non-coherent DMA win on large workloads.

use serde::{Deserialize, Serialize};

/// Timing constants of the simulated SoC (all in clock cycles unless noted).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    // ---------------- caches ----------------
    /// Private-cache hit latency per line (pipelined accesses).
    pub l2_hit_cycles: u64,
    /// LLC port occupancy per line for LLC-coherent DMA and plain refills
    /// (tag + data array access).
    pub llc_service_cycles: u64,
    /// Additional LLC port occupancy per line for *coherent DMA*: the
    /// directory lookup and recall bookkeeping of the paper's protocol
    /// extension. This is why coherent DMA degrades fastest when many
    /// accelerators pile onto one LLC partition (Figure 3).
    pub coh_dma_extra_cycles: u64,
    /// LLC port occupancy per line recalled from an owning private cache
    /// (round trip to the owner, serialized at the directory).
    pub recall_service_cycles: u64,
    /// LLC port occupancy per sharer invalidation.
    pub inval_service_cycles: u64,
    /// Serialization cost per private-cache miss on the accelerator side:
    /// a fully-coherent accelerator issues line-granular MESI requests with
    /// a small MSHR budget, so it cannot pipeline misses as deeply as a DMA
    /// engine streams bursts.
    pub l2_miss_issue_cycles: u64,

    // ---------------- software overheads ----------------
    /// Device-driver invocation cost (ioctl, register writes, interrupt
    /// return) charged on the invoking CPU.
    pub driver_base_cycles: u64,
    /// Fixed cost of initiating any software cache flush.
    pub flush_base_cycles: u64,
    /// CPU cost per dirty line written back during a private-cache flush.
    pub flush_l2_line_cycles: u64,
    /// CPU cost per LLC line visited during an LLC flush (the DRAM
    /// writeback traffic is charged separately on the memory channel).
    pub flush_llc_line_cycles: u64,
    /// Cycles per cache line *walked* by the flush FSM: ESP's flush engines
    /// traverse every set and way of the flushed structure regardless of
    /// how many lines are dirty, so a flush costs time proportional to the
    /// cache capacity.
    pub flush_walk_cycles_per_line: u64,
    /// Fixed cost of loading the accelerator TLB (big-page table walk).
    pub tlb_base_cycles: u64,
    /// Cost per TLB entry loaded.
    pub tlb_per_page_cycles: u64,
    /// Big-page size backing accelerator data (ESP allocates large pages so
    /// the page table fits in the accelerator TLB), in bytes.
    pub big_page_bytes: u64,

    // ---------------- decision overheads ----------------
    /// Sense+decide cost of trivial policies (fixed, random) on the CPU.
    pub decision_simple_cycles: u64,
    /// Sense+decide cost of the manually-tuned heuristic.
    pub decision_manual_cycles: u64,
    /// Sense+decide+update cost of the Cohmeleon RL module (status
    /// structures, Q-table lookup, reward computation). Section 6 measures
    /// 3–6% of a 16 KiB invocation, < 0.1% of a 4 MiB one.
    pub decision_cohmeleon_cycles: u64,

    // ---------------- CPU-side data movement ----------------
    /// CPU cycles per line when initialising a dataset (streaming stores),
    /// in addition to the cache-hierarchy effects of the writes.
    pub cpu_init_line_cycles: u64,
    /// CPU cycles per line when checking results (loads).
    pub cpu_check_line_cycles: u64,
    /// Fraction of the dataset the consuming thread reads back after a
    /// chain completes, per mille (e.g. 125 ⇒ 1/8 of the lines).
    pub check_fraction_per_mille: u64,

    // ---------------- NoC message framing ----------------
    /// Header bytes of request/ack messages.
    pub header_bytes: u64,
}

impl Default for TimingParams {
    fn default() -> TimingParams {
        TimingParams {
            l2_hit_cycles: 2,
            llc_service_cycles: 8,
            coh_dma_extra_cycles: 4,
            recall_service_cycles: 12,
            inval_service_cycles: 4,
            l2_miss_issue_cycles: 40,
            driver_base_cycles: 3_000,
            flush_base_cycles: 1_500,
            flush_l2_line_cycles: 10,
            flush_llc_line_cycles: 2,
            flush_walk_cycles_per_line: 1,
            tlb_base_cycles: 200,
            tlb_per_page_cycles: 150,
            big_page_bytes: 2 * 1024 * 1024,
            decision_simple_cycles: 200,
            decision_manual_cycles: 400,
            decision_cohmeleon_cycles: 1_000,
            cpu_init_line_cycles: 8,
            cpu_check_line_cycles: 6,
            check_fraction_per_mille: 125,
            header_bytes: 8,
        }
    }
}

impl TimingParams {
    /// LLC per-line occupancy for a given DMA path.
    pub fn llc_line_cycles(&self, coherent_dma: bool) -> u64 {
        if coherent_dma {
            self.llc_service_cycles + self.coh_dma_extra_cycles
        } else {
            self.llc_service_cycles
        }
    }

    /// TLB-load cost for a dataset of `footprint_bytes`.
    pub fn tlb_cycles(&self, footprint_bytes: u64) -> u64 {
        let pages = footprint_bytes.div_ceil(self.big_page_bytes).max(1);
        self.tlb_base_cycles + pages * self.tlb_per_page_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coherent_dma_pays_directory_overhead() {
        let p = TimingParams::default();
        assert!(p.llc_line_cycles(true) > p.llc_line_cycles(false));
    }

    #[test]
    fn tlb_cost_scales_with_pages() {
        let p = TimingParams::default();
        let small = p.tlb_cycles(16 * 1024);
        let large = p.tlb_cycles(8 * 1024 * 1024);
        assert!(large > small);
        // 16 KiB fits one big page.
        assert_eq!(small, p.tlb_base_cycles + p.tlb_per_page_cycles);
        // 8 MiB needs four 2 MiB pages.
        assert_eq!(large, p.tlb_base_cycles + 4 * p.tlb_per_page_cycles);
    }

    #[test]
    fn cohmeleon_overhead_exceeds_simple_policies() {
        let p = TimingParams::default();
        assert!(p.decision_cohmeleon_cycles > p.decision_manual_cycles);
        assert!(p.decision_manual_cycles > p.decision_simple_cycles);
    }
}
