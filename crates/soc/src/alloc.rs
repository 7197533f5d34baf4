//! Accelerator-data allocation.
//!
//! ESP allocates accelerator datasets in contiguous big pages so that the
//! page table fits in the accelerator TLB. We mirror that with a bump
//! allocator per memory-partition region: each dataset is contiguous and
//! lives entirely in one partition, and consecutive allocations round-robin
//! across partitions to spread load over the DDR controllers.

use cohmeleon_cache::{AddressMap, LineAddr};
use cohmeleon_core::PartitionId;

/// One allocated dataset: a contiguous range of cache lines in a single
/// memory partition.
///
/// `Copy`: the engine passes datasets around on every simulation event, so
/// they must stay plain values (no heap state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
    /// Allocation id (diagnostics).
    pub id: u64,
    /// First line of the range.
    pub base: LineAddr,
    /// Length in lines.
    pub lines: u64,
    /// Home memory partition.
    pub partition: PartitionId,
}

impl Dataset {
    /// The absolute line address of the `offset`-th line of the dataset.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is out of range.
    pub fn line(&self, offset: u64) -> LineAddr {
        assert!(
            offset < self.lines,
            "offset {offset} beyond dataset of {} lines",
            self.lines
        );
        self.base.offset(offset)
    }

    /// The first absolute line of a `count`-line range starting at
    /// `offset`, bounds-checking the whole range at once (the batched
    /// equivalent of per-line [`line`](Self::line) calls).
    ///
    /// # Panics
    ///
    /// Panics if the range extends beyond the dataset.
    pub fn line_range(&self, offset: u64, count: u64) -> LineAddr {
        assert!(
            offset + count <= self.lines,
            "range [{offset}, {offset}+{count}) beyond dataset of {} lines",
            self.lines
        );
        self.base.offset(offset)
    }

    /// Dataset size in bytes for the given line size.
    pub fn bytes(&self, line_bytes: u64) -> u64 {
        self.lines * line_bytes
    }

    /// The memory partitions this dataset touches (always one; kept as a
    /// list because the Cohmeleon snapshot API is partition-set based).
    pub fn partitions(&self) -> Vec<PartitionId> {
        vec![self.partition]
    }
}

/// Bump allocator over the partitioned address space.
#[derive(Debug, Clone)]
pub struct Allocator {
    map: AddressMap,
    next_offset: Vec<u64>,
    next_partition: usize,
    next_id: u64,
    line_bytes: u64,
}

impl Allocator {
    /// Creates an allocator for the given address map and line size.
    pub fn new(map: AddressMap, line_bytes: u64) -> Allocator {
        Allocator {
            next_offset: vec![0; map.num_partitions() as usize],
            map,
            next_partition: 0,
            next_id: 0,
            line_bytes,
        }
    }

    /// Allocates a dataset of at least `bytes` bytes (rounded up to whole
    /// lines, minimum one line) in the next partition (round-robin).
    ///
    /// # Panics
    ///
    /// Panics if a partition region overflows (2³⁰ lines — unreachable with
    /// realistic workloads).
    pub fn alloc(&mut self, bytes: u64) -> Dataset {
        let lines = bytes.div_ceil(self.line_bytes).max(1);
        let p = self.next_partition;
        self.next_partition = (self.next_partition + 1) % self.next_offset.len();
        let offset = self.next_offset[p];
        assert!(
            offset + lines <= self.map.region_lines(),
            "partition {p} region exhausted"
        );
        self.next_offset[p] += lines;
        let partition = PartitionId(p as u16);
        let id = self.next_id;
        self.next_id += 1;
        Dataset {
            id,
            base: self.map.region_base(partition).offset(offset),
            lines,
            partition,
        }
    }

    /// Allocates a dataset pinned to a specific partition (used by tests
    /// and by workloads that co-locate a pipeline's data).
    pub fn alloc_in(&mut self, bytes: u64, partition: PartitionId) -> Dataset {
        let lines = bytes.div_ceil(self.line_bytes).max(1);
        let p = partition.0 as usize;
        let offset = self.next_offset[p];
        self.next_offset[p] += lines;
        let id = self.next_id;
        self.next_id += 1;
        Dataset {
            id,
            base: self.map.region_base(partition).offset(offset),
            lines,
            partition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocator() -> Allocator {
        Allocator::new(AddressMap::new(2), 64)
    }

    #[test]
    fn allocations_round_robin_partitions() {
        let mut a = allocator();
        let d0 = a.alloc(1024);
        let d1 = a.alloc(1024);
        let d2 = a.alloc(1024);
        assert_eq!(d0.partition, PartitionId(0));
        assert_eq!(d1.partition, PartitionId(1));
        assert_eq!(d2.partition, PartitionId(0));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = allocator();
        let d0 = a.alloc(1024);
        let d2 = a.alloc(640); // also partition 0 after round-robin
        let d4 = a.alloc(64);
        let p0: Vec<&Dataset> = [&d0, &d2, &d4]
            .into_iter()
            .filter(|d| d.partition == PartitionId(0))
            .collect();
        for w in p0.windows(2) {
            assert!(w[0].base.0 + w[0].lines <= w[1].base.0);
        }
    }

    #[test]
    fn sizes_round_up_to_lines() {
        let mut a = allocator();
        assert_eq!(a.alloc(1).lines, 1);
        assert_eq!(a.alloc(64).lines, 1);
        assert_eq!(a.alloc(65).lines, 2);
        assert_eq!(a.alloc(0).lines, 1);
    }

    #[test]
    fn line_addressing_within_dataset() {
        let mut a = allocator();
        let d = a.alloc(4096);
        assert_eq!(d.line(0), d.base);
        assert_eq!(d.line(5).0, d.base.0 + 5);
        assert_eq!(d.bytes(64), 4096);
    }

    #[test]
    #[should_panic(expected = "beyond dataset")]
    fn out_of_range_offset_panics() {
        let mut a = allocator();
        let d = a.alloc(64);
        d.line(1);
    }

    #[test]
    fn pinned_allocation() {
        let mut a = allocator();
        let d = a.alloc_in(1024, PartitionId(1));
        assert_eq!(d.partition, PartitionId(1));
        assert_eq!(d.partitions(), vec![PartitionId(1)]);
    }

    #[test]
    fn datasets_map_into_their_partition_region() {
        let mut a = allocator();
        let map = AddressMap::new(2);
        for _ in 0..10 {
            let d = a.alloc(8192);
            assert_eq!(map.partition_of(d.base), d.partition);
            assert_eq!(map.partition_of(d.line(d.lines - 1)), d.partition);
        }
    }
}
