//! Heap pin for the streamed burst schedule.
//!
//! The engine pulls an invocation's bursts from its `BurstSchedule` as it
//! issues them, so the heap one invocation needs does not grow with its
//! dataset. This binary installs a global allocator that tracks live and
//! peak heap bytes, runs one SoC0-irregular invocation under non-coherent
//! DMA over 256 KiB and over 1 MiB, and pins that both runs peak at the
//! same number of bytes above what was live before them. A schedule held
//! in memory costs 32 bytes per burst: 2-line bursts over 1 MiB would
//! peak about 768 KiB higher than over 256 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cohmeleon_core::policy::FixedPolicy;
use cohmeleon_core::{AccelInstanceId, CoherenceMode};
use cohmeleon_soc::config::soc0_irregular;
use cohmeleon_soc::{run_app, AppSpec, PhaseSpec, Soc, ThreadSpec};

struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System` upholds the `GlobalAlloc` contract; the counters only observe.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: PeakAllocator = PeakAllocator;

/// Peak heap bytes above those live before `run_app`, for one invocation
/// of accelerator 0 (2-line irregular bursts) over `dataset_bytes`.
fn invocation_heap_peak(dataset_bytes: u64) -> usize {
    let mut soc = Soc::new(soc0_irregular());
    let mut policy = FixedPolicy::new(CoherenceMode::NonCohDma);
    let app = AppSpec {
        name: "heap".into(),
        phases: vec![PhaseSpec {
            name: "p".into(),
            threads: vec![ThreadSpec {
                dataset_bytes,
                chain: vec![AccelInstanceId(0)],
                loops: 1,
                check_output: false,
            }],
        }],
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let result = run_app(&mut soc, &app, &mut policy, 1);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(result.invocations().count(), 1);
    peak
}

// One test in its own binary: the counters are process-wide, so nothing
// else may allocate while it measures.
#[test]
fn invocation_heap_peak_does_not_grow_with_the_dataset() {
    let small = invocation_heap_peak(256 << 10);
    let large = invocation_heap_peak(1 << 20);
    assert!(
        small.abs_diff(large) <= 4096,
        "heap peak {small} B over 256 KiB but {large} B over 1 MiB"
    );
}
