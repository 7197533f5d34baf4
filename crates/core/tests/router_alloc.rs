//! Allocation accounting for the router dispatch path.
//!
//! The sense→decide hot path was made allocation-free in earlier
//! optimisation passes (generation-stamped snapshot scratch, pooled
//! buffers); routing must not regress that. This binary installs a
//! counting global allocator and pins two facts:
//!
//! 1. `PerInstance` routing over non-allocating agents performs **zero**
//!    heap allocations per decide/observe once every sub-agent exists —
//!    the dispatch itself (key derivation + `BTreeMap` lookup) never
//!    touches the heap.
//! 2. Routing a learning agent adds **zero** allocations over using the
//!    agent bare: the only allocations on a routed decide are the
//!    agent's own (ε-greedy's tie-break vector), in equal number.
//!
//! Host time spent in `decide`/`observe` is measured by the repository
//! benchmark's `core.*` per-layer metrics (`perfbench/`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cohmeleon_core::policy::{CohmeleonPolicy, FixedPolicy, Policy};
use cohmeleon_core::qlearn::LearningSchedule;
use cohmeleon_core::reward::{InvocationMeasurement, RewardWeights};
use cohmeleon_core::router::{AgentScope, PolicyRouter};
use cohmeleon_core::snapshot::{ArchParams, SystemSnapshot};
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, ModeSet, PartitionId};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn snapshot(footprint: u64) -> SystemSnapshot {
    SystemSnapshot::new(
        ArchParams::new(32 * 1024, 256 * 1024, 2),
        vec![],
        footprint,
        vec![PartitionId(0)],
    )
}

fn measurement(total: u64) -> InvocationMeasurement {
    InvocationMeasurement {
        total_cycles: total,
        accel_active_cycles: total / 2,
        accel_comm_cycles: total / 4,
        offchip_accesses: 100.0,
        footprint_bytes: 4096,
    }
}

const INSTANCES: u16 = 8;

// A single test function: allocation counts are global state, so the two
// checks run sequentially in one thread.
#[test]
fn per_instance_routing_keeps_the_decide_path_allocation_free() {
    // --- 1. Pure dispatch cost: fixed sub-agents, zero allocations. ---
    let mut router = PolicyRouter::new(AgentScope::PerInstance, 0, |_, _| {
        Box::new(FixedPolicy::new(CoherenceMode::CohDma))
    });
    let topology: Vec<(AccelInstanceId, AccelKindId)> = (0..INSTANCES)
        .map(|i| (AccelInstanceId(i), AccelKindId(i % 3)))
        .collect();
    router.bind_topology(&topology);
    let snap = snapshot(64 * 1024);
    let m = measurement(10_000);
    // Warm-up: every sub-agent exists after bind_topology, but run one
    // full round anyway so any lazily-initialised state settles.
    for i in 0..INSTANCES {
        let d = router.decide(&snap, ModeSet::all(), AccelInstanceId(i));
        router.observe(AccelInstanceId(i), &d, &m);
    }

    // The allocation counter is process-global, so rare background
    // allocations (test-harness bookkeeping) can land inside a measured
    // window and inflate it. Noise only ever *adds* counts and the true
    // per-window count is deterministic, so the minimum over a few
    // repeated windows recovers it.
    let dispatch_allocs = (0..3)
        .map(|_| {
            let before = allocations();
            for round in 0..1_000u64 {
                let i = (round % INSTANCES as u64) as u16;
                let d = router.decide(&snap, ModeSet::all(), AccelInstanceId(i));
                router.observe(AccelInstanceId(i), &d, &m);
            }
            allocations() - before
        })
        .min()
        .unwrap();
    assert_eq!(
        dispatch_allocs, 0,
        "PerInstance dispatch allocated {dispatch_allocs} times in 1000 steady-state rounds"
    );

    // --- 2. Routing a learning agent adds nothing over the bare agent. ---
    fn agent(seed: u64) -> CohmeleonPolicy {
        CohmeleonPolicy::new(
            RewardWeights::paper_default(),
            LearningSchedule::paper_default(4),
            seed,
        )
    }

    let run = |policy: &mut dyn Policy, snap: &SystemSnapshot| {
        // Warm-up: first observes materialise per-accelerator reward
        // histories (a HashMap entry each) in both arms.
        for i in 0..INSTANCES {
            let d = policy.decide(snap, ModeSet::all(), AccelInstanceId(i));
            policy.observe(AccelInstanceId(i), &d, &measurement(10_000));
        }
        let before = allocations();
        for round in 0..1_000u64 {
            let i = (round % INSTANCES as u64) as u16;
            let d = policy.decide(snap, ModeSet::all(), AccelInstanceId(i));
            policy.observe(AccelInstanceId(i), &d, &measurement(10_000 + round));
        }
        allocations() - before
    };
    // Every repeat starts from freshly-seeded agents and replays the same
    // measurement sequence, so the true allocation count is identical
    // across repeats of an arm — the minimum strips the (additive-only)
    // background noise before the two arms are compared.
    let bare_allocs = (0..3).map(|_| run(&mut agent(9), &snap)).min().unwrap();
    let routed_allocs = (0..3)
        .map(|_| {
            let mut routed =
                PolicyRouter::new(AgentScope::Global, 9, |_, s| Box::new(agent(s)));
            routed.bind_topology(&topology);
            run(&mut routed, &snap)
        })
        .min()
        .unwrap();
    assert_eq!(
        routed_allocs, bare_allocs,
        "routing added {} allocations over the bare agent",
        routed_allocs as i64 - bare_allocs as i64
    );
}
