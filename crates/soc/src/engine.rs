//! The execution engine: multithreaded evaluation applications running over
//! the simulated SoC.
//!
//! Applications follow the paper's structure (Section 5): an application is
//! a set of *phases*; a phase is a set of concurrent *threads*; a thread
//! owns a dataset and runs a *chain* of accelerator invocations over it
//! (the output of one is the input of the next), optionally looping.
//!
//! The engine reproduces the ESP invocation flow around every accelerator
//! call: sample the monitors, **sense** the system status, **decide** a
//! coherence mode through the configured policy, **actuate** it (driver
//! write + any required software flush + TLB load), run the accelerator's
//! burst schedule through the memory hierarchy, then **evaluate**: read the
//! monitors, build the paper's [`InvocationMeasurement`], and feed it back
//! to the policy.

use std::collections::VecDeque;
use std::iter::Peekable;

use cohmeleon_accel::BurstSchedule;
use cohmeleon_cache::CacheId;
use cohmeleon_core::policy::PolicyComplexity;
use cohmeleon_core::reward::InvocationMeasurement;
use cohmeleon_core::status::StatusTracker;
use cohmeleon_core::{AccelInstanceId, AccelKindId, CoherenceMode, Decision, Policy, State};
use cohmeleon_sim::{Cycle, EventQueue, SeedStream, TaggedStream};
use rand::RngCore;

use crate::alloc::Dataset;
use crate::machine::{AccelInfo, Soc};

/// Lines a CPU initialises per simulation event.
const INIT_CHUNK_LINES: u64 = 64;

/// Maximum DMA bursts an accelerator keeps in flight (double-buffered
/// engines with a small request queue).
const MAX_INFLIGHT_BURSTS: usize = 4;

/// One evaluation application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Display name.
    pub name: String,
    /// Phases, executed sequentially.
    pub phases: Vec<PhaseSpec>,
}

/// One phase: a set of threads started together; the phase ends when all
/// threads finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpec {
    /// Display name (e.g. "10 Threads: Small").
    pub name: String,
    /// The concurrent threads.
    pub threads: Vec<ThreadSpec>,
}

/// One software thread: initialises a dataset, then runs its accelerator
/// chain over it (`loops` times), optionally reading back results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSpec {
    /// Dataset (workload) size in bytes.
    pub dataset_bytes: u64,
    /// The accelerator instances invoked serially on the dataset.
    pub chain: Vec<AccelInstanceId>,
    /// Times the chain repeats (≥ 1).
    pub loops: u32,
    /// Whether the thread reads back part of the output after the chain.
    pub check_output: bool,
}

/// The record of one completed accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Which accelerator ran.
    pub accel: AccelInstanceId,
    /// Its kind.
    pub kind: AccelKindId,
    /// The actuated coherence mode.
    pub mode: CoherenceMode,
    /// The sensed state at decision time.
    pub state: State,
    /// Workload size in bytes.
    pub footprint_bytes: u64,
    /// What the policy saw (monitor-derived, attribution-approximated).
    pub measurement: InvocationMeasurement,
    /// Ground truth: DRAM line accesses actually caused by this invocation
    /// (including flush writebacks). Unavailable on real hardware; used by
    /// tests and harness diagnostics.
    pub true_dram: u64,
    /// Invocation overhead (decision + driver + flush + TLB), in cycles.
    pub setup_cycles: u64,
    /// Invocation start time.
    pub start: Cycle,
    /// Invocation end time.
    pub end: Cycle,
}

/// The outcome of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Phase name.
    pub name: String,
    /// Wall-clock cycles from phase start to the last thread's finish.
    pub duration: u64,
    /// Off-chip accesses counted at the memory controllers over the phase.
    pub offchip: u64,
    /// Simulation events processed for this phase (throughput metric for
    /// the perf harness; deterministic for a fixed seed).
    pub events: u64,
    /// Per-invocation records, in completion order.
    pub invocations: Vec<InvocationRecord>,
}

/// The outcome of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppResult {
    /// Application name.
    pub name: String,
    /// The policy that drove coherence decisions.
    pub policy: String,
    /// Per-phase results.
    pub phases: Vec<PhaseResult>,
    /// Tag-walk operation counters accumulated across the run (summed over
    /// every L2 and LLC partition). A perf diagnostic, deliberately outside
    /// [`structural_hash`](Self::structural_hash) and all golden records.
    pub tag_walk: cohmeleon_cache::TagStats,
}

impl AppResult {
    /// Total duration over all phases.
    pub fn total_duration(&self) -> u64 {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Total off-chip accesses over all phases.
    pub fn total_offchip(&self) -> u64 {
        self.phases.iter().map(|p| p.offchip).sum()
    }

    /// Total simulation events processed over all phases.
    pub fn total_events(&self) -> u64 {
        self.phases.iter().map(|p| p.events).sum()
    }

    /// All invocation records across phases.
    pub fn invocations(&self) -> impl Iterator<Item = &InvocationRecord> {
        self.phases.iter().flat_map(|p| p.invocations.iter())
    }

    /// A structural hash of the *modeled* outcome: per-phase duration and
    /// off-chip count, and per-invocation mode, ground-truth DRAM accesses
    /// and start/end times. Hot-path refactors must keep this bit-identical
    /// for a fixed seed; the golden determinism test pins it.
    ///
    /// Engine mechanics (event counts, attribution floats) are deliberately
    /// excluded — only modeled timing and ground-truth counts are pinned.
    pub fn structural_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            // FNV-1a over the value's bytes.
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for phase in &self.phases {
            mix(phase.duration);
            mix(phase.offchip);
            mix(phase.invocations.len() as u64);
            for inv in &phase.invocations {
                mix(inv.mode.index() as u64);
                mix(inv.true_dram);
                mix(inv.start.raw());
                mix(inv.end.raw());
            }
        }
        h
    }
}

/// How the engine reports off-chip accesses to the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Attribution {
    /// The paper's footprint-proportional approximation over the monitor
    /// deltas (Section 4.3) — what real hardware can measure.
    #[default]
    PaperApprox,
    /// The simulator's exact per-invocation DRAM access count — an oracle
    /// unavailable on hardware, used by the attribution ablation.
    GroundTruth,
}

/// Engine knobs beyond the defaults of [`run_app`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineOptions {
    /// Off-chip attribution mode.
    pub attribution: Attribution,
}

/// Runs `app` on `soc` under `policy`. The SoC must be freshly elaborated
/// (idle resources); phases execute sequentially on one global timeline.
/// `seed` drives burst-schedule sampling for irregular accelerators.
pub fn run_app(soc: &mut Soc, app: &AppSpec, policy: &mut dyn Policy, seed: u64) -> AppResult {
    run_app_with_options(soc, app, policy, seed, EngineOptions::default())
}

/// [`run_app`] with explicit [`EngineOptions`].
pub fn run_app_with_options(
    soc: &mut Soc,
    app: &AppSpec,
    policy: &mut dyn Policy,
    seed: u64,
    options: EngineOptions,
) -> AppResult {
    // Hand the policy the SoC's accelerator topology before anything runs:
    // scope-aware policies (`PolicyRouter`) route per-kind/per-instance
    // decisions from it; everything else ignores it (`bind_topology` is a
    // default no-op, so this is invisible to the paper policies).
    let topology: Vec<(AccelInstanceId, cohmeleon_core::AccelKindId)> = soc
        .accel_infos()
        .iter()
        .map(|info| (info.instance, info.kind))
        .collect();
    policy.bind_topology(&topology);
    let walk_before = soc.caches().tag_stats();
    let mut engine = Engine::new(soc, policy, seed);
    engine.options = options;
    // Event-queue arena: each runnable thread keeps exactly one event in
    // flight, so the widest phase bounds the queue. Pre-size it once; the
    // buffer is reused across phases, so no phase pays a mid-simulation
    // buffer growth.
    let max_threads = app
        .phases
        .iter()
        .map(|p| p.threads.len())
        .max()
        .unwrap_or(0);
    engine.queue.reserve(max_threads);
    let phases = app
        .phases
        .iter()
        .map(|phase| engine.run_phase(phase))
        .collect();
    let policy_name = engine.policy.name();
    AppResult {
        name: app.name.clone(),
        policy: policy_name,
        phases,
        tag_walk: soc.caches().tag_stats().delta_since(&walk_before),
    }
}

// ---------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------

#[derive(Debug)]
struct RunCtx {
    step: usize,
    loop_i: u32,
    instance: AccelInstanceId,
    decision: Decision,
    /// The bursts still to issue, streamed.
    sched: Peekable<BurstSchedule>,
    invoke_start: Cycle,
    accel_start: Cycle,
    comm_busy: u64,
    /// High-water mark of the communication-interval union.
    comm_frontier: Cycle,
    compute_done: Cycle,
    /// Completion time of the latest-finishing burst.
    last_complete: Cycle,
    /// Completion times of in-flight bursts (pipelined DMA window).
    inflight: VecDeque<Cycle>,
    true_dram: u64,
    dram_before: Vec<u64>,
    setup_cycles: u64,
}

#[derive(Debug)]
enum TState {
    Init { next: u64 },
    StartStep { step: usize, loop_i: u32 },
    Running(Box<RunCtx>),
    Check { next: u64 },
    Done,
}

#[derive(Debug)]
struct ThreadRun {
    cpu: usize,
    spec: ThreadSpec,
    dataset: Dataset,
    state: TState,
}

struct Engine<'a> {
    soc: &'a mut Soc,
    policy: &'a mut dyn Policy,
    tracker: StatusTracker,
    queue: EventQueue<usize>,
    threads: Vec<ThreadRun>,
    accel_busy: Vec<bool>,
    waiters: Vec<VecDeque<usize>>,
    records: Vec<InvocationRecord>,
    remaining: usize,
    invocation_counter: u64,
    /// Burst-schedule seed family (tag hash precomputed once per run).
    sched_seeds: TaggedStream,
    options: EngineOptions,
    /// Events processed in the current phase.
    events: u64,
    /// Scratch: busy private caches, rebuilt before each flush.
    busy_scratch: Vec<CacheId>,
    /// Scratch: monitor totals sampled at invocation end.
    totals_scratch: Vec<u64>,
    /// Pool of monitor-sample buffers for in-flight invocations.
    totals_pool: Vec<Vec<u64>>,
    /// Scratch: equal-timestamp event batch drained from the queue.
    batch_scratch: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(soc: &'a mut Soc, policy: &'a mut dyn Policy, seed: u64) -> Engine<'a> {
        let n_accels = soc.accel_infos().len();
        let tracker = StatusTracker::new(soc.config().arch_params());
        Engine {
            soc,
            policy,
            tracker,
            queue: EventQueue::new(),
            threads: Vec::new(),
            accel_busy: vec![false; n_accels],
            waiters: vec![VecDeque::new(); n_accels],
            records: Vec::new(),
            remaining: 0,
            invocation_counter: 0,
            sched_seeds: SeedStream::new(seed).tagged("sched"),
            options: EngineOptions::default(),
            events: 0,
            busy_scratch: Vec::new(),
            totals_scratch: Vec::new(),
            totals_pool: Vec::new(),
            batch_scratch: Vec::new(),
        }
    }

    fn run_phase(&mut self, phase: &PhaseSpec) -> PhaseResult {
        assert!(
            !phase.threads.is_empty(),
            "phase {} has no threads",
            phase.name
        );
        let phase_start = self.queue.now();
        let dram_before: u64 = self.soc.dram_totals().iter().sum();

        let num_cpus = self.soc.config().cpus;
        self.threads.clear();
        self.records.clear();
        for (i, spec) in phase.threads.iter().enumerate() {
            assert!(!spec.chain.is_empty(), "thread {i} has an empty chain");
            assert!(spec.loops >= 1, "thread {i} must loop at least once");
            let dataset = self.soc.alloc(spec.dataset_bytes);
            self.threads.push(ThreadRun {
                cpu: i % num_cpus,
                spec: spec.clone(),
                dataset,
                state: TState::Init { next: 0 },
            });
            self.queue.schedule(phase_start, i);
        }
        self.remaining = self.threads.len();
        self.events = 0;

        // Equal-timestamp batch draining: all events of one simulated cycle
        // come out of the queue in a single pass (FIFO among ties — the
        // order `pop` would produce, pinned by the queue's property test).
        // Follow-ups a handler schedules at the drained cycle land in the
        // next batch, exactly as they would land after the current pops.
        let mut phase_end = phase_start;
        let mut batch = std::mem::take(&mut self.batch_scratch);
        while self.remaining > 0 {
            let t = self
                .queue
                .pop_batch_at(&mut batch)
                .expect("deadlock: threads pending but no events queued");
            for &thread in &batch {
                self.events += 1;
                self.step_thread(thread, t);
            }
            batch.clear();
            phase_end = phase_end.max(self.queue.now());
        }
        self.batch_scratch = batch;

        let dram_after: u64 = self.soc.dram_totals().iter().sum();
        PhaseResult {
            name: phase.name.clone(),
            duration: (phase_end - phase_start).raw(),
            offchip: dram_after - dram_before,
            events: self.events,
            invocations: std::mem::take(&mut self.records),
        }
    }

    /// Advances thread `i` by one event at time `t`.
    fn step_thread(&mut self, i: usize, t: Cycle) {
        let state = std::mem::replace(&mut self.threads[i].state, TState::Done);
        match state {
            TState::Init { next } => self.step_init(i, t, next),
            TState::StartStep { step, loop_i } => self.step_start(i, t, step, loop_i),
            TState::Running(ctx) => self.step_running(i, t, ctx),
            TState::Check { next } => self.step_check(i, t, next),
            TState::Done => {}
        }
    }

    fn step_init(&mut self, i: usize, t: Cycle, next: u64) {
        let (cpu, dataset) = (self.threads[i].cpu, self.threads[i].dataset);
        let chunk = INIT_CHUNK_LINES.min(dataset.lines - next);
        let done = self.soc.cpu_write_lines(cpu, &dataset, next, chunk, t);
        if next + chunk >= dataset.lines {
            self.threads[i].state = TState::StartStep { step: 0, loop_i: 0 };
        } else {
            self.threads[i].state = TState::Init { next: next + chunk };
        }
        self.queue.schedule(done, i);
    }

    fn step_start(&mut self, i: usize, t: Cycle, step: usize, loop_i: u32) {
        let instance = self.threads[i].spec.chain[step];
        let a = instance.0 as usize;
        if self.accel_busy[a] {
            // Wait: the finishing invocation will reschedule us.
            self.waiters[a].push_back(i);
            self.threads[i].state = TState::StartStep { step, loop_i };
            return;
        }
        self.accel_busy[a] = true;

        let cpu = self.threads[i].cpu;
        let dataset = self.threads[i].dataset;
        let info = *self.soc.accel(instance);
        let invoke_start = t;
        let mut dram_before = self.totals_pool.pop().unwrap_or_default();
        self.soc.dram_totals_into(&mut dram_before);

        // Sense + decide. The generation-stamped scratch makes the sense
        // path allocation-free: the active list is only rebuilt when a
        // begin/end changed it since the last snapshot.
        let footprint_bytes = dataset.bytes(self.soc.line_bytes());
        let snapshot = self
            .tracker
            .snapshot_into(footprint_bytes, &[dataset.partition]);
        let decision = self.policy.decide(snapshot, info.available_modes, instance);

        // Actuate: decision overhead + driver + flush + TLB, on the CPU.
        let params = *self.soc.params();
        let decision_cycles = match self.policy.complexity() {
            PolicyComplexity::Simple => params.decision_simple_cycles,
            PolicyComplexity::Heuristic => params.decision_manual_cycles,
            PolicyComplexity::Learned => params.decision_cohmeleon_cycles,
        };
        let footprint = footprint_bytes;
        let t1 = self
            .soc
            .cpu_work(cpu, decision_cycles + params.driver_base_cycles, t);
        Self::collect_busy_caches(
            &self.accel_busy,
            self.soc.accel_infos(),
            &mut self.busy_scratch,
        );
        let (t2, flush_dram) = self
            .soc
            .flush_for_mode(cpu, decision.mode, &self.busy_scratch, t1);
        let t3 = self.soc.cpu_work(cpu, params.tlb_cycles(footprint), t2);

        self.tracker
            .begin(instance, decision.mode, footprint, dataset.partitions());

        let sched_seed = self.sched_seeds.nth(self.invocation_counter).next_u64();
        let profile = &self.soc.config().accels[a].spec.profile;
        let sched = BurstSchedule::generate(profile, dataset.lines, sched_seed).peekable();
        self.invocation_counter += 1;

        self.threads[i].state = TState::Running(Box::new(RunCtx {
            step,
            loop_i,
            instance,
            decision,
            sched,
            invoke_start,
            accel_start: t3,
            comm_busy: 0,
            comm_frontier: t3,
            compute_done: t3,
            last_complete: t3,
            inflight: VecDeque::new(),
            true_dram: flush_dram,
            dram_before,
            setup_cycles: (t3 - invoke_start).raw(),
        }));
        self.queue.schedule(t3, i);
    }

    fn step_running(&mut self, i: usize, t: Cycle, mut ctx: Box<RunCtx>) {
        // Retire bursts whose data has arrived.
        while ctx.inflight.front().is_some_and(|c| *c <= t) {
            ctx.inflight.pop_front();
        }
        if let Some(&op) = ctx.sched.peek() {
            if ctx.inflight.len() >= MAX_INFLIGHT_BURSTS {
                // Request queue full: wait for the oldest burst to retire.
                let until = *ctx.inflight.front().expect("non-empty window");
                self.threads[i].state = TState::Running(ctx);
                self.queue.schedule(until, i);
                return;
            }
            ctx.sched.next();
            let dataset = self.threads[i].dataset;
            let out = self
                .soc
                .accel_burst(ctx.instance, &dataset, &op, ctx.decision.mode, t);
            // Communication time is the union of [issue, complete] windows.
            let window_start = t.max(ctx.comm_frontier);
            if out.complete > window_start {
                ctx.comm_busy += (out.complete - window_start).raw();
                ctx.comm_frontier = out.complete;
            }
            ctx.compute_done = out.complete.max(ctx.compute_done) + Cycle(op.compute_cycles);
            ctx.last_complete = ctx.last_complete.max(out.complete);
            ctx.inflight.push_back(out.complete);
            ctx.true_dram += out.true_dram;
            let next = out.accept.max(t);
            self.threads[i].state = TState::Running(ctx);
            self.queue.schedule(next, i);
        } else {
            let done = ctx.compute_done.max(ctx.last_complete);
            if t < done {
                // All bursts issued; wait for data and datapath to drain.
                self.threads[i].state = TState::Running(ctx);
                self.queue.schedule(done, i);
            } else {
                self.finish_invocation(i, t, *ctx);
            }
        }
    }

    fn finish_invocation(&mut self, i: usize, t: Cycle, mut ctx: RunCtx) {
        let dataset = self.threads[i].dataset;
        let footprint = dataset.bytes(self.soc.line_bytes());

        // Evaluate: monitor deltas + the paper's proportional attribution
        // (or the oracle count, for the attribution ablation).
        let mut dram_after = std::mem::take(&mut self.totals_scratch);
        self.soc.dram_totals_into(&mut dram_after);
        let attributed = match self.options.attribution {
            Attribution::PaperApprox => {
                self.attribute_offchip(&dataset, &ctx.dram_before, &dram_after)
            }
            Attribution::GroundTruth => ctx.true_dram as f64,
        };
        self.totals_scratch = dram_after;
        self.totals_pool.push(std::mem::take(&mut ctx.dram_before));

        let measurement = InvocationMeasurement {
            total_cycles: (t - ctx.invoke_start).raw(),
            accel_active_cycles: (t - ctx.accel_start).raw(),
            accel_comm_cycles: ctx.comm_busy,
            offchip_accesses: attributed,
            footprint_bytes: footprint,
        };
        self.tracker.end(ctx.instance);
        self.policy
            .observe(ctx.instance, &ctx.decision, &measurement);
        self.records.push(InvocationRecord {
            accel: ctx.instance,
            kind: self.soc.accel(ctx.instance).kind,
            mode: ctx.decision.mode,
            state: ctx.decision.state,
            footprint_bytes: footprint,
            measurement,
            true_dram: ctx.true_dram,
            setup_cycles: ctx.setup_cycles,
            start: ctx.invoke_start,
            end: t,
        });

        // Release the accelerator and wake one waiter.
        let a = ctx.instance.0 as usize;
        self.accel_busy[a] = false;
        if let Some(waiter) = self.waiters[a].pop_front() {
            self.queue.schedule(t, waiter);
        }

        // Advance the thread.
        let spec = &self.threads[i].spec;
        let next_state = if ctx.step + 1 < spec.chain.len() {
            TState::StartStep {
                step: ctx.step + 1,
                loop_i: ctx.loop_i,
            }
        } else if ctx.loop_i + 1 < spec.loops {
            TState::StartStep {
                step: 0,
                loop_i: ctx.loop_i + 1,
            }
        } else if spec.check_output {
            TState::Check { next: 0 }
        } else {
            TState::Done
        };
        match next_state {
            TState::Done => self.finish_thread(i),
            other => {
                self.threads[i].state = other;
                self.queue.schedule(t, i);
            }
        }
    }

    fn step_check(&mut self, i: usize, t: Cycle, next: u64) {
        let (cpu, dataset) = (self.threads[i].cpu, self.threads[i].dataset);
        let check_lines =
            (dataset.lines * self.soc.params().check_fraction_per_mille / 1000).max(1);
        if next >= check_lines {
            // The final chunk's read-back completed at `t`: the thread (and
            // therefore the phase) ends now, not at the chunk's issue time.
            self.finish_thread(i);
            return;
        }
        let chunk = INIT_CHUNK_LINES.min(check_lines - next);
        let done = self.soc.cpu_read_lines(cpu, &dataset, next, chunk, t);
        self.threads[i].state = TState::Check { next: next + chunk };
        self.queue.schedule(done, i);
    }

    fn finish_thread(&mut self, i: usize) {
        self.threads[i].state = TState::Done;
        self.remaining -= 1;
    }

    /// Private caches of accelerators currently running (skipped by software
    /// flushes: their contents are live). Rebuilt into a reusable scratch
    /// buffer — no allocation after the first invocation.
    fn collect_busy_caches(accel_busy: &[bool], infos: &[AccelInfo], out: &mut Vec<CacheId>) {
        out.clear();
        out.extend(
            accel_busy
                .iter()
                .enumerate()
                .filter(|(_, busy)| **busy)
                .filter_map(|(a, _)| infos[a].cache),
        );
    }

    /// The paper's attribution: split each controller's observed delta among
    /// the accelerators active at completion time (self included),
    /// proportionally to their footprint on that controller's partition.
    fn attribute_offchip(&mut self, dataset: &Dataset, before: &[u64], after: &[u64]) -> f64 {
        let line_bytes = self.soc.line_bytes();
        // Active set: the tracker still contains self at this point.
        let snapshot = self.tracker.snapshot_into(0, &[dataset.partition]);
        // Which active entry is this invocation (loop-invariant over the
        // memory controllers, so computed once).
        let self_idx = snapshot
            .active
            .iter()
            .position(|acc| {
                acc.footprint_bytes == dataset.bytes(line_bytes)
                    && acc.partitions.contains(&dataset.partition)
            })
            .unwrap_or(usize::MAX);
        let mut total = 0.0;
        for (m, (b, a)) in before.iter().zip(after).enumerate() {
            let delta = a - b;
            if delta == 0 {
                continue;
            }
            let partition = cohmeleon_core::PartitionId(m as u16);
            if dataset.partition != partition {
                continue;
            }
            if self_idx == usize::MAX {
                // Self not found (should not happen): fall back to the
                // whole delta.
                total += delta as f64;
                continue;
            }
            total += cohmeleon_mem::proportional_share(
                delta,
                snapshot
                    .active
                    .iter()
                    .map(|acc| acc.footprint_on(partition)),
                self_idx,
            );
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::motivation_isolation_soc;
    use cohmeleon_core::policy::FixedPolicy;

    fn one_shot_app(bytes: u64, accel: u16) -> AppSpec {
        AppSpec {
            name: "test".into(),
            phases: vec![PhaseSpec {
                name: "phase".into(),
                threads: vec![ThreadSpec {
                    dataset_bytes: bytes,
                    chain: vec![AccelInstanceId(accel)],
                    loops: 1,
                    check_output: false,
                }],
            }],
        }
    }

    fn run(app: &AppSpec, mode: CoherenceMode) -> AppResult {
        let mut soc = Soc::new(motivation_isolation_soc());
        let mut policy = FixedPolicy::new(mode);
        run_app(&mut soc, app, &mut policy, 7)
    }

    #[test]
    fn single_invocation_produces_one_record() {
        let res = run(&one_shot_app(16 * 1024, 0), CoherenceMode::NonCohDma);
        assert_eq!(res.phases.len(), 1);
        let phase = &res.phases[0];
        assert_eq!(phase.invocations.len(), 1);
        let rec = &phase.invocations[0];
        assert_eq!(rec.mode, CoherenceMode::NonCohDma);
        assert_eq!(rec.footprint_bytes, 16 * 1024);
        assert!(rec.measurement.total_cycles > 0);
        assert!(rec.end > rec.start);
        assert!(phase.duration > 0);
    }

    #[test]
    fn chains_run_all_steps_in_order() {
        let app = AppSpec {
            name: "chain".into(),
            phases: vec![PhaseSpec {
                name: "p".into(),
                threads: vec![ThreadSpec {
                    dataset_bytes: 8 * 1024,
                    chain: vec![AccelInstanceId(0), AccelInstanceId(1), AccelInstanceId(2)],
                    loops: 2,
                    check_output: true,
                }],
            }],
        };
        let res = run(&app, CoherenceMode::CohDma);
        let invs = &res.phases[0].invocations;
        assert_eq!(invs.len(), 6); // 3 steps × 2 loops
        let order: Vec<u16> = invs.iter().map(|r| r.accel.0).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        // Serial execution: each invocation starts after the previous ends.
        for w in invs.windows(2) {
            assert!(w[1].start >= w[0].end);
        }
    }

    #[test]
    fn parallel_threads_overlap_in_time() {
        let app = AppSpec {
            name: "par".into(),
            phases: vec![PhaseSpec {
                name: "p".into(),
                threads: (0..4)
                    .map(|i| ThreadSpec {
                        dataset_bytes: 64 * 1024,
                        chain: vec![AccelInstanceId(i)],
                        loops: 1,
                        check_output: false,
                    })
                    .collect(),
            }],
        };
        let res = run(&app, CoherenceMode::NonCohDma);
        let invs = &res.phases[0].invocations;
        assert_eq!(invs.len(), 4);
        let overlap = invs.iter().any(|a| {
            invs.iter()
                .any(|b| a.accel != b.accel && a.start < b.end && b.start < a.end)
        });
        assert!(overlap, "distinct accelerators should run concurrently");
    }

    #[test]
    fn shared_accelerator_serializes_via_waiters() {
        let app = AppSpec {
            name: "shared".into(),
            phases: vec![PhaseSpec {
                name: "p".into(),
                threads: (0..3)
                    .map(|_| ThreadSpec {
                        dataset_bytes: 16 * 1024,
                        chain: vec![AccelInstanceId(5)],
                        loops: 1,
                        check_output: false,
                    })
                    .collect(),
            }],
        };
        let res = run(&app, CoherenceMode::LlcCohDma);
        let invs = &res.phases[0].invocations;
        assert_eq!(invs.len(), 3);
        for w in invs.windows(2) {
            assert!(
                w[1].accel_start_window_ok(w[0].end),
                "same instance must not overlap: {:?} vs {:?}",
                w[0].end,
                w[1].start
            );
        }
    }

    impl InvocationRecord {
        fn accel_start_window_ok(&self, prev_end: Cycle) -> bool {
            self.start >= prev_end || self.end <= prev_end
        }
    }

    #[test]
    fn offchip_attribution_in_isolation_equals_delta() {
        let res = run(&one_shot_app(256 * 1024, 0), CoherenceMode::NonCohDma);
        let rec = &res.phases[0].invocations[0];
        // Alone in the system, the accelerator is attributed (almost) the
        // whole delta; the delta also includes the flush and init traffic
        // before the accelerator started, so attribution ≥ true burst DRAM.
        assert!(rec.measurement.offchip_accesses > 0.0);
        assert!(rec.true_dram > 0);
    }

    #[test]
    fn measurement_totals_include_setup() {
        let res = run(&one_shot_app(16 * 1024, 0), CoherenceMode::NonCohDma);
        let rec = &res.phases[0].invocations[0];
        assert!(rec.setup_cycles > 0);
        assert!(rec.measurement.total_cycles >= rec.measurement.accel_active_cycles);
        assert!(rec.measurement.accel_active_cycles >= rec.measurement.accel_comm_cycles);
    }

    #[test]
    fn flushing_modes_have_larger_setup() {
        let flush = run(&one_shot_app(64 * 1024, 0), CoherenceMode::NonCohDma);
        let noflush = run(&one_shot_app(64 * 1024, 0), CoherenceMode::CohDma);
        let s_flush = flush.phases[0].invocations[0].setup_cycles;
        let s_noflush = noflush.phases[0].invocations[0].setup_cycles;
        assert!(
            s_flush > s_noflush,
            "non-coh setup {s_flush} should exceed coh-dma setup {s_noflush}"
        );
    }

    #[test]
    fn phases_execute_sequentially_on_one_timeline() {
        let app = AppSpec {
            name: "two-phase".into(),
            phases: vec![
                PhaseSpec {
                    name: "a".into(),
                    threads: vec![ThreadSpec {
                        dataset_bytes: 8 * 1024,
                        chain: vec![AccelInstanceId(0)],
                        loops: 1,
                        check_output: false,
                    }],
                },
                PhaseSpec {
                    name: "b".into(),
                    threads: vec![ThreadSpec {
                        dataset_bytes: 8 * 1024,
                        chain: vec![AccelInstanceId(1)],
                        loops: 1,
                        check_output: false,
                    }],
                },
            ],
        };
        let res = run(&app, CoherenceMode::CohDma);
        assert_eq!(res.phases.len(), 2);
        let a_end = res.phases[0].invocations[0].end;
        let b_start = res.phases[1].invocations[0].start;
        assert!(b_start >= a_end);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let app = one_shot_app(32 * 1024, 3);
        let a = run(&app, CoherenceMode::LlcCohDma);
        let b = run(&app, CoherenceMode::LlcCohDma);
        assert_eq!(a, b);
    }

    #[test]
    fn coherence_invariants_hold_after_app() {
        let mut soc = Soc::new(motivation_isolation_soc());
        let mut policy = FixedPolicy::new(CoherenceMode::FullCoh);
        let app = AppSpec {
            name: "mix".into(),
            phases: vec![PhaseSpec {
                name: "p".into(),
                threads: (0..4)
                    .map(|i| ThreadSpec {
                        dataset_bytes: 48 * 1024,
                        chain: vec![AccelInstanceId(i), AccelInstanceId(i + 4)],
                        loops: 2,
                        check_output: true,
                    })
                    .collect(),
            }],
        };
        run_app(&mut soc, &app, &mut policy, 11);
        soc.caches().validate_coherence().unwrap();
    }
}
