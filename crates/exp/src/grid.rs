//! The typed sweep grid: scenarios × policies × seeds.
//!
//! An [`Experiment`] builder composes [`SocConfig`]s with train/test
//! [`AppSpec`] pairs ([`Scenario`]s), a set of policies ([`PolicySpec`] —
//! the paper's [`PolicyKind`] suite or custom builders), a seed range and a
//! train-iteration count into a validated [`SweepGrid`]. Each grid *cell*
//! is one `(scenario, policy, seed)` tuple; running a cell instantiates a
//! fresh policy and a fresh SoC per application run, so cells are fully
//! independent and an [`Executor`] may run them in any
//! order — including in parallel — without changing any result bit.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cohmeleon_core::Policy;
use cohmeleon_soc::{AppSpec, EngineOptions, SocConfig};
use cohmeleon_workloads::runner::{
    evaluate_policy_with_options, run_protocol_with_options, summarize, PolicyOutcome,
};

use crate::executor::Executor;
use crate::learner::LearnerSpec;
use crate::policies::{build_policy, PolicyKind};
use crate::sink::{CollectSink, ResultSink};

/// How each grid cell turns a scenario + policy + seed into an
/// [`AppResult`](cohmeleon_soc::AppResult).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// The paper's evaluation protocol: train learning policies for the
    /// grid's `train_iterations` on the scenario's train app (fresh SoC per
    /// iteration), freeze, then evaluate on the test app — exactly
    /// [`run_protocol_with_options`].
    #[default]
    TrainTest,
    /// No training: run the test app once on a fresh SoC with the cell's
    /// seed — exactly [`evaluate_policy_with_options`]. Used by the
    /// motivation figures and characterisation sweeps where policies are
    /// fixed and training would be a no-op with a perturbed seed.
    EvaluateOnly,
}

/// One experiment scenario: a SoC configuration paired with the train/test
/// application instances to run on it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Display label (defaults to the config name).
    pub label: String,
    /// The SoC to elaborate for every run of this scenario.
    pub config: SocConfig,
    /// Training application (ignored under [`Protocol::EvaluateOnly`]).
    pub train: AppSpec,
    /// Test application.
    pub test: AppSpec,
    /// Added (wrapping) to every grid seed for this scenario's cells, so a
    /// scenario list can give each SoC its own seed stream from one grid
    /// seed (as the paper's Figure 9 does).
    pub seed_offset: u64,
}

impl Scenario {
    /// A scenario labelled after its config, with no seed offset.
    pub fn new(config: SocConfig, train: AppSpec, test: AppSpec) -> Scenario {
        Scenario {
            label: config.name.clone(),
            config,
            train,
            test,
            seed_offset: 0,
        }
    }

    /// An evaluation-only scenario: the test app doubles as the (unused)
    /// train app.
    pub fn evaluate(config: SocConfig, test: AppSpec) -> Scenario {
        let train = test.clone();
        Scenario::new(config, train, test)
    }

    /// Overrides the display label.
    pub fn label(mut self, label: impl Into<String>) -> Scenario {
        self.label = label.into();
        self
    }

    /// Sets the per-scenario seed offset.
    pub fn seed_offset(mut self, offset: u64) -> Scenario {
        self.seed_offset = offset;
        self
    }
}

type PolicyBuilder = dyn Fn(&SocConfig, usize, u64) -> Box<dyn Policy> + Send + Sync;

/// One policy axis entry: either a paper [`PolicyKind`] or a custom
/// builder (reward-weight variants, restricted/ablated policies, user
/// policies), optionally with its own [`EngineOptions`] override.
#[derive(Clone)]
pub struct PolicySpec {
    label: String,
    kind: Option<PolicyKind>,
    build: Arc<PolicyBuilder>,
    options: Option<EngineOptions>,
}

impl PolicySpec {
    /// A paper-suite policy, built by
    /// [`build_policy`] with the cell's config, train iterations and seed.
    pub fn kind(kind: PolicyKind) -> PolicySpec {
        PolicySpec {
            label: kind.label().to_owned(),
            kind: Some(kind),
            build: Arc::new(move |config, iters, seed| build_policy(kind, config, iters, seed)),
            options: None,
        }
    }

    /// A learning agent configured by a [`LearnerSpec`] — one cell of the
    /// state-space × exploration × update design space. The paper
    /// composition ([`LearnerSpec::paper`]) is labelled `"cohmeleon"` and
    /// reported as [`PolicyKind::Cohmeleon`]; every other spec gets its
    /// own `ql[...]` label, so whole learner sweeps fit on one policy
    /// axis.
    pub fn learner(spec: LearnerSpec) -> PolicySpec {
        PolicySpec {
            label: spec.label(),
            kind: (spec == LearnerSpec::paper()).then_some(PolicyKind::Cohmeleon),
            build: Arc::new(move |_config, iters, seed| spec.build(iters, seed)),
            options: None,
        }
    }

    /// A custom policy. `build` receives the cell's `(config,
    /// train_iterations, seed)` and must return a fresh policy every call
    /// (cells never share policy state).
    pub fn custom(
        label: impl Into<String>,
        build: impl Fn(&SocConfig, usize, u64) -> Box<dyn Policy> + Send + Sync + 'static,
    ) -> PolicySpec {
        PolicySpec {
            label: label.into(),
            kind: None,
            build: Arc::new(build),
            options: None,
        }
    }

    /// Overrides the grid-level [`EngineOptions`] for this policy's cells
    /// (e.g. the oracle-attribution ablation arm).
    pub fn with_options(mut self, options: EngineOptions) -> PolicySpec {
        self.options = Some(options);
        self
    }

    /// The display label (for kinds, the paper legend name).
    pub fn policy_label(&self) -> &str {
        &self.label
    }

    /// The [`PolicyKind`] behind this spec, if it is a paper-suite policy.
    pub fn as_kind(&self) -> Option<PolicyKind> {
        self.kind
    }

    /// Instantiates the policy for one cell.
    pub fn instantiate(
        &self,
        config: &SocConfig,
        train_iterations: usize,
        seed: u64,
    ) -> Box<dyn Policy> {
        (self.build)(config, train_iterations, seed)
    }
}

impl fmt::Debug for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicySpec")
            .field("label", &self.label)
            .field("kind", &self.kind)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// Why an [`Experiment`] failed to build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// No scenario was added.
    NoScenarios,
    /// No policy was added.
    NoPolicies,
    /// No seed was added.
    NoSeeds,
    /// Two policy entries share a label (results would be ambiguous).
    DuplicatePolicyLabel(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::NoScenarios => write!(f, "experiment has no scenarios"),
            ExperimentError::NoPolicies => write!(f, "experiment has no policies"),
            ExperimentError::NoSeeds => write!(f, "experiment has no seeds"),
            ExperimentError::DuplicatePolicyLabel(l) => {
                write!(f, "duplicate policy label `{l}`")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Builder for a [`SweepGrid`].
///
/// ```
/// use cohmeleon_exp::{Experiment, PolicyKind, Serial};
/// use cohmeleon_soc::config::soc1;
/// use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
///
/// let config = soc1();
/// let train = generate_app(&config, &GeneratorParams::quick(), 1);
/// let test = generate_app(&config, &GeneratorParams::quick(), 2);
/// let grid = Experiment::train_test(config, train, test)
///     .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
///     .seed(7)
///     .train_iterations(1)
///     .build()
///     .unwrap();
/// assert_eq!(grid.num_cells(), 2);
/// let results = grid.collect(&Serial);
/// assert!(results.cell(0, 1, 0).result.total_duration() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Experiment {
    scenarios: Vec<Scenario>,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
    train_iterations: usize,
    protocol: Protocol,
    options: EngineOptions,
    resume_from: Option<PathBuf>,
}

impl Experiment {
    /// An empty experiment (add scenarios, policies and seeds).
    pub fn new() -> Experiment {
        Experiment::default()
    }

    /// A single-scenario train/test experiment — the common case of the
    /// paper's per-SoC figures.
    pub fn train_test(config: SocConfig, train: AppSpec, test: AppSpec) -> Experiment {
        Experiment::new().scenario(Scenario::new(config, train, test))
    }

    /// A single-scenario evaluation-only experiment (no training):
    /// [`Protocol::EvaluateOnly`] over `test`.
    pub fn evaluate(config: SocConfig, test: AppSpec) -> Experiment {
        Experiment::new()
            .protocol(Protocol::EvaluateOnly)
            .scenario(Scenario::evaluate(config, test))
    }

    /// Adds one scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Experiment {
        self.scenarios.push(scenario);
        self
    }

    /// Adds many scenarios.
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Experiment {
        self.scenarios.extend(scenarios);
        self
    }

    /// Adds one policy.
    pub fn policy(mut self, policy: PolicySpec) -> Experiment {
        self.policies.push(policy);
        self
    }

    /// Adds many policies.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicySpec>) -> Experiment {
        self.policies.extend(policies);
        self
    }

    /// Adds paper-suite policies by kind, in order.
    pub fn policy_kinds(self, kinds: impl IntoIterator<Item = PolicyKind>) -> Experiment {
        self.policies(kinds.into_iter().map(PolicySpec::kind))
    }

    /// Adds configured learning agents by [`LearnerSpec`], in order — the
    /// learner-ablation axis.
    pub fn learners(self, specs: impl IntoIterator<Item = LearnerSpec>) -> Experiment {
        self.policies(specs.into_iter().map(PolicySpec::learner))
    }

    /// Adds one seed.
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.seeds.push(seed);
        self
    }

    /// Adds many seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Experiment {
        self.seeds.extend(seeds);
        self
    }

    /// Sets the train-iteration count (default 0; only learning policies
    /// train, per [`run_protocol_with_options`]).
    pub fn train_iterations(mut self, iterations: usize) -> Experiment {
        self.train_iterations = iterations;
        self
    }

    /// Sets the cell protocol (default [`Protocol::TrainTest`]).
    pub fn protocol(mut self, protocol: Protocol) -> Experiment {
        self.protocol = protocol;
        self
    }

    /// Sets the grid-level [`EngineOptions`] (default attribution etc.);
    /// individual [`PolicySpec`]s may override.
    pub fn engine_options(mut self, options: EngineOptions) -> Experiment {
        self.options = options;
        self
    }

    /// Makes the sweep resumable: cells recorded in the JSONL checkpoint
    /// at `path` are skipped and only missing cells run, each appended to
    /// the checkpoint as it completes (see
    /// [`SweepGrid::run_resumable`](crate::SweepGrid::run_resumable) for
    /// the durability and bit-identity guarantees).
    ///
    /// ```
    /// use cohmeleon_exp::{Experiment, PolicyKind, Serial};
    /// use cohmeleon_soc::config::soc1;
    /// use cohmeleon_workloads::generator::{generate_app, GeneratorParams};
    ///
    /// let dir = std::env::temp_dir()
    ///     .join(format!("cohmeleon-resume-doctest-{}", std::process::id()));
    /// std::fs::create_dir_all(&dir).unwrap();
    /// let path = dir.join("run.jsonl");
    /// let _ = std::fs::remove_file(&path);
    ///
    /// let config = soc1();
    /// let params = GeneratorParams { phases: 1, ..GeneratorParams::quick() };
    /// let app = generate_app(&config, &params, 1);
    /// let grid = Experiment::evaluate(config, app)
    ///     .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
    ///     .seed(7)
    ///     .resume_from(&path)
    ///     .build()
    ///     .unwrap();
    ///
    /// // The first run simulates both cells and checkpoints them.
    /// let first = grid.run_resumable(grid.resume_path().unwrap(), &Serial).unwrap();
    /// assert_eq!((first.reused, first.ran), (0, 2));
    ///
    /// // A re-run finds every cell on disk and simulates nothing.
    /// let again = grid.run_resumable(grid.resume_path().unwrap(), &Serial).unwrap();
    /// assert_eq!((again.reused, again.ran), (2, 0));
    /// assert_eq!(again.records, first.records);
    /// # std::fs::remove_file(&path).unwrap();
    /// ```
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Experiment {
        self.resume_from = Some(path.into());
        self
    }

    /// Validates the axes and produces the grid.
    pub fn build(self) -> Result<SweepGrid, ExperimentError> {
        if self.scenarios.is_empty() {
            return Err(ExperimentError::NoScenarios);
        }
        if self.policies.is_empty() {
            return Err(ExperimentError::NoPolicies);
        }
        if self.seeds.is_empty() {
            return Err(ExperimentError::NoSeeds);
        }
        let mut labels: Vec<&str> = self.policies.iter().map(|p| p.policy_label()).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(ExperimentError::DuplicatePolicyLabel(w[0].to_owned()));
        }
        Ok(SweepGrid {
            scenarios: self.scenarios,
            policies: self.policies,
            seeds: self.seeds,
            train_iterations: self.train_iterations,
            protocol: self.protocol,
            options: self.options,
            resume_from: self.resume_from,
        })
    }
}

/// Coordinates of one grid cell: indices into the grid's scenario, policy
/// and seed axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId {
    /// Index into [`SweepGrid::scenarios`].
    pub scenario: usize,
    /// Index into [`SweepGrid::policies`].
    pub policy: usize,
    /// Index into [`SweepGrid::seeds`].
    pub seed: usize,
}

/// The completed outcome of one grid cell, streamed to the
/// [`ResultSink`] as soon as the cell finishes.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Which cell this is.
    pub cell: CellId,
    /// The scenario's display label.
    pub scenario: String,
    /// The policy's display label.
    pub policy: String,
    /// The [`PolicyKind`] if the cell ran a paper-suite policy.
    pub kind: Option<PolicyKind>,
    /// The effective seed (grid seed + scenario offset).
    pub seed: u64,
    /// The raw application result.
    pub result: cohmeleon_soc::AppResult,
}

/// A validated sweep grid, ready to execute.
///
/// Results are **bit-identical across executors**: every cell builds a
/// fresh policy and fresh SoCs from its own `(scenario, policy, seed)`
/// coordinates, so scheduling cannot leak into results. The grid
/// determinism test in `crates/exp/tests/` pins this with per-cell
/// [`structural_hash`](cohmeleon_soc::AppResult::structural_hash)
/// comparisons.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    scenarios: Vec<Scenario>,
    policies: Vec<PolicySpec>,
    seeds: Vec<u64>,
    train_iterations: usize,
    protocol: Protocol,
    options: EngineOptions,
    resume_from: Option<PathBuf>,
}

impl SweepGrid {
    /// The scenario axis.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The policy axis.
    pub fn policies(&self) -> &[PolicySpec] {
        &self.policies
    }

    /// The seed axis.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Train iterations per learning-policy cell.
    pub fn train_iterations(&self) -> usize {
        self.train_iterations
    }

    /// The cell protocol.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The checkpoint path set by
    /// [`Experiment::resume_from`], if any.
    pub fn resume_path(&self) -> Option<&Path> {
        self.resume_from.as_deref()
    }

    /// Total number of cells (scenarios × policies × seeds).
    pub fn num_cells(&self) -> usize {
        self.scenarios.len() * self.policies.len() * self.seeds.len()
    }

    /// The dense index of `cell` in scenario-major, then policy, then seed
    /// order.
    pub fn cell_index(&self, cell: CellId) -> usize {
        (cell.scenario * self.policies.len() + cell.policy) * self.seeds.len() + cell.seed
    }

    /// The inverse of [`cell_index`](Self::cell_index).
    pub fn cell_at(&self, index: usize) -> CellId {
        let seeds = self.seeds.len();
        let policies = self.policies.len();
        CellId {
            scenario: index / (policies * seeds),
            policy: (index / seeds) % policies,
            seed: index % seeds,
        }
    }

    /// All cells in dense-index order.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.num_cells()).map(|i| self.cell_at(i))
    }

    /// The effective seed of a cell: the grid seed plus the scenario's
    /// offset (wrapping).
    pub fn cell_seed(&self, cell: CellId) -> u64 {
        self.seeds[cell.seed].wrapping_add(self.scenarios[cell.scenario].seed_offset)
    }

    /// Runs one cell to completion on the calling thread.
    pub fn run_cell(&self, cell: CellId) -> CellResult {
        self.run_cell_with_policy(cell).0
    }

    /// Runs one cell and additionally hands back the policy instance it
    /// ran — by then trained and frozen, ready for table export.
    fn run_cell_with_policy(&self, cell: CellId) -> (CellResult, Box<dyn Policy>) {
        let scenario = &self.scenarios[cell.scenario];
        let spec = &self.policies[cell.policy];
        let seed = self.cell_seed(cell);
        let options = spec.options.unwrap_or(self.options);
        let mut policy = spec.instantiate(&scenario.config, self.train_iterations, seed);
        let result = match self.protocol {
            Protocol::TrainTest => run_protocol_with_options(
                &scenario.config,
                &scenario.train,
                &scenario.test,
                policy.as_mut(),
                self.train_iterations,
                seed,
                options,
            ),
            Protocol::EvaluateOnly => evaluate_policy_with_options(
                &scenario.config,
                &scenario.test,
                policy.as_mut(),
                seed,
                options,
            ),
        };
        let result = CellResult {
            cell,
            scenario: scenario.label.clone(),
            policy: spec.policy_label().to_owned(),
            kind: spec.as_kind(),
            seed,
            result,
        };
        (result, policy)
    }

    /// Runs one cell and exports the trained policy's learned tables —
    /// the snapshot-production path behind `sweep freeze` and the serving
    /// runtime. `None` if the cell's policy has no learned state to
    /// export (fixed/manual baselines).
    pub fn freeze_cell(&self, cell: CellId) -> (CellResult, Option<String>) {
        let (result, policy) = self.run_cell_with_policy(cell);
        let tables = policy.export_table();
        (result, tables)
    }

    /// Executes every cell under `executor`, streaming each [`CellResult`]
    /// to `sink` exactly once, in completion order, on the calling thread.
    pub fn execute<E: Executor + ?Sized>(&self, executor: &E, sink: &mut dyn ResultSink) {
        executor.run(
            self.num_cells(),
            &|i| self.run_cell(self.cell_at(i)),
            &mut |_, result| sink.on_cell(result),
        );
        sink.on_grid_complete(self);
    }

    /// Runs every cell under `executor` and collects one persistable
    /// [`CellRecord`](crate::CellRecord) per cell, in canonical dense
    /// order regardless of the executor's completion order — the
    /// in-memory equivalent of streaming through a
    /// [`JsonlSink`](crate::JsonlSink) and reading the file back.
    pub fn collect_records<E: Executor + ?Sized>(
        &self,
        executor: &E,
    ) -> Vec<crate::sink::CellRecord> {
        let mut records = Vec::with_capacity(self.num_cells());
        self.execute(executor, &mut |result: CellResult| {
            records.push(crate::sink::CellRecord::from_cell(&result));
        });
        crate::checkpoint::sort_canonical(&mut records);
        records
    }

    /// Executes only the cells at the given dense `indices` (each exactly
    /// once), streaming each result to `sink` — the primitive behind
    /// resumed runs, which skip what a checkpoint holds.
    pub fn execute_subset<E: Executor + ?Sized>(
        &self,
        indices: &[usize],
        executor: &E,
        sink: &mut dyn ResultSink,
    ) {
        executor.run(
            indices.len(),
            &|i| self.run_cell(self.cell_at(indices[i])),
            &mut |_, result| sink.on_cell(result),
        );
        sink.on_grid_complete(self);
    }

    /// Executes every cell and collects the results in dense grid order.
    ///
    /// # Panics
    ///
    /// Panics if `executor` violates the [`Executor`] contract by
    /// delivering a cell twice, skipping one, or inventing one — the
    /// built-in executors never do, but the trait is an extension seam.
    pub fn collect<E: Executor + ?Sized>(&self, executor: &E) -> GridResults {
        let expected = self.num_cells();
        let mut sink = CollectSink::with_capacity(expected);
        self.execute(executor, &mut sink);
        assert_eq!(
            sink.cells().len(),
            expected,
            "executor delivered {} of {expected} cells",
            sink.cells().len()
        );
        GridResults {
            policies: self.policies.len(),
            seeds: self.seeds.len(),
            cells: sink
                .into_cells(|r| self.cell_index(r.cell))
                .expect("executor delivered every cell exactly once"),
        }
    }
}

/// All cell results of one grid run, indexable by cell coordinates.
#[derive(Debug, Clone)]
pub struct GridResults {
    policies: usize,
    seeds: usize,
    cells: Vec<CellResult>,
}

impl GridResults {
    /// The result of cell `(scenario, policy, seed)`.
    pub fn cell(&self, scenario: usize, policy: usize, seed: usize) -> &CellResult {
        &self.cells[(scenario * self.policies + policy) * self.seeds + seed]
    }

    /// All results in dense grid order.
    pub fn iter(&self) -> impl Iterator<Item = &CellResult> {
        self.cells.iter()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Normalizes every cell against the cell of policy index
    /// `baseline_policy` with the same scenario and seed — the paper's
    /// convention of reporting per-phase ratios against fixed
    /// non-coherent DMA. Outcomes come back in dense grid order.
    ///
    /// Keeps `self` intact (each outcome clones its cell's result); use
    /// [`into_outcomes_against`](Self::into_outcomes_against) when the
    /// results are not needed afterwards.
    pub fn outcomes_against(&self, baseline_policy: usize) -> Vec<(CellId, PolicyOutcome)> {
        self.cells
            .iter()
            .map(|r| {
                let base = self.cell(r.cell.scenario, baseline_policy, r.cell.seed);
                (r.cell, summarize(r.result.clone(), &base.result))
            })
            .collect()
    }

    /// Consuming [`outcomes_against`](Self::outcomes_against): moves each
    /// cell's result into its outcome instead of cloning it — only the
    /// per-(scenario, seed) baseline results are cloned, so large grids
    /// pay one clone per normalization group rather than one per cell.
    pub fn into_outcomes_against(self, baseline_policy: usize) -> Vec<(CellId, PolicyOutcome)> {
        let seeds = self.seeds;
        let scenarios = if self.cells.is_empty() {
            0
        } else {
            self.cells.len() / (self.policies * seeds)
        };
        let mut baselines = Vec::with_capacity(scenarios * seeds);
        for scenario in 0..scenarios {
            for seed in 0..seeds {
                baselines.push(self.cell(scenario, baseline_policy, seed).result.clone());
            }
        }
        self.cells
            .into_iter()
            .map(|r| {
                let base = &baselines[r.cell.scenario * seeds + r.cell.seed];
                (r.cell, summarize(r.result, base))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Serial;
    use cohmeleon_soc::config::soc1;
    use cohmeleon_workloads::generator::{generate_app, GeneratorParams};

    fn quick_experiment() -> Experiment {
        let config = soc1();
        let train = generate_app(&config, &GeneratorParams::quick(), 1);
        let test = generate_app(&config, &GeneratorParams::quick(), 2);
        Experiment::train_test(config, train, test)
    }

    #[test]
    fn build_rejects_missing_axes() {
        assert_eq!(
            Experiment::new().build().unwrap_err(),
            ExperimentError::NoScenarios
        );
        assert_eq!(
            quick_experiment().build().unwrap_err(),
            ExperimentError::NoPolicies
        );
        assert_eq!(
            quick_experiment()
                .policy_kinds([PolicyKind::Manual])
                .build()
                .unwrap_err(),
            ExperimentError::NoSeeds
        );
    }

    #[test]
    fn build_rejects_duplicate_policy_labels() {
        let err = quick_experiment()
            .policy_kinds([PolicyKind::Manual, PolicyKind::Manual])
            .seed(1)
            .build()
            .unwrap_err();
        assert_eq!(err, ExperimentError::DuplicatePolicyLabel("manual".into()));
    }

    #[test]
    fn cell_indexing_roundtrips() {
        let grid = quick_experiment()
            .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
            .seeds([1, 2, 3])
            .build()
            .unwrap();
        assert_eq!(grid.num_cells(), 6);
        for (i, cell) in grid.cells().enumerate() {
            assert_eq!(grid.cell_index(cell), i);
            assert_eq!(grid.cell_at(i), cell);
        }
    }

    #[test]
    fn seed_offsets_shift_cell_seeds() {
        let config = soc1();
        let app = generate_app(&config, &GeneratorParams::quick(), 1);
        let grid = Experiment::new()
            .scenario(Scenario::evaluate(config.clone(), app.clone()))
            .scenario(
                Scenario::evaluate(config, app)
                    .label("offset")
                    .seed_offset(10),
            )
            .protocol(Protocol::EvaluateOnly)
            .policy_kinds([PolicyKind::FixedNonCoh])
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(grid.cell_seed(CellId { scenario: 0, policy: 0, seed: 0 }), 7);
        assert_eq!(grid.cell_seed(CellId { scenario: 1, policy: 0, seed: 0 }), 17);
    }

    #[test]
    fn outcomes_normalize_against_baseline_policy() {
        let grid = quick_experiment()
            .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::FixedCohDma])
            .seed(4)
            .train_iterations(1)
            .build()
            .unwrap();
        let results = grid.collect(&Serial);
        let outcomes = results.outcomes_against(0);
        assert_eq!(outcomes.len(), 2);
        // The baseline normalizes to 1 against itself.
        assert!((outcomes[0].1.geo_time - 1.0).abs() < 1e-9);
        assert!(outcomes[1].1.geo_time > 0.0);
    }

    #[test]
    fn consuming_outcomes_match_borrowing_outcomes() {
        let grid = quick_experiment()
            .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::Manual])
            .seeds([4, 5])
            .build()
            .unwrap();
        let results = grid.collect(&Serial);
        let borrowed = results.outcomes_against(0);
        let consumed = results.into_outcomes_against(0);
        assert_eq!(borrowed.len(), consumed.len());
        for ((ca, a), (cb, b)) in borrowed.iter().zip(&consumed) {
            assert_eq!(ca, cb);
            assert_eq!(a.geo_time, b.geo_time);
            assert_eq!(a.geo_mem, b.geo_mem);
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    #[should_panic(expected = "delivered 1 of 2 cells")]
    fn collect_rejects_under_delivering_executors() {
        /// A broken executor that silently drops the last task.
        struct Truncating;
        impl crate::Executor for Truncating {
            fn run<T: Send>(
                &self,
                tasks: usize,
                task: &(dyn Fn(usize) -> T + Sync),
                deliver: &mut dyn FnMut(usize, T),
            ) {
                for i in 0..tasks.saturating_sub(1) {
                    deliver(i, task(i));
                }
            }
        }
        let grid = quick_experiment()
            .policy_kinds([PolicyKind::FixedNonCoh, PolicyKind::FixedCohDma])
            .seed(4)
            .build()
            .unwrap();
        grid.collect(&Truncating);
    }

    #[test]
    fn custom_policies_and_options_override() {
        use cohmeleon_core::policy::FixedPolicy;
        use cohmeleon_core::CoherenceMode;
        use cohmeleon_soc::Attribution;

        let grid = quick_experiment()
            .policy(PolicySpec::custom("always-coh", |_, _, _| {
                Box::new(FixedPolicy::new(CoherenceMode::CohDma))
            }))
            .policy(
                PolicySpec::custom("always-coh-oracle", |_, _, _| {
                    Box::new(FixedPolicy::new(CoherenceMode::CohDma))
                })
                .with_options(EngineOptions {
                    attribution: Attribution::GroundTruth,
                }),
            )
            .seed(4)
            .build()
            .unwrap();
        let results = grid.collect(&Serial);
        // Same policy, same seed: the modeled outcome is identical; only
        // the attribution the policy *observes* differs.
        assert_eq!(
            results.cell(0, 0, 0).result.structural_hash(),
            results.cell(0, 1, 0).result.structural_hash()
        );
        assert_eq!(results.cell(0, 0, 0).policy, "always-coh");
        assert!(results.cell(0, 0, 0).kind.is_none());
    }
}
