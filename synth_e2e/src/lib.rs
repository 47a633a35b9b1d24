//! `synth_e2e`: whole syntheses through `Synthesizer::synthesize_cached`,
//! one attempt after another, with a traced per-layer breakdown.
//!
//! A run trains the fitness models and generates the task suite of the
//! experiment harness (the set-up), then makes whole passes over the suite;
//! the workload seed seeds every attempt's RNG. Every pass re-runs the
//! identical attempts from fresh caches, so every pass must return
//! identical outcomes; the exact-count gate checks that, and checks every
//! returned program against its task's IO examples.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod trace;

use netsyn_baselines::{SynthesisProblem, Synthesizer};
use netsyn_core::{
    BundleTrainingConfig, FitnessChoice, ModelBundle, NetSyn, NetSynConfig, SuiteConfig, TestSuite,
};
use netsyn_dsl::{DomainId, Program, ProgramKind, SynthesisTask};
use netsyn_fitness::{EditDistanceFitness, FitnessCache, FitnessFunction, LearnedFitness};
use netsyn_ga::{MutationMode, SearchBudget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{covered, TracedNetSyn, Tracer};

/// Program length of every task.
pub const PROGRAM_LENGTH: usize = 5;
/// Candidate cap of every attempt.
pub const BUDGET_CAP: usize = 30_000;
/// Repetitions of every task; the repetitions of a task share its cache.
pub const RUNS_PER_TASK: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPEATS: usize = 3;
/// The experiment harness's default seed, from which the suite and the
/// models are made.
pub const HARNESS_SEED: u64 = 2021;
/// Tasks per output kind in the generated suite, or the workload's own
/// `Workload::tasks_per_kind` where that is larger; each workload runs the
/// first `Workload::tasks_per_kind` tasks of each kind.
pub const SUITE_TASKS_PER_KIND: usize = 15;

/// The end-to-end metrics the JSON result carries with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "candidates_per_s",
    "synth_s_p50",
    "synth_s_tail",
    "setup_s",
    "peak_rss_mb",
];

/// The per-layer metrics the JSON result carries with `--trace 1`: layer
/// times as shares of the attempt time, so that a layer a workload does not
/// run reads 0 without a time that never changes.
pub const PER_LAYER: &[&str] = &[
    "core.train_s",
    "core.suite_s",
    "core.synthesize_s",
    "core.cpu_per_wall",
    "core.solved_frac",
    "core.candidates_per_synth",
    "fitness.score_share",
    "fitness.score_calls",
    "fitness.scored",
    "fitness.memo_hit_ratio",
    "fitness.encode_share",
    "fitness.probability_map_share",
    "fitness.trace_encodes",
    "fitness.trace_entries",
    "fitness.score_entries",
    "nn.net_share",
    "dsl.check_share",
    "ga.self_s",
    "ga.self_share",
    "ga.self_ns_per_candidate",
    "ga.generations",
    "ga.neighborhood_solves",
    "persist.open_share",
    "persist.loaded_score_entries",
    "persist.loaded_trace_entries",
    "persist.flush_share",
    "persist.flushed_records",
    "trace.overhead",
];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NetSyn_CF with the paper's defaults: learned scoring dominates.
    ListCf,
    /// The f_Edit baseline with uniform mutation: no network runs.
    ListEdit,
    /// NetSyn_CF restarted against a warm durable cache.
    ListCfRestart,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::ListCf,
        Workload::ListEdit,
        Workload::ListCfRestart,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ListCf => "list_cf",
            Workload::ListEdit => "list_edit",
            Workload::ListCfRestart => "list_cf_restart",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tasks of each output kind the workload runs at full size.
    #[must_use]
    pub fn tasks_per_kind(self) -> usize {
        match self {
            Workload::ListCf | Workload::ListCfRestart => 5,
            // About a third of these 120 attempts are solved, so the median
            // lies among the attempts that spend the whole budget. With
            // 15 + 15 tasks, 38-52% were solved, depending on the seed, and
            // the median jumped between solved and capped attempts.
            Workload::ListEdit => 30,
        }
    }

    /// Wall time of one measured pass on the reference host (2 vCPUs), from
    /// which [`Workload::passes`] sizes a run.
    #[must_use]
    pub fn nominal_pass_seconds(self) -> f64 {
        match self {
            Workload::ListCf => 24.0,
            Workload::ListEdit => 11.0,
            Workload::ListCfRestart => 5.5,
        }
    }

    /// Measured passes in a run of `seconds`: enough nominal passes to
    /// cover `seconds`, and at least one. The count depends only on the
    /// workload and `seconds`, so every commit measures the same samples.
    #[must_use]
    pub fn passes(self, seconds: u64) -> usize {
        // `as` saturates; the value is a small, non-negative pass count.
        let covering = (seconds as f64 / self.nominal_pass_seconds()).ceil() as usize;
        covering.max(1)
    }

    /// The synthesizer configuration, as the experiment harness builds it.
    #[must_use]
    pub fn config(self) -> NetSynConfig {
        match self {
            Workload::ListCf | Workload::ListCfRestart => {
                NetSynConfig::paper_defaults(FitnessChoice::NeuralCommonFunctions, PROGRAM_LENGTH)
            }
            Workload::ListEdit => {
                let mut config =
                    NetSynConfig::paper_defaults(FitnessChoice::EditDistance, PROGRAM_LENGTH);
                config.ga.mutation_mode = MutationMode::UniformRandom;
                config
            }
        }
    }

    fn learned(self) -> bool {
        self.config().fitness.needs_model()
    }

    fn fitness_cache_key(self, bundle: &ModelBundle) -> String {
        if self.learned() {
            LearnedFitness::new(bundle.cf.clone()).cache_key()
        } else {
            EditDistanceFitness::new().cache_key()
        }
    }
}

/// Sizes of one run; [`Scale::full`] is what the command line runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Tasks of each output kind; `None` takes the workload's own size.
    pub tasks_per_kind: Option<usize>,
    /// Training targets of the model bundle.
    pub training_targets: usize,
    /// Training epochs of the model bundle.
    pub training_epochs: usize,
    /// Set-up repetitions.
    pub setup_repeats: usize,
    /// Candidate cap of every attempt.
    pub budget_cap: usize,
}

impl Scale {
    /// The benchmark's own sizes.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            tasks_per_kind: None,
            training_targets: 60,
            training_epochs: 2,
            setup_repeats: SETUP_REPEATS,
            budget_cap: BUDGET_CAP,
        }
    }
}

/// A directory that is removed, with everything in it, when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory under `base`, named after the workload and
    /// this process.
    ///
    /// # Errors
    ///
    /// Returns the error of creating the directory.
    pub fn create(base: &Path, workload: Workload) -> std::io::Result<Self> {
        let path = base.join(format!(
            "synth_e2e-{}-{}",
            workload.name(),
            std::process::id()
        ));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What one attempt returned, for the exact-count gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// The returned program.
    pub solution: Option<Program>,
    /// Candidates evaluated.
    pub candidates: usize,
    /// GA generations.
    pub generations: Option<usize>,
}

/// One attempt: its outcome (`None` if it panicked) and its wall time.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// The outcome, or `None` when the attempt panicked.
    pub outcome: Option<Outcome>,
    /// Whether the returned program violates its task's IO examples.
    pub invalid: bool,
    /// Wall time of the `synthesize_cached` call.
    pub wall: Duration,
}

impl Attempt {
    fn failed(&self) -> bool {
        self.outcome.is_none() || self.invalid
    }

    fn solved(&self) -> bool {
        !self.failed() && self.outcome.as_ref().is_some_and(|o| o.solution.is_some())
    }

    fn candidates(&self) -> usize {
        self.outcome.as_ref().map_or(0, |o| o.candidates)
    }
}

/// Sizes of the fitness cache after a pass, summed over its caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// `TraceEncodingCache::encode_count` of the trace shards.
    pub trace_encodes: usize,
    /// `TraceEncodingCache::len` of the trace shards.
    pub trace_entries: usize,
    /// `SpecScores::len` of the score shards.
    pub score_entries: usize,
}

/// One pass over the suite.
#[derive(Debug, Clone)]
pub struct Pass {
    /// One entry per (task, repetition), in order.
    pub attempts: Vec<Attempt>,
    /// Wall time of the whole pass, cache opening included.
    pub wall: Duration,
    /// Process CPU time spent during the pass.
    pub cpu: Duration,
    /// Time to open the durable cache (restart workload only).
    pub open: Duration,
    /// `LoadReport` entry counts of the opened cache: (scores, traces).
    pub loaded: (usize, usize),
    /// Cache sizes after the pass.
    pub cache: CacheStats,
}

impl Pass {
    /// The outcomes, for comparing passes.
    #[must_use]
    pub fn outcomes(&self) -> Vec<Option<Outcome>> {
        self.attempts.iter().map(|a| a.outcome.clone()).collect()
    }

    fn candidates(&self) -> usize {
        self.attempts.iter().map(Attempt::candidates).sum()
    }

    fn solved_frac(&self) -> f64 {
        self.attempts.iter().filter(|a| a.solved()).count() as f64 / self.attempts.len() as f64
    }

    fn candidates_per_synth(&self) -> f64 {
        self.candidates() as f64 / self.attempts.len() as f64
    }
}

/// The warming pass of the restart workload, run during set-up.
#[derive(Debug)]
pub struct Warming {
    /// The pass against the fresh durable cache.
    pub pass: Pass,
    /// Wall time of the final `flush`.
    pub flush: Duration,
    /// Records the final flush appended (`FlushStats`, scores + traces).
    pub flushed_records: usize,
    /// Wall time of the pass plus its flush.
    pub wall: Duration,
}

/// Everything the set-up produced.
#[derive(Debug)]
pub struct Setup {
    /// The trained models.
    pub bundle: Arc<ModelBundle>,
    /// The workload's tasks.
    pub tasks: Vec<SynthesisTask>,
    /// Time of each training (median is `core.train_s`).
    pub train: Vec<Duration>,
    /// Time of each suite generation (median is `core.suite_s`).
    pub suite: Vec<Duration>,
    /// The restart workload's warming pass.
    pub warming: Option<Warming>,
}

impl Setup {
    /// `setup_s`: the median of the repeated training and suite generation,
    /// plus the warming pass and flush where the workload has one.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        let repeated: Vec<f64> = self
            .train
            .iter()
            .zip(&self.suite)
            .map(|(t, s)| (*t + *s).as_secs_f64())
            .collect();
        median(&repeated) + self.warming.as_ref().map_or(0.0, |w| w.wall.as_secs_f64())
    }
}

/// The training configuration of the experiment harness's default scale.
#[must_use]
pub fn training_config(scale: &Scale) -> BundleTrainingConfig {
    let mut config = BundleTrainingConfig::small(PROGRAM_LENGTH);
    config.dataset.num_target_programs = scale.training_targets;
    config.trainer.epochs = scale.training_epochs;
    config
}

/// Trains the harness's bundle into a fresh file under `dir`.
///
/// # Errors
///
/// Returns the error of training or writing the bundle.
pub fn train_bundle(dir: &Path, repeat: usize, scale: &Scale) -> std::io::Result<ModelBundle> {
    let path = dir.join(format!("bundle-{repeat}.json"));
    let mut rng = ChaCha8Rng::seed_from_u64(HARNESS_SEED ^ 0xB0BA);
    ModelBundle::load_or_train(&path, &training_config(scale), &mut rng)
}

/// The harness's suite, cut to the first `tasks_per_kind` tasks of each
/// output kind.
///
/// # Errors
///
/// Returns the generator's error.
pub fn generate_tasks(tasks_per_kind: usize) -> Result<Vec<SynthesisTask>, String> {
    let config = SuiteConfig::small(PROGRAM_LENGTH, SUITE_TASKS_PER_KIND.max(tasks_per_kind));
    let mut rng = ChaCha8Rng::seed_from_u64(HARNESS_SEED ^ ((PROGRAM_LENGTH as u64) << 8));
    let suite = TestSuite::generate(&config, &mut rng).map_err(|e| e.to_string())?;
    let mut tasks = Vec::new();
    for kind in [ProgramKind::Singleton, ProgramKind::List] {
        tasks.extend(
            suite
                .tasks_of_kind(kind)
                .into_iter()
                .take(tasks_per_kind)
                .cloned(),
        );
    }
    Ok(tasks)
}

/// The per-attempt RNG seed `evaluate_method` derives.
#[must_use]
pub fn attempt_seed(seed: u64, task_index: usize, run_index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((task_index as u64) << 20)
        .wrapping_add(run_index as u64)
}

/// Which caches a pass uses.
enum Caches<'a> {
    /// A fresh in-memory cache per task, shared by its repetitions.
    PerTask,
    /// One cache for every task.
    Shared(&'a FitnessCache),
}

/// One workload run: its set-up and its passes.
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The set-up.
    pub setup: Setup,
    scratch: ScratchDir,
    cache_key: String,
    budget_cap: usize,
}

impl Run {
    /// Trains, generates the suite and, for the restart workload, warms the
    /// durable cache; `scratch_base` receives every file the run writes.
    ///
    /// # Errors
    ///
    /// Returns a description of what failed.
    pub fn set_up(
        workload: Workload,
        seed: u64,
        scale: &Scale,
        scratch_base: &Path,
    ) -> Result<Run, String> {
        let scratch = ScratchDir::create(scratch_base, workload)
            .map_err(|e| format!("cannot create the scratch directory: {e}"))?;
        let tasks_per_kind = scale.tasks_per_kind.unwrap_or(workload.tasks_per_kind());
        let mut train = Vec::new();
        let mut suite = Vec::new();
        let mut bundle = None;
        let mut tasks = Vec::new();
        for repeat in 0..scale.setup_repeats.max(1) {
            let start = Instant::now();
            let trained = train_bundle(scratch.path(), repeat, scale)
                .map_err(|e| format!("training failed: {e}"))?;
            train.push(start.elapsed());
            let start = Instant::now();
            tasks = generate_tasks(tasks_per_kind)?;
            suite.push(start.elapsed());
            if bundle.as_ref().is_some_and(|b| *b != trained) {
                return Err("training the same seed twice gave different models".into());
            }
            bundle = Some(trained);
        }
        let bundle = Arc::new(bundle.expect("at least one set-up repetition"));
        let cache_key = workload.fitness_cache_key(&bundle);
        let mut run = Run {
            workload,
            seed,
            setup: Setup {
                bundle,
                tasks,
                train,
                suite,
                warming: None,
            },
            scratch,
            cache_key,
            budget_cap: scale.budget_cap,
        };
        if workload == Workload::ListCfRestart {
            let start = Instant::now();
            let dir = run.cache_dir();
            let cache = FitnessCache::durable(&dir)
                .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
            let synthesizer = run.netsyn();
            let pass = run.pass(&synthesizer, &Caches::Shared(&cache));
            let flush_start = Instant::now();
            let stats = cache.flush().ok_or("the warming cache is not durable")?;
            let flush = flush_start.elapsed();
            drop(cache);
            run.setup.warming = Some(Warming {
                pass,
                flush,
                flushed_records: stats.score_entries + stats.trace_entries,
                wall: start.elapsed(),
            });
        }
        Ok(run)
    }

    fn cache_dir(&self) -> PathBuf {
        self.scratch.path().join("fitness-cache")
    }

    fn models(&self) -> Option<Arc<ModelBundle>> {
        self.workload
            .learned()
            .then(|| Arc::clone(&self.setup.bundle))
    }

    /// The program's own synthesizer for the workload.
    #[must_use]
    pub fn netsyn(&self) -> NetSyn {
        NetSyn::new(self.workload.config(), self.models())
    }

    /// The traced synthesizer for the workload, numbering attempts from
    /// `first_attempt`.
    #[must_use]
    pub fn traced<'t>(&self, tracer: &'t Tracer, first_attempt: usize) -> TracedNetSyn<'t> {
        TracedNetSyn::new(self.workload.config(), self.models(), tracer, first_attempt)
    }

    /// Attempts per pass.
    #[must_use]
    pub fn attempts_per_pass(&self) -> usize {
        self.setup.tasks.len() * RUNS_PER_TASK
    }

    /// One measured pass with `synthesizer`: fresh in-memory caches, or a
    /// reopened durable cache for the restart workload.
    ///
    /// # Errors
    ///
    /// Returns the error of reopening the durable cache.
    pub fn measured_pass(&self, synthesizer: &dyn Synthesizer) -> Result<Pass, String> {
        if self.workload != Workload::ListCfRestart {
            return Ok(self.pass(synthesizer, &Caches::PerTask));
        }
        let start = Instant::now();
        let cpu_start = process_cpu();
        let dir = self.cache_dir();
        let cache = FitnessCache::durable(&dir)
            .map_err(|e| format!("cannot reopen {}: {e}", dir.display()))?;
        let open = start.elapsed();
        let loaded = cache
            .load_report()
            .map_or((0, 0), |r| (r.score_entries, r.trace_entries));
        let mut pass = self.pass(synthesizer, &Caches::Shared(&cache));
        drop(cache);
        pass.wall = start.elapsed();
        pass.cpu = process_cpu().saturating_sub(cpu_start);
        pass.open = open;
        pass.loaded = loaded;
        Ok(pass)
    }

    fn pass(&self, synthesizer: &dyn Synthesizer, caches: &Caches<'_>) -> Pass {
        let start = Instant::now();
        let cpu_start = process_cpu();
        let mut attempts = Vec::with_capacity(self.attempts_per_pass());
        let mut stats = CacheStats::default();
        for (task_index, task) in self.setup.tasks.iter().enumerate() {
            let own;
            let cache = match caches {
                Caches::PerTask => {
                    own = FitnessCache::new();
                    &own
                }
                Caches::Shared(cache) => *cache,
            };
            for run_index in 0..RUNS_PER_TASK {
                attempts.push(self.attempt(synthesizer, task, task_index, run_index, cache));
            }
            stats.score_entries += cache.shard(&self.cache_key, &task.spec).len();
            if let Caches::PerTask = caches {
                add_trace_stats(&mut stats, cache, &self.cache_key);
            }
        }
        if let Caches::Shared(cache) = caches {
            add_trace_stats(&mut stats, cache, &self.cache_key);
        }
        Pass {
            attempts,
            wall: start.elapsed(),
            cpu: process_cpu().saturating_sub(cpu_start),
            open: Duration::ZERO,
            loaded: (0, 0),
            cache: stats,
        }
    }

    fn attempt(
        &self,
        synthesizer: &dyn Synthesizer,
        task: &SynthesisTask,
        task_index: usize,
        run_index: usize,
        cache: &FitnessCache,
    ) -> Attempt {
        let problem =
            SynthesisProblem::with_domain(task.spec.clone(), task.target_length(), DomainId::List);
        let mut budget = SearchBudget::new(self.budget_cap);
        let mut rng = ChaCha8Rng::seed_from_u64(attempt_seed(self.seed, task_index, run_index));
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            synthesizer.synthesize_cached(&problem, &mut budget, &mut rng, cache)
        }));
        let wall = start.elapsed();
        match result {
            Ok(result) => Attempt {
                invalid: result
                    .solution
                    .as_ref()
                    .is_some_and(|p| !task.spec.is_satisfied_by(p)),
                outcome: Some(Outcome {
                    solution: result.solution,
                    candidates: result.candidates_evaluated,
                    generations: result.generations,
                }),
                wall,
            },
            Err(_) => Attempt {
                outcome: None,
                invalid: false,
                wall,
            },
        }
    }
}

fn add_trace_stats(stats: &mut CacheStats, cache: &FitnessCache, key: &str) {
    let traces = cache.trace_shard(key);
    stats.trace_encodes += traces.encode_count();
    stats.trace_entries += traces.len();
}

/// CPU time the process has used, from `/proc/self/stat` (zero where that
/// file is unavailable).
#[must_use]
pub fn process_cpu() -> Duration {
    // utime and stime are fields 14 and 15, counted in USER_HZ = 100 ticks;
    // the fields are counted after the parenthesised command name.
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    let Some(after_name) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return Duration::ZERO;
    };
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks: u64 = fields
        .get(11..13)
        .map_or(0, |f| f.iter().filter_map(|v| v.parse::<u64>().ok()).sum());
    Duration::from_millis(ticks * 10)
}

/// Peak resident set of the process in MiB, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `values` (0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten values beyond it: its value,
/// the percentile, and the number of values.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = n.saturating_sub(11);
    let value = sorted.get(index).copied().unwrap_or(0.0);
    let percentile = 100.0 * (index + 1) as f64 / n.max(1) as f64;
    (value, percentile, n)
}

/// A metric value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// The unit.
    pub unit: &'static str,
}

/// Metrics by name.
pub type Metrics = BTreeMap<&'static str, Metric>;

fn put(metrics: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    metrics.insert(name, Metric { value, unit });
}

/// The end-to-end metrics of the measured `passes`.
#[must_use]
pub fn end_to_end(setup: &Setup, passes: &[Pass]) -> Metrics {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.candidates() as f64 / p.wall.as_secs_f64())
        .collect();
    // Each attempt's median over the passes, so that a burst of host load
    // during one pass does not reach the percentiles.
    let walls: Vec<f64> = (0..passes[0].attempts.len())
        .map(|i| {
            let samples: Vec<f64> = passes
                .iter()
                .map(|p| p.attempts[i].wall.as_secs_f64())
                .collect();
            median(&samples)
        })
        .collect();
    let (tail_value, tail_pct, tail_n) = tail(&walls);
    let (attempted, failed) = attempted_failed(passes);
    let mut m = Metrics::new();
    put(&mut m, "candidates_per_s", median(&rates), "cand/s");
    put(&mut m, "synth_s_p50", median(&walls), "s");
    put(&mut m, "synth_s_tail", tail_value, "s");
    put(&mut m, "synth_s_tail.percentile", tail_pct, "%");
    put(&mut m, "synth_s_tail.attempts", tail_n as f64, "count");
    put(&mut m, "solved_frac", passes[0].solved_frac(), "ratio");
    put(
        &mut m,
        "candidates_per_synth",
        passes[0].candidates_per_synth(),
        "count",
    );
    put(
        &mut m,
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio",
    );
    put(&mut m, "setup_s", setup.setup_s(), "s");
    put(&mut m, "peak_rss_mb", peak_rss_mib(), "MiB");
    m
}

/// Attempts made and attempts failed (panicked or returned a program that
/// violates its task) over `passes`.
#[must_use]
pub fn attempted_failed(passes: &[Pass]) -> (usize, usize) {
    let attempts = passes.iter().flat_map(|p| &p.attempts);
    let failed = attempts.clone().filter(|a| a.failed()).count();
    (attempts.count(), failed)
}

/// The exact-count gate: every pass must return exactly `reference`.
/// Returns one line per mismatching attempt.
#[must_use]
pub fn gate(reference: &[Option<Outcome>], passes: &[Pass], label: &str) -> Vec<String> {
    let mut errors = Vec::new();
    for (p, pass) in passes.iter().enumerate() {
        let outcomes = pass.outcomes();
        if outcomes.len() != reference.len() {
            errors.push(format!(
                "{label} pass {p}: {} attempts, expected {}",
                outcomes.len(),
                reference.len()
            ));
            continue;
        }
        for (i, (got, want)) in outcomes.iter().zip(reference).enumerate() {
            if got != want {
                errors.push(format!("{label} pass {p} attempt {i}: {got:?} != {want:?}"));
            }
        }
    }
    errors
}

/// The per-layer breakdown of the traced `passes`, made with `tracer`,
/// against the untraced `reference` pass of the same run.
#[must_use]
pub fn per_layer(run: &Run, reference: &Pass, passes: &[Pass], tracer: &Tracer) -> Metrics {
    let count = passes.len() as f64;
    let spans = tracer.spans();
    let of = |name: &str, value: fn(&trace::Span) -> f64| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + value(s))
            / count
    };
    let secs = |name: &str| of(name, |s| s.duration().as_secs_f64());
    let items = |name: &str| of(name, |s| s.items as f64);
    let calls = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64 / count;

    // Self time of the GA: each root span minus what its children cover.
    let mut children: BTreeMap<usize, Vec<(Duration, Duration)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name != trace::SYNTHESIZE) {
        children
            .entry(span.attempt)
            .or_default()
            .push((span.start, span.end));
    }
    let ga_self: f64 = spans
        .iter()
        .filter(|s| s.name == trace::SYNTHESIZE)
        .map(|root| {
            let inner = children.remove(&root.attempt).unwrap_or_default();
            (root.duration() - covered(inner, root.start, root.end)).as_secs_f64()
        })
        .fold(0.0, |sum, s| sum + s)
        / count;

    let synthesize = secs(trace::SYNTHESIZE);
    let score = secs(trace::SCORE);
    let encode = secs(trace::ENCODE);
    let check = secs(trace::CHECK);
    let probability_map = secs(trace::PROBABILITY_MAP);
    let replay = encode + check;
    // Attempt time net of the replays, which the untraced program never runs.
    let net = synthesize - replay;
    let nn = if run.workload.learned() {
        score - encode
    } else {
        0.0
    };
    let candidates = passes[0].candidates() as f64;
    let scored = items(trace::SCORE);
    let checked = items(trace::CHECK);
    let open = passes.iter().fold(0.0, |sum, p| sum + p.open.as_secs_f64()) / count;
    let facts = tracer.facts();
    let generations = facts.iter().map(|(_, f)| f.generations).sum::<usize>() as f64 / count;
    let neighborhood = facts
        .iter()
        .filter(|(_, f)| f.found_by_neighborhood)
        .count() as f64
        / count;
    let (flush, flushed) = run.setup.warming.as_ref().map_or((0.0, 0.0), |w| {
        (w.flush.as_secs_f64(), w.flushed_records as f64)
    });
    let traced_wall = passes.iter().fold(0.0, |sum, p| sum + p.wall.as_secs_f64()) / count;
    let untraced_cps = reference.candidates() as f64 / reference.wall.as_secs_f64();
    let traced_cps = candidates / (traced_wall - replay);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let setup_s = run.setup.setup_s();
    let train: Vec<f64> = run.setup.train.iter().map(Duration::as_secs_f64).collect();
    let suite: Vec<f64> = run.setup.suite.iter().map(Duration::as_secs_f64).collect();
    let first = &passes[0];

    let mut m = Metrics::new();
    put(&mut m, "core.train_s", median(&train), "s");
    put(&mut m, "core.suite_s", median(&suite), "s");
    put(&mut m, "core.synthesize_s", synthesize, "s");
    put(
        &mut m,
        "core.cpu_per_wall",
        reference.cpu.as_secs_f64() / reference.wall.as_secs_f64(),
        "ratio",
    );
    put(&mut m, "core.solved_frac", first.solved_frac(), "ratio");
    put(
        &mut m,
        "core.candidates_per_synth",
        first.candidates_per_synth(),
        "count",
    );
    put(&mut m, "fitness.score_s", score, "s");
    put(&mut m, "fitness.score_share", share(score, net), "ratio");
    put(&mut m, "fitness.score_calls", calls(trace::SCORE), "count");
    put(&mut m, "fitness.scored", scored, "count");
    put(
        &mut m,
        "fitness.memo_hit_ratio",
        1.0 - share(scored, candidates),
        "ratio",
    );
    put(&mut m, "fitness.encode_s", encode, "s");
    put(&mut m, "fitness.encode_share", share(encode, net), "ratio");
    put(&mut m, "fitness.probability_map_s", probability_map, "s");
    put(
        &mut m,
        "fitness.probability_map_share",
        share(probability_map, net),
        "ratio",
    );
    put(
        &mut m,
        "fitness.trace_encodes",
        first.cache.trace_encodes as f64,
        "count",
    );
    put(
        &mut m,
        "fitness.trace_entries",
        first.cache.trace_entries as f64,
        "count",
    );
    put(
        &mut m,
        "fitness.score_entries",
        first.cache.score_entries as f64,
        "count",
    );
    put(&mut m, "nn.net_s", nn, "s");
    put(&mut m, "nn.net_share", share(nn, net), "ratio");
    put(
        &mut m,
        "dsl.check_ns_per_candidate",
        share(check * 1e9, checked),
        "ns",
    );
    put(&mut m, "dsl.check_s", check, "s");
    put(&mut m, "dsl.check_share", share(check, net), "ratio");
    put(&mut m, "ga.self_s", ga_self, "s");
    put(&mut m, "ga.self_share", share(ga_self, net), "ratio");
    put(
        &mut m,
        "ga.self_ns_per_candidate",
        share(ga_self * 1e9, candidates),
        "ns",
    );
    put(&mut m, "ga.generations", generations, "count");
    put(&mut m, "ga.neighborhood_solves", neighborhood, "count");
    put(&mut m, "persist.open_s", open, "s");
    put(
        &mut m,
        "persist.open_share",
        share(open, open + net),
        "ratio",
    );
    put(
        &mut m,
        "persist.loaded_score_entries",
        first.loaded.0 as f64,
        "count",
    );
    put(
        &mut m,
        "persist.loaded_trace_entries",
        first.loaded.1 as f64,
        "count",
    );
    put(&mut m, "persist.flush_s", flush, "s");
    put(
        &mut m,
        "persist.flush_share",
        share(flush, setup_s),
        "ratio",
    );
    put(&mut m, "persist.flushed_records", flushed, "count");
    put(
        &mut m,
        "trace.untraced_candidates_per_s",
        untraced_cps,
        "cand/s",
    );
    put(
        &mut m,
        "trace.traced_candidates_per_s",
        traced_cps,
        "cand/s",
    );
    put(
        &mut m,
        "trace.overhead",
        share(untraced_cps, traced_cps) - 1.0,
        "ratio",
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, percentile, n) = tail(&values);
        // Ten values (31..=40) lie beyond the 30th.
        assert_eq!((value, percentile, n), (30.0, 75.0, 40));
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("list_string"), None);
    }
}
