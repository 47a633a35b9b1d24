//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and the decorators that record them.
//!
//! Spans are recorded from outside the program: [`TracedFitness`] wraps the
//! fitness function the GA engine scores with, and [`TracedNetSyn`] builds
//! the same fitness and engine that `NetSyn::synthesize_cached` builds, from
//! public constructors, timing each call it makes. Every span carries the
//! identifier of the attempt it belongs to; within an attempt, every span
//! other than the root `core.synthesize` span is a child of that root.

use netsyn_baselines::{SynthesisProblem, SynthesisResult, Synthesizer};
use netsyn_core::{FitnessChoice, ModelBundle, NetSynConfig};
use netsyn_dsl::{IoSpec, Program};
use netsyn_fitness::encoding::encode_candidates;
use netsyn_fitness::{
    EditDistanceFitness, EncodingConfig, FitnessCache, FitnessFunction, LearnedFitness,
    LearnedProbabilityModel, ProbabilityMap, TraceEncodingCache,
};
use netsyn_ga::{GeneticEngine, MutationMode, SearchBudget};
use rand::RngCore;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Root span of one attempt: one `synthesize_cached` call.
pub const SYNTHESIZE: &str = "core.synthesize";
/// One `score`, `score_batch` or `score_batch_cached` call.
pub const SCORE: &str = "fitness.score";
/// Replay of `encode_candidates` over a scored batch.
pub const ENCODE: &str = "fitness.encode";
/// Replay of `IoSpec::is_satisfied_by` over a scored batch.
pub const CHECK: &str = "dsl.check";
/// One `LearnedProbabilityModel::probability_map` call.
pub const PROBABILITY_MAP: &str = "fitness.probability_map";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer and operation, e.g. [`SCORE`].
    pub name: &'static str,
    /// The attempt the span belongs to.
    pub attempt: usize,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
    /// Candidates the call handled (0 where it handles none).
    pub items: usize,
}

impl Span {
    /// Wall time of the span.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Per-attempt facts that only the traced synthesizer sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AttemptFacts {
    /// `GaOutcome::generations`.
    pub generations: usize,
    /// `GaOutcome::found_by_neighborhood`.
    pub found_by_neighborhood: bool,
}

/// Collects spans in memory; they are read once the run is over.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    facts: Mutex<Vec<(usize, AttemptFacts)>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            facts: Mutex::new(Vec::new()),
        }
    }

    /// Runs `body` and records it as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        attempt: usize,
        items: usize,
        body: impl FnOnce() -> T,
    ) -> T {
        let start = self.epoch.elapsed();
        let value = body();
        let end = self.epoch.elapsed();
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(Span {
                name,
                attempt,
                start,
                end,
                items,
            });
        value
    }

    fn record_facts(&self, attempt: usize, facts: AttemptFacts) {
        self.facts
            .lock()
            .expect("a span recorder panicked")
            .push((attempt, facts));
    }

    /// Every span recorded so far, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// The facts of every attempt recorded so far, by attempt identifier.
    #[must_use]
    pub fn facts(&self) -> Vec<(usize, AttemptFacts)> {
        self.facts.lock().expect("a span recorder panicked").clone()
    }
}

/// A fitness function decorator that times every scoring call and, outside
/// the scoring span, replays the encoding and the spec check over the
/// scored batch.
///
/// Every trait method forwards to the wrapped function, so cache keys,
/// maximum scores and mutation maps stay the program's own.
pub struct TracedFitness<'t> {
    inner: Box<dyn FitnessFunction>,
    /// The learned model's encoding; `None` for fitness functions without a
    /// network, whose batches are not replayed through the encoder.
    encoding: Option<EncodingConfig>,
    tracer: &'t Tracer,
    attempt: usize,
}

impl<'t> TracedFitness<'t> {
    /// Wraps `inner`; `encoding` enables the encoding replay.
    #[must_use]
    pub fn new(
        inner: Box<dyn FitnessFunction>,
        encoding: Option<EncodingConfig>,
        tracer: &'t Tracer,
        attempt: usize,
    ) -> Self {
        TracedFitness {
            inner,
            encoding,
            tracer,
            attempt,
        }
    }

    fn replay(&self, candidates: &[Program], spec: &IoSpec) {
        if let Some(encoding) = &self.encoding {
            self.tracer
                .time(ENCODE, self.attempt, candidates.len(), || {
                    black_box(encode_candidates(encoding, spec, candidates));
                });
        }
        self.tracer.time(CHECK, self.attempt, candidates.len(), || {
            for candidate in candidates {
                black_box(spec.is_satisfied_by(candidate));
            }
        });
    }
}

impl FitnessFunction for TracedFitness<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, candidate: &Program, spec: &IoSpec) -> f64 {
        let score = self
            .tracer
            .time(SCORE, self.attempt, 1, || self.inner.score(candidate, spec));
        self.replay(std::slice::from_ref(candidate), spec);
        score
    }

    fn score_batch(&self, candidates: &[Program], spec: &IoSpec) -> Vec<f64> {
        let scores = self.tracer.time(SCORE, self.attempt, candidates.len(), || {
            self.inner.score_batch(candidates, spec)
        });
        self.replay(candidates, spec);
        scores
    }

    fn score_batch_cached(
        &self,
        candidates: &[Program],
        spec: &IoSpec,
        traces: &TraceEncodingCache,
    ) -> Vec<f64> {
        let scores = self.tracer.time(SCORE, self.attempt, candidates.len(), || {
            self.inner.score_batch_cached(candidates, spec, traces)
        });
        self.replay(candidates, spec);
        scores
    }

    fn cache_key(&self) -> String {
        self.inner.cache_key()
    }

    fn max_score(&self) -> f64 {
        self.inner.max_score()
    }

    fn probability_map(&self, spec: &IoSpec) -> Option<ProbabilityMap> {
        self.inner.probability_map(spec)
    }
}

/// The fitness function `NetSyn` would build for `config` and `spec`,
/// assembled from public constructors, with the probability-map call timed.
///
/// Covers the two fitness choices the workloads use: learned CF and the
/// edit-distance baseline.
///
/// # Panics
///
/// Panics on any other fitness choice, or on a learned choice without a
/// model bundle.
#[must_use]
fn build_fitness(
    config: &NetSynConfig,
    models: Option<&ModelBundle>,
    spec: &IoSpec,
    tracer: &Tracer,
    attempt: usize,
) -> (Box<dyn FitnessFunction>, Option<EncodingConfig>) {
    let mutation_map = if config.ga.mutation_mode == MutationMode::ProbabilityGuided {
        models.map(|m| {
            tracer.time(PROBABILITY_MAP, attempt, 0, || {
                LearnedProbabilityModel::new(m.fp.clone()).probability_map(spec)
            })
        })
    } else {
        None
    };
    match config.fitness {
        FitnessChoice::NeuralCommonFunctions => {
            let bundle = models.expect("NetSyn_CF needs a model bundle");
            let mut fitness = LearnedFitness::new(bundle.cf.clone());
            if let Some(map) = mutation_map {
                fitness = fitness.with_mutation_map(map);
            }
            let encoding = *fitness.model().net.encoding();
            (Box::new(fitness), Some(encoding))
        }
        FitnessChoice::EditDistance => (Box::new(EditDistanceFitness::new()), None),
        other => panic!("the benchmark does not trace fitness choice {other}"),
    }
}

/// A `Synthesizer` that does what `NetSyn::synthesize_cached` does, with
/// every layer call recorded in a [`Tracer`].
pub struct TracedNetSyn<'t> {
    config: NetSynConfig,
    models: Option<Arc<ModelBundle>>,
    tracer: &'t Tracer,
    attempt: std::sync::atomic::AtomicUsize,
}

impl<'t> TracedNetSyn<'t> {
    /// A traced synthesizer; attempts are numbered from `first_attempt`.
    #[must_use]
    pub fn new(
        config: NetSynConfig,
        models: Option<Arc<ModelBundle>>,
        tracer: &'t Tracer,
        first_attempt: usize,
    ) -> Self {
        TracedNetSyn {
            config,
            models,
            tracer,
            attempt: std::sync::atomic::AtomicUsize::new(first_attempt),
        }
    }
}

impl Synthesizer for TracedNetSyn<'_> {
    fn name(&self) -> &str {
        self.config.fitness.label()
    }

    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        budget: &mut SearchBudget,
        rng: &mut dyn RngCore,
    ) -> SynthesisResult {
        self.synthesize_cached(problem, budget, rng, &FitnessCache::new())
    }

    fn synthesize_cached(
        &self,
        problem: &SynthesisProblem,
        budget: &mut SearchBudget,
        rng: &mut dyn RngCore,
        cache: &FitnessCache,
    ) -> SynthesisResult {
        // Statistic only: numbers attempts, publishes nothing else.
        let attempt = self
            .attempt
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let outcome = self.tracer.time(SYNTHESIZE, attempt, 0, || {
            let mut ga_config = self.config.ga.clone();
            ga_config.program_length = problem.target_length;
            ga_config.domain = problem.domain;
            let engine = GeneticEngine::new(ga_config);
            let (fitness, encoding) = build_fitness(
                &self.config,
                self.models.as_deref(),
                &problem.spec,
                self.tracer,
                attempt,
            );
            let traced = TracedFitness::new(fitness, encoding, self.tracer, attempt);
            engine.synthesize_with_cache(&problem.spec, &traced, budget, rng, cache)
        });
        self.tracer.record_facts(
            attempt,
            AttemptFacts {
                generations: outcome.generations,
                found_by_neighborhood: outcome.found_by_neighborhood,
            },
        );
        SynthesisResult {
            solution: outcome.solution,
            candidates_evaluated: outcome.candidates_evaluated,
            generations: Some(outcome.generations),
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
#[must_use]
pub fn covered(mut intervals: Vec<(Duration, Duration)>, lo: Duration, hi: Duration) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let intervals = vec![(ms(2), ms(5)), (ms(4), ms(7)), (ms(9), ms(20))];
        assert_eq!(covered(intervals, ms(0), ms(10)), ms(6));
        assert_eq!(covered(Vec::new(), ms(0), ms(10)), Duration::ZERO);
    }
}
