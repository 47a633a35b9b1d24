//! Fitness functions backed by trained neural models.
//!
//! * [`LearnedFitness`] wraps a trained CF or LCS classifier: the fitness of a
//!   candidate is the *expected* class value under the predicted softmax
//!   distribution, which gives the genetic algorithm a smooth, non-negative
//!   ranking signal while remaining anchored to the paper's integer-valued
//!   ideal fitness.
//! * [`LearnedProbabilityModel`] wraps a trained FP model and produces a
//!   [`ProbabilityMap`] for a specification; [`ProbabilityFitness`] turns such
//!   a map into the `f_FP` fitness (`Σ p_k` over the candidate's functions)
//!   and also exposes it for FP-guided mutation.

use crate::encoding::{
    encode_candidate, encode_candidates, encode_spec, SpecEncodingCache, TraceEncodingCache,
};
use crate::probability::ProbabilityMap;
use crate::trainer::{FitnessModelKind, TrainedFitnessModel};
use crate::traits::FitnessFunction;
use netsyn_dsl::{IoSpec, Program};
use netsyn_nn::activation::{sigmoid, softmax};
use serde::{Deserialize, Serialize};

/// A fitness function backed by a trained CF or LCS classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedFitness {
    model: TrainedFitnessModel,
    name: String,
    /// `name` plus the model's weight fingerprint: shared caches must never
    /// alias two differently-trained models of the same kind (see
    /// [`crate::FitnessFunction::cache_key`]).
    cache_key: String,
    /// Optional probability map attached for FP-guided mutation.
    mutation_map: Option<ProbabilityMap>,
    /// One-slot memo so the specification of a synthesis run is encoded
    /// exactly once across every `score` / `score_batch` call (derived
    /// state: cleared by `Clone`, ignored by `PartialEq` and serde).
    spec_cache: SpecEncodingCache,
}

impl LearnedFitness {
    /// Wraps a trained CF or LCS model.
    ///
    /// # Panics
    ///
    /// Panics if the model is an FP model (use [`LearnedProbabilityModel`]
    /// and [`ProbabilityFitness`] for that).
    #[must_use]
    pub fn new(mut model: TrainedFitnessModel) -> Self {
        assert!(
            model.kind != FitnessModelKind::FunctionProbability,
            "use ProbabilityFitness for FP models"
        );
        let name = format!("nn-{}", model.kind);
        let cache_key = format!("{name}#{:016x}", model.net.weight_fingerprint());
        LearnedFitness {
            model,
            name,
            cache_key,
            mutation_map: None,
            spec_cache: SpecEncodingCache::new(),
        }
    }

    /// Attaches a probability map (usually produced by a
    /// [`LearnedProbabilityModel`]) so that [`FitnessFunction::probability_map`]
    /// can guide the mutation operator.
    #[must_use]
    pub fn with_mutation_map(mut self, map: ProbabilityMap) -> Self {
        self.mutation_map = Some(map);
        self
    }

    /// The wrapped model.
    #[must_use]
    pub fn model(&self) -> &TrainedFitnessModel {
        &self.model
    }

    /// How many times this fitness function actually encoded a
    /// specification. The GA presents one spec per `synthesize` call, so
    /// after a full run this is exactly 1 (the engine's spec-encoded-once
    /// test asserts it).
    #[must_use]
    pub fn spec_encode_count(&self) -> usize {
        self.spec_cache.encode_count()
    }
}

/// The expected class value under the softmax of `logits` — the smooth
/// fitness signal both the single and the batched scoring paths share.
fn expected_class_value(logits: &[f32]) -> f64 {
    let probs = softmax(logits);
    probs
        .iter()
        .enumerate()
        .map(|(class, &p)| class as f64 * f64::from(p))
        .sum()
}

impl FitnessFunction for LearnedFitness {
    fn name(&self) -> &str {
        &self.name
    }

    /// The name alone is shared by every trained model of the same kind, so
    /// the key folds in the weight fingerprint — a shared
    /// [`crate::FitnessCache`] scoring with two CF checkpoints must not
    /// serve one model's scores (or trace-value encodings) to the other.
    fn cache_key(&self) -> String {
        self.cache_key.clone()
    }

    fn score(&self, candidate: &Program, spec: &IoSpec) -> f64 {
        let spec_encoding = self
            .spec_cache
            .get_or_encode(self.model.net.encoding(), spec);
        let encoded = encode_candidate(self.model.net.encoding(), spec, candidate);
        match self.model.net.predict(&spec_encoding, &encoded) {
            Ok(logits) => expected_class_value(&logits),
            Err(_) => 0.0,
        }
    }

    /// Batched scoring: [`FitnessFunction::score_batch_cached`] against a
    /// fresh trace memo. Trace-value encodings are reused across calls only
    /// through the [`crate::FitnessCache`] shard the GA engine passes.
    fn score_batch(&self, candidates: &[Program], spec: &IoSpec) -> Vec<f64> {
        self.score_batch_cached(candidates, spec, &TraceEncodingCache::new())
    }

    /// Batched scoring: the specification encoding is served from the
    /// one-slot memo (encoded exactly once per synthesis) and shared
    /// zero-copy with the network; every candidate's traces run through one
    /// batched forward pass (`FitnessNet::predict_batch`, reusing the
    /// trace-value encodings memoized in `traces` across generations and
    /// runs) and each logit row is converted with the same expected-value
    /// readout as [`FitnessFunction::score`] — scores are bit-identical to
    /// the per-candidate path.
    fn score_batch_cached(
        &self,
        candidates: &[Program],
        spec: &IoSpec,
        traces: &TraceEncodingCache,
    ) -> Vec<f64> {
        let spec_encoding = self
            .spec_cache
            .get_or_encode(self.model.net.encoding(), spec);
        let encoded = encode_candidates(self.model.net.encoding(), spec, candidates);
        match self
            .model
            .net
            .predict_batch(&spec_encoding, &encoded, traces)
        {
            Ok(rows) => rows
                .iter()
                .map(|logits| expected_class_value(logits))
                .collect(),
            // A batched failure cannot tell which candidate was invalid;
            // fall back to the per-candidate path so error semantics (0.0
            // for the offending candidates only) are preserved.
            Err(_) => candidates
                .iter()
                .map(|candidate| self.score(candidate, spec))
                .collect(),
        }
    }

    fn max_score(&self) -> f64 {
        self.model.program_length as f64
    }

    fn probability_map(&self, _spec: &IoSpec) -> Option<ProbabilityMap> {
        self.mutation_map.clone()
    }
}

/// A trained FP model: predicts a per-function probability map from a
/// specification (no candidate required).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LearnedProbabilityModel {
    model: TrainedFitnessModel,
}

impl LearnedProbabilityModel {
    /// Wraps a trained FP model.
    ///
    /// # Panics
    ///
    /// Panics if the model is not an FP model.
    #[must_use]
    pub fn new(model: TrainedFitnessModel) -> Self {
        assert!(
            model.kind == FitnessModelKind::FunctionProbability,
            "LearnedProbabilityModel requires an FP model"
        );
        LearnedProbabilityModel { model }
    }

    /// The wrapped model.
    #[must_use]
    pub fn model(&self) -> &TrainedFitnessModel {
        &self.model
    }

    /// Predicts the probability map for a specification. The map covers the
    /// vocabulary of the domain the model was trained on
    /// (`EncodingConfig::domain`).
    #[must_use]
    pub fn probability_map(&self, spec: &IoSpec) -> ProbabilityMap {
        let domain = self.model.net.encoding().domain;
        let encoded = encode_spec(self.model.net.encoding(), spec);
        match self.model.net.predict_spec(&encoded) {
            Ok(logits) => {
                let probs: Vec<f64> = logits.iter().map(|&z| f64::from(sigmoid(z))).collect();
                ProbabilityMap::new_for(domain, probs)
            }
            Err(_) => ProbabilityMap::uniform_for(domain),
        }
    }
}

/// The `f_FP` fitness function: scores a candidate by the summed predicted
/// probability of its functions under a fixed probability map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbabilityFitness {
    map: ProbabilityMap,
    program_length: usize,
    name: String,
}

impl ProbabilityFitness {
    /// Creates the fitness from a probability map and the target program
    /// length (used only for `max_score`).
    #[must_use]
    pub fn new(map: ProbabilityMap, program_length: usize) -> Self {
        ProbabilityFitness {
            map,
            program_length,
            name: "nn-FP".to_string(),
        }
    }

    /// The underlying probability map.
    #[must_use]
    pub fn map(&self) -> &ProbabilityMap {
        &self.map
    }
}

impl FitnessFunction for ProbabilityFitness {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, candidate: &Program, _spec: &IoSpec) -> f64 {
        self.map.score(candidate)
    }

    /// Batched scoring: the FP score depends only on the fixed probability
    /// map, so the batch path simply skips the per-call dynamic dispatch.
    fn score_batch(&self, candidates: &[Program], _spec: &IoSpec) -> Vec<f64> {
        candidates
            .iter()
            .map(|candidate| self.map.score(candidate))
            .collect()
    }

    fn max_score(&self) -> f64 {
        self.program_length as f64
    }

    fn probability_map(&self, _spec: &IoSpec) -> Option<ProbabilityMap> {
        Some(self.map.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, generate_fp_dataset, BalanceMetric, DatasetConfig};
    use crate::model::FitnessNetConfig;
    use crate::trainer::{train_fitness_model, TrainerConfig};
    use netsyn_dsl::{Function, Generator, GeneratorConfig, IntPredicate, MapOp};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn tiny_trainer_config() -> TrainerConfig {
        let mut config = TrainerConfig::small();
        config.net = FitnessNetConfig {
            value_embed_dim: 4,
            encoder_hidden_dim: 6,
            function_embed_dim: 4,
            trace_hidden_dim: 6,
            example_hidden_dim: 8,
            head_hidden_dim: 8,
            output_dim: 1,
        };
        config.epochs = 1;
        config.batch_size = 8;
        config
    }

    fn tiny_dataset_config(length: usize) -> DatasetConfig {
        let mut config = DatasetConfig::for_length(length);
        config.num_target_programs = 6;
        config.examples_per_program = 2;
        config
    }

    fn trained_cf_model(length: usize, seed: u64) -> TrainedFitnessModel {
        let mut r = rng(seed);
        let samples = generate_dataset(
            &tiny_dataset_config(length),
            BalanceMetric::CommonFunctions,
            &mut r,
        )
        .unwrap();
        train_fitness_model(
            FitnessModelKind::CommonFunctions,
            &samples,
            length,
            &tiny_trainer_config(),
            &mut r,
        )
    }

    fn trained_fp_model(length: usize, seed: u64) -> TrainedFitnessModel {
        let mut r = rng(seed);
        let samples = generate_fp_dataset(&tiny_dataset_config(length), &mut r).unwrap();
        train_fitness_model(
            FitnessModelKind::FunctionProbability,
            &samples,
            length,
            &tiny_trainer_config(),
            &mut r,
        )
    }

    #[test]
    fn learned_fitness_scores_are_in_range() {
        let model = trained_cf_model(3, 1);
        let fitness = LearnedFitness::new(model);
        assert_eq!(fitness.name(), "nn-CF");
        assert_eq!(fitness.max_score(), 3.0);
        let mut r = rng(2);
        let generator = Generator::new(GeneratorConfig::for_length(3));
        let task = generator.task(3, &mut r).unwrap();
        let candidate = generator.random_program(&mut r);
        let score = fitness.score(&candidate, &task.spec);
        assert!(score >= 0.0 && score <= fitness.max_score());
        assert!(fitness.probability_map(&task.spec).is_none());
    }

    #[test]
    fn cache_keys_distinguish_checkpoints_with_identical_names() {
        // Two differently-trained CF models share the display name "nn-CF"
        // but score candidates differently; a shared FitnessCache keyed by
        // name alone would serve one model's scores (and trace-value
        // encodings) to the other. The weight fingerprint in the key
        // prevents that, while identical weights keep identical keys.
        let a = LearnedFitness::new(trained_cf_model(3, 1));
        let b = LearnedFitness::new(trained_cf_model(3, 2));
        let a_again = LearnedFitness::new(trained_cf_model(3, 1));
        assert_eq!(a.name(), b.name());
        assert_ne!(a.cache_key(), b.cache_key());
        assert_eq!(a.cache_key(), a_again.cache_key());
        assert!(a.cache_key().starts_with("nn-CF#"));
    }

    #[test]
    fn learned_fitness_with_mutation_map_exposes_it() {
        let model = trained_cf_model(3, 3);
        let map = ProbabilityMap::uniform();
        let fitness = LearnedFitness::new(model).with_mutation_map(map.clone());
        assert_eq!(fitness.probability_map(&IoSpec::default()), Some(map));
    }

    #[test]
    #[should_panic(expected = "ProbabilityFitness")]
    fn learned_fitness_rejects_fp_models() {
        let model = trained_fp_model(3, 4);
        let _ = LearnedFitness::new(model);
    }

    #[test]
    fn probability_model_produces_valid_maps() {
        let model = trained_fp_model(3, 5);
        let prob_model = LearnedProbabilityModel::new(model);
        let mut r = rng(6);
        let generator = Generator::new(GeneratorConfig::for_length(3));
        let task = generator.task(3, &mut r).unwrap();
        let map = prob_model.probability_map(&task.spec);
        assert!(map.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(map.as_slice().len(), 41);
    }

    #[test]
    #[should_panic(expected = "requires an FP model")]
    fn probability_model_rejects_cf_models() {
        let model = trained_cf_model(3, 7);
        let _ = LearnedProbabilityModel::new(model);
    }

    #[test]
    fn probability_fitness_scores_and_exposes_map() {
        let target = Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sort,
        ]);
        let map = ProbabilityMap::from_target(&target, 0.05);
        let fitness = ProbabilityFitness::new(map.clone(), 3);
        assert_eq!(fitness.name(), "nn-FP");
        assert_eq!(fitness.max_score(), 3.0);
        let spec = IoSpec::default();
        assert!(
            fitness.score(&target, &spec)
                > fitness.score(&Program::new(vec![Function::Head]), &spec)
        );
        assert_eq!(fitness.probability_map(&spec), Some(map.clone()));
        assert_eq!(fitness.map(), &map);
    }
}
