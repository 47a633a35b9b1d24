//! Property tests for the batched scoring path: for every fitness family
//! (learned CF, learned LCS, FP, plus the default-impl oracle and
//! edit-distance functions), `score_batch` must return *exactly* the scores
//! the per-candidate `score` path returns — bit-identical `f64`s, not just
//! approximately equal. The GA engine relies on this: batching is a pure
//! performance optimization and must never change search behavior.

use netsyn_dsl::{Generator, GeneratorConfig, IoSpec, Program};
use netsyn_fitness::dataset::{
    generate_dataset, generate_fp_dataset, BalanceMetric, DatasetConfig,
};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{
    ClosenessMetric, EditDistanceFitness, FitnessFunction, FitnessNetConfig, LearnedFitness,
    LearnedProbabilityModel, OracleFitness, ProbabilityFitness,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const PROGRAM_LENGTH: usize = 3;
const CASES: usize = 8;
const BATCH: usize = 24;

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

fn tiny_dataset_config() -> DatasetConfig {
    let mut config = DatasetConfig::for_length(PROGRAM_LENGTH);
    config.num_target_programs = 6;
    config.examples_per_program = 2;
    config
}

/// A random scoring scenario: a specification plus a population-like batch
/// of candidates with duplicates and an empty program mixed in.
fn random_scenario(seed: u64) -> (IoSpec, Vec<Program>) {
    let mut r = rng(seed);
    let generator = Generator::new(GeneratorConfig::for_length(PROGRAM_LENGTH));
    let task = generator.task(3, &mut r).expect("task generation succeeds");
    let mut candidates: Vec<Program> = (0..BATCH)
        .map(|_| generator.random_program(&mut r))
        .collect();
    // Duplicates must score identically; the empty program exercises the
    // no-trace path.
    let duplicate = candidates[0].clone();
    candidates.push(duplicate);
    candidates.push(Program::default());
    let swap = r.gen_range(0..candidates.len());
    candidates.swap(0, swap);
    (task.spec, candidates)
}

fn assert_batch_matches_single<F: FitnessFunction + ?Sized>(
    fitness: &F,
    spec: &IoSpec,
    candidates: &[Program],
) {
    let batched = fitness.score_batch(candidates, spec);
    assert_eq!(batched.len(), candidates.len());
    for (candidate, &batch_score) in candidates.iter().zip(batched.iter()) {
        let single = fitness.score(candidate, spec);
        assert_eq!(
            batch_score.to_bits(),
            single.to_bits(),
            "{}: batched {batch_score} != single {single} for {candidate}",
            fitness.name()
        );
    }
}

#[test]
fn learned_cf_score_batch_is_bit_identical() {
    let mut r = rng(100);
    let samples = generate_dataset(
        &tiny_dataset_config(),
        BalanceMetric::CommonFunctions,
        &mut r,
    )
    .expect("dataset generation succeeds");
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        PROGRAM_LENGTH,
        &tiny_trainer_config(),
        &mut r,
    );
    let fitness = LearnedFitness::new(model);
    for case in 0..CASES {
        let (spec, candidates) = random_scenario(1000 + case as u64);
        assert_batch_matches_single(&fitness, &spec, &candidates);
    }
}

#[test]
fn learned_lcs_score_batch_is_bit_identical() {
    let mut r = rng(200);
    let samples = generate_dataset(
        &tiny_dataset_config(),
        BalanceMetric::LongestCommonSubsequence,
        &mut r,
    )
    .expect("dataset generation succeeds");
    let model = train_fitness_model(
        FitnessModelKind::LongestCommonSubsequence,
        &samples,
        PROGRAM_LENGTH,
        &tiny_trainer_config(),
        &mut r,
    );
    let fitness = LearnedFitness::new(model);
    for case in 0..CASES {
        let (spec, candidates) = random_scenario(2000 + case as u64);
        assert_batch_matches_single(&fitness, &spec, &candidates);
    }
}

#[test]
fn fp_score_batch_is_bit_identical() {
    let mut r = rng(300);
    let samples =
        generate_fp_dataset(&tiny_dataset_config(), &mut r).expect("dataset generation succeeds");
    let model = train_fitness_model(
        FitnessModelKind::FunctionProbability,
        &samples,
        PROGRAM_LENGTH,
        &tiny_trainer_config(),
        &mut r,
    );
    let prob_model = LearnedProbabilityModel::new(model);
    for case in 0..CASES {
        let (spec, candidates) = random_scenario(3000 + case as u64);
        let fitness = ProbabilityFitness::new(prob_model.probability_map(&spec), PROGRAM_LENGTH);
        assert_batch_matches_single(&fitness, &spec, &candidates);
    }
}

#[test]
fn default_impl_fitness_functions_also_match() {
    // The trait's default score_batch (a plain loop) and the oracle /
    // edit-distance functions must satisfy the same contract.
    for case in 0..CASES {
        let (spec, candidates) = random_scenario(4000 + case as u64);
        let mut r = rng(5000 + case as u64);
        let generator = Generator::new(GeneratorConfig::for_length(PROGRAM_LENGTH));
        let target = generator
            .program(&mut r)
            .expect("program generation succeeds");
        for metric in [
            ClosenessMetric::CommonFunctions,
            ClosenessMetric::LongestCommonSubsequence,
        ] {
            let oracle = OracleFitness::new(target.clone(), metric);
            assert_batch_matches_single(&oracle, &spec, &candidates);
        }
        assert_batch_matches_single(&EditDistanceFitness::new(), &spec, &candidates);
    }
}

/// The split encoding API itself upholds the contract: one shared
/// [`SpecEncoding`] plus per-candidate [`CandidateEncoding`]s pushed through
/// `predict_batch` must reproduce per-candidate `predict` calls bitwise, for
/// a trained model and across repeated/empty/trace-less candidates.
#[test]
fn split_encoding_predict_batch_is_bit_identical() {
    use netsyn_fitness::encoding::{encode_candidate, encode_candidates, encode_spec};
    use netsyn_fitness::{CandidateEncoding, TraceEncodingCache};

    let mut r = rng(700);
    let samples = generate_dataset(
        &tiny_dataset_config(),
        BalanceMetric::CommonFunctions,
        &mut r,
    )
    .expect("dataset generation succeeds");
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        PROGRAM_LENGTH,
        &tiny_trainer_config(),
        &mut r,
    );
    let net = &model.net;
    let (spec, candidates) = random_scenario(7000);
    let spec_encoding = encode_spec(net.encoding(), &spec);
    let mut encodings = encode_candidates(net.encoding(), &spec, &candidates);
    // The batch encoder must agree with the per-candidate encoder...
    for (candidate, encoding) in candidates.iter().zip(encodings.iter()) {
        assert_eq!(
            encoding,
            &encode_candidate(net.encoding(), &spec, candidate)
        );
    }
    // ...and a trace-less (FP-style) entry may ride along in the same batch.
    encodings.push(CandidateEncoding::spec_only());
    let batched = net
        .predict_batch(&spec_encoding, &encodings, &TraceEncodingCache::new())
        .unwrap();
    assert_eq!(batched.len(), encodings.len());
    for (encoding, batch_logits) in encodings.iter().zip(batched.iter()) {
        let single = net.predict(&spec_encoding, encoding).unwrap();
        for (a, b) in batch_logits.iter().zip(single.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert_eq!(
        batched.last().unwrap(),
        &net.predict_spec(&spec_encoding).unwrap()
    );
}

/// The learned fitness's one-slot spec memo must not leak scores across
/// specifications: alternating between two specs (evicting the slot each
/// time) still returns bit-identical batch and single scores for both.
#[test]
fn spec_cache_eviction_preserves_bit_identity() {
    let mut r = rng(800);
    let samples = generate_dataset(
        &tiny_dataset_config(),
        BalanceMetric::CommonFunctions,
        &mut r,
    )
    .expect("dataset generation succeeds");
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        PROGRAM_LENGTH,
        &tiny_trainer_config(),
        &mut r,
    );
    let fitness = LearnedFitness::new(model);
    let (spec_a, candidates_a) = random_scenario(8001);
    let (spec_b, candidates_b) = random_scenario(8002);
    let baseline_a = fitness.score_batch(&candidates_a, &spec_a);
    for _round in 0..2 {
        assert_batch_matches_single(&fitness, &spec_a, &candidates_a);
        assert_batch_matches_single(&fitness, &spec_b, &candidates_b);
    }
    // Returning to spec A after scoring spec B reproduces the exact scores.
    let again_a = fitness.score_batch(&candidates_a, &spec_a);
    for (a, b) in baseline_a.iter().zip(again_a.iter()) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert!(fitness.spec_encode_count() >= 2, "both specs were encoded");
}

#[test]
fn boxed_fitness_batch_delegates() {
    let (spec, candidates) = random_scenario(6000);
    let mut r = rng(6001);
    let generator = Generator::new(GeneratorConfig::for_length(PROGRAM_LENGTH));
    let target = generator
        .program(&mut r)
        .expect("program generation succeeds");
    let boxed: Box<dyn FitnessFunction> =
        Box::new(OracleFitness::new(target, ClosenessMetric::CommonFunctions));
    assert_batch_matches_single(&boxed, &spec, &candidates);
    assert!(boxed.score_batch(&[], &spec).is_empty());
}
