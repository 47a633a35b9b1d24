//! Micro-benchmarks of the neural-network substrate and the full fitness
//! network: matrix multiplication, LSTM forward/backward, and the NN-FF
//! forward pass that dominates NetSyn's per-candidate cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_dsl::{Generator, GeneratorConfig, Program};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::encoding::{encode_candidate, encode_spec};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{
    EncodingConfig, FitnessFunction, FitnessNet, FitnessNetConfig, LearnedFitness,
};
use netsyn_nn::{Lstm, Matrix, Parameterized};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Micro-benchmarks of the SIMD transcendental kernels against the scalar
/// libm calls they replace (`BENCH_simd.json` records the ratios). The
/// inputs mimic LSTM gate pre-activations: dense in [-8, 8].
fn bench_simd_kernels(c: &mut Criterion) {
    use netsyn_nn::simd;
    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(20);
    let xs: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.13).sin() * 8.0).collect();
    let mut buf = xs.clone();
    group.bench_function("vexp_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            simd::vexp_slice(black_box(&mut buf));
        });
    });
    group.bench_function("libm_exp_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            for x in buf.iter_mut() {
                *x = black_box(x.exp());
            }
        });
    });
    group.bench_function("vtanh_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            simd::vtanh_slice(black_box(&mut buf));
        });
    });
    group.bench_function("libm_tanh_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            for x in buf.iter_mut() {
                *x = black_box(x.tanh());
            }
        });
    });
    group.bench_function("vsigmoid_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            simd::vsigmoid_slice(black_box(&mut buf));
        });
    });
    group.bench_function("scalar_sigmoid_4096", |bench| {
        bench.iter(|| {
            buf.copy_from_slice(&xs);
            for x in buf.iter_mut() {
                *x = black_box(1.0 / (1.0 + (-*x).exp()));
            }
        });
    });
    group.finish();
}

fn bench_nn(c: &mut Criterion) {
    bench_simd_kernels(c);
    let mut group = c.benchmark_group("nn_kernels");
    group.sample_size(20);
    let mut rng = ChaCha8Rng::seed_from_u64(3);

    let a = Matrix::xavier(64, 64, &mut rng);
    let b = Matrix::xavier(64, 64, &mut rng);
    group.bench_function("matmul_64x64", |bench| {
        bench.iter(|| black_box(a.matmul(black_box(&b))));
    });

    let mut lstm = Lstm::new(16, 32, &mut rng);
    let sequence: Vec<Vec<f32>> = (0..12)
        .map(|t| {
            (0..16)
                .map(|d| ((t * 16 + d) as f32 * 0.01).sin())
                .collect()
        })
        .collect();
    group.bench_function("lstm_forward_12x16_h32", |bench| {
        bench.iter(|| black_box(lstm.forward(black_box(&sequence))));
    });
    group.bench_function("lstm_forward_backward_12x16_h32", |bench| {
        bench.iter(|| {
            let (h, cache) = lstm.forward(black_box(&sequence));
            let grads = lstm.backward(&cache, &h);
            lstm.zero_grad();
            black_box(grads)
        });
    });

    // The dominant cost inside NetSyn: one NN-FF forward pass per candidate.
    let net = FitnessNet::new(FitnessNetConfig::small(6), EncodingConfig::new(), &mut rng);
    let generator = Generator::new(GeneratorConfig::for_length(5));
    let target = generator.program(&mut rng).unwrap();
    let spec = generator.spec_for(&target, 5, &mut rng);
    let candidate = generator.random_program(&mut rng);
    let spec_encoding = encode_spec(net.encoding(), &spec);
    let encoded = encode_candidate(net.encoding(), &spec, &candidate);
    group.bench_function("fitness_net_forward_len5_m5", |bench| {
        bench.iter(|| {
            black_box(
                net.predict(black_box(&spec_encoding), black_box(&encoded))
                    .unwrap(),
            )
        });
    });
    group.bench_function("encode_candidate_len5_m5", |bench| {
        bench.iter(|| black_box(encode_candidate(net.encoding(), &spec, &candidate)));
    });
    group.finish();

    bench_batched_vs_single(c);
}

/// The headline comparison for the batched-inference work: scoring a
/// population-sized batch of candidates with one `score_batch` call versus
/// the seed's per-candidate `score` loop, on a trained CF fitness model.
/// `BENCH_batch_inference.json` records the measured ratio.
fn bench_batched_vs_single(c: &mut Criterion) {
    const POPULATION: usize = 128;
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut dataset_config = DatasetConfig::for_length(5);
    dataset_config.num_target_programs = 4;
    dataset_config.examples_per_program = 2;
    let samples = generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut rng)
        .expect("dataset generation succeeds");
    let mut trainer_config = TrainerConfig::small();
    trainer_config.epochs = 1;
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        5,
        &trainer_config,
        &mut rng,
    );
    let fitness = LearnedFitness::new(model);

    let generator = Generator::new(GeneratorConfig::for_length(5));
    let target = generator
        .program(&mut rng)
        .expect("program generation succeeds");
    let spec = generator.spec_for(&target, 5, &mut rng);
    let population: Vec<Program> = (0..POPULATION)
        .map(|_| generator.random_program(&mut rng))
        .collect();

    let mut group = c.benchmark_group("batched_vs_single");
    group.sample_size(10);
    group.bench_function(format!("single_scores_{POPULATION}"), |bench| {
        bench.iter(|| {
            let scores: Vec<f64> = population
                .iter()
                .map(|candidate| fitness.score(candidate, &spec))
                .collect();
            black_box(scores)
        });
    });
    group.bench_function(format!("score_batch_{POPULATION}"), |bench| {
        // Plain `score_batch` scores against a fresh trace memo, so this is
        // the cold batched pass; the warm numbers live in the encode_cache
        // bench.
        bench.iter(|| black_box(fitness.score_batch(black_box(&population), &spec)));
    });
    group.finish();
}

criterion_group!(benches, bench_nn);
criterion_main!(benches);
