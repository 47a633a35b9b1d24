//! `ModelBundle::load_or_train` treats a cached bundle file as untrusted: a
//! hostile or corrupted file must be retrained over, never abort the process
//! or load a network that panics when it scores.

use netsyn_core::{BundleTrainingConfig, ModelBundle};
use netsyn_dsl::{IoSpec, Program, Value};
use netsyn_fitness::{FitnessFunction, LearnedFitness, LearnedProbabilityModel};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

const LENGTH: usize = 2;

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netsyn_hostile_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("bundle.json")
}

/// Retrains over the file at `path`, then checks the rewritten file loads
/// back and every model of the bundle scores a candidate.
fn assert_retrains_over(path: &Path) {
    assert!(
        ModelBundle::load_json(path).is_err(),
        "the hostile file must not load"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let bundle = ModelBundle::load_or_train(path, &BundleTrainingConfig::tiny(LENGTH), &mut rng)
        .expect("a hostile bundle is retrained over");
    let reloaded = ModelBundle::load_json(path).expect("the file was rewritten loadable");
    assert_eq!(reloaded.cf.net, bundle.cf.net);
    assert_eq!(reloaded.fp.net, bundle.fp.net);

    let target: Program = "SORT, REVERSE".parse().unwrap();
    let spec = IoSpec::from_program(
        &target,
        &[
            vec![Value::List(vec![3, -1, 7])],
            vec![Value::List(vec![0, 5])],
        ],
    );
    let candidate: Program = "SORT, HEAD".parse().unwrap();
    for model in [&reloaded.cf, &reloaded.lcs] {
        let fitness = LearnedFitness::new(model.clone());
        let score = fitness.score(&candidate, &spec);
        assert!(score.is_finite());
        assert_eq!(
            fitness.score_batch(std::slice::from_ref(&candidate), &spec),
            vec![score]
        );
    }
    let map = LearnedProbabilityModel::new(reloaded.fp.clone()).probability_map(&spec);
    assert!(map.score(&candidate).is_finite());
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn deeply_nested_bundle_file_is_retrained() {
    let path = scratch_file("nested");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    assert_retrains_over(&path);
}

#[test]
fn bundle_with_a_truncated_matrix_is_retrained() {
    let path = scratch_file("truncated");
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let good = ModelBundle::train(&BundleTrainingConfig::tiny(LENGTH), &mut rng).unwrap();
    let json = serde_json::to_string(&good).unwrap();
    // Drop the first value of the first matrix's row-major data.
    let values = json.find("\"data\":[").expect("the bundle holds matrices") + "\"data\":[".len();
    let first_comma = values + json[values..].find(',').unwrap();
    assert!(first_comma < values + json[values..].find(']').unwrap());
    let truncated = format!("{}{}", &json[..values], &json[first_comma + 1..]);
    std::fs::write(&path, truncated).unwrap();
    assert_retrains_over(&path);
}
