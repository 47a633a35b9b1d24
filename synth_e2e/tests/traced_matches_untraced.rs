//! The traced synthesizer must return exactly what the program's own
//! `NetSyn` returns, on every workload, and repeated runs of one seed must
//! agree. Run with `cargo test --release` from the benchmark's directory.

use std::path::PathBuf;
use synth_e2e::trace::Tracer;
use synth_e2e::{attempted_failed, gate, per_layer, Run, Scale, Workload, END_TO_END, PER_LAYER};

const SEED: u64 = 3;

fn small() -> Scale {
    Scale {
        tasks_per_kind: Some(1),
        training_targets: 10,
        training_epochs: 1,
        setup_repeats: 1,
        budget_cap: 1_500,
    }
}

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

#[test]
fn traced_attempts_match_untraced_on_every_workload() {
    for workload in Workload::ALL {
        let run = Run::set_up(workload, SEED, &small(), &scratch("traced")).unwrap();
        let untraced = run.measured_pass(&run.netsyn()).unwrap();
        let tracer = Tracer::new();
        let traced = run.measured_pass(&run.traced(&tracer, 0)).unwrap();
        let passes = [untraced.clone(), traced.clone()];
        assert_eq!(
            gate(&untraced.outcomes(), &passes[1..], workload.name()),
            Vec::<String>::new()
        );
        if let Some(warming) = &run.setup.warming {
            assert_eq!(
                gate(&warming.pass.outcomes(), &passes, workload.name()),
                Vec::<String>::new()
            );
        }
        assert_eq!(attempted_failed(&passes), (2 * run.attempts_per_pass(), 0));

        let layers = per_layer(&run, &untraced, std::slice::from_ref(&traced), &tracer);
        let value = |name: &str| layers[name].value;
        match workload {
            Workload::ListCf => assert!(value("fitness.scored") > 0.0),
            Workload::ListEdit => {
                assert!(value("fitness.scored") > 0.0);
                assert_eq!(value("nn.net_s"), 0.0);
            }
            Workload::ListCfRestart => {
                assert_eq!(value("fitness.scored"), 0.0);
                assert!(value("persist.loaded_score_entries") > 0.0);
            }
        }
        for name in PER_LAYER {
            assert!(layers.contains_key(name), "{name} is not computed");
        }
    }
}

#[test]
fn repeated_runs_of_one_seed_agree() {
    let outcomes = || {
        let run = Run::set_up(Workload::ListCf, SEED, &small(), &scratch("repeat")).unwrap();
        run.measured_pass(&run.netsyn()).unwrap().outcomes()
    };
    assert_eq!(outcomes(), outcomes());
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    for name in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} is missing from BENCHMARK.json"
        );
    }
    let declared = json.matches("\"name\":").count();
    assert_eq!(
        declared,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
