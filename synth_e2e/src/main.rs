//! Runs one `synth_e2e` workload and prints its metrics.
//!
//! ```text
//! synth_e2e --workload <list_cf|list_edit|list_cf_restart|all> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! The human-readable table comes first; the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Files are written only under `.bench_run/` in the working
//! directory, and removed before the program exits.

use std::path::Path;
use std::process::ExitCode;
use synth_e2e::trace::{self, Tracer};
use synth_e2e::{
    attempted_failed, end_to_end, gate, per_layer, Metrics, Pass, Run, Scale, Workload, END_TO_END,
    PER_LAYER,
};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: synth_e2e --workload <list_cf|list_edit|list_cf_restart|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} has no value", pair[0]));
        };
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::from_name(value).ok_or(format!("unknown workload {value:?}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Any `NETSYN_*` variable changes what is measured (cache directory,
/// island count, pool size, SIMD kernels), so none may be set.
fn stray_overrides() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("NETSYN_"))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("synth_e2e: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stray = stray_overrides();
    if !stray.is_empty() {
        eprintln!(
            "synth_e2e: refusing to run with {} set: it changes what is measured",
            stray.join(", ")
        );
        return ExitCode::from(2);
    }
    if let [workload] = args.workloads[..] {
        run_one(workload, &args)
    } else {
        run_each(&args)
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let scratch = Path::new(".bench_run");
    let run = match Run::set_up(workload, args.seed, &Scale::full(), scratch) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("synth_e2e: set-up of {} failed: {err}", workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "synth_e2e workload={} seed={} seconds={} trace={} attempts_per_pass={} threads={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.attempts_per_pass(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    let measured = if args.trace {
        measure_traced(&run, args.seconds)
    } else {
        measure(&run, args.seconds)
    };
    let (passes, metrics, mut errors) = match measured {
        Ok(measured) => measured,
        Err(err) => {
            eprintln!("synth_e2e: {err}");
            return ExitCode::from(1);
        }
    };
    if let Some(warming) = &run.setup.warming {
        errors.extend(gate(
            &warming.pass.outcomes(),
            &passes,
            "restart vs warming",
        ));
    }
    let (attempted, failed) = attempted_failed(&passes);
    let wanted: &[&str] = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, metric) in &metrics {
        if wanted.contains(name) && !metric.value.is_finite() {
            errors.push(format!("{name} is not a finite number"));
        }
    }
    for error in &errors {
        eprintln!("synth_e2e: check failed: {error}");
    }
    let correct = errors.is_empty() && failed == 0;
    println!(
        "{}",
        json_line(correct, attempted, failed, &metrics, wanted)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

type Measured = (Vec<Pass>, Metrics, Vec<String>);

/// The workload's passes for `seconds` with the program's own `NetSyn`;
/// every pass must repeat the first one exactly.
fn measure(run: &Run, seconds: u64) -> Result<Measured, String> {
    let netsyn = run.netsyn();
    let passes = (0..run.workload.passes(seconds))
        .map(|_| run.measured_pass(&netsyn))
        .collect::<Result<Vec<_>, _>>()?;
    let reference = passes[0].outcomes();
    let errors = gate(&reference, &passes[1..], "repeat vs first pass");
    let metrics = end_to_end(&run.setup, &passes);
    print_table("end-to-end", &metrics);
    Ok((passes, metrics, errors))
}

/// One untraced pass, then the workload's passes for `seconds` traced.
/// The traced passes must return exactly what the untraced one returned
/// and score exactly as many candidates as each other.
fn measure_traced(run: &Run, seconds: u64) -> Result<Measured, String> {
    let reference = run.measured_pass(&run.netsyn())?;
    let tracer = Tracer::new();
    let per_pass = run.attempts_per_pass();
    let traced = (0..run.workload.passes(seconds))
        .map(|pass| run.measured_pass(&run.traced(&tracer, pass * per_pass)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut errors = gate(&reference.outcomes(), &traced, "traced vs untraced");
    let mut scored = vec![0; traced.len()];
    for span in tracer.spans().iter().filter(|s| s.name == trace::SCORE) {
        scored[span.attempt / per_pass] += span.items;
    }
    if scored.windows(2).any(|w| w[0] != w[1]) {
        errors.push(format!(
            "fitness.scored differs between traced passes: {scored:?}"
        ));
    }
    print_table(
        "end-to-end (untraced pass)",
        &end_to_end(&run.setup, std::slice::from_ref(&reference)),
    );
    let metrics = per_layer(run, &reference, &traced, &tracer);
    print_table("per-layer (traced passes, per pass)", &metrics);
    let mut passes = vec![reference];
    passes.extend(traced);
    Ok((passes, metrics, errors))
}

fn print_table(title: &str, metrics: &Metrics) {
    println!("{title}:");
    for (name, metric) in metrics {
        println!("  {name:<34} {:>16.6} {}", metric.value, metric.unit);
    }
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
    wanted: &[&str],
) -> String {
    let body: Vec<String> = wanted
        .iter()
        .filter_map(|name| {
            metrics.get(name).map(|m| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every workload in a child process of its own, so each reports its
/// own peak resident set, and sums their counts.
fn run_each(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("synth_e2e: cannot find the running executable");
        return ExitCode::from(1);
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Metrics::new();
    for workload in &args.workloads {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("synth_e2e: cannot run {}", workload.name());
            return ExitCode::from(1);
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or("");
        let count = |key: &str| -> Option<usize> {
            let rest = &last[last.find(&format!("\"{key}\": "))? + key.len() + 4..];
            rest[..rest.find(|c: char| !c.is_ascii_digit())?]
                .parse()
                .ok()
        };
        let (Some(a), Some(f)) = (count("attempted"), count("failed")) else {
            eprintln!("synth_e2e: {} printed no result", workload.name());
            return ExitCode::from(1);
        };
        correct &= output.status.success() && last.starts_with("{\"correct\": true");
        attempted += a;
        failed += f;
        let name: &'static str = match workload {
            Workload::ListCf => "list_cf.failed_frac",
            Workload::ListEdit => "list_edit.failed_frac",
            Workload::ListCfRestart => "list_cf_restart.failed_frac",
        };
        metrics.insert(
            name,
            synth_e2e::Metric {
                value: f as f64 / a.max(1) as f64,
                unit: "ratio",
            },
        );
    }
    let names: Vec<&str> = metrics.keys().copied().collect();
    println!(
        "{}",
        json_line(correct, attempted, failed, &metrics, &names)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
