//! Strict parsing of the `NETSYN_CACHE_FLUSH_EVERY` environment override.
//!
//! A valid value (integer `>= 1`) sets `DurableOptions::flush_every`; an
//! invalid value is rejected with one warning line on stderr naming the
//! rejected value and the fallback interval of 16 — never silently
//! swallowed. Each case runs in a subprocess because the warn-once guard
//! and the environment are process-global.

use netsyn_fitness::persist::FLUSH_EVERY_ENV;
use netsyn_fitness::DurableOptions;
use std::ffi::OsStr;

/// Subprocess entry point: under `NETSYN_FLUSH_EVERY_CHILD=1` (set only by
/// the parents below) this resolves the default options and prints the
/// flush interval.
#[test]
fn flush_every_env_child_reports_resolved_interval() {
    if std::env::var("NETSYN_FLUSH_EVERY_CHILD").is_err() {
        return;
    }
    println!(
        "RESOLVED_FLUSH_EVERY:{}",
        DurableOptions::default().flush_every
    );
}

fn run_child(flush_every_env: Option<&OsStr>) -> (usize, String) {
    let exe = std::env::current_exe().expect("test binary path");
    let mut command = std::process::Command::new(&exe);
    command
        .args([
            "--exact",
            "flush_every_env_child_reports_resolved_interval",
            "--nocapture",
        ])
        .env("NETSYN_FLUSH_EVERY_CHILD", "1");
    match flush_every_env {
        Some(value) => command.env(FLUSH_EVERY_ENV, value),
        None => command.env_remove(FLUSH_EVERY_ENV),
    };
    let output = command.output().expect("spawn flush-every env child");
    assert!(
        output.status.success(),
        "child failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
    let resolved = stdout
        .lines()
        .find_map(|line| {
            line.find("RESOLVED_FLUSH_EVERY:")
                .map(|at| line[at + "RESOLVED_FLUSH_EVERY:".len()..].trim().parse())
        })
        .expect("child prints the resolved interval")
        .expect("resolved interval parses");
    (
        resolved,
        String::from_utf8_lossy(&output.stderr).to_string(),
    )
}

fn assert_rejected(value: &OsStr, shown: &str) {
    let (resolved, stderr) = run_child(Some(value));
    assert_eq!(resolved, 16, "an invalid override must fall back to 16");
    assert_eq!(
        stderr.matches(FLUSH_EVERY_ENV).count(),
        1,
        "exactly one warning line; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("ignoring invalid NETSYN_CACHE_FLUSH_EVERY") && stderr.contains(shown),
        "the warning must name the rejected value; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("flushing every 16 ticks"),
        "the warning must name the fallback; stderr:\n{stderr}"
    );
}

#[test]
fn valid_flush_every_env_sets_the_interval_silently() {
    let (resolved, stderr) = run_child(Some(OsStr::new("4")));
    assert_eq!(resolved, 4, "a valid override must be used");
    assert!(
        !stderr.contains(FLUSH_EVERY_ENV),
        "a valid override must not warn; stderr:\n{stderr}"
    );
}

#[test]
fn unset_flush_every_env_keeps_the_default_interval() {
    let (resolved, stderr) = run_child(None);
    assert_eq!(resolved, 16);
    assert!(!stderr.contains(FLUSH_EVERY_ENV));
}

#[test]
fn non_integer_flush_every_env_warns_and_keeps_the_default() {
    assert_rejected(OsStr::new("sixteen"), "sixteen");
}

#[test]
fn zero_flush_every_env_warns_and_keeps_the_default() {
    assert_rejected(OsStr::new("0"), "\"0\"");
}

#[cfg(unix)]
#[test]
fn non_unicode_flush_every_env_warns_and_keeps_the_default() {
    use std::os::unix::ffi::OsStrExt;
    assert_rejected(OsStr::from_bytes(b"1\xff6"), "\\xFF");
}
