//! bench_check — the perf-gate regression guard.
//!
//! Validates a freshly produced `BENCH_dataplane.json` against the
//! committed snapshot: same schema version, no section or case silently
//! missing, and every gate `pass` field true. CI runs this after the
//! smoke perf run instead of merely uploading the artifact.
//!
//! Usage: `bench_check --new PATH --snapshot PATH`
//!
//! Exit code 0 when the fresh artifact is acceptable; 1 with one line per
//! problem otherwise.

use ncs_bench::check::validate;
use ncs_obs::json::Json;

fn usage() -> ! {
    eprintln!("usage: bench_check --new PATH --snapshot PATH");
    std::process::exit(2);
}

fn load(label: &str, path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {label} artifact '{path}': {e}");
            std::process::exit(1);
        }
    };
    match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_check: {label} artifact '{path}' is not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut new_path = None;
    let mut snapshot_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--new" => new_path = args.next(),
            "--snapshot" => snapshot_path = args.next(),
            _ => usage(),
        }
    }
    let (Some(new_path), Some(snapshot_path)) = (new_path, snapshot_path) else {
        usage()
    };
    let fresh = load("fresh", &new_path);
    let snapshot = load("snapshot", &snapshot_path);
    let problems = validate(&fresh, &snapshot);
    if problems.is_empty() {
        eprintln!("bench_check: OK — '{new_path}' matches the committed snapshot's shape and every gate passes");
        return;
    }
    for p in &problems {
        eprintln!("bench_check: FAIL — {p}");
    }
    std::process::exit(1);
}
