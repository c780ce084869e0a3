//! ncsbench — the NCS benchmark: four closed-loop workloads driven through
//! the public API, end-to-end metrics from an untraced run, per-layer
//! counters and span self times from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path ncsbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A run with a
//! wrong output exits 1. See `ncsbench/README.md` for the workloads, the
//! metrics and the layer each one belongs to.

mod counters;
mod hpi;
mod payload;
mod report;
mod sci;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use workload::{Outcome, Plan};

/// One benchmark workload and what its report needs to know about it.
pub struct Workload {
    pub name: &'static str,
    run: fn(&Plan) -> Outcome,
    /// Prefix of the workload's latency metrics (`rtt`, `msg`, ...).
    pub latency: &'static str,
    /// The workload's rate metric: name, value per op, unit.
    pub rate: Option<(&'static str, f64, &'static str)>,
    /// Whether traffic crosses SCI sockets (else in-process HPI rings).
    pub sci: bool,
    /// Whether the connections run in the bypass configuration (no FC/EC).
    pub bypass: bool,
    pub collectives: bool,
    pub path: &'static str,
    pub package: &'static str,
    pub config: &'static str,
}

const MIB: f64 = 1024.0 * 1024.0;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "sci_pingpong",
        run: sci::pingpong,
        latency: "rtt",
        rate: None,
        sci: true,
        bypass: true,
        collectives: false,
        path: "SCI over loopback TCP (127.0.0.1)",
        package: "kernel",
        config: "bypass config",
    },
    Workload {
        name: "sci_stream",
        run: sci::stream,
        latency: "msg",
        rate: Some(("goodput_mib_s", sci::STREAM_BYTES as f64 / MIB, "MiB/s")),
        sci: true,
        bypass: true,
        collectives: false,
        path: "SCI over loopback TCP (127.0.0.1)",
        package: "kernel",
        config: "bypass config",
    },
    Workload {
        name: "hpi_reliable_msgrate",
        run: hpi::msgrate,
        latency: "window",
        rate: Some(("msg_rate_kps", hpi::WINDOW as f64 / 1e3, "kmsg/s")),
        sci: false,
        bypass: false,
        collectives: false,
        path: "HPI in-process rings",
        package: "kernel",
        config: "reliable config (credit FC + selective repeat)",
    },
    Workload {
        name: "hpi_allreduce",
        run: hpi::allreduce,
        latency: "allreduce",
        rate: None,
        sci: false,
        bypass: true,
        collectives: true,
        path: "HPI in-process rings (LocalWorld of 4 ranks)",
        package: "user-level",
        config: "bypass config",
    },
];

/// Hard limit on one run; a run still going then is stopped with exit 3.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// `--workload all`: each workload in its own process, so each reports
/// its own peak memory.
fn run_all() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in &WORKLOADS {
        let args: Vec<String> = std::env::args()
            .skip(1)
            .map(|a| if a == "all" { w.name.to_owned() } else { a })
            .collect();
        let status = std::process::Command::new(&exe).args(&args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ncsbench: {e}");
            eprintln!(
                "usage: ncsbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "ncsbench: unknown workload {} (one of {names:?}, or all)",
            args.workload
        );
        return ExitCode::from(2);
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("ncsbench: run exceeded {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut outcome = (w.run)(&plan);
    let summary = report::Summary::new(&mut outcome);

    report::print(w, &outcome, &summary, args.seed, cpus);
    if plan.trace {
        let path = Path::new("ncsbench/out").join(format!("{}.spans.tsv", w.name));
        match trace::write_tsv(&path, &outcome.spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("ncsbench: could not write {}: {e}", path.display()),
        }
    }
    let correct = report::checks(w, &outcome, &summary)
        .iter()
        .all(|(_, ok)| *ok);
    let (attempted, failed) = summary.attempted_failed();
    if attempted == 0 {
        eprintln!("ncsbench: no op was attempted");
        return ExitCode::FAILURE;
    }
    let metrics = if plan.trace {
        report::per_layer(w, &outcome, &summary)
    } else {
        report::end_to_end(&outcome, &summary)
    };
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    if outcome.wrong > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
