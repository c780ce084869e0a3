//! Turns an [`Outcome`] into the benchmark's metrics, self-checks and
//! printed report.

use crate::counters::{percentile, Counters};
use crate::trace::{one_way_us, self_times, Span};
use crate::workload::{Outcome, SetupTimes};
use crate::Workload;

/// A named value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// Spans whose self time the traced run reports.
const SPAN_NAMES: [&str; 11] = [
    "op",
    "send",
    "isend",
    "irecv",
    "send_wait",
    "recv_view",
    "recv_wait",
    "window_wait",
    "iallreduce",
    "coll_wait",
    "verify",
];

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The untraced or the traced phases of a run. Counts are summed over the
/// rounds. Each latency percentile and the rate are taken per round, and
/// the run reports the interquartile mean over the rounds: the best and
/// the worst quarter of the worlds are dropped, so a world slowed by load
/// from outside the process (hypervisor steal on a shared host) does not
/// move the figures, and worlds whose threads settled into one of two
/// placements shift them smoothly rather than flipping them. Every
/// round's figures are printed in the report.
#[derive(Debug, Default)]
pub struct Totals {
    pub ops: u64,
    pub failed: u64,
    pub rss_growth_mib: f64,
    pub counters: Counters,
    pub samples: u64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    /// Completed ops per second.
    pub ops_per_s: f64,
}

/// Everything the report needs from one run.
pub struct Summary {
    pub untraced: Totals,
    pub traced: Option<Totals>,
    /// `[p50 µs, p90 µs, p99 µs, ops/s]` of each phase, in run order.
    pub phases: Vec<[f64; 4]>,
}

impl Summary {
    pub fn new(o: &mut Outcome) -> Self {
        let mut kinds = [Totals::default(), Totals::default()];
        let mut phases = Vec::new();
        for ph in &mut o.phases {
            let t = &mut kinds[usize::from(ph.traced)];
            t.ops += ph.ops;
            t.failed += ph.failed;
            t.rss_growth_mib += ph.rss_growth_mib;
            t.counters = t.counters.plus(&ph.counters);
            t.samples += ph.lat.count();
            let [p50, p90, p99] = [0.5, 0.9, 0.99].map(|q| ph.lat.percentile_us(q));
            let rate = ph.lat.count() as f64 / ph.elapsed_s.max(1e-9);
            phases.push([p50, p90, p99, rate]);
        }
        for (k, t) in kinds.iter_mut().enumerate() {
            let rounds: Vec<&[f64; 4]> = (o.phases.iter().zip(&phases))
                .filter(|(ph, _)| usize::from(ph.traced) == k)
                .map(|(_, r)| r)
                .collect();
            let iqm = |i: usize| interquartile_mean(rounds.iter().map(|r| r[i]).collect());
            (t.p50_us, t.p90_us, t.p99_us, t.ops_per_s) = (iqm(0), iqm(1), iqm(2), iqm(3));
        }
        let [untraced, traced] = kinds;
        Summary {
            untraced,
            traced: o.phases.iter().any(|p| p.traced).then_some(traced),
            phases,
        }
    }

    /// Ops attempted and failed over every timed phase.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let t = self.traced.as_ref();
        (
            self.untraced.ops + t.map_or(0, |t| t.ops),
            self.untraced.failed + t.map_or(0, |t| t.failed),
        )
    }
}

/// The mean of the middle half of `v` (all of it below four values);
/// 0 when empty.
fn interquartile_mean(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// The median (the mean of the middle two of an even count); 0 when empty.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn median_setup(o: &Outcome, f: fn(&SetupTimes) -> f64) -> f64 {
    median(o.setups.iter().map(f).collect())
}

/// The end-to-end metrics, under the names `BENCHMARK.json` declares.
pub fn end_to_end(o: &Outcome, s: &Summary) -> Vec<Metric> {
    vec![
        m("setup_s", median_setup(o, |t| t.total_s), "s"),
        m("latency_p50_us", s.untraced.p50_us, "us"),
        m("ops_per_s", s.untraced.ops_per_s, "1/s"),
        m("peak_rss_mib", o.peak_rss_mib, "MiB"),
    ]
}

/// The end-to-end metrics under their per-workload names.
fn named_end_to_end(w: &Workload, o: &Outcome, s: &Summary) -> Vec<Metric> {
    let (attempted, failed) = s.attempted_failed();
    let mut out = vec![
        m("setup_s", median_setup(o, |t| t.total_s), "s"),
        m("failed_frac", ratio(failed, attempted), "failed/op"),
        m("peak_rss_mib", o.peak_rss_mib, "MiB"),
        m(&format!("{}_p50_us", w.latency), s.untraced.p50_us, "us"),
        m(&format!("{}_p90_us", w.latency), s.untraced.p90_us, "us"),
        m(&format!("{}_p99_us", w.latency), s.untraced.p99_us, "us"),
    ];
    if let Some((name, per_op, unit)) = w.rate {
        out.push(m(name, s.untraced.ops_per_s * per_op, unit));
    }
    out
}

/// Resident memory each world left behind after its teardown: the growth
/// from the first world's teardown to the last one's, per world.
fn retained_mib_per_world(o: &Outcome) -> f64 {
    match o.rss_after_mib.as_slice() {
        [first, .., last] => (last - first) / (o.rss_after_mib.len() - 1) as f64,
        _ => 0.0,
    }
}

/// Percentile `q` of the durations (µs) of the spans named in `names`.
fn span_pct(spans: &[Span], names: &[&str], q: f64) -> f64 {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    percentile(&mut d, q)
}

/// The per-layer metrics: layer counters per op or message from the
/// untraced phases, span timings and self times from the traced ones.
pub fn per_layer(w: &Workload, o: &Outcome, s: &Summary) -> Vec<Metric> {
    let u = &s.untraced;
    let c = &u.counters;
    let ops = u.ops;
    let msgs = c.msgs_sent;
    let spans = &o.spans;
    let mut one_way = if w.sci { one_way_us(spans) } else { Vec::new() };
    let traced_p50 = s.traced.as_ref().map_or(0.0, |t| t.p50_us);
    let overhead_pct = if traced_p50 > 0.0 {
        (traced_p50 / u.p50_us - 1.0) * 100.0
    } else {
        0.0
    };
    let mut out = vec![
        m("reactor.fd_events_per_op", ratio(c.fd_events, ops), "1/op"),
        m("reactor.wakeups_per_op", ratio(c.wakeups, ops), "1/op"),
        m("reactor.task_runs_per_op", ratio(c.task_runs, ops), "1/op"),
        m("reactor.polls_per_op", ratio(c.polls, ops), "1/op"),
        m(
            "reactor.timer_fires_per_op",
            ratio(c.timer_fires, ops),
            "1/op",
        ),
        m(
            "reactor.msgs_per_task_run",
            ratio(msgs, c.task_runs),
            "msg/run",
        ),
        m("reactor.stalled_tasks", c.stalled_tasks as f64, "count"),
        m(
            "reactor.blocking_spawned",
            c.blocking_spawned as f64,
            "count",
        ),
        m("sci.one_way_us_p50", percentile(&mut one_way, 0.5), "us"),
        m("sci.one_way_us_p99", percentile(&mut one_way, 0.99), "us"),
        m(
            "request.submit_us_p50",
            span_pct(spans, &["send", "isend"], 0.5),
            "us",
        ),
        m(
            "request.send_wait_us_p50",
            span_pct(spans, &["send_wait"], 0.5),
            "us",
        ),
        m(
            "request.recv_wait_us_p50",
            span_pct(spans, &["recv_wait", "recv_view"], 0.5),
            "us",
        ),
        m(
            "connection.packets_per_msg",
            ratio(c.packets_sent, msgs),
            "1/msg",
        ),
        m("connection.acks_per_msg", ratio(c.acks_sent, msgs), "1/msg"),
        m(
            "connection.credits_per_msg",
            ratio(c.credits_granted, msgs),
            "1/msg",
        ),
        m(
            "connection.retransmissions",
            c.retransmissions as f64,
            "count",
        ),
        m("connection.send_failures", c.send_failures as f64, "count"),
        m("pool.allocs_per_msg", ratio(c.pool_misses, msgs), "1/msg"),
        m(
            "pool.hit_ratio",
            ratio(c.pool_hits, c.pool_checkouts),
            "ratio",
        ),
        m(
            "pool.discards_per_msg",
            ratio(c.pool_discards, msgs),
            "1/msg",
        ),
        m(
            "collectives.submit_us_p50",
            span_pct(spans, &["iallreduce"], 0.5),
            "us",
        ),
        m(
            "collectives.wait_us_p50",
            span_pct(spans, &["coll_wait"], 0.5),
            "us",
        ),
        m(
            "collectives.frames_per_op",
            ratio(c.coll_frames, ops),
            "1/op",
        ),
        m("collectives.bytes_per_op", ratio(c.coll_bytes, ops), "B/op"),
        m(
            "threads.context_switches_per_op",
            ratio(c.context_switches, ops),
            "1/op",
        ),
        m("threads.blocks_per_op", ratio(c.blocks, ops), "1/op"),
        m("threads.spawns", c.spawns as f64, "count"),
        m(
            "session.world_create_s",
            median_setup(o, |t| t.world_s),
            "s",
        ),
        m("session.connect_s", median_setup(o, |t| t.connect_s), "s"),
        m(
            "session.group_create_s",
            median_setup(o, |t| t.group_s),
            "s",
        ),
        m("process.cpu_us_per_op", ratio(c.cpu_us, ops), "us/op"),
        m("process.vol_ctxsw_per_op", ratio(c.vol_ctxsw, ops), "1/op"),
        m(
            "process.invol_ctxsw_per_op",
            ratio(c.invol_ctxsw, ops),
            "1/op",
        ),
        m(
            "process.rss_growth_kib_per_op",
            u.rss_growth_mib * 1024.0 / ops.max(1) as f64,
            "KiB/op",
        ),
        m(
            "process.retained_mib_per_world",
            retained_mib_per_world(o),
            "MiB",
        ),
        m("tail.latency_p90_us", u.p90_us, "us"),
        m("tail.latency_p99_us", u.p99_us, "us"),
        m(
            "host.steal_pct",
            100.0 * ratio(c.steal_ticks, c.cpu_ticks),
            "%",
        ),
        m("base.ops", ops as f64, "count"),
        m("base.msgs", msgs as f64, "count"),
        m("base.task_runs", c.task_runs as f64, "count"),
        m("base.latency_samples", u.samples as f64, "count"),
        m("base.spans", spans.len() as f64, "count"),
        m("trace.untraced_p50_us", u.p50_us, "us"),
        m("trace.traced_p50_us", traced_p50, "us"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ];
    let selfs = self_times(spans);
    for name in SPAN_NAMES {
        let mean = selfs
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count as f64);
        out.push(m(&format!("self_us.{name}"), mean, "us"));
    }
    out
}

/// The benchmark's self-checks: `(description, passed)`.
pub fn checks(w: &Workload, o: &Outcome, s: &Summary) -> Vec<(String, bool)> {
    let (attempted, failed) = s.attempted_failed();
    let all = |f: fn(&Counters) -> u64| o.phases.iter().map(|p| f(&p.counters)).sum::<u64>();
    let spawns = all(|c| c.spawns);
    let mut out = vec![
        (
            format!("outputs verified byte for byte ({} wrong)", o.wrong),
            o.wrong == 0,
        ),
        (
            format!("failed_frac = 0 ({failed} of {attempted} ops failed)"),
            failed == 0,
        ),
        (
            format!("threads.spawns = 0 in the timed windows ({spawns})"),
            spawns == 0,
        ),
    ];
    if !w.sci {
        let fd = all(|c| c.fd_events);
        out.push((format!("reactor.fd_events = 0 on HPI ({fd})"), fd == 0));
    }
    if w.bypass {
        let acks = all(|c| c.acks_sent);
        out.push((
            format!("connection.acks = 0 in bypass config ({acks})"),
            acks == 0,
        ));
    }
    if !w.collectives {
        let frames = all(|c| c.coll_frames);
        out.push((format!("collectives absent ({frames} frames)"), frames == 0));
    }
    out
}

/// Prints the human-readable report (everything but the final JSON line).
pub fn print(w: &Workload, o: &Outcome, s: &Summary, seed: u64, cpus: usize) {
    println!(
        "ncsbench {}: seed {seed}, {cpus} CPUs, {}, {} package, {}",
        w.name, w.path, w.package, w.config
    );
    for (ph, [p50, p90, p99, rate]) in o.phases.iter().zip(&s.phases) {
        println!(
            "  phase {:<8} {:>5.2} s {:>8} ops {rate:>10.1} ops/s  p50 {p50:>9.1}  p90 {p90:>9.1}  p99 {p99:>9.1} us  {} failed{}",
            if ph.traced { "traced" } else { "untraced" },
            ph.elapsed_s,
            ph.ops,
            ph.failed,
            if ph.aborted { " (ended early)" } else { "" }
        );
    }
    println!("end-to-end ({} set-ups, untraced phases):", o.setups.len());
    for metric in named_end_to_end(w, o, s) {
        let samples = if metric.name.ends_with("_us") {
            format!("  (n={})", s.untraced.samples)
        } else {
            String::new()
        };
        println!(
            "  {:<24} {:>14.4} {}{samples}",
            metric.name, metric.value, metric.unit
        );
    }
    let u = &s.untraced;
    println!(
        "per-layer (base: {} ops, {} msgs, {} task runs){}:",
        u.ops,
        u.counters.msgs_sent,
        u.counters.task_runs,
        if s.traced.is_some() {
            ""
        } else {
            "; span timings need --trace 1"
        }
    );
    for metric in per_layer(w, o, s) {
        if metric.name.starts_with("self_us.") {
            continue;
        }
        if metric.name.starts_with("collectives.") && !w.collectives {
            println!("  {:<32} absent", metric.name);
        } else {
            println!(
                "  {:<32} {:>14.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
    }
    if s.traced.is_some() {
        let selfs = self_times(&o.spans);
        let total: u64 = selfs.values().map(|t| t.self_ns).sum();
        println!("span self time (traced phases, {} spans):", o.spans.len());
        println!(
            "  {:<12} {:>9} {:>11} {:>10} {:>10} {:>7}",
            "span", "count", "self ms", "self us", "p50 us", "share"
        );
        for (name, t) in &selfs {
            let mut d = t.durations_us.clone();
            println!(
                "  {:<12} {:>9} {:>11.2} {:>10.3} {:>10.3} {:>6.1}%",
                name,
                t.count,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / 1e3 / t.count as f64,
                percentile(&mut d, 0.5),
                100.0 * ratio(t.self_ns, total)
            );
        }
    }
    println!("checks:");
    for (what, ok) in checks(w, o, s) {
        println!("  {} {what}", if ok { "PASS" } else { "FAIL" });
    }
}

/// The final result line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
