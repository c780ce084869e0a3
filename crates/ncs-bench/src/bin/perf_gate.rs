//! perf_gate — the data-plane performance gate CI tracks.
//!
//! Drives round-trip latency and bulk one-way throughput over all four
//! communication interfaces (HPI, PIPE, SCI, ACI) under both thread
//! packages (kernel-level and user-level), and writes the results to
//! `BENCH_dataplane.json`.
//!
//! Alongside time, the gate reports **allocations per message**, counted
//! through the node's [`BufPool`] statistics: every pool *checkout* is one
//! heap allocation the unpooled seed path performed at the same call site
//! (`Packet::encode` into a fresh `Vec`), while every pool *miss* is an
//! allocation the pooled path actually made. The ratio
//! `checkouts / misses` is therefore the measured allocation improvement
//! of the pooled data plane over the seed, and the run **fails** (exit 1)
//! unless the HPI bulk path shows at least [`GATE_MIN_IMPROVEMENT`]x.
//!
//! A second section drives the **collectives engine**: allreduce and
//! broadcast latency against group size over HPI, under both thread
//! packages, comparing the binomial-tree broadcast with the repetitive
//! flat multicast. The run fails unless the tree beats flat for every
//! group of at least [`COLL_GATE_MIN_GROUP`] members.
//!
//! An **mt_msgrate** section measures aggregate message rate when 1/2/4
//! application threads hammer one connection through per-thread
//! [`Channel`]s (HPI + SCI, both packages), and fails unless the
//! 4-thread aggregate on HPI under the kernel package clears a
//! parallelism-aware multiple of the 1-thread figure
//! ([`msgrate::scaling_threshold`]: 2.0x where the host offers >= 4
//! CPUs, degrading to a documented no-collapse bound on smaller hosts).
//!
//! A **sim** section drives the deterministic [`ncs_runtime::SimWorld`]
//! engine through a [`SIM_RANKS`]-rank broadcast + barrier scenario under
//! virtual time, reporting events/sec and wall time, and fails unless the
//! run stays under [`SIM_GATE_MAX_WALL_SECS`] *and* a second run with the
//! same seed reproduces the event trace and telemetry byte-for-byte.
//!
//! A **c10k** section holds [`C10K_CONNECTIONS`] simultaneous connections
//! open between two in-process nodes sharing one readiness reactor and
//! fails unless the OS thread count stays bounded (O(cores) event loops,
//! never threads-per-connection) and the p99 round-trip time across all
//! connections stays within [`C10K_MAX_P99_RATIO`] of the
//! [`C10K_BASELINE`]-connection figure.
//!
//! A **membership** section drives a real `ncsd` + [`MemberAgent`] world
//! of [`MEMBERSHIP_NP`] ranks over loopback through repeated silence →
//! death-view → rejoin → join-view cycles, and fails unless the median
//! failure-detection latency (victim silenced → death view applied by
//! the slowest survivor) stays within
//! [`MEMBERSHIP_GATE_MAX_DETECT_INTERVALS`] heartbeat intervals, the
//! median view-propagation latency (rejoin accepted → join view applied
//! by the slowest survivor) stays under [`MEMBERSHIP_GATE_MAX_PROP_MS`]
//! ms, and every survivor observed strictly increasing view epochs.
//!
//! [`MemberAgent`]: ncs_runtime::MemberAgent
//!
//! Usage: `perf_gate [--smoke] [--out PATH]`
//!
//! `--smoke` shrinks iteration counts for CI; `--out` overrides the output
//! path (default `BENCH_dataplane.json` in the current directory).
//!
//! [`BufPool`]: ncs_core::BufPool
//! [`Channel`]: ncs_core::Channel

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_bench::msgrate;
use ncs_collectives::{CollectiveGroup, ReduceOp, Topology};
use ncs_core::link::{AciLink, HpiLinkPair, PipeLinkPair, SciLink};
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, PoolStats};
use ncs_obs::json::Json;
use ncs_obs::obj;
use ncs_runtime::{ClusterConfig, ClusterNode, MembershipConfig, RendezvousServer};
use ncs_threads::sync::Event;
use ncs_threads::{
    KernelPackage, SwitchMech, ThreadPackage, ThreadPackageExt, UserConfig, UserRuntime,
};
use ncs_transport::pipe::PipeConfig;
use ncs_transport::sci::SciListener;

/// The acceptance threshold on the HPI bulk path's allocation improvement.
const GATE_MIN_IMPROVEMENT: f64 = 2.0;

/// Group sizes the collectives section sweeps.
const COLL_GROUP_SIZES: [usize; 3] = [2, 4, 8];

/// Elements per member in the allreduce latency probe.
const COLL_ALLREDUCE_ELEMS: usize = 64;

/// Broadcast payload (bytes) for the binomial-vs-flat comparison: large
/// enough that per-child fan-out work is visible next to the fixed
/// submit/complete handoff, small enough that a round's frames fit the
/// bounded send queues (no backpressure — the window must measure the
/// origin's own work, not downstream drain).
const COLL_BCAST_BYTES: usize = 32 * 1024;

/// Untimed rounds before each measured broadcast window (warms the buffer
/// pool's free lists and every thread's wake path, so the first topology
/// measured is not penalised).
const COLL_BCAST_WARMUP: usize = 4;

/// Groups of at least this size must show the binomial tree beating the
/// repetitive flat fan-out.
const COLL_GATE_MIN_GROUP: usize = 4;

/// Minimum origin-egress improvement (flat frames / binomial frames) the
/// tree must show for gated group sizes. The structural ratio is
/// `(n-1) / ⌈log₂ n⌉` — 1.5 at n=4 — so 1.3 leaves slack only for
/// bookkeeping traffic, not for a broken topology.
const COLL_GATE_MIN_EGRESS_RATIO: f64 = 1.3;

/// Latency probe payload (bytes).
const LAT_BYTES: usize = 64;

/// Bulk message size (bytes); four SDUs at the default 4 KB SDU.
const BULK_BYTES: usize = 16 * 1024;

/// End-of-phase sentinel (1 byte, distinguishable from every payload).
const SENTINEL: u8 = 0xFF;

/// Bulk warm-up messages before the measured window: enough frames to
/// charge the buffer pool's recycling window (the send queue plus a couple
/// of in-flight batches), so the measurement reports steady state.
const BULK_WARMUP: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Iface {
    Hpi,
    Pipe,
    Sci,
    Aci,
}

impl Iface {
    const ALL: [Iface; 4] = [Iface::Hpi, Iface::Pipe, Iface::Sci, Iface::Aci];

    fn name(self) -> &'static str {
        match self {
            Iface::Hpi => "HPI",
            Iface::Pipe => "PIPE",
            Iface::Sci => "SCI",
            Iface::Aci => "ACI",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Package {
    Kernel,
    User,
}

impl Package {
    const ALL: [Package; 2] = [Package::Kernel, Package::User];

    fn name(self) -> &'static str {
        match self {
            Package::Kernel => "kernel",
            Package::User => "user",
        }
    }

    /// Runs `case` on this package: directly on a fresh kernel-level
    /// package, or inside a user-level runtime.
    fn run<R: Send + 'static>(
        self,
        case: impl FnOnce(Arc<dyn ThreadPackage>) -> R + Send + 'static,
    ) -> R {
        match self {
            Package::Kernel => case(Arc::new(KernelPackage::new())),
            Package::User => UserRuntime::new(UserConfig {
                mech: SwitchMech::Native,
                ..UserConfig::default()
            })
            .run(move |pkg| case(Arc::new(pkg))),
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct BenchCfg {
    lat_iters: usize,
    bulk_msgs: usize,
}

#[derive(Debug)]
struct CaseResult {
    iface: &'static str,
    package: &'static str,
    lat_iters: usize,
    lat_median_us: f64,
    lat_p99_us: f64,
    bulk_msgs: usize,
    bulk_received: usize,
    bulk_secs: f64,
    bulk_mib_s: f64,
    pool: PoolStats,
    allocs_per_msg_seed_equiv: f64,
    allocs_per_msg_pooled: f64,
    alloc_improvement: f64,
}

impl CaseResult {
    fn to_json(&self) -> Json {
        let p = &self.pool;
        obj! {
            "interface": self.iface, "package": self.package,
            "latency": obj! {
                "iters": self.lat_iters, "median_us": self.lat_median_us, "p99_us": self.lat_p99_us,
            },
            "bulk": obj! {
                "messages": self.bulk_msgs, "received": self.bulk_received,
                "seconds": self.bulk_secs, "throughput_mib_s": self.bulk_mib_s,
                "pool": obj! {
                    "checkouts": p.checkouts, "hits": p.hits, "misses": p.misses,
                    "returns": p.returns, "discards": p.discards,
                },
                "allocs_per_msg_seed_equiv": self.allocs_per_msg_seed_equiv,
                "allocs_per_msg_pooled": self.allocs_per_msg_pooled,
                "alloc_improvement": self.alloc_improvement,
            },
        }
    }
}

/// Two connected NCS nodes over one interface, plus whatever must stay
/// alive for the link to work.
struct Pair {
    tx_node: NcsNode,
    rx_node: NcsNode,
    _fabric: Option<Arc<ncs_transport::aci::AciFabric>>,
}

impl Pair {
    fn shutdown(self) {
        self.tx_node.shutdown();
        self.rx_node.shutdown();
        if let Some(f) = self._fabric {
            f.shutdown();
        }
    }
}

/// Builds a connected node pair over `iface`; the sender node runs its NCS
/// threads on `pkg` (the receiver stands in for a remote process on the
/// default kernel package, as in the paper's experiments).
fn build_pair(iface: Iface, pkg: Arc<dyn ThreadPackage>) -> Pair {
    let tx_node = NcsNode::builder("gate-tx").thread_package(pkg).build();
    let rx_node = NcsNode::builder("gate-rx").build();
    let mut fabric = None;
    match iface {
        Iface::Hpi => {
            let (la, lb) = HpiLinkPair::with_capacity(1024);
            tx_node.attach_peer("gate-rx", la);
            rx_node.attach_peer("gate-tx", lb);
        }
        Iface::Pipe => {
            // A fast local pipe: generous buffer, instant drain.
            let wire = PipeConfig {
                buffer_bytes: 256 * 1024,
                drain_bytes_per_sec: None,
                latency: Duration::ZERO,
                time_scale: 1.0,
            };
            let (la, lb) = PipeLinkPair::create(wire, None, None);
            tx_node.attach_peer("gate-rx", la);
            rx_node.attach_peer("gate-tx", lb);
        }
        Iface::Sci => {
            let ltx = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind tx"));
            let lrx = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind rx"));
            let addr_tx = ltx.local_addr().expect("tx addr");
            let addr_rx = lrx.local_addr().expect("rx addr");
            tx_node.attach_peer("gate-rx", SciLink::new(addr_rx, ltx));
            rx_node.attach_peer("gate-tx", SciLink::new(addr_tx, lrx));
        }
        Iface::Aci => {
            use atm_sim::{LinkSpec, NetworkBuilder, PumpConfig, QosParams};
            use ncs_transport::aci::AciFabric;
            let net = NetworkBuilder::new()
                .host("gate-tx")
                .host("gate-rx")
                .switch("sw")
                .link("gate-tx", "sw", LinkSpec::oc3())
                .link("gate-rx", "sw", LinkSpec::oc3())
                .build()
                .expect("atm network");
            let fab = AciFabric::start(net, PumpConfig::default());
            let dev_tx = Arc::new(fab.device("gate-tx").expect("tx device"));
            let dev_rx = Arc::new(fab.device("gate-rx").expect("rx device"));
            tx_node.attach_peer(
                "gate-rx",
                AciLink::new(dev_tx, "gate-rx", QosParams::unspecified()),
            );
            rx_node.attach_peer(
                "gate-tx",
                AciLink::new(dev_rx, "gate-tx", QosParams::unspecified()),
            );
            fabric = Some(fab);
        }
    }
    Pair {
        tx_node,
        rx_node,
        _fabric: fabric,
    }
}

/// Connection configuration per phase: the §3.1 bypass for reliable wires
/// and for the latency probe; credit-based flow control plus selective
/// repeat where the interface itself can drop frames under load.
fn bulk_config(iface: Iface) -> ConnectionConfig {
    match iface {
        // HPI overruns and ACI cell loss make FC/EC mandatory for bulk.
        Iface::Hpi | Iface::Aci => ConnectionConfig::reliable(),
        // PIPE and SCI are reliable: NCS bypasses its control threads.
        Iface::Pipe | Iface::Sci => ConnectionConfig::unreliable(),
    }
}

/// Interfaces the mt_msgrate section sweeps (HPI = fastest in-process
/// path, SCI = real sockets).
const MSGRATE_IFACES: [Iface; 2] = [Iface::Hpi, Iface::Sci];

/// Messages per thread for one mt_msgrate point, per interface and mode
/// (multiples of the 64-message window).
fn msgrate_msgs(iface: Iface, smoke: bool) -> usize {
    match (iface, smoke) {
        (Iface::Hpi, false) => 64 * 512,
        (Iface::Hpi, true) => 64 * 32,
        (_, false) => 64 * 64,
        (_, true) => 64 * 8,
    }
}

#[derive(Debug)]
struct MsgRateCaseResult {
    iface: &'static str,
    package: &'static str,
    threads: usize,
    msgs_per_thread: usize,
    per_thread_mmsgs_s: Vec<f64>,
    aggregate_mmsgs_s: f64,
}

impl MsgRateCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "interface": self.iface, "package": self.package, "threads": self.threads,
            "msgs_per_thread": self.msgs_per_thread, "aggregate_mmsgs_s": self.aggregate_mmsgs_s,
            "per_thread_mmsgs_s": self.per_thread_mmsgs_s.clone(),
        }
    }
}

/// Runs one mt_msgrate point: `threads` sender/receiver thread pairs on
/// `pkg`, each pair on its own per-thread channel over one connection.
fn run_msgrate_case(
    iface: Iface,
    package: Package,
    pkg: Arc<dyn ThreadPackage>,
    threads: usize,
    msgs_per_thread: usize,
) -> MsgRateCaseResult {
    let pair = build_pair(iface, Arc::clone(&pkg));
    let conn_tx = pair
        .tx_node
        .connect("gate-rx", bulk_config(iface))
        .expect("msgrate connect");
    let conn_rx = pair.rx_node.accept_default().expect("msgrate accept");
    // One untimed window per channel charges the pool and wake paths.
    msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgrate::WINDOW_SIZE);
    let m = msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgs_per_thread);
    drop(conn_tx);
    drop(conn_rx);
    pair.shutdown();
    MsgRateCaseResult {
        iface: iface.name(),
        package: package.name(),
        threads: m.threads,
        msgs_per_thread: m.msgs_per_thread,
        per_thread_mmsgs_s: m.per_thread_mmsgs_s,
        aggregate_mmsgs_s: m.aggregate_mmsgs_s,
    }
}

/// The telemetry gate: with the flight recorder enabled (every message
/// stamps lifecycle events into the per-connection ring), the HPI message
/// rate must stay within this percentage of the kill-switch baseline
/// (recorder disabled — one relaxed load per would-be event, the
/// "compiled-out" cost floor).
const TELEMETRY_GATE_MAX_OVERHEAD_PCT: f64 = 5.0;

/// Measurement rounds per recorder state; the best round of each state is
/// compared, which cancels scheduler noise that a single pairing would
/// read as instrumentation cost.
const TELEMETRY_ROUNDS: usize = 3;

#[derive(Debug)]
struct TelemetryCaseResult {
    package: &'static str,
    threads: usize,
    msgs_per_thread: usize,
    enabled_mmsgs_s: f64,
    disabled_mmsgs_s: f64,
    overhead_pct: f64,
}

impl TelemetryCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "package": self.package, "threads": self.threads,
            "msgs_per_thread": self.msgs_per_thread,
            "enabled_mmsgs_s": self.enabled_mmsgs_s, "disabled_mmsgs_s": self.disabled_mmsgs_s,
            "overhead_pct": self.overhead_pct,
        }
    }
}

/// Measures the flight recorder's message-rate cost: the same msgrate
/// point with recording on versus off over one HPI connection.
fn run_telemetry_case(
    package: Package,
    pkg: Arc<dyn ThreadPackage>,
    smoke: bool,
) -> TelemetryCaseResult {
    let threads = 1;
    let msgs = msgrate_msgs(Iface::Hpi, smoke);
    let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
    let conn_tx = pair
        .tx_node
        .connect("gate-rx", bulk_config(Iface::Hpi))
        .expect("telemetry connect");
    let conn_rx = pair.rx_node.accept_default().expect("telemetry accept");
    msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgrate::WINDOW_SIZE);
    let mut best_on: f64 = 0.0;
    let mut best_off: f64 = 0.0;
    for _ in 0..TELEMETRY_ROUNDS {
        for (on, best) in [(true, &mut best_on), (false, &mut best_off)] {
            conn_tx.set_flight_recording(on);
            conn_rx.set_flight_recording(on);
            let m = msgrate::measure(&conn_tx, &conn_rx, &pkg, threads, msgs);
            *best = best.max(m.aggregate_mmsgs_s);
        }
    }
    conn_tx.set_flight_recording(true);
    drop(conn_tx);
    drop(conn_rx);
    pair.shutdown();
    TelemetryCaseResult {
        package: package.name(),
        threads,
        msgs_per_thread: msgs,
        enabled_mmsgs_s: best_on,
        disabled_mmsgs_s: best_off,
        overhead_pct: (1.0 - best_on / best_off.max(f64::MIN_POSITIVE)) * 100.0,
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Echo server: returns every message until the 1-byte sentinel arrives,
/// then fires `done`.
fn spawn_echo(conn: NcsConnection, done: Arc<Event>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        loop {
            match conn.recv_timeout(Duration::from_secs(30)) {
                Ok(m) if m.len() == 1 && m[0] == SENTINEL => break,
                Ok(m) => {
                    if conn.send(&m).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        done.fire();
    })
}

/// Sink server: counts `expect` messages, firing `warmed` once the
/// warm-up prefix arrived and `done` once all arrived.
fn spawn_sink(
    conn: NcsConnection,
    expect: usize,
    received: Arc<AtomicUsize>,
    warmed: Arc<Event>,
    done: Arc<Event>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while conn.recv_timeout(Duration::from_secs(30)).is_ok() {
            let n = received.fetch_add(1, Ordering::Relaxed) + 1;
            if n == BULK_WARMUP {
                warmed.fire();
            }
            if n >= expect {
                break;
            }
        }
        done.fire();
    })
}

/// Runs one interface × package combination. Everything here blocks only
/// through package-aware primitives (mailboxes, events), so the same code
/// runs as the root green thread of the user-level runtime.
fn run_case(
    iface: Iface,
    package: Package,
    pkg: Arc<dyn ThreadPackage>,
    cfg: BenchCfg,
) -> CaseResult {
    // --- Phase 1: round-trip latency over the bypass configuration. -----
    let pair = build_pair(iface, Arc::clone(&pkg));
    let conn_tx = pair
        .tx_node
        .connect("gate-rx", ConnectionConfig::unreliable())
        .expect("latency connect");
    let conn_rx = pair.rx_node.accept_default().expect("latency accept");
    let echo_done = Arc::new(Event::new());
    let echo = spawn_echo(conn_rx, Arc::clone(&echo_done));
    let payload = vec![0xA5u8; LAT_BYTES];
    // Warm-up: fills the pipeline and the buffer pool's free lists.
    conn_tx.send(&payload).expect("warmup send");
    let _ = conn_tx
        .recv_timeout(Duration::from_secs(10))
        .expect("warmup recv");
    let mut rtts_us = Vec::with_capacity(cfg.lat_iters);
    for _ in 0..cfg.lat_iters {
        let t0 = Instant::now();
        conn_tx.send(&payload).expect("latency send");
        let back = conn_tx
            .recv_timeout(Duration::from_secs(10))
            .expect("latency recv");
        rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(back.len(), LAT_BYTES, "echo length mismatch");
    }
    conn_tx.send(&[SENTINEL]).expect("latency sentinel");
    // Wait cooperatively (a bare join would block the green scheduler).
    echo_done.wait_timeout(Duration::from_secs(30));
    let _ = echo.join();
    rtts_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let lat_median_us = percentile(&rtts_us, 0.50);
    let lat_p99_us = percentile(&rtts_us, 0.99);
    pair.shutdown();

    // --- Phase 2: bulk one-way throughput + allocations per message. ----
    let pair = build_pair(iface, pkg);
    let conn_tx = pair
        .tx_node
        .connect("gate-rx", bulk_config(iface))
        .expect("bulk connect");
    let conn_rx = pair.rx_node.accept_default().expect("bulk accept");
    let received = Arc::new(AtomicUsize::new(0));
    let warmup_seen = Arc::new(Event::new());
    let sink_done = Arc::new(Event::new());
    // The sink expects the warm-up prefix plus the measured batch.
    let sink = spawn_sink(
        conn_rx,
        cfg.bulk_msgs + BULK_WARMUP,
        Arc::clone(&received),
        Arc::clone(&warmup_seen),
        Arc::clone(&sink_done),
    );
    let payload = vec![0xB7u8; BULK_BYTES];
    // Warm-up burst, outside the measured window and the pool delta
    // (the wait is cooperative: green threads keep the pipeline moving).
    for _ in 0..BULK_WARMUP {
        conn_tx.send(&payload).expect("bulk warmup");
    }
    assert!(
        warmup_seen.wait_timeout(Duration::from_secs(60)),
        "bulk warm-up never arrived"
    );
    let pool_before = pair.tx_node.pool_stats();
    let t0 = Instant::now();
    for _ in 0..cfg.bulk_msgs {
        conn_tx.send(&payload).expect("bulk send");
    }
    sink_done.wait_timeout(Duration::from_secs(120));
    let bulk_secs = t0.elapsed().as_secs_f64();
    let pool = pair.tx_node.pool_stats().since(&pool_before);
    let _ = sink.join();
    let bulk_received = received.load(Ordering::Relaxed).saturating_sub(BULK_WARMUP);
    pair.shutdown();

    let msgs = cfg.bulk_msgs as f64;
    let allocs_per_msg_seed_equiv = pool.checkouts as f64 / msgs;
    let allocs_per_msg_pooled = pool.misses as f64 / msgs;
    let alloc_improvement = pool.checkouts as f64 / pool.misses.max(1) as f64;
    CaseResult {
        iface: iface.name(),
        package: package.name(),
        lat_iters: cfg.lat_iters,
        lat_median_us,
        lat_p99_us,
        bulk_msgs: cfg.bulk_msgs,
        bulk_received,
        bulk_secs,
        bulk_mib_s: (bulk_received as f64 * BULK_BYTES as f64) / bulk_secs / (1024.0 * 1024.0),
        pool,
        allocs_per_msg_seed_equiv,
        allocs_per_msg_pooled,
        alloc_improvement,
    }
}

// ---------------------------------------------------------------------------
// Collectives section
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct CollCaseResult {
    package: &'static str,
    group_size: usize,
    allreduce_iters: usize,
    allreduce_median_us: f64,
    bcast_rounds: usize,
    /// Root-side broadcast cost per round (blocking call at the origin).
    bcast_root_binomial_us: f64,
    bcast_root_flat_us: f64,
    /// Fence-confirmed completion per round (until every member holds the
    /// payload).
    bcast_done_binomial_us: f64,
    bcast_done_flat_us: f64,
    /// Data frames the origin transmitted during each topology's window —
    /// the paper's spanning-tree claim (O(log n) copies instead of n-1),
    /// measured from the root's connection counters.
    root_frames_binomial: u64,
    root_frames_flat: u64,
    /// Origin egress improvement: flat frames / binomial frames.
    egress_ratio: f64,
}

impl CollCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "package": self.package, "group_size": self.group_size,
            "allreduce": obj! {
                "iters": self.allreduce_iters, "median_us": self.allreduce_median_us,
            },
            "broadcast": obj! {
                "rounds": self.bcast_rounds,
                "root_binomial_us": self.bcast_root_binomial_us,
                "root_flat_us": self.bcast_root_flat_us,
                "done_binomial_us": self.bcast_done_binomial_us,
                "done_flat_us": self.bcast_done_flat_us,
                "root_frames_binomial": self.root_frames_binomial,
                "root_frames_flat": self.root_frames_flat, "egress_ratio": self.egress_ratio,
            },
        }
    }
}

/// Builds an `n`-member collective group over an HPI full mesh, every node
/// on `pkg`.
fn build_coll_members(
    n: usize,
    pkg: &Arc<dyn ThreadPackage>,
) -> (Vec<NcsNode>, Vec<Arc<CollectiveGroup>>, Vec<NcsConnection>) {
    let nodes: Vec<NcsNode> = (0..n)
        .map(|i| {
            NcsNode::builder(&format!("coll{i}"))
                .thread_package(Arc::clone(pkg))
                .build()
        })
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let (li, lj) = HpiLinkPair::with_capacity(4096);
            nodes[i].attach_peer(&format!("coll{j}"), li);
            nodes[j].attach_peer(&format!("coll{i}"), lj);
        }
    }
    let mut conns: Vec<HashMap<usize, NcsConnection>> = (0..n).map(|_| HashMap::new()).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let cij = nodes[i]
                .connect(&format!("coll{j}"), ConnectionConfig::unreliable())
                .expect("collectives connect");
            let cji = nodes[j].accept_default().expect("collectives accept");
            conns[i].insert(j, cij);
            conns[j].insert(i, cji);
        }
    }
    let root_conns: Vec<NcsConnection> = conns[0].values().cloned().collect();
    let groups = nodes
        .iter()
        .zip(conns)
        .enumerate()
        .map(|(rank, (node, links))| {
            Arc::new(CollectiveGroup::new(node, 1, rank, links).expect("collective group"))
        })
        .collect();
    (nodes, groups, root_conns)
}

/// The schedule every member runs; rank 0 (the caller's thread, with its
/// group-link clones in `root_conns`) returns the timings: allreduce
/// median, then per broadcast topology the root's blocking cost per
/// round, the fence-confirmed completion per round (the closing 1-element
/// allreduce cannot finish until every member consumed the batch), and
/// the data frames the origin transmitted in the window.
fn coll_schedule(
    rank: usize,
    g: &CollectiveGroup,
    root_conns: &[NcsConnection],
    lat_iters: usize,
    bcast_rounds: usize,
) -> (f64, [(f64, f64, u64); 2]) {
    let bcast_elems = COLL_BCAST_BYTES / 8;
    // Allreduce latency (inherently synchronised; measured at rank 0).
    let contrib = vec![rank as f64 + 1.0; COLL_ALLREDUCE_ELEMS];
    let mut lat_us = Vec::with_capacity(lat_iters);
    for _ in 0..lat_iters {
        let t0 = Instant::now();
        let s = g
            .allreduce(contrib.clone(), ReduceOp::Sum)
            .expect("allreduce");
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
        debug_assert!(s.len() == COLL_ALLREDUCE_ELEMS);
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let allreduce_median_us = percentile(&lat_us, 0.50);
    // Broadcast: binomial tree vs repetitive flat fan-out.
    let mut per_topo = [(0.0f64, 0.0f64, 0u64); 2];
    for (slot, topo) in [Topology::BinomialTree, Topology::Flat]
        .into_iter()
        .enumerate()
    {
        for _ in 0..COLL_BCAST_WARMUP {
            let buf = vec![0u64; bcast_elems];
            g.broadcast_with(0, buf, topo).expect("warmup broadcast");
        }
        let fence = g
            .allreduce(vec![1.0f64], ReduceOp::Sum)
            .expect("warmup fence");
        debug_assert!(fence[0] >= 1.0);
        let frames_before: u64 = root_conns.iter().map(|c| c.stats().packets_sent).sum();
        let t0 = Instant::now();
        for round in 0..bcast_rounds {
            let buf: Vec<u64> = if rank == 0 {
                vec![round as u64; bcast_elems]
            } else {
                vec![0u64; bcast_elems]
            };
            let got = g.broadcast_with(0, buf, topo).expect("broadcast");
            debug_assert!(got[0] == round as u64);
        }
        let root_us = t0.elapsed().as_secs_f64() * 1e6 / bcast_rounds as f64;
        let fence = g.allreduce(vec![1.0f64], ReduceOp::Sum).expect("fence");
        debug_assert!(fence[0] >= 1.0);
        let done_us = t0.elapsed().as_secs_f64() * 1e6 / bcast_rounds as f64;
        // The fence guarantees every queued frame was transmitted, so the
        // counter delta is the window's complete origin egress.
        let frames_after: u64 = root_conns.iter().map(|c| c.stats().packets_sent).sum();
        per_topo[slot] = (root_us, done_us, frames_after - frames_before);
    }
    (allreduce_median_us, per_topo)
}

fn run_coll_case(
    group_size: usize,
    package: Package,
    pkg: Arc<dyn ThreadPackage>,
    smoke: bool,
) -> CollCaseResult {
    let (lat_iters, bcast_rounds) = if smoke { (40, 12) } else { (200, 32) };
    let (nodes, groups, root_conns) = build_coll_members(group_size, &pkg);
    // Ranks 1.. run on package threads; rank 0 measures on this thread.
    let members: Vec<_> = groups
        .iter()
        .enumerate()
        .skip(1)
        .map(|(rank, g)| {
            let g = Arc::clone(g);
            pkg.spawn_typed(&format!("coll-member-{rank}"), move || {
                coll_schedule(rank, &g, &[], lat_iters, bcast_rounds);
            })
        })
        .collect();
    let (allreduce_median_us, per_topo) =
        coll_schedule(0, &groups[0], &root_conns, lat_iters, bcast_rounds);
    for m in members {
        m.join().expect("collective member");
    }
    drop(groups);
    for node in nodes {
        node.shutdown();
    }
    let (bcast_root_binomial_us, bcast_done_binomial_us, root_frames_binomial) = per_topo[0];
    let (bcast_root_flat_us, bcast_done_flat_us, root_frames_flat) = per_topo[1];
    CollCaseResult {
        package: package.name(),
        group_size,
        allreduce_iters: lat_iters,
        allreduce_median_us,
        bcast_rounds,
        bcast_root_binomial_us,
        bcast_root_flat_us,
        bcast_done_binomial_us,
        bcast_done_flat_us,
        root_frames_binomial,
        root_frames_flat,
        egress_ratio: root_frames_flat as f64 / root_frames_binomial.max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// Requests section (isend/irecv vs the blocking wrappers; MsgView vs recv)
// ---------------------------------------------------------------------------

/// Ping-pong payload for the request-vs-blocking RTT probe (bytes).
const REQ_LAT_BYTES: usize = 64;

/// One-way message size for the allocations probe (bytes); fits one SDU,
/// so each message costs the receive path exactly one delivery buffer.
const REQ_BULK_BYTES: usize = 2048;

/// Messages per paced window of the allocations probe. The sink
/// acknowledges each window with a 1-byte token before the sender
/// continues, bounding the delivery buffers outstanding at any moment —
/// the probe measures steady-state recycling, not how far an unpaced
/// burst can outrun one consumer thread.
const REQ_WINDOW: usize = 32;

/// Warm-up windows before each allocations measurement (charges the
/// receive node's free lists so the window reports steady state).
const REQ_WARMUP_WINDOWS: usize = 3;

/// The zero-copy receive path must allocate at least this factor fewer
/// buffers per message than the `Vec`-returning `recv` path. `recv`
/// detaches every pooled delivery buffer (≈ 1 allocation per message);
/// dropping a `MsgView` recycles it (≈ 0 after warm-up), so 2x is a
/// floor with a wide margin, not a stretch goal.
const REQ_GATE_MIN_RATIO: f64 = 2.0;

#[derive(Debug)]
struct RequestsCaseResult {
    package: &'static str,
    lat_iters: usize,
    blocking_rtt_median_us: f64,
    blocking_rtt_p99_us: f64,
    request_rtt_median_us: f64,
    request_rtt_p99_us: f64,
    bulk_msgs: usize,
    /// Receive-node pool misses per message when draining with `recv()`
    /// (every delivery buffer detaches with the returned `Vec`).
    allocs_per_msg_recv: f64,
    /// Same window drained with `irecv`/`recv_view` + drop (buffers
    /// recycle).
    allocs_per_msg_msgview: f64,
    /// recv misses / max(msgview misses, 1).
    alloc_ratio: f64,
}

impl RequestsCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "package": self.package,
            "rtt": obj! {
                "iters": self.lat_iters,
                "blocking_median_us": self.blocking_rtt_median_us,
                "blocking_p99_us": self.blocking_rtt_p99_us,
                "request_median_us": self.request_rtt_median_us,
                "request_p99_us": self.request_rtt_p99_us,
            },
            "allocs": obj! {
                "messages": self.bulk_msgs, "per_msg_recv": self.allocs_per_msg_recv,
                "per_msg_msgview": self.allocs_per_msg_msgview, "ratio": self.alloc_ratio,
            },
        }
    }
}

/// Echo peer for the RTT phases: bounces `count` messages back.
fn spawn_request_echo(conn: NcsConnection, count: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for _ in 0..count {
            match conn.recv_view(Duration::from_secs(30)) {
                Ok(m) => {
                    if conn.send(&m).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    })
}

/// Sink for the allocations phases: drains `windows` windows of
/// [`REQ_WINDOW`] messages in the given style, acknowledging each window
/// with a token so the sender stays paced, then fires `done`.
fn spawn_request_sink(
    conn: NcsConnection,
    windows: usize,
    zero_copy: bool,
    done: Arc<Event>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        'outer: for _ in 0..windows {
            for _ in 0..REQ_WINDOW {
                if zero_copy {
                    // MsgView path: the pooled delivery buffer recycles
                    // on drop.
                    if conn.recv_view(Duration::from_secs(30)).is_err() {
                        break 'outer;
                    }
                } else {
                    // Compatibility path: recv() detaches the buffer as
                    // a Vec.
                    if conn.recv_timeout(Duration::from_secs(30)).is_err() {
                        break 'outer;
                    }
                }
            }
            if conn.send(&[0xA1]).is_err() {
                break;
            }
        }
        done.fire();
    })
}

/// Sender half of one paced allocations phase: `windows` windows of
/// [`REQ_WINDOW`] messages, each acknowledged by the sink's token.
fn drive_request_windows(conn_tx: &NcsConnection, payload: &[u8], windows: usize) {
    for _ in 0..windows {
        for _ in 0..REQ_WINDOW {
            conn_tx.send(payload).expect("bulk send");
        }
        let token = conn_tx
            .recv_timeout(Duration::from_secs(30))
            .expect("window token");
        debug_assert_eq!(token.len(), 1);
    }
}

/// Measures one package's requests case over HPI (the §3.1 bypass, where
/// receives reassemble straight into pooled buffers).
fn run_requests_case(
    package: Package,
    pkg: Arc<dyn ThreadPackage>,
    smoke: bool,
) -> RequestsCaseResult {
    let lat_iters = if smoke { 60 } else { 400 };
    let bulk_msgs: usize = if smoke { 160 } else { 1024 };

    // --- RTT: blocking send/recv vs isend/irecv on the same wire. --------
    let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
    let conn_tx = pair
        .tx_node
        .connect("gate-rx", ConnectionConfig::unreliable())
        .expect("requests connect");
    let conn_rx = pair.rx_node.accept_default().expect("requests accept");
    let echo = spawn_request_echo(conn_rx, 2 * lat_iters + 2);
    let payload = vec![0xD4u8; REQ_LAT_BYTES];

    // Warm-up + blocking window.
    conn_tx.send(&payload).expect("warmup send");
    let _ = conn_tx
        .recv_timeout(Duration::from_secs(10))
        .expect("warmup recv");
    let mut blocking_us = Vec::with_capacity(lat_iters);
    for _ in 0..lat_iters {
        let t0 = Instant::now();
        conn_tx.send(&payload).expect("blocking send");
        let back = conn_tx
            .recv_timeout(Duration::from_secs(10))
            .expect("blocking recv");
        blocking_us.push(t0.elapsed().as_secs_f64() * 1e6);
        debug_assert_eq!(back.len(), REQ_LAT_BYTES);
    }

    // Request window: post irecv before isend, wait the pair.
    conn_tx.send(&payload).expect("warmup send");
    let _ = conn_tx
        .recv_timeout(Duration::from_secs(10))
        .expect("warmup recv");
    let mut request_us = Vec::with_capacity(lat_iters);
    for _ in 0..lat_iters {
        let t0 = Instant::now();
        let want = conn_tx.irecv();
        let sent = conn_tx.isend(&payload).expect("isend");
        sent.wait_timeout(Duration::from_secs(10))
            .expect("isend completion");
        let back = want
            .wait_timeout(Duration::from_secs(10))
            .expect("irecv completion");
        request_us.push(t0.elapsed().as_secs_f64() * 1e6);
        debug_assert_eq!(back.len(), REQ_LAT_BYTES);
    }
    let _ = echo.join();
    pair.shutdown();
    blocking_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    request_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));

    // --- Allocations per message: recv() vs MsgView, paced one-way. ------
    let windows = bulk_msgs.div_ceil(REQ_WINDOW);
    let bulk_msgs = windows * REQ_WINDOW;
    let mut allocs = [0.0f64; 2]; // [recv, msgview]
    for (slot, zero_copy) in [false, true].into_iter().enumerate() {
        let pair = build_pair(Iface::Hpi, Arc::clone(&pkg));
        let conn_tx = pair
            .tx_node
            .connect("gate-rx", ConnectionConfig::unreliable())
            .expect("bulk connect");
        let conn_rx = pair.rx_node.accept_default().expect("bulk accept");
        let payload = vec![0xE5u8; REQ_BULK_BYTES];
        let rx_node = pair.rx_node.clone();
        let done = Arc::new(Event::new());
        let sink = spawn_request_sink(
            conn_rx,
            REQ_WARMUP_WINDOWS + windows,
            zero_copy,
            Arc::clone(&done),
        );
        // Warm-up in the same consumption style, then snapshot.
        drive_request_windows(&conn_tx, &payload, REQ_WARMUP_WINDOWS);
        let before = rx_node.pool_stats();
        drive_request_windows(&conn_tx, &payload, windows);
        assert!(
            done.wait_timeout(Duration::from_secs(120)),
            "request bulk never drained"
        );
        let delta = rx_node.pool_stats().since(&before);
        let _ = sink.join();
        allocs[slot] = delta.misses as f64 / bulk_msgs as f64;
        pair.shutdown();
    }
    let [allocs_per_msg_recv, allocs_per_msg_msgview] = allocs;
    let alloc_ratio = (allocs_per_msg_recv * bulk_msgs as f64)
        / (allocs_per_msg_msgview * bulk_msgs as f64).max(1.0);

    RequestsCaseResult {
        package: package.name(),
        lat_iters,
        blocking_rtt_median_us: percentile(&blocking_us, 0.50),
        blocking_rtt_p99_us: percentile(&blocking_us, 0.99),
        request_rtt_median_us: percentile(&request_us, 0.50),
        request_rtt_p99_us: percentile(&request_us, 0.99),
        bulk_msgs,
        allocs_per_msg_recv,
        allocs_per_msg_msgview,
        alloc_ratio,
    }
}

// ---------------------------------------------------------------------------
// SimWorld section (the deterministic thousand-rank engine)
// ---------------------------------------------------------------------------

/// World size of the sim perf case.
const SIM_RANKS: u32 = 1000;

/// Seed of the sim perf case (any value works; fixed so the snapshot's
/// event count is reproducible to the byte).
const SIM_SEED: u64 = 2026;

/// The wall-time gate: the 1,000-rank broadcast + barrier scenario must
/// complete in under this many seconds of real time (the ISSUE bound is
/// 60 s for a full allreduce world; this engine does it in milliseconds,
/// so the gate guards against pathological regressions, not noise).
const SIM_GATE_MAX_WALL_SECS: f64 = 60.0;

#[derive(Debug)]
struct SimCaseResult {
    scenario: &'static str,
    ranks: u32,
    seed: u64,
    events_processed: u64,
    virtual_ms: f64,
    wall_secs: f64,
    events_per_sec: f64,
    /// Second run with the same seed reproduced trace + telemetry
    /// byte-for-byte.
    deterministic: bool,
}

impl SimCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "engine": "SimWorld",
            "cases": vec![obj! {
                "scenario": self.scenario, "ranks": self.ranks, "seed": self.seed,
                "events_processed": self.events_processed, "virtual_ms": self.virtual_ms,
                "wall_secs": self.wall_secs, "events_per_sec": self.events_per_sec,
            }],
        }
    }
}

fn run_sim_case() -> SimCaseResult {
    use ncs_runtime::sim::{Scenario, SimOp};
    let mut scenario = Scenario::new("perf-broadcast", SIM_RANKS, SIM_SEED);
    scenario.ops = vec![
        SimOp::Broadcast {
            root: 0,
            timeout: Duration::from_secs(30),
        },
        SimOp::Barrier {
            timeout: Duration::from_secs(30),
        },
    ];
    let started = Instant::now();
    let report = ncs_runtime::SimWorld::new(scenario.clone()).run();
    let wall_secs = started.elapsed().as_secs_f64();
    let second = ncs_runtime::SimWorld::new(scenario).run();
    let deterministic = report.all_completed()
        && second.trace == report.trace
        && second.telemetry_json == report.telemetry_json;
    SimCaseResult {
        scenario: "perf-broadcast",
        ranks: SIM_RANKS,
        seed: SIM_SEED,
        events_processed: report.events_processed,
        virtual_ms: report.virtual_elapsed.as_secs_f64() * 1e3,
        wall_secs,
        events_per_sec: report.events_processed as f64 / wall_secs.max(f64::MIN_POSITIVE),
        deterministic,
    }
}

// ---------------------------------------------------------------------------
// Cross-process cluster section (real sockets between real OS processes)
// ---------------------------------------------------------------------------

/// World sizes the cluster section sweeps.
const CLUSTER_WORLDS: [u32; 2] = [2, 4];

/// RTT probe payload between ranks 0 and 1 (bytes).
const CLUSTER_RTT_BYTES: usize = 64;

/// Elements per member in the cross-process allreduce probe.
const CLUSTER_ALLREDUCE_ELEMS: usize = 64;

#[derive(Debug)]
struct ClusterCaseResult {
    np: u32,
    rtt_iters: usize,
    rtt_median_us: f64,
    rtt_p99_us: f64,
    allreduce_iters: usize,
    allreduce_median_us: f64,
    /// Child ranks that exited 0 (the parent is rank 0 and not counted).
    children_ok: usize,
}

impl ClusterCaseResult {
    fn to_json(&self) -> Json {
        obj! {
            "np": self.np, "children_ok": self.children_ok,
            "rtt": obj! {
                "iters": self.rtt_iters, "median_us": self.rtt_median_us, "p99_us": self.rtt_p99_us,
            },
            "allreduce": obj! {
                "iters": self.allreduce_iters, "median_us": self.allreduce_median_us,
            },
        }
    }
}

fn cluster_iters(smoke: bool) -> (usize, usize) {
    if smoke {
        (40, 20)
    } else {
        (200, 100)
    }
}

/// The schedule every rank of a cluster case runs. Ranks 0 and 1 first
/// ping-pong over a dedicated point-to-point connection (so the RTT is a
/// clean two-process socket round trip, not collective machinery), then
/// the whole world allreduces. Rank 0 returns the measurements.
fn cluster_schedule(cluster: &ClusterNode, smoke: bool) -> Option<(Vec<f64>, f64)> {
    let (rtt_iters, ar_iters) = cluster_iters(smoke);
    let rank = cluster.rank();
    let payload = vec![0xC3u8; CLUSTER_RTT_BYTES];
    let mut rtts_us = Vec::new();
    if rank == 0 {
        let conn = cluster
            .open_connection(1, ConnectionConfig::unreliable())
            .expect("rtt connect");
        // Warm-up exchange, outside the measured window.
        conn.send(&payload).expect("rtt warmup send");
        conn.recv_timeout(Duration::from_secs(30))
            .expect("rtt warmup recv");
        for _ in 0..rtt_iters {
            let t0 = Instant::now();
            conn.send(&payload).expect("rtt send");
            let back = conn
                .recv_timeout(Duration::from_secs(30))
                .expect("rtt recv");
            rtts_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(back.len(), CLUSTER_RTT_BYTES);
        }
        conn.send(&[SENTINEL]).expect("rtt sentinel");
    } else if rank == 1 {
        let conn = cluster
            .accept_connection(Duration::from_secs(30))
            .expect("rtt accept");
        loop {
            match conn.recv_timeout(Duration::from_secs(30)) {
                Ok(m) if m.len() == 1 && m[0] == SENTINEL => break,
                Ok(m) => conn.send(&m).expect("rtt echo"),
                Err(e) => panic!("rtt echo recv: {e}"),
            }
        }
    }
    // Cross-process allreduce over the whole world (the collectives
    // engine, unmodified, across OS processes).
    let group = cluster.collective_group(1).expect("cluster group");
    let contrib = vec![1.0f64; CLUSTER_ALLREDUCE_ELEMS];
    let mut ar_us = Vec::with_capacity(ar_iters);
    for _ in 0..ar_iters {
        let t0 = Instant::now();
        let sum = group
            .allreduce(contrib.clone(), ReduceOp::Sum)
            .expect("cluster allreduce");
        ar_us.push(t0.elapsed().as_secs_f64() * 1e6);
        // A hard assert (not debug_assert): the gate must verify the data
        // that crossed process boundaries, not just time it — a wrong sum
        // exits this rank nonzero and trips the cluster gate.
        assert!(
            sum.len() == CLUSTER_ALLREDUCE_ELEMS && sum.iter().all(|&v| v == cluster.size() as f64),
            "cross-process allreduce produced a wrong result on rank {rank}: {:?}",
            &sum[..sum.len().min(4)]
        );
    }
    group.barrier().expect("cluster barrier");
    drop(group);
    if rank == 0 {
        rtts_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        ar_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Some((rtts_us, percentile(&ar_us, 0.50)))
    } else {
        None
    }
}

/// Runs as a spawned child rank (`perf_gate --cluster-child`): bootstrap
/// from the environment, run the schedule, exit.
fn run_cluster_child() -> ! {
    let smoke = std::env::var("NCS_GATE_SMOKE").as_deref() == Ok("1");
    let cfg = ClusterConfig::from_env().expect("cluster child env");
    let cluster = ClusterNode::bootstrap(cfg).expect("cluster child bootstrap");
    cluster_schedule(&cluster, smoke);
    cluster.shutdown();
    std::process::exit(0);
}

/// One cross-process case: this process embeds the rendezvous service and
/// runs rank 0; ranks `1..np` are real spawned OS processes (this same
/// binary with `--cluster-child`).
fn run_cluster_case(np: u32, smoke: bool) -> ClusterCaseResult {
    let server = RendezvousServer::start("127.0.0.1:0", np).expect("embedded ncsd");
    let me = std::env::current_exe().expect("current exe");
    let mut children: Vec<std::process::Child> = (1..np)
        .map(|rank| {
            std::process::Command::new(&me)
                .arg("--cluster-child")
                .env("NCS_RANK", rank.to_string())
                .env("NCS_WORLD", np.to_string())
                .env("NCS_NCSD", server.addr().to_string())
                .env("NCS_GATE_SMOKE", if smoke { "1" } else { "0" })
                .stdout(std::process::Stdio::null())
                .spawn()
                .expect("spawn cluster child")
        })
        .collect();
    let cluster =
        ClusterNode::bootstrap(ClusterConfig::new(0, np, server.addr())).expect("rank 0 bootstrap");
    let (rtts_us, allreduce_median_us) =
        cluster_schedule(&cluster, smoke).expect("rank 0 measures");
    cluster.shutdown();
    // Reap under a deadline: one hung child must not hang the gate.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut children_ok = 0;
    let mut done = vec![false; children.len()];
    while !done.iter().all(|&d| d) && Instant::now() < deadline {
        for (c, d) in children.iter_mut().zip(done.iter_mut()) {
            if *d {
                continue;
            }
            if let Ok(Some(status)) = c.try_wait() {
                *d = true;
                if status.success() {
                    children_ok += 1;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    for (c, d) in children.iter_mut().zip(done.iter()) {
        if !*d {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
    let (rtt_iters, ar_iters) = cluster_iters(smoke);
    ClusterCaseResult {
        np,
        rtt_iters,
        rtt_median_us: percentile(&rtts_us, 0.50),
        rtt_p99_us: percentile(&rtts_us, 0.99),
        allreduce_iters: ar_iters,
        allreduce_median_us,
        children_ok,
    }
}

// ---------------------------------------------------------------------------
// c10k section: connection scalability under the readiness reactor.
// ---------------------------------------------------------------------------

/// Connections the c10k section holds open concurrently (both nodes live
/// in this process, so 2x this many endpoints ride the shared reactor).
const C10K_CONNECTIONS: usize = 1024;

/// Baseline connection count whose p99 RTT anchors the latency gate.
const C10K_BASELINE: usize = 8;

/// HPI ring capacity per c10k channel, in frames. Deliberately small:
/// 2 x 1024 channels exist at once and each probe has one frame in flight.
const C10K_RING: usize = 32;

/// Ceiling on the process's OS thread count while every c10k connection
/// is open. The Figure-4 design spent five threads per connection — over
/// 5,000 threads here; the reactor multiplexes every connection onto
/// O(cores) event loops plus the O(peers) control plane, so the whole
/// process stays far under this bound.
const C10K_MAX_THREADS: usize = 128;

/// The loaded p99 RTT may be at most this multiple of the baseline p99.
const C10K_MAX_P99_RATIO: f64 = 2.0;

#[derive(Debug)]
struct C10kResult {
    rtt_iters: usize,
    baseline_median_us: f64,
    baseline_p99_us: f64,
    loaded_median_us: f64,
    loaded_p99_us: f64,
    p99_ratio: f64,
    os_threads_baseline: usize,
    os_threads_loaded: usize,
    reactor: ncs_core::ReactorStats,
}

impl C10kResult {
    fn to_json(&self) -> Json {
        let (iters, r) = (self.rtt_iters, &self.reactor);
        obj! {
            "interface": "HPI", "connections": C10K_CONNECTIONS, "latency_bytes": LAT_BYTES,
            "baseline": obj! {
                "connections": C10K_BASELINE, "iters": iters, "median_us": self.baseline_median_us,
                "p99_us": self.baseline_p99_us, "os_threads": self.os_threads_baseline,
            },
            "loaded": obj! {
                "connections": C10K_CONNECTIONS, "iters": iters, "median_us": self.loaded_median_us,
                "p99_us": self.loaded_p99_us, "os_threads": self.os_threads_loaded,
            },
            "reactor": obj! {
                "workers": r.workers, "endpoints": r.endpoints, "polls": r.polls,
                "wakeups": r.wakeups, "task_runs": r.task_runs, "timer_fires": r.timer_fires,
                "fd_events": r.fd_events, "stalled_tasks": r.stalled_tasks,
                "blocking_spawned": r.blocking_spawned, "blocking_active": r.blocking_active,
            },
        }
    }
}

/// OS threads in this process, from procfs. 0 when the platform has no
/// `/proc` — the thread gate then rests on the reactor's own shard count.
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Round-robin ping-pong across connection pairs, driven from this thread
/// (HPI completes both directions synchronously, so one thread measures a
/// full application-level round trip). Returns sorted microseconds.
fn c10k_rtt(pairs: &[(NcsConnection, NcsConnection)], iters: usize) -> Vec<f64> {
    let payload = vec![0x42u8; LAT_BYTES];
    // One untimed round so every connection's reactor task has run at
    // least once before the measured window.
    for (ca, cb) in pairs {
        ca.send(&payload).expect("c10k warmup send");
        let m = cb
            .recv_timeout(Duration::from_secs(10))
            .expect("c10k warmup recv");
        cb.send(&m).expect("c10k warmup echo");
        ca.recv_timeout(Duration::from_secs(10))
            .expect("c10k warmup return");
    }
    let mut samples = Vec::with_capacity(iters);
    for k in 0..iters {
        let (ca, cb) = &pairs[k % pairs.len()];
        let t0 = Instant::now();
        ca.send(&payload).expect("c10k send");
        let m = cb.recv_timeout(Duration::from_secs(10)).expect("c10k recv");
        cb.send(&m).expect("c10k echo");
        ca.recv_timeout(Duration::from_secs(10))
            .expect("c10k return");
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
    samples
}

/// Holds [`C10K_CONNECTIONS`] connections open between two in-process
/// nodes sharing one reactor, and checks that (a) the OS thread count
/// stays O(cores) + O(peers) rather than O(connections), and (b) the p99
/// round-trip time across all connections stays within
/// [`C10K_MAX_P99_RATIO`] of the [`C10K_BASELINE`]-connection figure.
fn run_c10k_case(smoke: bool) -> C10kResult {
    let rtt_iters = if smoke {
        2 * C10K_CONNECTIONS
    } else {
        8 * C10K_CONNECTIONS
    };
    let pkg: Arc<dyn ThreadPackage> = Arc::new(KernelPackage::new());
    let reactor = ncs_core::Reactor::with_default_shards(Arc::clone(&pkg));
    let a = NcsNode::builder("c10k-a")
        .thread_package(Arc::clone(&pkg))
        .reactor(Arc::clone(&reactor))
        .build();
    let b = NcsNode::builder("c10k-b")
        .thread_package(Arc::clone(&pkg))
        .reactor(Arc::clone(&reactor))
        .build();
    let (la, lb) = HpiLinkPair::with_capacity(C10K_RING);
    a.attach_peer("c10k-b", la);
    b.attach_peer("c10k-a", lb);

    let open_pairs = |n: usize| -> Vec<(NcsConnection, NcsConnection)> {
        // Accepts queue autonomously on the peer's master thread, so one
        // thread can open then drain sequentially; arrival order matches
        // connect order on the single link.
        let ca: Vec<NcsConnection> = (0..n)
            .map(|_| {
                a.connect("c10k-b", ConnectionConfig::unreliable())
                    .expect("c10k connect")
            })
            .collect();
        ca.into_iter()
            .map(|c| (c, b.accept_default().expect("c10k accept")))
            .collect()
    };

    let mut pairs = open_pairs(C10K_BASELINE);
    let baseline = c10k_rtt(&pairs, rtt_iters);
    let os_threads_baseline = os_thread_count();

    eprintln!("  opening {} connections...", C10K_CONNECTIONS);
    pairs.extend(open_pairs(C10K_CONNECTIONS - C10K_BASELINE));
    let loaded = c10k_rtt(&pairs, rtt_iters);
    let os_threads_loaded = os_thread_count();
    let reactor_stats = reactor.stats();

    for (ca, cb) in &pairs {
        ca.close();
        cb.close();
    }
    a.shutdown();
    b.shutdown();
    reactor.shutdown();

    let baseline_p99_us = percentile(&baseline, 0.99);
    let loaded_p99_us = percentile(&loaded, 0.99);
    let p99_ratio = loaded_p99_us / baseline_p99_us.max(f64::EPSILON);
    C10kResult {
        rtt_iters,
        baseline_median_us: percentile(&baseline, 0.50),
        baseline_p99_us,
        loaded_median_us: percentile(&loaded, 0.50),
        loaded_p99_us,
        p99_ratio,
        os_threads_baseline,
        os_threads_loaded,
        reactor: reactor_stats,
    }
}

// ---------------------------------------------------------------------------
// Membership section: view propagation + failure detection over loopback.
// ---------------------------------------------------------------------------

/// World size of the membership section; the highest rank is the victim
/// that is repeatedly silenced and rejoined.
const MEMBERSHIP_NP: u32 = 4;

/// Failure detection (victim silenced → death view applied by the last
/// survivor) must land within this multiple of the heartbeat interval.
const MEMBERSHIP_GATE_MAX_DETECT_INTERVALS: f64 = 3.0;

/// View propagation (rejoin accepted by `ncsd` → new view applied by the
/// last survivor) must land within this many milliseconds. Views are
/// pushed on the subscribers' long-lived channels, so the real figure is
/// a couple of loopback hops plus one serve-loop poll (≤ a quarter
/// heartbeat interval); the bound only has to catch a broken push path.
const MEMBERSHIP_GATE_MAX_PROP_MS: f64 = 150.0;

/// Detector tuning for the section. `dead_after` is two heartbeat
/// intervals, so the end-to-end detection figure (silence → sweep →
/// push → sink) has half an interval of headroom under the 3× gate
/// while staying lax enough that a stalled runner doesn't convict a
/// pulsing survivor.
fn membership_cfg() -> MembershipConfig {
    MembershipConfig {
        heartbeat_interval: Duration::from_millis(100),
        suspect_after: Duration::from_millis(150),
        dead_after: Duration::from_millis(200),
    }
}

/// Kill/rejoin cycles the membership section drives.
fn membership_cycles(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        5
    }
}

#[derive(Debug)]
struct MembershipCaseResult {
    np: u32,
    cycles: usize,
    heartbeat_ms: f64,
    /// Per-cycle silence → death-view latency (worst survivor), sorted, ms.
    detect_ms: Vec<f64>,
    /// Per-cycle rejoin → join-view latency (worst survivor), sorted, ms.
    prop_ms: Vec<f64>,
    /// Every survivor saw strictly increasing view epochs.
    views_in_order: bool,
}

impl MembershipCaseResult {
    fn to_json(&self) -> Json {
        let cfg = membership_cfg();
        let latency = |sorted_ms: &[f64]| {
            let max_ms = sorted_ms.last().copied().unwrap_or(0.0);
            obj! { "median_ms": percentile(sorted_ms, 0.5), "max_ms": max_ms }
        };
        obj! {
            "np": self.np, "heartbeat_ms": self.heartbeat_ms,
            "suspect_ms": cfg.suspect_after.as_secs_f64() * 1e3,
            "dead_ms": cfg.dead_after.as_secs_f64() * 1e3,
            "cases": vec![obj! {
                "np": self.np, "cycles": self.cycles,
                "detection": latency(&self.detect_ms), "propagation": latency(&self.prop_ms),
            }],
        }
    }
}

/// One timestamped view observation at a survivor's sink.
type MembershipLog = Arc<std::sync::Mutex<Vec<(Instant, ncs_runtime::View)>>>;

/// Blocks until every log holds a view matching `pred`, returning the
/// worst (latest) arrival timestamp across the logs.
fn membership_wait_all(
    logs: &[MembershipLog],
    what: &str,
    pred: impl Fn(&ncs_runtime::View) -> bool,
) -> Instant {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut worst = Instant::now();
    for log in logs {
        loop {
            if let Some((at, _)) = log
                .lock()
                .expect("membership log")
                .iter()
                .find(|(_, v)| pred(v))
            {
                worst = worst.max(*at);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "membership section timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    worst
}

/// Drives a real `RendezvousServer` + `MemberAgent` world over loopback
/// through `cycles` silence → death-view → rejoin → join-view rounds,
/// timing the failure detector and the view push at the survivors' sinks.
fn run_membership_case(smoke: bool) -> MembershipCaseResult {
    use ncs_runtime::{rendezvous, MemberAgent, MembershipMetrics};

    let cfg = membership_cfg();
    let np = MEMBERSHIP_NP;
    let victim = np - 1;
    let cycles = membership_cycles(smoke);
    let server =
        RendezvousServer::start_with("127.0.0.1:0", np, cfg.clone()).expect("membership ncsd");
    let ncsd = server.addr();

    // Seal the roster (membership epoch 1) with placeholder listener
    // addresses: the section measures the control plane — nothing ever
    // dials a member.
    let registrars: Vec<_> = (0..np)
        .map(|r| {
            std::thread::spawn(move || {
                let addr: std::net::SocketAddr =
                    format!("127.0.0.1:{}", 40_000 + r).parse().expect("addr");
                rendezvous::register(ncsd, r, np, addr, Duration::from_secs(10))
                    .expect("membership register")
            })
        })
        .collect();
    for h in registrars {
        h.join().expect("register thread");
    }

    let logs: Vec<MembershipLog> = (0..victim).map(|_| MembershipLog::default()).collect();
    let mut survivors: Vec<MemberAgent> = logs
        .iter()
        .enumerate()
        .map(|(r, log)| {
            let log = Arc::clone(log);
            MemberAgent::start(
                ncsd,
                r as u32,
                0,
                cfg.clone(),
                MembershipMetrics::detached(),
                Arc::new(move |v: &ncs_runtime::View| {
                    log.lock()
                        .expect("membership log")
                        .push((Instant::now(), v.clone()));
                }),
            )
            .expect("survivor agent")
        })
        .collect();
    let mut victim_agent = Some(
        MemberAgent::start(
            ncsd,
            victim,
            0,
            cfg.clone(),
            MembershipMetrics::detached(),
            Arc::new(|_: &ncs_runtime::View| {}),
        )
        .expect("victim agent"),
    );
    membership_wait_all(&logs, "seed view", |v| v.id == 1 && v.is_full());

    let rejoin_addr: std::net::SocketAddr = "127.0.0.1:40999".parse().expect("addr");
    let mut detect_ms = Vec::with_capacity(cycles);
    let mut prop_ms = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        // Views advance deterministically: seed is 1, then one death and
        // one join view per cycle.
        let death_id = 2 + 2 * cycle as u64;
        victim_agent.take().expect("victim alive").stop();
        let t0 = Instant::now();
        let seen = membership_wait_all(&logs, "death view", |v| {
            v.id == death_id && v.dead.contains(&victim)
        });
        detect_ms.push(seen.saturating_duration_since(t0).as_secs_f64() * 1e3);

        let incarnation = cycle as u32 + 1;
        let t1 = Instant::now();
        rendezvous::rejoin(
            ncsd,
            victim,
            np,
            rejoin_addr,
            incarnation,
            Duration::from_secs(10),
        )
        .expect("membership rejoin");
        let seen = membership_wait_all(&logs, "join view", |v| {
            v.id == death_id + 1 && v.joined.contains(&victim)
        });
        prop_ms.push(seen.saturating_duration_since(t1).as_secs_f64() * 1e3);
        victim_agent = Some(
            MemberAgent::start(
                ncsd,
                victim,
                incarnation,
                cfg.clone(),
                MembershipMetrics::detached(),
                Arc::new(|_: &ncs_runtime::View| {}),
            )
            .expect("victim agent restart"),
        );
    }

    let views_in_order = logs.iter().all(|log| {
        let ids: Vec<u64> = log
            .lock()
            .expect("membership log")
            .iter()
            .map(|(_, v)| v.id)
            .collect();
        ids.windows(2).all(|w| w[0] < w[1])
    });

    if let Some(mut v) = victim_agent {
        v.stop();
    }
    for a in &mut survivors {
        a.stop();
    }

    detect_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    prop_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    MembershipCaseResult {
        np,
        cycles,
        heartbeat_ms: cfg.heartbeat_interval.as_secs_f64() * 1e3,
        detect_ms,
        prop_ms,
        views_in_order,
    }
}

fn case_cfg(iface: Iface, package: Package, smoke: bool) -> BenchCfg {
    let (mut lat_iters, mut bulk_msgs) = if smoke { (30, 60) } else { (300, 500) };
    if iface == Iface::Sci && package == Package::User {
        // SCI receives are blocking system calls; under the user-level
        // package they stall the whole scheduler between frames (the §4.1
        // pathology the paper documents). Keep the combination honest but
        // short.
        lat_iters = lat_iters.min(30);
        bulk_msgs = bulk_msgs.min(60);
    }
    BenchCfg {
        lat_iters,
        bulk_msgs,
    }
}

/// One pass/fail check of the run. The gate table in `main` is the one
/// source of the artifact's gate objects, the exit code and the summary
/// line.
struct Gate {
    /// `"<section>.<key>"` of the gate object, or a bare top-level key.
    path: &'static str,
    /// The gate object: `metric`, then `threshold` and `value` for a
    /// numeric gate, then `pass`.
    json: Json,
    pass: bool,
    /// `path value (op threshold)`, or `path pass|fail`.
    summary: String,
}

impl Gate {
    fn check(path: &'static str, metric: &str, pass: bool) -> Gate {
        let summary = format!("{path} {}", if pass { "pass" } else { "fail" });
        let json = obj! { "metric": metric, "pass": pass };
        Gate {
            path,
            json,
            pass,
            summary,
        }
    }

    fn at_least(path: &'static str, metric: &str, threshold: f64, value: f64) -> Gate {
        Gate::bounded(path, metric, (value, ">=", threshold), value >= threshold)
    }

    fn at_most(path: &'static str, metric: &str, threshold: f64, value: f64) -> Gate {
        Gate::bounded(path, metric, (value, "<=", threshold), value <= threshold)
    }

    fn bounded(path: &'static str, metric: &str, bound: (f64, &str, f64), pass: bool) -> Gate {
        let (value, op, threshold) = bound;
        let summary = format!("{path} {value:.2} ({op} {threshold})");
        let json = obj! { "metric": metric, "threshold": threshold, "value": value, "pass": pass };
        Gate {
            path,
            json,
            pass,
            summary,
        }
    }

    /// Adds `key` to the gate object, right after `metric`.
    fn with(mut self, key: &str, value: impl Into<Json>) -> Gate {
        if let Json::Obj(members) = &mut self.json {
            members.insert(1, (key.to_owned(), value.into()));
        }
        self
    }
}

/// A section's `cases` array.
fn cases<T>(list: &[T], to_json: fn(&T) -> Json) -> Json {
    Json::Arr(list.iter().map(to_json).collect())
}

/// The least of `values` (infinity when there are none).
fn min(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// `body` (an object) with the gates of `section` appended to it.
fn with_gates(section: &str, body: Json, gates: &[Gate]) -> Json {
    let Json::Obj(mut members) = body else {
        unreachable!("sections are objects")
    };
    for g in gates {
        let (at, key) = g.path.rsplit_once('.').unwrap_or(("", g.path));
        if at == section {
            members.push((key.to_owned(), g.json.clone()));
        }
    }
    Json::Obj(members)
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_dataplane.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            // Internal: this process is a spawned rank of the
            // cross-process section.
            "--cluster-child" => run_cluster_child(),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perf_gate [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let mut results = Vec::new();
    for package in Package::ALL {
        for iface in Iface::ALL {
            let cfg = case_cfg(iface, package, smoke);
            eprintln!(
                "perf_gate: {} over {} ({} rtt iters, {} bulk msgs)...",
                package.name(),
                iface.name(),
                cfg.lat_iters,
                cfg.bulk_msgs
            );
            let result = package.run(move |pkg| run_case(iface, package, pkg, cfg));
            eprintln!(
                "  rtt p50 {:.1} us / p99 {:.1} us; bulk {:.1} MiB/s; \
                 allocs/msg {:.2} -> {:.2} ({:.0}x)",
                result.lat_median_us,
                result.lat_p99_us,
                result.bulk_mib_s,
                result.allocs_per_msg_seed_equiv,
                result.allocs_per_msg_pooled,
                result.alloc_improvement,
            );
            results.push(result);
        }
    }

    // Collectives: allreduce + broadcast latency against group size, both
    // packages, binomial tree vs repetitive flat fan-out.
    let mut coll_results = Vec::new();
    for package in Package::ALL {
        for group_size in COLL_GROUP_SIZES {
            eprintln!(
                "perf_gate: collectives, {} package, {group_size} members...",
                package.name()
            );
            let result = package.run(move |pkg| run_coll_case(group_size, package, pkg, smoke));
            eprintln!(
                "  allreduce p50 {:.1} us; bcast done {:.1} us binomial vs {:.1} us flat; \
                 origin egress {} vs {} frames ({:.2}x)",
                result.allreduce_median_us,
                result.bcast_done_binomial_us,
                result.bcast_done_flat_us,
                result.root_frames_binomial,
                result.root_frames_flat,
                result.egress_ratio,
            );
            coll_results.push(result);
        }
    }

    // Requests section: isend/irecv vs the blocking wrappers, and the
    // zero-copy MsgView receive path vs recv()'s detaching Vec.
    let mut req_results = Vec::new();
    for package in Package::ALL {
        eprintln!("perf_gate: requests, {} package...", package.name());
        let result = package.run(move |pkg| run_requests_case(package, pkg, smoke));
        eprintln!(
            "  rtt p50 {:.1} us blocking vs {:.1} us requests; allocs/msg {:.2} recv vs {:.2} MsgView ({:.0}x)",
            result.blocking_rtt_median_us,
            result.request_rtt_median_us,
            result.allocs_per_msg_recv,
            result.allocs_per_msg_msgview,
            result.alloc_ratio,
        );
        req_results.push(result);
    }

    // mt_msgrate: aggregate message rate as application threads multiply,
    // each thread on its own channel (per-thread delivery shard).
    let mut msgrate_results = Vec::new();
    for package in Package::ALL {
        for iface in MSGRATE_IFACES {
            let msgs = msgrate_msgs(iface, smoke);
            for threads in msgrate::THREAD_COUNTS {
                eprintln!(
                    "perf_gate: mt_msgrate, {} over {}, {threads} threads x {msgs} msgs...",
                    package.name(),
                    iface.name(),
                );
                let result =
                    package.run(move |pkg| run_msgrate_case(iface, package, pkg, threads, msgs));
                eprintln!("  aggregate {:.3} Mmsgs/s", result.aggregate_mmsgs_s);
                msgrate_results.push(result);
            }
        }
    }

    // Telemetry section: the flight recorder must be production-cheap —
    // its enabled-vs-kill-switch msgrate delta is the instrumentation
    // cost the gate bounds.
    let mut telemetry_results = Vec::new();
    for package in Package::ALL {
        eprintln!(
            "perf_gate: telemetry overhead, {} package over HPI...",
            package.name()
        );
        let result = package.run(move |pkg| run_telemetry_case(package, pkg, smoke));
        eprintln!(
            "  {:.3} Mmsgs/s recording vs {:.3} Mmsgs/s kill-switch ({:+.1}% overhead)",
            result.enabled_mmsgs_s, result.disabled_mmsgs_s, result.overhead_pct,
        );
        telemetry_results.push(result);
    }

    // Cross-process cluster section: this binary re-executes itself as
    // child ranks; every number here crossed a real process boundary over
    // real sockets.
    let mut cluster_results = Vec::new();
    for np in CLUSTER_WORLDS {
        eprintln!("perf_gate: cross-process cluster, {np} ranks over SCI...");
        let result = run_cluster_case(np, smoke);
        eprintln!(
            "  rtt p50 {:.1} us / p99 {:.1} us; allreduce p50 {:.1} us; {}/{} children ok",
            result.rtt_median_us,
            result.rtt_p99_us,
            result.allreduce_median_us,
            result.children_ok,
            np - 1,
        );
        cluster_results.push(result);
    }

    // SimWorld: the deterministic thousand-rank engine must stay fast
    // (events/sec) and bit-reproducible.
    eprintln!("perf_gate: sim, {SIM_RANKS}-rank broadcast + barrier under virtual time...");
    let sim = run_sim_case();
    eprintln!(
        "  {} events in {:.3}s wall ({:.0} events/s), virtual {:.3} ms, deterministic: {}",
        sim.events_processed, sim.wall_secs, sim.events_per_sec, sim.virtual_ms, sim.deterministic,
    );

    // c10k: 1,000+ connections multiplexed onto the shared reactor must
    // neither inflate the OS thread count nor the tail latency.
    eprintln!("perf_gate: c10k, {C10K_CONNECTIONS} connections over HPI on one reactor...");
    let c10k = run_c10k_case(smoke);
    eprintln!(
        "  rtt p99 {:.1} us baseline ({} conns) -> {:.1} us loaded ({} conns, {:.2}x); \
         {} OS threads, {} reactor workers",
        c10k.baseline_p99_us,
        C10K_BASELINE,
        c10k.loaded_p99_us,
        C10K_CONNECTIONS,
        c10k.p99_ratio,
        c10k.os_threads_loaded,
        c10k.reactor.workers,
    );

    // Membership: the control plane's failure detector and view push must
    // stay fast while the section churns a real ncsd world over loopback.
    eprintln!(
        "perf_gate: membership, {MEMBERSHIP_NP} ranks, {} kill/rejoin cycles over loopback...",
        membership_cycles(smoke)
    );
    let membership = run_membership_case(smoke);
    let detect_ms = percentile(&membership.detect_ms, 0.5);
    let prop_ms = percentile(&membership.prop_ms, 0.5);
    eprintln!(
        "  detection p50 {detect_ms:.1} ms ({:.2} heartbeat intervals), view propagation p50 \
         {prop_ms:.1} ms, epochs in order: {}",
        detect_ms / membership.heartbeat_ms,
        membership.views_in_order,
    );

    // The scaling gate reads the kernel-package HPI sweep: the user
    // package is M:1 by construction (green threads share one core), so
    // only kernel threads can exhibit CPU parallelism. The threshold is
    // parallelism-aware — see msgrate::scaling_threshold.
    let msgrate_cpus = msgrate::host_cpus();
    let msgrate_agg = |threads: usize| {
        msgrate_results
            .iter()
            .find(|r| r.iface == "HPI" && r.package == "kernel" && r.threads == threads)
            .map_or(0.0, |r| r.aggregate_mmsgs_s)
    };
    let gates = [
        // The pooled+batched HPI bulk path must allocate at least
        // GATE_MIN_IMPROVEMENT times less than the seed path did.
        Gate::at_least(
            "gate",
            "min HPI bulk alloc_improvement across packages",
            GATE_MIN_IMPROVEMENT,
            min(results
                .iter()
                .filter(|r| r.iface == "HPI")
                .map(|r| r.alloc_improvement)),
        ),
        // The binomial tree must beat the repetitive flat fan-out on
        // origin egress for every measured group of >= COLL_GATE_MIN_GROUP.
        Gate::at_least(
            "collectives.gate",
            &format!(
                "min origin egress improvement (flat frames / binomial frames) for groups >= \
                 {COLL_GATE_MIN_GROUP}"
            ),
            COLL_GATE_MIN_EGRESS_RATIO,
            min(coll_results
                .iter()
                .filter(|r| r.group_size >= COLL_GATE_MIN_GROUP)
                .map(|r| r.egress_ratio)),
        ),
        Gate::at_least(
            "requests.gate",
            &format!(
                "min (recv allocs/msg / MsgView allocs/msg) across packages — the zero-copy \
                 receive path must allocate >= {REQ_GATE_MIN_RATIO:.0}x fewer buffers per message"
            ),
            REQ_GATE_MIN_RATIO,
            min(req_results.iter().map(|r| r.alloc_ratio)),
        ),
        Gate::at_least(
            "mt_msgrate.gate",
            "HPI kernel-package aggregate Mmsgs/s at 4 threads over 1 thread; threshold is \
             parallelism-aware (2.0 at >= 4 CPUs, 1.2 at 2-3, 0.5 no-collapse at 1 — see \
             docs/BENCH_SCHEMA.md)",
            msgrate::scaling_threshold(msgrate_cpus),
            msgrate_agg(4) / msgrate_agg(1).max(f64::MIN_POSITIVE),
        )
        .with("cpus", msgrate_cpus),
        Gate::at_most(
            "telemetry.gate",
            "max HPI msgrate overhead of the flight recorder across packages (recording \
             enabled vs kill-switch disabled), percent",
            TELEMETRY_GATE_MAX_OVERHEAD_PCT,
            telemetry_results
                .iter()
                .map(|r| r.overhead_pct)
                .fold(f64::NEG_INFINITY, f64::max),
        ),
        Gate::check(
            "cluster.gate",
            "every child rank of every cross-process case exits 0 and rank 0 measures non-zero \
             latencies",
            cluster_results.iter().all(|r| {
                r.children_ok == (r.np - 1) as usize
                    && r.rtt_median_us > 0.0
                    && r.allreduce_median_us > 0.0
            }),
        ),
        Gate::at_most(
            "sim.wall_gate",
            &format!(
                "wall seconds for the {SIM_RANKS}-rank broadcast + barrier scenario under \
                 virtual time"
            ),
            SIM_GATE_MAX_WALL_SECS,
            sim.wall_secs,
        ),
        Gate::check(
            "sim.determinism_gate",
            "same seed run twice reproduces the event trace and telemetry byte-for-byte, with \
             every op completing",
            sim.deterministic,
        ),
        Gate::at_most(
            "c10k.thread_gate",
            &format!(
                "OS threads with {C10K_CONNECTIONS} connections open — the reactor multiplexes \
                 every connection onto O(cores) event loops, never one thread (let alone five) \
                 per connection"
            ),
            C10K_MAX_THREADS as f64,
            c10k.os_threads_loaded as f64,
        ),
        Gate::at_most(
            "c10k.latency_gate",
            &format!(
                "p99 RTT round-robin across all {C10K_CONNECTIONS} connections, as a multiple \
                 of the {C10K_BASELINE}-connection p99"
            ),
            C10K_MAX_P99_RATIO,
            c10k.p99_ratio,
        ),
        Gate::at_most(
            "membership.detection_gate",
            "median silence -> death-view latency at the slowest survivor, in heartbeat \
             intervals",
            MEMBERSHIP_GATE_MAX_DETECT_INTERVALS,
            detect_ms / membership.heartbeat_ms,
        ),
        Gate::at_most(
            "membership.propagation_gate",
            "median rejoin -> join-view latency at the slowest survivor, ms",
            MEMBERSHIP_GATE_MAX_PROP_MS,
            prop_ms,
        ),
        Gate::check(
            "membership.ordering_gate",
            "every survivor observed strictly increasing view epochs",
            membership.views_in_order,
        ),
    ];

    let section = |name: &str, body: Json| with_gates(name, body, &gates);
    let doc = section(
        "",
        obj! {
            "schema": "ncs-dataplane-bench/9", "mode": if smoke { "smoke" } else { "full" },
            "latency_bytes": LAT_BYTES, "bulk_message_bytes": BULK_BYTES,
            "alloc_metric": "pool checkouts = seed-path allocations at the same call sites; \
                pool misses = pooled-path allocations; improvement = checkouts / max(misses, 1)",
            "collectives": section("collectives", obj! {
                "interface": "HPI", "allreduce_elems": COLL_ALLREDUCE_ELEMS,
                "broadcast_bytes": COLL_BCAST_BYTES,
                "cases": cases(&coll_results, CollCaseResult::to_json),
            }),
            "requests": section("requests", obj! {
                "interface": "HPI", "latency_bytes": REQ_LAT_BYTES,
                "bulk_message_bytes": REQ_BULK_BYTES,
                "cases": cases(&req_results, RequestsCaseResult::to_json),
            }),
            "mt_msgrate": section("mt_msgrate", obj! {
                "message_bytes": msgrate::MESSAGE_SIZE, "window": msgrate::WINDOW_SIZE,
                "cases": cases(&msgrate_results, MsgRateCaseResult::to_json),
            }),
            "telemetry": section("telemetry", obj! {
                "interface": "HPI", "message_bytes": msgrate::MESSAGE_SIZE,
                "cases": cases(&telemetry_results, TelemetryCaseResult::to_json),
            }),
            "cluster": section("cluster", obj! {
                "transport": "SCI", "rtt_bytes": CLUSTER_RTT_BYTES,
                "allreduce_elems": CLUSTER_ALLREDUCE_ELEMS,
                "cases": cases(&cluster_results, ClusterCaseResult::to_json),
            }),
            "sim": section("sim", sim.to_json()),
            "c10k": section("c10k", c10k.to_json()),
            "membership": section("membership", membership.to_json()),
            "cases": cases(&results, CaseResult::to_json),
        },
    );
    std::fs::write(&out_path, format!("{doc}\n")).expect("write output file");
    eprintln!("perf_gate: wrote {out_path}");

    // Every bulk phase must actually have delivered its traffic, and
    // every gate must pass; name every failure before exiting.
    let mut failed = false;
    for r in results.iter().filter(|r| r.bulk_received < r.bulk_msgs) {
        eprintln!(
            "perf_gate: FAIL — {}/{} delivered only {}/{} bulk messages",
            r.iface, r.package, r.bulk_received, r.bulk_msgs
        );
        failed = true;
    }
    for g in gates.iter().filter(|g| !g.pass) {
        let metric = g
            .json
            .get("metric")
            .and_then(Json::as_str)
            .unwrap_or_default();
        eprintln!("perf_gate: FAIL — {}: {metric}", g.summary);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    let summary: Vec<&str> = gates.iter().map(|g| g.summary.as_str()).collect();
    eprintln!("perf_gate: PASS — {}", summary.join(", "));
}
