//! The two HPI workloads: reliable 8 B message rate over two channels of
//! one connection (kernel package), and a 4-rank allreduce on a
//! `LocalWorld` running on the user-level package.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ncs_collectives::{CollectiveGroup, ReduceOp};
use ncs_core::link::HpiLinkPair;
use ncs_core::{Channel, ConnectionConfig, NcsConnection, NcsNode};
use ncs_runtime::{LocalSession, LocalWorld, Session};
use ncs_threads::{SwitchMech, ThreadPackage, UserConfig, UserRuntime};

use crate::counters::Rig;
use crate::payload::{splitmix64, Payloads};
use crate::trace::{Span, Tracer};
use crate::workload::{left, timed, Outcome, Plan, SetupTimes, OP_DEADLINE, ROUNDS};

/// Message-rate message size.
pub const MSG_BYTES: usize = 8;
/// Receives and sends each generator posts before waiting for them all.
pub const WINDOW: usize = 64;
/// Channels of the connection, one generator thread each.
pub const CHANNELS: u16 = 2;
const WARMUP_WINDOWS: u64 = 4;

/// Ranks of the allreduce world.
pub const RANKS: u32 = 4;
/// `f64` elements each rank contributes.
pub const ELEMS: usize = 64;
/// Distinct seeded contribution sets the allreduce cycles through.
const SETS: usize = 16;
const WARMUP_ALLREDUCES: u64 = 50;

/// What one generator thread did in a phase.
#[derive(Default)]
struct GenResult {
    windows: u64,
    failed: u64,
    aborted: bool,
    wrong: u64,
    lat: Vec<Duration>,
    spans: Vec<Span>,
}

/// Runs 64-message windows on one channel (sending on `tx`, receiving on
/// `rx`) until `end` or `max` windows; stops at the first error or missed
/// deadline. Window `w` is op `w`; its message `j` is message
/// `w * WINDOW + j` of the channel.
#[allow(clippy::too_many_arguments)]
fn generate(
    tx: &Channel,
    rx: &Channel,
    payloads: &Payloads,
    first_window: u64,
    end: Instant,
    max: u64,
    tr: &mut Tracer,
    rig: &Rig,
) -> GenResult {
    let mut r = GenResult::default();
    let mut buf = Vec::with_capacity(MSG_BYTES);
    while Instant::now() < end && r.windows < max && !tr.full() {
        // The channel id in the top bits keeps op ids unique per run.
        let op = (u64::from(tx.id()) << 48) | (first_window + r.windows);
        r.windows += 1;
        let s = Instant::now();
        let deadline = s + OP_DEADLINE;
        let root = tr.begin("op", op);
        let result = (|| -> Result<u64, String> {
            let recvs: Vec<_> = (0..WINDOW)
                .map(|_| tr.span("irecv", op, || rx.irecv()))
                .collect();
            let mut sends = Vec::with_capacity(WINDOW);
            for j in 0..WINDOW as u64 {
                payloads.fill(op * WINDOW as u64 + j, &mut buf);
                let req = tr.span("isend", op, || tx.isend(&buf));
                sends.push(req.map_err(|e| format!("isend: {e:?}"))?);
            }
            for req in sends {
                tr.span("send_wait", op, || req.wait_timeout(left(deadline)))
                    .map_err(|e| format!("send completion: {e:?}"))?;
            }
            let mut wrong = 0;
            for (j, req) in (0..).zip(recvs) {
                let msg = tr
                    .span("recv_wait", op, || req.wait_timeout(left(deadline)))
                    .map_err(|e| format!("receive: {e:?}"))?;
                let want = op * WINDOW as u64 + j;
                wrong += u64::from(!tr.span("verify", op, || payloads.check(want, &msg)));
            }
            Ok(wrong)
        })();
        tr.end(root);
        match result {
            Ok(wrong) => {
                r.lat.push(s.elapsed());
                r.wrong += wrong;
                r.failed += u64::from(wrong > 0);
            }
            Err(e) => {
                eprintln!("deadline/error: window op {op}: {e}\n{}", rig.dump());
                r.failed += 1;
                r.aborted = true;
                break;
            }
        }
    }
    r
}

struct RatePair {
    a: NcsNode,
    b: NcsNode,
    tx: NcsConnection,
    rx: NcsConnection,
    rig: Rig,
}

impl RatePair {
    fn build() -> (RatePair, SetupTimes) {
        let t0 = Instant::now();
        let a = NcsNode::builder("bench-a").build();
        let b = NcsNode::builder("bench-b").build();
        let (la, lb) = HpiLinkPair::with_capacity(1024);
        a.attach_peer("bench-b", la);
        b.attach_peer("bench-a", lb);
        let world_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let tx = a
            .connect("bench-b", ConnectionConfig::reliable())
            .expect("hpi connect");
        let rx = b.accept(OP_DEADLINE).expect("hpi accept");
        let connect_s = t1.elapsed().as_secs_f64();
        let mut rig = Rig::default();
        rig.node(&a);
        rig.node(&b);
        rig.conn(&tx);
        rig.conn(&rx);
        let times = SetupTimes {
            world_s,
            connect_s,
            ..SetupTimes::default()
        };
        (RatePair { a, b, tx, rx, rig }, times)
    }

    /// Runs one generator thread per channel, all released together, for
    /// `len` or `max` windows each, and merges their results.
    fn run(
        &self,
        payloads: &Payloads,
        first_window: u64,
        len: Duration,
        max: u64,
        tracer: impl Fn(u32) -> Tracer,
    ) -> GenResult {
        let go = Barrier::new(usize::from(CHANNELS) + 1);
        std::thread::scope(|s| {
            let gens: Vec<_> = (0..CHANNELS)
                .map(|c| {
                    let (tx, rx) = (self.tx.channel(c), self.rx.channel(c));
                    let (go, mut tr) = (&go, tracer(u32::from(c)));
                    s.spawn(move || {
                        go.wait();
                        let end = Instant::now() + len;
                        let mut r = generate(
                            &tx,
                            &rx,
                            payloads,
                            first_window,
                            end,
                            max,
                            &mut tr,
                            &self.rig,
                        );
                        r.spans = tr.into_spans();
                        r
                    })
                })
                .collect();
            go.wait();
            let mut all = GenResult::default();
            for g in gens {
                let r = g.join().expect("generator thread");
                all.windows += r.windows;
                all.failed += r.failed;
                all.aborted |= r.aborted;
                all.wrong += r.wrong;
                all.lat.extend(r.lat);
                all.spans.extend(r.spans);
            }
            all
        })
    }

    fn shutdown(self) {
        self.tx.close();
        self.rx.close();
        self.a.shutdown();
        self.b.shutdown();
    }
}

/// `hpi_reliable_msgrate`: two generator threads, one per channel, each
/// posting 64 receives and 64 sends of 8 B and waiting for all of them.
pub fn msgrate(plan: &Plan) -> Outcome {
    let origin = Instant::now();
    let payloads = Payloads::new(plan.seed, MSG_BYTES);
    let mut out = Outcome::default();
    let mut next_window = 0;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let (pair, mut setup) = RatePair::build();
        let untraced = |c| Tracer::new(c, origin);
        let warm = pair.run(
            &payloads,
            next_window,
            Duration::from_secs(3600),
            WARMUP_WINDOWS,
            untraced,
        );
        assert!(!warm.aborted, "message-rate warm-up failed");
        out.wrong += warm.wrong;
        next_window += WARMUP_WINDOWS;
        setup.total_s = t0.elapsed().as_secs_f64();
        out.setups.push(setup);
        for (traced, len) in plan.round() {
            let tracer = |c| {
                let mut tr = Tracer::new(c, origin);
                tr.set_on(traced);
                tr
            };
            let mut r = GenResult::default();
            let ph = timed(traced, &pair.rig, |ph| {
                r = pair.run(&payloads, next_window, len, u64::MAX, tracer);
                ph.ops = r.windows;
                ph.failed = r.failed;
                ph.aborted = r.aborted;
                r.lat.iter().for_each(|&d| ph.lat.push(d));
            });
            // Both channels started at `next_window`; move past both.
            next_window += r.windows;
            out.wrong += r.wrong;
            out.spans.extend(r.spans);
            out.phases.push(ph);
            if out.aborted() {
                break;
            }
        }
        out.round_measured();
        pair.shutdown();
        out.round_torn_down();
        if out.aborted() {
            break;
        }
    }
    out
}

/// Seeded allreduce inputs: per set, each rank's contribution and their
/// sum. Contributions are integers below 2^20 in magnitude, so every
/// summation order gives the same, exact `f64` result.
struct Contribs {
    sets: Vec<(Vec<Vec<f64>>, Vec<f64>)>,
}

impl Contribs {
    fn new(seed: u64) -> Self {
        let mut state = seed ^ 0xA11_2EDC;
        let sets = (0..SETS)
            .map(|_| {
                let per_rank: Vec<Vec<f64>> = (0..RANKS)
                    .map(|_| {
                        (0..ELEMS)
                            .map(|_| (splitmix64(&mut state) % (1 << 21)) as f64 - (1 << 20) as f64)
                            .collect()
                    })
                    .collect();
                let sum = (0..ELEMS)
                    .map(|i| per_rank.iter().map(|c| c[i]).sum())
                    .collect();
                (per_rank, sum)
            })
            .collect();
        Contribs { sets }
    }
}

struct AllreduceWorld {
    sessions: Vec<LocalSession>,
    rig: Rig,
}

impl AllreduceWorld {
    fn build(pkg: &Arc<dyn ThreadPackage>) -> (AllreduceWorld, SetupTimes) {
        let t0 = Instant::now();
        let sessions = LocalWorld::with_package(RANKS, Arc::clone(pkg)).expect("local world");
        let world_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let groups: Vec<CollectiveGroup> = sessions
            .iter()
            .map(|s| s.collective_group(1).expect("collective group"))
            .collect();
        let group_s = t1.elapsed().as_secs_f64();
        let mut rig = Rig::default();
        for s in &sessions {
            rig.node(s.node());
            for peer in (0..RANKS).filter_map(|r| s.connection(r)) {
                rig.conn(peer);
            }
        }
        for g in groups {
            rig.group(g);
        }
        let times = SetupTimes {
            world_s,
            group_s,
            ..SetupTimes::default()
        };
        (AllreduceWorld { sessions, rig }, times)
    }

    /// One allreduce: submit on every rank, then wait on every handle and
    /// check each result against the local sum. `Ok(false)` is a wrong
    /// result; `Err` an error or a missed deadline.
    fn allreduce(&self, contribs: &Contribs, op: u64, tr: &mut Tracer) -> Result<bool, String> {
        let (inputs, sum) = &contribs.sets[op as usize % SETS];
        let deadline = Instant::now() + OP_DEADLINE;
        let root = tr.begin("op", op);
        let result = (|| -> Result<bool, String> {
            let mut handles = Vec::with_capacity(inputs.len());
            for (g, c) in self.rig.groups().iter().zip(inputs) {
                let h = tr.span("iallreduce", op, || g.iallreduce(c.clone(), ReduceOp::Sum));
                handles.push(h.map_err(|e| format!("iallreduce: {e}"))?);
            }
            let mut ok = true;
            for h in handles {
                let got = tr
                    .span("coll_wait", op, || h.wait_timeout(left(deadline)))
                    .map_err(|e| format!("allreduce wait: {e}"))?;
                ok &= tr.span("verify", op, || {
                    got.len() == sum.len()
                        && got.iter().zip(sum).all(|(a, b)| a.to_bits() == b.to_bits())
                });
            }
            Ok(ok)
        })();
        tr.end(root);
        result
    }

    fn shutdown(self) {
        for g in self.rig.groups() {
            g.close();
        }
        for s in &self.sessions {
            s.shutdown();
        }
    }
}

/// `hpi_allreduce`: one driver issues an allreduce of 64 `f64` on all
/// four ranks of a `LocalWorld`, then waits on every handle. The world
/// and the driver run on the user-level package.
pub fn allreduce(plan: &Plan) -> Outcome {
    let plan = *plan;
    UserRuntime::new(UserConfig {
        mech: SwitchMech::Native,
        ..UserConfig::default()
    })
    .run(move |pkg| {
        let pkg: Arc<dyn ThreadPackage> = Arc::new(pkg);
        let origin = Instant::now();
        let contribs = Contribs::new(plan.seed);
        let mut out = Outcome::default();
        let mut tr = Tracer::new(0, origin);
        let mut next_op = 0;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            let (world, mut setup) = AllreduceWorld::build(&pkg);
            for _ in 0..WARMUP_ALLREDUCES {
                let ok = world
                    .allreduce(&contribs, next_op, &mut tr)
                    .expect("allreduce warm-up");
                out.wrong += u64::from(!ok);
                next_op += 1;
            }
            setup.total_s = t0.elapsed().as_secs_f64();
            out.setups.push(setup);
            for (traced, len) in plan.round() {
                tr.set_on(traced);
                let mut wrong = 0;
                let ph = timed(traced, &world.rig, |ph| {
                    let end = Instant::now() + len;
                    while Instant::now() < end && !tr.full() {
                        ph.ops += 1;
                        let s = Instant::now();
                        let r = world.allreduce(&contribs, next_op, &mut tr);
                        next_op += 1;
                        match r {
                            Ok(ok) => {
                                ph.lat.push(s.elapsed());
                                wrong += u64::from(!ok);
                            }
                            Err(e) => {
                                eprintln!("deadline/error: allreduce: {e}\n{}", world.rig.dump());
                                ph.failed += 1;
                                ph.aborted = true;
                                break;
                            }
                        }
                    }
                    ph.failed += wrong;
                });
                out.wrong += wrong;
                out.phases.push(ph);
                if out.aborted() {
                    break;
                }
            }
            tr.set_on(false);
            out.round_measured();
            world.shutdown();
            out.round_torn_down();
            if out.aborted() {
                break;
            }
        }
        out.spans = tr.into_spans();
        out
    })
}
