//! The two SCI workloads: a 64 B ping-pong and a windowed 64 KiB stream,
//! both over loopback TCP in the bypass configuration on the kernel
//! package. Each node owns its reactor, as two processes would.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncs_core::link::SciLink;
use ncs_core::{ConnectionConfig, NcsConnection, NcsNode, Request, SendError};
use ncs_transport::sci::SciListener;

use crate::counters::Rig;
use crate::payload::Payloads;
use crate::trace::{Span, Tracer};
use crate::workload::{left, timed, Outcome, Phase, Plan, SetupTimes, OP_DEADLINE, POLL, ROUNDS};

/// Ping-pong message size.
pub const RTT_BYTES: usize = 64;
/// Stream message size: 16 SDUs of 4 KiB.
pub const STREAM_BYTES: usize = 64 * 1024;
/// Messages the stream sender keeps between its `isend` and the
/// receiver's verified take. At this depth the seed commit's goodput
/// collapses (a receive-side readiness stall); keep it so that shows.
pub const STREAM_WINDOW: u64 = 64;

const WARMUP_RTTS: u64 = 200;
const WARMUP_MSGS: u64 = 2 * STREAM_WINDOW;

/// What the peer thread gets: its switches and the first op it expects.
struct PeerCtl {
    stop: Arc<AtomicBool>,
    tracing: Arc<AtomicBool>,
    origin: Instant,
    first_op: u64,
}

struct PeerResult {
    spans: Vec<Span>,
    wrong: u64,
}

/// Two nodes joined by one SCI connection, with the peer thread that
/// serves the `b` end.
struct Pair {
    a: NcsNode,
    b: NcsNode,
    ca: NcsConnection,
    rig: Rig,
    stop: Arc<AtomicBool>,
    tracing: Arc<AtomicBool>,
    peer: JoinHandle<PeerResult>,
}

impl Pair {
    /// Builds the nodes, connects them and starts `serve` on the `b` end.
    fn build(
        serve: impl FnOnce(NcsConnection, PeerCtl) -> PeerResult + Send + 'static,
        origin: Instant,
        first_op: u64,
    ) -> (Pair, SetupTimes) {
        let t0 = Instant::now();
        let a = NcsNode::builder("bench-a").build();
        let b = NcsNode::builder("bench-b").build();
        let la = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind a"));
        let lb = Arc::new(SciListener::bind("127.0.0.1:0").expect("bind b"));
        let addr_a = la.local_addr().expect("addr a");
        let addr_b = lb.local_addr().expect("addr b");
        a.attach_peer("bench-b", SciLink::new(addr_b, la));
        b.attach_peer("bench-a", SciLink::new(addr_a, lb));
        let world_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ca = a
            .connect("bench-b", ConnectionConfig::unreliable())
            .expect("sci connect");
        let cb = b.accept(OP_DEADLINE).expect("sci accept");
        let connect_s = t1.elapsed().as_secs_f64();
        let mut rig = Rig::default();
        rig.node(&a);
        rig.node(&b);
        rig.conn(&ca);
        rig.conn(&cb);
        let stop = Arc::new(AtomicBool::new(false));
        let tracing = Arc::new(AtomicBool::new(false));
        let ctl = PeerCtl {
            stop: Arc::clone(&stop),
            tracing: Arc::clone(&tracing),
            origin,
            first_op,
        };
        let peer = std::thread::spawn(move || serve(cb, ctl));
        let times = SetupTimes {
            world_s,
            connect_s,
            ..SetupTimes::default()
        };
        let pair = Pair {
            a,
            b,
            ca,
            rig,
            stop,
            tracing,
            peer,
        };
        (pair, times)
    }

    /// Stops the peer thread and both nodes; the result goes to `out`.
    fn shutdown(self, out: &mut Outcome) {
        self.stop.store(true, Ordering::Relaxed);
        let peer = self.peer.join().expect("peer thread");
        self.a.shutdown();
        self.b.shutdown();
        out.wrong += peer.wrong;
        out.spans.extend(peer.spans);
    }
}

/// The peer's receive loop: takes each message with `recv_view`, checks
/// it and hands it to `on_msg` with the verdict, until stopped or the
/// connection fails.
fn serve_loop(
    conn: &NcsConnection,
    ctl: &PeerCtl,
    payloads: &Payloads,
    mut on_msg: impl FnMut(&mut Tracer, u64, &[u8], bool) -> Result<(), SendError>,
) -> PeerResult {
    let mut tr = Tracer::new(1, ctl.origin);
    let mut wrong = 0;
    let mut expect = ctl.first_op;
    loop {
        tr.set_on(ctl.tracing.load(Ordering::Relaxed));
        let open = tr.begin("recv_view", 0);
        match conn.recv_view(POLL) {
            Ok(msg) => {
                let op = payloads.op_of(&msg).unwrap_or(u64::MAX);
                tr.set_op(open, op);
                tr.end(open);
                let ok = tr.span("verify", op, || op == expect && payloads.check(op, &msg));
                wrong += u64::from(!ok);
                expect = op.wrapping_add(1);
                if on_msg(&mut tr, op, &msg, ok).is_err() {
                    break;
                }
            }
            Err(SendError::Timeout) => {
                tr.cancel(open);
                if ctl.stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    PeerResult {
        spans: tr.into_spans(),
        wrong,
    }
}

fn deadline_miss(what: &str, op: u64, err: &dyn std::fmt::Debug, rig: &Rig) {
    eprintln!("deadline/error: {what} op {op}: {err:?}\n{}", rig.dump());
}

/// One ping-pong round trip of message `op`: `Ok(false)` is a wrong echo,
/// `Err` an error or a missed deadline.
fn round_trip(
    pair: &Pair,
    payloads: &Payloads,
    tr: &mut Tracer,
    op: u64,
    buf: &mut Vec<u8>,
) -> Result<bool, ()> {
    payloads.fill(op, buf);
    let root = tr.begin("op", op);
    let result = tr
        .span("send", op, || pair.ca.send(buf))
        .map_err(|e| ("send", e))
        .and_then(|()| {
            tr.span("recv_view", op, || pair.ca.recv_view(OP_DEADLINE))
                .map_err(|e| ("echo", e))
        })
        .map(|msg| tr.span("verify", op, || payloads.check(op, &msg)));
    tr.end(root);
    result.map_err(|(what, e)| deadline_miss(what, op, &e, &pair.rig))
}

/// `sci_pingpong`: one client thread sends a 64 B message and waits for
/// the peer thread to echo it back.
pub fn pingpong(plan: &Plan) -> Outcome {
    let origin = Instant::now();
    let payloads = Arc::new(Payloads::new(plan.seed, RTT_BYTES));
    let mut out = Outcome::default();
    let mut client = Tracer::new(0, origin);
    let mut buf = Vec::new();
    let mut next_op = 0;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let p = Arc::clone(&payloads);
        let serve = move |conn: NcsConnection, ctl: PeerCtl| {
            serve_loop(&conn, &ctl, &p, |tr, op, msg, _| {
                tr.span("send", op, || conn.send(msg))
            })
        };
        let (pair, mut setup) = Pair::build(serve, origin, next_op);
        for _ in 0..WARMUP_RTTS {
            let ok = round_trip(&pair, &payloads, &mut client, next_op, &mut buf)
                .expect("warm-up round trip");
            out.wrong += u64::from(!ok);
            next_op += 1;
        }
        setup.total_s = t0.elapsed().as_secs_f64();
        out.setups.push(setup);
        for (traced, len) in plan.round() {
            pair.tracing.store(traced, Ordering::Relaxed);
            client.set_on(traced);
            let mut wrong = 0;
            let ph = timed(traced, &pair.rig, |ph| {
                let end = Instant::now() + len;
                while Instant::now() < end && !client.full() {
                    ph.ops += 1;
                    let s = Instant::now();
                    let r = round_trip(&pair, &payloads, &mut client, next_op, &mut buf);
                    next_op += 1;
                    match r {
                        Ok(ok) => {
                            ph.lat.push(s.elapsed());
                            wrong += u64::from(!ok);
                        }
                        Err(()) => {
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
        client.set_on(false);
        out.round_measured();
        pair.shutdown(&mut out);
        out.round_torn_down();
        if out.aborted() {
            break;
        }
    }
    out.spans.extend(client.into_spans());
    out
}

/// What the stream receiver shares with the sender: the op after the
/// last one taken (with a condvar for window space), each window slot's
/// take time, and the wrong messages seen.
struct Taken {
    next: Mutex<u64>,
    cv: Condvar,
    take_ns: [AtomicU64; STREAM_WINDOW as usize],
    wrong: AtomicU64,
}

impl Taken {
    fn new(first_op: u64) -> Self {
        Taken {
            next: Mutex::new(first_op),
            cv: Condvar::new(),
            take_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            wrong: AtomicU64::new(0),
        }
    }

    /// Records the take of `op`; the mutex publishes the slot's time to
    /// the sender, which reads it only after seeing the op taken.
    fn record(&self, op: u64, ns: u64, ok: bool) {
        self.take_ns[(op % STREAM_WINDOW) as usize].store(ns, Ordering::Relaxed);
        self.wrong.fetch_add(u64::from(!ok), Ordering::Relaxed);
        *self.next.lock().expect("taken lock") = op + 1;
        self.cv.notify_one();
    }

    /// Waits until every op before `op` was taken; false at `deadline`.
    fn wait_for(&self, op: u64, deadline: Instant) -> bool {
        let mut next = self.next.lock().expect("taken lock");
        while *next < op {
            let t = left(deadline);
            if t.is_zero() {
                return false;
            }
            next = self.cv.wait_timeout(next, t).expect("taken lock").0;
        }
        true
    }
}

/// The stream sender of one world.
struct Sender {
    next_op: u64,
    buf: Vec<u8>,
    pending: VecDeque<Request<()>>,
    /// Submit time (ns since origin) of the op in each window slot.
    submit_ns: [u64; STREAM_WINDOW as usize],
}

impl Sender {
    /// Records the latency of `op`, taken by now, in `ph`: from its
    /// `isend` call to its verified take.
    fn record(&self, taken: &Taken, op: u64, ph: &mut Phase) {
        let slot = (op % STREAM_WINDOW) as usize;
        let take = taken.take_ns[slot].load(Ordering::Relaxed);
        ph.lat.push(Duration::from_nanos(
            take.saturating_sub(self.submit_ns[slot]),
        ));
    }

    /// Sends until `end` (or `max` messages), each only when fewer than
    /// `STREAM_WINDOW` messages are between `isend` and a verified take,
    /// then waits until every sent message was taken. Records each
    /// message in `ph`. Returns the messages sent and whether all went
    /// through in time.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        pair: &Pair,
        taken: &Taken,
        payloads: &Payloads,
        tr: &mut Tracer,
        origin: Instant,
        end: Instant,
        max: u64,
        mut ph: Option<&mut Phase>,
    ) -> (u64, bool) {
        let first = self.next_op;
        let mut ok = true;
        while Instant::now() < end && self.next_op - first < max && !tr.full() {
            let op = self.next_op;
            let room = (op + 1).saturating_sub(STREAM_WINDOW);
            if !tr.span("window_wait", op, || {
                taken.wait_for(room, Instant::now() + OP_DEADLINE)
            }) {
                deadline_miss("window slot", op, &"no take in time", &pair.rig);
                ok = false;
                break;
            }
            // The slot's previous op was taken: record it before reuse.
            if let Some(old) = op.checked_sub(STREAM_WINDOW).filter(|&o| o >= first) {
                if let Some(ph) = ph.as_deref_mut() {
                    self.record(taken, old, ph);
                }
            }
            payloads.fill(op, &mut self.buf);
            self.submit_ns[(op % STREAM_WINDOW) as usize] = origin.elapsed().as_nanos() as u64;
            match tr.span("isend", op, || pair.ca.isend(&self.buf)) {
                Ok(req) => self.pending.push_back(req),
                Err(e) => {
                    deadline_miss("isend", op, &e, &pair.rig);
                    ok = false;
                    break;
                }
            }
            self.next_op += 1;
            // A slot is free only after its message was taken, so the
            // oldest send request has completed.
            if self.pending.len() as u64 >= STREAM_WINDOW {
                let req = self.pending.pop_front().expect("non-empty");
                if let Err(e) = tr.span("send_wait", op, || req.wait_timeout(OP_DEADLINE)) {
                    deadline_miss("send completion", op, &e, &pair.rig);
                    ok = false;
                    break;
                }
            }
        }
        let sent = self.next_op - first;
        if ok && !taken.wait_for(self.next_op, Instant::now() + OP_DEADLINE) {
            deadline_miss("drain", self.next_op, &"no take in time", &pair.rig);
            ok = false;
        }
        if let (true, Some(ph)) = (ok, ph) {
            for op in self.next_op.saturating_sub(STREAM_WINDOW).max(first)..self.next_op {
                self.record(taken, op, ph);
            }
        }
        (sent, ok)
    }
}

/// `sci_stream`: one sender thread streams 64 KiB messages to one
/// receiver thread, at most `STREAM_WINDOW` between send and verified
/// take.
pub fn stream(plan: &Plan) -> Outcome {
    let origin = Instant::now();
    let payloads = Arc::new(Payloads::new(plan.seed, STREAM_BYTES));
    let mut out = Outcome::default();
    let mut tr = Tracer::new(0, origin);
    let mut next_op = 0;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let taken = Arc::new(Taken::new(next_op));
        let (p, tk) = (Arc::clone(&payloads), Arc::clone(&taken));
        let serve = move |conn: NcsConnection, ctl: PeerCtl| {
            serve_loop(&conn, &ctl, &p, |_, op, _, ok| {
                tk.record(op, ctl.origin.elapsed().as_nanos() as u64, ok);
                Ok(())
            })
        };
        let (pair, mut setup) = Pair::build(serve, origin, next_op);
        let mut sender = Sender {
            next_op,
            buf: Vec::with_capacity(STREAM_BYTES),
            pending: VecDeque::new(),
            submit_ns: [0; STREAM_WINDOW as usize],
        };
        let far = Instant::now() + Duration::from_secs(3600);
        let (_, warm) = sender.run(
            &pair,
            &taken,
            &payloads,
            &mut tr,
            origin,
            far,
            WARMUP_MSGS,
            None,
        );
        assert!(warm, "stream warm-up failed");
        setup.total_s = t0.elapsed().as_secs_f64();
        out.setups.push(setup);
        for (traced, len) in plan.round() {
            pair.tracing.store(traced, Ordering::Relaxed);
            tr.set_on(traced);
            let wrong_before = taken.wrong.load(Ordering::Relaxed);
            let ph = timed(traced, &pair.rig, |ph| {
                let end = Instant::now() + len;
                let (sent, ok) = sender.run(
                    &pair,
                    &taken,
                    &payloads,
                    &mut tr,
                    origin,
                    end,
                    u64::MAX,
                    Some(&mut *ph),
                );
                ph.ops = sent;
                ph.failed = taken.wrong.load(Ordering::Relaxed) - wrong_before + u64::from(!ok);
                ph.aborted = !ok;
            });
            out.phases.push(ph);
            if out.aborted() {
                break;
            }
        }
        tr.set_on(false);
        next_op = sender.next_op;
        out.round_measured();
        pair.shutdown(&mut out);
        out.round_torn_down();
        if out.aborted() {
            break;
        }
    }
    out.spans.extend(tr.into_spans());
    out
}
