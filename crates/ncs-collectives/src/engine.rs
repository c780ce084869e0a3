//! The collective engine: on-demand progress over a group's pairwise NCS
//! connections, servicing typed collective operations.
//!
//! # Architecture
//!
//! A [`CollectiveGroup`] member owns **no standing threads**:
//!
//! * each link's untagged receive stream is handed to the engine via
//!   [`NcsConnection::set_receive_sink`] — the node's readiness reactor
//!   pushes reassembled frames straight into the member's frame inbox (the
//!   former per-link pump threads, with the threads removed); and
//! * a **progress runner** borrows a thread from the reactor's blocking
//!   lane only while operations are queued — the paper's overlap story
//!   made concrete for group communication. Application threads *submit*
//!   operations (a mailbox send) and immediately continue computing; the
//!   runner drives each operation's [`crate::schedule::Machine`] (tree
//!   forwarding, reduction folds, pipeline segment relays), feeding it
//!   the frames it waits on, resolves the caller's [`CollectiveHandle`],
//!   and exits once the queue drains. A quiescent group costs zero
//!   threads.
//!
//! The runner is spawned through the node's configured
//! [`ncs_threads::ThreadPackage`], so the same engine runs over the
//! kernel-level and the user-level (green-thread) package.
//!
//! # Ordering contract
//!
//! Like MPI, collective calls must be issued **in the same order on every
//! member**. Within one member, submissions from concurrent threads are
//! serialised by the group (the submission order is the execution order).
//! Operations pipeline: a member may have many collectives outstanding;
//! its progress thread executes them strictly in submission order while
//! early-arriving frames for later operations are stashed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ncs_core::{BufPool, Clock, NcsConnection, NcsNode, Reactor};
use ncs_threads::sync::Mailbox;
use parking_lot::Mutex;

use crate::datatype::{to_bytes, ReduceOp, Scalar};
use crate::frame::{decode_frame, Seg};
use crate::handle::{CollectiveError, CollectiveHandle, OpCompletion};
use crate::schedule::{Machine, Member, Op, OpKind, Outbox};
use crate::topology::{Topology, TopologyPolicy};

/// How often blocked engine loops re-check the closed flag.
const TICK: Duration = Duration::from_millis(100);

/// How long a schedule waits on a *live* peer before a dead link
/// elsewhere in the group fails the operation (see
/// [`Inner::link_down_err`]). Well below any realistic op timeout, well
/// above the in-flight delivery window of a cleanly departing member.
const LINK_DOWN_FALLBACK_GRACE: Duration = Duration::from_secs(2);

/// Tuning knobs of a [`CollectiveGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollectiveConfig {
    /// Pipeline segment size in bytes: payloads larger than this are cut
    /// into segments that flow through trees and rings store-and-forward
    /// style. Must not exceed the largest message the group's connections
    /// accept.
    pub seg_size: usize,
    /// The per-operation topology selection policy.
    pub policy: TopologyPolicy,
    /// How long the progress thread waits on any one operation before
    /// failing it with [`CollectiveError::Timeout`] (covers members that
    /// never issue the matching call).
    pub op_timeout: Duration,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        CollectiveConfig {
            seg_size: 32 * 1024,
            policy: TopologyPolicy::default(),
            op_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters of a group's collective engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectiveStats {
    /// Operations completed (successfully or not) by the progress thread.
    pub ops_completed: u64,
    /// Collective frames transmitted (including tree forwards).
    pub frames_sent: u64,
    /// Collective frames received and routed.
    pub frames_received: u64,
    /// Payload bytes transmitted.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

#[derive(Debug, Default)]
struct StatCounters {
    ops_completed: ncs_obs::Counter,
    frames_sent: ncs_obs::Counter,
    frames_received: ncs_obs::Counter,
    bytes_sent: ncs_obs::Counter,
    bytes_received: ncs_obs::Counter,
}

impl StatCounters {
    /// Counters registered with the node's telemetry registry under the
    /// group's `group` label, so collective traffic shows up in
    /// [`NcsNode::metrics_snapshot`](ncs_core::NcsNode::metrics_snapshot)
    /// beside the per-connection series.
    fn registered(registry: &ncs_obs::Registry, group: u32) -> Self {
        let id = group.to_string();
        let labels: &[(&str, &str)] = &[("group", &id)];
        let c = |name: &str, help: &str| registry.counter(name, help, labels);
        StatCounters {
            ops_completed: c(
                "ncs_coll_ops_completed_total",
                "Collective operations completed (successfully or not)",
            ),
            frames_sent: c(
                "ncs_coll_frames_sent_total",
                "Collective frames transmitted (including tree forwards)",
            ),
            frames_received: c(
                "ncs_coll_frames_received_total",
                "Collective frames received and routed",
            ),
            bytes_sent: c("ncs_coll_bytes_sent_total", "Collective payload bytes sent"),
            bytes_received: c(
                "ncs_coll_bytes_received_total",
                "Collective payload bytes received",
            ),
        }
    }
}

struct OpRequest {
    coll: u32,
    op: Op,
    payload: Vec<u8>,
    timeout: Duration,
    done: Arc<OpCompletion>,
}

struct Inner {
    group: u32,
    rank: usize,
    size: usize,
    cfg: CollectiveConfig,
    links: HashMap<usize, NcsConnection>,
    pool: Arc<BufPool>,
    /// The node's readiness reactor: feeds the inbox through the link
    /// sinks and lends the progress runner its blocking-lane thread.
    reactor: Arc<Reactor>,
    /// Submitted operations, consumed in order by the progress runner.
    ops: Mailbox<OpRequest>,
    /// Whether a progress runner currently holds (or is acquiring) a
    /// blocking-lane thread; the submit path claims it with a swap so at
    /// most one runner exists.
    progress_active: AtomicBool,
    /// Raw frames from all links: `(peer rank, frame bytes)`.
    inbox: Mailbox<(usize, Vec<u8>)>,
    next_coll: AtomicU32,
    /// Makes (id assignment, queue insertion) atomic across submitters.
    submit_lock: Mutex<()>,
    closed: Arc<AtomicBool>,
    /// Nonzero once the world's membership view changed under this group
    /// (the epoch that invalidated it): the group's topology no longer
    /// matches reality, so every in-flight and future operation fails
    /// fast with [`CollectiveError::ViewChanged`] instead of idling out
    /// its timeout against a member that will never answer. Set through
    /// [`ViewAbortHandle`] by the membership layer.
    view_changed: AtomicU64,
    /// Links whose pump died on a transport failure (peer rank -> error).
    /// A collective spans every member, so one dead link dooms every
    /// in-flight and future operation: schedules consult this to fail
    /// promptly instead of idling out the full op timeout.
    link_down: Mutex<HashMap<usize, ncs_core::SendError>>,
    /// The member's time source (the node's clock): every deadline in
    /// the engine — op timeouts, the link-down fallback grace — is
    /// computed from it, so a simulated member times out on virtual
    /// time, never the wall (see `ncs_core::clock`).
    clock: Arc<dyn Clock>,
    stats: StatCounters,
}

impl Inner {
    fn check_closed(&self) -> Result<(), CollectiveError> {
        // View changes outrank plain closure: a group that was aborted by
        // a membership epoch (then perhaps closed during rebuild) should
        // tell its waiters *why* the topology died.
        let epoch = self.view_changed.load(Ordering::Acquire);
        if epoch != 0 {
            return Err(CollectiveError::ViewChanged { epoch });
        }
        if self.closed.load(Ordering::Acquire) {
            Err(CollectiveError::Closed)
        } else {
            Ok(())
        }
    }

    /// Marks the group dead under membership `epoch` (first abort wins)
    /// and fails every queued operation. The operation in flight observes
    /// the flag within a tick of its schedule. Returns whether this call
    /// was the one that aborted the group.
    fn abort_view_changed(&self, epoch: u64) -> bool {
        if epoch == 0
            || self
                .view_changed
                .compare_exchange(0, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            return false;
        }
        while let Some(req) = self.ops.try_recv() {
            req.done
                .complete(Err(CollectiveError::ViewChanged { epoch }));
        }
        true
    }

    /// The failure a schedule waiting on `peer` should surface, if any
    /// link pump has died: the peer's own link error when it is the dead
    /// one, otherwise any other dead link's (the operation still cannot
    /// complete — every member participates in a collective), but only
    /// after [`LINK_DOWN_FALLBACK_GRACE`] of fruitless waiting: a member
    /// that *finished* the world's final collective and shut down cleanly
    /// has already delivered every frame it owed, and the survivors'
    /// remaining exchanges (with each other) complete at network speed —
    /// failing those instantly on the departed member's closed link would
    /// turn every graceful teardown into a race.
    fn link_down_err(&self, peer: usize, waited_since: Duration) -> Option<ncs_core::SendError> {
        let down = self.link_down.lock();
        if let Some(e) = down.get(&peer) {
            return Some(e.clone());
        }
        if self.clock.now().saturating_sub(waited_since) >= LINK_DOWN_FALLBACK_GRACE {
            return down.values().next().cloned();
        }
        None
    }
}

/// The engine's transmit side: a machine's sends go out on the group's
/// links through the pooled batch path.
impl Outbox for &Inner {
    fn send(&mut self, peer: usize, frames: &[&[u8]]) -> Result<(), CollectiveError> {
        self.links[&peer].send_batch(frames)?;
        self.stats.frames_sent.add(frames.len() as u64);
        let bytes: usize = frames.iter().map(|f| f.len()).sum();
        self.stats.bytes_sent.add(bytes as u64);
        Ok(())
    }
}

/// Routes inbound frames to the operation schedules: frames arrive
/// link-ordered but operations consume them `(peer, coll, stream)`-keyed,
/// so early frames (deeper pipelines, later collectives) are stashed.
struct Router {
    inner: Arc<Inner>,
    stash: HashMap<(usize, u32, u32), VecDeque<Seg>>,
}

impl Router {
    fn new(inner: Arc<Inner>) -> Self {
        Router {
            inner,
            stash: HashMap::new(),
        }
    }

    /// Drops stashed frames no operation can consume any more (left behind
    /// by operations that failed mid-schedule).
    fn prune_below(&mut self, coll: u32) {
        self.stash.retain(|&(_, c, _), _| c >= coll);
    }

    /// Receives the next segment of `(peer, coll, stream)`.
    fn recv_seg(
        &mut self,
        peer: usize,
        coll: u32,
        stream: u32,
        deadline: Duration,
    ) -> Result<Seg, CollectiveError> {
        let key = (peer, coll, stream);
        let started = self.inner.clock.now();
        loop {
            // Drain everything already queued before judging the link
            // state or the clock: a frame a now-dead peer delivered
            // before dying must be consumed, not masked by the failure of
            // its link. The drain is bounded (whatever is queued right
            // now) and every iteration falls through to the closed /
            // link-down / deadline checks, so sustained unrelated traffic
            // can delay the verdict by at most one pass over the backlog.
            while let Some((from, frame)) = self.inner.inbox.try_recv() {
                self.stash_frame(from, frame);
            }
            if let Some(s) = self.pop_stash(key) {
                return Ok(s);
            }
            self.inner.check_closed()?;
            // A dead link fails the wait — the frame can never arrive
            // (killed rank, closed connection) and hanging until the op
            // timeout would mask the real failure.
            if let Some(e) = self.inner.link_down_err(peer, started) {
                // The pump records the failure immediately after
                // delivering the link's final frames: drain once more so
                // a frame that slipped in between our drain and this
                // check is consumed, not masked by the error.
                while let Some((from, frame)) = self.inner.inbox.try_recv() {
                    self.stash_frame(from, frame);
                }
                if let Some(s) = self.pop_stash(key) {
                    return Ok(s);
                }
                return Err(CollectiveError::Send(e));
            }
            let now = self.inner.clock.now();
            if now >= deadline {
                return Err(CollectiveError::Timeout);
            }
            let wait = deadline.saturating_sub(now).min(TICK);
            if let Ok((from, frame)) = self.inner.inbox.recv_timeout(wait) {
                self.stash_frame(from, frame);
            }
        }
    }

    /// Pops the next stashed segment of `key`, if any.
    fn pop_stash(&mut self, key: (usize, u32, u32)) -> Option<Seg> {
        let q = self.stash.get_mut(&key)?;
        let s = q.pop_front();
        if q.is_empty() {
            self.stash.remove(&key);
        }
        s
    }

    /// Decodes one inbound frame and stashes its segment.
    fn stash_frame(&mut self, from: usize, frame: Vec<u8>) {
        if let Some(seg) = decode_frame(frame, self.inner.group) {
            self.inner.stats.frames_received.inc();
            self.inner
                .stats
                .bytes_received
                .add(seg.payload().len() as u64);
            self.stash
                .entry((from, seg.coll, seg.stream))
                .or_default()
                .push_back(seg);
        }
    }
}

// ---------------------------------------------------------------------------
// The engine driver of the schedule machines
// ---------------------------------------------------------------------------

/// Runs one operation's [`Machine`] to completion on the progress
/// runner: the router feeds it the segment it waits on, from the stash or
/// the inbox, under the operation's deadline.
fn drive(
    inner: &Inner,
    router: &mut Router,
    req: &mut OpRequest,
) -> Result<Vec<u8>, CollectiveError> {
    let deadline = inner.clock.now() + req.timeout;
    let member = Member {
        group: inner.group,
        coll: req.coll,
        rank: inner.rank,
        size: inner.size,
        seg_size: inner.cfg.seg_size,
        pool: Arc::clone(&inner.pool),
    };
    let mut machine = Machine::new(member, req.op);
    let mut out = inner;
    if let Some(done) = machine.start(std::mem::take(&mut req.payload), &mut out) {
        return done;
    }
    while let Some((peer, stream)) = machine.waiting_on() {
        let seg = router.recv_seg(peer, req.coll, stream, deadline)?;
        if let Some(done) = machine.on_seg(peer, seg, &mut out) {
            return done;
        }
    }
    Err(CollectiveError::Protocol("schedule stalled".into()))
}

// ---------------------------------------------------------------------------
// Progress (on demand)
// ---------------------------------------------------------------------------

/// Ensures a progress runner is servicing the operation queue, borrowing
/// a blocking-lane thread from the reactor if none is. The
/// `progress_active` swap makes the claim exclusive: exactly one runner
/// exists while operations are queued, zero once the queue drains.
fn kick_progress(inner: &Arc<Inner>, router: &Arc<Mutex<Option<Router>>>) {
    if inner.progress_active.swap(true, Ordering::AcqRel) {
        return;
    }
    let i = Arc::clone(inner);
    let r = Arc::clone(router);
    inner
        .reactor
        .spawn_blocking(Box::new(move || run_progress(&i, &r)));
}

/// The progress runner: executes queued operations in submission order,
/// then releases its thread. Schedules block legitimately (waiting on
/// peers' frames), which is why this runs on the blocking lane and not a
/// reactor event loop.
fn run_progress(inner: &Arc<Inner>, router: &Arc<Mutex<Option<Router>>>) {
    loop {
        let Some(mut req) = inner.ops.try_recv() else {
            inner.progress_active.store(false, Ordering::Release);
            // A submission may have slipped in between the drain and the
            // release; reclaim the runner role unless its kick already
            // spawned a successor.
            if inner.ops.is_empty() || inner.progress_active.swap(true, Ordering::AcqRel) {
                return;
            }
            continue;
        };
        if let Err(e) = inner.check_closed() {
            req.done.complete(Err(e));
            continue;
        }
        let result = {
            // Held across the operation: the router's stash (early frames
            // for later collectives) must survive between runner
            // incarnations, and close()/drop synchronise on this lock.
            let mut guard = router.lock();
            let r = guard.get_or_insert_with(|| Router::new(Arc::clone(inner)));
            r.prune_below(req.coll);
            drive(inner, r, &mut req)
        };
        inner.stats.ops_completed.inc();
        req.done.complete(result);
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// One member's endpoint of a collective group.
///
/// Built over dedicated pairwise NCS connections (a full mesh); the
/// group owns their receive queues
/// (through [`NcsConnection::set_receive_sink`]), so do not share the
/// connections with point-to-point traffic.
///
/// The group holds **no standing threads**: link traffic flows in through
/// receive sinks driven by the node's readiness reactor, and a progress
/// runner borrows a blocking-lane thread only while operations are
/// queued. Application threads *submit* operations and keep computing;
/// the runner executes the communication schedules and resolves the
/// [`CollectiveHandle`]s.
///
/// **Ordering contract** (as MPI): collective calls must be issued in the
/// same order on every member. Within one member, concurrent submissions
/// are serialised — submission order is execution order. Operations
/// pipeline: many may be outstanding, executed in submission order, with
/// early-arriving frames for later operations stashed by the engine's
/// router. See the [crate docs](crate) for a usage example.
pub struct CollectiveGroup {
    inner: Arc<Inner>,
    /// The router (frame stash) shared by successive progress-runner
    /// incarnations. Lives outside `Inner` so the `Router -> Inner` Arc
    /// is not a cycle.
    router: Arc<Mutex<Option<Router>>>,
}

impl std::fmt::Debug for CollectiveGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectiveGroup")
            .field("id", &self.inner.group)
            .field("rank", &self.inner.rank)
            .field("size", &self.inner.size)
            .finish()
    }
}

impl CollectiveGroup {
    /// Forms collective group `id` with this member at `rank`, over
    /// `links` mapping every other member's rank to an established
    /// connection, with the default [`CollectiveConfig`].
    ///
    /// # Errors
    ///
    /// [`CollectiveError::BadArg`] unless `links` covers exactly the ranks
    /// `0..size` minus `rank`.
    pub fn new(
        node: &NcsNode,
        id: u32,
        rank: usize,
        links: HashMap<usize, NcsConnection>,
    ) -> Result<Self, CollectiveError> {
        Self::with_config(node, id, rank, links, CollectiveConfig::default())
    }

    /// [`CollectiveGroup::new`] with explicit tuning knobs.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::new`].
    pub fn with_config(
        node: &NcsNode,
        id: u32,
        rank: usize,
        links: HashMap<usize, NcsConnection>,
        cfg: CollectiveConfig,
    ) -> Result<Self, CollectiveError> {
        let size = links.len() + 1;
        if links.contains_key(&rank) {
            return Err(CollectiveError::BadArg(format!(
                "links must not include own rank {rank}"
            )));
        }
        for r in 0..size {
            if r != rank && !links.contains_key(&r) {
                return Err(CollectiveError::BadArg(format!(
                    "missing link to rank {r} (size {size})"
                )));
            }
        }
        if cfg.seg_size == 0 {
            return Err(CollectiveError::BadArg("seg_size must be positive".into()));
        }
        let inner = Arc::new(Inner {
            group: id,
            rank,
            size,
            cfg,
            links,
            pool: node.buffer_pool(),
            reactor: node.reactor(),
            ops: Mailbox::unbounded(),
            inbox: Mailbox::unbounded(),
            next_coll: AtomicU32::new(0),
            submit_lock: Mutex::new(()),
            progress_active: AtomicBool::new(false),
            closed: Arc::new(AtomicBool::new(false)),
            view_changed: AtomicU64::new(0),
            link_down: Mutex::new(HashMap::new()),
            clock: node.clock(),
            stats: StatCounters::registered(&node.registry(), id),
        });
        // Take ownership of every link's untagged receive stream: the
        // reactor task that reassembles a frame pushes it straight into
        // the member's inbox (no pump thread parked on recv), and a dying
        // link records itself so waiting schedules fail promptly.
        for (&peer, conn) in &inner.links {
            let i = Arc::clone(&inner);
            conn.set_receive_sink(Some(Arc::new(move |res| match res {
                Ok(view) => i.inbox.send((peer, view.into_vec())),
                Err(e) => {
                    i.link_down.lock().insert(peer, e);
                }
            })));
        }
        Ok(CollectiveGroup {
            inner,
            router: Arc::new(Mutex::new(None)),
        })
    }

    /// This member's rank.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Group size (members).
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The group's configuration.
    pub fn config(&self) -> CollectiveConfig {
        self.inner.cfg
    }

    /// Engine counters.
    pub fn stats(&self) -> CollectiveStats {
        let s = &self.inner.stats;
        CollectiveStats {
            ops_completed: s.ops_completed.get(),
            frames_sent: s.frames_sent.get(),
            frames_received: s.frames_received.get(),
            bytes_sent: s.bytes_sent.get(),
            bytes_received: s.bytes_received.get(),
        }
    }

    /// Leaves the group: detaches the link sinks, fails any queued
    /// operations with [`CollectiveError::Closed`] and aborts the one in
    /// flight (its schedule observes the flag within a tick). The
    /// underlying connections remain open (owned by the caller's node).
    /// Idempotent.
    pub fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Give the links their receive queues back (also breaks the
        // sink -> Inner reference cycle).
        for conn in self.inner.links.values() {
            conn.set_receive_sink(None);
        }
        // Fail everything still queued so no waiter hangs. A submission
        // racing this drain is caught by the runner's own closed check.
        while let Some(req) = self.inner.ops.try_recv() {
            req.done.complete(Err(CollectiveError::Closed));
        }
    }

    /// Marks the group invalidated by membership `epoch`: every queued
    /// operation fails at once with [`CollectiveError::ViewChanged`], the
    /// operation in flight observes the change within a tick of its
    /// schedule, and all future submissions are refused with the same
    /// error. First abort wins (later epochs don't overwrite the one that
    /// killed the group); returns whether this call did the aborting.
    ///
    /// The group stays closed to traffic afterwards — rebuild a fresh
    /// group over links matching the new view and retry there.
    pub fn abort_view_changed(&self, epoch: u64) -> bool {
        self.inner.abort_view_changed(epoch)
    }

    /// A weak handle through which a membership layer can abort this
    /// group on view change without keeping it alive (a dropped group
    /// makes the handle inert).
    pub fn view_abort_handle(&self) -> ViewAbortHandle {
        ViewAbortHandle(Arc::downgrade(&self.inner))
    }

    /// `kind` with the shapes this group's policy picks for `bytes` per
    /// member.
    fn op(&self, kind: OpKind, root: usize, bytes: usize) -> Op {
        Op::new(kind, root, &self.inner.cfg.policy, self.inner.size, bytes)
    }

    fn submit(&self, op: Op, payload: Vec<u8>) -> Result<Arc<OpCompletion>, CollectiveError> {
        self.inner.check_closed()?;
        if op.root >= self.inner.size {
            return Err(CollectiveError::BadArg(format!(
                "root {} out of range for group of {}",
                op.root, self.inner.size
            )));
        }
        let done = OpCompletion::new();
        let _order = self.inner.submit_lock.lock();
        let coll = self.inner.next_coll.fetch_add(1, Ordering::Relaxed);
        self.inner.ops.send(OpRequest {
            coll,
            op,
            payload,
            timeout: self.inner.cfg.op_timeout,
            done: Arc::clone(&done),
        });
        kick_progress(&self.inner, &self.router);
        Ok(done)
    }

    // -- broadcast ---------------------------------------------------------

    /// Nonblocking broadcast from `root`.
    ///
    /// In-out buffer semantics (as MPI's `MPI_Bcast`): **every member must
    /// pass a buffer of the same length** — the root's contents are
    /// distributed, the others' are replaced. The shared length is what
    /// lets every member select the same topology independently.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::BadArg`] / [`CollectiveError::Closed`] at
    /// submission; the operation's own errors surface on the handle.
    pub fn ibroadcast<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = buf.len() * T::DTYPE.elem_size();
        let topo = self.op(OpKind::Broadcast, root, bytes).topo;
        self.ibroadcast_with(root, buf, topo)
    }

    /// [`CollectiveGroup::ibroadcast`] over an explicit topology (every
    /// member must pass the same one).
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn ibroadcast_with<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
        topo: Topology,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let op = Op {
            topo,
            topo2: topo,
            ..self.op(OpKind::Broadcast, root, buf.len() * T::DTYPE.elem_size())
        };
        let payload = if self.inner.rank == root {
            to_bytes(&buf)
        } else {
            Vec::new()
        };
        let done = self.submit(op, payload)?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::ibroadcast`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn broadcast<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
    ) -> Result<Vec<T>, CollectiveError> {
        self.ibroadcast(root, buf)?.wait()
    }

    /// Blocking [`CollectiveGroup::ibroadcast_with`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn broadcast_with<T: Scalar>(
        &self,
        root: usize,
        buf: Vec<T>,
        topo: Topology,
    ) -> Result<Vec<T>, CollectiveError> {
        self.ibroadcast_with(root, buf, topo)?.wait()
    }

    // -- reduce / allreduce ------------------------------------------------

    /// Nonblocking reduction to `root`: every member contributes an
    /// equal-length vector; the handle resolves to the elementwise
    /// reduction at the root and to an empty vector elsewhere.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn ireduce<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = contrib.len() * T::DTYPE.elem_size();
        let op = self.op(OpKind::Reduce(T::DTYPE, op), root, bytes);
        let done = self.submit(op, to_bytes(&contrib))?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::ireduce`]: `Some(result)` at the root,
    /// `None` elsewhere.
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn reduce<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>, CollectiveError> {
        let v = self.ireduce(root, contrib, op)?.wait()?;
        Ok((self.inner.rank == root).then_some(v))
    }

    /// Nonblocking allreduce (reduce to rank 0, then broadcast): the
    /// handle resolves to the full reduction on every member.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn iallreduce<T: Scalar>(
        &self,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = contrib.len() * T::DTYPE.elem_size();
        let op = self.op(OpKind::Allreduce(T::DTYPE, op), 0, bytes);
        let done = self.submit(op, to_bytes(&contrib))?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::iallreduce`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn allreduce<T: Scalar>(
        &self,
        contrib: Vec<T>,
        op: ReduceOp,
    ) -> Result<Vec<T>, CollectiveError> {
        self.iallreduce(contrib, op)?.wait()
    }

    // -- scatter / gather / allgather -------------------------------------

    /// Nonblocking scatter from `root`: the root's vector is cut into
    /// `size` equal chunks and chunk `r` is delivered to rank `r` (other
    /// members pass an empty vector). The handle resolves to this member's
    /// chunk.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`], plus
    /// [`CollectiveError::BadArg`] at the root when the vector does not
    /// divide evenly.
    pub fn iscatter<T: Scalar>(
        &self,
        root: usize,
        data: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        if self.inner.rank == root && !data.len().is_multiple_of(self.inner.size) {
            return Err(CollectiveError::BadArg(format!(
                "scatter of {} elements does not divide across {} members",
                data.len(),
                self.inner.size
            )));
        }
        let op = self.op(OpKind::Scatter, root, 0);
        let done = self.submit(op, to_bytes(&data))?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::iscatter`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn scatter<T: Scalar>(&self, root: usize, data: Vec<T>) -> Result<Vec<T>, CollectiveError> {
        self.iscatter(root, data)?.wait()
    }

    /// Nonblocking gather to `root`: every member contributes an
    /// equal-length vector; the handle resolves to the rank-ordered
    /// concatenation at the root and to an empty vector elsewhere.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn igather<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let op = self.op(OpKind::Gather, root, 0);
        let done = self.submit(op, to_bytes(&contrib))?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::igather`]: `Some(concatenation)` at the
    /// root, `None` elsewhere.
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn gather<T: Scalar>(
        &self,
        root: usize,
        contrib: Vec<T>,
    ) -> Result<Option<Vec<T>>, CollectiveError> {
        let v = self.igather(root, contrib)?.wait()?;
        Ok((self.inner.rank == root).then_some(v))
    }

    /// Nonblocking allgather: every member contributes an equal-length
    /// vector and the handle resolves to the rank-ordered concatenation on
    /// every member.
    ///
    /// # Errors
    ///
    /// As [`CollectiveGroup::ibroadcast`].
    pub fn iallgather<T: Scalar>(
        &self,
        contrib: Vec<T>,
    ) -> Result<CollectiveHandle<Vec<T>>, CollectiveError> {
        let bytes = contrib.len() * T::DTYPE.elem_size();
        let op = self.op(OpKind::Allgather, 0, bytes);
        let done = self.submit(op, to_bytes(&contrib))?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::iallgather`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn allgather<T: Scalar>(&self, contrib: Vec<T>) -> Result<Vec<T>, CollectiveError> {
        self.iallgather(contrib)?.wait()
    }

    // -- barrier -----------------------------------------------------------

    /// Nonblocking barrier (dissemination schedule, `⌈log₂ n⌉` rounds):
    /// the handle resolves once every member has entered the barrier.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Closed`] at submission.
    pub fn ibarrier(&self) -> Result<CollectiveHandle<()>, CollectiveError> {
        let done = self.submit(self.op(OpKind::Barrier, 0, 0), Vec::new())?;
        Ok(CollectiveHandle::new(done))
    }

    /// Blocking [`CollectiveGroup::ibarrier`].
    ///
    /// # Errors
    ///
    /// See [`CollectiveError`].
    pub fn barrier(&self) -> Result<(), CollectiveError> {
        self.ibarrier()?.wait()
    }
}

impl Drop for CollectiveGroup {
    fn drop(&mut self) {
        self.close();
        // Synchronise with an in-flight operation (its schedule aborts on
        // the closed flag within a tick) and drop the frame stash.
        *self.router.lock() = None;
    }
}

/// A weak abort handle onto one [`CollectiveGroup`], held by a
/// membership layer (e.g. `ncs-runtime`'s `ClusterNode`): when the
/// world's view changes, [`ViewAbortHandle::abort`] fails the group fast
/// with [`CollectiveError::ViewChanged`] so no collective idles out its
/// timeout against a member that will never answer. Weak on purpose —
/// watching a group must not keep it alive, and aborting an
/// already-dropped group is a no-op.
pub struct ViewAbortHandle(Weak<Inner>);

impl std::fmt::Debug for ViewAbortHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewAbortHandle")
            .field("live", &(self.0.strong_count() > 0))
            .finish()
    }
}

impl ViewAbortHandle {
    /// Aborts the watched group under membership `epoch` (see
    /// [`CollectiveGroup::abort_view_changed`]). Returns `false` when the
    /// group is already gone or already aborted.
    pub fn abort(&self, epoch: u64) -> bool {
        self.0
            .upgrade()
            .is_some_and(|i| i.abort_view_changed(epoch))
    }

    /// Whether the watched group still exists.
    pub fn is_live(&self) -> bool {
        self.0.strong_count() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_is_validated() {
        let node = NcsNode::builder("solo").build();
        // A singleton group is valid.
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        assert_eq!(g.size(), 1);
        assert_eq!(g.rank(), 0);
        // Singleton collectives complete locally.
        assert_eq!(g.allreduce(vec![3u32], ReduceOp::Sum).unwrap(), vec![3]);
        assert_eq!(g.broadcast(0, vec![1u8, 2]).unwrap(), vec![1, 2]);
        assert_eq!(g.scatter(0, vec![9i64]).unwrap(), vec![9]);
        assert_eq!(g.gather(0, vec![4f32]).unwrap(), Some(vec![4.0]));
        assert_eq!(g.allgather(vec![5u64]).unwrap(), vec![5]);
        g.barrier().unwrap();
        assert!(g.stats().ops_completed >= 6);
        // Root out of range is rejected at submission.
        assert!(matches!(
            g.broadcast(3, vec![0u8]),
            Err(CollectiveError::BadArg(_))
        ));
        drop(g);
        node.shutdown();
    }

    #[test]
    fn zero_seg_size_rejected() {
        let node = NcsNode::builder("cfg").build();
        let cfg = CollectiveConfig {
            seg_size: 0,
            ..CollectiveConfig::default()
        };
        assert!(matches!(
            CollectiveGroup::with_config(&node, 1, 0, HashMap::new(), cfg),
            Err(CollectiveError::BadArg(_))
        ));
        node.shutdown();
    }

    #[test]
    fn closed_group_rejects_submissions() {
        let node = NcsNode::builder("closer").build();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        g.close();
        assert!(matches!(g.barrier(), Err(CollectiveError::Closed)));
        drop(g);
        node.shutdown();
    }

    #[test]
    fn view_abort_fails_fast_and_sticks() {
        let node = NcsNode::builder("elastic").build();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::new()).unwrap();
        let handle = g.view_abort_handle();
        assert!(handle.is_live());
        // First abort wins; the losing epoch reports false.
        assert!(handle.abort(7));
        assert!(!handle.abort(8));
        assert!(!g.abort_view_changed(9));
        // Submissions fail with the aborting epoch, not a generic close.
        assert!(matches!(
            g.barrier(),
            Err(CollectiveError::ViewChanged { epoch: 7 })
        ));
        // Even after close(), waiters learn *why* the topology died.
        g.close();
        assert!(matches!(
            g.allreduce(vec![1u32], ReduceOp::Sum),
            Err(CollectiveError::ViewChanged { epoch: 7 })
        ));
        drop(g);
        assert!(!handle.is_live());
        assert!(!handle.abort(10), "aborting a dropped group is a no-op");
        node.shutdown();
    }

    #[test]
    fn view_abort_drains_queued_operations() {
        // A two-member group where the peer never participates: the
        // submitted op can only hang on the peer's frames — until the
        // view abort fails it fast (well before its op timeout).
        let node = NcsNode::builder("survivor").build();
        let peer = NcsNode::builder("ghost").build();
        let (ln, lp) = ncs_core::link::HpiLinkPair::with_capacity(256);
        node.attach_peer("ghost", ln);
        peer.attach_peer("survivor", lp);
        let conn = node
            .connect("ghost", ncs_core::ConnectionConfig::unreliable())
            .unwrap();
        let _peer_side = peer.accept_default().unwrap();
        let g = CollectiveGroup::new(&node, 1, 0, HashMap::from([(1usize, conn)])).unwrap();
        let h = g.iallreduce(vec![1.0f64], ReduceOp::Sum).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(g.abort_view_changed(3));
        assert_eq!(
            h.wait(),
            Err(CollectiveError::ViewChanged { epoch: 3 }),
            "in-flight op must fail fast on view change"
        );
        drop(g);
        node.shutdown();
        peer.shutdown();
    }
}
