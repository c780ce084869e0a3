//! Per-connection machinery: the Figure-4 data and control planes
//! (Send/Receive/Flow Control/Error Control) as one reactor task, and the
//! public [`NcsConnection`] handle.
//!
//! The send path follows the paper's Figure 4 exactly:
//!
//! 1. `NCS_send` activates the Error Control plane;
//! 2. the EC plane segments the message into SDUs and activates the Flow
//!    Control plane;
//! 3. the FC plane releases packets to the Send plane as credits permit;
//! 4. the Send plane transmits on the data connection;
//! 5. *(figure steps 5-8)* on the receive side the Receive plane activates
//!    the FC plane, which grants credits over the control connection and
//!    activates the EC plane;
//! 6. *(figure steps 9-10)* the EC plane reassembles, delivers into the
//!    user buffer and sends the acknowledgement bitmap over the control
//!    connection.
//!
//! Where the paper runs each of those planes as a dedicated thread per
//! connection, this module runs all four as *one* resumable state machine
//! — [`ConnTask`] — registered with the node's
//! [`Reactor`](crate::Reactor). The paper's mailbox "activations" become
//! task wakeups: queueing a send, a control-plane acknowledgement, or a
//! frame arriving on the transport each schedule the task onto one of the
//! reactor's O(cores) event loops, where it drains its inboxes and steps
//! the same FC/EC strategy objects the threads used to drive. Protocol
//! waits (ack timeouts, credit pacing, starvation probes) park on reactor
//! timers instead of blocking a thread, so a node holds thousands of
//! connections with a fixed-size thread pool.
//!
//! When a connection is configured without flow/error control those plane
//! steps are skipped entirely (paper §3.1's bypass — frames go straight
//! from the send queue to the interface); in *direct* mode (§4.2) no task
//! is registered at all and the same strategy objects run as procedures
//! on the caller's thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ncs_obs::{EventKind, FlightRecorder, Registry};
use ncs_threads::sync::{Event, Mailbox, NcsMutex};
use ncs_transport::{Connection as Transport, TransportError};
use parking_lot::{Mutex, RwLock};

use crate::clock::Clock;
use crate::config::{ConnectionConfig, ErrorControlAlg, FlowControlAlg};
use crate::error_control::{
    build_receiver, build_sender, AckInfo, ReceiverEc, ReceiverStep, SenderEc, SenderStep,
};
use crate::flow_control::{build as build_fc, FlowControlStrategy};
use crate::packet::{CtrlMsg, DataHeader, DataPacket};
use crate::pool::{BufPool, PooledBuf};
#[cfg(unix)]
use crate::reactor::FdRegistration;
use crate::reactor::{Reactor, ReactorTask, TaskHandle, TaskPoll};
use crate::request::{DeliveryQueue, MsgView, Request, RequestCore};
use crate::stats::{ConnCounters, ConnectionStats, SendBreakdown};

/// Size of the tag envelope prepended to tag-matched messages (the
/// big-endian `u32` channel tag).
const TAG_ENVELOPE: usize = 4;

/// Most frames the Send/Receive Threads move per transport acquisition.
/// Large enough to amortise ring/buffer acquisition over bulk traffic,
/// small enough to keep a batch within one credit grant.
const IO_BATCH: usize = 32;

/// Depth of the Send Thread's frame queue. Bounding it backpressures
/// producers that outrun the interface, which (a) caps the data plane's
/// buffer memory per connection and (b) keeps the working set of pooled
/// buffers small enough to recycle instead of alloc (an unbounded burst
/// would drain the pool and fall back to the heap for every frame).
const SEND_QUEUE_DEPTH: usize = 4 * IO_BATCH;

/// Errors from sending on an NCS connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The connection is closed (locally or by the peer).
    Closed,
    /// Message too large for this configuration (unreliable connections
    /// are limited to one SDU; reliable ones to the bitmap's SDU count).
    TooLarge {
        /// Offered message length.
        len: usize,
        /// Configuration limit.
        max: usize,
    },
    /// Empty messages cannot be sent.
    Empty,
    /// Error control exhausted its retries.
    DeliveryFailed(String),
    /// The underlying interface failed.
    Transport(String),
    /// Timed out waiting for a synchronous completion.
    Timeout,
    /// The operation requires a different connection mode (e.g.
    /// `send_direct` on a threaded connection).
    WrongMode(&'static str),
    /// A request's result was already taken (each [`Request`] resolves
    /// exactly once).
    ResultTaken,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Closed => write!(f, "connection closed"),
            SendError::TooLarge { len, max } => {
                write!(f, "message of {len} bytes exceeds limit {max}")
            }
            SendError::Empty => write!(f, "empty messages cannot be sent"),
            SendError::DeliveryFailed(why) => write!(f, "delivery failed: {why}"),
            SendError::Transport(e) => write!(f, "transport error: {e}"),
            SendError::Timeout => write!(f, "timed out"),
            SendError::WrongMode(need) => write!(f, "operation requires {need} mode"),
            SendError::ResultTaken => write!(f, "request result already taken"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<TransportError> for SendError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Closed => SendError::Closed,
            TransportError::Timeout => SendError::Timeout,
            other => SendError::Transport(other.to_string()),
        }
    }
}

/// Timestamps for the Table-I breakdown, filled along the bypass send path.
#[derive(Debug)]
pub(crate) struct SendTrace {
    pub queued_at: Mutex<Option<Instant>>,
    pub dequeued_at: Mutex<Option<Instant>>,
    pub transmitted_at: Mutex<Option<Instant>>,
    pub freed_at: Mutex<Option<Instant>>,
    /// Fired the moment the Send Thread dequeues the request (the hand-off
    /// acknowledgement `send_handoff` waits for).
    pub accepted: Event,
    pub done: Event,
}

impl SendTrace {
    fn new() -> Arc<Self> {
        Arc::new(SendTrace {
            queued_at: Mutex::new(None),
            dequeued_at: Mutex::new(None),
            transmitted_at: Mutex::new(None),
            freed_at: Mutex::new(None),
            accepted: Event::new(),
            done: Event::new(),
        })
    }
}

/// Messages activating the Error Control (sender) Thread.
pub(crate) enum EcSendMsg {
    Send {
        data: Vec<u8>,
        /// The message carries a tag envelope (sets the header flag on
        /// every SDU).
        tagged: bool,
        completion: Option<Arc<RequestCore<()>>>,
    },
    Ack(AckInfo),
    Shutdown,
}

/// Messages activating the Flow Control Thread.
pub(crate) enum FcMsg {
    /// Sender side: packets of the current session to release under flow
    /// control.
    Enqueue(Vec<DataPacket>),
    /// Sender side: a retransmission round — anything still queued from
    /// the same session is superseded (prevents timeout storms from
    /// ballooning the queue behind stale duplicates).
    Replace(Vec<DataPacket>),
    /// Sender side: credits/acks from the peer's FC thread.
    Feedback(u32),
    /// Receiver side: a data packet arrived.
    Incoming(DataPacket),
    Shutdown,
}

/// Messages activating the Error Control (receiver) Thread.
pub(crate) enum EcRecvMsg {
    Packet(DataPacket),
    Shutdown,
}

/// Messages activating the Send Thread. Frames arrive pre-encoded in
/// pooled buffers; transmitting a frame returns its buffer to the pool.
pub(crate) enum SendMsg {
    Frame {
        frame: PooledBuf,
        trace: Option<Arc<SendTrace>>,
        /// Resolved when the frame crosses the transport (bypass-path
        /// `isend` completion, attached to a message's final frame).
        done: Option<Arc<RequestCore<()>>>,
    },
    Shutdown,
}

/// Connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    Connecting,
    Active,
    Closed,
}

/// Shared state of one connection endpoint.
pub(crate) struct ConnShared {
    pub id: u32,
    pub peer_name: String,
    pub peer_conn: AtomicU32,
    pub config: ConnectionConfig,
    pub state: Mutex<ConnState>,
    pub established: Event,
    pub closed: AtomicBool,
    /// Whether the close was peer-initiated (CloseConn / transport EOF).
    /// A peer close entitles the reactor task to a final receive-side
    /// drain before parked receives fail: the CloseConn rides the control
    /// connection and can overtake the peer's last data frames.
    pub closed_by_peer: AtomicBool,
    /// The dedicated data channel.
    pub transport: Arc<dyn Transport>,
    /// The node's recycling frame-buffer pool (every encode on the data
    /// plane draws from it).
    pub pool: Arc<BufPool>,
    /// The per-peer Control Send Thread's inbox (control connection).
    pub ctrl_tx: Arc<Mailbox<CtrlMsg>>,
    // Thread activation mailboxes.
    pub ec_send_inbox: Mailbox<EcSendMsg>,
    pub fc_inbox: Mailbox<FcMsg>,
    pub ec_recv_inbox: Mailbox<EcRecvMsg>,
    pub send_inbox: Mailbox<SendMsg>,
    /// Wake handle of the connection's reactor task (`None` in direct
    /// mode, before attachment, and after the task retires). A read-write
    /// lock, not a mutex: every submitter on the send path takes it
    /// shared in [`ConnShared::wake_task`], so N application threads
    /// hammering one connection never serialise on the wake handle —
    /// only attachment and retirement take it exclusively.
    pub task: RwLock<Option<Arc<TaskHandle>>>,
    /// The task's readiness registration with the reactor's `poll(2)`
    /// thread (fd-backed transports only; dropped on retirement).
    #[cfg(unix)]
    pub fd_reg: Mutex<Option<FdRegistration>>,
    /// Reassembled messages awaiting a receive: routed by tag, matched
    /// against parked [`Request`]s, failed fast on close.
    pub delivery: DeliveryQueue,
    pub counters: ConnCounters,
    /// Message-lifecycle flight recorder (telemetry plane). Always
    /// present; the ring itself carries the runtime kill-switch.
    pub recorder: FlightRecorder,
    /// The node's metrics registry, when the connection was opened under
    /// one. Held so the connection can retire its labelled series on drop.
    pub registry: Option<Arc<Registry>>,
    pub next_session: AtomicU32,
    /// Sticky error from the error-control plane (reported on
    /// `send_sync`/`recv`).
    pub last_error: Mutex<Option<SendError>>,
    // Direct-mode state (paper §4.2): strategies run inline.
    pub direct_events: Mailbox<DirectEvent>,
    pub direct_send: NcsMutex<Option<DirectSender>>,
    pub direct_recv: NcsMutex<Option<DirectReceiver>>,
    /// The node's time source. Direct-mode (§4.2 thread-bypass) retry
    /// deadlines — the acknowledgement-timeout retransmission clock and
    /// the `recv_direct` operation deadline — are computed from it, so a
    /// simulated node retries on virtual time (`ncs_core::clock`). The
    /// reactor's own timer heap stays wall-clock: it is the real-time
    /// boundary that *drives* simulations.
    pub clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ConnShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnShared")
            .field("id", &self.id)
            .field("peer", &self.peer_name)
            .field("state", &*self.state.lock())
            .field("interface", &self.transport.caps().interface)
            .finish()
    }
}

impl Drop for ConnShared {
    fn drop(&mut self) {
        // Retire this connection's labelled series so long-lived nodes
        // with connection churn don't accumulate dead metrics. Detached
        // `ConnectionStats` handles keep their own counter clones.
        if let Some(registry) = &self.registry {
            registry.unregister_label("conn", &self.id.to_string());
        }
    }
}

/// Control events routed to a direct-mode connection.
#[derive(Debug)]
pub(crate) enum DirectEvent {
    Ack(AckInfo),
    Credit(u32),
}

/// Inline sender engine for direct mode.
pub(crate) struct DirectSender {
    pub ec: Box<dyn SenderEc>,
    pub fc: Box<dyn FlowControlStrategy>,
}

impl std::fmt::Debug for DirectSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectSender").finish()
    }
}

/// Inline receiver engine for direct mode.
pub(crate) struct DirectReceiver {
    pub ec: Box<dyn crate::error_control::ReceiverEc>,
    pub fc: Box<dyn FlowControlStrategy>,
    /// Sessions below this were delivered; see `ec_recv_thread`.
    pub delivered_below: u32,
}

impl std::fmt::Debug for DirectReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectReceiver").finish()
    }
}

impl ConnShared {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor; every field is load-bearing
    pub(crate) fn new(
        id: u32,
        peer_name: String,
        config: ConnectionConfig,
        transport: Arc<dyn Transport>,
        pool: Arc<BufPool>,
        ctrl_tx: Arc<Mailbox<CtrlMsg>>,
        registry: Option<Arc<Registry>>,
        clock: Arc<dyn Clock>,
    ) -> Arc<Self> {
        let direct = config.direct;
        let counters = match &registry {
            Some(r) => ConnCounters::registered(r, id, &peer_name),
            None => ConnCounters::default(),
        };
        let shared = Arc::new(ConnShared {
            id,
            peer_name,
            peer_conn: AtomicU32::new(u32::MAX),
            config,
            state: Mutex::new(ConnState::Connecting),
            established: Event::new(),
            closed: AtomicBool::new(false),
            closed_by_peer: AtomicBool::new(false),
            transport,
            pool,
            ctrl_tx,
            ec_send_inbox: Mailbox::unbounded(),
            fc_inbox: Mailbox::unbounded(),
            ec_recv_inbox: Mailbox::unbounded(),
            send_inbox: Mailbox::bounded(SEND_QUEUE_DEPTH),
            task: RwLock::new(None),
            #[cfg(unix)]
            fd_reg: Mutex::new(None),
            delivery: DeliveryQueue::new(),
            counters,
            recorder: FlightRecorder::default(),
            registry,
            next_session: AtomicU32::new(0),
            last_error: Mutex::new(None),
            direct_events: Mailbox::unbounded(),
            direct_send: NcsMutex::new(None),
            direct_recv: NcsMutex::new(None),
            clock,
        });
        if direct {
            *shared.direct_send.lock() = Some(DirectSender {
                ec: build_sender(&shared.config.error_control),
                fc: build_fc(&shared.config.flow_control),
            });
            *shared.direct_recv.lock() = Some(DirectReceiver {
                ec: build_receiver(&shared.config.error_control),
                fc: build_fc(&shared.config.flow_control),
                delivered_below: 0,
            });
        }
        // Exact receive accounting (all four transports, bypass included):
        // the delivery queue is the one point every reassembled or
        // zero-copy message crosses, so it owns the `messages_received`
        // increment and the `Deliver` flight event.
        shared.delivery.set_obs(
            shared.counters.messages_received.clone(),
            shared.recorder.clone(),
        );
        shared
    }

    /// Records a link-failure flight event and, when a post-mortem sink
    /// is configured, writes the connection's final stats and flight dump
    /// to it. Called from the fail-fast transport-error paths only — a
    /// graceful peer close is not a link failure.
    pub(crate) fn link_down(&self) {
        self.recorder.record(EventKind::LinkDown, 0, 0, 0);
        if ncs_obs::postmortem::sink_path().is_some() {
            let flight = self.recorder.dump_json_labelled(&self.flight_label());
            let peer = self.peer_name.as_str();
            let dump = ncs_obs::obj! { "event": "link_down", "peer": peer, "flight": flight };
            ncs_obs::postmortem::write(&dump.to_string());
        }
    }

    /// The label this connection's flight dump carries: `<id>-><peer>`.
    pub(crate) fn flight_label(&self) -> String {
        format!("{}->{}", self.id, self.peer_name)
    }

    /// Largest message this configuration accepts.
    pub(crate) fn max_message(&self) -> usize {
        if matches!(self.config.error_control, ErrorControlAlg::None) {
            // Without error control there is no reassembly guarantee across
            // loss; bound messages to what segmentation keeps intact on an
            // ordered transport (still multiple SDUs, delivered on the end
            // bit).
            self.config.sdu_size * 64
        } else {
            self.config.sdu_size * crate::seq::AckBitmap::MAX_TOTAL as usize
        }
    }

    pub(crate) fn peer_conn_id(&self) -> u32 {
        self.peer_conn.load(Ordering::Acquire)
    }

    pub(crate) fn mark_established(&self, peer_conn: u32) {
        self.peer_conn.store(peer_conn, Ordering::Release);
        *self.state.lock() = ConnState::Active;
        self.established.fire();
    }

    pub(crate) fn fail(&self, error: SendError) {
        *self.last_error.lock() = Some(error);
        self.counters.send_failures.inc();
    }

    /// Learns the peer's connection id from an incoming data packet (covers
    /// the window where data outruns the control-plane accept).
    pub(crate) fn note_peer_conn(&self, src: u32) {
        let _ = self
            .peer_conn
            .compare_exchange(u32::MAX, src, Ordering::AcqRel, Ordering::Relaxed);
    }

    /// Schedules the connection's reactor task — the reactor-era analogue
    /// of the paper's mailbox activation. No-op in direct mode, before
    /// attachment, and after retirement (wakes coalesce; a wake racing a
    /// running poll reschedules it, so no activation is ever lost).
    pub(crate) fn wake_task(&self) {
        if let Some(t) = self.task.read().as_ref() {
            t.wake();
        }
    }

    /// Queues a frame to the Send Thread, blocking (cooperatively) while
    /// the bounded queue is full. Returns `false` — dropping the frame —
    /// once the connection is closed, so producers never hang on a Send
    /// Thread that has already exited.
    pub(crate) fn queue_frame(
        &self,
        frame: PooledBuf,
        trace: Option<Arc<SendTrace>>,
        done: Option<Arc<RequestCore<()>>>,
    ) -> bool {
        let mut msg = SendMsg::Frame { frame, trace, done };
        loop {
            if self.closed.load(Ordering::Acquire) {
                if let SendMsg::Frame {
                    done: Some(core), ..
                } = msg
                {
                    core.complete(Err(SendError::Closed));
                }
                return false;
            }
            match self.send_inbox.send_timeout(msg, IDLE_TICK) {
                Ok(()) => {
                    self.wake_task();
                    return true;
                }
                Err(back) => msg = back.0,
            }
        }
    }

    /// Segments `data` for `session` straight into pooled, wire-ready
    /// frames — no intermediate [`DataPacket`]s. This is the bypass-path
    /// encode: without error control there are no retransmissions, so the
    /// payload copies that [`ConnShared::segment`] keeps around would be
    /// pure overhead.
    pub(crate) fn segment_frames(&self, session: u32, data: &[u8], tagged: bool) -> Vec<PooledBuf> {
        self.recorder
            .record(EventKind::Packetize, 0, session, data.len());
        let sdu = self.config.sdu_size;
        let n = data.len().div_ceil(sdu).max(1);
        let peer_conn = self.peer_conn_id();
        (0..n)
            .map(|i| {
                let lo = i * sdu;
                let hi = ((i + 1) * sdu).min(data.len());
                let header = DataHeader {
                    conn: peer_conn,
                    src_conn: self.id,
                    session,
                    seq: i as u32,
                    end: i == n - 1,
                    tagged,
                };
                header.encode_frame_pooled(&data[lo..hi], &self.pool)
            })
            .collect()
    }

    /// Segments `data` into SDU packets for `session`.
    pub(crate) fn segment(&self, session: u32, data: &[u8], tagged: bool) -> Vec<DataPacket> {
        self.recorder
            .record(EventKind::Packetize, 0, session, data.len());
        let sdu = self.config.sdu_size;
        let n = data.len().div_ceil(sdu).max(1);
        let peer_conn = self.peer_conn_id();
        (0..n)
            .map(|i| {
                let lo = i * sdu;
                let hi = ((i + 1) * sdu).min(data.len());
                DataPacket {
                    header: DataHeader {
                        conn: peer_conn,
                        src_conn: self.id,
                        session,
                        seq: i as u32,
                        end: i == n - 1,
                        tagged,
                    },
                    payload: data[lo..hi].to_vec(),
                }
            })
            .collect()
    }

    pub(crate) fn initiate_close(&self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        // Tell the peer (best effort), then stop our threads.
        let peer = self.peer_conn_id();
        if peer != u32::MAX {
            self.ctrl_tx.send(CtrlMsg::CloseConn { conn: peer });
        }
        self.shutdown_threads();
    }

    pub(crate) fn peer_closed(&self) {
        self.closed_by_peer.store(true, Ordering::Release);
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        *self.state.lock() = ConnState::Closed;
        self.shutdown_threads();
    }

    /// Retires the connection's data plane. Called exactly once (guarded
    /// by the callers' `closed` swap); the teardown itself is idempotent —
    /// the shutdown messages are belt-and-braces for anything still
    /// draining the inboxes, and the reactor task retires on the `closed`
    /// flag the wake below makes it observe. A second close, or a close
    /// landing while the task is mid-poll, resolves to a coalesced wake
    /// and a no-op retirement.
    ///
    /// With a live reactor task the transport close is deferred to the
    /// task's retirement so the close is *graceful* in both directions:
    ///
    /// - A **locally**-initiated close keeps the receive fail-fast
    ///   contract (parked receives resolve here, now) but lets the task
    ///   flush queued sends — frames parked behind flow-control credits
    ///   or an unacknowledged error-control session — before the
    ///   transport closes, so fire-and-forget sends issued right before
    ///   `close()` still reach the peer.
    /// - A **peer**-initiated close defers the receive fail-fast too: the
    ///   CloseConn travels on the control connection and can overtake the
    ///   peer's final data frames on the data channel, so the task keeps
    ///   delivering until the channel itself reports EOF (or a bounded
    ///   linger) and only then fails the parked receives.
    ///
    /// Without a task (direct mode, or the task already retired) the
    /// teardown is immediate.
    fn shutdown_threads(&self) {
        self.ec_send_inbox.send(EcSendMsg::Shutdown);
        self.fc_inbox.send(FcMsg::Shutdown);
        self.ec_recv_inbox.send(EcRecvMsg::Shutdown);
        // The send queue is bounded: don't block shutdown on a full queue
        // (the task retires via the closed flag regardless).
        let _ = self.send_inbox.try_send(SendMsg::Shutdown);
        let task_attached = self.task.read().is_some();
        if !task_attached {
            self.transport.close();
            self.delivery.fail_all(SendError::Closed);
        } else if !self.closed_by_peer.load(Ordering::Acquire) {
            // Fail-fast for parked receives: every in-flight `irecv` (and
            // the blocking wrappers over it) resolves *now*, not a poll
            // tick later.
            self.delivery.fail_all(SendError::Closed);
        }
        self.established.fire();
        // Schedule the task so it observes `closed` and runs the closing
        // drain (flush sends / deliver final frames), then retires.
        self.wake_task();
    }
}

const IDLE_TICK: Duration = Duration::from_millis(100);

/// Frames drained per poll round before the task yields its shard with
/// [`TaskPoll::Again`] (keeps one firehose connection from starving its
/// shard siblings).
const RECV_BUDGET: usize = 4 * IO_BATCH;

/// Plane rounds per poll: the planes feed each other (receive → FC → EC →
/// send), so one poll loops until a full round makes no progress — bounded
/// so a busy task still yields the shard.
const MAX_ROUNDS: usize = 8;

/// Retry delay after the transport refused a nonblocking transmit
/// ([`ncs_transport::Connection::try_send_batch`] returned 0). The remedy
/// is the *peer* draining, which this reactor cannot observe, so a short
/// timer polls the flush.
const TX_RETRY: Duration = Duration::from_millis(1);

/// Upper bound on the post-close receive drain after a *peer* close. The
/// drain normally ends much earlier — when the data channel reports EOF
/// (the peer's transport close follows its last frame) — the linger only
/// bounds transports that never signal EOF.
const CLOSE_LINGER: Duration = Duration::from_millis(250);

/// One frame queued on the Send plane, with its optional Table-I trace and
/// transmit completion.
type SendJob = (
    PooledBuf,
    Option<Arc<SendTrace>>,
    Option<Arc<RequestCore<()>>>,
);

/// Attaches a connection to the reactor: one [`ConnTask`] multiplexing all
/// four Figure-4 planes onto a shared event loop. Direct mode (§4.2)
/// attaches nothing — its strategies already run inline on the caller.
pub(crate) fn attach_connection(reactor: &Arc<Reactor>, shared: &Arc<ConnShared>) {
    if shared.config.direct {
        return;
    }
    let handle = reactor.spawn(Box::new(ConnTask::new(Arc::clone(shared))));
    *shared.task.write() = Some(Arc::clone(&handle));
    {
        let h = Arc::clone(&handle);
        shared
            .transport
            .register_waker(Some(Arc::new(move || h.wake())));
    }
    #[cfg(unix)]
    if let ncs_transport::Readiness::Fd(fd) = shared.transport.readiness() {
        *shared.fd_reg.lock() = Some(reactor.register_fd(fd, Arc::clone(&handle)));
    }
    // Frames arriving between the task's first poll and the waker
    // registration above had nothing to wake; one explicit wake closes
    // the gap (the poll it schedules drains them).
    handle.wake();
}

/// The sender error-control session in flight (one at a time, Figure 6).
struct ActiveSend {
    packets: Vec<DataPacket>,
    completion: Option<Arc<RequestCore<()>>>,
    first_round: bool,
    /// Deadline of the current acknowledgement wait; `None` while a
    /// strategy step is being applied (the threaded code's "inside
    /// `run_send_session`, outside `wait_for_ack`" state).
    ack_deadline: Option<Instant>,
}

/// A connection's Figure-4 pipeline as one resumable reactor task.
///
/// Each plane that used to be a thread is a `step_*` method draining the
/// same activation mailbox the thread blocked on; the blocking waits
/// became [`TaskPoll::Timer`] deadlines. The strategy objects
/// ([`SenderEc`], [`ReceiverEc`], [`FlowControlStrategy`]) are untouched.
struct ConnTask {
    shared: Arc<ConnShared>,
    has_fc: bool,
    has_ctrl: bool,
    // -- Send plane (Figure 4 step 4) --
    tx_pending: VecDeque<SendJob>,
    tx_blocked: bool,
    // -- Receive plane (steps 7-8): fully-bypassed inline reassembly.
    // Payloads append straight from received frames into a *pooled*
    // message buffer (arrival order, delivery on the end bit — the
    // null-EC contract); the buffer rides the delivered [`MsgView`] and
    // returns to the pool when the application drops the view.
    assembling: Option<PooledBuf>,
    // -- Flow Control plane (Figures 7/8) --
    fc_strategy: Option<Box<dyn FlowControlStrategy>>,
    fc_pending: VecDeque<DataPacket>,
    fc_last_progress: Instant,
    // -- Error Control, sender half (Figure 6) --
    ec_tx_strategy: Option<Box<dyn SenderEc>>,
    ec_backlog: SendBacklog,
    ec_active: Option<ActiveSend>,
    // -- Error Control, receiver half (steps 9-10) --
    ec_rx_strategy: Option<Box<dyn ReceiverEc>>,
    ec_rx_session: Option<u32>,
    /// Sessions below this were fully delivered: their retransmissions
    /// are duplicates (the original acknowledgement was lost) and must be
    /// re-acknowledged, never re-delivered.
    ec_rx_delivered_below: u32,
    /// The transport reported EOF/failure on the receive side: the
    /// post-close drain is complete, nothing more can arrive.
    rx_eof: bool,
    /// Deadline of the post-close receive drain (armed on the first
    /// closing poll after a peer close).
    drain_deadline: Option<Instant>,
    finished: bool,
}

impl ConnTask {
    fn new(shared: Arc<ConnShared>) -> Self {
        let has_ctrl = shared.config.needs_control_threads();
        let has_fc = has_ctrl && !matches!(shared.config.flow_control, FlowControlAlg::None);
        ConnTask {
            has_fc,
            has_ctrl,
            tx_pending: VecDeque::with_capacity(IO_BATCH),
            tx_blocked: false,
            assembling: None,
            fc_strategy: has_fc.then(|| build_fc(&shared.config.flow_control)),
            fc_pending: VecDeque::new(),
            fc_last_progress: Instant::now(),
            ec_tx_strategy: has_ctrl.then(|| build_sender(&shared.config.error_control)),
            ec_backlog: SendBacklog::new(),
            ec_active: None,
            ec_rx_strategy: has_ctrl.then(|| build_receiver(&shared.config.error_control)),
            ec_rx_session: None,
            ec_rx_delivered_below: 0,
            rx_eof: false,
            drain_deadline: None,
            finished: false,
            shared,
        }
    }

    /// The Receive plane: drains ready frames off the data connection and
    /// activates the next plane (FC if configured, else EC, else direct
    /// delivery). Frames are parsed in place ([`DataPacket::peek`]); owned
    /// packets are materialised only when a frame crosses into another
    /// plane's mailbox.
    fn step_recv(&mut self, hungry: &mut bool) -> bool {
        let shared = Arc::clone(&self.shared);
        let mut progressed = false;
        let mut budget = RECV_BUDGET;
        loop {
            if budget == 0 {
                *hungry = true;
                break;
            }
            let frame = match shared.transport.try_recv() {
                Ok(Some(f)) => f,
                Ok(None) | Err(TransportError::Timeout) => break,
                Err(_) => {
                    // The link died: nothing more can arrive. Record EOF
                    // (ends any post-close drain) and fail fast.
                    self.rx_eof = true;
                    shared.link_down();
                    shared.peer_closed();
                    return true;
                }
            };
            budget -= 1;
            progressed = true;
            let view = match DataPacket::peek(&frame) {
                Ok(v) => v,
                Err(_) => continue, // not a data packet: ignore
            };
            shared.note_peer_conn(view.header.src_conn);
            shared.counters.packets_received.inc();
            if self.has_fc {
                shared.fc_inbox.send(FcMsg::Incoming(view.to_packet()));
            } else if self.has_ctrl {
                shared
                    .ec_recv_inbox
                    .send(EcRecvMsg::Packet(view.to_packet()));
            } else {
                // Fully bypassed: reassemble inline, deliver directly, no
                // per-packet payload allocation.
                let buf = self.assembling.get_or_insert_with(|| shared.pool.get());
                buf.vec_mut().extend_from_slice(view.payload);
                if view.header.end {
                    // `messages_received` is counted at the delivery queue.
                    let buf = self.assembling.take().expect("just inserted");
                    deliver_message(&shared, buf, view.header.tagged);
                }
            }
        }
        progressed
    }

    /// The Flow Control plane: releases queued packets under the
    /// configured algorithm and grants credits for received ones.
    fn step_fc(&mut self, timer: &mut Option<Instant>) -> bool {
        if !self.has_fc {
            return false;
        }
        let ConnTask {
            shared,
            fc_strategy,
            fc_pending,
            fc_last_progress,
            tx_pending,
            ..
        } = self;
        let strategy = fc_strategy.as_mut().expect("fc configured").as_mut();
        let mut progressed = false;
        while let Some(msg) = shared.fc_inbox.try_recv() {
            progressed = true;
            match msg {
                FcMsg::Enqueue(pkts) => fc_pending.extend(pkts),
                FcMsg::Replace(pkts) => {
                    fc_pending.clear();
                    fc_pending.extend(pkts);
                }
                FcMsg::Feedback(n) => {
                    shared.counters.credits_received.add(n as u64);
                    strategy.on_feedback(n);
                    *fc_last_progress = Instant::now();
                }
                FcMsg::Incoming(packet) => {
                    let grant = strategy.on_receive(Instant::now());
                    if grant > 0 {
                        shared.counters.credits_granted.add(grant as u64);
                        shared.ctrl_tx.send(CtrlMsg::Credit {
                            conn: shared.peer_conn_id(),
                            credits: grant,
                        });
                    }
                    shared.ec_recv_inbox.send(EcRecvMsg::Packet(packet));
                }
                FcMsg::Shutdown => {} // retirement rides the closed flag
            }
        }
        // Release whatever the algorithm now permits.
        let permits = strategy.permits(Instant::now()) as usize;
        let mut n = permits.min(fc_pending.len());
        if permits == 0 && !fc_pending.is_empty() {
            // Stalled on credit: note the queue depth for the recorder.
            shared
                .recorder
                .record(EventKind::FcWait, 0, 0, fc_pending.len());
        }
        // Starvation probe: feedback can be lost on an unreliable control
        // path; rather than stall forever, trickle one packet out so the
        // receiver's grants resume.
        if n == 0 && !fc_pending.is_empty() && fc_last_progress.elapsed() >= FC_STARVATION_PROBE {
            n = 1;
        }
        if n > 0 {
            for _ in 0..n {
                let p = fc_pending.pop_front().expect("counted above");
                tx_pending.push_back((p.encode_pooled(&shared.pool), None, None));
            }
            strategy.on_transmit(n.min(permits) as u32);
            *fc_last_progress = Instant::now();
            progressed = true;
        }
        // Park on the algorithm's own pacing and the starvation probe —
        // but only while packets actually wait for permits; an idle FC
        // plane costs the reactor nothing.
        if !fc_pending.is_empty() {
            if let Some(t) = strategy.next_poll(Instant::now()) {
                min_timer(timer, t);
            }
            min_timer(timer, *fc_last_progress + FC_STARVATION_PROBE);
        }
        progressed
    }

    /// The Error Control plane, receiver half: reassembles SDUs,
    /// acknowledges over the control connection and delivers into the
    /// user buffer.
    fn step_ec_rx(&mut self) -> bool {
        if !self.has_ctrl {
            return false;
        }
        let ConnTask {
            shared,
            ec_rx_strategy,
            ec_rx_session,
            ec_rx_delivered_below,
            ..
        } = self;
        let strategy = ec_rx_strategy.as_mut().expect("ctrl configured").as_mut();
        let mut progressed = false;
        while let Some(msg) = shared.ec_recv_inbox.try_recv() {
            progressed = true;
            let packet = match msg {
                EcRecvMsg::Packet(p) => p,
                EcRecvMsg::Shutdown => continue, // retirement rides the closed flag
            };
            let h = packet.header;
            if h.session < *ec_rx_delivered_below {
                // Duplicate of a completed message: re-send the clean
                // acknowledgement when its end marker shows up, so the
                // sender can finish even though the first ACK died.
                if h.end {
                    let ack = match strategy.name() {
                        "go-back-n" => AckInfo::Cumulative(h.seq + 1),
                        _ => AckInfo::Bitmap(crate::seq::AckBitmap::all_received(h.seq + 1)),
                    };
                    shared.counters.acks_sent.inc();
                    shared.ctrl_tx.send(make_ack_msg(shared, h.session, ack));
                }
                continue;
            }
            match *ec_rx_session {
                Some(s) if s == h.session => {}
                Some(s) if h.session < s => continue, // stale retransmission
                _ => {
                    strategy.reset();
                    *ec_rx_session = Some(h.session);
                }
            }
            let step = strategy.on_packet(h.seq, h.end, packet.payload);
            let (ack, deliver) = match step {
                ReceiverStep::Ack(a) => (Some(a), None),
                ReceiverStep::Deliver(m) => (None, Some(m)),
                ReceiverStep::AckAndDeliver(a, m) => (Some(a), Some(m)),
                ReceiverStep::Continue => (None, None),
            };
            if let Some(a) = ack {
                shared.counters.acks_sent.inc();
                shared.ctrl_tx.send(make_ack_msg(shared, h.session, a));
            }
            if let Some(m) = deliver {
                // `messages_received` is counted at the delivery queue.
                // EC strategies reassemble in their own buffers; the view
                // is detached (owned), not pooled.
                deliver_message(shared, PooledBuf::detached(m), h.tagged);
                *ec_rx_delivered_below = h.session + 1;
                *ec_rx_session = None;
            }
        }
        progressed
    }

    /// The Error Control plane, sender half: one message at a time, per
    /// the paper's Figure 6 pseudocode. Acknowledgement waits park on a
    /// reactor timer instead of a blocking mailbox receive.
    fn step_ec_tx(&mut self, timer: &mut Option<Instant>) -> bool {
        if !self.has_ctrl {
            return false;
        }
        let ConnTask {
            shared,
            has_fc,
            ec_tx_strategy,
            ec_backlog,
            ec_active,
            tx_pending,
            ..
        } = self;
        let strategy = ec_tx_strategy.as_mut().expect("ctrl configured").as_mut();
        let mut progressed = false;
        while let Some(msg) = shared.ec_send_inbox.try_recv() {
            progressed = true;
            match msg {
                EcSendMsg::Send {
                    data,
                    tagged,
                    completion,
                } => ec_backlog.push_back((data, tagged, completion)),
                EcSendMsg::Ack(info) => {
                    if ec_active.as_ref().is_some_and(|a| a.ack_deadline.is_some()) {
                        shared.counters.acks_received.inc();
                        let step = strategy.on_ack(info);
                        if !matches!(step, SenderStep::Wait) {
                            ec_active.as_mut().expect("checked above").ack_deadline = None;
                            ec_apply(shared, *has_fc, strategy, ec_active, tx_pending, step);
                        }
                        // `Wait` keeps waiting against the *same* deadline
                        // (a partial acknowledgement does not reset the
                        // retransmission clock).
                    }
                    // No session waiting: a stale ack between sessions —
                    // dropped, exactly as the threaded pick-up loop did.
                }
                EcSendMsg::Shutdown => {} // retirement rides the closed flag
            }
        }
        // Acknowledgement timeout: synthesise the strategy's timeout step.
        if let Some(deadline) = ec_active.as_ref().and_then(|a| a.ack_deadline) {
            if Instant::now() >= deadline {
                ec_active.as_mut().expect("checked above").ack_deadline = None;
                let step = strategy.on_timeout();
                ec_apply(shared, *has_fc, strategy, ec_active, tx_pending, step);
                progressed = true;
            }
        }
        // Start the next message once idle.
        while ec_active.is_none() {
            let Some((data, tagged, completion)) = ec_backlog.pop_front() else {
                break;
            };
            progressed = true;
            let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
            shared
                .recorder
                .record(EventKind::EcSession, 0, session, data.len());
            let packets = shared.segment(session, &data, tagged);
            shared.counters.messages_sent.inc();
            let total = packets.len() as u32;
            *ec_active = Some(ActiveSend {
                packets,
                completion,
                first_round: true,
                ack_deadline: None,
            });
            let step = strategy.begin(total);
            ec_apply(shared, *has_fc, strategy, ec_active, tx_pending, step);
        }
        // Park the poll on the pending acknowledgement deadline, if any.
        if let Some(deadline) = ec_active.as_ref().and_then(|a| a.ack_deadline) {
            min_timer(timer, deadline);
        }
        progressed
    }

    /// The Send plane: moves queued frames onto the data connection. Up to
    /// [`IO_BATCH`] frames cross the transport per
    /// [`ncs_transport::Connection::try_send_batch`] call, and their
    /// pooled buffers return to the pool as each is transmitted.
    fn step_send(&mut self, timer: &mut Option<Instant>) -> bool {
        let ConnTask {
            shared,
            tx_pending,
            tx_blocked,
            ..
        } = self;
        let mut progressed = false;
        // Pull queued frames in; the inbox is bounded, so draining it here
        // is what unblocks producers parked in `queue_frame`.
        while tx_pending.len() < 2 * IO_BATCH {
            match shared.send_inbox.try_recv() {
                Some(SendMsg::Frame { frame, trace, done }) => {
                    // Hand-off acknowledgement: the caller may resume (and
                    // overlap computation with the transmit below — §4.1).
                    if let Some(t) = &trace {
                        *t.dequeued_at.lock() = Some(Instant::now());
                        t.accepted.fire();
                    }
                    tx_pending.push_back((frame, trace, done));
                    progressed = true;
                }
                Some(SendMsg::Shutdown) => {} // retirement rides the closed flag
                None => break,
            }
        }
        *tx_blocked = false;
        while !tx_pending.is_empty() {
            let batch = tx_pending.len().min(IO_BATCH);
            let refs: Vec<&[u8]> = tx_pending
                .iter()
                .take(batch)
                .map(|(f, _, _)| f.as_slice())
                .collect();
            match shared.transport.try_send_batch(&refs) {
                Ok(0) => {
                    // Interface backpressure: the peer must drain before
                    // more fits, which no local readiness source reports —
                    // retry on a short timer.
                    *tx_blocked = true;
                    break;
                }
                Ok(sent) => {
                    let sent = sent.min(batch);
                    shared.counters.packets_sent.add(sent as u64);
                    let bytes: usize = refs.iter().take(sent).map(|r| r.len()).sum();
                    shared.recorder.record(EventKind::Wire, 0, 0, bytes);
                    for (frame, trace, done) in tx_pending.drain(..sent) {
                        if let Some(t) = &trace {
                            *t.transmitted_at.lock() = Some(Instant::now());
                        }
                        drop(frame); // buffer returns to the pool
                        if let Some(t) = &trace {
                            *t.freed_at.lock() = Some(Instant::now());
                            t.done.fire();
                        }
                        if let Some(core) = done {
                            core.complete(Ok(()));
                        }
                    }
                    progressed = true;
                }
                Err(e) => {
                    // Nothing of the batch was accepted. Unblock any
                    // profiled waiters, then handle the failure as the
                    // single-frame path did: Closed tears the data plane
                    // down, anything else drops the frames.
                    let failure = SendError::from(e.clone());
                    for (_, trace, done) in tx_pending.drain(..) {
                        if let Some(t) = trace {
                            *t.transmitted_at.lock() = Some(Instant::now());
                            *t.freed_at.lock() = Some(Instant::now());
                            t.done.fire();
                        }
                        if let Some(core) = done {
                            core.complete(Err(failure.clone()));
                        }
                    }
                    progressed = true;
                    if matches!(e, TransportError::Closed) {
                        shared.link_down();
                        shared.peer_closed();
                    }
                    break;
                }
            }
        }
        if *tx_blocked {
            min_timer(timer, Instant::now() + TX_RETRY);
        }
        progressed
    }

    /// Terminal teardown, run once when the task observes `closed`: every
    /// queued send — EC backlog, EC inbox, send queue — resolves `Closed`
    /// instead of dangling, and the task detaches from its readiness
    /// sources. Idempotent by construction (double close and
    /// close-during-poll both funnel into the same single retirement).
    fn retire(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let shared = Arc::clone(&self.shared);
        // Sender EC: the in-flight session fails like a delivery error…
        if let Some(active) = self.ec_active.take() {
            shared.fail(SendError::Closed);
            if let Some(c) = active.completion {
                c.complete(Err(SendError::Closed));
            }
        }
        // …and everything queued behind it resolves Closed (the send-side
        // half of the fail-fast contract).
        for (_, _, completion) in self.ec_backlog.drain(..) {
            if let Some(c) = completion {
                c.complete(Err(SendError::Closed));
            }
        }
        while let Some(msg) = shared.ec_send_inbox.try_recv() {
            if let EcSendMsg::Send {
                completion: Some(c),
                ..
            } = msg
            {
                c.complete(Err(SendError::Closed));
            }
        }
        fn fail_job(job: SendJob) {
            let (frame, trace, done) = job;
            drop(frame); // buffer returns to the pool
            if let Some(t) = trace {
                *t.transmitted_at.lock() = Some(Instant::now());
                *t.freed_at.lock() = Some(Instant::now());
                t.accepted.fire();
                t.done.fire();
            }
            if let Some(core) = done {
                core.complete(Err(SendError::Closed));
            }
        }
        for job in self.tx_pending.drain(..) {
            fail_job(job);
        }
        while let Some(msg) = shared.send_inbox.try_recv() {
            if let SendMsg::Frame { frame, trace, done } = msg {
                fail_job((frame, trace, done));
            }
        }
        self.fc_pending.clear();
        self.assembling = None;
        // Close the transport and fail the parked receives. On a local
        // close `shutdown_threads` already did both (these repeats are
        // no-ops); on a peer close they were deferred to this retirement
        // so the final drain could deliver the peer's last frames first.
        shared.transport.close();
        shared.delivery.fail_all(SendError::Closed);
        // Detach from the transport waker and the fd poller, and drop the
        // wake handle so later `wake_task` calls are no-ops.
        shared.transport.register_waker(None);
        #[cfg(unix)]
        {
            *shared.fd_reg.lock() = None;
        }
        *shared.task.write() = None;
    }

    /// Whether the send planes are empty: nothing queued behind the
    /// error-control session, no session in flight, nothing parked on
    /// flow-control credits, nothing waiting on the wire.
    fn flushed(&self) -> bool {
        self.ec_active.is_none()
            && self.ec_backlog.is_empty()
            && self.fc_pending.is_empty()
            && self.tx_pending.is_empty()
            && !self.tx_blocked
            && self.shared.ec_send_inbox.is_empty()
            && self.shared.send_inbox.is_empty()
    }

    /// Post-close polling: the graceful half of the close, bounded by
    /// [`CLOSE_LINGER`].
    ///
    /// A **locally**-initiated close flushes the send planes — frames
    /// parked on flow-control credits or an unacknowledged error-control
    /// session still go out — and retires as soon as they are empty
    /// (instantly for the common quiescent close). A **peer**-initiated
    /// close additionally keeps the receive planes delivering: the
    /// CloseConn rides the control connection and can overtake the peer's
    /// final data frames, so the task drains until the data channel
    /// itself reports EOF (the peer's transport close follows its data).
    fn poll_closing(&mut self) -> TaskPoll {
        let deadline = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + CLOSE_LINGER);
        let peer_close = self.shared.closed_by_peer.load(Ordering::Acquire);
        let mut timer = None;
        for _ in 0..MAX_ROUNDS {
            let mut hungry = false;
            timer = None;
            let mut progressed = false;
            if peer_close {
                progressed |= self.step_recv(&mut hungry);
            }
            progressed |= self.step_fc(&mut timer);
            if peer_close {
                progressed |= self.step_ec_rx();
            }
            progressed |= self.step_ec_tx(&mut timer);
            progressed |= self.step_send(&mut timer);
            if self.rx_eof || (!peer_close && self.flushed()) {
                self.retire();
                return TaskPoll::Done;
            }
            if hungry {
                return TaskPoll::Again;
            }
            if !progressed {
                break;
            }
        }
        if Instant::now() >= deadline {
            self.retire();
            return TaskPoll::Done;
        }
        // Quiescent but still lingering: re-arm fd readiness so the final
        // frames (or the EOF behind them) wake the task, and park on the
        // nearest protocol deadline with the linger as the backstop.
        #[cfg(unix)]
        if let Some(reg) = self.shared.fd_reg.lock().as_ref() {
            reg.rearm();
        }
        TaskPoll::Timer(timer.map_or(deadline, |t: Instant| t.min(deadline)))
    }
}

/// Reactor teardown can drop a live task without a final poll (shard
/// shutdown while connections are still attached): retire here so queued
/// sends and parked receives resolve `Closed` instead of dangling.
impl Drop for ConnTask {
    fn drop(&mut self) {
        self.retire();
    }
}

impl ReactorTask for ConnTask {
    fn poll(&mut self, _now: Instant) -> TaskPoll {
        if self.finished {
            return TaskPoll::Done;
        }
        let mut timer: Option<Instant> = None;
        for round in 0.. {
            if self.shared.closed.load(Ordering::Acquire) {
                return self.poll_closing();
            }
            if round == MAX_ROUNDS {
                return TaskPoll::Again;
            }
            // Timers are a function of the *current* protocol state, so
            // each round recomputes them from scratch.
            timer = None;
            let mut hungry = false;
            let mut progressed = false;
            progressed |= self.step_recv(&mut hungry);
            if !self.shared.closed.load(Ordering::Acquire) {
                progressed |= self.step_fc(&mut timer);
                progressed |= self.step_ec_rx();
                progressed |= self.step_ec_tx(&mut timer);
            }
            progressed |= self.step_send(&mut timer);
            if hungry {
                return TaskPoll::Again;
            }
            if !progressed {
                break;
            }
        }
        // Quiescent. Re-arm fd readiness — the poller is level-triggered,
        // so anything that arrived while disarmed shows on its next cycle
        // — and park on the nearest protocol deadline.
        #[cfg(unix)]
        if let Some(reg) = self.shared.fd_reg.lock().as_ref() {
            reg.rearm();
        }
        match timer {
            Some(at) => TaskPoll::Timer(at),
            None => TaskPoll::Idle,
        }
    }
}

/// Applies one sender-EC strategy step to the active session: transmit
/// rounds hand packets to FC (or straight to the Send plane on FC-less
/// configurations), completions resolve the session, and `Wait` arms the
/// acknowledgement deadline.
fn ec_apply(
    shared: &Arc<ConnShared>,
    has_fc: bool,
    strategy: &mut dyn SenderEc,
    ec_active: &mut Option<ActiveSend>,
    tx_pending: &mut VecDeque<SendJob>,
    step: SenderStep,
) {
    let Some(active) = ec_active.as_mut() else {
        return;
    };
    match step {
        SenderStep::Transmit(seqs) => {
            if !active.first_round {
                shared.counters.retransmissions.add(seqs.len() as u64);
                shared.recorder.record(
                    EventKind::Retransmit,
                    0,
                    *seqs.first().unwrap_or(&0),
                    seqs.len(),
                );
            }
            let batch: Vec<DataPacket> = seqs
                .iter()
                .map(|&s| active.packets[s as usize].clone())
                .collect();
            if has_fc {
                if active.first_round {
                    shared.fc_inbox.send(FcMsg::Enqueue(batch));
                } else {
                    // Retransmissions supersede whatever of this session
                    // is still waiting for credits.
                    shared.fc_inbox.send(FcMsg::Replace(batch));
                }
            } else {
                for p in batch {
                    tx_pending.push_back((p.encode_pooled(&shared.pool), None, None));
                }
            }
            if active.first_round && strategy.completes_without_ack() {
                ec_finish(shared, ec_active, Ok(()));
                return;
            }
            active.first_round = false;
            active.ack_deadline =
                Some(Instant::now() + strategy.ack_timeout().unwrap_or(IDLE_TICK));
        }
        SenderStep::Done => ec_finish(shared, ec_active, Ok(())),
        SenderStep::Failed(why) => {
            ec_finish(shared, ec_active, Err(SendError::DeliveryFailed(why)))
        }
        SenderStep::Wait => {
            active.ack_deadline =
                Some(Instant::now() + strategy.ack_timeout().unwrap_or(IDLE_TICK));
        }
    }
}

/// Resolves the active sender-EC session: failures stick on the
/// connection, and the `isend` completion (if any) resolves either way.
fn ec_finish(
    shared: &Arc<ConnShared>,
    ec_active: &mut Option<ActiveSend>,
    result: Result<(), SendError>,
) {
    if let Some(active) = ec_active.take() {
        if let Err(e) = &result {
            shared.fail(e.clone());
        }
        if let Some(c) = active.completion {
            c.complete(result);
        }
    }
}

fn min_timer(timer: &mut Option<Instant>, at: Instant) {
    match timer {
        Some(t) if *t <= at => {}
        _ => *timer = Some(at),
    }
}

/// Routes one reassembled message into the connection's delivery queue,
/// stripping the tag envelope of tag-matched traffic. A tagged message
/// too short to carry its envelope is a protocol corruption and is
/// dropped (never delivered as garbage).
fn deliver_message(shared: &ConnShared, buf: PooledBuf, tagged: bool) {
    let view = if tagged {
        if buf.as_slice().len() < TAG_ENVELOPE {
            return;
        }
        let tag = u32::from_be_bytes(buf.as_slice()[..TAG_ENVELOPE].try_into().expect("4 bytes"));
        MsgView::new(buf, TAG_ENVELOPE, Some(tag))
    } else {
        MsgView::new(buf, 0, None)
    };
    shared.delivery.deliver(view);
}

/// How long the Flow Control plane tolerates a non-empty queue with no
/// feedback before probing with one packet. Feedback (credits, window
/// acks) travels on the control connection, which over ACI can itself lose
/// cells; without this probe a lost credit grant would starve the sender
/// forever.
const FC_STARVATION_PROBE: Duration = Duration::from_millis(500);

/// Send jobs queued behind the one the Error Control plane is driving.
type SendBacklog = VecDeque<(Vec<u8>, bool, Option<Arc<RequestCore<()>>>)>;

fn make_ack_msg(shared: &ConnShared, session: u32, info: AckInfo) -> CtrlMsg {
    match info {
        AckInfo::Bitmap(bitmap) => CtrlMsg::Ack {
            conn: shared.peer_conn_id(),
            session,
            bitmap,
        },
        AckInfo::Cumulative(next_expected) => CtrlMsg::GbnAck {
            conn: shared.peer_conn_id(),
            session,
            next_expected,
        },
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// A point-to-point NCS connection (the object behind `NCS_send` /
/// `NCS_recv`).
///
/// Created by [`NcsNode::connect`](crate::NcsNode::connect) or
/// [`NcsNode::accept`](crate::NcsNode::accept). The connection's behaviour
/// — flow control, error control, threading — is fixed by its
/// [`ConnectionConfig`]; afterwards "the underlying operations are
/// transparent to users and they just need to invoke the same high-level
/// abstractions" (paper §3).
#[derive(Debug, Clone)]
pub struct NcsConnection {
    pub(crate) shared: Arc<ConnShared>,
}

impl NcsConnection {
    pub(crate) fn new(shared: Arc<ConnShared>) -> Self {
        NcsConnection { shared }
    }

    /// The local connection id.
    pub fn id(&self) -> u32 {
        self.shared.id
    }

    /// The peer node's name.
    pub fn peer_name(&self) -> &str {
        &self.shared.peer_name
    }

    /// This connection's configuration.
    pub fn config(&self) -> &ConnectionConfig {
        &self.shared.config
    }

    /// The interface family carrying this connection.
    pub fn interface(&self) -> &'static str {
        self.shared.transport.caps().interface
    }

    /// Traffic statistics.
    pub fn stats(&self) -> ConnectionStats {
        self.shared.counters.snapshot()
    }

    /// The connection's message-lifecycle [`FlightRecorder`]. Clones
    /// share the ring; use it to dump or re-enable recording.
    pub fn flight(&self) -> FlightRecorder {
        self.shared.recorder.clone()
    }

    /// Toggles the flight recorder's runtime kill-switch.
    pub fn set_flight_recording(&self, on: bool) {
        self.shared.recorder.set_enabled(on);
    }

    /// Whether the flight recorder is currently recording.
    pub fn flight_recording(&self) -> bool {
        self.shared.recorder.is_enabled()
    }

    /// Whether the connection is still usable.
    pub fn is_open(&self) -> bool {
        !self.shared.closed.load(Ordering::Acquire)
    }

    fn check_sendable(&self, data: &[u8], tag: Option<u32>) -> Result<(), SendError> {
        if data.is_empty() {
            return Err(SendError::Empty);
        }
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(SendError::Closed);
        }
        let max = self.shared.max_message();
        let envelope = if tag.is_some() { TAG_ENVELOPE } else { 0 };
        if data.len() + envelope > max {
            return Err(SendError::TooLarge {
                len: data.len(),
                max: max - envelope,
            });
        }
        Ok(())
    }

    /// `NCS_send`: hands the message to the connection's plane (Figure 4
    /// step 1) and returns once queued. Reliable configurations deliver (or
    /// record a failure) asynchronously; use [`NcsConnection::send_sync`]
    /// to wait for the acknowledgement, or [`NcsConnection::isend`] for a
    /// completion [`Request`].
    ///
    /// # Errors
    ///
    /// See [`SendError`].
    pub fn send(&self, data: &[u8]) -> Result<(), SendError> {
        self.send_inner(data, None, None)
    }

    /// Nonblocking `NCS_send`: queues the message and returns a
    /// [`Request`] that completes when the message is *delivered* (the
    /// error-control acknowledgement, on reliable configurations) or
    /// *transmitted* (on §3.1 bypass configurations). The caller computes;
    /// the runtime's threads move the data — the paper's overlap thesis as
    /// an API.
    ///
    /// # Errors
    ///
    /// Validation errors ([`SendError::Empty`], [`SendError::TooLarge`],
    /// [`SendError::Closed`], [`SendError::WrongMode`] on direct-mode
    /// connections) surface immediately; everything later resolves through
    /// the request.
    pub fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        let core = RequestCore::new();
        self.send_inner(data, None, Some(Arc::clone(&core)))?;
        Ok(Request::new(core))
    }

    /// [`NcsConnection::isend`] on logical channel `tag`: the receiver
    /// matches it with [`NcsConnection::irecv_tagged`] on the same tag.
    /// Tags multiplex independent message streams over one connection —
    /// per-tag FIFO order, no cross-tag interference.
    ///
    /// Tags at or above [`CHANNEL_TAG_BASE`] (top bit set) are the
    /// tag-class reserved for [`Channel`] handles; direct callers should
    /// stay below it or traffic will cross with
    /// [`NcsConnection::channel`] users of the same id.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::isend`].
    pub fn isend_tagged(&self, tag: u32, data: &[u8]) -> Result<Request<()>, SendError> {
        let core = RequestCore::new();
        self.send_inner(data, Some(tag), Some(Arc::clone(&core)))?;
        Ok(Request::new(core))
    }

    /// `NCS_send` + wait for the error-control completion (or transmit
    /// completion for unreliable configurations). Thin wrapper over
    /// [`NcsConnection::isend`].
    ///
    /// # Errors
    ///
    /// See [`SendError`]; notably [`SendError::DeliveryFailed`] when error
    /// control exhausts its retries.
    pub fn send_sync(&self, data: &[u8]) -> Result<(), SendError> {
        self.send_sync_timeout(data, Duration::from_secs(30))
    }

    /// [`NcsConnection::send_sync`] with an explicit wait limit.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::send_sync`], plus [`SendError::Timeout`].
    pub fn send_sync_timeout(&self, data: &[u8], timeout: Duration) -> Result<(), SendError> {
        if self.shared.config.direct {
            return self.send_direct(data);
        }
        self.isend(data)?.wait_timeout(timeout)
    }

    fn send_inner(
        &self,
        data: &[u8],
        tag: Option<u32>,
        completion: Option<Arc<RequestCore<()>>>,
    ) -> Result<(), SendError> {
        self.check_sendable(data, tag)?;
        if self.shared.config.direct {
            return Err(SendError::WrongMode("threaded"));
        }
        self.shared
            .recorder
            .record(EventKind::Isend, tag.unwrap_or(0), 0, data.len());
        // Tag-matched messages carry their tag as a 4-byte envelope at
        // the front of the message body (flagged in every SDU header).
        // The reactor task that runs the peer's receive plane strips the
        // envelope during reassembly and routes the message to the tag's
        // delivery shard — see `deliver_message` and
        // `request::DELIVERY_SHARDS`.
        fn envelope(tag: u32, data: &[u8]) -> Vec<u8> {
            let mut v = Vec::with_capacity(TAG_ENVELOPE + data.len());
            v.extend_from_slice(&tag.to_be_bytes());
            v.extend_from_slice(data);
            v
        }
        let tagged = tag.is_some();
        if self.shared.config.needs_control_threads() {
            // Figure 4 step 1: activate the Error Control plane.
            self.shared.ec_send_inbox.send(EcSendMsg::Send {
                data: match tag {
                    Some(t) => envelope(t, data),
                    None => data.to_vec(),
                },
                tagged,
                completion: completion.clone(),
            });
            self.shared.wake_task();
            // Close raced with the enqueue? The task may already have
            // drained its inbox and retired; resolve the request here so
            // it can never dangle (the first completion wins).
            if self.shared.closed.load(Ordering::Acquire) {
                if let Some(c) = completion {
                    c.complete(Err(SendError::Closed));
                }
            }
        } else {
            let enveloped: Vec<u8>;
            let body: &[u8] = match tag {
                Some(t) => {
                    enveloped = envelope(t, data);
                    &enveloped
                }
                None => data,
            };
            // §3.1 bypass: segment straight into pooled frames and
            // activate the Send Thread directly; the completion (if any)
            // rides the final frame and resolves on transmit.
            let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
            self.shared.counters.messages_sent.inc();
            let frames = self.shared.segment_frames(session, body, tagged);
            let last = frames.len() - 1;
            for (i, frame) in frames.into_iter().enumerate() {
                let done = if i == last { completion.clone() } else { None };
                if !self.shared.queue_frame(frame, None, done) {
                    return Err(SendError::Closed);
                }
            }
            // Close raced with the queueing? `closed` is set before the
            // Send Thread's Shutdown message, so observing it here means
            // our frames may sit behind that message forever — resolve
            // the request now (the first completion wins).
            if self.shared.closed.load(Ordering::Acquire) {
                if let Some(c) = completion {
                    c.complete(Err(SendError::Closed));
                }
            }
        }
        Ok(())
    }

    /// `NCS_send` for several messages in one call: validates and queues
    /// the whole batch onto the connection's plane in order. On §3.1
    /// bypass configurations every message is segmented straight into
    /// pooled frames and the frames queue back to back, so the Send
    /// Thread coalesces the batch into
    /// [`ncs_transport::Connection::send_batch`] transmissions; with
    /// FC/EC configured each message activates the Error Control Thread
    /// (asynchronous, exactly as [`NcsConnection::send`]).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::send`]; validation errors are reported before
    /// anything is queued.
    pub fn send_batch(&self, msgs: &[&[u8]]) -> Result<(), SendError> {
        for m in msgs {
            self.check_sendable(m, None)?;
        }
        if self.shared.config.direct {
            return Err(SendError::WrongMode("threaded"));
        }
        for m in msgs {
            self.shared.recorder.record(EventKind::Isend, 0, 0, m.len());
        }
        if self.shared.config.needs_control_threads() {
            for m in msgs {
                self.shared.ec_send_inbox.send(EcSendMsg::Send {
                    data: m.to_vec(),
                    tagged: false,
                    completion: None,
                });
            }
            self.shared.wake_task();
        } else {
            for m in msgs {
                let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
                self.shared.counters.messages_sent.inc();
                for frame in self.shared.segment_frames(session, m, false) {
                    if !self.shared.queue_frame(frame, None, None) {
                        return Err(SendError::Closed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Nonblocking `NCS_recv`: returns a [`Request`] that completes with
    /// the next untagged message, as a pooled zero-copy [`MsgView`].
    ///
    /// The request resolves immediately if a message is already waiting,
    /// and *fails fast* — [`SendError::Closed`] within the close itself,
    /// not a poll tick later — if the connection closes or the link dies
    /// while it is parked. Dropping the request un-parks it; a message it
    /// had already claimed is requeued for the next receiver.
    pub fn irecv(&self) -> Request<MsgView> {
        self.irecv_inner(None)
    }

    /// [`NcsConnection::irecv`] on logical channel `tag`: completes only
    /// with messages sent via [`NcsConnection::isend_tagged`] on the same
    /// tag. Per-tag FIFO order is preserved; other tags and untagged
    /// traffic are untouched.
    pub fn irecv_tagged(&self, tag: u32) -> Request<MsgView> {
        self.irecv_inner(Some(tag))
    }

    fn irecv_inner(&self, tag: Option<u32>) -> Request<MsgView> {
        let core = RequestCore::new();
        self.shared.delivery.register(tag, &core);
        let shared = Arc::clone(&self.shared);
        Request::with_cancel(
            core,
            Box::new(move |core| shared.delivery.cancel(tag, core)),
        )
    }

    /// `NCS_recv`: blocks until the next reassembled message arrives.
    /// Thin wrapper over [`NcsConnection::irecv`]; prefer the request form
    /// (and its [`MsgView`]) on hot paths — this one detaches the buffer
    /// from the pool to hand out an owning `Vec`.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once the connection is closed and drained.
    pub fn recv(&self) -> Result<Vec<u8>, SendError> {
        Ok(self.recv_view_deadline(None)?.into_vec())
    }

    /// [`NcsConnection::recv`] with a deadline.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when nothing arrived in time.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, SendError> {
        Ok(self
            .recv_view_deadline(Some(Instant::now() + timeout))?
            .into_vec())
    }

    /// Blocking receive of the next untagged message as a zero-copy
    /// [`MsgView`] (the buffer-recycling counterpart of
    /// [`NcsConnection::recv_timeout`]).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::recv_timeout`].
    pub fn recv_view(&self, timeout: Duration) -> Result<MsgView, SendError> {
        self.recv_view_deadline(Some(Instant::now() + timeout))
    }

    fn recv_view_deadline(&self, deadline: Option<Instant>) -> Result<MsgView, SendError> {
        // Fast path: a ready message needs no request machinery.
        if let Some(m) = self.shared.delivery.try_take(None)? {
            return Ok(m);
        }
        let req = self.irecv();
        match deadline {
            None => req.wait(),
            Some(d) => req.wait_timeout(d.saturating_duration_since(Instant::now())),
        }
        // A timed-out request is dropped here, which cancels it: no
        // message can leak into an abandoned waiter.
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// The connection's terminal error once it is closed (or its link
    /// died) and every delivered message has been drained.
    pub fn try_recv_result(&self) -> Result<Option<Vec<u8>>, SendError> {
        Ok(self.shared.delivery.try_take(None)?.map(MsgView::into_vec))
    }

    /// Hands this connection's untagged receive stream to `sink`: every
    /// untagged message — including any already queued — is pushed into
    /// the callback as it is reassembled, and the connection's terminal
    /// error is pushed exactly once when the link dies or closes. `None`
    /// uninstalls.
    ///
    /// This is the threadless pump: an engine that previously parked a
    /// thread per connection on [`NcsConnection::recv_timeout`] (the
    /// collectives engine's link pumps) registers a sink instead and is
    /// fed directly from the reactor task. The sink runs on the reactor's
    /// event loops — it must not block. While a sink is installed the
    /// untagged receive primitives (`recv*`, `irecv`, `try_recv*`) see no
    /// traffic; tag-matched channels are unaffected.
    pub fn set_receive_sink(&self, sink: Option<crate::request::ReceiveSink>) {
        self.shared.delivery.set_sink(sink);
    }

    /// The sticky error recorded by the error-control plane, if any
    /// (asynchronous [`NcsConnection::send`] failures surface here).
    pub fn last_error(&self) -> Option<SendError> {
        self.shared.last_error.lock().clone()
    }

    /// Closes the connection, notifying the peer over the control
    /// connection. Idempotent.
    pub fn close(&self) {
        self.shared.initiate_close();
    }

    // -- §4.2 direct (thread-bypass) mode ---------------------------------

    /// The thread-bypass `NCS_send` (paper §4.2): flow control, error
    /// control and transmission run as procedures on the calling thread.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] unless the connection was configured with
    /// [`ConnectionConfig::direct`]; otherwise as
    /// [`NcsConnection::send_sync`].
    pub fn send_direct(&self, data: &[u8]) -> Result<(), SendError> {
        self.check_sendable(data, None)?;
        self.shared
            .recorder
            .record(EventKind::Isend, 0, 0, data.len());
        let mut engine_slot = self.shared.direct_send.lock();
        let engine = engine_slot.as_mut().ok_or(SendError::WrongMode("direct"))?;
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        let packets = self.shared.segment(session, data, false);
        self.shared.counters.messages_sent.inc();
        let total = packets.len() as u32;
        let mut pending: std::collections::VecDeque<u32> = Default::default();
        let mut step = engine.ec.begin(total);
        let mut first_round = true;
        loop {
            match step {
                SenderStep::Transmit(seqs) => {
                    if !first_round {
                        self.shared.counters.retransmissions.add(seqs.len() as u64);
                        self.shared.recorder.record(
                            EventKind::Retransmit,
                            0,
                            *seqs.first().unwrap_or(&0),
                            seqs.len(),
                        );
                    }
                    pending.extend(seqs);
                    // Flow-control procedure: release as permitted.
                    self.drain_direct(engine, &packets, &mut pending)?;
                    if first_round && engine.ec.completes_without_ack() && pending.is_empty() {
                        return Ok(());
                    }
                    first_round = false;
                    step = self.wait_direct(engine, &packets, &mut pending)?;
                }
                SenderStep::Done => return Ok(()),
                SenderStep::Failed(why) => {
                    let e = SendError::DeliveryFailed(why);
                    self.shared.fail(e.clone());
                    return Err(e);
                }
                SenderStep::Wait => {
                    step = self.wait_direct(engine, &packets, &mut pending)?;
                }
            }
        }
    }

    fn drain_direct(
        &self,
        engine: &mut DirectSender,
        packets: &[DataPacket],
        pending: &mut std::collections::VecDeque<u32>,
    ) -> Result<(), SendError> {
        let permits = engine.fc.permits(Instant::now()) as usize;
        let n = permits.min(pending.len());
        if n == 0 {
            return Ok(());
        }
        // Encode the released window into pooled frames and push them
        // through the transport as one batch (retrying partial sends).
        let frames: Vec<PooledBuf> = pending
            .drain(..n)
            .map(|seq| packets[seq as usize].encode_pooled(&self.shared.pool))
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let mut sent = 0;
        while sent < refs.len() {
            sent += self
                .shared
                .transport
                .send_batch(&refs[sent..])?
                .clamp(1, refs.len() - sent);
        }
        self.shared.counters.packets_sent.add(n as u64);
        let bytes: usize = refs.iter().map(|r| r.len()).sum();
        self.shared.recorder.record(EventKind::Wire, 0, 0, bytes);
        engine.fc.on_transmit(n as u32);
        Ok(())
    }

    fn wait_direct(
        &self,
        engine: &mut DirectSender,
        packets: &[DataPacket],
        pending: &mut std::collections::VecDeque<u32>,
    ) -> Result<SenderStep, SendError> {
        let timeout = engine.ec.ack_timeout().unwrap_or(IDLE_TICK);
        let deadline = self.shared.clock.now() + timeout;
        loop {
            // Keep the pipeline moving while waiting (rate/credit refills).
            self.drain_direct(engine, packets, pending)?;
            if engine.ec.completes_without_ack() && pending.is_empty() {
                return Ok(SenderStep::Done);
            }
            let now = self.shared.clock.now();
            if now >= deadline {
                return Ok(engine.ec.on_timeout());
            }
            let slice = deadline.saturating_sub(now).min(Duration::from_millis(5));
            match self.shared.direct_events.recv_timeout(slice) {
                Ok(DirectEvent::Ack(info)) => {
                    self.shared.counters.acks_received.inc();
                    let step = engine.ec.on_ack(info);
                    if !matches!(step, SenderStep::Wait) {
                        return Ok(step);
                    }
                }
                Ok(DirectEvent::Credit(n)) => {
                    self.shared.counters.credits_received.add(n as u64);
                    engine.fc.on_feedback(n);
                }
                Err(_) => {
                    if self.shared.closed.load(Ordering::Acquire) {
                        return Err(SendError::Closed);
                    }
                }
            }
        }
    }

    /// The thread-bypass `NCS_recv`: reads the data connection and runs the
    /// receiver procedures (reassembly, acknowledgements, credit grants) on
    /// the calling thread.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] on threaded connections;
    /// [`SendError::Timeout`] if no message completed in time.
    pub fn recv_direct(&self, timeout: Duration) -> Result<Vec<u8>, SendError> {
        let mut engine_slot = self.shared.direct_recv.lock();
        let engine = engine_slot.as_mut().ok_or(SendError::WrongMode("direct"))?;
        let deadline = self.shared.clock.now() + timeout;
        let mut current_session: Option<u32> = None;
        loop {
            let now = self.shared.clock.now();
            if now >= deadline {
                return Err(SendError::Timeout);
            }
            let frame = match self.shared.transport.recv_timeout(deadline - now) {
                Ok(f) => f,
                Err(TransportError::Timeout) => return Err(SendError::Timeout),
                Err(e) => return Err(e.into()),
            };
            let Ok(packet) = DataPacket::decode(&frame) else {
                continue;
            };
            self.shared.counters.packets_received.inc();
            let h = packet.header;
            if h.session < engine.delivered_below {
                // Duplicate of a delivered message: re-acknowledge its end
                // marker (the original ACK was lost) and move on.
                if h.end {
                    let ack = match engine.ec.name() {
                        "go-back-n" => AckInfo::Cumulative(h.seq + 1),
                        _ => AckInfo::Bitmap(crate::seq::AckBitmap::all_received(h.seq + 1)),
                    };
                    self.shared.counters.acks_sent.inc();
                    self.shared
                        .ctrl_tx
                        .send(make_ack_msg(&self.shared, h.session, ack));
                }
                continue;
            }
            match current_session {
                Some(s) if s == h.session => {}
                Some(s) if h.session < s => continue,
                _ => {
                    engine.ec.reset();
                    current_session = Some(h.session);
                }
            }
            // Flow-control receive procedure: grant credits inline.
            let grant = engine.fc.on_receive(Instant::now());
            if grant > 0 {
                self.shared.counters.credits_granted.add(grant as u64);
                self.shared.ctrl_tx.send(CtrlMsg::Credit {
                    conn: self.shared.peer_conn_id(),
                    credits: grant,
                });
            }
            let step = engine.ec.on_packet(h.seq, h.end, packet.payload);
            let (ack, deliver) = match step {
                ReceiverStep::Ack(a) => (Some(a), None),
                ReceiverStep::Deliver(m) => (None, Some(m)),
                ReceiverStep::AckAndDeliver(a, m) => (Some(a), Some(m)),
                ReceiverStep::Continue => (None, None),
            };
            if let Some(a) = ack {
                self.shared.counters.acks_sent.inc();
                self.shared
                    .ctrl_tx
                    .send(make_ack_msg(&self.shared, h.session, a));
            }
            if let Some(m) = deliver {
                self.shared.counters.messages_received.inc();
                engine.delivered_below = h.session + 1;
                return Ok(m);
            }
        }
    }

    /// `NCS_send` with hand-off semantics: queues the message to the Send
    /// Thread and returns as soon as the Send Thread *accepts* it. Under
    /// the kernel-level package a transmit that then blocks (full kernel
    /// buffer) overlaps with the caller's computation; under the
    /// user-level package the blocking write stalls the whole process —
    /// the exact §4.1 experiment (Figures 9/10).
    ///
    /// Only available on bypass-configured threaded connections.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] when FC/EC threads are configured,
    /// otherwise as [`NcsConnection::send`].
    pub fn send_handoff(&self, data: &[u8]) -> Result<(), SendError> {
        if self.shared.config.direct || self.shared.config.needs_control_threads() {
            return Err(SendError::WrongMode("threaded bypass (no FC/EC)"));
        }
        self.check_sendable(data, None)?;
        self.shared
            .recorder
            .record(EventKind::Isend, 0, 0, data.len());
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.shared.counters.messages_sent.inc();
        let frames = self.shared.segment_frames(session, data, false);
        let trace = SendTrace::new();
        let n = frames.len();
        for (i, frame) in frames.into_iter().enumerate() {
            let is_last = i == n - 1;
            if !self
                .shared
                .queue_frame(frame, is_last.then(|| Arc::clone(&trace)), None)
            {
                return Err(SendError::Closed);
            }
        }
        if !trace.accepted.wait_timeout(Duration::from_secs(30)) {
            return Err(SendError::Timeout);
        }
        Ok(())
    }

    /// Sends one message through the Send Thread with per-stage
    /// timestamps, reproducing the paper's Table I. Only meaningful on
    /// bypass-configured threaded connections (no FC/EC), where the send
    /// path is exactly `NCS_send -> queue -> Send Thread -> interface`.
    ///
    /// # Errors
    ///
    /// [`SendError::WrongMode`] when FC/EC threads are configured (their
    /// pipeline stages are not two-point measurable), otherwise as
    /// [`NcsConnection::send`].
    pub fn send_profiled(&self, data: &[u8]) -> Result<SendBreakdown, SendError> {
        if self.shared.config.direct || self.shared.config.needs_control_threads() {
            return Err(SendError::WrongMode("threaded bypass (no FC/EC)"));
        }
        self.check_sendable(data, None)?;
        self.shared
            .recorder
            .record(EventKind::Isend, 0, 0, data.len());
        let t_entry = Instant::now();
        let session = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        // Header attach == pooled frame encode.
        let frames = self.shared.segment_frames(session, data, false);
        let t_header = Instant::now();
        let trace = SendTrace::new();
        let n = frames.len();
        for (i, frame) in frames.into_iter().enumerate() {
            let is_last = i == n - 1;
            if !self
                .shared
                .queue_frame(frame, is_last.then(|| Arc::clone(&trace)), None)
            {
                return Err(SendError::Closed);
            }
        }
        let t_queued = Instant::now();
        *trace.queued_at.lock() = Some(t_queued);
        if !trace.done.wait_timeout(Duration::from_secs(10)) {
            return Err(SendError::Timeout);
        }
        let t_back = Instant::now();
        self.shared.counters.messages_sent.inc();
        let dequeued = trace.dequeued_at.lock().expect("trace filled");
        let transmitted = trace.transmitted_at.lock().expect("trace filled");
        let freed = trace.freed_at.lock().expect("trace filled");
        // Entry/exit bookkeeping is the residue around the measured stages;
        // attribute the (tiny) pre-header and post-wake slices to it.
        Ok(SendBreakdown {
            fn_entry_exit: Duration::from_nanos(200), // constant-time entry/exit bookkeeping
            header_attach: t_header - t_entry,
            queue_request: t_queued - t_header,
            ctx_switch_to_send: dequeued.saturating_duration_since(t_queued),
            dequeue_request: Duration::from_nanos(300), // dequeue bookkeeping inside the Send Thread
            transmit: transmitted.saturating_duration_since(dequeued),
            free_buffer: freed.saturating_duration_since(transmitted),
            ctx_switch_back: t_back.saturating_duration_since(freed),
        })
    }
}

/// Routes a control-plane event into this connection (called by the
/// Control Receive Thread's dispatcher).
pub(crate) fn dispatch_ctrl(shared: &Arc<ConnShared>, msg: CtrlMsg) {
    match msg {
        CtrlMsg::Ack { bitmap, .. } => {
            let info = AckInfo::Bitmap(bitmap);
            if shared.config.direct {
                shared.direct_events.send(DirectEvent::Ack(info));
            } else {
                shared.ec_send_inbox.send(EcSendMsg::Ack(info));
                shared.wake_task();
            }
        }
        CtrlMsg::GbnAck { next_expected, .. } => {
            let info = AckInfo::Cumulative(next_expected);
            if shared.config.direct {
                shared.direct_events.send(DirectEvent::Ack(info));
            } else {
                shared.ec_send_inbox.send(EcSendMsg::Ack(info));
                shared.wake_task();
            }
        }
        CtrlMsg::Credit { credits, .. } => {
            if shared.config.direct {
                shared.direct_events.send(DirectEvent::Credit(credits));
            } else {
                shared.fc_inbox.send(FcMsg::Feedback(credits));
                shared.wake_task();
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------------
// Channels — per-thread logical endpoints over one connection
// ---------------------------------------------------------------------------

/// First tag of the tag-class reserved for [`Channel`] handles.
///
/// A channel with id `i` owns the tag `CHANNEL_TAG_BASE | i`, so the
/// upper half of the tag space (`0x8000_0000..=0xFFFF_FFFF`, top bit
/// set) belongs to channels and can never collide with application tags
/// below it. Within the reserved class, ids map onto the delivery
/// queue's shards by `id % DELIVERY_SHARDS` — ids `0..8` land on eight
/// distinct locks (see [`crate::request::DELIVERY_SHARDS`]).
pub const CHANNEL_TAG_BASE: u32 = 0x8000_0000;

/// A logical per-thread endpoint over one connection — the NCS analogue
/// of a communicator dup: same wire, independent matching space.
///
/// Created by [`NcsConnection::channel`]. A channel's sends complete
/// only against receives on the *same* channel id at the peer; per-channel
/// FIFO order holds and traffic on other channels (or the untagged
/// stream) is never touched. Because each channel id maps to its own
/// delivery-queue shard, N threads each driving their own channel never
/// contend on a shared receive lock — the multithreaded message-rate
/// benchmark (`mt-msgrate`) leans on exactly this.
///
/// A `Channel` is a value handle (cheaply cloneable, no registration or
/// teardown): dropping it releases nothing and two handles with the same
/// id are the same channel.
///
/// # Example
///
/// ```
/// use ncs_core::{ConnectionConfig, NcsNode};
/// use ncs_core::link::HpiLinkPair;
///
/// let alice = NcsNode::builder("alice").build();
/// let bob = NcsNode::builder("bob").build();
/// let (la, lb) = HpiLinkPair::create();
/// alice.attach_peer("bob", la);
/// bob.attach_peer("alice", lb);
/// let conn_a = alice.connect("bob", ConnectionConfig::reliable()).unwrap();
/// let conn_b = bob.accept_default().unwrap();
///
/// // One channel per application thread; id selects the matching space.
/// let ch_a = conn_a.channel(3);
/// let ch_b = conn_b.channel(3);
/// let want = ch_b.irecv();
/// ch_a.isend(b"on channel 3").unwrap().wait().unwrap();
/// assert_eq!(&*want.wait().unwrap(), b"on channel 3");
/// # alice.shutdown(); bob.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct Channel {
    conn: NcsConnection,
    tag: u32,
}

impl Channel {
    /// The channel id this handle was created with.
    pub fn id(&self) -> u16 {
        (self.tag & 0xFFFF) as u16
    }

    /// The reserved tag this channel rides on
    /// (`CHANNEL_TAG_BASE | id`).
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// The connection carrying this channel.
    pub fn connection(&self) -> &NcsConnection {
        &self.conn
    }

    /// Nonblocking send on this channel: completes when the message is
    /// delivered (reliable configurations) or transmitted (§3.1 bypass).
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::isend`].
    pub fn isend(&self, data: &[u8]) -> Result<Request<()>, SendError> {
        self.conn.isend_tagged(self.tag, data)
    }

    /// Nonblocking receive on this channel: completes with the next
    /// message a peer sent on the same channel id.
    pub fn irecv(&self) -> Request<MsgView> {
        self.conn.irecv_tagged(self.tag)
    }

    /// Blocking send: [`Channel::isend`] + wait for its completion.
    ///
    /// # Errors
    ///
    /// As [`NcsConnection::send_sync`].
    pub fn send(&self, data: &[u8]) -> Result<(), SendError> {
        self.isend(data)?.wait()
    }

    /// Blocking receive of the next message on this channel, as an
    /// owning `Vec`.
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once the connection is closed and the
    /// channel drained.
    pub fn recv(&self) -> Result<Vec<u8>, SendError> {
        Ok(self.irecv().wait()?.into_vec())
    }

    /// Blocking zero-copy receive with a deadline. On timeout the
    /// receive is cancelled — a message it had already claimed is
    /// requeued for the channel's next receiver.
    ///
    /// # Errors
    ///
    /// [`SendError::Timeout`] when nothing arrived in time; otherwise as
    /// [`Channel::recv`].
    pub fn recv_view(&self, timeout: Duration) -> Result<MsgView, SendError> {
        // Fast path: something is already queued on this channel's shard.
        if let Some(msg) = self.conn.shared.delivery.try_take(Some(self.tag))? {
            return Ok(msg);
        }
        self.irecv().wait_timeout(timeout)
    }
}

impl NcsConnection {
    /// Opens logical channel `id` over this connection (a value handle —
    /// nothing is registered, and every handle with the same id is the
    /// same channel).
    ///
    /// Channels give each application thread an independent matching
    /// space on a shared connection: sends on channel `i` pair with
    /// receives on channel `i`, in FIFO order, with no interference from
    /// other channels or the untagged stream. They ride the reserved
    /// tag-class at [`CHANNEL_TAG_BASE`]; ids `0..8` additionally map to
    /// distinct delivery-queue shards, so that many threads receiving
    /// concurrently never share a lock.
    pub fn channel(&self, id: u16) -> Channel {
        Channel {
            conn: self.clone(),
            tag: CHANNEL_TAG_BASE | u32::from(id),
        }
    }
}
