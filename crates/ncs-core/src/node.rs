//! The NCS node: one message-passing process with its Master Thread,
//! per-peer control plane and connection registry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ncs_obs::json::Json;
use ncs_obs::{obj, MetricsSnapshot, Registry};
use ncs_threads::sync::Mailbox;
use ncs_threads::{JoinHandle, KernelPackage, PackageKind, SpawnOptions, ThreadPackage};
use ncs_transport::{Connection as Transport, TransportError};
use parking_lot::Mutex;

use crate::clock::{Clock, SystemClock};
use crate::config::{ConfigError, ConnectionConfig};
use crate::connection::{attach_connection, dispatch_ctrl, ConnShared, NcsConnection};
use crate::control::{spawn_cr, spawn_cs};
use crate::link::PeerLink;
use crate::packet::{CtrlMsg, Hello};
use crate::pool::{BufPool, PoolStats};
use crate::reactor::Reactor;
use crate::stats::{PackageMetricSource, PoolMetricSource, ReactorMetricSource};

const ACCEPT_POLL: Duration = Duration::from_millis(200);
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Errors from [`NcsNode::connect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// No link attached for this peer name.
    UnknownPeer(String),
    /// The configuration is invalid for the link's interface.
    Config(ConfigError),
    /// The underlying interface failed.
    Transport(String),
    /// The peer did not accept in time.
    Timeout,
    /// The node is shut down.
    Shutdown,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectError::UnknownPeer(p) => write!(f, "no link attached for peer '{p}'"),
            ConnectError::Config(e) => write!(f, "invalid configuration: {e}"),
            ConnectError::Transport(e) => write!(f, "transport failure: {e}"),
            ConnectError::Timeout => write!(f, "peer did not accept the connection in time"),
            ConnectError::Shutdown => write!(f, "node is shut down"),
        }
    }
}

impl std::error::Error for ConnectError {}

impl From<TransportError> for ConnectError {
    fn from(e: TransportError) -> Self {
        ConnectError::Transport(e.to_string())
    }
}

impl From<ConfigError> for ConnectError {
    fn from(e: ConfigError) -> Self {
        ConnectError::Config(e)
    }
}

/// Errors from [`NcsNode::accept`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptError {
    /// No incoming connection arrived in time.
    Timeout,
    /// The node is shut down.
    Shutdown,
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceptError::Timeout => write!(f, "no incoming connection arrived in time"),
            AcceptError::Shutdown => write!(f, "node is shut down"),
        }
    }
}

impl std::error::Error for AcceptError {}

/// Work items for the Master Thread.
enum MasterMsg {
    /// A peer opened a data channel towards us.
    IncomingData {
        peer: String,
        transport: Arc<dyn Transport>,
        initiator_conn: u32,
        config: ConnectionConfig,
    },
    /// The peer accepted a connection we initiated.
    CtrlAccept {
        initiator_conn: u32,
        acceptor_conn: u32,
    },
    Shutdown,
}

struct PeerState {
    link: Arc<dyn PeerLink>,
    /// Control Send Thread inbox, once the outbound control channel exists.
    ctrl_tx: Option<Arc<Mailbox<CtrlMsg>>>,
}

pub(crate) struct NodeInner {
    name: String,
    /// Cluster rank, when this node is a member of a multi-process world.
    rank: Option<u32>,
    pkg: Arc<dyn ThreadPackage>,
    /// The readiness reactor driving every connection's data plane: a
    /// fixed O(cores) pool of event loops, shared by all connections (and
    /// optionally across nodes — see [`NcsNodeBuilder::reactor`]).
    reactor: Arc<Reactor>,
    /// Whether this node built its own reactor (and thus owns its
    /// shutdown); a caller-supplied reactor may serve other nodes and is
    /// left running.
    owns_reactor: bool,
    /// Recycling frame-buffer pool shared by every connection's data plane.
    pool: Arc<BufPool>,
    /// The node's telemetry registry: every layer (connections, reactor,
    /// pool, thread package) registers its metrics here.
    registry: Arc<Registry>,
    /// The node's time source: every deadline the runtime arms against
    /// this node (collective op timeouts, link-down grace periods) is
    /// computed from this clock, so a simulated node can run them under
    /// virtual time (see [`crate::clock`]).
    clock: Arc<dyn Clock>,
    peers: Mutex<HashMap<String, PeerState>>,
    conns: Mutex<HashMap<u32, Arc<ConnShared>>>,
    /// (peer name, initiator conn id) -> acceptor conn id, for idempotent
    /// handling of duplicate data-channel hellos (setup retries).
    accepted_index: Mutex<HashMap<(String, u32), u32>>,
    next_conn: AtomicU32,
    pending_accepts: Mailbox<NcsConnection>,
    master_inbox: Mailbox<MasterMsg>,
    shutdown: Arc<AtomicBool>,
    handles: Mutex<Vec<JoinHandle>>,
}

impl std::fmt::Debug for NodeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NcsNode")
            .field("name", &self.name)
            .field("peers", &self.peers.lock().len())
            .field("connections", &self.conns.lock().len())
            .finish()
    }
}

/// Builder for [`NcsNode`] (C-BUILDER).
#[derive(Debug)]
pub struct NcsNodeBuilder {
    name: String,
    rank: Option<u32>,
    pkg: Option<Arc<dyn ThreadPackage>>,
    pool: Option<Arc<BufPool>>,
    reactor: Option<Arc<Reactor>>,
    registry: Option<Arc<Registry>>,
    clock: Option<Arc<dyn Clock>>,
}

impl NcsNodeBuilder {
    /// Selects the thread package running this node's NCS threads
    /// (defaults to the kernel-level package).
    pub fn thread_package(mut self, pkg: Arc<dyn ThreadPackage>) -> Self {
        self.pkg = Some(pkg);
        self
    }

    /// Supplies the readiness reactor driving this node's connections
    /// (defaults to a private [`Reactor::with_default_shards`] on the
    /// node's thread package). Sharing one reactor across co-located
    /// nodes keeps the event-loop count at O(cores) no matter how many
    /// nodes — and connections — the process holds; a shared reactor is
    /// left running by [`NcsNode::shutdown`].
    pub fn reactor(mut self, reactor: Arc<Reactor>) -> Self {
        self.reactor = Some(reactor);
        self
    }

    /// Records this node's rank in a multi-process world (set by the
    /// cluster runtime when a node is built from a rendezvous roster;
    /// purely identity — single-process nodes leave it unset).
    pub fn rank(mut self, rank: u32) -> Self {
        self.rank = Some(rank);
        self
    }

    /// Supplies the frame-buffer pool this node's data plane recycles
    /// buffers through (defaults to a private [`BufPool::new`]). Sharing a
    /// pool across co-located nodes lets one side's returns feed the
    /// other's checkouts.
    pub fn buffer_pool(mut self, pool: Arc<BufPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Supplies the time source deadlines against this node are computed
    /// from (defaults to [`SystemClock`] — the wall clock). A simulation
    /// driver passes a shared [`crate::clock::VirtualClock`] here so collective op
    /// timeouts and barrier waits fire on virtual, not wall, time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Supplies the telemetry [`Registry`] this node's layers register
    /// their metrics into (defaults to a private one). Sharing a registry
    /// across co-located nodes merges their series into one snapshot —
    /// per-connection series stay distinguishable by their `conn`/`peer`
    /// labels.
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds and starts the node (spawns its Master Thread).
    pub fn build(self) -> NcsNode {
        let pkg = self
            .pkg
            .unwrap_or_else(|| Arc::new(KernelPackage::new()) as Arc<dyn ThreadPackage>);
        let owns_reactor = self.reactor.is_none();
        let reactor = self
            .reactor
            .unwrap_or_else(|| Reactor::with_default_shards(Arc::clone(&pkg)));
        let pool = self.pool.unwrap_or_else(BufPool::new);
        let registry = self.registry.unwrap_or_default();
        let clock = self.clock.unwrap_or_else(SystemClock::shared);
        // Register the node's shared-infrastructure gauges/counters: the
        // buffer pool, the reactor and the thread package each export
        // through a pull adapter, so a snapshot always reads live values.
        registry.register_source(Arc::new(PoolMetricSource(Arc::clone(&pool))));
        registry.register_source(Arc::new(ReactorMetricSource(Arc::clone(&reactor))));
        registry.register_source(Arc::new(PackageMetricSource(Arc::clone(&pkg))));
        let inner = Arc::new(NodeInner {
            name: self.name,
            rank: self.rank,
            pkg,
            reactor,
            owns_reactor,
            pool,
            registry,
            clock,
            peers: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            accepted_index: Mutex::new(HashMap::new()),
            next_conn: AtomicU32::new(0),
            pending_accepts: Mailbox::unbounded(),
            master_inbox: Mailbox::unbounded(),
            shutdown: Arc::new(AtomicBool::new(false)),
            handles: Mutex::new(Vec::new()),
        });
        let node = NcsNode {
            inner: Arc::clone(&inner),
        };
        let master_inner = Arc::clone(&inner);
        let h = inner.pkg.spawn_with(
            SpawnOptions::new(format!("ncs-master-{}", inner.name)).daemon(true),
            Box::new(move || master_thread(&master_inner)),
        );
        inner.handles.lock().push(h);
        node
    }
}

/// One NCS process: owns the Master Thread, the per-peer control plane and
/// all connections. See the crate docs for a usage example.
#[derive(Debug, Clone)]
pub struct NcsNode {
    inner: Arc<NodeInner>,
}

impl NcsNode {
    /// Starts building a node called `name`.
    pub fn builder(name: &str) -> NcsNodeBuilder {
        NcsNodeBuilder {
            name: name.to_owned(),
            rank: None,
            pkg: None,
            pool: None,
            reactor: None,
            registry: None,
            clock: None,
        }
    }

    /// This node's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// This node's rank in its multi-process world, when built by the
    /// cluster runtime ([`NcsNodeBuilder::rank`]).
    pub fn rank(&self) -> Option<u32> {
        self.inner.rank
    }

    /// The thread package running this node's NCS threads.
    pub fn thread_package(&self) -> Arc<dyn ThreadPackage> {
        Arc::clone(&self.inner.pkg)
    }

    /// The time source this node's deadlines are computed from
    /// ([`NcsNodeBuilder::clock`]; [`SystemClock`] unless configured).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The readiness reactor multiplexing this node's connections. Pass it
    /// to other builders via [`NcsNodeBuilder::reactor`] to share one
    /// O(cores) event-loop pool across co-located nodes, or inspect
    /// [`Reactor::stats`] for diagnostics.
    pub fn reactor(&self) -> Arc<Reactor> {
        Arc::clone(&self.inner.reactor)
    }

    /// Attaches a link towards `peer` and starts accepting channels from
    /// it. Must be called on both nodes (with matching link pair ends)
    /// before connections can be made.
    pub fn attach_peer(&self, peer: &str, link: Arc<dyn PeerLink>) {
        if self.inner.pkg.kind() == PackageKind::UserLevel {
            // §4.1: under the user-level package, blocking system calls
            // stall every green thread. Links over such interfaces (SCI)
            // switch to non-blocking polls + cooperative yields.
            let pkg = Arc::clone(&self.inner.pkg);
            link.set_yield_hook(Some(Arc::new(move || pkg.yield_now())));
        }
        self.inner.peers.lock().insert(
            peer.to_owned(),
            PeerState {
                link: Arc::clone(&link),
                ctrl_tx: None,
            },
        );
        // Acceptor thread for this link.
        let inner = Arc::clone(&self.inner);
        let peer_name = peer.to_owned();
        let h = self.inner.pkg.spawn_with(
            SpawnOptions::new(format!("ncs-accept-{}-{}", self.inner.name, peer)).daemon(true),
            Box::new(move || acceptor_thread(&inner, &peer_name, link)),
        );
        self.inner.handles.lock().push(h);
    }

    /// Severs every tie to `peer`: closes and unregisters its live
    /// connections, forgets the accept-side `(peer, initiator conn)`
    /// dedup entries, and drops the peer registration (link + control
    /// channel). The counterpart of [`NcsNode::attach_peer`] for
    /// membership churn — without it, a *replacement* process re-adopting
    /// the peer's name would have its fresh setup hellos mistaken for
    /// setup retries of the dead process's connections (conn ids restart
    /// at zero in a new process) and silently re-acknowledged against a
    /// corpse. A no-op for an unknown peer.
    pub fn forget_peer(&self, peer: &str) {
        self.inner.peers.lock().remove(peer);
        self.inner
            .accepted_index
            .lock()
            .retain(|(p, _), _| p != peer);
        let dropped: Vec<Arc<ConnShared>> = {
            let mut conns = self.inner.conns.lock();
            let ids: Vec<u32> = conns
                .iter()
                .filter(|(_, s)| s.peer_name == peer)
                .map(|(&id, _)| id)
                .collect();
            ids.iter().filter_map(|id| conns.remove(id)).collect()
        };
        for shared in dropped {
            shared.initiate_close();
        }
    }

    /// Opens an NCS connection to `peer` with the given per-connection
    /// configuration (paper §3: flow control, error control and interface
    /// are fixed here; afterwards the same `send`/`recv` primitives apply
    /// regardless).
    ///
    /// # Errors
    ///
    /// See [`ConnectError`].
    pub fn connect(
        &self,
        peer: &str,
        config: ConnectionConfig,
    ) -> Result<NcsConnection, ConnectError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ConnectError::Shutdown);
        }
        let link = {
            let peers = self.inner.peers.lock();
            let state = peers
                .get(peer)
                .ok_or_else(|| ConnectError::UnknownPeer(peer.to_owned()))?;
            Arc::clone(&state.link)
        };
        let ctrl_tx = ensure_ctrl_tx(&self.inner, peer)?;
        let channel = link.open_channel()?;
        config.validate(channel.caps().max_frame)?;
        // Meter the data channel: interface-labelled frame/byte counters
        // in the node registry, shared by all channels of the family.
        let transport: Arc<dyn Transport> = Arc::new(ncs_transport::Metered::register(
            Arc::from(channel),
            &self.inner.registry,
        ));
        let conn_id = self.inner.next_conn.fetch_add(1, Ordering::Relaxed);
        let shared = ConnShared::new(
            conn_id,
            peer.to_owned(),
            config.clone(),
            Arc::clone(&transport),
            Arc::clone(&self.inner.pool),
            ctrl_tx,
            Some(Arc::clone(&self.inner.registry)),
            Arc::clone(&self.inner.clock),
        );
        self.inner.conns.lock().insert(conn_id, Arc::clone(&shared));
        // Announce the connection on its own data channel, then spawn the
        // per-connection threads (Master Thread duty, delegated to the
        // caller's thread for the initiator side).
        transport.send(
            &Hello::Data {
                node: self.inner.name.clone(),
                initiator_conn: conn_id,
                config,
            }
            .encode(),
        )?;
        attach_connection(&self.inner.reactor, &shared);
        // The hello rides the (possibly unreliable) data channel; retry a
        // few times before declaring the setup dead. The acceptor side
        // deduplicates by (peer, initiator_conn), so retries are safe.
        let mut established = false;
        for _attempt in 0..5 {
            if shared.established.wait_timeout(ESTABLISH_TIMEOUT / 5) {
                established = true;
                break;
            }
            let _ = transport.send(
                &Hello::Data {
                    node: self.inner.name.clone(),
                    initiator_conn: conn_id,
                    config: shared.config.clone(),
                }
                .encode(),
            );
        }
        if !established {
            shared.initiate_close();
            self.inner.conns.lock().remove(&conn_id);
            return Err(ConnectError::Timeout);
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ConnectError::Shutdown);
        }
        Ok(NcsConnection::new(shared))
    }

    /// Accepts the next incoming NCS connection.
    ///
    /// # Errors
    ///
    /// See [`AcceptError`].
    pub fn accept(&self, timeout: Duration) -> Result<NcsConnection, AcceptError> {
        match self.inner.pending_accepts.recv_timeout(timeout) {
            Ok(c) => Ok(c),
            Err(_) => {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    Err(AcceptError::Shutdown)
                } else {
                    Err(AcceptError::Timeout)
                }
            }
        }
    }

    /// [`NcsNode::accept`] with a 30 s limit.
    ///
    /// # Errors
    ///
    /// See [`AcceptError`].
    pub fn accept_default(&self) -> Result<NcsConnection, AcceptError> {
        self.accept(Duration::from_secs(30))
    }

    /// Number of live connections (diagnostics).
    pub fn connection_count(&self) -> usize {
        self.inner.conns.lock().len()
    }

    /// The node's frame-buffer pool.
    pub fn buffer_pool(&self) -> Arc<BufPool> {
        Arc::clone(&self.inner.pool)
    }

    /// Statistics of the node's frame-buffer pool. `checkouts` counts the
    /// allocations the unpooled seed path would have made; `misses` counts
    /// the allocations the pooled path actually made (see [`PoolStats`]).
    pub fn pool_stats(&self) -> PoolStats {
        self.inner.pool.stats()
    }

    /// The node's telemetry [`Registry`] — register application metrics
    /// here to have them appear in [`NcsNode::metrics_snapshot`] beside
    /// the runtime's own.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// One consistent read of every metric registered with this node:
    /// connection counters, reactor/pool/thread-package gauges, and
    /// anything the application registered. Render it with
    /// [`MetricsSnapshot::render_table`],
    /// [`MetricsSnapshot::render_prometheus`] or
    /// [`MetricsSnapshot::render_json`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.registry.snapshot()
    }

    /// Toggles the flight recorders of every live connection (and sets
    /// nothing else — new connections start enabled regardless).
    pub fn set_flight_recording(&self, on: bool) {
        for c in self.inner.conns.lock().values() {
            c.recorder.set_enabled(on);
        }
    }

    /// The node's full telemetry dump as one JSON object:
    /// `{"node":...,"rank":...,"metrics":[...],"flights":[...]}` — the
    /// metrics snapshot plus every live connection's flight-recorder ring.
    /// This is what the cluster runtime pushes to the rendezvous daemon
    /// for `ncs-launch --telemetry` aggregation.
    pub fn telemetry(&self) -> String {
        let conns: Vec<Arc<ConnShared>> = self.inner.conns.lock().values().cloned().collect();
        let mut flights: Vec<Json> = conns
            .iter()
            .map(|c| c.recorder.dump_json_labelled(&c.flight_label()))
            .collect();
        flights.sort_by_cached_key(Json::to_string);
        let metrics = self.metrics_snapshot().to_json();
        let (node, rank) = (self.inner.name.as_str(), self.inner.rank);
        obj! { "node": node, "rank": rank, "metrics": metrics, "flights": flights }.to_string()
    }

    /// Shuts the node down: closes every connection, stops all NCS threads.
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        let conns: Vec<Arc<ConnShared>> = self.inner.conns.lock().values().cloned().collect();
        for c in conns {
            c.initiate_close();
        }
        self.inner.master_inbox.send(MasterMsg::Shutdown);
        // Service threads observe the shutdown flag within their idle tick;
        // give them a bounded join.
        let handles = std::mem::take(&mut *self.inner.handles.lock());
        for h in handles {
            let _ = h.join_timeout(Duration::from_secs(2));
        }
        // A reactor this node built privately stops with it; a shared one
        // (supplied via the builder) may still drive other nodes.
        if self.inner.owns_reactor {
            self.inner.reactor.shutdown();
        }
    }
}

impl Drop for NodeInner {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

/// Lazily opens the outbound control channel to `peer` and spawns its
/// Control Send Thread.
fn ensure_ctrl_tx(
    inner: &Arc<NodeInner>,
    peer: &str,
) -> Result<Arc<Mailbox<CtrlMsg>>, ConnectError> {
    if let Some(tx) = inner.peers.lock().get(peer).and_then(|s| s.ctrl_tx.clone()) {
        return Ok(tx);
    }
    let link = {
        let peers = inner.peers.lock();
        let state = peers
            .get(peer)
            .ok_or_else(|| ConnectError::UnknownPeer(peer.to_owned()))?;
        Arc::clone(&state.link)
    };
    // Open outside the lock (may block on signaling). Control channels use
    // the link's assured path where the interface has one (ACI/SSCOP).
    let channel = link.open_control_channel()?;
    channel.send(
        &Hello::Control {
            node: inner.name.clone(),
        }
        .encode(),
    )?;
    let transport: Arc<dyn Transport> = Arc::from(channel);
    let inbox: Arc<Mailbox<CtrlMsg>> = Arc::new(Mailbox::unbounded());
    let mut peers = inner.peers.lock();
    let state = peers
        .get_mut(peer)
        .ok_or_else(|| ConnectError::UnknownPeer(peer.to_owned()))?;
    match &state.ctrl_tx {
        Some(existing) => Ok(Arc::clone(existing)), // lost a benign race
        None => {
            let h = spawn_cs(
                &inner.pkg,
                peer,
                transport,
                Arc::clone(&inbox),
                Arc::clone(&inner.shutdown),
            );
            inner.handles.lock().push(h);
            state.ctrl_tx = Some(Arc::clone(&inbox));
            Ok(inbox)
        }
    }
}

/// Per-link acceptor: classifies fresh channels by their hello frame and
/// hands them to the control plane or the Master Thread.
fn acceptor_thread(inner: &Arc<NodeInner>, default_peer: &str, link: Arc<dyn PeerLink>) {
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let channel = match link.accept_channel(ACCEPT_POLL) {
            Ok(c) => c,
            Err(TransportError::Timeout) => continue,
            Err(_) => {
                // Transient link failure: back off briefly.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let hello = match channel.recv_timeout(HELLO_TIMEOUT) {
            Ok(frame) => match Hello::decode(&frame) {
                Ok(h) => h,
                Err(_) => continue, // not an NCS channel: drop it
            },
            Err(_) => continue,
        };
        let transport: Arc<dyn Transport> = Arc::from(channel);
        match hello {
            Hello::Control { node } => {
                // Peer attribution comes from the hello, not the link
                // (shared listeners may deliver other peers' channels).
                let peer = if node.is_empty() {
                    default_peer.to_owned()
                } else {
                    node
                };
                let dispatch_inner = Arc::clone(inner);
                let h = spawn_cr(
                    &inner.pkg,
                    &peer,
                    transport,
                    Arc::clone(&inner.shutdown),
                    move |msg| handle_ctrl(&dispatch_inner, msg),
                );
                inner.handles.lock().push(h);
            }
            Hello::Data {
                node,
                initiator_conn,
                config,
            } => {
                inner.master_inbox.send(MasterMsg::IncomingData {
                    peer: node,
                    transport,
                    initiator_conn,
                    config,
                });
            }
        }
    }
}

/// Control-plane dispatcher (runs on Control Receive Threads).
fn handle_ctrl(inner: &Arc<NodeInner>, msg: CtrlMsg) {
    match msg {
        CtrlMsg::Ack { conn, .. } | CtrlMsg::GbnAck { conn, .. } | CtrlMsg::Credit { conn, .. } => {
            let shared = inner.conns.lock().get(&conn).cloned();
            if let Some(shared) = shared {
                dispatch_ctrl(&shared, msg);
            }
        }
        CtrlMsg::AcceptConn {
            initiator_conn,
            acceptor_conn,
        } => {
            inner.master_inbox.send(MasterMsg::CtrlAccept {
                initiator_conn,
                acceptor_conn,
            });
        }
        CtrlMsg::CloseConn { conn } => {
            let shared = inner.conns.lock().get(&conn).cloned();
            if let Some(shared) = shared {
                shared.peer_closed();
            }
        }
        CtrlMsg::OpenConn { .. } => {
            // Connection opening rides the data channel's hello; this
            // control variant is reserved for future out-of-band setup.
        }
    }
}

/// The Master Thread: connection management (paper Figure 1 — "data
/// transfer threads … are spawned on a per-connection basis by the Master
/// Thread").
fn master_thread(inner: &Arc<NodeInner>) {
    loop {
        match inner.master_inbox.recv_timeout(Duration::from_millis(100)) {
            Ok(MasterMsg::IncomingData {
                peer,
                transport,
                initiator_conn,
                config,
            }) => {
                if config.validate(transport.caps().max_frame).is_err() {
                    transport.close();
                    continue;
                }
                // Meter the accepted data channel like the initiator side.
                let transport: Arc<dyn Transport> =
                    Arc::new(ncs_transport::Metered::register(transport, &inner.registry));
                // Duplicate hello from a setup retry: re-acknowledge the
                // existing connection instead of creating another.
                let existing = inner
                    .accepted_index
                    .lock()
                    .get(&(peer.clone(), initiator_conn))
                    .copied();
                if let Some(acceptor_conn) = existing {
                    if let Ok(ctrl_tx) = ensure_ctrl_tx(inner, &peer) {
                        ctrl_tx.send(CtrlMsg::AcceptConn {
                            initiator_conn,
                            acceptor_conn,
                        });
                    }
                    transport.close();
                    continue;
                }
                let Ok(ctrl_tx) = ensure_ctrl_tx(inner, &peer) else {
                    transport.close();
                    continue;
                };
                let conn_id = inner.next_conn.fetch_add(1, Ordering::Relaxed);
                let shared = ConnShared::new(
                    conn_id,
                    peer,
                    config,
                    transport,
                    Arc::clone(&inner.pool),
                    Arc::clone(&ctrl_tx),
                    Some(Arc::clone(&inner.registry)),
                    Arc::clone(&inner.clock),
                );
                shared.mark_established(initiator_conn);
                inner
                    .accepted_index
                    .lock()
                    .insert((shared.peer_name.clone(), initiator_conn), conn_id);
                inner.conns.lock().insert(conn_id, Arc::clone(&shared));
                attach_connection(&inner.reactor, &shared);
                ctrl_tx.send(CtrlMsg::AcceptConn {
                    initiator_conn,
                    acceptor_conn: conn_id,
                });
                inner.pending_accepts.send(NcsConnection::new(shared));
            }
            Ok(MasterMsg::CtrlAccept {
                initiator_conn,
                acceptor_conn,
            }) => {
                let shared = inner.conns.lock().get(&initiator_conn).cloned();
                if let Some(shared) = shared {
                    shared.mark_established(acceptor_conn);
                }
            }
            Ok(MasterMsg::Shutdown) => return,
            Err(_) => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
        }
    }
}
