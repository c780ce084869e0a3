//! The collective schedules as sans-IO per-rank state machines.
//!
//! A [`Machine`] runs one member's part of one operation. It holds no
//! clock, no link and no thread: [`Machine::start`] and
//! [`Machine::on_seg`] push the member's sends into the driver's
//! [`Outbox`] and return the operation's result once it completes, and
//! [`Machine::waiting_on`] names the `(peer, stream)` whose next segment
//! the machine needs. Deadlines, dead links, view aborts and the stash
//! of early frames belong to the driver.
//!
//! Two drivers run these machines: the engine's progress runner over
//! real connections, and `ncs-runtime`'s `SimWorld` on virtual time — so
//! a simulated thousand-rank world runs exactly the schedules, tree
//! shapes and frames production runs. Every [`Topology`] shape comes
//! from the crate's one tree module. Payloads are encoded once and fanned out to every
//! destination; relays forward received frames verbatim.

use std::sync::Arc;

use ncs_core::BufPool;

use crate::datatype::{fold_into, DType, ReduceOp};
use crate::frame::{encode_frame, COLL_OVERHEAD};
use crate::handle::CollectiveError;
use crate::topology::{tree_children, tree_parent, OpClass, Topology, TopologyPolicy};

pub use crate::frame::{decode_frame, Seg};

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// One-to-all from the root.
    Broadcast,
    /// All-to-one elementwise fold of equal-length contributions.
    Reduce(DType, ReduceOp),
    /// Reduce to the root (stream 0), then broadcast of the result
    /// (stream 1).
    Allreduce(DType, ReduceOp),
    /// The root's buffer cut into one equal chunk per member.
    Scatter,
    /// Rank-ordered concatenation of equal-length contributions at the
    /// root.
    Gather,
    /// Rank-ordered concatenation on every member: a ring, or a gather
    /// (stream 0) then a broadcast (stream 1).
    Allgather,
    /// Dissemination barrier: `⌈log₂ n⌉` rounds, one stream per round.
    Barrier,
}

/// One operation, as every member of the group issues it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What the operation does.
    pub kind: OpKind,
    /// The root rank (rank 0 for allreduce, allgather and barrier).
    pub root: usize,
    /// Shape of the first (or only) phase. Reduce, scatter and gather run
    /// a ring request over the binomial tree.
    pub topo: Topology,
    /// Shape of the broadcast phase of allreduce and tree allgather.
    pub topo2: Topology,
    /// Broadcast: the byte length every member expects. Allreduce and
    /// allgather derive theirs from the contribution.
    pub expect_len: usize,
}

impl Op {
    /// `kind` as every member derives it from the same call: the shapes
    /// `policy` picks for a group of `size` when each member passes
    /// `bytes` (the root's buffer for a broadcast, each contribution
    /// otherwise).
    pub fn new(
        kind: OpKind,
        root: usize,
        policy: &TopologyPolicy,
        size: usize,
        bytes: usize,
    ) -> Op {
        let select = |class| policy.select(class, size, bytes);
        let (topo, topo2) = match kind {
            OpKind::Broadcast => (select(OpClass::Broadcast), select(OpClass::Broadcast)),
            OpKind::Reduce(..) => (select(OpClass::Reduce), select(OpClass::Reduce)),
            OpKind::Allreduce(..) => (select(OpClass::Reduce), select(OpClass::Broadcast)),
            OpKind::Scatter => (select(OpClass::Scatter), select(OpClass::Scatter)),
            OpKind::Gather => (select(OpClass::Gather), select(OpClass::Gather)),
            OpKind::Allgather => (
                select(OpClass::Allgather),
                policy.select(OpClass::Broadcast, size, bytes.saturating_mul(size)),
            ),
            OpKind::Barrier => (Topology::Flat, Topology::Flat),
        };
        let expect_len = if kind == OpKind::Broadcast { bytes } else { 0 };
        Op {
            kind,
            root,
            topo,
            topo2,
            expect_len,
        }
    }
}

/// Where one member sits, and how its frames are addressed.
#[derive(Debug, Clone)]
pub struct Member {
    /// The group id every frame carries.
    pub group: u32,
    /// The operation's sequence number within the group.
    pub coll: u32,
    /// This member's rank.
    pub rank: usize,
    /// Group size.
    pub size: usize,
    /// Pipeline segment size in bytes.
    pub seg_size: usize,
    /// Where frame buffers come from.
    pub pool: Arc<BufPool>,
}

/// The driver's transmit side.
pub trait Outbox {
    /// Transmits `frames`, in order, to `peer`.
    ///
    /// # Errors
    ///
    /// The link's failure; the machine fails the operation with it.
    fn send(&mut self, peer: usize, frames: &[&[u8]]) -> Result<(), CollectiveError>;
}

/// An operation's outcome: `None` while it is still running.
pub type Done = Option<Result<Vec<u8>, CollectiveError>>;

/// A phase's progress: `Ok(None)` while waiting on a segment.
type Step = Result<Option<Vec<u8>>, CollectiveError>;

/// A child in the current shape: `(rank, relabelled offset, subtree
/// size)`.
type Kid = (usize, usize, usize);

/// The transfer the machine is waiting on.
#[derive(Debug)]
struct Rx {
    from: usize,
    stream: u32,
    /// Peers each arriving frame is relayed to, verbatim.
    relay: Vec<usize>,
    next: u32,
    total: u32,
    buf: Vec<u8>,
}

/// A reduce or gather in progress: children's contributions are folded
/// (or placed) in tree order, then the result goes to the parent.
#[derive(Debug)]
struct Collect {
    acc: Vec<u8>,
    kids: Vec<Kid>,
    next: usize,
    parent: Option<usize>,
    chunk: usize,
}

#[derive(Debug)]
enum Phase {
    Idle,
    Bcast,
    Collect(Collect),
    Scatter,
    Ring {
        buf: Vec<u8>,
        chunk: usize,
        round: usize,
    },
    Barrier {
        dist: usize,
        round: u32,
    },
}

/// One member's state machine for one collective operation. See the
/// module docs.
#[derive(Debug)]
pub struct Machine {
    m: Member,
    op: Op,
    phase: Phase,
    rx: Option<Rx>,
}

impl Machine {
    /// A machine for `member`'s part of `op`. Nothing is sent until
    /// [`Machine::start`].
    pub fn new(member: Member, op: Op) -> Self {
        Machine {
            m: member,
            op,
            phase: Phase::Idle,
            rx: None,
        }
    }

    /// The `(peer, stream)` whose next segment the machine needs, or
    /// `None` once the operation completed.
    pub fn waiting_on(&self) -> Option<(usize, u32)> {
        self.rx.as_ref().map(|rx| (rx.from, rx.stream))
    }

    /// Starts the operation with this member's `payload` (the root's data
    /// for broadcast and scatter, empty on the other members; the
    /// contribution otherwise), sending whatever needs no input.
    pub fn start(&mut self, payload: Vec<u8>, out: &mut dyn Outbox) -> Done {
        let step = match self.op.kind {
            OpKind::Broadcast => self.bcast(0, payload, self.op.topo, out),
            OpKind::Scatter => self.scatter(payload, out),
            OpKind::Barrier => self.barrier(1, 0, out),
            OpKind::Allgather if self.op.topo == Topology::Ring => self.ring(payload, out),
            OpKind::Allgather => {
                self.op.expect_len = payload.len().saturating_mul(self.m.size);
                self.collect(payload, out)
            }
            OpKind::Allreduce(..) => {
                self.op.expect_len = payload.len();
                self.collect(payload, out)
            }
            OpKind::Reduce(..) | OpKind::Gather => self.collect(payload, out),
        };
        self.settle(step)
    }

    /// Feeds one segment that arrived from `from`. Segments the machine
    /// is not waiting on (another peer, stream or operation) are ignored;
    /// out-of-order ones fail the operation with
    /// [`CollectiveError::Protocol`].
    pub fn on_seg(&mut self, from: usize, seg: Seg, out: &mut dyn Outbox) -> Done {
        let rx = self.rx.as_mut()?;
        if (from, seg.coll, seg.stream) != (rx.from, self.m.coll, rx.stream) {
            return None;
        }
        if seg.seg != rx.next || (rx.next > 0 && seg.total != rx.total) {
            let e = CollectiveError::Protocol(format!(
                "segment {}/{} arrived where segment {} was expected",
                seg.seg, seg.total, rx.next
            ));
            return self.settle(Err(e));
        }
        rx.next += 1;
        rx.total = seg.total;
        if let Err(e) = rx.relay.iter().try_for_each(|&p| out.send(p, &[&seg.raw])) {
            return self.settle(Err(e));
        }
        let payload = if seg.total == 1 {
            // Hot path: the single segment's frame becomes the payload
            // without a copy (its header is drained off).
            let mut raw = seg.raw;
            raw.drain(..COLL_OVERHEAD);
            raw
        } else {
            rx.buf.extend_from_slice(seg.payload());
            if rx.next < rx.total {
                return None;
            }
            std::mem::take(&mut rx.buf)
        };
        self.rx = None;
        let step = self.on_payload(payload, out);
        self.settle(step)
    }

    fn settle(&mut self, step: Step) -> Done {
        match step {
            Ok(None) => None,
            Ok(Some(v)) => {
                self.phase = Phase::Idle;
                Some(Ok(v))
            }
            Err(e) => {
                self.phase = Phase::Idle;
                self.rx = None;
                Some(Err(e))
            }
        }
    }

    /// A complete transfer arrived: advance the phase that awaited it.
    fn on_payload(&mut self, v: Vec<u8>, out: &mut dyn Outbox) -> Step {
        match std::mem::replace(&mut self.phase, Phase::Idle) {
            Phase::Idle => Err(CollectiveError::Protocol(
                "payload for a finished operation".into(),
            )),
            Phase::Bcast => self.bcast_done(v),
            Phase::Collect(mut c) => {
                let (_, off, span) = c.kids[c.next];
                match self.op.kind {
                    OpKind::Reduce(dt, op) | OpKind::Allreduce(dt, op) => {
                        fold_into(dt, op, &mut c.acc, &v)?;
                    }
                    _ if v.len() != span * c.chunk => {
                        return Err(mismatch(v.len(), span * c.chunk));
                    }
                    _ => c.acc[off * c.chunk..][..v.len()].copy_from_slice(&v),
                }
                c.next += 1;
                self.collect_step(c, out)
            }
            Phase::Scatter => self.distribute(v, out),
            Phase::Ring {
                mut buf,
                chunk,
                round,
            } => {
                if v.len() != chunk {
                    return Err(mismatch(v.len(), chunk));
                }
                let (size, rank) = (self.m.size, self.m.rank);
                let block = (rank + size - round - 1) % size;
                buf[block * chunk..][..chunk].copy_from_slice(&v);
                self.ring_round(buf, chunk, round + 1, out)
            }
            Phase::Barrier { dist, round } => self.barrier(dist * 2, round + 1, out),
        }
    }

    fn rel(&self, abs: usize) -> usize {
        (abs + self.m.size - self.op.root) % self.m.size
    }

    fn abs(&self, rel: usize) -> usize {
        (rel + self.op.root) % self.m.size
    }

    /// Waits for the next transfer from `from` on `stream` in `phase`.
    fn expect(&mut self, from: usize, stream: u32, relay: Vec<usize>, phase: Phase) -> Step {
        self.rx = Some(Rx {
            from,
            stream,
            relay,
            next: 0,
            total: 1,
            buf: Vec::new(),
        });
        self.phase = phase;
        Ok(None)
    }

    /// Cuts `payload` into pipeline segments, encodes each once into a
    /// pooled buffer, and sends the same frames to every peer in `to`.
    fn fan_out(
        &self,
        to: &[usize],
        stream: u32,
        payload: &[u8],
        out: &mut dyn Outbox,
    ) -> Result<(), CollectiveError> {
        let seg = self.m.seg_size.max(1);
        let n = payload.len().div_ceil(seg).max(1);
        let frames: Vec<_> = (0..n)
            .map(|i| {
                let part = &payload[i * seg..((i + 1) * seg).min(payload.len())];
                let m = &self.m;
                encode_frame(&m.pool, m.group, m.coll, stream, i as u32, n as u32, part)
            })
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        to.iter().try_for_each(|&p| out.send(p, &refs))
    }

    /// The shape `topo` around this member: its children in transmission
    /// (and fold) order, and its parent. Flat is a depth-one tree, a ring
    /// a chain.
    fn tree(&self, topo: Topology) -> (Vec<Kid>, Option<usize>) {
        let (size, rel) = (self.m.size, self.rel(self.m.rank));
        let (kids, parent) = match topo {
            Topology::Flat if rel == 0 => ((1..size).map(|x| (x, 1)).collect(), None),
            Topology::Flat => (Vec::new(), Some(0)),
            Topology::BinomialTree => (tree_children(rel, size), tree_parent(rel, size)),
            Topology::Ring => {
                let next = (rel + 1 < size).then_some((rel + 1, size - rel - 1));
                (next.into_iter().collect(), rel.checked_sub(1))
            }
        };
        let kids = kids
            .into_iter()
            .map(|(c, span)| (self.abs(c), c - rel, span))
            .collect();
        (kids, parent.map(|p| self.abs(p)))
    }

    /// The shape of reduce, scatter and gather: a reduction or a
    /// personalised transfer has no pipeline to win from a chain, so ring
    /// requests run the tree.
    fn combine_topo(&self) -> Topology {
        match self.op.topo {
            Topology::Flat => Topology::Flat,
            _ => Topology::BinomialTree,
        }
    }

    /// Rearranges `chunk`-sized blocks: block `i` of the result is block
    /// `from(i)` of `src`.
    fn permute(&self, src: &[u8], chunk: usize, from: impl Fn(usize) -> usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(src.len());
        for i in 0..self.m.size {
            out.extend_from_slice(&src[from(i) * chunk..][..chunk]);
        }
        out
    }

    fn bcast(
        &mut self,
        stream: u32,
        payload: Vec<u8>,
        topo: Topology,
        out: &mut dyn Outbox,
    ) -> Step {
        if self.m.size == 1 {
            return Ok(Some(payload));
        }
        let (kids, parent) = self.tree(topo);
        let to: Vec<usize> = kids.iter().map(|k| k.0).collect();
        match parent {
            None => {
                self.fan_out(&to, stream, &payload, out)?;
                self.bcast_done(payload)
            }
            // Pipelined store-and-forward: each segment is relayed to the
            // children the moment it arrives.
            Some(p) => self.expect(p, stream, to, Phase::Bcast),
        }
    }

    fn bcast_done(&self, v: Vec<u8>) -> Step {
        if v.len() != self.op.expect_len {
            return Err(CollectiveError::Protocol(format!(
                "broadcast delivered {} bytes where this member expected {} \
                 (every member must pass a same-length buffer)",
                v.len(),
                self.op.expect_len
            )));
        }
        Ok(Some(v))
    }

    fn collect(&mut self, contrib: Vec<u8>, out: &mut dyn Outbox) -> Step {
        if self.m.size == 1 {
            return self.collected(contrib, out);
        }
        let (kids, parent) = self.tree(self.combine_topo());
        let chunk = contrib.len();
        let mut acc = contrib;
        if !matches!(self.op.kind, OpKind::Reduce(..) | OpKind::Allreduce(..)) {
            // Gather: the subtree's blocks in relabelled order, own first.
            let span = 1 + kids.iter().map(|k| k.2).sum::<usize>();
            acc.resize(span * chunk, 0);
        }
        let c = Collect {
            acc,
            kids,
            next: 0,
            parent,
            chunk,
        };
        self.collect_step(c, out)
    }

    fn collect_step(&mut self, c: Collect, out: &mut dyn Outbox) -> Step {
        if let Some(&(peer, ..)) = c.kids.get(c.next) {
            return self.expect(peer, 0, Vec::new(), Phase::Collect(c));
        }
        if let Some(p) = c.parent {
            self.fan_out(&[p], 0, &c.acc, out)?;
            return self.collected(Vec::new(), out);
        }
        let v = match self.op.kind {
            OpKind::Reduce(..) | OpKind::Allreduce(..) => c.acc,
            // Back to rank-major order for the caller.
            _ => self.permute(&c.acc, c.chunk, |r| self.rel(r)),
        };
        self.collected(v, out)
    }

    /// The end of a first phase: allreduce and tree allgather broadcast
    /// the root's result (`v` is empty on the other members).
    fn collected(&mut self, v: Vec<u8>, out: &mut dyn Outbox) -> Step {
        match self.op.kind {
            OpKind::Allreduce(..) | OpKind::Allgather => self.bcast(1, v, self.op.topo2, out),
            _ => Ok(Some(v)),
        }
    }

    fn scatter(&mut self, payload: Vec<u8>, out: &mut dyn Outbox) -> Step {
        let size = self.m.size;
        if size == 1 {
            return Ok(Some(payload));
        }
        if let (_, Some(p)) = self.tree(self.combine_topo()) {
            return self.expect(p, 0, Vec::new(), Phase::Scatter);
        }
        if !payload.len().is_multiple_of(size) {
            return Err(CollectiveError::BadArg(format!(
                "scatter payload of {} bytes does not divide into {size} chunks",
                payload.len()
            )));
        }
        // Relabelled order makes every subtree one contiguous byte range.
        let buf = self.permute(&payload, payload.len() / size, |x| self.abs(x));
        self.distribute(buf, out)
    }

    /// Hands each child its subtree's contiguous range of `buf` (this
    /// member's subtree) and keeps the first chunk.
    fn distribute(&mut self, mut buf: Vec<u8>, out: &mut dyn Outbox) -> Step {
        let (kids, _) = self.tree(self.combine_topo());
        let span = 1 + kids.iter().map(|k| k.2).sum::<usize>();
        if !buf.len().is_multiple_of(span) {
            return Err(CollectiveError::Protocol(format!(
                "scatter subtree of {} bytes does not divide across {span} members",
                buf.len()
            )));
        }
        let chunk = buf.len() / span;
        for &(peer, off, n) in &kids {
            self.fan_out(&[peer], 0, &buf[off * chunk..(off + n) * chunk], out)?;
        }
        buf.truncate(chunk);
        Ok(Some(buf))
    }

    fn ring(&mut self, contrib: Vec<u8>, out: &mut dyn Outbox) -> Step {
        let (size, rank, chunk) = (self.m.size, self.m.rank, contrib.len());
        let mut buf = vec![0; size * chunk];
        buf[rank * chunk..][..chunk].copy_from_slice(&contrib);
        self.ring_round(buf, chunk, 0, out)
    }

    /// Ring allgather round `round`: pass the block that originated
    /// `round` hops behind to the right, take the next from the left.
    fn ring_round(
        &mut self,
        buf: Vec<u8>,
        chunk: usize,
        round: usize,
        out: &mut dyn Outbox,
    ) -> Step {
        let (size, rank) = (self.m.size, self.m.rank);
        if round + 1 >= size {
            return Ok(Some(buf));
        }
        let block = (rank + size - round) % size;
        let stream = round as u32;
        self.fan_out(
            &[(rank + 1) % size],
            stream,
            &buf[block * chunk..][..chunk],
            out,
        )?;
        let left = (rank + size - 1) % size;
        self.expect(left, stream, Vec::new(), Phase::Ring { buf, chunk, round })
    }

    /// Dissemination round `round`: tell the member `dist` ahead, hear
    /// from the one `dist` behind. Every member leaves only after
    /// transitively hearing from every other.
    fn barrier(&mut self, dist: usize, round: u32, out: &mut dyn Outbox) -> Step {
        let (size, rank) = (self.m.size, self.m.rank);
        if dist >= size {
            return Ok(Some(Vec::new()));
        }
        self.fan_out(&[(rank + dist) % size], round, &[], out)?;
        let from = (rank + size - dist) % size;
        self.expect(from, round, Vec::new(), Phase::Barrier { dist, round })
    }
}

fn mismatch(got: usize, want: usize) -> CollectiveError {
    CollectiveError::Protocol(format!(
        "gather contribution of {got} bytes where {want} were expected \
         (every member must contribute equally)"
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, VecDeque};

    use proptest::prelude::*;

    use super::*;

    const GROUP: u32 = 3;

    fn member(rank: usize, size: usize, pool: &Arc<BufPool>) -> Member {
        Member {
            group: GROUP,
            coll: 1,
            rank,
            size,
            // Small segments so multi-segment pipelines get exercised.
            seg_size: 16,
            pool: Arc::clone(pool),
        }
    }

    /// Frames in flight between in-memory members: `(from, to, frame)`.
    struct Wire<'a> {
        from: usize,
        queue: &'a mut VecDeque<(usize, usize, Vec<u8>)>,
    }

    impl Outbox for Wire<'_> {
        fn send(&mut self, peer: usize, frames: &[&[u8]]) -> Result<(), CollectiveError> {
            for f in frames {
                self.queue.push_back((self.from, peer, f.to_vec()));
            }
            Ok(())
        }
    }

    /// A minimal driver: every member's machine over an in-memory FIFO
    /// wire, with a per-member stash of early segments.
    fn run_all(op: Op, payloads: Vec<Vec<u8>>) -> Vec<Result<Vec<u8>, CollectiveError>> {
        let size = payloads.len();
        let pool = BufPool::new();
        let mut queue = VecDeque::new();
        let mut machines: Vec<Machine> = (0..size)
            .map(|r| Machine::new(member(r, size, &pool), op))
            .collect();
        let mut results: Vec<Done> = Vec::new();
        for (rank, p) in payloads.into_iter().enumerate() {
            let mut out = Wire {
                from: rank,
                queue: &mut queue,
            };
            results.push(machines[rank].start(p, &mut out));
        }
        let mut stash: Vec<BTreeMap<(usize, u32), VecDeque<Seg>>> = vec![BTreeMap::new(); size];
        while let Some((from, to, frame)) = queue.pop_front() {
            let seg = decode_frame(frame, GROUP).expect("own frames decode");
            stash[to]
                .entry((from, seg.stream))
                .or_default()
                .push_back(seg);
            while let Some(key) = machines[to].waiting_on() {
                let Some(seg) = stash[to].get_mut(&key).and_then(VecDeque::pop_front) else {
                    break;
                };
                let mut out = Wire {
                    from: to,
                    queue: &mut queue,
                };
                if let Some(done) = machines[to].on_seg(key.0, seg, &mut out) {
                    results[to] = Some(done);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every member completes"))
            .collect()
    }

    fn f64s(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    /// Member `r`'s contribution: non-integer values whose float sums
    /// depend on the order they are added in.
    fn contrib(r: usize) -> Vec<f64> {
        let x = r as f64;
        vec![
            0.1 * (x + 1.0),
            1.0 / (x + 3.0),
            1e16 / (x + 1.0) + 0.3,
            -x * 0.7,
        ]
    }

    /// The documented fold order: a member adds its children's subtree
    /// sums to its own contribution in `tree_children` order.
    fn tree_fold(rel: usize, size: usize, root: usize) -> Vec<f64> {
        let mut acc = contrib((rel + root) % size);
        for (c, _) in tree_children(rel, size) {
            for (a, b) in acc.iter_mut().zip(tree_fold(c, size, root)) {
                *a += b;
            }
        }
        acc
    }

    #[test]
    fn reductions_fold_in_tree_order_bitwise_on_every_member() {
        let sum = (DType::F64, ReduceOp::Sum);
        for size in 1..=9 {
            for (topo, root) in [(Topology::BinomialTree, 0), (Topology::Flat, 0)] {
                let op = Op {
                    kind: OpKind::Allreduce(sum.0, sum.1),
                    root,
                    topo,
                    topo2: topo,
                    expect_len: 0,
                };
                let want = if topo == Topology::Flat {
                    (1..size).fold(contrib(0), |mut acc, r| {
                        acc.iter_mut().zip(contrib(r)).for_each(|(a, b)| *a += b);
                        acc
                    })
                } else {
                    tree_fold(0, size, root)
                };
                let got = run_all(op, (0..size).map(|r| f64s(&contrib(r))).collect());
                for (rank, g) in got.into_iter().enumerate() {
                    assert_eq!(g, Ok(f64s(&want)), "size {size} {topo:?} rank {rank}");
                }
            }
            // A rooted reduce relabels the same tree around its root.
            let root = size / 2;
            let op = Op {
                kind: OpKind::Reduce(sum.0, sum.1),
                root,
                topo: Topology::BinomialTree,
                topo2: Topology::BinomialTree,
                expect_len: 0,
            };
            let got = run_all(op, (0..size).map(|r| f64s(&contrib(r))).collect());
            assert_eq!(
                got[root],
                Ok(f64s(&tree_fold(0, size, root))),
                "size {size}"
            );
        }
    }

    #[test]
    fn every_op_completes_over_every_shape() {
        let shapes = [Topology::Flat, Topology::BinomialTree, Topology::Ring];
        for size in 1..=6 {
            for topo in shapes {
                let op = |kind, root| Op {
                    kind,
                    root,
                    topo,
                    topo2: topo,
                    expect_len: 40,
                };
                let chunks = |r: usize| vec![r as u8; 20];
                let root = size - 1;
                let data: Vec<u8> = (0..size).flat_map(chunks).collect();
                let bcast = (0..size)
                    .map(|r| if r == root { vec![9; 40] } else { Vec::new() })
                    .collect();
                for got in run_all(op(OpKind::Broadcast, root), bcast) {
                    assert_eq!(got, Ok(vec![9; 40]), "broadcast {size} {topo:?}");
                }
                let scatter = (0..size)
                    .map(|r| if r == root { data.clone() } else { Vec::new() })
                    .collect();
                for (r, got) in run_all(op(OpKind::Scatter, root), scatter)
                    .into_iter()
                    .enumerate()
                {
                    assert_eq!(got, Ok(chunks(r)), "scatter {size} {topo:?}");
                }
                let gathered = run_all(op(OpKind::Gather, root), (0..size).map(chunks).collect());
                assert_eq!(gathered[root], Ok(data.clone()), "gather {size} {topo:?}");
                for got in run_all(op(OpKind::Allgather, 0), (0..size).map(chunks).collect()) {
                    assert_eq!(got, Ok(data.clone()), "allgather {size} {topo:?}");
                }
                for got in run_all(op(OpKind::Barrier, 0), vec![Vec::new(); size]) {
                    assert_eq!(got, Ok(Vec::new()), "barrier {size}");
                }
            }
        }
    }

    /// Discards sends.
    struct Sink;

    impl Outbox for Sink {
        fn send(&mut self, _: usize, _: &[&[u8]]) -> Result<(), CollectiveError> {
            Ok(())
        }
    }

    const KINDS: [OpKind; 7] = [
        OpKind::Broadcast,
        OpKind::Reduce(DType::U32, ReduceOp::Sum),
        OpKind::Allreduce(DType::F64, ReduceOp::Max),
        OpKind::Scatter,
        OpKind::Gather,
        OpKind::Allgather,
        OpKind::Barrier,
    ];
    const SHAPES: [Topology; 3] = [Topology::Flat, Topology::BinomialTree, Topology::Ring];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        /// Adversarial segments — wrong index or total, foreign streams
        /// and operations, duplicates, non-neighbours, short or oversized
        /// payloads — end an operation with a protocol error or are
        /// ignored; they never panic the machine.
        #[test]
        fn adversarial_segments_never_panic(
            case in (0usize..7, 0usize..3, 1usize..8, 0usize..64),
            contrib_len in 0usize..40,
            segs in proptest::collection::vec(
                (any::<bool>(), 0usize..9, (0u32..3, 0u32..4), (0u32..4, 1u32..5), 0usize..72),
                0..24,
            ),
        ) {
            let (kind, shape, size, at) = case;
            let pool = BufPool::new();
            let op = Op {
                kind: KINDS[kind],
                root: (at / 8) % size,
                topo: SHAPES[shape],
                topo2: SHAPES[(shape + 1) % 3],
                expect_len: contrib_len,
            };
            let mut m = Machine::new(member(at % size, size, &pool), op);
            let started = m.start(vec![0x5A; contrib_len], &mut Sink);
            let mut finished = started.is_some();
            for (aim, from, (coll, stream), (seg, total), len) in segs {
                // Half the segments target what the machine waits on, so
                // the schedule makes progress before the garbage lands.
                let (from, stream) = match m.waiting_on() {
                    Some(awaited) if aim => awaited,
                    _ => (from, stream),
                };
                let frame = encode_frame(&pool, GROUP, coll, stream, seg, total, &vec![7; len]);
                let Some(seg) = decode_frame(frame.as_slice().to_vec(), GROUP) else {
                    continue;
                };
                match m.on_seg(from, seg, &mut Sink) {
                    None => {}
                    Some(r) => {
                        prop_assert!(!finished, "a finished machine completed again");
                        prop_assert!(
                            matches!(r, Ok(_) | Err(CollectiveError::Protocol(_))),
                            "unexpected outcome {:?}",
                            r
                        );
                        finished = true;
                    }
                }
            }
            if finished {
                prop_assert_eq!(m.waiting_on(), None);
            }
        }
    }
}
