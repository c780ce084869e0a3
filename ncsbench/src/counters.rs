//! Layer counters read from NCS's public stats, snapshotted at the edges
//! of a timed phase, plus the process's own resource use and the CPU time
//! the host's hypervisor took from it.

use std::sync::Arc;

use ncs_collectives::CollectiveGroup;
use ncs_core::{BufPool, NcsConnection, NcsNode, Reactor};
use ncs_threads::ThreadPackage;

/// Declares [`Counters`] with one `u64` per listed field, and the
/// field-by-field difference and sum.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Every counter a phase reports, summed over a workload's
        /// reactors, connections, pools, groups and thread packages.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            /// `self - earlier`.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters { $($field: self.$field - earlier.$field,)* }
            }

            /// `self + other`.
            pub fn plus(&self, other: &Counters) -> Counters {
                Counters { $($field: self.$field + other.$field,)* }
            }
        }
    };
}

counters!(
    fd_events,
    wakeups,
    task_runs,
    polls,
    timer_fires,
    stalled_tasks,
    blocking_spawned,
    msgs_sent,
    packets_sent,
    acks_sent,
    credits_granted,
    retransmissions,
    send_failures,
    pool_checkouts,
    pool_hits,
    pool_misses,
    pool_discards,
    coll_frames,
    coll_bytes,
    context_switches,
    blocks,
    spawns,
    cpu_us,
    vol_ctxsw,
    invol_ctxsw,
    steal_ticks,
    cpu_ticks,
);

/// The NCS objects one workload's counters come from. Shared objects
/// (one reactor or package behind several nodes) are listed once.
#[derive(Default)]
pub struct Rig {
    reactors: Vec<Arc<Reactor>>,
    pools: Vec<Arc<BufPool>>,
    pkgs: Vec<Arc<dyn ThreadPackage>>,
    conns: Vec<NcsConnection>,
    groups: Vec<CollectiveGroup>,
}

fn push_unique<T: ?Sized>(v: &mut Vec<Arc<T>>, x: Arc<T>) {
    if !v
        .iter()
        .any(|y| std::ptr::addr_eq(Arc::as_ptr(y), Arc::as_ptr(&x)))
    {
        v.push(x);
    }
}

impl Rig {
    pub fn node(&mut self, node: &NcsNode) {
        push_unique(&mut self.reactors, node.reactor());
        push_unique(&mut self.pools, node.buffer_pool());
        push_unique(&mut self.pkgs, node.thread_package());
    }

    /// Adds one end of a connection; add both ends to count both sides.
    pub fn conn(&mut self, conn: &NcsConnection) {
        self.conns.push(conn.clone());
    }

    pub fn group(&mut self, group: CollectiveGroup) {
        self.groups.push(group);
    }

    pub fn groups(&self) -> &[CollectiveGroup] {
        &self.groups
    }

    pub fn snapshot(&self) -> Counters {
        let mut c = Counters::default();
        for r in &self.reactors {
            let s = r.stats();
            c.fd_events += s.fd_events;
            c.wakeups += s.wakeups;
            c.task_runs += s.task_runs;
            c.polls += s.polls;
            c.timer_fires += s.timer_fires;
            c.stalled_tasks += s.stalled_tasks;
            c.blocking_spawned += s.blocking_spawned;
        }
        for conn in &self.conns {
            let s = conn.stats();
            c.msgs_sent += s.messages_sent;
            c.packets_sent += s.packets_sent;
            c.acks_sent += s.acks_sent;
            c.credits_granted += s.credits_granted;
            c.retransmissions += s.retransmissions;
            c.send_failures += s.send_failures;
        }
        for p in &self.pools {
            let s = p.stats();
            c.pool_checkouts += s.checkouts;
            c.pool_hits += s.hits;
            c.pool_misses += s.misses;
            c.pool_discards += s.discards;
        }
        for g in &self.groups {
            let s = g.stats();
            c.coll_frames += s.frames_sent;
            c.coll_bytes += s.bytes_sent;
        }
        for p in &self.pkgs {
            let s = p.stats();
            c.context_switches += s.context_switches;
            c.blocks += s.blocks;
            c.spawns += s.spawns;
        }
        let u = rusage();
        c.cpu_us = u.cpu_us;
        c.vol_ctxsw = u.vol_ctxsw;
        c.invol_ctxsw = u.invol_ctxsw;
        (c.steal_ticks, c.cpu_ticks) = host_cpu_ticks();
        c
    }

    /// The reactor, connection and pool counters, for a deadline report.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for r in &self.reactors {
            out += &format!("  {}\n", r.stats());
        }
        for conn in &self.conns {
            out += &format!(
                "  conn {} -> {}: {}\n",
                conn.id(),
                conn.peer_name(),
                conn.stats()
            );
        }
        for p in &self.pools {
            out += &format!("  pool: {:?}\n", p.stats());
        }
        out
    }
}

/// The process's CPU time and context switches, all threads included.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub cpu_us: u64,
    pub vol_ctxsw: u64,
    pub invol_ctxsw: u64,
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

pub fn rusage() -> Usage {
    let mut u = RUsage::default();
    // SAFETY: `u` is a live, writable `struct rusage` with the C layout
    // getrusage(2) fills on 64-bit Linux; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc != 0 {
        return Usage::default();
    }
    let us = |t: &Timeval| (t.sec * 1_000_000 + t.usec) as u64;
    Usage {
        cpu_us: us(&u.utime) + us(&u.stime),
        vol_ctxsw: u.longs[NVCSW] as u64,
        invol_ctxsw: u.longs[NIVCSW] as u64,
    }
}

/// Host-wide CPU time stolen by the hypervisor, and all CPU time, in
/// ticks (the `cpu` line of `/proc/stat`); zeros where unreadable.
fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// A `kB` field of `/proc/self/status` (`VmHWM:`, `VmRSS:`), in MiB.
pub fn proc_status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
