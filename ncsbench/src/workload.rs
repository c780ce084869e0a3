//! What every workload measures and returns.

use std::time::{Duration, Instant};

use crate::counters::{proc_status_mib, Counters, Rig};
use crate::trace::Span;

/// Deadline of one operation (a round trip, a message's window slot, a
/// 64-message window, an allreduce). A miss counts the op as failed,
/// prints the workload's layer counters and ends the run.
pub const OP_DEADLINE: Duration = Duration::from_secs(5);

/// Receive timeout of the peer threads, which re-check their stop flag
/// between receives.
pub const POLL: Duration = Duration::from_millis(100);

/// Fresh worlds a run builds, measures and tears down in turn. Thread
/// placement on a small host settles differently in each world, and load
/// from outside the process slows some worlds more than others, so a run
/// reports the interquartile mean over several worlds; `setup_s` is the
/// median of their set-ups.
pub const ROUNDS: usize = 12;

/// How a run is split into rounds and timed phases.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Plan {
    /// The `(traced, length)` phases of one round: the round untraced, or
    /// an untraced half followed by a traced half on the same world.
    pub fn round(&self) -> Vec<(bool, Duration)> {
        let len = Duration::from_secs_f64(self.seconds / ROUNDS as f64);
        if self.trace {
            vec![(false, len / 2), (true, len / 2)]
        } else {
            vec![(false, len)]
        }
    }
}

/// Seconds spent in each part of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// Node or world construction (plus `attach_peer`).
    pub world_s: f64,
    /// `connect`/`accept` (inside `world_s` for `LocalWorld`).
    pub connect_s: f64,
    /// `collective_group` on every rank.
    pub group_s: f64,
    /// The whole set-up, warm-up included.
    pub total_s: f64,
}

/// One timed phase.
pub struct Phase {
    pub traced: bool,
    pub elapsed_s: f64,
    /// Ops attempted and failed (error, wrong output or missed deadline).
    pub ops: u64,
    pub failed: u64,
    /// Whether an error or a missed deadline ended the phase early.
    pub aborted: bool,
    pub counters: Counters,
    /// Latency of each op that completed.
    pub lat: Samples,
    /// Resident memory gained over the phase (MiB; negative if freed).
    pub rss_growth_mib: f64,
}

/// The result of running one workload.
#[derive(Default)]
pub struct Outcome {
    pub setups: Vec<SetupTimes>,
    pub phases: Vec<Phase>,
    /// Spans of the traced phases.
    pub spans: Vec<Span>,
    /// Wrong outputs seen anywhere in the run (warm-up and peer side too).
    pub wrong: u64,
    /// Peak resident memory when the first world was measured (MiB): what
    /// one process running the workload holds. Later worlds start from
    /// whatever earlier ones left behind.
    pub peak_rss_mib: f64,
    /// Resident memory after each world was torn down (MiB).
    pub rss_after_mib: Vec<f64>,
}

impl Outcome {
    /// Call when a round's phases are done, before its teardown.
    pub fn round_measured(&mut self) {
        if self.setups.len() == 1 {
            self.peak_rss_mib = proc_status_mib("VmHWM:");
        }
    }

    /// Call after a round's teardown.
    pub fn round_torn_down(&mut self) {
        self.rss_after_mib.push(proc_status_mib("VmRSS:"));
    }

    /// Whether a failed phase ended the run.
    pub fn aborted(&self) -> bool {
        self.phases.iter().any(|p| p.aborted)
    }
}

/// Latency samples in a fixed, pre-touched buffer, so the benchmark's own
/// memory does not grow with the op count and bias `peak_rss_mib`. Once
/// full, every other sample is dropped and only every `stride`-th sample
/// is kept from then on, which leaves a uniform subsample.
pub struct Samples {
    ns: Vec<u32>,
    len: usize,
    stride: u64,
    seen: u64,
}

const SAMPLES_CAP: usize = 1 << 16;

impl Samples {
    pub fn new() -> Self {
        Samples {
            ns: vec![u32::MAX; SAMPLES_CAP],
            len: 0,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, d: Duration) {
        if self.seen.is_multiple_of(self.stride) {
            if self.len == self.ns.len() {
                for i in 0..self.len / 2 {
                    self.ns[i] = self.ns[2 * i];
                }
                self.len /= 2;
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.ns[self.len] = u32::try_from(d.as_nanos()).unwrap_or(u32::MAX);
                self.len += 1;
            }
        }
        self.seen += 1;
    }

    /// Samples pushed (kept or not).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Nearest-rank percentile `q` of the kept samples, in µs; 0 when
    /// empty. Sorts the samples in place.
    pub fn percentile_us(&mut self, q: f64) -> f64 {
        let kept = &mut self.ns[..self.len];
        if kept.is_empty() {
            return 0.0;
        }
        kept.sort_unstable();
        let rank = ((q * kept.len() as f64).ceil() as usize).clamp(1, kept.len());
        f64::from(kept[rank - 1]) / 1e3
    }
}

/// Runs `body` as a timed phase, between two snapshots of `rig`'s
/// counters.
pub fn timed(traced: bool, rig: &Rig, body: impl FnOnce(&mut Phase)) -> Phase {
    let mut ph = Phase {
        traced,
        elapsed_s: 0.0,
        ops: 0,
        failed: 0,
        aborted: false,
        counters: Counters::default(),
        lat: Samples::new(),
        rss_growth_mib: 0.0,
    };
    let rss_before = proc_status_mib("VmRSS:");
    let before = rig.snapshot();
    let start = Instant::now();
    body(&mut ph);
    ph.elapsed_s = start.elapsed().as_secs_f64();
    ph.counters = rig.snapshot().since(&before);
    ph.rss_growth_mib = proc_status_mib("VmRSS:") - rss_before;
    ph
}

/// Time left until `deadline`.
pub fn left(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_subsample_uniformly_once_full() {
        let mut s = Samples::new();
        let n = 3 * SAMPLES_CAP as u64;
        for i in 0..n {
            s.push(Duration::from_nanos(i));
        }
        assert_eq!(s.count(), n);
        assert_eq!(s.stride, 4);
        let p50 = s.percentile_us(0.5) * 1e3;
        assert!((p50 - n as f64 / 2.0).abs() < 8.0, "p50 {p50}");
    }
}
