//! The four workloads and what they share: run settings, repeated set-up,
//! the traced/untraced window schedule of traced runs, and the per-layer
//! metric table.

pub mod commit;
pub mod net;
pub mod scan;

use crate::report::Outcome;
use crate::stats::Mean;
use crate::trace::{self, SelfTimes, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Settings of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// The run's private scratch directory (data directories live here).
    pub data_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

impl RunConfig {
    /// The timed region's length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Untraced runs build the system at least this many times in all. After
/// the timed region they go on building, starting a build at most every
/// [`SETUP_WINDOW`] / [`SETUP_MAX_REPS`], until the window has passed or
/// [`SETUP_MAX_REPS`] builds are done; `setup_s` is the median build.
/// Spaced out, the builds sample the host over the whole window rather
/// than over one burst: `net_serve`'s 31 builds of 2 ms, run back to back,
/// gave run medians from 1.7 to 3.9 ms. Traced runs build once.
pub const SETUP_MIN_REPS: usize = 3;

/// Most builds of one untraced run.
pub const SETUP_MAX_REPS: usize = 31;

/// How long an untraced run goes on repeating the build.
pub const SETUP_WINDOW: Duration = Duration::from_secs(2);

/// What building the measured system cost.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// Wall time of the build, in seconds.
    pub secs: f64,
    /// Peak RSS once built, in MiB; `None` if `/proc` is unreadable.
    pub rss_mb: Option<f64>,
}

/// Builds the system the run measures, timing the build and reading the
/// peak RSS after it.
///
/// # Errors
/// As `build`.
pub fn timed_setup<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, Setup), String> {
    let t0 = Instant::now();
    let built = build()?;
    let secs = t0.elapsed().as_secs_f64();
    let rss_mb = crate::host::rss_peak_mb();
    Ok((built, Setup { secs, rss_mb }))
}

/// Ends an untraced run once the measured system is gone. Records
/// `rss_peak_mb` as `rss_mb`, the peak RSS a workload read after a fixed
/// number of its ops, so that it covers serving but not how far a host
/// got in the run; the peak once built and after the run are notes. Then
/// repeats the build, dropping each at once (see [`SETUP_MIN_REPS`]), and
/// records `setup_s` as the median of those builds and the `done` ones,
/// the builds the run served on. Build `rep` must not collide with the
/// leftovers of builds `0..rep`.
///
/// # Errors
/// As `build`, or when the peak RSS was not read.
pub fn finish_setup<T>(
    cfg: &RunConfig,
    done: &[Setup],
    rss_mb: Option<f64>,
    mut build: impl FnMut(usize) -> Result<T, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    if cfg.trace {
        return Ok(());
    }
    out.metric("rss_peak_mb", "MiB", rss_mb.ok_or("VmHWM unreadable")?);
    let end = crate::host::rss_peak_mb();
    out.notes.push(format!(
        "peak RSS once built {:.1} MiB, after the run and its checks {:.1} MiB",
        done.first().and_then(|s| s.rss_mb).unwrap_or(f64::NAN),
        end.unwrap_or(f64::NAN)
    ));
    let mut times: Vec<f64> = done.iter().map(|s| s.secs).collect();
    let window = Instant::now();
    let spacing = SETUP_WINDOW / SETUP_MAX_REPS as u32;
    let mut next = window;
    while times.len() < SETUP_MAX_REPS
        && (times.len() < SETUP_MIN_REPS || window.elapsed() < SETUP_WINDOW)
    {
        if let Some(wait) = next.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        next += spacing;
        let (built, setup) = timed_setup(|| build(times.len()))?;
        drop(built);
        times.push(setup.secs);
    }
    times.sort_by(f64::total_cmp);
    out.notes.push(format!(
        "setup_s is the median of {} builds, from {:.4} s to {:.4} s",
        times.len(),
        times[0],
        times[times.len() - 1]
    ));
    out.metric("setup_s", "s", times[times.len() / 2]);
    Ok(())
}

/// Reads the peak RSS once a run has done a fixed number of ops.
#[derive(Clone, Copy, Debug)]
pub struct RssAt {
    /// Ops after which the peak is read; the run goes on at least this
    /// long.
    pub ops: u64,
    /// The peak, once read, in MiB.
    pub mb: Option<f64>,
}

impl RssAt {
    /// Reads the peak after `ops` ops.
    pub fn new(ops: u64) -> Self {
        RssAt { ops, mb: None }
    }

    /// Call after each op with the ops done so far.
    pub fn tick(&mut self, done: u64) {
        if done == self.ops {
            self.mb = crate::host::rss_peak_mb();
        }
    }

    /// Whether a run that has done `done` ops may stop.
    pub fn reached(&self, done: u64) -> bool {
        done >= self.ops
    }
}

/// The message of a typed error, for set-up failures.
pub fn err(e: onion_core::SfcError) -> String {
    e.to_string()
}

/// Length of each traced and untraced window of a traced run.
pub const TRACE_WINDOW: Duration = Duration::from_millis(250);

/// The window schedule of a traced run: untraced and traced windows
/// alternate, so both see the same drift, and the throughput of the two
/// gives the tracing overhead.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    start: Instant,
    trace: bool,
}

impl Windows {
    /// The schedule of a run starting now.
    pub fn new(trace: bool) -> Self {
        Windows {
            start: Instant::now(),
            trace,
        }
    }

    /// Whether an op starting at `now` is traced.
    pub fn traced(&self, now: Instant) -> bool {
        self.trace && (now.duration_since(self.start).as_nanos() / TRACE_WINDOW.as_nanos()) % 2 == 1
    }
}

/// Width of the blocks of the per-run latency timelines.
pub const TIMELINE_BLOCK: Duration = Duration::from_secs(2);

/// Op counts and busy time of untraced (`[0]`) and traced (`[1]`) ops.
#[derive(Clone, Debug, Default)]
pub struct Busy {
    ops: [u64; 2],
    ns: [u64; 2],
}

impl Busy {
    /// Adds `ops` completed after `ns` of busy time.
    pub fn add(&mut self, traced: bool, ops: u64, ns: u64) {
        self.ops[traced as usize] += ops;
        self.ns[traced as usize] += ns;
    }

    /// Merges another thread's counts.
    pub fn merge(&mut self, o: &Busy) {
        for i in 0..2 {
            self.ops[i] += o.ops[i];
            self.ns[i] += o.ns[i];
        }
    }

    /// Untraced throughput of `clients` concurrent clients: ops per
    /// second of busy time of each.
    pub fn ops_per_s(&self, clients: usize) -> f64 {
        rate(self.ops[0], self.ns[0]) * clients as f64
    }

    /// How much slower traced ops ran than untraced ones, in percent of
    /// the untraced throughput.
    pub fn overhead_pct(&self) -> f64 {
        let (plain, traced) = (rate(self.ops[0], self.ns[0]), rate(self.ops[1], self.ns[1]));
        if plain > 0.0 {
            (plain - traced) / plain * 100.0
        } else {
            0.0
        }
    }
}

fn rate(ops: u64, ns: u64) -> f64 {
    if ns == 0 {
        0.0
    } else {
        ops as f64 / (ns as f64 / 1e9)
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-layer counts gathered in traced windows. Layer times come from the
/// spans; see [`Layers::report`].
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub clusters: Mean,
    pub eta: Mean,
    pub plan_ranges: Mean,
    pub read_amp: Mean,
    /// Plans by strategy: full decomposition, coalesced, single range.
    pub strategies: [u64; 3],
    pub measured: Option<(f64, f64)>,
    pub fanout: Mean,
    pub seeks: Mean,
    pub pages: Mean,
    pub records: Mean,
    pub real_reads: Mean,
    pub real_seeks: Mean,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Writes admitted inside `engine.admit` spans.
    pub admitted: u64,
    /// Points keyed inside `curves.keying` spans.
    pub keyed: u64,
    pub writes_per_epoch: f64,
    pub durable_lag: Mean,
    pub flush_failures: u64,
    pub wal_bytes_per_write: Mean,
    pub snapshot_bytes_per_record: Mean,
    pub request_bytes: Mean,
    pub response_bytes: Mean,
    pub net_failed: u64,
    pub lag_at_ack: Mean,
    pub reconnects: u64,
}

/// One per-layer metric: name, unit and value.
pub type LayerMetric = (&'static str, &'static str, f64);

impl Layers {
    /// Every per-layer metric, in report order: layer times from the
    /// spans' self times, counts from `self`, the tracing overhead and the
    /// error rate. Layers a workload does not reach read zero.
    pub fn table(&self, times: &SelfTimes, busy: &Busy, error_rate: f64) -> Vec<LayerMetric> {
        let us = |name: &str| trace::mean_self_us(times, name);
        let total_us = |name: &str| times.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3);
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        let plans = self.strategies.iter().sum::<u64>();
        let share = |i: usize| per(self.strategies[i] as f64, plans);
        let (seek_us, page_us) = self.measured.unwrap_or((0.0, 0.0));
        let (query_us, explain_us) = (us("scan.query"), us("plan.explain"));
        let (rtt_us, local_us) = (us("net.rtt"), us("net.local"));
        let calibrated = f64::from(u8::from(self.measured.is_some()));
        let hits = self.pool_hits;
        vec![
            ("clustering.decompose_us", "us", us("clustering.decompose")),
            (
                "clustering.clusters_per_query",
                "count",
                self.clusters.mean(),
            ),
            ("clustering.eta", "ratio", self.eta.mean()),
            ("plan.plan_us", "us", explain_us),
            ("plan.ranges_per_query", "count", self.plan_ranges.mean()),
            ("plan.read_amplification", "ratio", self.read_amp.mean()),
            ("plan.full_share", "ratio", share(0)),
            ("plan.coalesced_share", "ratio", share(1)),
            ("plan.single_range_share", "ratio", share(2)),
            ("plan.calibrated", "count", calibrated),
            ("plan.measured_seek_us", "us", seek_us),
            ("plan.measured_page_us", "us", page_us),
            ("scan.query_us", "us", query_us),
            ("scan.self_us", "us", (query_us - explain_us).max(0.0)),
            ("scan.shard_fanout", "count", self.fanout.mean()),
            ("scan.seeks_per_query", "count", self.seeks.mean()),
            ("scan.pages_per_query", "count", self.pages.mean()),
            ("scan.records_per_query", "count", self.records.mean()),
            (
                "store.real_reads_per_query",
                "count",
                self.real_reads.mean(),
            ),
            (
                "store.real_seeks_per_query",
                "count",
                self.real_seeks.mean(),
            ),
            (
                "store.hit_rate",
                "ratio",
                per(hits as f64, hits + self.pool_misses),
            ),
            (
                "engine.admit_us",
                "us",
                per(total_us("engine.admit"), self.admitted),
            ),
            ("engine.get_us", "us", us("engine.get")),
            ("engine.apply_us", "us", us("engine.apply")),
            ("engine.flush_us", "us", us("engine.flush")),
            ("engine.checkpoint_us", "us", us("engine.checkpoint")),
            ("engine.writes_per_epoch", "count", self.writes_per_epoch),
            ("engine.durable_lag", "count", self.durable_lag.mean()),
            ("engine.flush_failures", "count", self.flush_failures as f64),
            (
                "curves.keying_ns_per_point",
                "ns",
                per(total_us("curves.keying") * 1e3, self.keyed),
            ),
            ("wal.bytes_per_write", "B", self.wal_bytes_per_write.mean()),
            ("wal.encode_us_per_commit", "us", us("wal.encode")),
            (
                "wal.snapshot_bytes_per_record",
                "B",
                self.snapshot_bytes_per_record.mean(),
            ),
            ("net.rtt_us", "us", rtt_us),
            ("net.local_us", "us", local_us),
            (
                "net.transport_us",
                "us",
                if rtt_us > 0.0 { rtt_us - local_us } else { 0.0 },
            ),
            ("net.codec_us", "us", us("net.codec")),
            ("net.request_bytes", "B", self.request_bytes.mean()),
            ("net.response_bytes", "B", self.response_bytes.mean()),
            ("net.failed", "count", self.net_failed as f64),
            ("replica.apply_lag_us", "us", us("replica.wait")),
            ("replica.lag_at_ack", "count", self.lag_at_ack.mean()),
            ("replica.reconnects", "count", self.reconnects as f64),
            ("trace.overhead_pct", "%", busy.overhead_pct()),
            ("error_rate", "ratio", error_rate),
        ]
    }

    /// Adds every metric of [`Self::table`] to `out`, and a note on the
    /// traced and untraced throughput.
    pub fn report(&self, times: &SelfTimes, busy: &Busy, out: &mut Outcome) {
        let error_rate = if out.attempted == 0 {
            0.0
        } else {
            out.failed as f64 / out.attempted as f64
        };
        for (name, unit, value) in self.table(times, busy, error_rate) {
            out.metric(name, unit, value);
        }
        out.notes.push(format!(
            "traced run: {} untraced ops at {:.0}/s per client, {} traced ops at {:.0}/s, overhead {:.1}%",
            busy.ops[0],
            rate(busy.ops[0], busy.ns[0]),
            busy.ops[1],
            rate(busy.ops[1], busy.ns[1]),
            busy.overhead_pct()
        ));
    }
}

/// `(name, unit)` of every per-layer metric, in report order.
pub fn layer_metrics() -> Vec<(&'static str, &'static str)> {
    Layers::default()
        .table(&SelfTimes::new(), &Busy::default(), 0.0)
        .into_iter()
        .map(|(name, unit, _)| (name, unit))
        .collect()
}

/// Writes the spans of a traced run and returns their self times.
pub fn finish_trace(cfg: &RunConfig, tracers: &[Tracer], out: &mut Outcome) -> SelfTimes {
    let mut times = SelfTimes::new();
    for t in tracers {
        trace::merge(&mut times, trace::self_times(t.spans()));
    }
    let spans: usize = tracers.iter().map(|t| t.spans().len()).sum();
    let written: usize = tracers
        .iter()
        .map(|t| t.spans().len().min(trace::MAX_WRITTEN_SPANS))
        .sum();
    match trace::write_csv(&cfg.trace_file, tracers) {
        Ok(()) => out.notes.push(format!(
            "{spans} spans recorded, {written} written to {}",
            cfg.trace_file.display()
        )),
        Err(e) => out.notes.push(format!("writing spans failed: {e}")),
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_throughput_and_overhead() {
        let mut b = Busy::default();
        b.add(false, 100, 1_000_000_000);
        b.add(true, 80, 1_000_000_000);
        let mut other = Busy::default();
        other.add(false, 100, 1_000_000_000);
        b.merge(&other);
        assert_eq!(b.ops_per_s(1), 100.0);
        assert_eq!(b.ops_per_s(2), 200.0);
        assert!((b.overhead_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn layer_table_puts_each_value_under_its_name() {
        let mut layers = Layers::default();
        layers.clusters.add(7.0);
        layers.strategies = [1, 0, 3];
        layers.pool_hits = 3;
        layers.pool_misses = 1;
        layers.reconnects = 2;
        layers.keyed = 10;
        let mut times = SelfTimes::new();
        times.insert("scan.query", (2, 10_000));
        times.insert("plan.explain", (2, 4_000));
        times.insert("curves.keying", (1, 500));
        let mut busy = Busy::default();
        busy.add(false, 10, 1_000);
        busy.add(true, 5, 1_000);
        let table = layers.table(&times, &busy, 0.25);
        let get = |name: &str| table.iter().find(|m| m.0 == name).unwrap().2;
        assert_eq!(get("clustering.clusters_per_query"), 7.0);
        assert_eq!(get("plan.single_range_share"), 0.75);
        assert_eq!(get("store.hit_rate"), 0.75);
        assert_eq!(get("scan.query_us"), 5.0);
        assert_eq!(get("plan.plan_us"), 2.0);
        assert_eq!(get("scan.self_us"), 3.0);
        assert_eq!(get("curves.keying_ns_per_point"), 50.0);
        assert_eq!(get("replica.reconnects"), 2.0);
        assert_eq!(get("trace.overhead_pct"), 50.0);
        assert_eq!(get("error_rate"), 0.25);
        let names = layer_metrics();
        assert_eq!(names.len(), table.len());
        let mut unique: Vec<_> = names.iter().map(|m| m.0).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn untraced_runs_never_trace() {
        let w = Windows::new(false);
        assert!(!w.traced(Instant::now() + TRACE_WINDOW));
        let w = Windows::new(true);
        assert!(!w.traced(w.start));
        assert!(w.traced(w.start + TRACE_WINDOW));
        assert!(!w.traced(w.start + 2 * TRACE_WINDOW));
    }
}
