//! The repository's benchmark: closed-loop workloads over the serving
//! stack, each printing its end-to-end metrics, and a traced run of each
//! printing per-layer metrics. See `README.md` in this package.

pub mod host;
pub mod model;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Outcome;
use workloads::{commit, net, scan, RunConfig};

/// Every workload the command runs.
pub const WORKLOADS: [&str; 5] = [
    "scan_mem",
    "scan_disk",
    "scan_disk_exact",
    "commit_replicated",
    "net_serve",
];

/// `(name, unit)` of every end-to-end metric, in report order.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("query_p50_us", "us"),
    ("get_p50_us", "us"),
    ("rss_peak_mb", "MiB"),
];

/// Input sizes: the benchmark's, or small ones for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs that run in well under a second.
    Tiny,
}

/// Runs one workload and checks that it reported exactly the metrics its
/// kind of run promises.
///
/// # Errors
/// On an unknown workload, a failed set-up, or a metric list that does not
/// match.
pub fn run(workload: &str, scale: Scale, cfg: &RunConfig) -> Result<Outcome, String> {
    let full = scale == Scale::Full;
    let ticks = host::cpu_ticks();
    let mut out = match workload {
        "scan_mem" | "scan_disk" | "scan_disk_exact" => {
            let storage = if workload == "scan_mem" {
                scan::Storage::Memory
            } else {
                scan::Storage::Disk
            };
            let ranges = if workload == "scan_disk_exact" {
                scan::Ranges::Exact
            } else {
                scan::Ranges::Planned
            };
            let sizes = if full {
                scan::ScanSizes::full()
            } else {
                scan::ScanSizes::tiny()
            };
            scan::run(storage, ranges, sizes, cfg)?
        }
        "commit_replicated" => {
            let sizes = if full {
                commit::CommitSizes::full()
            } else {
                commit::CommitSizes::tiny()
            };
            commit::run(sizes, cfg)?
        }
        "net_serve" => {
            let sizes = if full {
                net::NetSizes::full()
            } else {
                net::NetSizes::tiny()
            };
            net::run(sizes, cfg)?
        }
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    };
    if let Some(steal) = host::steal_pct(ticks, host::cpu_ticks()) {
        out.notes.push(format!(
            "CPU time stolen by the hypervisor during the run: {steal:.2}%"
        ));
    }
    let mut want: Vec<(&str, &str)> = if cfg.trace {
        workloads::layer_metrics()
    } else {
        E2E_METRICS.to_vec()
    };
    let mut got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("{workload} reported {got:?}, expected {want:?}"));
    }
    Ok(out)
}
