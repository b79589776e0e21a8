//! Tiny-size runs of every workload with the output checks on, traced and
//! untraced, and the agreement of `BENCHMARK.json` with what runs report.

use perfbench::host::ScratchDir;
use perfbench::workloads::{layer_metrics, RunConfig};
use perfbench::{Scale, E2E_METRICS};
use std::path::Path;

fn tiny_run(workload: &str, trace: bool) -> perfbench::report::Outcome {
    let label = format!("{workload}-{}", u8::from(trace));
    // A root per test: a scratch directory removes its root when it is
    // the last one in it.
    let root = format!("target/test-scratch-{label}");
    let scratch = ScratchDir::create(Path::new(&root), &label).unwrap();
    let cfg = RunConfig {
        seed: 11,
        seconds: 0.6,
        trace,
        data_dir: scratch.path().to_path_buf(),
        trace_file: scratch.path().join("spans.csv"),
    };
    let out = perfbench::run(workload, Scale::Tiny, &cfg).unwrap();
    assert!(out.correct, "{workload}: {:#?}", out.notes);
    assert_eq!(out.failed, 0, "{workload}");
    assert!(out.attempted > 0);
    for m in &out.metrics {
        // Traced ops may run faster than untraced ones by chance.
        let signed = m.name == "trace.overhead_pct";
        assert!(
            m.value.is_finite() && (signed || m.value >= 0.0),
            "{workload}: {m:?}"
        );
    }
    if trace {
        let spans = std::fs::read_to_string(&cfg.trace_file).unwrap();
        assert!(spans.lines().count() > 1, "{workload}: no spans written");
    }
    out
}

fn value(out: &perfbench::report::Outcome, name: &str) -> f64 {
    out.metrics.iter().find(|m| m.name == name).unwrap().value
}

#[test]
fn scan_mem_tiny() {
    let out = tiny_run("scan_mem", false);
    assert!(value(&out, "query_p50_us") > 0.0);
    let traced = tiny_run("scan_mem", true);
    assert!(value(&traced, "clustering.clusters_per_query") >= 1.0);
    assert!(value(&traced, "clustering.decompose_us") > 0.0);
    assert_eq!(value(&traced, "store.real_reads_per_query"), 0.0);
}

#[test]
fn scan_disk_tiny() {
    tiny_run("scan_disk", false);
    let traced = tiny_run("scan_disk", true);
    assert!(value(&traced, "store.real_reads_per_query") > 0.0);
}

#[test]
fn scan_disk_exact_tiny() {
    let out = tiny_run("scan_disk_exact", false);
    assert!(value(&out, "query_p50_us") > 0.0);
    let traced = tiny_run("scan_disk_exact", true);
    assert!(value(&traced, "store.real_reads_per_query") > 0.0);
    assert!(value(&traced, "scan.pages_per_query") > 0.0);
    // Unplanned: the planner's metrics stay at zero.
    assert_eq!(value(&traced, "plan.ranges_per_query"), 0.0);
    assert_eq!(value(&traced, "plan.plan_us"), 0.0);
}

#[test]
fn commit_replicated_tiny() {
    let out = tiny_run("commit_replicated", false);
    assert!(value(&out, "op_p50_us") > 0.0);
    let traced = tiny_run("commit_replicated", true);
    assert!(value(&traced, "engine.flush_us") > 0.0);
    assert!(value(&traced, "wal.bytes_per_write") > 0.0);
    assert!(value(&traced, "engine.checkpoint_us") > 0.0);
}

#[test]
fn net_serve_tiny() {
    let out = tiny_run("net_serve", false);
    assert!(value(&out, "get_p50_us") > 0.0);
    let traced = tiny_run("net_serve", true);
    assert!(value(&traced, "net.rtt_us") > 0.0);
    assert!(value(&traced, "net.local_us") > 0.0);
}

#[test]
fn unknown_workload_is_refused() {
    let scratch = ScratchDir::create(Path::new("target/test-scratch-unknown"), "unknown").unwrap();
    let cfg = RunConfig {
        seed: 1,
        seconds: 0.1,
        trace: false,
        data_dir: scratch.path().to_path_buf(),
        trace_file: scratch.path().join("spans.csv"),
    };
    assert!(perfbench::run("nope", Scale::Tiny, &cfg).is_err());
}

/// The workloads `BENCHMARK.json` lists. `scan_disk` is bistable and
/// varies from run to run by more than any bound the benchmark may set
/// (see `README.md`), so it runs only on request.
const LISTED_WORKLOADS: [&str; 4] = [
    "scan_mem",
    "scan_disk_exact",
    "commit_replicated",
    "net_serve",
];

/// Every `"name": "..."` in `BENCHMARK.json`, in file order.
fn declared_names(json: &str) -> Vec<String> {
    json.split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn benchmark_json_lists_what_runs_report() {
    let json =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let declared = declared_names(&json);
    let reported: Vec<&str> = LISTED_WORKLOADS
        .iter()
        .copied()
        .chain(E2E_METRICS.iter().map(|m| m.0))
        .chain(layer_metrics().iter().map(|m| m.0))
        .collect();
    assert_eq!(declared, reported);
    for (name, unit) in E2E_METRICS.iter().copied().chain(layer_metrics()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} missing");
    }
}
