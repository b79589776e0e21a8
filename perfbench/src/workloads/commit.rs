//! `commit_replicated`: small commits on a write-ahead-logged engine,
//! each awaited on one replica over loopback, with periodic durability
//! barriers and checkpoints.

use super::{
    err, finish_setup, finish_trace, ns_since, timed_setup, Busy, Layers, RssAt, RunConfig, Windows,
};
use crate::model::{self, EngineOp, Grid};
use crate::report::Outcome;
use crate::stats::Latencies;
use crate::trace::Tracer;
use onion_core::{Onion2D, Point, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_clustering::RectQuery;
use sfc_engine::{Engine, EngineConfig, Op, Reply};
use sfc_index::{encode_seq, BatchOp, DiskModel, Record};
use sfc_net::{Replica, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of the commit workload.
#[derive(Clone, Copy, Debug)]
pub struct CommitSizes {
    /// Universe side.
    pub side: u32,
    /// Shards of the transactor and of the replica.
    pub shards: usize,
    /// Records preloaded, at distinct uniform cells.
    pub records: usize,
    /// Writes per commit, and the engine's epoch size: the last write of
    /// a commit fills the epoch, and admitting it applies the epoch.
    pub batch: usize,
    /// Commits between durability barriers (`flush()`).
    pub sync_every: u64,
    /// Commits between checkpoints.
    pub checkpoint_every: u64,
    /// Checkpoints every run covers, even past the deadline; each round
    /// covers its share.
    pub min_checkpoints: u64,
    /// Writes generated; the loop cycles through them a batch at a time.
    pub stream: usize,
    /// Side of the read-back query around a written cell.
    pub query_side: u32,
    /// Commits after which the peak RSS is read.
    pub rss_commits: u64,
}

impl CommitSizes {
    /// The benchmark's sizes: 524,288 records on side 1024 (density 1/2),
    /// commits of 64 writes, a `flush()` every 16 commits (the commit
    /// pipeline's depth) and a checkpoint every 1,024.
    pub fn full() -> Self {
        CommitSizes {
            side: 1024,
            shards: 4,
            records: 524_288,
            batch: 64,
            sync_every: 16,
            checkpoint_every: 1024,
            min_checkpoints: 3,
            stream: 1 << 20,
            query_side: 8,
            rss_commits: 4096,
        }
    }

    /// Sizes for the tests.
    pub fn tiny() -> Self {
        CommitSizes {
            side: 64,
            shards: 4,
            records: 2048,
            batch: 8,
            sync_every: 4,
            checkpoint_every: 16,
            min_checkpoints: 3,
            stream: 4096,
            query_side: 4,
            rss_commits: 64,
        }
    }
}

/// Length of a round: a run serves in rounds, each on a system built
/// afresh. How fast one built system commits depends on where its memory
/// and threads landed, which stays put for the system's life; pooling the
/// samples of several builds averages that draw out.
const ROUND: Duration = Duration::from_secs(5);

/// How many rounds of about [`ROUND`] a run's timed region splits into, at
/// least one.
fn rounds(cfg: &RunConfig) -> usize {
    ((cfg.seconds / ROUND.as_secs_f64()).round() as usize).max(1)
}

/// How long the client waits for the replica before failing the run.
const REPLICA_TIMEOUT: Duration = Duration::from_secs(30);

type Transactor = Engine<Onion2D, u64, 2>;

/// The system under test. Fields drop in order: replica, server, engine.
struct System {
    replica: Replica<Onion2D, u64, 2>,
    _server: Server,
    engine: Arc<Transactor>,
}

/// Waits, yielding, until the replica has applied `epoch`.
fn await_replica(replica: &Replica<Onion2D, u64, 2>, epoch: u64) -> Result<(), String> {
    let t0 = Instant::now();
    while replica.applied_epoch() < epoch {
        if t0.elapsed() > REPLICA_TIMEOUT {
            return Err(format!(
                "replica stuck at epoch {} of {epoch}: {:?}",
                replica.applied_epoch(),
                replica.status()
            ));
        }
        std::thread::yield_now();
    }
    Ok(())
}

/// Writes `records` to `dir` through the engine's write path, opens the
/// transactor there, and starts the server and a replica that catches up
/// from the write-ahead log.
fn start(
    dir: &std::path::Path,
    sizes: &CommitSizes,
    records: &[(Point<2>, u64)],
) -> Result<System, String> {
    let curve = Onion2D::new(sizes.side).map_err(err)?;
    {
        // One epoch for the whole load: with many small epochs, the epoch
        // versions alive at once, and so the peak RSS, follow thread
        // timing.
        let load = EngineConfig::with_epoch_ops(records.len());
        let loader =
            Transactor::open(dir, curve, DiskModel::ssd(), sizes.shards, load).map_err(err)?;
        for &(p, v) in records {
            loader.execute(Op::Insert(p, v)).map_err(err)?;
        }
        loader.flush().map_err(err)?;
    }
    let config = EngineConfig::with_epoch_ops(sizes.batch);
    let engine = Arc::new(
        Transactor::open(dir, curve, DiskModel::ssd(), sizes.shards, config).map_err(err)?,
    );
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").map_err(err)?;
    let addr = server.local_addr().to_string();
    let replica =
        Replica::start(&addr, curve, DiskModel::ssd(), sizes.shards, &config).map_err(err)?;
    await_replica(&replica, engine.epoch())?;
    Ok(System {
        replica,
        _server: server,
        engine,
    })
}

/// 50% updates and 50% deletes at uniform cells, which holds the density
/// of a half-full universe steady.
fn write_stream(sizes: &CommitSizes, rng: &mut StdRng) -> Vec<EngineOp> {
    (0..sizes.stream)
        .map(|i| {
            let p = model::uniform_cell(sizes.side, rng);
            if rng.random_range(0..2) == 0 {
                Op::Update(p, (sizes.records + i) as u64)
            } else {
                Op::Delete(p)
            }
        })
        .collect()
}

fn full_scan(side: u32) -> RectQuery<2> {
    RectQuery::new([0, 0], [side, side]).expect("the universe is a valid query")
}

fn encoded(records: &[Record<2, u64>]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_seq(records, &mut buf);
    buf
}

/// What the rounds of one run gather.
struct Gathered {
    out: Outcome,
    commits: Latencies,
    replicated: Latencies,
    reads: Latencies,
    queries: Latencies,
    /// Commit p50 of each round, in µs.
    round_p50s: Vec<f64>,
    layers: Layers,
    tracer: Tracer,
    windows: Windows,
    busy: Busy,
    rss: RssAt,
    checkpoint_times: Latencies,
    /// Durability barriers.
    syncs: Latencies,
    /// Commits over all rounds; indexes the write stream.
    commits_done: u64,
    /// Engine counters summed over the rounds: writes, epochs, flush
    /// failures, replica reconnects.
    writes: u64,
    epochs: u64,
    flush_failures: u64,
    reconnects: u64,
}

/// Runs `commit_replicated` on one CPU: rounds of about [`ROUND`],
/// each on a freshly built system whose outputs are checked when the round
/// ends.
///
/// # Errors
/// If set-up fails, or the replica stops following.
pub fn run(sizes: CommitSizes, cfg: &RunConfig) -> Result<Outcome, String> {
    // Every thread of the system starts from this one, so all share its
    // CPU, and a commit's hand-offs never wait for the other CPU to wake.
    let pinned = crate::host::OneCpu::pin();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let records = model::distinct_records(sizes.side, sizes.records, &mut rng);
    let writes = write_stream(&sizes, &mut rng);
    let build = |rep: usize| start(&cfg.data_dir.join(format!("commit{rep}")), &sizes, &records);
    let rounds = rounds(cfg);
    let round_len = cfg.duration() / rounds as u32;
    let mut g = Gathered {
        out: Outcome {
            correct: true,
            ..Outcome::default()
        },
        commits: Latencies::default(),
        replicated: Latencies::default(),
        reads: Latencies::default(),
        queries: Latencies::default(),
        round_p50s: Vec::new(),
        layers: Layers::default(),
        tracer: Tracer::new(Instant::now()),
        windows: Windows::new(cfg.trace),
        busy: Busy::default(),
        rss: RssAt::new(sizes.rss_commits),
        checkpoint_times: Latencies::default(),
        syncs: Latencies::default(),
        commits_done: 0,
        writes: 0,
        epochs: 0,
        flush_failures: 0,
        reconnects: 0,
    };
    let mut builds = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (system, setup) = timed_setup(|| build(round))?;
        builds.push(setup);
        let mut model = Grid::with(sizes.side, &records);
        let deadline = Instant::now() + round_len;
        serve(&system, &sizes, &writes, &mut model, cfg, deadline, &mut g)?;
        check(system, &sizes, &model, &mut g.out)?;
    }
    let mut out = report(cfg, &sizes, builds, build, g)?;
    out.notes.push(match pinned.cpu() {
        Some(cpu) => format!("every thread ran on CPU {cpu}"),
        None => "threads not pinned: the CPU set is unavailable".into(),
    });
    Ok(out)
}

/// Checks a round's outputs and removes its data directory: the replica
/// holds byte-for-byte what the transactor holds, both hold the model, and
/// everything acknowledged by the last flush survives a reopen.
fn check(
    system: System,
    sizes: &CommitSizes,
    model: &Grid,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = system
        .engine
        .data_dir()
        .ok_or("the transactor is not durable")?
        .to_path_buf();
    let all = full_scan(sizes.side);
    let (primary, _) = system.engine.query(&all).map_err(err)?;
    let replica = system.replica.query(&all).map_err(err)?;
    if encoded(&primary.records) != encoded(&replica.records) {
        out.mismatch(format!(
            "replica scan differs: {} vs {} records",
            replica.records.len(),
            primary.records.len()
        ));
    }
    if !model::same_records(&primary.records, &model.rect(&all)) {
        out.mismatch(format!(
            "transactor scan differs from the model: {} vs {} records",
            primary.records.len(),
            model.len()
        ));
    }
    drop(system);

    let curve = Onion2D::new(sizes.side).map_err(err)?;
    let reopened = Transactor::open(
        &dir,
        curve,
        DiskModel::ssd(),
        sizes.shards,
        EngineConfig::default(),
    )
    .map_err(err)?;
    let (recovered, _) = reopened.query(&all).map_err(err)?;
    if !model::same_records(&recovered.records, &model.rect(&all)) {
        out.mismatch(format!(
            "reopened engine holds {} records, model {}",
            recovered.records.len(),
            model.len()
        ));
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))
}

/// Turns what the rounds gathered into the run's metrics.
fn report<T>(
    cfg: &RunConfig,
    sizes: &CommitSizes,
    builds: Vec<super::Setup>,
    build: impl FnMut(usize) -> Result<T, String>,
    mut g: Gathered,
) -> Result<Outcome, String> {
    let mut out = std::mem::take(&mut g.out);
    let checkpoints = g.checkpoint_times.len();
    out.notes.push(format!(
        "{} commits in {} rounds, {checkpoints} checkpoints (median {:.1} ms)",
        g.commits_done,
        builds.len(),
        g.checkpoint_times.median_us() / 1e3,
    ));
    if cfg.trace {
        let mut layers = g.layers;
        layers.writes_per_epoch = g.writes as f64 / g.epochs.max(1) as f64;
        layers.flush_failures = g.flush_failures;
        layers.reconnects = g.reconnects;
        let times = finish_trace(cfg, std::slice::from_ref(&g.tracer), &mut out);
        layers.report(&times, &g.busy, &mut out);
        return Ok(out);
    }
    out.throughput("acknowledged writes", g.busy.ops_per_s(1));
    let p50s: Vec<String> = g.round_p50s.iter().map(|p| format!("{p:.0}")).collect();
    out.notes
        .push(format!("commit p50 (us) per round: {}", p50s.join(" ")));
    out.notes.push(format!(
        "flush failures {}, replica reconnects {}",
        g.flush_failures, g.reconnects
    ));
    // op is one commit: first admit until the epoch is applied. get is
    // the replica answering a get of a written cell after applying the
    // commit, also from the first admit.
    out.latencies(&[
        ("op_p50_us", "commit (op)", &g.commits),
        ("get_p50_us", "replica read-your-write (get)", &g.reads),
        ("query_p50_us", "replica read-back query", &g.queries),
    ]);
    out.note_latency("replica applied", &g.replicated);
    out.note_latency(
        &format!(
            "durability barrier (flush every {} commits)",
            sizes.sync_every
        ),
        &g.syncs,
    );
    finish_setup(cfg, &builds, g.rss.mb, build, &mut out)?;
    Ok(out)
}

/// One round's closed loop of commits, until `deadline` and the round's
/// share of the run's checkpoints.
fn serve(
    sys: &System,
    sizes: &CommitSizes,
    writes: &[EngineOp],
    model: &mut Grid,
    cfg: &RunConfig,
    deadline: Instant,
    g: &mut Gathered,
) -> Result<(), String> {
    let min_checkpoints = sizes.min_checkpoints.div_ceil(rounds(cfg) as u64);
    let (engine, replica) = (&*sys.engine, &sys.replica);
    let curve = *engine.table().curve();
    let before = engine.stats();
    let batches = (writes.len() / sizes.batch) as u64;
    let (mut points, mut keys, mut wal_buf) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_commits = Latencies::default();
    let (mut n, mut checkpoints) = (0u64, 0u64);
    // The log's length at the last durability barrier, in traced runs.
    let mut wal_at_barrier: Option<u64> = None;
    loop {
        let c = g.commits_done;
        g.rss.tick(c);
        let t0 = Instant::now();
        if t0 >= deadline && checkpoints >= min_checkpoints && g.rss.reached(c) {
            break;
        }
        let (out, layers, tracer) = (&mut g.out, &mut g.layers, &mut g.tracer);
        let start = (c % batches) as usize * sizes.batch;
        let batch = &writes[start..start + sizes.batch];
        let traced = g.windows.traced(t0);
        let mut root = None;
        if traced {
            // Layer calls the engine makes internally, repeated here on
            // the same inputs so their cost shows as spans of their own.
            points.clear();
            points.extend(batch.iter().filter_map(write_point));
            let ops: Vec<BatchOp<2, u64>> = batch.iter().filter_map(batch_op).collect();
            let r = tracer.begin("op", c, None);
            tracer.child("curves.keying", c, r, || {
                keys.clear();
                curve.fill_indices(&points, &mut keys);
            });
            layers.keyed += points.len() as u64;
            tracer.child("wal.encode", c, r, || {
                wal_buf.clear();
                encode_seq(&ops, &mut wal_buf);
            });
            root = Some(r);
        }
        let epoch_before = engine.epoch();
        let t_admit = Instant::now();
        let (fill, rest) = batch.split_last().expect("commits are not empty");
        let mut admitted = 0u64;
        let mut admit = |w: &EngineOp| {
            out.attempted += 1;
            match engine.execute(w.clone()) {
                Ok(Reply::Admitted(_)) => admitted += 1,
                Ok(other) => out.mismatch(format!("write answered {other:?}")),
                Err(_) => out.failed += 1,
            }
        };
        match root {
            Some(r) => {
                tracer.child("engine.admit", c, r, || rest.iter().for_each(&mut admit));
                // The write that fills the epoch: its admission stages,
                // logs and applies the epoch, and leaves the fsync to the
                // write-ahead log's sync thread.
                tracer.child("engine.apply", c, r, || admit(fill));
                layers.admitted += rest.len() as u64;
                let st = engine.stats();
                layers
                    .durable_lag
                    .add((st.epochs - st.durable_epochs) as f64);
            }
            None => {
                rest.iter().for_each(&mut admit);
                admit(fill);
            }
        }
        // Should the epoch not have been applied on admission (a failed
        // automatic flush leaves it pending), flush it explicitly.
        let flushed = if engine.epoch() > epoch_before {
            Ok(0)
        } else {
            engine.flush()
        };
        let commit_ns = ns_since(t_admit);
        if flushed.is_err() {
            // Admitted but never applied: the commit failed.
            out.failed += admitted;
            admitted = 0;
        }
        let epoch = engine.epoch();
        if traced {
            layers
                .lag_at_ack
                .add(epoch.saturating_sub(replica.applied_epoch()) as f64);
        }
        let waited = match root {
            Some(r) => tracer.child("replica.wait", c, r, || await_replica(replica, epoch)),
            None => await_replica(replica, epoch),
        };
        waited?;
        let replica_ns = ns_since(t_admit);
        // Read one written cell back from the replica, and a small square
        // around it.
        let probe = write_point(&batch[0]).expect("writes name a cell");
        out.attempted += 2;
        let got = match root {
            Some(r) => tracer.child("replica.get", c, r, || replica.get(probe)),
            None => replica.get(probe),
        };
        let read_ns = ns_since(t_admit);
        let q = model::square_around(sizes.side, probe, sizes.query_side);
        let t_query = Instant::now();
        let found = match root {
            Some(r) => tracer.child("replica.query", c, r, || replica.query(&q)),
            None => replica.query(&q),
        };
        let query_ns = ns_since(t_query);
        if (n + 1).is_multiple_of(sizes.sync_every) {
            // The durability barrier: returns once every epoch so far is
            // fsynced.
            out.attempted += 1;
            let t_sync = Instant::now();
            let synced = match root {
                Some(r) => tracer.child("engine.flush", c, r, || engine.flush()),
                None => engine.flush(),
            };
            if !traced {
                g.syncs.push_ns(ns_since(t_sync));
            }
            if synced.is_err() {
                out.failed += 1;
            }
            if cfg.trace {
                // The log is appended to as it syncs, so its growth shows
                // between barriers.
                let len = engine.wal_len().unwrap_or(0);
                if let Some(prev) = wal_at_barrier.filter(|&p| p <= len) {
                    let writes = sizes.sync_every * sizes.batch as u64;
                    layers
                        .wal_bytes_per_write
                        .add((len - prev) as f64 / writes as f64);
                }
                wal_at_barrier = Some(len);
            }
        }
        // Throughput leaves checkpoints out: the few in a run would land in
        // traced or untraced windows by chance.
        g.busy.add(traced, admitted, ns_since(t0));
        if (n + 1).is_multiple_of(sizes.checkpoint_every) {
            // Checkpoints are rare: a traced run records every one, in
            // whichever window it falls.
            let span = cfg
                .trace
                .then(|| tracer.begin("engine.checkpoint", c, root));
            let t_cp = Instant::now();
            let cp = engine.checkpoint();
            g.checkpoint_times.push_ns(ns_since(t_cp));
            if let Some(s) = span {
                tracer.end(s);
            }
            checkpoints += 1;
            match cp {
                Ok(_) if cfg.trace => {
                    if let Some(bytes) = engine
                        .data_dir()
                        .and_then(|d| std::fs::metadata(d.join(sfc_engine::SNAPSHOT_FILE)).ok())
                        .map(|m| m.len())
                    {
                        layers
                            .snapshot_bytes_per_record
                            .add(bytes as f64 / engine.table().len().max(1) as f64);
                    }
                }
                Ok(_) => {}
                Err(_) => out.failed += 1,
            }
            // The checkpoint truncated the log.
            wal_at_barrier = engine.wal_len();
        }
        if let Some(r) = root {
            tracer.end(r);
        }
        if !traced && flushed.is_ok() {
            round_commits.push_ns(commit_ns);
            g.replicated.push_ns(replica_ns);
            g.reads.push_ns(read_ns);
            g.queries.push_ns(query_ns);
        }

        // Checks, outside the timed region.
        if flushed.is_ok() {
            for w in batch {
                model.apply(w);
            }
        }
        match got {
            Ok(v) if v == model.get(probe) => {}
            Ok(v) => out.mismatch(format!(
                "replica get {probe:?}: {v:?}, model {:?}",
                model.get(probe)
            )),
            Err(_) => out.failed += 1,
        }
        match found {
            Ok(r) if model::same_records(&r.records, &model.rect(&q)) => {}
            Ok(r) => out.mismatch(format!("replica query {q:?}: {} records", r.records.len())),
            Err(_) => out.failed += 1,
        }
        g.commits_done += 1;
        n += 1;
    }
    // Make the round's last epochs durable before the checks reopen its
    // directory.
    barrier(engine, &mut g.out);
    let after = engine.stats();
    g.writes += after.writes - before.writes;
    g.epochs += after.epochs - before.epochs;
    g.flush_failures += after.flush_failures - before.flush_failures;
    g.reconnects += replica.reconnects();
    if !round_commits.is_empty() {
        g.round_p50s.push(round_commits.median_us());
    }
    g.commits.merge(round_commits);
    Ok(())
}

/// A durability barrier outside the timed loop.
fn barrier(engine: &Transactor, out: &mut Outcome) {
    out.attempted += 1;
    if engine.flush().is_err() {
        out.failed += 1;
    }
}

fn write_point(op: &EngineOp) -> Option<Point<2>> {
    match *op {
        Op::Update(p, _) | Op::Insert(p, _) | Op::Delete(p) => Some(p),
        _ => None,
    }
}

fn batch_op(op: &EngineOp) -> Option<BatchOp<2, u64>> {
    match *op {
        Op::Update(p, v) => Some(BatchOp::Update(p, v)),
        Op::Insert(p, v) => Some(BatchOp::Insert(p, v)),
        Op::Delete(p) => Some(BatchOp::Delete(p)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_split_into_rounds_of_about_five_seconds() {
        let cfg = |seconds| RunConfig {
            seed: 1,
            seconds,
            trace: false,
            data_dir: Default::default(),
            trace_file: Default::default(),
        };
        assert_eq!(rounds(&cfg(0.6)), 1);
        assert_eq!(rounds(&cfg(10.0)), 2);
        assert_eq!(rounds(&cfg(25.0)), 5);
        assert_eq!(rounds(&cfg(27.4)), 5);
    }
}
