//! `scan_mem`, `scan_disk` and `scan_disk_exact`: the paper's workload,
//! square and near-square range queries over uniform records, served from
//! memory or from file-backed segments larger than the buffer pool.

use super::{
    err, finish_setup, finish_trace, ns_since, timed_setup, Busy, Layers, RssAt, RunConfig,
    Windows, TIMELINE_BLOCK,
};
use crate::model::{self, EngineOp, Grid};
use crate::report::Outcome;
use crate::stats::{Latencies, Timeline};
use crate::trace::Tracer;
use onion_core::{Onion2D, SpaceFillingCurve};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_clustering::{cluster_ranges, RectQuery};
use sfc_engine::{Engine, EngineConfig, Op, Reply};
use sfc_index::{
    Backend, DiskModel, FileBackend, PlanStrategy, QueryOptions, QueryPlan, QueryResult, Record,
    ShardedTable, StoreConfig,
};
use std::time::Instant;

/// Where the records are served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Storage {
    /// In-memory shards built by `ShardedTable::build` (`scan_mem`).
    Memory,
    /// File-backed segments opened by `Engine::open_stored` (`scan_disk`,
    /// `scan_disk_exact`).
    Disk,
}

/// How rect queries choose their scan ranges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ranges {
    /// `Engine::query`: the engine's planner (`scan_mem`, `scan_disk`).
    Planned,
    /// The exact decomposition, no planner: `query_rect` with
    /// `QueryOptions::exact()` on the engine's table (`scan_disk_exact`).
    Exact,
}

/// Sizes of a scan workload.
#[derive(Clone, Copy, Debug)]
pub struct ScanSizes {
    /// Universe side.
    pub side: u32,
    /// Shards.
    pub shards: usize,
    /// Records loaded, at distinct uniform cells.
    pub records: usize,
    /// Ops generated; the timed loop cycles through them.
    pub stream: usize,
    /// Query sides are log-uniform in `q_min..=q_max`.
    pub q_min: u32,
    /// See `q_min`.
    pub q_max: u32,
    /// Every `check_every`-th query is compared with the model.
    pub check_every: u64,
    /// Page store settings of the disk workloads.
    pub store: StoreConfig,
    /// Ops after which the peak RSS is read. An epoch applies every 1,024
    /// updates, about every 20,480 ops; reading halfway between two of
    /// them keeps the seed from deciding whether one has just applied.
    pub rss_ops: u64,
}

impl ScanSizes {
    /// The benchmark's sizes: 262,144 records on side 1024 in 4 shards;
    /// on disk, about 400 pages of 4 KiB per shard against a 64-page pool.
    pub fn full() -> Self {
        ScanSizes {
            side: 1024,
            shards: 4,
            records: 262_144,
            stream: 1 << 18,
            q_min: 8,
            q_max: 128,
            check_every: 64,
            store: StoreConfig {
                page_size: 4096,
                pool_pages: 64,
            },
            rss_ops: 50_000,
        }
    }

    /// Sizes for the tests: every query checked.
    pub fn tiny() -> Self {
        ScanSizes {
            side: 64,
            shards: 4,
            records: 1024,
            stream: 4096,
            q_min: 2,
            q_max: 16,
            check_every: 1,
            store: StoreConfig {
                page_size: 512,
                pool_pages: 4,
            },
            rss_ops: 100,
        }
    }
}

/// 85% queries, 10% gets, 5% updates at uniform cells.
fn op_stream(s: &ScanSizes, rng: &mut StdRng) -> Vec<EngineOp> {
    (0..s.stream)
        .map(|i| match rng.random_range(0..100) {
            0..=84 => Op::Query(model::near_square(s.side, s.q_min, s.q_max, rng)),
            85..=94 => Op::Get(model::uniform_cell(s.side, rng)),
            _ => Op::Update(model::uniform_cell(s.side, rng), (s.records + i) as u64),
        })
        .collect()
}

/// Runs `scan_mem`, `scan_disk` or `scan_disk_exact`.
///
/// # Errors
/// If set-up fails.
pub fn run(
    storage: Storage,
    ranges: Ranges,
    sizes: ScanSizes,
    cfg: &RunConfig,
) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let records = model::distinct_records(sizes.side, sizes.records, &mut rng);
    let ops = op_stream(&sizes, &mut rng);
    let curve = Onion2D::new(sizes.side).map_err(err)?;
    match storage {
        Storage::Memory => {
            let build = |_| {
                let table =
                    ShardedTable::build(curve, records.clone(), DiskModel::ssd(), sizes.shards)
                        .map_err(err)?;
                Ok(Engine::new(table, EngineConfig::default()))
            };
            let (engine, first) = timed_setup(|| build(0))?;
            let (mut out, rss) = serve(&engine, ranges, &sizes, &records, &ops, cfg);
            drop(engine);
            finish_setup(cfg, &[first], rss, build, &mut out)?;
            Ok(out)
        }
        Storage::Disk => {
            // Records are written through a durable engine and
            // checkpointed, then served from segment files built on open.
            let build = |rep: usize| {
                let dir = cfg.data_dir.join(format!("scan{rep}"));
                {
                    // One epoch for the whole load: with many, the epoch
                    // versions alive at once, and so the peak RSS, follow
                    // thread timing.
                    let loader: Engine<Onion2D, u64, 2> = Engine::open(
                        &dir,
                        curve,
                        DiskModel::ssd(),
                        sizes.shards,
                        EngineConfig::with_epoch_ops(records.len()),
                    )
                    .map_err(err)?;
                    for &(p, v) in &records {
                        loader.execute(Op::Insert(p, v)).map_err(err)?;
                    }
                    loader.flush().map_err(err)?;
                    loader.checkpoint().map_err(err)?;
                }
                Engine::<Onion2D, u64, 2, FileBackend<Record<2, u64>>>::open_stored(
                    &dir,
                    curve,
                    DiskModel::ssd(),
                    sizes.shards,
                    sizes.store,
                    EngineConfig::default(),
                )
                .map_err(err)
            };
            let (engine, first) = timed_setup(|| build(0))?;
            let (mut out, rss) = serve(&engine, ranges, &sizes, &records, &ops, cfg);
            drop(engine);
            finish_setup(cfg, &[first], rss, build, &mut out)?;
            Ok(out)
        }
    }
}

/// Index of a plan's strategy in [`Layers::strategies`].
fn strategy_index(plan: &QueryPlan) -> usize {
    match plan.strategy() {
        PlanStrategy::FullDecomposition => 0,
        PlanStrategy::Coalesced => 1,
        PlanStrategy::SingleRange => 2,
    }
}

/// Runs rect query `q` as `ranges` says, returning the plan of a planned
/// query.
fn query<B>(
    engine: &Engine<Onion2D, u64, 2, B>,
    ranges: Ranges,
    q: &RectQuery<2>,
) -> Result<(QueryResult<2, u64>, Option<QueryPlan>), onion_core::SfcError>
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    match ranges {
        Ranges::Planned => engine.query(q).map(|(r, plan)| (r, Some(plan))),
        Ranges::Exact => engine
            .table()
            .query_rect(q, &QueryOptions::exact())
            .map(|r| (r, None)),
    }
}

/// The closed loop: one client, one op at a time, until the deadline and
/// at least `sizes.rss_ops` ops. Returns the outcome and the peak RSS
/// after `sizes.rss_ops` ops.
fn serve<B>(
    engine: &Engine<Onion2D, u64, 2, B>,
    ranges: Ranges,
    sizes: &ScanSizes,
    records: &[(onion_core::Point<2>, u64)],
    ops: &[EngineOp],
    cfg: &RunConfig,
) -> (Outcome, Option<f64>)
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    let curve = *engine.table().curve();
    let parts = engine.table().partitions().to_vec();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    // `applied` is what rect queries see (applied epochs); `latest` adds
    // the pending writes point gets see.
    let mut applied = Grid::with(sizes.side, records);
    let mut latest = applied.clone();
    let mut pending: Vec<EngineOp> = Vec::new();
    let (mut all, mut queries, mut gets) = (
        Latencies::default(),
        Latencies::default(),
        Latencies::default(),
    );
    let mut strategies = [0u64; 3];
    let mut timeline = Timeline::new(Instant::now(), TIMELINE_BLOCK);
    let mut layers = Layers::default();
    let mut tracer = Tracer::new(Instant::now());
    let windows = Windows::new(cfg.trace);
    let mut busy = Busy::default();
    let mut rss = RssAt::new(sizes.rss_ops);
    let mut checked_queries = 0u64;
    let deadline = Instant::now() + cfg.duration();
    let mut i = 0usize;
    loop {
        rss.tick(i as u64);
        let t0 = Instant::now();
        if t0 >= deadline && rss.reached(i as u64) {
            break;
        }
        let op = &ops[i % ops.len()];
        let traced = windows.traced(t0);
        let id = i as u64;
        i += 1;
        out.attempted += 1;
        match op {
            Op::Query(q) => {
                let result = if traced {
                    let root = tracer.begin("op", id, None);
                    let exact = tracer.child("clustering.decompose", id, root, || {
                        cluster_ranges(&curve, q)
                    });
                    let explained = (ranges == Ranges::Planned)
                        .then(|| tracer.child("plan.explain", id, root, || engine.explain(q)));
                    let result = tracer.child("scan.query", id, root, || query(engine, ranges, q));
                    tracer.end(root);
                    // Explain fails exactly when the query does: count the
                    // op once.
                    if explained.is_some_and(|e| e.is_err()) && result.is_ok() {
                        out.failed += 1;
                    }
                    if let Ok((r, plan)) = &result {
                        count_query(&mut layers, &curve, &parts, q, &exact, plan.as_ref(), &r.io);
                    }
                    result
                } else {
                    query(engine, ranges, q)
                };
                let ns = ns_since(t0);
                busy.add(traced, 1, ns);
                match result {
                    Ok((r, plan)) => {
                        if !traced {
                            all.push_ns(ns);
                            queries.push_ns(ns);
                            timeline.push(t0, ns);
                        }
                        if let Some(plan) = &plan {
                            strategies[strategy_index(plan)] += 1;
                        }
                        checked_queries += 1;
                        if checked_queries.is_multiple_of(sizes.check_every)
                            && !model::same_records(&r.records, &applied.rect(q))
                        {
                            out.mismatch(format!("query {q:?}: {} records", r.records.len()));
                        }
                    }
                    Err(_) => out.failed += 1,
                }
            }
            Op::Get(p) => {
                let result = if traced {
                    let root = tracer.begin("op", id, None);
                    let r = tracer.child("engine.get", id, root, || engine.execute(op.clone()));
                    tracer.end(root);
                    r
                } else {
                    engine.execute(op.clone())
                };
                let ns = ns_since(t0);
                busy.add(traced, 1, ns);
                match result {
                    Ok(Reply::Value(v)) => {
                        if !traced {
                            all.push_ns(ns);
                            gets.push_ns(ns);
                        }
                        if v != latest.get(*p) {
                            out.mismatch(format!("get {p:?}: {v:?}, model {:?}", latest.get(*p)));
                        }
                    }
                    Ok(other) => out.mismatch(format!("get {p:?} answered {other:?}")),
                    Err(_) => out.failed += 1,
                }
            }
            _ => {
                let result = if traced {
                    let root = tracer.begin("op", id, None);
                    let r = tracer.child("engine.admit", id, root, || engine.execute(op.clone()));
                    tracer.end(root);
                    layers.admitted += 1;
                    r
                } else {
                    engine.execute(op.clone())
                };
                let ns = ns_since(t0);
                busy.add(traced, 1, ns);
                match result {
                    Ok(Reply::Admitted(_)) => {
                        if !traced {
                            all.push_ns(ns);
                        }
                        latest.apply(op);
                        pending.push(op.clone());
                        // A single client: an empty log means the write's
                        // epoch (auto-flushed inside the admit) applied.
                        if engine.pending() == 0 {
                            for w in pending.drain(..) {
                                applied.apply(&w);
                            }
                        }
                    }
                    Ok(other) => out.mismatch(format!("write answered {other:?}")),
                    Err(_) => out.failed += 1,
                }
            }
        }
    }
    let plans = strategies.iter().sum::<u64>().max(1) as f64;
    let measured = engine.planner().measured_costs();
    match ranges {
        Ranges::Exact => out
            .notes
            .push("rect queries scan the exact decomposition, unplanned".into()),
        Ranges::Planned => out.notes.push(format!(
            "plan regime: full {:.3}, coalesced {:.3}, single-range {:.3} of {} queries; \
             measured (seek_us, page_us) {:?}",
            strategies[0] as f64 / plans,
            strategies[1] as f64 / plans,
            strategies[2] as f64 / plans,
            strategies.iter().sum::<u64>(),
            measured
        )),
    }
    out.notes.push(format!(
        "query p50 (us) per {} s: {}",
        TIMELINE_BLOCK.as_secs(),
        timeline.medians()
    ));
    if cfg.trace {
        layers.measured = measured;
        let times = finish_trace(cfg, std::slice::from_ref(&tracer), &mut out);
        layers.report(&times, &busy, &mut out);
        return (out, rss.mb);
    }
    out.throughput("ops", busy.ops_per_s(1));
    out.latencies(&[
        ("op_p50_us", "op", &all),
        ("query_p50_us", "query", &queries),
        ("get_p50_us", "get", &gets),
    ]);
    (out, rss.mb)
}

/// Per-layer counts of one traced query: `exact` is its exact
/// decomposition, `plan` the planner's plan of a planned query.
fn count_query(
    layers: &mut Layers,
    curve: &Onion2D,
    parts: &[sfc_index::Partition],
    q: &RectQuery<2>,
    exact: &[(u64, u64)],
    plan: Option<&QueryPlan>,
    io: &sfc_index::IoStats,
) {
    let [l1, l2] = q.side_lengths();
    let side = curve.universe().side();
    let clusters = exact.len() as f64;
    layers.clusters.add(clusters);
    layers
        .eta
        .add(clusters / sfc_theory::general_lower_bound_2d(side, l1, l2));
    // An unplanned query scans its exact decomposition and leaves the
    // planner's metrics at zero.
    let scanned = match plan {
        Some(plan) => {
            layers.strategies[strategy_index(plan)] += 1;
            layers.plan_ranges.add(plan.ranges.len() as f64);
            let cells = q.volume() as f64;
            layers
                .read_amp
                .add((cells + plan.extra_cells as f64) / cells);
            &plan.ranges[..]
        }
        None => exact,
    };
    let touched = parts
        .iter()
        .filter(|p| scanned.iter().any(|&(a, b)| a <= p.hi && b >= p.lo))
        .count();
    layers.fanout.add(touched as f64);
    layers.seeks.add(io.seeks as f64);
    layers.pages.add(io.pages as f64);
    layers.records.add(io.entries as f64);
    layers.real_reads.add(io.real_reads as f64);
    layers.real_seeks.add(io.real_seeks as f64);
    layers.pool_hits += io.cache_hits;
    layers.pool_misses += io.pages;
}
