//! Engine-level properties of the layered storage engine:
//!
//! * the table layer is `Send + Sync` (checked at compile time) and
//!   actually serves concurrent readers;
//! * insert/delete sequences preserve every B+-tree structural invariant
//!   and agree with a naive sorted-multiset model;
//! * sharded queries return exactly the brute-force answer and the
//!   one-shard table's answer for **every** registry curve, across shard
//!   counts, backends, and write traffic.

use onion_core::{Point, SpaceFillingCurve};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc_baselines::{curve_2d, CURVE_NAMES};
use sfc_clustering::{RectQuery, ScratchPool};
use sfc_index::{
    BPlusTree, BatchOp, DiskModel, MemoryBackend, PagedBackend, QueryOptions, Record, ShardedTable,
};
use sfc_workloads::zipf_points;
use std::collections::HashMap;

/// Brute-force model of a table's contents: per cell, the stored payloads
/// in storage order — inserts append, `update` rewrites the newest copy
/// (inserting into a vacant cell), `delete` removes the oldest.
#[derive(Default)]
struct Model(HashMap<[u32; 2], Vec<u64>>);

impl Model {
    fn loaded(records: &[(Point<2>, u64)]) -> Self {
        let mut model = Model::default();
        for &(p, v) in records {
            model.apply(BatchOp::Insert(p, v));
        }
        model
    }

    /// Applies one write, returning the displaced payload.
    fn apply(&mut self, op: BatchOp<2, u64>) -> Option<u64> {
        let vals = self.0.entry(op.point().0).or_default();
        match op {
            BatchOp::Insert(_, v) => {
                vals.push(v);
                None
            }
            BatchOp::Update(_, v) => match vals.last_mut() {
                Some(old) => Some(std::mem::replace(old, v)),
                None => {
                    vals.push(v);
                    None
                }
            },
            BatchOp::Delete(_) => (!vals.is_empty()).then(|| vals.remove(0)),
        }
    }

    fn len(&self) -> usize {
        self.0.values().map(Vec::len).sum()
    }

    /// The records inside `q`, in `curve`-key order: what a table over
    /// `curve` must return for `q`.
    fn scan(&self, curve: &impl SpaceFillingCurve<2>, q: &RectQuery<2>) -> Vec<Record<2, u64>> {
        let mut cells: Vec<(u64, [u32; 2])> = self
            .0
            .keys()
            .filter(|&&c| q.contains(Point::new(c)))
            .map(|&c| (curve.index_of(Point::new(c)).unwrap(), c))
            .collect();
        cells.sort_unstable();
        cells
            .into_iter()
            .flat_map(|(_, c)| {
                self.0[&c].iter().map(move |&value| Record {
                    point: Point::new(c),
                    value,
                })
            })
            .collect()
    }
}

/// Compile-time `Send + Sync` assertions: the engine's whole read path must
/// be shareable across threads. (This is the satellite guarantee that the
/// old `RefCell`-scratch table could not provide.)
#[test]
fn engine_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedTable<onion_core::Onion2D, u64, 2>>();
    assert_send_sync::<ShardedTable<onion_core::Onion2D, u64, 2, PagedBackend<Record<2, u64>>>>();
    assert_send_sync::<MemoryBackend<u64>>();
    assert_send_sync::<PagedBackend<u64>>();
    assert_send_sync::<BPlusTree<u64>>();
    assert_send_sync::<ScratchPool<2>>();
    // Registry curves are handed out thread-safe, so dyn-curve tables are
    // shareable too.
    assert_send_sync::<ShardedTable<sfc_baselines::DynCurve<2>, u64, 2>>();
}

/// Concurrent readers on one shared table: every thread sees the full,
/// correct result set.
#[test]
fn concurrent_queries_on_shared_table() {
    let side = 32u32;
    let mut records = Vec::new();
    for x in 0..side {
        for y in 0..side {
            records.push((Point::new([x, y]), x * 1000 + y));
        }
    }
    let table = ShardedTable::build(
        onion_core::Onion2D::new(side).unwrap(),
        records,
        DiskModel::ssd(),
        1,
    )
    .unwrap();
    let queries = [
        RectQuery::new([0, 0], [32, 32]).unwrap(),
        RectQuery::new([3, 5], [9, 11]).unwrap(),
        RectQuery::new([20, 0], [12, 32]).unwrap(),
        RectQuery::new([31, 31], [1, 1]).unwrap(),
    ];
    let expected: Vec<Vec<Record<2, u32>>> = queries
        .iter()
        .map(|q| {
            table
                .query_rect(q, &QueryOptions::default())
                .unwrap()
                .records
        })
        .collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for (q, expect) in queries.iter().zip(&expected) {
                    let got = table
                        .query_rect(q, &QueryOptions::default())
                        .unwrap()
                        .records;
                    assert_eq!(&got, expect);
                }
            });
        }
    });
}

/// Paged sharded tables return the brute-force rows (and the one-shard
/// memory table's rows) for every registry curve — the backend changes the
/// cost model, the shards change the execution, neither may change the
/// answers.
#[test]
fn paged_sharded_equals_single_for_every_registry_curve() {
    let side = 16u32;
    let mut rng = StdRng::seed_from_u64(7);
    let records: Vec<(Point<2>, u64)> = zipf_points::<2, _>(side, 400, 0.8, &mut rng)
        .points
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let model = DiskModel {
        page_size: 16,
        seek_us: 8_000.0,
        transfer_us: 100.0,
    };
    let queries = [
        RectQuery::new([0, 0], [side, side]).unwrap(),
        RectQuery::new([3, 5], [9, 8]).unwrap(),
        RectQuery::new([0, 14], [16, 2]).unwrap(),
    ];
    let truth = Model::loaded(&records);
    for name in CURVE_NAMES {
        let curve = curve_2d(name, side).unwrap();
        let single =
            ShardedTable::build(curve_2d(name, side).unwrap(), records.clone(), model, 1).unwrap();
        let paged_sharded =
            ShardedTable::build_paged(curve_2d(name, side).unwrap(), records.clone(), model, 4, 32)
                .unwrap();
        for q in &queries {
            let expect = truth.scan(&curve, q);
            assert_eq!(
                single
                    .query_rect(q, &QueryOptions::default())
                    .unwrap()
                    .records,
                expect,
                "{name} one shard {q:?}"
            );
            // Cold and warm pools must both return the exact rows.
            let cold = paged_sharded
                .query_rect(q, &QueryOptions::default())
                .unwrap();
            let warm = paged_sharded
                .query_rect(q, &QueryOptions::default())
                .unwrap();
            assert_eq!(cold.records, expect, "{name} cold {q:?}");
            assert_eq!(warm.records, expect, "{name} warm {q:?}");
            assert!(
                warm.io.cache_hits >= cold.io.cache_hits,
                "{name} warm run hits the pools at least as often {q:?}"
            );
        }
    }
}

proptest! {
    /// Random insert/delete interleavings preserve the B+-tree invariants
    /// and match a sorted-multiset model (stable among duplicates: inserts
    /// append after equal keys, removals take the first).
    #[test]
    fn btree_writes_preserve_invariants(seed in any::<u64>(), capacity in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree: BPlusTree<u32> = BPlusTree::new(capacity);
        let mut model: Vec<(u64, u32)> = Vec::new();
        for step in 0..400u32 {
            let key = u64::from(rng.random_range(0..48u32)); // dense: duplicates happen
            if rng.random_range(0..3u32) == 0 {
                let got = tree.remove(key);
                let expect = model
                    .iter()
                    .position(|&(k, _)| k == key)
                    .map(|i| model.remove(i).1);
                prop_assert_eq!(got, expect, "remove {} at step {}", key, step);
            } else {
                tree.insert(key, step);
                let pos = model.partition_point(|&(k, _)| k <= key);
                model.insert(pos, (key, step));
            }
        }
        tree.check_invariants().map_err(|e| format!("invariants: {e}"))?;
        prop_assert_eq!(tree.len(), model.len());
        let got: Vec<(u64, u32)> = tree.iter().map(|(k, &v)| (k, v)).collect();
        prop_assert_eq!(got, model);
    }

    /// For every registry curve: a sharded table answers rectangle queries
    /// exactly like the brute-force filter and the one-shard table, across
    /// shard counts — including on Zipf-skewed data where shards are badly
    /// imbalanced.
    #[test]
    fn sharded_equals_single_for_every_registry_curve(
        seed in any::<u64>(),
        shards in 2usize..7,
    ) {
        let side = 16u32; // power of two: every registry curve accepts it
        let mut rng = StdRng::seed_from_u64(seed);
        let points = zipf_points::<2, _>(side, 300, 0.8, &mut rng).points;
        let records: Vec<(Point<2>, u64)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let truth = Model::loaded(&records);
        for name in CURVE_NAMES {
            let curve = curve_2d(name, side).unwrap();
            let single = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                records.clone(),
                DiskModel::hdd(),
                1,
            )
            .unwrap();
            let sharded = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                records.clone(),
                DiskModel::hdd(),
                shards,
            )
            .unwrap();
            prop_assert_eq!(sharded.len(), single.len());
            let queries = [
                RectQuery::new([0, 0], [side, side]).unwrap(),
                RectQuery::from_corners(
                    Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                    Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                ),
                RectQuery::new([0, 0], [1, 1]).unwrap(),
            ];
            for q in &queries {
                let expect = truth.scan(&curve, q);
                let a = single.query_rect(q, &QueryOptions::default()).unwrap();
                let b = sharded.query_rect(q, &QueryOptions::default()).unwrap();
                prop_assert_eq!(&a.records, &expect, "{} one shard {:?}", name, q);
                prop_assert_eq!(
                    &b.records, &expect,
                    "{} shards={} {:?}", name, shards, q
                );
                prop_assert_eq!(a.io.entries, b.io.entries);
            }
            let batch = sharded.query_rect_batch(&queries).unwrap();
            for (q, res) in queries.iter().zip(&batch) {
                let expect = truth.scan(&curve, q);
                prop_assert_eq!(&res.records, &expect, "batch {} {:?}", name, q);
            }
        }
    }

    /// Write traffic routes identically at every shard count for every
    /// registry curve: after the same inserts/deletes/updates, the sharded
    /// table, the one-shard table and the model stay equal.
    #[test]
    fn writes_keep_sharded_and_single_in_sync(seed in any::<u64>(), shards in 2usize..6) {
        let side = 16u32;
        for name in CURVE_NAMES {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model = Model::default();
            let mut single: ShardedTable<_, u64, 2> = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                Vec::new(),
                DiskModel::ssd(),
                1,
            )
            .unwrap();
            let mut sharded: ShardedTable<_, u64, 2> = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                Vec::new(),
                DiskModel::ssd(),
                shards,
            )
            .unwrap();
            for step in 0..200u64 {
                let p = Point::new([rng.random_range(0..side), rng.random_range(0..side)]);
                match rng.random_range(0..4u32) {
                    0 => {
                        let expect = model.apply(BatchOp::Delete(p));
                        let got = (single.delete(p), sharded.delete(p));
                        prop_assert_eq!(got, (Ok(expect), Ok(expect)), "{} delete", name);
                    }
                    1 => {
                        let expect = model.apply(BatchOp::Update(p, step));
                        let got = (single.update(p, step), sharded.update(p, step));
                        prop_assert_eq!(got, (Ok(expect), Ok(expect)), "{} update", name);
                    }
                    _ => {
                        model.apply(BatchOp::Insert(p, step));
                        single.insert(p, step).unwrap();
                        sharded.insert(p, step).unwrap();
                    }
                }
            }
            prop_assert_eq!(single.len(), model.len());
            prop_assert_eq!(sharded.len(), model.len());
            let q = RectQuery::new([0, 0], [side, side]).unwrap();
            let expect = model.scan(&curve_2d(name, side).unwrap(), &q);
            prop_assert_eq!(
                &single.query_rect(&q, &QueryOptions::default()).unwrap().records,
                &expect,
                "{}", name
            );
            prop_assert_eq!(
                &sharded.query_rect(&q, &QueryOptions::default()).unwrap().records,
                &expect,
                "{}", name
            );
        }
    }

    /// The paged backend changes the cost accounting, never the answers:
    /// query results match the memory backend's, and replaying a workload
    /// converts transfers into cache hits without touching results.
    #[test]
    fn paged_backend_answers_match_memory_backend(seed in any::<u64>()) {
        let side = 32u32;
        let mut rng = StdRng::seed_from_u64(seed);
        let points = zipf_points::<2, _>(side, 500, 0.6, &mut rng).points;
        let records: Vec<(Point<2>, u64)> = points
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, i as u64))
            .collect();
        let model = DiskModel { page_size: 32, seek_us: 8_000.0, transfer_us: 100.0 };
        let truth = Model::loaded(&records);
        let curve = curve_2d("onion", side).unwrap();
        let mem = ShardedTable::build(
            curve_2d("onion", side).unwrap(),
            records.clone(),
            model,
            1,
        )
        .unwrap();
        let paged = ShardedTable::build_paged(
            curve_2d("onion", side).unwrap(),
            records,
            model,
            1,
            128,
        )
        .unwrap();
        for _ in 0..8 {
            let q = RectQuery::from_corners(
                Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
                Point::new([rng.random_range(0..side), rng.random_range(0..side)]),
            );
            let a = mem.query_rect(&q, &QueryOptions::default()).unwrap();
            let cold = paged.query_rect(&q, &QueryOptions::default()).unwrap();
            let warm = paged.query_rect(&q, &QueryOptions::default()).unwrap();
            prop_assert_eq!(&a.records, &truth.scan(&curve, &q), "{:?}", q);
            prop_assert_eq!(&a.records, &cold.records, "{:?}", q);
            prop_assert_eq!(&a.records, &warm.records, "{:?}", q);
            prop_assert_eq!(a.io.seeks, cold.io.seeks);
            // The replay is fully absorbed by a pool larger than the table.
            prop_assert_eq!(warm.io.pages, 0, "{:?}", q);
            prop_assert_eq!(warm.io.cache_hits, cold.io.pages + cold.io.cache_hits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// `apply_batch`'s schedule (inline or threaded runs) is unobservable:
    /// for every registry curve and 1/2/5 shards, a batch large enough to
    /// cross the thread threshold returns the same displaced payloads (in
    /// submission order) as the same batch on a one-shard table — whose
    /// single run always applies inline — and as the sequential model, and
    /// lands all three on the same record count and full-scan state. The
    /// ops include adversarial same-point chains, whose submission order
    /// threading must never reorder.
    #[test]
    fn apply_batch_matches_one_shard_and_model_for_every_curve(seed in any::<u64>()) {
        let side = 16u32;
        let mut rng = StdRng::seed_from_u64(seed);
        // Well above the 1024-op thread threshold, with heavy same-point
        // traffic (the universe has only 256 cells).
        let ops: Vec<BatchOp<2, u64>> = (0..2048)
            .map(|i| {
                let p = Point::new([
                    rng.random_range(0..side),
                    rng.random_range(0..side),
                ]);
                match rng.random_range(0..10u32) {
                    0..=4 => BatchOp::Insert(p, i),
                    5..=7 => BatchOp::Update(p, 1_000_000 + i),
                    _ => BatchOp::Delete(p),
                }
            })
            .collect();
        let mut model = Model::default();
        let expect: Vec<Option<u64>> = ops.iter().map(|op| model.apply(op.clone())).collect();
        let q = RectQuery::new([0, 0], [side, side]).unwrap();
        for name in CURVE_NAMES {
            let single: ShardedTable<_, u64, 2> = ShardedTable::build(
                curve_2d(name, side).unwrap(),
                Vec::new(),
                DiskModel::ssd(),
                1,
            )
            .unwrap();
            let one = single.apply_batch(ops.clone()).unwrap();
            prop_assert_eq!(&one, &expect, "{} one shard vs model", name);
            let one_state = single.query_rect(&q, &QueryOptions::default()).unwrap().records;
            prop_assert_eq!(
                &one_state,
                &model.scan(&curve_2d(name, side).unwrap(), &q),
                "{} one shard vs model: full-scan state",
                name
            );
            for shards in [2usize, 5] {
                let sharded: ShardedTable<_, u64, 2> = ShardedTable::build(
                    curve_2d(name, side).unwrap(),
                    Vec::new(),
                    DiskModel::ssd(),
                    shards,
                )
                .unwrap();
                prop_assert_eq!(
                    &sharded.apply_batch(ops.clone()).unwrap(),
                    &one,
                    "{} at {} shards: displaced payloads",
                    name,
                    shards
                );
                prop_assert_eq!(sharded.len(), single.len(), "{} record count", name);
                prop_assert_eq!(
                    &sharded.query_rect(&q, &QueryOptions::default()).unwrap().records,
                    &one_state,
                    "{} at {} shards: full-scan state",
                    name,
                    shards
                );
            }
        }
    }
}
