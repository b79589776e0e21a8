//! Golden outputs of the table layer, pinned as digests.
//!
//! For every registry curve, at 1, 2 and 5 shards, on the in-memory and
//! the paged backend, this test runs one fixed script against a
//! `ShardedTable` and folds everything it observes into five digests:
//!
//! * `query_rect` with `QueryOptions::exact()`: records, `ranges_scanned`
//!   and the simulated `IoStats` (`seeks`, `pages`, `entries`,
//!   `cache_hits`);
//! * the same through `QueryOptions::planned()` with a fresh planner;
//! * `query_rect_batch` over the same queries;
//! * `get` on every cell of the universe;
//! * `apply_batch` of a batch below and one above 1,024 ops: displaced
//!   payloads, `version_epoch`, `len` and the full-scan state after each.
//!
//! Any change to what the table returns or to the simulated I/O it
//! reports moves a digest. On a mismatch the failure message prints the
//! whole table as computed, in the form of `GOLDEN`.

use onion_core::Point;
use sfc_baselines::{curve_2d, DynCurve, CURVE_NAMES};
use sfc_clustering::RectQuery;
use sfc_index::{
    Backend, BatchOp, DiskModel, PagedBackend, Planner, QueryOptions, QueryResult, Record,
    ShardedTable,
};

const SIDE: u32 = 16;
const SHARDS: [usize; 3] = [1, 2, 5];
const POOL_PAGES: usize = 24;

/// Per curve: digests of `[exact, planned, batch, get, apply]`.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 5]); 7] = [
    ("onion", [0xa0dbf1415faa5551, 0x15f6d8e5ecc39c69, 0x478d305139f1bf11, 0x6a508d0beca40ee1, 0x7958deb616f206ef]),
    ("hilbert", [0x740051e772e96d5e, 0xfb1b12043c6fb781, 0xdb9658c3f04e239e, 0x6a508d0beca40ee1, 0x62ad9d9501336346]),
    ("z-order", [0x216b9dd83ba7e6b9, 0x0bce8a7a7620684c, 0xec4e3e0cf9ecf5b9, 0x6a508d0beca40ee1, 0x74a7675b5605de9c]),
    ("gray-code", [0x903b07ad37375de4, 0xf80dbe1e316ff314, 0x86d17ac4e8b02b64, 0x6a508d0beca40ee1, 0xc439be695d8b0b11]),
    ("row-major", [0x443081643a1e5090, 0x4534ce14472f4267, 0xfa82b7650d66b390, 0x6a508d0beca40ee1, 0xaaae9086d7497f93]),
    ("column-major", [0x16511bb5cef51761, 0x1cc25b7606bc52b6, 0x84627d8353644521, 0x6a508d0beca40ee1, 0x8459802043a70730]),
    ("snake", [0xaa952a3d5c0e3dc3, 0x9e583303d93f3bc4, 0x615c95058cc23243, 0x6a508d0beca40ee1, 0xb4cb793cfda9b3c4]),
];

fn model() -> DiskModel {
    DiskModel {
        page_size: 16,
        seek_us: 8_000.0,
        transfer_us: 100.0,
    }
}

/// SplitMix64: a fixed, dependency-free generator for the script.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the little-endian bytes of each word.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn record(&mut self, r: &Record<2, u64>) {
        self.word(u64::from(r.point.0[0]));
        self.word(u64::from(r.point.0[1]));
        self.word(r.value);
    }

    fn result(&mut self, res: &QueryResult<2, u64>) {
        self.word(res.records.len() as u64);
        for r in &res.records {
            self.record(r);
        }
        self.word(res.ranges_scanned);
        self.word(res.io.seeks);
        self.word(res.io.pages);
        self.word(res.io.entries);
        self.word(res.io.cache_hits);
    }

    fn payload(&mut self, v: Option<u64>) {
        match v {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v);
            }
        }
    }
}

/// About 70% of the cells, each holding one record.
fn records() -> Vec<(Point<2>, u64)> {
    let mut out = Vec::new();
    for x in 0..SIDE {
        for y in 0..SIDE {
            let h = mix(u64::from(x * SIDE + y));
            if h % 10 < 7 {
                out.push((Point::new([x, y]), h >> 16));
            }
        }
    }
    out
}

fn queries() -> Vec<RectQuery<2>> {
    let mut qs = vec![
        RectQuery::new([0, 0], [SIDE, SIDE]).unwrap(),
        RectQuery::new([3, 5], [9, 8]).unwrap(),
        RectQuery::new([0, 14], [SIDE, 2]).unwrap(),
        RectQuery::new([7, 7], [1, 1]).unwrap(),
        RectQuery::new([1, 2], [14, 13]).unwrap(),
        RectQuery::new([8, 0], [8, 8]).unwrap(),
        RectQuery::new([0, 0], [4, SIDE]).unwrap(),
        RectQuery::new([5, 5], [6, 6]).unwrap(),
    ];
    for i in 0..8u64 {
        let h = mix(1_000 + i);
        let c = |shift: u32| ((h >> shift) % u64::from(SIDE)) as u32;
        qs.push(RectQuery::from_corners(
            Point::new([c(0), c(8)]),
            Point::new([c(16), c(24)]),
        ));
    }
    qs
}

/// Adversarial writes: `n` ops over 256 cells, so same-point chains are
/// common and their submission order matters.
fn ops(n: u64, salt: u64) -> Vec<BatchOp<2, u64>> {
    (0..n)
        .map(|i| {
            let h = mix(salt.wrapping_mul(1_000_003) + i);
            let p = Point::new([(h % 16) as u32, ((h >> 8) % 16) as u32]);
            match (h >> 16) % 10 {
                0..=4 => BatchOp::Insert(p, i),
                5..=7 => BatchOp::Update(p, 1_000_000 + i),
                _ => BatchOp::Delete(p),
            }
        })
        .collect()
}

/// Runs the script against one table, folding into `d = [exact, planned,
/// batch, get, apply]`.
fn script<B>(table: &ShardedTable<DynCurve<2>, u64, 2, B>, d: &mut [Digest; 5])
where
    B: Backend<Record<2, u64>> + Send + Sync,
{
    let qs = queries();
    for q in &qs {
        d[0].result(&table.query_rect(q, &QueryOptions::exact()).unwrap());
    }
    let planner = Planner::new(model());
    for q in &qs {
        let planned = table.query_rect(q, &QueryOptions::planned(&planner));
        d[1].result(&planned.unwrap());
    }
    for res in table.query_rect_batch(&qs).unwrap() {
        d[2].result(&res);
    }
    for x in 0..SIDE {
        for y in 0..SIDE {
            let got = table.get(Point::new([x, y])).unwrap().map(|g| g.cloned());
            d[3].payload(got);
        }
    }
    let full = RectQuery::new([0, 0], [SIDE, SIDE]).unwrap();
    for (n, salt) in [(300u64, 1u64), (2_048, 2)] {
        for displaced in table.apply_batch(ops(n, salt)).unwrap() {
            d[4].payload(displaced);
        }
        d[4].word(table.version_epoch());
        d[4].word(table.len() as u64);
        d[4].result(&table.query_rect(&full, &QueryOptions::exact()).unwrap());
    }
}

fn digests(name: &str) -> [u64; 5] {
    let mut d = [Digest::new(); 5];
    for shards in SHARDS {
        let curve = || curve_2d(name, SIDE).unwrap();
        let mem = ShardedTable::build(curve(), records(), model(), shards).unwrap();
        script(&mem, &mut d);
        let paged: ShardedTable<_, u64, 2, PagedBackend<Record<2, u64>>> =
            ShardedTable::build_paged(curve(), records(), model(), shards, POOL_PAGES).unwrap();
        script(&paged, &mut d);
    }
    d.map(|d| d.0)
}

#[test]
fn table_outputs_match_golden_digests() {
    assert_eq!(GOLDEN.len(), CURVE_NAMES.len());
    let computed: Vec<(&str, [u64; 5])> = CURVE_NAMES.iter().map(|&n| (n, digests(n))).collect();
    let mut table = String::new();
    for (name, d) in &computed {
        let hex: Vec<String> = d.iter().map(|v| format!("{v:#018x}")).collect();
        table.push_str(&format!("    (\"{name}\", [{}]),\n", hex.join(", ")));
    }
    for ((name, got), (golden_name, want)) in computed.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "GOLDEN rows follow CURVE_NAMES");
        for (aspect, (g, w)) in ["exact", "planned", "batch", "get", "apply"]
            .iter()
            .zip(got.iter().zip(want))
        {
            assert_eq!(
                *g, w,
                "{name}: `{aspect}` digest moved; computed table:\n{table}"
            );
        }
    }
}
