//! Generated inputs and the reference model outputs are checked against.

use onion_core::Point;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use sfc_clustering::RectQuery;
use sfc_engine::Op;
use sfc_index::Record;

/// The engine op type every workload issues.
pub type EngineOp = Op<2, u64>;

const EMPTY: u64 = u64::MAX;

/// A dense `side × side` grid holding at most one value per cell — the
/// brute-force model. Workloads keep one record per cell (loads use
/// distinct cells, writes are updates and deletes), so a grid is exact.
#[derive(Clone, Debug)]
pub struct Grid {
    side: u32,
    cells: Vec<u64>,
}

impl Grid {
    /// An empty grid.
    pub fn new(side: u32) -> Self {
        Grid {
            side,
            cells: vec![EMPTY; side as usize * side as usize],
        }
    }

    /// A grid holding `records`.
    pub fn with(side: u32, records: &[(Point<2>, u64)]) -> Self {
        let mut g = Grid::new(side);
        for &(p, v) in records {
            let i = g.at(p);
            g.cells[i] = v;
        }
        g
    }

    fn at(&self, p: Point<2>) -> usize {
        p.0[1] as usize * self.side as usize + p.0[0] as usize
    }

    /// The value at `p`.
    pub fn get(&self, p: Point<2>) -> Option<u64> {
        Some(self.cells[self.at(p)]).filter(|&v| v != EMPTY)
    }

    /// Applies a write; reads are ignored.
    pub fn apply(&mut self, op: &EngineOp) {
        match *op {
            Op::Update(p, v) | Op::Insert(p, v) => {
                let i = self.at(p);
                self.cells[i] = v;
            }
            Op::Delete(p) => {
                let i = self.at(p);
                self.cells[i] = EMPTY;
            }
            _ => {}
        }
    }

    /// Every record inside `q`, sorted by point.
    pub fn rect(&self, q: &RectQuery<2>) -> Vec<(Point<2>, u64)> {
        let (lo, hi) = (q.lo(), q.hi());
        let mut out = Vec::new();
        for x in lo[0]..=hi[0] {
            for y in lo[1]..=hi[1] {
                let p = Point::new([x, y]);
                if let Some(v) = self.get(p) {
                    out.push((p, v));
                }
            }
        }
        out
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cells.iter().filter(|&&v| v != EMPTY).count()
    }

    /// Whether the grid holds no record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether `records` hold exactly `expected` (sorted by point), in any
/// order.
pub fn same_records(records: &[Record<2, u64>], expected: &[(Point<2>, u64)]) -> bool {
    let mut got: Vec<(Point<2>, u64)> = records.iter().map(|r| (r.point, r.value)).collect();
    got.sort_unstable_by_key(|&(p, v)| (p.0, v));
    got.len() == expected.len() && got.iter().zip(expected).all(|(a, b)| a == b)
}

/// `count` records at distinct uniform cells, valued `0..count`.
///
/// # Panics
/// If `count` exceeds the number of cells.
pub fn distinct_records(side: u32, count: usize, rng: &mut StdRng) -> Vec<(Point<2>, u64)> {
    let cells = side as usize * side as usize;
    assert!(count <= cells, "more records than cells");
    let mut taken = vec![false; cells];
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let p = uniform_cell(side, rng);
        let i = p.0[1] as usize * side as usize + p.0[0] as usize;
        if !std::mem::replace(&mut taken[i], true) {
            out.push((p, out.len() as u64));
        }
    }
    out
}

/// A uniform cell.
pub fn uniform_cell(side: u32, rng: &mut StdRng) -> Point<2> {
    Point::new([rng.random_range(0..side), rng.random_range(0..side)])
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A side length log-uniform in `lo..=hi`.
pub fn log_uniform(lo: u32, hi: u32, rng: &mut StdRng) -> u32 {
    let (a, b) = (f64::from(lo).ln(), f64::from(hi).ln());
    let x = a + (b - a) * unit(rng);
    (x.exp().round() as u32).clamp(lo, hi)
}

/// A square or near-square query (aspect at most 2) with sides
/// log-uniform in `lo..=hi`, placed uniformly in the universe.
pub fn near_square(side: u32, lo: u32, hi: u32, rng: &mut StdRng) -> RectQuery<2> {
    let l1 = log_uniform(lo, hi, rng);
    let stretch = 2f64.powf(2.0 * unit(rng) - 1.0);
    let l2 =
        ((f64::from(l1) * stretch).round() as u32).clamp(lo.max(l1.div_ceil(2)), hi.min(2 * l1));
    let len = if rng.random_range(0..2) == 0 {
        [l1, l2]
    } else {
        [l2, l1]
    };
    let lo_corner = [
        rng.random_range(0..=side - len[0]),
        rng.random_range(0..=side - len[1]),
    ];
    RectQuery::new(lo_corner, len).expect("query placed inside the universe")
}

/// A square of side at most `max_side` around `p`, clipped to the universe.
pub fn square_around(side: u32, p: Point<2>, max_side: u32) -> RectQuery<2> {
    let len = max_side.min(side);
    let lo = p.0.map(|c| c.saturating_sub(len / 2).min(side - len));
    RectQuery::new(lo, [len, len]).expect("query placed inside the universe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generated_queries_stay_in_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let q = near_square(1024, 8, 128, &mut rng);
            let [a, b] = q.side_lengths();
            assert!((8..=128).contains(&a) && (8..=128).contains(&b));
            assert!(a.max(b) <= 2 * a.min(b), "{a}x{b}");
            assert!(q.hi().iter().all(|&h| h < 1024));
        }
        let q = square_around(64, Point::new([63, 0]), 8);
        assert_eq!((q.lo(), q.hi()), ([56, 0], [63, 7]));
    }

    #[test]
    fn grid_is_a_brute_force_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let recs = distinct_records(16, 100, &mut rng);
        let mut cells: Vec<_> = recs.iter().map(|r| r.0 .0).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 100);
        let mut g = Grid::with(16, &recs);
        assert_eq!(g.len(), 100);
        let (p, v) = recs[5];
        assert_eq!(g.get(p), Some(v));
        g.apply(&Op::Delete(p));
        assert_eq!(g.get(p), None);
        g.apply(&Op::Update(p, 9));
        let q = RectQuery::new([0, 0], [16, 16]).unwrap();
        let all = g.rect(&q);
        assert_eq!(all.len(), 100);
        let records: Vec<Record<2, u64>> = all
            .iter()
            .rev()
            .map(|&(point, value)| Record { point, value })
            .collect();
        assert!(same_records(&records, &all));
        assert!(!same_records(&records[1..], &all));
    }
}
