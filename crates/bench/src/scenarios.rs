//! Reusable experiment kernels shared by the `exp_*` binaries: "given a
//! curve and a query set, summarize the clustering distribution".

use onion_core::SpaceFillingCurve;
use sfc_clustering::{clustering_number, RectQuery, Summary};

/// Computes the clustering number of every query and summarizes the
/// distribution (the box-plot statistics of Figures 5–7).
pub fn clustering_summary<const D: usize, C: SpaceFillingCurve<D>>(
    curve: &C,
    queries: &[RectQuery<D>],
) -> Option<Summary> {
    let values: Vec<u64> = queries
        .iter()
        .map(|q| clustering_number(curve, q))
        .collect();
    Summary::from_values(&values)
}

/// Formats a [`Summary`] into the columns used by the figure tables:
/// `min, q1, median, q3, max, mean`.
pub fn summary_cells(s: &Summary) -> Vec<String> {
    vec![
        s.min.to_string(),
        format!("{:.1}", s.q1),
        format!("{:.1}", s.median),
        format!("{:.1}", s.q3),
        s.max.to_string(),
        format!("{:.2}", s.mean),
    ]
}

/// Column headers matching [`summary_cells`], prefixed per curve.
pub fn summary_columns(curve_name: &str) -> Vec<String> {
    ["min", "q1", "med", "q3", "max", "mean"]
        .iter()
        .map(|c| format!("{curve_name}:{c}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use onion_core::Onion2D;

    #[test]
    fn summary_over_trivial_queries() {
        let o = Onion2D::new(8).unwrap();
        let qs = vec![
            RectQuery::new([0, 0], [8, 8]).unwrap(),
            RectQuery::new([0, 0], [1, 1]).unwrap(),
        ];
        let s = clustering_summary(&o, &qs).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1);
        assert_eq!(summary_cells(&s).len(), 6);
        assert_eq!(summary_columns("onion").len(), 6);
    }
}
