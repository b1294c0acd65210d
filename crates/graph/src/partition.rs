//! Vertex partitioning across NUMA nodes.
//!
//! Polymer splits the vertex id space into contiguous disjoint ranges, one
//! per memory node. Two strategies from the paper's Section 5:
//!
//! * **vertex-balanced** — equal vertex counts per range (the "natural
//!   approach"), which for skewed graphs leaves the edges badly imbalanced;
//! * **edge-oriented balanced** — ranges chosen so the per-range *degree
//!   sums* are as even as possible (inspired by vertex-cuts), since scatter/
//!   gather work is linear in edges. The paper's Figure 11(a) shows this
//!   narrows the per-socket edge deviation from ±tens of percent to
//!   [-0.5%, +0.8%] on the twitter graph.

use std::ops::Range;

/// Split `0..n` into `parts` contiguous ranges of (nearly) equal length.
pub fn vertex_balanced_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1, "need at least one part");
    (0..parts)
        .map(|p| (p * n / parts)..((p + 1) * n / parts))
        .collect()
}

/// Split `0..degrees.len()` into `parts` contiguous ranges whose degree sums
/// are as even as possible: cut points are placed where the degree prefix
/// sum crosses `i × total / parts`.
pub fn edge_balanced_ranges(degrees: &[u32], parts: usize) -> Vec<Range<usize>> {
    assert!(parts >= 1, "need at least one part");
    let n = degrees.len();
    let total: u64 = degrees.iter().map(|&d| d as u64).sum();
    if total == 0 {
        return vertex_balanced_ranges(n, parts);
    }
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0usize);
    let mut prefix = 0u64;
    let mut v = 0usize;
    for p in 1..parts {
        let target = p as u64 * total / parts as u64;
        while v < n && prefix < target {
            prefix += degrees[v] as u64;
            v += 1;
        }
        cuts.push(v);
    }
    cuts.push(n);
    (0..parts).map(|p| cuts[p]..cuts[p + 1]).collect()
}

/// Balance statistics of a partitioning, for the Figure 11(a) experiment.
#[derive(Clone, Debug)]
pub struct PartitionStats {
    /// Degree (edge) sum of each part.
    pub edges_per_part: Vec<u64>,
}

impl PartitionStats {
    /// Compute the per-part edge counts for contiguous ranges.
    pub fn compute(degrees: &[u32], ranges: &[Range<usize>]) -> Self {
        let edges_per_part = ranges
            .iter()
            .map(|r| degrees[r.clone()].iter().map(|&d| d as u64).sum())
            .collect();
        PartitionStats { edges_per_part }
    }

    /// Normalized per-part edge deviation `(edges_p − mean) / mean`, the
    /// quantity plotted in the paper's Figure 11(a).
    pub fn normalized_deviation(&self) -> Vec<f64> {
        let mean =
            self.edges_per_part.iter().sum::<u64>() as f64 / self.edges_per_part.len() as f64;
        if mean == 0.0 {
            return vec![0.0; self.edges_per_part.len()];
        }
        self.edges_per_part
            .iter()
            .map(|&e| (e as f64 - mean) / mean)
            .collect()
    }

    /// Largest absolute normalized deviation.
    pub fn max_abs_deviation(&self) -> f64 {
        self.normalized_deviation()
            .iter()
            .map(|d| d.abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_ranges_cover_disjointly() {
        let r = vertex_balanced_ranges(10, 3);
        assert_eq!(r, vec![0..3, 3..6, 6..10]);
        let r = vertex_balanced_ranges(8, 8);
        assert!(r.iter().all(|r| r.len() == 1));
        let r = vertex_balanced_ranges(2, 4);
        assert_eq!(r.iter().map(|r| r.len()).sum::<usize>(), 2);
    }

    #[test]
    fn edge_balanced_evens_out_skew() {
        // One hub with degree 300 and many degree-1 vertices.
        let mut degrees = vec![1u32; 1001];
        degrees[0] = 300;
        let parts = 4;
        let vr = vertex_balanced_ranges(degrees.len(), parts);
        let er = edge_balanced_ranges(&degrees, parts);
        let vs = PartitionStats::compute(&degrees, &vr);
        let es = PartitionStats::compute(&degrees, &er);
        assert!(es.max_abs_deviation() < 0.6 * vs.max_abs_deviation());
        // Cover exactly.
        assert_eq!(er.iter().map(|r| r.len()).sum::<usize>(), degrees.len());
        for w in er.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn edge_balanced_on_uniform_degrees_is_near_vertex_balanced() {
        let degrees = vec![3u32; 100];
        let er = edge_balanced_ranges(&degrees, 4);
        for r in &er {
            assert_eq!(r.len(), 25);
        }
    }

    #[test]
    fn edge_balanced_handles_zero_total() {
        let degrees = vec![0u32; 10];
        let er = edge_balanced_ranges(&degrees, 2);
        assert_eq!(er, vec![0..5, 5..10]);
    }

    #[test]
    fn stats_deviation() {
        let degrees = vec![4u32, 4, 2, 2];
        let ranges = vec![0..2, 2..4];
        let s = PartitionStats::compute(&degrees, &ranges);
        assert_eq!(s.edges_per_part, vec![8, 4]);
        let d = s.normalized_deviation();
        assert!((d[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((d[1] + 1.0 / 3.0).abs() < 1e-12);
        assert!((s.max_abs_deviation() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_part_takes_all() {
        let degrees = vec![1u32, 2, 3];
        assert_eq!(edge_balanced_ranges(&degrees, 1), vec![0..3]);
        assert_eq!(vertex_balanced_ranges(3, 1), vec![0..3]);
    }
}
