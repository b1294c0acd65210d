//! Named, scaled-down versions of the paper's Table 2 datasets.
//!
//! The paper's graphs run to 2.14 billion edges; this reproduction runs on
//! one small host (a few cores, 16 GB of RAM), so each dataset keeps its
//! family's generative structure (degree distribution, density, diameter
//! class) at a reduced size. The R-MAT datasets are generated on every host
//! core, and the edges do not depend on how many there are. `scale_shift` adds to the log2 vertex count (0 = the
//! defaults below, +1 doubles, −1 halves), letting the harness and tests
//! trade fidelity for speed uniformly.
//!
//! | id          | paper graph | paper size       | default here          |
//! |-------------|-------------|------------------|-----------------------|
//! | `TwitterS`  | twitter     | 41.7 M V, 1.47 B E | 2^18 V, 4.2 M E (R-MAT, high skew) |
//! | `Rmat24S`   | rMat24      | 16.8 M V, 268 M E  | 2^17 V, 2.1 M E (R-MAT ×16 density) |
//! | `Rmat27S`   | rMat27      | 134 M V, 2.14 B E  | 2^19 V, 8.4 M E (R-MAT ×16 density) |
//! | `PowerlawS` | powerlaw    | 10 M V, 105 M E    | 2^18 V, ~2.7 M E (Zipf α = 2.0) |
//! | `RoadUsS`   | roadUS      | 23.9 M V, 58 M E   | 512×512 grid, ~630 K E, avg deg 2.4 |

use crate::edgelist::EdgeList;
use crate::gen;

/// The five datasets of the paper's Table 2, scaled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Twitter-like: large, highly skewed follower graph (R-MAT).
    TwitterS,
    /// Graph500 R-MAT, medium.
    Rmat24S,
    /// Graph500 R-MAT, large.
    Rmat27S,
    /// Zipf power-law with constant 2.0 (PowerGraph generator method).
    PowerlawS,
    /// High-diameter road network (grid), average directed degree ≈ 2.4.
    RoadUsS,
}

impl DatasetId {
    /// All datasets, in the paper's Table 2 order.
    pub const ALL: [DatasetId; 5] = [
        DatasetId::TwitterS,
        DatasetId::Rmat24S,
        DatasetId::Rmat27S,
        DatasetId::PowerlawS,
        DatasetId::RoadUsS,
    ];

    /// Short name used in reports (mirrors the paper's graph names).
    pub fn name(self) -> &'static str {
        match self {
            DatasetId::TwitterS => "twitter",
            DatasetId::Rmat24S => "rMat24",
            DatasetId::Rmat27S => "rMat27",
            DatasetId::PowerlawS => "powerlaw",
            DatasetId::RoadUsS => "roadUS",
        }
    }
}

/// Generate a dataset at `scale_shift` relative to the defaults (see module
/// docs). Deterministic: the same id and shift always produce the same graph.
pub fn dataset(id: DatasetId, scale_shift: i32) -> EdgeList {
    let sc = |base: i32| -> u32 { (base + scale_shift).clamp(8, 27) as u32 };
    match id {
        DatasetId::TwitterS => {
            // Extra-skewed R-MAT approximating the twitter follower graph.
            let scale = sc(18);
            gen::rmat(scale, 16 << scale, (0.60, 0.19, 0.16), 0xC0FFEE)
        }
        DatasetId::Rmat24S => {
            let scale = sc(17);
            gen::rmat(scale, 16 << scale, gen::RMAT_GRAPH500, 24)
        }
        DatasetId::Rmat27S => {
            let scale = sc(19);
            gen::rmat(scale, 16 << scale, gen::RMAT_GRAPH500, 27)
        }
        DatasetId::PowerlawS => {
            let n = 1usize << sc(18);
            gen::powerlaw_zipf(n, 2.0, 10.0, 0x9E3779B9)
        }
        DatasetId::RoadUsS => {
            let side = 1usize << (sc(18) / 2);
            gen::road_grid(side, side, 0.6, 0xD1CE)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Graph;
    use crate::stats::GraphStats;

    #[test]
    fn all_datasets_generate_at_tiny_scale() {
        for id in DatasetId::ALL {
            let el = dataset(id, -6);
            assert!(el.num_edges() > 0, "{:?} empty", id);
            el.validate();
        }
    }

    #[test]
    fn twitter_is_more_skewed_than_road() {
        let tw = GraphStats::compute(&Graph::from_edges(&dataset(DatasetId::TwitterS, -6)));
        let rd = GraphStats::compute(&Graph::from_edges(&dataset(DatasetId::RoadUsS, -6)));
        assert!(tw.skew() > 20.0, "twitter skew {}", tw.skew());
        assert!(rd.skew() < 3.0, "road skew {}", rd.skew());
        assert!((rd.avg_degree - 2.4).abs() < 0.4);
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = dataset(DatasetId::Rmat24S, -6);
        let b = dataset(DatasetId::Rmat24S, -6);
        assert_eq!(a, b);
    }

    #[test]
    fn scale_shift_changes_size() {
        let small = dataset(DatasetId::Rmat24S, -7);
        let big = dataset(DatasetId::Rmat24S, -5);
        assert!(big.num_vertices > 2 * small.num_vertices);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(DatasetId::TwitterS.name(), "twitter");
        assert_eq!(DatasetId::RoadUsS.name(), "roadUS");
    }
}
