//! Update-cost models.
//!
//! Sec. II-A: "Assuming the number of entities is n, the update model for
//! the various interaction types may range from O(n) for games in which
//! players are mostly solitary …, to O(n²) for games in which many
//! players acting individually are interacting, or to O(n³) for games in
//! which groups of many players each are interacting. … When using such
//! [area-of-interest] techniques, the update model may become
//! O(n × log n) from O(n²), and O(n² × log n) from O(n³)."
//!
//! [`UpdateModel::cost`] evaluates the (unnormalised) state-update work a
//! server performs for `n` co-located interacting entities; the
//! provisioning simulator normalises it against a reference server
//! capacity to obtain resource units.

use std::fmt;

/// The five update models evaluated in Sections V-C and V-F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateModel {
    /// `O(n)` — mostly-solitary players.
    Linear,
    /// `O(n·log n)` — pairwise interaction reduced by area-of-interest.
    NLogN,
    /// `O(n²)` — many individually interacting players.
    Quadratic,
    /// `O(n²·log n)` — group interaction reduced by area-of-interest.
    QuadraticLog,
    /// `O(n³)` — groups of many players each interacting.
    Cubic,
}

impl UpdateModel {
    /// All models in increasing complexity order — the series of
    /// Figures 9 and 10.
    pub const ALL: [Self; 5] = [
        Self::Linear,
        Self::NLogN,
        Self::Quadratic,
        Self::QuadraticLog,
        Self::Cubic,
    ];

    /// Unnormalised update cost for `n` entities. Uses `log2(n + 1)` so
    /// the cost is zero at `n = 0` and finite everywhere; negative inputs
    /// clamp to zero.
    #[must_use]
    pub fn cost(self, n: f64) -> f64 {
        let n = n.max(0.0);
        let lg = (n + 1.0).log2();
        match self {
            Self::Linear => n,
            Self::NLogN => n * lg,
            Self::Quadratic => n * n,
            Self::QuadraticLog => n * n * lg,
            Self::Cubic => n * n * n,
        }
    }

    /// The model obtained by applying area-of-interest filtering
    /// (Sec. II-A's reduction); models without a stated reduction are
    /// returned unchanged.
    #[must_use]
    pub fn aoi_reduced(self) -> Self {
        match self {
            Self::Quadratic => Self::NLogN,
            Self::Cubic => Self::QuadraticLog,
            other => other,
        }
    }

    /// Label used in the paper's figures (e.g. `O(n^2 x log(n))`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Linear => "O(n)",
            Self::NLogN => "O(n x log(n))",
            Self::Quadratic => "O(n^2)",
            Self::QuadraticLog => "O(n^2 x log(n))",
            Self::Cubic => "O(n^3)",
        }
    }

    /// Complexity rank (0 = cheapest) for ordering assertions.
    #[must_use]
    pub fn rank(self) -> usize {
        Self::ALL
            .iter()
            .position(|m| *m == self)
            .expect("ALL is complete")
    }
}

impl fmt::Display for UpdateModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_at_zero_is_zero() {
        for m in UpdateModel::ALL {
            assert_eq!(m.cost(0.0), 0.0, "{m}");
            assert_eq!(m.cost(-5.0), 0.0, "{m} must clamp negatives");
        }
    }

    #[test]
    fn costs_ordered_by_complexity_for_large_n() {
        let n = 1000.0;
        for w in UpdateModel::ALL.windows(2) {
            assert!(
                w[0].cost(n) < w[1].cost(n),
                "{} should cost less than {} at n={n}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn cost_monotone_in_n() {
        for m in UpdateModel::ALL {
            let mut prev = 0.0;
            for i in 1..100 {
                let c = m.cost(f64::from(i));
                assert!(c > prev, "{m} not monotone at n={i}");
                prev = c;
            }
        }
    }

    #[test]
    fn quadratic_cost_exact() {
        assert_eq!(UpdateModel::Quadratic.cost(50.0), 2500.0);
        assert_eq!(UpdateModel::Linear.cost(50.0), 50.0);
        assert_eq!(UpdateModel::Cubic.cost(10.0), 1000.0);
    }

    #[test]
    fn aoi_reduction_matches_paper() {
        assert_eq!(UpdateModel::Quadratic.aoi_reduced(), UpdateModel::NLogN);
        assert_eq!(UpdateModel::Cubic.aoi_reduced(), UpdateModel::QuadraticLog);
        assert_eq!(UpdateModel::Linear.aoi_reduced(), UpdateModel::Linear);
        assert_eq!(UpdateModel::NLogN.aoi_reduced(), UpdateModel::NLogN);
    }

    #[test]
    fn aoi_reduction_lowers_cost() {
        let n = 500.0;
        assert!(UpdateModel::Quadratic.aoi_reduced().cost(n) < UpdateModel::Quadratic.cost(n));
        assert!(UpdateModel::Cubic.aoi_reduced().cost(n) < UpdateModel::Cubic.cost(n));
    }

    #[test]
    fn ranks_are_total_order() {
        let ranks: Vec<usize> = UpdateModel::ALL.iter().map(|m| m.rank()).collect();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(UpdateModel::QuadraticLog.to_string(), "O(n^2 x log(n))");
        assert_eq!(UpdateModel::Linear.to_string(), "O(n)");
    }
}
