//! Interaction counting.
//!
//! "A fundamental premise of this work is that the workload of MMOGs
//! depends on the interactions between players" (Sec. III-D). The
//! emulator therefore has to measure how much its entities interact.
//! Two counters are provided:
//!
//! - [`count_pairs_exact`] — the ground truth: pairs of entities within
//!   an area-of-interest radius, computed with a grid-bucket sweep so the
//!   cost is `O(n · k)` (k = neighbourhood occupancy) instead of `O(n²)`.
//! - [`count_pairs_subzone`] — the sub-zone approximation the predictors
//!   rely on ("the entity interaction can be inferred in practice from
//!   the entity distribution in the simulated environment", Sec. IV-B):
//!   all entity pairs co-located in a sub-zone count as interacting.

use crate::entity::Position;
use crate::zone::{SubZoneId, ZoneGrid};

/// Reusable buffers for the exact pair sweep: per-sub-zone index
/// buckets and the neighbourhood list. One scratch serves any number of
/// [`count_pairs_exact_scratch`] calls (buffers grow to fit), so
/// repeated sweeps over a moving world allocate nothing per tick.
#[derive(Debug, Clone, Default)]
pub struct PairScratch {
    buckets: Vec<Vec<usize>>,
    neighborhood: Vec<SubZoneId>,
}

/// Counts unordered entity pairs within `radius` of each other (exact,
/// grid-accelerated). Entities at exactly `radius` distance count.
///
/// Convenience wrapper allocating fresh buffers; hot loops should hold
/// a [`PairScratch`] and call [`count_pairs_exact_scratch`].
#[must_use]
pub fn count_pairs_exact(grid: &ZoneGrid, positions: &[Position], radius: f64) -> u64 {
    let mut scratch = PairScratch::default();
    count_pairs_exact_scratch(grid, positions, radius, &mut scratch)
}

/// Allocation-free [`count_pairs_exact`]: buckets and neighbourhoods
/// live in `scratch` and are recycled sweep to sweep. The zone visiting
/// order and distance arithmetic are identical, so the count matches
/// exactly.
#[must_use]
pub fn count_pairs_exact_scratch(
    grid: &ZoneGrid,
    positions: &[Position],
    radius: f64,
    scratch: &mut PairScratch,
) -> u64 {
    debug_assert!(radius >= 0.0);
    grid.bucket_into(positions, &mut scratch.buckets);
    let buckets = &scratch.buckets;
    // The neighbourhood must cover the interaction radius.
    let radius_cells = (radius / grid.cell_size()).ceil() as u32;
    let mut pairs = 0u64;
    let r2 = radius * radius;
    for (zi, bucket) in buckets.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let zone = SubZoneId(zi as u32);
        grid.neighborhood_into(zone, radius_cells, &mut scratch.neighborhood);
        for &nz in &scratch.neighborhood {
            // Visit each unordered zone pair once; within a zone, count
            // index-ordered pairs.
            if (nz.0 as usize) < zi {
                continue;
            }
            let other = &buckets[nz.0 as usize];
            if nz.0 as usize == zi {
                for (a, &ia) in bucket.iter().enumerate() {
                    for &ib in &bucket[a + 1..] {
                        let (pa, pb) = (&positions[ia], &positions[ib]);
                        let dx = pa.x - pb.x;
                        let dy = pa.y - pb.y;
                        if dx * dx + dy * dy <= r2 {
                            pairs += 1;
                        }
                    }
                }
            } else {
                for &ia in bucket {
                    for &ib in other {
                        let (pa, pb) = (&positions[ia], &positions[ib]);
                        let dx = pa.x - pb.x;
                        let dy = pa.y - pb.y;
                        if dx * dx + dy * dy <= r2 {
                            pairs += 1;
                        }
                    }
                }
            }
        }
    }
    pairs
}

/// Sub-zone interaction approximation: Σ_z n_z·(n_z−1)/2 over the entity
/// count map. This is the quantity a game operator can compute from the
/// entity distribution alone, without pairwise distance checks.
#[must_use]
pub fn count_pairs_subzone(counts: &[u32]) -> u64 {
    counts
        .iter()
        .map(|&c| {
            let c = u64::from(c);
            c * (c - c.min(1)) / 2
        })
        .sum()
}

/// Interaction density: average interacting pairs per entity (0 when the
/// world is empty). Rises sharply when players cluster in hotspots.
#[must_use]
pub fn interaction_density(pairs: u64, entities: usize) -> f64 {
    if entities == 0 {
        0.0
    } else {
        pairs as f64 / entities as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Position;
    use mmog_util::rng::Rng64;

    /// Brute-force reference for the exact counter.
    fn brute_force(positions: &[Position], radius: f64) -> u64 {
        let r2 = radius * radius;
        let mut pairs = 0;
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                let dx = positions[i].x - positions[j].x;
                let dy = positions[i].y - positions[j].y;
                if dx * dx + dy * dy <= r2 {
                    pairs += 1;
                }
            }
        }
        pairs
    }

    #[test]
    fn exact_matches_brute_force_random() {
        let grid = ZoneGrid::new(100.0, 8);
        let mut rng = Rng64::seed_from(5);
        let positions: Vec<Position> = (0..200)
            .map(|_| Position::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)))
            .collect();
        for radius in [0.5, 3.0, 12.5, 40.0] {
            assert_eq!(
                count_pairs_exact(&grid, &positions, radius),
                brute_force(&positions, radius),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn exact_zero_radius_counts_coincident_only() {
        let grid = ZoneGrid::new(10.0, 2);
        let positions = vec![
            Position::new(1.0, 1.0),
            Position::new(1.0, 1.0),
            Position::new(5.0, 5.0),
        ];
        assert_eq!(count_pairs_exact(&grid, &positions, 0.0), 1);
    }

    #[test]
    fn exact_empty_and_single() {
        let grid = ZoneGrid::new(10.0, 2);
        assert_eq!(count_pairs_exact(&grid, &[], 5.0), 0);
        assert_eq!(count_pairs_exact(&grid, &[Position::new(1.0, 1.0)], 5.0), 0);
    }

    #[test]
    fn exact_cross_cell_pairs_found() {
        // Two entities straddling a cell border, well within radius.
        let grid = ZoneGrid::new(100.0, 10);
        let positions = vec![Position::new(9.9, 5.0), Position::new(10.1, 5.0)];
        assert_eq!(count_pairs_exact(&grid, &positions, 1.0), 1);
    }

    #[test]
    fn subzone_pairs_formula() {
        // Zones of 0, 1, 2 and 3 entities hold 0, 0, 1 and 3 pairs.
        assert_eq!(count_pairs_subzone(&[0, 1, 2, 3]), 4);
        assert_eq!(count_pairs_subzone(&[]), 0);
        assert_eq!(count_pairs_subzone(&[10]), 45);
    }

    #[test]
    fn clustering_raises_subzone_pairs() {
        // Same population, spread vs. clustered: clustered interacts more.
        let spread = vec![1u32; 100];
        let clustered = {
            let mut v = vec![0u32; 100];
            v[0] = 100;
            v
        };
        assert!(count_pairs_subzone(&clustered) > count_pairs_subzone(&spread) * 100);
    }

    #[test]
    fn density_empty_world() {
        assert_eq!(interaction_density(0, 0), 0.0);
        assert_eq!(interaction_density(10, 5), 2.0);
    }

    #[test]
    fn exact_radius_larger_than_world() {
        let grid = ZoneGrid::new(10.0, 4);
        let positions: Vec<Position> = (0..10).map(|i| Position::new(i as f64, i as f64)).collect();
        // Every pair is within radius: 10*9/2 = 45.
        assert_eq!(count_pairs_exact(&grid, &positions, 100.0), 45);
    }
}
