//! The sub-zone grid.
//!
//! Sec. IV-B: "The game world is partitioned into sub-zones; when the
//! size of the sub-zones is small, the load imposed by the sub-zone can
//! be characterized by using only their entity count. The overall entity
//! distribution in the entire game world consists of a map of entity
//! counts for each sub-zone."
//!
//! [`ZoneGrid`] partitions a square world into `grid × grid` equal
//! sub-zones and offers the spatial queries the emulator and the
//! interaction counters need (cell lookup, neighbourhoods, bucketing).

use crate::entity::Position;

/// Index of a sub-zone in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubZoneId(pub u32);

/// A square world partitioned into a regular grid of sub-zones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneGrid {
    /// World edge length in world units.
    world_size: f64,
    /// Sub-zones per edge.
    grid: u32,
}

impl ZoneGrid {
    /// Creates a grid of `grid × grid` sub-zones over a
    /// `world_size × world_size` world.
    ///
    /// # Panics
    /// Panics if `grid == 0` or `world_size <= 0`.
    #[must_use]
    pub fn new(world_size: f64, grid: u32) -> Self {
        assert!(grid > 0, "grid must have at least one sub-zone per edge");
        assert!(world_size > 0.0, "world size must be positive");
        Self { world_size, grid }
    }

    /// World edge length.
    #[must_use]
    pub fn world_size(&self) -> f64 {
        self.world_size
    }

    /// Sub-zones per edge.
    #[must_use]
    pub fn grid(&self) -> u32 {
        self.grid
    }

    /// Total number of sub-zones.
    #[must_use]
    pub fn sub_zone_count(&self) -> usize {
        (self.grid as usize) * (self.grid as usize)
    }

    /// Edge length of one sub-zone.
    #[must_use]
    pub fn cell_size(&self) -> f64 {
        self.world_size / f64::from(self.grid)
    }

    /// Sub-zone containing a position (positions outside the world are
    /// clamped to the border cells).
    #[must_use]
    pub fn locate(&self, pos: &Position) -> SubZoneId {
        let cs = self.cell_size();
        let gx = ((pos.x / cs) as i64).clamp(0, i64::from(self.grid) - 1) as u32;
        let gy = ((pos.y / cs) as i64).clamp(0, i64::from(self.grid) - 1) as u32;
        SubZoneId(gy * self.grid + gx)
    }

    /// Sub-zone containing the point `(x, y)` — the coordinate variant
    /// of [`Self::locate`] for struct-of-arrays callers that keep x and
    /// y in separate columns.
    #[must_use]
    pub fn locate_xy(&self, x: f64, y: f64) -> SubZoneId {
        let cs = self.cell_size();
        let gx = ((x / cs) as i64).clamp(0, i64::from(self.grid) - 1) as u32;
        let gy = ((y / cs) as i64).clamp(0, i64::from(self.grid) - 1) as u32;
        SubZoneId(gy * self.grid + gx)
    }

    /// Grid coordinates `(col, row)` of a sub-zone.
    #[must_use]
    pub fn coords(&self, z: SubZoneId) -> (u32, u32) {
        (z.0 % self.grid, z.0 / self.grid)
    }

    /// Centre position of a sub-zone.
    #[must_use]
    pub fn center(&self, z: SubZoneId) -> Position {
        let (gx, gy) = self.coords(z);
        let cs = self.cell_size();
        Position::new((f64::from(gx) + 0.5) * cs, (f64::from(gy) + 0.5) * cs)
    }

    /// Sub-zones within `radius_cells` Chebyshev distance of `z`
    /// (including `z` itself), clipped at the world border. The union of
    /// these cells covers the area of interest around any point in `z`.
    pub fn neighborhood(&self, z: SubZoneId, radius_cells: u32) -> Vec<SubZoneId> {
        let mut out = Vec::new();
        self.neighborhood_into(z, radius_cells, &mut out);
        out
    }

    /// Like [`Self::neighborhood`] but reuses `out` (cleared first) so
    /// sweep loops stay allocation-free.
    pub fn neighborhood_into(&self, z: SubZoneId, radius_cells: u32, out: &mut Vec<SubZoneId>) {
        let (gx, gy) = self.coords(z);
        let r = i64::from(radius_cells);
        let g = i64::from(self.grid);
        out.clear();
        out.reserve(((2 * r + 1) * (2 * r + 1)) as usize);
        for dy in -r..=r {
            for dx in -r..=r {
                let nx = i64::from(gx) + dx;
                let ny = i64::from(gy) + dy;
                if (0..g).contains(&nx) && (0..g).contains(&ny) {
                    out.push(SubZoneId((ny * g + nx) as u32));
                }
            }
        }
    }

    /// Buckets positions by sub-zone, returning per-sub-zone index lists.
    /// Reused buffers can be passed in for allocation-free hot loops via
    /// [`Self::bucket_into`].
    #[must_use]
    pub fn bucket(&self, positions: &[Position]) -> Vec<Vec<usize>> {
        let mut buckets = vec![Vec::new(); self.sub_zone_count()];
        self.bucket_into(positions, &mut buckets);
        buckets
    }

    /// Like [`Self::bucket`] but reuses `buckets` (cleared, resized).
    pub fn bucket_into(&self, positions: &[Position], buckets: &mut Vec<Vec<usize>>) {
        buckets.resize(self.sub_zone_count(), Vec::new());
        for b in buckets.iter_mut() {
            b.clear();
        }
        for (i, p) in positions.iter().enumerate() {
            buckets[self.locate(p).0 as usize].push(i);
        }
    }

    /// Entity count per sub-zone from a position list — the "map of
    /// entity counts for each sub-zone" the predictors consume.
    #[must_use]
    pub fn count_map(&self, positions: &[Position]) -> Vec<u32> {
        let mut counts = vec![0u32; self.sub_zone_count()];
        for p in positions {
            counts[self.locate(p).0 as usize] += 1;
        }
        counts
    }

    /// Accumulates the count map from paired coordinate columns into a
    /// reusable buffer (cleared and resized first), so struct-of-arrays
    /// hot loops build the Sec. IV-B map with no allocation and two
    /// purely sequential column scans.
    ///
    /// # Panics
    /// Panics if the columns differ in length.
    pub fn count_into(&self, xs: &[f64], ys: &[f64], counts: &mut Vec<u32>) {
        assert_eq!(xs.len(), ys.len(), "coordinate columns must pair up");
        counts.clear();
        counts.resize(self.sub_zone_count(), 0);
        for (&x, &y) in xs.iter().zip(ys) {
            counts[self.locate_xy(x, y).0 as usize] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_corners_and_center() {
        let g = ZoneGrid::new(100.0, 4);
        assert_eq!(g.locate(&Position::new(0.0, 0.0)), SubZoneId(0));
        assert_eq!(g.locate(&Position::new(99.9, 0.0)), SubZoneId(3));
        assert_eq!(g.locate(&Position::new(0.0, 99.9)), SubZoneId(12));
        assert_eq!(g.locate(&Position::new(99.9, 99.9)), SubZoneId(15));
        assert_eq!(g.locate(&Position::new(50.0, 50.0)), SubZoneId(10));
    }

    #[test]
    fn locate_clamps_out_of_world() {
        let g = ZoneGrid::new(100.0, 4);
        assert_eq!(g.locate(&Position::new(-10.0, -10.0)), SubZoneId(0));
        assert_eq!(g.locate(&Position::new(500.0, 500.0)), SubZoneId(15));
    }

    #[test]
    fn coords_center_round_trip() {
        let g = ZoneGrid::new(80.0, 8);
        for i in 0..g.sub_zone_count() as u32 {
            let z = SubZoneId(i);
            let c = g.center(z);
            assert_eq!(g.locate(&c), z, "center of {z:?} must map back");
        }
    }

    #[test]
    fn neighborhood_interior_and_corner() {
        let g = ZoneGrid::new(100.0, 5);
        let interior = g.neighborhood(SubZoneId(12), 1); // centre cell
        assert_eq!(interior.len(), 9);
        let corner = g.neighborhood(SubZoneId(0), 1);
        assert_eq!(corner.len(), 4);
        let zero_radius = g.neighborhood(SubZoneId(7), 0);
        assert_eq!(zero_radius, vec![SubZoneId(7)]);
    }

    #[test]
    fn neighborhood_covers_whole_grid_with_large_radius() {
        let g = ZoneGrid::new(10.0, 3);
        let all = g.neighborhood(SubZoneId(4), 10);
        assert_eq!(all.len(), 9);
    }

    #[test]
    fn count_map_totals_match() {
        let g = ZoneGrid::new(100.0, 10);
        let positions: Vec<Position> = (0..50)
            .map(|i| Position::new((i * 7 % 100) as f64, (i * 13 % 100) as f64))
            .collect();
        let counts = g.count_map(&positions);
        assert_eq!(counts.iter().map(|c| u64::from(*c)).sum::<u64>(), 50);
        assert_eq!(counts.len(), 100);
    }

    #[test]
    fn bucket_matches_count_map() {
        let g = ZoneGrid::new(100.0, 6);
        let positions: Vec<Position> = (0..40)
            .map(|i| Position::new((i * 11 % 100) as f64, (i * 17 % 100) as f64))
            .collect();
        let buckets = g.bucket(&positions);
        let counts = g.count_map(&positions);
        for (b, &c) in buckets.iter().zip(&counts) {
            assert_eq!(b.len() as u32, c);
        }
        // Every index appears exactly once.
        let mut seen: Vec<usize> = buckets.into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn locate_xy_agrees_with_locate() {
        let g = ZoneGrid::new(100.0, 7);
        for i in 0..60 {
            let p = Position::new((i * 13 % 110) as f64 - 5.0, (i * 29 % 110) as f64 - 5.0);
            assert_eq!(g.locate_xy(p.x, p.y), g.locate(&p));
        }
    }

    #[test]
    fn count_into_matches_count_map() {
        let g = ZoneGrid::new(100.0, 9);
        let positions: Vec<Position> = (0..70)
            .map(|i| Position::new((i * 19 % 100) as f64, (i * 23 % 100) as f64))
            .collect();
        let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = positions.iter().map(|p| p.y).collect();
        let mut counts = vec![99; 3]; // stale buffer must be reset
        g.count_into(&xs, &ys, &mut counts);
        assert_eq!(counts, g.count_map(&positions));
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn count_into_rejects_mismatched_columns() {
        let g = ZoneGrid::new(10.0, 2);
        let mut counts = Vec::new();
        g.count_into(&[1.0, 2.0], &[1.0], &mut counts);
    }

    #[test]
    #[should_panic(expected = "at least one sub-zone")]
    fn zero_grid_rejected() {
        let _ = ZoneGrid::new(10.0, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_world_rejected() {
        let _ = ZoneGrid::new(0.0, 4);
    }

    #[test]
    fn cell_size() {
        let g = ZoneGrid::new(160.0, 16);
        assert!((g.cell_size() - 10.0).abs() < 1e-12);
    }
}
