//! Mutable inter-center network topology: partitions and link quality.
//!
//! The paper's matcher treats the federation as a static clique — every
//! center is always reachable and the origin→center great-circle
//! distance is the whole latency story. The scenario engine (PR 8)
//! needs that assumption to be breakable at runtime: backbone links
//! degrade (distance inflation), and center↔center partitions make
//! whole subsets of the federation unreachable from a player's home
//! region until a `heal` event.
//!
//! A [`Topology`] belongs to one [`Federation`], which builds it
//! nominal — every center reachable, every distance exactly as measured
//! (`raw_km × 1.0`) — and is the only caller of its mutators, so every
//! partition, heal or link change moves the federation's version and
//! cached matcher views ([`crate::matching::CandidateIndex`]) know when
//! their ranking is stale. Runs without a scenario never mutate it.
//!
//! # Model
//!
//! - **Partitions** are modelled as component refinement. Every center
//!   carries a component label; `partition(mask)` splits each existing
//!   component into its `mask`-bit-set and `mask`-bit-clear halves, so
//!   arbitrary partition sequences compose. `heal` resets every label
//!   to zero, which makes "heal restores full reachability"
//!   structurally true (see the property test in the crate's test
//!   suite).
//! - **Link quality** is a symmetric per-pair distance multiplier
//!   (default `1.0`). The effective distance used for admission is
//!   `raw great-circle distance × factor(home, candidate)`, where
//!   `home` is the center nearest the request origin — the player's
//!   ingress point into the backbone.
//!
//! [`Federation`]: crate::Federation

/// Mutable network topology over `n` data centers: partition components
/// plus a symmetric link-quality (distance multiplier) matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Partition component label per center; equal labels ⇒ reachable.
    component: Vec<u32>,
    /// Symmetric `n × n` distance multipliers, row-major, default 1.0.
    factor: Vec<f64>,
}

impl Topology {
    /// A fully-connected topology over `n` centers with nominal links.
    #[must_use]
    pub(crate) fn new(n: usize) -> Self {
        Self {
            component: vec![0; n],
            factor: vec![1.0; n * n],
        }
    }

    /// Splits the federation along `mask`: centers whose index bit is
    /// set in `mask` are cut off from centers (of the same current
    /// component) whose bit is clear. Composes with earlier partitions
    /// by refinement; centers at index ≥ 64 land on the clear side.
    pub(crate) fn partition(&mut self, mask: u64) {
        for (i, label) in self.component.iter_mut().enumerate() {
            let side = if i < 64 { (mask >> i) & 1 } else { 0 };
            // Refine: each old component splits into two new labels.
            *label = label.wrapping_mul(2).wrapping_add(side as u32);
        }
        self.normalize_components();
    }

    /// Heals every partition: all centers rejoin component 0. Link
    /// factors are untouched (degraded links heal via
    /// [`set_link_factor`]).
    ///
    /// [`set_link_factor`]: Self::set_link_factor
    pub(crate) fn heal(&mut self) {
        self.component.iter_mut().for_each(|c| *c = 0);
    }

    /// Whether `a` and `b` are in the same partition component.
    /// Out-of-range indices are reachable only from themselves.
    #[must_use]
    pub fn reachable(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        match (self.component.get(a), self.component.get(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// Number of distinct partition components (0 for an empty topology).
    #[must_use]
    pub fn components(&self) -> usize {
        // Labels are normalized to 0..k after every mutation.
        self.component.iter().max().map_or(0, |m| *m as usize + 1)
    }

    /// Whether every pair of centers is mutually reachable.
    #[must_use]
    pub fn fully_connected(&self) -> bool {
        self.components() <= 1
    }

    /// Sets the symmetric distance multiplier of link `a`↔`b` (clamped
    /// to be ≥ 1.0: a degraded link can only look farther, never
    /// closer). Self-links and out-of-range indices are ignored; returns
    /// whether the link was set.
    pub(crate) fn set_link_factor(&mut self, a: usize, b: usize, factor: f64) -> bool {
        let n = self.component.len();
        if a == b || a >= n || b >= n {
            return false;
        }
        let f = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
        self.factor[a * n + b] = f;
        self.factor[b * n + a] = f;
        true
    }

    /// The distance multiplier of link `a`↔`b` (1.0 for self-links and
    /// out-of-range indices).
    #[must_use]
    pub fn link_factor(&self, a: usize, b: usize) -> f64 {
        let n = self.component.len();
        if a == b || a >= n || b >= n {
            return 1.0;
        }
        self.factor[a * n + b]
    }

    /// Effective matching distance from a request whose nearest center
    /// (backbone ingress) is `home` to candidate center `to`, given the
    /// raw origin→candidate great-circle distance.
    #[must_use]
    pub fn effective_distance(&self, home: usize, to: usize, raw_km: f64) -> f64 {
        raw_km * self.link_factor(home, to)
    }

    /// Renumbers component labels densely by first appearance so labels
    /// stay small and `components()` is a max, not a scan of a set.
    fn normalize_components(&mut self) {
        let mut seen: Vec<u32> = Vec::new();
        for label in &mut self.component {
            match seen.iter().position(|s| s == label) {
                Some(i) => *label = i as u32,
                None => {
                    seen.push(*label);
                    *label = (seen.len() - 1) as u32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_topology_is_fully_connected_with_nominal_links() {
        let t = Topology::new(4);
        assert!(t.fully_connected());
        assert_eq!(t.components(), 1);
        for a in 0..4 {
            for b in 0..4 {
                assert!(t.reachable(a, b));
                assert!((t.link_factor(a, b) - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn partition_splits_and_heal_restores() {
        let mut t = Topology::new(4);
        t.partition(0b0011); // {0,1} vs {2,3}
        assert_eq!(t.components(), 2);
        assert!(t.reachable(0, 1));
        assert!(t.reachable(2, 3));
        assert!(!t.reachable(0, 2));
        assert!(!t.reachable(1, 3));
        t.heal();
        assert!(t.fully_connected());
        assert!(t.reachable(0, 3));
    }

    #[test]
    fn partitions_compose_by_refinement() {
        let mut t = Topology::new(4);
        t.partition(0b0011); // {0,1} | {2,3}
        t.partition(0b0101); // refine: {0} | {1} | {2} | {3}
        assert_eq!(t.components(), 4);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.reachable(a, b), a == b);
            }
        }
        // A redundant cut along an existing boundary changes nothing.
        let mut u = Topology::new(4);
        u.partition(0b0011);
        u.partition(0b0011);
        assert_eq!(u.components(), 2);
        assert!(u.reachable(0, 1) && !u.reachable(0, 2));
    }

    #[test]
    fn trivial_masks_do_not_split() {
        let mut t = Topology::new(3);
        t.partition(0); // everyone on the clear side
        assert!(t.fully_connected());
        t.partition(0b0111); // everyone on the set side
        assert!(t.fully_connected());
    }

    #[test]
    fn link_factor_is_symmetric_clamped_and_scales_distance() {
        let mut t = Topology::new(3);
        t.set_link_factor(0, 2, 3.5);
        assert!((t.link_factor(0, 2) - 3.5).abs() < 1e-12);
        assert!((t.link_factor(2, 0) - 3.5).abs() < 1e-12);
        assert!((t.effective_distance(0, 2, 100.0) - 350.0).abs() < 1e-9);
        assert!((t.effective_distance(0, 1, 100.0) - 100.0).abs() < 1e-9);
        // Self-links stay nominal: a player's home center is never
        // pushed away by its own backbone.
        t.set_link_factor(1, 1, 9.0);
        assert!((t.link_factor(1, 1) - 1.0).abs() < 1e-12);
        // Factors below 1.0 (or non-finite) clamp to nominal.
        t.set_link_factor(0, 1, 0.25);
        assert!((t.link_factor(0, 1) - 1.0).abs() < 1e-12);
        t.set_link_factor(0, 1, f64::NAN);
        assert!((t.link_factor(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_indices_are_inert() {
        let mut t = Topology::new(2);
        t.set_link_factor(0, 7, 2.0);
        assert!((t.link_factor(0, 7) - 1.0).abs() < 1e-12);
        assert!(!t.reachable(0, 7));
        assert!(
            t.reachable(7, 7),
            "an index is always reachable from itself"
        );
    }
}
