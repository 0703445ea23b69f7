//! Geographic coordinates and the paper's latency-tolerance distance
//! classes.
//!
//! Section V-E assumes "an ideal network behavior, thus the latency
//! between the players and the data centers is exclusively determined by
//! their physical distance", and defines five maximal-distance classes
//! (same location, <1000 km, <2000 km, <4000 km, unbounded). We model
//! locations as WGS-84 latitude/longitude pairs and measure great-circle
//! distance with the haversine formula.

/// Mean Earth radius in kilometres.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A point on the Earth's surface (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude/longitude degrees.
    #[must_use]
    pub const fn new(lat: f64, lon: f64) -> Self {
        Self { lat, lon }
    }

    /// Great-circle distance to another point in kilometres (haversine).
    #[must_use]
    pub fn distance_km(&self, other: &Self) -> f64 {
        let lat1 = self.lat.to_radians();
        let lat2 = other.lat.to_radians();
        let dlat = (other.lat - self.lat).to_radians();
        let dlon = (other.lon - self.lon).to_radians();
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

/// The five latency-tolerance classes of Section V-E, expressed as the
/// maximal allowed player-to-server distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistanceClass {
    /// "users must be handled by resources at the same location" (d ≈ 0 km).
    SameLocation,
    /// Within 1 000 km.
    VeryClose,
    /// Within 2 000 km.
    Close,
    /// Within 4 000 km.
    Far,
    /// "any server can serve any user".
    VeryFar,
}

impl DistanceClass {
    /// All classes, least to most tolerant (the x-axis of Figure 13).
    pub const ALL: [Self; 5] = [
        Self::SameLocation,
        Self::VeryClose,
        Self::Close,
        Self::Far,
        Self::VeryFar,
    ];

    /// Maximum admissible distance in kilometres. `SameLocation` allows a
    /// small slack (50 km) so that co-located centers with slightly
    /// different coordinates still qualify; `VeryFar` is unbounded.
    #[must_use]
    pub fn max_km(self) -> f64 {
        match self {
            Self::SameLocation => 50.0,
            Self::VeryClose => 1_000.0,
            Self::Close => 2_000.0,
            Self::Far => 4_000.0,
            Self::VeryFar => f64::INFINITY,
        }
    }

    /// Whether a separation of `km` kilometres is admissible.
    #[must_use]
    pub fn admits(self, km: f64) -> bool {
        km <= self.max_km()
    }

    /// Human-readable label matching the paper's figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::SameLocation => "Same location (d~0km)",
            Self::VeryClose => "Very close (d<1000km)",
            Self::Close => "Close (d<2000km)",
            Self::Far => "Far (d<4000km)",
            Self::VeryFar => "Very far (d>4000km)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference coordinates for checks.
    const AMSTERDAM: GeoPoint = GeoPoint::new(52.37, 4.90);
    const LONDON: GeoPoint = GeoPoint::new(51.51, -0.13);
    const NEW_YORK: GeoPoint = GeoPoint::new(40.71, -74.01);
    const SYDNEY: GeoPoint = GeoPoint::new(-33.87, 151.21);

    #[test]
    fn zero_distance_to_self() {
        assert!(AMSTERDAM.distance_km(&AMSTERDAM) < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        let d1 = AMSTERDAM.distance_km(&NEW_YORK);
        let d2 = NEW_YORK.distance_km(&AMSTERDAM);
        assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn known_distances_roughly_correct() {
        // Amsterdam–London ≈ 358 km; Amsterdam–New York ≈ 5860 km;
        // London–Sydney ≈ 16990 km.
        let al = AMSTERDAM.distance_km(&LONDON);
        assert!((340.0..380.0).contains(&al), "A-L: {al}");
        let an = AMSTERDAM.distance_km(&NEW_YORK);
        assert!((5700.0..6000.0).contains(&an), "A-NY: {an}");
        let ls = LONDON.distance_km(&SYDNEY);
        assert!((16500.0..17500.0).contains(&ls), "L-S: {ls}");
    }

    #[test]
    fn distance_classes_nest() {
        for w in DistanceClass::ALL.windows(2) {
            assert!(w[0].max_km() < w[1].max_km(), "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn class_admission() {
        assert!(DistanceClass::SameLocation.admits(0.0));
        assert!(!DistanceClass::SameLocation.admits(300.0));
        assert!(DistanceClass::VeryClose.admits(999.0));
        assert!(!DistanceClass::VeryClose.admits(1001.0));
        assert!(DistanceClass::VeryFar.admits(20_000.0));
    }

    #[test]
    fn amsterdam_london_is_very_close_but_not_same() {
        let d = AMSTERDAM.distance_km(&LONDON);
        assert!(!DistanceClass::SameLocation.admits(d));
        assert!(DistanceClass::VeryClose.admits(d));
    }

    #[test]
    fn transatlantic_needs_very_far() {
        let d = AMSTERDAM.distance_km(&NEW_YORK);
        assert!(!DistanceClass::Far.admits(d));
        assert!(DistanceClass::VeryFar.admits(d));
    }
}
