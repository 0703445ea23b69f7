//! Operator resource requests.

use crate::resource::ResourceVector;
use mmog_util::geo::{DistanceClass, GeoPoint};

/// Identifier of a game operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub u32);

/// A request for resources, carrying the demand origin and the game's
/// latency tolerance (Sec. II-C: "depending on the game latency
/// tolerance, the matching mechanism locates the resources closest to
/// the request").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRequest {
    /// The requesting operator.
    pub operator: OperatorId,
    /// Amounts desired, in units (pre-rounding; centers quantise).
    pub amounts: ResourceVector,
    /// Where the demand originates (the players' region).
    pub origin: GeoPoint,
    /// Maximum admissible player-to-server distance.
    pub tolerance: DistanceClass,
}

impl ResourceRequest {
    /// Creates a request.
    #[must_use]
    pub fn new(
        operator: OperatorId,
        amounts: ResourceVector,
        origin: GeoPoint,
        tolerance: DistanceClass,
    ) -> Self {
        Self {
            operator,
            amounts,
            origin,
            tolerance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_carries_fields() {
        let r = ResourceRequest::new(
            OperatorId(3),
            ResourceVector::new(1.0, 2.0, 0.5, 0.25),
            GeoPoint::new(0.0, 0.0),
            DistanceClass::Far,
        );
        assert_eq!(r.operator, OperatorId(3));
        assert_eq!(r.tolerance, DistanceClass::Far);
        assert_eq!(r.amounts.memory, 2.0);
    }
}
