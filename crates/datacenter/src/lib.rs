//! The data-center model of Sections II-B/II-C and V-A.
//!
//! "The hosting platform considered in our work consists of data centers
//! scattered around the world. … The game operators submit resource
//! requests to the data center, specifying the type and number of
//! resources desired, and the duration for which the resources are
//! needed."
//!
//! - [`resource`] — the four resource types (CPU, memory, ExtNet\[in\],
//!   ExtNet\[out\]) and dense resource vectors measured in the paper's
//!   abstract "units" (one unit = the requirement of a fully loaded
//!   RuneScape game server).
//! - [`policy`] — hosting policies: the resource bulk ("the minimum
//!   number of resources that can be allocated for one request") and the
//!   time bulk ("the minimum duration for which a resource allocation
//!   can be made"), including the HP-1…HP-11 presets of Table IV.
//! - [`center`] — data centers: geo-located machine pools with lease
//!   ledgers enforcing the time bulk (no early release), plus the
//!   fault plane's availability state machine (`Up`/`Degraded`/`Down`)
//!   and revocation-safe lease bookkeeping.
//! - [`locations`] — the Table III experimental platform: ten data
//!   centers over four continents and seven countries.
//! - [`request`] — operator resource requests with latency tolerance.
//! - [`matching`] — the request–offer matching mechanism with the three
//!   criteria of Sec. II-C: sufficient amounts, closest admissible
//!   location, finest-grained/shortest-lease policies first.
//! - [`topology`] — the scenario engine's mutable network view:
//!   center↔center partitions and per-link distance inflation layered
//!   on top of the static geometry (PR 8).
//! - [`federation`] — the hosting platform as one object: the centers,
//!   their topology and one version that every change to either moves.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod center;
pub mod federation;
pub mod locations;
pub mod matching;
pub mod policy;
pub mod request;
pub mod resource;
pub mod topology;

pub use center::{Availability, DataCenter, DataCenterId, DataCenterSpec, Lease, LeaseId};
pub use federation::Federation;
pub use locations::table3_centers;
pub use matching::{
    match_request, MatchOutcome, MatchStats, RejectReason, Rejection, RejectionTotals,
};
pub use policy::HostingPolicy;
pub use request::{OperatorId, ResourceRequest};
pub use resource::{ResourceType, ResourceVector};
pub use topology::Topology;
