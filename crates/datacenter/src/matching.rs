//! The request–offer matching mechanism of Sec. II-C.
//!
//! "The resource allocation is realized by a request-offer matching
//! mechanism based on multiple criteria that favor the game operator. …
//! First, the number and the type of resources requested must match with
//! the offer; when they do not match, the matching mechanism ensures
//! that the offer includes at least the requested amounts. Second,
//! depending on the game latency tolerance, the matching mechanism
//! locates the resources closest to the request. Third, to deal with
//! data center policies, the matching mechanism selects first the finer
//! grained resources with the shorter period of reservation time."
//!
//! The matcher therefore (a) filters the centers admissible under the
//! request's distance class, (b) ranks them by policy granularity, then
//! time bulk, then distance, and (c) fills the request greedily across
//! the ranked list, quantising each grant to the center's bulks. The
//! effect seen in Sec. V-E — "the resources of the data centers with
//! unsuitable hosting policies \[are\] unused when suitable alternatives
//! exist" — emerges from this ranking.

use crate::center::{Availability, DataCenter, LeaseId};
use crate::federation::Federation;
use crate::request::ResourceRequest;
use crate::resource::ResourceVector;
use mmog_obs::{counter, histogram, Counter, Domain, Histogram, Registry, SpanStat};
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::SimTime;
use std::sync::Arc;
use std::time::Instant;

/// One grant resulting from a match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Index of the data center in the [`Federation`].
    pub center_index: usize,
    /// The lease created.
    pub lease: LeaseId,
    /// The amounts granted (bulk-rounded).
    pub amounts: ResourceVector,
    /// Distance from the request origin, km.
    pub distance_km: f64,
}

/// Why a particular center contributed nothing to a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The center lies outside the request's latency tolerance class.
    Distance,
    /// The center was admissible but its free pool could not supply a
    /// single whole bulk of any still-needed resource.
    Exhausted,
    /// The bulk-rounded amounts were computed but the center's ledger
    /// refused the lease.
    GrantFailed,
    /// The center is `Down` (full outage) and was not considered.
    Unavailable,
    /// The center sits on the far side of a network partition from the
    /// request's home region (scenario topology) and was unreachable.
    Partitioned,
}

impl RejectReason {
    /// Stable lower-case label used in trace events and metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Distance => "distance",
            Self::Exhausted => "exhausted",
            Self::GrantFailed => "grant_failed",
            Self::Unavailable => "unavailable",
            Self::Partitioned => "partitioned",
        }
    }
}

/// Rejection counts accumulated across many [`match_request`] calls —
/// the per-run aggregate the simulation report carries so rejection
/// causes are visible without replaying the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionTotals {
    /// Centers outside the request's latency tolerance class.
    pub distance: u64,
    /// Admissible centers whose free pool could not supply one bulk.
    pub exhausted: u64,
    /// Centers whose ledger refused the computed lease.
    pub grant_failed: u64,
    /// Centers down due to a fault-plane outage.
    pub unavailable: u64,
    /// Centers cut off by a scenario network partition.
    pub partitioned: u64,
}

impl RejectionTotals {
    /// Counts one rejection.
    pub fn add(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::Distance => self.distance += 1,
            RejectReason::Exhausted => self.exhausted += 1,
            RejectReason::GrantFailed => self.grant_failed += 1,
            RejectReason::Unavailable => self.unavailable += 1,
            RejectReason::Partitioned => self.partitioned += 1,
        }
    }

    /// Adds another total into this one.
    pub fn merge(&mut self, other: &RejectionTotals) {
        self.distance += other.distance;
        self.exhausted += other.exhausted;
        self.grant_failed += other.grant_failed;
        self.unavailable += other.unavailable;
        self.partitioned += other.partitioned;
    }

    /// Grand total across all reasons.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.distance + self.exhausted + self.grant_failed + self.unavailable + self.partitioned
    }
}

/// One center that was considered but granted nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Index of the data center in the [`Federation`].
    pub center_index: usize,
    /// Why it contributed nothing.
    pub reason: RejectReason,
}

impl Rejection {
    fn new(center_index: usize, reason: RejectReason) -> Self {
        Self {
            center_index,
            reason,
        }
    }
}

/// Outcome of matching one request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchOutcome {
    /// Grants made, in allocation order.
    pub grants: Vec<Grant>,
    /// Amounts that no admissible center could supply.
    pub unmet: ResourceVector,
    /// Centers considered but granting nothing, in consideration order
    /// (distance rejections first, then ranked-list rejections).
    pub rejections: Vec<Rejection>,
}

impl MatchOutcome {
    /// Total amounts granted across all centers.
    #[must_use]
    pub fn granted(&self) -> ResourceVector {
        self.grants
            .iter()
            .fold(ResourceVector::ZERO, |acc, g| acc + g.amounts)
    }

    /// True when the full request was satisfied.
    #[must_use]
    pub fn fully_met(&self) -> bool {
        self.unmet.is_negligible(1e-9)
    }
}

/// The matcher's tallies for one run, published into the registry
/// current when the value is built: the semantic counters, a
/// grants-per-request histogram and the `datacenter/match` timer.
///
/// Recording a request or a call bumps plain `u64` tallies — matching
/// is serial, so nothing contends for them, and a per-request atomic
/// update and histogram record would cost more than the bookkeeping is
/// worth. [`flush`](Self::flush) publishes the tallies and zeroes them;
/// the engine flushes at the end of every settle stage, and dropping
/// the value flushes too (which covers the one-shot [`match_request`]).
/// Nothing is visible in the registry before a flush.
///
/// A flush registers exactly the instruments per-request recording
/// would have: `match.requests`, `match.grants` and the histogram once
/// any request was matched, `match.unmet_requests` and each
/// `match.rejections.<reason>` only once it occurred, and the timer
/// once any call was timed. Every grant count is kept exactly, so the
/// histogram's counts, sum, min and max equal per-request recording.
#[derive(Debug)]
pub struct MatchStats {
    registry: Registry,
    timer: Option<Arc<SpanStat>>,
    /// `match.requests`, `match.grants`, `match.unmet_requests`, then
    /// one `match.rejections.<reason>` per [`RejectReason`] in order.
    counters: [Option<Arc<Counter>>; 8],
    per_request: Option<Arc<Histogram>>,
    /// Unpublished tallies, in `counters` order.
    counts: [u64; 8],
    /// Unpublished requests by number of grants: `grants[g]` requests
    /// received `g` grants.
    grants: Vec<u64>,
    /// Unpublished timed calls: count, total and longest nanoseconds.
    calls: (u64, u64, u64),
}

impl MatchStats {
    /// Stats recording into the current registry.
    #[must_use]
    pub fn current() -> Self {
        Self {
            registry: Registry::current(),
            timer: None,
            counters: Default::default(),
            per_request: None,
            counts: [0; 8],
            grants: Vec::new(),
            calls: (0, 0, 0),
        }
    }

    fn record(&mut self, grants: usize, unmet: bool, rejections: &[Rejection]) {
        self.counts[0] += 1;
        self.counts[1] += grants as u64;
        self.counts[2] += u64::from(unmet);
        for r in rejections {
            self.counts[3 + r.reason as usize] += 1;
        }
        if grants >= self.grants.len() {
            self.grants.resize(grants + 1, 0);
        }
        self.grants[grants] += 1;
    }

    fn record_call(&mut self, ns: u64) {
        let (calls, total, max) = &mut self.calls;
        *calls += 1;
        *total = total.wrapping_add(ns);
        *max = (*max).max(ns);
    }

    /// Publishes the tallies recorded since the last flush into the
    /// registry and zeroes them.
    pub fn flush(&mut self) {
        let registry = &self.registry;
        if self.counts[0] > 0 {
            for (slot, n) in self.counts.iter_mut().enumerate() {
                // Requests and grants register with the first request;
                // the rest only once they occur.
                if *n == 0 && slot > 1 {
                    continue;
                }
                let counter = || {
                    let name = match slot {
                        0 => "match.requests".to_string(),
                        1 => "match.grants".to_string(),
                        2 => "match.unmet_requests".to_string(),
                        _ => format!("match.rejections.{}", REASONS[slot - 3].label()),
                    };
                    registry.scope(|| counter(&name, Domain::Semantic))
                };
                self.counters[slot].get_or_insert_with(counter).add(*n);
                *n = 0;
            }
            let bounds = [0.5, 1.5, 2.5, 4.5, 8.5];
            let name = "match.grants_per_request";
            let histogram = || registry.scope(|| histogram(name, Domain::Semantic, &bounds));
            let histogram = self.per_request.get_or_insert_with(histogram);
            for (grants, n) in self.grants.iter_mut().enumerate() {
                histogram.record_n(grants as f64, *n);
                *n = 0;
            }
        }
        let (calls, total, max) = std::mem::take(&mut self.calls);
        if calls > 0 {
            let timer = || registry.scope(|| mmog_obs::timer("datacenter/match"));
            self.timer
                .get_or_insert_with(timer)
                .record_batch(calls, total, max);
        }
    }
}

impl Drop for MatchStats {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Every [`RejectReason`], in discriminant order.
const REASONS: [RejectReason; 5] = [
    RejectReason::Distance,
    RejectReason::Exhausted,
    RejectReason::GrantFailed,
    RejectReason::Unavailable,
    RejectReason::Partitioned,
];

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The offer-preference comparator of Sec. II-C: finer policy
/// granularity first, then shorter time bulk, then closest. Shared by
/// the one-shot matcher and the candidate index so both rank candidates
/// identically.
fn preference_order(
    centers: &[DataCenter],
    (i, di): (usize, f64),
    (j, dj): (usize, f64),
) -> std::cmp::Ordering {
    let (pi, pj) = (&centers[i].spec.policy, &centers[j].spec.policy);
    pi.granularity()
        .partial_cmp(&pj.granularity())
        .expect("granularities are finite")
        .then(pi.time_bulk.cmp(&pj.time_bulk))
        .then(di.partial_cmp(&dj).expect("distances are finite"))
}

/// Greedily fills `request` across the pre-ranked candidate list,
/// quantising each grant to the center's bulks, into a caller-owned
/// outcome (grants cleared here). `out.rejections` arrives holding the
/// phase-1 (availability/partition/distance) rejections and leaves with
/// the fill-loop (exhausted/grant-failed) rejections appended — exactly
/// the consideration order the one-shot matcher reports. Reusing one
/// outcome's buffers keeps the provisioner's per-tick steady state free
/// of per-request vector allocations.
fn fill_ranked(
    centers: &mut [DataCenter],
    ranked: &[(usize, f64)],
    request: &ResourceRequest,
    now: SimTime,
    out: &mut MatchOutcome,
    stats: &mut MatchStats,
) {
    let mut remaining = request.amounts.clamp_non_negative();
    out.grants.clear();
    for &(idx, distance_km) in ranked {
        if remaining.is_negligible(1e-9) {
            break;
        }
        // The policy and free pool are read under a shared borrow; the
        // ledger is only reborrowed mutably for the grant itself (no
        // per-candidate policy clone).
        let center = &centers[idx];
        let policy = &center.spec.policy;
        let free = center.free();
        // Per resource: round the remaining need up to the bulk grid,
        // but never beyond what the free pool can supply in whole bulks.
        let grant_amounts = remaining.map(|r, want| {
            if want <= 0.0 {
                return 0.0;
            }
            let rounded = policy.round_up(r, want);
            if rounded <= free.get(r) + 1e-9 {
                rounded
            } else {
                policy.round_down(r, free.get(r))
            }
        });
        if grant_amounts.is_negligible(1e-9) {
            out.rejections
                .push(Rejection::new(idx, RejectReason::Exhausted));
            continue;
        }
        if let Some(lease) = centers[idx].grant(request.operator, grant_amounts, now) {
            remaining = (remaining - grant_amounts).clamp_non_negative();
            out.grants.push(Grant {
                center_index: idx,
                lease,
                amounts: grant_amounts,
                distance_km,
            });
        } else {
            out.rejections
                .push(Rejection::new(idx, RejectReason::GrantFailed));
        }
    }
    out.unmet = remaining;
    let unmet = !remaining.is_negligible(1e-9);
    stats.record(out.grants.len(), unmet, &out.rejections);
}

/// The request's backbone ingress: the center nearest its origin by
/// raw great-circle distance (lowest index breaks ties). Partition
/// reachability and link factors are evaluated from this center's
/// vantage point. Returns 0 for an empty platform.
fn home_center(centers: &[DataCenter], origin: &GeoPoint) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in centers.iter().enumerate() {
        let d = c.distance_km(origin);
        if d < best_d {
            best = i;
            best_d = d;
        }
    }
    best
}

/// Matches one request against the federation, mutating its centers'
/// lease ledgers. See the module docs for the criteria ordering.
///
/// Candidates across a partition from the request's home center (the
/// center nearest its origin) are rejected as
/// [`RejectReason::Partitioned`], and distances are inflated by the
/// per-link factor before the tolerance check and the ranking
/// ([`Grant::distance_km`] carries the effective distance). Under the
/// nominal topology distances stay exactly as measured.
///
/// This is the one-shot reference: it re-ranks the whole platform on
/// every call, and builds a [`MatchStats`] on the current registry
/// every call too, published when the call returns. A provisioner
/// issuing many requests with a fixed origin and tolerance should hold
/// a [`CandidateIndex`] and call [`match_request_indexed`] instead —
/// same result, without the per-request rescan.
pub fn match_request(
    platform: &mut Federation,
    request: &ResourceRequest,
    now: SimTime,
) -> MatchOutcome {
    let mut stats = MatchStats::current();
    let start = Instant::now();
    // Rank admissible centers: finer granularity, shorter time bulk,
    // then closest (the Sec. II-C criteria, operator-favouring order).
    let (centers, topology) = (platform.centers(), platform.topology());
    let mut rejections = Vec::new();
    let home = home_center(centers, &request.origin);
    let mut ranked: Vec<(usize, f64)> = centers
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let d = topology.effective_distance(home, i, c.distance_km(&request.origin));
            let reason = if c.availability() == Availability::Down {
                RejectReason::Unavailable
            } else if !topology.reachable(home, i) {
                RejectReason::Partitioned
            } else if !request.tolerance.admits(d) {
                RejectReason::Distance
            } else {
                return Some((i, d));
            };
            rejections.push(Rejection::new(i, reason));
            None
        })
        .collect();
    ranked.sort_by(|&a, &b| preference_order(centers, a, b));
    let mut out = MatchOutcome {
        rejections,
        ..MatchOutcome::default()
    };
    fill_ranked(
        platform.centers_mut(),
        &ranked,
        request,
        now,
        &mut out,
        &mut stats,
    );
    stats.record_call(ns_since(start));
    out
}

/// A per-requester view of the platform that caches the Sec. II-C
/// candidate ranking between requests.
///
/// The static geometry — the requester's home center and the raw
/// distance to every center — is computed once, at the first match.
/// Whenever the federation's [`version`](Federation::version) has moved
/// since, the index re-applies link factors and reachability, re-sorts
/// the admissible candidates and re-derives the phase-1 rejections; in
/// an undisturbed run every later request goes straight to the fill
/// loop. An index serves one `(origin, tolerance)` requester — one per
/// server group — on one federation.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    origin: GeoPoint,
    tolerance: DistanceClass,
    /// Federation version the tables below reflect (`None` before the
    /// first match).
    version: Option<u64>,
    /// Home center and raw origin→center distances, by center index.
    home: usize,
    raw_km: Vec<f64>,
    /// Phase-1 rejections (availability/partition/distance,
    /// center-index order) at `version`.
    rejections: Vec<Rejection>,
    /// Admissible candidates in preference order at `version`.
    ranked: Vec<(usize, f64)>,
}

impl CandidateIndex {
    /// Creates an empty index for one requester. The first
    /// [`match_request_indexed`] call populates it.
    #[must_use]
    pub fn new(origin: GeoPoint, tolerance: DistanceClass) -> Self {
        Self {
            origin,
            tolerance,
            version: None,
            home: 0,
            raw_km: Vec::new(),
            rejections: Vec::new(),
            ranked: Vec::new(),
        }
    }

    /// Re-derives the phase-1 rejections and the ranked admissible list
    /// at the federation's current version (geometry first, on the
    /// first match).
    fn refresh(&mut self, platform: &Federation) {
        let (centers, topology) = (platform.centers(), platform.topology());
        if self.version.is_none() {
            self.home = home_center(centers, &self.origin);
            self.raw_km
                .extend(centers.iter().map(|c| c.distance_km(&self.origin)));
        }
        self.rejections.clear();
        self.ranked.clear();
        for (i, c) in centers.iter().enumerate() {
            let d = topology.effective_distance(self.home, i, self.raw_km[i]);
            let reason = if c.availability() == Availability::Down {
                RejectReason::Unavailable
            } else if !topology.reachable(self.home, i) {
                RejectReason::Partitioned
            } else if !self.tolerance.admits(d) {
                RejectReason::Distance
            } else {
                self.ranked.push((i, d));
                continue;
            };
            self.rejections.push(Rejection::new(i, reason));
        }
        // Stable, from center-index order every time, so the ranking
        // depends on the current platform alone, not on the order a
        // previous version left.
        self.ranked
            .sort_by(|&a, &b| preference_order(centers, a, b));
        self.version = Some(platform.version());
    }
}

/// [`match_request`] through a [`CandidateIndex`], writing into a
/// caller-owned outcome: byte-identical grants, rejection order and
/// unmet amounts, but the enumerate-filter-sort phase runs only when
/// the federation's version moved (an availability or topology
/// change), and the outcome's vectors are reused across calls, so a
/// steady-state requester pays no allocation for the match itself.
/// The call is tallied in `stats`, the run's [`MatchStats`].
pub fn match_request_indexed(
    platform: &mut Federation,
    index: &mut CandidateIndex,
    request: &ResourceRequest,
    now: SimTime,
    out: &mut MatchOutcome,
    stats: &mut MatchStats,
) {
    debug_assert!(
        request.origin == index.origin && request.tolerance == index.tolerance,
        "a CandidateIndex serves one (origin, tolerance) requester"
    );
    let start = Instant::now();
    if index.version != Some(platform.version()) {
        index.refresh(platform);
    }
    out.rejections.clear();
    out.rejections.extend_from_slice(&index.rejections);
    fill_ranked(
        platform.centers_mut(),
        &index.ranked,
        request,
        now,
        out,
        stats,
    );
    stats.record_call(ns_since(start));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{DataCenterId, DataCenterSpec};
    use crate::policy::HostingPolicy;
    use crate::request::OperatorId;
    use mmog_util::geo::{DistanceClass, GeoPoint};

    fn center(id: u32, lat: f64, lon: f64, machines: u32, policy: HostingPolicy) -> DataCenter {
        DataCenter::new(DataCenterSpec {
            id: DataCenterId(id),
            name: format!("dc{id}"),
            country: "X".into(),
            continent: "Y".into(),
            location: GeoPoint::new(lat, lon),
            machines,
            machine_capacity: DataCenterSpec::default_machine_capacity(),
            policy,
        })
    }

    fn cpu_req(amount: f64, tolerance: DistanceClass) -> ResourceRequest {
        ResourceRequest::new(
            OperatorId(1),
            ResourceVector::new(amount, 0.0, 0.0, 0.0),
            GeoPoint::new(50.0, 10.0),
            tolerance,
        )
    }

    #[test]
    fn grants_at_least_the_requested_amount() {
        // Criterion 1: "the offer includes at least the requested
        // amounts" — bulk rounding grants upward.
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 10, HostingPolicy::hp(5))]);
        let out = match_request(
            &mut fed,
            &cpu_req(1.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(out.fully_met());
        let granted = out.granted().cpu;
        assert!(granted >= 1.0);
        assert!((granted - 1.11).abs() < 1e-9, "3 bulks of 0.37: {granted}");
    }

    #[test]
    fn distance_filter_respects_tolerance() {
        // One center far away: SameLocation tolerance finds nothing.
        let mut fed = Federation::new(vec![center(0, 0.0, 0.0, 10, HostingPolicy::hp(5))]);
        let out = match_request(
            &mut fed,
            &cpu_req(1.0, DistanceClass::SameLocation),
            SimTime::ZERO,
        );
        assert!(out.grants.is_empty());
        assert!((out.unmet.cpu - 1.0).abs() < 1e-9);
        // VeryFar admits it.
        let out = match_request(
            &mut fed,
            &cpu_req(1.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(out.fully_met());
    }

    #[test]
    fn finer_granularity_preferred_over_distance() {
        // Near center with coarse CPU bulk vs far center with fine bulk:
        // the matcher must pick the fine one first (Sec. V-E's East-coast
        // penalty).
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 10, HostingPolicy::hp(7)), // near, coarse (1.11)
            center(1, 50.0, 40.0, 10, HostingPolicy::hp(3)), // ~2100km, fine (0.22)
        ]);
        let out = match_request(
            &mut fed,
            &cpu_req(0.4, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert_eq!(out.grants.len(), 1);
        assert_eq!(
            out.grants[0].center_index, 1,
            "fine-grained center must win"
        );
    }

    #[test]
    fn shorter_time_bulk_breaks_granularity_ties() {
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 10, HostingPolicy::hp(9)), // 0.37 / 720 min
            center(1, 50.0, 10.5, 10, HostingPolicy::hp(5)), // 0.37 / 180 min
        ]);
        let out = match_request(
            &mut fed,
            &cpu_req(0.3, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert_eq!(out.grants[0].center_index, 1, "shorter lease must win");
    }

    #[test]
    fn closest_breaks_full_ties() {
        let mut fed = Federation::new(vec![
            center(0, 50.0, 20.0, 10, HostingPolicy::hp(5)), // ~700 km
            center(1, 50.0, 10.1, 10, HostingPolicy::hp(5)), // ~7 km
        ]);
        let out = match_request(
            &mut fed,
            &cpu_req(0.3, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert_eq!(out.grants[0].center_index, 1, "closest must win ties");
    }

    #[test]
    fn spills_across_centers_when_first_is_full() {
        // First-ranked center too small: remainder goes to the next.
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 1, HostingPolicy::hp(3)), // fine but tiny (1.2 CPU)
            center(1, 50.0, 11.0, 10, HostingPolicy::hp(5)),
        ]);
        let out = match_request(
            &mut fed,
            &cpu_req(3.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(out.fully_met(), "unmet: {}", out.unmet);
        assert_eq!(out.grants.len(), 2);
        assert_eq!(out.grants[0].center_index, 0);
        assert_eq!(out.grants[1].center_index, 1);
        // The tiny center granted whole bulks only.
        let g0 = out.grants[0].amounts.cpu;
        assert!(
            (g0 / 0.22).fract().abs() < 1e-6,
            "grant {g0} not on bulk grid"
        );
    }

    #[test]
    fn reports_unmet_when_everything_is_full() {
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 1, HostingPolicy::hp(5))]);
        let out = match_request(
            &mut fed,
            &cpu_req(100.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(!out.fully_met());
        assert!(out.unmet.cpu > 90.0);
    }

    #[test]
    fn zero_request_matches_nothing() {
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 10, HostingPolicy::hp(5))]);
        let out = match_request(
            &mut fed,
            &cpu_req(0.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(out.grants.is_empty());
        assert!(out.fully_met());
    }

    #[test]
    fn multi_resource_request_quantised_per_type() {
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 10, HostingPolicy::hp(1))]);
        let req = ResourceRequest::new(
            OperatorId(1),
            ResourceVector::new(0.3, 1.0, 1.0, 0.1),
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
        );
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        assert!(out.fully_met());
        let g = out.granted();
        assert!((g.cpu - 0.5).abs() < 1e-9); // 2 × 0.25
        assert!((g.memory - 1.0).abs() < 1e-9); // n/a bulk → exact
        assert!((g.ext_net_in - 6.0).abs() < 1e-9); // one huge inbound bulk
        assert!((g.ext_net_out - 0.33).abs() < 1e-9);
    }

    #[test]
    fn down_center_skipped_with_unavailable_rejection() {
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 10, HostingPolicy::hp(3)), // finest, but down
            center(1, 50.0, 11.0, 10, HostingPolicy::hp(5)),
        ]);
        let _ = fed.fail(0);
        let out = match_request(
            &mut fed,
            &cpu_req(1.0, DistanceClass::VeryFar),
            SimTime::ZERO,
        );
        assert!(out.fully_met(), "the surviving center covers the request");
        assert!(out.grants.iter().all(|g| g.center_index == 1));
        assert!(out
            .rejections
            .iter()
            .any(|r| r.center_index == 0 && r.reason == RejectReason::Unavailable));
        let mut totals = RejectionTotals::default();
        for r in &out.rejections {
            totals.add(r.reason);
        }
        assert_eq!(totals.unavailable, 1);
        assert_eq!(totals.total(), out.rejections.len() as u64);
    }

    /// Runs the same request sequence through the one-shot matcher and
    /// the indexed matcher on cloned federations, while `mutate` rewires
    /// the topology and availability of both between steps, and asserts
    /// identical outcomes (grants, rejection order, unmet) and
    /// identical end states.
    fn assert_indexed_matches_oneshot(
        centers: Vec<DataCenter>,
        requests: &[ResourceRequest],
        mutate: impl Fn(&mut Federation, usize),
    ) {
        let mut oneshot = Federation::new(centers);
        let mut indexed = oneshot.clone();
        let mut index = CandidateIndex::new(requests[0].origin, requests[0].tolerance);
        let mut b = MatchOutcome::default();
        let mut stats = MatchStats::current();
        for (step, req) in requests.iter().enumerate() {
            mutate(&mut oneshot, step);
            mutate(&mut indexed, step);
            let now = SimTime::from_minutes(step as u64);
            let a = match_request(&mut oneshot, req, now);
            match_request_indexed(&mut indexed, &mut index, req, now, &mut b, &mut stats);
            assert_eq!(a, b, "outcomes diverge at step {step}");
            for (x, y) in oneshot.centers().iter().zip(indexed.centers()) {
                assert_eq!(x.allocated(), y.allocated(), "ledgers diverge at {step}");
                assert_eq!(x.leases(), y.leases());
            }
        }
    }

    #[test]
    fn indexed_matches_oneshot_over_mixed_platform() {
        let centers = vec![
            center(0, 50.0, 10.0, 3, HostingPolicy::hp(7)),
            center(1, 50.0, 40.0, 2, HostingPolicy::hp(3)),
            center(2, 50.0, 10.5, 2, HostingPolicy::hp(5)),
            center(3, 0.0, 0.0, 10, HostingPolicy::hp(1)), // far away
        ];
        let requests: Vec<ResourceRequest> = [0.4, 1.3, 2.0, 0.1, 5.0, 0.7]
            .iter()
            .map(|&amt| cpu_req(amt, DistanceClass::Far))
            .collect();
        assert_indexed_matches_oneshot(centers, &requests, |_, _| {});
    }

    #[test]
    fn indexed_tracks_availability_changes() {
        let centers = vec![
            center(0, 50.0, 10.0, 4, HostingPolicy::hp(3)),
            center(1, 50.0, 11.0, 4, HostingPolicy::hp(5)),
            center(2, 50.0, 12.0, 4, HostingPolicy::hp(7)),
        ];
        let requests: Vec<ResourceRequest> = (0..6)
            .map(|_| cpu_req(0.5, DistanceClass::VeryFar))
            .collect();
        // Fault plane: fail the best center mid-sequence, degrade
        // another, then repair — the index must follow every change.
        assert_indexed_matches_oneshot(centers, &requests, |f, step| match step {
            2 => {
                let _ = f.fail(0);
            }
            3 => f.degrade(1, 0.1),
            4 => {
                f.repair(0);
                f.repair(1);
            }
            _ => {}
        });
    }

    #[test]
    fn stats_register_each_instrument_on_first_use() {
        let registry = Registry::new();
        let mut stats = registry.scope(MatchStats::current);
        let mut fed = Federation::new(vec![center(0, 0.0, 0.0, 10, HostingPolicy::hp(5))]);
        let counters = || -> Vec<(String, u64)> {
            let snap = registry.scope(mmog_obs::snapshot_metrics);
            snap.counters.into_iter().map(|(n, _, v)| (n, v)).collect()
        };
        assert!(
            counters().is_empty(),
            "building the stats registers nothing"
        );
        let req = cpu_req(1.0, DistanceClass::SameLocation);
        let mut index = CandidateIndex::new(req.origin, req.tolerance);
        let mut out = MatchOutcome::default();
        for _ in 0..2 {
            match_request_indexed(
                &mut fed,
                &mut index,
                &req,
                SimTime::ZERO,
                &mut out,
                &mut stats,
            );
        }
        stats.flush();
        let expected = [
            ("match.grants", 0),
            ("match.rejections.distance", 2),
            ("match.requests", 2),
            ("match.unmet_requests", 2),
        ];
        let expected: Vec<(String, u64)> =
            expected.iter().map(|&(n, v)| (n.to_string(), v)).collect();
        assert_eq!(
            counters(),
            expected,
            "only the reasons that occurred register"
        );
        assert_eq!(registry.scope(mmog_obs::snapshot_spans)[0].1.calls, 2);
    }

    /// The per-request recording the tallies replaced: every instrument
    /// updated on every call, each registered on its first use.
    fn record_per_request(registry: &Registry, out: &MatchOutcome) {
        registry.scope(|| {
            let add = |name: &str, n: u64| counter(name, Domain::Semantic).add(n);
            add("match.requests", 1);
            add("match.grants", out.grants.len() as u64);
            if !out.fully_met() {
                add("match.unmet_requests", 1);
            }
            for r in &out.rejections {
                add(&format!("match.rejections.{}", r.reason.label()), 1);
            }
            let bounds = [0.5, 1.5, 2.5, 4.5, 8.5];
            histogram("match.grants_per_request", Domain::Semantic, &bounds)
                .record(out.grants.len() as f64);
        });
    }

    type Published = (
        Vec<(String, Domain, u64)>,
        Vec<(String, Domain, mmog_obs::HistogramSnapshot)>,
    );

    fn published(registry: &Registry) -> Published {
        let snap = registry.scope(mmog_obs::snapshot_metrics);
        (snap.counters, snap.histograms)
    }

    #[test]
    fn tallies_publish_on_flush_equal_to_per_request_recording() {
        let (registry, reference) = (Registry::new(), Registry::new());
        let mut stats = registry.scope(MatchStats::current);
        // Ten one-machine centers around the origin, one far away: big
        // requests spread over many centers (more grants than the
        // histogram's last bound), others exhaust the platform.
        let mut centers: Vec<DataCenter> = (0..10)
            .map(|i| center(i, 50.0, 10.0 + 0.1 * f64::from(i), 1, HostingPolicy::hp(3)))
            .collect();
        centers.push(center(10, 0.0, 0.0, 10, HostingPolicy::hp(5)));
        let mut fed = Federation::new(centers);
        let origin = cpu_req(0.0, DistanceClass::Far).origin;
        let mut index = CandidateIndex::new(origin, DistanceClass::Far);
        let mut out = MatchOutcome::default();
        let amounts = [0.4, 11.0, 0.0, 1.3, 0.1, 2.0, 0.7, 5.0, 0.2];
        for (round, chunk) in amounts.chunks(5).enumerate() {
            for (k, &amount) in chunk.iter().enumerate() {
                let now = SimTime((round * 5 + k) as u64);
                let req = cpu_req(amount, DistanceClass::Far);
                match_request_indexed(&mut fed, &mut index, &req, now, &mut out, &mut stats);
                record_per_request(&reference, &out);
            }
            if round == 0 {
                let (counters, histograms) = published(&registry);
                assert!(counters.is_empty() && histograms.is_empty());
                assert!(registry.scope(mmog_obs::snapshot_spans).is_empty());
            }
            stats.flush();
            assert_eq!(published(&registry), published(&reference), "round {round}");
            let spans = registry.scope(mmog_obs::snapshot_spans);
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].0, "datacenter/match");
            let calls = amounts[..(round * 5 + chunk.len())].len() as u64;
            assert_eq!(spans[0].1.calls, calls);
        }
        let (counters, histograms) = published(&reference);
        let names: Vec<&str> = counters.iter().map(|c| c.0.as_str()).collect();
        assert!(names.contains(&"match.rejections.distance"));
        assert!(names.contains(&"match.rejections.exhausted"));
        assert!(names.contains(&"match.unmet_requests"));
        let grants = &histograms[0].2;
        assert!(grants.max_micros > Some(9_000_000), "{grants:?}");
        assert_eq!(grants.min_micros, Some(0));
    }

    #[test]
    fn flush_folds_timed_calls_like_per_call_records() {
        let registry = Registry::new();
        let mut stats = registry.scope(MatchStats::current);
        let reference = SpanStat::default();
        for ns in [120, 40, 900, 3] {
            stats.record_call(ns);
            reference.record_ns(ns);
        }
        assert!(registry.scope(mmog_obs::snapshot_spans).is_empty());
        stats.flush();
        stats.flush();
        let spans = registry.scope(mmog_obs::snapshot_spans);
        assert_eq!(
            spans,
            vec![("datacenter/match".to_string(), reference.snapshot())]
        );
        assert!(published(&registry).0.is_empty(), "no request, no counter");
    }

    #[test]
    fn one_shot_match_publishes_on_drop() {
        let registry = Registry::new();
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 10, HostingPolicy::hp(5))]);
        let out = registry.scope(|| {
            match_request(
                &mut fed,
                &cpu_req(1.0, DistanceClass::VeryFar),
                SimTime::ZERO,
            )
        });
        let reference = Registry::new();
        record_per_request(&reference, &out);
        assert_eq!(published(&registry), published(&reference));
        assert_eq!(registry.scope(mmog_obs::snapshot_spans)[0].1.calls, 1);
    }

    #[test]
    fn partitioned_centers_rejected_until_heal() {
        // Origin sits on center 0; center 1 is cut off by a partition.
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 1, HostingPolicy::hp(5)), // home, tiny
            center(1, 50.0, 11.0, 10, HostingPolicy::hp(3)), // finest, far side
        ]);
        fed.partition(0b10); // {0} | {1}
        let req = cpu_req(5.0, DistanceClass::VeryFar);
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        assert!(out.grants.iter().all(|g| g.center_index == 0));
        assert!(!out.fully_met(), "home center alone cannot cover 5 CPU");
        assert!(out
            .rejections
            .iter()
            .any(|r| r.center_index == 1 && r.reason == RejectReason::Partitioned));
        let mut totals = RejectionTotals::default();
        for r in &out.rejections {
            totals.add(r.reason);
        }
        assert_eq!(totals.partitioned, 1);
        assert_eq!(totals.total(), out.rejections.len() as u64);
        // Heal: the far side becomes reachable and covers the request.
        fed.heal();
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        assert!(out.fully_met());
        assert!(out.grants.iter().any(|g| g.center_index == 1));
    }

    #[test]
    fn link_degradation_inflates_effective_distance() {
        // Both centers inside Close (<2000 km) nominally; a 4× link
        // factor pushes center 1 beyond the tolerance.
        let mut fed = Federation::new(vec![
            center(0, 50.0, 10.0, 10, HostingPolicy::hp(5)), // home
            center(1, 50.0, 20.0, 10, HostingPolicy::hp(3)), // ~714 km, finest
        ]);
        let req = cpu_req(0.4, DistanceClass::Close);
        let out = match_request(&mut fed.clone(), &req, SimTime::ZERO);
        assert_eq!(
            out.grants[0].center_index, 1,
            "finest center wins nominally"
        );
        fed.set_link_factor(0, 1, 4.0); // 714 km → ~2857 km effective
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        assert!(out.grants.iter().all(|g| g.center_index == 0));
        assert!(out
            .rejections
            .iter()
            .any(|r| r.center_index == 1 && r.reason == RejectReason::Distance));
    }

    #[test]
    fn indexed_tracks_topology_mutations() {
        let centers = vec![
            center(0, 50.0, 10.0, 4, HostingPolicy::hp(3)),
            center(1, 50.0, 11.0, 4, HostingPolicy::hp(5)),
            center(2, 50.0, 12.0, 4, HostingPolicy::hp(7)),
        ];
        let requests: Vec<ResourceRequest> = (0..8)
            .map(|_| cpu_req(0.5, DistanceClass::VeryFar))
            .collect();
        // Partition, degrade a link, fail a center, heal, restore — the
        // index must re-rank on every version bump.
        assert_indexed_matches_oneshot(centers, &requests, |f, step| match step {
            1 => f.partition(0b001),
            2 => f.set_link_factor(0, 1, 8.0),
            3 => {
                let _ = f.fail(2);
            }
            4 => f.heal(),
            5 => {
                f.repair(2);
                f.set_link_factor(0, 1, 1.0);
            }
            _ => {}
        });
    }

    #[test]
    fn negative_amounts_treated_as_zero() {
        let mut fed = Federation::new(vec![center(0, 50.0, 10.0, 10, HostingPolicy::hp(5))]);
        let req = ResourceRequest::new(
            OperatorId(1),
            ResourceVector::new(-5.0, 0.0, 0.0, 0.0),
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
        );
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        assert!(out.grants.is_empty());
        assert!(out.fully_met());
    }
}
