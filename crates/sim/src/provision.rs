//! Per-server-group provisioning logic.
//!
//! Each server group of a running game is provisioned independently:
//! its operator predicts the group's next-step player count, converts
//! it into resource demand, and adjusts the group's leases — releasing
//! matured surplus leases and requesting the deficit through the
//! matching mechanism. Static provisioning (Sec. V-B's baseline) sizes
//! the group once, at peak capacity, and never adjusts.

use crate::demand::DemandModel;
use mmog_datacenter::center::{Lease, LeaseId};
use mmog_datacenter::matching::{
    match_request_indexed, CandidateIndex, MatchOutcome, MatchStats, RejectionTotals,
};
use mmog_datacenter::request::{OperatorId, ResourceRequest};
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::Federation;
use mmog_predict::traits::Predictor;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A lease held by a group, with the index of the granting center.
#[derive(Debug, Clone, Copy)]
pub struct HeldLease {
    /// Index into the simulation's center list.
    pub center: usize,
    /// The lease (amounts, start, earliest release).
    pub lease: Lease,
    /// Whether the lifecycle plane already observed this lease passing
    /// its earliest-release tick (only maintained while
    /// [`GroupProvisioner::record_lifecycle`] is set).
    pub matured: bool,
}

/// Why a lease left its holder — the `cause` field of `lease_release`
/// lifecycle events. Fault-plane revocations keep their own
/// `lease_revoked` event kind and do not appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseCause {
    /// Phase 1: the lease matured and fit inside the demand surplus.
    Surplus,
    /// Phase 1b: an oversized lease was released to re-request finer.
    Reshape,
    /// The hosting center went down (fault plane).
    CenterDown,
    /// The owning group migrated away from the center (scenario plane).
    Migration,
    /// A region failover drained the center (scenario plane).
    Failover,
    /// The run ended with the lease still held (closure terminal, so
    /// lifecycle reconstruction always reaches 100%).
    RunEnd,
}

impl ReleaseCause {
    /// Stable label used in `lease_release` events.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReleaseCause::Surplus => "surplus",
            ReleaseCause::Reshape => "reshape",
            ReleaseCause::CenterDown => "center_down",
            ReleaseCause::Migration => "migration",
            ReleaseCause::Failover => "failover",
            ReleaseCause::RunEnd => "run_end",
        }
    }
}

/// Per-lease causal detail of the most recent adjustment step, retained
/// only while [`GroupProvisioner::record_lifecycle`] is set: with tracing
/// off the vectors stay empty and the adjust path never touches them.
#[derive(Debug, Clone, Default)]
pub struct LifecycleDetail {
    /// The causal id and requested CPU of the step's matcher request,
    /// when phase 2 issued one.
    pub request: Option<(u64, f64)>,
    /// Leases granted this step, with their granting center index.
    pub grants: Vec<(usize, Lease)>,
    /// Leases released this step (phase 1 surplus or phase 1b reshape).
    pub releases: Vec<(usize, Lease, ReleaseCause)>,
    /// Leases first observed past their earliest-release tick this step.
    pub matured: Vec<(usize, LeaseId)>,
}

impl LifecycleDetail {
    fn clear(&mut self) {
        self.request = None;
        self.grants.clear();
        self.releases.clear();
        self.matured.clear();
    }

    /// Whether the step produced no lifecycle activity at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.request.is_none()
            && self.grants.is_empty()
            && self.releases.is_empty()
            && self.matured.is_empty()
    }
}

/// Outcome of one adjustment step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdjustOutcome {
    /// Leases released this step.
    pub released: usize,
    /// Leases granted this step.
    pub granted: usize,
    /// Whether part of the request could not be met anywhere.
    pub unmet: bool,
    /// Whether a deficit existed but the request was skipped because the
    /// group is backing off after consecutive failures (see
    /// [`GroupProvisioner::retry`]).
    pub deferred: bool,
    /// Per-reason rejection counts from this step's matcher call.
    pub rejections: RejectionTotals,
    /// Whether this step took the idle exit of
    /// [`GroupProvisioner::adjust`] instead of running the
    /// release/reshape/request pipeline. A skipped outcome is otherwise
    /// all-zero by construction.
    pub skipped: bool,
}

/// Backoff after the first consecutive unmet request, in ticks.
const BACKOFF_BASE_TICKS: u64 = 1;
/// Cap on the backoff's doubling exponent.
const BACKOFF_MAX_EXPONENT: u32 = 5;
/// Hard cap on the backoff, in ticks.
const MAX_BACKOFF_TICKS: u64 = 32;

/// Ticks to sit out after `failures` consecutive unmet requests:
/// `BACKOFF_BASE_TICKS << (failures - 1)`, exponent and result capped.
fn backoff_ticks(failures: u32) -> u64 {
    if failures == 0 {
        return 0;
    }
    let exp = (failures - 1).min(BACKOFF_MAX_EXPONENT);
    (BACKOFF_BASE_TICKS << exp).min(MAX_BACKOFF_TICKS)
}

/// Provisioning state for one server group.
pub struct GroupProvisioner {
    /// The operator identity used in leases (one per game × region, so
    /// allocations can be attributed for Figures 13–14).
    pub operator: OperatorId,
    /// Where this group's players are.
    pub origin: GeoPoint,
    /// The game's latency tolerance.
    pub tolerance: DistanceClass,
    /// Player-count → demand conversion.
    pub demand_model: DemandModel,
    /// Multiplier on predicted demand (Sec. V-C suggests "a mechanism
    /// that allocates more than the predicted volume" when even rare
    /// under-allocations cannot be tolerated). 1.0 = allocate exactly
    /// the prediction.
    pub headroom: f64,
    /// When set, [`adjust`] records each step's per-lease causal
    /// detail ([`lifecycle_detail`]) for the engine's trace. Off by
    /// default: the bookkeeping is pure overhead when tracing is
    /// disabled.
    ///
    /// [`adjust`]: Self::adjust
    /// [`lifecycle_detail`]: Self::lifecycle_detail
    pub record_lifecycle: bool,
    /// When set, [`adjust`] applies bounded retry with exponential
    /// backoff to unmet requests: after each consecutive unmet step the
    /// group sits out 1, 2, 4, … ticks (capped at 32) before asking
    /// again, so a platform-wide outage is not hammered with doomed
    /// requests every tick. Only set by fault-injection runs: an
    /// unfaulted simulation keeps the request-every-tick behaviour of
    /// the baseline model.
    ///
    /// [`adjust`]: Self::adjust
    pub retry: bool,
    predictor: Box<dyn Predictor + Send>,
    ledger: HeldLedger,
    /// Ledger positions of the matured leases phase 1 kept, in ledger
    /// order: phase 1b's candidates. Reused across steps.
    kept_matured: Vec<usize>,
    allocated: ResourceVector,
    last_prediction: f64,
    consecutive_unmet: u32,
    backoff_until: SimTime,
    lost: ResourceVector,
    /// Cached matcher view for this group's fixed (origin, tolerance):
    /// candidate ranking survives across ticks instead of being redone
    /// per request.
    index: CandidateIndex,
    /// Reusable matcher outcome: phase 2 writes into these buffers
    /// every step instead of allocating fresh vectors per request (and
    /// [`last_match`] reads it back).
    ///
    /// [`last_match`]: Self::last_match
    match_scratch: MatchOutcome,
    /// Stable causal group id baked into request ids (the engine uses
    /// the group's index).
    causal_group: u64,
    /// Per-group request sequence number; bumped on every matcher
    /// request regardless of tracing so causal ids are identical
    /// whether or not a trace is being written.
    request_seq: u64,
    /// Per-lease causal detail of the most recent step (gated by
    /// [`record_lifecycle`]).
    ///
    /// [`record_lifecycle`]: Self::record_lifecycle
    detail: LifecycleDetail,
}

impl GroupProvisioner {
    /// Creates a provisioner with the given predictor. `causal_group`
    /// names the group's request-id stream (`group << 32 | seq`).
    #[must_use]
    pub fn new(
        operator: OperatorId,
        causal_group: u64,
        origin: GeoPoint,
        tolerance: DistanceClass,
        demand_model: DemandModel,
        headroom: f64,
        predictor: Box<dyn Predictor + Send>,
    ) -> Self {
        Self {
            operator,
            origin,
            tolerance,
            demand_model,
            headroom,
            record_lifecycle: false,
            retry: false,
            predictor,
            ledger: HeldLedger::default(),
            kept_matured: Vec::new(),
            allocated: ResourceVector::ZERO,
            last_prediction: f64::NAN,
            consecutive_unmet: 0,
            backoff_until: SimTime::ZERO,
            lost: ResourceVector::ZERO,
            index: CandidateIndex::new(origin, tolerance),
            match_scratch: MatchOutcome::default(),
            causal_group,
            request_seq: 0,
            detail: LifecycleDetail::default(),
        }
    }

    /// The per-lease causal detail of the most recent [`adjust`] step
    /// (empty unless [`record_lifecycle`] is set).
    ///
    /// [`adjust`]: Self::adjust
    /// [`record_lifecycle`]: Self::record_lifecycle
    #[must_use]
    pub fn lifecycle_detail(&self) -> &LifecycleDetail {
        &self.detail
    }

    /// Every lease the group currently holds, in ledger order (run-end
    /// closure reads this to emit `run_end`-cause release events).
    pub fn held_leases(&self) -> impl ExactSizeIterator<Item = &HeldLease> + '_ {
        self.ledger.iter()
    }

    /// Currently held amounts.
    #[must_use]
    pub fn allocated(&self) -> ResourceVector {
        self.allocated
    }

    /// Number of live leases.
    #[must_use]
    pub fn lease_count(&self) -> usize {
        self.ledger.len()
    }

    /// Feeds the observed player count and returns the demand target
    /// for the next step (predicted players → demand × headroom).
    ///
    /// Predictor outputs are sanitised before they reach the demand
    /// model: a non-finite prediction (NaN/±∞ from a diverged MLP)
    /// falls back to the current observation, and negative predictions
    /// clamp to zero — a group can never be sized from garbage.
    pub fn observe_and_target(&mut self, players_now: f64) -> ResourceVector {
        let raw = self.predictor.observe_predict(players_now);
        let predicted = if raw.is_finite() {
            raw.max(0.0)
        } else {
            players_now.max(0.0)
        };
        self.last_prediction = predicted;
        self.demand_model.demand(predicted) * self.headroom
    }

    /// Like [`observe_and_target`], but ignores the predictor's output
    /// and targets the current observation (last-value fallback). Used
    /// when a fault schedule drops the predictor for a tick: the
    /// observation still feeds the predictor so its history stays warm.
    ///
    /// [`observe_and_target`]: Self::observe_and_target
    pub fn observe_and_target_fallback(&mut self, players_now: f64) -> ResourceVector {
        self.predictor.observe(players_now);
        let predicted = players_now.max(0.0);
        self.last_prediction = predicted;
        self.demand_model.demand(predicted) * self.headroom
    }

    /// The player count predicted by the most recent
    /// [`observe_and_target`] call (NaN before the first one) — the
    /// engine scores it against the next tick's observation.
    ///
    /// [`observe_and_target`]: Self::observe_and_target
    #[must_use]
    pub fn last_prediction(&self) -> f64 {
        self.last_prediction
    }

    /// The matcher outcome of the most recent request. It belongs to
    /// the latest [`adjust`] step only when that step issued a request,
    /// which an [`AdjustOutcome::unmet`] step always did.
    ///
    /// [`adjust`]: Self::adjust
    #[must_use]
    pub fn last_match(&self) -> &MatchOutcome {
        &self.match_scratch
    }

    /// The demand target for a fixed player count (static provisioning).
    #[must_use]
    pub fn static_target(&self, peak_players: f64) -> ResourceVector {
        self.demand_model.demand(peak_players) * self.headroom
    }

    /// Forgets every lease held at `center` (the center failed and the
    /// leases were revoked). Returns the dropped leases; the lost
    /// amounts accumulate in [`lost_capacity`] until the next
    /// [`clear_lost_capacity`].
    ///
    /// [`lost_capacity`]: Self::lost_capacity
    /// [`clear_lost_capacity`]: Self::clear_lost_capacity
    pub fn drop_leases_at_center(&mut self, center: usize) -> Vec<Lease> {
        // One forward pass: after a `swap_remove` the swapped-in lease
        // is examined in place before the scan moves on.
        let mut dropped = Vec::new();
        let mut i = 0;
        while i < self.ledger.len() {
            if self.ledger[i].center == center {
                dropped.push(self.forget(i));
            } else {
                i += 1;
            }
        }
        dropped
    }

    /// Forgets one specific lease (spontaneously revoked by its
    /// center). Returns it if this group held it.
    pub fn drop_lease(&mut self, center: usize, id: LeaseId) -> Option<Lease> {
        let i = self
            .ledger
            .iter()
            .position(|h| h.center == center && h.lease.id == id)?;
        Some(self.forget(i))
    }

    /// Removes held lease `i` after its center revoked it, moving its
    /// amounts from the allocation into the lost-capacity accumulator.
    fn forget(&mut self, i: usize) -> Lease {
        let held = self.ledger.swap_remove(i);
        self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
        self.lost += held.lease.amounts;
        held.lease
    }

    /// Amounts lost to outages/revocations since the last
    /// [`clear_lost_capacity`] — the engine reads this to account
    /// re-provisioning work.
    ///
    /// [`clear_lost_capacity`]: Self::clear_lost_capacity
    #[must_use]
    pub fn lost_capacity(&self) -> ResourceVector {
        self.lost
    }

    /// Resets the lost-capacity accumulator.
    pub fn clear_lost_capacity(&mut self) {
        self.lost = ResourceVector::ZERO;
    }

    /// Adjusts held leases towards `target`: releases matured leases
    /// wholly contained in the surplus, then requests any deficit from
    /// `platform` (partitioned centers are unreachable and degraded
    /// links inflate effective distances; the nominal topology leaves
    /// every distance as measured), tallied in the run's `stats`. A
    /// step that provably has nothing to do returns early
    /// ([`AdjustOutcome::skipped`]).
    pub fn adjust(
        &mut self,
        platform: &mut Federation,
        stats: &mut MatchStats,
        target: &ResourceVector,
        now: SimTime,
    ) -> AdjustOutcome {
        // Every maturity question below is asked at `now`.
        self.ledger.advance(now);
        if self.record_lifecycle {
            // Lifecycle plane: observe newly-matured leases before any
            // step can release them (and before the idle exit, which
            // skips the rest of the walk). Ledger order is
            // deterministic, so the emission order is too.
            self.detail.clear();
            self.ledger.observe_matured(now, &mut self.detail.matured);
        }
        // Idle exit. With no matured lease, phase 1 visits nothing and
        // keeps no candidate for phase 1b; on a start-sorted ledger its
        // re-sort is a no-op; and with a negligible deficit phase 2
        // sends no request and only resets the backoff. The walk would
        // release, reshape, request and reorder nothing, so the backoff
        // reset is all it would do. Nothing here depends on an earlier
        // step.
        if self.ledger.matured_count(now) == 0
            && self.ledger.is_start_sorted()
            && (*target - self.allocated)
                .clamp_non_negative()
                .is_negligible(1e-6)
        {
            if self.retry {
                self.consecutive_unmet = 0;
                self.backoff_until = now;
            }
            return AdjustOutcome {
                skipped: true,
                ..AdjustOutcome::default()
            };
        }
        let mut outcome = AdjustOutcome::default();

        // Phase 1: release surplus. A lease is only released when the
        // time bulk has matured AND dropping it cannot cause a deficit
        // on any resource type.
        let mut surplus = (self.allocated - *target).clamp_non_negative();
        self.kept_matured.clear();
        if !surplus.is_negligible(1e-9) {
            // Oldest first: long-held leases matured first.
            self.ledger.sort_by_start();
            // The walk visits every lease exactly once (a `swap_remove`
            // pulls the unvisited last lease into the cursor's slot),
            // so once the index's matured count has been visited only
            // immature leases remain, and those are never released.
            // Positions below the cursor never move, so `kept_matured`
            // comes out in ledger order.
            let mut matured_left = self.ledger.matured_count(now);
            let mut i = 0;
            while matured_left > 0 {
                let held = self.ledger[i];
                if now < held.lease.earliest_release {
                    i += 1;
                    continue;
                }
                matured_left -= 1;
                if held.lease.amounts.fits_within(&surplus, 1e-9)
                    && platform.centers_mut()[held.center].release(held.lease.id, now)
                {
                    surplus = (surplus - held.lease.amounts).clamp_non_negative();
                    self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
                    self.ledger.swap_remove(i);
                    outcome.released += 1;
                    if self.record_lifecycle {
                        self.detail
                            .releases
                            .push((held.center, held.lease, ReleaseCause::Surplus));
                    }
                } else {
                    self.kept_matured.push(i);
                    i += 1;
                }
            }
        }

        // Phase 1b: reshape. When the remaining surplus is locked inside
        // one oversized lease (granted at a higher demand level), release
        // it and let phase 2 re-request the smaller amount — but only if
        // the re-granted bulk-rounded amounts would actually be smaller,
        // so a stable target never churns. The re-grant is estimated at
        // the finest bulk available anywhere on the platform: a coarse
        // 12-hour lease taken during a spill-over must not survive just
        // because its own center would re-round to the same size. One
        // reshape per step bounds the lease turnover. Only matured
        // leases qualify, and a surplus this large means phase 1 ran and
        // recorded every one it kept.
        if !surplus.is_negligible(1e-6) {
            let finest = platform.finest_bulks();
            // `ALL` lists the types in declaration order, so a type's
            // discriminant is its index there.
            let finest_round = |v: &ResourceVector| {
                v.map(|r, amount| match finest[r as usize] {
                    _ if amount <= 0.0 => 0.0,
                    None => amount,
                    Some(b) => (amount / b).ceil() * b,
                })
            };
            let mut best: Option<(usize, f64)> = None;
            for &i in &self.kept_matured {
                let held = &self.ledger[i];
                let after_release = (self.allocated - held.lease.amounts).clamp_non_negative();
                let deficit = (*target - after_release).clamp_non_negative();
                let regrant = finest_round(&deficit);
                let gain = held.lease.amounts.total() - regrant.total();
                if gain > 1e-6 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            if let Some((i, _)) = best {
                let held = self.ledger[i];
                if platform.centers_mut()[held.center].release(held.lease.id, now) {
                    self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
                    self.ledger.swap_remove(i);
                    outcome.released += 1;
                    if self.record_lifecycle {
                        self.detail
                            .releases
                            .push((held.center, held.lease, ReleaseCause::Reshape));
                    }
                }
            }
        }

        // Phase 2: request the deficit.
        let deficit = (*target - self.allocated).clamp_non_negative();
        if !deficit.is_negligible(1e-6) {
            if self.retry && now < self.backoff_until {
                // Backing off after consecutive failures: skip the
                // doomed request and report the deferral.
                outcome.deferred = true;
                return outcome;
            }
            // Causal request id: group in the high 32 bits, a per-group
            // sequence number in the low 32. Minted unconditionally so
            // the ids are identical whether or not a trace is written.
            self.request_seq = self.request_seq.wrapping_add(1);
            let request_id = (self.causal_group << 32) | (self.request_seq & 0xffff_ffff);
            if self.record_lifecycle {
                self.detail.request = Some((request_id, deficit.cpu));
            }
            let request = ResourceRequest::new(self.operator, deficit, self.origin, self.tolerance);
            let matched = &mut self.match_scratch;
            match_request_indexed(platform, &mut self.index, &request, now, matched, stats);
            for grant in &matched.grants {
                let lease = *platform.centers()[grant.center_index]
                    .lease(grant.lease)
                    .expect("grant refers to a live lease");
                self.allocated += grant.amounts;
                self.ledger.push(HeldLease {
                    center: grant.center_index,
                    lease,
                    matured: false,
                });
                outcome.granted += 1;
                if self.record_lifecycle {
                    self.detail.grants.push((grant.center_index, lease));
                }
            }
            for rejection in &matched.rejections {
                outcome.rejections.add(rejection.reason);
            }
            outcome.unmet = !matched.fully_met();
            if self.retry {
                if outcome.unmet {
                    self.consecutive_unmet = self.consecutive_unmet.saturating_add(1);
                    // Sitting out N ticks: the next attempt happens at
                    // now + N + 1 (the first tick past the skipped ones).
                    self.backoff_until =
                        now + SimDuration(backoff_ticks(self.consecutive_unmet) + 1);
                } else {
                    self.consecutive_unmet = 0;
                    self.backoff_until = now;
                }
            }
        } else if self.retry {
            // No deficit: the group is whole again, reset the backoff.
            self.consecutive_unmet = 0;
            self.backoff_until = now;
        }
        outcome
    }
}

/// Stable in-place sort of a held-lease ledger by grant time, equal to
/// `leases.sort_by_key(|h| h.lease.start)` element for element (ties
/// keep their ledger order) but without the scratch buffer std's
/// stable sort heap-allocates for longer slices.
///
/// Phase 1 keeps the ledger start-sorted except where a `swap_remove`
/// moved a newer lease into an earlier hole. Walking from the back,
/// the suffix is already sorted; each out-of-place lease moves right
/// past every strictly earlier start in one `rotate_left`, landing in
/// front of its equals — which is what stability demands, since it
/// preceded them. [`HeldLedger::sort_by_start`] runs the same rotations
/// over the part of the ledger that can hold a descent; this full pass
/// is the reference it is tested against.
pub fn sort_held_by_start(leases: &mut [HeldLease]) {
    for i in (0..leases.len().saturating_sub(1)).rev() {
        let start = leases[i].lease.start;
        if start <= leases[i + 1].lease.start {
            continue;
        }
        let end = i + 1 + leases[i + 1..].partition_point(|h| h.lease.start < start);
        leases[i..end].rotate_left(1);
    }
}

/// A group's held leases in their physical order, with a maturity
/// index kept in step with it.
///
/// The order is the one [`GroupProvisioner::adjust`] has always
/// produced: grants append, and every removal is a `swap_remove`. It is
/// kept as 16-byte `(grant time, slot)` keys over a slab of
/// [`HeldLease`] records with a free list, so a `swap_remove` and the
/// re-sort's rotations move keys rather than whole records, and the
/// re-sort reads the grant times without an indirection. Next to the
/// order the ledger keeps
///
/// - the held leases' `earliest_release` times as a sorted multiset
///   with a cursor at the horizon of the last [`advance`](Self::advance):
///   at the horizon, "how many leases have matured" is an O(1) read,
///   and a matured lease's removal only shifts the short matured
///   prefix. Grants append, since their
///   maturity is almost always the latest; an out-of-order time bulk
///   falls back to a sorted insert;
/// - the exact number of *descents* (adjacent keys whose grant times
///   are out of order) and an upper bound on the highest one, so the
///   re-sort runs only over the pairs a `swap_remove` or a grant can
///   have disturbed;
/// - the number of leases flagged [`HeldLease::matured`].
///
/// [`push`](Self::push) and [`swap_remove`](Self::swap_remove) are the
/// only mutators and keep all of it exact; debug builds recount it
/// after every mutation, in a few passes over the ledger (for which
/// each slot keeps a back-pointer to its key). Leases are read by
/// position (`ledger[i]`) or through [`iter`](Self::iter).
#[derive(Debug, Default)]
pub struct HeldLedger {
    /// The physical order: grant time and slab slot of each lease.
    order: Vec<(SimTime, u32)>,
    /// Lease records by slot; the slots on `free` hold stale records.
    slab: Vec<HeldLease>,
    free: Vec<u32>,
    /// `earliest_release` of every held lease, ascending.
    releases: VecDeque<SimTime>,
    /// The time of the last `advance`.
    horizon: SimTime,
    /// Entries of `releases` at or before `horizon`.
    cursor: usize,
    /// Pairs `k` with `order[k].0 > order[k + 1].0`.
    descents: usize,
    /// No descent sits at a pair above this index.
    descent_hi: usize,
    /// Leases with the `matured` flag set.
    flagged: usize,
    /// Debug builds only: each slot's key position in `order`, or
    /// [`FREE_SLOT`] while the slot is on `free`.
    #[cfg(debug_assertions)]
    debug_pos: Vec<u32>,
    /// Debug builds only: the recount's per-entry tally of `releases`,
    /// as long as the slab so that the recount never allocates.
    #[cfg(debug_assertions)]
    debug_tally: Vec<u32>,
}

/// [`HeldLedger`]'s debug back-pointer of a slot on the free list.
#[cfg(debug_assertions)]
const FREE_SLOT: u32 = u32::MAX;

impl std::ops::Index<usize> for HeldLedger {
    type Output = HeldLease;

    fn index(&self, i: usize) -> &HeldLease {
        &self.slab[self.order[i].1 as usize]
    }
}

impl HeldLedger {
    /// Number of held leases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ledger holds no lease.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The held leases in physical order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &HeldLease> + '_ {
        self.order
            .iter()
            .map(|&(_, slot)| &self.slab[slot as usize])
    }

    /// Appends a lease.
    ///
    /// # Panics
    /// Panics if the ledger would hold more than `u32::MAX` leases.
    pub fn push(&mut self, held: HeldLease) {
        let release_at = held.lease.earliest_release;
        if self.releases.back().is_none_or(|&t| t <= release_at) {
            self.releases.push_back(release_at);
        } else {
            let at = self.releases.partition_point(|&t| t <= release_at);
            self.releases.insert(at, release_at);
        }
        self.cursor += usize::from(release_at <= self.horizon);
        self.flagged += usize::from(held.matured);
        let slot = if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = held;
            slot
        } else {
            self.slab.push(held);
            #[cfg(debug_assertions)]
            {
                self.debug_pos.push(FREE_SLOT);
                self.debug_tally.push(0);
            }
            u32::try_from(self.slab.len() - 1).expect("at most u32::MAX held leases")
        };
        self.order.push((held.lease.start, slot));
        #[cfg(debug_assertions)]
        self.debug_repoint(self.order.len() - 1..self.order.len());
        let pair = self.order.len().wrapping_sub(2);
        if self.descent_at(pair) {
            self.descents += 1;
            self.descent_hi = self.descent_hi.max(pair);
        }
        self.debug_check();
    }

    /// Removes lease `i`, moving the last lease into its slot.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn swap_remove(&mut self, i: usize) -> HeldLease {
        let last = self.order.len() - 1;
        // Only the pairs around `i` and the vanishing last pair change.
        let mut before = self.descents_around(i);
        if i + 1 < last {
            before += usize::from(self.descent_at(last - 1));
        }
        let (_, slot) = self.order.swap_remove(i);
        #[cfg(debug_assertions)]
        {
            self.debug_pos[slot as usize] = FREE_SLOT;
            // The last key, if another, now sits at `i`.
            self.debug_repoint(i..self.order.len().min(i + 1));
        }
        let after = self.descents_around(i);
        self.descents = self.descents + after - before;
        if after > 0 {
            self.descent_hi = self.descent_hi.max(i);
        }
        self.free.push(slot);
        let held = self.slab[slot as usize];
        // A matured lease sits in the prefix below the cursor: the
        // removal shifts only that prefix.
        let release_at = held.lease.earliest_release;
        let (lo, hi) = if release_at <= self.horizon {
            self.cursor -= 1;
            (0, self.cursor + 1)
        } else {
            (self.cursor, self.releases.len())
        };
        let at = self.first_at_or_after(lo, hi, release_at);
        self.releases.remove(at);
        self.flagged -= usize::from(held.matured);
        self.debug_check();
        held
    }

    /// Moves the maturity horizon to `now`. Forward moves step the
    /// cursor over the newly matured entries; a move back re-searches.
    pub fn advance(&mut self, now: SimTime) {
        if now < self.horizon {
            self.cursor = self.releases.partition_point(|&t| t <= now);
        } else {
            while self.releases.get(self.cursor).is_some_and(|&t| t <= now) {
                self.cursor += 1;
            }
        }
        self.horizon = now;
        self.debug_check();
    }

    /// Leases whose time bulk has matured by `now`: a read of the
    /// cursor at the horizon, a binary search anywhere else.
    #[must_use]
    pub fn matured_count(&self, now: SimTime) -> usize {
        if now == self.horizon {
            self.cursor
        } else {
            self.releases.partition_point(|&t| t <= now)
        }
    }

    /// Whether the leases are in grant-time order.
    #[must_use]
    pub fn is_start_sorted(&self) -> bool {
        self.descents == 0
    }

    /// Sorts the leases by grant time, stably: the result equals
    /// [`sort_held_by_start`] (and so `sort_by_key`) element for
    /// element. It runs the same back-to-front rotations on the keys,
    /// but starts at the highest pair that can hold a descent and stops
    /// once none is left, so a sorted ledger costs nothing.
    pub fn sort_by_start(&mut self) {
        if self.descents == 0 {
            return;
        }
        let hi = self.descent_hi.min(self.order.len() - 2);
        for i in (0..=hi).rev() {
            let order = &mut self.order;
            let start = order[i].0;
            if start <= order[i + 1].0 {
                continue;
            }
            let end = i + 1 + order[i + 1..].partition_point(|k| k.0 < start);
            // The rotation clears the descent at `i` and can change
            // only the pair above it; the block it shifts stays sorted.
            let above_before = i > 0 && order[i - 1].0 > start;
            order[i..end].rotate_left(1);
            let above_after = i > 0 && order[i - 1].0 > order[i].0;
            #[cfg(debug_assertions)]
            self.debug_repoint(i..end);
            self.descents =
                self.descents + usize::from(above_after) - 1 - usize::from(above_before);
            if self.descents == 0 {
                break;
            }
        }
        self.descent_hi = 0;
        self.debug_check();
    }

    /// Flags every lease matured by `now` that is not flagged yet and
    /// reports it in ledger order. Scans only when the index shows such
    /// a lease exists (`now` never decreases between calls, so every
    /// flagged lease counts among the matured ones).
    fn observe_matured(&mut self, now: SimTime, out: &mut Vec<(usize, LeaseId)>) {
        if self.matured_count(now) == self.flagged {
            return;
        }
        for &(_, slot) in &self.order {
            let held = &mut self.slab[slot as usize];
            if !held.matured && now >= held.lease.earliest_release {
                held.matured = true;
                self.flagged += 1;
                out.push((held.center, held.lease.id));
            }
        }
        self.debug_check();
    }

    /// The first index in `lo..hi` whose release time is at or after
    /// `t` (`hi` when none is).
    fn first_at_or_after(&self, mut lo: usize, mut hi: usize, t: SimTime) -> usize {
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.releases[mid] < t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Whether pair `k` (`order[k]`, `order[k + 1]`) exists and is a
    /// descent. `k` may be `usize::MAX` (the pair above index 0).
    fn descent_at(&self, k: usize) -> bool {
        match (self.order.get(k), self.order.get(k.wrapping_add(1))) {
            (Some(a), Some(b)) => a.0 > b.0,
            _ => false,
        }
    }

    /// Descents at the two pairs that touch index `i`.
    fn descents_around(&self, i: usize) -> usize {
        usize::from(self.descent_at(i.wrapping_sub(1))) + usize::from(self.descent_at(i))
    }

    /// Points the debug back-pointers of the keys at `range` to their
    /// positions.
    #[cfg(debug_assertions)]
    fn debug_repoint(&mut self, range: std::ops::Range<usize>) {
        for k in range {
            self.debug_pos[self.order[k].1 as usize] = k as u32;
        }
    }

    /// Release builds keep no recount state and check nothing.
    #[cfg(not(debug_assertions))]
    fn debug_check(&mut self) {}

    /// Recounts the keys, the index, the descents and the flags (debug
    /// builds only; allocation-free so the allocation smoke test can
    /// run on a debug build). It makes two passes over the index and one
    /// over the keys; only the index lookup of each lease is a binary
    /// search. The loops are plain and index slices, because this runs
    /// unoptimized after every mutation.
    #[cfg(debug_assertions)]
    fn debug_check(&mut self) {
        let (order, slab, pos) = (&self.order[..], &self.slab[..], &self.debug_pos[..]);
        let n = order.len();
        debug_assert_eq!(n + self.free.len(), slab.len(), "slots");
        debug_assert_eq!(self.releases.len(), n, "index size");
        // The index as one slice: this moves the ring's two halves
        // together when it wraps, without allocating or changing its
        // contents.
        let releases = self.releases.make_contiguous();
        let horizon = self.horizon.0;
        let mut matured = 0;
        for k in 0..n {
            let t = releases[k].0;
            debug_assert!(k + 1 == n || t <= releases[k + 1].0, "index order");
            matured += usize::from(t <= horizon);
        }
        debug_assert_eq!(self.cursor, matured, "cursor at {horizon}");
        // Each key's slot points back at that key, so no slot is held
        // twice. Each lease is tallied at the first index entry of its
        // time.
        let tally = &mut self.debug_tally[..n];
        tally.fill(0);
        let (mut descents, mut top, mut flagged) = (0, 0, 0);
        for k in 0..n {
            let (start, slot) = order[k];
            let held = &slab[slot as usize];
            debug_assert_eq!(held.lease.start, start, "key {k}");
            debug_assert_eq!(pos[slot as usize], k as u32, "slot {slot}");
            if k + 1 < n && start.0 > order[k + 1].0 .0 {
                descents += 1;
                top = k;
            }
            flagged += usize::from(held.matured);
            let t = held.lease.earliest_release.0;
            let (mut lo, mut hi) = (0, n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if releases[mid].0 < t {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            debug_assert!(lo < n && releases[lo].0 == t, "no index entry at {t}");
            tally[lo] += 1;
        }
        for &slot in &self.free {
            debug_assert_eq!(pos[slot as usize], FREE_SLOT, "live slot {slot} is free");
        }
        debug_assert_eq!(self.descents, descents, "descent count");
        debug_assert!(
            descents == 0 || top <= self.descent_hi,
            "descent above the bound"
        );
        debug_assert_eq!(self.flagged, flagged, "matured flags");
        // Index entries per release time: each run of equal times holds
        // as many entries as leases were tallied at its first.
        let mut k = 0;
        while k < n {
            let t = releases[k].0;
            let mut end = k + 1;
            while end < n && releases[end].0 == t {
                end += 1;
            }
            debug_assert_eq!(tally[k] as usize, end - k, "index entries at {t}");
            k = end;
        }
    }
}

impl std::fmt::Debug for GroupProvisioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupProvisioner")
            .field("operator", &self.operator)
            .field("allocated", &self.allocated)
            .field("leases", &self.ledger.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec};
    use mmog_datacenter::policy::HostingPolicy;
    use mmog_predict::simple::LastValue;
    use mmog_util::time::SimDuration;
    use mmog_world::update::UpdateModel;

    fn one_center(policy: HostingPolicy) -> Federation {
        Federation::new(vec![DataCenter::new(DataCenterSpec {
            id: DataCenterId(0),
            name: "dc".into(),
            country: "X".into(),
            continent: "Y".into(),
            location: GeoPoint::new(50.0, 10.0),
            machines: 20,
            machine_capacity: DataCenterSpec::default_machine_capacity(),
            policy,
        })])
    }

    fn provisioner() -> GroupProvisioner {
        GroupProvisioner::new(
            OperatorId(1),
            0,
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
            DemandModel::paper(UpdateModel::Quadratic),
            1.0,
            Box::new(LastValue::new()),
        )
    }

    #[test]
    fn requests_cover_target() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        let out = p.adjust(&mut fed, &mut stats, &target, SimTime::ZERO);
        assert!(out.granted > 0);
        assert!(!out.unmet);
        assert!(
            target.fits_within(&p.allocated(), 1e-9),
            "allocated covers target"
        );
    }

    #[test]
    fn surplus_released_after_time_bulk() {
        let mut fed = one_center(HostingPolicy::hp(5)); // 180-min bulk
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let high = p.demand_model.demand(2000.0);
        p.adjust(&mut fed, &mut stats, &high, SimTime::ZERO);
        let held_at_peak = p.allocated();
        // Demand collapses; before the bulk matures nothing can go.
        let low = p.demand_model.demand(200.0);
        let early = SimTime::from_minutes(60);
        let out = p.adjust(&mut fed, &mut stats, &low, early);
        assert_eq!(out.released, 0);
        assert_eq!(p.allocated(), held_at_peak);
        // After maturity the surplus leases drop.
        let late = SimTime::from_minutes(200);
        let out = p.adjust(&mut fed, &mut stats, &low, late);
        assert!(out.released > 0);
        assert!(p.allocated().cpu < held_at_peak.cpu);
        // Still covering the low target.
        assert!(low.fits_within(&p.allocated(), 1e-9));
    }

    #[test]
    fn unmet_reported_when_platform_full() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        fed.centers_mut()[0].spec.machines = 1; // 1.2 CPU units total
        let mut p = provisioner();
        let target = p.demand_model.demand(4000.0); // 4 CPU units
        let out = p.adjust(&mut fed, &mut stats, &target, SimTime::ZERO);
        assert!(out.unmet);
        assert!(p.allocated().cpu < target.cpu);
    }

    #[test]
    fn observe_and_target_uses_prediction() {
        let mut p = provisioner();
        // LastValue predictor: target equals demand(last observation).
        let t1 = p.observe_and_target(1000.0);
        let expected = p.demand_model.demand(1000.0);
        assert!((t1.cpu - expected.cpu).abs() < 1e-12);
        assert!((t1.ext_net_out - expected.ext_net_out).abs() < 1e-12);
    }

    #[test]
    fn headroom_scales_target() {
        let mut p = provisioner();
        p.headroom = 1.25;
        let t = p.observe_and_target(1000.0);
        let base = p.demand_model.demand(1000.0);
        assert!((t.cpu - base.cpu * 1.25).abs() < 1e-12);
    }

    #[test]
    fn static_target_at_peak() {
        let p = provisioner();
        let t = p.static_target(2000.0);
        assert!((t.cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_adjust_converges_to_stable_leases() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        p.adjust(&mut fed, &mut stats, &target, now);
        let after_first = p.lease_count();
        for _ in 0..10 {
            now += SimDuration::TICK;
            let out = p.adjust(&mut fed, &mut stats, &target, now);
            assert_eq!(out.granted, 0, "stable target must not re-request");
            assert_eq!(out.released, 0);
        }
        assert_eq!(p.lease_count(), after_first);
    }

    /// Predictor stub returning a fixed (possibly garbage) value.
    struct Fixed(f64);
    impl mmog_predict::traits::Predictor for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn observe(&mut self, _: f64) {}
        fn predict(&self) -> f64 {
            self.0
        }
        fn reset(&mut self) {}
    }

    fn provisioner_with(predictor: Box<dyn Predictor + Send>) -> GroupProvisioner {
        GroupProvisioner::new(
            OperatorId(1),
            0,
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
            DemandModel::paper(UpdateModel::Quadratic),
            1.0,
            predictor,
        )
    }

    #[test]
    fn garbage_predictions_are_sanitised() {
        // NaN and ±∞ fall back to the current observation.
        for garbage in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut p = provisioner_with(Box::new(Fixed(garbage)));
            let t = p.observe_and_target(800.0);
            let expected = p.demand_model.demand(800.0);
            assert!(
                (t.cpu - expected.cpu).abs() < 1e-12,
                "{garbage} must fall back to the observation"
            );
            assert!((p.last_prediction() - 800.0).abs() < 1e-12);
        }
        // Negative predictions clamp to zero demand.
        let mut p = provisioner_with(Box::new(Fixed(-250.0)));
        let t = p.observe_and_target(800.0);
        assert!(t.is_negligible(1e-12), "negative prediction → zero target");
        assert_eq!(p.last_prediction(), 0.0);
    }

    #[test]
    fn fallback_targets_the_observation() {
        // The predictor would say 9999; the dropout fallback ignores it.
        let mut p = provisioner_with(Box::new(Fixed(9999.0)));
        let t = p.observe_and_target_fallback(400.0);
        let expected = p.demand_model.demand(400.0);
        assert!((t.cpu - expected.cpu).abs() < 1e-12);
        assert!((p.last_prediction() - 400.0).abs() < 1e-12);
    }

    #[test]
    fn dropped_leases_accumulate_lost_capacity() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        p.adjust(&mut fed, &mut stats, &target, SimTime::ZERO);
        let held = p.allocated();
        assert!(held.cpu > 0.0);
        let dropped = p.drop_leases_at_center(0);
        assert!(!dropped.is_empty());
        assert!(p.allocated().is_negligible(1e-12));
        assert_eq!(p.lease_count(), 0);
        assert!((p.lost_capacity().cpu - held.cpu).abs() < 1e-9);
        p.clear_lost_capacity();
        assert!(p.lost_capacity().is_negligible(1e-12));
        // Dropping again finds nothing.
        assert!(p.drop_leases_at_center(0).is_empty());
    }

    fn held(center: usize, id: u64, start: u64) -> HeldLease {
        HeldLease {
            center,
            lease: Lease {
                id: LeaseId(id),
                operator: OperatorId(1),
                amounts: ResourceVector::new(0.22, 0.0, 0.0, 0.0),
                start: SimTime(start),
                earliest_release: SimTime(start + 90),
            },
            matured: false,
        }
    }

    #[test]
    fn drain_matches_restart_from_zero_scan() {
        // Three centers interleaved, with runs and a matching tail, so
        // swapped-in leases that also match are examined in place.
        let ledger: Vec<HeldLease> = [0, 1, 2, 1, 1, 0, 2, 1, 0, 1, 2, 2, 1, 0, 1]
            .iter()
            .enumerate()
            .map(|(i, &c)| held(c, i as u64, i as u64))
            .collect();
        for center in 0..3 {
            // Reference: restart the scan from index 0 after every
            // swap_remove.
            let mut expected = ledger.clone();
            let mut expected_dropped = Vec::new();
            while let Some(i) = expected.iter().position(|h| h.center == center) {
                expected_dropped.push(expected.swap_remove(i).lease.id);
            }
            let mut p = provisioner();
            for &h in &ledger {
                p.ledger.push(h);
            }
            let dropped: Vec<LeaseId> = p
                .drop_leases_at_center(center)
                .iter()
                .map(|l| l.id)
                .collect();
            assert_eq!(dropped, expected_dropped, "center {center} drop order");
            let held: Vec<LeaseId> = p.held_leases().map(|h| h.lease.id).collect();
            let expected: Vec<LeaseId> = expected.iter().map(|h| h.lease.id).collect();
            assert_eq!(held, expected, "center {center} ledger");
        }
    }

    #[test]
    fn backoff_defers_doomed_requests() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        fed.centers_mut()[0].spec.machines = 0; // nothing can ever be granted
        let mut p = provisioner();
        p.retry = true;
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        // First attempt fails and arms a 1-tick backoff.
        let out = p.adjust(&mut fed, &mut stats, &target, now);
        assert!(out.unmet && !out.deferred);
        assert!(out.rejections.total() > 0);
        // Next tick is within the backoff window → deferred, no matcher
        // call (no new rejections).
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &mut stats, &target, now);
        assert!(out.deferred && !out.unmet);
        assert_eq!(out.rejections.total(), 0);
        // Consecutive failures stretch the window exponentially: after
        // the second real failure the wait is 2 ticks.
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &mut stats, &target, now);
        assert!(out.unmet && !out.deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &mut stats, &target, now).deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &mut stats, &target, now).deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &mut stats, &target, now).unmet);
        // Capacity returns → request succeeds and the backoff resets.
        fed.centers_mut()[0].spec.machines = 20;
        now += SimDuration(MAX_BACKOFF_TICKS);
        let out = p.adjust(&mut fed, &mut stats, &target, now);
        assert!(out.granted > 0 && !out.unmet);
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &mut stats, &target, now);
        assert!(!out.deferred, "met request resets the backoff");
    }

    #[test]
    fn backoff_caps_at_policy_maximum() {
        assert_eq!(backoff_ticks(0), 0);
        assert_eq!(backoff_ticks(1), 1);
        assert_eq!(backoff_ticks(2), 2);
        assert_eq!(backoff_ticks(6), 32);
        assert_eq!(backoff_ticks(60), 32, "capped at MAX_BACKOFF_TICKS");
    }

    #[test]
    fn bundle_lease_with_huge_inbound_bulk_sticks() {
        // HP-1's ExtNet[in] bulk of 6 units: the first lease bundles a
        // 6-unit inbound grant which a small demand drop cannot release
        // — the mechanism behind Table V's inflated ExtNet[in]
        // over-allocation.
        let mut fed = one_center(HostingPolicy::hp(1));
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        p.adjust(&mut fed, &mut stats, &target, SimTime::ZERO);
        assert!((p.allocated().ext_net_in - 6.0).abs() < 1e-9);
        // Demand halves; even after the time bulk, inbound stays at 6
        // because releasing the bundle would drop CPU below target.
        let lower = p.demand_model.demand(1200.0);
        let later = SimTime::from_hours(7);
        p.adjust(&mut fed, &mut stats, &lower, later);
        assert!((p.allocated().ext_net_in - 6.0).abs() < 1e-9);
    }

    #[test]
    fn idle_exit_skips_stable_ticks_until_a_lease_matures() {
        let mut fed = one_center(HostingPolicy::hp(5)); // 180-min bulk
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        p.retry = true;
        let target = p.demand_model.demand(1000.0);
        let first = p.adjust(&mut fed, &mut stats, &target, SimTime::ZERO);
        assert!(first.granted > 0 && !first.skipped, "a granting step walks");
        // Covered, nothing matured, ledger sorted: every stable tick
        // takes the exit with an all-zero outcome.
        let mut now = SimTime::ZERO;
        for _ in 0..3 {
            now += SimDuration::TICK;
            let out = p.adjust(&mut fed, &mut stats, &target, now);
            assert_eq!(
                out,
                AdjustOutcome {
                    skipped: true,
                    ..AdjustOutcome::default()
                }
            );
        }
        assert_eq!(p.backoff_until, now, "the exit resets the backoff");
        // Once a lease has matured, phase 1 has a candidate to look at:
        // the step walks, even though it releases nothing.
        let held = p.lease_count();
        let late = SimTime::from_minutes(200);
        let out = p.adjust(&mut fed, &mut stats, &target, late);
        assert!(!out.skipped && out.released == 0 && out.granted == 0);
        assert_eq!(p.lease_count(), held);
    }

    #[test]
    fn idle_exit_steps_aside_on_demand_growth() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let mut stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        p.adjust(&mut fed, &mut stats, &target, now);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &mut stats, &target, now).skipped);
        // A genuinely larger target has a non-negligible deficit: the
        // exit must step aside and the walk must grant.
        let bigger = p.demand_model.demand(4000.0);
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &mut stats, &bigger, now);
        assert!(!out.skipped);
        assert!(out.granted > 0);
    }
}
