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
    match_request_indexed, CandidateIndex, MatchMemo, MatchOutcome, MatchStats, RejectionTotals,
};
use mmog_datacenter::request::{OperatorId, ResourceRequest};
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::Federation;
use mmog_predict::traits::Predictor;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};

/// A lease held by a group, with the index of the granting center.
#[derive(Debug, Clone, Copy)]
pub struct HeldLease {
    /// Index into the simulation's center list.
    pub center: usize,
    /// The lease (amounts, start, earliest release).
    pub lease: Lease,
    /// Whether the lifecycle plane already observed this lease passing
    /// its earliest-release tick (only maintained while
    /// [`GroupProvisioner::record_matches`] is set).
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
/// only while [`GroupProvisioner::record_matches`] is set: with tracing
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
    /// Whether this step replayed a memoized no-op instead of running
    /// the full release/reshape/request pipeline (see [`MatchMemo`]).
    /// A replayed outcome is otherwise all-zero by construction.
    pub replayed: bool,
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
    pub record_matches: bool,
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
    leases: Vec<HeldLease>,
    allocated: ResourceVector,
    last_prediction: f64,
    consecutive_unmet: u32,
    backoff_until: SimTime,
    lost: ResourceVector,
    /// Cached matcher view for this group's fixed (origin, tolerance):
    /// candidate ranking survives across ticks instead of being redone
    /// per request.
    index: CandidateIndex,
    /// When set (the default), [`adjust`] replays memoized no-op
    /// steps instead of re-running the full pipeline. Tests flip this
    /// off to compare the memoized path against the full walk.
    ///
    /// [`adjust`]: Self::adjust
    pub memo_enabled: bool,
    /// Memoized proof that the previous step was a no-op, and the keys
    /// it depends on.
    memo: MatchMemo,
    /// Lease-ledger generation: bumped on every grant, release, or
    /// revocation-driven drop, so the memo can tell "nothing changed"
    /// from "changed and changed back".
    lease_gen: u64,
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
    /// [`record_matches`]).
    ///
    /// [`record_matches`]: Self::record_matches
    detail: LifecycleDetail,
    /// Earliest `earliest_release` across held leases not yet flagged
    /// `matured` — the watermark that lets [`adjust`] skip the
    /// per-step maturity scan until something can actually mature.
    /// May be stale after a release/revocation (the removed lease's
    /// time survives here), which only costs one harmless empty scan.
    /// Only maintained while [`record_matches`] is set.
    ///
    /// [`adjust`]: Self::adjust
    /// [`record_matches`]: Self::record_matches
    next_maturity: Option<SimTime>,
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
            record_matches: false,
            retry: false,
            predictor,
            leases: Vec::new(),
            allocated: ResourceVector::ZERO,
            last_prediction: f64::NAN,
            consecutive_unmet: 0,
            backoff_until: SimTime::ZERO,
            lost: ResourceVector::ZERO,
            index: CandidateIndex::new(origin, tolerance),
            memo_enabled: true,
            memo: MatchMemo::new(),
            lease_gen: 0,
            match_scratch: MatchOutcome::default(),
            causal_group,
            request_seq: 0,
            detail: LifecycleDetail::default(),
            next_maturity: None,
        }
    }

    /// The per-lease causal detail of the most recent [`adjust`] step
    /// (empty unless [`record_matches`] is set).
    ///
    /// [`adjust`]: Self::adjust
    /// [`record_matches`]: Self::record_matches
    #[must_use]
    pub fn lifecycle_detail(&self) -> &LifecycleDetail {
        &self.detail
    }

    /// Every lease the group currently holds (run-end closure reads
    /// this to emit `run_end`-cause release events).
    #[must_use]
    pub fn held_leases(&self) -> &[HeldLease] {
        &self.leases
    }

    /// Currently held amounts.
    #[must_use]
    pub fn allocated(&self) -> ResourceVector {
        self.allocated
    }

    /// Number of live leases.
    #[must_use]
    pub fn lease_count(&self) -> usize {
        self.leases.len()
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
        while i < self.leases.len() {
            if self.leases[i].center == center {
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
            .leases
            .iter()
            .position(|h| h.center == center && h.lease.id == id)?;
        Some(self.forget(i))
    }

    /// Removes held lease `i` after its center revoked it, moving its
    /// amounts from the allocation into the lost-capacity accumulator.
    fn forget(&mut self, i: usize) -> Lease {
        let held = self.leases.swap_remove(i);
        self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
        self.lost += held.lease.amounts;
        self.lease_gen = self.lease_gen.wrapping_add(1);
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
    /// every distance as measured), recorded in the run's shared
    /// `stats`.
    pub fn adjust(
        &mut self,
        platform: &mut Federation,
        stats: &MatchStats,
        target: &ResourceVector,
        now: SimTime,
    ) -> AdjustOutcome {
        if self.record_matches {
            // Lifecycle plane: observe newly-matured leases before any
            // step can release them (and before the memo fast path,
            // which skips the rest of the walk). Ledger order is
            // deterministic, so the emission order is too. The
            // `next_maturity` watermark keeps this O(1) on the steps
            // where nothing can mature — a lease matures on the same
            // step either way, because the watermark is a lower bound
            // on every unmatured lease's `earliest_release`.
            self.detail.clear();
            if self.next_maturity.is_some_and(|at| now >= at) {
                let mut next: Option<SimTime> = None;
                for held in &mut self.leases {
                    if held.matured {
                        continue;
                    }
                    if now >= held.lease.earliest_release {
                        held.matured = true;
                        self.detail.matured.push((held.center, held.lease.id));
                    } else {
                        let at = held.lease.earliest_release;
                        next = Some(next.map_or(at, |n| n.min(at)));
                    }
                }
                self.next_maturity = next;
            }
        }
        // Fast path: replay a memoized no-op. The memo's keys prove
        // nothing that feeds this step changed since the last full run
        // (ledger generation, federation version, target band,
        // maturation horizon), and the deficit check below is the
        // only step-local input left — so returning the empty outcome
        // is byte-for-byte what the full pipeline would do, including
        // every side effect it would not have (no sort, no release, no
        // matcher call, no event).
        let version = platform.version();
        if self.memo_enabled
            && self.memo.covers(target, version, self.lease_gen, now)
            && (*target - self.allocated)
                .clamp_non_negative()
                .is_negligible(1e-6)
        {
            return AdjustOutcome {
                replayed: true,
                ..AdjustOutcome::default()
            };
        }
        let mut outcome = AdjustOutcome::default();

        // Phase 1: release surplus. A lease is only released when the
        // time bulk has matured AND dropping it cannot cause a deficit
        // on any resource type.
        let mut surplus = (self.allocated - *target).clamp_non_negative();
        if !surplus.is_negligible(1e-9) {
            // Oldest first: long-held leases matured first.
            sort_held_by_start(&mut self.leases);
            let mut i = 0;
            while i < self.leases.len() {
                let held = self.leases[i];
                let releasable = now >= held.lease.earliest_release
                    && held.lease.amounts.fits_within(&surplus, 1e-9);
                if releasable && platform.centers_mut()[held.center].release(held.lease.id, now) {
                    surplus = (surplus - held.lease.amounts).clamp_non_negative();
                    self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
                    self.leases.swap_remove(i);
                    self.lease_gen = self.lease_gen.wrapping_add(1);
                    outcome.released += 1;
                    if self.record_matches {
                        self.detail
                            .releases
                            .push((held.center, held.lease, ReleaseCause::Surplus));
                    }
                } else {
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
        // reshape per step bounds the lease turnover.
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
            for (i, held) in self.leases.iter().enumerate() {
                if now < held.lease.earliest_release {
                    continue;
                }
                let after_release = (self.allocated - held.lease.amounts).clamp_non_negative();
                let deficit = (*target - after_release).clamp_non_negative();
                let regrant = finest_round(&deficit);
                let gain = held.lease.amounts.total() - regrant.total();
                if gain > 1e-6 && best.is_none_or(|(_, g)| gain > g) {
                    best = Some((i, gain));
                }
            }
            if let Some((i, _)) = best {
                let held = self.leases[i];
                if platform.centers_mut()[held.center].release(held.lease.id, now) {
                    self.allocated = (self.allocated - held.lease.amounts).clamp_non_negative();
                    self.leases.swap_remove(i);
                    self.lease_gen = self.lease_gen.wrapping_add(1);
                    outcome.released += 1;
                    if self.record_matches {
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
                self.memo.invalidate();
                return outcome;
            }
            // Causal request id: group in the high 32 bits, a per-group
            // sequence number in the low 32. Minted unconditionally so
            // the ids are identical whether or not a trace is written.
            self.request_seq = self.request_seq.wrapping_add(1);
            let request_id = (self.causal_group << 32) | (self.request_seq & 0xffff_ffff);
            if self.record_matches {
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
                self.leases.push(HeldLease {
                    center: grant.center_index,
                    lease,
                    matured: false,
                });
                self.lease_gen = self.lease_gen.wrapping_add(1);
                outcome.granted += 1;
                if self.record_matches {
                    self.detail.grants.push((grant.center_index, lease));
                    let at = lease.earliest_release;
                    self.next_maturity = Some(self.next_maturity.map_or(at, |n| n.min(at)));
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
        self.rearm_memo(&outcome, target, version, now);
        outcome
    }

    /// Re-arms (or disarms) the no-op memo after a full adjustment
    /// step. A step is memoizable only when it provably did nothing:
    ///
    /// - the outcome is all-zero (nothing released, granted, unmet,
    ///   deferred, or rejected) and the remaining deficit is below the
    ///   phase-2 threshold, so a replay's empty outcome is exact;
    /// - the proof stays exact for any *larger* target (the monotone
    ///   band): a shrinking surplus can only keep blocking phase 1's
    ///   fit test, and a growing re-grant estimate can only keep
    ///   phase 1b's gain below threshold. Maturation is the one
    ///   time-driven input, so the memo expires at the first future
    ///   `earliest_release`; until then the candidate sets are frozen;
    /// - with *no matured lease at all* there are no candidates,
    ///   whatever the surplus, so the proof covers every
    ///   deficit-negligible target — provided the ledger is already
    ///   start-sorted, because a replayed step must also be allowed to
    ///   skip phase 1's sort without that ever becoming observable.
    fn rearm_memo(
        &mut self,
        outcome: &AdjustOutcome,
        target: &ResourceVector,
        version: u64,
        now: SimTime,
    ) {
        // A step arms the memo when it left the group whole: fully
        // covered, nothing pending, nothing rejected. The step itself
        // need not have been a no-op — a clean grant or release settles
        // the ledger just as firmly, provided the post-step ledger is
        // inert (checked below), and arming here saves the one full
        // no-op walk per mutation the memo would otherwise need.
        let whole = !outcome.unmet
            && !outcome.deferred
            && outcome.rejections.total() == 0
            && (*target - self.allocated)
                .clamp_non_negative()
                .is_negligible(1e-6);
        if !whole {
            self.memo.invalidate();
            return;
        }
        let mut valid_until: Option<SimTime> = None;
        let mut any_matured = false;
        let mut sorted = true;
        let mut prev_start = SimTime::ZERO;
        for held in &self.leases {
            let release_at = held.lease.earliest_release;
            if now < release_at {
                valid_until = Some(valid_until.map_or(release_at, |t| t.min(release_at)));
            } else {
                any_matured = true;
            }
            sorted &= prev_start <= held.lease.start;
            prev_start = held.lease.start;
        }
        if outcome.granted > 0 || outcome.released > 0 {
            // A mutating step only proved phases 1/1b inert for the
            // ledger it *walked*, not the one it produced: a grant can
            // overshoot (bulk rounding) and enlarge the surplus, so a
            // held matured lease may have become releasable after the
            // fact, and a replay may only skip phase 1's sort when the
            // ledger already sits in sorted order. Demand both.
            if any_matured || !sorted {
                self.memo.invalidate();
                return;
            }
        }
        let any_target = !any_matured && sorted;
        self.memo
            .arm(*target, version, self.lease_gen, any_target, valid_until);
    }

    /// Whether the memo currently holds a replayable no-op proof
    /// (observability and tests; the engine reads per-step skips from
    /// [`AdjustOutcome::replayed`]).
    #[must_use]
    pub fn memo_armed(&self) -> bool {
        self.memo.is_armed()
    }

    /// The current lease-ledger generation (bumped on every grant,
    /// release, or drop).
    #[must_use]
    pub fn lease_generation(&self) -> u64 {
        self.lease_gen
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
/// preceded them.
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

impl std::fmt::Debug for GroupProvisioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupProvisioner")
            .field("operator", &self.operator)
            .field("allocated", &self.allocated)
            .field("leases", &self.leases.len())
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
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        let out = p.adjust(&mut fed, &stats, &target, SimTime::ZERO);
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
        let stats = MatchStats::current();
        let mut p = provisioner();
        let high = p.demand_model.demand(2000.0);
        p.adjust(&mut fed, &stats, &high, SimTime::ZERO);
        let held_at_peak = p.allocated();
        // Demand collapses; before the bulk matures nothing can go.
        let low = p.demand_model.demand(200.0);
        let early = SimTime::from_minutes(60);
        let out = p.adjust(&mut fed, &stats, &low, early);
        assert_eq!(out.released, 0);
        assert_eq!(p.allocated(), held_at_peak);
        // After maturity the surplus leases drop.
        let late = SimTime::from_minutes(200);
        let out = p.adjust(&mut fed, &stats, &low, late);
        assert!(out.released > 0);
        assert!(p.allocated().cpu < held_at_peak.cpu);
        // Still covering the low target.
        assert!(low.fits_within(&p.allocated(), 1e-9));
    }

    #[test]
    fn unmet_reported_when_platform_full() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let stats = MatchStats::current();
        fed.centers_mut()[0].spec.machines = 1; // 1.2 CPU units total
        let mut p = provisioner();
        let target = p.demand_model.demand(4000.0); // 4 CPU units
        let out = p.adjust(&mut fed, &stats, &target, SimTime::ZERO);
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
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        p.adjust(&mut fed, &stats, &target, now);
        let after_first = p.lease_count();
        for _ in 0..10 {
            now += SimDuration::TICK;
            let out = p.adjust(&mut fed, &stats, &target, now);
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
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        p.adjust(&mut fed, &stats, &target, SimTime::ZERO);
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
            p.leases.clone_from(&ledger);
            let dropped: Vec<LeaseId> = p
                .drop_leases_at_center(center)
                .iter()
                .map(|l| l.id)
                .collect();
            assert_eq!(dropped, expected_dropped, "center {center} drop order");
            let ids = |v: &[HeldLease]| v.iter().map(|h| h.lease.id).collect::<Vec<_>>();
            assert_eq!(ids(&p.leases), ids(&expected), "center {center} ledger");
        }
    }

    #[test]
    fn backoff_defers_doomed_requests() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let stats = MatchStats::current();
        fed.centers_mut()[0].spec.machines = 0; // nothing can ever be granted
        let mut p = provisioner();
        p.retry = true;
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        // First attempt fails and arms a 1-tick backoff.
        let out = p.adjust(&mut fed, &stats, &target, now);
        assert!(out.unmet && !out.deferred);
        assert!(out.rejections.total() > 0);
        // Next tick is within the backoff window → deferred, no matcher
        // call (no new rejections).
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &stats, &target, now);
        assert!(out.deferred && !out.unmet);
        assert_eq!(out.rejections.total(), 0);
        // Consecutive failures stretch the window exponentially: after
        // the second real failure the wait is 2 ticks.
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &stats, &target, now);
        assert!(out.unmet && !out.deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &stats, &target, now).deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &stats, &target, now).deferred);
        now += SimDuration::TICK;
        assert!(p.adjust(&mut fed, &stats, &target, now).unmet);
        // Capacity returns → request succeeds and the backoff resets.
        fed.centers_mut()[0].spec.machines = 20;
        now += SimDuration(MAX_BACKOFF_TICKS);
        let out = p.adjust(&mut fed, &stats, &target, now);
        assert!(out.granted > 0 && !out.unmet);
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &stats, &target, now);
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
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1500.0);
        p.adjust(&mut fed, &stats, &target, SimTime::ZERO);
        assert!((p.allocated().ext_net_in - 6.0).abs() < 1e-9);
        // Demand halves; even after the time bulk, inbound stays at 6
        // because releasing the bundle would drop CPU below target.
        let lower = p.demand_model.demand(1200.0);
        let later = SimTime::from_hours(7);
        p.adjust(&mut fed, &stats, &lower, later);
        assert!((p.allocated().ext_net_in - 6.0).abs() < 1e-9);
    }

    #[test]
    fn memo_replays_stable_noop_ticks() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1000.0);
        let first = p.adjust(&mut fed, &stats, &target, SimTime::ZERO);
        assert!(!first.replayed, "a granting step cannot be a replay");
        // The granting walk itself proves phases 1/1b inert (no matured
        // leases, sorted ledger), so post-mutation arming lets every
        // later stable tick replay without a walk.
        let second = p.adjust(&mut fed, &stats, &target, SimTime::ZERO + SimDuration::TICK);
        let third = p.adjust(
            &mut fed,
            &stats,
            &target,
            SimTime::ZERO + SimDuration::TICK + SimDuration::TICK,
        );
        assert!(p.memo_armed());
        assert!(second.replayed, "first stable tick after the grant replays");
        assert!(third.replayed, "stable tick must replay the memo");
        assert_eq!(
            (third.granted, third.released, third.unmet, third.deferred),
            (0, 0, false, false)
        );
    }

    #[test]
    fn memo_disabled_always_runs_the_full_walk() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let stats = MatchStats::current();
        let mut p = provisioner();
        p.memo_enabled = false;
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        for _ in 0..5 {
            let out = p.adjust(&mut fed, &stats, &target, now);
            assert!(!out.replayed);
            now += SimDuration::TICK;
        }
    }

    #[test]
    fn memo_drops_on_real_demand_growth() {
        let mut fed = one_center(HostingPolicy::hp(5));
        let stats = MatchStats::current();
        let mut p = provisioner();
        let target = p.demand_model.demand(1000.0);
        let mut now = SimTime::ZERO;
        p.adjust(&mut fed, &stats, &target, now);
        now += SimDuration::TICK;
        p.adjust(&mut fed, &stats, &target, now);
        // A genuinely larger target has a non-negligible deficit: the
        // fast path must step aside and the full walk must grant.
        let gen = p.lease_generation();
        let bigger = p.demand_model.demand(4000.0);
        now += SimDuration::TICK;
        let out = p.adjust(&mut fed, &stats, &bigger, now);
        assert!(!out.replayed);
        assert!(out.granted > 0);
        assert_ne!(p.lease_generation(), gen, "grants bump the ledger gen");
    }
}
