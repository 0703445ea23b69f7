//! The time-stepped game emulator.
//!
//! Reproduces the paper's emulator (Sec. IV-D.1): entities driven by the
//! four AI profiles move through a sub-zone grid; interaction hotspots
//! attract aggressive players; team anchors keep team players grouped;
//! scouts head for the least-visited zones; campers sit still. Population
//! follows a diurnal curve when peak hours are modelled, a slow random
//! walk otherwise, with instantaneous noise on top. Each tick (two
//! simulated minutes) yields a [`WorldSnapshot`]: the entity-count map
//! that Sec. IV-B's predictors consume, plus interaction counts.

use crate::config::EmulatorConfig;
use crate::entity::{Entity, EntityId, EntityStore, Position};
use crate::interaction::count_pairs_subzone;
use crate::profile::AiProfile;
use crate::zone::{SubZoneId, ZoneGrid};
use mmog_util::memo::Memo;
use mmog_util::rng::Rng64;
use mmog_util::series::TimeSeries;
use mmog_util::time::SimTime;
use std::sync::Arc;

/// State of the world at one tick, reduced to what the provisioning
/// pipeline needs.
#[derive(Debug, Clone)]
pub struct WorldSnapshot {
    /// Simulation time of the snapshot.
    pub time: SimTime,
    /// Entity count per sub-zone (row-major; the Sec. IV-B "map of
    /// entity counts").
    pub counts: Vec<u32>,
    /// Total entity count.
    pub total: u32,
    /// Interacting entity pairs under the sub-zone approximation.
    pub interaction_pairs: u64,
}

/// A complete emulator run: the grid plus one snapshot per tick.
#[derive(Debug, Clone)]
pub struct EmulatorOutput {
    /// The sub-zone grid the snapshots refer to.
    pub grid: ZoneGrid,
    /// One snapshot per tick, in time order.
    pub snapshots: Vec<WorldSnapshot>,
}

impl EmulatorOutput {
    /// Total entity count over time (the signal Figure 5's predictors
    /// are scored on, aggregated over sub-zones).
    #[must_use]
    pub fn total_series(&self) -> TimeSeries {
        self.snapshots.iter().map(|s| f64::from(s.total)).collect()
    }

    /// Entity count of one sub-zone over time.
    #[must_use]
    pub fn subzone_series(&self, z: SubZoneId) -> TimeSeries {
        self.snapshots
            .iter()
            .map(|s| f64::from(s.counts[z.0 as usize]))
            .collect()
    }

    /// Interaction pairs over time.
    #[must_use]
    pub fn interaction_series(&self) -> TimeSeries {
        self.snapshots
            .iter()
            .map(|s| s.interaction_pairs as f64)
            .collect()
    }

    /// Number of ticks in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when the run produced no snapshots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }
}

/// The emulator itself. Construct with [`GameEmulator::new`], then call
/// [`GameEmulator::step`] per tick or [`GameEmulator::run`] for a whole
/// window.
#[derive(Debug, Clone)]
pub struct GameEmulator {
    cfg: EmulatorConfig,
    grid: ZoneGrid,
    rng: Rng64,
    /// Live entities in struct-of-arrays layout: the per-tick loops
    /// (churn, movement, count map) each scan only the columns they
    /// touch instead of striding over whole [`Entity`] records.
    entities: EntityStore,
    next_id: u64,
    /// Roaming interaction hotspots (attract aggressive players).
    hotspots: Vec<Position>,
    /// Per-team rally points (attract team players).
    team_anchors: Vec<Position>,
    /// Waypoints the anchors drift towards.
    anchor_waypoints: Vec<Position>,
    /// Visit counter per sub-zone (scouts seek the least visited).
    visits: Vec<u64>,
    /// Slow population factor for non-peak-hours worlds, in `[0,1]`.
    slow_walk: f64,
    time: SimTime,
    /// Per-tick count-map scratch, recycled so [`step`] performs no
    /// steady-state allocation beyond the snapshot it returns.
    ///
    /// [`step`]: Self::step
    counts_scratch: Vec<u32>,
    /// The previous tick's count map (swapped with the scratch each
    /// tick) and its pair count: when entity/sub-zone membership is
    /// unchanged between ticks the pair sum is reused, not recomputed.
    last_counts: Vec<u32>,
    last_pairs: u64,
    /// Timing stat for one tick (`world/emulator/step`), fetched from
    /// the current registry when the emulator is built.
    step_timer: Arc<mmog_obs::SpanStat>,
}

impl GameEmulator {
    /// Creates an emulator with a deterministic seed.
    ///
    /// # Panics
    /// Panics if the configuration fails [`EmulatorConfig::validate`].
    #[must_use]
    pub fn new(cfg: EmulatorConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid emulator config");
        let grid = ZoneGrid::new(cfg.world_size, cfg.grid);
        let mut rng = Rng64::seed_from(seed);
        let hotspots = (0..cfg.hotspots)
            .map(|_| Self::random_pos(&mut rng, cfg.world_size))
            .collect();
        let team_anchors: Vec<Position> = (0..cfg.teams)
            .map(|_| Self::random_pos(&mut rng, cfg.world_size))
            .collect();
        let anchor_waypoints = team_anchors.clone();
        let visits = vec![0u64; grid.sub_zone_count()];
        Self {
            cfg,
            grid,
            rng,
            entities: EntityStore::new(),
            next_id: 0,
            hotspots,
            team_anchors,
            anchor_waypoints,
            visits,
            slow_walk: 0.5,
            time: SimTime::ZERO,
            counts_scratch: Vec::new(),
            last_counts: Vec::new(),
            last_pairs: 0,
            step_timer: mmog_obs::timer("world/emulator/step"),
        }
    }

    fn random_pos(rng: &mut Rng64, size: f64) -> Position {
        Position::new(rng.range_f64(0.0, size), rng.range_f64(0.0, size))
    }

    /// Current entities (for inspection and tests; hot loops read the
    /// store's columns directly).
    #[must_use]
    pub fn entities(&self) -> &EntityStore {
        &self.entities
    }

    /// The sub-zone grid.
    #[must_use]
    pub fn grid(&self) -> &ZoneGrid {
        &self.grid
    }

    /// Current simulation time.
    #[must_use]
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Target population at the current tick: peak load × diurnal (or
    /// slow-walk) factor × instantaneous noise.
    fn target_population(&mut self) -> usize {
        let amp = self.cfg.overall_dynamics.daily_amplitude();
        let base_factor = if self.cfg.peak_hours {
            // Diurnal curve peaking at 19:00 (the "late afternoon" of
            // Sec. IV-D.1), dipping at 07:00.
            let h = self.time.hour_of_day();
            let diurnal = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * (h - 7.0) / 24.0).cos());
            (1.0 - amp) + amp * diurnal
        } else {
            // Mean-reverting random walk: day-scale wandering without a
            // clock-driven shape.
            let noise = self.rng.normal() * 0.02;
            self.slow_walk =
                (self.slow_walk + 0.005 * (0.5 - self.slow_walk) + noise).clamp(0.0, 1.0);
            (1.0 - amp) + amp * self.slow_walk
        };
        let noise = 1.0 + self.cfg.instantaneous_dynamics.population_noise() * self.rng.normal();
        let target = self.cfg.peak_entities as f64 * base_factor * noise;
        (target.round().max(1.0) as usize).min(self.cfg.peak_entities * 2)
    }

    /// Spawns one entity: profile from the mix, position biased towards
    /// a hotspot half of the time (new players join the action).
    fn spawn(&mut self) {
        let profile = self.cfg.profile_mix.sample(&mut self.rng);
        let team = (profile == AiProfile::TeamPlayer)
            .then(|| self.rng.below(u64::from(self.cfg.teams)) as u32);
        let spread = self.cfg.world_size * 0.02;
        let pos = if let Some(t) = team {
            // Team players log in where their group plays.
            let anchor = self.team_anchors[t as usize % self.team_anchors.len()];
            Position::new(
                anchor.x + self.rng.normal() * spread,
                anchor.y + self.rng.normal() * spread,
            )
            .clamped(self.cfg.world_size)
        } else if self.rng.chance(0.5) {
            // Others often join the action at a hotspot.
            let h = self.hotspots[self.rng.index(self.hotspots.len())];
            Position::new(
                h.x + self.rng.normal() * spread,
                h.y + self.rng.normal() * spread,
            )
            .clamped(self.cfg.world_size)
        } else {
            Self::random_pos(&mut self.rng, self.cfg.world_size)
        };
        let mut e = Entity::avatar(EntityId(self.next_id), pos, profile);
        self.next_id += 1;
        e.team = team;
        self.entities.push(e);
    }

    /// Spawns one wandering NPC ("mobile entities that have the ability
    /// to act independently", Sec. II-A). NPCs reuse the scout movement.
    fn spawn_npc(&mut self) {
        let pos = Self::random_pos(&mut self.rng, self.cfg.world_size);
        let mut e = Entity::avatar(EntityId(self.next_id), pos, AiProfile::Scout);
        e.kind = crate::entity::EntityKind::Npc;
        self.next_id += 1;
        self.entities.push(e);
    }

    /// Adjusts the live population towards the target by spawning or
    /// despawning (random eviction keeps churn realistic). NPCs track
    /// the avatar count through `npc_ratio`.
    fn churn_population(&mut self, target: usize) {
        use crate::entity::EntityKind;
        let mut avatars = self.entities.count_kind(EntityKind::Avatar);
        let mut npcs = self.entities.len() - avatars;
        while avatars < target {
            self.spawn();
            avatars += 1;
        }
        while avatars > target {
            // Evict a random avatar.
            let idx = self.rng.index(self.entities.len());
            if self.entities.kind(idx) == EntityKind::Avatar {
                self.entities.swap_remove(idx);
                avatars -= 1;
            }
        }
        let npc_target = (target as f64 * self.cfg.npc_ratio).round() as usize;
        while npcs < npc_target {
            self.spawn_npc();
            npcs += 1;
        }
        while npcs > npc_target {
            let idx = self.rng.index(self.entities.len());
            if self.entities.kind(idx) == EntityKind::Npc {
                self.entities.swap_remove(idx);
                npcs -= 1;
            }
        }
    }

    /// Moves the hotspots and team anchors for one tick.
    fn move_attractors(&mut self) {
        let relocation = self.cfg.instantaneous_dynamics.hotspot_relocation_prob();
        let size = self.cfg.world_size;
        for i in 0..self.hotspots.len() {
            if self.rng.chance(relocation) {
                self.hotspots[i] = Self::random_pos(&mut self.rng, size);
            }
        }
        // Anchors drift towards waypoints slower than the team players
        // chase them, so formations can actually assemble.
        let speed = 0.4
            * AiProfile::TeamPlayer.base_speed()
            * self.cfg.instantaneous_dynamics.speed_factor();
        for i in 0..self.team_anchors.len() {
            let anchor = self.team_anchors[i];
            let wp = self.anchor_waypoints[i];
            if anchor.distance(&wp) < speed {
                self.anchor_waypoints[i] = Self::random_pos(&mut self.rng, size);
            }
            self.team_anchors[i] = anchor.step_towards(&wp, speed);
        }
    }

    /// Picks a scout destination: the least-visited of a few sampled
    /// sub-zones ("discovering uncharted zones of the game world").
    fn scout_destination(&mut self) -> Position {
        let zones = self.grid.sub_zone_count();
        let mut best = SubZoneId(self.rng.index(zones) as u32);
        for _ in 0..3 {
            let cand = SubZoneId(self.rng.index(zones) as u32);
            if self.visits[cand.0 as usize] < self.visits[best.0 as usize] {
                best = cand;
            }
        }
        let c = self.grid.center(best);
        let cs = self.grid.cell_size();
        Position::new(
            c.x + self.rng.range_f64(-0.4, 0.4) * cs,
            c.y + self.rng.range_f64(-0.4, 0.4) * cs,
        )
        .clamped(self.cfg.world_size)
    }

    /// Advances every entity by one tick of behaviour.
    fn move_entities(&mut self) {
        let speed_factor = self.cfg.instantaneous_dynamics.speed_factor();
        let size = self.cfg.world_size;
        let switching = self.cfg.switching;
        for i in 0..self.entities.len() {
            // Profile switching first (may change this tick's behaviour).
            let (preferred, active) = (
                self.entities.preferred_profile(i),
                self.entities.active_profile(i),
            );
            let next_profile = switching.step(preferred, active, &mut self.rng);
            self.entities.set_active_profile(i, next_profile);

            let pos = self.entities.pos(i);
            let step = next_profile.base_speed() * speed_factor;
            let new_pos = match next_profile {
                AiProfile::Aggressive => {
                    // Chase the nearest hotspot, mill around when there.
                    let nearest = self
                        .hotspots
                        .iter()
                        .copied()
                        .min_by(|a, b| {
                            pos.distance(a)
                                .partial_cmp(&pos.distance(b))
                                .expect("distances are finite")
                        })
                        .expect("config guarantees >=1 hotspot");
                    if pos.distance(&nearest) < size * 0.015 {
                        Position::new(
                            pos.x + self.rng.normal() * step,
                            pos.y + self.rng.normal() * step,
                        )
                    } else {
                        pos.step_towards(&nearest, step)
                    }
                }
                AiProfile::Scout => {
                    let need_new = match self.entities.target(i) {
                        None => true,
                        Some(t) => pos.distance(&t) < step.max(1.0),
                    };
                    if need_new {
                        let dest = self.scout_destination();
                        self.entities.set_target(i, dest);
                    }
                    let t = self.entities.target(i).expect("just set");
                    pos.step_towards(&t, step)
                }
                AiProfile::TeamPlayer => {
                    let team =
                        self.entities.team(i).unwrap_or(0) as usize % self.team_anchors.len();
                    let anchor = self.team_anchors[team];
                    // Hold a loose formation around the rally point.
                    let jitter = self.grid.cell_size() * 0.15;
                    let goal = Position::new(
                        anchor.x + self.rng.normal() * jitter,
                        anchor.y + self.rng.normal() * jitter,
                    );
                    pos.step_towards(&goal, step)
                }
                AiProfile::Camper => {
                    // Rarely relocate; otherwise hold position.
                    if self.rng.chance(0.005) {
                        let dest = Self::random_pos(&mut self.rng, size);
                        self.entities.set_target(i, dest);
                    }
                    match self.entities.target(i) {
                        Some(t) if pos.distance(&t) > step => pos.step_towards(&t, step),
                        _ => pos,
                    }
                }
            };
            self.entities.set_pos(i, new_pos.clamped(size));
        }
    }

    /// Advances the world one tick and returns the snapshot. The count
    /// map is built in a persistent scratch (the only steady-state
    /// allocation is the snapshot's own copy), and the pair sum is
    /// reused from the previous tick whenever sub-zone membership is
    /// unchanged.
    pub fn step(&mut self) -> WorldSnapshot {
        let timer = Arc::clone(&self.step_timer);
        mmog_obs::time_stat(&timer, || {
            let target = self.target_population();
            self.churn_population(target);
            self.move_attractors();
            self.move_entities();

            // Record visits and build the count map in one fused pass
            // over the two coordinate columns (purely sequential reads).
            self.counts_scratch.clear();
            self.counts_scratch.resize(self.grid.sub_zone_count(), 0);
            for (&x, &y) in self.entities.xs().iter().zip(self.entities.ys()) {
                let z = self.grid.locate_xy(x, y);
                self.counts_scratch[z.0 as usize] += 1;
                self.visits[z.0 as usize] += 1;
            }
            let interaction_pairs = if self.counts_scratch == self.last_counts {
                self.last_pairs
            } else {
                let pairs = count_pairs_subzone(&self.counts_scratch);
                self.last_pairs = pairs;
                pairs
            };
            // The scratch becomes this tick's reference map; the old
            // reference buffer is recycled next tick.
            std::mem::swap(&mut self.counts_scratch, &mut self.last_counts);
            let snapshot = WorldSnapshot {
                time: self.time,
                total: self.entities.len() as u32,
                interaction_pairs,
                counts: self.last_counts.clone(),
            };
            self.time = self.time.next();
            snapshot
        })
    }

    /// Runs `ticks` steps from a fresh world, collecting every snapshot.
    #[must_use]
    pub fn run(cfg: EmulatorConfig, seed: u64, ticks: usize) -> EmulatorOutput {
        Self::count_run(ticks);
        Self::simulate(cfg, seed, ticks)
    }

    /// Records one requested run in the semantic `world.emulator.runs`
    /// and `world.emulator.ticks` counters.
    fn count_run(ticks: usize) {
        mmog_obs::counter("world.emulator.runs", mmog_obs::Domain::Semantic).incr();
        mmog_obs::counter("world.emulator.ticks", mmog_obs::Domain::Semantic).add(ticks as u64);
    }

    /// [`run`](Self::run) without the counters.
    fn simulate(cfg: EmulatorConfig, seed: u64, ticks: usize) -> EmulatorOutput {
        let _span = mmog_obs::span("world/emulator/run");
        let mut emu = Self::new(cfg, seed);
        let mut snapshots = Vec::with_capacity(ticks);
        for _ in 0..ticks {
            snapshots.push(emu.step());
        }
        EmulatorOutput {
            grid: emu.grid,
            snapshots,
        }
    }

    /// Like [`run`], but memoised process-wide: the eight Table I data
    /// sets feed several experiments each, and a run is a pure function
    /// of `(cfg, seed, ticks)`, so later requests share the first
    /// result instead of re-simulating the world. Every request counts
    /// as a run, hit or miss, so the counters do not depend on what
    /// the process ran before.
    ///
    /// [`run`]: Self::run
    #[must_use]
    pub fn run_cached(cfg: EmulatorConfig, seed: u64, ticks: usize) -> Arc<EmulatorOutput> {
        static RUNS: Memo<EmulatorOutput> = Memo::new();
        Self::count_run(ticks);
        // The key carries the generation mode (this path materialises
        // every snapshot): a hit can never hand a materialized run to a
        // caller expecting streamed output, or vice versa, even if a
        // streaming emulator entry point shares this memo later.
        RUNS.get_or_build(&format!("materialized|{seed}|{ticks}|{cfg:?}"), || {
            Self::simulate(cfg, seed, ticks)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceSet;
    use crate::profile::ProfileMix;
    use mmog_util::time::TICKS_PER_DAY;

    fn small_cfg() -> EmulatorConfig {
        EmulatorConfig {
            peak_entities: 200,
            ..EmulatorConfig::default()
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = GameEmulator::run(small_cfg(), 42, 50);
        let b = GameEmulator::run(small_cfg(), 42, 50);
        for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!(sa.counts, sb.counts);
            assert_eq!(sa.interaction_pairs, sb.interaction_pairs);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = GameEmulator::run(small_cfg(), 1, 50);
        let b = GameEmulator::run(small_cfg(), 2, 50);
        assert_ne!(a.total_series().values(), b.total_series().values());
    }

    #[test]
    fn snapshot_counts_sum_to_total() {
        let out = GameEmulator::run(small_cfg(), 7, 30);
        for s in &out.snapshots {
            let sum: u32 = s.counts.iter().sum();
            assert_eq!(sum, s.total);
        }
    }

    #[test]
    fn population_stays_within_bounds() {
        let out = GameEmulator::run(small_cfg(), 3, 200);
        for s in &out.snapshots {
            assert!(s.total >= 1);
            assert!(s.total <= 400, "total {} exceeds 2x peak", s.total);
        }
    }

    #[test]
    fn peak_hours_produce_diurnal_swing() {
        let cfg = EmulatorConfig {
            peak_entities: 500,
            peak_hours: true,
            ..EmulatorConfig::default()
        };
        let out = GameEmulator::run(cfg, 11, TICKS_PER_DAY as usize);
        let series = out.total_series();
        let max = series.max().unwrap();
        let min = series.min().unwrap();
        // Medium overall dynamics: floor is ~50% of peak.
        assert!(min < 0.75 * max, "no diurnal swing: min {min} max {max}");
    }

    #[test]
    fn aggressive_world_clusters_more_than_scout_world() {
        let mk = |mix: ProfileMix| EmulatorConfig {
            peak_entities: 300,
            peak_hours: false,
            profile_mix: mix,
            ..EmulatorConfig::default()
        };
        let aggressive =
            GameEmulator::run(mk(ProfileMix::from_percent(100.0, 0.0, 0.0, 0.0)), 5, 120);
        let scouts = GameEmulator::run(mk(ProfileMix::from_percent(0.0, 100.0, 0.0, 0.0)), 5, 120);
        // Compare steady-state interaction levels (skip warm-up).
        let mean = |o: &EmulatorOutput| {
            o.snapshots[40..]
                .iter()
                .map(|s| s.interaction_pairs as f64)
                .sum::<f64>()
                / (o.snapshots.len() - 40) as f64
        };
        let ia = mean(&aggressive);
        let is_ = mean(&scouts);
        assert!(
            ia > 2.0 * is_,
            "aggressive pairs {ia} should far exceed scout pairs {is_}"
        );
    }

    #[test]
    fn team_players_form_groups() {
        let cfg = EmulatorConfig {
            peak_entities: 200,
            peak_hours: false,
            profile_mix: ProfileMix::from_percent(0.0, 0.0, 100.0, 0.0),
            teams: 4,
            ..EmulatorConfig::default()
        };
        let mut emu = GameEmulator::new(cfg, 9);
        for _ in 0..100 {
            emu.step();
        }
        // Every team player should sit close to its team anchor.
        let mut near = 0usize;
        let mut total = 0usize;
        for e in emu.entities() {
            if let Some(team) = e.team {
                total += 1;
                let anchor = emu.team_anchors[team as usize % emu.team_anchors.len()];
                if e.pos.distance(&anchor) < emu.grid().cell_size() * 3.0 {
                    near += 1;
                }
            }
        }
        assert!(total > 0);
        // Some entities are temporarily switched to other profiles, so a
        // strict 100% is not expected.
        assert!(
            near as f64 / total as f64 > 0.6,
            "only {near}/{total} team players near their anchor"
        );
    }

    #[test]
    fn all_trace_sets_run() {
        for set in TraceSet::ALL {
            let mut cfg = set.config();
            cfg.peak_entities = 100; // keep the test fast
            let out = GameEmulator::run(cfg, 13, 20);
            assert_eq!(out.len(), 20, "{}", set.name());
            assert!(!out.is_empty());
        }
    }

    #[test]
    fn subzone_series_extracts_one_zone() {
        let out = GameEmulator::run(small_cfg(), 21, 25);
        let z = SubZoneId(0);
        let series = out.subzone_series(z);
        assert_eq!(series.len(), 25);
        for (t, v) in series.iter() {
            assert_eq!(v, f64::from(out.snapshots[t.tick() as usize].counts[0]));
        }
    }

    #[test]
    fn entities_stay_in_world() {
        let out = {
            let mut emu = GameEmulator::new(small_cfg(), 31);
            for _ in 0..60 {
                emu.step();
            }
            emu
        };
        for e in out.entities() {
            assert!(e.pos.x >= 0.0 && e.pos.x < out.cfg.world_size);
            assert!(e.pos.y >= 0.0 && e.pos.y < out.cfg.world_size);
        }
    }

    #[test]
    fn npc_ratio_maintains_background_population() {
        use crate::entity::EntityKind;
        let cfg = EmulatorConfig {
            peak_entities: 200,
            peak_hours: false,
            npc_ratio: 0.5,
            ..EmulatorConfig::default()
        };
        let mut emu = GameEmulator::new(cfg, 23);
        for _ in 0..50 {
            emu.step();
        }
        let avatars = emu
            .entities()
            .iter()
            .filter(|e| e.kind == EntityKind::Avatar)
            .count();
        let npcs = emu
            .entities()
            .iter()
            .filter(|e| e.kind == EntityKind::Npc)
            .count();
        assert!(avatars > 0);
        let ratio = npcs as f64 / avatars as f64;
        assert!((ratio - 0.5).abs() < 0.1, "npc/avatar ratio {ratio}");
        // Snapshot totals include the NPCs.
        let snap = emu.step();
        assert_eq!(snap.total as usize, emu.entities().len());
    }

    #[test]
    fn zero_npc_ratio_means_avatars_only() {
        use crate::entity::EntityKind;
        let out = {
            let mut emu = GameEmulator::new(small_cfg(), 29);
            for _ in 0..20 {
                emu.step();
            }
            emu
        };
        assert!(out.entities().iter().all(|e| e.kind == EntityKind::Avatar));
    }

    #[test]
    fn high_dynamics_moves_population_faster() {
        use crate::config::DynamicsLevel;
        let mk = |inst: DynamicsLevel| EmulatorConfig {
            peak_entities: 300,
            peak_hours: false,
            instantaneous_dynamics: inst,
            profile_mix: ProfileMix::from_percent(100.0, 0.0, 0.0, 0.0),
            ..EmulatorConfig::default()
        };
        // Measure tick-to-tick change of the count map (L1 distance).
        let churn = |out: &EmulatorOutput| {
            out.snapshots
                .windows(2)
                .map(|w| {
                    w[0].counts
                        .iter()
                        .zip(&w[1].counts)
                        .map(|(&a, &b)| (i64::from(a) - i64::from(b)).unsigned_abs())
                        .sum::<u64>()
                })
                .sum::<u64>()
        };
        let low = GameEmulator::run(mk(DynamicsLevel::Low), 17, 80);
        let high = GameEmulator::run(mk(DynamicsLevel::High), 17, 80);
        assert!(
            churn(&high) > churn(&low),
            "high dynamics should churn the distribution more"
        );
    }
}
