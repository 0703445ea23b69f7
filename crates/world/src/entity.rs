//! Game entities.
//!
//! Section II-A of the paper describes game worlds as "comprising various
//! game objects (entities): in-game representation of the players
//! (avatars), mobile entities that have the ability to act independently
//! (bots or non-player characters (NPCs)), other entities that can be
//! interacted with (mobiles), and immutable entities (decor)".

use crate::profile::AiProfile;

/// Stable identifier of an entity within one emulated game world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntityId(pub u64);

/// The entity taxonomy of Sec. II-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// In-game representation of a human player.
    Avatar,
    /// Bot / non-player character able to act independently.
    Npc,
    /// Interactable object (loot, vendor stand, resource node, …).
    Mobile,
    /// Immutable scenery. Decor never moves and never interacts, but it
    /// still occupies simulation state.
    Decor,
}

impl EntityKind {
    /// Whether entities of this kind participate in interactions (and
    /// thus contribute to the interaction-driven load of Sec. III-D).
    #[must_use]
    pub fn interacts(self) -> bool {
        !matches!(self, Self::Decor)
    }
}

/// A 2-D position in world coordinates (the world is a `size × size`
/// square; see [`crate::zone::ZoneGrid`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// Horizontal coordinate in `[0, world_size)`.
    pub x: f64,
    /// Vertical coordinate in `[0, world_size)`.
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another position.
    #[must_use]
    pub fn distance(&self, other: &Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Steps `frac` of the way towards `target` (0 = stay, 1 = arrive).
    #[must_use]
    pub fn lerp_towards(&self, target: &Self, frac: f64) -> Self {
        let f = frac.clamp(0.0, 1.0);
        Self {
            x: self.x + (target.x - self.x) * f,
            y: self.y + (target.y - self.y) * f,
        }
    }

    /// Moves up to `step` world units towards `target`, stopping exactly
    /// on it when closer than `step`.
    #[must_use]
    pub fn step_towards(&self, target: &Self, step: f64) -> Self {
        let d = self.distance(target);
        if d <= step || d == 0.0 {
            *target
        } else {
            self.lerp_towards(target, step / d)
        }
    }

    /// Clamps both coordinates into `[0, size)`.
    #[must_use]
    pub fn clamped(&self, size: f64) -> Self {
        // Relative nudge: `size - EPSILON` equals `size` for size ≥ 2.
        let hi = if size > 0.0 {
            size * (1.0 - 1e-12)
        } else {
            0.0
        };
        Self {
            x: self.x.clamp(0.0, hi),
            y: self.y.clamp(0.0, hi),
        }
    }
}

/// A live entity in the emulated world.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Stable identifier.
    pub id: EntityId,
    /// Taxonomy kind.
    pub kind: EntityKind,
    /// Current position.
    pub pos: Position,
    /// The profile the entity prefers to play.
    pub preferred_profile: AiProfile,
    /// The profile currently in effect (entities switch dynamically).
    pub active_profile: AiProfile,
    /// Current movement target, if any.
    pub target: Option<Position>,
    /// Team index for team players (`None` otherwise).
    pub team: Option<u32>,
}

impl Entity {
    /// Creates an avatar with the given preferred profile at a position.
    #[must_use]
    pub fn avatar(id: EntityId, pos: Position, profile: AiProfile) -> Self {
        Self {
            id,
            kind: EntityKind::Avatar,
            pos,
            preferred_profile: profile,
            active_profile: profile,
            target: None,
            team: None,
        }
    }

    /// Returns to the preferred profile (after a temporary switch).
    pub fn revert_profile(&mut self) {
        self.active_profile = self.preferred_profile;
    }
}

/// Sentinel in the team column marking an entity without a team.
const NO_TEAM: u32 = u32::MAX;

/// Struct-of-arrays storage for the live entity population.
///
/// Each per-tick emulator loop touches only a slice of an entity's
/// fields — the count map wants positions, profile switching wants the
/// two profile columns, population churn wants kinds. Keeping every
/// field in its own contiguous column turns those loops into linear
/// scans over exactly the bytes they read, instead of striding over
/// whole [`Entity`] records. The columns always have equal length; row
/// `i` across all columns is one entity.
#[derive(Debug, Clone, Default)]
pub struct EntityStore {
    ids: Vec<u64>,
    kinds: Vec<EntityKind>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    preferred: Vec<AiProfile>,
    active: Vec<AiProfile>,
    target_xs: Vec<f64>,
    target_ys: Vec<f64>,
    has_target: Vec<bool>,
    teams: Vec<u32>,
}

impl EntityStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entities are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Appends an entity, scattering its fields into the columns.
    pub fn push(&mut self, e: Entity) {
        self.ids.push(e.id.0);
        self.kinds.push(e.kind);
        self.xs.push(e.pos.x);
        self.ys.push(e.pos.y);
        self.preferred.push(e.preferred_profile);
        self.active.push(e.active_profile);
        let t = e.target.unwrap_or_default();
        self.target_xs.push(t.x);
        self.target_ys.push(t.y);
        self.has_target.push(e.target.is_some());
        self.teams.push(e.team.map_or(NO_TEAM, |t| t));
    }

    /// Reassembles row `i` into an [`Entity`] record.
    #[must_use]
    pub fn get(&self, i: usize) -> Entity {
        Entity {
            id: EntityId(self.ids[i]),
            kind: self.kinds[i],
            pos: Position::new(self.xs[i], self.ys[i]),
            preferred_profile: self.preferred[i],
            active_profile: self.active[i],
            target: self.target(i),
            team: self.team(i),
        }
    }

    /// Removes row `i` by swapping in the last row ([`Vec::swap_remove`]
    /// semantics, applied to every column).
    pub fn swap_remove(&mut self, i: usize) {
        self.ids.swap_remove(i);
        self.kinds.swap_remove(i);
        self.xs.swap_remove(i);
        self.ys.swap_remove(i);
        self.preferred.swap_remove(i);
        self.active.swap_remove(i);
        self.target_xs.swap_remove(i);
        self.target_ys.swap_remove(i);
        self.has_target.swap_remove(i);
        self.teams.swap_remove(i);
    }

    /// Taxonomy kind of row `i`.
    #[must_use]
    pub fn kind(&self, i: usize) -> EntityKind {
        self.kinds[i]
    }

    /// Number of rows of the given kind (one linear scan of the kind
    /// column).
    #[must_use]
    pub fn count_kind(&self, kind: EntityKind) -> usize {
        self.kinds.iter().filter(|&&k| k == kind).count()
    }

    /// Position of row `i`.
    #[must_use]
    pub fn pos(&self, i: usize) -> Position {
        Position::new(self.xs[i], self.ys[i])
    }

    /// Overwrites the position of row `i`.
    pub fn set_pos(&mut self, i: usize, pos: Position) {
        self.xs[i] = pos.x;
        self.ys[i] = pos.y;
    }

    /// The x-coordinate column (paired elementwise with [`Self::ys`]).
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y-coordinate column (paired elementwise with [`Self::xs`]).
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Preferred AI profile of row `i`.
    #[must_use]
    pub fn preferred_profile(&self, i: usize) -> AiProfile {
        self.preferred[i]
    }

    /// Currently active AI profile of row `i`.
    #[must_use]
    pub fn active_profile(&self, i: usize) -> AiProfile {
        self.active[i]
    }

    /// Switches the active AI profile of row `i`.
    pub fn set_active_profile(&mut self, i: usize, profile: AiProfile) {
        self.active[i] = profile;
    }

    /// Movement target of row `i`, if any.
    #[must_use]
    pub fn target(&self, i: usize) -> Option<Position> {
        self.has_target[i].then(|| Position::new(self.target_xs[i], self.target_ys[i]))
    }

    /// Sets the movement target of row `i`.
    pub fn set_target(&mut self, i: usize, target: Position) {
        self.target_xs[i] = target.x;
        self.target_ys[i] = target.y;
        self.has_target[i] = true;
    }

    /// Team index of row `i` (team players only).
    #[must_use]
    pub fn team(&self, i: usize) -> Option<u32> {
        (self.teams[i] != NO_TEAM).then_some(self.teams[i])
    }

    /// Iterates over reassembled [`Entity`] records (for inspection and
    /// tests; hot loops should read the columns directly).
    pub fn iter(&self) -> impl Iterator<Item = Entity> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

impl<'a> IntoIterator for &'a EntityStore {
    type Item = Entity;
    type IntoIter = Box<dyn Iterator<Item = Entity> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(EntityKind::Avatar.interacts());
        assert!(EntityKind::Mobile.interacts());
        assert!(!EntityKind::Decor.interacts());
    }

    #[test]
    fn distance_and_lerp() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        let mid = a.lerp_towards(&b, 0.5);
        assert!((mid.x - 1.5).abs() < 1e-12 && (mid.y - 2.0).abs() < 1e-12);
        // Clamped fractions.
        assert_eq!(a.lerp_towards(&b, -1.0), a);
        assert_eq!(a.lerp_towards(&b, 2.0), b);
    }

    #[test]
    fn step_towards_arrives_exactly() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        let stepped = a.step_towards(&b, 10.0);
        assert_eq!(stepped, b);
        let partial = a.step_towards(&b, 2.5);
        assert!((a.distance(&partial) - 2.5).abs() < 1e-12);
        // Zero distance: no NaN.
        let same = b.step_towards(&b, 1.0);
        assert_eq!(same, b);
    }

    #[test]
    fn clamp_keeps_position_in_world() {
        let p = Position::new(-5.0, 150.0).clamped(100.0);
        assert_eq!(p.x, 0.0);
        assert!(p.y < 100.0);
    }

    #[test]
    fn avatar_starts_with_preferred_profile() {
        let e = Entity::avatar(EntityId(1), Position::new(1.0, 2.0), AiProfile::Scout);
        assert_eq!(e.active_profile, AiProfile::Scout);
        assert_eq!(e.kind, EntityKind::Avatar);
        assert!(e.team.is_none());
    }

    #[test]
    fn revert_profile_restores_preference() {
        let mut e = Entity::avatar(EntityId(1), Position::default(), AiProfile::Camper);
        e.active_profile = AiProfile::Aggressive;
        e.revert_profile();
        assert_eq!(e.active_profile, AiProfile::Camper);
    }

    fn sample_entity(id: u64, team: Option<u32>) -> Entity {
        let mut e = Entity::avatar(
            EntityId(id),
            Position::new(id as f64, 2.0 * id as f64),
            AiProfile::Scout,
        );
        e.team = team;
        e.target = id.is_multiple_of(2).then(|| Position::new(9.0, 9.0));
        e
    }

    #[test]
    fn store_round_trips_entities() {
        let mut store = EntityStore::new();
        store.push(sample_entity(0, None));
        store.push(sample_entity(1, Some(3)));
        assert_eq!(store.len(), 2);
        for i in 0..store.len() {
            let original = sample_entity(i as u64, if i == 1 { Some(3) } else { None });
            let got = store.get(i);
            assert_eq!(got.id, original.id);
            assert_eq!(got.kind, original.kind);
            assert_eq!(got.pos, original.pos);
            assert_eq!(got.preferred_profile, original.preferred_profile);
            assert_eq!(got.active_profile, original.active_profile);
            assert_eq!(got.target, original.target);
            assert_eq!(got.team, original.team);
        }
        assert_eq!(store.iter().count(), 2);
    }

    #[test]
    fn store_swap_remove_matches_vec_semantics() {
        let mut store = EntityStore::new();
        let mut mirror: Vec<Entity> = Vec::new();
        for id in 0..5 {
            let e = sample_entity(id, (id == 2).then_some(1));
            store.push(e.clone());
            mirror.push(e);
        }
        store.swap_remove(1);
        mirror.swap_remove(1);
        store.swap_remove(2);
        mirror.swap_remove(2);
        assert_eq!(store.len(), mirror.len());
        for (i, m) in mirror.iter().enumerate() {
            assert_eq!(store.get(i).id, m.id);
            assert_eq!(store.pos(i), m.pos);
            assert_eq!(store.target(i), m.target);
            assert_eq!(store.team(i), m.team);
        }
    }

    #[test]
    fn store_columns_stay_paired_through_mutation() {
        let mut store = EntityStore::new();
        for id in 0..4 {
            store.push(sample_entity(id, None));
        }
        store.set_pos(2, Position::new(7.5, 8.5));
        store.set_target(3, Position::new(1.0, 2.0));
        store.set_active_profile(0, AiProfile::Camper);
        assert_eq!(store.pos(2), Position::new(7.5, 8.5));
        assert_eq!(store.target(3), Some(Position::new(1.0, 2.0)));
        assert_eq!(store.active_profile(0), AiProfile::Camper);
        assert_eq!(store.preferred_profile(0), AiProfile::Scout);
        assert_eq!(store.xs().len(), store.ys().len());
        assert_eq!(store.count_kind(EntityKind::Avatar), 4);
        assert_eq!(store.count_kind(EntityKind::Npc), 0);
    }
}
