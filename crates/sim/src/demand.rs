//! Player-count → resource-demand conversion.
//!
//! Sec. V-A fixes the unit system: "The measurement unit for the policy
//! resources is a generic 'unit' which represents the requirement for
//! the respective resource of a fully loaded RuneScape game server",
//! i.e. a server group at its 2 000-player capacity needs 1.0 unit of
//! each resource type. The CPU requirement scales with the update model
//! of Sec. II-A (interactions dominate compute); memory and network
//! scale with the player count (state residency and per-player update
//! streams).

use mmog_datacenter::resource::ResourceVector;
use mmog_world::update::UpdateModel;

/// Converts a server group's player count into resource demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandModel {
    /// Players of a fully loaded game server (2 000 for RuneScape).
    pub reference_players: f64,
    /// The interaction/update model driving CPU demand.
    pub update_model: UpdateModel,
    /// Inbound network units at full load (client → server commands are
    /// small; below the outbound unit by design).
    pub in_at_full: f64,
    /// Memory units at full load.
    pub memory_at_full: f64,
}

impl DemandModel {
    /// The paper's configuration for a given update model.
    #[must_use]
    pub fn paper(update_model: UpdateModel) -> Self {
        Self {
            reference_players: 2000.0,
            update_model,
            in_at_full: 1.0,
            memory_at_full: 1.0,
        }
    }

    /// Demand of one server group with `players` concurrent players.
    /// Loads above the reference keep scaling (overfull servers cost
    /// superlinearly under interactive models).
    #[must_use]
    pub fn demand(&self, players: f64) -> ResourceVector {
        let players = players.max(0.0);
        let linear = players / self.reference_players;
        let cpu = self.update_model.cost(players) / self.update_model.cost(self.reference_players);
        ResourceVector::new(
            cpu,
            self.memory_at_full * linear,
            self.in_at_full * linear,
            linear,
        )
    }

    /// Total demand over many groups' player counts.
    #[must_use]
    pub fn demand_total<'a, I: IntoIterator<Item = &'a f64>>(&self, counts: I) -> ResourceVector {
        counts
            .into_iter()
            .fold(ResourceVector::ZERO, |acc, &n| acc + self.demand(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_load_is_one_unit_everywhere() {
        for m in UpdateModel::ALL {
            let d = DemandModel::paper(m).demand(2000.0);
            assert!((d.cpu - 1.0).abs() < 1e-12, "{m}");
            assert!((d.memory - 1.0).abs() < 1e-12);
            assert!((d.ext_net_in - 1.0).abs() < 1e-12);
            assert!((d.ext_net_out - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_players_zero_demand() {
        let d = DemandModel::paper(UpdateModel::Quadratic).demand(0.0);
        assert_eq!(d, ResourceVector::ZERO);
        // Negative clamps.
        let d = DemandModel::paper(UpdateModel::Linear).demand(-10.0);
        assert_eq!(d, ResourceVector::ZERO);
    }

    #[test]
    fn half_load_cpu_depends_on_model() {
        let lin = DemandModel::paper(UpdateModel::Linear).demand(1000.0);
        let quad = DemandModel::paper(UpdateModel::Quadratic).demand(1000.0);
        let cubic = DemandModel::paper(UpdateModel::Cubic).demand(1000.0);
        assert!((lin.cpu - 0.5).abs() < 1e-12);
        assert!((quad.cpu - 0.25).abs() < 1e-12);
        assert!((cubic.cpu - 0.125).abs() < 1e-12);
        // Non-CPU components are model-independent.
        assert_eq!(lin.ext_net_out, quad.ext_net_out);
        assert_eq!(lin.memory, cubic.memory);
    }

    #[test]
    fn interactive_models_amplify_load_swings() {
        // The Figure 9 effect: a 10% player swing around full load moves
        // quadratic CPU demand more than linear CPU demand.
        let swing = |m: UpdateModel| {
            let d = DemandModel::paper(m);
            d.demand(2000.0).cpu - d.demand(1800.0).cpu
        };
        assert!(swing(UpdateModel::Quadratic) > swing(UpdateModel::Linear));
        assert!(swing(UpdateModel::Cubic) > swing(UpdateModel::Quadratic));
    }

    #[test]
    fn overfull_server_costs_more_than_one_unit() {
        let d = DemandModel::paper(UpdateModel::Quadratic).demand(2200.0);
        assert!(d.cpu > 1.0);
        assert!(d.ext_net_out > 1.0);
    }

    #[test]
    fn total_sums_groups() {
        let m = DemandModel::paper(UpdateModel::Linear);
        let counts = [1000.0, 500.0, 2000.0];
        let total = m.demand_total(&counts);
        assert!((total.ext_net_out - (0.5 + 0.25 + 1.0)).abs() < 1e-12);
        assert_eq!(m.demand_total(&[]), ResourceVector::ZERO);
    }
}
