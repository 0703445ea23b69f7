//! Player-count trace containers.
//!
//! The RuneScape traces of Sec. III-A "contain the number of players
//! over time for each server group used by the RuneScape game
//! operators", sampled every two minutes, across five geographical
//! regions. These containers mirror that hierarchy: a [`GameTrace`]
//! holds [`RegionTrace`]s, which hold per-group [`ServerGroupTrace`]s.

use mmog_util::series::TimeSeries;
use std::fmt::Write as _;

/// A geographical region (the paper's "region 0" is Europe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u8);

/// A server group within a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerGroupId(pub u32);

/// The player-count trace of a single server group.
#[derive(Debug, Clone)]
pub struct ServerGroupTrace {
    /// Region this group belongs to.
    pub region: RegionId,
    /// Group identifier, unique within the region.
    pub group: ServerGroupId,
    /// Player count per 2-minute tick.
    pub series: TimeSeries,
}

/// All server groups of one region.
#[derive(Debug, Clone)]
pub struct RegionTrace {
    /// Region identifier.
    pub region: RegionId,
    /// Human-readable region name (e.g. "Europe").
    pub name: String,
    /// Per-group traces.
    pub groups: Vec<ServerGroupTrace>,
}

impl RegionTrace {
    /// Total regional player count over time.
    #[must_use]
    pub fn aggregate(&self) -> TimeSeries {
        TimeSeries::aggregate(self.groups.iter().map(|g| &g.series))
    }

    /// Number of server groups in the region.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Per-group loads at one tick (the cross-sections used for the
    /// Figure 3 envelope and IQR).
    #[must_use]
    pub fn cross_section(&self, tick: usize) -> Vec<f64> {
        self.groups
            .iter()
            .filter_map(|g| g.series.values().get(tick).copied())
            .collect()
    }

    /// Length of the shortest group series (analysis uses this bound).
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.series.len())
            .min()
            .unwrap_or(0)
    }
}

/// A complete multi-region game trace.
#[derive(Debug, Clone)]
pub struct GameTrace {
    /// All regions, indexed by `RegionId` order.
    pub regions: Vec<RegionTrace>,
}

impl GameTrace {
    /// The globally aggregated player count — the signal of Figure 2.
    #[must_use]
    pub fn global_series(&self) -> TimeSeries {
        TimeSeries::aggregate(
            self.regions
                .iter()
                .flat_map(|r| r.groups.iter().map(|g| &g.series)),
        )
    }

    /// Total number of server groups across all regions.
    #[must_use]
    pub fn total_groups(&self) -> usize {
        self.regions.iter().map(RegionTrace::group_count).sum()
    }

    /// Looks a region up by id.
    #[must_use]
    pub fn region(&self, id: RegionId) -> Option<&RegionTrace> {
        self.regions.iter().find(|r| r.region == id)
    }

    /// Serialises the trace to a simple CSV layout:
    /// `region,group,tick,players` with a header row.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("region,group,tick,players\n");
        for r in &self.regions {
            for g in &r.groups {
                for (t, v) in g.series.iter() {
                    // Player counts are integral; keep the file compact.
                    let _ = writeln!(
                        out,
                        "{},{},{},{}",
                        r.region.0,
                        g.group.0,
                        t.tick(),
                        v as u64
                    );
                }
            }
        }
        out
    }

    /// Parses the CSV produced by [`Self::to_csv`]. Regions re-created
    /// this way carry synthetic names (`"region N"`).
    ///
    /// # Errors
    /// Returns a message naming the first malformed line.
    pub fn from_csv(csv: &str) -> Result<Self, String> {
        use std::collections::BTreeMap;
        let mut table: BTreeMap<(u8, u32), Vec<(u64, f64)>> = BTreeMap::new();
        for (lineno, line) in csv.lines().enumerate() {
            if lineno == 0 || line.trim().is_empty() {
                continue; // header / blank
            }
            let mut fields = line.split(',');
            let parse = |f: Option<&str>, what: &str| -> Result<f64, String> {
                f.ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: bad {what}: {e}", lineno + 1))
            };
            let region = parse(fields.next(), "region")? as u8;
            let group = parse(fields.next(), "group")? as u32;
            let tick = parse(fields.next(), "tick")? as u64;
            let players = parse(fields.next(), "players")?;
            table
                .entry((region, group))
                .or_default()
                .push((tick, players));
        }
        let mut regions: BTreeMap<u8, RegionTrace> = BTreeMap::new();
        for ((region, group), mut samples) in table {
            samples.sort_by_key(|(t, _)| *t);
            let series: TimeSeries = samples.into_iter().map(|(_, v)| v).collect();
            regions
                .entry(region)
                .or_insert_with(|| RegionTrace {
                    region: RegionId(region),
                    name: format!("region {region}"),
                    groups: Vec::new(),
                })
                .groups
                .push(ServerGroupTrace {
                    region: RegionId(region),
                    group: ServerGroupId(group),
                    series,
                });
        }
        Ok(Self {
            regions: regions.into_values().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> GameTrace {
        let mk = |region: u8, group: u32, values: Vec<f64>| ServerGroupTrace {
            region: RegionId(region),
            group: ServerGroupId(group),
            series: TimeSeries::from_values(values),
        };
        GameTrace {
            regions: vec![
                RegionTrace {
                    region: RegionId(0),
                    name: "Europe".into(),
                    groups: vec![
                        mk(0, 0, vec![100.0, 200.0, 300.0]),
                        mk(0, 1, vec![50.0, 60.0, 70.0]),
                    ],
                },
                RegionTrace {
                    region: RegionId(1),
                    name: "US East".into(),
                    groups: vec![mk(1, 0, vec![10.0, 20.0, 30.0])],
                },
            ],
        }
    }

    #[test]
    fn aggregation_sums_groups_and_regions() {
        let t = tiny_trace();
        assert_eq!(t.regions[0].aggregate().values(), &[150.0, 260.0, 370.0]);
        assert_eq!(t.global_series().values(), &[160.0, 280.0, 400.0]);
        assert_eq!(t.total_groups(), 3);
    }

    #[test]
    fn cross_section_extracts_tick() {
        let t = tiny_trace();
        assert_eq!(t.regions[0].cross_section(1), vec![200.0, 60.0]);
        assert!(t.regions[0].cross_section(99).is_empty());
    }

    #[test]
    fn region_lookup() {
        let t = tiny_trace();
        assert_eq!(t.region(RegionId(1)).unwrap().name, "US East");
        assert!(t.region(RegionId(9)).is_none());
    }

    #[test]
    fn csv_round_trip() {
        let t = tiny_trace();
        let csv = t.to_csv();
        let parsed = GameTrace::from_csv(&csv).unwrap();
        assert_eq!(parsed.total_groups(), 3);
        assert_eq!(parsed.global_series().values(), t.global_series().values());
        assert_eq!(
            parsed.region(RegionId(0)).unwrap().groups[1]
                .series
                .values(),
            &[50.0, 60.0, 70.0]
        );
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        let bad = "region,group,tick,players\n0,0,zero,100\n";
        let err = GameTrace::from_csv(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let missing = "region,group,tick,players\n0,0\n";
        assert!(GameTrace::from_csv(missing).is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let csv = "region,group,tick,players\n\n0,0,0,5\n\n0,0,1,6\n";
        let parsed = GameTrace::from_csv(csv).unwrap();
        assert_eq!(parsed.global_series().values(), &[5.0, 6.0]);
    }

    #[test]
    fn ticks_is_min_group_length() {
        let mut t = tiny_trace();
        t.regions[0].groups[1].series = TimeSeries::from_values(vec![1.0]);
        assert_eq!(t.regions[0].ticks(), 1);
        let empty = RegionTrace {
            region: RegionId(7),
            name: "x".into(),
            groups: vec![],
        };
        assert_eq!(empty.ticks(), 0);
    }
}
