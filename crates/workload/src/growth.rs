//! The MMORPG market growth model — the Figure 1 substitution.
//!
//! Figure 1 plots "the number of MMORPG players over time" for ~40
//! titles between 1997 and 2008, sourced from Woodcock's MMOGChart
//! survey. The paper highlights that six games exceed 500 k players and
//! projects "over 60 million players by 2011 in the US and EU markets".
//! We model each title with a logistic adoption curve times an
//! exponential decline after its peak era, calibrated to the well-known
//! subscription histories.

/// One MMOG title's subscription model.
#[derive(Debug, Clone)]
pub struct GameTitle {
    /// Title name.
    pub name: &'static str,
    /// Launch year (fractional years allowed).
    pub launch: f64,
    /// Peak subscriber count (millions).
    pub peak_millions: f64,
    /// Years from launch to reach ~90 % of peak.
    pub ramp_years: f64,
    /// Exponential decline rate per year after the plateau (0 = none).
    pub decline_per_year: f64,
    /// Years the title stays at peak before declining.
    pub plateau_years: f64,
}

impl GameTitle {
    /// Subscribers (millions) in calendar year `year`.
    #[must_use]
    pub fn subscribers(&self, year: f64) -> f64 {
        if year < self.launch {
            return 0.0;
        }
        let age = year - self.launch;
        // Logistic ramp: 90% of peak at `ramp_years`.
        let k = 4.39 / self.ramp_years.max(0.1); // ln(0.9/0.1)*2 ≈ 4.39
        let ramp = 1.0 / (1.0 + (-k * (age - self.ramp_years / 2.0)).exp());
        let decline_start = self.ramp_years + self.plateau_years;
        let decline = if age > decline_start {
            (-self.decline_per_year * (age - decline_start)).exp()
        } else {
            1.0
        };
        self.peak_millions * ramp * decline
    }
}

/// The Figure 1 title roster (launch years and peaks follow the public
/// subscription histories the MMOGChart survey aggregated).
#[must_use]
pub fn title_roster() -> Vec<GameTitle> {
    let t = |name, launch, peak, ramp, decline, plateau| GameTitle {
        name,
        launch,
        peak_millions: peak,
        ramp_years: ramp,
        decline_per_year: decline,
        plateau_years: plateau,
    };
    vec![
        t("The Realm Online", 1996.8, 0.025, 1.5, 0.3, 1.0),
        t("Ultima Online", 1997.7, 0.25, 2.0, 0.15, 3.0),
        t("Lineage", 1998.7, 3.0, 3.0, 0.12, 3.0),
        t("EverQuest", 1999.2, 0.55, 2.5, 0.15, 3.5),
        t("Asheron's Call", 1999.8, 0.12, 1.5, 0.2, 2.0),
        t("Anarchy Online", 2001.5, 0.11, 1.0, 0.25, 1.5),
        t("World War II Online", 2001.4, 0.03, 0.8, 0.3, 1.0),
        t("Dark Age of Camelot", 2001.8, 0.25, 1.5, 0.2, 2.0),
        t("Tibia", 1997.0, 0.3, 6.0, 0.0, 10.0),
        t("RuneScape", 2001.0, 5.0, 6.0, 0.0, 10.0),
        t("Final Fantasy XI", 2002.4, 0.48, 2.0, 0.05, 4.0),
        t("The Sims Online", 2002.9, 0.1, 0.8, 0.5, 0.5),
        t("A Tale in the Desert", 2003.1, 0.003, 1.0, 0.2, 1.0),
        t("EVE Online", 2003.4, 0.3, 4.0, 0.0, 5.0),
        t("PlanetSide", 2003.4, 0.06, 0.8, 0.4, 1.0),
        t("Toontown Online", 2003.4, 0.12, 1.5, 0.1, 3.0),
        t("Second Life", 2003.5, 0.45, 3.5, 0.0, 4.0),
        t("Star Wars Galaxies", 2003.5, 0.3, 1.0, 0.3, 1.5),
        t("Lineage II", 2003.8, 2.2, 2.0, 0.1, 3.0),
        t("Puzzle Pirates", 2003.9, 0.04, 1.5, 0.1, 2.0),
        t("City of Heroes", 2004.3, 0.18, 1.0, 0.2, 1.5),
        t("Dofus", 2004.7, 1.5, 3.0, 0.0, 4.0),
        t("EverQuest II", 2004.9, 0.3, 1.0, 0.2, 1.5),
        t("World of Warcraft", 2004.9, 10.0, 3.0, 0.0, 6.0),
        t("The Matrix Online", 2005.2, 0.05, 0.8, 0.5, 0.5),
        t("Guild Wars", 2005.3, 2.0, 2.0, 0.05, 3.0),
        t("Dungeons & Dragons Online", 2006.2, 0.12, 1.0, 0.2, 1.0),
        t("Auto Assault", 2006.3, 0.015, 0.5, 1.0, 0.3),
    ]
}

/// Aggregate subscriptions (millions) of a roster in a given year.
#[must_use]
pub fn total_subscribers(roster: &[GameTitle], year: f64) -> f64 {
    roster.iter().map(|t| t.subscribers(year)).sum()
}

/// Titles above `threshold_millions` subscribers in `year` — the
/// paper's "six games which currently have more than 500k players".
#[must_use]
pub fn titles_over(roster: &[GameTitle], year: f64, threshold_millions: f64) -> Vec<&'static str> {
    roster
        .iter()
        .filter(|t| t.subscribers(year) > threshold_millions)
        .map(|t| t.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_launch() {
        for t in title_roster() {
            assert_eq!(t.subscribers(t.launch - 0.1), 0.0, "{}", t.name);
        }
    }

    #[test]
    fn ramp_reaches_ninety_pct_of_peak() {
        let t = GameTitle {
            name: "x",
            launch: 2000.0,
            peak_millions: 1.0,
            ramp_years: 2.0,
            decline_per_year: 0.0,
            plateau_years: 10.0,
        };
        let at_ramp = t.subscribers(2002.0);
        assert!((at_ramp - 0.9).abs() < 0.02, "at ramp end: {at_ramp}");
    }

    #[test]
    fn decline_after_plateau() {
        let t = GameTitle {
            name: "x",
            launch: 2000.0,
            peak_millions: 1.0,
            ramp_years: 1.0,
            decline_per_year: 0.5,
            plateau_years: 1.0,
        };
        let peak = t.subscribers(2002.0);
        let later = t.subscribers(2005.0);
        assert!(later < 0.5 * peak, "peak {peak} later {later}");
    }

    #[test]
    fn six_titles_over_half_million_in_2008() {
        // The paper: "there are six games which currently have more than
        // 500k players each" (as of 2008).
        let roster = title_roster();
        let big = titles_over(&roster, 2008.0, 0.5);
        assert_eq!(big.len(), 6, "big titles: {big:?}");
        assert!(big.contains(&"World of Warcraft"));
        assert!(big.contains(&"RuneScape"));
    }

    #[test]
    fn market_grows_through_the_decade() {
        let roster = title_roster();
        let y2000 = total_subscribers(&roster, 2000.0);
        let y2004 = total_subscribers(&roster, 2004.0);
        let y2008 = total_subscribers(&roster, 2008.0);
        assert!(y2000 < y2004 && y2004 < y2008, "{y2000} {y2004} {y2008}");
        // Figure 1's y-axis tops out near 25 million around 2008.
        assert!((15.0..30.0).contains(&y2008), "2008 total {y2008}");
    }

    #[test]
    fn runescape_is_second_largest_in_2008() {
        // Sec. III-A: "RuneScape is ranked second by number of players".
        let roster = title_roster();
        let mut by_size: Vec<(&str, f64)> = roster
            .iter()
            .map(|t| (t.name, t.subscribers(2008.0)))
            .collect();
        by_size.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        assert_eq!(by_size[0].0, "World of Warcraft");
        assert_eq!(by_size[1].0, "RuneScape");
    }
}
