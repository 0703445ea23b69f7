//! Packet-level session trace model — the Figure 4 substitution.
//!
//! Sec. III-D collects eight `tcpdump` game-session traces (plus the
//! T5a/T5b validation twin) and shows that "the (network) load depends
//! on the number and type of player interactions":
//!
//! - fast-paced sessions (T1, T6) send packets "as often as possible,
//!   and including as much information as possible" regardless of
//!   crowding — low IAT, large packets;
//! - direct player-to-player trading (T2 market vs. T7) has similar
//!   packet sizes but very different IAT — T7's moments are lower
//!   because T2 involves more thinking time;
//! - group interaction (T4) needs packets "to arrive more often (lower
//!   IAT than for other traces) and to include information about more
//!   objects (higher packet size)".
//!
//! We encode those orderings as parametric distributions (log-normal
//! packet lengths, shifted-exponential IATs) and regenerate the CDFs.

use mmog_util::rng::Rng64;
use mmog_util::stats::Ecdf;

/// Minimum wire size of a game packet (headers), bytes.
pub const MIN_PACKET: f64 = 40.0;
/// Ethernet MTU cap, bytes.
pub const MAX_PACKET: f64 = 1500.0;

/// Parameters of one emulated game session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Trace name ("Trace 0" … "Trace 7", "Trace 5a/5b").
    pub name: &'static str,
    /// Environment label matching the Figure 4 legend.
    pub label: &'static str,
    /// Median packet length in bytes (log-normal location).
    pub median_len: f64,
    /// Log-normal shape (σ of the underlying normal).
    pub len_sigma: f64,
    /// Mean packet inter-arrival time in milliseconds.
    pub mean_iat_ms: f64,
    /// Minimum IAT (server tick floor), milliseconds.
    pub min_iat_ms: f64,
}

/// The nine session traces of Figure 4 with parameters encoding the
/// orderings Sec. III-D reports.
pub const SESSION_SPECS: [SessionSpec; 9] = [
    SessionSpec {
        name: "Trace 0",
        label: "non-crowded+creating content",
        median_len: 120.0,
        len_sigma: 0.50,
        mean_iat_ms: 250.0,
        min_iat_ms: 15.0,
    },
    SessionSpec {
        name: "Trace 1",
        label: "non-crowded+fast paced",
        median_len: 260.0,
        len_sigma: 0.35,
        mean_iat_ms: 60.0,
        min_iat_ms: 10.0,
    },
    SessionSpec {
        name: "Trace 2",
        label: "semi-crowded+p2p interaction",
        median_len: 180.0,
        len_sigma: 0.45,
        mean_iat_ms: 320.0,
        min_iat_ms: 20.0,
    },
    SessionSpec {
        name: "Trace 3",
        label: "crowded+p2p interaction",
        median_len: 190.0,
        len_sigma: 0.45,
        mean_iat_ms: 300.0,
        min_iat_ms: 20.0,
    },
    SessionSpec {
        name: "Trace 4",
        label: "group p2p interaction",
        median_len: 340.0,
        len_sigma: 0.40,
        mean_iat_ms: 45.0,
        min_iat_ms: 8.0,
    },
    SessionSpec {
        name: "Trace 5a",
        label: "new content+crowded",
        median_len: 200.0,
        len_sigma: 0.45,
        mean_iat_ms: 150.0,
        min_iat_ms: 15.0,
    },
    SessionSpec {
        name: "Trace 5b",
        label: "new content+crowded",
        median_len: 200.0,
        len_sigma: 0.45,
        mean_iat_ms: 150.0,
        min_iat_ms: 15.0,
    },
    SessionSpec {
        name: "Trace 6",
        label: "crowded+fast paced",
        median_len: 270.0,
        len_sigma: 0.35,
        mean_iat_ms: 62.0,
        min_iat_ms: 10.0,
    },
    SessionSpec {
        name: "Trace 7",
        label: "new content+locks",
        median_len: 185.0,
        len_sigma: 0.45,
        mean_iat_ms: 120.0,
        min_iat_ms: 12.0,
    },
];

/// One captured packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Arrival timestamp in milliseconds since session start.
    pub at_ms: f64,
    /// Wire length in bytes.
    pub len: u32,
}

/// A generated session trace.
#[derive(Debug, Clone)]
pub struct PacketTrace {
    /// Trace name.
    pub name: String,
    /// Legend label.
    pub label: String,
    /// Packets in arrival order.
    pub packets: Vec<Packet>,
}

impl PacketTrace {
    /// Generates a session of `n` packets from a spec.
    #[must_use]
    pub fn generate(spec: &SessionSpec, n: usize, rng: &mut Rng64) -> Self {
        let mut packets = Vec::with_capacity(n);
        let mut t = 0.0;
        // Log-normal location so that the median is `median_len`.
        let mu = spec.median_len.ln();
        let exp_rate = 1.0 / (spec.mean_iat_ms - spec.min_iat_ms).max(1.0);
        for _ in 0..n {
            let iat = spec.min_iat_ms + rng.exponential(exp_rate);
            t += iat;
            let len = (mu + spec.len_sigma * rng.normal()).exp();
            packets.push(Packet {
                at_ms: t,
                len: len.clamp(MIN_PACKET, MAX_PACKET).round() as u32,
            });
        }
        Self {
            name: spec.name.to_string(),
            label: spec.label.to_string(),
            packets,
        }
    }

    /// ECDF of packet lengths (left plot of Figure 4).
    #[must_use]
    pub fn length_ecdf(&self) -> Ecdf {
        Ecdf::new(self.packets.iter().map(|p| f64::from(p.len)).collect())
    }

    /// ECDF of inter-arrival times in milliseconds (right plot).
    #[must_use]
    pub fn iat_ecdf(&self) -> Ecdf {
        let iats = self
            .packets
            .windows(2)
            .map(|w| w[1].at_ms - w[0].at_ms)
            .collect();
        Ecdf::new(iats)
    }

    /// Mean goodput in bytes per second over the session.
    #[must_use]
    pub fn mean_bandwidth_bps(&self) -> f64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(first), Some(last)) if last.at_ms > first.at_ms => {
                let bytes: u64 = self.packets.iter().map(|p| u64::from(p.len)).sum();
                bytes as f64 / ((last.at_ms - first.at_ms) / 1000.0)
            }
            _ => 0.0,
        }
    }
}

/// Generates all nine Figure 4 traces with `n` packets each.
#[must_use]
pub fn generate_all(n: usize, seed: u64) -> Vec<PacketTrace> {
    let mut rng = Rng64::seed_from(seed);
    SESSION_SPECS
        .iter()
        .map(|spec| {
            let mut trace_rng = rng.split();
            PacketTrace::generate(spec, n, &mut trace_rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_util::stats;

    fn spec(name: &str) -> SessionSpec {
        *SESSION_SPECS.iter().find(|s| s.name == name).unwrap()
    }

    fn gen(name: &str, seed: u64) -> PacketTrace {
        let mut rng = Rng64::seed_from(seed);
        PacketTrace::generate(&spec(name), 5000, &mut rng)
    }

    #[test]
    fn timestamps_strictly_increase() {
        let t = gen("Trace 0", 1);
        for w in t.packets.windows(2) {
            assert!(w[1].at_ms > w[0].at_ms);
        }
    }

    #[test]
    fn packet_lengths_within_wire_bounds() {
        for t in generate_all(2000, 2) {
            for p in &t.packets {
                assert!((MIN_PACKET as u32..=MAX_PACKET as u32).contains(&p.len));
            }
        }
    }

    #[test]
    fn fast_paced_has_low_iat_regardless_of_crowding() {
        // T1 (non-crowded) and T6 (crowded) should have similar, low IAT.
        let t1 = gen("Trace 1", 3);
        let t6 = gen("Trace 6", 3);
        let t2 = gen("Trace 2", 3);
        let med = |t: &PacketTrace| t.iat_ecdf().inverse(0.5).unwrap();
        assert!((med(&t1) - med(&t6)).abs() < 0.2 * med(&t1), "T1/T6 differ");
        assert!(med(&t1) < 0.4 * med(&t2), "fast-paced IAT must be low");
    }

    #[test]
    fn p2p_trades_same_size_different_iat() {
        // Sec. III-D: T2 vs T7 — similar packet sizes, lower IAT for T7.
        let t2 = gen("Trace 2", 5);
        let t7 = gen("Trace 7", 5);
        let med_len = |t: &PacketTrace| t.length_ecdf().inverse(0.5).unwrap();
        assert!(
            (med_len(&t2) - med_len(&t7)).abs() < 0.1 * med_len(&t2),
            "T2/T7 sizes should be similar"
        );
        let mean_iat = |t: &PacketTrace| {
            let iats: Vec<f64> = t
                .packets
                .windows(2)
                .map(|w| w[1].at_ms - w[0].at_ms)
                .collect();
            stats::mean(&iats).unwrap()
        };
        assert!(
            mean_iat(&t7) < 0.6 * mean_iat(&t2),
            "T7 IAT must be lower than T2"
        );
    }

    #[test]
    fn group_interaction_biggest_packets_lowest_iat() {
        let t4 = gen("Trace 4", 7);
        let others: Vec<PacketTrace> = SESSION_SPECS
            .iter()
            .filter(|s| s.name != "Trace 4")
            .map(|s| {
                let mut rng = Rng64::seed_from(11);
                PacketTrace::generate(s, 5000, &mut rng)
            })
            .collect();
        let med_len_t4 = t4.length_ecdf().inverse(0.5).unwrap();
        let med_iat_t4 = t4.iat_ecdf().inverse(0.5).unwrap();
        for o in &others {
            assert!(
                med_len_t4 > o.length_ecdf().inverse(0.5).unwrap(),
                "T4 packets must be largest (vs {})",
                o.name
            );
            assert!(
                med_iat_t4 <= o.iat_ecdf().inverse(0.5).unwrap() + 1e-9,
                "T4 IAT must be lowest (vs {})",
                o.name
            );
        }
    }

    #[test]
    fn validation_twins_are_statistically_close() {
        // T5a and T5b were captured from "the same environment at
        // consecutive periods of time" — distributions must agree.
        let a = gen("Trace 5a", 13);
        let b = gen("Trace 5b", 14);
        let ma = a.length_ecdf().inverse(0.5).unwrap();
        let mb = b.length_ecdf().inverse(0.5).unwrap();
        assert!((ma - mb).abs() < 0.05 * ma, "twin medians {ma} vs {mb}");
    }

    #[test]
    fn bandwidth_positive_and_sane() {
        let t = gen("Trace 6", 17);
        let bw = t.mean_bandwidth_bps();
        // Fast-paced: ~300B every ~62ms ≈ 5 KB/s.
        assert!((1_000.0..50_000.0).contains(&bw), "bandwidth {bw}");
        let empty = PacketTrace {
            name: "e".into(),
            label: "e".into(),
            packets: vec![],
        };
        assert_eq!(empty.mean_bandwidth_bps(), 0.0);
    }

    #[test]
    fn generate_all_produces_nine_distinct_traces() {
        let all = generate_all(500, 29);
        assert_eq!(all.len(), 9);
        let mut names: Vec<&str> = all.iter().map(|t| t.name.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn median_len_matches_spec_roughly() {
        for s in &SESSION_SPECS {
            let mut rng = Rng64::seed_from(31);
            let t = PacketTrace::generate(s, 8000, &mut rng);
            let med = t.length_ecdf().inverse(0.5).unwrap();
            assert!(
                (med - s.median_len).abs() < 0.1 * s.median_len,
                "{}: median {med} vs spec {}",
                s.name,
                s.median_len
            );
        }
    }
}
