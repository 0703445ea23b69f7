//! MMOG workload substrate: synthesis and analysis of player-population
//! traces, packet-level session traces, and market growth data.
//!
//! Section III of the paper analyses ten months of RuneScape traces
//! (player counts per server group, sampled every two minutes, across
//! five geographical regions) plus `tcpdump` captures of live game
//! sessions. Neither data source is publicly available, so this crate
//! provides calibrated synthetic equivalents (see DESIGN.md §2 for the
//! substitution argument):
//!
//! - [`trace`] — trace containers: server groups, regions, whole games;
//!   CSV import/export.
//! - [`events`] — global population events: the 10 December 2007
//!   "highly unpopular decision" (−25 % of concurrent players within a
//!   day, recovery to 95 %) and the content releases of 18 December 2007
//!   / 15 January 2008 (+50 % surges for about a week), Figure 2.
//! - [`runescape`] — the calibrated trace generator reproducing the
//!   statistical shape of Sec. III: diurnal cycles (24 h ACF peak, 12 h
//!   trough), peak-hour spread across groups, IQR cycles, 2–5 %
//!   always-full servers, rare short outages, weekend effects on a third
//!   of the groups.
//! - [`analysis`] — the Figure 2/3 analyses: load envelopes, IQR series,
//!   per-group autocorrelation, dominant-period detection.
//! - [`packets`] — the Figure 4 packet model: per-interaction-class
//!   packet-length and inter-arrival-time distributions for the nine
//!   session traces T0–T7/T5a/T5b, with a generator and ECDF extraction.
//! - [`growth`] — the Figure 1 market model: logistic subscription
//!   curves for the 1997–2008 MMORPG market.
//! - [`stream`] — the generator's one implementation, drained tick by
//!   tick (O(1) memory per group, for thousand-group / million-player
//!   scale-out) or group by group into a trace (what `generate` does).
//! - [`cache`] — process-wide sharing of generated traces, so sweeps
//!   that re-request the same workload build it once.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod cache;
pub mod events;
pub mod growth;
pub mod packets;
pub mod runescape;
pub mod stream;
pub mod trace;

pub use events::PopulationEvent;
pub use runescape::{generate, RegionSpec, RuneScapeConfig};
pub use stream::StreamingTrace;
pub use trace::{GameTrace, RegionId, RegionTrace, ServerGroupId, ServerGroupTrace};
