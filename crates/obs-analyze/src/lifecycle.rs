//! Causal lease-lifecycle reconstruction over the JSONL trace.
//!
//! The engine emits a causal chain per lease — `lease_request` →
//! `lease_grant` → (optional) `lease_mature` → exactly one terminal
//! `lease_release` (with cause) or `lease_revoked` — all from serial
//! sections, so the chain is byte-identical across `--jobs` values.
//! [`analyze_lifecycle`] replays that chain per trace scope and
//! rebuilds every lease's waterfall: request→grant latency, lifetime,
//! terminal cause, and integrated held capacity per center and per
//! operator. While replaying it checks the causality invariants:
//!
//! 1. every grant names a request that exists in the same run;
//! 2. a `(center, lease)` key is granted at most once per run —
//!    centers never reuse lease ids, so a retired key must never
//!    reappear;
//! 3. every maturity and every terminal names a currently-live lease
//!    (no orphans, no double terminals);
//! 4. at scope end every granted lease has reached a terminal — the
//!    engine's run-end closure guarantees 100% reconstruction.
//!
//! Violations are collected (not fail-fast) so a broken trace reports
//! every divergence at once; [`check_lifecycle`] turns them into the
//! hard error `obs_check` and the determinism suite gate on.

use crate::reader::{read_trace, Query};
use mmog_obs::Event;
use std::collections::BTreeMap;

/// One reconstructed lease waterfall.
#[derive(Debug, Clone)]
pub struct LeaseRecord {
    /// Center index the lease was granted at.
    pub center: u64,
    /// Center-local lease id.
    pub lease: u64,
    /// Operator that held the lease.
    pub operator: u64,
    /// The request id the grant answered.
    pub request: u64,
    /// Tick the lease was granted.
    pub granted_tick: u64,
    /// Tick the owning provisioner first observed the lease past its
    /// earliest-release time (absent when the run ended first, or on
    /// static runs that never re-enter the adjust path).
    pub matured_tick: Option<u64>,
    /// Tick of the terminal event (absent only on violation).
    pub end_tick: Option<u64>,
    /// Terminal cause: a `lease_release` cause label, or `revoked` for
    /// a fault-plane `lease_revoked` (absent only on violation).
    pub end_cause: Option<String>,
    /// CPU held by the lease.
    pub cpu: f64,
}

impl LeaseRecord {
    /// Ticks the lease was held (0 when granted and ended the same
    /// tick, or when it never reached a terminal).
    #[must_use]
    pub fn lifetime(&self) -> u64 {
        self.end_tick
            .map_or(0, |end| end.saturating_sub(self.granted_tick))
    }
}

/// One reconstructed request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (`group << 32 | seq`).
    pub id: u64,
    /// Requesting group index.
    pub group: u64,
    /// Operator that issued the request.
    pub operator: u64,
    /// Tick the request was made.
    pub tick: u64,
    /// CPU deficit requested.
    pub cpu: f64,
    /// Grants that answered it.
    pub grants: u64,
}

/// The reconstructed lifecycle of one trace scope (one run).
#[derive(Debug, Clone)]
pub struct ScopeLifecycle {
    /// The run's trace-chunk label.
    pub scope: String,
    /// Every request, in emission order.
    pub requests: Vec<RequestRecord>,
    /// Every lease, in grant order.
    pub leases: Vec<LeaseRecord>,
    /// Maturity events observed.
    pub matured: u64,
}

impl ScopeLifecycle {
    /// Leases that reached a terminal event.
    #[must_use]
    pub fn closed(&self) -> usize {
        self.leases.iter().filter(|l| l.end_tick.is_some()).count()
    }

    /// Terminal-cause breakdown in lexicographic cause order.
    #[must_use]
    pub fn causes(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for lease in &self.leases {
            if let Some(cause) = &lease.end_cause {
                *map.entry(cause.clone()).or_insert(0) += 1;
            }
        }
        map
    }

    /// Integrated held capacity (CPU × ticks held) per center index.
    #[must_use]
    pub fn held_by_center(&self) -> BTreeMap<u64, f64> {
        let mut map = BTreeMap::new();
        for lease in &self.leases {
            *map.entry(lease.center).or_insert(0.0) += lease.cpu * lease.lifetime() as f64;
        }
        map
    }

    /// Integrated held capacity (CPU × ticks held) per operator id.
    #[must_use]
    pub fn held_by_operator(&self) -> BTreeMap<u64, f64> {
        let mut map = BTreeMap::new();
        for lease in &self.leases {
            *map.entry(lease.operator).or_insert(0.0) += lease.cpu * lease.lifetime() as f64;
        }
        map
    }
}

/// The full reconstruction: per-scope lifecycles plus every causality
/// violation found while replaying the trace.
#[derive(Debug, Clone, Default)]
pub struct LifecycleReport {
    /// Per-scope reconstructions, in scope order (scopes are sorted at
    /// flush time, so this order is deterministic).
    pub scopes: Vec<ScopeLifecycle>,
    /// Causality-invariant violations, each naming scope and key.
    pub violations: Vec<String>,
}

impl LifecycleReport {
    /// Total leases reconstructed across scopes.
    #[must_use]
    pub fn total_leases(&self) -> usize {
        self.scopes.iter().map(|s| s.leases.len()).sum()
    }

    /// Total leases that reached a terminal across scopes.
    #[must_use]
    pub fn total_closed(&self) -> usize {
        self.scopes.iter().map(ScopeLifecycle::closed).sum()
    }
}

/// Per-scope replay state.
struct ScopeState {
    lifecycle: ScopeLifecycle,
    /// Live leases: `(center, lease)` → index into `lifecycle.leases`.
    live: BTreeMap<(u64, u64), usize>,
    /// Retired keys (terminal reached) — a reappearing key is invariant
    /// violation 2.
    retired: BTreeMap<(u64, u64), ()>,
    /// Request id → index into `lifecycle.requests`.
    requests: BTreeMap<u64, usize>,
}

impl ScopeState {
    fn new(scope: &str) -> Self {
        Self {
            lifecycle: ScopeLifecycle {
                scope: scope.to_string(),
                requests: Vec::new(),
                leases: Vec::new(),
                matured: 0,
            },
            live: BTreeMap::new(),
            retired: BTreeMap::new(),
            requests: BTreeMap::new(),
        }
    }

    /// Closes the current run segment: flags every still-live lease as
    /// a violation (the engine's run-end closure must have released
    /// them before `run_end`) and clears the per-run id spaces. Two
    /// runs can share one scope label — the same simulation config
    /// appears in more than one experiment — so request ids, lease
    /// keys, and the retired set are all per-run, delimited by
    /// `run_start`.
    fn close_segment(&mut self, violations: &mut Vec<String>) {
        for (&key, &i) in &self.live {
            violations.push(format!(
                "[{}] lease {key:?} granted at tick {} never reached a terminal event",
                self.lifecycle.scope, self.lifecycle.leases[i].granted_tick
            ));
        }
        self.live.clear();
        self.retired.clear();
        self.requests.clear();
    }

    /// Ends the live lease `key` at `tick` with `cause`; a key that is
    /// not live is an orphan terminal.
    fn terminate(&mut self, tick: u64, key: (u64, u64), cause: &str, violations: &mut Vec<String>) {
        match self.live.remove(&key) {
            Some(i) => {
                let lease = &mut self.lifecycle.leases[i];
                lease.end_tick = Some(tick);
                lease.end_cause = Some(cause.to_string());
                self.retired.insert(key, ());
            }
            None => violations.push(format!(
                "[{}] orphan terminal ({cause}) for lease {key:?}",
                self.lifecycle.scope
            )),
        }
    }
}

fn apply(state: &mut ScopeState, event: &Event<'_>, violations: &mut Vec<String>) {
    let scope = &state.lifecycle.scope;
    match *event {
        Event::RunStart { .. } => state.close_segment(violations),
        Event::LeaseRequest {
            tick,
            request,
            group,
            operator,
            cpu,
        } => {
            if state.requests.contains_key(&request) {
                violations.push(format!("[{scope}] duplicate request id {request}"));
                return;
            }
            state
                .requests
                .insert(request, state.lifecycle.requests.len());
            state.lifecycle.requests.push(RequestRecord {
                id: request,
                group,
                operator,
                tick,
                cpu,
                grants: 0,
            });
        }
        Event::LeaseGrant {
            tick,
            request,
            center,
            lease,
            operator,
            cpu,
        } => {
            let key = (center, lease);
            match state.requests.get(&request) {
                Some(&i) => state.lifecycle.requests[i].grants += 1,
                None => violations.push(format!(
                    "[{scope}] grant of lease {key:?} names unknown request {request}"
                )),
            }
            if state.live.contains_key(&key) || state.retired.contains_key(&key) {
                violations.push(format!("[{scope}] lease key {key:?} granted twice"));
                return;
            }
            state.live.insert(key, state.lifecycle.leases.len());
            state.lifecycle.leases.push(LeaseRecord {
                center,
                lease,
                operator,
                request,
                granted_tick: tick,
                matured_tick: None,
                end_tick: None,
                end_cause: None,
                cpu,
            });
        }
        Event::LeaseMature {
            tick,
            center,
            lease,
            ..
        } => match state.live.get(&(center, lease)) {
            Some(&i) => {
                let lease = &mut state.lifecycle.leases[i];
                if lease.matured_tick.is_none() {
                    lease.matured_tick = Some(tick);
                    state.lifecycle.matured += 1;
                }
            }
            None => violations.push(format!(
                "[{scope}] maturity of non-live lease {:?}",
                (center, lease)
            )),
        },
        Event::LeaseRelease {
            tick,
            center,
            lease,
            cause,
            ..
        } => state.terminate(tick, (center, lease), cause, violations),
        Event::LeaseRevoked {
            tick,
            center,
            lease,
            ..
        } => state.terminate(tick, (center, lease), "revoked", violations),
        _ => {}
    }
}

/// Replays the lifecycle chain of every scope in `text` (a JSONL trace)
/// and reconstructs each lease's waterfall, collecting causality
/// violations along the way. One scope label can carry several runs
/// back to back (the same simulation config reached from different
/// experiments shares a label), so the per-run id spaces — request
/// ids, lease keys, the retired set — reset at every `run_start`.
///
/// # Errors
/// Returns the first malformed trace line (schema violations are a
/// reader error, not a lifecycle violation).
pub fn analyze_lifecycle(text: &str) -> Result<LifecycleReport, String> {
    let query = Query::default()
        .kind("run_start")
        .kind("lease_request")
        .kind("lease_grant")
        .kind("lease_mature")
        .kind("lease_release")
        .kind("lease_revoked");
    let mut report = LifecycleReport::default();
    let mut states: Vec<ScopeState> = Vec::new();
    read_trace(text, &query, |line| {
        let state = match states.iter().position(|s| s.lifecycle.scope == line.scope) {
            Some(i) => &mut states[i],
            None => {
                states.push(ScopeState::new(line.scope));
                states.last_mut().expect("just pushed")
            }
        };
        apply(state, &line.event, &mut report.violations);
    })?;
    for mut state in states {
        state.close_segment(&mut report.violations);
        report.scopes.push(state.lifecycle);
    }
    Ok(report)
}

/// Turns a report's violations into a hard error listing every one.
///
/// # Errors
/// Returns the violation list (one per line) when any invariant failed.
pub fn check_lifecycle(report: &LifecycleReport) -> Result<(), String> {
    if report.violations.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{} lifecycle violation(s):\n{}",
        report.violations.len(),
        report.violations.join("\n")
    ))
}

/// Deterministic quantile over a sorted slice (nearest-rank).
fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders the reconstruction as a deterministic text report: per
/// scope, the request/grant/terminal accounting, the request→grant
/// latency and lifetime distributions, the terminal-cause breakdown,
/// and the integrated held capacity per center and per operator.
#[must_use]
pub fn render_lifecycle(report: &LifecycleReport) -> String {
    let mut out = String::new();
    out.push_str("Lease lifecycle reconstruction\n");
    out.push_str("==============================\n");
    for scope in &report.scopes {
        out.push_str(&format!("\nscope: {}\n", scope.scope));
        let unmet = scope.requests.iter().filter(|r| r.grants == 0).count();
        out.push_str(&format!(
            "  requests {} (ungranted {}), leases {} (closed {}, matured {})\n",
            scope.requests.len(),
            unmet,
            scope.leases.len(),
            scope.closed(),
            scope.matured,
        ));
        let pct = if scope.leases.is_empty() {
            100.0
        } else {
            100.0 * scope.closed() as f64 / scope.leases.len() as f64
        };
        out.push_str(&format!("  reconstructed {pct:.1}%\n"));
        // Request→grant latency: grants land the tick their request was
        // made, so nonzero latency is itself a finding.
        let mut latencies: Vec<u64> = Vec::new();
        let by_id: BTreeMap<u64, u64> = scope.requests.iter().map(|r| (r.id, r.tick)).collect();
        for lease in &scope.leases {
            if let Some(&req_tick) = by_id.get(&lease.request) {
                latencies.push(lease.granted_tick.saturating_sub(req_tick));
            }
        }
        latencies.sort_unstable();
        let mut lifetimes: Vec<u64> = scope
            .leases
            .iter()
            .filter(|l| l.end_tick.is_some())
            .map(LeaseRecord::lifetime)
            .collect();
        lifetimes.sort_unstable();
        out.push_str(&format!(
            "  request->grant ticks: p50 {} p99 {} max {}\n",
            quantile(&latencies, 0.50),
            quantile(&latencies, 0.99),
            latencies.last().copied().unwrap_or(0),
        ));
        out.push_str(&format!(
            "  lease lifetime ticks: p50 {} p99 {} max {}\n",
            quantile(&lifetimes, 0.50),
            quantile(&lifetimes, 0.99),
            lifetimes.last().copied().unwrap_or(0),
        ));
        let causes = scope.causes();
        if !causes.is_empty() {
            out.push_str("  terminals by cause:\n");
            for (cause, count) in &causes {
                out.push_str(&format!("    {cause:<12} {count}\n"));
            }
        }
        let held = scope.held_by_center();
        if !held.is_empty() {
            out.push_str("  held cpu-ticks by center:\n");
            for (center, cpu_ticks) in &held {
                out.push_str(&format!("    center {center:<3} {cpu_ticks:.2}\n"));
            }
        }
        let held = scope.held_by_operator();
        if !held.is_empty() {
            out.push_str("  held cpu-ticks by operator:\n");
            for (op, cpu_ticks) in &held {
                out.push_str(&format!("    operator {op:<3} {cpu_ticks:.2}\n"));
            }
        }
    }
    out.push_str(&format!(
        "\ntotal: {} leases, {} closed, {} violations\n",
        report.total_leases(),
        report.total_closed(),
        report.violations.len()
    ));
    if !report.violations.is_empty() {
        out.push_str("violations:\n");
        for v in &report.violations {
            out.push_str(&format!("  {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, body: &str) -> String {
        format!(r#"{{"seq":{seq},"scope":"run a","kind":{body}}}"#)
    }

    fn healthy_trace() -> String {
        [
            line(
                0,
                r#""lease_request","tick":1,"request":4294967296,"group":1,"operator":7,"cpu":2.5"#,
            ),
            line(
                1,
                r#""lease_grant","tick":1,"request":4294967296,"center":0,"lease":0,"operator":7,"cpu":2.5"#,
            ),
            line(
                2,
                r#""lease_mature","tick":5,"center":0,"lease":0,"operator":7"#,
            ),
            line(
                3,
                r#""lease_release","tick":9,"center":0,"lease":0,"operator":7,"cpu":2.5,"cause":"surplus""#,
            ),
        ]
        .join("\n")
    }

    #[test]
    fn healthy_chain_reconstructs_fully() {
        let report = analyze_lifecycle(&healthy_trace()).expect("trace parses");
        check_lifecycle(&report).expect("no violations");
        assert_eq!(report.total_leases(), 1);
        assert_eq!(report.total_closed(), 1);
        let scope = &report.scopes[0];
        assert_eq!(scope.requests.len(), 1);
        assert_eq!(scope.requests[0].group, 1);
        assert_eq!(scope.requests[0].grants, 1);
        let lease = &scope.leases[0];
        assert_eq!(lease.matured_tick, Some(5));
        assert_eq!(lease.lifetime(), 8);
        assert_eq!(lease.end_cause.as_deref(), Some("surplus"));
        assert_eq!(scope.held_by_center().get(&0), Some(&20.0));
        let rendered = render_lifecycle(&report);
        assert!(rendered.contains("reconstructed 100.0%"), "{rendered}");
        assert!(rendered.contains("surplus"), "{rendered}");
    }

    #[test]
    fn orphan_terminal_and_unknown_request_are_violations() {
        let trace = [
            line(
                0,
                r#""lease_grant","tick":1,"request":99,"center":0,"lease":3,"operator":7,"cpu":1.0"#,
            ),
            line(
                1,
                r#""lease_release","tick":2,"center":4,"lease":8,"operator":7,"cpu":1.0,"cause":"surplus""#,
            ),
        ]
        .join("\n");
        let report = analyze_lifecycle(&trace).expect("trace parses");
        let err = check_lifecycle(&report).expect_err("violations found");
        assert!(err.contains("unknown request 99"), "{err}");
        assert!(err.contains("orphan terminal"), "{err}");
        assert!(err.contains("never reached a terminal"), "{err}");
    }

    #[test]
    fn reused_key_and_double_terminal_are_violations() {
        let trace = [
            line(
                0,
                r#""lease_request","tick":1,"request":1,"group":0,"operator":7,"cpu":2.0"#,
            ),
            line(
                1,
                r#""lease_grant","tick":1,"request":1,"center":0,"lease":0,"operator":7,"cpu":2.0"#,
            ),
            line(
                2,
                r#""lease_release","tick":2,"center":0,"lease":0,"operator":7,"cpu":2.0,"cause":"surplus""#,
            ),
            line(
                3,
                r#""lease_release","tick":3,"center":0,"lease":0,"operator":7,"cpu":2.0,"cause":"surplus""#,
            ),
            line(
                4,
                r#""lease_grant","tick":4,"request":1,"center":0,"lease":0,"operator":7,"cpu":2.0"#,
            ),
        ]
        .join("\n");
        let report = analyze_lifecycle(&trace).expect("trace parses");
        let err = check_lifecycle(&report).expect_err("violations found");
        assert!(err.contains("orphan terminal"), "{err}");
        assert!(err.contains("granted twice"), "{err}");
    }

    #[test]
    fn revoked_is_a_valid_terminal() {
        let trace = [
            line(
                0,
                r#""lease_request","tick":0,"request":1,"group":0,"operator":7,"cpu":2.0"#,
            ),
            line(
                1,
                r#""lease_grant","tick":0,"request":1,"center":2,"lease":5,"operator":7,"cpu":2.0"#,
            ),
            line(
                2,
                r#""lease_revoked","tick":6,"center":2,"lease":5,"operator":7,"cpu":2.0"#,
            ),
        ]
        .join("\n");
        let report = analyze_lifecycle(&trace).expect("trace parses");
        check_lifecycle(&report).expect("revocation closes the lease");
        assert_eq!(report.scopes[0].causes().get("revoked"), Some(&1));
    }
}
