//! Flame-style span profiles over `mmog_obs::span` output.
//!
//! The span tree records `(path, calls, total_ns, max_ns)` per node
//! with `/`-separated paths; this module rebuilds the hierarchy and
//! derives the two quantities the raw snapshot doesn't carry: **self
//! time** (total minus children) and **percent of parent**. Everything
//! here is wall-clock data — the rendered report belongs in the
//! `timing` half of the world and is never byte-compared.

use mmog_obs::{Document, SpanSnapshot, Summary};

/// One node of the reconstructed span hierarchy.
#[derive(Debug, Clone, Default)]
pub struct ProfileNode {
    /// Full `/`-separated span path.
    pub path: String,
    /// Last path segment (the display name).
    pub name: String,
    /// Number of recorded calls (0 for synthesized interior nodes).
    pub calls: u64,
    /// Total wall-clock nanoseconds, children included.
    pub total_ns: u64,
    /// Slowest single call.
    pub max_ns: u64,
    /// Child nodes, in path order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Nanoseconds spent in this node itself, excluding children.
    /// Clamped at zero: children timed on other threads can overlap the
    /// parent and sum past its total.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(children)
    }
}

fn insert(roots: &mut Vec<ProfileNode>, path: &str, snap: &SpanSnapshot) {
    let mut nodes = roots;
    let mut prefix = String::new();
    let mut segments = path.split('/').peekable();
    while let Some(segment) = segments.next() {
        if !prefix.is_empty() {
            prefix.push('/');
        }
        prefix.push_str(segment);
        let idx = match nodes.iter().position(|n| n.name == segment) {
            Some(i) => i,
            None => {
                nodes.push(ProfileNode {
                    path: prefix.clone(),
                    name: segment.to_string(),
                    ..ProfileNode::default()
                });
                nodes.len() - 1
            }
        };
        if segments.peek().is_none() {
            let node = &mut nodes[idx];
            node.calls = snap.calls;
            node.total_ns = snap.total_ns;
            node.max_ns = snap.max_ns;
            return;
        }
        nodes = &mut nodes[idx].children;
    }
}

fn fill_synthesized(node: &mut ProfileNode) {
    for child in &mut node.children {
        fill_synthesized(child);
    }
    if node.calls == 0 && node.total_ns == 0 {
        node.total_ns = node.children.iter().map(|c| c.total_ns).sum();
        node.max_ns = node.children.iter().map(|c| c.max_ns).max().unwrap_or(0);
    }
}

/// Rebuilds the span hierarchy from a flat snapshot (the order
/// `mmog_obs::snapshot_spans` returns is preserved for siblings).
/// Interior paths that were never directly timed get their totals
/// synthesized from their children.
#[must_use]
pub fn profile_from_spans(spans: &[(String, SpanSnapshot)]) -> Vec<ProfileNode> {
    let mut roots = Vec::new();
    for (path, snap) in spans {
        insert(&mut roots, path, snap);
    }
    for root in &mut roots {
        fill_synthesized(root);
    }
    roots
}

/// Rebuilds the span hierarchy from a saved `OBS_summary.json`
/// document (`timing.spans`).
///
/// # Errors
/// Returns a message when the document doesn't parse as a summary.
pub fn profile_from_summary(text: &str) -> Result<Vec<ProfileNode>, String> {
    Ok(profile_from_spans(&Summary::parse(text)?.spans))
}

fn render_node(out: &mut String, node: &ProfileNode, parent_total: u64, depth: usize) {
    use std::fmt::Write as _;
    let pct = if parent_total == 0 {
        100.0
    } else {
        node.total_ns as f64 / parent_total as f64 * 100.0
    };
    let indent = "  ".repeat(depth);
    let label = format!("{indent}{}", node.name);
    let _ = writeln!(
        out,
        "{label:<38} {:>12.3} {:>12.3} {:>9} {:>7.1}%",
        node.total_ns as f64 / 1e6,
        node.self_ns() as f64 / 1e6,
        node.calls,
        pct
    );
    for child in &node.children {
        render_node(out, child, node.total_ns, depth + 1);
    }
}

/// Renders the profile as flame-style indented text. Wall-clock data:
/// embed the result behind `mmog_obs::timing_block` if it ever lands in
/// a byte-compared report.
#[must_use]
pub fn render_profile(roots: &[ProfileNode]) -> String {
    let mut out = String::from(
        "Span profile (mmog-obs-analyze)\n\
         span                                       total_ms      self_ms     calls  of-parent\n",
    );
    for root in roots {
        render_node(&mut out, root, 0, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(calls: u64, total_ns: u64) -> SpanSnapshot {
        SpanSnapshot {
            calls,
            total_ns,
            max_ns: total_ns,
        }
    }

    #[test]
    fn rebuilds_hierarchy_with_self_time() {
        let spans = vec![
            ("sim/run".to_string(), snap(1, 100_000_000)),
            ("sim/run/predict".to_string(), snap(10, 60_000_000)),
            ("sim/run/settle".to_string(), snap(10, 30_000_000)),
            ("world/emulator".to_string(), snap(5, 40_000_000)),
        ];
        let roots = profile_from_spans(&spans);
        assert_eq!(roots.len(), 2);
        let sim = &roots[0];
        assert_eq!(sim.name, "sim");
        // `sim` itself was never timed: synthesized from its child.
        assert_eq!(sim.total_ns, 100_000_000);
        let run = &sim.children[0];
        assert_eq!(run.children.len(), 2);
        assert_eq!(run.self_ns(), 10_000_000);
        assert_eq!(run.children[0].self_ns(), 60_000_000);

        let text = render_profile(&roots);
        assert!(text.contains("predict"), "{text}");
        assert!(text.contains("emulator"), "{text}");
    }

    #[test]
    fn summary_round_trip() {
        let summary = Summary {
            spans: vec![
                ("a/b".to_string(), snap(2, 1000)),
                ("a".to_string(), snap(1, 2000)),
            ],
            ..Summary::default()
        };
        let roots = profile_from_summary(&summary.to_json()).unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "a");
        assert_eq!(roots[0].total_ns, 2000);
        assert_eq!(roots[0].self_ns(), 1000);
        assert!(profile_from_summary("{}").is_err());
        // A schema-less document is rejected, exactly as `obs_check`
        // rejects it.
        let schemaless = summary.to_json().replace("\"schema\"", "\"format\"");
        let err = profile_from_summary(&schemaless).unwrap_err();
        assert!(err.contains("missing schema"), "{err}");
    }
}
