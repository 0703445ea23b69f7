//! Plain-text rendering of experiment outputs in the paper's format.

use std::fmt::Write as _;

/// Renders an aligned plain-text table. Column widths adapt to content;
/// headers are underlined with dashes.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:<w$}  ");
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let dash: String = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");
    out.push_str(&dash);
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, w) in widths.iter().enumerate() {
            let cell = row.get(i).map_or("", String::as_str);
            let _ = write!(line, "{cell:<w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Formats a percentage with two decimals (the paper's table style).
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{x:.2}")
}

/// Downsamples an `(index, value)` series to at most `points` rows for
/// compact textual "figures".
#[must_use]
pub fn sparse_series(values: &[f64], points: usize) -> Vec<(usize, f64)> {
    if values.is_empty() || points == 0 {
        return Vec::new();
    }
    let step = (values.len() / points.max(1)).max(1);
    values
        .iter()
        .enumerate()
        .step_by(step)
        .map(|(i, &v)| (i, v))
        .collect()
}

/// Renders a crude horizontal bar for textual figures (one `#` per
/// `unit`, capped at 80 characters).
#[must_use]
pub fn bar(value: f64, unit: f64) -> String {
    if unit <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / unit).round() as usize).min(80);
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(
            &["Name", "Value"],
            &[
                vec!["short".into(), "1".into()],
                vec!["a-much-longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Name"));
        assert!(lines[1].starts_with("---"));
        // The value column starts at the same offset in both data rows.
        let off2 = lines[2].find('1').unwrap();
        let off3 = lines[3].find("22").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn table_handles_missing_cells() {
        let s = render_table(&["A", "B"], &[vec!["x".into()]]);
        assert!(s.contains('x'));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(25.904), "25.90");
    }

    #[test]
    fn sparse_series_downsamples() {
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        let s = sparse_series(&values, 10);
        assert!(s.len() >= 10 && s.len() <= 11);
        assert_eq!(s[0], (0, 0.0));
        assert!(sparse_series(&[], 10).is_empty());
        assert!(sparse_series(&values, 0).is_empty());
        // More points than values: every value returned.
        assert_eq!(sparse_series(&[1.0, 2.0], 10).len(), 2);
    }

    #[test]
    fn bar_caps_and_clamps() {
        assert_eq!(bar(5.0, 1.0), "#####");
        assert_eq!(bar(1000.0, 1.0).len(), 80);
        assert_eq!(bar(-3.0, 1.0), "");
        assert_eq!(bar(3.0, 0.0), "");
    }
}
