//! Structured figure data with text and JSON rendering.

use obs::json;

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// One regenerated table or figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Identifier, e.g. "fig03".
    pub id: &'static str,
    /// Title matching the paper's caption.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// The series.
    pub series: Vec<Series>,
    /// Free-form notes: deviations, calibration remarks.
    pub notes: Vec<String>,
}

impl FigureData {
    /// Render as an aligned text table (x column + one column per series).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        // Collect the x grid (union, sorted).
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup();
        out.push_str(&format!("{:>12}", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {:>24}", truncate(&s.label, 24)));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{:>12}", trim_num(x)));
            for s in &self.series {
                match s.points.iter().find(|p| p.0 == x) {
                    Some(&(_, y)) => out.push_str(&format!(" {:>24}", trim_num(y))),
                    None => out.push_str(&format!(" {:>24}", "-")),
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }

    /// Serialize to pretty JSON (2-space indent, struct field order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json::escape(self.id)));
        out.push_str(&format!("  \"title\": {},\n", json::escape(&self.title)));
        out.push_str(&format!("  \"x_label\": {},\n", json::escape(self.x_label)));
        out.push_str(&format!("  \"y_label\": {},\n", json::escape(self.y_label)));
        out.push_str("  \"series\": [\n");
        for (i, s) in self.series.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": {},\n", json::escape(&s.label)));
            out.push_str("      \"points\": [\n");
            for (j, &(x, y)) in s.points.iter().enumerate() {
                out.push_str(&format!(
                    "        [\n          {},\n          {}\n        ]{}\n",
                    json::number(x),
                    json::number(y),
                    if j + 1 < s.points.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.series.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [\n");
        for (i, n) in self.notes.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                json::escape(n),
                if i + 1 < self.notes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }

    /// Render as CSV (x, then one column per series).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(self.x_label);
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite x"));
        xs.dedup();
        for &x in &xs {
            out.push_str(&trim_num(x));
            for s in &self.series {
                out.push(',');
                if let Some(&(_, y)) = s.points.iter().find(|p| p.0 == x) {
                    out.push_str(&trim_num(y));
                }
            }
            out.push('\n');
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        s.chars().take(n - 1).chain(std::iter::once('…')).collect()
    }
}

fn trim_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e9 {
        format!("{}", v as i64)
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureData {
        FigureData {
            id: "figXX",
            title: "sample".into(),
            x_label: "cores",
            y_label: "GF",
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![(12.0, 1.5), (24.0, 3.0)],
                },
                Series {
                    label: "b".into(),
                    points: vec![(24.0, 2.0)],
                },
            ],
            notes: vec!["hello".into()],
        }
    }

    #[test]
    fn text_render_includes_all_series_and_notes() {
        let t = sample().render_text();
        assert!(t.contains("figXX"));
        assert!(t.contains("note: hello"));
        assert!(t.contains("1.50"));
        // Missing point rendered as '-'.
        assert!(t.lines().any(|l| l.contains("12") && l.contains('-')));
    }

    #[test]
    fn json_round_trips_structure() {
        let j = sample().to_json();
        let v = json::Value::parse(&j).unwrap();
        assert_eq!(v["id"], "figXX");
        assert_eq!(v["series"][0]["points"][1][1], 3.0);
        assert_eq!(v["notes"][0], "hello");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = sample().render_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "cores,a,b");
        assert_eq!(lines.count(), 2);
    }
}
