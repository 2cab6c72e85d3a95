//! Machine-readable experiment reports.
//!
//! [`ExperimentReport`] is the result type of every experiment in the
//! harness: a titled grid of typed cells with named, unit-annotated
//! columns. A report keeps numbers as numbers until an emitter renders
//! them, so the same result can feed a terminal
//! ([`ExperimentReport::render_text`]), `EXPERIMENTS.md`
//! ([`ExperimentReport::render_markdown`]), or downstream tooling
//! ([`ExperimentReport::to_json`], [`ExperimentReport::to_csv`]).
//!
//! All serialization is hand-rolled — the build environment has no
//! crates.io access. The JSON layout is versioned (`eole-report/v1`) and
//! documented in `EXPERIMENTS.md`.

/// One column of a report: a display name plus an optional unit
/// (`"IPC"`, `"×"`, `"%"`, `"cycles"`, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Unit annotation; `None` for unitless/text columns.
    pub unit: Option<String>,
}

impl ColumnSpec {
    /// A unitless column.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnSpec { name: name.into(), unit: None }
    }

    /// A column with a unit.
    pub fn with_unit(name: impl Into<String>, unit: impl Into<String>) -> Self {
        ColumnSpec { name: name.into(), unit: Some(unit.into()) }
    }
}

/// One typed cell of a report.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Free text (row labels, config names, descriptions).
    Text(String),
    /// An exact counter.
    Int(u64),
    /// A measured/derived quantity; rendered with 3 decimals in the text
    /// emitters, full precision in JSON.
    Num(f64),
}

impl Cell {
    /// Display rendering (text, Markdown and CSV emitters).
    fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(i) => i.to_string(),
            Cell::Num(v) => format!("{v:.3}"),
        }
    }

    /// Full-precision rendering for machine-readable CSV (`{v}` prints
    /// the shortest string that round-trips the `f64`).
    fn render_precise(&self) -> String {
        match self {
            Cell::Num(v) => format!("{v}"),
            other => other.render(),
        }
    }

    /// JSON rendering: numbers stay numbers; non-finite floats become
    /// `null` (JSON has no NaN/Inf).
    fn to_json(&self) -> String {
        match self {
            Cell::Text(s) => json_string(s),
            Cell::Int(i) => i.to_string(),
            Cell::Num(v) if v.is_finite() => format!("{v}"),
            Cell::Num(_) => "null".to_string(),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(i: u64) -> Self {
        Cell::Int(i)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}

/// Escapes a string into a JSON string literal (quotes included) — the
/// one escaper every hand-rolled emitter in the workspace shares.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes a CSV field per RFC 4180: quoted when it contains a comma,
/// quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// A titled grid of typed results — what every experiment returns.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentReport {
    id: String,
    title: String,
    columns: Vec<ColumnSpec>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report. `id` is the stable machine name
    /// (`"fig7"`, `"table3"`, …); `title` is the human heading.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a methodology annotation (e.g. "stitched from 8
    /// intervals, warmup 5000 µ-ops") rendered under the title in every
    /// format. Annotations never change the data grid — they exist so a
    /// report built from approximate (interval-stitched) runs can never
    /// masquerade as a serial one.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Methodology annotations, in insertion order.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Appends a unitless column (builder style).
    #[must_use]
    pub fn column(mut self, name: impl Into<String>) -> Self {
        self.columns.push(ColumnSpec::new(name));
        self
    }

    /// Appends a unit-annotated column (builder style).
    #[must_use]
    pub fn column_unit(mut self, name: impl Into<String>, unit: impl Into<String>) -> Self {
        self.columns.push(ColumnSpec::with_unit(name, unit));
        self
    }

    /// Appends several columns sharing one unit (speedup grids).
    #[must_use]
    pub fn columns_unit<I, S>(mut self, names: I, unit: &str) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for n in names {
            self.columns.push(ColumnSpec::with_unit(n, unit));
        }
        self
    }

    /// Stable machine name.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Human-readable title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Column specifications.
    pub fn columns(&self) -> &[ColumnSpec] {
        &self.columns
    }

    /// Data rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The cell at (`row`, `col`), if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&Cell> {
        self.rows.get(row).and_then(|r| r.get(col))
    }

    /// The cell at (`row`, `col`) as an `f64` (`Int` widens; `Text`
    /// parses), if possible. Convenience for tests and aggregation.
    pub fn value(&self, row: usize, col: usize) -> Option<f64> {
        match self.cell(row, col)? {
            Cell::Num(v) => Some(*v),
            Cell::Int(i) => Some(*i as f64),
            Cell::Text(s) => s.parse().ok(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the column count — a harness
    /// bug, not a runtime condition.
    pub fn add_row(&mut self, cells: Vec<Cell>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "report {}: row width {} != column count {}",
            self.id,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    fn header_labels(&self) -> Vec<String> {
        self.columns
            .iter()
            .map(|c| match &c.unit {
                Some(u) => format!("{} ({u})", c.name),
                None => c.name.clone(),
            })
            .collect()
    }

    /// Renders an aligned plain-text table (terminal output).
    pub fn render_text(&self) -> String {
        let headers = self.header_labels();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(Cell::render).collect()).collect();
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", c, width = widths[i]));
            }
            line.push('\n');
            line
        };
        let mut out = format!("== {} ==\n", self.title);
        for n in &self.notes {
            out.push_str(&format!("[{n}]\n"));
        }
        out.push_str(&fmt_row(&headers));
        let total: usize =
            widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &rendered {
            out.push_str(&fmt_row(r));
        }
        out
    }

    /// Renders a GitHub-flavored Markdown table.
    pub fn render_markdown(&self) -> String {
        let headers = self.header_labels();
        let mut out = format!("### {}\n\n", self.title);
        for n in &self.notes {
            out.push_str(&format!("_{n}_\n\n"));
        }
        out.push_str(&format!("| {} |\n", headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
        for r in &self.rows {
            let cells: Vec<String> = r.iter().map(Cell::render).collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }

    /// Serializes to the `eole-report/v1` JSON object (schema in
    /// `EXPERIMENTS.md`): columns keep their units, numeric cells stay
    /// numeric at full precision.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"eole-report/v1\",");
        out.push_str(&format!("\"id\":{},", json_string(&self.id)));
        out.push_str(&format!("\"title\":{},", json_string(&self.title)));
        // Additive to the v1 schema: only emitted when annotations exist,
        // so unannotated payloads stay byte-identical to older ones.
        if !self.notes.is_empty() {
            out.push_str("\"notes\":[");
            for (i, n) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_string(n));
            }
            out.push_str("],");
        }
        out.push_str("\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"name\":{}", json_string(&c.name)));
            match &c.unit {
                Some(u) => out.push_str(&format!(",\"unit\":{}}}", json_string(u))),
                None => out.push_str(",\"unit\":null}"),
            }
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&cell.to_json());
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Serializes to RFC-4180-style CSV: one header row (units folded
    /// into the header as `name (unit)`), then one line per data row.
    /// Numeric cells keep full precision (matching the JSON emitter),
    /// unlike the 3-decimal display renderings.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let headers: Vec<String> =
            self.header_labels().iter().map(|h| csv_field(h)).collect();
        out.push_str(&headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> =
                row.iter().map(|c| csv_field(&c.render_precise())).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// Serializes several reports as one JSON array (the `--format json`
/// payload of the `experiments` CLI wraps this with run metadata).
pub fn reports_to_json(reports: &[ExperimentReport]) -> String {
    let mut out = String::from("[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        let mut r = ExperimentReport::new("demo", "Demo — sample")
            .column("bench")
            .column_unit("ipc", "IPC")
            .column_unit("squashes", "count");
        r.add_row(vec!["gzip".into(), Cell::Num(0.984), Cell::Int(12)]);
        r.add_row(vec!["mcf".into(), Cell::Num(0.105), Cell::Int(3)]);
        r
    }

    #[test]
    fn json_matches_golden_string() {
        let json = sample().to_json();
        assert_eq!(
            json,
            "{\"schema\":\"eole-report/v1\",\"id\":\"demo\",\
             \"title\":\"Demo — sample\",\
             \"columns\":[{\"name\":\"bench\",\"unit\":null},\
             {\"name\":\"ipc\",\"unit\":\"IPC\"},\
             {\"name\":\"squashes\",\"unit\":\"count\"}],\
             \"rows\":[[\"gzip\",0.984,12],[\"mcf\",0.105,3]]}"
                .replace("             ", "")
        );
    }

    #[test]
    fn csv_matches_golden_string() {
        let csv = sample().to_csv();
        assert_eq!(csv, "bench,ipc (IPC),squashes (count)\ngzip,0.984,12\nmcf,0.105,3\n");
    }

    #[test]
    fn csv_keeps_full_numeric_precision() {
        let mut r = ExperimentReport::new("p", "Precision").column("x").column_unit("v", "×");
        r.add_row(vec!["a".into(), Cell::Num(0.9610893364928157)]);
        assert_eq!(r.to_csv(), "x,v (×)\na,0.9610893364928157\n");
    }

    #[test]
    fn csv_quotes_fields_with_commas_and_quotes() {
        let mut r = ExperimentReport::new("q", "Quoting").column("a").column("b");
        r.add_row(vec!["has,comma".into(), "has \"quote\"".into()]);
        assert_eq!(r.to_csv(), "a,b\n\"has,comma\",\"has \"\"quote\"\"\"\n");
    }

    #[test]
    fn json_escapes_special_characters_and_nan() {
        let mut r = ExperimentReport::new("esc", "with \"quotes\"\nand newline")
            .column("x")
            .column("v");
        r.add_row(vec!["tab\there".into(), Cell::Num(f64::NAN)]);
        let json = r.to_json();
        assert!(json.contains("\"title\":\"with \\\"quotes\\\"\\nand newline\""));
        assert!(json.contains("\"tab\\there\""));
        assert!(json.contains(",null]"), "NaN must serialize as null: {json}");
    }

    #[test]
    fn markdown_folds_units_into_headers() {
        let md = sample().render_markdown();
        assert!(md.contains("### Demo — sample"));
        assert!(md.contains("| bench | ipc (IPC) | squashes (count) |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| gzip | 0.984 | 12 |"));
    }

    #[test]
    fn text_rendering_is_aligned() {
        let txt = sample().render_text();
        assert!(txt.starts_with("== Demo — sample ==\n"));
        assert_eq!(txt.lines().count(), 5); // title, header, rule, 2 rows
    }

    #[test]
    fn value_accessor_widens_and_parses() {
        let r = sample();
        assert_eq!(r.value(0, 1), Some(0.984));
        assert_eq!(r.value(0, 2), Some(12.0));
        assert_eq!(r.value(0, 0), None, "\"gzip\" is not numeric");
        assert_eq!(r.value(9, 0), None, "out of range");
    }

    #[test]
    fn reports_to_json_is_a_valid_array() {
        let arr = reports_to_json(&[sample(), sample()]);
        assert!(arr.starts_with('['));
        assert!(arr.ends_with(']'));
        assert_eq!(arr.matches("\"schema\":\"eole-report/v1\"").count(), 2);
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut r = ExperimentReport::new("x", "x").column("a").column("b");
        r.add_row(vec!["only-one".into()]);
    }
}
