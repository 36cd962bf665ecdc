//! Plain-text tables, CSV and JSON output for the experiment harnesses.
//!
//! The JSON emitter mirrors the `BENCH_*.json` record format the
//! criterion shim writes and `bench_diff` consumes: a flat array of flat
//! objects, one per table row, string values escaped the same way and
//! numeric cells emitted as JSON numbers — so downstream tooling can diff
//! experiment outputs with the same machinery it diffs kernel timings.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A simple fixed-width table printer for experiment summaries.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty; extra cells are kept).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 2));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table as CSV to `path` (headers first, comma-separated,
    /// cells containing commas quoted).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_csv(&self, path: &Path) {
        let mut text = String::new();
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        text.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        text.push('\n');
        for row in &self.rows {
            text.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            text.push('\n');
        }
        write_file(path, &text);
    }

    /// Writes the table as a JSON array of records to `path`: one flat
    /// object per row keyed by the column headers, in the style of the
    /// `BENCH_*.json` artifacts (same string escaping; cells that parse
    /// as finite numbers are emitted unquoted). Missing cells are
    /// omitted; extra cells beyond the header are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn write_json(&self, path: &Path) {
        let mut records = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let fields: Vec<String> = self
                .header
                .iter()
                .zip(row)
                .map(|(key, cell)| format!("{}:{}", json_string(key), json_value(cell)))
                .collect();
            records.push(format!("{{{}}}", fields.join(",")));
        }
        let body = if records.is_empty() {
            "[\n]\n".to_string()
        } else {
            format!("[\n  {}\n]\n", records.join(",\n  "))
        };
        write_file(path, &body);
    }

    /// Writes both report artifacts for one experiment table: `path` as
    /// CSV and its `.json` sibling as the record array of
    /// [`Table::write_json`].
    ///
    /// # Panics
    ///
    /// Panics if either file cannot be written.
    pub fn write_reports(&self, path: &Path) {
        self.write_csv(path);
        self.write_json(&path.with_extension("json"));
    }
}

/// Escapes a string the way the criterion shim does: backslash-escapes
/// quotes and backslashes, `\uXXXX` for control characters.
fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// A cell as a JSON value: unquoted when it is already a valid JSON
/// number token (finite, and not relying on Rust-only spellings like
/// `inf`, `1.` or `.5`), a string otherwise.
fn json_value(cell: &str) -> String {
    let looks_numeric = {
        let digits = cell.strip_prefix('-').unwrap_or(cell);
        !digits.is_empty()
            && digits.chars().all(|c| c.is_ascii_digit() || c == '.')
            && digits.chars().filter(|&c| c == '.').count() <= 1
            && !digits.starts_with('.')
            && !digits.ends_with('.')
            // JSON forbids leading zeros ("007", "01.5").
            && !(digits.len() > 1 && digits.starts_with('0') && !digits[1..].starts_with('.'))
    };
    if looks_numeric && cell.parse::<f64>().is_ok_and(f64::is_finite) {
        cell.to_string()
    } else {
        json_string(cell)
    }
}

/// Writes a text file, creating parent directories as needed.
///
/// # Panics
///
/// Panics on I/O errors.
pub fn write_file(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).expect("create results directory");
    }
    let mut f = fs::File::create(path).expect("create results file");
    f.write_all(content.as_bytes()).expect("write results file");
}

/// Writes `manifest.json` into `dir`, next to the experiment's CSV/JSON:
/// the experiment id, the `--full` flag, the checkout's git revision,
/// every resolved [`parallel::config`] value (the thread count included)
/// and the run's wall time in seconds.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_manifest(dir: &Path, experiment: &str, full: bool, wall_s: f64) {
    let revision = std::env::current_dir()
        .ok()
        .and_then(|cwd| {
            cwd.ancestors()
                .map(|d| d.join(".git"))
                .find(|git| git.is_dir())
        })
        .and_then(|git| git_revision(&git))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let text = manifest_json(experiment, full, &revision, parallel::config::get(), wall_s);
    write_file(&dir.join("manifest.json"), &text);
}

/// The revision `HEAD` of the git directory `git` points at, read from
/// its files without running git: a detached hash, a loose ref, or a
/// packed ref. `None` when `HEAD` is unreadable.
fn git_revision(git: &Path) -> Option<String> {
    let read = |p: PathBuf| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let head = read(git.join("HEAD"))?;
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    let packed = || {
        read(git.join("packed-refs"))?.lines().find_map(|line| {
            let (hash, r) = line.split_once(' ')?;
            (r == name).then(|| hash.to_string())
        })
    };
    Some(read(git.join(name)).or_else(packed).unwrap_or(head))
}

/// The manifest body [`write_manifest`] writes. The configuration is
/// destructured field by field, so a knob added to
/// [`parallel::config::Config`] cannot be left out silently.
fn manifest_json(
    experiment: &str,
    full: bool,
    revision: &str,
    config: &parallel::config::Config,
    wall_s: f64,
) -> String {
    let parallel::config::Config {
        threads,
        shards,
        sched_workers,
        shard_transport,
        job_retries,
        job_deadline_ms,
        telemetry,
        bench_history_window,
    } = config;
    fn opt<T: ToString>(v: Option<T>) -> String {
        v.map_or_else(|| "null".to_string(), |v| v.to_string())
    }
    let transport = shard_transport.map(|t| {
        json_string(match t {
            parallel::config::ShardTransport::Local => "local",
            parallel::config::ShardTransport::Channel => "channel",
        })
    });
    let knobs = [
        ("threads", threads.to_string()),
        ("shards", opt(*shards)),
        ("sched_workers", opt(*sched_workers)),
        ("shard_transport", opt(transport)),
        ("job_retries", opt(*job_retries)),
        ("job_deadline_ms", opt(*job_deadline_ms)),
        ("telemetry", opt(*telemetry)),
        ("bench_history_window", opt(*bench_history_window)),
    ]
    .map(|(k, v)| format!("    {}: {v}", json_string(k)))
    .join(",\n");
    format!(
        "{{\n  \"experiment\": {},\n  \"full\": {full},\n  \"git_revision\": {},\n  \"wall_s\": {wall_s:.6},\n  \"config\": {{\n{knobs}\n  }}\n}}\n",
        json_string(experiment),
        json_string(revision),
    )
}

/// The results directory for an experiment id (e.g. `fig12`).
pub fn results_path(out_dir: &Path, id: &str, file: &str) -> PathBuf {
    out_dir.join(id).join(file)
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(["a,b", "c"]);
        t.row(["x", "y"]);
        let dir = std::env::temp_dir().join("varsaw-test-csv");
        let path = dir.join("t.csv");
        t.write_csv(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("\"a,b\",c\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_records_mirror_the_bench_format() {
        let mut t = Table::new(["id", "energy", "note"]);
        t.row(["fig9/varsaw", "-1.25", "tail \"avg\""])
            .row(["fig9/baseline", "0", "n/a"]);
        let dir = std::env::temp_dir().join("varsaw-test-json");
        let path = dir.join("t.json");
        t.write_json(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.contains(r#"{"id":"fig9/varsaw","energy":-1.25,"note":"tail \"avg\""}"#));
        assert!(text.contains(r#"{"id":"fig9/baseline","energy":0,"note":"n/a"}"#));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_values_quote_non_numbers() {
        assert_eq!(json_value("12.5"), "12.5");
        assert_eq!(json_value("-3"), "-3");
        assert_eq!(json_value("1.2.3"), "\"1.2.3\"");
        assert_eq!(json_value("inf"), "\"inf\"");
        assert_eq!(json_value("NaN"), "\"NaN\"");
        assert_eq!(json_value(".5"), "\".5\"");
        assert_eq!(json_value("5."), "\"5.\"");
        assert_eq!(json_value(""), "\"\"");
        // JSON rejects leading zeros; such cells must stay strings.
        assert_eq!(json_value("007"), "\"007\"");
        assert_eq!(json_value("-01.5"), "\"-01.5\"");
        assert_eq!(json_value("0"), "0");
        assert_eq!(json_value("0.25"), "0.25");
        assert_eq!(json_value("-0.5"), "-0.5");
    }

    #[test]
    fn write_reports_emits_csv_and_json_siblings() {
        let mut t = Table::new(["k", "v"]);
        t.row(["a", "1"]);
        let dir = std::env::temp_dir().join("varsaw-test-reports");
        t.write_reports(&dir.join("r.csv"));
        assert!(dir.join("r.csv").exists());
        assert!(dir.join("r.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_records_revision_every_knob_and_wall_time() {
        let config = parallel::config::Config {
            threads: 4,
            shards: None,
            sched_workers: Some(2),
            shard_transport: Some(parallel::config::ShardTransport::Local),
            job_retries: None,
            job_deadline_ms: Some(250),
            telemetry: Some(false),
            bench_history_window: None,
        };
        let text = manifest_json("table3", false, "0123abc", &config, 14.5);
        for field in [
            r#""experiment": "table3""#,
            r#""full": false"#,
            r#""git_revision": "0123abc""#,
            r#""wall_s": 14.500000"#,
            r#""threads": 4"#,
            r#""shards": null"#,
            r#""sched_workers": 2"#,
            r#""shard_transport": "local""#,
            r#""job_retries": null"#,
            r#""job_deadline_ms": 250"#,
            r#""telemetry": false"#,
            r#""bench_history_window": null"#,
        ] {
            assert!(text.contains(field), "missing {field} in\n{text}");
        }
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn git_revision_reads_detached_loose_and_packed_heads() {
        let git = std::env::temp_dir().join("varsaw-test-manifest-git");
        std::fs::remove_dir_all(&git).ok();
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        write_file(&git.join("HEAD"), "ref: refs/heads/main\n");
        write_file(
            &git.join("packed-refs"),
            "# pack-refs with: peeled\nbbbb refs/heads/main\ncccc refs/heads/other\n",
        );
        assert_eq!(git_revision(&git).as_deref(), Some("bbbb"));
        write_file(&git.join("refs/heads/main"), "aaaa\n");
        assert_eq!(git_revision(&git).as_deref(), Some("aaaa"));
        write_file(&git.join("HEAD"), "dddd\n");
        assert_eq!(git_revision(&git).as_deref(), Some("dddd"));
        std::fs::remove_dir_all(&git).ok();
        assert_eq!(git_revision(&git), None);
    }

    #[test]
    fn write_manifest_lands_next_to_the_reports() {
        let dir = std::env::temp_dir().join("varsaw-test-manifest");
        write_manifest(&dir, "fig8", true, 0.25);
        let text = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(text.contains(r#""experiment": "fig8""#));
        assert!(text.contains(&format!(
            r#""threads": {}"#,
            parallel::config::get().threads
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.0), "1234");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(1.2345), "1.234");
    }
}
