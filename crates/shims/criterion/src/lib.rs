//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! Implements the subset of the criterion API the `richwasm-bench` suite
//! uses, measuring wall-clock time with `std::time::Instant` and printing
//! one line per benchmark:
//!
//! ```text
//! e1_interop/static_typed_run   time: 12.345 µs (20 samples)
//! ```
//!
//! The reported time is the **median** of the per-sample wall-clock
//! measurements (each sample is one call of the timed closure), which is
//! what the CI bench gate consumes.
//!
//! # Machine-readable output (`--json <path>`)
//!
//! Passing `--json <path>` after `--` (`cargo bench -p richwasm-bench --
//! --json BENCH.json`) makes every bench binary append its results to one
//! JSON report:
//!
//! ```json
//! {
//!   "schema": "richwasm-bench/v1",
//!   "benches":    [ {"id": "e7_engine/cold_compile", "median_ns": 350123, "samples": 15} ],
//!   "assertions": [ {"name": "e7_engine/warm_vs_cold", "measured": 48.21, "required": 10.0, "passed": true} ]
//! }
//! ```
//!
//! Bench binaries run as separate processes, so the writer **merges**: an
//! existing report at `path` is loaded first and entries with the same
//! id/name are replaced. The file is flushed after every record, so a
//! panicking acceptance assertion still leaves its (failed) outcome in
//! the report for the CI gate to surface. The loader only understands the
//! format this module writes (one entry per line) — it is a shim, not a
//! JSON library.
//!
//! # Acceptance assertions
//!
//! [`acceptance`] is the speedup-gate primitive: it records the measured
//! ratio against the required ratio into the `assertions` array, then
//! panics when the requirement is not met (failing `cargo bench`, and
//! with it the CI `bench-gate` job).
//!
//! There is no statistical analysis, warm-up tuning, or report output —
//! this exists so `cargo bench` runs offline; swap in the real crate for
//! publication-grade numbers.

use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies a benchmark within a group, optionally with a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name` with a parameter rendered after a slash, criterion-style.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Only a parameter (used as the whole id).
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { name: s }
    }
}

/// Drives the timed closure.
pub struct Bencher {
    samples: u32,
    /// Median per-sample time of the last `iter` call.
    last_median: Duration,
}

impl Bencher {
    /// Times `f`: after a short warm-up, runs `samples` measured calls and
    /// keeps the per-sample median.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..2 {
            black_box(f());
        }
        let mut times = Vec::with_capacity(self.samples as usize);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            times.push(start.elapsed());
        }
        times.sort();
        self.last_median = times[times.len() / 2];
    }

    /// Times with a caller-measured clock: `f(iters)` runs the routine
    /// `iters` times and returns the time that counts, so per-iteration
    /// setup (e.g. dirtying state for a reset) stays off the clock. Each
    /// sample is one call with `iters = 1`; the median is kept, as in
    /// [`Bencher::iter`].
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        for _ in 0..2 {
            black_box(f(1));
        }
        let mut times: Vec<Duration> = (0..self.samples).map(|_| f(1)).collect();
        times.sort();
        self.last_median = times[times.len() / 2];
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

// ---------------------------------------------------------------------------
// The machine-readable report registry.

#[derive(Debug, Clone, PartialEq)]
struct BenchRecord {
    id: String,
    median_ns: u128,
    samples: u32,
}

#[derive(Debug, Clone, PartialEq)]
struct AssertRecord {
    name: String,
    measured: f64,
    required: f64,
    passed: bool,
}

#[derive(Debug, Default)]
struct Registry {
    path: Option<PathBuf>,
    benches: Vec<BenchRecord>,
    assertions: Vec<AssertRecord>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Extracts the raw text of field `key` from a single-line JSON object of
/// the exact shape this module writes. Strings come back unescaped.
fn field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = line[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote.
        let mut end = None;
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => {}
            }
        }
        Some(json_unescape(&stripped[..end?]))
    } else {
        // Number / bool: runs to the next comma or closing brace.
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().to_string())
    }
}

impl Registry {
    /// Loads a previously written report (another bench binary's output)
    /// so this process merges instead of clobbering.
    fn load_existing(&mut self, text: &str) {
        #[derive(PartialEq)]
        enum Section {
            None,
            Benches,
            Assertions,
        }
        let mut section = Section::None;
        for line in text.lines() {
            let t = line.trim();
            if t.starts_with("\"benches\":") {
                section = Section::Benches;
            } else if t.starts_with("\"assertions\":") {
                section = Section::Assertions;
            } else if t.starts_with('{') && t.contains(':') {
                match section {
                    Section::Benches => {
                        if let (Some(id), Some(median), Some(samples)) =
                            (field(t, "id"), field(t, "median_ns"), field(t, "samples"))
                        {
                            if let (Ok(median_ns), Ok(samples)) = (median.parse(), samples.parse())
                            {
                                self.benches.push(BenchRecord {
                                    id,
                                    median_ns,
                                    samples,
                                });
                            }
                        }
                    }
                    Section::Assertions => {
                        if let (Some(name), Some(m), Some(r), Some(p)) = (
                            field(t, "name"),
                            field(t, "measured"),
                            field(t, "required"),
                            field(t, "passed"),
                        ) {
                            if let (Ok(measured), Ok(required)) = (m.parse(), r.parse()) {
                                self.assertions.push(AssertRecord {
                                    name,
                                    measured,
                                    required,
                                    passed: p == "true",
                                });
                            }
                        }
                    }
                    Section::None => {}
                }
            }
        }
    }

    fn render(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"richwasm-bench/v1\",\n  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            let sep = if i + 1 == self.benches.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {}, \"samples\": {}}}{sep}\n",
                json_escape(&b.id),
                b.median_ns,
                b.samples
            ));
        }
        out.push_str("  ],\n  \"assertions\": [\n");
        for (i, a) in self.assertions.iter().enumerate() {
            let sep = if i + 1 == self.assertions.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"measured\": {:.4}, \"required\": {:.4}, \"passed\": {}}}{sep}\n",
                json_escape(&a.name),
                a.measured,
                a.required,
                a.passed
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn flush(&self) {
        if let Some(path) = &self.path {
            if let Err(e) = fs::write(path, self.render()) {
                eprintln!(
                    "warning: could not write bench report {}: {e}",
                    path.display()
                );
            }
        }
    }
}

/// Parses harness arguments (the part of `cargo bench -- <args>` cargo
/// forwards to every bench binary). Recognises `--json <path>`; everything
/// else is ignored for real-criterion flag compatibility. Called by the
/// `main` that [`criterion_main!`] generates.
pub fn init_from_args(args: impl Iterator<Item = String>) {
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--json" {
            if let Some(path) = args.next() {
                let mut reg = registry().lock().expect("bench registry poisoned");
                reg.path = Some(PathBuf::from(&path));
                if let Ok(existing) = fs::read_to_string(&path) {
                    reg.load_existing(&existing);
                }
            }
        }
    }
}

/// Writes the report (when `--json` is active). Called by the `main` that
/// [`criterion_main!`] generates, after all groups ran.
pub fn finish() {
    registry().lock().expect("bench registry poisoned").flush();
}

fn record_bench(id: &str, median: Duration, samples: u32) {
    let mut reg = registry().lock().expect("bench registry poisoned");
    reg.benches.retain(|b| b.id != id);
    reg.benches.push(BenchRecord {
        id: id.to_string(),
        median_ns: median.as_nanos(),
        samples,
    });
    reg.flush();
}

/// Records a speedup acceptance gate — `measured` must be ≥ `required` —
/// into the machine-readable report, then enforces it: a shortfall panics
/// with both numbers, which fails `cargo bench` and the CI `bench-gate`.
/// The outcome is flushed *before* the panic, so a tripped gate is still
/// visible in the JSON artifact.
pub fn acceptance(name: &str, measured: f64, required: f64) {
    let passed = measured >= required;
    {
        let mut reg = registry().lock().expect("bench registry poisoned");
        reg.assertions.retain(|a| a.name != name);
        reg.assertions.push(AssertRecord {
            name: name.to_string(),
            measured,
            required,
            passed,
        });
        reg.flush();
    }
    println!(
        "acceptance {name:<40} measured {measured:>8.2}x  required {required:>5.2}x  [{}]",
        if passed { "ok" } else { "FAILED" }
    );
    assert!(
        passed,
        "acceptance `{name}`: measured {measured:.2}x < required {required:.2}x"
    );
}

fn run_one(group: Option<&str>, id: &BenchmarkId, samples: u32, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        last_median: Duration::ZERO,
    };
    f(&mut b);
    let full = match group {
        Some(g) => format!("{g}/{}", id.name),
        None => id.name.clone(),
    };
    record_bench(&full, b.last_median, samples);
    println!(
        "{full:<48} time: {} ({samples} samples)",
        fmt_duration(b.last_median)
    );
}

/// A named group of benchmarks sharing a sample count.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    samples: u32,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of measured iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1) as u32;
        self
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut f = f;
        run_one(Some(&self.name), &id, self.samples, |b| f(b));
        self
    }

    /// Runs a benchmark parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut f = f;
        run_one(Some(&self.name), &id, self.samples, |b| f(b, input));
        self
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(self) {}
}

/// The top-level harness handle passed to bench functions.
#[derive(Default)]
pub struct Criterion {
    default_samples: u32,
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = if self.default_samples == 0 {
            10
        } else {
            self.default_samples
        };
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            samples,
        }
    }

    /// Runs an ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let samples = if self.default_samples == 0 {
            10
        } else {
            self.default_samples
        };
        let mut f = f;
        run_one(None, &id, samples, |b| f(b));
        self
    }
}

/// Declares a bench group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, running the given groups. Parses
/// `--json <path>` from the harness arguments and writes/merges the
/// machine-readable report after the groups finish.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_from_args(std::env::args().skip(1));
            $($group();)+
            $crate::finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_load() {
        let reg = Registry {
            path: None,
            benches: vec![
                BenchRecord {
                    id: "e7_engine/cold_compile".into(),
                    median_ns: 350_123,
                    samples: 15,
                },
                BenchRecord {
                    id: "weird \"id\" with, braces}".into(),
                    median_ns: 7,
                    samples: 1,
                },
            ],
            assertions: vec![AssertRecord {
                name: "e9_parallel/scaling".into(),
                measured: 2.41,
                required: 2.0,
                passed: true,
            }],
        };
        let text = reg.render();
        let mut loaded = Registry::default();
        loaded.load_existing(&text);
        assert_eq!(loaded.benches, reg.benches);
        assert_eq!(loaded.assertions, reg.assertions);
    }

    #[test]
    fn merge_replaces_same_id() {
        let mut reg = Registry::default();
        reg.load_existing(
            "{\n  \"benches\": [\n    {\"id\": \"a\", \"median_ns\": 1, \"samples\": 2}\n  ],\n  \"assertions\": [\n  ]\n}\n",
        );
        assert_eq!(reg.benches.len(), 1);
        reg.benches.retain(|b| b.id != "a");
        reg.benches.push(BenchRecord {
            id: "a".into(),
            median_ns: 9,
            samples: 3,
        });
        assert_eq!(reg.benches.len(), 1);
        assert_eq!(reg.benches[0].median_ns, 9);
    }

    #[test]
    fn field_extraction_handles_escapes_and_numbers() {
        let line = r#"{"id": "a\\b \"c\"", "median_ns": 42, "samples": 15}"#;
        assert_eq!(field(line, "id").unwrap(), "a\\b \"c\"");
        assert_eq!(field(line, "median_ns").unwrap(), "42");
        let line = r#"{"name": "n", "measured": 2.4100, "required": 2.0000, "passed": false}"#;
        assert_eq!(field(line, "passed").unwrap(), "false");
        assert_eq!(field(line, "measured").unwrap(), "2.4100");
    }
}
