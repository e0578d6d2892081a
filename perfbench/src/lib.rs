//! The repository's benchmark: three workloads that each put their
//! load on different layers of the ML/L3 → RichWasm → Wasm stack, every
//! output checked against the RichWasm interpreter.
//!
//! * `compile` — a seeded corpus compiled cold and run to its first
//!   result on one long-lived engine (see [`compile`]).
//! * `serve_interop` / `serve_churn` — an open loop of jobs into an
//!   `EngineServer` at a fixed rate (see [`serve`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) drives the same inputs through each layer's public call
//! under in-memory spans and reports the per-layer metrics. See
//! `README.md` in this directory for why each workload and metric exists.

pub mod compile;
pub mod layers;
pub mod programs;
pub mod serve;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

/// The workloads, by the names `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Compile,
    ServeInterop,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Compile,
        Workload::ServeInterop,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::ServeInterop => "serve_interop",
            Workload::ServeChurn => "serve_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Small inputs and short phases, for the benchmark's own tests.
    pub tiny: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A run's result: operations attempted and failed, and the metrics.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts `ok` as one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Correct when every operation matched its reference and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("wasm_bytes", "bytes"),
    ("compile_per_s", "1/s"),
    ("first_result_p50_ms", "ms"),
    ("first_result_p90_ms", "ms"),
    ("serve_p50_us", "us"),
    ("serve_p90_us", "us"),
    ("serve_jobs_per_s", "1/s"),
];

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("ml.compile_ms", "ms"),
    ("l3.compile_ms", "ms"),
    ("core.typecheck_ms", "ms"),
    ("lower.lower_ms", "ms"),
    ("wasm.validate_ms", "ms"),
    ("wasm.encode_ms", "ms"),
    ("wasm.bytecode_ms", "ms"),
    ("analyze.analyze_ms", "ms"),
    ("engine.compile_overhead_ms", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.instantiate_us", "us"),
    ("engine.reset_us", "us"),
    ("engine.checkout_us", "us"),
    ("engine.invoke_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.service_us", "us"),
    ("server.shed", "count"),
    ("pool.blocked_waits", "count"),
    ("lower.wasm_funcs", "count"),
    ("wasm.bytecode_declined_share", "ratio"),
    ("loadgen.late_p90_us", "us"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Moves the system allocator to the state a long-running process
/// reaches after its first large free.
///
/// glibc serves blocks above a dynamic threshold (128 KiB at start)
/// with fresh `mmap`s, and raises the threshold when such a block is
/// freed. Until then, every instance's 1 MiB linear memory is fresh zero
/// pages that fault in on the first reset (about ten times a steady
/// reset), and whether a run's allocation history raised the threshold
/// differs from seed to seed. One 24 MiB allocate-and-free up front
/// takes that choice out of the measurement.
fn settle_allocator() {
    let block = vec![0u8; 24 << 20];
    drop(std::hint::black_box(block));
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures: an input that does not compile or run on the
/// reference interpreter, or a server that does not start.
pub fn run(opts: &Options) -> Result<Report, String> {
    settle_allocator();
    let report = match opts.workload {
        Workload::Compile => compile::run(opts)?,
        Workload::ServeInterop | Workload::ServeChurn => serve::run(opts)?,
    };
    let expected: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in expected {
        match report.get(name) {
            Some(m) if m.unit == *unit => {}
            _ => return Err(format!("internal: metric {name} [{unit}] missing")),
        }
    }
    Ok(report)
}
