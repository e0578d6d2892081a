//! The `compile` workload: a seeded corpus compiled cold and run to its
//! first result, in rounds, on one long-lived engine.
//!
//! Each round clears the artifact cache and submits the corpus in a
//! seeded order in which a seeded share of submissions resubmit an
//! earlier program (cache hits). Per submission: `Engine::compile`,
//! `Artifact::instantiate`, the first call (the first result), then one
//! warm job on the same instance (`Instance::reset` + the call again).
//! Metrics are computed per round and reported as the figure of the
//! quietest quarter of rounds (see [`crate::stats::quiet_time`]).

use std::time::{Duration, Instant};

use richwasm_fuzz::Rng;
use richwasm_repro::Engine;

use crate::layers::{
    cold_start, print_first_result_accounting, push_compile_layers, replay_static, warm_job,
    EmitCounts,
};
use crate::programs::{compile_corpus, production_config, Program};
use crate::serve::{start_server, ServeLayers};
use crate::stats::{median, ms, peak_rss_mb, quantile, quiet_rate, quiet_time, us};
use crate::trace::Tracer;
use crate::{Options, Report};

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 5;
/// The serve probe a traced run makes on the corpus's first program,
/// so the server and pool layers read on this workload too.
const PROBE_RATE: f64 = 2_000.0;

struct Sizes {
    per_tier: usize,
    chains: usize,
    towers: &'static [u32],
}

fn sizes(tiny: bool) -> Sizes {
    if tiny {
        Sizes {
            per_tier: 3,
            chains: 2,
            towers: &[2],
        }
    } else {
        Sizes {
            per_tier: 100,
            chains: 16,
            towers: &[2, 3, 3, 4],
        }
    }
}

struct Corpus {
    programs: Vec<Program>,
    /// Submission order: indices into `programs`, resubmissions included.
    order: Vec<usize>,
}

/// Builds the corpus and its submission order: every program once, plus
/// about a quarter more submissions (a third of the program count, plus
/// a seeded 0–7) that resubmit a uniformly chosen earlier program, at
/// seeded positions.
fn setup(seed: u64, tiny: bool) -> Result<Corpus, String> {
    let s = sizes(tiny);
    let programs = compile_corpus(seed, s.per_tier, s.chains, s.towers)?;
    let mut rng = Rng::from_seed(seed ^ 0x5EB_0B17);
    let mut resubs = programs.len() / 3 + rng.below(8) as usize;
    let mut order = Vec::with_capacity(programs.len() + resubs);
    let mut next = 0;
    while next < programs.len() {
        let left = (programs.len() - next + resubs) as u64;
        if next > 0 && rng.below(left) < resubs as u64 {
            order.push(rng.below(next as u64) as usize);
            resubs -= 1;
        } else {
            order.push(next);
            next += 1;
        }
    }
    Ok(Corpus { programs, order })
}

/// One round's figures.
#[derive(Default)]
struct Round {
    compile_s: f64,
    first_ms: Vec<f64>,
    warm_us: Vec<f64>,
    warm_s: f64,
    wasm_bytes: u64,
    /// Emitted-code counts summed over the cold compiles (traced rounds
    /// only).
    counts: EmitCounts,
}

/// One round: each submission's cold start, then one warm job on its
/// instance. With a tracer, both run under spans (request ids from
/// `req0` on), and each compile the engine ran cold is followed by a
/// replay of the static layers on its sources.
fn round(
    engine: &Engine,
    corpus: &Corpus,
    mut tr: Option<(&mut Tracer, u64)>,
    report: &mut Report,
) -> Result<Round, String> {
    engine.clear_cache();
    let mut r = Round::default();
    for (i, &pi) in corpus.order.iter().enumerate() {
        let p = &corpus.programs[pi];
        let mut sub = tr.as_mut().map(|(t, req0)| (&mut **t, *req0 + i as u64));
        let cs = cold_start(engine, p, sub.as_mut().map(|(t, req)| (&mut **t, *req)));
        report.check(cs.ok);
        r.compile_s += cs.compile.as_secs_f64();
        r.first_ms.push(ms(cs.first_result));
        if cs.cold {
            r.wasm_bytes += cs.wasm_bytes;
        }
        if let Some(mut inst) = cs.instance {
            let (d, ok) = warm_job(
                &mut inst,
                &p.call,
                sub.as_mut().map(|(t, req)| (&mut **t, *req)),
            );
            report.check(ok);
            r.warm_us.push(us(d));
            r.warm_s += d.as_secs_f64();
        }
        // Replay after the engine's own compile, and only for compiles
        // the engine ran cold, so the replay mirrors exactly the work
        // inside the traced `engine.compile` spans.
        if let (Some((t, req)), true) = (sub, cs.cold) {
            let c = replay_static(t, req, &p.source)?;
            r.counts.wasm_funcs += c.wasm_funcs;
            r.counts.declined += c.declined;
        }
    }
    Ok(r)
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut corpus = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        corpus = Some(setup(opts.seed, opts.tiny)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");
    println!(
        "compile: {} programs, {} submissions per round (seed {})",
        corpus.programs.len(),
        corpus.order.len(),
        opts.seed
    );
    let engine = Engine::with_config(production_config());
    if opts.trace {
        traced(opts, &engine, &corpus, report)
    } else {
        untraced(opts, &engine, &corpus, &mut report, median(&mut setup_s))?;
        Ok(report)
    }
}

fn untraced(
    opts: &Options,
    engine: &Engine,
    corpus: &Corpus,
    report: &mut Report,
    setup_s: f64,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed() < budget {
        rounds.push(round(engine, corpus, None, report)?);
    }
    let subs = corpus.order.len() as f64;
    let mut compile_rate: Vec<f64> = rounds.iter().map(|r| subs / r.compile_s).collect();
    let mut fr50: Vec<f64> = Vec::new();
    let mut fr90: Vec<f64> = Vec::new();
    let mut w50: Vec<f64> = Vec::new();
    let mut w90: Vec<f64> = Vec::new();
    let mut wrate: Vec<f64> = Vec::new();
    let mut pooled_first: Vec<f64> = Vec::new();
    for r in &mut rounds {
        pooled_first.extend_from_slice(&r.first_ms);
        fr50.push(quantile(&mut r.first_ms, 0.5));
        fr90.push(quantile(&mut r.first_ms, 0.9));
        w50.push(quantile(&mut r.warm_us, 0.5));
        w90.push(quantile(&mut r.warm_us, 0.9));
        wrate.push(r.warm_us.len() as f64 / r.warm_s);
    }
    let n = pooled_first.len();
    println!(
        "compile: {} rounds; first_result p99 {:.3} ms over {n} submissions ({} beyond)",
        rounds.len(),
        quantile(&mut pooled_first, 0.99),
        n / 100
    );
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
    report.push("wasm_bytes", rounds[0].wasm_bytes as f64, "bytes");
    report.push("compile_per_s", quiet_rate(&mut compile_rate), "1/s");
    report.push("first_result_p50_ms", quiet_time(&mut fr50), "ms");
    report.push("first_result_p90_ms", quiet_time(&mut fr90), "ms");
    report.push("serve_p50_us", quiet_time(&mut w50), "us");
    report.push("serve_p90_us", quiet_time(&mut w90), "us");
    report.push("serve_jobs_per_s", quiet_rate(&mut wrate), "1/s");
    Ok(())
}

fn traced(
    opts: &Options,
    engine: &Engine,
    corpus: &Corpus,
    mut report: Report,
) -> Result<Report, String> {
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut tr = Tracer::default();
    let mut untraced_first = Vec::new();
    let mut counts = None;
    let mut rounds = 0u64;
    let start = Instant::now();
    // Untraced and traced rounds alternate, so machine drift lands on
    // both sides of the tracing-overhead comparison.
    while rounds == 0 || start.elapsed() < budget {
        untraced_first.extend(round(engine, corpus, None, &mut report)?.first_ms);
        let traced = round(
            engine,
            corpus,
            Some((&mut tr, rounds * 1_000_000)),
            &mut report,
        )?;
        counts.get_or_insert(traced.counts);
        rounds += 1;
    }
    let counts = counts.expect("at least one traced round");
    let hit_ratio = engine.cache_stats().hit_rate();

    // The server and pool layers: a short probe serving the corpus's
    // first program, which this workload otherwise never serves.
    let probe = &corpus.programs[0];
    let artifact = engine
        .compile(&probe.set)
        .map_err(|e| format!("probe compile: {e}"))?;
    let server = start_server(&artifact)?;
    let mut serve = ServeLayers::new(server)?;
    let mut rng = Rng::from_seed(opts.seed ^ 0x9A0BE);
    serve.cycle(
        std::slice::from_ref(&probe.call),
        &mut rng,
        PROBE_RATE,
        Duration::from_secs_f64(if opts.tiny { 0.05 } else { 0.5 }),
        &mut tr,
        rounds * 1_000_000,
        &mut report,
    );

    let path = opts
        .trace_dir
        .join(format!("compile-seed{}.tsv", opts.seed));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "compile: {} spans written to {}",
        tr.spans().len(),
        path.display()
    );
    let totals = tr.totals();
    let unattributed = print_first_result_accounting("compile", &tr, &totals);
    serve.print_accounting("compile (serve probe)", &tr);
    let mut traced_first: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "first_result")
        .map(|s| s.dur() as f64 / 1e6)
        .collect();
    let (t50, u50) = (median(&mut traced_first), median(&mut untraced_first));
    let overhead = t50 / u50 - 1.0;
    println!(
        "compile: tracing overhead: first_result p50 traced {t50:.4} ms vs untraced {u50:.4} ms ({:+.1}%)",
        100.0 * overhead
    );

    push_compile_layers(&mut report, &totals, hit_ratio, counts);
    serve.push_pool_layers(&mut report, &totals);
    report.push("trace.unattributed_share", unattributed, "ratio");
    report.push("trace.overhead_share", overhead, "ratio");
    Ok(report)
}
