//! The public layer calls the benchmark makes, one call at a time:
//! the static pipeline replayed stage by stage on a program's sources,
//! a cold start through the engine, and jobs driven through an instance
//! pool. Each call can be wrapped in a span.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use richwasm::env::ModuleEnv;
use richwasm::syntax::Module;
use richwasm::typecheck::check_module;
use richwasm_fuzz::{FuzzProgram, SourceModule};
use richwasm_repro::{Engine, Instance, InstancePool, Invocation, PipelineError};

use crate::programs::{Call, Program};
use crate::trace::{LayerTotal, Tracer};
use crate::Report;

/// What the lowering emitted for one program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitCounts {
    /// Wasm functions defined across the lowered modules (runtime
    /// module included).
    pub wasm_funcs: u64,
    /// Of those, functions the bytecode compiler declined (left to the
    /// tree-walking tier).
    pub declined: u64,
}

/// The static layers in pipeline order: span name and metric name. The
/// first [`FRONT_LAYERS`] run inside the `static.front` stage (on
/// threads for a multi-module set); the rest run one after another.
pub const STATIC_LAYERS: [(&str, &str); 8] = [
    ("ml.compile", "ml.compile_ms"),
    ("l3.compile", "l3.compile_ms"),
    ("core.typecheck", "core.typecheck_ms"),
    ("lower.lower", "lower.lower_ms"),
    ("wasm.validate", "wasm.validate_ms"),
    ("wasm.encode", "wasm.encode_ms"),
    ("wasm.bytecode", "wasm.bytecode_ms"),
    ("analyze.analyze", "analyze.analyze_ms"),
];

/// How many of [`STATIC_LAYERS`] make up the frontend stage.
pub const FRONT_LAYERS: usize = 3;

/// Span totals by name.
pub type Totals = BTreeMap<&'static str, LayerTotal>;

fn get(totals: &Totals, name: &str) -> LayerTotal {
    totals.get(name).copied().unwrap_or_default()
}

/// Mean span duration in microseconds.
pub fn mean_us(totals: &Totals, name: &str) -> f64 {
    let t = get(totals, name);
    t.total as f64 / 1e3 / t.count.max(1) as f64
}

/// Wall-clock time of the replayed static stages: the frontend stage's
/// span (thread spawns and joins included) plus each later layer's
/// calls. It stands in for the inside of the cold `engine.compile` spans.
fn static_wall_ns(totals: &Totals) -> f64 {
    let later: u64 = STATIC_LAYERS[FRONT_LAYERS..]
        .iter()
        .map(|(span, _)| get(totals, span).total)
        .sum();
    (get(totals, "static.front").total + later) as f64
}

/// Pushes the compile-side layer metrics: each static layer's call time
/// per replayed compile (summed over threads for the frontend layers),
/// the rest of `Engine::compile` per call, the cache hit ratio,
/// instantiate time, and the emitted-code counts.
pub fn push_compile_layers(
    report: &mut Report,
    totals: &Totals,
    hit_ratio: f64,
    counts: EmitCounts,
) {
    let replays = get(totals, "static.replay").count.max(1) as f64;
    for (span, metric) in STATIC_LAYERS {
        report.push(metric, get(totals, span).total as f64 / 1e6 / replays, "ms");
    }
    let compile = get(totals, "engine.compile");
    report.push(
        "engine.compile_overhead_ms",
        (compile.total as f64 - static_wall_ns(totals)) / 1e6 / compile.count.max(1) as f64,
        "ms",
    );
    report.push("engine.cache_hit_ratio", hit_ratio, "ratio");
    report.push(
        "engine.instantiate_us",
        mean_us(totals, "engine.instantiate"),
        "us",
    );
    report.push("lower.wasm_funcs", counts.wasm_funcs as f64, "count");
    report.push(
        "wasm.bytecode_declined_share",
        counts.declined as f64 / counts.wasm_funcs.max(1) as f64,
        "ratio",
    );
}

/// Prints how the traced first results split over the layers: the
/// replayed static stages stand in for the inside of the cold
/// `engine.compile` spans, whose remainder is the engine's own share;
/// time inside a first result that no span covers is the unattributed
/// remainder. The frontend stage counts once, by its wall-clock span;
/// the frontend layers' call times (which overlap when threaded) are
/// printed under it and not added again. Returns the unattributed
/// share.
pub fn print_first_result_accounting(label: &str, tr: &Tracer, totals: &Totals) -> f64 {
    let first = get(totals, "first_result");
    let under = tr.totals_under("first_result");
    let n = first.count.max(1) as f64;
    let row = |name: &str, ns: f64| {
        let share = 100.0 * ns / first.total.max(1) as f64;
        println!("  {name:<24} {:>10.4} ms {share:>6.1}%", ns / 1e6 / n);
    };
    println!(
        "{label}: {} traced first results, {:.4} ms mean; per first result:",
        first.count,
        first.total as f64 / 1e6 / n
    );
    let front = get(totals, "static.front");
    row("static.front (wall)", front.total as f64);
    for (span, _) in &STATIC_LAYERS[..FRONT_LAYERS] {
        let ns = get(totals, span).total as f64;
        println!("    {span:<22} {:>10.4} ms  call time", ns / 1e6 / n);
    }
    println!(
        "    {:<22} {:>10.4} ms  no call running (spawn, join, copies)",
        "(rest)",
        front.self_time as f64 / 1e6 / n
    );
    for (span, _) in &STATIC_LAYERS[FRONT_LAYERS..] {
        row(span, get(totals, span).total as f64);
    }
    row(
        "engine.compile (rest)",
        get(&under, "engine.compile").total as f64 - static_wall_ns(totals),
    );
    row(
        "engine.instantiate",
        get(&under, "engine.instantiate").total as f64,
    );
    row("engine.invoke", get(&under, "engine.invoke").total as f64);
    row("unattributed", first.self_time as f64);
    first.self_time as f64 / first.total.max(1) as f64
}

/// Replays `Engine::compile`'s static stages on `prog` through each
/// layer's public entry point, one span per call, all under one
/// `static.replay` span.
///
/// Like the engine, a set of more than one module runs each module's
/// frontend and typecheck on a scoped thread of its own. The
/// `static.front` span times that stage as one wall-clock span, thread
/// spawns and joins included; the calls made on the threads are
/// recorded into it afterwards, so their spans overlap.
pub fn replay_static(tr: &mut Tracer, req: u64, prog: &FuzzProgram) -> Result<EmitCounts, String> {
    let root = tr.enter("static.replay", req);
    let counts = replay_stages(tr, req, prog);
    tr.exit(root);
    counts
}

/// One layer call made on a frontend thread.
struct FrontCall {
    name: &'static str,
    start: Instant,
    end: Instant,
}

fn timed<R>(calls: &mut Vec<FrontCall>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    calls.push(FrontCall {
        name,
        start,
        end: Instant::now(),
    });
    r
}

/// One module's frontend and typecheck, as `Engine::compile` runs them
/// on one thread: the module, its environment, and the timed calls.
fn front_one(
    name: &str,
    src: &SourceModule,
) -> Result<(Module, ModuleEnv, Vec<FrontCall>), String> {
    let mut calls = Vec::with_capacity(2);
    let m = match src {
        SourceModule::Ml(m) => timed(&mut calls, "ml.compile", || richwasm_ml::compile_module(m))
            .map_err(|e| format!("ml {name}: {e}"))?,
        SourceModule::L3(m) => timed(&mut calls, "l3.compile", || richwasm_l3::compile_module(m))
            .map_err(|e| format!("l3 {name}: {e}"))?,
        SourceModule::Rw(m) => m.clone(),
    };
    let env = timed(&mut calls, "core.typecheck", || check_module(&m))
        .map_err(|e| format!("typecheck {name}: {e}"))?;
    Ok((m, env, calls))
}

fn replay_stages(tr: &mut Tracer, req: u64, prog: &FuzzProgram) -> Result<EmitCounts, String> {
    let front = tr.enter("static.front", req);
    let fanned = prog.modules.len() > 1;
    let results: Vec<_> = if fanned {
        std::thread::scope(|scope| {
            let handles: Vec<_> = prog
                .modules
                .iter()
                .map(|(n, s)| scope.spawn(|| front_one(n, s)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("frontend replay thread panicked"))
                .collect()
        })
    } else {
        prog.modules.iter().map(|(n, s)| front_one(n, s)).collect()
    };
    tr.exit(front);
    let mut modules = Vec::with_capacity(prog.modules.len());
    let mut envs = Vec::with_capacity(prog.modules.len());
    for (i, ((name, _), result)) in prog.modules.iter().zip(results).enumerate() {
        let (m, env, calls) = result?;
        let lane = if fanned { i as u32 + 1 } else { 0 };
        for c in calls {
            tr.record(c.name, req, front, lane, c.start, c.end);
        }
        modules.push((name.clone(), m));
        envs.push(env);
    }
    let lowered = tr
        .leaf("lower.lower", req, || {
            richwasm_lower::lower_modules_with_envs(&modules, &envs)
        })
        .map_err(|e| format!("lower: {e}"))?;
    let mut counts = EmitCounts::default();
    for (name, wm) in &lowered {
        tr.leaf("wasm.validate", req, || richwasm_wasm::validate_module(wm))
            .map_err(|e| format!("validate {name}: {e}"))?;
    }
    for (_, wm) in &lowered {
        std::hint::black_box(tr.leaf("wasm.encode", req, || {
            richwasm_wasm::binary::encode_module(wm)
        }));
    }
    for (_, wm) in &lowered {
        let cm = tr.leaf("wasm.bytecode", req, || richwasm_wasm::compile_module(wm));
        counts.wasm_funcs += cm.funcs.len() as u64;
        counts.declined += (cm.funcs.len() - cm.compiled_count()) as u64;
    }
    for (_, wm) in &lowered {
        std::hint::black_box(tr.leaf("analyze.analyze", req, || {
            richwasm_analyze::analyze_module(wm)
        }));
    }
    Ok(counts)
}

/// True when an invocation returned the reference result.
pub fn matches(result: &Result<Invocation, impl std::fmt::Debug>, call: &Call) -> bool {
    matches!(result, Ok(run) if run.results() == call.expected.as_slice())
}

fn invoke(inst: &mut Instance, call: &Call) -> Result<Invocation, PipelineError> {
    let job = &call.job;
    inst.invoke(&job.module, &job.func, job.args.clone())
}

/// One cold start: `Engine::compile`, `Artifact::instantiate`, then the
/// program's first call.
pub struct ColdStart {
    pub compile: Duration,
    /// Compile + instantiate + first call.
    pub first_result: Duration,
    /// Whether the compile was a cache miss.
    pub cold: bool,
    pub wasm_bytes: u64,
    pub ok: bool,
    pub instance: Option<Instance>,
}

/// Runs one cold start of `p` on `engine`, spanned when `tr` is given.
pub fn cold_start(engine: &Engine, p: &Program, mut tr: Option<(&mut Tracer, u64)>) -> ColdStart {
    let misses = engine.cache_stats().misses;
    let t0 = Instant::now();
    let root = tr.as_mut().map(|(t, req)| t.enter("first_result", *req));
    let artifact = match &mut tr {
        Some((t, req)) => t.leaf("engine.compile", *req, || engine.compile(&p.set)),
        None => engine.compile(&p.set),
    };
    let compile = t0.elapsed();
    let mut out = ColdStart {
        compile,
        first_result: compile,
        cold: engine.cache_stats().misses > misses,
        wasm_bytes: 0,
        ok: false,
        instance: None,
    };
    let Ok(artifact) = artifact else {
        if let (Some((t, _)), Some(root)) = (tr, root) {
            t.exit(root);
        }
        return out;
    };
    out.wasm_bytes = artifact
        .wasm_binaries()
        .iter()
        .map(|(_, b)| b.len() as u64)
        .sum();
    let instance = match &mut tr {
        Some((t, req)) => t.leaf("engine.instantiate", *req, || artifact.instantiate()),
        None => artifact.instantiate(),
    };
    if let Ok(mut inst) = instance {
        let result = match &mut tr {
            Some((t, req)) => t.leaf("engine.invoke", *req, || invoke(&mut inst, &p.call)),
            None => invoke(&mut inst, &p.call),
        };
        out.first_result = t0.elapsed();
        out.ok = matches(&result, &p.call);
        out.instance = Some(inst);
    }
    if let (Some((t, _)), Some(root)) = (tr, root) {
        t.exit(root);
    }
    out
}

/// A warm job on an instance that already ran: `Instance::reset`, then
/// the call again. Returns its latency and whether it matched.
pub fn warm_job(
    inst: &mut Instance,
    call: &Call,
    tr: Option<(&mut Tracer, u64)>,
) -> (Duration, bool) {
    let t0 = Instant::now();
    let result = match tr {
        Some((t, req)) => {
            let root = t.enter("warm_job", req);
            let reset = t.leaf("engine.reset", req, || inst.reset());
            let r = t.leaf("engine.invoke", req, || {
                reset.and_then(|()| invoke(inst, call))
            });
            t.exit(root);
            r
        }
        None => inst.reset().and_then(|()| invoke(inst, call)),
    };
    (t0.elapsed(), matches(&result, call))
}

/// Drives `order` (indices into `calls`) through `pool` one job at a
/// time: `InstancePool::checkout`, `Instance::invoke`, then the guard's
/// drop, which resets the instance. Returns the total time and the
/// number of jobs whose result did not match.
pub fn drive_pool(
    pool: &InstancePool,
    calls: &[Call],
    order: &[usize],
    mut tr: Option<(&mut Tracer, u64)>,
) -> (Duration, u64) {
    let mut failed = 0;
    let t0 = Instant::now();
    for (i, &k) in order.iter().enumerate() {
        let call = &calls[k];
        let ok = match &mut tr {
            Some((t, req0)) => {
                let req = *req0 + i as u64;
                let root = t.enter("job", req);
                let mut guard = t.leaf("engine.checkout", req, || pool.checkout());
                let result = t.leaf("engine.invoke", req, || invoke(&mut guard, call));
                t.leaf("engine.reset", req, move || drop(guard));
                t.exit(root);
                matches(&result, call)
            }
            None => {
                let mut guard = pool.checkout();
                let ok = matches(&invoke(&mut guard, call), call);
                drop(guard);
                ok
            }
        };
        failed += u64::from(!ok);
    }
    (t0.elapsed(), failed)
}
