//! **E7** — the compile-once / run-many economics of the `Engine` API on
//! the E1 interop workload (Fig. 3 stash scenario).
//!
//! Series reported:
//!
//! * `cold_compile` — a full static pipeline on a fresh engine (frontend
//!   + typecheck in parallel, whole-program lower, validate, encode);
//! * `warm_cache_hit` — the same compile on an engine that has seen the
//!   module set before: a content-hash lookup returning the cached
//!   artifact, with **every static stage skipped**;
//! * `instantiate_from_artifact` — minting a fresh live instance from
//!   the cached artifact (typed linking + store setup, no static work);
//! * `invoke_x1000` — 1000 repeated `Instance::invoke` calls through one
//!   long-lived differential instance;
//! * `wasm_invoke` / `wasm_reset` — one entry invocation, and the
//!   `Instance::reset` that undoes it (the pool's per-checkin cost), on
//!   the production engine (`Exec::Wasm`, bytecode tier).
//!
//! After the series, the harness prints the amortised per-call cost of
//! the compile-once/run-many path against the naive recompile-per-call
//! baseline, and asserts the acceptance invariants: a warm hit is ≥ 10×
//! faster than a cold compile, repeated invocation never re-runs a
//! static stage (checked via `Timings`), and a Wasm-tier reset costs at
//! most 2× the invocation it undoes.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use richwasm_bench::workloads::{stash_client, stash_module};
use richwasm_repro::engine::{Engine, EngineConfig, Exec, Instance, ModuleSet};

fn stash_set() -> ModuleSet {
    ModuleSet::new()
        .ml("ml", stash_module(false))
        .l3("l3", stash_client())
        .entry("l3")
}

const INVOKES: u32 = 1000;

/// One invocation of `inst`'s entry, then the reset that undoes it:
/// the wall time of each.
fn invoke_then_reset(inst: &mut Instance) -> (Duration, Duration) {
    let t0 = Instant::now();
    assert_eq!(inst.invoke_entry().unwrap().i32(), Some(42));
    let t1 = Instant::now();
    inst.reset().unwrap();
    (t1 - t0, t1.elapsed())
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_engine");
    g.sample_size(15);

    g.bench_function("cold_compile", |b| {
        b.iter(|| {
            let engine = Engine::new();
            engine.compile(&stash_set()).unwrap()
        });
    });

    let engine = Engine::new();
    let artifact = engine.compile(&stash_set()).unwrap();
    g.bench_function("warm_cache_hit", |b| {
        b.iter(|| engine.compile(&stash_set()).unwrap());
    });
    assert!(
        engine.cache_stats().hits > 0 && engine.cache_stats().misses == 1,
        "warm series must be all hits: {:?}",
        engine.cache_stats()
    );

    g.bench_function("instantiate_from_artifact", |b| {
        b.iter(|| artifact.instantiate().unwrap());
    });

    g.bench_function("invoke_x1000", |b| {
        let mut inst = artifact.instantiate().unwrap();
        b.iter(|| {
            let mut last = None;
            for _ in 0..INVOKES {
                last = inst.invoke_entry().unwrap().i32();
            }
            assert_eq!(last, Some(42));
            last
        });
        // The acceptance invariant: however many invocations ran, no
        // static stage ever re-ran on this instance.
        assert!(
            inst.timings().no_static_stages(),
            "an invocation re-ran a static stage: {}",
            inst.timings()
        );
    });

    let wasm_artifact = Engine::with_config(EngineConfig::new().exec(Exec::Wasm))
        .compile(&stash_set())
        .unwrap();
    let mut winst = wasm_artifact.instantiate().unwrap();
    g.bench_function("wasm_invoke", |b| {
        b.iter_custom(|iters| (0..iters).map(|_| invoke_then_reset(&mut winst).0).sum());
    });
    g.bench_function("wasm_reset", |b| {
        b.iter_custom(|iters| (0..iters).map(|_| invoke_then_reset(&mut winst).1).sum());
    });

    g.finish();

    // Reset vs invoke, sampled interleaved (each reset undoes the
    // invocation just before it, so drift hits both alike).
    let (mut invokes, mut resets): (Vec<Duration>, Vec<Duration>) =
        (0..301).map(|_| invoke_then_reset(&mut winst)).unzip();
    invokes.sort();
    resets.sort();
    let (invoke, reset) = (invokes[invokes.len() / 2], resets[resets.len() / 2]);
    println!("e7_engine/wasm tier (E1, bytecode): invoke {invoke:.2?}, reset {reset:.2?}");

    // Amortisation report + the 10× acceptance check, measured directly
    // (one shot each, outside the sampled series, so the numbers printed
    // here are the ones the assertion uses).
    let t0 = Instant::now();
    let cold_engine = Engine::new();
    let cold_artifact = cold_engine.compile(&stash_set()).unwrap();
    let cold = t0.elapsed();
    assert!(!cold_artifact.wasm_binaries().is_empty());

    // Median-of-several for the warm hit: it is nanosecond-scale, so a
    // single sample is at the mercy of the scheduler.
    let mut warm_samples = Vec::new();
    for _ in 0..9 {
        let t0 = Instant::now();
        let hit = cold_engine.compile(&stash_set()).unwrap();
        warm_samples.push(t0.elapsed());
        assert!(hit.same_as(&cold_artifact));
    }
    warm_samples.sort();
    let warm = warm_samples[warm_samples.len() / 2];

    let mut inst = cold_artifact.instantiate().unwrap();
    let t0 = Instant::now();
    for _ in 0..INVOKES {
        inst.invoke_entry().unwrap();
    }
    let run_n = t0.elapsed();

    let per_call_amortised = (cold + run_n) / INVOKES;
    let per_call_naive = cold + run_n / INVOKES;
    println!("e7_engine/amortisation over {INVOKES} calls (E1 interop):");
    println!("  cold compile            {cold:>12.2?}");
    println!("  warm cache hit          {warm:>12.2?}");
    println!("  {INVOKES} invocations      {run_n:>12.2?}");
    println!("  per call, compile-once  {per_call_amortised:>12.2?}");
    println!("  per call, naive rebuild {per_call_naive:>12.2?}");
    // Acceptance: recorded into the machine-readable report, then
    // enforced (a shortfall panics and fails the CI bench-gate).
    criterion::acceptance(
        "e7_engine/warm_vs_cold_compile",
        cold.as_nanos() as f64 / warm.as_nanos().max(1) as f64,
        10.0,
    );
    // Reset ≤ 2× invoke, stated as invoke/reset ≥ 0.5.
    criterion::acceptance(
        "e7_engine/wasm_invoke_vs_reset",
        invoke.as_nanos() as f64 / reset.as_nanos().max(1) as f64,
        0.5,
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
