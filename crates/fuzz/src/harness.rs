//! The per-case harness: one generated program through the full engine
//! path, with every divergence classified.
//!
//! Each case gets a **fresh** engine (no artifact-cache contamination
//! between cases) configured with `Analysis::Deny` — the `richwasm-
//! analyze` re-verifier is a second, independent judge of every lowered
//! module — and differential execution, so each invocation runs on both
//! the RichWasm tree interpreter and the lowered-Wasm interpreter and
//! the results are cross-checked. On top of the engine's own checks the
//! harness adds a binary round-trip (decode∘encode = id on every
//! emitted `.wasm`) and a determinism probe (reset + re-invoke must
//! agree with the first run).
//!
//! The Wasm side itself is two engines since the flat-bytecode tier
//! landed: by default (`run_case`, or [`run_case_with`] with
//! `bytecode_check = true`) host-free cases additionally run under
//! [`WasmTier::Check`], where the bytecode VM executes and a
//! tree-walking oracle replays every invocation — results, trap
//! strings, and exact fuel counts must agree, making each such case a
//! **three-way** differential (RichWasm interpreter × bytecode VM ×
//! Wasm tree-walker). Cases with host imports keep the default
//! bytecode tier (the oracle cannot replay host effects), still
//! cross-checked against the RichWasm interpreter.

use richwasm_repro::engine::{
    Analysis, Engine, EngineConfig, PipelineError, PipelineErrorKind, WasmTier,
};
use richwasm_wasm::binary::encode_module;
use richwasm_wasm::decode_module;

use crate::program::FuzzProgram;

/// Fuel budget per case — generous (generated loops are bounded by
/// construction, so exhaustion indicates a generator or pipeline bug,
/// which is exactly what the `FuelExhausted` class reports).
const CASE_FUEL: u64 = 50_000_000;

/// Classification of a failing case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The checker (or a frontend) rejected a generated — supposedly
    /// well-typed — program: a generator or checker bug.
    Rejected,
    /// Lowering, validation, analysis, or linking failed.
    Pipeline,
    /// An emitted binary did not survive decode∘encode.
    RoundTrip,
    /// A backend trapped at runtime (generated programs are trap-free
    /// by construction).
    Trap,
    /// The two backends disagreed — the headline soundness signal.
    Mismatch,
    /// The fuel budget ran out (generated loops are bounded; this
    /// indicates a lowering or interpreter bug, e.g. a loop that lost
    /// its exit).
    FuelExhausted,
    /// Reset + re-invoke produced a different agreed result, or a reset
    /// Wasm store differs from a fresh instantiation's.
    Nondeterminism,
}

impl FailureKind {
    /// Stable snake_case name (stats JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Rejected => "rejected",
            FailureKind::Pipeline => "pipeline",
            FailureKind::RoundTrip => "round_trip",
            FailureKind::Trap => "trap",
            FailureKind::Mismatch => "mismatch",
            FailureKind::FuelExhausted => "fuel_exhausted",
            FailureKind::Nondeterminism => "nondeterminism",
        }
    }

    /// All kinds, in stats order.
    pub const ALL: [FailureKind; 7] = [
        FailureKind::Rejected,
        FailureKind::Pipeline,
        FailureKind::RoundTrip,
        FailureKind::Trap,
        FailureKind::Mismatch,
        FailureKind::FuelExhausted,
        FailureKind::Nondeterminism,
    ];
}

/// The outcome of running one case.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Both backends agreed, twice, and every static check passed.
    Ok {
        /// The agreed entry result.
        value: i32,
    },
    /// Something diverged; `detail` is human-readable.
    Failed {
        /// The failure class.
        kind: FailureKind,
        /// What exactly happened.
        detail: String,
    },
}

impl CaseOutcome {
    /// Whether the case passed.
    pub fn is_ok(&self) -> bool {
        matches!(self, CaseOutcome::Ok { .. })
    }
}

fn classify(e: &PipelineError) -> FailureKind {
    if e.is_static_rejection() {
        return FailureKind::Rejected;
    }
    if e.is_fuel_exhausted() {
        return FailureKind::FuelExhausted;
    }
    match &e.kind {
        PipelineErrorKind::Mismatch { .. } => FailureKind::Mismatch,
        PipelineErrorKind::Runtime(_) | PipelineErrorKind::Wasm(_) => FailureKind::Trap,
        _ => FailureKind::Pipeline,
    }
}

fn fail(kind: FailureKind, detail: impl Into<String>) -> CaseOutcome {
    CaseOutcome::Failed {
        kind,
        detail: detail.into(),
    }
}

/// Runs one case end to end with the bytecode differential on. See the
/// module docs for the exact checks.
pub fn run_case(prog: &FuzzProgram) -> CaseOutcome {
    run_case_with(prog, true)
}

/// [`run_case`] with an explicit bytecode-differential switch. With
/// `bytecode_check` set, host-free cases run the Wasm side under
/// [`WasmTier::Check`] (bytecode VM + tree-walking oracle); turning it
/// off pins the pre-bytecode behaviour for A/B runs of the farm.
pub fn run_case_with(prog: &FuzzProgram, bytecode_check: bool) -> CaseOutcome {
    let mut cfg = EngineConfig::new().analysis(Analysis::Deny).fuel(CASE_FUEL);
    if bytecode_check && prog.hosts.is_empty() {
        cfg = cfg.wasm_tier(WasmTier::Check);
    }
    if let Some(n) = prog.gc_every {
        cfg = cfg.auto_gc_every(n);
    }
    let engine = Engine::with_config(cfg);

    // Static half: frontends, checker, lowering, validation, analysis.
    let artifact = match engine.compile(&prog.module_set()) {
        Ok(a) => a,
        Err(e) => return fail(classify(&e), e.to_string()),
    };

    // Binary round-trip on every emitted `.wasm`.
    for (name, bytes) in artifact.wasm_binaries() {
        match decode_module(bytes) {
            Ok(m) => {
                let re = encode_module(&m);
                if re != *bytes {
                    return fail(
                        FailureKind::RoundTrip,
                        format!(
                            "module `{name}`: re-encoded binary differs ({} vs {} bytes)",
                            re.len(),
                            bytes.len()
                        ),
                    );
                }
            }
            Err(e) => {
                return fail(
                    FailureKind::RoundTrip,
                    format!("module `{name}` failed to decode: {e}"),
                );
            }
        }
    }

    // Dynamic half: differential invocation, twice (determinism probe).
    let mut inst = match artifact.instantiate() {
        Ok(i) => i,
        Err(e) => return fail(classify(&e), e.to_string()),
    };
    let first = match inst.invoke_entry() {
        Ok(run) => run.i32(),
        Err(e) => return fail(classify(&e), e.to_string()),
    };
    if let Err(e) = inst.reset() {
        return fail(classify(&e), format!("reset failed: {e}"));
    }
    // Reset must restore the Wasm stores byte for byte: memories,
    // globals and tables equal a fresh instance's (the dirty-chunk reset
    // copies back only what the run wrote).
    let fresh = match artifact.instantiate() {
        Ok(i) => i,
        Err(e) => return fail(classify(&e), e.to_string()),
    };
    for (store, reset, fresh) in [
        ("wasm", &inst.wasm, &fresh.wasm),
        ("oracle", &inst.wasm_oracle, &fresh.wasm_oracle),
    ] {
        if let (Some(reset), Some(fresh)) = (reset, fresh) {
            if let Some(diff) = reset.state_diff(fresh) {
                return fail(
                    FailureKind::Nondeterminism,
                    format!("{store} store after reset differs from a fresh one: {diff}"),
                );
            }
        }
    }
    let second = match inst.invoke_entry() {
        Ok(run) => run.i32(),
        Err(e) => return fail(classify(&e), format!("re-invoke after reset: {e}")),
    };
    if first != second {
        return fail(
            FailureKind::Nondeterminism,
            format!("first run {first:?}, after reset {second:?}"),
        );
    }
    match first {
        Some(value) => CaseOutcome::Ok { value },
        None => fail(
            FailureKind::Pipeline,
            "entry returned no agreed i32 result".to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Rng;
    use richwasm::typecheck::RuleCoverage;

    /// A smoke sweep across all four tiers — every case must pass.
    /// (The heavy sweeps live in `tests/farm.rs` and the CI job.)
    #[test]
    fn small_sweep_all_tiers_pass() {
        let cov = RuleCoverage::new();
        for (i, tier) in [
            gen::Tier::Raw,
            gen::Tier::Ml,
            gen::Tier::L3,
            gen::Tier::Interop,
        ]
        .into_iter()
        .cycle()
        .take(24)
        .enumerate()
        {
            let mut rng = Rng::for_case(0x5EED, i as u64);
            let prog = gen::gen_program(tier, &mut rng, &cov);
            let outcome = run_case(&prog);
            if let CaseOutcome::Failed { kind, detail } = &outcome {
                panic!(
                    "case {i} ({}) failed [{}]: {detail}\n{}",
                    tier.name(),
                    kind.name(),
                    prog.describe()
                );
            }
        }
    }
}
