//! The benchmark's inputs: the `compile` corpus, the two served module
//! sets, and each input's reference result from the RichWasm
//! interpreter.
//!
//! Every input is a [`FuzzProgram`] (named source modules plus pure host
//! imports), whatever produced it, so the static-layer replay in
//! [`crate::layers`] can walk its sources the same way for all of them.

use richwasm::syntax::Value;
use richwasm_bench::workloads::{
    arith_chain, churn, counter_client, counter_library, ml_tower, stash_client, stash_module,
};
use richwasm_fuzz::gen::{gen_program, Tier};
use richwasm_fuzz::{FuzzProgram, Rng, SourceModule};
use richwasm_repro::{Engine, EngineConfig, Exec, HostVal, Job, ModuleSet};

/// One call into a compiled module set, with the result it must give.
#[derive(Debug, Clone)]
pub struct Call {
    pub job: Job,
    /// The RichWasm interpreter's result for this call.
    pub expected: Vec<HostVal>,
}

/// One program: its sources, the module set built from them once (so
/// host closures keep their identity and a resubmission hits the
/// artifact cache), and the call that produces its first result.
pub struct Program {
    pub source: FuzzProgram,
    pub set: ModuleSet,
    pub call: Call,
}

impl Program {
    fn new(source: FuzzProgram, job: Job) -> Result<Program, String> {
        let set = source.module_set();
        let expected = reference(&set, &job)?;
        Ok(Program {
            source,
            set,
            call: Call { job, expected },
        })
    }
}

/// The RichWasm interpreter's result for `job` on a fresh instance of
/// `set`. It runs no lowering and no Wasm, so it is independent of the
/// layers the benchmark measures.
pub fn reference(set: &ModuleSet, job: &Job) -> Result<Vec<HostVal>, String> {
    let engine = Engine::with_config(EngineConfig::new().exec(Exec::Interp));
    let mut inst = engine
        .instantiate(set)
        .map_err(|e| format!("reference compile: {e}"))?;
    let run = inst
        .invoke(&job.module, &job.func, job.args.clone())
        .map_err(|e| format!("reference run of {}.{}: {e}", job.module, job.func))?;
    Ok(run.results().to_vec())
}

/// The production engine configuration the benchmark drives: Wasm only,
/// default bytecode tier, default analysis.
pub fn production_config() -> EngineConfig {
    EngineConfig::new().exec(Exec::Wasm)
}

fn single(name: &str, m: SourceModule) -> FuzzProgram {
    FuzzProgram {
        modules: vec![(name.into(), m)],
        hosts: vec![],
        entry: name.into(),
        gc_every: None,
    }
}

/// Candidates drawn per kept fuzz program (see [`compile_corpus`]).
const SAMPLE: usize = 3;

/// The `compile` corpus: `per_tier` programs from each of the fuzz
/// generators' raw, ML, L3 and ML↔L3-interop tiers, plus the paper's
/// scaling programs, so per-program cost is not all fixed overhead:
/// `chains` × `arith_chain(n)` with `n` seeded within evenly spaced
/// strata of width 8, and `ml_tower(d)` for each `d` in `towers` (its
/// term size doubles per level, so depths are a fixed ladder). Fixed
/// counts per kind keep the corpus's total cost from moving with the
/// seed; the programs are shuffled into a seeded order.
pub fn compile_corpus(
    seed: u64,
    per_tier: usize,
    chains: usize,
    towers: &[u32],
) -> Result<Vec<Program>, String> {
    let mut rng = Rng::from_seed(seed ^ 0xC0_4D_1E);
    let cov = richwasm::typecheck::RuleCoverage::new();
    let mut out = Vec::new();
    for (t, tier) in [Tier::Raw, Tier::Ml, Tier::L3, Tier::Interop]
        .into_iter()
        .enumerate()
    {
        // Systematic sample by size: draw three candidates per slot, sort
        // them by source size, and keep every third, so each tier's size
        // distribution (and with it the corpus's cost) barely moves with
        // the seed while the programs themselves do.
        let mut candidates: Vec<(usize, FuzzProgram)> = (0..SAMPLE * per_tier)
            .map(|i| {
                let mut case_rng = Rng::for_case(seed, (t * SAMPLE * per_tier + i) as u64);
                let prog = gen_program(tier, &mut case_rng, &cov);
                (format!("{:?}", prog.modules).len(), prog)
            })
            .collect();
        candidates.sort_by_key(|(size, _)| *size);
        for (_, prog) in candidates.into_iter().skip(SAMPLE / 2).step_by(SAMPLE) {
            let job = Job::new(prog.entry.clone(), "main", vec![]);
            out.push(Program::new(prog, job));
        }
    }
    for i in 0..chains {
        let n = 8 + 8 * i + rng.below(8) as usize;
        let x = rng.range(-1000, 1000) as i32;
        out.push(Program::new(
            single("m", SourceModule::Rw(arith_chain(n))),
            Job::new("m", "main", vec![Value::i32(x)]),
        ));
    }
    for &d in towers {
        out.push(Program::new(
            single("m", SourceModule::Ml(ml_tower(d))),
            Job::new("m", "main", vec![]),
        ));
    }
    let mut programs = out
        .into_iter()
        .enumerate()
        .map(|(i, p)| p.map_err(|e| format!("corpus program {i}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Ok(programs)
}

/// A served module set and the calls its jobs are drawn from.
pub struct Served {
    pub program: Program,
    pub calls: Vec<Call>,
}

fn served(source: FuzzProgram, jobs: Vec<Job>) -> Result<Served, String> {
    let first = jobs[0].clone();
    let program = Program::new(source, first)?;
    let calls = jobs
        .into_iter()
        .map(|job| {
            let expected = reference(&program.set, &job)?;
            Ok(Call { job, expected })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Served { program, calls })
}

/// `serve_interop`'s set: the Fig. 1/3 stash (ML stash module + L3
/// client across the linear boundary) and the Fig. 9 counter (L3 library
/// and ML client), linked as one artifact. Calls: the stash client's
/// `main` (every even call) and `setup(k)` with a seeded step `k` (every
/// odd call), so jobs drawn uniformly are half of each.
pub fn interop_set(seed: u64, kinds: usize) -> Result<Served, String> {
    let mut rng = Rng::from_seed(seed ^ 0x5_7A54);
    let source = FuzzProgram {
        modules: vec![
            ("ml".into(), SourceModule::Ml(stash_module(false))),
            ("client".into(), SourceModule::L3(stash_client())),
            ("gfx".into(), SourceModule::L3(counter_library())),
            ("counter".into(), SourceModule::Ml(counter_client())),
        ],
        hosts: vec![],
        entry: "client".into(),
        gc_every: None,
    };
    let jobs = (0..kinds)
        .map(|i| {
            if i % 2 == 0 {
                Job::new("client", "main", vec![])
            } else {
                let k = rng.range(1, 1000) as i32;
                Job::new("counter", "setup", vec![Value::i32(k)])
            }
        })
        .collect();
    served(source, jobs)
}

/// `serve_churn`'s set: `kinds` modules `c<i>` = `churn(n_i)`, each `n_i`
/// within `lo..=hi`. Job `i` runs `c<i>.main`, which returns `n_i`. The
/// sizes come in seeded pairs `mid ± d` around the middle of the range,
/// so with an even `kinds` the set's total work (and with it the mean
/// job and the set-up) is the same under every seed.
pub fn churn_set(seed: u64, kinds: usize, lo: i64, hi: i64) -> Result<Served, String> {
    let mut rng = Rng::from_seed(seed ^ 0xC4_u64 << 20);
    let mid = (lo + hi) / 2;
    let mut d = 0;
    let mut modules = Vec::with_capacity(kinds);
    let mut jobs = Vec::with_capacity(kinds);
    for i in 0..kinds {
        let n = if i % 2 == 0 {
            d = rng.range(0, (hi - lo) / 2);
            mid + d
        } else {
            mid - d
        } as u32;
        let name = format!("c{i}");
        modules.push((name.clone(), SourceModule::Rw(churn(n))));
        jobs.push(Job::new(name, "main", vec![]));
    }
    let source = FuzzProgram {
        modules,
        hosts: vec![],
        entry: "c0".into(),
        gc_every: None,
    };
    served(source, jobs)
}
