//! Byte-exact reset: a recycled instance must be indistinguishable from
//! a fresh instantiation of its artifact, on every Wasm tier.
//!
//! `WasmLinker::reset` copies back only the 4 KiB chunks a job wrote, so
//! these tests aim writes at chunk edges (straddling stores, `store8` on
//! a chunk's first and last byte), at the fused store superinstructions
//! the bytecode VM runs, at a memory shared through an import, at jobs
//! that trap after writing, and at `memory.grow` — then compare every
//! memory, global and table against a fresh instance's.

use proptest::prelude::*;
use richwasm::syntax::{NumType, Value};
use richwasm_repro::engine::{Artifact, Engine, EngineConfig, Exec, Instance, ModuleSet, WasmTier};
use richwasm_wasm::ast::*;
use richwasm_wasm::binary::encode_module;
use richwasm_wasm::compile::compile_module;

const PAGE: u32 = 65536;
const CHUNK: u32 = 4096;
const TIERS: [WasmTier; 3] = [WasmTier::Tree, WasmTier::Bytecode, WasmTier::Check];

fn func(
    m: &mut Module,
    name: &str,
    params: &[ValType],
    results: &[ValType],
    locals: &[ValType],
    body: Vec<WInstr>,
) {
    let type_idx = m.intern_type(FuncType {
        params: params.to_vec(),
        results: results.to_vec(),
    });
    m.exports.push(Export {
        name: name.into(),
        kind: ExportKind::Func((m.num_func_imports() + m.funcs.len()) as u32),
    });
    m.funcs.push(FuncDef {
        type_idx,
        locals: locals.to_vec(),
        body,
    });
}

/// The store kernels every test drives. The bodies are shaped so the
/// bytecode tier runs every store op: plain `Store` and `Store8`, and
/// the fused `Get2Store`, `GetGlobalStore` and `SetGet2Store` (pinned by
/// `store_kernels_hit_every_store_op`).
fn store_kernels(m: &mut Module) {
    use ValType::{I32, I64};
    use WInstr::*;
    // st32(a, v): mem[a] = v; g += 1
    func(
        m,
        "st32",
        &[I32, I32],
        &[],
        &[],
        vec![
            LocalGet(0),
            LocalGet(1),
            Store(I32, 0),
            GlobalGet(0),
            I32Const(1),
            IBin(Width::W32, IBinOp::Add),
            GlobalSet(0),
        ],
    );
    func(
        m,
        "st64",
        &[I32, I64],
        &[],
        &[],
        // (a + 0) keeps this a plain `Store`: no fused op covers it.
        vec![
            LocalGet(0),
            I32Const(0),
            IBin(Width::W32, IBinOp::Add),
            LocalGet(1),
            Store(I64, 0),
        ],
    );
    func(
        m,
        "st8",
        &[I32, I32],
        &[],
        &[],
        vec![LocalGet(0), LocalGet(1), Store8(0)],
    );
    // st_glob(a): mem[a] = g
    func(
        m,
        "st_glob",
        &[I32],
        &[],
        &[],
        vec![LocalGet(0), GlobalGet(0), Store(I32, 0)],
    );
    // st_set(a, v): t = a + v; mem[t] = v
    func(
        m,
        "st_set",
        &[I32, I32],
        &[],
        &[I32],
        vec![
            LocalGet(0),
            LocalGet(1),
            IBin(Width::W32, IBinOp::Add),
            LocalSet(2),
            LocalGet(2),
            LocalGet(1),
            Store(I32, 0),
        ],
    );
    // st_trap(a, v): mem[a] = v; unreachable
    func(
        m,
        "st_trap",
        &[I32, I32],
        &[],
        &[],
        vec![
            LocalGet(0),
            LocalGet(1),
            Store(I32, 0),
            GlobalGet(0),
            I32Const(1),
            IBin(Width::W32, IBinOp::Add),
            GlobalSet(0),
            Unreachable,
        ],
    );
    func(
        m,
        "grow",
        &[I32],
        &[I32],
        &[],
        vec![LocalGet(0), MemoryGrow],
    );
    func(m, "size", &[], &[I32], &[], vec![MemorySize]);
}

/// Module `m`: one page, a mutable global, and a data segment that
/// straddles the first chunk boundary (so the baseline is not all zero
/// exactly where the tests write).
fn owner_module() -> Module {
    let mut m = Module {
        memory: Some(1),
        ..Module::default()
    };
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(7),
    });
    m.data.push(DataSegment {
        offset: CHUNK - 6,
        bytes: (1..=12).collect(),
    });
    m.exports.push(Export {
        name: "mem".into(),
        kind: ExportKind::Memory(0),
    });
    store_kernels(&mut m);
    m
}

/// Module `n`: imports `m`'s memory and writes it with its own kernels
/// (and its own global).
fn sharer_module() -> Module {
    let mut m = Module::default();
    m.imports.push(Import {
        module: "m".into(),
        name: "mem".into(),
        kind: ImportKind::Memory(1),
    });
    m.globals.push(GlobalDef {
        ty: ValType::I32,
        mutable: true,
        init: WInstr::I32Const(-1),
    });
    store_kernels(&mut m);
    m
}

fn artifact(tier: WasmTier) -> Artifact {
    let set = ModuleSet::new()
        .wasm_module("m", encode_module(&owner_module()))
        .wasm_module("n", encode_module(&sharer_module()));
    Engine::with_config(EngineConfig::new().exec(Exec::Wasm).wasm_tier(tier))
        .compile(&set)
        .unwrap()
}

fn i32v(v: u32) -> Value {
    Value::Num(NumType::I32, v as u64)
}

fn i64v(v: u64) -> Value {
    Value::Num(NumType::I64, v)
}

/// Invokes `module.func(args)`: the `i32` result (if any) or the error.
fn call(
    inst: &mut Instance,
    module: &str,
    func: &str,
    args: Vec<Value>,
) -> Result<Option<i32>, String> {
    inst.invoke(module, func, args)
        .map(|r| r.i32())
        .map_err(|e| e.to_string())
}

/// The first difference between the Wasm stores of `inst` (main and,
/// on `Check`, the tree-walking oracle) and a fresh instance's.
fn diff_from_fresh(inst: &Instance, artifact: &Artifact) -> Option<String> {
    let fresh = artifact.instantiate().unwrap();
    for (got, want) in [
        (&inst.wasm, &fresh.wasm),
        (&inst.wasm_oracle, &fresh.wasm_oracle),
    ] {
        let diff = match (got, want) {
            (Some(got), Some(want)) => got.state_diff(want),
            (None, None) => None,
            _ => Some("store presence differs".into()),
        };
        if diff.is_some() {
            return diff;
        }
    }
    None
}

/// Asserts both Wasm stores of `inst` equal a fresh instance's, byte
/// for byte.
fn assert_fresh(inst: &Instance, artifact: &Artifact, what: &str) {
    if let Some(diff) = diff_from_fresh(inst, artifact) {
        panic!("{what}: reset store differs from a fresh one: {diff}");
    }
}

/// Asserts the jobs so far left state for the reset to undo, so a
/// passing `assert_fresh` after it is not vacuous.
fn assert_dirty(inst: &Instance, artifact: &Artifact, what: &str) {
    assert!(
        diff_from_fresh(inst, artifact).is_some(),
        "{what}: the jobs changed nothing"
    );
}

fn memory_len(inst: &Instance) -> usize {
    let l = inst.wasm.as_ref().unwrap();
    l.memory(l.instance_by_name("m").unwrap()).unwrap().len()
}

#[test]
fn store_kernels_hit_every_store_op() {
    let code = format!("{:?}", compile_module(&owner_module()).funcs);
    for op in [
        "Store {",
        "Get2Store",
        "GetGlobalStore",
        "SetGet2Store",
        "Store8",
        "MemoryGrow",
    ] {
        assert!(code.contains(op), "no {op} in the compiled kernels");
    }
}

#[test]
fn chunk_edge_writes_reset_byte_exact() {
    for tier in TIERS {
        let art = artifact(tier);
        let mut inst = art.instantiate().unwrap();
        assert_fresh(&inst, &art, &format!("{tier:?} before any job"));
        let edge = |c: u32| c * CHUNK;
        let jobs: Vec<(&str, &str, Vec<Value>)> = vec![
            // 4- and 8-byte stores straddling chunk boundaries.
            ("m", "st32", vec![i32v(edge(1) - 2), i32v(0xDEAD_BEEF)]),
            (
                "m",
                "st64",
                vec![i32v(edge(2) - 4), i64v(0x0123_4567_89AB_CDEF)],
            ),
            ("n", "st_set", vec![i32v(edge(5) - 3), i32v(0)]),
            // store8 on a chunk's first and last byte.
            ("m", "st8", vec![i32v(edge(3)), i32v(0xAA)]),
            ("n", "st8", vec![i32v(edge(4) - 1), i32v(0xBB)]),
            // The last bytes of memory, and a global-sourced store.
            ("n", "st32", vec![i32v(PAGE - 4), i32v(u32::MAX)]),
            ("m", "st_glob", vec![i32v(edge(15) + 100)]),
        ];
        for (module, func, args) in jobs {
            call(&mut inst, module, func, args).unwrap();
        }
        assert_dirty(&inst, &art, &format!("{tier:?}"));
        inst.reset().unwrap();
        assert_fresh(&inst, &art, &format!("{tier:?} after chunk-edge stores"));
    }
}

#[test]
fn a_job_that_traps_after_writing_is_undone() {
    for tier in TIERS {
        let art = artifact(tier);
        let mut inst = art.instantiate().unwrap();
        let err = call(
            &mut inst,
            "m",
            "st_trap",
            vec![i32v(CHUNK - 1), i32v(0x5555_5555)],
        )
        .unwrap_err();
        assert!(err.contains("unreachable"), "{tier:?}: {err}");
        // Out-of-bounds stores trap before writing anything.
        let err = call(&mut inst, "n", "st64", vec![i32v(PAGE - 7), i64v(1)]).unwrap_err();
        assert!(err.contains("out of bounds"), "{tier:?}: {err}");
        assert_dirty(&inst, &art, &format!("{tier:?}"));
        inst.reset().unwrap();
        assert_fresh(&inst, &art, &format!("{tier:?} after a trapped job"));
    }
}

#[test]
fn memory_grow_fails_cleanly_and_reset_drops_grown_pages() {
    for tier in TIERS {
        let art = artifact(tier);
        let mut inst = art.instantiate().unwrap();
        // -1 and other deltas past the 65 536-page limit return -1 and
        // leave the memory as it was.
        for delta in [u32::MAX, PAGE, 0x8000_0000] {
            let got = call(&mut inst, "m", "grow", vec![i32v(delta)]);
            assert_eq!(got, Ok(Some(-1)), "{tier:?}: grow({delta})");
            assert_eq!(memory_len(&inst), PAGE as usize, "{tier:?}: grow({delta})");
        }
        assert_eq!(call(&mut inst, "m", "size", vec![]), Ok(Some(1)));
        // A legal grow returns the old size; the shared memory grows for
        // the importing module too.
        assert_eq!(
            call(&mut inst, "m", "grow", vec![i32v(2)]),
            Ok(Some(1)),
            "{tier:?}"
        );
        assert_eq!(
            call(&mut inst, "n", "grow", vec![i32v(0)]),
            Ok(Some(3)),
            "{tier:?}"
        );
        call(&mut inst, "n", "st32", vec![i32v(2 * PAGE + 8), i32v(9)]).unwrap();
        call(&mut inst, "m", "st8", vec![i32v(PAGE - 1), i32v(1)]).unwrap();
        assert_dirty(&inst, &art, &format!("{tier:?}"));
        inst.reset().unwrap();
        assert_eq!(
            memory_len(&inst),
            PAGE as usize,
            "{tier:?}: grown tail kept"
        );
        assert_fresh(&inst, &art, &format!("{tier:?} after memory.grow"));
        // The recycled instance grows again from the baseline size.
        assert_eq!(
            call(&mut inst, "n", "grow", vec![i32v(1)]),
            Ok(Some(1)),
            "{tier:?}"
        );
    }
}

/// One random job: which kernel, in which module, at which address.
fn job(
    kind: u8,
    module: bool,
    chunk: u32,
    delta: i32,
    v: u64,
) -> (&'static str, &'static str, Vec<Value>) {
    let module = if module { "m" } else { "n" };
    // Mostly near a chunk boundary, sometimes past the end of memory or
    // wrapped below zero (both trap).
    let a = (chunk * CHUNK).wrapping_add_signed(delta);
    match kind {
        0 => (module, "st32", vec![i32v(a), i32v(v as u32)]),
        1 => (module, "st64", vec![i32v(a), i64v(v)]),
        2 => (module, "st8", vec![i32v(a), i32v(v as u32)]),
        3 => (module, "st_glob", vec![i32v(a)]),
        4 => (module, "st_set", vec![i32v(a), i32v(v as u32 % 8)]),
        5 => (module, "st_trap", vec![i32v(a), i32v(v as u32)]),
        _ => (
            module,
            "grow",
            vec![i32v(if v % 4 == 0 { u32::MAX } else { v as u32 % 3 })],
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_store_sequences_reset_to_fresh(
        jobs in proptest::collection::vec(
            (0u8..7, 0u8..2, 0u32..18, -9i32..9, 0u64..u64::MAX),
            1..20,
        ),
    ) {
        let jobs: Vec<_> = jobs
            .into_iter()
            .map(|(k, m, c, d, v)| job(k, m == 0, c, d, v))
            .collect();
        for tier in TIERS {
            let art = artifact(tier);
            let mut inst = art.instantiate().unwrap();
            let run = |inst: &mut Instance| -> Vec<Result<Option<i32>, String>> {
                jobs.iter()
                    .map(|(m, f, args)| call(inst, m, f, args.clone()))
                    .collect()
            };
            let first = run(&mut inst);
            inst.reset().unwrap();
            assert_fresh(&inst, &art, &format!("{tier:?} after {jobs:?}"));
            // And the recycled instance replays the sequence identically.
            prop_assert_eq!(run(&mut inst), first);
        }
    }
}
