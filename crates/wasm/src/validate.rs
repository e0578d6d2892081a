//! The WebAssembly validator (spec §3, algorithmic formulation from the
//! appendix of the Wasm paper), extended with multi-value block types.

use std::fmt;

use crate::ast::*;

/// A validation error with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wasm validation error: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ValidationError> {
    Err(ValidationError(msg.into()))
}

/// An operand-stack entry: a known type or the polymorphic unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    T(ValType),
    Unknown,
}

struct Ctrl {
    /// Types a branch to this label expects.
    label_types: Vec<ValType>,
    /// Types the block leaves on the stack.
    end_types: Vec<ValType>,
    /// Stack height at entry.
    height: usize,
    unreachable: bool,
}

struct Validator<'a> {
    module: &'a Module,
    locals: Vec<ValType>,
    ops: Vec<Op>,
    ctrls: Vec<Ctrl>,
    /// Global types: (type, mutable), imports first.
    globals: Vec<(ValType, bool)>,
    has_memory: bool,
    has_table: bool,
}

impl<'a> Validator<'a> {
    fn push(&mut self, t: ValType) {
        self.ops.push(Op::T(t));
    }

    fn pop_any(&mut self) -> Result<Op, ValidationError> {
        let frame = self.ctrls.last().expect("frame");
        if self.ops.len() == frame.height {
            if frame.unreachable {
                return Ok(Op::Unknown);
            }
            return err("stack underflow");
        }
        Ok(self.ops.pop().expect("nonempty"))
    }

    fn pop(&mut self, expect: ValType) -> Result<(), ValidationError> {
        match self.pop_any()? {
            Op::T(t) if t == expect => Ok(()),
            Op::T(t) => err(format!("expected {expect}, found {t}")),
            Op::Unknown => Ok(()),
        }
    }

    fn pop_many(&mut self, ts: &[ValType]) -> Result<(), ValidationError> {
        for t in ts.iter().rev() {
            self.pop(*t)?;
        }
        Ok(())
    }

    fn push_many(&mut self, ts: &[ValType]) {
        for t in ts {
            self.push(*t);
        }
    }

    fn push_ctrl(&mut self, label: Vec<ValType>, end: Vec<ValType>) {
        self.ctrls.push(Ctrl {
            label_types: label,
            end_types: end,
            height: self.ops.len(),
            unreachable: false,
        });
    }

    fn pop_ctrl(&mut self) -> Result<Vec<ValType>, ValidationError> {
        let end = self.ctrls.last().expect("frame").end_types.clone();
        let height = self.ctrls.last().expect("frame").height;
        self.pop_many(&end)?;
        if self.ops.len() != height {
            return err("values remaining at end of block");
        }
        self.ctrls.pop();
        Ok(end)
    }

    fn set_unreachable(&mut self) {
        let frame = self.ctrls.last_mut().expect("frame");
        self.ops.truncate(frame.height);
        frame.unreachable = true;
    }

    fn label_types(&self, l: u32) -> Result<Vec<ValType>, ValidationError> {
        let n = self.ctrls.len();
        if (l as usize) >= n {
            return err(format!("unknown label {l}"));
        }
        Ok(self.ctrls[n - 1 - l as usize].label_types.clone())
    }

    fn block_type(&self, bt: &BlockType) -> Result<FuncType, ValidationError> {
        Ok(match bt {
            BlockType::Empty => FuncType::default(),
            BlockType::Value(t) => FuncType {
                params: vec![],
                results: vec![*t],
            },
            BlockType::Func(i) => self
                .module
                .types
                .get(*i as usize)
                .cloned()
                .ok_or_else(|| ValidationError(format!("unknown type {i}")))?,
        })
    }

    fn instr(&mut self, e: &WInstr) -> Result<(), ValidationError> {
        use ValType::*;
        use WInstr::*;
        match e {
            Unreachable => self.set_unreachable(),
            Nop => {}
            Block(bt, body) => {
                let ft = self.block_type(bt)?;
                self.pop_many(&ft.params)?;
                self.push_ctrl(ft.results.clone(), ft.results.clone());
                self.push_many(&ft.params);
                for i in body {
                    self.instr(i)?;
                }
                let end = self.pop_ctrl()?;
                self.push_many(&end);
            }
            Loop(bt, body) => {
                let ft = self.block_type(bt)?;
                self.pop_many(&ft.params)?;
                self.push_ctrl(ft.params.clone(), ft.results.clone());
                self.push_many(&ft.params);
                for i in body {
                    self.instr(i)?;
                }
                let end = self.pop_ctrl()?;
                self.push_many(&end);
            }
            If(bt, then_b, else_b) => {
                self.pop(I32)?;
                let ft = self.block_type(bt)?;
                self.pop_many(&ft.params)?;
                self.push_ctrl(ft.results.clone(), ft.results.clone());
                self.push_many(&ft.params);
                for i in then_b {
                    self.instr(i)?;
                }
                self.pop_ctrl()?;
                self.push_ctrl(ft.results.clone(), ft.results.clone());
                self.push_many(&ft.params);
                for i in else_b {
                    self.instr(i)?;
                }
                let end = self.pop_ctrl()?;
                self.push_many(&end);
            }
            Br(l) => {
                let ts = self.label_types(*l)?;
                self.pop_many(&ts)?;
                self.set_unreachable();
            }
            BrIf(l) => {
                self.pop(I32)?;
                let ts = self.label_types(*l)?;
                self.pop_many(&ts)?;
                self.push_many(&ts);
            }
            BrTable(ls, d) => {
                self.pop(I32)?;
                let dts = self.label_types(*d)?;
                for l in ls {
                    let ts = self.label_types(*l)?;
                    if ts != dts {
                        return err("br_table target type mismatch");
                    }
                }
                self.pop_many(&dts)?;
                self.set_unreachable();
            }
            Return => {
                let rt = self.ctrls[0].end_types.clone();
                self.pop_many(&rt)?;
                self.set_unreachable();
            }
            Call(f) => {
                let ft = self
                    .module
                    .func_type(*f)
                    .cloned()
                    .ok_or_else(|| ValidationError(format!("unknown function {f}")))?;
                self.pop_many(&ft.params)?;
                self.push_many(&ft.results);
            }
            CallIndirect(ti) => {
                if !self.has_table {
                    return err("call_indirect without a table");
                }
                let ft = self
                    .module
                    .types
                    .get(*ti as usize)
                    .cloned()
                    .ok_or_else(|| ValidationError(format!("unknown type {ti}")))?;
                self.pop(I32)?;
                self.pop_many(&ft.params)?;
                self.push_many(&ft.results);
            }
            Drop => {
                self.pop_any()?;
            }
            Select => {
                self.pop(I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Op::T(x), Op::T(y)) if x != y => return err("select type mismatch"),
                    (Op::T(x), _) | (_, Op::T(x)) => self.push(x),
                    (Op::Unknown, Op::Unknown) => self.ops.push(Op::Unknown),
                }
            }
            LocalGet(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ValidationError(format!("unknown local {i}")))?;
                self.push(t);
            }
            LocalSet(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ValidationError(format!("unknown local {i}")))?;
                self.pop(t)?;
            }
            LocalTee(i) => {
                let t = *self
                    .locals
                    .get(*i as usize)
                    .ok_or_else(|| ValidationError(format!("unknown local {i}")))?;
                self.pop(t)?;
                self.push(t);
            }
            GlobalGet(i) => {
                let (t, _) = *self
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| ValidationError(format!("unknown global {i}")))?;
                self.push(t);
            }
            GlobalSet(i) => {
                let (t, m) = *self
                    .globals
                    .get(*i as usize)
                    .ok_or_else(|| ValidationError(format!("unknown global {i}")))?;
                if !m {
                    return err(format!("global {i} is immutable"));
                }
                self.pop(t)?;
            }
            Load(t, _) => {
                if !self.has_memory {
                    return err("load without a memory");
                }
                self.pop(I32)?;
                self.push(*t);
            }
            Store(t, _) => {
                if !self.has_memory {
                    return err("store without a memory");
                }
                self.pop(*t)?;
                self.pop(I32)?;
            }
            Load8U(_) => {
                if !self.has_memory {
                    return err("load without a memory");
                }
                self.pop(I32)?;
                self.push(I32);
            }
            Store8(_) => {
                if !self.has_memory {
                    return err("store without a memory");
                }
                self.pop(I32)?;
                self.pop(I32)?;
            }
            MemorySize => {
                if !self.has_memory {
                    return err("memory.size without a memory");
                }
                self.push(I32);
            }
            MemoryGrow => {
                if !self.has_memory {
                    return err("memory.grow without a memory");
                }
                self.pop(I32)?;
                self.push(I32);
            }
            I32Const(_) => self.push(I32),
            I64Const(_) => self.push(I64),
            F32Const(_) => self.push(F32),
            F64Const(_) => self.push(F64),
            IUn(w, _) | ITest(w) => {
                let t = int_ty(*w);
                self.pop(t)?;
                self.push(if matches!(e, ITest(_)) { I32 } else { t });
            }
            IBin(w, _) => {
                let t = int_ty(*w);
                self.pop(t)?;
                self.pop(t)?;
                self.push(t);
            }
            IRel(w, _) => {
                let t = int_ty(*w);
                self.pop(t)?;
                self.pop(t)?;
                self.push(I32);
            }
            FUn(w, _) => {
                let t = float_ty(*w);
                self.pop(t)?;
                self.push(t);
            }
            FBin(w, _) => {
                let t = float_ty(*w);
                self.pop(t)?;
                self.pop(t)?;
                self.push(t);
            }
            FRel(w, _) => {
                let t = float_ty(*w);
                self.pop(t)?;
                self.pop(t)?;
                self.push(I32);
            }
            I32WrapI64 => {
                self.pop(I64)?;
                self.push(I32);
            }
            I64ExtendI32(_) => {
                self.pop(I32)?;
                self.push(I64);
            }
            ITruncF(iw, fw, _) => {
                self.pop(float_ty(*fw))?;
                self.push(int_ty(*iw));
            }
            FConvertI(fw, iw, _) => {
                self.pop(int_ty(*iw))?;
                self.push(float_ty(*fw));
            }
            F32DemoteF64 => {
                self.pop(F64)?;
                self.push(F32);
            }
            F64PromoteF32 => {
                self.pop(F32)?;
                self.push(F64);
            }
            IReinterpretF(w) => {
                self.pop(float_ty(*w))?;
                self.push(int_ty(*w));
            }
            FReinterpretI(w) => {
                self.pop(int_ty(*w))?;
                self.push(float_ty(*w));
            }
        }
        Ok(())
    }
}

fn int_ty(w: Width) -> ValType {
    match w {
        Width::W32 => ValType::I32,
        Width::W64 => ValType::I64,
    }
}

fn float_ty(w: Width) -> ValType {
    match w {
        Width::W32 => ValType::F32,
        Width::W64 => ValType::F64,
    }
}

/// A value that has passed the validator. The field is private, so
/// [`Validated::new`] — which runs [`validate_module`] — is the only way
/// to mint one: holders such as
/// [`WasmLinker::instantiate_validated`](crate::exec::WasmLinker::instantiate_validated)
/// can skip a second validation without trusting a flag.
#[derive(Debug, Clone)]
pub struct Validated<T>(T);

impl Validated<Module> {
    /// Validates `m`, returning the proof-carrying wrapper.
    ///
    /// # Errors
    ///
    /// The first [`ValidationError`] found.
    pub fn new(m: Module) -> Result<Validated<Module>, ValidationError> {
        validate_module(&m)?;
        Ok(Validated(m))
    }
}

impl<T> std::ops::Deref for Validated<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Validates a whole module.
///
/// # Errors
///
/// Returns the first [`ValidationError`] found.
pub fn validate_module(m: &Module) -> Result<(), ValidationError> {
    // Global index space: imports first.
    let mut globals: Vec<(ValType, bool)> = Vec::new();
    let mut has_memory = m.memory.is_some();
    let mut has_table = m.table.is_some();
    for im in &m.imports {
        match im.kind {
            ImportKind::Global(t, mu) => globals.push((t, mu)),
            ImportKind::Memory(_) => has_memory = true,
            ImportKind::Table(_) => has_table = true,
            ImportKind::Func(ti) => {
                if m.types.get(ti as usize).is_none() {
                    return err(format!(
                        "import {}.{}: unknown type {ti}",
                        im.module, im.name
                    ));
                }
            }
        }
    }
    for g in &m.globals {
        let ok = matches!(
            (&g.init, g.ty),
            (WInstr::I32Const(_), ValType::I32)
                | (WInstr::I64Const(_), ValType::I64)
                | (WInstr::F32Const(_), ValType::F32)
                | (WInstr::F64Const(_), ValType::F64)
        );
        if !ok {
            return err("global initialiser must be a constant of the declared type");
        }
        globals.push((g.ty, g.mutable));
    }

    let n_imported = m.num_func_imports() as u32;
    for (fi, f) in m.funcs.iter().enumerate() {
        let ft = m
            .types
            .get(f.type_idx as usize)
            .ok_or_else(|| ValidationError(format!("function {fi}: unknown type")))?;
        let mut locals = ft.params.clone();
        locals.extend(&f.locals);
        let mut v = Validator {
            module: m,
            locals,
            ops: Vec::new(),
            ctrls: Vec::new(),
            globals: globals.clone(),
            has_memory,
            has_table,
        };
        v.push_ctrl(ft.results.clone(), ft.results.clone());
        for e in &f.body {
            v.instr(e)
                .map_err(|ValidationError(msg)| ValidationError(format!("function {fi}: {msg}")))?;
        }
        v.pop_ctrl()
            .map_err(|ValidationError(msg)| ValidationError(format!("function {fi}: {msg}")))?;
    }

    for ex in &m.exports {
        let ok = match ex.kind {
            ExportKind::Func(i) => m.func_type(i).is_some(),
            ExportKind::Global(i) => (i as usize) < globals.len(),
            ExportKind::Memory(_) => has_memory,
            ExportKind::Table(_) => has_table,
        };
        if !ok {
            return err(format!("export {}: bad index", ex.name));
        }
    }
    for el in &m.elems {
        if !has_table {
            return err("element segment without a table");
        }
        for &f in &el.funcs {
            if m.func_type(f).is_none() {
                return err(format!("element segment references unknown function {f}"));
            }
        }
    }
    if !m.data.is_empty() && !has_memory {
        return err("data segment without a memory");
    }
    if let Some(s) = m.start {
        let ft = m
            .func_type(s)
            .ok_or_else(|| ValidationError(format!("start function {s} unknown")))?;
        if !ft.params.is_empty() || !ft.results.is_empty() {
            return err("start function must have type [] → []");
        }
    }
    let _ = n_imported;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_with(body: Vec<WInstr>, results: Vec<ValType>) -> Module {
        Module {
            types: vec![FuncType {
                params: vec![],
                results,
            }],
            funcs: vec![FuncDef {
                type_idx: 0,
                locals: vec![],
                body,
            }],
            ..Module::default()
        }
    }

    #[test]
    fn trivial_function_validates() {
        validate_module(&module_with(vec![WInstr::I32Const(1)], vec![ValType::I32])).unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let m = module_with(vec![WInstr::I64Const(1)], vec![ValType::I32]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn stack_underflow_rejected() {
        let m = module_with(
            vec![WInstr::IBin(Width::W32, IBinOp::Add)],
            vec![ValType::I32],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn leftover_values_rejected() {
        let m = module_with(
            vec![WInstr::I32Const(1), WInstr::I32Const(2)],
            vec![ValType::I32],
        );
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn multi_value_block() {
        // block (result i32 i32) … end — the multi-value extension.
        let mut m = Module::default();
        let bt = m.intern_type(FuncType {
            params: vec![],
            results: vec![ValType::I32; 2],
        });
        let ft = m.intern_type(FuncType {
            params: vec![],
            results: vec![ValType::I32],
        });
        m.funcs.push(FuncDef {
            type_idx: ft,
            locals: vec![],
            body: vec![
                WInstr::Block(
                    BlockType::Func(bt),
                    vec![WInstr::I32Const(1), WInstr::I32Const(2)],
                ),
                WInstr::IBin(Width::W32, IBinOp::Add),
            ],
        });
        validate_module(&m).unwrap();
    }

    #[test]
    fn unreachable_polymorphism() {
        let m = module_with(
            vec![WInstr::Unreachable, WInstr::IBin(Width::W32, IBinOp::Add)],
            vec![ValType::I32],
        );
        validate_module(&m).unwrap();
    }

    #[test]
    fn br_validation() {
        let m = module_with(
            vec![WInstr::Block(
                BlockType::Value(ValType::I32),
                vec![WInstr::I32Const(5), WInstr::Br(0)],
            )],
            vec![ValType::I32],
        );
        validate_module(&m).unwrap();
        // br to an unknown label.
        let m = module_with(vec![WInstr::Br(3)], vec![]);
        assert!(validate_module(&m).is_err());
    }

    #[test]
    fn memory_instrs_require_memory() {
        let m = module_with(
            vec![WInstr::I32Const(0), WInstr::Load(ValType::I32, 0)],
            vec![ValType::I32],
        );
        assert!(validate_module(&m).is_err());
        let mut m2 = module_with(
            vec![WInstr::I32Const(0), WInstr::Load(ValType::I32, 0)],
            vec![ValType::I32],
        );
        m2.memory = Some(1);
        validate_module(&m2).unwrap();
    }

    #[test]
    fn immutable_global_set_rejected() {
        let mut m = module_with(vec![WInstr::I32Const(1), WInstr::GlobalSet(0)], vec![]);
        m.globals.push(GlobalDef {
            ty: ValType::I32,
            mutable: false,
            init: WInstr::I32Const(0),
        });
        assert!(validate_module(&m).is_err());
        let mut m2 = module_with(vec![WInstr::I32Const(1), WInstr::GlobalSet(0)], vec![]);
        m2.globals.push(GlobalDef {
            ty: ValType::I32,
            mutable: true,
            init: WInstr::I32Const(0),
        });
        validate_module(&m2).unwrap();
    }

    #[test]
    fn loop_label_takes_params() {
        // A loop's label expects its params, not its results.
        let mut m = Module::default();
        let bt = m.intern_type(FuncType {
            params: vec![ValType::I32],
            results: vec![ValType::I32],
        });
        let ft = m.intern_type(FuncType {
            params: vec![],
            results: vec![ValType::I32],
        });
        m.funcs.push(FuncDef {
            type_idx: ft,
            locals: vec![],
            body: vec![
                WInstr::I32Const(0),
                WInstr::Loop(
                    BlockType::Func(bt),
                    vec![
                        WInstr::I32Const(1),
                        WInstr::IBin(Width::W32, IBinOp::Add),
                        // Feed the param back and conditionally continue.
                        WInstr::LocalGet(0),
                        WInstr::BrIf(0),
                    ],
                ),
            ],
        });
        m.funcs[0].locals = vec![];
        // local.get 0 has no local — expect failure, then fix it.
        assert!(validate_module(&m).is_err());
        m.funcs[0].locals = vec![ValType::I32];
        validate_module(&m).unwrap();
    }
}
