//! A concrete Mini-C interpreter — the "CPU" the simulated enclave runs on.
//!
//! Memory is a flat array of typed cells (one cell per scalar; arrays and
//! structs occupy contiguous cell ranges), pointers are cell addresses with
//! an element stride, and execution is deterministic: `rand()` and
//! `sgx_read_rand` use a seeded LCG, `printf` appends to a captured output
//! buffer.

use std::collections::BTreeMap;

use minic::ast::{
    BinOp, Expr, ExprKind, Function, Init, Stmt, StmtKind, TranslationUnit, UnOp, VarDecl,
};
use minic::types::Type;

use crate::crypto::{self, Key};
use crate::error::SgxError;

/// One memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Word {
    /// An integer cell.
    Int(i64),
    /// A floating cell.
    Float(f64),
    /// Never written (reading it is a fault in strict mode; yields 0
    /// otherwise).
    Uninit,
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A double.
    Float(f64),
    /// A pointer: cell address plus element stride and type.
    Ptr {
        /// Cell index the pointer targets.
        addr: usize,
        /// Cells per pointed-to element.
        stride: usize,
        /// Pointed-to element type.
        elem: Type,
    },
}

impl Value {
    /// Non-zero test.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(v) => *v != 0,
            Value::Float(v) => *v != 0.0,
            Value::Ptr { .. } => true,
        }
    }

    /// The integer content, coercing floats by truncation.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Float(v) => Some(*v as i64),
            Value::Ptr { .. } => None,
        }
    }

    /// The float content, coercing integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Ptr { .. } => None,
        }
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

#[derive(Debug, Clone)]
struct Binding {
    addr: usize,
    ty: Type,
}

/// The interpreter over one translation unit.
#[derive(Debug)]
pub struct Interp<'u> {
    unit: &'u TranslationUnit,
    /// Flat memory.
    pub mem: Vec<Word>,
    globals: BTreeMap<String, Binding>,
    frames: Vec<Vec<BTreeMap<String, Binding>>>,
    /// Captured `printf` output.
    pub output: String,
    /// OCALLs the enclave made: prototype-only functions dispatch to the
    /// (untrusted) host, which records name and arguments — an observable
    /// channel.
    pub ocalls: Vec<(String, Vec<Value>)>,
    rng: u64,
    fuel: u64,
    /// Key used by the IPP-style decrypt/encrypt builtins.
    pub crypto_key: Key,
    /// Active fault-injection schedule, when the session runs under one.
    pub(crate) faults: Option<crate::fault::FaultState>,
    /// Deadline/cancel supervision bounding untrusted-side sleeps (retry
    /// backoff, injected delays). Unbounded by default.
    pub(crate) supervision: crate::fault::Supervision,
    /// Degradations the untrusted runtime absorbed (curtailed sleeps);
    /// surfaced via `Session::degradations`.
    pub(crate) ledger: symexec::Ledger,
    /// Telemetry handle for OCALL boundary spans (disabled by default;
    /// [`crate::Enclave::with_telemetry`] threads a live one through).
    pub(crate) telemetry: telemetry::Telemetry,
    /// Span id of the ECALL currently being dispatched, so OCALL spans can
    /// parent themselves to the enclosing boundary crossing.
    pub(crate) current_ecall: Option<u64>,
}

impl<'u> Interp<'u> {
    /// Creates an interpreter, allocating and initializing globals.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::Runtime`] if a global initializer faults.
    pub fn new(unit: &'u TranslationUnit) -> Result<Self, SgxError> {
        let mut interp = Interp {
            unit,
            mem: Vec::new(),
            globals: BTreeMap::new(),
            frames: Vec::new(),
            output: String::new(),
            ocalls: Vec::new(),
            rng: 0x5DEECE66D,
            fuel: 50_000_000,
            crypto_key: *b"sgx-sim-demo-key",
            faults: None,
            supervision: crate::fault::Supervision::new(),
            ledger: symexec::Ledger::new(),
            telemetry: telemetry::Telemetry::disabled(),
            current_ecall: None,
        };
        let globals: Vec<VarDecl> = unit.globals().cloned().collect();
        for decl in &globals {
            let addr = interp.alloc(&decl.ty);
            interp.globals.insert(
                decl.name.clone(),
                Binding {
                    addr,
                    ty: decl.ty.clone(),
                },
            );
            if let Some(init) = &decl.init {
                interp.init_at(addr, &decl.ty, init)?;
            }
        }
        Ok(interp)
    }

    /// Reseeds the deterministic RNG.
    pub fn seed_rng(&mut self, seed: u64) {
        self.rng = seed | 1;
    }

    /// Cells occupied by a type.
    pub fn cells_of(&self, ty: &Type) -> usize {
        match ty {
            Type::Array(inner, n) => self.cells_of(inner) * n,
            Type::Struct(name) => self
                .unit
                .struct_def(name)
                .map(|d| d.fields.iter().map(|f| self.cells_of(&f.ty)).sum())
                .unwrap_or(1),
            _ => 1,
        }
    }

    /// Allocates zero-initialized... rather, uninitialized storage for `ty`
    /// and returns its base address.
    pub fn alloc(&mut self, ty: &Type) -> usize {
        let n = self.cells_of(ty);
        self.alloc_cells(n)
    }

    /// Allocates `n` uninitialized cells.
    pub fn alloc_cells(&mut self, n: usize) -> usize {
        let addr = self.mem.len();
        self.mem.extend(std::iter::repeat_n(Word::Uninit, n));
        addr
    }

    /// Writes a buffer of words at a fresh allocation, returning a pointer
    /// value (used by the enclave boundary to marshal `[in]` buffers).
    pub fn alloc_buffer(&mut self, words: &[Word], elem: Type) -> Value {
        let addr = self.alloc_cells(words.len().max(1));
        self.mem[addr..addr + words.len()].copy_from_slice(words);
        Value::Ptr {
            addr,
            stride: 1,
            elem,
        }
    }

    /// Reads `len` cells starting at `addr`.
    pub fn read_buffer(&self, addr: usize, len: usize) -> Result<Vec<Word>, SgxError> {
        if addr + len > self.mem.len() {
            return Err(SgxError::Runtime(format!(
                "out-of-bounds read of {len} cells at {addr}"
            )));
        }
        Ok(self.mem[addr..addr + len].to_vec())
    }

    fn fault(&self, msg: impl Into<String>) -> SgxError {
        SgxError::Runtime(msg.into())
    }

    fn burn(&mut self, amount: u64) -> Result<(), SgxError> {
        self.fuel = self.fuel.saturating_sub(amount);
        if self.fuel == 0 {
            Err(self.fault("fuel exhausted (possible infinite loop)"))
        } else {
            Ok(())
        }
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        if let Some(frame) = self.frames.last() {
            for scope in frame.iter().rev() {
                if let Some(b) = scope.get(name) {
                    return Some(b.clone());
                }
            }
        }
        self.globals.get(name).cloned()
    }

    fn declare(&mut self, name: &str, ty: Type) -> usize {
        let addr = self.alloc(&ty);
        self.frames
            .last_mut()
            .expect("active frame")
            .last_mut()
            .expect("active scope")
            .insert(name.to_string(), Binding { addr, ty });
        addr
    }

    /// Calls a defined function with evaluated arguments.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError`] on missing function, arity mismatch, or any
    /// runtime fault.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Option<Value>, SgxError> {
        let func = self
            .unit
            .function(name)
            .filter(|f| f.body.is_some())
            .cloned()
            .ok_or_else(|| SgxError::Runtime(format!("no function `{name}`")))?;
        if func.params.len() != args.len() {
            return Err(self.fault(format!(
                "`{name}` expects {} argument(s), got {}",
                func.params.len(),
                args.len()
            )));
        }
        self.frames.push(vec![BTreeMap::new()]);
        for (param, arg) in func.params.iter().zip(args) {
            let addr = self.declare(&param.name, param.ty.clone());
            self.store_value(addr, &param.ty, arg)?;
        }
        let result = self.run_body(&func);
        self.frames.pop();
        result
    }

    fn run_body(&mut self, func: &Function) -> Result<Option<Value>, SgxError> {
        let body = func.body.as_ref().expect("definition");
        for stmt in body {
            match self.exec(stmt)? {
                Flow::Return(v) => return Ok(v),
                Flow::Normal => {}
                Flow::Break | Flow::Continue => {
                    return Err(self.fault("break/continue escaped a function body"))
                }
            }
        }
        Ok(None)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, SgxError> {
        self.burn(1)?;
        match &stmt.kind {
            StmtKind::Decl(decl) => {
                let addr = self.declare(&decl.name, decl.ty.clone());
                if let Some(init) = &decl.init {
                    let ty = decl.ty.clone();
                    self.init_at(addr, &ty, init)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Expr(None) => Ok(Flow::Normal),
            StmtKind::Expr(Some(expr)) => {
                self.eval(expr)?;
                Ok(Flow::Normal)
            }
            StmtKind::Block(stmts) => {
                self.frames.last_mut().expect("frame").push(BTreeMap::new());
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.exec(s)?;
                    if !matches!(flow, Flow::Normal) {
                        break;
                    }
                }
                self.frames.last_mut().expect("frame").pop();
                Ok(flow)
            }
            StmtKind::If {
                cond,
                then_s,
                else_s,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec(then_s)
                } else if let Some(else_s) = else_s {
                    self.exec(else_s)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    self.burn(1)?;
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.burn(1)?;
                    match self.exec(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.frames.last_mut().expect("frame").push(BTreeMap::new());
                let result = (|| {
                    if let Some(init) = init {
                        self.exec(init)?;
                    }
                    loop {
                        if let Some(cond) = cond {
                            if !self.eval(cond)?.truthy() {
                                break;
                            }
                        }
                        self.burn(1)?;
                        match self.exec(body)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(step) = step {
                            self.eval(step)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.frames.last_mut().expect("frame").pop();
                result
            }
            StmtKind::Return(None) => Ok(Flow::Return(None)),
            StmtKind::Return(Some(expr)) => {
                let v = self.eval(expr)?;
                Ok(Flow::Return(Some(v)))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn init_at(&mut self, addr: usize, ty: &Type, init: &Init) -> Result<(), SgxError> {
        match (init, ty) {
            (Init::Expr(expr), _) => {
                let value = self.eval(expr)?;
                self.store_value(addr, ty, value)
            }
            (Init::List(items), Type::Array(elem, _)) => {
                let stride = self.cells_of(elem);
                for (i, item) in items.iter().enumerate() {
                    self.init_at(addr + i * stride, elem, item)?;
                }
                Ok(())
            }
            (Init::List(items), Type::Struct(name)) => {
                let def = self
                    .unit
                    .struct_def(name)
                    .cloned()
                    .ok_or_else(|| self.fault(format!("unknown struct `{name}`")))?;
                let mut offset = 0;
                for (item, field) in items.iter().zip(&def.fields) {
                    self.init_at(addr + offset, &field.ty, item)?;
                    offset += self.cells_of(&field.ty);
                }
                Ok(())
            }
            (Init::List(_), other) => Err(self.fault(format!("brace initializer for `{other}`"))),
        }
    }

    fn store_value(&mut self, addr: usize, ty: &Type, value: Value) -> Result<(), SgxError> {
        if addr >= self.mem.len() {
            return Err(self.fault(format!("out-of-bounds write at cell {addr}")));
        }
        let word = match (ty, &value) {
            (t, Value::Int(v)) if t.is_float() => Word::Float(*v as f64),
            (t, Value::Float(v)) if t.is_integer() => Word::Int(*v as i64),
            (_, Value::Int(v)) => Word::Int(*v),
            (_, Value::Float(v)) => Word::Float(*v),
            (_, Value::Ptr { addr, stride, .. }) => {
                // encode pointers as tagged integers: addr * stride table is
                // not needed since stride is recomputed from the type on
                // load; store the raw address.
                let _ = stride;
                Word::Int(*addr as i64)
            }
        };
        self.mem[addr] = word;
        Ok(())
    }

    fn load_value(&self, addr: usize, ty: &Type) -> Result<Value, SgxError> {
        let word = self
            .mem
            .get(addr)
            .copied()
            .ok_or_else(|| self.fault(format!("out-of-bounds read at cell {addr}")))?;
        let value = match (ty, word) {
            (Type::Ptr(inner), Word::Int(v)) => Value::Ptr {
                addr: v as usize,
                stride: self.cells_of(inner),
                elem: (**inner).clone(),
            },
            (Type::Ptr(_), Word::Uninit) => {
                return Err(self.fault(format!("read of uninitialized pointer at {addr}")))
            }
            (t, Word::Uninit) if t.is_float() => Value::Float(0.0),
            (_, Word::Uninit) => Value::Int(0),
            (t, Word::Int(v)) if t.is_float() => Value::Float(v as f64),
            (t, Word::Float(v)) if t.is_integer() => Value::Int(v as i64),
            (_, Word::Int(v)) => Value::Int(v),
            (_, Word::Float(v)) => Value::Float(v),
        };
        Ok(value)
    }

    /// Evaluates an lvalue expression to (address, type).
    fn lvalue(&mut self, expr: &Expr) -> Result<(usize, Type), SgxError> {
        match &expr.kind {
            ExprKind::Ident { name, .. } => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| self.fault(format!("unbound variable `{name}`")))?;
                Ok((binding.addr, binding.ty))
            }
            ExprKind::Deref(inner) => {
                let value = self.eval(inner)?;
                match value {
                    Value::Ptr { addr, elem, .. } => Ok((addr, elem)),
                    other => Err(self.fault(format!("dereference of non-pointer {other:?}"))),
                }
            }
            ExprKind::Index { base, index } => {
                let base_v = self.eval(base)?;
                let idx = self
                    .eval(index)?
                    .as_int()
                    .ok_or_else(|| self.fault("non-integer index"))?;
                match base_v {
                    Value::Ptr { addr, stride, elem } => {
                        let target = addr as i64 + idx * stride as i64;
                        if target < 0 {
                            return Err(self.fault("negative address"));
                        }
                        Ok((target as usize, elem))
                    }
                    other => Err(self.fault(format!("indexing non-pointer {other:?}"))),
                }
            }
            ExprKind::Member { base, field, arrow } => {
                let (base_addr, base_ty) = if *arrow {
                    match self.eval(base)? {
                        Value::Ptr { addr, elem, .. } => (addr, elem),
                        other => return Err(self.fault(format!("`->` on non-pointer {other:?}"))),
                    }
                } else {
                    self.lvalue(base)?
                };
                let Type::Struct(name) = &base_ty else {
                    return Err(self.fault(format!("member access on `{base_ty}`")));
                };
                let def = self
                    .unit
                    .struct_def(name)
                    .cloned()
                    .ok_or_else(|| self.fault(format!("unknown struct `{name}`")))?;
                let mut offset = 0;
                for f in &def.fields {
                    if f.name == *field {
                        return Ok((base_addr + offset, f.ty.clone()));
                    }
                    offset += self.cells_of(&f.ty);
                }
                Err(self.fault(format!("struct `{name}` has no field `{field}`")))
            }
            ExprKind::Cast { expr: inner, .. } => self.lvalue(inner),
            other => Err(self.fault(format!("not an lvalue: {other:?}"))),
        }
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, SgxError> {
        self.burn(1)?;
        match &expr.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::StrLit(text) => {
                // materialize the string as char cells + NUL
                let addr = self.alloc_cells(text.len() + 1);
                for (i, b) in text.bytes().enumerate() {
                    self.mem[addr + i] = Word::Int(i64::from(b));
                }
                self.mem[addr + text.len()] = Word::Int(0);
                Ok(Value::Ptr {
                    addr,
                    stride: 1,
                    elem: Type::Char,
                })
            }
            ExprKind::Ident { .. }
            | ExprKind::Deref(_)
            | ExprKind::Index { .. }
            | ExprKind::Member { .. } => {
                let (addr, ty) = self.lvalue(expr)?;
                if let Type::Array(elem, _) = &ty {
                    // array-to-pointer decay
                    return Ok(Value::Ptr {
                        addr,
                        stride: self.cells_of(elem),
                        elem: (**elem).clone(),
                    });
                }
                self.load_value(addr, &ty)
            }
            ExprKind::AddrOf(inner) => {
                let (addr, ty) = self.lvalue(inner)?;
                Ok(Value::Ptr {
                    addr,
                    stride: self.cells_of(&ty),
                    elem: ty,
                })
            }
            ExprKind::Unary { op, expr: inner } => {
                let v = self.eval(inner)?;
                self.unary(*op, v)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // && and || short-circuit
                match op {
                    BinOp::LogAnd => {
                        if !self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(0));
                        }
                        return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
                    }
                    BinOp::LogOr => {
                        if self.eval(lhs)?.truthy() {
                            return Ok(Value::Int(1));
                        }
                        return Ok(Value::Int(i64::from(self.eval(rhs)?.truthy())));
                    }
                    _ => {}
                }
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                self.binary(*op, a, b)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let (addr, ty) = self.lvalue(lhs)?;
                let rv = self.eval(rhs)?;
                let value = match op {
                    None => rv,
                    Some(binop) => {
                        let old = self.load_value(addr, &ty)?;
                        self.binary(*binop, old, rv)?
                    }
                };
                // struct assignment copies the whole object
                if let (Type::Struct(_), Value::Ptr { .. }) = (&ty, &value) {
                    return Err(self.fault("struct assignment from pointer"));
                }
                if matches!(ty, Type::Struct(_)) {
                    return Err(self.fault("struct-by-value assignment is unsupported"));
                }
                self.store_value(addr, &ty, value.clone())?;
                Ok(value)
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                if self.eval(cond)?.truthy() {
                    self.eval(then_e)
                } else {
                    self.eval(else_e)
                }
            }
            ExprKind::Call { callee, args } => {
                let mut values = Vec::with_capacity(args.len());
                for arg in args {
                    values.push(self.eval(arg)?);
                }
                self.dispatch(callee, values, args)
            }
            ExprKind::Cast { ty, expr: inner } => {
                let v = self.eval(inner)?;
                Ok(match (ty, v) {
                    (t, Value::Float(f)) if t.is_integer() => Value::Int(f as i64),
                    (t, Value::Int(i)) if t.is_float() => Value::Float(i as f64),
                    (Type::Char, Value::Int(i)) => Value::Int(i as i8 as i64),
                    (Type::Int, Value::Int(i)) => Value::Int(i as i32 as i64),
                    (Type::Ptr(inner_ty), Value::Ptr { addr, .. }) => Value::Ptr {
                        addr,
                        stride: self.cells_of(inner_ty),
                        elem: (**inner_ty).clone(),
                    },
                    (Type::Ptr(inner_ty), Value::Int(i)) => Value::Ptr {
                        addr: i as usize,
                        stride: self.cells_of(inner_ty),
                        elem: (**inner_ty).clone(),
                    },
                    (_, v) => v,
                })
            }
            ExprKind::SizeofType(ty) => Ok(Value::Int(self.byte_size(ty) as i64)),
            ExprKind::SizeofExpr(inner) => {
                let ty = inner.ty.clone().unwrap_or(Type::Int);
                Ok(Value::Int(self.byte_size(&ty) as i64))
            }
            ExprKind::IncDec { op, expr: inner } => {
                let (addr, ty) = self.lvalue(inner)?;
                let old = self.load_value(addr, &ty)?;
                let delta = Value::Int(op.delta());
                let new = self.binary(BinOp::Add, old.clone(), delta)?;
                self.store_value(addr, &ty, new.clone())?;
                Ok(if op.is_post() { old } else { new })
            }
            ExprKind::Comma(lhs, rhs) => {
                self.eval(lhs)?;
                self.eval(rhs)
            }
        }
    }

    fn byte_size(&self, ty: &Type) -> usize {
        match ty {
            Type::Struct(name) => minic::sema::struct_size(self.unit, name).unwrap_or(0),
            Type::Array(inner, n) => self.byte_size(inner) * n,
            other => other.size().unwrap_or(8),
        }
    }

    fn unary(&self, op: UnOp, v: Value) -> Result<Value, SgxError> {
        Ok(match (op, v) {
            (UnOp::Plus, v) => v,
            (UnOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
            (UnOp::Neg, Value::Float(f)) => Value::Float(-f),
            (UnOp::Not, v) => Value::Int(i64::from(!v.truthy())),
            (UnOp::BitNot, Value::Int(i)) => Value::Int(!i),
            (op, v) => return Err(self.fault(format!("bad unary {op} on {v:?}"))),
        })
    }

    fn binary(&self, op: BinOp, a: Value, b: Value) -> Result<Value, SgxError> {
        use Value::*;
        // pointer arithmetic & comparison
        match (&a, &b) {
            (Ptr { addr, stride, elem }, Int(n)) if matches!(op, BinOp::Add | BinOp::Sub) => {
                let n = if op == BinOp::Sub { -n } else { *n };
                let target = *addr as i64 + n * *stride as i64;
                if target < 0 {
                    return Err(self.fault("pointer arithmetic underflow"));
                }
                return Ok(Ptr {
                    addr: target as usize,
                    stride: *stride,
                    elem: elem.clone(),
                });
            }
            (Int(n), Ptr { addr, stride, elem }) if op == BinOp::Add => {
                return Ok(Ptr {
                    addr: (*addr as i64 + n * *stride as i64) as usize,
                    stride: *stride,
                    elem: elem.clone(),
                });
            }
            (
                Ptr {
                    addr: a1, stride, ..
                },
                Ptr { addr: a2, .. },
            ) => {
                let result = match op {
                    BinOp::Sub => (*a1 as i64 - *a2 as i64) / (*stride).max(1) as i64,
                    BinOp::Eq => i64::from(a1 == a2),
                    BinOp::Ne => i64::from(a1 != a2),
                    BinOp::Lt => i64::from(a1 < a2),
                    BinOp::Le => i64::from(a1 <= a2),
                    BinOp::Gt => i64::from(a1 > a2),
                    BinOp::Ge => i64::from(a1 >= a2),
                    _ => return Err(self.fault(format!("bad pointer operation {op}"))),
                };
                return Ok(Int(result));
            }
            _ => {}
        }
        // float contamination
        if matches!(a, Float(_)) || matches!(b, Float(_)) {
            let x = a
                .as_float()
                .ok_or_else(|| self.fault("float op on pointer"))?;
            let y = b
                .as_float()
                .ok_or_else(|| self.fault("float op on pointer"))?;
            let v = match op {
                BinOp::Add => return Ok(Float(x + y)),
                BinOp::Sub => return Ok(Float(x - y)),
                BinOp::Mul => return Ok(Float(x * y)),
                BinOp::Div => return Ok(Float(x / y)),
                BinOp::Rem => return Ok(Float(x % y)),
                BinOp::Lt => x < y,
                BinOp::Le => x <= y,
                BinOp::Gt => x > y,
                BinOp::Ge => x >= y,
                BinOp::Eq => x == y,
                BinOp::Ne => x != y,
                other => return Err(self.fault(format!("bad float operation {other}"))),
            };
            return Ok(Int(i64::from(v)));
        }
        let x = a.as_int().ok_or_else(|| self.fault("pointer in int op"))?;
        let y = b.as_int().ok_or_else(|| self.fault("pointer in int op"))?;
        let v = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(self.fault("division by zero"));
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(self.fault("remainder by zero"));
                }
                x.wrapping_rem(y)
            }
            BinOp::Shl => x.wrapping_shl((y & 63) as u32),
            BinOp::Shr => x.wrapping_shr((y & 63) as u32),
            BinOp::Lt => i64::from(x < y),
            BinOp::Le => i64::from(x <= y),
            BinOp::Gt => i64::from(x > y),
            BinOp::Ge => i64::from(x >= y),
            BinOp::Eq => i64::from(x == y),
            BinOp::Ne => i64::from(x != y),
            BinOp::BitAnd => x & y,
            BinOp::BitXor => x ^ y,
            BinOp::BitOr => x | y,
            BinOp::LogAnd => i64::from(x != 0 && y != 0),
            BinOp::LogOr => i64::from(x != 0 || y != 0),
        };
        Ok(Int(v))
    }

    fn next_rand(&mut self) -> i64 {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.rng >> 33) & 0x7FFF_FFFF) as i64
    }

    fn dispatch(
        &mut self,
        callee: &str,
        values: Vec<Value>,
        _args: &[Expr],
    ) -> Result<Value, SgxError> {
        if self
            .unit
            .function(callee)
            .map(|f| f.body.is_some())
            .unwrap_or(false)
        {
            return Ok(self.call(callee, values)?.unwrap_or(Value::Int(0)));
        }
        // builtins
        let float1 = |vals: &[Value], this: &Interp<'_>| -> Result<f64, SgxError> {
            vals.first()
                .and_then(Value::as_float)
                .ok_or_else(|| this.fault(format!("`{callee}` needs a numeric argument")))
        };
        match callee {
            "sqrt" | "sqrtf" => Ok(Value::Float(float1(&values, self)?.sqrt())),
            "fabs" | "fabsf" => Ok(Value::Float(float1(&values, self)?.abs())),
            "exp" => Ok(Value::Float(float1(&values, self)?.exp())),
            "log" => Ok(Value::Float(float1(&values, self)?.ln())),
            "floor" => Ok(Value::Float(float1(&values, self)?.floor())),
            "ceil" => Ok(Value::Float(float1(&values, self)?.ceil())),
            "sin" => Ok(Value::Float(float1(&values, self)?.sin())),
            "cos" => Ok(Value::Float(float1(&values, self)?.cos())),
            "pow" => {
                let a = float1(&values, self)?;
                let b = values
                    .get(1)
                    .and_then(Value::as_float)
                    .ok_or_else(|| self.fault("`pow` needs two arguments"))?;
                Ok(Value::Float(a.powf(b)))
            }
            "abs" => Ok(Value::Int(
                values
                    .first()
                    .and_then(Value::as_int)
                    .ok_or_else(|| self.fault("`abs` needs an int"))?
                    .abs(),
            )),
            "rand" => Ok(Value::Int(self.next_rand())),
            "srand" => {
                let seed = values.first().and_then(Value::as_int).unwrap_or(0);
                self.seed_rng(seed as u64);
                Ok(Value::Int(0))
            }
            "printf" => self.do_printf(&values),
            "puts" => {
                if let Some(Value::Ptr { addr, .. }) = values.first() {
                    let text = self.read_cstr(*addr)?;
                    self.output.push_str(&text);
                    self.output.push('\n');
                }
                Ok(Value::Int(0))
            }
            "putchar" => {
                if let Some(c) = values.first().and_then(Value::as_int) {
                    self.output.push(c as u8 as char);
                }
                Ok(Value::Int(0))
            }
            "strlen" => {
                let Some(Value::Ptr { addr, .. }) = values.first() else {
                    return Err(self.fault("`strlen` needs a pointer"));
                };
                Ok(Value::Int(self.read_cstr(*addr)?.len() as i64))
            }
            "memcpy" => {
                let (dst, src, n) = self.three_ptr_args(&values, callee)?;
                for i in 0..n {
                    let w = self.mem[src + i];
                    self.mem[dst + i] = w;
                }
                Ok(values[0].clone())
            }
            "memset" => {
                let Some(Value::Ptr { addr, .. }) = values.first() else {
                    return Err(self.fault("`memset` needs a pointer"));
                };
                let byte = values.get(1).and_then(Value::as_int).unwrap_or(0);
                let n = values.get(2).and_then(Value::as_int).unwrap_or(0) as usize;
                if addr + n > self.mem.len() {
                    return Err(self.fault("memset out of bounds"));
                }
                for i in 0..n {
                    self.mem[addr + i] = Word::Int(byte);
                }
                Ok(values[0].clone())
            }
            "malloc" | "calloc" => {
                let n = values.first().and_then(Value::as_int).unwrap_or(0) as usize;
                let addr = self.alloc_cells(n.max(1));
                if callee == "calloc" {
                    for i in 0..n {
                        self.mem[addr + i] = Word::Int(0);
                    }
                }
                Ok(Value::Ptr {
                    addr,
                    stride: 1,
                    elem: Type::Char,
                })
            }
            "free" => Ok(Value::Int(0)),
            "sgx_read_rand" => {
                let Some(Value::Ptr { addr, .. }) = values.first() else {
                    return Err(self.fault("`sgx_read_rand` needs a buffer"));
                };
                let n = values.get(1).and_then(Value::as_int).unwrap_or(0) as usize;
                for i in 0..n {
                    let r = self.next_rand();
                    if addr + i >= self.mem.len() {
                        return Err(self.fault("sgx_read_rand out of bounds"));
                    }
                    self.mem[addr + i] = Word::Int(r & 0xFF);
                }
                Ok(Value::Int(0))
            }
            "ipp_aes_decrypt" | "sgx_rijndael128GCM_decrypt" => {
                self.ipp_cipher(&values, callee, false)
            }
            "ipp_aes_encrypt" | "sgx_rijndael128GCM_encrypt" => {
                self.ipp_cipher(&values, callee, true)
            }
            other => {
                // A prototype without a body is an OCALL: dispatch to the
                // untrusted host, which observes the arguments — and which
                // may fail per the session's fault plan.
                if self.unit.function(other).is_some() {
                    let mut span = self.telemetry.begin("ocall", self.current_ecall);
                    if let Some(span) = span.as_mut() {
                        span.field("name", other);
                        span.field("args", values.len() as u64);
                    }
                    self.telemetry.counter(telemetry::names::SGX_OCALLS, 1);
                    if let Some(index) = self
                        .faults
                        .as_mut()
                        .and_then(|faults| faults.fail_this_ocall())
                    {
                        self.telemetry.counter(telemetry::names::SGX_FAULTS, 1);
                        self.telemetry.event("fault", self.current_ecall, |fields| {
                            fields.push(("kind", "fail_ocall".into()));
                            fields.push(("ocall", other.into()));
                            fields.push(("index", (index as u64).into()));
                        });
                        if let Some(mut span) = span {
                            span.field("ok", false);
                            self.telemetry.emit(span);
                        }
                        return Err(SgxError::Ocall {
                            name: other.to_string(),
                            index,
                        });
                    }
                    self.ocalls.push((other.to_string(), values));
                    if let Some(mut span) = span {
                        span.field("ok", true);
                        self.telemetry.emit(span);
                    }
                    return Ok(Value::Int(0));
                }
                Err(self.fault(format!("call to unknown function `{other}`")))
            }
        }
    }

    fn three_ptr_args(
        &self,
        values: &[Value],
        callee: &str,
    ) -> Result<(usize, usize, usize), SgxError> {
        let (Some(Value::Ptr { addr: dst, .. }), Some(Value::Ptr { addr: src, .. })) =
            (values.first(), values.get(1))
        else {
            return Err(self.fault(format!("`{callee}` needs two pointers")));
        };
        let n = values.get(2).and_then(Value::as_int).unwrap_or(0) as usize;
        if dst + n > self.mem.len() || src + n > self.mem.len() {
            return Err(self.fault(format!("`{callee}` out of bounds")));
        }
        Ok((*dst, *src, n))
    }

    /// The IPP-style cipher builtins: `f(dst, src, n)` over byte cells.
    fn ipp_cipher(
        &mut self,
        values: &[Value],
        callee: &str,
        encrypt: bool,
    ) -> Result<Value, SgxError> {
        let (dst, src, n) = self.three_ptr_args(values, callee)?;
        let mut bytes = Vec::with_capacity(n);
        for i in 0..n {
            match self.mem[src + i] {
                Word::Int(v) => bytes.push(v as u8),
                Word::Float(_) => return Err(self.fault("cipher over non-byte cells")),
                Word::Uninit => bytes.push(0),
            }
        }
        let key = self.crypto_key;
        let out = if encrypt {
            crypto::encrypt(&key, 0, &bytes)
        } else {
            crypto::decrypt(&key, 0, &bytes)
        };
        for (i, b) in out.iter().enumerate() {
            self.mem[dst + i] = Word::Int(i64::from(*b));
        }
        Ok(Value::Int(0))
    }

    fn read_cstr(&self, addr: usize) -> Result<String, SgxError> {
        let mut out = String::new();
        let mut i = addr;
        loop {
            match self.mem.get(i) {
                Some(Word::Int(0)) | None => return Ok(out),
                Some(Word::Int(v)) => out.push(*v as u8 as char),
                Some(_) => return Ok(out),
            }
            i += 1;
            if out.len() > 1 << 20 {
                return Err(self.fault("unterminated string"));
            }
        }
    }

    fn do_printf(&mut self, values: &[Value]) -> Result<Value, SgxError> {
        let Some(Value::Ptr { addr, .. }) = values.first() else {
            return Err(self.fault("`printf` needs a format string"));
        };
        let format = self.read_cstr(*addr)?;
        let mut args = values[1..].iter();
        let mut chars = format.chars().peekable();
        let mut out = String::new();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            // skip width/precision modifiers
            let mut spec = String::new();
            while let Some(&next) = chars.peek() {
                spec.push(next);
                chars.next();
                if next.is_ascii_alphabetic() || next == '%' {
                    break;
                }
            }
            match spec.chars().last() {
                Some('%') => out.push('%'),
                Some('d') | Some('i') | Some('u') | Some('x') => {
                    let v = args.next().and_then(Value::as_int).unwrap_or(0);
                    out.push_str(&v.to_string());
                }
                Some('f') | Some('g') | Some('e') => {
                    let v = args.next().and_then(Value::as_float).unwrap_or(0.0);
                    out.push_str(&format!("{v:.6}"));
                }
                Some('c') => {
                    let v = args.next().and_then(Value::as_int).unwrap_or(0);
                    out.push(v as u8 as char);
                }
                Some('s') => {
                    if let Some(Value::Ptr { addr, .. }) = args.next() {
                        let s = self.read_cstr(*addr)?;
                        out.push_str(&s);
                    }
                }
                _ => out.push_str(&spec),
            }
        }
        let written = out.len() as i64;
        self.output.push_str(&out);
        Ok(Value::Int(written))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, entry: &str, args: Vec<Value>) -> (Option<Value>, String) {
        let unit = minic::parse(src).expect("parses");
        let mut interp = Interp::new(&unit).expect("inits");
        let ret = interp.call(entry, args).expect("runs");
        (ret, interp.output.clone())
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let (ret, _) = run(
            "int f(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }",
            "f",
            vec![Value::Int(10)],
        );
        assert_eq!(ret, Some(Value::Int(55)));
    }

    #[test]
    fn arrays_and_pointers() {
        let (ret, _) = run(
            "int f() { int xs[4]; for (int i = 0; i < 4; i++) xs[i] = i * i; int *p = xs + 1; return *p + p[2]; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(1 + 9)));
    }

    #[test]
    fn structs_and_fields() {
        let (ret, _) = run(
            "struct pt { int x; int y; };\nint f() { struct pt p; p.x = 3; p.y = 4; struct pt *q = &p; return q->x * q->x + q->y * q->y; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(25)));
    }

    #[test]
    fn floats_and_math_builtins() {
        let (ret, _) = run(
            "double f(double x) { return sqrt(x) + fabs(0.0 - 1.5); }",
            "f",
            vec![Value::Float(16.0)],
        );
        assert_eq!(ret, Some(Value::Float(5.5)));
    }

    #[test]
    fn printf_capture() {
        let (_, out) = run(
            r#"int f() { printf("x=%d y=%f s=%s\n", 42, 2.5, "hi"); return 0; }"#,
            "f",
            vec![],
        );
        assert_eq!(out, "x=42 y=2.500000 s=hi\n");
    }

    #[test]
    fn recursion() {
        let (ret, _) = run(
            "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }",
            "fact",
            vec![Value::Int(6)],
        );
        assert_eq!(ret, Some(Value::Int(720)));
    }

    #[test]
    fn globals_with_initializers() {
        let (ret, _) = run(
            "int base = 40;\nint table[3] = {1, 2, 3};\nint f() { return base + table[2] - 1; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(42)));
    }

    #[test]
    fn division_by_zero_faults() {
        let unit = minic::parse("int f(int n) { return 1 / n; }").unwrap();
        let mut interp = Interp::new(&unit).unwrap();
        let err = interp.call("f", vec![Value::Int(0)]).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn out_of_bounds_faults() {
        let unit = minic::parse("int f(int *p) { return p[1000000]; }").unwrap();
        let mut interp = Interp::new(&unit).unwrap();
        let buf = interp.alloc_buffer(&[Word::Int(1)], Type::Int);
        let err = interp.call("f", vec![buf]).unwrap_err();
        assert!(err.to_string().contains("out-of-bounds"));
    }

    #[test]
    fn infinite_loop_burns_fuel() {
        let unit = minic::parse("int f() { while (1) { } return 0; }").unwrap();
        let mut interp = Interp::new(&unit).unwrap();
        interp.fuel = 10_000;
        let err = interp.call("f", vec![]).unwrap_err();
        assert!(err.to_string().contains("fuel"));
    }

    #[test]
    fn deterministic_rand() {
        let src = "int f() { srand(7); return rand(); }";
        let (a, _) = run(src, "f", vec![]);
        let (b, _) = run(src, "f", vec![]);
        assert_eq!(a, b);
    }

    #[test]
    fn memcpy_and_memset() {
        let (ret, _) = run(
            "int f() { char a[4]; char b[4]; memset(a, 7, 4); memcpy(b, a, 4); return b[0] + b[3]; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(14)));
    }

    #[test]
    fn cipher_round_trip_in_c() {
        let (ret, _) = run(
            "int f() { char msg[4]; char ct[4]; char pt[4];\n  msg[0] = 10; msg[1] = 20; msg[2] = 30; msg[3] = 40;\n  ipp_aes_encrypt(ct, msg, 4);\n  ipp_aes_decrypt(pt, ct, 4);\n  return pt[0] + pt[1] + pt[2] + pt[3]; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(100)));
    }

    #[test]
    fn two_dimensional_arrays() {
        let (ret, _) = run(
            "int f() { int m[2][3]; for (int i = 0; i < 2; i++) for (int j = 0; j < 3; j++) m[i][j] = i * 3 + j; return m[1][2]; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(5)));
    }

    #[test]
    fn struct_arrays() {
        let (ret, _) = run(
            "struct p { int x; double w; };\nint f() { struct p ps[3]; ps[2].x = 9; ps[2].w = 0.5; return ps[2].x; }",
            "f",
            vec![],
        );
        assert_eq!(ret, Some(Value::Int(9)));
    }
}
