//! Symbol resolution and light type checking.
//!
//! [`check`] decorates every expression with its type, resolves every
//! identifier to the [`Var`] it denotes (and names each declaration's), so
//! no later pass searches a scope, verifies that calls target known
//! functions (declared in the unit or in the [libc/libm/SGX builtin
//! table](builtin_return_type)), and enforces the basic shape rules of C
//! (lvalues for assignment, pointers for dereference, structs for member
//! access, loops for `break`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::ast::*;
use crate::error::Error;
use crate::span::Span;
use crate::types::Type;

/// Resolves and type-checks a parsed unit in place.
///
/// # Errors
///
/// Returns the first semantic violation found, with its source span.
pub fn check(unit: &mut TranslationUnit) -> Result<(), Error> {
    // Pass 1: collect struct definitions.
    let mut structs = BTreeMap::new();
    for item in &unit.items {
        if let Item::Struct(def) = item {
            if structs.insert(def.name.clone(), def.clone()).is_some() {
                return Err(Error::sema(
                    format!("duplicate struct `{}`", def.name),
                    def.span,
                ));
            }
        }
    }
    // Struct field types must refer to known structs and must not recurse
    // by value.
    for def in structs.values() {
        for field in &def.fields {
            validate_type(&field.ty, &structs, field.span)?;
        }
        struct_size_of(&def.name, &structs, &mut BTreeSet::new())
            .map_err(|msg| Error::sema(msg, def.span))?;
    }

    // Pass 2: collect function signatures and globals.
    let mut functions: BTreeMap<String, (Type, Vec<Type>, bool)> = BTreeMap::new();
    let mut globals: BTreeMap<String, Type> = BTreeMap::new();
    for item in &unit.items {
        match item {
            Item::Function(f) => {
                validate_type(&f.ret, &structs, f.span)?;
                for p in &f.params {
                    validate_type(&p.ty, &structs, p.span)?;
                }
                let sig = (
                    f.ret.clone(),
                    f.params.iter().map(|p| p.ty.clone()).collect::<Vec<_>>(),
                    f.body.is_some(),
                );
                if let Some((ret, params, defined)) = functions.get(&f.name) {
                    if *ret != sig.0 || *params != sig.1 {
                        return Err(Error::sema(
                            format!("conflicting declarations of `{}`", f.name),
                            f.span,
                        ));
                    }
                    if *defined && f.body.is_some() {
                        return Err(Error::sema(
                            format!("duplicate definition of `{}`", f.name),
                            f.span,
                        ));
                    }
                }
                let entry = functions.entry(f.name.clone()).or_insert(sig.clone());
                entry.2 |= sig.2;
            }
            Item::Global(decl) => {
                validate_type(&decl.ty, &structs, decl.span)?;
                if globals.insert(decl.name.clone(), decl.ty.clone()).is_some() {
                    return Err(Error::sema(
                        format!("duplicate global `{}`", decl.name),
                        decl.span,
                    ));
                }
            }
            Item::Struct(_) => {}
        }
    }

    // Pass 3: check bodies.
    let ctx = UnitContext {
        structs: &structs,
        functions: &functions,
        globals: &globals,
    };
    let mut items = std::mem::take(&mut unit.items);
    let mut result = Ok(());
    'outer: for item in &mut items {
        match item {
            Item::Function(f) => {
                if let Err(err) = check_function(f, &ctx) {
                    result = Err(err);
                    break 'outer;
                }
            }
            Item::Global(decl) => {
                decl.var = Some(Var::Global(decl.name.as_str().into()));
                if let Some(init) = &mut decl.init {
                    let mut scope = Scope::new(&ctx, &Type::Void);
                    if let Err(err) = check_init(init, &decl.ty, &mut scope) {
                        result = Err(err);
                        break 'outer;
                    }
                }
            }
            Item::Struct(_) => {}
        }
    }
    unit.items = items;
    unit.structs = structs;
    result
}

/// Returns the return type of a known external (libc / libm / SGX SDK)
/// function, or `None` if the name is not a builtin.
///
/// The Mini-C corpus may call these without declaring prototypes, matching
/// how the paper's ported ML code calls into the C runtime and the SGX SDK.
pub fn builtin_return_type(name: &str) -> Option<Type> {
    let ty = match name {
        // libm
        "sqrt" | "fabs" | "exp" | "log" | "pow" | "floor" | "ceil" | "sin" | "cos" => Type::Double,
        "sqrtf" | "fabsf" => Type::Float,
        // libc
        "abs" | "rand" | "printf" | "puts" | "putchar" | "atoi" => Type::Int,
        "strlen" => Type::ULong,
        "malloc" | "calloc" | "memcpy" | "memset" => Type::Ptr(Box::new(Type::Void)),
        "free" | "srand" | "qsort" => Type::Void,
        "atof" => Type::Double,
        // SGX SDK / IPP-style crypto, used by enclave code
        "sgx_read_rand" | "sgx_seal_data" | "sgx_unseal_data" => Type::Int,
        "ipp_aes_decrypt"
        | "ipp_aes_encrypt"
        | "sgx_rijndael128GCM_decrypt"
        | "sgx_rijndael128GCM_encrypt" => Type::Int,
        _ => return None,
    };
    Some(ty)
}

/// Whether a builtin takes a variable/unchecked argument list.
fn builtin_is_variadic(name: &str) -> bool {
    matches!(
        name,
        "printf"
            | "memcpy"
            | "memset"
            | "qsort"
            | "sgx_read_rand"
            | "ipp_aes_decrypt"
            | "ipp_aes_encrypt"
            | "sgx_rijndael128GCM_decrypt"
            | "sgx_rijndael128GCM_encrypt"
            | "sgx_seal_data"
            | "sgx_unseal_data"
            | "calloc"
            | "malloc"
            | "free"
            | "strlen"
            | "atoi"
            | "atof"
            | "puts"
    )
}

fn validate_type(
    ty: &Type,
    structs: &BTreeMap<String, StructDef>,
    span: Span,
) -> Result<(), Error> {
    match ty {
        Type::Struct(name) => {
            if structs.contains_key(name) {
                Ok(())
            } else {
                Err(Error::sema(format!("unknown struct `{name}`"), span))
            }
        }
        Type::Ptr(inner) => {
            // Pointers to not-yet-known structs are fine in C, but the
            // subset requires full definitions up front.
            validate_type(inner, structs, span)
        }
        Type::Array(inner, n) => {
            if *n == 0 {
                return Err(Error::sema("zero-length array", span));
            }
            if matches!(**inner, Type::Void) {
                return Err(Error::sema("array of void", span));
            }
            validate_type(inner, structs, span)
        }
        _ => Ok(()),
    }
}

/// Packed size of a struct in bytes (no padding; Mini-C data model).
pub fn struct_size(unit: &TranslationUnit, name: &str) -> Option<usize> {
    struct_size_of(name, &unit.structs, &mut BTreeSet::new()).ok()
}

fn struct_size_of(
    name: &str,
    structs: &BTreeMap<String, StructDef>,
    visiting: &mut BTreeSet<String>,
) -> Result<usize, String> {
    if !visiting.insert(name.to_string()) {
        return Err(format!("struct `{name}` recursively contains itself"));
    }
    let def = structs
        .get(name)
        .ok_or_else(|| format!("unknown struct `{name}`"))?;
    let mut size = 0;
    for field in &def.fields {
        size += type_size(&field.ty, structs, visiting)?;
    }
    visiting.remove(name);
    Ok(size)
}

fn type_size(
    ty: &Type,
    structs: &BTreeMap<String, StructDef>,
    visiting: &mut BTreeSet<String>,
) -> Result<usize, String> {
    match ty {
        Type::Struct(name) => struct_size_of(name, structs, visiting),
        Type::Array(inner, n) => Ok(type_size(inner, structs, visiting)? * n),
        other => other
            .size()
            .ok_or_else(|| format!("type `{other}` has no size")),
    }
}

struct UnitContext<'a> {
    structs: &'a BTreeMap<String, StructDef>,
    functions: &'a BTreeMap<String, (Type, Vec<Type>, bool)>,
    globals: &'a BTreeMap<String, Type>,
}

struct Scope<'a> {
    ctx: &'a UnitContext<'a>,
    /// The open scopes of the function, outermost (its parameters) first:
    /// each declared name's type and variable name.
    locals: Vec<BTreeMap<String, (Type, Arc<str>)>>,
    /// How many declarations so far shadow one of an enclosing scope.
    shadows: usize,
    ret: &'a Type,
    loop_depth: usize,
}

impl<'a> Scope<'a> {
    fn new(ctx: &'a UnitContext<'a>, ret: &'a Type) -> Self {
        Scope {
            ctx,
            locals: vec![BTreeMap::new()],
            shadows: 0,
            ret,
            loop_depth: 0,
        }
    }

    fn push(&mut self) {
        self.locals.push(BTreeMap::new());
    }

    fn pop(&mut self) {
        self.locals.pop();
    }

    /// Declares `name` in the innermost scope and returns its variable,
    /// renamed `name~k` when it shadows the k-th time in this function.
    fn declare(&mut self, name: &str, ty: Type, span: Span) -> Result<Var, Error> {
        let (top, outer) = self
            .locals
            .split_last_mut()
            .expect("scope stack never empty");
        if top.contains_key(name) {
            return Err(Error::sema(
                format!("`{name}` is already declared in this scope"),
                span,
            ));
        }
        let var: Arc<str> = if outer.iter().any(|scope| scope.contains_key(name)) {
            self.shadows += 1;
            format!("{name}~{}", self.shadows).into()
        } else {
            name.into()
        };
        top.insert(name.to_string(), (ty, var.clone()));
        Ok(Var::Local(var))
    }

    /// The type and variable `name` denotes here: the innermost local
    /// declaring it, else the global.
    fn lookup(&self, name: &str) -> Option<(Type, Var)> {
        for scope in self.locals.iter().rev() {
            if let Some((ty, var)) = scope.get(name) {
                return Some((ty.clone(), Var::Local(var.clone())));
            }
        }
        let ty = self.ctx.globals.get(name)?;
        Some((ty.clone(), Var::Global(name.into())))
    }
}

fn check_function(f: &mut Function, ctx: &UnitContext<'_>) -> Result<(), Error> {
    let Some(body) = &mut f.body else {
        return Ok(());
    };
    let mut scope = Scope::new(ctx, &f.ret);
    for p in &mut f.params {
        p.var = Some(scope.declare(&p.name, p.ty.clone(), p.span)?);
    }
    for stmt in body {
        check_stmt(stmt, &mut scope)?;
    }
    Ok(())
}

fn check_stmt(stmt: &mut Stmt, scope: &mut Scope<'_>) -> Result<(), Error> {
    match &mut stmt.kind {
        StmtKind::Decl(decl) => {
            validate_type(&decl.ty, scope.ctx.structs, decl.span)?;
            if matches!(decl.ty, Type::Void) {
                return Err(Error::sema("cannot declare a void variable", decl.span));
            }
            // As in C, a local is in scope from its declarator on, its own
            // initializer included.
            decl.var = Some(scope.declare(&decl.name, decl.ty.clone(), decl.span)?);
            match &mut decl.init {
                Some(init) => check_init(init, &decl.ty, scope),
                None => Ok(()),
            }
        }
        StmtKind::Expr(None) => Ok(()),
        StmtKind::Expr(Some(expr)) => check_expr(expr, scope).map(drop),
        StmtKind::Block(stmts) => {
            scope.push();
            for s in stmts {
                if let Err(err) = check_stmt(s, scope) {
                    scope.pop();
                    return Err(err);
                }
            }
            scope.pop();
            Ok(())
        }
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => {
            let cond_ty = check_expr(cond, scope)?;
            require_scalar(&cond_ty, cond.span, "if condition")?;
            check_stmt(then_s, scope)?;
            if let Some(else_s) = else_s {
                check_stmt(else_s, scope)?;
            }
            Ok(())
        }
        StmtKind::While { cond, body } => {
            let cond_ty = check_expr(cond, scope)?;
            require_scalar(&cond_ty, cond.span, "while condition")?;
            scope.loop_depth += 1;
            let result = check_stmt(body, scope);
            scope.loop_depth -= 1;
            result
        }
        StmtKind::DoWhile { body, cond } => {
            scope.loop_depth += 1;
            let result = check_stmt(body, scope);
            scope.loop_depth -= 1;
            result?;
            let cond_ty = check_expr(cond, scope)?;
            require_scalar(&cond_ty, cond.span, "do-while condition")
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            scope.push();
            let result = (|| {
                if let Some(init) = init {
                    check_stmt(init, scope)?;
                }
                if let Some(cond) = cond {
                    let cond_ty = check_expr(cond, scope)?;
                    require_scalar(&cond_ty, cond.span, "for condition")?;
                }
                if let Some(step) = step {
                    check_expr(step, scope)?;
                }
                scope.loop_depth += 1;
                let r = check_stmt(body, scope);
                scope.loop_depth -= 1;
                r
            })();
            scope.pop();
            result
        }
        StmtKind::Return(value) => match (value, scope.ret) {
            (None, Type::Void) => Ok(()),
            (None, ret) => Err(Error::sema(
                format!("function returning `{ret}` needs a return value"),
                stmt.span,
            )),
            (Some(expr), ret) => {
                let ty = check_expr(expr, scope)?;
                if matches!(ret, Type::Void) {
                    return Err(Error::sema(
                        "void function cannot return a value",
                        expr.span,
                    ));
                }
                if !ret.assignable_from(&ty) {
                    return Err(Error::sema(
                        format!("cannot return `{ty}` from a function returning `{ret}`"),
                        expr.span,
                    ));
                }
                Ok(())
            }
        },
        StmtKind::Break | StmtKind::Continue => {
            if scope.loop_depth == 0 {
                Err(Error::sema("`break`/`continue` outside a loop", stmt.span))
            } else {
                Ok(())
            }
        }
    }
}

fn check_init(init: &mut Init, target: &Type, scope: &mut Scope<'_>) -> Result<(), Error> {
    match (init, target) {
        (Init::Expr(expr), _) => {
            let ty = check_expr(expr, scope)?;
            if !target.assignable_from(&ty) {
                return Err(Error::sema(
                    format!("cannot initialize `{target}` from `{ty}`"),
                    expr.span,
                ));
            }
            Ok(())
        }
        (Init::List(items), Type::Array(elem, len)) => {
            if items.len() > *len {
                return Err(Error::sema(
                    format!("too many initializers: {} for array of {len}", items.len()),
                    Span::default(),
                ));
            }
            for item in items {
                check_init(item, elem, scope)?;
            }
            Ok(())
        }
        (Init::List(items), Type::Struct(name)) => {
            let def =
                scope.ctx.structs.get(name).cloned().ok_or_else(|| {
                    Error::sema(format!("unknown struct `{name}`"), Span::default())
                })?;
            if items.len() > def.fields.len() {
                return Err(Error::sema(
                    format!("too many initializers for struct `{name}`"),
                    Span::default(),
                ));
            }
            for (item, field) in items.iter_mut().zip(&def.fields) {
                check_init(item, &field.ty, scope)?;
            }
            Ok(())
        }
        (Init::List(_), other) => Err(Error::sema(
            format!("brace initializer cannot initialize `{other}`"),
            Span::default(),
        )),
    }
}

fn require_scalar(ty: &Type, span: Span, what: &str) -> Result<(), Error> {
    if ty.decay().is_scalar() {
        Ok(())
    } else {
        Err(Error::sema(
            format!("{what} must be scalar, got `{ty}`"),
            span,
        ))
    }
}

fn require_lvalue(expr: &Expr, what: &str) -> Result<(), Error> {
    if expr.is_lvalue() {
        Ok(())
    } else {
        Err(Error::sema(format!("{what} requires an lvalue"), expr.span))
    }
}

fn check_expr(expr: &mut Expr, scope: &mut Scope<'_>) -> Result<Type, Error> {
    let ty = infer_expr(expr, scope)?;
    expr.ty = Some(ty.clone());
    Ok(ty)
}

fn infer_expr(expr: &mut Expr, scope: &mut Scope<'_>) -> Result<Type, Error> {
    let span = expr.span;
    match &mut expr.kind {
        ExprKind::IntLit(_) => Ok(Type::Int),
        ExprKind::FloatLit(_) => Ok(Type::Double),
        ExprKind::CharLit(_) => Ok(Type::Int),
        ExprKind::StrLit(_) => Ok(Type::Ptr(Box::new(Type::Char))),
        ExprKind::Ident { name, var } => {
            let (ty, resolved) = scope
                .lookup(name)
                .ok_or_else(|| Error::sema(format!("unknown variable `{name}`"), span))?;
            *var = Some(resolved);
            Ok(ty)
        }
        ExprKind::Unary { op, expr: inner } => {
            let ty = check_expr(inner, scope)?.decay();
            match op {
                UnOp::Neg | UnOp::Plus => {
                    if !ty.is_arithmetic() {
                        return Err(Error::sema(
                            format!("unary `{op}` needs an arithmetic operand, got `{ty}`"),
                            span,
                        ));
                    }
                    Ok(ty.usual_arithmetic(&Type::Int))
                }
                UnOp::Not => {
                    require_scalar(&ty, span, "operand of `!`")?;
                    Ok(Type::Int)
                }
                UnOp::BitNot => {
                    if !ty.is_integer() {
                        return Err(Error::sema(
                            format!("`~` needs an integer operand, got `{ty}`"),
                            span,
                        ));
                    }
                    Ok(ty.usual_arithmetic(&Type::Int))
                }
            }
        }
        ExprKind::Deref(inner) => {
            let ty = check_expr(inner, scope)?.decay();
            match ty {
                Type::Ptr(pointee) if !matches!(*pointee, Type::Void) => Ok(*pointee),
                Type::Ptr(_) => Err(Error::sema("cannot dereference `void*`", span)),
                other => Err(Error::sema(
                    format!("cannot dereference non-pointer `{other}`"),
                    span,
                )),
            }
        }
        ExprKind::AddrOf(inner) => {
            let ty = check_expr(inner, scope)?;
            require_lvalue(inner, "`&`")?;
            Ok(Type::Ptr(Box::new(ty)))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let op = *op;
            let lt = check_expr(lhs, scope)?.decay();
            let rt = check_expr(rhs, scope)?.decay();
            infer_binary(op, &lt, &rt, span)
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let op = *op;
            let lt = check_expr(lhs, scope)?;
            require_lvalue(lhs, "assignment")?;
            if lt.is_array() {
                return Err(Error::sema("cannot assign to an array", span));
            }
            let rt = check_expr(rhs, scope)?;
            match op {
                None => {
                    if !lt.assignable_from(&rt) {
                        return Err(Error::sema(format!("cannot assign `{rt}` to `{lt}`"), span));
                    }
                }
                Some(binop) => {
                    let result = infer_binary(binop, &lt.decay(), &rt.decay(), span)?;
                    if !lt.assignable_from(&result) {
                        return Err(Error::sema(
                            format!("cannot assign `{result}` to `{lt}`"),
                            span,
                        ));
                    }
                }
            }
            Ok(lt)
        }
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => {
            let ct = check_expr(cond, scope)?;
            require_scalar(&ct, cond.span, "ternary condition")?;
            let tt = check_expr(then_e, scope)?.decay();
            let et = check_expr(else_e, scope)?.decay();
            if tt == et {
                Ok(tt)
            } else if tt.is_arithmetic() && et.is_arithmetic() {
                Ok(tt.usual_arithmetic(&et))
            } else if tt.is_pointer() && et.is_pointer() {
                Ok(tt)
            } else {
                Err(Error::sema(
                    format!("incompatible ternary arms `{tt}` and `{et}`"),
                    span,
                ))
            }
        }
        ExprKind::Call { callee, args } => {
            let callee = callee.clone();
            let mut arg_types = Vec::with_capacity(args.len());
            for arg in args.iter_mut() {
                arg_types.push(check_expr(arg, scope)?);
            }
            if let Some((ret, params, _)) = scope.ctx.functions.get(&callee) {
                if params.len() != arg_types.len() {
                    return Err(Error::sema(
                        format!(
                            "`{callee}` expects {} argument(s), got {}",
                            params.len(),
                            arg_types.len()
                        ),
                        span,
                    ));
                }
                for (param, arg) in params.iter().zip(&arg_types) {
                    if !param.assignable_from(arg) {
                        return Err(Error::sema(
                            format!("cannot pass `{arg}` as `{param}` to `{callee}`"),
                            span,
                        ));
                    }
                }
                Ok(ret.clone())
            } else if let Some(ret) = builtin_return_type(&callee) {
                if !builtin_is_variadic(&callee) && callee != "printf" {
                    // fixed-arity builtins: math functions take one arg,
                    // `pow` takes two, `rand` takes none.
                    let expected = match callee.as_str() {
                        "pow" => 2,
                        "rand" => 0,
                        _ => 1,
                    };
                    if arg_types.len() != expected {
                        return Err(Error::sema(
                            format!(
                                "`{callee}` expects {expected} argument(s), got {}",
                                arg_types.len()
                            ),
                            span,
                        ));
                    }
                }
                Ok(ret)
            } else {
                Err(Error::sema(
                    format!("call to undeclared function `{callee}`"),
                    span,
                ))
            }
        }
        ExprKind::Index { base, index } => {
            let bt = check_expr(base, scope)?.decay();
            let it = check_expr(index, scope)?.decay();
            if !it.is_integer() {
                return Err(Error::sema(
                    format!("array index must be an integer, got `{it}`"),
                    index.span,
                ));
            }
            match bt {
                Type::Ptr(pointee) if !matches!(*pointee, Type::Void) => Ok(*pointee),
                other => Err(Error::sema(
                    format!("cannot index non-pointer `{other}`"),
                    span,
                )),
            }
        }
        ExprKind::Member { base, field, arrow } => {
            let field = field.clone();
            let arrow = *arrow;
            let bt = check_expr(base, scope)?;
            let struct_name = match (&bt, arrow) {
                (Type::Struct(name), false) => name.clone(),
                (Type::Ptr(inner), true) => match &**inner {
                    Type::Struct(name) => name.clone(),
                    other => {
                        return Err(Error::sema(
                            format!("`->` on pointer to non-struct `{other}`"),
                            span,
                        ))
                    }
                },
                (other, false) => {
                    return Err(Error::sema(format!("`.` on non-struct `{other}`"), span))
                }
                (other, true) => {
                    return Err(Error::sema(format!("`->` on non-pointer `{other}`"), span))
                }
            };
            let def = scope
                .ctx
                .structs
                .get(&struct_name)
                .ok_or_else(|| Error::sema(format!("unknown struct `{struct_name}`"), span))?;
            def.field(&field).map(|f| f.ty.clone()).ok_or_else(|| {
                Error::sema(
                    format!("struct `{struct_name}` has no field `{field}`"),
                    span,
                )
            })
        }
        ExprKind::Cast { ty, expr: inner } => {
            let ty = ty.clone();
            let it = check_expr(inner, scope)?.decay();
            let ok = (ty.is_scalar() && it.is_scalar()) || matches!(ty, Type::Void);
            if !ok {
                return Err(Error::sema(
                    format!("invalid cast from `{it}` to `{ty}`"),
                    span,
                ));
            }
            Ok(ty)
        }
        ExprKind::SizeofType(ty) => {
            validate_type(ty, scope.ctx.structs, span)?;
            Ok(Type::ULong)
        }
        ExprKind::SizeofExpr(inner) => {
            check_expr(inner, scope)?;
            Ok(Type::ULong)
        }
        ExprKind::IncDec { expr: inner, .. } => {
            let ty = check_expr(inner, scope)?;
            require_lvalue(inner, "increment/decrement")?;
            if !ty.is_scalar() {
                return Err(Error::sema(format!("cannot increment `{ty}`"), span));
            }
            Ok(ty)
        }
        ExprKind::Comma(lhs, rhs) => {
            check_expr(lhs, scope)?;
            check_expr(rhs, scope)
        }
    }
}

fn infer_binary(op: BinOp, lt: &Type, rt: &Type, span: Span) -> Result<Type, Error> {
    if op.is_logical() {
        require_scalar(lt, span, "logical operand")?;
        require_scalar(rt, span, "logical operand")?;
        return Ok(Type::Int);
    }
    if op.is_comparison() {
        let compatible = (lt.is_arithmetic() && rt.is_arithmetic())
            || (lt.is_pointer() && rt.is_pointer())
            || (lt.is_pointer() && rt.is_integer())
            || (lt.is_integer() && rt.is_pointer());
        if !compatible {
            return Err(Error::sema(
                format!("cannot compare `{lt}` with `{rt}`"),
                span,
            ));
        }
        return Ok(Type::Int);
    }
    match op {
        BinOp::Add => match (lt.is_pointer(), rt.is_pointer()) {
            (true, false) if rt.is_integer() => Ok(lt.clone()),
            (false, true) if lt.is_integer() => Ok(rt.clone()),
            (false, false) if lt.is_arithmetic() && rt.is_arithmetic() => {
                Ok(lt.usual_arithmetic(rt))
            }
            _ => Err(Error::sema(
                format!("invalid operands to `+`: `{lt}` and `{rt}`"),
                span,
            )),
        },
        BinOp::Sub => match (lt.is_pointer(), rt.is_pointer()) {
            (true, true) => Ok(Type::Long),
            (true, false) if rt.is_integer() => Ok(lt.clone()),
            (false, false) if lt.is_arithmetic() && rt.is_arithmetic() => {
                Ok(lt.usual_arithmetic(rt))
            }
            _ => Err(Error::sema(
                format!("invalid operands to `-`: `{lt}` and `{rt}`"),
                span,
            )),
        },
        BinOp::Mul | BinOp::Div => {
            if lt.is_arithmetic() && rt.is_arithmetic() {
                Ok(lt.usual_arithmetic(rt))
            } else {
                Err(Error::sema(
                    format!("invalid operands to `{op}`: `{lt}` and `{rt}`"),
                    span,
                ))
            }
        }
        BinOp::Rem | BinOp::Shl | BinOp::Shr | BinOp::BitAnd | BinOp::BitXor | BinOp::BitOr => {
            if lt.is_integer() && rt.is_integer() {
                Ok(lt.usual_arithmetic(rt))
            } else {
                Err(Error::sema(
                    format!("`{op}` needs integer operands, got `{lt}` and `{rt}`"),
                    span,
                ))
            }
        }
        _ => unreachable!("comparison/logical handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn parse_err(src: &str) -> Error {
        match parse(src) {
            Ok(_) => panic!("expected semantic error for {src:?}"),
            Err(err) => err,
        }
    }

    #[test]
    fn types_are_annotated() {
        let unit = parse("double f(int a, double b) { return a + b; }").unwrap();
        let f = unit.function("f").unwrap();
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!();
        };
        assert_eq!(expr.ty, Some(Type::Double));
    }

    #[test]
    fn unknown_variable_rejected() {
        let err = parse_err("int f() { return zz; }");
        assert!(err.to_string().contains("unknown variable"));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse_err("int f() { return mystery(); }");
        assert!(err.to_string().contains("undeclared function"));
    }

    #[test]
    fn builtins_are_known() {
        let unit = parse("double f(double x) { return sqrt(x) + fabs(x); }").unwrap();
        assert!(unit.function("f").is_some());
    }

    #[test]
    fn prototype_enables_call() {
        let unit = parse("int helper(int x);\nint f() { return helper(3); }").unwrap();
        assert!(unit.function("f").is_some());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = parse_err("int g(int a) { return a; }\nint f() { return g(1, 2); }");
        assert!(err.to_string().contains("expects 1 argument"));
    }

    #[test]
    fn duplicate_local_rejected() {
        let err = parse_err("void f() { int x; int x; }");
        assert!(err.to_string().contains("already declared"));
    }

    #[test]
    fn shadowing_in_inner_scope_allowed() {
        assert!(parse("void f() { int x = 1; { int x = 2; } }").is_ok());
    }

    #[test]
    fn shadowing_declarations_are_numbered_in_source_order() {
        let unit = parse(
            "int g; void f(int x) { int y = x; { int x = 1; int y = x; { int x = 2; } } \
             { int x = x; } int g = y; }",
        )
        .unwrap();
        let f = unit.function("f").unwrap();
        let local = |name: &str| Some(Var::Local(name.into()));
        assert_eq!(f.params[0].var, local("x"));
        let mut decls = Vec::new();
        let mut uses = Vec::new();
        fn walk<'a>(stmts: &'a [Stmt], decls: &mut Vec<&'a VarDecl>, uses: &mut Vec<&'a Expr>) {
            for stmt in stmts {
                match &stmt.kind {
                    StmtKind::Decl(decl) => {
                        decls.push(decl);
                        if let Some(Init::Expr(init)) = &decl.init {
                            uses.push(init);
                        }
                    }
                    StmtKind::Block(inner) => walk(inner, decls, uses),
                    _ => {}
                }
            }
        }
        walk(f.body.as_ref().unwrap(), &mut decls, &mut uses);
        let vars: Vec<_> = decls.iter().map(|d| d.var.clone()).collect();
        assert_eq!(
            vars,
            [
                local("y"),
                local("x~1"),
                local("y~2"),
                local("x~3"),
                local("x~4"),
                local("g"),
            ]
        );
        // Each use denotes the innermost declaration before it, and a
        // declaration is in scope in its own initializer, as in C.
        let resolved: Vec<_> = uses
            .iter()
            .map(|e| match &e.kind {
                ExprKind::Ident { var, .. } => var.clone(),
                _ => None,
            })
            .collect();
        assert_eq!(
            resolved,
            [
                local("x"),
                None,
                local("x~1"),
                None,
                local("x~4"),
                local("y")
            ]
        );
        let Item::Global(g) = &unit.items[0] else {
            panic!("first item is the global");
        };
        assert_eq!(g.var, Some(Var::Global("g".into())));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = parse_err("void f() { break; }");
        assert!(err.to_string().contains("outside a loop"));
    }

    #[test]
    fn assignment_to_rvalue_rejected() {
        let err = parse_err("void f() { 3 = 4; }");
        assert!(err.to_string().contains("lvalue"));
    }

    #[test]
    fn deref_of_non_pointer_rejected() {
        let err = parse_err("void f(int x) { *x = 1; }");
        assert!(err.to_string().contains("dereference non-pointer"));
    }

    #[test]
    fn member_access_checked() {
        let err = parse_err("struct p { int x; };\nint f(struct p q) { return q.y; }");
        assert!(err.to_string().contains("no field `y`"));
    }

    #[test]
    fn arrow_on_value_rejected() {
        let err = parse_err("struct p { int x; };\nint f(struct p q) { return q->x; }");
        assert!(err.to_string().contains("`->` on non-pointer"));
    }

    #[test]
    fn void_variable_rejected() {
        let err = parse_err("void f() { void v; }");
        assert!(err.to_string().contains("void variable"));
    }

    #[test]
    fn recursive_struct_by_value_rejected() {
        let err = parse_err("struct n { struct n next; };");
        assert!(err.to_string().contains("recursively"));
    }

    #[test]
    fn pointer_to_own_struct_allowed() {
        assert!(parse("struct n { int v; struct n *next; };").is_ok());
    }

    #[test]
    fn return_type_checked() {
        let err = parse_err("struct p { int x; };\nint f(struct p q) { return q; }");
        assert!(err.to_string().contains("cannot return"));
    }

    #[test]
    fn missing_return_value_rejected() {
        let err = parse_err("int f() { return; }");
        assert!(err.to_string().contains("needs a return value"));
    }

    #[test]
    fn struct_size_is_packed_sum() {
        let unit =
            parse("struct p { int x; double y; char c; };\nstruct q { struct p a[2]; };").unwrap();
        assert_eq!(struct_size(&unit, "p"), Some(13));
        assert_eq!(struct_size(&unit, "q"), Some(26));
        assert_eq!(struct_size(&unit, "zz"), None);
    }

    #[test]
    fn conflicting_prototype_rejected() {
        let err = parse_err("int f(int a);\ndouble f(int a) { return 0.0; }");
        assert!(err.to_string().contains("conflicting"));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let err = parse_err("int f() { return 0; }\nint f() { return 1; }");
        assert!(err.to_string().contains("duplicate definition"));
    }

    #[test]
    fn array_initializer_length_checked() {
        let err = parse_err("void f() { int xs[2] = {1, 2, 3}; }");
        assert!(err.to_string().contains("too many initializers"));
    }

    #[test]
    fn pointer_arithmetic_types() {
        let unit = parse("long f(int *p, int *q) { return q - p; }").unwrap();
        let f = unit.function("f").unwrap();
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!();
        };
        assert_eq!(expr.ty, Some(Type::Long));
    }

    #[test]
    fn comparisons_yield_int() {
        let unit = parse("int f(double a, double b) { return a < b; }").unwrap();
        let f = unit.function("f").unwrap();
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!();
        };
        assert_eq!(expr.ty, Some(Type::Int));
    }
}
