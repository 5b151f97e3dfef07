//! Pretty-printer: renders an AST back to parseable Mini-C source.
//!
//! Expressions are fully parenthesized, so `parse(pretty(parse(src)))`
//! yields a structurally identical AST (modulo expression ids and spans) —
//! the round-trip property exercised by the test suite.

use std::fmt::Write as _;

use crate::ast::*;
use crate::types::Type;

/// Renders a whole translation unit.
pub fn unit(unit: &TranslationUnit) -> String {
    let mut out = String::new();
    for item in &unit.items {
        match item {
            Item::Struct(def) => {
                let _ = writeln!(out, "struct {} {{", def.name);
                for field in &def.fields {
                    let _ = writeln!(out, "    {};", declaration(&field.ty, &field.name));
                }
                let _ = writeln!(out, "}};");
            }
            Item::Global(decl) => {
                let _ = writeln!(out, "{};", var_decl(decl));
            }
            Item::Function(f) => {
                let params = f
                    .params
                    .iter()
                    .map(|p| declaration(&p.ty, &p.name))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = write!(out, "{} {}({})", f.ret, f.name, params);
                match &f.body {
                    None => {
                        let _ = writeln!(out, ";");
                    }
                    Some(body) => {
                        let _ = writeln!(out, " {{");
                        for stmt in body {
                            stmt_into(stmt, 1, &mut out);
                        }
                        let _ = writeln!(out, "}}");
                    }
                }
            }
        }
    }
    out
}

/// Renders a C declaration of `name` with type `ty` (handles the inside-out
/// array syntax: `int xs[3]`, `char *argv[8]`).
pub fn declaration(ty: &Type, name: &str) -> String {
    match ty {
        Type::Array(inner, n) => {
            let inner_decl = declaration(inner, name);
            format!("{inner_decl}[{n}]")
        }
        Type::Ptr(inner) => declaration_ptr(inner, &format!("*{name}")),
        other => format!("{other} {name}"),
    }
}

fn declaration_ptr(ty: &Type, name: &str) -> String {
    match ty {
        Type::Ptr(inner) => declaration_ptr(inner, &format!("*{name}")),
        Type::Array(inner, n) => {
            // pointer-to-array needs parens; the subset never produces it,
            // but render something parseable anyway.
            format!("{} ({name})[{n}]", type_prefix(inner))
        }
        other => format!("{other} {name}"),
    }
}

fn type_prefix(ty: &Type) -> String {
    ty.to_string()
}

/// Renders a single statement at the given indent level.
pub fn stmt(stmt: &Stmt, indent: usize) -> String {
    let mut out = String::new();
    stmt_into(stmt, indent, &mut out);
    out
}

fn pad(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("    ");
    }
}

fn var_decl(decl: &VarDecl) -> String {
    let mut text = declaration(&decl.ty, &decl.name);
    if let Some(init) = &decl.init {
        text.push_str(" = ");
        text.push_str(&init_text(init));
    }
    text
}

fn init_text(init: &Init) -> String {
    match init {
        Init::Expr(e) => expr(e),
        Init::List(items) => {
            let inner = items.iter().map(init_text).collect::<Vec<_>>().join(", ");
            format!("{{{inner}}}")
        }
    }
}

fn stmt_into(s: &Stmt, indent: usize, out: &mut String) {
    match &s.kind {
        StmtKind::Decl(decl) => {
            pad(indent, out);
            let _ = writeln!(out, "{};", var_decl(decl));
        }
        StmtKind::Expr(None) => {
            pad(indent, out);
            out.push_str(";\n");
        }
        StmtKind::Expr(Some(e)) => {
            pad(indent, out);
            let _ = writeln!(out, "{};", expr(e));
        }
        StmtKind::Block(stmts) => {
            pad(indent, out);
            out.push_str("{\n");
            for inner in stmts {
                stmt_into(inner, indent + 1, out);
            }
            pad(indent, out);
            out.push_str("}\n");
        }
        StmtKind::If {
            cond,
            then_s,
            else_s,
        } => {
            pad(indent, out);
            let _ = writeln!(out, "if ({})", expr(cond));
            stmt_into(then_s, indent + 1, out);
            if let Some(else_s) = else_s {
                pad(indent, out);
                out.push_str("else\n");
                stmt_into(else_s, indent + 1, out);
            }
        }
        StmtKind::While { cond, body } => {
            pad(indent, out);
            let _ = writeln!(out, "while ({})", expr(cond));
            stmt_into(body, indent + 1, out);
        }
        StmtKind::DoWhile { body, cond } => {
            pad(indent, out);
            out.push_str("do\n");
            stmt_into(body, indent + 1, out);
            pad(indent, out);
            let _ = writeln!(out, "while ({});", expr(cond));
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            pad(indent, out);
            let init_text = match init.as_deref() {
                None => String::new(),
                Some(Stmt {
                    kind: StmtKind::Decl(decl),
                    ..
                }) => var_decl(decl),
                Some(Stmt {
                    kind: StmtKind::Expr(Some(e)),
                    ..
                }) => expr(e),
                Some(_) => String::new(),
            };
            let cond_text = cond.as_ref().map(expr).unwrap_or_default();
            let step_text = step.as_ref().map(expr).unwrap_or_default();
            let _ = writeln!(out, "for ({init_text}; {cond_text}; {step_text})");
            stmt_into(body, indent + 1, out);
        }
        StmtKind::Return(None) => {
            pad(indent, out);
            out.push_str("return;\n");
        }
        StmtKind::Return(Some(e)) => {
            pad(indent, out);
            let _ = writeln!(out, "return {};", expr(e));
        }
        StmtKind::Break => {
            pad(indent, out);
            out.push_str("break;\n");
        }
        StmtKind::Continue => {
            pad(indent, out);
            out.push_str("continue;\n");
        }
    }
}

/// Renders an expression, fully parenthesized.
pub fn expr(e: &Expr) -> String {
    match &e.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::FloatLit(v) => {
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        ExprKind::CharLit(v) => v.to_string(),
        ExprKind::StrLit(s) => format!("{s:?}"),
        ExprKind::Ident { name, .. } => name.clone(),
        ExprKind::Unary { op, expr: inner } => format!("({op}{})", expr(inner)),
        ExprKind::Deref(inner) => format!("(*{})", expr(inner)),
        ExprKind::AddrOf(inner) => format!("(&{})", expr(inner)),
        ExprKind::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", expr(lhs), expr(rhs))
        }
        ExprKind::Assign { op, lhs, rhs } => match op {
            None => format!("({} = {})", expr(lhs), expr(rhs)),
            Some(op) => format!("({} {op}= {})", expr(lhs), expr(rhs)),
        },
        ExprKind::Ternary {
            cond,
            then_e,
            else_e,
        } => format!("({} ? {} : {})", expr(cond), expr(then_e), expr(else_e)),
        ExprKind::Call { callee, args } => {
            let args = args.iter().map(expr).collect::<Vec<_>>().join(", ");
            format!("{callee}({args})")
        }
        ExprKind::Index { base, index } => format!("{}[{}]", expr(base), expr(index)),
        ExprKind::Member { base, field, arrow } => {
            let sep = if *arrow { "->" } else { "." };
            format!("{}{sep}{field}", expr(base))
        }
        ExprKind::Cast { ty, expr: inner } => format!("(({ty})({}))", expr(inner)),
        ExprKind::SizeofType(ty) => format!("sizeof({ty})"),
        ExprKind::SizeofExpr(inner) => format!("sizeof({})", expr(inner)),
        ExprKind::IncDec { op, expr: inner } => match op {
            IncDecOp::PreInc => format!("(++{})", expr(inner)),
            IncDecOp::PreDec => format!("(--{})", expr(inner)),
            IncDecOp::PostInc => format!("({}++)", expr(inner)),
            IncDecOp::PostDec => format!("({}--)", expr(inner)),
        },
        ExprKind::Comma(lhs, rhs) => format!("({}, {})", expr(lhs), expr(rhs)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_tokens;

    fn reparse(src: &str) -> TranslationUnit {
        parse_tokens(src, lex(src).expect("lexes")).expect("parses")
    }

    /// Erase ids/spans/types so structural equality can be compared.
    fn fingerprint(unit: &TranslationUnit) -> String {
        // the pretty form itself is the canonical fingerprint
        super::unit(unit)
    }

    #[test]
    fn round_trip_function() {
        let src = "int add(int a, int b) { return a + b * 2; }";
        let once = fingerprint(&reparse(src));
        let twice = fingerprint(&reparse(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn round_trip_struct_and_globals() {
        let src = "struct p { int x; double ws[4]; };\nint g = 3;\nstruct p origin;";
        let once = fingerprint(&reparse(src));
        let twice = fingerprint(&reparse(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn round_trip_control_flow() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i % 2 == 0) s += i; else s -= i; } while (s < 0) s++; do s--; while (s > 10); return s; }";
        let once = fingerprint(&reparse(src));
        let twice = fingerprint(&reparse(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn round_trip_pointers_and_casts() {
        let src = "void f(char *buf, int n) { int *p = (int*)buf; p[0] = n; *(p + 1) = -n; }";
        let once = fingerprint(&reparse(src));
        let twice = fingerprint(&reparse(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn declaration_syntax() {
        use crate::types::Type;
        assert_eq!(declaration(&Type::Int, "x"), "int x");
        assert_eq!(
            declaration(&Type::Array(Box::new(Type::Int), 3), "xs"),
            "int xs[3]"
        );
        assert_eq!(
            declaration(&Type::Ptr(Box::new(Type::Char)), "s"),
            "char *s"
        );
        assert_eq!(
            declaration(
                &Type::Array(Box::new(Type::Ptr(Box::new(Type::Char))), 2),
                "argv"
            ),
            "char *argv[2]"
        );
    }
}
