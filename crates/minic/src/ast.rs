//! The Mini-C abstract syntax tree.
//!
//! Every [`Expr`] carries a unique [`ExprId`], the key used by the symbolic
//! engine's *environment* (lvalue expression → memory region) per the
//! paper's §VI-B state tuple.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::span::Span;
use crate::types::Type;

/// Unique identifier of an expression node within a translation unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ExprId(pub u32);

impl fmt::Display for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A parsed (and, after [`crate::sema::check`], resolved) translation unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TranslationUnit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// Struct layouts, filled in by semantic analysis.
    pub structs: BTreeMap<String, StructDef>,
    /// Number of expression ids handed out (ids are `0..expr_count`).
    pub expr_count: u32,
}

impl TranslationUnit {
    /// Iterates over all function *definitions* (prototypes excluded).
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.items.iter().filter_map(|item| match item {
            Item::Function(f) if f.body.is_some() => Some(f),
            _ => None,
        })
    }

    /// Looks up a function definition or prototype by name.
    ///
    /// Definitions shadow prototypes of the same name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        let mut proto = None;
        for item in &self.items {
            if let Item::Function(f) = item {
                if f.name == name {
                    if f.body.is_some() {
                        return Some(f);
                    }
                    proto.get_or_insert(f);
                }
            }
        }
        proto
    }

    /// Iterates over global variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &VarDecl> {
        self.items.iter().filter_map(|item| match item {
            Item::Global(decl) => Some(decl),
            _ => None,
        })
    }

    /// Looks up a struct definition by name.
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.get(name)
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Item {
    /// A function definition or prototype.
    Function(Function),
    /// A global variable.
    Global(VarDecl),
    /// A struct definition.
    Struct(StructDef),
}

/// A struct definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructDef {
    /// The struct tag, e.g. `point` in `struct point`.
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<Field>,
    /// Source location of the definition.
    pub span: Span,
}

impl StructDef {
    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A struct field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// Source location.
    pub span: Span,
}

/// A function definition or prototype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Type,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Body, `None` for prototypes.
    pub body: Option<Vec<Stmt>>,
    /// Source location of the signature.
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type (arrays decay to pointers, as in C).
    pub ty: Type,
    /// The variable it declares, filled in by [`crate::sema::check`].
    pub var: Option<Var>,
    /// Source location.
    pub span: Span,
}

/// A local or global variable declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Optional initializer.
    pub init: Option<Init>,
    /// The variable it declares, filled in by [`crate::sema::check`].
    pub var: Option<Var>,
    /// Source location.
    pub span: Span,
}

/// The variable a declaration introduces and its uses denote, as
/// [`crate::sema::check`] resolves them. A local is named uniquely within
/// its function: by its declared name, or `name~k` for the function's k-th
/// declaration (in source order) that shadows one of its enclosing scopes.
/// The names are shared, so copying one bumps a reference count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Var {
    /// A parameter or local of the enclosing function.
    Local(Arc<str>),
    /// A global variable.
    Global(Arc<str>),
}

/// A variable initializer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// A scalar initializer, e.g. `= 3 * x`.
    Expr(Expr),
    /// A brace-enclosed list, e.g. `= {1, 2, 3}`.
    List(Vec<Init>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StmtKind {
    /// A local declaration.
    Decl(VarDecl),
    /// An expression statement; `None` is the empty statement `;`.
    Expr(Option<Expr>),
    /// A `{ … }` block.
    Block(Vec<Stmt>),
    /// `if (cond) then_s else else_s`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when the condition is non-zero.
        then_s: Box<Stmt>,
        /// Taken when the condition is zero, if present.
        else_s: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body (always executes at least once).
        body: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Initialization (declaration or expression statement).
        init: Option<Box<Stmt>>,
        /// Continuation condition, absent means `true`.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `return expr;` or `return;`.
    Return(Option<Expr>),
    /// `break;`.
    Break,
    /// `continue;`.
    Continue,
}

/// An expression with its unique id, source span and (post-sema) type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expr {
    /// Unique node id within the translation unit.
    pub id: ExprId,
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// The expression's type, filled in by [`crate::sema::check`].
    pub ty: Option<Type>,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// Character literal (stored numerically).
    CharLit(i64),
    /// String literal.
    StrLit(String),
    /// Variable reference.
    Ident {
        /// The name as written.
        name: String,
        /// The variable it denotes, filled in by [`crate::sema::check`].
        var: Option<Var>,
    },
    /// A unary operator application (`-`, `+`, `!`, `~`).
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
    /// Pointer dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e`.
    AddrOf(Box<Expr>),
    /// A binary operator application.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Assignment `lhs = rhs` or compound assignment `lhs op= rhs`.
    Assign {
        /// `None` for plain `=`, `Some(op)` for `op=`.
        op: Option<BinOp>,
        /// Assignment target (must be an lvalue).
        lhs: Box<Expr>,
        /// Assigned value.
        rhs: Box<Expr>,
    },
    /// Conditional `cond ? then_e : else_e`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when non-zero.
        then_e: Box<Expr>,
        /// Value when zero.
        else_e: Box<Expr>,
    },
    /// A direct function call `callee(args…)`.
    Call {
        /// Name of the called function.
        callee: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Array indexing `base[index]`.
    Index {
        /// The array or pointer expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// Member access `base.field` or `base->field`.
    Member {
        /// The struct (or struct pointer) expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `true` for `->`.
        arrow: bool,
    },
    /// A cast `(ty)expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(type)`.
    SizeofType(Type),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
    /// Pre/post increment/decrement.
    IncDec {
        /// Which of the four forms.
        op: IncDecOp,
        /// The lvalue operand.
        expr: Box<Expr>,
    },
    /// Comma expression `lhs, rhs`.
    Comma(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Whether this expression is syntactically an lvalue.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Ident { .. }
                | ExprKind::Deref(_)
                | ExprKind::Index { .. }
                | ExprKind::Member { .. }
        )
    }

    /// Visits this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, visit: &mut dyn FnMut(&'a Expr)) {
        visit(self);
        match &self.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::Ident { .. }
            | ExprKind::SizeofType(_) => {}
            ExprKind::Unary { expr, .. }
            | ExprKind::Deref(expr)
            | ExprKind::AddrOf(expr)
            | ExprKind::Cast { expr, .. }
            | ExprKind::SizeofExpr(expr)
            | ExprKind::IncDec { expr, .. } => expr.walk(visit),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
            ExprKind::Ternary {
                cond,
                then_e,
                else_e,
            } => {
                cond.walk(visit);
                then_e.walk(visit);
                else_e.walk(visit);
            }
            ExprKind::Call { args, .. } => {
                for arg in args {
                    arg.walk(visit);
                }
            }
            ExprKind::Index { base, index } => {
                base.walk(visit);
                index.walk(visit);
            }
            ExprKind::Member { base, .. } => base.walk(visit),
            ExprKind::Comma(lhs, rhs) => {
                lhs.walk(visit);
                rhs.walk(visit);
            }
        }
    }
}

/// Unary operators (value-producing; `*` and `&` are separate nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// No-op `+e`.
    Plus,
    /// Logical negation `!e`.
    Not,
    /// Bitwise complement `~e`.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Plus => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        };
        f.write_str(s)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinOp {
    /// Whether the operator yields a boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Whether the operator is `&&` or `||` (short-circuiting).
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::BitAnd => "&",
            BinOp::BitXor => "^",
            BinOp::BitOr => "|",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
        };
        f.write_str(s)
    }
}

/// The four increment/decrement forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IncDecOp {
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
    /// `e++`
    PostInc,
    /// `e--`
    PostDec,
}

impl IncDecOp {
    /// Whether the operand is read before mutation (post forms).
    pub fn is_post(self) -> bool {
        matches!(self, IncDecOp::PostInc | IncDecOp::PostDec)
    }

    /// +1 or -1.
    pub fn delta(self) -> i64 {
        match self {
            IncDecOp::PreInc | IncDecOp::PostInc => 1,
            IncDecOp::PreDec | IncDecOp::PostDec => -1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expr(kind: ExprKind) -> Expr {
        Expr {
            id: ExprId(0),
            kind,
            span: Span::default(),
            ty: None,
        }
    }

    #[test]
    fn lvalue_classification() {
        assert!(expr(ExprKind::Ident {
            name: "x".into(),
            var: None
        })
        .is_lvalue());
        assert!(!expr(ExprKind::IntLit(3)).is_lvalue());
        let deref = expr(ExprKind::Deref(Box::new(expr(ExprKind::Ident {
            name: "p".into(),
            var: None,
        }))));
        assert!(deref.is_lvalue());
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = expr(ExprKind::Binary {
            op: BinOp::Add,
            lhs: Box::new(expr(ExprKind::IntLit(1))),
            rhs: Box::new(expr(ExprKind::Unary {
                op: UnOp::Neg,
                expr: Box::new(expr(ExprKind::Ident {
                    name: "x".into(),
                    var: None,
                })),
            })),
        });
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn incdec_properties() {
        assert!(IncDecOp::PostInc.is_post());
        assert!(!IncDecOp::PreDec.is_post());
        assert_eq!(IncDecOp::PreDec.delta(), -1);
        assert_eq!(IncDecOp::PostInc.delta(), 1);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::LogOr.is_logical());
        assert!(!BinOp::BitOr.is_logical());
    }
}
