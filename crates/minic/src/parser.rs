//! Recursive-descent parser for Mini-C.

use crate::ast::*;
use crate::error::Error;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use crate::types::Type;

/// Parses a token stream (as produced by [`crate::lexer::lex`]) into an
/// unresolved [`TranslationUnit`].
///
/// Symbol resolution and type checking are performed separately by
/// [`crate::sema::check`]; most callers should use [`crate::parse`] which
/// runs the whole pipeline.
///
/// # Errors
///
/// Returns [`Error`] with [`crate::error::ErrorKind::Parse`] on syntax
/// violations.
pub fn parse_tokens(source: &str, tokens: Vec<Token>) -> Result<TranslationUnit, Error> {
    let mut parser = Parser {
        source,
        tokens,
        pos: 0,
        next_expr_id: 0,
    };
    parser.translation_unit()
}

struct Parser<'src> {
    #[allow(dead_code)]
    source: &'src str,
    tokens: Vec<Token>,
    pos: usize,
    next_expr_id: u32,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, offset: usize) -> &TokenKind {
        let idx = (self.pos + offset).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let idx = self.pos.min(self.tokens.len() - 1);
        let kind = self.tokens[idx].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        kind
    }

    fn eat_punct(&mut self, punct: Punct) -> bool {
        if *self.peek() == TokenKind::Punct(punct) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        if *self.peek() == TokenKind::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, punct: Punct) -> Result<(), Error> {
        if self.eat_punct(punct) {
            Ok(())
        } else {
            Err(Error::parse(
                format!("expected `{punct}`, found {}", self.peek()),
                self.span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Error> {
        let span = self.span();
        match self.bump() {
            TokenKind::Ident(name) => Ok((name, span)),
            other => Err(Error::parse(
                format!("expected identifier, found {other}"),
                span,
            )),
        }
    }

    fn fresh_id(&mut self) -> ExprId {
        let id = ExprId(self.next_expr_id);
        self.next_expr_id += 1;
        id
    }

    fn mk(&mut self, kind: ExprKind, span: Span) -> Expr {
        Expr {
            id: self.fresh_id(),
            kind,
            span,
            ty: None,
        }
    }

    // ---- types ----------------------------------------------------------

    fn at_type_start(&self) -> bool {
        matches!(
            self.peek(),
            TokenKind::Keyword(
                Keyword::Void
                    | Keyword::Char
                    | Keyword::Int
                    | Keyword::Long
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Struct
                    | Keyword::Const
                    | Keyword::Static
            )
        )
    }

    /// Parses a type specifier: qualifiers + base type keywords.
    fn type_specifier(&mut self) -> Result<Type, Error> {
        while self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Static) {}
        let span = self.span();
        let base = match self.bump() {
            TokenKind::Keyword(Keyword::Void) => Type::Void,
            TokenKind::Keyword(Keyword::Char) => Type::Char,
            TokenKind::Keyword(Keyword::Int) => Type::Int,
            TokenKind::Keyword(Keyword::Float) => Type::Float,
            TokenKind::Keyword(Keyword::Double) => Type::Double,
            TokenKind::Keyword(Keyword::Long) => {
                // `long`, `long long`, `long int`, `long double`
                if self.eat_keyword(Keyword::Long) {
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::Long
                } else if self.eat_keyword(Keyword::Double) {
                    Type::Double
                } else {
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::Long
                }
            }
            TokenKind::Keyword(Keyword::Signed) => {
                if self.eat_keyword(Keyword::Char) {
                    Type::Char
                } else if self.eat_keyword(Keyword::Long) {
                    let _ = self.eat_keyword(Keyword::Long);
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::Long
                } else {
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::Int
                }
            }
            TokenKind::Keyword(Keyword::Unsigned) => {
                if self.eat_keyword(Keyword::Char) {
                    Type::Char
                } else if self.eat_keyword(Keyword::Long) {
                    let _ = self.eat_keyword(Keyword::Long);
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::ULong
                } else {
                    let _ = self.eat_keyword(Keyword::Int);
                    Type::UInt
                }
            }
            TokenKind::Keyword(Keyword::Struct) => {
                let (name, _) = self.expect_ident()?;
                Type::Struct(name)
            }
            other => {
                return Err(Error::parse(
                    format!("expected a type, found {other}"),
                    span,
                ))
            }
        };
        // `const` may also follow the base type (`int const`).
        while self.eat_keyword(Keyword::Const) {}
        Ok(base)
    }

    /// Parses the pointer stars of a declarator.
    fn pointer_suffix(&mut self, mut ty: Type) -> Type {
        while self.eat_punct(Punct::Star) {
            while self.eat_keyword(Keyword::Const) {}
            ty = Type::Ptr(Box::new(ty));
        }
        ty
    }

    /// Parses a full declarator: stars, name, array suffixes.
    fn declarator(&mut self, base: Type) -> Result<(String, Type, Span), Error> {
        let ty = self.pointer_suffix(base);
        let (name, span) = self.expect_ident()?;
        let ty = self.array_suffix(ty)?;
        Ok((name, ty, span))
    }

    /// Parses trailing `[N]` suffixes, outermost dimension first.
    fn array_suffix(&mut self, ty: Type) -> Result<Type, Error> {
        if !self.eat_punct(Punct::LBracket) {
            return Ok(ty);
        }
        let span = self.span();
        let len = match self.bump() {
            TokenKind::IntLit(n) if n >= 0 => n as usize,
            TokenKind::Punct(Punct::RBracket) => {
                // `T x[]` — unsized arrays decay to pointers.
                let inner = self.array_suffix(ty)?;
                return Ok(Type::Ptr(Box::new(inner)));
            }
            other => {
                return Err(Error::parse(
                    format!("expected constant array length, found {other}"),
                    span,
                ))
            }
        };
        self.expect_punct(Punct::RBracket)?;
        let inner = self.array_suffix(ty)?;
        Ok(Type::Array(Box::new(inner), len))
    }

    /// Parses an abstract type (for casts and `sizeof`): specifier + stars.
    fn abstract_type(&mut self) -> Result<Type, Error> {
        let base = self.type_specifier()?;
        Ok(self.pointer_suffix(base))
    }

    // ---- items ----------------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, Error> {
        let mut items = Vec::new();
        while *self.peek() != TokenKind::Eof {
            self.item(&mut items)?;
        }
        Ok(TranslationUnit {
            items,
            structs: Default::default(),
            expr_count: self.next_expr_id,
        })
    }

    fn item(&mut self, items: &mut Vec<Item>) -> Result<(), Error> {
        // `struct S { … };` definition?
        if *self.peek() == TokenKind::Keyword(Keyword::Struct)
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && *self.peek_at(2) == TokenKind::Punct(Punct::LBrace)
        {
            items.push(Item::Struct(self.struct_def()?));
            return Ok(());
        }
        let start = self.span();
        let base = self.type_specifier()?;
        let ty = self.pointer_suffix(base.clone());
        let (name, name_span) = self.expect_ident()?;

        if *self.peek() == TokenKind::Punct(Punct::LParen) {
            items.push(Item::Function(self.function(ty, name, start)?));
            return Ok(());
        }

        // Global variable(s): `int a = 1, *b;` expands into one item each.
        let ty = self.array_suffix(ty)?;
        let init = self.initializer_opt()?;
        items.push(Item::Global(VarDecl {
            name,
            ty,
            init,
            var: None,
            span: start.to(name_span),
        }));
        while self.eat_punct(Punct::Comma) {
            let (name, ty, span) = self.declarator(base.clone())?;
            let init = self.initializer_opt()?;
            items.push(Item::Global(VarDecl {
                name,
                ty,
                init,
                var: None,
                span,
            }));
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn struct_def(&mut self) -> Result<StructDef, Error> {
        let start = self.span();
        self.bump(); // struct
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let base = self.type_specifier()?;
            loop {
                let (fname, fty, fspan) = self.declarator(base.clone())?;
                fields.push(Field {
                    name: fname,
                    ty: fty,
                    span: fspan,
                });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        self.expect_punct(Punct::Semi)?;
        Ok(StructDef {
            name,
            fields,
            span: start.to(self.prev_span()),
        })
    }

    fn function(&mut self, ret: Type, name: String, start: Span) -> Result<Function, Error> {
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat_punct(Punct::RParen) {
            // `(void)` parameter list
            if *self.peek() == TokenKind::Keyword(Keyword::Void)
                && *self.peek_at(1) == TokenKind::Punct(Punct::RParen)
            {
                self.bump();
                self.bump();
            } else {
                loop {
                    let base = self.type_specifier()?;
                    let (pname, pty, pspan) = self.declarator(base)?;
                    params.push(Param {
                        name: pname,
                        // Array parameters decay to pointers, as in C.
                        ty: pty.decay(),
                        var: None,
                        span: pspan,
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::RParen)?;
            }
        }
        let sig_span = start.to(self.prev_span());
        let body = if self.eat_punct(Punct::Semi) {
            None
        } else {
            Some(self.block()?)
        };
        Ok(Function {
            name,
            ret,
            params,
            body,
            span: sig_span,
        })
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, Error> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            if *self.peek() == TokenKind::Eof {
                return Err(Error::parse("unterminated block", self.span()));
            }
            stmts.push(self.statement()?);
        }
        Ok(stmts)
    }

    fn statement(&mut self) -> Result<Stmt, Error> {
        let start = self.span();
        match self.peek() {
            TokenKind::Punct(Punct::LBrace) => {
                let stmts = self.block()?;
                Ok(Stmt {
                    kind: StmtKind::Block(stmts),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let then_s = Box::new(self.statement()?);
                let else_s = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Stmt {
                    kind: StmtKind::If {
                        cond,
                        then_s,
                        else_s,
                    },
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.statement()?);
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.bump();
                let body = Box::new(self.statement()?);
                if !self.eat_keyword(Keyword::While) {
                    return Err(Error::parse(
                        format!("expected `while` after do-body, found {}", self.peek()),
                        self.span(),
                    ));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::DoWhile { body, cond },
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init = if self.eat_punct(Punct::Semi) {
                    None
                } else if self.at_type_start() {
                    Some(Box::new(self.decl_statement()?))
                } else {
                    let expr = self.expression()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(Box::new(Stmt {
                        span: expr.span,
                        kind: StmtKind::Expr(Some(expr)),
                    }))
                };
                let cond = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semi)?;
                let step = if *self.peek() == TokenKind::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.statement()?);
                Ok(Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value = if *self.peek() == TokenKind::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expression()?)
                };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Return(value),
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span: start.to(self.prev_span()),
                })
            }
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt {
                    kind: StmtKind::Expr(None),
                    span: start,
                })
            }
            _ if self.at_type_start() => self.decl_statement(),
            _ => {
                let expr = self.expression()?;
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::Expr(Some(expr)),
                })
            }
        }
    }

    /// Parses a declaration statement, desugaring `int a = 1, b;` into a
    /// block of single declarations.
    fn decl_statement(&mut self) -> Result<Stmt, Error> {
        let start = self.span();
        let base = self.type_specifier()?;
        let mut decls = Vec::new();
        loop {
            let (name, ty, span) = self.declarator(base.clone())?;
            let init = self.initializer_opt()?;
            decls.push(Stmt {
                kind: StmtKind::Decl(VarDecl {
                    name,
                    ty,
                    init,
                    var: None,
                    span,
                }),
                span,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        let full = start.to(self.prev_span());
        if decls.len() == 1 {
            let mut stmt = decls.pop().expect("one decl");
            // a single-declarator statement spans `int x = e;` entirely
            stmt.span = full;
            Ok(stmt)
        } else {
            Ok(Stmt {
                kind: StmtKind::Block(decls),
                span: full,
            })
        }
    }

    fn initializer_opt(&mut self) -> Result<Option<Init>, Error> {
        if !self.eat_punct(Punct::Assign) {
            return Ok(None);
        }
        Ok(Some(self.initializer()?))
    }

    fn initializer(&mut self) -> Result<Init, Error> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            if !self.eat_punct(Punct::RBrace) {
                loop {
                    items.push(self.initializer()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                    // allow trailing comma
                    if *self.peek() == TokenKind::Punct(Punct::RBrace) {
                        break;
                    }
                }
                self.expect_punct(Punct::RBrace)?;
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Expr(self.assign_expr()?))
        }
    }

    // ---- expressions ----------------------------------------------------

    /// Full expression including the comma operator.
    fn expression(&mut self) -> Result<Expr, Error> {
        let mut lhs = self.assign_expr()?;
        while self.eat_punct(Punct::Comma) {
            let rhs = self.assign_expr()?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(ExprKind::Comma(Box::new(lhs), Box::new(rhs)), span);
        }
        Ok(lhs)
    }

    fn assign_expr(&mut self) -> Result<Expr, Error> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            TokenKind::Punct(Punct::Assign) => Some(None),
            TokenKind::Punct(Punct::PlusAssign) => Some(Some(BinOp::Add)),
            TokenKind::Punct(Punct::MinusAssign) => Some(Some(BinOp::Sub)),
            TokenKind::Punct(Punct::StarAssign) => Some(Some(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashAssign) => Some(Some(BinOp::Div)),
            TokenKind::Punct(Punct::PercentAssign) => Some(Some(BinOp::Rem)),
            TokenKind::Punct(Punct::AmpAssign) => Some(Some(BinOp::BitAnd)),
            TokenKind::Punct(Punct::PipeAssign) => Some(Some(BinOp::BitOr)),
            TokenKind::Punct(Punct::CaretAssign) => Some(Some(BinOp::BitXor)),
            TokenKind::Punct(Punct::ShlAssign) => Some(Some(BinOp::Shl)),
            TokenKind::Punct(Punct::ShrAssign) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        let Some(op) = op else {
            return Ok(lhs);
        };
        self.bump();
        let rhs = self.assign_expr()?; // right associative
        let span = lhs.span.to(rhs.span);
        Ok(self.mk(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn ternary_expr(&mut self) -> Result<Expr, Error> {
        let cond = self.binary_expr(0)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(cond);
        }
        let then_e = self.expression()?;
        self.expect_punct(Punct::Colon)?;
        let else_e = self.assign_expr()?;
        let span = cond.span.to(else_e.span);
        Ok(self.mk(
            ExprKind::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            },
            span,
        ))
    }

    fn binary_op(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek() {
            TokenKind::Punct(Punct::Star) => (BinOp::Mul, 10),
            TokenKind::Punct(Punct::Slash) => (BinOp::Div, 10),
            TokenKind::Punct(Punct::Percent) => (BinOp::Rem, 10),
            TokenKind::Punct(Punct::Plus) => (BinOp::Add, 9),
            TokenKind::Punct(Punct::Minus) => (BinOp::Sub, 9),
            TokenKind::Punct(Punct::Shl) => (BinOp::Shl, 8),
            TokenKind::Punct(Punct::Shr) => (BinOp::Shr, 8),
            TokenKind::Punct(Punct::Lt) => (BinOp::Lt, 7),
            TokenKind::Punct(Punct::Le) => (BinOp::Le, 7),
            TokenKind::Punct(Punct::Gt) => (BinOp::Gt, 7),
            TokenKind::Punct(Punct::Ge) => (BinOp::Ge, 7),
            TokenKind::Punct(Punct::EqEq) => (BinOp::Eq, 6),
            TokenKind::Punct(Punct::Ne) => (BinOp::Ne, 6),
            TokenKind::Punct(Punct::Amp) => (BinOp::BitAnd, 5),
            TokenKind::Punct(Punct::Caret) => (BinOp::BitXor, 4),
            TokenKind::Punct(Punct::Pipe) => (BinOp::BitOr, 3),
            TokenKind::Punct(Punct::AndAnd) => (BinOp::LogAnd, 2),
            TokenKind::Punct(Punct::OrOr) => (BinOp::LogOr, 1),
            _ => return None,
        };
        Some(op)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, Error> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = self.binary_op() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let span = lhs.span.to(rhs.span);
            lhs = self.mk(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    /// Whether a `(` at the current position opens a cast / type operand.
    fn paren_opens_type(&self) -> bool {
        *self.peek() == TokenKind::Punct(Punct::LParen)
            && matches!(
                self.peek_at(1),
                TokenKind::Keyword(
                    Keyword::Void
                        | Keyword::Char
                        | Keyword::Int
                        | Keyword::Long
                        | Keyword::Float
                        | Keyword::Double
                        | Keyword::Unsigned
                        | Keyword::Signed
                        | Keyword::Struct
                        | Keyword::Const
                )
            )
    }

    fn unary_expr(&mut self) -> Result<Expr, Error> {
        let start = self.span();
        match self.peek() {
            TokenKind::Punct(Punct::Minus) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct(Punct::Plus) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::Unary {
                        op: UnOp::Plus,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct(Punct::Bang) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::Unary {
                        op: UnOp::Not,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct(Punct::Tilde) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::Unary {
                        op: UnOp::BitNot,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct(Punct::Star) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(ExprKind::Deref(Box::new(operand)), span))
            }
            TokenKind::Punct(Punct::Amp) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(ExprKind::AddrOf(Box::new(operand)), span))
            }
            TokenKind::Punct(Punct::PlusPlus) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::IncDec {
                        op: IncDecOp::PreInc,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.bump();
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::IncDec {
                        op: IncDecOp::PreDec,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                if self.paren_opens_type() {
                    self.bump(); // (
                    let ty = self.abstract_type()?;
                    self.expect_punct(Punct::RParen)?;
                    let span = start.to(self.prev_span());
                    Ok(self.mk(ExprKind::SizeofType(ty), span))
                } else {
                    let operand = self.unary_expr()?;
                    let span = start.to(operand.span);
                    Ok(self.mk(ExprKind::SizeofExpr(Box::new(operand)), span))
                }
            }
            _ if self.paren_opens_type() => {
                self.bump(); // (
                let ty = self.abstract_type()?;
                self.expect_punct(Punct::RParen)?;
                let operand = self.unary_expr()?;
                let span = start.to(operand.span);
                Ok(self.mk(
                    ExprKind::Cast {
                        ty,
                        expr: Box::new(operand),
                    },
                    span,
                ))
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, Error> {
        let mut expr = self.primary_expr()?;
        loop {
            match self.peek() {
                TokenKind::Punct(Punct::LBracket) => {
                    self.bump();
                    let index = self.expression()?;
                    self.expect_punct(Punct::RBracket)?;
                    let span = expr.span.to(self.prev_span());
                    expr = self.mk(
                        ExprKind::Index {
                            base: Box::new(expr),
                            index: Box::new(index),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = expr.span.to(fspan);
                    expr = self.mk(
                        ExprKind::Member {
                            base: Box::new(expr),
                            field,
                            arrow: false,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.bump();
                    let (field, fspan) = self.expect_ident()?;
                    let span = expr.span.to(fspan);
                    expr = self.mk(
                        ExprKind::Member {
                            base: Box::new(expr),
                            field,
                            arrow: true,
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    self.bump();
                    let span = expr.span.to(self.prev_span());
                    expr = self.mk(
                        ExprKind::IncDec {
                            op: IncDecOp::PostInc,
                            expr: Box::new(expr),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    self.bump();
                    let span = expr.span.to(self.prev_span());
                    expr = self.mk(
                        ExprKind::IncDec {
                            op: IncDecOp::PostDec,
                            expr: Box::new(expr),
                        },
                        span,
                    );
                }
                TokenKind::Punct(Punct::LParen) => {
                    // Direct calls only: the callee must be an identifier.
                    let ExprKind::Ident { name: callee, .. } = &expr.kind else {
                        return Err(Error::parse(
                            "only direct calls to named functions are supported",
                            self.span(),
                        ));
                    };
                    let callee = callee.clone();
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat_punct(Punct::RParen) {
                        loop {
                            args.push(self.assign_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect_punct(Punct::RParen)?;
                    }
                    let span = expr.span.to(self.prev_span());
                    expr = self.mk(ExprKind::Call { callee, args }, span);
                }
                _ => return Ok(expr),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, Error> {
        let span = self.span();
        match self.bump() {
            TokenKind::IntLit(v) => Ok(self.mk(ExprKind::IntLit(v), span)),
            TokenKind::FloatLit(v) => Ok(self.mk(ExprKind::FloatLit(v), span)),
            TokenKind::CharLit(v) => Ok(self.mk(ExprKind::CharLit(v), span)),
            TokenKind::StrLit(s) => Ok(self.mk(ExprKind::StrLit(s), span)),
            TokenKind::Ident(name) => Ok(self.mk(ExprKind::Ident { name, var: None }, span)),
            TokenKind::Punct(Punct::LParen) => {
                let expr = self.expression()?;
                self.expect_punct(Punct::RParen)?;
                Ok(expr)
            }
            other => Err(Error::parse(
                format!("expected an expression, found {other}"),
                span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> TranslationUnit {
        parse_tokens(src, lex(src).expect("lexes")).expect("parses")
    }

    fn parse_err(src: &str) -> Error {
        match parse_tokens(src, lex(src).expect("lexes")) {
            Ok(_) => panic!("expected parse error for {src:?}"),
            Err(err) => err,
        }
    }

    fn first_fn(unit: &TranslationUnit) -> &Function {
        unit.functions().next().expect("has a function")
    }

    #[test]
    fn parses_empty_unit() {
        assert!(parse("").items.is_empty());
    }

    #[test]
    fn parses_function_with_params() {
        let unit = parse("int add(int a, int b) { return a + b; }");
        let f = first_fn(&unit);
        assert_eq!(f.name, "add");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert_eq!(f.body.as_ref().map(|b| b.len()), Some(1));
    }

    #[test]
    fn array_param_decays() {
        let unit = parse("void f(int xs[10]) { }");
        assert_eq!(first_fn(&unit).params[0].ty, Type::Ptr(Box::new(Type::Int)));
    }

    #[test]
    fn parses_prototypes() {
        let unit = parse("double sqrt(double x);");
        assert!(unit.function("sqrt").is_some());
        assert!(unit.functions().next().is_none()); // no definitions
    }

    #[test]
    fn parses_struct_definition() {
        let unit = parse("struct point { int x; int y; double w[3]; };");
        match &unit.items[0] {
            Item::Struct(def) => {
                assert_eq!(def.name, "point");
                assert_eq!(def.fields.len(), 3);
                assert_eq!(def.fields[2].ty, Type::Array(Box::new(Type::Double), 3));
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn parses_globals_with_initializers() {
        let unit = parse("int limit = 100;\ndouble table[4] = {1.0, 2.0, 3.0, 4.0};");
        let globals: Vec<_> = unit.globals().collect();
        assert_eq!(globals.len(), 2);
        assert!(matches!(globals[0].init, Some(Init::Expr(_))));
        match &globals[1].init {
            Some(Init::List(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected list init, got {other:?}"),
        }
    }

    #[test]
    fn multi_declarator_locals_desugar_to_block() {
        let unit = parse("void f() { int a = 1, b = 2; }");
        let f = first_fn(&unit);
        match &f.body.as_ref().unwrap()[0].kind {
            StmtKind::Block(stmts) => assert_eq!(stmts.len(), 2),
            other => panic!("expected block, got {other:?}"),
        }
    }

    #[test]
    fn precedence_mul_over_add() {
        let unit = parse("int f() { return 1 + 2 * 3; }");
        let f = first_fn(&unit);
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!("expected return");
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &expr.kind
        else {
            panic!("expected + at top, got {:?}", expr.kind);
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn assignment_is_right_associative() {
        let unit = parse("void f() { int a; int b; a = b = 3; }");
        let f = first_fn(&unit);
        let StmtKind::Expr(Some(expr)) = &f.body.as_ref().unwrap()[2].kind else {
            panic!("expected expr stmt");
        };
        let ExprKind::Assign { rhs, .. } = &expr.kind else {
            panic!("expected assign");
        };
        assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
    }

    #[test]
    fn parses_casts_and_sizeof() {
        let unit = parse("long f(int x) { return (long)x + sizeof(int) + sizeof x; }");
        let f = first_fn(&unit);
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!("expected return");
        };
        let mut casts = 0;
        let mut sizeofs = 0;
        expr.walk(&mut |e| match &e.kind {
            ExprKind::Cast { .. } => casts += 1,
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => sizeofs += 1,
            _ => {}
        });
        assert_eq!((casts, sizeofs), (1, 2));
    }

    #[test]
    fn parses_pointer_and_member_chains() {
        let unit = parse("struct p { int x; };\nint f(struct p *q) { return q->x + (*q).x; }");
        let f = first_fn(&unit);
        assert_eq!(
            f.params[0].ty,
            Type::Ptr(Box::new(Type::Struct("p".into())))
        );
    }

    #[test]
    fn parses_control_flow() {
        let unit = parse(
            "int f(int n) {\n  int s = 0;\n  for (int i = 0; i < n; i++) { s += i; }\n  while (s > 100) s--; \n  do { s++; } while (s < 10);\n  if (s == 42) return 1; else return 0;\n}",
        );
        let f = first_fn(&unit);
        assert_eq!(f.body.as_ref().unwrap().len(), 5);
    }

    #[test]
    fn parses_ternary_and_logical() {
        let unit = parse("int f(int a, int b) { return a && b ? a : b || 1; }");
        let f = first_fn(&unit);
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!();
        };
        assert!(matches!(expr.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn expr_ids_are_unique() {
        let unit = parse("int f(int a) { return a + a * a - a; }");
        let mut ids = std::collections::BTreeSet::new();
        let f = first_fn(&unit);
        let StmtKind::Return(Some(expr)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!();
        };
        expr.walk(&mut |e| {
            assert!(ids.insert(e.id), "duplicate id {:?}", e.id);
        });
        assert!(unit.expr_count as usize >= ids.len());
    }

    #[test]
    fn unsized_array_param_and_local_pointer() {
        let unit = parse("void f(char buf[]) { char *p = buf; *p = 0; }");
        assert_eq!(
            first_fn(&unit).params[0].ty,
            Type::Ptr(Box::new(Type::Char))
        );
    }

    #[test]
    fn error_on_missing_semicolon() {
        let err = parse_err("int f() { return 1 }");
        assert!(err.to_string().contains("expected `;`"));
    }

    #[test]
    fn error_on_indirect_call() {
        let err = parse_err("void f(int (*g)()) { }");
        let _ = err; // function pointers are outside the subset
    }

    #[test]
    fn error_on_unterminated_block() {
        let err = parse_err("int f() { return 1;");
        assert!(err.to_string().contains("unterminated block"));
    }

    #[test]
    fn error_on_bad_array_length() {
        let err = parse_err("int xs[n];");
        assert!(err.to_string().contains("constant array length"));
    }

    #[test]
    fn unsigned_and_long_specifiers() {
        let unit = parse("unsigned long f(unsigned x, long long y) { return x; }");
        let f = first_fn(&unit);
        assert_eq!(f.ret, Type::ULong);
        assert_eq!(f.params[0].ty, Type::UInt);
        assert_eq!(f.params[1].ty, Type::Long);
    }
}
