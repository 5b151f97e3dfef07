//! PRIML — the *PrivacyScope InterMediate Language* of the paper's §V.
//!
//! PRIML is the small formal language the paper uses to state PrivacyScope's
//! semantics precisely. This crate implements:
//!
//! * the grammar of §V-A ([`ast`], [`parse`](mod@parse)) — statements are `skip`,
//!   assignment, sequencing and `if`/`then`/`else`; expressions are 32-bit
//!   unsigned values, variables, unary/binary operators, `get_secret(secret)`
//!   and `declassify(exp)`;
//! * the **base operational semantics** ([`concrete`]) — the
//!   ASSIGN/TCOND/FCOND/COMP/DECLASS rules, executable: running a program
//!   with a stream of secret inputs yields its declassified outputs;
//! * the **PrivacyScope analysis semantics** ([`analysis`]) — the PS-INPUT …
//!   PS-DECLASS rules of §V-B: values become ⟨v, τ⟩ pairs over the taint
//!   semi-lattice, `get_secret` returns fresh symbols with fresh taint
//!   sources, conditionals fork and taint the path condition π, and
//!   `declassify_check` (Alg. 1) reports explicit and implicit
//!   nonreversibility violations, using the hashmap `hm` to compare
//!   declassified values across paths;
//! * an executable reading of the **nonreversibility definition** itself
//!   ([`semantic`]) — brute-force over small input domains, used to
//!   cross-validate the static analysis in tests;
//! * the paper's running examples ([`examples`]) and trace rendering that
//!   regenerates Tables II and III ([`analysis::render_table2`],
//!   [`analysis::render_table3`]).
//!
//! # Examples
//!
//! ```
//! // Example 1 of the paper: x = 2·s1 + 3·s2 is safe to declassify (⊤),
//! // h1 = 2·s1 is not (single source t1).
//! let program = priml::parse(priml::examples::EXAMPLE1)?;
//! let outcome = priml::analysis::analyze(&program);
//! assert_eq!(outcome.violations.len(), 1);
//! # Ok::<(), priml::ParseError>(())
//! ```

pub mod analysis;
pub mod ast;
pub mod concrete;
pub mod examples;
pub mod parse;
pub mod semantic;
pub mod transpile;

pub use ast::{BinOp, Exp, Program, Stmt, UnOp};
pub use parse::{parse, ParseError};
