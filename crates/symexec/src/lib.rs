//! Path-sensitive symbolic execution over Mini-C, with the region-based
//! memory model of the Clang Static Analyzer.
//!
//! This crate is the reproduction of the engine half of the paper's
//! prototype (§II-B, §II-C, §VI-B of *PrivacyScope*, ICDCS 2020). Its state
//! is exactly the 4-tuple *(stmt, env, σ, π)* described there:
//!
//! * the **environment** maps lvalue expressions to [`Region`]s
//!   ([`state::Environment`]); it is recorded only for traces;
//! * the **store** σ maps regions to symbolic values ([`value::SVal`],
//!   [`state::Store`]), each with its taint;
//! * the **path condition** π accumulates the branch assumptions of the
//!   current path ([`path::PathCondition`]) and is checked for feasibility
//!   by a Clang-SA-grade range [`constraints::ConstraintManager`];
//! * regions form the Clang hierarchy: `VarRegion`, `ElementRegion`,
//!   `FieldRegion` and `SymRegion` for unknown pointees ([`value::Region`]).
//!
//! On top of the state, [`engine::Engine`] abstractly interprets a Mini-C
//! function: it forks at branches, bounds loops with havoc-widening, inlines
//! direct calls, reads uninitialized memory as its region-value symbol,
//! and — crucially for PrivacyScope — introduces *taint* at secret sources
//! and propagates it per the policy of the `taint` crate, tracking the taint
//! of π across forks.
//!
//! The engine itself knows nothing about *nonreversibility*: it reports
//! completed paths, declassification events and final stores; the
//! `privacyscope` crate implements the policy checks on top.
//!
//! # Examples
//!
//! ```
//! use symexec::engine::{Engine, EngineConfig, ParamBinding};
//!
//! let unit = minic::parse(
//!     "int classify(int secret) { if (secret > 10) return 1; return 0; }",
//! )?;
//! let engine = Engine::new(&unit, EngineConfig::default());
//! let exploration = engine.run("classify", &[ParamBinding::SecretScalar])?;
//! assert_eq!(exploration.paths.len(), 2); // both branches explored
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
pub mod concrete;
pub mod constraints;
pub mod degrade;
pub mod domain;
pub mod engine;
pub mod error;
pub mod intern;
mod outcomes;
pub mod path;
pub mod profile;
pub mod simplify;
pub mod solver;
pub mod state;
pub mod trace;
pub mod value;
mod worklist;

pub use checkpoint::{CheckpointError, Snapshot};
pub use constraints::{FeasibilityCache, FeasibilityMode, ProbeOutcome};
pub use degrade::{CancelToken, Degradation, Ledger, YieldToken};
pub use engine::{Engine, EngineConfig, Exploration, ParamBinding, PathOutcome};
pub use error::EngineError;
pub use value::{Region, SVal, Symbol};
