//! Symbolic values and the region-based memory model.
//!
//! [`Region`] mirrors the Clang Static Analyzer hierarchy the paper relies
//! on in §VI-B: variable regions, element regions (array subobjects), field
//! regions (struct subobjects) and `SymRegion` — the alias region for memory
//! blocks reached through symbolic pointers. [`SVal`] is the symbolic value
//! domain stored in σ: constants, symbols, region addresses (pointers) and
//! partially evaluated expression trees.

use std::fmt;
use std::sync::Arc;

use minic::ast::{BinOp, UnOp};
use serde::{Deserialize, Serialize};

use crate::intern::{Intern, ShallowHasher, HC};

/// A total-ordered `f64` wrapper so symbolic values can key `BTreeMap`s.
///
/// Ordering and equality follow [`f64::total_cmp`], so `NaN == NaN` here —
/// acceptable for the analyzer, which never branches on NaN identity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OrderedF64(pub f64);

impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Bit-level hashing is consistent with the total_cmp-based Eq:
        // total_cmp equality implies identical bit patterns.
        self.0.to_bits().hash(state);
    }
}

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl fmt::Display for OrderedF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A symbolic variable (the `αᵢ` of §VI-B).
///
/// A symbol's `id` is the digest of its [`SymbolKey`]: what the symbol
/// denotes, never when or by which task it was made, so every path that
/// reads the same secret holds the same symbol. `hint` is a human-readable
/// name used in traces and reports (e.g. `secrets[0]`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Symbol {
    /// The digest of the symbol's key ([`SymbolKey::id`]).
    pub id: u64,
    /// Display name, e.g. the expression the symbol materialized from.
    pub hint: Arc<str>,
}

impl Symbol {
    /// Creates a symbol with a given id.
    pub fn new(id: u64, hint: impl Into<Arc<str>>) -> Self {
        Symbol {
            id,
            hint: hint.into(),
        }
    }

    /// The symbol that `key` names.
    pub fn of(key: &SymbolKey, hint: impl Into<Arc<str>>) -> Self {
        Symbol::new(key.id(), hint)
    }
}

/// What a symbol denotes, after Clang SA's `SymbolRegionValue` and
/// `SymbolConjured`. A symbol's id is the digest of its key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SymbolKey {
    /// The initial contents of a region no statement has written.
    RegionValue(Region),
    /// A value that the statement at a site creates: a modeled call's
    /// result, a decrypted element, a summary or a widened value.
    Conjured {
        /// The source byte offset of the creating statement.
        site: u32,
        /// How many times this path created values at `site` before.
        visit: u32,
        /// Which of the values created by this one visit.
        slot: u64,
    },
}

impl SymbolKey {
    /// The stable 64-bit digest of the key: an FNV-1a hash over the
    /// region's cached hash, or over the site, visit and slot.
    pub fn id(&self) -> u64 {
        let mut h = ShallowHasher::new();
        match self {
            SymbolKey::RegionValue(region) => h.tag(0).u64(region.shallow_hash()),
            SymbolKey::Conjured { site, visit, slot } => h
                .tag(1)
                .bytes(&site.to_le_bytes())
                .bytes(&visit.to_le_bytes())
                .u64(*slot),
        };
        h.finish()
    }
}

impl fmt::Display for SymbolKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolKey::RegionValue(region) => write!(f, "value of {region}"),
            SymbolKey::Conjured { site, visit, slot } => {
                write!(f, "value {slot} of visit {visit} to byte {site}")
            }
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hint.is_empty() {
            write!(f, "$:{}", self.id)
        } else {
            write!(f, "${}", self.hint)
        }
    }
}

/// An abstract memory region, following the Clang Static Analyzer model.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Region {
    /// A named local variable or parameter of a function frame
    /// (`VarRegion`). `frame` disambiguates inlined calls.
    Var {
        /// Frame identifier (0 = entry function; >0 for inlined callees).
        frame: u32,
        /// Variable name.
        name: Arc<str>,
    },
    /// A global variable.
    Global {
        /// Global name.
        name: Arc<str>,
    },
    /// An array subobject `base[index]` (`ElementRegion`).
    Element {
        /// The array (super) region (hash-consed, shared across states).
        base: HC<Region>,
        /// Element index, possibly symbolic (hash-consed).
        index: HC<SVal>,
    },
    /// A struct subobject `base.field` (`FieldRegion`).
    Field {
        /// The struct (super) region (hash-consed, shared across states).
        base: HC<Region>,
        /// Field name.
        field: Arc<str>,
    },
    /// The unknown memory block a symbolic pointer points to (`SymRegion`).
    Sym {
        /// The pointer symbol this region aliases.
        symbol: Symbol,
    },
    /// A string literal's storage.
    Str {
        /// The literal contents.
        text: Arc<str>,
    },
}

impl Region {
    /// Builds an [`Region::Element`] node, interning both edges.
    pub fn element(base: Region, index: SVal) -> Region {
        Region::Element {
            base: HC::new(base),
            index: HC::new(index),
        }
    }

    /// Builds a [`Region::Field`] node, interning the base edge.
    pub fn field(base: Region, field: impl Into<Arc<str>>) -> Region {
        Region::Field {
            base: HC::new(base),
            field: field.into(),
        }
    }

    /// The outermost base region (peeling `Element`/`Field` layers).
    pub fn base(&self) -> &Region {
        match self {
            Region::Element { base, .. } | Region::Field { base, .. } => base.base(),
            other => other,
        }
    }

    /// The immediate super-region, if this is a subobject region.
    pub fn parent(&self) -> Option<&Region> {
        match self {
            Region::Element { base, .. } | Region::Field { base, .. } => Some(base),
            _ => None,
        }
    }

    /// Whether this region is `other` or a subregion of it.
    pub fn is_within(&self, other: &Region) -> bool {
        if self == other {
            return true;
        }
        match self {
            Region::Element { base, .. } | Region::Field { base, .. } => base.is_within(other),
            _ => false,
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Var { frame, name } => {
                if *frame == 0 {
                    write!(f, "{name}")
                } else {
                    write!(f, "{name}#{frame}")
                }
            }
            Region::Global { name } => write!(f, "::{name}"),
            Region::Element { base, index } => write!(f, "{base}[{index}]"),
            Region::Field { base, field } => write!(f, "{base}.{field}"),
            Region::Sym { symbol } => write!(f, "SymRegion({})", symbol.hint),
            Region::Str { text } => write!(f, "str({text:?})"),
        }
    }
}

/// A symbolic value — what the store σ maps regions to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SVal {
    /// A concrete integer.
    Int(i64),
    /// A concrete float.
    Float(OrderedF64),
    /// A symbolic variable.
    Sym(Symbol),
    /// The address of a region (pointer values).
    Loc(Region),
    /// A partially evaluated binary expression.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand (hash-consed, shared across states).
        lhs: HC<SVal>,
        /// Right operand (hash-consed, shared across states).
        rhs: HC<SVal>,
    },
    /// A partially evaluated unary expression.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand (hash-consed, shared across states).
        arg: HC<SVal>,
    },
    /// An uninterpreted function application, e.g. `sqrt(α₁)`.
    Call {
        /// Function name.
        func: Arc<str>,
        /// Argument values.
        args: Vec<SVal>,
    },
    /// A value the engine cannot represent more precisely.
    Unknown,
    /// A selection between arms: `then` where `cond` is non-zero, `els`
    /// elsewhere. Built where the arms of an inlined call or a conditional
    /// expression (`?:`, `&&`, `||`) merge into one path, and for reads and
    /// writes through an `ite` element index.
    Ite {
        /// The selecting condition (hash-consed, shared across states).
        cond: HC<SVal>,
        /// The value where `cond` holds.
        then: HC<SVal>,
        /// The value where `cond` is zero.
        els: HC<SVal>,
    },
}

impl SVal {
    /// Convenience constructor for floats.
    pub fn float(v: f64) -> SVal {
        SVal::Float(OrderedF64(v))
    }

    /// Builds a binary expression node (no simplification), interning both
    /// operands.
    pub fn binary(op: BinOp, lhs: SVal, rhs: SVal) -> SVal {
        SVal::Binary {
            op,
            lhs: HC::new(lhs),
            rhs: HC::new(rhs),
        }
    }

    /// Builds a unary expression node (no simplification), interning the
    /// operand.
    pub fn unary(op: UnOp, arg: SVal) -> SVal {
        SVal::Unary {
            op,
            arg: HC::new(arg),
        }
    }

    /// Builds an [`SVal::Ite`] node (no simplification), interning every
    /// edge.
    pub fn ite(cond: SVal, then: SVal, els: SVal) -> SVal {
        SVal::Ite {
            cond: HC::new(cond),
            then: HC::new(then),
            els: HC::new(els),
        }
    }

    /// Whether the value is a concrete constant.
    pub fn is_const(&self) -> bool {
        matches!(self, SVal::Int(_) | SVal::Float(_))
    }

    /// The concrete integer, if this is an [`SVal::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SVal::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Whether [`SVal::Unknown`] occurs anywhere in the expression.
    pub fn has_unknown(&self) -> bool {
        match self {
            SVal::Unknown => true,
            SVal::Int(_) | SVal::Float(_) | SVal::Sym(_) | SVal::Loc(_) => false,
            SVal::Binary { lhs, rhs, .. } => lhs.has_unknown() || rhs.has_unknown(),
            SVal::Unary { arg, .. } => arg.has_unknown(),
            SVal::Call { args, .. } => args.iter().any(SVal::has_unknown),
            SVal::Ite { cond, then, els } => {
                cond.has_unknown() || then.has_unknown() || els.has_unknown()
            }
        }
    }

    /// Counts expression nodes (region nodes included, shared subtrees
    /// once per occurrence), or `None` when there are more than `limit`.
    ///
    /// Used by the engine's value summarization to bound expression
    /// growth. O(1): hash-consed children cache their subtree sizes (see
    /// [`crate::intern`]); only the top node and any `Call` arguments are
    /// visited. Sizes saturate at `u32::MAX`, which therefore exceeds
    /// every limit.
    pub fn size_within(&self, limit: usize) -> Option<usize> {
        let size = self.tree_size();
        (size < u32::MAX && size as usize <= limit).then_some(size as usize)
    }

    /// Collects the ids of all symbols occurring in the expression.
    pub fn symbols(&self, out: &mut std::collections::BTreeSet<u64>) {
        self.any_symbol(&mut |id| {
            out.insert(id);
            false
        });
    }

    /// Whether `pred` holds for some symbol occurring in the expression,
    /// visiting symbols in tree order and stopping at the first match.
    /// Allocates nothing.
    pub fn any_symbol(&self, pred: &mut impl FnMut(u64) -> bool) -> bool {
        match self {
            SVal::Sym(sym) => pred(sym.id),
            SVal::Loc(region) => region_any_symbol(region, pred),
            SVal::Binary { lhs, rhs, .. } => lhs.any_symbol(pred) || rhs.any_symbol(pred),
            SVal::Unary { arg, .. } => arg.any_symbol(pred),
            SVal::Call { args, .. } => args.iter().any(|arg| arg.any_symbol(pred)),
            SVal::Ite { cond, then, els } => {
                cond.any_symbol(pred) || then.any_symbol(pred) || els.any_symbol(pred)
            }
            SVal::Int(_) | SVal::Float(_) | SVal::Unknown => false,
        }
    }
}

fn region_any_symbol(region: &Region, pred: &mut impl FnMut(u64) -> bool) -> bool {
    match region {
        Region::Element { base, index } => region_any_symbol(base, pred) || index.any_symbol(pred),
        Region::Field { base, .. } => region_any_symbol(base, pred),
        Region::Sym { symbol } => pred(symbol.id),
        Region::Var { .. } | Region::Global { .. } | Region::Str { .. } => false,
    }
}

impl fmt::Display for SVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SVal::Int(v) => write!(f, "{v}"),
            SVal::Float(v) => write!(f, "{}", v.0),
            SVal::Sym(sym) => write!(f, "{sym}"),
            SVal::Loc(region) => write!(f, "&{region}"),
            SVal::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            SVal::Unary { op, arg } => write!(f, "({op}{arg})"),
            SVal::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
            SVal::Unknown => write!(f, "⟨unknown⟩"),
            SVal::Ite { cond, then, els } => write!(f, "ite({cond}, {then}, {els})"),
        }
    }
}

impl From<i64> for SVal {
    fn from(v: i64) -> Self {
        SVal::Int(v)
    }
}

impl From<Symbol> for SVal {
    fn from(sym: Symbol) -> Self {
        SVal::Sym(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(id: u64, hint: &str) -> Symbol {
        Symbol::new(id, hint)
    }

    #[test]
    fn region_base_peels_layers() {
        let base = Region::Sym {
            symbol: sym(0, "secrets"),
        };
        let elem = Region::element(base.clone(), SVal::Int(1));
        let field = Region::field(elem.clone(), "w");
        assert_eq!(field.base(), &base);
        assert!(field.is_within(&base));
        assert!(elem.is_within(&base));
        assert!(elem.is_within(&elem));
        assert!(!base.is_within(&elem));
    }

    /// `Arc<str>` names serialize exactly as the `String` fields they
    /// replaced, so checkpoints and reports keep their bytes.
    #[test]
    fn shared_names_keep_the_string_json() {
        let cases: Vec<(SVal, &str)> = vec![
            (
                SVal::Loc(Region::Var {
                    frame: 2,
                    name: "x~1".into(),
                }),
                r#"{"Loc":{"Var":{"frame":2,"name":"x~1"}}}"#,
            ),
            (
                SVal::Loc(Region::Global { name: "g".into() }),
                r#"{"Loc":{"Global":{"name":"g"}}}"#,
            ),
            (
                SVal::Loc(Region::field(
                    Region::Sym {
                        symbol: sym(3, "p"),
                    },
                    "w",
                )),
                r#"{"Loc":{"Field":{"base":{"Sym":{"symbol":{"id":3,"hint":"p"}}},"field":"w"}}}"#,
            ),
            (
                SVal::Loc(Region::Str {
                    text: "a\"b".into(),
                }),
                r#"{"Loc":{"Str":{"text":"a\"b"}}}"#,
            ),
            (
                SVal::Call {
                    func: "sqrt".into(),
                    args: vec![SVal::Sym(sym(0, "secrets[0]"))],
                },
                r#"{"Call":{"func":"sqrt","args":[{"Sym":{"id":0,"hint":"secrets[0]"}}]}}"#,
            ),
        ];
        for (value, json) in cases {
            assert_eq!(serde_json::to_string(&value).unwrap(), json);
            let back: SVal = serde_json::from_str(json).unwrap();
            assert_eq!(back, value);
        }
    }

    #[test]
    fn display_forms() {
        let base = Region::Sym {
            symbol: sym(0, "secrets"),
        };
        let elem = Region::element(base, SVal::Int(0));
        assert_eq!(elem.to_string(), "SymRegion(secrets)[0]");
        let v = SVal::binary(BinOp::Add, SVal::Sym(sym(1, "secrets[0]")), SVal::Int(100));
        assert_eq!(v.to_string(), "($secrets[0] + 100)");
    }

    #[test]
    fn symbols_are_collected_transitively() {
        let v = SVal::binary(
            BinOp::Mul,
            SVal::Sym(sym(1, "a")),
            SVal::Loc(Region::element(
                Region::Sym {
                    symbol: sym(2, "p"),
                },
                SVal::Sym(sym(3, "i")),
            )),
        );
        let mut ids = std::collections::BTreeSet::new();
        v.symbols(&mut ids);
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn ids_are_digests_of_keys() {
        let secret = |index| {
            let base = Region::Sym {
                symbol: sym(1, "s"),
            };
            SymbolKey::RegionValue(Region::element(base, SVal::Int(index)))
        };
        assert_eq!(secret(0).id(), secret(0).id());
        assert_ne!(secret(0).id(), secret(1).id());
        let conjured = |visit, slot| SymbolKey::Conjured {
            site: 40,
            visit,
            slot,
        };
        let ids: std::collections::BTreeSet<u64> = [(0, 0), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .map(|(visit, slot)| conjured(visit, slot).id())
            .collect();
        assert_eq!(ids.len(), 4);
        assert_eq!(
            Symbol::of(&conjured(2, 3), "rand()").id,
            conjured(2, 3).id()
        );
    }

    #[test]
    fn ordered_f64_total_order() {
        assert_eq!(OrderedF64(f64::NAN), OrderedF64(f64::NAN));
        assert!(OrderedF64(1.0) < OrderedF64(2.0));
        assert_ne!(OrderedF64(0.0), OrderedF64(-0.0));
    }

    #[test]
    fn has_unknown_detection() {
        let clean = SVal::binary(BinOp::Add, SVal::Int(1), SVal::Sym(sym(0, "x")));
        assert!(!clean.has_unknown());
        let dirty = SVal::binary(BinOp::Add, SVal::Int(1), SVal::Unknown);
        assert!(dirty.has_unknown());
    }
}
