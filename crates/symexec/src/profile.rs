//! Per-source-location exploration profiling (hotspot attribution).
//!
//! The engine spends its budget — steps, forks, infeasibility prunes,
//! widenings, feasibility probes — *somewhere* in the enclave source, and
//! tuning any future pruning/merging strategy requires knowing where.
//! [`Profile`] attributes each of those costs to the byte offset of the
//! responsible statement or condition span. It is the one place the
//! exploration counters are incremented ([`Profile::bump`]): the engine's
//! [`super::engine::Stats`] exploration fields, the per-wave telemetry
//! counters and the hotspot table are all derived from it, so they cannot
//! disagree. [`Counter`] is the single list of those counters.
//!
//! # Determinism discipline
//!
//! Each path task accumulates its own `Profile`, and the worklist absorbs
//! task profiles at the wave boundary in canonical task order. Cache
//! hit/miss attribution rides the per-task probe log and is classified
//! against the global first-seen set at merge time. The result is
//! byte-identical at every worker count and cache capacity, persists in
//! checkpoints, and is purely observational: collection is unconditional
//! and cheap, and nothing the profiler records feeds back into exploration
//! decisions beyond the fork backstop, which reads the fork total.
//!
//! [`SourceProfile`] is the human-facing resolution of a raw offset-keyed
//! [`Profile`] against the parsed unit: rows keyed by (function, line)
//! with the source text attached, renderable as an annotated hotspot table
//! (`--timings`-style) or machine JSON (`--profile-out`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};
use telemetry::names;

/// One exploration counter: a field of [`SiteCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Statements interpreted.
    Steps,
    /// Two-sided state forks.
    Forks,
    /// Branch sides pruned as infeasible.
    Infeasible,
    /// Loop widenings applied.
    Widenings,
    /// Feasibility probes answered by the memoized probe set.
    CacheHits,
    /// Feasibility probes computed fresh.
    CacheMisses,
    /// Branch-condition evaluations on a secret-tainted condition.
    SecretBranches,
    /// Branch sides refuted by the Tier-1 interval/congruence domain.
    Tier1Refuted,
    /// Branch sides refuted by the Tier-2 SAT-lite solver.
    Tier2Refuted,
    /// Tier-2 probes that exhausted their deterministic budget.
    Tier2Unknown,
    /// Inlined calls whose results merged into one state at the return.
    Merges,
}

impl Counter {
    /// Every counter, in [`SiteCounters`] declaration order (the order of
    /// the hotspot-table columns).
    pub const ALL: [Counter; 11] = [
        Counter::Steps,
        Counter::Forks,
        Counter::Infeasible,
        Counter::Widenings,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::SecretBranches,
        Counter::Tier1Refuted,
        Counter::Tier2Refuted,
        Counter::Tier2Unknown,
        Counter::Merges,
    ];

    /// The [`SiteCounters`] field name, also the wave-span field name.
    pub fn name(self) -> &'static str {
        self.spec().0
    }

    /// The hotspot-table column header.
    pub fn column(self) -> &'static str {
        self.spec().1
    }

    /// The telemetry counter the per-wave delta is added to.
    pub fn metric(self) -> &'static str {
        self.spec().2
    }

    fn spec(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Counter::Steps => ("steps", "steps", names::ENGINE_STEPS),
            Counter::Forks => ("forks", "forks", names::ENGINE_FORKS),
            Counter::Infeasible => ("infeasible", "infeas", names::ENGINE_INFEASIBLE),
            Counter::Widenings => ("widenings", "widen", names::ENGINE_WIDENINGS),
            Counter::CacheHits => ("cache_hits", "hits", names::ENGINE_CACHE_HITS),
            Counter::CacheMisses => ("cache_misses", "miss", names::ENGINE_CACHE_MISSES),
            Counter::SecretBranches => ("secret_branches", "secret", names::ENGINE_SECRET_BRANCHES),
            Counter::Tier1Refuted => ("tier1_refuted", "t1ref", names::ENGINE_TIER1_REFUTED),
            Counter::Tier2Refuted => ("tier2_refuted", "t2ref", names::ENGINE_TIER2_REFUTED),
            Counter::Tier2Unknown => ("tier2_unknown", "t2unk", names::ENGINE_TIER2_UNKNOWN),
            Counter::Merges => ("merges", "merge", names::ENGINE_MERGES),
        }
    }
}

/// Exploration costs attributed to one source location.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteCounters {
    /// Statements interpreted whose statement span starts here.
    pub steps: u64,
    /// Two-sided state forks performed at this branch/loop condition.
    pub forks: u64,
    /// Branch sides pruned as infeasible here.
    pub infeasible: u64,
    /// Loop widenings applied to the loop headed here.
    pub widenings: u64,
    /// Feasibility probes answered by the memoized probe set (first-seen
    /// classification in canonical merge order — scheduling-invariant).
    pub cache_hits: u64,
    /// Feasibility probes computed fresh here.
    pub cache_misses: u64,
    /// Branch-condition evaluations whose condition carried secret taint.
    pub secret_branches: u64,
    /// Branch sides refuted here by the Tier-1 interval/congruence domain
    /// (always 0 in syntactic feasibility mode; `serde(default)` keeps
    /// pre-tier profiles loadable).
    #[serde(default)]
    pub tier1_refuted: u64,
    /// Branch sides refuted here by the Tier-2 SAT-lite solver.
    #[serde(default)]
    pub tier2_refuted: u64,
    /// Tier-2 probes here that exhausted their deterministic budget.
    #[serde(default)]
    pub tier2_unknown: u64,
    /// Calls made here whose results merged at the callee's return.
    #[serde(default)]
    pub merges: u64,
}

impl SiteCounters {
    /// The value of one counter.
    pub fn get(mut self, counter: Counter) -> u64 {
        *self.slot(counter)
    }

    fn slot(&mut self, counter: Counter) -> &mut u64 {
        match counter {
            Counter::Steps => &mut self.steps,
            Counter::Forks => &mut self.forks,
            Counter::Infeasible => &mut self.infeasible,
            Counter::Widenings => &mut self.widenings,
            Counter::CacheHits => &mut self.cache_hits,
            Counter::CacheMisses => &mut self.cache_misses,
            Counter::SecretBranches => &mut self.secret_branches,
            Counter::Tier1Refuted => &mut self.tier1_refuted,
            Counter::Tier2Refuted => &mut self.tier2_refuted,
            Counter::Tier2Unknown => &mut self.tier2_unknown,
            Counter::Merges => &mut self.merges,
        }
    }

    /// Adds every counter of `other` into `self`.
    pub fn absorb(&mut self, other: &SiteCounters) {
        for counter in Counter::ALL {
            *self.slot(counter) += other.get(counter);
        }
    }

    /// What each counter gained since the `earlier` reading of the same
    /// running total.
    pub fn since(mut self, earlier: &SiteCounters) -> SiteCounters {
        for counter in Counter::ALL {
            *self.slot(counter) -= earlier.get(counter);
        }
        self
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == SiteCounters::default()
    }
}

impl<'a> std::iter::Sum<&'a SiteCounters> for SiteCounters {
    fn sum<I: Iterator<Item = &'a SiteCounters>>(iter: I) -> SiteCounters {
        iter.fold(SiteCounters::default(), |mut total, counters| {
            total.absorb(counters);
            total
        })
    }
}

/// The raw exploration profile: source byte offset (span start of the
/// statement / condition) → attributed counters. Offset-keyed so the hot
/// loop never resolves lines; [`SourceProfile::resolve`] does that once,
/// after exploration. `BTreeMap` keeps serialization and iteration order
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Profile {
    /// Per-site counters, keyed by span-start byte offset.
    sites: BTreeMap<u64, SiteCounters>,
    /// The running sum of `sites`, kept by [`Profile::bump`] and
    /// [`Profile::absorb`] so [`Profile::totals`] costs nothing; rebuilt
    /// from `sites` on deserialization.
    #[serde(skip)]
    total: SiteCounters,
}

/// The serialized shape of a [`Profile`]: its sites alone.
#[derive(Deserialize)]
struct Sites {
    sites: BTreeMap<u64, SiteCounters>,
}

impl<'de> Deserialize<'de> for Profile {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let Sites { sites } = Sites::deserialize(deserializer)?;
        let total = sites.values().sum();
        Ok(Profile { sites, total })
    }
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Adds `by` to `counter` at the site at byte offset `at`. This is the
    /// only increment of an exploration counter; the site is recorded even
    /// when `by` is zero.
    pub fn bump(&mut self, at: usize, counter: Counter, by: u64) {
        *self.sites.entry(at as u64).or_default().slot(counter) += by;
        *self.total.slot(counter) += by;
    }

    /// Merges every site of `other` into `self` (the canonical-order wave
    /// merge).
    pub fn absorb(&mut self, other: &Profile) {
        for (offset, counters) in &other.sites {
            self.sites.entry(*offset).or_default().absorb(counters);
        }
        self.total.absorb(&other.total);
    }

    /// True when no site recorded anything.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Sum of all per-site counters: the run's exploration totals.
    pub fn totals(&self) -> SiteCounters {
        self.total
    }
}

/// One resolved hotspot row: a raw profile site located in the source.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRow {
    /// Enclosing function name (`?` when the offset falls outside every
    /// function span — e.g. a synthetic span).
    pub function: String,
    /// 1-based source line.
    pub line: u64,
    /// The source line's text, trimmed.
    pub text: String,
    /// The attributed counters (all sites on the line, summed).
    pub counters: SiteCounters,
}

/// A [`Profile`] resolved against the analyzed unit: rows keyed by
/// (function, line), in source order. This is what `Report::profile`
/// carries and what `--profile-out` serializes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceProfile {
    /// Resolved rows in (line) order.
    pub rows: Vec<ProfileRow>,
}

impl SourceProfile {
    /// Resolves a raw offset-keyed profile against the unit's function
    /// spans and the source text. Sites on the same line merge into one
    /// row; rows come out in line order.
    pub fn resolve(profile: &Profile, unit: &minic::ast::TranslationUnit, source: &str) -> Self {
        // Function extents, for enclosing-function lookup. `Function::span`
        // covers only the signature, so stretch each extent to the end of
        // the last body statement.
        let mut functions: Vec<(usize, usize, &str)> = Vec::new();
        for item in &unit.items {
            if let minic::ast::Item::Function(func) = item {
                let end = func
                    .body
                    .iter()
                    .flatten()
                    .map(|stmt| stmt.span.end)
                    .max()
                    .unwrap_or(func.span.end)
                    .max(func.span.end);
                functions.push((func.span.start, end, func.name.as_str()));
            }
        }
        let lines: Vec<&str> = source.lines().collect();
        let mut by_line: BTreeMap<u64, (String, SiteCounters)> = BTreeMap::new();
        for (&offset, counters) in &profile.sites {
            let at = offset as usize;
            let line = minic::Span::point(at.min(source.len()))
                .line_col(source)
                .line as u64;
            let function = functions
                .iter()
                .find(|(start, end, _)| *start <= at && at < *end)
                .map_or("?", |(_, _, name)| name)
                .to_string();
            let entry = by_line
                .entry(line)
                .or_insert((function, SiteCounters::default()));
            entry.1.absorb(counters);
        }
        let rows = by_line
            .into_iter()
            .map(|(line, (function, counters))| ProfileRow {
                function,
                line,
                text: lines
                    .get((line as usize).saturating_sub(1))
                    .map_or("", |text| text.trim())
                    .to_string(),
                counters,
            })
            .collect();
        SourceProfile { rows }
    }

    /// True when no row recorded anything.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of all rows' counters (equal to the raw profile's totals).
    pub fn totals(&self) -> SiteCounters {
        self.rows.iter().map(|row| &row.counters).sum()
    }

    /// Total steps across all rows.
    pub fn total_steps(&self) -> u64 {
        self.totals().steps
    }

    /// The row whose counters dominate on `pick` (e.g. most forks).
    pub fn hottest_by(&self, pick: impl Fn(&SiteCounters) -> u64) -> Option<&ProfileRow> {
        self.rows.iter().max_by_key(|row| pick(&row.counters))
    }

    /// Renders the annotated-source hotspot table (the `--timings`-style
    /// human view): one row per line that cost anything, one column per
    /// [`Counter`], source text on the right.
    pub fn render_table(&self, function: &str) -> String {
        fn line(out: &mut String, label: &str, cell: impl Fn(Counter) -> String, text: &str) {
            let _ = write!(out, "{label:>5}");
            for counter in Counter::ALL {
                let width = if counter == Counter::Steps { 8 } else { 6 };
                let _ = write!(out, " {:>width$}", cell(counter));
            }
            let _ = writeln!(out, "  {text}");
        }
        let mut out = String::new();
        let _ = writeln!(out, "── exploration profile: {function} ─────────────");
        line(&mut out, "line", |c| c.column().to_string(), "source");
        for row in &self.rows {
            let counters = row.counters;
            line(
                &mut out,
                &row.line.to_string(),
                |c| counters.get(c).to_string(),
                &row.text,
            );
        }
        let totals = self.totals();
        line(&mut out, "", |c| totals.get(c).to_string(), "(total)");
        out
    }

    /// Machine JSON for `--profile-out`: `{"function": ..., "rows": [...]}`
    /// with deterministic row order.
    ///
    /// # Panics
    ///
    /// Never — the structure is always serializable.
    pub fn to_json(&self, function: &str) -> String {
        let rows = serde_json::to_value(&self.rows).expect("profile rows serialize");
        let value = serde::Value::Object(vec![
            (
                "function".to_string(),
                serde::Value::String(function.to_string()),
            ),
            ("rows".to_string(), rows),
        ]);
        serde_json::to_string_pretty(&value).expect("profile serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_merges_sites() {
        let mut a = Profile::new();
        a.bump(10, Counter::Steps, 3);
        a.bump(10, Counter::Forks, 1);
        let mut b = Profile::new();
        b.bump(10, Counter::Steps, 2);
        b.bump(99, Counter::Widenings, 1);
        a.absorb(&b);
        assert_eq!(a.sites[&10].steps, 5);
        assert_eq!(a.sites[&10].forks, 1);
        assert_eq!(a.sites[&99].widenings, 1);
        let totals = a.totals();
        assert_eq!(totals.steps, 5);
        assert_eq!(totals.widenings, 1);
    }

    #[test]
    fn profile_round_trips_and_defaults() {
        let mut profile = Profile::new();
        profile.bump(42, Counter::CacheHits, 7);
        let json = serde_json::to_string(&profile).expect("serializes");
        assert_eq!(
            json,
            r#"{"sites":{"42":{"steps":0,"forks":0,"infeasible":0,"widenings":0,"cache_hits":7,"cache_misses":0,"secret_branches":0,"tier1_refuted":0,"tier2_refuted":0,"tier2_unknown":0,"merges":0}}}"#
        );
        let back: Profile = serde_json::from_str(&json).expect("parses");
        assert_eq!(profile, back);
        assert_eq!(back.totals().cache_hits, 7);
        assert!(Profile::new().is_empty());
        assert!(SiteCounters::default().is_empty());
    }

    #[test]
    fn resolve_groups_by_line_and_function() {
        let source = "int f(int x) {\n    int y = x + 1;\n    return y;\n}\n";
        let unit = minic::parse(source).expect("parses");
        let mut profile = Profile::new();
        // Offset of `int y` statement (line 2) and `return` (line 3).
        let y_at = source.find("int y").expect("present");
        let ret_at = source.find("return").expect("present");
        profile.bump(y_at, Counter::Steps, 4);
        profile.bump(ret_at, Counter::Steps, 2);
        profile.bump(ret_at, Counter::Forks, 1);
        let resolved = SourceProfile::resolve(&profile, &unit, source);
        assert_eq!(resolved.rows.len(), 2);
        assert_eq!(resolved.rows[0].line, 2);
        assert_eq!(resolved.rows[0].function, "f");
        assert_eq!(resolved.rows[0].text, "int y = x + 1;");
        assert_eq!(resolved.rows[1].counters.forks, 1);
        assert_eq!(resolved.total_steps(), 6);
        assert_eq!(resolved.hottest_by(|c| c.steps).map(|r| r.line), Some(2));
        let table = resolved.render_table("f");
        assert!(table.contains("int y = x + 1;"), "{table}");
        assert!(table.contains("(total)"), "{table}");
        let json = resolved.to_json("f");
        assert!(json.contains("\"function\""), "{json}");
        assert!(json.contains("\"rows\""), "{json}");
    }
}
