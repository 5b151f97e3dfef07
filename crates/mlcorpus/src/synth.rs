//! Seeded generator of synthetic Mini-C enclave modules (soundness
//! fuzzing, ROADMAP item 3).
//!
//! [`generate`] derives a whole enclave — deep helper call chains, nested
//! constant-bound loops, pointer aliasing of the `[out]` buffer, public
//! branching, an auxiliary ECALL and two OCALLs — deterministically from a
//! 64-bit seed: the same seed always produces the byte-identical module.
//! A seeded leak-taxonomy injector then splices zero or more defects from
//! [`LeakSite`] into the module and records a ground-truth
//! [`Expectation`] for each, so the differential oracle
//! (`privacyscope::oracle`) can tell *missed leaks* from *false alarms*
//! without any hand-written per-module knowledge.
//!
//! Design constraints that keep the ground truth trustworthy:
//!
//! * **Benign observables are single-valued per channel.** The analyzer's
//!   implicit check fires when one secret-guarded π yields two distinct
//!   observable values on a channel, so generated benign code never lets
//!   an observable depend on a branch: public `if`s only touch a dead
//!   `scratch` local, and every `out[...]`/OCALL/return value is the same
//!   expression on every path. A clean generated module is therefore
//!   provably clean under nonreversibility.
//! * **Secret mixing is always multi-source.** Benign code folds *all*
//!   secret bytes into one accumulator (⊤ taint), which nonreversibility
//!   deliberately accepts — exercising the property's weaker-than-
//!   noninterference core.
//! * **Integer-only arithmetic, no division, no `rand()`.** Every
//!   generated expression has identical semantics in the symbolic engine
//!   (`symexec`), the pure evaluator (`symexec::concrete`) and the SGX
//!   simulator (`sgx_sim::interp`), so cross-interpreter drift means a
//!   real bug, not a modelling gap.
//! * **Bounded path count.** Branch conditions are either concrete (loop
//!   counters) or on public scalars; at most a handful fork, so the
//!   analyzer exhausts the path space under small budgets and a clean
//!   verdict is never a budget artifact.
//! * **Some modules are deliberately branch-heavy with contradictory
//!   guards.** Roughly a quarter of seeds splice in a contradiction
//!   cluster: nested comparisons over the public scalars whose inner
//!   guards look unsatisfiable (affine-multiplication, residue, and
//!   variable-order contradictions). The residue and variable-order
//!   guards are concretely unsatisfiable; the affine-multiplication one is
//!   not, because `p * m` wraps for `p` near `i64::MAX / m`. The cluster
//!   only touches the dead `scratch` local, so ground truth is unaffected
//!   — but the feasibility pipeline measurably diverges from the
//!   syntactic reference on these modules, which is what the
//!   differential soundness gate and the `feasibility` benchmark
//!   exercise. When a cluster is present the plain public branches are
//!   capped so the syntactic path count still fits the default soundfuzz
//!   budget. [`generate_branch_heavy`] forces the shape for benchmarking.
//! * **Some leaks hide behind wraparound** ([`generate_wraparound`]), where
//!   a tier that reasons over ideal integers would prune a real leak.

use crate::expect::{Expectation, LeakKind};
use crate::CorpusError;
use std::fmt;

/// Number of secret bytes every synthetic enclave receives.
pub const SECRET_LEN: usize = 8;
/// Number of `[out]` slots; benign code writes `0..=3`, leaks `4..=7`.
pub const OUT_LEN: usize = 8;
/// The entry ECALL every synthetic module exposes.
pub const ENTRY: &str = "synth_main";

/// One injectable defect from the leak taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakSite {
    /// `out[j] = secret[i] + c;` — explicit leak through the out buffer.
    ExplicitOut,
    /// `ocall_sink(secret[i] * m);` — explicit leak through an OCALL.
    ExplicitOcall,
    /// `return secret[i] * 3 + 7;` — explicit leak through the return.
    ExplicitReturn,
    /// Secret-guarded OCALL argument — implicit leak through an OCALL.
    ImplicitOcall,
    /// Secret-guarded early return — implicit leak through the return.
    ImplicitReturn,
    /// `out[j] = buf[k]`, with two single-source slots in `buf` and `k`
    /// from a helper branching on two secrets, whose paths merge at its
    /// return — explicit leaks of both slots' secrets.
    MergedIndexRead,
    /// `buf[k] = secret[i]; out[j] = buf[1] + secret[h]`, `k` as above —
    /// an explicit leak of `secret[h]` on the arm that leaves `buf[1]`
    /// public.
    MergedIndexWrite,
    /// A helper branching on one secret returns one of two codes into
    /// `ocall_sink` — an implicit leak; the helper's paths must not merge.
    /// No benign code calls `ocall_sink`, so a merged observation would
    /// leave `hm` one value and miss the leak.
    CalleeSecretBranch,
    /// A helper branching on a public scalar, its result sent by
    /// `ocall_sink` under a secret guard — an implicit leak; the helper's
    /// paths must not merge.
    CalleePublicBranch,
}

impl LeakSite {
    /// All sites, in injection order.
    pub const ALL: [LeakSite; 5] = [
        LeakSite::ExplicitOut,
        LeakSite::ExplicitOcall,
        LeakSite::ExplicitReturn,
        LeakSite::ImplicitOcall,
        LeakSite::ImplicitReturn,
    ];

    /// Whether the injected flow is explicit or implicit.
    #[must_use]
    pub fn kind(self) -> LeakKind {
        match self {
            LeakSite::ExplicitOut | LeakSite::ExplicitOcall | LeakSite::ExplicitReturn => {
                LeakKind::Explicit
            }
            LeakSite::MergedIndexRead | LeakSite::MergedIndexWrite => LeakKind::Explicit,
            LeakSite::ImplicitOcall
            | LeakSite::ImplicitReturn
            | LeakSite::CalleeSecretBranch
            | LeakSite::CalleePublicBranch => LeakKind::Implicit,
        }
    }

    /// Whether the leak declassifies through the return value.
    fn uses_return(self) -> bool {
        matches!(self, LeakSite::ExplicitReturn | LeakSite::ImplicitReturn)
    }

    fn id(self) -> &'static str {
        match self {
            LeakSite::ExplicitOut => "synth-explicit-out",
            LeakSite::ExplicitOcall => "synth-explicit-ocall",
            LeakSite::ExplicitReturn => "synth-explicit-return",
            LeakSite::ImplicitOcall => "synth-implicit-ocall",
            LeakSite::ImplicitReturn => "synth-implicit-return",
            LeakSite::MergedIndexRead => "synth-merged-index-read",
            LeakSite::MergedIndexWrite => "synth-merged-index-write",
            LeakSite::CalleeSecretBranch => "synth-callee-secret-branch",
            LeakSite::CalleePublicBranch => "synth-callee-public-branch",
        }
    }

    /// Whether the leak calls one of the callee-branch helpers.
    fn uses_callee_helpers(self) -> bool {
        matches!(
            self,
            LeakSite::MergedIndexRead
                | LeakSite::MergedIndexWrite
                | LeakSite::CalleeSecretBranch
                | LeakSite::CalleePublicBranch
        )
    }
}

/// The helpers the callee-branch leak sites call: `cb_pick` branches on a
/// sum of two secrets (π is ⊤ at its return, so its paths merge),
/// `cb_above` on one secret and `cb_public` on a public scalar (neither
/// merges). The squares keep those two conditions out of the feasibility
/// constraints, so only the π rule keeps their arms apart.
const CALLEE_HELPERS: &str = "int cb_pick(int a, int b, int t) {
    if (a + b > t) {
        return 1;
    }
    return 0;
}

int cb_above(int v, int t, int hi, int lo) {
    if (v * v > t) {
        return hi;
    }
    return lo;
}

int cb_public(int p, int t, int hi, int lo) {
    if (p * p > t) {
        return hi;
    }
    return lo;
}

";

/// A requested leak plan that cannot be injected coherently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// The same [`LeakSite`] was requested twice.
    DuplicateSite(LeakSite),
    /// Two leaks would share the return channel, so the analyzer could
    /// only ever report one of them — the ground truth would lie.
    ReturnChannelConflict,
    /// More than one implicit leak: after the first secret-guarded fork,
    /// π carries that secret on every subsequent path, so a second
    /// implicit expectation could be masked by multi-source π taint.
    MultipleImplicit,
    /// Both merged-index leaks: they declare the same locals.
    MultipleMergedIndex,
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::DuplicateSite(site) => {
                write!(f, "leak site {site:?} requested more than once")
            }
            SynthError::ReturnChannelConflict => {
                write!(
                    f,
                    "explicit and implicit return leaks are mutually exclusive"
                )
            }
            SynthError::MultipleImplicit => {
                write!(f, "at most one implicit leak can be injected per module")
            }
            SynthError::MultipleMergedIndex => {
                write!(
                    f,
                    "at most one merged-index leak can be injected per module"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// A generated synthetic enclave module with its ground-truth labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthModule {
    /// `Synth-<seed as 16 hex digits>`.
    pub name: String,
    /// Mini-C source, a pure function of the seed and leak plan.
    pub source: String,
    /// The EDL interface (fixed shape, shared by all synthetic modules).
    pub edl: String,
    /// The entry ECALL ([`ENTRY`]).
    pub entry: &'static str,
    /// The seed the module was generated from.
    pub seed: u64,
    /// Ground truth: exactly the findings the analyzer must produce.
    pub expectations: Vec<Expectation>,
}

impl SynthModule {
    /// Checks that the generated source and EDL parse.
    ///
    /// # Errors
    ///
    /// Returns the first [`CorpusError`] found — a generator bug.
    pub fn validate(&self) -> Result<(), CorpusError> {
        minic::parse(&self.source).map_err(|error| CorpusError::Parse {
            module: self.name.clone(),
            error,
        })?;
        edl::parse_edl(&self.edl).map_err(|error| CorpusError::Edl {
            module: self.name.clone(),
            error,
        })?;
        Ok(())
    }
}

/// SplitMix64 — tiny, seedable, and stable across platforms; the corpus
/// must not depend on any external RNG's stream staying fixed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough value in `0..n` (n > 0).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A small positive constant for generated arithmetic.
    fn small(&mut self) -> i64 {
        1 + self.below(9) as i64
    }
}

/// Generates the module for `seed`, leaks chosen by the seed itself:
/// roughly a third of seeds are clean, the rest carry one or two defects.
#[must_use]
pub fn generate(seed: u64) -> SynthModule {
    let mut rng = SplitMix64(seed ^ 0xa076_1d64_78bd_642f);
    let leak_count = rng.below(3) as usize;
    // Deterministic Fisher-Yates over the taxonomy, then take the first
    // `leak_count` sites that keep the plan coherent.
    let mut pool = LeakSite::ALL;
    for i in (1..pool.len()).rev() {
        pool.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut plan: Vec<LeakSite> = Vec::new();
    for site in pool {
        if plan.len() == leak_count {
            break;
        }
        let return_clash = site.uses_return() && plan.iter().any(|p| p.uses_return());
        let implicit_clash = site.kind() == LeakKind::Implicit
            && plan.iter().any(|p| p.kind() == LeakKind::Implicit);
        if !return_clash && !implicit_clash {
            plan.push(site);
        }
    }
    plan.sort();
    match generate_with_leaks(seed, &plan) {
        Ok(module) => module,
        // The plan above satisfies every constraint by construction.
        Err(_) => unreachable!("seed-derived leak plan is always coherent"),
    }
}

/// Generates the module for `seed` with an explicit leak plan (used by the
/// oracle's acceptance tests to plant a known defect).
///
/// # Errors
///
/// Returns a [`SynthError`] when the plan is incoherent (duplicate site,
/// two return-channel leaks, or more than one implicit leak).
pub fn generate_with_leaks(seed: u64, leaks: &[LeakSite]) -> Result<SynthModule, SynthError> {
    generate_module(seed, leaks, None, None)
}

/// Generates a clean module whose entry is dominated by `clusters`
/// contradiction clusters (see the module docs): every cluster multiplies
/// the *syntactic* path count by 36, and the feasibility pipeline prunes
/// the residue and variable-order contradictions, so the tiers diverge by
/// a seed-stable factor.
/// This is the fixed corpus shape behind the `feasibility` benchmark and
/// the tier property tests.
#[must_use]
pub fn generate_branch_heavy(seed: u64, clusters: usize) -> SynthModule {
    match generate_module(seed, &[], Some(clusters), None) {
        Ok(module) => module,
        // An empty leak plan satisfies every coherence constraint.
        Err(_) => unreachable!("empty leak plan is always coherent"),
    }
}

/// Generates a module whose leaks sit behind branching helpers (see the
/// callee-branch [`LeakSite`]s): `seed % 2` picks the implicit leak, a
/// helper branching on one secret ([`LeakSite::CalleeSecretBranch`]) or
/// on a public scalar ([`LeakSite::CalleePublicBranch`]), neither of which
/// may merge; `seed / 2 % 2` picks the explicit one behind a helper whose
/// paths merge, read through ([`LeakSite::MergedIndexRead`]) or written
/// through ([`LeakSite::MergedIndexWrite`]) the merged index. The rest of
/// the module is what [`generate_with_leaks`] builds for `seed`, without
/// a contradiction cluster.
#[must_use]
pub fn generate_callee_branch(seed: u64) -> SynthModule {
    let implicit = if seed.is_multiple_of(2) {
        LeakSite::CalleeSecretBranch
    } else {
        LeakSite::CalleePublicBranch
    };
    let explicit = if (seed / 2).is_multiple_of(2) {
        LeakSite::MergedIndexRead
    } else {
        LeakSite::MergedIndexWrite
    };
    match generate_module(seed, &[explicit, implicit], Some(0), None) {
        Ok(module) => module,
        // One explicit and one implicit leak satisfy every constraint.
        Err(_) => unreachable!("a callee-branch plan is always coherent"),
    }
}

/// `guards`, when given, is a pair of conditions every injected
/// prologue/epilogue leak is nested under.
fn generate_module(
    seed: u64,
    leaks: &[LeakSite],
    forced_clusters: Option<usize>,
    guards: Option<(String, String)>,
) -> Result<SynthModule, SynthError> {
    for (i, site) in leaks.iter().enumerate() {
        if leaks[..i].contains(site) {
            return Err(SynthError::DuplicateSite(*site));
        }
    }
    if leaks.iter().filter(|s| s.uses_return()).count() > 1 {
        return Err(SynthError::ReturnChannelConflict);
    }
    if leaks
        .iter()
        .filter(|s| s.kind() == LeakKind::Implicit)
        .count()
        > 1
    {
        return Err(SynthError::MultipleImplicit);
    }
    if leaks.contains(&LeakSite::MergedIndexRead) && leaks.contains(&LeakSite::MergedIndexWrite) {
        return Err(SynthError::MultipleMergedIndex);
    }

    let mut rng = SplitMix64(seed);
    let name = format!("Synth-{seed:016x}");

    // Shape parameters.
    let helpers = 3 + rng.below(4) as usize; // 3..=6: call-chain depth
    let wants_cluster = rng.below(4) == 0; // every ~4th module is branch-heavy
    let clusters = forced_clusters.unwrap_or(usize::from(wants_cluster));
    // A cluster multiplies the syntactic path count by 36, so cap the
    // plain public branches to keep the module inside small path budgets.
    let pub_branches = if clusters > 0 {
        1
    } else {
        1 + rng.below(3) as usize // 1..=3: forks on public data
    };
    let pad_loops = 1 + rng.below(2) as usize; // extra benign accumulation

    // Distinct secret indices, one per planned leak.
    let mut secret_indices: Vec<usize> = (0..SECRET_LEN).collect();
    for i in (1..secret_indices.len()).rev() {
        secret_indices.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let guarded = |payload: &str| match &guards {
        Some((outer, inner)) => format!(
            "    if ({outer}) {{\n        if ({inner}) {{\n        {payload}        }}\n    }}\n"
        ),
        None => payload.to_string(),
    };
    let mut expectations = Vec::new();
    let mut prologue = String::new();
    let mut epilogue = String::new();
    let mut leak_return = String::new();
    // Each leak takes the next unused secret byte; a merged-index leak
    // takes three more (the helper's two operands and a second slot). A
    // coherent plan needs at most all eight.
    let mut unused = secret_indices.into_iter();
    let mut next_secret = move || {
        unused
            .next()
            .expect("a coherent leak plan uses at most SECRET_LEN secret bytes")
    };
    for site in leaks {
        let idx = next_secret();
        let secret = format!("secret[{idx}]");
        let (channel, payload) = match site {
            LeakSite::ExplicitOut => {
                let slot = 4 + rng.below((OUT_LEN - 4) as u64) as usize;
                let c = rng.small();
                let payload = format!("    out[{slot}] = secret[{idx}] + {c};\n");
                epilogue.push_str(&guarded(&payload));
                (format!("out[{slot}]"), payload)
            }
            LeakSite::ExplicitOcall => {
                let m = 2 * rng.small() + 1;
                let payload = format!("    ocall_sink(secret[{idx}] * {m});\n");
                prologue.push_str(&guarded(&payload));
                ("argument 0 of `ocall_sink`".to_string(), payload)
            }
            LeakSite::ExplicitReturn => {
                let payload = format!("    return secret[{idx}] * 3 + 7;\n");
                leak_return = payload.clone();
                ("return value".to_string(), payload)
            }
            LeakSite::ImplicitOcall => {
                let t = 40 + rng.below(60) as i64;
                let a = rng.small();
                let b = a + rng.small();
                let payload = format!(
                    "    if (secret[{idx}] > {t}) {{ ocall_progress({a}); }} else {{ ocall_progress({b}); }}\n"
                );
                prologue.push_str(&guarded(&payload));
                ("argument 0 of `ocall_progress`".to_string(), payload)
            }
            LeakSite::ImplicitReturn => {
                let t = 40 + rng.below(60) as i64;
                let r = 900 + rng.below(100) as i64;
                let payload = format!("    if (secret[{idx}] > {t}) {{ return {r}; }}\n");
                prologue.push_str(&guarded(&payload));
                ("return value".to_string(), payload)
            }
            LeakSite::MergedIndexRead | LeakSite::MergedIndexWrite => {
                let (a, b, other) = (next_secret(), next_secret(), next_secret());
                let slot = 4 + rng.below((OUT_LEN - 4) as u64) as usize;
                let t = rng.below(100) as i64 - 50;
                let pick = format!(
                    "    int cb_buf[2];\n    cb_buf[0] = 0;\n    cb_buf[1] = 0;\n    int cb_k = cb_pick(secret[{a}], secret[{b}], {t});\n"
                );
                let payload = if *site == LeakSite::MergedIndexRead {
                    format!(
                        "{pick}    cb_buf[0] = secret[{other}];\n    cb_buf[1] = secret[{idx}];\n    out[{slot}] = cb_buf[cb_k];\n"
                    )
                } else {
                    format!(
                        "{pick}    cb_buf[cb_k] = secret[{other}];\n    out[{slot}] = cb_buf[1] + secret[{idx}];\n"
                    )
                };
                if *site == LeakSite::MergedIndexRead {
                    // Both slots' secrets are revealed, one per arm.
                    expectations.push(Expectation {
                        id: format!("{}-slot0", site.id()),
                        kind: site.kind(),
                        secret: format!("secret[{other}]"),
                        channel: format!("out[{slot}]"),
                        payload: payload.trim().to_string(),
                    });
                }
                epilogue.push_str(&guarded(&payload));
                (format!("out[{slot}]"), payload)
            }
            LeakSite::CalleeSecretBranch => {
                let t = 40 + rng.below(60) as i64;
                let lo = rng.small();
                let hi = lo + rng.small();
                let payload =
                    format!("    ocall_sink(cb_above(secret[{idx}], {t}, {hi}, {lo}));\n");
                prologue.push_str(&guarded(&payload));
                ("argument 0 of `ocall_sink`".to_string(), payload)
            }
            LeakSite::CalleePublicBranch => {
                let which = if rng.below(2) == 0 { "pub0" } else { "pub1" };
                let t = rng.below(100) as i64;
                let lo = rng.small();
                let hi = lo + rng.small();
                let guard = 40 + rng.below(60) as i64;
                // The secret is read before the helper forks, so every
                // path observes the same source.
                let payload = format!(
                    "    int cb_s = secret[{idx}];\n    int cb_r = cb_public({which}, {t}, {hi}, {lo});\n    if (cb_s > {guard}) {{ ocall_sink(cb_r); }}\n"
                );
                prologue.push_str(&guarded(&payload));
                ("argument 0 of `ocall_sink`".to_string(), payload)
            }
        };
        expectations.push(Expectation {
            id: site.id().to_string(),
            kind: site.kind(),
            secret,
            channel,
            payload: payload.trim().to_string(),
        });
    }

    let mut src = String::new();
    src.push_str(&format!(
        "/* {name}: generated enclave module (mlcorpus::synth). */\n"
    ));
    let bias = rng.small();
    src.push_str(&format!("int GLOBAL_BIAS = {bias};\n\n"));
    src.push_str("void ocall_progress(int step);\nvoid ocall_sink(int value);\n\n");

    // Helper chain: helper<k> calls helper<k-1>, so the entry's call into
    // the top helper exercises an inline stack `helpers` deep.
    for k in 0..helpers {
        let c1 = rng.small();
        let c2 = rng.small();
        src.push_str(&format!("int helper{k}(int a, int b) {{\n"));
        src.push_str(&format!("    int acc = a * {c1} + b;\n"));
        if rng.below(2) == 0 {
            let bound = 2 + rng.below(4);
            src.push_str("    int i = 0;\n");
            src.push_str(&format!(
                "    for (i = 0; i < {bound}; i = i + 1) {{ acc = acc + (a ^ i); }}\n"
            ));
        }
        if k > 0 {
            let lower = rng.below(k as u64);
            src.push_str(&format!("    acc = acc + helper{lower}(acc, b + {c2});\n"));
        } else {
            src.push_str(&format!("    acc = acc + {c2};\n"));
        }
        src.push_str("    return acc;\n}\n\n");
    }

    if leaks.iter().any(|site| site.uses_callee_helpers()) {
        src.push_str(CALLEE_HELPERS);
    }

    // Aliased write into the out buffer through a pointer parameter.
    src.push_str(
        "int mix_into(int *buf, int idx, int v) {\n    buf[idx] = v;\n    return buf[idx] + 1;\n}\n\n",
    );

    // Secondary ECALL: same helper chain, no secrets.
    let aux_c = rng.small();
    src.push_str(&format!(
        "int synth_aux(int x) {{\n    return helper{top}(x, {aux_c}) & 1023;\n}}\n\n",
        top = helpers - 1
    ));

    src.push_str(&format!(
        "int {ENTRY}(char *secret, int pub0, int pub1, int *out) {{\n"
    ));
    src.push_str(&prologue);
    let c = rng.small();
    src.push_str(&format!("    int pacc = pub0 * {c} + pub1;\n"));
    src.push_str("    int sacc = 0;\n    int scratch = 0;\n    int i = 0;\n    int j = 0;\n");
    src.push_str("    int *view = out;\n");
    // Mix every secret byte: sacc ends up multi-source (⊤), which
    // nonreversibility accepts on any channel.
    src.push_str(&format!(
        "    for (i = 0; i < {SECRET_LEN}; i = i + 1) {{ sacc = sacc + secret[i]; }}\n"
    ));
    for _ in 0..pad_loops {
        let b1 = 2 + rng.below(3);
        let b2 = 2 + rng.below(3);
        let c = rng.small();
        src.push_str(&format!(
            "    for (i = 0; i < {b1}; i = i + 1) {{\n        for (j = 0; j < {b2}; j = j + 1) {{ scratch = scratch + i * j + {c}; }}\n    }}\n"
        ));
    }
    src.push_str(&format!(
        "    pacc = pacc + helper{top}(pacc, pub1 + {k});\n",
        top = helpers - 1,
        k = rng.small()
    ));
    // Public branches fork paths but only touch `scratch`, so every
    // observable keeps a single value per channel (see module docs).
    for _ in 0..pub_branches {
        let which = if rng.below(2) == 0 { "pub0" } else { "pub1" };
        let t = rng.below(100) as i64;
        let c1 = rng.small();
        let c2 = rng.small();
        src.push_str(&format!(
            "    if ({which} > {t}) {{ scratch = scratch + {c1}; }} else {{ scratch = scratch - {c2}; }}\n"
        ));
    }
    for _ in 0..clusters {
        push_contradiction_cluster(&mut src, &mut rng);
    }
    let c = rng.small();
    src.push_str("    out[0] = pacc;\n");
    src.push_str("    out[1] = sacc;\n");
    src.push_str(&format!(
        "    scratch = scratch + mix_into(out, 2, pacc ^ {c});\n"
    ));
    src.push_str("    out[3] = view[1] + GLOBAL_BIAS;\n");
    src.push_str("    ocall_progress(pacc & 255);\n");
    src.push_str(&epilogue);
    if leak_return.is_empty() {
        src.push_str("    return sacc + GLOBAL_BIAS;\n");
    } else {
        src.push_str(&leak_return);
    }
    src.push_str("}\n");

    let edl = format!(
        "enclave {{\n    trusted {{\n        public int {ENTRY}([in, count={SECRET_LEN}] char *secret,\n                           int pub0, int pub1,\n                           [out, count={OUT_LEN}] int *out);\n        public int synth_aux(int x);\n    }};\n    untrusted {{\n        void ocall_progress(int step);\n        void ocall_sink(int value);\n    }};\n}};\n"
    );

    Ok(SynthModule {
        name,
        source: src,
        edl,
        entry: ENTRY,
        seed,
        expectations,
    })
}

/// Generates a module whose one leak sits behind a guard pair over the
/// public scalars that can only be satisfied together through i64
/// wraparound — each pair is one a tier once refuted by reasoning over
/// ideal integers. `seed % 3` picks the pair:
///
/// * `p - c > k` then `p < 0` (the syntactic tier's offset narrowing;
///   witness `p = i64::MIN`);
/// * `p * m < k` then `p > t` (the interval domain's affine refinement;
///   witness `p = ⌈2⁶³ / m⌉`, where `p * m` wraps to about `i64::MIN`);
/// * `p + c < q` then `q < p` (the solver's difference logic; witness
///   `p = i64::MAX`, `q = 0`).
///
/// `seed / 3 % 2` picks the leak: an explicit `[out]` write or an implicit
/// secret-guarded early return. The rest of the module is what
/// [`generate_with_leaks`] builds for `seed`, without a contradiction
/// cluster.
#[must_use]
pub fn generate_wraparound(seed: u64) -> SynthModule {
    let mut rng = SplitMix64(seed ^ 0x5bd1_e995_a0c3_7f21);
    let (p, q) = if rng.below(2) == 0 {
        ("pub0", "pub1")
    } else {
        ("pub1", "pub0")
    };
    let c = rng.small();
    let guards = match seed % 3 {
        0 => (
            format!("{p} - {c} > {}", rng.below(100)),
            format!("{p} < 0"),
        ),
        1 => (
            format!("{p} * {} < {}", 2 + rng.below(3), rng.below(100)),
            format!("{p} > {}", 100 + rng.below(900)),
        ),
        _ => (format!("{p} + {c} < {q}"), format!("{q} < {p}")),
    };
    let site = if (seed / 3).is_multiple_of(2) {
        LeakSite::ExplicitOut
    } else {
        LeakSite::ImplicitReturn
    };
    match generate_module(seed, &[site], Some(0), Some(guards)) {
        Ok(module) => module,
        // A single leak satisfies every coherence constraint.
        Err(_) => unreachable!("a one-leak plan is always coherent"),
    }
}

/// The module [`generate`] builds for `seed`, with a *late read* at the
/// top of its entry: a public branch chooses `late_r`, and only then is a
/// secret byte, read for the first time, compared to guard
/// `ocall_sink(late_r)`. [`hoist_secret_read`] moves that read above the
/// branch; the two programs are equivalent, so the analyzer must report
/// the same findings for both (the metamorphic campaign in
/// `tests/soundfuzz_campaign.rs`).
///
/// The block is itself an implicit flow in the paper's sense — one secret
/// guards two different observations — and its secret branch puts that
/// secret into π ahead of the code [`generate`] emits, where it can mask
/// an injected implicit leak. So the expectations, kept from
/// [`generate`], describe only that code: compare the twins with each
/// other, not with the expectations.
#[must_use]
pub fn generate_late_read(seed: u64) -> SynthModule {
    let mut module = generate(seed);
    let mut rng = SplitMix64(seed ^ 0x2545_f491_4f6c_dd1d);
    let which = if rng.below(2) == 0 { "pub0" } else { "pub1" };
    let t = rng.below(100) as i64;
    let a = rng.small();
    let b = a + rng.small();
    let k = rng.below(SECRET_LEN as u64);
    let g = 40 + rng.below(60) as i64;
    let header = format!("int {ENTRY}(char *secret, int pub0, int pub1, int *out) {{\n");
    let block = format!(
        "    int late_r = 0;\n    if ({which} > {t}) {{ late_r = {a}; }} else {{ late_r = {b}; }}\n    if (secret[{k}] > {g}) {{ ocall_sink(late_r); }}\n"
    );
    module.source = module
        .source
        .replacen(&header, &format!("{header}{block}"), 1);
    module
}

/// Hoists the late read of a [`generate_late_read`] module above its
/// public branch: `int late_s = secret[k];` moves before the branch and
/// the guard tests `late_s`. Any other module comes back unchanged.
#[must_use]
pub fn hoist_secret_read(module: &SynthModule) -> SynthModule {
    let mut twin = module.clone();
    let Some(guard) = module
        .source
        .lines()
        .find(|line| line.starts_with("    if (secret[") && line.contains("ocall_sink(late_r)"))
    else {
        return twin;
    };
    let read = &guard["    if (".len()..guard.find(" >").unwrap_or(guard.len())];
    let hoisted_guard = guard.replacen(read, "late_s", 1);
    twin.source = module
        .source
        .replacen(
            "    int late_r = 0;\n",
            &format!("    int late_s = {read};\n    int late_r = 0;\n"),
            1,
        )
        .replacen(guard, &hoisted_guard, 1);
    twin
}

/// The twin of a module with callee helpers (see
/// [`generate_callee_branch`]) in which each helper's `if (c) { return a; }
/// return b;` reads `return c ? a : b;`. The two programs are equivalent,
/// so the analyzer must report the same findings for both (the metamorphic
/// campaign in `tests/soundfuzz_campaign.rs`). Any other module comes back
/// unchanged.
#[must_use]
pub fn ternary_twin(module: &SynthModule) -> SynthModule {
    let lines: Vec<&str> = CALLEE_HELPERS.lines().collect();
    let mut helpers = String::new();
    let mut rest = &lines[..];
    while let Some((line, tail)) = rest.split_first() {
        let select = match rest {
            [head, then, "    }", els, ..] => head
                .strip_prefix("    if (")
                .and_then(|cond| cond.strip_suffix(") {"))
                .zip(
                    then.strip_prefix("        return ")
                        .and_then(|a| a.strip_suffix(';')),
                )
                .zip(els.strip_prefix("    return ")),
            _ => None,
        };
        match select {
            Some(((cond, then), els)) => {
                helpers.push_str(&format!("    return {cond} ? {then} : {els}\n"));
                rest = &rest[4..];
            }
            None => {
                helpers.push_str(line);
                helpers.push('\n');
                rest = tail;
            }
        }
    }
    let mut twin = module.clone();
    twin.source = module.source.replacen(CALLEE_HELPERS, &helpers, 1);
    twin
}

/// The twin of a module in which the entry's body moves into a nested
/// block, below an unused `int <name> = 0;` for each of its top-level
/// locals, so every original declaration shadows an outer one. The two
/// programs are equivalent, so the analyzer must report the same findings
/// for both (the metamorphic campaign in `tests/soundfuzz_campaign.rs`).
/// A module without the [`ENTRY`] function comes back unchanged.
#[must_use]
pub fn shadow_twin(module: &SynthModule) -> SynthModule {
    let mut twin = module.clone();
    let header = format!("int {ENTRY}(char *secret, int pub0, int pub1, int *out) {{\n");
    let (Some(start), Ok(unit)) = (module.source.find(&header), minic::parse(&module.source))
    else {
        return twin;
    };
    let body = start + header.len();
    let Some(end) = module.source[body..].find("\n}\n").map(|at| body + at + 1) else {
        return twin;
    };
    let outer: String = unit
        .function(ENTRY)
        .and_then(|entry| entry.body.as_ref())
        .into_iter()
        .flatten()
        .filter_map(|stmt| match &stmt.kind {
            minic::ast::StmtKind::Decl(decl) => Some(format!("    int {} = 0;\n", decl.name)),
            _ => None,
        })
        .collect();
    let source = &module.source;
    twin.source = format!(
        "{}{outer}    {{\n{}    }}\n{}",
        &source[..body],
        &source[body..end],
        &source[end..]
    );
    twin
}

/// Emits one contradiction cluster: three nested guard shapes over the
/// public scalars, each of which forks syntactically but has at least one
/// concretely unsatisfiable side, and each of which only touches the dead
/// `scratch` local so the module stays benign:
///
/// * an affine-multiplication guard — `p > t` followed by
///   `p * m < m·(t+1) − gap`, which ideal integers rule out (`p > t`
///   forces `p * m ≥ m·(t+1)`) but wraparound satisfies: `p * m` wraps
///   negative for `p` near `i64::MAX / m`, so every tier keeps both sides;
/// * a residue contradiction under a positive outer bound — `q > 5`, then
///   `q % 4 == r₁` and `q % 4 == r₂` with `r₁ ≠ r₂`; refuted by the
///   congruence (stride) domain, and the positive bound keeps `%` free of
///   negative-dividend convention drift between interpreters;
/// * a variable-order cycle — `pub0 < pub1` then `pub1 < pub0`; invisible
///   to any non-relational domain, refuted by the SAT-lite solver's
///   difference-logic theory under `--feasibility=full`.
fn push_contradiction_cluster(src: &mut String, rng: &mut SplitMix64) {
    let p = if rng.below(2) == 0 { "pub0" } else { "pub1" };
    let t = 20 + rng.below(40) as i64;
    let m = 2 + rng.below(3) as i64; // 2..=4
    let gap = 1 + rng.below(20) as i64;
    let bound = m * (t + 1) - gap;
    src.push_str(&format!(
        "    if ({p} > {t}) {{\n        if ({p} * {m} < {bound}) {{ scratch = scratch + 1; }} else {{ scratch = scratch - 1; }}\n    }}\n"
    ));
    let q = if rng.below(2) == 0 { "pub0" } else { "pub1" };
    let r1 = rng.below(4) as i64;
    let r2 = (r1 + 1 + rng.below(3) as i64) % 4;
    src.push_str(&format!(
        "    if ({q} > 5) {{\n        if ({q} % 4 == {r1}) {{\n            if ({q} % 4 == {r2}) {{ scratch = scratch + 3; }} else {{ scratch = scratch + 1; }}\n        }}\n    }}\n"
    ));
    let c = rng.small();
    src.push_str(&format!(
        "    if (pub0 < pub1) {{\n        if (pub1 < pub0) {{ scratch = scratch + {c}; }} else {{ scratch = scratch - {c}; }}\n    }}\n"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            let a = generate(seed);
            let b = generate(seed);
            assert_eq!(a, b, "seed {seed} must be reproducible");
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(generate(1).source, generate(2).source);
    }

    #[test]
    fn generated_modules_validate() {
        for seed in 0..32u64 {
            let module = generate(seed);
            module
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid module: {e}"));
        }
    }

    #[test]
    fn hoisting_moves_only_the_late_read() {
        for seed in 0..32u64 {
            let late = generate_late_read(seed);
            let hoisted = hoist_secret_read(&late);
            late.validate().expect("late-read module parses");
            hoisted.validate().expect("hoisted twin parses");
            assert_eq!(late.expectations, generate(seed).expectations);
            let moved: Vec<(&str, &str)> = late
                .source
                .lines()
                .zip(hoisted.source.lines().filter(|l| !l.contains("int late_s")))
                .filter(|(a, b)| a != b)
                .collect();
            assert_eq!(moved.len(), 1, "seed {seed}: only the guard changes");
            assert!(moved[0].1.starts_with("    if (late_s > "));
            let read = hoisted
                .source
                .lines()
                .position(|l| l.starts_with("    int late_s = secret["));
            let branch = hoisted.source.lines().position(|l| l.contains("late_r = "));
            assert!(read < branch, "seed {seed}: the read precedes the branch");
        }
        let plain = generate(3);
        assert_eq!(hoist_secret_read(&plain), plain);
    }

    #[test]
    fn seeds_cover_clean_and_leaky_modules() {
        let clean = (0..32u64)
            .filter(|s| generate(*s).expectations.is_empty())
            .count();
        assert!(clean > 0, "some seeds must generate clean modules");
        assert!(clean < 32, "some seeds must generate leaky modules");
    }

    #[test]
    fn leak_plans_respect_taxonomy_constraints() {
        for seed in 0..64u64 {
            let module = generate(seed);
            let implicit = module
                .expectations
                .iter()
                .filter(|e| e.kind == crate::expect::LeakKind::Implicit)
                .count();
            assert!(implicit <= 1, "seed {seed}: at most one implicit leak");
            let returns = module
                .expectations
                .iter()
                .filter(|e| e.channel == "return value")
                .count();
            assert!(returns <= 1, "seed {seed}: at most one return leak");
            let mut secrets: Vec<&str> = module
                .expectations
                .iter()
                .map(|e| e.secret.as_str())
                .collect();
            secrets.sort_unstable();
            secrets.dedup();
            assert_eq!(
                secrets.len(),
                module.expectations.len(),
                "seed {seed}: each leak uses a distinct secret byte"
            );
        }
    }

    #[test]
    fn branch_heavy_modules_validate_and_are_deterministic() {
        for seed in 0..8u64 {
            let a = generate_branch_heavy(seed, 2);
            let b = generate_branch_heavy(seed, 2);
            assert_eq!(a, b, "seed {seed} must be reproducible");
            assert!(a.expectations.is_empty(), "branch-heavy modules are clean");
            a.validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid module: {e}"));
            // All three contradiction shapes are present.
            assert!(a.source.contains("% 4 =="), "residue contradiction");
            assert!(
                a.source
                    .contains("if (pub0 < pub1) {\n        if (pub1 < pub0)"),
                "variable-order cycle"
            );
        }
    }

    #[test]
    fn some_seeds_generate_contradiction_clusters() {
        let heavy = (0..64u64)
            .filter(|s| generate(*s).source.contains("% 4 =="))
            .count();
        assert!(heavy > 0, "some seeds must carry a contradiction cluster");
        assert!(heavy < 64, "not every seed should be branch-heavy");
    }

    #[test]
    fn wraparound_modules_validate_and_cover_every_shape() {
        for seed in 0..6u64 {
            let module = generate_wraparound(seed);
            assert_eq!(module, generate_wraparound(seed), "seed {seed}");
            module
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid module: {e}"));
            assert_eq!(module.expectations.len(), 1);
            let e = &module.expectations[0];
            assert!(module.source.contains(&e.payload));
            let explicit = (seed / 3).is_multiple_of(2);
            assert_eq!(e.kind == crate::expect::LeakKind::Explicit, explicit);
        }
    }

    #[test]
    fn callee_branch_modules_validate_and_cover_every_shape() {
        let mut sites = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let module = generate_callee_branch(seed);
            assert_eq!(module, generate_callee_branch(seed), "seed {seed}");
            module
                .validate()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid module: {e}"));
            assert!(module.source.contains("int cb_pick("));
            for e in &module.expectations {
                assert!(module.source.contains(&e.payload), "seed {seed}: {}", e.id);
                sites.insert(e.id.clone());
            }
        }
        assert_eq!(sites.len(), 5, "{sites:?}");
    }

    #[test]
    fn ternary_twin_rewrites_each_callee_helper() {
        let module = generate_callee_branch(0);
        let twin = ternary_twin(&module);
        twin.validate().expect("ternary twin parses");
        for select in [
            "    return a + b > t ? 1 : 0;\n",
            "    return v * v > t ? hi : lo;\n",
            "    return p * p > t ? hi : lo;\n",
        ] {
            assert!(twin.source.contains(select), "{select}");
        }
        assert!(!twin.source.contains("        return "));
        assert_eq!(twin.expectations, module.expectations);
        let plain = generate(3);
        assert_eq!(ternary_twin(&plain), plain);
    }

    #[test]
    fn shadow_twin_nests_the_entry_body_under_outer_locals() {
        let module = generate(0);
        let twin = shadow_twin(&module);
        twin.validate().expect("shadow twin parses");
        let header = format!("int {ENTRY}(char *secret, int pub0, int pub1, int *out) {{\n");
        let nested = format!("{header}    int pacc = 0;\n    int sacc = 0;\n");
        assert!(twin.source.contains(&nested), "{}", twin.source);
        assert!(twin
            .source
            .contains("    int view = 0;\n    {\n    int pacc = "));
        assert!(twin.source.ends_with("    }\n}\n"), "{}", twin.source);
        assert_eq!(twin.expectations, module.expectations);
        let mut other = module.clone();
        other.source = other.source.replace(ENTRY, "elsewhere");
        assert_eq!(shadow_twin(&other), other);
    }

    #[test]
    fn incoherent_plans_are_rejected() {
        use LeakSite::*;
        assert_eq!(
            generate_with_leaks(1, &[ExplicitOut, ExplicitOut]),
            Err(SynthError::DuplicateSite(ExplicitOut))
        );
        assert_eq!(
            generate_with_leaks(1, &[ExplicitReturn, ImplicitReturn]),
            Err(SynthError::ReturnChannelConflict)
        );
        assert!(generate_with_leaks(1, &[ImplicitOcall, ImplicitReturn]).is_err());
        assert_eq!(
            generate_with_leaks(1, &[MergedIndexRead, MergedIndexWrite]),
            Err(SynthError::MultipleMergedIndex)
        );
        // The largest coherent plan uses every secret byte.
        let full = [
            ExplicitOut,
            ExplicitOcall,
            ExplicitReturn,
            MergedIndexRead,
            ImplicitOcall,
        ];
        let module = generate_with_leaks(1, &full).expect("coherent plan");
        module.validate().expect("valid module");
    }

    #[test]
    fn planted_leak_is_labeled() {
        let module = generate_with_leaks(7, &[LeakSite::ImplicitOcall]).expect("coherent plan");
        assert_eq!(module.expectations.len(), 1);
        let e = &module.expectations[0];
        assert_eq!(e.kind, crate::expect::LeakKind::Implicit);
        assert_eq!(e.channel, "argument 0 of `ocall_progress`");
        assert!(module.source.contains(&e.payload));
        module.validate().expect("planted module is valid");
    }
}
