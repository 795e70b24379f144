//! The lint passes.
//!
//! Each pass walks the comment-free token stream of a [`PreparedFile`]
//! and records [`Finding`]s through [`PreparedFile::push`], which applies
//! the test-code exemption and allow directives. The passes are
//! heuristics over tokens, not type-checked analyses — they are tuned to
//! have **zero false positives on the idioms this workspace uses** and
//! to prefer a missed exotic case over noise (the rare miss is caught in
//! review; a noisy gate gets deleted).

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{prepare, Finding, Lint, PreparedFile, SrcFile};
use crate::graph::Unit;
use crate::lexer::{Tok, TokKind};

/// Crates whose outputs must be bit-reproducible: simulator, control
/// planes, diagnoser and the experiment harness (plus the root package's
/// re-export shim). `obs` is deliberately absent — spans read the wall
/// clock by design and never feed simulation results.
const DETERMINISTIC_CRATES: [&str; 7] = [
    "topology",
    "igp",
    "bgp",
    "netsim",
    "core",
    "experiments",
    "root",
];

/// Where the metric vocabulary lives, relative to the workspace root.
pub const NAMES_PATH: &str = "crates/obs/src/names.rs";

/// Is this crate one of the vendored dependency stubs? Stubs mimic
/// external APIs we don't control: only the `layering` pass (leaf-only
/// imports) applies to them.
pub fn is_stub(crate_name: &str) -> bool {
    matches!(crate_name, "rand" | "proptest")
}

/// Prepares and parses every file into a graph [`Unit`] (shared by the
/// lint run and the `graph --dot` CLI command).
pub fn units(files: &[SrcFile]) -> Vec<Unit<'_>> {
    files
        .iter()
        .map(|file| Unit {
            prepared: prepare(file),
            parsed: crate::parser::parse(&file.src),
            stub: is_stub(&file.crate_name),
        })
        .collect()
}

/// Runs every pass over every file: the per-file token passes, the
/// cross-file obs-name check, the graph passes
/// (lock-order/lock-across-blocking/hot-alloc/layering), and — last, so
/// every suppression has had its chance to fire — the stale-allow audit.
pub fn run_all(files: &[SrcFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let names = NameRegistry::from_files(files);
    let mut used = BTreeSet::new();
    let units = units(files);
    for unit in &units {
        let p = &unit.prepared;
        out.extend(p.bad_allows.iter().cloned());
        if unit.stub {
            continue;
        }
        if DETERMINISTIC_CRATES.contains(&p.file.crate_name.as_str()) {
            hash_iter(p, &mut out);
            nondet_source(p, &mut out);
        }
        panic_macro(p, &mut out);
        unwrap_expect(p, &mut out);
        slice_index(p, &mut out);
        obs_call_sites(p, &names, &mut used, &mut out);
    }
    names.dead(&used, &mut out);
    crate::graph::run(&units, &mut out);
    for unit in &units {
        unit.prepared.stale_allows(&mut out);
    }
    out
}

/// Convenience for fixture tests: lints one pseudo-file as crate
/// `crate_name`.
pub fn run_one(crate_name: &str, path: &str, src: &str) -> Vec<Finding> {
    run_all(&[SrcFile {
        crate_name: crate_name.to_string(),
        path: path.to_string(),
        src: src.to_string(),
    }])
}

// --- hash-iter ---------------------------------------------------------------

/// Methods that observe a hash container's iteration order.
const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Flags iteration over identifiers declared with a `HashMap`/`HashSet`
/// type in the same file (let bindings, struct fields, fn params).
fn hash_iter(p: &PreparedFile<'_>, out: &mut Vec<Finding>) {
    let toks = &p.tokens;
    // Pass 1: names bound to hash-typed declarations.
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Walk left over `&`, `mut` and lifetimes to the binding site.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1];
            if prev.is_punct('&') || prev.is_ident("mut") || prev.kind == TokKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 {
            let (sep, name) = (&toks[j - 1], &toks[j - 2]);
            if (sep.is_punct(':') || sep.is_punct('=')) && name.kind == TokKind::Ident {
                hash_names.insert(name.text.as_str());
            }
        }
    }
    if hash_names.is_empty() {
        return;
    }
    // Pass 2: iteration over those names.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !hash_names.contains(t.text.as_str()) {
            continue;
        }
        // `name.iter()` / `name.keys()` / …
        if toks.get(i + 1).is_some_and(|t| t.is_punct('.')) {
            if let Some(m) = toks.get(i + 2) {
                if m.kind == TokKind::Ident
                    && ITER_METHODS.contains(&m.text.as_str())
                    && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
                {
                    p.push(
                        out,
                        Lint::HashIter,
                        m.line,
                        format!(
                            "`{}.{}()` iterates a hash container in nondeterministic \
                             order; use a BTree type or justify with \
                             `// lint: allow(hash-iter): <why order cannot leak>`",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `for x in name {` / `for x in &name {` / `for x in self.name {`
        if toks.get(i + 1).is_some_and(|t| t.is_punct('{')) && preceded_by_in(toks, i) {
            p.push(
                out,
                Lint::HashIter,
                t.line,
                format!(
                    "`for … in {}` iterates a hash container in nondeterministic order",
                    t.text
                ),
            );
        }
    }
}

/// Does the identifier at `i` (possibly a `self.name` chain) follow the
/// keyword `in`?
fn preceded_by_in(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    // Walk left over a field-access chain `a.b.name`.
    while j >= 2 && toks[j - 1].is_punct('.') && toks[j - 2].kind == TokKind::Ident {
        j -= 2;
    }
    // And over `&` / `&mut`.
    while j >= 1 && (toks[j - 1].is_punct('&') || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j >= 1 && toks[j - 1].is_ident("in")
}

// --- nondet-source -----------------------------------------------------------

/// Flags wall-clock reads, ambient RNGs and environment access inside
/// deterministic crates.
fn nondet_source(p: &PreparedFile<'_>, out: &mut Vec<Finding>) {
    let toks = &p.tokens;
    let path2 = |i: usize, a: &str, b: &str| {
        toks[i].is_ident(a)
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(b))
    };
    for i in 0..toks.len() {
        let line = toks[i].line;
        if path2(i, "Instant", "now") || path2(i, "SystemTime", "now") {
            p.push(
                out,
                Lint::NondetSource,
                line,
                format!(
                    "`{}::now()` reads the wall clock inside a deterministic crate; \
                     pass timings in or move them behind the obs recorder",
                    toks[i].text
                ),
            );
        } else if toks[i].is_ident("thread_rng") && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            p.push(
                out,
                Lint::NondetSource,
                line,
                "`thread_rng()` is ambient randomness; derive an RNG from the \
                 trial seed instead"
                    .to_string(),
            );
        } else if path2(i, "std", "env") {
            p.push(
                out,
                Lint::NondetSource,
                line,
                "`std::env` reads ambient process state inside a deterministic \
                 crate; plumb configuration through arguments"
                    .to_string(),
            );
        }
    }
}

// --- panic-macro -------------------------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Flags `panic!`-family macros in library code.
fn panic_macro(p: &PreparedFile<'_>, out: &mut Vec<Finding>) {
    let toks = &p.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            p.push(
                out,
                Lint::PanicMacro,
                t.line,
                format!(
                    "`{}!` aborts the caller; return an error, or keep the \
                     documented-contract panic behind \
                     `// lint: allow(panic-macro): <contract>`",
                    t.text
                ),
            );
        }
    }
}

// --- unwrap ------------------------------------------------------------------

/// An `.expect(..)` message shorter than this cannot be stating an
/// invariant; it is a renamed `.unwrap()`.
pub const MIN_EXPECT_MESSAGE: usize = 15;

/// Flags `.unwrap()` and `.expect(..)` calls whose message does not
/// document the invariant.
fn unwrap_expect(p: &PreparedFile<'_>, out: &mut Vec<Finding>) {
    let toks = &p.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if m.is_ident("unwrap") {
            p.push(
                out,
                Lint::Unwrap,
                m.line,
                "`.unwrap()` in library code; use `?`, a default, or \
                 `.expect(\"<invariant>\")`"
                    .to_string(),
            );
        } else if m.is_ident("expect") {
            let msg = toks.get(i + 3);
            let documented = msg.is_some_and(|t| {
                t.kind == TokKind::Str && t.text.chars().count() >= MIN_EXPECT_MESSAGE
            });
            if !documented {
                p.push(
                    out,
                    Lint::Unwrap,
                    m.line,
                    format!(
                        "`.expect(..)` must carry a string literal of at least \
                         {MIN_EXPECT_MESSAGE} chars stating why the value exists"
                    ),
                );
            }
        }
    }
}

// --- slice-index -------------------------------------------------------------

/// Keywords that can directly precede a `[` without it being indexing.
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "let", "in", "mut", "ref", "return", "match", "if", "else", "move", "box", "dyn", "as",
    "where", "break",
];

/// Flags direct indexing expressions `expr[i]` (advisory by default).
fn slice_index(p: &PreparedFile<'_>, out: &mut Vec<Finding>) {
    let toks = &p.tokens;
    for i in 1..toks.len() {
        if !toks[i].is_punct('[') {
            continue;
        }
        let prev = &toks[i - 1];
        let indexes = match prev.kind {
            TokKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
            TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
            _ => false,
        };
        // An empty `[]` is never indexing (e.g. `Vec::new()[..]` is not
        // written; `&x[..]` has `..` inside and still panics — keep it).
        if indexes {
            p.push(
                out,
                Lint::SliceIndex,
                toks[i].line,
                "direct indexing panics out of bounds; prefer `.get(..)` unless \
                 the index is a dense ID"
                    .to_string(),
            );
        }
    }
}

// --- obs names ---------------------------------------------------------------

/// The metric vocabulary parsed out of `crates/obs/src/names.rs`.
pub struct NameRegistry {
    /// const name → (string value, line in names.rs).
    consts: BTreeMap<String, (String, usize)>,
    /// Whether a names.rs was present in the input set.
    present: bool,
}

impl NameRegistry {
    /// Parses `pub const NAME: &str = "value";` items from the names
    /// file in `files` (`crate == "obs"`, path ending in `names.rs`).
    pub fn from_files(files: &[SrcFile]) -> Self {
        let Some(names_file) = files
            .iter()
            .find(|f| f.crate_name == "obs" && f.path.ends_with("names.rs"))
        else {
            return NameRegistry {
                consts: BTreeMap::new(),
                present: false,
            };
        };
        let toks: Vec<Tok> = crate::lexer::lex(&names_file.src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .collect();
        let mut consts = BTreeMap::new();
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("const")
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let name = toks[i + 1].text.clone();
                let line = toks[i + 1].line;
                // Scan to the terminating `;`, grabbing the value literal.
                let mut value = None;
                let mut j = i + 2;
                while j < toks.len() && !toks[j].is_punct(';') {
                    if toks[j].kind == TokKind::Str {
                        value = Some(toks[j].text.clone());
                    }
                    j += 1;
                }
                if let Some(v) = value {
                    consts.insert(name, (v, line));
                }
                i = j;
            }
            i += 1;
        }
        NameRegistry {
            consts,
            present: true,
        }
    }

    fn knows_const(&self, name: &str) -> bool {
        self.consts.contains_key(name)
    }

    fn knows_value(&self, value: &str) -> bool {
        self.consts.values().any(|(v, _)| v == value)
    }

    /// Reports vocabulary entries never referenced by a call site.
    fn dead(&self, used: &BTreeSet<String>, out: &mut Vec<Finding>) {
        if !self.present {
            return;
        }
        for (name, (value, line)) in &self.consts {
            if !used.contains(name) && !used.contains(value) {
                out.push(Finding {
                    file: NAMES_PATH.to_string(),
                    line: *line,
                    lint: Lint::ObsDeadName,
                    message: format!(
                        "`{name}` (\"{value}\") has no instrumented call site; \
                         delete it or re-instrument"
                    ),
                });
            }
        }
    }
}

/// Recorder methods whose first argument is a metric or event name.
const RECORDER_METHODS: [&str; 8] = [
    "add",
    "observe",
    "span",
    "record_span",
    "gauge_set",
    "gauge_add",
    "gauge_sub",
    "event",
];

/// Checks recorder calls (`.add(..)`, `.observe(..)`, `.span(..)`,
/// `.record_span(..)`, the `gauge_*` family, `.event(..)`) — first
/// arguments against the vocabulary and collects which names are used.
fn obs_call_sites(
    p: &PreparedFile<'_>,
    names: &NameRegistry,
    used: &mut BTreeSet<String>,
    out: &mut Vec<Finding>,
) {
    if !names.present {
        return;
    }
    let toks = &p.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(i + 1) else { continue };
        if m.kind != TokKind::Ident
            || !RECORDER_METHODS.contains(&m.text.as_str())
            || !toks.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(arg) = toks.get(i + 3) else { continue };
        // In test code we neither check nor count usage — tests may use
        // ad-hoc names against in-memory recorders.
        if p.in_test(arg.line) {
            continue;
        }
        match arg.kind {
            TokKind::Str => {
                if names.knows_value(&arg.text) {
                    used.insert(arg.text.clone());
                } else {
                    p.push(
                        out,
                        Lint::ObsUnknownName,
                        arg.line,
                        format!(
                            "metric name \"{}\" is not defined in {NAMES_PATH}; \
                             add a constant there and use it",
                            arg.text
                        ),
                    );
                }
            }
            TokKind::Ident => {
                let (path, last) = ident_path(toks, i + 3);
                if path.iter().any(|s| s == "names") && path.len() > 1 {
                    if names.knows_const(&last) {
                        used.insert(last);
                    } else {
                        p.push(
                            out,
                            Lint::ObsUnknownName,
                            arg.line,
                            format!("`names::{last}` is not defined in {NAMES_PATH}"),
                        );
                    }
                } else if path.len() == 1 && is_const_case(&last) {
                    // A bare SCREAMING_CASE ident is almost surely a
                    // metric constant imported directly.
                    if names.knows_const(&last) {
                        used.insert(last);
                    } else {
                        p.push(
                            out,
                            Lint::ObsUnknownName,
                            arg.line,
                            format!(
                                "`{last}` is not a constant from {NAMES_PATH}; \
                                 metric names must come from the shared vocabulary"
                            ),
                        );
                    }
                }
                // Lowercase idents (`self.0.add(name, delta)`) are
                // forwarding plumbing, not call sites — ignored.
            }
            _ => {}
        }
    }
}

/// Collects the `a::b::c` path starting at token `start`; returns the
/// segments and the final segment.
fn ident_path(toks: &[Tok], start: usize) -> (Vec<String>, String) {
    let mut segments = vec![toks[start].text.clone()];
    let mut j = start + 1;
    while toks.get(j).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident)
    {
        segments.push(toks[j + 2].text.clone());
        j += 3;
    }
    let last = segments.last().cloned().unwrap_or_default();
    (segments, last)
}

/// `SCREAMING_SNAKE_CASE` heuristic.
fn is_const_case(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}
