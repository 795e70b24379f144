//! Graph-level passes over the parsed item model.
//!
//! Three analyses that need cross-statement (and cross-file) structure
//! rather than single-token patterns:
//!
//! * **lock-order / lock-across-blocking** — every `Mutex`/`RwLock`
//!   declaration becomes a node identified by `(crate, field name)`;
//!   every acquisition whose guard is still live when another lock is
//!   taken becomes an edge. Cycles (including self-edges) are potential
//!   deadlocks. A guard live across a blocking operation (`.recv()`,
//!   socket/file I/O, `JoinHandle::join`) — directly or through one
//!   resolved call — is flagged too.
//! * **hot-alloc** — functions marked `// hot` and their directly
//!   resolved callees must not allocate.
//! * **layering** — `use` roots must respect the crate DAG.
//!
//! Approximations (see DESIGN.md §10): lock identity is by declared
//! name, guard scopes extend to the end of the enclosing brace block
//! (or the statement's `;` for temporaries, or an explicit
//! `drop(guard)`), and calls resolve only when the callee name is
//! unique across the workspace (method calls additionally pass a
//! common-name stoplist). Everything unresolved is dropped, not
//! guessed — the passes trade exotic misses for zero false positives
//! on this workspace's idioms.

use std::collections::{BTreeMap, BTreeSet};

use crate::engine::{Finding, Lint, PreparedFile};
use crate::lexer::{Tok, TokKind};
use crate::parser::{calls_in, ParsedFile};

/// One file ready for graph analysis: the engine's exemption model plus
/// the parsed item model.
pub struct Unit<'a> {
    /// Exemptions, allows and finding collection.
    pub prepared: PreparedFile<'a>,
    /// Items and the comment-bearing token stream.
    pub parsed: ParsedFile,
    /// Vendored dependency stub — layering applies, nothing else.
    pub stub: bool,
}

impl Unit<'_> {
    fn crate_name(&self) -> &str {
        &self.prepared.file.crate_name
    }
}

/// Lock identity: `(crate, declared name)`.
type LockKey = (String, String);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LockKind {
    Mutex,
    RwLock,
}

/// A lock acquisition edge: `to` taken while a guard on `from` is live.
struct Edge {
    from: LockKey,
    to: LockKey,
    unit: usize,
    line: usize,
    via: Option<String>,
}

/// A guard live across a blocking operation.
struct Blocked {
    key: LockKey,
    acq_line: usize,
    unit: usize,
    line: usize,
    desc: String,
    via: Option<String>,
}

/// Runs the three graph passes, pushing findings through each unit's
/// [`PreparedFile`].
pub fn run(units: &[Unit<'_>], out: &mut Vec<Finding>) {
    let (edges, blocked, _) = lock_model(units);
    for b in &blocked {
        let via = b
            .via
            .as_ref()
            .map(|f| format!("a call to `{f}()` which blocks on "))
            .unwrap_or_default();
        units[b.unit].prepared.push(
            out,
            Lint::LockAcrossBlocking,
            b.line,
            format!(
                "guard on `{}::{}` (acquired line {}) is held across {}`{}`; \
                 drop the guard (or narrow its block) before blocking",
                b.key.0, b.key.1, b.acq_line, via, b.desc
            ),
        );
    }
    let mut adj: BTreeMap<&LockKey, BTreeSet<&LockKey>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    for e in &edges {
        if !reaches(&adj, &e.to, &e.from) {
            continue;
        }
        let message = if e.from == e.to {
            format!(
                "re-acquiring `{}::{}` while a guard on it is still live \
                 deadlocks (std locks are not reentrant)",
                e.to.0, e.to.1
            )
        } else {
            let via = e
                .via
                .as_ref()
                .map(|f| format!(" (through `{f}()`)"))
                .unwrap_or_default();
            format!(
                "acquiring `{}::{}`{} while holding `{}::{}` closes a cycle \
                 in the lock-order graph (deadlock under contention); pick \
                 one global order",
                e.to.0, e.to.1, via, e.from.0, e.from.1
            )
        };
        units[e.unit]
            .prepared
            .push(out, Lint::LockOrder, e.line, message);
    }
    hot_alloc(units, out);
    for unit in units {
        layering(unit, out);
    }
}

/// Is `to` reachable from `from` in `adj`?
fn reaches(adj: &BTreeMap<&LockKey, BTreeSet<&LockKey>>, from: &LockKey, to: &LockKey) -> bool {
    let mut seen: BTreeSet<&LockKey> = BTreeSet::new();
    let mut work: Vec<&LockKey> = vec![from];
    while let Some(k) = work.pop() {
        if k == to {
            return true;
        }
        if !seen.insert(k) {
            continue;
        }
        if let Some(next) = adj.get(k) {
            work.extend(next.iter());
        }
    }
    false
}

// --- lock model --------------------------------------------------------------

/// Methods that block the calling thread while obviously doing I/O or
/// waiting on another thread. `Condvar::wait` is deliberately absent:
/// it releases the guard while parked.
const BLOCKING_METHODS: [&str; 9] = [
    "recv",
    "recv_timeout",
    "accept",
    "read_line",
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
    "flush",
];

/// Blocking `Type::fn(`-style calls.
const BLOCKING_PATHS: [(&str, &str); 5] = [
    ("thread", "sleep"),
    ("File", "open"),
    ("File", "create"),
    ("TcpStream", "connect"),
    ("TcpListener", "bind"),
];

/// Method names too common to resolve as workspace calls — resolving
/// `x.get(..)` to some unique `fn get` elsewhere would be a lie.
const METHOD_STOPLIST: [&str; 44] = [
    "add",
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "count",
    "default",
    "drain",
    "drop",
    "eq",
    "event",
    "extend",
    "filter",
    "fmt",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "observe",
    "pop",
    "push",
    "read",
    "record",
    "recv",
    "remove",
    "send",
    "span",
    "wait",
    "write",
];

/// Builds the lock-ordering edges, guard-across-blocking sites, and the
/// set of locks with at least one acquisition, for the whole workspace.
#[allow(clippy::type_complexity)]
fn lock_model(units: &[Unit<'_>]) -> (Vec<Edge>, Vec<Blocked>, BTreeSet<LockKey>) {
    let locks = lock_decls(units);
    let fn_index = index_fns(units);
    // Per-fn direct facts: acquisitions and blocking sites.
    struct Facts {
        acqs: Vec<Acq>,
        blocking: Vec<(usize, String)>, // (line, description)
    }
    let mut facts: BTreeMap<(usize, usize), Facts> = BTreeMap::new();
    for (u, unit) in units.iter().enumerate() {
        if unit.stub {
            continue;
        }
        let toks = &unit.parsed.tokens;
        let depths = brace_depths(toks);
        for (fi, f) in unit.parsed.fns.iter().enumerate() {
            let Some((open, close)) = f.body else {
                continue;
            };
            if unit.prepared.in_test(f.line) {
                continue;
            }
            let acqs = acquisitions(unit, &locks, &depths, open, close);
            let mut blocking = Vec::new();
            for j in open + 1..close.min(toks.len()) {
                if let Some(desc) = blocking_at(toks, j) {
                    blocking.push((toks[j].line, desc));
                }
            }
            facts.insert((u, fi), Facts { acqs, blocking });
        }
    }
    let mut edges = Vec::new();
    let mut blocked = Vec::new();
    let mut acquired: BTreeSet<LockKey> = BTreeSet::new();
    for (&(u, fi), fact) in &facts {
        let unit = &units[u];
        let toks = &unit.parsed.tokens;
        for acq in &fact.acqs {
            acquired.insert(acq.key.clone());
            // Direct: another acquisition or blocking op inside the
            // guard's live range.
            for other in &fact.acqs {
                if other.dot > acq.dot && other.dot < acq.guard_end {
                    edges.push(Edge {
                        from: acq.key.clone(),
                        to: other.key.clone(),
                        unit: u,
                        line: toks[other.dot].line,
                        via: None,
                    });
                }
            }
            for (line, desc) in blocking_in(toks, acq.dot + 1, acq.guard_end) {
                blocked.push(Blocked {
                    key: acq.key.clone(),
                    acq_line: toks[acq.dot].line,
                    unit: u,
                    line,
                    desc,
                    via: None,
                });
            }
            // One level of calls: the callee's direct facts count as
            // happening at the call site.
            for call in calls_in(toks, acq.dot, acq.guard_end) {
                let Some(&(cu, cf)) = resolve(&fn_index, &call.name, call.method) else {
                    continue;
                };
                if (cu, cf) == (u, fi) {
                    continue; // recursion adds no new ordering facts
                }
                let Some(callee) = facts.get(&(cu, cf)) else {
                    continue;
                };
                let line = call.line(toks);
                for inner in &callee.acqs {
                    edges.push(Edge {
                        from: acq.key.clone(),
                        to: inner.key.clone(),
                        unit: u,
                        line,
                        via: Some(call.name.clone()),
                    });
                }
                if let Some((_, desc)) = callee.blocking.first() {
                    blocked.push(Blocked {
                        key: acq.key.clone(),
                        acq_line: toks[acq.dot].line,
                        unit: u,
                        line,
                        desc: desc.clone(),
                        via: Some(call.name.clone()),
                    });
                }
            }
        }
    }
    (edges, blocked, acquired)
}

/// One lock acquisition with its guard's live token range.
struct Acq {
    key: LockKey,
    /// Token index of the `.` in `.lock(`/`.read(`/`.write(`.
    dot: usize,
    /// Token index bound: the guard is live for tokens in
    /// `(dot, guard_end)`.
    guard_end: usize,
}

/// Every `Mutex`/`RwLock` declaration in the workspace, by
/// `(crate, name)`.
fn lock_decls(units: &[Unit<'_>]) -> BTreeMap<LockKey, LockKind> {
    let mut locks = BTreeMap::new();
    for unit in units {
        if unit.stub {
            continue;
        }
        let toks = &unit.parsed.tokens;
        for i in 0..toks.len() {
            // Form A: `name: …Mutex<…>…` — fields, statics, annotated
            // lets, params. The type scan is bounded and stops at the
            // declaration's natural end.
            if toks[i].kind == TokKind::Ident
                && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && !toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && !(i > 0 && toks[i - 1].is_punct(':'))
            {
                if let Some(kind) = lock_in_type(toks, i + 2) {
                    locks.insert((unit.crate_name().to_string(), toks[i].text.clone()), kind);
                }
            }
            // Form B: `name = Mutex::new(` — un-annotated lets and
            // reassignments.
            let kind = if toks[i].is_ident("Mutex") {
                Some(LockKind::Mutex)
            } else if toks[i].is_ident("RwLock") {
                Some(LockKind::RwLock)
            } else {
                None
            };
            if let Some(kind) = kind {
                let is_new = toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|t| t.is_ident("new"));
                if is_new
                    && i >= 2
                    && toks[i - 1].is_punct('=')
                    && toks[i - 2].kind == TokKind::Ident
                {
                    locks.insert(
                        (unit.crate_name().to_string(), toks[i - 2].text.clone()),
                        kind,
                    );
                }
            }
        }
    }
    locks
}

/// Does the type starting at `start` mention `Mutex<`/`RwLock<` before
/// the declaration ends?
fn lock_in_type(toks: &[Tok], start: usize) -> Option<LockKind> {
    let mut angle = 0usize;
    for j in start..(start + 40).min(toks.len()) {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            if j > 0 && toks[j - 1].is_punct('-') {
                return None; // `->`: we ran into a signature, not a type
            }
            if angle == 0 {
                return None;
            }
            angle -= 1;
        } else if angle == 0
            && (t.is_punct(',')
                || t.is_punct(';')
                || t.is_punct('=')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct('(')
                || t.is_punct(')'))
        {
            return None;
        } else if t.is_ident("Mutex") && toks.get(j + 1).is_some_and(|n| n.is_punct('<')) {
            return Some(LockKind::Mutex);
        } else if t.is_ident("RwLock") && toks.get(j + 1).is_some_and(|n| n.is_punct('<')) {
            return Some(LockKind::RwLock);
        }
    }
    None
}

/// Brace depth *after* each token.
fn brace_depths(toks: &[Tok]) -> Vec<u32> {
    let mut d = 0u32;
    toks.iter()
        .map(|t| {
            if t.is_punct('{') {
                d += 1;
            } else if t.is_punct('}') {
                d = d.saturating_sub(1);
            }
            d
        })
        .collect()
}

/// Finds the acquisitions in one fn body with their guard live ranges.
fn acquisitions(
    unit: &Unit<'_>,
    locks: &BTreeMap<LockKey, LockKind>,
    depths: &[u32],
    open: usize,
    close: usize,
) -> Vec<Acq> {
    let toks = &unit.parsed.tokens;
    let mut out = Vec::new();
    for j in open + 1..close.min(toks.len()) {
        if !toks[j].is_punct('.') {
            continue;
        }
        let Some(m) = toks.get(j + 1) else { continue };
        if m.kind != TokKind::Ident || !toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let want = match m.text.as_str() {
            "lock" => LockKind::Mutex,
            "read" | "write" => LockKind::RwLock,
            _ => continue,
        };
        let Some((recv, _)) = receiver_name(toks, j) else {
            continue;
        };
        let key = (unit.crate_name().to_string(), recv);
        if locks.get(&key) != Some(&want) {
            continue;
        }
        let guard = binding_name(toks, j, open);
        let depth = depths.get(j).copied().unwrap_or(0);
        let mut end = close;
        for k in j + 1..close.min(toks.len()) {
            let done = match &guard {
                // Named guard: lives to the enclosing block's `}` or an
                // explicit `drop(name)`.
                Some(name) => {
                    (toks[k].is_punct('}') && depths[k] + 1 == depth)
                        || (toks[k].is_ident("drop")
                            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                            && toks.get(k + 2).is_some_and(|t| t.is_ident(name))
                            && toks.get(k + 3).is_some_and(|t| t.is_punct(')')))
                }
                // Temporary guard: dies at the statement's `;`.
                None => toks[k].is_punct(';') && depths[k] == depth,
            };
            if done {
                end = k;
                break;
            }
        }
        out.push(Acq {
            key,
            dot: j,
            guard_end: end,
        });
    }
    out
}

/// Walks left from the `.` of a `.lock(`-style call to the receiver's
/// base identifier, skipping one level of `[…]` indexing.
fn receiver_name(toks: &[Tok], dot: usize) -> Option<(String, usize)> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        let p = &toks[k - 1];
        if p.is_punct(']') {
            let mut depth = 1usize;
            let mut m = k - 1;
            while m > 0 && depth > 0 {
                m -= 1;
                if toks[m].is_punct(']') {
                    depth += 1;
                } else if toks[m].is_punct('[') {
                    depth -= 1;
                }
            }
            if depth != 0 {
                return None;
            }
            k = m;
            continue;
        }
        if p.kind == TokKind::Ident {
            return Some((p.text.clone(), k - 1));
        }
        return None;
    }
}

/// If the statement containing the acquisition at `dot` is a `let`
/// binding, returns the bound guard name.
fn binding_name(toks: &[Tok], dot: usize, open: usize) -> Option<String> {
    let mut k = dot;
    while k > open {
        let p = &toks[k - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            return None;
        }
        if p.is_ident("let") {
            // The guard is the last ident of the pattern before `=`
            // (`let mut g`, `if let Ok(g)`).
            let mut name = None;
            for t in toks.iter().take(dot).skip(k) {
                if t.is_punct('=') {
                    break;
                }
                if t.kind == TokKind::Ident && !t.is_ident("mut") {
                    name = Some(t.text.clone());
                }
            }
            return name;
        }
        k -= 1;
    }
    None
}

/// Is token `j` the start of a blocking operation? Returns a
/// description like `.recv()` or `thread::sleep()`.
fn blocking_at(toks: &[Tok], j: usize) -> Option<String> {
    let t = toks.get(j)?;
    if t.is_punct('.') {
        let m = toks.get(j + 1)?;
        if m.kind == TokKind::Ident && toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
            if BLOCKING_METHODS.contains(&m.text.as_str()) {
                return Some(format!(".{}(..)", m.text));
            }
            // Only the zero-argument `.join()` is `JoinHandle::join`;
            // `path.join(x)` / `slice.join(sep)` take arguments.
            if m.is_ident("join") && toks.get(j + 3).is_some_and(|t| t.is_punct(')')) {
                return Some(".join()".to_string());
            }
        }
        return None;
    }
    if t.kind == TokKind::Ident
        && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(j + 4).is_some_and(|t| t.is_punct('('))
    {
        let b = toks.get(j + 3)?;
        for (a, f) in BLOCKING_PATHS {
            if t.is_ident(a) && b.is_ident(f) {
                return Some(format!("{a}::{f}(..)"));
            }
        }
    }
    None
}

/// All blocking operations in a token range.
fn blocking_in(toks: &[Tok], from: usize, to: usize) -> Vec<(usize, String)> {
    (from..to.min(toks.len()))
        .filter_map(|j| blocking_at(toks, j).map(|d| (toks[j].line, d)))
        .collect()
}

/// Workspace fn index: name → definitions. Stub and test fns excluded.
fn index_fns(units: &[Unit<'_>]) -> BTreeMap<String, Vec<(usize, usize)>> {
    let mut index: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    for (u, unit) in units.iter().enumerate() {
        if unit.stub {
            continue;
        }
        for (fi, f) in unit.parsed.fns.iter().enumerate() {
            if f.body.is_none() || unit.prepared.in_test(f.line) {
                continue;
            }
            index.entry(f.name.clone()).or_default().push((u, fi));
        }
    }
    index
}

/// Resolves a call to its unique workspace definition, or `None`.
fn resolve<'i>(
    index: &'i BTreeMap<String, Vec<(usize, usize)>>,
    name: &str,
    method: bool,
) -> Option<&'i (usize, usize)> {
    if method && METHOD_STOPLIST.contains(&name) {
        return None;
    }
    match index.get(name).map(Vec::as_slice) {
        Some([single]) => Some(single),
        _ => None,
    }
}

// --- hot-alloc ---------------------------------------------------------------

/// `Type::ctor(` forms that allocate.
const ALLOC_PATH_CTORS: [(&str, &str); 17] = [
    ("Vec", "new"),
    ("Vec", "from"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
    ("String", "with_capacity"),
    ("Box", "new"),
    ("VecDeque", "new"),
    ("VecDeque", "with_capacity"),
    ("BinaryHeap", "new"),
    ("BinaryHeap", "with_capacity"),
    ("BTreeMap", "new"),
    ("BTreeSet", "new"),
    ("HashMap", "new"),
    ("HashSet", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// `.method(` forms that allocate.
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_string", "to_owned", "clone", "collect"];

/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Growth-container ctors whose local bindings make later `.push(..)`
/// calls allocation sites too.
const GROWTH_CTORS: [&str; 4] = ["Vec", "VecDeque", "BinaryHeap", "String"];

/// Scans every `// hot` fn and its directly resolved callees for
/// allocation patterns.
fn hot_alloc(units: &[Unit<'_>], out: &mut Vec<Finding>) {
    let fn_index = index_fns(units);
    // (unit, fn) → (hot fn name, via-callee) — first context wins so a
    // fn that is itself hot is scanned once, as itself.
    let mut targets: BTreeMap<(usize, usize), (String, Option<String>)> = BTreeMap::new();
    for (u, unit) in units.iter().enumerate() {
        if unit.stub {
            continue;
        }
        for (fi, f) in unit.parsed.fns.iter().enumerate() {
            if f.hot && f.body.is_some() && !unit.prepared.in_test(f.line) {
                targets.insert((u, fi), (f.name.clone(), None));
            }
        }
    }
    let hot: Vec<(usize, usize)> = targets.keys().copied().collect();
    for (u, fi) in hot {
        let unit = &units[u];
        let f = &unit.parsed.fns[fi];
        let Some((open, close)) = f.body else {
            continue;
        };
        for call in calls_in(&unit.parsed.tokens, open, close) {
            let Some(&(cu, cf)) = resolve(&fn_index, &call.name, call.method) else {
                continue;
            };
            if units[cu].parsed.fns[cf].body.is_none() {
                continue;
            }
            targets
                .entry((cu, cf))
                .or_insert_with(|| (f.name.clone(), Some(call.name.clone())));
        }
    }
    for ((u, fi), (hot_name, via)) in &targets {
        let unit = &units[*u];
        let f = &unit.parsed.fns[*fi];
        let Some((open, close)) = f.body else {
            continue;
        };
        alloc_scan(unit, open, close, hot_name, via.as_deref(), out);
    }
}

/// Reports every allocation pattern in one fn body.
fn alloc_scan(
    unit: &Unit<'_>,
    open: usize,
    close: usize,
    hot_name: &str,
    via: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let toks = &unit.parsed.tokens;
    let hi = close.min(toks.len());
    let context = match via {
        Some(callee) => format!("`{callee}`, called from `// hot` `{hot_name}`"),
        None => format!("`// hot` fn `{hot_name}`"),
    };
    let growth_locals = growth_locals(toks, open, hi);
    let report = |out: &mut Vec<Finding>, line: usize, what: &str| {
        unit.prepared.push(
            out,
            Lint::HotAlloc,
            line,
            format!(
                "{what} allocates in {context}; preallocate outside the hot \
                 path, reuse a scratch buffer, or justify with \
                 `// lint: allow(hot-alloc): <why>`"
            ),
        );
    };
    let mut j = open + 1;
    while j < hi {
        let t = &toks[j];
        // Lazy-trace closures (`rec.event(name, || …)`) only run when a
        // trace sink is attached; their bodies are exempt by design.
        if t.is_punct('.')
            && toks.get(j + 1).is_some_and(|n| n.is_ident("event"))
            && toks.get(j + 2).is_some_and(|n| n.is_punct('('))
        {
            j = matching_paren(toks, j + 2);
            continue;
        }
        if t.kind == TokKind::Ident {
            // `Type::ctor(` — but `Arc::clone(&x)` is the sanctioned
            // refcount bump, handled by the path table not listing it.
            if toks.get(j + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(j + 4).is_some_and(|n| n.is_punct('('))
            {
                if let Some(m) = toks.get(j + 3) {
                    for (ty, ctor) in ALLOC_PATH_CTORS {
                        if t.is_ident(ty) && m.is_ident(ctor) {
                            report(out, t.line, &format!("`{ty}::{ctor}(..)`"));
                        }
                    }
                }
            }
            // `vec![` / `format!(`
            if ALLOC_MACROS.contains(&t.text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.is_punct('!'))
            {
                report(out, t.line, &format!("`{}!`", t.text));
            }
        }
        if t.is_punct('.') {
            if let Some(m) = toks.get(j + 1) {
                if m.kind == TokKind::Ident && toks.get(j + 2).is_some_and(|n| n.is_punct('(')) {
                    if ALLOC_METHODS.contains(&m.text.as_str()) {
                        report(out, m.line, &format!("`.{}(..)`", m.text));
                    }
                    // `.push(..)` on a local bound from a growth ctor in
                    // this same fn (field pushes manage capacity at the
                    // owner and are not flagged).
                    if matches!(m.text.as_str(), "push" | "push_back" | "push_str")
                        && j > 0
                        && toks[j - 1].kind == TokKind::Ident
                        && growth_locals.contains(toks[j - 1].text.as_str())
                    {
                        report(
                            out,
                            m.line,
                            &format!(
                                "`{}.{}(..)` (local grows unbounded)",
                                toks[j - 1].text,
                                m.text
                            ),
                        );
                    }
                }
            }
        }
        j += 1;
    }
}

/// Names bound by `let [mut] name = Vec::new()` (and friends) or
/// `= vec![..]` inside the body.
fn growth_locals(toks: &[Tok], open: usize, hi: usize) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for j in open + 1..hi {
        if !toks[j].is_ident("let") {
            continue;
        }
        // let [mut] NAME [: T] = <ctor>
        let mut k = j + 1;
        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        let Some(name) = toks.get(k).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let Some(eq) = (k + 1..(k + 24).min(hi)).find(|&m| toks[m].is_punct('=')) else {
            continue;
        };
        let Some(ctor) = toks.get(eq + 1) else {
            continue;
        };
        let path_ctor = GROWTH_CTORS.contains(&ctor.text.as_str())
            && toks.get(eq + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(eq + 4).is_some_and(|t| t.is_ident("new"));
        let vec_macro = ctor.is_ident("vec") && toks.get(eq + 2).is_some_and(|t| t.is_punct('!'));
        if path_ctor || vec_macro {
            names.insert(name.text.clone());
        }
    }
    names
}

/// Index of the `)` matching the `(` at `open` (or the end on
/// unbalanced input).
fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            depth += 1;
        } else if toks[j].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

// --- layering ----------------------------------------------------------------

/// Maps a `use` root segment to the lint-scoping crate key it imports.
fn crate_key(root: &str) -> Option<&'static str> {
    match root {
        "netdiag_topology" => Some("topology"),
        "netdiag_igp" => Some("igp"),
        "netdiag_bgp" => Some("bgp"),
        "netdiag_netsim" => Some("netsim"),
        "netdiag_obs" => Some("obs"),
        "netdiagnoser" => Some("core"),
        "netdiag_experiments" => Some("experiments"),
        "netdiag_serve" => Some("serve"),
        "netdiag_xtask" => Some("xtask"),
        "netdiagnoser_repro" => Some("root"),
        "rand" => Some("rand"),
        "proptest" => Some("proptest"),
        _ => None,
    }
}

/// The crate DAG: who may `use` whom. `rand` is the seeded-RNG stub any
/// non-stub crate may draw from; `obs` is the orthogonal observability
/// spine; stubs themselves are leaf-only.
fn allowed_deps(crate_name: &str) -> &'static [&'static str] {
    match crate_name {
        "topology" => &["obs", "rand"],
        "igp" => &["topology", "obs", "rand"],
        "bgp" => &["topology", "igp", "obs", "rand"],
        "netsim" => &["topology", "igp", "bgp", "obs", "rand"],
        "core" => &["topology", "igp", "bgp", "netsim", "obs", "rand"],
        "experiments" => &["topology", "igp", "bgp", "netsim", "core", "obs", "rand"],
        "serve" => &[
            "topology",
            "igp",
            "bgp",
            "netsim",
            "core",
            "experiments",
            "obs",
            "rand",
        ],
        "root" => &[
            "topology",
            "igp",
            "bgp",
            "netsim",
            "core",
            "experiments",
            "serve",
            "obs",
            "rand",
        ],
        "proptest" => &["rand"],
        // obs, xtask and the rand stub import nothing workspace-local.
        _ => &[],
    }
}

/// Checks one unit's `use` roots against the crate DAG.
fn layering(unit: &Unit<'_>, out: &mut Vec<Finding>) {
    let cname = unit.crate_name();
    for decl in &unit.parsed.uses {
        let Some(key) = crate_key(&decl.root) else {
            continue;
        };
        if key == cname {
            continue;
        }
        if !allowed_deps(cname).contains(&key) {
            unit.prepared.push(
                out,
                Lint::Layering,
                decl.line,
                format!(
                    "`{cname}` must not use `{}` — the crate DAG is topology → \
                     igp/bgp → netsim → core → experiments/serve (obs \
                     orthogonal, stubs leaf-only); allowed here: [{}]",
                    decl.root,
                    allowed_deps(cname).join(", ")
                ),
            );
        }
    }
}

// --- dot dumps ---------------------------------------------------------------

/// Renders the crate-layering and lock-order graphs as two DOT
/// digraphs (for `netdiag-xtask graph --dot`).
pub fn dot(units: &[Unit<'_>]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let mut layer_edges: BTreeSet<(String, String, bool)> = BTreeSet::new();
    for unit in units {
        let cname = unit.crate_name();
        for decl in &unit.parsed.uses {
            let Some(key) = crate_key(&decl.root) else {
                continue;
            };
            // Same exemption as the lint: test-only imports (e.g. a
            // `#[cfg(test)]` mod using the proptest stub) are not
            // dependencies of the shipped crate.
            if key == cname || unit.prepared.in_test(decl.line) {
                continue;
            }
            let ok = allowed_deps(cname).contains(&key);
            layer_edges.insert((cname.to_string(), key.to_string(), ok));
        }
    }
    let _ = writeln!(s, "digraph layering {{");
    for (from, to, ok) in &layer_edges {
        let attr = if *ok { "" } else { " [color=red]" };
        let _ = writeln!(s, "  \"{from}\" -> \"{to}\"{attr};");
    }
    let _ = writeln!(s, "}}");
    let (edges, _, acquired) = lock_model(units);
    let mut adj: BTreeMap<&LockKey, BTreeSet<&LockKey>> = BTreeMap::new();
    for e in &edges {
        adj.entry(&e.from).or_default().insert(&e.to);
    }
    // Every acquired lock is a node — an edge-free graph still names
    // the critical sections it proved leaf-only.
    let mut nodes: BTreeSet<&LockKey> = acquired.iter().collect();
    for e in &edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let mut lock_lines: BTreeSet<String> = BTreeSet::new();
    for e in &edges {
        let cyclic = reaches(&adj, &e.to, &e.from);
        let site = format!("{}:{}", units[e.unit].prepared.file.path, e.line);
        let attr = if cyclic {
            format!(" [label=\"{site}\", color=red]")
        } else {
            format!(" [label=\"{site}\"]")
        };
        lock_lines.insert(format!(
            "  \"{}::{}\" -> \"{}::{}\"{attr};",
            e.from.0, e.from.1, e.to.0, e.to.1
        ));
    }
    let _ = writeln!(s, "digraph lock_order {{");
    for key in nodes {
        let _ = writeln!(s, "  \"{}::{}\";", key.0, key.1);
    }
    for line in lock_lines {
        let _ = writeln!(s, "{line}");
    }
    let _ = writeln!(s, "}}");
    s
}
