//! `netdiag explain`: replays a JSONL event trace (written with
//! `--trace`) into a human-readable causal narrative — for each diagnosis
//! run of one trial, why every hypothesis link was blamed, which
//! control-plane evidence corroborated it, and what stayed unexplained.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use netdiag_obs::json::{self, Json};
use netdiag_obs::names;

/// Which trial (and optionally which algorithm) to narrate.
#[derive(Clone, Debug, Default)]
pub struct ExplainFilter {
    /// Placement id; defaults to the first placement with a diagnosis.
    pub placement: Option<u32>,
    /// Trial id; defaults to the first trial with a diagnosis.
    pub trial: Option<u32>,
    /// Restrict to one algorithm (`tomo`, `nd-edge`, `nd-bgpigp`, `nd-lg`).
    pub algo: Option<String>,
}

/// One parsed trace event.
struct Ev {
    name: String,
    placement: Option<u64>,
    trial: Option<u64>,
    seq: u64,
    payload: Json,
}

/// One `diag.start` … `diag.done` run within a trial.
#[derive(Default)]
struct DiagBlock {
    algorithm: String,
    reroute_sets: Vec<Json>,
    lg_tags: Vec<Json>,
    forced: Vec<Json>,
    exonerated: Vec<Json>,
    picks: Vec<Json>,
    problem: Option<Json>,
    done: Option<Json>,
}

/// Renders the causal narrative for one trial of `trace_jsonl`.
///
/// Returns the narrative text, or a description of what went wrong (bad
/// JSON, no diagnosis events, no matching trial).
pub fn explain(trace_jsonl: &str, filter: &ExplainFilter) -> Result<String, String> {
    let events = parse_events(trace_jsonl)?;
    if events.is_empty() {
        return Err("trace is empty".into());
    }

    // Pick the (placement, trial) to narrate: the first diagnosis start
    // compatible with the filters.
    let target = events
        .iter()
        .find(|e| {
            e.name == names::EV_DIAG_START
                && filter
                    .placement
                    .is_none_or(|p| e.placement == Some(u64::from(p)))
                && filter.trial.is_none_or(|t| e.trial == Some(u64::from(t)))
        })
        .and_then(|e| Some((e.placement?, e.trial?)));
    let Some((p, t)) = target else {
        return Err("no matching diagnosis events in the trace \
             (was the run traced? do --placement/--trial exist?)"
            .into());
    };

    let mut trial_events: Vec<&Ev> = events
        .iter()
        .filter(|e| e.placement == Some(p) && e.trial == Some(t))
        .collect();
    trial_events.sort_by_key(|e| e.seq);

    let blocks = group_blocks(&trial_events);
    let blocks: Vec<&DiagBlock> = blocks
        .iter()
        .filter(|b| filter.algo.as_deref().is_none_or(|a| a == b.algorithm))
        .collect();
    if blocks.is_empty() {
        return Err(format!(
            "trial {t} of placement {p} has no diagnosis matching the --algo filter"
        ));
    }

    let mut out = String::new();
    render_trial_header(&mut out, &trial_events, p, t);
    for b in blocks {
        render_block(&mut out, b);
    }
    Ok(out)
}

/// Parses the JSONL lines into events, rejecting malformed lines.
fn parse_events(trace_jsonl: &str) -> Result<Vec<Ev>, String> {
    let mut events = Vec::new();
    for (i, line) in trace_jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: event has no \"name\"", i + 1))?
            .to_string();
        events.push(Ev {
            name,
            placement: v.get("placement").and_then(Json::as_u64),
            trial: v.get("trial").and_then(Json::as_u64),
            seq: v.get("seq").and_then(Json::as_u64).unwrap_or(0),
            payload: v.get("payload").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(events)
}

/// Splits a trial's events into per-diagnosis blocks. Events outside a
/// `diag.start`…`diag.done` window (probing, BGP chatter) are ignored
/// here; the header summarises them separately.
fn group_blocks(trial_events: &[&Ev]) -> Vec<DiagBlock> {
    let mut blocks: Vec<DiagBlock> = Vec::new();
    let mut current: Option<DiagBlock> = None;
    for e in trial_events {
        match e.name.as_str() {
            n if n == names::EV_DIAG_START => {
                current = Some(DiagBlock {
                    algorithm: e
                        .payload
                        .get("algorithm")
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    ..DiagBlock::default()
                });
            }
            n if n == names::EV_DIAG_DONE => {
                if let Some(mut b) = current.take() {
                    b.done = Some(e.payload.clone());
                    blocks.push(b);
                }
            }
            _ => {
                let Some(b) = current.as_mut() else { continue };
                match e.name.as_str() {
                    n if n == names::EV_DIAG_REROUTE_SET => b.reroute_sets.push(e.payload.clone()),
                    n if n == names::EV_DIAG_LG_TAG => b.lg_tags.push(e.payload.clone()),
                    n if n == names::EV_FEED_FORCED => b.forced.push(e.payload.clone()),
                    n if n == names::EV_FEED_EXONERATED => b.exonerated.push(e.payload.clone()),
                    n if n == names::EV_HS_PICK => b.picks.push(e.payload.clone()),
                    n if n == names::EV_DIAG_PROBLEM => b.problem = Some(e.payload.clone()),
                    _ => {}
                }
            }
        }
    }
    blocks
}

/// Renders what happened to the trial before diagnosis: the injected
/// failure and the measurement summary.
fn render_trial_header(out: &mut String, trial_events: &[&Ev], p: u64, t: u64) {
    let _ = writeln!(out, "=== placement {p}, trial {t} ===");
    if let Some(attempt) = trial_events
        .iter()
        .rev()
        .find(|e| e.name == names::EV_TRIAL_ATTEMPT)
    {
        let kind = attempt
            .payload
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or("?");
        let n = attempt.payload.get("attempt").and_then(Json::as_u64);
        let _ = match n {
            Some(n) => writeln!(
                out,
                "injected failure: {kind} (accepted on sampling attempt {n})"
            ),
            None => writeln!(out, "injected failure: {kind}"),
        };
    }
    let failed_links = trial_events
        .iter()
        .filter(|e| e.name == names::EV_SIM_LINK_FAIL)
        .count();
    let withdrawals = trial_events
        .iter()
        .filter(|e| {
            e.name == names::EV_BGP_MESSAGE
                && e.payload.get("kind").and_then(Json::as_str) == Some("withdraw")
        })
        .count();
    let probes = trial_events
        .iter()
        .filter(|e| e.name == names::EV_PROBE_TRACEROUTE)
        .count();
    if failed_links + withdrawals + probes > 0 {
        let _ = writeln!(
            out,
            "observed: {failed_links} link-down events, {withdrawals} BGP withdrawals, \
             {probes} traceroutes"
        );
    }
}

/// Renders one diagnosis run: the problem shape, then the causal story of
/// every hypothesis link.
fn render_block(out: &mut String, b: &DiagBlock) {
    let _ = writeln!(out, "\n--- {} ---", b.algorithm);

    let empty = Json::Null;
    let problem = b.problem.as_ref().unwrap_or(&empty);
    let labels = edge_label_map(problem);
    let failure_pairs = str_list(problem.get("failure_pairs"));
    let reroute_pairs = str_list(problem.get("reroute_pairs"));
    let _ = writeln!(
        out,
        "problem: {} candidate links, {} failed pairs, {} rerouted pairs",
        num(problem.get("candidates")),
        failure_pairs.len(),
        reroute_pairs.len(),
    );
    if !b.lg_tags.is_empty() {
        let _ = writeln!(out, "unidentified hops mapped by Looking Glass:");
        render_lg_tags(out, &b.lg_tags);
    }

    let Some(done) = b.done.as_ref() else {
        let _ = writeln!(out, "(diagnosis did not finish in this trace)");
        return;
    };
    let hypothesis = u64_list(done.get("hypothesis"));
    let forced_ids = u64_list(done.get("forced"));
    if hypothesis.is_empty() {
        let _ = writeln!(out, "hypothesis: empty (nothing to explain)");
    } else {
        let _ = writeln!(out, "hypothesis ({} links):", hypothesis.len());
    }
    for (rank, &edge) in hypothesis.iter().enumerate() {
        let label = labels
            .get(&edge)
            .cloned()
            .unwrap_or_else(|| format!("edge {edge}"));
        let _ = writeln!(out, "  {}. {label}", rank + 1);
        if forced_ids.contains(&edge) {
            render_forced(out, b, edge);
        }
        if let Some(pick) = b
            .picks
            .iter()
            .find(|p| p.get("edge").and_then(Json::as_u64) == Some(edge))
        {
            render_pick(out, pick, &failure_pairs, &reroute_pairs, b);
        }
    }

    if !b.exonerated.is_empty() {
        let _ = writeln!(out, "exonerated by BGP withdrawals:");
        for ex in &b.exonerated {
            let _ = writeln!(
                out,
                "  - {} cleared: withdrawal of {} received from neighbor {}",
                text(ex.get("label")),
                text(ex.get("prefix")),
                text(ex.get("neighbor")),
            );
        }
    }

    let unexplained = u64_list(done.get("unexplained_failures"));
    if unexplained.is_empty() {
        let _ = writeln!(out, "every failed pair is explained");
    } else {
        let pairs: Vec<String> = unexplained
            .iter()
            .map(|&i| {
                failure_pairs
                    .get(i as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("pair {i}"))
            })
            .collect();
        let _ = writeln!(out, "unexplained failed pairs: {}", pairs.join(", "));
    }
}

/// Renders ND-LG's hop tags, one line per run of consecutive hops of a
/// path that got the same candidate ASes from the same Looking Glass
/// answer.
fn render_lg_tags(out: &mut String, tags: &[Json]) {
    let ases = |tag: &Json, key: &str| -> Vec<String> {
        u64_list(tag.get(key))
            .iter()
            .map(|a| format!("AS{a}"))
            .collect()
    };
    // (path, what its hops were tagged with, first hop, last hop)
    let mut runs: Vec<(String, String, u64, u64)> = Vec::new();
    for tag in tags {
        let path = text(tag.get("path"));
        let tagged = format!(
            "candidate ASes {{{}}} (Looking Glass AS path {})",
            ases(tag, "candidates").join(", "),
            ases(tag, "lg_path").join(" "),
        );
        let hop = tag.get("hop").and_then(Json::as_u64).unwrap_or(0);
        match runs.last_mut() {
            Some((p, t, _, last)) if *p == path && *t == tagged && *last + 1 == hop => *last = hop,
            _ => runs.push((path, tagged, hop, hop)),
        }
    }
    for (path, tagged, first, last) in runs {
        let hops = if first == last {
            format!("hop {first}")
        } else {
            format!("hops {first}-{last}")
        };
        let _ = writeln!(out, "  - {path} path, {hops}: {tagged}");
    }
}

/// Renders the IGP corroboration of a forced hypothesis link.
fn render_forced(out: &mut String, b: &DiagBlock, edge: u64) {
    match b
        .forced
        .iter()
        .find(|f| f.get("edge").and_then(Json::as_u64) == Some(edge))
    {
        Some(f) => {
            let _ = writeln!(
                out,
                "     forced into the hypothesis: AS-X's IGP reported the \
                 {} -- {} link down",
                text(f.get("addr_a")),
                text(f.get("addr_b")),
            );
        }
        None => {
            let _ = writeln!(
                out,
                "     forced into the hypothesis by an IGP link-down event"
            );
        }
    }
}

/// Renders the greedy-cover justification of a picked hypothesis link.
fn render_pick(
    out: &mut String,
    pick: &Json,
    failure_pairs: &[String],
    reroute_pairs: &[String],
    b: &DiagBlock,
) {
    let covered_f = u64_list(pick.get("covered_failures"));
    let covered_r = u64_list(pick.get("covered_reroutes"));
    let name_of = |pairs: &[String], i: u64| {
        pairs
            .get(i as usize)
            .cloned()
            .unwrap_or_else(|| format!("pair {i}"))
    };
    let f_names: Vec<String> = covered_f
        .iter()
        .map(|&i| name_of(failure_pairs, i))
        .collect();
    if covered_f.is_empty() && covered_r.is_empty() {
        // Algorithm 1 adds every argmax edge of an iteration; ties after
        // the first cover pairs already counted under that first pick.
        let _ = writeln!(
            out,
            "     tied at greedy iteration {} (score {}): explains the same \
             pairs as the pick above",
            num(pick.get("iter")),
            num(pick.get("score")),
        );
        return;
    }
    let _ = writeln!(
        out,
        "     blamed at greedy iteration {} (score {}): covers {} failed \
         probe pair{}{}{}",
        num(pick.get("iter")),
        num(pick.get("score")),
        covered_f.len(),
        if covered_f.len() == 1 { "" } else { "s" },
        if f_names.is_empty() { "" } else { ": " },
        f_names.join(", "),
    );
    for &i in &covered_r {
        let pair = name_of(reroute_pairs, i);
        let _ = writeln!(
            out,
            "     reroute corroborates: pair {pair} kept working but moved \
             off this link"
        );
        // The reroute-set event for that pair lists the alternatives the
        // new path excluded.
        if let Some(rs) = b.reroute_sets.iter().find(|r| {
            let src = r.get("src").and_then(Json::as_u64);
            let dst = r.get("dst").and_then(Json::as_u64);
            matches!((src, dst), (Some(s), Some(d)) if format!("s{s}->s{d}") == pair)
        }) {
            let excluded = str_list(rs.get("excluded"));
            if !excluded.is_empty() {
                let _ = writeln!(
                    out,
                    "       its old path also abandoned: {}",
                    excluded.join(", ")
                );
            }
        }
    }
}

/// The `edge_labels` table of `diag.problem` as an id → label map.
fn edge_label_map(problem: &Json) -> BTreeMap<u64, String> {
    let mut map = BTreeMap::new();
    if let Some(entries) = problem.get("edge_labels").and_then(Json::as_array) {
        for entry in entries {
            if let Some([id, label]) = entry.as_array() {
                if let (Some(id), Some(label)) = (id.as_u64(), label.as_str()) {
                    map.insert(id, label.to_string());
                }
            }
        }
    }
    map
}

/// A JSON array of strings, or empty.
fn str_list(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

/// A JSON array of numbers, or empty.
fn u64_list(v: Option<&Json>) -> Vec<u64> {
    v.and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_u64).collect())
        .unwrap_or_default()
}

/// A numeric field rendered for display (`?` when absent).
fn num(v: Option<&Json>) -> String {
    v.and_then(Json::as_u64)
        .map_or_else(|| "?".into(), |n| n.to_string())
}

/// A string field rendered for display (`?` when absent).
fn text(v: Option<&Json>) -> String {
    v.and_then(Json::as_str).unwrap_or("?").to_string()
}
