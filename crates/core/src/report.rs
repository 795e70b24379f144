//! Structured diagnosis reports — what the troubleshooter hands the
//! operator (and the serve daemon hands its clients).
//!
//! A [`DiagnosticReport`] is a severity-ranked list of typed [`Issue`]s
//! plus whole-run [`ReportCounters`], built from a [`Diagnosis`] under a
//! [`DiagnosticsConfig`]. It serializes to a stable, schema-versioned JSON
//! document ([`DiagnosticReport::to_json`] / [`from_json`]) and its
//! [`Display`](std::fmt::Display) renders the historical flat-text report
//! byte-for-byte.
//!
//! [`from_json`]: DiagnosticReport::from_json

use std::fmt;
use std::fmt::Write as _;

use netdiag_obs::json::{self, Json};
use netdiag_obs::push_json_string;

use crate::algorithms::Algorithm;
use crate::config::DiagnosticsConfig;
use crate::diagnosis::Diagnosis;
use crate::graph::LogicalPart;

/// Version tag written into every report, bumped on shape changes.
pub const REPORT_SCHEMA_VERSION: u32 = 1;

/// How urgent one finding (or a whole report) is. Ordered: a report's
/// overall severity is the maximum over its issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// Context the operator may want (e.g. the AS-level summary).
    #[default]
    Info,
    /// Something needs attention but the evidence is indirect.
    Warning,
    /// A concrete suspect backed by probe evidence.
    Error,
    /// Corroborated by control-plane data — act on it.
    Critical,
}

impl Severity {
    /// The canonical lowercase name (used in JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
            Severity::Critical => "critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "info" => Ok(Severity::Info),
            "warning" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            "critical" => Ok(Severity::Critical),
            other => Err(format!("unknown severity {other:?}")),
        }
    }
}

/// What kind of finding an [`Issue`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IssueCategory {
    /// An identified link whose failure explains broken paths.
    LinkFailure,
    /// An identified logical link: only routes toward one AS break,
    /// pointing at a BGP export misconfiguration rather than a dead wire.
    ExportMisconfig,
    /// Unidentified links behind traceroute-blocking hops, grouped by
    /// candidate-AS attribution.
    UnidentifiedLinks,
    /// The AS-level summary of the hypothesis.
    SuspectAses,
    /// Failed paths no candidate link can explain.
    UnexplainedFailures,
}

impl IssueCategory {
    /// The canonical kebab-case name (used in JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            IssueCategory::LinkFailure => "link-failure",
            IssueCategory::ExportMisconfig => "export-misconfig",
            IssueCategory::UnidentifiedLinks => "unidentified-links",
            IssueCategory::SuspectAses => "suspect-ases",
            IssueCategory::UnexplainedFailures => "unexplained-failures",
        }
    }
}

impl std::str::FromStr for IssueCategory {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "link-failure" => Ok(IssueCategory::LinkFailure),
            "export-misconfig" => Ok(IssueCategory::ExportMisconfig),
            "unidentified-links" => Ok(IssueCategory::UnidentifiedLinks),
            "suspect-ases" => Ok(IssueCategory::SuspectAses),
            "unexplained-failures" => Ok(IssueCategory::UnexplainedFailures),
            other => Err(format!("unknown issue category {other:?}")),
        }
    }
}

/// The typed evidence behind one [`Issue`].
#[derive(Clone, Debug, PartialEq)]
pub enum IssueDetail {
    /// One identified suspect link.
    Link {
        /// Rendered source endpoint (address or unidentified-hop label).
        from: String,
        /// Rendered destination endpoint.
        to: String,
        /// Failure sets this link's failure would explain.
        failed_explained: usize,
        /// Reroute sets consistent with this link's failure.
        rerouted_explained: usize,
        /// `Some(AS)` when only routes toward that AS break (a logical
        /// link — likely a BGP export misconfiguration).
        misconfig_toward: Option<String>,
        /// Did an IGP link-down message corroborate the suspicion?
        igp_confirmed: bool,
    },
    /// A group of unidentified links sharing one AS attribution.
    UnidentifiedGroup {
        /// How many unidentified links share this attribution.
        count: usize,
        /// Candidate ASes (rendered names); empty when no Looking Glass
        /// covered the hops.
        as_candidates: Vec<String>,
    },
    /// The AS-level hypothesis summary.
    AsSummary {
        /// Rendered names of every suspect AS.
        ases: Vec<String>,
    },
    /// Failed paths exonerating every candidate link on them.
    Unexplained {
        /// Number of unexplained failed paths.
        count: usize,
    },
}

/// One finding of a diagnosis run.
#[derive(Clone, Debug, PartialEq)]
pub struct Issue {
    /// How urgent this finding is.
    pub severity: Severity,
    /// What kind of finding it is.
    pub category: IssueCategory,
    /// Evidence strength in `[0, 1]` — for links, the fraction of
    /// observed failure/reroute sets this suspect explains (`1.0` when
    /// IGP-confirmed).
    pub confidence: f64,
    /// One-line human summary.
    pub message: String,
    /// The typed evidence.
    pub detail: IssueDetail,
}

/// Whole-run tallies (the report header, machine-readable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ReportCounters {
    /// Observed failed paths (= failure sets).
    pub failed_paths: usize,
    /// Observed rerouted-but-working paths (= reroute sets).
    pub rerouted_paths: usize,
    /// Distinct probed links in the inference graph.
    pub probed_links: usize,
    /// Hypothesis size (identified + unidentified suspect links).
    pub suspect_links: usize,
    /// Distinct ASes implicated by the hypothesis.
    pub suspect_ases: usize,
    /// Failed paths no candidate link explains.
    pub unexplained_failures: usize,
}

/// A structured diagnosis report: severity-ranked issues + counters.
///
/// Built by [`DiagnosticReport::from_diagnosis`] (or
/// [`NetDiagnoser::report`](crate::NetDiagnoser::report)); `Display`
/// renders the historical operator text, [`to_json`] the versioned wire
/// form.
///
/// [`to_json`]: DiagnosticReport::to_json
#[derive(Clone, Debug, PartialEq)]
pub struct DiagnosticReport {
    /// Schema version of the JSON form ([`REPORT_SCHEMA_VERSION`]).
    pub schema: u32,
    /// The algorithm that produced the diagnosis.
    pub algorithm: Algorithm,
    /// Overall severity: the maximum over all issues.
    pub severity: Severity,
    /// Overall confidence: the fraction of failed paths the hypothesis
    /// explains (`1.0` when nothing failed).
    pub confidence: f64,
    /// Whole-run tallies.
    pub counters: ReportCounters,
    /// Findings, most severe first (stable within equal severity:
    /// evidence-rank order for links, attribution order for groups).
    pub issues: Vec<Issue>,
}

impl DiagnosticReport {
    /// Builds the report for `diagnosis` under `config`.
    ///
    /// `config.min_confidence` and `config.max_issues` filter only the
    /// link/group findings (the hypothesis); the AS summary and the
    /// unexplained-failure caveat are always kept — suppressing the
    /// caveat would hide exactly the uncertainty thresholds exist to
    /// surface.
    pub fn from_diagnosis(diagnosis: &Diagnosis, config: &DiagnosticsConfig) -> Self {
        let graph = diagnosis.graph();
        let set_total = diagnosis.problem.failure_sets.len() + diagnosis.problem.reroute_sets.len();
        let counters = ReportCounters {
            failed_paths: diagnosis.problem.failure_sets.len(),
            rerouted_paths: diagnosis.problem.reroute_sets.len(),
            probed_links: graph.edge_count(),
            suspect_links: diagnosis.len(),
            suspect_ases: diagnosis.as_hypothesis().len(),
            unexplained_failures: diagnosis.unexplained_failures(),
        };

        // Identified links individually (strongest evidence first, from
        // the shared ranking); unidentified ones grouped by candidate-AS
        // attribution, exactly as the flat report always has.
        let ranked = crate::ranking::rank(diagnosis);
        let mut issues: Vec<Issue> = Vec::new();
        let mut groups: std::collections::BTreeMap<Vec<String>, (usize, f64)> = Default::default();
        for r in &ranked {
            let coverage = if set_total == 0 {
                1.0
            } else {
                (r.failure_sets_hit + r.reroute_sets_hit) as f64 / set_total as f64
            };
            if graph.is_unidentified(r.edge) {
                let ases: Vec<String> = diagnosis
                    .problem
                    .graph
                    .edge_as_set(r.edge)
                    .iter()
                    .map(|a| a.to_string())
                    .collect();
                let slot = groups.entry(ases).or_insert((0, 0.0));
                slot.0 += 1;
                slot.1 = slot.1.max(coverage);
                continue;
            }
            let data = graph.edge(r.edge);
            let (from, to) = graph.endpoints(r.edge);
            let misconfig_toward = match data.logical {
                Some(LogicalPart::First(a)) | Some(LogicalPart::Second(a)) => Some(a.to_string()),
                None => None,
            };
            let severity = if r.forced_by_igp {
                Severity::Critical
            } else {
                Severity::Error
            };
            let confidence = if r.forced_by_igp { 1.0 } else { coverage };
            let category = if misconfig_toward.is_some() {
                IssueCategory::ExportMisconfig
            } else {
                IssueCategory::LinkFailure
            };
            let (from, to) = (fmt_node(&from), fmt_node(&to));
            let mut message = format!(
                "suspect link {from} -> {to} explains {} failed / {} rerouted path(s)",
                r.failure_sets_hit, r.reroute_sets_hit
            );
            if let Some(a) = &misconfig_toward {
                let _ = write!(
                    message,
                    "; only routes toward {a} (export misconfiguration)"
                );
            }
            if r.forced_by_igp {
                message.push_str("; confirmed by IGP link-down");
            }
            issues.push(Issue {
                severity,
                category,
                confidence,
                message,
                detail: IssueDetail::Link {
                    from,
                    to,
                    failed_explained: r.failure_sets_hit,
                    rerouted_explained: r.reroute_sets_hit,
                    misconfig_toward,
                    igp_confirmed: r.forced_by_igp,
                },
            });
        }
        for (ases, (count, confidence)) in groups {
            let place = group_place(&ases);
            issues.push(Issue {
                severity: Severity::Warning,
                category: IssueCategory::UnidentifiedLinks,
                confidence,
                message: format!(
                    "{count} unidentified link(s) behind traceroute-blocking hops — {place}"
                ),
                detail: IssueDetail::UnidentifiedGroup {
                    count,
                    as_candidates: ases,
                },
            });
        }

        // Reporting thresholds apply to the hypothesis findings only.
        issues.retain(|i| i.confidence >= config.min_confidence);
        issues.sort_by_key(|issue| std::cmp::Reverse(issue.severity));
        if config.max_issues > 0 {
            issues.truncate(config.max_issues);
        }

        let ases: Vec<String> = diagnosis
            .as_hypothesis()
            .iter()
            .map(|a| a.to_string())
            .collect();
        if !ases.is_empty() {
            issues.push(Issue {
                severity: Severity::Info,
                category: IssueCategory::SuspectAses,
                confidence: 1.0,
                message: format!("suspect ASes: {}", ases.join(", ")),
                detail: IssueDetail::AsSummary { ases },
            });
        }
        if counters.unexplained_failures > 0 {
            issues.push(Issue {
                severity: Severity::Warning,
                category: IssueCategory::UnexplainedFailures,
                confidence: 1.0,
                message: format!(
                    "{} failed path(s) could not be explained by any candidate link",
                    counters.unexplained_failures
                ),
                detail: IssueDetail::Unexplained {
                    count: counters.unexplained_failures,
                },
            });
        }
        issues.sort_by_key(|issue| std::cmp::Reverse(issue.severity));

        let severity = issues
            .iter()
            .map(|i| i.severity)
            .max()
            .unwrap_or(Severity::Info);
        let confidence = if counters.failed_paths == 0 {
            1.0
        } else {
            1.0 - counters.unexplained_failures as f64 / counters.failed_paths as f64
        };
        DiagnosticReport {
            schema: REPORT_SCHEMA_VERSION,
            algorithm: config.algorithm,
            severity,
            confidence,
            counters,
            issues,
        }
    }

    /// Serializes to compact single-line JSON with a stable field order
    /// (embeddable in the daemon's line-delimited protocol).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"schema\":{},\"algorithm\":\"{}\",\"severity\":\"{}\",\"confidence\":",
            self.schema, self.algorithm, self.severity
        );
        push_f64(&mut out, self.confidence);
        let c = &self.counters;
        let _ = write!(
            out,
            ",\"counters\":{{\"failed_paths\":{},\"rerouted_paths\":{},\"probed_links\":{},\
             \"suspect_links\":{},\"suspect_ases\":{},\"unexplained_failures\":{}}},\"issues\":[",
            c.failed_paths,
            c.rerouted_paths,
            c.probed_links,
            c.suspect_links,
            c.suspect_ases,
            c.unexplained_failures
        );
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            issue.push_json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Parses the JSON form back into a report.
    ///
    /// Rejects documents of a different [`schema`](Self::schema) version
    /// — the caller is looking at a report this build does not
    /// understand.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = json::parse(src)?;
        Self::from_json_value(&doc)
    }

    /// Parses an already-decoded JSON value (e.g. a field of a larger
    /// protocol message) into a report.
    pub fn from_json_value(doc: &Json) -> Result<Self, String> {
        let schema = field_u64(doc, "schema")? as u32;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported report schema {schema} (this build reads {REPORT_SCHEMA_VERSION})"
            ));
        }
        let algorithm = field_str(doc, "algorithm")?.parse::<Algorithm>()?;
        let severity = field_str(doc, "severity")?.parse::<Severity>()?;
        let confidence = field_f64(doc, "confidence")?;
        let c = doc
            .get("counters")
            .ok_or_else(|| "missing field \"counters\"".to_string())?;
        let counters = ReportCounters {
            failed_paths: field_u64(c, "failed_paths")? as usize,
            rerouted_paths: field_u64(c, "rerouted_paths")? as usize,
            probed_links: field_u64(c, "probed_links")? as usize,
            suspect_links: field_u64(c, "suspect_links")? as usize,
            suspect_ases: field_u64(c, "suspect_ases")? as usize,
            unexplained_failures: field_u64(c, "unexplained_failures")? as usize,
        };
        let issues = doc
            .get("issues")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing array \"issues\"".to_string())?
            .iter()
            .map(Issue::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(DiagnosticReport {
            schema,
            algorithm,
            severity,
            confidence,
            counters,
            issues,
        })
    }
}

impl Issue {
    fn push_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"severity\":\"{}\",\"category\":\"{}\",\"confidence\":",
            self.severity,
            self.category.as_str()
        );
        push_f64(out, self.confidence);
        out.push_str(",\"message\":");
        push_json_string(out, &self.message);
        match &self.detail {
            IssueDetail::Link {
                from,
                to,
                failed_explained,
                rerouted_explained,
                misconfig_toward,
                igp_confirmed,
            } => {
                out.push_str(",\"link\":{\"from\":");
                push_json_string(out, from);
                out.push_str(",\"to\":");
                push_json_string(out, to);
                let _ = write!(
                    out,
                    ",\"failed_explained\":{failed_explained},\
                     \"rerouted_explained\":{rerouted_explained},\"misconfig_toward\":"
                );
                match misconfig_toward {
                    Some(a) => push_json_string(out, a),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"igp_confirmed\":{igp_confirmed}}}");
            }
            IssueDetail::UnidentifiedGroup {
                count,
                as_candidates,
            } => {
                let _ = write!(
                    out,
                    ",\"unidentified\":{{\"count\":{count},\"as_candidates\":["
                );
                for (i, a) in as_candidates.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(out, a);
                }
                out.push_str("]}");
            }
            IssueDetail::AsSummary { ases } => {
                out.push_str(",\"ases\":[");
                for (i, a) in ases.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_string(out, a);
                }
                out.push(']');
            }
            IssueDetail::Unexplained { count } => {
                let _ = write!(out, ",\"unexplained\":{{\"count\":{count}}}");
            }
        }
        out.push('}');
    }

    fn from_json_value(doc: &Json) -> Result<Self, String> {
        let severity = field_str(doc, "severity")?.parse::<Severity>()?;
        let category = field_str(doc, "category")?.parse::<IssueCategory>()?;
        let confidence = field_f64(doc, "confidence")?;
        let message = field_str(doc, "message")?.to_owned();
        let detail = if let Some(l) = doc.get("link") {
            IssueDetail::Link {
                from: field_str(l, "from")?.to_owned(),
                to: field_str(l, "to")?.to_owned(),
                failed_explained: field_u64(l, "failed_explained")? as usize,
                rerouted_explained: field_u64(l, "rerouted_explained")? as usize,
                misconfig_toward: match l.get("misconfig_toward") {
                    None => return Err("missing field \"misconfig_toward\"".to_string()),
                    Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_str()
                            .ok_or_else(|| "\"misconfig_toward\" is not a string".to_string())?
                            .to_owned(),
                    ),
                },
                igp_confirmed: match l.get("igp_confirmed") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err("missing bool \"igp_confirmed\"".to_string()),
                },
            }
        } else if let Some(u) = doc.get("unidentified") {
            IssueDetail::UnidentifiedGroup {
                count: field_u64(u, "count")? as usize,
                as_candidates: string_array(u, "as_candidates")?,
            }
        } else if doc.get("ases").is_some() {
            IssueDetail::AsSummary {
                ases: string_array(doc, "ases")?,
            }
        } else if let Some(u) = doc.get("unexplained") {
            IssueDetail::Unexplained {
                count: field_u64(u, "count")? as usize,
            }
        } else {
            return Err("issue carries no detail object".to_string());
        };
        Ok(Issue {
            severity,
            category,
            confidence,
            message,
            detail,
        })
    }
}

impl fmt::Display for DiagnosticReport {
    /// The historical operator-facing flat-text report, reproduced
    /// byte-for-byte from the typed issues (for a default-threshold
    /// report; filtered reports render their filtered contents).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== NetDiagnoser report ===")?;
        writeln!(
            f,
            "observed: {} failed path(s), {} rerouted path(s), {} probed link(s)",
            self.counters.failed_paths, self.counters.rerouted_paths, self.counters.probed_links,
        )?;
        if self.counters.suspect_links == 0 {
            return writeln!(f, "no suspect links (nothing to explain)");
        }

        writeln!(f, "\nsuspect links ({}):", self.counters.suspect_links)?;
        for issue in &self.issues {
            let IssueDetail::Link {
                from,
                to,
                failed_explained,
                rerouted_explained,
                misconfig_toward,
                igp_confirmed,
            } = &issue.detail
            else {
                continue;
            };
            write!(
                f,
                "  {from} -> {to}  [explains {failed_explained} failed / \
                 {rerouted_explained} rerouted path(s)]"
            )?;
            if let Some(a) = misconfig_toward {
                write!(
                    f,
                    "  (only for routes toward {a}: likely a BGP export misconfiguration)"
                )?;
            }
            if *igp_confirmed {
                write!(f, "  [confirmed by IGP link-down]")?;
            }
            writeln!(f)?;
        }
        for issue in &self.issues {
            let IssueDetail::UnidentifiedGroup {
                count,
                as_candidates,
            } = &issue.detail
            else {
                continue;
            };
            let place = group_place(as_candidates);
            writeln!(
                f,
                "  {count} unidentified link(s) behind traceroute-blocking hops — {place}"
            )?;
        }

        for issue in &self.issues {
            if let IssueDetail::AsSummary { ases } = &issue.detail {
                writeln!(f, "\nsuspect ASes: {}", ases.join(", "))?;
            }
        }
        if self.counters.unexplained_failures > 0 {
            writeln!(
                f,
                "\nwarning: {} failed path(s) could not be explained by any \
                 candidate link (evidence exonerates every link on them)",
                self.counters.unexplained_failures
            )?;
        }
        Ok(())
    }
}

/// The attribution phrase of an unidentified-link group.
fn group_place(ases: &[String]) -> String {
    if ases.is_empty() {
        "unmapped ASes (no Looking Glass coverage)".to_string()
    } else {
        format!("AS candidates {{{}}}", ases.join(", "))
    }
}

fn fmt_node(node: &crate::graph::HopNode) -> String {
    match node {
        crate::graph::HopNode::Ip(a) => a.to_string(),
        crate::graph::HopNode::Uh(path, pos) => format!(
            "unidentified-hop({:?}#{} pos {pos})",
            path.epoch, path.index
        ),
    }
}

/// Appends `v` as a JSON number. Confidences are finite by construction;
/// a non-finite value (impossible via the public constructors) serializes
/// as `null` rather than emitting invalid JSON.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

fn field_f64(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(n)) => Ok(*n),
        _ => Err(format!("missing number field {key:?}")),
    }
}

fn string_array(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array field {key:?}"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("non-string element in {key:?}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::{Hop, IpToAsFn, Observations, ProbePath, SensorMeta, Snapshot};
    use netdiag_topology::{AsId, SensorId};
    use std::net::Ipv4Addr;

    fn obs() -> Observations {
        let a = |x: u8, y: u8| Ipv4Addr::new(10, x, 0, y);
        Observations {
            sensors: vec![
                SensorMeta {
                    id: SensorId(0),
                    addr: a(1, 200),
                    as_id: AsId(1),
                },
                SensorMeta {
                    id: SensorId(1),
                    addr: a(2, 200),
                    as_id: AsId(2),
                },
            ],
            before: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(a(1, 1)), Hop::Addr(a(2, 1)), Hop::Addr(a(2, 200))],
                    reached: true,
                }],
            },
            after: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(a(1, 1))],
                    reached: false,
                }],
            },
        }
    }

    fn ip2as() -> IpToAsFn<impl Fn(Ipv4Addr) -> Option<AsId>> {
        IpToAsFn(|addr: Ipv4Addr| Some(AsId(u32::from(addr.octets()[1]))))
    }

    #[test]
    fn report_lists_suspects_and_ases() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let text = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default()).to_string();
        assert!(text.contains("suspect links"));
        assert!(text.contains("suspect ASes"));
        assert!(text.contains("10.2.0.1"));
    }

    #[test]
    fn empty_diagnosis_reports_nothing_to_explain() {
        let mut o = obs();
        o.after = o.before.clone(); // nothing failed
        let d = crate::algorithms::tomo(&o, &ip2as());
        let text = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default()).to_string();
        assert!(text.contains("no suspect links"));
    }

    #[test]
    fn issues_are_severity_ranked() {
        let d =
            crate::algorithms::nd_edge(&obs(), &ip2as(), crate::hitting_set::Weights::default());
        let report = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default());
        assert!(!report.issues.is_empty());
        assert!(report
            .issues
            .windows(2)
            .all(|w| w[0].severity >= w[1].severity));
        let max = report
            .issues
            .iter()
            .map(|i| i.severity)
            .max()
            .expect("non-empty issue list has a maximum severity");
        assert_eq!(report.severity, max);
    }

    #[test]
    fn counters_mirror_the_diagnosis() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let report = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default());
        assert_eq!(report.counters.suspect_links, d.len());
        assert_eq!(report.counters.failed_paths, d.problem.failure_sets.len());
        assert_eq!(
            report.counters.unexplained_failures,
            d.unexplained_failures()
        );
        assert_eq!(report.counters.suspect_ases, d.as_hypothesis().len());
    }

    #[test]
    fn max_issues_caps_hypothesis_findings_but_keeps_the_summary() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let cfg = DiagnosticsConfig {
            max_issues: 1,
            ..Default::default()
        };
        let report = DiagnosticReport::from_diagnosis(&d, &cfg);
        let links = report
            .issues
            .iter()
            .filter(|i| matches!(i.detail, IssueDetail::Link { .. }))
            .count();
        assert_eq!(links, 1);
        assert!(report
            .issues
            .iter()
            .any(|i| i.category == IssueCategory::SuspectAses));
    }

    #[test]
    fn min_confidence_drops_weak_findings() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let cfg = DiagnosticsConfig {
            min_confidence: 1.1, // nothing reaches it
            ..Default::default()
        };
        let report = DiagnosticReport::from_diagnosis(&d, &cfg);
        assert!(report
            .issues
            .iter()
            .all(|i| !matches!(i.detail, IssueDetail::Link { .. })));
    }

    #[test]
    fn json_round_trips() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let report = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default());
        let parsed = DiagnosticReport::from_json(&report.to_json()).expect("own JSON parses");
        assert_eq!(parsed, report);
    }

    #[test]
    fn other_schema_versions_are_rejected() {
        let d = crate::algorithms::tomo(&obs(), &ip2as());
        let json = DiagnosticReport::from_diagnosis(&d, &DiagnosticsConfig::default())
            .to_json()
            .replace("\"schema\":1", "\"schema\":99");
        let err = DiagnosticReport::from_json(&json).unwrap_err();
        assert!(err.contains("schema 99"), "{err}");
    }
}
