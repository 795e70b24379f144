//! The daemon's wire protocol: one JSON object per line, in both
//! directions.
//!
//! ## Requests
//!
//! ```json
//! {"op":"diagnose","id":1,"algo":"nd-bgpigp","after":"path 0 1 failed\n...",
//!  "feed":"withdraw 10.0.0.1 10.2.0.0/16\n","explain":true}
//! ```
//!
//! * `op` — `"diagnose"` (default), `"ping"`, `"stats"`, `"health"` or
//!   `"shutdown"`.
//! * `id` — echoed verbatim in the response (default `0`).
//! * `algo` — algorithm name (default `"nd-edge"`).
//! * `after` — the post-failure snapshot in the `after.txt` text format
//!   (required for `diagnose`: this is the uploaded probe matrix).
//! * `sensors`, `before`, `feed`, `lg`, `ip2as` — the other files of a
//!   scenario directory, each optional. The daemon parses the uploaded
//!   texts with [`ScenarioDir::parse`](netdiagnoser::text::ScenarioDir::parse),
//!   the parse `netdiag diagnose` runs, and fills each absent one from its
//!   converged baseline:
//!   - `sensors` (`sensors.txt`): the baseline's sensor directory;
//!   - `before` (`before.txt`): the baseline's `T-` snapshot;
//!   - `feed` (`feed.txt`): an empty feed;
//!   - `lg` (`lg.txt`): the baseline simulator answers Looking Glass
//!     queries live;
//!   - `ip2as` (`ip2as.txt`): the baseline topology's address map.
//! * `min_confidence`, `max_issues` — per-request
//!   [`DiagnosticsConfig`](netdiagnoser::DiagnosticsConfig) thresholds.
//! * `explain` — when `true`, the response carries a causal narrative
//!   replayed from the request's own trace stream.
//!
//! ## Responses
//!
//! ```json
//! {"id":1,"ok":true,"report":{...},"text":"=== NetDiagnoser report ===..."}
//! {"id":1,"ok":false,"error":"before.txt: parse error: line 1: hop before any path header"}
//! ```
//!
//! `report` is the versioned
//! [`DiagnosticReport`](netdiagnoser::DiagnosticReport) JSON; `text` is
//! its `Display` rendering, byte-identical to `netdiag diagnose` on the
//! same inputs. A malformed upload's `error` is the message `netdiag
//! diagnose` prints for the same file (`netdiag-serve request` prefixes
//! it with `daemon error: `).
//!
//! A request line longer than [`MAX_REQUEST_BYTES`] gets one error
//! response, and then the daemon closes the connection.

use netdiag_obs::json::{parse, Json};
use netdiag_obs::push_json_string;
use netdiagnoser::Algorithm;

/// The longest request line the daemon accepts, not counting its
/// newline. The largest request this repository's own clients send is a
/// whole scenario directory upload (`netdiag-serve request` on a
/// 10-sensor paper-scale scenario: after, before, sensors, feed, lg and
/// ip2as texts), about 40 KB. 1 MiB leaves 25x headroom and bounds what
/// one client can make the daemon buffer.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// One parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe.
    Ping {
        /// Echo id.
        id: u64,
    },
    /// Daemon telemetry snapshot: summary counters, plus (when the live
    /// plane is mounted) the full metrics report, windowed rates and an
    /// optional Prometheus text exposition.
    Stats {
        /// Echo id.
        id: u64,
        /// Attach the Prometheus-style text exposition.
        prom: bool,
        /// Width of the rate/percentile window in seconds (default 10).
        window_secs: u64,
    },
    /// Health/readiness probe (cheaper than `stats`; the benchmark's
    /// load generator waits on it).
    Health {
        /// Echo id.
        id: u64,
    },
    /// Stop the daemon (answered before the listener closes).
    Shutdown {
        /// Echo id.
        id: u64,
    },
    /// Run a diagnosis.
    Diagnose {
        /// Echo id.
        id: u64,
        /// The diagnosis inputs.
        job: Box<DiagnoseJob>,
    },
}

/// The inputs of one diagnosis request (see the module docs for the
/// field semantics; `None` means "use the daemon's baseline default").
#[derive(Clone, Debug, Default)]
pub struct DiagnoseJob {
    /// Algorithm to run.
    pub algo: Algorithm,
    /// Post-failure snapshot text (required).
    pub after: String,
    /// Sensor directory text.
    pub sensors: Option<String>,
    /// Pre-failure snapshot text.
    pub before: Option<String>,
    /// Routing-feed delta text.
    pub feed: Option<String>,
    /// Recorded Looking Glass dump text.
    pub lg: Option<String>,
    /// IP-to-AS map text.
    pub ip2as: Option<String>,
    /// Minimum per-issue confidence to report.
    pub min_confidence: f64,
    /// Issue cap (`0` = unlimited).
    pub max_issues: usize,
    /// Attach a causal narrative to the response.
    pub explain: bool,
}

/// Parses one request line. Unknown fields are ignored (forward
/// compatibility); a missing or unknown `op` and missing required
/// fields are errors.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
    let op = v.get("op").and_then(Json::as_str).unwrap_or("diagnose");
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats {
            id,
            prom: matches!(v.get("prom"), Some(Json::Bool(true))),
            window_secs: v
                .get("window")
                .and_then(Json::as_u64)
                .filter(|&w| w > 0)
                .unwrap_or(10),
        }),
        "health" => Ok(Request::Health { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        "diagnose" => {
            let text_field = |key: &str| -> Option<String> {
                v.get(key).and_then(Json::as_str).map(str::to_owned)
            };
            let algo = match v.get("algo").and_then(Json::as_str) {
                None => Algorithm::default(),
                Some(name) => name.parse::<Algorithm>()?,
            };
            let after = text_field("after")
                .ok_or_else(|| "diagnose needs \"after\" (the uploaded probe matrix)".to_owned())?;
            let num_field = |key: &str| -> Option<f64> {
                match v.get(key) {
                    Some(Json::Num(n)) => Some(*n),
                    _ => None,
                }
            };
            Ok(Request::Diagnose {
                id,
                job: Box::new(DiagnoseJob {
                    algo,
                    after,
                    sensors: text_field("sensors"),
                    before: text_field("before"),
                    feed: text_field("feed"),
                    lg: text_field("lg"),
                    ip2as: text_field("ip2as"),
                    min_confidence: num_field("min_confidence").unwrap_or(0.0),
                    max_issues: v.get("max_issues").and_then(Json::as_u64).unwrap_or(0) as usize,
                    explain: matches!(v.get("explain"), Some(Json::Bool(true))),
                }),
            })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Serializes a diagnose request line from its parts (the client-side
/// mirror of [`parse_request`]; `None` fields are omitted).
pub fn write_diagnose_request(id: u64, job: &DiagnoseJob) -> String {
    let mut out = format!(
        "{{\"op\":\"diagnose\",\"id\":{id},\"algo\":\"{}\"",
        job.algo
    );
    let mut field = |key: &str, value: Option<&str>| {
        if let Some(text) = value {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            push_json_string(&mut out, text);
        }
    };
    field("sensors", job.sensors.as_deref());
    field("before", job.before.as_deref());
    field("after", Some(&job.after));
    field("feed", job.feed.as_deref());
    field("lg", job.lg.as_deref());
    field("ip2as", job.ip2as.as_deref());
    if job.min_confidence > 0.0 {
        out.push_str(&format!(",\"min_confidence\":{}", job.min_confidence));
    }
    if job.max_issues > 0 {
        out.push_str(&format!(",\"max_issues\":{}", job.max_issues));
    }
    if job.explain {
        out.push_str(",\"explain\":true");
    }
    out.push('}');
    out
}

/// A successful diagnose response line. `report_json` must already be
/// valid JSON (it is embedded verbatim).
pub fn diagnose_response(id: u64, report_json: &str, text: &str, explain: Option<&str>) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":true,\"report\":{report_json},\"text\":");
    push_json_string(&mut out, text);
    if let Some(narrative) = explain {
        out.push_str(",\"explain\":");
        push_json_string(&mut out, narrative);
    }
    out.push('}');
    out
}

/// An error response line.
pub fn error_response(id: u64, message: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"ok\":false,\"error\":");
    push_json_string(&mut out, message);
    out.push('}');
    out
}

/// A bare `{"id":N,"ok":true, <extra>}` response (ping/stats/shutdown);
/// `extra` must be empty or a valid `"key":value,...` fragment.
pub fn ok_response(id: u64, extra: &str) -> String {
    if extra.is_empty() {
        format!("{{\"id\":{id},\"ok\":true}}")
    } else {
        format!("{{\"id\":{id},\"ok\":true,{extra}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One well-formed line per op.
    fn valid_requests() -> Vec<String> {
        let job = DiagnoseJob {
            algo: Algorithm::NdBgpIgp,
            after: "path 0 1 failed\n*\n".into(),
            feed: Some("withdraw 10.0.0.1 10.2.0.0/16\n".into()),
            min_confidence: 0.5,
            max_issues: 3,
            explain: true,
            ..Default::default()
        };
        vec![
            r#"{"op":"ping","id":7}"#.into(),
            r#"{"op":"stats","id":3,"prom":true,"window":30}"#.into(),
            r#"{"op":"health","id":9}"#.into(),
            r#"{"op":"shutdown","id":1}"#.into(),
            write_diagnose_request(42, &job),
        ]
    }

    /// Arbitrary bytes, lossily decoded as a socket line would be.
    fn random_bytes() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u8>(), 0..512)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
    }

    /// Random strings over the JSON alphabet, which get past the first
    /// byte far more often than arbitrary bytes do.
    fn json_soup() -> impl Strategy<Value = String> {
        const ALPHABET: &[u8] = b"{}[]\":,0123456789.eE-+ truefalsnop\\";
        proptest::collection::vec(0..ALPHABET.len(), 0..256)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i] as char).collect())
    }

    /// A valid request cut short at any character boundary.
    fn truncated_request() -> impl Strategy<Value = String> {
        (0..valid_requests().len(), any::<usize>()).prop_map(|(which, cut)| {
            let line = &valid_requests()[which];
            let mut cut = cut % (line.len() + 1);
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_owned()
        })
    }

    /// Open, nested-value and balanced nesting on both sides of the
    /// parser's depth limit.
    fn deep_nesting() -> impl Strategy<Value = String> {
        (1usize..5000, 0usize..3).prop_map(|(depth, shape)| match shape {
            0 => "[".repeat(depth),
            1 => r#"{"op":"#.repeat(depth),
            _ => format!("{}{}", "[".repeat(depth), "]".repeat(depth)),
        })
    }

    /// Every numeric field with digit strings far past any integer or
    /// float range.
    fn huge_numbers() -> impl Strategy<Value = String> {
        (1usize..400, 0usize..4, 0usize..5).prop_map(|(digits, field, form)| {
            let d = "9".repeat(digits);
            let num = match form {
                0 => d,
                1 => format!("-{d}"),
                2 => format!("1e{d}"),
                3 => format!("0.{d}"),
                _ => format!("{d}e-{d}"),
            };
            let field = ["id", "window", "max_issues", "min_confidence"][field];
            format!(r#"{{"op":"diagnose","after":"x","{field}":{num}}}"#)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The parser is total: any line yields `Ok` or an `Err` with a
        /// message, never a panic.
        #[test]
        fn parse_request_is_total(line in prop_oneof![
            random_bytes(),
            json_soup(),
            truncated_request(),
            deep_nesting(),
            huge_numbers(),
        ]) {
            if let Err(e) = parse_request(&line) {
                prop_assert!(!e.is_empty(), "empty error for {line:?}");
            }
        }
    }

    #[test]
    fn deeply_nested_request_is_an_error_not_an_abort() {
        let err = parse_request(&"[".repeat(1_000_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn parses_the_ops() {
        assert!(matches!(
            parse_request(r#"{"op":"ping","id":7}"#),
            Ok(Request::Ping { id: 7 })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats {
                id: 0,
                prom: false,
                window_secs: 10
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats","id":3,"prom":true,"window":30}"#),
            Ok(Request::Stats {
                id: 3,
                prom: true,
                window_secs: 30
            })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"health","id":9}"#),
            Ok(Request::Health { id: 9 })
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown","id":1}"#),
            Ok(Request::Shutdown { id: 1 })
        ));
        assert!(parse_request(r#"{"op":"nope"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn diagnose_round_trips_through_its_writer() {
        let job = DiagnoseJob {
            algo: Algorithm::NdBgpIgp,
            after: "path 0 1 failed\n*\n".into(),
            feed: Some("withdraw 10.0.0.1 10.2.0.0/16\n".into()),
            min_confidence: 0.5,
            max_issues: 3,
            explain: true,
            ..Default::default()
        };
        let line = write_diagnose_request(42, &job);
        let Ok(Request::Diagnose { id, job: parsed }) = parse_request(&line) else {
            panic!("diagnose line must parse: {line}");
        };
        assert_eq!(id, 42);
        assert_eq!(parsed.algo, Algorithm::NdBgpIgp);
        assert_eq!(parsed.after, job.after);
        assert_eq!(parsed.feed, job.feed);
        assert_eq!(parsed.sensors, None);
        assert_eq!(parsed.min_confidence, 0.5);
        assert_eq!(parsed.max_issues, 3);
        assert!(parsed.explain);
    }

    #[test]
    fn diagnose_without_after_is_rejected() {
        let err = parse_request(r#"{"op":"diagnose"}"#).unwrap_err();
        assert!(err.contains("after"));
    }

    #[test]
    fn responses_are_valid_json() {
        for line in [
            diagnose_response(
                1,
                r#"{"schema":1}"#,
                "two\nlines \"quoted\"",
                Some("because"),
            ),
            error_response(2, "bad \\ things"),
            ok_response(3, ""),
            ok_response(4, "\"pong\":true"),
        ] {
            let v = netdiag_obs::json::parse(&line).expect("response line parses as JSON");
            assert!(v.get("id").is_some());
        }
    }
}
