//! Plain-text serialization of observations, routing feeds and Looking
//! Glass answers — the interchange format for driving the diagnoser with
//! recorded (or simulated) measurement data.
//!
//! The formats are line-oriented and diff-friendly:
//!
//! **Sensors** (`sensors.txt`): one `sensor <id> <addr> <as>` per line.
//!
//! **Snapshots** (`before.txt` / `after.txt`): paths separated by blank
//! lines; each path starts with `path <src-id> <dst-id> reached|failed`,
//! followed by one hop per line — an IPv4 address or `*` for an
//! unidentified hop.
//!
//! **Routing feed** (`feed.txt`): lines `withdraw <neighbor-addr>
//! <prefix>` and `igp-down <addr-a> <addr-b>`.
//!
//! **Looking Glass dump** (`lg.txt`): lines `aspath <from-as> <dst-addr>
//! <as> <as> ...` recording the answer each AS's Looking Glass gave for a
//! destination.
//!
//! **IP-to-AS map** (`ip2as.txt`): one `ip2as <addr> <as>` per line.
//!
//! Lines starting with `#` are comments everywhere.
//!
//! # Scenario directories
//!
//! [`ScenarioDir`] reads and writes one scenario as a directory of these
//! files:
//!
//! ```text
//! DIR/
//!   after.txt      T+ snapshot (required)
//!   sensors.txt    sensor directory
//!   before.txt     T- snapshot
//!   feed.txt       AS-X's routing-feed delta
//!   lg.txt         Looking Glass dump
//!   ip2as.txt      IP-to-AS map
//!   truth.txt      ground truth: `failed <addr-a> <addr-b>` per failed link
//!   topology.dot   Graphviz rendering with the failure sites highlighted
//! ```
//!
//! Only `after.txt` is required. A batch diagnosis
//! ([`ScenarioDir::parse`]) also needs the sensors, the `T-` snapshot and
//! the IP-to-AS map; a daemon fills whatever is absent from its own
//! baseline. `truth.txt` and `topology.dot` are for people checking
//! answers and are never diagnosed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

use netdiag_topology::{AsId, Prefix, SensorId};

use crate::observation::{
    Hop, IgpLinkDownObs, IpToAs, LookingGlass, Observations, ProbePath, RoutingFeed, SensorMeta,
    Snapshot, WithdrawalObs,
};

/// A parse failure with its line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Iterates non-comment lines with their 1-based numbers.
fn lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.starts_with('#'))
}

/// Serializes the sensor directory.
pub fn write_sensors(sensors: &[SensorMeta]) -> String {
    let mut out = String::from("# sensor <id> <addr> <as>\n");
    for s in sensors {
        let _ = writeln!(out, "sensor {} {} {}", s.id.0, s.addr, s.as_id.0);
    }
    out
}

/// Parses a sensor directory.
pub fn parse_sensors(text: &str) -> Result<Vec<SensorMeta>, ParseError> {
    let mut sensors = Vec::new();
    for (n, line) in lines(text) {
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["sensor", id, addr, as_id] => sensors.push(SensorMeta {
                id: SensorId(id.parse().map_err(|_| err(n, "bad sensor id"))?),
                addr: addr.parse().map_err(|_| err(n, "bad address"))?,
                as_id: AsId(as_id.parse().map_err(|_| err(n, "bad AS id"))?),
            }),
            _ => return Err(err(n, format!("unrecognized sensor line: {line:?}"))),
        }
    }
    Ok(sensors)
}

/// Serializes a snapshot.
pub fn write_snapshot(snapshot: &Snapshot) -> String {
    let mut out = String::from("# path <src> <dst> reached|failed, then one hop per line\n");
    for p in &snapshot.paths {
        let _ = writeln!(
            out,
            "path {} {} {}",
            p.src.0,
            p.dst.0,
            if p.reached { "reached" } else { "failed" }
        );
        for hop in &p.hops {
            match hop {
                Hop::Addr(a) => {
                    let _ = writeln!(out, "{a}");
                }
                Hop::Star => {
                    let _ = writeln!(out, "*");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a snapshot.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, ParseError> {
    let mut paths: Vec<ProbePath> = Vec::new();
    let mut current: Option<ProbePath> = None;
    for (n, line) in lines(text) {
        if line.is_empty() {
            if let Some(p) = current.take() {
                paths.push(p);
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("path ") {
            if let Some(p) = current.take() {
                paths.push(p);
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            let [src, dst, status] = parts.as_slice() else {
                return Err(err(n, "expected: path <src> <dst> reached|failed"));
            };
            let reached = match *status {
                "reached" => true,
                "failed" => false,
                other => return Err(err(n, format!("bad status {other:?}"))),
            };
            current = Some(ProbePath {
                src: SensorId(src.parse().map_err(|_| err(n, "bad src id"))?),
                dst: SensorId(dst.parse().map_err(|_| err(n, "bad dst id"))?),
                hops: Vec::new(),
                reached,
            });
        } else {
            let p = current
                .as_mut()
                .ok_or_else(|| err(n, "hop before any path header"))?;
            if line == "*" {
                p.hops.push(Hop::Star);
            } else {
                let addr: Ipv4Addr = line
                    .parse()
                    .map_err(|_| err(n, format!("bad hop {line:?}")))?;
                p.hops.push(Hop::Addr(addr));
            }
        }
    }
    if let Some(p) = current.take() {
        paths.push(p);
    }
    Ok(Snapshot { paths })
}

/// Serializes a routing feed.
pub fn write_feed(feed: &RoutingFeed) -> String {
    let mut out =
        String::from("# withdraw <neighbor-addr> <prefix> | igp-down <addr-a> <addr-b>\n");
    for w in &feed.withdrawals {
        let _ = writeln!(out, "withdraw {} {}", w.from_addr, w.prefix);
    }
    for e in &feed.igp_link_down {
        let _ = writeln!(out, "igp-down {} {}", e.addr_a, e.addr_b);
    }
    out
}

/// Parses a routing feed.
pub fn parse_feed(text: &str) -> Result<RoutingFeed, ParseError> {
    let mut feed = RoutingFeed::default();
    for (n, line) in lines(text) {
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["withdraw", addr, prefix] => feed.withdrawals.push(WithdrawalObs {
                from_addr: addr.parse().map_err(|_| err(n, "bad address"))?,
                prefix: prefix
                    .parse::<Prefix>()
                    .map_err(|e| err(n, e.to_string()))?,
            }),
            ["igp-down", a, b] => feed.igp_link_down.push(IgpLinkDownObs {
                addr_a: a.parse().map_err(|_| err(n, "bad address"))?,
                addr_b: b.parse().map_err(|_| err(n, "bad address"))?,
            }),
            _ => return Err(err(n, format!("unrecognized feed line: {line:?}"))),
        }
    }
    Ok(feed)
}

/// A Looking Glass backed by a recorded dump of AS-path answers.
#[derive(Clone, Debug, Default)]
pub struct RecordedLookingGlass {
    answers: BTreeMap<(AsId, Ipv4Addr), Vec<AsId>>,
}

impl RecordedLookingGlass {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one answer.
    pub fn record(&mut self, from: AsId, dst: Ipv4Addr, path: Vec<AsId>) {
        self.answers.insert((from, dst), path);
    }

    /// Number of recorded answers.
    pub fn len(&self) -> usize {
        self.answers.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// Serializes the dump.
    pub fn write(&self) -> String {
        let mut out = String::from("# aspath <from-as> <dst-addr> <as>...\n");
        for ((from, dst), path) in &self.answers {
            let _ = write!(out, "aspath {} {dst}", from.0);
            for a in path {
                let _ = write!(out, " {}", a.0);
            }
            out.push('\n');
        }
        out
    }

    /// Parses a dump.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut lg = RecordedLookingGlass::new();
        for (n, line) in lines(text) {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("aspath") => {
                    let from = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .map(AsId)
                        .ok_or_else(|| err(n, "bad from-as"))?;
                    let dst: Ipv4Addr = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err(n, "bad dst addr"))?;
                    let path: Result<Vec<AsId>, _> = parts
                        .map(|v| v.parse().map(AsId).map_err(|_| err(n, "bad AS id")))
                        .collect();
                    lg.record(from, dst, path?);
                }
                _ => return Err(err(n, format!("unrecognized lg line: {line:?}"))),
            }
        }
        Ok(lg)
    }
}

impl LookingGlass for RecordedLookingGlass {
    fn as_path(&self, from_as: AsId, dst: Ipv4Addr) -> Option<Vec<AsId>> {
        self.answers.get(&(from_as, dst)).cloned()
    }
}

/// An IP-to-AS mapping service backed by a recorded dump.
#[derive(Clone, Debug, Default)]
pub struct RecordedIpToAs {
    map: BTreeMap<Ipv4Addr, AsId>,
}

impl RecordedIpToAs {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one mapping.
    pub fn record(&mut self, addr: Ipv4Addr, as_id: AsId) {
        self.map.insert(addr, as_id);
    }

    /// Number of recorded mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Serializes the dump.
    pub fn write(&self) -> String {
        let mut out = String::from("# ip2as <addr> <as>\n");
        for (addr, as_id) in &self.map {
            let _ = writeln!(out, "ip2as {addr} {}", as_id.0);
        }
        out
    }

    /// Parses a dump.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut ip2as = RecordedIpToAs::new();
        for (n, line) in lines(text) {
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            match parts.as_slice() {
                ["ip2as", addr, asn] => ip2as.record(
                    addr.parse().map_err(|_| err(n, "bad address"))?,
                    asn.parse().map(AsId).map_err(|_| err(n, "bad AS id"))?,
                ),
                _ => return Err(err(n, format!("unrecognized ip2as line: {line:?}"))),
            }
        }
        Ok(ip2as)
    }
}

impl IpToAs for RecordedIpToAs {
    fn as_of(&self, addr: Ipv4Addr) -> Option<AsId> {
        self.map.get(&addr).copied()
    }
}

/// Serializes complete observations into (sensors, before, after) texts.
pub fn write_observations(obs: &Observations) -> (String, String, String) {
    (
        write_sensors(&obs.sensors),
        write_snapshot(&obs.before),
        write_snapshot(&obs.after),
    )
}

/// Parses complete observations from the three texts.
pub fn parse_observations(
    sensors: &str,
    before: &str,
    after: &str,
) -> Result<Observations, ParseError> {
    Ok(Observations {
        sensors: parse_sensors(sensors)?,
        before: parse_snapshot(before)?,
        after: parse_snapshot(after)?,
    })
}

/// One scenario as the texts of its directory's files (see the module
/// docs for the layout). `None` is an absent file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioDir {
    /// `sensors.txt`.
    pub sensors: Option<String>,
    /// `before.txt`.
    pub before: Option<String>,
    /// `after.txt`, the one required file.
    pub after: String,
    /// `feed.txt`.
    pub feed: Option<String>,
    /// `lg.txt`.
    pub lg: Option<String>,
    /// `ip2as.txt`.
    pub ip2as: Option<String>,
    /// `truth.txt`.
    pub truth: Option<String>,
    /// `topology.dot`.
    pub dot: Option<String>,
}

/// A scenario parsed for a batch diagnosis ([`ScenarioDir::parse`]).
#[derive(Clone, Debug)]
pub struct ScenarioInputs {
    /// Sensors and the `T-` and `T+` snapshots.
    pub obs: Observations,
    /// AS-X's routing feed, when `feed.txt` is present.
    pub feed: Option<RoutingFeed>,
    /// Looking Glass answers, when `lg.txt` is present.
    pub lg: Option<RecordedLookingGlass>,
    /// The IP-to-AS map.
    pub ip2as: RecordedIpToAs,
}

/// Why a scenario directory could not be read, written or parsed.
#[derive(Debug)]
pub enum ScenarioError {
    /// A file could not be read.
    Read(PathBuf, io::Error),
    /// A file (or the directory) could not be written.
    Write(PathBuf, io::Error),
    /// A file the operation needs is absent.
    Missing(&'static str),
    /// A file is malformed.
    Parse(&'static str, ParseError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Read(path, e) => write!(f, "cannot read {}: {e}", path.display()),
            ScenarioError::Write(path, e) => write!(f, "cannot write {}: {e}", path.display()),
            ScenarioError::Missing(file) => write!(f, "missing {file}"),
            ScenarioError::Parse(file, e) => write!(f, "{file}: parse error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

const SENSORS: &str = "sensors.txt";
const BEFORE: &str = "before.txt";
const AFTER: &str = "after.txt";
const FEED: &str = "feed.txt";
const LG: &str = "lg.txt";
const IP2AS: &str = "ip2as.txt";
const TRUTH: &str = "truth.txt";
const DOT: &str = "topology.dot";

impl ScenarioDir {
    /// Reads a scenario directory. `after.txt` must exist; any other
    /// absent file reads as `None`.
    pub fn read(dir: &Path) -> Result<ScenarioDir, ScenarioError> {
        let read = |name: &'static str| match std::fs::read_to_string(dir.join(name)) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == io::ErrorKind::NotFound && name != AFTER => Ok(None),
            Err(e) => Err(ScenarioError::Read(dir.join(name), e)),
        };
        Ok(ScenarioDir {
            after: read(AFTER)?.unwrap_or_default(),
            sensors: read(SENSORS)?,
            before: read(BEFORE)?,
            feed: read(FEED)?,
            lg: read(LG)?,
            ip2as: read(IP2AS)?,
            truth: read(TRUTH)?,
            dot: read(DOT)?,
        })
    }

    /// Creates `dir` if needed and writes every present file into it.
    pub fn write(&self, dir: &Path) -> Result<(), ScenarioError> {
        std::fs::create_dir_all(dir).map_err(|e| ScenarioError::Write(dir.to_path_buf(), e))?;
        let files = [
            (SENSORS, self.sensors.as_deref()),
            (BEFORE, self.before.as_deref()),
            (AFTER, Some(self.after.as_str())),
            (FEED, self.feed.as_deref()),
            (LG, self.lg.as_deref()),
            (IP2AS, self.ip2as.as_deref()),
            (TRUTH, self.truth.as_deref()),
            (DOT, self.dot.as_deref()),
        ];
        for (name, text) in files {
            if let Some(text) = text {
                let path = dir.join(name);
                std::fs::write(&path, text).map_err(|e| ScenarioError::Write(path, e))?;
            }
        }
        Ok(())
    }

    /// Parses the files a batch diagnosis runs on. `sensors.txt`,
    /// `before.txt` and `ip2as.txt` are required here; the feed and the
    /// Looking Glass dump stay optional.
    pub fn parse(&self) -> Result<ScenarioInputs, ScenarioError> {
        fn required<'a>(
            name: &'static str,
            text: &'a Option<String>,
        ) -> Result<&'a str, ScenarioError> {
            text.as_deref().ok_or(ScenarioError::Missing(name))
        }
        fn parse_as<T>(
            name: &'static str,
            text: &str,
            parse: fn(&str) -> Result<T, ParseError>,
        ) -> Result<T, ScenarioError> {
            parse(text).map_err(|e| ScenarioError::Parse(name, e))
        }
        Ok(ScenarioInputs {
            obs: Observations {
                sensors: parse_as(SENSORS, required(SENSORS, &self.sensors)?, parse_sensors)?,
                before: parse_as(BEFORE, required(BEFORE, &self.before)?, parse_snapshot)?,
                after: parse_as(AFTER, &self.after, parse_snapshot)?,
            },
            feed: (self.feed.as_deref())
                .map(|t| parse_as(FEED, t, parse_feed))
                .transpose()?,
            lg: (self.lg.as_deref())
                .map(|t| parse_as(LG, t, RecordedLookingGlass::parse))
                .transpose()?,
            ip2as: parse_as(IP2AS, required(IP2AS, &self.ip2as)?, RecordedIpToAs::parse)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs() -> Observations {
        let a = |x: u8| Ipv4Addr::new(10, x, 0, 1);
        Observations {
            sensors: vec![
                SensorMeta {
                    id: SensorId(0),
                    addr: a(1),
                    as_id: AsId(1),
                },
                SensorMeta {
                    id: SensorId(1),
                    addr: a(2),
                    as_id: AsId(2),
                },
            ],
            before: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(a(3)), Hop::Star, Hop::Addr(a(2))],
                    reached: true,
                }],
            },
            after: Snapshot {
                paths: vec![ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![Hop::Addr(a(3))],
                    reached: false,
                }],
            },
        }
    }

    #[test]
    fn observations_roundtrip() {
        let obs = sample_obs();
        let (s, b, a) = write_observations(&obs);
        let parsed = parse_observations(&s, &b, &a).unwrap();
        assert_eq!(parsed.sensors, obs.sensors);
        assert_eq!(parsed.before.paths.len(), 1);
        assert_eq!(parsed.before.paths[0].hops, obs.before.paths[0].hops);
        assert!(!parsed.after.paths[0].reached);
    }

    #[test]
    fn feed_roundtrip() {
        let feed = RoutingFeed {
            withdrawals: vec![WithdrawalObs {
                from_addr: Ipv4Addr::new(172, 16, 0, 1),
                prefix: Prefix::new(Ipv4Addr::new(10, 5, 0, 0), 16),
            }],
            igp_link_down: vec![IgpLinkDownObs {
                addr_a: Ipv4Addr::new(172, 16, 0, 5),
                addr_b: Ipv4Addr::new(172, 16, 0, 6),
            }],
        };
        let text = write_feed(&feed);
        let parsed = parse_feed(&text).unwrap();
        assert_eq!(parsed.withdrawals, feed.withdrawals);
        assert_eq!(parsed.igp_link_down, feed.igp_link_down);
    }

    #[test]
    fn lg_roundtrip_and_lookup() {
        let mut lg = RecordedLookingGlass::new();
        lg.record(
            AsId(1),
            Ipv4Addr::new(10, 2, 0, 1),
            vec![AsId(1), AsId(5), AsId(2)],
        );
        let parsed = RecordedLookingGlass::parse(&lg.write()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            parsed.as_path(AsId(1), Ipv4Addr::new(10, 2, 0, 1)),
            Some(vec![AsId(1), AsId(5), AsId(2)])
        );
        assert_eq!(parsed.as_path(AsId(9), Ipv4Addr::new(10, 2, 0, 1)), None);
    }

    #[test]
    fn ip2as_roundtrip_and_lookup() {
        let mut map = RecordedIpToAs::new();
        map.record(Ipv4Addr::new(10, 1, 0, 1), AsId(1));
        map.record(Ipv4Addr::new(10, 2, 0, 1), AsId(2));
        let parsed = RecordedIpToAs::parse(&map.write()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.as_of(Ipv4Addr::new(10, 2, 0, 1)), Some(AsId(2)));
        assert_eq!(parsed.as_of(Ipv4Addr::new(10, 9, 0, 1)), None);
        assert_eq!(RecordedIpToAs::parse("ip2as nope 1").unwrap_err().line, 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_sensors("sensor x y z").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_snapshot("path 0 1 reached\nnot-an-ip").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_snapshot("10.0.0.1").unwrap_err();
        assert!(e.message.contains("before any path"));
        let e = parse_feed("withdraw 1.2.3.4 not-a-prefix").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nsensor 0 10.1.0.1 1\n# bye\n";
        assert_eq!(parse_sensors(text).unwrap().len(), 1);
    }

    #[test]
    fn multiple_paths_parse() {
        let text = "path 0 1 reached\n10.0.0.1\n\npath 1 0 failed\n*\n";
        let snap = parse_snapshot(text).unwrap();
        assert_eq!(snap.paths.len(), 2);
        assert!(snap.paths[0].reached);
        assert!(!snap.paths[1].reached);
        assert_eq!(snap.paths[1].hops, vec![Hop::Star]);
    }
}
