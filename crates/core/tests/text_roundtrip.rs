//! Property-based roundtrip tests for the text interchange format: any
//! observations/feed/LG dump must survive write -> parse unchanged, and
//! the parsers must be total over hostile text: random bytes, token soup
//! and truncated files give `Ok` or a located error, never a panic, and
//! any `Ok` re-renders to a file that parses back to the same value.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::net::Ipv4Addr;

use proptest::prelude::*;

use netdiag_topology::{AsId, Prefix, SensorId};
use netdiagnoser::text::{
    parse_feed, parse_sensors, parse_snapshot, write_feed, write_observations, write_sensors,
    write_snapshot, ParseError, RecordedIpToAs, RecordedLookingGlass, ScenarioDir, ScenarioError,
};
use netdiagnoser::{
    Hop, IgpLinkDownObs, LookingGlass, Observations, ProbePath, RoutingFeed, SensorMeta, Snapshot,
    WithdrawalObs,
};

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

fn arb_hop() -> impl Strategy<Value = Hop> {
    prop_oneof![arb_addr().prop_map(Hop::Addr), Just(Hop::Star)]
}

fn arb_path(n_sensors: u32) -> impl Strategy<Value = ProbePath> {
    (
        0..n_sensors,
        0..n_sensors,
        proptest::collection::vec(arb_hop(), 0..8),
        any::<bool>(),
    )
        .prop_map(|(s, d, hops, reached)| ProbePath {
            src: SensorId(s),
            dst: SensorId(d),
            hops,
            reached,
        })
}

fn arb_observations() -> impl Strategy<Value = Observations> {
    let sensors = proptest::collection::vec((arb_addr(), 0u32..200), 1..5).prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (addr, a))| SensorMeta {
                id: SensorId(i as u32),
                addr,
                as_id: AsId(a),
            })
            .collect::<Vec<_>>()
    });
    (
        sensors,
        proptest::collection::vec(arb_path(4), 0..6),
        proptest::collection::vec(arb_path(4), 0..6),
    )
        .prop_map(|(sensors, before, after)| Observations {
            sensors,
            before: Snapshot { paths: before },
            after: Snapshot { paths: after },
        })
}

/// Parses the three observation texts as every front end does: as a
/// scenario directory ([`ScenarioDir::parse`]).
fn parse_observations(
    sensors: &str,
    before: &str,
    after: &str,
) -> Result<Observations, ScenarioError> {
    let inputs = ScenarioDir {
        sensors: Some(sensors.to_owned()),
        before: Some(before.to_owned()),
        after: after.to_owned(),
        ..ScenarioDir::default()
    }
    .parse()?;
    Ok(Observations {
        sensors: inputs.sensors.unwrap(),
        before: inputs.before.unwrap(),
        after: inputs.after,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn observations_roundtrip(obs in arb_observations()) {
        let (s, b, a) = write_observations(&obs);
        let parsed = parse_observations(&s, &b, &a).unwrap();
        prop_assert_eq!(parsed.sensors, obs.sensors);
        prop_assert_eq!(parsed.before.paths.len(), obs.before.paths.len());
        for (p, q) in parsed.before.paths.iter().zip(&obs.before.paths) {
            prop_assert_eq!(p.src, q.src);
            prop_assert_eq!(p.dst, q.dst);
            prop_assert_eq!(&p.hops, &q.hops);
            prop_assert_eq!(p.reached, q.reached);
        }
        prop_assert_eq!(parsed.after.paths.len(), obs.after.paths.len());
    }

    #[test]
    fn feed_roundtrip(
        withdrawals in proptest::collection::vec((arb_addr(), any::<u32>(), 0u8..=32), 0..6),
        downs in proptest::collection::vec((arb_addr(), arb_addr()), 0..6),
    ) {
        let feed = RoutingFeed {
            withdrawals: withdrawals
                .into_iter()
                .map(|(a, p, len)| WithdrawalObs {
                    from_addr: a,
                    prefix: Prefix::new(Ipv4Addr::from(p), len),
                })
                .collect(),
            igp_link_down: downs
                .into_iter()
                .map(|(a, b)| IgpLinkDownObs { addr_a: a, addr_b: b })
                .collect(),
        };
        let parsed = parse_feed(&write_feed(&feed)).unwrap();
        prop_assert_eq!(parsed.withdrawals, feed.withdrawals);
        prop_assert_eq!(parsed.igp_link_down, feed.igp_link_down);
    }

    #[test]
    fn lg_roundtrip(
        answers in proptest::collection::vec(
            (0u32..50, arb_addr(), proptest::collection::vec(0u32..50, 0..5)),
            0..8,
        )
    ) {
        let mut lg = RecordedLookingGlass::new();
        for (from, dst, path) in &answers {
            lg.record(AsId(*from), *dst, path.iter().map(|&a| AsId(a)).collect());
        }
        let parsed = RecordedLookingGlass::parse(&lg.write()).unwrap();
        prop_assert_eq!(parsed.len(), lg.len());
        for (from, dst, path) in &answers {
            let expect: Vec<AsId> = path.iter().map(|&a| AsId(a)).collect();
            prop_assert_eq!(parsed.as_path(AsId(*from), *dst), Some(expect));
        }
    }
}

/// Arbitrary bytes, lossily decoded as a file read from disk would be.
fn random_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Lines of the formats' own tokens, which get past the keyword match
/// far more often than random bytes do.
fn token_soup() -> impl Strategy<Value = String> {
    const TOKENS: [&str; 20] = [
        "sensor",
        "aspath",
        "ip2as",
        "path",
        "reached",
        "failed",
        "withdraw",
        "igp-down",
        "*",
        "#",
        "0",
        "7",
        "-1",
        "99999999999",
        "10.0.0.1",
        "300.1.2.3",
        "10.0.0.0/8",
        "1.2.3.4/33",
        " ",
        "\n",
    ];
    proptest::collection::vec(0..TOKENS.len(), 0..64).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// The four files of a valid scenario: sensors, before, after, feed.
fn valid_files() -> impl Strategy<Value = [String; 4]> {
    (arb_observations(), arb_addr(), arb_addr()).prop_map(|(obs, a, b)| {
        let (s, before, after) = write_observations(&obs);
        let feed = RoutingFeed {
            withdrawals: vec![WithdrawalObs {
                from_addr: a,
                prefix: Prefix::new(b, 16),
            }],
            igp_link_down: vec![IgpLinkDownObs {
                addr_a: a,
                addr_b: b,
            }],
        };
        [s, before, after, write_feed(&feed)]
    })
}

/// Cuts `text` at the character boundary at or below `cut % (len + 1)`.
fn truncate(text: &str, cut: usize) -> String {
    let mut cut = cut % (text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_owned()
}

/// One valid file cut short anywhere.
fn truncated_file() -> impl Strategy<Value = String> {
    (valid_files(), 0usize..4, any::<usize>())
        .prop_map(|(files, which, cut)| truncate(&files[which], cut))
}

fn hostile_text() -> impl Strategy<Value = String> {
    prop_oneof![random_text(), token_soup(), truncated_file()]
}

fn located(e: &ParseError) -> Result<(), TestCaseError> {
    prop_assert!(e.line >= 1 && !e.message.is_empty(), "{e:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_file_parsers_are_total(text in hostile_text()) {
        match parse_sensors(&text) {
            Ok(sensors) => {
                let again = parse_sensors(&write_sensors(&sensors));
                prop_assert_eq!(again, Ok(sensors));
            }
            Err(e) => located(&e)?,
        }
        match parse_snapshot(&text) {
            Ok(snapshot) => {
                let rendered = write_snapshot(&snapshot);
                prop_assert_eq!(write_snapshot(&parse_snapshot(&rendered).unwrap()), rendered);
            }
            Err(e) => located(&e)?,
        }
        match parse_feed(&text) {
            Ok(feed) => {
                let again = parse_feed(&write_feed(&feed)).unwrap();
                prop_assert_eq!(again.withdrawals, feed.withdrawals);
                prop_assert_eq!(again.igp_link_down, feed.igp_link_down);
            }
            Err(e) => located(&e)?,
        }
        match RecordedLookingGlass::parse(&text) {
            Ok(lg) => {
                let rendered = lg.write();
                prop_assert_eq!(RecordedLookingGlass::parse(&rendered).unwrap().write(), rendered);
            }
            Err(e) => located(&e)?,
        }
        match RecordedIpToAs::parse(&text) {
            Ok(map) => {
                let rendered = map.write();
                prop_assert_eq!(RecordedIpToAs::parse(&rendered).unwrap().write(), rendered);
            }
            Err(e) => located(&e)?,
        }
    }

    #[test]
    fn scenario_parse_is_total(
        files in valid_files(),
        hostile in hostile_text(),
        which in 0usize..3,
    ) {
        let mut texts = [files[0].clone(), files[1].clone(), files[2].clone()];
        texts[which] = hostile;
        match parse_observations(&texts[0], &texts[1], &texts[2]) {
            Ok(obs) => {
                let (s, b, a) = write_observations(&obs);
                let again = parse_observations(&s, &b, &a).unwrap();
                prop_assert_eq!(write_observations(&again), (s, b, a));
            }
            Err(ScenarioError::Parse(_, e)) => located(&e)?,
            Err(e) => prop_assert!(false, "not a parse error: {e}"),
        }
    }
}
