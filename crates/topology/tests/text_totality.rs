//! Totality of the text topology parser (`netdiag simulate --topology`
//! reads user files with it): random bytes, token soup from the format's
//! own grammar and truncated valid files give `Ok` or an error, never a
//! panic, and every `Ok` re-renders to a file that parses back to the
//! same topology.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use proptest::prelude::*;

use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::text::{parse_topology, write_topology};

/// Arbitrary bytes, lossily decoded as a file read from disk would be.
fn random_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Lines of the format's keywords, AS kinds, names and weights. AS and
/// router names share one small pool, so lines often refer to names
/// declared earlier and get past the lookups into the builder.
fn token_soup() -> impl Strategy<Value = String> {
    const KEYWORDS: [&str; 6] = ["as", "router", "link", "peer", "provider", "#"];
    const TOKENS: [&str; 18] = [
        "core",
        "tier2",
        "stub",
        "A",
        "B",
        "C",
        "r1",
        "r2",
        "r3",
        "0",
        "1",
        "7",
        "-1",
        "4294967295",
        "4294967296",
        "#",
        "as",
        "link",
    ];
    let line = (
        0..KEYWORDS.len(),
        proptest::collection::vec(0..TOKENS.len(), 4..5),
        0usize..8,
    )
        .prop_map(|(k, picks, shape)| {
            // Mostly the keyword's own arity; one line in eight takes any.
            let arity = match (KEYWORDS[k], shape) {
                (_, 0) => picks[0] % 5,
                ("link", _) => 3 + shape % 2,
                _ => 2,
            };
            let mut words = vec![KEYWORDS[k]];
            words.extend(picks[..arity].iter().map(|&i| TOKENS[i]));
            words.join(" ")
        });
    // A random share of a well-formed preamble declares some names first,
    // so the soup's references resolve more often.
    const PREAMBLE: [&str; 5] = [
        "as A core",
        "as B stub",
        "router A r1",
        "router B r2",
        "router A r3",
    ];
    (0..=PREAMBLE.len(), proptest::collection::vec(line, 0..8)).prop_map(|(n, lines)| {
        let mut all: Vec<String> = PREAMBLE[..n].iter().map(|l| l.to_string()).collect();
        all.extend(lines);
        all.join("\n")
    })
}

/// A valid topology file: a small paper-style or generated internet.
fn valid_file() -> impl Strategy<Value = String> {
    (any::<bool>(), 0u64..1000, 10usize..40).prop_map(|(paper, seed, ases)| {
        let t = if paper {
            build_internet(&InternetConfig::small(seed)).topology
        } else {
            generate(&GenConfig::new(ases, seed)).unwrap().topology
        };
        write_topology(&t)
    })
}

/// A valid file cut at the character boundary at or below
/// `cut % (len + 1)`.
fn truncated_file() -> impl Strategy<Value = String> {
    (valid_file(), any::<usize>()).prop_map(|(text, cut)| {
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        text[..cut].to_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_topology_is_total(
        text in prop_oneof![random_text(), token_soup(), truncated_file()],
    ) {
        match parse_topology(&text) {
            Ok(t) => {
                let rendered = write_topology(&t);
                let again = parse_topology(&rendered).unwrap();
                prop_assert_eq!(write_topology(&again), rendered);
                prop_assert_eq!(again.as_count(), t.as_count());
                prop_assert_eq!(again.router_count(), t.router_count());
                prop_assert_eq!(again.link_count(), t.link_count());
            }
            Err(e) => {
                // Line 0 marks a whole-topology validation error.
                prop_assert!(!e.message.is_empty(), "{e:?}");
                prop_assert!(e.line <= text.lines().count(), "{e:?} past the last line");
            }
        }
    }

    /// Uncut valid files always parse, and to the same rendering.
    #[test]
    fn valid_files_roundtrip(text in valid_file()) {
        let t = parse_topology(&text).unwrap();
        prop_assert_eq!(write_topology(&t), text);
    }
}
