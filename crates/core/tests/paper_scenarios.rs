//! Hand-built reproductions of the paper's running examples (Figures 2–4):
//! each algorithm behaves exactly as the text describes.
//!
//! Address convention in these tests: `10.<as>.<x>.<y>` belongs to AS
//! `<as>`. Sensors: s1 in AS-A(1), s2 in AS-B(2), s3 in AS-C(3). Transit:
//! AS-X(4) (the troubleshooter) and AS-Y(5).

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use netdiag_topology::{AsId, Prefix, SensorId};
use netdiagnoser::{
    nd_bgpigp, nd_edge, nd_lg, run, tomo, Algorithm, Diagnosis, Hop, HopNode, IpToAsFn,
    LogicalPart, LookingGlass, LookingGlassFn, NetDiagnoser, Observations, ProbePath,
    RecorderHandle, RoutingFeed, SensorMeta, Snapshot, Weights, WithdrawalObs,
};

fn ip(a: u8, b: u8, c: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, a, b, c)
}

fn addr_hop(a: u8, b: u8, c: u8) -> Hop {
    Hop::Addr(ip(a, b, c))
}

fn ip2as() -> IpToAsFn<impl Fn(Ipv4Addr) -> Option<AsId>> {
    IpToAsFn(|addr: Ipv4Addr| Some(AsId(u32::from(addr.octets()[1]))))
}

fn sensors() -> Vec<SensorMeta> {
    vec![
        SensorMeta {
            id: SensorId(0),
            addr: ip(1, 0, 200), // s1 in AS-A
            as_id: AsId(1),
        },
        SensorMeta {
            id: SensorId(1),
            addr: ip(2, 0, 200), // s2 in AS-B
            as_id: AsId(2),
        },
        SensorMeta {
            id: SensorId(2),
            addr: ip(3, 0, 200), // s3 in AS-C
            as_id: AsId(3),
        },
    ]
}

/// Pre-failure paths of the Figure 2 topology (only the s1-rooted pair and
/// its reverses that the tests need):
///
/// s1 -> s2:  a1, a2, x1, x2, y1, y2, b1, s2-host
/// s1 -> s3:  a1, a2, x1, x2, y1, y3, c1, s3-host
///
/// Router addresses (one per router for simplicity; traceroute would show
/// per-link ingress interfaces, which changes nothing for the algorithms):
/// a1=10.1.1.1 a2=10.1.2.1 x1=10.4.1.1 x2=10.4.2.1 y1=10.5.1.1
/// y2=10.5.2.1 y3=10.5.3.1 b1=10.2.1.1 c1=10.3.1.1
fn path_s1_s2(reached: bool) -> ProbePath {
    ProbePath {
        src: SensorId(0),
        dst: SensorId(1),
        hops: vec![
            addr_hop(1, 1, 1),
            addr_hop(1, 2, 1),
            addr_hop(4, 1, 1),
            addr_hop(4, 2, 1),
            addr_hop(5, 1, 1),
            addr_hop(5, 2, 1),
            addr_hop(2, 1, 1),
            Hop::Addr(ip(2, 0, 200)),
        ],
        reached,
    }
}

fn path_s1_s3(reached: bool, truncate_after: Option<usize>) -> ProbePath {
    let mut hops = vec![
        addr_hop(1, 1, 1),
        addr_hop(1, 2, 1),
        addr_hop(4, 1, 1),
        addr_hop(4, 2, 1),
        addr_hop(5, 1, 1),
        addr_hop(5, 3, 1),
        addr_hop(3, 1, 1),
        Hop::Addr(ip(3, 0, 200)),
    ];
    if let Some(n) = truncate_after {
        hops.truncate(n);
    }
    ProbePath {
        src: SensorId(0),
        dst: SensorId(2),
        hops,
        reached,
    }
}

/// The misconfiguration scenario of §3.1: y1 stops announcing the route
/// toward AS-C to x2. Path s1->s3 dies at x2; s1->s2 keeps working over
/// the same physical x2-y1 link.
fn misconfig_observations() -> Observations {
    Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path_s1_s2(true), path_s1_s3(true, None)],
        },
        after: Snapshot {
            paths: vec![
                path_s1_s2(true),
                // Probe now stops at x2 (hop index 3).
                path_s1_s3(false, Some(4)),
            ],
        },
    }
}

#[test]
fn tomo_cannot_explain_misconfiguration() {
    // §5.1: Tomo assumes a link carrying a working path is up, so the
    // misconfigured link is exonerated and the failure stays unexplained.
    let obs = misconfig_observations();
    let d = tomo(&obs, &ip2as());
    // Every link of the failed path except y1-y3, y3-c1, c1-s3 also carries
    // the working path; those three remain candidates but... they are NOT
    // on the working path, so Tomo still picks among them. The key paper
    // claim is that the actually-misconfigured link x2-y1 is NOT in H.
    let has_x2_y1 = d
        .hypothesis_endpoints()
        .iter()
        .any(|(a, b)| *a == HopNode::Ip(ip(4, 2, 1)) && *b == HopNode::Ip(ip(5, 1, 1)));
    assert!(!has_x2_y1, "Tomo must miss the misconfigured link");
}

#[test]
fn nd_edge_localizes_misconfiguration_via_logical_links() {
    // §3.1: with logical links, x2-y1(C) and y1(C)-y1 stay candidates and
    // are selected, localizing the misconfiguration on x2-y1.
    let obs = misconfig_observations();
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    // The hypothesis contains logical halves of the x2->y1 physical link
    // annotated with AS-C (AsId 3).
    let g = d.graph();
    let mut found_first = false;
    let mut found_second = false;
    for &e in &d.hypothesis {
        let data = g.edge(e);
        let (from, to) = g.endpoints(e);
        if from == HopNode::Ip(ip(4, 2, 1)) && to == HopNode::Ip(ip(5, 1, 1)) {
            match data.logical {
                Some(LogicalPart::First(AsId(3))) => found_first = true,
                Some(LogicalPart::Second(AsId(3))) => found_second = true,
                _ => {}
            }
        }
    }
    assert!(
        found_first && found_second,
        "ND-edge must hypothesize the logical halves x2-y1(C), y1(C)-y1; got {:?}",
        d.hypothesis_endpoints()
    );
    // And it must NOT blame the AS-B-annotated halves (the working ones).
    for &e in &d.hypothesis {
        if let Some(LogicalPart::First(a) | LogicalPart::Second(a)) = g.edge(e).logical {
            assert_ne!(a, AsId(2), "working logical link blamed");
        }
    }
}

/// Reroute scenario: s1->s3 has a backup through y2/b-side and reroutes
/// after the y1-y3 link fails, while s1->s2 breaks (no backup).
/// The reroute set {y1-y3} plus failure information lets ND-edge find both.
fn reroute_observations() -> Observations {
    // Before: s1->s3 via y1, y3. After: still reached but via y1, y2, y4.
    let before_s1_s3 = path_s1_s3(true, None);
    let after_s1_s3 = ProbePath {
        src: SensorId(0),
        dst: SensorId(2),
        hops: vec![
            addr_hop(1, 1, 1),
            addr_hop(1, 2, 1),
            addr_hop(4, 1, 1),
            addr_hop(4, 2, 1),
            addr_hop(5, 1, 1),
            addr_hop(5, 2, 1), // y2 instead of y3
            addr_hop(5, 4, 1), // y4
            addr_hop(3, 1, 1),
            Hop::Addr(ip(3, 0, 200)),
        ],
        reached: true,
    };
    // s1->s2 fails at y1 this time (y1-y2 link also down, say).
    let after_s1_s2 = ProbePath {
        src: SensorId(0),
        dst: SensorId(1),
        hops: vec![
            addr_hop(1, 1, 1),
            addr_hop(1, 2, 1),
            addr_hop(4, 1, 1),
            addr_hop(4, 2, 1),
            addr_hop(5, 1, 1),
        ],
        reached: false,
    };
    Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path_s1_s2(true), before_s1_s3],
        },
        after: Snapshot {
            paths: vec![after_s1_s2, after_s1_s3],
        },
    }
}

#[test]
fn nd_edge_uses_reroute_sets() {
    let obs = reroute_observations();
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    assert_eq!(d.problem.reroute_sets.len(), 1, "one rerouted pair");
    // The reroute set contains the y1->y3 and y3->c1 old links (and the
    // c1->host link since the new path enters c1 differently? No: c1 and
    // host appear in both paths, so only y1->y3 and y3->c1 vanish).
    let rs = &d.problem.reroute_sets[0];
    let g = d.graph();
    let phys: BTreeSet<(HopNode, HopNode)> = rs
        .edges
        .iter()
        .map(|e| {
            let (a, b) = g.endpoints(e);
            (a, b)
        })
        .collect();
    assert!(phys.contains(&(HopNode::Ip(ip(5, 1, 1)), HopNode::Ip(ip(5, 3, 1)))));
    // Hypothesis must cover the reroute set (the failed y1-y3 link region).
    assert!(
        d.hypothesis.iter().any(|&e| rs.edges.contains(e)),
        "reroute set must be hit"
    );
    // Tomo, by contrast, wrongly exonerates y1->y3? No — y1->y3 is not on
    // any *stale working* path (s1->s3's stale path contains it and the
    // pair still works, so Tomo clears it!). Check the contrast explicitly:
    let t = tomo(&obs, &ip2as());
    let t_has_y1_y3 = t
        .hypothesis_endpoints()
        .iter()
        .any(|(a, b)| *a == HopNode::Ip(ip(5, 1, 1)) && *b == HopNode::Ip(ip(5, 3, 1)));
    assert!(
        !t_has_y1_y3,
        "Tomo's stale working path clears the real failure"
    );
}

/// §3.3 example transposed: paths s1->s2 and s1->s3 both fail; AS-X's
/// border x1... here the withdrawal arrives at a router of AS-X from
/// the AS-A neighbor a2 for prefix 10.2/16 (s2's prefix): everything on
/// the failed path up to and including the a2 hop is exonerated.
///
/// Use the reverse direction to match the paper exactly: path s2->s1
/// fails; AS-X received a withdrawal from its neighbor a2 (10.1.2.1)
/// for s1's prefix 10.1/16. (The path below is y-side toward s1.)
fn withdrawal_scenario() -> (Observations, RoutingFeed) {
    let path_s2_s1 = |reached: bool, cut: Option<usize>| {
        let mut hops = vec![
            addr_hop(2, 1, 1), // b1
            addr_hop(5, 2, 1), // y2
            addr_hop(5, 1, 1), // y1
            addr_hop(4, 2, 1), // x2
            addr_hop(4, 1, 1), // x1
            addr_hop(1, 2, 1), // a2
            addr_hop(1, 1, 1), // a1
            Hop::Addr(ip(1, 0, 200)),
        ];
        if let Some(n) = cut {
            hops.truncate(n);
        }
        ProbePath {
            src: SensorId(1),
            dst: SensorId(0),
            hops,
            reached,
        }
    };
    let obs = Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path_s2_s1(true, None)],
        },
        after: Snapshot {
            // Fails somewhere past a2 (a2-a1 link down).
            paths: vec![path_s2_s1(false, Some(6))],
        },
    };
    let feed = RoutingFeed {
        withdrawals: vec![WithdrawalObs {
            from_addr: ip(1, 2, 1), // a2
            prefix: Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16),
        }],
        igp_link_down: vec![],
    };
    (obs, feed)
}

#[test]
fn nd_bgpigp_withdrawal_prunes_upstream_links() {
    let (obs, feed) = withdrawal_scenario();
    let without = nd_edge(&obs, &ip2as(), Weights::default());
    let with = nd_bgpigp(&obs, &ip2as(), &feed, Weights::default());
    assert!(
        with.len() < without.len(),
        "withdrawal must shrink the hypothesis: {} vs {}",
        with.len(),
        without.len()
    );
    // Everything strictly upstream of a2 is exonerated: no hypothesis
    // edge may end at b1/y2/y1/x2/x1. The edge *into* a2 is physically
    // exonerated too (the withdrawal arrived over it), but its logical
    // variants stay candidates — a misconfigured a2 export filter would
    // produce the identical withdrawal.
    let upstream: BTreeSet<HopNode> = [
        ip(2, 1, 1),
        ip(5, 2, 1),
        ip(5, 1, 1),
        ip(4, 2, 1),
        ip(4, 1, 1),
    ]
    .into_iter()
    .map(HopNode::Ip)
    .collect();
    for &e in &with.hypothesis {
        let (_, to) = with.graph().endpoints(e);
        assert!(
            !upstream.contains(&to),
            "upstream link into {to:?} should have been pruned"
        );
        if to == HopNode::Ip(ip(1, 2, 1)) {
            assert!(
                with.graph().edge(e).logical.is_some(),
                "only logical variants of the into-a2 link may remain"
            );
        }
    }
    // The remaining suspect is the a2->a1 link (and/or a1->s1).
    assert!(with
        .hypothesis_endpoints()
        .iter()
        .any(|(_, to)| *to == HopNode::Ip(ip(1, 1, 1)) || *to == HopNode::Ip(ip(1, 0, 200))));
}

/// A failure inside AS-X: the IGP link-down names the exact link; the
/// hypothesis is that link alone (paper: "ND-bgpigp can always find the
/// exact set of failed links" inside AS-X).
fn igp_event_scenario() -> (Observations, RoutingFeed) {
    let obs = Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path_s1_s2(true)],
        },
        after: Snapshot {
            paths: vec![ProbePath {
                src: SensorId(0),
                dst: SensorId(1),
                hops: vec![addr_hop(1, 1, 1), addr_hop(1, 2, 1), addr_hop(4, 1, 1)],
                reached: false,
            }],
        },
    };
    // Interface addresses are per-link: the probed ingress of x2 is
    // 10.4.2.1 (its side of the x1-x2 link); x1's side is 10.4.77.1 and is
    // never observed (probes only cross the link one way).
    let feed = RoutingFeed {
        withdrawals: vec![],
        igp_link_down: vec![netdiagnoser::IgpLinkDownObs {
            addr_a: ip(4, 77, 1), // x1 side of the failed link
            addr_b: ip(4, 2, 1),  // x2 side (= x2's observed hop address)
        }],
    };
    (obs, feed)
}

#[test]
fn nd_bgpigp_igp_event_forces_exact_link() {
    let (obs, feed) = igp_event_scenario();
    let d = nd_bgpigp(&obs, &ip2as(), &feed, Weights::default());
    // Forced: the x1->x2 edge (the direction probed). Nothing else needed.
    assert_eq!(d.len(), 1, "hypothesis: {:?}", d.hypothesis_endpoints());
    let (from, to) = d.hypothesis_endpoints()[0];
    assert_eq!(from, HopNode::Ip(ip(4, 1, 1)));
    assert_eq!(to, HopNode::Ip(ip(4, 2, 1)));
}

/// A Looking Glass backed by a plain function, so every scenario's has
/// the same type.
type FixedLg = LookingGlassFn<fn(AsId, Ipv4Addr) -> Option<Vec<AsId>>>;

/// Figure 4: path si - x - u1 u2 u3 - y - sj where the u's are in
/// blocked AS-B(5 here); the LG of the source AS returns A-...-B-...-C
/// and the UHs get tag {B}.
fn blocked_scenario() -> (Observations, FixedLg) {
    let blocked_path = |reached: bool, cut: Option<usize>| {
        let mut hops = vec![
            addr_hop(1, 1, 1), // x in AS-A(1)
            Hop::Star,         // u1 (AS 5)
            Hop::Star,         // u2
            Hop::Star,         // u3
            addr_hop(3, 1, 1), // y in AS-C(3)
            Hop::Addr(ip(3, 0, 200)),
        ];
        if let Some(n) = cut {
            hops.truncate(n);
        }
        ProbePath {
            src: SensorId(0),
            dst: SensorId(2),
            hops,
            reached,
        }
    };
    let obs = Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![blocked_path(true, None)],
        },
        after: Snapshot {
            // Dies inside the blocked AS.
            paths: vec![blocked_path(false, Some(3))],
        },
    };
    let lg: FixedLg = LookingGlassFn(|from: AsId, _dst: Ipv4Addr| {
        // Every AS sees the path A(1) - B(5) - C(3) from its own position.
        let full = [AsId(1), AsId(5), AsId(3)];
        full.iter()
            .position(|&a| a == from)
            .map(|i| full[i..].to_vec())
    });
    (obs, lg)
}

#[test]
fn nd_lg_maps_stars_to_blocked_as() {
    let (obs, lg) = blocked_scenario();
    let d = nd_lg(
        &obs,
        &ip2as(),
        &RoutingFeed::default(),
        &lg,
        Weights::default(),
    );
    assert!(!d.hypothesis.is_empty());
    // The AS-level hypothesis names the blocked AS 5.
    let ases = d.as_hypothesis();
    assert!(
        ases.contains(&AsId(5)),
        "AS hypothesis {ases:?} must contain the blocked AS"
    );
}

/// LG AS path A-B-D-C with one star run between A and C: the UHs get
/// the combined tag {B, D}.
fn ambiguous_scenario() -> (Observations, FixedLg) {
    let path = |reached: bool, cut: Option<usize>| {
        let mut hops = vec![
            addr_hop(1, 1, 1),
            Hop::Star,
            Hop::Star,
            addr_hop(3, 1, 1),
            Hop::Addr(ip(3, 0, 200)),
        ];
        if let Some(n) = cut {
            hops.truncate(n);
        }
        ProbePath {
            src: SensorId(0),
            dst: SensorId(2),
            hops,
            reached,
        }
    };
    let obs = Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path(true, None)],
        },
        after: Snapshot {
            paths: vec![path(false, Some(2))],
        },
    };
    let lg: FixedLg = LookingGlassFn(|from: AsId, _| {
        let full = [AsId(1), AsId(5), AsId(6), AsId(3)]; // A-B-D-C
        full.iter()
            .position(|&a| a == from)
            .map(|i| full[i..].to_vec())
    });
    (obs, lg)
}

#[test]
fn nd_lg_combined_tag_when_ambiguous() {
    let (obs, lg) = ambiguous_scenario();
    let d = nd_lg(
        &obs,
        &ip2as(),
        &RoutingFeed::default(),
        &lg,
        Weights::default(),
    );
    let ases = d.as_hypothesis();
    assert!(
        ases.contains(&AsId(5)) && ases.contains(&AsId(6)),
        "ambiguous tag must include both candidate ASes, got {ases:?}"
    );
}

/// §5.1: single non-recoverable link failures are Tomo's easy case.
/// s1->s2 and s1->s3 share the a2-x1 link; only s1->s2 dies beyond it.
fn single_link_observations() -> Observations {
    Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![path_s1_s2(true), path_s1_s3(true, None)],
        },
        after: Snapshot {
            paths: vec![
                // s1->s2 now dies right after y1 (y1-y2 failed).
                ProbePath {
                    src: SensorId(0),
                    dst: SensorId(1),
                    hops: vec![
                        addr_hop(1, 1, 1),
                        addr_hop(1, 2, 1),
                        addr_hop(4, 1, 1),
                        addr_hop(4, 2, 1),
                        addr_hop(5, 1, 1),
                    ],
                    reached: false,
                },
                path_s1_s3(true, None),
            ],
        },
    }
}

#[test]
fn single_link_failure_tomo_perfect() {
    let d = tomo(&single_link_observations(), &ip2as());
    // Candidates: the suffix y1->y2->b1->s2 (prefix cleared by the working
    // s1->s3 path). All three tie at score 1 and are all returned; the
    // true failed link y1-y2 is among them (sensitivity 1).
    let endpoints = d.hypothesis_endpoints();
    assert!(endpoints
        .iter()
        .any(|(a, b)| *a == HopNode::Ip(ip(5, 1, 1)) && *b == HopNode::Ip(ip(5, 2, 1))));
    assert!(d.greedy.unexplained_failures.is_empty());
}

/// §3.2: "At time T-, p_ij consists of the set of links
/// p^{T-} = {l1, l2, l3, l4}, and at time T+, p^{T+} = {l1, l2, l5, l6}.
/// ... We call {l3, l4} a reroute set."
///
/// Hops: s -> h1 -> h2 -> h3 -> h4 -> dst   (links l1..l4, host link)
/// After: s -> h1 -> h2 -> h5 -> h6 -> dst  (l1, l2, l5, l6)
fn section32_observations() -> Observations {
    let h = |x: u8| Hop::Addr(ip(9, x, 1));
    let dst_host = Hop::Addr(ip(2, 0, 200));
    let before = ProbePath {
        src: SensorId(0),
        dst: SensorId(1),
        hops: vec![h(0), h(1), h(2), h(3), h(4), dst_host],
        reached: true,
    };
    let after = ProbePath {
        src: SensorId(0),
        dst: SensorId(1),
        hops: vec![h(0), h(1), h(2), h(5), h(6), dst_host],
        reached: true,
    };
    Observations {
        sensors: sensors(),
        before: Snapshot {
            paths: vec![before],
        },
        after: Snapshot { paths: vec![after] },
    }
}

#[test]
fn section32_reroute_set_example_literal() {
    let d = nd_edge(&section32_observations(), &ip2as(), Weights::default());
    assert_eq!(d.problem.reroute_sets.len(), 1);
    let rs = &d.problem.reroute_sets[0];
    // The reroute set is exactly the two abandoned links: the edges into
    // h3 (l3) and h4 (l4). The edge into the destination host is shared
    // (same ingress) and the prefix l1, l2 are unchanged.
    let targets: BTreeSet<HopNode> = rs.edges.iter().map(|e| d.graph().endpoints(e).1).collect();
    assert_eq!(
        targets,
        BTreeSet::from([HopNode::Ip(ip(9, 3, 1)), HopNode::Ip(ip(9, 4, 1))]),
        "reroute set must be exactly {{l3, l4}}"
    );
    // And the greedy must hit it (a failed link hides among l3/l4).
    let hit = d.hypothesis.iter().any(|&e| rs.edges.contains(e));
    assert!(hit, "{:?}", d.hypothesis_endpoints());
}

/// Every scenario above with the inputs all four algorithms may read: the
/// feed (empty where the scenario has none) and a Looking Glass (one that
/// knows no path where the scenario has no blocked AS).
fn scenarios() -> Vec<(&'static str, Observations, RoutingFeed, FixedLg)> {
    let no_lg = || -> FixedLg { LookingGlassFn(|_, _| None) };
    let none = RoutingFeed::default;
    let (withdrawal, withdrawal_feed) = withdrawal_scenario();
    let (igp_event, igp_feed) = igp_event_scenario();
    let (blocked, blocked_lg) = blocked_scenario();
    let (ambiguous, ambiguous_lg) = ambiguous_scenario();
    vec![
        ("misconfig", misconfig_observations(), none(), no_lg()),
        ("reroute", reroute_observations(), none(), no_lg()),
        ("withdrawal", withdrawal, withdrawal_feed, no_lg()),
        ("igp-event", igp_event, igp_feed, no_lg()),
        ("blocked", blocked, none(), blocked_lg),
        ("ambiguous", ambiguous, none(), ambiguous_lg),
        ("single-link", single_link_observations(), none(), no_lg()),
        ("section32", section32_observations(), none(), no_lg()),
    ]
}

/// The paper-named function of `algorithm`.
fn paper_named(
    algorithm: Algorithm,
    obs: &Observations,
    feed: &RoutingFeed,
    lg: &dyn LookingGlass,
) -> Diagnosis {
    let (ip2as, weights) = (ip2as(), Weights::default());
    match algorithm {
        Algorithm::Tomo => tomo(obs, &ip2as),
        Algorithm::NdEdge => nd_edge(obs, &ip2as, weights),
        Algorithm::NdBgpIgp => nd_bgpigp(obs, &ip2as, feed, weights),
        Algorithm::NdLg => nd_lg(obs, &ip2as, feed, lg, weights),
        other => panic!("no paper-named function for {other}"),
    }
}

/// The facade, the paper-named functions and the single pipeline are one
/// diagnosis: on every scenario and for every algorithm they agree on the
/// hypothesis (link- and AS-level) and the unexplained failures, and the
/// facade emits the pipeline's trace byte for byte.
#[test]
fn facade_and_functions_run_one_pipeline() {
    for (name, obs, feed, lg) in scenarios() {
        for algorithm in Algorithm::ALL {
            // Each leg runs in a fresh trial scope, so both traces start
            // their logical clock at zero.
            let (facade_rec, facade_trace) = RecorderHandle::tracing();
            let facade = {
                let _trial = netdiag_obs::trial_scope(0, 0);
                NetDiagnoser::builder()
                    .algorithm(algorithm)
                    .routing_feed(feed.clone())
                    .looking_glass(LookingGlassFn(lg.0))
                    .recorder(facade_rec)
                    .build()
                    .diagnose(&obs, &ip2as())
                    .unwrap()
            };
            let (run_rec, run_trace) = RecorderHandle::tracing();
            let piped = {
                let _trial = netdiag_obs::trial_scope(0, 0);
                let weights = Weights::default();
                run(
                    algorithm,
                    &obs,
                    &ip2as(),
                    Some(&feed),
                    Some(&lg),
                    weights,
                    &run_rec,
                )
            };
            let named = paper_named(algorithm, &obs, &feed, &lg);

            for (entry, d) in [("run", &piped), ("paper-named", &named)] {
                assert_eq!(
                    facade.hypothesis, d.hypothesis,
                    "{name}/{algorithm}: facade and {entry} hypotheses differ"
                );
                assert_eq!(
                    facade.as_hypothesis(),
                    d.as_hypothesis(),
                    "{name}/{algorithm}: facade and {entry} AS hypotheses differ"
                );
                assert_eq!(
                    facade.greedy.unexplained_failures, d.greedy.unexplained_failures,
                    "{name}/{algorithm}: facade and {entry} unexplained failures differ"
                );
            }
            assert!(
                !run_trace.is_empty(),
                "{name}/{algorithm}: run traced nothing"
            );
            assert_eq!(
                facade_trace.to_jsonl(),
                run_trace.to_jsonl(),
                "{name}/{algorithm}: facade and run traces differ"
            );
        }
    }
}
