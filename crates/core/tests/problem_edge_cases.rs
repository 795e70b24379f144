//! Edge cases of the tomography-problem builder: degenerate observations
//! must produce sane problems, never panics; and the control-plane feed
//! is read as a set, whatever order its withdrawals arrive in.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::net::Ipv4Addr;

use proptest::prelude::*;

use netdiag_obs::names;
use netdiag_topology::{AsId, Prefix, SensorId};
use netdiagnoser::{
    nd_edge, tomo, BuildOptions, Hop, IgpLinkDownObs, IpToAsFn, Observations, ProbePath, Problem,
    RecorderHandle, RoutingFeed, SensorMeta, Snapshot, Weights, WithdrawalObs,
};

fn ip2as() -> IpToAsFn<impl Fn(Ipv4Addr) -> Option<AsId>> {
    IpToAsFn(|a: Ipv4Addr| Some(AsId(u32::from(a.octets()[1]))))
}

fn sensors(n: u32) -> Vec<SensorMeta> {
    (0..n)
        .map(|i| SensorMeta {
            id: SensorId(i),
            addr: Ipv4Addr::new(10, (i + 1) as u8, 0, 200),
            as_id: AsId(i + 1),
        })
        .collect()
}

fn path(src: u32, dst: u32, hops: Vec<Hop>, reached: bool) -> ProbePath {
    ProbePath {
        src: SensorId(src),
        dst: SensorId(dst),
        hops,
        reached,
    }
}

#[test]
fn empty_observations_build_empty_problem() {
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot::default(),
        after: Snapshot::default(),
    };
    for opts in [
        BuildOptions::tomo(),
        BuildOptions::nd_edge(),
        BuildOptions::nd_lg(),
    ] {
        let p = Problem::build(&obs, &ip2as(), opts);
        assert_eq!(p.graph.edge_count(), 0);
        assert!(p.failure_sets.is_empty());
        assert!(p.candidates.is_empty());
    }
    let d = tomo(&obs, &ip2as());
    assert!(d.is_empty());
}

#[test]
fn nothing_failed_means_empty_hypothesis() {
    let hops = vec![
        Hop::Addr(Ipv4Addr::new(10, 1, 1, 1)),
        Hop::Addr(Ipv4Addr::new(10, 2, 1, 1)),
        Hop::Addr(Ipv4Addr::new(10, 2, 0, 200)),
    ];
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![path(0, 1, hops.clone(), true)],
        },
        after: Snapshot {
            paths: vec![path(0, 1, hops, true)],
        },
    };
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    assert!(d.is_empty());
    assert!(d.problem.reroute_sets.is_empty());
}

#[test]
fn pair_broken_before_the_event_is_not_diagnosed() {
    // The pair was already failed at T-: its breakage predates the event
    // and must not contribute a failure set.
    let broken_before = path(0, 1, vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))], false);
    let broken_after = path(0, 1, vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))], false);
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![broken_before],
        },
        after: Snapshot {
            paths: vec![broken_after],
        },
    };
    let p = Problem::build(&obs, &ip2as(), BuildOptions::nd_edge());
    assert!(p.failure_sets.is_empty());
}

#[test]
fn pair_missing_from_after_snapshot_is_skipped() {
    // No T+ measurement for the pair (sensor offline): neither a failure
    // set nor a working constraint.
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![path(
                0,
                1,
                vec![
                    Hop::Addr(Ipv4Addr::new(10, 1, 1, 1)),
                    Hop::Addr(Ipv4Addr::new(10, 2, 0, 200)),
                ],
                true,
            )],
        },
        after: Snapshot::default(),
    };
    let p = Problem::build(&obs, &ip2as(), BuildOptions::nd_edge());
    assert!(p.failure_sets.is_empty());
    assert!(p.working_edges.is_empty());
    assert!(p.candidates.is_empty());
}

#[test]
fn single_hop_paths_are_handled() {
    // Source attach router only (destination adjacent or measurement
    // truncated immediately): zero edges, no panic.
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![path(
                0,
                1,
                vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))],
                true,
            )],
        },
        after: Snapshot {
            paths: vec![path(
                0,
                1,
                vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))],
                false,
            )],
        },
    };
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    // The failure set is empty (no observed links): unexplainable.
    assert_eq!(d.unexplained_failures(), 1);
    assert!(d.is_empty());
}

#[test]
fn unexplained_count_is_pinned_on_a_mixed_scenario() {
    // Regression pin for the count cached at `Diagnosis` construction:
    // one failed path with candidate links (explained by the greedy
    // cover) and one with none (unexplainable) must report exactly 1 —
    // not 0 (cache never filled) and not 2 (cache counting all failures).
    let a = |x: u8, y: u8| Ipv4Addr::new(10, x, 0, y);
    let obs = Observations {
        sensors: sensors(3),
        before: Snapshot {
            paths: vec![
                path(
                    0,
                    1,
                    vec![Hop::Addr(a(1, 1)), Hop::Addr(a(2, 1)), Hop::Addr(a(2, 200))],
                    true,
                ),
                path(0, 2, vec![Hop::Addr(a(1, 1))], true),
            ],
        },
        after: Snapshot {
            paths: vec![
                path(0, 1, vec![Hop::Addr(a(1, 1))], false),
                path(0, 2, vec![Hop::Addr(a(1, 1))], false),
            ],
        },
    };
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    assert!(!d.is_empty(), "the explainable failure yields a suspect");
    assert_eq!(d.unexplained_failures(), 1);
    // The structured report mirrors the cached value.
    let report = netdiagnoser::DiagnosticReport::from_diagnosis(
        &d,
        &netdiagnoser::DiagnosticsConfig::default(),
    );
    assert_eq!(report.counters.unexplained_failures, 1);
}

#[test]
fn unmapped_addresses_fall_back_to_plain_edges() {
    // ip2as knows nothing: logical expansion must degrade gracefully to
    // physical edges.
    let unknown = IpToAsFn(|_| None);
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![path(
                0,
                1,
                vec![
                    Hop::Addr(Ipv4Addr::new(10, 1, 1, 1)),
                    Hop::Addr(Ipv4Addr::new(10, 9, 1, 1)),
                    Hop::Addr(Ipv4Addr::new(10, 2, 0, 200)),
                ],
                true,
            )],
        },
        after: Snapshot {
            paths: vec![path(
                0,
                1,
                vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))],
                false,
            )],
        },
    };
    let p = Problem::build(&obs, &unknown, BuildOptions::nd_edge());
    for (_, e) in p.graph.edges() {
        assert!(e.logical.is_none(), "no logical links without AS mapping");
    }
    let d = nd_edge(&obs, &unknown, Weights::default());
    assert!(!d.is_empty());
}

#[test]
fn asymmetric_mesh_directions_are_independent() {
    // 0->1 fails while 1->0 keeps working: only one failure set, and the
    // reverse-direction edges are working constraints, not candidates.
    let fwd = |reached| {
        path(
            0,
            1,
            vec![
                Hop::Addr(Ipv4Addr::new(10, 1, 1, 1)),
                Hop::Addr(Ipv4Addr::new(10, 3, 1, 1)),
                Hop::Addr(Ipv4Addr::new(10, 2, 0, 200)),
            ],
            reached,
        )
    };
    let rev = path(
        1,
        0,
        vec![
            Hop::Addr(Ipv4Addr::new(10, 2, 1, 1)),
            Hop::Addr(Ipv4Addr::new(10, 3, 2, 1)),
            Hop::Addr(Ipv4Addr::new(10, 1, 0, 200)),
        ],
        true,
    );
    let obs = Observations {
        sensors: sensors(2),
        before: Snapshot {
            paths: vec![fwd(true), rev.clone()],
        },
        after: Snapshot {
            paths: vec![
                path(0, 1, vec![Hop::Addr(Ipv4Addr::new(10, 1, 1, 1))], false),
                rev,
            ],
        },
    };
    let p = Problem::build(&obs, &ip2as(), BuildOptions::nd_edge());
    assert_eq!(p.failure_sets.len(), 1);
    let d = nd_edge(&obs, &ip2as(), Weights::default());
    assert!(!d.is_empty());
}

/// Router interface `i` of a 20-address pool spread over ASes 1-5, the
/// ASes of `sensors(5)`.
fn router_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, (i % 5 + 1) as u8, 0, (i / 5 + 1) as u8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `apply_feed` reads the withdrawals as a set: each one exonerates
    /// upstream edges on its own, so any permutation of
    /// `feed.withdrawals` leaves the same hitting-set instance, the same
    /// forced edges and the same exonerated-edge count. The BGP engine
    /// relies on this when it delivers a replay one prefix at a time
    /// rather than in one FIFO over every prefix.
    ///
    /// Each ordered pair of four sensors gets a random pre-failure path
    /// over the pool, then keeps it (fate 0), fails after `cut` of its
    /// hops (fate 1) or reroutes over another random path (fate 2).
    #[test]
    fn apply_feed_ignores_the_order_of_withdrawals(
        before in proptest::collection::vec(proptest::collection::vec(0u32..20, 1..5), 12..13),
        fate in proptest::collection::vec(0u32..3, 12..13),
        cut in proptest::collection::vec(0usize..5, 12..13),
        reroute in proptest::collection::vec(proptest::collection::vec(0u32..20, 1..5), 12..13),
        withdrawals in proptest::collection::vec((0u32..20, 1u32..6), 0..10),
        igp in proptest::collection::vec((0u32..20, 0u32..20), 0..3),
        keys in proptest::collection::vec(any::<u64>(), 10..11),
    ) {
        let sensors = sensors(4);
        let pairs: Vec<(u32, u32)> = (0..4u32)
            .flat_map(|s| (0..4u32).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let hops = |route: &[u32], d: u32| -> Vec<Hop> {
            route
                .iter()
                .map(|&i| Hop::Addr(router_addr(i)))
                .chain([Hop::Addr(sensors[d as usize].addr)])
                .collect()
        };
        let mut obs = Observations {
            sensors: sensors.clone(),
            before: Snapshot::default(),
            after: Snapshot::default(),
        };
        for (i, &(s, d)) in pairs.iter().enumerate() {
            let healthy = path(s, d, hops(&before[i], d), true);
            obs.after.paths.push(match fate[i] {
                0 => healthy.clone(),
                1 => path(s, d, healthy.hops[..cut[i].min(before[i].len())].to_vec(), false),
                _ => path(s, d, hops(&reroute[i], d), true),
            });
            obs.before.paths.push(healthy);
        }
        let feed = RoutingFeed {
            withdrawals: withdrawals
                .iter()
                .map(|&(from, asn)| WithdrawalObs {
                    from_addr: router_addr(from),
                    prefix: Prefix::new(Ipv4Addr::new(10, asn as u8, 0, 0), 16),
                })
                .collect(),
            igp_link_down: igp
                .iter()
                .map(|&(a, b)| IgpLinkDownObs {
                    addr_a: router_addr(a),
                    addr_b: router_addr(b),
                })
                .collect(),
        };
        let mut order: Vec<usize> = (0..feed.withdrawals.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        let permuted = RoutingFeed {
            withdrawals: order.iter().map(|&i| feed.withdrawals[i]).collect(),
            ..feed.clone()
        };
        for opts in [BuildOptions::nd_edge(), BuildOptions::nd_lg()] {
            let outcome = |feed: &RoutingFeed| {
                let (recorder, memory) = RecorderHandle::live();
                let mut p = Problem::build(&obs, &ip2as(), opts);
                p.apply_feed_recorded(&obs, feed, &recorder);
                (
                    format!("{:?}", p.instance()),
                    p.forced,
                    memory.snapshot().counter(names::FEED_EXONERATED_EDGES),
                )
            };
            prop_assert_eq!(outcome(&feed), outcome(&permuted));
        }
    }
}
