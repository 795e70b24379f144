//! Origin-scoped prefix space: a simulator built by `Sim::with_origins`
//! sizes its BGP tables to the prefixes of the ASes it will originate. It
//! must be observationally identical to a full-prefix simulator that ran
//! `converge_for` on the same origins — per-router Loc-RIBs, message
//! counts, the observed eBGP stream, IGP events and the probe mesh — through
//! any sequence of link and router failures, misconfigurations (also on
//! prefixes outside the scope) and snapshot restores.
//!
//! A simulator scoped from a shared healthy base (`Sim::scoped`) must in
//! turn match `Sim::with_origins`, share the base's topology, IGP and
//! session tables, and keep its failures to itself.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use netdiag_bgp::{ExportDeny, Route};
use netdiag_netsim::{apply_failure, probe_mesh, Failure, SensorSet, Sim};
use netdiag_obs::RecorderHandle;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::{AsId, LinkId, LinkKind, RouterId, Topology};

/// The paper's 165-AS evaluation internet.
fn paper() -> &'static Arc<Topology> {
    static T: OnceLock<Arc<Topology>> = OnceLock::new();
    T.get_or_init(|| Arc::new(build_internet(&InternetConfig::default()).topology))
}

/// A generated 200-AS internet.
fn generated() -> &'static Arc<Topology> {
    static T: OnceLock<Arc<Topology>> = OnceLock::new();
    T.get_or_init(|| Arc::new(generate(&GenConfig::new(200, 5)).unwrap().topology))
}

/// One step of a random experiment, applied to both simulators.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Fail `width` links starting at index `pick`.
    Links(usize, usize),
    /// Fail router `pick`.
    Router(usize),
    /// On inter-domain link `pick`, deny the prefix of an AS inside
    /// (`true`) or outside (`false`) the scope.
    Misconfig(usize, usize, bool),
    /// Roll both simulators back to the converged baseline.
    Restore,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..100_000, 1usize..=3).prop_map(|(p, w)| Step::Links(p, w)),
        (0usize..100_000).prop_map(Step::Router),
        (0usize..100_000, 0usize..100_000, any::<bool>())
            .prop_map(|(l, a, s)| Step::Misconfig(l, a, s)),
        Just(Step::Restore),
    ]
}

/// The failure a step injects (`None` for a restore).
fn failure(t: &Topology, origins: &[AsId], step: Step) -> Option<Failure> {
    match step {
        Step::Links(pick, width) => {
            let links: Vec<LinkId> = t.links().iter().map(|l| l.id).collect();
            Some(Failure::Links(
                (0..width)
                    .map(|i| links[(pick + i * 7) % links.len()])
                    .collect(),
            ))
        }
        Step::Router(pick) => Some(Failure::Router(RouterId((pick % t.router_count()) as u32))),
        Step::Misconfig(pick, as_pick, in_scope) => {
            let inter: Vec<_> = t
                .links()
                .iter()
                .filter(|l| l.kind == LinkKind::Inter)
                .collect();
            let link = inter[pick % inter.len()];
            let outside: Vec<AsId> = t
                .ases()
                .iter()
                .map(|a| a.id)
                .filter(|a| !origins.contains(a))
                .collect();
            let pool = if in_scope || outside.is_empty() {
                origins
            } else {
                &outside
            };
            Some(Failure::Misconfig(vec![ExportDeny {
                at: link.a,
                peer: link.b,
                prefix: t.as_node(pool[as_pick % pool.len()]).prefix,
            }]))
        }
        Step::Restore => None,
    }
}

/// Drains and compares every observable of the two simulators.
fn assert_same(scoped: &mut Sim, full: &mut Sim, sensors: &SensorSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        scoped.bgp_messages(),
        full.bgp_messages(),
        "message counts diverged"
    );
    prop_assert_eq!(
        scoped.take_observed(),
        full.take_observed(),
        "observed eBGP streams diverged"
    );
    prop_assert_eq!(
        scoped.take_igp_events(),
        full.take_igp_events(),
        "IGP events diverged"
    );
    for r in scoped.topology().routers() {
        let a: Vec<_> = scoped.bgp().loc_rib(r.id).collect();
        let b: Vec<_> = full.bgp().loc_rib(r.id).collect();
        prop_assert_eq!(a, b, "Loc-RIB of router {:?} diverged", r.id);
    }
    let none = BTreeSet::new();
    prop_assert_eq!(
        probe_mesh(scoped, sensors, &none),
        probe_mesh(full, sensors, &none),
        "probe meshes diverged"
    );
    Ok(())
}

/// The distinct ASes `picks` name and one sensor in each.
fn placement(topology: &Topology, picks: &BTreeSet<usize>) -> (Vec<AsId>, SensorSet) {
    let origins: Vec<AsId> = picks
        .iter()
        .map(|&p| AsId((p % topology.as_count()) as u32))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let spec: Vec<_> = origins
        .iter()
        .map(|&a| (a, topology.as_node(a).routers[0]))
        .collect();
    let sensors = SensorSet::place(topology, &spec);
    (origins, sensors)
}

/// Builds the scoped simulator and its full-prefix oracle over the same
/// origins (one sensor in each), then drives both through `steps`.
fn check(
    topology: &Arc<Topology>,
    picks: &BTreeSet<usize>,
    observer: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let (origins, sensors) = placement(topology, picks);
    let observer = AsId((observer % topology.as_count()) as u32);

    let mut scoped = Sim::with_origins(Arc::clone(topology), &origins, RecorderHandle::noop());
    let mut full = Sim::new(Arc::clone(topology));
    for sim in [&mut scoped, &mut full] {
        sensors.register(sim);
        sim.set_observer(observer);
        sim.converge_for(&origins);
    }
    assert_same(&mut scoped, &mut full, &sensors)?;
    let (scoped_base, full_base) = (scoped.snapshot(), full.snapshot());

    for &s in steps {
        match failure(topology, &origins, s) {
            Some(f) => {
                apply_failure(&mut scoped, &f);
                apply_failure(&mut full, &f);
            }
            None => {
                scoped.restore(&scoped_base);
                full.restore(&full_base);
            }
        }
        assert_same(&mut scoped, &mut full, &sensors)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On the paper internet, a placement-sized scope is indistinguishable
    /// from the full prefix space.
    #[test]
    fn scoped_matches_full_on_the_paper_internet(
        picks in proptest::collection::btree_set(0usize..100_000, 1..=10),
        observer in 0usize..100_000,
        steps in proptest::collection::vec(step(), 1..6),
    ) {
        check(paper(), &picks, observer, &steps)?;
    }

    /// The same on a generated 200-AS internet.
    #[test]
    fn scoped_matches_full_on_a_generated_internet(
        picks in proptest::collection::btree_set(0usize..100_000, 1..=10),
        observer in 0usize..100_000,
        steps in proptest::collection::vec(step(), 1..6),
    ) {
        check(generated(), &picks, observer, &steps)?;
    }
}

/// Originating an AS the simulator was not scoped to is a caller bug.
#[test]
#[should_panic(expected = "outside the engine's prefix space")]
fn originating_outside_the_scope_panics() {
    let topology = Arc::new(build_internet(&InternetConfig::small(1)).topology);
    let mut sim = Sim::with_origins(topology, &[AsId(0)], RecorderHandle::noop());
    sim.converge_for(&[AsId(1)]);
}

/// The paper's small test internet.
fn small() -> &'static Arc<Topology> {
    static T: OnceLock<Arc<Topology>> = OnceLock::new();
    T.get_or_init(|| Arc::new(build_internet(&InternetConfig::small(1)).topology))
}

/// `sim` with `sensors` registered, converged on `origins`.
fn converged(mut sim: Sim, sensors: &SensorSet, origins: &[AsId]) -> Sim {
    sensors.register(&mut sim);
    sim.converge_for(origins);
    sim
}

/// Every router's best route toward every prefix of `origins`.
fn best_routes(sim: &Sim, origins: &[AsId]) -> Vec<Option<Route>> {
    let t = sim.topology();
    t.routers()
        .iter()
        .flat_map(|r| {
            origins
                .iter()
                .map(move |&a| sim.bgp().best_route(r.id, &t.as_node(a).prefix))
        })
        .collect()
}

/// True when `a` and `b` hold one copy of the topology, of every AS's
/// IGP tables and of the BGP session tables.
fn shares_base(a: &Sim, b: &Sim) -> bool {
    Arc::ptr_eq(&a.topology_arc(), &b.topology_arc())
        && a.topology()
            .ases()
            .iter()
            .all(|x| std::ptr::eq(a.igp().of(x.id), b.igp().of(x.id)))
        && std::ptr::eq(a.bgp().sessions(), b.bgp().sessions())
}

/// Scopes a placement from a shared base and holds it to
/// `Sim::with_origins`, then fails a link in it and checks that neither
/// the base nor a sibling placement saw the failure.
fn check_base(
    topology: &Arc<Topology>,
    picks: &BTreeSet<usize>,
    sibling_picks: &BTreeSet<usize>,
    link_pick: usize,
) -> Result<(), TestCaseError> {
    let noop = RecorderHandle::noop;
    let base = Sim::base(Arc::clone(topology), 1, noop());
    let (origins, sensors) = placement(topology, picks);
    let mut scoped = converged(base.scoped(&origins, noop()), &sensors, &origins);
    let mut fresh = converged(
        Sim::with_origins(Arc::clone(topology), &origins, noop()),
        &sensors,
        &origins,
    );
    prop_assert!(shares_base(&base, &scoped), "scoped sim copied base state");
    let healthy = best_routes(&scoped, &origins);
    prop_assert_eq!(&healthy, &best_routes(&fresh, &origins));
    prop_assert_eq!(scoped.bgp_messages(), fresh.bgp_messages());
    let none = BTreeSet::new();
    prop_assert_eq!(
        probe_mesh(&scoped, &sensors, &none),
        probe_mesh(&fresh, &sensors, &none)
    );

    let (others, sibling_sensors) = placement(topology, sibling_picks);
    let sibling = converged(base.scoped(&others, noop()), &sibling_sensors, &others);
    let sibling_routes = best_routes(&sibling, &others);
    let sibling_mesh = probe_mesh(&sibling, &sibling_sensors, &none);

    let link = topology.links()[link_pick % topology.link_count()].id;
    scoped.fail_link(link);
    fresh.fail_link(link);
    prop_assert_eq!(
        best_routes(&scoped, &origins),
        best_routes(&fresh, &origins)
    );
    prop_assert_eq!(scoped.bgp_messages(), fresh.bgp_messages());

    prop_assert!(base.links().none_down(), "the failure reached the base");
    prop_assert!(sibling.links().none_down(), "the failure reached a sibling");
    prop_assert!(shares_base(&base, &sibling), "a sibling lost its sharing");
    prop_assert_eq!(best_routes(&sibling, &others), sibling_routes);
    prop_assert_eq!(probe_mesh(&sibling, &sibling_sensors, &none), sibling_mesh);
    // The base still scopes the healthy placement.
    let again = converged(base.scoped(&origins, noop()), &sensors, &origins);
    prop_assert_eq!(best_routes(&again, &origins), healthy);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a small internet, placements scoped from one base match
    /// `Sim::with_origins` and stay isolated from each other.
    #[test]
    fn scoped_from_a_base_matches_with_origins_and_isolates_failures(
        picks in proptest::collection::btree_set(0usize..100_000, 1..=8),
        sibling_picks in proptest::collection::btree_set(0usize..100_000, 1..=8),
        link_pick in 0usize..100_000,
    ) {
        check_base(small(), &picks, &sibling_picks, link_pick)?;
    }
}

/// A simulator with a prefix space of its own is no base to scope from
/// (a debug-build check).
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "Bgp::scoped needs a base that has originated nothing")]
fn scoping_a_placement_simulator_panics() {
    let sim = Sim::with_origins(Arc::clone(small()), &[AsId(0)], RecorderHandle::noop());
    let _ = sim.scoped(&[AsId(1)], RecorderHandle::noop());
}
