//! The engine stores neither a route's local preference, its exit link
//! nor its egress; all three are derived when a route is materialized.
//! After a full convergence of a generated internet, every Loc-RIB route
//! must carry the values the stored fields used to hold.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use netdiag_bgp::{local_pref_for, Bgp, Ctx, RouteSource, SessionKind, LOCAL_PREF_ORIGINATED};
use netdiag_igp::{Igp, LinkState};
use netdiag_topology::gen::{generate, GenConfig};

#[test]
fn materialized_routes_carry_derived_local_pref_exit_link_and_egress() {
    let topology = generate(&GenConfig::new(200, 5)).unwrap().topology;
    let links = LinkState::all_up(&topology);
    let igp = Igp::compute(&topology, &links);
    let ctx = Ctx {
        topology: &topology,
        igp: &igp,
        links: &links,
    };
    let mut bgp = Bgp::new(&topology);
    bgp.originate_all(ctx);
    bgp.run(ctx);

    let (mut originated, mut ebgp, mut ibgp) = (0u64, 0u64, 0u64);
    for r in topology.routers() {
        for (_, route) in bgp.loc_rib(r.id) {
            let want_pref = match route.source {
                RouteSource::Originated => LOCAL_PREF_ORIGINATED,
                RouteSource::External(rel) => local_pref_for(rel),
            };
            assert_eq!(route.local_pref, want_pref, "{route:?} at {:?}", r.id);
            assert_eq!(route.ebgp_link.is_some(), route.ebgp_learned, "{route:?}");
            match (route.ebgp_link, route.learned_from) {
                (Some(link), Some((sid, _))) => {
                    let l = topology.link(link);
                    assert!(
                        l.a == r.id || l.b == r.id,
                        "{link:?} does not touch {:?}",
                        r.id
                    );
                    assert_eq!(bgp.sessions().get(sid).kind, SessionKind::Ebgp { link });
                    assert_eq!(route.egress, r.id);
                    ebgp += 1;
                }
                (Some(_), None) => panic!("an exit link without a session: {route:?}"),
                (None, None) => {
                    assert_eq!(route.source, RouteSource::Originated);
                    originated += 1;
                }
                (None, Some((_, peer))) => {
                    // iBGP is a full mesh without reflection, and a
                    // router re-advertises internally only the routes it
                    // exits itself: the sender is the egress.
                    assert_eq!(route.egress, peer, "{route:?} at {:?}", r.id);
                    assert_ne!(route.egress, r.id, "{route:?}");
                    ibgp += 1;
                }
            }
        }
    }
    // Every kind of route is present, so no check above passed vacuously.
    assert!(
        originated > 0 && ebgp > 0 && ibgp > 0,
        "{originated} {ebgp} {ibgp}"
    );
}
