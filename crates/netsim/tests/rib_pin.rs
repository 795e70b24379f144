//! Pins the full materialized Loc-RIB: every router's routes on two
//! networks (a generated 200-AS internet, seed 5, and the paper's 165-AS
//! internet), hashed with a fixed FNV-1a after full convergence, after a
//! three-link failure and after the repair of those links, against
//! `golden/rib_pin.txt`. Any change to the BGP engine's storage that moves
//! one attribute of one route — path, egress, exit link, preference,
//! source or session — shows up here as a diff against the golden file.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use netdiag_netsim::Sim;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::gen::{generate, GenConfig};
use netdiag_topology::{LinkId, LinkKind, Topology};

/// 64-bit FNV-1a, fixed so the golden file does not depend on the
/// standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hash of every router's Loc-RIB, in router then prefix order, and the
/// number of routes hashed.
fn rib_hash(sim: &Sim) -> (u64, usize) {
    let mut h = Fnv::new();
    let mut routes = 0;
    for r in sim.topology().routers() {
        h.u64(r.id.index() as u64);
        for (prefix, route) in sim.bgp().loc_rib(r.id) {
            assert_eq!(prefix, route.prefix);
            h.u64(u64::from(u32::from(route.prefix.network())));
            h.u64(u64::from(route.prefix.len()));
            h.u64(route.as_path.len() as u64);
            for a in route.as_path.iter() {
                h.u64(u64::from(a.0));
            }
            h.u64(route.egress.index() as u64);
            h.u64(route.ebgp_link.map_or(u64::MAX, |l| l.index() as u64));
            h.u64(u64::from(route.local_pref));
            h.bytes(format!("{:?}", route.source).as_bytes());
            match route.learned_from {
                Some((sid, peer)) => {
                    h.u64(sid.index() as u64);
                    h.u64(peer.index() as u64);
                }
                None => h.u64(u64::MAX),
            }
            h.u64(u64::from(route.ebgp_learned));
            routes += 1;
        }
    }
    (h.0, routes)
}

/// Three links to fail together: two inter-domain links and one
/// intra-domain link, at fixed positions of the topology's link list.
fn three_links(topology: &Topology) -> [LinkId; 3] {
    let of = |kind: LinkKind| -> Vec<LinkId> {
        topology
            .links()
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.id)
            .collect()
    };
    let (inter, intra) = (of(LinkKind::Inter), of(LinkKind::Intra));
    [
        inter[inter.len() / 3],
        inter[2 * inter.len() / 3],
        intra[intra.len() / 2],
    ]
}

/// The golden lines of one network: `<name> <step> <routes> <hash>` after
/// convergence, after the three-link failure and after its repair.
fn render_net(name: &str, topology: Topology, out: &mut String) {
    let mut sim = Sim::new(Arc::new(topology));
    sim.converge_all();
    let mut line = |step: &str, sim: &Sim| {
        let (hash, routes) = rib_hash(sim);
        out.push_str(&format!("{name} {step} {routes} {hash:016x}\n"));
    };
    line("converged", &sim);
    let links = three_links(sim.topology());
    sim.fail_links(&links);
    line("failed", &sim);
    for l in links {
        sim.repair_link(l);
    }
    line("repaired", &sim);
}

fn render() -> String {
    let mut out = String::new();
    render_net(
        "gen200-seed5",
        generate(&GenConfig::new(200, 5)).unwrap().topology,
        &mut out,
    );
    render_net(
        "paper",
        build_internet(&InternetConfig::default()).topology,
        &mut out,
    );
    out
}

#[test]
fn materialized_ribs_match_the_golden_file() {
    let want = include_str!("golden/rib_pin.txt");
    let got = render();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of golden/rib_pin.txt", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "line count\n{got}"
    );
}
