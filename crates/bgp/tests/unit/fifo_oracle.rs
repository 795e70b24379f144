//! The retired interleaved delivery order, kept as the oracle for
//! [`Bgp::run`]'s prefix-at-a-time order.
//!
//! The oracle is the same engine driven through the same steps, except
//! that it originates every prefix before its first drain and each drain
//! delivers one FIFO over the whole queue ([`Bgp::run_fifo`]). After
//! convergence and after every replay step that queues several prefixes
//! at once — link failures (three at a time too), repairs (which
//! re-advertise every prefix), misconfigurations and their fixes — both
//! must hold the same Loc-RIBs, have delivered the same number of
//! messages and have fed the observer the same stream *per prefix*. The
//! interleaving across prefixes is what the two orders change, and the
//! feed's one consumer reads withdrawals as a set (`Problem::apply_feed`;
//! netdiag-core's property tests pin its order independence).
//!
//! Failures replay here through the full refresh
//! ([`Bgp::handle_link_down`]); netdiag-netsim's `cow_equivalence` tests
//! hold the simulator's incremental failure path to that one (probe mesh,
//! IGP events and the observed eBGP stream).

use super::*;
use netdiag_topology::builders::{build_internet, InternetConfig};
use netdiag_topology::gen::{generate, GenConfig};
use proptest::prelude::*;

impl Bgp {
    /// Delivers the whole queue as one FIFO over every prefix.
    fn run_fifo(&mut self, ctx: Ctx<'_>) -> RunStats {
        let mut delivered = 0;
        while let Some(msg) = self.queue.pop_front() {
            delivered += 1;
            self.deliver(ctx, msg);
        }
        self.flush_counters(delivered)
    }
}

/// One replay step, applied alike to both worlds.
#[derive(Clone, Debug)]
enum Step {
    Fail(Vec<LinkId>),
    Repair(LinkId),
    Misconfigure(ExportDeny),
    Fix(ExportDeny),
}

/// An engine with its link and IGP state; `fifo` picks the drain.
#[derive(Clone)]
struct World {
    links: LinkState,
    igp: Igp,
    bgp: Bgp,
    messages: u64,
    fifo: bool,
}

impl World {
    /// Every prefix converged: by [`Bgp::converge`], or for the oracle
    /// by originating them all and draining one FIFO.
    fn converged(t: &Topology, observer: AsId, fifo: bool) -> World {
        let links = LinkState::all_up(t);
        let igp = Igp::compute(t, &links);
        let mut bgp = Bgp::new(t);
        bgp.set_observer(observer);
        let ctx = Ctx {
            topology: t,
            igp: &igp,
            links: &links,
        };
        let stats = if fifo {
            bgp.originate_all(ctx);
            bgp.run_fifo(ctx)
        } else {
            let all: Vec<AsId> = t.ases().iter().map(|a| a.id).collect();
            bgp.converge(ctx, &all)
        };
        World {
            links,
            igp,
            bgp,
            messages: stats.messages,
            fifo,
        }
    }

    /// Applies `step` as the simulator does: link state and IGP
    /// first, then the BGP reaction, then one drain.
    fn apply(&mut self, t: &Topology, step: &Step) {
        let flipped: Vec<LinkId> = match step {
            Step::Fail(ls) => ls
                .iter()
                .copied()
                .filter(|&l| self.links.set_down(l))
                .collect(),
            Step::Repair(l) if !self.links.set_up(*l) => vec![*l],
            _ => Vec::new(),
        };
        for &l in &flipped {
            let link = t.link(l);
            if link.kind == LinkKind::Intra {
                let as_id = t.as_of_router(link.a);
                self.igp
                    .recompute_as(t, as_id, &self.links, &RecorderHandle::noop());
            }
        }
        let ctx = Ctx {
            topology: t,
            igp: &self.igp,
            links: &self.links,
        };
        for &l in &flipped {
            match step {
                Step::Repair(_) => self.bgp.handle_link_up(ctx, l),
                _ => self.bgp.handle_link_down(ctx, l),
            }
        }
        match step {
            Step::Misconfigure(rule) => self.bgp.install_filter(ctx, *rule),
            Step::Fix(rule) => assert!(self.bgp.remove_filter(ctx, rule)),
            _ => {}
        }
        let stats = if self.fifo {
            self.bgp.run_fifo(ctx)
        } else {
            self.bgp.run(ctx)
        };
        self.messages += stats.messages;
    }
}

/// Asserts the two worlds delivered the same messages and fed the
/// observer the same subsequence for each prefix.
fn same_stream(got: &mut World, want: &mut World, when: &str) {
    assert_eq!(got.messages, want.messages, "{when}: messages");
    // A stable sort keeps each prefix's messages in delivery order.
    let per_prefix = |w: &mut World| {
        let mut observed = w.bgp.take_observed();
        observed.sort_by_key(|m| m.prefix);
        observed
    };
    assert_eq!(
        per_prefix(got),
        per_prefix(want),
        "{when}: per-prefix observed streams"
    );
}

/// [`same_stream`], and every router's Loc-RIB field for field.
fn same(t: &Topology, got: &mut World, want: &mut World, when: &str) {
    same_stream(got, want, when);
    for r in t.routers() {
        let g: Vec<_> = got.bgp.loc_rib(r.id).collect();
        let w: Vec<_> = want.bgp.loc_rib(r.id).collect();
        assert_eq!(g, w, "{when}: Loc-RIB of router {:?}", r.id);
    }
}

/// Converges both worlds under an observer, then applies `steps` to
/// both in turn, comparing after each.
fn check(t: &Topology, observer: AsId, steps: &[Step]) {
    let mut got = World::converged(t, observer, false);
    let mut want = World::converged(t, observer, true);
    same(t, &mut got, &mut want, "converged");
    for step in steps {
        got.apply(t, step);
        want.apply(t, step);
        same(t, &mut got, &mut want, &format!("after {step:?}"));
    }
}

/// Every replay path from random picks: one link fails and is
/// repaired, three links fail at once, a border router stops
/// exporting its own AS's prefix to an eBGP neighbor and is fixed,
/// and one of the three links comes back.
fn scenario(t: &Topology, picks: &[usize], observer: usize) {
    let links: Vec<LinkId> = picks
        .iter()
        .map(|&p| LinkId((p % t.link_count()) as u32))
        .collect();
    let inter = (0..t.link_count())
        .map(|i| t.link(LinkId(((picks[0] + i) % t.link_count()) as u32)))
        .find(|l| l.kind == LinkKind::Inter)
        .expect("an internet has inter-domain links");
    let rule = ExportDeny {
        at: inter.a,
        peer: inter.b,
        prefix: t.as_node(t.as_of_router(inter.a)).prefix,
    };
    let steps = [
        Step::Fail(vec![links[0]]),
        Step::Repair(links[0]),
        Step::Fail(links.clone()),
        Step::Misconfigure(rule),
        Step::Fix(rule),
        Step::Repair(links[1]),
    ];
    check(t, AsId((observer % t.as_count()) as u32), &steps);
}

/// Fails and then repairs every link in turn, each on fresh copies
/// of both converged worlds, under an observer at one of the link's
/// ASes. The Loc-RIBs are compared once, after convergence; a route
/// missing from (or extra in) some Adj-RIB-In shows in the message
/// counts and streams once a failure makes its router fall back on it.
fn sweep(t: &Topology) {
    let mut got = World::converged(t, AsId(0), false);
    let mut want = World::converged(t, AsId(0), true);
    same(t, &mut got, &mut want, "converged");
    for l in t.links() {
        let observer = t.as_of_router(l.a);
        let (mut g, mut w) = (got.clone(), want.clone());
        g.bgp.set_observer(observer);
        w.bgp.set_observer(observer);
        for step in [Step::Fail(vec![l.id]), Step::Repair(l.id)] {
            g.apply(t, &step);
            w.apply(t, &step);
            same_stream(&mut g, &mut w, &format!("after {step:?}"));
        }
    }
}

#[test]
fn every_link_failure_and_repair_matches_on_the_paper_internet() {
    sweep(&build_internet(&InternetConfig::default()).topology);
}

#[test]
fn every_link_failure_and_repair_matches_on_a_generated_internet() {
    sweep(
        &generate(&GenConfig::new(120, 11))
            .expect("valid config")
            .topology,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated internets of 50-300 ASes over random seeds.
    #[test]
    fn prefix_at_a_time_matches_the_fifo_on_generated_internets(
        ases in 50usize..=300,
        seed in 0u64..10_000,
        picks in proptest::collection::vec(any::<usize>(), 3..4),
        observer in 0usize..100_000,
    ) {
        let t = generate(&GenConfig::new(ases, seed)).expect("valid config").topology;
        scenario(&t, &picks, observer);
    }

    /// The paper's 165-AS evaluation internet.
    #[test]
    fn prefix_at_a_time_matches_the_fifo_on_the_paper_internet(
        picks in proptest::collection::vec(any::<usize>(), 3..4),
        observer in 0usize..100_000,
    ) {
        scenario(&build_internet(&InternetConfig::default()).topology, &picks, observer);
    }
}
