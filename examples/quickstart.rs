//! Quickstart: build the paper's 165-AS research Internet, break a link,
//! and let NetDiagnoser find it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

// A runnable demo talks to its user on stdout.
#![allow(clippy::print_stdout)]
use std::collections::BTreeSet;
use std::sync::Arc;

use netdiagnoser_repro::diagnoser::{Algorithm, NetDiagnoser, RecorderHandle};
use netdiagnoser_repro::experiments::bridge::{observations, TruthIpToAs};
use netdiagnoser_repro::experiments::truth::{evaluate, TruthMap};
use netdiagnoser_repro::netsim::{probe_mesh, SensorSet, Sim};
use netdiagnoser_repro::topology::builders::{build_internet, InternetConfig};

fn main() {
    // 1. The evaluation topology: Abilene + GEANT + WIDE cores, 22 tier-2
    //    ASes, 140 stubs — deterministic for a given seed.
    let net = build_internet(&InternetConfig::default());
    let topology = Arc::new(net.topology.clone());
    println!(
        "topology: {} ASes, {} routers, {} links",
        topology.as_count(),
        topology.router_count(),
        topology.link_count()
    );

    // 2. Ten sensors in the first ten stub ASes; converge routing for
    //    their prefixes.
    let spec: Vec<_> = net.stubs[..10]
        .iter()
        .map(|s| (s.as_id, s.routers[0]))
        .collect();
    let sensors = SensorSet::place(&topology, &spec);
    let mut sim = Sim::new(Arc::clone(&topology));
    sensors.register(&mut sim);
    sim.converge_for(&sensors.as_ids());

    // 3. Probe the full mesh before the failure.
    let blocked = BTreeSet::new();
    let before = probe_mesh(&sim, &sensors, &blocked);
    println!(
        "T-: {} traceroutes, all reachable",
        before.traceroutes.len()
    );

    // 4. Break the uplink of the first sensor's stub AS and re-probe.
    let victim = sensors.sensors()[0];
    let uplink = topology.router(victim.router).links[0];
    let mut broken = sim.clone();
    broken.fail_link(uplink);
    let after = probe_mesh(&broken, &sensors, &blocked);
    println!(
        "T+: link {uplink} down, {} of {} paths now fail",
        after.failed_count(),
        after.traceroutes.len()
    );

    // 5. Diagnose from the probes alone, collecting instrumentation as we
    //    go. Tomo and ND-edge need no routing feed, so the builder needs
    //    no optional inputs.
    let obs = observations(&sensors, &before, &after);
    let ip2as = TruthIpToAs {
        topology: &topology,
    };
    let (recorder, profile) = RecorderHandle::live();
    let diagnose = |algorithm| {
        NetDiagnoser::builder()
            .algorithm(algorithm)
            .recorder(recorder.clone())
            .build()
            .diagnose(&obs, &ip2as)
            .expect("tomo/nd-edge need no optional inputs")
    };
    let d_tomo = diagnose(Algorithm::Tomo);
    let d_edge = diagnose(Algorithm::NdEdge);

    // 6. Score against ground truth.
    let truth = TruthMap::build(&topology, &before, &after);
    let failed = BTreeSet::from([uplink]);
    let e_tomo = evaluate(&topology, &truth, &d_tomo, &failed);
    let e_edge = evaluate(&topology, &truth, &d_edge, &failed);
    println!(
        "Tomo:    sensitivity {:.2}, specificity {:.3}, |H| = {}",
        e_tomo.sensitivity, e_tomo.specificity, e_tomo.hypothesis_size
    );
    println!(
        "ND-edge: sensitivity {:.2}, specificity {:.3}, |H| = {}",
        e_edge.sensitivity, e_edge.specificity, e_edge.hypothesis_size
    );
    println!(
        "ND-edge hypothesis links: {:?}",
        truth.hypothesis_links(&d_edge)
    );
    assert!(truth.hypothesis_links(&d_edge).contains(&uplink));
    println!("the failed link is in the hypothesis ✓");

    // 7. The recorder saw both diagnoses.
    let report = profile.snapshot();
    println!(
        "instrumentation: {} diagnoses, {} greedy iterations",
        report.counter("diag.runs"),
        report.counter("hs.greedy_iters")
    );
}
