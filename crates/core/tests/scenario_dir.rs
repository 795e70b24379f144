//! `text::ScenarioDir` on disk: a scenario survives write -> read ->
//! parse, `after.txt` is the one file a read or a parse requires, and the
//! errors name the file at fault.

// Test code: unwrap on a broken fixture is the correct failure mode.
#![allow(clippy::unwrap_used)]
use std::net::Ipv4Addr;
use std::path::PathBuf;

use netdiag_topology::{AsId, Prefix, SensorId};
use netdiagnoser::text::{
    write_feed, write_observations, write_snapshot, RecordedIpToAs, RecordedLookingGlass,
    ScenarioDir, ScenarioError,
};
use netdiagnoser::{
    Hop, IpToAs, Observations, ProbePath, RoutingFeed, SensorMeta, Snapshot, WithdrawalObs,
};

/// Two sensors, one path that reached before the failure and not after.
fn sample_obs() -> Observations {
    let a = |x: u8| Ipv4Addr::new(10, x, 0, 1);
    let sensor = |id: u32, as_id: u32| SensorMeta {
        id: SensorId(id),
        addr: a(as_id as u8),
        as_id: AsId(as_id),
    };
    let path = |hops: Vec<Hop>, reached: bool| Snapshot {
        paths: vec![ProbePath {
            src: SensorId(0),
            dst: SensorId(1),
            hops,
            reached,
        }],
    };
    Observations {
        sensors: vec![sensor(0, 1), sensor(1, 2)],
        before: path(vec![Hop::Addr(a(3)), Hop::Star, Hop::Addr(a(2))], true),
        after: path(vec![Hop::Addr(a(3))], false),
    }
}

/// A fresh, empty directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netdiag_scenario_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn scenario_dir_write_read_parse_roundtrip() {
    let obs = sample_obs();
    let (sensors, before, after) = write_observations(&obs);
    let feed = RoutingFeed {
        withdrawals: vec![WithdrawalObs {
            from_addr: Ipv4Addr::new(10, 3, 0, 1),
            prefix: Prefix::new(Ipv4Addr::new(10, 2, 0, 0), 16),
        }],
        igp_link_down: Vec::new(),
    };
    let mut lg = RecordedLookingGlass::new();
    lg.record(AsId(1), Ipv4Addr::new(10, 2, 0, 1), vec![AsId(1), AsId(2)]);
    let mut ip2as = RecordedIpToAs::new();
    ip2as.record(Ipv4Addr::new(10, 3, 0, 1), AsId(3));
    let scenario = ScenarioDir {
        sensors: Some(sensors),
        before: Some(before),
        after,
        feed: Some(write_feed(&feed)),
        lg: Some(lg.write()),
        ip2as: Some(ip2as.write()),
        truth: Some("failed 10.3.0.1 10.2.0.1\n".into()),
        dot: Some("graph {}\n".into()),
    };
    let dir = temp_dir("roundtrip");
    scenario.write(&dir.join("scn")).unwrap();
    let read = ScenarioDir::read(&dir.join("scn")).unwrap();
    assert_eq!(read, scenario);
    let inputs = read.parse().unwrap();
    let parsed = Observations {
        sensors: inputs.sensors.unwrap(),
        before: inputs.before.unwrap(),
        after: inputs.after,
    };
    assert_eq!(write_observations(&parsed), write_observations(&obs));
    assert_eq!(inputs.feed.map(|f| f.withdrawals), Some(feed.withdrawals));
    assert_eq!(inputs.lg.map(|l| l.write()), Some(lg.write()));
    assert_eq!(
        inputs.ip2as.unwrap().as_of(Ipv4Addr::new(10, 3, 0, 1)),
        Some(AsId(3))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_dir_without_after_names_the_file() {
    let dir = temp_dir("no_after");
    std::fs::write(dir.join("sensors.txt"), "").unwrap();
    let e = ScenarioDir::read(&dir).unwrap_err();
    assert!(matches!(e, ScenarioError::Read(..)), "{e:?}");
    assert!(e.to_string().contains("after.txt"), "{e}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_dir_absent_optional_files_read_as_none() {
    let dir = temp_dir("only_after");
    let (_, _, after) = write_observations(&sample_obs());
    std::fs::write(dir.join("after.txt"), &after).unwrap();
    let read = ScenarioDir::read(&dir).unwrap();
    assert_eq!(
        read,
        ScenarioDir {
            after,
            ..ScenarioDir::default()
        }
    );
    // The parse leaves every absent file to the caller.
    let inputs = read.parse().unwrap();
    assert_eq!(
        write_snapshot(&inputs.after),
        write_snapshot(&sample_obs().after)
    );
    assert!(inputs.sensors.is_none() && inputs.before.is_none() && inputs.ip2as.is_none());
    assert!(inputs.feed.is_none() && inputs.lg.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_parse_errors_name_the_file_and_line() {
    let (sensors, _, after) = write_observations(&sample_obs());
    let scenario = ScenarioDir {
        sensors: Some(sensors),
        before: Some("garbage-line\n".into()),
        after,
        ..ScenarioDir::default()
    };
    let e = scenario.parse().unwrap_err().to_string();
    assert!(e.starts_with("before.txt: parse error: line 1"), "{e}");
}
