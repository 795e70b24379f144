//! Dynamic link up/down state, shared across the routing layers.

use netdiag_topology::{LinkId, Topology};

/// Up/down state for every link of a topology.
///
/// Indexed by [`LinkId`]; links start up. This is the single source of truth
/// for the data plane, the IGP and eBGP session liveness.
#[derive(Clone, Debug)]
pub struct LinkState {
    up: Vec<bool>,
}

impl LinkState {
    /// All links up.
    pub fn all_up(topology: &Topology) -> Self {
        LinkState {
            up: vec![true; topology.link_count()],
        }
    }

    /// Is `l` currently up?
    pub fn is_up(&self, l: LinkId) -> bool {
        self.up[l.index()]
    }

    /// True when every link is up.
    pub fn none_down(&self) -> bool {
        self.up.iter().all(|&u| u)
    }

    /// Marks `l` down. Returns the previous state.
    pub fn set_down(&mut self, l: LinkId) -> bool {
        std::mem::replace(&mut self.up[l.index()], false)
    }

    /// Marks `l` up. Returns the previous state.
    pub fn set_up(&mut self, l: LinkId) -> bool {
        std::mem::replace(&mut self.up[l.index()], true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdiag_topology::{AsKind, TopologyBuilder};

    fn tiny() -> Topology {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        let r3 = b.add_router(a, "r3");
        b.add_intra_link(r1, r2, 1);
        b.add_intra_link(r2, r3, 1);
        b.build().unwrap()
    }

    #[test]
    fn starts_all_up() {
        let t = tiny();
        let s = LinkState::all_up(&t);
        assert!(s.is_up(LinkId(0)));
        assert!(s.is_up(LinkId(1)));
    }

    #[test]
    fn set_down_and_up_roundtrip() {
        let t = tiny();
        let mut s = LinkState::all_up(&t);
        assert!(s.set_down(LinkId(1)));
        assert!(!s.is_up(LinkId(1)));
        assert!(s.is_up(LinkId(0)));
        assert!(
            !s.set_down(LinkId(1)),
            "second set_down reports prior state"
        );
        assert!(!s.set_up(LinkId(1)));
        assert!(s.is_up(LinkId(1)));
    }
}
