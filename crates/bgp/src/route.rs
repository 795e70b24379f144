//! BGP route representation.

use std::fmt;
use std::ops::Deref;

use netdiag_topology::{AsId, LinkId, PeerKind, Prefix, RouterId};

use crate::session::SessionId;

/// An AS-level path stored inline, nearest neighbor first.
///
/// Valley-free (Gao-Rexford) routes over an internet-like hierarchy stay
/// far below [`AsPath::MAX`] hops, so the path lives in a fixed-size array
/// rather than an `Arc<[AsId]>`: cloning a route — which the message loop
/// and every copy-on-write RIB clone do constantly — becomes a plain
/// memcpy with no refcount traffic, and prepending on eBGP export
/// allocates nothing.
///
/// Equality and ordering-relevant reads go through [`Deref`] to
/// `[AsId]`, so only the first `len` slots ever participate; the unused
/// tail is zero-filled padding.
#[derive(Clone, Copy)]
pub struct AsPath {
    len: u8,
    ids: [AsId; AsPath::MAX],
}

impl AsPath {
    /// Inline capacity, comfortably above the AS-graph diameter.
    pub const MAX: usize = 16;

    /// The empty path (originated routes).
    pub const EMPTY: AsPath = AsPath {
        len: 0,
        ids: [AsId(0); AsPath::MAX],
    };

    /// The path with `head` prepended (eBGP export).
    ///
    /// Paths longer than [`AsPath::MAX`] cannot arise from valley-free
    /// routing at our scales; hitting the capacity means the topology
    /// generator or decision process is broken, so we stop hard.
    pub fn prepended(&self, head: AsId) -> AsPath {
        let len = self.len as usize;
        assert!(len < AsPath::MAX, "AS path exceeds inline capacity");
        let mut out = AsPath::EMPTY;
        out.len = self.len + 1;
        out.ids[0] = head;
        out.ids[1..=len].copy_from_slice(self.as_slice());
        out
    }

    /// The populated prefix of the path as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[AsId] {
        &self.ids[..self.len as usize]
    }
}

impl Deref for AsPath {
    type Target = [AsId];

    #[inline]
    fn deref(&self) -> &[AsId] {
        self.as_slice()
    }
}

impl PartialEq for AsPath {
    fn eq(&self, other: &AsPath) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AsPath {}

impl std::hash::Hash for AsPath {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Must agree with `PartialEq`: only the populated slots hash, the
        // zero-filled tail stays out.
        self.as_slice().hash(state);
    }
}

impl Default for AsPath {
    fn default() -> Self {
        AsPath::EMPTY
    }
}

impl fmt::Debug for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[AsId]> for AsPath {
    fn from(ids: &[AsId]) -> Self {
        assert!(ids.len() <= AsPath::MAX, "AS path exceeds inline capacity");
        let mut out = AsPath::EMPTY;
        out.len = ids.len() as u8;
        out.ids[..ids.len()].copy_from_slice(ids);
        out
    }
}

impl From<Vec<AsId>> for AsPath {
    fn from(ids: Vec<AsId>) -> Self {
        AsPath::from(ids.as_slice())
    }
}

/// How a route entered the local AS.
///
/// This class travels with the route over iBGP so that border routers can
/// apply Gao-Rexford export rules ("was this learned from a customer?").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteSource {
    /// The local AS originates the prefix.
    Originated,
    /// Learned over eBGP from a neighbor with the given relationship
    /// (from the local AS's perspective).
    External(PeerKind),
}

impl RouteSource {
    /// May a route from this source be exported to a neighbor of kind
    /// `to`? (Gao-Rexford: customer routes and own prefixes go to everyone;
    /// peer/provider routes go only to customers.)
    pub fn exportable_to(self, to: PeerKind) -> bool {
        match self {
            RouteSource::Originated | RouteSource::External(PeerKind::Customer) => true,
            RouteSource::External(PeerKind::Peer) | RouteSource::External(PeerKind::Provider) => {
                to == PeerKind::Customer
            }
        }
    }
}

/// Local preference values assigned on eBGP import, by relationship.
pub fn local_pref_for(rel: PeerKind) -> u32 {
    match rel {
        PeerKind::Customer => 100,
        PeerKind::Peer => 90,
        PeerKind::Provider => 80,
    }
}

/// Local preference of an originated route (always wins).
pub const LOCAL_PREF_ORIGINATED: u32 = u32::MAX;

/// A BGP route as stored in a router's RIBs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// AS path; front = nearest neighbor AS, back = origin AS. Empty for
    /// routes originated by the local AS. Stored inline ([`AsPath`]) so
    /// route clone/drop is a memcpy and eBGP-export prepends allocate
    /// nothing.
    pub as_path: AsPath,
    /// Border router of the local AS where traffic exits. Equal to the
    /// storing router for eBGP-learned and originated routes.
    pub egress: RouterId,
    /// The inter-domain link traffic exits on (set only at the egress router
    /// itself, for eBGP-learned routes).
    pub ebgp_link: Option<LinkId>,
    /// Local preference (relationship-derived, or max for originated).
    pub local_pref: u32,
    /// How the route entered the local AS.
    pub source: RouteSource,
    /// Session and peer router this route was learned from (`None` for
    /// originated routes).
    pub learned_from: Option<(SessionId, RouterId)>,
    /// True when learned over eBGP at this router.
    pub ebgp_learned: bool,
}

impl Route {
    /// Creates a locally-originated route at border router `at`.
    pub fn originated(prefix: Prefix, at: RouterId) -> Self {
        Route {
            prefix,
            as_path: AsPath::EMPTY,
            egress: at,
            ebgp_link: None,
            local_pref: LOCAL_PREF_ORIGINATED,
            source: RouteSource::Originated,
            learned_from: None,
            ebgp_learned: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn gao_rexford_export_matrix() {
        use PeerKind::*;
        use RouteSource::*;
        // (source, to, allowed)
        let cases = [
            (Originated, Customer, true),
            (Originated, Peer, true),
            (Originated, Provider, true),
            (External(Customer), Customer, true),
            (External(Customer), Peer, true),
            (External(Customer), Provider, true),
            (External(Peer), Customer, true),
            (External(Peer), Peer, false),
            (External(Peer), Provider, false),
            (External(Provider), Customer, true),
            (External(Provider), Peer, false),
            (External(Provider), Provider, false),
        ];
        for (src, to, want) in cases {
            assert_eq!(src.exportable_to(to), want, "{src:?} -> {to:?}");
        }
    }

    #[test]
    fn local_pref_ordering_prefers_customers() {
        assert!(local_pref_for(PeerKind::Customer) > local_pref_for(PeerKind::Peer));
        assert!(local_pref_for(PeerKind::Peer) > local_pref_for(PeerKind::Provider));
        assert!(LOCAL_PREF_ORIGINATED > local_pref_for(PeerKind::Customer));
    }

    #[test]
    fn as_path_inline_semantics() {
        let base = AsPath::from(vec![AsId(7), AsId(9)]);
        assert_eq!(base.len(), 2);
        assert_eq!(base.first(), Some(&AsId(7)));
        let longer = base.prepended(AsId(3));
        assert_eq!(&longer[..], &[AsId(3), AsId(7), AsId(9)]);
        // The zero-filled tail never leaks into equality.
        assert_eq!(AsPath::from(vec![AsId(3), AsId(7), AsId(9)]), longer);
        assert_ne!(base, longer);
        assert!(AsPath::EMPTY.is_empty());
        assert_eq!(format!("{longer:?}"), "[AS3, AS7, AS9]");
    }

    #[test]
    fn originated_route_shape() {
        let p = Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        let r = Route::originated(p, RouterId(3));
        assert!(r.as_path.is_empty());
        assert_eq!(r.egress, RouterId(3));
        assert!(!r.ebgp_learned);
    }
}
