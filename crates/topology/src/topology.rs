//! The multi-AS topology model and its builder.
//!
//! A [`Topology`] is an immutable description of the network: autonomous
//! systems, routers, links (intra- and inter-domain), business relationships
//! between ASes, and the IPv4 addressing plan. Dynamic state (which links are
//! currently up, routing tables, ...) lives in the simulator crates.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use crate::ids::{AsId, LinkId, RouterId};
use crate::prefix::Prefix;

/// Role of an AS in the internetwork hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// Backbone / tier-1 network (Abilene, GEANT, WIDE in the paper).
    Core,
    /// Regional transit network.
    Tier2,
    /// Edge network with no customers of its own.
    Stub,
}

/// Business relationship of a neighbor AS, from the local AS's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PeerKind {
    /// The neighbor pays us for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbor for transit.
    Provider,
}

impl PeerKind {
    /// The same relationship seen from the other side.
    pub fn reverse(self) -> PeerKind {
        match self {
            PeerKind::Customer => PeerKind::Provider,
            PeerKind::Peer => PeerKind::Peer,
            PeerKind::Provider => PeerKind::Customer,
        }
    }
}

/// Relationship attached to an inter-domain link at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkRelationship {
    /// The AS of the link's `a` endpoint is the provider of `b`'s AS.
    ProviderCustomer,
    /// The two ASes are settlement-free peers.
    PeerPeer,
}

/// An autonomous system.
#[derive(Clone, Debug)]
pub struct AsNode {
    /// Dense identifier.
    pub id: AsId,
    /// Human-readable name ("Abilene", "T2-04", ...).
    pub name: String,
    /// Hierarchy role.
    pub kind: AsKind,
    /// The address block originated by this AS.
    pub prefix: Prefix,
    /// Routers belonging to this AS, in creation order.
    pub routers: Vec<RouterId>,
}

/// A router.
#[derive(Clone, Debug)]
pub struct Router {
    /// Global identifier.
    pub id: RouterId,
    /// Owning AS.
    pub as_id: AsId,
    /// Human-readable name.
    pub name: String,
    /// Loopback address (inside the AS prefix); used as the router identifier
    /// address in routing protocols.
    pub loopback: Ipv4Addr,
    /// Links incident to this router.
    pub links: Vec<LinkId>,
}

/// Whether a link connects routers of the same AS or of two ASes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Both endpoints in the same AS.
    Intra,
    /// Endpoints in different ASes.
    Inter,
}

/// A bidirectional point-to-point link between two routers.
#[derive(Clone, Debug)]
pub struct Link {
    /// Global identifier.
    pub id: LinkId,
    /// First endpoint (order fixed at creation).
    pub a: RouterId,
    /// Second endpoint.
    pub b: RouterId,
    /// Intra- or inter-domain.
    pub kind: LinkKind,
    /// IGP weight in the `a` → `b` direction (intra-domain SPF; ignored
    /// for inter links).
    pub weight_ab: u32,
    /// IGP weight in the `b` → `a` direction (real IS-IS metrics may be
    /// asymmetric; the symmetric builder sets both equal).
    pub weight_ba: u32,
    /// Interface address on the `a` side.
    pub addr_a: Ipv4Addr,
    /// Interface address on the `b` side.
    pub addr_b: Ipv4Addr,
}

impl Link {
    /// The endpoint opposite to `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not an endpoint of this link.
    pub fn other(&self, r: RouterId) -> RouterId {
        if r == self.a {
            self.b
        } else if r == self.b {
            self.a
        } else {
            // lint: allow(panic-macro): documented `# Panics` contract — a
            // non-endpoint RouterId here is a caller bug, not an input error
            panic!("{r} is not an endpoint of link {}", self.id)
        }
    }

    /// The interface address on `r`'s side.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not an endpoint of this link.
    pub fn addr_of(&self, r: RouterId) -> Ipv4Addr {
        if r == self.a {
            self.addr_a
        } else if r == self.b {
            self.addr_b
        } else {
            // lint: allow(panic-macro): documented `# Panics` contract — a
            // non-endpoint RouterId here is a caller bug, not an input error
            panic!("{r} is not an endpoint of link {}", self.id)
        }
    }

    /// True if `r` is one of the endpoints.
    pub fn has_endpoint(&self, r: RouterId) -> bool {
        r == self.a || r == self.b
    }

    /// The IGP weight when leaving `r` over this link.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not an endpoint of this link.
    pub fn weight_from(&self, r: RouterId) -> u32 {
        if r == self.a {
            self.weight_ab
        } else if r == self.b {
            self.weight_ba
        } else {
            // lint: allow(panic-macro): documented `# Panics` contract — a
            // non-endpoint RouterId here is a caller bug, not an input error
            panic!("{r} is not an endpoint of link {}", self.id)
        }
    }
}

/// Errors detected while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link was requested between a router and itself.
    SelfLoop(RouterId),
    /// A second link between the same router pair was requested.
    DuplicateLink(RouterId, RouterId),
    /// An intra-domain link was requested between routers of different ASes,
    /// or an inter-domain link between routers of the same AS.
    LinkKindMismatch(RouterId, RouterId),
    /// The intra-domain links of an AS do not connect all its routers.
    DisconnectedAs(AsId),
    /// Two inter-domain links between the same AS pair carry conflicting
    /// relationships.
    ConflictingRelationship(AsId, AsId),
    /// More ASes or routers than the addressing plan supports.
    AddressSpaceExhausted(&'static str),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::SelfLoop(r) => write!(f, "self-loop at {r}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link {a}-{b}"),
            TopologyError::LinkKindMismatch(a, b) => {
                write!(f, "link {a}-{b} crosses AS boundary inconsistently")
            }
            TopologyError::DisconnectedAs(a) => {
                write!(f, "{a} is not internally connected")
            }
            TopologyError::ConflictingRelationship(a, b) => {
                write!(f, "conflicting AS relationship between {a} and {b}")
            }
            TopologyError::AddressSpaceExhausted(what) => {
                write!(f, "address space exhausted for {what}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The owner of an observed IPv4 address, as ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IpOwner {
    /// A link interface: (router, link it sits on).
    Interface(RouterId, LinkId),
    /// A router loopback.
    Loopback(RouterId),
}

/// One adjacency entry of the CSR substrate: a link incident to a
/// router, with the fields the SPF and data-plane hot loops touch on
/// every visit denormalized so they never chase into the [`Link`] array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdjEntry {
    /// The link.
    pub link: LinkId,
    /// The far endpoint.
    pub peer: RouterId,
    /// IGP weight leaving the local router over this link.
    pub weight: u32,
    /// Intra- or inter-domain.
    pub kind: LinkKind,
}

/// An immutable multi-AS topology.
///
/// Built via [`TopologyBuilder`]; see the crate-level docs for the addressing
/// plan.
///
/// Beyond the entity tables, the topology carries a flat CSR substrate
/// computed once at build time: contiguous adjacency rows per router
/// ([`Topology::adjacency`]), a sorted relationship table behind
/// [`Topology::relationship`], a border-router bitmap, and dense per-AS
/// router indices ([`Topology::local_router_index`]). The convergence
/// hot paths (IGP SPF, BGP import/export) iterate these arrays instead
/// of pointer/map chasing.
#[derive(Clone, Debug)]
pub struct Topology {
    ases: Vec<AsNode>,
    routers: Vec<Router>,
    links: Vec<Link>,
    /// Ground-truth reverse map from interface/loopback address to owner.
    ip_owner: HashMap<Ipv4Addr, IpOwner>,
    /// CSR adjacency: the entries of router `r` are
    /// `adj[adj_off[r] .. adj_off[r + 1]]`, in link-insertion order.
    adj_off: Vec<u32>,
    adj: Vec<AdjEntry>,
    /// `border[r]`: router `r` has at least one inter-domain link.
    border: Vec<bool>,
    /// CSR relationships: the neighbors of AS `a`, sorted by [`AsId`],
    /// are `rel[rel_off[a] .. rel_off[a + 1]]` (role from `a`'s
    /// perspective). Replaces a `HashMap<(AsId, AsId), PeerKind>` on the
    /// BGP export hot path.
    rel_off: Vec<u32>,
    rel: Vec<(AsId, PeerKind)>,
    /// Position of each router within its AS's `routers` list (dense
    /// per-AS indexing for the flat SPF state).
    local_ix: Vec<u32>,
}

impl Topology {
    /// All ASes, indexed by [`AsId`].
    pub fn ases(&self) -> &[AsNode] {
        &self.ases
    }

    /// All routers, indexed by [`RouterId`].
    pub fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up an AS.
    pub fn as_node(&self, a: AsId) -> &AsNode {
        &self.ases[a.index()]
    }

    /// Looks up a router.
    pub fn router(&self, r: RouterId) -> &Router {
        &self.routers[r.index()]
    }

    /// Looks up a link.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// The AS owning router `r`.
    pub fn as_of_router(&self, r: RouterId) -> AsId {
        self.router(r).as_id
    }

    /// The CSR adjacency row of `r`: one entry per incident link, in
    /// link-insertion order, with peer / weight / kind denormalized.
    pub fn adjacency(&self, r: RouterId) -> &[AdjEntry] {
        &self.adj[self.adj_off[r.index()] as usize..self.adj_off[r.index() + 1] as usize]
    }

    /// Iterates over `(link, neighbor)` pairs incident to `r`.
    pub fn neighbors(&self, r: RouterId) -> impl Iterator<Item = (LinkId, RouterId)> + '_ {
        self.adjacency(r).iter().map(|e| (e.link, e.peer))
    }

    /// The link between `a` and `b`, if one exists.
    pub fn link_between(&self, a: RouterId, b: RouterId) -> Option<LinkId> {
        self.adjacency(a)
            .iter()
            .find(|e| e.peer == b)
            .map(|e| e.link)
    }

    /// Relationship of `b` from `a`'s perspective (None if not neighbors).
    pub fn relationship(&self, a: AsId, b: AsId) -> Option<PeerKind> {
        let lo = *self.rel_off.get(a.index())? as usize;
        let hi = *self.rel_off.get(a.index() + 1)? as usize;
        let row = &self.rel[lo..hi];
        row.binary_search_by_key(&b, |&(n, _)| n)
            .ok()
            .map(|i| row[i].1)
    }

    /// The position of `r` within its AS's router list (a dense index in
    /// `0..as_node(as_of_router(r)).routers.len()`).
    pub fn local_router_index(&self, r: RouterId) -> usize {
        self.local_ix[r.index()] as usize
    }

    /// Ground-truth owner of an address (interface or loopback).
    pub fn ip_owner(&self, addr: Ipv4Addr) -> Option<IpOwner> {
        self.ip_owner.get(&addr).copied()
    }

    /// Ground-truth AS of an address: interface/loopback owner's AS, or the
    /// AS whose prefix contains the address (covers sensor host addresses).
    pub fn as_of_ip(&self, addr: Ipv4Addr) -> Option<AsId> {
        if let Some(owner) = self.ip_owner(addr) {
            let r = match owner {
                IpOwner::Interface(r, _) => r,
                IpOwner::Loopback(r) => r,
            };
            return Some(self.as_of_router(r));
        }
        // AS prefixes are disjoint and monotone in AsId (the addressing
        // plan guarantees both), so the unique containing prefix — if any —
        // is the last one whose network address is <= addr.
        let bits = u32::from(addr);
        let idx = self
            .ases
            .partition_point(|n| u32::from(n.prefix.network()) <= bits);
        idx.checked_sub(1)
            .map(|i| &self.ases[i])
            .filter(|n| n.prefix.contains(addr))
            .map(|n| n.id)
    }

    /// Intra-domain links of an AS.
    pub fn intra_links_of(&self, a: AsId) -> impl Iterator<Item = &Link> + '_ {
        self.links
            .iter()
            .filter(move |l| l.kind == LinkKind::Intra && self.as_of_router(l.a) == a)
    }

    /// All inter-domain links.
    pub fn inter_links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter().filter(|l| l.kind == LinkKind::Inter)
    }

    /// True if `r` has at least one inter-domain link.
    pub fn is_border_router(&self, r: RouterId) -> bool {
        self.border[r.index()]
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }
}

/// Incremental builder for [`Topology`].
///
/// The builder assigns the addressing plan:
///
/// * AS `i < 224` originates `10.i.0.0/16`; AS `i >= 224` originates the
///   `/24` block `11.(j / 256).(j % 256).0/24` with `j = i - 224`. Both
///   tiers are monotone in `i`, so sorting all AS prefixes reproduces
///   [`AsId`] order — the dense-prefix interning in the BGP engine relies
///   on exactly this.
/// * Router `k` of a `/16` AS gets loopback `10.i.(k+1).1`; in a `/24` AS
///   it gets host `k + 1` of the block (at most
///   `MAX_ROUTERS_PER_SMALL_AS` routers, keeping `.200+` free for
///   simulator-assigned sensor hosts).
/// * Link `j` gets the point-to-point block `172.16.0.0/12 + 4j`, with the
///   `a` side at offset 1 and the `b` side at offset 2.
/// * Host (sensor) addresses are `prefix.host(200 + k)`, assigned by the
///   simulator.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    ases: Vec<AsNode>,
    routers: Vec<Router>,
    links: Vec<Link>,
    relationships: HashMap<(AsId, AsId), PeerKind>,
    errors: Vec<TopologyError>,
}

/// ASes with ids below this originate a `10.i.0.0/16`; from here on they
/// originate `/24`s out of `11.0.0.0/8`.
const WIDE_AS_LIMIT: usize = 224;
/// Maximum number of ASes supported by the two-tier addressing plan
/// (`224` wide `/16`s plus a `/24` per `11.x.y.0` block).
const MAX_ASES: usize = WIDE_AS_LIMIT + (1 << 16);
/// Maximum routers per AS supported by the `10.i.(k+1).1` loopback plan.
const MAX_ROUTERS_PER_AS: usize = 254;
/// Maximum routers in a `/24` AS: loopbacks occupy hosts `1..=199` so the
/// sensor host range (`.200+`) never collides.
pub const MAX_ROUTERS_PER_SMALL_AS: usize = 199;
/// Maximum links supported by the `172.16/12` point-to-point pool.
const MAX_LINKS: usize = (1 << 20) / 4;

/// The prefix AS `i` originates under the addressing plan (monotone in
/// `i`, so ascending-prefix iteration equals ascending-[`AsId`] order).
/// Out-of-plan ids fold back into range; [`TopologyBuilder::add_as`]
/// reports [`TopologyError::AddressSpaceExhausted`] for them instead.
fn as_plan_prefix(i: usize) -> Prefix {
    if i < WIDE_AS_LIMIT {
        Prefix::new(Ipv4Addr::new(10, (i % 256) as u8, 0, 0), 16)
    } else {
        let j = (i - WIDE_AS_LIMIT) % (1 << 16);
        Prefix::new(Ipv4Addr::new(11, (j >> 8) as u8, (j & 0xFF) as u8, 0), 24)
    }
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an AS and returns its id.
    pub fn add_as(&mut self, kind: AsKind, name: impl Into<String>) -> AsId {
        let id = AsId(self.ases.len() as u32);
        if self.ases.len() >= MAX_ASES {
            self.errors
                .push(TopologyError::AddressSpaceExhausted("ASes"));
        }
        let prefix = as_plan_prefix(id.index());
        self.ases.push(AsNode {
            id,
            name: name.into(),
            kind,
            prefix,
            routers: Vec::new(),
        });
        id
    }

    /// Adds a router to an AS and returns its id.
    pub fn add_router(&mut self, as_id: AsId, name: impl Into<String>) -> RouterId {
        let id = RouterId(self.routers.len() as u32);
        let local = self.ases[as_id.index()].routers.len();
        let prefix = self.ases[as_id.index()].prefix;
        let cap = if prefix.len() == 16 {
            MAX_ROUTERS_PER_AS
        } else {
            MAX_ROUTERS_PER_SMALL_AS
        };
        if local >= cap {
            self.errors
                .push(TopologyError::AddressSpaceExhausted("routers"));
        }
        let loopback = if prefix.len() == 16 {
            Ipv4Addr::new(
                prefix.network().octets()[0],
                prefix.network().octets()[1],
                ((local + 1) % 256) as u8,
                1,
            )
        } else {
            prefix.host(((local % MAX_ROUTERS_PER_SMALL_AS) + 1) as u32)
        };
        self.ases[as_id.index()].routers.push(id);
        self.routers.push(Router {
            id,
            as_id,
            name: name.into(),
            loopback,
            links: Vec::new(),
        });
        id
    }

    /// The relationship recorded so far between two ASes, if any (`b`'s
    /// role from `a`'s perspective). Generators use this to avoid placing
    /// conflicting links.
    pub fn relationship_between(&self, a: AsId, b: AsId) -> Option<PeerKind> {
        self.relationships.get(&(a, b)).copied()
    }

    /// Adds an intra-domain link with the given (symmetric) IGP weight.
    pub fn add_intra_link(&mut self, a: RouterId, b: RouterId, weight: u32) -> LinkId {
        self.add_intra_link_asym(a, b, weight, weight)
    }

    /// Adds an intra-domain link with per-direction IGP weights
    /// (`weight_ab` applies to traffic from `a` to `b`).
    pub fn add_intra_link_asym(
        &mut self,
        a: RouterId,
        b: RouterId,
        weight_ab: u32,
        weight_ba: u32,
    ) -> LinkId {
        if self.routers[a.index()].as_id != self.routers[b.index()].as_id {
            self.errors.push(TopologyError::LinkKindMismatch(a, b));
        }
        self.push_link(a, b, LinkKind::Intra, weight_ab, weight_ba)
    }

    /// Adds an inter-domain link carrying the given relationship
    /// (`ProviderCustomer` means `a`'s AS is the provider of `b`'s AS).
    pub fn add_inter_link(&mut self, a: RouterId, b: RouterId, rel: LinkRelationship) -> LinkId {
        let as_a = self.routers[a.index()].as_id;
        let as_b = self.routers[b.index()].as_id;
        if as_a == as_b {
            self.errors.push(TopologyError::LinkKindMismatch(a, b));
        }
        let (role_of_b, role_of_a) = match rel {
            LinkRelationship::ProviderCustomer => (PeerKind::Customer, PeerKind::Provider),
            LinkRelationship::PeerPeer => (PeerKind::Peer, PeerKind::Peer),
        };
        for (key, role) in [((as_a, as_b), role_of_b), ((as_b, as_a), role_of_a)] {
            match self.relationships.get(&key) {
                Some(existing) if *existing != role => {
                    self.errors
                        .push(TopologyError::ConflictingRelationship(key.0, key.1));
                }
                _ => {
                    self.relationships.insert(key, role);
                }
            }
        }
        self.push_link(a, b, LinkKind::Inter, 1, 1)
    }

    fn push_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        kind: LinkKind,
        weight_ab: u32,
        weight_ba: u32,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        if a == b {
            self.errors.push(TopologyError::SelfLoop(a));
        }
        if self.links.len() >= MAX_LINKS {
            self.errors
                .push(TopologyError::AddressSpaceExhausted("links"));
        }
        if self.routers[a.index()]
            .links
            .iter()
            .any(|&l| self.links[l.index()].has_endpoint(b))
        {
            self.errors.push(TopologyError::DuplicateLink(a, b));
        }
        let base = 0xAC10_0000u32 + (id.0 * 4);
        let link = Link {
            id,
            a,
            b,
            kind,
            weight_ab,
            weight_ba,
            addr_a: Ipv4Addr::from(base + 1),
            addr_b: Ipv4Addr::from(base + 2),
        };
        self.routers[a.index()].links.push(id);
        self.routers[b.index()].links.push(id);
        self.links.push(link);
        id
    }

    /// Validates and finalizes the topology.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // Validate intra-AS connectivity (an AS with a partitioned backbone
        // would make routing semantics ambiguous from the start).
        for asn in &self.ases {
            if asn.routers.len() <= 1 {
                continue;
            }
            let mut seen = vec![false; self.routers.len()];
            let start = asn.routers[0];
            let mut stack = vec![start];
            seen[start.index()] = true;
            while let Some(r) = stack.pop() {
                for &l in &self.routers[r.index()].links {
                    let link = &self.links[l.index()];
                    if link.kind != LinkKind::Intra {
                        continue;
                    }
                    let o = link.other(r);
                    if !seen[o.index()] {
                        seen[o.index()] = true;
                        stack.push(o);
                    }
                }
            }
            if asn.routers.iter().any(|r| !seen[r.index()]) {
                return Err(TopologyError::DisconnectedAs(asn.id));
            }
        }

        let mut ip_owner = HashMap::new();
        for link in &self.links {
            ip_owner.insert(link.addr_a, IpOwner::Interface(link.a, link.id));
            ip_owner.insert(link.addr_b, IpOwner::Interface(link.b, link.id));
        }
        for router in &self.routers {
            ip_owner.insert(router.loopback, IpOwner::Loopback(router.id));
        }

        // CSR adjacency + border bitmap, in the routers' link-insertion
        // order (so `neighbors` keeps its historical iteration order).
        let mut adj_off = Vec::with_capacity(self.routers.len() + 1);
        let mut adj = Vec::with_capacity(2 * self.links.len());
        let mut border = vec![false; self.routers.len()];
        adj_off.push(0u32);
        for r in &self.routers {
            for &l in &r.links {
                let link = &self.links[l.index()];
                adj.push(AdjEntry {
                    link: l,
                    peer: link.other(r.id),
                    weight: link.weight_from(r.id),
                    kind: link.kind,
                });
                if link.kind == LinkKind::Inter {
                    border[r.id.index()] = true;
                }
            }
            adj_off.push(adj.len() as u32);
        }

        // Relationship rows, sorted by (local AS, neighbor AS).
        let mut rel_pairs: Vec<((AsId, AsId), PeerKind)> = self
            .relationships
            .iter() // lint: allow(hash-iter): sorted right below, order cannot leak
            .map(|(&k, &v)| (k, v))
            .collect();
        rel_pairs.sort_unstable_by_key(|&(key, _)| key);
        let mut rel_off = Vec::with_capacity(self.ases.len() + 1);
        let mut rel = Vec::with_capacity(rel_pairs.len());
        rel_off.push(0u32);
        let mut next = 0usize;
        for a in 0..self.ases.len() {
            while next < rel_pairs.len() && rel_pairs[next].0 .0.index() == a {
                rel.push((rel_pairs[next].0 .1, rel_pairs[next].1));
                next += 1;
            }
            rel_off.push(rel.len() as u32);
        }

        // Dense per-AS router indices.
        let mut local_ix = vec![0u32; self.routers.len()];
        for asn in &self.ases {
            for (i, &r) in asn.routers.iter().enumerate() {
                local_ix[r.index()] = i as u32;
            }
        }

        Ok(Topology {
            ases: self.ases,
            routers: self.routers,
            links: self.links,
            ip_owner,
            adj_off,
            adj,
            border,
            rel_off,
            rel,
            local_ix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_as_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let as_a = b.add_as(AsKind::Core, "A");
        let as_b = b.add_as(AsKind::Stub, "B");
        let a1 = b.add_router(as_a, "a1");
        let a2 = b.add_router(as_a, "a2");
        let b1 = b.add_router(as_b, "b1");
        b.add_intra_link(a1, a2, 10);
        b.add_inter_link(a2, b1, LinkRelationship::ProviderCustomer);
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids_and_prefixes() {
        let t = two_as_topology();
        assert_eq!(t.as_count(), 2);
        assert_eq!(t.router_count(), 3);
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.as_node(AsId(0)).prefix.to_string(), "10.0.0.0/16");
        assert_eq!(t.as_node(AsId(1)).prefix.to_string(), "10.1.0.0/16");
        assert_eq!(t.router(RouterId(0)).loopback, Ipv4Addr::new(10, 0, 1, 1));
        assert_eq!(t.router(RouterId(1)).loopback, Ipv4Addr::new(10, 0, 2, 1));
    }

    #[test]
    fn link_endpoints_and_addresses() {
        let t = two_as_topology();
        let l = t.link(LinkId(0));
        assert_eq!(l.other(RouterId(0)), RouterId(1));
        assert_eq!(l.addr_of(RouterId(0)), l.addr_a);
        assert_eq!(l.addr_of(RouterId(1)), l.addr_b);
        assert_ne!(l.addr_a, l.addr_b);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn link_other_panics_for_non_endpoint() {
        let t = two_as_topology();
        t.link(LinkId(0)).other(RouterId(2));
    }

    #[test]
    fn relationships_are_symmetric() {
        let t = two_as_topology();
        assert_eq!(t.relationship(AsId(0), AsId(1)), Some(PeerKind::Customer));
        assert_eq!(t.relationship(AsId(1), AsId(0)), Some(PeerKind::Provider));
        assert_eq!(t.relationship(AsId(0), AsId(0)), None);
    }

    #[test]
    fn ip_owner_ground_truth() {
        let t = two_as_topology();
        let l = t.link(LinkId(1));
        assert_eq!(
            t.ip_owner(l.addr_a),
            Some(IpOwner::Interface(l.a, LinkId(1)))
        );
        assert_eq!(t.as_of_ip(l.addr_a), Some(AsId(0)));
        assert_eq!(t.as_of_ip(l.addr_b), Some(AsId(1)));
        // A host address inside an AS prefix maps to the AS itself.
        assert_eq!(t.as_of_ip(Ipv4Addr::new(10, 1, 0, 101)), Some(AsId(1)));
        assert_eq!(t.as_of_ip(Ipv4Addr::new(192, 168, 0, 1)), None);
    }

    #[test]
    fn border_router_detection() {
        let t = two_as_topology();
        assert!(!t.is_border_router(RouterId(0)));
        assert!(t.is_border_router(RouterId(1)));
        assert!(t.is_border_router(RouterId(2)));
    }

    #[test]
    fn neighbors_iteration() {
        let t = two_as_topology();
        let n: Vec<_> = t.neighbors(RouterId(1)).collect();
        assert_eq!(n.len(), 2);
        assert!(n.contains(&(LinkId(0), RouterId(0))));
        assert!(n.contains(&(LinkId(1), RouterId(2))));
        assert_eq!(t.link_between(RouterId(0), RouterId(2)), None);
        assert_eq!(t.link_between(RouterId(1), RouterId(2)), Some(LinkId(1)));
    }

    #[test]
    fn csr_substrate_matches_entity_tables() {
        let t = two_as_topology();
        for r in t.routers() {
            let row = t.adjacency(r.id);
            assert_eq!(row.len(), r.links.len());
            for (entry, &l) in row.iter().zip(&r.links) {
                let link = t.link(l);
                assert_eq!(entry.link, l);
                assert_eq!(entry.peer, link.other(r.id));
                assert_eq!(entry.weight, link.weight_from(r.id));
                assert_eq!(entry.kind, link.kind);
            }
            assert_eq!(
                t.is_border_router(r.id),
                r.links.iter().any(|&l| t.link(l).kind == LinkKind::Inter)
            );
        }
        for asn in t.ases() {
            for (i, &r) in asn.routers.iter().enumerate() {
                assert_eq!(t.local_router_index(r), i);
            }
        }
    }

    #[test]
    fn small_as_tier_addressing_is_monotone() {
        // Prefixes across the /16 -> /24 boundary sort in AsId order.
        let mut b = TopologyBuilder::new();
        for i in 0..(WIDE_AS_LIMIT + 600) {
            b.add_as(AsKind::Stub, format!("AS{i}"));
        }
        let t = b.build().unwrap();
        assert_eq!(t.as_node(AsId(223)).prefix.to_string(), "10.223.0.0/16");
        assert_eq!(t.as_node(AsId(224)).prefix.to_string(), "11.0.0.0/24");
        assert_eq!(t.as_node(AsId(225)).prefix.to_string(), "11.0.1.0/24");
        assert_eq!(t.as_node(AsId(224 + 256)).prefix.to_string(), "11.1.0.0/24");
        let mut prev = t.as_node(AsId(0)).prefix;
        for n in &t.ases()[1..] {
            assert!(n.prefix > prev, "prefixes must ascend with AsId");
            prev = n.prefix;
        }
        // as_of_ip's binary search agrees with containment on both tiers.
        assert_eq!(t.as_of_ip(Ipv4Addr::new(10, 100, 7, 7)), Some(AsId(100)));
        assert_eq!(t.as_of_ip(Ipv4Addr::new(11, 0, 3, 250)), Some(AsId(227)));
        assert_eq!(t.as_of_ip(Ipv4Addr::new(11, 3, 0, 1)), None);
        assert_eq!(t.as_of_ip(Ipv4Addr::new(12, 0, 0, 1)), None);
    }

    #[test]
    fn small_as_loopbacks_avoid_sensor_hosts() {
        let mut b = TopologyBuilder::new();
        for i in 0..WIDE_AS_LIMIT {
            b.add_as(AsKind::Stub, format!("AS{i}"));
        }
        let small = b.add_as(AsKind::Stub, "small");
        let r0 = b.add_router(small, "r0");
        let r1 = b.add_router(small, "r1");
        b.add_intra_link(r0, r1, 1);
        let t = b.build().unwrap();
        assert_eq!(t.router(r0).loopback, Ipv4Addr::new(11, 0, 0, 1));
        assert_eq!(t.router(r1).loopback, Ipv4Addr::new(11, 0, 0, 2));
        // The sensor host range of the /24 stays clear of loopbacks.
        let sensor = t.as_node(small).prefix.host(200);
        assert_eq!(t.ip_owner(sensor), None);
        assert_eq!(t.as_of_ip(sensor), Some(small));
    }

    #[test]
    fn small_as_router_cap_enforced() {
        let mut b = TopologyBuilder::new();
        for i in 0..=WIDE_AS_LIMIT {
            b.add_as(AsKind::Stub, format!("AS{i}"));
        }
        let small = AsId(WIDE_AS_LIMIT as u32);
        for k in 0..=MAX_ROUTERS_PER_SMALL_AS {
            b.add_router(small, format!("r{k}"));
        }
        assert_eq!(
            b.build().unwrap_err(),
            TopologyError::AddressSpaceExhausted("routers")
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Stub, "A");
        let r = b.add_router(a, "r");
        b.add_intra_link(r, r, 1);
        assert_eq!(b.build().unwrap_err(), TopologyError::SelfLoop(r));
    }

    #[test]
    fn duplicate_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Stub, "A");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(a, "r2");
        b.add_intra_link(r1, r2, 1);
        b.add_intra_link(r2, r1, 1);
        assert_eq!(b.build().unwrap_err(), TopologyError::DuplicateLink(r2, r1));
    }

    #[test]
    fn cross_as_intra_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Stub, "A");
        let c = b.add_as(AsKind::Stub, "C");
        let r1 = b.add_router(a, "r1");
        let r2 = b.add_router(c, "r2");
        b.add_intra_link(r1, r2, 1);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::LinkKindMismatch(_, _)
        ));
    }

    #[test]
    fn disconnected_as_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        b.add_router(a, "r1");
        b.add_router(a, "r2");
        assert_eq!(b.build().unwrap_err(), TopologyError::DisconnectedAs(a));
    }

    #[test]
    fn conflicting_relationship_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_as(AsKind::Core, "A");
        let c = b.add_as(AsKind::Core, "C");
        let a1 = b.add_router(a, "a1");
        let a2 = b.add_router(a, "a2");
        b.add_intra_link(a1, a2, 1);
        let c1 = b.add_router(c, "c1");
        let c2 = b.add_router(c, "c2");
        b.add_intra_link(c1, c2, 1);
        b.add_inter_link(a1, c1, LinkRelationship::ProviderCustomer);
        b.add_inter_link(a2, c2, LinkRelationship::PeerPeer);
        assert!(matches!(
            b.build().unwrap_err(),
            TopologyError::ConflictingRelationship(_, _)
        ));
    }
}
