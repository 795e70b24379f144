//! The inferred diagnosis graph `G`: the union of observed traceroute paths,
//! optionally expanded with the paper's *logical links*.
//!
//! Nodes are observed addresses (or synthetic unidentified-hop nodes, unique
//! per path position — stars cannot be identified across paths). Edges are
//! directed consecutive-hop pairs; when logical expansion is enabled, each
//! inter-domain traversal `u → v` on a path whose next AS (after `v`'s) is
//! `n` becomes the two half-links `u → v(n)` and `v(n) → v` of Figure 3.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

use netdiag_topology::AsId;

use crate::observation::{Hop, IpToAs, ProbePath};

/// Which snapshot a path belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Epoch {
    /// The pre-failure mesh (`T-`).
    Before,
    /// The post-failure mesh (`T+`).
    After,
}

/// Identity of one measured path within the observations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathRef {
    /// Snapshot the path belongs to.
    pub epoch: Epoch,
    /// Index within that snapshot's path list.
    pub index: usize,
}

/// A node of the diagnosis graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopNode {
    /// An observed address.
    Ip(Ipv4Addr),
    /// An unidentified hop: path identity plus hop position (stars cannot
    /// be matched across paths, so each gets its own node).
    Uh(PathRef, usize),
}

/// Which half of a logical link an edge represents (Figure 3 of the paper:
/// `u → v(n)` then `v(n) → v`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LogicalPart {
    /// The `u → v(n)` half, annotated with the next AS `n` on the path.
    First(AsId),
    /// The `v(n) → v` half.
    Second(AsId),
}

/// Dense node index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense edge index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Node payload.
#[derive(Clone, Debug)]
pub struct NodeData {
    /// Observed identity.
    pub key: HopNode,
    /// AS tag: a singleton for mapped addresses, a candidate set for
    /// LG-mapped unidentified hops, `None` when unknown.
    pub tag: Option<BTreeSet<AsId>>,
}

/// Physical identity of an edge, ignoring logical annotations.
///
/// A traceroute hop's address is the *ingress interface* of the link the
/// probe arrived on, and an interface belongs to exactly one link — so an
/// edge between two known addresses is physically identified by its `to`
/// address alone (the `from` address varies with the upstream route, the
/// router-aliasing effect). Edges touching unidentified hops keep
/// pair-identity, preserving the paper's invariant that an unidentified
/// link appears on exactly one path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhysId {
    /// Identified by the ingress interface (both endpoints known).
    Ingress(NodeId),
    /// Identified by the endpoint pair (at least one unidentified hop).
    Pair(NodeId, NodeId),
}

/// Edge payload.
#[derive(Clone, Debug)]
pub struct EdgeData {
    /// Source node (first observed; aliases of the same upstream router
    /// merge onto this edge).
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Logical-half annotation (None for plain physical edges).
    pub logical: Option<LogicalPart>,
    /// Physical identity (shared by both logical halves and all upstream
    /// aliases).
    pub phys: PhysId,
}

impl EdgeData {
    /// The physical identity of the edge.
    pub fn phys(&self) -> PhysId {
        self.phys
    }
}

/// The inferred diagnosis graph.
#[derive(Clone, Debug, Default)]
pub struct DiagGraph {
    nodes: Vec<NodeData>,
    node_index: HashMap<HopNode, NodeId>,
    edges: Vec<EdgeData>,
    edge_index: HashMap<(PhysId, Option<LogicalPart>), EdgeId>,
}

impl DiagGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node, resolving its AS tag through `ip2as` for addresses.
    pub fn intern_node(&mut self, key: HopNode, ip2as: &dyn IpToAs) -> NodeId {
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let tag = match key {
            HopNode::Ip(addr) => ip2as.as_of(addr).map(|a| BTreeSet::from([a])),
            HopNode::Uh(..) => None,
        };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { key, tag });
        self.node_index.insert(key, id);
        id
    }

    /// Interns an edge. Edges between two known addresses are identified by
    /// their ingress (`to`) address: the same physical link observed behind
    /// different upstream aliases merges onto one edge.
    pub fn intern_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        logical: Option<LogicalPart>,
    ) -> EdgeId {
        let both_known = matches!(self.nodes[from.index()].key, HopNode::Ip(_))
            && matches!(self.nodes[to.index()].key, HopNode::Ip(_));
        let phys = if both_known {
            PhysId::Ingress(to)
        } else {
            PhysId::Pair(from, to)
        };
        if let Some(&id) = self.edge_index.get(&(phys, logical)) {
            return id;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            from,
            to,
            logical,
            phys,
        });
        self.edge_index.insert((phys, logical), id);
        id
    }

    /// Expands a measured path into its edge sequence.
    ///
    /// With `logical` set, inter-domain traversals (both endpoint ASes
    /// known and different) become the two logical half-links; the next-AS
    /// annotation is the first AS after the far endpoint's on the path, or
    /// the destination AS (`dst_as`) when the far endpoint's AS is the last
    /// one observed.
    pub fn expand_path(
        &mut self,
        path: &ProbePath,
        path_ref: PathRef,
        dst_as: AsId,
        ip2as: &dyn IpToAs,
        logical: bool,
    ) -> Vec<EdgeId> {
        let keys: Vec<HopNode> = path
            .hops
            .iter()
            .enumerate()
            .map(|(pos, hop)| match hop {
                Hop::Addr(addr) => HopNode::Ip(*addr),
                Hop::Star => HopNode::Uh(path_ref, pos),
            })
            .collect();
        let nodes: Vec<NodeId> = keys.iter().map(|&k| self.intern_node(k, ip2as)).collect();
        // Per-hop AS (where known), for logical annotation.
        let hop_as: Vec<Option<AsId>> = nodes.iter().map(|&n| self.single_tag(n)).collect();

        let mut edges = Vec::with_capacity(nodes.len().saturating_sub(1));
        for i in 1..nodes.len() {
            let (u, v) = (nodes[i - 1], nodes[i]);
            let interdomain = match (hop_as[i - 1], hop_as[i]) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            };
            if logical && interdomain {
                let v_as = hop_as[i].expect("interdomain implies known");
                let next_as = hop_as[i + 1..]
                    .iter()
                    .flatten()
                    .copied()
                    .find(|&a| a != v_as)
                    .unwrap_or(dst_as);
                edges.push(self.intern_edge(u, v, Some(LogicalPart::First(next_as))));
                edges.push(self.intern_edge(u, v, Some(LogicalPart::Second(next_as))));
            } else {
                edges.push(self.intern_edge(u, v, None));
            }
        }
        edges
    }

    /// The single AS of a node's tag, when it is a singleton.
    fn single_tag(&self, n: NodeId) -> Option<AsId> {
        match &self.nodes[n.index()].tag {
            Some(set) if set.len() == 1 => set.iter().next().copied(),
            _ => None,
        }
    }

    /// Node payload.
    pub fn node(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.index()]
    }

    /// Edge payload.
    pub fn edge(&self, e: EdgeId) -> &EdgeData {
        &self.edges[e.index()]
    }

    /// Sets the AS tag of a node (used by ND-LG for unidentified hops).
    pub fn set_tag(&mut self, n: NodeId, tag: BTreeSet<AsId>) {
        self.nodes[n.index()].tag = Some(tag);
    }

    /// Looks up an interned node.
    pub fn node_id(&self, key: &HopNode) -> Option<NodeId> {
        self.node_index.get(key).copied()
    }

    /// All edges (dense, id order).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeData)> {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The observed endpooints of an edge.
    pub fn endpoints(&self, e: EdgeId) -> (HopNode, HopNode) {
        let d = self.edge(e);
        (self.node(d.from).key, self.node(d.to).key)
    }

    /// AS attribution of an edge: the union of its endpoint tags.
    pub fn edge_as_set(&self, e: EdgeId) -> BTreeSet<AsId> {
        let d = self.edge(e);
        let mut set = BTreeSet::new();
        for n in [d.from, d.to] {
            if let Some(tag) = &self.nodes[n.index()].tag {
                set.extend(tag.iter().copied());
            }
        }
        set
    }

    /// True if either endpoint of the edge is an unidentified hop.
    pub fn is_unidentified(&self, e: EdgeId) -> bool {
        let (a, b) = self.endpoints(e);
        matches!(a, HopNode::Uh(..)) || matches!(b, HopNode::Uh(..))
    }

    /// Human-readable node label: the address, or `uh(b3@2)` for the
    /// unidentified hop at position 2 of before-path 3.
    pub fn node_label(&self, n: NodeId) -> String {
        match self.node(n).key {
            HopNode::Ip(addr) => addr.to_string(),
            HopNode::Uh(pr, pos) => {
                let epoch = match pr.epoch {
                    Epoch::Before => 'b',
                    Epoch::After => 'a',
                };
                format!("uh({epoch}{}@{pos})", pr.index)
            }
        }
    }

    /// Human-readable edge label in the paper's Figure 3 notation: plain
    /// edges are `u->v`, the logical halves of an inter-domain traversal
    /// annotated with next-AS `n` are `u->v(ASn)` and `v(ASn)->v`.
    pub fn edge_label(&self, e: EdgeId) -> String {
        let d = self.edge(e);
        let from = self.node_label(d.from);
        let to = self.node_label(d.to);
        match d.logical {
            None => format!("{from}->{to}"),
            Some(LogicalPart::First(n)) => format!("{from}->{to}(AS{})", n.index()),
            Some(LogicalPart::Second(n)) => format!("{to}(AS{})->{to}", n.index()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::IpToAsFn;
    use netdiag_topology::SensorId;

    /// ip2as: 10.x.y.z maps to AS x; everything else unknown.
    fn ip2as() -> impl IpToAs {
        IpToAsFn(|addr: Ipv4Addr| {
            (addr.octets()[0] == 10).then_some(AsId(u32::from(addr.octets()[1])))
        })
    }

    fn ip(a: u8, b: u8) -> Hop {
        Hop::Addr(Ipv4Addr::new(10, a, 0, b))
    }

    fn path(hops: Vec<Hop>, reached: bool) -> ProbePath {
        ProbePath {
            src: SensorId(0),
            dst: SensorId(1),
            hops,
            reached,
        }
    }

    const BEFORE0: PathRef = PathRef {
        epoch: Epoch::Before,
        index: 0,
    };

    #[test]
    fn plain_expansion_shares_edges_across_paths() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        let p1 = path(vec![ip(1, 1), ip(2, 1), ip(3, 1)], true);
        let e1 = g.expand_path(&p1, BEFORE0, AsId(3), &m, false);
        let p2 = path(vec![ip(1, 1), ip(2, 1), ip(4, 1)], true);
        let e2 = g.expand_path(
            &p2,
            PathRef {
                epoch: Epoch::Before,
                index: 1,
            },
            AsId(4),
            &m,
            false,
        );
        assert_eq!(e1.len(), 2);
        assert_eq!(e2.len(), 2);
        assert_eq!(e1[0], e2[0], "shared first edge interned once");
        assert_ne!(e1[1], e2[1]);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn logical_expansion_splits_interdomain_links() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        // AS1 -> AS2 -> AS2 -> AS3 (dst in AS3): one interdomain hop 1->2
        // annotated AS3, one intra 2->2, one interdomain 2->3 annotated AS3
        // (terminal).
        let p = path(vec![ip(1, 1), ip(2, 1), ip(2, 2), ip(3, 1)], true);
        let edges = g.expand_path(&p, BEFORE0, AsId(3), &m, true);
        // 2 + 1 + 2 edges.
        assert_eq!(edges.len(), 5);
        let parts: Vec<Option<LogicalPart>> = edges.iter().map(|&e| g.edge(e).logical).collect();
        assert_eq!(
            parts,
            vec![
                Some(LogicalPart::First(AsId(3))),
                Some(LogicalPart::Second(AsId(3))),
                None,
                Some(LogicalPart::First(AsId(3))),
                Some(LogicalPart::Second(AsId(3))),
            ]
        );
        // Both halves share the physical identity.
        assert_eq!(g.edge(edges[0]).phys(), g.edge(edges[1]).phys());
    }

    #[test]
    fn logical_annotation_differs_per_downstream_as() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        // Same physical link 10.1.0.1 -> 10.2.0.1 on two paths with
        // different next ASes (the Figure 3 situation).
        let p1 = path(vec![ip(1, 1), ip(2, 1), ip(3, 1)], true);
        let p2 = path(vec![ip(1, 1), ip(2, 1), ip(4, 1)], true);
        let e1 = g.expand_path(&p1, BEFORE0, AsId(3), &m, true);
        let e2 = g.expand_path(
            &p2,
            PathRef {
                epoch: Epoch::Before,
                index: 1,
            },
            AsId(4),
            &m,
            true,
        );
        // First halves differ (annotations AS3 vs AS4) but share phys.
        assert_ne!(e1[0], e2[0]);
        assert_eq!(g.edge(e1[0]).phys(), g.edge(e2[0]).phys());
    }

    #[test]
    fn stars_become_unique_uh_nodes() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        let p1 = path(vec![ip(1, 1), Hop::Star, ip(3, 1)], true);
        let p2 = path(vec![ip(1, 1), Hop::Star, ip(3, 1)], true);
        g.expand_path(&p1, BEFORE0, AsId(3), &m, false);
        g.expand_path(
            &p2,
            PathRef {
                epoch: Epoch::Before,
                index: 1,
            },
            AsId(3),
            &m,
            false,
        );
        // Stars do not merge: 2 shared Ip nodes + 2 distinct Uh nodes.
        assert_eq!(g.nodes.len(), 4);
        assert_eq!(g.edge_count(), 4);
        let uh_edges: Vec<_> = g.edges().filter(|(id, _)| g.is_unidentified(*id)).collect();
        assert_eq!(uh_edges.len(), 4);
    }

    #[test]
    fn uh_adjacent_links_are_not_logical() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        let p = path(vec![ip(1, 1), Hop::Star, ip(3, 1)], true);
        let edges = g.expand_path(&p, BEFORE0, AsId(3), &m, true);
        assert!(edges.iter().all(|&e| g.edge(e).logical.is_none()));
    }

    #[test]
    fn edge_as_attribution() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        let p = path(vec![ip(1, 1), ip(2, 1)], true);
        let edges = g.expand_path(&p, BEFORE0, AsId(2), &m, false);
        assert_eq!(g.edge_as_set(edges[0]), BTreeSet::from([AsId(1), AsId(2)]));
    }

    #[test]
    fn set_tag_updates_attribution() {
        let m = ip2as();
        let mut g = DiagGraph::new();
        let p = path(vec![ip(1, 1), Hop::Star], false);
        let edges = g.expand_path(&p, BEFORE0, AsId(3), &m, false);
        let uh = g.edge(edges[0]).to;
        assert_eq!(g.edge_as_set(edges[0]), BTreeSet::from([AsId(1)]));
        g.set_tag(uh, BTreeSet::from([AsId(7), AsId(8)]));
        assert_eq!(
            g.edge_as_set(edges[0]),
            BTreeSet::from([AsId(1), AsId(7), AsId(8)])
        );
    }
}
