//! An independent reference for `routes_to_dest`: a message-passing BGP
//! simulator with Gao–Rexford export rules, compared route for route
//! against the three-phase kernel on a thousand small random topologies.
//!
//! The reference shares no code with the kernel. Each AS keeps one best
//! route; every round it re-reads what its neighbours advertised in the
//! previous round and keeps the best, until no AS changes its mind:
//!
//! * **export**: customer-learned routes (and an AS's own prefix) go to
//!   every neighbour; peer- and provider-learned routes go to customers
//!   only;
//! * **selection**: local preference (customer > peer > provider), then
//!   the shortest AS path, then the lowest next-hop AS, then the lowest
//!   link id (parallel links between one AS pair: a 6in4 tunnel next to a
//!   native edge);
//! * **loop prevention**: an AS drops routes whose path already holds it.
//!
//! For every (source, destination) pair the test compares the route kind,
//! the AS path and the link path.

use ipv6web_bgp::compute::{routes_to_dest, RouteKind};
use ipv6web_stats::{derive_rng, StudyRng};
use ipv6web_topology::asys::V6Profile;
use ipv6web_topology::graph::TunnelInfo;
use ipv6web_topology::{
    generate, AsId, AsNode, DualStackConfig, EdgeId, Family, LinkProps, Region, Relationship, Tier,
    Topology, TopologyConfig,
};
use rand::Rng;

/// What the AS at the far end of a session is to the local AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Customer,
    Peer,
    Provider,
}

#[derive(Debug, Clone, Copy)]
struct Session {
    neighbor: usize,
    role: Role,
    link: EdgeId,
}

#[derive(Debug, Clone, PartialEq)]
struct Route {
    kind: RouteKind,
    /// From the holder to the origin, both included.
    path: Vec<AsId>,
    /// The links along `path`.
    links: Vec<EdgeId>,
}

impl Route {
    fn key(&self) -> (RouteKind, usize, u32, u32) {
        let next_hop = self.path.get(1).map_or(0, |a| a.0);
        let link = self.links.first().map_or(0, |l| l.0);
        (self.kind, self.path.len(), next_hop, link)
    }
}

/// A set of BGP speakers, one per AS, with one session per link.
struct BgpNetwork {
    sessions: Vec<Vec<Session>>,
}

impl BgpNetwork {
    fn new(n: usize) -> Self {
        BgpNetwork { sessions: vec![Vec::new(); n] }
    }

    fn add_provider_customer(&mut self, provider: AsId, customer: AsId, link: EdgeId) {
        let (p, c) = (provider.index(), customer.index());
        self.sessions[p].push(Session { neighbor: c, role: Role::Customer, link });
        self.sessions[c].push(Session { neighbor: p, role: Role::Provider, link });
    }

    fn add_peer_link(&mut self, a: AsId, b: AsId, link: EdgeId) {
        self.sessions[a.index()].push(Session { neighbor: b.index(), role: Role::Peer, link });
        self.sessions[b.index()].push(Session { neighbor: a.index(), role: Role::Peer, link });
    }

    /// One session per edge of `topo` present in `family`.
    fn from_topology(topo: &Topology, family: Family) -> Self {
        let mut net = BgpNetwork::new(topo.num_ases());
        for e in topo.edges().iter().filter(|e| e.in_family(family)) {
            match e.rel_a {
                Relationship::CustomerOf => net.add_provider_customer(e.b, e.a, e.id),
                Relationship::ProviderOf => net.add_provider_customer(e.a, e.b, e.id),
                Relationship::Peer => net.add_peer_link(e.a, e.b, e.id),
            }
        }
        net
    }

    /// Originates a prefix at `origin` and exchanges advertisements until
    /// no AS changes its best route. Returns every AS's best route.
    fn announce_prefix(&self, origin: AsId) -> Vec<Option<Route>> {
        let n = self.sessions.len();
        let own = Route { kind: RouteKind::Customer, path: vec![origin], links: Vec::new() };
        let mut best: Vec<Option<Route>> = vec![None; n];
        best[origin.index()] = Some(own.clone());
        // a path visits each AS at most once, so n + 1 rounds settle any
        // policy-consistent network; one more proves the fixpoint
        for _ in 0..n + 2 {
            let mut next: Vec<Option<Route>> = vec![None; n];
            next[origin.index()] = Some(own.clone());
            for (a, route) in best.iter().enumerate() {
                let Some(route) = route else { continue };
                for s in &self.sessions[a] {
                    if route.kind != RouteKind::Customer && s.role != Role::Customer {
                        continue; // peer/provider routes go to customers only
                    }
                    let b = s.neighbor;
                    if route.path.contains(&AsId(b as u32)) {
                        continue;
                    }
                    // how b learned it: from its customer, peer or provider
                    let kind = match s.role {
                        Role::Provider => RouteKind::Customer,
                        Role::Peer => RouteKind::Peer,
                        Role::Customer => RouteKind::Provider,
                    };
                    let key = (kind, route.path.len() + 1, a as u32, s.link.0);
                    if next[b].as_ref().is_some_and(|inc| inc.key() <= key) {
                        continue;
                    }
                    let mut path = Vec::with_capacity(route.path.len() + 1);
                    path.push(AsId(b as u32));
                    path.extend_from_slice(&route.path);
                    let mut links = Vec::with_capacity(route.links.len() + 1);
                    links.push(s.link);
                    links.extend_from_slice(&route.links);
                    next[b] = Some(Route { kind, path, links });
                }
            }
            if next == best {
                return best;
            }
            best = next;
        }
        panic!("BGP did not converge for origin {origin}");
    }
}

/// What the comparison saw, so a vacuous run (no peer routes, no parallel
/// links, nothing unreachable) fails instead of passing quietly.
#[derive(Debug, Default)]
struct Coverage {
    topologies: usize,
    kinds: [usize; 3],
    unreachable: usize,
    tunnel_routes: usize,
    parallel_pairs: usize,
}

/// Compares the kernel with the reference for every destination and
/// source of `topo` in `family`.
fn check(topo: &Topology, family: Family, what: &str, cov: &mut Coverage) {
    let net = BgpNetwork::from_topology(topo, family);
    for dest in (0..topo.num_ases() as u32).map(AsId) {
        let oracle = net.announce_prefix(dest);
        let kernel = routes_to_dest(topo, dest, family);
        for (src, want) in oracle.iter().enumerate() {
            let src = AsId(src as u32);
            let ctx = || format!("{what}, {family}, {src} -> {dest}");
            assert_eq!(kernel.kind(src), want.as_ref().map(|r| r.kind), "kind: {}", ctx());
            let path = kernel.as_path(src).map(|p| p.ases().to_vec());
            assert_eq!(path.as_ref(), want.as_ref().map(|r| &r.path), "AS path: {}", ctx());
            let links = kernel.edge_path(src);
            assert_eq!(links.as_ref(), want.as_ref().map(|r| &r.links), "link path: {}", ctx());
            match want {
                None => cov.unreachable += 1,
                Some(r) => {
                    cov.kinds[r.kind as usize] += 1;
                    if r.links.iter().any(|&l| topo.edge(l).tunnel.is_some()) {
                        cov.tunnel_routes += 1;
                    }
                }
            }
        }
    }
    for a in 0..topo.num_ases() as u32 {
        let nbrs = topo.neighbors(AsId(a), family);
        for (i, (b, _, _)) in nbrs.iter().enumerate() {
            if b.0 > a && nbrs[..i].iter().any(|(x, _, _)| x == b) {
                cov.parallel_pairs += 1;
            }
        }
    }
}

/// A tiny generated world with random sizes and a random IPv6 overlay:
/// sparse adoption and parity strand islands that the generator stitches
/// with tunnels (often parallel to a native peering).
fn tiny_world(rng: &mut StudyRng, seed: u64) -> Topology {
    let n_transit = rng.gen_range(2..=7);
    let cfg = TopologyConfig {
        n_tier1: rng.gen_range(2..=4),
        n_transit,
        n_access: rng.gen_range(1..=5),
        n_content: rng.gen_range(1..=6),
        // a CDN buys transit from 5 to 10 providers
        n_cdn: if n_transit >= 5 { rng.gen_range(0..=2) } else { 0 },
        transit_peer_prob: rng.gen_range(0.0..0.8),
        transit_peer_prob_xregion: rng.gen_range(0.0..0.5),
        cdn_access_peering: rng.gen_range(0.0..1.0),
        dual: DualStackConfig {
            tier1_adoption: rng.gen_range(0.3..1.0),
            transit_adoption: rng.gen_range(0.2..1.0),
            access_adoption: rng.gen_range(0.2..1.0),
            content_adoption: rng.gen_range(0.2..1.0),
            cdn_adoption: rng.gen_range(0.0..1.0),
            provider_parity: rng.gen_range(0.0..1.0),
            peering_parity: rng.gen_range(0.0..1.0),
            tunnel_prob: rng.gen_range(0.0..1.0),
            ..DualStackConfig::year2011()
        },
    };
    generate(&cfg, seed)
}

/// `topo` with a random set of IPv6 gains (dual-stack edges not yet in
/// IPv6) and losses (native IPv6 edges), as a mid-campaign route change
/// applies them.
fn flipped(rng: &mut StudyRng, topo: &Topology) -> Topology {
    let mut gains = Vec::new();
    let mut losses = Vec::new();
    for e in topo.edges() {
        let dual = topo.node(e.a).is_dual_stack() && topo.node(e.b).is_dual_stack();
        if dual && !e.v6 && rng.gen_bool(0.4) {
            gains.push(e.id);
        } else if e.v6 && e.v4 && rng.gen_bool(0.3) {
            losses.push(e.id);
        }
    }
    topo.with_v6_flips(&gains, &losses)
}

/// A hand-rolled random graph with no tier structure: any lower-index AS
/// may be a provider, any pair may peer, and pairs may be linked twice
/// (two transit links, or a peering beside a transit link), in IPv4,
/// IPv6 or, for v6-only links, as a tunnel.
fn random_graph(rng: &mut StudyRng) -> Topology {
    let n: u32 = rng.gen_range(3..=12);
    let nodes = (0..n)
        .map(|i| {
            let id = AsId(i);
            let (v4_prefix, prefix) = AsNode::address_plan(id);
            AsNode {
                id,
                tier: Tier::Transit,
                region: Region::Europe,
                v4_prefix,
                v6: Some(V6Profile { prefix, forwarding_factor: 1.0 }),
            }
        })
        .collect();
    let mut t = Topology::new(nodes);
    let density = rng.gen_range(0.1..0.6);
    let link = |t: &mut Topology, rng: &mut StudyRng, a: u32, b: u32, rel: Relationship| {
        let (v4, v6) = match rng.gen_range(0..4) {
            0 => (true, false),
            1 => (false, true),
            _ => (true, true),
        };
        let tunnel = (!v4 && rng.gen_bool(0.5))
            .then_some(TunnelInfo { hidden_hops: 2, extra_delay_ms: 30.0 });
        t.add_edge(AsId(a), AsId(b), rel, LinkProps::new(5.0, 1000.0, 0.0), v4, v6, tunnel);
    };
    for c in 1..n {
        // every AS but the first buys transit, from a lower index
        let p = rng.gen_range(0..c);
        link(&mut t, rng, c, p, Relationship::CustomerOf);
        for other in 0..c {
            if rng.gen_bool(density * 0.5) {
                link(&mut t, rng, other, c, Relationship::ProviderOf);
            }
            if rng.gen_bool(density * 0.5) {
                link(&mut t, rng, c, other, Relationship::Peer);
            }
        }
    }
    t
}

#[test]
fn kernel_matches_message_passing_bgp() {
    let mut rng = derive_rng(2011, "bgp-oracle");
    let mut cov = Coverage::default();
    for seed in 0..400 {
        let topo = tiny_world(&mut rng, seed);
        let what = format!("generated world {seed}");
        check(&topo, Family::V4, &what, &mut cov);
        check(&topo, Family::V6, &what, &mut cov);
        cov.topologies += 1;
        if seed % 2 == 0 {
            let flips = flipped(&mut rng, &topo);
            check(&flips, Family::V6, &format!("{what} with v6 flips"), &mut cov);
            cov.topologies += 1;
        }
    }
    for i in 0..400 {
        let topo = random_graph(&mut rng);
        let what = format!("random graph {i}");
        check(&topo, Family::V4, &what, &mut cov);
        check(&topo, Family::V6, &what, &mut cov);
        cov.topologies += 1;
    }
    assert!(cov.topologies >= 1000, "{cov:?}");
    assert!(cov.kinds.iter().all(|&k| k > 1000), "every route kind exercised: {cov:?}");
    assert!(cov.unreachable > 1000, "{cov:?}");
    assert!(cov.tunnel_routes > 100, "{cov:?}");
    assert!(cov.parallel_pairs > 100, "{cov:?}");
}
