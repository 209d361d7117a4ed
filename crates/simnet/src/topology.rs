//! Cluster interconnect topologies and deterministic routing.
//!
//! A topology is a directed graph over host and switch vertices with
//! analytic (table-free) routing: crossbar, ring, 2-D/3-D torus with
//! dimension-order routing, k-ary fat trees (single- and multi-pod) with
//! destination-based upstream spreading (D-mod-k), and a Dragonfly with
//! minimal or Valiant routing.
//!
//! Scale discipline: `Topology::new` stores **no per-link or per-pair
//! state** — link ids, link endpoints, and routes are all computed
//! arithmetically from coordinates, so a 1M-host Dragonfly costs the same
//! few bytes as a 4-host crossbar. Routes are produced by [`RoutePlan`],
//! an iterator of [`LinkId`]s with O(1) state: crossbar and fat-tree
//! routes have a fixed shape, so [`Topology::route_plan`] decodes the two
//! endpoints once and writes their at most six link ids out in closed
//! form; ring, torus and Dragonfly routes derive each hop on the fly.
//! The contention model charges occupancy per yielded link without ever
//! materializing a route vector. Distance needs no route at all:
//! [`Topology::hops`] is arithmetic on every kind, and only link ids
//! step.
//!
//! Verification discipline: [`Topology::new_reference`] additionally
//! builds the explicit link table the pre-refactor code used (insertion
//! order via `add_bidi`, which defines the canonical link numbering for
//! the legacy kinds), and [`Topology::route_reference`] walks routes
//! through that table via the retained `walk_route` logic — for the
//! fat trees a vertex-by-vertex walk that shares nothing with the
//! closed form. The differential oracle
//! (`sentinel::oracle::route_oracle`, plus the property suites) checks
//! `RoutePlan` against this reference: same links, same order, same hop
//! count.

use crate::fasthash::FastHashMap;
use crate::link::LinkId;

/// A vertex in the interconnect graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Vertex {
    /// A compute node (host), identified by rank.
    Host(u32),
    /// A switch, identified by a topology-specific index.
    Switch(u32),
}

/// Topology construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// All hosts attached to one ideal crossbar switch.
    Crossbar { hosts: u32 },
    /// Bidirectional ring of hosts (direct network, no switches).
    Ring { hosts: u32 },
    /// 2-D torus, `w * h` hosts, dimension-order (X then Y) routing.
    Torus2D { w: u32, h: u32 },
    /// 3-D torus, `x * y * z` hosts, dimension-order routing.
    Torus3D { x: u32, y: u32, z: u32 },
    /// k-ary fat tree (k even): `k^3/4` hosts, three switch tiers.
    FatTree { k: u32 },
    /// k-ary fat tree with a configurable pod count (`1 <= pods <= k`):
    /// `pods * (k/2)^2` hosts. `pods == k` is the classic full fat tree;
    /// fewer pods model an incrementally built-out plant with the full
    /// core layer already cabled.
    FatTreePods { k: u32, pods: u32 },
    /// Dragonfly: `groups` fully connected groups of
    /// `routers_per_group` routers, each with `hosts_per_router` hosts.
    /// Routers within a group are fully connected; every ordered group
    /// pair is joined by one global link whose endpoints spread
    /// round-robin across each group's routers.
    Dragonfly {
        groups: u32,
        routers_per_group: u32,
        hosts_per_router: u32,
    },
}

/// Route selection policy (Dragonfly only; all other kinds have a single
/// deterministic minimal path and ignore this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Shortest path: up to 5 links on a Dragonfly
    /// (host→router, local, global, local, router→host).
    Minimal,
    /// Valiant load balancing: route minimally to a pseudo-random
    /// intermediate group (a pure function of `(seed, src, dst)`), then
    /// minimally to the destination — up to 8 links, at most 2× the
    /// minimal bound. Same-group traffic stays minimal.
    Valiant { seed: u64 },
}

/// Why [`Topology::try_new`] refused a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// A dimension outside the kind's domain (a one-host ring, an odd
    /// fat-tree arity); `rule` names the bound it broke.
    Domain { kind: TopologyKind, rule: &'static str },
    /// More hosts than a `u32` rank can name.
    TooManyHosts(TopologyKind),
    /// More directed links than a `u32` link id can name.
    TooManyLinks(TopologyKind),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TopologyError::Domain { kind, rule } => write!(f, "{kind:?}: {rule}"),
            TopologyError::TooManyHosts(kind) => {
                let (name, n, dims) = host_dims(kind);
                let dims = &dims[..n];
                write!(f, "{name} {dims:?} has more hosts than a u32 rank can name")
            }
            TopologyError::TooManyLinks(kind) => {
                write!(f, "{kind:?} has more links than a u32 link id can name")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Explicit link table built only by [`Topology::new_reference`]; the
/// oracle half of the routing refactor. Never present on the hot path.
#[derive(Debug, Clone, Default)]
struct RefGraph {
    /// Directed edges: (from, to), indexed by LinkId.
    links: Vec<(Vertex, Vertex)>,
    /// (from, to) -> LinkId. Lookup-only (never iterated), so the fast
    /// non-sip hasher cannot perturb determinism.
    index: FastHashMap<(Vertex, Vertex), LinkId>,
}

/// An interconnect graph with arithmetic O(1) routing.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    hosts: u32,
    routing: Routing,
    reference: Option<Box<RefGraph>>,
}

/// Sentinel for "no Valiant detour" in a [`RoutePlan`].
const NO_VIA: u32 = u32::MAX;

impl Topology {
    /// Build a topology. O(1) time and memory for every kind: no link
    /// table, no route storage — everything downstream is arithmetic.
    /// Panics where [`Topology::try_new`] refuses the shape.
    pub fn new(kind: TopologyKind) -> Self {
        Self::try_new(kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a topology, or say why the shape cannot be one: a dimension
    /// outside the kind's domain, or a host or link count that overflows
    /// the `u32` rank or link-id space (in release the product would
    /// wrap and pass for a small machine).
    pub fn try_new(kind: TopologyKind) -> Result<Self, TopologyError> {
        let domain = |ok: bool, rule: &'static str| {
            if ok {
                Ok(())
            } else {
                Err(TopologyError::Domain { kind, rule })
            }
        };
        let even_arity = |k: u32| domain(k >= 2 && k.is_multiple_of(2), "fat tree arity must be even");
        match kind {
            TopologyKind::Crossbar { hosts } => domain(hosts >= 1, "crossbar needs a host"),
            TopologyKind::Ring { hosts } => domain(hosts >= 2, "ring needs at least two hosts"),
            TopologyKind::Torus2D { w, h } => domain(w >= 2 && h >= 2, "torus dims must be >= 2"),
            TopologyKind::Torus3D { x, y, z } => {
                domain(x >= 2 && y >= 2 && z >= 2, "torus dims must be >= 2")
            }
            TopologyKind::FatTree { k } => even_arity(k),
            TopologyKind::FatTreePods { k, pods } => even_arity(k).and(domain(
                pods >= 1 && pods <= k,
                "pod count must be in 1..=k (core ports)",
            )),
            TopologyKind::Dragonfly {
                groups,
                routers_per_group,
                hosts_per_router,
            } => domain(
                groups >= 1 && routers_per_group >= 1 && hosts_per_router >= 1,
                "dragonfly dims must be >= 1",
            ),
        }?;
        let (_, _, dims) = host_dims(kind);
        let hosts = dims
            .iter()
            .try_fold(1u32, |n, &d| n.checked_mul(d))
            .ok_or(TopologyError::TooManyHosts(kind))?;
        // Link ids are `u32` too, and a machine has two to six directed
        // links per host: the link count can pass 2^32 while the ranks fit.
        if link_total(kind, hosts).is_none_or(|n| n > u32::MAX as u64) {
            return Err(TopologyError::TooManyLinks(kind));
        }
        Ok(Topology {
            kind,
            hosts,
            routing: Routing::Minimal,
            reference: None,
        })
    }

    /// Like [`Topology::new`], but additionally builds the explicit
    /// per-link reference table so [`Topology::route_reference`] and
    /// [`Topology::reference_links`] work. O(links) memory — for oracle
    /// and property tests only.
    pub fn new_reference(kind: TopologyKind) -> Self {
        let mut t = Self::new(kind);
        t.build_reference();
        t
    }

    /// Select the routing policy (builder style).
    pub fn with_routing(mut self, routing: Routing) -> Self {
        self.routing = routing;
        self
    }

    pub fn routing(&self) -> Routing {
        self.routing
    }

    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Dragonfly group of a rank (0 for non-grouped topologies). Used by
    /// the shard partitioner to align shard boundaries with groups.
    pub fn group_of(&self, rank: u32) -> u32 {
        match self.kind {
            TopologyKind::Dragonfly {
                routers_per_group,
                hosts_per_router,
                ..
            } => rank / (routers_per_group * hosts_per_router),
            _ => 0,
        }
    }

    /// Hosts per Dragonfly group (the whole machine for other kinds).
    pub fn group_size(&self) -> u32 {
        match self.kind {
            TopologyKind::Dragonfly {
                routers_per_group,
                hosts_per_router,
                ..
            } => routers_per_group * hosts_per_router,
            _ => self.hosts,
        }
    }

    /// Total directed links, computed arithmetically.
    pub fn link_count(&self) -> usize {
        link_total(self.kind, self.hosts).expect("Topology::new checked the link count") as usize
    }

    /// Endpoints of a link id, computed arithmetically (inverse of the
    /// link numbering; O(log hosts) worst case for tori, O(1) otherwise).
    pub fn link_endpoints(&self, id: LinkId) -> (Vertex, Vertex) {
        let i = id.0;
        match self.kind {
            TopologyKind::Crossbar { hosts } => {
                assert!(i < 2 * hosts, "link id out of range");
                let h = Vertex::Host(i / 2);
                if i.is_multiple_of(2) {
                    (h, Vertex::Switch(0))
                } else {
                    (Vertex::Switch(0), h)
                }
            }
            TopologyKind::Ring { hosts } => {
                assert!((i as usize) < self.link_count(), "link id out of range");
                let u = i / 2;
                let v = (u + 1) % hosts;
                if i.is_multiple_of(2) {
                    (Vertex::Host(u), Vertex::Host(v))
                } else {
                    (Vertex::Host(v), Vertex::Host(u))
                }
            }
            TopologyKind::Torus2D { w, h } => {
                let pair = (i / 2) as u64;
                // Find the host owning this pair: t2_pairs_before is
                // monotone in the host index, so binary search.
                let n = invert_monotone(self.hosts as u64, pair, |m| t2_pairs_before(w, h, m));
                let (x, y) = ((n as u32) % w, (n as u32) / w);
                let local = pair - t2_pairs_before(w, h, n);
                let has_e = w > 2 || x == 0;
                // Pair 0 is east when present, north otherwise.
                let east = local == 0 && has_e;
                let me = Vertex::Host(y * w + x);
                let other = if east {
                    Vertex::Host(y * w + (x + 1) % w)
                } else {
                    Vertex::Host(((y + 1) % h) * w + x)
                };
                if i.is_multiple_of(2) {
                    (me, other)
                } else {
                    (other, me)
                }
            }
            TopologyKind::Torus3D { x: wx, y: wy, z: wz } => {
                let pair = (i / 2) as u64;
                let n = invert_monotone(self.hosts as u64, pair, |m| {
                    t3_pairs_before(wx, wy, wz, m)
                });
                let nn = n as u32;
                let (ci, cj, ck) = (nn % wx, (nn / wx) % wy, nn / (wx * wy));
                let local = pair - t3_pairs_before(wx, wy, wz, n);
                let has = [wx > 2 || ci == 0, wy > 2 || cj == 0, wz > 2 || ck == 0];
                // local indexes the host's present pairs in x, y, z order.
                let mut axis = 0;
                let mut seen = 0u64;
                for (d, present) in has.iter().enumerate() {
                    if *present {
                        if seen == local {
                            axis = d;
                            break;
                        }
                        seen += 1;
                    }
                }
                let id3 = |a: u32, b: u32, c: u32| (c * wy + b) * wx + a;
                let me = Vertex::Host(id3(ci, cj, ck));
                let other = match axis {
                    0 => Vertex::Host(id3((ci + 1) % wx, cj, ck)),
                    1 => Vertex::Host(id3(ci, (cj + 1) % wy, ck)),
                    _ => Vertex::Host(id3(ci, cj, (ck + 1) % wz)),
                };
                if i.is_multiple_of(2) {
                    (me, other)
                } else {
                    (other, me)
                }
            }
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                let (k, pods) = self.ft_dims();
                let half = k / 2;
                let pod_block = 6 * half * half;
                let pod = i / pod_block;
                assert!(pod < pods, "link id out of range");
                let r = i % pod_block;
                let ft = FtIndex { k, pods };
                let (from, to) = if r < 4 * half * half {
                    let e = r / (4 * half);
                    let r2 = r % (4 * half);
                    if r2 < 2 * half {
                        let p = r2 / 2;
                        let hst = (pod * half + e) * half + p;
                        (Vertex::Host(hst), ft.edge(pod, e))
                    } else {
                        let a = (r2 - 2 * half) / 2;
                        (ft.edge(pod, e), ft.agg(pod, a))
                    }
                } else {
                    let r3 = r - 4 * half * half;
                    let a = r3 / (2 * half);
                    let up = (r3 % (2 * half)) / 2;
                    (ft.agg(pod, a), ft.core(a * half + up))
                };
                if i.is_multiple_of(2) {
                    (from, to)
                } else {
                    (to, from)
                }
            }
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                hosts_per_router: hpr,
            } => {
                let n = self.hosts;
                let l0 = 2 * n;
                let g0 = l0 + g * a * (a - 1);
                if i < l0 {
                    let x = i / 2;
                    let h = Vertex::Host(x);
                    let r = Vertex::Switch(x / hpr);
                    if i.is_multiple_of(2) {
                        (h, r)
                    } else {
                        (r, h)
                    }
                } else if i < g0 {
                    let q = i - l0;
                    let per_group = a * (a - 1);
                    let gr = q / per_group;
                    let s = q % per_group;
                    let ri = s / (a - 1);
                    let t = s % (a - 1);
                    let rj = t + u32::from(t >= ri);
                    (
                        Vertex::Switch(gr * a + ri),
                        Vertex::Switch(gr * a + rj),
                    )
                } else {
                    let q = i - g0;
                    assert!(q < g * (g - 1), "link id out of range");
                    let gi = q / (g - 1);
                    let t = q % (g - 1);
                    let gj = t + u32::from(t >= gi);
                    (
                        Vertex::Switch(gi * a + df_owner(a, gi, gj)),
                        Vertex::Switch(gj * a + df_owner(a, gj, gi)),
                    )
                }
            }
        }
    }

    /// The deterministic route from host `src` to host `dst` as an O(1)
    /// on-the-fly iterator: no allocation, no per-pair storage. `src ==
    /// dst` yields an empty plan (loopback never hits the wire).
    ///
    /// Crossbar and fat-tree routes have a fixed shape (at most six
    /// links), so their link ids are written out here in closed form;
    /// the other kinds step vertex by vertex.
    pub fn route_plan(&self, src: u32, dst: u32) -> RoutePlan<'_> {
        assert!(src < self.hosts && dst < self.hosts, "rank out of range");
        let closed = |links: [u32; 6], len: u8| RoutePlan(Plan::Closed { links, len, pos: 0 });
        if src == dst {
            return closed([0; 6], 0);
        }
        match self.kind {
            TopologyKind::Crossbar { .. } => closed([2 * src, 2 * dst + 1, 0, 0, 0, 0], 2),
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                let (k, pods) = self.ft_dims();
                let ft = FtIndex { k, pods };
                let (sp, se, sport) = ft.locate(src);
                // Upstream spreading is by destination (D-mod-k): the
                // aggregation switch is the destination's port number,
                // the core uplink its edge number.
                let (dp, de, agg) = ft.locate(dst);
                let up = ft.host_link(sp, se, sport, true);
                let down = ft.host_link(dp, de, agg, false);
                if (sp, se) == (dp, de) {
                    return closed([up, down, 0, 0, 0, 0], 2);
                }
                let edge_up = ft.edge_agg_link(sp, se, agg, true);
                let edge_down = ft.edge_agg_link(dp, de, agg, false);
                if sp == dp {
                    return closed([up, edge_up, edge_down, down, 0, 0], 4);
                }
                let core_up = ft.agg_core_link(sp, agg, de, true);
                let core_down = ft.agg_core_link(dp, agg, de, false);
                closed([up, edge_up, core_up, core_down, edge_down, down], 6)
            }
            _ => RoutePlan(Plan::Step {
                topo: self,
                cur: Vertex::Host(src),
                dst,
                via: self.valiant_via(src, dst),
            }),
        }
    }

    /// The Valiant intermediate group for `(src, dst)`, or `NO_VIA` when
    /// the pair stays minimal (minimal routing, not a Dragonfly, same
    /// group, tiny machine, or the drawn group coincides with an endpoint
    /// group).
    fn valiant_via(&self, src: u32, dst: u32) -> u32 {
        let (
            Routing::Valiant { seed },
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                hosts_per_router: h,
            },
        ) = (self.routing, self.kind)
        else {
            return NO_VIA;
        };
        if g < 3 || src == dst {
            return NO_VIA;
        }
        let gs = a * h;
        let (sg, dg) = (src / gs, dst / gs);
        if sg == dg {
            return NO_VIA;
        }
        let mut x = seed ^ (((src as u64) << 32) | dst as u64);
        // One SplitMix64 scramble round: cheap, deterministic, and
        // well-mixed across (src, dst) pairs.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let vg = (x % g as u64) as u32;
        if vg == sg || vg == dg {
            NO_VIA
        } else {
            vg
        }
    }

    /// The deterministic route from host `src` to host `dst` as links.
    pub fn route(&self, src: u32, dst: u32) -> Vec<LinkId> {
        self.route_plan(src, dst).collect()
    }

    /// Like [`Topology::route`], but appends into a caller-owned buffer
    /// (cleared first). Retained for callers that need a slice; the hot
    /// path iterates [`Topology::route_plan`] directly.
    pub fn route_into(&self, src: u32, dst: u32, out: &mut Vec<LinkId>) {
        out.clear();
        out.extend(self.route_plan(src, dst));
    }

    /// Number of links on the route (0 for loopback). Arithmetic on
    /// every kind — ring distances per dimension on ring and torus, the
    /// tier the endpoints share on a fat tree, `(group, router)`
    /// coordinates on a Dragonfly — so it never builds a [`RoutePlan`];
    /// the plan's length is its oracle in the property suites.
    pub fn hops(&self, src: u32, dst: u32) -> u32 {
        assert!(src < self.hosts && dst < self.hosts, "rank out of range");
        if src == dst {
            return 0;
        }
        match self.kind {
            TopologyKind::Crossbar { .. } => 2,
            TopologyKind::Ring { hosts } => ring_distance(src, dst, hosts),
            TopologyKind::Torus2D { w, h } => {
                ring_distance(src % w, dst % w, w) + ring_distance(src / w, dst / w, h)
            }
            TopologyKind::Torus3D { x: wx, y: wy, z: wz } => {
                let plane = wx * wy;
                ring_distance(src % wx, dst % wx, wx)
                    + ring_distance((src / wx) % wy, (dst / wx) % wy, wy)
                    + ring_distance(src / plane, dst / plane, wz)
            }
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                // Up to the lowest tier the endpoints share, and back.
                let half = self.ft_dims().0 / 2;
                let (s_edge, d_edge) = (src / half, dst / half);
                if s_edge == d_edge {
                    2
                } else if s_edge / half == d_edge / half {
                    4
                } else {
                    6
                }
            }
            TopologyKind::Dragonfly {
                routers_per_group: a,
                hosts_per_router: h,
                ..
            } => {
                let (sr, dr) = (src / h, dst / h);
                let (from, to) = ((sr / a, sr % a), (dr / a, dr % a));
                let via = self.valiant_via(src, dst);
                let between_routers = if via == NO_VIA {
                    df_router_hops(a, from, to)
                } else {
                    // Two minimal legs; the detour enters `via` at the
                    // router owning its link back to the source group.
                    let entry = (via, df_owner(a, via, from.0));
                    df_router_hops(a, from, entry) + df_router_hops(a, entry, to)
                };
                2 + between_routers
            }
        }
    }

    /// Next vertex after `cur` on the path to `dst`. Pure arithmetic in
    /// the current vertex and destination; `via` carries the remaining
    /// Valiant waypoint (cleared once the detour group is reached).
    fn next_vertex(&self, cur: Vertex, dst: u32, via: &mut u32) -> Vertex {
        match self.kind {
            TopologyKind::Crossbar { .. } => unreachable!("crossbar routes are closed-form"),
            TopologyKind::Ring { hosts } => {
                let Vertex::Host(c) = cur else {
                    unreachable!("ring has no switches")
                };
                Vertex::Host(step_toward(c, dst, hosts))
            }
            TopologyKind::Torus2D { w, h } => {
                let Vertex::Host(c) = cur else {
                    unreachable!("torus has no switches")
                };
                let (x, y) = (c % w, c / w);
                let (dx, dy) = (dst % w, dst / w);
                if x != dx {
                    Vertex::Host(y * w + step_toward(x, dx, w))
                } else {
                    Vertex::Host((step_toward(y, dy, h)) * w + x)
                }
            }
            TopologyKind::Torus3D { x: wx, y: wy, z: wz } => {
                let Vertex::Host(c) = cur else {
                    unreachable!("torus has no switches")
                };
                let (i, j, k) = (c % wx, (c / wx) % wy, c / (wx * wy));
                let (di, dj, dk) = (dst % wx, (dst / wx) % wy, dst / (wx * wy));
                let id3 = |a: u32, b: u32, c: u32| (c * wy + b) * wx + a;
                if i != di {
                    Vertex::Host(id3(step_toward(i, di, wx), j, k))
                } else if j != dj {
                    Vertex::Host(id3(i, step_toward(j, dj, wy), k))
                } else {
                    Vertex::Host(id3(i, j, step_toward(k, dk, wz)))
                }
            }
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                let (k, pods) = self.ft_dims();
                let half = k / 2;
                let ft = FtIndex { k, pods };
                let dp = dst / (half * half);
                let de = (dst / half) % half;
                let a_sel = dst % half;
                match cur {
                    Vertex::Host(x) => ft.edge(x / (half * half), (x / half) % half),
                    Vertex::Switch(s) => {
                        if s < pods * half {
                            // Edge switch.
                            let (pod, e) = (s / half, s % half);
                            if pod == dp && e == de {
                                Vertex::Host(dst)
                            } else {
                                ft.agg(pod, a_sel)
                            }
                        } else if s < 2 * pods * half {
                            // Aggregation switch.
                            let pod = (s - pods * half) / half;
                            if pod == dp {
                                ft.edge(dp, de)
                            } else {
                                ft.core(a_sel * half + de)
                            }
                        } else {
                            // Core switch.
                            ft.agg(dp, a_sel)
                        }
                    }
                }
            }
            TopologyKind::Dragonfly {
                groups: _,
                routers_per_group: a,
                hosts_per_router: h,
            } => {
                let dr = dst / h;
                let (dg, di) = (dr / a, dr % a);
                match cur {
                    Vertex::Host(x) => Vertex::Switch(x / h),
                    Vertex::Switch(r) => {
                        let (gr, i) = (r / a, r % a);
                        if *via == gr {
                            // Detour group reached; head home.
                            *via = NO_VIA;
                        }
                        let tg = if *via == NO_VIA { dg } else { *via };
                        if gr == dg && tg == dg {
                            // Descend.
                            if i == di {
                                Vertex::Host(dst)
                            } else {
                                Vertex::Switch(dg * a + di)
                            }
                        } else {
                            let exit = df_owner(a, gr, tg);
                            if i == exit {
                                Vertex::Switch(tg * a + df_owner(a, tg, gr))
                            } else {
                                Vertex::Switch(gr * a + exit)
                            }
                        }
                    }
                }
            }
        }
    }

    /// Arithmetic link id of the directed edge `from -> to`. `from` and
    /// `to` must be adjacent (as produced by [`Topology::next_vertex`]).
    fn link_id(&self, from: Vertex, to: Vertex) -> LinkId {
        let id = match self.kind {
            TopologyKind::Crossbar { .. } => match (from, to) {
                (Vertex::Host(x), Vertex::Switch(0)) => 2 * x,
                (Vertex::Switch(0), Vertex::Host(x)) => 2 * x + 1,
                _ => panic!("not adjacent: {from:?} -> {to:?}"),
            },
            TopologyKind::Ring { hosts } => {
                let (Vertex::Host(u), Vertex::Host(v)) = (from, to) else {
                    panic!("not adjacent: {from:?} -> {to:?}")
                };
                if hosts == 2 {
                    // Single deduplicated cable pair: (0,1)=0, (1,0)=1.
                    u
                } else if v == (u + 1) % hosts {
                    2 * u
                } else {
                    debug_assert_eq!(v, (u + hosts - 1) % hosts);
                    2 * v + 1
                }
            }
            TopologyKind::Torus2D { w, h } => {
                let (Vertex::Host(u), Vertex::Host(v)) = (from, to) else {
                    panic!("not adjacent: {from:?} -> {to:?}")
                };
                let (ux, uy) = (u % w, u / w);
                let (vx, vy) = (v % w, v / w);
                if uy == vy {
                    // X move.
                    t2_link_x(w, h, ux, uy, vx)
                } else {
                    debug_assert_eq!(ux, vx);
                    t2_link_y(w, h, ux, uy, vy)
                }
            }
            TopologyKind::Torus3D { x: wx, y: wy, z: wz } => {
                let (Vertex::Host(u), Vertex::Host(v)) = (from, to) else {
                    panic!("not adjacent: {from:?} -> {to:?}")
                };
                let (ui, uj, uk) = (u % wx, (u / wx) % wy, u / (wx * wy));
                let (vi, vj, vk) = (v % wx, (v / wx) % wy, v / (wx * wy));
                t3_link(wx, wy, wz, (ui, uj, uk), (vi, vj, vk))
            }
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                let (k, pods) = self.ft_dims();
                self.ft_link_id(k, pods, from, to)
            }
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                ..
            } => {
                let n = self.hosts;
                let l0 = 2 * n;
                let g0 = l0 + g * a * (a - 1);
                match (from, to) {
                    (Vertex::Host(x), Vertex::Switch(_)) => 2 * x,
                    (Vertex::Switch(_), Vertex::Host(x)) => 2 * x + 1,
                    (Vertex::Switch(r1), Vertex::Switch(r2)) => {
                        let (g1, i1) = (r1 / a, r1 % a);
                        let (g2, i2) = (r2 / a, r2 % a);
                        if g1 == g2 {
                            let t = i2 - u32::from(i2 > i1);
                            l0 + g1 * (a * (a - 1)) + i1 * (a - 1) + t
                        } else {
                            debug_assert_eq!(i1, df_owner(a, g1, g2));
                            debug_assert_eq!(i2, df_owner(a, g2, g1));
                            let t = g2 - u32::from(g2 > g1);
                            g0 + g1 * (g - 1) + t
                        }
                    }
                    _ => panic!("not adjacent: {from:?} -> {to:?}"),
                }
            }
        };
        LinkId(id)
    }

    /// (k, pods) for the fat-tree family.
    fn ft_dims(&self) -> (u32, u32) {
        match self.kind {
            TopologyKind::FatTree { k } => (k, k),
            TopologyKind::FatTreePods { k, pods } => (k, pods),
            _ => unreachable!(),
        }
    }

    fn ft_link_id(&self, k: u32, pods: u32, from: Vertex, to: Vertex) -> u32 {
        let half = k / 2;
        let ft = FtIndex { k, pods };
        let host_link = |hst: u32, up: bool| {
            let (pod, e, port) = ft.locate(hst);
            ft.host_link(pod, e, port, up)
        };
        match (from, to) {
            (Vertex::Host(x), Vertex::Switch(_)) => host_link(x, true),
            (Vertex::Switch(_), Vertex::Host(x)) => host_link(x, false),
            (Vertex::Switch(s1), Vertex::Switch(s2)) => {
                let class = |s: u32| {
                    if s < pods * half {
                        0 // edge
                    } else if s < 2 * pods * half {
                        1 // agg
                    } else {
                        2 // core
                    }
                };
                match (class(s1), class(s2)) {
                    (0, 1) => {
                        let (pod, e) = (s1 / half, s1 % half);
                        let a = ft.agg_index(s2);
                        ft.edge_agg_link(pod, e, a, true)
                    }
                    (1, 0) => {
                        let (pod, e) = (s2 / half, s2 % half);
                        let a = ft.agg_index(s1);
                        ft.edge_agg_link(pod, e, a, false)
                    }
                    (1, 2) => {
                        let pod = ft.agg_pod(s1);
                        let a = ft.agg_index(s1);
                        let c = s2 - 2 * pods * half;
                        ft.agg_core_link(pod, a, c - a * half, true)
                    }
                    (2, 1) => {
                        let pod = ft.agg_pod(s2);
                        let a = ft.agg_index(s2);
                        let c = s1 - 2 * pods * half;
                        ft.agg_core_link(pod, a, c - a * half, false)
                    }
                    _ => panic!("not adjacent: {from:?} -> {to:?}"),
                }
            }
            _ => panic!("not adjacent: {from:?} -> {to:?}"),
        }
    }

    /// Network diameter in links (max hops over all host pairs). Computed
    /// analytically per topology kind (and routing policy).
    pub fn diameter(&self) -> u32 {
        match self.kind {
            TopologyKind::Crossbar { .. } => 2,
            TopologyKind::Ring { hosts } => hosts / 2,
            TopologyKind::Torus2D { w, h } => w / 2 + h / 2,
            TopologyKind::Torus3D { x, y, z } => x / 2 + y / 2 + z / 2,
            TopologyKind::FatTree { .. } => 6,
            TopologyKind::FatTreePods { pods, .. } => {
                if pods == 1 {
                    4
                } else {
                    6
                }
            }
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                ..
            } => {
                let global = u32::from(g > 1);
                let locals = u32::from(a > 1) * (1 + global);
                let minimal = 2 + global + locals;
                match self.routing {
                    Routing::Minimal => minimal,
                    // Two back-to-back minimal legs share the terminal
                    // host links.
                    Routing::Valiant { .. } => {
                        if g > 1 {
                            2 * minimal - 2
                        } else {
                            minimal
                        }
                    }
                }
            }
        }
    }

    /// Links crossing a balanced bisection (a capacity measure used by the
    /// scaling analyses).
    pub fn bisection_links(&self) -> u64 {
        match self.kind {
            TopologyKind::Crossbar { hosts } => hosts as u64, // ideal
            TopologyKind::Ring { .. } => 4,                   // 2 cables, both directions
            TopologyKind::Torus2D { w, h } => {
                // Cut across the smaller dimension: 2 cables per row/col
                // crossing, both directions.
                4 * w.min(h) as u64
            }
            TopologyKind::Torus3D { x, y, z } => {
                let a = x.max(y).max(z);
                // Cut perpendicular to the largest dimension.
                let plane = (x as u64 * y as u64 * z as u64) / a as u64;
                4 * plane
            }
            TopologyKind::FatTree { k } => (k as u64).pow(3) / 4, // full bisection
            TopologyKind::FatTreePods { k, pods } => {
                // Half the pods on each side; each pod reaches the core
                // with (k/2)^2 uplinks, both directions.
                let half = (k / 2) as u64;
                2 * (pods as u64 / 2) * half * half
            }
            TopologyKind::Dragonfly { groups: g, routers_per_group: a, .. } => {
                if g > 1 {
                    // Global links between the two halves of the group
                    // set, both directions (one cable pair per ordered
                    // group pair).
                    2 * (g as u64 / 2) * (g as u64 - g as u64 / 2)
                } else {
                    // Single group: local links across the router split.
                    2 * (a as u64 / 2) * (a as u64 - a as u64 / 2)
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Reference graph (oracle half)
    // -----------------------------------------------------------------

    /// Whether the explicit reference table is present.
    pub fn has_reference(&self) -> bool {
        self.reference.is_some()
    }

    /// The explicit reference link table (panics without
    /// [`Topology::new_reference`]).
    pub fn reference_links(&self) -> &[(Vertex, Vertex)] {
        &self.reference.as_ref().expect("reference graph not built").links
    }

    /// Reference route: the retained pre-refactor path — per-kind
    /// `walk_route` vertex streaming plus explicit-table link lookup.
    /// The differential oracle compares [`Topology::route_plan`] against
    /// this on every legacy kind.
    pub fn route_reference(&self, src: u32, dst: u32) -> Vec<LinkId> {
        assert!(src < self.hosts && dst < self.hosts, "rank out of range");
        let mut out = Vec::new();
        if src == dst {
            return out;
        }
        let mut prev = Vertex::Host(src);
        self.walk_route(src, dst, |v| {
            out.push(self.ref_link(prev, v));
            prev = v;
        });
        out
    }

    fn ref_link(&self, from: Vertex, to: Vertex) -> LinkId {
        let r = self.reference.as_ref().expect("reference graph not built");
        *r.index
            .get(&(from, to))
            .unwrap_or_else(|| panic!("no link {from:?} -> {to:?}"))
    }

    fn build_reference(&mut self) {
        let mut r = RefGraph::default();
        let mut add_bidi = |a: Vertex, b: Vertex| {
            // Idempotent: a torus dimension of width 2 wraps +1 and -1 to
            // the same neighbour; we model that as one shared cable pair.
            for (x, y) in [(a, b), (b, a)] {
                if r.index.contains_key(&(x, y)) {
                    continue;
                }
                let id = LinkId(r.links.len() as u32);
                r.links.push((x, y));
                r.index.insert((x, y), id);
            }
        };
        match self.kind {
            TopologyKind::Crossbar { hosts } => {
                for h in 0..hosts {
                    add_bidi(Vertex::Host(h), Vertex::Switch(0));
                }
            }
            TopologyKind::Ring { hosts } => {
                for h in 0..hosts {
                    add_bidi(Vertex::Host(h), Vertex::Host((h + 1) % hosts));
                }
            }
            TopologyKind::Torus2D { w, h } => {
                for y in 0..h {
                    for x in 0..w {
                        let me = y * w + x;
                        let east = y * w + (x + 1) % w;
                        let north = ((y + 1) % h) * w + x;
                        add_bidi(Vertex::Host(me), Vertex::Host(east));
                        add_bidi(Vertex::Host(me), Vertex::Host(north));
                    }
                }
            }
            TopologyKind::Torus3D { x, y, z } => {
                let id = |i: u32, j: u32, k: u32| (k * y + j) * x + i;
                for k in 0..z {
                    for j in 0..y {
                        for i in 0..x {
                            let me = id(i, j, k);
                            add_bidi(Vertex::Host(me), Vertex::Host(id((i + 1) % x, j, k)));
                            add_bidi(Vertex::Host(me), Vertex::Host(id(i, (j + 1) % y, k)));
                            add_bidi(Vertex::Host(me), Vertex::Host(id(i, j, (k + 1) % z)));
                        }
                    }
                }
            }
            TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => {
                let (k, pods) = self.ft_dims();
                let half = k / 2;
                let ft = FtIndex { k, pods };
                for pod in 0..pods {
                    for e in 0..half {
                        for p in 0..half {
                            let hst = (pod * half + e) * half + p;
                            add_bidi(Vertex::Host(hst), ft.edge(pod, e));
                        }
                        for a in 0..half {
                            add_bidi(ft.edge(pod, e), ft.agg(pod, a));
                        }
                    }
                    for a in 0..half {
                        for up in 0..half {
                            // Aggregation switch `a` connects to core
                            // switches a*half..a*half+half.
                            add_bidi(ft.agg(pod, a), ft.core(a * half + up));
                        }
                    }
                }
            }
            TopologyKind::Dragonfly {
                groups: g,
                routers_per_group: a,
                hosts_per_router: hpr,
            } => {
                // Directed edges pushed in arithmetic id order — an
                // independent construction the closed-form numbering is
                // tested against.
                let mut push = |from: Vertex, to: Vertex| {
                    let id = LinkId(r.links.len() as u32);
                    r.links.push((from, to));
                    r.index.insert((from, to), id);
                };
                for x in 0..self.hosts {
                    push(Vertex::Host(x), Vertex::Switch(x / hpr));
                    push(Vertex::Switch(x / hpr), Vertex::Host(x));
                }
                for gr in 0..g {
                    for i in 0..a {
                        for j in 0..a {
                            if i != j {
                                push(
                                    Vertex::Switch(gr * a + i),
                                    Vertex::Switch(gr * a + j),
                                );
                            }
                        }
                    }
                }
                for gi in 0..g {
                    for gj in 0..g {
                        if gi != gj {
                            push(
                                Vertex::Switch(gi * a + df_owner(a, gi, gj)),
                                Vertex::Switch(gj * a + df_owner(a, gj, gi)),
                            );
                        }
                    }
                }
            }
        }
        self.reference = Some(Box::new(r));
    }

    /// Visit each vertex of the deterministic `src -> dst` path after the
    /// source, in order — the retained pre-refactor routing logic for the
    /// legacy kinds. The newer kinds step through `next_vertex`: for the
    /// Dragonfly that is the stepper the plan uses too (its reference
    /// check is the explicit link table), for the multi-pod fat tree it
    /// is a walk the closed-form plan never takes.
    fn walk_route(&self, src: u32, dst: u32, mut visit: impl FnMut(Vertex)) {
        match self.kind {
            TopologyKind::Crossbar { .. } => {
                visit(Vertex::Switch(0));
                visit(Vertex::Host(dst));
            }
            TopologyKind::Ring { hosts } => {
                let fwd = (dst + hosts - src) % hosts;
                let bwd = (src + hosts - dst) % hosts;
                let mut cur = src;
                if fwd <= bwd {
                    for _ in 0..fwd {
                        cur = (cur + 1) % hosts;
                        visit(Vertex::Host(cur));
                    }
                } else {
                    for _ in 0..bwd {
                        cur = (cur + hosts - 1) % hosts;
                        visit(Vertex::Host(cur));
                    }
                }
            }
            TopologyKind::Torus2D { w, h } => {
                let (mut x, mut y) = (src % w, src / w);
                let (dx, dy) = (dst % w, dst / w);
                while x != dx {
                    x = step_toward(x, dx, w);
                    visit(Vertex::Host(y * w + x));
                }
                while y != dy {
                    y = step_toward(y, dy, h);
                    visit(Vertex::Host(y * w + x));
                }
            }
            TopologyKind::Torus3D { x: wx, y: wy, z: wz } => {
                let coord = |n: u32| (n % wx, (n / wx) % wy, n / (wx * wy));
                let id = |i: u32, j: u32, k: u32| (k * wy + j) * wx + i;
                let (mut i, mut j, mut k) = coord(src);
                let (di, dj, dk) = coord(dst);
                while i != di {
                    i = step_toward(i, di, wx);
                    visit(Vertex::Host(id(i, j, k)));
                }
                while j != dj {
                    j = step_toward(j, dj, wy);
                    visit(Vertex::Host(id(i, j, k)));
                }
                while k != dk {
                    k = step_toward(k, dk, wz);
                    visit(Vertex::Host(id(i, j, k)));
                }
            }
            TopologyKind::FatTree { k } => {
                let half = k / 2;
                let pod_of = |hst: u32| hst / (half * half);
                let edge_of = |hst: u32| (hst / half) % half;
                let (sp, se) = (pod_of(src), edge_of(src));
                let (dp, de) = (pod_of(dst), edge_of(dst));
                let edge = |pod: u32, e: u32| Vertex::Switch(pod * half + e);
                let agg = |pod: u32, a: u32| Vertex::Switch(k * half + pod * half + a);
                let core = |c: u32| Vertex::Switch(2 * k * half + c);
                visit(edge(sp, se));
                if sp == dp && se == de {
                    // Same edge switch.
                } else if sp == dp {
                    // Up to an aggregation switch chosen by destination
                    // (D-mod-k spreading), back down.
                    let a = dst % half;
                    visit(agg(sp, a));
                    visit(edge(dp, de));
                } else {
                    // Up through agg and core, down the destination pod.
                    let a = dst % half;
                    let c = a * half + (dst / half) % half;
                    visit(agg(sp, a));
                    visit(core(c));
                    visit(agg(dp, a));
                    visit(edge(dp, de));
                }
                visit(Vertex::Host(dst));
            }
            TopologyKind::FatTreePods { .. } | TopologyKind::Dragonfly { .. } => {
                let mut via = self.valiant_via(src, dst);
                let mut cur = Vertex::Host(src);
                loop {
                    cur = self.next_vertex(cur, dst, &mut via);
                    visit(cur);
                    if cur == Vertex::Host(dst) {
                        break;
                    }
                }
            }
        }
    }
}

/// Fat-tree switch numbering: edge switches `[0, pods*half)`, aggregation
/// switches `[pods*half, 2*pods*half)`, core `[2*pods*half, +half^2)`.
struct FtIndex {
    k: u32,
    pods: u32,
}

impl FtIndex {
    fn edge(&self, pod: u32, e: u32) -> Vertex {
        Vertex::Switch(pod * (self.k / 2) + e)
    }
    fn agg(&self, pod: u32, a: u32) -> Vertex {
        Vertex::Switch(self.pods * (self.k / 2) + pod * (self.k / 2) + a)
    }
    fn core(&self, c: u32) -> Vertex {
        Vertex::Switch(2 * self.pods * (self.k / 2) + c)
    }
    fn agg_pod(&self, s: u32) -> u32 {
        (s - self.pods * (self.k / 2)) / (self.k / 2)
    }
    fn agg_index(&self, s: u32) -> u32 {
        (s - self.pods * (self.k / 2)) % (self.k / 2)
    }
    /// `(pod, edge switch in pod, port on edge switch)` of a host.
    fn locate(&self, host: u32) -> (u32, u32, u32) {
        let half = self.k / 2;
        let edge = host / half;
        (edge / half, edge % half, host % half)
    }
    // Link numbering: each pod owns a block of 6 * half^2 ids — per edge
    // switch its `half` host cable pairs then its `half` uplink pairs,
    // then per aggregation switch its `half` core pairs. Within a pair
    // the upward direction is the even id.
    fn edge_base(&self, pod: u32, e: u32) -> u32 {
        let half = self.k / 2;
        pod * 6 * half * half + e * 4 * half
    }
    fn host_link(&self, pod: u32, e: u32, port: u32, up: bool) -> u32 {
        self.edge_base(pod, e) + 2 * port + u32::from(!up)
    }
    fn edge_agg_link(&self, pod: u32, e: u32, a: u32, up: bool) -> u32 {
        self.edge_base(pod, e) + self.k + 2 * a + u32::from(!up)
    }
    fn agg_core_link(&self, pod: u32, a: u32, up_idx: u32, up: bool) -> u32 {
        let half = self.k / 2;
        pod * 6 * half * half + 4 * half * half + a * self.k + 2 * up_idx + u32::from(!up)
    }
}

/// Router in `from_g` owning the global link to `to_g` (round-robin
/// spread of global endpoints across a group's routers).
#[inline]
fn df_owner(a: u32, from_g: u32, to_g: u32) -> u32 {
    let t = if to_g < from_g { to_g } else { to_g - 1 };
    t % a
}

/// Links between two Dragonfly routers, each `(group, index in group)`,
/// on the minimal path: one local link inside a group; across groups the
/// global link plus a local link at either end whose router does not own
/// it.
#[inline]
fn df_router_hops(a: u32, from: (u32, u32), to: (u32, u32)) -> u32 {
    if from.0 == to.0 {
        u32::from(from.1 != to.1)
    } else {
        let exit = df_owner(a, from.0, to.0);
        let entry = df_owner(a, to.0, from.0);
        u32::from(from.1 != exit) + 1 + u32::from(to.1 != entry)
    }
}

/// A kind's name and the dimensions whose product is its host count,
/// padded with ones to three (the second field counts the real ones).
fn host_dims(kind: TopologyKind) -> (&'static str, usize, [u32; 3]) {
    match kind {
        TopologyKind::Crossbar { hosts } => ("crossbar", 1, [hosts, 1, 1]),
        TopologyKind::Ring { hosts } => ("ring", 1, [hosts, 1, 1]),
        TopologyKind::Torus2D { w, h } => ("2-D torus", 2, [w, h, 1]),
        TopologyKind::Torus3D { x, y, z } => ("3-D torus", 3, [x, y, z]),
        TopologyKind::FatTree { k } => ("fat tree", 3, [k, k / 2, k / 2]),
        TopologyKind::FatTreePods { k, pods } => ("multi-pod fat tree", 3, [pods, k / 2, k / 2]),
        TopologyKind::Dragonfly {
            groups,
            routers_per_group,
            hosts_per_router,
        } => ("dragonfly", 3, [groups, routers_per_group, hosts_per_router]),
    }
}

/// Total directed links of a `kind` machine with `hosts` hosts, exact in
/// `u64`; `None` where even that overflows (a Dragonfly's router-pair
/// terms can, with the host count still in range).
fn link_total(kind: TopologyKind, hosts: u32) -> Option<u64> {
    let n = hosts as u64;
    Some(match kind {
        TopologyKind::Crossbar { .. } => 2 * n,
        TopologyKind::Ring { .. } => {
            if hosts == 2 {
                2
            } else {
                2 * n
            }
        }
        TopologyKind::Torus2D { w, h } => 2 * t2_pairs_before(w, h, n),
        TopologyKind::Torus3D { x, y, z } => 2 * t3_pairs_before(x, y, z, n),
        // Host, edge-aggregation and aggregation-core cables: one of
        // each per host, two directions.
        TopologyKind::FatTree { .. } | TopologyKind::FatTreePods { .. } => 6 * n,
        TopologyKind::Dragonfly {
            groups: g,
            routers_per_group: a,
            hosts_per_router: _,
        } => {
            let (g, a) = (g as u64, a as u64);
            let local = (g * a).checked_mul(a - 1)?;
            let global = g.checked_mul(g - 1)?;
            (2 * n).checked_add(local)?.checked_add(global)?
        }
    })
}

/// Cable *pairs* inserted before host `n` in the 2-D torus reference
/// numbering (east pair then north pair per host, deduplicated when a
/// dimension has width 2).
fn t2_pairs_before(w: u32, h: u32, n: u64) -> u64 {
    let e = if w > 2 { n } else { n.div_ceil(w as u64) };
    let nn = if h > 2 { n } else { n.min(w as u64) };
    e + nn
}

/// Link id for an X move `(ux,uy) -> (vx,uy)` on a 2-D torus.
fn t2_link_x(w: u32, h: u32, ux: u32, uy: u32, vx: u32) -> u32 {
    let base = |x: u32, y: u32| 2 * t2_pairs_before(w, h, (y * w + x) as u64) as u32;
    if w == 2 {
        // One shared pair per row, owned by x == 0: (0,1)=+0, (1,0)=+1.
        base(0, uy) + u32::from(ux == 1)
    } else if vx == (ux + 1) % w {
        base(ux, uy) // own east pair, forward direction
    } else {
        base(vx, uy) + 1 // neighbour's east pair, reverse direction
    }
}

/// Link id for a Y move `(ux,uy) -> (ux,vy)` on a 2-D torus.
fn t2_link_y(w: u32, h: u32, ux: u32, uy: u32, vy: u32) -> u32 {
    let base = |x: u32, y: u32| 2 * t2_pairs_before(w, h, (y * w + x) as u64) as u32;
    // Offset of a host's north pair past its east pair (if present).
    let e_off = |x: u32| 2 * u32::from(w > 2 || x == 0);
    if h == 2 {
        base(ux, 0) + e_off(ux) + u32::from(uy == 1)
    } else if vy == (uy + 1) % h {
        base(ux, uy) + e_off(ux)
    } else {
        base(ux, vy) + e_off(ux) + 1
    }
}

/// Cable pairs inserted before host `n` in the 3-D torus reference
/// numbering (x, y, z pair per host, deduplicated at width 2).
fn t3_pairs_before(wx: u32, wy: u32, wz: u32, n: u64) -> u64 {
    let (wx64, wy64) = (wx as u64, wy as u64);
    let plane = wx64 * wy64;
    let ex = if wx > 2 { n } else { n.div_ceil(wx64) };
    let ey = if wy > 2 {
        n
    } else {
        // Hosts with j == 0 among the first n: wx per full plane plus the
        // first wx of a partial plane.
        (n / plane) * wx64 + (n % plane).min(wx64)
    };
    let ez = if wz > 2 { n } else { n.min(plane) };
    ex + ey + ez
}

/// Link id for a single-axis move on a 3-D torus.
fn t3_link(wx: u32, wy: u32, wz: u32, u: (u32, u32, u32), v: (u32, u32, u32)) -> u32 {
    let idx = |i: u32, j: u32, k: u32| ((k * wy + j) * wx + i) as u64;
    let base = |i: u32, j: u32, k: u32| 2 * t3_pairs_before(wx, wy, wz, idx(i, j, k)) as u32;
    let has = |w: u32, c: u32| u32::from(w > 2 || c == 0);
    let (ui, uj, uk) = u;
    let (vi, vj, vk) = v;
    if uj == vj && uk == vk {
        // X move: the x pair is a host's first pair.
        if wx == 2 {
            base(0, uj, uk) + u32::from(ui == 1)
        } else if vi == (ui + 1) % wx {
            base(ui, uj, uk)
        } else {
            base(vi, uj, uk) + 1
        }
    } else if ui == vi && uk == vk {
        // Y move: skip the x pair if present.
        let off = |i: u32| 2 * has(wx, i);
        if wy == 2 {
            base(ui, 0, uk) + off(ui) + u32::from(uj == 1)
        } else if vj == (uj + 1) % wy {
            base(ui, uj, uk) + off(ui)
        } else {
            base(ui, vj, uk) + off(ui) + 1
        }
    } else {
        // Z move: skip x and y pairs if present.
        debug_assert!(ui == vi && uj == vj);
        let off = |i: u32, j: u32| 2 * (has(wx, i) + has(wy, j));
        if wz == 2 {
            base(ui, uj, 0) + off(ui, uj) + u32::from(uk == 1)
        } else if vk == (uk + 1) % wz {
            base(ui, uj, uk) + off(ui, uj)
        } else {
            base(ui, uj, vk) + off(ui, uj) + 1
        }
    }
}

/// Largest `n in [0, hosts]` with `f(n) <= target`, by binary search over
/// the monotone pair-count function (used to invert link numbering).
fn invert_monotone(hosts: u64, target: u64, f: impl Fn(u64) -> u64) -> u64 {
    let (mut lo, mut hi) = (0u64, hosts);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if f(mid) <= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// An O(1)-state route iterator: yields the [`LinkId`] of each hop from
/// `src` to `dst`. No allocation, no per-pair storage.
#[derive(Clone)]
pub struct RoutePlan<'a>(Plan<'a>);

#[derive(Clone)]
enum Plan<'a> {
    /// Crossbar and fat-tree routes: every link id, computed up front
    /// from the endpoints' coordinates.
    Closed { links: [u32; 6], len: u8, pos: u8 },
    /// Ring, torus and Dragonfly routes: the next vertex and its link id
    /// are derived arithmetically one hop at a time.
    Step {
        topo: &'a Topology,
        cur: Vertex,
        dst: u32,
        /// Remaining Valiant waypoint group, or `NO_VIA`.
        via: u32,
    },
}

impl Iterator for RoutePlan<'_> {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        match &mut self.0 {
            Plan::Closed { links, len, pos } => {
                if pos == len {
                    return None;
                }
                let id = links[*pos as usize];
                *pos += 1;
                Some(LinkId(id))
            }
            Plan::Step { topo, cur, dst, via } => {
                if *cur == Vertex::Host(*dst) {
                    return None;
                }
                let next = topo.next_vertex(*cur, *dst, via);
                let id = topo.link_id(*cur, next);
                *cur = next;
                Some(id)
            }
        }
    }
}

/// Hops between two positions on a ring of `width`, the shorter way
/// round (what [`step_toward`] takes one at a time).
#[inline]
fn ring_distance(from: u32, to: u32, width: u32) -> u32 {
    let apart = from.abs_diff(to);
    apart.min(width - apart)
}

#[inline]
fn step_toward(cur: u32, dst: u32, width: u32) -> u32 {
    // One hop along the shorter direction around a ring of `width`.
    let fwd = (dst + width - cur) % width;
    let bwd = (cur + width - dst) % width;
    if fwd <= bwd {
        (cur + 1) % width
    } else {
        (cur + width - 1) % width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<TopologyKind> {
        vec![
            TopologyKind::Crossbar { hosts: 9 },
            TopologyKind::Ring { hosts: 8 },
            TopologyKind::Ring { hosts: 7 },
            TopologyKind::Ring { hosts: 2 },
            TopologyKind::Torus2D { w: 4, h: 3 },
            TopologyKind::Torus2D { w: 2, h: 2 },
            TopologyKind::Torus2D { w: 2, h: 5 },
            TopologyKind::Torus3D { x: 2, y: 3, z: 2 },
            TopologyKind::Torus3D { x: 3, y: 2, z: 4 },
            TopologyKind::FatTree { k: 4 },
            TopologyKind::FatTreePods { k: 4, pods: 3 },
            TopologyKind::FatTreePods { k: 6, pods: 2 },
            TopologyKind::FatTreePods { k: 4, pods: 1 },
            TopologyKind::Dragonfly {
                groups: 5,
                routers_per_group: 3,
                hosts_per_router: 2,
            },
            TopologyKind::Dragonfly {
                groups: 2,
                routers_per_group: 1,
                hosts_per_router: 3,
            },
            TopologyKind::Dragonfly {
                groups: 1,
                routers_per_group: 4,
                hosts_per_router: 2,
            },
            TopologyKind::Dragonfly {
                groups: 9,
                routers_per_group: 2,
                hosts_per_router: 1,
            },
        ]
    }

    fn all_topologies() -> Vec<Topology> {
        let mut out: Vec<Topology> = all_kinds().into_iter().map(Topology::new).collect();
        out.push(
            Topology::new(TopologyKind::Dragonfly {
                groups: 5,
                routers_per_group: 3,
                hosts_per_router: 2,
            })
            .with_routing(Routing::Valiant { seed: 42 }),
        );
        out
    }

    #[test]
    fn routes_connect_all_pairs() {
        for t in all_topologies() {
            for s in 0..t.hosts() {
                for d in 0..t.hosts() {
                    let r = t.route(s, d);
                    if s == d {
                        assert!(r.is_empty());
                        continue;
                    }
                    // Route starts at src, ends at dst, and is contiguous.
                    let (first_from, _) = t.link_endpoints(r[0]);
                    let (_, last_to) = t.link_endpoints(*r.last().unwrap());
                    assert_eq!(first_from, Vertex::Host(s), "{:?}", t.kind());
                    assert_eq!(last_to, Vertex::Host(d), "{:?}", t.kind());
                    for w in r.windows(2) {
                        let (_, a_to) = t.link_endpoints(w[0]);
                        let (b_from, _) = t.link_endpoints(w[1]);
                        assert_eq!(a_to, b_from, "discontinuous route");
                    }
                }
            }
        }
    }

    #[test]
    fn hops_bounded_by_diameter() {
        for t in all_topologies() {
            let dia = t.diameter();
            for s in 0..t.hosts() {
                for d in 0..t.hosts() {
                    assert!(
                        t.hops(s, d) <= dia,
                        "{:?} ({:?}): hops({s},{d})={} > diameter {dia}",
                        t.kind(),
                        t.routing(),
                        t.hops(s, d)
                    );
                }
            }
        }
    }

    /// The arithmetic link numbering (route_plan + link_id) must agree
    /// with the retained insertion-order reference (walk_route + table)
    /// on every legacy kind — same links, same order.
    #[test]
    fn plan_matches_reference_on_legacy_kinds() {
        for kind in all_kinds() {
            let t = Topology::new_reference(kind);
            for s in 0..t.hosts() {
                for d in 0..t.hosts() {
                    assert_eq!(
                        t.route(s, d),
                        t.route_reference(s, d),
                        "{kind:?}: ({s},{d})"
                    );
                }
            }
        }
    }

    /// The closed-form link numbering must invert exactly: endpoints of
    /// id `i` re-encode to id `i`, and the reference table (built by an
    /// independent construction loop) agrees entry by entry.
    #[test]
    fn link_numbering_inverts_and_matches_reference_table() {
        for kind in all_kinds() {
            let t = Topology::new_reference(kind);
            assert_eq!(
                t.link_count(),
                t.reference_links().len(),
                "{kind:?}: link_count"
            );
            for i in 0..t.link_count() {
                let (from, to) = t.link_endpoints(LinkId(i as u32));
                assert_eq!(
                    t.link_id(from, to),
                    LinkId(i as u32),
                    "{kind:?}: endpoints({i}) do not re-encode"
                );
                assert_eq!(
                    t.reference_links()[i],
                    (from, to),
                    "{kind:?}: reference table disagrees at {i}"
                );
            }
        }
    }

    #[test]
    fn ring_takes_shorter_direction() {
        let t = Topology::new(TopologyKind::Ring { hosts: 8 });
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(1, 6), 3);
    }

    #[test]
    fn crossbar_is_always_two_hops() {
        let t = Topology::new(TopologyKind::Crossbar { hosts: 5 });
        for s in 0..5 {
            for d in 0..5 {
                if s != d {
                    assert_eq!(t.hops(s, d), 2);
                }
            }
        }
    }

    #[test]
    fn torus2d_dimension_order_hop_count() {
        let t = Topology::new(TopologyKind::Torus2D { w: 4, h: 4 });
        // (0,0) -> (2,1): 2 X hops + 1 Y hop.
        assert_eq!(t.hops(0, 4 + 2), 3);
        // Wraparound: (0,0) -> (3,0) is 1 hop backwards.
        assert_eq!(t.hops(0, 3), 1);
    }

    #[test]
    fn fat_tree_host_count_and_hop_classes() {
        let t = Topology::new(TopologyKind::FatTree { k: 4 });
        assert_eq!(t.hosts(), 16);
        // Same edge switch: host 0 and 1 -> 2 hops.
        assert_eq!(t.hops(0, 1), 2);
        // Same pod, different edge: host 0 and 2 -> 4 hops.
        assert_eq!(t.hops(0, 2), 4);
        // Different pods: 6 hops.
        assert_eq!(t.hops(0, 15), 6);
    }

    #[test]
    fn fat_tree_has_full_bisection() {
        let t = Topology::new(TopologyKind::FatTree { k: 4 });
        assert_eq!(t.bisection_links(), 16);
    }

    #[test]
    fn multi_pod_fat_tree_counts() {
        let t = Topology::new(TopologyKind::FatTreePods { k: 4, pods: 3 });
        assert_eq!(t.hosts(), 12);
        assert_eq!(t.hops(0, 1), 2);
        assert_eq!(t.hops(0, 2), 4);
        assert_eq!(t.hops(0, 11), 6);
        // pods == k is link-for-link the classic fat tree.
        let full = Topology::new_reference(TopologyKind::FatTreePods { k: 4, pods: 4 });
        let classic = Topology::new_reference(TopologyKind::FatTree { k: 4 });
        assert_eq!(full.reference_links(), classic.reference_links());
        for s in 0..full.hosts() {
            for d in 0..full.hosts() {
                assert_eq!(full.route(s, d), classic.route(s, d));
            }
        }
    }

    #[test]
    fn dragonfly_counts_and_hop_classes() {
        let t = Topology::new(TopologyKind::Dragonfly {
            groups: 5,
            routers_per_group: 3,
            hosts_per_router: 2,
        });
        assert_eq!(t.hosts(), 30);
        assert_eq!(t.group_size(), 6);
        assert_eq!(t.group_of(0), 0);
        assert_eq!(t.group_of(29), 4);
        // Same router: host 0 and 1 -> 2 hops.
        assert_eq!(t.hops(0, 1), 2);
        // Same group, different router: <= 3 hops.
        assert_eq!(t.hops(0, 2), 3);
        // Cross-group: <= 5 hops, >= 3 (up, global, down).
        for s in 0..6 {
            for d in 6..12 {
                let h = t.hops(s, d);
                assert!((3..=5).contains(&h), "hops({s},{d}) = {h}");
            }
        }
    }

    #[test]
    fn dragonfly_global_links_spread_over_routers() {
        // groups=9, a=2: each router owns 4 global endpoints.
        let t = Topology::new(TopologyKind::Dragonfly {
            groups: 9,
            routers_per_group: 2,
            hosts_per_router: 1,
        });
        let mut per_router = vec![0u32; 18];
        let n = t.link_count();
        let global_base = n - 9 * 8;
        for i in global_base..n {
            let (from, _) = t.link_endpoints(LinkId(i as u32));
            let Vertex::Switch(r) = from else { panic!() };
            per_router[r as usize] += 1;
        }
        assert!(per_router.iter().all(|&c| c == 4), "{per_router:?}");
    }

    #[test]
    fn valiant_detours_and_stays_bounded() {
        let kind = TopologyKind::Dragonfly {
            groups: 8,
            routers_per_group: 4,
            hosts_per_router: 2,
        };
        let min = Topology::new(kind);
        let val = Topology::new(kind).with_routing(Routing::Valiant { seed: 7 });
        let mut detoured = 0;
        for s in 0..min.hosts() {
            for d in 0..min.hosts() {
                let hv = val.hops(s, d);
                let hm = min.hops(s, d);
                assert!(hv <= 2 * min.diameter(), "hops({s},{d}) = {hv}");
                assert!(hv <= val.diameter());
                if hv > hm {
                    detoured += 1;
                }
                // Same-group pairs must stay minimal.
                if min.group_of(s) == min.group_of(d) {
                    assert_eq!(hv, hm);
                }
            }
        }
        assert!(detoured > 0, "valiant never detoured");
        // Deterministic per seed.
        let val2 = Topology::new(kind).with_routing(Routing::Valiant { seed: 7 });
        assert_eq!(val.route(0, 63), val2.route(0, 63));
    }

    #[test]
    fn link_ids_are_dense_and_unique() {
        for t in all_topologies() {
            let n = t.link_count();
            let mut seen = vec![false; n];
            for s in 0..t.hosts() {
                for d in 0..t.hosts() {
                    for l in t.route(s, d) {
                        seen[l.0 as usize] = true;
                    }
                }
            }
            // Every link id is in range; most links are used by some route.
            assert!(seen.iter().filter(|&&s| s).count() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics() {
        let t = Topology::new(TopologyKind::Ring { hosts: 4 });
        t.route(0, 9);
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics_in_hops() {
        let t = Topology::new(TopologyKind::Torus2D { w: 4, h: 4 });
        t.hops(16, 0);
    }

    // A host count past u32 must be refused by name, not wrapped into a
    // small machine (70 000^2 mod 2^32 is 605 032 704).
    #[test]
    #[should_panic(expected = "2-D torus [70000, 70000] has more hosts")]
    fn oversized_torus2d_is_refused() {
        Topology::new(TopologyKind::Torus2D { w: 70_000, h: 70_000 });
    }

    #[test]
    #[should_panic(expected = "3-D torus [2048, 2048, 1024] has more hosts")]
    fn oversized_torus3d_is_refused() {
        Topology::new(TopologyKind::Torus3D { x: 2048, y: 2048, z: 1024 });
    }

    #[test]
    #[should_panic(expected = "fat tree [2582, 1291, 1291] has more hosts")]
    fn oversized_fat_tree_is_refused() {
        Topology::new(TopologyKind::FatTree { k: 2582 });
    }

    #[test]
    #[should_panic(expected = "multi-pod fat tree [4, 40000, 40000] has more hosts")]
    fn oversized_multi_pod_fat_tree_is_refused() {
        Topology::new(TopologyKind::FatTreePods { k: 80_000, pods: 4 });
    }

    #[test]
    #[should_panic(expected = "dragonfly [65536, 256, 256] has more hosts")]
    fn oversized_dragonfly_is_refused() {
        Topology::new(TopologyKind::Dragonfly {
            groups: 65_536,
            routers_per_group: 256,
            hosts_per_router: 256,
        });
    }

    // Link ids are u32 as well: two directed links per crossbar host,
    // four per 2-D torus host, six per 3-D torus or fat-tree host, so the
    // link count passes 2^32 with the ranks still in range.
    #[test]
    #[should_panic(expected = "Crossbar { hosts: 3000000000 } has more links")]
    fn crossbar_past_the_link_id_limit_is_refused() {
        Topology::new(TopologyKind::Crossbar { hosts: 3_000_000_000 });
    }

    #[test]
    #[should_panic(expected = "Torus2D { w: 40000, h: 40000 } has more links")]
    fn torus2d_past_the_link_id_limit_is_refused() {
        Topology::new(TopologyKind::Torus2D { w: 40_000, h: 40_000 });
    }

    #[test]
    #[should_panic(expected = "Torus3D { x: 1024, y: 1024, z: 1024 } has more links")]
    fn torus3d_past_the_link_id_limit_is_refused() {
        Topology::new(TopologyKind::Torus3D { x: 1024, y: 1024, z: 1024 });
    }

    #[test]
    #[should_panic(expected = "FatTree { k: 2000 } has more links")]
    fn fat_tree_past_the_link_id_limit_is_refused() {
        Topology::new(TopologyKind::FatTree { k: 2000 });
    }

    /// Every shape outside a kind's domain, and every count past the
    /// `u32` spaces, comes back as a typed refusal instead of a panic.
    #[test]
    fn refused_shapes_are_typed_errors() {
        use TopologyError::{Domain, TooManyHosts, TooManyLinks};
        let domain = |kind, rule| Domain { kind, rule };
        let ring1 = TopologyKind::Ring { hosts: 1 };
        let ft3 = TopologyKind::FatTree { k: 3 };
        let pods3 = TopologyKind::FatTreePods { k: 3, pods: 1 };
        let pods0 = TopologyKind::FatTreePods { k: 4, pods: 0 };
        let pods5 = TopologyKind::FatTreePods { k: 4, pods: 5 };
        let xbar0 = TopologyKind::Crossbar { hosts: 0 };
        let t2 = TopologyKind::Torus2D { w: 1, h: 4 };
        let t3 = TopologyKind::Torus3D { x: 2, y: 2, z: 1 };
        let df = TopologyKind::Dragonfly { groups: 2, routers_per_group: 0, hosts_per_router: 1 };
        let big_t2 = TopologyKind::Torus2D { w: 70_000, h: 70_000 };
        let big_xbar = TopologyKind::Crossbar { hosts: 3_000_000_000 };
        let pods = "pod count must be in 1..=k (core ports)";
        for (kind, want) in [
            (ring1, domain(ring1, "ring needs at least two hosts")),
            (ft3, domain(ft3, "fat tree arity must be even")),
            (pods3, domain(pods3, "fat tree arity must be even")),
            (pods0, domain(pods0, pods)),
            (pods5, domain(pods5, pods)),
            (xbar0, domain(xbar0, "crossbar needs a host")),
            (t2, domain(t2, "torus dims must be >= 2")),
            (t3, domain(t3, "torus dims must be >= 2")),
            (df, domain(df, "dragonfly dims must be >= 1")),
            (big_t2, TooManyHosts(big_t2)),
            (big_xbar, TooManyLinks(big_xbar)),
        ] {
            assert_eq!(Topology::try_new(kind).unwrap_err(), want, "{kind:?}");
        }
        assert_eq!(
            TopologyError::Domain { kind: ring1, rule: "ring needs at least two hosts" }.to_string(),
            "Ring { hosts: 1 }: ring needs at least two hosts"
        );
        assert_eq!(Topology::try_new(TopologyKind::Ring { hosts: 2 }).unwrap().hosts(), 2);
    }

    #[test]
    fn largest_representable_dimensions_still_build() {
        // 2^15 x 2^14 = 2^29 hosts and 2^31 link ids fit; the closed
        // forms never touch a table, so the far corner is as cheap as a
        // neighbour.
        let t = Topology::new(TopologyKind::Torus2D { w: 32_768, h: 16_384 });
        assert_eq!(t.hosts(), 1 << 29);
        assert_eq!(t.link_count(), 1 << 31);
        assert_eq!(t.hops(0, t.hosts() - 1), 2);
        assert_eq!(t.hops(0, 16_384 + 8_192 * 32_768), t.diameter());
        // The last crossbar the link ids can name: its last link is the
        // switch's port to the last host.
        let hosts = u32::MAX / 2;
        let t = Topology::new(TopologyKind::Crossbar { hosts });
        assert_eq!(
            t.link_endpoints(LinkId(2 * hosts - 1)),
            (Vertex::Switch(0), Vertex::Host(hosts - 1))
        );
    }

    #[test]
    fn routes_are_deterministic() {
        let t = Topology::new(TopologyKind::FatTree { k: 4 });
        assert_eq!(t.route(3, 12), t.route(3, 12));
    }

    /// A 1M-host Dragonfly is O(1) to build and O(route length) to
    /// route — the hyperscale contract. (The counting-allocator version
    /// of this assertion lives in the root `interconnect_memory` suite.)
    #[test]
    fn million_host_dragonfly_routes_without_materialization() {
        let t = Topology::new(TopologyKind::Dragonfly {
            groups: 2048,
            routers_per_group: 32,
            hosts_per_router: 16,
        });
        assert_eq!(t.hosts(), 1 << 20);
        assert!(!t.has_reference());
        let mut total = 0u64;
        for (s, d) in [(0, 1), (0, 1_000_000), (123_456, 987_654), (7, 524_288)] {
            let h = t.hops(s, d);
            assert!(h <= t.diameter());
            total += h as u64;
        }
        assert!(total > 0);
        // Endpoint inversion works at scale too.
        let last = LinkId(t.link_count() as u32 - 1);
        let (from, to) = t.link_endpoints(last);
        assert_eq!(t.link_id(from, to), last);
    }
}
