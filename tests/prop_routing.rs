//! Property-based tests of minimum-energy routing: the distributed
//! distance-vector exchange always lands on Dijkstra's fixed point, route
//! costs obey metric sanity, and tables are internally consistent.

use parn::phys::placement::Placement;
use parn::phys::propagation::FreeSpace;
use parn::phys::{Gain, GainMatrix};
use parn::route::{dijkstra, DvCluster, EnergyGraph, RouteTable};
use parn::sim::Rng;
use parn::testkit::cases;

fn random_graph(seed: u64, n: usize, p_edge: f64) -> EnergyGraph {
    let mut rng = Rng::new(seed);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.chance(p_edge) {
                let c = rng.range_f64(0.1, 100.0);
                edges.push((a, b, c));
                edges.push((b, a, c));
            }
        }
    }
    EnergyGraph::from_edges(n, &edges)
}

fn geometric_graph(seed: u64, n: usize) -> (EnergyGraph, GainMatrix) {
    let mut rng = Rng::new(seed);
    let pts = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    }
    .generate(&mut rng);
    let gm = GainMatrix::build(&pts, &FreeSpace::unit());
    let g = EnergyGraph::from_gains(&gm, Gain(1.0 / (200.0f64 * 200.0)));
    (g, gm)
}

#[test]
fn bellman_ford_matches_dijkstra() {
    cases(32, "bf_vs_dijkstra", |_, rng| {
        let seed = rng.below(10_000);
        let n = 3 + rng.below(22) as usize;
        let g = random_graph(seed, n, 0.3);
        let mut dv = DvCluster::new(&g);
        dv.converge_async(&mut Rng::new(seed ^ 0xABCD), 50 * n)
            .expect("exchange did not quiesce");
        for src in 0..n {
            let sp = dijkstra(&g, src);
            for dst in 0..n {
                let (a, b) = (sp.dist[dst], dv.state(src).cost(dst));
                if a.is_finite() {
                    assert!((a - b).abs() < 1e-9, "{src}->{dst}: {a} vs {b}");
                } else {
                    assert!(b.is_infinite());
                }
            }
        }
    });
}

#[test]
fn route_costs_obey_triangle_inequality() {
    cases(32, "triangle", |_, rng| {
        let (g, _) = geometric_graph(rng.below(10_000), 30);
        let t = RouteTable::centralized(&g);
        for a in 0..30 {
            for b in 0..30 {
                for c in [0usize, 7, 14, 21, 29] {
                    let (ab, ac, cb) = (t.cost(a, b), t.cost(a, c), t.cost(c, b));
                    if ac.is_finite() && cb.is_finite() {
                        assert!(ab <= ac + cb + 1e-9, "triangle violated {a}->{b} via {c}");
                    }
                }
            }
        }
    });
}

#[test]
fn table_is_internally_consistent() {
    cases(32, "consistent", |_, rng| {
        let seed = rng.below(10_000);
        let (g, _) = geometric_graph(seed, 25);
        let t = RouteTable::centralized(&g);
        assert!(t.check_consistency(&g).is_ok());
        let mut rng2 = Rng::new(seed);
        let d = RouteTable::distributed(&g, &mut rng2);
        assert!(d.check_consistency(&g).is_ok());
    });
}

#[test]
fn next_hops_are_usable_edges() {
    cases(32, "usable_hops", |_, rng| {
        let (g, gm) = geometric_graph(rng.below(10_000), 25);
        let t = RouteTable::centralized(&g);
        for s in 0..25 {
            for d in 0..25 {
                if let Some(h) = t.next_hop(s, d) {
                    assert!(g.edge_cost(s, h).is_some(), "{s}->{h} not a usable hop");
                    assert!(gm.gain(h, s).value() > 0.0);
                }
            }
        }
    });
}

#[test]
fn route_cost_monotone_along_path() {
    // Walking a route toward the destination strictly decreases the
    // remaining cost (the loop-freedom argument for hop-by-hop
    // forwarding).
    cases(32, "monotone_path", |_, rng| {
        let (g, _) = geometric_graph(rng.below(10_000), 25);
        let t = RouteTable::centralized(&g);
        for s in 0..25 {
            for d in 0..25 {
                if let Some(p) = t.path(s, d) {
                    for w in p.windows(2) {
                        assert!(
                            t.cost(w[1], d) < t.cost(w[0], d) + 1e-12
                                || (w[1] == d && t.cost(w[1], d) == 0.0)
                        );
                    }
                }
            }
        }
    });
}

#[test]
fn activation_order_is_irrelevant() {
    cases(32, "order_free", |_, rng| {
        let g = random_graph(rng.below(5_000), 15, 0.35);
        let mut a = DvCluster::new(&g);
        let mut b = DvCluster::new(&g);
        a.converge_async(&mut Rng::new(1), 500).expect("quiesce");
        b.converge_async(&mut Rng::new(2), 500).expect("quiesce");
        for s in 0..15 {
            for d in 0..15 {
                let (x, y) = (a.state(s).cost(d), b.state(s).cost(d));
                assert_eq!(x.to_bits(), y.to_bits(), "{s}->{d}: {x} vs {y}");
            }
        }
    });
}
