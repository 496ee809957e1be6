//! Micro-benchmarks for minimum-energy routing: single-source Dijkstra,
//! all-pairs table construction, and the distributed Bellman–Ford
//! distance-vector exchange that real stations would run.

use parn_bench::harness;
use parn_phys::placement::Placement;
use parn_phys::propagation::FreeSpace;
use parn_phys::{Gain, GainMatrix};
use parn_route::{dijkstra, DvCluster, EnergyGraph, RouteTable};
use parn_sim::Rng;

fn graph(n: usize) -> EnergyGraph {
    let pts = Placement::UniformDisk {
        n,
        radius: (n as f64 / (std::f64::consts::PI * 0.01)).sqrt(),
    }
    .generate(&mut Rng::new(3));
    let gm = GainMatrix::build(&pts, &FreeSpace::unit());
    // Usable hops out to 2/sqrt(rho) = 200 m at this density.
    EnergyGraph::from_gains(&gm, Gain(1.0 / (200.0f64 * 200.0)))
}

fn main() {
    let mut h = harness("route");

    let mut group = h.group("dijkstra_single_source");
    for &n in &[100usize, 300, 1000] {
        let g = graph(n);
        group.bench(n, || dijkstra(&g, 0));
    }

    let mut group = h.group("route_table_centralized");
    for &n in &[100usize, 300] {
        let g = graph(n);
        group.bench(n, || RouteTable::centralized(&g));
    }

    let mut group = h.group("dv_converge_async");
    for &n in &[50usize, 100] {
        let g = graph(n);
        group.bench(n, || {
            let mut dv = DvCluster::new(&g);
            dv.converge_async(&mut Rng::new(9), 10 * n)
        });
    }
}
