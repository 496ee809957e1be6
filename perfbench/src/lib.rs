//! The parn benchmark: three workloads, each a fixed-seed simulator
//! configuration. Untraced runs call the simulator's own
//! `Network::run_built`. Traced runs drive it from outside through its
//! public `Network::new` → `Network::prime` → `EventQueue::pop` →
//! `Model::handle` → `Network::finish` path — the loop `run_built` runs —
//! and per-layer time comes from spans this crate puts around each call
//! into that path ([`run_traced`]); nothing inside the simulator is
//! changed or timed by the benchmark.
//!
//! See `README.md` beside this crate for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

use parn_core::{
    ChurnPlan, DestPolicy, Event, FarFieldConfig, FaultPlan, HealConfig, Metrics, MobilityConfig,
    MobilityModel, NetConfig, Network, PhyBackend, RouteMode,
};
use parn_phys::placement::Placement;
use parn_phys::PowerW;
use parn_sim::{Duration, EventQueue, Model, Time};
use std::collections::BTreeMap;
use std::time::Instant;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// E6 metro regime: 10⁵ static stations, grid + far field, one hop.
    MetroStatic,
    /// E9 n=10⁴ arm: random-waypoint motion plus join/leave churn.
    MobileChurn,
    /// E4 `churn-distributed` arm on a jittered grid: 100 stations,
    /// distance-vector routing healing around crashed relays and a jammer.
    DvRepair,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists all but mobile-churn, which
    /// meets a simulator panic (see `README.md`).
    pub const ALL: [Workload; 3] = [
        Workload::MetroStatic,
        Workload::MobileChurn,
        Workload::DvRepair,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MetroStatic => "metro-static",
            Workload::MobileChurn => "mobile-churn",
            Workload::DvRepair => "dv-repair",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Station count and simulated span of one network at benchmark
    /// size.
    pub fn full_size(self) -> (usize, Duration) {
        match self {
            Workload::MetroStatic => (100_000, Duration::from_secs(2)),
            Workload::MobileChurn => (10_000, Duration::from_secs(2)),
            Workload::DvRepair => (100, Duration::from_secs(12)),
        }
    }

    /// Independent networks one run simulates, so that its medians are
    /// taken over several. A 10⁵-station network averages over its own
    /// randomness and fits several times into a run. A mobile-churn
    /// network's run time moves by about an eighth from seed to seed,
    /// with the number of churn-triggered reroutes that land before the
    /// horizon. Seven dv-repair networks of about 6 s each fill one run.
    pub fn instances(self) -> usize {
        match self {
            Workload::MetroStatic => 1,
            Workload::MobileChurn | Workload::DvRepair => 7,
        }
    }

    /// The benchmark-size networks of the run with seed `seed`: network
    /// `i` of [`instances`](Workload::instances) `k` has seed `k·seed + i`,
    /// so runs with different seeds share no network.
    pub fn configs(self, seed: u64) -> Vec<NetConfig> {
        let (n, run_for) = self.full_size();
        let k = self.instances() as u64;
        (0..k)
            .map(|i| self.config_at(seed.wrapping_mul(k).wrapping_add(i), n, run_for))
            .collect()
    }

    /// The workload's configuration at `n` stations over `run_for`
    /// (tests run it smaller). Every input — placement, traffic, motion,
    /// churn and fault plans — is drawn from `seed`, and the sweep runs
    /// on one thread (see `README.md` for why).
    pub fn config_at(self, seed: u64, n: usize, run_for: Duration) -> NetConfig {
        let mut cfg = NetConfig::paper_default(n, seed);
        cfg.threads = 1;
        cfg.run_for = run_for;
        match self {
            Workload::MetroStatic | Workload::MobileChurn => {
                cfg.phy_backend = PhyBackend::Grid {
                    far_field: Some(FarFieldConfig::default_for_paper()),
                };
                cfg.route_mode = RouteMode::OneHop;
                cfg.traffic.dest = DestPolicy::Neighbors;
                cfg.traffic.arrivals_per_station_per_sec = 0.5;
                cfg.warmup = Duration::from_millis(500);
            }
            Workload::DvRepair => {
                // A jittered square grid at the paper's 0.01 stations/m²
                // (`n` should be a square). On E4's uniform disk, one
                // 100-station topology's run time moves by a fifth from
                // seed to seed; on the grid the seed still draws jitter,
                // traffic, clocks and the relays that fail, but run time
                // moves by under a twentieth.
                let side = (n as f64).sqrt().round() as usize;
                cfg.placement = Placement::Grid {
                    nx: side,
                    ny: side,
                    spacing: 10.0,
                    jitter: 2.5,
                };
                cfg.route_mode = RouteMode::Distributed;
                cfg.heal = HealConfig::local();
                cfg.warmup = Duration::from_secs(2);
                cfg.faults = relay_churn(&cfg);
            }
        }
        if self == Workload::MobileChurn {
            cfg.mobility = Some(MobilityConfig {
                model: MobilityModel::RandomWaypoint { speed: 1.5 },
                epoch: Duration::from_millis(200),
            });
            let radius = cfg.placement.region().radius;
            cfg.churn = ChurnPlan::generate(seed, n, 30, run_for, radius);
        }
        cfg
    }
}

/// E4's churn plan, scaled to `cfg.run_for` (at 24 s it is E4's plan
/// exactly): the four busiest relays crash at 6/10/14/18 s and recover
/// 4 s later, and a 1.5 s jammer sits on the busiest relay at 12 s.
/// Relays are ranked by routing dependents on a probe build of `cfg`.
fn relay_churn(cfg: &NetConfig) -> FaultPlan {
    let probe = Network::new(cfg.clone());
    let mut ranked: Vec<(usize, usize)> = probe
        .routing_dependent_counts()
        .into_iter()
        .enumerate()
        .map(|(s, d)| (d, s))
        .collect();
    ranked.sort_by(|a, b| b.cmp(a));
    let at = |secs: f64| Duration::from_secs_f64(secs * cfg.run_for.as_secs_f64() / 24.0);
    let mut plan = FaultPlan::none();
    for (k, &(_, s)) in ranked.iter().take(4).enumerate() {
        plan = plan.crash_recover(at(6.0 + 4.0 * k as f64), s, at(4.0));
    }
    plan.jam(at(12.0), ranked[0].1, at(1.5), PowerW(0.01))
}

/// The simulated horizon `Network::run_built` stops at.
pub fn horizon(cfg: &NetConfig) -> Time {
    Time::ZERO + cfg.run_for
}

/// Names of the [`Event`] variants, indexed by [`variant`].
pub const VARIANTS: [&str; 20] = [
    "next_arrival",
    "mac_retry",
    "tx_start",
    "tx_end",
    "resync",
    "hello_round",
    "fault",
    "station_recover",
    "jammer_off",
    "partition_heal",
    "byz_step",
    "byz_off",
    "rjam_off",
    "retry_release",
    "reroute",
    "route_update_round",
    "convergence_check",
    "motion_epoch",
    "churn_step",
    "churn_return",
];

/// Index of `ev`'s variant in [`VARIANTS`].
pub fn variant(ev: &Event) -> usize {
    match ev {
        Event::NextArrival { .. } => 0,
        Event::MacRetry { .. } => 1,
        Event::TxStart { .. } => 2,
        Event::TxEnd { .. } => 3,
        Event::Resync => 4,
        Event::HelloRound { .. } => 5,
        Event::Fault { .. } => 6,
        Event::StationRecover { .. } => 7,
        Event::JammerOff { .. } => 8,
        Event::PartitionHeal { .. } => 9,
        Event::ByzStep { .. } => 10,
        Event::ByzOff { .. } => 11,
        Event::RJamOff { .. } => 12,
        Event::RetryRelease { .. } => 13,
        Event::Reroute => 14,
        Event::RouteUpdateRound { .. } => 15,
        Event::ConvergenceCheck => 16,
        Event::MotionEpoch => 17,
        Event::ChurnStep { .. } => 18,
        Event::ChurnReturn { .. } => 19,
    }
}

/// Log-linear histogram of span durations in nanoseconds: exact below
/// 32 ns, then 32 buckets per power of two (≤ 3.2 % relative error).
/// Fixed size, so tracing does not grow the run's memory with its length.
#[derive(Clone)]
pub struct SpanHist {
    buckets: Vec<u64>,
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

impl Default for SpanHist {
    fn default() -> SpanHist {
        SpanHist {
            buckets: vec![0; 32 + 59 * 32],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }
}

impl SpanHist {
    fn bucket(ns: u64) -> usize {
        if ns < 32 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        let mantissa = ((ns >> (exp - 5)) & 31) as usize;
        32 + (exp - 5) * 32 + mantissa
    }

    /// Lower edge of bucket `b`, in nanoseconds.
    fn floor_ns(b: usize) -> u64 {
        if b < 32 {
            return b as u64;
        }
        let exp = (b - 32) / 32 + 5;
        ((32 + (b - 32) % 32) as u64) << (exp - 5)
    }

    /// Record one span.
    pub fn add(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Add every span `other` recorded.
    pub fn absorb(&mut self, other: &SpanHist) {
        for (b, c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += c;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Number of spans recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all spans, in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// The `q`-quantile (0 < q < 1) in nanoseconds, as its bucket's lower
    /// edge; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return Self::floor_ns(b);
            }
        }
        0
    }

    /// The tail percentile to report: the highest of p90, p99, p99.9, …
    /// with at least ten samples beyond it, as (percent, nanoseconds);
    /// the maximum (percent 100) when even p90 has fewer than ten beyond.
    pub fn tail(&self) -> (f64, u64) {
        let mut best = (100.0, self.max_ns);
        // `inv` = 10, 100, …: count / inv samples lie beyond the
        // percentile 100 − 100 / inv.
        let mut inv = 10u64;
        while self.count >= 10 * inv {
            let beyond = 1.0 / inv as f64;
            best = (100.0 * (1.0 - beyond), self.quantile_ns(1.0 - beyond));
            inv *= 10;
        }
        best
    }
}

/// Spans recorded by [`run_traced`].
#[derive(Clone)]
pub struct Trace {
    /// `Model::handle` spans per event variant, indexed like [`VARIANTS`].
    pub handle: Vec<SpanHist>,
    /// Seconds in `EventQueue::peek_time` + `pop` (and the loop around them).
    pub pop_s: f64,
    /// Seconds in `Network::prime`.
    pub prime_s: f64,
    /// Seconds in `Network::finish`.
    pub finish_s: f64,
    /// Largest queue length seen after any event.
    pub peak_len: usize,
    /// Events dispatched.
    pub events: u64,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            handle: vec![SpanHist::default(); VARIANTS.len()],
            pop_s: 0.0,
            prime_s: 0.0,
            finish_s: 0.0,
            peak_len: 0,
            events: 0,
        }
    }
}

impl Trace {
    /// Add `other`'s spans (a pass sums its networks' traces).
    pub fn absorb(&mut self, other: &Trace) {
        for (h, o) in self.handle.iter_mut().zip(&other.handle) {
            h.absorb(o);
        }
        self.pop_s += other.pop_s;
        self.prime_s += other.prime_s;
        self.finish_s += other.finish_s;
        self.peak_len = self.peak_len.max(other.peak_len);
        self.events += other.events;
    }

    /// Seconds covered by all spans.
    pub fn covered_s(&self) -> f64 {
        self.handle.iter().map(SpanHist::total_s).sum::<f64>()
            + self.pop_s
            + self.prime_s
            + self.finish_s
    }
}

/// `Network::run_built`'s loop — prime, dispatch every event up to `end`,
/// finish — driven from outside with a span around every call into the
/// simulator. The spans tile the loop back to back (each starts where the
/// previous one ended), so their sum covers the run's wall time bar the
/// loop's own few instructions.
pub fn run_traced(mut net: Network, end: Time) -> (Metrics, Trace) {
    let mut trace = Trace::default();
    let mut queue = EventQueue::new();
    let t0 = Instant::now();
    net.prime(&mut queue);
    let mut mark = Instant::now();
    trace.prime_s = (mark - t0).as_secs_f64();
    let mut pop_ns = 0u64;
    loop {
        let next = match queue.peek_time() {
            Some(t) if t <= end => queue.pop(),
            _ => None,
        };
        let popped = Instant::now();
        pop_ns += (popped - mark).as_nanos() as u64;
        let Some((now, ev)) = next else {
            mark = popped;
            break;
        };
        let v = variant(&ev);
        net.handle(now, ev, &mut queue);
        mark = Instant::now();
        trace.handle[v].add((mark - popped).as_nanos() as u64);
        trace.peak_len = trace.peak_len.max(queue.len());
        trace.events += 1;
    }
    trace.pop_s = pop_ns as f64 * 1e-9;
    let m = net.finish();
    trace.finish_s = mark.elapsed().as_secs_f64();
    (m, trace)
}

/// A field of `/proc/self/status` in kB (`VmHWM`, `VmRSS`, …); 0 where
/// the file or field is missing.
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The `parn_sim::obs` counters and timers of one run (the registry is
/// zeroed before each), or their sums over several runs.
#[derive(Clone, Default)]
pub struct Obs {
    counters: BTreeMap<&'static str, u64>,
    timers: BTreeMap<&'static str, (u64, u64)>,
}

impl Obs {
    /// Read the registry.
    pub fn snapshot() -> Obs {
        Obs {
            counters: parn_sim::obs::counters_snapshot().into_iter().collect(),
            timers: parn_sim::obs::timers_snapshot()
                .into_iter()
                .map(|(name, ns, calls)| (name, (ns, calls)))
                .collect(),
        }
    }

    /// Add `other`'s counts and times.
    pub fn absorb(&mut self, other: &Obs) {
        for (&name, &v) in &other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (&name, &(ns, calls)) in &other.timers {
            let t = self.timers.entry(name).or_default();
            t.0 += ns;
            t.1 += calls;
        }
    }

    /// A counter's value (0 if never hit).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A timer's total as (seconds, scopes).
    pub fn timer(&self, name: &str) -> (f64, u64) {
        self.timers
            .get(name)
            .map_or((0.0, 0), |&(ns, calls)| (ns as f64 * 1e-9, calls))
    }
}

/// The invariants every run must keep; returns the ones it broke.
pub fn check(w: Workload, m: &Metrics, obs: &Obs) -> Vec<String> {
    let mut broken = Vec::new();
    if m.collision_losses() != 0 {
        broken.push(format!("{} collision losses", m.collision_losses()));
    }
    if !m.conservation_holds() {
        broken.push("generated != delivered + dropped + in flight".into());
    }
    if m.hop_attempts.checked_sub(m.hop_successes) != Some(m.total_losses()) {
        broken.push(format!(
            "hop ledger: {} attempts - {} successes != {} losses",
            m.hop_attempts,
            m.hop_successes,
            m.total_losses()
        ));
    }
    if m.delivered == 0 {
        broken.push("nothing delivered".into());
    }
    if w == Workload::MobileChurn {
        let full = obs.counter("phys.sinr.full_invalidations");
        if full != 0 {
            broken.push(format!("{full} full gain-cache invalidations under motion"));
        }
        if obs.counter("phys.sinr.scoped_invalidations") == 0 {
            broken.push("no scoped invalidations: the incremental move path did not run".into());
        }
    }
    broken
}
