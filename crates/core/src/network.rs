//! The full network simulator: Shepard's channel access scheme end to end.
//!
//! Wires together placement → gain matrix → minimum-energy routes →
//! per-station pseudo-random schedules → the MAC (§7: transmit to a
//! neighbour only where my transmit window overlaps its predicted receive
//! window, quarter-slot aligned, respecting close neighbours' receive
//! windows per §7.3) → the physical SINR reception test (§3.4), with
//! Poisson traffic forwarded hop-by-hop.
//!
//! The headline property this reproduces: **no packet is ever lost to a
//! collision** — every loss cause is accounted, and under the scheme the
//! collision counters stay at zero.

use crate::collision::classify;
use crate::config::{DestPolicy, NetConfig, RouteMode, SourceModel, SyncMode};
use crate::faults::{ByzMode, FaultKind, FaultPlan, HealMode};
use crate::metrics::{Metrics, WarmupGate};
use crate::mobility::{uniform_in_disk, ChurnKind, MobilityModel};
use crate::packet::{ControlPayload, LossCause, Packet, PacketKind};
use crate::power::PowerPolicy;
use crate::station::{NeighborHealth, PlannedTx, Station};
use crate::world::World;
use parn_phys::partition::{GeoCut, PartitionOverlay};
use parn_phys::sinr::{RxId, SinrTracker, TxId};
use parn_phys::{GainModel, GravitySampler, Point, PowerW, StationId};
use parn_route::{DvCluster, DvState, EnergyGraph, RouteTable};
use parn_sched::{
    intersect_lists, subtract_lists, ClockSample, PredictedSchedule, QuarterSlot, RemoteClockModel,
    SlotKind, StationClock, StationSchedule, Window,
};
use parn_sim::{Duration, EventQueue, Model, Rng, Time};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulator events.
#[derive(Debug)]
pub enum Event {
    /// Poisson traffic arrival at a station.
    NextArrival {
        /// The source station.
        station: StationId,
    },
    /// Re-attempt MAC scheduling (nothing fit within the search horizon).
    MacRetry {
        /// The station to retry.
        station: StationId,
    },
    /// A planned transmission goes on air.
    TxStart {
        /// The transmitting station.
        station: StationId,
    },
    /// A transmission (and its reception attempt) completes.
    TxEnd {
        /// The transmitting station.
        station: StationId,
        /// PHY transmission handle.
        tx: TxId,
        /// PHY reception handle, if the receiver had a despreader free.
        rx: Option<RxId>,
        /// The packet carried.
        packet: Packet,
        /// The addressed neighbour.
        next_hop: StationId,
        /// Sender's boot epoch at transmission start (a reboot in flight
        /// invalidates the sender's claim to the packet).
        tx_epoch: u64,
        /// Receiver's boot epoch at transmission start (a reboot in
        /// flight invalidates the reception).
        rx_epoch: u64,
    },
    /// Periodic network-wide clock-sample exchange between neighbours.
    Resync,
    /// A station emits hello beacons to its routing neighbours
    /// (piggyback synchronization mode).
    HelloRound {
        /// The beaconing station.
        station: StationId,
    },
    /// Injection point of one scheduled fault from the run's
    /// [`FaultPlan`] (crash, crash-recover onset, clock jump, or jammer
    /// switch-on).
    Fault {
        /// Index into [`NetConfig::faults`]`.events`.
        index: usize,
    },
    /// A crashed station reboots and rejoins with fresh volatile state.
    StationRecover {
        /// The rebooting station.
        station: StationId,
    },
    /// A jammer window ends.
    JammerOff {
        /// Index into [`NetConfig::faults`]`.events` of the jam fault.
        index: usize,
    },
    /// A geographic partition transient ends: the shadowing cut lifts and
    /// gains across it are restored.
    PartitionHeal {
        /// Index into [`NetConfig::faults`]`.events` of the partition
        /// fault.
        index: usize,
    },
    /// One step of a Byzantine schedule violator's rogue cadence: `on`
    /// starts an out-of-window burst, `!on` ends it and schedules the
    /// next one.
    ByzStep {
        /// Index into [`NetConfig::faults`]`.events` of the Byzantine
        /// fault.
        index: usize,
        /// Whether this step starts (true) or ends (false) a burst.
        on: bool,
    },
    /// A Byzantine misbehavior window ends (the station reverts to
    /// honest protocol behaviour).
    ByzOff {
        /// Index into [`NetConfig::faults`]`.events` of the Byzantine
        /// fault.
        index: usize,
    },
    /// A reactive-jam burst ends (the adversary's transmitter goes
    /// quiet until it senses the next reception).
    RJamOff {
        /// Burst sequence number (keys the active-burst map).
        seq: u64,
    },
    /// A backed-off retransmission becomes eligible again
    /// ([`HealMode::Local`]).
    RetryRelease {
        /// The station holding the packet.
        station: StationId,
        /// The packet awaiting retransmission.
        packet: Packet,
        /// The holder's boot epoch when the backoff began.
        epoch: u64,
    },
    /// Oracle-mode routing repair after a failure or recovery
    /// ([`HealMode::Oracle`] with table-based routing). Never scheduled
    /// in [`RouteMode::Distributed`], where reconvergence emerges from
    /// the per-station distance-vector exchange instead.
    Reroute,
    /// A station advertises its distance vector to its direct link
    /// neighbours ([`RouteMode::Distributed`]): periodic rounds keep the
    /// exchange alive, triggered rounds propagate table changes.
    RouteUpdateRound {
        /// The advertising station.
        station: StationId,
        /// Whether this is a periodic round (reschedules itself) or a
        /// triggered one-shot.
        periodic: bool,
    },
    /// Quiescence probe for the distributed exchange: if no station's
    /// table changed for a full quiet window, the open convergence
    /// episode closes.
    ConvergenceCheck,
    /// A motion epoch: every alive station advances along the configured
    /// mobility model and is relocated in the PHY (dynamic topology).
    MotionEpoch,
    /// Injection point of one scheduled churn event from the run's
    /// [`crate::mobility::ChurnPlan`] — a clean departure or a
    /// re-admission at a new position.
    ChurnStep {
        /// Index into [`NetConfig::churn`]`.events`.
        index: usize,
    },
    /// A timed-outage departure ends: the station powers back up at the
    /// position it left from.
    ChurnReturn {
        /// The returning station.
        station: StationId,
    },
}

/// The flap-damping penalty `h` has decayed to at `now`: each eviction
/// adds one point, and the score halves every `half_life`. A zero or
/// negative half-life disables decay bookkeeping entirely (score 0).
fn decayed_penalty(h: &NeighborHealth, now: Time, half_life: Duration) -> f64 {
    let Some(t0) = h.flap_updated else {
        return 0.0;
    };
    let hl = half_life.as_secs_f64();
    if hl <= 0.0 {
        return 0.0;
    }
    h.flap_penalty * 0.5f64.powf(now.since(t0).as_secs_f64() / hl)
}

/// Runtime state of one armed budget-limited reactive jammer: it senses
/// transmissions going on the air and burns jam air-time against them,
/// bounded by a total budget and a duty-cycle cap.
#[derive(Clone, Copy, Debug)]
struct RJamState {
    /// The adversary's anchor station (its sensor and transmitter sit at
    /// this station's position).
    station: StationId,
    /// When the adversary armed (the duty cap's reference point).
    since: Time,
    /// Remaining jam air-time budget.
    budget_left: Duration,
    /// Duty-cycle cap: cumulative jam time never exceeds `duty` × time
    /// since arming.
    duty: f64,
    /// Cumulative jam air-time spent.
    spent: Duration,
}

/// The assembled simulation.
pub struct Network {
    cfg: NetConfig,
    gains: Arc<dyn GainModel>,
    tracker: SinrTracker,
    routes: RouteTable,
    stations: Vec<Station>,
    clocks: Vec<StationClock>,
    power: PowerPolicy,
    threshold: f64,
    airtime: Duration,
    warm: WarmupGate,
    rng_traffic: Rng,
    next_packet_id: u64,
    /// Per-source reachable destinations (for traffic sampling).
    reachable: Vec<Vec<StationId>>,
    /// Per-source fixed-flow destinations (for `DestPolicy::Flows`).
    flow_dsts: Vec<Vec<StationId>>,
    /// Station positions (greedy route rebuilds, gravity sampling).
    /// Time-varying under mobility: every relocation writes through here
    /// *and* the gain backend, so all consumers see one epoch of truth.
    positions: Vec<Point>,
    /// Random-waypoint targets (each station starts "at" its own
    /// position, so the first motion epoch draws a fresh target).
    mob_target: Vec<Point>,
    /// Deployment-region radius (mobility target draws, walk clamping).
    region_radius: f64,
    /// Spatial destination sampler (`DestPolicy::Gravity` only).
    gravity: Option<GravitySampler>,
    /// Cumulative Zipf weights over the sink stations
    /// (`DestPolicy::Hotspot` only; sink `k` is station id `k`).
    hotspot_cum: Vec<f64>,
    /// Per-station on-off burst phase (`SourceModel::OnOff` only): true
    /// while the station is inside a talk spurt.
    burst_on: Vec<bool>,
    /// When the current on/off phase ends (lazily initialized at the
    /// first interarrival draw).
    burst_until: Vec<Time>,
    end: Time,
    /// Interference budget for §7.3 significance: delivered/θ.
    interference_budget: PowerW,
    /// Liveness per station (failure injection).
    alive: Vec<bool>,
    /// Gain threshold for usable hops, kept for route repairs.
    usable_gain: parn_phys::Gain,
    /// Results.
    pub metrics: Metrics,
    /// Fault-machinery RNG (reboot clocks, retry-backoff jitter).
    rng_faults: Rng,
    /// Mobility RNG (the dedicated "mobility" substream): drawn from only
    /// by motion epochs, so immobile runs consume nothing from it and
    /// every other stream stays bit-identical to pre-mobility builds.
    rng_mobility: Rng,
    /// Active jammer PHY handles, keyed by fault-plan event index.
    jammer_tx: BTreeMap<usize, TxId>,
    /// Shadowing-cut overlay over the gain model — present only when the
    /// construction-time fault plan contains a partition fault, and
    /// transparent until a cut activates, so plans without partitions run
    /// on the bare model bit-for-bit.
    partition: Option<Arc<PartitionOverlay>>,
    /// Open Byzantine misbehavior windows: fault-plan event index → mode.
    byz_active: BTreeMap<usize, ByzMode>,
    /// Rogue out-of-window emissions currently on the air, keyed by the
    /// Byzantine fault's event index.
    byz_tx: BTreeMap<usize, TxId>,
    /// Armed reactive-jam adversaries, keyed by fault-plan event index.
    rjam: BTreeMap<usize, RJamState>,
    /// Reactive-jam bursts currently on the air: burst sequence →
    /// (fault index, PHY handle).
    rjam_active: BTreeMap<u64, (usize, TxId)>,
    /// Next reactive-jam burst sequence number.
    rjam_seq: u64,
    /// How many live stations currently hold each station evicted
    /// (`HealMode::Local`). A station with a nonzero count receives no
    /// routed traffic.
    evicted_by: Vec<u32>,
    /// Per-station reboot counter; in-flight PHY activity is judged
    /// against the epoch captured at transmission start.
    boot_epoch: Vec<u64>,
    /// When each currently-down station went dark (time-to-detect).
    down_since: Vec<Option<Time>>,
    /// When each rebooted station rejoined (time-to-heal).
    recover_mark: Vec<Option<Time>>,
    /// Whether a `NextArrival` chain is live per station (recovery
    /// restarts a chain only if the old one has died out).
    arrivals_live: Vec<bool>,
    tracer: parn_sim::trace::Tracer,
    queue_depth: parn_sim::stats::TimeWeighted,
    on_air: parn_sim::stats::TimeWeighted,
    /// Per-station distance-vector protocol state
    /// ([`RouteMode::Distributed`]; empty otherwise). `dv[s]` is private
    /// to station `s`: the only way information enters it is a received
    /// advertisement.
    dv: Vec<DvState>,
    /// The physical link set each station booted with: `(neighbour,
    /// hop energy)` per usable link. Reboots and readmissions restore
    /// links from here (the rejoin handshake re-measures them).
    dv_links: Vec<Vec<(StationId, f64)>>,
    /// First table change of the currently open convergence episode.
    dv_episode_start: Option<Time>,
    /// Most recent table change of the open episode.
    dv_last_change: Option<Time>,
    /// Whether a `ConvergenceCheck` is already scheduled.
    dv_check_pending: bool,
    /// Closed convergence episodes so far (trace numbering).
    dv_episodes: u64,
}

impl Network {
    /// Build a network from a configuration. Deterministic in `cfg.seed`.
    pub fn new(cfg: NetConfig) -> Network {
        parn_sim::time_scope!("core.build");
        let root = Rng::new(cfg.seed);
        let mut rng_clock = root.substream("clocks");
        let rng_traffic = root.substream("traffic");
        let rng_faults = root.substream("faults");
        let rng_mobility = root.substream("mobility");

        let mut world = World::new(&cfg);
        let n = world.positions.len();
        // A fault plan containing a partition wraps the gain model in a
        // shadowing-cut overlay (transparent until a cut activates); plans
        // without one keep the bare model, so every pre-existing run is
        // byte-identical.
        let partition = cfg
            .faults
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Partition { .. }))
            .then(|| Arc::new(PartitionOverlay::new(Arc::clone(&world.gains))));
        if let Some(p) = &partition {
            world.gains = Arc::clone(p) as Arc<dyn GainModel>;
        }
        let graph = EnergyGraph::from_model(&*world.gains, world.usable_gain);
        let (routes, dv) = match cfg.route_mode {
            RouteMode::Centralized => (RouteTable::centralized(&graph), Vec::new()),
            RouteMode::OneHop => (RouteTable::one_hop(&graph), Vec::new()),
            RouteMode::Greedy => (RouteTable::greedy(&graph, &world.positions), Vec::new()),
            RouteMode::Distributed => {
                // Real per-station protocol state. The initial tables come
                // from a cold-start exchange (every station trades vectors
                // with its link neighbours until quiescent) — the same
                // fixpoint the runtime asynchronous exchange maintains.
                let mut cluster = DvCluster::new(&graph);
                cluster
                    .converge_sync(2 * n + 16)
                    .expect("cold-start distance-vector exchange did not converge");
                let table = cluster.to_table();
                (table, cluster.into_states())
            }
        };
        let dv_links: Vec<Vec<(StationId, f64)>> = if dv.is_empty() {
            Vec::new()
        } else {
            (0..n).map(|s| graph.neighbors(s).to_vec()).collect()
        };
        let alive = vec![true; n];

        let tracker = world.tracker();
        let World {
            positions,
            region,
            gains,
            reach,
            usable_gain,
            ..
        } = world;

        let threshold = cfg.sinr_threshold();
        let power = cfg.power_policy();
        let interference_budget = PowerW(cfg.delivered_power.value() / threshold);

        // Stations: random clocks, shared schedule function.
        let mut clocks = Vec::with_capacity(n);
        let mut stations = Vec::with_capacity(n);
        for id in 0..n {
            let clock = StationClock::random(&mut rng_clock, cfg.clock.max_ppm);
            clocks.push(clock);
            stations.push(Station::new(id, StationSchedule::new(cfg.sched, clock)));
        }

        // Routing neighbours, §7.3 protected sets, initial clock models.
        for id in 0..n {
            let rn = routes.routing_neighbors(id);
            // Distributed mode exchanges vectors over every usable link,
            // not just current next hops, so link neighbours need clock
            // models — and the station's worst-case power must account
            // for reaching the farthest of them, not just the farthest
            // routing neighbour.
            let link_ids: Vec<StationId> = dv_links
                .get(id)
                .map(|ls| ls.iter().map(|&(nb, _)| nb).collect())
                .unwrap_or_default();
            let mut protected = Vec::new();
            let max_power_used = rn
                .iter()
                .chain(link_ids.iter())
                .map(|&nb| power.tx_power(gains.gain(nb, id)).value())
                .fold(0.0f64, f64::max);
            if cfg.protection.enabled && max_power_used > 0.0 {
                // §7.3 in threshold form: `other` is protected when this
                // station's worst-case power would land at least the
                // significance fraction of the interference budget on it,
                // i.e. gain(other, id) ≥ frac·budget / max_power. Phrased
                // as a gain threshold it runs through the (range-bounded)
                // hearable_by query, identical on both backends.
                let thr = parn_phys::Gain(
                    cfg.protection.significance_fraction * interference_budget.value()
                        / max_power_used,
                );
                protected = gains.hearable_by(id, thr);
            }
            let mut models = BTreeMap::new();
            for &nb in rn.iter().chain(protected.iter()).chain(link_ids.iter()) {
                models.entry(nb).or_insert_with(|| {
                    RemoteClockModel::from_first_sample(ClockSample {
                        mine: clocks[id].reading(Time::ZERO),
                        theirs: clocks[nb].reading(Time::ZERO),
                    })
                });
            }
            let st = &mut stations[id];
            st.routing_neighbors = rn;
            st.protected = protected;
            st.models = models;
        }

        // Reachable destination lists for traffic — only UniformAll reads
        // them; skipping the O(M²) scan otherwise keeps metro-scale
        // neighbour-traffic runs linear.
        let reachable: Vec<Vec<StationId>> = match &cfg.traffic.dest {
            DestPolicy::UniformAll => (0..n)
                .map(|s| {
                    (0..n)
                        .filter(|&d| d != s && routes.reachable(s, d))
                        .collect()
                })
                .collect(),
            _ => vec![Vec::new(); n],
        };
        let mut flow_dsts = vec![Vec::new(); n];
        if let DestPolicy::Flows(flows) = &cfg.traffic.dest {
            for &(s, d) in flows {
                assert!(s < n && d < n, "flow endpoint out of range");
                flow_dsts[s].push(d);
            }
        }
        // Spatial traffic models. All of this state is inert (None/empty)
        // unless the matching policy is selected, so default-config runs
        // build and draw exactly as before.
        let gravity = match &cfg.traffic.dest {
            DestPolicy::Gravity { exponent } => {
                assert!(*exponent >= 0.0, "gravity exponent must be >= 0");
                // Radius draws span hop length → metro diameter: shorter
                // draws snap to a neighbour anyway, longer ones can't land
                // inside the placement disk.
                let r_max = (2.0 * region.radius).max(2.0 * reach);
                Some(GravitySampler::new(&positions, *exponent, reach, r_max))
            }
            _ => None,
        };
        let hotspot_cum: Vec<f64> = match &cfg.traffic.dest {
            DestPolicy::Hotspot { sinks, skew } => {
                assert!(*sinks >= 1, "need at least one hotspot sink");
                assert!(*skew >= 0.0, "hotspot skew must be >= 0");
                let k = (*sinks).min(n);
                let w: Vec<f64> = (0..k).map(|i| ((i + 1) as f64).powf(-skew)).collect();
                let total: f64 = w.iter().sum();
                let mut cum = 0.0;
                w.iter()
                    .map(|x| {
                        cum += x / total;
                        cum
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        let bursty = match cfg.traffic.source {
            SourceModel::Poisson => false,
            SourceModel::OnOff {
                on_mean_s,
                off_mean_s,
            } => {
                assert!(on_mean_s > 0.0, "on_mean_s must be > 0");
                assert!(off_mean_s >= 0.0, "off_mean_s must be >= 0");
                true
            }
        };
        let burst_on = vec![false; if bursty { n } else { 0 }];
        let burst_until = vec![Time::ZERO; if bursty { n } else { 0 }];

        let warm = WarmupGate {
            warm_at: Time::ZERO + cfg.warmup,
        };
        let end = Time::ZERO + cfg.run_for;
        let airtime = cfg.packet_airtime();
        let mut metrics = Metrics::new(n);
        metrics.measured_span = cfg.run_for.saturating_sub(cfg.warmup);
        let mob_target = positions.clone();
        let region_radius = region.radius;

        Network {
            cfg,
            gains,
            tracker,
            routes,
            stations,
            clocks,
            power,
            threshold,
            airtime,
            warm,
            rng_traffic,
            next_packet_id: 0,
            reachable,
            flow_dsts,
            positions,
            mob_target,
            region_radius,
            gravity,
            hotspot_cum,
            burst_on,
            burst_until,
            end,
            interference_budget,
            alive,
            usable_gain,
            metrics,
            rng_faults,
            rng_mobility,
            jammer_tx: BTreeMap::new(),
            partition,
            byz_active: BTreeMap::new(),
            byz_tx: BTreeMap::new(),
            rjam: BTreeMap::new(),
            rjam_active: BTreeMap::new(),
            rjam_seq: 0,
            evicted_by: vec![0; n],
            boot_epoch: vec![0; n],
            down_since: vec![None; n],
            recover_mark: vec![None; n],
            arrivals_live: vec![false; n],
            tracer: parn_sim::trace::Tracer::disabled(),
            queue_depth: parn_sim::stats::TimeWeighted::new(Time::ZERO, 0.0),
            on_air: parn_sim::stats::TimeWeighted::new(Time::ZERO, 0.0),
            dv,
            dv_links,
            dv_episode_start: None,
            dv_last_change: None,
            dv_check_pending: false,
            dv_episodes: 0,
        }
    }

    /// Attach a tracer: MAC plans, transmissions and reception outcomes
    /// are recorded (categories `"mac"` and `"phy"`).
    pub fn with_tracer(mut self, tracer: parn_sim::trace::Tracer) -> Network {
        self.tracer = tracer;
        self
    }

    /// Access the trace collected so far.
    pub fn tracer(&self) -> &parn_sim::trace::Tracer {
        &self.tracer
    }

    /// The routing table in use. In [`RouteMode::Distributed`] this is
    /// the cold-start snapshot; the live per-station tables are in
    /// [`Network::dv_table`].
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Snapshot the per-station distance-vector tables as one dense
    /// [`RouteTable`] (`None` outside [`RouteMode::Distributed`]) — the
    /// convergence harness compares this against the centralized
    /// optimum after quiescence.
    pub fn dv_table(&self) -> Option<RouteTable> {
        (!self.dv.is_empty()).then(|| DvCluster::from_states(self.dv.clone()).to_table())
    }

    /// The gain model in use.
    pub fn gains(&self) -> &dyn GainModel {
        &*self.gains
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// True when the network has no stations (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Seed the event queue with initial arrivals and the resync cadence.
    pub fn prime(&mut self, queue: &mut EventQueue<Event>) {
        let n = self.stations.len();
        for s in 0..n {
            if self.has_traffic(s) {
                let dt = self.next_interarrival(s, Time::ZERO);
                queue.schedule(Time::ZERO + dt, Event::NextArrival { station: s });
                self.arrivals_live[s] = true;
            }
        }
        // Schedule maintenance. Oracle: periodic out-of-band exchanges,
        // with an early first one (the post-boot rendezvous that captures
        // clock rates). None: models keep their single boot sample — used
        // by staleness experiments. Piggyback: per-station hello rounds,
        // staggered to spread the load.
        match self.cfg.clock.sync {
            SyncMode::None => {}
            SyncMode::Oracle => {
                let first = Duration::from_millis(500).min(self.cfg.clock.resync_interval);
                queue.schedule(Time::ZERO + first, Event::Resync);
            }
            SyncMode::Piggyback { hello_interval } => {
                for s in 0..n {
                    let stagger =
                        Duration((s as u64).wrapping_mul(7919) % hello_interval.ticks().max(1));
                    queue.schedule(Time::ZERO + stagger, Event::HelloRound { station: s });
                }
            }
        }
        // Distributed routing: periodic advertisement rounds per station,
        // staggered like hellos (a different prime keeps the two cadences
        // from aligning systematically).
        if self.distributed() {
            let iv = self.cfg.dv.update_interval.ticks().max(1);
            for s in 0..n {
                let stagger = Duration((s as u64).wrapping_mul(6007) % iv);
                queue.schedule(
                    Time::ZERO + stagger,
                    Event::RouteUpdateRound {
                        station: s,
                        periodic: true,
                    },
                );
            }
        }
        // Translate the fault plan into injection events plus their
        // derived consequences (reboots, jammer switch-offs, and — under
        // oracle healing with table-based routing — the delayed global
        // route repairs; distributed routing repairs itself).
        if let Err(e) = self.cfg.faults.validate(n) {
            panic!("invalid fault plan: {e}");
        }
        let oracle = self.cfg.heal.mode == HealMode::Oracle && !self.distributed();
        let delay = self.cfg.heal.oracle_delay;
        for (index, ev) in self.cfg.faults.events.iter().enumerate() {
            let at = Time::ZERO + ev.at;
            queue.schedule(at, Event::Fault { index });
            match ev.kind {
                FaultKind::Crash => {
                    if oracle {
                        queue.schedule(at + delay, Event::Reroute);
                    }
                }
                FaultKind::CrashRecover { down_for } => {
                    queue.schedule(
                        at + down_for,
                        Event::StationRecover {
                            station: ev.station,
                        },
                    );
                    if oracle {
                        queue.schedule(at + delay, Event::Reroute);
                        queue.schedule(at + down_for + delay, Event::Reroute);
                    }
                }
                FaultKind::ClockJump { .. } => {}
                FaultKind::Jam { for_, .. } => {
                    queue.schedule(at + for_, Event::JammerOff { index });
                }
                FaultKind::Partition { for_, .. } => {
                    queue.schedule(at + for_, Event::PartitionHeal { index });
                    if oracle {
                        // The oracle notices the severed links on its
                        // usual delay, and again once the cut lifts.
                        queue.schedule(at + delay, Event::Reroute);
                        queue.schedule(at + for_ + delay, Event::Reroute);
                    }
                }
                FaultKind::Byzantine { for_, .. } => {
                    queue.schedule(at + for_, Event::ByzOff { index });
                }
                FaultKind::ReactiveJam { .. } => {
                    // Armed at injection; goes quiet when its budget runs
                    // dry — no scheduled end.
                }
            }
        }
        // Dynamic topology. Motion epochs march on a fixed cadence; churn
        // events inject on the plan's schedule, mirroring the fault
        // translation above (timed departures get a return event, oracle
        // healing gets its delayed global repairs).
        if let Some(mc) = &self.cfg.mobility {
            if let Err(e) = mc.validate() {
                panic!("invalid mobility config: {e}");
            }
            queue.schedule(Time::ZERO + mc.epoch, Event::MotionEpoch);
        }
        if let Err(e) = self.cfg.churn.validate(n) {
            panic!("invalid churn plan: {e}");
        }
        for (index, ev) in self.cfg.churn.events.iter().enumerate() {
            let at = Time::ZERO + ev.at;
            queue.schedule(at, Event::ChurnStep { index });
            if oracle {
                queue.schedule(at + delay, Event::Reroute);
            }
            if let ChurnKind::Leave { for_: Some(d) } = ev.kind {
                queue.schedule(
                    at + d,
                    Event::ChurnReturn {
                        station: ev.station,
                    },
                );
                if oracle {
                    queue.schedule(at + d + delay, Event::Reroute);
                }
            }
        }
    }

    /// Run to completion and return metrics.
    pub fn run(cfg: NetConfig) -> Metrics {
        Network::new(cfg).run_built()
    }

    /// Prime, run to completion, and surrender metrics — the tail of
    /// [`Network::run`] for a network built (and possibly probed)
    /// separately, e.g. to pick fault victims from
    /// [`Network::routing_dependent_counts`] before the run.
    pub fn run_built(mut self) -> Metrics {
        let mut queue = EventQueue::new();
        self.prime(&mut queue);
        let end = self.end;
        {
            parn_sim::time_scope!("core.run");
            parn_sim::run(&mut self, &mut queue, end);
        }
        self.finish()
    }

    /// Replace the fault plan after construction (experiment drivers
    /// probe a built network, then inject faults into the same build).
    ///
    /// Partition faults are the one kind that must already appear in the
    /// construction-time plan: the shadowing-cut overlay is wired into
    /// the gain model (and the SINR tracker holding it) at build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            self.partition.is_some()
                || !plan
                    .events
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::Partition { .. })),
            "partition faults must be present in the plan at Network::new \
             (the gain overlay is wired at build time)"
        );
        self.cfg.faults = plan;
    }

    /// Per-station count of distinct *other* stations whose current
    /// routes pass through each station (delegates to the route table) —
    /// a cheap "who is a load-bearing relay" probe.
    pub fn routing_dependent_counts(&self) -> Vec<usize> {
        self.routes.routing_dependent_counts()
    }

    /// Finalize accounting and surrender metrics.
    pub fn finish(mut self) -> Metrics {
        let settled = self.metrics.delivered + self.metrics.total_drops();
        self.metrics.in_flight_at_end = self.metrics.generated.saturating_sub(settled);
        self.metrics.mean_queue_depth = self.queue_depth.average(self.end);
        self.metrics.peak_queue_depth = self.queue_depth.max();
        self.metrics.mean_concurrent_tx = self.on_air.average(self.end);
        self.metrics.queue_depth_hist.freeze(self.end);
        self.metrics
    }

    /// Adjust the network-wide queued-packet count: the running
    /// time-average/peak (pre-existing) and the dwell-time histogram the
    /// saturation sweep reads percentiles from.
    fn track_queue(&mut self, now: Time, delta: f64) {
        self.queue_depth.adjust(now, delta);
        self.metrics.queue_depth_hist.adjust(now, delta);
    }

    /// Enqueue at a station with occupancy bookkeeping.
    fn enqueue_tracked(&mut self, s: StationId, next_hop: StationId, packet: Packet, now: Time) {
        self.stations[s].enqueue(next_hop, packet, now);
        self.track_queue(now, 1.0);
    }

    /// True when routing runs as the per-station distance-vector
    /// protocol.
    fn distributed(&self) -> bool {
        matches!(self.cfg.route_mode, RouteMode::Distributed)
    }

    /// Local liveness tracking is on: either local healing asked for it,
    /// or the distance-vector protocol needs link-failure detection
    /// regardless of the heal mode.
    fn heal_active(&self) -> bool {
        self.cfg.heal.mode == HealMode::Local || self.distributed()
    }

    /// Resolve the forwarding next hop for `packet` held at `at`:
    /// through the station's own distance-vector state (Distributed) or
    /// the shared table. `Err` carries the drop cause — unroutable, or a
    /// forward that would hand the packet back to a station that already
    /// held it (a transient routing loop, refused per packet).
    fn resolve_next_hop(&self, at: StationId, packet: &Packet) -> Result<StationId, LossCause> {
        let next = if self.distributed() {
            self.dv[at].next_hop(packet.dst)
        } else {
            self.routes.next_hop(at, packet.dst)
        };
        match next {
            None => Err(LossCause::Unroutable),
            Some(nh) if self.distributed() && packet.visited.contains(&nh) => {
                Err(LossCause::RoutingLoop)
            }
            Some(nh) => Ok(nh),
        }
    }

    /// Resolve and enqueue `packet` at `at`, or settle it as dropped.
    fn route_or_drop(
        &mut self,
        at: StationId,
        packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        match self.resolve_next_hop(at, &packet) {
            Ok(next) => {
                self.enqueue_tracked(at, next, packet, now);
                self.try_schedule(at, now, queue);
            }
            Err(cause) => {
                if cause == LossCause::RoutingLoop {
                    self.metrics.routing_loops += 1;
                }
                self.stations[at].attempts.remove(&packet.id);
                self.settle_drop(&packet, cause);
            }
        }
    }

    fn has_traffic(&self, s: StationId) -> bool {
        if self.cfg.traffic.arrivals_per_station_per_sec <= 0.0 {
            return false;
        }
        match &self.cfg.traffic.dest {
            DestPolicy::UniformAll => !self.reachable[s].is_empty(),
            DestPolicy::Neighbors => !self.stations[s].routing_neighbors.is_empty(),
            DestPolicy::Flows(_) => !self.flow_dsts[s].is_empty(),
            DestPolicy::Gravity { .. } => self.gravity.is_some(),
            // Every station sends to the sinks, except a lone sink with
            // nobody else to address.
            DestPolicy::Hotspot { .. } => {
                !(self.hotspot_cum.is_empty() || (self.hotspot_cum.len() == 1 && s == 0))
            }
        }
    }

    /// Time from `now` until station `s` generates its next packet.
    /// Poisson sources draw one exponential per call — the exact sequence
    /// pre-traffic-subsystem runs drew, keeping them bit-identical. On-off
    /// sources walk the station's two-state phase machine: exponential
    /// interarrivals at the inflated within-burst rate while on, skipping
    /// the off periods entirely.
    fn next_interarrival(&mut self, s: StationId, now: Time) -> Duration {
        let mean_rate = self.cfg.traffic.arrivals_per_station_per_sec;
        match self.cfg.traffic.source {
            SourceModel::Poisson => Duration::from_secs_f64(self.rng_traffic.exp(1.0 / mean_rate)),
            SourceModel::OnOff {
                on_mean_s,
                off_mean_s,
            } => {
                let peak = self.cfg.traffic.source.peak_rate(mean_rate);
                let mut t = now;
                loop {
                    if self.burst_on[s] {
                        let dt = Duration::from_secs_f64(self.rng_traffic.exp(1.0 / peak));
                        let cand = t + dt;
                        if cand <= self.burst_until[s] {
                            return cand - now;
                        }
                        // Burst over before the draw landed: silence next.
                        t = self.burst_until[s];
                        self.burst_on[s] = false;
                        self.burst_until[s] =
                            t + Duration::from_secs_f64(self.rng_traffic.exp(off_mean_s));
                    } else {
                        // Skip the rest of the off period (for the lazy
                        // initial state `burst_until` is `Time::ZERO`,
                        // so the first burst starts immediately).
                        t = t.max(self.burst_until[s]);
                        self.burst_on[s] = true;
                        self.burst_until[s] =
                            t + Duration::from_secs_f64(self.rng_traffic.exp(on_mean_s));
                    }
                }
            }
        }
    }

    fn pick_destination(&mut self, s: StationId) -> Option<StationId> {
        match &self.cfg.traffic.dest {
            DestPolicy::UniformAll => {
                let opts = &self.reachable[s];
                if opts.is_empty() {
                    None
                } else {
                    Some(*self.rng_traffic.choose(opts))
                }
            }
            DestPolicy::Neighbors => {
                let opts = &self.stations[s].routing_neighbors;
                if opts.is_empty() {
                    None
                } else {
                    Some(*self.rng_traffic.choose(opts))
                }
            }
            DestPolicy::Flows(_) => {
                let opts = &self.flow_dsts[s];
                if opts.is_empty() {
                    None
                } else {
                    Some(*self.rng_traffic.choose(opts))
                }
            }
            DestPolicy::Gravity { .. } => {
                let sampler = self.gravity.as_ref()?;
                sampler.sample(s, &mut self.rng_traffic)
            }
            DestPolicy::Hotspot { .. } => {
                if self.hotspot_cum.is_empty() {
                    return None;
                }
                let u = self.rng_traffic.next_f64();
                let k = self.hotspot_cum.partition_point(|&c| c <= u);
                let dst = k.min(self.hotspot_cum.len() - 1);
                if dst != s {
                    Some(dst)
                } else if self.hotspot_cum.len() > 1 {
                    // A sink never addresses itself: fold onto the next
                    // sink (wrapping), preserving one draw per packet.
                    Some((dst + 1) % self.hotspot_cum.len())
                } else {
                    None
                }
            }
        }
    }

    /// Attempt to plan the station's next transmissions (§7 MAC): keep
    /// committing packets to admissible quarter-slot starts until the
    /// outstanding-plan limit is reached or nothing fits in the horizon.
    fn try_schedule(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            return;
        }
        self.stations[s].prune_reservations(now);
        while self.stations[s].pending_tx.len() < self.cfg.max_outstanding_plans {
            if !self.try_schedule_one(s, now, queue) {
                break;
            }
        }
    }

    /// Plan at most one transmission; returns whether a plan was made.
    fn try_schedule_one(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) -> bool {
        if self.stations[s].queued() == 0 {
            return false;
        }
        let params = self.cfg.sched;
        let horizon = now + self.cfg.sched.slot * self.cfg.mac_horizon_slots;
        let guard = self.cfg.clock.guard;
        let qs = QuarterSlot::with_divisor(params, self.cfg.packet_divisor);
        let my_clock = self.clocks[s];

        // My own transmit windows, minus existing commitments, shaved by
        // a transmitter-turnaround epsilon: window boundaries are computed
        // through the clock inverse (±1 tick of rounding), and a 1-tick
        // overhang into the station's own receive slot is enough to kill
        // an incoming reception (Type 3) under the hold-for-the-whole-
        // packet criterion. Real radios need TX/RX turnaround time anyway.
        let my_tx: Vec<Window> = self.stations[s]
            .schedule
            .windows(now, horizon, SlotKind::Transmit)
            .into_iter()
            .map(|w| w.shrunk(Duration(2)))
            .filter(|w| !w.is_empty())
            .collect();
        let my_free = self.stations[s].subtract_reservations(&my_tx);

        // Pre-compute §7.3 cut lists lazily per candidate power level: the
        // protected windows only depend on the neighbour being protected,
        // so gather their expanded predicted receive windows once.
        let protection_on = self.cfg.protection.enabled;
        let mut protected_rx: Vec<(StationId, f64, Vec<Window>)> = Vec::new();
        if protection_on {
            let prot_ids = self.stations[s].protected.clone();
            for pn in prot_ids {
                let gain_to_pn = self.gains.gain(pn, s).value();
                if let Some(model) = self.stations[s].models.get(&pn) {
                    let pred = PredictedSchedule {
                        params,
                        my_clock,
                        model,
                        guard: Duration::ZERO,
                    };
                    let ws: Vec<Window> = pred
                        .windows(now, horizon, SlotKind::Receive)
                        .into_iter()
                        .map(|w| w.expanded(guard))
                        .collect();
                    protected_rx.push((pn, gain_to_pn, ws));
                }
            }
        }

        let neighbors_with_traffic: Vec<StationId> = self.stations[s]
            .queues
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&nh, _)| nh)
            .collect();

        let mut best: Option<(Time, StationId)> = None;
        for nh in neighbors_with_traffic {
            let Some(model) = self.stations[s].models.get(&nh) else {
                continue;
            };
            let pred = PredictedSchedule {
                params,
                my_clock,
                model,
                guard,
            };
            let their_rx = pred.windows(now, horizon, SlotKind::Receive);
            let mut usable = intersect_lists(&my_free, &their_rx);
            if protection_on && !usable.is_empty() {
                let p_tx = self.power.tx_power(self.gains.gain(nh, s)).value();
                for (pn, gain_to_pn, ws) in &protected_rx {
                    if *pn == nh {
                        continue;
                    }
                    let contrib = p_tx * gain_to_pn;
                    if contrib
                        >= self.cfg.protection.significance_fraction
                            * self.interference_budget.value()
                    {
                        usable = subtract_lists(&usable, ws);
                    }
                }
            }
            let found = qs.first_admissible(
                &usable,
                now,
                |t| my_clock.reading(t),
                |local| my_clock.time_of_reading(local),
            );
            if let Some(start) = found {
                if best.map(|(b, _)| start < b).unwrap_or(true) {
                    best = Some((start, nh));
                }
            }
        }

        match best {
            Some((start, nh)) => {
                let st = &mut self.stations[s];
                let packet = st
                    .queues
                    .get_mut(&nh)
                    .and_then(VecDequeFront::pop_front_checked)
                    .expect("queue emptied unexpectedly");
                st.reservations.push((start, start + self.airtime));
                let pid = packet.id;
                self.track_queue(now, -1.0);
                let st = &mut self.stations[s];
                st.pending_tx.insert(
                    start.ticks(),
                    PlannedTx {
                        start,
                        next_hop: nh,
                        packet,
                    },
                );
                queue.schedule(start, Event::TxStart { station: s });
                parn_sim::trace_event!(
                    self.tracer,
                    now,
                    parn_sim::trace::Level::Debug,
                    parn_sim::trace::TraceEvent::MacPlanned {
                        station: s,
                        packet: pid,
                        next_hop: nh,
                        start,
                    }
                );
                true
            }
            None => {
                let st = &mut self.stations[s];
                if st.pending_tx.is_empty() && !st.retry_pending {
                    st.retry_pending = true;
                    queue.schedule(horizon, Event::MacRetry { station: s });
                }
                false
            }
        }
    }

    /// Snapshot a control payload onto `packet` at transmission start —
    /// the same moment a hello samples the sender's clock. A
    /// `RouteUpdate` carries the sender's split-horizon vector for its
    /// addressee; under piggyback sync a hello carries the vector too
    /// (Distributed) and the sender's last-heard gossip (any local
    /// liveness mode), so idle neighbourhoods still exchange evidence.
    fn attach_payload(&mut self, s: StationId, nh: StationId, packet: &mut Packet, now: Time) {
        let mut payload = ControlPayload::default();
        match packet.kind {
            PacketKind::Data => return,
            PacketKind::RouteUpdate => {
                payload.route_vector = Some(self.advertisement_for(s, nh));
            }
            PacketKind::Hello => {
                if self.distributed() {
                    payload.route_vector = Some(self.advertisement_for(s, nh));
                }
                if self.heal_active() && !self.stations[s].last_heard.is_empty() {
                    payload.last_heard = Some(
                        self.stations[s]
                            .last_heard
                            .iter()
                            .map(|(&x, &t)| (x, t))
                            .collect(),
                    );
                }
            }
        }
        if payload.route_vector.is_some() {
            if self.warm.measured(now) {
                self.metrics.route_updates_sent += 1;
            }
            parn_sim::counter_inc!("route.updates_sent");
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Debug,
                parn_sim::trace::TraceEvent::RouteUpdateSent {
                    station: s,
                    neighbor: nh,
                    packet: packet.id,
                }
            );
        }
        if payload.route_vector.is_some() || payload.last_heard.is_some() {
            packet.payload = Some(Arc::new(payload));
        }
    }

    /// The distance vector `s` puts on the air for `nh`: its honest
    /// advertisement — unless `s` is inside an active Byzantine poisoner
    /// window, in which case it underbids every destination (zero energy,
    /// zero hops), trying to black-hole traffic through itself. The
    /// receiver-side sanity check in [`parn_route::DvState::integrate`]
    /// rejects exactly these claims.
    fn advertisement_for(&self, s: StationId, nh: StationId) -> Vec<(f64, u32)> {
        let poisoning = self
            .byz_active
            .iter()
            .any(|(&i, &m)| m == ByzMode::Poisoner && self.cfg.faults.events[i].station == s);
        if poisoning {
            return vec![(0.0, 0); self.stations.len()];
        }
        self.dv[s].advertisement(nh)
    }

    fn on_tx_start(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let Some(mut plan) = self.stations[s].pending_tx.remove(&now.ticks()) else {
            // The station failed after planning; the plan was cancelled.
            return;
        };
        debug_assert_eq!(plan.start, now, "TxStart fired at the wrong time");
        let nh = plan.next_hop;
        self.attach_payload(s, nh, &mut plan.packet, now);
        let p_tx = self.power.tx_power(self.gains.gain(nh, s));
        let tx = self.tracker.start_transmission(s, p_tx, Some(nh));
        self.on_air.adjust(now, 1.0);

        // Receiver side: occupy a despreading channel if one is free (a
        // failed station's receiver is dark).
        let rx = if self.alive[nh] && self.stations[nh].active_rx < self.cfg.despreaders {
            self.stations[nh].active_rx += 1;
            Some(self.tracker.begin_reception(nh, tx, self.threshold))
        } else {
            None
        };
        // Reactive adversaries sense the transmission going on the air.
        self.maybe_reactive_jam(s, p_tx, nh, now, queue);

        let measured = self.warm.measured(now);
        if measured {
            match plan.packet.kind {
                PacketKind::Hello => self.metrics.hellos_sent += 1,
                PacketKind::RouteUpdate => {}
                PacketKind::Data => {
                    let wait_slots = now.since(plan.packet.enqueued).ticks() as f64
                        / self.cfg.sched.slot.ticks() as f64;
                    self.metrics.hop_wait_slots.add(wait_slots);
                }
            }
            self.metrics.tx_airtime[s] += self.airtime.as_secs_f64();
            // Scheme self-check: the packet should land inside the
            // receiver's *actual* receive windows.
            let sched = &self.stations[nh].schedule;
            let end = now + self.airtime;
            if sched.kind_at(now) != SlotKind::Receive
                || sched.kind_at(end - Duration(1)) != SlotKind::Receive
            {
                self.metrics.schedule_violations += 1;
                #[cfg(feature = "diag")]
                {
                    let model = self.stations[s].models.get(&nh).expect("model");
                    let mine_now = self.clocks[s].reading(now);
                    let predicted = model.predict(mine_now);
                    let actual = self.clocks[nh].reading(now);
                    eprintln!(
                        "VIOLATION s={s} nh={nh} now={now} end={end} k0={:?} k1={:?} rd0={} rd1={} pred_err={} samples={}",
                        sched.kind_at(now),
                        sched.kind_at(end - Duration(1)),
                        sched.clock.reading(now) % 10_000,
                        sched.clock.reading(end - Duration(1)) % 10_000,
                        predicted as i64 - actual as i64,
                        model.sample_count(),
                    );
                }
            }
        }

        queue.schedule(
            now + self.airtime,
            Event::TxEnd {
                station: s,
                tx,
                rx,
                packet: plan.packet,
                next_hop: nh,
                tx_epoch: self.boot_epoch[s],
                rx_epoch: self.boot_epoch[nh],
            },
        );
        // Pipeline: plan the next packet while this one is on air.
        self.try_schedule(s, now, queue);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_tx_end(
        &mut self,
        s: StationId,
        tx: TxId,
        rx: Option<RxId>,
        packet: Packet,
        nh: StationId,
        tx_epoch: u64,
        rx_epoch: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let report = rx.map(|r| {
            self.stations[nh].active_rx -= 1;
            self.tracker.complete_reception(r)
        });
        self.tracker.end_transmission(tx);
        self.on_air.adjust(now, -1.0);
        let measured = self.warm.measured(packet.created);
        let is_ctrl = matches!(packet.kind, PacketKind::Hello | PacketKind::RouteUpdate);
        if measured && !is_ctrl {
            self.metrics.hop_attempts += 1;
        }
        // A reboot in flight voids either end: a rebooted receiver has
        // forgotten the reception, a rebooted sender has forgotten the
        // packet.
        let rx_fresh = self.alive[nh] && self.boot_epoch[nh] == rx_epoch;
        let tx_fresh = self.alive[s] && self.boot_epoch[s] == tx_epoch;
        let success = report.as_ref().map(|r| r.success).unwrap_or(false) && rx_fresh;
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Info,
            parn_sim::trace::TraceEvent::HopOutcome {
                src: s,
                dst: nh,
                packet: packet.id,
                success,
            }
        );
        if success {
            // Every successful reception carries the sender's clock
            // reading, sampled at transmission start.
            self.learn_from_reception(nh, s, now.saturating_sub(self.airtime));
            // The receiver heard the sender: readmit it if evicted.
            self.observe_alive(nh, s, now, queue);
            if self.heal_active() {
                // Liveness evidence on both ends (the ack carries it
                // back), feeding the gossip hellos spread.
                self.stations[nh].last_heard.insert(s, now);
                self.stations[s].last_heard.insert(nh, now);
            }
            if is_ctrl {
                if measured && packet.kind == PacketKind::Hello {
                    self.metrics.hellos_received += 1;
                }
                // Control frames are link-layer acked like data: the
                // sender learns its addressee is alive.
                self.observe_alive(s, nh, now, queue);
                self.consume_payload(nh, s, &packet, now, queue);
            } else {
                // Implicit ack: the sender learns its next hop is alive.
                self.observe_alive(s, nh, now, queue);
                if measured {
                    self.metrics.hop_successes += 1;
                    let rep = report.as_ref().expect("successful reception had a report");
                    let margin_db = 10.0 * (rep.min_sinr / self.threshold).log10();
                    self.metrics.sinr_margin_db.add(margin_db);
                }
                self.stations[s].attempts.remove(&packet.id);
                self.deliver(nh, packet, now, queue);
            }
        } else if is_ctrl {
            // Best effort: the next round regenerates it. Control losses
            // never feed the hop/loss ledgers, but a failed control hop
            // is still liveness evidence for the sender — this is what
            // detects a crashed neighbour that carries no data traffic.
            if tx_fresh {
                self.observe_hop_failure(s, nh, now, queue);
            }
        } else {
            let cause = if !rx_fresh {
                LossCause::StationFailed
            } else if let Some(rep) = &report {
                classify(rep).1
            } else {
                LossCause::DespreaderExhausted
            };
            if measured {
                self.metrics.record_loss(cause);
                if cause == LossCause::Violation {
                    // A loss pinned on an out-of-window emission is the
                    // receiver *detecting* the schedule violator.
                    self.metrics.violations_detected += 1;
                    parn_sim::counter_inc!("core.violations_detected");
                }
            }
            if tx_fresh {
                self.observe_hop_failure(s, nh, now, queue);
                self.retry_or_drop(s, packet, now, queue);
            } else {
                // The holder rebooted (or died) while the packet was on
                // air: the packet is gone with its pre-reboot state.
                self.settle_drop(&packet, LossCause::StationFailed);
            }
        }
        if self.alive[s] {
            self.try_schedule(s, now, queue);
        }
    }

    fn deliver(
        &mut self,
        at: StationId,
        mut packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        packet.hops += 1;
        if self.distributed() {
            // The per-packet loop-freedom invariant: refusing to forward
            // into the visited set (resolve_next_hop) must keep this
            // from ever firing, whatever transient the exchange is in.
            assert!(
                !packet.visited.contains(&at),
                "loop-freedom violated: packet {} revisited station {at}",
                packet.id
            );
        }
        packet.visited.push(at);
        let measured = self.warm.measured(packet.created);
        if packet.dst == at {
            if measured {
                self.metrics.delivered += 1;
                self.metrics.per_station_delivered[at] += 1;
                let delay = packet.age(now).as_secs_f64();
                self.metrics.e2e_delay.add(delay);
                self.metrics.e2e_delay_hist.add(delay);
                self.metrics.hops_per_packet.add(packet.hops as f64);
                self.metrics.hops_hist.add(packet.hops as f64);
                self.metrics.bits_delivered += self.cfg.packet_bits();
            }
            return;
        }
        if measured {
            self.metrics.per_station_forwarded[at] += 1;
        }
        // Forward, or drop accountably: unreachable after a topology
        // change, or (Distributed) a next hop that already held the
        // packet — the transient-loop refusal.
        self.route_or_drop(at, packet, now, queue);
    }

    /// Settle a packet as finally dropped, attributing the cause.
    /// Control packets (hellos, routing updates) are best-effort and
    /// never enter `generated`, so they never count as drops either;
    /// packets created before the warmup gate are likewise outside the
    /// measured ledger.
    fn settle_drop(&mut self, packet: &Packet, cause: LossCause) {
        if packet.kind != PacketKind::Data {
            return;
        }
        if self.warm.measured(packet.created) {
            self.metrics.record_drop(cause);
        }
    }

    fn retry_or_drop(
        &mut self,
        s: StationId,
        packet: Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] {
            // The packet's holder is gone with it.
            self.settle_drop(&packet, LossCause::StationFailed);
            return;
        }
        let attempts = self.stations[s].attempts.entry(packet.id).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        if attempt > self.cfg.max_retries {
            self.stations[s].attempts.remove(&packet.id);
            self.settle_drop(&packet, LossCause::RetriesExhausted);
            return;
        }
        if self.warm.measured(packet.created) {
            self.metrics.retransmissions += 1;
        }
        if self.heal_active() {
            // Capped binary-exponential backoff with ±50 % jitter:
            // gives a suspected neighbour room to come back (or be
            // evicted, or — Distributed — routed around) instead of
            // burning the retry budget instantly.
            let base = self.cfg.heal.backoff_base.ticks();
            let raw = base
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(10))
                .min(self.cfg.heal.backoff_cap.ticks());
            let wait = Duration((raw as f64 * self.rng_faults.range_f64(0.5, 1.5)) as u64);
            queue.schedule(
                now + wait,
                Event::RetryRelease {
                    station: s,
                    packet,
                    epoch: self.boot_epoch[s],
                },
            );
        } else {
            // Oracle healing: immediate re-resolve — routes may have
            // healed around a failed neighbour since the packet was
            // first queued.
            self.route_or_drop(s, packet, now, queue);
        }
    }

    /// A backed-off retransmission becomes eligible: re-resolve its next
    /// hop through the (possibly repaired) routes and queue it again.
    fn on_retry_release(
        &mut self,
        s: StationId,
        packet: Packet,
        epoch: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] || self.boot_epoch[s] != epoch {
            self.settle_drop(&packet, LossCause::StationFailed);
            return;
        }
        self.route_or_drop(s, packet, now, queue);
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            // The chain dies with the station; recovery restarts it.
            self.arrivals_live[s] = false;
            return;
        }
        // Schedule the next arrival first (keeps the process going even if
        // this packet is unroutable).
        let dt = self.next_interarrival(s, now);
        let next = now + dt;
        if next <= self.end {
            queue.schedule(next, Event::NextArrival { station: s });
        } else {
            self.arrivals_live[s] = false;
        }
        let Some(dst) = self.pick_destination(s) else {
            return;
        };
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let packet = Packet::new(id, s, dst, now);
        if self.warm.measured(now) {
            self.metrics.generated += 1;
            self.metrics.per_station_generated[s] += 1;
        }
        let spatial_dest = matches!(
            self.cfg.traffic.dest,
            DestPolicy::Gravity { .. } | DestPolicy::Hotspot { .. }
        );
        if self.distributed() || spatial_dest {
            // The reachable list can be stale while the exchange
            // reconverges — and the spatial policies sample destinations
            // without a reachability scan (greedy forwarding can dead-end
            // en route anyway): either way the packet settles as
            // unroutable, staying on the conservation ledger.
            self.route_or_drop(s, packet, now, queue);
        } else {
            // Table-based reachable lists are kept exact; a miss here is
            // a bug, not a protocol transient.
            let next_hop = self
                .routes
                .next_hop(s, dst)
                .expect("picked an unroutable destination");
            self.enqueue_tracked(s, next_hop, packet, now);
            self.try_schedule(s, now, queue);
        }
    }

    fn on_resync(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        for s in 0..self.stations.len() {
            if !self.alive[s] {
                continue;
            }
            let mine = self.clocks[s].reading(now);
            let ids: Vec<StationId> = self.stations[s].models.keys().copied().collect();
            for nb in ids {
                if !self.alive[nb] {
                    continue;
                }
                let theirs = self.clocks[nb].reading(now);
                self.stations[s]
                    .models
                    .get_mut(&nb)
                    .expect("model vanished")
                    .add_sample(ClockSample { mine, theirs });
            }
        }
        let next = now + self.cfg.clock.resync_interval;
        if next <= self.end {
            queue.schedule(next, Event::Resync);
        }
    }
}

impl Network {
    /// Emit hello beacons: enqueue one single-hop `Hello` to each routing
    /// neighbour (unless one is already queued for it) and reschedule.
    fn on_hello_round(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let SyncMode::Piggyback { hello_interval } = self.cfg.clock.sync else {
            return;
        };
        if self.alive[s] {
            let neighbors = self.stations[s].routing_neighbors.clone();
            for nb in neighbors {
                let already = self.stations[s]
                    .queues
                    .get(&nb)
                    .map(|q| q.iter().any(|p| p.kind == PacketKind::Hello))
                    .unwrap_or(false);
                if already {
                    continue;
                }
                let id = self.next_packet_id;
                self.next_packet_id += 1;
                let mut hello = Packet::new(id, s, nb, now);
                hello.kind = PacketKind::Hello;
                self.enqueue_tracked(s, nb, hello, now);
            }
            self.try_schedule(s, now, queue);
        }
        let next = now + hello_interval;
        if next <= self.end {
            queue.schedule(next, Event::HelloRound { station: s });
        }
    }

    /// Piggyback learning: a successful reception carries the sender's
    /// clock reading sampled at transmission start; the receiver refines
    /// its model of the sender.
    fn learn_from_reception(&mut self, rx: StationId, sender: StationId, start: Time) {
        if !matches!(self.cfg.clock.sync, SyncMode::Piggyback { .. }) {
            return;
        }
        let sample = ClockSample {
            mine: self.clocks[rx].reading(start),
            theirs: self.clocks[sender].reading(start),
        };
        match self.stations[rx].models.get_mut(&sender) {
            Some(m) => m.add_sample(sample),
            None => {
                self.stations[rx]
                    .models
                    .insert(sender, RemoteClockModel::from_first_sample(sample));
            }
        }
    }

    /// Integrate a received control payload at `rx`: merge liveness
    /// gossip, then fold the advertised distance vector into the
    /// receiver's own state.
    fn consume_payload(
        &mut self,
        rx: StationId,
        sender: StationId,
        packet: &Packet,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let Some(payload) = packet.payload.clone() else {
            return;
        };
        if let Some(gossip) = &payload.last_heard {
            self.merge_gossip(rx, gossip, now, queue);
        }
        if let Some(vector) = &payload.route_vector {
            if !self.distributed() || !self.alive[rx] {
                return;
            }
            if self.warm.measured(now) {
                self.metrics.route_updates_received += 1;
            }
            parn_sim::counter_inc!("route.updates_received");
            let changed = self.dv[rx].integrate(sender, vector, now, self.cfg.dv.holddown);
            let rejected = self.dv[rx].take_poison_rejections();
            if rejected > 0 {
                self.metrics.violations_detected += rejected;
                parn_sim::counter_inc!("core.violations_detected");
                parn_sim::trace_event!(
                    self.tracer,
                    now,
                    parn_sim::trace::Level::Warn,
                    parn_sim::trace::TraceEvent::ViolationDetected {
                        observer: rx,
                        source: sender,
                    }
                );
            }
            if changed {
                self.after_dv_change(rx, now, queue);
            }
        }
    }

    /// Fold a sender's last-heard gossip into `rx`'s own view. Adopting
    /// a newer timestamp for a currently-suspected station counts as
    /// hearing it — but only when the evidence postdates the suspicion,
    /// so pre-crash gossip cannot resurrect a dead neighbour.
    fn merge_gossip(
        &mut self,
        rx: StationId,
        items: &[(StationId, Time)],
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.heal_active() {
            return;
        }
        for &(x, heard) in items {
            if x == rx {
                continue;
            }
            let newer = self.stations[rx]
                .last_heard
                .get(&x)
                .is_none_or(|&cur| heard > cur);
            if !newer {
                continue;
            }
            self.stations[rx].last_heard.insert(x, heard);
            let clears = self.stations[rx]
                .liveness
                .get(&x)
                .and_then(|h| h.suspected_at)
                .is_some_and(|t0| heard > t0);
            if clears {
                self.observe_alive(rx, x, now, queue);
            }
        }
    }

    /// A station's distance-vector table changed: refresh the MAC state
    /// derived from it (routing neighbours, §7.3 protection, clock
    /// models), arrange a triggered advertisement, and (re)arm the
    /// network-wide quiescence probe.
    fn after_dv_change(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        self.refresh_station_routing(s, now, false);
        self.schedule_triggered_update(s, now, queue);
        self.note_dv_change(now, queue);
    }

    /// Re-derive one station's routing neighbours, protected set and
    /// clock models from its own table — what `rebuild_routes` does
    /// globally, scoped to the station whose private state moved.
    ///
    /// `force` skips the unchanged-neighbour early exit: motion re-costs
    /// gains without necessarily changing next hops, and §7.3 protection
    /// and worst-case power must re-budget from the moved geometry.
    fn refresh_station_routing(&mut self, s: StationId, now: Time, force: bool) {
        let rn = self.dv[s].routing_neighbors();
        if !force && rn == self.stations[s].routing_neighbors {
            return;
        }
        // Worst-case power includes the physical link set: the station
        // addresses advertisements over every usable link, not just its
        // current next hops.
        let max_power_used = rn
            .iter()
            .chain(self.dv_links[s].iter().map(|(nb, _)| nb))
            .map(|&nb| self.power.tx_power(self.gains.gain(nb, s)).value())
            .fold(0.0f64, f64::max);
        let mut protected = Vec::new();
        if self.cfg.protection.enabled && max_power_used > 0.0 {
            let thr = parn_phys::Gain(
                self.cfg.protection.significance_fraction * self.interference_budget.value()
                    / max_power_used,
            );
            protected = self.gains.hearable_by(s, thr);
            protected.retain(|&p| p != s && self.alive[p]);
        }
        let mine = self.clocks[s].reading(now);
        for &nb in rn.iter().chain(protected.iter()) {
            let theirs = self.clocks[nb].reading(now);
            self.stations[s].models.entry(nb).or_insert_with(|| {
                RemoteClockModel::from_first_sample(ClockSample { mine, theirs })
            });
        }
        let st = &mut self.stations[s];
        st.routing_neighbors = rn;
        st.protected = protected;
    }

    /// Arrange a triggered advertisement round for `s`, deduping bursts
    /// of table changes into one round per `triggered_delay`.
    fn schedule_triggered_update(
        &mut self,
        s: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] || self.stations[s].update_pending {
            return;
        }
        self.stations[s].update_pending = true;
        queue.schedule(
            now + self.cfg.dv.triggered_delay,
            Event::RouteUpdateRound {
                station: s,
                periodic: false,
            },
        );
    }

    /// Record a table change for convergence-episode tracking and make
    /// sure a quiescence probe is armed.
    fn note_dv_change(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        if self.dv_episode_start.is_none() {
            self.dv_episode_start = Some(now);
        }
        self.dv_last_change = Some(now);
        if !self.dv_check_pending {
            self.dv_check_pending = true;
            queue.schedule(now + self.cfg.dv.convergence_quiet, Event::ConvergenceCheck);
        }
    }

    /// Quiescence probe: if no table changed for a full quiet window the
    /// episode closes — its duration is sampled, and any station whose
    /// readmission the episode propagated counts as healed.
    fn on_convergence_check(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        self.dv_check_pending = false;
        let (Some(start), Some(last)) = (self.dv_episode_start, self.dv_last_change) else {
            return;
        };
        let quiet = self.cfg.dv.convergence_quiet;
        if now.since(last) < quiet {
            // Changed again since this probe was armed; re-arm from the
            // latest change.
            self.dv_check_pending = true;
            queue.schedule(last + quiet, Event::ConvergenceCheck);
            return;
        }
        self.dv_episode_start = None;
        self.dv_last_change = None;
        self.dv_episodes += 1;
        self.metrics
            .converged_at
            .add(last.since(start).as_secs_f64());
        parn_sim::counter_inc!("route.convergence_rounds");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Info,
            parn_sim::trace::TraceEvent::RouteConverged {
                episode: self.dv_episodes,
                quiesced_at: last,
            }
        );
        for s in 0..self.stations.len() {
            if self.alive[s] && self.evicted_by[s] == 0 {
                if let Some(t0) = self.recover_mark[s].take() {
                    self.metrics.time_to_heal.add(last.since(t0).as_secs_f64());
                }
            }
        }
    }

    /// An advertisement round: enqueue one `RouteUpdate` to each direct
    /// link neighbour (unless one is already queued for it, like the
    /// hello dedupe). Periodic rounds reschedule themselves.
    fn on_route_update_round(
        &mut self,
        s: StationId,
        periodic: bool,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.distributed() {
            return;
        }
        if periodic {
            let next = now + self.cfg.dv.update_interval;
            if next <= self.end {
                queue.schedule(
                    next,
                    Event::RouteUpdateRound {
                        station: s,
                        periodic: true,
                    },
                );
            }
        } else {
            self.stations[s].update_pending = false;
        }
        if !self.alive[s] {
            return;
        }
        let links: Vec<StationId> = self.dv[s].links().keys().copied().collect();
        for nb in links {
            let already = self.stations[s]
                .queues
                .get(&nb)
                .map(|q| q.iter().any(|p| p.kind == PacketKind::RouteUpdate))
                .unwrap_or(false);
            if already {
                continue;
            }
            let id = self.next_packet_id;
            self.next_packet_id += 1;
            let mut update = Packet::new(id, s, nb, now);
            update.kind = PacketKind::RouteUpdate;
            self.enqueue_tracked(s, nb, update, now);
        }
        self.try_schedule(s, now, queue);
    }

    /// Distributed link-failure handling: the observer tears the link
    /// down in its own state (poisoning routes through it), re-points or
    /// drops the traffic it had queued for the lost neighbour, and lets
    /// advertisements carry the change — no global recompute.
    fn on_link_failed(
        &mut self,
        s: StationId,
        nh: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let changed = self.dv[s].fail_link(nh, now, self.cfg.dv.holddown);
        let orphaned: Vec<Packet> = self.stations[s]
            .queues
            .remove(&nh)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default();
        self.track_queue(now, -(orphaned.len() as f64));
        for p in orphaned {
            if p.kind != PacketKind::Data {
                // Control frames are pinned to the lost addressee; the
                // next round regenerates them if the link comes back.
                continue;
            }
            self.route_or_drop(s, p, now, queue);
        }
        if changed {
            self.after_dv_change(s, now, queue);
        } else {
            // Even a routing no-op must be advertised: the peers'
            // vectors through us may still reference the dead link.
            self.schedule_triggered_update(s, now, queue);
        }
    }

    /// A rebooted station's distance-vector state restarts from its
    /// physical links to live stations (the rejoin handshake re-measures
    /// them); everything beyond one hop is re-learned from
    /// advertisements.
    fn reset_dv_state(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let n = self.stations.len();
        let links: BTreeMap<StationId, f64> = self.dv_links[s]
            .iter()
            .filter(|&&(nb, _)| self.alive[nb])
            .copied()
            .collect();
        self.dv[s] = DvState::new(s, n, links);
        self.after_dv_change(s, now, queue);
    }

    /// Injection point of one scheduled fault from the plan.
    fn on_fault(&mut self, index: usize, now: Time, queue: &mut EventQueue<Event>) {
        let ev = self.cfg.faults.events[index];
        self.metrics.faults_injected += 1;
        parn_sim::counter_inc!("core.faults_injected");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::FaultInjected {
                station: ev.station,
                kind: ev.kind.tag(),
            }
        );
        match ev.kind {
            FaultKind::Crash | FaultKind::CrashRecover { .. } => {
                self.on_station_fail(ev.station, now, queue)
            }
            FaultKind::ClockJump { ticks } => self.on_clock_jump(ev.station, ticks, now, queue),
            FaultKind::Jam { power, .. } => {
                let tx = self.tracker.start_jammer(ev.station, power);
                self.jammer_tx.insert(index, tx);
            }
            FaultKind::Partition {
                axis,
                offset,
                atten_db,
                ..
            } => {
                let overlay = self
                    .partition
                    .as_ref()
                    .expect("partition fault without overlay (set_fault_plan checks this)");
                overlay.activate(index, GeoCut { axis, offset }, 10f64.powf(-atten_db / 10.0));
                // Gains changed under live receptions and far-field
                // snapshots: re-derive everything gain-dependent.
                self.tracker.gains_changed();
            }
            FaultKind::Byzantine { mode, .. } => {
                self.byz_active.insert(index, mode);
                if mode == ByzMode::Violator {
                    self.on_byz_step(index, true, now, queue);
                }
            }
            FaultKind::ReactiveJam { budget, duty } => {
                self.rjam.insert(
                    index,
                    RJamState {
                        station: ev.station,
                        since: now,
                        budget_left: budget,
                        duty,
                        spent: Duration::ZERO,
                    },
                );
            }
        }
    }

    /// A partition transient ends: lift the shadowing cut, restore the
    /// severed gains, and re-derive every gain-dependent PHY quantity.
    /// Healing the *routes* is the protocols' job from here — the oracle
    /// reroute was scheduled at prime, local/distributed healing readmits
    /// by hearing across the restored links.
    fn on_partition_heal(&mut self, index: usize, now: Time) {
        let Some(overlay) = self.partition.as_ref() else {
            return;
        };
        overlay.deactivate(index);
        self.tracker.gains_changed();
        self.metrics.partitions_healed += 1;
        self.metrics
            .partition_healed_at
            .add(now.since(Time::ZERO).as_secs_f64());
        parn_sim::counter_inc!("core.partitions_healed");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::PartitionHealed { index }
        );
    }

    /// One step of a Byzantine violator's rogue cadence: an `on` step
    /// puts an out-of-window emission on the air for one packet airtime
    /// and schedules its end; an off step silences it and schedules the
    /// next burst. The cadence dies silently once the window closes.
    fn on_byz_step(&mut self, index: usize, on: bool, now: Time, queue: &mut EventQueue<Event>) {
        if !self.byz_active.contains_key(&index) {
            // Window closed; ByzOff already silenced any live burst.
            return;
        }
        if on {
            let s = self.cfg.faults.events[index].station;
            if self.alive[s] {
                // Emit at the station's own worst-case protocol power —
                // indistinguishable in strength from honest traffic,
                // wrong only in timing.
                let p = self.stations[s]
                    .routing_neighbors
                    .iter()
                    .map(|&nb| self.power.tx_power(self.gains.gain(nb, s)).value())
                    .fold(0.0f64, f64::max);
                if p > 0.0 {
                    let tx = self.tracker.start_violator(s, PowerW(p));
                    self.byz_tx.insert(index, tx);
                }
            }
            queue.schedule(now + self.airtime, Event::ByzStep { index, on: false });
        } else {
            if let Some(tx) = self.byz_tx.remove(&index) {
                self.tracker.end_transmission(tx);
            }
            // Next rogue burst every fourth slot: frequent enough to
            // collide with scheduled receptions, sparse enough not to
            // degenerate into a plain continuous jammer.
            let gap = Duration(self.cfg.sched.slot.ticks().max(1) * 4);
            queue.schedule(now + gap, Event::ByzStep { index, on: true });
        }
    }

    /// A Byzantine misbehavior window ends: the station reverts to honest
    /// behaviour, and any rogue emission still on the air is silenced.
    fn on_byz_off(&mut self, index: usize) {
        self.byz_active.remove(&index);
        if let Some(tx) = self.byz_tx.remove(&index) {
            self.tracker.end_transmission(tx);
        }
    }

    /// A reactive-jam burst ends: the adversary's transmitter goes quiet.
    fn on_rjam_off(&mut self, seq: u64) {
        if let Some((_, tx)) = self.rjam_active.remove(&seq) {
            self.tracker.end_transmission(tx);
        }
    }

    /// Reactive-jam sensing hook, called as each transmission goes on the
    /// air: every armed adversary whose sensor can hear the sender above
    /// the thermal floor fires one burst of jam air-time against the
    /// reception — if its remaining budget covers the burst and its duty
    /// cap permits.
    fn maybe_reactive_jam(
        &mut self,
        tx_station: StationId,
        p_tx: PowerW,
        rx_station: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if self.rjam.is_empty() {
            return;
        }
        let airtime = self.airtime;
        let floor = self.cfg.thermal_noise.value();
        let indices: Vec<usize> = self.rjam.keys().copied().collect();
        for index in indices {
            let st = self.rjam[&index];
            if st.budget_left < airtime {
                continue; // budget exhausted: the adversary is spent
            }
            let sensed = self.gains.gain(st.station, tx_station).apply(p_tx).value();
            if st.station == tx_station || sensed <= floor {
                continue; // can't hear the sender (or it IS the sender)
            }
            let elapsed = now.since(st.since) + airtime;
            let spent_after = st.spent + airtime;
            if spent_after.as_secs_f64() > st.duty * elapsed.as_secs_f64() {
                continue; // duty cap: stay quiet until it amortizes
            }
            let seq = self.rjam_seq;
            self.rjam_seq += 1;
            let tx = self.tracker.start_jammer(st.station, self.cfg.max_power);
            self.rjam_active.insert(seq, (index, tx));
            queue.schedule(now + airtime, Event::RJamOff { seq });
            {
                let st = self.rjam.get_mut(&index).expect("armed jammer");
                st.budget_left = st.budget_left.saturating_sub(airtime);
                st.spent = spent_after;
            }
            self.metrics.reactive_jams += 1;
            self.metrics.jam_budget_spent_s += airtime.as_secs_f64();
            parn_sim::counter_inc!("core.reactive_jams");
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Warn,
                parn_sim::trace::TraceEvent::ReactiveJamBurst {
                    station: st.station,
                    target: rx_station,
                }
            );
        }
    }

    /// A station goes silent (permanently, or until a scheduled
    /// recovery): its queued and planned packets die with it (accounted
    /// as `StationFailed` drops); in-flight PHY activity is allowed to
    /// drain so the interference bookkeeping stays exact.
    fn on_station_fail(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            return;
        }
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::StationFailed { station: s }
        );
        self.take_down_station(s, now, queue, LossCause::StationFailed);
    }

    /// Shared teardown for crashes and clean departures: the station
    /// leaves the air, its queued and planned packets die with it
    /// (accounted with `cause`), and eviction votes it held lapse.
    fn take_down_station(
        &mut self,
        s: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
        cause: LossCause,
    ) {
        self.alive[s] = false;
        self.down_since[s] = Some(now);
        let st = &mut self.stations[s];
        let mut lost: Vec<Packet> = Vec::new();
        for (_, q) in std::mem::take(&mut st.queues) {
            lost.extend(q);
        }
        self.track_queue(now, -(lost.len() as f64));
        let st = &mut self.stations[s];
        lost.extend(
            std::mem::take(&mut st.pending_tx)
                .into_values()
                .map(|p| p.packet),
        );
        st.reservations.clear();
        st.attempts.clear();
        st.retry_pending = false;
        // The dead station's own eviction votes lapse with it.
        let voted: Vec<StationId> = st
            .liveness
            .iter()
            .filter(|(_, h)| h.evicted)
            .map(|(&nb, _)| nb)
            .collect();
        st.liveness.clear();
        for p in lost {
            self.settle_drop(&p, cause);
        }
        let mut any_lapsed = false;
        for nb in voted {
            self.evicted_by[nb] -= 1;
            if self.evicted_by[nb] == 0 {
                any_lapsed = true;
                if let Some(t0) = self.recover_mark[nb].take() {
                    self.metrics.time_to_heal.add(now.since(t0).as_secs_f64());
                }
            }
        }
        if any_lapsed && !self.distributed() {
            self.rebuild_routes(now, queue);
        }
    }

    /// A crashed station reboots: fresh clock and schedule (volatile
    /// state is gone), a two-way rejoin handshake re-seeds clock models
    /// on both sides, and stations that planned transmissions against the
    /// pre-reboot schedule re-plan them.
    fn on_station_recover(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if self.alive[s] {
            return;
        }
        self.metrics.stations_recovered += 1;
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::StationRecovered { station: s }
        );
        self.revive_station(s, now, queue);
    }

    /// Shared power-up for reboots and churn re-admissions: fresh clock
    /// and schedule (volatile state is gone), a two-way rejoin handshake
    /// re-seeding clock models on both sides, routing readmission per the
    /// heal mode, and an arrival-process restart.
    fn revive_station(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        self.alive[s] = true;
        self.boot_epoch[s] += 1;
        self.down_since[s] = None;
        let clock = StationClock::random(&mut self.rng_faults, self.cfg.clock.max_ppm);
        self.clocks[s] = clock;
        self.stations[s].schedule = StationSchedule::new(self.cfg.sched, clock);
        // Rejoin handshake, both ways: the rebooted station re-seeds its
        // models of everything it tracks, and every live station tracking
        // it re-seeds its model (the old one predicts a schedule that no
        // longer exists) and re-plans any transmissions computed with it.
        let s_reading = self.clocks[s].reading(now);
        let tracked: Vec<StationId> = self.stations[s].models.keys().copied().collect();
        for nb in tracked {
            if !self.alive[nb] {
                continue;
            }
            let sample = ClockSample {
                mine: s_reading,
                theirs: self.clocks[nb].reading(now),
            };
            if let Some(m) = self.stations[s].models.get_mut(&nb) {
                m.reset(sample);
            }
        }
        for o in 0..self.stations.len() {
            if o == s || !self.alive[o] {
                continue;
            }
            let mine = self.clocks[o].reading(now);
            if let Some(m) = self.stations[o].models.get_mut(&s) {
                m.reset(ClockSample {
                    mine,
                    theirs: s_reading,
                });
                self.cancel_plans(o, now);
                self.try_schedule(o, now, queue);
            }
        }
        self.recover_mark[s] = if self.cfg.heal.mode == HealMode::Oracle && !self.distributed() {
            Some(now)
        } else {
            // Local/distributed healing only "heals" what some station
            // noticed was broken.
            (self.evicted_by[s] > 0).then_some(now)
        };
        if self.distributed() {
            // Volatile routing state is gone with the reboot.
            self.reset_dv_state(s, now, queue);
        } else if self.cfg.heal.mode == HealMode::Local {
            self.rebuild_routes(now, queue);
        }
        // Restart the arrival process if the pre-crash chain died out.
        if !self.arrivals_live[s] && self.cfg.traffic.arrivals_per_station_per_sec > 0.0 {
            let dt = self.next_interarrival(s, now);
            let next = now + dt;
            if next <= self.end {
                queue.schedule(next, Event::NextArrival { station: s });
                self.arrivals_live[s] = true;
            }
        }
    }

    /// Two-phase PHY move: stash the movers' reception state against the
    /// old geometry, relocate them in the gain backend (and the position
    /// mirror), then re-attach and recompute only the affected receptions
    /// — see `SinrTracker::begin_moves`. `movers` must be ascending.
    fn apply_moves(&mut self, movers: &[StationId], dests: &[Point], now: Time) {
        self.tracker.begin_moves(movers);
        for (&s, &to) in movers.iter().zip(dests) {
            self.gains.relocate(s, to);
            self.positions[s] = to;
        }
        self.tracker.finish_moves();
        self.metrics.station_moves += movers.len() as u64;
        parn_sim::counter_inc!("core.station_moves", movers.len() as u64);
        for &s in movers {
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Debug,
                parn_sim::trace::TraceEvent::StationMoved { station: s }
            );
        }
    }

    /// Rebuild the gravity destination sampler over the moved positions.
    /// The sampler is derived state (its draws live in the traffic RNG
    /// stream), so rebuilding it costs no randomness.
    fn rebuild_gravity(&mut self) {
        if self.gravity.is_none() {
            return;
        }
        let exponent = match &self.cfg.traffic.dest {
            DestPolicy::Gravity { exponent } => *exponent,
            _ => return,
        };
        let reach = 1.0 / self.usable_gain.0.sqrt();
        let r_max = (2.0 * self.region_radius).max(2.0 * reach);
        self.gravity = Some(GravitySampler::new(&self.positions, exponent, reach, r_max));
    }

    /// Distributed routing under motion: re-derive the physical link set
    /// from the moved geometry and feed each station's private state the
    /// diff — lost links fail (poisoning routes through them), new links
    /// restore first-hand (hold-down exempt), surviving links re-cost in
    /// place without triggering hold-down.
    fn refresh_dv_after_motion(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        let n = self.stations.len();
        let tx_ok = self.alive.clone();
        let rx_ok: Vec<bool> = (0..n)
            .map(|j| self.alive[j] && self.evicted_by[j] == 0)
            .collect();
        let graph = EnergyGraph::from_model_masked(&*self.gains, self.usable_gain, &tx_ok, &rx_ok);
        for s in 0..n {
            // Keep the readmission baseline at the current geometry, for
            // dead stations too: a later reboot must re-measure today's
            // links, not the boot-time ones.
            self.dv_links[s] = graph.neighbors(s).to_vec();
            if !self.alive[s] {
                continue;
            }
            let fresh: BTreeMap<StationId, f64> = graph.neighbors(s).iter().copied().collect();
            let old: Vec<(StationId, f64)> =
                self.dv[s].links().iter().map(|(&nb, &c)| (nb, c)).collect();
            let mut changed = false;
            for &(nb, c) in &old {
                match fresh.get(&nb) {
                    None => {
                        self.on_link_failed(s, nb, now, queue);
                        changed = true;
                    }
                    Some(&nc) if nc != c => {
                        self.dv[s].update_link_cost(nb, nc);
                        changed = true;
                    }
                    Some(_) => {}
                }
            }
            let mine = self.clocks[s].reading(now);
            for (&nb, &c) in &fresh {
                if old.iter().any(|&(o, _)| o == nb) {
                    continue;
                }
                self.dv[s].restore_link(nb, c);
                // A brand-new link neighbour needs a clock model before
                // any advertisement can be planned to it.
                let theirs = self.clocks[nb].reading(now);
                self.stations[s].models.entry(nb).or_insert_with(|| {
                    RemoteClockModel::from_first_sample(ClockSample { mine, theirs })
                });
                changed = true;
            }
            if changed {
                self.after_dv_change(s, now, queue);
            }
            // Even with the link set unchanged, moved geometry re-costs
            // gains: §7.3 protection and worst-case power re-budget.
            self.refresh_station_routing(s, now, true);
        }
    }

    /// A motion epoch: advance every live station along the configured
    /// model, apply the moves through the two-phase PHY protocol, and
    /// re-derive everything position-dependent (routes, §7.3 protection,
    /// gravity sampling).
    fn on_motion_epoch(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        let Some(mc) = self.cfg.mobility else {
            return;
        };
        let dt = mc.epoch.as_secs_f64();
        let n = self.stations.len();
        let mut movers: Vec<StationId> = Vec::new();
        let mut dests: Vec<Point> = Vec::new();
        for s in 0..n {
            if !self.alive[s] {
                continue;
            }
            let p = self.positions[s];
            let to = match mc.model {
                MobilityModel::RandomWaypoint { speed } => {
                    let step = speed * dt;
                    let target = self.mob_target[s];
                    let (dx, dy) = (target.x - p.x, target.y - p.y);
                    let dist = dx.hypot(dy);
                    if dist <= step {
                        // Arrived: land on the waypoint (the leftover step
                        // is the model's dwell) and draw the next leg's
                        // target for the following epoch.
                        self.mob_target[s] =
                            uniform_in_disk(&mut self.rng_mobility, self.region_radius);
                        target
                    } else {
                        Point::new(p.x + dx / dist * step, p.y + dy / dist * step)
                    }
                }
                MobilityModel::RandomWalk { speed } => {
                    let theta = self.rng_mobility.next_f64() * std::f64::consts::TAU;
                    let step = speed * dt;
                    let (x, y) = (p.x + step * theta.cos(), p.y + step * theta.sin());
                    let r = x.hypot(y);
                    if r > self.region_radius {
                        // Bounded walk: radial clamp to the region rim.
                        let f = self.region_radius / r;
                        Point::new(x * f, y * f)
                    } else {
                        Point::new(x, y)
                    }
                }
            };
            if to != p {
                movers.push(s);
                dests.push(to);
            }
        }
        if !movers.is_empty() {
            self.apply_moves(&movers, &dests, now);
            if self.distributed() {
                self.refresh_dv_after_motion(now, queue);
            } else {
                self.rebuild_routes(now, queue);
            }
            self.rebuild_gravity();
        }
        self.metrics.motion_epochs += 1;
        parn_sim::counter_inc!("core.motion_epochs");
        let next = now + mc.epoch;
        if next <= self.end {
            queue.schedule(next, Event::MotionEpoch);
        }
    }

    /// Injection point of one scheduled churn event.
    fn on_churn_step(&mut self, index: usize, now: Time, queue: &mut EventQueue<Event>) {
        let ev = self.cfg.churn.events[index];
        match ev.kind {
            ChurnKind::Leave { .. } => self.on_station_leave(ev.station, now, queue),
            ChurnKind::Join { pos } => self.on_station_join(ev.station, pos, now, queue),
        }
    }

    /// A clean departure: same teardown as a crash, but the packets that
    /// die with the station are accounted as `Departed`, not failures.
    fn on_station_leave(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if !self.alive[s] {
            return;
        }
        self.metrics.leaves += 1;
        parn_sim::counter_inc!("core.leaves");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::StationLeft { station: s }
        );
        self.take_down_station(s, now, queue, LossCause::Departed);
    }

    /// A re-admission at a fresh position: the dormant station relocates
    /// *before* it re-enters the air (any reception still draining at or
    /// from it is recomputed against the new geometry), then powers up
    /// through the shared rejoin path.
    fn on_station_join(
        &mut self,
        s: StationId,
        pos: Point,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if self.alive[s] {
            return;
        }
        self.apply_moves(&[s], &[pos], now);
        self.mob_target[s] = pos;
        self.metrics.joins += 1;
        parn_sim::counter_inc!("core.joins");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::StationJoined { station: s }
        );
        self.revive_station(s, now, queue);
        if self.distributed() {
            // The joiner moved, so its link set — and its new neighbours'
            // — comes from the current geometry, not the boot-time one.
            self.refresh_dv_after_motion(now, queue);
        }
        self.rebuild_gravity();
    }

    /// A timed-outage departure ends: power back up at the position the
    /// station left from.
    fn on_churn_return(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        if self.alive[s] {
            return;
        }
        self.metrics.joins += 1;
        parn_sim::counter_inc!("core.joins");
        parn_sim::trace_event!(
            self.tracer,
            now,
            parn_sim::trace::Level::Warn,
            parn_sim::trace::TraceEvent::StationJoined { station: s }
        );
        self.revive_station(s, now, queue);
    }

    /// An instantaneous discontinuity in a station's clock. The station
    /// notices its own jump: it rebuilds its schedule, re-plans pending
    /// transmissions, and shifts the "mine" axis of every clock model it
    /// holds. Its *neighbours'* models of it are now stale — that
    /// lingering staleness is the injected fault, healed by resync
    /// (oracle sync), packet headers (piggyback), or evict-and-readmit
    /// (local healing).
    fn on_clock_jump(
        &mut self,
        s: StationId,
        ticks: i64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.alive[s] {
            return;
        }
        self.clocks[s].offset = self.clocks[s].offset.wrapping_add_signed(ticks);
        let clock = self.clocks[s];
        self.stations[s].schedule = StationSchedule::new(self.cfg.sched, clock);
        self.cancel_plans(s, now);
        for m in self.stations[s].models.values_mut() {
            m.rebase_mine(ticks);
        }
        self.try_schedule(s, now, queue);
    }

    /// A jammer window ends: silence the extra transmitter.
    fn on_jammer_off(&mut self, index: usize) {
        if let Some(tx) = self.jammer_tx.remove(&index) {
            self.tracker.end_transmission(tx);
        }
    }

    /// Cancel every outstanding plan at `o` and put the packets back in
    /// its queues; the caller re-runs the MAC with refreshed clock state.
    /// The orphaned `TxStart` events no-op (their plans are gone).
    fn cancel_plans(&mut self, o: StationId, now: Time) {
        let plans = std::mem::take(&mut self.stations[o].pending_tx);
        if plans.is_empty() {
            return;
        }
        let airtime = self.airtime;
        {
            let st = &mut self.stations[o];
            for plan in plans.values() {
                let end = plan.start + airtime;
                st.reservations
                    .retain(|&(rs, re)| !(rs == plan.start && re == end));
            }
        }
        for (_, plan) in plans {
            self.enqueue_tracked(o, plan.next_hop, plan.packet, now);
        }
    }

    /// Local-healing failure observation: another consecutive failed hop
    /// towards `nh`. Crossing `suspect_after` starts suspicion; staying
    /// suspected past `evict_timeout` evicts the neighbour from the
    /// routing view and repairs routes around it.
    fn observe_hop_failure(
        &mut self,
        s: StationId,
        nh: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.heal_active() || !self.alive[s] {
            return;
        }
        let suspect_after = self.cfg.heal.suspect_after;
        let evict_timeout = self.cfg.heal.evict_timeout;
        let flap_damping = self.cfg.heal.flap_damping;
        let flap_half_life = self.cfg.heal.flap_half_life;
        let mut suspected = false;
        let mut evicted = false;
        {
            let h = self.stations[s].liveness.entry(nh).or_default();
            if h.evicted {
                return;
            }
            h.consecutive_failures += 1;
            if h.consecutive_failures >= suspect_after {
                match h.suspected_at {
                    None => {
                        h.suspected_at = Some(now);
                        suspected = true;
                    }
                    Some(t0) if now.since(t0) >= evict_timeout => {
                        h.evicted = true;
                        evicted = true;
                        if flap_damping {
                            // Each eviction adds a penalty point to the
                            // decaying flap score; crossing the
                            // suppression threshold keeps the neighbour
                            // out until the score cools off.
                            h.flap_penalty = decayed_penalty(h, now, flap_half_life) + 1.0;
                            h.flap_updated = Some(now);
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        if suspected {
            self.metrics.neighbors_suspected += 1;
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Info,
                parn_sim::trace::TraceEvent::NeighborSuspected {
                    observer: s,
                    suspect: nh,
                }
            );
        }
        if evicted {
            self.metrics.neighbors_evicted += 1;
            parn_sim::counter_inc!("core.neighbors_evicted");
            parn_sim::trace_event!(
                self.tracer,
                now,
                parn_sim::trace::Level::Warn,
                parn_sim::trace::TraceEvent::NeighborEvicted {
                    observer: s,
                    evicted: nh,
                }
            );
            self.evicted_by[nh] += 1;
            if self.evicted_by[nh] == 1 {
                // First evictor: this is the network's detection moment.
                if !self.alive[nh] {
                    if let Some(t0) = self.down_since[nh].take() {
                        self.metrics.time_to_detect.add(now.since(t0).as_secs_f64());
                    }
                }
            }
            if self.distributed() {
                // The evictor repairs only its own state; poisoned
                // reverse carries the withdrawal outward.
                self.on_link_failed(s, nh, now, queue);
            } else if self.evicted_by[nh] == 1 {
                self.rebuild_routes(now, queue);
            }
        }
    }

    /// Local-healing liveness observation: `observer` heard `subject`
    /// (received from it, or got the implicit ack of a successful hop to
    /// it). Good standing is restored; if the subject was evicted, the
    /// reachability update floods and every eviction of it lifts.
    fn observe_alive(
        &mut self,
        observer: StationId,
        subject: StationId,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if !self.heal_active() {
            return;
        }
        let Some(h) = self.stations[observer].liveness.get_mut(&subject) else {
            return;
        };
        h.consecutive_failures = 0;
        h.suspected_at = None;
        if h.evicted {
            self.readmit_everywhere(subject, now, queue);
        }
    }

    /// A station heard an evicted neighbour again: the reachability
    /// update floods (modelled instantly, like the global route rebuild
    /// it triggers), lifting every eviction of `subject` and re-seeding
    /// its former evictors' (possibly reboot-stale) clock models of it.
    fn readmit_everywhere(&mut self, subject: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let theirs = self.clocks[subject].reading(now);
        let flap_damping = self.cfg.heal.flap_damping;
        let flap_suppress = self.cfg.heal.flap_suppress;
        let flap_half_life = self.cfg.heal.flap_half_life;
        let mut lifted: Vec<StationId> = Vec::new();
        let mut suppressed: u64 = 0;
        let mut remaining: u32 = 0;
        for o in 0..self.stations.len() {
            if o == subject || !self.alive[o] {
                continue;
            }
            let mine = self.clocks[o].reading(now);
            let Some(h) = self.stations[o].liveness.get_mut(&subject) else {
                continue;
            };
            if !h.evicted {
                continue;
            }
            if flap_damping && decayed_penalty(h, now, flap_half_life) >= flap_suppress {
                // Flap damping: the neighbour was heard, but its
                // suspect→evict→readmit churn has not cooled off yet —
                // keep this observer's eviction standing until the
                // penalty decays below the threshold.
                suppressed += 1;
                remaining += 1;
                continue;
            }
            h.evicted = false;
            h.consecutive_failures = 0;
            h.suspected_at = None;
            lifted.push(o);
            let sample = ClockSample { mine, theirs };
            match self.stations[o].models.get_mut(&subject) {
                Some(m) => m.reset(sample),
                None => {
                    self.stations[o]
                        .models
                        .insert(subject, RemoteClockModel::from_first_sample(sample));
                }
            }
        }
        self.metrics.neighbors_readmitted += lifted.len() as u64;
        self.metrics.readmissions_suppressed += suppressed;
        self.evicted_by[subject] = remaining;
        if lifted.is_empty() {
            // Every standing eviction was flap-suppressed: nothing
            // changed, so there is nothing to rebuild or advertise.
            return;
        }
        if self.distributed() {
            // The link comes back in each former evictor's own state
            // (first-hand knowledge, exempt from hold-down); the route
            // change propagates by advertisement, and the subject counts
            // as healed when the network next reconverges.
            for o in lifted {
                let Some(&(_, cost)) = self.dv_links[o].iter().find(|&&(nb, _)| nb == subject)
                else {
                    continue;
                };
                self.dv[o].restore_link(subject, cost);
                self.after_dv_change(o, now, queue);
            }
            return;
        }
        if self.evicted_by[subject] == 0 {
            if let Some(t0) = self.recover_mark[subject].take() {
                self.metrics.time_to_heal.add(now.since(t0).as_secs_f64());
            }
        }
        self.rebuild_routes(now, queue);
    }

    /// Rebuild the shared routing table over the currently usable
    /// topology: dead stations drop out entirely; evicted stations
    /// (local healing) stop receiving routed traffic but keep
    /// transmitting their own. Queued packets are re-pointed through the
    /// new table; packets whose destinations became unreachable are
    /// dropped (accounted). This is the *table-based* repair path only —
    /// in [`RouteMode::Distributed`] it is never called after a fault;
    /// reconvergence there is genuine, carried hop by hop through the
    /// advertisement exchange.
    fn rebuild_routes(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        debug_assert!(
            !self.distributed(),
            "rebuild_routes is the oracle repair; Distributed heals by exchange"
        );
        self.metrics.route_repairs += 1;
        parn_sim::counter_inc!("core.route_repairs");
        let n = self.stations.len();
        let tx_ok = self.alive.clone();
        let rx_ok: Vec<bool> = (0..n)
            .map(|j| self.alive[j] && self.evicted_by[j] == 0)
            .collect();
        let graph = EnergyGraph::from_model_masked(&*self.gains, self.usable_gain, &tx_ok, &rx_ok);
        self.routes = match self.cfg.route_mode {
            RouteMode::OneHop => RouteTable::one_hop(&graph),
            RouteMode::Greedy => RouteTable::greedy(&graph, &self.positions),
            _ => RouteTable::centralized(&graph),
        };
        if matches!(self.cfg.traffic.dest, DestPolicy::UniformAll) {
            for s in 0..n {
                self.reachable[s] = if self.alive[s] {
                    (0..n)
                        .filter(|&d| d != s && rx_ok[d] && self.routes.reachable(s, d))
                        .collect()
                } else {
                    Vec::new()
                };
            }
        }
        for s in 0..n {
            if !self.alive[s] {
                // Like `reachable[s]` above: a station that is down keeps
                // no neighbours, so a revival before the next rebuild
                // cannot address one the current table cannot route to.
                self.stations[s].routing_neighbors.clear();
                continue;
            }
            let rn = self.routes.routing_neighbors(s);
            // Recompute the §7.3 protected set for the new worst-case
            // power — fully, not by filtering the old set: a recovered
            // station must be re-protected, not stay forgotten.
            let max_power_used = rn
                .iter()
                .map(|&nb| self.power.tx_power(self.gains.gain(nb, s)).value())
                .fold(0.0f64, f64::max);
            let mut protected = Vec::new();
            if self.cfg.protection.enabled && max_power_used > 0.0 {
                let thr = parn_phys::Gain(
                    self.cfg.protection.significance_fraction * self.interference_budget.value()
                        / max_power_used,
                );
                protected = self.gains.hearable_by(s, thr);
                protected.retain(|&p| p != s && self.alive[p]);
            }
            // Clock models for any new next hops or protected stations,
            // bootstrapped with a rendezvous now.
            let mine = self.clocks[s].reading(now);
            for &nb in rn.iter().chain(protected.iter()) {
                let theirs = self.clocks[nb].reading(now);
                self.stations[s].models.entry(nb).or_insert_with(|| {
                    RemoteClockModel::from_first_sample(ClockSample { mine, theirs })
                });
            }
            let queued: Vec<Packet> = {
                let st = &mut self.stations[s];
                st.routing_neighbors = rn;
                st.protected = protected;
                std::mem::take(&mut st.queues)
                    .into_values()
                    .flatten()
                    .collect()
            };
            self.track_queue(now, -(queued.len() as f64));
            for p in queued {
                if p.kind == PacketKind::Hello {
                    // Hellos are pinned to their addressee; keep one only
                    // if the addressee is still a direct neighbour, else
                    // let the next hello round regenerate it.
                    if self.routes.next_hop(s, p.dst) == Some(p.dst) {
                        self.enqueue_tracked(s, p.dst, p, now);
                    }
                    continue;
                }
                match self.routes.next_hop(s, p.dst) {
                    Some(next) => self.enqueue_tracked(s, next, p, now),
                    None => self.settle_drop(&p, LossCause::Unroutable),
                }
            }
            self.try_schedule(s, now, queue);
        }
    }

    /// Oracle-mode route repair event: sample detect/heal latencies for
    /// the outages this repair notices, then rebuild. Inert under
    /// distributed routing (and never scheduled there).
    fn on_reroute(&mut self, now: Time, queue: &mut EventQueue<Event>) {
        if self.distributed() {
            return;
        }
        for s in 0..self.stations.len() {
            if !self.alive[s] {
                if let Some(t0) = self.down_since[s].take() {
                    self.metrics.time_to_detect.add(now.since(t0).as_secs_f64());
                }
            } else if let Some(t0) = self.recover_mark[s].take() {
                self.metrics.time_to_heal.add(now.since(t0).as_secs_f64());
            }
        }
        self.rebuild_routes(now, queue);
    }
}

impl Model for Network {
    type Event = Event;

    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::NextArrival { station } => self.on_arrival(station, now, queue),
            Event::MacRetry { station } => {
                self.stations[station].retry_pending = false;
                self.try_schedule(station, now, queue);
            }
            Event::TxStart { station } => self.on_tx_start(station, now, queue),
            Event::TxEnd {
                station,
                tx,
                rx,
                packet,
                next_hop,
                tx_epoch,
                rx_epoch,
            } => self.on_tx_end(
                station, tx, rx, packet, next_hop, tx_epoch, rx_epoch, now, queue,
            ),
            Event::Resync => self.on_resync(now, queue),
            Event::HelloRound { station } => self.on_hello_round(station, now, queue),
            Event::Fault { index } => self.on_fault(index, now, queue),
            Event::StationRecover { station } => self.on_station_recover(station, now, queue),
            Event::JammerOff { index } => self.on_jammer_off(index),
            Event::PartitionHeal { index } => self.on_partition_heal(index, now),
            Event::ByzStep { index, on } => self.on_byz_step(index, on, now, queue),
            Event::ByzOff { index } => self.on_byz_off(index),
            Event::RJamOff { seq } => self.on_rjam_off(seq),
            Event::RetryRelease {
                station,
                packet,
                epoch,
            } => self.on_retry_release(station, packet, epoch, now, queue),
            Event::Reroute => self.on_reroute(now, queue),
            Event::RouteUpdateRound { station, periodic } => {
                self.on_route_update_round(station, periodic, now, queue)
            }
            Event::ConvergenceCheck => self.on_convergence_check(now, queue),
            Event::MotionEpoch => self.on_motion_epoch(now, queue),
            Event::ChurnStep { index } => self.on_churn_step(index, now, queue),
            Event::ChurnReturn { station } => self.on_churn_return(station, now, queue),
        }
    }
}

/// Small helper: `pop_front` that tolerates being called through
/// `and_then`.
trait VecDequeFront<T> {
    fn pop_front_checked(&mut self) -> Option<T>;
}
impl<T> VecDequeFront<T> for std::collections::VecDeque<T> {
    fn pop_front_checked(&mut self) -> Option<T> {
        self.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(n: usize, seed: u64) -> NetConfig {
        let mut cfg = NetConfig::paper_default(n, seed);
        cfg.run_for = Duration::from_secs(6);
        cfg.warmup = Duration::from_secs(1);
        cfg.traffic.arrivals_per_station_per_sec = 1.0;
        cfg
    }

    #[test]
    fn small_network_delivers_without_collisions() {
        let m = Network::run(small_cfg(30, 42));
        assert!(m.generated > 50, "generated {}", m.generated);
        assert!(m.delivered > 0, "nothing delivered");
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0, "{}", m.summary());
        assert!(m.hop_success_rate() > 0.999, "{}", m.summary());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Network::run(small_cfg(20, 7));
        let b = Network::run(small_cfg(20, 7));
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.hop_attempts, b.hop_attempts);
        assert!((a.e2e_delay.mean() - b.e2e_delay.mean()).abs() < 1e-12);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Network::run(small_cfg(20, 1));
        let b = Network::run(small_cfg(20, 2));
        assert_ne!(
            (a.generated, a.delivered),
            (b.generated, b.delivered),
            "two seeds produced identical runs"
        );
    }

    #[test]
    fn neighbor_traffic_is_single_hop() {
        let mut cfg = small_cfg(25, 5);
        cfg.traffic.dest = DestPolicy::Neighbors;
        let m = Network::run(cfg);
        assert!(m.delivered > 0);
        assert!((m.hops_per_packet.mean() - 1.0).abs() < 1e-9);
        assert_eq!(m.collision_losses(), 0);
    }

    #[test]
    fn gravity_traffic_is_multihop_and_conserved() {
        let mut cfg = small_cfg(60, 19);
        cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
        let m = Network::run(cfg);
        assert!(m.generated > 50, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        // Distance-weighted destinations must actually exercise relaying.
        assert!(
            m.hops_per_packet.mean() > 1.2,
            "mean hops {}",
            m.hops_per_packet.mean()
        );
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn gravity_over_greedy_routes_at_scale_shape() {
        // The metro-scale pairing: greedy geographic forwarding carrying
        // gravity traffic, no dense table anywhere.
        let mut cfg = small_cfg(60, 23);
        cfg.traffic.dest = DestPolicy::Gravity { exponent: 2.0 };
        cfg.route_mode = RouteMode::Greedy;
        let m = Network::run(cfg);
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.hops_per_packet.mean() > 1.2, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn hotspot_traffic_concentrates_on_sinks() {
        let mut cfg = small_cfg(40, 29);
        cfg.traffic.dest = DestPolicy::Hotspot {
            sinks: 3,
            skew: 1.0,
        };
        let m = Network::run(cfg);
        assert!(m.delivered > 0, "{}", m.summary());
        let sink_rx: u64 = m.per_station_delivered[..3].iter().sum();
        let other_rx: u64 = m.per_station_delivered[3..].iter().sum();
        assert_eq!(other_rx, 0, "non-sink stations received final traffic");
        assert!(sink_rx > 0);
        // Zipf skew: sink 0 is the most popular.
        assert!(
            m.per_station_delivered[0] >= m.per_station_delivered[2],
            "sink 0 {} < sink 2 {}",
            m.per_station_delivered[0],
            m.per_station_delivered[2]
        );
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn onoff_source_preserves_mean_rate_but_bursts() {
        let mut steady = small_cfg(30, 31);
        steady.run_for = Duration::from_secs(12);
        let mut bursty = steady.clone();
        bursty.traffic.source = SourceModel::OnOff {
            on_mean_s: 0.3,
            off_mean_s: 0.9,
        };
        let ms = Network::run(steady);
        let mb = Network::run(bursty);
        // Same long-run mean arrival rate (within Poisson noise)...
        let ratio = mb.generated as f64 / ms.generated as f64;
        assert!((0.7..1.3).contains(&ratio), "rate ratio {ratio}");
        // ...but clumped arrivals queue deeper.
        assert!(
            mb.peak_queue_depth >= ms.peak_queue_depth,
            "burst peak {} < steady peak {}",
            mb.peak_queue_depth,
            ms.peak_queue_depth
        );
        assert_eq!(mb.collision_losses(), 0, "{}", mb.summary());
        assert!(mb.conservation_holds(), "{}", mb.summary());
    }

    #[test]
    fn flows_policy_routes_specific_pairs() {
        let mut cfg = small_cfg(12, 9);
        cfg.traffic.dest = DestPolicy::Flows(vec![(0, 5), (3, 8)]);
        let m = Network::run(cfg);
        assert!(m.generated > 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn delays_exceed_scheduling_wait_floor() {
        // Mean per-hop wait must be ≥ 1 slot-ish; e2e delay at least that.
        let m = Network::run(small_cfg(30, 11));
        let mean_wait = m.hop_wait_slots.mean().expect("no waits recorded");
        assert!(mean_wait > 0.5, "mean wait {mean_wait} slots");
        assert!(m.e2e_delay.mean() > 0.005, "e2e {}", m.e2e_delay.mean());
    }

    #[test]
    fn zero_traffic_runs_clean() {
        let mut cfg = small_cfg(10, 3);
        cfg.traffic.arrivals_per_station_per_sec = 0.0;
        let m = Network::run(cfg);
        assert_eq!(m.generated, 0);
        assert_eq!(m.delivered, 0);
        assert_eq!(m.total_losses(), 0);
    }

    #[test]
    fn clock_drift_tolerated_with_guard() {
        let mut cfg = small_cfg(20, 13);
        cfg.clock.max_ppm = 100.0;
        let m = Network::run(cfg);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
        assert!(m.delivered > 0);
    }

    #[test]
    fn station_failure_is_survived_and_accounted() {
        let mut cfg = small_cfg(40, 17);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults =
            FaultPlan::crashes([(Duration::from_secs(4), 3), (Duration::from_secs(4), 11)]);
        let m = Network::run(cfg);
        // Traffic keeps flowing after the heal.
        assert!(m.delivered > 100, "{}", m.summary());
        // The scheme itself stays collision-free throughout.
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
        assert_eq!(m.faults_injected, 2);
        assert!(m.time_to_detect.count() == 2, "{}", m.summary());
        // Every undelivered packet is accounted: both ledgers balance
        // exactly.
        assert!(m.conservation_holds(), "{}", m.summary());
        assert!(m.delivered + m.total_drops() <= m.generated);
        assert_eq!(
            m.hop_attempts,
            m.hop_successes + m.total_losses(),
            "{}",
            m.summary()
        );
        // Losses carry failure-related causes only; drops settle as
        // holder-death, unroutability, or an exhausted retry budget.
        for (cause, count) in &m.losses {
            assert!(
                matches!(cause, crate::packet::LossCause::StationFailed) || *count == 0,
                "unexpected loss cause {cause:?} x{count}"
            );
        }
        for (cause, count) in &m.drops {
            assert!(
                matches!(
                    cause,
                    crate::packet::LossCause::StationFailed
                        | crate::packet::LossCause::Unroutable
                        | crate::packet::LossCause::RetriesExhausted
                ) || *count == 0,
                "unexpected drop cause {cause:?} x{count}"
            );
        }
    }

    #[test]
    fn failure_of_a_relay_reroutes_traffic() {
        // Find a heavily-used relay and kill it; deliveries must continue.
        let mut cfg = small_cfg(40, 19);
        cfg.run_for = Duration::from_secs(14);
        let probe = Network::new(cfg.clone());
        // Busiest relay = station with most routing dependents.
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        assert!(deps[relay] > 0, "probe found no relay at all");
        cfg.faults = FaultPlan::none().crash(Duration::from_secs(5), relay);
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0);
    }

    #[test]
    fn crash_recover_rejoins_and_heals() {
        let mut cfg = small_cfg(40, 21);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), 7, Duration::from_secs(3));
        let m = Network::run(cfg);
        assert_eq!(m.stations_recovered, 1, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn local_heal_detects_evicts_and_readmits() {
        let mut cfg = small_cfg(40, 19);
        cfg.run_for = Duration::from_secs(16);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.heal = crate::faults::HealConfig::local();
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), relay, Duration::from_secs(4));
        let m = Network::run(cfg);
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.neighbors_readmitted > 0, "{}", m.summary());
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn jammer_losses_are_attributed_not_collisions() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().jam(
            Duration::from_secs(4),
            anchor,
            Duration::from_secs(2),
            parn_phys::PowerW(0.01),
        );
        let m = Network::run(cfg);
        let jammed = m
            .losses
            .get(&crate::packet::LossCause::Jammed)
            .copied()
            .unwrap_or(0);
        assert!(
            jammed > 0,
            "jammer caused no attributed losses: {}",
            m.summary()
        );
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn partition_severs_heals_and_accounts_exactly() {
        let mut cfg = small_cfg(40, 33);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        // A vertical shadowing cut through the middle of the disk from
        // 4 s to 8 s: regions sever without any station dying.
        cfg.faults = FaultPlan::none().partition(
            Duration::from_secs(4),
            crate::faults::CutAxis::Vertical,
            0.0,
            40.0,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        assert_eq!(m.faults_injected, 1, "{}", m.summary());
        assert_eq!(m.partitions_healed, 1, "{}", m.summary());
        assert_eq!(m.partition_healed_at.count(), 1);
        assert!(
            (m.partition_healed_at.mean() - 8.0).abs() < 1e-9,
            "healed at {}",
            m.partition_healed_at.mean()
        );
        assert!(m.delivered > 100, "{}", m.summary());
        // Unlike every static-topology scenario, a shadowing transient can
        // legitimately produce collisions: transmissions planned under one
        // gain field land under another (receptions in flight when the cut
        // activates lose their link budget, and for the reroute-delay
        // window after the heal stations still honour cut-era routes and
        // §7.3 protected sets). The no-collision guarantee is a property
        // of a static field; what must survive a partition is exact
        // accounting, not zero collisions.
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // No station died: every loss is environmental, none fatal.
        assert_eq!(m.stations_recovered, 0);
    }

    #[test]
    fn partition_plan_must_be_set_before_build() {
        let cfg = small_cfg(20, 3);
        let mut net = Network::new(cfg);
        let plan = FaultPlan::none().partition(
            Duration::from_secs(1),
            crate::faults::CutAxis::Horizontal,
            0.0,
            30.0,
            Duration::from_secs(1),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            net.set_fault_plan(plan);
        }));
        assert!(err.is_err(), "late partition plan must be rejected");
    }

    #[test]
    fn violator_losses_are_attributed_not_collisions() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let rogue = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().byzantine(
            Duration::from_secs(4),
            rogue,
            ByzMode::Violator,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        let violations = m
            .losses
            .get(&crate::packet::LossCause::Violation)
            .copied()
            .unwrap_or(0);
        assert!(
            violations > 0,
            "violator caused no attributed losses: {}",
            m.summary()
        );
        assert!(m.violations_detected > 0);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn poisoner_is_detected_and_neutralized() {
        let mut cfg = small_cfg(40, 29);
        cfg.run_for = Duration::from_secs(14);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.route_mode = RouteMode::Distributed;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let rogue = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults = FaultPlan::none().byzantine(
            Duration::from_secs(4),
            rogue,
            ByzMode::Poisoner,
            Duration::from_secs(4),
        );
        let m = Network::run(cfg);
        assert!(
            m.violations_detected > 0,
            "no poisoned advertisements rejected: {}",
            m.summary()
        );
        // The defense holds: poisoned claims never enter routing state,
        // so delivery survives and the books stay exact.
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn reactive_jammer_respects_budget_and_is_attributed() {
        let mut cfg = small_cfg(40, 23);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        let budget = Duration::from_millis(250);
        cfg.faults = FaultPlan::none().reactive_jam(Duration::from_secs(3), anchor, budget, 0.5);
        let m = Network::run(cfg);
        assert!(m.reactive_jams > 0, "jammer never fired: {}", m.summary());
        assert!(
            m.jam_budget_spent_s <= budget.as_secs_f64() + 1e-9,
            "budget exceeded: spent {} of {}",
            m.jam_budget_spent_s,
            budget.as_secs_f64()
        );
        let jammed = m
            .losses
            .get(&crate::packet::LossCause::Jammed)
            .copied()
            .unwrap_or(0);
        assert!(jammed > 0, "bursts caused no losses: {}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn flap_damping_suppresses_jammer_driven_oscillation() {
        // A train of short, nearly-saturating reactive-jam bursts with
        // quiet gaps between them: each burst drives the trigger-happy
        // local healer to evict, each gap lets the neighbourhood be heard
        // and readmitted — classic route flapping. Flap damping holds the
        // eviction once the same observer has cycled the same neighbour
        // twice inside the half-life, so the readmission count drops and
        // suppressions appear.
        let run = |damping: bool| {
            let mut cfg = small_cfg(40, 23);
            cfg.run_for = Duration::from_secs(16);
            cfg.traffic.arrivals_per_station_per_sec = 2.0;
            cfg.heal = crate::faults::HealConfig::local();
            // Hello beacons + gossip give evictors a way to hear an
            // evicted neighbour again during the quiet gaps — without
            // them readmission depends on lucky traffic direction.
            cfg.clock.sync = crate::config::SyncMode::Piggyback {
                hello_interval: Duration::from_millis(250),
            };
            cfg.heal.suspect_after = 2;
            cfg.heal.evict_timeout = Duration::from_millis(40);
            cfg.heal.flap_damping = damping;
            // 1.5: a second eviction of the same neighbour within the
            // half-life is enough to hold the door shut (a fresh penalty
            // of 1+decayed tops out at 2.0 and decays from there, so a
            // threshold of 2.0 would demand three rapid-fire evictions).
            cfg.heal.flap_suppress = 1.5;
            cfg.heal.flap_half_life = Duration::from_secs(4);
            let probe = Network::new(cfg.clone());
            let deps = probe.routing_dependent_counts();
            let anchor = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
            let mut plan = FaultPlan::none();
            for burst in 0..4 {
                plan = plan.reactive_jam(
                    Duration::from_secs(2 + 2 * burst),
                    anchor,
                    Duration::from_millis(300),
                    0.95,
                );
            }
            cfg.faults = plan;
            Network::run(cfg)
        };
        let plain = run(false);
        let damped = run(true);
        assert_eq!(plain.readmissions_suppressed, 0);
        assert!(
            plain.neighbors_readmitted > 2,
            "jammer caused no readmission churn to damp: {}",
            plain.summary()
        );
        assert!(
            damped.readmissions_suppressed > 0,
            "damping never suppressed a readmission: {}",
            damped.summary()
        );
        assert!(
            damped.neighbors_readmitted < plain.neighbors_readmitted,
            "readmission churn not reduced: {} -> {}",
            plain.neighbors_readmitted,
            damped.neighbors_readmitted
        );
        for m in [&plain, &damped] {
            assert!(m.conservation_holds(), "{}", m.summary());
            assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        }
    }

    #[test]
    fn clock_jump_survives_with_accounting_intact() {
        let mut cfg = small_cfg(40, 27);
        cfg.run_for = Duration::from_secs(12);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.faults = FaultPlan::none().clock_jump(Duration::from_secs(4), 5, 2_500_000);
        let m = Network::run(cfg);
        assert_eq!(m.faults_injected, 1);
        assert!(m.delivered > 100, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
    }

    #[test]
    fn shadowed_propagation_still_collision_free() {
        let mut cfg = small_cfg(50, 23);
        cfg.shadowing_sigma_db = 8.0;
        // Shadowing can partition the graph; lower the usable bar a bit by
        // reaching farther.
        cfg.reach_factor = 3.0;
        let m = Network::run(cfg);
        assert!(m.delivered > 50, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0);
    }

    #[test]
    fn occupancy_metrics_are_sane() {
        let mut cfg = small_cfg(40, 47);
        cfg.traffic.arrivals_per_station_per_sec = 6.0;
        let m = Network::run(cfg);
        // Under load, queues are nonempty on average and bounded by
        // something sane; concurrency shows spatial reuse (> 1 tx at once
        // on average in a 40-station disk).
        assert!(m.mean_queue_depth > 0.1, "queue {}", m.mean_queue_depth);
        assert!(m.peak_queue_depth >= m.mean_queue_depth);
        assert!(
            m.mean_concurrent_tx > 1.0,
            "no spatial reuse? {}",
            m.mean_concurrent_tx
        );
        // Idle network: both near zero.
        let mut idle = small_cfg(10, 48);
        idle.traffic.arrivals_per_station_per_sec = 0.05;
        let mi = Network::run(idle);
        assert!(
            mi.mean_queue_depth < 0.5,
            "idle queue {}",
            mi.mean_queue_depth
        );
        assert!(mi.mean_concurrent_tx < 0.5);
    }

    #[test]
    fn tracer_records_mac_and_phy_events() {
        let mut cfg = small_cfg(12, 41);
        cfg.run_for = Duration::from_secs(2);
        cfg.warmup = Duration::from_millis(100);
        let mut net = Network::new(cfg).with_tracer(parn_sim::trace::Tracer::new(
            4096,
            parn_sim::trace::Level::Debug,
        ));
        let mut q = parn_sim::EventQueue::new();
        net.prime(&mut q);
        let end = Time::ZERO + Duration::from_secs(2);
        parn_sim::run(&mut net, &mut q, end);
        let mac_events = net.tracer().by_category("mac").len();
        let phy_events = net.tracer().by_category("phy").len();
        assert!(mac_events > 10, "no MAC events traced ({mac_events})");
        assert!(phy_events > 10, "no PHY events traced ({phy_events})");
        // Every PHY record is a typed hop outcome between valid stations.
        let n = net.alive.len();
        for r in net.tracer().by_category("phy") {
            match r.event {
                parn_sim::trace::TraceEvent::HopOutcome { src, dst, .. } => {
                    assert!(src < n && dst < n, "odd phy record: {}", r.event);
                }
                ref other => panic!("odd phy record: {other:?}"),
            }
        }
    }

    #[test]
    fn piggyback_sync_stays_collision_free_under_drift() {
        // The realistic maintenance mode: no oracle exchanges after boot,
        // clock models fed only by packet headers and hello beacons.
        let mut cfg = small_cfg(40, 37);
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_secs(2),
        };
        cfg.clock.max_ppm = 100.0;
        cfg.run_for = Duration::from_secs(12);
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert!(m.hellos_sent > 100, "hellos {}", m.hellos_sent);
        assert!(m.hellos_received > 0);
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert_eq!(m.schedule_violations, 0, "{}", m.summary());
    }

    #[test]
    fn piggyback_hellos_cost_airtime() {
        let mk = |sync| {
            let mut cfg = small_cfg(30, 39);
            cfg.traffic.arrivals_per_station_per_sec = 0.5;
            cfg.clock.sync = sync;
            Network::run(cfg)
        };
        let oracle = mk(crate::config::SyncMode::Oracle);
        let piggy = mk(crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        });
        let air = |m: &crate::metrics::Metrics| m.tx_airtime.iter().sum::<f64>();
        assert_eq!(oracle.hellos_sent, 0);
        assert!(piggy.hellos_sent > 0);
        assert!(
            air(&piggy) > air(&oracle) * 1.2,
            "hello overhead invisible: {} vs {}",
            air(&piggy),
            air(&oracle)
        );
        assert_eq!(piggy.collision_losses(), 0);
    }

    #[test]
    fn distributed_routing_runs_clean() {
        let mut cfg = small_cfg(40, 31);
        cfg.route_mode = RouteMode::Distributed;
        let m = Network::run(cfg);
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        // Costs agree with the centralized computation even if tie-broken
        // paths differ.
        let mut c_cfg = small_cfg(40, 31);
        c_cfg.route_mode = RouteMode::Centralized;
        let dist = Network::new({
            let mut c = small_cfg(40, 31);
            c.route_mode = RouteMode::Distributed;
            c
        });
        let cent = Network::new(c_cfg);
        for s in 0..40 {
            for d in 0..40 {
                let (a, b) = (dist.routes().cost(s, d), cent.routes().cost(s, d));
                if a.is_finite() || b.is_finite() {
                    assert!((a - b).abs() < 1e-9, "{s}->{d}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn idle_neighbor_crash_detected_without_data_traffic() {
        // ROADMAP item 2 (piggyback liveness): with zero data traffic,
        // hello beacons and their gossip are the only liveness evidence.
        // A crashed station must still be suspected, evicted, and — once
        // it reboots and beacons again — readmitted.
        let mut cfg = small_cfg(30, 53);
        cfg.run_for = Duration::from_secs(16);
        cfg.traffic.arrivals_per_station_per_sec = 0.0;
        cfg.heal = crate::faults::HealConfig::local();
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        };
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(4), relay, Duration::from_secs(5));
        let m = Network::run(cfg);
        assert_eq!(m.generated, 0, "test must run without data traffic");
        assert!(m.neighbors_suspected > 0, "{}", m.summary());
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.neighbors_readmitted > 0, "{}", m.summary());
        assert_eq!(m.stations_recovered, 1);
    }

    #[test]
    fn hello_gossip_spreads_liveness_evidence() {
        // Hellos under local healing carry last-heard gossip; receivers
        // adopt newer timestamps, so second-hand evidence spreads beyond
        // direct hearing range.
        let mut cfg = small_cfg(30, 57);
        cfg.run_for = Duration::from_secs(8);
        cfg.heal = crate::faults::HealConfig::local();
        cfg.clock.sync = crate::config::SyncMode::Piggyback {
            hello_interval: Duration::from_millis(500),
        };
        let mut net = Network::new(cfg);
        let mut q = parn_sim::EventQueue::new();
        net.prime(&mut q);
        let end = net.end;
        parn_sim::run(&mut net, &mut q, end);
        // Some station knows about a station it has no direct link to —
        // knowledge that can only have arrived as gossip.
        let gossiped = (0..net.len()).any(|s| {
            let links: std::collections::BTreeSet<StationId> = net
                .gains
                .hearable_by(s, net.usable_gain)
                .into_iter()
                .collect();
            net.stations[s]
                .last_heard
                .keys()
                .any(|x| *x != s && !links.contains(x))
        });
        assert!(gossiped, "no second-hand liveness knowledge spread");
    }

    #[test]
    fn distributed_mode_heals_by_exchange_not_rebuild() {
        // The tentpole acceptance: after a crash and recovery in
        // Distributed mode, no global recompute ever runs — healing is
        // carried entirely by per-station eviction, poisoned reverse,
        // and readmission advertisements. `time_to_heal` then measures
        // genuine propagation + reconvergence and must be nonzero.
        let mut cfg = small_cfg(40, 59);
        cfg.run_for = Duration::from_secs(20);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.route_mode = RouteMode::Distributed;
        let probe = Network::new(cfg.clone());
        let deps = probe.routing_dependent_counts();
        let relay = (0..deps.len()).max_by_key(|&s| deps[s]).unwrap();
        cfg.faults =
            FaultPlan::none().crash_recover(Duration::from_secs(5), relay, Duration::from_secs(5));
        let m = Network::run(cfg.clone());
        assert_eq!(m.route_repairs, 0, "{}", m.summary());
        assert!(m.route_updates_sent > 0, "{}", m.summary());
        assert!(m.route_updates_received > 0, "{}", m.summary());
        assert!(m.neighbors_evicted > 0, "{}", m.summary());
        assert!(m.converged_at.count() > 0, "no convergence episode closed");
        assert!(m.time_to_detect.count() > 0, "{}", m.summary());
        assert!(m.time_to_heal.count() > 0, "{}", m.summary());
        assert!(
            m.time_to_heal.mean() > 0.0,
            "heal time not positive: {}",
            m.time_to_heal.mean()
        );
        assert!(m.delivered > 100, "{}", m.summary());
        assert_eq!(m.collision_losses(), 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // Seed-deterministic, including the heal-latency samples.
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.route_updates_sent, m2.route_updates_sent);
        assert!((m.time_to_heal.mean() - m2.time_to_heal.mean()).abs() < 1e-12);
    }

    #[test]
    fn shadowing_changes_topology_deterministically() {
        let a_cfg = {
            let mut c = small_cfg(30, 29);
            c.shadowing_sigma_db = 8.0;
            c
        };
        let a = Network::new(a_cfg.clone());
        let b = Network::new(a_cfg);
        let c_cfg = small_cfg(30, 29);
        let c = Network::new(c_cfg);
        // Same config => identical gains; shadowing off => different gains.
        assert_eq!(a.gains().gain(0, 1), b.gains().gain(0, 1));
        assert_ne!(a.gains().gain(0, 1), c.gains().gain(0, 1));
    }

    #[test]
    fn mobility_run_moves_stations_and_conserves() {
        use crate::mobility::{MobilityConfig, MobilityModel};
        let mut cfg = small_cfg(30, 83);
        cfg.mobility = Some(MobilityConfig {
            model: MobilityModel::RandomWaypoint { speed: 10.0 },
            epoch: Duration::from_millis(200),
        });
        let m = Network::run(cfg.clone());
        assert!(m.motion_epochs > 10, "{}", m.summary());
        assert!(m.station_moves > 0, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        // Motion draws come from their own substream, deterministically.
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.station_moves, m2.station_moves);
    }

    #[test]
    fn mobility_config_absent_means_no_motion() {
        let m = Network::run(small_cfg(20, 3));
        assert_eq!(m.motion_epochs, 0);
        assert_eq!(m.station_moves, 0);
        assert_eq!(m.leaves, 0);
        assert_eq!(m.joins, 0);
    }

    #[test]
    fn churn_departures_account_as_departed_and_conserve() {
        use crate::mobility::ChurnPlan;
        let mut cfg = small_cfg(30, 11);
        cfg.run_for = Duration::from_secs(8);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        cfg.churn = ChurnPlan::none()
            .leave_for(Duration::from_secs(2), 3, Duration::from_secs(2))
            .leave(Duration::from_secs(3), 7);
        let m = Network::run(cfg.clone());
        assert_eq!(m.leaves, 2, "{}", m.summary());
        assert_eq!(m.joins, 1, "{}", m.summary());
        assert!(m.delivered > 0, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
        assert_eq!(m.hop_attempts, m.hop_successes + m.total_losses());
        let m2 = Network::run(cfg);
        assert_eq!(m.delivered, m2.delivered);
        assert_eq!(m.total_drops(), m2.total_drops());
    }

    #[test]
    fn churn_join_readmits_at_new_position() {
        use crate::mobility::ChurnPlan;
        let mut cfg = small_cfg(30, 47);
        cfg.run_for = Duration::from_secs(10);
        cfg.traffic.arrivals_per_station_per_sec = 2.0;
        // Station 5 departs, then is readmitted across the region.
        cfg.churn = ChurnPlan::none().leave(Duration::from_secs(2), 5).join(
            Duration::from_secs(4),
            5,
            Point::new(10.0, -8.0),
        );
        let mut net = Network::new(cfg);
        let end = net.end;
        let mut queue = EventQueue::new();
        net.prime(&mut queue);
        parn_sim::run(&mut net, &mut queue, end);
        assert!(net.alive[5]);
        let p = net.positions[5];
        assert!((p.x - 10.0).abs() < 1e-12 && (p.y + 8.0).abs() < 1e-12);
        let m = net.finish();
        assert_eq!(m.leaves, 1, "{}", m.summary());
        assert_eq!(m.joins, 1, "{}", m.summary());
        assert!(m.conservation_holds(), "{}", m.summary());
    }

    #[test]
    fn greedy_rebuild_tracks_moved_positions() {
        use crate::mobility::{MobilityConfig, MobilityModel};
        let mut cfg = small_cfg(40, 77);
        cfg.route_mode = RouteMode::Greedy;
        cfg.mobility = Some(MobilityConfig {
            model: MobilityModel::RandomWaypoint { speed: 40.0 },
            epoch: Duration::from_millis(200),
        });
        let mut net = Network::new(cfg);
        let mut queue = EventQueue::new();
        net.prime(&mut queue);
        let before = net.positions.clone();
        // First epoch draws waypoints; the second produces real moves.
        let t1 = Time::ZERO + Duration::from_millis(200);
        net.on_motion_epoch(t1, &mut queue);
        let t2 = t1 + Duration::from_millis(200);
        net.on_motion_epoch(t2, &mut queue);
        assert_ne!(net.positions, before, "nobody moved");
        // Greedy forwarding must be computed over the *post-move*
        // geometry: the live table has to agree with one rebuilt from
        // scratch over the current positions.
        let graph = EnergyGraph::from_model(&*net.gains, net.usable_gain);
        let fresh = RouteTable::greedy(&graph, &net.positions);
        let n = net.len();
        for s in 0..n {
            for d in 0..n {
                assert_eq!(
                    net.routes.next_hop(s, d),
                    fresh.next_hop(s, d),
                    "stale greedy hop at {s}->{d}"
                );
            }
        }
    }
}
