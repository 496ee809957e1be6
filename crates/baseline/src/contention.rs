//! One event loop for every contention MAC: pure and slotted ALOHA, CSMA
//! and MACA.
//!
//! The MACs share everything but the access rule. A station queues its
//! packets, a `Ready` event offers it the channel, a data transmission
//! ends in delivery or in a backoff-and-requeue (or a drop past the retry
//! limit). [`MacKind`] decides only what `Ready` does:
//!
//! * **pure ALOHA** — transmit now;
//! * **slotted ALOHA** — transmit at the next global slot boundary, one
//!   packet air time per slot (every `Ready` is aligned when scheduled).
//!   This quietly assumes the system-wide synchronization §7 is designed
//!   to avoid;
//! * **CSMA** — measure the total received power
//!   ([`SinrTracker::sensed_power`](parn_phys::sinr::SinrTracker::sensed_power))
//!   and back off while it exceeds the threshold. Under physical
//!   interference this shows CSMA's *hidden terminals* (inaudible at the
//!   sender, loud at the receiver) and *exposed terminals* (deferring to a
//!   transmission that would not have harmed the receiver);
//! * **MACA** (the MACA–MACAW–FAMA line, §2 refs \[9]/\[4]/\[7]/\[6]) —
//!   start an RTS/CTS dialogue; overhearers of either control packet set
//!   a NAV and defer. RTS packets themselves collide, CTS packets are lost
//!   to interference, and the control exchanges spend air time the scheme
//!   never spends ("no per-packet transmissions other than the single
//!   transmission used to convey the packet"). The RTS/CTS/NAV events are
//!   the only MAC-specific code.
//!
//! Everything runs under the scheme's SINR physics: a "collision" is an
//! actual SINR dip below threshold, not a modelled abstraction.
//!
//! Traffic differs from the scheme's in one respect. Under
//! [`DestPolicy::Neighbors`] the scheme addresses its min-energy routing
//! neighbours, while a baseline station addresses every station within
//! reach (gain at least the world's usable gain), so its hops are more
//! numerous and longer on average.

use parn_core::metrics::WarmupGate;
use parn_core::packet::LossCause;
use parn_core::{classify, DestPolicy, Metrics, NetConfig, Packet, SourceModel, World};
use parn_phys::sinr::{RxId, SinrTracker, TxId};
use parn_phys::{GainModel, PowerW, StationId};
use parn_sim::{Duration, EventQueue, Model, Rng, Time};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which baseline MAC to run.
#[derive(Clone, Debug)]
pub enum MacKind {
    /// Transmit the moment a packet is ready (classic ALOHA).
    PureAloha,
    /// Transmit at the next global slot boundary, slots one packet air
    /// time long (slotted ALOHA — note this baseline *assumes* the
    /// network-wide synchronization the paper argues is impractical at
    /// scale).
    SlottedAloha,
    /// Carrier sense: defer while total sensed power exceeds a threshold,
    /// then transmit.
    Csma {
        /// Sensed-power level above which the channel is "busy".
        sense_threshold: PowerW,
    },
    /// MACA-style RTS/CTS handshake with NAV deferral on overheard
    /// control packets.
    Maca {
        /// Air time of RTS/CTS control packets.
        ctrl_airtime: Duration,
    },
}

/// The baseline MAC's own knobs. Everything physical — placement, gains,
/// criterion, power, noise, packet air time, load, retry limit, run
/// length — comes from the scheme's [`NetConfig`], so a baseline and the
/// scheme given the same `NetConfig` share one world.
#[derive(Clone, Debug)]
pub struct BaselineConfig {
    /// The MAC under test.
    pub mac: MacKind,
    /// Mean random backoff after a failed attempt.
    pub mean_backoff: Duration,
    /// Successive-interference-cancellation depth at receivers (0 = off;
    /// §3.4 footnote 2's multiuser-detection upgrade).
    pub sic_depth: usize,
}

impl BaselineConfig {
    /// `mac` with a 20 ms mean backoff and plain receivers.
    pub fn new(mac: MacKind) -> BaselineConfig {
        BaselineConfig {
            mac,
            mean_backoff: Duration::from_millis(20),
            sic_depth: 0,
        }
    }

    /// Provenance for `BENCH_*.json` artifacts (schema in
    /// `docs/OBSERVABILITY.md`): the scenario's [`NetConfig::to_json`]
    /// plus a `baseline` block with this config.
    pub fn to_json(&self, net: &NetConfig) -> parn_sim::Json {
        use parn_sim::json::{obj, Json};
        let mac = match &self.mac {
            MacKind::PureAloha => obj([("kind", "pure_aloha".into())]),
            MacKind::SlottedAloha => obj([("kind", "slotted_aloha".into())]),
            MacKind::Csma { sense_threshold } => obj([
                ("kind", "csma".into()),
                ("sense_threshold_w", sense_threshold.value().into()),
            ]),
            MacKind::Maca { ctrl_airtime } => obj([
                ("kind", "maca".into()),
                ("ctrl_airtime_s", ctrl_airtime.as_secs_f64().into()),
            ]),
        };
        let mut top = net.to_json();
        if let Json::Obj(entries) = &mut top {
            entries.push((
                "baseline".into(),
                obj([
                    ("mac", mac),
                    ("mean_backoff_s", self.mean_backoff.as_secs_f64().into()),
                    ("sic_depth", self.sic_depth.into()),
                ]),
            ));
        }
        top
    }
}

/// Receiver turnaround between MACA dialogue phases.
pub const TURNAROUND: Duration = Duration(100);

/// Slack added to MACA's NAV and CTS timeout past the expected reply.
const GUARD: Duration = Duration(200);

/// Which control packet a `CtrlEnd` closes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlKind {
    /// Request to send.
    Rts,
    /// Clear to send.
    Cts,
}

/// Events of the contention simulator.
#[derive(Debug)]
pub enum Event {
    /// New traffic at a station.
    Arrival {
        /// Source station.
        station: StationId,
    },
    /// A station is offered the channel for its queue head.
    Ready {
        /// The station.
        station: StationId,
    },
    /// A data transmission finishes.
    DataEnd {
        /// Sender.
        station: StationId,
        /// PHY transmission handle.
        tx: TxId,
        /// PHY reception handle at the addressed neighbour.
        rx: Option<RxId>,
        /// Addressed neighbour.
        next_hop: StationId,
        /// The packet.
        packet: Packet,
        /// Attempts so far (including this one).
        attempts: u32,
    },
    /// A MACA control packet finishes.
    CtrlEnd {
        /// RTS or CTS.
        kind: CtrlKind,
        /// Transmitter of the control packet.
        from: StationId,
        /// Addressed station.
        to: StationId,
        /// PHY handle.
        tx: TxId,
        /// Receptions in progress at the addressed station and overhearers.
        rxs: Vec<(StationId, RxId)>,
        /// Handshake sequence this control packet belongs to.
        seq: u64,
    },
    /// The MACA receiver answers an RTS.
    SendCts {
        /// The receiver (CTS transmitter).
        station: StationId,
        /// The handshake initiator.
        to: StationId,
        /// Handshake sequence.
        seq: u64,
    },
    /// The MACA initiator starts the data transmission.
    DataStart {
        /// The initiator.
        station: StationId,
        /// Handshake sequence.
        seq: u64,
    },
    /// The MACA initiator's CTS never arrived.
    CtsTimeout {
        /// The initiator.
        station: StationId,
        /// Handshake sequence.
        seq: u64,
    },
}

/// A MACA dialogue in progress at its initiator.
#[derive(Debug)]
struct Handshake {
    nh: StationId,
    packet: Packet,
    attempts: u32,
    seq: u64,
    cts_received: bool,
    data_started: bool,
}

struct Station {
    queue: VecDeque<(StationId, Packet, u32)>,
    transmitting: bool,
    ready_pending: bool,
    nav_until: Time,
    handshake: Option<Handshake>,
}

/// The contention-MAC simulator; [`BaselineConfig::mac`] picks the MAC.
pub struct Contention {
    net: NetConfig,
    cfg: BaselineConfig,
    gains: Arc<dyn GainModel>,
    tracker: SinrTracker,
    /// In-range neighbours of each station (the traffic destinations and
    /// the hearers of MACA control packets).
    neighbors: Vec<Vec<StationId>>,
    rng: Rng,
    metrics: Metrics,
    warm: WarmupGate,
    stations: Vec<Station>,
    rx_in_use: Vec<usize>,
    next_id: u64,
    next_seq: u64,
    dropped: u64,
    /// CSMA channel-busy deferrals (exposed-terminal pressure gauge).
    pub deferrals: u64,
    /// Completed MACA RTS/CTS dialogues.
    pub handshakes_completed: u64,
    /// MACA handshakes abandoned on CTS timeout.
    pub handshakes_timed_out: u64,
}

impl Contention {
    /// Build the simulator for `cfg`'s MAC over the world `net` describes.
    ///
    /// Panics on a scenario the baselines do not model: a fault plan,
    /// mobility, churn, a non-Poisson source, or destinations other than
    /// one-hop neighbours.
    pub fn new(net: &NetConfig, cfg: BaselineConfig) -> Contention {
        assert!(net.faults.is_empty(), "the baselines model no fault plan");
        assert!(net.mobility.is_none(), "the baselines model no mobility");
        assert!(net.churn.is_empty(), "the baselines model no churn");
        assert!(
            matches!(net.traffic.source, SourceModel::Poisson),
            "the baselines model Poisson sources only"
        );
        assert!(
            matches!(net.traffic.dest, DestPolicy::Neighbors),
            "the baselines model one-hop neighbour traffic only"
        );
        let world = World::new(net);
        let n = world.positions.len();
        let neighbors = (0..n)
            .map(|s| world.gains.hearable_by(s, world.usable_gain))
            .collect();
        let tracker = world.tracker().with_sic(cfg.sic_depth);
        let mut metrics = Metrics::new(n);
        metrics.measured_span = net.run_for.saturating_sub(net.warmup);
        Contention {
            net: net.clone(),
            cfg,
            gains: world.gains,
            tracker,
            neighbors,
            rng: Rng::new(net.seed).substream("traffic"),
            metrics,
            warm: WarmupGate {
                warm_at: Time::ZERO + net.warmup,
            },
            stations: (0..n)
                .map(|_| Station {
                    queue: VecDeque::new(),
                    transmitting: false,
                    ready_pending: false,
                    nav_until: Time::ZERO,
                    handshake: None,
                })
                .collect(),
            rx_in_use: vec![0; n],
            next_id: 0,
            next_seq: 0,
            dropped: 0,
            deferrals: 0,
            handshakes_completed: 0,
            handshakes_timed_out: 0,
        }
    }

    /// Run `cfg`'s MAC over `net`'s world to completion.
    pub fn run(net: &NetConfig, cfg: BaselineConfig) -> Metrics {
        let mut sim = Contention::new(net, cfg);
        let mut queue = EventQueue::new();
        sim.prime(&mut queue);
        let end = sim.end();
        parn_sim::run(&mut sim, &mut queue, end);
        sim.finish()
    }

    /// The gain model in use.
    pub fn gains(&self) -> &dyn GainModel {
        &*self.gains
    }

    /// Seed initial arrivals.
    pub fn prime(&mut self, queue: &mut EventQueue<Event>) {
        for s in 0..self.stations.len() {
            if !self.neighbors[s].is_empty() && self.net.traffic.arrivals_per_station_per_sec > 0.0
            {
                let dt = self.next_interarrival();
                queue.schedule(Time::ZERO + dt, Event::Arrival { station: s });
            }
        }
    }

    /// Finalize metrics.
    pub fn finish(mut self) -> Metrics {
        let settled = self.metrics.delivered + self.dropped;
        self.metrics.in_flight_at_end = self.metrics.generated.saturating_sub(settled);
        self.metrics
    }

    /// End of the run.
    fn end(&self) -> Time {
        Time::ZERO + self.net.run_for
    }

    /// Exponential interarrival for the configured rate.
    fn next_interarrival(&mut self) -> Duration {
        let mean = 1.0 / self.net.traffic.arrivals_per_station_per_sec;
        Duration::from_secs_f64(self.rng.exp(mean))
    }

    /// Exponential random backoff.
    fn backoff(&mut self) -> Duration {
        Duration::from_secs_f64(self.rng.exp(self.cfg.mean_backoff.as_secs_f64()))
    }

    /// Transmit power toward a neighbour under the configured policy.
    fn tx_power(&self, s: StationId, nh: StationId) -> PowerW {
        self.net.power_policy().tx_power(self.gains.gain(nh, s))
    }

    /// RTS/CTS air time; only MACA's control events read it.
    fn ctrl(&self) -> Duration {
        match self.cfg.mac {
            MacKind::Maca { ctrl_airtime } => ctrl_airtime,
            ref other => unreachable!("control packet under {other:?}"),
        }
    }

    /// Offer `s` the channel at `at`, unless an offer is already pending.
    /// Under slotted ALOHA the offer moves to the next slot boundary.
    fn schedule_ready(&mut self, s: StationId, at: Time, queue: &mut EventQueue<Event>) {
        if self.stations[s].ready_pending {
            return;
        }
        self.stations[s].ready_pending = true;
        let at = match self.cfg.mac {
            MacKind::SlottedAloha => {
                let slot = self.net.packet_airtime();
                let phase = at % slot;
                if phase.is_zero() {
                    at
                } else {
                    at + (slot - phase)
                }
            }
            _ => at,
        };
        queue.schedule(at, Event::Ready { station: s });
    }

    /// Whether `h` can open a reception now. MACA stations are deaf
    /// while their own transmitter is on; the other MACs leave that to the
    /// tracker's self-interference term.
    fn can_receive(&self, h: StationId) -> bool {
        !(matches!(self.cfg.mac, MacKind::Maca { .. }) && self.stations[h].transmitting)
            && self.rx_in_use[h] < self.net.despreaders
    }

    /// The access rule: the only place the MACs differ before a packet
    /// is on the air.
    fn on_ready(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let st = &mut self.stations[s];
        st.ready_pending = false;
        if st.transmitting || st.handshake.is_some() || st.queue.is_empty() {
            return;
        }
        match self.cfg.mac {
            MacKind::PureAloha | MacKind::SlottedAloha => {}
            MacKind::Csma { sense_threshold } => {
                if self.tracker.sensed_power(s) > sense_threshold {
                    self.deferrals += 1;
                    let backoff = self.backoff();
                    self.schedule_ready(s, now + backoff, queue);
                    return;
                }
            }
            MacKind::Maca { .. } => {
                if now < st.nav_until {
                    let at = st.nav_until;
                    self.schedule_ready(s, at, queue);
                } else {
                    self.send_rts(s, now, queue);
                }
                return;
            }
        }
        let (nh, packet, attempts) = self.stations[s].queue.pop_front().expect("queue");
        self.start_data(s, nh, packet, attempts, now, queue);
    }

    fn start_data(
        &mut self,
        s: StationId,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let airtime = self.net.packet_airtime();
        let p_tx = self.tx_power(s, nh);
        let tx = self.tracker.start_transmission(s, p_tx, Some(nh));
        self.stations[s].transmitting = true;
        let rx = if self.can_receive(nh) {
            self.rx_in_use[nh] += 1;
            let threshold = self.net.sinr_threshold();
            Some(self.tracker.begin_reception(nh, tx, threshold))
        } else {
            None
        };
        if self.warm.measured(now) {
            self.metrics.tx_airtime[s] += airtime.as_secs_f64();
            let wait_slots =
                now.since(packet.enqueued).ticks() as f64 / self.net.sched.slot.ticks() as f64;
            self.metrics.hop_wait_slots.add(wait_slots);
        }
        queue.schedule(
            now + airtime,
            Event::DataEnd {
                station: s,
                tx,
                rx,
                next_hop: nh,
                packet,
                attempts: attempts + 1,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_data_end(
        &mut self,
        s: StationId,
        tx: TxId,
        rx: Option<RxId>,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let report = rx.map(|r| {
            self.rx_in_use[nh] -= 1;
            self.tracker.complete_reception(r)
        });
        self.tracker.end_transmission(tx);
        self.stations[s].transmitting = false;
        if self.stations[s].handshake.take().is_some() {
            self.handshakes_completed += 1;
        }
        let measured = self.warm.measured(packet.created);
        if measured {
            self.metrics.hop_attempts += 1;
        }
        let success = report.as_ref().map(|r| r.success).unwrap_or(false);
        if success {
            if measured {
                self.metrics.hop_successes += 1;
                self.metrics.delivered += 1;
                self.metrics.e2e_delay.add(packet.age(now).as_secs_f64());
                self.metrics.hops_per_packet.add(1.0);
                self.metrics.bits_delivered += self.net.packet_bits();
            }
        } else {
            if measured {
                match &report {
                    Some(rep) => {
                        let (_, cause) = classify(rep);
                        self.metrics.record_loss(cause);
                    }
                    None => self.metrics.record_loss(LossCause::DespreaderExhausted),
                }
            }
            self.requeue_or_drop(s, nh, packet, attempts, now, queue);
        }
        if !self.stations[s].queue.is_empty() {
            self.schedule_ready(s, now, queue);
        }
    }

    fn requeue_or_drop(
        &mut self,
        s: StationId,
        nh: StationId,
        packet: Packet,
        attempts: u32,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let measured = self.warm.measured(packet.created);
        if attempts <= self.net.max_retries {
            if measured {
                self.metrics.retransmissions += 1;
            }
            self.stations[s].queue.push_front((nh, packet, attempts));
            let backoff = self.backoff();
            self.schedule_ready(s, now + backoff, queue);
        } else if measured {
            self.dropped += 1;
        }
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let dt = self.next_interarrival();
        let next = now + dt;
        if next <= self.end() {
            queue.schedule(next, Event::Arrival { station: s });
        }
        if self.neighbors[s].is_empty() {
            return;
        }
        let nh = *self.rng.choose(&self.neighbors[s]);
        let id = self.next_id;
        self.next_id += 1;
        let packet = Packet::new(id, s, nh, now);
        if self.warm.measured(now) {
            self.metrics.generated += 1;
        }
        self.stations[s].queue.push_back((nh, packet, 0));
        self.schedule_ready(s, now, queue);
    }

    // ----- MACA: RTS/CTS dialogue and NAV -----

    /// Start overheard receptions of a control packet at every in-range
    /// station that can receive (including the addressee).
    fn open_receptions(&mut self, from: StationId, tx: TxId) -> Vec<(StationId, RxId)> {
        let hearers = self.neighbors[from].clone();
        let threshold = self.net.sinr_threshold();
        let mut rxs = Vec::new();
        for h in hearers {
            if !self.can_receive(h) {
                continue;
            }
            self.rx_in_use[h] += 1;
            let rx = self.tracker.begin_reception(h, tx, threshold);
            rxs.push((h, rx));
        }
        rxs
    }

    /// Put a control packet on the air from `from` to `to`.
    fn send_ctrl(
        &mut self,
        kind: CtrlKind,
        from: StationId,
        to: StationId,
        seq: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        let p_tx = self.tx_power(from, to);
        let tx = self.tracker.start_transmission(from, p_tx, Some(to));
        self.stations[from].transmitting = true;
        let ctrl = self.ctrl();
        if self.warm.measured(now) {
            self.metrics.tx_airtime[from] += ctrl.as_secs_f64();
        }
        let rxs = self.open_receptions(from, tx);
        queue.schedule(
            now + ctrl,
            Event::CtrlEnd {
                kind,
                from,
                to,
                tx,
                rxs,
                seq,
            },
        );
    }

    fn send_rts(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let (nh, packet, attempts) = self.stations[s].queue.pop_front().expect("queue");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stations[s].handshake = Some(Handshake {
            nh,
            packet,
            attempts,
            seq,
            cts_received: false,
            data_started: false,
        });
        self.send_ctrl(CtrlKind::Rts, s, nh, seq, now, queue);
        // RTS, turnaround, CTS, turnaround, guard.
        let ctrl = self.ctrl();
        let timeout = now + ctrl + TURNAROUND + ctrl + TURNAROUND + GUARD;
        queue.schedule(timeout, Event::CtsTimeout { station: s, seq });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_ctrl_end(
        &mut self,
        kind: CtrlKind,
        from: StationId,
        to: StationId,
        tx: TxId,
        rxs: Vec<(StationId, RxId)>,
        seq: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        self.stations[from].transmitting = false;
        let mut addressed_report = None;
        let mut overheard_ok: Vec<StationId> = Vec::new();
        for (h, rx) in rxs {
            self.rx_in_use[h] -= 1;
            let rep = self.tracker.complete_reception(rx);
            if h == to {
                addressed_report = Some(rep);
            } else if rep.success {
                overheard_ok.push(h);
            }
        }
        self.tracker.end_transmission(tx);
        let addressed_ok = addressed_report.as_ref().is_some_and(|r| r.success);
        // Overhearers defer long enough for the CTS to come back (RTS) or
        // through the data transmission (CTS); the CTS sender holds off
        // initiating until the data is in.
        let awaited = match kind {
            CtrlKind::Rts => self.ctrl(),
            CtrlKind::Cts => {
                overheard_ok.push(from);
                self.net.packet_airtime()
            }
        };
        let nav = now + TURNAROUND + awaited + GUARD;
        for h in overheard_ok {
            let st = &mut self.stations[h];
            st.nav_until = st.nav_until.max(nav);
        }
        if addressed_ok {
            match kind {
                CtrlKind::Rts if !self.stations[to].transmitting => queue.schedule(
                    now + TURNAROUND,
                    Event::SendCts {
                        station: to,
                        to: from,
                        seq,
                    },
                ),
                CtrlKind::Rts => {}
                CtrlKind::Cts => {
                    if let Some(h) = self.stations[to]
                        .handshake
                        .as_mut()
                        .filter(|h| h.seq == seq)
                    {
                        h.cts_received = true;
                        queue.schedule(now + TURNAROUND, Event::DataStart { station: to, seq });
                    }
                }
            }
        } else if self.warm.measured(now) {
            if let Some(rep) = &addressed_report {
                let (_, cause) = classify(rep);
                self.metrics.record_loss(cause);
            }
        }
    }

    fn on_send_cts(
        &mut self,
        s: StationId,
        to: StationId,
        seq: u64,
        now: Time,
        queue: &mut EventQueue<Event>,
    ) {
        if self.stations[s].transmitting {
            return; // busy; initiator will time out
        }
        self.send_ctrl(CtrlKind::Cts, s, to, seq, now, queue);
    }

    fn on_data_start(&mut self, s: StationId, seq: u64, now: Time, queue: &mut EventQueue<Event>) {
        let Some(hs) = self.stations[s].handshake.as_mut() else {
            return;
        };
        if hs.seq != seq || !hs.cts_received || hs.data_started {
            return;
        }
        hs.data_started = true;
        let (nh, packet, attempts) = (hs.nh, hs.packet.clone(), hs.attempts);
        self.start_data(s, nh, packet, attempts, now, queue);
    }

    fn on_cts_timeout(&mut self, s: StationId, seq: u64, now: Time, queue: &mut EventQueue<Event>) {
        let timed_out = self.stations[s]
            .handshake
            .as_ref()
            .is_some_and(|h| h.seq == seq && !h.cts_received);
        if !timed_out {
            return;
        }
        let hs = self.stations[s].handshake.take().expect("handshake");
        self.handshakes_timed_out += 1;
        self.requeue_or_drop(s, hs.nh, hs.packet, hs.attempts + 1, now, queue);
        if !self.stations[s].queue.is_empty() {
            self.schedule_ready(s, now, queue);
        }
    }
}

impl Model for Contention {
    type Event = Event;
    fn handle(&mut self, now: Time, event: Event, queue: &mut EventQueue<Event>) {
        match event {
            Event::Arrival { station } => self.on_arrival(station, now, queue),
            Event::Ready { station } => self.on_ready(station, now, queue),
            Event::DataEnd {
                station,
                tx,
                rx,
                next_hop,
                packet,
                attempts,
            } => self.on_data_end(station, tx, rx, next_hop, packet, attempts, now, queue),
            Event::CtrlEnd {
                kind,
                from,
                to,
                tx,
                rxs,
                seq,
            } => self.on_ctrl_end(kind, from, to, tx, rxs, seq, now, queue),
            Event::SendCts { station, to, seq } => self.on_send_cts(station, to, seq, now, queue),
            Event::DataStart { station, seq } => self.on_data_start(station, seq, now, queue),
            Event::CtsTimeout { station, seq } => self.on_cts_timeout(station, seq, now, queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parn_core::PhyBackend;

    /// The scheme's default world at `n` = 30 with neighbour traffic.
    fn net(rate: f64, seed: u64) -> NetConfig {
        let mut c = NetConfig::paper_default(30, seed);
        c.traffic.arrivals_per_station_per_sec = rate;
        c.traffic.dest = DestPolicy::Neighbors;
        c.run_for = Duration::from_secs(8);
        c.warmup = Duration::from_secs(1);
        c
    }

    fn run(mac: MacKind, rate: f64, seed: u64) -> Metrics {
        Contention::run(&net(rate, seed), BaselineConfig::new(mac))
    }

    fn csma(sense: f64) -> MacKind {
        MacKind::Csma {
            sense_threshold: PowerW(sense),
        }
    }

    fn maca() -> MacKind {
        MacKind::Maca {
            ctrl_airtime: Duration::from_micros(250),
        }
    }

    /// Run to the end and hand back the simulator for its diagnostics.
    fn simulate(mac: MacKind, rate: f64, seed: u64) -> Contention {
        let mut sim = Contention::new(&net(rate, seed), BaselineConfig::new(mac));
        let mut q = EventQueue::new();
        sim.prime(&mut q);
        let end = sim.end();
        parn_sim::run(&mut sim, &mut q, end);
        sim
    }

    #[test]
    fn deterministic() {
        for mac in [
            MacKind::PureAloha,
            MacKind::SlottedAloha,
            csma(1e-9),
            maca(),
        ] {
            let a = run(mac.clone(), 5.0, 9);
            let b = run(mac.clone(), 5.0, 9);
            assert_eq!(a.to_json().to_string(), b.to_json().to_string(), "{mac:?}");
        }
    }

    #[test]
    fn aloha_light_load_mostly_delivers() {
        let m = run(MacKind::PureAloha, 0.5, 1);
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn aloha_heavy_load_collides() {
        // Push pure ALOHA well past its ~18% capacity: collisions appear.
        let m = run(MacKind::PureAloha, 40.0, 2);
        assert!(
            m.collision_losses() > 0,
            "expected collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn slotted_beats_pure_at_equal_load() {
        let rate = 30.0;
        let pure = run(MacKind::PureAloha, rate, 3);
        let slotted = run(MacKind::SlottedAloha, rate, 3);
        // The classic 2× capacity edge shows up as a better hop success
        // rate under stress.
        assert!(
            slotted.hop_success_rate() > pure.hop_success_rate(),
            "slotted {} vs pure {}",
            slotted.hop_success_rate(),
            pure.hop_success_rate()
        );
    }

    #[test]
    fn slotted_transmissions_start_on_slot_boundaries() {
        // Retries after a backoff included: every data transmission,
        // which lasts exactly one slot (one air time), starts on a
        // multiple of it.
        let mut sim = Contention::new(&net(30.0, 5), BaselineConfig::new(MacKind::SlottedAloha));
        let slot = sim.net.packet_airtime();
        let mut q = EventQueue::new();
        sim.prime(&mut q);
        let (mut starts, mut retries) = (0, 0);
        while let Some((now, event)) = q.pop() {
            if now > sim.end() {
                break;
            }
            if let Event::DataEnd { attempts, .. } = &event {
                let start = now - slot;
                assert!((start % slot).is_zero(), "transmission at {start:?}");
                starts += 1;
                retries += u64::from(*attempts > 1);
            }
            sim.handle(now, event, &mut q);
        }
        assert!(
            starts > 1000 && retries > 50,
            "{starts} starts, {retries} retries"
        );
    }

    #[test]
    fn csma_light_load_delivers() {
        let m = run(csma(1e-9), 0.5, 1);
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.85, "{}", m.summary());
    }

    #[test]
    fn csma_sensing_defers_under_load() {
        let sim = simulate(csma(1e-10), 30.0, 2);
        assert!(sim.deferrals > 0, "no deferrals at heavy load");
    }

    #[test]
    fn csma_hidden_terminals_still_collide() {
        // With a *lenient* sense threshold the sender rarely defers and
        // concurrent neighbours can still destroy receptions.
        let m = run(csma(1e-3), 40.0, 3);
        assert!(
            m.collision_losses() > 0,
            "expected hidden-terminal collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn maca_light_load_delivers_via_handshake() {
        let sim = simulate(maca(), 0.5, 1);
        assert!(sim.handshakes_completed > 10, "no dialogues completed");
        let m = sim.finish();
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn maca_heavy_load_times_out_handshakes() {
        let sim = simulate(maca(), 40.0, 2);
        assert!(
            sim.handshakes_timed_out > 0,
            "expected RTS/CTS failures under load"
        );
    }

    #[test]
    fn maca_control_overhead_consumes_airtime() {
        // Every delivered packet cost at least RTS+CTS+DATA of air time.
        let m = run(maca(), 1.0, 3);
        let data_air = m.delivered as f64 * 2500e-6;
        let total_air: f64 = m.tx_airtime.iter().sum();
        assert!(
            total_air > data_air * 1.15,
            "air {total_air} vs data-only {data_air}"
        );
    }

    #[test]
    fn most_stations_have_neighbours_and_power_meets_target() {
        let sim = Contention::new(&net(2.0, 5), BaselineConfig::new(MacKind::PureAloha));
        assert_eq!(sim.neighbors.len(), 30);
        let with_nb = sim.neighbors.iter().filter(|v| !v.is_empty()).count();
        assert!(with_nb > 25, "only {with_nb} stations have neighbours");
        let threshold = sim.net.sinr_threshold();
        assert!(threshold > 0.0 && threshold < 1.0, "{threshold}");
        let s = (0..30).find(|&s| !sim.neighbors[s].is_empty()).unwrap();
        let nh = sim.neighbors[s][0];
        let delivered = sim.gains.gain(nh, s).apply(sim.tx_power(s, nh));
        assert!((delivered.value() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn macs_on_one_config_share_neighbours_and_threshold() {
        // Every MAC must see the same hops and the same reception
        // criterion, or E3 compares more than access rules.
        let n = net(2.0, 5);
        let a = Contention::new(&n, BaselineConfig::new(MacKind::PureAloha));
        let b = Contention::new(&n, BaselineConfig::new(csma(1e-8)));
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.net.sinr_threshold(), b.net.sinr_threshold());
    }

    #[test]
    fn grid_backend_matches_dense_exactly() {
        // The spatial index without far-field aggregation must be
        // bit-identical to the dense matrix — same neighbours, same
        // sensed power, same outcomes. CSMA exercises the carrier-sense
        // path (`sensed_power`) hardest.
        let mut dense = net(2.0, 9);
        dense.run_for = Duration::from_secs(6);
        let mut grid = dense.clone();
        grid.phy_backend = PhyBackend::Grid { far_field: None };
        let mac = BaselineConfig::new(csma(1e-9));
        let a = Contention::run(&dense, mac.clone());
        let b = Contention::run(&grid, mac);
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn to_json_is_the_scenario_plus_a_baseline_block() {
        let n = net(2.0, 1);
        let json = BaselineConfig::new(maca()).to_json(&n).to_string();
        let scenario = n.to_json().to_string();
        assert!(json.starts_with(&scenario[..scenario.len() - 1]), "{json}");
        assert!(
            json.ends_with(
                ",\"baseline\":{\"mac\":{\"kind\":\"maca\",\"ctrl_airtime_s\":0.00025},\
                 \"mean_backoff_s\":0.02,\"sic_depth\":0}}"
            ),
            "{json}"
        );
    }

    #[test]
    #[should_panic(expected = "no mobility")]
    fn mobility_is_rejected() {
        let mut n = net(2.0, 1);
        n.mobility = Some(parn_core::MobilityConfig::paper_default());
        Contention::new(&n, BaselineConfig::new(MacKind::PureAloha));
    }

    #[test]
    #[should_panic(expected = "one-hop neighbour traffic")]
    fn multi_hop_destinations_are_rejected() {
        let mut n = net(2.0, 1);
        n.traffic.dest = DestPolicy::UniformAll;
        Contention::new(&n, BaselineConfig::new(MacKind::PureAloha));
    }
}
