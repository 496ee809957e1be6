//! One event loop for every contention MAC: pure and slotted ALOHA, CSMA
//! and MACA.
//!
//! The MACs share everything but the access rule. A station queues its
//! packets, a `Ready` event offers it the channel, a data transmission
//! ends in delivery or in a backoff-and-requeue (or a drop past the retry
//! limit). [`MacKind`] decides only what `Ready` does:
//!
//! * **pure ALOHA** — transmit now;
//! * **slotted ALOHA** — transmit at the next global slot boundary (every
//!   `Ready` is aligned when scheduled). This quietly assumes the
//!   system-wide synchronization §7 is designed to avoid;
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

use crate::common::{MacKind, Scenario};
use parn_core::packet::LossCause;
use parn_core::{classify, Metrics, Packet};
use parn_phys::sinr::{RxId, TxId};
use parn_phys::StationId;
use parn_sim::{Duration, EventQueue, Model, Time};
use std::collections::VecDeque;

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

/// The contention-MAC simulator; the scenario's [`MacKind`] picks the MAC.
pub struct Contention {
    sc: Scenario,
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
    /// Build the simulator for a scenario.
    pub fn new(sc: Scenario) -> Contention {
        let n = sc.neighbors.len();
        Contention {
            sc,
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

    /// Run a scenario to completion.
    pub fn run(sc: Scenario) -> Metrics {
        let mut sim = Contention::new(sc);
        let mut queue = EventQueue::new();
        sim.prime(&mut queue);
        let end = sim.sc.end;
        parn_sim::run(&mut sim, &mut queue, end);
        sim.finish()
    }

    /// Seed initial arrivals.
    pub fn prime(&mut self, queue: &mut EventQueue<Event>) {
        for s in 0..self.stations.len() {
            if !self.sc.neighbors[s].is_empty() && self.sc.cfg.arrivals_per_station_per_sec > 0.0 {
                let dt = self.sc.next_interarrival();
                queue.schedule(Time::ZERO + dt, Event::Arrival { station: s });
            }
        }
    }

    /// Finalize metrics.
    pub fn finish(mut self) -> Metrics {
        let settled = self.sc.metrics.delivered + self.dropped;
        self.sc.metrics.in_flight_at_end = self.sc.metrics.generated.saturating_sub(settled);
        self.sc.metrics
    }

    /// RTS/CTS air time; only MACA's control events read it.
    fn ctrl(&self) -> Duration {
        match self.sc.cfg.mac {
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
        let at = match self.sc.cfg.mac {
            MacKind::SlottedAloha { slot } => {
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
        !(matches!(self.sc.cfg.mac, MacKind::Maca { .. }) && self.stations[h].transmitting)
            && self.rx_in_use[h] < self.sc.cfg.despreaders
    }

    /// The access rule: the only place the MACs differ before a packet
    /// is on the air.
    fn on_ready(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let st = &mut self.stations[s];
        st.ready_pending = false;
        if st.transmitting || st.handshake.is_some() || st.queue.is_empty() {
            return;
        }
        match self.sc.cfg.mac {
            MacKind::PureAloha | MacKind::SlottedAloha { .. } => {}
            MacKind::Csma { sense_threshold } => {
                if self.sc.tracker.sensed_power(s) > sense_threshold {
                    self.deferrals += 1;
                    let backoff = self.sc.backoff();
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
        let p_tx = self.sc.tx_power(s, nh);
        let tx = self.sc.tracker.start_transmission(s, p_tx, Some(nh));
        self.stations[s].transmitting = true;
        let rx = if self.can_receive(nh) {
            self.rx_in_use[nh] += 1;
            Some(self.sc.tracker.begin_reception(nh, tx, self.sc.threshold))
        } else {
            None
        };
        if self.sc.measured(now) {
            self.sc.metrics.tx_airtime[s] += self.sc.cfg.airtime.as_secs_f64();
            let wait =
                now.since(packet.enqueued).ticks() as f64 / self.sc.cfg.airtime.ticks() as f64;
            self.sc.metrics.hop_wait_slots.add(wait.min(99.0));
        }
        queue.schedule(
            now + self.sc.cfg.airtime,
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
            self.sc.tracker.complete_reception(r)
        });
        self.sc.tracker.end_transmission(tx);
        self.stations[s].transmitting = false;
        if self.stations[s].handshake.take().is_some() {
            self.handshakes_completed += 1;
        }
        let measured = self.sc.measured(packet.created);
        if measured {
            self.sc.metrics.hop_attempts += 1;
        }
        let success = report.as_ref().map(|r| r.success).unwrap_or(false);
        if success {
            if measured {
                self.sc.metrics.hop_successes += 1;
                self.sc.metrics.delivered += 1;
                self.sc.metrics.e2e_delay.add(packet.age(now).as_secs_f64());
                self.sc.metrics.hops_per_packet.add(1.0);
                self.sc.metrics.bits_delivered +=
                    self.sc.cfg.criterion.rate_bps * self.sc.cfg.airtime.as_secs_f64();
            }
        } else {
            if measured {
                match &report {
                    Some(rep) => {
                        let (_, cause) = classify(rep);
                        self.sc.metrics.record_loss(cause);
                    }
                    None => self.sc.metrics.record_loss(LossCause::DespreaderExhausted),
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
        let measured = self.sc.measured(packet.created);
        if attempts <= self.sc.cfg.max_retries {
            if measured {
                self.sc.metrics.retransmissions += 1;
            }
            self.stations[s].queue.push_front((nh, packet, attempts));
            let backoff = self.sc.backoff();
            self.schedule_ready(s, now + backoff, queue);
        } else if measured {
            self.dropped += 1;
        }
    }

    fn on_arrival(&mut self, s: StationId, now: Time, queue: &mut EventQueue<Event>) {
        let dt = self.sc.next_interarrival();
        let next = now + dt;
        if next <= self.sc.end {
            queue.schedule(next, Event::Arrival { station: s });
        }
        let Some(nh) = self.sc.random_neighbor(s) else {
            return;
        };
        let id = self.next_id;
        self.next_id += 1;
        let packet = Packet::new(id, s, nh, now);
        if self.sc.measured(now) {
            self.sc.metrics.generated += 1;
        }
        self.stations[s].queue.push_back((nh, packet, 0));
        self.schedule_ready(s, now, queue);
    }

    // ----- MACA: RTS/CTS dialogue and NAV -----

    /// Start overheard receptions of a control packet at every in-range
    /// station that can receive (including the addressee).
    fn open_receptions(&mut self, from: StationId, tx: TxId) -> Vec<(StationId, RxId)> {
        let hearers = self.sc.neighbors[from].clone();
        let mut rxs = Vec::new();
        for h in hearers {
            if !self.can_receive(h) {
                continue;
            }
            self.rx_in_use[h] += 1;
            let rx = self.sc.tracker.begin_reception(h, tx, self.sc.threshold);
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
        let p_tx = self.sc.tx_power(from, to);
        let tx = self.sc.tracker.start_transmission(from, p_tx, Some(to));
        self.stations[from].transmitting = true;
        let ctrl = self.ctrl();
        if self.sc.measured(now) {
            self.sc.metrics.tx_airtime[from] += ctrl.as_secs_f64();
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
            let rep = self.sc.tracker.complete_reception(rx);
            if h == to {
                addressed_report = Some(rep);
            } else if rep.success {
                overheard_ok.push(h);
            }
        }
        self.sc.tracker.end_transmission(tx);
        let addressed_ok = addressed_report.as_ref().is_some_and(|r| r.success);
        // Overhearers defer long enough for the CTS to come back (RTS) or
        // through the data transmission (CTS); the CTS sender holds off
        // initiating until the data is in.
        let awaited = match kind {
            CtrlKind::Rts => self.ctrl(),
            CtrlKind::Cts => {
                overheard_ok.push(from);
                self.sc.cfg.airtime
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
        } else if self.sc.measured(now) {
            if let Some(rep) = &addressed_report {
                let (_, cause) = classify(rep);
                self.sc.metrics.record_loss(cause);
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
    use crate::common::BaselineConfig;
    use parn_phys::PowerW;

    fn cfg(mac: MacKind, rate: f64, seed: u64) -> BaselineConfig {
        let mut c = BaselineConfig::matched(30, seed, mac);
        c.arrivals_per_station_per_sec = rate;
        c.run_for = Duration::from_secs(8);
        c.warmup = Duration::from_secs(1);
        c
    }

    fn slotted() -> MacKind {
        MacKind::SlottedAloha {
            slot: Duration::from_micros(2500),
        }
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
    fn simulate(c: BaselineConfig) -> Contention {
        let mut sim = Contention::new(Scenario::new(c));
        let mut q = EventQueue::new();
        sim.prime(&mut q);
        let end = sim.sc.end;
        parn_sim::run(&mut sim, &mut q, end);
        sim
    }

    #[test]
    fn deterministic() {
        for mac in [MacKind::PureAloha, slotted(), csma(1e-9), maca()] {
            let a = Contention::run(Scenario::new(cfg(mac.clone(), 5.0, 9)));
            let b = Contention::run(Scenario::new(cfg(mac.clone(), 5.0, 9)));
            assert_eq!(a.to_json().to_string(), b.to_json().to_string(), "{mac:?}");
        }
    }

    #[test]
    fn aloha_light_load_mostly_delivers() {
        let m = Contention::run(Scenario::new(cfg(MacKind::PureAloha, 0.5, 1)));
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn aloha_heavy_load_collides() {
        // Push pure ALOHA well past its ~18% capacity: collisions appear.
        let m = Contention::run(Scenario::new(cfg(MacKind::PureAloha, 40.0, 2)));
        assert!(
            m.collision_losses() > 0,
            "expected collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn slotted_beats_pure_at_equal_load() {
        let rate = 30.0;
        let pure = Contention::run(Scenario::new(cfg(MacKind::PureAloha, rate, 3)));
        let slotted = Contention::run(Scenario::new(cfg(slotted(), rate, 3)));
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
        // which lasts exactly one air time, starts on a multiple of `slot`.
        let slot = Duration::from_micros(2500);
        let c = cfg(MacKind::SlottedAloha { slot }, 30.0, 5);
        let airtime = c.airtime;
        let mut sim = Contention::new(Scenario::new(c));
        let mut q = EventQueue::new();
        sim.prime(&mut q);
        let (mut starts, mut retries) = (0, 0);
        while let Some((now, event)) = q.pop() {
            if now > sim.sc.end {
                break;
            }
            if let Event::DataEnd { attempts, .. } = &event {
                let start = now - airtime;
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
        let m = Contention::run(Scenario::new(cfg(csma(1e-9), 0.5, 1)));
        assert!(m.generated > 20);
        assert!(m.delivery_rate() > 0.85, "{}", m.summary());
    }

    #[test]
    fn csma_sensing_defers_under_load() {
        let sim = simulate(cfg(csma(1e-10), 30.0, 2));
        assert!(sim.deferrals > 0, "no deferrals at heavy load");
    }

    #[test]
    fn csma_hidden_terminals_still_collide() {
        // With a *lenient* sense threshold the sender rarely defers and
        // concurrent neighbours can still destroy receptions.
        let m = Contention::run(Scenario::new(cfg(csma(1e-3), 40.0, 3)));
        assert!(
            m.collision_losses() > 0,
            "expected hidden-terminal collisions: {}",
            m.summary()
        );
    }

    #[test]
    fn maca_light_load_delivers_via_handshake() {
        let sim = simulate(cfg(maca(), 0.5, 1));
        assert!(sim.handshakes_completed > 10, "no dialogues completed");
        let m = sim.finish();
        assert!(m.delivery_rate() > 0.8, "{}", m.summary());
    }

    #[test]
    fn maca_heavy_load_times_out_handshakes() {
        let sim = simulate(cfg(maca(), 40.0, 2));
        assert!(
            sim.handshakes_timed_out > 0,
            "expected RTS/CTS failures under load"
        );
    }

    #[test]
    fn maca_control_overhead_consumes_airtime() {
        // Every delivered packet cost at least RTS+CTS+DATA of air time.
        let m = Contention::run(Scenario::new(cfg(maca(), 1.0, 3)));
        let data_air = m.delivered as f64 * 2500e-6;
        let total_air: f64 = m.tx_airtime.iter().sum();
        assert!(
            total_air > data_air * 1.15,
            "air {total_air} vs data-only {data_air}"
        );
    }
}
