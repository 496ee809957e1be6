//! `parn-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's networks from the seed and simulates each of them
//! once per pass with `Network::run_built`, repeating passes until
//! `--seconds` of wall time are spent (at least [`min_passes`] of them).
//! Every run's outputs are checked, and one JSON object is printed as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` makes a traced pass first and reports the
//! per-layer metrics, with untraced runs of its first networks, as many as
//! the time left allows, as the reference for the tracing overhead.

use parn_core::{Metrics, NetConfig, Network};
use parn_perfbench::{check, horizon, proc_status_kb, run_traced, Obs, Trace, Workload, VARIANTS};
use parn_sim::json::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Event variants the per-layer report covers: every one some workload
/// fires. The adversary events (partitions, Byzantine stations, reactive
/// jammers) and piggybacked hellos belong to no workload.
const REPORTED: [&str; 15] = [
    "next_arrival",
    "mac_retry",
    "tx_start",
    "tx_end",
    "resync",
    "fault",
    "station_recover",
    "jammer_off",
    "retry_release",
    "reroute",
    "route_update_round",
    "convergence_check",
    "motion_epoch",
    "churn_step",
    "churn_return",
];

/// Untraced passes a `--trace 0` run makes however long each takes, so
/// that every end-to-end time is a median of several. One pass of the
/// multi-network workloads already sets up and runs several networks.
fn min_passes(w: Workload) -> usize {
    if w.instances() == 1 {
        3
    } else {
        1
    }
}

/// Most builds one untraced run of a network makes to time its set-up…
const SETUP_BUILDS: usize = 9;
/// …stopping once the builds have taken this long.
const SETUP_SPAN_S: f64 = 0.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One simulated network and what it proved, or the message of the
/// panic that stopped it.
type Run = Result<Rep, String>;

/// A simulated network and what it proved.
struct Rep {
    setup_s: f64,
    run_s: f64,
    metrics: Metrics,
    json: String,
    broken: Vec<String>,
    obs: Obs,
}

/// Memory high-water marks around the first traced network, the first
/// thing the process builds, so that `VmHWM` after its build is the
/// build's own peak.
#[derive(Default)]
struct Mem {
    before_kb: u64,
    build_kb: u64,
    end_kb: u64,
}

/// [`rep`], with a panic in the simulator caught and returned as the
/// run's result instead of ending the process.
fn run(w: Workload, cfg: &NetConfig, traced: bool) -> (Run, Option<(Trace, Mem)>) {
    match catch_unwind(AssertUnwindSafe(|| rep(w, cfg, traced))) {
        Ok((r, layers)) => (Ok(r), layers),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            (Err(msg), None)
        }
    }
}

/// Build, run and check one network. The `obs` registry is zeroed first,
/// so the checks and the per-layer report read this network's counts.
fn rep(w: Workload, cfg: &NetConfig, traced: bool) -> (Rep, Option<(Trace, Mem)>) {
    let end = horizon(cfg);
    parn_sim::obs::reset();
    let before_kb = proc_status_kb("VmRSS");
    // Small networks build in milliseconds, so an untraced run builds
    // its network up to SETUP_BUILDS times and reports the median.
    let mut setups = Vec::new();
    let net = loop {
        let t0 = Instant::now();
        let net = Network::new(cfg.clone());
        setups.push(t0.elapsed().as_secs_f64());
        if traced || setups.len() == SETUP_BUILDS || setups.iter().sum::<f64>() >= SETUP_SPAN_S {
            break net;
        }
    };
    let setup_s = median(setups);
    let build_kb = proc_status_kb("VmHWM");
    let t1 = Instant::now();
    let (metrics, trace) = if traced {
        let (m, t) = run_traced(net, end);
        (m, Some(t))
    } else {
        (net.run_built(), None)
    };
    let run_s = t1.elapsed().as_secs_f64();
    let layers = trace.map(|t| {
        let mem = Mem {
            before_kb,
            build_kb,
            end_kb: proc_status_kb("VmHWM"),
        };
        (t, mem)
    });
    let obs = Obs::snapshot();
    let broken = check(w, &metrics, &obs);
    let json = metrics.to_json().to_string();
    let rep = Rep {
        setup_s,
        run_s,
        metrics,
        json,
        broken,
        obs,
    };
    (rep, layers)
}

/// The median; NaN (printed as `null`) when every run panicked.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

type Metric = (String, f64, &'static str);

/// Every completed run in `runs`.
fn completed(runs: &[Run]) -> impl Iterator<Item = &Rep> {
    runs.iter().filter_map(|r| r.as_ref().ok())
}

/// The median of `f` over every completed untraced run of every network.
fn median_of(untraced: &[Vec<Run>], f: impl Fn(&Rep) -> f64) -> f64 {
    median(untraced.iter().flat_map(|u| completed(u)).map(f).collect())
}

/// The end-to-end metrics, from the untraced runs (`untraced[i]` holds
/// network `i`'s). Times are medians over every network run, which sheds
/// the short stalls a shared machine puts into single runs.
fn end_to_end(untraced: &[Vec<Run>]) -> Vec<Metric> {
    let firsts = || untraced.iter().filter_map(|u| completed(u).next());
    let delivered: u64 = firsts().map(|r| r.metrics.delivered).sum();
    let generated: u64 = firsts().map(|r| r.metrics.generated).sum();
    vec![
        ("setup_s".into(), median_of(untraced, |r| r.setup_s), "s"),
        ("run_s".into(), median_of(untraced, |r| r.run_s), "s"),
        (
            "delivered_per_s".into(),
            median_of(untraced, |r| r.metrics.delivered as f64 / r.run_s),
            "1/s",
        ),
        (
            "peak_rss_mb".into(),
            kb_to_mb(proc_status_kb("VmHWM")),
            "MB",
        ),
        (
            "completion_rate".into(),
            ratio(delivered, generated),
            "ratio",
        ),
    ]
}

/// The per-layer metrics of the traced pass: spans and `obs` counts
/// summed over its completed networks, memory from the first.
fn per_layer(traced: &[Run], trace: &Trace, mem: &Mem, n: usize) -> Vec<Metric> {
    let mut obs = Obs::default();
    for r in completed(traced) {
        obs.absorb(&r.obs);
    }
    let run_s: f64 = completed(traced).map(|r| r.run_s).sum();
    let delivered: u64 = completed(traced).map(|r| r.metrics.delivered).sum();
    let hist = |name: &str| {
        let i = VARIANTS
            .iter()
            .position(|&v| v == name)
            .expect("reported variant is a simulator event");
        &trace.handle[i]
    };

    let mut out: Vec<Metric> = vec![
        ("sim.events".into(), trace.events as f64, "count"),
        ("sim.queue.pop_s".into(), trace.pop_s, "s"),
        ("sim.queue.peak_len".into(), trace.peak_len as f64, "count"),
    ];
    for name in REPORTED {
        let h = hist(name);
        out.extend([
            (format!("core.{name}.count"), h.count() as f64, "count"),
            (format!("core.{name}.s"), h.total_s(), "s"),
            (
                format!("core.{name}.p50_us"),
                h.quantile_ns(0.5) as f64 * 1e-3,
                "us",
            ),
            (
                format!("core.{name}.ptail_us"),
                h.tail().1 as f64 * 1e-3,
                "us",
            ),
        ]);
    }
    out.push(("core.prime_s".into(), trace.prime_s, "s"));
    out.push(("core.finish_s".into(), trace.finish_s, "s"));

    let (sweep_s, sweeps) = obs.timer("phys.far_sweep");
    let far_hit = obs.counter("phys.far_cache.hit");
    let gain_hit = obs.counter("phys.gain_cache.hit");
    out.extend([
        ("phys.far_sweep.s".to_string(), sweep_s, "s"),
        ("phys.far_sweep.calls".into(), sweeps as f64, "count"),
        (
            "phys.far_cache.hit_ratio".into(),
            ratio(far_hit, far_hit + obs.counter("phys.far_cache.recompute")),
            "ratio",
        ),
        (
            "phys.gain_cache.hit_ratio".into(),
            ratio(gain_hit, gain_hit + obs.counter("phys.gain_cache.miss")),
            "ratio",
        ),
    ]);
    for c in [
        "phys.sinr.reevaluations",
        "phys.sinr.scoped_invalidations",
        "phys.sinr.full_invalidations",
        "phys.grid.relocations",
    ] {
        out.push((c.into(), obs.counter(c) as f64, "count"));
    }

    let scans =
        obs.counter("sched.window_scans.actual") + obs.counter("sched.window_scans.predicted");
    let updates = obs.counter("route.updates_sent");
    out.extend([
        ("sched.window_scans".to_string(), scans as f64, "count"),
        (
            "sched.scans_per_tx".into(),
            ratio(scans, hist("tx_start").count()),
            "ratio",
        ),
        (
            "route.next_hop.lookups".into(),
            obs.counter("route.next_hop.lookups") as f64,
            "count",
        ),
        ("route.updates_sent".into(), updates as f64, "count"),
        (
            "route.updates_per_delivered".into(),
            ratio(updates, delivered),
            "ratio",
        ),
        ("mem.build_mb".into(), kb_to_mb(mem.build_kb), "MB"),
        (
            "mem.run_growth_mb".into(),
            kb_to_mb(mem.end_kb.saturating_sub(mem.build_kb)),
            "MB",
        ),
        (
            "mem.bytes_per_station".into(),
            mem.build_kb.saturating_sub(mem.before_kb) as f64 * 1024.0 / n as f64,
            "B",
        ),
        ("trace.coverage".into(), trace.covered_s() / run_s, "ratio"),
    ]);
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("parn-perfbench: {e}");
            eprintln!(
                "usage: parn-perfbench --workload <metro-static|mobile-churn|dv-repair> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let n = w.full_size().0;
    let cfgs = w.configs(args.seed);
    let started = Instant::now();
    let left = |cost: f64| started.elapsed().as_secs_f64() + cost <= args.seconds;

    // The traced pass goes first: the process has built nothing large
    // before it, so its memory figures are the first network's own.
    let mut traced: Vec<Run> = Vec::new();
    let mut trace = Trace::default();
    let mut mem = None;
    if args.trace {
        for cfg in &cfgs {
            let (r, layers) = run(w, cfg, true);
            if let Some((t, m)) = layers {
                trace.absorb(&t);
                mem.get_or_insert(m);
            }
            traced.push(r);
        }
    }

    // `untraced[i]` holds network `i`'s untraced runs. With `--trace 0`:
    // whole passes until the time is spent, at least `min_passes`. With
    // `--trace 1`: one untraced run of each network in turn, as the
    // reference for the tracing overhead, while its traced run's time
    // still fits (always the first).
    let mut untraced: Vec<Vec<Run>> = cfgs.iter().map(|_| Vec::new()).collect();
    if args.trace {
        for (i, cfg) in cfgs.iter().enumerate() {
            let cost = traced[i].as_ref().map_or(0.0, |r| r.setup_s + r.run_s);
            if i > 0 && !left(cost) {
                break;
            }
            untraced[i].push(run(w, cfg, false).0);
        }
    } else {
        let mut passes = 0;
        loop {
            let t = Instant::now();
            for (u, cfg) in untraced.iter_mut().zip(&cfgs) {
                u.push(run(w, cfg, false).0);
            }
            passes += 1;
            if passes >= min_passes(w) && !left(t.elapsed().as_secs_f64()) {
                break;
            }
        }
    }

    // Every run must complete and pass its checks, and every run of one
    // network — traced or not — must produce the same metrics JSON byte
    // for byte: the traced loop is `run_built`'s, and the simulation is
    // deterministic. A run that panicked has no metrics; it counts its
    // network's offered load (stations × rate × span) as attempted and
    // failed packets.
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, cfg) in cfgs.iter().enumerate() {
        let runs: Vec<&Run> = traced.get(i).into_iter().chain(&untraced[i]).collect();
        let reference = runs.iter().find_map(|r| r.as_ref().ok());
        let mut fail = |what: &str, packets: u64| {
            eprintln!(
                "parn-perfbench: {} network seed {}: {what}",
                w.name(),
                cfg.seed
            );
            correct = false;
            failed += packets;
        };
        for r in &runs {
            let r = match r {
                Ok(r) => r,
                Err(msg) => {
                    let offered = (cfg.traffic.arrivals_per_station_per_sec
                        * n as f64
                        * cfg.run_for.as_secs_f64())
                    .round() as u64;
                    attempted += offered;
                    fail(&format!("the simulator panicked: {msg}"), offered);
                    continue;
                }
            };
            attempted += r.metrics.generated;
            if !r.broken.is_empty() {
                fail(&r.broken.join("; "), r.metrics.generated);
            } else if reference.is_some_and(|f| r.json != f.json) {
                fail("metrics JSON differs between runs", r.metrics.generated);
            }
        }
    }

    let metrics = if args.trace {
        let mem = mem.unwrap_or_default();
        let mut layers = per_layer(&traced, &trace, &mem, n);
        // Overhead over the networks both passes completed.
        let (traced_s, untraced_s) = traced
            .iter()
            .zip(&untraced)
            .filter_map(|(t, u)| Some((t.as_ref().ok()?.run_s, completed(u).next()?.run_s)))
            .fold((0.0, 0.0), |(a, b), (t, u)| (a + t, b + u));
        layers.push((
            "trace.overhead".into(),
            traced_s / untraced_s - 1.0,
            "ratio",
        ));
        layers
    } else {
        end_to_end(&untraced)
    };
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), unit.into()),
                ]);
                (name, entry)
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), attempted.into()),
        ("failed".into(), failed.into()),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
