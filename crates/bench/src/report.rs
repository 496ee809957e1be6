//! Run-artifact writer: `BENCH_<name>.json` JSONL files at the repo root.
//!
//! Every experiment binary and bench target funnels its results through
//! [`Reporter`], which serializes one self-contained JSON object per run —
//! metrics, the full configuration, the counter/timer registry snapshot,
//! and a provenance manifest (binary, git SHA, seed, peak RSS, wall time)
//! — so each PR leaves a machine-readable perf trajectory. The schema is
//! documented field-by-field in `docs/OBSERVABILITY.md`.
//!
//! Artifacts land at the repo root (`BENCH_scale.json`, ...), overridable
//! with the `PARN_BENCH_DIR` environment variable. Multi-process
//! experiments (`exp_scale` runs one subprocess per configuration so peak
//! RSS is per-config) have the driver call [`Reporter::create`] (truncate)
//! and the children [`Reporter::append`] (append a line each); the driver
//! starts each child with [`spawn_self`], and [`determinism_matrix`] runs
//! one configuration at 1, 2 and 8 sweep threads.

use parn_sim::json::{obj, Json};
use parn_sim::obs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Artifact schema identifier carried by every line.
pub const SCHEMA: &str = "parn-bench-run/1";

/// Peak resident set size of this process, in kB (Linux `VmHWM`).
/// `None` on platforms without `/proc`.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The commit this binary was run from (`git rev-parse HEAD`), or
/// `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(artifact_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where artifacts are written: `$PARN_BENCH_DIR` when set, else the
/// workspace root (two levels above this crate's manifest).
pub fn artifact_dir() -> PathBuf {
    match std::env::var_os("PARN_BENCH_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// Parse a JSONL artifact back into its per-run records — the driver-side
/// inverse of [`Reporter::record`], for modes that compare child runs
/// (e.g. `exp_scale --determinism`).
pub fn read_artifact(path: &std::path::Path) -> Vec<Json> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("parse artifact line: {e:?}")))
        .collect()
}

/// Run this binary again with `args`, artifacts going to `bench_dir`
/// when given (else wherever [`artifact_dir`] points), and panic unless
/// the child succeeds. Sweep drivers run each configuration this way so
/// peak RSS is measured per configuration.
pub fn spawn_self(args: &[&str], bench_dir: Option<&std::path::Path>) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(&exe);
    cmd.args(args);
    if let Some(dir) = bench_dir {
        cmd.env("PARN_BENCH_DIR", dir);
    }
    let status = cmd.status().expect("spawn subprocess");
    assert!(status.success(), "{}: {status}", args.join(" "));
}

/// The determinism matrix: run `args` plus a trailing thread count of 1,
/// 2 and 8 as children, each appending its one record to
/// `BENCH_<bench>.json` in a throwaway directory, and assert the metrics
/// JSON is byte-identical across thread counts. Returns the threads = 1
/// record, whose counters are not split across per-thread caches.
pub fn determinism_matrix(bench: &str, args: &[&str]) -> Json {
    let base =
        std::env::temp_dir().join(format!("parn_determinism_{bench}_{}", std::process::id()));
    let mut reference: Option<(String, Json)> = None;
    for threads in ["1", "2", "8"] {
        let dir = base.join(format!("t{threads}"));
        std::fs::create_dir_all(&dir).expect("create determinism dir");
        let artifact = dir.join(format!("BENCH_{bench}.json"));
        let _ = std::fs::remove_file(&artifact);
        spawn_self(&[args, &[threads]].concat(), Some(&dir));
        let mut records = read_artifact(&artifact);
        assert_eq!(records.len(), 1, "expected one artifact line");
        let record = records.pop().expect("one record");
        let metrics = record.get("metrics").expect("metrics field").to_string();
        match &reference {
            None => reference = Some((metrics, record)),
            Some((first, _)) => assert_eq!(
                &metrics, first,
                "{bench} metrics diverged between threads=1 and threads={threads}: \
                 the result depends on the sweep thread count"
            ),
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    reference.expect("three runs").1
}

/// One run's inputs to [`Reporter::record`].
pub struct Run {
    /// Human-readable run label within the experiment
    /// (e.g. `"n=10000 backend=grid-far"`).
    pub label: String,
    /// Full configuration (`NetConfig::to_json()`; for a baseline run,
    /// `BaselineConfig::to_json(&net)`, which is that plus a `baseline`
    /// block; or a hand-built object for parameter sweeps).
    pub config: Json,
    /// Result metrics (`Metrics::to_json()` or a hand-built object).
    pub metrics: Json,
    /// Wall-clock duration of the run in seconds.
    pub wall_s: f64,
}

/// Stopwatch helper: measure a run and get back `(result, wall_s)`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Writes JSONL run records to `BENCH_<name>.json`.
pub struct Reporter {
    name: String,
    path: PathBuf,
}

impl Reporter {
    /// A reporter for `BENCH_<name>.json`, truncating any previous
    /// contents — the normal entry point for an experiment binary.
    pub fn create(name: &str) -> Reporter {
        let r = Reporter::append(name);
        let _ = std::fs::remove_file(&r.path);
        r
    }

    /// A reporter that appends to an existing `BENCH_<name>.json` —
    /// for subprocesses whose driver already called [`Reporter::create`].
    pub fn append(name: &str) -> Reporter {
        Reporter {
            name: name.to_string(),
            path: artifact_dir().join(format!("BENCH_{name}.json")),
        }
    }

    /// Path of the artifact file.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Serialize one run as a JSONL line, snapshotting the counter/timer
    /// registry and the provenance manifest at call time.
    ///
    /// Call `parn_sim::obs::reset()` before each run so the counters in the
    /// line are per-run, not accumulated.
    pub fn record(&self, run: &Run) {
        let line = self.render(run);
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .unwrap_or_else(|e| panic!("open {}: {e}", self.path.display()));
        writeln!(f, "{line}").expect("write artifact line");
    }

    /// Build the JSON line for one run (separated from [`Reporter::record`]
    /// for tests).
    pub fn render(&self, run: &Run) -> String {
        let counters = Json::Obj(
            obs::counters_snapshot()
                .into_iter()
                .map(|(n, v)| (n.to_string(), Json::UInt(v)))
                .collect(),
        );
        let timers = Json::Obj(
            obs::timers_snapshot()
                .into_iter()
                .map(|(n, total_ns, count)| {
                    (
                        n.to_string(),
                        obj([
                            ("total_s", (total_ns as f64 / 1e9).into()),
                            ("count", count.into()),
                        ]),
                    )
                })
                .collect(),
        );
        let binary = std::env::current_exe()
            .ok()
            .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .unwrap_or_else(|| "unknown".to_string());
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let seed = run.config.get("seed").cloned().unwrap_or(Json::Null);
        let provenance = obj([
            ("binary", binary.into()),
            ("git_sha", git_sha().into()),
            ("seed", seed),
            (
                "peak_rss_kb",
                peak_rss_kb().map(Json::UInt).unwrap_or(Json::Null),
            ),
            ("wall_s", run.wall_s.into()),
            ("unix_time", unix_time.into()),
        ]);
        obj([
            ("schema", SCHEMA.into()),
            ("bench", self.name.as_str().into()),
            ("label", run.label.as_str().into()),
            ("provenance", provenance),
            ("config", run.config.clone()),
            ("metrics", run.metrics.clone()),
            ("counters", counters),
            ("timers", timers),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> Run {
        Run {
            label: "unit".into(),
            config: obj([("seed", 7u64.into()), ("n", 10u64.into())]),
            metrics: obj([("delivered", 5u64.into())]),
            wall_s: 0.25,
        }
    }

    #[test]
    fn rendered_line_is_valid_json_with_schema_fields() {
        parn_sim::counter_inc!("test.report.counter", 3);
        let r = Reporter::append("report_unit_test");
        let line = r.render(&sample_run());
        let v = Json::parse(&line).expect("line parses");
        assert_eq!(v.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(v.get("bench"), Some(&Json::Str("report_unit_test".into())));
        assert_eq!(v.get("label"), Some(&Json::Str("unit".into())));
        let prov = v.get("provenance").expect("provenance");
        for field in [
            "binary",
            "git_sha",
            "seed",
            "peak_rss_kb",
            "wall_s",
            "unix_time",
        ] {
            assert!(prov.get(field).is_some(), "missing provenance.{field}");
        }
        assert_eq!(prov.get("seed"), Some(&Json::UInt(7)));
        assert_eq!(v.get("config").unwrap().get("n"), Some(&Json::UInt(10)));
        assert_eq!(
            v.get("metrics").unwrap().get("delivered"),
            Some(&Json::UInt(5))
        );
        let counters = v.get("counters").expect("counters");
        assert!(matches!(counters, Json::Obj(_)));
        assert!(counters.get("test.report.counter").is_some());
        assert!(matches!(v.get("timers"), Some(Json::Obj(_))));
    }

    #[test]
    fn create_truncates_and_record_appends() {
        let dir = std::env::temp_dir().join("parn_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Scope the env override to this test via an explicit path instead:
        // build reporters by hand to avoid racing other tests on env vars.
        let mut r = Reporter::append("tmp_roundtrip");
        r.path = dir.join("BENCH_tmp_roundtrip.json");
        let _ = std::fs::remove_file(&r.path);
        r.record(&sample_run());
        r.record(&sample_run());
        let text = std::fs::read_to_string(&r.path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).expect("each line is standalone JSON");
        }
        let _ = std::fs::remove_file(&r.path);
    }

    #[test]
    fn timed_measures() {
        let (v, wall) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(wall >= 0.0);
    }
}
