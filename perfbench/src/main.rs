//! `perfbench` — the study benchmark: time from a scenario to a verified
//! report, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload quick-ckpt|internet-smoke|all [--seed 42] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Every operation runs in a fresh child process (`perfbench op ...`), so
//! its CPU time, peak RSS and I/O counters are its own. With `--trace 0`
//! the ops run with the program's metric collection off and the benchmark
//! reports the end-to-end metrics; with `--trace 1` it adds traced ops and
//! reports the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! `--workload all` runs every workload both ways and prints a table first.

mod op;
mod procfs;
mod workload;

use op::{OpKind, OpResult};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Spec, Workload, THREADS};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] =
    &[("study_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("resume_s", "s")];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("topology.generate_s", "s"),
    ("bgp.route_tables_s", "s"),
    ("bgp.routes_computed", "count"),
    ("bgp.tables_built", "count"),
    ("bgp.epoch_reuse_rate", "ratio"),
    ("dns.queries", "count"),
    ("dns.queries_per_probe", "ratio"),
    ("dns.cache_hit_rate", "ratio"),
    ("dns.wire_bytes", "bytes"),
    ("stats.rng_derivations", "count"),
    ("monitor.probes", "count"),
    ("monitor.downloads", "count"),
    ("monitor.probe_ns.v4_only.p50", "ns"),
    ("monitor.probe_ns.v4_only.p99", "ns"),
    ("monitor.probe_ns.measured.p50", "ns"),
    ("monitor.probe_ns.measured.p99", "ns"),
    ("monitor.replay_probes", "count"),
    ("monitor.downloads_per_probe", "ratio"),
    ("monitor.ci_repeats", "count"),
    ("monitor.samples_per_download", "ratio"),
    ("monitor.campaign_task_s", "s"),
    ("monitor.ipv6_day_s", "s"),
    ("store.write_bytes", "bytes"),
    ("store.files", "count"),
    ("store.ckpt_overhead_s", "s"),
    ("store.resume_read_bytes", "bytes"),
    ("analysis.s", "s"),
    ("core.report_s", "s"),
    ("par.peak_threads", "count"),
    ("par.cpu_utilisation", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
];

/// Counts that must repeat exactly between traced ops of one seed, at any
/// thread count.
const EXACT_COUNTS: &[&str] = &[
    "dns.queries",
    "monitor.probes",
    "monitor.downloads",
    "bgp.routes_computed",
    "store.write_bytes",
];

/// Setup samples a run collects at least, adding setup-only ops if its
/// study ops gave fewer.
const MIN_SETUP_SAMPLES: usize = 3;
/// Resume ops per finished checkpoint dir in a timed run. A resume reads
/// the dir and writes nothing, so repeating it on one dir is the same op.
const RESUMES_PER_CHECKPOINT: usize = 3;
/// A child op that runs longer than this is killed and counted as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(120);
/// Where runs keep checkpoint dirs, relative to the working directory.
const WORK_ROOT: &str = ".perfbench-work";

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload quick-ckpt|internet-smoke|all \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut parsed = Args { workload: None, seed: 42, seconds: 10, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
            }
            "--seed" => parsed.seed = value.parse().ok()?,
            "--seconds" => parsed.seconds = value.parse().ok()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    match workload?.as_str() {
        "all" => {}
        name => parsed.workload = Some(Workload::parse(name)?),
    }
    Some(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("op") {
        return child_main(&args[1..]);
    }
    let Some(args) = parse_args(&args) else { return usage() };
    let spec = Spec::load();
    let work = PathBuf::from(WORK_ROOT).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut runner = Runner::new(&spec, work.clone(), args.seed);
    let seconds = Duration::from_secs(args.seconds);
    let metrics: Vec<(String, f64, &str)> = match args.workload {
        Some(w) => {
            let (table, values) = if args.trace {
                (PER_LAYER, runner.measure_traced(w, seconds))
            } else {
                (END_TO_END, runner.measure(w, seconds))
            };
            runner.named(table, &values, "")
        }
        None => {
            let mut all = Vec::new();
            for w in Workload::ALL {
                let e2e = runner.measure(w, seconds);
                let layers = runner.measure_traced(w, seconds);
                let prefix = format!("{}/", w.name());
                all.extend(runner.named(END_TO_END, &e2e, &prefix));
                all.extend(runner.named(PER_LAYER, &layers, &prefix));
            }
            print_tables(&spec, &all);
            all
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    // the root goes too once no other run is using it
    let _ = std::fs::remove_dir(WORK_ROOT);

    let correct = runner.failed == 0;
    for (name, value, unit) in &metrics {
        eprintln!("perfbench: {name} = {value} {unit}");
    }
    eprintln!(
        "perfbench: {} ops attempted, {} failed, error_rate {}",
        runner.attempted,
        runner.failed,
        runner.error_rate()
    );
    let metrics_obj = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let v = Value::Obj(vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]);
            (name, v)
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::U64(runner.attempted)),
        ("failed".to_string(), Value::U64(runner.failed)),
        ("metrics".to_string(), Value::Obj(metrics_obj)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `perfbench op <kind> <workload> <seed> <trace 0|1> [<checkpoint dir>]`.
fn child_main(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let kind = OpKind::parse(args.first()?)?;
        let workload = Workload::parse(args.get(1)?)?;
        let seed: u64 = args.get(2)?.parse().ok()?;
        let trace = args.get(3)? == "1";
        Some((kind, workload, seed, trace, args.get(4).map(PathBuf::from)))
    })();
    let Some((kind, workload, seed, trace, dir)) = parsed else { return usage() };
    match op::run(kind, workload, seed, trace, dir.as_deref()) {
        Ok(result) => {
            println!("{}", serde_json::to_string(&result).expect("op result serializes"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench op: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one op in a fresh child process with `threads` worker threads.
fn spawn_op(
    kind: OpKind,
    w: Workload,
    seed: u64,
    trace: bool,
    threads: usize,
    dir: Option<&Path>,
) -> Result<OpResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["op", kind.name(), w.name(), &seed.to_string(), if trace { "1" } else { "0" }]);
    if let Some(dir) = dir {
        cmd.arg(dir);
    }
    cmd.env("IPV6WEB_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let what = format!("{} {} op (seed {seed}, {threads} threads)", w.name(), kind.name());
    let mut child = cmd.spawn().map_err(|e| format!("{what}: spawn: {e}"))?;
    let deadline = Instant::now() + OP_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(25)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{what}: killed after {}s", OP_TIMEOUT.as_secs()));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{what}: wait: {e}"));
            }
        }
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout).map_err(|e| format!("{what}: read output: {e}"))?;
    }
    if !status.success() {
        return Err(format!("{what}: exited with {status}"));
    }
    let line = stdout.lines().last().unwrap_or("");
    serde_json::from_str(line).map_err(|e| format!("{what}: bad output {line:?}: {e}"))
}

/// Runs ops for one `--seed` and keeps the tally of attempts and failures.
struct Runner<'a> {
    spec: &'a Spec,
    work: PathBuf,
    seed: u64,
    dirs: u64,
    attempted: u64,
    failed: u64,
    /// (workload, scenario seed) → the report digest every op of that
    /// world must reproduce: the recorded one, or the first one seen.
    refs: BTreeMap<(&'static str, u64), String>,
}

/// Metric name → value, for one workload.
type Values = BTreeMap<&'static str, f64>;

/// The scenario seed of the `j`-th world of a timed run: `seed` itself
/// first, then seeds derived from it (splitmix64), so that a run's median
/// spans several worlds instead of one.
fn scenario_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<'a> Runner<'a> {
    fn new(spec: &'a Spec, work: PathBuf, seed: u64) -> Self {
        Runner { spec, work, seed, dirs: 0, attempted: 0, failed: 0, refs: BTreeMap::new() }
    }

    fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {msg}");
    }

    /// A fresh, not yet existing checkpoint dir.
    fn fresh_dir(&mut self) -> PathBuf {
        self.dirs += 1;
        self.work.join(format!("ckpt-{}", self.dirs))
    }

    /// Runs one op on the world of scenario seed `seed`. A study or resume
    /// op's report must match that world's reference digest; a mismatch
    /// fails the op.
    fn op(
        &mut self,
        kind: OpKind,
        w: Workload,
        seed: u64,
        trace: bool,
        threads: usize,
        dir: Option<&Path>,
    ) -> Option<OpResult> {
        self.attempted += 1;
        let r = match spawn_op(kind, w, seed, trace, threads, dir) {
            Ok(r) => r,
            Err(e) => {
                self.fail(e);
                return None;
            }
        };
        eprintln!(
            "perfbench: {} {} op (seed {seed}, {threads} threads{}): setup {:.4}s study {:.4}s \
             resume {:.4}s cpu {:.4}s rss {}kB",
            w.name(),
            kind.name(),
            if trace { ", traced" } else { "" },
            r.setup_s,
            r.study_s,
            r.resume_s,
            r.cpu_s,
            r.peak_rss_kb
        );
        if kind == OpKind::Setup {
            return Some(r);
        }
        let recorded = self.spec.expected_digest(w, seed).map(str::to_string);
        let want = self
            .refs
            .entry((w.name(), seed))
            .or_insert_with(|| recorded.unwrap_or_else(|| r.digest.clone()));
        if *want != r.digest {
            let msg = format!(
                "{} {} op (seed {seed}, {threads} threads): report digest {} != {want}",
                w.name(),
                kind.name(),
                r.digest
            );
            self.fail(msg);
            return None;
        }
        Some(r)
    }

    /// The report of the run's own seed must not depend on the thread
    /// count: one more study op, at [`Workload::identity_threads`] and
    /// without checkpoints, must reproduce the world's reference digest.
    fn check_thread_identity(&mut self, w: Workload) {
        if let Some(threads) = w.identity_threads() {
            self.op(OpKind::Study, w, self.seed, false, threads, None);
        }
    }

    /// The timed run: study ops on successive worlds (each followed by
    /// resume ops on a checkpointing workload) until `seconds` is spent and
    /// there are [`Workload::min_study_ops`], then setup ops until there are
    /// [`MIN_SETUP_SAMPLES`]. Reports medians.
    fn measure(&mut self, w: Workload, seconds: Duration) -> Values {
        let mut s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let start = Instant::now();
        let mut j = 0;
        loop {
            let round = Instant::now();
            let seed = scenario_seed(self.seed, j);
            j += 1;
            let dir = w.checkpoints().then(|| self.fresh_dir());
            let Some(r) = self.op(OpKind::Study, w, seed, false, THREADS, dir.as_deref()) else {
                break;
            };
            for (k, v) in [
                ("study_s", r.study_s),
                ("setup_s", r.setup_s),
                ("cpu_s", r.cpu_s),
                ("peak_rss_mb", r.peak_rss_kb as f64 / 1024.0),
            ] {
                s.entry(k).or_default().push(v);
            }
            match &dir {
                Some(dir) => {
                    for _ in 0..RESUMES_PER_CHECKPOINT {
                        let resumed = self.op(OpKind::Resume, w, seed, false, THREADS, Some(dir));
                        if let Some(r) = resumed {
                            s.entry("resume_s").or_default().push(r.resume_s);
                            s.entry("setup_s").or_default().push(r.setup_s);
                        }
                    }
                    let _ = std::fs::remove_dir_all(dir);
                }
                None => s.entry("resume_s").or_default().push(r.resume_s),
            }
            if j as usize >= w.min_study_ops() && start.elapsed() + round.elapsed() > seconds {
                break;
            }
        }
        while s.get("setup_s").map_or(0, Vec::len) < MIN_SETUP_SAMPLES {
            let seed = scenario_seed(self.seed, j);
            j += 1;
            let Some(r) = self.op(OpKind::Setup, w, seed, false, THREADS, None) else {
                break;
            };
            s.entry("setup_s").or_default().push(r.setup_s);
        }
        self.check_thread_identity(w);
        let n = s.get("study_s").map_or(0, Vec::len);
        eprintln!("perfbench: {} timed run: {n} study ops", w.name());
        s.into_iter().map(|(k, v)| (k, median(&v))).collect()
    }

    /// The traced run, on the world of the run's own seed. Each round runs
    /// a study op without collection and a traced one (alternating which
    /// goes first), a traced resume op on a checkpointing workload, and
    /// there also a study op without checkpoints, for
    /// `store.ckpt_overhead_s`. Reports medians of the times; the exact
    /// counts must repeat in every round.
    fn measure_traced(&mut self, w: Workload, seconds: Duration) -> Values {
        let seed = self.seed;
        let mut s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let push = |s: &mut BTreeMap<String, Vec<f64>>, k: &str, v: f64| {
            s.entry(k.to_string()).or_default().push(v);
        };
        let start = Instant::now();
        for round_no in 0.. {
            let round = Instant::now();
            let mut ok = true;
            for traced in [round_no % 2 == 1, round_no % 2 == 0] {
                let dir = w.checkpoints().then(|| self.fresh_dir());
                let Some(r) = self.op(OpKind::Study, w, seed, traced, THREADS, dir.as_deref())
                else {
                    ok = false;
                    continue;
                };
                if traced {
                    push(&mut s, "traced_study_s", r.study_s);
                    for (k, v) in &r.layers {
                        push(&mut s, k, *v);
                    }
                    if let Some(dir) = &dir {
                        if let Some(rr) = self.op(OpKind::Resume, w, seed, true, THREADS, Some(dir))
                        {
                            push(&mut s, "store.resume_read_bytes", rr.read_bytes as f64);
                        }
                    }
                } else {
                    push(&mut s, "plain_study_s", r.study_s);
                    push(&mut s, "par.cpu_utilisation", r.cpu_s / r.study_s);
                }
                if let Some(dir) = &dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
            if w.checkpoints() {
                match self.op(OpKind::Study, w, seed, false, THREADS, None) {
                    Some(r) => push(&mut s, "no_ckpt_study_s", r.study_s),
                    None => ok = false,
                }
            }
            if !ok || start.elapsed() + round.elapsed() > seconds {
                break;
            }
        }
        self.check_thread_identity(w);
        for &k in EXACT_COUNTS {
            let v = s.get(k).map(Vec::as_slice).unwrap_or(&[]);
            if v.windows(2).any(|p| p[0] != p[1]) {
                self.fail(format!("{}: {k} differs between traced ops: {v:?}", w.name()));
            }
        }
        let med = |k: &str| s.get(k).map_or(0.0, |v| median(v));
        let mut out: Values = Values::new();
        for &(name, _) in PER_LAYER {
            out.insert(name, med(name));
        }
        let plain = med("plain_study_s");
        let overhead = if plain > 0.0 { med("traced_study_s") / plain - 1.0 } else { 0.0 };
        out.insert("obs.trace_overhead", overhead);
        let ckpt_overhead = if w.checkpoints() { plain - med("no_ckpt_study_s") } else { 0.0 };
        out.insert("store.ckpt_overhead_s", ckpt_overhead);
        eprintln!(
            "perfbench: {} traced run: {} rounds, {} replayed probes per traced op",
            w.name(),
            s.get("traced_study_s").map_or(0, Vec::len),
            med("monitor.replay_probes")
        );
        out
    }

    /// `values` in `table` order, with units and an optional name prefix.
    fn named(
        &self,
        table: &[(&'static str, &'static str)],
        values: &Values,
        prefix: &str,
    ) -> Vec<(String, f64, &'static str)> {
        table
            .iter()
            .map(|&(name, unit)| {
                let v = if name == "error_rate" {
                    self.error_rate()
                } else {
                    values.get(name).copied().unwrap_or(0.0)
                };
                (format!("{prefix}{name}"), v, unit)
            })
            .collect()
    }
}

/// Median of the samples (mean of the middle two for an even count); 0
/// when there are none.
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `--workload all` tables: every metric of every workload, then the
/// layer → end-to-end metric → workload table and the entry points.
fn print_tables(spec: &Spec, metrics: &[(String, f64, &str)]) {
    println!("{:<48} {:>18}  unit", "workload/metric", "value");
    for (name, value, unit) in metrics {
        println!("{name:<48} {value:>18.6}  {unit}");
    }
    println!();
    println!("{:<34} {:<22} {:<28} should not move", "layer metric", "should move", "on");
    for row in &spec.layers {
        println!("{:<34} {:<22} {:<28} {}", row.layer, row.moves, row.workload, row.stays);
    }
    println!();
    println!("entry points called: {}", spec.entry_points.join(", "));
    println!("never called: {}", spec.not_called.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let p = parse_args(&a("--workload internet-smoke --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (p.workload, p.seed, p.seconds, p.trace),
            (Some(Workload::InternetSmoke), 7, 3, true)
        );
        assert!(parse_args(&a("--workload all")).unwrap().workload.is_none());
        assert!(parse_args(&a("--workload banana")).is_none());
        assert!(parse_args(&a("--workload quick-ckpt --trace 2")).is_none());
        assert!(parse_args(&a("--seed 1")).is_none());
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Obj(fields) = doc else { panic!("BENCHMARK.json is an object") };
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Arr(items)) = get(key) else { panic!("{key} is a list") };
            let listed: Vec<(String, String)> = items
                .iter()
                .map(|item| {
                    let Value::Obj(f) = item else { panic!("{key} entries are objects") };
                    let s = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, Value::Str(v))) => v.clone(),
                        _ => panic!("{key} entry lacks {k}"),
                    };
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{key}");
        }
        let Some(Value::Arr(workloads)) = get("workloads") else { panic!("workloads is a list") };
        assert_eq!(workloads.len(), Workload::ALL.len());
    }
}
