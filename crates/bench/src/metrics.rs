//! `BENCH.json`: the machine-readable performance report and its CI gate.
//!
//! `repro --metrics <path>` writes a [`BenchReport`] *alongside* — never
//! inside — the bit-comparable study report: wall times vary run to run,
//! so they must stay out of anything CI byte-compares. The committed
//! `BENCH_baseline.json` plus [`check_regression`] turn the file into a
//! smoke gate: a run that does different work than the baseline (any
//! [`EXACT_COUNTERS`] value moves at the same scale and seed) fails the
//! build, and so does one that gets more than 50% slower.

use ipv6web_obs::{Snapshot, SpanRecord, Timings};
use serde::{Deserialize, Serialize};

/// Schema tag written into every report, bumped on breaking changes.
pub const BENCH_SCHEMA: &str = "ipv6web-bench/v1";

/// Regression tolerance of the CI gate: the run may be at most this much
/// slower than the baseline (0.5 = +50%).
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// Ratios derived from the raw counters, precomputed for dashboards.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DerivedMetrics {
    /// Probe attempts per wall-clock second.
    pub probes_per_sec: f64,
    /// BGP route computations per wall-clock second.
    pub routes_per_sec: f64,
    /// Epoch-rebuild reuse: routes kept / (kept + recomputed); 0 when the
    /// scenario schedules no route change.
    pub epoch_reuse_rate: f64,
    /// Peak concurrent workers observed anywhere (route fan-out or the
    /// monitor's probe pool).
    pub peak_workers: u64,
}

/// One `BENCH.json`: wall time, per-phase spans, and the full metrics
/// snapshot of a `repro` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema tag ([`BENCH_SCHEMA`]).
    pub schema: String,
    /// Scale the study ran at (`"quick"` / `"paper"`).
    pub scale: String,
    /// Scenario seed.
    pub seed: u64,
    /// Worker threads the run was configured for (`IPV6WEB_THREADS`).
    pub threads: u64,
    /// End-to-end wall-clock seconds of the study.
    pub wall_s: f64,
    /// Phase breakdown (obs spans, completion order).
    pub phases: Vec<SpanRecord>,
    /// Counters from the obs snapshot.
    pub counters: std::collections::BTreeMap<String, u64>,
    /// Gauges (high-water marks) from the obs snapshot.
    pub gauges: std::collections::BTreeMap<String, u64>,
    /// Derived ratios.
    pub derived: DerivedMetrics,
    /// Histograms from the obs snapshot (sparse buckets).
    pub histograms: std::collections::BTreeMap<String, ipv6web_obs::HistogramSnapshot>,
}

impl BenchReport {
    /// Assembles a report from a finished run's timings and snapshot.
    pub fn assemble(
        scale: &str,
        seed: u64,
        threads: u64,
        wall_s: f64,
        timings: &Timings,
        snap: &Snapshot,
    ) -> BenchReport {
        let per_sec = |n: u64| if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 };
        let rate = |hit: &str, miss: &str| snap.hit_rate(hit, miss).unwrap_or(0.0);
        let derived = DerivedMetrics {
            probes_per_sec: per_sec(snap.counter("monitor.probes")),
            routes_per_sec: per_sec(snap.counter("bgp.routes_computed")),
            epoch_reuse_rate: rate("bgp.epoch.reused", "bgp.epoch.recomputed"),
            peak_workers: snap.gauge("monitor.peak_workers").max(snap.gauge("par.peak_threads")),
        };
        BenchReport {
            schema: BENCH_SCHEMA.to_string(),
            scale: scale.to_string(),
            seed,
            threads,
            wall_s,
            phases: timings.phases.clone(),
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            derived,
            histograms: snap.histograms.clone(),
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// Parses a report, rejecting unknown schema tags.
    pub fn from_json(s: &str) -> Result<BenchReport, String> {
        let r: BenchReport = serde_json::from_str(s).map_err(|e| format!("{e:?}"))?;
        if r.schema != BENCH_SCHEMA {
            return Err(format!("unsupported bench schema {:?} (want {BENCH_SCHEMA:?})", r.schema));
        }
        Ok(r)
    }
}

/// The gauge both reports must carry for the memory gate to engage.
pub const PEAK_RSS_GAUGE: &str = "process.peak_rss_kb";

/// Deterministic work counters: the same scale and seed must reproduce
/// them exactly, at any thread count, so [`check_regression`] compares
/// them with no tolerance. A change that moves one on purpose
/// re-baselines. `store.ckpt_bytes` (round-log bytes written) is absent
/// from runs without a checkpoint directory, so it only gates checkpointed
/// runs against checkpointed baselines.
pub const EXACT_COUNTERS: &[&str] = &[
    "dns.queries",
    "monitor.probes",
    "monitor.downloads",
    "bgp.routes_computed",
    "stats.rng_derivations",
    "store.ckpt_bytes",
];

/// Histograms whose sums are work counters too (total DNS bytes on the
/// wire), compared exactly like [`EXACT_COUNTERS`].
pub const EXACT_HISTOGRAM_SUMS: &[&str] = &["dns.wire_bytes"];

/// The CI gate. When scale and seed match, it first fails on any
/// difference in the deterministic work ([`EXACT_COUNTERS`],
/// [`EXACT_HISTOGRAM_SUMS`]): an algorithmic regression then fails even on
/// a noisy runner. It then fails when `current` is more than `tolerance`
/// slower than `baseline` (wall clock), or — when both reports carry the
/// [`PEAK_RSS_GAUGE`] gauge — more than `tolerance` hungrier in peak
/// resident memory. Returns a human-readable verdict either way.
pub fn check_regression(
    current: &BenchReport,
    baseline: &BenchReport,
    tolerance: f64,
) -> Result<String, String> {
    if current.scale != baseline.scale {
        return Err(format!(
            "scale mismatch: run is {:?}, baseline is {:?} — not comparable",
            current.scale, baseline.scale
        ));
    }
    if current.seed == baseline.seed {
        let counters = EXACT_COUNTERS
            .iter()
            .map(|&k| (k, current.counters.get(k).copied(), baseline.counters.get(k).copied()));
        let sums = EXACT_HISTOGRAM_SUMS.iter().map(|&k| {
            let sum = |r: &BenchReport| r.histograms.get(k).map(|h| h.sum);
            (k, sum(current), sum(baseline))
        });
        for (name, cur, base) in counters.chain(sums) {
            if cur != base {
                let show =
                    |v: Option<u64>| v.map_or_else(|| "absent".to_string(), |n| n.to_string());
                return Err(format!(
                    "work counter {name} changed: {} vs baseline {} at seed {} \
                     (deterministic work must match exactly; re-baseline if intended)",
                    show(cur),
                    show(base),
                    current.seed
                ));
            }
        }
    }
    let limit = baseline.wall_s * (1.0 + tolerance);
    let pct = if baseline.wall_s > 0.0 {
        (current.wall_s / baseline.wall_s - 1.0) * 100.0
    } else {
        f64::INFINITY
    };
    if current.wall_s > limit {
        return Err(format!(
            "wall time regression: {:.3}s vs baseline {:.3}s ({pct:+.1}%, limit +{:.0}%)",
            current.wall_s,
            baseline.wall_s,
            tolerance * 100.0
        ));
    }
    let exact = if current.seed == baseline.seed { "work counters exact; " } else { "" };
    let wall_verdict = format!(
        "{exact}wall time OK: {:.3}s vs baseline {:.3}s ({pct:+.1}%, limit +{:.0}%)",
        current.wall_s,
        baseline.wall_s,
        tolerance * 100.0
    );
    // memory gate: engaged only when both runs recorded a peak RSS (older
    // baselines predate the gauge and must keep gating on wall time alone)
    let rss = (current.gauges.get(PEAK_RSS_GAUGE), baseline.gauges.get(PEAK_RSS_GAUGE));
    if let (Some(&cur_kb), Some(&base_kb)) = rss {
        if base_kb > 0 {
            let rss_pct = (cur_kb as f64 / base_kb as f64 - 1.0) * 100.0;
            if cur_kb as f64 > base_kb as f64 * (1.0 + tolerance) {
                return Err(format!(
                    "peak RSS regression: {cur_kb} kB vs baseline {base_kb} kB \
                     ({rss_pct:+.1}%, limit +{:.0}%)",
                    tolerance * 100.0
                ));
            }
            return Ok(format!(
                "{wall_verdict}; peak RSS OK: {cur_kb} kB vs baseline {base_kb} kB \
                 ({rss_pct:+.1}%)"
            ));
        }
    }
    Ok(wall_verdict)
}

/// Renders a side-by-side wall-clock and top-level phase comparison of two
/// bench reports — printed by `repro` when the gate fails so the log shows
/// *where* the time went, not just that it regressed.
pub fn render_diff(current: &BenchReport, baseline: &BenchReport) -> String {
    let mut out = String::new();
    let mut row = |name: &str, cur: Option<f64>, base: Option<f64>| {
        let fmt = |v: Option<f64>| v.map_or_else(|| "      —".to_string(), |s| format!("{s:7.3}"));
        let delta = match (cur, base) {
            (Some(c), Some(b)) if b > 0.0 => format!("{:+.1}%", (c / b - 1.0) * 100.0),
            _ => "—".to_string(),
        };
        out.push_str(&format!("{name:<32} {}s {}s  {delta}\n", fmt(cur), fmt(base)));
    };
    row("wall", Some(current.wall_s), Some(baseline.wall_s));
    let top = |r: &BenchReport| -> Vec<(String, f64)> {
        r.phases.iter().filter(|p| p.depth == 0).map(|p| (p.name.clone(), p.seconds)).collect()
    };
    let cur_phases = top(current);
    let base_phases = top(baseline);
    let find =
        |set: &[(String, f64)], name: &str| set.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
    for (name, secs) in &cur_phases {
        row(name, Some(*secs), find(&base_phases, name));
    }
    for (name, secs) in &base_phases {
        if find(&cur_phases, name).is_none() {
            row(name, None, Some(*secs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipv6web_monitor::durable::RoundLog;

    fn report(wall_s: f64) -> BenchReport {
        let mut snap = Snapshot::default();
        snap.counters.insert("monitor.probes".into(), 1000);
        snap.counters.insert("bgp.routes_computed".into(), 500);
        snap.counters.insert("dns.queries".into(), 2000);
        snap.counters.insert("monitor.downloads".into(), 3000);
        snap.counters.insert("stats.rng_derivations".into(), 1001);
        snap.histograms.insert(
            "dns.wire_bytes".into(),
            ipv6web_obs::HistogramSnapshot {
                count: 2000,
                sum: 150_000,
                min: 70,
                max: 80,
                buckets: Vec::new(),
            },
        );
        snap.gauges.insert("monitor.peak_workers".into(), 8);
        snap.gauges.insert("par.peak_threads".into(), 4);
        let timings = Timings {
            phases: vec![SpanRecord { name: "world: topology".into(), depth: 0, seconds: 0.1 }],
        };
        BenchReport::assemble("quick", 42, 4, wall_s, &timings, &snap)
    }

    #[test]
    fn derived_metrics_computed() {
        let r = report(10.0);
        assert!((r.derived.probes_per_sec - 100.0).abs() < 1e-9);
        assert!((r.derived.routes_per_sec - 50.0).abs() < 1e-9);
        assert_eq!(r.derived.epoch_reuse_rate, 0.0, "no epoch counters → 0");
        assert_eq!(r.derived.peak_workers, 8, "max over both worker gauges");
    }

    #[test]
    fn zero_wall_time_does_not_divide_by_zero() {
        let r = report(0.0);
        assert_eq!(r.derived.probes_per_sec, 0.0);
    }

    #[test]
    fn json_roundtrip() {
        let r = report(2.5);
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn unknown_schema_rejected() {
        let mut r = report(1.0);
        r.schema = "ipv6web-bench/v999".into();
        assert!(BenchReport::from_json(&r.to_json()).is_err());
    }

    #[test]
    fn gate_passes_within_tolerance() {
        let base = report(10.0);
        assert!(check_regression(&report(14.9), &base, DEFAULT_TOLERANCE).is_ok());
        assert!(check_regression(&report(3.0), &base, DEFAULT_TOLERANCE).is_ok(), "faster is fine");
    }

    #[test]
    fn gate_fails_on_regression() {
        let base = report(10.0);
        let err = check_regression(&report(15.1), &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn rss_gate_engages_only_when_both_reports_have_the_gauge() {
        let mut base = report(10.0);
        let mut cur = report(10.0);
        // gauge missing on either side → wall-only verdict
        assert!(check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap().contains("wall time OK"));
        base.gauges.insert(PEAK_RSS_GAUGE.into(), 100_000);
        assert!(!check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap().contains("RSS"));
        // both present, within tolerance → OK, verdict mentions RSS
        cur.gauges.insert(PEAK_RSS_GAUGE.into(), 120_000);
        let ok = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(ok.contains("peak RSS OK"), "{ok}");
        // blown past tolerance → FAIL
        cur.gauges.insert(PEAK_RSS_GAUGE.into(), 160_000);
        let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("peak RSS regression"), "{err}");
    }

    #[test]
    fn gate_rejects_scale_mismatch() {
        let base = report(10.0);
        let mut cur = report(10.0);
        cur.scale = "paper".into();
        assert!(check_regression(&cur, &base, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn diff_renders_wall_and_phases_side_by_side() {
        let base = report(10.0);
        let mut cur = report(15.0);
        cur.phases.push(SpanRecord { name: "campaign: Penn".into(), depth: 0, seconds: 2.0 });
        cur.phases.push(SpanRecord { name: "detail".into(), depth: 1, seconds: 0.5 });
        let diff = render_diff(&cur, &base);
        assert!(diff.contains("wall"), "{diff}");
        assert!(diff.contains("+50.0%"), "wall delta missing:\n{diff}");
        assert!(diff.contains("world: topology"), "shared phase missing:\n{diff}");
        assert!(diff.contains("campaign: Penn"), "current-only phase missing:\n{diff}");
        assert!(!diff.contains("detail"), "nested spans must stay out of the summary:\n{diff}");
        // a phase only the baseline has still shows up
        let diff_rev = render_diff(&base, &cur);
        assert!(diff_rev.contains("campaign: Penn"), "baseline-only phase missing:\n{diff_rev}");
    }

    #[test]
    fn exact_gate_fails_on_one_extra_dns_query() {
        let base = report(10.0);
        let mut cur = report(10.0);
        *cur.counters.get_mut("dns.queries").unwrap() += 1;
        let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("work counter dns.queries changed: 2001 vs baseline 2000"), "{err}");
        // far faster does not buy it back: the gate is exact, not a budget
        cur.wall_s = 1.0;
        assert!(check_regression(&cur, &base, DEFAULT_TOLERANCE).is_err());
    }

    #[test]
    fn exact_gate_fails_on_one_extra_checkpoint_frame() {
        // the bytes one more round-log frame (an outage week) adds
        let dir = std::env::temp_dir().join(format!("ipv6web-gate-frame-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("vp.log");
        let (mut log, _) = RoundLog::open(&path, "VP", 1, |_| {}).unwrap();
        log.append_outage(3).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        log.append_outage(4).unwrap();
        let frame = std::fs::metadata(&path).unwrap().len() - before;
        std::fs::remove_dir_all(&dir).ok();

        let mut base = report(10.0);
        base.counters.insert("store.ckpt_bytes".into(), 3_106_940);
        let mut cur = base.clone();
        assert!(check_regression(&cur, &base, DEFAULT_TOLERANCE).is_ok());
        *cur.counters.get_mut("store.ckpt_bytes").unwrap() += frame;
        let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("work counter store.ckpt_bytes changed"), "{err}");
        // runs without checkpoints carry no such counter and still pass
        assert!(check_regression(&report(10.0), &report(10.0), DEFAULT_TOLERANCE).is_ok());
    }

    #[test]
    fn exact_gate_covers_every_work_counter_and_wire_bytes() {
        let base = report(10.0);
        for name in EXACT_COUNTERS {
            let mut cur = report(10.0);
            *cur.counters.entry(name.to_string()).or_insert(0) += 1;
            let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
            assert!(err.contains(name), "{name}: {err}");
        }
        let mut cur = report(10.0);
        cur.counters.remove("monitor.probes");
        let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("absent vs baseline 1000"), "{err}");
        let mut cur = report(10.0);
        cur.histograms.get_mut("dns.wire_bytes").unwrap().sum -= 1;
        let err = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.contains("dns.wire_bytes"), "{err}");
    }

    #[test]
    fn exact_gate_only_compares_runs_of_the_same_seed() {
        let base = report(10.0);
        let mut cur = report(10.0);
        cur.seed = 7;
        *cur.counters.get_mut("dns.queries").unwrap() += 1;
        let ok = check_regression(&cur, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(!ok.contains("work counters"), "{ok}");
        let same = check_regression(&base, &base, DEFAULT_TOLERANCE).unwrap();
        assert!(same.starts_with("work counters exact; wall time OK"), "{same}");
    }

    #[test]
    fn committed_baselines_parse_and_pass_their_own_gate() {
        // the baselines predate some schema edits (e.g. a removed derived
        // ratio); they must keep parsing and gating
        for name in [
            "BENCH_baseline.json",
            "BENCH_faults_baseline.json",
            "BENCH_internet_baseline.json",
            "BENCH_nat64_baseline.json",
            "BENCH_panel_baseline.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let base = BenchReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            for counter in EXACT_COUNTERS {
                // the baselines run without a checkpoint directory, so they
                // carry every work counter except the round-log bytes
                let expected = *counter != "store.ckpt_bytes";
                assert_eq!(base.counters.contains_key(*counter), expected, "{name}: {counter}");
            }
            assert!(check_regression(&base, &base, DEFAULT_TOLERANCE).is_ok(), "{name}");
        }
    }
}
