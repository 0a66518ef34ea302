//! One benchmark operation, run in a fresh child process
//! (`perfbench op <kind> <workload> <seed> <trace> [<checkpoint dir>]`).
//!
//! The child drives only the program's public entry points —
//! `Scale::scenario`, `World::try_build`, `run_study_on_world`,
//! `World::probe_ctx` + `probe_site` and report serialization — and prints
//! one JSON [`OpResult`] line on standard output.

use crate::procfs::{self, Io};
use crate::workload::Workload;
use ipv6web_core::{run_study_on_world, Report, StudyResult, World};
use ipv6web_dns::Resolver;
use ipv6web_monitor::{probe_site, ProbeOutcome};
use ipv6web_obs::SpanRecord;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What an operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Scenario → built world → study → verified report.
    Study,
    /// Scenario + a finished checkpoint dir → built world → verified
    /// report.
    Resume,
    /// `World::try_build` alone.
    Setup,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Study => "study",
            OpKind::Resume => "resume",
            OpKind::Setup => "setup",
        }
    }

    pub fn parse(s: &str) -> Option<OpKind> {
        [OpKind::Study, OpKind::Resume, OpKind::Setup].into_iter().find(|k| k.name() == s)
    }
}

/// One operation's measurements, as the child reports them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpResult {
    /// `World::try_build` wall seconds.
    pub setup_s: f64,
    /// `World::try_build` + `run_study_on_world` wall seconds (study ops).
    pub study_s: f64,
    /// Seconds a fresh process takes to a verified report after a crash
    /// at the end of the campaigns: world build, `run_study_on_world` and
    /// verification. A resume op reads the finished campaigns back from
    /// the checkpoint dir; a workload that keeps no checkpoints has to
    /// re-run them, so for a study op this is the whole study.
    pub resume_s: f64,
    /// User + system CPU seconds of the timed part.
    pub cpu_s: f64,
    /// Peak resident set (kB) when the timed part ended.
    pub peak_rss_kb: u64,
    /// Bytes written (`wchar`) during the timed part.
    pub write_bytes: u64,
    /// Bytes read (`rchar`) during the timed part.
    pub read_bytes: u64,
    /// Files in the checkpoint dir after the op (0 without one).
    pub files: u64,
    /// FNV-1a 64 of the canonical report JSON, as 16 hex digits.
    pub digest: String,
    /// Per-layer values (traced ops only).
    pub layers: BTreeMap<String, f64>,
}

/// The report as `repro --json --metrics` writes it: pretty JSON of the
/// report's value tree, with no `timings` key.
fn canonical_report(report: &Report) -> Result<String, String> {
    let value = serde_json::to_value(report).map_err(|e| format!("report to value: {e}"))?;
    serde_json::to_string_pretty(&value).map_err(|e| format!("report to JSON: {e}"))
}

/// 64-bit FNV-1a, the digest recorded for each workload's report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn span_sum(spans: &[SpanRecord], keep: impl Fn(&str) -> bool) -> f64 {
    spans.iter().filter(|s| s.depth == 0 && keep(&s.name)).map(|s| s.seconds).sum()
}

/// Runs one operation and returns its measurements.
pub fn run(
    kind: OpKind,
    workload: Workload,
    seed: u64,
    trace: bool,
    dir: Option<&Path>,
) -> Result<OpResult, String> {
    let scenario = workload.scale().scenario(seed);
    if trace {
        ipv6web_obs::reset();
        ipv6web_obs::enable();
    }
    let mut out = OpResult::default();

    let cpu0 = procfs::cpu_seconds()?;
    let io0 = Io::now()?;
    let t0 = Instant::now();
    let mark = ipv6web_obs::span_mark();
    let world = World::try_build(&scenario).map_err(|e| format!("world build: {e}"))?;
    out.setup_s = t0.elapsed().as_secs_f64();
    let world_spans = ipv6web_obs::take_spans_since(mark);
    if kind == OpKind::Setup {
        out.peak_rss_kb = procfs::peak_rss_kb()?;
        return Ok(out);
    }
    let world = Arc::new(world);
    let study = run_study_on_world(&world, Default::default(), dir)
        .map_err(|e| format!("{} op: {e}", kind.name()))?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = procfs::cpu_seconds()? - cpu0;
    let io = Io::now()?.since(io0);
    out.peak_rss_kb = procfs::peak_rss_kb()?;

    let tv = Instant::now();
    let json = canonical_report(&study.report)?;
    out.digest = format!("{:016x}", fnv1a64(json.as_bytes()));
    let verify_s = tv.elapsed().as_secs_f64();

    out.write_bytes = io.wchar;
    out.read_bytes = io.rchar;
    if let Some(dir) = dir {
        out.files = std::fs::read_dir(dir)
            .map_err(|e| format!("list {}: {e}", dir.display()))?
            .count() as u64;
    }
    if kind == OpKind::Study {
        out.study_s = elapsed_s;
    }
    out.resume_s = elapsed_s + verify_s;
    if trace {
        out.layers = layers(&world_spans, &study, &out);
        ipv6web_obs::disable();
        if kind == OpKind::Study {
            out.layers.extend(replay(&world, &study));
        }
    }
    Ok(out)
}

/// Per-layer values from the obs counters and spans of a traced op.
fn layers(world_spans: &[SpanRecord], study: &StudyResult, op: &OpResult) -> BTreeMap<String, f64> {
    let snap = ipv6web_obs::snapshot();
    let c = |name: &str| snap.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let phases = &study.timings.phases;
    let accepted =
        snap.histograms.get("monitor.downloads_per_sample").map_or(0.0, |h| h.count as f64);
    let wire = snap.histograms.get("dns.wire_bytes").map_or(0.0, |h| h.sum as f64);
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("topology.generate_s", span_sum(world_spans, |n| n == "world: topology"));
    put("bgp.route_tables_s", span_sum(world_spans, |n| n.starts_with("world: route tables")));
    put("bgp.routes_computed", c("bgp.routes_computed"));
    put("bgp.tables_built", c("bgp.tables_built"));
    put(
        "bgp.epoch_reuse_rate",
        snap.hit_rate("bgp.epoch.reused", "bgp.epoch.recomputed").unwrap_or(0.0),
    );
    put("dns.queries", c("dns.queries"));
    put("dns.queries_per_probe", ratio(c("dns.queries"), c("monitor.probes")));
    put("dns.cache_hit_rate", snap.hit_rate("dns.cache_hits", "dns.cache_misses").unwrap_or(0.0));
    put("dns.wire_bytes", wire);
    put("stats.rng_derivations", c("stats.rng_derivations"));
    put("monitor.probes", c("monitor.probes"));
    put("monitor.downloads", c("monitor.downloads"));
    put("monitor.downloads_per_probe", ratio(c("monitor.downloads"), c("monitor.probes")));
    put("monitor.ci_repeats", c("monitor.ci_repeats"));
    put("monitor.samples_per_download", ratio(accepted, c("monitor.downloads")));
    put("monitor.campaign_task_s", span_sum(phases, |n| n.starts_with("campaign: ")));
    put("monitor.ipv6_day_s", span_sum(phases, |n| n == "ipv6 day rounds"));
    put("store.write_bytes", op.write_bytes as f64);
    put("store.files", op.files as f64);
    put("analysis.s", span_sum(phases, |n| n == "analysis" || n == "analysis: ipv6 day"));
    put("core.report_s", span_sum(phases, |n| n == "report assembly"));
    put("par.peak_threads", snap.gauge("par.peak_threads") as f64);
    m
}

/// Minimum samples per outcome bucket before the replay stops repeating,
/// so p99 has at least ten samples beyond it.
const REPLAY_MIN_SAMPLES: usize = 1000;
/// Most passes over the replay week.
const REPLAY_MAX_PASSES: usize = 100;

/// Calls `probe_site` for every site each vantage monitored in the last
/// campaign week and times each call, bucketed by outcome. A v4-only probe
/// is RNG plus the A/AAAA lookups; a measured one adds route lookup, HTTP
/// and the sampling loop. Collection is off during the replay, as in the
/// timed runs.
fn replay(world: &World, study: &StudyResult) -> BTreeMap<String, f64> {
    let week = world.scenario.campaign.total_weeks.saturating_sub(1);
    let mut v4_only: Vec<u64> = Vec::new();
    let mut measured: Vec<u64> = Vec::new();
    let mut probes = 0u64;
    for _ in 0..REPLAY_MAX_PASSES {
        for (i, db) in study.dbs.iter().enumerate() {
            if world.vantages[i].start_week > week {
                continue;
            }
            let faults = world.probe_faults(i);
            let ctx = world.probe_ctx(i, faults.as_ref());
            let mut resolver =
                if ctx.stack.translates_v4() { Resolver::dns64() } else { Resolver::new() };
            for (site, rec) in db.iter() {
                if rec.added_week > week {
                    continue;
                }
                let t = Instant::now();
                let outcome = probe_site(&ctx, &mut resolver, site, week, 0, false);
                let ns = t.elapsed().as_nanos() as u64;
                probes += 1;
                match std::hint::black_box(outcome) {
                    ProbeOutcome::V4Only => v4_only.push(ns),
                    ProbeOutcome::Measured { .. } => measured.push(ns),
                    _ => {}
                }
            }
        }
        if v4_only.len().min(measured.len()) >= REPLAY_MIN_SAMPLES {
            break;
        }
    }
    let mut m = BTreeMap::new();
    for (bucket, ns) in [("v4_only", &mut v4_only), ("measured", &mut measured)] {
        ns.sort_unstable();
        for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
            m.insert(format!("monitor.probe_ns.{bucket}.{label}"), percentile(ns, q));
        }
    }
    m.insert("monitor.replay_probes".to_string(), probes as f64);
    m
}

/// Nearest-rank percentile of sorted values; 0 when empty.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn op_kinds_round_trip() {
        for k in [OpKind::Study, OpKind::Resume, OpKind::Setup] {
            assert_eq!(OpKind::parse(k.name()), Some(k));
        }
        assert_eq!(OpKind::parse("nope"), None);
    }
}
