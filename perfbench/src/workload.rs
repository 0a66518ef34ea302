//! The benchmark's workloads and the facts recorded about them in
//! `perfbench/spec.json`: the report digest each one must produce at the
//! default seed, which layer metric should move which end-to-end metric on
//! which workload, and the public entry points the benchmark calls.

use ipv6web_bench::Scale;
use serde::Deserialize;
use std::collections::BTreeMap;

/// `IPV6WEB_THREADS` of every workload's timed and traced ops.
pub const THREADS: usize = 1;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Scenario::quick`, a fresh checkpoint dir, one thread, then
    /// resume ops over the finished dir.
    QuickCkpt,
    /// `Scenario::internet_smoke` (5k ASes, 50k sites, streamed route
    /// tables), one thread.
    InternetSmoke,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::QuickCkpt, Workload::InternetSmoke];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickCkpt => "quick-ckpt",
            Workload::InternetSmoke => "internet-smoke",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::QuickCkpt => Scale::Quick,
            Workload::InternetSmoke => Scale::InternetSmoke,
        }
    }

    /// `IPV6WEB_THREADS` of the extra op a timed run makes to check that
    /// the report does not depend on the thread count, if it makes one.
    /// An internet-smoke study takes ~20 s, so only quick-ckpt checks it.
    pub fn identity_threads(self) -> Option<usize> {
        match self {
            Workload::QuickCkpt => Some(2),
            Workload::InternetSmoke => None,
        }
    }

    /// Study ops a timed run makes at least, even past `--seconds`. An
    /// internet-smoke study takes ~20 s while the machine's speed swings
    /// over tens of seconds, so a run needs three of them for its median
    /// to settle.
    pub fn min_study_ops(self) -> usize {
        match self {
            Workload::QuickCkpt => 2,
            Workload::InternetSmoke => 3,
        }
    }

    /// Whether study ops write checkpoints (and are followed by a resume).
    pub fn checkpoints(self) -> bool {
        self == Workload::QuickCkpt
    }
}

/// `perfbench/spec.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// The seed the digests were recorded at.
    pub digest_seed: u64,
    /// Workload name → FNV-1a 64 of its canonical report JSON (16 hex
    /// digits) at `digest_seed`, under any thread count.
    pub digests: BTreeMap<String, String>,
    /// Which end-to-end metric each layer metric should move, and where.
    pub layers: Vec<LayerRow>,
    /// The public entry points the benchmark calls.
    pub entry_points: Vec<String>,
    /// Entry points the benchmark must not call, because planned changes
    /// rework them and must be measurable without editing the benchmark.
    pub not_called: Vec<String>,
}

/// One row of the layer → end-to-end metric → workload table.
#[derive(Debug, Clone, Deserialize)]
pub struct LayerRow {
    pub layer: String,
    pub moves: String,
    pub workload: String,
    pub stays: String,
}

impl Spec {
    pub fn load() -> Spec {
        serde_json::from_str(include_str!("../spec.json")).expect("perfbench/spec.json parses")
    }

    /// The report digest `workload` must produce at `seed`, if recorded.
    pub fn expected_digest(&self, workload: Workload, seed: u64) -> Option<&str> {
        if seed != self.digest_seed {
            return None;
        }
        self.digests.get(workload.name()).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_covers_every_workload() {
        let spec = Spec::load();
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let d = spec.expected_digest(w, spec.digest_seed).expect("digest recorded");
            assert_eq!(d.len(), 16, "{}: {d}", w.name());
            assert!(spec.expected_digest(w, spec.digest_seed + 1).is_none());
        }
        for row in &spec.layers {
            let names: Vec<&str> = row.workload.split(", ").collect();
            assert!(names.iter().all(|n| Workload::parse(n).is_some()), "{row:?}");
        }
    }
}
