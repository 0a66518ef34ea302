//! Shared helpers for the benchmark harness and the `repro` binary.

use ipv6web_core::{run_study, Scenario, StudyResult};
use std::sync::OnceLock;

pub mod metrics;
pub mod output;
pub mod reference;
pub use metrics::{
    check_regression, render_diff, BenchReport, DerivedMetrics, DEFAULT_TOLERANCE, PEAK_RSS_GAUGE,
};
pub use output::{validate_output_dir, validate_output_file, write_output, OutputError};
pub use reference::{render_comparison, shape_checks, ShapeCheck};

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale world; shapes hold, absolute counts are small.
    Quick,
    /// The full paper-scale world (minutes).
    Paper,
    /// The quick world under the demo fault plan: the chaos scenario.
    Faults,
    /// Paper-magnitude world: ~37k ASes, 1M sites, streamed route tables.
    Internet,
    /// Downsized internet tier for CI smoke runs (~5k ASes, 50k sites),
    /// exercising the same streamed/interned pipeline.
    InternetSmoke,
    /// The quick world with the NAT64/DNS64/464XLAT transition plane:
    /// three translator gateways, two v6-only vantage points behind DNS64
    /// and two 464XLAT clients.
    Nat64,
    /// A generated vantage population (200 monitors on a 2k-AS topology)
    /// with the cross-vantage disagreement section.
    Panel,
}

impl Scale {
    /// Parses `quick` / `paper` / `faults` / `internet` /
    /// `internet-smoke` / `nat64` / `panel`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            "faults" => Some(Scale::Faults),
            "internet" => Some(Scale::Internet),
            "internet-smoke" => Some(Scale::InternetSmoke),
            "nat64" => Some(Scale::Nat64),
            "panel" => Some(Scale::Panel),
            _ => None,
        }
    }

    /// The canonical spelling [`Scale::parse`] accepts — also the scale
    /// label stamped into bench metrics.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
            Scale::Faults => "faults",
            Scale::Internet => "internet",
            Scale::InternetSmoke => "internet-smoke",
            Scale::Nat64 => "nat64",
            Scale::Panel => "panel",
        }
    }

    /// The scenario for this scale.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Scale::Quick => Scenario::quick(seed),
            Scale::Paper => Scenario::paper(seed),
            Scale::Faults => Scenario::faults(seed),
            Scale::Internet => Scenario::internet(seed),
            Scale::InternetSmoke => Scenario::internet_smoke(seed),
            Scale::Nat64 => Scenario::nat64(seed),
            Scale::Panel => Scenario::panel(seed),
        }
    }
}

/// Runs (or reuses) the quick study for the current process — benches call
/// this so each bench target measures *its* stage, not the shared campaign.
pub fn shared_quick_study() -> &'static StudyResult {
    static STUDY: OnceLock<StudyResult> = OnceLock::new();
    STUDY.get_or_init(|| run_study(&Scenario::quick(42)).expect("quick scenario is valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("faults"), Some(Scale::Faults));
        assert_eq!(Scale::parse("nat64"), Some(Scale::Nat64));
        assert_eq!(Scale::parse("panel"), Some(Scale::Panel));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn panel_scale_carries_a_vantage_population() {
        let s = Scale::Panel.scenario(1);
        assert_eq!(s.vantage_population.as_ref().map(|p| p.count), Some(200));
        assert_eq!(Scale::Panel.name(), "panel");
    }

    #[test]
    fn nat64_scale_activates_the_translation_plane() {
        let s = Scale::Nat64.scenario(1);
        assert!(s.xlat.is_active());
        assert_eq!(Scale::Nat64.name(), "nat64");
    }

    #[test]
    fn scenarios_differ_by_scale() {
        assert!(Scale::Paper.scenario(1).total_sites() > Scale::Quick.scenario(1).total_sites());
    }
}
