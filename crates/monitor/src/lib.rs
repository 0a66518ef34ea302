//! The paper's monitoring tool (Section 3, Fig 2), reimplemented.
//!
//! Per vantage point and per weekly round, every monitored site goes
//! through the pipeline:
//!
//! 1. **DNS phase** — A and AAAA lookups through a caching resolver (wire
//!    codec exercised end to end). Sites with only an A record update the
//!    reachability tables and stop here.
//! 2. **Accessibility phase** — one main-page download over each family;
//!    byte counts compared with the 6% identity rule. Different content →
//!    recorded and stopped.
//! 3. **Performance phase** — repeated downloads per family, each after
//!    cache resets, until the 95% confidence interval of the download time
//!    is within 10% of the mean (or a cap is hit). The accepted mean speed
//!    becomes that round's sample.
//!
//! Rounds are executed by a pool of up to 25 worker threads (the paper's
//! concurrency bound) over a crossbeam channel; site order is randomized
//! per round to avoid time-of-day bias; every stochastic draw derives from
//! `(seed, vantage, week, site)` so the parallel execution is
//! deterministic regardless of scheduling.
//!
//! [`disturbance`] injects the real-world messiness of Section 5.1:
//! step changes (equipment upgrades, path changes) and steady drifts, which
//! the analysis crate's sanitization then has to catch.

pub mod db;
pub mod disturbance;
pub mod durable;
pub mod population;
pub mod probe;
pub mod round;
pub mod vantage;

pub use db::{MonitorDb, PerfSample, SiteRecord};
pub use disturbance::{Disturbance, DisturbanceConfig, DisturbanceKind, Disturbances};
pub use population::{PopulationError, VantagePopulation};
pub use probe::{probe_site, ProbeContext, ProbeFaults, ProbeOutcome, ProbeXlat};
pub use round::{
    check_population_stamp, checkpoint_path, open_round_log, population_hash, run_campaign,
    run_campaign_resumable, run_ipv6_day_rounds, validate_checkpoint_dir, CampaignConfig,
    CampaignError, ConfigError, RoundError,
};
pub use vantage::{VantageCountError, VantageKind, VantagePoint};
