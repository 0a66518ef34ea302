//! A probe derives its own RNG stream only when it reaches performance
//! sampling: probes that end at DNS or routing derive nothing, and a
//! measured probe derives exactly one stream.
//!
//! The obs registry is process-global, so this file holds one test.

use ipv6web_bgp::BgpTable;
use ipv6web_dns::{Resolver, ZoneDb};
use ipv6web_monitor::{probe_site, DisturbanceConfig, Disturbances, ProbeContext, ProbeOutcome};
use ipv6web_netsim::TcpConfig;
use ipv6web_stats::RelativeCiRule;
use ipv6web_topology::{generate, AsId, Family, Tier, TopologyConfig};
use ipv6web_web::{build_zone, pages_identical, population, PopulationConfig, SiteId};
use ipv6web_xlat::ClientStack;

/// Derivations counted while `f` runs.
fn derivations(f: impl FnOnce() -> ProbeOutcome) -> (ProbeOutcome, u64) {
    let before = ipv6web_obs::snapshot().counter("stats.rng_derivations");
    let out = f();
    (out, ipv6web_obs::snapshot().counter("stats.rng_derivations") - before)
}

#[test]
fn only_probes_that_sample_derive_a_stream() {
    let topo = generate(&TopologyConfig::test_small(), 21);
    let (sites, names) = population::generate(&PopulationConfig::test_small(52), &topo, 21);
    let zone = build_zone(&topo, &sites, names);
    let vantage =
        topo.nodes().iter().find(|n| n.tier == Tier::Access && n.is_dual_stack()).unwrap().id;
    let mut dests: Vec<AsId> = sites.iter().map(|s| s.v4_as).collect();
    dests.extend(sites.iter().filter_map(|s| s.v6.as_ref().map(|v| v.dest_as)));
    dests.sort();
    dests.dedup();
    let table_v4 = BgpTable::build(&topo, vantage, Family::V4, &dests);
    let table_v6 = BgpTable::build(&topo, vantage, Family::V6, &dests);
    // a v6 table with no routes at all: every dual-stack site is unroutable
    let no_v6 = BgpTable::build(&topo, vantage, Family::V6, &[]);
    let empty_zone = ZoneDb::with_names(zone.names().clone());
    let disturbances = Disturbances::generate(&DisturbanceConfig::none(), sites.len(), 52, 21);
    let ctx = ProbeContext {
        topo: &topo,
        sites: &sites,
        zone: &zone,
        table_v4: &table_v4,
        table_v6: &table_v6,
        disturbances: &disturbances,
        tcp: TcpConfig::paper(),
        ci_rule: RelativeCiRule::paper(),
        identity_threshold: 0.06,
        round_noise_sigma: 0.08,
        seed: 99,
        vantage_name: "TestVP",
        white_listed: false,
        v6_epoch: None,
        faults: None,
        stack: ClientStack::DualStack,
        xlat: None,
    };
    let v4_only = sites.iter().find(|s| s.v6.is_none()).expect("a v4-only site").id;
    let dual = sites
        .iter()
        .find(|s| {
            s.v6.as_ref().is_some_and(|v| v.from_week == 0)
                && pages_identical(s.page_bytes_v4, s.page_bytes_v6, 0.06)
        })
        .expect("a dual-stack site with identical pages")
        .id;

    ipv6web_obs::reset();
    ipv6web_obs::enable();
    let mut r = Resolver::new();
    let (out, n) = derivations(|| probe_site(&ctx, &mut r, v4_only, 50, 0, false));
    assert_eq!((out, n), (ProbeOutcome::V4Only, 0));

    let nx = ProbeContext { zone: &empty_zone, ..ctx };
    let (out, n) = derivations(|| probe_site(&nx, &mut r, SiteId(0), 10, 0, false));
    assert_eq!((out, n), (ProbeOutcome::NxDomain, 0));

    let unroutable = ProbeContext { table_v6: &no_v6, ..ctx };
    let (out, n) = derivations(|| probe_site(&unroutable, &mut r, dual, 50, 0, false));
    assert_eq!((out, n), (ProbeOutcome::Unroutable(Family::V6), 0));

    let (out, n) = derivations(|| probe_site(&ctx, &mut r, dual, 50, 0, false));
    assert!(matches!(out, ProbeOutcome::Measured { .. }), "got {out:?}");
    assert_eq!(n, 1, "a measured probe derives exactly its own stream");
    ipv6web_obs::disable();
    ipv6web_obs::reset();
}
