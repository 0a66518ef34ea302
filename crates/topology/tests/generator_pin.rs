//! Pins the generator's output: an FNV-1a digest of every generated edge
//! (its `Debug` form, in edge-id order) for a handful of configs and seeds.
//!
//! The generated topology is what the study's results are calibrated
//! against, so a change to the generator's internals (island stitching,
//! edge bookkeeping) must not move a single edge, link property or RNG
//! draw. A digest mismatch here means the world changed.

use ipv6web_topology::{generate, Topology, TopologyConfig};
use std::fmt::Write as _;

/// FNV-1a (64-bit) over the `Debug` rendering of every edge.
fn edge_digest(t: &Topology) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for e in t.edges() {
        line.clear();
        writeln!(line, "{e:?}").expect("write to String");
        for &b in line.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A world where stranded IPv6 islands are almost always stitched with
/// tunnels: low replication parity strands many dual-stack ASes, and
/// `tunnel_prob` near 1 picks a tunnel for nearly every one of them.
fn tunnel_heavy() -> TopologyConfig {
    let mut cfg = TopologyConfig::scaled(1000);
    cfg.dual.provider_parity = 0.3;
    cfg.dual.peering_parity = 0.05;
    cfg.dual.tunnel_prob = 0.97;
    cfg
}

fn check(cfg: &TopologyConfig, seed: u64, want: u64) {
    let t = generate(cfg, seed);
    let got = edge_digest(&t);
    assert_eq!(
        got,
        want,
        "generated edges changed for seed {seed} ({} ASes, {} edges): digest {got:#018x}",
        t.num_ases(),
        t.edges().len()
    );
}

#[test]
fn test_small_worlds_are_pinned() {
    check(&TopologyConfig::test_small(), 42, 0x4ac8_7042_853d_1ed3);
    check(&TopologyConfig::test_small(), 7, 0xa74e_4ec8_7f39_1bb5);
}

#[test]
fn paper_scale_world_is_pinned() {
    check(&TopologyConfig::scaled(4000), 42, 0x094a_c0a0_584c_d794);
}

#[test]
fn internet_smoke_scale_world_is_pinned() {
    check(&TopologyConfig::scaled(5000), 42, 0xf0fd_0411_be5c_749f);
}

#[test]
fn tunnel_heavy_worlds_are_pinned() {
    let cfg = tunnel_heavy();
    for (seed, want) in [(42, 0x59d8_7522_c463_e511), (3, 0xc81d_cae4_d249_b7d1)] {
        let t = generate(&cfg, seed);
        let tunnels = t.edges().iter().filter(|e| e.tunnel.is_some()).count();
        assert!(
            tunnels * 10 > t.dual_stack_count(),
            "{tunnels} tunnels: config must be tunnel-heavy"
        );
        check(&cfg, seed, want);
    }
}
