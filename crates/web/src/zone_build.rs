//! Projects a site population into the DNS zone database.

use crate::site::Site;
use ipv6web_dns::{NameTable, ZoneDb, ZoneEntry};
use ipv6web_packet::tunnel::to_6to4;
use ipv6web_topology::Topology;

/// Default record TTL for generated zones, seconds.
pub const DEFAULT_TTL: u32 = 300;

/// Builds the authoritative zone for all `sites`:
///
/// * A record → a host in the site's IPv4 AS;
/// * AAAA record → a host in the origin AS's IPv6 prefix, or the 6to4
///   mapping of the site's IPv4 address (RFC 3056) for `via_6to4` sites;
/// * AAAA publication week carried through for timeline-aware queries.
///
/// The zone adopts the population's `names` table, so the interned
/// [`Site::name`] ids stay valid for id-based lookups against the zone.
pub fn build_zone(topo: &Topology, sites: &[Site], names: NameTable) -> ZoneDb {
    let mut db = ZoneDb::with_names(names);
    for site in sites {
        let v4 = topo.node(site.v4_as).v4_host(site.id.0);
        let (v6, v6_from_week) = match &site.v6 {
            Some(p) => {
                let addr = if p.via_6to4 {
                    Some(to_6to4(v4))
                } else {
                    topo.node(p.dest_as).v6_host(site.id.0)
                };
                (addr, p.from_week)
            }
            None => (None, 0),
        };
        db.insert_id(site.name, ZoneEntry { v4, v6, v6_from_week, ttl: DEFAULT_TTL });
    }
    ipv6web_obs::add("web.zone_entries", db.len() as u64);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{generate, PopulationConfig};
    use ipv6web_dns::RecordType;
    use ipv6web_packet::tunnel::is_6to4;
    use ipv6web_topology::{generate as gen_topo, TopologyConfig};

    fn setup() -> (ipv6web_topology::Topology, Vec<Site>, ZoneDb) {
        let topo = gen_topo(&TopologyConfig::test_small(), 7);
        let (sites, names) = generate(&PopulationConfig::test_small(60), &topo, 7);
        let db = build_zone(&topo, &sites, names);
        (topo, sites, db)
    }

    #[test]
    fn every_site_has_an_a_record() {
        let (_, sites, db) = setup();
        assert_eq!(db.len(), sites.len());
        for s in sites.iter().take(100) {
            let name = db.name_of(s.name);
            let ans = db.answer(name, RecordType::A, 0).unwrap();
            assert!(ans.is_some(), "{name}");
        }
    }

    #[test]
    fn a_record_lands_in_v4_as_prefix() {
        let (topo, sites, db) = setup();
        for s in sites.iter().take(200) {
            let name = db.name_of(s.name);
            let ans = db.answer(name, RecordType::A, 0).unwrap().unwrap();
            let ipv6web_dns::RecordData::V4(addr) = ans.data else {
                panic!("A record must carry v4 addr");
            };
            assert!(
                topo.node(s.v4_as).v4_prefix.contains(addr),
                "{name} addr {addr} outside AS prefix"
            );
        }
    }

    #[test]
    fn aaaa_only_for_dual_sites_after_their_week() {
        let (_, sites, db) = setup();
        let late_week = 10_000;
        for s in &sites {
            let name = db.name_of(s.name);
            let dual = db.is_dual_stack(name, late_week);
            assert_eq!(dual, s.v6.is_some(), "{name}");
        }
    }

    #[test]
    fn sixto4_sites_get_2002_addresses() {
        let (_, sites, db) = setup();
        let sixto4: Vec<&Site> =
            sites.iter().filter(|s| s.v6.as_ref().is_some_and(|v| v.via_6to4)).collect();
        assert!(!sixto4.is_empty(), "population must contain 6to4 sites");
        for s in sixto4 {
            let name = db.name_of(s.name);
            let ans = db.answer(name, RecordType::Aaaa, 10_000).unwrap().unwrap();
            let ipv6web_dns::RecordData::V6(addr) = ans.data else {
                panic!("AAAA must carry v6 addr");
            };
            assert!(is_6to4(addr), "{name} should be 2002::/16, got {addr}");
        }
    }

    #[test]
    fn native_v6_sites_land_in_origin_prefix() {
        let (topo, sites, db) = setup();
        let native: Vec<&Site> =
            sites.iter().filter(|s| s.v6.as_ref().is_some_and(|v| !v.via_6to4)).take(100).collect();
        assert!(!native.is_empty());
        for s in native {
            let name = db.name_of(s.name);
            let ans = db.answer(name, RecordType::Aaaa, 10_000).unwrap().unwrap();
            let ipv6web_dns::RecordData::V6(addr) = ans.data else {
                panic!("AAAA must carry v6 addr");
            };
            let origin = s.v6.as_ref().unwrap().dest_as;
            let prefix = topo.node(origin).v6.as_ref().unwrap().prefix;
            assert!(prefix.contains(addr), "{name}: {addr} outside {prefix}");
        }
    }

    #[test]
    fn site_name_ids_resolve_in_zone() {
        let (_, sites, db) = setup();
        for s in sites.iter().take(50) {
            assert_eq!(db.name_of(s.name), format!("site{}.web.example", s.id.0));
            assert!(db.entry_by_id(s.name).is_some());
        }
    }
}
