//! Stub resolver: one wire round trip per query, no cache.
//!
//! The paper's monitor resets between downloads "to avoid local caching
//! effects", so every lookup goes to the authority. The resolver speaks
//! the wire format end to end: each lookup encodes a query, decodes it,
//! answers the *decoded* question from the zone, encodes the response and
//! decodes that back — keeping the codec on the hot path. The bytes and
//! decoded messages live in buffers the resolver owns and reuses, so a
//! warmed-up resolver allocates nothing per query.

use crate::records::{Answer, RecordData, RecordType};
use crate::wire::{encode_query, encode_response, DecodedMessage, RCODE_NXDOMAIN};
use crate::zone::ZoneDb;
use serde::{Deserialize, Serialize};

/// Resolver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolverStats {
    /// Queries that went over the wire to the authority.
    pub exchanges: u64,
    /// NXDOMAIN answers seen.
    pub nxdomain: u64,
}

/// An injected failure of one resolver exchange, as classified by a
/// fault-aware caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DnsError {
    /// The authority answered SERVFAIL.
    ServFail,
    /// The query timed out.
    Timeout,
    /// The response arrived torn and failed to parse.
    Truncated,
}

impl std::fmt::Display for DnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DnsError::ServFail => write!(f, "SERVFAIL"),
            DnsError::Timeout => write!(f, "query timed out"),
            DnsError::Truncated => write!(f, "truncated response"),
        }
    }
}

impl std::error::Error for DnsError {}

/// A stub resolver bound to a [`ZoneDb`] authority per call.
#[derive(Debug, Clone)]
pub struct Resolver {
    stats: ResolverStats,
    next_id: u16,
    dns64: bool,
    query_wire: Vec<u8>,
    response_wire: Vec<u8>,
    query: DecodedMessage,
    response: DecodedMessage,
}

impl Default for Resolver {
    fn default() -> Self {
        Self::new()
    }
}

impl Resolver {
    /// Fresh resolver.
    pub fn new() -> Self {
        Resolver {
            stats: ResolverStats::default(),
            next_id: 1,
            dns64: false,
            query_wire: Vec::new(),
            response_wire: Vec::new(),
            query: DecodedMessage::new(),
            response: DecodedMessage::new(),
        }
    }

    /// Fresh resolver in DNS64 mode (RFC 6147): an AAAA query that would
    /// return NODATA against a v4-only name instead answers with addresses
    /// synthesized into the NAT64 well-known prefix `64:ff9b::/96`, built
    /// from the name's A records and passed through the real wire codec
    /// like any authoritative answer. Names with a genuine AAAA are never
    /// rewritten, and NXDOMAIN stays NXDOMAIN.
    pub fn dns64() -> Self {
        Resolver { dns64: true, ..Self::new() }
    }

    /// Whether this resolver synthesizes AAAA answers (DNS64 mode).
    pub fn is_dns64(&self) -> bool {
        self.dns64
    }

    /// Current statistics.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// Resolves `(name, qtype)` during campaign `week`. Returns the answers
    /// (empty = NODATA) or `None` for NXDOMAIN. The answers borrow the
    /// resolver's buffers until its next query.
    pub fn resolve(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
    ) -> Option<&[Answer]> {
        ipv6web_obs::inc("dns.queries");
        // The wire codec carries labels of at most 63 bytes and the decoder
        // refuses names deeper than 32 labels. A name outside those bounds
        // can never round-trip, so it can never resolve — answer NXDOMAIN-ish
        // up front rather than tearing the codec on the hot path.
        if !encodable(name) {
            ipv6web_obs::inc("dns.unencodable_names");
            return None;
        }
        self.stats.exchanges += 1;

        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        encode_query(&mut self.query_wire, id, name, qtype);
        // The codec is exercised on our own well-formed messages, so a
        // decode failure means a codec bug, not bad input. Degrade to an
        // unanswered query (counted) instead of panicking the whole
        // campaign thread.
        if self.query.decode(&self.query_wire).is_err() {
            ipv6web_obs::inc("dns.codec_errors");
            return None;
        }
        let Some((qname, _)) = self.query.question(0) else {
            ipv6web_obs::inc("dns.codec_errors");
            return None;
        };
        let auth = zone.answer(qname, qtype, week);
        let answers = auth.as_ref().map_or(&[][..], Option::as_slice);
        encode_response(&mut self.response_wire, &self.query, answers, auth.is_none());
        if self.response.decode(&self.response_wire).is_err() {
            ipv6web_obs::inc("dns.codec_errors");
            return None;
        }
        debug_assert_eq!(self.response.header.id, id, "transaction id must match");

        ipv6web_obs::observe(
            "dns.wire_bytes",
            (self.query_wire.len() + self.response_wire.len()) as u64,
        );
        if self.response.header.rcode == RCODE_NXDOMAIN {
            self.stats.nxdomain += 1;
            ipv6web_obs::inc("dns.nxdomain");
            return None;
        }
        if self.dns64 && qtype == RecordType::Aaaa {
            if !self.response.answers().is_empty() {
                ipv6web_obs::inc("dns64.native_aaaa_skipped");
            } else if self.synthesize_aaaa(zone, week).is_none() {
                // genuine NODATA stays NODATA
                return Some(&[]);
            }
        }
        Some(self.response.answers())
    }

    /// RFC 6147 AAAA synthesis: embeds the queried name's A record in the
    /// well-known prefix and runs the result through the same wire round
    /// trip as an authoritative answer, so synthesized responses exercise
    /// the codec bit-for-bit. On success the synthesized answer replaces
    /// the decoded response; `None` when the name has no A record either.
    fn synthesize_aaaa(&mut self, zone: &ZoneDb, week: u32) -> Option<()> {
        let (name, _) = self.query.question(0)?;
        let a = zone.answer(name, RecordType::A, week)??;
        let RecordData::V4(v4) = a.data else { return None };
        let synth = Answer { data: RecordData::V6(ipv6web_xlat::synthesize(v4)), ttl: a.ttl };
        encode_response(&mut self.response_wire, &self.query, &[synth], false);
        if self.response.decode(&self.response_wire).is_err() {
            ipv6web_obs::inc("dns.codec_errors");
            return None;
        }
        ipv6web_obs::inc("dns64.synthesized");
        ipv6web_obs::observe("dns.wire_bytes", self.response_wire.len() as u64);
        Some(())
    }

    /// [`Resolver::resolve`] with an optional injected fault. `fault: None`
    /// is exactly `resolve`; an injected fault fails the exchange before
    /// it reaches the wire or the authority, so a retry behaves like a
    /// fresh query.
    pub fn resolve_faulted(
        &mut self,
        zone: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
        fault: Option<DnsError>,
    ) -> Result<Option<&[Answer]>, DnsError> {
        match fault {
            None => Ok(self.resolve(zone, name, qtype, week)),
            Some(err) => {
                ipv6web_obs::inc("dns.faulted");
                Err(err)
            }
        }
    }
}

/// Whether `name` fits the codec: no label longer than 63 bytes and at
/// most 32 non-empty labels.
fn encodable(name: &str) -> bool {
    let (mut labels, mut len) = (0usize, 0usize);
    for &b in name.as_bytes().iter().chain(std::iter::once(&b'.')) {
        if b != b'.' {
            len += 1;
            if len > 63 {
                return false;
            }
            continue;
        }
        if len > 0 {
            labels += 1;
        }
        len = 0;
    }
    labels <= 32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zone::ZoneEntry;
    use std::net::Ipv4Addr;

    fn zone() -> ZoneDb {
        let mut db = ZoneDb::new();
        db.insert(
            "a.example",
            ZoneEntry {
                v4: Ipv4Addr::new(192, 0, 2, 1),
                v6: Some("2001:db8::1".parse().unwrap()),
                v6_from_week: 5,
                ttl: 100,
            },
        );
        db
    }

    /// Owned copy of one resolution, so tests can hold it across queries.
    fn resolve(
        r: &mut Resolver,
        db: &ZoneDb,
        name: &str,
        qtype: RecordType,
        week: u32,
    ) -> Option<Vec<Answer>> {
        r.resolve(db, name, qtype, week).map(<[Answer]>::to_vec)
    }

    #[test]
    fn every_query_goes_over_the_wire() {
        let db = zone();
        let mut r = Resolver::new();
        let a1 = resolve(&mut r, &db, "a.example", RecordType::A, 0).unwrap();
        assert_eq!(
            a1,
            vec![Answer { data: RecordData::V4(Ipv4Addr::new(192, 0, 2, 1)), ttl: 100 }]
        );
        let a2 = resolve(&mut r, &db, "a.example", RecordType::A, 0).unwrap();
        assert_eq!(a2, a1);
        assert_eq!(r.stats().exchanges, 2, "no cache: the repeat reaches the authority too");
    }

    #[test]
    fn nodata_answers_empty() {
        let db = zone();
        let mut r = Resolver::new();
        // AAAA before week 5: NODATA
        assert_eq!(resolve(&mut r, &db, "a.example", RecordType::Aaaa, 0), Some(vec![]));
        assert_eq!(r.stats().nxdomain, 0, "NODATA is not NXDOMAIN");
    }

    #[test]
    fn week_gating_visible_through_resolver() {
        let db = zone();
        let mut r = Resolver::new();
        assert!(r.resolve(&db, "a.example", RecordType::Aaaa, 4).unwrap().is_empty());
        assert_eq!(r.resolve(&db, "a.example", RecordType::Aaaa, 5).unwrap().len(), 1);
    }

    #[test]
    fn faulted_exchange_leaves_state_untouched() {
        let db = zone();
        let mut r = Resolver::new();
        assert_eq!(
            r.resolve_faulted(&db, "a.example", RecordType::A, 0, Some(DnsError::ServFail)),
            Err(DnsError::ServFail)
        );
        assert_eq!(r.stats(), ResolverStats::default(), "no counters move on a faulted exchange");
        // retry without fault behaves like a fresh query
        let ok = r.resolve_faulted(&db, "a.example", RecordType::A, 0, None).unwrap();
        assert_eq!(ok.unwrap().len(), 1);
        assert_eq!(r.stats().exchanges, 1);
    }

    #[test]
    fn oversized_label_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let long = format!("{}.example", "x".repeat(64));
        assert_eq!(r.resolve(&db, &long, RecordType::A, 0), None);
        // rejected before the authority saw it
        assert_eq!(r.stats().exchanges, 0);
        assert_eq!(r.stats().nxdomain, 0);
        // a 63-byte label is the legal maximum and goes through the codec
        let max = format!("{}.example", "x".repeat(63));
        assert_eq!(r.resolve(&db, &max, RecordType::A, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn too_many_labels_is_unresolvable_not_a_panic() {
        let db = zone();
        let mut r = Resolver::new();
        let deep = vec!["a"; 33].join(".");
        assert_eq!(r.resolve(&db, &deep, RecordType::A, 0), None);
        assert_eq!(r.stats().exchanges, 0, "never reached the wire");
        let legal = vec!["a"; 32].join(".");
        assert_eq!(r.resolve(&db, &legal, RecordType::A, 0), None, "NXDOMAIN, not a panic");
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn dns64_synthesizes_only_without_native_aaaa() {
        let db = zone();
        let mut r = Resolver::dns64();
        // Before week 5 the name is v4-only: the AAAA answer is synthesized
        // from its A record, carrying the A TTL.
        let ans = resolve(&mut r, &db, "a.example", RecordType::Aaaa, 0).unwrap();
        assert_eq!(ans.len(), 1);
        let RecordData::V6(v6) = ans[0].data else { panic!("expected AAAA data") };
        assert!(ipv6web_xlat::is_synthesized(v6));
        assert_eq!(ipv6web_xlat::extract(v6), Some(Ipv4Addr::new(192, 0, 2, 1)));
        assert_eq!(ans[0].ttl, 100, "synthesized AAAA carries the A TTL");
        // From week 5 a genuine AAAA exists and passes through untouched.
        let native = resolve(&mut r, &db, "a.example", RecordType::Aaaa, 5).unwrap();
        let RecordData::V6(v6) = native[0].data else { panic!("expected AAAA data") };
        assert!(!ipv6web_xlat::is_synthesized(v6), "native AAAA must never be rewritten");
    }

    #[test]
    fn dns64_nxdomain_stays_nxdomain() {
        let db = zone();
        let mut r = Resolver::dns64();
        assert_eq!(r.resolve(&db, "nope.example", RecordType::Aaaa, 0), None);
        assert_eq!(r.stats().nxdomain, 1);
    }

    #[test]
    fn dns64_wire_roundtrip_every_v4_form() {
        // Synthesized answers ride the real codec; the embedded address must
        // survive encode/decode bit-exact for edge-case v4 forms.
        let forms = [
            Ipv4Addr::new(0, 0, 0, 0),
            Ipv4Addr::new(0, 0, 0, 1),
            Ipv4Addr::new(127, 255, 255, 255),
            Ipv4Addr::new(128, 0, 0, 0),
            Ipv4Addr::new(192, 0, 2, 200),
            Ipv4Addr::new(255, 255, 255, 255),
        ];
        let mut db = ZoneDb::new();
        for (i, v4) in forms.iter().enumerate() {
            db.insert(
                format!("v4only{i}.example"),
                ZoneEntry { v4: *v4, v6: None, v6_from_week: 0, ttl: 60 },
            );
        }
        let mut r = Resolver::dns64();
        for (i, v4) in forms.iter().enumerate() {
            let name = format!("v4only{i}.example");
            let ans = r.resolve(&db, &name, RecordType::Aaaa, 0).unwrap();
            assert_eq!(ans.len(), 1, "{name}");
            let RecordData::V6(v6) = ans[0].data else { panic!("expected AAAA data") };
            assert_eq!(ipv6web_xlat::extract(v6), Some(*v4), "{name} must embed bit-exact");
        }
    }

    #[test]
    fn plain_resolver_never_synthesizes() {
        let db = zone();
        let mut r = Resolver::new();
        assert!(!r.is_dns64());
        let ans = r.resolve(&db, "a.example", RecordType::Aaaa, 0).unwrap();
        assert!(ans.is_empty(), "NODATA stays NODATA without DNS64");
    }

    proptest::proptest! {
        #[test]
        fn encodable_matches_the_label_rules(
            labels in proptest::collection::vec("[a-z]{0,70}", 0..40),
        ) {
            let name = labels.join(".");
            let by_split = name.split('.').all(|l| l.len() <= 63)
                && name.split('.').filter(|l| !l.is_empty()).count() <= 32;
            proptest::prop_assert_eq!(encodable(&name), by_split, "{}", name);
        }
    }
}
