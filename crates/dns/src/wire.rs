//! RFC 1035 message codec (query/response, A and AAAA answers).
//!
//! Names are encoded as uncompressed label sequences; the decoder also
//! understands (and rejects cleanly) compression pointers, which this
//! encoder never emits.
//!
//! Both directions work in caller-owned buffers: the encoders append to a
//! cleared `Vec<u8>` and [`DecodedMessage::decode`] refills one message in
//! place, keeping every name in a single arena. A resolver that holds one
//! of each reaches a steady state with no allocation per query.

use crate::records::{Answer, RecordData, RecordType};
use ipv6web_packet::PacketError;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Message header (12 bytes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DnsHeader {
    /// Transaction id.
    pub id: u16,
    /// True for responses, false for queries.
    pub response: bool,
    /// RCODE (0 = NOERROR, 3 = NXDOMAIN).
    pub rcode: u8,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
}

/// RCODE for NXDOMAIN.
pub const RCODE_NXDOMAIN: u8 = 3;

/// A decoded message. Question names are spans of one name arena, so
/// decoding into a reused message allocates nothing once its buffers have
/// grown to the message size. Answer owner names are checked like any
/// name but not kept: answers carry only their data and TTL.
#[derive(Debug, Clone, Default)]
pub struct DecodedMessage {
    /// Header fields.
    pub header: DnsHeader,
    names: String,
    questions: Vec<(Span, RecordType)>,
    answers: Vec<Answer>,
}

/// Byte range of one name in [`DecodedMessage`]'s arena.
type Span = (usize, usize);

impl DecodedMessage {
    /// Empty message, ready to [`decode`](Self::decode) into.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes `data`, replacing this message's contents. On error the
    /// contents are unspecified until the next successful decode.
    pub fn decode(&mut self, data: &[u8]) -> Result<(), PacketError> {
        self.names.clear();
        self.questions.clear();
        self.answers.clear();
        let mut buf = data;
        let h: [u8; 12] = take(&mut buf, "dns header")?;
        let be16 = |i: usize| u16::from_be_bytes([h[i], h[i + 1]]);
        let flags = be16(2);
        self.header = DnsHeader {
            id: be16(0),
            response: flags & 0x8000 != 0,
            rcode: (flags & 0x000f) as u8,
            qdcount: be16(4),
            ancount: be16(6),
        };
        // bytes 8..12 (NSCOUNT, ARCOUNT) are ignored: no such sections are read
        for _ in 0..self.header.qdcount {
            let name = decode_name(&mut buf, &mut self.names)?;
            let [t0, t1, _, _] = take(&mut buf, "dns question")?; // type, class
            let qtype = RecordType::from_code(u16::from_be_bytes([t0, t1]))
                .ok_or(PacketError::BadField { what: "dns qtype" })?;
            self.questions.push((name, qtype));
        }
        for _ in 0..self.header.ancount {
            decode_name(&mut buf, &mut self.names)?;
            // type, class, ttl, rdlength
            let [t0, t1, _, _, l0, l1, l2, l3, r0, r1] = take(&mut buf, "dns answer")?;
            let ttl = u32::from_be_bytes([l0, l1, l2, l3]);
            let rdlen = usize::from(u16::from_be_bytes([r0, r1]));
            if buf.len() < rdlen {
                return Err(PacketError::Truncated {
                    what: "dns rdata",
                    needed: rdlen,
                    got: buf.len(),
                });
            }
            let (rdata, rest) = buf.split_at(rdlen);
            buf = rest;
            let rtype = RecordType::from_code(u16::from_be_bytes([t0, t1]))
                .ok_or(PacketError::BadField { what: "dns answer type" })?;
            let data = match (rtype, <[u8; 4]>::try_from(rdata), <[u8; 16]>::try_from(rdata)) {
                (RecordType::A, Ok(o), _) => RecordData::V4(Ipv4Addr::from(o)),
                (RecordType::Aaaa, _, Ok(o)) => RecordData::V6(Ipv6Addr::from(o)),
                _ => return Err(PacketError::BadLength { what: "dns rdata length", value: rdlen }),
            };
            self.answers.push(Answer { data, ttl });
        }
        Ok(())
    }

    /// Question `i` as `(name, qtype)`.
    pub fn question(&self, i: usize) -> Option<(&str, RecordType)> {
        self.questions.get(i).map(|&(span, qtype)| (self.name(span), qtype))
    }

    /// The decoded answers, in wire order.
    pub fn answers(&self) -> &[Answer] {
        &self.answers
    }

    fn name(&self, (start, end): Span) -> &str {
        &self.names[start..end]
    }
}

/// Encodes a single-question query into `out` (cleared first).
pub fn encode_query(out: &mut Vec<u8>, id: u16, name: &str, qtype: RecordType) {
    out.clear();
    put_header(out, id, false, 0, 1, 0);
    put_question(out, name, qtype);
}

/// Encodes the response to `query` into `out` (cleared first): the
/// query's id and questions echoed back, then `answers` owned by the first
/// question's name (empty = NODATA), or NXDOMAIN when `nxdomain` is set.
pub fn encode_response(
    out: &mut Vec<u8>,
    query: &DecodedMessage,
    answers: &[Answer],
    nxdomain: bool,
) {
    out.clear();
    let rcode = if nxdomain { RCODE_NXDOMAIN } else { 0 };
    let (qd, an) = (query.questions.len() as u16, answers.len() as u16);
    put_header(out, query.header.id, true, rcode, qd, an);
    for &(span, qtype) in &query.questions {
        put_question(out, query.name(span), qtype);
    }
    let owner = query.question(0).map_or("", |(name, _)| name);
    for a in answers {
        encode_name(out, owner);
        out.extend_from_slice(&a.data.record_type().code().to_be_bytes());
        out.extend_from_slice(&[0, 1]); // IN
        out.extend_from_slice(&a.ttl.to_be_bytes());
        match a.data {
            RecordData::V4(ip) => {
                out.extend_from_slice(&[0, 4]);
                out.extend_from_slice(&ip.octets());
            }
            RecordData::V6(ip) => {
                out.extend_from_slice(&[0, 16]);
                out.extend_from_slice(&ip.octets());
            }
        }
    }
}

fn put_header(out: &mut Vec<u8>, id: u16, response: bool, rcode: u8, qd: u16, an: u16) {
    let mut flags: u16 = 0x0100; // RD
    if response {
        flags |= 0x8000;
    }
    flags |= rcode as u16 & 0x000f;
    let [i0, i1] = id.to_be_bytes();
    let [f0, f1] = flags.to_be_bytes();
    let [q0, q1] = qd.to_be_bytes();
    let [a0, a1] = an.to_be_bytes();
    // NSCOUNT and ARCOUNT are always zero
    out.extend_from_slice(&[i0, i1, f0, f1, q0, q1, a0, a1, 0, 0, 0, 0]);
}

fn put_question(out: &mut Vec<u8>, name: &str, qtype: RecordType) {
    encode_name(out, name);
    out.extend_from_slice(&qtype.code().to_be_bytes());
    out.extend_from_slice(&[0, 1]); // IN
}

fn encode_name(v: &mut Vec<u8>, name: &str) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        debug_assert!(label.len() < 64, "label too long: {label}");
        v.push(label.len() as u8);
        v.extend_from_slice(label.as_bytes());
    }
    v.push(0);
}

/// Splits the next `N` bytes off `buf`, or reports `what` as truncated.
fn take<const N: usize>(buf: &mut &[u8], what: &'static str) -> Result<[u8; N], PacketError> {
    let (head, rest) = buf.split_first_chunk::<N>().ok_or(PacketError::Truncated {
        what,
        needed: N,
        got: buf.len(),
    })?;
    *buf = rest;
    Ok(*head)
}

/// Decodes one name from `buf`, appending it (labels joined by `.`) to
/// `arena` and returning its span there.
fn decode_name(buf: &mut &[u8], arena: &mut String) -> Result<Span, PacketError> {
    let start = arena.len();
    let mut labels = 0usize;
    loop {
        let Some((&len, rest)) = buf.split_first() else {
            return Err(PacketError::Truncated { what: "dns name", needed: 1, got: 0 });
        };
        *buf = rest;
        let len = usize::from(len);
        if len == 0 {
            break;
        }
        if len & 0xc0 != 0 {
            return Err(PacketError::BadField { what: "dns compression pointer (unsupported)" });
        }
        if buf.len() < len {
            return Err(PacketError::Truncated { what: "dns label", needed: len, got: buf.len() });
        }
        let (label, rest) = buf.split_at(len);
        *buf = rest;
        let label = std::str::from_utf8(label)
            .map_err(|_| PacketError::BadField { what: "dns label utf8" })?;
        if labels > 0 {
            arena.push('.');
        }
        arena.push_str(label);
        labels += 1;
        if labels > 32 {
            return Err(PacketError::BadField { what: "dns name too deep" });
        }
    }
    Ok((start, arena.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn query(id: u16, name: &str, qtype: RecordType) -> Vec<u8> {
        let mut v = Vec::new();
        encode_query(&mut v, id, name, qtype);
        v
    }

    fn decode(wire: &[u8]) -> Result<DecodedMessage, PacketError> {
        let mut m = DecodedMessage::new();
        m.decode(wire).map(|()| m)
    }

    /// The wire response to a fresh query for `name`.
    fn response(id: u16, name: &str, qtype: RecordType, answers: &[Answer], nx: bool) -> Vec<u8> {
        let q = decode(&query(id, name, qtype)).unwrap();
        let mut v = Vec::new();
        encode_response(&mut v, &q, answers, nx);
        v
    }

    fn a(addr: Ipv4Addr, ttl: u32) -> Answer {
        Answer { data: RecordData::V4(addr), ttl }
    }

    #[test]
    fn query_roundtrip() {
        let d = decode(&query(0x1234, "www.site7.example", RecordType::Aaaa)).unwrap();
        assert_eq!(
            d.header,
            DnsHeader { id: 0x1234, response: false, rcode: 0, qdcount: 1, ancount: 0 }
        );
        assert!(!d.header.response);
        assert_eq!(d.questions.len(), 1);
        assert_eq!(d.question(0), Some(("www.site7.example", RecordType::Aaaa)));
        assert!(d.answers().is_empty());
    }

    #[test]
    fn response_roundtrip_with_answers() {
        let wire =
            response(7, "s.example", RecordType::A, &[a(Ipv4Addr::new(192, 0, 2, 9), 120)], false);
        let d = decode(&wire).unwrap();
        assert!(d.header.response);
        assert_eq!(d.header.id, 7);
        assert_eq!(d.header.rcode, 0);
        assert_eq!(d.answers().len(), 1);
        assert_eq!(d.answers()[0].data, RecordData::V4(Ipv4Addr::new(192, 0, 2, 9)));
        assert_eq!(d.answers()[0].ttl, 120);
        assert_eq!(d.question(0), Some(("s.example", RecordType::A)), "question echoed");
    }

    #[test]
    fn aaaa_answer_roundtrip() {
        let v6 = RecordData::V6("2001:db8::42".parse().unwrap());
        let wire =
            response(8, "s.example", RecordType::Aaaa, &[Answer { data: v6, ttl: 60 }], false);
        assert_eq!(decode(&wire).unwrap().answers()[0].data, v6);
    }

    #[test]
    fn nxdomain_response() {
        let d = decode(&response(9, "gone.example", RecordType::A, &[], true)).unwrap();
        assert_eq!(d.header.rcode, RCODE_NXDOMAIN);
        assert!(d.answers().is_empty());
    }

    #[test]
    fn nodata_response_has_rcode_zero() {
        let d = decode(&response(9, "v4only.example", RecordType::Aaaa, &[], false)).unwrap();
        assert_eq!(d.header.rcode, 0);
        assert!(d.answers().is_empty());
    }

    #[test]
    fn truncated_rejected() {
        let q = query(1, "x.example", RecordType::A);
        for cut in [0, 5, 11, q.len() - 1] {
            assert!(decode(&q[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn compression_pointer_rejected() {
        let mut v = query(1, "x.example", RecordType::A);
        v[12] = 0xc0; // pointer marker where the first label length was
        assert_eq!(
            decode(&v).unwrap_err(),
            PacketError::BadField { what: "dns compression pointer (unsupported)" }
        );
    }

    #[test]
    fn unknown_qtype_rejected() {
        let mut v = query(1, "x.example", RecordType::A);
        let n = v.len();
        v[n - 4] = 0;
        v[n - 3] = 15; // MX
        assert_eq!(decode(&v).unwrap_err(), PacketError::BadField { what: "dns qtype" });
    }

    #[test]
    fn empty_name_roundtrips_as_root() {
        let d = decode(&query(2, "", RecordType::A)).unwrap();
        assert_eq!(d.question(0), Some(("", RecordType::A)));
    }

    #[test]
    fn too_deep_name_rejected() {
        let legal = vec!["a"; 32].join(".");
        assert_eq!(decode(&query(3, &legal, RecordType::A)).unwrap().question(0).unwrap().0, legal);
        let deep = vec!["a"; 33].join(".");
        assert_eq!(
            decode(&query(3, &deep, RecordType::A)).unwrap_err(),
            PacketError::BadField { what: "dns name too deep" }
        );
    }

    #[test]
    fn decoding_reuses_one_message() {
        // a message decoded over a larger one must not keep any of it
        let mut m = DecodedMessage::new();
        let many: Vec<Answer> = (0..5).map(|i| a(Ipv4Addr::new(10, 0, 0, i), 60)).collect();
        m.decode(&response(1, "long.name.example", RecordType::A, &many, false)).unwrap();
        assert_eq!(m.answers().len(), 5);
        m.decode(&query(2, "b.example", RecordType::Aaaa)).unwrap();
        assert_eq!(m.question(0), Some(("b.example", RecordType::Aaaa)));
        assert_eq!(m.questions.len(), 1);
        assert!(m.answers().is_empty());
    }

    fn valid_messages() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec("[a-z0-9-]{1,20}", 0..5),
            any::<u16>(),
            prop_oneof![Just(RecordType::A), Just(RecordType::Aaaa)],
            proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..4),
            0u8..3,
        )
            .prop_map(|(labels, id, qtype, answers, kind)| {
                let name = labels.join(".");
                let answers: Vec<Answer> = answers
                    .into_iter()
                    .map(|(bits, ttl, v6)| Answer {
                        data: if v6 {
                            RecordData::V6(Ipv6Addr::from(u128::from(bits) << 64 | 1))
                        } else {
                            RecordData::V4(Ipv4Addr::from(bits))
                        },
                        ttl,
                    })
                    .collect();
                match kind {
                    0 => query(id, &name, qtype),
                    1 => response(id, &name, qtype, &answers, false),
                    _ => response(id, &name, qtype, &[], true),
                }
            })
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_names(
            labels in proptest::collection::vec("[a-z0-9-]{1,20}", 1..5),
            id in any::<u16>(),
        ) {
            let name = labels.join(".");
            let d = decode(&query(id, &name, RecordType::Aaaa)).unwrap();
            prop_assert_eq!(d.question(0), Some((name.as_str(), RecordType::Aaaa)));
            prop_assert_eq!(d.header.id, id);
        }

        #[test]
        fn roundtrip_many_answers(
            n in 0usize..10,
            ttl in any::<u32>(),
        ) {
            let recs: Vec<Answer> = (0..n)
                .map(|i| a(Ipv4Addr::new(10, 0, (i / 256) as u8, (i % 256) as u8), ttl))
                .collect();
            let d = decode(&response(3, "multi.example", RecordType::A, &recs, false)).unwrap();
            prop_assert_eq!(d.answers().len(), n);
            for (got, want) in d.answers().iter().zip(&recs) {
                prop_assert_eq!(got.data, want.data);
                prop_assert_eq!(got.ttl, ttl);
            }
        }

        #[test]
        fn valid_messages_reencode_bit_exact(wire in valid_messages()) {
            // decode → encode reproduces the bytes: nothing is lost or
            // invented by the arena form
            let d = decode(&wire).unwrap();
            let mut again = Vec::new();
            if d.header.response {
                let (name, qtype) = d.question(0).unwrap();
                let q = decode(&query(d.header.id, name, qtype)).unwrap();
                encode_response(&mut again, &q, d.answers(), d.header.rcode == RCODE_NXDOMAIN);
            } else {
                let (name, qtype) = d.question(0).unwrap();
                encode_query(&mut again, d.header.id, name, qtype);
            }
            prop_assert_eq!(again, wire);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
            let mut m = DecodedMessage::new();
            let _ = m.decode(&bytes);
        }

        #[test]
        fn every_truncation_and_bit_flip_is_handled(wire in valid_messages()) {
            // one reused message across every mutation, as a resolver would
            let mut m = DecodedMessage::new();
            for cut in 0..wire.len() {
                // a valid message ends exactly at its last byte: every strict
                // prefix is short of something
                prop_assert!(m.decode(&wire[..cut]).is_err(), "prefix {} decoded", cut);
            }
            let mut flipped = wire.clone();
            for bit in 0..wire.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                if m.decode(&flipped).is_ok() {
                    // whatever decodes must be internally consistent
                    prop_assert_eq!(m.questions.len(), usize::from(m.header.qdcount));
                    prop_assert_eq!(m.answers().len(), usize::from(m.header.ancount));
                }
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            prop_assert!(m.decode(&wire).is_ok(), "the unmutated message still decodes");
        }
    }
}
