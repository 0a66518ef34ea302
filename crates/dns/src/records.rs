//! DNS record model (the A/AAAA subset the study needs).

use serde::{Deserialize, Serialize};
use std::net::{Ipv4Addr, Ipv6Addr};

/// Query/record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordType {
    /// IPv4 address record (type 1).
    A,
    /// IPv6 address record (type 28).
    Aaaa,
}

impl RecordType {
    /// RFC 1035 / 3596 type code.
    pub fn code(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Aaaa => 28,
        }
    }

    /// Parses a type code.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(RecordType::A),
            28 => Some(RecordType::Aaaa),
            _ => None,
        }
    }
}

/// Address payload of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RecordData {
    /// A record payload.
    V4(Ipv4Addr),
    /// AAAA record payload.
    V6(Ipv6Addr),
}

impl RecordData {
    /// The record type this payload belongs to.
    pub fn record_type(self) -> RecordType {
        match self {
            RecordData::V4(_) => RecordType::A,
            RecordData::V6(_) => RecordType::Aaaa,
        }
    }
}

/// One answer record as the resolver hands it back: the address payload
/// and its TTL. The owner name is always the question's, so it is not
/// carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Address payload.
    pub data: RecordData,
    /// Time to live, seconds.
    pub ttl: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_codes_match_rfcs() {
        assert_eq!(RecordType::A.code(), 1);
        assert_eq!(RecordType::Aaaa.code(), 28);
        assert_eq!(RecordType::from_code(1), Some(RecordType::A));
        assert_eq!(RecordType::from_code(28), Some(RecordType::Aaaa));
        assert_eq!(RecordType::from_code(15), None, "MX unsupported");
    }

    #[test]
    fn data_knows_its_type() {
        assert_eq!(RecordData::V4(Ipv4Addr::LOCALHOST).record_type(), RecordType::A);
        assert_eq!(RecordData::V6(Ipv6Addr::LOCALHOST).record_type(), RecordType::Aaaa);
    }
}
