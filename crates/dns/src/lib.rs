//! Simulated DNS for the monitoring pipeline.
//!
//! The first phase of every site's monitoring round is "a DNS query for the
//! A and AAAA records of the site" (Section 3, Fig 2). This crate provides:
//!
//! * [`zone`] — the authoritative view: which names have A records, which
//!   have AAAA records, and what addresses they resolve to. Sites becoming
//!   IPv6-accessible over the campaign is modeled as AAAA records appearing
//!   at a given week.
//! * [`resolver`] — the stub resolver each vantage point used. The monitor
//!   resets it before every download, so it keeps no cache: every query is
//!   one wire round trip to the authority, with optional DNS64 synthesis.
//! * [`wire`] — an RFC 1035 message codec (header, question, answer with
//!   A/AAAA RDATA) so queries and responses exist as real bytes. It encodes
//!   into and decodes from reused buffers.

pub mod names;
pub mod records;
pub mod resolver;
pub mod wire;
pub mod zone;

pub use names::{NameId, NameTable};
pub use records::{Answer, RecordData, RecordType};
pub use resolver::{DnsError, Resolver, ResolverStats};
pub use wire::{DecodedMessage, DnsHeader};
pub use zone::{ZoneDb, ZoneEntry};
