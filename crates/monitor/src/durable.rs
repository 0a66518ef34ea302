//! Durable on-disk state: atomic whole-file writes, quarantine of corrupt
//! files, and the append-only round log that campaign checkpoints live in.
//!
//! # The round log
//!
//! Each vantage point's campaign appends one frame per completed round to
//! `<slug>.log` in the checkpoint directory, the way the paper's monitors
//! add each round's rows to their local database:
//!
//! ```text
//! header: "IPV6WLOG" | version u32 | name_len u64 | vantage name
//! frame:  payload_len u32 | payload | fnv1a64(payload) u64
//! payload (outage):  0u8 | week u32
//! payload (probed):  1u8 | week u32 | lost u64 | entry*
//! entry:  site u32 | added_week u32 | outcome tag u8 | outcome fields
//! ```
//!
//! All integers are little-endian; a measured sample's speed is stored as
//! `f64::to_bits`, so a replayed database is bit-identical. Entries follow
//! the site order the round applied them in, so replay rebuilds the same
//! record arena.
//!
//! Durability: the header is written with [`write_atomic`] (file and
//! directory fsynced once, when the log is created); every frame is one
//! `write_all` of a reused buffer followed by `fdatasync`. On open, a torn
//! tail (a short last frame, or a bad last frame) is truncated away, and a
//! bad frame followed by a good one — damage no crash produces — gets the
//! whole file quarantined as `<slug>.log.corrupt`.

use crate::probe::ProbeOutcome;
use crate::PerfSample;
use ipv6web_topology::Family;
use ipv6web_web::SiteId;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a, the round log's frame checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fsyncs a directory, making a rename or file creation inside it durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    let dir = if dir.as_os_str().is_empty() { Path::new(".") } else { dir };
    File::open(dir)?.sync_all()
}

/// Atomically replaces `path` with `bytes`: a pid-suffixed temp sibling is
/// written and fsynced, renamed into place, and the parent directory is
/// fsynced. A crash leaves either the old file or the new one (plus, at
/// worst, a `*.tmp` that store scans delete); the pid suffix keeps racing
/// writer processes from tearing each other's temp files. Errors carry
/// the target path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_dir(path.parent().unwrap_or(Path::new(".")))
    };
    write().map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io::Error::new(e.kind(), format!("{}: {e}", path.display()))
    })
}

/// Renames a corrupt file to `<name>.corrupt` (never half-reads it again)
/// and bumps the `store.quarantined` counter. Returns the new path.
pub fn quarantine(path: &Path) -> io::Result<PathBuf> {
    let mut corrupt = path.as_os_str().to_owned();
    corrupt.push(".corrupt");
    let corrupt = PathBuf::from(corrupt);
    std::fs::rename(path, &corrupt)?;
    ipv6web_obs::inc("store.quarantined");
    Ok(corrupt)
}

const MAGIC: &[u8; 8] = b"IPV6WLOG";
const VERSION: u32 = 1;
const KIND_OUTAGE: u8 = 0;
const KIND_PROBED: u8 = 1;
/// Frame bytes around the payload: length prefix + checksum.
const FRAME_OVERHEAD: usize = 4 + 8;

/// The exact header a log for `vantage` starts with.
pub fn log_header(vantage: &str) -> Vec<u8> {
    let mut h = Vec::with_capacity(20 + vantage.len());
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&VERSION.to_le_bytes());
    h.extend_from_slice(&(vantage.len() as u64).to_le_bytes());
    h.extend_from_slice(vantage.as_bytes());
    h
}

/// One round read back from the log.
#[derive(Debug, Clone, Copy)]
pub enum LoggedRound<'a> {
    /// The vantage point was down for `week`; nothing was probed.
    Outage {
        /// The campaign week.
        week: u32,
    },
    /// `week` was probed.
    Probed {
        /// The campaign week.
        week: u32,
        /// Probes whose outcome never arrived.
        lost: usize,
        /// `(site, added_week, outcome)` in the order they were applied.
        entries: Entries<'a>,
    },
}

/// The entries of a validated probed frame, decoded as they are iterated.
#[derive(Debug, Clone, Copy)]
pub struct Entries<'a>(&'a [u8]);

impl Iterator for Entries<'_> {
    type Item = (SiteId, u32, ProbeOutcome);

    fn next(&mut self) -> Option<Self::Item> {
        let mut r = Reader(self.0);
        let entry = decode_entry(&mut r)?;
        self.0 = r.0;
        Some(entry)
    }
}

/// A cursor over untrusted bytes; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

fn family_tag(f: Family) -> u8 {
    match f {
        Family::V4 => 0,
        Family::V6 => 1,
    }
}

fn decode_family(r: &mut Reader<'_>) -> Option<Family> {
    match r.u8()? {
        0 => Some(Family::V4),
        1 => Some(Family::V6),
        _ => None,
    }
}

fn encode_sample(buf: &mut Vec<u8>, s: &PerfSample) {
    buf.extend_from_slice(&s.week.to_le_bytes());
    buf.extend_from_slice(&s.speed_kbps.to_bits().to_le_bytes());
    buf.extend_from_slice(&s.downloads.to_le_bytes());
}

fn decode_sample(r: &mut Reader<'_>) -> Option<PerfSample> {
    Some(PerfSample { week: r.u32()?, speed_kbps: f64::from_bits(r.u64()?), downloads: r.u32()? })
}

fn encode_entry(buf: &mut Vec<u8>, site: SiteId, added_week: u32, outcome: &ProbeOutcome) {
    buf.extend_from_slice(&site.0.to_le_bytes());
    buf.extend_from_slice(&added_week.to_le_bytes());
    match outcome {
        ProbeOutcome::NxDomain => buf.push(0),
        ProbeOutcome::V4Only => buf.push(1),
        ProbeOutcome::Unroutable(f) => buf.extend_from_slice(&[2, family_tag(*f)]),
        ProbeOutcome::DifferentContent => buf.push(3),
        ProbeOutcome::Measured { v4, v6 } => {
            buf.push(4);
            encode_sample(buf, v4);
            encode_sample(buf, v6);
        }
        ProbeOutcome::Unconfident(f) => buf.extend_from_slice(&[5, family_tag(*f)]),
        ProbeOutcome::Malformed => buf.push(6),
        ProbeOutcome::DnsFailure => buf.push(7),
        ProbeOutcome::TimedOut(f) => buf.extend_from_slice(&[8, family_tag(*f)]),
    }
}

fn decode_entry(r: &mut Reader<'_>) -> Option<(SiteId, u32, ProbeOutcome)> {
    let site = SiteId(r.u32()?);
    let added_week = r.u32()?;
    let outcome = match r.u8()? {
        0 => ProbeOutcome::NxDomain,
        1 => ProbeOutcome::V4Only,
        2 => ProbeOutcome::Unroutable(decode_family(r)?),
        3 => ProbeOutcome::DifferentContent,
        4 => ProbeOutcome::Measured { v4: decode_sample(r)?, v6: decode_sample(r)? },
        5 => ProbeOutcome::Unconfident(decode_family(r)?),
        6 => ProbeOutcome::Malformed,
        7 => ProbeOutcome::DnsFailure,
        8 => ProbeOutcome::TimedOut(decode_family(r)?),
        _ => return None,
    };
    Some((site, added_week, outcome))
}

/// Why a frame could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than the frame needs (a torn append).
    Short,
    /// The payload does not match its checksum.
    BadChecksum,
    /// The checksum holds but the payload does not decode (or names a
    /// site outside the population).
    BadPayload,
}

/// Parses the frame at the start of `bytes`, returning the round and the
/// frame's length. Entries are validated here (every one decodes, every
/// site is below `n_sites`), so iterating them afterwards cannot fail.
/// Allocates nothing.
pub fn parse_frame(bytes: &[u8], n_sites: usize) -> Result<(LoggedRound<'_>, usize), FrameError> {
    let mut r = Reader(bytes);
    let len = r.u32().ok_or(FrameError::Short)? as usize;
    let payload = r.take(len).ok_or(FrameError::Short)?;
    let sum = r.u64().ok_or(FrameError::Short)?;
    if fnv1a64(payload) != sum {
        return Err(FrameError::BadChecksum);
    }
    let mut p = Reader(payload);
    let round = match (p.u8(), p.u32()) {
        (Some(KIND_OUTAGE), Some(week)) if p.0.is_empty() => LoggedRound::Outage { week },
        (Some(KIND_PROBED), Some(week)) => {
            let lost = p.u64().and_then(|n| usize::try_from(n).ok());
            let lost = lost.ok_or(FrameError::BadPayload)?;
            let entries = Entries(p.0);
            while !p.0.is_empty() {
                match decode_entry(&mut p) {
                    Some((site, _, _)) if site.index() < n_sites => {}
                    _ => return Err(FrameError::BadPayload),
                }
            }
            LoggedRound::Probed { week, lost, entries }
        }
        _ => return Err(FrameError::BadPayload),
    };
    Ok((round, FRAME_OVERHEAD + len))
}

/// How a log's bytes end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTail {
    /// Every byte after the header belongs to a good frame.
    Clean,
    /// The last frame is short or bad: a crash mid-append. Truncate to
    /// [`LogScan::good_end`] and carry on.
    Torn,
    /// The header is wrong, or a bad frame is followed by a good one. The
    /// file cannot be trusted past the damage and is quarantined.
    Corrupt,
}

/// What [`scan_log`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogScan {
    /// Offset just past the last good frame (0 when the header is bad).
    pub good_end: usize,
    /// Good frames before `good_end`.
    pub frames: usize,
    /// What follows `good_end`.
    pub tail: LogTail,
}

/// Classifies a whole log file's bytes against the header it must start
/// with. Allocates nothing and never panics, whatever the bytes.
pub fn scan_log(bytes: &[u8], header: &[u8], n_sites: usize) -> LogScan {
    if !bytes.starts_with(header) {
        return LogScan { good_end: 0, frames: 0, tail: LogTail::Corrupt };
    }
    let mut at = header.len();
    let mut frames = 0;
    while at < bytes.len() {
        match parse_frame(&bytes[at..], n_sites) {
            Ok((_, n)) => {
                at += n;
                frames += 1;
            }
            Err(FrameError::Short) => break,
            Err(_) => {
                // a bad frame with intact framing: damage if a good frame
                // follows it, a torn last append otherwise
                let len =
                    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
                        as usize;
                let next = at + FRAME_OVERHEAD + len;
                if parse_frame(&bytes[next..], n_sites).is_ok() {
                    return LogScan { good_end: at, frames, tail: LogTail::Corrupt };
                }
                break;
            }
        }
    }
    let tail = if at == bytes.len() { LogTail::Clean } else { LogTail::Torn };
    LogScan { good_end: at, frames, tail }
}

/// How [`RoundLog::open`] found the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery {
    /// No log existed; a fresh one was created.
    Created,
    /// The log was intact; `frames` rounds were replayed.
    Clean {
        /// Rounds replayed.
        frames: usize,
    },
    /// A torn last append was cut off after replaying `frames` rounds.
    TruncatedTail {
        /// Rounds replayed.
        frames: usize,
        /// Bytes cut off the end.
        dropped_bytes: u64,
    },
    /// The log was damaged mid-file: it was moved aside and a fresh log
    /// started, so the campaign re-probes from its start week.
    Quarantined {
        /// Where the damaged file now lives.
        corrupt: PathBuf,
    },
}

/// An open round log, positioned for appending.
#[derive(Debug)]
pub struct RoundLog {
    file: File,
    path: PathBuf,
    /// Reused frame buffer: one allocation for the whole campaign.
    buf: Vec<u8>,
}

impl RoundLog {
    /// Opens the log at `path` for `vantage`, creating it if absent. Every
    /// good round is handed to `replay` in file order — unless the log
    /// turns out to be corrupt, in which case nothing is replayed, the file
    /// is quarantined and a fresh log is created. A torn tail is truncated.
    /// The file is read once.
    pub fn open(
        path: &Path,
        vantage: &str,
        n_sites: usize,
        mut replay: impl FnMut(LoggedRound<'_>),
    ) -> io::Result<(RoundLog, Recovery)> {
        let header = log_header(vantage);
        let mut file = match OpenOptions::new().read(true).append(true).open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((Self::create(path, &header)?, Recovery::Created));
            }
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan_log(&bytes, &header, n_sites);
        if scan.tail == LogTail::Corrupt {
            drop(file);
            let corrupt = quarantine(path)?;
            return Ok((Self::create(path, &header)?, Recovery::Quarantined { corrupt }));
        }
        let mut rest = &bytes[header.len()..scan.good_end];
        while let Ok((round, n)) = parse_frame(rest, n_sites) {
            replay(round);
            rest = &rest[n..];
        }
        let dropped_bytes = (bytes.len() - scan.good_end) as u64;
        let recovery = if dropped_bytes == 0 {
            Recovery::Clean { frames: scan.frames }
        } else {
            file.set_len(scan.good_end as u64)?;
            file.sync_data()?;
            Recovery::TruncatedTail { frames: scan.frames, dropped_bytes }
        };
        Ok((RoundLog { file, path: path.to_path_buf(), buf: Vec::new() }, recovery))
    }

    fn create(path: &Path, header: &[u8]) -> io::Result<RoundLog> {
        write_atomic(path, header)?;
        ipv6web_obs::add("store.ckpt_bytes", header.len() as u64);
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(RoundLog { file, path: path.to_path_buf(), buf: Vec::new() })
    }

    /// The log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends an outage week.
    pub fn append_outage(&mut self, week: u32) -> io::Result<()> {
        self.begin(KIND_OUTAGE, week);
        self.commit()
    }

    /// Appends a probed week: `lost` probes never reported, `entries` in
    /// the order the round applies them.
    pub fn append_probed<'o>(
        &mut self,
        week: u32,
        lost: usize,
        entries: impl IntoIterator<Item = (SiteId, u32, &'o ProbeOutcome)>,
    ) -> io::Result<()> {
        self.begin(KIND_PROBED, week);
        self.buf.extend_from_slice(&(lost as u64).to_le_bytes());
        for (site, added_week, outcome) in entries {
            encode_entry(&mut self.buf, site, added_week, outcome);
        }
        self.commit()
    }

    /// Starts a frame: a length placeholder, the kind and the week.
    fn begin(&mut self, kind: u8, week: u32) {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; 4]);
        self.buf.push(kind);
        self.buf.extend_from_slice(&week.to_le_bytes());
    }

    /// Seals the frame (length, checksum), writes it in one call and
    /// syncs the file's data.
    fn commit(&mut self) -> io::Result<()> {
        let len = u32::try_from(self.buf.len() - 4).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "a round frame exceeds 4 GiB")
        })?;
        let sum = fnv1a64(&self.buf[4..]);
        self.buf[..4].copy_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&self.buf)?;
        self.file.sync_data()?;
        ipv6web_obs::add("store.ckpt_bytes", self.buf.len() as u64);
        ipv6web_obs::inc("store.ckpt_frames");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(week: u32, speed: f64) -> PerfSample {
        PerfSample { week, speed_kbps: speed, downloads: 7 }
    }

    fn every_outcome() -> Vec<ProbeOutcome> {
        vec![
            ProbeOutcome::NxDomain,
            ProbeOutcome::V4Only,
            ProbeOutcome::Unroutable(Family::V6),
            ProbeOutcome::DifferentContent,
            ProbeOutcome::Measured { v4: sample(3, 812.5), v6: sample(3, f64::MIN_POSITIVE) },
            ProbeOutcome::Unconfident(Family::V4),
            ProbeOutcome::Malformed,
            ProbeOutcome::DnsFailure,
            ProbeOutcome::TimedOut(Family::V6),
        ]
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipv6web-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = tmpdir("atomic");
        let path = dir.join("doc.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, vec![std::ffi::OsString::from("doc.json")]);
        let err = write_atomic(&dir.join("missing").join("x"), b"x").unwrap_err();
        assert!(err.to_string().contains("missing"), "error names the path: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_outcome_round_trips_bit_exact() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("vp.log");
        let outcomes = every_outcome();
        let (mut log, rec) = RoundLog::open(&path, "VP", 100, |_| panic!("fresh log")).unwrap();
        assert_eq!(rec, Recovery::Created);
        log.append_outage(2).unwrap();
        log.append_probed(
            3,
            4,
            outcomes.iter().enumerate().map(|(i, o)| (SiteId(i as u32 * 7), i as u32, o)),
        )
        .unwrap();
        drop(log);

        let mut seen = Vec::new();
        let (_, rec) = RoundLog::open(&path, "VP", 100, |r| match r {
            LoggedRound::Outage { week } => seen.push((week, usize::MAX, Vec::new())),
            LoggedRound::Probed { week, lost, entries } => {
                seen.push((week, lost, entries.collect()))
            }
        })
        .unwrap();
        assert_eq!(rec, Recovery::Clean { frames: 2 });
        assert_eq!(seen[0], (2, usize::MAX, vec![]));
        let want: Vec<_> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| (SiteId(i as u32 * 7), i as u32, o))
            .collect();
        assert_eq!(seen[1], (3, 4, want));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_population_site_is_a_bad_payload() {
        let mut log_bytes = log_header("VP");
        let mut payload = vec![KIND_PROBED];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        encode_entry(&mut payload, SiteId(50), 0, &ProbeOutcome::V4Only);
        log_bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log_bytes.extend_from_slice(&payload);
        log_bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        let frame = &log_bytes[log_header("VP").len()..];
        assert!(parse_frame(frame, 51).is_ok());
        assert_eq!(parse_frame(frame, 50).unwrap_err(), FrameError::BadPayload);
    }

    #[test]
    fn wrong_vantage_header_is_corrupt() {
        let bytes = log_header("Penn");
        assert_eq!(scan_log(&bytes, &log_header("Penn"), 1).tail, LogTail::Clean);
        assert_eq!(scan_log(&bytes, &log_header("UPCB"), 1).tail, LogTail::Corrupt);
        assert_eq!(scan_log(&bytes[..5], &log_header("Penn"), 1).tail, LogTail::Corrupt);
    }
}
