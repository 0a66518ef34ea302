//! The crash-safe on-disk job store.
//!
//! One directory holds everything the daemon must survive a `SIGKILL`
//! with, keyed by job id:
//!
//! * `{id}.json` — the [`JobRecord`], rewritten (atomic temp+rename) on
//!   every state change;
//! * `{id}.ckpt/` — the study's per-vantage round logs, which is what lets
//!   a rebooted daemon resume a killed job from its last completed round;
//! * `{id}.report.json` — the finished report, byte-identical to
//!   `repro --json` output for the same scenario.
//!
//! [`JobStore::scan`] is the boot path: it deletes torn `*.tmp` leftovers
//! (a crash mid-write), quarantines unparseable records as `*.corrupt`
//! (never half-reads them), and returns the surviving records in
//! submission order.

use crate::job::JobRecord;
use ipv6web_monitor::durable::{quarantine, write_atomic};
use std::io;
use std::path::{Path, PathBuf};

/// Handle on the store directory. All writes go through
/// [`write_atomic`] (fsynced temp + rename), so a reader (or the next
/// boot) only ever sees complete documents.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

/// What a boot-time [`JobStore::scan`] found.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Parseable records, sorted by submission sequence.
    pub records: Vec<JobRecord>,
    /// Records that failed to parse, renamed to `*.corrupt` and skipped.
    pub quarantined: Vec<PathBuf>,
    /// Torn `*.tmp` files from a crash mid-write, deleted.
    pub removed_tmp: usize,
}

impl JobStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<JobStore> {
        std::fs::create_dir_all(dir)?;
        Ok(JobStore { dir: dir.to_path_buf() })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of a job's record document.
    pub fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.json"))
    }

    /// Path of a job's finished report.
    pub fn report_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.report.json"))
    }

    /// Per-job checkpoint directory handed to the study driver.
    pub fn checkpoint_dir(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// Persists a record (atomic; overwrites any previous version).
    pub fn save(&self, record: &JobRecord) -> io::Result<()> {
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&self.record_path(&record.id), json.as_bytes())
    }

    /// Persists a finished report (atomic).
    pub fn save_report(&self, id: &str, bytes: &[u8]) -> io::Result<()> {
        write_atomic(&self.report_path(id), bytes)
    }

    /// Reads a finished report back, `None` when absent.
    pub fn load_report(&self, id: &str) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.report_path(id)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Boot-time recovery sweep over the store directory.
    pub fn scan(&self) -> io::Result<ScanOutcome> {
        let mut out = ScanOutcome::default();
        let mut entries: Vec<PathBuf> =
            std::fs::read_dir(&self.dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort(); // deterministic quarantine order for logs/tests
        for path in entries {
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name.ends_with(".tmp") {
                std::fs::remove_file(&path)?;
                out.removed_tmp += 1;
                continue;
            }
            if !name.starts_with("job-")
                || !name.ends_with(".json")
                || name.ends_with(".report.json")
            {
                continue;
            }
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<JobRecord>(&text).ok())
                .filter(|rec| format!("{}.json", rec.id) == name);
            match parsed {
                Some(rec) => out.records.push(rec),
                None => out.quarantined.push(quarantine(&path)?),
            }
        }
        out.records.sort_by_key(|r| r.seq);
        Ok(out)
    }

    /// Highest sequence number present (0 when the store is empty),
    /// including quarantined records' file names being ignored — sequence
    /// continuity across a quarantine is not required, only uniqueness.
    pub fn next_seq(records: &[JobRecord]) -> u64 {
        records.iter().map(|r| r.seq).max().unwrap_or(0) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRecord, JobState};
    use ipv6web_core::Scenario;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ipv6webd-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = JobStore::open(&dir).unwrap();
        let mut a = JobRecord::new(1, Scenario::quick(1), false);
        let b = JobRecord::new(2, Scenario::quick(2), true);
        a.state = JobState::Running;
        store.save(&a).unwrap();
        store.save(&b).unwrap();
        store.save_report(&b.id, b"{}").unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].id, a.id);
        assert_eq!(scan.records[0].state, JobState::Running);
        assert_eq!(scan.records[1].id, b.id);
        assert!(scan.quarantined.is_empty());
        assert_eq!(scan.removed_tmp, 0);
        assert_eq!(store.load_report(&b.id).unwrap().unwrap(), b"{}");
        assert_eq!(store.load_report(&a.id).unwrap(), None);
        assert_eq!(JobStore::next_seq(&scan.records), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_removes_tmp_and_quarantines_corrupt() {
        let dir = tmpdir("recovery");
        let store = JobStore::open(&dir).unwrap();
        let good = JobRecord::new(1, Scenario::quick(1), false);
        store.save(&good).unwrap();
        // a crash mid-write leaves a torn temp file
        std::fs::write(dir.join("job-000002-beef.json.tmp"), b"{\"id\": \"job-0000").unwrap();
        // and a record truncated at some earlier point is unparseable
        std::fs::write(dir.join("job-000003-dead.json"), b"{\"id\": \"job-000003-dead\"").unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].id, good.id);
        assert_eq!(scan.removed_tmp, 1);
        assert_eq!(scan.quarantined.len(), 1);
        assert!(scan.quarantined[0].ends_with("job-000003-dead.json.corrupt"));
        assert!(!dir.join("job-000002-beef.json.tmp").exists());
        assert!(dir.join("job-000003-dead.json.corrupt").exists());
        // a second scan is a no-op: corrupt files stay quarantined
        let again = store.scan().unwrap();
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.quarantined.len(), 0);
        assert_eq!(again.removed_tmp, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_ignores_reports_and_foreign_files() {
        let dir = tmpdir("foreign");
        let store = JobStore::open(&dir).unwrap();
        let rec = JobRecord::new(1, Scenario::quick(1), false);
        store.save(&rec).unwrap();
        store.save_report(&rec.id, b"not a record").unwrap();
        std::fs::write(dir.join("README.txt"), b"hello").unwrap();
        std::fs::create_dir_all(store.checkpoint_dir(&rec.id)).unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_under_wrong_filename_is_quarantined() {
        // a record whose body does not match its file name (e.g. a stray
        // copy) must not be trusted as that job
        let dir = tmpdir("mismatch");
        let store = JobStore::open(&dir).unwrap();
        let rec = JobRecord::new(1, Scenario::quick(1), false);
        let json = serde_json::to_string_pretty(&rec).unwrap();
        std::fs::write(dir.join("job-000009-cafe.json"), json).unwrap();
        let scan = store.scan().unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.quarantined.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
