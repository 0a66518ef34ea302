//! The crash-safe sweep result store.
//!
//! One directory holds the sweep's durable state:
//!
//! * `study-{key}.json` — one [`StudyRecord`] per finished (done or
//!   quarantined) case, written atomically by whichever process finished
//!   it. This is the append-only progress log crash-resume replays: a
//!   restarted orchestrator re-runs exactly the cases with no record.
//! * `results.json` — the merged columnar document (one array per metric
//!   column, rows sorted by case index), rebuilt from the records at the
//!   end of every orchestrator run. Order-independent on merge: any
//!   subset of processes finishing in any order produces the same bytes.
//! * `summary.txt` — the aggregate tables ([`crate::aggregate`]).
//! * `{key}.hb` / `{key}.crashed` — worker heartbeats and chaos markers;
//!   operational scratch, never scanned as records.
//!
//! [`ResultStore::scan`] follows the job store's recovery discipline:
//! torn `*.tmp` files are deleted, unparseable or misnamed records are
//! quarantined as `*.corrupt` (surfaced on the `store.quarantined`
//! counter) and their cases re-run.

use crate::aggregate::render_summary;
use crate::record::{StudyRecord, StudyStatus, SWEEP_SCHEMA};
use ipv6web_core::durable::{quarantine, write_atomic};
use serde::Serialize;
use serde_json::Value;
use std::io;
use std::path::{Path, PathBuf};

/// Handle on the sweep store directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

/// What a [`ResultStore::scan`] found.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Parseable records, sorted by case index.
    pub records: Vec<StudyRecord>,
    /// Corrupt/misnamed record files, renamed to `*.corrupt` and skipped.
    pub quarantined: Vec<PathBuf>,
    /// Torn `*.tmp` files deleted.
    pub removed_tmp: usize,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        std::fs::create_dir_all(dir)?;
        Ok(ResultStore { dir: dir.to_path_buf() })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of one case's record document.
    pub fn record_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("study-{key}.json"))
    }

    /// Path of one case's worker heartbeat file.
    pub fn heartbeat_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.hb"))
    }

    /// Path of one case's crash-once chaos marker.
    pub fn crash_marker_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.crashed"))
    }

    /// Path of the merged columnar results document.
    pub fn results_path(&self) -> PathBuf {
        self.dir.join("results.json")
    }

    /// Path of the rendered aggregate summary.
    pub fn summary_path(&self) -> PathBuf {
        self.dir.join("summary.txt")
    }

    /// Persists a record (atomic; overwrites any previous version).
    pub fn save(&self, record: &StudyRecord) -> io::Result<()> {
        let json = serde_json::to_string_pretty(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&self.record_path(&record.key), json.as_bytes())
    }

    /// Bumps a heartbeat file to `count` (atomic, pid-suffixed temp: an
    /// orphaned predecessor writing the same file cannot tear it).
    pub fn beat(&self, key: &str, count: u64) -> io::Result<()> {
        write_atomic(&self.heartbeat_path(key), count.to_string().as_bytes())
    }

    /// Reads a heartbeat counter; `None` when absent or torn.
    pub fn read_beat(&self, key: &str) -> Option<u64> {
        std::fs::read_to_string(self.heartbeat_path(key)).ok()?.trim().parse().ok()
    }

    /// Recovery sweep over the store directory: deletes torn temp files,
    /// quarantines corrupt or misnamed records (bumping the
    /// `store.quarantined` counter), returns survivors sorted by index.
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
            if !name.starts_with("study-") || !name.ends_with(".json") {
                continue;
            }
            let parsed = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<StudyRecord>(&text).ok())
                .filter(|rec| format!("study-{}.json", rec.key) == name);
            match parsed {
                Some(rec) => out.records.push(rec),
                None => out.quarantined.push(quarantine(&path)?),
            }
        }
        out.records.sort_by_key(|r| r.index);
        Ok(out)
    }

    /// Rebuilds and atomically writes `results.json` + `summary.txt` from
    /// `records`. Sorts by index first, so the output is independent of
    /// completion order — the merge step of crash-resume.
    pub fn write_merged(&self, records: &[StudyRecord]) -> io::Result<()> {
        let mut sorted: Vec<&StudyRecord> = records.iter().collect();
        sorted.sort_by_key(|r| r.index);
        let results = merged_results_json(&sorted);
        write_atomic(&self.results_path(), results.as_bytes())?;
        let summary = render_summary(&sorted);
        write_atomic(&self.summary_path(), summary.as_bytes())
    }
}

/// The merged columnar document: parallel arrays, one per column, rows in
/// case-index order. Quarantined rows carry `null` metric cells.
fn merged_results_json(sorted: &[&StudyRecord]) -> String {
    fn col(sorted: &[&StudyRecord], f: impl Fn(&StudyRecord) -> Value) -> Value {
        Value::Arr(sorted.iter().map(|r| f(r)).collect())
    }
    let metric = |sorted: &[&StudyRecord], f: &dyn Fn(&crate::record::StudyMetrics) -> Value| {
        Value::Arr(
            sorted.iter().map(|r| r.metrics.as_ref().map(f).unwrap_or(Value::Null)).collect(),
        )
    };
    let quarantined = sorted.iter().filter(|r| r.status == StudyStatus::Quarantined).count() as u64;
    let columns = Value::Obj(vec![
        ("index".to_string(), col(sorted, |r| Value::U64(r.index))),
        ("key".to_string(), col(sorted, |r| Value::Str(r.key.clone()))),
        ("config_hash".to_string(), col(sorted, |r| Value::Str(r.config_hash.clone()))),
        ("seed".to_string(), col(sorted, |r| Value::U64(r.seed))),
        ("peering_parity".to_string(), col(sorted, |r| Value::F64(r.peering_parity))),
        ("timeline".to_string(), col(sorted, |r| Value::Str(r.timeline.clone()))),
        ("faults".to_string(), col(sorted, |r| Value::Str(r.faults.clone()))),
        ("xlat".to_string(), col(sorted, |r| Value::Str(r.xlat.clone()))),
        ("status".to_string(), col(sorted, |r| r.status.to_value())),
        (
            "reason".to_string(),
            col(sorted, |r| {
                r.reason.as_ref().map(|s| Value::Str(s.clone())).unwrap_or(Value::Null)
            }),
        ),
        ("h1_holds".to_string(), metric(sorted, &|m| Value::Bool(m.h1_holds))),
        ("h2_holds".to_string(), metric(sorted, &|m| Value::Bool(m.h2_holds))),
        ("h1_min_share".to_string(), metric(sorted, &|m| Value::F64(m.h1_min_share))),
        ("h2_min_share".to_string(), metric(sorted, &|m| Value::F64(m.h2_min_share))),
        ("h2_loss_rate".to_string(), metric(sorted, &|m| Value::F64(m.h2_loss_rate))),
        ("sites_kept".to_string(), metric(sorted, &|m| Value::U64(m.sites_kept))),
        ("dest_ases_v6".to_string(), metric(sorted, &|m| Value::U64(m.dest_ases_v6))),
    ]);
    let doc = Value::Obj(vec![
        ("schema".to_string(), Value::Str(SWEEP_SCHEMA.to_string())),
        ("studies".to_string(), Value::U64(sorted.len() as u64)),
        ("quarantined".to_string(), Value::U64(quarantined)),
        ("columns".to_string(), columns),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("results serialize");
    json.push('\n');
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StudyRecord;
    use crate::spec::SweepSpec;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ipv6web-sweep-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn records() -> Vec<StudyRecord> {
        let cases = SweepSpec {
            scale: Some("quick".to_string()),
            seeds: Some(vec![1, 2, 3]),
            ..SweepSpec::default()
        }
        .expand()
        .unwrap();
        vec![
            StudyRecord::quarantined(&cases[0], "timed out after 10s"),
            StudyRecord::quarantined(&cases[1], "worker exited with code 1"),
            StudyRecord::quarantined(&cases[2], "timed out after 10s"),
        ]
    }

    #[test]
    fn save_scan_roundtrip_sorted_by_index() {
        let dir = tmpdir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        let recs = records();
        // write out of order; scan returns index order
        store.save(&recs[2]).unwrap();
        store.save(&recs[0]).unwrap();
        store.save(&recs[1]).unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(scan.records, recs);
        assert!(scan.quarantined.is_empty());
        assert_eq!(scan.removed_tmp, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_quarantines_corrupt_and_misnamed_counting_them() {
        let dir = tmpdir("recovery");
        let store = ResultStore::open(&dir).unwrap();
        let recs = records();
        store.save(&recs[0]).unwrap();
        // torn temp from a crash mid-write
        std::fs::write(dir.join("study-zzz.json.12345.tmp"), b"{\"key\": \"zz").unwrap();
        // truncated record
        std::fs::write(dir.join("study-00009-beef.json"), b"{\"key\": \"00009-beef\"").unwrap();
        // valid record under the wrong filename: not trusted
        let stray = serde_json::to_string_pretty(&recs[1]).unwrap();
        std::fs::write(dir.join("study-99999-cafe.json"), stray).unwrap();

        ipv6web_obs::reset();
        ipv6web_obs::enable();
        let scan = store.scan().unwrap();
        ipv6web_obs::flush_thread();
        assert_eq!(scan.records, vec![recs[0].clone()]);
        assert_eq!(scan.removed_tmp, 1);
        assert_eq!(scan.quarantined.len(), 2);
        assert!(dir.join("study-00009-beef.json.corrupt").exists());
        let snap = ipv6web_obs::snapshot();
        assert_eq!(snap.counters.get("store.quarantined"), Some(&2));
        ipv6web_obs::reset();

        // a second scan is a no-op: corrupt files stay quarantined
        let again = store.scan().unwrap();
        assert_eq!(again.records.len(), 1);
        assert!(again.quarantined.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_ignores_heartbeats_markers_and_merged_outputs() {
        let dir = tmpdir("foreign");
        let store = ResultStore::open(&dir).unwrap();
        let recs = records();
        store.save(&recs[0]).unwrap();
        store.beat(&recs[1].key, 7).unwrap();
        assert_eq!(store.read_beat(&recs[1].key), Some(7));
        std::fs::write(store.crash_marker_path(&recs[2].key), b"x").unwrap();
        store.write_merged(&recs).unwrap();
        let scan = store.scan().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.quarantined.is_empty(), "{:?}", scan.quarantined);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_output_is_order_independent() {
        let dir_a = tmpdir("merge-a");
        let dir_b = tmpdir("merge-b");
        let store_a = ResultStore::open(&dir_a).unwrap();
        let store_b = ResultStore::open(&dir_b).unwrap();
        let recs = records();
        let mut reversed = recs.clone();
        reversed.reverse();
        store_a.write_merged(&recs).unwrap();
        store_b.write_merged(&reversed).unwrap();
        let a = std::fs::read(store_a.results_path()).unwrap();
        let b = std::fs::read(store_b.results_path()).unwrap();
        assert_eq!(a, b, "merge order must not leak into results.json");
        let sa = std::fs::read(store_a.summary_path()).unwrap();
        let sb = std::fs::read(store_b.summary_path()).unwrap();
        assert_eq!(sa, sb, "merge order must not leak into summary.txt");
        let text = String::from_utf8(a).unwrap();
        assert!(text.contains("\"schema\""), "{text}");
        assert!(text.contains(SWEEP_SCHEMA));
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
