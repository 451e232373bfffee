//! Persistent job store: every state change of a job appends its record
//! as one JSON line to `<state-dir>/jobs/job-<id>.json`, and the last line
//! that parses is the record, so a restarted server recovers every job
//! (DESIGN.md §8 "Persistence" says why it appends rather than renames).

use crate::protocol::{JobRecord, JobSpec, JobState, JOB_SCHEMA_VERSION};
use parking_lot::Mutex;
use snn_cluster::lock_order::{mutex, Rank};
use std::collections::HashMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Current Unix time in milliseconds.
#[expect(clippy::disallowed_methods, reason = "job timestamps are wall-clock Unix time")]
pub fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0)
}

/// Thread-safe, disk-backed map of job records.
#[derive(Debug)]
pub struct JobStore {
    state_dir: PathBuf,
    jobs: Mutex<HashMap<u64, JobRecord>>,
    next_id: AtomicU64,
    /// Ids of jobs recovered from disk in `Queued` state (sorted); the
    /// server re-enqueues these on startup.
    recovered_queued: Vec<u64>,
}

impl JobStore {
    /// Opens (creating if needed) the store under `state_dir` and loads
    /// every persisted record.
    ///
    /// Recovery policy: jobs found `Running` were interrupted by the
    /// previous shutdown/crash and are marked `Failed`; jobs found
    /// `Queued` never started and are kept queued (the server re-enqueues
    /// them); terminal jobs load as-is. Job files with no complete record
    /// are skipped.
    pub fn open(state_dir: impl Into<PathBuf>) -> io::Result<Self> {
        let state_dir = state_dir.into();
        fs::create_dir_all(state_dir.join("jobs"))?;
        fs::create_dir_all(state_dir.join("results"))?;

        let mut jobs = HashMap::new();
        let mut recovered_queued = Vec::new();
        let mut max_id = 0u64;
        for entry in fs::read_dir(state_dir.join("jobs"))? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Ok(bytes) = fs::read(&path) else { continue };
            if bytes.last().is_some_and(|&b| b != b'\n') {
                // A torn last line: end it, so the next append starts a
                // line of its own.
                let _ = append(&path, b"\n");
            }
            let Some(mut record) = read_record(&String::from_utf8_lossy(&bytes)) else {
                continue;
            };
            match record.state {
                JobState::Running => {
                    record.state = JobState::Failed;
                    record.error = Some("interrupted by server restart".into());
                    record.finished_at_ms = Some(now_ms());
                    let _ = persist(&state_dir, &record);
                }
                JobState::Queued => recovered_queued.push(record.id),
                _ => {}
            }
            max_id = max_id.max(record.id);
            jobs.insert(record.id, record);
        }
        recovered_queued.sort_unstable();

        Ok(Self {
            state_dir,
            jobs: mutex(Rank::Store, jobs),
            next_id: AtomicU64::new(max_id + 1),
            recovered_queued,
        })
    }

    /// The state directory this store persists into.
    pub fn state_dir(&self) -> &Path {
        &self.state_dir
    }

    /// Jobs recovered from disk still in `Queued` state, ascending.
    pub fn recovered_queued(&self) -> &[u64] {
        &self.recovered_queued
    }

    /// Number of known jobs.
    #[expect(clippy::disallowed_methods, reason = "reads the map size")]
    pub fn len(&self) -> usize {
        self.jobs.lock().len()
    }

    /// `true` when no jobs are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates, persists and returns a new `Queued` record for `spec`.
    pub fn submit(&self, spec: JobSpec) -> JobRecord {
        let record = JobRecord {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            spec,
            state: JobState::Queued,
            submitted_at_ms: now_ms(),
            started_at_ms: None,
            finished_at_ms: None,
            progress: None,
            result: None,
            error: None,
            schema: Some(JOB_SCHEMA_VERSION),
        };
        self.insert(record.clone());
        let _ = persist(&self.state_dir, &record);
        record
    }

    #[expect(clippy::disallowed_methods, reason = "one map insert")]
    fn insert(&self, record: JobRecord) {
        self.jobs.lock().insert(record.id, record);
    }

    /// A snapshot of one record.
    #[expect(clippy::disallowed_methods, reason = "clones one record out")]
    pub fn get(&self, id: u64) -> Option<JobRecord> {
        self.jobs.lock().get(&id).cloned()
    }

    /// Snapshots of every record, ascending by id.
    #[expect(clippy::disallowed_methods, reason = "clones every record out")]
    pub fn list(&self) -> Vec<JobRecord> {
        let mut all: Vec<JobRecord> = self.jobs.lock().values().cloned().collect();
        all.sort_by_key(|r| r.id);
        all
    }

    /// Applies `f` to the record, persists the result, and returns the
    /// updated snapshot. `None` for unknown ids.
    pub fn update(&self, id: u64, f: impl FnOnce(&mut JobRecord)) -> Option<JobRecord> {
        let updated = self.apply(id, f)?;
        let _ = persist(&self.state_dir, &updated);
        Some(updated)
    }

    /// Applies `f` to the in-memory record and returns a snapshot of it.
    /// `f` runs under the lock: callers only set fields.
    #[expect(clippy::disallowed_methods, reason = "edits one record in memory")]
    fn apply(&self, id: u64, f: impl FnOnce(&mut JobRecord)) -> Option<JobRecord> {
        let mut jobs = self.jobs.lock();
        let record = jobs.get_mut(&id)?;
        f(record);
        Some(record.clone())
    }

    /// Updates only the in-memory progress snapshot of a record — called
    /// on the hot path for every progress event, so it skips the disk
    /// write (`update` persists progress alongside the next state change).
    #[expect(clippy::disallowed_methods, reason = "sets one field in memory, no clone")]
    pub fn update_progress_in_memory(
        &self,
        id: u64,
        progress: snn_faults::progress::Progress,
    ) -> bool {
        match self.jobs.lock().get_mut(&id) {
            Some(record) => {
                record.progress = Some(progress);
                true
            }
            None => false,
        }
    }

    /// The server-side path generated artifacts of job `id` live under.
    pub fn result_path(&self, id: u64, extension: &str) -> PathBuf {
        self.state_dir.join("results").join(format!("job-{id}.{extension}"))
    }
}

fn job_path(state_dir: &Path, id: u64) -> PathBuf {
    state_dir.join("jobs").join(format!("job-{id}.json"))
}

/// The newest complete revision in a job file: its last line that parses.
fn read_record(text: &str) -> Option<JobRecord> {
    text.lines().rev().find_map(|line| serde::json::from_str(line).ok())
}

fn append(path: &Path, bytes: &[u8]) -> io::Result<()> {
    OpenOptions::new().create(true).append(true).open(path)?.write_all(bytes)
}

/// Appends `record` to its job file as one line.
fn persist(state_dir: &Path, record: &JobRecord) -> io::Result<()> {
    let started = snn_obs::clock::monotonic();
    let mut line = serde::json::to_string(record);
    line.push('\n');
    let written = append(&job_path(state_dir, record.id), line.as_bytes());
    snn_obs::histogram!(
        "snn_service_store_persist_seconds",
        "Time to append one job record to its file.",
        snn_obs::metrics::FINE_DURATION_BUCKETS
    )
    .observe(snn_obs::clock::monotonic().saturating_sub(started).as_secs_f64());
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{JobResult, JobSpec};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("snn-service-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> JobSpec {
        JobSpec::synthetic_repro(4, vec![8], 2, 1)
    }

    #[test]
    fn submit_assigns_increasing_ids_and_persists() {
        let dir = tmp_dir("submit");
        let store = JobStore::open(&dir).unwrap();
        let a = store.submit(spec());
        let b = store.submit(spec());
        assert!(b.id > a.id);
        assert_eq!(store.list().len(), 2);
        assert!(job_path(&dir, a.id).is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_survive_reopen_and_ids_continue() {
        let dir = tmp_dir("reopen");
        let done_id;
        {
            let store = JobStore::open(&dir).unwrap();
            let a = store.submit(spec());
            done_id = a.id;
            store.update(a.id, |r| {
                r.state = JobState::Done;
                r.result = Some(JobResult {
                    chunks: 1,
                    test_steps: 10,
                    activated: 5,
                    total_neurons: 10,
                    activation_coverage: 0.5,
                    runtime_ms: 12,
                    faults_total: None,
                    faults_detected: None,
                    fault_coverage: None,
                    events_path: None,
                    timings: None,
                    verdict_digest: None,
                    reliability: None,
                    engine: None,
                });
            });
        }
        let store = JobStore::open(&dir).unwrap();
        let rec = store.get(done_id).expect("record survived restart");
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(rec.result.as_ref().unwrap().test_steps, 10);
        let fresh = store.submit(spec());
        assert!(fresh.id > done_id, "id allocation continues after restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_fails_running_jobs_and_requeues_queued_ones() {
        let dir = tmp_dir("recovery");
        let (running_id, queued_id);
        {
            let store = JobStore::open(&dir).unwrap();
            let a = store.submit(spec());
            running_id = a.id;
            store.update(a.id, |r| r.state = JobState::Running);
            queued_id = store.submit(spec()).id;
        }
        let store = JobStore::open(&dir).unwrap();
        let interrupted = store.get(running_id).unwrap();
        assert_eq!(interrupted.state, JobState::Failed);
        assert!(interrupted.error.as_ref().unwrap().contains("restart"));
        assert_eq!(store.recovered_queued(), &[queued_id]);
        assert_eq!(store.get(queued_id).unwrap().state, JobState::Queued);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn submitted_records_carry_the_current_schema_version() {
        let dir = tmp_dir("schema");
        let store = JobStore::open(&dir).unwrap();
        let rec = store.submit(spec());
        assert_eq!(rec.schema, Some(JOB_SCHEMA_VERSION));
        let on_disk = fs::read_to_string(job_path(&dir, rec.id)).unwrap();
        assert!(on_disk.contains("\"schema\""), "schema field persisted: {on_disk}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn done(r: &mut JobRecord) {
        r.state = JobState::Done;
        r.finished_at_ms = Some(r.submitted_at_ms + 5);
    }

    #[test]
    fn every_revision_is_appended_to_one_file() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp_dir("append");
        let store = JobStore::open(&dir).unwrap();
        let id = store.submit(spec()).id;
        let path = job_path(&dir, id);
        let inode = fs::metadata(&path).unwrap().ino();
        store.update(id, |r| r.state = JobState::Running);
        // Checked after each revision: a file replaced twice can get its
        // first inode number back.
        assert_eq!(fs::metadata(&path).unwrap().ino(), inode, "the job file was replaced");
        let last = store.update(id, done).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().ino(), inode, "the job file was replaced");
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3, "one line per revision: {text}");
        assert!(text.ends_with('\n'));
        let names: Vec<String> = fs::read_dir(dir.join("jobs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, [format!("job-{id}.json")], "no temp file is left behind");
        drop(store);
        assert_eq!(JobStore::open(&dir).unwrap().get(id), Some(last));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_line_reopens_as_the_previous_revision() {
        let dir = tmp_dir("torn");
        let store = JobStore::open(&dir).unwrap();
        let queued = store.submit(spec());
        let mut finished = queued.clone();
        done(&mut finished);
        let line = serde::json::to_string(&finished);
        append(&job_path(&dir, queued.id), &line.as_bytes()[..line.len() / 2]).unwrap();
        drop(store);

        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.get(queued.id), Some(queued.clone()));
        assert_eq!(store.recovered_queued(), &[queued.id]);
        // Reopening ended the torn line, so the next revision is a line
        // of its own and wins.
        let last = store.update(queued.id, done).unwrap();
        drop(store);
        assert_eq!(JobStore::open(&dir).unwrap().get(queued.id), Some(last));
        let _ = fs::remove_dir_all(&dir);
    }

    /// The revisions one job writes on its way to `Done`, and its file.
    fn revisions() -> (Vec<JobRecord>, Vec<u8>) {
        let dir = tmp_dir("revisions");
        let store = JobStore::open(&dir).unwrap();
        let id = store.submit(spec()).id;
        let revisions = vec![
            store.get(id).unwrap(),
            store.update(id, |r| r.state = JobState::Cancelled).unwrap(),
            store.update(id, done).unwrap(),
        ];
        let bytes = fs::read(job_path(&dir, id)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        (revisions, bytes)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn torn_and_garbage_job_files_open_without_panic(
            cut in 0usize..4096,
            junk in proptest::collection::vec(0u16..256, 0..512),
        ) {
            static CASE: AtomicU64 = AtomicU64::new(0);
            let (revisions, file) = revisions();
            let prefix = &file[..cut % (file.len() + 1)];
            let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
            // The newest revision the prefix holds whole.
            let newest = revisions.iter().rev().find(|r| {
                let line = serde::json::to_string(r);
                String::from_utf8_lossy(prefix).lines().any(|l| l == line)
            });
            for (i, bytes) in [prefix.to_vec(), junk.clone(), [prefix, &junk[..]].concat()]
                .into_iter()
                .enumerate()
            {
                let dir = tmp_dir(&format!("prop-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                fs::create_dir_all(dir.join("jobs")).unwrap();
                fs::write(job_path(&dir, 1), &bytes).unwrap();
                let store = JobStore::open(&dir).unwrap();
                let loaded = store.get(1);
                if i == 0 {
                    proptest::prop_assert_eq!(loaded.as_ref(), newest);
                } else if let Some(loaded) = loaded {
                    proptest::prop_assert!(revisions.contains(&loaded), "{loaded:?}");
                }
                proptest::prop_assert!(store.len() <= 1);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    /// A job file of a million `[` is skipped, like any other garbage:
    /// parsing it is an error, not a stack overflow that aborts `open`.
    #[test]
    fn a_job_file_nested_a_million_levels_deep_is_skipped() {
        let dir = tmp_dir("deep");
        let kept = JobStore::open(&dir).unwrap().submit(spec());
        fs::write(job_path(&dir, kept.id + 1), "[".repeat(1_000_000)).unwrap();
        let store = JobStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(kept.id), Some(kept));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_ids_are_none() {
        let dir = tmp_dir("unknown");
        let store = JobStore::open(&dir).unwrap();
        assert!(store.get(999).is_none());
        assert!(store.update(999, |_| ()).is_none());
        assert!(store.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
