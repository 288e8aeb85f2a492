//! Cache administration: listing and garbage-collecting the
//! content-addressed job directories.
//!
//! Layout: `<jobs>/<id>/{spec.json, status.json, rounds.jsonl,
//! result.json}`, where `<id>` is [`JobSpec::cache_key`](
//! crate::spec::JobSpec::cache_key) — 16 hex chars.  Only `done` entries
//! are cache hits; `gc` removes the rest (failed, cancelled, timed-out and
//! torn directories), or everything with `all`.

use std::collections::HashSet; // lint: allow(map-order) — GC liveness set: membership queries only, never iterated into results
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::status::{JobState, StatusRecord};

/// Resolves the jobs directory: explicit flag, else `MIDAS_SVC_JOBS_DIR`
/// (read as an OS string), else `target/midas-jobs`.
pub fn resolve_jobs_dir(flag: Option<PathBuf>) -> PathBuf {
    flag.or_else(|| midas::runner::knob_path("MIDAS_SVC_JOBS_DIR"))
        .unwrap_or_else(|| PathBuf::from("target/midas-jobs"))
}

/// One row of `midas cache ls`.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// Job id (directory name).
    pub id: String,
    /// Experiment slug, `"?"` for torn directories.
    pub kind: String,
    /// Lifecycle state; `None` when `status.json` is missing/unreadable.
    pub state: Option<JobState>,
    /// Fresh-run wall clock, when recorded.
    pub wall_ms: Option<u64>,
    /// Cache hits served since the fresh run.
    pub hits: u64,
    /// Total bytes under the job directory.
    pub bytes: u64,
}

/// Lists every job directory, sorted by id.
pub fn ls(jobs_dir: &Path) -> io::Result<Vec<CacheEntry>> {
    let mut entries = Vec::new();
    let read = match fs::read_dir(jobs_dir) {
        Ok(read) => read,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(e),
    };
    for entry in read {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let dir = entry.path();
        let status = StatusRecord::read(&dir);
        entries.push(CacheEntry {
            id: entry.file_name().to_string_lossy().into_owned(),
            kind: status
                .as_ref()
                .map(|s| s.kind.clone())
                .unwrap_or_else(|| "?".into()),
            state: status.as_ref().map(|s| s.state),
            wall_ms: status.as_ref().and_then(|s| s.wall_ms),
            hits: status.as_ref().map(|s| s.hits).unwrap_or(0),
            bytes: dir_bytes(&dir)?,
        });
    }
    entries.sort_by(|a, b| a.id.cmp(&b.id));
    Ok(entries)
}

/// What `gc` removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Directories deleted.
    pub removed: usize,
    /// Directories kept (valid `done` entries, unless `all`).
    pub kept: usize,
    /// Bytes freed.
    pub bytes_freed: u64,
}

/// Removes job directories that are not valid cache entries — any state
/// other than `done`, or torn directories without a readable status.  With
/// `all`, removes every entry.
///
/// This standalone form assumes no queue is serving the directory; when
/// one is, use [`JobQueue::gc`](crate::pool::JobQueue::gc), which excludes
/// the jobs that are queued or running so their directories are never
/// deleted out from under a worker.
pub fn gc(jobs_dir: &Path, all: bool) -> io::Result<GcReport> {
    gc_excluding(jobs_dir, all, &HashSet::new()) // lint: allow(map-order) — empty liveness set for the no-exclusions path; order-free
}

/// [`gc`] with a live set: any id in `live` is kept regardless of its
/// on-disk state.  A queued or running job's `status.json` says `queued` /
/// `running` — exactly what plain `gc` reaps — so the queue passes its
/// in-flight ids here to keep collection safe while jobs execute.
// lint: allow(map-order) — membership-only liveness parameter; order-free
pub fn gc_excluding(jobs_dir: &Path, all: bool, live: &HashSet<String>) -> io::Result<GcReport> {
    let mut report = GcReport::default();
    for entry in ls(jobs_dir)? {
        let keep = live.contains(&entry.id) || (!all && entry.state == Some(JobState::Done));
        if keep {
            report.kept += 1;
        } else {
            fs::remove_dir_all(jobs_dir.join(&entry.id))?;
            report.removed += 1;
            report.bytes_freed += entry.bytes;
        }
    }
    Ok(report)
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobSpec;
    use midas::sim::ExperimentSpec;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("midas-cache-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_entry(jobs_dir: &Path, id: &str, state: JobState) {
        let dir = jobs_dir.join(id);
        fs::create_dir_all(&dir).unwrap();
        let mut status = StatusRecord::queued(id, &JobSpec::new(ExperimentSpec::fig07(), 1));
        status.state = state;
        status.write(&dir).unwrap();
        fs::write(dir.join("result.json"), "{}\n").unwrap();
    }

    #[test]
    fn ls_reports_every_directory_sorted() {
        let jobs = scratch("ls");
        seeded_entry(&jobs, "bbbb", JobState::Done);
        seeded_entry(&jobs, "aaaa", JobState::Failed);
        fs::create_dir_all(jobs.join("torn")).unwrap();
        let entries = ls(&jobs).unwrap();
        assert_eq!(
            entries.iter().map(|e| e.id.as_str()).collect::<Vec<_>>(),
            vec!["aaaa", "bbbb", "torn"]
        );
        assert_eq!(entries[0].state, Some(JobState::Failed));
        assert_eq!(entries[2].state, None);
        assert_eq!(entries[2].kind, "?");
        fs::remove_dir_all(&jobs).ok();
    }

    #[test]
    fn gc_keeps_done_removes_the_rest() {
        let jobs = scratch("gc");
        seeded_entry(&jobs, "done00", JobState::Done);
        seeded_entry(&jobs, "fail00", JobState::Failed);
        seeded_entry(&jobs, "time00", JobState::Timeout);
        fs::create_dir_all(jobs.join("torn00")).unwrap();
        let report = gc(&jobs, false).unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed, 3);
        assert!(jobs.join("done00").exists());
        assert!(!jobs.join("fail00").exists());

        let report = gc(&jobs, true).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(ls(&jobs).unwrap().len(), 0);
        fs::remove_dir_all(&jobs).ok();
    }

    #[test]
    fn ls_on_a_missing_dir_is_empty_not_an_error() {
        let jobs = scratch("none").join("nope");
        assert_eq!(ls(&jobs).unwrap().len(), 0);
    }
}
