//! `status.json`: the per-job state record and its lifecycle.
//!
//! States move `queued → running → {done, failed, cancelled, timeout}`;
//! terminal states never transition again (a cache hit updates the hit
//! counters of a `done` record but not its state).  Records are written
//! atomically — serialised to `status.json.tmp` and renamed into place —
//! so a concurrent reader never observes a torn file.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::spec::JobSpec;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; `result.json` is valid and cacheable.
    Done,
    /// The runner returned an error or panicked; see `error`.
    Failed,
    /// Cancelled before completion.
    Cancelled,
    /// The per-job deadline elapsed; cancelled cooperatively.
    Timeout,
}

impl JobState {
    /// The stable on-disk token.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Timeout => "timeout",
        }
    }

    /// Parses the on-disk token.
    pub fn parse(text: &str) -> Option<JobState> {
        Some(match text {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            "timeout" => JobState::Timeout,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The `status.json` contents.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusRecord {
    /// The content-addressed job id.
    pub id: String,
    /// The experiment slug (`ExperimentSpec::name`).
    pub kind: String,
    /// The sweep seed.
    pub seed: u64,
    /// The fading engine token: `"counter"` for every record written now
    /// (keyed fading evolution is the only engine); older records may say
    /// `"legacy"`.
    pub engine: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// When the job was accepted (unix ms).
    pub queued_unix_ms: u64,
    /// When a worker picked it up.
    pub started_unix_ms: Option<u64>,
    /// When it reached a terminal state.
    pub finished_unix_ms: Option<u64>,
    /// Fresh-run wall clock (compute only, not queueing).
    pub wall_ms: Option<u64>,
    /// Whether the *last* submission was served from cache.
    pub cache_hit: bool,
    /// Total submissions served from cache since the fresh run.
    pub hits: u64,
    /// Wall clock of the last cache-hit serve.
    pub served_ms: Option<u64>,
    /// Terminal error message (failed / cancelled / timeout).
    pub error: Option<String>,
}

impl StatusRecord {
    /// A fresh `queued` record for a job.
    pub fn queued(id: &str, spec: &JobSpec) -> StatusRecord {
        StatusRecord {
            id: id.to_string(),
            kind: spec.experiment.name().to_string(),
            seed: spec.seed,
            engine: "counter".to_string(),
            state: JobState::Queued,
            queued_unix_ms: unix_ms(),
            started_unix_ms: None,
            finished_unix_ms: None,
            wall_ms: None,
            cache_hit: false,
            hits: 0,
            served_ms: None,
            error: None,
        }
    }

    /// Serialises to the `status.json` JSON value.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map(Json::UInt).unwrap_or(Json::Null);
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("engine".into(), Json::Str(self.engine.clone())),
            ("state".into(), Json::Str(self.state.as_str().into())),
            ("queued_unix_ms".into(), Json::UInt(self.queued_unix_ms)),
            ("started_unix_ms".into(), opt(self.started_unix_ms)),
            ("finished_unix_ms".into(), opt(self.finished_unix_ms)),
            ("wall_ms".into(), opt(self.wall_ms)),
            ("cache_hit".into(), Json::Bool(self.cache_hit)),
            ("hits".into(), Json::UInt(self.hits)),
            ("served_ms".into(), opt(self.served_ms)),
            (
                "error".into(),
                self.error
                    .as_ref()
                    .map(|e| Json::Str(e.clone()))
                    .unwrap_or(Json::Null),
            ),
        ])
    }

    /// Decodes a `status.json` value; `None` if the required fields are
    /// missing or mistyped (a torn or foreign file).
    pub fn from_json(v: &Json) -> Option<StatusRecord> {
        let opt = |key: &str| v.get(key).and_then(Json::as_u64);
        Some(StatusRecord {
            id: v.get("id")?.as_str()?.to_string(),
            kind: v.get("kind")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_u64()?,
            engine: v.get("engine")?.as_str()?.to_string(),
            state: JobState::parse(v.get("state")?.as_str()?)?,
            queued_unix_ms: v.get("queued_unix_ms")?.as_u64()?,
            started_unix_ms: opt("started_unix_ms"),
            finished_unix_ms: opt("finished_unix_ms"),
            wall_ms: opt("wall_ms"),
            cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            hits: opt("hits").unwrap_or(0),
            served_ms: opt("served_ms"),
            error: v.get("error").and_then(Json::as_str).map(|s| s.to_string()),
        })
    }

    /// Atomically writes `status.json` into `job_dir` (tmp + rename).
    pub fn write(&self, job_dir: &Path) -> io::Result<()> {
        let tmp = job_dir.join("status.json.tmp");
        let target = job_dir.join("status.json");
        fs::write(&tmp, self.to_json().write_pretty() + "\n")?;
        fs::rename(&tmp, &target)
    }

    /// Reads `status.json` from `job_dir`; `None` if absent or unreadable.
    pub fn read(job_dir: &Path) -> Option<StatusRecord> {
        let text = fs::read_to_string(job_dir.join("status.json")).ok()?;
        StatusRecord::from_json(&Json::parse(&text).ok()?)
    }
}

/// Milliseconds since the unix epoch.
pub fn unix_ms() -> u64 {
    // lint: allow(wall-clock) — human-facing status.json timestamps; status.json is
    // excluded from the content address, so this can never fork the cache key.
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas::sim::ExperimentSpec;

    fn spec() -> JobSpec {
        JobSpec::new(ExperimentSpec::fig07(), 9)
    }

    #[test]
    fn record_round_trips_through_json() {
        let mut record = StatusRecord::queued("abc123", &spec());
        record.state = JobState::Done;
        record.started_unix_ms = Some(10);
        record.finished_unix_ms = Some(20);
        record.wall_ms = Some(10);
        record.hits = 3;
        record.error = Some("boom".into());
        let back = StatusRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn states_round_trip_and_classify() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Timeout,
        ] {
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert_eq!(JobState::parse("exploded"), None);
    }

    #[test]
    fn write_is_atomic_rename() {
        let dir = std::env::temp_dir().join(format!("midas-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let record = StatusRecord::queued("deadbeef00112233", &spec());
        record.write(&dir).unwrap();
        assert!(!dir.join("status.json.tmp").exists());
        let back = StatusRecord::read(&dir).unwrap();
        assert_eq!(back.id, "deadbeef00112233");
        assert_eq!(back.state, JobState::Queued);
        std::fs::remove_dir_all(&dir).ok();
    }
}
