//! The job queue: a bounded worker pool over content-addressed job
//! directories.
//!
//! * **Dedup** — submitting a spec whose cache key is already on disk in
//!   state `done` is served from cache without running anything; submitting
//!   one that is currently queued/running returns the *same* [`Job`] handle
//!   (one run, many waiters).
//! * **Deadlines** — a worker installs the spec's `deadline_ms` on the
//!   job's [`CancelToken`] when it starts; the runner's trial checkpoints
//!   observe it and the job terminates `timeout`.
//! * **Panic isolation** — each run executes under `catch_unwind`; a
//!   poisoned job records a structured `failed` status with the panic
//!   message and the worker keeps serving the queue.
//! * **Graceful drain** — [`JobQueue::drain`] lets queued jobs finish, then
//!   joins every worker.

use std::collections::{HashMap, VecDeque}; // lint: allow(map-order) — job-id → handle registry: looked up by key, never iterated into results
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::runner::{run_job, CancelToken, RunError, StopReason};
use crate::spec::JobSpec;
use crate::status::{unix_ms, JobState, StatusRecord};

/// How a finished job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// `result.json` is valid.
    Done {
        /// Served from the on-disk cache without running.
        cache_hit: bool,
        /// Compute wall clock of the fresh run (the cached value when
        /// served from cache).
        wall_ms: u64,
    },
    /// The runner errored or panicked.
    Failed {
        /// The structured error message (also in `status.json`).
        error: String,
    },
    /// Cancelled before completion.
    Cancelled,
    /// The per-job deadline elapsed.
    TimedOut,
}

impl JobOutcome {
    /// The [`JobState`] this outcome records.
    pub fn state(&self) -> JobState {
        match self {
            JobOutcome::Done { .. } => JobState::Done,
            JobOutcome::Failed { .. } => JobState::Failed,
            JobOutcome::Cancelled => JobState::Cancelled,
            JobOutcome::TimedOut => JobState::Timeout,
        }
    }
}

/// A submitted job: shared handle carrying the id, directory and outcome.
pub struct Job {
    id: String,
    spec: JobSpec,
    dir: PathBuf,
    token: CancelToken,
    outcome: Mutex<Option<JobOutcome>>,
    finished: Condvar,
}

impl Job {
    /// The content-addressed job id ([`JobSpec::cache_key`]).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The spec this job runs.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// The job directory (`<jobs>/<id>/`).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The outcome, if the job has finished.
    pub fn outcome(&self) -> Option<JobOutcome> {
        self.outcome.lock().expect("job outcome lock").clone()
    }

    /// Blocks until the job finishes.
    pub fn wait(&self) -> JobOutcome {
        let mut guard = self.outcome.lock().expect("job outcome lock");
        while guard.is_none() {
            guard = self.finished.wait(guard).expect("job outcome lock");
        }
        guard.clone().expect("loop exits only when set")
    }

    fn finish(&self, outcome: JobOutcome) {
        *self.outcome.lock().expect("job outcome lock") = Some(outcome);
        self.finished.notify_all();
    }

    fn finished_handle(id: String, spec: JobSpec, dir: PathBuf, outcome: JobOutcome) -> Arc<Job> {
        let job = Arc::new(Job {
            id,
            spec,
            dir,
            token: CancelToken::new(),
            outcome: Mutex::new(None),
            finished: Condvar::new(),
        });
        job.finish(outcome);
        job
    }
}

struct Shared {
    jobs_dir: PathBuf,
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Jobs currently queued or running, by id — the dedup table.
    inflight: Mutex<HashMap<String, Arc<Job>>>, // lint: allow(map-order) — keyed lookup of in-flight jobs; result bytes come from the runner, not from iterating this map
}

/// The bounded worker pool.  Dropping the queue without calling
/// [`JobQueue::drain`] detaches the workers (they finish the queue and
/// exit); `drain` is the graceful path.
pub struct JobQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Resolves the worker count: explicit request, else `MIDAS_SVC_WORKERS`,
/// else `min(4, available parallelism)`; clamped to `1..=64`.  A set
/// `MIDAS_SVC_WORKERS` that does not parse (blank or not UTF-8 included)
/// is an error naming the knob and the value, whether or not a request
/// overrides it.
pub fn resolve_workers(requested: Option<usize>) -> Result<usize, String> {
    let ambient = midas::runner::knob::<usize>("MIDAS_SVC_WORKERS")?;
    let workers = requested.or(ambient).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1)
    });
    Ok(workers.clamp(1, 64))
}

impl JobQueue {
    /// Starts `workers` threads serving `jobs_dir`.
    pub fn new(jobs_dir: PathBuf, workers: usize) -> io::Result<JobQueue> {
        fs::create_dir_all(&jobs_dir)?;
        let shared = Arc::new(Shared {
            jobs_dir,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()), // lint: allow(map-order) — see the field: scheduling-side registry
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("midas-svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Ok(JobQueue { shared, workers })
    }

    /// The jobs directory this queue serves.
    pub fn jobs_dir(&self) -> &Path {
        &self.shared.jobs_dir
    }

    /// Submits a spec.  Returns an already-finished handle on a cache hit,
    /// the existing in-flight handle if an identical spec is queued or
    /// running, and a fresh queued handle otherwise.
    pub fn submit(&self, spec: JobSpec) -> io::Result<Arc<Job>> {
        self.submit_with(spec, false)
    }

    /// [`JobQueue::submit`] with an explicit cache override: `force` skips
    /// the cache-hit path and recomputes (in-flight dedup still applies —
    /// two forced submissions of the same spec still run once).
    pub fn submit_with(&self, spec: JobSpec, force: bool) -> io::Result<Arc<Job>> {
        let id = spec.cache_key();
        let dir = self.shared.jobs_dir.join(&id);

        // The dedup table is held across the cache probe so concurrent
        // submissions of one spec agree on a single handle.
        let mut inflight = self.shared.inflight.lock().expect("inflight lock");
        if let Some(existing) = inflight.get(&id) {
            return Ok(Arc::clone(existing));
        }
        if !force {
            if let Some(hit) = serve_from_cache(&id, &spec, &dir) {
                return Ok(hit);
            }
        }

        fs::create_dir_all(&dir)?;
        fs::write(dir.join("spec.json"), spec.to_json().write_pretty() + "\n")?;
        let status = StatusRecord::queued(&id, &spec);
        status.write(&dir)?;
        let job = Arc::new(Job {
            id: id.clone(),
            spec,
            dir,
            token: CancelToken::new(),
            outcome: Mutex::new(None),
            finished: Condvar::new(),
        });
        inflight.insert(id, Arc::clone(&job));
        drop(inflight);

        self.shared
            .queue
            .lock()
            .expect("queue lock")
            .push_back(Arc::clone(&job));
        self.shared.available.notify_one();
        Ok(job)
    }

    /// Garbage-collects the jobs directory without touching in-flight
    /// work: the dedup table's ids are excluded from collection, and the
    /// table stays locked for the duration so a concurrent [`submit`] can
    /// neither dedup into a directory being removed nor create one that
    /// this sweep then half-deletes.
    ///
    /// [`submit`]: JobQueue::submit
    pub fn gc(&self, all: bool) -> io::Result<crate::cache::GcReport> {
        let inflight = self.shared.inflight.lock().expect("inflight lock");
        let live: std::collections::HashSet<String> = inflight.keys().cloned().collect(); // lint: allow(map-order) — GC liveness set: membership queries only, order-free
        crate::cache::gc_excluding(&self.shared.jobs_dir, all, &live)
    }

    /// Graceful shutdown: stops accepting the idle wait, lets every queued
    /// job run to completion, then joins the workers.
    pub fn drain(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        for worker in self.workers {
            worker.join().expect("worker thread panicked outside a job");
        }
    }
}

/// Serves a `done` job directory as a cache hit: verifies `result.json`
/// exists, bumps the hit counters in `status.json`, and returns a finished
/// handle.  `None` means miss (absent, unreadable, or not `done`).
fn serve_from_cache(id: &str, spec: &JobSpec, dir: &Path) -> Option<Arc<Job>> {
    let serve_start = Instant::now(); // lint: allow(wall-clock) — times the cache-hit serve for status.json `served_ms`; not part of the content-addressed result
    let mut status = StatusRecord::read(dir)?;
    if status.state != JobState::Done || !dir.join("result.json").exists() {
        return None;
    }
    status.cache_hit = true;
    status.hits += 1;
    status.served_ms = Some(serve_start.elapsed().as_millis() as u64);
    // A hit that fails to record its counters is still a hit.
    let _ = status.write(dir);
    Some(Job::finished_handle(
        id.to_string(),
        spec.clone(),
        dir.to_path_buf(),
        JobOutcome::Done {
            cache_hit: true,
            wall_ms: status.wall_ms.unwrap_or(0),
        },
    ))
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        let outcome = execute(&job);
        shared
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&job.id);
        job.finish(outcome);
    }
}

/// Runs one job under panic isolation and records its status transitions.
fn execute(job: &Job) -> JobOutcome {
    let mut status =
        StatusRecord::read(&job.dir).unwrap_or_else(|| StatusRecord::queued(&job.id, &job.spec));
    status.state = JobState::Running;
    status.started_unix_ms = Some(unix_ms());
    let _ = status.write(&job.dir);

    if let Some(deadline_ms) = job.spec.deadline_ms {
        job.token
            .set_deadline(Instant::now() + Duration::from_millis(deadline_ms)); // lint: allow(wall-clock) — converts the per-job deadline knob to an absolute instant; scheduling-side
    }

    let start = Instant::now(); // lint: allow(wall-clock) — times the fresh compute for status.json `wall_ms`; not part of the content-addressed result
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job(&job.spec, &job.dir, &job.token)
    }));
    let wall_ms = start.elapsed().as_millis() as u64;

    let outcome = match result {
        Ok(Ok(_output)) => JobOutcome::Done {
            cache_hit: false,
            wall_ms,
        },
        Ok(Err(RunError::Stopped(StopReason::Cancelled))) => JobOutcome::Cancelled,
        Ok(Err(RunError::Stopped(StopReason::DeadlineExceeded))) => JobOutcome::TimedOut,
        Ok(Err(RunError::Io(e))) => JobOutcome::Failed {
            error: format!("i/o error: {e}"),
        },
        Err(payload) => JobOutcome::Failed {
            error: format!("panicked: {}", panic_message(payload.as_ref())),
        },
    };

    status.state = outcome.state();
    status.finished_unix_ms = Some(unix_ms());
    match &outcome {
        JobOutcome::Done { .. } => {
            status.wall_ms = Some(wall_ms);
            status.error = None;
        }
        JobOutcome::Failed { error } => status.error = Some(error.clone()),
        JobOutcome::Cancelled => status.error = Some("cancelled before completion".into()),
        JobOutcome::TimedOut => {
            status.error = Some(format!(
                "deadline of {} ms exceeded",
                job.spec.deadline_ms.unwrap_or(0)
            ))
        }
    }
    let _ = status.write(&job.dir);
    outcome
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
