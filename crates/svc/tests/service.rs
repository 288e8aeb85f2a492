//! End-to-end tests of the capacity-planning service: byte-identity of
//! cached results against the in-process library, worker-pool lifecycle
//! (timeout, panic isolation, dedup) and the streamed round log.

use std::path::PathBuf;
use std::sync::Arc;

use midas::sim::{
    ContentionModel, DynamicsSpec, ExperimentOutput, ExperimentSpec, SessionBuilder, SessionTrial,
};
use midas_net::scale::Scenario;
use midas_svc::json::Json;
use midas_svc::pool::{JobOutcome, JobQueue};
use midas_svc::runner::{result_bytes, run_job, CancelToken, RunError, StopReason};
use midas_svc::spec::JobSpec;
use midas_svc::status::{JobState, StatusRecord};

/// A fresh scratch jobs directory, isolated per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midas-svc-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The in-process run of a session-driven spec over `builder` (its
/// recipe with the job's knobs applied).
fn in_process(spec: &ExperimentSpec, builder: SessionBuilder, seed: u64) -> ExperimentOutput {
    spec.run_session(builder, seed, &|trial: &SessionTrial<'_>, mac| {
        Some(trial.simulate(mac))
    })
    .expect("plain simulation never stops early")
}

/// Runs `spec` through a fresh queue and returns its `result.json`.
fn service_result(tag: &str, spec: JobSpec) -> String {
    let jobs = scratch(tag);
    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec).unwrap();
    assert!(matches!(
        job.wait(),
        JobOutcome::Done {
            cache_hit: false,
            ..
        }
    ));
    queue.drain();
    let got = std::fs::read_to_string(job.dir().join("result.json")).unwrap();
    std::fs::remove_dir_all(&jobs).ok();
    got
}

/// A small session-driven workload: 3-AP testbed, 2 topologies, 3 rounds.
fn small_end_to_end(seed: u64) -> JobSpec {
    JobSpec::new(
        ExperimentSpec::EndToEnd {
            eight_aps: false,
            topologies: 2,
            rounds: 3,
            contention: ContentionModel::Graph,
        },
        seed,
    )
}

#[test]
fn result_json_is_byte_identical_to_the_in_process_run() {
    let spec = small_end_to_end(9001);
    // The in-process reference: the spec's own recipe.
    let builder = spec.experiment.session_builder().unwrap();
    let expect = result_bytes(&in_process(&spec.experiment, builder, spec.seed));
    let got = service_result("ident", spec);
    assert_eq!(got, expect);
}

#[test]
fn enterprise_result_json_is_byte_identical_to_the_in_process_run() {
    // The other recipe the shared runner carries: the contention-degree
    // diagnostic and the per-AP series, static and with roaming walkers.
    for dynamics in [None, Some(DynamicsSpec::roaming_walk(1.4))] {
        let mut spec = JobSpec::new(
            ExperimentSpec::EnterpriseScaling {
                scenario: Scenario::enterprise_office(8),
                topologies: 2,
                rounds: 3,
            },
            77,
        );
        spec.dynamics = dynamics;
        let mut builder = spec.experiment.session_builder().unwrap();
        if let Some(dynamics) = dynamics {
            builder = builder.dynamics(dynamics);
        }
        let expect = result_bytes(&in_process(&spec.experiment, builder, spec.seed));
        let got = service_result(&format!("enterprise-{}", dynamics.is_some()), spec);
        assert_eq!(got, expect, "dynamics {dynamics:?}");
    }
}

#[test]
fn legacy_service_run_matches_experiment_spec_run() {
    // The acceptance contract: the service result for a default-knob spec
    // is byte-for-byte the encoding of `ExperimentSpec::run(seed)`.
    let jobs = scratch("spec-run");
    let spec = small_end_to_end(4242);
    let reference = result_bytes(&spec.experiment.run(spec.seed));

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec).unwrap();
    assert!(matches!(
        job.wait(),
        JobOutcome::Done {
            cache_hit: false,
            ..
        }
    ));
    queue.drain();

    let got = std::fs::read_to_string(job.dir().join("result.json")).unwrap();
    assert_eq!(got, reference);
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn second_submission_is_a_byte_identical_cache_hit() {
    let jobs = scratch("cache");
    let spec = small_end_to_end(7);

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let fresh = queue.submit(spec.clone()).unwrap();
    let fresh_outcome = fresh.wait();
    assert!(matches!(
        fresh_outcome,
        JobOutcome::Done {
            cache_hit: false,
            ..
        }
    ));
    let fresh_bytes = std::fs::read(fresh.dir().join("result.json")).unwrap();
    queue.drain();

    // A brand-new queue over the same jobs dir: the hit must come from
    // disk, not from in-process state.
    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let hit = queue.submit(spec).unwrap();
    match hit.wait() {
        JobOutcome::Done { cache_hit, .. } => assert!(cache_hit, "expected a cache hit"),
        other => panic!("expected Done, got {other:?}"),
    }
    assert_eq!(hit.id(), fresh.id(), "content address must be stable");
    let hit_bytes = std::fs::read(hit.dir().join("result.json")).unwrap();
    assert_eq!(hit_bytes, fresh_bytes);

    let status = StatusRecord::read(hit.dir()).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.hits, 1);
    assert!(status.cache_hit);
    assert!(status.served_ms.is_some());
    queue.drain();
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn concurrent_identical_submissions_share_one_job() {
    let jobs = scratch("dedup");
    let spec = small_end_to_end(55);

    let queue = JobQueue::new(jobs.clone(), 2).unwrap();
    let first = queue.submit(spec.clone()).unwrap();
    let second = queue.submit(spec).unwrap();
    assert!(
        Arc::ptr_eq(&first, &second),
        "identical in-flight specs must dedup to one handle"
    );
    assert!(matches!(first.wait(), JobOutcome::Done { .. }));
    queue.drain();

    // One run, zero cache hits: dedup happened in flight, not via cache.
    let status = StatusRecord::read(first.dir()).unwrap();
    assert_eq!(status.hits, 0);
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn exceeded_deadline_reports_timeout_and_the_pool_keeps_serving() {
    let jobs = scratch("deadline");
    let mut doomed = small_end_to_end(11);
    doomed.deadline_ms = Some(0); // expired before the first trial

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(doomed).unwrap();
    assert_eq!(job.wait(), JobOutcome::TimedOut);

    let status = StatusRecord::read(job.dir()).unwrap();
    assert_eq!(status.state, JobState::Timeout);
    assert!(status.error.unwrap().contains("deadline"));
    assert!(
        !job.dir().join("result.json").exists(),
        "a timed-out job must not publish a result"
    );

    // The same worker must still serve healthy jobs afterwards.
    let healthy = queue.submit(small_end_to_end(12)).unwrap();
    assert!(matches!(healthy.wait(), JobOutcome::Done { .. }));
    queue.drain();
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn panicking_job_fails_alone_and_the_pool_keeps_serving() {
    let jobs = scratch("panic");
    // A 0-AP enterprise floor builds an empty grid: the topology source
    // panics inside the sweep — exactly the poisoned-job shape the pool
    // must contain.
    let poisoned = JobSpec::new(
        ExperimentSpec::EnterpriseScaling {
            scenario: Scenario::enterprise_office(0),
            topologies: 1,
            rounds: 1,
        },
        1,
    );

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(poisoned).unwrap();
    match job.wait() {
        JobOutcome::Failed { error } => {
            assert!(error.contains("panicked"), "got: {error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    let status = StatusRecord::read(job.dir()).unwrap();
    assert_eq!(status.state, JobState::Failed);
    assert!(status.error.unwrap().contains("panicked"));

    let healthy = queue.submit(small_end_to_end(13)).unwrap();
    assert!(matches!(healthy.wait(), JobOutcome::Done { .. }));
    queue.drain();
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn pre_cancelled_token_stops_the_run_before_any_result() {
    let dir = scratch("cancel").join("job");
    let spec = small_end_to_end(21);
    let token = CancelToken::new();
    token.cancel();
    match run_job(&spec, &dir, &token) {
        Err(RunError::Stopped(StopReason::Cancelled)) => {}
        other => panic!("expected Stopped(Cancelled), got {other:?}"),
    }
    assert!(!dir.join("result.json").exists());
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn round_log_covers_every_trial_and_mac() {
    let jobs = scratch("jsonl");
    let spec = small_end_to_end(31);
    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec).unwrap();
    assert!(matches!(job.wait(), JobOutcome::Done { .. }));
    queue.drain();

    let text = std::fs::read_to_string(job.dir().join("rounds.jsonl")).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|line| Json::parse(line).expect("every jsonl line parses"))
        .collect();
    // 2 topologies × 2 MACs × (1 header + 3 rounds), no profiling line.
    assert_eq!(lines.len(), 16);
    for mac in ["cas", "midas"] {
        for trial in 0..2u64 {
            let block: Vec<&Json> = lines
                .iter()
                .filter(|v| {
                    v.get("mac").unwrap().as_str() == Some(mac)
                        && v.get("trial").unwrap().as_u64() == Some(trial)
                })
                .collect();
            assert_eq!(block.len(), 4, "trial {trial} mac {mac}");
            let rounds: Vec<u64> = block
                .iter()
                .filter_map(|v| v.get("round").and_then(Json::as_u64))
                .collect();
            assert_eq!(rounds, vec![0, 1, 2], "trial {trial} mac {mac}");
        }
    }
    std::fs::remove_dir_all(&jobs).ok();
}

/// Repo-root `specs/` directory (this crate lives two levels below).
fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .join("specs")
}

#[test]
fn every_shipped_spec_file_parses() {
    let mut seen = 0;
    for entry in std::fs::read_dir(specs_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        JobSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen += 1;
    }
    assert!(
        seen >= 4,
        "expected the shipped example specs, found {seen}"
    );
}

#[test]
fn fig16_acceptance_spec_is_byte_identical_to_experiment_spec_run() {
    // The PR's acceptance check, pinned: `midas run specs/fig16_8ap.json`
    // must produce a result.json byte-for-byte equal to the in-process
    // `ExperimentSpec::run` output.
    let text = std::fs::read_to_string(specs_dir().join("fig16_8ap.json")).unwrap();
    let spec = JobSpec::from_json_str(&text).unwrap();
    let reference = result_bytes(&spec.experiment.run(spec.seed));

    let jobs = scratch("fig16");
    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec).unwrap();
    assert!(matches!(
        job.wait(),
        JobOutcome::Done {
            cache_hit: false,
            ..
        }
    ));
    queue.drain();
    let got = std::fs::read_to_string(job.dir().join("result.json")).unwrap();
    assert_eq!(got, reference);
    std::fs::remove_dir_all(&jobs).ok();
}

#[test]
fn status_lifecycle_timestamps_are_ordered() {
    let jobs = scratch("status");
    let spec = small_end_to_end(41);
    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec.clone()).unwrap();
    assert!(matches!(job.wait(), JobOutcome::Done { .. }));
    queue.drain();

    let status = StatusRecord::read(job.dir()).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert_eq!(status.kind, spec.experiment.name());
    assert_eq!(status.seed, spec.seed);
    assert_eq!(status.engine, "counter", "keyed fading is the only engine");
    let queued = status.queued_unix_ms;
    let started = status.started_unix_ms.unwrap();
    let finished = status.finished_unix_ms.unwrap();
    assert!(queued <= started && started <= finished);
    assert!(status.wall_ms.is_some());

    // The spec file on disk re-reads to the submitted spec.
    let text = std::fs::read_to_string(job.dir().join("spec.json")).unwrap();
    let reread = JobSpec::from_json_str(&text).unwrap();
    assert_eq!(reread, spec);
    std::fs::remove_dir_all(&jobs).ok();
}

/// A single long trial with many rounds: a mid-trial deadline must cut the
/// run at a *round* boundary, not wait for the trial to finish.
#[test]
fn mid_trial_deadline_cancels_at_round_granularity() {
    let jobs = scratch("deadline-rounds");
    let rounds = 5_000usize;
    let mut doomed = JobSpec::new(
        ExperimentSpec::EndToEnd {
            eight_aps: false,
            topologies: 1,
            rounds,
            contention: ContentionModel::Graph,
        },
        51,
    );
    doomed.deadline_ms = Some(50); // expires well inside the first trial

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(doomed).unwrap();
    assert_eq!(job.wait(), JobOutcome::TimedOut);
    queue.drain();

    let status = StatusRecord::read(job.dir()).unwrap();
    assert_eq!(status.state, JobState::Timeout);
    assert!(!job.dir().join("result.json").exists());

    // Trial-granular cancellation would have logged the complete
    // 2 × (1 header + rounds) lines before noticing the deadline; the
    // round-granular probe stops the session partway through.
    let full = 2 * (1 + rounds);
    let logged = std::fs::read_to_string(job.dir().join("rounds.jsonl"))
        .map(|text| text.lines().count())
        .unwrap_or(0);
    assert!(
        logged < full,
        "expected a truncated round log, got all {logged} lines"
    );
    std::fs::remove_dir_all(&jobs).ok();
}

/// `gc` while a job is executing must not delete the directory out from
/// under the worker: in-flight ids are excluded from collection.
#[test]
fn gc_during_a_running_job_keeps_its_directory() {
    let jobs = scratch("gc-live");
    let spec = JobSpec::new(
        ExperimentSpec::EndToEnd {
            eight_aps: false,
            topologies: 1,
            rounds: 2_000,
            contention: ContentionModel::Graph,
        },
        61,
    );

    let queue = JobQueue::new(jobs.clone(), 1).unwrap();
    let job = queue.submit(spec).unwrap();

    // Wait until the worker has picked the job up and marked it running.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30); // lint: allow(wall-clock) — test-side polling deadline
    loop {
        match StatusRecord::read(job.dir()) {
            Some(status) if status.state == JobState::Running => break,
            Some(status) if status.state != JobState::Queued => {
                panic!("job finished ({:?}) before gc could race it", status.state)
            }
            _ => {}
        }
        assert!(
            std::time::Instant::now() < deadline, // lint: allow(wall-clock) — test-side polling deadline
            "job never reached Running"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Aggressive collection mid-run: the live job must survive.
    let report = queue.gc(true).unwrap();
    assert_eq!(report.removed, 0);
    assert_eq!(report.kept, 1);
    assert!(job.dir().exists(), "gc deleted a running job's directory");

    // `wait` returns only after the worker has retired the job from the
    // in-flight table, so `gc --all` now reaps it like any other entry.
    assert!(matches!(job.wait(), JobOutcome::Done { .. }));
    assert!(job.dir().join("result.json").exists());
    let report = queue.gc(true).unwrap();
    assert_eq!(report.removed, 1);
    assert!(!job.dir().exists());
    queue.drain();
    std::fs::remove_dir_all(&jobs).ok();
}
