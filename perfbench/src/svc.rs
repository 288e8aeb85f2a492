//! The job-queue run: the path the `midas` CLI takes.  Spec text is
//! decoded, submitted to an in-process `JobQueue` with one job
//! outstanding, and each cache miss is followed by re-submissions of
//! already-finished specs, which the queue serves from its cache.

use std::fs;
use std::path::Path;

use midas_svc::hash::sha256_hex;
use midas_svc::json::Json;
use midas_svc::pool::{JobOutcome, JobQueue};
use midas_svc::spec::JobSpec;
use midas_svc::status::StatusRecord;

use crate::trace::{now, secs_since, span, Tracer};
use crate::workload::{Workload, WORKERS};

/// What one repetition through the job queue measured and checked.
#[derive(Debug, Default)]
pub struct SvcTally {
    /// Σ over cache misses of decode + submit → outcome: spec text in to
    /// every `result.json` written.
    pub wall_s: f64,
    /// Cache-miss turnarounds (submit → `Done`), ms.
    pub miss_ms: Vec<f64>,
    /// Cache-hit turnarounds, ms.
    pub hit_ms: Vec<f64>,
    /// `result.json` bytes of each miss, in submission order (`None` where
    /// the miss failed).
    pub results: Vec<Option<Vec<u8>>>,
    /// Operations attempted and failed, with a note per failure.
    pub attempted: usize,
    pub failures: Vec<String>,
    /// The fading engine `status.json` recorded for the first job.
    pub engine: Option<String>,
    /// Traced runs only: per-call decode and cache-key times (µs), miss
    /// turnaround minus the job's own `wall_ms` (ms), output sizes, and
    /// kernel throughput inputs.
    pub decode_us: Vec<f64>,
    pub cache_key_us: Vec<f64>,
    pub dispatch_ms: Vec<f64>,
    pub rounds_jsonl_bytes: Vec<f64>,
    pub result_bytes: Vec<f64>,
    pub sha256_bytes: usize,
    pub sha256_s: f64,
    pub json_parse_bytes: usize,
    pub json_parse_s: f64,
}

impl SvcTally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Every number in a `result.json` is a capacity, stream count, duty cycle
/// or contention degree: all must be finite and ≥ 0.
pub fn all_numbers_finite_nonnegative(v: &Json) -> bool {
    match v {
        Json::Num(x) => x.is_finite() && *x >= 0.0,
        Json::Arr(items) => items.iter().all(all_numbers_finite_nonnegative),
        Json::Obj(members) => members
            .iter()
            .all(|(_, m)| all_numbers_finite_nonnegative(m)),
        _ => true,
    }
}

/// Runs one repetition of `workload` in the fresh job directory
/// `jobs_dir`.
pub fn run_rep(
    workload: &Workload,
    texts: &[String],
    seed: u64,
    rep: usize,
    jobs_dir: &Path,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> SvcTally {
    let mut tally = SvcTally::default();
    let queue = match JobQueue::new(jobs_dir.to_path_buf(), WORKERS) {
        Ok(queue) => queue,
        Err(e) => {
            tally.check(false, || format!("job queue: {e}"));
            return tally;
        }
    };
    for (miss, text) in texts.iter().enumerate() {
        let bytes = submit(&queue, text, false, &mut tally, tracer, parent);
        tally.results.push(bytes);
        for hit in 0..workload.hits_per_miss {
            let target = workload.hit_target(seed, rep, miss, hit);
            if tally.results[target].is_none() {
                continue;
            }
            if let Some(bytes) = submit(&queue, &texts[target], true, &mut tally, tracer, parent) {
                let same = tally.results[target].as_ref() == Some(&bytes);
                tally.check(same, || {
                    format!("cache hit on spec {target} is not byte-identical to its miss")
                });
            }
        }
    }
    queue.drain();
    tally
}

/// Decodes and submits one spec text, waits for it, checks the outcome and
/// returns the job's `result.json` bytes.
fn submit(
    queue: &JobQueue,
    text: &str,
    expect_hit: bool,
    tally: &mut SvcTally,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> Option<Vec<u8>> {
    let t0 = now();
    let decoded = span(tracer, "svc.decode", parent, |_| {
        JobSpec::from_json_str(text)
    });
    let decode_s = secs_since(t0);
    let spec = match decoded {
        Ok(spec) => spec,
        Err(e) => {
            tally.check(false, || format!("spec does not decode: {e}"));
            return None;
        }
    };
    if tracer.is_some() {
        tally.decode_us.push(decode_s * 1e6);
        let t = now();
        let key = span(tracer, "svc.cache_key", parent, |_| spec.cache_key());
        tally.cache_key_us.push(secs_since(t) * 1e6);
        std::hint::black_box(key);
    }
    let t1 = now();
    let name = if expect_hit { "svc.hit" } else { "svc.job" };
    let outcome = span(tracer, name, parent, |_| {
        queue
            .submit(spec)
            .map(|job| (job.wait(), job.dir().to_path_buf()))
    });
    let turnaround_s = secs_since(t1);
    if !expect_hit {
        tally.wall_s += secs_since(t0);
    }
    let (outcome, dir) = match outcome {
        Ok(done) => done,
        Err(e) => {
            tally.check(false, || format!("submit failed: {e}"));
            return None;
        }
    };
    let JobOutcome::Done { cache_hit, wall_ms } = outcome else {
        tally.check(false, || {
            format!("job {} ended {:?}", dir.display(), outcome)
        });
        return None;
    };
    tally.check(cache_hit == expect_hit, || {
        format!(
            "job {} cache_hit = {cache_hit}, expected {expect_hit}",
            dir.display()
        )
    });
    if expect_hit {
        tally.hit_ms.push(turnaround_s * 1e3);
    } else {
        tally.miss_ms.push(turnaround_s * 1e3);
    }
    let bytes = match fs::read(dir.join("result.json")) {
        Ok(bytes) => bytes,
        Err(e) => {
            tally.check(false, || format!("result.json unreadable: {e}"));
            return None;
        }
    };
    if expect_hit {
        return Some(bytes);
    }
    let parsed = std::str::from_utf8(&bytes)
        .ok()
        .and_then(|text| Json::parse(text).ok());
    tally.check(
        parsed.as_ref().is_some_and(all_numbers_finite_nonnegative),
        || {
            format!(
                "result.json of {} has a non-finite or negative number",
                dir.display()
            )
        },
    );
    if tally.engine.is_none() {
        tally.engine = StatusRecord::read(&dir).map(|s| s.engine);
    }
    if tracer.is_some() {
        tally.dispatch_ms.push(turnaround_s * 1e3 - wall_ms as f64);
        tally.result_bytes.push(bytes.len() as f64);
        let rounds = fs::read(dir.join("rounds.jsonl")).unwrap_or_default();
        tally.rounds_jsonl_bytes.push(rounds.len() as f64);
        let t = now();
        let digest = span(tracer, "svc.sha256", parent, |_| {
            (sha256_hex(&bytes), sha256_hex(&rounds))
        });
        tally.sha256_s += secs_since(t);
        tally.sha256_bytes += bytes.len() + rounds.len();
        std::hint::black_box(digest);
        let text = String::from_utf8_lossy(&rounds);
        let t = now();
        let lines_ok = span(tracer, "svc.json_parse", parent, |_| {
            text.lines().all(|line| Json::parse(line).is_ok())
        });
        tally.json_parse_s += secs_since(t);
        tally.json_parse_bytes += rounds.len();
        tally.check(lines_ok, || {
            format!("rounds.jsonl of {} does not parse", dir.display())
        });
    }
    Some(bytes)
}
