//! Deterministic parallel seed-sweep engine for the experiment runners.
//!
//! Every figure in the paper's evaluation (§5) is regenerated by sweeping a
//! per-figure trial over many random topologies: mix the figure seed with the
//! trial index, build a topology from the mixed seed, measure. Trials are
//! independent by construction, so [`SeedSweep`] fans them across a scoped
//! worker pool and collects the samples **by trial index** — the output is
//! bit-identical to the serial loop regardless of worker count.
//!
//! Worker count defaults to the machine's available parallelism and can be
//! overridden with the `MIDAS_THREADS` environment variable (clamped to
//! `[1, 512]`); a sweep never uses more workers than it has trials.  A value
//! that does not parse is an error, never a silent fallback: a sweep that
//! reads one panics with a message naming the knob and the value.  A sweep
//! with fewer trials than threads hands each trial the rest as its share
//! (`threads / workers`), which simulator set-up uses; the output stays
//! bit-identical at any share.
//!
//! This module also holds the one reader of the workspace's `MIDAS_*`
//! environment knobs ([`knob`], [`knob_list`], [`knob_path`]); midas-lint's
//! `env-knob-registry` rule flags an environment read anywhere else.
//!
//! ```
//! use midas::runner::SeedSweep;
//!
//! // Mixes seeds exactly like the hand-rolled loops did:
//! // trial_seed = seed ^ (t * prime + offset).
//! let sweep = SeedSweep::new(0x11DA5).with_mix(7919, 1);
//! let doubled = sweep.run(4, &|t: usize, _seed: u64| 2 * t);
//! assert_eq!(doubled, vec![0, 2, 4, 6]);
//! ```

use std::cell::Cell;
use std::ffi::OsString;
use std::panic::resume_unwind;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker count of every [`SeedSweep`].
const THREADS_ENV: &str = "MIDAS_THREADS";

/// Upper bound on the worker count, however it was requested.
const MAX_WORKERS: usize = 512;

thread_local! {
    /// Threads the trial running on this thread may use.
    static TRIAL_THREADS: Cell<usize> = const { Cell::new(1) };
}

/// Threads the trial running on this thread may use: its sweep's thread
/// count over the sweep's workers, at least 1; 1 outside a sweep.
pub(crate) fn trial_threads() -> usize {
    TRIAL_THREADS.with(Cell::get)
}

/// Sets this thread's trial share until dropped, then restores the share
/// it replaced (so a sweep nested in a trial leaves its trial's share as
/// it found it, unwinding included).
struct TrialShare(usize);

impl TrialShare {
    fn set(threads: usize) -> Self {
        TrialShare(TRIAL_THREADS.with(|share| share.replace(threads)))
    }
}

impl Drop for TrialShare {
    fn drop(&mut self) {
        TRIAL_THREADS.with(|share| share.set(self.0));
    }
}

/// One independent experiment trial: maps `(trial_index, trial_seed)` to a
/// sample. Implemented for every `Fn(usize, u64) -> Sample + Sync` closure,
/// so runners pass their loop body directly.
pub trait Trial: Sync {
    /// The per-trial measurement produced by [`Trial::run`].
    type Sample: Send;

    /// Runs trial `trial_index` with its pre-mixed `trial_seed`.
    fn run(&self, trial_index: usize, trial_seed: u64) -> Self::Sample;
}

impl<S: Send, F: Fn(usize, u64) -> S + Sync> Trial for F {
    type Sample = S;

    fn run(&self, trial_index: usize, trial_seed: u64) -> S {
        self(trial_index, trial_seed)
    }
}

/// The raw value of environment knob `name`: the one environment read of
/// the workspace.
fn raw_knob(name: &str) -> Option<OsString> {
    std::env::var_os(name)
}

/// The text of a set knob, or an error naming the knob when it is not UTF-8.
fn knob_text(name: &str, raw: OsString) -> Result<String, String> {
    raw.into_string()
        .map_err(|raw| format!("{name}: {raw:?} is not valid UTF-8"))
}

/// Parses one raw knob value: `Ok(None)` when unset, the trimmed value
/// parsed as `T` when set, else an error naming the knob and the value.
fn parse_knob<T: FromStr>(name: &str, raw: Option<OsString>) -> Result<Option<T>, String> {
    raw.map(|raw| {
        let text = knob_text(name, raw)?;
        text.trim()
            .parse()
            .map_err(|_| format!("{name}: cannot parse {text:?}"))
    })
    .transpose()
}

/// Parses one raw comma-separated knob list, `default` when unset; blank
/// entries are skipped and every other entry must parse as `T`.
fn parse_knob_list<T: FromStr>(
    name: &str,
    raw: Option<OsString>,
    default: &str,
) -> Result<Vec<T>, String> {
    let text = raw.map_or(Ok(default.to_string()), |raw| knob_text(name, raw))?;
    text.split(',')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(|entry| {
            entry
                .parse()
                .map_err(|_| format!("{name}: cannot parse entry {entry:?} of {text:?}"))
        })
        .collect()
}

/// Reads the `MIDAS_*` knob `name`: `Ok(None)` when unset, so the caller
/// takes its default; otherwise the trimmed value parsed as `T`.  A value
/// that does not parse (a blank one included, for a number) or is not
/// UTF-8 is an error naming the knob and the value.
pub fn knob<T: FromStr>(name: &str) -> Result<Option<T>, String> {
    parse_knob(name, raw_knob(name))
}

/// Reads the comma-separated `MIDAS_*` knob list `name`, or `default` when
/// unset.  Blank entries are skipped; an entry that does not parse, or a
/// value that is not UTF-8, is an error naming the knob and the value.
pub fn knob_list<T: FromStr>(name: &str, default: &str) -> Result<Vec<T>, String> {
    parse_knob_list(name, raw_knob(name), default)
}

/// Reads the path knob `name` as an OS string, so any path the platform
/// allows is taken as written; `None` when unset.
pub fn knob_path(name: &str) -> Option<PathBuf> {
    raw_knob(name).map(PathBuf::from)
}

/// The `MIDAS_THREADS` override of the environment: `Ok(None)` when unset,
/// an error naming the knob and the value when it does not parse.  The
/// `midas` CLI checks it before starting its pool.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    thread_override(raw_knob(THREADS_ENV))
}

/// A raw `MIDAS_THREADS` value as a worker count: `0` clamps up to one
/// worker, values above `MAX_WORKERS` clamp down to it.
fn thread_override(raw: Option<OsString>) -> Result<Option<usize>, String> {
    Ok(parse_knob::<usize>(THREADS_ENV, raw)?.map(|n| n.clamp(1, MAX_WORKERS)))
}

/// Worker count a sweep without an explicit override uses: `MIDAS_THREADS`
/// when set, otherwise the machine's available parallelism.
///
/// # Panics
/// Panics when `MIDAS_THREADS` is set but does not parse.
fn default_workers() -> usize {
    threads_from_env()
        .unwrap_or_else(|message| panic!("{message}"))
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, MAX_WORKERS)
        })
}

/// A deterministic parallel sweep over seeded trials.
///
/// The per-trial seed is `seed ^ (t * prime + offset)` — the exact mixing the
/// original hand-rolled runner loops used — so rewriting a runner on top of
/// the engine reproduces its historical series bit-for-bit.
#[derive(Debug, Clone)]
pub struct SeedSweep {
    seed: u64,
    prime: u64,
    offset: u64,
    threads: Option<usize>,
}

impl SeedSweep {
    /// A sweep around `seed` with the identity mix (`trial_seed = seed ^ t`).
    pub fn new(seed: u64) -> Self {
        SeedSweep {
            seed,
            prime: 1,
            offset: 0,
            threads: None,
        }
    }

    /// Sets the per-trial seed mix to `seed ^ (t * prime + offset)`.
    pub fn with_mix(mut self, prime: u64, offset: u64) -> Self {
        self.prime = prime;
        self.offset = offset;
        self
    }

    /// Overrides the worker count (clamped to `[1, MAX_WORKERS]`), taking
    /// precedence over `MIDAS_THREADS` and available parallelism.
    pub fn with_threads(mut self, workers: usize) -> Self {
        self.threads = Some(workers.clamp(1, MAX_WORKERS));
        self
    }

    /// The mixed seed handed to trial `t`.
    pub fn trial_seed(&self, t: usize) -> u64 {
        self.seed
            ^ (t as u64)
                .wrapping_mul(self.prime)
                .wrapping_add(self.offset)
    }

    /// Number of workers a sweep of `trials` trials would use.
    pub fn workers_for(&self, trials: usize) -> usize {
        self.workers_and_share(trials).0
    }

    /// The workers a sweep of `trials` trials uses, and each trial's share
    /// of the sweep's threads: `threads / workers`, at least 1.
    fn workers_and_share(&self, trials: usize) -> (usize, usize) {
        let threads = self.threads.unwrap_or_else(default_workers);
        let workers = threads.min(trials).max(1);
        (workers, (threads / workers).max(1))
    }

    /// Runs `trials` independent trials and returns their samples in trial
    /// order. A panic in any trial propagates to the caller with its
    /// original payload.  Each trial runs with `threads / workers` threads
    /// as its share, at least 1, which simulator set-up reads.
    pub fn run<T: Trial + ?Sized>(&self, trials: usize, trial: &T) -> Vec<T::Sample> {
        if trials == 0 {
            return Vec::new();
        }
        let (workers, share) = self.workers_and_share(trials);
        if workers == 1 {
            let _share = TrialShare::set(share);
            return (0..trials)
                .map(|t| trial.run(t, self.trial_seed(t)))
                .collect();
        }

        // Work-stealing over an atomic trial counter: workers grab the next
        // index, tag each sample with it, and the samples are scattered back
        // into trial order afterwards — so the result does not depend on
        // which worker ran which trial.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T::Sample>> = (0..trials).map(|_| None).collect();
        let mut panic_payload = None;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    scope.spawn(move || {
                        let _share = TrialShare::set(share);
                        let mut local = Vec::new();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= trials {
                                return local;
                            }
                            local.push((t, trial.run(t, self.trial_seed(t))));
                        }
                    })
                })
                .collect();
            for handle in handles {
                // A panicking trial unwinds its worker; `join` hands the
                // payload back and the caller thread re-throws it below.
                match handle.join() {
                    Ok(local) => {
                        for (t, sample) in local {
                            slots[t] = Some(sample);
                        }
                    }
                    Err(payload) => panic_payload = Some(payload),
                }
            }
        });
        if let Some(payload) = panic_payload {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every trial index was claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet; // lint: allow(map-order) — test-only uniqueness assertion, order-free
    use std::panic::catch_unwind;
    use std::sync::Mutex;

    #[test]
    fn empty_sweep_returns_no_samples() {
        let out = SeedSweep::new(7).run(0, &|_t: usize, _s: u64| 1.0f64);
        assert!(out.is_empty());
    }

    #[test]
    fn single_trial_sweep_runs_index_zero_with_the_mixed_seed() {
        let sweep = SeedSweep::new(5).with_mix(7919, 1);
        let out = sweep.run(1, &|t: usize, s: u64| (t, s));
        assert_eq!(out, vec![(0, 5 ^ 1)]);
    }

    #[test]
    fn seed_mixing_matches_the_historical_loops() {
        let sweep = SeedSweep::new(0x11DA5).with_mix(2861, 11);
        for t in 0..10u64 {
            assert_eq!(sweep.trial_seed(t as usize), 0x11DA5 ^ (t * 2861 + 11));
        }
    }

    #[test]
    fn samples_come_back_in_trial_order_at_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let sweep = SeedSweep::new(3).with_threads(workers);
            let out = sweep.run(17, &|t: usize, _s: u64| t * 10);
            assert_eq!(out, (0..17).map(|t| t * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let seen = Mutex::new(Vec::new());
        SeedSweep::new(1)
            .with_threads(4)
            .run(33, &|t: usize, _s: u64| {
                seen.lock().unwrap().push(t);
            });
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 33);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 33); // lint: allow(map-order) — duplicate-detection in a test assertion, order-free
    }

    #[test]
    fn thread_count_does_not_change_the_series() {
        let run = |workers| {
            SeedSweep::new(42)
                .with_mix(6151, 3)
                .with_threads(workers)
                .run(25, &|_t: usize, s: u64| {
                    let mut rng = midas_channel::SimRng::new(s);
                    (0..50).map(|_| rng.uniform()).sum::<f64>()
                })
        };
        let serial = run(1);
        assert_eq!(serial, run(4));
        assert_eq!(serial, run(16));
    }

    #[test]
    fn panic_in_a_trial_propagates_with_its_payload() {
        let result = catch_unwind(|| {
            SeedSweep::new(0)
                .with_threads(4)
                .run(8, &|t: usize, _s: u64| {
                    if t == 5 {
                        panic!("trial 5 exploded");
                    }
                    t
                });
        });
        let payload = result.expect_err("sweep should propagate the panic");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "trial 5 exploded");
    }

    #[test]
    fn panic_in_a_serial_sweep_propagates_too() {
        let result = catch_unwind(|| {
            SeedSweep::new(0)
                .with_threads(1)
                .run(3, &|_t: usize, _s: u64| {
                    panic!("serial boom");
                });
        });
        assert!(result.is_err());
    }

    #[test]
    fn worker_count_is_clamped_to_trials_and_bounds() {
        let sweep = SeedSweep::new(0).with_threads(64);
        assert_eq!(sweep.workers_for(3), 3);
        assert_eq!(sweep.workers_for(0), 1);
        assert_eq!(sweep.workers_for(1000), 64);
        // A zero request clamps up to one worker rather than deadlocking.
        assert_eq!(SeedSweep::new(0).with_threads(0).workers_for(10), 1);
        // An absurd request clamps down to the hard cap.
        assert_eq!(
            SeedSweep::new(0)
                .with_threads(usize::MAX)
                .workers_for(usize::MAX),
            MAX_WORKERS
        );
    }

    fn set(value: &str) -> Option<OsString> {
        Some(value.into())
    }

    /// A byte sequence that is not UTF-8 (a lone `0xff`).
    #[cfg(unix)]
    fn not_utf8() -> OsString {
        use std::os::unix::ffi::OsStringExt;
        OsString::from_vec(vec![0xff])
    }

    #[test]
    fn knobs_parse_trimmed_values_and_take_the_default_when_unset() {
        assert_eq!(parse_knob::<usize>("ROUNDS", set(" 12 ")), Ok(Some(12)));
        assert_eq!(parse_knob::<f64>("SPEED", set("1.4")), Ok(Some(1.4)));
        assert_eq!(parse_knob::<usize>("ROUNDS", None), Ok(None));
        assert_eq!(
            parse_knob::<String>("CELL", set(" name ")),
            Ok(Some("name".to_string()))
        );
    }

    #[test]
    fn a_bad_knob_value_names_the_knob_and_the_value() {
        for (value, shown) in [
            ("ten", "\"ten\""),
            ("-1", "\"-1\""),
            ("", "\"\""),
            (" ", "\" \""),
        ] {
            assert_eq!(
                parse_knob::<usize>("ROUNDS", set(value)),
                Err(format!("ROUNDS: cannot parse {shown}"))
            );
        }
        assert!(parse_knob::<f64>("SPEED", set("")).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn a_knob_that_is_not_utf8_is_an_error_naming_it() {
        assert_eq!(
            parse_knob::<usize>("ROUNDS", Some(not_utf8())),
            Err("ROUNDS: \"\\xFF\" is not valid UTF-8".to_string())
        );
        assert_eq!(
            parse_knob_list::<usize>("APS", Some(not_utf8()), "1"),
            Err("APS: \"\\xFF\" is not valid UTF-8".to_string())
        );
    }

    #[test]
    fn knob_lists_skip_blanks_take_the_default_and_reject_bad_entries() {
        assert_eq!(
            parse_knob_list::<f64>("DUTY", set("0.5, 1.0,,"), "9"),
            Ok(vec![0.5, 1.0])
        );
        assert_eq!(parse_knob_list::<usize>("APS", set(""), "8"), Ok(vec![]));
        assert_eq!(
            parse_knob_list::<usize>("APS", None, "8, 16"),
            Ok(vec![8, 16])
        );
        assert_eq!(
            parse_knob_list::<String>("NAMES", set("a, b"), ""),
            Ok(vec!["a".to_string(), "b".to_string()])
        );
        let err = parse_knob_list::<f64>("DUTY", set("0.5,x"), "1").unwrap_err();
        assert_eq!(err, "DUTY: cannot parse entry \"x\" of \"0.5,x\"");
    }

    #[test]
    fn thread_override_parsing_clamps_and_rejects_garbage() {
        let threads = |value: &str| thread_override(set(value));
        assert_eq!(thread_override(None), Ok(None));
        assert_eq!(
            threads("not a number"),
            Err("MIDAS_THREADS: cannot parse \"not a number\"".to_string())
        );
        assert_eq!(
            threads("-2"),
            Err("MIDAS_THREADS: cannot parse \"-2\"".to_string())
        );
        assert_eq!(
            threads(""),
            Err("MIDAS_THREADS: cannot parse \"\"".to_string())
        );
        assert_eq!(threads("0"), Ok(Some(1)));
        assert_eq!(threads("1"), Ok(Some(1)));
        assert_eq!(threads(" 8 "), Ok(Some(8)));
        assert_eq!(threads("99999"), Ok(Some(MAX_WORKERS)));
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn each_trial_gets_the_threads_its_sweep_leaves_over() {
        // (threads, trials, share): threads / workers, workers = min(threads, trials).
        for (threads, trials, share) in [
            (1, 1, 1),
            (2, 1, 2),
            (4, 1, 4),
            (4, 2, 2),
            (4, 3, 1),
            (2, 15, 1),
            (8, 3, 2),
        ] {
            let shares = SeedSweep::new(0)
                .with_threads(threads)
                .run(trials, &|_t: usize, _s: u64| trial_threads());
            assert_eq!(
                shares,
                vec![share; trials],
                "{threads} threads, {trials} trials"
            );
        }
        // Outside a sweep, and after one, the share is 1.
        assert_eq!(trial_threads(), 1);
    }

    #[test]
    fn a_nested_sweep_restores_its_trials_share() {
        let shares = SeedSweep::new(0)
            .with_threads(4)
            .run(1, &|_t: usize, _s: u64| {
                let inner = SeedSweep::new(1)
                    .with_threads(2)
                    .run(2, &|_t: usize, _s: u64| trial_threads());
                (inner, trial_threads())
            });
        assert_eq!(shares, vec![(vec![1, 1], 4)]);
        let caught = catch_unwind(|| {
            SeedSweep::new(0)
                .with_threads(3)
                .run(1, &|_t: usize, _s: u64| panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(
            trial_threads(),
            1,
            "an unwinding serial sweep restores the share"
        );
    }

    #[test]
    fn trial_trait_objects_are_usable() {
        // `run` takes `?Sized` so a boxed trial works through a wide pointer.
        let trial: Box<dyn Trial<Sample = u64>> = Box::new(|_t: usize, s: u64| s);
        let sweep = SeedSweep::new(9).with_mix(193, 61).with_threads(2);
        let out = sweep.run(4, trial.as_ref());
        assert_eq!(out, (0..4).map(|t| sweep.trial_seed(t)).collect::<Vec<_>>());
    }
}
