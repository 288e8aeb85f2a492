//! `perfbench` — the seeded benchmark of the MIDAS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each repetition generates the workload's `JobSpec` texts from the seed,
//! runs them once through the session API with set-up and round loop
//! clocked apart, then submits them to an in-process job queue (misses
//! followed by cache hits), checking every output.  Repetitions continue
//! until `--seconds` have passed.  `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced repetitions and
//! reports the per-layer metrics.  The last line of standard output is the
//! JSON result.

#![forbid(unsafe_code)]

mod kernels;
mod report;
mod sim;
mod svc;
mod trace;
mod workload;

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use midas::experiment::FIG16_GAIN_BAND;
use midas_net::metrics::{relative_gain, Cdf};
use midas_svc::hash::sha256_hex;
use midas_svc::json::Json;
use midas_svc::spec::JobSpec;

use sim::SimTally;
use svc::SvcTally;
use trace::{now, secs_since, span, Tracer};
use workload::{Workload, THREADS, WORKERS};

/// Repetitions a run makes however short `--seconds` is, so every median
/// has samples.
const MIN_REPS: usize = 3;

/// A run stops starting repetitions after this long whatever the minimum,
/// so it ends well inside its time limit.
const HARD_STOP_S: f64 = 120.0;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One repetition: the session-driven run and the job-queue run of the
/// same spec texts.
struct Rep {
    sim: SimTally,
    svc: SvcTally,
    /// Session-run operations attempted and their failures.
    sim_attempted: usize,
    sim_failures: Vec<String>,
}

fn run_rep(args: &Args, rep: usize, tag: &str, work: &Path, tracer: Option<&Tracer>) -> Rep {
    let w = args.workload;
    let texts = w.spec_texts(args.seed, rep);
    span(tracer, "bench.rep", None, |root| {
        let mut out = Rep {
            sim: SimTally::default(),
            svc: SvcTally::default(),
            sim_attempted: 0,
            sim_failures: Vec::new(),
        };
        span(tracer, "sim.session", root, |parent| {
            for text in &texts {
                out.sim_attempted += 1;
                // A panic in the library is a failed operation, as it is
                // for the job queue, not the end of the run.
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    JobSpec::from_json_str(text)
                        .map_err(|e| e.to_string())
                        .and_then(|spec| sim::run(&spec, tracer, parent))
                }))
                .unwrap_or_else(|_| Err("panicked".into()));
                match ran {
                    Ok(t) if t.bad_deliveries > 0 || t.rounds == 0 => {
                        out.sim_failures.push(format!(
                            "session run: {} of {} deliveries non-finite or negative, {} rounds",
                            t.bad_deliveries, t.deliveries, t.rounds
                        ))
                    }
                    Ok(t) => out.sim.absorb(t),
                    Err(e) => out.sim_failures.push(format!("session run: {e}")),
                }
            }
        });
        let dir = work.join(format!("jobs-{}-{}-{rep}-{tag}", w.name, args.seed));
        let _ = fs::remove_dir_all(&dir);
        out.svc = span(tracer, "svc.session", root, |parent| {
            svc::run_rep(w, &texts, args.seed, rep, &dir, tracer, parent)
        });
        let _ = fs::remove_dir_all(&dir);
        out
    })
}

/// The revision of the checkout when it is a git work tree.
fn git_rev(root: &Path) -> String {
    let read = |p: PathBuf| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(root.join(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(root.join(".git").join(r)).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git work tree)".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Misses whose `result.json` feed the pooled Fig. 16 check: the first
/// ones of the run, so the check covers the same jobs at any host speed.
const FIG16_POOL_JOBS: usize = 200;

/// What a run keeps of the outputs once a repetition's bytes are dropped.
#[derive(Default)]
struct Outputs {
    /// SHA-256 over repetition 0's `result.json` bytes, in submission order.
    digest: Option<String>,
    /// `per_client.cas`, `per_client.das`, `network.cas`, `network.das`.
    pools: [Vec<f64>; 4],
    pooled_jobs: usize,
}

impl Outputs {
    fn keep(&mut self, results: &[Option<Vec<u8>>], fig16: bool) {
        if self.digest.is_none() {
            let bytes: Vec<u8> = results.iter().flatten().flatten().copied().collect();
            self.digest = Some(sha256_hex(&bytes));
        }
        if !fig16 {
            return;
        }
        for bytes in results.iter().flatten() {
            if self.pooled_jobs == FIG16_POOL_JOBS {
                return;
            }
            let Some(json) = std::str::from_utf8(bytes)
                .ok()
                .and_then(|t| Json::parse(t).ok())
            else {
                continue;
            };
            let series = [
                ("per_client", "cas"),
                ("per_client", "das"),
                ("network", "cas"),
                ("network", "das"),
            ];
            for (pool, (name, mac)) in self.pools.iter_mut().zip(series) {
                let values = json
                    .get(name)
                    .and_then(|s| s.get(mac))
                    .and_then(Json::as_arr);
                pool.extend(values.unwrap_or_default().iter().filter_map(Json::as_f64));
            }
            self.pooled_jobs += 1;
        }
    }

    /// The pooled Fig. 16 check: the per-client median gain must sit in
    /// `FIG16_GAIN_BAND` and the network gain in [0 %, 60 %].
    fn fig16_band(&self) -> Result<String, String> {
        let med = |v: &[f64]| Cdf::new(v).median();
        let client = relative_gain(med(&self.pools[1]), med(&self.pools[0]));
        let network = relative_gain(med(&self.pools[3]), med(&self.pools[2]));
        let (lo, hi) = FIG16_GAIN_BAND;
        let text = format!(
            "Fig. 16 gains over {} jobs: client median {:+.1} % (band {:+.0}…{:+.0} %), network {:+.1} % (band 0…60 %)",
            self.pooled_jobs,
            100.0 * client,
            100.0 * lo,
            100.0 * hi,
            100.0 * network
        );
        if (lo..=hi).contains(&client) && (0.0..=0.6).contains(&network) {
            Ok(text)
        } else {
            Err(text)
        }
    }
}

/// Tallies every check, prints the run header and the verdict, and returns
/// `(attempted, failures)`.
fn verdict(args: &Args, reps: &[Rep], outputs: &Outputs, root: &Path) -> (usize, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    for rep in reps {
        attempted += rep.sim_attempted + rep.svc.attempted;
        failures.extend(rep.sim_failures.iter().cloned());
        failures.extend(rep.svc.failures.iter().cloned());
    }
    println!(
        "# workload: {} seed: {} trace: {}",
        args.workload.name, args.seed, args.trace as u8
    );
    println!("# git rev: {}", git_rev(root));
    println!(
        "# nproc: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# rustc: {}", rustc_version());
    println!("# threads per job: {THREADS}, job-queue workers: {WORKERS}");
    let engine = reps.iter().find_map(|r| r.svc.engine.clone());
    println!(
        "# fading engine: {}",
        engine.as_deref().unwrap_or("unknown")
    );
    println!(
        "# result.json sha256 (repetition 0): {}",
        outputs.digest.as_deref().unwrap_or("none")
    );
    if args.workload.checks_fig16_band() {
        attempted += 1;
        match outputs.fig16_band() {
            Ok(text) => println!("# {text}"),
            Err(text) => failures.push(text),
        }
    }
    println!(
        "# failed_frac: {} / {} = {}",
        failures.len(),
        attempted,
        failures.len() as f64 / attempted.max(1) as f64
    );
    for f in failures.iter().take(10) {
        println!("# FAILED: {f}");
    }
    (attempted, failures)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir.parent().unwrap_or(bench_dir);
    let work = bench_dir.join(".work");
    if let Err(e) = fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }

    let start = now();
    let enough = |reps: usize| {
        let elapsed = secs_since(start);
        (reps >= MIN_REPS && elapsed >= args.seconds) || elapsed >= HARD_STOP_S
    };
    let mut outputs = Outputs::default();
    let mut run = |rep: usize, tag: &str, tracer: Option<&Tracer>| {
        let mut r = run_rep(&args, rep, tag, &work, tracer);
        outputs.keep(&r.svc.results, args.workload.checks_fig16_band());
        r.svc.results = Vec::new();
        r
    };
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let tracer = Tracer::new();
    if args.trace {
        while !enough(traced.len()) {
            let rep = traced.len();
            untraced.push(run(rep, "u", None));
            traced.push(run(rep, "t", Some(&tracer)));
        }
    } else {
        while !enough(untraced.len()) {
            untraced.push(run(untraced.len(), "u", None));
        }
    }
    let (names, metrics) = if args.trace {
        let geometry = JobSpec::from_json_str(&args.workload.spec_texts(args.seed, 0)[0])
            .map_err(|e| e.to_string())
            .and_then(|spec| sim::first_trial_geometry(&spec));
        let kernel_rows = match geometry {
            Ok((topo, config)) => span(Some(&tracer), "bench.kernels", None, |parent| {
                kernels::measure(&topo, &config, Some(&tracer), parent)
            }),
            Err(e) => {
                eprintln!("perfbench: kernel geometry: {e}");
                Vec::new()
            }
        };
        let spans = tracer.spans();
        let path = work.join(format!("spans-{}.jsonl", args.workload.name));
        if let Err(e) = trace::write_spans(&path, &spans) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
        (
            report::PER_LAYER,
            report::per_layer(&untraced, &traced, kernel_rows, &spans),
        )
    } else {
        (report::END_TO_END, report::end_to_end(&untraced))
    };

    let all: Vec<Rep> = untraced.into_iter().chain(traced).collect();
    let (attempted, failures) = verdict(&args, &all, &outputs, root);
    for (name, value, note) in &metrics {
        let unit = names.iter().find(|(n, _)| n == name).map_or("?", |u| u.1);
        println!("# {name} = {value} {unit} ({note})");
    }
    match report::result_line(
        names,
        &metrics,
        failures.is_empty(),
        attempted,
        failures.len(),
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
