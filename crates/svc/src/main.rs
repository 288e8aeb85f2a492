//! The `midas` CLI: front door of the capacity-planning service.
//!
//! ```text
//! midas run <spec.json> [--jobs-dir DIR] [--figure-dir DIR] [--force]
//!                       [--workers N] [--deadline-ms N]
//! midas batch <specs-dir> [--jobs-dir DIR] [--workers N] [--force]
//! midas cache ls [--jobs-dir DIR]
//! midas cache gc [--all] [--jobs-dir DIR]
//! ```
//!
//! Exit codes: 0 success, 2 usage, 3 invalid spec, 4 job did not complete
//! (failed / cancelled / timeout).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use midas_svc::cache;
use midas_svc::json::Json;
use midas_svc::pool::{resolve_workers, JobOutcome, JobQueue};
use midas_svc::runner::{decode_output, summarize};
use midas_svc::spec::JobSpec;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("midas: {message}");
            ExitCode::from(2)
        }
    }
}

/// Flag-style options shared by the subcommands.
#[derive(Default)]
struct Options {
    jobs_dir: Option<PathBuf>,
    figure_dir: Option<PathBuf>,
    workers: Option<usize>,
    deadline_ms: Option<u64>,
    force: bool,
    all: bool,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--jobs-dir" => opts.jobs_dir = Some(PathBuf::from(value_of("--jobs-dir")?)),
            "--figure-dir" => opts.figure_dir = Some(PathBuf::from(value_of("--figure-dir")?)),
            "--workers" => {
                opts.workers = Some(
                    value_of("--workers")?
                        .parse()
                        .map_err(|_| "--workers needs an integer".to_string())?,
                )
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value_of("--deadline-ms")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs an integer".to_string())?,
                )
            }
            "--force" => opts.force = true,
            "--all" => opts.all = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            positional => opts.positional.push(positional.to_string()),
        }
    }
    Ok(opts)
}

const USAGE: &str = "usage:\n  \
    midas run <spec.json> [--jobs-dir DIR] [--figure-dir DIR] [--force] [--workers N] [--deadline-ms N]\n  \
    midas batch <specs-dir> [--jobs-dir DIR] [--workers N] [--force]\n  \
    midas cache ls [--jobs-dir DIR]\n  \
    midas cache gc [--all] [--jobs-dir DIR]";

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(parse_options(&args[1..])?),
        Some("batch") => cmd_batch(parse_options(&args[1..])?),
        Some("cache") => cmd_cache(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn load_spec(path: &str, deadline_override: Option<u64>) -> Result<JobSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = JobSpec::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if let Some(deadline_ms) = deadline_override {
        spec.deadline_ms = Some(deadline_ms);
    }
    Ok(spec)
}

/// Starts the job pool once both worker knobs parse: a mistyped
/// `MIDAS_SVC_WORKERS` or `MIDAS_THREADS` exits 2 here, before any job
/// runs, instead of falling back to a default or failing every job.
fn start_pool(jobs_dir: Option<PathBuf>, workers: Option<usize>) -> Result<JobQueue, String> {
    let workers = resolve_workers(workers)?;
    midas::runner::threads_from_env()?;
    JobQueue::new(cache::resolve_jobs_dir(jobs_dir), workers)
        .map_err(|e| format!("starting pool: {e}"))
}

fn cmd_run(opts: Options) -> Result<ExitCode, String> {
    let [path] = opts.positional.as_slice() else {
        return Err(format!("run needs exactly one spec file\n{USAGE}"));
    };
    let spec = match load_spec(path, opts.deadline_ms) {
        Ok(spec) => spec,
        Err(message) => {
            eprintln!("midas: {message}");
            return Ok(ExitCode::from(3));
        }
    };
    let queue = start_pool(opts.jobs_dir, opts.workers)?;
    let job = queue
        .submit_with(spec, opts.force)
        .map_err(|e| format!("submitting job: {e}"))?;
    let outcome = job.wait();
    queue.drain();

    let dir = job.dir().display();
    match &outcome {
        JobOutcome::Done { cache_hit, wall_ms } => {
            if *cache_hit {
                println!(
                    "{}  done (cache hit, fresh run took {wall_ms} ms)",
                    job.id()
                );
            } else {
                println!("{}  done in {wall_ms} ms", job.id());
            }
            println!("  spec:    {dir}/spec.json");
            println!("  status:  {dir}/status.json");
            if job.spec().is_session_driven() {
                println!("  rounds:  {dir}/rounds.jsonl");
            }
            println!("  result:  {dir}/result.json");
            let output = read_output(job.dir())?;
            for (label, value) in summarize(&output) {
                println!("  {label:<32} {value:.6}");
            }
            if let Some(figure_dir) = &opts.figure_dir {
                let path = write_figure(figure_dir, &job, &output)?;
                println!("  figure:  {}", path.display());
            }
            Ok(ExitCode::SUCCESS)
        }
        JobOutcome::Failed { error } => {
            eprintln!("{}  failed: {error}  (status: {dir}/status.json)", job.id());
            Ok(ExitCode::from(4))
        }
        JobOutcome::Cancelled => {
            eprintln!("{}  cancelled", job.id());
            Ok(ExitCode::from(4))
        }
        JobOutcome::TimedOut => {
            eprintln!("{}  timeout  (status: {dir}/status.json)", job.id());
            Ok(ExitCode::from(4))
        }
    }
}

/// Reads back the typed output the runner wrote — the CLI summary
/// re-derives from the file so what it prints is what is cached (a cache
/// hit has no in-memory output at all).
fn read_output(dir: &std::path::Path) -> Result<midas::sim::ExperimentOutput, String> {
    let text = std::fs::read_to_string(dir.join("result.json"))
        .map_err(|e| format!("reading result.json: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("result.json: {e}"))?;
    decode_output(&json).ok_or_else(|| "result.json has an unknown shape".to_string())
}

/// Writes `<figure-dir>/<kind>.json`: the job's identity plus summary rows
/// — the service-side counterpart of the bench figure sinks.
fn write_figure(
    figure_dir: &std::path::Path,
    job: &midas_svc::pool::Job,
    output: &midas::sim::ExperimentOutput,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(figure_dir).map_err(|e| format!("creating figure dir: {e}"))?;
    let spec = job.spec();
    let summary = Json::Obj(
        summarize(output)
            .into_iter()
            .map(|(label, value)| (label, Json::Num(value)))
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("figure".into(), Json::Str(spec.experiment.name().into())),
        ("job_id".into(), Json::Str(job.id().into())),
        ("seed".into(), Json::UInt(spec.seed)),
        ("summary".into(), summary),
    ]);
    let path = figure_dir.join(format!("{}.json", spec.experiment.name()));
    std::fs::write(&path, doc.write_pretty() + "\n").map_err(|e| format!("writing figure: {e}"))?;
    Ok(path)
}

fn cmd_batch(opts: Options) -> Result<ExitCode, String> {
    let [dir] = opts.positional.as_slice() else {
        return Err(format!("batch needs exactly one spec directory\n{USAGE}"));
    };
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no .json spec files"));
    }

    // Parse everything first: one bad spec fails the batch before any
    // compute is spent.
    let mut specs = Vec::new();
    let mut bad = 0;
    for path in &paths {
        match load_spec(&path.display().to_string(), opts.deadline_ms) {
            Ok(spec) => specs.push((path.clone(), spec)),
            Err(message) => {
                eprintln!("midas: {message}");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        return Ok(ExitCode::from(3));
    }

    let queue = start_pool(opts.jobs_dir, opts.workers)?;
    let jobs: Vec<_> = specs
        .into_iter()
        .map(|(path, spec)| {
            queue
                .submit_with(spec, opts.force)
                .map(|job| (path, job))
                .map_err(|e| format!("submitting job: {e}"))
        })
        .collect::<Result<_, _>>()?;

    let mut failures = 0;
    for (path, job) in &jobs {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let name = name.unwrap_or_else(|| path.display().to_string());
        match job.wait() {
            JobOutcome::Done { cache_hit, wall_ms } => println!(
                "{name:<32} {} done{} ({wall_ms} ms)",
                job.id(),
                if cache_hit { " [cache]" } else { "" },
            ),
            JobOutcome::Failed { error } => {
                println!("{name:<32} {} failed: {error}", job.id());
                failures += 1;
            }
            JobOutcome::Cancelled => {
                println!("{name:<32} {} cancelled", job.id());
                failures += 1;
            }
            JobOutcome::TimedOut => {
                println!("{name:<32} {} timeout", job.id());
                failures += 1;
            }
        }
    }
    queue.drain();
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(4)
    })
}

fn cmd_cache(args: &[String]) -> Result<ExitCode, String> {
    let (sub, rest) = args
        .split_first()
        .ok_or_else(|| format!("cache needs a subcommand (ls, gc)\n{USAGE}"))?;
    let opts = parse_options(rest)?;
    if !opts.positional.is_empty() {
        return Err(format!(
            "cache {sub} takes no positional arguments\n{USAGE}"
        ));
    }
    let jobs_dir = cache::resolve_jobs_dir(opts.jobs_dir);
    match sub.as_str() {
        "ls" => {
            let entries = cache::ls(&jobs_dir).map_err(|e| format!("listing cache: {e}"))?;
            if entries.is_empty() {
                println!("cache at {} is empty", jobs_dir.display());
                return Ok(ExitCode::SUCCESS);
            }
            println!(
                "{:<18} {:<28} {:<10} {:>9} {:>5} {:>10}",
                "id", "experiment", "state", "wall_ms", "hits", "bytes"
            );
            for entry in entries {
                println!(
                    "{:<18} {:<28} {:<10} {:>9} {:>5} {:>10}",
                    entry.id,
                    entry.kind,
                    entry
                        .state
                        .map(|s| s.as_str().to_string())
                        .unwrap_or_else(|| "?".into()),
                    entry
                        .wall_ms
                        .map(|w| w.to_string())
                        .unwrap_or_else(|| "-".into()),
                    entry.hits,
                    entry.bytes,
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let report =
                cache::gc(&jobs_dir, opts.all).map_err(|e| format!("collecting cache: {e}"))?;
            println!(
                "removed {} job dir(s), kept {}, freed {} bytes",
                report.removed, report.kept, report.bytes_freed
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown cache subcommand {other:?}\n{USAGE}")),
    }
}
