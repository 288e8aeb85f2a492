//! Round-pipeline perf snapshot — the first point of the ROADMAP's
//! `BENCH_*.json` perf trajectory.
//!
//! Times the simulator's round loop end-to-end (topology build + channel
//! realisation + `rounds` TXOP rounds, CAS and MIDAS back to back) at several
//! scales and writes `BENCH_round_pipeline.json` at the **repo root** so the
//! numbers are diffable PR-over-PR, one cell per workload:
//!
//! * `fig16_8ap` — the paper's 8-AP end-to-end workload (binary graph).
//! * `fig16_8ap_svc` — the same workload dispatched through the `midas-svc`
//!   service layer on a cache miss (spec-JSON parse, job-directory setup,
//!   streamed `rounds.jsonl`, atomic `result.json`) — the CLI-dispatch
//!   overhead cell; its median over `fig16_8ap`'s is the service tax.
//! * `enterprise_64ap` — the 64-AP / 512-client enterprise_office floor
//!   (finite interaction range, indexed lookups) — the acceptance workload.
//! * `enterprise_256ap` — a beyond-ROADMAP 256-AP / 2048-client point.
//! * `metro_1024ap` — a 1024-AP / 8192-client point, only tractable
//!   because lazy evolution never materialises the quadratic share of
//!   out-of-range fading state per boundary.
//! * `mobility_64ap` / `mobility_64ap_off` — the 64-AP workload with the
//!   long-horizon dynamics layer on (`DynamicsSpec::roaming_walk`: every
//!   client random-waypoint walking + antenna-aware roaming per round) and
//!   its dynamics-off twin, identical in every other knob — their
//!   interleaved A/B difference is the per-round cost of the dynamics
//!   stage.
//!
//! Repetitions are **interleaved round-robin across cells** (rep 1 of every
//! cell, then rep 2, …) so A/B pairs of cells (`fig16_8ap` vs
//! `fig16_8ap_svc`, the mobility pair) are timed within one binary and one
//! machine state — thermal drift and cache warm-up land evenly on both
//! sides.  Each cell reports the per-repetition wall-clock median plus a
//! 95 % normal-approximation confidence interval on the mean, following
//! the measured-claims discipline (accept a speedup only when the A/B CIs
//! do not overlap; record negative results).
//!
//! Knobs (CI smoke + quick local iterations):
//! * `MIDAS_PIPELINE_CELLS` — comma-separated cell names (default: all of
//!   the above).
//! * `MIDAS_PIPELINE_REPS` — timed repetitions per cell (default 7).
//! * `MIDAS_PIPELINE_TOPOLOGIES` — floor realisations per repetition
//!   (default 4 at 8 APs, 3 at 64 APs, 1 at 256+ APs).
//! * `MIDAS_PIPELINE_ROUNDS` — TXOP rounds per realisation (default 10).
//!
//! Profiling mode (flamegraph-friendly):
//! * `MIDAS_PIPELINE_PROFILE=<cell>` runs that registry cell's MIDAS round
//!   loop — its floor and dynamics layer — in a flat hot loop (one long
//!   simulation, no timing machinery in the way) so
//!   `perf record --call-graph dwarf` / `flamegraph` see clean stacks, and
//!   prints the per-stage wall-clock breakdown (`StageTimings`), the fading
//!   work counters (`# fading work:`), the sensing work counters and the
//!   sensing table's bytes (`# sensing work:`) and, for the `mobility_64ap`
//!   cell, the dynamics stage split by phase (`# dynamics split:`) and the
//!   dynamics work counters, roaming scores included (`# dynamics work:`);
//!   `MIDAS_PIPELINE_PROFILE_ROUNDS` (default 400) sets the round count.
//!
//! Both modes resolve names through the one cell registry; an unknown
//! cell name exits with status 2.

use midas::sim::{ExperimentSpec, SessionSeries};
use midas_bench::{env_knob, env_list, Cell, Figure, Table, BENCH_SEED};
use midas_net::capture::ContentionModel;
use midas_net::dynamics::DynamicsSpec;
use midas_net::metrics::Cdf;
use midas_net::scale::Scenario;
use midas_net::simulator::{MacKind, NetworkSimulator, StageTimings};
use midas_svc::json::Json;
use midas_svc::runner::{run_job, CancelToken};
use midas_svc::spec::JobSpec;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The Fig. 16 8-AP series (binary-graph contention) at [`BENCH_SEED`].
fn fig16_series(topologies: usize, rounds: usize) -> SessionSeries {
    let spec = ExperimentSpec::EndToEnd {
        eight_aps: true,
        topologies,
        rounds,
        contention: ContentionModel::Graph,
    };
    spec.run(BENCH_SEED).expect_end_to_end()
}

/// Every cell of the registry, in snapshot order: the default
/// `MIDAS_PIPELINE_CELLS` list and the names profile mode accepts.
const CELL_NAMES: &[&str] = &[
    "fig16_8ap",
    "fig16_8ap_svc",
    "enterprise_64ap",
    "enterprise_256ap",
    "metro_1024ap",
    "mobility_64ap",
    "mobility_64ap_off",
];

/// One timed workload of the snapshot: dimensions for the record plus the
/// closure that runs it (and returns a checksum so the optimiser cannot
/// elide the simulation).
struct PipelineCell {
    name: &'static str,
    aps: usize,
    clients: usize,
    topologies: usize,
    rounds: usize,
    /// The floor profile mode runs one long MIDAS simulation on; `None`
    /// profiles the paper-scale 8-AP series instead.
    scenario: Option<Scenario>,
    /// The dynamics layer of the cell (profile mode installs it too).
    dynamics: Option<DynamicsSpec>,
    run: Box<dyn Fn() -> f64>,
}

/// Resolves a cell name, or exits with status 2 and the known names.
fn cell_or_exit(name: &str, topologies_override: Option<usize>, rounds: usize) -> PipelineCell {
    cell_by_name(name, topologies_override, rounds).unwrap_or_else(|| {
        eprintln!(
            "unknown pipeline cell '{name}'; known cells: {}",
            CELL_NAMES.join(", ")
        );
        std::process::exit(2)
    })
}

fn cell_by_name(
    name: &str,
    topologies_override: Option<usize>,
    rounds: usize,
) -> Option<PipelineCell> {
    let fig16 = |name, default_topologies| {
        let topologies = topologies_override.unwrap_or(default_topologies).max(1);
        PipelineCell {
            name,
            aps: 8,
            clients: 32,
            topologies,
            rounds,
            scenario: None,
            dynamics: None,
            run: Box::new(move || {
                let s = fig16_series(topologies, rounds);
                s.network.cas.iter().sum::<f64>() + s.network.das.iter().sum::<f64>()
            }),
        }
    };
    let enterprise = |name, aps: usize, default_topologies| {
        let topologies = topologies_override.unwrap_or(default_topologies).max(1);
        PipelineCell {
            name,
            aps,
            clients: aps * 8,
            topologies,
            rounds,
            scenario: Some(Scenario::enterprise_office(aps)),
            dynamics: None,
            run: Box::new(move || {
                let spec = ExperimentSpec::EnterpriseScaling {
                    scenario: Scenario::enterprise_office(aps),
                    topologies,
                    rounds,
                };
                let s = spec.run(BENCH_SEED).expect_enterprise();
                s.cas.iter().sum::<f64>() + s.das.iter().sum::<f64>()
            }),
        }
    };
    // The fig16_8ap workload dispatched through the service layer on a
    // forced cache miss: spec-JSON parse, job-dir creation, streamed
    // rounds.jsonl and atomic result.json all land inside the timed window,
    // so (fig16_8ap_svc − fig16_8ap) is the whole CLI-dispatch overhead.
    // Each repetition runs in a fresh numbered subdir (cache miss without
    // wiping anything mid-measurement — a serving system never deletes a
    // job dir per request); the scratch root is removed after sampling.
    let svc = |name, default_topologies| {
        let topologies = topologies_override.unwrap_or(default_topologies).max(1);
        PipelineCell {
            name,
            aps: 8,
            clients: 32,
            topologies,
            rounds,
            scenario: None,
            dynamics: None,
            run: Box::new(move || {
                use std::sync::atomic::{AtomicUsize, Ordering};
                static REP: AtomicUsize = AtomicUsize::new(0);
                let text = format!(
                    "{{\"experiment\":{{\"kind\":\"fig16_eight_ap_simulation\",\
                     \"topologies\":{topologies},\"rounds\":{rounds},\
                     \"contention\":{{\"model\":\"graph\"}}}},\"seed\":{BENCH_SEED}}}"
                );
                let spec = JobSpec::from_json_str(&text).expect("bench spec parses");
                let dir = svc_scratch_root().join(REP.fetch_add(1, Ordering::Relaxed).to_string());
                let output = run_job(&spec, &dir, &CancelToken::new()).expect("bench job runs");
                let s = output.expect_end_to_end();
                s.network.cas.iter().sum::<f64>() + s.network.das.iter().sum::<f64>()
            }),
        }
    };
    // The dynamics A/B pair: the 64-AP workload with the dynamics layer on
    // (roaming walkers) and its off twin.  Both run the simulator directly
    // so the only difference between the cells is `config.dynamics` — the
    // interleaved median gap is the dynamics tax.
    let mobility = |name, dynamics: Option<DynamicsSpec>, default_topologies| {
        let topologies = topologies_override.unwrap_or(default_topologies).max(1);
        PipelineCell {
            name,
            aps: 64,
            clients: 512,
            topologies,
            rounds,
            scenario: Some(Scenario::enterprise_office(64)),
            dynamics,
            run: Box::new(move || {
                let scenario = Scenario::enterprise_office(64);
                let mut sum = 0.0;
                for t in 0..topologies {
                    let seed = BENCH_SEED.wrapping_add(t as u64);
                    let pair = scenario.build(seed).expect("floor fits the grid");
                    for (mac, topo) in [(MacKind::Cas, pair.cas), (MacKind::Midas, pair.das)] {
                        let mut config = scenario.sim_config(mac, rounds, seed);
                        config.dynamics = dynamics;
                        sum += NetworkSimulator::new(topo, config).run().mean_capacity();
                    }
                }
                sum
            }),
        }
    };
    match name {
        "fig16_8ap" => Some(fig16("fig16_8ap", 4)),
        "fig16_8ap_svc" => Some(svc("fig16_8ap_svc", 4)),
        "enterprise_64ap" => Some(enterprise("enterprise_64ap", 64, 3)),
        "enterprise_256ap" => Some(enterprise("enterprise_256ap", 256, 1)),
        "metro_1024ap" => Some(enterprise("metro_1024ap", 1024, 1)),
        "mobility_64ap" => Some(mobility(
            "mobility_64ap",
            Some(DynamicsSpec::roaming_walk(1.4)),
            3,
        )),
        "mobility_64ap_off" => Some(mobility("mobility_64ap_off", None, 3)),
        _ => None,
    }
}

/// Simulated TXOP rounds per repetition: CAS + MIDAS per realisation.
fn sim_rounds(cell: &PipelineCell) -> usize {
    2 * cell.topologies * cell.rounds
}

/// Scratch root for the service-dispatch cell's job directories, unique per
/// bench process; wiped once after sampling.
fn svc_scratch_root() -> PathBuf {
    std::env::temp_dir().join(format!("midas-bench-svc-{}", std::process::id()))
}

/// The repo root, resolved like the default figure directory is —
/// from this crate's manifest path, so the snapshot lands at the workspace
/// root no matter where `cargo bench` chdirs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the workspace root")
        .to_path_buf()
}

/// The trimmed stdout of `command`, or `None` when it cannot run or fails.
fn stdout_of(command: &mut Command) -> Option<String> {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The revision of the checkout when it is a git work tree, with `-dirty`
/// when a tracked file differs from it: the snapshot header names the code
/// it measured.
fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| stdout_of(Command::new("git").current_dir(root).args(args));
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(rev), Some(changes)) if changes.is_empty() => rev,
        (Some(rev), Some(_)) => format!("{rev}-dirty"),
        _ => "unknown (not a git work tree)".into(),
    }
}

/// `rustc -V` of the toolchain on the path, or `unknown`.
fn rustc_version() -> String {
    stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into())
}

struct CellStats {
    median_s: f64,
    mean_s: f64,
    sd_s: f64,
    ci95_lo_s: f64,
    ci95_hi_s: f64,
}

fn stats(samples: &[f64]) -> CellStats {
    let n = samples.len() as f64;
    let cdf = Cdf::new(samples);
    let mean = cdf.mean();
    let var = if samples.len() > 1 {
        samples
            .iter()
            .map(|&s| (s - mean) * (s - mean))
            .sum::<f64>()
            / (n - 1.0)
    } else {
        0.0
    };
    let sd = var.sqrt();
    let half = 1.96 * sd / n.sqrt();
    CellStats {
        median_s: cdf.median(),
        mean_s: mean,
        sd_s: sd,
        ci95_lo_s: mean - half,
        ci95_hi_s: mean + half,
    }
}

fn print_stage_breakdown(timings: &StageTimings) {
    let total = timings.total_s();
    if timings.rounds == 0 || total <= 0.0 {
        return;
    }
    let line = timings
        .stages()
        .iter()
        .map(|(stage, s)| format!("{stage} {s:.3} s ({:.1} %)", 100.0 * s / total))
        .collect::<Vec<_>>()
        .join(", ");
    println!("# stages over {} rounds: {line}", timings.rounds);
    let parts = timings.dynamics_parts();
    if parts.iter().any(|&(_, s)| s > 0.0) {
        let parts = parts
            .iter()
            .map(|(part, s)| format!("{part} {s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("# dynamics split: {parts}");
    }
}

/// Flat MIDAS hot loop for profilers: one long simulation of the named
/// registry cell (its floor and dynamics), no timers in the round path
/// (stage timings accumulate coarse per-stage `Instant` reads, cheap next
/// to a 64-AP round).  An unknown cell name exits non-zero.
fn profile(cell_name: &str, rounds: usize) {
    let cell = cell_or_exit(cell_name, Some(1), rounds);
    match cell.scenario {
        Some(scenario) => {
            let pair = scenario.build(BENCH_SEED).expect("floor fits the grid");
            let mut config = scenario.sim_config(MacKind::Midas, rounds, BENCH_SEED);
            config.rounds = rounds;
            config.dynamics = cell.dynamics;
            let mut sim = NetworkSimulator::new(pair.das, config).with_stage_profiling();
            let result = sim.run();
            println!(
                "# profile {cell_name}: {rounds} rounds, mean capacity {:.3} bit/s/Hz",
                result.mean_capacity()
            );
            print_stage_breakdown(&sim.stage_timings());
            let f = sim.fading_counters();
            println!(
                "# fading work: {} rows caught up, {} Gaussian pairs",
                f.rows_caught_up, f.gaussian_pairs
            );
            let s = sim.sensing_counters();
            println!(
                "# sensing work: {} rows built, {} powers evaluated, {} pushes, {} decisions, \
                 table {} bytes",
                s.rows_built,
                s.powers_evaluated,
                s.pushes,
                s.decisions,
                sim.sensing_heap_footprint_bytes()
            );
            if let Some(c) = sim.dynamics_counters() {
                println!(
                    "# dynamics work: {} rows refreshed, {} born, {} freed, {} shadowing \
                     redraws, {} membership + {} roaming re-queries, {} roaming scores",
                    c.rows_refreshed,
                    c.rows_born,
                    c.rows_freed,
                    c.shadow_redraws,
                    c.membership_requeries,
                    c.roaming_requeries,
                    c.roaming_scores
                );
            }
        }
        None => {
            // The paper-scale cells: the 8-AP workload through the series
            // runner, rounds stretched for a long loop.
            let s = fig16_series(1, rounds);
            let checksum = s.network.cas.iter().sum::<f64>() + s.network.das.iter().sum::<f64>();
            println!("# profile {cell_name}: {rounds} rounds, checksum {checksum:.3}");
        }
    }
}

fn main() {
    if let Some(cell) = env_knob::<String>("MIDAS_PIPELINE_PROFILE") {
        let rounds = env_knob("MIDAS_PIPELINE_PROFILE_ROUNDS")
            .unwrap_or(400)
            .max(1);
        profile(&cell, rounds);
        return;
    }

    let names: Vec<String> = env_list("MIDAS_PIPELINE_CELLS", &CELL_NAMES.join(","));
    let reps = env_knob("MIDAS_PIPELINE_REPS").unwrap_or(7).max(1);
    let topologies_override = env_knob("MIDAS_PIPELINE_TOPOLOGIES");
    let rounds = env_knob("MIDAS_PIPELINE_ROUNDS").unwrap_or(10).max(1);

    let cells: Vec<PipelineCell> = names
        .iter()
        .map(|name| cell_or_exit(name, topologies_override, rounds))
        .collect();

    // One untimed warm-up per cell keeps one-time costs (page-in, lazy
    // init) out of the repetition samples.
    let mut sinks: Vec<f64> = cells.iter().map(|cell| (cell.run)()).collect();

    // Interleave: rep 1 of every cell, then rep 2, … so A/B pairs of the
    // same workload see the same machine state drift.
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); cells.len()];
    for _ in 0..reps {
        for (i, cell) in cells.iter().enumerate() {
            let start = Instant::now(); // lint: allow(wall-clock) — bench repetition timing: the quantity being measured
            sinks[i] += (cell.run)();
            samples[i].push(start.elapsed().as_secs_f64());
        }
    }

    let mut fig = Figure::new("round_pipeline").with_seed(BENCH_SEED);
    let mut table = Table::new(
        "pipeline",
        &[
            "cell",
            "aps",
            "clients",
            "topologies",
            "rounds",
            "reps",
            "median_s",
            "mean_s",
            "sd_s",
            "ci95_lo_s",
            "ci95_hi_s",
            "sim_rounds_per_s",
        ],
    );
    let mut cells_json = Vec::new();

    for (cell, (cell_samples, sink)) in cells.iter().zip(samples.iter().zip(&sinks)) {
        let s = stats(cell_samples);
        let throughput = sim_rounds(cell) as f64 / s.median_s;
        println!(
            "# {}: median {:.3} s, mean {:.3} s (95% CI [{:.3}, {:.3}]), {:.1} sim rounds/s (checksum {sink:.1})",
            cell.name,
            s.median_s,
            s.mean_s,
            s.ci95_lo_s,
            s.ci95_hi_s,
            throughput
        );
        table.row([
            Cell::from(cell.name),
            Cell::from(cell.aps),
            Cell::from(cell.clients),
            Cell::from(cell.topologies),
            Cell::from(cell.rounds),
            Cell::from(reps),
            Cell::from(s.median_s),
            Cell::from(s.mean_s),
            Cell::from(s.sd_s),
            Cell::from(s.ci95_lo_s),
            Cell::from(s.ci95_hi_s),
            Cell::from(throughput),
        ]);
        cells_json.push(Json::Obj(vec![
            ("name".into(), Json::Str(cell.name.into())),
            ("aps".into(), Json::UInt(cell.aps as u64)),
            ("clients".into(), Json::UInt(cell.clients as u64)),
            ("topologies".into(), Json::UInt(cell.topologies as u64)),
            ("rounds".into(), Json::UInt(cell.rounds as u64)),
            ("reps".into(), Json::UInt(reps as u64)),
            ("median_s".into(), Json::Num(s.median_s)),
            ("mean_s".into(), Json::Num(s.mean_s)),
            ("sd_s".into(), Json::Num(s.sd_s)),
            ("ci95_lo_s".into(), Json::Num(s.ci95_lo_s)),
            ("ci95_hi_s".into(), Json::Num(s.ci95_hi_s)),
            ("sim_rounds_per_s".into(), Json::Num(throughput)),
        ]));
    }

    std::fs::remove_dir_all(svc_scratch_root()).ok();

    // Service-dispatch overhead: same workload, in-process vs through the
    // svc layer on a cache miss, A/B within this interleaved run.
    let median_of = |name: &str| {
        cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| stats(&samples[i]).median_s)
    };
    if let (Some(direct), Some(svc)) = (median_of("fig16_8ap"), median_of("fig16_8ap_svc")) {
        let overhead_pct = 100.0 * (svc - direct) / direct;
        println!(
            "# service dispatch overhead at fig16_8ap scale: {svc:.3} s vs {direct:.3} s \
             in-process ({overhead_pct:+.1} %)"
        );
    }

    // Dynamics-stage overhead: the 64-AP workload with roaming walkers vs
    // its dynamics-off twin, A/B within this interleaved run.
    if let (Some(on), Some(off)) = (median_of("mobility_64ap"), median_of("mobility_64ap_off")) {
        let cell = cells
            .iter()
            .find(|c| c.name == "mobility_64ap")
            .expect("cell exists when its median does");
        let per_round_us = 1e6 * (on - off) / sim_rounds(cell) as f64;
        println!(
            "# dynamics overhead at mobility_64ap scale: {on:.3} s vs {off:.3} s static \
             ({:+.1} %, {per_round_us:+.0} us/round)",
            100.0 * (on - off) / off
        );
    }

    fig.note(
        "perf snapshot: wall-clock per repetition of the full round-loop workload \
         (topology build + channel realisation + CAS and MIDAS simulations)",
    );
    fig.note(
        "measured-claims discipline: repetitions interleave round-robin across cells \
         (same-binary A/B); compare medians only when the 95% CIs do not overlap; \
         BENCH_round_pipeline.json at the repo root is the diffable record",
    );
    fig.table(table);

    // The header names the machine and the code, as perfbench's does.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let snapshot = Json::Obj(vec![
        ("bench".into(), Json::Str("round_pipeline".into())),
        ("seed".into(), Json::UInt(BENCH_SEED)),
        ("git_rev".into(), Json::Str(git_rev(&repo_root()))),
        ("nproc".into(), Json::UInt(nproc as u64)),
        ("rustc".into(), Json::Str(rustc_version())),
        ("cells".into(), Json::Arr(cells_json)),
    ])
    .write_compact()
        + "\n";
    let path = repo_root().join("BENCH_round_pipeline.json");
    match std::fs::write(&path, &snapshot) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("# failed to write {}: {e}", path.display()),
    }

    fig.emit();
}
