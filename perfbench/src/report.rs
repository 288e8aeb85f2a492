//! Metric tables, the statistics behind them, and the result line.

use crate::sim::SimTally;
use crate::svc::SvcTally;
use crate::trace::{self_times, Span};
use crate::Rep;

/// A measured metric: name, value, and how it was taken.
pub type Metric = (&'static str, f64, String);

/// End-to-end metrics, reported by `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_rounds_per_s", "rounds/s"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by `--trace 1`: `(name, unit)`.  The
/// `self_s.*` rows are the self time of the span of the same name.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("svc.job_ms_p50", "ms"),
    ("svc.job_ms_p99", "ms"),
    ("svc.cache_hit_ms_p50", "ms"),
    ("svc.cache_hit_ms_p99", "ms"),
    ("svc.decode_us", "us"),
    ("svc.cache_key_us", "us"),
    ("svc.sha256_mb_per_s", "MB/s"),
    ("svc.sha256_bytes", "bytes"),
    ("svc.dispatch_ms", "ms"),
    ("svc.hit_ratio", "ratio"),
    ("svc.rounds_jsonl_bytes", "bytes"),
    ("svc.result_bytes", "bytes"),
    ("svc.json_parse_mb_per_s", "MB/s"),
    ("svc.json_parse_bytes", "bytes"),
    ("core.trial_build_s", "s"),
    ("core.sweep_efficiency", "ratio"),
    ("net.setup_s", "s"),
    ("net.workspace_bytes", "bytes"),
    ("net.dynamics_us", "us"),
    ("net.evolve_us", "us"),
    ("net.sense_us", "us"),
    ("net.select_us", "us"),
    ("net.precode_us", "us"),
    ("net.evaluate_us", "us"),
    ("net.settle_us", "us"),
    ("net.round_ms_p50", "ms"),
    ("net.round_ms_p99", "ms"),
    ("net.rounds", "count"),
    ("net.streams_per_round", "count"),
    ("net.tx_aps_per_round", "count"),
    ("net.dynamics_moves", "count"),
    ("net.dynamics_handoffs", "count"),
    ("net.dynamics_heap_bytes", "bytes"),
    ("scale.index_query_ns", "ns"),
    ("scale.index_queries", "count"),
    ("scale.neighbors_per_query", "count"),
    ("channel.realize_ns_per_link", "ns"),
    ("channel.realize_links", "count"),
    ("channel.refresh_ns_per_row", "ns"),
    ("channel.refresh_rows", "count"),
    ("channel.gauss_ns_per_pair", "ns"),
    ("channel.gauss_pairs", "count"),
    ("channel.gauss_bytes", "bytes"),
    ("mac.tag_build_us", "us"),
    ("mac.tag_builds", "count"),
    ("phy.precode_us", "us"),
    ("phy.precode_calls", "count"),
    ("phy.precode_matrix_entries", "count"),
    ("phy.sinr_ns", "ns"),
    ("phy.sinr_calls", "count"),
    ("self_s.bench.rep", "s"),
    ("self_s.core.sweep", "s"),
    ("self_s.core.trial", "s"),
    ("self_s.core.trial_build", "s"),
    ("self_s.net.setup", "s"),
    ("self_s.net.rounds", "s"),
    ("self_s.svc.decode", "s"),
    ("self_s.svc.cache_key", "s"),
    ("self_s.svc.job", "s"),
    ("self_s.svc.hit", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.sim_overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("tracing_overhead_frac", "ratio"),
];

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile (`q` in [0, 1]); NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn min(values: impl Iterator<Item = f64>) -> f64 {
    values.filter(|v| v.is_finite()).fold(f64::NAN, f64::min)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

/// The end-to-end metrics of untraced repetitions.
///
/// On a shared host other load only ever adds time, in episodes seconds to
/// minutes long, so a per-run median drifts with the neighbours' load.
/// Each timing is therefore taken from the repetition where it was best
/// (the least-disturbed measurement of the same deterministic work);
/// set-up time is the median over repetitions.
pub fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let n = reps.len();
    let rate = reps
        .iter()
        .filter(|r| r.sim.loop_s > 0.0)
        .map(|r| r.sim.rounds as f64 / r.sim.loop_s)
        .fold(f64::NAN, f64::max);
    let setups: Vec<f64> = reps.iter().map(|r| r.sim.setup_s()).collect();
    let misses: usize = reps.iter().map(|r| r.svc.miss_ms.len()).sum();
    vec![
        ("sim_rounds_per_s", rate, format!("best of {n} repetitions")),
        (
            "setup_s",
            median(&setups),
            format!("median of {n} repetitions"),
        ),
        (
            "wall_s",
            min(reps.iter().map(|r| r.svc.wall_s)),
            format!("best of {n} repetitions"),
        ),
        (
            "job_ms_p50",
            min(reps.iter().map(|r| median(&r.svc.miss_ms))),
            format!("best repetition median, {misses} misses"),
        ),
        ("peak_rss_mb", peak_rss_mb(), "VmHWM".into()),
    ]
}

/// The per-layer metrics of a traced run; `untraced` are the untraced
/// repetitions of the same specs interleaved with the traced ones.
pub fn per_layer(
    untraced: &[Rep],
    traced: &[Rep],
    kernels: Vec<(&'static str, f64)>,
    spans: &[Span],
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let pool = |reps: &[Rep], f: fn(&SvcTally) -> &Vec<f64>| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| f(&r.svc).iter().copied())
            .collect()
    };
    let mut sim = SimTally::default();
    for r in traced {
        sim.absorb(r.sim.clone());
    }
    let per_rep = |f: fn(&SimTally) -> f64| -> f64 {
        median(&traced.iter().map(|r| f(&r.sim)).collect::<Vec<_>>())
    };
    let sum_svc = |f: fn(&SvcTally) -> f64| -> f64 { traced.iter().map(|r| f(&r.svc)).sum() };
    let rounds = sim.rounds.max(1) as f64;
    let stage_us = |s: f64| s / rounds * 1e6;
    let misses = pool(untraced, |s| &s.miss_ms);
    let hits = pool(untraced, |s| &s.hit_ms);
    let span_total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    };
    let wall = |reps: &[Rep]| median(&reps.iter().map(|r| r.svc.wall_s).collect::<Vec<_>>());
    let sweep = |reps: &[Rep]| median(&reps.iter().map(|r| r.sim.sweep_s).collect::<Vec<_>>());
    let st = sim.stages;
    let untraced_note =
        |what: &str, v: &[f64]| format!("{} {what} of untraced repetitions", v.len());
    let mut out: Vec<Metric> = vec![
        (
            "svc.job_ms_p50",
            median(&misses),
            untraced_note("misses", &misses),
        ),
        (
            "svc.job_ms_p99",
            percentile(&misses, 0.99),
            untraced_note("misses", &misses),
        ),
        (
            "svc.cache_hit_ms_p50",
            median(&hits),
            untraced_note("hits", &hits),
        ),
        (
            "svc.cache_hit_ms_p99",
            percentile(&hits, 0.99),
            untraced_note("hits", &hits),
        ),
        (
            "svc.decode_us",
            median(&pool(traced, |s| &s.decode_us)),
            "median per call".into(),
        ),
        (
            "svc.cache_key_us",
            median(&pool(traced, |s| &s.cache_key_us)),
            "median per call".into(),
        ),
        (
            "svc.sha256_mb_per_s",
            sum_svc(|s| s.sha256_bytes as f64) / sum_svc(|s| s.sha256_s) / 1e6,
            "result.json + rounds.jsonl".into(),
        ),
        (
            "svc.sha256_bytes",
            sum_svc(|s| s.sha256_bytes as f64),
            "hashed".into(),
        ),
        (
            "svc.dispatch_ms",
            median(&pool(traced, |s| &s.dispatch_ms)),
            "miss turnaround - status wall_ms".into(),
        ),
        (
            "svc.hit_ratio",
            hits.len() as f64 / (hits.len() + misses.len()).max(1) as f64,
            "hits / submissions".into(),
        ),
        (
            "svc.rounds_jsonl_bytes",
            median(&pool(traced, |s| &s.rounds_jsonl_bytes)),
            "median per job".into(),
        ),
        (
            "svc.result_bytes",
            median(&pool(traced, |s| &s.result_bytes)),
            "median per job".into(),
        ),
        (
            "svc.json_parse_mb_per_s",
            sum_svc(|s| s.json_parse_bytes as f64) / sum_svc(|s| s.json_parse_s) / 1e6,
            "rounds.jsonl lines".into(),
        ),
        (
            "svc.json_parse_bytes",
            sum_svc(|s| s.json_parse_bytes as f64),
            "parsed".into(),
        ),
        (
            "core.trial_build_s",
            per_rep(|s| s.trial_build_s),
            "median per repetition".into(),
        ),
        (
            "core.sweep_efficiency",
            sim.trial_busy_s / sim.sweep_thread_s,
            "trial busy / (sweep wall x workers)".into(),
        ),
        (
            "net.setup_s",
            per_rep(|s| s.sim_new_s),
            "median per repetition".into(),
        ),
        (
            "net.workspace_bytes",
            sim.workspace_bytes as f64,
            "max".into(),
        ),
        (
            "net.dynamics_us",
            stage_us(st.dynamics_s),
            "per simulated round".into(),
        ),
        (
            "net.evolve_us",
            stage_us(st.evolve_s),
            "per simulated round".into(),
        ),
        (
            "net.sense_us",
            stage_us(st.sense_s),
            "per simulated round".into(),
        ),
        (
            "net.select_us",
            stage_us(st.select_s),
            "per simulated round".into(),
        ),
        (
            "net.precode_us",
            stage_us(st.precode_s),
            "per simulated round".into(),
        ),
        (
            "net.evaluate_us",
            stage_us(st.evaluate_s),
            "per simulated round".into(),
        ),
        (
            "net.settle_us",
            stage_us(st.settle_s),
            "per simulated round".into(),
        ),
        (
            "net.round_ms_p50",
            median(&sim.round_ms),
            format!("{} rounds", sim.round_ms.len()),
        ),
        (
            "net.round_ms_p99",
            percentile(&sim.round_ms, 0.99),
            format!("{} rounds", sim.round_ms.len()),
        ),
        (
            "net.rounds",
            sim.rounds as f64,
            "simulated in traced repetitions".into(),
        ),
        (
            "net.streams_per_round",
            sim.streams as f64 / rounds,
            "mean".into(),
        ),
        (
            "net.tx_aps_per_round",
            sim.tx_aps as f64 / rounds,
            "mean".into(),
        ),
        (
            "net.dynamics_moves",
            per_rep(|s| s.dynamics_moves as f64),
            "median per repetition".into(),
        ),
        (
            "net.dynamics_handoffs",
            per_rep(|s| s.dynamics_handoffs as f64),
            "median per repetition".into(),
        ),
        (
            "net.dynamics_heap_bytes",
            sim.dynamics_heap_bytes as f64,
            "max".into(),
        ),
    ];
    out.extend(
        kernels
            .into_iter()
            .map(|(k, v)| (k, v, "kernel on the workload geometry".to_string())),
    );
    let selfs = self_times(spans);
    for (metric, _) in PER_LAYER {
        if let Some(name) = metric.strip_prefix("self_s.") {
            let self_s = selfs
                .iter()
                .find(|(s, _)| *s == name)
                .map_or(0.0, |row| row.1);
            out.push((metric, self_s / n, "per traced repetition".into()));
        }
    }
    let accounted = st.total_s() + sim.sim_new_s + sim.trial_build_s;
    let spanned =
        span_total("net.rounds") + span_total("net.setup") + span_total("core.trial_build");
    out.push((
        "trace.accounted_frac",
        accounted / spanned,
        "(stages + set-up + build) / their spans".into(),
    ));
    out.push((
        "trace.sim_overhead_frac",
        sweep(traced) / sweep(untraced) - 1.0,
        "session-run time, traced vs untraced".into(),
    ));
    out.push(("trace.spans", spans.len() as f64, "recorded".into()));
    out.push((
        "tracing_overhead_frac",
        wall(traced) / wall(untraced) - 1.0,
        format!(
            "median wall_s, {} traced vs {} untraced repetitions",
            traced.len(),
            untraced.len()
        ),
    ));
    out
}

/// Formats the result line in the order of `names`; every metric must be
/// present and finite.
pub fn result_line(
    names: &[(&str, &str)],
    metrics: &[Metric],
    correct: bool,
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, unit) in names {
        let (_, value, _) = metrics
            .iter()
            .find(|(m, _, _)| m == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    ))
}
