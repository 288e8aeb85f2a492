//! The job executor: runs one [`JobSpec`] to completion inside a job
//! directory, streaming session-driven experiments into `rounds.jsonl` and
//! writing the typed output as `result.json`.
//!
//! ## Byte identity
//!
//! `result.json` is **byte-identical** to encoding the in-process
//! [`ExperimentSpec::run`] output, because session-driven jobs run the
//! spec's own recipe ([`ExperimentSpec::session_builder`] +
//! [`ExperimentSpec::run_session`]) with the job's knobs applied, and each
//! simulation streams through [`Accumulate`] — which rebuilds the legacy
//! result bit for bit — while a [`JsonlObserver`] tees the same rounds to
//! disk.  The integration tests pin this equivalence, static and with
//! dynamics.  `encode_output` and [`decode_output`] own the `result.json`
//! format.
//!
//! [`ExperimentSpec::run`]: midas::sim::ExperimentSpec::run
//! [`ExperimentSpec::session_builder`]: midas::sim::ExperimentSpec::session_builder
//! [`ExperimentSpec::run_session`]: midas::sim::ExperimentSpec::run_session
//!
//! ## Cancellation
//!
//! Cooperative, at *round* granularity: every simulation checks the
//! [`CancelToken`] before it starts, and a `DeadlineProbe` observer rides
//! in each simulation's observer tee, polling the token after every round
//! through [`Observer::stop_requested`] — so even a 1-trial, many-round
//! job stops within one round of the deadline instead of running its trial
//! to completion.  The direct (non-session) experiments check once up
//! front — they run a single library call with no interior yield points.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;
use crate::observer::{JsonlObserver, JsonlSink};
use crate::spec::JobSpec;
use midas::experiment::{CalibrationCell, EnterpriseScalingSeries, SmartPrecodingSeries};
use midas::sim::{
    Accumulate, ExperimentOutput, LoadGainRow, MacKind, Observer, PairedSamples, PhysicalConfig,
    RoundRecord, SessionBuilder, SessionSeries, SessionTrial, Tee,
};
use midas_net::coverage::DeadzoneComparison;
use midas_net::hidden_terminal::HiddenTerminalComparison;
use midas_net::simulator::TopologyResult;

/// Why a run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The deadline installed by [`CancelToken::set_deadline`] elapsed.
    DeadlineExceeded,
}

/// A shared cooperative-cancellation handle.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

#[derive(Default)]
struct TokenInner {
    cancelled: AtomicBool,
    deadline: Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A token that never fires until asked to.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; checkpoints observe it on their next check.
    // lint: allow(unreachable-pub) — service.rs::pre_cancelled_token_stops_the_run_before_any_result cancels through it
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Installs (or replaces) the wall-clock deadline.
    pub fn set_deadline(&self, deadline: Instant) {
        *self.inner.deadline.lock().expect("deadline lock") = Some(deadline);
    }

    /// Whether the run should stop, and why.  Explicit cancellation wins
    /// over an elapsed deadline.
    fn stop_reason(&self) -> Option<StopReason> {
        if self.inner.cancelled.load(Ordering::SeqCst) {
            return Some(StopReason::Cancelled);
        }
        let deadline = *self.inner.deadline.lock().expect("deadline lock");
        match deadline {
            // lint: allow(wall-clock) — deadline check: decides *whether* the job keeps
            // running, never what a completed result contains (timeouts produce no result.json).
            Some(d) if Instant::now() >= d => Some(StopReason::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A failed run.
#[derive(Debug)]
pub enum RunError {
    /// Stopped early by cancellation or deadline.
    Stopped(StopReason),
    /// Filesystem trouble in the job directory.
    Io(io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Stopped(StopReason::Cancelled) => write!(f, "cancelled"),
            RunError::Stopped(StopReason::DeadlineExceeded) => write!(f, "deadline exceeded"),
            RunError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Io(e)
    }
}

/// Runs the job inside `job_dir`: session-driven experiments stream
/// `rounds.jsonl`, every successful run writes `result.json`, and the
/// typed output is returned for summarising.
pub fn run_job(
    spec: &JobSpec,
    job_dir: &Path,
    token: &CancelToken,
) -> Result<ExperimentOutput, RunError> {
    fs::create_dir_all(job_dir)?;
    let output = match spec.experiment.session_builder() {
        Some(builder) => {
            let sink = JsonlSink::create(&job_dir.join("rounds.jsonl"))?;
            let output = spec.experiment.run_session(
                apply_knobs(builder, spec),
                spec.seed,
                &|trial: &SessionTrial<'_>, mac| observe(trial, mac, &sink, token),
            );
            sink.finish()?;
            output
        }
        None => {
            // Single library call — cancellation is checked at the only
            // yield point there is.
            if let Some(reason) = token.stop_reason() {
                return Err(RunError::Stopped(reason));
            }
            Some(spec.experiment.run(spec.seed))
        }
    };
    if let Some(reason) = token.stop_reason() {
        return Err(RunError::Stopped(reason));
    }
    let output = output.expect("a run stops early only once the token fires");
    write_result(job_dir, &output)?;
    Ok(output)
}

/// Applies the spec's session knobs onto a figure-pinned builder.
fn apply_knobs(builder: SessionBuilder, spec: &JobSpec) -> SessionBuilder {
    let mut builder = builder
        .traffic(spec.traffic)
        .stage_profiling(spec.stage_profiling);
    if let Some(interval) = spec.coherence_interval_rounds {
        builder = builder.coherence_interval_rounds(interval);
    }
    if let Some(threads) = spec.threads {
        builder = builder.threads(threads);
    }
    if let Some(dynamics) = spec.dynamics {
        builder = builder.dynamics(dynamics);
    }
    builder
}

/// A passive observer that asks the simulator to stop as soon as its
/// [`CancelToken`] fires — the round-granular half of job cancellation.
/// It records nothing, so teeing it alongside the result observers leaves
/// every completed run byte-identical.
struct DeadlineProbe<'a> {
    token: &'a CancelToken,
}

impl Observer for DeadlineProbe<'_> {
    fn on_round(&mut self, _record: &RoundRecord<'_>) {}

    fn stop_requested(&mut self) -> bool {
        self.token.stop_reason().is_some()
    }
}

/// Runs one MAC of one trial, teeing rounds into the JSONL sink while
/// accumulating the bit-exact [`TopologyResult`].  A [`DeadlineProbe`]
/// rides along so a fired token stops mid-trial, after the current round;
/// `None` means the token fired and the result is incomplete.
fn observe(
    trial: &SessionTrial<'_>,
    mac: MacKind,
    sink: &JsonlSink,
    token: &CancelToken,
) -> Option<TopologyResult> {
    if token.stop_reason().is_some() {
        return None;
    }
    let label = match mac {
        MacKind::Cas => "cas",
        MacKind::Midas => "midas",
    };
    let mut acc = Accumulate::new();
    let mut log = JsonlObserver::new(sink, trial.index(), label);
    let mut probe = DeadlineProbe { token };
    trial.observe(mac, &mut Tee::new(vec![&mut acc, &mut log, &mut probe]));
    token.stop_reason().is_none().then(|| acc.into_result())
}

/// Writes `result.json` atomically (tmp + rename): the compact encoding of
/// the typed output plus a trailing newline.
fn write_result(job_dir: &Path, output: &ExperimentOutput) -> io::Result<()> {
    let tmp = job_dir.join("result.json.tmp");
    fs::write(&tmp, result_bytes(output))?;
    fs::rename(&tmp, job_dir.join("result.json"))
}

/// The exact bytes of a `result.json` for this output — the form the cache
/// pins and the byte-identity tests compare.
pub fn result_bytes(output: &ExperimentOutput) -> String {
    encode_output(output).write_compact() + "\n"
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&x| Json::Num(x)).collect())
}

fn paired_to_json(samples: &PairedSamples) -> Json {
    Json::Obj(vec![
        ("cas".into(), f64_arr(&samples.cas)),
        ("das".into(), f64_arr(&samples.das)),
    ])
}

/// Encodes a typed experiment output as `{"kind": ..., ...series}`.
fn encode_output(output: &ExperimentOutput) -> Json {
    let kind = |name: &str| ("kind".to_string(), Json::Str(name.into()));
    match output {
        ExperimentOutput::Paired(samples) => Json::Obj(vec![
            kind("paired"),
            ("cas".into(), f64_arr(&samples.cas)),
            ("das".into(), f64_arr(&samples.das)),
        ]),
        ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
            cas_naive,
            cas_smart,
            das_naive,
            das_smart,
        }) => Json::Obj(vec![
            kind("smart_precoding"),
            ("cas_naive".into(), f64_arr(cas_naive)),
            ("cas_smart".into(), f64_arr(cas_smart)),
            ("das_naive".into(), f64_arr(das_naive)),
            ("das_smart".into(), f64_arr(das_smart)),
        ]),
        ExperimentOutput::Ratios(ratios) => {
            Json::Obj(vec![kind("ratios"), ("ratios".into(), f64_arr(ratios))])
        }
        ExperimentOutput::Deadzones(rows) => Json::Obj(vec![
            kind("deadzones"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("cas_dead".into(), Json::UInt(row.cas_dead as u64)),
                                ("das_dead".into(), Json::UInt(row.das_dead as u64)),
                                ("total_spots".into(), Json::UInt(row.total_spots as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::HiddenTerminals(rows) => Json::Obj(vec![
            kind("hidden_terminals"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("cas_spots".into(), Json::UInt(row.cas_spots as u64)),
                                ("das_spots".into(), Json::UInt(row.das_spots as u64)),
                                ("total_spots".into(), Json::UInt(row.total_spots as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::EndToEnd(series) => Json::Obj(vec![
            kind("end_to_end"),
            ("network".into(), paired_to_json(&series.network)),
            ("per_client".into(), paired_to_json(&series.per_client)),
        ]),
        ExperimentOutput::Calibration(cells) => Json::Obj(vec![
            kind("calibration"),
            (
                "cells".into(),
                Json::Arr(cells.iter().map(calibration_cell_to_json).collect()),
            ),
        ]),
        ExperimentOutput::Enterprise(series) => Json::Obj(vec![
            kind("enterprise"),
            ("cas".into(), f64_arr(&series.cas)),
            ("das".into(), f64_arr(&series.das)),
            ("cas_streams".into(), f64_arr(&series.cas_streams)),
            ("das_streams".into(), f64_arr(&series.das_streams)),
            (
                "das_per_ap_capacity".into(),
                f64_arr(&series.das_per_ap_capacity),
            ),
            ("das_per_ap_duty".into(), f64_arr(&series.das_per_ap_duty)),
            (
                "das_contention_degree".into(),
                f64_arr(&series.das_contention_degree),
            ),
        ]),
        ExperimentOutput::LoadVsGain(rows) => Json::Obj(vec![
            kind("load_vs_gain"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|row| {
                            Json::Obj(vec![
                                ("duty".into(), Json::Num(row.duty)),
                                ("cas_median".into(), Json::Num(row.cas_median)),
                                ("das_median".into(), Json::Num(row.das_median)),
                                ("gain".into(), Json::Num(row.gain)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::TagWidth(rows) => Json::Obj(vec![
            kind("tag_width"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(width, capacity)| {
                            Json::Obj(vec![
                                ("width".into(), Json::UInt(width as u64)),
                                ("mean_capacity".into(), Json::Num(capacity)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::DasRadius(rows) => Json::Obj(vec![
            kind("das_radius"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&((lo, hi), median)| {
                            Json::Obj(vec![
                                ("lo".into(), Json::Num(lo)),
                                ("hi".into(), Json::Num(hi)),
                                ("median_capacity".into(), Json::Num(median)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        ExperimentOutput::AntennaWait(rows) => Json::Obj(vec![
            kind("antenna_wait"),
            (
                "rows".into(),
                Json::Arr(
                    rows.iter()
                        .map(|&(window_us, fraction)| {
                            Json::Obj(vec![
                                ("window_us".into(), Json::UInt(window_us)),
                                ("gain_fraction".into(), Json::Num(fraction)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    }
}

fn calibration_cell_to_json(cell: &CalibrationCell) -> Json {
    Json::Obj(vec![
        (
            "cs_threshold_dbm".into(),
            Json::Num(cell.config.cs_threshold_dbm),
        ),
        (
            "capture_margin_db".into(),
            Json::Num(cell.config.capture_margin_db),
        ),
        (
            "sensing_sigma_db".into(),
            match cell.config.sensing_sigma_db {
                Some(sigma) => Json::Num(sigma),
                None => Json::Null,
            },
        ),
        (
            "cas_network_median".into(),
            Json::Num(cell.cas_network_median),
        ),
        (
            "das_network_median".into(),
            Json::Num(cell.das_network_median),
        ),
        ("network_gain".into(), Json::Num(cell.network_gain)),
        (
            "cas_client_median".into(),
            Json::Num(cell.cas_client_median),
        ),
        (
            "das_client_median".into(),
            Json::Num(cell.das_client_median),
        ),
        (
            "client_median_gain".into(),
            Json::Num(cell.client_median_gain),
        ),
        ("score".into(), Json::Num(cell.score)),
    ])
}

/// Decodes a `result.json` document back into the typed output — the
/// inverse of `encode_output`, which writes non-finite floats as `null`
/// (they decode as NaN, so re-encoding reproduces the same bytes).  `None`
/// when the document is not an encoded output.
pub fn decode_output(v: &Json) -> Option<ExperimentOutput> {
    fn num(v: &Json) -> Option<f64> {
        match v {
            Json::Null => Some(f64::NAN),
            v => v.as_f64(),
        }
    }
    fn field(v: &Json, key: &str) -> Option<f64> {
        num(v.get(key)?)
    }
    fn count(v: &Json, key: &str) -> Option<usize> {
        usize::try_from(v.get(key)?.as_u64()?).ok()
    }
    fn floats(v: &Json, key: &str) -> Option<Vec<f64>> {
        v.get(key)?.as_arr()?.iter().map(num).collect()
    }
    fn paired(v: &Json) -> Option<PairedSamples> {
        Some(PairedSamples {
            cas: floats(v, "cas")?,
            das: floats(v, "das")?,
        })
    }
    fn rows<T>(v: &Json, key: &str, row: impl Fn(&Json) -> Option<T>) -> Option<Vec<T>> {
        v.get(key)?.as_arr()?.iter().map(row).collect()
    }
    Some(match v.get("kind")?.as_str()? {
        "paired" => ExperimentOutput::Paired(paired(v)?),
        "smart_precoding" => ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
            cas_naive: floats(v, "cas_naive")?,
            cas_smart: floats(v, "cas_smart")?,
            das_naive: floats(v, "das_naive")?,
            das_smart: floats(v, "das_smart")?,
        }),
        "ratios" => ExperimentOutput::Ratios(floats(v, "ratios")?),
        "deadzones" => ExperimentOutput::Deadzones(rows(v, "rows", |row| {
            Some(DeadzoneComparison {
                cas_dead: count(row, "cas_dead")?,
                das_dead: count(row, "das_dead")?,
                total_spots: count(row, "total_spots")?,
            })
        })?),
        "hidden_terminals" => ExperimentOutput::HiddenTerminals(rows(v, "rows", |row| {
            Some(HiddenTerminalComparison {
                cas_spots: count(row, "cas_spots")?,
                das_spots: count(row, "das_spots")?,
                total_spots: count(row, "total_spots")?,
            })
        })?),
        "end_to_end" => ExperimentOutput::EndToEnd(SessionSeries {
            network: paired(v.get("network")?)?,
            per_client: paired(v.get("per_client")?)?,
        }),
        "calibration" => ExperimentOutput::Calibration(rows(v, "cells", |cell| {
            Some(CalibrationCell {
                config: PhysicalConfig {
                    cs_threshold_dbm: field(cell, "cs_threshold_dbm")?,
                    capture_margin_db: field(cell, "capture_margin_db")?,
                    sensing_sigma_db: match cell.get("sensing_sigma_db")? {
                        Json::Null => None,
                        sigma => Some(sigma.as_f64()?),
                    },
                },
                cas_network_median: field(cell, "cas_network_median")?,
                das_network_median: field(cell, "das_network_median")?,
                network_gain: field(cell, "network_gain")?,
                cas_client_median: field(cell, "cas_client_median")?,
                das_client_median: field(cell, "das_client_median")?,
                client_median_gain: field(cell, "client_median_gain")?,
                score: field(cell, "score")?,
            })
        })?),
        "enterprise" => ExperimentOutput::Enterprise(EnterpriseScalingSeries {
            cas: floats(v, "cas")?,
            das: floats(v, "das")?,
            cas_streams: floats(v, "cas_streams")?,
            das_streams: floats(v, "das_streams")?,
            das_per_ap_capacity: floats(v, "das_per_ap_capacity")?,
            das_per_ap_duty: floats(v, "das_per_ap_duty")?,
            das_contention_degree: floats(v, "das_contention_degree")?,
        }),
        "load_vs_gain" => ExperimentOutput::LoadVsGain(rows(v, "rows", |row| {
            Some(LoadGainRow {
                duty: field(row, "duty")?,
                cas_median: field(row, "cas_median")?,
                das_median: field(row, "das_median")?,
                gain: field(row, "gain")?,
            })
        })?),
        "tag_width" => ExperimentOutput::TagWidth(rows(v, "rows", |row| {
            Some((count(row, "width")?, field(row, "mean_capacity")?))
        })?),
        "das_radius" => ExperimentOutput::DasRadius(rows(v, "rows", |row| {
            Some((
                (field(row, "lo")?, field(row, "hi")?),
                field(row, "median_capacity")?,
            ))
        })?),
        "antenna_wait" => ExperimentOutput::AntennaWait(rows(v, "rows", |row| {
            Some((
                row.get("window_us")?.as_u64()?,
                field(row, "gain_fraction")?,
            ))
        })?),
        _ => return None,
    })
}

/// A compact human summary of an output, for the CLI's post-run report:
/// `(label, value)` rows.
pub fn summarize(output: &ExperimentOutput) -> Vec<(String, f64)> {
    let median = |v: &[f64]| midas_net::metrics::Cdf::new(v).median();
    match output {
        ExperimentOutput::Paired(s) => vec![
            ("cas_median".into(), median(&s.cas)),
            ("das_median".into(), median(&s.das)),
            (
                "median_gain".into(),
                midas_net::metrics::relative_gain(median(&s.das), median(&s.cas)),
            ),
        ],
        ExperimentOutput::SmartPrecoding(s) => vec![
            ("cas_naive_median".into(), median(&s.cas_naive)),
            ("cas_smart_median".into(), median(&s.cas_smart)),
            ("das_naive_median".into(), median(&s.das_naive)),
            ("das_smart_median".into(), median(&s.das_smart)),
        ],
        ExperimentOutput::Ratios(r) => vec![("ratio_median".into(), median(r))],
        ExperimentOutput::Deadzones(rows) => vec![(
            "mean_reduction".into(),
            rows.iter().map(|r| r.reduction()).sum::<f64>() / rows.len().max(1) as f64,
        )],
        ExperimentOutput::HiddenTerminals(rows) => vec![(
            "mean_reduction".into(),
            rows.iter().map(|r| r.reduction()).sum::<f64>() / rows.len().max(1) as f64,
        )],
        ExperimentOutput::EndToEnd(s) => {
            let client_gain = midas_net::metrics::relative_gain(
                median(&s.per_client.das),
                median(&s.per_client.cas),
            );
            vec![
                ("network_cas_median".into(), median(&s.network.cas)),
                ("network_das_median".into(), median(&s.network.das)),
                ("client_cas_median".into(), median(&s.per_client.cas)),
                ("client_das_median".into(), median(&s.per_client.das)),
                ("client_median_gain".into(), client_gain),
            ]
        }
        ExperimentOutput::Calibration(cells) => {
            match midas::experiment::best_calibration_cell(cells) {
                Some(best) => vec![
                    ("best_cs_threshold_dbm".into(), best.config.cs_threshold_dbm),
                    (
                        "best_capture_margin_db".into(),
                        best.config.capture_margin_db,
                    ),
                    ("best_client_median_gain".into(), best.client_median_gain),
                    ("best_score".into(), best.score),
                ],
                None => vec![],
            }
        }
        ExperimentOutput::Enterprise(s) => vec![
            ("cas_median".into(), median(&s.cas)),
            ("das_median".into(), median(&s.das)),
            ("das_streams_median".into(), median(&s.das_streams)),
            (
                "das_contention_degree_median".into(),
                median(&s.das_contention_degree),
            ),
        ],
        ExperimentOutput::LoadVsGain(rows) => rows
            .iter()
            .map(|r| (format!("duty_{}_gain", r.duty), r.gain))
            .collect(),
        ExperimentOutput::TagWidth(rows) => rows
            .iter()
            .map(|&(w, c)| (format!("width_{w}_mean_capacity"), c))
            .collect(),
        ExperimentOutput::DasRadius(rows) => rows
            .iter()
            .map(|&((lo, hi), m)| (format!("band_{lo}_{hi}_median"), m))
            .collect(),
        ExperimentOutput::AntennaWait(rows) => rows
            .iter()
            .map(|&(w, f)| (format!("window_{w}us_gain_fraction"), f))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_reports_cancellation_then_deadline() {
        let token = CancelToken::new();
        assert_eq!(token.stop_reason(), None);
        token.set_deadline(Instant::now() - std::time::Duration::from_millis(1)); // lint: allow(wall-clock) — test constructs an already-expired deadline
        assert_eq!(token.stop_reason(), Some(StopReason::DeadlineExceeded));
        token.cancel();
        assert_eq!(token.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn result_bytes_are_a_pure_function_of_the_output() {
        let output = ExperimentOutput::Paired(PairedSamples {
            cas: vec![1.5, 2.25],
            das: vec![3.0, 4.125],
        });
        let bytes = result_bytes(&output);
        assert_eq!(
            bytes,
            "{\"kind\":\"paired\",\"cas\":[1.5,2.25],\"das\":[3.0,4.125]}\n"
        );
        assert_eq!(result_bytes(&output), bytes);
    }

    #[test]
    fn decode_inverts_encode_for_every_output_kind() {
        let paired = PairedSamples {
            cas: vec![1.5, 2.0],
            das: vec![3.25, 0.0],
        };
        let cell = |sensing_sigma_db| CalibrationCell {
            config: PhysicalConfig {
                cs_threshold_dbm: -86.0,
                capture_margin_db: 10.0,
                sensing_sigma_db,
            },
            cas_network_median: 4.0,
            das_network_median: 5.5,
            network_gain: 0.375,
            cas_client_median: 0.5,
            das_client_median: 1.0,
            client_median_gain: 1.0,
            score: 0.0,
        };
        // One value of every `ExperimentOutput` variant; the idle load point
        // carries the NaN gain that `result.json` stores as `null`.
        let outputs = vec![
            ExperimentOutput::Paired(paired.clone()),
            ExperimentOutput::SmartPrecoding(SmartPrecodingSeries {
                cas_naive: vec![1.0],
                cas_smart: vec![2.0],
                das_naive: vec![3.0],
                das_smart: vec![4.5],
            }),
            ExperimentOutput::Ratios(vec![1.25, 0.5]),
            ExperimentOutput::Deadzones(vec![DeadzoneComparison {
                cas_dead: 3,
                das_dead: 1,
                total_spots: 40,
            }]),
            ExperimentOutput::HiddenTerminals(vec![HiddenTerminalComparison {
                cas_spots: 5,
                das_spots: 2,
                total_spots: 30,
            }]),
            ExperimentOutput::EndToEnd(SessionSeries {
                network: paired.clone(),
                per_client: PairedSamples {
                    cas: vec![0.125],
                    das: vec![0.25],
                },
            }),
            ExperimentOutput::Calibration(vec![cell(Some(3.0)), cell(None)]),
            ExperimentOutput::Enterprise(EnterpriseScalingSeries {
                cas: vec![1.0],
                das: vec![2.0],
                cas_streams: vec![3.0],
                das_streams: vec![4.0],
                das_per_ap_capacity: vec![0.5, 0.75],
                das_per_ap_duty: vec![0.25, 1.0],
                das_contention_degree: vec![2.5],
            }),
            ExperimentOutput::LoadVsGain(vec![
                LoadGainRow {
                    duty: 0.0,
                    cas_median: 0.0,
                    das_median: 0.0,
                    gain: f64::NAN,
                },
                LoadGainRow {
                    duty: 1.0,
                    cas_median: 2.0,
                    das_median: 3.0,
                    gain: 1.5,
                },
            ]),
            ExperimentOutput::TagWidth(vec![(1, 2.5), (2, 3.0)]),
            ExperimentOutput::DasRadius(vec![((0.2, 0.4), 5.0)]),
            ExperimentOutput::AntennaWait(vec![(0, 0.0), (34, 0.25)]),
        ];
        for output in &outputs {
            let bytes = result_bytes(output);
            let json = Json::parse(&bytes).unwrap();
            let decoded = decode_output(&json).unwrap_or_else(|| panic!("undecodable: {bytes}"));
            assert_eq!(result_bytes(&decoded), bytes);
        }
    }

    #[test]
    fn decode_rejects_documents_that_are_not_outputs() {
        for text in [
            "{}",
            "{\"kind\":\"nope\"}",
            "{\"kind\":\"ratios\",\"ratios\":[\"x\"]}",
            "{\"kind\":\"tag_width\",\"rows\":[{\"width\":1.5,\"mean_capacity\":1}]}",
        ] {
            assert!(
                decode_output(&Json::parse(text).unwrap()).is_none(),
                "{text}"
            );
        }
    }
}
