//! The on-disk experiment spec: a JSON encoding of [`ExperimentSpec`] plus
//! the [`SessionBuilder`](midas::sim::SessionBuilder) knobs a capacity-
//! planning job may turn (traffic workload, dynamics, worker threads,
//! deadline).
//!
//! Decoding is strict: unknown keys, wrong types and out-of-range knobs are
//! errors, each carrying the `$.dotted.path` of the offending field.  Every
//! field is read once, through a private field reader that names the key,
//! derives its path and applies the field's range rule; only the rules that
//! span fields wait for [`JobSpec::validate`].  The removed `engine` key
//! gets its own error: every run uses keyed fading evolution, so a spec
//! that still picks an engine is rejected rather than silently run under
//! another one.  The encoding is total — [`JobSpec::to_json`] writes every
//! field explicitly — so a written spec re-reads to the identical value.
//!
//! The content address ([`JobSpec::cache_key`]) hashes only the fields that
//! affect the result bytes: experiment, seed, traffic and dynamics.  Scheduling knobs (threads, deadline, stage profiling) are
//! excluded — the same experiment at a different worker count is the same
//! cached result, which the determinism tests guarantee.

use std::fmt;

use crate::hash::sha256_hex;
use crate::json::{Json, JsonError};
use midas::experiment::CalibrationGrid;
use midas::sim::{ContentionModel, ExperimentSpec, PhysicalConfig, TrafficKind};
use midas_channel::EnvironmentKind;
use midas_net::dynamics::{DynamicsSpec, MobilityModel, ReassociationSpec};
use midas_net::scale::{AssociationPolicy, Scenario};

/// Revision of the simulation's results, part of the cache key of every
/// spec: bump it whenever any spec's result bytes change, so an existing
/// cache never serves results of the old code as hits.
/// Revision 5: on/off traffic is keyed by the global client id, so a
/// client keeps its burst pattern through a handoff, which moves every
/// on/off result.  (Revision 4: DRR credits only the clients that were
/// backlogged.  Revision 3: a lagging channel row catches up in one
/// skip-ahead fading step, and a moved client's rows are refreshed when
/// read.  Revisions 1 and 2 covered dynamic specs only, as
/// `dynamics_revision`.)
const RESULT_REVISION: u64 = 5;

/// A decode failure, locating the offending field.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeError {
    /// Dotted path of the field (`$.experiment.contention.model`).
    pub path: String,
    /// What was wrong with it.
    pub message: String,
}

impl DecodeError {
    fn new(path: &str, message: impl Into<String>) -> Self {
        DecodeError {
            path: path.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for DecodeError {}

/// Any failure turning spec text into a [`JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text was not JSON.
    Json(JsonError),
    /// The JSON did not describe a valid job.
    Decode(DecodeError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Decode(e) => write!(f, "invalid spec: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<DecodeError> for SpecError {
    fn from(e: DecodeError) -> Self {
        SpecError::Decode(e)
    }
}

/// One capacity-planning job: an experiment plus the session knobs to run
/// it under.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The experiment to run.
    pub experiment: ExperimentSpec,
    /// The sweep seed (required in every spec file — reproducibility is
    /// explicit, never ambient).
    pub seed: u64,
    /// Downlink traffic workload (session-driven experiments only).
    pub traffic: TrafficKind,
    /// Sweep worker override (results are bit-identical at any setting).
    pub threads: Option<usize>,
    /// Per-job wall-clock deadline; an exceeded deadline cancels the job
    /// cooperatively and records `timeout`.
    pub deadline_ms: Option<u64>,
    /// Stream per-stage wall-clock into the round log.
    pub stage_profiling: bool,
    /// Long-horizon dynamics layer (session-driven experiments only):
    /// client mobility and per-round re-association.  `None` keeps the
    /// static pipeline — and the cache key — byte-identical to older specs.
    pub dynamics: Option<DynamicsSpec>,
}

impl JobSpec {
    /// A spec with the library-default knobs.
    pub fn new(experiment: ExperimentSpec, seed: u64) -> Self {
        JobSpec {
            experiment,
            seed,
            traffic: TrafficKind::FullBuffer,
            threads: None,
            deadline_ms: None,
            stage_profiling: false,
            dynamics: None,
        }
    }

    /// Whether the experiment runs through the session machinery (and so
    /// accepts traffic/dynamics knobs and streams a round log).
    pub fn is_session_driven(&self) -> bool {
        self.experiment.session_builder().is_some()
    }

    /// Parses and validates spec text.
    pub fn from_json_str(text: &str) -> Result<JobSpec, SpecError> {
        let json = Json::parse(text)?;
        let spec = JobSpec::from_json(&json)?;
        spec.validate().map_err(SpecError::Decode)?;
        Ok(spec)
    }

    /// Decodes a parsed JSON document, applying every per-field rule as the
    /// field is read (see [`JobSpec::validate`] for the cross-field rules).
    pub fn from_json(json: &Json) -> Result<JobSpec, DecodeError> {
        if json.get("engine").is_some() {
            return Err(DecodeError::new(
                "$.engine",
                "the \"engine\" key was removed: every run uses the keyed fading engine, \
                 so delete the key",
            ));
        }
        let root = Field {
            value: json,
            path: "$".to_string(),
        };
        root.object(|f| {
            Ok(JobSpec {
                experiment: experiment_from_json(f.req("experiment")?)?,
                seed: f.req("seed")?.u64()?,
                traffic: f
                    .opt("traffic")
                    .map_or(Ok(TrafficKind::FullBuffer), traffic_from_json)?,
                threads: f.opt("threads").map(|v| v.count()).transpose()?,
                deadline_ms: f.opt("deadline_ms").map(|v| v.u64()).transpose()?,
                stage_profiling: f.opt("stage_profiling").map_or(Ok(false), |v| v.bool())?,
                dynamics: f.opt("dynamics").map(dynamics_from_json).transpose()?,
            })
        })
    }

    /// Cross-field rules: session knobs only apply to session-driven
    /// experiments, and a scenario must be one of the library's.
    pub fn validate(&self) -> Result<(), DecodeError> {
        if !self.is_session_driven() {
            let knob = if self.traffic != TrafficKind::FullBuffer {
                Some(("$.traffic", "traffic workloads only apply"))
            } else if self.dynamics.is_some() {
                Some(("$.dynamics", "the dynamics layer only applies"))
            } else {
                None
            };
            if let Some((path, what)) = knob {
                return Err(DecodeError::new(
                    path,
                    format!(
                        "{what} to session-driven experiments; {} runs its own fixed recipe",
                        self.experiment.name()
                    ),
                ));
            }
        }
        if let ExperimentSpec::EnterpriseScaling { scenario, .. } = &self.experiment {
            if Scenario::by_name(scenario.name(), scenario.num_aps()).as_ref() != Some(scenario) {
                return Err(DecodeError::new(
                    "$.experiment.scenario",
                    "not a library scenario",
                ));
            }
        }
        Ok(())
    }

    /// The full JSON encoding: every field explicit, so written specs
    /// re-read identically and the pretty form documents all the knobs.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("experiment".into(), experiment_to_json(&self.experiment)),
            ("seed".into(), Json::UInt(self.seed)),
            ("traffic".into(), traffic_to_json(self.traffic)),
            ("threads".into(), opt_uint(self.threads.map(|n| n as u64))),
            ("deadline_ms".into(), opt_uint(self.deadline_ms)),
            ("stage_profiling".into(), Json::Bool(self.stage_profiling)),
            (
                "dynamics".into(),
                match self.dynamics {
                    Some(d) => dynamics_to_json(&d),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// The canonical content-address material: the result-affecting fields
    /// and the [`RESULT_REVISION`], canonically written (sorted keys, no
    /// whitespace).  One logical job, one string — scheduling knobs do not
    /// fork the cache.
    fn cache_key_material(&self) -> String {
        let mut members = vec![
            ("experiment".into(), experiment_to_json(&self.experiment)),
            ("seed".into(), Json::UInt(self.seed)),
            ("traffic".into(), traffic_to_json(self.traffic)),
            ("result_revision".into(), Json::UInt(RESULT_REVISION)),
        ];
        if let Some(dynamics) = self.dynamics {
            members.push(("dynamics".into(), dynamics_to_json(&dynamics)));
        }
        Json::Obj(members).write_canonical()
    }

    /// The job id: the first 16 hex chars (64 bits) of the SHA-256 of
    /// `JobSpec::cache_key_material`.
    pub fn cache_key(&self) -> String {
        sha256_hex(self.cache_key_material().as_bytes())[..16].to_string()
    }
}

fn opt_uint(v: Option<u64>) -> Json {
    match v {
        Some(n) => Json::UInt(n),
        None => Json::Null,
    }
}

// ---------------------------------------------------------------------------
// Field reader

/// One JSON value under decode, with its `$.dotted.path`.  Each typed read
/// carries its field's rule, so a rejected value names its own path.
struct Field<'a> {
    value: &'a Json,
    path: String,
}

/// The members of one JSON object under decode.  Each read names its key
/// once, which both derives the member's path and allows the key;
/// [`Fields::finish`] rejects every member no read asked for.
struct Fields<'a> {
    members: &'a [(String, Json)],
    path: String,
    allowed: Vec<&'static str>,
}

impl<'a> Field<'a> {
    fn error(&self, message: impl Into<String>) -> DecodeError {
        DecodeError::new(&self.path, message)
    }

    fn expected(&self, what: &str) -> DecodeError {
        self.error(format!("expected {what}, found {}", self.value.type_name()))
    }

    fn u64(&self) -> Result<u64, DecodeError> {
        self.value
            .as_u64()
            .ok_or_else(|| self.expected("an unsigned integer"))
    }

    fn usize(&self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| self.error("integer out of range"))
    }

    /// A count of things to run or build: at least 1.
    fn count(&self) -> Result<usize, DecodeError> {
        match self.usize()? {
            0 => Err(self.error("must be at least 1")),
            n => Ok(n),
        }
    }

    fn f64(&self) -> Result<f64, DecodeError> {
        self.value.as_f64().ok_or_else(|| self.expected("a number"))
    }

    /// A number that must satisfy `ok`, else `rule` is the error.
    fn f64_where(&self, ok: impl FnOnce(f64) -> bool, rule: &str) -> Result<f64, DecodeError> {
        let x = self.f64()?;
        if ok(x) {
            Ok(x)
        } else {
            Err(self.error(rule))
        }
    }

    fn unit_interval(&self) -> Result<f64, DecodeError> {
        self.f64_where(|x| (0.0..=1.0).contains(&x), "must be in [0, 1]")
    }

    fn positive(&self) -> Result<f64, DecodeError> {
        self.f64_where(|x| x > 0.0, "must be positive")
    }

    fn non_negative(&self) -> Result<f64, DecodeError> {
        self.f64_where(|x| x >= 0.0, "must be non-negative")
    }

    fn bool(&self) -> Result<bool, DecodeError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.expected("a boolean"))
    }

    fn str(&self) -> Result<&'a str, DecodeError> {
        self.value.as_str().ok_or_else(|| self.expected("a string"))
    }

    /// The elements of an array, each at its `path[i]`.
    fn list(&self) -> Result<Vec<Field<'a>>, DecodeError> {
        let items = self
            .value
            .as_arr()
            .ok_or_else(|| self.expected("an array"))?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, value)| Field {
                value,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }

    /// Every element of an array, read by `read`.
    fn each<T>(
        &self,
        read: impl Fn(&Field<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        self.list()?.iter().map(read).collect()
    }

    /// Decodes an object: `read` asks for its members, then every member
    /// it did not ask for is rejected.
    fn object<T>(
        &self,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, DecodeError>,
    ) -> Result<T, DecodeError> {
        let members = self
            .value
            .as_obj()
            .ok_or_else(|| self.expected("an object"))?;
        let mut fields = Fields {
            members,
            path: self.path.clone(),
            allowed: Vec::new(),
        };
        let value = read(&mut fields)?;
        fields.finish()?;
        Ok(value)
    }
}

impl<'a> Fields<'a> {
    /// The member `key`, present or not (a `null` member is present).
    fn member(&mut self, key: &'static str) -> Option<Field<'a>> {
        self.allowed.push(key);
        let value = self
            .members
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))?;
        Some(Field {
            value,
            path: format!("{}.{key}", self.path),
        })
    }

    /// A required member.
    fn req(&mut self, key: &'static str) -> Result<Field<'a>, DecodeError> {
        self.member(key)
            .ok_or_else(|| DecodeError::new(&self.path, format!("missing required key {key:?}")))
    }

    /// An optional member: `None` when absent or `null`.
    fn opt(&mut self, key: &'static str) -> Option<Field<'a>> {
        self.member(key).filter(|f| *f.value != Json::Null)
    }

    /// Rejects the first member no read asked for.
    fn finish(self) -> Result<(), DecodeError> {
        match self
            .members
            .iter()
            .find(|(key, _)| !self.allowed.contains(&key.as_str()))
        {
            Some((key, _)) => Err(DecodeError::new(
                &self.path,
                format!("unknown key {key:?} (allowed: {})", self.allowed.join(", ")),
            )),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Leaf codecs

fn traffic_to_json(traffic: TrafficKind) -> Json {
    match traffic {
        TrafficKind::FullBuffer => {
            Json::Obj(vec![("model".into(), Json::Str("full_buffer".into()))])
        }
        TrafficKind::OnOff {
            duty,
            mean_burst_rounds,
        } => Json::Obj(vec![
            ("model".into(), Json::Str("on_off".into())),
            ("duty".into(), Json::Num(duty)),
            ("mean_burst_rounds".into(), Json::Num(mean_burst_rounds)),
        ]),
    }
}

fn traffic_from_json(v: Field<'_>) -> Result<TrafficKind, DecodeError> {
    v.object(|f| {
        let model = f.req("model")?;
        Ok(match model.str()? {
            "full_buffer" => TrafficKind::FullBuffer,
            "on_off" => TrafficKind::OnOff {
                duty: f.req("duty")?.unit_interval()?,
                mean_burst_rounds: f.req("mean_burst_rounds")?.positive()?,
            },
            other => {
                return Err(model.error(format!(
                    "unknown traffic model {other:?} (expected \"full_buffer\" or \"on_off\")"
                )))
            }
        })
    })
}

fn environment_to_json(kind: EnvironmentKind) -> Json {
    Json::Str(
        match kind {
            EnvironmentKind::OfficeA => "office_a",
            EnvironmentKind::OfficeB => "office_b",
            EnvironmentKind::OpenPlan => "open_plan",
        }
        .into(),
    )
}

fn environment_from_json(v: Field<'_>) -> Result<EnvironmentKind, DecodeError> {
    match v.str()? {
        "office_a" => Ok(EnvironmentKind::OfficeA),
        "office_b" => Ok(EnvironmentKind::OfficeB),
        "open_plan" => Ok(EnvironmentKind::OpenPlan),
        other => Err(v.error(format!(
            "unknown environment {other:?} (expected \"office_a\", \"office_b\" or \
             \"open_plan\")"
        ))),
    }
}

fn contention_to_json(model: ContentionModel) -> Json {
    match model {
        ContentionModel::Graph => Json::Obj(vec![("model".into(), Json::Str("graph".into()))]),
        ContentionModel::Physical(config) => Json::Obj(vec![
            ("model".into(), Json::Str("physical".into())),
            (
                "cs_threshold_dbm".into(),
                Json::Num(config.cs_threshold_dbm),
            ),
            (
                "capture_margin_db".into(),
                Json::Num(config.capture_margin_db),
            ),
            (
                "sensing_sigma_db".into(),
                match config.sensing_sigma_db {
                    Some(sigma) => Json::Num(sigma),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

fn contention_from_json(v: Field<'_>) -> Result<ContentionModel, DecodeError> {
    v.object(|f| {
        let model = f.req("model")?;
        match model.str()? {
            "graph" => Ok(ContentionModel::Graph),
            "physical" => Ok(ContentionModel::Physical(PhysicalConfig {
                cs_threshold_dbm: f.req("cs_threshold_dbm")?.f64()?,
                capture_margin_db: f.req("capture_margin_db")?.f64()?,
                sensing_sigma_db: f
                    .opt("sensing_sigma_db")
                    .map(|v| v.non_negative())
                    .transpose()?,
            })),
            other => Err(model.error(format!(
                "unknown contention model {other:?} (expected \"graph\" or \"physical\")"
            ))),
        }
    })
}

// ---------------------------------------------------------------------------
// Dynamics codec

/// Encodes a dynamics layer as
/// `{"mobility": ..., "mobile_fraction": ..., "reassociation": ...,
/// "period_rounds": ...}` with `null` for absent sub-layers.
pub fn dynamics_to_json(spec: &DynamicsSpec) -> Json {
    let mobility = match spec.mobility {
        None => Json::Null,
        Some(MobilityModel::RandomWaypoint {
            speed_mps,
            pause_rounds,
        }) => Json::Obj(vec![
            ("model".into(), Json::Str("random_waypoint".into())),
            ("speed_mps".into(), Json::Num(speed_mps)),
            ("pause_rounds".into(), Json::UInt(pause_rounds as u64)),
        ]),
        Some(MobilityModel::CorridorFlow { speed_mps }) => Json::Obj(vec![
            ("model".into(), Json::Str("corridor_flow".into())),
            ("speed_mps".into(), Json::Num(speed_mps)),
        ]),
    };
    let reassociation = match spec.reassociation {
        None => Json::Null,
        Some(ReassociationSpec {
            policy,
            hysteresis_db,
        }) => {
            let mut members = vec![(
                "policy".to_string(),
                Json::Str(
                    match policy {
                        AssociationPolicy::NearestAp => "nearest_ap",
                        AssociationPolicy::AntennaAware => "antenna_aware",
                        AssociationPolicy::LoadBalanced { .. } => "load_balanced",
                    }
                    .into(),
                ),
            )];
            if let AssociationPolicy::LoadBalanced { hysteresis_db } = policy {
                members.push(("load_hysteresis_db".into(), Json::Num(hysteresis_db)));
            }
            members.push(("hysteresis_db".into(), Json::Num(hysteresis_db)));
            Json::Obj(members)
        }
    };
    Json::Obj(vec![
        ("mobility".into(), mobility),
        ("mobile_fraction".into(), Json::Num(spec.mobile_fraction)),
        ("reassociation".into(), reassociation),
        (
            "period_rounds".into(),
            Json::UInt(spec.period_rounds as u64),
        ),
    ])
}

/// Decodes the [`dynamics_to_json`] form back into a [`DynamicsSpec`].
fn dynamics_from_json(v: Field<'_>) -> Result<DynamicsSpec, DecodeError> {
    v.object(|f| {
        let mobility = f.opt("mobility").map(|m| {
            m.object(|m| {
                let model = m.req("model")?;
                Ok(match model.str()? {
                    "random_waypoint" => MobilityModel::RandomWaypoint {
                        speed_mps: m.req("speed_mps")?.non_negative()?,
                        pause_rounds: m.req("pause_rounds")?.usize()?,
                    },
                    "corridor_flow" => MobilityModel::CorridorFlow {
                        speed_mps: m.req("speed_mps")?.non_negative()?,
                    },
                    other => {
                        return Err(model.error(format!(
                            "unknown mobility model {other:?} (expected \
                             \"random_waypoint\" or \"corridor_flow\")"
                        )))
                    }
                })
            })
        });
        let mobility = mobility.transpose()?;
        let mobile_fraction = f
            .opt("mobile_fraction")
            .map_or(Ok(1.0), |v| v.unit_interval())?;
        let reassociation = f.opt("reassociation").map(|r| {
            r.object(|r| {
                let policy = r.req("policy")?;
                let policy = match policy.str()? {
                    "nearest_ap" => AssociationPolicy::NearestAp,
                    "antenna_aware" => AssociationPolicy::AntennaAware,
                    "load_balanced" => AssociationPolicy::LoadBalanced {
                        hysteresis_db: r.req("load_hysteresis_db")?.f64()?,
                    },
                    other => {
                        return Err(policy.error(format!(
                            "unknown association policy {other:?} (expected \"nearest_ap\", \
                             \"antenna_aware\" or \"load_balanced\")"
                        )))
                    }
                };
                Ok(ReassociationSpec {
                    policy,
                    hysteresis_db: r.req("hysteresis_db")?.non_negative()?,
                })
            })
        });
        let reassociation = reassociation.transpose()?;
        Ok(DynamicsSpec {
            mobility,
            mobile_fraction,
            reassociation,
            period_rounds: f.opt("period_rounds").map_or(Ok(1), |v| v.count())?,
        })
    })
}

// ---------------------------------------------------------------------------
// Experiment codec

/// Encodes an experiment as `{"kind": <figure slug>, ...fields}` — the slug
/// is [`ExperimentSpec::name`], the fields mirror the variant.
fn experiment_to_json(spec: &ExperimentSpec) -> Json {
    let mut members = vec![("kind".to_string(), Json::Str(spec.name().into()))];
    let mut push = |key: &str, value: Json| members.push((key.to_string(), value));
    match spec {
        ExperimentSpec::NaiveScalingDrop { topologies }
        | ExperimentSpec::LinkSnr { topologies }
        | ExperimentSpec::SmartPrecoding { topologies }
        | ExperimentSpec::SimultaneousTx { topologies }
        | ExperimentSpec::PacketTagging { topologies } => {
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::MuMimoCapacity {
            environment,
            antennas,
            topologies,
        } => {
            push("environment", environment_to_json(*environment));
            push("antennas", Json::UInt(*antennas as u64));
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::OptimalComparison {
            topologies,
            stale_csi,
        } => {
            push("topologies", Json::UInt(*topologies as u64));
            push("stale_csi", Json::Bool(*stale_csi));
        }
        ExperimentSpec::Deadzones { deployments }
        | ExperimentSpec::HiddenTerminals { deployments } => {
            push("deployments", Json::UInt(*deployments as u64));
        }
        ExperimentSpec::EndToEnd {
            // The slug already distinguishes the layouts (fig15 vs fig16).
            eight_aps: _,
            topologies,
            rounds,
            contention,
        } => {
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
            push("contention", contention_to_json(*contention));
        }
        ExperimentSpec::Fig16Calibration {
            grid,
            topologies,
            rounds,
        } => {
            push(
                "cs_thresholds_dbm",
                Json::Arr(
                    grid.cs_thresholds_dbm
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push(
                "capture_margins_db",
                Json::Arr(
                    grid.capture_margins_db
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push(
                "sensing_sigmas_db",
                Json::Arr(
                    grid.sensing_sigmas_db
                        .iter()
                        .map(|&x| Json::Num(x))
                        .collect(),
                ),
            );
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
        }
        ExperimentSpec::EnterpriseScaling {
            scenario,
            topologies,
            rounds,
        } => {
            push("scenario", Json::Str(scenario.name().into()));
            push("aps", Json::UInt(scenario.num_aps() as u64));
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
        }
        ExperimentSpec::LoadVsGain {
            duty_cycles,
            topologies,
            rounds,
            speed_mps,
        } => {
            push(
                "duty_cycles",
                Json::Arr(duty_cycles.iter().map(|&d| Json::Num(d)).collect()),
            );
            push("topologies", Json::UInt(*topologies as u64));
            push("rounds", Json::UInt(*rounds as u64));
            push("speed_mps", Json::Num(*speed_mps));
        }
        ExperimentSpec::TagWidth { widths, topologies } => {
            push(
                "widths",
                Json::Arr(widths.iter().map(|&w| Json::UInt(w as u64)).collect()),
            );
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::DasRadius {
            fractions,
            topologies,
        } => {
            push(
                "fractions",
                Json::Arr(
                    fractions
                        .iter()
                        .map(|&(lo, hi)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]))
                        .collect(),
                ),
            );
            push("topologies", Json::UInt(*topologies as u64));
        }
        ExperimentSpec::AntennaWait { windows_us, trials } => {
            push(
                "windows_us",
                Json::Arr(windows_us.iter().map(|&w| Json::UInt(w)).collect()),
            );
            push("trials", Json::UInt(*trials as u64));
        }
    }
    Json::Obj(members)
}

/// Decodes `{"kind": ..., ...}` back into an [`ExperimentSpec`].
fn experiment_from_json(v: Field<'_>) -> Result<ExperimentSpec, DecodeError> {
    v.object(|f| {
        let kind = f.req("kind")?;
        let name = kind.str()?;
        Ok(match name {
            "fig03_naive_scaling_drop" => ExperimentSpec::NaiveScalingDrop {
                topologies: f.req("topologies")?.count()?,
            },
            "fig07_link_snr" => ExperimentSpec::LinkSnr {
                topologies: f.req("topologies")?.count()?,
            },
            "fig08_09_capacity" => ExperimentSpec::MuMimoCapacity {
                environment: environment_from_json(f.req("environment")?)?,
                antennas: f.req("antennas")?.count()?,
                topologies: f.req("topologies")?.count()?,
            },
            "fig10_smart_precoding" => ExperimentSpec::SmartPrecoding {
                topologies: f.req("topologies")?.count()?,
            },
            "fig11_optimal_comparison" => ExperimentSpec::OptimalComparison {
                topologies: f.req("topologies")?.count()?,
                stale_csi: f.req("stale_csi")?.bool()?,
            },
            "fig12_simultaneous_tx" => ExperimentSpec::SimultaneousTx {
                topologies: f.req("topologies")?.count()?,
            },
            "fig13_deadzone" => ExperimentSpec::Deadzones {
                deployments: f.req("deployments")?.count()?,
            },
            "sec534_hidden_terminals" => ExperimentSpec::HiddenTerminals {
                deployments: f.req("deployments")?.count()?,
            },
            "fig14_packet_tagging" => ExperimentSpec::PacketTagging {
                topologies: f.req("topologies")?.count()?,
            },
            "fig15_three_ap_end_to_end" | "fig16_eight_ap_simulation" => ExperimentSpec::EndToEnd {
                eight_aps: name == "fig16_eight_ap_simulation",
                topologies: f.req("topologies")?.count()?,
                rounds: f.req("rounds")?.count()?,
                contention: contention_from_json(f.req("contention")?)?,
            },
            "fig16_calibration" => ExperimentSpec::Fig16Calibration {
                grid: CalibrationGrid {
                    cs_thresholds_dbm: f.req("cs_thresholds_dbm")?.each(Field::f64)?,
                    capture_margins_db: f.req("capture_margins_db")?.each(Field::f64)?,
                    sensing_sigmas_db: f.req("sensing_sigmas_db")?.each(Field::non_negative)?,
                },
                topologies: f.req("topologies")?.count()?,
                rounds: f.req("rounds")?.count()?,
            },
            "enterprise_scaling" => {
                let scenario = f.req("scenario")?;
                let library_name = scenario.str()?;
                let aps = f.req("aps")?.count()?;
                ExperimentSpec::EnterpriseScaling {
                    scenario: Scenario::by_name(library_name, aps).ok_or_else(|| {
                        scenario.error(format!(
                            "unknown scenario {library_name:?} (expected \"enterprise_office\", \
                             \"auditorium\" or \"dense_apartment\")"
                        ))
                    })?,
                    topologies: f.req("topologies")?.count()?,
                    rounds: f.req("rounds")?.count()?,
                }
            }
            "load_vs_gain" => ExperimentSpec::LoadVsGain {
                duty_cycles: f.req("duty_cycles")?.each(Field::unit_interval)?,
                topologies: f.req("topologies")?.count()?,
                rounds: f.req("rounds")?.count()?,
                speed_mps: f.req("speed_mps")?.non_negative()?,
            },
            "ablation_tag_width" => ExperimentSpec::TagWidth {
                widths: f.req("widths")?.each(Field::count)?,
                topologies: f.req("topologies")?.count()?,
            },
            "ablation_das_radius" => ExperimentSpec::DasRadius {
                fractions: f.req("fractions")?.each(|pair| {
                    let ends = pair.list().unwrap_or_default();
                    let [lo, hi] = ends.as_slice() else {
                        return Err(pair.error("expected a [lo, hi] pair"));
                    };
                    let (lo, hi) = (lo.positive()?, hi.f64()?);
                    if lo > hi {
                        return Err(pair.error("expected lo <= hi"));
                    }
                    Ok((lo, hi))
                })?,
                topologies: f.req("topologies")?.count()?,
            },
            "ablation_antenna_wait" => ExperimentSpec::AntennaWait {
                windows_us: f.req("windows_us")?.each(Field::u64)?,
                trials: f.req("trials")?.count()?,
            },
            other => return Err(kind.error(format!("unknown experiment kind {other:?}"))),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig16_spec() -> JobSpec {
        JobSpec::new(ExperimentSpec::fig16(ContentionModel::Graph), 73125)
    }

    /// Every experiment variant survives the JSON round trip.
    #[test]
    fn experiments_round_trip_through_json() {
        let specs = vec![
            ExperimentSpec::fig03(),
            ExperimentSpec::fig07(),
            ExperimentSpec::fig08_09(EnvironmentKind::OfficeB, 8),
            ExperimentSpec::fig10(),
            ExperimentSpec::fig11(true),
            ExperimentSpec::fig12(),
            ExperimentSpec::fig13(),
            ExperimentSpec::sec534(),
            ExperimentSpec::fig14(),
            ExperimentSpec::fig15(),
            ExperimentSpec::fig16(ContentionModel::physical_calibrated()),
            ExperimentSpec::EndToEnd {
                eight_aps: true,
                topologies: 2,
                rounds: 3,
                contention: ContentionModel::Physical(PhysicalConfig {
                    cs_threshold_dbm: -82.0,
                    capture_margin_db: 6.0,
                    sensing_sigma_db: None,
                }),
            },
            ExperimentSpec::Fig16Calibration {
                grid: CalibrationGrid::default(),
                topologies: 2,
                rounds: 5,
            },
            ExperimentSpec::EnterpriseScaling {
                scenario: Scenario::enterprise_office(64),
                topologies: 3,
                rounds: 10,
            },
            ExperimentSpec::LoadVsGain {
                duty_cycles: vec![0.1, 0.5, 1.0],
                topologies: 4,
                rounds: 12,
                speed_mps: 1.2,
            },
            ExperimentSpec::TagWidth {
                widths: vec![1, 2, 4],
                topologies: 60,
            },
            ExperimentSpec::DasRadius {
                fractions: vec![(0.25, 0.5), (0.5, 0.75)],
                topologies: 60,
            },
            ExperimentSpec::AntennaWait {
                windows_us: vec![0, 10, 20],
                trials: 100,
            },
        ];
        for spec in specs {
            let json = experiment_to_json(&spec);
            let root = Field {
                value: &json,
                path: "$".to_string(),
            };
            let back = experiment_from_json(root)
                .unwrap_or_else(|e| panic!("decode failed for {}: {e}", json.write_compact()));
            assert_eq!(back, spec, "round trip changed {}", json.write_compact());
            // And the re-encoding is a fixed point (stable bytes).
            assert_eq!(experiment_to_json(&back), json);
        }
    }

    #[test]
    fn job_spec_round_trips_with_all_knobs() {
        let mut spec = JobSpec::new(ExperimentSpec::fig16(ContentionModel::Graph), 99);
        spec.traffic = TrafficKind::OnOff {
            duty: 0.3,
            mean_burst_rounds: 4.0,
        };
        spec.threads = Some(8);
        spec.deadline_ms = Some(60_000);
        spec.stage_profiling = true;
        let text = spec.to_json().write_pretty();
        let back = JobSpec::from_json_str(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn dynamics_knob_round_trips_and_forks_the_cache_key_only_when_set() {
        let mut spec = JobSpec::new(ExperimentSpec::fig15(), 5);
        // Absent dynamics must leave the pre-dynamics material untouched —
        // the key "dynamics" may not even appear.
        assert!(!spec.cache_key_material().contains("dynamics"));
        let static_key = spec.cache_key();

        spec.dynamics = Some(DynamicsSpec {
            mobility: Some(MobilityModel::RandomWaypoint {
                speed_mps: 1.2,
                pause_rounds: 3,
            }),
            mobile_fraction: 0.5,
            reassociation: Some(ReassociationSpec {
                policy: AssociationPolicy::LoadBalanced { hysteresis_db: 6.0 },
                hysteresis_db: 3.0,
            }),
            period_rounds: 2,
        });
        let back = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap();
        assert_eq!(back, spec);
        assert_ne!(spec.cache_key(), static_key, "dynamics must fork the key");

        // Corridor flow + simple policies round-trip too.
        spec.dynamics = Some(DynamicsSpec {
            mobility: Some(MobilityModel::CorridorFlow { speed_mps: 0.8 }),
            mobile_fraction: 1.0,
            reassociation: Some(ReassociationSpec {
                policy: AssociationPolicy::AntennaAware,
                hysteresis_db: 3.0,
            }),
            period_rounds: 1,
        });
        let back = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap();
        assert_eq!(back, spec);
    }

    /// Every spec's id moves when results do: the result revision is in
    /// the material of static and dynamic specs alike, so a cache
    /// populated before the last change to any result bytes cannot serve
    /// stale hits.
    #[test]
    fn spec_ids_carry_the_result_revision() {
        let static_spec = fig16_spec();
        let mut dynamic_spec = JobSpec::new(ExperimentSpec::fig15(), 5);
        dynamic_spec.dynamics = Some(DynamicsSpec::roaming_walk(1.4));
        // The ids these specs had before revision 5: at revisions 4 and 3,
        // the static one before any revision member, the dynamic one at
        // `dynamics_revision` 2 and at the earlier materials.
        let old_ids: [(&JobSpec, &[&str]); 2] = [
            (
                &static_spec,
                &["16220bcf9545596e", "6ffb66078732c51e", "b7fbebced12cdef5"],
            ),
            (
                &dynamic_spec,
                &[
                    "cad279c038fd5b7b",
                    "68beade84a3550ab",
                    "63c62673e3b25cad",
                    "ef14547d42f1ad7f",
                    "553482cafc907f15",
                ],
            ),
        ];
        for (spec, old) in old_ids {
            assert!(!old.contains(&spec.cache_key().as_str()), "{spec:?}");
            assert!(spec
                .cache_key_material()
                .contains(",\"result_revision\":5,"));
        }
        assert_eq!(static_spec.cache_key(), "c2105dc0e30ed077");
        assert_eq!(dynamic_spec.cache_key(), "c7d2b042c477a1d2");
    }

    #[test]
    fn dynamics_on_a_non_session_experiment_is_rejected() {
        let mut spec = JobSpec::new(ExperimentSpec::fig07(), 1);
        spec.dynamics = Some(DynamicsSpec::roaming_walk(1.0));
        let err = JobSpec::from_json_str(&spec.to_json().write_pretty()).unwrap_err();
        assert!(err.to_string().contains("$.dynamics"), "{err}");
    }

    #[test]
    fn defaults_apply_when_knobs_are_omitted() {
        let text = r#"{
            "experiment": {"kind": "fig07_link_snr", "topologies": 60},
            "seed": 73125
        }"#;
        let spec = JobSpec::from_json_str(text).unwrap();
        assert_eq!(spec.traffic, TrafficKind::FullBuffer);
        assert!(!spec.stage_profiling);
    }

    /// The cache-key material is a pinned golden: if these bytes drift, the
    /// whole on-disk cache silently invalidates, so any change here must be
    /// deliberate.  (The last deliberate change moved to revision 5, so no
    /// on/off result keyed by AP-local client slot is served again.)
    #[test]
    fn cache_key_material_is_pinned() {
        assert_eq!(
            fig16_spec().cache_key_material(),
            "{\"experiment\":{\"contention\":{\"model\":\"graph\"},\
             \"kind\":\"fig16_eight_ap_simulation\",\"rounds\":10,\"topologies\":15},\
             \"result_revision\":5,\
             \"seed\":73125,\"traffic\":{\"model\":\"full_buffer\"}}"
        );
    }

    #[test]
    fn cache_key_is_pinned_and_ignores_scheduling_knobs() {
        let base = fig16_spec();
        let key = base.cache_key();
        assert_eq!(key.len(), 16);
        assert_eq!(key, sha256_hex(base.cache_key_material().as_bytes())[..16]);

        // Scheduling knobs do not fork the cache...
        let mut scheduled = base.clone();
        scheduled.threads = Some(8);
        scheduled.deadline_ms = Some(1000);
        scheduled.stage_profiling = true;
        assert_eq!(scheduled.cache_key(), key);

        // ...result-affecting knobs do.
        let mut reseeded = base.clone();
        reseeded.seed = 73126;
        assert_ne!(reseeded.cache_key(), key);
        let mut loaded = base.clone();
        loaded.traffic = TrafficKind::OnOff {
            duty: 0.5,
            mean_burst_rounds: 4.0,
        };
        assert_ne!(loaded.cache_key(), key);
    }

    #[test]
    fn the_removed_engine_key_is_rejected_with_a_migration_message() {
        for engine in ["legacy", "counter"] {
            let text = format!(
                r#"{{"experiment": {{"kind": "fig16_eight_ap_simulation",
                     "topologies": 2, "rounds": 3, "contention": {{"model": "graph"}}}},
                    "seed": 5, "engine": "{engine}"}}"#
            );
            let err = match JobSpec::from_json_str(&text) {
                Err(SpecError::Decode(err)) => err,
                other => panic!("engine {engine:?} must fail to decode, got {other:?}"),
            };
            assert_eq!(err.path, "$.engine");
            assert!(err.message.contains("was removed"), "{err}");
            assert!(err.message.contains("keyed fading engine"), "{err}");
        }
    }

    #[test]
    fn decode_errors_carry_dotted_paths() {
        let err =
            JobSpec::from_json_str(r#"{"experiment": {"kind": "nope"}, "seed": 1}"#).unwrap_err();
        assert!(err.to_string().contains("$.experiment.kind"), "{err}");

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": "lots"}, "seed": 1}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("$.experiment.topologies"), "{err}");

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": 60}}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("missing required key \"seed\""),
            "{err}"
        );

        let err = JobSpec::from_json_str(
            r#"{"experiment": {"kind": "fig07_link_snr", "topologies": 60},
                "seed": 1, "typo_knob": true}"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown key \"typo_knob\""),
            "{err}"
        );

        // Not JSON at all: the line/column surfaces.
        let err = JobSpec::from_json_str("{oops}").unwrap_err();
        assert!(matches!(err, SpecError::Json(_)), "{err}");
    }

    #[test]
    fn session_knobs_are_rejected_on_non_session_experiments() {
        let mut spec = JobSpec::new(ExperimentSpec::fig07(), 1);
        spec.traffic = TrafficKind::OnOff {
            duty: 0.5,
            mean_burst_rounds: 2.0,
        };
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("session-driven"), "{err}");
    }

    #[test]
    fn sensing_sigma_null_round_trips() {
        let text = r#"{
            "experiment": {
                "kind": "fig16_eight_ap_simulation",
                "topologies": 2, "rounds": 3,
                "contention": {"model": "physical", "cs_threshold_dbm": -82,
                               "capture_margin_db": 6, "sensing_sigma_db": null}
            },
            "seed": 5
        }"#;
        let spec = JobSpec::from_json_str(text).unwrap();
        match spec.experiment {
            ExperimentSpec::EndToEnd {
                contention: ContentionModel::Physical(config),
                ..
            } => assert_eq!(config.sensing_sigma_db, None),
            other => panic!("wrong decode: {other:?}"),
        }
    }

    /// Every per-field rule rejects its field as the field is read, naming
    /// the field's path: one case per rule.
    #[test]
    fn each_field_rule_rejects_its_field_by_path() {
        let e2e = r#""kind": "fig15_three_ap_end_to_end", "topologies": 2, "rounds": 3,
                     "contention": {"model": "graph"}"#;
        let traffic =
            |t: &str| format!(r#"{{"experiment": {{{e2e}}}, "seed": 1, "traffic": {t}}}"#);
        let dynamics =
            |d: &str| format!(r#"{{"experiment": {{{e2e}}}, "seed": 1, "dynamics": {d}}}"#);
        let experiment = |x: &str| format!(r#"{{"experiment": {x}, "seed": 1}}"#);
        let cases = [
            (
                experiment(r#"{"kind": "fig07_link_snr", "topologies": 0}"#),
                "$.experiment.topologies",
            ),
            (
                experiment(r#"{"kind": "fig13_deadzone", "deployments": 0}"#),
                "$.experiment.deployments",
            ),
            (
                experiment(r#"{"kind": "ablation_antenna_wait", "windows_us": [0], "trials": 0}"#),
                "$.experiment.trials",
            ),
            (
                experiment(
                    r#"{"kind": "fig15_three_ap_end_to_end", "topologies": 2, "rounds": 0,
                               "contention": {"model": "graph"}}"#,
                ),
                "$.experiment.rounds",
            ),
            (
                experiment(
                    r#"{"kind": "fig08_09_capacity", "environment": "office_a",
                               "antennas": 0, "topologies": 2}"#,
                ),
                "$.experiment.antennas",
            ),
            (
                experiment(
                    r#"{"kind": "enterprise_scaling", "scenario": "auditorium", "aps": 0,
                               "topologies": 1, "rounds": 2}"#,
                ),
                "$.experiment.aps",
            ),
            (
                experiment(r#"{"kind": "ablation_tag_width", "widths": [1, 0], "topologies": 2}"#),
                "$.experiment.widths[1]",
            ),
            (
                experiment(
                    r#"{"kind": "ablation_das_radius", "fractions": [[0, 0.5]],
                               "topologies": 2}"#,
                ),
                "$.experiment.fractions[0][0]",
            ),
            (
                experiment(
                    r#"{"kind": "ablation_das_radius", "fractions": [[0.25, 0.5], [0.5, 0.25]],
                               "topologies": 2}"#,
                ),
                "$.experiment.fractions[1]",
            ),
            (
                experiment(
                    r#"{"kind": "load_vs_gain", "duty_cycles": [0.5, 1.5], "topologies": 2,
                               "rounds": 3, "speed_mps": 0}"#,
                ),
                "$.experiment.duty_cycles[1]",
            ),
            (
                experiment(
                    r#"{"kind": "load_vs_gain", "duty_cycles": [0.5], "topologies": 2,
                               "rounds": 3, "speed_mps": -1}"#,
                ),
                "$.experiment.speed_mps",
            ),
            (
                experiment(
                    r#"{"kind": "fig16_eight_ap_simulation", "topologies": 2, "rounds": 3,
                               "contention": {"model": "physical", "cs_threshold_dbm": -86,
                                              "capture_margin_db": 10, "sensing_sigma_db": -1}}"#,
                ),
                "$.experiment.contention.sensing_sigma_db",
            ),
            (
                experiment(
                    r#"{"kind": "fig16_calibration", "cs_thresholds_dbm": [-86],
                               "capture_margins_db": [10], "sensing_sigmas_db": [3, -1],
                               "topologies": 2, "rounds": 3}"#,
                ),
                "$.experiment.sensing_sigmas_db[1]",
            ),
            (
                format!(r#"{{"experiment": {{{e2e}}}, "seed": 1, "threads": 0}}"#),
                "$.threads",
            ),
            (
                traffic(r#"{"model": "on_off", "duty": 1.5, "mean_burst_rounds": 4}"#),
                "$.traffic.duty",
            ),
            (
                traffic(r#"{"model": "on_off", "duty": 0.5, "mean_burst_rounds": 0}"#),
                "$.traffic.mean_burst_rounds",
            ),
            // A removed workload is an unknown model, rejected before its
            // fields are read.
            (
                traffic(r#"{"model": "poisson", "mean_arrivals_per_round": 0.5}"#),
                "$.traffic.model",
            ),
            (
                dynamics(r#"{"mobile_fraction": 1.5}"#),
                "$.dynamics.mobile_fraction",
            ),
            (
                dynamics(r#"{"period_rounds": 0}"#),
                "$.dynamics.period_rounds",
            ),
            (
                dynamics(r#"{"mobility": {"model": "corridor_flow", "speed_mps": -1}}"#),
                "$.dynamics.mobility.speed_mps",
            ),
            (
                dynamics(r#"{"reassociation": {"policy": "nearest_ap", "hysteresis_db": -1}}"#),
                "$.dynamics.reassociation.hysteresis_db",
            ),
        ];
        for (text, path) in &cases {
            match JobSpec::from_json_str(text) {
                Err(SpecError::Decode(err)) => assert_eq!(err.path, *path, "{text}: {err}"),
                other => panic!("{text} must fail at {path}, got {other:?}"),
            }
        }
    }
}
