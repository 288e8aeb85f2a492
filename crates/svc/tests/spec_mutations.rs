//! Enumerated spec mutations: no mutant makes the decoder panic, every
//! accepted mutant survives a re-encode with its cache key, and every
//! rejected one is a decode error whose path points at the broken field.
//!
//! The bases are the shipped `specs/*.json`, one spec per experiment kind,
//! one per traffic model, a dynamic spec with every dynamics member set and
//! a physical-contention Fig. 16 spec shaped like perfbench's.  Each single
//! mutation deletes a member (at any depth), replaces it with one of
//! [`VALUES`], or adds an unknown sibling key; pairs of mutations follow
//! until there are at least 10⁴ mutants.  Everything is enumerated, so the
//! run is the same every time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use midas::experiment::CalibrationGrid;
use midas::sim::{
    ContentionModel, DynamicsSpec, ExperimentSpec, MobilityModel, ReassociationSpec, TrafficKind,
};
use midas_channel::EnvironmentKind;
use midas_net::scale::{AssociationPolicy, Scenario};
use midas_svc::json::Json;
use midas_svc::spec::{JobSpec, SpecError};

/// The replacement values, written as JSON.
const VALUES: [&str; 10] = [
    "null",
    "true",
    "\"x\"",
    "0",
    "-1",
    "0.5",
    "1e300",
    "1099511627776",
    "[]",
    "{}",
];

/// Error paths a single mutation may also surface at: the rules that
/// read more than one field.
const CROSS_FIELD_PATHS: [&str; 4] = [
    "$.traffic",
    "$.dynamics",
    "$.experiment.scenario",
    "$.engine",
];

/// One step into a JSON tree.
#[derive(Clone)]
enum Step {
    Key(String),
    Index(usize),
}

/// One mutation of the member at `path` (or, for `AddKey`, of the object
/// at `path`).
#[derive(Clone)]
enum Op {
    Delete,
    Replace(Json),
    AddKey,
}

#[derive(Clone)]
struct Mutation {
    path: Vec<Step>,
    op: Op,
}

fn show(path: &[Step]) -> String {
    let mut out = String::from("$");
    for step in path {
        match step {
            Step::Key(key) => out.push_str(&format!(".{key}")),
            Step::Index(i) => out.push_str(&format!("[{i}]")),
        }
    }
    out
}

/// The path a mutation touches: the member itself, or the added key.
fn mutated_path(m: &Mutation) -> String {
    match m.op {
        Op::AddKey => format!("{}.typo", show(&m.path)),
        _ => show(&m.path),
    }
}

/// Every single mutation of `root`, in document order.
fn mutations(root: &Json) -> Vec<Mutation> {
    fn walk(value: &Json, path: &mut Vec<Step>, out: &mut Vec<Mutation>) {
        if let Json::Obj(_) = value {
            out.push(Mutation {
                path: path.clone(),
                op: Op::AddKey,
            });
        }
        let children: Vec<(Step, &Json)> = match value {
            Json::Obj(members) => members
                .iter()
                .map(|(k, v)| (Step::Key(k.clone()), v))
                .collect(),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (Step::Index(i), v))
                .collect(),
            _ => Vec::new(),
        };
        for (step, child) in children {
            path.push(step);
            out.push(Mutation {
                path: path.clone(),
                op: Op::Delete,
            });
            for text in VALUES {
                out.push(Mutation {
                    path: path.clone(),
                    op: Op::Replace(Json::parse(text).unwrap()),
                });
            }
            walk(child, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(root, &mut Vec::new(), &mut out);
    out
}

/// `root` with `m` applied.
fn apply(root: &Json, m: &Mutation) -> Json {
    fn go(value: &mut Json, path: &[Step], op: &Op) {
        let Some((step, rest)) = path.split_first() else {
            if let (Json::Obj(members), Op::AddKey) = (value, op) {
                members.push(("typo".into(), Json::UInt(1)));
            }
            return;
        };
        if rest.is_empty() && !matches!(op, Op::AddKey) {
            match (value, step, op) {
                (Json::Obj(members), Step::Key(key), Op::Delete) => {
                    members.retain(|(k, _)| k != key)
                }
                (Json::Arr(items), Step::Index(i), Op::Delete) => {
                    items.remove(*i);
                }
                (Json::Obj(members), Step::Key(key), Op::Replace(new)) => {
                    for (k, v) in members.iter_mut() {
                        if k == key {
                            *v = new.clone();
                        }
                    }
                }
                (Json::Arr(items), Step::Index(i), Op::Replace(new)) => items[*i] = new.clone(),
                _ => unreachable!("a mutation path follows the tree it was taken from"),
            }
            return;
        }
        let child = match (value, step) {
            (Json::Obj(members), Step::Key(key)) => {
                &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1
            }
            (Json::Arr(items), Step::Index(i)) => &mut items[*i],
            _ => unreachable!("a mutation path follows the tree it was taken from"),
        };
        go(child, rest, op);
    }
    let mut out = root.clone();
    go(&mut out, &m.path, &m.op);
    out
}

/// Whether `a` is `b`, or one of them is an ancestor of the other.
fn related(a: &str, b: &str) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.strip_prefix(short)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(['.', '[']))
}

fn bases() -> Vec<(String, Json)> {
    let mut out = Vec::new();
    let specs = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs");
    let mut files: Vec<_> = std::fs::read_dir(&specs)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(files.len() >= 4, "expected the shipped spec files");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        out.push((file.display().to_string(), Json::parse(&text).unwrap()));
    }

    let experiments = [
        ExperimentSpec::fig03(),
        ExperimentSpec::fig07(),
        ExperimentSpec::fig08_09(EnvironmentKind::OfficeB, 4),
        ExperimentSpec::fig10(),
        ExperimentSpec::fig11(true),
        ExperimentSpec::fig12(),
        ExperimentSpec::fig13(),
        ExperimentSpec::sec534(),
        ExperimentSpec::fig14(),
        ExperimentSpec::fig15(),
        ExperimentSpec::fig16(ContentionModel::Graph),
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
    for experiment in experiments {
        let name = experiment.name();
        out.push((name.into(), JobSpec::new(experiment, 1).to_json()));
    }

    let traffic = [
        TrafficKind::FullBuffer,
        TrafficKind::OnOff {
            duty: 0.3,
            mean_burst_rounds: 4.0,
        },
    ];
    for kind in traffic {
        let mut spec = JobSpec::new(ExperimentSpec::fig15(), 3);
        spec.traffic = kind;
        out.push((format!("traffic {kind:?}"), spec.to_json()));
    }

    let mut dynamic = JobSpec::new(ExperimentSpec::fig15(), 5);
    dynamic.dynamics = Some(DynamicsSpec {
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
    out.push(("dynamics".into(), dynamic.to_json()));

    let mut physical = JobSpec::new(
        ExperimentSpec::EndToEnd {
            eight_aps: true,
            topologies: 2,
            rounds: 5,
            contention: ContentionModel::physical_calibrated(),
        },
        9,
    );
    physical.threads = Some(2);
    physical.deadline_ms = Some(600_000);
    out.push(("physical fig16".into(), physical.to_json()));
    out
}

/// Decodes one mutant and checks the properties every mutant must hold;
/// returns the error path of a rejected mutant.
fn check(base: &str, mutant: &Json) -> Option<String> {
    let text = mutant.write_compact();
    let decoded = catch_unwind(AssertUnwindSafe(|| JobSpec::from_json_str(&text)))
        .unwrap_or_else(|_| panic!("{base}: decoding panicked on {text}"));
    match decoded {
        Ok(spec) => {
            let again = JobSpec::from_json_str(&spec.to_json().write_pretty())
                .unwrap_or_else(|e| panic!("{base}: re-encoded {text} fails: {e}"));
            assert_eq!(again, spec, "{base}: re-encode changed {text}");
            assert_eq!(again.cache_key(), spec.cache_key(), "{base}: {text}");
            None
        }
        Err(SpecError::Decode(err)) => {
            assert!(err.path.starts_with('$'), "{base}: {text}: {err}");
            Some(err.path)
        }
        Err(other) => panic!("{base}: {text} is JSON, yet: {other}"),
    }
}

#[test]
fn spec_mutations_never_panic_and_errors_point_at_the_broken_field() {
    let mut mutants = 0usize;
    let mut rejected = 0usize;
    for (base, root) in bases() {
        assert!(
            check(&base, &root).is_none(),
            "{base}: the unmutated base must decode"
        );
        let singles = mutations(&root);
        for (a, single) in singles.iter().enumerate() {
            let mutant = apply(&root, single);
            mutants += 1;
            if let Some(path) = check(&base, &mutant) {
                rejected += 1;
                let member = mutated_path(single);
                assert!(
                    related(&path, &member) || CROSS_FIELD_PATHS.contains(&path.as_str()),
                    "{base}: mutating {member} was reported at unrelated {path} ({})",
                    mutant.write_compact()
                );
            }
            // Pairs: two further mutations of this mutant, picked by a
            // fixed stride through its own mutation list.
            let seconds = mutations(&mutant);
            if seconds.is_empty() {
                continue;
            }
            for stride in [7, 31] {
                let second = &seconds[(a * stride + 3) % seconds.len()];
                mutants += 1;
                if check(&base, &apply(&mutant, second)).is_some() {
                    rejected += 1;
                }
            }
        }
    }
    assert!(mutants >= 10_000, "only {mutants} mutants");
    assert!(
        rejected > 0 && rejected < mutants,
        "{rejected} of {mutants} mutants rejected"
    );
}
