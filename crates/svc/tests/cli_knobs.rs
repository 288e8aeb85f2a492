//! The `midas` CLI refuses bad input before it starts the job pool.  A
//! mistyped worker knob exits 2 with a message naming the knob, instead of
//! falling back to the machine's parallelism; each knob is set on the child
//! process only, so this test binary's own environment never changes.  A
//! degenerate spec exits 3 naming the field, and no job directory is made.

use std::path::Path;
use std::process::Command;

/// Runs `midas run specs/smoke_3ap.json` with `knob=value` in the child's
/// environment and returns `(exit code, stderr)`.
fn run_with(knob: &str, value: &str) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let jobs_dir =
        std::env::temp_dir().join(format!("midas-cli-knobs-{knob}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_midas"))
        .arg("run")
        .arg(root.join("specs/smoke_3ap.json"))
        .arg("--jobs-dir")
        .arg(&jobs_dir)
        .env(knob, value)
        .output()
        .expect("the midas binary runs");
    let _ = std::fs::remove_dir_all(&jobs_dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_mistyped_worker_knob_exits_2_naming_the_knob() {
    for knob in ["MIDAS_THREADS", "MIDAS_SVC_WORKERS"] {
        let (code, stderr) = run_with(knob, "x");
        assert_eq!(code, Some(2), "{knob}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("{knob}: cannot parse \"x\"")),
            "{knob}: stderr {stderr}"
        );
    }
}

#[test]
fn a_degenerate_spec_exits_3_naming_the_field_and_makes_no_job() {
    let dir = std::env::temp_dir().join(format!("midas-cli-degenerate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("zero_topologies.json");
    std::fs::write(
        &spec,
        r#"{"experiment": {"kind": "fig15_three_ap_end_to_end", "topologies": 0,
                           "rounds": 3, "contention": {"model": "graph"}},
            "seed": 7}"#,
    )
    .unwrap();
    let jobs_dir = dir.join("jobs");
    let out = Command::new(env!("CARGO_BIN_EXE_midas"))
        .arg("run")
        .arg(&spec)
        .arg("--jobs-dir")
        .arg(&jobs_dir)
        .output()
        .expect("the midas binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let made_a_job = jobs_dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(3), "stderr {stderr}");
    assert!(
        stderr.contains("$.experiment.topologies"),
        "stderr {stderr}"
    );
    assert!(
        !made_a_job,
        "a rejected spec must not create a job directory"
    );
}
