//! The `midas` CLI refuses bad input before it starts the job pool.  A
//! mistyped, blank or non-UTF-8 worker knob exits 2 with a message naming
//! the knob, instead of falling back to the machine's parallelism; each
//! knob is set on the child process only, so this test binary's own
//! environment never changes.  A degenerate spec, or one that sets a
//! removed key, exits 3 naming the field, and no job directory is made.

use std::ffi::OsString;
use std::path::Path;
use std::process::Command;

const WORKER_KNOBS: [&str; 2] = ["MIDAS_THREADS", "MIDAS_SVC_WORKERS"];

/// Runs `midas run specs/smoke_3ap.json` with `knob=value` in the child's
/// environment and returns `(exit code, stderr)`.
fn run_with(knob: &str, value: impl Into<OsString>) -> (Option<i32>, String) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let jobs_dir =
        std::env::temp_dir().join(format!("midas-cli-knobs-{knob}-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_midas"))
        .arg("run")
        .arg(root.join("specs/smoke_3ap.json"))
        .arg("--jobs-dir")
        .arg(&jobs_dir)
        .env(knob, value.into())
        .output()
        .expect("the midas binary runs");
    let _ = std::fs::remove_dir_all(&jobs_dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `midas run` on a spec file holding `text` and returns `(exit code,
/// stderr, whether a jobs directory was made)`.
fn run_spec(name: &str, text: &str) -> (Option<i32>, String, bool) {
    let dir = std::env::temp_dir().join(format!("midas-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, text).unwrap();
    let jobs_dir = dir.join("jobs");
    let out = Command::new(env!("CARGO_BIN_EXE_midas"))
        .arg("run")
        .arg(&spec)
        .arg("--jobs-dir")
        .arg(&jobs_dir)
        .output()
        .expect("the midas binary runs");
    let made_a_job = jobs_dir.exists();
    let _ = std::fs::remove_dir_all(&dir);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        made_a_job,
    )
}

#[test]
fn a_mistyped_worker_knob_exits_2_naming_the_knob() {
    for knob in WORKER_KNOBS {
        for (value, shown) in [("x", "\"x\""), ("", "\"\""), ("  ", "\"  \"")] {
            let (code, stderr) = run_with(knob, value);
            assert_eq!(code, Some(2), "{knob}={value:?}: stderr {stderr}");
            assert!(
                stderr.contains(&format!("{knob}: cannot parse {shown}")),
                "{knob}={value:?}: stderr {stderr}"
            );
        }
    }
}

#[cfg(unix)]
#[test]
fn a_worker_knob_that_is_not_utf8_exits_2_naming_the_knob() {
    use std::os::unix::ffi::OsStringExt;
    for knob in WORKER_KNOBS {
        let (code, stderr) = run_with(knob, OsString::from_vec(vec![0xff]));
        assert_eq!(code, Some(2), "{knob}: stderr {stderr}");
        assert!(
            stderr.contains(&format!("{knob}: \"\\xFF\" is not valid UTF-8")),
            "{knob}: stderr {stderr}"
        );
    }
}

#[test]
fn a_degenerate_spec_exits_3_naming_the_field_and_makes_no_job() {
    let (code, stderr, made_a_job) = run_spec(
        "degenerate",
        r#"{"experiment": {"kind": "fig15_three_ap_end_to_end", "topologies": 0,
                           "rounds": 3, "contention": {"model": "graph"}},
            "seed": 7}"#,
    );
    assert_eq!(code, Some(3), "stderr {stderr}");
    assert!(
        stderr.contains("$.experiment.topologies"),
        "stderr {stderr}"
    );
    assert!(
        !made_a_job,
        "a rejected spec must not create a job directory"
    );
}

#[test]
fn a_spec_setting_the_removed_channel_cache_key_exits_3_naming_it() {
    let (code, stderr, made_a_job) = run_spec(
        "removed-key",
        r#"{"experiment": {"kind": "fig15_three_ap_end_to_end", "topologies": 2,
                           "rounds": 3, "contention": {"model": "graph"}},
            "seed": 7, "coherence_interval_rounds": 4}"#,
    );
    assert_eq!(code, Some(3), "stderr {stderr}");
    assert!(
        stderr.contains("unknown key \"coherence_interval_rounds\""),
        "stderr {stderr}"
    );
    assert!(
        !made_a_job,
        "a rejected spec must not create a job directory"
    );
}
