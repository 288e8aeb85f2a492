//! The `midas` CLI refuses a mistyped worker knob: it exits 2 with a
//! message naming the knob before it starts the job pool, instead of
//! falling back to the machine's parallelism.  Each knob is set on the
//! child process only, so this test binary's own environment never changes.

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
