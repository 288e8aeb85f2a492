//! Thread-count invariance through the public `MIDAS_THREADS` interface.
//!
//! This binary holds exactly one test on purpose: `std::env::set_var` while
//! another thread calls `getenv` is a libc-level data race, so the override
//! must never run concurrently with sibling tests that read the variable
//! (every `SeedSweep::run` does).  With a single `#[test]`, all mutation and
//! all reads happen on one thread.

use midas::sim::{ExperimentSpec, PairedSamples};
use midas_channel::EnvironmentKind;
use midas_net::capture::ContentionModel;

/// The knob under test, named as users set it.
const THREADS_ENV: &str = "MIDAS_THREADS";

fn fig07_link_snr(topologies: usize, seed: u64) -> PairedSamples {
    ExperimentSpec::LinkSnr { topologies }
        .run(seed)
        .expect_paired()
}

fn end_to_end_network(topologies: usize, rounds: usize, seed: u64) -> PairedSamples {
    ExperimentSpec::EndToEnd {
        eight_aps: false,
        topologies,
        rounds,
        contention: ContentionModel::Graph,
    }
    .run(seed)
    .expect_end_to_end()
    .network
}

#[test]
fn runner_series_are_identical_at_any_midas_threads_setting() {
    // Representative single-sample-per-trial runner at 1 vs 4 workers.
    let run = || {
        ExperimentSpec::MuMimoCapacity {
            environment: EnvironmentKind::OfficeA,
            antennas: 4,
            topologies: 20,
        }
        .run(1234)
        .expect_paired()
    };
    std::env::set_var(THREADS_ENV, "1");
    let serial = run();
    std::env::set_var(THREADS_ENV, "4");
    let parallel = run();
    assert_eq!(serial.cas, parallel.cas);
    assert_eq!(serial.das, parallel.das);

    // Multi-sample-per-trial and multi-AP runners at an odd worker count vs
    // the machine default.
    std::env::set_var(THREADS_ENV, "3");
    let snr = fig07_link_snr(10, 77);
    let e2e = end_to_end_network(4, 5, 77);
    std::env::remove_var(THREADS_ENV);
    assert_eq!(snr.cas, fig07_link_snr(10, 77).cas);
    assert_eq!(snr.das, fig07_link_snr(10, 77).das);
    assert_eq!(e2e.cas, end_to_end_network(4, 5, 77).cas);
    assert_eq!(e2e.das, end_to_end_network(4, 5, 77).das);
}
