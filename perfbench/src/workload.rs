//! The workloads and their seeded `JobSpec` generator.
//!
//! The program only ever sees the generated JSON text.  The specs set no
//! `engine` key, so every workload runs the library's default fading
//! engine, and they pin `threads` so the compute threads in flight never
//! exceed [`THREADS`] whatever the environment says.

use midas_channel::CounterRng;
use midas_net::capture::PhysicalConfig;
use midas_net::dynamics::DynamicsSpec;
use midas_svc::spec::dynamics_to_json;

/// Sweep workers pinned in every spec.
pub const THREADS: usize = 2;

/// Job-queue workers.  With one job outstanding at a time, at most
/// `THREADS` compute threads run at once.
pub const WORKERS: usize = 1;

/// Per-job deadline written into every spec; a job that hits it counts as
/// failed instead of stalling the run.
const DEADLINE_MS: u64 = 120_000;

/// What one workload's specs simulate.
#[derive(Debug, Clone, Copy)]
enum Floor {
    /// The §5.5 Fig. 16 8-AP simulation under calibrated physical
    /// contention.
    Fig16 { topologies: usize, rounds: usize },
    /// An `enterprise_office` floor, optionally with every client walking
    /// and roaming (`DynamicsSpec::roaming_walk`).
    Enterprise {
        aps: usize,
        topologies: usize,
        rounds: usize,
        walking_mps: Option<f64>,
    },
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Distinct specs (cache misses) per repetition.
    pub misses_per_rep: usize,
    /// Re-submissions of already-finished specs after each miss (cache
    /// hits).
    pub hits_per_miss: usize,
    /// Seed salt: workloads with the same salt draw the same spec seeds,
    /// so `_static` and `_mobile` run the same floors.
    salt: u64,
    floor: Floor,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_fig16_jobs",
        misses_per_rep: 4,
        hits_per_miss: 5,
        salt: 0x16,
        floor: Floor::Fig16 {
            topologies: 15,
            rounds: 10,
        },
    },
    Workload {
        name: "enterprise_64ap_static",
        misses_per_rep: 1,
        hits_per_miss: 40,
        salt: 0x64,
        floor: Floor::Enterprise {
            aps: 64,
            topologies: 1,
            rounds: 12,
            walking_mps: None,
        },
    },
    Workload {
        name: "enterprise_64ap_mobile",
        misses_per_rep: 1,
        hits_per_miss: 40,
        salt: 0x64,
        floor: Floor::Enterprise {
            aps: 64,
            topologies: 1,
            rounds: 12,
            walking_mps: Some(1.4),
        },
    },
    Workload {
        name: "metro_1024ap_setup",
        misses_per_rep: 1,
        hits_per_miss: 100,
        salt: 0x400,
        floor: Floor::Enterprise {
            aps: 1024,
            topologies: 1,
            rounds: 4,
            walking_mps: None,
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Whether the pooled output is checked against the Fig. 16 band.
    pub fn checks_fig16_band(&self) -> bool {
        matches!(self.floor, Floor::Fig16 { .. })
    }

    /// The spec texts of repetition `rep` under benchmark seed `seed`.
    pub fn spec_texts(&self, seed: u64, rep: usize) -> Vec<String> {
        (0..self.misses_per_rep)
            .map(|i| {
                let mut rng = CounterRng::from_key([seed, self.salt, rep as u64, i as u64]);
                self.spec_text(rng.next_u64() >> 16)
            })
            .collect()
    }

    /// Which finished spec (index `0..=miss`) hit `hit` after miss `miss`
    /// re-submits.
    pub fn hit_target(&self, seed: u64, rep: usize, miss: usize, hit: usize) -> usize {
        let key = [seed ^ 0x4817, rep as u64, miss as u64, hit as u64];
        (CounterRng::from_key(key).next_u64() % (miss as u64 + 1)) as usize
    }

    fn spec_text(&self, spec_seed: u64) -> String {
        let tail =
            format!("\"seed\":{spec_seed},\"threads\":{THREADS},\"deadline_ms\":{DEADLINE_MS}");
        match self.floor {
            Floor::Fig16 { topologies, rounds } => {
                let c = PhysicalConfig::calibrated();
                let sigma = c
                    .sensing_sigma_db
                    .map_or(String::new(), |s| format!(",\"sensing_sigma_db\":{s:?}"));
                format!(
                    "{{\"experiment\":{{\"kind\":\"fig16_eight_ap_simulation\",\
                     \"topologies\":{topologies},\"rounds\":{rounds},\
                     \"contention\":{{\"model\":\"physical\",\"cs_threshold_dbm\":{:?},\
                     \"capture_margin_db\":{:?}{sigma}}}}},{tail}}}",
                    c.cs_threshold_dbm, c.capture_margin_db
                )
            }
            Floor::Enterprise {
                aps,
                topologies,
                rounds,
                walking_mps,
            } => {
                let dynamics = walking_mps.map_or(String::new(), |speed| {
                    format!(
                        ",\"dynamics\":{}",
                        dynamics_to_json(&DynamicsSpec::roaming_walk(speed)).write_compact()
                    )
                });
                format!(
                    "{{\"experiment\":{{\"kind\":\"enterprise_scaling\",\
                     \"scenario\":\"enterprise_office\",\"aps\":{aps},\
                     \"topologies\":{topologies},\"rounds\":{rounds}}},{tail}{dynamics}}}"
                )
            }
        }
    }
}
