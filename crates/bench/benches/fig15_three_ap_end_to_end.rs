//! Fig. 15 — end-to-end 3-AP network capacity, CAS vs MIDAS.
use midas::sim::ExperimentSpec;
use midas_bench::{Figure, BENCH_SEED};

fn main() {
    let s = ExperimentSpec::fig15()
        .run(BENCH_SEED)
        .expect_end_to_end()
        .network;
    let mut fig = Figure::new("fig15_three_ap_end_to_end").with_seed(BENCH_SEED);
    fig.cdf("fig15 CAS network capacity (bit/s/Hz)", &s.cas);
    fig.cdf("fig15 MIDAS network capacity (bit/s/Hz)", &s.das);
    fig.gain("fig15 3-AP end-to-end", &s.cas, &s.das);
    fig.note("paper: ~200% capacity gain over CAS (see README, \"The Fig. 15 gap\")");
    fig.emit();
}
