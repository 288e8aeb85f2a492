//! Hot-kernel measurements on a workload's own geometry: the spatial-index
//! query, channel realisation, the large-scale row refresh, the counter
//! Gaussian fill, tag-table construction, the power-balanced precoder and
//! SINR evaluation.  Each reports its time per operation next to a
//! deterministic count of the operations (and bytes) it computed.

use std::hint::black_box;

use midas_channel::geometry::Point;
use midas_channel::topology::Topology;
use midas_channel::{ChannelMatrix, ChannelModel, CounterRng};
use midas_mac::tagging::TagTable;
use midas_net::scale::scenario::INTERACTION_MARGIN_DB;
use midas_net::scale::SpatialIndex;
use midas_net::simulator::NetworkSimConfig;
use midas_phy::precoder::{make_precoder, PrecoderKind};
use midas_phy::sinr::SinrMatrix;

use crate::trace::{now, secs_since, span, Tracer};

/// Minimum operations per kernel, so per-operation times are not one
/// timer tick; the pass count that reaches it depends only on the
/// geometry, so the counts repeat exactly for a seed.
const MIN_OPS: usize = 20_000;

/// Streams precoded per AP: the MU-MIMO width of one 4-antenna AP.
const MAX_STREAMS: usize = 4;

fn passes(ops_per_pass: usize) -> usize {
    MIN_OPS.div_ceil(ops_per_pass.max(1))
}

/// Runs every kernel on `topo` and returns `(metric, value)` rows.
pub fn measure(
    topo: &Topology,
    config: &NetworkSimConfig,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let range = config.env.interaction_range_m(INTERACTION_MARGIN_DB);
    let region = topo.region;
    let cell = range.min((region.max.x - region.min.x).max(region.max.y - region.min.y));
    let clients: Vec<Point> = topo.clients.iter().map(|c| c.position).collect();
    let antennas: Vec<Point> = topo.aps.iter().flat_map(|a| a.antennas.clone()).collect();

    // Spatial index: every antenna queries its interaction range.
    let index = SpatialIndex::from_points(region, cell, &clients);
    let reps = passes(antennas.len());
    let mut found = Vec::new();
    let mut neighbors = 0usize;
    let t = now();
    span(tracer, "kernel.index_query", parent, |_| {
        for _ in 0..reps {
            for a in &antennas {
                index.neighbors_within_into(black_box(a), range, &mut found);
                neighbors += found.len();
            }
        }
    });
    let queries = reps * antennas.len();
    out.push(("scale.index_query_ns", secs_since(t) * 1e9 / queries as f64));
    out.push(("scale.index_queries", queries as f64));
    out.push((
        "scale.neighbors_per_query",
        neighbors as f64 / queries as f64,
    ));

    // Channel realisation over each AP's in-range clients, as the
    // simulator's set-up does it.
    let visible: Vec<Vec<Point>> = topo
        .aps
        .iter()
        .map(|ap| {
            let mut ids: Vec<usize> = ap
                .antennas
                .iter()
                .flat_map(|a| index.neighbors_within(a, range))
                .chain(
                    topo.clients
                        .iter()
                        .filter(|c| c.ap_id == ap.ap_id)
                        .map(|c| c.id),
                )
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.iter().map(|&c| clients[c]).collect()
        })
        .collect();
    let links_per_pass: usize = topo
        .aps
        .iter()
        .zip(&visible)
        .map(|(ap, v)| ap.antennas.len() * v.len())
        .sum();
    let mut model = ChannelModel::new(config.env, config.seed);
    let reps = passes(links_per_pass);
    let mut channels: Vec<ChannelMatrix> = Vec::new();
    let t = now();
    span(tracer, "kernel.channel_realize", parent, |_| {
        for _ in 0..reps {
            channels = topo
                .aps
                .iter()
                .zip(&visible)
                .map(|(ap, v)| model.realize_positions(&ap.antennas, v))
                .collect();
        }
    });
    let links = reps * links_per_pass;
    out.push((
        "channel.realize_ns_per_link",
        secs_since(t) * 1e9 / links as f64,
    ));
    out.push(("channel.realize_links", links as f64));

    // Large-scale refresh of every row in place.
    let rows_per_pass: usize = visible.iter().map(Vec::len).sum();
    let reps = passes(rows_per_pass);
    let t = now();
    span(tracer, "kernel.channel_refresh", parent, |_| {
        for _ in 0..reps {
            for ((ap, v), ch) in topo.aps.iter().zip(&visible).zip(channels.iter_mut()) {
                for (row, p) in v.iter().enumerate() {
                    model.refresh_large_scale_row(ch, row, &ap.antennas, p);
                }
            }
        }
    });
    let rows = reps * rows_per_pass;
    out.push((
        "channel.refresh_ns_per_row",
        secs_since(t) * 1e9 / rows as f64,
    ));
    out.push(("channel.refresh_rows", rows as f64));

    // Counter Gaussian fill: one keyed stream per (AP, row), one pair per
    // antenna, as the counter engine fills a row's innovations.
    let width = topo.aps.iter().map(|a| a.antennas.len()).max().unwrap_or(1);
    let mut pairs = vec![(0.0, 0.0); width];
    let reps = passes(rows_per_pass * width);
    let t = now();
    span(tracer, "kernel.gauss_fill", parent, |_| {
        for pass in 0..reps {
            for (ap, v) in visible.iter().enumerate() {
                for row in 0..v.len() {
                    let key = [config.seed, ap as u64, row as u64, pass as u64];
                    CounterRng::from_key(key).fill_gaussian_pairs(&mut pairs);
                    black_box(&pairs);
                }
            }
        }
    });
    let drawn = reps * rows_per_pass * width;
    out.push((
        "channel.gauss_ns_per_pair",
        secs_since(t) * 1e9 / drawn as f64,
    ));
    out.push(("channel.gauss_pairs", drawn as f64));
    out.push(("channel.gauss_bytes", (drawn * 16) as f64));

    // Per-AP own-client channels: the tag tables and the precoder inputs.
    let own: Vec<ChannelMatrix> = topo
        .aps
        .iter()
        .map(|ap| {
            let mine: Vec<Point> = topo
                .clients
                .iter()
                .filter(|c| c.ap_id == ap.ap_id)
                .map(|c| c.position)
                .collect();
            model.realize_positions(&ap.antennas, &mine)
        })
        .filter(|ch| ch.num_clients() > 0)
        .collect();

    let rssi: Vec<Vec<Vec<f64>>> = own
        .iter()
        .map(|ch| {
            (0..ch.num_clients())
                .map(|c| {
                    (0..ch.num_antennas())
                        .map(|k| ch.mean_rssi_dbm(c, k))
                        .collect()
                })
                .collect()
        })
        .collect();
    let reps = passes(rssi.len()) / 10 + 1;
    let t = now();
    span(tracer, "kernel.tag_build", parent, |_| {
        for _ in 0..reps {
            for table in &rssi {
                black_box(TagTable::from_rssi(black_box(table), config.tag_width));
            }
        }
    });
    let builds = reps * rssi.len();
    out.push((
        "mac.tag_build_us",
        secs_since(t) * 1e6 / builds.max(1) as f64,
    ));
    out.push(("mac.tag_builds", builds as f64));

    let subs: Vec<ChannelMatrix> = own
        .iter()
        .map(|ch| {
            let streams: Vec<usize> = (0..ch.num_clients().min(MAX_STREAMS)).collect();
            let all: Vec<usize> = (0..ch.num_antennas()).collect();
            ch.select(&streams, &all)
        })
        .collect();
    let precoder = make_precoder(PrecoderKind::PowerBalanced);
    let reps = passes(subs.len()) / 10 + 1;
    let mut precodings = Vec::new();
    let t = now();
    span(tracer, "kernel.precode", parent, |_| {
        for _ in 0..reps {
            precodings = subs
                .iter()
                .map(|s| precoder.precode(black_box(&s.h), s.tx_power_mw, s.noise_mw))
                .collect();
        }
    });
    let calls = reps * subs.len();
    out.push(("phy.precode_us", secs_since(t) * 1e6 / calls.max(1) as f64));
    out.push(("phy.precode_calls", calls as f64));
    let entries: usize = subs
        .iter()
        .map(|s| s.num_clients() * s.num_antennas())
        .sum();
    out.push(("phy.precode_matrix_entries", (reps * entries) as f64));

    let reps = passes(subs.len());
    let t = now();
    span(tracer, "kernel.sinr", parent, |_| {
        for _ in 0..reps {
            for (s, p) in subs.iter().zip(&precodings) {
                black_box(SinrMatrix::compute(black_box(&s.h), &p.v, s.noise_mw));
            }
        }
    });
    let calls = reps * subs.len();
    out.push(("phy.sinr_ns", secs_since(t) * 1e9 / calls.max(1) as f64));
    out.push(("phy.sinr_calls", calls as f64));
    out
}
