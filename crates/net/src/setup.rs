//! Simulator set-up: which clients each AP keeps channel rows for, and the
//! realisation of those rows with its pure half on several threads.
//!
//! A row's realisation splits in two ([`ChannelModel::large_scale_rows`]
//! and [`ChannelModel::draw_rows`]).  The pure half — row discovery and
//! each link's distance, path loss, shadowing, gain and line-of-sight
//! flag — reads no random stream, so APs' pure halves run over AP chunks
//! on the trial's threads.  The draw half consumes the model's sequential
//! stream, so the calling thread composes it in AP order, and the stream
//! is consumed in the same order at any thread count: every row is
//! bit-identical to a one-thread set-up.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use crate::scale::index::{within, SpatialIndex};
use midas_channel::geometry::Point;
use midas_channel::topology::{Deployment, Topology};

/// In-range links ([`expected_links`]) from which set-up spawns helper
/// threads for the pure half; below it, the calling thread does all of
/// set-up alone.
///
/// Measured on a shared 2-vCPU VM (release build, 2,000 spawns, twice):
/// spawning and joining one scoped thread took 33–34 µs at the median,
/// 144–190 µs at p99 and at most 3.9 ms; an earlier run on the same kind
/// of VM read 73–156 µs at the median, 1.6 ms at p90 and up to 7 ms.  The
/// pure half costs 131–140 ns a link and the draw half 43–51 ns (one
/// `enterprise_office` DAS arm each of 64, 256 and 1024 APs).  A second
/// thread saves at most half the pure half: about 6.5 ms at this
/// threshold, above every p90 spawn+join above.  A 64-AP arm (42.6k
/// links, 50k expected; 5.6–6.0 ms of pure work) stays below it; a 256-AP
/// arm (209k) and a 1024-AP arm (908k) are above it.
pub(crate) const PARALLEL_SETUP_MIN_LINKS: f64 = 100_000.0;

/// APs a thread claims at a time.
const APS_PER_CHUNK: usize = 4;

/// The floor's in-range links as its density predicts them: each antenna
/// reaches the clients of a disc of radius `cutoff` (every client at
/// infinite range).  An estimate made before any row is found, for the
/// size gate alone.
pub(crate) fn expected_links(topo: &Topology, cutoff: f64) -> f64 {
    let antennas: usize = topo.aps.iter().map(|ap| ap.antennas.len()).sum();
    let r = &topo.region;
    let area = (r.max.x - r.min.x) * (r.max.y - r.min.y);
    let reach = (std::f64::consts::PI * cutoff * cutoff / area).min(1.0);
    antennas as f64 * topo.clients.len() as f64 * reach
}

/// The clients `ap` keeps channel rows for, ascending: every client within
/// `cutoff` of one of its antennas (their signal and interference is
/// exactly zero beyond it), plus its own clients, so scheduling state is
/// always defined.  Without an index (infinite range) that is every
/// client.
///
/// One index query per AP, at the centroid of its antennas, over `cutoff`
/// plus the farthest antenna's distance from the centroid, widened far
/// beyond rounding: by the triangle inequality it returns every client in
/// range of any antenna.  A candidate is kept when `within(antenna, client,
/// cutoff)` holds for at least one antenna, the predicate a query per
/// antenna decides, so the row set is the union of per-antenna queries.
pub(crate) fn ap_row_clients(
    ap: &Deployment,
    index: Option<&SpatialIndex>,
    own: &[usize],
    num_clients: usize,
    cutoff: f64,
) -> Vec<u32> {
    let Some(index) = index else {
        return (0..num_clients as u32).collect();
    };
    let mut clients: Vec<u32> = own.iter().map(|&c| c as u32).collect();
    if !ap.antennas.is_empty() {
        let n = ap.antennas.len() as f64;
        let (sx, sy) = ap
            .antennas
            .iter()
            .fold((0.0, 0.0), |(x, y), a| (x + a.x, y + a.y));
        let centroid = Point::new(sx / n, sy / n);
        let reach = ap
            .antennas
            .iter()
            .map(|a| a.distance(&centroid))
            .fold(0.0, f64::max);
        let radius = (cutoff + reach) * (1.0 + 1e-6) + 1e-6;
        let points = index.points();
        index.for_each_within(&centroid, radius, |c| {
            if ap.antennas.iter().any(|a| within(a, &points[c], cutoff)) {
                clients.push(c as u32);
            }
        });
    }
    clients.sort_unstable();
    clients.dedup();
    clients.shrink_to_fit();
    clients
}

/// The pipeline's state: the claim cursor, the finished chunks not yet
/// composed, and a helper's panic.
struct Pipeline<T> {
    next: usize,
    done: Vec<Option<Vec<T>>>,
    panic: Option<Box<dyn Any + Send>>,
}

/// Locks the pipeline.  No thread runs `pure` or `compose` while holding
/// the lock, and each update under it is one assignment, so the state is
/// valid even if the lock was poisoned.
fn lock<T>(state: &Mutex<Pipeline<T>>) -> MutexGuard<'_, Pipeline<T>> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `pure` over `0..items` on up to `threads` threads and hands the
/// results to `compose` on the calling thread, in item order.
///
/// Items go out in chunks of [`APS_PER_CHUNK`], claimed in order by
/// `threads − 1` helpers and the calling thread.  The caller composes
/// chunk `c` as soon as it is ready; otherwise it claims the next
/// unclaimed chunk itself, so it waits only when every chunk is claimed.
/// A chunk's results are held only until the caller reaches it.  A helper
/// that panics re-raises its payload on the caller.  With one thread
/// nothing is spawned.
pub(crate) fn ordered_map<T: Send>(
    items: usize,
    threads: usize,
    pure: impl Fn(usize) -> T + Sync,
    mut compose: impl FnMut(T),
) {
    let chunks = items.div_ceil(APS_PER_CHUNK);
    if threads <= 1 || chunks <= 1 {
        for i in 0..items {
            compose(pure(i));
        }
        return;
    }
    let run = |c: usize| -> Vec<T> {
        (c * APS_PER_CHUNK..((c + 1) * APS_PER_CHUNK).min(items))
            .map(&pure)
            .collect()
    };
    let state = Mutex::new(Pipeline {
        next: 0,
        done: (0..chunks).map(|_| None).collect(),
        panic: None,
    });
    let ready = Condvar::new();
    thread::scope(|scope| {
        for _ in 1..threads.min(chunks) {
            scope.spawn(|| loop {
                let c = {
                    let mut s = lock(&state);
                    if s.next >= chunks {
                        return;
                    }
                    s.next += 1;
                    s.next - 1
                };
                let out = catch_unwind(AssertUnwindSafe(|| run(c)));
                let mut s = lock(&state);
                match out {
                    Ok(out) => s.done[c] = Some(out),
                    Err(payload) => {
                        s.panic = Some(payload);
                        s.next = chunks;
                    }
                }
                ready.notify_all();
            });
        }
        for c in 0..chunks {
            let mut s = lock(&state);
            let out = loop {
                if let Some(payload) = s.panic.take() {
                    drop(s);
                    resume_unwind(payload);
                }
                if let Some(out) = s.done[c].take() {
                    break out;
                }
                if s.next < chunks {
                    let claim = s.next;
                    s.next += 1;
                    drop(s);
                    let out = run(claim);
                    if claim == c {
                        break out;
                    }
                    s = lock(&state);
                    s.done[claim] = Some(out);
                } else {
                    s = ready.wait(s).unwrap_or_else(PoisonError::into_inner);
                }
            };
            out.into_iter().for_each(&mut compose);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::Barrier;

    /// Holds the first items of chunks 0 and 1 until two threads reach
    /// them: chunks are claimed in order, so with two threads each takes
    /// one of the two, and the helper surely computes one.
    fn meet(barrier: &Barrier, i: usize) {
        if i == 0 || i == APS_PER_CHUNK {
            barrier.wait();
        }
    }

    #[test]
    fn results_compose_in_item_order_at_any_thread_count() {
        for threads in [1, 3, 8] {
            for items in [0, 1, 4, 5, 37] {
                let mut seen = Vec::new();
                ordered_map(items, threads, |i| (i, i * i), |t| seen.push(t));
                let want: Vec<(usize, usize)> = (0..items).map(|i| (i, i * i)).collect();
                assert_eq!(seen, want, "{threads} threads, {items} items");
            }
        }
        // Two threads, both forced to take part.
        let barrier = Barrier::new(2);
        let mut seen = Vec::new();
        let mut workers = Vec::new();
        ordered_map(
            37,
            2,
            |i| {
                meet(&barrier, i);
                (i, thread::current().id())
            },
            |(i, id)| {
                seen.push(i);
                if !workers.contains(&id) {
                    workers.push(id);
                }
            },
        );
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
        assert_eq!(workers.len(), 2);
    }

    #[test]
    fn a_panicking_helper_re_raises_its_payload_on_the_caller() {
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            ordered_map(
                40,
                2,
                |i| {
                    meet(&barrier, i);
                    if thread::current().id() != caller {
                        panic!("a helper exploded");
                    }
                    i
                },
                |_| {},
            );
        }));
        let payload = result.expect_err("the panic should propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "a helper exploded");
    }
}
