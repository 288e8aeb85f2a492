//! Uniform-grid spatial index over floor-plan points.
//!
//! Enterprise-scale deployments (tens of APs, hundreds of clients) turn the
//! pairwise carrier-sense / interference sweeps of the simulator into the
//! bottleneck: every antenna asking "who can I hear?" against every active
//! transmitter is O(n²) per round.  Radio interaction is short-range, though
//! — beyond the environment's interaction range (see
//! `Environment::interaction_range_m`) a transmitter is far below the
//! receiver sensitivity floor — so the index buckets points into a uniform
//! grid of cells and answers *neighbourhood* queries by scanning only the
//! cells overlapping the query disc: O(k) per query for bounded density.
//!
//! Determinism contract: [`SpatialIndex::neighbors_within`] returns ids in
//! **ascending insertion order**, and membership is decided by the exact
//! predicate `distance(p, q) <= radius`.  A caller that folds over the
//! returned ids therefore reproduces a brute-force scan over the insertion
//! list — same subset, same order, bit-identical floating-point sums — which
//! is what lets the simulator swap scan implementations without perturbing a
//! single figure (see `proptest_scale.rs` for the property tests).
//!
//! The predicate is decided by `within`, which compares squared
//! distances and calls `hypot` only where the squares are too close to
//! call: every decision is the one `distance(p, q) <= radius` makes.
//!
//! [`NeighborTracker`] layers moving query points on top: it answers "which
//! groups (APs) have a point within range of this client?" under the same
//! exact predicate, but re-queries a moving client only once it has
//! travelled farther than its distance to the nearest range boundary — the
//! one neighbour helper behind both the dynamic channel-row membership and
//! the roaming candidate sets.

use midas_channel::geometry::{Point, Rect};

/// Relative half-width of the band around a squared distance inside which
/// a comparison of squares is too close to call and is left to `hypot`
/// (and, in roaming, to the dB score).  The computed square `dx² + dy²`
/// and `hypot` are each within a few ulps (~1e-15) of exact, so outside
/// the band both sides of a comparison agree by a wide margin.
pub(crate) const SQUARE_BAND: f64 = 1e-9;

/// Whether `p.distance(q) <= r`, decided bit for bit as that expression
/// decides it, mostly without its `hypot`.
///
/// `dx² + dy²` is compared with `r²·(1 ∓ SQUARE_BAND)`; a square inside
/// that band, a zero, subnormal, infinite or NaN square (underflow or
/// overflow lost its relative precision), a non-positive `r` and an `r²`
/// that is not a normal number all fall back to `hypot`.  An infinite `r`
/// holds every point with a finite square, as `hypot` would.
#[inline]
pub(crate) fn within(q: &Point, p: &Point, r: f64) -> bool {
    let d2 = squared_distance(q, p);
    let r2 = r * r;
    if r > 0.0 && d2.is_normal() && r2.is_normal() {
        if d2 < r2 * (1.0 - SQUARE_BAND) {
            return true;
        }
        if d2 > r2 * (1.0 + SQUARE_BAND) {
            return false;
        }
    } else if r == f64::INFINITY && d2.is_finite() {
        return true;
    }
    p.distance(q) <= r
}

/// `|pq|²`, with the differences `p.distance(q)` takes.
#[inline]
pub(crate) fn squared_distance(q: &Point, p: &Point) -> f64 {
    let (dx, dy) = (p.x - q.x, p.y - q.y);
    dx * dx + dy * dy
}

/// A uniform-grid spatial index over 2-D points.
///
/// Points may fall outside the nominal bounds (generators clamp antennas to
/// the region, but callers are not required to): they are binned into the
/// nearest edge cell, and queries clamp their cell window the same way, so
/// no point is ever missed.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    bounds: Rect,
    cell_m: f64,
    cols: usize,
    rows: usize,
    /// `cells[row * cols + col]` holds the ids of the points binned there.
    cells: Vec<Vec<u32>>,
    points: Vec<Point>,
    /// Indices of the currently occupied cells, so [`SpatialIndex::clear`]
    /// touches O(occupied) cells instead of sweeping the whole grid.
    touched: Vec<u32>,
}

impl SpatialIndex {
    /// Creates an empty index over `bounds` with the given cell size.
    ///
    /// The natural cell size is the dominant query radius (the carrier-sense
    /// / interaction range): a radius-`r` query then touches at most a 3×3
    /// cell window.  The cell size is clamped below so a tiny value cannot
    /// allocate an unbounded grid, and a non-finite cell size (an infinite
    /// interaction range, i.e. "no truncation") is sized from the bounding
    /// box instead: `cols`/`rows` would otherwise collapse to a degenerate
    /// one-cell grid whose query windows divide ∞/∞ into NaN cell
    /// coordinates — every lookup then funnels through cell (0, 0) and the
    /// index silently degrades to a linear scan.
    pub fn new(bounds: Rect, cell_m: f64) -> Self {
        let cell_m = if cell_m.is_finite() {
            cell_m.max(1.0)
        } else {
            bounds.width().max(bounds.height()).max(1.0)
        };
        let cols = (bounds.width() / cell_m).ceil() as usize + 1;
        let rows = (bounds.height() / cell_m).ceil() as usize + 1;
        SpatialIndex {
            bounds,
            cell_m,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            points: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Builds an index over `bounds` containing all of `points`.
    pub fn from_points(bounds: Rect, cell_m: f64, points: &[Point]) -> Self {
        let mut index = SpatialIndex::new(bounds, cell_m);
        for &p in points {
            index.insert(p);
        }
        index
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The indexed points, in insertion (id) order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Cell coordinate along one axis, clamped into the grid.
    fn axis_cell(&self, coord: f64, min: f64, count: usize) -> usize {
        let raw = (coord - min) / self.cell_m;
        raw.floor().clamp(0.0, (count - 1) as f64) as usize
    }

    fn cell_of(&self, p: &Point) -> (usize, usize) {
        (
            self.axis_cell(p.x, self.bounds.min.x, self.cols),
            self.axis_cell(p.y, self.bounds.min.y, self.rows),
        )
    }

    /// Inserts a point and returns its id (ids are dense, in insertion order).
    pub fn insert(&mut self, p: Point) -> usize {
        let id = self.points.len();
        let (col, row) = self.cell_of(&p);
        let cell_idx = row * self.cols + col;
        let cell = &mut self.cells[cell_idx];
        if cell.is_empty() {
            self.touched.push(cell_idx as u32);
        }
        cell.push(id as u32);
        self.points.push(p);
        id
    }

    /// Empties the index while keeping every allocation (grid, per-cell id
    /// lists, point list).  Only the occupied cells are visited, so a
    /// clear-and-refill round costs O(points), not O(grid cells) — this is
    /// what lets the simulator keep one persistent index per purpose instead
    /// of rebuilding (and reallocating) it every round.
    pub fn clear(&mut self) {
        for &c in &self.touched {
            self.cells[c as usize].clear();
        }
        self.touched.clear();
        self.points.clear();
    }

    /// Bytes of heap the index currently retains (capacities, not lengths).
    /// Stable across clear/refill cycles once warm, which the steady-state
    /// allocation tests assert.
    pub fn heap_footprint_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .cells
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.points.capacity() * std::mem::size_of::<Point>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }

    /// Ids of every indexed point within `radius` of `p` (inclusive), in
    /// ascending id order.
    ///
    /// An infinite radius degrades gracefully to "every point" — the cell
    /// window clamps to the whole grid — so callers can use one code path
    /// whether or not a finite interaction range is configured.
    pub fn neighbors_within(&self, p: &Point, radius: f64) -> Vec<usize> {
        let mut ids = Vec::new();
        self.neighbors_within_into(p, radius, &mut ids);
        ids
    }

    /// Allocation-free variant of [`SpatialIndex::neighbors_within`]: clears
    /// `out` and fills it with the matching ids in ascending id order.  The
    /// round loop reuses one scratch buffer across every query of a round.
    pub fn neighbors_within_into(&self, p: &Point, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_within(p, radius, |id| out.push(id));
        out.sort_unstable();
    }

    /// Calls `visit(id)` for every indexed point within `radius` of `p`
    /// (the exact predicate `point.distance(p) <= radius`, decided by
    /// [`within`]), in unspecified order.
    pub(crate) fn for_each_within(&self, p: &Point, radius: f64, mut visit: impl FnMut(usize)) {
        debug_assert!(radius >= 0.0, "negative query radius");
        let col_lo = self.axis_cell(p.x - radius, self.bounds.min.x, self.cols);
        let col_hi = self.axis_cell(p.x + radius, self.bounds.min.x, self.cols);
        let row_lo = self.axis_cell(p.y - radius, self.bounds.min.y, self.rows);
        let row_hi = self.axis_cell(p.y + radius, self.bounds.min.y, self.rows);
        for row in row_lo..=row_hi {
            for col in col_lo..=col_hi {
                for &id in &self.cells[row * self.cols + col] {
                    if within(p, &self.points[id as usize], radius) {
                        visit(id as usize);
                    }
                }
            }
        }
    }

    /// Reference implementation of [`SpatialIndex::neighbors_within`]: a
    /// linear scan over the insertion list, deciding every point with
    /// `hypot`.  Used by the equivalence property tests and usable by
    /// callers that want the brute-force path explicitly.
    // lint: allow(unreachable-pub) — proptest_scale checks neighbors_within against it
    pub fn brute_force_within(points: &[Point], p: &Point, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, q)| q.distance(p) <= radius)
            .map(|(id, _)| id)
            .collect()
    }
}

/// How far past the tracking radius a re-query looks, as a fraction of
/// the radius: the slack it records is capped there.
const SLACK_REACH: f64 = 0.25;

/// Rounding margin (metres) taken off every slack, so floating-point error
/// in the distances can never hide a membership flip.
const SLACK_MARGIN_M: f64 = 1e-6;

/// Slack-tracked radius membership of moving points against a fixed set
/// of grouped points.
///
/// Each mover (a client) keeps the ascending, deduplicated list of groups
/// (APs) that own a fixed point (an antenna or a chassis) within `radius`
/// of it — the exact predicate `fixed.distance(mover) <= radius` of a
/// fresh neighbourhood query, decided by `within`.  A query also records
/// the mover's *slack*: its distance to the nearest radius boundary,
/// `min |d − radius|` over the fixed points within the query reach (capped
/// at `SLACK_REACH · radius`), less a rounding margin.  `|d − radius|` is
/// smallest at the farthest point inside and the nearest point outside, so
/// the query ranks the points by squared distance and takes `hypot` only
/// at those two extremes (and at every point within `SQUARE_BAND` of
/// them, so rounding cannot pick the wrong one): the slack is bit for bit
/// the one a `hypot` at every point gives.  By the triangle inequality no
/// membership can flip while the mover stays within its slack of where it
/// was queried, so [`NeighborTracker::update`] re-queries only once the
/// mover has travelled farther than that — at walking speed, once every
/// few dozen steps rather than every step.
#[derive(Debug, Clone)]
pub struct NeighborTracker {
    /// The fixed points, indexed at the query reach.
    fixed: SpatialIndex,
    /// Group of each fixed point.
    group_of: Vec<u32>,
    radius: f64,
    /// Query radius: `radius` plus the slack cap.
    reach: f64,
    /// Per mover: where it was last queried, and its slack there.
    anchor: Vec<Point>,
    slack: Vec<f64>,
    /// Per mover: groups within `radius`, ascending.
    groups: Vec<Vec<u32>>,
    /// Query scratch: the fixed points within reach of the mover being
    /// queried, with whether each is within `radius`.
    near: Vec<(u32, bool)>,
    requeries: usize,
}

impl NeighborTracker {
    /// Tracks `movers` against `fixed` (point `i` belongs to group
    /// `group_of[i]`) at `radius`, querying every mover once.  `bounds` is
    /// the floor the fixed points are indexed over.
    pub fn new(
        bounds: Rect,
        fixed: &[Point],
        group_of: &[u32],
        radius: f64,
        movers: &[Point],
    ) -> Self {
        assert_eq!(fixed.len(), group_of.len(), "one group per fixed point");
        let reach = radius + radius * SLACK_REACH;
        let mut tracker = NeighborTracker {
            fixed: SpatialIndex::from_points(bounds, reach, fixed),
            group_of: group_of.to_vec(),
            radius,
            reach,
            anchor: movers.to_vec(),
            slack: vec![0.0; movers.len()],
            groups: vec![Vec::new(); movers.len()],
            near: Vec::new(),
            requeries: 0,
        };
        for (mover, &p) in movers.iter().enumerate() {
            tracker.query(mover, p);
        }
        tracker
    }

    /// Groups with a fixed point within the radius of `mover`, ascending.
    pub fn groups(&self, mover: usize) -> &[u32] {
        &self.groups[mover]
    }

    /// Whether `mover`, now at `p`, is still inside its slack disc — no
    /// membership can have changed since its last query.
    pub fn is_settled(&self, mover: usize, p: &Point) -> bool {
        self.anchor[mover].distance(p) < self.slack[mover]
    }

    /// Re-queries `mover` at `p` unconditionally.
    pub fn requery(&mut self, mover: usize, p: Point) {
        self.requeries += 1;
        self.query(mover, p);
    }

    /// Moves `mover` to `p`, re-querying only if it left its slack disc;
    /// returns whether it re-queried.
    pub fn update(&mut self, mover: usize, p: Point) -> bool {
        if self.is_settled(mover, &p) {
            return false;
        }
        self.requery(mover, p);
        true
    }

    /// Re-queries performed since construction.
    pub fn requeries(&self) -> usize {
        self.requeries
    }

    /// Bytes of heap the tracker retains (capacities, not lengths).
    pub fn heap_footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fixed.heap_footprint_bytes()
            + self.group_of.capacity() * size_of::<u32>()
            + self.anchor.capacity() * size_of::<Point>()
            + self.slack.capacity() * size_of::<f64>()
            + self.near.capacity() * size_of::<(u32, bool)>()
            + self.groups.capacity() * size_of::<Vec<u32>>()
            + self
                .groups
                .iter()
                .map(|g| g.capacity() * size_of::<u32>())
                .sum::<usize>()
    }

    fn query(&mut self, mover: usize, p: Point) {
        let groups = &mut self.groups[mover];
        groups.clear();
        let (radius, group_of, points) = (self.radius, &self.group_of, self.fixed.points());
        let near = &mut self.near;
        near.clear();
        // The largest normal square inside and the smallest outside.
        let (mut far_in, mut near_out) = (0.0_f64, f64::INFINITY);
        self.fixed.for_each_within(&p, self.reach, |id| {
            let q = &points[id];
            let inside = within(&p, q, radius);
            if inside {
                groups.push(group_of[id]);
            }
            near.push((id as u32, inside));
            let d2 = squared_distance(&p, q);
            if d2.is_normal() {
                if inside {
                    far_in = far_in.max(d2);
                } else {
                    near_out = near_out.min(d2);
                }
            }
        });
        groups.sort_unstable();
        groups.dedup();
        // `radius − d` falls and `d − radius` grows with `d`, so the
        // minimum is attained at the candidates: every point whose square
        // is within the band of its side's extreme or is not normal.
        let (in_floor, out_ceiling) =
            (far_in * (1.0 - SQUARE_BAND), near_out * (1.0 + SQUARE_BAND));
        let mut slack = radius * SLACK_REACH;
        for &(id, inside) in near.iter() {
            let q = &points[id as usize];
            let d2 = squared_distance(&p, q);
            let candidate = !d2.is_normal()
                || if inside {
                    d2 >= in_floor
                } else {
                    d2 <= out_ceiling
                };
            if candidate {
                let d = q.distance(&p);
                slack = slack.min(if inside { radius - d } else { d - radius });
            }
        }
        self.anchor[mover] = p;
        self.slack[mover] = slack - SLACK_MARGIN_M;
    }
}

/// `x` moved by `ulps` units in the last place, upwards for a positive
/// `ulps` (finite, nonzero `x`).
#[cfg(test)]
pub(crate) fn nudge(x: f64, ulps: i64) -> f64 {
    let bits = x.to_bits() as i64 + ulps * x.signum() as i64;
    f64::from_bits(bits as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_channel::SimRng;
    use proptest::prelude::*;

    /// The decision [`within`] must reproduce, on `hypot`.
    fn hypot_within(q: &Point, p: &Point, r: f64) -> bool {
        p.distance(q) <= r
    }

    #[test]
    fn within_agrees_with_hypot_at_the_edges() {
        let origin = Point::new(0.0, 0.0);
        let mut points = vec![
            origin,
            Point::new(5e-324, 0.0),
            Point::new(1e-200, -1e-200),
            Point::new(3e-160, 4e-160),
            Point::new(1e200, 0.0),
            Point::new(-1e300, 1e300),
            Point::new(f64::MAX, f64::MAX),
            Point::new(f64::INFINITY, 1.0),
            Point::new(f64::NAN, 1.0),
        ];
        let mut radii = vec![
            0.0,
            -0.0,
            -1.0,
            f64::INFINITY,
            f64::NAN,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            1e-160,
            1.0,
            1e154,
            1e200,
            f64::MAX,
        ];
        // Scaled 3-4-5 triples: the point on the circle, and 1 and 2 ulps
        // either side of it in each coordinate.
        let mut squares_disagree = 0usize;
        for k in 1..400 {
            let s = k as f64 * 0.37;
            let r = 5.0 * s;
            for (dx, dy) in (-2..=2).flat_map(|i| (-2..=2).map(move |j| (i, j))) {
                let p = Point::new(nudge(3.0 * s, dx), nudge(4.0 * s, dy));
                assert_eq!(
                    within(&origin, &p, r),
                    hypot_within(&origin, &p, r),
                    "{p:?} r {r}"
                );
                squares_disagree +=
                    usize::from((p.x * p.x + p.y * p.y <= r * r) != hypot_within(&origin, &p, r));
            }
        }
        // A plain comparison of squares gets these wrong: a predicate
        // without the hypot band would fail above.
        assert!(squares_disagree > 0, "no case separates squares from hypot");
        let p = Point::new(
            f64::from_bits(0x3ff1_c28f_5c28_f5c0),
            f64::from_bits(0x3ff7_ae14_7ae1_47b1),
        );
        assert!(p.x * p.x + p.y * p.y > 1.85 * 1.85 && hypot_within(&origin, &p, 1.85));
        assert!(within(&origin, &p, 1.85));
        // Exact triples at extreme scales, where the squares underflow or
        // overflow.
        for s in [
            2f64.powi(-1074),
            2f64.powi(-540),
            2f64.powi(-511),
            1.0,
            2f64.powi(511),
            2f64.powi(600),
        ] {
            points.push(Point::new(3.0 * s, 4.0 * s));
            radii.push(5.0 * s);
        }
        for q in [origin, Point::new(-2.5, 7.0)] {
            for p in &points {
                for &r in &radii {
                    assert_eq!(
                        within(&q, p, r),
                        hypot_within(&q, p, r),
                        "q {q:?} p {p:?} r {r}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `within` decides `hypot(dx, dy) <= r` for points on, near and
        /// off circles across sixty binary orders of magnitude, with `r`
        /// within a few ulps of the point's `hypot`.
        #[test]
        fn within_matches_hypot(
            qx in -100.0f64..100.0,
            qy in -100.0f64..100.0,
            angle in 0.0f64..6.3,
            scale in -30i32..30,
            ulps in -3i64..=3,
            off_circle in 0.0f64..2.0,
        ) {
            let q = Point::new(qx, qy);
            let p = q.offset_polar(2f64.powi(scale), angle);
            let d = p.distance(&q);
            for r in [nudge(d, ulps), d, d * off_circle, 0.0, f64::INFINITY] {
                prop_assert_eq!(within(&q, &p, r), hypot_within(&q, &p, r), "q {:?} p {:?} r {}", q, p, r);
            }
        }
    }

    fn random_points(n: usize, region: &Rect, rng: &mut SimRng) -> Vec<Point> {
        (0..n)
            .map(|_| {
                Point::new(
                    rng.uniform_range(region.min.x - 5.0, region.max.x + 5.0),
                    rng.uniform_range(region.min.y - 5.0, region.max.y + 5.0),
                )
            })
            .collect()
    }

    #[test]
    fn neighborhood_matches_brute_force_on_random_points() {
        let region = Rect::new(Point::new(0.0, 0.0), 80.0, 60.0);
        let mut rng = SimRng::new(1);
        for trial in 0..20 {
            let pts = random_points(64, &region, &mut rng);
            let index = SpatialIndex::from_points(region, 12.0, &pts);
            for _ in 0..10 {
                let q = Point::new(
                    rng.uniform_range(-10.0, 90.0),
                    rng.uniform_range(-10.0, 70.0),
                );
                let r = rng.uniform_range(0.0, 50.0);
                assert_eq!(
                    index.neighbors_within(&q, r),
                    SpatialIndex::brute_force_within(&pts, &q, r),
                    "trial {trial}: query {q:?} radius {r}"
                );
            }
        }
    }

    #[test]
    fn infinite_radius_returns_every_point_in_insertion_order() {
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let mut rng = SimRng::new(2);
        let pts = random_points(17, &region, &mut rng);
        let index = SpatialIndex::from_points(region, 8.0, &pts);
        let all = index.neighbors_within(&Point::new(20.0, 20.0), f64::INFINITY);
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn zero_radius_finds_exact_duplicates_only() {
        let region = Rect::new(Point::new(0.0, 0.0), 10.0, 10.0);
        let mut index = SpatialIndex::new(region, 2.0);
        let p = Point::new(3.0, 3.0);
        index.insert(p);
        index.insert(Point::new(3.5, 3.0));
        index.insert(p);
        assert_eq!(index.neighbors_within(&p, 0.0), vec![0, 2]);
    }

    #[test]
    fn points_outside_bounds_are_still_found() {
        let region = Rect::new(Point::new(0.0, 0.0), 20.0, 20.0);
        let mut index = SpatialIndex::new(region, 5.0);
        let outside = Point::new(-8.0, 27.0);
        index.insert(outside);
        let near_edge = Point::new(-6.0, 24.0);
        assert_eq!(index.neighbors_within(&near_edge, 5.0), vec![0]);
        assert!(index
            .neighbors_within(&Point::new(10.0, 10.0), 5.0)
            .is_empty());
    }

    #[test]
    fn infinite_cell_size_is_sized_from_the_bounding_box() {
        // Regression: an infinite cell size (an index built for an
        // infinite interaction range) used to build a degenerate one-cell
        // grid whose query windows computed ∞/∞ = NaN cell coordinates.
        // The cell size now falls back to the bounding-box extent, so the
        // grid stays well-formed and queries keep matching brute force.
        let region = Rect::new(Point::new(0.0, 0.0), 60.0, 40.0);
        let mut rng = SimRng::new(9);
        let pts = random_points(40, &region, &mut rng);
        for cell in [f64::INFINITY, f64::NAN] {
            let index = SpatialIndex::from_points(region, cell, &pts);
            assert!(
                index.cols >= 2 && index.rows >= 2,
                "degenerate {}x{} grid for cell {cell}",
                index.cols,
                index.rows
            );
            for radius in [0.0, 10.0, f64::INFINITY] {
                let q = Point::new(30.0, 20.0);
                assert_eq!(
                    index.neighbors_within(&q, radius),
                    SpatialIndex::brute_force_within(&pts, &q, radius),
                    "cell {cell} radius {radius}"
                );
            }
        }
    }

    #[test]
    fn tiny_cell_sizes_are_clamped() {
        let region = Rect::new(Point::new(0.0, 0.0), 100.0, 100.0);
        let index = SpatialIndex::new(region, 1e-9);
        // The clamp keeps the grid at ~100x100 cells rather than 1e11 x 1e11.
        assert!(index.cols <= 102 && index.rows <= 102);
    }

    #[test]
    fn clear_then_refill_matches_a_fresh_index_without_growing() {
        let region = Rect::new(Point::new(0.0, 0.0), 80.0, 60.0);
        let mut rng = SimRng::new(7);
        let mut reused = SpatialIndex::new(region, 12.0);
        let mut footprint_after_warmup = None;
        let pts = random_points(48, &region, &mut rng);
        for trial in 0..10 {
            reused.clear();
            for &p in &pts {
                reused.insert(p);
            }
            let fresh = SpatialIndex::from_points(region, 12.0, &pts);
            let q = Point::new(rng.uniform_range(0.0, 80.0), rng.uniform_range(0.0, 60.0));
            let r = rng.uniform_range(0.0, 40.0);
            let mut into = Vec::new();
            reused.neighbors_within_into(&q, r, &mut into);
            assert_eq!(into, fresh.neighbors_within(&q, r), "trial {trial}");
            // Footprint must stabilise after the first fill: same point
            // count, same cells — clearing retains every allocation.
            if trial == 1 {
                footprint_after_warmup = Some(reused.heap_footprint_bytes());
            } else if trial > 1 {
                assert_eq!(
                    reused.heap_footprint_bytes(),
                    footprint_after_warmup.unwrap(),
                    "trial {trial}: index grew after warm-up"
                );
            }
        }
    }

    /// Brute-force groups of a mover: every group owning a fixed point
    /// within `radius`, ascending.
    fn brute_groups(fixed: &[Point], group_of: &[u32], p: &Point, radius: f64) -> Vec<u32> {
        let mut g: Vec<u32> = SpatialIndex::brute_force_within(fixed, p, radius)
            .into_iter()
            .map(|id| group_of[id])
            .collect();
        g.sort_unstable();
        g.dedup();
        g
    }

    /// The tracker with `hypot` at every fixed point: a linear scan that
    /// folds `|d − radius|` over every point within reach.
    struct HypotTracker {
        radius: f64,
        reach: f64,
        anchor: Vec<Point>,
        slack: Vec<f64>,
        groups: Vec<Vec<u32>>,
    }

    impl HypotTracker {
        fn new(fixed: &[Point], group_of: &[u32], radius: f64, movers: &[Point]) -> Self {
            let mut t = HypotTracker {
                radius,
                reach: radius + radius * SLACK_REACH,
                anchor: movers.to_vec(),
                slack: vec![0.0; movers.len()],
                groups: vec![Vec::new(); movers.len()],
            };
            for (m, &p) in movers.iter().enumerate() {
                t.query(fixed, group_of, m, p);
            }
            t
        }

        fn query(&mut self, fixed: &[Point], group_of: &[u32], m: usize, p: Point) {
            let mut groups = Vec::new();
            let mut slack = self.radius * SLACK_REACH;
            for (id, q) in fixed.iter().enumerate() {
                let d = q.distance(&p);
                if d <= self.reach {
                    if d <= self.radius {
                        groups.push(group_of[id]);
                        slack = slack.min(self.radius - d);
                    } else {
                        slack = slack.min(d - self.radius);
                    }
                }
            }
            groups.sort_unstable();
            groups.dedup();
            self.groups[m] = groups;
            self.anchor[m] = p;
            self.slack[m] = slack - SLACK_MARGIN_M;
        }

        fn update(&mut self, fixed: &[Point], group_of: &[u32], m: usize, p: Point) -> bool {
            if self.anchor[m].distance(&p) < self.slack[m] {
                return false;
            }
            self.query(fixed, group_of, m, p);
            true
        }
    }

    /// Asserts `tracker` and `reference` hold the same groups and the same
    /// slack bits for mover `m`.
    fn assert_same_state(
        tracker: &NeighborTracker,
        reference: &HypotTracker,
        m: usize,
        what: &str,
    ) {
        assert_eq!(
            tracker.groups(m),
            reference.groups[m].as_slice(),
            "{what}: groups"
        );
        assert_eq!(
            tracker.slack[m].to_bits(),
            reference.slack[m].to_bits(),
            "{what}: slack {} vs {}",
            tracker.slack[m],
            reference.slack[m]
        );
        assert_eq!(tracker.anchor[m], reference.anchor[m], "{what}: anchor");
    }

    #[test]
    fn tracker_groups_match_brute_force_under_walks_and_jumps() {
        let region = Rect::new(Point::new(0.0, 0.0), 80.0, 60.0);
        let mut rng = SimRng::new(17);
        let mut fixed = random_points(48, &region, &mut rng);
        let mut group_of: Vec<u32> = (0..48).map(|i| i / 4).collect();
        // Duplicates in other groups: exact ties at every distance.
        for i in 0..4 {
            fixed.push(fixed[i * 11]);
            group_of.push(12 + i as u32);
        }
        let mut movers = random_points(30, &region, &mut rng);
        let radius = 15.0;
        let mut tracker = NeighborTracker::new(region, &fixed, &group_of, radius, &movers);
        let mut reference = HypotTracker::new(&fixed, &group_of, radius, &movers);
        let mut moves = 0usize;
        let mut reference_requeries = 0usize;
        for step in 0..400 {
            for (m, p) in movers.iter_mut().enumerate() {
                // Mostly short walking steps, occasionally a teleport.
                *p = if rng.uniform() < 0.02 {
                    Point::new(rng.uniform_range(-5.0, 85.0), rng.uniform_range(-5.0, 65.0))
                } else {
                    p.offset_polar(0.3, rng.uniform_range(0.0, 6.3))
                };
                let requeried = tracker.update(m, *p);
                assert_eq!(
                    requeried,
                    reference.update(&fixed, &group_of, m, *p),
                    "step {step} mover {m}: re-query"
                );
                reference_requeries += usize::from(requeried);
                moves += 1;
                assert_eq!(
                    tracker.groups(m),
                    brute_groups(&fixed, &group_of, p, radius).as_slice(),
                    "step {step} mover {m}"
                );
                assert_same_state(&tracker, &reference, m, &format!("step {step} mover {m}"));
            }
        }
        assert_eq!(tracker.requeries(), reference_requeries);
        // The slack saves most queries: far fewer re-queries than moves.
        assert!(tracker.requeries() > 0);
        assert!(
            tracker.requeries() < moves / 2,
            "{} re-queries for {moves} moves",
            tracker.requeries()
        );
    }

    #[test]
    fn tracker_slack_matches_hypot_at_degenerate_squares() {
        // Squares that underflow to zero or a subnormal, a mover sitting on
        // a fixed point, and points exactly on the radius.
        let region = Rect::new(Point::new(0.0, 0.0), 20.0, 20.0);
        let c = Point::new(8.0, 8.0);
        let fixed = [
            c,
            Point::new(8.0 + 1e-200, 8.0),
            Point::new(8.0, 8.0 + 1e-160),
            Point::new(11.0, 12.0),
            Point::new(4.0, 5.0),
            Point::new(8.0, 13.0),
            Point::new(14.0, 8.0),
        ];
        let group_of = [0, 1, 2, 3, 4, 5, 6];
        let movers = [c, Point::new(8.0, 8.0 + 1e-300), Point::new(8.0, 3.0)];
        for radius in [5.0, 6.0, 1e-170, 0.0] {
            let tracker = NeighborTracker::new(region, &fixed, &group_of, radius, &movers);
            let reference = HypotTracker::new(&fixed, &group_of, radius, &movers);
            for m in 0..movers.len() {
                assert_same_state(
                    &tracker,
                    &reference,
                    m,
                    &format!("radius {radius} mover {m}"),
                );
            }
        }
    }

    #[test]
    fn tracker_at_infinite_radius_never_requeries() {
        let region = Rect::new(Point::new(0.0, 0.0), 40.0, 40.0);
        let mut rng = SimRng::new(19);
        let fixed = random_points(12, &region, &mut rng);
        let group_of: Vec<u32> = (0..12).map(|i| i / 3).collect();
        let movers = random_points(5, &region, &mut rng);
        let mut tracker = NeighborTracker::new(region, &fixed, &group_of, f64::INFINITY, &movers);
        for m in 0..5 {
            assert!(!tracker.update(m, Point::new(39.0, 1.0)));
            assert_eq!(tracker.groups(m), &[0, 1, 2, 3]);
        }
        assert_eq!(tracker.requeries(), 0);
    }

    #[test]
    fn tracker_footprint_is_flat_once_warm() {
        let region = Rect::new(Point::new(0.0, 0.0), 60.0, 60.0);
        let mut rng = SimRng::new(23);
        let fixed = random_points(32, &region, &mut rng);
        let group_of: Vec<u32> = (0..32).collect();
        let anchors: Vec<Point> = (0..6)
            .map(|i| Point::new(5.0 + i as f64 * 10.0, 30.0))
            .collect();
        let mut tracker = NeighborTracker::new(region, &fixed, &group_of, 12.0, &anchors[..3]);
        let cycle = |t: &mut NeighborTracker| {
            for &a in &anchors {
                for m in 0..3 {
                    t.update(m, a);
                }
            }
        };
        cycle(&mut tracker);
        let warm = tracker.heap_footprint_bytes();
        cycle(&mut tracker);
        assert_eq!(tracker.heap_footprint_bytes(), warm);
    }

    #[test]
    fn incremental_insert_ids_are_dense_and_ordered() {
        let region = Rect::new(Point::new(0.0, 0.0), 30.0, 30.0);
        let mut index = SpatialIndex::new(region, 10.0);
        for i in 0..5 {
            let id = index.insert(Point::new(i as f64 * 6.0, 15.0));
            assert_eq!(id, i);
        }
        assert_eq!(index.len(), 5);
        assert_eq!(
            index.neighbors_within(&Point::new(12.0, 15.0), 6.5),
            vec![1, 2, 3]
        );
    }
}
