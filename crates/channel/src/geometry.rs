//! 2-D geometry primitives used by deployment and coverage modelling.

/// A point in the 2-D floor plan, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Angle of the vector from `self` to `other`, in radians in `(-pi, pi]`.
    pub fn angle_to(&self, other: &Point) -> f64 {
        (other.y - self.y).atan2(other.x - self.x)
    }

    /// Returns the point at `distance` metres from `self` along `angle` radians.
    pub fn offset_polar(&self, distance: f64, angle: f64) -> Point {
        Point {
            x: self.x + distance * angle.cos(),
            y: self.y + distance * angle.sin(),
        }
    }

    /// Midpoint between two points.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point {
            x: (self.x + other.x) / 2.0,
            y: (self.y + other.y) / 2.0,
        }
    }
}

/// Smallest absolute difference between two angles, in radians (result in `[0, pi]`).
pub fn angular_separation(a: f64, b: f64) -> f64 {
    let mut d = (a - b).abs() % (2.0 * std::f64::consts::PI);
    if d > std::f64::consts::PI {
        d = 2.0 * std::f64::consts::PI - d;
    }
    d
}

/// Axis-aligned rectangular region of the floor plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from its lower-left corner and dimensions.
    pub fn new(origin: Point, width: f64, height: f64) -> Self {
        Rect {
            min: origin,
            max: Point::new(origin.x + width, origin.y + height),
        }
    }

    /// Width in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre of the rectangle.
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Whether the rectangle contains the point (inclusive of edges).
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, p: &Point) -> Point {
        Point {
            x: p.x.clamp(self.min.x, self.max.x),
            y: p.y.clamp(self.min.y, self.max.y),
        }
    }

    /// Iterates over a uniform grid of sample points with the given spacing,
    /// starting at `min` (used for dead-zone and hidden-terminal maps).
    pub fn grid_points(&self, spacing: f64) -> Vec<Point> {
        assert!(spacing > 0.0, "grid spacing must be positive");
        let mut pts = Vec::new();
        let mut y = self.min.y;
        while y <= self.max.y + 1e-9 {
            let mut x = self.min.x;
            while x <= self.max.x + 1e-9 {
                pts.push(Point::new(x, y));
                x += spacing;
            }
            y += spacing;
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((b.distance(&a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn polar_offset_round_trips() {
        let p = Point::new(1.0, 2.0);
        let q = p.offset_polar(3.0, PI / 6.0);
        assert!((p.distance(&q) - 3.0).abs() < 1e-12);
        assert!((p.angle_to(&q) - PI / 6.0).abs() < 1e-12);
    }

    #[test]
    fn angular_separation_wraps() {
        assert!((angular_separation(0.1, 2.0 * PI - 0.1) - 0.2).abs() < 1e-12);
        assert!((angular_separation(PI, -PI) - 0.0).abs() < 1e-12);
        assert!((angular_separation(0.0, PI) - PI).abs() < 1e-12);
    }

    #[test]
    fn rect_contains_and_clamps() {
        let r = Rect::new(Point::new(0.0, 0.0), 10.0, 5.0);
        assert!(r.contains(&Point::new(5.0, 2.5)));
        assert!(!r.contains(&Point::new(11.0, 2.0)));
        let clamped = r.clamp(&Point::new(12.0, -1.0));
        assert_eq!(clamped, Point::new(10.0, 0.0));
        assert_eq!(r.center(), Point::new(5.0, 2.5));
    }

    #[test]
    fn grid_points_cover_rectangle_with_expected_count() {
        let r = Rect::new(Point::new(0.0, 0.0), 2.0, 1.0);
        let pts = r.grid_points(0.5);
        // 5 columns x 3 rows
        assert_eq!(pts.len(), 15);
        assert!(pts.iter().all(|p| r.contains(p)));
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.midpoint(&b), Point::new(2.0, 3.0));
    }
}
