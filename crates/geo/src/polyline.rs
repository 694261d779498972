use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{BBox, Point, Segment};

/// Error constructing a [`Polyline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolylineError {
    /// Fewer than two vertices were supplied.
    TooFewVertices(usize),
    /// A vertex contained a non-finite coordinate.
    NonFiniteVertex(usize),
}

impl fmt::Display for PolylineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolylineError::TooFewVertices(n) => {
                write!(f, "polyline needs at least 2 vertices, got {n}")
            }
            PolylineError::NonFiniteVertex(i) => {
                write!(f, "polyline vertex {i} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for PolylineError {}

/// Result of projecting a point onto a polyline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projection {
    /// Index of the segment the closest point lies on.
    pub segment: usize,
    /// Parameter within that segment, `[0, 1]`.
    pub t: f64,
    /// The closest point itself.
    pub point: Point,
    /// Distance from the query point to `point`, metres.
    pub distance: f64,
    /// Arc-length position of `point` from the start of the polyline, metres.
    pub offset: f64,
}

/// A polyline (road centre-line geometry) in the planar frame.
///
/// Cumulative segment lengths are precomputed so projection, interpolation
/// and length queries are cheap — these run in the inner loops of
/// map-matching and attribute fetching.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    vertices: Vec<Point>,
    /// `cum[i]` = arc length from the start to vertex `i`; `cum[0] == 0`.
    cum: Vec<f64>,
}

impl Polyline {
    /// Builds a polyline from at least two finite vertices.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolylineError> {
        if vertices.len() < 2 {
            return Err(PolylineError::TooFewVertices(vertices.len()));
        }
        for (i, v) in vertices.iter().enumerate() {
            if !v.x.is_finite() || !v.y.is_finite() {
                return Err(PolylineError::NonFiniteVertex(i));
            }
        }
        let mut cum = Vec::with_capacity(vertices.len());
        cum.push(0.0);
        for w in vertices.windows(2) {
            // lint:allow(panic-free-library): `cum` starts with a pushed 0.0
            let last = *cum.last().expect("cum starts non-empty");
            cum.push(last + w[0].distance(w[1]));
        }
        Ok(Self { vertices, cum })
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Total arc length, metres.
    #[inline]
    pub fn length(&self) -> f64 {
        // lint:allow(panic-free-library): `new` seeds `cum` with 0.0
        *self.cum.last().expect("cum non-empty")
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.vertices[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> Point {
        // lint:allow(panic-free-library): `new` rejects < 2 vertices
        *self.vertices.last().expect("at least two vertices")
    }

    /// Number of segments (`vertices - 1`).
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The `i`-th segment.
    #[inline]
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.vertices[i], self.vertices[i + 1])
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.vertices.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Bounding box over all vertices.
    pub fn bbox(&self) -> BBox {
        BBox::from_points(&self.vertices)
    }

    /// Point at arc-length `offset` from the start, clamped to `[0, length]`.
    pub fn point_at(&self, offset: f64) -> Point {
        let offset = offset.clamp(0.0, self.length());
        self.point_on(self.point_index(offset), offset)
    }

    /// Segment `point_at` interpolates on for a clamped `offset`
    /// (`num_segments()` stands for the end vertex).
    fn point_index(&self, offset: f64) -> usize {
        match self.cum.binary_search_by(|c| c.total_cmp(&offset)) {
            Ok(i) => i.min(self.num_segments()),
            Err(i) => i - 1,
        }
    }

    /// Point at clamped `offset`, interpolated on segment `i`.
    fn point_on(&self, i: usize, offset: f64) -> Point {
        if i >= self.num_segments() {
            return self.end();
        }
        let seg_len = self.cum[i + 1] - self.cum[i];
        let t = if seg_len > 0.0 { (offset - self.cum[i]) / seg_len } else { 0.0 };
        self.segment(i).point_at(t)
    }

    /// Compass heading of the polyline at arc-length `offset` (heading of the
    /// segment containing that offset).
    pub fn heading_at(&self, offset: f64) -> f64 {
        let offset = offset.clamp(0.0, self.length());
        self.heading_of(self.heading_index(offset))
    }

    /// Segment `heading_at` starts from for a clamped `offset`.
    fn heading_index(&self, offset: f64) -> usize {
        let i = match self.cum.binary_search_by(|c| c.total_cmp(&offset)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        i.min(self.num_segments() - 1)
    }

    /// Heading of segment `i`, or of the first non-degenerate segment
    /// after it (zero-length segments have no direction).
    fn heading_of(&self, i: usize) -> f64 {
        let mut j = i;
        while j < self.num_segments() && self.segment(j).length() == 0.0 {
            j += 1;
        }
        if j >= self.num_segments() {
            j = i.min(self.num_segments() - 1);
        }
        self.segment(j).heading()
    }

    /// A cursor for reading points and headings at (mostly) increasing
    /// offsets without a search per query.
    pub fn cursor(&self) -> PolylineCursor<'_> {
        PolylineCursor { line: self, seg: 0, heading: None }
    }

    /// Projects `p` onto the polyline, returning the nearest location.
    pub fn project(&self, p: Point) -> Projection {
        let mut best = Projection {
            segment: 0,
            t: 0.0,
            point: self.vertices[0],
            distance: p.distance(self.vertices[0]),
            offset: 0.0,
        };
        for i in 0..self.num_segments() {
            let seg = self.segment(i);
            let t = seg.project_t(p);
            let c = seg.point_at(t);
            let d = c.distance(p);
            if d < best.distance {
                best = Projection {
                    segment: i,
                    t,
                    point: c,
                    distance: d,
                    offset: self.cum[i] + t * seg.length(),
                };
            }
        }
        best
    }

    /// Minimum distance from `p` to the polyline.
    #[inline]
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.project(p).distance
    }

    /// Resamples the polyline at roughly `step` metre spacing (endpoints
    /// always included). Useful for rasterising routes onto the analysis grid.
    pub fn resample(&self, step: f64) -> Vec<Point> {
        assert!(step > 0.0, "resample step must be positive");
        let len = self.length();
        if len == 0.0 {
            return vec![self.start(), self.end()];
        }
        let n = (len / step).ceil() as usize;
        let mut out = Vec::with_capacity(n + 1);
        for k in 0..=n {
            out.push(self.point_at(len * k as f64 / n as f64));
        }
        out
    }

    /// Joins `parts` end to end, each taken forwards or, when its flag is
    /// set, reversed. A part's first vertex is dropped when it lies within
    /// 1 mm of the vertex before it, so shared join vertices appear once.
    /// The vertices are collected in one pass and measured once; `None`
    /// when there are no parts.
    pub fn concat<'p>(parts: impl IntoIterator<Item = (&'p Polyline, bool)>) -> Option<Polyline> {
        let mut verts: Vec<Point> = Vec::new();
        for (part, reversed) in parts {
            let first = if reversed { part.end() } else { part.start() };
            let skip = usize::from(verts.last().is_some_and(|p| p.distance(first) < 1e-3));
            if reversed {
                verts.extend(part.vertices.iter().rev().skip(skip));
            } else {
                verts.extend_from_slice(&part.vertices[skip..]);
            }
        }
        if verts.is_empty() {
            return None;
        }
        // lint:allow(panic-free-library): every part had >= 2 vertices
        Some(Polyline::new(verts).expect("concatenation keeps >= 2 vertices"))
    }

    /// The polyline with vertex order reversed.
    pub fn reversed(&self) -> Polyline {
        let mut v = self.vertices.clone();
        v.reverse();
        // lint:allow(panic-free-library): `self` already had >= 2 vertices
        Polyline::new(v).expect("reversal keeps >= 2 vertices")
    }
}

/// Reads [`Polyline::point_at`] and [`Polyline::heading_at`] at offsets
/// that mostly increase, as a vehicle driving along the line does.
///
/// The cursor keeps the segment of the last query and walks forward from
/// it instead of binary-searching, and it caches the heading of the last
/// segment it was asked about. An offset behind the cursor triggers a
/// rescan. Results are bit-identical to the polyline's own methods: the
/// cursor only answers itself when the offset lies strictly inside a
/// segment, where the search has exactly one answer; an offset that hits
/// a vertex (or is NaN) goes through the polyline's search, whose choice
/// among equal cumulative lengths is what decides there. That final check
/// makes the answer independent of where the walk stopped, so the walk
/// and the rescan only decide how often the cursor can answer itself.
#[derive(Debug)]
pub struct PolylineCursor<'a> {
    line: &'a Polyline,
    /// Segment the forward walk resumes from.
    seg: usize,
    /// `(segment index, heading)` of the last heading query.
    heading: Option<(usize, f64)>,
}

impl PolylineCursor<'_> {
    /// Same as [`Polyline::point_at`].
    pub fn point_at(&mut self, offset: f64) -> Point {
        let line = self.line;
        let offset = offset.clamp(0.0, line.length());
        let i = self.locate(offset).unwrap_or_else(|| line.point_index(offset));
        line.point_on(i, offset)
    }

    /// Same as [`Polyline::heading_at`].
    pub fn heading_at(&mut self, offset: f64) -> f64 {
        let line = self.line;
        let offset = offset.clamp(0.0, line.length());
        let i = self.locate(offset).unwrap_or_else(|| line.heading_index(offset));
        match self.heading {
            Some((k, h)) if k == i => h,
            _ => {
                let h = line.heading_of(i);
                self.heading = Some((i, h));
                h
            }
        }
    }

    /// The segment `offset` lies strictly inside, or `None` when it sits
    /// on a vertex offset or is NaN.
    fn locate(&mut self, offset: f64) -> Option<usize> {
        let cum = &self.line.cum;
        let last = cum.len() - 1;
        if offset < cum[self.seg] {
            self.seg = cum.partition_point(|&c| c < offset).saturating_sub(1);
        }
        while self.seg < last && cum[self.seg + 1] < offset {
            self.seg += 1;
        }
        let j = self.seg;
        (j < last && cum[j] < offset && offset < cum[j + 1]).then_some(j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(v: &[(f64, f64)]) -> Polyline {
        Polyline::new(v.iter().map(|&(x, y)| Point::new(x, y)).collect()).unwrap()
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0)]),
            Err(PolylineError::TooFewVertices(1))
        ));
        assert!(matches!(
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 0.0)]),
            Err(PolylineError::NonFiniteVertex(1))
        ));
    }

    #[test]
    fn length_of_l_shape() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert_eq!(p.length(), 15.0);
        assert_eq!(p.num_segments(), 2);
    }

    #[test]
    fn point_at_walks_the_line() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert_eq!(p.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(p.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(p.point_at(12.0), Point::new(10.0, 2.0));
        assert_eq!(p.point_at(15.0), Point::new(10.0, 5.0));
        assert_eq!(p.point_at(99.0), Point::new(10.0, 5.0)); // clamped
    }

    #[test]
    fn heading_changes_at_corner() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        assert!((p.heading_at(5.0) - 90.0).abs() < 1e-9); // east
        assert!((p.heading_at(12.0) - 0.0).abs() < 1e-9); // north
    }

    #[test]
    fn projection_on_corner_line() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        let proj = p.project(Point::new(4.0, 3.0));
        assert_eq!(proj.segment, 0);
        assert_eq!(proj.point, Point::new(4.0, 0.0));
        assert_eq!(proj.distance, 3.0);
        assert_eq!(proj.offset, 4.0);

        let proj2 = p.project(Point::new(12.0, 4.0));
        assert_eq!(proj2.segment, 1);
        assert_eq!(proj2.point, Point::new(10.0, 4.0));
        assert_eq!(proj2.offset, 14.0);
    }

    #[test]
    fn resample_endpoint_inclusive() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        let pts = p.resample(3.0);
        assert_eq!(*pts.first().unwrap(), Point::new(0.0, 0.0));
        assert_eq!(*pts.last().unwrap(), Point::new(10.0, 0.0));
        assert!(pts.len() >= 4);
    }

    #[test]
    fn concat_dedups_join() {
        let a = pl(&[(0.0, 0.0), (10.0, 0.0)]);
        let b = pl(&[(10.0, 5.0), (10.0, 0.0)]);
        let c = Polyline::concat([(&a, false), (&b, true)]).unwrap();
        assert_eq!(c.vertices().len(), 3);
        assert_eq!(c.length(), 15.0);
        assert_eq!(c.end(), Point::new(10.0, 5.0));
        assert!(Polyline::concat([]).is_none());
    }

    #[test]
    fn cursor_rescans_after_going_back() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        let mut c = p.cursor();
        assert_eq!(c.point_at(12.0), Point::new(10.0, 2.0));
        assert_eq!(c.heading_at(12.0), p.heading_at(12.0));
        // Behind the cursor: the rescan puts it back on segment 0, so it
        // answers without deferring to the polyline's search.
        assert_eq!(c.locate(5.0), Some(0));
        assert_eq!(c.point_at(5.0), Point::new(5.0, 0.0));
        assert_eq!(c.heading_at(5.0), p.heading_at(5.0));
    }

    #[test]
    fn reversed_preserves_length() {
        let p = pl(&[(0.0, 0.0), (10.0, 0.0), (10.0, 5.0)]);
        let r = p.reversed();
        assert_eq!(r.length(), p.length());
        assert_eq!(r.start(), p.end());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_polyline() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..12)
            .prop_map(|v| {
                Polyline::new(v.into_iter().map(|(x, y)| Point::new(x, y)).collect()).unwrap()
            })
    }

    /// Random polylines whose vertices may repeat (zero-length segments).
    fn arb_polyline_with_repeats() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3, 0usize..3), 2..12).prop_map(|v| {
            let mut pts = Vec::new();
            for (x, y, copies) in v {
                for _ in 0..=copies {
                    pts.push(Point::new(x, y));
                }
            }
            Polyline::new(pts).unwrap()
        })
    }

    /// Checks a fresh cursor against `point_at`/`heading_at` bit for bit
    /// over `offsets`, queried in the order given.
    fn cursor_agrees(p: &Polyline, offsets: &[f64]) -> Result<(), String> {
        let mut c = p.cursor();
        for &o in offsets {
            let (got, want) = (c.point_at(o), p.point_at(o));
            prop_assert!(
                got.x.to_bits() == want.x.to_bits() && got.y.to_bits() == want.y.to_bits(),
                "point_at({o}): cursor {got:?}, polyline {want:?}"
            );
            let (got, want) = (c.heading_at(o), p.heading_at(o));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "heading_at({})", o);
        }
        Ok(())
    }

    /// The append that `concat` replaced: re-measures the whole polyline
    /// for every part. Kept as the reference `concat` must equal.
    fn extend_with_reference(acc: &mut Polyline, other: &Polyline) {
        let mut verts = std::mem::take(&mut acc.vertices);
        let skip_first = verts.last().is_some_and(|p| p.distance(other.start()) < 1e-3);
        let tail = if skip_first { &other.vertices[1..] } else { &other.vertices[..] };
        verts.extend_from_slice(tail);
        *acc = Polyline::new(verts).unwrap();
    }

    proptest! {
        /// Projection distance equals the minimum over per-segment distances.
        #[test]
        fn projection_is_minimum(p in arb_polyline(), x in -2e3f64..2e3, y in -2e3f64..2e3) {
            let q = Point::new(x, y);
            let proj = p.project(q);
            let brute = p
                .segments()
                .map(|s| s.distance_to_point(q))
                .fold(f64::INFINITY, f64::min);
            prop_assert!((proj.distance - brute).abs() < 1e-9);
            prop_assert!(proj.offset >= -1e-9 && proj.offset <= p.length() + 1e-9);
        }

        /// point_at(offset) round-trips through projection offset for points
        /// on the line (for non-self-intersecting access we only check the
        /// distance is ~0).
        #[test]
        fn point_at_lies_on_line(p in arb_polyline(), f in 0f64..1.0) {
            let q = p.point_at(f * p.length());
            prop_assert!(p.distance_to_point(q) < 1e-6);
        }

        /// The cursor returns the polyline's own bits: on a monotone sweep
        /// that includes every vertex offset (repeated ones too) and
        /// offsets outside `[0, length]`, and on the same offsets queried
        /// backwards and shuffled, which forces the rescan path.
        #[test]
        fn cursor_matches_point_and_heading_at(
            p in arb_polyline_with_repeats(),
            fracs in proptest::collection::vec(-0.2f64..1.2, 1..40),
            shuffle in 0u64..u64::MAX,
        ) {
            let len = p.length();
            let mut offsets: Vec<f64> = fracs.iter().map(|f| f * len).collect();
            offsets.extend_from_slice(&p.cum);
            offsets.extend([-1.0, -1e-9, len + 1e-9, len + 1.0]);
            offsets.sort_by(f64::total_cmp);
            cursor_agrees(&p, &offsets)?;
            offsets.reverse();
            cursor_agrees(&p, &offsets)?;
            let mut state = shuffle;
            for i in (1..offsets.len()).rev() {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                offsets.swap(i, (state >> 33) as usize % (i + 1));
            }
            cursor_agrees(&p, &offsets)?;
        }

        /// `concat` builds the same vertices and cumulative lengths as the
        /// part-by-part append, for chains in both orientations whose
        /// joins sit exactly on, just under, just over or well past the
        /// 1 mm dedup distance.
        #[test]
        fn concat_matches_append_fold(
            parts in proptest::collection::vec(
                (
                    proptest::collection::vec((-50f64..50.0, -50f64..50.0), 1..5),
                    0usize..4,
                    0f64..std::f64::consts::TAU,
                    proptest::bool::ANY,
                ),
                1..8,
            ),
            x0 in -1e3f64..1e3,
            y0 in -1e3f64..1e3,
        ) {
            let mut end = Point::new(x0, y0);
            let mut chain: Vec<(Polyline, bool)> = Vec::new();
            for (steps, gap, angle, reversed) in parts {
                let gap_m = [0.0, 0.999e-3, 1.001e-3, 0.5][gap];
                let mut cur = Point::new(end.x + gap_m * angle.cos(), end.y + gap_m * angle.sin());
                let mut verts = vec![cur];
                for (dx, dy) in steps {
                    cur = Point::new(cur.x + dx, cur.y + dy);
                    verts.push(cur);
                }
                end = cur;
                if reversed {
                    verts.reverse();
                }
                chain.push((Polyline::new(verts).unwrap(), reversed));
            }
            let mut want: Option<Polyline> = None;
            for (part, reversed) in &chain {
                let piece = if *reversed { part.reversed() } else { part.clone() };
                match &mut want {
                    None => want = Some(piece),
                    Some(acc) => extend_with_reference(acc, &piece),
                }
            }
            let want = want.unwrap();
            let got = Polyline::concat(chain.iter().map(|(part, reversed)| (part, *reversed))).unwrap();
            let bits = |v: &[Point]| v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.vertices), bits(&want.vertices));
            let cum_bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(cum_bits(&got.cum), cum_bits(&want.cum));
        }

        /// Resampling preserves endpoints and stays on the line.
        #[test]
        fn resample_on_line(p in arb_polyline(), step in 1f64..100.0) {
            let pts = p.resample(step);
            prop_assert_eq!(*pts.first().unwrap(), p.start());
            prop_assert!(pts.last().unwrap().distance(p.end()) < 1e-6);
            for q in pts {
                prop_assert!(p.distance_to_point(q) < 1e-6);
            }
        }
    }
}
