//! Adversarial watermark properties: under arbitrary bounded-skew arrival
//! orders — overlapping trips, locally shuffled device timestamps,
//! duplicated records — the watermark machine must never close a trip
//! early (no record becomes late), must collapse duplicates first-wins,
//! and must close trips in the same deterministic sequence every run.
//! Under unbounded skew (trips that close early, records that arrive
//! late, duplicate floods) it must behave exactly like the reference
//! machine below: the ordered-map design it replaced.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use taxitrace_geo::{GeoPoint, Point};
use taxitrace_stream::{Disposition, WatermarkConfig, WatermarkMachine};
use taxitrace_timebase::Timestamp;
use taxitrace_traces::{PointTruth, RoutePoint, TaxiId, TripId};

const LATENESS_S: i64 = 10;
const IDLE_CLOSE_S: i64 = 100;
/// Base event gap bound. Local shuffles span at most 3 positions, so the
/// worst running-max jump is `3 * MAX_GAP_S = 90 < IDLE_CLOSE_S +
/// LATENESS_S` — the regime the closing rule guarantees losslessness in.
const MAX_GAP_S: i64 = 30;

fn point(trip: u32, ts: i64) -> RoutePoint {
    RoutePoint {
        point_id: 0,
        trip_id: TripId(u64::from(trip)),
        taxi: TaxiId(1),
        geo: GeoPoint { lon: 25.47, lat: 65.01 },
        pos: Point { x: 0.0, y: 0.0 },
        timestamp: Timestamp::from_secs(ts),
        speed_kmh: 0.0,
        heading_deg: 0.0,
        fuel_ml: 0.0,
        truth: PointTruth { seq: 0, element: None },
    }
}

/// One generated trip: a start offset plus bounded inter-event gaps, with
/// the event order locally shuffled (adjacent swaps) to model device
/// timestamps arriving out of order — the §IV-B reordering problem.
#[derive(Debug, Clone)]
struct TripSpec {
    start_s: i64,
    gaps: Vec<i64>,
    swaps: Vec<bool>,
}

fn trip_spec() -> impl Strategy<Value = TripSpec> {
    (
        0i64..200,
        proptest::collection::vec(0i64..MAX_GAP_S + 1, 0..20),
        proptest::collection::vec(proptest::bool::ANY, 0..20),
    )
        .prop_map(|(start_s, gaps, swaps)| TripSpec { start_s, gaps, swaps })
}

/// Event times for a trip in *record order* (possibly non-monotone).
fn events(spec: &TripSpec) -> Vec<i64> {
    let mut ts = spec.start_s;
    let mut out = vec![ts];
    for g in &spec.gaps {
        ts += g;
        out.push(ts);
    }
    // Local shuffle: swap adjacent pairs where the seed says so. Each
    // element moves at most one position, so any running-max jump spans
    // at most three base gaps.
    for (i, swap) in spec.swaps.iter().enumerate() {
        if *swap && i + 1 < out.len() {
            out.swap(i, i + 1);
        }
    }
    out
}

/// The synthesized feed: arrival = within-trip running max of event time,
/// merged across trips by `(arrival, trip, index)` — the same interleave
/// `taxitrace_stream::build_feed` produces.
fn feed(trips: &[TripSpec]) -> Vec<(u32, u32, i64)> {
    let mut records = Vec::new();
    for (si, spec) in trips.iter().enumerate() {
        let mut frontier = i64::MIN;
        for (pi, ts) in events(spec).into_iter().enumerate() {
            frontier = frontier.max(ts);
            records.push((si as u32, pi as u32, ts, frontier));
        }
    }
    records.sort_by_key(|&(si, pi, _, arrival)| (arrival, si, pi));
    records.into_iter().map(|(si, pi, ts, _)| (si, pi, ts)).collect()
}

fn machine() -> WatermarkMachine {
    WatermarkMachine::new(WatermarkConfig {
        lateness_s: LATENESS_S,
        idle_close_s: IDLE_CLOSE_S,
    })
}

/// Runs a feed through a fresh machine, re-offering duplicates where the
/// mask says so. Returns (dispositions, close sequence).
fn run(
    feed: &[(u32, u32, i64)],
    dup_mask: &[bool],
) -> (Vec<Disposition>, Vec<(u32, usize)>) {
    let mut m = machine();
    let mut dispositions = Vec::new();
    let mut closes = Vec::new();
    for (i, &(si, pi, ts)) in feed.iter().enumerate() {
        dispositions.push(m.offer(si, pi, ts, point(si, ts)));
        if dup_mask.get(i).copied().unwrap_or(false) {
            dispositions.push(m.offer(si, pi, ts, point(si, ts)));
        }
        for buf in m.drain_closable() {
            closes.push((buf.session_index, buf.points.len()));
        }
    }
    for buf in m.flush() {
        closes.push((buf.session_index, buf.points.len()));
    }
    (dispositions, closes)
}

proptest! {
    /// Bounded skew ⇒ lossless: no arrival interleave of overlapping,
    /// locally-shuffled trips may ever strand a record past the
    /// watermark, and duplicates must collapse without side effects.
    #[test]
    fn bounded_skew_never_closes_early(
        trips in proptest::collection::vec(trip_spec(), 1..6),
        dups in proptest::collection::vec(proptest::bool::ANY, 0..64),
    ) {
        let feed = feed(&trips);
        let (dispositions, closes) = run(&feed, &dups);

        let mut originals = 0usize;
        for d in &dispositions {
            prop_assert!(
                *d != Disposition::LatePastWatermark,
                "bounded-skew record fell past the watermark"
            );
            if *d == Disposition::Buffered {
                originals += 1;
            }
        }
        prop_assert_eq!(originals, feed.len(), "every original record must buffer");

        // Every trip closes exactly once, with its full point count.
        prop_assert_eq!(closes.len(), trips.len());
        let mut seen = vec![false; trips.len()];
        for (si, n_points) in &closes {
            let si = *si as usize;
            prop_assert!(!seen[si], "trip closed twice");
            seen[si] = true;
            prop_assert_eq!(*n_points, events(&trips[si]).len(), "points lost or duplicated");
        }
    }

    /// Determinism: the same feed and duplicate mask produce the same
    /// disposition sequence and the same close order, every time.
    #[test]
    fn close_sequence_is_deterministic(
        trips in proptest::collection::vec(trip_spec(), 1..6),
        dups in proptest::collection::vec(proptest::bool::ANY, 0..64),
    ) {
        let feed = feed(&trips);
        let (d1, c1) = run(&feed, &dups);
        let (d2, c2) = run(&feed, &dups);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(c1, c2);
    }
}

/// The reference machine: open trips in a `BTreeMap`, closed trips in a
/// `BTreeSet`, and a close index re-keyed eagerly on every new last
/// event. Slower, and obviously right.
struct Reference {
    cfg: WatermarkConfig,
    max_event_s: Option<i64>,
    open: BTreeMap<u32, (i64, BTreeMap<u32, RoutePoint>)>,
    close_index: BTreeSet<(i64, u32)>,
    closed: BTreeSet<u32>,
}

/// A closed trip as both machines report it: session, last event and
/// points in point-index order.
type Closed = (u32, i64, Vec<(u32, RoutePoint)>);

impl Reference {
    fn new(cfg: WatermarkConfig) -> Self {
        Self {
            cfg,
            max_event_s: None,
            open: BTreeMap::new(),
            close_index: BTreeSet::new(),
            closed: BTreeSet::new(),
        }
    }

    fn lag_s(&self) -> i64 {
        match (self.max_event_s, self.close_index.first()) {
            (Some(frontier), Some(&(oldest, _))) => frontier.saturating_sub(oldest),
            _ => 0,
        }
    }

    fn offer(&mut self, si: u32, pi: u32, event_s: i64, point: RoutePoint) -> Disposition {
        if self.closed.contains(&si) {
            return Disposition::LatePastWatermark;
        }
        self.max_event_s = Some(self.max_event_s.map_or(event_s, |m| m.max(event_s)));
        let (last_event_s, points) = self.open.entry(si).or_insert_with(|| {
            self.close_index.insert((event_s, si));
            (event_s, BTreeMap::new())
        });
        if points.contains_key(&pi) {
            return Disposition::Duplicate;
        }
        if event_s > *last_event_s {
            self.close_index.remove(&(*last_event_s, si));
            *last_event_s = event_s;
            self.close_index.insert((event_s, si));
        }
        points.insert(pi, point);
        Disposition::Buffered
    }

    fn close(&mut self, si: u32) -> Option<Closed> {
        self.closed.insert(si);
        let (last_event_s, points) = self.open.remove(&si)?;
        Some((si, last_event_s, points.into_iter().collect()))
    }

    fn drain_closable(&mut self) -> Vec<Closed> {
        let Some(frontier) = self.max_event_s else { return Vec::new() };
        let watermark = frontier.saturating_sub(self.cfg.lateness_s);
        let mut out = Vec::new();
        while let Some(&(last_event, si)) = self.close_index.first() {
            if last_event.saturating_add(self.cfg.idle_close_s) >= watermark {
                break;
            }
            self.close_index.pop_first();
            out.extend(self.close(si));
        }
        out
    }

    fn flush(&mut self) -> Vec<Closed> {
        let mut out = Vec::new();
        while let Some((_, si)) = self.close_index.pop_first() {
            out.extend(self.close(si));
        }
        out
    }
}

fn closed(bufs: Vec<taxitrace_stream::TripBuffer>) -> Vec<Closed> {
    bufs.into_iter().map(|b| (b.session_index, b.last_event_s, b.points)).collect()
}

/// Trips whose gaps can exceed `IDLE_CLOSE_S + LATENESS_S`, so they close
/// early and their later records arrive past the watermark.
fn wild_trip_spec() -> impl Strategy<Value = TripSpec> {
    (
        0i64..2_000,
        proptest::collection::vec(0i64..400, 0..30),
        proptest::collection::vec(proptest::bool::ANY, 0..30),
    )
        .prop_map(|(start_s, gaps, swaps)| TripSpec { start_s, gaps, swaps })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Differential: the dense machine and the reference agree on every
    /// disposition, every close (session, last event and points, so
    /// first-wins is checked on content), and `lag_s()` after every
    /// drain. Session indices are spread out so unseen slots sit between
    /// live ones; duplicates come in floods of up to three re-offers with
    /// different payloads; a tail of re-offers lands after most trips
    /// closed.
    #[test]
    fn dense_machine_matches_reference(
        trips in proptest::collection::vec(wild_trip_spec(), 1..8),
        dups in proptest::collection::vec(0usize..4, 0..96),
        tail in proptest::collection::vec(0usize..1_000, 0..24),
    ) {
        let cfg = WatermarkConfig { lateness_s: LATENESS_S, idle_close_s: IDLE_CLOSE_S };
        let mut dense = WatermarkMachine::new(cfg);
        let mut reference = Reference::new(cfg);
        let feed: Vec<(u32, u32, i64)> =
            feed(&trips).into_iter().map(|(si, pi, ts)| (si * 3 + 1, pi, ts)).collect();
        let mut offers: Vec<(u32, u32, i64)> = Vec::new();
        for (i, &record) in feed.iter().enumerate() {
            for _ in 0..=dups.get(i).copied().unwrap_or(0) {
                offers.push(record);
            }
        }
        if !feed.is_empty() {
            offers.extend(tail.iter().map(|&k| feed[k % feed.len()]));
        }
        for (ordinal, &(si, pi, ts)) in offers.iter().enumerate() {
            let mut p = point(si, ts);
            p.speed_kmh = ordinal as f64;
            prop_assert_eq!(dense.offer(si, pi, ts, p), reference.offer(si, pi, ts, p));
            prop_assert_eq!(closed(dense.drain_closable()), reference.drain_closable());
            prop_assert_eq!(dense.lag_s(), reference.lag_s());
            prop_assert_eq!(dense.frontier_s(), reference.max_event_s);
            prop_assert_eq!(dense.open_count(), reference.open.len());
        }
        prop_assert_eq!(closed(dense.flush()), reference.flush());
        prop_assert_eq!(dense.lag_s(), 0);
        prop_assert_eq!(dense.open_count(), 0);
        for &(si, _, _) in &feed {
            prop_assert!(dense.is_closed(si));
        }
    }
}
