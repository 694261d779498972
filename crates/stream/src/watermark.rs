//! Event-time watermark tracking and trip closing.
//!
//! The stream cannot wait for a session's "end" marker — devices just go
//! quiet. Instead the ingest engine tracks an **event-time watermark**:
//! the largest device timestamp seen so far minus a configured lateness
//! bound. A trip *closes* once the watermark passes its last-seen event
//! time by the idle-close gap — at that point no in-order record for the
//! trip can still be in flight, and the trip's buffered points are
//! released downstream for cleaning.
//!
//! The closing rule is deliberately conservative. With arrival times
//! synthesized as the running maximum of event times (see
//! [`crate::feed`]), a record still in flight bounds the watermark from
//! above, and a short proof (DESIGN.md §15) shows a trip can only close
//! early if the trip *itself* contains an event-time jump larger than
//! `idle_close_s + lateness_s`. The simulator's silent gaps are capped at
//! 1400 s, far below the 3600 s default, so healthy feeds never lose a
//! record — the property `tests/watermark_props.rs` pins under arbitrary
//! arrival permutations.
//!
//! Everything here is single-threaded and pure: the same offer sequence
//! always produces the same close sequence, which is what lets the
//! stream-cursor checkpoint rebuild open-trip state by replay.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use taxitrace_traces::RoutePoint;

/// Watermark policy knobs (a subset of [`crate::StreamConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct WatermarkConfig {
    /// How far the watermark trails the event-time frontier, seconds.
    pub lateness_s: i64,
    /// Idle gap after a trip's last event before it may close, seconds.
    pub idle_close_s: i64,
}

/// Buffered state of one still-open trip.
#[derive(Debug)]
pub struct TripBuffer {
    pub session_index: u32,
    /// Largest event timestamp seen from this trip, Unix seconds.
    pub last_event_s: i64,
    /// `(point index, point)` sorted by the within-session point index,
    /// one entry per index: duplicates collapse first-wins, and iteration
    /// yields arrival order.
    pub points: Vec<(u32, RoutePoint)>,
}

impl TripBuffer {
    /// Buffers a point unless its index is already present. An in-order
    /// point (the healthy case) is a plain append.
    fn insert(&mut self, point_index: u32, point: RoutePoint) -> bool {
        let at = match self.points.last() {
            Some(&(last, _)) if last >= point_index => {
                match self.points.binary_search_by_key(&point_index, |&(pi, _)| pi) {
                    Ok(_) => return false,
                    Err(at) => at,
                }
            }
            _ => self.points.len(),
        };
        self.points.insert(at, (point_index, point));
        true
    }
}

/// What [`WatermarkMachine::offer`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Buffered into an open trip.
    Buffered,
    /// Same `(session, point)` already buffered; first record wins.
    Duplicate,
    /// The trip already closed past the watermark; the record must be
    /// quarantined by the caller, never dropped silently.
    LatePastWatermark,
}

/// Lifecycle of one session inside the machine.
#[derive(Debug, Default)]
enum Slot {
    /// No record seen yet.
    #[default]
    Unseen,
    Open(TripBuffer),
    Closed,
}

/// Deterministic single-threaded watermark state machine.
///
/// Session indices are dense, so per-session state lives in a `Vec`. The
/// close schedule is keyed lazily: each open trip has exactly one entry
/// in `close_index`, keyed by a *lower bound* on its last event (the
/// value when the entry was pushed). Raising a trip's last event leaves
/// its entry stale; a stale entry is re-keyed only when it reaches the
/// front. Since every key bounds its trip from below, an exact front is
/// the true `(last_event, session)` minimum, so trips close in the same
/// order an eagerly re-keyed index gives, and `lag_s` is exact whenever
/// the front is (which [`Self::drain_closable`] leaves it).
#[derive(Debug)]
pub struct WatermarkMachine {
    cfg: WatermarkConfig,
    /// Event-time frontier: max event timestamp accepted so far.
    max_event_s: Option<i64>,
    sessions: Vec<Slot>,
    open: usize,
    /// Close schedule: `(last_event_s lower bound, session_index)` per
    /// open trip, smallest first.
    close_index: BinaryHeap<Reverse<(i64, u32)>>,
}

impl WatermarkMachine {
    pub fn new(cfg: WatermarkConfig) -> Self {
        Self {
            cfg,
            max_event_s: None,
            sessions: Vec::new(),
            open: 0,
            close_index: BinaryHeap::new(),
        }
    }

    /// Current watermark, or `None` before the first record.
    pub fn watermark_s(&self) -> Option<i64> {
        self.max_event_s.map(|m| m.saturating_sub(self.cfg.lateness_s))
    }

    /// Event-time frontier (no lateness applied).
    pub fn frontier_s(&self) -> Option<i64> {
        self.max_event_s
    }

    /// Open trips still buffering points.
    pub fn open_count(&self) -> usize {
        self.open
    }

    /// Seconds between the frontier and the stalest open trip — the
    /// `stream.watermark_lag_s` gauge. Exact after every
    /// [`Self::drain_closable`]; in between, an offer that raised the
    /// stalest trip's last event can leave it reading high.
    pub fn lag_s(&self) -> i64 {
        match (self.max_event_s, self.close_index.peek()) {
            (Some(frontier), Some(&Reverse((oldest, _)))) => frontier.saturating_sub(oldest),
            _ => 0,
        }
    }

    /// Has this trip already been closed?
    pub fn is_closed(&self, session_index: u32) -> bool {
        matches!(self.sessions.get(session_index as usize), Some(Slot::Closed))
    }

    /// Offers one record. The caller must reject malformed records before
    /// offering — they would otherwise advance the watermark on garbage.
    pub fn offer(
        &mut self,
        session_index: u32,
        point_index: u32,
        event_s: i64,
        point: RoutePoint,
    ) -> Disposition {
        let si = session_index as usize;
        if si >= self.sessions.len() {
            self.sessions.resize_with(si + 1, Slot::default);
        }
        let slot = &mut self.sessions[si];
        if matches!(slot, Slot::Closed) {
            // A record this late does not advance the watermark either:
            // one day-old timestamp must not catapult every live trip
            // past its idle gap.
            return Disposition::LatePastWatermark;
        }
        self.max_event_s = Some(self.max_event_s.map_or(event_s, |m| m.max(event_s)));
        if matches!(slot, Slot::Unseen) {
            self.close_index.push(Reverse((event_s, session_index)));
            self.open += 1;
            *slot = Slot::Open(TripBuffer {
                session_index,
                last_event_s: event_s,
                points: Vec::new(),
            });
        }
        // `Closed` was answered above, so the slot is open here.
        let Slot::Open(buf) = slot else { return Disposition::LatePastWatermark };
        if !buf.insert(point_index, point) {
            return Disposition::Duplicate;
        }
        // The close-index entry keeps its old key: a lower bound, re-keyed
        // lazily once it reaches the front.
        buf.last_event_s = buf.last_event_s.max(event_s);
        Disposition::Buffered
    }

    /// Releases every trip whose idle gap the watermark has passed, in
    /// deterministic `(last_event, session)` order. Leaves the front of
    /// the close index exact.
    pub fn drain_closable(&mut self) -> Vec<TripBuffer> {
        let Some(watermark) = self.watermark_s() else { return Vec::new() };
        let mut out = Vec::new();
        while let Some((last_event, si)) = self.exact_front() {
            if last_event.saturating_add(self.cfg.idle_close_s) >= watermark {
                break;
            }
            self.close_index.pop();
            out.extend(self.close(si));
        }
        out
    }

    /// End of stream: closes every remaining open trip, same order.
    pub fn flush(&mut self) -> Vec<TripBuffer> {
        let mut out = Vec::new();
        while let Some((_, si)) = self.exact_front() {
            self.close_index.pop();
            out.extend(self.close(si));
        }
        out
    }

    /// Re-keys stale entries at the front until the front entry's key is
    /// its trip's last event, and returns that entry.
    fn exact_front(&mut self) -> Option<(i64, u32)> {
        loop {
            let mut front = self.close_index.peek_mut()?;
            let Reverse((key, si)) = *front;
            match self.sessions.get(si as usize) {
                Some(Slot::Open(buf)) if buf.last_event_s == key => return Some((key, si)),
                Some(Slot::Open(buf)) => *front = Reverse((buf.last_event_s, si)),
                // The close index tracks exactly the open trips; a
                // desynced entry is simply dropped.
                _ => {
                    PeekMut::pop(front);
                }
            }
        }
    }

    fn close(&mut self, session_index: u32) -> Option<TripBuffer> {
        let slot = self.sessions.get_mut(session_index as usize)?;
        match std::mem::replace(slot, Slot::Closed) {
            Slot::Open(buf) => {
                self.open -= 1;
                Some(buf)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_traces::{RoutePoint, TaxiId, TripId};

    fn point(ts: i64) -> RoutePoint {
        RoutePoint {
            point_id: 0,
            trip_id: TripId(1),
            taxi: TaxiId(1),
            geo: taxitrace_geo::GeoPoint { lon: 25.47, lat: 65.01 },
            pos: taxitrace_geo::Point { x: 0.0, y: 0.0 },
            timestamp: taxitrace_timebase::Timestamp::from_secs(ts),
            speed_kmh: 0.0,
            heading_deg: 0.0,
            fuel_ml: 0.0,
            truth: taxitrace_traces::PointTruth { seq: 0, element: None },
        }
    }

    fn cfg() -> WatermarkConfig {
        WatermarkConfig { lateness_s: 10, idle_close_s: 100 }
    }

    #[test]
    fn closes_only_past_idle_gap() {
        let mut m = WatermarkMachine::new(cfg());
        assert_eq!(m.offer(0, 0, 1000, point(1000)), Disposition::Buffered);
        // Watermark 990: nowhere near 1000 + 100.
        assert!(m.drain_closable().is_empty());
        assert_eq!(m.offer(1, 0, 1110, point(1110)), Disposition::Buffered);
        // Watermark 1100: not *strictly* past 1000 + 100 yet.
        assert!(m.drain_closable().is_empty());
        assert_eq!(m.offer(1, 1, 1111, point(1111)), Disposition::Buffered);
        // Watermark 1101 > 1100: trip 0 closes, trip 1 stays.
        let closed = m.drain_closable();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].session_index, 0);
        assert!(m.is_closed(0));
        assert_eq!(m.open_count(), 1);
    }

    #[test]
    fn late_record_is_reported_not_dropped() {
        let mut m = WatermarkMachine::new(cfg());
        m.offer(0, 0, 1000, point(1000));
        m.offer(1, 0, 2000, point(2000));
        assert_eq!(m.drain_closable().len(), 1);
        assert_eq!(m.offer(0, 1, 1001, point(1001)), Disposition::LatePastWatermark);
        // And the frontier did not move backwards or forwards for it.
        assert_eq!(m.frontier_s(), Some(2000));
    }

    #[test]
    fn duplicates_collapse_first_wins() {
        let mut m = WatermarkMachine::new(cfg());
        let first = point(1000);
        let mut second = point(1000);
        second.speed_kmh = 99.0;
        assert_eq!(m.offer(0, 0, 1000, first), Disposition::Buffered);
        assert_eq!(m.offer(0, 0, 1000, second), Disposition::Duplicate);
        let closed = m.flush();
        assert_eq!(closed[0].points.len(), 1);
        assert_eq!(closed[0].points[0].1.speed_kmh, 0.0);
    }

    #[test]
    fn flush_closes_everything_in_event_order() {
        let mut m = WatermarkMachine::new(cfg());
        m.offer(2, 0, 3000, point(3000));
        m.offer(0, 0, 1000, point(1000));
        m.offer(1, 0, 2000, point(2000));
        let order: Vec<u32> = m.flush().iter().map(|b| b.session_index).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(m.open_count(), 0);
    }

    #[test]
    fn lag_tracks_stalest_open_trip() {
        let mut m = WatermarkMachine::new(cfg());
        m.offer(0, 0, 1000, point(1000));
        m.offer(1, 0, 1050, point(1050));
        assert_eq!(m.lag_s(), 50);
    }
}
