//! Arrival-ordered feed synthesis.
//!
//! The batch study reads whole sessions from the store; a live deployment
//! sees individual route points in *server arrival order*, interleaved
//! across every taxi that is currently driving. This module reconstructs
//! that view from the simulated store: each point gets an arrival
//! timestamp (the running maximum of event timestamps within its session
//! — the server clock never runs backwards even when device timestamps
//! do, which is exactly the §IV-B reordering problem), and the whole
//! fleet's points are then interleaved by arrival time.
//!
//! Chaos stream faults from [`FaultPlan`] mutate the feed
//! deterministically per record index (seeded off `FaultPlan::stream_rng`),
//! so a killed-and-resumed run replays the identical feed:
//!
//! * **late**: arrival is delayed by `stream_late_delay_s` — the record
//!   shows up long after its trip closed and must land in quarantine,
//!   never silently vanish;
//! * **burst**: arrival is quantized down to a coarse boundary, so many
//!   records hit the ingest queue in the same instant (backpressure test);
//! * **garble**: the position becomes non-finite (a malformed record);
//!   the flag is applied when the point is resolved, see
//!   [`FeedRecord::point`];
//! * **stall**: the feeder thread pauses on this record (liveness test —
//!   no data is changed).

use taxitrace_traces::{FaultPlan, RawTrip, RoutePoint};

/// Record was injected late by the chaos plan.
pub const FLAG_LATE: u8 = 1 << 0;
/// Record is part of an injected arrival burst.
pub const FLAG_BURST: u8 = 1 << 1;
/// Record's position was garbled to non-finite values.
pub const FLAG_GARBLED: u8 = 1 << 2;
/// The feeder should stall briefly before sending this record.
pub const FLAG_STALL: u8 = 1 << 3;

/// Burst quantization boundary, seconds: all records inside one boundary
/// window arrive "at once".
const BURST_QUANTUM_S: i64 = 300;

/// One route point as the ingest queue sees it. The record names its
/// point by `(session_index, point_index)` instead of carrying a copy, so
/// the feed stays a few bytes per point; [`FeedRecord::point`] resolves
/// it against the sessions the feed was built from.
#[derive(Debug, Clone, Copy)]
pub struct FeedRecord {
    /// Index of the originating session in store order.
    pub session_index: u32,
    /// Index of the point within the session's arrival-ordered point list.
    pub point_index: u32,
    /// Synthesized server arrival time, Unix seconds.
    pub arrival_s: i64,
    /// Chaos flags (`FLAG_*`), zero on a healthy feed.
    pub flags: u8,
}

impl FeedRecord {
    /// The route point this record carries, resolved from the session
    /// list passed to [`build_feed`]. A garbled record's position comes
    /// back non-finite.
    pub fn point(&self, sessions: &[RawTrip]) -> RoutePoint {
        let mut point =
            sessions[self.session_index as usize].points[self.point_index as usize];
        if self.flags & FLAG_GARBLED != 0 {
            point.pos.x = f64::NAN;
            point.geo.lon = f64::NAN;
        }
        point
    }
}

/// What the chaos plan did to the feed, for the stream report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedStats {
    pub records: u64,
    pub late_injected: u64,
    pub bursts: u64,
    pub garbled: u64,
    pub stalls: u64,
}

/// Builds the arrival-ordered feed for a simulated fleet.
///
/// Deterministic for a fixed session list and plan: chaos draws are keyed
/// by the record's position in session-major enumeration order, and the
/// final interleave sorts on `(arrival_s, session, point)`, a key no two
/// records share.
pub fn build_feed(sessions: &[RawTrip], plan: Option<&FaultPlan>) -> (Vec<FeedRecord>, FeedStats) {
    let mut stats = FeedStats::default();
    let total: usize = sessions.iter().map(|s| s.points.len()).sum();
    let mut feed = Vec::with_capacity(total);
    let faulting_plan = plan.filter(|p| p.has_stream_faults());
    let mut record_index: u64 = 0;
    for (si, session) in sessions.iter().enumerate() {
        let mut frontier = i64::MIN;
        for (pi, point) in session.points.iter().enumerate() {
            frontier = frontier.max(point.timestamp.secs());
            let mut record = FeedRecord {
                session_index: si as u32,
                point_index: pi as u32,
                arrival_s: frontier,
                flags: 0,
            };
            if let Some(plan) = faulting_plan {
                apply_stream_faults(plan, record_index, &mut record, &mut stats);
            }
            feed.push(record);
            record_index += 1;
        }
    }
    stats.records = feed.len() as u64;
    // The key is unique per record, so an unstable sort gives the one
    // order a stable sort would: records sharing an arrival instant
    // (bursts) keep session-major order, and replays are byte-identical.
    feed.sort_unstable_by_key(|r| (r.arrival_s, r.session_index, r.point_index));
    (feed, stats)
}

/// Applies at most one stream fault to a record, drawn deterministically
/// from the plan's per-record rng. Faults are mutually exclusive in a
/// fixed precedence (garble > late > burst > stall) so each record's fate
/// is a pure function of `(plan, record_index)`.
fn apply_stream_faults(
    plan: &FaultPlan,
    record_index: u64,
    record: &mut FeedRecord,
    stats: &mut FeedStats,
) {
    let mut rng = plan.stream_rng(record_index);
    if one_in(plan.stream_garble_one_in, &mut rng) {
        record.flags |= FLAG_GARBLED;
        stats.garbled += 1;
    } else if one_in(plan.stream_late_one_in, &mut rng) {
        record.flags |= FLAG_LATE;
        record.arrival_s = record.arrival_s.saturating_add(plan.stream_late_delay_s);
        stats.late_injected += 1;
    } else if one_in(plan.stream_burst_one_in, &mut rng) {
        record.flags |= FLAG_BURST;
        // Floor to the boundary: monotone, so within-trip arrival order
        // (and therefore queue order) is preserved.
        record.arrival_s -= record.arrival_s.rem_euclid(BURST_QUANTUM_S);
        stats.bursts += 1;
    } else if one_in(plan.stream_stall_one_in, &mut rng) {
        record.flags |= FLAG_STALL;
        stats.stalls += 1;
    }
}

fn one_in(n: u64, rng: &mut taxitrace_traces::Rng) -> bool {
    n > 0 && rng.below(n as usize) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxitrace_core::{Study, StudyConfig};

    fn sessions() -> Vec<RawTrip> {
        let sim = Study::new(StudyConfig::quick(11)).simulate().expect("simulate");
        sim.store.sessions().to_vec()
    }

    #[test]
    fn healthy_feed_is_sorted_and_complete() {
        let sessions = sessions();
        let total: usize = sessions.iter().map(|s| s.points.len()).sum();
        let (feed, stats) = build_feed(&sessions, None);
        assert_eq!(feed.len(), total);
        assert_eq!(stats.records, total as u64);
        assert_eq!(stats.garbled + stats.late_injected + stats.bursts + stats.stalls, 0);
        for w in feed.windows(2) {
            assert!(
                (w[0].arrival_s, w[0].session_index, w[0].point_index)
                    < (w[1].arrival_s, w[1].session_index, w[1].point_index),
                "feed must be strictly ordered"
            );
        }
        // Arrival never precedes the event it carries.
        for r in &feed {
            assert!(r.arrival_s >= r.point(&sessions).timestamp.secs());
        }
    }

    #[test]
    fn within_session_arrival_order_matches_point_order() {
        let sessions = sessions();
        let (feed, _) = build_feed(&sessions, None);
        let mut last_pi = vec![None; sessions.len()];
        for r in &feed {
            let slot = &mut last_pi[r.session_index as usize];
            if let Some(prev) = *slot {
                assert!(r.point_index > prev, "session points must arrive in order");
            }
            *slot = Some(r.point_index);
        }
    }

    #[test]
    fn stream_faults_are_deterministic() {
        let sessions = sessions();
        let mut plan = FaultPlan { seed: 5, ..FaultPlan::default() };
        plan.stream_garble_one_in = 97;
        plan.stream_late_one_in = 101;
        plan.stream_burst_one_in = 53;
        let (a, sa) = build_feed(&sessions, Some(&plan));
        let (b, sb) = build_feed(&sessions, Some(&plan));
        assert_eq!(sa, sb);
        assert!(sa.garbled > 0 && sa.late_injected > 0 && sa.bursts > 0);
        // Garbling shows up only when the point is resolved.
        for r in &a {
            let stored = sessions[r.session_index as usize].points[r.point_index as usize];
            let resolved = r.point(&sessions);
            if r.flags & FLAG_GARBLED != 0 {
                assert!(resolved.pos.x.is_nan() && resolved.geo.lon.is_nan());
                assert_eq!(resolved.timestamp, stored.timestamp);
            } else {
                assert_eq!(resolved, stored);
            }
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.session_index, x.point_index, x.arrival_s, x.flags), (
                y.session_index,
                y.point_index,
                y.arrival_s,
                y.flags
            ));
        }
    }
}
