//! Pins the full study at the committed baseline (seed 2012, scale 1.0).
//!
//! Three kinds of constant are checked against one run:
//!
//! * the study fingerprint ([`StudyOutput::fingerprint`]: cleaning totals,
//!   the Table 3 funnel and every fused transition down to point-speed
//!   bits), the digest `repro stream` and `repro ingest` print;
//! * the fleet digest (every session's identity and the bits of every
//!   point's time, position and speed) of the fleet simulated alone at
//!   1%, 10% and 100% of the study's volume, each at 1 and at 4 workers;
//! * exact work counters of the run. They are pure functions of the
//!   input, so a behaviour-neutral change must leave them as they are.
//!
//! `set_max_workers` is process-global, so all worker switching stays
//! inside the one test of this file.

use taxi_traces::core::{Study, StudyConfig, StudyOutput};
use taxi_traces::traces::{simulate_fleet, RawTrip};

const STUDY_FINGERPRINT: u64 = 0xf2d3_92b8_2926_b399;

/// `(relative scale, digest)`: the fleet at `rel`% of the study's volume.
const FLEET_DIGESTS: [(u32, u64); 3] = [
    (1, 0x02cf_c860_35c4_9ddd),
    (10, 0x94c5_1693_39a7_58d3),
    (100, 0x7eb5_8aa8_15c6_ca1f),
];

const WORK_COUNTERS: [(&str, u64); 4] = [
    ("sim.raw_points", 715_319),
    ("match.candidates_scored", 89_766),
    ("match.points_matched", 27_371),
    ("match.astar_expanded", 2_997),
];

fn fnv_word(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fleet_digest(sessions: &[RawTrip]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for s in sessions {
        h = fnv_word(h, s.id.0);
        h = fnv_word(h, u64::from(s.taxi.0));
        h = fnv_word(h, s.points.len() as u64);
        for p in &s.points {
            h = fnv_word(h, p.timestamp.secs() as u64);
            h = fnv_word(h, p.pos.x.to_bits());
            h = fnv_word(h, p.pos.y.to_bits());
            h = fnv_word(h, p.speed_kmh.to_bits());
        }
    }
    h
}

fn fleet_digest_at(out: &StudyOutput, rel: u32, workers: usize) -> u64 {
    taxitrace_exec::set_max_workers(workers);
    let mut config = out.config.fleet.clone();
    config.scale = out.config.fleet.scale / 100.0 * f64::from(rel);
    let fleet = simulate_fleet(&out.city, &out.weather, &config);
    taxitrace_exec::set_max_workers(0);
    fleet_digest(&fleet.sessions)
}

#[test]
fn baseline_study_fleet_and_work_counters_are_pinned() {
    let out = Study::new(StudyConfig::scaled(2012, 1.0)).run().expect("study runs");
    assert_eq!(
        out.fingerprint(),
        STUDY_FINGERPRINT,
        "study fingerprint {:#018x}",
        out.fingerprint()
    );
    for (name, want) in WORK_COUNTERS {
        assert_eq!(out.metrics.counter(name), Some(want), "counter {name}");
    }
    for (rel, want) in FLEET_DIGESTS {
        for workers in [1, 4] {
            let got = fleet_digest_at(&out, rel, workers);
            assert_eq!(got, want, "fleet digest at {rel}% and {workers} workers: {got:#018x}");
        }
    }
}
