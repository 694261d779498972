//! Pins the fleet simulator's output bits.
//!
//! Every emitted point (timestamp, planar and geographic position, speed,
//! heading, fuel, point id, truth sequence and element), every truth leg
//! and every session total is folded into one FNV-1a digest. The constants
//! were captured before the simulator's hot path was optimised; a change
//! that is meant to be behaviour-neutral (a faster cursor, a different
//! buffer layout) must leave them exactly as they are. A change to the
//! RNG draw order or to any floating-point expression moves them, and is
//! then a deliberate re-bless, not a performance change.

use taxi_traces::roadnet::synth::{generate, OuluConfig};
use taxi_traces::traces::{simulate_fleet, FleetConfig, FleetData};
use taxi_traces::weather::WeatherModel;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fleet_fingerprint(data: &FleetData) -> u64 {
    let mut h = Fnv::new();
    h.word(data.sessions.len() as u64);
    h.word(data.shard_count as u64);
    for s in &data.sessions {
        h.word(s.id.0);
        h.word(u64::from(s.taxi.0));
        h.word(s.start_time.secs() as u64);
        h.word(s.end_time.secs() as u64);
        h.word(s.total_time.secs() as u64);
        h.f(s.total_distance_m);
        h.f(s.total_fuel_ml);
        h.word(s.points.len() as u64);
        for p in &s.points {
            h.word(p.point_id);
            h.word(p.trip_id.0);
            h.word(u64::from(p.taxi.0));
            h.word(p.timestamp.secs() as u64);
            h.f(p.pos.x);
            h.f(p.pos.y);
            h.f(p.geo.lon);
            h.f(p.geo.lat);
            h.f(p.speed_kmh);
            h.f(p.heading_deg);
            h.f(p.fuel_ml);
            h.word(u64::from(p.truth.seq));
            h.word(p.truth.element.map_or(u64::MAX, |e| e.0));
        }
        h.word(s.truth_trips.len() as u64);
        for leg in &s.truth_trips {
            h.word(u64::from(leg.start_seq));
            h.word(u64::from(leg.end_seq));
            h.word(u64::from(leg.origin.0));
            h.word(u64::from(leg.destination.0));
            h.word(leg.elements.len() as u64);
            for e in &leg.elements {
                h.word(e.0);
            }
            match &leg.od_pair {
                Some((o, d)) => {
                    h.word(1);
                    h.str(o);
                    h.str(d);
                }
                None => h.word(0),
            }
        }
    }
    h.0
}

fn run(config: &FleetConfig) -> (usize, usize, u64) {
    let city = generate(&OuluConfig::default());
    let weather = WeatherModel::new(42);
    let data = simulate_fleet(&city, &weather, config);
    (data.sessions.len(), data.total_points(), fleet_fingerprint(&data))
}

#[test]
fn tiny_fleet_bits_are_pinned() {
    assert_eq!(run(&FleetConfig::tiny(7)), (59, 2303, 0x0487_3d58_444c_8238));
}

#[test]
fn full_width_fleet_bits_are_pinned() {
    // All seven paper taxis (seven driver profiles), a few legs a day.
    let config = FleetConfig { seed: 4049, scale: 0.006, ..FleetConfig::default() };
    assert_eq!(run(&config), (103, 4406, 0xe5bc_8d48_62f7_8dfa));
}
