//! Correctness references: the study fingerprint, the labelled counters and
//! the per-op verdicts the report aggregates.

use std::collections::BTreeMap;

use taxitrace_core::StudyOutput;
use taxitrace_obs::MetricsSnapshot;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

pub fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Fingerprint of a study output: cleaning totals, the Table 3 funnel and
/// every fused transition down to point-speed bits. The same digest the
/// `repro` CLI prints as `study fingerprint`, so the two can be compared.
pub fn study_fingerprint(out: &StudyOutput) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, out.cleaning.sessions as u64);
    h = fnv_u64(h, out.cleaning.segments_kept as u64);
    h = fnv_u64(h, out.segments.len() as u64);
    for row in out.funnel() {
        for v in [
            u64::from(row.taxi),
            row.segments_total as u64,
            row.any_crossing as u64,
            row.filtered_cleaned as u64,
            row.transitions_total as u64,
            row.within_center as u64,
            row.post_filtered as u64,
        ] {
            h = fnv_u64(h, v);
        }
    }
    for t in &out.transitions {
        h = fnv_bytes(h, t.pair.as_bytes());
        h = fnv_u64(h, t.points.len() as u64);
        h = fnv_u64(h, t.dist_km.to_bits());
        h = fnv_u64(h, t.time_h.to_bits());
        for p in &t.points {
            h = fnv_u64(h, p.speed_kmh.to_bits());
        }
    }
    h
}

/// Fingerprint of the bits of every simulated point, per session.
pub fn fleet_fingerprint(sessions: &[taxitrace_traces::RawTrip]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in sessions {
        h = fnv_u64(h, s.id.0);
        h = fnv_u64(h, u64::from(s.taxi.0));
        h = fnv_u64(h, s.points.len() as u64);
        for p in &s.points {
            h = fnv_u64(h, p.timestamp.secs() as u64);
            h = fnv_u64(h, p.pos.x.to_bits());
            h = fnv_u64(h, p.pos.y.to_bits());
            h = fnv_u64(h, p.speed_kmh.to_bits());
        }
    }
    h
}

/// Known study fingerprints: (seed, scale, fingerprint). Any run at one of
/// these settings must reproduce the value exactly.
const GOLDEN: &[(u64, f64, u64)] = &[(2012, 1.0, 0xf2d3_92b8_2926_b399)];

pub fn golden_fingerprint(seed: u64, scale: f64) -> Option<u64> {
    GOLDEN
        .iter()
        .find(|g| g.0 == seed && g.1 == scale)
        .map(|g| g.2)
}

/// Whether a recorded count is a deterministic result of the input
/// (`result`) or depends on scheduling and caches (`perf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Result,
    Perf,
}

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Result => "result",
            Family::Perf => "perf",
        }
    }
}

/// Counter names (or name prefixes ending in `.`/`_`) that vary with
/// scheduling today: which matcher worker sees which trace decides the
/// gap-fill cache traffic, work stealing decides steals and idle time,
/// thread timing decides the stream queue's depth and stalls, and serve
/// counts follow the load generator's clock.
const PERF_COUNTERS: &[&str] = &[
    "match.cache_",
    "match.astar_expanded",
    "exec.steals",
    "exec.idle_us",
    "serve.",
    "stream.backpressure_stalls",
    "stream.max_queue_depth",
];

pub fn family(name: &str) -> Family {
    let perf = PERF_COUNTERS.iter().any(|p| {
        if p.ends_with('.') || p.ends_with('_') {
            name.starts_with(p)
        } else {
            name == *p
        }
    });
    if perf {
        Family::Perf
    } else {
        Family::Result
    }
}

/// The `result` counters of a snapshot whose names start with one of
/// `prefixes` (all of them when `prefixes` is empty).
pub fn result_counters(snap: &MetricsSnapshot, prefixes: &[&str]) -> BTreeMap<String, u64> {
    snap.counters
        .iter()
        .filter(|(name, _)| family(name) == Family::Result)
        .filter(|(name, _)| prefixes.is_empty() || prefixes.iter().any(|p| name.starts_with(p)))
        .map(|(name, v)| (name.clone(), *v))
        .collect()
}

/// Counter families every pipeline path produces alike: simulated or
/// replayed volume and the three paper stages.
pub const STAGE_FAMILIES: &[&str] = &["sim.", "clean.", "od.", "match."];

/// What one op was checked against, and what disagreed.
#[derive(Debug, Default)]
pub struct Verdict {
    pub checks: Vec<&'static str>,
    pub mismatches: Vec<String>,
}

impl Verdict {
    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, check: &'static str, got: T, want: T) {
        self.checks.push(check);
        if got != want {
            self.mismatches
                .push(format!("{check}: got {got:?}, want {want:?}"));
        }
    }

    pub fn truth(&mut self, check: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks.push(check);
        if !ok {
            self.mismatches.push(format!("{check}: {}", detail()));
        }
    }

    /// Every counter of `want` must be present in `got` with the same value.
    pub fn counters(
        &mut self,
        check: &'static str,
        got: &BTreeMap<String, u64>,
        want: &BTreeMap<String, u64>,
    ) {
        self.checks.push(check);
        for (name, w) in want {
            let g = got.get(name);
            if g != Some(w) {
                self.mismatches
                    .push(format!("{check}: {name} got {g:?}, want {w}"));
            }
        }
    }

    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}
