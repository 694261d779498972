//! Per-worker scratch for the matching hot path: a reusable A* search
//! state plus the matcher's audit counters.
//!
//! Gap filling issues one shortest-path query per non-adjacent edge
//! transition (§IV-E). The search arrays are generation-stamped, so a
//! worker reuses them across queries and traces without clearing or
//! reallocating; every query still runs, so the counters (A* expansions
//! included) are a pure function of the matched traces.

use taxitrace_roadnet::SearchState;

/// All mutable per-worker state a matcher thread holds across traces,
/// plus the audit counters the matcher accumulates while using it.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// Reusable A* arrays (generation-stamped; no per-query allocation).
    pub search: SearchState,
    /// Traces matched through this scratch.
    pub traces: u64,
    /// Candidates scored across all points of all traces.
    pub candidates_scored: u64,
    /// Points that received a match.
    pub points_matched: u64,
    /// Points with no candidate in radius.
    pub points_unmatched: u64,
    /// Gap-fill routing queries abandoned because they hit the
    /// `gap_fill_max_expansions` budget (each fell back to a straight
    /// gap; see [`crate::MatchConfig::gap_fill_max_expansions`]).
    pub gaps_budget_exhausted: u64,
}

impl MatchScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Publishes the combined counters of per-worker scratches as `match.*`
/// metrics: trace/point/candidate volumes and A* search effort.
pub fn record_scratch_metrics(scratches: &[MatchScratch], registry: &taxitrace_obs::Registry) {
    let mut traces = 0u64;
    let mut candidates = 0u64;
    let mut matched = 0u64;
    let mut unmatched = 0u64;
    let mut expanded = 0u64;
    let mut budget_exhausted = 0u64;
    for s in scratches {
        traces += s.traces;
        candidates += s.candidates_scored;
        matched += s.points_matched;
        unmatched += s.points_unmatched;
        expanded += s.search.expanded_total();
        budget_exhausted += s.gaps_budget_exhausted;
    }
    registry.counter("match.traces").add(traces);
    registry.counter("match.candidates_scored").add(candidates);
    registry.counter("match.points_matched").add(matched);
    registry.counter("match.points_unmatched").add(unmatched);
    registry.counter("match.astar_expanded").add(expanded);
    registry.counter("match.gap_budget_exhausted").add(budget_exhausted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{incremental, CandidateIndex, MatchConfig};
    use taxitrace_roadnet::synth::{generate, OuluConfig};
    use taxitrace_traces::{simulate_fleet, FleetConfig};
    use taxitrace_weather::WeatherModel;

    /// One scratch carried across many traces yields, trace by trace, the
    /// element sequence and counters of a fresh scratch per trace.
    #[test]
    fn reused_scratch_matches_fresh_scratch_per_trace() {
        let city = generate(&OuluConfig::default());
        let fleet = simulate_fleet(&city, &WeatherModel::new(3), &FleetConfig::tiny(3));
        let index = CandidateIndex::new(&city.graph, &city.elements);
        let config = MatchConfig::default();
        let mut reused = MatchScratch::new();
        let mut fresh_expanded = 0u64;
        for session in fleet.sessions.iter().take(12) {
            let points = &session.points[..session.points.len().min(60)];
            let mut fresh = MatchScratch::new();
            let a = incremental::match_trace_with(&mut reused, &city.graph, &index, points, &config);
            let b = incremental::match_trace_with(&mut fresh, &city.graph, &index, points, &config);
            assert_eq!(a.elements, b.elements);
            assert_eq!(a.points, b.points);
            fresh_expanded += fresh.search.expanded_total();
        }
        assert!(fresh_expanded > 0, "the traces must exercise gap fill");
        assert_eq!(reused.search.expanded_total(), fresh_expanded);
        assert!(reused.traces == 12 && reused.points_matched > 0);
    }
}
