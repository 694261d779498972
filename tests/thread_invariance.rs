//! Thread-count invariance: the study pipeline is a pure function of its
//! seed, *not* of the worker pool. Sharded simulation derives one RNG
//! stream per (taxi, day) work unit and the executors merge results in
//! submission order, so `--threads 1/2/8` must produce bit-identical
//! output — including on a single-core host, where 8 workers means
//! deliberate oversubscription (the override is taken literally).
//!
//! The same holds for every counter the metrics registry labels `result`:
//! only `perf` counters (steals, idle time) may follow the worker pool.

use std::collections::BTreeMap;

use taxi_traces::core::{Study, StudyConfig, StudyOutput};

/// `(kind, name pattern, family)` lines of the committed metrics registry.
const REGISTRY: &str = include_str!("../crates/lint/metrics.registry");

/// The registry family of counter `name`; a trailing `*` in a registry
/// name matches any suffix.
fn counter_family(name: &str) -> &'static str {
    for line in REGISTRY.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&'static str> = line.split_whitespace().collect();
        let [kind, pattern, family] = fields[..] else {
            panic!("registry line without a family: {line:?}");
        };
        let hit = match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == pattern,
        };
        if kind == "counter" && hit {
            return family;
        }
    }
    panic!("counter {name:?} is not in crates/lint/metrics.registry");
}

/// Every `result`-family counter of a run's snapshot.
fn result_counters(out: &StudyOutput) -> BTreeMap<String, u64> {
    out.metrics
        .counters
        .iter()
        .filter(|(name, _)| counter_family(name) == "result")
        .map(|(name, v)| (name.clone(), *v))
        .collect()
}

fn run_with_workers(workers: usize) -> StudyOutput {
    taxitrace_exec::set_max_workers(workers);
    let out = Study::new(StudyConfig::quick(77)).run().expect("study runs");
    taxitrace_exec::set_max_workers(0);
    out
}

/// Every pipeline artefact the study hands downstream, compared
/// field-for-field (all `f64`s via `PartialEq`, i.e. bit semantics for
/// any value the pipeline actually produces — NaNs would already fail
/// the pipeline's own validation).
fn assert_identical(a: &StudyOutput, b: &StudyOutput, workers: usize) {
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals at {workers} workers");
    assert_eq!(a.segments, b.segments, "segments at {workers} workers");
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel at {workers} workers");
    assert_eq!(a.transitions, b.transitions, "transitions at {workers} workers");
    assert_eq!(result_counters(a), result_counters(b), "result counters at {workers} workers");
}

#[test]
fn study_output_is_invariant_across_thread_counts() {
    let reference = run_with_workers(1);
    assert!(!reference.transitions.is_empty(), "seed 77 must produce transitions");
    let counters = result_counters(&reference);
    for name in ["sim.raw_points", "match.candidates_scored", "match.astar_expanded"] {
        assert!(counters.get(name).is_some_and(|&v| v > 0), "{name} missing or zero");
    }
    for workers in [2, 8] {
        let other = run_with_workers(workers);
        assert_identical(&reference, &other, workers);
    }
}
