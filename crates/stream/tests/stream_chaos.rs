//! Live-feed chaos suite: seeded stream faults must produce typed,
//! accounted-for outcomes — a mid-stream kill resumes byte-identically
//! from the stream cursor, a late-data flood blows the stream stage's
//! error budget, malformed records land in quarantine instead of
//! vanishing, a starved queue applies backpressure without loss, and the
//! chunked hand-off gives the same run at every queue capacity.

use std::path::PathBuf;

use taxitrace_core::{Error, FaultPlan, StudyConfig, StudyOutput};
use taxitrace_stream::{run_stream, StreamConfig, StreamReport};

fn config(plan: FaultPlan) -> StudyConfig {
    let mut config = StudyConfig::quick(23);
    config.chaos = Some(plan);
    config
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ttstream-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn assert_same_output(a: &StudyOutput, b: &StudyOutput) {
    assert_eq!(a.cleaning, b.cleaning, "cleaning totals diverged");
    assert_eq!(a.segments.len(), b.segments.len(), "segment count diverged");
    for (x, y) in a.segments.iter().zip(&b.segments) {
        assert_eq!(x.points, y.points, "segment points diverged");
    }
    assert_eq!(a.funnel_rows, b.funnel_rows, "funnel diverged");
    assert_eq!(a.transitions, b.transitions, "fused transitions diverged");
    assert_eq!(a.quarantine.entries(), b.quarantine.entries(), "quarantine diverged");
}

#[test]
fn mid_stream_kill_resumes_byte_identically() {
    // Reference run: same seed, kill disabled, no checkpoints.
    let stream_cfg = StreamConfig::default();
    let reference = run_stream(config(FaultPlan::default()), &stream_cfg, None)
        .expect("reference run");
    let total = reference.report.feed.records;
    assert!(total > 200, "need a non-trivial feed, got {total}");

    // Killed run: same data, kill half-way, checkpoint, resume.
    let kill_at = total / 2;
    let plan = FaultPlan { stream_kill_after_records: kill_at, ..FaultPlan::default() };
    let dir = tmp_dir("kill");
    let killed = run_stream(config(plan.clone()), &stream_cfg, Some(&dir));
    match killed {
        Err(Error::InjectedKill { stage }) => {
            assert_eq!(stage, format!("stream@{kill_at}"));
        }
        other => panic!("expected injected kill, got {other:?}"),
    }
    assert!(dir.join("stream.ttck").exists(), "kill must leave a checkpoint");

    let resumed = run_stream(config(plan), &stream_cfg, Some(&dir)).expect("resumed run");
    assert_eq!(resumed.report.resumed_from, Some(kill_at));
    assert_eq!(resumed.report.resumes, 1);
    // Cumulative counters survive the kill: every record is accounted to
    // exactly one of the two processes.
    assert_eq!(resumed.report.records_total, total);

    // The killed-and-resumed output is the uninterrupted output. Not
    // close — identical.
    assert_same_output(&reference.output, &resumed.output);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodic_checkpoints_also_resume_identically() {
    let stream_cfg = StreamConfig { checkpoint_every: 500, ..StreamConfig::default() };
    let reference =
        run_stream(config(FaultPlan::default()), &StreamConfig::default(), None)
            .expect("reference run");
    let total = reference.report.feed.records;
    let kill_at = (total / 3).max(1);
    let plan = FaultPlan { stream_kill_after_records: kill_at, ..FaultPlan::default() };
    let dir = tmp_dir("periodic");
    assert!(matches!(
        run_stream(config(plan.clone()), &stream_cfg, Some(&dir)),
        Err(Error::InjectedKill { .. })
    ));
    let resumed = run_stream(config(plan), &stream_cfg, Some(&dir)).expect("resumed run");
    assert!(resumed.report.checkpoints > 1, "periodic checkpoints should have fired");
    assert_same_output(&reference.output, &resumed.output);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn late_flood_blows_the_stream_budget() {
    let plan = FaultPlan {
        stream_late_one_in: 3,
        stream_late_delay_s: 86_400,
        error_budget: Some(0.05),
        ..FaultPlan::default()
    };
    match run_stream(config(plan), &StreamConfig::default(), None) {
        Err(Error::BudgetExceeded { stage, quarantined, total, .. }) => {
            assert_eq!(stage, "stream");
            assert!(quarantined > 0);
            assert!(quarantined as f64 / total as f64 > 0.05);
        }
        other => panic!("expected stream budget blow, got {other:?}"),
    }
}

#[test]
fn malformed_records_are_quarantined_not_dropped() {
    let plan = FaultPlan { stream_garble_one_in: 40, ..FaultPlan::default() };
    let run = run_stream(config(plan), &StreamConfig::default(), None).expect("gabled run");
    assert!(run.report.feed.garbled > 0, "plan should have garbled records");
    assert_eq!(run.report.records_malformed, run.report.feed.garbled);
    // Every malformed or late record has a ledger entry — nothing is
    // silently dropped.
    let stream_entries =
        run.output.quarantine.entries().iter().filter(|e| e.stage == "stream").count() as u64;
    assert_eq!(stream_entries, run.report.records_malformed + run.report.late_dropped);
    // And everything the feed produced was consumed.
    assert_eq!(run.report.records_total, run.report.feed.records);
}

#[test]
fn starved_queue_applies_backpressure_without_loss() {
    let plan = FaultPlan {
        stream_burst_one_in: 10,
        stream_stall_one_in: 400,
        ..FaultPlan::default()
    };
    let stream_cfg = StreamConfig { queue_capacity: 1, ..StreamConfig::default() };
    let run = run_stream(config(plan), &stream_cfg, None).expect("bursty run");
    assert!(run.report.feed.bursts > 0);
    assert!(run.report.feeder_stalls > 0, "stall injection should have fired");
    assert!(
        run.report.backpressure_stalls > 0,
        "a capacity-1 queue must have blocked the feeder at least once"
    );
    // The backpressure contract: blocked, never dropped.
    assert_eq!(run.report.records_total, run.report.feed.records);
    assert_eq!(run.report.late_dropped + run.report.records_malformed, 0);
    // The gauge also counts the record in flight at the feeder and the
    // one just received, so the transient bound is capacity + 2.
    assert!(
        run.report.max_queue_depth <= stream_cfg.queue_capacity as u64 + 2,
        "queue depth {} exceeds bounded capacity",
        run.report.max_queue_depth
    );
}

/// Records per queue chunk, as documented on `StreamConfig::queue_capacity`.
fn chunk_len(capacity: usize) -> usize {
    (capacity / 8).clamp(1, 256)
}

/// A report with its scheduling-dependent fields (`backpressure_stalls`,
/// `max_queue_depth`) zeroed.
fn deterministic(r: &StreamReport) -> StreamReport {
    StreamReport { backpressure_stalls: 0, max_queue_depth: 0, ..*r }
}

#[test]
fn every_queue_capacity_gives_the_same_run() {
    let plan = FaultPlan {
        stream_burst_one_in: 10,
        stream_stall_one_in: 400,
        ..FaultPlan::default()
    };
    let default_capacity = StreamConfig::default().queue_capacity;
    let runs: Vec<_> = [1, 2, 7, default_capacity]
        .into_iter()
        .map(|capacity| {
            let stream_cfg = StreamConfig { queue_capacity: capacity, ..StreamConfig::default() };
            let run = run_stream(config(plan.clone()), &stream_cfg, None).expect("bursty run");
            let bound = (capacity + chunk_len(capacity)) as u64;
            assert!(
                run.report.max_queue_depth <= bound,
                "capacity {capacity}: queue depth {} exceeds capacity + chunk = {bound}",
                run.report.max_queue_depth
            );
            run
        })
        .collect();
    let first = &runs[0];
    assert!(first.report.feed.bursts > 0 && first.report.feeder_stalls > 0);
    for run in &runs[1..] {
        assert_eq!(deterministic(&run.report), deterministic(&first.report));
        assert_same_output(&first.output, &run.output);
    }
}

#[test]
fn kill_inside_a_chunk_resumes_byte_identically() {
    let stream_cfg = StreamConfig::default();
    let chunk = chunk_len(stream_cfg.queue_capacity) as u64;
    assert!(chunk > 1, "the default queue must move records in chunks");
    let reference = run_stream(config(FaultPlan::default()), &stream_cfg, None)
        .expect("reference run");
    let kill_at = 5 * chunk + chunk / 2 + 1;
    assert_ne!(kill_at % chunk, 0);
    assert!(kill_at < reference.report.feed.records);

    let plan = FaultPlan { stream_kill_after_records: kill_at, ..FaultPlan::default() };
    let dir = tmp_dir("chunk-kill");
    match run_stream(config(plan.clone()), &stream_cfg, Some(&dir)) {
        Err(Error::InjectedKill { stage }) => assert_eq!(stage, format!("stream@{kill_at}")),
        other => panic!("expected injected kill, got {other:?}"),
    }
    let resumed = run_stream(config(plan), &stream_cfg, Some(&dir)).expect("resumed run");
    assert_eq!(resumed.report.resumed_from, Some(kill_at));
    assert_eq!(resumed.report.records_total, reference.report.records_total);
    assert_eq!(resumed.report.trips_closed, reference.report.trips_closed);
    assert_same_output(&reference.output, &resumed.output);
    std::fs::remove_dir_all(&dir).ok();
}
