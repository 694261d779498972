//! Stream/batch parity: running the study as a stream — points arriving
//! one at a time through the bounded queue, trips closed by the
//! watermark, cleaned incrementally — must converge to the *identical*
//! study output the batch pipeline produces from the same seed. Not
//! statistically close: equal, field for field.

use std::sync::OnceLock;

use taxi_traces::core::{FaultPlan, Study, StudyConfig, StudyOutput};
use taxi_traces::stream::{run_stream, StreamConfig, StreamReport, StreamRun};

fn config() -> StudyConfig {
    StudyConfig::scaled(7, 0.1)
}

fn batch() -> &'static StudyOutput {
    static OUT: OnceLock<StudyOutput> = OnceLock::new();
    OUT.get_or_init(|| Study::new(config()).run().expect("batch study runs"))
}

fn streamed() -> &'static StreamRun {
    static RUN: OnceLock<StreamRun> = OnceLock::new();
    RUN.get_or_init(|| {
        run_stream(config(), &StreamConfig::default(), None).expect("stream runs")
    })
}

#[test]
fn healthy_feed_loses_nothing() {
    let run = streamed();
    assert_eq!(run.report.late_dropped, 0, "no record may fall past the watermark");
    assert_eq!(run.report.records_malformed, 0);
    assert_eq!(run.report.records_total, run.report.feed.records);
    assert!(run.report.trips_closed > 0);
}

#[test]
fn cleaning_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.cleaning, s.output.cleaning, "cleaning totals must match batch");
    assert_eq!(b.segments.len(), s.output.segments.len());
    for (x, y) in b.segments.iter().zip(&s.output.segments) {
        assert_eq!(x.trip_id, y.trip_id);
        assert_eq!(x.taxi, y.taxi);
        assert_eq!(x.start_time, y.start_time);
        assert_eq!(x.points, y.points);
    }
}

#[test]
fn od_funnel_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.funnel_rows, s.output.funnel_rows, "Table 3 funnel must match batch");
}

#[test]
fn fused_transition_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(b.transitions.len(), s.output.transitions.len());
    for (x, y) in b.transitions.iter().zip(&s.output.transitions) {
        assert_eq!(x, y, "fused transition records must be byte-identical");
    }
}

#[test]
fn quarantine_parity() {
    let (b, s) = (batch(), streamed());
    assert_eq!(
        b.quarantine.entries(),
        s.output.quarantine.entries(),
        "a healthy stream quarantines exactly what batch does"
    );
}

#[test]
fn stream_metrics_present_in_snapshot() {
    let s = streamed();
    for name in [
        "stream.records_total",
        "stream.trips_closed",
        "stream.late_dropped",
        "stream.backpressure_stalls",
    ] {
        assert!(s.output.metrics.counter(name).is_some(), "missing counter {name}");
    }
    assert!(s.output.metrics.gauge("stream.queue_depth").is_some());
    assert!(s.output.metrics.gauge("stream.watermark_lag_s").is_some());
    assert_eq!(
        s.output.metrics.counter("stream.records_total"),
        Some(s.report.feed.records)
    );
}

/// The deterministic part of a stream report: `(records_total,
/// trips_closed, late_dropped, records_malformed,
/// window_peak_transitions)`.
fn pinned(r: &StreamReport) -> (u64, u64, u64, u64, u64) {
    (r.records_total, r.trips_closed, r.late_dropped, r.records_malformed, r.window_peak_transitions)
}

#[test]
fn stream_report_pinned() {
    assert_eq!(pinned(&streamed().report), (69_698, 1_751, 0, 0, 2));
}

/// Garbled, late and bursty records under a window wide enough to never
/// evict, so the peak counts every transition the stream admitted.
#[test]
fn chaos_stream_report_pinned() {
    let mut config = config();
    config.chaos = Some(FaultPlan {
        seed: 9,
        stream_garble_one_in: 97,
        stream_late_one_in: 101,
        stream_burst_one_in: 53,
        ..FaultPlan::default()
    });
    let wide = StreamConfig { window_s: 1 << 40, ..StreamConfig::default() };
    let run = run_stream(config, &wide, None).expect("chaos stream runs");
    assert_eq!(
        (run.report.feed.garbled, run.report.feed.late_injected, run.report.feed.bursts),
        (713, 660, 1_322)
    );
    assert_eq!(pinned(&run.report), (69_698, 1_751, 646, 713, 19));
}
