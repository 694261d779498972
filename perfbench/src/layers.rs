//! The layer pass (`--trace 1`): one traced visit of every layer.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions. `Study::simulate` bundles city, fleet and persist, so the
//! pass also calls `simulate_fleet` (at `--workers` and at one worker) and
//! `TripStore::insert_all` on their own. Every output the pass produces is
//! checked against a one-worker reference, so the traced run is also a
//! correctness run. The pass is the same for every workload; the README
//! says which end-to-end figure of which workload each layer figure
//! should move.

use std::time::Instant;

use taxitrace_core::{config_fingerprint, weather_for, Study, StudyOutput};
use taxitrace_obs::MetricsSnapshot;
use taxitrace_serve::Snapshot;
use taxitrace_store::{codec, LoadOptions, TripStore};
use taxitrace_stream::{build_feed, run_stream, StreamConfig};

use crate::check::{fleet_fingerprint, result_counters, Verdict};
use crate::pipelines::{
    analyses, golden_verdict, grid_products, lmm_products, replay_verdict, stream_verdict,
    table_products, Reference, ReplayFiles,
};
use crate::report::Report;
use crate::serve::{self, KINDS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::Ctx;

/// Unwraps a layer call's result, or records the failure and ends the pass.
macro_rules! step {
    ($rep:expr, $tr:expr, $what:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(e) => {
                $rep.fail($what, e.to_string());
                return $tr;
            }
        }
    };
}

/// Untraced/traced pairs of the staged study.
const OVERHEAD_PAIRS: usize = 2;

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) -> Tracer {
    let mut tr = Tracer::new();
    let config = ctx.config();
    let study = Study::new(config.clone());

    // Reference at one worker: every later output must reproduce it.
    taxitrace_exec::set_max_workers(1);
    let reference_out = step!(rep, tr, "reference run", study.run());
    taxitrace_exec::set_max_workers(ctx.workers);
    let reference = Reference::of(&reference_out);
    rep.op("reference", golden_verdict(ctx, reference.fingerprint));
    let reference_products = step!(rep, tr, "reference analyses", analyses(&reference_out));
    drop(reference_out);
    // The staged study (simulate → clean → O-D → match and fuse), traced,
    // interleaved with the same study untraced; the difference of their
    // medians is the tracing overhead.
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut staged = None;
    for _ in 0..OVERHEAD_PAIRS {
        let t = Instant::now();
        let untraced = step!(rep, tr, "untraced run", study.run());
        untraced_walls.push(t.elapsed().as_secs_f64());
        let mut v = reference.verdict(ctx, &untraced);
        v.counters(
            "workers_result_counters",
            &result_counters(&untraced.metrics, &[]),
            &reference.counters,
        );
        rep.op("untraced run", v);
        drop(untraced);
        drop(staged.take());
        let out: StudyOutput = step!(
            rep,
            tr,
            "staged run",
            tr.span("study", |tr| {
                let sim = tr.span("study.simulate", |_| study.simulate())?;
                let cleaned = tr.span("study.clean", |_| sim.clean())?;
                let od = tr.span("study.od", |_| cleaned.analyze_od())?;
                tr.span("study.match_fuse", |_| od.match_fuse())
            })
        );
        traced_walls.push(tr.wall_s("study"));
        let mut v = reference.verdict(ctx, &out);
        v.counters(
            "workers_result_counters",
            &result_counters(&out.metrics, &[]),
            &reference.counters,
        );
        rep.op("staged run", v);
        staged = Some(out);
    }
    let Some(out) = staged else { return tr };
    rep.metric("study_s", median(&traced_walls), "s");
    rep.metric(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced_walls),
        "s",
    );

    // Fleet simulation split out of Study::simulate, and the persist step.
    let weather = weather_for(&config);
    let fleet = tr.span("traces.fleet", |_| {
        taxitrace_traces::simulate_fleet(&out.city, &weather, &config.fleet)
    });
    taxitrace_exec::set_max_workers(1);
    let fleet_1t = tr.span("traces.fleet_1t", |_| {
        taxitrace_traces::simulate_fleet(&out.city, &weather, &config.fleet)
    });
    taxitrace_exec::set_max_workers(ctx.workers);
    let fleet_fp = fleet_fingerprint(&fleet.sessions);
    let mut v = Verdict::default();
    v.eq(
        "fleet_workers",
        fleet_fingerprint(&fleet_1t.sessions),
        fleet_fp,
    );
    v.eq(
        "fleet_matches_store",
        fleet_fingerprint(out.store.sessions()),
        fleet_fp,
    );
    rep.op("fleet", v);
    drop(fleet_1t);
    let raw_points: u64 = fleet.sessions.iter().map(|s| s.points.len() as u64).sum();
    let mut store = TripStore::new();
    step!(
        rep,
        tr,
        "persist",
        tr.span("store.persist", |_| store.insert_all(fleet.sessions))
    );
    let (fleet_s, fleet_1t_s) = (tr.wall_s("traces.fleet"), tr.wall_s("traces.fleet_1t"));
    rep.metric("traces.fleet_s", fleet_s, "s");
    rep.metric("traces.fleet_1t_s", fleet_1t_s, "s");
    rep.metric(
        "traces.points_per_s",
        ratio(raw_points as f64, fleet_s),
        "1/s",
    );
    rep.metric("traces.raw_points", raw_points as f64, "count");
    rep.count("traces.raw_points", raw_points);

    // Executor and stage figures of the staged run.
    let m = &out.metrics;
    rep.metric("exec.fleet_speedup", ratio(fleet_1t_s, fleet_s), "ratio");
    for name in ["exec.tasks", "exec.steals", "exec.idle_us"] {
        rep.metric(
            name,
            counter(m, name) as f64,
            if name == "exec.idle_us" {
                "us"
            } else {
                "count"
            },
        );
    }
    let clean_s = tr.wall_s("study.clean");
    let rule_fires: u64 = m
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with("clean.rule_fires."))
        .map(|(_, v)| v)
        .sum();
    rep.metric("clean.stage_s", clean_s, "s");
    rep.metric(
        "clean.points_per_s",
        ratio(counter(m, "clean.raw_points") as f64, clean_s),
        "1/s",
    );
    rep.metric(
        "clean.segments_kept",
        counter(m, "clean.segments_kept") as f64,
        "count",
    );
    rep.metric("clean.rule_fires", rule_fires as f64, "count");
    rep.count("clean.rule_fires", rule_fires);
    rep.metric("od.stage_s", tr.wall_s("study.od"), "s");
    rep.metric(
        "od.transitions_total",
        counter(m, "od.transitions_total") as f64,
        "count",
    );
    rep.metric(
        "od.post_filtered",
        counter(m, "od.post_filtered") as f64,
        "count",
    );
    let (matched, unmatched) = (
        counter(m, "match.points_matched"),
        counter(m, "match.points_unmatched"),
    );
    rep.metric("match.stage_s", tr.wall_s("study.match_fuse"), "s");
    rep.metric(
        "match.candidates_scored",
        counter(m, "match.candidates_scored") as f64,
        "count",
    );
    rep.metric("match.points_matched", matched as f64, "count");
    rep.metric(
        "match.matched_ratio",
        ratio(matched as f64, (matched + unmatched) as f64),
        "ratio",
    );
    rep.metric(
        "match.astar_expanded",
        counter(m, "match.astar_expanded") as f64,
        "count",
    );
    rep.metric(
        "match.cache_hit_rate",
        m.gauge("match.cache_hit_rate").unwrap_or(0.0),
        "ratio",
    );
    for (name, value) in &m.counters {
        rep.count(name, *value);
    }

    // Paper products.
    let products = tr.span("analysis", |tr| {
        let grid = tr.span("analysis.grid", |_| grid_products(&out));
        let lmm = tr.span("analysis.lmm", |_| lmm_products(&out));
        let tables = tr.span("analysis.tables", |_| table_products(&out));
        lmm.map(|lmm| crate::pipelines::Products { grid, lmm, tables })
    });
    let products = step!(rep, tr, "analyses", products);
    let mut v = Verdict::default();
    v.eq(
        "analysis_products",
        products.fingerprint(),
        reference_products.fingerprint(),
    );
    rep.op("analyses", v);
    rep.metric("analysis_s", tr.wall_s("analysis"), "s");
    for name in ["analysis.grid", "analysis.lmm", "analysis.tables"] {
        rep.metric(&format!("{name}_s"), tr.wall_s(name), "s");
    }

    // Store: save, load, replay.
    let files = ReplayFiles::in_dir(&ctx.work_dir);
    let fingerprint = config_fingerprint(&config);
    step!(
        rep,
        tr,
        "store save",
        tr.span("store.save", |_| codec::save_sessions_tagged(
            &files.store,
            store.sessions(),
            fingerprint
        ))
    );
    let loaded = step!(
        rep,
        tr,
        "store load",
        tr.span("store.load", |_| codec::load(
            &files.store,
            &LoadOptions::salvage()
        ))
    );
    let mut v = Verdict::default();
    v.eq("store_load", fleet_fingerprint(&loaded.sessions), fleet_fp);
    v.eq("store_load_clean", loaded.report.damage.len(), 0);
    rep.op("store load", v);
    let store_bytes = std::fs::metadata(&files.store).map_or(0, |m| m.len());
    let load_s = tr.wall_s("store.load");
    rep.metric("store.persist_s", tr.wall_s("store.persist"), "s");
    rep.metric("store.save_s", tr.wall_s("store.save"), "s");
    rep.metric("store.load_s", load_s, "s");
    rep.metric(
        "store.load_mb_per_s",
        ratio(store_bytes as f64 / 1e6, load_s),
        "MB/s",
    );
    rep.metric(
        "store.indexed_reads",
        u64::from(loaded.indexed) as f64,
        "count",
    );
    rep.count("store.indexed_reads", u64::from(loaded.indexed));
    drop(loaded);
    let from_store = step!(
        rep,
        tr,
        "replay store",
        tr.span("replay.store", |_| study.run_from_store(&files.store))
    );
    rep.op(
        "replay store",
        replay_verdict(ctx, &reference, &from_store, true),
    );
    rep.metric("replay_store_s", tr.wall_s("replay.store"), "s");

    // Ingest: export, parse, replay.
    let written = tr.span("ingest.export", |_| {
        std::fs::write(
            &files.traces,
            taxitrace_ingest::export_trace_csv(store.sessions()),
        )?;
        std::fs::write(&files.map, taxitrace_ingest::export_osmx(&out.city))
    });
    step!(rep, tr, "ingest export", written);
    let csv = step!(rep, tr, "read traces", std::fs::read(&files.traces));
    let osmx = step!(rep, tr, "read map", std::fs::read(&files.map));
    let traces = tr.span("ingest.parse_traces", |_| {
        taxitrace_ingest::parse_trace_csv(&csv)
    });
    let map = step!(
        rep,
        tr,
        "parse map",
        tr.span("ingest.parse_map", |_| taxitrace_ingest::parse_osmx(&osmx))
    );
    let mut v = Verdict::default();
    v.eq(
        "ingest_traces",
        fleet_fingerprint(&traces.sessions),
        fleet_fp,
    );
    v.eq("ingest_issues", traces.issues.len() + map.issues.len(), 0);
    rep.op("ingest parse", v);
    let parse_s = tr.wall_s("ingest.parse_traces") + tr.wall_s("ingest.parse_map");
    let records = (traces.records_total + map.records_total) as u64;
    let quarantined = (traces.issues.len() + map.issues.len()) as u64;
    rep.metric(
        "ingest.parse_traces_s",
        tr.wall_s("ingest.parse_traces"),
        "s",
    );
    rep.metric("ingest.parse_map_s", tr.wall_s("ingest.parse_map"), "s");
    rep.metric(
        "ingest.mb_per_s",
        ratio((csv.len() + osmx.len()) as f64 / 1e6, parse_s),
        "MB/s",
    );
    rep.metric("ingest.records", records as f64, "count");
    rep.metric("ingest.quarantined", quarantined as f64, "count");
    rep.count("ingest.records", records);
    rep.count("ingest.quarantined", quarantined);
    drop((traces, map, csv, osmx));
    let from_csv = step!(
        rep,
        tr,
        "replay csv",
        tr.span("replay.csv", |_| study
            .run_from_external(&files.traces, Some(&files.map)))
    );
    rep.op(
        "replay csv",
        replay_verdict(ctx, &reference, &from_csv, false),
    );
    rep.metric("replay_csv_s", tr.wall_s("replay.csv"), "s");

    // Stream: feed, the whole run, and the simulate share inside it.
    let stream_cfg = StreamConfig::default();
    let (feed, _) = tr.span("stream.feed", |_| build_feed(store.sessions(), None));
    let feed_records = feed.len() as u64;
    drop((feed, store));
    let streamed = step!(
        rep,
        tr,
        "stream",
        tr.span("stream.run", |_| run_stream(
            config.clone(),
            &stream_cfg,
            None
        ))
    );
    rep.op("stream", stream_verdict(ctx, &reference, &streamed));
    let sim = step!(
        rep,
        tr,
        "stream simulate",
        tr.span("stream.simulate", |_| study.simulate())
    );
    drop(sim);
    let r = &streamed.report;
    let stream_s = tr.wall_s("stream.run");
    let engine_s = stream_s - tr.wall_s("stream.simulate");
    let mut v = Verdict::default();
    v.eq("stream_feed_records", r.records_total, feed_records);
    rep.op("stream feed", v);
    rep.metric("stream_s", stream_s, "s");
    rep.metric("stream.engine_s", engine_s, "s");
    rep.metric("stream.feed_s", tr.wall_s("stream.feed"), "s");
    rep.metric(
        "stream.records_per_s",
        ratio(r.records_total as f64, engine_s),
        "1/s",
    );
    rep.metric(
        "stream.stall_ratio",
        ratio(r.backpressure_stalls as f64, r.records_total as f64),
        "ratio",
    );
    rep.metric("stream.max_queue_depth", r.max_queue_depth as f64, "count");
    rep.metric("stream.trips_closed", r.trips_closed as f64, "count");
    rep.count("stream.trips_closed", r.trips_closed);
    rep.count("stream.records_total", r.records_total);
    rep.count("stream.max_queue_depth", r.max_queue_depth);
    rep.count("stream.backpressure_stalls", r.backpressure_stalls);
    drop(streamed);

    // Serve: the staged output is served, the store replay is the spare
    // the swapper republishes, the CSV replay answers in process.
    let served = tr.span("serve.snapshot", |_| Snapshot::from_output(out));
    let spare = Snapshot::from_output(from_store);
    let in_process = Snapshot::from_output(from_csv);
    let stats = tr.span("serve", |_| {
        serve::drive(ctx, rep, served, spare, &in_process, true)
    });
    drop(in_process);
    rep.metric("serve_p50_us", stats.p50_us(), "us");
    rep.metric("serve_p99_us", stats.p99_us(), "us");
    rep.metric("serve_max_qps", stats.max_qps(), "req/s");
    rep.metric("serve.flat_out_qps", stats.flat_out_qps(), "req/s");
    for (k, kind) in KINDS.iter().enumerate() {
        let answer = median(&stats.answer_us[k]);
        let rtt = median(&stats.reference_by_kind[k]);
        rep.metric(&format!("serve.answer_us.{kind}"), answer, "us");
        rep.metric(&format!("serve.rtt_p50_us.{kind}"), rtt, "us");
        rep.metric(
            &format!("serve.rtt_p99_us.{kind}"),
            percentile(&stats.reference_by_kind[k], 0.99),
            "us",
        );
        rep.metric(&format!("serve.overhead_us.{kind}"), rtt - answer, "us");
    }
    rep.metric(
        "serve.sched_lag_p99_us",
        percentile(&stats.reference_lag_us, 0.99),
        "us",
    );
    rep.metric("serve.shed", stats.shed as f64, "count");
    rep.metric("serve.swaps", stats.swaps as f64, "count");
    rep.metric(
        "serve.epoch_refreshes",
        stats.epoch_refreshes as f64,
        "count",
    );
    let contention = tr.span("serve.epoch_bench", |_| {
        taxitrace_serve::contention_bench(ctx.workers, 200_000)
    });
    rep.metric("serve.epoch_get_ns", contention.epoch_ns_per_op, "ns");
    rep.count("serve.shed", stats.shed);
    rep.count("serve.swaps", stats.swaps);
    rep.count("serve.epoch_refreshes", stats.epoch_refreshes);
    tr
}
