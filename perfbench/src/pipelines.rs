//! The three pipeline workloads: `study_sim`, `replay` and `stream_live`.
//!
//! Each run sets up [`SETUP_REPS`] times (`setup_s` is the median), then
//! repeats its op until `--seconds` have passed (at least [`MIN_OPS`]
//! times). Every op is checked against the set-up's reference; a
//! mismatch fails the op.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use taxitrace_core::{
    mixed_model, mixed_model_with_features, seasonal_deltas, temperature_analysis, Error, Study,
    StudyOutput, Table4,
};
use taxitrace_stream::{run_stream, StreamConfig};

use crate::check::{
    golden_fingerprint, result_counters, study_fingerprint, Verdict, STAGE_FAMILIES,
};
use crate::report::Report;
use crate::stats::median;
use crate::{Ctx, MIN_OPS, SETUP_REPS};

/// What every op of a run must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub fingerprint: u64,
    /// Every `result` counter of the reference run.
    pub counters: BTreeMap<String, u64>,
    /// The `result` counters every pipeline path shares.
    pub stage_counters: BTreeMap<String, u64>,
    /// (stage, record, reason) of every quarantined record: a healthy
    /// year may still hold records the stages reject.
    pub quarantine: Vec<(String, u64, &'static str)>,
    pub raw_points: u64,
}

fn quarantine_of(out: &StudyOutput) -> Vec<(String, u64, &'static str)> {
    out.quarantine
        .entries()
        .iter()
        .map(|e| (e.stage.clone(), e.record, e.reason.label()))
        .collect()
}

impl Reference {
    pub fn of(out: &StudyOutput) -> Self {
        Self {
            fingerprint: study_fingerprint(out),
            counters: result_counters(&out.metrics, &[]),
            stage_counters: result_counters(&out.metrics, STAGE_FAMILIES),
            quarantine: quarantine_of(out),
            raw_points: out
                .store
                .sessions()
                .iter()
                .map(|s| s.points.len() as u64)
                .sum(),
        }
    }

    /// Checks a study output of any path against this reference.
    pub fn verdict(&self, ctx: &Ctx, out: &StudyOutput) -> Verdict {
        let mut v = Verdict::default();
        v.eq(
            "fingerprint",
            study_fingerprint(out),
            ctx.reference_fp(self.fingerprint),
        );
        v.counters(
            "result_counters",
            &result_counters(&out.metrics, STAGE_FAMILIES),
            &self.stage_counters,
        );
        v.eq("quarantine", quarantine_of(out), self.quarantine.clone());
        v
    }
}

/// Checks a reference fingerprint against the golden one of this seed and
/// scale, where one is known.
pub fn golden_verdict(ctx: &Ctx, fingerprint: u64) -> Verdict {
    let mut v = Verdict::default();
    if let Some(golden) = golden_fingerprint(ctx.seed, ctx.scale) {
        v.eq("golden_fingerprint", fingerprint, ctx.reference_fp(golden));
    }
    v
}

/// Checks a set-up's reference against the first set-up's and the golden
/// fingerprint.
pub fn setup_verdict(ctx: &Ctx, first: &Reference, this: &Reference) -> Verdict {
    let mut v = golden_verdict(ctx, this.fingerprint);
    v.eq(
        "setup_fingerprint",
        this.fingerprint,
        ctx.reference_fp(first.fingerprint),
    );
    v.counters("setup_result_counters", &this.counters, &first.counters);
    v.eq(
        "setup_quarantine",
        this.quarantine.clone(),
        first.quarantine.clone(),
    );
    v
}

/// The paper products derived from a study output.
#[derive(Debug)]
pub struct Products {
    pub grid: String,
    pub lmm: String,
    pub tables: String,
}

impl Products {
    pub fn fingerprint(&self) -> u64 {
        [&self.grid, &self.lmm, &self.tables]
            .iter()
            .fold(0xCBF2_9CE4_8422_2325, |h, s| {
                crate::check::fnv_bytes(h, s.as_bytes())
            })
    }
}

/// §V grid analysis and Table 5.
pub fn grid_products(out: &StudyOutput) -> String {
    let grid = out.grid_stats(None);
    let t5 = grid.table5();
    format!("{:?}{:?}", grid.cells, t5)
}

/// The Eq. 3 mixed model with and without map features.
pub fn lmm_products(out: &StudyOutput) -> Result<String, String> {
    let plain = mixed_model(out).map_err(|e| format!("mixed_model: {e:?}"))?;
    let feats =
        mixed_model_with_features(out).map_err(|e| format!("mixed_model_with_features: {e:?}"))?;
    Ok(format!("{plain:?}{feats:?}"))
}

/// Table 4, the seasonal deltas and the temperature analysis.
pub fn table_products(out: &StudyOutput) -> String {
    let t4 = Table4::compute(out);
    let seasons = seasonal_deltas(out);
    let temps = temperature_analysis(out);
    format!("{t4:?}{seasons:?}{temps:?}")
}

pub fn analyses(out: &StudyOutput) -> Result<Products, String> {
    Ok(Products {
        grid: grid_products(out),
        lmm: lmm_products(out)?,
        tables: table_products(out),
    })
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `op` until `ctx.seconds` have passed and at least [`MIN_OPS`]
/// times; stops early on the first op that errors.
fn timed_loop(ctx: &Ctx, mut op: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut done = 0;
    while done < MIN_OPS || secs(start) < ctx.seconds {
        if !op() {
            break;
        }
        done += 1;
    }
}

fn record_error(rep: &mut Report, what: &str, e: &Error) -> bool {
    rep.fail(what, e.to_string());
    false
}

/// `study_sim`: simulate the year, run the four stages, then the analyses.
///
/// Set-up computes the reference at one worker; the timed ops run at
/// `--workers`, so each op also checks that every `result` counter is the
/// same at 1 and at N workers.
pub fn study_sim(ctx: &Ctx, rep: &mut Report) {
    let config = ctx.config();
    let mut setup_walls = Vec::new();
    let mut reference: Option<(Reference, u64)> = None;
    taxitrace_exec::set_max_workers(1);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let out = match Study::new(config.clone()).run() {
            Ok(out) => out,
            Err(e) => {
                record_error(rep, "study_sim set-up", &e);
                return;
            }
        };
        let products = analyses(&out);
        setup_walls.push(secs(t));
        let products = match products {
            Ok(p) => p,
            Err(e) => {
                rep.fail("study_sim set-up analyses", e);
                return;
            }
        };
        let this = Reference::of(&out);
        let first = reference.get_or_insert_with(|| (this.clone(), products.fingerprint()));
        let mut v = setup_verdict(ctx, &first.0, &this);
        v.eq("setup_analysis", products.fingerprint(), first.1);
        rep.op("study_sim set-up", v);
    }
    taxitrace_exec::set_max_workers(ctx.workers);
    let Some((reference, analysis_fp)) = reference else {
        return;
    };

    let (mut study_walls, mut analysis_walls, mut op_walls) = (Vec::new(), Vec::new(), Vec::new());
    timed_loop(ctx, || {
        let t0 = Instant::now();
        let out = match Study::new(config.clone()).run() {
            Ok(out) => out,
            Err(e) => return record_error(rep, "study_sim", &e),
        };
        let study_s = secs(t0);
        let t1 = Instant::now();
        let products = analyses(&out);
        let analysis_s = secs(t1);
        let op_s = secs(t0);
        let mut v = reference.verdict(ctx, &out);
        v.counters(
            "workers_result_counters",
            &result_counters(&out.metrics, &[]),
            &reference.counters,
        );
        match products {
            Ok(p) => v.eq("analysis_products", p.fingerprint(), analysis_fp),
            Err(e) => v.truth("analysis_products", false, || e),
        }
        rep.op("study_sim", v);
        study_walls.push(study_s);
        analysis_walls.push(analysis_s);
        op_walls.push(op_s);
        true
    });

    let op_s = median(&op_walls);
    rep.metric("setup_s", median(&setup_walls), "s");
    rep.metric("latency_ms", op_s * 1e3, "ms");
    rep.extra("study_s", median(&study_walls), "s");
    rep.extra("analysis_s", median(&analysis_walls), "s");
    rep.extra("ops", op_walls.len() as f64, "count");
}

/// The recorded-data inputs `replay` writes in set-up.
pub struct ReplayFiles {
    pub store: PathBuf,
    pub traces: PathBuf,
    pub map: PathBuf,
}

impl ReplayFiles {
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            store: dir.join("trips.tts"),
            traces: dir.join("traces.csv"),
            map: dir.join("map.osmx"),
        }
    }
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    std::fs::write(path, bytes)
        .map_err(|e| Error::Pipeline(format!("write {}: {e}", path.display())))
}

/// Checks of the recorded-data entry points beyond the shared reference.
pub fn replay_verdict(
    ctx: &Ctx,
    reference: &Reference,
    out: &StudyOutput,
    from_store: bool,
) -> Verdict {
    let mut v = reference.verdict(ctx, out);
    let snap = &out.metrics;
    if from_store {
        v.eq(
            "store_indexed_read",
            snap.counter("store.indexed_reads"),
            Some(1),
        );
    } else {
        v.eq(
            "ingest_nothing_quarantined",
            snap.counter("ingest.quarantined_total"),
            Some(0),
        );
    }
    v
}

/// `replay`: set-up writes the year once as a v3 store and as an external
/// CSV + OSMX export; each op replays both through the recorded-data entry
/// points, bypassing the simulator.
pub fn replay(ctx: &Ctx, rep: &mut Report) {
    let config = ctx.config();
    let files = ReplayFiles::in_dir(&ctx.work_dir);
    let mut setup_walls = Vec::new();
    let mut reference: Option<Reference> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = (|| -> Result<StudyOutput, Error> {
            let sim = Study::new(config.clone()).simulate()?;
            sim.save_store(&files.store)?;
            write(
                &files.traces,
                taxitrace_ingest::export_trace_csv(sim.store.sessions()).as_bytes(),
            )?;
            write(
                &files.map,
                taxitrace_ingest::export_osmx(&sim.city).as_bytes(),
            )?;
            sim.clean()?.analyze_od()?.match_fuse()
        })();
        setup_walls.push(secs(t));
        let out = match built {
            Ok(out) => out,
            Err(e) => {
                record_error(rep, "replay set-up", &e);
                return;
            }
        };
        let this = Reference::of(&out);
        let first = reference.get_or_insert_with(|| this.clone());
        rep.op("replay set-up", setup_verdict(ctx, first, &this));
    }
    let Some(reference) = reference else { return };

    let study = Study::new(config);
    let (mut store_walls, mut csv_walls, mut op_walls) = (Vec::new(), Vec::new(), Vec::new());
    timed_loop(ctx, || {
        let t0 = Instant::now();
        let from_store = match study.run_from_store(&files.store) {
            Ok(out) => out,
            Err(e) => return record_error(rep, "replay store", &e),
        };
        let store_s = secs(t0);
        // Checked and dropped before the CSV replay, untimed, so the two
        // outputs are never resident together: `peak_rss_mb` is the peak of
        // one replay, not of whatever the allocator kept from the other.
        rep.op(
            "replay store",
            replay_verdict(ctx, &reference, &from_store, true),
        );
        drop(from_store);
        let t1 = Instant::now();
        let from_csv = match study.run_from_external(&files.traces, Some(&files.map)) {
            Ok(out) => out,
            Err(e) => return record_error(rep, "replay csv", &e),
        };
        let csv_s = secs(t1);
        rep.op(
            "replay csv",
            replay_verdict(ctx, &reference, &from_csv, false),
        );
        store_walls.push(store_s);
        csv_walls.push(csv_s);
        op_walls.push(store_s + csv_s);
        true
    });

    let op_s = median(&op_walls);
    rep.metric("setup_s", median(&setup_walls), "s");
    rep.metric("latency_ms", op_s * 1e3, "ms");
    rep.extra("replay_store_s", median(&store_walls), "s");
    rep.extra("replay_csv_s", median(&csv_walls), "s");
    rep.extra("ops", op_walls.len() as f64, "count");
}

/// Checks of a streamed run beyond the shared reference.
pub fn stream_verdict(
    ctx: &Ctx,
    reference: &Reference,
    run: &taxitrace_stream::StreamRun,
) -> Verdict {
    let mut v = reference.verdict(ctx, &run.output);
    let r = &run.report;
    v.eq("stream_records", r.records_total, reference.raw_points);
    v.eq(
        "stream_late_or_malformed",
        r.late_dropped + r.records_malformed,
        0,
    );
    v.eq(
        "stream_trips_closed",
        r.trips_closed,
        run.output.cleaning.sessions as u64,
    );
    v
}

/// `stream_live`: `run_stream` at the default `StreamConfig`, no chaos,
/// until the stream converges to the batch output.
pub fn stream_live(ctx: &Ctx, rep: &mut Report) {
    let config = ctx.config();
    let mut setup_walls = Vec::new();
    let mut reference: Option<Reference> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let out = Study::new(config.clone()).run();
        setup_walls.push(secs(t));
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                record_error(rep, "stream_live set-up", &e);
                return;
            }
        };
        let this = Reference::of(&out);
        let first = reference.get_or_insert_with(|| this.clone());
        rep.op("stream_live set-up", setup_verdict(ctx, first, &this));
    }
    let Some(reference) = reference else { return };

    let stream_cfg = StreamConfig::default();
    let mut op_walls = Vec::new();
    timed_loop(ctx, || {
        let t0 = Instant::now();
        let run = match run_stream(config.clone(), &stream_cfg, None) {
            Ok(run) => run,
            Err(e) => return record_error(rep, "stream_live", &e),
        };
        op_walls.push(secs(t0));
        rep.op("stream_live", stream_verdict(ctx, &reference, &run));
        true
    });

    let op_s = median(&op_walls);
    rep.metric("setup_s", median(&setup_walls), "s");
    rep.metric("latency_ms", op_s * 1e3, "ms");
    rep.extra("stream_s", op_s, "s");
    rep.extra("ops", op_walls.len() as f64, "count");
}
