//! `perfbench`: the taxi-traces benchmark runner.
//!
//! ```sh
//! perfbench --workload <study_sim|replay|serve_mix|stream_live> --seed N \
//!           --seconds S --trace <0|1> [--scale F] [--workers N]
//! ```
//!
//! With `--trace 0` a run measures one workload's end-to-end figures with
//! no tracing. With `--trace 1` it runs the layer pass instead: one traced
//! visit of every layer, whose spans and counts give the per-layer
//! figures. Either way the last line of stdout is the result object
//! (`correct`, `attempted`, `failed`, `metrics`) and the full result
//! document, with provenance, checks, labelled counts and spans, is
//! written to `--result-file`. `perfbench/run.py` builds and drives this
//! binary; see `perfbench/README.md`.

mod check;
mod layers;
mod pipelines;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;
use taxitrace_core::StudyConfig;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed ops a pipeline workload makes, however short `--seconds`.
pub const MIN_OPS: usize = 3;

pub const WORKLOADS: &[&str] = &["study_sim", "replay", "serve_mix", "stream_live"];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub scale: f64,
    pub seconds: f64,
    pub trace: bool,
    pub workers: usize,
    pub nproc: usize,
    pub work_dir: PathBuf,
    /// Self-test only: corrupt the reference so every check must fail.
    pub inject_mismatch: bool,
}

impl Ctx {
    pub fn config(&self) -> StudyConfig {
        StudyConfig::scaled(self.seed, self.scale)
    }

    /// The reference fingerprint as the checks see it.
    pub fn reference_fp(&self, fp: u64) -> u64 {
        if self.inject_mismatch {
            fp ^ 1
        } else {
            fp
        }
    }
}

struct Args {
    ctx: Ctx,
    result_file: Option<PathBuf>,
    rustc: String,
    commit: String,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale F] [--workers N] [--work-dir DIR] [--result-file PATH]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut workload = None;
    let mut seed = 2012u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = 1.0f64;
    let mut workers = nproc;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut result_file = None;
    let mut rustc = "unknown".to_string();
    let mut commit = "unknown".to_string();
    let mut inject_mismatch = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--inject-mismatch" {
            inject_mismatch = true;
            continue;
        }
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("bad {what}: {value:?}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad("seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad("seconds")),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("trace"),
                }
            }
            "--scale" => scale = value.parse().unwrap_or_else(|_| bad("scale")),
            "--workers" => workers = value.parse().unwrap_or_else(|_| bad("workers")),
            "--work-dir" => work_dir = PathBuf::from(&value),
            "--result-file" => result_file = Some(PathBuf::from(&value)),
            "--rustc" => rustc = value.clone(),
            "--commit" => commit = value.clone(),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds_ok = seconds.is_finite() && seconds > 0.0;
    let scale_ok = scale.is_finite() && scale > 0.0 && scale <= 1.0;
    if !seconds_ok || !scale_ok || workers == 0 {
        usage("--seconds must be > 0, --scale in (0, 1], --workers >= 1");
    }
    Args {
        ctx: Ctx {
            workload,
            seed,
            scale,
            seconds,
            trace,
            workers,
            nproc,
            work_dir,
            inject_mismatch,
        },
        result_file,
        rustc,
        commit,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`), 0 where unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = parse_args();
    let ctx = &args.ctx;
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(1);
    }
    taxitrace_exec::set_max_workers(ctx.workers);

    let mode = if ctx.trace { "traced" } else { "untraced" };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut rep = Report {
        provenance: vec![
            ("workload", ctx.workload.clone()),
            ("mode", mode.to_string()),
            ("seed", ctx.seed.to_string()),
            ("scale", ctx.scale.to_string()),
            ("seconds", ctx.seconds.to_string()),
            ("workers", ctx.workers.to_string()),
            ("nproc", ctx.nproc.to_string()),
            ("rustc", args.rustc.clone()),
            ("profile", profile.to_string()),
            ("commit", args.commit.clone()),
        ],
        ..Report::default()
    };

    let tracer = if ctx.trace {
        Some(layers::run(ctx, &mut rep))
    } else {
        match ctx.workload.as_str() {
            "study_sim" => pipelines::study_sim(ctx, &mut rep),
            "replay" => pipelines::replay(ctx, &mut rep),
            "stream_live" => pipelines::stream_live(ctx, &mut rep),
            _ => serve::serve_mix(ctx, &mut rep),
        }
        rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        None
    };
    let failed_ratio = rep.failed as f64 / rep.attempted.max(1) as f64;
    if ctx.trace {
        rep.metric("failed_ratio", failed_ratio, "ratio");
        rep.extra("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
        rep.extra("failed_ratio", failed_ratio, "ratio");
    }

    for m in &rep.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }
    if let Some(path) = &args.result_file {
        if let Err(e) = std::fs::write(path, rep.document(tracer.as_ref())) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let summary: Vec<String> = rep
        .extra
        .iter()
        .map(|m| format!("{}={:.6}{}", m.name, m.value, m.unit))
        .collect();
    println!("perfbench {} {}: {}", ctx.workload, mode, summary.join(" "));
    println!("{}", rep.contract_line());
    ExitCode::SUCCESS
}
