//! `serve_mix`: a seeded four-kind query mix over HTTP at fixed rates.
//!
//! Requests follow the `loadgen` mix (30 % od_flow, 30 % cell_speed, 25 %
//! trip lookups, 15 % grid_stats) drawn from the snapshot's own domain.
//! Each generator thread follows a fixed schedule but waits for each reply
//! before its next request: a closed loop with at most one connection per
//! generator in flight. Each request is timed from when it was due, so a
//! stall counts against every request the generator sends late behind it.
//! With at most `workers` requests in flight and an admission cap of twice
//! the server's workers, `serve.shed` stays 0 by construction. Meanwhile
//! `Server::swap` republishes one of two identical snapshots at a fixed
//! interval, so writes run beside reads. Every body must equal the
//! in-process answer of a third, independently built snapshot.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use taxitrace_core::{QueryEngine, QueryRequest, Study};
use taxitrace_geo::CellId;
use taxitrace_obs::Registry;
use taxitrace_serve::{Server, Snapshot};
use taxitrace_timebase::Timestamp;
use taxitrace_traces::{Rng, TripId};

use crate::check::{study_fingerprint, Verdict};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::{Ctx, SETUP_REPS};

pub const KINDS: [&str; 4] = ["od_flow", "cell_speed", "trip_lookup", "grid_stats"];
const MIX: [f64; 4] = [0.30, 0.30, 0.25, 0.15];

/// Latency limit on a rung's p99, microseconds. A rung meets it when the
/// median of its windows' p99 stays within it, so one scheduling stall
/// of the shared host does not decide the rung on its own.
pub const P99_LIMIT_US: f64 = 10_000.0;
/// The reference rate `latency_ms` is measured at, requests per second.
pub const REFERENCE_QPS: f64 = 3000.0;
/// The fixed rate ladder, requests per second: doublings, so the highest
/// passing rung moves only with a real change in capacity.
pub const LADDER_QPS: [f64; 5] = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0];
/// Windows a phase is split into for the windowed p99.
const WINDOWS: usize = 8;
/// How often the swapper republishes a snapshot.
const SWAP_INTERVAL: Duration = Duration::from_millis(100);

/// Rounds the reference-rate and flat-out measurements are split into,
/// spread over the run; the reported figures are medians over rounds, so
/// a burst of load on the shared host moves one round, not the result.
const ROUNDS: usize = 5;
/// Shares of `--seconds` spent on warm-up, the reference rate, the whole
/// ladder and the flat-out phase.
const WARMUP_SHARE: f64 = 0.05;
const REFERENCE_SHARE: f64 = 0.35;
const LADDER_SHARE: f64 = 0.4;
const FLAT_OUT_SHARE: f64 = 0.2;
/// Requests planned per second of the flat-out phase; the plan is cycled
/// if the generators get through it.
const FLAT_OUT_PLAN_QPS: f64 = 10_000.0;

/// One planned request: its wire bytes, kind and expected body.
struct Target {
    wire: Vec<u8>,
    kind: usize,
    req: QueryRequest,
    expected: Arc<[u8]>,
}

/// Draws `n` requests from the snapshot's domain: real trip ids, cells and
/// direction pairs, ordered time windows, and deliberate misses.
fn plan(rng: &mut Rng, snap: &Snapshot, n: usize) -> Vec<(String, QueryRequest, usize)> {
    let out = snap.output();
    let sessions = out.store.sessions();
    let cells: Vec<CellId> = snap.grid().cells.keys().copied().collect();
    let mut pairs: Vec<&str> = out.transitions.iter().map(|t| t.pair.as_str()).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let (t_min, t_max) = out
        .transitions
        .iter()
        .map(|t| t.start_time.secs())
        .fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));
    (0..n)
        .map(|_| {
            let kind = rng.weighted(&MIX);
            let (path, req) = match kind {
                0 if out.transitions.is_empty() || rng.chance(0.4) => (
                    "/od_flow".to_string(),
                    QueryRequest::OdFlow { window: None },
                ),
                0 => {
                    let span = (t_max - t_min).max(1) as usize;
                    let a = t_min + rng.below(span) as i64;
                    let b = t_min + rng.below(span) as i64;
                    let (from, to) = (a.min(b), a.max(b) + 1);
                    (
                        format!("/od_flow?from={from}&to={to}"),
                        QueryRequest::OdFlow {
                            window: Some((Timestamp::from_secs(from), Timestamp::from_secs(to))),
                        },
                    )
                }
                1 => {
                    let cell = if cells.is_empty() || rng.chance(0.1) {
                        CellId {
                            ix: 99_999,
                            iy: 99_999,
                        }
                    } else {
                        cells[rng.below(cells.len())]
                    };
                    (
                        format!("/cell_speed?ix={}&iy={}", cell.ix, cell.iy),
                        QueryRequest::CellSpeed { cell },
                    )
                }
                2 => {
                    let id = if sessions.is_empty() || rng.chance(0.1) {
                        u64::MAX
                    } else {
                        sessions[rng.below(sessions.len())].id.0
                    };
                    (
                        format!("/trip?id={id}"),
                        QueryRequest::TripLookup { trip: TripId(id) },
                    )
                }
                _ if pairs.is_empty() || rng.chance(0.5) => (
                    "/grid_stats".to_string(),
                    QueryRequest::GridStats { pair: None },
                ),
                _ => {
                    let pair = pairs[rng.below(pairs.len())].to_string();
                    (
                        format!("/grid_stats?pair={pair}"),
                        QueryRequest::GridStats { pair: Some(pair) },
                    )
                }
            };
            (path, req, kind)
        })
        .collect()
}

/// Plans a phase and resolves each request's expected body from the
/// reference snapshot (identical requests share one body).
fn targets(
    ctx: &Ctx,
    phase: u64,
    n: usize,
    reference: &Snapshot,
    cache: &mut HashMap<String, Arc<[u8]>>,
) -> Vec<Target> {
    let mut rng = Rng::new(ctx.seed).fork(phase);
    plan(&mut rng, reference, n)
        .into_iter()
        .map(|(path, req, kind)| {
            let expected = cache
                .entry(path.clone())
                .or_insert_with(|| {
                    let mut body = match reference.query(&req) {
                        Ok(resp) => resp.to_json(),
                        Err(e) => format!("in-process error: {e}"),
                    };
                    if ctx.inject_mismatch {
                        body.push(' ');
                    }
                    Arc::from(body.into_bytes())
                })
                .clone();
            let wire =
                format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n");
            Target {
                wire: wire.into_bytes(),
                kind,
                req,
                expected,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: usize,
    /// Completion minus due time, microseconds.
    latency_us: f64,
    /// Send minus due time, microseconds: how late the generator ran.
    lag_us: f64,
    /// Due time since the phase started, seconds.
    due_s: f64,
    /// Completion time since the phase started, seconds.
    done_s: f64,
    ok: bool,
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Makes closing `stream` abort the connection (RST) instead of a FIN
/// handshake. The server closes first after each reply, so a graceful
/// client close would leave one TIME_WAIT socket per request on the
/// server side for a minute: tens of thousands per run, which slow every
/// later connection and make each run depend on the runs before it.
#[cfg(target_os = "linux")]
fn abort_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor is open for the lifetime of `stream`, the
    // value points to a live `struct linger` and the length is its size.
    // A failure only leaves the default graceful close.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn abort_on_close(_stream: &TcpStream) {}

/// One GET; true when the reply is a 200 whose body equals `expected`.
fn exchange(addr: SocketAddr, t: &Target, buf: &mut Vec<u8>) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    abort_on_close(&stream);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    buf.clear();
    if stream.write_all(&t.wire).is_err() || stream.read_to_end(buf).is_err() {
        return false;
    }
    let Some(split) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    buf.starts_with(b"HTTP/1.1 200 ") && buf[split + 4..] == *t.expected
}

/// Sends `targets` at `rate` requests per second from `generators`
/// threads (request `i` is due at `i / rate`); a thread that falls behind
/// sends its next request as soon as the previous reply is in.
fn run_phase(addr: SocketAddr, targets: &[Target], rate: f64, generators: usize) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut samples = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..generators)
            .map(|g| {
                scope.spawn(move || {
                    let mut buf = Vec::with_capacity(1 << 16);
                    let mut out = Vec::with_capacity(targets.len() / generators + 1);
                    for i in (g..targets.len()).step_by(generators) {
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        wait_until(due);
                        let sent = Instant::now();
                        let ok = exchange(addr, &targets[i], &mut buf);
                        let done = Instant::now();
                        out.push(Sample {
                            kind: targets[i].kind,
                            latency_us: (done - due).as_secs_f64() * 1e6,
                            lag_us: (sent - due).as_secs_f64() * 1e6,
                            due_s: (due - start).as_secs_f64(),
                            done_s: (done - start).as_secs_f64(),
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect::<Vec<_>>()
    });
    samples.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    samples
}

/// Sends back to back from every generator for `duration`: a closed loop,
/// each generator waiting for its reply before the next request.
fn run_flat_out(
    addr: SocketAddr,
    targets: &[Target],
    generators: usize,
    duration: Duration,
) -> Vec<Sample> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..generators)
            .map(|g| {
                scope.spawn(move || {
                    let mut buf = Vec::with_capacity(1 << 16);
                    let mut out = Vec::new();
                    let mut i = g;
                    while start.elapsed() < duration {
                        let t = &targets[i % targets.len()];
                        let sent = Instant::now();
                        let ok = exchange(addr, t, &mut buf);
                        let done = Instant::now();
                        out.push(Sample {
                            kind: t.kind,
                            latency_us: (done - sent).as_secs_f64() * 1e6,
                            lag_us: 0.0,
                            due_s: (sent - start).as_secs_f64(),
                            done_s: (done - start).as_secs_f64(),
                            ok,
                        });
                        i += generators;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// Republishes `spare` and the snapshot it replaces, alternately, every
/// [`SWAP_INTERVAL`] until `stop`. A replaced snapshot is reclaimed once
/// every worker has moved off it; an interval whose snapshot is still in
/// use is skipped. Returns (swaps, skipped intervals).
fn swapper(server: &Server, spare: Snapshot, stop: &AtomicBool) -> (u64, u64) {
    let mut spare = Some(spare);
    let mut pending: Option<Arc<Snapshot>> = None;
    let mut current = server.snapshot();
    let (mut swaps, mut skipped) = (0u64, 0u64);
    let mut next = Instant::now() + SWAP_INTERVAL;
    while !stop.load(Ordering::Acquire) {
        if Instant::now() < next {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        next += SWAP_INTERVAL;
        if spare.is_none() {
            if let Some(p) = pending.take() {
                match Arc::try_unwrap(p) {
                    Ok(s) => spare = Some(s),
                    Err(p) => pending = Some(p),
                }
            }
        }
        match spare.take() {
            Some(s) => {
                server.swap(s);
                pending = Some(std::mem::replace(&mut current, server.snapshot()));
                swaps += 1;
            }
            None => skipped += 1,
        }
    }
    (swaps, skipped)
}

#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: f64,
    pub p99_us: f64,
    /// Completed requests per second over the rung.
    pub achieved_qps: f64,
    /// Median generator lag over the rung's last tenth, microseconds.
    pub tail_lag_us: f64,
    pub pass: bool,
}

/// What one serve session measured.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Per round: p50 and p99 latency at the reference rate, microseconds.
    pub round_p50_us: Vec<f64>,
    pub round_p99_us: Vec<f64>,
    /// Per round: completed requests per second flat out.
    pub round_flat_out_qps: Vec<f64>,
    pub reference_lag_us: Vec<f64>,
    pub reference_by_kind: [Vec<f64>; 4],
    pub ladder: Vec<Rung>,
    pub swaps: u64,
    pub swaps_skipped: u64,
    pub shed: u64,
    pub epoch_refreshes: u64,
    pub requests: u64,
    /// Per-kind in-process answer times (query + to_json), microseconds.
    pub answer_us: [Vec<f64>; 4],
}

impl ServeStats {
    pub fn p50_us(&self) -> f64 {
        median(&self.round_p50_us)
    }

    pub fn p99_us(&self) -> f64 {
        median(&self.round_p99_us)
    }

    pub fn flat_out_qps(&self) -> f64 {
        median(&self.round_flat_out_qps)
    }

    /// Achieved rate of the highest rung that passed with every rung below
    /// it passing too; 0 when the first rung failed.
    pub fn max_qps(&self) -> f64 {
        self.ladder
            .iter()
            .take_while(|r| r.pass)
            .last()
            .map_or(0.0, |r| r.achieved_qps)
    }
}

/// Median over [`WINDOWS`] consecutive windows (in due order) of each
/// window's p99 latency, microseconds.
fn windowed_p99(latency_us: &[f64]) -> f64 {
    let size = latency_us.len().div_ceil(WINDOWS).max(1);
    let per_window: Vec<f64> = latency_us
        .chunks(size)
        .map(|w| percentile(w, 0.99))
        .collect();
    median(&per_window)
}

/// Checks every HTTP reply of a phase: each request is one op.
fn record(rep: &mut Report, samples: &[Sample]) {
    for s in samples {
        let mut v = Verdict::default();
        v.truth("http_body", s.ok, || {
            format!("{} request failed or differed", KINDS[s.kind])
        });
        rep.op("serve request", v);
    }
}

fn rung(rate: f64, samples: &[Sample]) -> Rung {
    let latency: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
    let p99_us = windowed_p99(&latency);
    let failures = samples.iter().filter(|s| !s.ok).count();
    let tail: Vec<f64> = samples[samples.len() * 9 / 10..]
        .iter()
        .map(|s| s.lag_us)
        .collect();
    let tail_lag_us = median(&tail);
    let span_s = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
    let achieved_qps = if span_s > 0.0 {
        samples.len() as f64 / span_s
    } else {
        0.0
    };
    let pass = failures == 0 && p99_us <= P99_LIMIT_US && tail_lag_us <= P99_LIMIT_US;
    Rung {
        rate,
        p99_us,
        achieved_qps,
        tail_lag_us,
        pass,
    }
}

/// Serves `served` (with `spare` swapped in and out) and drives the warm-up,
/// the rounds of reference-rate and flat-out load, and the ladder against
/// it. Every body is checked against `reference`; `answers` also times
/// in-process answers per kind.
pub fn drive(
    ctx: &Ctx,
    rep: &mut Report,
    served: Snapshot,
    spare: Snapshot,
    reference: &Snapshot,
    answers: bool,
) -> ServeStats {
    let mut stats = ServeStats::default();
    let registry = Registry::new();
    let server = match Server::start(served, 0, ctx.workers, registry.clone()) {
        Ok(s) => s,
        Err(e) => {
            rep.fail("serve start", e.to_string());
            return stats;
        }
    };
    let addr = server.addr();
    let generators = ctx.workers;
    let mut cache = HashMap::new();
    let count =
        |rate: f64, share: f64| ((rate * ctx.seconds * share).ceil() as usize).max(generators);
    let warmup = targets(
        ctx,
        0,
        count(REFERENCE_QPS, WARMUP_SHARE),
        reference,
        &mut cache,
    );
    let at_reference: Vec<Vec<Target>> = (0..ROUNDS)
        .map(|r| {
            let n = count(REFERENCE_QPS, REFERENCE_SHARE / ROUNDS as f64);
            targets(ctx, 1 + r as u64, n, reference, &mut cache)
        })
        .collect();
    let rung_share = LADDER_SHARE / LADDER_QPS.len() as f64;
    let ladder: Vec<Vec<Target>> = LADDER_QPS
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            targets(
                ctx,
                (1 + ROUNDS + i) as u64,
                count(rate, rung_share),
                reference,
                &mut cache,
            )
        })
        .collect();
    let flat_out_phase = (1 + ROUNDS + LADDER_QPS.len()) as u64;
    let flat_out = targets(
        ctx,
        flat_out_phase,
        count(FLAT_OUT_PLAN_QPS, FLAT_OUT_SHARE),
        reference,
        &mut cache,
    );
    let flat_out_for = Duration::from_secs_f64(ctx.seconds * FLAT_OUT_SHARE / ROUNDS as f64);

    if answers {
        for t in at_reference.iter().flatten() {
            let t0 = Instant::now();
            let body = reference.query(&t.req).map(|r| r.to_json());
            stats.answer_us[t.kind].push(t0.elapsed().as_secs_f64() * 1e6);
            let mut v = Verdict::default();
            v.truth(
                "in_process_answer",
                body.as_deref().ok().map(str::as_bytes) == Some(&*t.expected),
                || format!("{} answer differs", KINDS[t.kind]),
            );
            rep.op("serve answer", v);
        }
    }

    let attempted_before = rep.attempted;
    let stop = AtomicBool::new(false);
    let (swaps, skipped) = std::thread::scope(|scope| {
        let swapping = scope.spawn(|| swapper(&server, spare, &stop));
        record(rep, &run_phase(addr, &warmup, REFERENCE_QPS, generators));
        for round in &at_reference {
            let samples = run_phase(addr, round, REFERENCE_QPS, generators);
            record(rep, &samples);
            let latency: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
            stats.round_p50_us.push(median(&latency));
            stats.round_p99_us.push(percentile(&latency, 0.99));
            for s in &samples {
                stats.reference_lag_us.push(s.lag_us);
                stats.reference_by_kind[s.kind].push(s.latency_us);
            }
            let samples = run_flat_out(addr, &flat_out, generators, flat_out_for);
            record(rep, &samples);
            let span_s = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
            if span_s > 0.0 {
                stats.round_flat_out_qps.push(samples.len() as f64 / span_s);
            }
        }
        for (targets, &rate) in ladder.iter().zip(&LADDER_QPS) {
            let samples = run_phase(addr, targets, rate, generators);
            record(rep, &samples);
            let r = rung(rate, &samples);
            let pass = r.pass;
            stats.ladder.push(r);
            if !pass {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        swapping.join().expect("swapper thread panicked")
    });
    stats.requests = rep.attempted - attempted_before;
    stats.swaps = swaps;
    stats.swaps_skipped = skipped;
    let snap = registry.snapshot();
    stats.shed = snap.counter("serve.shed_total").unwrap_or(0);
    stats.epoch_refreshes = snap.counter("serve.epoch_refreshes").unwrap_or(0);
    server.shutdown();
    stats
}

/// Builds one servable snapshot the way a deployment does: run the study,
/// then wrap its output (which computes the cached grid analysis).
pub fn build_snapshot(ctx: &Ctx) -> Result<Snapshot, taxitrace_core::Error> {
    Ok(Snapshot::from_output(Study::new(ctx.config()).run()?))
}

pub fn serve_mix(ctx: &Ctx, rep: &mut Report) {
    let mut setup_walls = Vec::new();
    let mut snapshots = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let snap = build_snapshot(ctx);
        setup_walls.push(t.elapsed().as_secs_f64());
        match snap {
            Ok(s) => snapshots.push(s),
            Err(e) => {
                rep.fail("serve_mix set-up", e.to_string());
                return;
            }
        }
    }
    let first = study_fingerprint(snapshots[0].output());
    for s in &snapshots {
        let mut v = Verdict::default();
        v.eq(
            "setup_fingerprint",
            study_fingerprint(s.output()),
            ctx.reference_fp(first),
        );
        rep.op("serve_mix set-up", v);
    }
    let reference = snapshots.pop().expect("three snapshots");
    let spare = snapshots.pop().expect("two snapshots");
    let served = snapshots.pop().expect("one snapshot");
    let stats = drive(ctx, rep, served, spare, &reference, false);

    rep.metric("setup_s", median(&setup_walls), "s");
    rep.metric("latency_ms", stats.p50_us() / 1e3, "ms");
    rep.extra("serve_p50_us", stats.p50_us(), "us");
    rep.extra("serve_p99_us", stats.p99_us(), "us");
    rep.extra("serve_max_qps", stats.max_qps(), "req/s");
    rep.extra(
        "serve.sched_lag_p99_us",
        percentile(&stats.reference_lag_us, 0.99),
        "us",
    );
    rep.extra("serve.swaps", stats.swaps as f64, "count");
    rep.extra("serve.swaps_skipped", stats.swaps_skipped as f64, "count");
    rep.extra("serve.requests", stats.requests as f64, "count");
    rep.extra("serve.flat_out_qps", stats.flat_out_qps(), "req/s");
    for r in &stats.ladder {
        rep.extra(&format!("serve.ladder.{}.p99_us", r.rate), r.p99_us, "us");
        rep.extra(
            &format!("serve.ladder.{}.achieved_qps", r.rate),
            r.achieved_qps,
            "req/s",
        );
        rep.extra(
            &format!("serve.ladder.{}.tail_lag_us", r.rate),
            r.tail_lag_us,
            "us",
        );
    }
}
