//! Seeded closed-loop load generator and read-path contention bench.
//!
//! `run_load` drives N client threads against a running [`crate::Server`],
//! each issuing its share of a deterministic query mix drawn from the
//! snapshot's own domain (real trip ids, real cells, real direction
//! pairs, plus deliberate misses). The mix is planned up front from
//! forked [`Rng`] streams, so the **mix fingerprint** — and, because
//! answers are canonical JSON over immutable data, the **response
//! fingerprint** — are identical across runs, thread interleavings and
//! client counts. Fingerprints are per-request FNV-1a hashes combined
//! with wrapping addition (commutative, and unlike XOR repeated
//! request/response pairs don't cancel out).
//!
//! `contention_bench` isolates the snapshot-acquisition cost the epoch
//! design removes: N threads acquiring the current snapshot pointer M
//! times each, once through an [`EpochReader`] (one atomic load) and once
//! through a `Mutex<Arc<T>>` locked per request (the RwLock-per-request
//! family every reader contends on). The ratio is the evidence behind
//! "no locks on the read path"; the benchmark's traced pass reports it.

use std::collections::BTreeSet;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

use taxitrace_traces::Rng;

use crate::epoch::EpochCell;
use crate::snapshot::Snapshot;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Parameters of one load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Root seed; client `i` plans its requests from `fork(i)`.
    pub seed: u64,
    /// Concurrent closed-loop clients (threads).
    pub clients: usize,
    /// Requests each client issues sequentially.
    pub requests_per_client: usize,
}

/// Outcome of a load run: request counts and determinism fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    pub requests: usize,
    /// Non-200 responses (0 in a healthy run — every planned request is
    /// well-formed).
    pub errors: usize,
    /// Wrapping sum of FNV-1a hashes of every request path. Depends only
    /// on `(seed, clients, requests_per_client, snapshot domain)`.
    pub mix_fingerprint: u64,
    /// Wrapping sum of FNV-1a hashes of every response body. Equal across
    /// runs because answers are canonical JSON over an immutable
    /// snapshot.
    pub response_fingerprint: u64,
}

/// Plans one client's request paths from its forked rng stream. Sampling
/// only touches the snapshot's immutable domain, so the plan is a pure
/// function of `(rng stream, snapshot)`.
fn plan_requests(rng: &mut Rng, snapshot: &Snapshot, n: usize) -> Vec<String> {
    let output = snapshot.output();
    let sessions = output.store.sessions();
    let cells: Vec<_> = snapshot.grid().cells.keys().copied().collect();
    let pairs: Vec<&str> = output
        .transitions
        .iter()
        .map(|t| t.pair.as_str())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (t_min, t_max) = output
        .transitions
        .iter()
        .map(|t| t.start_time.secs())
        .fold((i64::MAX, i64::MIN), |(lo, hi), t| (lo.min(t), hi.max(t)));

    let mut plan = Vec::with_capacity(n);
    for _ in 0..n {
        // Mix: mostly the cheap point lookups, a steady trickle of the
        // expensive full-grid scan.
        let path = match rng.weighted(&[0.30, 0.30, 0.25, 0.15]) {
            0 => {
                if output.transitions.is_empty() || rng.chance(0.4) {
                    "/od_flow".to_string()
                } else {
                    let a = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                    let b = t_min + rng.below((t_max - t_min).max(1) as usize) as i64;
                    // Ordered window: inverted ranges are a typed 400 and
                    // belong in the error tests, not the throughput mix.
                    format!("/od_flow?from={}&to={}", a.min(b), a.max(b) + 1)
                }
            }
            1 => {
                if cells.is_empty() || rng.chance(0.1) {
                    // Deliberate miss: answers `row: null`.
                    "/cell_speed?ix=99999&iy=99999".to_string()
                } else {
                    let c = cells[rng.below(cells.len())];
                    format!("/cell_speed?ix={}&iy={}", c.ix, c.iy)
                }
            }
            2 => {
                if sessions.is_empty() || rng.chance(0.1) {
                    format!("/trip?id={}", u64::MAX)
                } else {
                    format!("/trip?id={}", sessions[rng.below(sessions.len())].id.0)
                }
            }
            _ => {
                if pairs.is_empty() || rng.chance(0.5) {
                    "/grid_stats".to_string()
                } else {
                    format!("/grid_stats?pair={}", pairs[rng.below(pairs.len())])
                }
            }
        };
        plan.push(path);
    }
    plan
}

/// One blocking HTTP GET; returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: taxitrace\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    BufReader::new(stream).read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok((status, body.to_string()))
}

/// Runs the closed-loop load against `addr`. The snapshot is only used
/// for domain sampling; every answer comes back over HTTP.
pub fn run_load(addr: SocketAddr, snapshot: &Snapshot, spec: &LoadSpec) -> LoadReport {
    // Plan everything before spawning: determinism cannot depend on
    // thread scheduling.
    let plans: Vec<Vec<String>> = (0..spec.clients)
        .map(|i| {
            let mut rng = Rng::new(spec.seed).fork(i as u64);
            plan_requests(&mut rng, snapshot, spec.requests_per_client)
        })
        .collect();
    let mix_fingerprint = plans
        .iter()
        .flatten()
        .fold(0u64, |acc, p| acc.wrapping_add(fnv1a(p.as_bytes())));

    let mut handles = Vec::with_capacity(plans.len());
    for plan in plans {
        handles.push(std::thread::spawn(move || {
            let mut fp = 0u64;
            let mut errors = 0usize;
            for path in &plan {
                match http_get(addr, path) {
                    Ok((200, body)) => fp = fp.wrapping_add(fnv1a(body.as_bytes())),
                    _ => errors += 1,
                }
            }
            (plan.len(), fp, errors)
        }));
    }
    let mut requests = 0usize;
    let mut response_fingerprint = 0u64;
    let mut errors = 0usize;
    for h in handles {
        let (sent, fp, errs) = h.join().unwrap_or((0, 0, usize::MAX));
        requests += sent;
        response_fingerprint = response_fingerprint.wrapping_add(fp);
        errors = errors.saturating_add(errs);
    }
    LoadReport { requests, errors, mix_fingerprint, response_fingerprint }
}

/// Read-path contention comparison: ns/op to acquire the current
/// snapshot pointer under `threads`-way contention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionReport {
    pub threads: usize,
    pub acquisitions_per_thread: usize,
    /// Epoch reader: one `Acquire` load per acquisition, no lock.
    pub epoch_ns_per_op: f64,
    /// `Mutex<Arc<T>>` locked and cloned per acquisition — the
    /// lock-per-request design the epoch cell replaces.
    pub mutex_ns_per_op: f64,
}

/// Measures pointer-acquisition cost under contention for both designs.
/// Uses a tiny payload so the numbers isolate acquisition, not use.
pub fn contention_bench(threads: usize, acquisitions_per_thread: usize) -> ContentionReport {
    let epoch_cell = Arc::new(EpochCell::new(Arc::new(0u64)));
    let epoch_ns = timed_ns(threads, acquisitions_per_thread, {
        let cell = Arc::clone(&epoch_cell);
        move |n| {
            let mut reader = cell.reader();
            let mut acc = 0u64;
            for _ in 0..n {
                acc = acc.wrapping_add(**std::hint::black_box(reader.get()));
            }
            acc
        }
    });
    let mutex_cell = Arc::new(Mutex::new(Arc::new(0u64)));
    let mutex_ns = timed_ns(threads, acquisitions_per_thread, {
        let cell = Arc::clone(&mutex_cell);
        move |n| {
            let mut acc = 0u64;
            for _ in 0..n {
                let arc =
                    Arc::clone(&cell.lock().unwrap_or_else(|e| e.into_inner()));
                acc = acc.wrapping_add(*std::hint::black_box(arc));
            }
            acc
        }
    });
    ContentionReport {
        threads,
        acquisitions_per_thread,
        epoch_ns_per_op: epoch_ns,
        mutex_ns_per_op: mutex_ns,
    }
}

/// Runs `body(n)` on `threads` threads and returns mean ns per op.
fn timed_ns<F>(threads: usize, n: usize, body: F) -> f64
where
    F: Fn(usize) -> u64 + Clone + Send + 'static,
{
    // lint:allow(determinism): benchmark timing, not pipeline state
    let t0 = std::time::Instant::now();
    let handles: Vec<_> = (0..threads.max(1))
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || std::hint::black_box(body(n)))
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }
    let total_ops = (threads.max(1) * n.max(1)) as f64;
    t0.elapsed().as_nanos() as f64 / total_ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }

    #[test]
    fn contention_bench_produces_positive_figures() {
        let r = contention_bench(2, 10_000);
        assert!(r.epoch_ns_per_op > 0.0);
        assert!(r.mutex_ns_per_op > 0.0);
    }
}
