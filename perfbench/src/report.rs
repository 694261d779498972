//! What one benchmark run reports: the contract line (the last line of
//! stdout) and a full result document with provenance, checks, labelled
//! counts and spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::{family, Family, Verdict};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run records. `metrics` holds the figures named in
/// `BENCHMARK.json` for this mode; `extra` holds further figures of the
/// same run that only go to the result document.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: BTreeMap<&'static str, u64>,
    pub mismatches: Vec<String>,
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub counts: BTreeMap<String, (u64, Family)>,
    pub provenance: Vec<(&'static str, String)>,
}

const MAX_MISMATCHES: usize = 20;

impl Report {
    /// Records one op (a pipeline run or a request) and its verdict.
    pub fn op(&mut self, what: &str, verdict: Verdict) {
        self.attempted += 1;
        for c in &verdict.checks {
            *self.checks.entry(c).or_insert(0) += 1;
        }
        if !verdict.ok() {
            self.failed += 1;
            for m in verdict.mismatches {
                if self.mismatches.len() < MAX_MISMATCHES {
                    self.mismatches.push(format!("{what}: {m}"));
                }
            }
        }
    }

    /// A failure outside any op (for example, a call that returned an error).
    pub fn fail(&mut self, what: &str, detail: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.mismatches.len() < MAX_MISMATCHES {
            self.mismatches.push(format!("{what}: {detail}"));
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a count under its `result`/`perf` label.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), (value, family(name)));
    }

    /// A run is correct when it attempted something, every op matched its
    /// reference and every reported figure is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && !self.checks.is_empty()
            && self
                .metrics
                .iter()
                .chain(&self.extra)
                .all(|m| m.value.is_finite())
    }

    /// The contract line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                esc(&m.name),
                num(m.value),
                esc(m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    /// The full result document.
    pub fn document(&self, tracer: Option<&Tracer>) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        s.push_str("  \"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{}\": \"{}\"",
                if i > 0 { ", " } else { "" },
                k,
                esc(v)
            );
        }
        s.push_str("},\n  \"checks\": {");
        for (i, (k, v)) in self.checks.iter().enumerate() {
            let _ = write!(s, "{}\"{}\": {}", if i > 0 { ", " } else { "" }, k, v);
        }
        s.push_str("},\n  \"mismatches\": [");
        for (i, m) in self.mismatches.iter().enumerate() {
            let _ = write!(s, "{}\"{}\"", if i > 0 { ", " } else { "" }, esc(m));
        }
        s.push_str("],\n");
        for (key, list) in [("metrics", &self.metrics), ("extra", &self.extra)] {
            let _ = write!(s, "  \"{key}\": {{");
            for (i, m) in list.iter().enumerate() {
                let _ = write!(
                    s,
                    "{}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    if i > 0 { "," } else { "" },
                    esc(&m.name),
                    num(m.value),
                    m.unit
                );
            }
            s.push_str("\n  },\n");
        }
        s.push_str("  \"counts\": {");
        for (i, (name, (v, fam))) in self.counts.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    \"{}\": {{\"value\": {}, \"family\": \"{}\"}}",
                if i > 0 { "," } else { "" },
                esc(name),
                v,
                fam.label()
            );
        }
        s.push_str("\n  },\n  \"spans\": [");
        if let Some(t) = tracer {
            for (id, sp) in t.spans().iter().enumerate() {
                let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
                let _ = write!(
                    s,
                    "{}\n    {{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_s\": {}, \
                     \"end_s\": {}, \"wall_s\": {}, \"self_s\": {}}}",
                    if id > 0 { "," } else { "" },
                    id,
                    esc(&sp.name),
                    parent,
                    num(sp.start_s),
                    num(sp.end_s),
                    num(sp.wall_s()),
                    num(t.self_s(id))
                );
            }
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with all its digits; non-finite values (which make a run
/// incorrect) are written as -1 so the document stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}
