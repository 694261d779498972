//! `metrics-name-drift`: every metric name that reaches taxitrace-obs must
//! come from the checked-in registry `crates/lint/metrics.registry`.
//!
//! The obs JSON snapshot is schema v1 and golden-file tested; a typo'd or
//! ad-hoc metric name would fork that schema silently (dashboards read one
//! name, the code writes another). This rule cross-checks every literal
//! passed to `.counter("…")`, `.gauge("…")`, `.histogram("…", …)` and
//! `.span("…")` — registrations *and* snapshot reads — against the
//! registry. Dynamic names built with `format!` are matched by replacing
//! each `{…}` placeholder with `*`, which registry entries may carry as a
//! trailing wildcard (`counter clean.rule_fires.rule*`).
//!
//! The obs crate itself is exempt: it defines the API and exercises it
//! with throwaway names in its own tests and docs. Names flowing through
//! variables cannot be checked lexically and are skipped — prefer literal
//! names precisely so this gate can see them.

use super::{FileCtx, FileKind, Rule};
use crate::diag::Diagnostic;

/// The checked-in metric-name registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// `(kind, pattern)`; a trailing `*` in the pattern matches any suffix.
    entries: Vec<(String, String)>,
}

impl MetricsRegistry {
    /// Parses `kind name family` lines; `#` comments and blanks ignored.
    /// Kinds: `counter`, `gauge`, `histogram`, `span`. Families: `result`
    /// (a pure function of the input, pinned by tests) or `perf`
    /// (scheduling- or timing-dependent); a line without one is rejected.
    pub fn parse(text: &str) -> Result<MetricsRegistry, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(kind), Some(name), Some("result" | "perf"), None)
                    if matches!(kind, "counter" | "gauge" | "histogram" | "span") =>
                {
                    entries.push((kind.to_string(), name.to_string()));
                }
                _ => {
                    return Err(format!(
                        "metrics registry line {}: expected `<kind> <name> <result|perf>`, \
                         got {line:?}",
                        i + 1
                    ));
                }
            }
        }
        Ok(MetricsRegistry { entries })
    }

    /// Whether `name` (with `*` standing for dynamic segments) is a
    /// registered metric of this kind.
    pub fn contains(&self, kind: &str, name: &str) -> bool {
        self.entries.iter().any(|(k, pattern)| {
            if k != kind {
                return false;
            }
            match pattern.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == pattern,
            }
        })
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Debug)]
pub struct MetricsDrift {
    registry: MetricsRegistry,
}

impl MetricsDrift {
    pub fn new(registry: MetricsRegistry) -> MetricsDrift {
        MetricsDrift { registry }
    }
}

const CALLS: [(&str, &str); 4] = [
    (".counter(", "counter"),
    (".gauge(", "gauge"),
    (".histogram(", "histogram"),
    (".span(", "span"),
];

impl Rule for MetricsDrift {
    fn id(&self) -> &'static str {
        "metrics-name-drift"
    }

    fn applies(&self, kind: FileKind) -> bool {
        // Metric names in tests/benches/examples are throwaway — the
        // schema only covers what shipping code publishes.
        matches!(kind, FileKind::Lib | FileKind::Bin)
    }

    fn check(&self, ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
        if ctx.krate == "obs" {
            return Vec::new();
        }
        let f = ctx.file;
        let mut out = Vec::new();
        for (i, code) in f.code.iter().enumerate() {
            if f.in_test[i] {
                continue;
            }
            for (pat, kind) in CALLS {
                let mut from = 0;
                while let Some(pos) = code[from..].find(pat) {
                    let at = from + pos;
                    from = at + pat.len();
                    // The first string literal at/after the call column —
                    // also one line down, for wrapped calls.
                    let lit = f
                        .strings_on_line(i + 1)
                        .find(|s| s.col >= at)
                        .or_else(|| f.strings_on_line(i + 2).next());
                    let Some(lit) = lit else { continue };
                    let name = normalize_format_name(&lit.value);
                    if !self.registry.contains(kind, &name) {
                        out.push(Diagnostic::new(
                            &f.rel,
                            i + 1,
                            self.id(),
                            format!(
                                "{kind} name {name:?} is not in crates/lint/\
                                 metrics.registry: add it there (and to the obs schema \
                                 docs) or fix the typo — unregistered names fork the \
                                 metrics schema silently"
                            ),
                            &f.raw[i],
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `format!` templates become wildcards: `clean.rule_fires.rule{}` →
/// `clean.rule_fires.rule*`.
fn normalize_format_name(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let mut depth = 0u32;
    for c in value.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileKind;
    use crate::source::SourceFile;

    fn registry() -> MetricsRegistry {
        MetricsRegistry::parse(
            "counter sim.sessions result\ncounter clean.rule_fires.rule* result\n\
             span study/simulate perf\n",
        )
        .expect("valid registry")
    }

    fn check(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::scan("crates/x/src/lib.rs", src);
        MetricsDrift::new(registry()).check(&FileCtx {
            file: &f,
            krate: "x",
            kind: FileKind::Lib,
        })
    }

    #[test]
    fn registered_names_pass() {
        assert!(check("reg.counter(\"sim.sessions\").add(1);").is_empty());
        assert!(check("let _s = reg.span(\"study/simulate\");").is_empty());
    }

    #[test]
    fn unregistered_name_flagged() {
        assert_eq!(check("reg.counter(\"sim.sesions\").add(1);").len(), 1);
    }

    #[test]
    fn kind_mismatch_flagged() {
        assert_eq!(check("reg.gauge(\"sim.sessions\").set(1);").len(), 1);
    }

    #[test]
    fn format_names_match_wildcards() {
        assert!(check("reg.counter(&format!(\"clean.rule_fires.rule{}\", i)).add(1);")
            .is_empty());
        assert_eq!(
            check("reg.counter(&format!(\"clean.other.rule{}\", i)).add(1);").len(),
            1
        );
    }

    #[test]
    fn wrapped_call_checked_on_next_line() {
        assert_eq!(check("reg\n    .counter(\n    \"nope\").add(1);").len(), 1);
    }

    #[test]
    fn obs_crate_exempt() {
        let f = SourceFile::scan("crates/obs/src/lib.rs", "reg.counter(\"nope\");");
        let out = MetricsDrift::new(registry()).check(&FileCtx {
            file: &f,
            krate: "obs",
            kind: FileKind::Lib,
        });
        assert!(out.is_empty());
    }

    #[test]
    fn registry_rejects_bad_kind() {
        assert!(MetricsRegistry::parse("meter x.y result\n").is_err());
    }

    #[test]
    fn registry_rejects_missing_or_unknown_family() {
        assert!(MetricsRegistry::parse("counter x.y\n").is_err());
        assert!(MetricsRegistry::parse("counter x.y cache\n").is_err());
        assert!(MetricsRegistry::parse("counter x.y result extra\n").is_err());
        assert!(MetricsRegistry::parse("counter x.y perf\n").is_ok());
    }
}
