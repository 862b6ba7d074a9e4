//! Rule `metrics`: metric-name registry.
//!
//! Dashboards, alerts, and the CI `/metrics` smoke step reference
//! series *by name*, from outside the process — exactly the coupling
//! wire tags and failpoint names have. A renamed counter silently
//! zeroes every panel and alert built on it; nothing in `cargo test`
//! notices. The committed registry `lint/metrics.golden` pins every
//! name registered in product code (append-only, like the other
//! goldens); against it, this rule fails on
//!
//! * **unregistered names** — a `.counter(…)` / `.gauge(…)` /
//!   `.recorder(…)` registration, or a `.register_counter(…)` /
//!   `.register_gauge(…)` publication of a handle its owner already
//!   holds, in non-test, non-compat code whose name the registry does
//!   not list;
//! * **orphaned entries** — a registered name nothing registers
//!   anymore (its panels and alerts are already dark);
//! * **dynamic names** — a registration whose name is not a string
//!   literal, so no registry can see it and series cardinality is
//!   unbounded by construction.

use crate::scan::SourceFile;
use crate::{FileContext, Finding};

/// One metric registration found in product code.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// The metric name (first string-literal argument).
    pub name: String,
}

/// The registry entry points whose first argument is a metric name.
const CALLS: [&str; 5] = [
    ".counter(",
    ".gauge(",
    ".recorder(",
    ".register_counter(",
    ".register_gauge(",
];

/// Collect metric registrations from one scanned file into `regs`,
/// reporting dynamic (non-literal) names directly into `findings`.
///
/// As in the `failpoint` rule, the call is *detected* on the scanned
/// line (string literals are hollowed to `""`, so prose can't fake a
/// registration) and the name is *read* from the raw line. rustfmt
/// wraps long registrations, so a call whose parenthesis ends the line
/// is matched against a name literal opening the next line. Compat
/// crates and test code (which registers throwaway names) are out of
/// scope.
pub fn collect(
    ctx: &FileContext,
    file: &SourceFile,
    raw: &str,
    regs: &mut Vec<Registration>,
    findings: &mut Vec<Finding>,
) {
    if ctx.compat || ctx.test_code {
        return;
    }
    let raw_lines: Vec<&str> = raw.lines().collect();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for call in CALLS {
            let Some(at) = line.code.find(call) else {
                continue;
            };
            let rest = &line.code[at + call.len()..];
            // Same-line literal: the hollowed name scans as `call""`.
            if rest.starts_with("\"\"") {
                let raw_line = raw_lines.get(line.number - 1).copied().unwrap_or("");
                if let Some(name) = raw_line
                    .split_once(&format!("{call}\""))
                    .and_then(|(_, after)| after.split('"').next())
                {
                    regs.push(Registration {
                        file: ctx.path.clone(),
                        line: line.number,
                        name: name.to_string(),
                    });
                }
                continue;
            }
            // Wrapped literal: the call ends its line and the name
            // literal opens the next code line.
            if rest.trim().is_empty() {
                if let Some(next) = file.lines.get(idx + 1) {
                    if next.code.trim_start().starts_with("\"\"") {
                        let raw_next = raw_lines.get(next.number - 1).copied().unwrap_or("");
                        if let Some(name) = raw_next
                            .split_once('"')
                            .and_then(|(_, after)| after.split('"').next())
                        {
                            regs.push(Registration {
                                file: ctx.path.clone(),
                                line: next.number,
                                name: name.to_string(),
                            });
                        }
                        continue;
                    }
                }
            }
            findings.push(Finding::new(
                ctx,
                line.number,
                "metrics",
                format!(
                    "{}…) takes a non-literal metric name; names must be string literals so \
                     lint/metrics.golden can pin them (and cardinality stays bounded)",
                    call
                ),
            ));
        }
    }
}

/// Parse the golden registry: one metric name per line, `#` comments.
pub fn parse_golden(golden_path: &str, text: &str) -> Result<Vec<(String, usize)>, Vec<Finding>> {
    let mut entries: Vec<(String, usize)> = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Prometheus metric names: `[a-zA-Z_][a-zA-Z0-9_]*` (colons are
        // reserved for recording rules, which this process never emits).
        let well_formed = line
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && line.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !well_formed {
            findings.push(Finding::at(
                golden_path,
                idx + 1,
                "metrics",
                format!(
                    "malformed registry entry {line:?}; expected a bare Prometheus metric name"
                ),
            ));
        } else if let Some((_, first)) = entries.iter().find(|(name, _)| name == line) {
            findings.push(Finding::at(
                golden_path,
                idx + 1,
                "metrics",
                format!("duplicate registry entry {line:?} (first at line {first})"),
            ));
        } else {
            entries.push((line.to_string(), idx + 1));
        }
    }
    if findings.is_empty() {
        Ok(entries)
    } else {
        Err(findings)
    }
}

/// Diff collected registrations against the golden registry.
pub fn check(golden_path: &str, golden_text: &str, regs: &[Registration]) -> Vec<Finding> {
    let golden = match parse_golden(golden_path, golden_text) {
        Ok(entries) => entries,
        Err(findings) => return findings,
    };
    let mut findings = Vec::new();
    for reg in regs {
        if !golden.iter().any(|(name, _)| *name == reg.name) {
            findings.push(Finding::at(
                &reg.file,
                reg.line,
                "metrics",
                format!(
                    "metric {:?} is not registered; append it to {} so dashboards and the \
                     CI scrape step can rely on the name",
                    reg.name, golden_path
                ),
            ));
        }
    }
    for (name, line) in &golden {
        if !regs.iter().any(|reg| reg.name == *name) {
            findings.push(Finding::at(
                golden_path,
                *line,
                "metrics",
                format!(
                    "registered metric {name:?} is never registered by product code; panels \
                     built on it are dark — restore the registration or retire the entry"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;
    use crate::FileContext;

    const GOLDEN: &str = "# registry\nmsketch_request_seconds\nmsketch_rows_ingested_total\n";

    fn run(path: &str, src: &str, golden: &str) -> Vec<Finding> {
        let ctx = FileContext::classify(path);
        let file = SourceFile::scan(src);
        let mut regs = Vec::new();
        let mut findings = Vec::new();
        collect(&ctx, &file, src, &mut regs, &mut findings);
        findings.extend(check("lint/metrics.golden", golden, &regs));
        findings
    }

    #[test]
    fn registered_names_are_clean() {
        let src = "fn f(reg: &Registry) {\n    let r = reg.recorder(\"msketch_request_seconds\", &[(\"route\", \"/q\")]);\n    let c = reg.counter(\"msketch_rows_ingested_total\", &[]);\n}\n";
        assert!(run("crates/server/src/lib.rs", src, GOLDEN).is_empty());
    }

    #[test]
    fn publishing_an_owned_handle_counts_as_a_registration() {
        let src = "fn f(reg: &Registry, c: &Counter, g: &Gauge) {\n    reg.register_counter(\"msketch_rows_ingested_total\", &[], c);\n    reg.register_gauge(\n        \"msketch_request_seconds\",\n        &[],\n        g,\n    );\n}\n";
        assert!(run("crates/engine/src/sharded.rs", src, GOLDEN).is_empty());
        let unpinned = "fn f(reg: &Registry, g: &Gauge) {\n    reg.register_gauge(\"msketch_unpinned\", &[], g);\n}\n";
        let findings = run("crates/engine/src/sharded.rs", unpinned, "# empty\n");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("is not registered"));
    }

    #[test]
    fn wrapped_registration_is_still_read() {
        let src = "fn f(reg: &Registry) {\n    let c = reg.counter(\n        \"msketch_rows_ingested_total\",\n        &[(\"route\", \"/q\")],\n    );\n    let r = reg.recorder(\"msketch_request_seconds\", &[]);\n}\n";
        assert!(run("crates/server/src/lib.rs", src, GOLDEN).is_empty());
    }

    #[test]
    fn unregistered_and_orphaned_names_both_fail() {
        let src = "fn f(reg: &Registry) {\n    reg.counter(\"msketch_rows_ingested_total\", &[]);\n    reg.gauge(\"msketch_unpinned\", &[]);\n}\n";
        let findings = run("crates/server/src/lib.rs", src, GOLDEN);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0]
            .message
            .contains("\"msketch_unpinned\" is not registered"));
        assert!(findings[1]
            .message
            .contains("\"msketch_request_seconds\" is never registered"));
    }

    #[test]
    fn dynamic_names_fail_and_prose_cannot_fake_one() {
        let dynamic = "fn f(reg: &Registry, name: &str) {\n    reg.counter(name, &[]);\n}\n";
        let findings = run("crates/server/src/lib.rs", dynamic, "# empty\n");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("non-literal"));

        let prose = "// call `reg.counter(\"x_total\")` to register\nconst HELP: &str = \"use .gauge(\\\"y\\\")\";\n";
        assert!(run("crates/server/src/lib.rs", prose, "# empty\n").is_empty());
    }

    #[test]
    fn compat_and_test_code_are_out_of_scope() {
        let src = "fn f(reg: &Registry) {\n    reg.counter(\"anything_goes\", &[]);\n}\n";
        assert!(run("crates/compat/tiny_http/src/lib.rs", src, "# empty\n").is_empty());
        assert!(run("crates/obs/tests/recorder_equivalence.rs", src, "# empty\n").is_empty());
        let in_test_mod =
            "#[cfg(test)]\nmod tests {\n    fn t(reg: &Registry) { reg.gauge(\"ad_hoc\", &[]); }\n}\n";
        assert!(run("crates/obs/src/lib.rs", in_test_mod, "# empty\n").is_empty());
    }

    #[test]
    fn golden_hygiene_is_enforced() {
        let bad = "ok_total\n9starts_with_digit\nhas-dash\nok_total\n";
        let findings = check("lint/metrics.golden", bad, &[]);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].message.contains("malformed"));
        assert!(findings[1].message.contains("malformed"));
        assert!(findings[2].message.contains("duplicate"));
    }
}
