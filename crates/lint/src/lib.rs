//! `msketch-lint` — workspace static analysis for the moments-sketch
//! repo.
//!
//! The workspace carries four load-bearing invariants that neither
//! rustc nor clippy can see: wire tags must never move (`wire`), the
//! concurrent core must never block on a channel while holding a lock
//! (`channel`), every fault-injection site stays pinned in the registry
//! CI arms by name (`failpoint`), and every metric name dashboards
//! scrape stays pinned the same way (`metrics`). This crate
//! machine-checks them with a dependency-free scanner over the tree
//! (`std::fs` + a hand-rolled line scanner in [`scan`]). Docs,
//! visibility, `unsafe` and panic-freedom are compiler lints, declared
//! in the workspace manifest and the perimeter crates' roots.
//!
//! Run it with `cargo run -p msketch-lint`; see `lint/README.md` for
//! each rule's rationale and the failure it prevents. The library
//! surface exists so the self-test (`tests/lint_self.rs`) and the
//! per-rule fixture tests can call the same code the binary runs.

pub mod rules;
pub mod scan;

use scan::SourceFile;
use std::path::{Path, PathBuf};

/// Where the `SketchKind` wire tags live.
pub const API_PATH: &str = "crates/sketches/src/api.rs";
/// Where the `TimelineWire` segment tags live (same flat registry).
pub const TIMELINE_WIRE_PATH: &str = "crates/timeline/src/segment.rs";
/// Where the `WalWire` log-record tags live (same flat registry).
pub const WAL_WIRE_PATH: &str = "crates/engine/src/wal.rs";
/// The committed wire-tag registry the `wire` rule diffs against.
pub const GOLDEN_PATH: &str = "lint/wire_tags.golden";
/// The committed fault-injection site registry the `failpoint` rule
/// diffs against.
pub const FAILPOINTS_GOLDEN_PATH: &str = "lint/failpoints.golden";
/// The committed metric-name registry the `metrics` rule diffs against.
pub const METRICS_GOLDEN_PATH: &str = "lint/metrics.golden";

/// One diagnostic, printed as `file:line: rule: message`.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule id (`wire`, `channel`, `failpoint`, `metrics`).
    pub rule: &'static str,
    /// Human-readable explanation with a remediation hint.
    pub message: String,
}

impl Finding {
    /// A finding in the file a [`FileContext`] describes.
    pub fn new(ctx: &FileContext, line: usize, rule: &'static str, message: String) -> Finding {
        Finding::at(&ctx.path, line, rule, message)
    }

    /// A finding at an explicit path.
    pub fn at(path: &str, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: path.to_string(),
            line,
            rule,
            message,
        }
    }

    /// Render as `file:line: rule: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// Render as a JSON object (hand-rolled; the linter has no deps).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.file),
            self.line,
            self.rule,
            json_escape(&self.message)
        )
    }
}

fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// What a file *is*, derived from its workspace-relative path; rules
/// scope themselves with this.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Under `crates/compat/`: stand-ins for external crates, which
    /// define no failpoint sites or metric names of their own.
    pub compat: bool,
    /// In the panic perimeter, where the `channel` rule applies: the
    /// crates whose roots deny clippy's panic lints (`crates/engine`,
    /// `crates/server`, `crates/timeline`, `crates/obs`) and the cube
    /// crate's delta module, which shard workers call straight into.
    pub panic_scope: bool,
    /// Test-only code: integration tests, benches, examples, or a
    /// `tests.rs` module file.
    pub test_code: bool,
}

impl FileContext {
    /// Classify a workspace-relative path.
    pub fn classify(path: &str) -> FileContext {
        let compat = path.starts_with("crates/compat/");
        let panic_scope = path.starts_with("crates/engine/src/")
            || path.starts_with("crates/server/src/")
            || path.starts_with("crates/timeline/src/")
            || path.starts_with("crates/obs/src/")
            || path == "crates/cube/src/delta.rs";
        let test_code = path.starts_with("tests/")
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.starts_with("examples/")
            || path.contains("/examples/")
            || path.ends_with("/tests.rs");
        FileContext {
            path: path.to_string(),
            compat,
            panic_scope,
            test_code,
        }
    }
}

/// Which rules run. Full runs (and the self-test) use [`RuleSet::all`];
/// `--rule` narrows to exactly the named rules.
#[derive(Debug, Clone)]
pub struct RuleSet {
    enabled: Vec<&'static str>,
}

impl RuleSet {
    /// Every rule.
    pub fn all() -> RuleSet {
        RuleSet {
            enabled: rules::RULE_IDS.to_vec(),
        }
    }

    /// Just the named rules. Unknown names are ignored here; the CLI
    /// validates them first.
    pub fn only(names: &[&str]) -> RuleSet {
        RuleSet {
            enabled: rules::RULE_IDS
                .iter()
                .filter(|id| names.contains(id))
                .copied()
                .collect(),
        }
    }

    /// Is `rule` enabled?
    pub fn enabled(&self, rule: &str) -> bool {
        self.enabled.contains(&rule)
    }
}

/// Lint one in-memory source file (the unit-test entry point: fixture
/// snippets use synthetic paths like `crates/server/src/lib.rs`).
pub fn lint_source(path: &str, text: &str, ruleset: &RuleSet) -> Vec<Finding> {
    let ctx = FileContext::classify(path);
    let file = SourceFile::scan(text);
    rules::check_file(&ctx, &file, ruleset)
}

/// Lint the workspace rooted at `root`: every tracked `.rs` file for
/// the per-file rules, plus the wire-tag diff.
pub fn lint_workspace(root: &Path, ruleset: &RuleSet) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let files = collect_rust_files(root)?;
    if files.is_empty() {
        // A root with no Rust sources is a mis-pointed --root, not a
        // clean workspace; reporting "clean" here would pass vacuously.
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no Rust sources found under {}", root.display()),
        ));
    }
    let mut failpoint_sites = Vec::new();
    let mut metric_regs = Vec::new();
    for rel in files {
        let text = std::fs::read_to_string(root.join(&rel))?;
        let ctx = FileContext::classify(&rel);
        let file = SourceFile::scan(&text);
        findings.extend(rules::check_file(&ctx, &file, ruleset));
        if ruleset.enabled("failpoint") {
            rules::failpoints::collect(&ctx, &file, &text, &mut failpoint_sites, &mut findings);
        }
        if ruleset.enabled("metrics") {
            rules::metrics::collect(&ctx, &file, &text, &mut metric_regs, &mut findings);
        }
    }
    if ruleset.enabled("metrics") {
        match std::fs::read_to_string(root.join(METRICS_GOLDEN_PATH)) {
            Ok(golden) => findings.extend(rules::metrics::check(
                METRICS_GOLDEN_PATH,
                &golden,
                &metric_regs,
            )),
            Err(_) => findings.push(Finding::at(
                METRICS_GOLDEN_PATH,
                1,
                "metrics",
                "golden metric-name registry is missing; restore it from version control"
                    .to_string(),
            )),
        }
    }
    if ruleset.enabled("failpoint") {
        match std::fs::read_to_string(root.join(FAILPOINTS_GOLDEN_PATH)) {
            Ok(golden) => findings.extend(rules::failpoints::check(
                FAILPOINTS_GOLDEN_PATH,
                &golden,
                &failpoint_sites,
            )),
            Err(_) => findings.push(Finding::at(
                FAILPOINTS_GOLDEN_PATH,
                1,
                "failpoint",
                "golden failpoint registry is missing; restore it from version control".to_string(),
            )),
        }
    }
    if ruleset.enabled("wire") {
        let api = std::fs::read_to_string(root.join(API_PATH))?;
        let timeline = std::fs::read_to_string(root.join(TIMELINE_WIRE_PATH))?;
        let wal = std::fs::read_to_string(root.join(WAL_WIRE_PATH))?;
        let api_scanned = SourceFile::scan(&api);
        let timeline_scanned = SourceFile::scan(&timeline);
        let wal_scanned = SourceFile::scan(&wal);
        match std::fs::read_to_string(root.join(GOLDEN_PATH)) {
            Ok(golden) => findings.extend(rules::wire::check(
                &[
                    rules::wire::TagSource {
                        path: API_PATH,
                        file: &api_scanned,
                        enum_name: "SketchKind",
                    },
                    rules::wire::TagSource {
                        path: TIMELINE_WIRE_PATH,
                        file: &timeline_scanned,
                        enum_name: "TimelineWire",
                    },
                    rules::wire::TagSource {
                        path: WAL_WIRE_PATH,
                        file: &wal_scanned,
                        enum_name: "WalWire",
                    },
                ],
                GOLDEN_PATH,
                &golden,
            )),
            Err(_) => findings.push(Finding::at(
                GOLDEN_PATH,
                1,
                "wire",
                "golden wire-tag registry is missing; restore it from version control".to_string(),
            )),
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Workspace-relative paths of every `.rs` file under the source roots,
/// sorted for deterministic output. `target/` and hidden directories
/// are skipped.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(&path, root));
        }
    }
    Ok(())
}

fn relative(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_the_layout() {
        let compat = FileContext::classify("crates/compat/serde_json/src/lib.rs");
        assert!(compat.compat && !compat.panic_scope);
        let server = FileContext::classify("crates/server/src/lib.rs");
        assert!(server.panic_scope && !server.test_code);
        let timeline = FileContext::classify("crates/timeline/src/timeline.rs");
        assert!(timeline.panic_scope && !timeline.compat);
        let module_tests = FileContext::classify("crates/server/src/tests.rs");
        assert!(module_tests.test_code);
        let integration = FileContext::classify("tests/lint_self.rs");
        assert!(integration.test_code);
        let bin = FileContext::classify("crates/server/src/bin/serve.rs");
        assert!(bin.panic_scope && !bin.test_code);
    }

    #[test]
    fn findings_render_stably() {
        let f = Finding::at("a/b.rs", 7, "channel", "bad \"thing\"".to_string());
        assert_eq!(f.render(), "a/b.rs:7: channel: bad \"thing\"");
        assert_eq!(
            f.render_json(),
            "{\"file\":\"a/b.rs\",\"line\":7,\"rule\":\"channel\",\"message\":\"bad \\\"thing\\\"\"}"
        );
    }

    #[test]
    fn rule_filtering_enables_only_the_named_rules() {
        let only_channel = RuleSet::only(&["channel", "no-such-rule"]);
        assert!(only_channel.enabled("channel"));
        assert!(!only_channel.enabled("wire"));
        assert!(!only_channel.enabled("no-such-rule"));
    }
}
