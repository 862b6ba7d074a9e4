//! The workspace must pass its own static-analysis rules.
//!
//! This is the lint's primary acceptance test: `msketch-lint` run over
//! the real tree reports zero findings. If this test fails, either a
//! change introduced a genuine violation (fix it), or a rule regressed
//! into a false positive (fix the rule and cover the case in its
//! fixture tests under `crates/lint/src/rules/`). The invariants the
//! compiler can see are compiler lints instead; the last test here
//! keeps every crate under them.

use msketch_lint::rules::{failpoints, RULE_IDS};
use msketch_lint::scan::SourceFile;
use msketch_lint::{lint_workspace, FileContext, RuleSet};
use std::path::Path;

fn workspace_root() -> &'static Path {
    // This integration test lives in the facade package at the
    // workspace root, so the manifest dir *is* the root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let findings = lint_workspace(workspace_root(), &RuleSet::all()).expect("walk workspace");
    assert!(
        findings.is_empty(),
        "msketch-lint found {} violation(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_is_clean_in_isolation() {
    // `--rule <id>` must agree with the full run: no rule hides
    // findings that only surface when others are disabled.
    for rule in RULE_IDS {
        let findings =
            lint_workspace(workspace_root(), &RuleSet::only(&[rule])).expect("walk workspace");
        assert!(
            findings.is_empty(),
            "rule {rule:?} alone found violations:\n{}",
            findings
                .iter()
                .map(|f| f.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn golden_registry_pins_all_shipped_tags() {
    // The registry must stay append-only and cover every tag the wire
    // format has ever shipped: tags 1 through 11 (sketch kinds 1-9,
    // the timeline segment header, and the WAL replacement record).
    let golden = std::fs::read_to_string(workspace_root().join("lint/wire_tags.golden"))
        .expect("read wire_tags.golden");
    let entries = msketch_lint::rules::wire::parse_golden("lint/wire_tags.golden", &golden)
        .expect("golden parses");
    let mut codes: Vec<u8> = entries.iter().map(|e| e.code).collect();
    codes.sort_unstable();
    assert_eq!(
        codes,
        (1..=11).collect::<Vec<u8>>(),
        "golden registry must pin tags 1..=11 exactly once each"
    );
}

#[test]
fn violations_are_actually_detected() {
    // Guard against the lint silently matching nothing: a fixture with
    // one violation per rule must produce findings for each.
    let send_under_lock = "fn f(&self) {\n    let g = self.m.lock();\n    self.tx.send(1);\n}\n";
    let findings = msketch_lint::lint_source(
        "crates/engine/src/bad.rs",
        send_under_lock,
        &RuleSet::only(&["channel"]),
    );
    assert_eq!(findings.len(), 1, "channel rule must fire on fixtures");

    let unpinned = "fn f() {\n    failpoint::fail_if(\"engine::unpinned\");\n}\n";
    let ctx = FileContext::classify("crates/engine/src/bad.rs");
    let mut sites = Vec::new();
    let mut findings = Vec::new();
    failpoints::collect(
        &ctx,
        &SourceFile::scan(unpinned),
        unpinned,
        &mut sites,
        &mut findings,
    );
    findings.extend(failpoints::check(
        "lint/failpoints.golden",
        "# empty\n",
        &sites,
    ));
    assert_eq!(findings.len(), 1, "failpoint rule must fire on fixtures");
}

/// Does `manifest` carry `[lints]` followed by `workspace = true`?
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut lines = manifest.lines().map(str::trim).filter(|l| !l.is_empty());
    lines.any(|l| l == "[lints]") && lines.next() == Some("workspace = true")
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    // `missing_docs`, `unreachable_pub` and `forbid(unsafe_code)` hold
    // only in crates that inherit them, and a crate that opts out does
    // so silently, so this test names the one exception.
    let root = std::fs::read_to_string(workspace_root().join("Cargo.toml")).expect("root manifest");
    assert!(
        inherits_workspace_lints(&root),
        "the root package must inherit the workspace lints"
    );
    let members: Vec<&str> = root
        .lines()
        .skip_while(|l| l.trim() != "members = [")
        .skip(1)
        .take_while(|l| l.trim() != "]")
        .map(|l| l.trim().trim_end_matches(',').trim_matches('"'))
        .collect();
    assert!(members.len() > 10, "members list not found: {members:?}");
    for member in members {
        let manifest = std::fs::read_to_string(workspace_root().join(member).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("{member}/Cargo.toml: {e}"));
        if member == "crates/compat/serde_json" {
            // The one crate allowed `unsafe`: it restates the workspace
            // set and requires a `// SAFETY:` comment on every block.
            for lint in [
                "missing_docs = \"deny\"",
                "unreachable_pub = \"deny\"",
                "allow_attributes_without_reason = \"deny\"",
                "undocumented_unsafe_blocks = \"deny\"",
            ] {
                assert!(manifest.contains(lint), "{member} must declare {lint}");
            }
        } else {
            assert!(
                inherits_workspace_lints(&manifest),
                "{member}/Cargo.toml must carry `[lints] workspace = true`"
            );
        }
    }
}
