//! The four repo-specific rules. Each rule is a pure function from
//! scanned source (plus file context) to findings, so unit tests drive
//! them with inline fixture snippets and the binary drives them with
//! the real tree — same code path either way.

pub mod channels;
pub mod failpoints;
pub mod metrics;
pub mod wire;

use crate::scan::SourceFile;
use crate::{FileContext, Finding, RuleSet};

/// Stable rule identifiers, as accepted by `--rule`.
pub const RULE_IDS: [&str; 4] = ["wire", "channel", "failpoint", "metrics"];

/// Run every per-file rule enabled in `rules` over one scanned file.
///
/// The `wire`, `failpoint`, and `metrics` rules are workspace-level
/// (they diff collected state against a committed golden registry) and
/// run separately — see [`wire::check`], [`failpoints::check`], and
/// [`metrics::check`].
pub fn check_file(ctx: &FileContext, file: &SourceFile, rules: &RuleSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    if rules.enabled("channel") {
        channels::check(ctx, file, &mut findings);
    }
    findings
}
