//! Rule `channel`: no blocking channel ops while holding a mutex guard.
//!
//! The engine's shard channels are *bounded*: `.send(` blocks when a
//! worker is behind, and `.recv(` blocks until a reply arrives. Doing
//! either while holding a `Mutex` guard is the deadlock shape PR 4's
//! backpressure makes possible — the worker that would unblock the
//! channel may itself be waiting on that mutex. The serving layer's
//! engine mutex makes this concrete: hold it, block on a shard send,
//! and every other request handler parks behind you.
//!
//! The detection is the textual heuristic the issue prescribes: inside
//! a function, a line that takes a guard (`….lock()` bound with `let`,
//! or a `let guard =` binding) opens a guard scope; until that scope's
//! brace level closes or the binding is explicitly `drop(…)`ed, any
//! `.send(` / `.recv(` / `.try_send(` / `.try_recv(` line is flagged.
//! A `.lock()` used as a plain expression statement (no `let`) only
//! guards its own line — the temporary dies at the semicolon.

use crate::scan::SourceFile;
use crate::{FileContext, Finding};

const CHANNEL_OPS: [&str; 4] = [".send(", ".recv(", ".try_send(", ".try_recv("];

#[derive(Debug)]
struct GuardScope {
    /// Brace depth at the binding; the scope dies when depth drops
    /// below this.
    depth: usize,
    /// Binding name, for `drop(name)` release detection.
    name: Option<String>,
    /// Line the guard was taken on, echoed in the diagnostic.
    line: usize,
}

/// Run the rule over one file.
pub fn check(ctx: &FileContext, file: &SourceFile, findings: &mut Vec<Finding>) {
    if !ctx.panic_scope || ctx.test_code {
        return;
    }
    let mut guards: Vec<GuardScope> = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        // Close scopes whose block ended.
        guards.retain(|g| line.depth >= g.depth);
        // Explicit release: `drop(name)`.
        if let Some(rest) = code.trim_start().strip_prefix("drop(") {
            let dropped: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            guards.retain(|g| g.name.as_deref() != Some(dropped.as_str()));
        }
        let takes_guard = code.contains(".lock()") || code.trim_start().starts_with("let guard =");
        let held_here = !guards.is_empty() || takes_guard;
        if held_here {
            for op in CHANNEL_OPS {
                if code.contains(op) {
                    let since = guards.first().map_or(line.number, |g| g.line);
                    findings.push(Finding::new(
                        ctx,
                        line.number,
                        "channel",
                        format!(
                            "`{op}…)` while a mutex guard (taken line {since}) is held: a blocked channel peer \
                             that needs the same lock deadlocks; drop the guard first"
                        ),
                    ));
                }
            }
        }
        if takes_guard {
            // `let name = ….lock()…;` opens a scope until its block
            // closes or `drop(name)`. A bare `….lock()…;` expression
            // statement guards only this line (handled above).
            let trimmed = code.trim_start();
            if let Some(rest) = trimmed.strip_prefix("let ") {
                let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                guards.push(GuardScope {
                    depth: line.depth,
                    name: (!name.is_empty()).then_some(name),
                    line: line.number,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{lint_source, RuleSet};

    fn channel_rule() -> RuleSet {
        RuleSet::only(&["channel"])
    }

    #[test]
    fn send_under_held_guard_is_flagged() {
        let src = r#"
fn f(&self) {
    let engine = self.engine.lock().unwrap_or_default();
    self.tx.send(1);
}
"#;
        let findings = lint_source("crates/server/src/lib.rs", src, &channel_rule());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("taken line 3"));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = r#"
fn f(&self) {
    let engine = self.engine.lock().unwrap_or_default();
    drop(engine);
    self.tx.send(1);
}
"#;
        assert!(lint_source("crates/server/src/lib.rs", src, &channel_rule()).is_empty());
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let src = r#"
fn f(&self) {
    {
        let engine = self.engine.lock().unwrap_or_default();
        engine.poke();
    }
    self.tx.send(1);
}
"#;
        assert!(lint_source("crates/engine/src/sharded.rs", src, &channel_rule()).is_empty());
    }

    #[test]
    fn recv_on_the_lock_line_itself_is_flagged() {
        let src = "fn f(&self) { self.slot.lock().channel.recv(); }\n";
        let findings = lint_source("crates/engine/src/sharded.rs", src, &channel_rule());
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn plain_sends_and_other_crates_are_clean() {
        let src = "fn f(&self) { self.tx.send(1); let x = self.rx.recv(); }\n";
        assert!(lint_source("crates/engine/src/sharded.rs", src, &channel_rule()).is_empty());
        let locked_elsewhere = "fn f(&self) {\n    let g = self.m.lock().unwrap_or_default();\n    self.tx.send(1);\n}\n";
        assert!(
            lint_source("crates/cube/src/cube.rs", locked_elsewhere, &channel_rule()).is_empty(),
            "rule scoped to engine/server"
        );
    }

    #[test]
    fn let_guard_heuristic_triggers_without_lock() {
        let src = "fn f(&self) {\n    let guard = self.custom_guard();\n    self.tx.send(1);\n}\n";
        assert_eq!(
            lint_source("crates/server/src/lib.rs", src, &channel_rule()).len(),
            1
        );
    }
}
