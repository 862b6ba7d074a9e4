//! `msketch-lint` — run the workspace static-analysis rules.
//!
//! ```text
//! cargo run -p msketch-lint [-- --rule <id>]... [--json] [--root <path>]
//! ```
//!
//! Prints `file:line: rule-id: message` per finding (or a JSON array
//! with `--json`) and exits nonzero if anything was found. Rules:
//! `wire`, `channel`, `failpoint`, `metrics` — see `lint/README.md`.

use msketch_lint::{lint_workspace, rules::RULE_IDS, RuleSet};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: msketch-lint [--rule <id>]... [--json] [--root <path>]\n\
         rules: {}",
        RULE_IDS.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    // The binary lives at crates/lint, two levels below the workspace
    // root it lints by default.
    let default_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut root = default_root;
    let mut json = false;
    let mut requested: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--rule" => match args.next() {
                Some(rule) if RULE_IDS.contains(&rule.as_str()) => requested.push(rule),
                Some(rule) => {
                    eprintln!("unknown rule {rule:?}");
                    usage();
                }
                None => usage(),
            },
            "--json" => json = true,
            "--root" => match args.next() {
                Some(path) => root = PathBuf::from(path),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let ruleset = if requested.is_empty() {
        RuleSet::all()
    } else {
        let names: Vec<&str> = requested.iter().map(String::as_str).collect();
        RuleSet::only(&names)
    };
    let findings = match lint_workspace(&root, &ruleset) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!(
                "msketch-lint: cannot read workspace at {}: {e}",
                root.display()
            );
            std::process::exit(2);
        }
    };
    if json {
        let rows: Vec<String> = findings.iter().map(|f| f.render_json()).collect();
        println!("[{}]", rows.join(","));
    } else {
        for finding in &findings {
            println!("{}", finding.render());
        }
        if findings.is_empty() {
            eprintln!("msketch-lint: clean");
        } else {
            eprintln!(
                "msketch-lint: {} finding{}",
                findings.len(),
                if findings.len() == 1 { "" } else { "s" }
            );
        }
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
