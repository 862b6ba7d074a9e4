//! Rule `wire`: wire-tag stability across every tag-owning enum.
//!
//! The one-byte discriminants of `SketchKind` (`crates/sketches/src/
//! api.rs`), `TimelineWire` (`crates/timeline/src/segment.rs`) and
//! `WalWire` (`crates/engine/src/wal.rs`) are the wire format's tags:
//! every serialized cube, sketch, timeline segment and WAL record
//! carries one, so a reused or renumbered tag silently decodes
//! old bytes as the wrong format. The committed registry
//! `lint/wire_tags.golden` pins every tag ever shipped in one flat
//! namespace — tags are unique across *all* enums, so a sketch tag can
//! never be recycled as a segment header. Against it, this rule fails
//! on
//!
//! * **renumber** — a golden name now has a different code;
//! * **removal** — a golden name no longer exists in any enum;
//! * **reuse** — two enum entries share a code (even across enums), or
//!   a new name takes a code the registry already assigned;
//! * **implicit or unregistered tags** — every entry needs an explicit
//!   `= N`, and a genuinely new tag must be *appended* to the golden
//!   file (the one allowed evolution).

use crate::scan::SourceFile;
use crate::Finding;

/// One `Name = code` tag entry, with where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct TagEntry {
    /// Variant name.
    pub name: String,
    /// One-byte wire tag.
    pub code: u8,
    /// 1-based source line (golden entries: their line in the golden).
    pub line: usize,
    /// Owning enum (`SketchKind`, `TimelineWire`, `WalWire`; empty for golden
    /// entries — the registry is one flat namespace).
    pub owner: String,
    /// Source file the entry was parsed from.
    pub path: String,
}

impl TagEntry {
    /// `Owner::Name` for source entries, bare `Name` for golden ones.
    fn label(&self) -> String {
        if self.owner.is_empty() {
            self.name.clone()
        } else {
            format!("{}::{}", self.owner, self.name)
        }
    }
}

/// One source file holding a tag-owning enum.
#[derive(Debug, Clone, Copy)]
pub struct TagSource<'a> {
    /// Workspace-relative path (labels findings).
    pub path: &'a str,
    /// Scanned source.
    pub file: &'a SourceFile,
    /// The enum to extract (`SketchKind`, `TimelineWire`, `WalWire`).
    pub enum_name: &'a str,
}

/// Parse `enum <name> { … }` variants out of scanned source. `Err`
/// carries findings for malformed entries (missing `= N`).
pub fn parse_enum(source: TagSource<'_>) -> Result<Vec<TagEntry>, Vec<Finding>> {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    let mut inside = false;
    let needle = format!("enum {}", source.enum_name);
    for line in &source.file.lines {
        let code = line.code.trim();
        if !inside {
            if code.contains(&needle) {
                inside = true;
            }
            continue;
        }
        // Tag enums are unit-with-discriminant, so the first closing
        // brace at variant level ends the enum.
        if code.starts_with('}') {
            break;
        }
        // Variant lines look like `Name = N,`; attributes and the
        // opening brace line are skipped.
        let Some(first) = code.chars().next() else {
            continue;
        };
        if !first.is_ascii_uppercase() {
            continue;
        }
        let name: String = code
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let rest = code[name.len()..].trim().trim_end_matches(',').trim();
        let Some(value) = rest.strip_prefix('=').map(str::trim) else {
            findings.push(Finding::at(
                source.path,
                line.number,
                "wire",
                format!(
                    "{}::{name} has no explicit discriminant; wire tags must be written `= N`",
                    source.enum_name
                ),
            ));
            continue;
        };
        match value.parse::<u8>() {
            Ok(codepoint) => entries.push(TagEntry {
                name,
                code: codepoint,
                line: line.number,
                owner: source.enum_name.to_string(),
                path: source.path.to_string(),
            }),
            Err(_) => findings.push(Finding::at(
                source.path,
                line.number,
                "wire",
                format!(
                    "{}::{name} discriminant {value:?} is not a u8 literal",
                    source.enum_name
                ),
            )),
        }
    }
    if !inside {
        findings.push(Finding::at(
            source.path,
            1,
            "wire",
            format!(
                "no `enum {}` found; the wire-tag registry has nothing to check",
                source.enum_name
            ),
        ));
    }
    if findings.is_empty() {
        Ok(entries)
    } else {
        Err(findings)
    }
}

/// Parse the golden registry (`Name = N` lines; `#` comments).
pub fn parse_golden(golden_path: &str, text: &str) -> Result<Vec<TagEntry>, Vec<Finding>> {
    let mut entries = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parsed = line.split_once('=').and_then(|(name, code)| {
            let name = name.trim();
            let ok_name = !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_');
            match (ok_name, code.trim().parse::<u8>()) {
                (true, Ok(code)) => Some((name.to_string(), code)),
                _ => None,
            }
        });
        match parsed {
            Some((name, code)) => entries.push(TagEntry {
                name,
                code,
                line: idx + 1,
                owner: String::new(),
                path: golden_path.to_string(),
            }),
            None => findings.push(Finding::at(
                golden_path,
                idx + 1,
                "wire",
                format!("malformed golden entry {line:?}; expected `Name = N`"),
            )),
        }
    }
    if findings.is_empty() {
        Ok(entries)
    } else {
        Err(findings)
    }
}

/// Diff every tag-owning enum against the golden registry. All sources
/// merge into one namespace before the diff, so cross-enum code reuse
/// fails just like reuse inside one enum.
pub fn check(sources: &[TagSource<'_>], golden_path: &str, golden_text: &str) -> Vec<Finding> {
    let mut source = Vec::new();
    for s in sources {
        match parse_enum(*s) {
            Ok(entries) => source.extend(entries),
            Err(findings) => return findings,
        }
    }
    let golden = match parse_golden(golden_path, golden_text) {
        Ok(entries) => entries,
        Err(findings) => return findings,
    };
    let mut findings = Vec::new();
    // Duplicate codes across the merged enums.
    for (i, entry) in source.iter().enumerate() {
        if let Some(first) = source[..i].iter().find(|e| e.code == entry.code) {
            findings.push(Finding::at(
                &entry.path,
                entry.line,
                "wire",
                format!(
                    "tag {} is reused: {} and {} share it",
                    entry.code,
                    first.label(),
                    entry.label()
                ),
            ));
        }
    }
    for pinned in &golden {
        match source.iter().find(|e| e.name == pinned.name) {
            None => findings.push(Finding::at(
                golden_path,
                pinned.line,
                "wire",
                format!(
                    "{} (tag {}) was removed; shipped tags must stay decodable forever",
                    pinned.name, pinned.code
                ),
            )),
            Some(entry) if entry.code != pinned.code => findings.push(Finding::at(
                &entry.path,
                entry.line,
                "wire",
                format!(
                    "{} renumbered from pinned tag {} to {}; existing serialized data would decode as the wrong format",
                    entry.label(), pinned.code, entry.code
                ),
            )),
            Some(_) => {}
        }
    }
    for entry in &source {
        if golden.iter().any(|g| g.name == entry.name) {
            continue;
        }
        if let Some(taken) = golden.iter().find(|g| g.code == entry.code) {
            findings.push(Finding::at(
                &entry.path,
                entry.line,
                "wire",
                format!(
                    "new {} reuses tag {}, which the registry pins to {}; pick the next free tag",
                    entry.label(),
                    entry.code,
                    taken.name
                ),
            ));
        } else {
            findings.push(Finding::at(
                &entry.path,
                entry.line,
                "wire",
                format!(
                    "new {} (tag {}) is not in the registry; append `{} = {}` to {}",
                    entry.label(),
                    entry.code,
                    entry.name,
                    entry.code,
                    golden_path
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

    const GOLDEN: &str = "# pinned\nMoments = 1\nMerge12 = 2\nExact = 9\n";

    fn run(api_src: &str) -> Vec<Finding> {
        let file = SourceFile::scan(api_src);
        check(
            &[TagSource {
                path: "crates/sketches/src/api.rs",
                file: &file,
                enum_name: "SketchKind",
            }],
            "lint/wire_tags.golden",
            GOLDEN,
        )
    }

    #[test]
    fn matching_enum_is_clean_and_append_is_allowed_once_registered() {
        let clean =
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 2,\n    Exact = 9,\n}\n";
        assert!(run(clean).is_empty());
        // A new tag appended to *both* the enum and the golden is clean.
        let file = SourceFile::scan(
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 2,\n    Exact = 9,\n    Kll = 10,\n}\n",
        );
        let golden = format!("{GOLDEN}Kll = 10\n");
        let source = TagSource {
            path: "api.rs",
            file: &file,
            enum_name: "SketchKind",
        };
        assert!(check(&[source], "golden", &golden).is_empty());
    }

    #[test]
    fn renumber_removal_reuse_and_unregistered_all_fail() {
        let renumbered =
            "pub enum SketchKind {\n    Moments = 4,\n    Merge12 = 2,\n    Exact = 9,\n}\n";
        assert!(run(renumbered)[0].message.contains("renumbered"));

        let removed = "pub enum SketchKind {\n    Moments = 1,\n    Exact = 9,\n}\n";
        assert!(run(removed)[0].message.contains("removed"));

        let duplicated =
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 1,\n    Exact = 9,\n}\n";
        assert!(run(duplicated).iter().any(|f| f.message.contains("reused")));

        let retired_tag_taken =
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 2,\n    Exact = 9,\n    Kll = 2,\n}\n";
        assert!(run(retired_tag_taken)
            .iter()
            .any(|f| f.message.contains("pins to Merge12")));

        let unregistered =
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 2,\n    Exact = 9,\n    Kll = 10,\n}\n";
        let findings = run(unregistered);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("append `Kll = 10`"));
    }

    #[test]
    fn implicit_discriminants_fail() {
        let implicit = "pub enum SketchKind {\n    Moments,\n    Merge12 = 2,\n    Exact = 9,\n}\n";
        let findings = run(implicit);
        assert!(findings[0].message.contains("no explicit discriminant"));
    }

    #[test]
    fn doc_comments_and_attributes_inside_the_enum_are_skipped() {
        let commented = "#[repr(u8)]\npub enum SketchKind {\n    /// The moments sketch.\n    Moments = 1,\n    #[allow(dead_code)]\n    Merge12 = 2,\n    Exact = 9,\n}\n";
        assert!(run(commented).is_empty());
    }

    #[test]
    fn tags_share_one_namespace_across_enums() {
        let api = SourceFile::scan(
            "pub enum SketchKind {\n    Moments = 1,\n    Merge12 = 2,\n    Exact = 9,\n}\n",
        );
        let seg_clean =
            SourceFile::scan("pub enum TimelineWire {\n    TimelineSegmentV1 = 10,\n}\n");
        fn sources<'a>(api: &'a SourceFile, seg: &'a SourceFile) -> [TagSource<'a>; 2] {
            [
                TagSource {
                    path: "api.rs",
                    file: api,
                    enum_name: "SketchKind",
                },
                TagSource {
                    path: "segment.rs",
                    file: seg,
                    enum_name: "TimelineWire",
                },
            ]
        }
        let golden = format!("{GOLDEN}TimelineSegmentV1 = 10\n");
        assert!(check(&sources(&api, &seg_clean), "golden", &golden).is_empty());

        // A timeline tag colliding with a sketch tag fails even though
        // the enums live in different files.
        let seg_reuse =
            SourceFile::scan("pub enum TimelineWire {\n    TimelineSegmentV1 = 2,\n}\n");
        let findings = check(&sources(&api, &seg_reuse), "golden", GOLDEN);
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("reused") || f.message.contains("pins to")),
            "{findings:?}"
        );

        // An unregistered timeline tag points at the segment file.
        let findings = check(&sources(&api, &seg_clean), "golden", GOLDEN);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, "segment.rs");
        assert!(findings[0]
            .message
            .contains("append `TimelineSegmentV1 = 10`"));
    }
}
