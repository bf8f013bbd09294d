//! The documentation suite's references resolve.
//!
//! Walks `README.md`, `ROADMAP.md`, `EXPERIMENTS.md`, `vendor/README.md`
//! and every file under `docs/`, outside fenced code blocks, and checks
//!
//! * every inline markdown link (`[text](target)`): a relative target
//!   must be an existing file, with a `#anchor` fragment checked against
//!   the target's headings under GitHub's slug rules; external
//!   (`http(s)://`, `mailto:`) targets are only syntax-checked, since
//!   tests run offline;
//! * every back-ticked file citation — an inline code span without
//!   whitespace that ends in ".md": it must name a file relative to the
//!   citing file's directory or to the repository root. (A link-only
//!   check once let a file that did not exist be cited four times.)
//!
//! The citation rule also covers the `//!` and `///` lines of every `.rs`
//! file under `src/`, `tests/`, `examples/` and `crates/` (a markdown-only
//! walk let rustdoc cite an absent file twice), the benchmark's directory
//! excepted.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The repository root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Files to check.
fn doc_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = [
        "README.md",
        "ROADMAP.md",
        "EXPERIMENTS.md",
        "vendor/README.md",
    ]
    .iter()
    .map(|name| root().join(name))
    .collect();
    let docs = std::fs::read_dir(root().join("docs")).expect("docs/ exists");
    for entry in docs {
        let path = entry.expect("docs/ is readable").path();
        if path.extension().is_some_and(|ext| ext == "md") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// One `[text](target)` occurrence or back-ticked file citation.
struct Reference {
    line: usize,
    target: String,
}

/// The lines of a markdown text outside fenced code blocks, numbered
/// from 1.
fn prose_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut in_fence = false;
    text.lines().enumerate().filter_map(move |(index, line)| {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            return None;
        }
        (!in_fence).then_some((index + 1, line))
    })
}

/// Blanks out inline code spans (`` `...` ``) so `](` sequences inside
/// them are not mistaken for links.
fn mask_code_spans(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_code = false;
    for ch in line.chars() {
        if ch == '`' {
            in_code = !in_code;
            out.push(' ');
        } else if in_code {
            out.push(' ');
        } else {
            out.push(ch);
        }
    }
    out
}

/// Extracts inline links outside fenced code blocks and inline code
/// spans.
fn extract_links(text: &str) -> Vec<Reference> {
    let mut links = Vec::new();
    for (number, raw) in prose_lines(text) {
        let line = mask_code_spans(raw);
        let mut offset = 0;
        while let Some(open) = line[offset..].find("](") {
            let start = offset + open + 2;
            let Some(len) = line[start..].find(')') else {
                break;
            };
            links.push(Reference {
                line: number,
                target: line[start..start + len].to_owned(),
            });
            offset = start + len + 1;
        }
    }
    links
}

/// Extracts back-ticked file citations outside fenced code blocks:
/// inline code spans without whitespace that end in ".md".
fn extract_citations(text: &str) -> Vec<Reference> {
    let mut citations = Vec::new();
    for (number, line) in prose_lines(text) {
        for span in line.split('`').skip(1).step_by(2) {
            if span.ends_with(".md") && !span.contains(char::is_whitespace) {
                citations.push(Reference {
                    line: number,
                    target: span.to_owned(),
                });
            }
        }
    }
    citations
}

/// Every `.rs` file whose rustdoc is checked, sorted.
fn rust_files() -> Vec<PathBuf> {
    let benchmark = root().join("crates/bench/src/bin/benchmark");
    let mut dirs: Vec<PathBuf> = ["src", "tests", "examples", "crates"]
        .iter()
        .map(|dir| root().join(dir))
        .collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("a source directory is readable") {
            let path = entry.expect("a source directory is readable").path();
            if path.is_dir() && path != benchmark {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The `//!` and `///` lines of a Rust source as markdown: markers
/// stripped, every other line blank, so line numbers carry over.
fn rustdoc_text(source: &str) -> String {
    fn doc(line: &str) -> &str {
        let line = line.trim_start();
        line.strip_prefix("//!")
            .or_else(|| line.strip_prefix("///"))
            .unwrap_or("")
    }
    source.lines().map(doc).collect::<Vec<_>>().join("\n")
}

/// GitHub's heading-slug rule: lowercase; alphanumerics, hyphens, and
/// underscores survive; spaces become hyphens; everything else drops.
fn slug(heading: &str) -> String {
    let mut out = String::new();
    for ch in heading.trim().chars() {
        if ch.is_alphanumeric() {
            out.extend(ch.to_lowercase());
        } else if ch == ' ' {
            out.push('-');
        } else if ch == '-' || ch == '_' {
            out.push(ch);
        }
    }
    out
}

/// Every heading slug in a markdown file (fences skipped).
fn heading_slugs(text: &str) -> BTreeSet<String> {
    prose_lines(text)
        .filter(|(_, line)| line.starts_with('#'))
        .map(|(_, line)| slug(line.trim_start_matches('#')))
        .collect()
}

/// Checks one link from `file`; pushes a description of each problem.
fn check_link(file: &Path, link: &Reference, problems: &mut Vec<String>) {
    let target = link.target.trim();
    let at = format!("{}:{}", file.display(), link.line);
    if target.is_empty() {
        problems.push(format!("{at}: empty link target"));
        return;
    }
    if target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
    {
        if target.contains(' ') {
            problems.push(format!("{at}: malformed external link `{target}`"));
        }
        return;
    }
    let (path_part, anchor) = match target.split_once('#') {
        Some((path, anchor)) => (path, Some(anchor)),
        None => (target, None),
    };
    let resolved = if path_part.is_empty() {
        file.to_path_buf()
    } else {
        file.parent().unwrap_or(Path::new(".")).join(path_part)
    };
    if !resolved.exists() {
        problems.push(format!(
            "{at}: target `{target}` does not exist ({})",
            resolved.display()
        ));
        return;
    }
    if let Some(anchor) = anchor {
        let Ok(text) = std::fs::read_to_string(&resolved) else {
            problems.push(format!("{at}: target `{target}` unreadable"));
            return;
        };
        if !heading_slugs(&text).contains(anchor) {
            problems.push(format!(
                "{at}: anchor `#{anchor}` not found in {}",
                resolved.display()
            ));
        }
    }
}

/// Checks one citation from `file`: the cited path must exist relative
/// to the citing file's directory or to the repository root.
fn check_citation(file: &Path, citation: &Reference, problems: &mut Vec<String>) {
    let beside = file
        .parent()
        .expect("a file has a parent")
        .join(&citation.target);
    if !beside.exists() && !root().join(&citation.target).exists() {
        problems.push(format!(
            "{}:{}: `{}` names no file beside the citing file or at the repository root",
            file.display(),
            citation.line,
            citation.target
        ));
    }
}

#[test]
fn every_link_and_cited_file_resolves() {
    let mut problems = Vec::new();
    let mut checked = 0usize;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|error| panic!("{}: unreadable: {error}", file.display()));
        for link in extract_links(&text) {
            checked += 1;
            check_link(&file, &link, &mut problems);
        }
        for citation in extract_citations(&text) {
            checked += 1;
            check_citation(&file, &citation, &mut problems);
        }
    }
    assert!(checked > 0, "no references found: the walk is broken");
    let checked_in_markdown = checked;
    for file in rust_files() {
        let source = std::fs::read_to_string(&file)
            .unwrap_or_else(|error| panic!("{}: unreadable: {error}", file.display()));
        for citation in extract_citations(&rustdoc_text(&source)) {
            checked += 1;
            check_citation(&file, &citation, &mut problems);
        }
    }
    assert!(checked > checked_in_markdown, "no rustdoc citation found");
    assert!(
        problems.is_empty(),
        "{} broken references:\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn extracts_links_and_skips_fences() {
    let text = "see [a](x.md) and [b](y.md#sec)\n```\n[not](code.md)\n```\n[c](z.md)";
    let links: Vec<String> = extract_links(text).into_iter().map(|l| l.target).collect();
    assert_eq!(links, ["x.md", "y.md#sec", "z.md"]);
}

#[test]
fn inline_code_spans_are_not_links() {
    let text = "folds into `[8](P − Q) = O` — see [real](x.md)";
    let links: Vec<String> = extract_links(text).into_iter().map(|l| l.target).collect();
    assert_eq!(links, ["x.md"]);
}

#[test]
fn rustdoc_lines_are_cited_from_and_code_is_not() {
    let source = "//! see `a.md`\nlet s = \"`b.md`\";\n    /// and `c.md`\n// not `d.md`";
    let cited: Vec<(usize, String)> = extract_citations(&rustdoc_text(source))
        .into_iter()
        .map(|c| (c.line, c.target))
        .collect();
    assert_eq!(cited, [(1, "a.md".to_owned()), (3, "c.md".to_owned())]);
}

#[test]
fn slugs_match_github_rules() {
    assert_eq!(slug("Build and test"), "build-and-test");
    assert_eq!(slug("What to watch"), "what-to-watch");
    assert_eq!(
        slug("Interpreter architecture: copy-on-write state sharing"),
        "interpreter-architecture-copy-on-write-state-sharing"
    );
}

#[test]
fn cited_files_are_backticked_md_names_outside_fences() {
    let text =
        "see `a.md`, `docs/b.md` and `cargo run > c.md`, not `d.rs`\n```\n`e.md`\n```\n`f.md`";
    let cited: Vec<String> = extract_citations(text)
        .into_iter()
        .map(|c| c.target)
        .collect();
    assert_eq!(cited, ["a.md", "docs/b.md", "f.md"]);
}
