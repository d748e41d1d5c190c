//! # simlint — source-level determinism lints for the Chimera workspace
//!
//! The engine's byte-identical three-mode contract is only as strong as the
//! conventions that keep shared-state code deterministic. Two real bug
//! classes have already slipped through review: iteration over a `HashMap`
//! leaked OS-randomized ordering into flush-wait polling (fixed in PR 4),
//! and `partial_cmp().unwrap()` on floats panicked on NaN (fixed in PR 9).
//! This crate turns those conventions into machine-checked rules: it
//! tokenizes the workspace's Rust sources with a small dependency-free
//! lexer (comments and string literals stripped, so the rules see only
//! code) and reports each violation with `file:line` provenance and a rule
//! id. The dynamic counterpart — the shard-race sanitizer in
//! `gpu_sim::race` — cross-validates the same contract at run time.
//!
//! See `LINTS.md` at the workspace root for the rule catalog, scopes and
//! suppression policy. The short version:
//!
//! | rule id            | requirement                                         |
//! |--------------------|-----------------------------------------------------|
//! | `hash-iter`        | no iteration over `HashMap`/`HashSet` (use `BTreeMap`/`BTreeSet` or sort first) |
//! | `float-partial-cmp`| no `partial_cmp` (use `total_cmp` on floats)        |
//! | `as-narrowing`     | no unchecked narrowing `as` casts in accounting code |
//! | `nondet-source`    | no `Instant::now`/`SystemTime::now`/`RandomState`/`std::thread` outside sanctioned modules |
//!
//! A diagnostic can be suppressed inline with a justified comment on the
//! same line or the line directly above:
//!
//! ```text
//! // simlint: allow(as-narrowing) -- bounded by issue_chunk <= u32::MAX
//! ```
//!
//! The justification after `--` is mandatory; a suppression without one is
//! itself a diagnostic (`bad-suppression`).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// A single lint finding with file:line provenance.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// File the finding is in (as given to the linter).
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (see [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Rule ids enforced by [`lint_source`].
pub const RULES: &[(&str, &str)] = &[
    (
        "hash-iter",
        "iteration over HashMap/HashSet has OS-randomized order; use BTreeMap/BTreeSet or sort keys first",
    ),
    (
        "float-partial-cmp",
        "partial_cmp on floats is a NaN panic or a silent misordering; use total_cmp",
    ),
    (
        "as-narrowing",
        "unchecked `as` narrowing casts silently truncate accounting values; use try_from or widen",
    ),
    (
        "nondet-source",
        "wall clocks, RandomState and ad-hoc threads are nondeterminism sources; keep them in sanctioned modules",
    ),
    (
        "bad-suppression",
        "a `simlint: allow(..)` suppression must name a known rule and carry a `-- justification`",
    ),
];

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// One token of blanked source: an identifier/number word or a single
/// punctuation character, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    line: usize,
    s: String,
}

/// Source split into lint-ready form: code with comments/literals blanked,
/// plus the comment text per line (for suppression parsing).
#[derive(Debug)]
struct Prepared {
    code_lines: Vec<String>,
    comment_lines: Vec<String>,
}

/// Strip comments, string/char literals and raw strings, preserving line
/// structure. Comments are collected separately so suppressions stay
/// visible. Nested block comments, escapes and `r#".."#` raw strings are
/// handled; this is a lexer, not a parser — it never needs to understand
/// the code, only to avoid false matches inside text.
fn prepare(source: &str) -> Prepared {
    let chars: Vec<char> = source.chars().collect();
    let mut code = String::with_capacity(source.len());
    let mut comment = String::with_capacity(64);
    let mut i = 0;
    let n = chars.len();
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    while i < n {
        let c = chars[i];
        // Line comment.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                comment.push(chars[i]);
                code.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    comment.push_str("*/");
                    code.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        comment.push('\n');
                        code.push('\n');
                    } else {
                        comment.push(chars[i]);
                        code.push(' ');
                    }
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..", r#".."#, br#".."# ...
        if (c == 'r' || c == 'b') && (i == 0 || !is_ident(chars[i - 1])) {
            let mut j = i;
            if chars[j] == 'b' && j + 1 < n && chars[j + 1] == 'r' {
                j += 1;
            }
            if chars[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while k < n && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < n && chars[k] == '"' {
                    // Blank from i through the closing quote + hashes.
                    let mut m = k + 1;
                    'raw: while m < n {
                        if chars[m] == '"' {
                            let mut h = 0usize;
                            while m + 1 + h < n && h < hashes && chars[m + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                m += 1 + hashes;
                                break 'raw;
                            }
                        }
                        m += 1;
                    }
                    for &ch in &chars[i..m.min(n)] {
                        comment.push(' ');
                        code.push(if ch == '\n' { '\n' } else { ' ' });
                    }
                    i = m;
                    continue;
                }
            }
        }
        // String literal (incl. b"..").
        if c == '"'
            || (c == 'b' && i + 1 < n && chars[i + 1] == '"' && (i == 0 || !is_ident(chars[i - 1])))
        {
            if c == 'b' {
                code.push(' ');
                comment.push(' ');
                i += 1;
            }
            code.push(' ');
            comment.push(' ');
            i += 1; // past opening quote
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                    continue;
                }
                if chars[i] == '"' {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                    break;
                }
                code.push(if chars[i] == '\n' { '\n' } else { ' ' });
                comment.push(if chars[i] == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            let is_char_lit = if i + 1 < n && chars[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && chars[i + 2] == '\'' && chars[i + 1] != '\''
            };
            if is_char_lit {
                code.push(' ');
                comment.push(' ');
                i += 1;
                while i < n {
                    if chars[i] == '\\' && i + 1 < n {
                        code.push_str("  ");
                        comment.push_str("  ");
                        i += 2;
                        continue;
                    }
                    if chars[i] == '\'' {
                        code.push(' ');
                        comment.push(' ');
                        i += 1;
                        break;
                    }
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
                continue;
            }
        }
        code.push(c);
        comment.push(if c == '\n' { '\n' } else { ' ' });
        i += 1;
    }
    Prepared {
        code_lines: code.lines().map(str::to_string).collect(),
        comment_lines: comment.lines().map(str::to_string).collect(),
    }
}

fn tokenize(code_lines: &[String]) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (ln, line) in code_lines.iter().enumerate() {
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_alphanumeric() || c == '_' {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    line: ln + 1,
                    s: chars[start..i].iter().collect(),
                });
            } else {
                toks.push(Tok {
                    line: ln + 1,
                    s: c.to_string(),
                });
                i += 1;
            }
        }
    }
    toks
}

/// Parsed inline suppressions: line → rules allowed on that line.
#[derive(Debug, Default)]
struct Suppressions {
    by_line: BTreeMap<usize, Vec<String>>,
    bad: Vec<(usize, String)>,
}

fn parse_suppressions(prep: &Prepared) -> Suppressions {
    let mut sup = Suppressions::default();
    for (ix, comment) in prep.comment_lines.iter().enumerate() {
        let line = ix + 1;
        let Some(pos) = comment.find("simlint:") else {
            continue;
        };
        let rest = comment[pos + "simlint:".len()..].trim_start();
        let Some(inner) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            sup.bad.push((
                line,
                "malformed suppression: expected `simlint: allow(rule) -- justification`"
                    .to_string(),
            ));
            continue;
        };
        let (rule, after) = inner;
        let rule = rule.trim();
        if !RULES.iter().any(|(id, _)| *id == rule) {
            sup.bad
                .push((line, format!("suppression names unknown rule `{rule}`")));
            continue;
        }
        let justified = after
            .trim_start()
            .strip_prefix("--")
            .is_some_and(|j| !j.trim().is_empty());
        if !justified {
            sup.bad.push((
                line,
                format!("suppression of `{rule}` lacks a `-- justification`"),
            ));
            continue;
        }
        // A suppression applies to its own line; when the comment stands
        // alone (no code on the line), it covers the next line instead.
        let code_blank = prep.code_lines.get(ix).is_none_or(|l| l.trim().is_empty());
        let target = if code_blank { line + 1 } else { line };
        sup.by_line
            .entry(target)
            .or_default()
            .push(rule.to_string());
    }
    sup
}

/// Which rules to run (all on by default; scoping happens at the file
/// level in [`lint_tree`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// Run `hash-iter`.
    pub hash_iter: bool,
    /// Run `float-partial-cmp`.
    pub float_partial_cmp: bool,
    /// Run `as-narrowing`.
    pub as_narrowing: bool,
    /// Run `nondet-source`.
    pub nondet_source: bool,
}

impl RuleSet {
    /// Every rule enabled.
    pub const ALL: RuleSet = RuleSet {
        hash_iter: true,
        float_partial_cmp: true,
        as_narrowing: true,
        nondet_source: true,
    };
}

/// Identifiers declared (or bound) as `HashMap`/`HashSet` in this token
/// stream: the receiver set for `hash-iter`.
fn hash_bound_idents(toks: &[Tok]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    let is_kw = |s: &str| {
        matches!(
            s,
            "let" | "mut" | "pub" | "ref" | "use" | "crate" | "self" | "super" | "std"
        )
    };
    for (i, t) in toks.iter().enumerate() {
        if t.s != "HashMap" && t.s != "HashSet" {
            continue;
        }
        // Walk left over a path qualifier (`std::collections::`), then over
        // the declaration punctuation (`:` for a type ascription, `=` for a
        // binding), and take the identifier being declared.
        let mut j = i;
        while j >= 3 && toks[j - 1].s == ":" && toks[j - 2].s == ":" {
            j -= 3; // skip `ident ::`
        }
        if j == 0 {
            continue;
        }
        let mut k = j - 1;
        if toks[k].s == "&" && k > 0 {
            k -= 1;
        }
        if toks[k].s != ":" && toks[k].s != "=" {
            continue;
        }
        if k == 0 {
            continue;
        }
        let mut m = k - 1;
        while m > 0 && (toks[m].s == "mut" || toks[m].s == "&") {
            m -= 1;
        }
        let name = &toks[m].s;
        if !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
            && !is_kw(name)
        {
            bound.insert(name.clone());
        }
    }
    bound
}

/// Run every enabled rule over one source file. `path` is used only for
/// provenance.
pub fn lint_source(path: &Path, source: &str, rules: RuleSet) -> Vec<Diagnostic> {
    let prep = prepare(source);
    let sup = parse_suppressions(&prep);
    let toks = tokenize(&prep.code_lines);
    let mut diags = Vec::new();
    for (line, msg) in &sup.bad {
        diags.push(Diagnostic {
            path: path.to_path_buf(),
            line: *line,
            rule: "bad-suppression",
            message: msg.clone(),
        });
    }
    let mut push = |line: usize, rule: &'static str, message: String| {
        let suppressed = sup
            .by_line
            .get(&line)
            .is_some_and(|rs| rs.iter().any(|r| r == rule));
        if !suppressed {
            diags.push(Diagnostic {
                path: path.to_path_buf(),
                line,
                rule,
                message,
            });
        }
    };

    if rules.hash_iter {
        let bound = hash_bound_idents(&toks);
        for i in 0..toks.len() {
            // `map.iter()` / `map.keys()` / ... on a hash-bound receiver.
            if toks[i].s == "."
                && i > 0
                && i + 1 < toks.len()
                && ITER_METHODS.contains(&toks[i + 1].s.as_str())
                && bound.contains(&toks[i - 1].s)
            {
                push(
                    toks[i + 1].line,
                    "hash-iter",
                    format!(
                        "iteration over hash-ordered `{}` (.{}()) is nondeterministic; \
                         use BTreeMap/BTreeSet or collect-and-sort",
                        toks[i - 1].s,
                        toks[i + 1].s
                    ),
                );
            }
            // `for x in map` / `for x in &map` (without an explicit method).
            if toks[i].s == "in" && i + 1 < toks.len() {
                let mut j = i + 1;
                while j < toks.len() && (toks[j].s == "&" || toks[j].s == "mut") {
                    j += 1;
                }
                if j < toks.len()
                    && bound.contains(&toks[j].s)
                    && toks.get(j + 1).is_none_or(|t| t.s != ".")
                {
                    push(
                        toks[j].line,
                        "hash-iter",
                        format!(
                            "`for .. in {}` iterates a hash-ordered container \
                             nondeterministically; use BTreeMap/BTreeSet or collect-and-sort",
                            toks[j].s
                        ),
                    );
                }
            }
        }
    }

    if rules.float_partial_cmp {
        for i in 1..toks.len() {
            if toks[i].s == "partial_cmp" && toks[i - 1].s == "." {
                push(
                    toks[i].line,
                    "float-partial-cmp",
                    "partial_cmp returns None on NaN (panic or silent misorder); \
                     use total_cmp for floats"
                        .to_string(),
                );
            }
        }
    }

    if rules.as_narrowing {
        for i in 0..toks.len().saturating_sub(1) {
            if toks[i].s == "as" && NARROW_TARGETS.contains(&toks[i + 1].s.as_str()) {
                push(
                    toks[i + 1].line,
                    "as-narrowing",
                    format!(
                        "unchecked narrowing cast `as {}` silently truncates; \
                         use try_from/From or a justified suppression",
                        toks[i + 1].s
                    ),
                );
            }
        }
    }

    if rules.nondet_source {
        let path_is = |i: usize, head: &str, tail: &str| {
            toks[i].s == head
                && toks.get(i + 1).is_some_and(|t| t.s == ":")
                && toks.get(i + 2).is_some_and(|t| t.s == ":")
                && toks.get(i + 3).is_some_and(|t| t.s == tail)
        };
        for i in 0..toks.len() {
            if path_is(i, "Instant", "now") || path_is(i, "SystemTime", "now") {
                push(
                    toks[i].line,
                    "nondet-source",
                    format!(
                        "`{}::now` reads the wall clock; simulation state must be a pure \
                         function of the seed",
                        toks[i].s
                    ),
                );
            }
            if toks[i].s == "RandomState" {
                push(
                    toks[i].line,
                    "nondet-source",
                    "`RandomState` is OS-seeded; use a fixed-seed hasher or ordered container"
                        .to_string(),
                );
            }
            if toks[i].s == "thread" {
                let from_std = i >= 3
                    && toks[i - 1].s == ":"
                    && toks[i - 2].s == ":"
                    && toks[i - 3].s == "std";
                let spawns = ["spawn", "scope", "Builder", "sleep"]
                    .iter()
                    .any(|m| path_is(i, "thread", m));
                if from_std || spawns {
                    push(
                        toks[i].line,
                        "nondet-source",
                        "ad-hoc threading outside the sanctioned parallel/pool modules can \
                         leak scheduling order into results"
                            .to_string(),
                    );
                }
            }
        }
    }

    diags.sort();
    diags
}

/// A lint scope: which directories each rule covers and which files are
/// allowlisted (with a recorded reason).
#[derive(Debug, Clone)]
pub struct Scope {
    /// Directories (relative to the lint root) covered by `hash-iter` and
    /// `as-narrowing` — the engine-mutating/accounting code.
    pub strict_roots: Vec<PathBuf>,
    /// Directories covered by `float-partial-cmp` and `nondet-source`.
    pub wide_roots: Vec<PathBuf>,
    /// `(file, reason)` pairs exempt from `nondet-source`: the sanctioned
    /// parallel/pool/progress modules.
    pub nondet_allow: Vec<(PathBuf, String)>,
}

impl Scope {
    /// The workspace scope (see `LINTS.md`): strict rules over the engine
    /// and policy crates, wide rules over every non-vendored crate, with
    /// the sanctioned threading/wall-clock modules allowlisted. The
    /// vendored `proptest` shim is out of scope entirely — it emulates an
    /// upstream API (including its nondeterminism) — and so is
    /// `crates/bench/benches`, whose timing harness reads the wall clock.
    pub fn workspace() -> Scope {
        let strict = ["crates/gpu-sim/src", "crates/core/src"];
        let wide = [
            "crates/gpu-sim/src",
            "crates/core/src",
            "crates/workloads/src",
            "crates/idem/src",
            "crates/bench/src",
            "crates/simlint/src",
        ];
        Scope {
            strict_roots: strict.iter().map(PathBuf::from).collect(),
            wide_roots: wide.iter().map(PathBuf::from).collect(),
            nondet_allow: vec![
                (
                    PathBuf::from("crates/gpu-sim/src/engine.rs"),
                    "sanctioned parallel module: scoped Phase-A shard workers, \
                     determinism pinned by tests/engine_equivalence.rs and the race sanitizer"
                        .to_string(),
                ),
                (
                    PathBuf::from("crates/bench/src/pool.rs"),
                    "sanctioned work-stealing pool: output merged in deterministic \
                     cell order regardless of worker scheduling"
                        .to_string(),
                ),
                (
                    PathBuf::from("crates/bench/src/progress.rs"),
                    "wall-clock progress display only; never feeds simulation state".to_string(),
                ),
            ],
        }
    }

    /// Everything under the root, every rule, no allowlist (fixture mode).
    pub fn everything() -> Scope {
        Scope {
            strict_roots: vec![PathBuf::from("")],
            wide_roots: vec![PathBuf::from("")],
            nondet_allow: Vec::new(),
        }
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn under(rel: &Path, roots: &[PathBuf]) -> bool {
    roots
        .iter()
        .any(|r| r.as_os_str().is_empty() || rel.starts_with(r))
}

/// Lint the tree under `root` with the given scope. Paths in diagnostics
/// are relative to `root`.
pub fn lint_tree(root: &Path, scope: &Scope) -> std::io::Result<Vec<Diagnostic>> {
    let mut roots: Vec<PathBuf> = scope
        .strict_roots
        .iter()
        .chain(scope.wide_roots.iter())
        .cloned()
        .collect();
    roots.sort();
    roots.dedup();
    let mut files = Vec::new();
    for r in &roots {
        let abs = root.join(r);
        if abs.is_file() {
            files.push(abs);
        } else {
            walk_rs(&abs, &mut files);
        }
    }
    files.sort();
    files.dedup();
    let mut diags = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let rules = RuleSet {
            hash_iter: under(&rel, &scope.strict_roots),
            as_narrowing: under(&rel, &scope.strict_roots),
            float_partial_cmp: under(&rel, &scope.wide_roots),
            nondet_source: under(&rel, &scope.wide_roots)
                && !scope.nondet_allow.iter().any(|(p, _)| *p == rel),
        };
        let source = std::fs::read_to_string(&file)?;
        diags.extend(lint_source(&rel, &source, rules));
    }
    diags.sort();
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source(Path::new("test.rs"), src, RuleSet::ALL)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_code_produces_no_diagnostics() {
        let src = r#"
            use std::collections::BTreeMap;
            fn f(m: &BTreeMap<u32, u64>) -> u64 {
                let mut total = 0u64;
                for (_k, v) in m.iter() {
                    total += *v;
                }
                total
            }
        "#;
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn hashmap_iteration_is_flagged_with_provenance() {
        // The PR 4 bug pattern: polling a HashMap in iteration order.
        let src = "use std::collections::HashMap;\n\
                   fn poll(flush_wait: &HashMap<usize, u64>) {\n\
                       for (sm, t) in flush_wait.iter() {\n\
                           let _ = (sm, t);\n\
                       }\n\
                   }\n";
        let diags = lint(src);
        assert_eq!(rules_of(&diags), vec!["hash-iter"]);
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[0].path, PathBuf::from("test.rs"));
    }

    #[test]
    fn for_in_hashset_is_flagged() {
        let src = "use std::collections::HashSet;\n\
                   fn f() {\n\
                       let seen: HashSet<u32> = HashSet::new();\n\
                       for x in &seen { let _ = x; }\n\
                   }\n";
        assert_eq!(rules_of(&lint(src)), vec!["hash-iter"]);
    }

    #[test]
    fn keyed_hashmap_access_is_not_iteration() {
        let src = "use std::collections::HashMap;\n\
                   fn f(m: &mut HashMap<u32, u64>) {\n\
                       m.insert(1, 2);\n\
                       let _ = m.get(&1);\n\
                       let _ = m.len();\n\
                   }\n";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn partial_cmp_is_flagged() {
        // The PR 9 bug pattern.
        let src = "fn sort(xs: &mut Vec<f64>) {\n\
                       xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());\n\
                   }\n";
        let diags = lint(src);
        assert_eq!(rules_of(&diags), vec!["float-partial-cmp"]);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn total_cmp_is_fine() {
        let src = "fn sort(xs: &mut Vec<f64>) {\n\
                       xs.sort_unstable_by(|a, b| a.total_cmp(b));\n\
                   }\n";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn narrowing_casts_are_flagged_but_widening_is_not() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n\
                   fn g(x: u32) -> u64 { x as u64 }\n\
                   fn h(x: u32) -> usize { x as usize }\n";
        let diags = lint(src);
        assert_eq!(rules_of(&diags), vec!["as-narrowing"]);
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn nondet_sources_are_flagged() {
        let src = "fn f() {\n\
                       let _t = std::time::Instant::now();\n\
                       std::thread::spawn(|| {});\n\
                   }\n";
        let diags = lint(src);
        assert!(diags.iter().all(|d| d.rule == "nondet-source"), "{diags:?}");
        // One diagnostic per offending token: Instant::now, then the single
        // `thread` token of `std::thread::spawn`.
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!((diags[0].line, diags[1].line), (2, 3));
    }

    #[test]
    fn matches_inside_strings_and_comments_are_ignored() {
        let src = "fn f() -> &'static str {\n\
                       // HashMap iter() and a.partial_cmp(b) in a comment\n\
                       /* x as u32 */\n\
                       \"Instant::now x as u32 RandomState\"\n\
                   }\n";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn raw_strings_and_char_literals_are_ignored() {
        let src = "fn f() {\n\
                       let _a = r#\"x as u32 Instant::now\"#;\n\
                       let _b = '\\n';\n\
                       let _c: &'static [u8] = b\"as u8\";\n\
                   }\n";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn justified_suppression_silences_same_line_and_next_line() {
        let src = "fn f(x: u64) -> u32 { x as u32 } // simlint: allow(as-narrowing) -- bounded by caller\n\
                   // simlint: allow(as-narrowing) -- bounded by grid size\n\
                   fn g(x: u64) -> u16 { x as u16 }\n";
        assert_eq!(lint(src), vec![]);
    }

    #[test]
    fn unjustified_suppression_is_itself_a_diagnostic() {
        let src = "// simlint: allow(as-narrowing)\n\
                   fn g(x: u64) -> u16 { x as u16 }\n";
        let diags = lint(src);
        // Sorted by line: the bad suppression comment (line 1) precedes the
        // cast it failed to silence (line 2).
        assert_eq!(rules_of(&diags), vec!["bad-suppression", "as-narrowing"]);
    }

    #[test]
    fn unknown_rule_suppression_is_a_diagnostic() {
        let src = "// simlint: allow(no-such-rule) -- whatever\nfn f() {}\n";
        assert_eq!(rules_of(&lint(src)), vec!["bad-suppression"]);
    }

    #[test]
    fn suppression_only_covers_its_rule() {
        let src = "// simlint: allow(hash-iter) -- wrong rule\n\
                   fn g(x: u64) -> u16 { x as u16 }\n";
        assert_eq!(rules_of(&lint(src)), vec!["as-narrowing"]);
    }

    #[test]
    fn fixtures_reproduce_the_known_bug_patterns() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        let diags = lint_tree(&root, &Scope::everything()).expect("fixtures readable");
        let has = |rule: &str, file: &str| {
            diags
                .iter()
                .any(|d| d.rule == rule && d.path.to_string_lossy().contains(file))
        };
        assert!(has("hash-iter", "pr4_hash_iteration"), "{diags:#?}");
        assert!(has("float-partial-cmp", "pr9_partial_cmp"), "{diags:#?}");
        assert!(has("as-narrowing", "narrowing_cast"), "{diags:#?}");
        assert!(has("nondet-source", "nondet"), "{diags:#?}");
        assert!(diags.iter().all(|d| d.line > 0));
    }

    #[test]
    fn the_workspace_lints_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let diags = lint_tree(root, &Scope::workspace()).expect("workspace readable");
        assert!(
            diags.is_empty(),
            "workspace must lint clean:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
