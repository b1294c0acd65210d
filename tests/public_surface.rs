//! Every public item has a product reader or a written reason, and every
//! manifest dependency is named by its package.
//!
//! `rustc`'s `dead_code` lint never flags a `pub` item of a library crate, so
//! this test does the job for the workspace. It lists every public item
//! declared in the *product lines* of `crates/*/src` that no product line
//! reads, and compares that list with `tests/public_surface.allow`, where
//! each line names one item and gives one reason for keeping it:
//!
//! ```text
//! polymer_graph::EdgeList::from_pairs  benchmark: benchmark/src/probes.rs
//! ```
//!
//! The reasons are `benchmark: <file>` (the benchmark links it),
//! `test-probe: <test file>` (a test reads it and no product API gives the
//! same view), `input-validation` (a public loader or validator for outside
//! input), `paper: <table/figure>` (a paper artefact kept on purpose) and
//! `other: <one sentence>`. The file a `benchmark:` or `test-probe:` reason
//! names must mention the item outside product lines. The test fails on an
//! unread item with no line, on a listed item that has gained a product
//! reader, on a listed item that no longer exists and on a line with no
//! reason.
//!
//! *Product lines* are the lines of a `.rs` file under `crates/*/src`, `src/`
//! or `examples/` above the file's first `#[cfg(test)]`. Comments, string
//! contents and `pub use` (or `pub(crate) use`) statements are not reads;
//! neither is anything under `tests/` or `benchmark/`. A read through a
//! `use .. as` rename or a `type` alias counts as a read of the original.
//!
//! *Items* are `pub` `fn`, `struct`, `enum`, `union`, `trait`, `type`,
//! `const` and `static`, including the `fn`s and `const`s of inherent `impl`
//! blocks. A re-exported item is found where it is declared. Out of scope:
//! `pub(crate)` and other restricted items (`rustc` already flags those),
//! struct fields, enum variants and trait methods — and, in effect, any
//! `pub` method whose name another type's method shares: a read of a method
//! is `.name(` on any receiver (the test resolves no types), so
//! `Type::name` counts as read whenever some other `name` is. Unread
//! `OverlayTopo::epoch` and `OverlayTopo::generation` once hid this way,
//! and `new`, `len` and `is_empty` are declared on 10 to 36 types each.
//!
//! *A read* of a method or associated const `Type::name` is `.name(`,
//! `.name::<`, `Type::name` or, inside an `impl` of `Type`, `Self::name`. A
//! read of any other item is its name as a word not preceded by `.`. Both
//! count only outside the item's own declaration; a type's own `impl` blocks
//! do not read the type.
//!
//! The second check reads every workspace manifest: each `[dependencies]`,
//! `[dev-dependencies]` and `[build-dependencies]` entry must be named (with
//! `-` read as `_`) in code of its package's `src`, `tests`, `benches` or
//! `examples`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::Path;

/// A source file, by its path relative to the repository root.
struct Source {
    path: String,
    text: String,
}

fn source(path: &str, text: &str) -> Source {
    Source {
        path: path.to_string(),
        text: text.to_string(),
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// `text` with comments removed and string and char literals emptied, one
/// entry per line of `text`.
fn code_lines(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let n = chars.len();
    let at = |j: usize| chars.get(j).copied().unwrap_or('\0');
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < n {
        let c = chars[i];
        // `r"…"`, `r#"…"#`, `br"…"`: where the hashes start and the quote is.
        let raw = (c == 'r' || (c == 'b' && at(i + 1) == 'r'))
            .then(|| i + if c == 'b' { 2 } else { 1 })
            .filter(|_| i == 0 || !is_ident(chars[i - 1]))
            .map(|hashes| (hashes, (hashes..).find(|&j| at(j) != '#').unwrap_or(n)))
            .filter(|&(_, quote)| at(quote) == '"');
        if c == '/' && at(i + 1) == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < n {
                if chars[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if chars[i] == '\n' {
                        out.push('\n');
                    }
                    i += 1;
                }
            }
        } else if let Some((first_hash, quote)) = raw {
            let hashes = quote - first_hash;
            let mut j = quote + 1;
            while j < n {
                if chars[j] == '"' && (1..=hashes).all(|k| at(j + k) == '#') {
                    j += 1 + hashes;
                    break;
                }
                if chars[j] == '\n' {
                    out.push('\n');
                }
                j += 1;
            }
            out.push_str("\"\"");
            i = j;
        } else if c == '"' {
            let mut j = i + 1;
            while j < n {
                match chars[j] {
                    '\\' => {
                        if at(j + 1) == '\n' {
                            out.push('\n');
                        }
                        j += 2;
                    }
                    '"' => {
                        j += 1;
                        break;
                    }
                    '\n' => {
                        out.push('\n');
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            out.push_str("\"\"");
            i = j;
        } else if c == '\'' && at(i + 1) == '\\' {
            let mut j = i + 3;
            while j < n && chars[j] != '\'' {
                j += 1;
            }
            out.push_str("' '");
            i = j + 1;
        } else if c == '\'' && at(i + 2) == '\'' {
            out.push_str("' '");
            i += 3;
        } else {
            out.push(c);
            i += 1;
        }
    }
    out.split('\n').map(str::to_string).collect()
}

/// The number of product lines: those above the first `#[cfg(test)]`.
fn product_len(code: &[String]) -> usize {
    code.iter()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(code.len())
}

/// The line (exclusive) on which the construct starting at `start` ends: at
/// its first top-level `;`, or at the `}` that closes its first top-level
/// `{`.
fn span_end(code: &[String], start: usize) -> usize {
    let (mut braces, mut parens) = (0i32, 0i32);
    for (i, line) in code.iter().enumerate().skip(start) {
        for c in line.chars() {
            match c {
                '{' => braces += 1,
                '}' => {
                    braces -= 1;
                    if braces == 0 && parens == 0 {
                        return i + 1;
                    }
                }
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                ';' if braces == 0 && parens == 0 => return i + 1,
                _ => {}
            }
        }
    }
    code.len()
}

/// The self type and whether it is a trait impl, from an `impl` header.
fn impl_self_type(header: &str) -> (String, bool) {
    let rest = header.trim_start();
    let rest = rest.strip_prefix("unsafe").unwrap_or(rest).trim_start();
    let rest = rest.strip_prefix("impl").unwrap_or(rest);
    let chars: Vec<char> = rest.chars().collect();
    // Skip the impl's own generics, then find a top-level ` for `.
    let mut i = 0;
    let mut depth = 0;
    let mut body = String::new();
    while i < chars.len() {
        let c = chars[i];
        if c == '-' && chars.get(i + 1) == Some(&'>') {
            body.push_str("->");
            i += 2;
            continue;
        }
        match c {
            '<' => depth += 1,
            '>' => depth -= 1,
            _ => {}
        }
        body.push(if depth > 0 || c == '>' { ' ' } else { c });
        i += 1;
    }
    let body = body.split('{').next().unwrap_or("");
    let words: Vec<&str> = body.split_whitespace().collect();
    let (is_trait, ty) = match words.iter().position(|w| *w == "for") {
        Some(k) => (true, words.get(k + 1).copied().unwrap_or("")),
        None => (
            false,
            words
                .iter()
                .copied()
                .find(|w| !matches!(*w, "dyn" | "mut" | "&" | "&mut"))
                .unwrap_or(""),
        ),
    };
    let ty = ty.trim_start_matches('&').trim_start_matches("dyn");
    let last = ty.rsplit("::").next().unwrap_or("");
    let name: String = last.chars().take_while(|&c| is_ident(c)).collect();
    (name, is_trait)
}

/// A declared public item.
#[derive(Clone, Debug)]
struct Item {
    /// `<crate dir>::[Type::]name`, the allowlist's key.
    key: String,
    name: String,
    /// For a method or associated const: its inherent `impl`'s type.
    owner: Option<String>,
    /// The declaring file: its index among the product files, and its path.
    file: usize,
    path: String,
    /// Lines `[start, end)` of its own declaration.
    span: (usize, usize),
}

/// The product part of one file.
struct FileScan {
    /// The directory name of the declaring crate, for `crates/*/src` files.
    krate: Option<String>,
    code: Vec<String>,
    /// Lines of a `pub use` statement.
    reexport: Vec<bool>,
    /// The self type of the innermost `impl` block around each line, and
    /// whether that block implements a trait.
    impl_of: Vec<Option<(String, bool)>>,
    /// `use .. Original as Alias` and `type Alias = Original<..>`: alias →
    /// original.
    aliases: HashMap<String, String>,
}

fn is_product(path: &str) -> bool {
    path.starts_with("src/") || path.starts_with("examples/") || crate_of(path).is_some()
}

/// `crates/<dir>/src/..` → `<dir>`.
fn crate_of(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/")?;
    let (dir, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then(|| dir.to_string())
}

fn scan_file(path: &str, text: &str) -> FileScan {
    let mut code = code_lines(text);
    code.truncate(product_len(&code));
    let n = code.len();
    let mut reexport = vec![false; n];
    let mut impl_of = vec![None; n];
    let mut aliases = HashMap::new();
    for i in 0..n {
        let t = code[i].trim_start();
        let public = t.starts_with("pub use ") || (t.starts_with("pub(") && t.contains(") use "));
        if public || t.starts_with("use ") {
            let end = span_end(&code, i);
            reexport[i..end].iter_mut().for_each(|r| *r |= public);
            let words: Vec<&str> = code[i..end]
                .iter()
                .flat_map(|l| l.split(|c: char| !is_ident(c)))
                .filter(|w| !w.is_empty())
                .collect();
            for w in words.windows(3).filter(|w| w[1] == "as") {
                aliases.insert(w[2].to_string(), w[0].to_string());
            }
        }
        let unscoped = t.strip_prefix("pub ").unwrap_or(t);
        let unscoped = match unscoped.strip_prefix("pub(") {
            Some(r) => r.split_once(") ").map_or(unscoped, |(_, r)| r),
            None => unscoped,
        };
        if let Some((alias, original)) = unscoped
            .strip_prefix("type ")
            .and_then(|def| def.split_once(" = "))
        {
            let alias: String = alias.chars().take_while(|&c| is_ident(c)).collect();
            let original = original.split('<').next().unwrap_or("");
            let original = original
                .rsplit("::")
                .next()
                .unwrap_or("")
                .trim_end_matches(';');
            if !alias.is_empty() && original.chars().all(is_ident) {
                aliases.insert(alias, original.to_string());
            }
        }
        if t.starts_with("impl<") || t.starts_with("impl ") || t.starts_with("unsafe impl") {
            let end = span_end(&code, i);
            let header = code[i..end].join(" ");
            let owner = impl_self_type(&header);
            impl_of[i..end]
                .iter_mut()
                .for_each(|o| *o = Some(owner.clone()));
        }
    }
    FileScan {
        krate: crate_of(path),
        code,
        reexport,
        impl_of,
        aliases,
    }
}

/// `pub [const|unsafe|async|extern] <kind> <name>` → (kind, name).
fn item_head(line: &str) -> Option<(&'static str, String)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for q in ["const ", "unsafe ", "async ", "extern \"\" ", "extern "] {
        let r = rest.trim_start();
        if let Some(after) = r.strip_prefix(q) {
            // `pub const NAME` is an item; `pub const fn` is a qualifier.
            if q != "const " || !after.trim_start().starts_with(|c: char| c.is_uppercase()) {
                rest = after;
            }
        }
    }
    let rest = rest.trim_start();
    [
        "fn", "struct", "enum", "union", "trait", "type", "const", "static",
    ]
    .into_iter()
    .find_map(|kind| {
        let r = rest.strip_prefix(kind)?.strip_prefix(' ')?.trim_start();
        let r = r.strip_prefix("mut ").unwrap_or(r);
        let name: String = r.chars().take_while(|&c| is_ident(c)).collect();
        (!name.is_empty()).then_some((kind, name))
    })
}

fn items_of(scan: &FileScan, file: usize, path: &str) -> Vec<Item> {
    let Some(krate) = &scan.krate else {
        return Vec::new();
    };
    let mut items = Vec::new();
    for (i, line) in scan.code.iter().enumerate() {
        let Some((_, name)) = item_head(line) else {
            continue;
        };
        let owner = match &scan.impl_of[i] {
            Some((ty, false)) => Some(ty.clone()),
            _ => None,
        };
        let key = match &owner {
            Some(ty) => format!("{krate}::{ty}::{name}"),
            None => format!("{krate}::{name}"),
        };
        let span = (i, span_end(&scan.code, i));
        items.push(Item {
            key,
            name,
            owner,
            file,
            path: path.to_string(),
            span,
        });
    }
    items
}

type At = (usize, usize);

/// Where each name is read, over every product line.
#[derive(Default)]
struct Reads {
    /// Words not preceded by `.`.
    word: HashMap<String, Vec<At>>,
    /// `.name(` and `.name::`.
    dot: HashMap<String, Vec<At>>,
    /// `Qual::name`, with `Self` read as the line's `impl` type.
    path: HashMap<(String, String), Vec<At>>,
}

fn reads_of(scans: &[FileScan]) -> Reads {
    let mut reads = Reads::default();
    let aliases: HashMap<&String, &String> = scans.iter().flat_map(|s| &s.aliases).collect();
    for (f, scan) in scans.iter().enumerate() {
        for (l, line) in scan.code.iter().enumerate() {
            if scan.reexport[l] {
                continue;
            }
            let chars: Vec<char> = line.chars().collect();
            let at = |j: usize| chars.get(j).copied().unwrap_or(' ');
            let mut prev: Option<String> = None;
            let mut i = 0;
            while i < chars.len() {
                if !is_ident(chars[i]) || (i > 0 && is_ident(chars[i - 1])) {
                    i += 1;
                    continue;
                }
                let start = i;
                while i < chars.len() && is_ident(chars[i]) {
                    i += 1;
                }
                let word: String = chars[start..i].iter().collect();
                let dotted =
                    start > 0 && at(start - 1) == '.' && (start < 2 || at(start - 2) != '.');
                let pathed = start >= 2 && at(start - 1) == ':' && at(start - 2) == ':';
                if dotted {
                    if at(i) == '(' || (at(i) == ':' && at(i + 1) == ':') {
                        reads.dot.entry(word.clone()).or_default().push((f, l));
                    }
                } else {
                    reads.word.entry(word.clone()).or_default().push((f, l));
                }
                if pathed {
                    if let Some(mut qual) = prev.clone() {
                        if qual == "Self" {
                            if let Some((ty, _)) = &scan.impl_of[l] {
                                qual = ty.clone();
                            }
                        } else if let Some(original) = aliases.get(&qual) {
                            let key = ((*original).clone(), word.clone());
                            reads.path.entry(key).or_default().push((f, l));
                        }
                        reads
                            .path
                            .entry((qual, word.clone()))
                            .or_default()
                            .push((f, l));
                    }
                }
                prev = Some(word);
            }
        }
    }
    reads
}

/// Whether a product line outside `item`'s own declaration reads it.
fn is_read(item: &Item, scans: &[FileScan], reads: &Reads) -> bool {
    let krate = &scans[item.file].krate;
    let elsewhere = |&(f, l): &At| {
        let own = f == item.file && (item.span.0..item.span.1).contains(&l);
        let own_impl = item.owner.is_none()
            && &scans[f].krate == krate
            && matches!(&scans[f].impl_of[l], Some((ty, _)) if *ty == item.name);
        !own && !own_impl
    };
    let none = Vec::new();
    match &item.owner {
        Some(ty) => {
            let dot = reads.dot.get(&item.name).unwrap_or(&none);
            let path = reads
                .path
                .get(&(ty.clone(), item.name.clone()))
                .unwrap_or(&none);
            dot.iter().chain(path).any(elsewhere)
        }
        None => reads
            .word
            .get(&item.name)
            .unwrap_or(&none)
            .iter()
            .any(elsewhere),
    }
}

/// Every item declared in `files`' product lines, and those with no product
/// reader, by key.
fn surface(files: &[Source]) -> (Vec<Item>, BTreeMap<String, Item>) {
    let product: Vec<&Source> = files.iter().filter(|s| is_product(&s.path)).collect();
    let scans: Vec<FileScan> = product
        .iter()
        .map(|s| scan_file(&s.path, &s.text))
        .collect();
    let items: Vec<Item> = scans
        .iter()
        .enumerate()
        .flat_map(|(f, scan)| items_of(scan, f, &product[f].path))
        .collect();
    let reads = reads_of(&scans);
    let unread = items
        .iter()
        .filter(|item| !is_read(item, &scans, &reads))
        .map(|item| (item.key.clone(), item.clone()))
        .collect();
    (items, unread)
}

const REASONS: [&str; 5] = [
    "benchmark:",
    "test-probe:",
    "input-validation",
    "paper:",
    "other:",
];

/// Does `file` name `name` as a word outside its product lines?
fn names_outside_product(file: &Source, name: &str) -> bool {
    let code = code_lines(&file.text);
    let from = if is_product(&file.path) {
        product_len(&code)
    } else {
        0
    };
    code[from..].iter().any(|line| {
        line.match_indices(name).any(|(i, _)| {
            let before = line[..i].chars().next_back();
            let after = line[i + name.len()..].chars().next();
            !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
        })
    })
}

/// Compares the unread items with the allowlist; returns every mismatch.
fn check_allowlist(files: &[Source], allow: &str) -> Vec<String> {
    let (items, unread) = surface(files);
    let declared: BTreeMap<&str, &Item> = items.iter().map(|i| (i.key.as_str(), i)).collect();
    let mut errors = Vec::new();
    let mut listed = BTreeSet::new();
    for (n, raw) in allow.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = format!("public_surface.allow:{}", n + 1);
        let (key, reason) = match line.split_once(char::is_whitespace) {
            Some((k, r)) => (k, r.trim()),
            None => (line, ""),
        };
        if !listed.insert(key.to_string()) {
            errors.push(format!("{at}: `{key}` is listed twice"));
        }
        let kind = REASONS.into_iter().find(|k| reason.starts_with(k));
        let detail = kind.map_or("", |k| reason[k.len()..].trim());
        match kind {
            None => errors.push(format!(
                "{at}: `{key}` has no reason; give one of {}",
                REASONS.join(" ")
            )),
            Some("input-validation") if !detail.is_empty() => {
                errors.push(format!("{at}: `input-validation` takes no detail"))
            }
            Some(k) if k != "input-validation" && detail.is_empty() => {
                errors.push(format!("{at}: `{k}` needs a detail"))
            }
            _ => {}
        }
        let Some(item) = declared.get(key) else {
            errors.push(format!(
                "{at}: `{key}` is not a declared public item; delete the line"
            ));
            continue;
        };
        if !unread.contains_key(key) {
            errors.push(format!(
                "{at}: `{key}` has a product reader now; delete the line"
            ));
        }
        if let Some(k @ ("benchmark:" | "test-probe:")) = kind.filter(|_| !detail.is_empty()) {
            match files.iter().find(|s| s.path == detail) {
                Some(file) if names_outside_product(file, &item.name) => {}
                _ => errors.push(format!(
                    "{at}: `{k} {detail}` does not name `{}` outside product lines",
                    item.name
                )),
            }
        }
    }
    for (key, item) in &unread {
        if !listed.contains(key.as_str()) {
            errors.push(format!(
                "{}:{}: `{key}` has no product reader: delete it, or list it with a reason",
                item.path,
                item.span.0 + 1
            ));
        }
    }
    errors
}

/// The dependencies a manifest declares that no file of `sources` names.
fn unused_deps(manifest: &str, sources: &[Source]) -> Vec<String> {
    let named: BTreeSet<String> = sources
        .iter()
        .flat_map(|s| code_lines(&s.text))
        .flat_map(|line| {
            line.split(|c: char| !is_ident(c))
                .filter(|w| !w.is_empty())
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect();
    let mut section = "";
    let mut unused = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        if !matches!(
            section,
            "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
        ) || line.is_empty()
            || line.starts_with('#')
        {
            continue;
        }
        let dep = line
            .split(|c: char| c == '=' || c == '.' || c.is_whitespace())
            .next()
            .unwrap_or("");
        if !named.contains(&dep.replace('-', "_")) {
            unused.push(format!("{section} {dep}"));
        }
    }
    unused
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `rel`, recursively, in path order.
fn rs_files(rel: &str, out: &mut Vec<Source>) {
    let Ok(entries) = fs::read_dir(repo().join(rel)) else {
        return;
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        let path = format!("{rel}/{name}");
        let full = repo().join(&path);
        if full.is_dir() {
            rs_files(&path, out);
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&full).expect("read source");
            out.push(Source { path, text });
        }
    }
}

/// The workspace's package directories: the root and each of `crates/*`.
fn packages() -> Vec<String> {
    let mut dirs: Vec<String> = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| format!("crates/{}", e.file_name().to_string_lossy()))
        .collect();
    dirs.sort();
    dirs.insert(0, String::new());
    dirs
}

fn package_sources(dir: &str) -> Vec<Source> {
    let mut out = Vec::new();
    for sub in ["src", "tests", "benches", "examples"] {
        let rel = if dir.is_empty() {
            sub.to_string()
        } else {
            format!("{dir}/{sub}")
        };
        rs_files(&rel, &mut out);
    }
    out
}

#[test]
fn every_unread_public_item_is_listed_with_a_reason() {
    let mut files = Vec::new();
    for dir in packages() {
        files.extend(package_sources(&dir));
    }
    rs_files("benchmark/src", &mut files);
    rs_files("benchmark/tests", &mut files);
    let allow = fs::read_to_string(repo().join("tests/public_surface.allow"))
        .expect("tests/public_surface.allow");
    let errors = check_allowlist(&files, &allow);
    assert!(errors.is_empty(), "\n{}\n", errors.join("\n"));
}

#[test]
fn every_manifest_dependency_is_named_by_its_package() {
    let mut errors = Vec::new();
    for dir in packages() {
        let manifest = if dir.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{dir}/Cargo.toml")
        };
        let text = fs::read_to_string(repo().join(&manifest)).expect("manifest");
        for dep in unused_deps(&text, &package_sources(&dir)) {
            errors.push(format!(
                "{manifest}: {dep} is named by no source of its package"
            ));
        }
    }
    assert!(errors.is_empty(), "\n{}\n", errors.join("\n"));
}

/// The keys of the unread items in `files`.
fn unread_keys(files: &[Source]) -> Vec<String> {
    surface(files).1.into_keys().collect()
}

#[test]
fn an_unread_pub_fn_is_flagged() {
    let files = [
        source(
            "crates/a/src/lib.rs",
            "pub fn used() {}\npub fn unused() {}\n",
        ),
        source("crates/b/src/lib.rs", "fn f() {\n    a::used();\n}\n"),
    ];
    assert_eq!(unread_keys(&files), ["a::unused"]);
}

#[test]
fn paths_and_method_calls_on_product_lines_are_reads() {
    let lib = "pub struct Thing;

impl Thing {
    pub fn new() -> Thing {
        Thing
    }
    pub fn called(&self) {}
    pub fn helper(&self) {}
    pub fn caller(&self) {
        Self::helper(self);
    }
    pub fn recursive(&self) {
        self.recursive();
    }
}
";
    let user = "fn f() {\n    let t = a::Thing::new();\n    t.called();\n    t.caller();\n}\n";
    let files = [
        source("crates/a/src/lib.rs", lib),
        source("examples/demo.rs", user),
    ];
    assert_eq!(unread_keys(&files), ["a::Thing::recursive"]);
}

#[test]
fn comments_reexports_unit_tests_strings_and_tests_dir_are_not_reads() {
    let lib = r#"pub fn in_comment() {}
pub fn in_reexport() {}
pub fn in_unit_test() {}
pub fn in_tests_dir() {}
pub fn in_string() {}
pub use self::{
    in_reexport as again,
};
// in_comment();
/// Calls [`in_comment`].
fn user() -> &'static str {
    "in_string()"
}
#[cfg(test)]
mod tests {
    fn t() {
        super::in_unit_test();
    }
}
"#;
    let files = [
        source("crates/a/src/lib.rs", lib),
        source("tests/t.rs", "fn t() {\n    a::in_tests_dir();\n}\n"),
        source(
            "benchmark/src/main.rs",
            "fn m() {\n    a::in_tests_dir();\n}\n",
        ),
    ];
    assert_eq!(
        unread_keys(&files),
        [
            "a::in_comment",
            "a::in_reexport",
            "a::in_string",
            "a::in_tests_dir",
            "a::in_unit_test"
        ]
    );
}

#[test]
fn stale_reasonless_and_unlisted_allowlist_lines_are_rejected() {
    let files = [
        source(
            "crates/a/src/lib.rs",
            "pub fn unread() {}\npub fn read() {}\nfn f() {\n    read();\n}\n",
        ),
        source("tests/t.rs", "fn t() {\n    a::unread();\n}\n"),
        source("tests/other.rs", "fn t() {}\n"),
    ];
    let errors = |allow: &str| check_allowlist(&files, allow);
    let one = |allow: &str, want: &str| {
        let got = errors(allow);
        assert!(
            got.len() == 1 && got[0].contains(want),
            "{allow:?}: want one error with {want:?}, got {got:?}"
        );
    };
    assert!(errors("# kept\na::unread  test-probe: tests/t.rs\n").is_empty());
    one("a::unread\n", "has no reason");
    one("a::unread  because\n", "has no reason");
    one("a::unread  test-probe:\n", "needs a detail");
    one(
        "a::unread  test-probe: tests/other.rs\n",
        "does not name `unread`",
    );
    one(
        "a::unread  input-validation\na::gone  input-validation\n",
        "not a declared",
    );
    one(
        "a::unread  input-validation\na::read  input-validation\n",
        "has a product reader now",
    );
    one("", "`a::unread` has no product reader");
}

#[test]
fn an_unread_manifest_dependency_is_flagged() {
    let manifest = r#"[package]
name = "a"

[dependencies]
used-dep.workspace = true
unused = { path = "x" }

[dev-dependencies]
dev-used = "1"
"#;
    let files = [
        source("src/lib.rs", "use used_dep::X;\n// unused\n"),
        source("tests/t.rs", "use dev_used as _;\n"),
    ];
    assert_eq!(unused_deps(manifest, &files), ["[dependencies] unused"]);
}
