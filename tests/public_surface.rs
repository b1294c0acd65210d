//! Every public item has a product reader or a written reason, and every
//! manifest dependency is named by its package.
//!
//! `rustc`'s `dead_code` lint never flags a `pub` item of a library crate,
//! and the product is thirteen of them. So this test writes the workspace as
//! **one binary crate** under `CARGO_TARGET_TMPDIR` and lets rustc find what
//! nothing reaches. In the copy, each `crates/<c>/src` is module `<c>`
//! (`core` is `pcore`) and the root library is module `polymer`; `crate::`,
//! `$crate::`, `polymer_<c>` and `polymer::` are rewritten to match; every
//! bare `pub` is `pub(crate)`; and structs lose their derived comparisons
//! (`PartialEq`, `Eq`, `PartialOrd`, `Ord`, `Hash`: those impls read every
//! field), except where a type that keeps one contains them or a compile
//! error shows product code comparing them. `main` calls the `main` of each
//! product root: `crates/bench/src/main.rs`, the `crates/graph/src/bin/`
//! binaries and the `examples/`.
//!
//! `cargo check` runs twice: with the product roots, and with
//! `benchmark/src/main.rs` as one more root. Each `dead_code` span becomes a
//! key `<crate dir>::[Type::]name` from its enclosing `impl` / `struct` /
//! `enum` / `trait`. Only items declared `pub` count (variants and trait
//! methods when their enum or trait is): a private item dead only through a
//! dead `pub` one goes with it. Fields, variants, trait methods,
//! name-collided methods and chains are all in scope.
//!
//! Each item the second run flags is read by nothing outside tests and needs
//! one line `<key>  <reason>` in `tests/public_surface.allow`. One that only
//! the second run reaches needs a `benchmark:` line if `benchmark/src` names
//! it, and none otherwise. Reasons: `benchmark: <file>`, `test-probe:
//! <file>` (the file must name the item, outside product lines),
//! `input-validation`, `paper: <table/figure>` and `other: <sentence>`. An
//! unlisted item, a listed item that is read or gone, a line with no reason
//! and a reason that does not fit the run each fail, and so does an
//! `allow(dead_code)` or `allow(unused…)` in product lines (lines above a
//! file's first `#[cfg(test)]` under `crates/*/src`, `src/`, `examples/`).
//!
//! A second check: every `[dependencies]`, `[dev-dependencies]` and
//! `[build-dependencies]` entry of a workspace manifest is named (`-` read as
//! `_`) in code of its package's `src`, `tests`, `benches` or `examples`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifiers in `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty())
}

fn read(path: &str) -> String {
    fs::read_to_string(repo().join(path)).expect("read source")
}

/// Every `.rs` file under the repository directory `rel`, in path order.
fn rs_files(rel: &str) -> Vec<String> {
    let entries = fs::read_dir(repo().join(rel))
        .into_iter()
        .flatten()
        .flatten();
    let mut paths: Vec<String> = entries
        .map(|e| format!("{rel}/{}", e.file_name().to_string_lossy()))
        .collect();
    paths.sort();
    let walk = |p: String| match repo().join(&p).is_dir() {
        true => rs_files(&p),
        false => Vec::from_iter(p.ends_with(".rs").then_some(p)),
    };
    paths.into_iter().flat_map(walk).collect()
}

/// The crate directories under `crates/`, in order.
fn crate_dirs() -> Vec<String> {
    let entries = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .flatten();
    let mut dirs: Vec<String> = entries
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    dirs
}

/// The module a crate directory becomes in the copy.
fn module_of(dir: &str) -> String {
    if dir == "core" { "pcore" } else { dir }.to_string()
}

/// `text` rewritten as a file of module `module` of the copy. Every line
/// stays on its line.
fn rewrite(text: &str, module: &str, crates: &[String]) -> String {
    let chars: Vec<char> = text.chars().collect();
    let at = |j: usize| chars.get(j).copied().unwrap_or('\0');
    let mut out = String::with_capacity(text.len() * 9 / 8);
    let mut i = 0;
    while i < chars.len() {
        if !is_ident(chars[i]) || (i > 0 && is_ident(chars[i - 1])) {
            out.push(chars[i]);
            i += 1;
            continue;
        }
        let start = i;
        while i < chars.len() && is_ident(chars[i]) {
            i += 1;
        }
        let word: String = chars[start..i].iter().collect();
        let pathed = at(i) == ':' && at(i + 1) == ':';
        let dep = word
            .strip_prefix("polymer_")
            .filter(|c| crates.iter().any(|d| d == c));
        match (word.as_str(), dep) {
            ("crate", _) if pathed => out.push_str(&format!("crate::{module}")),
            ("polymer", _) if pathed => out.push_str("crate::polymer"),
            ("pub", _) if matches!(at(i), ' ' | '\n') => out.push_str("pub(crate)"),
            (_, Some(c)) => out.push_str(&format!("crate::{}", module_of(c))),
            _ => out.push_str(&word),
        }
    }
    out.replace("crate::bench::with_engine", "crate::with_engine")
}

/// The traits whose derived impls read every field of a struct.
const COMPARISONS: [&str; 5] = ["PartialEq", "Eq", "PartialOrd", "Ord", "Hash"];

/// `text` with the [`COMPARISONS`] taken out of each struct's `derive`,
/// and for each derive line changed: the struct, the line and its old text.
fn strip_comparisons(text: &str) -> (String, Vec<(String, usize, String)>) {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut stripped = Vec::new();
    for i in 0..lines.len() {
        let line = lines[i].trim();
        let list = line
            .strip_prefix("#[derive(")
            .and_then(|l| l.strip_suffix(")]"));
        let is_attr = |l: &&String| l.trim().starts_with("#[") || l.trim().starts_with("//");
        let decl = lines[i + 1..].iter().find(|l| !is_attr(l));
        let Some((list, decl)) = list.zip(decl.filter(|d| unqualified(d).starts_with("struct ")))
        else {
            continue;
        };
        let kept: Vec<&str> = list
            .split(", ")
            .filter(|t| !COMPARISONS.contains(t))
            .collect();
        if kept.len() < list.split(", ").count() {
            let indent = &lines[i][..lines[i].len() - line.len()];
            let derive = format!("{indent}#[derive({})]", kept.join(", "));
            let derive = if kept.is_empty() {
                String::new()
            } else {
                derive
            };
            let name = header_name(decl).unwrap_or_default();
            stripped.push((name, i, std::mem::replace(&mut lines[i], derive)));
        }
    }
    (lines.join("\n") + "\n", stripped)
}

/// The one-crate copy: its `src/` files (→ original path, text) and the
/// comparison derives taken out, by struct (→ copy path, line, old text).
#[derive(Default)]
struct OneCrate {
    files: BTreeMap<String, (String, String)>,
    stripped: BTreeMap<String, Vec<(String, usize, String)>>,
    main: String,
}

impl OneCrate {
    /// Adds module `module` with `root` as its `mod.rs` and, for a crate,
    /// the other files under `root`'s directory (not its binaries).
    fn add(&mut self, module: &str, root: &str, crates: &[String]) {
        let (dir, file) = root.rsplit_once('/').expect("a path");
        let single = file != "lib.rs" && module != "benchmark";
        let mut files = if single { Vec::new() } else { rs_files(dir) };
        files.retain(|f| !f.ends_with("/main.rs") && !f.contains("/bin/") && f != root);
        files.insert(0, root.to_string());
        for original in files {
            let text = rewrite(&read(&original), module, crates);
            let (copy, text) = match original == root {
                // A binary's `main` becomes callable from the copy's own.
                true => (
                    format!("src/{module}/mod.rs"),
                    text.replace("\nfn main(", "\npub(crate) fn main("),
                ),
                false => (format!("src/{module}/{}", &original[dir.len() + 1..]), text),
            };
            let (text, stripped) = strip_comparisons(&text);
            for (ty, line, derive) in stripped {
                let at = (copy.clone(), line, derive);
                self.stripped.entry(ty).or_default().push(at);
            }
            self.files.insert(copy, (original, text));
        }
    }

    /// Puts back the comparison derives of every struct named `ty`.
    fn restore(&mut self, ty: &str) {
        for (path, line, derive) in self.stripped.remove(ty).unwrap_or_default() {
            let text = &mut self.files.get_mut(&path).expect("copied file").1;
            let mut lines: Vec<&str> = text.lines().collect();
            lines[line] = &derive;
            *text = lines.join("\n") + "\n";
        }
    }

    /// Restores every stripped struct named in the body of a type that
    /// still derives a comparison (its derive needs theirs), to a fixpoint.
    fn restore_contained(&mut self) {
        loop {
            let mut named = BTreeSet::new();
            for (_, text) in self.files.values() {
                let lines: Vec<&str> = text.lines().collect();
                for (i, line) in lines.iter().enumerate() {
                    let derive = line.trim_start().starts_with("#[derive(");
                    if derive && COMPARISONS.iter().any(|t| line.contains(t)) {
                        let body = item_body(&lines, i + 1).join("\n");
                        named.extend(words(&body).map(str::to_string));
                    }
                }
            }
            named.retain(|w| self.stripped.contains_key(w));
            if named.is_empty() {
                return;
            }
            named.iter().for_each(|ty| self.restore(ty));
        }
    }
}

/// The lines of the item declared at or after line `from`, past attributes
/// and comments, to its `;` or the `}` at its own indentation.
fn item_body<'a>(lines: &'a [&'a str], from: usize) -> &'a [&'a str] {
    let indent = |l: &str| l.len() - l.trim_start().len();
    let is_attr = |l: &str| l.trim().starts_with("#[") || l.trim().starts_with("//");
    let Some(head) = (from..lines.len()).find(|&i| !is_attr(lines[i])) else {
        return &[];
    };
    let ends = |i: &usize| match *i == head {
        true => lines[head].ends_with(';'),
        false => indent(lines[*i]) == indent(lines[head]) && lines[*i].trim() == "}",
    };
    &lines[head..=(head..lines.len()).find(ends).unwrap_or(head)]
}

/// The copy with the product roots and, if `benchmark` is set, the
/// benchmark's `main` as one more.
fn one_crate(benchmark: bool) -> OneCrate {
    let crates = crate_dirs();
    let mut copy = OneCrate::default();
    let mut modules: Vec<(String, String)> = crates
        .iter()
        .map(|c| (module_of(c), format!("crates/{c}/src/lib.rs")))
        .collect();
    modules.push(("polymer".into(), "src/lib.rs".into()));
    let mut roots = vec![("bench_main".into(), "crates/bench/src/main.rs".into())];
    for (prefix, dir) in [("bin", "crates/graph/src/bin"), ("example", "examples")] {
        for path in rs_files(dir) {
            let stem = path[dir.len() + 1..].trim_end_matches(".rs");
            roots.push((format!("{prefix}_{stem}"), path));
        }
    }
    if benchmark {
        roots.push(("benchmark".into(), "benchmark/src/main.rs".into()));
    }
    let mut main = String::from("#![warn(dead_code)]\n\n");
    for (module, root) in modules.iter().chain(&roots) {
        copy.add(module, root, &crates);
        main += &format!("mod {module};\n");
    }
    main += "\nfn main() {\n";
    for (module, _) in &roots {
        main += &format!("    let _ = {module}::main();\n");
    }
    copy.main = main + "}\n";
    copy.restore_contained();
    copy
}

/// Writes the copy to `dir` (leaving unchanged files untouched, so a rerun
/// is cached) and returns `cargo check`'s JSON output. A struct that a
/// compile error names gets its comparison derives back, and it reruns.
fn check_copy(dir: &Path, copy: &mut OneCrate) -> String {
    let vendor = repo().join("vendor");
    let deps = ["crossbeam", "parking_lot", "rand", "serde", "serde_json"];
    let deps = deps.map(|d| format!("{d} = {{ path = {:?} }}\n", vendor.join(d)));
    // Cargo keys its cache by package name, not path: one name per copy.
    let name = dir.file_name().unwrap().to_string_lossy().replace('_', "-");
    let manifest = format!(
        "[package]\nname = \"surface-{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\n\
         [workspace]\n\n[dependencies]\n{}",
        deps.concat()
    );
    loop {
        let mut want = vec![
            ("Cargo.toml".to_string(), &manifest),
            ("src/main.rs".into(), &copy.main),
        ];
        want.extend(
            copy.files
                .iter()
                .map(|(path, (_, text))| (path.clone(), text)),
        );
        for (path, text) in want {
            let path = dir.join(path);
            if fs::read_to_string(&path).ok().as_ref() != Some(text) {
                fs::create_dir_all(path.parent().unwrap()).expect("create copy dir");
                fs::write(path, text).expect("write copy");
            }
        }
        let out = Command::new(env!("CARGO"))
            .args([
                "check",
                "--offline",
                "--message-format",
                "json",
                "--target-dir",
            ])
            .arg(dir.join("target"))
            .current_dir(dir)
            .env_remove("RUSTFLAGS")
            .env_remove("CARGO_ENCODED_RUSTFLAGS")
            .output()
            .expect("run cargo check on the one-crate copy");
        let json = String::from_utf8(out.stdout).expect("utf-8");
        if out.status.success() {
            return json;
        }
        let errors = errors(&json);
        let named: BTreeSet<String> = errors
            .iter()
            .flat_map(|(message, _)| words(message).map(str::to_string))
            .filter(|w| copy.stripped.contains_key(w))
            .collect();
        let rendered: String = errors.into_iter().map(|(_, r)| r).collect();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !named.is_empty(),
            "cargo check failed in {dir:?}:\n{rendered}{stderr}"
        );
        named.iter().for_each(|ty| copy.restore(ty));
    }
}

/// Each error in `cargo check`'s JSON output: its message and rendering.
fn errors(json: &str) -> Vec<(String, String)> {
    let values = json
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok());
    let errors = values.filter_map(|v| {
        let msg = v.as_object()?.get("message")?.as_object()?;
        let text = |k: &str| msg.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        (text("level") == "error").then(|| (text("message"), text("rendered")))
    });
    errors.collect()
}

/// A `dead_code` span of the copy: file, 1-based line, and the name it marks.
#[derive(Debug, PartialEq)]
struct Span {
    file: String,
    line: usize,
    name: String,
}

/// The primary spans of every `dead_code` warning in `cargo check`'s JSON.
fn dead_spans(json: &str) -> Vec<Span> {
    let mut spans = Vec::new();
    for value in json
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
    {
        let msg = value.as_object().and_then(|o| o.get("message"));
        let Some(msg) = msg.and_then(Value::as_object) else {
            continue;
        };
        let code = msg.get("code").and_then(Value::as_object);
        if code.and_then(|c| c.get("code")).and_then(Value::as_str) != Some("dead_code") {
            continue;
        }
        for span in msg
            .get("spans")
            .and_then(Value::as_array)
            .into_iter()
            .flatten()
        {
            let get = |k: &str| span.as_object().and_then(|s| s.get(k)).expect("span field");
            if get("is_primary").as_bool() != Some(true) {
                continue;
            }
            let text = get("text").as_array().and_then(|t| t.first());
            let text = text.and_then(Value::as_object).expect("span text");
            let number = |k: &str| text.get(k).and_then(Value::as_u64).expect("highlight");
            let (from, to) = (number("highlight_start"), number("highlight_end"));
            let line = text.get("text").and_then(Value::as_str).expect("text");
            spans.push(Span {
                file: get("file_name").as_str().expect("file_name").to_string(),
                line: get("line_start").as_u64().expect("line_start") as usize,
                name: line
                    .chars()
                    .skip(from as usize - 1)
                    .take((to - from) as usize)
                    .collect(),
            });
        }
    }
    spans
}

/// `text` with one visibility and `unsafe` taken off the front.
fn unqualified(text: &str) -> &str {
    let t = text.trim_start();
    let t = match t.strip_prefix("pub(") {
        Some(r) => r.split_once(')').map_or(t, |(_, r)| r.trim_start()),
        None => t.strip_prefix("pub ").unwrap_or(t),
    };
    t.strip_prefix("unsafe ").unwrap_or(t)
}

/// The type an `impl` header implements for, or the name a `struct`, `enum`,
/// `union` or `trait` header declares.
fn header_name(header: &str) -> Option<String> {
    let t = unqualified(header);
    let name_of = |s: &str| {
        let s = s.trim_start().trim_start_matches('&');
        let s = s.split(['<', ' ', '{', '(', ';']).next().unwrap_or("");
        s.rsplit("::").next().unwrap_or("").to_string()
    };
    if let Some(rest) = t.strip_prefix("impl") {
        // Drop generics, then take the type after a top-level ` for `.
        let (mut depth, mut prev, mut body) = (0, ' ', String::new());
        for c in rest.chars() {
            match c {
                '<' => depth += 1,
                '>' if prev != '-' => depth -= 1,
                _ if depth == 0 => body.push(c),
                _ => {}
            }
            prev = c;
        }
        return Some(name_of(body.split(" for ").last().unwrap_or("")));
    }
    let kinds = ["struct ", "enum ", "union ", "trait "];
    kinds.iter().find_map(|kw| t.strip_prefix(kw)).map(name_of)
}

/// The allowlist key of the item a span marks, if its original declares it
/// `pub`. `original` is the declaring file's path, `text` its text (the
/// copy's lines match it); the owner is the first line above with less
/// indentation that opens an `impl`, `struct`, `enum`, `union` or `trait`
/// (none if that is a `fn` or `mod`).
fn key_of(span: &Span, original: &str, text: &str) -> Option<String> {
    let dir = original.strip_prefix("crates/")?.split('/').next()?;
    let lines: Vec<&str> = text.lines().collect();
    let at = span.line - 1;
    let indent = |l: &str| l.len() - l.trim_start().len();
    let opens = [
        "impl", "struct ", "enum ", "union ", "trait ", "fn ", "mod ",
    ];
    let owner = (0..at).rev().find(|&i| {
        let opens = opens.iter().any(|kw| unqualified(lines[i]).starts_with(kw));
        indent(lines[i]) < indent(lines[at]) && opens
    });
    let owner = owner.filter(|&h| {
        !["fn ", "mod "]
            .iter()
            .any(|k| unqualified(lines[h]).starts_with(k))
    });
    let is_pub = |l: &str| l.trim_start().starts_with("pub ");
    let head = lines[at].split(span.name.as_str()).next().unwrap_or("");
    let public = words(head).any(|w| w == "pub") && !head.contains("pub(")
        || owner.is_some_and(|h| {
            let t = unqualified(lines[h]);
            (t.starts_with("enum ") || t.starts_with("trait ")) && is_pub(lines[h])
        });
    let ty = owner.and_then(|h| header_name(lines[h]));
    // A method of a type this file declares without `pub` is not public.
    let declared = |l: &&str| !unqualified(l).starts_with("impl") && header_name(l) == ty;
    let private_type = ty.is_some() && lines.iter().any(|l| declared(l) && !is_pub(l));
    let name = &span.name;
    (public && !private_type).then(|| match ty {
        Some(ty) => format!("{dir}::{ty}::{name}"),
        None => format!("{dir}::{name}"),
    })
}

/// The unread `pub` items one run finds: key → declaring `path:line`.
fn unread(copy: &OneCrate, spans: &[Span]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for span in spans {
        let Some((original, _)) = copy.files.get(&span.file) else {
            continue;
        };
        if let Some(key) = key_of(span, original, &read(original)) {
            out.entry(key)
                .or_insert_with(|| format!("{original}:{}", span.line));
        }
    }
    out
}

const REASONS: [&str; 5] = [
    "benchmark:",
    "test-probe:",
    "input-validation",
    "paper:",
    "other:",
];

/// Does `text` name `name` as a word outside `//` comments (and outside
/// product lines if `path` is a product file)?
fn mentions(path: &str, text: &str, name: &str) -> bool {
    let tests = text.find("#[cfg(test)]").map_or("", |i| &text[i..]);
    let text = if path.starts_with("crates/") && path.contains("/src/") {
        tests
    } else {
        text
    };
    let code = text.lines().map(|l| l.split("//").next().unwrap_or(""));
    code.flat_map(words).any(|w| w == name)
}

/// Compares the two runs' findings with the allowlist; returns every
/// mismatch. `benchmark` is the text of `benchmark/src`.
fn check_allowlist(
    [product, with_benchmark]: &[BTreeMap<String, String>; 2],
    benchmark: &str,
    allow: &str,
    read: &dyn Fn(&str) -> Option<String>,
) -> Vec<String> {
    let name_of = |key: &str| key.rsplit("::").next().unwrap_or(key).to_string();
    // Key → (declaration, whether only a `benchmark:` reason fits).
    let mut need: BTreeMap<&str, (&str, bool)> = BTreeMap::new();
    for (key, at) in product {
        if mentions("", benchmark, &name_of(key)) {
            need.insert(key, (at, true));
        }
    }
    need.extend(
        with_benchmark
            .iter()
            .map(|(k, at)| (k.as_str(), (at.as_str(), false))),
    );
    let mut errors = Vec::new();
    let mut listed = BTreeSet::new();
    for (n, line) in allow.lines().enumerate().map(|(n, l)| (n + 1, l.trim())) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, reason) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let reason = reason.trim();
        let kind = REASONS.into_iter().find(|k| reason.starts_with(k));
        let detail = kind.map_or("", |k| reason[k.len()..].trim());
        let mut error = |e: String| errors.push(format!("public_surface.allow:{n}: {e}"));
        if !listed.insert(key) {
            error(format!("`{key}` is listed twice"));
        }
        match (kind, detail.is_empty()) {
            (None, _) => error(format!(
                "`{key}` has no reason; give one of {}",
                REASONS.join(" ")
            )),
            (Some("input-validation"), false) => error("`input-validation` takes no detail".into()),
            (Some(k), true) if k != "input-validation" => error(format!("`{k}` needs a detail")),
            _ => {}
        }
        match need.get(key) {
            None => error(format!(
                "`{key}` is read by a product line (or through a benchmark item), or is gone; \
                 delete the line"
            )),
            Some((_, true)) if kind != Some("benchmark:") => error(format!(
                "`{key}` is reached only through the benchmark; its reason is `benchmark:`"
            )),
            _ => {}
        }
        if kind == Some("benchmark:") && !detail.starts_with("benchmark/") {
            error("a `benchmark:` reason names a file under benchmark/".into());
        }
        let name = name_of(key);
        if matches!(kind, Some("benchmark:" | "test-probe:"))
            && !detail.is_empty()
            && !read(detail).is_some_and(|text| mentions(detail, &text, &name))
        {
            error(format!(
                "`{reason}` does not name `{name}` outside product lines"
            ));
        }
    }
    for (key, (at, benchmark)) in need.into_iter().filter(|(k, _)| !listed.contains(k)) {
        errors.push(match benchmark {
            true => format!("{at}: `{key}` is reached only through the benchmark: list it with a `benchmark:` reason"),
            false => format!("{at}: `{key}` has no reader outside tests: delete it, or list it with a reason"),
        });
    }
    errors
}

/// The 1-based product lines of `text` that allow `dead_code` or `unused`.
fn silenced(text: &str) -> Vec<usize> {
    let product = text
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
    let code = product.map(|l| l.split("//").next().unwrap_or(""));
    let allows = |c: &str| c.contains("allow(") || c.contains("expect(");
    let silences = |c: &str| allows(c) && (c.contains("dead_code") || c.contains("unused"));
    code.enumerate()
        .filter(|(_, c)| silences(c))
        .map(|(i, _)| i + 1)
        .collect()
}

const DEPENDENCIES: [&str; 3] = [
    "[dependencies]",
    "[dev-dependencies]",
    "[build-dependencies]",
];

/// The dependencies a manifest declares that none of `texts` names.
fn unused_deps(manifest: &str, texts: &[String]) -> Vec<String> {
    let code = texts
        .iter()
        .flat_map(|t| t.lines().map(|l| l.split("//").next().unwrap_or("")));
    let named: BTreeSet<&str> = code.flat_map(words).collect();
    let mut section = "";
    let mut unused = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if DEPENDENCIES.contains(&section) && !line.is_empty() && !line.starts_with('#') {
            let dep = line.split(['=', '.', ' ']).next().unwrap_or("");
            if !named.contains(dep.replace('-', "_").as_str()) {
                unused.push(format!("{section} {dep}"));
            }
        }
    }
    unused
}

#[test]
fn every_unread_public_item_is_listed_with_a_reason() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("public_surface");
    // The runs share nothing, so they check side by side, each in its own
    // target directory (one would serialize them on its lock).
    let found = std::thread::scope(|s| {
        let run = |(name, benchmark): (&str, bool)| {
            let dir = dir.join(name);
            s.spawn(move || {
                let mut copy = one_crate(benchmark);
                let json = check_copy(&dir, &mut copy);
                unread(&copy, &dead_spans(&json))
            })
        };
        let runs = [("product", false), ("with_benchmark", true)].map(run);
        runs.map(|r| r.join().expect("surface run"))
    });
    let benchmark = rs_files("benchmark/src")
        .iter()
        .map(|p| read(p))
        .collect::<String>();
    let allow = read("tests/public_surface.allow");
    let read = |path: &str| fs::read_to_string(repo().join(path)).ok();
    let errors = check_allowlist(&found, &benchmark, &allow, &read);
    assert!(errors.is_empty(), "\n{}\n", errors.join("\n"));
}

#[test]
fn no_product_line_silences_dead_code() {
    let dirs = ["src".to_string(), "examples".into()];
    let dirs = dirs
        .into_iter()
        .chain(crate_dirs().into_iter().map(|c| format!("crates/{c}/src")));
    let files = dirs.flat_map(|d| rs_files(&d));
    let at = |f: String| {
        silenced(&read(&f))
            .into_iter()
            .map(move |l| format!("{f}:{l}"))
    };
    let errors: Vec<String> = files.flat_map(at).collect();
    assert!(
        errors.is_empty(),
        "lines that would hide items from rustc:\n{}",
        errors.join("\n")
    );
    let fixed = "#![allow(dead_code)]\nfn a() {}\n// #[allow(unused)]\n\
                 #[allow(unused_variables)]\nfn b() {}\n#[cfg(test)]\n#[allow(dead_code)]\n";
    assert_eq!(silenced(fixed), [1, 4]);
}

#[test]
fn every_manifest_dependency_is_named_by_its_package() {
    let packages = crate_dirs().into_iter().map(|c| format!("crates/{c}/"));
    let mut errors = Vec::new();
    for dir in std::iter::once(String::new()).chain(packages) {
        let manifest = format!("{dir}Cargo.toml");
        let subs = ["src", "tests", "benches", "examples"].map(|sub| format!("{dir}{sub}"));
        let texts: Vec<String> = subs
            .iter()
            .flat_map(|s| rs_files(s))
            .map(|p| read(&p))
            .collect();
        for dep in unused_deps(&read(&manifest), &texts) {
            errors.push(format!(
                "{manifest}: {dep} is named by no source of its package"
            ));
        }
    }
    assert!(errors.is_empty(), "\n{}\n", errors.join("\n"));
}

#[test]
fn paths_are_rewritten_into_one_crate() {
    let crates = ["bench", "core", "graph"].map(String::from);
    let text = "use crate::x::Y;\npub fn f(g: polymer_graph::Graph) {}\n\
                pub(crate) struct S {\n    pub field: u8,\n}\n\
                macro_rules! m { () => { $crate::S } }\nuse polymer_core::Engine;\n\
                use polymer::prelude::*;\nlet x = crate::with_engine!(s, c, |e| e);\n\
                let republic = my_polymer_graph;\n";
    let want = "use crate::bench::x::Y;\npub(crate) fn f(g: crate::graph::Graph) {}\n\
                pub(crate) struct S {\n    pub(crate) field: u8,\n}\n\
                macro_rules! m { () => { $crate::bench::S } }\nuse crate::pcore::Engine;\n\
                use crate::polymer::prelude::*;\nlet x = crate::with_engine!(s, c, |e| e);\n\
                let republic = my_polymer_graph;\n";
    assert_eq!(rewrite(text, "bench", &crates), want);

    let text = "#[derive(Clone, Debug, PartialEq, Eq, Hash)]\n/// Doc.\nstruct S {\n    t: T,\n}\n\
                #[derive(PartialEq)]\nenum E {\n    A(S),\n}\n    #[derive(PartialEq, Eq)]\n    \
                struct T(u8);\n#[derive(Hash)]\nstruct U;\n";
    let (stripped, lines) = strip_comparisons(text);
    let lines: Vec<_> = lines
        .iter()
        .map(|(ty, line, _)| (ty.as_str(), *line))
        .collect();
    assert_eq!(lines, [("S", 0), ("T", 9), ("U", 11)]);
    assert!(stripped.starts_with("#[derive(Clone, Debug)]\n/// Doc.\nstruct S"));
    // E keeps its derive, so S (which E holds) and T (which S holds) get
    // theirs back; nothing holds U.
    let mut copy = OneCrate::default();
    copy.files.insert("f.rs".into(), (String::new(), stripped));
    for (ty, line, derive) in strip_comparisons(text).1 {
        copy.stripped
            .entry(ty)
            .or_default()
            .push(("f.rs".into(), line, derive));
    }
    copy.restore_contained();
    assert_eq!(copy.files["f.rs"].1, text.replace("#[derive(Hash)]", ""));
}

#[test]
fn an_unread_pub_fn_is_flagged() {
    let span = |line: usize, name: &str| {
        let end = 8 + name.len();
        format!(
            r#"{{"is_primary":true,"file_name":"src/a/mod.rs","line_start":{line},"text":[{{"text":"pub fn {name}() {{}}","highlight_start":8,"highlight_end":{end}}}]}}"#
        )
    };
    let other = r#"{"is_primary":false,"file_name":"src/a/mod.rs","line_start":1,"text":[]}"#;
    let spans = format!("{},{},{other}", span(2, "unused"), span(3, "helper"));
    let json = [
        r#"{"reason":"compiler-artifact","target":{"name":"x"}}"#.to_string(),
        format!(r#"{{"message":{{"code":{{"code":"dead_code"}},"spans":[{spans}]}}}}"#),
        r#"{"message":{"code":{"code":"unused_imports"},"spans":[]}}"#.to_string(),
        r#"{"message":{"level":"error","message":"x `Foo`","rendered":"r"}}"#.to_string(),
    ];
    let spans = dead_spans(&json.join("\n"));
    let at = |line, name: &str| Span {
        file: "src/a/mod.rs".into(),
        line,
        name: name.into(),
    };
    assert_eq!(spans, [at(2, "unused"), at(3, "helper")]);
    assert_eq!(
        errors(&json.join("\n")),
        [("x `Foo`".to_string(), "r".to_string())]
    );
    let original = "pub fn used() {}\npub fn unused() {}\nfn helper() {}\n";
    let key = |s| key_of(s, "crates/a/src/lib.rs", original);
    assert_eq!(
        spans.iter().filter_map(key).collect::<Vec<_>>(),
        ["a::unused"]
    );
}

#[test]
fn spans_resolve_to_their_impl_struct_enum_or_trait() {
    let lib = "pub struct Thing {
    pub field: u8,
    private: u8,
}

impl<T: Fn() -> u8> Wrapper<T>
where
    T: Copy,
{
    pub fn new() -> Self {
        todo!()
    }
    fn helper(&self) {}
    pub(crate) fn inner(&self) {}
}

pub enum Kind {
    First,
}

pub trait Topology {
    fn num_edges(&self) -> usize;
}

pub fn free() {
    pub struct Local;
}

struct Hidden;

impl Hidden {
    pub fn shown(&self) {}
}
";
    let key = |line: usize, name: &str| {
        let span = Span {
            file: String::new(),
            line,
            name: name.to_string(),
        };
        key_of(&span, "crates/graph/src/lib.rs", lib)
    };
    let some = |k: &str| Some(k.to_string());
    assert_eq!(key(1, "Thing"), some("graph::Thing"));
    assert_eq!(key(2, "field"), some("graph::Thing::field"));
    assert_eq!(key(3, "private"), None);
    assert_eq!(key(10, "new"), some("graph::Wrapper::new"));
    assert_eq!(key(13, "helper"), None);
    assert_eq!(key(14, "inner"), None);
    assert_eq!(key(18, "First"), some("graph::Kind::First"));
    assert_eq!(key(22, "num_edges"), some("graph::Topology::num_edges"));
    assert_eq!(key(25, "free"), some("graph::free"));
    assert_eq!(key(26, "Local"), some("graph::Local"));
    assert_eq!(key(32, "shown"), None);
    assert_eq!(
        header_name("impl std::fmt::Display for Thing {"),
        some("Thing")
    );
}

#[test]
fn stale_reasonless_and_unlisted_allowlist_lines_are_rejected() {
    let lib = "crates/a/src/lib.rs";
    let found: [BTreeMap<String, String>; 2] = [
        [("a::unread", 1), ("a::linked", 2), ("a::Via::chain", 3)],
        [("a::unread", 1); 3],
    ]
    .map(|run| {
        run.map(|(k, l)| (k.to_string(), format!("{lib}:{l}")))
            .into()
    });
    let benchmark = "fn m() {\n    a::linked();\n}\n";
    let read = |path: &str| match path {
        "tests/t.rs" => Some("fn t() {\n    a::unread();\n}\n".to_string()),
        "benchmark/src/main.rs" => Some(benchmark.to_string()),
        "crates/a/src/lib.rs" => Some("pub fn unread() {}\n#[cfg(test)]\nfn t() {}\n".into()),
        _ => None,
    };
    let errors = |allow: &str| check_allowlist(&found, benchmark, allow, &read);
    let linked = "a::linked  benchmark: benchmark/src/main.rs\n";
    let one = |allow: &str, want: &str| {
        let got = errors(allow);
        let ok = got.len() == 1 && got[0].contains(want);
        assert!(ok, "{allow:?}: want one error with {want:?}, got {got:?}");
    };
    let ok = format!("# kept\na::unread  test-probe: tests/t.rs\n{linked}");
    assert!(errors(&ok).is_empty(), "{:?}", errors(&ok));
    one(&format!("a::unread\n{linked}"), "has no reason");
    one(&format!("a::unread  because\n{linked}"), "has no reason");
    one(
        &format!("a::unread  test-probe:\n{linked}"),
        "needs a detail",
    );
    one(
        &format!("a::unread  test-probe: {lib}\n{linked}"),
        "does not name `unread`",
    );
    let gone = format!("a::unread  input-validation\n{linked}a::gone  input-validation\n");
    one(&gone, "`a::gone` is read by a product line");
    let chain = format!("a::unread  input-validation\n{linked}a::Via::chain  other: x\n");
    one(&chain, "`a::Via::chain` is read by a product line");
    let probe = "a::unread  input-validation\na::linked  test-probe: benchmark/src/main.rs\n";
    one(probe, "reached only through the benchmark");
    one(
        &format!("a::unread  benchmark: tests/t.rs\n{linked}"),
        "names a file under benchmark/",
    );
    one(linked, "`a::unread` has no reader outside tests");
    one(
        "a::unread  input-validation\n",
        "`a::linked` is reached only through the benchmark",
    );
}

#[test]
fn an_unread_manifest_dependency_is_flagged() {
    let manifest = "[package]\nname = \"a\"\n\n[dependencies]\nused-dep.workspace = true\n\
                    unused = { path = \"x\" }\n\n[dev-dependencies]\ndev-used = \"1\"\n";
    let texts = ["use used_dep::X;\n// unused\n", "use dev_used as _;\n"].map(String::from);
    assert_eq!(unused_deps(manifest, &texts), ["[dependencies] unused"]);
}
