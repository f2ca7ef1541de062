//! Every `pub` item of the library crates is used from somewhere else.
//!
//! `rustc` never reports a `pub` item of a library as dead, so one nothing
//! calls stays compiled, documented and re-exported until someone looks.
//! This test looks: for every `pub fn / struct / enum / union / const /
//! static / trait / type` declared under `crates/*/src` (bins and
//! `#[cfg(test)]` modules excluded) the name must occur as a whole word,
//! outside `use` declarations and comment lines, in some *other* file
//! under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src`. An
//! item only its own file names should lose `pub` (the compiler then
//! watches it); one only its own unit tests name should go, tests
//! included.
//!
//! A type is used without being named when a caller holds one by
//! inference (`run_sweep(..)` returns `PointResult`s no bin spells out),
//! and it cannot lose `pub` while a `pub` signature mentions it. So a type
//! also passes when the signature of another `pub` declaration of its own
//! file names it; once those declarations are gone it is reported too.
//!
//! The match is by name, not by path, so an unused `len` hides behind
//! every other `len`; what it cannot miss is a module, type or
//! distinctly named method left without a caller.
//!
//! The same question one level up: every `[workspace.dependencies]` entry
//! and every crate vendored under `vendor/` is a dependency of some
//! workspace member. A stub nobody depends on any more still builds, so
//! nothing else would say it can go.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Items that stay `pub` without a caller yet, one line of reason each.
const EXEMPT: &[(&str, &str)] = &[(
    "set_primary",
    "ROADMAP direction 4 wires it: clients follow the view",
)];

const DECLARED_UNDER: &str = "crates";
const REFERENCED_UNDER: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src"];
const VALUE_KINDS: &[&str] = &["fn", "const", "static"];
const TYPE_KINDS: &[&str] = &["struct", "enum", "union", "trait", "type"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `text` that are neither comments nor part of a `use`
/// declaration.
fn code_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut in_use = false;
    text.lines().filter(move |line| {
        let line = line.trim_start();
        let starts_use = ["use ", "pub use ", "pub(crate) use "]
            .iter()
            .any(|prefix| line.starts_with(prefix));
        let part_of_use = in_use || starts_use;
        if part_of_use {
            in_use = !line.contains(';');
        }
        !part_of_use && !line.starts_with("//")
    })
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// `(kind, name)` when `line` opens a plain-`pub` item.
fn declared_item(line: &str) -> Option<(&str, &str)> {
    let mut words = line.strip_prefix("pub ")?.split_whitespace();
    let mut kind = words.next()?;
    let mut next = words.next()?;
    while matches!(kind, "const" | "async" | "unsafe") && matches!(next, "fn" | "async" | "unsafe")
    {
        kind = next;
        next = words.next()?;
    }
    let known = VALUE_KINDS.contains(&kind) || TYPE_KINDS.contains(&kind);
    known.then(|| (kind, identifiers(next).next().unwrap_or_default()))
}

/// What one library source file declares `pub` outside its
/// `#[cfg(test)]` modules.
#[derive(Default)]
struct Surface<'a> {
    /// `(line number, kind, name)` of every item.
    items: Vec<(usize, &'a str, &'a str)>,
    /// Every identifier in a `pub` declaration's signature — a `pub` line
    /// up to its `{` or `;`, a field up to its `,` — bar the name the
    /// declaration itself introduces.
    signature_words: HashSet<&'a str>,
}

fn surface(text: &str) -> Surface<'_> {
    let mut found = Surface::default();
    let mut cfg_test = false;
    // Brace depth inside a `#[cfg(test)] mod … {`; zero outside one.
    let mut test_depth = 0usize;
    let mut in_signature = false;
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if test_depth > 0 || (cfg_test && line.starts_with("mod ")) {
            test_depth += line.matches('{').count();
            test_depth -= line.matches('}').count().min(test_depth);
        } else if in_signature || line.starts_with("pub ") {
            let item = declared_item(line);
            if let Some((kind, name)) = item {
                found.items.push((number + 1, kind, name));
            }
            let own_name = item.map(|(_, name)| name);
            let words = identifiers(line).filter(|word| Some(*word) != own_name);
            found.signature_words.extend(words);
            let field = !in_signature && line.ends_with(',');
            in_signature = !(field || line.contains('{') || line.contains(';'));
        }
        cfg_test = line == "#[cfg(test)]";
    }
    found
}

/// Which file names an identifier: one file, or more than one.
#[derive(Clone, Copy)]
enum NamedIn {
    Only(usize),
    Several,
}

#[test]
fn every_pub_item_is_used_outside_its_own_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in REFERENCED_UNDER {
        rust_files(&root.join(dir), &mut files);
    }
    // This file names the exempted items; that is not a use of them.
    files.retain(|path| !path.ends_with(file!()));
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|path| fs::read_to_string(path).expect("a readable source file"))
        .collect();

    let mut named: HashMap<&str, NamedIn> = HashMap::new();
    for (index, text) in texts.iter().enumerate() {
        for word in code_lines(text).flat_map(identifiers) {
            named
                .entry(word)
                .and_modify(|seen| match *seen {
                    NamedIn::Only(file) if file != index => *seen = NamedIn::Several,
                    _ => {}
                })
                .or_insert(NamedIn::Only(index));
        }
    }

    let mut declared = 0;
    let mut unused = Vec::new();
    let mut exempted = Vec::new();
    for (path, text) in files.iter().zip(&texts) {
        let relative = path.strip_prefix(root).expect("a file under the root");
        let mut parts = relative.components().map(|part| part.as_os_str());
        let library_source = parts.next().is_some_and(|dir| dir == DECLARED_UNDER)
            && parts.nth(1).is_some_and(|dir| dir == "src")
            && !parts.any(|dir| dir == "bin");
        if !library_source {
            continue;
        }
        let surface = surface(text);
        for (line, kind, name) in surface.items {
            declared += 1;
            let held_by_inference =
                TYPE_KINDS.contains(&kind) && surface.signature_words.contains(name);
            if matches!(named.get(name), Some(NamedIn::Several)) || held_by_inference {
                continue;
            }
            if EXEMPT.iter().any(|(exempt, _)| *exempt == name) {
                exempted.push(name);
            } else {
                unused.push(format!("{}:{line}: {kind} {name}", relative.display()));
            }
        }
    }

    println!("{declared} pub items under {DECLARED_UNDER}/*/src");
    assert!(declared > 500, "the sweep saw only {declared} pub items");
    assert!(
        unused.is_empty(),
        "{} of {declared} pub items are used from no other file — delete them, or drop `pub` \
         if their own file uses them:\n{}",
        unused.len(),
        unused.join("\n")
    );
    for (name, reason) in EXEMPT {
        assert!(
            exempted.contains(name),
            "`{name}` no longer needs its exemption ({reason})"
        );
    }
}

/// The keys of the `[table]` sections of a manifest whose header is one
/// of `tables`.
fn manifest_keys<'a>(manifest: &'a str, tables: &[&str]) -> Vec<&'a str> {
    let mut inside = false;
    let mut keys = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = tables.contains(&line);
        } else if inside && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                keys.push(key.trim());
            }
        }
    }
    keys
}

#[test]
fn every_workspace_dependency_and_vendored_crate_has_a_user() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: PathBuf| fs::read_to_string(&path).expect("a readable manifest");
    let workspace = read(root.join("Cargo.toml"));
    let members: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("the crates directory")
        .map(|entry| read(entry.expect("a directory entry").path().join("Cargo.toml")))
        .collect();
    let used: HashSet<&str> = members
        .iter()
        .chain([&workspace])
        .flat_map(|manifest| manifest_keys(manifest, &["[dependencies]", "[dev-dependencies]"]))
        .collect();

    let declared = manifest_keys(&workspace, &["[workspace.dependencies]"]);
    assert!(declared.len() > 10, "only {declared:?} found");
    let vendored: Vec<String> = fs::read_dir(root.join("vendor"))
        .expect("the vendor directory")
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.into_string().expect("a UTF-8 crate name"))
        .collect();
    let unused: Vec<&str> = declared
        .into_iter()
        .chain(vendored.iter().map(String::as_str))
        .filter(|name| !used.contains(name))
        .collect();
    assert!(
        unused.is_empty(),
        "no member manifest depends on {unused:?} — delete the workspace entry and the vendored crate"
    );
}
