//! Maps the on-disk workspace to the engine's file model.
//!
//! Scope: the nine library crates (this linter included — panic/unwrap
//! discipline applies to the tooling too) plus the root package's
//! `src/`, and the vendored dependency stubs for the `layering` pass
//! only (stubs must stay leaf-only). Excluded by design: `src/bin/`
//! (CLIs own the process — env args, wall-clock progress and stdout are
//! their job) and integration `tests/` and `benches/` (test code may
//! unwrap).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::engine::SrcFile;

/// Library crates under `crates/` that the lints cover, as
/// `(directory name, crate name used for lint scoping)`.
pub const LINTED_CRATES: [(&str, &str); 9] = [
    ("bgp", "bgp"),
    ("core", "core"),
    ("experiments", "experiments"),
    ("igp", "igp"),
    ("netsim", "netsim"),
    ("obs", "obs"),
    ("serve", "serve"),
    ("topology", "topology"),
    ("xtask", "xtask"),
];

/// Vendored dependency stubs, collected only so the `layering` pass can
/// verify they stay leaf-only (`crates/proptest` may use the `rand`
/// stub; nothing else).
pub const STUB_CRATES: [(&str, &str); 3] = [
    ("criterion", "criterion"),
    ("proptest", "proptest"),
    ("rand", "rand"),
];

/// Does `root` look like the netdiagnoser workspace?
pub fn is_workspace_root(root: &Path) -> bool {
    root.join("crates/obs/src/names.rs").is_file() && root.join("Cargo.toml").is_file()
}

/// Collects every linted source file under `root`, in a deterministic
/// (sorted) order, with workspace-relative paths.
pub fn collect(root: &Path) -> io::Result<Vec<SrcFile>> {
    let mut files = Vec::new();
    for &(dir, crate_name) in LINTED_CRATES.iter().chain(STUB_CRATES.iter()) {
        let src_dir = root.join("crates").join(dir).join("src");
        collect_dir(root, &src_dir, crate_name, &mut files)?;
    }
    collect_dir(root, &root.join("src"), "root", &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

/// Recursively gathers `.rs` files under `dir`, skipping `bin/`.
fn collect_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SrcFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_dir(root, &path, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SrcFile {
                crate_name: crate_name.to_string(),
                path: rel,
                src: fs::read_to_string(&path)?,
            });
        }
    }
    Ok(())
}
