//! The benchmark's input: the paper-shape DBpedia dataset, written as
//! N-Triples and committed once as a store generation with
//! `elinda-load`, then copied afresh for every server the benchmark
//! starts (the server persists each compaction into its store
//! directory, so a reused directory would carry earlier runs' writes).

use elinda_datagen::{generate_dbpedia, DbpediaConfig};
use elinda_store::export_ntriples;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The datagen seed. The dataset is fixed: `--seed` drives what the
/// users request and write, so runs with different seeds explore the
/// same data.
pub const DATA_SEED: u64 = 7;

/// Bump when the dataset or its layout changes, so a stale cache in a
/// reused checkout is never served.
const DATA_VERSION: u32 = 1;

pub struct Dataset {
    /// The N-Triples file the store was loaded from; the chart
    /// reference reads it too.
    pub ntriples: PathBuf,
    /// The committed store directory (never served directly: copy it).
    pub store: PathBuf,
}

/// Generate and commit the dataset under `work`, unless an earlier run
/// in this checkout already did. Untimed.
pub fn prepare(work: &Path, load_bin: &Path) -> Result<Dataset, String> {
    let dir = work.join(format!("data-v{DATA_VERSION}-seed{DATA_SEED}"));
    let done = dir.join("READY");
    let ds = Dataset {
        ntriples: dir.join("paper-shape.nt"),
        store: dir.join("store"),
    };
    if done.exists() {
        return Ok(ds);
    }
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut cfg = DbpediaConfig::paper_shape();
    cfg.seed = DATA_SEED;
    let store = generate_dbpedia(&cfg);
    eprintln!(
        "perfbench: generated paper-shape dataset: {} triples, {} terms",
        store.len(),
        store.interner().len()
    );
    let file = fs::File::create(&ds.ntriples)
        .map_err(|e| format!("create {}: {e}", ds.ntriples.display()))?;
    let mut out = BufWriter::new(file);
    export_ntriples(&store, &mut out).map_err(|e| format!("write N-Triples: {e}"))?;
    out.flush().map_err(|e| format!("write N-Triples: {e}"))?;
    drop(out);
    let status = Command::new(load_bin)
        .arg("--input")
        .arg(&ds.ntriples)
        .arg("--out")
        .arg(&ds.store)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("run {}: {e}", load_bin.display()))?;
    if !status.success() {
        return Err(format!("elinda-load failed: {status}"));
    }
    fs::write(&done, b"ok\n").map_err(|e| format!("write {}: {e}", done.display()))?;
    Ok(ds)
}

/// Copy a directory tree (regular files and directories only).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        let kind = entry.file_type().map_err(|e| e.to_string())?;
        if kind.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
