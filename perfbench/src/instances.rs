//! Workload inputs: the Table 1 suite, its synthesised implementations,
//! and the `.bench` files the timed checks load.

use crate::eval;
use sec_bench::{make_instance, RunConfig};
use sec_gen::iscas_alike_suite;
use sec_netlist::{write_bench, Aig};
use std::path::{Path, PathBuf};

/// One spec/implementation pair, in memory and on disk.
pub struct Pair {
    pub name: String,
    pub spec: Aig,
    pub imp: Aig,
    pub spec_path: PathBuf,
    pub impl_path: PathBuf,
}

/// Writes `aig` as `.bench` text to `path`.
pub fn write_model(path: &Path, aig: &Aig) {
    std::fs::write(path, write_bench(aig))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Generates the suite, synthesises the implementation of every named
/// row with its Table 1 instance seed, and writes both circuits of each
/// pair under `dir`. Rows come back in the order of `rows`.
pub fn table1_pairs(rows: &[&str], dir: &Path) -> Vec<Pair> {
    let suite = iscas_alike_suite(usize::MAX);
    // Every row keeps `table1`'s default instance seed, so a row here
    // is the row `table1` checks and the partition reference
    // (`reference.tsv`) stays one fixed table.
    let cfg = RunConfig::default();
    rows.iter()
        .map(|&row| {
            let entry = suite
                .iter()
                .find(|e| e.name == row)
                .unwrap_or_else(|| panic!("no suite row {row}"));
            let imp = make_instance(entry, &cfg);
            let spec_path = dir.join(format!("{row}.spec.bench"));
            let impl_path = dir.join(format!("{row}.impl.bench"));
            write_model(&spec_path, &entry.aig);
            write_model(&impl_path, &imp);
            Pair {
                name: row.to_string(),
                spec: entry.aig.clone(),
                imp,
                spec_path,
                impl_path,
            }
        })
        .collect()
}

/// Frames per random sequence of the evaluator's agreement check.
pub const AGREE_FRAMES: usize = 48;

/// Confirms, on the benchmark's own evaluator, that every pair agrees
/// on 2 × 64 seeded random input sequences. Returns the names of pairs
/// that do not.
pub fn disagreeing(pairs: &[Pair], seed: u64) -> Vec<String> {
    pairs
        .iter()
        .enumerate()
        .filter(|(i, p)| {
            (0..2u64).any(|k| {
                let s = seed ^ ((*i as u64) << 20) ^ (k << 40);
                eval::first_mismatch(&p.spec, &p.imp, AGREE_FRAMES, s).is_some()
            })
        })
        .map(|(_, p)| p.name.clone())
        .collect()
}
