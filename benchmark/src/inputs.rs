//! Set-up: generate a workload's input from the seed, save it as the TSV
//! directory a trial will load, and compute what a correct trial must find.

use crate::catalog::{Dataset, Workload};
use crate::oracle;
use ind_datagen::{
    generate_pdb, generate_uniprot, generate_wide, BiosqlConfig, OpenMmsConfig, WideConfig,
};
use ind_storage::{tsv, Database};
use std::path::Path;
use std::time::Instant;

/// What the driver keeps from one set-up; the database itself is dropped
/// so that it does not sit in memory beside the trials.
#[derive(Debug)]
pub struct Prepared {
    /// Wall time of this set-up (generate + save + oracle).
    pub setup_s: f64,
    /// Total size of the saved TSV directory.
    pub input_bytes: u64,
    /// Digest of the oracle's IND list ([`oracle::digest`]).
    pub oracle_digest: String,
    /// Whether the oracle's set holds every discoverable gold foreign key;
    /// when it does, a trial that reproduces the set holds them too.
    pub gold_covered: bool,
    pub gold_keys: usize,
}

/// Seeded generation with the CLI's `generate --scale` arithmetic, so the
/// sizes here are the sizes a user gets from the same scale.
fn generate(dataset: Dataset, scale: usize, seed: u64) -> Database {
    match dataset {
        Dataset::Pdb => generate_pdb(&OpenMmsConfig {
            entries: scale * 4,
            base_rows: scale * 3,
            seed,
            ..OpenMmsConfig::small_fraction()
        }),
        Dataset::Uniprot => generate_uniprot(&BiosqlConfig {
            bioentries: scale * 8,
            seed,
            ..Default::default()
        }),
        Dataset::Wide => generate_wide(&WideConfig {
            rows: scale * 4,
            value_bytes: 4096,
            seed,
        }),
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Fsyncs every file directly under `dir`. The inputs are flushed during
/// set-up so that a trial's own fsyncs do not also wait for tens of
/// megabytes of freshly written input (an ordered-mode journal commit
/// drags other files' dirty data along with it).
fn flush_files(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::File::open(entry.path())?.sync_all()?;
        }
    }
    Ok(())
}

/// One complete set-up into `input_dir` (replaced if present).
pub fn prepare(
    workload: &Workload,
    quick: bool,
    seed: u64,
    input_dir: &Path,
) -> Result<Prepared, String> {
    let start = Instant::now();
    let scale = if quick {
        workload.quick_scale
    } else {
        workload.scale
    };
    let db = generate(workload.dataset, scale, seed);
    if input_dir.exists() {
        std::fs::remove_dir_all(input_dir).map_err(|e| format!("clearing inputs: {e}"))?;
    }
    tsv::save_database(&db, input_dir).map_err(|e| format!("saving inputs: {e}"))?;
    flush_files(input_dir).map_err(|e| format!("flushing inputs: {e}"))?;
    let oracle_inds = oracle::satisfied_inds(&db);
    let gold = oracle::discoverable_gold(&db)?;
    let gold_covered = gold.iter().all(|g| oracle_inds.binary_search(g).is_ok());
    let input_bytes = dir_bytes(input_dir).map_err(|e| format!("sizing inputs: {e}"))?;
    Ok(Prepared {
        setup_s: start.elapsed().as_secs_f64(),
        input_bytes,
        oracle_digest: oracle::digest(&oracle_inds),
        gold_covered,
        gold_keys: gold.len(),
    })
}
