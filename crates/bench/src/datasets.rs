//! Standard dataset instances used across the experiment harness.
//!
//! One place defines the scales so every table/figure runs against the same
//! data. The paper's absolute sizes (667 MB / 17 MB / 2.6 GB) shrink to
//! laptop scale; candidate counts and IND structure stay in the paper's
//! regimes (`run_all`'s reports under `experiments/` print measured beside
//! reported).

use ind_datagen::{generate_pdb, generate_scop, generate_uniprot};
use ind_datagen::{BiosqlConfig, OpenMmsConfig, ScopConfig};
use ind_storage::Database;

/// The UniProt-shaped instance (16 tables, 82 attributes).
pub fn uniprot() -> Database {
    generate_uniprot(&BiosqlConfig::default())
}

/// The SCOP-shaped instance (4 tables, 22 attributes).
pub fn scop() -> Database {
    generate_scop(&ScopConfig::default())
}

/// The PDB small fraction (39 tables, 551 attributes) — the paper's 2.6 GB
/// fraction.
pub fn pdb_small() -> Database {
    generate_pdb(&OpenMmsConfig::small_fraction())
}

/// The PDB large fraction (167 tables, ~2,500 attributes) — the paper's
/// 2.7 GB fraction, used by the scalability experiments.
pub fn pdb_large() -> Database {
    generate_pdb(&OpenMmsConfig::large_fraction())
}

#[cfg(test)]
mod tests {
    #[test]
    fn standard_instances_have_the_documented_shapes() {
        let u = super::uniprot();
        assert_eq!((u.table_count(), u.attribute_count()), (16, 82));
        let s = super::scop();
        assert_eq!((s.table_count(), s.attribute_count()), (4, 22));
        let p = super::pdb_small();
        assert_eq!((p.table_count(), p.attribute_count()), (39, 551));
    }
}
