//! High-level discovery facade: profile → generate candidates → prune →
//! run the chosen algorithm → collect a [`Discovery`], at every arity.

use crate::attr::{extract_profiled, profiles_from_export, try_memory_export, AttributeProfile};
use crate::blockwise::{run_blockwise, BlockwiseConfig};
use crate::brute_force::{run_brute_force, run_brute_force_parallel};
use crate::candidates::{pretest, Candidate, PretestConfig};
use crate::classes::ValueSetClasses;
use crate::metrics::RunMetrics;
use crate::nary::{NaryCandidate, NaryLevelStats};
use crate::single_pass::run_single_pass;
use crate::spider::run_spider;
use ind_storage::{Database, QualifiedName};
use ind_valueset::{
    ExportOptions, ExportedDatabase, FailedAttribute, Result, Source, ValueCursor, ValueSetError,
    ValueSetProvider, MAX_COMPOSITE_ARITY,
};
use std::path::Path;
use std::time::Instant;

/// Which discovery algorithm the finder runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algorithm {
    /// Sequential brute force (Sec. 3.1).
    BruteForce,
    /// Brute force sharded over worker threads (extension).
    BruteForceParallel {
        /// Worker count (≥ 1).
        threads: usize,
    },
    /// The subject–observer single-pass (Sec. 3.2).
    SinglePass,
    /// SPIDER-style tournament-tree merge (Sec. 7 future work).
    Spider,
    /// Block-wise single-pass under a cap on cursors held at once
    /// (Sec. 4.2).
    Blockwise {
        /// Maximum cursors held at once ([`BlockwiseConfig::max_open_files`];
        /// below 2 runs as 2).
        max_open_files: usize,
    },
}

/// Full finder configuration.
#[derive(Debug, Clone)]
pub struct FinderConfig {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Generation-time pretests (cardinality / max-value).
    pub pretests: PretestConfig,
}

impl Default for FinderConfig {
    fn default() -> Self {
        FinderConfig {
            algorithm: Algorithm::BruteForce,
            pretests: PretestConfig::default(),
        }
    }
}

impl FinderConfig {
    /// Convenience: default configuration with the given algorithm.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        FinderConfig {
            algorithm,
            ..Default::default()
        }
    }
}

/// Machine-readable summary of a keep-going (degraded) discovery run:
/// which attributes were quarantined. Present on [`Discovery::degraded`]
/// whenever keep-going mode was on — with an empty `quarantined` list when
/// nothing actually failed. What the fault counters saw (across export,
/// pre-scan and discovery) is in the run's [`RunMetrics`].
#[derive(Debug, Clone, Default)]
pub struct DegradedReport {
    /// Attributes excluded from the run (export failures plus value files
    /// that failed the pre-scan), with the error that condemned each.
    pub quarantined: Vec<FailedAttribute>,
}

impl DegradedReport {
    /// True when every attribute survived — the run was complete despite
    /// running in keep-going mode.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }
}

/// The result of a discovery run, unary or levelwise.
#[derive(Debug, Clone, Default)]
pub struct Discovery {
    /// Profiles of every attribute, indexed by attribute id.
    pub profiles: Vec<AttributeProfile>,
    /// Satisfied unary INDs (level 1), sorted by `(dep, ref)`. A levelwise
    /// run references every non-empty attribute here, a unary run only the
    /// unique ones (see [`crate::nary`]).
    pub satisfied: Vec<Candidate>,
    /// Satisfied composite INDs of every arity ≥ 2, sorted; empty for a
    /// unary run.
    pub composite: Vec<NaryCandidate>,
    /// The profile of every attribute sequence of arity ≥ 2 the search
    /// extracted, sorted by sequence: `non_null` counts the rows with every
    /// component non-NULL, `distinct` the distinct tuples among them. See
    /// [`Discovery::sequence_profile`].
    pub sequence_profiles: Vec<(Vec<u32>, AttributeProfile)>,
    /// Per-level counters, starting at arity 1; one entry for a unary run.
    /// A trailing entry with `generated == 0` records the level at which the
    /// search died out.
    pub levels: Vec<NaryLevelStats>,
    /// Counters for the whole run, across all levels.
    pub metrics: RunMetrics,
    /// Keep-going degradation summary; `None` for strict (default) runs.
    pub degraded: Option<DegradedReport>,
}

impl Discovery {
    /// Profile of attribute `id`.
    pub fn profile(&self, id: u32) -> &AttributeProfile {
        &self.profiles[id as usize]
    }

    /// Satisfied INDs as qualified-name pairs, in `(dep, ref)` order.
    pub fn satisfied_named(&self) -> Vec<(QualifiedName, QualifiedName)> {
        self.satisfied
            .iter()
            .map(|c| {
                (
                    self.profile(c.dep).name.clone(),
                    self.profile(c.refd).name.clone(),
                )
            })
            .collect()
    }

    /// Satisfied composite INDs as qualified-name sequences.
    pub fn composite_named(&self) -> Vec<(Vec<QualifiedName>, Vec<QualifiedName>)> {
        let named = |seq: &[u32]| -> Vec<QualifiedName> {
            seq.iter().map(|&a| self.profile(a).name.clone()).collect()
        };
        self.composite
            .iter()
            .map(|c| (named(&c.dep), named(&c.refd)))
            .collect()
    }

    /// Number of satisfied unary INDs.
    pub fn ind_count(&self) -> usize {
        self.satisfied.len()
    }

    /// The profile of attribute sequence `sequence` — both sides of every
    /// composite IND in [`Discovery::composite`] have one.
    pub fn sequence_profile(&self, sequence: &[u32]) -> Option<&AttributeProfile> {
        let found = self
            .sequence_profiles
            .binary_search_by(|(s, _)| s.as_slice().cmp(sequence));
        found.ok().map(|i| &self.sequence_profiles[i].1)
    }

    /// Largest arity at which an IND was found (1 when only unary INDs
    /// exist, 0 when none at all).
    pub fn max_arity_found(&self) -> usize {
        self.composite
            .iter()
            .map(NaryCandidate::arity)
            .max()
            .unwrap_or(usize::from(!self.satisfied.is_empty()))
    }
}

/// Where [`IndFinder::run`] keeps the value sets it validates.
#[derive(Debug, Clone, Copy)]
pub enum Backend<'a> {
    /// Extracted into memory on exactly `threads` workers, the unary sets
    /// and every level's composite sets — the CLI's default, for databases
    /// whose distinct values fit in RAM. The result is the same at any
    /// count.
    Memory {
        /// Extraction workers (≥ 1).
        threads: usize,
    },
    /// Exported to sorted value files under `workdir` — the paper's actual
    /// pipeline — with `options` (workers, sort budget, I/O block size,
    /// keep-going, resume, faults).
    Disk {
        /// Where the value files go: a unary run's export is `workdir`
        /// itself, a levelwise run's level `k` is `workdir/arity-k`.
        workdir: &'a Path,
        /// The export's options; every level reads through its I/O options.
        options: &'a ExportOptions,
    },
}

impl<'a> Backend<'a> {
    /// In memory on every core ([`ind_storage::default_workers`]).
    pub fn memory() -> Self {
        Backend::Memory {
            threads: ind_storage::default_workers(),
        }
    }

    /// On disk under `workdir`, with `options`.
    pub fn disk(workdir: &'a Path, options: &'a ExportOptions) -> Self {
        Backend::Disk { workdir, options }
    }
}

/// High-level IND finder. [`IndFinder::run`] is its one entry point for a
/// database: every arity, in memory or on disk, returning one
/// [`Discovery`]. [`IndFinder::discover`] validates over value sets that
/// already exist, so one export can serve several runs.
///
/// ```
/// use ind_core::{Algorithm, Backend, IndFinder};
/// use ind_storage::{ColumnSchema, DataType, Database, Table, TableSchema};
///
/// let mut db = Database::new("demo");
/// let mut parent = Table::new(TableSchema::new(
///     "parent",
///     vec![ColumnSchema::new("id", DataType::Integer).not_null().unique()],
/// )?);
/// let mut child = Table::new(TableSchema::new(
///     "child",
///     vec![ColumnSchema::new("parent_id", DataType::Integer)],
/// )?);
/// for i in 0..10i64 {
///     parent.insert(vec![i.into()])?;
///     child.insert(vec![(i % 5).into()])?;
/// }
/// db.add_table(parent)?;
/// db.add_table(child)?;
///
/// let discovery =
///     IndFinder::with_algorithm(Algorithm::SinglePass).run(&db, &Backend::memory(), 1)?;
/// let named: Vec<String> = discovery
///     .satisfied_named()
///     .iter()
///     .map(|(dep, refd)| format!("{dep} <= {refd}"))
///     .collect();
/// assert_eq!(named, vec!["child.parent_id <= parent.id".to_string()]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndFinder {
    /// Configuration used by every run.
    pub config: FinderConfig,
}

impl IndFinder {
    /// Finder with the given configuration.
    pub fn new(config: FinderConfig) -> Self {
        IndFinder { config }
    }

    /// Finder running `algorithm` with default pretests.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        IndFinder::new(FinderConfig::with_algorithm(algorithm))
    }

    /// Discovers every satisfied IND of `db` up to `max_arity` (clamped to
    /// 1..=[`MAX_COMPOSITE_ARITY`]) over `backend`. Level 1 is the unary
    /// pass, and `max_arity == 1` stops after it; see [`crate::nary`] for
    /// the levels and the one rule that tells the two apart.
    ///
    /// On disk, [`RunMetrics::read_calls`] counts the discovery's block
    /// fills, every level's included, and not the export's. When
    /// [`ExportOptions::keep_going`] is set, the run degrades instead of
    /// dying: the export quarantines what fails to export, then every
    /// surviving value file is pre-scanned through the checksum verifier
    /// and unreadable or corrupt ones are quarantined too. Every candidate
    /// touching a quarantined attribute is dropped, the apriori join keeps
    /// it out of every level, and [`Discovery::degraded`] carries the
    /// [`DegradedReport`]. A composite level is always rewritten and runs
    /// strict: a failed composite stream fails the run, keep-going or not.
    pub fn run(&self, db: &Database, backend: &Backend, max_arity: usize) -> Result<Discovery> {
        let start = Instant::now();
        let max_arity = max_arity.clamp(1, MAX_COMPOSITE_ARITY);
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let mut discovery = match *backend {
            Backend::Memory { threads } => {
                // The same phase names as on disk: `export` with one `sort`
                // child per attribute.
                let export_span = ind_trace::start(ind_trace::EXPORT);
                let (profiles, provider) = try_memory_export(db, threads)?;
                export_span.finish();
                self.discover_levels(&profiles, &provider, &[], max_arity, |_, groups| {
                    let _span = ind_trace::start(ind_trace::EXPORT);
                    extract_profiled(Source::groups(db, groups)?, threads)
                })?
            }
            Backend::Disk { workdir, options } => {
                // A unary export lands in `workdir` itself, where `--resume`
                // reopens it; a levelwise run gives each level a directory.
                let level_dir = |arity: usize| match max_arity {
                    1 => workdir.to_path_buf(),
                    _ => workdir.join(format!("arity-{arity}")),
                };
                let export = ExportedDatabase::export(db, &level_dir(1), options)?;
                let profile_span = ind_trace::start(ind_trace::PROFILE);
                let profiles = profiles_from_export(&export);
                profile_span.finish();
                let quarantined = if options.keep_going {
                    prescan(&export)?
                } else {
                    Vec::new()
                };
                // The export's and the pre-scan's fault counters, before the
                // reset that makes the read counters count the discovery's.
                let (io_retries, checksum_failures) =
                    (export.io_retries(), export.checksum_failures());
                export.reset_read_calls();
                let ids: Vec<u32> = quarantined.iter().map(|f| f.id).collect();
                let mut level_options = options.clone();
                level_options.sort.io = export.io_options().clone();
                let mut discovery =
                    self.discover_levels(&profiles, &export, &ids, max_arity, |arity, groups| {
                        let dir = level_dir(arity);
                        let level =
                            ExportedDatabase::export_groups(db, groups, &dir, &level_options)?;
                        Ok((profiles_from_export(&level), level))
                    })?;
                let metrics = &mut discovery.metrics;
                metrics.key_compares += export.sort_key_compares();
                metrics.memcmp_compares += export.sort_memcmp_compares();
                metrics.read_calls = export.read_calls();
                metrics.io_retries = io_retries + export.io_retries();
                metrics.checksum_failures = checksum_failures + export.checksum_failures();
                metrics.exports_reused = export.exports_reused();
                metrics.exports_redone = export.exports_redone();
                metrics.orphans_swept = export.orphans_swept();
                discovery.degraded = options.keep_going.then_some(DegradedReport { quarantined });
                discovery
            }
        };
        // Cover the export too, so the span tree's phases account for
        // (nearly) all of `elapsed`.
        discovery.metrics.elapsed = start.elapsed();
        Ok(discovery)
    }

    /// [`IndFinder::run`] at arity 1 in memory on every core. Kept for the
    /// out-of-workspace `benchmark/` package, which calls it until it moves
    /// to `run`; nothing in the workspace calls it.
    #[doc(hidden)]
    pub fn discover_in_memory(&self, db: &Database) -> Result<Discovery> {
        self.run(db, &Backend::memory(), 1)
    }

    /// [`IndFinder::run`] at arity 1 on disk. Kept for the out-of-workspace
    /// `benchmark/` package, which calls it until it moves to `run`;
    /// nothing in the workspace calls it.
    #[doc(hidden)]
    pub fn discover_on_disk_with(
        &self,
        db: &Database,
        workdir: &Path,
        options: &ExportOptions,
    ) -> Result<Discovery> {
        self.run(db, &Backend::disk(workdir, options), 1)
    }

    /// Discovers the satisfied unary INDs over pre-computed profiles and a
    /// value set provider with the same ids — a unary run over value sets
    /// that already exist, so one export can serve several discoveries.
    pub fn discover<P>(&self, profiles: &[AttributeProfile], provider: &P) -> Result<Discovery>
    where
        P: ValueSetProvider + Sync,
    {
        let start = Instant::now();
        let mut discovery = self.discover_levels(profiles, provider, &[], 1, |_, _| {
            unreachable!("a unary run extracts no composite level")
        })?;
        discovery.metrics.elapsed = start.elapsed();
        Ok(discovery)
    }

    /// The validation step of every arity, over `profiles` (indexed by id)
    /// and a provider with the same ids. Under a `generate` span, take the
    /// candidates `generate` makes, drop those touching a quarantined
    /// attribute, then those the pretests refute; sort the survivors'
    /// attributes into classes of equal value sets (see [`crate::classes`]),
    /// run the configured engine over one representative pair per pair of
    /// classes, and expand its answer back over the candidates. Returns the
    /// satisfied candidates, sorted, and adds them to
    /// [`RunMetrics::satisfied`] in place of the representative pairs the
    /// engine counted.
    pub(crate) fn validate<P>(
        &self,
        profiles: &[AttributeProfile],
        provider: &P,
        generate: impl FnOnce(&mut RunMetrics) -> Vec<Candidate>,
        quarantined: &[u32],
        metrics: &mut RunMetrics,
    ) -> Result<Vec<Candidate>>
    where
        P: ValueSetProvider + Sync,
    {
        let generate_span = ind_trace::start(ind_trace::GENERATE);
        let mut candidates = generate(metrics);
        if !quarantined.is_empty() {
            candidates.retain(|c| !quarantined.contains(&c.dep) && !quarantined.contains(&c.refd));
            metrics.quarantined_attributes = quarantined.len() as u64;
        }
        pretest(&mut candidates, profiles, &self.config.pretests, metrics);
        generate_span.finish();
        let classes_span = ind_trace::start(ind_trace::CLASSES);
        let classes = ValueSetClasses::of(profiles, &candidates, provider, metrics)?;
        let pairs = classes.pairs_to_test(&candidates);
        classes_span.finish();
        let satisfied_before = metrics.satisfied;
        let found = match &self.config.algorithm {
            Algorithm::BruteForce => run_brute_force(provider, &pairs, metrics)?,
            Algorithm::BruteForceParallel { threads } => {
                run_brute_force_parallel(provider, &pairs, *threads, metrics)?
            }
            Algorithm::SinglePass => run_single_pass(provider, &pairs, metrics)?,
            Algorithm::Spider => run_spider(provider, &pairs, metrics)?,
            Algorithm::Blockwise { max_open_files } => run_blockwise(
                provider,
                &pairs,
                &BlockwiseConfig {
                    max_open_files: *max_open_files,
                },
                metrics,
            )?,
        };
        // The classes step again: their answer back over the candidates.
        let _classes_span = ind_trace::start(ind_trace::CLASSES);
        let mut satisfied = classes.expand(&candidates, &found);
        satisfied.sort();
        metrics.satisfied = satisfied_before + satisfied.len() as u64;
        Ok(satisfied)
    }
}

/// The keep-going pre-scan: every attribute the export failed, plus every
/// value file that does not drain clean through the verifying reader — a
/// torn write, a bit flip or an unreadable file surfaces here, before its
/// bytes can influence a single candidate.
fn prescan(export: &ExportedDatabase) -> Result<Vec<FailedAttribute>> {
    let _span = ind_trace::start(ind_trace::PRESCAN);
    let mut failed = export.failed_attributes().to_vec();
    for attr in export.attributes() {
        if failed.iter().any(|f| f.id == attr.id) {
            continue;
        }
        let drained = export.open(attr.id).and_then(|mut cursor| {
            while cursor.advance()? {}
            Ok(())
        });
        match drained {
            Ok(()) => {}
            // A cancellation surfacing mid-drain is a stop order, not
            // evidence against the file.
            Err(e @ ValueSetError::Cancelled { .. }) => return Err(e),
            Err(e) => failed.push(FailedAttribute {
                id: attr.id,
                name: attr.name.clone(),
                error: e.to_string(),
            }),
        }
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, DataType, Table, TableSchema};
    use ind_testkit::TempDir;

    /// parent(id unique) ← child(parent_id), plus an unrelated label column.
    fn sample_db() -> Database {
        let mut db = Database::new("runner");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("label", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..20i64 {
            parent
                .insert(vec![i.into(), format!("label-{i}").into()])
                .unwrap();
        }
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnSchema::new("id", DataType::Integer)
                        .not_null()
                        .unique(),
                    ColumnSchema::new("parent_id", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..40i64 {
            child
                .insert(vec![(1000 + i).into(), (i % 20).into()])
                .unwrap();
        }
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db
    }

    /// `finder`'s unary run in memory, on every core.
    fn in_memory(finder: &IndFinder, db: &Database) -> Discovery {
        finder.run(db, &Backend::memory(), 1).unwrap()
    }

    /// `finder`'s unary run on disk under `dir`, with `options`.
    fn on_disk(
        finder: &IndFinder,
        db: &Database,
        dir: &TempDir,
        options: &ExportOptions,
    ) -> Result<Discovery> {
        finder.run(db, &Backend::disk(dir.path(), options), 1)
    }

    fn expected_ind(d: &Discovery) -> bool {
        d.satisfied_named().iter().any(|(dep, refd)| {
            dep.to_string() == "child.parent_id" && refd.to_string() == "parent.id"
        })
    }

    #[test]
    fn every_algorithm_finds_the_foreign_key() {
        let db = sample_db();
        for algorithm in [
            Algorithm::BruteForce,
            Algorithm::BruteForceParallel { threads: 3 },
            Algorithm::SinglePass,
            Algorithm::Spider,
            Algorithm::Blockwise { max_open_files: 3 },
        ] {
            let finder = IndFinder::with_algorithm(algorithm.clone());
            let d = in_memory(&finder, &db);
            assert!(expected_ind(&d), "{algorithm:?} missed the FK IND");
        }
    }

    #[test]
    fn algorithms_agree_exactly() {
        let db = sample_db();
        let baseline = in_memory(&IndFinder::with_algorithm(Algorithm::BruteForce), &db);
        for algorithm in [
            Algorithm::SinglePass,
            Algorithm::Spider,
            Algorithm::Blockwise { max_open_files: 2 },
            Algorithm::BruteForceParallel { threads: 2 },
        ] {
            let d = in_memory(&IndFinder::with_algorithm(algorithm.clone()), &db);
            assert_eq!(d.satisfied, baseline.satisfied, "{algorithm:?}");
        }
    }

    #[test]
    fn on_disk_matches_in_memory() {
        let db = sample_db();
        let dir = TempDir::new("runner-disk");
        let finder = IndFinder::with_algorithm(Algorithm::SinglePass);
        let mem = in_memory(&finder, &db);
        let disk = on_disk(&finder, &db, &dir, &ExportOptions::default()).unwrap();
        assert_eq!(mem.satisfied, disk.satisfied);
        assert_eq!(mem.profiles.len(), disk.profiles.len());
        assert_eq!(mem.metrics.read_calls, 0, "memory provider never reads");
        assert!(disk.metrics.read_calls > 0, "disk cursors must be counted");
    }

    #[test]
    fn on_disk_block_size_changes_read_calls_not_results() {
        let db = sample_db();
        let finder = IndFinder::with_algorithm(Algorithm::Spider);
        let mem = in_memory(&finder, &db);
        let mut read_calls = Vec::new();
        for block_size in [ind_valueset::MIN_BLOCK_SIZE, 4096, 256 * 1024] {
            let dir = TempDir::new("runner-disk-bs");
            let disk = on_disk(
                &finder,
                &db,
                &dir,
                &ExportOptions::with_block_size(block_size),
            )
            .unwrap();
            assert_eq!(disk.satisfied, mem.satisfied, "block_size={block_size}");
            assert_eq!(disk.metrics.items_read, mem.metrics.items_read);
            assert_eq!(disk.metrics.comparisons, mem.metrics.comparisons);
            assert_eq!(disk.metrics.value_bytes_read, mem.metrics.value_bytes_read);
            read_calls.push(disk.metrics.read_calls);
        }
        assert!(
            read_calls.windows(2).all(|w| w[0] >= w[1]),
            "read calls must not grow with block size: {read_calls:?}"
        );
    }

    #[test]
    fn pretests_and_pruning_do_not_change_results() {
        let db = sample_db();
        let baseline = in_memory(&IndFinder::default(), &db);

        let max_cfg = FinderConfig {
            pretests: PretestConfig::with_max_value(),
            ..Default::default()
        };
        let with_max = in_memory(&IndFinder::new(max_cfg), &db);
        assert_eq!(with_max.satisfied, baseline.satisfied);
    }

    /// Export options with `spec` parsed into an injected fault plan.
    fn fault_options(spec: &str) -> ExportOptions {
        let plan = std::sync::Arc::new(ind_valueset::FaultPlan::parse(spec).unwrap());
        let mut options = ExportOptions::default();
        options.sort.io = ind_valueset::IoOptions::default().with_fault(plan);
        options
    }

    #[test]
    fn keep_going_quarantines_a_corrupt_value_file_and_keeps_healthy_fks() {
        let db = sample_db();
        let finder = IndFinder::with_algorithm(Algorithm::SinglePass);
        let clean_dir = TempDir::new("runner-kg-clean");
        let baseline = on_disk(&finder, &db, &clean_dir, &ExportOptions::default()).unwrap();
        assert!(expected_ind(&baseline));
        assert!(baseline.degraded.is_none(), "strict runs carry no report");

        // Bit-flip in parent.label's value file (attribute id 1): the
        // keep-going pre-scan condemns it, everything else proceeds
        // untouched — including the gold FK, which never involves it.
        let dir = TempDir::new("runner-kg-flip");
        let options = fault_options("read:attr-00001:flip=40").keep_going(true);
        let d = on_disk(&finder, &db, &dir, &options).unwrap();
        let report = d.degraded.as_ref().expect("keep-going always reports");
        assert!(!report.is_clean());
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert_eq!(report.quarantined[0].id, 1);
        assert_eq!(report.quarantined[0].name.to_string(), "parent.label");
        assert!(d.metrics.checksum_failures >= 1);
        assert_eq!(d.metrics.quarantined_attributes, 1);
        assert_eq!(d.satisfied, baseline.satisfied);
        assert!(expected_ind(&d));
    }

    #[test]
    fn keep_going_survives_a_fault_that_kills_the_strict_run() {
        let db = sample_db();
        for algorithm in [
            Algorithm::SinglePass,
            Algorithm::BruteForceParallel { threads: 3 },
        ] {
            let finder = IndFinder::with_algorithm(algorithm.clone());
            let strict_dir = TempDir::new("runner-kg-strict");
            let strict = on_disk(
                &finder,
                &db,
                &strict_dir,
                &fault_options("read:attr-00000:flip=60"),
            );
            assert!(
                strict.is_err(),
                "{algorithm:?}: strict run must die on the corruption"
            );

            let lax_dir = TempDir::new("runner-kg-lax");
            let options = fault_options("read:attr-00000:flip=60").keep_going(true);
            let d = on_disk(&finder, &db, &lax_dir, &options).unwrap();
            let report = d.degraded.as_ref().unwrap();
            let ids: Vec<u32> = report.quarantined.iter().map(|f| f.id).collect();
            assert_eq!(ids, vec![0], "{algorithm:?}");
            assert!(
                d.satisfied.iter().all(|c| c.dep != 0 && c.refd != 0),
                "{algorithm:?}: no surviving IND may mention the quarantined attribute"
            );
        }
    }

    #[test]
    fn a_corrupt_twin_fails_the_strict_run_and_alone_is_quarantined() {
        // child.parent_id (3) holds exactly parent.id's (0) values, so the
        // engine only ever reads 0. The class compare still reads 3, through
        // the checksum-verifying reader: its corruption cannot pass as
        // equality.
        let db = sample_db();
        for algorithm in [Algorithm::Spider, Algorithm::BruteForce] {
            let finder = IndFinder::with_algorithm(algorithm.clone());
            let clean_dir = TempDir::new("runner-twin-clean");
            let baseline = on_disk(&finder, &db, &clean_dir, &ExportOptions::default()).unwrap();
            assert_eq!(baseline.metrics.value_set_classes, 3, "{algorithm:?}");
            assert!(baseline.satisfied.contains(&Candidate::new(3, 0)));

            let strict_dir = TempDir::new("runner-twin-strict");
            let err = on_disk(
                &finder,
                &db,
                &strict_dir,
                &fault_options("read:attr-00003:flip=40"),
            )
            .unwrap_err();
            assert!(
                err.to_string().contains("attr-00003"),
                "{algorithm:?}: {err}"
            );

            let lax_dir = TempDir::new("runner-twin-lax");
            let options = fault_options("read:attr-00003:flip=40").keep_going(true);
            let d = on_disk(&finder, &db, &lax_dir, &options).unwrap();
            let ids: Vec<u32> = d
                .degraded
                .as_ref()
                .unwrap()
                .quarantined
                .iter()
                .map(|f| f.id)
                .collect();
            assert_eq!(ids, vec![3], "{algorithm:?}");
            let expected: Vec<Candidate> = baseline
                .satisfied
                .iter()
                .copied()
                .filter(|c| c.dep != 3 && c.refd != 3)
                .collect();
            assert_eq!(d.satisfied, expected, "{algorithm:?}");
        }
    }

    #[test]
    fn keep_going_with_transient_faults_stays_clean_and_counts_retries() {
        let db = sample_db();
        let finder = IndFinder::with_algorithm(Algorithm::Spider);
        let clean_dir = TempDir::new("runner-kg-eintr-base");
        let baseline = on_disk(&finder, &db, &clean_dir, &ExportOptions::default()).unwrap();
        let dir = TempDir::new("runner-kg-eintr");
        let options = fault_options("read:*:eintr@4,write:*:eintr@4").keep_going(true);
        let d = on_disk(&finder, &db, &dir, &options).unwrap();
        let report = d.degraded.as_ref().unwrap();
        assert!(
            report.is_clean(),
            "transient faults are healed, not quarantined: {:?}",
            report.quarantined
        );
        assert!(
            d.metrics.io_retries >= 8,
            "retries: {}",
            d.metrics.io_retries
        );
        assert_eq!(d.metrics.checksum_failures, 0);
        assert_eq!(d.satisfied, baseline.satisfied);
    }

    #[test]
    fn keep_going_reports_export_failures_in_the_degraded_report() {
        let db = sample_db();
        let finder = IndFinder::with_algorithm(Algorithm::SinglePass);
        let dir = TempDir::new("runner-kg-enospc");
        let options = fault_options("write:attr-00001:enospc").keep_going(true);
        let d = on_disk(&finder, &db, &dir, &options).unwrap();
        let report = d.degraded.as_ref().unwrap();
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert_eq!(report.quarantined[0].id, 1);
        assert!(report.quarantined[0].error.contains("attr-00001"));
        assert!(expected_ind(&d));
    }

    #[test]
    fn cancellation_interrupts_in_memory_extraction_before_the_merge() {
        use ind_valueset::{cancel, CancelToken};
        let db = sample_db(); // four attributes
        for algorithm in [
            Algorithm::Spider,
            Algorithm::BruteForceParallel { threads: 3 },
        ] {
            let finder = IndFinder::with_algorithm(algorithm.clone());
            // Fires on the first poll: that poll is the export's, so the
            // run stops before a provider exists — no cursor was opened.
            let token = CancelToken::cancel_after(1);
            let err = {
                let _ambient = cancel::set_ambient(Some(token.clone()));
                finder.run(&db, &Backend::memory(), 1).unwrap_err()
            };
            assert!(
                matches!(err, ValueSetError::Cancelled { phase: "export" }),
                "{algorithm:?}: {err:?}"
            );
            assert_eq!(token.phase(), Some("export"), "{algorithm:?}");

            // One poll per column: the fourth still lands in the export,
            // the fifth is the merge's.
            for (polls, in_export) in [(4, true), (5, false)] {
                let token = CancelToken::cancel_after(polls);
                let _ambient = cancel::set_ambient(Some(token.clone()));
                let err = finder.run(&db, &Backend::memory(), 1).unwrap_err();
                assert!(matches!(err, ValueSetError::Cancelled { .. }), "{err:?}");
                assert_eq!(
                    token.phase() == Some("export"),
                    in_export,
                    "{algorithm:?}, {polls} polls: {:?}",
                    token.phase()
                );
            }

            // The infallible export masks the token instead of panicking.
            let _ambient = cancel::set_ambient(Some(CancelToken::cancel_after(0)));
            let (profiles, _) = crate::memory_export(&db);
            assert_eq!(profiles.len(), 4);
            assert!(cancel::check_ambient("test").is_err(), "mask is scoped");
        }
    }

    #[test]
    fn metrics_are_populated() {
        let db = sample_db();
        let d = in_memory(&IndFinder::default(), &db);
        assert!(d.metrics.pairs_considered > 0);
        assert!(d.metrics.tested > 0);
        assert_eq!(d.metrics.satisfied as usize, d.ind_count());
        assert!(d.metrics.items_read > 0);
    }
}
