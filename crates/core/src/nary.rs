//! Levelwise n-ary (composite) inclusion dependency discovery.
//!
//! The paper scopes SPIDER to unary INDs and leaves composite keys as
//! future work (Sec. 7). This module adds that layer **on top of** the
//! existing engines rather than beside them:
//!
//! 1. **Level 1** runs the tuned unary pipeline, with one deliberate
//!    relaxation: referenced attributes do not need to be unique. The
//!    uniqueness restriction is an FK-*guessing* heuristic (Aladin step 2),
//!    not part of the IND definition — and the levelwise search needs the
//!    complete unary IND set, because a composite key's component columns
//!    (`chain.pdb_code`, `chain.chain_id`, …) are rarely unique on their
//!    own.
//! 2. **Level k** generates arity-`k` candidates MIND/apriori-style from
//!    the satisfied arity-`k−1` INDs: two INDs join into a `k`-ary
//!    candidate when they share their first `k−2` positions on both sides,
//!    the table of their last dependent and the table of their last
//!    reference (one sort of the level groups them into runs). It survives
//!    only if *every* arity-`k−1` projection is itself satisfied (a binary
//!    search in the sorted level). This projection pruning is what keeps
//!    the exponential candidate space tractable; the rejected joins are
//!    counted in [`RunMetrics::pruned_projection`] and per level in
//!    [`NaryLevelStats`].
//! 3. Each level's candidates are validated by the **unchanged** SPIDER
//!    merge engine: every distinct attribute sequence becomes one composite
//!    value stream (rows tuple-encoded with the order-preserving encoding
//!    of [`ind_valueset::encode_tuple`], so byte-wise comparison equals
//!    lexicographic tuple comparison and the external sort, block reader,
//!    and zero-copy cursors all work unchanged), and the composite ids play
//!    the role unary attribute ids play elsewhere. On disk a level is an
//!    [`ExportedDatabase`] too: [`ExportedDatabase::export_groups`] writes
//!    its streams on the unary export's workers through the same group
//!    commit, and the run shares the unary finder's preamble (export,
//!    profiles, keep-going pre-scan) and epilogue (counters, degraded
//!    report).
//!
//! The driver iterates until a level yields no candidates or
//! [`NaryConfig::max_arity`] is reached.
//!
//! **Canonical form.** Permuting a composite IND's positions on both sides
//! yields an equivalent IND, so candidates are normalised to strictly
//! increasing dependent attribute ids; the referenced sequence carries the
//! alignment. Both sides must be columns of a single table (a tuple is a
//! row projection) and must not repeat an attribute.
//!
//! **NULL semantics.** A row contributes a tuple only when every component
//! is non-NULL, mirroring how unary extraction drops NULL occurrences. On
//! NULL-free data the projection rule is exact (a satisfied composite IND
//! implies all its projections); with NULLs a composite IND can hold while
//! a unary projection fails — such exotic INDs are outside the levelwise
//! search space, the standard trade-off of the MIND family.

use crate::attr::{try_memory_export, AttributeProfile};
use crate::candidates::{Candidate, PretestConfig};
use crate::metrics::RunMetrics;
use crate::runner::{DegradedReport, DiskRun};
use crate::spider::run_spider;
use ind_storage::{Column, Database, QualifiedName};
use ind_valueset::{
    extract_composite_memory_set, ExportOptions, ExportedDatabase, MemoryProvider, Result,
    ValueSetProvider, MAX_COMPOSITE_ARITY,
};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// An n-ary IND candidate `(dep[0], …, dep[k−1]) ⊆ (ref[0], …, ref[k−1])`
/// over unary attribute ids, aligned positionally. A satisfied candidate
/// *is* a composite inclusion dependency. Canonical form: `dep` strictly
/// increasing, both sides single-table and duplicate-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NaryCandidate {
    /// Dependent attribute sequence (strictly increasing ids).
    pub dep: Vec<u32>,
    /// Referenced attribute sequence, aligned with `dep`.
    pub refd: Vec<u32>,
}

impl NaryCandidate {
    /// Builds a candidate; debug-asserts the canonical-form invariants.
    pub fn new(dep: Vec<u32>, refd: Vec<u32>) -> Self {
        debug_assert_eq!(dep.len(), refd.len());
        debug_assert!(dep.windows(2).all(|w| w[0] < w[1]), "dep not canonical");
        NaryCandidate { dep, refd }
    }

    /// Number of column pairs.
    pub fn arity(&self) -> usize {
        self.dep.len()
    }
}

/// Configuration for the levelwise driver.
#[derive(Debug, Clone)]
pub struct NaryConfig {
    /// Largest arity to search (≥ 1; level 1 is the unary pass). Clamped to
    /// [`MAX_COMPOSITE_ARITY`].
    pub max_arity: usize,
    /// Pretests applied during level-1 candidate generation.
    pub pretests: PretestConfig,
}

impl Default for NaryConfig {
    fn default() -> Self {
        NaryConfig {
            max_arity: 2,
            pretests: PretestConfig::default(),
        }
    }
}

/// Per-level counters: the evidence that projection pruning engages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaryLevelStats {
    /// Arity of this level.
    pub arity: usize,
    /// Candidates of this arity enumerable *without* projection pruning:
    /// every same-table sorted dependent combination against every
    /// same-table referenced permutation (minus identical sequences). The
    /// denominator of the apriori saving.
    pub enumerable: u64,
    /// Candidates actually generated (and therefore validated).
    pub generated: u64,
    /// Joined candidate pairs rejected because a sub-projection was not a
    /// satisfied IND.
    pub pruned_projection: u64,
    /// Satisfied INDs found at this level.
    pub satisfied: u64,
    /// Candidates dropped at this level because a component attribute was
    /// quarantined by a keep-going run (level 1 filters directly; higher
    /// levels inherit the exclusion through the apriori join and read 0).
    pub quarantined_candidates: u64,
    /// Wall-clock time of the level (generation + extraction + merge).
    pub elapsed: Duration,
}

/// Result of a levelwise n-ary discovery run.
#[derive(Debug, Clone)]
pub struct NaryDiscovery {
    /// Profiles of every unary attribute, indexed by attribute id.
    pub profiles: Vec<AttributeProfile>,
    /// Satisfied unary INDs (level 1, with the relaxed referenced-side
    /// eligibility documented in the module docs), sorted.
    pub unary: Vec<Candidate>,
    /// Satisfied composite INDs of every arity ≥ 2, sorted.
    pub satisfied: Vec<NaryCandidate>,
    /// Per-level counters, starting at arity 1. A trailing entry with
    /// `generated == 0` records the level at which the search died out.
    pub levels: Vec<NaryLevelStats>,
    /// Aggregate counters across all levels.
    pub metrics: RunMetrics,
    /// Keep-going degradation summary; `None` for strict (default) runs.
    pub degraded: Option<DegradedReport>,
}

impl NaryDiscovery {
    /// Satisfied composite INDs as qualified-name sequences.
    pub fn satisfied_named(&self) -> Vec<(Vec<QualifiedName>, Vec<QualifiedName>)> {
        self.satisfied
            .iter()
            .map(|c| {
                (
                    c.dep
                        .iter()
                        .map(|&a| self.profiles[a as usize].name.clone())
                        .collect(),
                    c.refd
                        .iter()
                        .map(|&a| self.profiles[a as usize].name.clone())
                        .collect(),
                )
            })
            .collect()
    }

    /// Largest arity at which an IND was found (1 when only unary INDs
    /// exist, 0 when none at all).
    pub fn max_arity_found(&self) -> usize {
        self.satisfied
            .iter()
            .map(NaryCandidate::arity)
            .max()
            .unwrap_or(usize::from(!self.unary.is_empty()))
    }
}

/// High-level n-ary IND finder; the composite counterpart of
/// [`crate::IndFinder`].
#[derive(Debug, Clone, Default)]
pub struct NaryFinder {
    /// Configuration used by every `discover*` call.
    pub config: NaryConfig,
}

impl NaryFinder {
    /// Finder with the given configuration.
    pub fn new(config: NaryConfig) -> Self {
        NaryFinder { config }
    }

    /// Finder searching up to `max_arity` with default pretests.
    pub fn with_max_arity(max_arity: usize) -> Self {
        NaryFinder::new(NaryConfig {
            max_arity,
            ..Default::default()
        })
    }

    /// Runs the levelwise search entirely in memory, extracting the unary
    /// value sets on every core ([`ind_storage::default_workers`]).
    pub fn discover_in_memory(&self, db: &Database) -> Result<NaryDiscovery> {
        self.discover_in_memory_with(db, ind_storage::default_workers())
    }

    /// [`NaryFinder::discover_in_memory`] with exactly `threads` unary
    /// extraction workers. The result is the same at any count.
    pub fn discover_in_memory_with(&self, db: &Database, threads: usize) -> Result<NaryDiscovery> {
        let start = Instant::now();
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let export_span = ind_trace::start(ind_trace::EXPORT);
        let (profiles, provider) = try_memory_export(db, threads)?;
        export_span.finish();
        // Stored columns in profile-id order, for composite extraction.
        let columns: Vec<&Column> = db
            .tables()
            .iter()
            .flat_map(|table| table.iter_cells().map(|(_, _, col)| col))
            .collect();
        let mut discovery = self.drive(&profiles, &provider, &[], |groups| {
            let _span = ind_trace::start(ind_trace::EXPORT);
            let sets = groups
                .iter()
                .map(|group| {
                    let cols: Vec<&Column> = group.iter().map(|&a| columns[a as usize]).collect();
                    extract_composite_memory_set(&cols)
                })
                .collect();
            Ok(MemoryProvider::new(sets))
        })?;
        discovery.metrics.elapsed = start.elapsed();
        Ok(discovery)
    }

    /// Runs the levelwise search over on-disk sorted value files: the unary
    /// export lands under `workdir/arity-1`, each composite level under
    /// `workdir/arity-<k>`. The on-disk preamble and epilogue are the unary
    /// finder's ([`crate::IndFinder::discover_on_disk_with`]): keep-going
    /// quarantines what the export or the pre-scan condemns, and the apriori
    /// join then keeps it out of every level. Each level is an
    /// [`ExportedDatabase::export_groups`] on the unary export's workers and
    /// I/O options, so [`RunMetrics::read_calls`] and the fault counters
    /// cover every level. A level is always rewritten and runs strict: a
    /// failed composite stream fails the run, keep-going or not.
    pub fn discover_on_disk(
        &self,
        db: &Database,
        workdir: &Path,
        options: &ExportOptions,
    ) -> Result<NaryDiscovery> {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let run = DiskRun::prepare(db, &workdir.join("arity-1"), options)?;
        let mut level_options = options.clone();
        level_options.sort.io = run.export.io_options().clone();
        let mut level = 1usize;
        let mut discovery = self.drive(
            &run.profiles,
            &run.export,
            &run.quarantined_ids(),
            |groups| {
                level += 1;
                let named: Vec<Vec<QualifiedName>> = groups
                    .iter()
                    .map(|group| {
                        group
                            .iter()
                            .map(|&a| run.profiles[a as usize].name.clone())
                            .collect()
                    })
                    .collect();
                let dir = workdir.join(format!("arity-{level}"));
                ExportedDatabase::export_groups(db, &named, &dir, &level_options)
            },
        )?;
        discovery.degraded = run.finish(&mut discovery.metrics);
        Ok(discovery)
    }

    /// The levelwise loop over one kind of provider, in memory or on disk:
    /// `make_level` turns the distinct attribute groups of a level into a
    /// provider whose ids are the group indices, under an `export` span of
    /// its own (so each `level` span is covered by its `generate`, `export`
    /// and `spider_merge` children), and every level runs through
    /// [`run_spider`]. The caller opens the `discover` root before its unary
    /// export and sets `metrics.elapsed` over the whole run.
    fn drive<P, F>(
        &self,
        profiles: &[AttributeProfile],
        unary_provider: &P,
        quarantined: &[u32],
        mut make_level: F,
    ) -> Result<NaryDiscovery>
    where
        P: ValueSetProvider,
        F: FnMut(&[Vec<u32>]) -> Result<P>,
    {
        let max_arity = self.config.max_arity.clamp(1, MAX_COMPOSITE_ARITY);
        let mut metrics = RunMetrics::new();
        let table_of = table_indices(profiles);

        // Level 1: the unary engine with relaxed referenced eligibility.
        let level_start = Instant::now();
        let level_span = ind_trace::start_arg(ind_trace::LEVEL, 1);
        let generate_span = ind_trace::start(ind_trace::GENERATE);
        let mut unary_candidates =
            generate_unary_relaxed(profiles, &self.config.pretests, &mut metrics);
        generate_span.finish();
        let mut unary_quarantined = 0u64;
        if !quarantined.is_empty() {
            let before = unary_candidates.len();
            unary_candidates
                .retain(|c| !quarantined.contains(&c.dep) && !quarantined.contains(&c.refd));
            unary_quarantined = (before - unary_candidates.len()) as u64;
            metrics.quarantined_attributes = quarantined.len() as u64;
        }
        let generated = unary_candidates.len() as u64;
        let unary = run_spider(unary_provider, &unary_candidates, &mut metrics)?;
        level_span.finish();
        let mut levels = vec![NaryLevelStats {
            arity: 1,
            enumerable: enumerable_at(profiles, &table_of, 1),
            generated,
            pruned_projection: 0,
            satisfied: unary.len() as u64,
            quarantined_candidates: unary_quarantined,
            elapsed: level_start.elapsed(),
        }];

        // Each level is its attribute sequences and its satisfied INDs as
        // pairs over them, sorted as the sequences sort. Level 1's
        // sequences are the attributes themselves.
        let mut prev: (Vec<Vec<u32>>, _) = (
            (0..profiles.len() as u32).map(|a| vec![a]).collect(),
            unary.clone(),
        );
        let mut found_levels = Vec::new();
        for arity in 2..=max_arity {
            if prev.1.is_empty() {
                break;
            }
            // Cooperative cancellation between levels (each level's merge
            // and extraction also poll on their own).
            ind_valueset::cancel::check_ambient("generate")?;
            let level_start = Instant::now();
            let _level_span = ind_trace::start_arg(ind_trace::LEVEL, arity as u64);
            let pruned_before = metrics.pruned_projection;
            let generate_span = ind_trace::start(ind_trace::GENERATE);
            let (groups, pairs) = generate_level(&prev.0, &prev.1, &table_of, &mut metrics);
            // The apriori join cannot produce a candidate containing a
            // quarantined attribute: its unary projection was never
            // satisfied.
            debug_assert!(groups.iter().flatten().all(|a| !quarantined.contains(a)));
            generate_span.finish();
            let mut stats = NaryLevelStats {
                arity,
                enumerable: enumerable_at(profiles, &table_of, arity),
                generated: pairs.len() as u64,
                pruned_projection: metrics.pruned_projection - pruned_before,
                satisfied: 0,
                quarantined_candidates: 0,
                elapsed: Duration::ZERO,
            };
            if pairs.is_empty() {
                stats.elapsed = level_start.elapsed();
                levels.push(stats);
                break;
            }

            let provider = make_level(&groups)?;
            let mut found = run_spider(&provider, &pairs, &mut metrics)?;
            let rank = content_ranks(&groups);
            found.sort_unstable_by_key(|p| (rank[p.dep as usize], rank[p.refd as usize]));
            stats.satisfied = found.len() as u64;
            stats.elapsed = level_start.elapsed();
            levels.push(stats);
            found_levels.push(std::mem::replace(&mut prev, (groups, found)));
        }
        found_levels.push(prev);

        // Level 1 is reported apart. Each level is sorted; the stable sort
        // merges them into the documented global order, which can
        // interleave arities (e.g. [3,4] < [3,4,5] < [4,5]).
        let mut satisfied: Vec<NaryCandidate> = found_levels[1..]
            .iter()
            .flat_map(|(groups, pairs)| {
                pairs.iter().map(|p| {
                    NaryCandidate::new(
                        groups[p.dep as usize].clone(),
                        groups[p.refd as usize].clone(),
                    )
                })
            })
            .collect();
        satisfied.sort();
        Ok(NaryDiscovery {
            profiles: profiles.to_vec(),
            unary,
            satisfied,
            levels,
            metrics,
            degraded: None,
        })
    }
}

/// Dense table index per attribute id, derived from the qualified names.
fn table_indices(profiles: &[AttributeProfile]) -> Vec<usize> {
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    profiles
        .iter()
        .map(|p| {
            let next = by_name.len();
            *by_name.entry(p.name.table.as_str()).or_insert(next)
        })
        .collect()
}

/// Level-1 candidate generation with the relaxed referenced-side
/// eligibility (any non-empty attribute): the complete unary IND base the
/// apriori levels need. Pretests and counters behave exactly like
/// [`crate::generate_candidates`] — it is the same generator with a wider
/// referenced-side filter.
fn generate_unary_relaxed(
    profiles: &[AttributeProfile],
    pretests: &PretestConfig,
    metrics: &mut RunMetrics,
) -> Vec<Candidate> {
    crate::candidates::generate_candidates_with(profiles, pretests, metrics, |p| p.non_null > 0)
}

/// Generates the arity-`k` candidates from the satisfied arity-`k−1` INDs:
/// `pairs` over the sequences `groups`, sorted as the sequences sort. Two INDs
/// join when they lie in one *run* — the same dependent prefix, referenced
/// prefix, table of the last dependent and table of the last reference — and
/// their last dependents increase; the join must not repeat a reference nor be
/// reflexive, and is kept only when every remaining projection is satisfied.
/// Returns the level's distinct sequences, each one composite value stream
/// numbered in the order the sorted candidates first name it, and the
/// candidates as sorted pairs over those stream ids.
fn generate_level(
    groups: &[Vec<u32>],
    pairs: &[Candidate],
    table_of: &[usize],
    metrics: &mut RunMetrics,
) -> (Vec<Vec<u32>>, Vec<Candidate>) {
    let seq = |id: u32| groups[id as usize].as_slice();
    // The inputs have arity k − 1 ≥ 1; `last` is their last position.
    let Some(last) = pairs.first().and_then(|c| seq(c.dep).len().checked_sub(1)) else {
        return (Vec::new(), Vec::new());
    };
    let sides = |c: &Candidate| (seq(c.dep), seq(c.refd));
    debug_assert!(groups.iter().all(|g| g.len() == last + 1));
    debug_assert!(pairs.windows(2).all(|w| sides(&w[0]) < sides(&w[1])));

    // One stable sort parts the level into runs, each keeping its sorted
    // order. At k = 2 the prefixes are empty and the tables alone part the
    // level; past it the prefixes fix both tables.
    let table = |a: u32| table_of[a as usize];
    let mut order: Vec<_> = pairs
        .iter()
        .map(|&c| {
            let (dep, refd) = sides(&c);
            let prefixes = (&dep[..last], &refd[..last]);
            ((prefixes, table(dep[last]), table(refd[last])), c)
        })
        .collect();
    order.sort_by(|a, b| a.0.cmp(&b.0));

    // A join `(a, b)` is `a` extended by the last position of `b`.
    let (mut proj_dep, mut proj_ref) = (Vec::with_capacity(last), Vec::with_capacity(last));
    let rank = content_ranks(groups);
    let mut joins = Vec::new();
    for run in order.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(_, a)) in run.iter().enumerate() {
            let (a_dep, a_ref) = sides(&a);
            for &(_, b) in &run[i + 1..] {
                // A run is sorted by the last dependent, then the last
                // reference: `da == db` (two references for one dependent)
                // never forms a sorted dependent sequence. The last test
                // rejects the trivially reflexive `dep == refd`.
                let (db, rb) = (seq(b.dep)[last], seq(b.refd)[last]);
                if a_dep[last] == db || a_ref.contains(&rb) || (a_dep == a_ref && db == rb) {
                    continue;
                }
                metrics.pairs_considered += 1;
                // The join covers the projections dropping positions k−1
                // and k−2; look the rest up in the sorted level.
                let all_projections_hold = (0..last).all(|drop| {
                    proj_dep.clear();
                    proj_ref.clear();
                    let joined = a_dep.iter().chain([&db]).zip(a_ref.iter().chain([&rb]));
                    for (p, (&d, &r)) in joined.enumerate() {
                        if p != drop {
                            proj_dep.push(d);
                            proj_ref.push(r);
                        }
                    }
                    pairs
                        .binary_search_by(|c| sides(c).cmp(&(&proj_dep, &proj_ref)))
                        .is_ok()
                });
                if all_projections_hold {
                    let key = (rank[a.dep as usize], db, rank[a.refd as usize], rb);
                    joins.push((key, (a.dep, db), (a.refd, rb)));
                } else {
                    metrics.pruned_projection += 1;
                }
            }
        }
    }

    // Number the level's sequences in candidate order, dependent then
    // reference: each is a sequence of `groups` extended by one attribute,
    // and the key orders the joins as their candidates sort.
    joins.sort_unstable_by_key(|j| j.0);
    let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
    let mut next: Vec<Vec<u32>> = Vec::new();
    let mut id_of = |(head, tail): (u32, u32)| {
        *ids.entry((head, tail)).or_insert_with(|| {
            next.push(seq(head).iter().copied().chain([tail]).collect());
            (next.len() - 1) as u32
        })
    };
    let mut out: Vec<Candidate> = joins
        .into_iter()
        .map(|(_, dep, refd)| Candidate::new(id_of(dep), id_of(refd)))
        .collect();
    out.sort_unstable();
    (next, out)
}

/// Each sequence's position in the sorted order of `groups`.
fn content_ranks(groups: &[Vec<u32>]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..groups.len() as u32).collect();
    order.sort_unstable_by_key(|&g| &groups[g as usize]);
    let mut rank = vec![0; groups.len()];
    for (r, &g) in order.iter().enumerate() {
        rank[g as usize] = r as u32;
    }
    rank
}

/// Counts the arity-`k` candidates enumerable with no projection pruning at
/// all: sorted dependent `k`-combinations within a table × referenced
/// `k`-permutations within a table, minus the identical sequences. The
/// yardstick [`NaryLevelStats::enumerable`] reports.
fn enumerable_at(profiles: &[AttributeProfile], table_of: &[usize], k: usize) -> u64 {
    let tables = table_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut dep_eligible = vec![0u64; tables];
    let mut ref_eligible = vec![0u64; tables];
    let mut both_eligible = vec![0u64; tables];
    for p in profiles {
        let t = table_of[p.id as usize];
        let dep = p.is_dependent_candidate();
        let refd = p.non_null > 0;
        dep_eligible[t] += u64::from(dep);
        ref_eligible[t] += u64::from(refd);
        both_eligible[t] += u64::from(dep && refd);
    }
    let combinations = |n: u64| -> u128 {
        // C(n, k)
        if (n as usize) < k {
            return 0;
        }
        let mut c: u128 = 1;
        for i in 0..k as u128 {
            c = c * (u128::from(n) - i) / (i + 1);
        }
        c
    };
    let permutations = |n: u64| -> u128 {
        // P(n, k)
        if (n as usize) < k {
            return 0;
        }
        (0..k as u128).map(|i| u128::from(n) - i).product()
    };
    let deps: u128 = dep_eligible.iter().map(|&n| combinations(n)).sum();
    let refs: u128 = ref_eligible.iter().map(|&n| permutations(n)).sum();
    let identical: u128 = both_eligible.iter().map(|&n| combinations(n)).sum();
    u64::try_from(deps.saturating_mul(refs).saturating_sub(identical)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, DataType, Table, TableSchema, Value};
    use ind_testkit::TempDir;

    /// parent(a, b) with distinct pairs; child(x, y) whose pairs are drawn
    /// from parent's; decoy(p, q) whose columns are unary subsets of
    /// parent's but whose *pairs* are not.
    fn composite_db() -> Database {
        let mut db = Database::new("nary");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Text),
                ],
            )
            .unwrap(),
        );
        // Pairs (i, t{i % 3}) for i in 0..12: columns individually repeat,
        // pairs are distinct.
        for i in 0..12i64 {
            parent
                .insert(vec![(i % 6).into(), format!("t{}", i % 3).into()])
                .unwrap();
        }
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnSchema::new("x", DataType::Integer),
                    ColumnSchema::new("y", DataType::Text),
                ],
            )
            .unwrap(),
        );
        // Parent's pair function is a → t{a % 3}; child draws a ∈ 0..4, so
        // its pairs are a strict subset of parent's.
        for i in 0..8i64 {
            child
                .insert(vec![(i % 4).into(), format!("t{}", i % 4 % 3).into()])
                .unwrap();
        }
        let mut decoy = Table::new(
            TableSchema::new(
                "decoy",
                vec![
                    ColumnSchema::new("p", DataType::Integer),
                    ColumnSchema::new("q", DataType::Text),
                ],
            )
            .unwrap(),
        );
        // (0, t2) never occurs as a parent pair (0 pairs with t0 only), but
        // 0 ∈ parent.a and "t2" ∈ parent.b.
        decoy.insert(vec![0.into(), "t2".into()]).unwrap();
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        db.add_table(decoy).unwrap();
        db
    }

    fn names(d: &NaryDiscovery) -> Vec<String> {
        d.satisfied_named()
            .iter()
            .map(|(dep, refd)| {
                format!(
                    "({}) <= ({})",
                    dep.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                    refd.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                )
            })
            .collect()
    }

    #[test]
    fn finds_the_composite_ind_and_rejects_the_pairwise_decoy() {
        let db = composite_db();
        let d = NaryFinder::with_max_arity(2)
            .discover_in_memory(&db)
            .unwrap();
        let found = names(&d);
        assert!(
            found.contains(&"(child.x,child.y) <= (parent.a,parent.b)".to_string()),
            "{found:?}"
        );
        // Both decoy projections hold as unary INDs…
        assert!(d.unary.iter().any(|c| {
            d.profiles[c.dep as usize].name.to_string() == "decoy.p"
                && d.profiles[c.refd as usize].name.to_string() == "parent.a"
        }));
        // …but the composite must be refuted by the data.
        assert!(
            !found.contains(&"(decoy.p,decoy.q) <= (parent.a,parent.b)".to_string()),
            "{found:?}"
        );
    }

    #[test]
    fn disk_and_memory_backends_agree() {
        let db = composite_db();
        let finder = NaryFinder::with_max_arity(3);
        let mem = finder.discover_in_memory(&db).unwrap();
        assert_eq!(mem.metrics.read_calls, 0);
        for threads in [1usize, 2] {
            let dir = TempDir::new("nary-disk");
            let disk = finder
                .discover_on_disk(&db, dir.path(), &ExportOptions::with_threads(threads))
                .unwrap();
            assert_eq!(mem.unary, disk.unary, "threads={threads}");
            assert_eq!(mem.satisfied, disk.satisfied, "threads={threads}");
            assert_eq!(mem.levels.len(), disk.levels.len());
            for (m, d) in mem.levels.iter().zip(&disk.levels) {
                assert_eq!(
                    (m.arity, m.generated, m.satisfied),
                    (d.arity, d.generated, d.satisfied)
                );
                assert_eq!(m.pruned_projection, d.pruned_projection);
            }
            assert_eq!(mem.metrics.items_read, disk.metrics.items_read);
            assert!(disk.metrics.read_calls > 0, "disk cursors must be counted");
            assert!(dir.join("arity-2").is_dir(), "threads={threads}");
        }
    }

    #[test]
    fn a_failed_composite_stream_fails_the_run_even_under_keep_going() {
        // Levels run strict: keep-going quarantines unary attributes, but a
        // composite stream that cannot be written fails the whole run.
        let db = chains_db();
        let finder = NaryFinder::with_max_arity(2);
        for keep_going in [false, true] {
            let plan =
                std::sync::Arc::new(ind_valueset::FaultPlan::parse("write:comp-:enospc").unwrap());
            let mut options = ExportOptions::default().keep_going(keep_going);
            options.sort.io = ind_valueset::IoOptions::default().with_fault(plan.clone());
            // The rule names the composite streams, not the directory
            // whose name also holds `comp-`.
            let dir = TempDir::new("nary-comp-fault");
            let err = finder
                .discover_on_disk(&db, dir.path(), &options)
                .unwrap_err();
            assert!(
                err.to_string().contains("[comp-"),
                "keep_going={keep_going}: {err}"
            );
            assert!(plan.fired_count() >= 1);
        }
    }

    #[test]
    fn projection_pruning_engages() {
        let db = composite_db();
        let d = NaryFinder::with_max_arity(2)
            .discover_in_memory(&db)
            .unwrap();
        let level2 = &d.levels[1];
        assert_eq!(level2.arity, 2);
        assert!(
            level2.generated < level2.enumerable,
            "apriori generation must undercut brute-force enumeration: {} vs {}",
            level2.generated,
            level2.enumerable
        );
        assert_eq!(
            d.metrics.pruned_projection,
            d.levels.iter().map(|l| l.pruned_projection).sum::<u64>()
        );
    }

    #[test]
    fn max_arity_one_is_the_unary_pass() {
        let db = composite_db();
        let d = NaryFinder::with_max_arity(1)
            .discover_in_memory(&db)
            .unwrap();
        assert!(d.satisfied.is_empty());
        assert!(!d.unary.is_empty());
        assert_eq!(d.levels.len(), 1);
        assert_eq!(d.max_arity_found(), 1);
    }

    #[test]
    fn search_terminates_when_a_level_dies_out() {
        let db = composite_db();
        // Far beyond what two-column tables can sustain: the level loop
        // must stop on its own, recording the terminal empty level.
        let d = NaryFinder::with_max_arity(9)
            .discover_in_memory(&db)
            .unwrap();
        assert!(d.levels.len() <= 4);
        let last = d.levels.last().unwrap();
        assert_eq!(last.generated, 0, "trailing level records the dead end");
        assert_eq!(d.max_arity_found(), 2);
    }

    #[test]
    fn canonical_form_holds_everywhere() {
        let db = composite_db();
        let d = NaryFinder::with_max_arity(3)
            .discover_in_memory(&db)
            .unwrap();
        for c in &d.satisfied {
            assert!(c.dep.windows(2).all(|w| w[0] < w[1]), "{c:?}");
            assert_eq!(c.dep.len(), c.refd.len());
            let mut refs = c.refd.clone();
            refs.sort_unstable();
            refs.dedup();
            assert_eq!(refs.len(), c.refd.len(), "duplicate ref in {c:?}");
            assert_ne!(c.dep, c.refd);
            let t = |a: u32| d.profiles[a as usize].name.table.clone();
            assert!(c.dep.iter().all(|&a| t(a) == t(c.dep[0])));
            assert!(c.refd.iter().all(|&a| t(a) == t(c.refd[0])));
        }
        // Sorted and duplicate-free overall.
        let mut sorted = d.satisfied.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(d.satisfied, sorted);
    }

    #[test]
    fn arity_three_discovery_keeps_global_sort_order() {
        // u3 rows are a strict subset of t3's, so every pairwise and the
        // full triple IND holds: satisfied deps are [3,4], [3,5], [4,5]
        // and [3,4,5] — sorted order interleaves the arity-3 entry between
        // [3,4] and [3,5], which the per-level appends alone would not
        // produce.
        let mut db = Database::new("triples");
        let mut t3 = Table::new(
            TableSchema::new(
                "t3",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Integer),
                    ColumnSchema::new("c", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..6i64 {
            t3.insert(vec![i.into(), (10 + i).into(), (20 + i).into()])
                .unwrap();
        }
        let mut u3 = Table::new(
            TableSchema::new(
                "u3",
                vec![
                    ColumnSchema::new("x", DataType::Integer),
                    ColumnSchema::new("y", DataType::Integer),
                    ColumnSchema::new("z", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..3i64 {
            u3.insert(vec![i.into(), (10 + i).into(), (20 + i).into()])
                .unwrap();
        }
        db.add_table(t3).unwrap();
        db.add_table(u3).unwrap();

        let d = NaryFinder::with_max_arity(3)
            .discover_in_memory(&db)
            .unwrap();
        assert_eq!(d.max_arity_found(), 3);
        let deps: Vec<Vec<u32>> = d.satisfied.iter().map(|c| c.dep.clone()).collect();
        assert_eq!(
            deps,
            vec![vec![3, 4], vec![3, 4, 5], vec![3, 5], vec![4, 5]],
            "satisfied must be globally sorted across arities"
        );
        let mut sorted = d.satisfied.clone();
        sorted.sort();
        assert_eq!(d.satisfied, sorted);
    }

    #[test]
    fn null_components_drop_rows_not_columns() {
        let mut db = Database::new("nulls");
        let mut parent = Table::new(
            TableSchema::new(
                "parent",
                vec![
                    ColumnSchema::new("a", DataType::Integer),
                    ColumnSchema::new("b", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        for i in 0..6i64 {
            parent.insert(vec![i.into(), (i * 10).into()]).unwrap();
        }
        let mut child = Table::new(
            TableSchema::new(
                "child",
                vec![
                    ColumnSchema::new("x", DataType::Integer),
                    ColumnSchema::new("y", DataType::Integer),
                ],
            )
            .unwrap(),
        );
        // Rows with a NULL component carry no composite evidence; the
        // remaining pairs are all parent pairs.
        child.insert(vec![1.into(), 10.into()]).unwrap();
        child.insert(vec![3.into(), Value::Null]).unwrap();
        child.insert(vec![Value::Null, 40.into()]).unwrap();
        db.add_table(parent).unwrap();
        db.add_table(child).unwrap();
        let d = NaryFinder::with_max_arity(2)
            .discover_in_memory(&db)
            .unwrap();
        assert!(
            names(&d).contains(&"(child.x,child.y) <= (parent.a,parent.b)".to_string()),
            "{:?}",
            names(&d)
        );
    }

    /// The paper's protein-chain schema shape: `chain(pdb_code, chain_id)`
    /// keyed compositely, referenced by `residue(pdb_code, chain_id)`.
    fn chains_db() -> Database {
        let mut db = Database::new("chains");
        let mut chain = Table::new(
            TableSchema::new(
                "chain",
                vec![
                    ColumnSchema::new("pdb_code", DataType::Text),
                    ColumnSchema::new("chain_id", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for p in 0..4i64 {
            for c in ["A", "B"] {
                chain
                    .insert(vec![format!("1ab{p}").into(), c.into()])
                    .unwrap();
            }
        }
        let mut residue = Table::new(
            TableSchema::new(
                "residue",
                vec![
                    ColumnSchema::new("pdb_code", DataType::Text),
                    ColumnSchema::new("chain_id", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for p in 0..4i64 {
            residue
                .insert(vec![format!("1ab{p}").into(), "A".into()])
                .unwrap();
        }
        db.add_table(chain).unwrap();
        db.add_table(residue).unwrap();
        db
    }

    #[test]
    fn keep_going_quarantine_poisons_composite_candidates() {
        let db = chains_db();
        let finder = NaryFinder::with_max_arity(2);

        // Clean baseline: the composite FK is found.
        let clean_dir = TempDir::new("nary-kg-clean");
        let clean = finder
            .discover_on_disk(
                &db,
                clean_dir.path(),
                &ExportOptions::default().keep_going(true),
            )
            .unwrap();
        let report = clean.degraded.as_ref().expect("keep-going always reports");
        assert!(report.is_clean());
        assert!(
            names(&clean).contains(
                &"(residue.pdb_code,residue.chain_id) <= (chain.pdb_code,chain.chain_id)"
                    .to_string()
            ),
            "{:?}",
            names(&clean)
        );

        // Poison residue.chain_id (attribute id 3) with a read-side bit
        // flip: the keep-going pre-scan condemns it, the level-1 filter
        // drops every candidate touching it, and the apriori join then
        // starves every composite containing it.
        let plan =
            std::sync::Arc::new(ind_valueset::FaultPlan::parse("read:attr-00003:flip=20").unwrap());
        let mut options = ExportOptions::default().keep_going(true);
        options.sort.io = ind_valueset::IoOptions::default().with_fault(plan);
        let dir = TempDir::new("nary-kg-poisoned");
        let d = finder.discover_on_disk(&db, dir.path(), &options).unwrap();

        let report = d.degraded.as_ref().expect("keep-going always reports");
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert_eq!(report.quarantined[0].id, 3);
        assert_eq!(report.quarantined[0].name.to_string(), "residue.chain_id");
        assert_eq!(d.metrics.quarantined_attributes, 1);

        // Level 1 counted the dropped candidates; higher levels inherit the
        // exclusion through the join (their own counter stays zero).
        assert!(d.levels[0].quarantined_candidates > 0);
        for level in &d.levels[1..] {
            assert_eq!(level.quarantined_candidates, 0, "{level:?}");
        }

        // No surviving IND — unary or composite — mentions the attribute.
        assert!(d.unary.iter().all(|c| c.dep != 3 && c.refd != 3));
        assert!(d
            .satisfied
            .iter()
            .all(|c| !c.dep.contains(&3) && !c.refd.contains(&3)));
        // The healthy unary FK on pdb_code is untouched.
        assert!(d.unary.iter().any(|c| {
            d.profiles[c.dep as usize].name.to_string() == "residue.pdb_code"
                && d.profiles[c.refd as usize].name.to_string() == "chain.pdb_code"
        }));
    }
}
