//! Levelwise n-ary (composite) inclusion dependency discovery.
//!
//! The paper scopes SPIDER to unary INDs and leaves composite keys as
//! future work (Sec. 7). This module adds that layer **on top of** the
//! unary finder rather than beside it: every level runs through
//! [`IndFinder`]'s own validation step — quarantine filter → pretests →
//! classes of equal value sets → the configured engine → expand — so the
//! finder's [`crate::FinderConfig`] (algorithm and pretests) applies at
//! every arity.
//!
//! 1. **Level 1** is the unary step, with one deliberate relaxation:
//!    referenced attributes do not need to be unique. The uniqueness
//!    restriction is an FK-*guessing* heuristic (Aladin step 2), not part
//!    of the IND definition — and the levelwise search needs the complete
//!    unary IND set, because a composite key's component columns
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
//! 3. Every distinct attribute sequence of a level becomes one composite
//!    value set (rows tuple-encoded with the order-preserving encoding of
//!    [`ind_valueset::encode_tuple`], so byte-wise comparison equals
//!    lexicographic tuple comparison and the sorter, block reader, cursors
//!    and engines all work unchanged), profiled like a column; the
//!    sequence ids play the role unary attribute ids play elsewhere. The
//!    level's candidates then take the validation step over those
//!    profiles: the cardinality and max-value pretests compare distinct
//!    tuples and largest tuples, and sequences holding equal tuple sets
//!    share one representative. In memory a level is extracted on the
//!    `threads` workers of the unary export; on disk it is an
//!    [`ExportedDatabase`] too ([`ExportedDatabase::export_groups`] on the
//!    unary export's workers, through the same group commit), and the run
//!    shares the unary finder's preamble (export, profiles, keep-going
//!    pre-scan) and epilogue (counters, degraded report).
//!
//! The search iterates until a level yields no candidates or `max_arity`
//! is reached.
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

use crate::attr::{extract_profiled, profiles_from_export, try_memory_export, AttributeProfile};
use crate::candidates::{candidate_pairs, Candidate};
use crate::metrics::RunMetrics;
use crate::runner::{DegradedReport, DiskRun, IndFinder};
use ind_storage::{Database, QualifiedName};
use ind_valueset::{
    ExportOptions, ExportedDatabase, Result, Source, ValueSetProvider, MAX_COMPOSITE_ARITY,
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
    /// Candidates the level generated: at level 1 the attribute pairs the
    /// pretests left (quarantined ones included), at level `k` the joins
    /// that survived projection pruning, before the pretests that read the
    /// level's profiles.
    pub generated: u64,
    /// Joined candidate pairs rejected because a sub-projection was not a
    /// satisfied IND.
    pub pruned_projection: u64,
    /// Satisfied INDs found at this level.
    pub satisfied: u64,
    /// Wall-clock time of the level (generation + extraction + validation).
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
    /// The profile of every attribute sequence of arity ≥ 2 the search
    /// extracted, sorted by sequence: `non_null` counts the rows with every
    /// component non-NULL, `distinct` the distinct tuples among them. See
    /// [`NaryDiscovery::sequence_profile`].
    pub sequence_profiles: Vec<(Vec<u32>, AttributeProfile)>,
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
        let named = |seq: &[u32]| -> Vec<QualifiedName> {
            seq.iter()
                .map(|&a| self.profiles[a as usize].name.clone())
                .collect()
        };
        self.satisfied
            .iter()
            .map(|c| (named(&c.dep), named(&c.refd)))
            .collect()
    }

    /// The profile of attribute sequence `sequence` — both sides of every
    /// composite IND in [`NaryDiscovery::satisfied`] have one.
    pub fn sequence_profile(&self, sequence: &[u32]) -> Option<&AttributeProfile> {
        let found = self
            .sequence_profiles
            .binary_search_by(|(s, _)| s.as_slice().cmp(sequence));
        found.ok().map(|i| &self.sequence_profiles[i].1)
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

/// One searched level: its attribute sequences (at level 1 the attributes
/// themselves), their profiles (composite levels only) and its satisfied
/// INDs as pairs over the sequences, sorted as the sequences sort.
struct Level {
    sequences: Vec<Vec<u32>>,
    profiles: Vec<AttributeProfile>,
    found: Vec<Candidate>,
}

impl IndFinder {
    /// Runs the levelwise search up to `max_arity` (level 1 is the unary
    /// pass; clamped to 1..=[`MAX_COMPOSITE_ARITY`]) entirely in memory,
    /// extracting the unary value sets and every level's composite sets on
    /// exactly `threads` workers. The result is the same at any count.
    pub fn discover_nary_in_memory(
        &self,
        db: &Database,
        threads: usize,
        max_arity: usize,
    ) -> Result<NaryDiscovery> {
        let start = Instant::now();
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let export_span = ind_trace::start(ind_trace::EXPORT);
        let (profiles, provider) = try_memory_export(db, threads)?;
        export_span.finish();
        let mut discovery =
            self.discover_levels(&profiles, &provider, &[], max_arity, |_, groups| {
                let _span = ind_trace::start(ind_trace::EXPORT);
                extract_profiled(Source::groups(db, groups)?, threads)
            })?;
        discovery.metrics.elapsed = start.elapsed();
        Ok(discovery)
    }

    /// [`IndFinder::discover_nary_in_memory`] over on-disk sorted value
    /// files: the unary export lands under `workdir/arity-1`, each composite
    /// level under `workdir/arity-<k>`. The on-disk preamble and epilogue
    /// are the unary finder's ([`IndFinder::discover_on_disk_with`]):
    /// keep-going quarantines what the export or the pre-scan condemns, and
    /// the apriori join then keeps it out of every level. Each level is an
    /// [`ExportedDatabase::export_groups`] on the unary export's workers and
    /// I/O options, so [`RunMetrics::read_calls`] and the fault counters
    /// cover every level. A level is always rewritten and runs strict: a
    /// failed composite stream fails the run, keep-going or not.
    pub fn discover_nary_on_disk(
        &self,
        db: &Database,
        workdir: &Path,
        options: &ExportOptions,
        max_arity: usize,
    ) -> Result<NaryDiscovery> {
        let _root = ind_trace::start(ind_trace::DISCOVER);
        let run = DiskRun::prepare(db, &workdir.join("arity-1"), options)?;
        let mut level_options = options.clone();
        level_options.sort.io = run.export.io_options().clone();
        let mut discovery = self.discover_levels(
            &run.profiles,
            &run.export,
            &run.quarantined_ids(),
            max_arity,
            |arity, groups| {
                let dir = workdir.join(format!("arity-{arity}"));
                let export = ExportedDatabase::export_groups(db, groups, &dir, &level_options)?;
                Ok((profiles_from_export(&export), export))
            },
        )?;
        discovery.degraded = run.finish(&mut discovery.metrics);
        Ok(discovery)
    }

    /// The levelwise loop over one kind of provider, in memory or on disk.
    /// `make_level(k, groups)` extracts level `k`'s attribute sequences,
    /// named, into their profiles and a provider whose ids are the sequence
    /// indices, under an `export` span of its own (so each `level` span is
    /// covered by its `generate`, `export`, `classes` and engine children).
    /// Every level runs [`IndFinder::validate`]. The caller opens the
    /// `discover` root before its unary export and sets `metrics.elapsed`
    /// over the whole run.
    fn discover_levels<P, F>(
        &self,
        profiles: &[AttributeProfile],
        unary_provider: &P,
        quarantined: &[u32],
        max_arity: usize,
        mut make_level: F,
    ) -> Result<NaryDiscovery>
    where
        P: ValueSetProvider + Sync,
        F: FnMut(usize, &[Vec<QualifiedName>]) -> Result<(Vec<AttributeProfile>, P)>,
    {
        let max_arity = max_arity.clamp(1, MAX_COMPOSITE_ARITY);
        let mut metrics = RunMetrics::new();
        let table_of = table_indices(profiles);

        // Level 1: the unary step with relaxed referenced eligibility.
        let level_start = Instant::now();
        let level_span = ind_trace::start_arg(ind_trace::LEVEL, 1);
        let candidates = |m: &mut _| candidate_pairs(profiles, m, |p| p.non_null > 0);
        let unary = self.validate(
            profiles,
            unary_provider,
            candidates,
            quarantined,
            &mut metrics,
        )?;
        level_span.finish();
        let mut levels = vec![NaryLevelStats {
            arity: 1,
            enumerable: enumerable_at(profiles, &table_of, 1),
            generated: metrics.candidates(),
            pruned_projection: 0,
            satisfied: unary.len() as u64,
            elapsed: level_start.elapsed(),
        }];
        let mut searched = vec![Level {
            sequences: (0..profiles.len() as u32).map(|a| vec![a]).collect(),
            profiles: Vec::new(),
            found: unary,
        }];

        for arity in 2..=max_arity {
            let Some(prev) = searched.last().filter(|level| !level.found.is_empty()) else {
                break;
            };
            // Cooperative cancellation between levels (each level's merge
            // and extraction also poll on their own).
            ind_valueset::cancel::check_ambient("generate")?;
            let level_start = Instant::now();
            let _level_span = ind_trace::start_arg(ind_trace::LEVEL, arity as u64);
            let pruned_before = metrics.pruned_projection;
            let generate_span = ind_trace::start(ind_trace::GENERATE);
            let (sequences, pairs) =
                generate_level(&prev.sequences, &prev.found, &table_of, &mut metrics);
            // The apriori join cannot produce a candidate containing a
            // quarantined attribute: its unary projection was never
            // satisfied.
            debug_assert!(sequences.iter().flatten().all(|a| !quarantined.contains(a)));
            generate_span.finish();
            let mut stats = NaryLevelStats {
                arity,
                enumerable: enumerable_at(profiles, &table_of, arity),
                generated: pairs.len() as u64,
                pruned_projection: metrics.pruned_projection - pruned_before,
                satisfied: 0,
                elapsed: Duration::ZERO,
            };
            if pairs.is_empty() {
                stats.elapsed = level_start.elapsed();
                levels.push(stats);
                break;
            }

            let named: Vec<Vec<QualifiedName>> = sequences
                .iter()
                .map(|seq| {
                    seq.iter()
                        .map(|&a| profiles[a as usize].name.clone())
                        .collect()
                })
                .collect();
            let (level_profiles, provider) = make_level(arity, &named)?;
            let found = self.validate(&level_profiles, &provider, |_| pairs, &[], &mut metrics)?;
            stats.satisfied = found.len() as u64;
            stats.elapsed = level_start.elapsed();
            levels.push(stats);
            searched.push(Level {
                sequences,
                profiles: level_profiles,
                found,
            });
        }

        // Level 1 is reported apart. Each level is sorted; the stable sort
        // merges them into the documented global order, which can
        // interleave arities (e.g. [3,4] < [3,4,5] < [4,5]).
        let mut satisfied = Vec::new();
        let mut sequence_profiles = Vec::new();
        for level in searched.drain(1..) {
            let seq = |id: u32| level.sequences[id as usize].clone();
            satisfied.extend(
                level
                    .found
                    .iter()
                    .map(|p| NaryCandidate::new(seq(p.dep), seq(p.refd))),
            );
            sequence_profiles.extend(level.sequences.into_iter().zip(level.profiles));
        }
        satisfied.sort();
        sequence_profiles.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(NaryDiscovery {
            profiles: profiles.to_vec(),
            unary: searched.swap_remove(0).found,
            satisfied,
            sequence_profiles,
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

/// Generates the arity-`k` candidates from the satisfied arity-`k−1` INDs:
/// `pairs` over the sequences `groups`, sorted as the sequences sort. Two INDs
/// join when they lie in one *run* — the same dependent prefix, referenced
/// prefix, table of the last dependent and table of the last reference — and
/// their last dependents increase; the join must not repeat a reference nor be
/// reflexive, and is kept only when every remaining projection is satisfied.
/// `groups` are numbered in content order, and so are the level's distinct
/// sequences it returns, each one composite value set, with the candidates
/// as sorted pairs over their ids.
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
                    joins.push(((a.dep, db), (a.refd, rb)));
                } else {
                    metrics.pruned_projection += 1;
                }
            }
        }
    }

    // Each sequence of the level extends one of `groups` by an attribute,
    // so (that sequence's id, attribute) orders them by content: number
    // them in that order, and the joins sorted so are the candidates sorted.
    joins.sort_unstable();
    let mut keys: Vec<(u32, u32)> = joins.iter().flat_map(|&(dep, refd)| [dep, refd]).collect();
    keys.sort_unstable();
    keys.dedup();
    let id_of = |key| keys.partition_point(|&k| k < key) as u32;
    let out = joins
        .iter()
        .map(|&(dep, refd)| Candidate::new(id_of(dep), id_of(refd)))
        .collect();
    let sequences = keys
        .iter()
        .map(|&(head, tail)| seq(head).iter().copied().chain([tail]).collect())
        .collect();
    (sequences, out)
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

    /// The SPIDER finder every test runs.
    fn spider() -> IndFinder {
        IndFinder::with_algorithm(crate::Algorithm::Spider)
    }

    /// The levelwise search up to `max_arity` in memory, on two workers.
    fn in_memory(db: &Database, max_arity: usize) -> NaryDiscovery {
        spider().discover_nary_in_memory(db, 2, max_arity).unwrap()
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
        let d = in_memory(&db, 2);
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
    fn a_failed_composite_stream_fails_the_run_even_under_keep_going() {
        // Levels run strict: keep-going quarantines unary attributes, but a
        // composite stream that cannot be written fails the whole run.
        let db = chains_db();
        for keep_going in [false, true] {
            let plan =
                std::sync::Arc::new(ind_valueset::FaultPlan::parse("write:comp-:enospc").unwrap());
            let mut options = ExportOptions::default().keep_going(keep_going);
            options.sort.io = ind_valueset::IoOptions::default().with_fault(plan.clone());
            // The rule names the composite streams, not the directory
            // whose name also holds `comp-`.
            let dir = TempDir::new("nary-comp-fault");
            let err = spider()
                .discover_nary_on_disk(&db, dir.path(), &options, 2)
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
        let d = in_memory(&db, 2);
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
        let d = in_memory(&db, 1);
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
        let d = in_memory(&db, 9);
        assert!(d.levels.len() <= 4);
        let last = d.levels.last().unwrap();
        assert_eq!(last.generated, 0, "trailing level records the dead end");
        assert_eq!(d.max_arity_found(), 2);
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
        let d = in_memory(&db, 2);
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
        let finder = spider();

        // Clean baseline: the composite FK is found.
        let clean_dir = TempDir::new("nary-kg-clean");
        let clean = finder
            .discover_nary_on_disk(
                &db,
                clean_dir.path(),
                &ExportOptions::default().keep_going(true),
                2,
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
        let d = finder
            .discover_nary_on_disk(&db, dir.path(), &options, 2)
            .unwrap();

        let report = d.degraded.as_ref().expect("keep-going always reports");
        assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
        assert_eq!(report.quarantined[0].id, 3);
        assert_eq!(report.quarantined[0].name.to_string(), "residue.chain_id");
        assert_eq!(d.metrics.quarantined_attributes, 1);

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
