//! The Aladin five-step integration pipeline (Sec. 1.1, Figure 1).
//!
//! "Integration is performed in five steps": (1) import the sources,
//! (2) compute primary-key candidates from uniqueness, (3) compute
//! intra-source relationships from set inclusion, (4) infer inter-source
//! relationships targeting the primary relations of other sources, and
//! (5) detect duplicate objects. This module orchestrates steps 2–5 over
//! already-imported [`Database`]s using the discovery machinery of the
//! rest of the workspace.

use crate::accession::AccessionRules;
use crate::foreign_keys::{fk_guesses_filtered, FkGuess};
use crate::primary_relation::{identify_primary_relation, PrimaryRelationReport};
use ind_core::{inclusion_count, memory_export, FinderConfig, IndFinder, RunMetrics};
use ind_storage::{DataType, Database, QualifiedName, Value};
use ind_valueset::{Result, ValueSetProvider};
use std::collections::HashMap;
use std::fmt;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AladinConfig {
    /// IND discovery configuration for step 3.
    pub finder: FinderConfig,
    /// Accession rules for primary-relation identification.
    pub accession: AccessionRules,
    /// Minimum inclusion coefficient for an inter-source link (step 4);
    /// 1.0 demands exact INDs, lower values admit partial INDs ("dirty
    /// data", Sec. 7).
    pub link_threshold: f64,
}

impl Default for AladinConfig {
    fn default() -> Self {
        AladinConfig {
            finder: FinderConfig::default(),
            accession: AccessionRules::strict(),
            link_threshold: 0.3,
        }
    }
}

/// Step 2 output: a primary-key candidate (non-empty unique column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyCandidate {
    /// The column.
    pub attribute: QualifiedName,
    /// Its distinct (= non-null) count.
    pub distinct: u64,
}

/// Step 5 output: duplicate rows within one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateReport {
    /// Table inspected.
    pub table: String,
    /// Rows that are exact copies of an earlier row.
    pub duplicate_rows: usize,
}

/// Per-source results of steps 2, 3, and 5.
#[derive(Debug)]
pub struct SourceReport {
    /// Source database name.
    pub name: String,
    /// Tables / attributes / rows (step 1 inventory).
    pub tables: usize,
    /// Attribute count.
    pub attributes: usize,
    /// Total rows.
    pub rows: usize,
    /// Step 2: primary-key candidates.
    pub key_candidates: Vec<KeyCandidate>,
    /// Step 3: satisfied IND count.
    pub ind_count: usize,
    /// Step 3: FK guesses (surrogate-flagged included).
    pub fk_guesses: Vec<FkGuess>,
    /// Step 3/4: primary-relation identification.
    pub primary_relation: PrimaryRelationReport,
    /// Step 5: duplicates per table (tables with none are omitted).
    pub duplicates: Vec<DuplicateReport>,
    /// Discovery metrics for the IND run.
    pub metrics: RunMetrics,
}

/// Step 4 output: one inter-source link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Source database.
    pub source_db: String,
    /// Linking attribute in the source.
    pub source_attr: QualifiedName,
    /// Target database.
    pub target_db: String,
    /// Accession attribute of the target's primary relation.
    pub target_attr: QualifiedName,
    /// Inclusion coefficient of the link.
    pub coefficient: f64,
    /// True when the link is an exact IND.
    pub exact: bool,
    /// When the link only holds after stripping a common affix (the
    /// paper's "PDB-144f" case, Sec. 7), the transform as
    /// `prefix…suffix`; `None` for plain inclusions.
    pub transform: Option<String>,
}

/// Full pipeline output.
#[derive(Debug)]
pub struct AladinReport {
    /// Per-source results.
    pub sources: Vec<SourceReport>,
    /// Inter-source links found in step 4.
    pub links: Vec<LinkReport>,
}

impl fmt::Display for AladinReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.sources {
            writeln!(
                f,
                "source {:<10} tables={:<3} attrs={:<4} rows={:<7} keys={:<3} inds={:<6} primary={:?}",
                s.name,
                s.tables,
                s.attributes,
                s.rows,
                s.key_candidates.len(),
                s.ind_count,
                s.primary_relation.primary_candidates,
            )?;
        }
        for l in &self.links {
            writeln!(
                f,
                "link {}.{} -> {}.{} (coefficient {:.2}{}{})",
                l.source_db,
                l.source_attr,
                l.target_db,
                l.target_attr,
                l.coefficient,
                if l.exact { ", exact" } else { "" },
                match &l.transform {
                    Some(t) => format!(", via transform {t}"),
                    None => String::new(),
                },
            )?;
        }
        Ok(())
    }
}

/// Step 2: primary-key candidates by data-driven uniqueness.
pub fn key_candidates(db: &Database) -> Vec<KeyCandidate> {
    ind_core::profile_database(db)
        .into_iter()
        .filter(|p| p.is_referenced_candidate())
        .map(|p| KeyCandidate {
            attribute: p.name,
            distinct: p.distinct,
        })
        .collect()
}

/// Step 5: exact-duplicate rows per table (canonical rendering of the full
/// row, NULL marked distinctly).
pub fn find_duplicates(db: &Database) -> Vec<DuplicateReport> {
    let mut out = Vec::new();
    for table in db.tables() {
        let mut seen: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut dupes = 0usize;
        for i in 0..table.row_count() {
            let mut key = Vec::new();
            for (_, _, col) in table.iter_columns() {
                match &col[i] {
                    Value::Null => key.push(0u8),
                    v => {
                        key.push(1u8);
                        v.render_canonical(&mut key);
                    }
                }
                key.push(0xFF); // field separator
            }
            let counter = seen.entry(key).or_insert(0);
            if *counter > 0 {
                dupes += 1;
            }
            *counter += 1;
        }
        if dupes > 0 {
            out.push(DuplicateReport {
                table: table.name().to_string(),
                duplicate_rows: dupes,
            });
        }
    }
    out
}

/// Runs steps 2–5 over the given sources.
pub fn run_aladin(sources: &[&Database], config: &AladinConfig) -> Result<AladinReport> {
    let finder = IndFinder::new(config.finder.clone());
    let mut reports = Vec::with_capacity(sources.len());

    // Every database's value sets are extracted once: step 3 discovers
    // over them, step 4 tests its pairs on their cursors.
    let exports: Vec<_> = sources.iter().map(|db| memory_export(db)).collect();
    for (db, (profiles, provider)) in sources.iter().zip(&exports) {
        let discovery = finder.discover(profiles, provider)?;
        let primary = identify_primary_relation(db, &discovery, &config.accession);
        reports.push(SourceReport {
            name: db.name().to_string(),
            tables: db.table_count(),
            attributes: db.attribute_count(),
            rows: db.total_rows(),
            key_candidates: key_candidates(db),
            ind_count: discovery.ind_count(),
            fk_guesses: fk_guesses_filtered(db, &discovery),
            primary_relation: primary,
            duplicates: find_duplicates(db),
            metrics: discovery.metrics.clone(),
        });
    }

    // Step 4: for each source attribute, test inclusion against the
    // accession attributes of every *other* source's primary relations.
    // "This step only considers primary relations as targets, thus
    // drastically reducing the search space."
    let mut links = Vec::new();
    for (si, source) in sources.iter().enumerate() {
        let (source_profiles, source_sets) = &exports[si];
        for (ti, target) in sources.iter().enumerate() {
            if si == ti {
                continue;
            }
            let primary = &reports[ti].primary_relation;
            let (target_profiles, target_sets) = &exports[ti];
            let targets: Vec<_> = primary
                .accession_candidates
                .iter()
                .filter(|qn| primary.primary_candidates.contains(&qn.table))
                .filter_map(|qn| target_profiles.iter().find(|p| p.name == *qn))
                .collect();
            if targets.is_empty() {
                continue;
            }
            for profile in source_profiles {
                if profile.data_type != DataType::Text || profile.non_null == 0 {
                    continue;
                }
                for target_attr in &targets {
                    let mut m = RunMetrics::new();
                    let count = inclusion_count(
                        &mut source_sets.open(profile.id)?,
                        &mut target_sets.open(target_attr.id)?,
                        &mut m,
                    )?;
                    let coefficient = count.coefficient();
                    if coefficient >= config.link_threshold && count.dep_total > 0 {
                        links.push(LinkReport {
                            source_db: source.name().to_string(),
                            source_attr: profile.name.clone(),
                            target_db: target.name().to_string(),
                            target_attr: target_attr.name.clone(),
                            coefficient,
                            exact: count.is_exact(),
                            transform: None,
                        });
                    } else if let Some(hit) = crate::concat::find_concat_match(
                        source.column(&profile.name)?,
                        target.column(&target_attr.name)?,
                        config.link_threshold,
                        &mut m,
                    ) {
                        // The plain inclusion failed, but stripping a shared
                        // affix recovers the link — the paper's "PDB-144f"
                        // concatenated-value case.
                        links.push(LinkReport {
                            source_db: source.name().to_string(),
                            source_attr: profile.name.clone(),
                            target_db: target.name().to_string(),
                            target_attr: target_attr.name.clone(),
                            coefficient: hit.coefficient(),
                            exact: hit.inclusion.is_exact(),
                            transform: Some(format!(
                                "strip '{}'…'{}'",
                                hit.transform.prefix, hit.transform.suffix
                            )),
                        });
                    }
                }
            }
        }
    }

    Ok(AladinReport {
        sources: reports,
        links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ind_storage::{ColumnSchema, Table, TableSchema};

    /// Two toy sources: `target` has a primary relation with accessions;
    /// `source` links to it exactly from one column and partially from
    /// another.
    fn fixture() -> (Database, Database) {
        let mut target = Database::new("target");
        let mut main = Table::new(
            TableSchema::new(
                "main",
                vec![ColumnSchema::new("acc", DataType::Text).not_null().unique()],
            )
            .unwrap(),
        );
        for i in 0..20i64 {
            main.insert(vec![format!("AC{:04}", i).into()]).unwrap();
        }
        target.add_table(main).unwrap();
        let mut annot = Table::new(
            TableSchema::new("annot", vec![ColumnSchema::new("main_acc", DataType::Text)]).unwrap(),
        );
        for i in 0..30i64 {
            annot
                .insert(vec![format!("AC{:04}", i % 20).into()])
                .unwrap();
        }
        target.add_table(annot).unwrap();

        let mut source = Database::new("source");
        let mut xref = Table::new(
            TableSchema::new(
                "xref",
                vec![
                    ColumnSchema::new("exact_link", DataType::Text),
                    ColumnSchema::new("partial_link", DataType::Text),
                    ColumnSchema::new("unrelated", DataType::Text),
                ],
            )
            .unwrap(),
        );
        for i in 0..10i64 {
            let partial = if i < 5 {
                format!("AC{:04}", i)
            } else {
                format!("zz{i} junk value")
            };
            xref.insert(vec![
                format!("AC{:04}", i).into(),
                partial.into(),
                format!("other {i} text").into(),
            ])
            .unwrap();
        }
        source.add_table(xref).unwrap();
        (source, target)
    }

    #[test]
    fn pipeline_produces_source_reports() {
        let (source, target) = fixture();
        let report = run_aladin(&[&source, &target], &AladinConfig::default()).unwrap();
        assert_eq!(report.sources.len(), 2);
        let t = report.sources.iter().find(|s| s.name == "target").unwrap();
        assert_eq!(t.primary_relation.unambiguous_primary(), Some("main"));
        assert!(t.ind_count >= 1, "annot.main_acc ⊆ main.acc");
        assert!(!t.key_candidates.is_empty());
    }

    #[test]
    fn exact_and_partial_links_are_found() {
        let (source, target) = fixture();
        let report = run_aladin(&[&source, &target], &AladinConfig::default()).unwrap();
        let exact = report
            .links
            .iter()
            .find(|l| l.source_attr.column == "exact_link")
            .expect("exact link");
        assert!(exact.exact);
        assert_eq!(exact.coefficient, 1.0);
        assert_eq!(exact.target_attr.to_string(), "main.acc");

        let partial = report
            .links
            .iter()
            .find(|l| l.source_attr.column == "partial_link")
            .expect("partial link");
        assert!(!partial.exact);
        assert!(partial.coefficient >= 0.3 && partial.coefficient < 1.0);

        assert!(
            !report
                .links
                .iter()
                .any(|l| l.source_attr.column == "unrelated"),
            "unrelated text must not link"
        );
    }

    #[test]
    fn threshold_controls_partial_links() {
        let (source, target) = fixture();
        let config = AladinConfig {
            link_threshold: 0.9,
            ..Default::default()
        };
        let report = run_aladin(&[&source, &target], &config).unwrap();
        assert!(report
            .links
            .iter()
            .all(|l| l.source_attr.column == "exact_link"));
    }

    #[test]
    fn duplicates_are_detected() {
        let mut db = Database::new("dup");
        let mut t = Table::new(
            TableSchema::new("t", vec![ColumnSchema::new("x", DataType::Text)]).unwrap(),
        );
        t.insert(vec!["a".into()]).unwrap();
        t.insert(vec!["a".into()]).unwrap();
        t.insert(vec!["b".into()]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Null]).unwrap();
        db.add_table(t).unwrap();
        let dupes = find_duplicates(&db);
        assert_eq!(dupes.len(), 1);
        assert_eq!(dupes[0].duplicate_rows, 2, "one 'a' copy + one NULL copy");
    }

    #[test]
    fn report_display_is_readable() {
        let (source, target) = fixture();
        let report = run_aladin(&[&source, &target], &AladinConfig::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("source"));
        assert!(text.contains("link"));
        assert!(text.contains("main.acc"));
    }
}
