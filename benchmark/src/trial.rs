//! The child side: one discovery in a fresh process.
//!
//! A trial receives only the generated TSV directory, a fresh directory of
//! its own and the workload's options, and prints one JSON line. It calls
//! the library's stable public surface with library defaults
//! (`Algorithm::Spider`, `ExportOptions::default()`,
//! `PretestConfig::default()`), so a later change to a default or an I/O
//! mode is measured by this code, not broken by it.

use crate::catalog::{Workload, PER_LAYER, TRACE_OVERHEAD};
use crate::inputs::dir_bytes;
use crate::json::Json;
use crate::oracle::digest;
use crate::procstat::{peak_rss_mib, process_cpu_seconds};
use crate::spans::Recorder;
use ind_core::{
    generate_candidates, memory_export_with_threads, profiles_from_export, run_spider, Algorithm,
    AttributeProfile, Candidate, Discovery, IndFinder, PretestConfig, RunMetrics,
};
use ind_storage::{tsv, Database};
use ind_valueset::{
    ExportOptions, ExportedDatabase, ExternalSorter, MemoryProvider, ResumeMode, ValueCursor,
    ValueFileReader, ValueFileWriter, ValueSetProvider,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the driver hands a trial.
#[derive(Debug)]
pub struct TrialArgs {
    pub workload: &'static Workload,
    /// The generated TSV directory.
    pub input: PathBuf,
    /// A fresh directory owned by this trial: the export goes to
    /// `<dir>/workdir`, probe scratch files to `<dir>/probe`.
    pub dir: PathBuf,
    /// Validate repeats after the discover section (end-to-end mode).
    pub repeats: usize,
    /// Run the decomposed sequence under the span recorder instead.
    pub traced: bool,
    /// Trial number, shared by all spans of a traced trial.
    pub id: u64,
    /// Self-test of the oracle check: drop one IND from every result.
    pub drop_ind: bool,
}

type Layers = BTreeMap<&'static str, f64>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn export_options(workload: &Workload) -> ExportOptions {
    match workload.memory_budget_bytes {
        Some(bytes) => ExportOptions::with_memory_budget(bytes),
        None => ExportOptions::default(),
    }
}

/// The user-visible result: sorted `dep <= ref` lines, reduced to a digest.
fn output_digest(profiles: &[AttributeProfile], satisfied: &[Candidate], drop_ind: bool) -> String {
    let mut lines: Vec<String> = satisfied
        .iter()
        .map(|c| {
            format!(
                "{} <= {}",
                profiles[c.dep as usize].name, profiles[c.refd as usize].name
            )
        })
        .collect();
    lines.sort();
    if drop_ind {
        lines.pop();
    }
    digest(&lines)
}

fn discovery_digest(discovery: &Discovery, drop_ind: bool) -> String {
    output_digest(&discovery.profiles, &discovery.satisfied, drop_ind)
}

fn op(kind: &str, wall_s: f64, digest: String) -> Json {
    Json::obj([
        ("kind", Json::str(kind)),
        ("wall_s", Json::Num(wall_s)),
        ("digest", Json::Str(digest)),
    ])
}

/// Value bytes a memory export keeps resident (its space amplification).
fn resident_value_bytes(provider: &MemoryProvider) -> u64 {
    (0..provider.attribute_count() as u32)
        .filter_map(|id| provider.set(id))
        .flat_map(|set| set.as_slice())
        .map(|v| v.len() as u64)
        .sum()
}

/// `repeats` timed `IndFinder::discover` calls over an existing provider;
/// every call regenerates candidates and reopens every cursor.
fn validate<P: ValueSetProvider + Sync>(
    finder: &IndFinder,
    profiles: &[AttributeProfile],
    provider: &P,
    args: &TrialArgs,
    ops: &mut Vec<Json>,
) -> Result<(), String> {
    for _ in 0..args.repeats {
        let start = Instant::now();
        let discovery = finder
            .discover(profiles, provider)
            .map_err(err("validate"))?;
        let found = discovery_digest(&discovery, args.drop_ind);
        ops.push(op("validate", start.elapsed().as_secs_f64(), found));
    }
    Ok(())
}

/// Runs one trial and returns the line to print.
pub fn run(args: &TrialArgs) -> Result<Json, String> {
    if args.traced {
        traced(args)
    } else {
        end_to_end(args)
    }
}

/// The untraced trial: what a CLI user waits for, under one clock.
fn end_to_end(args: &TrialArgs) -> Result<Json, String> {
    let finder = IndFinder::with_algorithm(Algorithm::Spider);
    let options = export_options(args.workload);
    let workdir = args.dir.join("workdir");

    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let db = tsv::load_database(&args.input).map_err(err("load"))?;
    let discovery = if args.workload.in_memory {
        finder.discover_in_memory(&db)
    } else {
        finder.discover_on_disk_with(&db, &workdir, &options)
    }
    .map_err(err("discover"))?;
    let found = discovery_digest(&discovery, args.drop_ind);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu_before;
    let peak_rss_mb = peak_rss_mib()?;
    drop(discovery);

    let mut ops = vec![op("discover", wall_s, found)];
    let export_bytes = if args.workload.in_memory {
        let (profiles, provider) = memory_export_with_threads(&db, 1);
        validate(&finder, &profiles, &provider, args, &mut ops)?;
        resident_value_bytes(&provider)
    } else {
        let export_bytes = dir_bytes(&workdir).map_err(err("sizing the workdir"))?;
        // Reattach to the published export the way `--resume` does: no
        // value is sorted or written again.
        let resume = options.clone().resume(ResumeMode::Reuse);
        let export = ExportedDatabase::export(&db, &workdir, &resume).map_err(err("reopen"))?;
        if export.exports_redone() != 0 {
            return Err(format!(
                "reopen re-exported {} attributes: the published export did not validate",
                export.exports_redone()
            ));
        }
        let profiles = profiles_from_export(&export);
        validate(&finder, &profiles, &export, args, &mut ops)?;
        export_bytes
    };
    Ok(Json::obj([
        ("ops", Json::Arr(ops)),
        ("discover_cpu_s", Json::Num(cpu_s)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
        ("export_bytes", Json::Num(export_bytes as f64)),
    ]))
}

/// Candidate generation, merge and output under spans; shared by the disk
/// and the memory sequence. Returns the result digest.
fn test_candidates<P: ValueSetProvider>(
    rec: &mut Recorder,
    profiles: &[AttributeProfile],
    provider: &P,
    before_merge: impl FnOnce(),
    args: &TrialArgs,
    layers: &mut Layers,
) -> Result<String, String> {
    let mut metrics = RunMetrics::new();
    let candidates = rec.span("core.candidates.generate", |_| {
        generate_candidates(profiles, &PretestConfig::default(), &mut metrics)
    });
    before_merge();
    let mut satisfied = rec
        .span("core.spider.merge", |_| {
            run_spider(provider, &candidates, &mut metrics)
        })
        .map_err(err("merge"))?;
    let found = rec.span("core.runner.output", |_| {
        satisfied.sort();
        output_digest(profiles, &satisfied, args.drop_ind)
    });
    for (name, value) in [
        ("core.candidates.pairs_considered", metrics.pairs_considered),
        ("core.candidates.candidates", candidates.len() as u64),
        (
            "core.candidates.pruned_cardinality",
            metrics.pruned_cardinality,
        ),
        ("core.spider.items_read", metrics.items_read),
        ("core.spider.value_bytes_read", metrics.value_bytes_read),
        ("core.spider.comparisons", metrics.comparisons),
        ("core.spider.key_compares", metrics.key_compares),
        ("core.spider.memcmp_compares", metrics.memcmp_compares),
        ("core.spider.cursor_opens", metrics.cursor_opens),
        ("core.spider.satisfied", satisfied.len() as u64),
    ] {
        layers.insert(name, value as f64);
    }
    Ok(found)
}

/// The traced trial: the same work as [`end_to_end`], decomposed into the
/// public call of each layer, then the probes that isolate sort, write and
/// scan from publication.
fn traced(args: &TrialArgs) -> Result<Json, String> {
    let options = export_options(args.workload);
    let workdir = args.dir.join("workdir");
    let mut rec = Recorder::new();
    let mut layers = Layers::new();
    let input_bytes = dir_bytes(&args.input).map_err(err("sizing inputs"))? as f64;

    let start = Instant::now();
    let (found, db, export, stored_bytes) = rec.span("discover", |rec| -> Result<_, String> {
        let db = rec
            .span("storage.tsv.load", |_| tsv::load_database(&args.input))
            .map_err(err("load"))?;
        if args.workload.in_memory {
            let (profiles, provider) = rec.span("valueset.extract.memory_export", |_| {
                memory_export_with_threads(&db, 1)
            });
            let found = test_candidates(rec, &profiles, &provider, || (), args, &mut layers)?;
            Ok((found, db, None, resident_value_bytes(&provider)))
        } else {
            let export = rec
                .span("valueset.manager.export", |_| {
                    ExportedDatabase::export(&db, &workdir, &options)
                })
                .map_err(err("export"))?;
            let profiles = rec.span("core.attr.profile", |_| profiles_from_export(&export));
            let reset = || export.reset_read_calls();
            let found = test_candidates(rec, &profiles, &export, reset, args, &mut layers)?;
            let file_bytes = export.attributes().iter().map(|a| a.file_bytes).sum();
            Ok((found, db, Some(export), file_bytes))
        }
    })?;
    let wall_s = start.elapsed().as_secs_f64();
    let stored_bytes = stored_bytes as f64;
    layers.insert("storage.tsv.rows", db.total_rows() as f64);

    if let Some(export) = &export {
        for (name, value) in [
            (
                "valueset.manager.attributes",
                export.attributes().len() as u64,
            ),
            ("valueset.block.read_calls", export.read_calls()),
            ("valueset.block.file_opens", export.file_opens()),
            ("valueset.block.io_retries", export.io_retries()),
            (
                "valueset.block.checksum_failures",
                export.checksum_failures(),
            ),
        ] {
            layers.insert(name, value as f64);
        }
        layers.insert("valueset.manager.file_bytes", stored_bytes);
        let probe_dir = args.dir.join("probe");
        std::fs::create_dir_all(&probe_dir).map_err(err("probe dir"))?;
        rec.span("probes", |rec| -> Result<(), String> {
            sort_write_probe(rec, &db, &options, &probe_dir, &mut layers)?;
            write_probe(rec, export, &options, &probe_dir)?;
            scan_probe(rec, export, &options)
        })?;
    }

    // Layer times, read off the spans.
    let time = |name: &str| rec.total_s(name);
    let load_s = time("storage.tsv.load");
    let export_s = time("valueset.manager.export");
    let sort_write_s = time("valueset.external_sort.sort_write");
    let merge_s = time("core.spider.merge");
    let write_s = time("valueset.format.write");
    let scan_s = time("valueset.format.scan");
    let layer_sum_s = load_s
        + export_s
        + time("valueset.extract.memory_export")
        + time("core.attr.profile")
        + time("core.candidates.generate")
        + merge_s
        + time("core.runner.output");
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let attributes = layers
        .get("valueset.manager.attributes")
        .copied()
        .unwrap_or(0.0);
    let publish_s = export_s - sort_write_s;
    let items_read = layers["core.spider.items_read"];
    let value_bytes_read = layers["core.spider.value_bytes_read"];
    for (name, value) in [
        ("storage.tsv.load_s", load_s),
        ("storage.tsv.input_mb_per_s", per(input_bytes / 1e6, load_s)),
        ("valueset.manager.export_s", export_s),
        ("valueset.manager.publish_s", publish_s),
        (
            "valueset.manager.publish_us_per_file",
            per(publish_s * 1e6, attributes),
        ),
        ("valueset.external_sort.sort_write_s", sort_write_s),
        ("valueset.format.write_s", write_s),
        (
            "valueset.format.write_mb_per_s",
            per(stored_bytes / 1e6, write_s),
        ),
        ("valueset.format.scan_s", scan_s),
        (
            "valueset.format.scan_mb_per_s",
            per(stored_bytes / 1e6, scan_s),
        ),
        (
            "valueset.extract.memory_export_s",
            time("valueset.extract.memory_export"),
        ),
        ("core.attr.profile_s", time("core.attr.profile")),
        (
            "core.candidates.generate_s",
            time("core.candidates.generate"),
        ),
        ("core.spider.merge_s", merge_s),
        ("core.spider.ns_per_item", per(merge_s * 1e9, items_read)),
        (
            "core.spider.read_fraction",
            per(value_bytes_read, stored_bytes),
        ),
        ("core.runner.output_s", time("core.runner.output")),
    ] {
        layers.insert(name, value);
    }
    // Every workload reports every per-layer metric: a layer this one
    // never reaches (the export on the memory workload) reads 0.
    for layer in PER_LAYER.iter().filter(|l| l.name != TRACE_OVERHEAD) {
        layers.entry(layer.name).or_insert(0.0);
    }

    Ok(Json::obj([
        ("ops", Json::Arr(vec![op("discover", wall_s, found)])),
        ("layer_sum_s", Json::Num(layer_sum_s)),
        (
            "layers",
            Json::obj(layers.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        ("spans", rec.to_json(args.id)),
    ]))
}

/// Sort + frame + write without publication: every column goes through the
/// sorter exactly as the export drives it (`push_with(render_canonical)`,
/// one warm sorter for all columns), but into a plain, non-atomic writer —
/// no rename, no directory fsync, no manifest. What the export costs beyond
/// this is `valueset.manager.publish_s`.
fn sort_write_probe(
    rec: &mut Recorder,
    db: &Database,
    options: &ExportOptions,
    probe_dir: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut sorter = ExternalSorter::new(&probe_dir.join("spill"), options.sort.clone())
        .map_err(err("sorter"))?;
    let path = probe_dir.join("sorted.indv");
    let (mut pushed, mut distinct, mut runs, mut arena_peak) = (0u64, 0u64, 0u64, 0u64);
    let (mut key_compares, mut memcmp_compares) = (0u64, 0u64);
    for table in db.tables() {
        for (_, _, column) in table.iter_columns() {
            let stats = rec
                .span("valueset.external_sort.sort_write", |_| {
                    for v in column.iter().filter(|v| !v.is_null()) {
                        sorter.push_with(|arena| v.render_canonical(arena))?;
                    }
                    let mut writer = ValueFileWriter::create_with_options(&path, options.io())?;
                    let stats = sorter.finish_into(&mut writer)?;
                    writer.finish()?;
                    Ok(stats)
                })
                .map_err(err::<ind_valueset::ValueSetError>("sort probe"))?;
            // Unlinked at once, so the probe's bytes are not still being
            // written back during the next trial.
            std::fs::remove_file(&path).map_err(err("sort probe cleanup"))?;
            pushed += stats.pushed;
            distinct += stats.distinct;
            runs += stats.runs as u64;
            arena_peak = arena_peak.max(stats.arena_bytes);
            key_compares += stats.key_compares;
            memcmp_compares += stats.memcmp_compares;
        }
    }
    for (name, value) in [
        ("valueset.external_sort.values_pushed", pushed),
        ("valueset.external_sort.values_distinct", distinct),
        ("valueset.external_sort.spill_runs", runs),
        ("valueset.external_sort.arena_peak_bytes", arena_peak),
        ("valueset.external_sort.spill_key_compares", key_compares),
        (
            "valueset.external_sort.spill_memcmp_compares",
            memcmp_compares,
        ),
    ] {
        layers.insert(name, value as f64);
    }
    Ok(())
}

/// Framing + CRC + write alone: each published file's records are loaded
/// into memory untimed, then re-appended through a non-atomic writer.
fn write_probe(
    rec: &mut Recorder,
    export: &ExportedDatabase,
    options: &ExportOptions,
    probe_dir: &Path,
) -> Result<(), String> {
    let path = probe_dir.join("rewritten.indv");
    for attr in export.attributes() {
        let mut bytes = Vec::with_capacity(attr.file_bytes as usize);
        let mut ends = Vec::with_capacity(attr.distinct as usize);
        let mut reader =
            ValueFileReader::open_with_options(&attr.path, options.io()).map_err(err("open"))?;
        while reader.advance().map_err(err("read"))? {
            bytes.extend_from_slice(reader.current());
            ends.push(bytes.len());
        }
        rec.span("valueset.format.write", |_| {
            let mut writer = ValueFileWriter::create_with_options(&path, options.io())?;
            let mut begin = 0;
            for end in &ends {
                writer.append(&bytes[begin..*end])?;
                begin = *end;
            }
            writer.finish()
        })
        .map_err(err::<ind_valueset::ValueSetError>("write probe"))?;
        std::fs::remove_file(&path).map_err(err("write probe cleanup"))?;
    }
    Ok(())
}

/// Drains every published file to its end through `ValueFileReader` — the
/// resume-verify / pre-scan use of the reader, which (unlike the merge)
/// never closes early.
fn scan_probe(
    rec: &mut Recorder,
    export: &ExportedDatabase,
    options: &ExportOptions,
) -> Result<(), String> {
    for attr in export.attributes() {
        let drained = rec
            .span("valueset.format.scan", |_| {
                let mut reader = ValueFileReader::open_with_options(&attr.path, options.io())?;
                let mut records = 0u64;
                while reader.advance()? {
                    std::hint::black_box(reader.current());
                    records += 1;
                }
                Ok(records)
            })
            .map_err(err::<ind_valueset::ValueSetError>("scan probe"))?;
        if drained != attr.distinct {
            return Err(format!(
                "scan probe: {} holds {drained} records, export says {}",
                attr.path.display(),
                attr.distinct
            ));
        }
    }
    Ok(())
}
