//! The traced pass: per-layer metrics from spans the benchmark records
//! around the layers' public calls. It runs after the served phase, so
//! the end-to-end figures never include tracing cost.
//!
//! The engine's own pipeline is re-composed here from its public parts
//! (`coarse_rank_with` over a timed index, `fine_search` over a timed
//! store, then the strand merge) so every layer call gets a span, and
//! each traced answer is checked against a plain `Database::search` of
//! the same query.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nucdb::{
    build_sharded_root, coarse_rank_with, fine_search, open_shard_dir, CoarseHit, CoarseScratch,
    Database, FineResult, LiveDatabase, LiveOptions, SearchParams, Shard, ShardSet, ShardSetConfig,
    Strand,
};
use nucdb_align::banded_sw_score;
use nucdb_obs::MetricsRegistry;
use nucdb_seq::{Base, DnaSeq};

use crate::client::{Answer, Conn};
use crate::gen::{fasta, Inputs, Workload, INSERT_BATCH};
use crate::report::Metric;
use crate::served::{answers_of, open_static, Backend, Deployment, ServedResult};
use crate::stats::{err, median, ratio};
use crate::trace::{
    durations, per_query_sums, self_times, totals_by_name, Span, TimedIndex, TimedShard,
    TimedStore, Tracer,
};

/// Queries in the traced engine pass and the serve-overhead probe.
const TRACED_QUERIES: u32 = 100;
/// Shards the screen collection is split into for the shard layer.
const SHARDS: usize = 2;
/// Flushes the traced live pass streams records for.
const TRACED_FLUSHES: usize = 3;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// What the traced pass found wrong: traced answers that differ from
/// plain ones, or probes that failed.
#[derive(Debug, Default)]
pub struct TraceCheck {
    /// Comparisons made.
    pub checked: usize,
    /// Comparisons that differed, plus failed probe requests.
    pub failed: usize,
}

/// One strand's coarse candidates, kept for the alignment probe.
struct StrandWork {
    bases: Vec<Base>,
    candidates: Vec<CoarseHit>,
}

/// `Database::search`, re-composed from the layers' public calls with a
/// span around each. Returns the answers as the server would send them.
fn traced_search(
    db: &Database,
    tracer: &Tracer,
    q: u32,
    query: &DnaSeq,
    params: &SearchParams,
    scratch: &mut CoarseScratch,
    work: &mut Vec<StrandWork>,
) -> Result<Vec<Answer>, String> {
    let root = tracer.begin("engine", q, None);
    let index = TimedIndex::new(db.index(), tracer);
    let store = TimedStore::new(db.store(), tracer);
    let mut strands = Vec::new();
    if params.strand != Strand::Reverse {
        strands.push((Strand::Forward, query.clone()));
    }
    if params.strand != Strand::Forward {
        strands.push((Strand::Reverse, query.reverse_complement()));
    }
    let mut merged: Vec<(Strand, FineResult)> = Vec::new();
    for (strand, oriented) in strands {
        let bases = oriented.representative_bases();
        let span = tracer.begin_ambient("coarse", q, Some(root));
        let coarse = coarse_rank_with(&index, &bases, params, scratch);
        tracer.end_ambient(span);
        let coarse = coarse.map_err(err)?;
        let span = tracer.begin_ambient("fine", q, Some(root));
        let fine = fine_search(
            &store,
            &oriented,
            &coarse.candidates,
            params.fine,
            &params.scheme,
            params.min_score,
        );
        tracer.end_ambient(span);
        merged.extend(fine.map_err(err)?.into_iter().map(|r| (strand, r)));
        work.push(StrandWork {
            bases,
            candidates: coarse.candidates,
        });
    }
    let answers = tracer.span("engine.merge", q, Some(root), || {
        // Per record keep the better strand, then rank: the engine's
        // strand merge and result assembly.
        merged.sort_by(|(_, a), (_, b)| a.record.cmp(&b.record).then(b.score.cmp(&a.score)));
        merged.dedup_by_key(|(_, r)| r.record);
        merged.sort_by(|(_, a), (_, b)| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));
        merged
            .into_iter()
            .take(params.max_results)
            .map(|(strand, r)| {
                std::hint::black_box(nucdb::RecordSource::id(db.store(), r.record).to_string());
                Answer {
                    record: r.record,
                    score: r.score,
                    strand: if strand == Strand::Reverse {
                        b'-'
                    } else {
                        b'+'
                    },
                }
            })
            .collect()
    });
    tracer.end(root);
    Ok(answers)
}

/// Store bytes read so far through `registry`'s store counter.
fn store_bytes(registry: &MetricsRegistry) -> u64 {
    registry.counter("nucdb_store_bytes_read_total", "").get()
}

/// Engine-layer metrics over `db`: plain `Database::search` timings and
/// work counters, the traced re-composition, and an alignment probe.
fn engine_layers(
    inputs: &Inputs,
    db: &Database,
    registry: &MetricsRegistry,
    tracer: &Tracer,
    check: &mut TraceCheck,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let params = &inputs.params;
    let half_width = inputs.fine_half_width();
    let mut plain_ns = Vec::new();
    let (mut hits, mut candidates, mut results, mut aligned) = (0u64, 0u64, 0u64, 0u64);
    let (mut lists, mut bytes, mut ids, mut blocks, mut skipped) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut store_read = 0u64;
    let mut cells = 0u64;
    let mut plain_scratch = CoarseScratch::new();
    let mut traced_scratch = CoarseScratch::new();
    for q in 0..TRACED_QUERIES {
        let query = inputs.query(u64::from(q)).seq;
        let mut work = Vec::new();
        let mut run_plain = || {
            let before = store_bytes(registry);
            let t = Instant::now();
            let outcome = db.search_with(&query, params, &mut plain_scratch);
            let nanos = t.elapsed().as_nanos() as f64;
            (outcome, nanos, store_bytes(registry) - before)
        };
        let mut run_traced = || {
            traced_search(
                db,
                tracer,
                q,
                &query,
                params,
                &mut traced_scratch,
                &mut work,
            )
        };
        // Alternate which runs first so neither gets the warmer cache.
        let (plain, traced) = if q % 2 == 0 {
            let plain = run_plain();
            (plain, run_traced())
        } else {
            let traced = run_traced();
            (run_plain(), traced)
        };
        let (outcome, nanos, read) = plain;
        let outcome = outcome.map_err(err)?;
        plain_ns.push(nanos);
        store_read += read;
        let s = &outcome.stats;
        hits += s.total_hits;
        candidates += s.candidates;
        aligned += s.fine_alignments;
        results += outcome.results.len() as u64;
        lists += s.lists_fetched;
        bytes += s.postings_bytes_read;
        ids += s.postings_decoded;
        blocks += s.blocks_decoded;
        skipped += s.blocks_skipped;
        check.checked += 1;
        if traced.ok() != Some(answers_of(&outcome)) {
            check.failed += 1;
        }
        // Alignment probe: the fine stage's banded alignments, timed one
        // by one on the same inputs.
        for strand in &work {
            for c in &strand.candidates {
                let target = nucdb::RecordSource::try_bases(db.store(), c.record).map_err(err)?;
                tracer.span("align", q, None, || {
                    std::hint::black_box(banded_sw_score(
                        &strand.bases,
                        &target,
                        &params.scheme,
                        c.best_diagonal,
                        half_width,
                    ))
                });
                cells += strand.bases.len() as u64 * (2 * half_width as u64 + 1);
            }
        }
    }

    let spans = tracer.spans();
    let n = f64::from(TRACED_QUERIES);
    attribution(&spans, check);
    let engine_ns: f64 = durations(&spans, "engine").iter().sum();
    let fine_ns: f64 = durations(&spans, "fine").iter().sum();
    let fetch_ns: f64 = durations(&spans, "index.fetch").iter().sum();
    let align_ns: f64 = durations(&spans, "align").iter().sum();
    // The root's self time is what no layer span covers.
    let unattributed: f64 = spans
        .iter()
        .zip(self_times(&spans))
        .filter(|(s, _)| s.name == "engine")
        .map(|(_, ns)| ns as f64)
        .sum();
    let traced_median = median(&durations(&spans, "engine"));
    let plain_median = median(&plain_ns);

    out.extend([
        Metric::new("engine.search_us", "us", us(plain_median)),
        Metric::new(
            "engine.merge_us",
            "us",
            us(median(&durations(&spans, "engine.merge"))),
        ),
        Metric::new(
            "coarse.rank_us",
            "us",
            us(median(&durations(&spans, "coarse"))),
        ),
        Metric::new("coarse.hits_per_query", "count", hits as f64 / n),
        Metric::new(
            "coarse.candidates_per_query",
            "count",
            candidates as f64 / n,
        ),
        Metric::new(
            "coarse.useful_frac",
            "fraction",
            ratio(results as f64, aligned as f64),
        ),
        Metric::new(
            "index.fetch_us",
            "us",
            us(median(&per_query_sums(&spans, "index.fetch"))),
        ),
        Metric::new("index.lists_fetched", "count", lists as f64 / n),
        Metric::new("index.postings_bytes_read", "B", bytes as f64 / n),
        Metric::new("index.ids_decoded", "count", ids as f64 / n),
        Metric::new("index.blocks_decoded", "count", blocks as f64 / n),
        Metric::new("index.blocks_skipped", "count", skipped as f64 / n),
        Metric::new(
            "index.skip_frac",
            "fraction",
            ratio(skipped as f64, (blocks + skipped) as f64),
        ),
        Metric::new("index.ns_per_id", "ns", ratio(fetch_ns, ids as f64)),
        Metric::new(
            "store.fetch_us",
            "us",
            us(median(&durations(&spans, "store.fetch"))),
        ),
        Metric::new("store.bytes_read_per_query", "B", store_read as f64 / n),
        Metric::new(
            "align.us_per_candidate",
            "us",
            us(median(&durations(&spans, "align"))),
        ),
        Metric::new("align.dp_cells_per_query", "count", cells as f64 / n),
        Metric::new(
            "align.mcells_per_s",
            "Mcells/s",
            ratio(cells as f64, align_ns) * 1e3,
        ),
        Metric::new(
            "fine.search_us",
            "us",
            us(median(&durations(&spans, "fine"))),
        ),
        Metric::new("fine.share", "fraction", ratio(fine_ns, engine_ns)),
        Metric::new("obs.traced_engine_us", "us", us(traced_median)),
        Metric::new(
            "obs.unattributed_share",
            "fraction",
            ratio(unattributed, engine_ns),
        ),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            ratio(traced_median - plain_median, plain_median) * 100.0,
        ),
    ]);
    Ok(())
}

/// Spans of the traced engine tree.
const ENGINE_TREE: [&str; 6] = [
    "engine",
    "coarse",
    "index.fetch",
    "fine",
    "store.fetch",
    "engine.merge",
];

/// Print each engine-tree layer's share of the traced engine time by
/// self time, the root's own self time standing as `unattributed`, and
/// check that the shares add up exactly.
fn attribution(spans: &[Span], check: &mut TraceCheck) {
    let totals = totals_by_name(spans);
    let engine_ns = totals.get("engine").map_or(0, |t| t.1);
    let mut self_sum = 0;
    println!("traced engine time by layer self time:");
    for name in ENGINE_TREE {
        let self_ns = totals.get(name).map_or(0, |t| t.2);
        self_sum += self_ns;
        let label = if name == "engine" {
            "unattributed"
        } else {
            name
        };
        println!(
            "  {label:<14} {:>7.2}%",
            ratio(self_ns as f64, engine_ns as f64) * 100.0
        );
    }
    check.checked += 1;
    if self_sum != engine_ns {
        check.failed += 1;
    }
}

/// Median over queries of the client latency of a sequential `/search`
/// request minus the in-process search time of the same query.
fn serve_overhead(
    inputs: &Inputs,
    deployment: &Deployment,
    search: &mut dyn FnMut(&DnaSeq) -> Result<(), String>,
    check: &mut TraceCheck,
) -> Result<f64, String> {
    let mut conn = Conn::connect(deployment.addr()).map_err(err)?;
    let mut overhead = Vec::new();
    for q in 0..u64::from(TRACED_QUERIES) {
        let query = inputs.query(q);
        let body = fasta(&query.id, &query.seq);
        let mut http = || {
            let t = Instant::now();
            let status = conn.post("/search", &body).map(|r| r.0);
            (status, t.elapsed().as_nanos() as f64)
        };
        let mut direct = || {
            let t = Instant::now();
            let answered = search(&query.seq);
            (answered, t.elapsed().as_nanos() as f64)
        };
        // Alternate which path runs first so neither gets the warmer cache.
        let ((status, http_ns), (answered, direct_ns)) = if q % 2 == 0 {
            let h = http();
            (h, direct())
        } else {
            let d = direct();
            (http(), d)
        };
        overhead.push(http_ns - direct_ns);
        check.checked += 1;
        if !matches!(status, Ok(200)) || answered.is_err() {
            check.failed += 1;
        }
    }
    Ok(us(median(&overhead)))
}

/// The segment layer, in process: stream the insert records into a
/// fresh live database in the served batch size, flushing at the default
/// memtable size and running one compaction step after each flush,
/// with a snapshot search after every batch. Returns the final live
/// database for the engine-layer pass.
fn segment_layers(
    inputs: &Inputs,
    dir: &Path,
    registry: &Arc<MetricsRegistry>,
    tracer: &Tracer,
    out: &mut Vec<Metric>,
) -> Result<LiveDatabase, String> {
    let threshold = LiveOptions::default().memtable_max_records;
    let opts = LiveOptions {
        // Flushes are called explicitly below, at the same memtable size
        // the server's automatic flush uses, so each gets its own span.
        memtable_max_records: usize::MAX,
        registry: Arc::clone(registry),
        ..LiveOptions::default()
    };
    let live = LiveDatabase::create(dir, &inputs.config, opts).map_err(err)?;
    live.insert_batch(inputs.records[..inputs.initial].to_vec())
        .map_err(err)?;
    live.flush().map_err(err)?;
    let stream = &inputs.records[inputs.initial..];
    let take = (TRACED_FLUSHES * threshold + threshold / 2).min(stream.len());
    let (mut inserted_bytes, mut written_bytes) = (0u64, 0u64);
    let (mut flushes, mut compactions) = (0u64, 0u64);
    let mut parts = Vec::new();
    let mut snapshot_ns = Vec::new();
    let mut scratch = CoarseScratch::new();
    for (b, chunk) in stream[..take].chunks(INSERT_BATCH).enumerate() {
        let q = b as u32;
        inserted_bytes += chunk.iter().map(|(_, s)| s.len() as u64).sum::<u64>();
        tracer
            .span("segment.insert_batch", q, None, || {
                live.insert_batch(chunk.to_vec())
            })
            .map_err(err)?;
        if live.status().memtable_records as usize >= threshold {
            tracer
                .span("segment.flush", q, None, || live.flush())
                .map_err(err)?;
            flushes += 1;
            written_bytes += live.status().segments.last().map_or(0, |s| s.bytes());
            let run = tracer
                .span("segment.compact", q, None, || live.compact_once())
                .map_err(err)?;
            if let Some(run) = run {
                compactions += 1;
                written_bytes += run.output_bytes;
            }
        }
        let snapshot = live.snapshot();
        parts.push(snapshot.segment_rows().len() as f64);
        let query = inputs.query(u64::from(q)).seq;
        let t = Instant::now();
        snapshot
            .search_with(&query, &inputs.params, &mut scratch)
            .map_err(err)?;
        snapshot_ns.push(t.elapsed().as_nanos() as f64);
    }
    let spans = tracer.spans();
    let ms = |name: &str| median(&durations(&spans, name)) / 1e6;
    out.extend([
        Metric::new(
            "segment.insert_batch_us",
            "us",
            us(median(&durations(&spans, "segment.insert_batch"))),
        ),
        Metric::new("segment.flush_ms", "ms", ms("segment.flush")),
        Metric::new("segment.compact_ms", "ms", ms("segment.compact")),
        Metric::new("segment.flushes", "count", flushes as f64),
        Metric::new("segment.compaction_runs", "count", compactions as f64),
        Metric::new(
            "segment.write_amp",
            "ratio",
            ratio(written_bytes as f64, inserted_bytes as f64),
        ),
        Metric::new("segment.parts_per_query", "count", median(&parts)),
        Metric::new("segment.snapshot_search_us", "us", us(median(&snapshot_ns))),
    ]);
    Ok(live)
}

/// The shard layer: the shard directories under `shard_root` opened
/// behind timing wrappers, assembled into a set, and compared with
/// `joint`, a single build of the same records.
fn shard_layers(
    inputs: &Inputs,
    shard_root: &Path,
    joint: &Database,
    tracer: &Arc<Tracer>,
    check: &mut TraceCheck,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut names: Vec<String> = std::fs::read_dir(shard_root)
        .map_err(err)?
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let shards = names
        .iter()
        .map(|name| {
            let inner = open_shard_dir(&shard_root.join(name), name).map_err(err)?;
            Ok(Arc::new(TimedShard::new(inner, Arc::clone(tracer))) as Arc<dyn Shard>)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let registry = MetricsRegistry::new();
    let set = ShardSet::assemble(shards, Vec::new(), ShardSetConfig::default(), &registry)
        .map_err(err)?;
    let (mut set_ns, mut joint_ns) = (Vec::new(), Vec::new());
    let (mut slowest, mut imbalance) = (Vec::new(), Vec::new());
    for q in 0..TRACED_QUERIES {
        let query = inputs.query(u64::from(q)).seq;
        let span = tracer.begin_ambient("shard.search", q, None);
        let sharded = set.search(&query, &inputs.params);
        tracer.end_ambient(span);
        let sharded = sharded.map_err(err)?;
        let t = Instant::now();
        let plain = joint.search(&query, &inputs.params).map_err(err)?;
        joint_ns.push(t.elapsed().as_nanos() as f64);
        check.checked += 1;
        let got: Vec<(u32, i32)> = sharded
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect();
        let want: Vec<(u32, i32)> = plain.results.iter().map(|r| (r.record, r.score)).collect();
        if got != want {
            check.failed += 1;
        }
        let spans = tracer.spans();
        set_ns.push(spans[span as usize].nanos() as f64);
        let coarse: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "shard.coarse" && s.parent == Some(span))
            .map(|s| s.nanos() as f64)
            .collect();
        let max = coarse.iter().copied().fold(0.0, f64::max);
        slowest.push(max);
        imbalance.push(ratio(
            max,
            coarse.iter().sum::<f64>() / coarse.len().max(1) as f64,
        ));
    }
    let hedges: u64 = names
        .iter()
        .map(|name| {
            registry
                .counter_with("nucdb_shard_hedges_total", "", &[("shard", name)])
                .get()
        })
        .sum();
    out.extend([
        Metric::new("shard.search_us", "us", us(median(&set_ns))),
        Metric::new(
            "shard.overhead_us",
            "us",
            us(median(&set_ns) - median(&joint_ns)),
        ),
        Metric::new("shard.slowest_coarse_us", "us", us(median(&slowest))),
        Metric::new("shard.imbalance", "ratio", median(&imbalance)),
        Metric::new("shard.hedges", "count", hedges as f64),
    ]);
    Ok(())
}

/// Run the traced pass for `inputs` against the still-running
/// `deployment`, writing the spans to `spans_out`. Returns every
/// per-layer metric but the on-disk sizes, which [`crate::served::finish`]
/// weighs once the deployment is stopped.
pub fn run(
    inputs: &Inputs,
    deployment: &Deployment,
    served: &ServedResult,
    work: &Path,
    spans_out: &Path,
) -> Result<(Vec<Metric>, TraceCheck), String> {
    let mut out = Vec::new();
    let mut check = TraceCheck::default();
    let tracer = Arc::new(Tracer::default());

    // The serve layer: overhead over the in-process path the server runs.
    let registry = Arc::new(MetricsRegistry::new());
    // The in-process side reuses one coarse scratch, as a server worker
    // does.
    let mut scratch = CoarseScratch::new();
    let params = &inputs.params;
    let overhead = match &deployment.backend {
        Backend::Static { index, store } => {
            let db = open_static(index, store, &MetricsRegistry::new())?;
            let mut search = |q: &DnaSeq| db.search_with(q, params, &mut scratch).map(drop);
            serve_overhead(
                inputs,
                deployment,
                &mut |q| search(q).map_err(err),
                &mut check,
            )?
        }
        Backend::Live(live) => {
            let mut search = |q: &DnaSeq| {
                live.snapshot()
                    .search_with(q, params, &mut scratch)
                    .map(drop)
            };
            serve_overhead(
                inputs,
                deployment,
                &mut |q| search(q).map_err(err),
                &mut check,
            )?
        }
    };
    let insert_ms = served.insert_latency_ms();
    out.extend([
        Metric::new("search_p99_ms", "ms", served.search_latency_ms().p99),
        Metric::new("serve.overhead_us", "us", overhead),
        Metric::new("serve.shed", "count", served.shed() as f64),
        Metric::new(
            "serve.error_rate",
            "fraction",
            ratio(served.failed() as f64, served.attempted() as f64),
        ),
        Metric::new("serve.ingest_rps", "1/s", served.ingest_rps()),
        Metric::new("serve.insert_p50_ms", "ms", insert_ms.p50),
        Metric::new("serve.insert_p99_ms", "ms", insert_ms.p99),
    ]);

    // The engine layers, over the database each workload searches: the
    // served files (static workloads) or a traced live database
    // (live_mixed). On screen, the same records built as shards give
    // the shard layer, with the served database as the joint build.
    match &deployment.backend {
        Backend::Static { index, store } => {
            let db = open_static(index, store, &registry)?;
            engine_layers(inputs, &db, &registry, &tracer, &mut check, &mut out)?;
            if inputs.workload == Workload::Screen {
                let root = work.join("shards");
                build_sharded_root(&root, inputs.records.clone(), SHARDS, &inputs.config)
                    .map_err(err)?;
                shard_layers(inputs, &root, &db, &tracer, &mut check, &mut out)?;
            }
        }
        Backend::Live(_) => {
            let live = segment_layers(
                inputs,
                &work.join("live-traced"),
                &registry,
                &tracer,
                &mut out,
            )?;
            engine_layers(
                inputs,
                &live.snapshot(),
                &registry,
                &tracer,
                &mut check,
                &mut out,
            )?;
        }
    }
    out.push(Metric::new("index.build_s", "s", deployment.build_s));
    tracer.write_jsonl(spans_out).map_err(err)?;
    Ok((out, check))
}
