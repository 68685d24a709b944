//! The database engine: sequence store + inverted index + partitioned
//! query evaluation.

use std::borrow::Cow;
use std::path::Path;
use std::time::Instant;

use nucdb_align::Alignment;
use nucdb_index::{
    CompressedIndex, FetchStats, IndexBuilder, IndexError, IndexParams, ListCodec, OnDiskIndex,
    PostingsVisitor,
};
use nucdb_seq::DnaSeq;

use nucdb_obs::{CaptureReason, Forensics, MetricsRegistry, QueryTrace, SpanNode, TraceSink};

use crate::coarse::{coarse_rank_explain, CoarseOutcome, CoarseScratch, PostingsSource};
use crate::explain::{
    fine_mode_name, ranking_name, CandidateExplain, CoarseExplain, ExplainPlan, StrandExplain,
};
use crate::fine::{fine_search_traced, CandidateTiming, FineResult};
use crate::metrics::SearchMetrics;
use crate::params::{SearchParams, Strand};
use crate::store::{OnDiskStore, RecordSource, SequenceStore, StorageMode, StoreVariant};

/// Index file of a plain database directory.
pub const INDEX_FILE: &str = "index.nucidx";
/// Sequence store file of a plain database directory.
pub const STORE_FILE: &str = "store.nucsto";

/// Build-time configuration of a database.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Interval index parameters.
    pub index: IndexParams,
    /// Postings codec.
    pub codec: ListCodec,
    /// Sequence storage mode.
    pub storage: StorageMode,
}

impl Default for DbConfig {
    fn default() -> DbConfig {
        DbConfig {
            index: IndexParams::new(8),
            codec: ListCodec::Paper,
            storage: StorageMode::DirectCoding,
        }
    }
}

/// The index backing a database: memory-resident or on disk.
pub enum IndexVariant {
    /// Fully in-memory compressed index.
    Memory(CompressedIndex),
    /// On-disk index with per-list fetching.
    Disk(OnDiskIndex),
    /// Ordered set of index parts (live ingestion segments + memtable).
    Segmented(crate::segment::SegmentedIndex),
}

impl IndexVariant {
    /// The wrapped index as a postings source.
    fn source(&self) -> &dyn PostingsSource {
        match self {
            IndexVariant::Memory(i) => i,
            IndexVariant::Disk(i) => i,
            IndexVariant::Segmented(i) => i,
        }
    }
}

impl PostingsSource for IndexVariant {
    fn num_records(&self) -> u32 {
        self.source().num_records()
    }

    fn record_lens(&self) -> &[u32] {
        self.source().record_lens()
    }

    fn index_params(&self) -> &IndexParams {
        self.source().index_params()
    }

    fn fetch_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.source().fetch_stream(code, io_buf, visitor)
    }

    fn fetch_counts_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.source().fetch_counts_stream(code, io_buf, visitor)
    }

    fn list_max_count(&self, code: u64) -> Option<u32> {
        self.source().list_max_count(code)
    }
}

/// One answer to a query.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Record id within the collection.
    pub record: u32,
    /// The record's external identifier.
    pub id: String,
    /// Local alignment score from fine search.
    pub score: i32,
    /// Coarse score that promoted the record.
    pub coarse_score: f64,
    /// Total coarse interval hits.
    pub coarse_hits: u32,
    /// Which strand of the query produced this answer.
    pub strand: Strand,
    /// Full alignment when fine search ran with traceback (coordinates
    /// are in the searched strand's orientation).
    pub alignment: Option<Alignment>,
}

/// Per-query cost counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Distinct query intervals.
    pub intervals_looked_up: u64,
    /// Postings lists found and decoded.
    pub lists_fetched: u64,
    /// Postings entries decoded (entries inside skipped blocks are not
    /// counted).
    pub postings_decoded: u64,
    /// Compressed postings bytes read.
    pub postings_bytes_read: u64,
    /// Block-codec blocks unpacked.
    pub blocks_decoded: u64,
    /// Block-codec blocks proven hopeless and skipped undecoded.
    pub blocks_skipped: u64,
    /// Hit pairs accumulated.
    pub total_hits: u64,
    /// Candidates passed to fine search.
    pub candidates: u64,
    /// Alignments computed in fine search.
    pub fine_alignments: u64,
    /// Coarse stage wall time in nanoseconds.
    pub coarse_nanos: u64,
    /// Fine stage wall time in nanoseconds.
    pub fine_nanos: u64,
    /// Coarse sub-stage: interval extraction + code sort, nanoseconds.
    pub extract_nanos: u64,
    /// Coarse sub-stage: postings fetch + hit accumulation, nanoseconds.
    pub accumulate_nanos: u64,
    /// Coarse sub-stage: diagonal scatter + scoring + ranking, nanoseconds.
    pub rank_nanos: u64,
    /// Strand merge + result assembly wall time in nanoseconds.
    pub merge_nanos: u64,
}

impl QueryStats {
    /// Add one coarse pass's work counters and sub-stage times. The
    /// caller adds the coarse wall time and the candidates it passes on
    /// to fine search.
    pub(crate) fn add_coarse(&mut self, coarse: &CoarseOutcome) {
        self.intervals_looked_up += coarse.intervals_looked_up;
        self.lists_fetched += coarse.lists_fetched;
        self.postings_decoded += coarse.postings_decoded;
        self.postings_bytes_read += coarse.postings_bytes_read;
        self.blocks_decoded += coarse.blocks_decoded;
        self.blocks_skipped += coarse.blocks_skipped;
        self.total_hits += coarse.total_hits;
        self.extract_nanos += coarse.extract_nanos;
        self.accumulate_nanos += coarse.accumulate_nanos;
        self.rank_nanos += coarse.rank_nanos;
    }

    /// Count `n` candidates passed to fine search (one alignment each).
    pub(crate) fn add_candidates(&mut self, n: usize) {
        self.candidates += n as u64;
        self.fine_alignments += n as u64;
    }
}

/// The query orientations `strand` asks for, in evaluation order:
/// forward as given, reverse as the reverse complement.
pub(crate) fn oriented_strands(query: &DnaSeq, strand: Strand) -> Vec<(Strand, Cow<'_, DnaSeq>)> {
    let mut strands = Vec::with_capacity(2);
    if strand != Strand::Reverse {
        strands.push((Strand::Forward, Cow::Borrowed(query)));
    }
    if strand != Strand::Forward {
        strands.push((Strand::Reverse, Cow::Owned(query.reverse_complement())));
    }
    strands
}

/// Merge per-strand fine results into the ranked answer: per record keep
/// the better strand, rank by `(score desc, record asc)`, keep
/// `max_results`, and name each record through `id_of`.
pub(crate) fn merge_strands(
    mut merged: Vec<(Strand, FineResult)>,
    max_results: usize,
    id_of: impl Fn(u32) -> String,
) -> Vec<SearchResult> {
    merged.sort_by(|(_, a), (_, b)| a.record.cmp(&b.record).then(b.score.cmp(&a.score)));
    merged.dedup_by_key(|(_, r)| r.record);
    merged.sort_by(|(_, a), (_, b)| b.score.cmp(&a.score).then(a.record.cmp(&b.record)));
    merged
        .into_iter()
        .take(max_results)
        .map(|(strand, r)| SearchResult {
            record: r.record,
            id: id_of(r.record),
            score: r.score,
            coarse_score: r.coarse.score,
            coarse_hits: r.coarse.hits,
            strand,
            alignment: r.alignment,
        })
        .collect()
}

/// Results plus cost counters.
#[derive(Debug, Clone, Default)]
pub struct SearchOutcome {
    /// Ranked answers, best first.
    pub results: Vec<SearchResult>,
    /// Cost counters.
    pub stats: QueryStats,
    /// The explain plan, when [`SearchParams::explain`] was set. Plans
    /// are passive observers: `results` and `stats` are bit-identical
    /// with or without one.
    pub explain: Option<ExplainPlan>,
}

/// Cap on per-candidate child spans under a `fine` span, so one query
/// with a huge candidate list cannot bloat a trace (and therefore the
/// flight recorder's memory bound). The slowest candidates are kept.
const MAX_CANDIDATE_SPANS: usize = 8;

/// Adapt a store-layer error to the engine's error type. Checksum
/// mismatches map variant-to-variant (so callers see one corruption type
/// regardless of which file failed); plain I/O errors pass through; the
/// rest surface as `InvalidData` I/O errors with the
/// [`nucdb_seq::SeqError`] reachable through `source()`. Every branch
/// satisfies [`IndexError::is_corruption`] when the cause is corrupt
/// bytes.
pub(crate) fn io_err(e: nucdb_seq::SeqError) -> IndexError {
    match e {
        nucdb_seq::SeqError::Corruption {
            section,
            offset,
            expected,
            actual,
        } => IndexError::Corruption {
            section,
            offset,
            expected,
            actual,
        },
        nucdb_seq::SeqError::Io(io) => IndexError::Io(io),
        other => IndexError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, other)),
    }
}

/// An indexed nucleotide database.
///
/// # Concurrency
///
/// The entire query path takes `&self`: [`Database::search`],
/// [`Database::search_with`], and [`Database::search_batch_parallel`]
/// never mutate the database, so a `Database` inside an
/// [`Arc`](std::sync::Arc) can serve any number of threads
/// concurrently with no external lock. Per-query mutable state lives in
/// the caller-owned [`CoarseScratch`]; everything the database itself
/// touches during a query is either immutable (vocabulary, postings,
/// stored sequences — on-disk variants use positional reads, so there
/// is no shared file cursor) or an interior atomic (the metric
/// counters, histograms, and I/O tallies behind [`SearchMetrics`],
/// which are relaxed `AtomicU64`s designed for concurrent writers).
///
/// The only `&mut self` methods are setup: [`Database::bind_metrics`],
/// [`Database::set_trace`], and the disk-conversion constructors.
/// Configure observability first, then share the database —
/// `nucdb-serve` follows exactly this pattern.
pub struct Database {
    store: StoreVariant,
    index: IndexVariant,
    /// Observability handles; fully detached (free) until
    /// [`Database::bind_metrics`] is called.
    metrics: SearchMetrics,
}

impl Database {
    /// Build an in-memory database from `(id, sequence)` records.
    pub fn build(
        records: impl IntoIterator<Item = (String, DnaSeq)>,
        config: &DbConfig,
    ) -> Database {
        let mut store = SequenceStore::new(config.storage);
        let mut builder = IndexBuilder::new(config.index.clone()).with_codec(config.codec);
        for (id, seq) in records {
            let bases = seq.representative_bases();
            store.add(id, &seq);
            builder.add_record(&bases);
        }
        Database {
            store: StoreVariant::Memory(store),
            index: IndexVariant::Memory(builder.finish()),
            metrics: SearchMetrics::disabled(),
        }
    }

    /// Assemble from already-built parts. The index must cover exactly
    /// the store's records.
    pub fn from_parts(store: SequenceStore, index: IndexVariant) -> Database {
        Database::from_variants(StoreVariant::Memory(store), index)
    }

    /// Assemble from any store/index variant combination.
    pub fn from_variants(store: StoreVariant, index: IndexVariant) -> Database {
        assert_eq!(
            RecordSource::len(&store) as u32,
            index.num_records(),
            "store and index disagree on record count"
        );
        Database {
            store,
            index,
            metrics: SearchMetrics::disabled(),
        }
    }

    /// Open a plain database directory ([`INDEX_FILE`] + [`STORE_FILE`],
    /// as `nucdb build` writes it) fully on disk: postings lists and
    /// candidate records are both fetched per query. Files that disagree
    /// on the record count (say, a store copied in from another build)
    /// are an error, not a database.
    pub fn open_dir(dir: &Path) -> Result<Database, IndexError> {
        let index = OnDiskIndex::open(&dir.join(INDEX_FILE))?;
        let store = OnDiskStore::open(&dir.join(STORE_FILE)).map_err(io_err)?;
        let (index_records, store_records) = (index.num_records(), RecordSource::len(&store));
        if index_records as usize != store_records {
            return Err(IndexError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{} holds {index_records} records but {} holds {store_records}",
                    INDEX_FILE, STORE_FILE
                ),
            )));
        }
        Ok(Database::from_variants(
            StoreVariant::Disk(store),
            IndexVariant::Disk(index),
        ))
    }

    /// Persist the index to `path` and reopen it in on-disk mode, so
    /// postings are fetched per query (the paper's disk setting).
    pub fn with_disk_index(self, path: &Path) -> Result<Database, IndexError> {
        let index = match self.index {
            IndexVariant::Memory(index) => {
                nucdb_index::write_index(&index, path)?;
                IndexVariant::Disk(OnDiskIndex::open(path)?)
            }
            other @ (IndexVariant::Disk(_) | IndexVariant::Segmented(_)) => other,
        };
        Ok(Database {
            store: self.store,
            index,
            metrics: self.metrics,
        })
    }

    /// Persist the sequence store to `path` and reopen it in on-disk
    /// mode, so candidate records are fetched per query — completing the
    /// paper's disk setting (index *and* collection on disk).
    pub fn with_disk_store(self, path: &Path) -> Result<Database, IndexError> {
        let store = match self.store {
            StoreVariant::Memory(store) => {
                store.write_to(path).map_err(io_err)?;
                StoreVariant::Disk(OnDiskStore::open(path).map_err(io_err)?)
            }
            other @ (StoreVariant::Disk(_) | StoreVariant::Segmented(_)) => other,
        };
        Ok(Database {
            store,
            index: self.index,
            metrics: self.metrics,
        })
    }

    /// Bind this database to a metrics registry: register the engine's
    /// stage histograms and counters, and migrate the on-disk index and
    /// store I/O counters onto registry-backed handles (their accumulated
    /// values carry over). Call after the final
    /// [`Database::with_disk_index`] / [`Database::with_disk_store`]
    /// conversion; binding to [`MetricsRegistry::disabled`] detaches
    /// everything again.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        let trace = std::mem::take(&mut self.metrics.trace);
        let forensics = std::mem::take(&mut self.metrics.forensics);
        self.metrics = SearchMetrics::new(registry)
            .with_trace(trace)
            .with_forensics(forensics);
        if let IndexVariant::Disk(index) = &mut self.index {
            index.bind_metrics(registry);
        }
        if let StoreVariant::Disk(store) = &mut self.store {
            store.bind_metrics(registry);
        }
    }

    /// Attach a sampled trace sink; subsequent queries emit JSONL events
    /// through it. Works with or without a bound metrics registry.
    pub fn set_trace(&mut self, trace: TraceSink) {
        trace.bind_dropped(self.metrics.trace_dropped.clone());
        self.metrics.trace = trace;
    }

    /// Attach a query-forensics handle (flight recorder + tail
    /// sampling); subsequent queries are captured per its configuration,
    /// independently of the trace sink's stride. Works with or without a
    /// bound metrics registry; like the other observability setters this
    /// is `&mut self` — configure before sharing the database.
    pub fn set_forensics(&mut self, forensics: Forensics) {
        let slow_log = forensics.slow_log();
        slow_log.bind_dropped(self.metrics.slow_log_dropped.clone());
        slow_log.bind_rotations(self.metrics.slow_log_rotations.clone());
        self.metrics.forensics = forensics;
    }

    /// The forensics handle bound to this database (disabled by default).
    pub fn forensics(&self) -> &Forensics {
        &self.metrics.forensics
    }

    /// Per-part rows for explain plans: empty unless this database is a
    /// segmented (live ingestion) view.
    pub fn segment_rows(&self) -> Vec<crate::explain::SegmentExplain> {
        match &self.index {
            IndexVariant::Segmented(i) => i.explain_rows(),
            _ => Vec::new(),
        }
    }

    /// The engine's observability handles.
    pub fn metrics(&self) -> &SearchMetrics {
        &self.metrics
    }

    /// The sequence store.
    pub fn store(&self) -> &StoreVariant {
        &self.store
    }

    /// The index.
    pub fn index(&self) -> &IndexVariant {
        &self.index
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        RecordSource::len(&self.store)
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run coarse + fine for one strand orientation of the query,
    /// accumulating cost counters into `stats`. When `spans` is given,
    /// a `coarse` span (children `extract`/`accumulate`/`rank`) and a
    /// `fine` span (children: the slowest candidates) are appended, each
    /// carrying its work counters; `query_start` anchors their offsets.
    #[allow(clippy::too_many_arguments)]
    fn search_strand(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        stats: &mut QueryStats,
        query_start: Instant,
        strand: Strand,
        spans: Option<&mut Vec<SpanNode>>,
        explain: Option<&mut Vec<StrandExplain>>,
    ) -> Result<Vec<FineResult>, IndexError> {
        let strand_idx = u64::from(strand == Strand::Reverse);
        let query_bases = query.representative_bases();
        let mut coarse_explain = explain.is_some().then(CoarseExplain::default);
        let coarse_offset = query_start.elapsed().as_nanos() as u64;
        let coarse_start = Instant::now();
        let coarse = coarse_rank_explain(
            &self.index,
            &query_bases,
            params,
            scratch,
            coarse_explain.as_mut(),
        )?;
        let coarse_nanos = coarse_start.elapsed().as_nanos() as u64;
        stats.coarse_nanos += coarse_nanos;
        stats.add_coarse(&coarse);
        stats.add_candidates(coarse.candidates.len());

        let fine_mode = params
            .fine
            .for_granularity(self.index.index_params().granularity);

        let fine_offset = query_start.elapsed().as_nanos() as u64;
        let fine_start = Instant::now();
        let mut timings: Vec<CandidateTiming> = Vec::new();
        let fine = fine_search_traced(
            &self.store,
            query,
            &coarse.candidates,
            fine_mode,
            &params.scheme,
            params.min_score,
            (spans.is_some() || explain.is_some()).then_some(&mut timings),
        )
        .map_err(io_err);
        let fine_nanos = fine_start.elapsed().as_nanos() as u64;
        stats.fine_nanos += fine_nanos;

        // The explain candidates want alignment order; take them before
        // the span builder below re-sorts `timings` by duration.
        if let (Some(strands), Some(coarse_explain)) = (explain, coarse_explain) {
            strands.push(StrandExplain {
                strand,
                coarse: coarse_explain,
                fine_mode: fine_mode_name(fine_mode),
                candidates: timings
                    .iter()
                    .map(|t| CandidateExplain {
                        record: t.record,
                        score: t.score,
                        nanos: t.nanos,
                        kept: t.score >= params.min_score,
                    })
                    .collect(),
            });
        }

        if let Some(spans) = spans {
            spans.push(
                SpanNode::new("coarse", coarse_offset, coarse_nanos)
                    .counter("@strand", strand_idx)
                    .child(
                        SpanNode::new("extract", coarse_offset, coarse.extract_nanos)
                            .counter("intervals_looked_up", coarse.intervals_looked_up),
                    )
                    .child(
                        SpanNode::new(
                            "accumulate",
                            coarse_offset + coarse.extract_nanos,
                            coarse.accumulate_nanos,
                        )
                        .counter("lists_fetched", coarse.lists_fetched)
                        .counter("ids_decoded", coarse.postings_decoded)
                        .counter("postings_bytes_read", coarse.postings_bytes_read)
                        .counter("blocks_decoded", coarse.blocks_decoded)
                        .counter("blocks_skipped", coarse.blocks_skipped)
                        .counter("hits", coarse.total_hits),
                    )
                    .child(
                        SpanNode::new(
                            "rank",
                            coarse_offset + coarse.extract_nanos + coarse.accumulate_nanos,
                            coarse.rank_nanos,
                        )
                        .counter("candidates", coarse.candidates.len() as u64),
                    ),
            );

            let mut fine_span = SpanNode::new("fine", fine_offset, fine_nanos)
                .counter("@strand", strand_idx)
                .counter("alignments", coarse.candidates.len() as u64);
            // Keep only the slowest candidates so trace size stays bounded.
            timings.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.record.cmp(&b.record)));
            for t in timings.iter().take(MAX_CANDIDATE_SPANS) {
                fine_span = fine_span.child(
                    SpanNode::new("candidate", fine_offset + t.start_ns, t.nanos)
                        .counter("@record", t.record as u64)
                        .counter("@score", t.score.max(0) as u64),
                );
            }
            spans.push(fine_span);
        }
        fine
    }

    /// Evaluate a query with partitioned search: coarse index ranking,
    /// then fine local alignment of the top candidates. With
    /// [`Strand::Both`], the query and its reverse complement are each
    /// evaluated and merged per record by best score.
    ///
    /// Allocates fresh coarse working memory; batch callers should hold a
    /// [`CoarseScratch`] and use [`Database::search_with`].
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
    ) -> Result<SearchOutcome, IndexError> {
        self.search_with(query, params, &mut CoarseScratch::new())
    }

    /// [`Database::search`] with caller-provided coarse working memory.
    /// One scratch serves any number of sequential queries without
    /// per-query allocation; results are independent of its history.
    ///
    /// A query that trips over on-disk corruption (checksum mismatch,
    /// structural violation, truncated read) fails with a typed error and
    /// increments `nucdb_io_corruption_total`; the database itself stays
    /// healthy and keeps serving queries that touch intact bytes.
    pub fn search_with(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
    ) -> Result<SearchOutcome, IndexError> {
        self.search_with_id(query, params, scratch, None)
    }

    /// [`Database::search_with`] carrying a caller-assigned request id,
    /// which flows into every span, trace line, and flight-recorder
    /// entry this query produces — `nucdb-serve` passes the id it echoed
    /// to the client, so a slow trace is joinable with the client's own
    /// records. Results are unaffected by the id.
    pub fn search_with_id(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<SearchOutcome, IndexError> {
        let outcome = self.search_attempt(query, params, scratch, request_id);
        if let Err(e) = &outcome {
            if e.is_corruption() {
                self.metrics.io_corruption.inc();
            }
        }
        outcome
    }

    fn search_attempt(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<SearchOutcome, IndexError> {
        // Decide capture up front: the flight recorder sees every query,
        // the stride sink its 1-in-K sample. Either one wants spans.
        let stride_sample = self.metrics.trace.should_sample();
        let capture = self.metrics.forensics.is_enabled() || stride_sample;
        // Collect an explain plan when asked, and also while tail
        // sampling is armed — a slow query is only known to be slow after
        // it finishes, so its explanation must already exist.
        let tail_armed = self
            .metrics
            .forensics
            .slow_threshold_ns()
            .is_some_and(|t| t < u64::MAX);
        let want_plan = params.explain || tail_armed;
        let mut strand_plans: Vec<StrandExplain> = Vec::new();

        // Deterministic latency injection for tail-sampler tests; only a
        // sleep, so results are bit-identical with or without it.
        let inject_ns = self.metrics.forensics.inject_delay_ns();
        if inject_ns > 0 {
            std::thread::sleep(std::time::Duration::from_nanos(inject_ns));
        }

        let query_start = Instant::now();
        let mut stats = QueryStats::default();
        let mut spans: Vec<SpanNode> = Vec::new();

        let strands = (|| -> Result<Vec<(Strand, FineResult)>, IndexError> {
            let mut merged: Vec<(Strand, FineResult)> = Vec::new();
            for (strand, oriented) in oriented_strands(query, params.strand) {
                let fine = self.search_strand(
                    &oriented,
                    params,
                    scratch,
                    &mut stats,
                    query_start,
                    strand,
                    capture.then_some(&mut spans),
                    want_plan.then_some(&mut strand_plans),
                )?;
                merged.extend(fine.into_iter().map(|r| (strand, r)));
            }
            Ok(merged)
        })();
        let merged = match strands {
            Ok(merged) => merged,
            Err(e) => {
                // Tail sampling: failed queries are always captured,
                // with whatever spans completed before the failure.
                self.capture_failure(query_start, request_id, &e, std::mem::take(&mut spans));
                return Err(e);
            }
        };

        let merge_start = Instant::now();
        let results = merge_strands(merged, params.max_results, |record| {
            self.store.id(record).to_string()
        });
        stats.merge_nanos = merge_start.elapsed().as_nanos() as u64;
        let merge_offset = merge_start.duration_since(query_start).as_nanos() as u64;
        let total_nanos = query_start.elapsed().as_nanos() as u64;

        let plan = want_plan.then(|| ExplainPlan {
            query_len: query.len(),
            ranking: ranking_name(params.ranking),
            max_candidates: params.max_candidates,
            min_score: params.min_score,
            segments: self.segment_rows(),
            strands: strand_plans,
            results: results.len(),
        });

        if self.metrics.is_enabled() {
            self.metrics.record_query(&stats, total_nanos);
        }
        if capture {
            let mut root = SpanNode::new("query", 0, total_nanos);
            root.children = std::mem::take(&mut spans);
            root.children.push(
                SpanNode::new("strand_merge", merge_offset, stats.merge_nanos)
                    .counter("results", results.len() as u64),
            );
            if stride_sample {
                self.metrics.trace.emit(&self.metrics.trace_event(
                    &stats,
                    &results,
                    total_nanos,
                    request_id,
                    Some(&root),
                ));
            }
            let trace = QueryTrace {
                request_id: request_id.unwrap_or("").to_string(),
                total_ns: total_nanos,
                results: results.len() as u64,
                error: None,
                root,
                plan: plan.as_ref().map(ExplainPlan::to_value),
            };
            if self.metrics.forensics.observe(trace) == CaptureReason::Slow {
                self.metrics.slow_queries.inc();
            }
        }

        Ok(SearchOutcome {
            results,
            stats,
            explain: params.explain.then_some(plan).flatten(),
        })
    }

    /// Record a failed query in the flight recorder (tail sampling
    /// captures every error), with whatever spans completed.
    fn capture_failure(
        &self,
        query_start: Instant,
        request_id: Option<&str>,
        error: &IndexError,
        spans: Vec<SpanNode>,
    ) {
        if !self.metrics.forensics.is_enabled() {
            return;
        }
        let total_ns = query_start.elapsed().as_nanos() as u64;
        let mut root = SpanNode::new("query", 0, total_ns);
        root.children = spans;
        self.metrics.forensics.observe(QueryTrace {
            request_id: request_id.unwrap_or("").to_string(),
            total_ns,
            results: 0,
            error: Some(error.to_string()),
            root,
            plan: None,
        });
    }

    /// Append new records to a memory-backed database: the batch is
    /// indexed alone and merged into the existing index (the maintenance
    /// path for a growing archive). Errors if the index is on disk or
    /// was built with stopping (re-apply stopping after appending via
    /// [`nucdb_index::apply_stopping`]).
    pub fn append_records(
        &mut self,
        records: impl IntoIterator<Item = (String, DnaSeq)>,
    ) -> Result<(), IndexError> {
        let IndexVariant::Memory(existing) = &self.index else {
            return Err(IndexError::Unsupported(
                "append requires a memory-backed index; reopen the database in memory",
            ));
        };
        let StoreVariant::Memory(store) = &mut self.store else {
            return Err(IndexError::Unsupported(
                "append requires a memory-backed store; reopen the database in memory",
            ));
        };
        let mut builder = IndexBuilder::new(existing.params().clone()).with_codec(existing.codec());
        let mut staged: Vec<(String, DnaSeq)> = Vec::new();
        for (id, seq) in records {
            builder.add_record(&seq.representative_bases());
            staged.push((id, seq));
        }
        let merged = nucdb_index::merge_indexes(existing, &builder.finish())?;
        for (id, seq) in staged {
            store.add(id, &seq);
        }
        self.index = IndexVariant::Memory(merged);
        debug_assert_eq!(
            RecordSource::len(&self.store) as u32,
            self.index.num_records()
        );
        Ok(())
    }

    /// Evaluate a batch of queries sequentially, reusing one coarse
    /// scratch across the whole batch.
    pub fn search_batch(
        &self,
        queries: &[DnaSeq],
        params: &SearchParams,
    ) -> Result<Vec<SearchOutcome>, IndexError> {
        let mut scratch = CoarseScratch::new();
        queries
            .iter()
            .map(|q| self.search_with(q, params, &mut scratch))
            .collect()
    }

    /// Evaluate a batch of queries across `num_threads` worker threads.
    ///
    /// The database is shared read-only and every stage is contention
    /// free: each worker owns a private [`CoarseScratch`], and the
    /// on-disk index and store serve concurrent positional reads without
    /// a shared file cursor or lock. Output order matches `queries`.
    /// Results are identical to [`Database::search_batch`].
    pub fn search_batch_parallel(
        &self,
        queries: &[DnaSeq],
        params: &SearchParams,
        num_threads: usize,
    ) -> Result<Vec<SearchOutcome>, IndexError> {
        let num_threads = num_threads.max(1).min(queries.len().max(1));
        if num_threads <= 1 {
            return self.search_batch(queries, params);
        }
        // Work-stealing by atomic counter; each worker returns its
        // (index, outcome) pairs and the batch is reassembled in order.
        let next = std::sync::atomic::AtomicUsize::new(0);
        let unordered: Vec<(usize, Result<SearchOutcome, IndexError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..num_threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut scratch = CoarseScratch::new();
                            let mut local = Vec::new();
                            loop {
                                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                if i >= queries.len() {
                                    break;
                                }
                                local
                                    .push((i, self.search_with(&queries[i], params, &mut scratch)));
                            }
                            local
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("search worker panicked"))
                    .collect()
            });

        let mut ordered: Vec<Option<Result<SearchOutcome, IndexError>>> =
            (0..queries.len()).map(|_| None).collect();
        for (i, outcome) in unordered {
            ordered[i] = Some(outcome);
        }
        ordered
            .into_iter()
            .map(|slot| slot.expect("every query evaluated"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarse::RankingScheme;
    use crate::fine::FineMode;
    use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};

    fn build_db(seed: u64) -> (SyntheticCollection, Database) {
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(seed));
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        );
        (coll, db)
    }

    #[test]
    fn planted_family_is_retrieved() {
        let (coll, db) = build_db(51);
        let query = coll.query_for_family(0, 0.7, &MutationModel::substitutions(0.03));
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(!outcome.results.is_empty());
        let retrieved: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let found = coll.families[0]
            .member_ids
            .iter()
            .filter(|m| retrieved.contains(m))
            .count();
        assert!(
            found >= coll.families[0].member_ids.len() - 1,
            "only {found} of {} members retrieved",
            coll.families[0].member_ids.len()
        );
        // Results are sorted by score.
        for pair in outcome.results.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn unrelated_query_returns_little() {
        let (coll, db) = build_db(52);
        let query = coll.random_query(300);
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        // Random local alignments of a 300-mer against unrelated records
        // score noise-level (tens); a planted homolog scores hundreds.
        // Nothing homolog-strength may surface for a random query.
        for result in &outcome.results {
            assert!(
                result.score < 150,
                "random query found a strong hit: record {} score {}",
                result.record,
                result.score
            );
        }
        let related = coll.query_for_family(0, 0.5, &MutationModel::substitutions(0.03));
        let outcome = db.search(&related, &SearchParams::default()).unwrap();
        // A homolog at ~13% total divergence still aligns most of its
        // length: demand well over half the perfect-match score.
        let floor = related.len() as i32 * 3; // 60% of the +5/base maximum
        assert!(
            outcome.results[0].score >= floor,
            "homolog query only scored {} (floor {floor})",
            outcome.results[0].score
        );
    }

    #[test]
    fn stats_are_populated() {
        let (coll, db) = build_db(53);
        let query = coll.query_for_family(1, 0.5, &MutationModel::identity());
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        let s = outcome.stats;
        assert!(s.intervals_looked_up > 0);
        assert!(s.lists_fetched > 0);
        assert!(s.candidates > 0);
        assert!(s.total_hits >= s.candidates);
    }

    #[test]
    fn traceback_mode_carries_alignment() {
        let (coll, db) = build_db(54);
        let query = coll.query_for_family(0, 0.5, &MutationModel::identity());
        let params = SearchParams::default().with_fine(FineMode::FullWithTraceback);
        let outcome = db.search(&query, &params).unwrap();
        let top = &outcome.results[0];
        let alignment = top.alignment.as_ref().expect("traceback requested");
        assert_eq!(alignment.score, top.score);
        assert!(alignment.is_consistent());
        assert!(alignment.identity() > 0.8);
    }

    #[test]
    fn all_rankings_find_exact_member() {
        let (coll, db) = build_db(55);
        // An exact fragment of a stored record must be found by every
        // ranking scheme.
        let member = coll.families[2].member_ids[0];
        let range = coll.families[2].embedded_ranges[0].clone();
        let query = coll.records[member as usize].seq.subseq(range);
        for ranking in [
            RankingScheme::Count,
            RankingScheme::Proportional,
            RankingScheme::Frame { window: 16 },
        ] {
            let params = SearchParams::default().with_ranking(ranking);
            let outcome = db.search(&query, &params).unwrap();
            assert!(
                outcome.results.iter().any(|r| r.record == member),
                "{ranking:?} missed the exact member"
            );
        }
    }

    #[test]
    fn empty_database_returns_nothing() {
        let db = Database::build(std::iter::empty(), &DbConfig::default());
        assert!(db.is_empty());
        let query = DnaSeq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(outcome.results.is_empty());
    }

    #[test]
    fn short_query_returns_nothing() {
        let (_, db) = build_db(56);
        let query = DnaSeq::from_ascii(b"ACG").unwrap(); // below k
        let outcome = db.search(&query, &SearchParams::default()).unwrap();
        assert!(outcome.results.is_empty());
    }

    #[test]
    #[should_panic(expected = "disagree on record count")]
    fn mismatched_parts_rejected() {
        let (_, db) = build_db(57);
        let store = SequenceStore::new(crate::store::StorageMode::Ascii);
        let Database { index, .. } = db;
        let _ = Database::from_parts(store, index);
    }

    #[test]
    fn reverse_complement_homolog_found_only_with_both_strands() {
        let (coll, db) = build_db(59);
        // Query with the reverse complement of a stored fragment: the
        // forward search must miss it, the both-strands search must find
        // it with the same score a forward query of the fragment gets.
        let member = coll.families[1].member_ids[0];
        let range = coll.families[1].embedded_ranges[0].clone();
        let fragment = coll.records[member as usize].seq.subseq(range);
        let rc_query = fragment.reverse_complement();

        let forward_only = db.search(&rc_query, &SearchParams::default()).unwrap();
        assert!(
            !forward_only
                .results
                .iter()
                .any(|r| r.record == member && r.score > 100),
            "forward-only search should not strongly match the rc query"
        );

        let both = SearchParams::default().with_strand(Strand::Both);
        let outcome = db.search(&rc_query, &both).unwrap();
        let hit = outcome
            .results
            .iter()
            .find(|r| r.record == member)
            .expect("both-strands search finds the member");
        assert_eq!(hit.strand, Strand::Reverse);

        let direct = db.search(&fragment, &SearchParams::default()).unwrap();
        let direct_hit = direct.results.iter().find(|r| r.record == member).unwrap();
        assert_eq!(hit.score, direct_hit.score);
    }

    #[test]
    fn reverse_only_strand_mode() {
        let (coll, db) = build_db(60);
        let member = coll.families[0].member_ids[0];
        let range = coll.families[0].embedded_ranges[0].clone();
        let fragment = coll.records[member as usize].seq.subseq(range);
        let rc_query = fragment.reverse_complement();
        let params = SearchParams::default().with_strand(Strand::Reverse);
        let outcome = db.search(&rc_query, &params).unwrap();
        assert!(outcome.results.iter().any(|r| r.record == member));
        assert!(outcome.results.iter().all(|r| r.strand == Strand::Reverse));
    }

    #[test]
    fn record_granularity_database_still_retrieves() {
        use nucdb_index::{Granularity, IndexParams};
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(64));
        let config = DbConfig {
            index: IndexParams::new(8).with_granularity(Granularity::Records),
            ..DbConfig::default()
        };
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &config,
        );

        // Frame ranking is impossible without offsets.
        let query = coll.query_for_family(0, 0.6, &MutationModel::identity());
        let frame = SearchParams::default();
        assert!(db.search(&query, &frame).is_err());

        // Count ranking + (automatic) full fine alignment works and finds
        // the family.
        let count = SearchParams::default().with_ranking(RankingScheme::Count);
        let outcome = db.search(&query, &count).unwrap();
        let retrieved: Vec<u32> = outcome.results.iter().map(|r| r.record).collect();
        let found = coll.families[0]
            .member_ids
            .iter()
            .filter(|m| retrieved.contains(m))
            .count();
        assert!(
            found >= coll.families[0].member_ids.len() - 1,
            "found {found}"
        );

        // The record-granularity index is smaller than the offset one.
        let offsets_db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        );
        let (IndexVariant::Memory(small), IndexVariant::Memory(big)) =
            (db.index(), offsets_db.index())
        else {
            unreachable!()
        };
        assert!(small.stats().blob_bytes * 2 < big.stats().blob_bytes);
    }

    #[test]
    fn record_granularity_disk_round_trip() {
        use nucdb_index::{Granularity, IndexParams};
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(65));
        let config = DbConfig {
            index: IndexParams::new(8).with_granularity(Granularity::Records),
            ..DbConfig::default()
        };
        let db = Database::build(
            coll.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &config,
        );
        let dir = std::env::temp_dir().join(format!("nucdb_gran_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let db = db.with_disk_index(&dir.join("idx.nucidx")).unwrap();
        let query = coll.query_for_family(1, 0.6, &MutationModel::identity());
        let params = SearchParams::default().with_ranking(RankingScheme::Count);
        let outcome = db.search(&query, &params).unwrap();
        assert!(outcome
            .results
            .iter()
            .any(|r| coll.families[1].member_ids.contains(&r.record)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_equals_rebuild() {
        let coll_a = SyntheticCollection::generate(&CollectionSpec::tiny(61));
        let coll_b = SyntheticCollection::generate(&CollectionSpec::tiny(62));
        let all: Vec<(String, DnaSeq)> = coll_a
            .records
            .iter()
            .chain(&coll_b.records)
            .map(|r| (r.id.clone(), r.seq.clone()))
            .collect();

        let mut incremental = Database::build(
            coll_a.records.iter().map(|r| (r.id.clone(), r.seq.clone())),
            &DbConfig::default(),
        );
        incremental
            .append_records(coll_b.records.iter().map(|r| (r.id.clone(), r.seq.clone())))
            .unwrap();

        let rebuilt = Database::build(all, &DbConfig::default());
        assert_eq!(incremental.len(), rebuilt.len());

        // Queries against family 0 of the appended batch behave as if
        // built jointly.
        let query = coll_b.query_for_family(0, 0.6, &MutationModel::identity());
        let params = SearchParams::default();
        let a: Vec<(u32, i32)> = incremental
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect();
        let b: Vec<(u32, i32)> = rebuilt
            .search(&query, &params)
            .unwrap()
            .results
            .iter()
            .map(|r| (r.record, r.score))
            .collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn append_to_disk_index_rejected() {
        let (_, db) = build_db(63);
        let dir = std::env::temp_dir().join(format!("nucdb_append_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut db = db.with_disk_index(&dir.join("idx.nucidx")).unwrap();
        let extra = DnaSeq::from_ascii(b"ACGTACGTACGTACGT").unwrap();
        assert!(db.append_records([("x".to_string(), extra)]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn max_results_respected() {
        let (coll, db) = build_db(58);
        let query = coll.query_for_family(0, 0.8, &MutationModel::identity());
        let params = SearchParams {
            max_results: 2,
            min_score: 1,
            ..SearchParams::default()
        };
        let outcome = db.search(&query, &params).unwrap();
        assert!(outcome.results.len() <= 2);
    }
}
