//! Scatter-gather sharded search.
//!
//! A [`ShardSet`] partitions a collection into N shards, each an
//! independent index + store holding a contiguous slice of the record-id
//! space. On disk a sharded root is a `SHARDS` file — a segment
//! [`Manifest`] whose entry `i` is shard `i` — beside one plain database
//! directory per shard. A query fans coarse search out to one persistent
//! worker thread per shard, merges the per-shard top-C candidates
//! globally, runs fine alignment only on the global winners, and merges
//! strands exactly as the single-database engine does.
//!
//! ## Merge proof obligation
//!
//! Sharded answers must be **bit-identical** to a joint single-index
//! build (pinned by `tests/sharding.rs`). The argument:
//!
//! * Every coarse score is a function of one record alone — `Count` is
//!   the record's hit count, `Proportional` divides by the record's own
//!   length, `Frame` windows the record's own diagonal histogram. No
//!   collection-global statistic enters, so a record scores the same in
//!   its shard as in the joint index.
//! * Shards hold *contiguous* id ranges (shard `s` covers
//!   `[base_s, base_s + n_s)`), so adding `base_s` to a local id
//!   preserves the joint `(score desc, record asc)` tie-break order.
//! * Any member of the joint top-C has fewer than C records ahead of it
//!   globally, hence fewer than C within its own shard: it survives the
//!   per-shard `top-C` truncation. Merging the per-shard lists and
//!   truncating to C therefore reproduces the joint candidate list
//!   exactly — same set, same order.
//!
//! The one engine knob that breaks this argument is
//! [`SearchParams::max_accumulators`]: accumulator limiting keeps
//! whichever records are touched *first*, a property of global postings
//! order that sharding changes. [`ShardSet::search`] rejects it.
//!
//! ## Degraded mode
//!
//! A shard that cannot be opened (dead at open), fails a query
//! (corruption, or a panic inside the shard, which its worker catches
//! and survives), or misses its per-phase deadline is dropped from the
//! answer; the query still succeeds with the surviving shards and a
//! [`Coverage`] of `shards_ok / shards_total`. Results from a shard
//! that failed *any* phase are discarded entirely, so a degraded answer
//! equals the answer of a `ShardSet` over the surviving shards alone.
//! Only when every shard fails does the query error.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nucdb_align::{calibrate_gumbel, GumbelFit, ScoringScheme};
use nucdb_index::{
    shard_dir_name, Granularity, IndexError, IndexParams, Manifest, SegmentMeta,
    SHARD_MANIFEST_FILE,
};
use nucdb_obs::{Counter, Histogram, MetricsRegistry};
use nucdb_seq::DnaSeq;

use crate::coarse::{
    candidate_order, coarse_rank_explain, CoarseHit, CoarseOutcome, CoarseScratch,
};
use crate::engine::{
    io_err, merge_strands, oriented_strands, Database, DbConfig, QueryStats, SearchOutcome,
    SearchResult, INDEX_FILE, STORE_FILE,
};
use crate::fine::{fine_search_traced, FineMode, FineResult};
use crate::params::{SearchParams, Strand};
use crate::store::{RecordSource, SequenceStore};

/// Answer completeness of a sharded query: how many shards contributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards that answered every phase of the query.
    pub shards_ok: usize,
    /// Total shards in the set (including dead-at-open shards).
    pub shards_total: usize,
}

impl Coverage {
    /// Fraction of shards that contributed, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.shards_total == 0 {
            return 1.0;
        }
        self.shards_ok as f64 / self.shards_total as f64
    }

    /// Did every shard contribute?
    pub fn is_full(&self) -> bool {
        self.shards_ok == self.shards_total
    }
}

/// One shard's failure within a query (or at open).
#[derive(Debug, Clone)]
pub struct ShardFailure {
    /// Shard directory name (`shard-000`, …).
    pub shard: String,
    /// Human-readable cause.
    pub error: String,
}

/// Per-shard work attribution for one query (the bench's scaling story:
/// wall time on a loaded box lies, decoded postings do not).
#[derive(Debug, Clone, Default)]
pub struct ShardWork {
    /// Shard directory name.
    pub shard: String,
    /// Compressed postings bytes this shard read.
    pub postings_bytes_read: u64,
    /// Postings entries this shard decoded.
    pub ids_decoded: u64,
    /// Coarse candidates this shard surfaced (pre-merge).
    pub candidates: u64,
}

/// A sharded query's answer: engine-shaped results plus coverage.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// Ranked answers, best first — bit-identical to a joint build when
    /// coverage is full.
    pub results: Vec<SearchResult>,
    /// Aggregated cost counters across all shards and phases.
    pub stats: QueryStats,
    /// How many shards contributed.
    pub coverage: Coverage,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
    /// Per-shard work attribution, one entry per *live* shard that
    /// completed coarse search.
    pub work: Vec<ShardWork>,
}

/// The search surface one shard must expose. Object-safe and free of
/// local-filesystem assumptions, so a follow-up can put a remote
/// (HTTP) shard behind it; [`LocalShard`] is the in-process
/// implementation.
pub trait Shard: Send + Sync {
    /// Shard name (its directory name for local shards).
    fn name(&self) -> &str;
    /// Number of records in the shard.
    fn num_records(&self) -> u32;
    /// The shard's index parameters (must agree across the set).
    fn index_params(&self) -> IndexParams;
    /// Run coarse ranking for one strand orientation. `query_bases` is
    /// the strand-oriented representative-base view of the query.
    fn coarse(
        &self,
        query_bases: &[nucdb_seq::Base],
        params: &SearchParams,
    ) -> Result<CoarseOutcome, IndexError>;
    /// Run fine alignment on `candidates` (shard-local record ids).
    fn fine(
        &self,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
    ) -> Result<Vec<FineResult>, IndexError>;
    /// External identifier of a shard-local record.
    fn record_id(&self, local: u32) -> String;
    /// Length in bases of a shard-local record.
    fn record_len(&self, local: u32) -> usize;
    /// Total bases stored in the shard.
    fn total_bases(&self) -> u64;
}

/// An in-process shard: a [`Database`] slice of the collection.
pub struct LocalShard {
    name: String,
    db: Database,
}

impl LocalShard {
    /// Wrap a database as a shard named `name`.
    pub fn new(name: impl Into<String>, db: Database) -> LocalShard {
        LocalShard {
            name: name.into(),
            db,
        }
    }

    /// The wrapped database.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

impl Shard for LocalShard {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_records(&self) -> u32 {
        self.db.len() as u32
    }

    fn index_params(&self) -> IndexParams {
        use crate::coarse::PostingsSource;
        self.db.index().index_params().clone()
    }

    fn coarse(
        &self,
        query_bases: &[nucdb_seq::Base],
        params: &SearchParams,
    ) -> Result<CoarseOutcome, IndexError> {
        thread_local! {
            // One scratch per thread that runs shard work, i.e. per
            // shard worker. Coarse results are independent of scratch
            // history, so reuse saves only allocations.
            static SCRATCH: RefCell<CoarseScratch> = RefCell::new(CoarseScratch::new());
        }
        SCRATCH.with(|scratch| {
            coarse_rank_explain(
                self.db.index(),
                query_bases,
                params,
                &mut scratch.borrow_mut(),
                None,
            )
        })
    }

    fn fine(
        &self,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
    ) -> Result<Vec<FineResult>, IndexError> {
        fine_search_traced(
            self.db.store(),
            query,
            candidates,
            mode,
            &params.scheme,
            params.min_score,
            None,
        )
        .map_err(io_err)
    }

    fn record_id(&self, local: u32) -> String {
        self.db.store().id(local).to_string()
    }

    fn record_len(&self, local: u32) -> usize {
        self.db.store().record_len(local)
    }

    fn total_bases(&self) -> u64 {
        self.db.store().total_bases() as u64
    }
}

/// Dispatch tuning for a [`ShardSet`].
#[derive(Debug, Clone)]
pub struct ShardSetConfig {
    /// Per-phase, per-shard deadline. A shard that has not answered a
    /// phase within this long is marked failed for the query.
    pub shard_deadline: Duration,
}

impl Default for ShardSetConfig {
    fn default() -> ShardSetConfig {
        ShardSetConfig {
            shard_deadline: Duration::from_secs(10),
        }
    }
}

/// Per-shard metric handles (`nucdb_shard_*` families, labeled by
/// shard name). Disabled handles when no registry is bound.
#[derive(Clone, Default)]
struct ShardMetrics {
    queries: Counter,
    errors: Counter,
    timeouts: Counter,
    latency: Histogram,
}

impl ShardMetrics {
    fn bind(registry: &MetricsRegistry, shard: &str) -> ShardMetrics {
        let labels: &[(&str, &str)] = &[("shard", shard)];
        ShardMetrics {
            queries: registry.counter_with(
                "nucdb_shard_queries_total",
                "Phase dispatches to this shard",
                labels,
            ),
            errors: registry.counter_with(
                "nucdb_shard_errors_total",
                "Queries this shard failed (error or timeout)",
                labels,
            ),
            timeouts: registry.counter_with(
                "nucdb_shard_timeouts_total",
                "Phase deadlines this shard missed",
                labels,
            ),
            latency: registry.histogram_with(
                "nucdb_shard_latency_ns",
                "Per-phase shard service time in nanoseconds",
                labels,
            ),
        }
    }
}

/// One phase of work for one shard's worker: runs the shard call and
/// sends the reply itself.
type Job = Box<dyn FnOnce() + Send>;

/// The message of a caught panic's payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(message) => message,
        None => payload
            .downcast_ref::<String>()
            .map_or("non-string panic payload", String::as_str),
    }
}

fn spawn_worker(name: String, rx: mpsc::Receiver<Job>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                job();
            }
        })
        .expect("spawn shard worker")
}

/// One shard slot: the shard (when it opened), its record-id base, and
/// its dispatch plumbing. Dead-at-open shards keep their slot — their
/// record count, and therefore every later shard's id base, comes from
/// the `SHARDS` manifest.
struct ShardSlot {
    name: String,
    base: u32,
    records: u32,
    shard: Option<Arc<dyn Shard>>,
    dead: Option<String>,
    tx: Option<mpsc::Sender<Job>>,
    delay: Arc<AtomicU64>,
    metrics: ShardMetrics,
}

/// The scatter-gather planner over N shards. See the module docs for
/// the identity argument and degraded-mode contract.
pub struct ShardSet {
    slots: Vec<ShardSlot>,
    config: ShardSetConfig,
    workers: Vec<JoinHandle<()>>,
    degraded_queries: Counter,
}

/// One shard slot before assembly: name, manifest record count, the
/// opened shard (or `None` for a dead slot), and the dead-slot error.
type ShardEntry = (String, u32, Option<Arc<dyn Shard>>, Option<String>);

impl ShardSet {
    /// Assemble a set from already-opened shards. `dead` carries
    /// placeholder entries for shards that failed to open:
    /// `(name, records-from-manifest, error)` — their record counts
    /// keep the id bases of later shards correct.
    pub fn assemble(
        shards: Vec<Arc<dyn Shard>>,
        dead: Vec<(String, u32, Option<String>)>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let mut entries: Vec<ShardEntry> = Vec::new();
        for shard in shards {
            let records = shard.num_records();
            entries.push((shard.name().to_string(), records, Some(shard), None));
        }
        for (name, records, err) in dead {
            entries.push((name, records, None, err));
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        ShardSet::from_entries(entries, config, registry)
    }

    fn from_entries(
        entries: Vec<ShardEntry>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        if entries.is_empty() {
            return Err(IndexError::Unsupported(
                "a shard set needs at least one shard",
            ));
        }
        // All live shards must agree on index parameters: coarse scores
        // are only comparable across shards built the same way.
        let mut params: Option<IndexParams> = None;
        for (_, _, shard, _) in &entries {
            if let Some(shard) = shard {
                let p = shard.index_params();
                match &params {
                    None => params = Some(p),
                    Some(first) if *first != p => {
                        return Err(IndexError::Unsupported(
                            "shards disagree on index parameters",
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
        let mut slots = Vec::with_capacity(entries.len());
        let mut workers = Vec::new();
        let mut base: u64 = 0;
        for (name, records, shard, dead_err) in entries {
            let delay = Arc::new(AtomicU64::new(0));
            let (tx, dead) = match (&shard, dead_err) {
                (Some(_), _) => {
                    let (tx, rx) = mpsc::channel();
                    workers.push(spawn_worker(format!("nucdb-{name}"), rx));
                    (Some(tx), None)
                }
                (None, err) => (None, Some(err.unwrap_or_else(|| "failed to open".into()))),
            };
            if base + u64::from(records) > u64::from(u32::MAX) {
                return Err(IndexError::Unsupported(
                    "total shard records overflow the u32 id space",
                ));
            }
            slots.push(ShardSlot {
                metrics: ShardMetrics::bind(registry, &name),
                name,
                base: base as u32,
                records,
                shard,
                dead,
                tx,
                delay,
            });
            base += u64::from(records);
        }
        Ok(ShardSet {
            slots,
            config,
            workers,
            degraded_queries: registry.counter(
                "nucdb_shard_degraded_queries_total",
                "Queries answered with partial shard coverage",
            ),
        })
    }

    /// Build a set from in-memory databases (tests, benches). Shard `i`
    /// is named `shard-00i`.
    pub fn from_databases(
        dbs: Vec<Database>,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let shards = dbs
            .into_iter()
            .enumerate()
            .map(|(i, db)| Arc::new(LocalShard::new(shard_dir_name(i), db)) as Arc<dyn Shard>)
            .collect();
        ShardSet::assemble(shards, Vec::new(), config, registry)
    }

    /// Open a sharded root written by [`build_sharded_root`] (or
    /// `nucdb build --shards N`). A shard whose files are missing or
    /// corrupt becomes a *dead* slot: the set still opens and answers
    /// degraded queries, with the dead shard's record count taken from
    /// the manifest so every other shard's id base stays correct.
    pub fn open_root(
        root: &Path,
        config: ShardSetConfig,
        registry: &MetricsRegistry,
    ) -> Result<ShardSet, IndexError> {
        let manifest = Manifest::load_from(&root.join(SHARD_MANIFEST_FILE))?;
        let mut entries: Vec<ShardEntry> = Vec::new();
        for (i, meta) in manifest.segments.iter().enumerate() {
            let name = shard_dir_name(i);
            let dir = root.join(&name);
            match open_shard_dir(&dir, &name) {
                Ok(shard) => {
                    if shard.num_records() != meta.records {
                        entries.push((
                            name,
                            meta.records,
                            None,
                            Some("shard record count disagrees with SHARDS manifest".into()),
                        ));
                    } else {
                        entries.push((name, meta.records, Some(shard), None));
                    }
                }
                Err(e) => entries.push((name, meta.records, None, Some(e.to_string()))),
            }
        }
        ShardSet::from_entries(entries, config, registry)
    }

    /// Number of shards (including dead ones).
    pub fn num_shards(&self) -> usize {
        self.slots.len()
    }

    /// Names and liveness of all shards, in id order:
    /// `(name, base, records, dead-error)`.
    pub fn shard_rows(&self) -> Vec<(String, u32, u32, Option<String>)> {
        self.slots
            .iter()
            .map(|s| (s.name.clone(), s.base, s.records, s.dead.clone()))
            .collect()
    }

    /// Total records across all shards (the joint id space).
    pub fn len(&self) -> usize {
        self.slots.iter().map(|s| s.records as usize).sum()
    }

    /// Is the whole set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases across *live* shards.
    pub fn total_bases(&self) -> u64 {
        self.slots
            .iter()
            .filter_map(|s| s.shard.as_ref())
            .map(|s| s.total_bases())
            .sum()
    }

    /// External id of a global record (empty for records on dead shards).
    pub fn record_id(&self, global: u32) -> String {
        match self.slot_of(global) {
            Some((slot, local)) => match &slot.shard {
                Some(shard) => shard.record_id(local),
                None => String::new(),
            },
            None => String::new(),
        }
    }

    /// Length of a global record in bases (0 for records on dead shards).
    pub fn record_len(&self, global: u32) -> usize {
        match self.slot_of(global) {
            Some((slot, local)) => match &slot.shard {
                Some(shard) => shard.record_len(local),
                None => 0,
            },
            None => 0,
        }
    }

    /// Index parameters of the set (from the first live shard).
    pub fn index_params(&self) -> Option<IndexParams> {
        self.slots
            .iter()
            .filter_map(|s| s.shard.as_ref())
            .map(|s| s.index_params())
            .next()
    }

    /// Inject a fixed service delay into every phase one shard runs
    /// (tests: a delay past the deadline times the shard out).
    pub fn inject_delay_ns(&self, shard: usize, ns: u64) {
        self.slots[shard].delay.store(ns, Ordering::Relaxed);
    }

    fn slot_of(&self, global: u32) -> Option<(&ShardSlot, u32)> {
        self.slots
            .iter()
            .find(|s| {
                global >= s.base && u64::from(global) < u64::from(s.base) + u64::from(s.records)
            })
            .map(|s| (s, global - s.base))
    }

    /// Fan one phase out to `targets` (slot indexes) and gather replies
    /// under the per-shard deadline. `work` makes each live target's
    /// call; its worker runs it, catching a panic as a failure. Returns
    /// per-slot `Some(Ok(output))` or `Some(Err(cause))` (an error, a
    /// panic or a missed deadline), and `None` for slots not run.
    fn run_phase<T, F>(
        &self,
        targets: &[usize],
        mut work: impl FnMut(usize, Arc<dyn Shard>) -> F,
    ) -> Vec<Option<Result<T, String>>>
    where
        T: Send + 'static,
        F: FnOnce() -> Result<T, IndexError> + Send + 'static,
    {
        let mut outputs: Vec<Option<Result<T, String>>> = Vec::new();
        outputs.resize_with(self.slots.len(), || None);
        // A channel per phase: no reply from an earlier phase can land here.
        let (reply_tx, reply_rx) = mpsc::channel::<(usize, u64, Result<T, String>)>();
        let start = Instant::now();
        let mut pending: Vec<usize> = Vec::new();
        for &slot_idx in targets {
            let slot = &self.slots[slot_idx];
            let (Some(shard), Some(tx)) = (&slot.shard, &slot.tx) else {
                continue; // dead shard: stays None
            };
            let call = work(slot_idx, Arc::clone(shard));
            let (name, delay, reply) =
                (slot.name.clone(), Arc::clone(&slot.delay), reply_tx.clone());
            let job: Job = Box::new(move || {
                let ns = delay.load(Ordering::Relaxed);
                if ns > 0 {
                    std::thread::sleep(Duration::from_nanos(ns));
                }
                let begin = Instant::now();
                let output = match catch_unwind(AssertUnwindSafe(call)) {
                    Ok(result) => result.map_err(|e| e.to_string()),
                    Err(payload) => Err(format!(
                        "shard {name} panicked: {}",
                        panic_message(payload.as_ref())
                    )),
                };
                // The dispatcher may have moved on past the deadline; a
                // dropped receiver is not an error.
                let _ = reply.send((slot_idx, begin.elapsed().as_nanos() as u64, output));
            });
            slot.metrics.queries.inc();
            if tx.send(job).is_err() {
                outputs[slot_idx] = Some(Err("shard worker exited".into()));
                continue;
            }
            pending.push(slot_idx);
        }

        let deadline = self.config.shard_deadline;
        while !pending.is_empty() {
            let Some(wait) = deadline.checked_sub(start.elapsed()) else {
                break;
            };
            let Ok((slot_idx, nanos, output)) = reply_rx.recv_timeout(wait) else {
                break;
            };
            pending.retain(|&i| i != slot_idx);
            self.slots[slot_idx].metrics.latency.record(nanos);
            outputs[slot_idx] = Some(output);
        }
        for slot_idx in pending {
            let slot = &self.slots[slot_idx];
            slot.metrics.timeouts.inc();
            outputs[slot_idx] = Some(Err(format!(
                "shard {} missed the {:?} deadline",
                slot.name, deadline
            )));
        }
        outputs
    }

    /// Evaluate a query across all shards. Bit-identical to a joint
    /// build at full coverage; partial results plus `coverage < 1`
    /// when shards fail; an error only when *no* shard answers.
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
    ) -> Result<ShardedOutcome, IndexError> {
        if params.max_accumulators.is_some() {
            // Accumulator limiting keeps first-touched records — a
            // global postings-order property sharding cannot reproduce.
            return Err(IndexError::Unsupported(
                "max_accumulators is incompatible with sharded search",
            ));
        }
        let mut stats = QueryStats::default();
        let mut failures: BTreeMap<usize, String> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| Some((i, slot.dead.clone()?)))
            .collect();
        let mut work: BTreeMap<usize, ShardWork> = BTreeMap::new();
        // (slot, strand, fine result with *global* record id)
        let mut merged: Vec<(usize, Strand, FineResult)> = Vec::new();
        let granularity = self
            .index_params()
            .map_or(Granularity::Offsets, |p| p.granularity);
        let fine_mode = params.fine.for_granularity(granularity);

        for (strand, oriented) in oriented_strands(query, params.strand) {
            let oriented = Arc::new(oriented.into_owned());
            let query_bases = Arc::new(oriented.representative_bases());
            let live: Vec<usize> = (0..self.slots.len())
                .filter(|i| !failures.contains_key(i))
                .collect();
            if live.is_empty() {
                break;
            }

            // Phase 1: coarse everywhere.
            let coarse_start = Instant::now();
            let coarse_outputs = self.run_phase(&live, |_, shard| {
                let (bases, params) = (Arc::clone(&query_bases), *params);
                move || shard.coarse(&bases, &params)
            });
            stats.coarse_nanos += coarse_start.elapsed().as_nanos() as u64;

            // Gather per-shard candidate lists under global record ids
            // and merge to the global top-C exactly as joint coarse
            // ranking would: shards hold contiguous, ordered id ranges,
            // so globalised ids keep the joint tie-break.
            let mut global: Vec<(usize, CoarseHit)> = Vec::new();
            for (slot_idx, output) in coarse_outputs.into_iter().enumerate() {
                let Some(output) = output else { continue };
                let slot = &self.slots[slot_idx];
                match output {
                    Ok(coarse) => {
                        stats.add_coarse(&coarse);
                        let shard_work = work.entry(slot_idx).or_insert_with(|| ShardWork {
                            shard: slot.name.clone(),
                            ..ShardWork::default()
                        });
                        shard_work.postings_bytes_read += coarse.postings_bytes_read;
                        shard_work.ids_decoded += coarse.postings_decoded;
                        shard_work.candidates += coarse.candidates.len() as u64;
                        global.extend(coarse.candidates.into_iter().map(|mut hit| {
                            hit.record += slot.base;
                            (slot_idx, hit)
                        }));
                    }
                    Err(e) => {
                        slot.metrics.errors.inc();
                        failures.insert(slot_idx, e);
                    }
                }
            }
            global.sort_by(|(_, a), (_, b)| candidate_order(a, b));
            global.truncate(params.max_candidates);
            stats.add_candidates(global.len());

            // Phase 2: fine only on shards owning a global winner, over
            // their shard-local ids.
            let mut per_shard: BTreeMap<usize, Vec<CoarseHit>> = BTreeMap::new();
            for (slot_idx, mut hit) in global {
                hit.record -= self.slots[slot_idx].base;
                per_shard.entry(slot_idx).or_default().push(hit);
            }
            let fine_targets: Vec<usize> = per_shard.keys().copied().collect();
            let fine_start = Instant::now();
            let fine_outputs = self.run_phase(&fine_targets, |slot_idx, shard| {
                let hits = per_shard.remove(&slot_idx).unwrap_or_default();
                let (query, params) = (Arc::clone(&oriented), *params);
                move || shard.fine(&query, &hits, fine_mode, &params)
            });
            stats.fine_nanos += fine_start.elapsed().as_nanos() as u64;
            for (slot_idx, output) in fine_outputs.into_iter().enumerate() {
                let Some(output) = output else { continue };
                let slot = &self.slots[slot_idx];
                match output {
                    Ok(results) => {
                        merged.extend(results.into_iter().map(|mut r| {
                            r.record += slot.base;
                            r.coarse.record += slot.base;
                            (slot_idx, strand, r)
                        }));
                    }
                    Err(e) => {
                        slot.metrics.errors.inc();
                        failures.insert(slot_idx, e);
                    }
                }
            }
        }

        let shards_total = self.slots.len();
        if failures.len() == shards_total {
            let detail = failures
                .values()
                .next()
                .cloned()
                .unwrap_or_else(|| "no shards".into());
            return Err(IndexError::Io(std::io::Error::other(format!(
                "all {shards_total} shards failed: {detail}"
            ))));
        }

        // A shard that failed any phase contributes nothing: drop even
        // results it returned for other strands/phases, so a degraded
        // answer equals a clean answer over the surviving shards. The
        // rest merge exactly as the engine's strands do.
        let merge_start = Instant::now();
        let merged = merged
            .into_iter()
            .filter(|(slot_idx, _, _)| !failures.contains_key(slot_idx))
            .map(|(_, strand, r)| (strand, r))
            .collect();
        let results = merge_strands(merged, params.max_results, |record| self.record_id(record));
        stats.merge_nanos += merge_start.elapsed().as_nanos() as u64;

        let coverage = Coverage {
            shards_ok: shards_total - failures.len(),
            shards_total,
        };
        if !coverage.is_full() {
            self.degraded_queries.inc();
        }
        Ok(ShardedOutcome {
            results,
            stats,
            coverage,
            failures: failures
                .into_iter()
                .map(|(i, error)| ShardFailure {
                    shard: self.slots[i].name.clone(),
                    error,
                })
                .collect(),
            work: work.into_values().collect(),
        })
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            slot.tx = None; // close the channel so the worker exits
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The one query path over every layout: a single database (plain, or a
/// live snapshot) or a shard set. The CLI and the server both answer
/// through it, so coverage reporting and the e-value calibration are
/// written once.
#[derive(Clone)]
pub enum SearchTarget {
    /// One database.
    Db(Arc<Database>),
    /// A scatter-gather shard set.
    Shards(Arc<ShardSet>),
}

/// One query's answer from a [`SearchTarget`].
#[derive(Debug, Clone)]
pub struct TargetOutcome {
    /// The engine-shaped answer.
    pub outcome: SearchOutcome,
    /// How many shards contributed, when a shard set answered.
    pub coverage: Option<Coverage>,
    /// Why non-contributing shards failed (empty at full coverage).
    pub failures: Vec<ShardFailure>,
}

impl SearchTarget {
    /// Evaluate one query. A database query reuses `scratch` and tags
    /// its spans, trace lines and flight-recorder entries with
    /// `request_id`; a shard set's workers own their scratch, and it has
    /// no per-database forensics.
    pub fn search(
        &self,
        query: &DnaSeq,
        params: &SearchParams,
        scratch: &mut CoarseScratch,
        request_id: Option<&str>,
    ) -> Result<TargetOutcome, IndexError> {
        Ok(match self {
            SearchTarget::Db(db) => TargetOutcome {
                outcome: db.search_with_id(query, params, scratch, request_id)?,
                coverage: None,
                failures: Vec::new(),
            },
            SearchTarget::Shards(set) => {
                let sharded = set.search(query, params)?;
                TargetOutcome {
                    outcome: SearchOutcome {
                        results: sharded.results,
                        stats: sharded.stats,
                        explain: None,
                    },
                    coverage: Some(sharded.coverage),
                    failures: sharded.failures,
                }
            }
        })
    }

    /// Records in the id space (a shard set counts dead shards too).
    pub fn len(&self) -> usize {
        match self {
            SearchTarget::Db(db) => db.len(),
            SearchTarget::Shards(set) => set.len(),
        }
    }

    /// Is the target empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored bases (a shard set counts live shards only).
    pub fn total_bases(&self) -> u64 {
        match self {
            SearchTarget::Db(db) => db.store().total_bases() as u64,
            SearchTarget::Shards(set) => set.total_bases(),
        }
    }

    /// Length of `record` in bases (0 for a record on a dead shard).
    pub fn record_len(&self, record: u32) -> usize {
        match self {
            SearchTarget::Db(db) => db.store().record_len(record),
            SearchTarget::Shards(set) => set.record_len(record),
        }
    }

    /// The Gumbel fit that turns scores of a `query_len`-base query into
    /// bit scores and e-values, calibrated against the mean record
    /// length. A shard set's mean spans the manifest's record count, so
    /// at full coverage it equals the joint build's.
    pub fn gumbel_fit(&self, scheme: &ScoringScheme, query_len: usize) -> GumbelFit {
        let mean_len = (self.total_bases() as usize / self.len().max(1)).max(1);
        calibrate_gumbel(scheme, query_len.max(16), mean_len, 48, 0xCAFE)
    }
}

/// Open one shard directory (a plain database directory, see
/// [`Database::open_dir`]) as a [`LocalShard`].
pub fn open_shard_dir(dir: &Path, name: &str) -> Result<Arc<dyn Shard>, IndexError> {
    let db = Database::open_dir(dir)?;
    Ok(Arc::new(LocalShard::new(name, db)) as Arc<dyn Shard>)
}

/// Partition `records` into `num_shards` contiguous slices and write a
/// sharded root: `root/SHARDS` plus one plain database directory per
/// shard, built in parallel (one builder thread per shard). Returns the
/// per-shard record counts.
pub fn build_sharded_root(
    root: &Path,
    records: Vec<(String, DnaSeq)>,
    num_shards: usize,
    config: &DbConfig,
) -> Result<Vec<u32>, IndexError> {
    assert!(num_shards > 0, "need at least one shard");
    std::fs::create_dir_all(root)?;
    let n = records.len();
    let mut slices: Vec<Vec<(String, DnaSeq)>> = Vec::with_capacity(num_shards);
    let mut rest = records;
    for i in 0..num_shards {
        // Shard i gets records [i*n/N, (i+1)*n/N) — contiguous, and
        // sizes differ by at most one.
        let start = i * n / num_shards;
        let end = (i + 1) * n / num_shards;
        let tail = rest.split_off(end - start);
        slices.push(rest);
        rest = tail;
    }
    let results: Vec<Result<(u32, u64, u64), IndexError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .enumerate()
            .map(|(i, slice)| {
                let dir: PathBuf = root.join(shard_dir_name(i));
                scope.spawn(move || build_shard_dir(&dir, slice, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard build thread panicked"))
            .collect()
    });
    let mut manifest = Manifest::new(
        config.index.k,
        config.index.stride,
        config.index.granularity,
        config.codec,
        crate::segment::storage_tag(config.storage),
    );
    let mut counts = Vec::with_capacity(num_shards);
    for (id, result) in (0u64..).zip(results) {
        let (records, index_bytes, store_bytes) = result?;
        counts.push(records);
        manifest.segments.push(SegmentMeta {
            id,
            records,
            index_bytes,
            store_bytes,
        });
    }
    manifest.save_to(&root.join(SHARD_MANIFEST_FILE))?;
    Ok(counts)
}

fn build_shard_dir(
    dir: &Path,
    records: Vec<(String, DnaSeq)>,
    config: &DbConfig,
) -> Result<(u32, u64, u64), IndexError> {
    std::fs::create_dir_all(dir)?;
    let mut store = SequenceStore::new(config.storage);
    let mut builder = nucdb_index::IndexBuilder::new(config.index.clone()).with_codec(config.codec);
    let count = records.len() as u32;
    for (id, seq) in records {
        builder.add_record(&seq.representative_bases());
        store.add(id, &seq);
    }
    let index_path = dir.join(INDEX_FILE);
    let store_path = dir.join(STORE_FILE);
    nucdb_index::write_index(&builder.finish(), &index_path)?;
    store.write_to(&store_path).map_err(io_err)?;
    let index_bytes = std::fs::metadata(&index_path)?.len();
    let store_bytes = std::fs::metadata(&store_path)?.len();
    Ok((count, index_bytes, store_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nucdb_seq::random::{CollectionSpec, SyntheticCollection};

    /// A three-shard root over a tiny collection, in a fresh directory.
    /// Returns the root and the per-shard record counts.
    fn sharded_root(tag: &str) -> (PathBuf, Vec<u32>) {
        let root = std::env::temp_dir().join(format!(
            "nucdb-shard-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let coll = SyntheticCollection::generate(&CollectionSpec::tiny(3));
        let records = coll
            .records
            .iter()
            .map(|r| (r.id.clone(), r.seq.clone()))
            .collect();
        let counts = build_sharded_root(&root, records, 3, &DbConfig::default()).unwrap();
        (root, counts)
    }

    fn open(root: &Path) -> Result<ShardSet, IndexError> {
        ShardSet::open_root(
            root,
            ShardSetConfig::default(),
            &MetricsRegistry::disabled(),
        )
    }

    /// Overwrite `root/SHARDS` with `bytes` and report whether the root
    /// still opens.
    fn opens_with(root: &Path, bytes: &[u8]) -> bool {
        std::fs::write(root.join(SHARD_MANIFEST_FILE), bytes).unwrap();
        open(root).is_ok()
    }

    #[test]
    fn round_trip() {
        let (root, counts) = sharded_root("round-trip");
        let bytes = std::fs::read(root.join(SHARD_MANIFEST_FILE)).unwrap();
        let m = Manifest::decode(&bytes).unwrap();
        assert_eq!(m.encode(), bytes);
        let config = DbConfig::default();
        assert_eq!(m.k, config.index.k);
        assert_eq!(m.stride, config.index.stride);
        assert_eq!(m.granularity, config.index.granularity);
        assert_eq!(m.codec, config.codec);
        assert_eq!(m.segments.len(), 3);
        let mut base = 0u64;
        for (i, (meta, &count)) in m.segments.iter().zip(&counts).enumerate() {
            assert_eq!(meta.id, i as u64);
            assert_eq!(meta.records, count);
            assert_eq!(m.base_of(i), base);
            base += u64::from(count);
        }
        assert_eq!(m.total_records(), base);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn save_and_load() {
        let (root, counts) = sharded_root("save-load");
        let path = root.join(SHARD_MANIFEST_FILE);
        let mut m = Manifest::load_from(&path).unwrap();
        for (i, meta) in m.segments.iter().enumerate() {
            let dir = root.join(shard_dir_name(i));
            assert_eq!(
                meta.index_bytes,
                std::fs::metadata(dir.join(INDEX_FILE)).unwrap().len()
            );
            assert_eq!(
                meta.store_bytes,
                std::fs::metadata(dir.join(STORE_FILE)).unwrap().len()
            );
        }
        m.version += 1;
        m.save_to(&path).unwrap();
        assert_eq!(Manifest::load_from(&path).unwrap(), m);
        let set = open(&root).unwrap();
        assert_eq!(set.num_shards(), 3);
        assert_eq!(set.len(), counts.iter().map(|&c| c as usize).sum::<usize>());
        drop(set);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let (root, _) = sharded_root("byte-flip");
        let bytes = std::fs::read(root.join(SHARD_MANIFEST_FILE)).unwrap();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    !opens_with(&root, &corrupt),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
        assert!(opens_with(&root, &bytes));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let (root, _) = sharded_root("truncation");
        let bytes = std::fs::read(root.join(SHARD_MANIFEST_FILE)).unwrap();
        for len in 0..bytes.len() {
            assert!(
                !opens_with(&root, &bytes[..len]),
                "truncation to {len} bytes went undetected"
            );
        }
        assert!(opens_with(&root, &bytes));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (root, _) = sharded_root("trailing");
        let bytes = std::fs::read(root.join(SHARD_MANIFEST_FILE)).unwrap();
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(!opens_with(&root, &longer));
        assert!(opens_with(&root, &bytes));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_names() {
        assert_eq!(shard_dir_name(0), "shard-000");
        assert_eq!(shard_dir_name(42), "shard-042");
        let (root, _) = sharded_root("dir-names");
        let set = open(&root).unwrap();
        let names: Vec<String> = set.shard_rows().into_iter().map(|row| row.0).collect();
        assert_eq!(names, ["shard-000", "shard-001", "shard-002"]);
        assert!(names.iter().all(|name| root.join(name).is_dir()));
        drop(set);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
