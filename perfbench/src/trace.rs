//! Spans recorded by the benchmark around calls into the layers'
//! public functions, and timing wrappers that let the benchmark see
//! calls the layers make into each other (postings fetches, record
//! fetches, per-shard coarse search).
//!
//! Spans stay in memory until the run ends. Each carries a name, start,
//! end, parent and the id of the query it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nucdb::{
    CoarseHit, CoarseOutcome, FineMode, FineResult, PostingsSource, RecordSource, SearchParams,
    Shard,
};
use nucdb_index::{FetchStats, IndexError, IndexParams, PostingsList, PostingsVisitor};
use nucdb_seq::{Base, DnaSeq, SeqError};

/// "No span": the ambient parent before any is set.
const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Query the span belongs to.
    pub query: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store. Thread-safe: shard workers record into it.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Parent for spans opened by wrappers deep inside a layer call.
    ambient_parent: AtomicU32,
    /// Query the ambient parent belongs to.
    ambient_query: AtomicU32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ambient_parent: AtomicU32::new(NONE),
            ambient_query: AtomicU32::new(0),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id.
    pub fn begin(&self, name: &'static str, query: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        let mut spans = self.spans.lock().expect("span store lock");
        spans.push(Span {
            name,
            query,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (spans.len() - 1) as u32
    }

    /// Close span `id`.
    pub fn end(&self, id: u32) {
        let end_ns = self.now();
        self.spans.lock().expect("span store lock")[id as usize].end_ns = end_ns;
    }

    /// Open a span that becomes the parent of wrapper spans until closed.
    pub fn begin_ambient(&self, name: &'static str, query: u32, parent: Option<u32>) -> u32 {
        let id = self.begin(name, query, parent);
        self.ambient_query.store(query, Ordering::SeqCst);
        self.ambient_parent.store(id, Ordering::SeqCst);
        id
    }

    /// Close an ambient span opened by [`Tracer::begin_ambient`].
    pub fn end_ambient(&self, id: u32) {
        self.ambient_parent.store(NONE, Ordering::SeqCst);
        self.end(id);
    }

    /// Run `f` inside a child span of the ambient span.
    pub fn under_ambient<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.ambient_parent.load(Ordering::SeqCst);
        let query = self.ambient_query.load(Ordering::SeqCst);
        let id = self.begin(name, query, (parent != NONE).then_some(parent));
        let out = f();
        self.end(id);
        out
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        query: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, query, parent);
        let out = f();
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Write every span as one JSON line each.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"query\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.query, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-span self time: duration minus the time its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.nanos();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.nanos().saturating_sub(c))
        .collect()
}

/// Totals by span name: (calls, total nanos, self nanos).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.nanos();
        e.2 += self_ns;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64)
        .collect()
}

/// Per-query sums (ns) of the spans named `name`, for queries that have any.
pub fn per_query_sums(spans: &[Span], name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *sums.entry(s.query).or_default() += s.nanos() as f64;
    }
    sums.into_values().collect()
}

/// A postings source whose fetches are recorded as `index.fetch` spans
/// under the tracer's ambient span.
pub struct TimedIndex<'a, S: PostingsSource> {
    inner: &'a S,
    tracer: &'a Tracer,
}

impl<'a, S: PostingsSource> TimedIndex<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: &'a S, tracer: &'a Tracer) -> TimedIndex<'a, S> {
        TimedIndex { inner, tracer }
    }
}

impl<S: PostingsSource> PostingsSource for TimedIndex<'_, S> {
    fn num_records(&self) -> u32 {
        self.inner.num_records()
    }

    fn record_lens(&self) -> &[u32] {
        self.inner.record_lens()
    }

    fn index_params(&self) -> &IndexParams {
        self.inner.index_params()
    }

    fn fetch(&self, code: u64) -> Result<Option<PostingsList>, IndexError> {
        self.tracer
            .under_ambient("index.fetch", || self.inner.fetch(code))
    }

    fn fetch_counts(&self, code: u64) -> Result<Option<Vec<(u32, u32)>>, IndexError> {
        self.tracer
            .under_ambient("index.fetch", || self.inner.fetch_counts(code))
    }

    fn fetch_with(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u32, u32),
    ) -> Result<Option<u32>, IndexError> {
        self.tracer
            .under_ambient("index.fetch", || self.inner.fetch_with(code, io_buf, visit))
    }

    fn fetch_counts_with(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visit: &mut dyn FnMut(u32, u32),
    ) -> Result<Option<u32>, IndexError> {
        self.tracer.under_ambient("index.fetch", || {
            self.inner.fetch_counts_with(code, io_buf, visit)
        })
    }

    fn list_max_count(&self, code: u64) -> Option<u32> {
        self.inner.list_max_count(code)
    }

    fn fetch_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.tracer.under_ambient("index.fetch", || {
            self.inner.fetch_stream(code, io_buf, visitor)
        })
    }

    fn fetch_counts_stream(
        &self,
        code: u64,
        io_buf: &mut Vec<u8>,
        visitor: &mut dyn PostingsVisitor,
    ) -> Result<Option<FetchStats>, IndexError> {
        self.tracer.under_ambient("index.fetch", || {
            self.inner.fetch_counts_stream(code, io_buf, visitor)
        })
    }
}

/// A record source whose fetches are recorded as `store.fetch` spans
/// under the tracer's ambient span.
pub struct TimedStore<'a, S: RecordSource> {
    inner: &'a S,
    tracer: &'a Tracer,
}

impl<'a, S: RecordSource> TimedStore<'a, S> {
    /// Wrap `inner`.
    pub fn new(inner: &'a S, tracer: &'a Tracer) -> TimedStore<'a, S> {
        TimedStore { inner, tracer }
    }
}

impl<S: RecordSource> RecordSource for TimedStore<'_, S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn id(&self, record: u32) -> &str {
        self.inner.id(record)
    }

    fn record_len(&self, record: u32) -> usize {
        self.inner.record_len(record)
    }

    fn bases(&self, record: u32) -> Vec<Base> {
        self.tracer
            .under_ambient("store.fetch", || self.inner.bases(record))
    }

    fn try_bases(&self, record: u32) -> Result<Vec<Base>, SeqError> {
        self.tracer
            .under_ambient("store.fetch", || self.inner.try_bases(record))
    }

    fn sequence(&self, record: u32) -> Result<DnaSeq, SeqError> {
        self.tracer
            .under_ambient("store.fetch", || self.inner.sequence(record))
    }
}

/// A shard whose coarse calls are recorded as `shard.coarse` spans
/// under the tracer's ambient span (the enclosing `ShardSet::search`).
pub struct TimedShard {
    inner: Arc<dyn Shard>,
    tracer: Arc<Tracer>,
}

impl TimedShard {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Shard>, tracer: Arc<Tracer>) -> TimedShard {
        TimedShard { inner, tracer }
    }
}

impl Shard for TimedShard {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn num_records(&self) -> u32 {
        self.inner.num_records()
    }

    fn index_params(&self) -> IndexParams {
        self.inner.index_params()
    }

    fn coarse(
        &self,
        query_bases: &[Base],
        params: &SearchParams,
    ) -> Result<CoarseOutcome, IndexError> {
        self.tracer
            .under_ambient("shard.coarse", || self.inner.coarse(query_bases, params))
    }

    fn fine(
        &self,
        query: &DnaSeq,
        candidates: &[CoarseHit],
        mode: FineMode,
        params: &SearchParams,
    ) -> Result<Vec<FineResult>, IndexError> {
        self.inner.fine(query, candidates, mode, params)
    }

    fn record_id(&self, local: u32) -> String {
        self.inner.record_id(local)
    }

    fn record_len(&self, local: u32) -> usize {
        self.inner.record_len(local)
    }

    fn total_bases(&self) -> u64 {
        self.inner.total_bases()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "root",
                query: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                query: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                query: 0,
                parent: Some(0),
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                name: "c",
                query: 0,
                parent: Some(1),
                start_ns: 15,
                end_ns: 25,
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        let totals = totals_by_name(&spans);
        let self_sum: u64 = totals.values().map(|t| t.2).sum();
        assert_eq!(self_sum, 100, "self times add up to the root");
    }
}
