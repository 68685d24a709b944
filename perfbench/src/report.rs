//! The metric catalogue and the result line.

use nucdb_obs::json::{num, Value};

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) read as 0.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        }
    }
}

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("search_qps", "1/s"),
    ("search_p50_ms", "ms"),
    ("recall_at_10", "fraction"),
    ("disk_bytes_per_base", "B/base"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`), each with
/// its unit and the end-to-end metric and workload it should move. A
/// layer a workload never enters reads 0 there. The served-phase tails
/// (`search_p99_ms`, the insert latencies) and the ingest rate sit here
/// too: they come from the untraced served phase, but the tails vary too
/// much between runs on a shared host to carry a bound, and the insert
/// figures exist on live_mixed only.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("search_p99_ms", "ms", "itself, on every workload"),
    ("serve.overhead_us", "us", "search_p50_ms on screen"),
    ("serve.shed", "count", "failed operations on every workload"),
    (
        "serve.error_rate",
        "fraction",
        "failed operations on every workload",
    ),
    (
        "serve.ingest_rps",
        "1/s",
        "itself, on live_mixed: the offered 400/s unless the server falls behind",
    ),
    ("serve.insert_p50_ms", "ms", "itself, on live_mixed"),
    ("serve.insert_p99_ms", "ms", "itself, on live_mixed"),
    ("engine.search_us", "us", "search_p50_ms on every workload"),
    ("engine.merge_us", "us", "search_p50_ms on homology"),
    ("coarse.rank_us", "us", "search_qps on screen"),
    ("coarse.hits_per_query", "count", "search_qps on screen"),
    (
        "coarse.candidates_per_query",
        "count",
        "search_qps on homology",
    ),
    (
        "coarse.useful_frac",
        "fraction",
        "search_qps on homology, recall_at_10 as guard",
    ),
    ("index.fetch_us", "us", "search_qps on screen"),
    ("index.lists_fetched", "count", "search_qps on screen"),
    ("index.postings_bytes_read", "B", "search_qps on screen"),
    ("index.ids_decoded", "count", "search_qps on screen"),
    ("index.blocks_decoded", "count", "search_qps on screen"),
    ("index.blocks_skipped", "count", "search_qps on screen"),
    ("index.skip_frac", "fraction", "search_qps on screen"),
    ("index.ns_per_id", "ns", "search_qps on screen"),
    ("index.build_s", "s", "setup_s on every workload"),
    (
        "index.bytes_per_base",
        "B/base",
        "disk_bytes_per_base on every workload",
    ),
    ("store.fetch_us", "us", "search_p50_ms on homology"),
    (
        "store.bytes_read_per_query",
        "B",
        "search_p50_ms on homology",
    ),
    (
        "store.bytes_per_base",
        "B/base",
        "disk_bytes_per_base on every workload",
    ),
    ("align.us_per_candidate", "us", "search_qps on homology"),
    (
        "align.dp_cells_per_query",
        "count",
        "search_qps on homology",
    ),
    ("align.mcells_per_s", "Mcells/s", "search_qps on homology"),
    ("fine.search_us", "us", "search_p50_ms on homology"),
    ("fine.share", "fraction", "high on homology, low on screen"),
    (
        "segment.insert_batch_us",
        "us",
        "serve.insert_p50_ms on live_mixed",
    ),
    (
        "segment.flush_ms",
        "ms",
        "serve.insert_p99_ms and search_p99_ms on live_mixed",
    ),
    (
        "segment.compact_ms",
        "ms",
        "serve.insert_p99_ms and search_p99_ms on live_mixed",
    ),
    (
        "segment.flushes",
        "count",
        "serve.insert_p99_ms on live_mixed",
    ),
    (
        "segment.compaction_runs",
        "count",
        "serve.insert_p99_ms on live_mixed",
    ),
    (
        "segment.write_amp",
        "ratio",
        "serve.insert_p99_ms and search_p99_ms on live_mixed",
    ),
    (
        "segment.parts_per_query",
        "count",
        "search_p50_ms on live_mixed",
    ),
    (
        "segment.snapshot_search_us",
        "us",
        "search_p50_ms on live_mixed",
    ),
    (
        "shard.search_us",
        "us",
        "search_p50_ms of sharded deployments (traced on screen)",
    ),
    (
        "shard.overhead_us",
        "us",
        "search_p50_ms of sharded deployments (traced on screen)",
    ),
    (
        "shard.slowest_coarse_us",
        "us",
        "search_p99_ms of sharded deployments (traced on screen)",
    ),
    (
        "shard.imbalance",
        "ratio",
        "search_p99_ms of sharded deployments (traced on screen)",
    ),
    (
        "shard.hedges",
        "count",
        "search_p99_ms of sharded deployments (traced on screen)",
    ),
    (
        "obs.traced_engine_us",
        "us",
        "nothing: the traced engine time",
    ),
    (
        "obs.unattributed_share",
        "fraction",
        "nothing: engine time no layer span covers",
    ),
    (
        "obs.trace_overhead_pct",
        "%",
        "nothing: traced minus untraced engine time",
    ),
];

/// Fill in the per-layer metrics `measured` lacks with 0, in catalogue
/// order.
pub fn complete_layers(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or(Metric::new(name, unit, 0.0))
        })
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Value::Obj(vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), num(attempted as u64)),
        ("failed".to_string(), num(failed as u64)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .render()
}
