//! End-to-end tests for serving a sharded root: bit-identity of the
//! scatter-gather HTTP answer against the joint engine with per-shard
//! metrics, and degraded mode answering 200 with partial coverage (never
//! a 500) when a shard is corrupt.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use nucdb::{Database, DbConfig, SearchParams, ShardSet, ShardSetConfig};
use nucdb_obs::json::{self, Value};
use nucdb_obs::MetricsRegistry;
use nucdb_seq::random::{CollectionSpec, MutationModel, SyntheticCollection};
use nucdb_seq::DnaSeq;
use nucdb_serve::{start_sharded, ServeConfig};

fn collection() -> SyntheticCollection {
    let mut spec = CollectionSpec::sized(0xD1CE, 100_000);
    spec.mutation = MutationModel::standard(0.06);
    SyntheticCollection::generate(&spec)
}

fn records(coll: &SyntheticCollection) -> Vec<(String, DnaSeq)> {
    coll.records
        .iter()
        .map(|r| (r.id.clone(), r.seq.clone()))
        .collect()
}

fn queries(coll: &SyntheticCollection, n: usize) -> Vec<(String, DnaSeq)> {
    (0..coll.families.len().min(n))
        .map(|f| {
            let q = coll.query_for_family(f, 0.5, &MutationModel::standard(0.06));
            (format!("q{f}"), q)
        })
        .collect()
}

fn to_fasta(queries: &[(String, DnaSeq)]) -> String {
    let mut out = String::new();
    for (id, seq) in queries {
        out.push('>');
        out.push_str(id);
        out.push('\n');
        out.extend(
            seq.representative_bases()
                .iter()
                .map(|b| b.to_ascii() as char),
        );
        out.push('\n');
    }
    out
}

/// A unique temp directory per test invocation.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nucdb_shard_e2e_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One raw HTTP/1.1 exchange over a fresh connection.
fn http(
    addr: std::net::SocketAddr,
    request_head: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(request_head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("no header terminator in response");
    let head = std::str::from_utf8(&raw[..head_end]).expect("non-UTF8 response head");
    let status: u16 = head
        .split("\r\n")
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("bad status line");
    Ok((status, raw[head_end + 4..].to_vec()))
}

fn post_search(addr: std::net::SocketAddr, body: &str) -> (u16, Vec<u8>) {
    let head = format!(
        "POST /search HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    http(addr, &head, body.as_bytes()).unwrap()
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let head = format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    http(addr, &head, &[]).unwrap()
}

/// One answer as (id, record, score, coarse_hits, strand).
type AnswerTuple = (String, u64, u64, u64, String);

/// The answer tuples of one query, in rank order — the bit-identity
/// fingerprint.
fn answer_tuples(result: &Value) -> Vec<AnswerTuple> {
    let Some(Value::Arr(answers)) = result.get("answers") else {
        panic!("no answers array in {}", result.render());
    };
    answers
        .iter()
        .map(|a| {
            (
                a.get("id").and_then(Value::as_str).unwrap().to_string(),
                a.get("record").and_then(Value::as_f64).unwrap() as u64,
                a.get("score").and_then(Value::as_f64).unwrap() as u64,
                a.get("coarse_hits").and_then(Value::as_f64).unwrap() as u64,
                a.get("strand").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

/// The joint (unsharded) engine's answer tuples for each query.
fn joint_tuples(
    coll: &SyntheticCollection,
    qs: &[(String, DnaSeq)],
    params: &SearchParams,
) -> Vec<Vec<AnswerTuple>> {
    let db = Database::build(records(coll), &DbConfig::default());
    qs.iter()
        .map(|(_, seq)| {
            db.search(seq, params)
                .unwrap()
                .results
                .iter()
                .map(|r| {
                    let strand = match r.strand {
                        nucdb::Strand::Forward => "+",
                        nucdb::Strand::Reverse => "-",
                        nucdb::Strand::Both => "?",
                    };
                    (
                        r.id.clone(),
                        r.record as u64,
                        r.score as u64,
                        r.coarse_hits as u64,
                        strand.to_string(),
                    )
                })
                .collect()
        })
        .collect()
}

/// The `coverage` object of one per-query result document.
fn coverage_of(result: &Value) -> (u64, u64, Vec<String>) {
    let coverage = result.get("coverage").expect("no coverage object");
    let ok = coverage
        .get("shards_ok")
        .and_then(Value::as_f64)
        .expect("no shards_ok") as u64;
    let total = coverage
        .get("shards_total")
        .and_then(Value::as_f64)
        .expect("no shards_total") as u64;
    let Some(Value::Arr(failures)) = coverage.get("failures") else {
        panic!("no failures array");
    };
    let failed = failures
        .iter()
        .map(|f| f.get("shard").and_then(Value::as_str).unwrap().to_string())
        .collect();
    (ok, total, failed)
}

/// Answers over HTTP are bit-identical to the joint build at full
/// coverage, and every shard's query counter and latency histogram fill.
#[test]
fn hedged_sharded_server_is_bit_identical_to_joint_build() {
    let coll = collection();
    let qs = queries(&coll, 4);
    let params = SearchParams::default();
    let expected = joint_tuples(&coll, &qs, &params);

    let root = temp_dir("joint");
    nucdb::build_sharded_root(&root, records(&coll), 3, &DbConfig::default()).unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let shard_config = ShardSetConfig {
        shard_deadline: Duration::from_secs(30),
    };
    let set = Arc::new(ShardSet::open_root(&root, shard_config, &registry).unwrap());

    let handle = start_sharded(
        "127.0.0.1:0",
        Arc::clone(&set),
        registry,
        params,
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    let (status, body) = post_search(addr, &to_fasta(&qs));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("bad response shape: {}", response.render());
    };
    assert_eq!(results.len(), qs.len());
    for (i, result) in results.iter().enumerate() {
        assert_eq!(answer_tuples(result), expected[i], "query {i}");
        let (ok, total, failed) = coverage_of(result);
        assert_eq!((ok, total), (3, 3), "query {i} lost coverage");
        assert!(failed.is_empty());
    }

    // The per-shard metric families are in the exposition: every shard
    // took queries and its latency histogram recorded phases.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).unwrap();
    let counter = |name: &str, shard: &str| -> u64 {
        let needle = format!("{name}{{shard=\"{shard}\"}}");
        text.lines()
            .find(|l| l.starts_with(&needle))
            .unwrap_or_else(|| panic!("{needle} not in /metrics"))
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    for shard in ["shard-000", "shard-001", "shard-002"] {
        assert!(counter("nucdb_shard_queries_total", shard) >= 1);
        assert!(
            counter("nucdb_shard_latency_ns_count", shard) >= 1,
            "latency histogram for {shard} is empty"
        );
    }

    handle.shutdown();
}

/// A corrupt shard degrades the answer instead of erroring it: the
/// server answers 200 with `coverage < 1` naming the dead shard, the
/// per-shard error metric is visible, and /stats reports the dead row.
#[test]
fn corrupt_shard_degrades_to_partial_coverage_not_500() {
    let coll = collection();
    let qs = queries(&coll, 3);
    let params = SearchParams::default();

    let root = temp_dir("degraded");
    nucdb::build_sharded_root(&root, records(&coll), 3, &DbConfig::default()).unwrap();
    // Truncate shard 1's index below its header: the shard is dead at
    // open, but the SHARDS manifest keeps every other shard's id base.
    let victim = root.join("shard-001").join("index.nucidx");
    let full = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &full[..8]).unwrap();

    let registry = Arc::new(MetricsRegistry::new());
    let set = Arc::new(ShardSet::open_root(&root, ShardSetConfig::default(), &registry).unwrap());
    let handle = start_sharded(
        "127.0.0.1:0",
        Arc::clone(&set),
        registry,
        params,
        ServeConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();

    // Ready immediately (no scrubber in sharded mode), and every query
    // answers 200 — degraded, never a 500.
    let (status, _) = get(addr, "/readyz");
    assert_eq!(status, 200);
    let (status, body) = post_search(addr, &to_fasta(&qs));
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let response = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let Some(Value::Arr(results)) = response.get("results") else {
        panic!("bad response shape: {}", response.render());
    };
    assert_eq!(results.len(), qs.len());
    for result in results {
        let (ok, total, failed) = coverage_of(result);
        assert_eq!((ok, total), (2, 3));
        assert_eq!(failed, vec!["shard-001".to_string()]);
    }

    // /stats names the dead shard and its manifest-recorded size.
    let (status, stats) = get(addr, "/stats");
    assert_eq!(status, 200);
    let stats = json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let sharded = stats.get("sharded").expect("no sharded block");
    assert_eq!(sharded.get("shards").and_then(Value::as_f64), Some(3.0));
    let Some(Value::Arr(rows)) = sharded.get("rows") else {
        panic!("no shard rows");
    };
    let dead: Vec<&Value> = rows
        .iter()
        .filter(|r| !matches!(r.get("error"), Some(Value::Null) | None))
        .collect();
    assert_eq!(dead.len(), 1);
    assert_eq!(
        dead[0].get("shard").and_then(Value::as_str),
        Some("shard-001")
    );

    // The degraded-query counter moved once per query.
    let (_, metrics) = get(addr, "/metrics");
    let text = String::from_utf8(metrics).unwrap();
    let degraded = text
        .lines()
        .find(|l| l.starts_with("nucdb_shard_degraded_queries_total"))
        .expect("no degraded counter in /metrics")
        .rsplit(' ')
        .next()
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert!(degraded >= qs.len() as u64);

    handle.shutdown();
}
