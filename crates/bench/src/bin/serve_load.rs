//! `serve_load`: loopback load benchmark for the `nucdb-serve` HTTP
//! server, writing `results/BENCH_serve.json`.
//!
//! Builds a deterministic synthetic collection, measures the
//! single-process baseline (the same queries through
//! `Database::search_batch` on one thread, and
//! `search_batch_parallel` on four), then starts the server on an
//! ephemeral loopback port and drives it with raw `TcpStream` clients
//! at concurrency 1, 2, and 4 — one FASTA query per `POST /search`,
//! keep-alive connections, per-request latency into a histogram.
//!
//! The acceptance block records the concurrency-4 QPS against two
//! single-process references: the one-thread in-process rate on this
//! exact workload, and `coarse_throughput`'s single-thread figure from
//! `results/BENCH_coarse.json` when present.
//!
//! Env knobs: `SERVE_LOAD_BASES` (collection size, default 250,000) and
//! `SERVE_LOAD_REQUESTS` (requests per sweep point, default 256).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nucdb::{DbConfig, SearchParams};
use nucdb_bench::json::Value;
use nucdb_bench::{
    banner, collection, database, family_queries, group_thousands, latency_block, results_path,
    time, Table,
};
use nucdb_obs::{Histogram, MetricsRegistry};
use nucdb_seq::DnaSeq;
use nucdb_serve::{start, ServeConfig};

const CONCURRENCY: &[usize] = &[1, 2, 4];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Send one `POST /search` on a keep-alive connection and read the full
/// response back. Returns (status, body).
fn post_search(conn: &mut TcpStream, body: &str) -> (u16, String) {
    let request = format!(
        "POST /search HTTP/1.1\r\nHost: bench\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: keep-alive\r\n\r\n{}",
        body.len(),
        body
    );
    conn.write_all(request.as_bytes()).expect("write request");
    read_response(conn)
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn read_response(conn: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::with_capacity(4096);
    let mut tmp = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_subslice(&buf, b"\r\n\r\n") {
            break pos + 4;
        }
        let n = conn.read(&mut tmp).expect("read response head");
        assert!(n > 0, "server closed connection before response head");
        buf.extend_from_slice(&tmp[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in response line");
    let content_length: usize = head
        .lines()
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            if key.eq_ignore_ascii_case("content-length") {
                value.trim().parse().ok()
            } else {
                None
            }
        })
        .expect("Content-Length header");
    while buf.len() < header_end + content_length {
        let n = conn.read(&mut tmp).expect("read response body");
        assert!(n > 0, "server closed connection mid-body");
        buf.extend_from_slice(&tmp[..n]);
    }
    let body = String::from_utf8_lossy(&buf[header_end..header_end + content_length]).into_owned();
    (status, body)
}

fn qps(requests: usize, wall: Duration) -> f64 {
    requests as f64 / wall.as_secs_f64()
}

fn main() {
    banner("serve_load", "nucdb-serve loopback throughput and latency");
    let bases = env_usize("SERVE_LOAD_BASES", 250_000);
    let requests = env_usize("SERVE_LOAD_REQUESTS", 256);

    let coll = collection(0x05E1_10AD, bases);
    let mut db = database(&coll, &DbConfig::default());
    // Per-request work is deliberately light (short queries, few
    // candidates): this benchmark measures the serving layer, and a
    // cheap query maximises the HTTP/queueing share of each request.
    let queries = family_queries(&coll, 0.3, 0.05);
    let params = SearchParams {
        max_candidates: 8,
        max_results: 10,
        ..SearchParams::default()
    };
    println!(
        "collection: {} bases, {} records, {} distinct queries, {} requests per point",
        group_thousands(bases as u64),
        coll.records.len(),
        queries.len(),
        requests
    );

    // The request stream: one FASTA query per request, cycling the
    // family queries so every sweep point sees the same mix.
    let bodies: Vec<String> = (0..requests)
        .map(|i| {
            let (family, seq) = &queries[i % queries.len()];
            format!(
                ">fam{family}\n{}\n",
                String::from_utf8(seq.to_ascii_vec()).expect("ASCII bases")
            )
        })
        .collect();
    let direct_queries: Vec<DnaSeq> = (0..requests)
        .map(|i| queries[i % queries.len()].1.clone())
        .collect();

    // Single-process baselines on the exact same workload. The
    // one-thread figure is the "CLI-style" reference the server must
    // beat; the four-thread figure bounds what concurrency 4 could
    // achieve with zero HTTP overhead.
    let _ = db.search_batch(&direct_queries[..queries.len().min(requests)], &params);
    let (_, wall_direct_1t) = time(|| db.search_batch(&direct_queries, &params));
    let (_, wall_direct_4t) = time(|| db.search_batch_parallel(&direct_queries, &params, 4));
    let direct_qps_1t = qps(requests, wall_direct_1t);
    let direct_qps_4t = qps(requests, wall_direct_4t);
    println!(
        "direct baseline: {:.1} q/s on one thread, {:.1} q/s on four",
        direct_qps_1t, direct_qps_4t
    );

    let registry = MetricsRegistry::new();
    db.bind_metrics(&registry);
    let config = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    let handle = start(("127.0.0.1", 0), db, registry, params, config).expect("start server");
    let addr = handle.addr();
    println!("server: {addr} (4 workers)");

    // Warm the server path once before timing anything.
    {
        let mut conn = TcpStream::connect(addr).expect("warmup connect");
        let (status, _) = post_search(&mut conn, &bodies[0]);
        assert_eq!(status, 200, "warmup request failed");
    }

    let mut table = Table::new(&["concurrency", "wall ms", "queries/s", "p50 us", "p99 us"]);
    let mut rows: Vec<Value> = Vec::new();
    let mut server_qps_c4 = 0.0f64;
    for &concurrency in CONCURRENCY {
        let latency = Histogram::new();
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..concurrency {
                scope.spawn(|| {
                    let mut conn = TcpStream::connect(addr).expect("client connect");
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= requests {
                            break;
                        }
                        let t0 = Instant::now();
                        let (status, body) = post_search(&mut conn, &bodies[i]);
                        latency.record_duration(t0.elapsed());
                        assert_eq!(status, 200, "request {i} failed: {body}");
                        assert!(body.contains("\"results\""), "request {i}: bad body");
                    }
                });
            }
        });
        let wall = started.elapsed();
        let point_qps = qps(requests, wall);
        if concurrency == 4 {
            server_qps_c4 = point_qps;
        }
        let snap = latency.snapshot();
        table.row(vec![
            concurrency.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!("{:.1}", point_qps),
            format!("{:.1}", snap.p50() as f64 / 1e3),
            format!("{:.1}", snap.p99() as f64 / 1e3),
        ]);
        rows.push(Value::Obj(vec![
            ("concurrency", Value::Int(concurrency as u64)),
            ("requests", Value::Int(requests as u64)),
            ("wall_ms", Value::Num(wall.as_secs_f64() * 1e3)),
            ("queries_per_sec", Value::Num(point_qps)),
            ("latency_ns", latency_block(&snap)),
        ]));
    }
    table.print();

    let served = handle.requests_ok();
    let registry = handle.shutdown().expect("registry returned after drain");
    let snapshot_len = registry.snapshot().metrics.len();
    println!("\nserver drained after {served} successful requests ({snapshot_len} metric series)");

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ratio = server_qps_c4 / direct_qps_1t;
    println!(
        "acceptance: server at concurrency 4 runs {:.2}x the single-process rate",
        ratio
    );

    // The bar from the standalone engine benchmark, when its results
    // file is present: coarse_throughput's single-thread queries/sec.
    let coarse_reference = std::fs::read_to_string(results_path("BENCH_coarse.json"))
        .ok()
        .and_then(|text| nucdb_obs::json::parse(&text).ok())
        .and_then(|doc| {
            let nucdb_obs::json::Value::Arr(rows) = doc.get("sweep")? else {
                return None;
            };
            rows.iter().find_map(|row| {
                if row.get("threads")?.as_f64()? == 1.0 {
                    row.get("queries_per_sec")?.as_f64()
                } else {
                    None
                }
            })
        });
    if let Some(reference) = coarse_reference {
        println!(
            "acceptance: server at concurrency 4 sustains {server_qps_c4:.1} q/s vs \
             coarse_throughput's {reference:.1} q/s single-process"
        );
    }

    let out = Value::Obj(vec![
        ("experiment", Value::Str("serve_load".into())),
        (
            "description",
            Value::Str(
                "POST /search throughput and latency over loopback keep-alive \
                 connections, versus the same queries through search_batch in-process"
                    .into(),
            ),
        ),
        ("collection_bases", Value::Int(bases as u64)),
        ("records", Value::Int(coll.records.len() as u64)),
        ("requests_per_point", Value::Int(requests as u64)),
        ("host_cpus", Value::Int(host_cpus as u64)),
        ("server", Value::Obj(vec![("threads", Value::Int(4))])),
        (
            "direct",
            Value::Obj(vec![
                (
                    "single_thread",
                    Value::Obj(vec![
                        ("wall_ms", Value::Num(wall_direct_1t.as_secs_f64() * 1e3)),
                        ("queries_per_sec", Value::Num(direct_qps_1t)),
                    ]),
                ),
                (
                    "four_threads",
                    Value::Obj(vec![
                        ("wall_ms", Value::Num(wall_direct_4t.as_secs_f64() * 1e3)),
                        ("queries_per_sec", Value::Num(direct_qps_4t)),
                    ]),
                ),
            ]),
        ),
        ("sweep", Value::Arr(rows)),
        (
            "acceptance",
            Value::Obj(vec![
                ("server_qps_concurrency_4", Value::Num(server_qps_c4)),
                ("single_process_qps", Value::Num(direct_qps_1t)),
                ("ratio", Value::Num(ratio)),
                (
                    // null when BENCH_coarse.json has not been produced
                    // on this machine.
                    "coarse_throughput_single_thread_qps",
                    Value::Num(coarse_reference.unwrap_or(f64::NAN)),
                ),
            ]),
        ),
    ]);
    let path = results_path("BENCH_serve.json");
    std::fs::write(&path, out.render() + "\n").expect("write results");
    println!("wrote {}", path.display());
}
