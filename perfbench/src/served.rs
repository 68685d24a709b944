//! The untraced, served half of a run: set the system up, drive it over
//! loopback as a closed loop, and check every answer against an
//! in-process reference build. All end-to-end metrics come from here.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nucdb::{
    Database, IndexVariant, LiveDatabase, LiveOptions, OnDiskStore, SearchOutcome, StoreVariant,
    Strand,
};
use nucdb_index::{write_index, OnDiskIndex};
use nucdb_obs::MetricsRegistry;
use nucdb_serve::{start, start_live, ServeConfig, ServerHandle};

use crate::client::{fingerprint, parse_answers, parse_inserted, request_close, Answer, Conn};
use crate::gen::{fasta, fasta_records, Inputs, Workload, INSERT_BATCH, INSERT_RATE};
use crate::stats::{dir_bytes, err, mean, summarize, Summary};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up time before the timed phase.
const WARMUP: Duration = Duration::from_millis(1000);
/// Queries (lowest ids) whose answers define `recall_at_10`; every run
/// answers at least this many, so the figure is fixed by the seed.
const RECALL_QUERIES: u64 = 200;

/// What the running server holds, kept for in-process probes.
pub enum Backend {
    /// A static database on disk (index and store files).
    Static {
        /// The index file.
        index: PathBuf,
        /// The store file.
        store: PathBuf,
    },
    /// A live database, shared with the server.
    Live(Arc<LiveDatabase>),
}

/// A running server over one workload's collection.
pub struct Deployment {
    /// The server.
    pub handle: ServerHandle,
    /// The database directory.
    pub dir: PathBuf,
    /// In-process handles on what the server serves.
    pub backend: Backend,
    /// Seconds from generated records to `/readyz` answering 200.
    pub setup_s: f64,
    /// Seconds in `Database::build` plus the index write (static
    /// workloads), or in the initial insert and flush (live_mixed).
    pub build_s: f64,
}

impl Deployment {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop the server and wait for all of its threads.
    pub fn stop(self) -> Backend {
        let _ = self.handle.shutdown();
        self.backend
    }
}

/// Set up a server for `inputs` in the empty directory `dir`: build,
/// write and open the database, start the server, and wait until
/// `/readyz` answers 200.
pub fn deploy(inputs: &Inputs, dir: &Path) -> Result<Deployment, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let records = inputs.records[..inputs.initial].to_vec();
    let params = inputs.params;
    let config = ServeConfig::default();
    let addr = ("127.0.0.1", 0);
    let started = Instant::now();
    let (handle, backend, build_s) = match inputs.workload {
        Workload::Homology | Workload::Screen => {
            let index = dir.join("index.nucidx");
            let store = dir.join("store.nucsto");
            // Write the built files, drop the build, then serve a fresh
            // open of the files, as `nucdb build` and `nucdb serve` do.
            // Handles opened while the build is still held would sit above
            // its freed working memory, so whether glibc could return that
            // memory, and with it `peak_rss_mb`, would change by 5-12 MiB
            // with the heap layout.
            let built = Database::build(records, &inputs.config);
            let (IndexVariant::Memory(built_index), StoreVariant::Memory(built_store)) =
                (built.index(), built.store())
            else {
                return Err("Database::build did not return an in-memory database".to_string());
            };
            write_index(built_index, &index).map_err(err)?;
            let build_s = started.elapsed().as_secs_f64();
            built_store.write_to(&store).map_err(err)?;
            drop(built);
            let registry = MetricsRegistry::new();
            let db = open_static(&index, &store, &registry)?;
            let handle = start(addr, db, registry, params, config).map_err(err)?;
            (handle, Backend::Static { index, store }, build_s)
        }
        Workload::LiveMixed => {
            let registry = Arc::new(MetricsRegistry::new());
            let opts = LiveOptions {
                registry: Arc::clone(&registry),
                ..LiveOptions::default()
            };
            let live = LiveDatabase::create(dir, &inputs.config, opts).map_err(err)?;
            live.insert_batch(records).map_err(err)?;
            live.flush().map_err(err)?;
            let build_s = started.elapsed().as_secs_f64();
            let live = Arc::new(live);
            let handle =
                start_live(addr, Arc::clone(&live), registry, params, config).map_err(err)?;
            (handle, Backend::Live(live), build_s)
        }
    };
    wait_ready(handle.addr())?;
    Ok(Deployment {
        handle,
        dir: dir.to_path_buf(),
        backend,
        setup_s: started.elapsed().as_secs_f64(),
        build_s,
    })
}

/// Open a static database's files as an in-process database whose
/// search and I/O counters land in `registry`.
pub fn open_static(
    index: &Path,
    store: &Path,
    registry: &MetricsRegistry,
) -> Result<Database, String> {
    let mut db = Database::from_variants(
        StoreVariant::Disk(OnDiskStore::open(store).map_err(err)?),
        IndexVariant::Disk(OnDiskIndex::open(index).map_err(err)?),
    );
    db.bind_metrics(registry);
    Ok(db)
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok((200, _)) = request_close(addr, "GET", "/readyz", b"") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("server never became ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Set up and stop `count` more times in fresh directories under
/// `work`; returns each set-up time in seconds. These run after the
/// served phase, so the served process's peak memory covers one set-up.
pub fn more_setups(inputs: &Inputs, work: &Path, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|k| {
            let dir = work.join(format!("setup-{k}"));
            let deployment = deploy(inputs, &dir)?;
            let setup_s = deployment.setup_s;
            drop(deployment.stop());
            std::fs::remove_dir_all(&dir).map_err(err)?;
            Ok(setup_s)
        })
        .collect()
}

/// Why one operation failed.
#[derive(Debug, Clone)]
pub enum Failure {
    /// A non-200 answer (503 is a shed request).
    Status(u16),
    /// The connection failed.
    Io(String),
    /// The body did not parse.
    Parse(String),
}

/// One timed search.
#[derive(Debug, Clone)]
pub struct SearchSample {
    /// Query id within the workload's stream.
    pub query: u64,
    /// Client-side latency.
    pub nanos: u64,
    /// Fingerprint of the ranked answers, or why there are none.
    pub answers: Result<u64, Failure>,
}

/// One timed insert request.
#[derive(Debug, Clone)]
pub struct InsertSample {
    /// Client-side latency.
    pub nanos: u64,
    /// Records acknowledged, or why none were.
    pub inserted: Result<usize, Failure>,
}

/// Everything the timed phase and its checks produced.
#[derive(Debug, Default)]
pub struct ServedResult {
    /// Seconds the timed phase lasted.
    pub wall_s: f64,
    /// Every timed search.
    pub searches: Vec<SearchSample>,
    /// Every timed insert (live_mixed).
    pub inserts: Vec<InsertSample>,
    /// Answers compared against the reference build.
    pub checked: usize,
    /// Answers that differed from the reference build.
    pub mismatches: usize,
    /// live_mixed: post-flush check requests that failed outright.
    pub check_failures: usize,
    /// Mean over positive queries of the share of planted family members
    /// (capped at 10) in the top 10.
    pub recall_at_10: f64,
    /// On-disk bytes per collection base: every file of the database
    /// directory (index, store and, on live_mixed, the manifest).
    pub disk_bytes_per_base: f64,
    /// The index files' share of `disk_bytes_per_base`.
    pub index_bytes_per_base: f64,
    /// The store files' share of `disk_bytes_per_base`.
    pub store_bytes_per_base: f64,
    /// Peak resident memory of the process (`VmHWM`) at the end of the
    /// timed phase, in MiB: generated inputs, one set-up and serving,
    /// before the reference builds of the checks.
    pub peak_rss_mb: f64,
}

impl ServedResult {
    /// Operations attempted: searches, inserts and check requests.
    pub fn attempted(&self) -> usize {
        self.searches.len() + self.inserts.len() + self.checked + self.check_failures
    }

    /// Operations that failed or answered wrongly.
    pub fn failed(&self) -> usize {
        self.searches.iter().filter(|s| s.answers.is_err()).count()
            + self.inserts.iter().filter(|s| s.inserted.is_err()).count()
            + self.mismatches
            + self.check_failures
    }

    /// Requests the server shed with 503.
    pub fn shed(&self) -> usize {
        let shed_search = |s: &SearchSample| matches!(s.answers, Err(Failure::Status(503)));
        let shed_insert = |s: &InsertSample| matches!(s.inserted, Err(Failure::Status(503)));
        self.searches.iter().filter(|s| shed_search(s)).count()
            + self.inserts.iter().filter(|s| shed_insert(s)).count()
    }

    /// Successful searches per second.
    pub fn search_qps(&self) -> f64 {
        let ok = self.searches.iter().filter(|s| s.answers.is_ok()).count();
        ok as f64 / self.wall_s.max(1e-9)
    }

    /// Latency of successful searches, in milliseconds.
    pub fn search_latency_ms(&self) -> Summary {
        let ms: Vec<f64> = self
            .searches
            .iter()
            .filter(|s| s.answers.is_ok())
            .map(|s| s.nanos as f64 / 1e6)
            .collect();
        summarize(&ms)
    }

    /// Latency of acknowledged inserts, in milliseconds.
    pub fn insert_latency_ms(&self) -> Summary {
        let ms: Vec<f64> = self
            .inserts
            .iter()
            .filter(|s| s.inserted.is_ok())
            .map(|s| s.nanos as f64 / 1e6)
            .collect();
        summarize(&ms)
    }

    /// Records acknowledged by inserts.
    pub fn inserted(&self) -> usize {
        self.inserts
            .iter()
            .filter_map(|s| s.inserted.as_ref().ok())
            .sum()
    }

    /// Acknowledged insert records per second.
    pub fn ingest_rps(&self) -> f64 {
        self.inserted() as f64 / self.wall_s.max(1e-9)
    }
}

/// `POST path` on a keep-alive connection, connecting first if needed;
/// a broken connection is dropped so the next request reconnects.
fn post(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    path: &str,
    body: &[u8],
) -> Result<Vec<u8>, Failure> {
    if conn.is_none() {
        *conn = Some(Conn::connect(addr).map_err(|e| Failure::Io(e.to_string()))?);
    }
    match conn.as_mut().expect("connected above").post(path, body) {
        Ok((200, body)) => Ok(body),
        Ok((status, _)) => Err(Failure::Status(status)),
        Err(e) => {
            *conn = None;
            Err(Failure::Io(e.to_string()))
        }
    }
}

fn search_once(
    conn: &mut Option<Conn>,
    addr: SocketAddr,
    body: &[u8],
) -> Result<Vec<Answer>, Failure> {
    post(conn, addr, "/search", body).and_then(|b| parse_answers(&b).map_err(Failure::Parse))
}

/// Closed-loop searchers, one per connection in `conns`: each waits for
/// its answer before sending the next query. The connections outlive the
/// call, so warm-up and timed phase run on the same ones. With
/// `inserts`, one more connection streams the insert records at
/// [`INSERT_RATE`]. Returns the samples and the wall time.
fn search_loop(
    inputs: &Inputs,
    addr: SocketAddr,
    conns: &mut [Option<Conn>],
    run_for: Duration,
    warmup: bool,
    inserts: Option<&Mutex<Vec<InsertSample>>>,
) -> (Vec<SearchSample>, f64) {
    let next = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + run_for;
    std::thread::scope(|scope| {
        if let Some(out) = inserts {
            scope.spawn(move || {
                let mut conn = None;
                let mut local = Vec::new();
                let stream = inputs.records[inputs.initial..].chunks(INSERT_BATCH);
                for (k, chunk) in stream.enumerate() {
                    // Batch k is due k * INSERT_BATCH / INSERT_RATE seconds
                    // in; a late batch goes at once.
                    let due =
                        started + Duration::from_secs_f64((k * INSERT_BATCH) as f64 / INSERT_RATE);
                    if due >= deadline {
                        break;
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let body = fasta_records(chunk);
                    let t = Instant::now();
                    let inserted = post(&mut conn, addr, "/insert", &body)
                        .and_then(|b| parse_inserted(&b).map_err(Failure::Parse));
                    local.push(InsertSample {
                        nanos: t.elapsed().as_nanos() as u64,
                        inserted,
                    });
                }
                out.lock().expect("insert samples lock").extend(local);
            });
        }
        for conn in conns.iter_mut() {
            let (next, samples) = (&next, &samples);
            scope.spawn(move || {
                let mut local = Vec::new();
                while Instant::now() < deadline {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let query = if warmup {
                        inputs.warmup_query(i)
                    } else {
                        inputs.query(i)
                    };
                    let body = fasta(&query.id, &query.seq);
                    let t = Instant::now();
                    let answers = search_once(conn, addr, &body).map(|a| fingerprint(&a));
                    local.push(SearchSample {
                        query: i,
                        nanos: t.elapsed().as_nanos() as u64,
                        answers,
                    });
                }
                samples.lock().expect("search samples lock").extend(local);
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("search samples lock");
    samples.sort_by_key(|s| s.query);
    (samples, wall_s)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU count, as the standard library reports it.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Search connections for `workload`: one per CPU (at most two) on the
/// static workloads, and the one reader beside the writer on live_mixed.
pub fn search_clients(workload: Workload) -> usize {
    match workload {
        Workload::Homology | Workload::Screen => host_cpus().clamp(1, 2),
        Workload::LiveMixed => 1,
    }
}

/// Convert an in-process outcome to the answers the server would send.
pub fn answers_of(outcome: &SearchOutcome) -> Vec<Answer> {
    outcome
        .results
        .iter()
        .map(|r| Answer {
            record: r.record,
            score: r.score,
            strand: match r.strand {
                Strand::Forward => b'+',
                Strand::Reverse => b'-',
                Strand::Both => b'?',
            },
        })
        .collect()
}

/// Share of `family`'s members (capped at 10) among the top 10 answers.
fn recall(inputs: &Inputs, family: usize, answers: &[Answer]) -> f64 {
    let members = &inputs.families[family];
    let top: Vec<u32> = answers.iter().take(10).map(|a| a.record).collect();
    let found = members.iter().filter(|m| top.contains(m)).count();
    found.min(10) as f64 / members.len().clamp(1, 10) as f64
}

/// Reference answers for `queries` from an in-memory build of
/// `records[..count]`, searched on all CPUs.
fn reference(inputs: &Inputs, count: usize, queries: &[u64]) -> Result<Vec<Vec<Answer>>, String> {
    let db = Database::build(inputs.records[..count].iter().cloned(), &inputs.config);
    let seqs: Vec<_> = queries.iter().map(|&i| inputs.query(i).seq).collect();
    let outcomes = db
        .search_batch_parallel(&seqs, &inputs.params, host_cpus())
        .map_err(err)?;
    Ok(outcomes.iter().map(answers_of).collect())
}

/// Warm up, run the timed closed loop for `run_for`, then check every
/// answer. The deployment keeps running; [`finish`] stops it.
pub fn run(
    inputs: &Inputs,
    deployment: &Deployment,
    run_for: Duration,
) -> Result<ServedResult, String> {
    let addr = deployment.addr();
    let clients = search_clients(inputs.workload);
    let live = inputs.workload == Workload::LiveMixed;

    let mut conns: Vec<Option<Conn>> = (0..clients).map(|_| None).collect();
    search_loop(inputs, addr, &mut conns, WARMUP, true, None);
    let insert_samples = Mutex::new(Vec::new());
    let (searches, wall_s) = search_loop(
        inputs,
        addr,
        &mut conns,
        run_for,
        false,
        live.then_some(&insert_samples),
    );
    let mut result = ServedResult {
        wall_s,
        peak_rss_mb: peak_rss_mb(),
        searches,
        inserts: insert_samples.into_inner().expect("insert samples lock"),
        ..ServedResult::default()
    };

    if live {
        check_live(inputs, deployment, &mut result)?;
    } else {
        check_static(inputs, &mut result)?;
    }
    Ok(result)
}

/// Stop the deployment and weigh what it left on disk.
pub fn finish(
    inputs: &Inputs,
    deployment: Deployment,
    result: &mut ServedResult,
) -> Result<(), String> {
    let dir = deployment.dir.clone();
    if let Backend::Live(live) = deployment.stop() {
        // Fold every segment into one before weighing the directory, so
        // the figure does not depend on how far background compaction
        // got when the run ended.
        drop(live);
        let opts = LiveOptions {
            max_segments: 1,
            ..LiveOptions::default()
        };
        LiveDatabase::open(&dir, opts)
            .and_then(|live| live.compact_all())
            .map_err(err)?;
    }
    let bases = inputs.bases(0..inputs.initial + result.inserted()).max(1) as f64;
    let per_base = |suffix: &str| dir_bytes(&dir, suffix) as f64 / bases;
    result.disk_bytes_per_base = per_base("");
    result.index_bytes_per_base = per_base(".nucidx");
    result.store_bytes_per_base = per_base(".nucsto");
    Ok(())
}

/// Static workloads: compare every answered query with an in-memory
/// build of the same records.
fn check_static(inputs: &Inputs, result: &mut ServedResult) -> Result<(), String> {
    let answered: Vec<&SearchSample> = result
        .searches
        .iter()
        .filter(|s| s.answers.is_ok())
        .collect();
    let ids: Vec<u64> = answered.iter().map(|s| s.query).collect();
    let expected = reference(inputs, inputs.records.len(), &ids)?;
    let mut recalls = Vec::new();
    for (sample, want) in answered.iter().zip(&expected) {
        result.checked += 1;
        if sample.answers.as_ref().ok() != Some(&fingerprint(want)) {
            result.mismatches += 1;
        }
        if sample.query < RECALL_QUERIES {
            if let Some(f) = inputs.query(sample.query).family {
                recalls.push(recall(inputs, f, want));
            }
        }
    }
    result.recall_at_10 = mean(&recalls);
    Ok(())
}

/// live_mixed: answers during the timed phase come from moving
/// snapshots, so they are only required to parse. After a final
/// `/flush`, the first [`RECALL_QUERIES`] queries are searched again and
/// compared with a from-scratch build of every record the server holds.
/// How many records that is depends on the host's speed, so
/// `recall_at_10` is scored on a build of the initial records instead,
/// which hold every family member: a pure function of the seed.
fn check_live(
    inputs: &Inputs,
    deployment: &Deployment,
    result: &mut ServedResult,
) -> Result<(), String> {
    match request_close(deployment.addr(), "POST", "/flush", b"") {
        Ok((200, _)) => {}
        _ => result.check_failures += 1,
    }
    let held = inputs.initial + result.inserted();
    let ids: Vec<u64> = (0..RECALL_QUERIES).collect();
    let expected = reference(inputs, held, &ids)?;
    let initial = reference(inputs, inputs.initial, &ids)?;
    let mut conn = None;
    let mut recalls = Vec::new();
    for ((&i, want), scored) in ids.iter().zip(&expected).zip(&initial) {
        let query = inputs.query(i);
        match search_once(&mut conn, deployment.addr(), &fasta(&query.id, &query.seq)) {
            Ok(got) => {
                result.checked += 1;
                if &got != want {
                    result.mismatches += 1;
                }
            }
            Err(_) => result.check_failures += 1,
        }
        if let Some(f) = query.family {
            recalls.push(recall(inputs, f, scored));
        }
    }
    result.recall_at_10 = mean(&recalls);
    Ok(())
}
