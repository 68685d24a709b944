//! `search`, `stat` and `fsck` over every directory layout the CLI
//! accepts: a plain index/store pair, a live directory (segment
//! manifest) and a sharded root (SHARDS manifest). Each test builds the
//! three layouts from one synthetic collection and drives the real
//! binary, so exit codes, stderr warnings, `STAT.json` and
//! `fsck --json` documents are checked exactly as a user sees them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nucdb_obs::json::{self, Value};

static DIR_NONCE: AtomicU64 = AtomicU64::new(0);

/// One collection built three ways, under a private temp directory.
struct Layouts {
    dir: PathBuf,
}

impl Layouts {
    /// Generate a small collection and build it as a plain database
    /// (`plain/`), a three-shard root (`sharded/`) and a live directory
    /// of several flushed segments (`live/`).
    fn new(name: &str) -> Layouts {
        let dir = std::env::temp_dir().join(format!(
            "nucdb_cli_layouts_{name}_{}_{}",
            std::process::id(),
            DIR_NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let layouts = Layouts { dir };
        let fasta = layouts.path("coll.fasta");
        let queries = layouts.path("queries.fasta");
        ok(&nucdb(&[
            "generate",
            "--bases",
            "60000",
            "--seed",
            "5",
            "--out",
            &fasta,
            "--queries-out",
            &queries,
        ]));
        // Two queries keep the e-value calibration cheap in debug builds.
        let text = std::fs::read_to_string(&queries).unwrap();
        let kept: Vec<&str> = text.split_inclusive('>').take(3).collect();
        std::fs::write(&queries, kept.concat().trim_end_matches('>')).unwrap();
        ok(&nucdb(&[
            "build",
            "--collection",
            &fasta,
            "--db",
            &layouts.path("plain"),
        ]));
        ok(&nucdb(&[
            "build",
            "--collection",
            &fasta,
            "--db",
            &layouts.path("sharded"),
            "--shards",
            "3",
        ]));
        ok(&nucdb(&[
            "ingest",
            "--collection",
            &fasta,
            "--db",
            &layouts.path("live"),
            "--batch",
            "10",
            "--memtable-max-records",
            "20",
        ]));
        layouts
    }

    fn path(&self, rel: &str) -> String {
        self.dir.join(rel).to_str().unwrap().to_string()
    }

    /// `nucdb search --tabular --both-strands --evalue` over `db`.
    fn search(&self, db: &str) -> Output {
        nucdb(&[
            "search",
            "--db",
            &self.path(db),
            "--query",
            &self.path("queries.fasta"),
            "--tabular",
            "--both-strands",
            "--evalue",
        ])
    }

    /// `nucdb stat` over `db`, returning the parsed `STAT.json`.
    fn stat(&self, db: &str) -> Value {
        let out = self.path(&format!("stat-{db}"));
        ok(&nucdb(&["stat", "--db", &self.path(db), "--out", &out]));
        let text = std::fs::read_to_string(Path::new(&out).join("STAT.json")).unwrap();
        json::parse(&text).unwrap()
    }

    /// `nucdb fsck --json` over `db`: exit code and parsed document.
    fn fsck(&self, db: &str) -> (i32, Value) {
        let output = nucdb(&["fsck", "--db", &self.path(db), "--json"]);
        let code = output.status.code().expect("fsck exited by signal");
        let doc = json::parse(String::from_utf8_lossy(&output.stdout).trim()).unwrap();
        (code, doc)
    }
}

impl Drop for Layouts {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn nucdb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nucdb"))
        .args(args)
        .output()
        .unwrap()
}

fn ok(output: &Output) {
    assert!(
        output.status.success(),
        "nucdb failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// The member names of a JSON object, in order.
fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Arr(items)) => items,
        other => panic!("expected an array under {key:?}, got {other:?}"),
    }
}

fn number(value: &Value, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number under {key:?}"))
}

#[test]
fn search_answers_identically_over_every_layout() {
    let layouts = Layouts::new("search");
    let plain = layouts.search("plain");
    ok(&plain);
    assert!(stdout(&plain).lines().count() > 4, "too few answers");
    for db in ["live", "sharded"] {
        let other = layouts.search(db);
        ok(&other);
        assert_eq!(stdout(&other), stdout(&plain), "{db} answers differ");
        assert!(stderr(&other).is_empty(), "{db}: {}", stderr(&other));
    }

    // The human-readable header names the layout.
    let text = nucdb(&[
        "search",
        "--db",
        &layouts.path("sharded"),
        "--query",
        &layouts.path("queries.fasta"),
    ]);
    ok(&text);
    assert!(stdout(&text).starts_with("sharded database: 58 records across 3 shards\n"));
    assert!(stdout(&text).contains("answers from 3/3 shards"));
    let text = nucdb(&[
        "search",
        "--db",
        &layouts.path("live"),
        "--query",
        &layouts.path("queries.fasta"),
    ]);
    ok(&text);
    assert!(stdout(&text).starts_with("database: 58 records\n"));
}

#[test]
fn sharded_search_warns_when_a_shard_is_lost() {
    let layouts = Layouts::new("coverage");
    let victim = layouts.dir.join("sharded/shard-001/index.nucidx");
    let bytes = std::fs::read(&victim).unwrap();
    std::fs::write(&victim, &bytes[..8]).unwrap();

    let output = layouts.search("sharded");
    ok(&output);
    let warnings = stderr(&output);
    assert!(
        warnings.contains("warning: shard-001 (19 records) is unavailable"),
        "{warnings}"
    );
    // One warning per query, each naming the coverage and the cause.
    let per_query: Vec<&str> = warnings
        .lines()
        .filter(|l| l.contains("answered by 2/3 shards (shard-001: "))
        .collect();
    assert_eq!(per_query.len(), 2, "{warnings}");
    assert!(stdout(&output).lines().count() > 1);
}

#[test]
fn explain_is_refused_over_a_sharded_root() {
    let layouts = Layouts::new("explain");
    let output = nucdb(&[
        "search",
        "--db",
        &layouts.path("sharded"),
        "--query",
        &layouts.path("queries.fasta"),
        "--explain",
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("--explain is not supported over a sharded root"));
}

#[test]
fn per_database_observability_is_refused_over_a_sharded_root() {
    let layouts = Layouts::new("obsflags");
    let sharded = layouts.path("sharded");
    let queries = layouts.path("queries.fasta");
    let trace = layouts.path("t.jsonl");
    let slow_log = layouts.path("slow.jsonl");
    // The first option of each set is the one the error names.
    let option_sets: [&[&str]; 6] = [
        &["--trace", &trace],
        &["--trace", &trace, "--trace-sample", "2"],
        &["--flight-recorder", "8"],
        &["--slow-ms", "1"],
        &["--slow-log", &slow_log],
        &["--slow-log", &slow_log, "--slow-log-max-bytes", "4096"],
    ];
    for options in option_sets {
        let mut args = vec!["search", "--db", &sharded, "--query", &queries];
        args.extend_from_slice(options);
        let output = nucdb(&args);
        assert_eq!(output.status.code(), Some(1), "{options:?}");
        let expected = format!("{} is not supported over a sharded root", options[0]);
        assert!(stderr(&output).contains(&expected), "{}", stderr(&output));
    }
    assert!(!Path::new(&trace).exists());
    assert!(!Path::new(&slow_log).exists());

    // serve refuses them too, instead of serving without them.
    let mut child = Command::new(env!("CARGO_BIN_EXE_nucdb"))
        .args(["serve", "--db", &sharded, "--addr", "127.0.0.1:0"])
        .args(["--trace", &trace])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("serve --trace kept serving a sharded root");
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let output = child.wait_with_output().unwrap();
    assert_eq!(status.code(), Some(1));
    assert!(stderr(&output).contains("--trace is not supported over a sharded root"));
    assert!(!Path::new(&trace).exists());

    // --metrics is not per-database and keeps working.
    let metrics = layouts.path("m.prom");
    ok(&nucdb(&[
        "search",
        "--db",
        &sharded,
        "--query",
        &queries,
        "--metrics",
        &metrics,
    ]));
    assert!(std::fs::read_to_string(&metrics)
        .unwrap()
        .contains("nucdb_shard_"));
}

#[test]
fn stat_reports_every_layout() {
    let layouts = Layouts::new("stat");

    let plain = layouts.stat("plain");
    assert_eq!(keys(&plain), ["index", "store"]);

    let live = layouts.stat("live");
    assert_eq!(
        keys(&live),
        [
            "manifest_version",
            "segment_count",
            "records",
            "bytes",
            "orphans",
            "segments"
        ]
    );
    assert_eq!(number(&live, "segment_count"), 3.0);
    assert_eq!(number(&live, "records"), 58.0);
    let segments = array(&live, "segments");
    assert_eq!(segments.len(), 3);
    for seg in segments {
        assert_eq!(keys(seg), ["id", "records", "report"]);
        assert_eq!(keys(seg.get("report").unwrap()), ["index", "store"]);
    }

    let sharded = layouts.stat("sharded");
    assert_eq!(keys(&sharded), ["shard_count", "records", "shards"]);
    assert_eq!(number(&sharded, "shard_count"), 3.0);
    assert_eq!(number(&sharded, "records"), 58.0);
    let shards = array(&sharded, "shards");
    let bases: Vec<f64> = shards.iter().map(|s| number(s, "record_base")).collect();
    assert_eq!(bases, [0.0, 19.0, 38.0]);
    for shard in shards {
        assert_eq!(keys(shard), ["shard", "records", "record_base", "report"]);
    }

    // A shard that will not open is reported in place, not fatally.
    let victim = layouts.dir.join("sharded/shard-002/store.nucsto");
    std::fs::remove_file(victim).unwrap();
    let damaged = layouts.stat("sharded");
    let shards = array(&damaged, "shards");
    assert_eq!(
        keys(&shards[2]),
        ["shard", "records", "record_base", "error"]
    );
    assert_eq!(
        keys(&shards[0]),
        ["shard", "records", "record_base", "report"]
    );
}

#[test]
fn fsck_walks_every_layout() {
    let layouts = Layouts::new("fsck");

    let (code, plain) = layouts.fsck("plain");
    assert_eq!(code, 0);
    assert_eq!(
        keys(&plain),
        [
            "clean",
            "exit_code",
            "lists_checked",
            "records_checked",
            "bytes_verified",
            "findings"
        ]
    );

    let (code, live) = layouts.fsck("live");
    assert_eq!(code, 0);
    assert_eq!(keys(&live), ["manifest_version", "orphans", "segments"]);
    let segments = array(&live, "segments");
    assert_eq!(segments.len(), 3);
    for seg in segments {
        assert_eq!(keys(seg), ["id", "report"]);
    }
    assert!(array(&live, "orphans").is_empty());

    let (code, sharded) = layouts.fsck("sharded");
    assert_eq!(code, 0);
    assert_eq!(keys(&sharded), ["shard_count", "exit_code", "shards"]);
    for shard in array(&sharded, "shards") {
        assert_eq!(keys(shard), ["shard", "exit_code", "report"]);
    }
}

#[test]
fn fsck_flags_live_orphans() {
    let layouts = Layouts::new("orphans");
    let live = layouts.dir.join("live");
    std::fs::copy(
        live.join("seg-000000.nucidx"),
        live.join("seg-000099.nucidx"),
    )
    .unwrap();
    let (code, doc) = layouts.fsck("live");
    assert_eq!(code, 1);
    let orphans: Vec<&str> = array(&doc, "orphans")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(orphans, ["seg-000099.nucidx"]);

    // A segment file the manifest names but the directory lacks is
    // structural damage.
    std::fs::remove_file(live.join("seg-000001.nucsto")).unwrap();
    let output = nucdb(&["fsck", "--db", &layouts.path("live")]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("fsck: segment store"));
}

#[test]
fn fsck_cross_checks_shard_record_counts() {
    let layouts = Layouts::new("shardcount");
    let root = layouts.dir.join("sharded");
    // shard-002 holds 20 records; the manifest gives shard-000 19.
    std::fs::copy(
        root.join("shard-002/index.nucidx"),
        root.join("shard-000/index.nucidx"),
    )
    .unwrap();
    let output = nucdb(&["fsck", "--db", &layouts.path("sharded")]);
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output)
            .contains("fsck: shard-000 holds 20 records but the SHARDS manifest says 19"),
        "{}",
        stderr(&output)
    );

    // Worst shard wins: a missing store file is structural.
    std::fs::remove_file(root.join("shard-001/store.nucsto")).unwrap();
    let (code, doc) = layouts.fsck("sharded");
    assert_eq!(code, 2);
    assert_eq!(number(&doc, "exit_code"), 2.0);
    let codes: Vec<f64> = array(&doc, "shards")
        .iter()
        .map(|s| number(s, "exit_code"))
        .collect();
    assert_eq!(codes, [1.0, 2.0, 0.0]);
}

#[test]
fn mismatched_files_are_an_error_not_a_panic() {
    let layouts = Layouts::new("mismatch");
    std::fs::copy(
        layouts.dir.join("sharded/shard-002/store.nucsto"),
        layouts.dir.join("plain/store.nucsto"),
    )
    .unwrap();
    let output = layouts.search("plain");
    assert_eq!(output.status.code(), Some(1));
    assert!(
        stderr(&output).contains("index.nucidx holds 58 records but store.nucsto holds 20"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn damaged_shards_manifest_will_not_load() {
    let layouts = Layouts::new("shardsfile");
    let manifest = layouts.dir.join("sharded/SHARDS");
    let pristine = std::fs::read(&manifest).unwrap();
    let mut flipped = pristine.clone();
    *flipped.last_mut().unwrap() ^= 0x01;
    let truncated = pristine[..pristine.len() - 1].to_vec();
    let will_not_load = format!(
        "SHARDS manifest in {} will not load",
        layouts.path("sharded")
    );

    for damaged in [flipped, truncated] {
        std::fs::write(&manifest, &damaged).unwrap();
        let fsck = nucdb(&["fsck", "--db", &layouts.path("sharded")]);
        assert_eq!(fsck.status.code(), Some(2), "{}", stderr(&fsck));
        assert!(stderr(&fsck).contains(&will_not_load), "{}", stderr(&fsck));

        let stat = nucdb(&[
            "stat",
            "--db",
            &layouts.path("sharded"),
            "--out",
            &layouts.path("stat-damaged"),
        ]);
        assert_eq!(stat.status.code(), Some(1), "{}", stderr(&stat));
        assert!(stderr(&stat).contains(&will_not_load), "{}", stderr(&stat));

        let search = layouts.search("sharded");
        assert_eq!(search.status.code(), Some(1), "{}", stderr(&search));
        assert!(
            stderr(&search).contains(&will_not_load),
            "{}",
            stderr(&search)
        );
    }
}
