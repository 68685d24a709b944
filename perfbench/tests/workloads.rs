//! The benchmark's own checks: seeded inputs repeat exactly, every
//! workload runs clean at a tiny size, each workload loads the layers it
//! exists for, and `BENCHMARK.json` lists the metric catalogue.

use std::path::PathBuf;
use std::time::Duration;

use nucdb_perfbench::gen::{Inputs, Size, Workload};
use nucdb_perfbench::{run, RunConfig, RunReport};

fn smoke(workload: Workload) -> RunReport {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let config = RunConfig {
        workload,
        size: Size::tiny(),
        seed: 7,
        seconds: Duration::from_secs(1),
        trace: true,
    };
    run(&config, &root).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn inputs_are_identical_for_a_seed() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, Size::tiny(), 5);
        let b = Inputs::generate(workload, Size::tiny(), 5);
        let c = Inputs::generate(workload, Size::tiny(), 6);
        let text = |inputs: &Inputs| -> Vec<(String, Vec<u8>)> {
            inputs
                .records
                .iter()
                .map(|(id, seq)| (id.clone(), seq.to_ascii_vec()))
                .collect()
        };
        assert_eq!(text(&a), text(&b), "{}", workload.name());
        assert_ne!(text(&a), text(&c), "{}", workload.name());
        assert_eq!(a.families, b.families);
        assert_eq!(a.initial, b.initial);
        assert_eq!(a.params, b.params);
        for i in 0..50 {
            let (qa, qb) = (a.query(i), b.query(i));
            assert_eq!(qa.id, qb.id);
            assert_eq!(qa.seq.to_ascii_vec(), qb.seq.to_ascii_vec());
            assert_eq!(qa.family, qb.family);
            assert_ne!(
                qa.seq.to_ascii_vec(),
                a.query(i + 1).seq.to_ascii_vec(),
                "queries are distinct within a run"
            );
        }
    }
}

#[test]
fn tiny_runs_are_clean_and_load_the_layers_they_claim() {
    let reports: Vec<(Workload, RunReport)> =
        Workload::ALL.into_iter().map(|w| (w, smoke(w))).collect();
    let get = |w: Workload| &reports.iter().find(|(x, _)| *x == w).expect("ran").1;
    for (workload, report) in &reports {
        let name = workload.name();
        assert_eq!(report.failed, 0, "{name}: failed operations");
        assert!(report.served.checked > 0, "{name}: no answers checked");
        assert_eq!(report.layer("serve.error_rate"), 0.0, "{name}");
        for metric in report.end_to_end() {
            assert!(metric.value > 0.0, "{name}: {} is 0", metric.name);
        }
        // The layer self times plus the unattributed share account for
        // the whole traced engine time.
        let unattributed = report.layer("obs.unattributed_share");
        assert!(
            (0.0..0.05).contains(&unattributed),
            "{name}: {unattributed}"
        );
    }
    let (homology, screen) = (get(Workload::Homology), get(Workload::Screen));
    assert!(
        homology.layer("fine.share") > screen.layer("fine.share"),
        "fine share: homology {} vs screen {}",
        homology.layer("fine.share"),
        screen.layer("fine.share")
    );
    assert!(
        screen.layer("index.blocks_skipped") > 0.0,
        "screen skips blocks"
    );
    assert_eq!(homology.layer("index.blocks_skipped"), 0.0);
    let live = get(Workload::LiveMixed);
    assert!(live.layer("segment.flushes") >= 2.0);
    assert!(live.layer("segment.compaction_runs") >= 1.0);
    assert!(live.layer("segment.parts_per_query") >= 2.0);
    assert!(live.layer("serve.ingest_rps") > 0.0);
    assert!(screen.layer("shard.search_us") > 0.0);
    for (workload, report) in &reports {
        if *workload != Workload::LiveMixed {
            assert_eq!(report.layer("segment.flushes"), 0.0);
        }
        if *workload != Workload::Screen {
            assert_eq!(report.layer("shard.search_us"), 0.0);
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    use nucdb_obs::json::{parse, Value};
    use nucdb_perfbench::report::{END_TO_END, PER_LAYER};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Value::Arr(entries)) = doc.get(key) else {
            panic!("no {key} array");
        };
        entries
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(END_TO_END));
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|l| (l.0, l.1)).collect();
    assert_eq!(listed("per_layer"), own(&per_layer));
    let Some(Value::Arr(workloads)) = doc.get("workloads") else {
        panic!("no workloads array");
    };
    let names: Vec<&str> = workloads
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
