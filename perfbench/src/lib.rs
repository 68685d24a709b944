//! The nucdb benchmark: seeded workloads served over loopback HTTP,
//! with end-to-end metrics from an untraced closed loop and per-layer
//! metrics from a separate traced pass over the layers' public calls.

pub mod client;
pub mod gen;
pub mod layers;
pub mod report;
pub mod served;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::Duration;

use gen::{Inputs, Size, Workload};
use report::{complete_layers, Metric, END_TO_END};

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Input sizes.
    pub size: Size,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Add the traced per-layer pass.
    pub trace: bool,
}

/// What one run measured.
pub struct RunReport {
    /// The untraced served phase.
    pub served: served::ServedResult,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Every per-layer metric (traced runs only).
    pub layers: Option<Vec<Metric>>,
    /// Operations attempted, checks included.
    pub attempted: usize,
    /// Operations that failed or answered wrongly.
    pub failed: usize,
}

impl RunReport {
    /// The end-to-end metrics, in catalogue order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let s = &self.served;
        let values = [
            self.setup_s,
            s.search_qps(),
            s.search_latency_ms().p50,
            s.recall_at_10,
            s.disk_bytes_per_base,
            s.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, unit, value))
            .collect()
    }

    /// A per-layer metric's value (0 when not measured).
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .flatten()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Run one workload with its working files under `root`, which is left
/// holding only the traced run's span file.
pub fn run(config: &RunConfig, root: &Path) -> Result<RunReport, String> {
    let inputs = Inputs::generate(config.workload, config.size, config.seed);
    let name = config.workload.name();
    println!(
        "workload {name} seed {} | {} records, {} bases | host_cpus {} | search clients {}",
        config.seed,
        inputs.records.len(),
        inputs.bases(0..inputs.records.len()),
        served::host_cpus(),
        served::search_clients(config.workload),
    );
    let work = root.join(format!("work-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = (|| {
        let deployment = served::deploy(&inputs, &work.join("served"))?;
        let mut setups = vec![deployment.setup_s];
        let mut outcome = served::run(&inputs, &deployment, config.seconds)?;
        let traced = if config.trace {
            let spans = root.join(format!("spans-{name}.jsonl"));
            Some(layers::run(&inputs, &deployment, &outcome, &work, &spans)?)
        } else {
            None
        };
        served::finish(&inputs, deployment, &mut outcome)?;
        setups.extend(served::more_setups(&inputs, &work, served::SETUPS - 1)?);
        Ok::<_, String>((stats::median(&setups), outcome, traced))
    })();
    let _ = std::fs::remove_dir_all(&work);
    let (setup_s, served, traced) = result?;
    let mut attempted = served.attempted();
    let mut failed = served.failed();
    let layers = traced.map(|(mut measured, check)| {
        attempted += check.checked;
        failed += check.failed;
        // Weighed by `finish`, after live_mixed's segments are folded, so
        // the split adds up to `disk_bytes_per_base`.
        measured.extend([
            Metric::new(
                "index.bytes_per_base",
                "B/base",
                served.index_bytes_per_base,
            ),
            Metric::new(
                "store.bytes_per_base",
                "B/base",
                served.store_bytes_per_base,
            ),
        ]);
        complete_layers(&measured)
    });
    Ok(RunReport {
        served,
        setup_s,
        layers,
        attempted,
        failed,
    })
}
