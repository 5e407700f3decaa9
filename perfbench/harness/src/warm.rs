//! The `sweep_resume` work: warm resume passes over a cell store that a
//! cold `diversim sweep --all --fast` filled, each checked byte for byte
//! against the cold pass's result files, plus the benchmark-owned cell
//! executor the traced run times the store with.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diversim_bench::registry;
use diversim_bench::spec::Profile;
use diversim_bench::sweep::{
    sweep_experiment, CellExecutor, CellId, CellLoad, CellScope, CellStore, SweepOptions,
};

use crate::probe;
use crate::spans::{process_cpu_s, Trace};

/// The profile every sweep of the benchmark runs under.
pub const PROFILE: Profile = Profile::Fast;

/// The result files (`<name>.json`, `<name>.csv`) of every registered
/// experiment, in registry order.
pub type Outputs = Vec<(String, String)>;

/// Reads the result files a cold `diversim sweep --out DIR` wrote.
///
/// # Errors
///
/// Any missing or unreadable result file.
pub fn read_outputs(dir: &Path) -> io::Result<Outputs> {
    registry::all()
        .iter()
        .map(|spec| {
            let read =
                |ext: &str| std::fs::read_to_string(dir.join(format!("{}.{ext}", spec.name)));
            Ok((read("json")?, read("csv")?))
        })
        .collect()
}

/// Warm passes in one round of `sweep_resume`: about a second of work.
pub const PASSES: usize = 250;

/// Passes between two host-speed probes: ~0.1 s, shorter than the
/// host's speed phases.
pub const CHUNK: usize = 25;

/// What a series of warm passes did.
#[derive(Debug, Default)]
pub struct WarmReport {
    /// Wall time of each pass, in nanoseconds.
    pub pass_ns: Vec<u64>,
    /// The host-speed probe, in seconds, before the first pass and after
    /// every [`CHUNK`] passes and the last.
    pub probe_s: Vec<f64>,
    /// Process CPU seconds across all passes, probes excluded.
    pub cpu_s: f64,
    /// Cells the experiments declared (one load each).
    pub loads: u64,
    /// Loads served as verified hits.
    pub hits: u64,
    /// Loads found corrupt.
    pub corrupt: u64,
    /// Result files produced (JSON and CSV per experiment and pass).
    pub outputs: u64,
    /// Result files that differ from the cold pass's.
    pub mismatches: u64,
}

/// Runs `passes` warm resume passes of every registered experiment
/// against `store` and checks each pass's outputs against `cold`.
pub fn warm_passes(store: &CellStore, cold: &Outputs, passes: usize) -> WarmReport {
    let specs = registry::all();
    let opts = SweepOptions {
        profile: PROFILE,
        threads: crate::THREADS,
        shard: None,
        resume: true,
        quiet: true,
    };
    let mut report = WarmReport::default();
    report.probe_s.push(probe::seconds());
    for first in (0..passes).step_by(CHUNK) {
        let cpu = process_cpu_s();
        for _ in first..passes.min(first + CHUNK) {
            let started = Instant::now();
            let runs: Vec<_> = specs
                .iter()
                .map(|spec| sweep_experiment(spec, store, &opts))
                .collect();
            report
                .pass_ns
                .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            for (run, (json, csv)) in runs.iter().zip(cold) {
                report.loads += run.stats.declared();
                report.hits += run.stats.hits;
                report.corrupt += run.stats.corrupt;
                report.outputs += 2;
                report.mismatches +=
                    u64::from(run.outcome.json != *json) + u64::from(run.outcome.csv != *csv);
            }
        }
        report.cpu_s += process_cpu_s() - cpu;
        report.probe_s.push(probe::seconds());
    }
    report
}

/// Counters a [`TimedStore`] shares with the code that installed it.
#[derive(Debug, Default)]
pub struct StoreLog {
    /// `sweep.load`, `sweep.save` and `engine.cell` spans.
    pub trace: Trace,
    /// Loads that returned a verified payload.
    pub hits: u64,
    /// Loads that found a corrupt file.
    pub corrupt: u64,
}

/// The benchmark's own cell executor: the store policy of an unsharded
/// `diversim sweep` (serve verified hits when resuming, otherwise
/// compute and persist), with a span around every `CellStore::load`,
/// compute closure and `CellStore::save`.
#[derive(Debug)]
pub struct TimedStore {
    /// The store cells are loaded from and saved to.
    pub store: CellStore,
    /// Serve verified cached cells instead of recomputing them.
    pub resume: bool,
    /// Where spans and counters go.
    pub log: Arc<Mutex<StoreLog>>,
    /// Operation id stamped on every span.
    pub op: u64,
}

impl CellExecutor for TimedStore {
    fn execute(
        &mut self,
        id: &CellId,
        scope: &CellScope,
        compute: &mut dyn FnMut(&CellScope) -> Vec<f64>,
    ) -> Option<Vec<f64>> {
        let mut log = self.log.lock().expect("store log poisoned");
        if self.resume {
            let start = log.trace.now_ns();
            let loaded = self.store.load(id);
            let end = log.trace.now_ns();
            log.trace.record("sweep.load", None, self.op, start, end);
            match loaded {
                CellLoad::Hit(values) => {
                    log.hits += 1;
                    return Some(values);
                }
                CellLoad::Corrupt(_) => log.corrupt += 1,
                CellLoad::Miss => {}
            }
        }
        let values = log
            .trace
            .time("engine.cell", None, self.op, || compute(scope));
        let saved = log
            .trace
            .time("sweep.save", None, self.op, || self.store.save(id, &values));
        saved.expect("the benchmark's cell store must be writable");
        Some(values)
    }
}
