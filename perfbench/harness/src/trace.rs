//! The traced run: every workload's work once more, in process, with a
//! span around each call into a layer's public functions, plus the
//! campaign stage replay. Each phase first runs its work untraced, so
//! the run reports its own overhead per workload.
//!
//! Spans are kept in memory and written to `<work>/spans.tsv` at the
//! end; the per-layer metrics are sums over them.

use std::collections::HashSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diversim_bench::engine::{run_experiment, run_experiment_with_cells};
use diversim_bench::json;
use diversim_bench::registry;
use diversim_bench::serve::cache::WorldCache;
use diversim_bench::serve::request::RequestKind;
use diversim_bench::serve::{EvaluationRequest, EvaluationResponse, EvaluationService};
use diversim_bench::spec::Profile;
use diversim_bench::sweep::CellStore;
use diversim_sim::prepared::Prepared;

use crate::client::{answers, digest};
use crate::mix::{self, CLASSES};
use crate::replay::{self, bit_identical, REGIMES};
use crate::spans::{process_cpu_s, Trace};
use crate::warm::{self, Outputs, StoreLog, TimedStore, PROFILE};
use crate::THREADS;

/// The world-cache capacity of `diversim serve` (its `--cache` default).
pub const SERVE_CACHE: usize = 8;

/// Untraced warm passes: the pass-latency samples, enough for a p99
/// with 10 samples beyond it.
const WARM_PLAIN: usize = 1000;

/// Traced warm passes.
const WARM_TRACED: usize = 100;

/// Replayed campaigns per world and regime.
const CAMPAIGNS: u64 = 2000;

/// What the traced run does.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload seed (drives the serve schedule).
    pub seed: u64,
    /// Scratch directory: the traced cell store and `spans.tsv`.
    pub work: PathBuf,
}

/// Everything the traced run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-layer metrics, by name.
    pub metrics: Vec<(String, f64)>,
    /// Raw samples for the percentiles the caller derives, in ms.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Checked outcomes (checks, result files, responses, campaigns).
    pub attempted: u64,
    /// Checked outcomes that were wrong.
    pub failed: u64,
    /// Digest of the in-process serve replay's responses, in the order
    /// the TCP round's digest folds them.
    pub serve_digest: String,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn check(&mut self, ok: bool) {
        self.tally(1, u64::from(!ok));
    }

    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Runs every phase and writes the spans.
///
/// # Errors
///
/// File-system errors on the work directory.
pub fn run(cfg: &Config) -> io::Result<Report> {
    std::fs::create_dir_all(&cfg.work)?;
    let mut master = Trace::default();
    let mut report = Report::default();
    reproduce(&mut master, &mut report);
    sweep(cfg, &mut master, &mut report)?;
    serve(cfg, &mut master, &mut report);
    stages(&mut master, &mut report);
    report.metric("trace.spans", master.spans().len() as f64);
    master.write_tsv(&cfg.work.join("spans.tsv"))?;
    Ok(report)
}

/// `reproduce_full`: the 20 experiments at the full profile, each call
/// to `engine::run_experiment_with_cells` in an `engine.experiment`
/// span with the process CPU clock read around it.
fn reproduce(master: &mut Trace, report: &mut Report) {
    let specs = registry::all();
    let started = Instant::now();
    let plain: Vec<String> = specs
        .iter()
        .map(|spec| run_experiment(spec, Profile::Full, THREADS, true).json)
        .collect();
    let plain_s = started.elapsed().as_secs_f64();

    let mut trace = Trace::default();
    let phase = trace.open("reproduce_full", None, 0);
    for (spec, reference) in specs.iter().zip(&plain) {
        let op = u64::from(spec.id);
        let cpu = process_cpu_s();
        let start = trace.now_ns();
        let outcome = run_experiment_with_cells(spec, Profile::Full, THREADS, true, None);
        let end = trace.now_ns();
        let cpu_s = process_cpu_s() - cpu;
        let experiment = trace.record("engine.experiment", Some(phase), op, start, end);
        let body_end = start
            .saturating_add(outcome.wall.as_nanos() as u64)
            .min(end);
        trace.record("engine.render", Some(experiment), op, body_end, end);
        report.metric(
            format!("engine.experiment_s.{}", spec.slug),
            (end - start) as f64 * 1e-9,
        );
        report.metric(format!("engine.experiment_cpu_s.{}", spec.slug), cpu_s);
        for check in &outcome.checks {
            report.check(check.passed);
        }
        report.check(outcome.json == *reference);
    }
    trace.close(phase);
    let traced_s = trace.total_s("reproduce_full");
    report.metric(
        "trace.overhead_share.reproduce_full",
        traced_s / plain_s - 1.0,
    );
    master.absorb(trace, None);
}

/// One sweep pass of every experiment through a [`TimedStore`]: an
/// `engine.experiment` span per call, with the executor's load, compute
/// and save spans and an `engine.render` span beneath it.
fn traced_pass(store: &CellStore, resume: bool, op: u64) -> (Trace, StoreLog, Outputs) {
    let mut trace = Trace::default();
    let mut counts = StoreLog::default();
    let mut outputs = Vec::new();
    let pass = trace.open("sweep.pass", None, op);
    for spec in registry::all() {
        let log = Arc::new(Mutex::new(StoreLog::default()));
        let executor = TimedStore {
            store: store.clone(),
            resume,
            log: Arc::clone(&log),
            op,
        };
        let start = trace.now_ns();
        let outcome =
            run_experiment_with_cells(spec, PROFILE, THREADS, true, Some(Box::new(executor)));
        let end = trace.now_ns();
        let experiment = trace.record("engine.experiment", Some(pass), op, start, end);
        let body_end = start
            .saturating_add(outcome.wall.as_nanos() as u64)
            .min(end);
        trace.record("engine.render", Some(experiment), op, body_end, end);
        let log = Arc::try_unwrap(log)
            .expect("the engine drops its cell executor when the run ends")
            .into_inner()
            .expect("store log poisoned");
        counts.hits += log.hits;
        counts.corrupt += log.corrupt;
        trace.absorb(log.trace, Some(experiment));
        outputs.push((outcome.json, outcome.csv));
    }
    trace.close(pass);
    (trace, counts, outputs)
}

fn check_outputs(report: &mut Report, got: &Outputs, cold: &Outputs) {
    for ((json, csv), (cold_json, cold_csv)) in got.iter().zip(cold) {
        report.check(json == cold_json);
        report.check(csv == cold_csv);
    }
}

/// `sweep_resume`: a traced cold pass into a fresh store, untraced and
/// traced warm passes over it, and a parse probe over its cell files.
fn sweep(cfg: &Config, master: &mut Trace, report: &mut Report) -> io::Result<()> {
    let cells = cfg.work.join("cells");
    if cells.exists() {
        std::fs::remove_dir_all(&cells)?;
    }
    let store = CellStore::new(&cells);
    let (cold_trace, _, cold) = traced_pass(&store, false, 0);
    report.metric("engine.cells", cold_trace.count("engine.cell") as f64);
    report.metric("engine.cell_s", cold_trace.total_s("engine.cell"));
    report.metric("sweep.saves", cold_trace.count("sweep.save") as f64);
    report.metric("sweep.save_s", cold_trace.total_s("sweep.save"));
    master.absorb(cold_trace, None);

    let plain = warm::warm_passes(&store, &cold, WARM_PLAIN);
    report.tally(
        plain.loads + plain.outputs,
        plain.loads - plain.hits + plain.mismatches,
    );
    let mut plain_ms: Vec<f64> = plain.pass_ns.iter().map(|&ns| ms(ns)).collect();
    report
        .samples
        .push(("sweep.pass_ms".into(), plain_ms.clone()));

    let passes = WARM_TRACED;
    let mut warm = Trace::default();
    let (mut hits, mut corrupt) = (0, 0);
    let mut traced_ms = Vec::new();
    for p in 0..passes {
        let (trace, log, outputs) = traced_pass(&store, true, p as u64);
        traced_ms.push(trace.total_s("sweep.pass") * 1e3);
        hits += log.hits;
        corrupt += log.corrupt;
        check_outputs(report, &outputs, &cold);
        warm.absorb(trace, None);
    }
    let per_pass = |x: f64| x / passes as f64;
    let loads = warm.count("sweep.load");
    report.metric("sweep.loads", per_pass(loads as f64));
    report.metric("sweep.load_s", per_pass(warm.total_s("sweep.load")));
    report.metric("sweep.hit_ratio", hits as f64 / loads.max(1) as f64);
    report.metric("sweep.corrupt", (corrupt + plain.corrupt) as f64);
    report.metric("engine.render_s", per_pass(warm.total_s("engine.render")));
    report.metric("engine.glue_s", per_pass(warm.self_s("engine.experiment")));
    report.metric(
        "trace.overhead_share.sweep_resume",
        median(&mut traced_ms) / median(&mut plain_ms) - 1.0,
    );
    master.absorb(warm, None);

    let mut files = Vec::new();
    for entry in std::fs::read_dir(&cells)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "json") {
            files.push(std::fs::read_to_string(path)?);
        }
    }
    report.metric(
        "sweep.load_bytes",
        files.iter().map(|f| f.len() as f64).sum(),
    );
    let mut probe = Trace::default();
    for p in 0..passes {
        for text in &files {
            let parsed = probe.time("json.parse", None, p as u64, || json::parse(text));
            report.check(parsed.is_ok());
        }
    }
    report.metric("json.parse_s", per_pass(probe.total_s("json.parse")));
    master.absorb(probe, None);
    Ok(())
}

/// One scheduled request: connection, index, class, id and wire line.
struct Scheduled {
    connection: usize,
    index: u64,
    class: usize,
    id: String,
    line: String,
}

/// The serve schedule in arrival order: request `i` of every connection
/// before request `i + 1` of any.
fn schedule(cfg: &Config) -> Vec<Scheduled> {
    let mut out = Vec::new();
    for index in 0..mix::REQUESTS {
        for connection in 0..mix::CONNECTIONS {
            let (class, request) = mix::scheduled(cfg.seed, connection, index);
            out.push(Scheduled {
                connection,
                index,
                class,
                id: request.id.clone(),
                line: request.to_json(),
            });
        }
    }
    out
}

fn primed_service(cfg: &Config) -> EvaluationService {
    let service = EvaluationService::new(THREADS, SERVE_CACHE);
    for request in mix::priming(cfg.seed) {
        service.handle(&request);
    }
    service
}

/// `serve_mixed`, replayed in process: `EvaluationRequest::parse` →
/// `EvaluationService::handle` → `EvaluationResponse::to_json` per
/// request, then the cache counters and the cost of each world build.
fn serve(cfg: &Config, master: &mut Trace, report: &mut Report) {
    let schedule = schedule(cfg);
    let plain = || {
        let service = primed_service(cfg);
        let started = Instant::now();
        for request in &schedule {
            let response = match EvaluationRequest::parse(&request.line) {
                Ok(parsed) => service.handle(&parsed),
                Err(e) => EvaluationResponse::error(request.id.clone(), &e),
            };
            std::hint::black_box(response.to_json());
        }
        started.elapsed().as_secs_f64()
    };
    // Untraced replays before and after the traced one, so a drift in
    // host speed across the phase does not read as tracing overhead.
    let plain_before = plain();

    let service = primed_service(cfg);
    let mut trace = Trace::default();
    let phase = trace.open("serve_mixed", None, 0);
    let mut handle_ms = vec![Vec::new(); CLASSES.len()];
    let mut inproc_ms = Vec::new();
    let mut responses = Vec::new();
    for (k, request) in schedule.iter().enumerate() {
        let op = k as u64;
        let span = trace.open("serve.request", Some(phase), op);
        let parsed = trace.time("serve.decode", Some(span), op, || {
            EvaluationRequest::parse(&request.line)
        });
        let start = trace.now_ns();
        let response = match parsed {
            Ok(parsed) => service.handle(&parsed),
            Err(e) => EvaluationResponse::error(request.id.clone(), &e),
        };
        let end = trace.now_ns();
        trace.record("serve.handle", Some(span), op, start, end);
        let text = trace.time("serve.encode", Some(span), op, || response.to_json());
        trace.close(span);
        handle_ms[request.class].push(ms(end - start));
        let spans = trace.spans();
        inproc_ms.push(ms(spans[span].end_ns - spans[span].start_ns));
        report.check(answers(Some(&text), &request.id));
        responses.push(((request.connection, request.index), text));
    }
    trace.close(phase);
    let plain_s = (plain_before + plain()) / 2.0;
    report.metric("serve.decode_s", trace.total_s("serve.decode"));
    report.metric("serve.handle_s", trace.total_s("serve.handle"));
    report.metric("serve.encode_s", trace.total_s("serve.encode"));
    report.metric(
        "trace.overhead_share.serve_mixed",
        trace.total_s("serve_mixed") / plain_s - 1.0,
    );
    let stats = service.cache_stats();
    report.metric("serve.cache.hits", stats.hits as f64);
    report.metric("serve.cache.misses", stats.misses as f64);
    report.metric("serve.cache.evictions", stats.evictions as f64);
    report.metric(
        "serve.cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    for (class, samples) in CLASSES.iter().zip(handle_ms) {
        report
            .samples
            .push((format!("serve.handle_ms.{class}"), samples));
    }
    report.samples.push(("serve.inproc_ms".into(), inproc_ms));
    responses.sort_by_key(|(key, _)| *key);
    let digest = digest(responses.iter().map(|(_, text)| Some(text.as_str())));
    report.serve_digest = format!("{digest:016x}");
    master.absorb(trace, None);

    // World builds: a fresh cache per distinct world, so every get builds.
    let mut seen = HashSet::new();
    let mut builds = Trace::default();
    let worlds = mix::priming(cfg.seed)
        .into_iter()
        .chain(
            schedule
                .iter()
                .map(|s| EvaluationRequest::parse(&s.line).expect("the schedule is valid wire")),
        )
        .filter_map(|request| match request.kind {
            RequestKind::Evaluate(e) => Some(e.world),
            _ => None,
        });
    for (op, world) in worlds.enumerate() {
        if seen.insert(world.content_hash()) {
            let cache = WorldCache::new(1);
            let built = builds.time("serve.world_build", None, op as u64, || cache.get(&world));
            report.check(built.is_ok());
        }
    }
    report.metric(
        "serve.world_builds",
        builds.count("serve.world_build") as f64,
    );
    report.metric("serve.world_build_s", builds.total_s("serve.world_build"));
    master.absorb(builds, None);
}

/// The campaign stage replay on three worlds under shared and
/// independent suites, checked bit for bit against `Scenario::run`.
fn stages(master: &mut Trace, report: &mut Report) {
    const STAGES: [&str; 4] = [
        "universe.sample",
        "testing.generate",
        "testing.debug",
        "sim.prepared.eval",
    ];
    let mut all = Trace::default();
    let mut plain_s = 0.0;
    for (name, world, suite_size) in replay::worlds() {
        let prepared = Prepared::new(Arc::clone(world.model()), world.profile.clone());
        let mut trace = Trace::default();
        let mut world_plain_s = 0.0;
        for regime in REGIMES {
            let scenario = world
                .scenario()
                .suite_size(suite_size)
                .regime(regime)
                .build()
                .expect("the fixture worlds build");
            let started = Instant::now();
            let expected: Vec<_> = (0..CAMPAIGNS).map(|seed| scenario.run(seed)).collect();
            world_plain_s += started.elapsed().as_secs_f64();
            for (seed, expected) in (0..).zip(&expected) {
                let campaign = trace.open("sim.campaign", None, seed);
                let got = replay::replay(
                    &world, &prepared, regime, suite_size, seed, &mut trace, campaign,
                );
                trace.close(campaign);
                report.check(bit_identical(&got, expected));
            }
        }
        let stage_s: f64 = STAGES.iter().map(|s| trace.total_s(s)).sum();
        report.metric(
            format!("trace.stage_inflation.{name}"),
            stage_s / world_plain_s - 1.0,
        );
        plain_s += world_plain_s;
        all.absorb(trace, None);
    }
    for stage in STAGES {
        report.metric(format!("{stage}_s"), all.total_s(stage));
    }
    report.metric("universe.samples", all.count("universe.sample") as f64);
    report.metric("testing.suites", all.count("testing.generate") as f64);
    report.metric("testing.debugs", all.count("testing.debug") as f64);
    report.metric("sim.prepared.evals", all.count("sim.prepared.eval") as f64);
    report.metric("sim.campaigns", all.count("sim.campaign") as f64);
    report.metric("sim.campaign_s", plain_s);
    master.absorb(all, None);
}
