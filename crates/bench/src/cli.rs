//! The `diversim` command-line interface.
//!
//! ```console
//! $ diversim list
//! $ diversim run e01
//! $ diversim run --all --fast --threads 4 --out results/
//! $ diversim sweep --all --fast --shard 0/2 --cells results/cells
//! $ diversim sweep --all --fast --resume --out results/ --verify
//! $ diversim report --run --smoke
//! $ diversim report --results results/
//! $ diversim docs --write
//! ```
//!
//! Exit codes: `0` success, `1` at least one reproduction check failed,
//! `2` usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use diversim_sim::runner::default_threads;

use crate::book::{self, ResultDoc};
use crate::engine::{run_experiment_on, schedule, write_outcome, RunOutcome};
use crate::registry;
use crate::report::Table;
use crate::serve::server::{serve_stdio, serve_tcp};
use crate::serve::service::EvaluationService;
use crate::serve::ExperimentRequest;
use crate::spec::{Budget, ExperimentSpec, Profile};
use crate::sweep::engine::sweep_experiment_on;
use crate::sweep::{verify_against_direct_run, CellStore, Shard, SweepOptions, SweepStats};

const USAGE: &str = "diversim — unified driver for the 20 Popov & Littlewood reproductions

USAGE:
    diversim list
    diversim run [EXPERIMENT...] [--all] [--smoke|--fast|--full]
                 [--threads N] [--out DIR] [--quiet]
    diversim sweep [EXPERIMENT...] [--all] [--smoke|--fast|--full]
                   [--threads N] [--cells DIR] [--out DIR]
                   [--shard I/N] [--resume] [--verify] [--quiet]
    diversim serve [--stdio | --tcp ADDR] [--threads N] [--cache N]
                   [--quiet]
    diversim report [--run | --results DIR] [--smoke|--fast|--full]
                    [--threads N] [--out DIR] [--quiet]
    diversim docs [--write]
    diversim help

EXPERIMENT may be a slug (e01), a name (e01_el_model) or an id (1).

OPTIONS:
    --all          run every registered experiment
    --smoke        tiny replication budgets; checks recorded, not enforced
    --fast         1/10 replication budgets (the CI profile)
    --full         paper-faithful replication budgets [default]
    --threads N    worker threads (default: available CPUs, capped at 16)
    --out DIR      run: write one JSON and one CSV result file per experiment
                   report: book output root (default: the workspace root,
                   i.e. the committed REPORT.md + report/ book)
    --quiet        suppress experiment narration and tables

`sweep` runs experiments cell-by-cell against a content-addressed cell
store (--cells, default <out>/cells or results/cells). Unsharded
sweeps merge to the exact bytes `diversim run` emits; --shard I/N
computes only this shard's cells (no merged output — the store is the
product); --resume serves verified cached cells and recomputes only
missing or corrupt ones, printing a cache-hit summary; --verify
byte-compares every merged result against a direct engine run.

`serve` answers diversim/v1 evaluation requests (one JSON object per
line; see README \"Serving\") on stdin/stdout (--stdio, the default) or
a TCP listener (--tcp HOST:PORT). --cache bounds the LRU of prepared
worlds [default: 8]. Responses are pure functions of their requests:
byte-identical for any --threads count, connection count or arrival
order.

`report` renders the reproduction book — REPORT.md plus one figure-rich
chapter per experiment under report/ — either by re-running every
registered experiment (--run, at the chosen profile) or from the result
files a previous `diversim run --all --out DIR` wrote (--results DIR,
the default, reading results/). The book is byte-identical for any
--threads count; the committed book uses `--run --smoke`.
";

/// The flags `diversim run` and `diversim report` share. Values stay
/// `Option` so each command can apply its own defaults and reject
/// flags that are meaningless in its mode.
#[derive(Debug, Clone, Default)]
struct CommonFlags {
    profile: Option<Profile>,
    threads: Option<usize>,
    out: Option<PathBuf>,
    quiet: bool,
}

impl CommonFlags {
    /// Consumes `arg` (pulling values from `it` as needed) if it is one
    /// of the shared flags; returns `Ok(false)` if it is not.
    fn consume(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match arg {
            "--smoke" => self.profile = Some(Profile::Smoke),
            "--fast" => self.profile = Some(Profile::Fast),
            "--full" => self.profile = Some(Profile::Full),
            "--quiet" => self.quiet = true,
            "--threads" => {
                let value = it.next().ok_or("--threads needs a value")?;
                self.threads = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count: {value}"))?,
                );
            }
            "--out" => {
                let value = it.next().ok_or("--out needs a directory")?;
                self.out = Some(PathBuf::from(value));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options of `diversim run`.
#[derive(Debug, Clone)]
struct RunOptions {
    profile: Profile,
    threads: usize,
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_run_args(args: &[String]) -> Result<(Vec<String>, bool, RunOptions), String> {
    let mut keys = Vec::new();
    let mut all = false;
    let mut flags = CommonFlags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--all" => all = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            key => keys.push(key.to_string()),
        }
    }
    let opts = RunOptions {
        profile: flags.profile.unwrap_or(Profile::Full),
        threads: flags.threads.unwrap_or_else(default_threads),
        out: flags.out,
        quiet: flags.quiet,
    };
    Ok((keys, all, opts))
}

/// Resolves CLI experiment keys into the typed requests the engine
/// accepts — the same [`ExperimentRequest`] values the serve protocol
/// constructs, so CLI and wire enter through one validated surface.
fn resolve(keys: &[String], all: bool, profile: Profile) -> Result<Vec<ExperimentRequest>, String> {
    let request = |key: &str| ExperimentRequest {
        key: key.to_string(),
        profile,
    };
    if all {
        if !keys.is_empty() {
            return Err("pass either experiment names or --all, not both".into());
        }
        return Ok(registry::all().iter().map(|s| request(s.slug)).collect());
    }
    if keys.is_empty() {
        return Err("specify at least one experiment, or --all (see `diversim list`)".into());
    }
    keys.iter()
        .map(|key| {
            registry::find(key)
                .map(|spec| request(spec.slug))
                .ok_or_else(|| format!("unknown experiment: {key} (see `diversim list`)"))
        })
        .collect()
}

/// The registered specs of resolved requests, in request order.
fn specs_of(requests: &[ExperimentRequest]) -> Vec<&'static ExperimentSpec> {
    requests
        .iter()
        .map(|r| registry::find(&r.key).expect("resolve returns registered keys"))
        .collect()
}

fn run_requests(requests: &[ExperimentRequest], opts: &RunOptions) -> ExitCode {
    let started = Instant::now();
    let specs = specs_of(requests);
    let mut outcomes: Vec<RunOutcome> = Vec::with_capacity(specs.len());
    let mut write_failed = false;
    let job = |spec, budget: &Arc<Budget>| {
        run_experiment_on(spec, opts.profile, budget, opts.quiet, None)
    };
    schedule(
        &specs,
        &Arc::new(Budget::new(opts.threads)),
        job,
        |outcome| {
            if !opts.quiet && specs.len() > 1 {
                println!(
                    "━━━ {} ({}/{}) ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━",
                    outcome.spec.slug,
                    outcomes.len() + 1,
                    specs.len()
                );
            }
            print!("{}", outcome.narration);
            if let (Some(dir), false) = (&opts.out, write_failed) {
                match write_outcome(dir, &outcome) {
                    Ok((json_path, csv_path)) => {
                        if !opts.quiet {
                            println!("results: {} + {}", json_path.display(), csv_path.display());
                        }
                    }
                    Err(e) => {
                        eprintln!(
                            "error: could not write results for {}: {e}",
                            outcome.spec.name
                        );
                        write_failed = true;
                    }
                }
            }
            outcomes.push(outcome);
        },
    );
    if write_failed {
        return ExitCode::from(2);
    }

    let mut summary = Table::new(
        &format!(
            "campaign summary ({} profile, {} threads)",
            opts.profile.name(),
            opts.threads
        ),
        &["experiment", "checks", "failed", "status", "wall"],
    );
    let mut failed_experiments = 0;
    for outcome in &outcomes {
        let failed = outcome.checks.iter().filter(|c| !c.passed).count();
        if !outcome.passed {
            failed_experiments += 1;
        }
        summary.row(&[
            outcome.spec.name.to_string(),
            outcome.checks.len().to_string(),
            failed.to_string(),
            if outcome.passed { "ok" } else { "FAILED" }.to_string(),
            format!("{:.2}s", outcome.wall.as_secs_f64()),
        ]);
    }
    println!("{}", summary.render());
    println!(
        "{} experiment(s), {} failed, {:.2}s total",
        outcomes.len(),
        failed_experiments,
        started.elapsed().as_secs_f64()
    );
    for outcome in &outcomes {
        for check in outcome.checks.iter().filter(|c| !c.passed) {
            eprintln!("FAILED [{}]: {}", outcome.spec.name, check.label);
        }
    }
    if failed_experiments > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Options of `diversim sweep`.
#[derive(Debug, Clone)]
struct SweepCliOptions {
    profile: Profile,
    threads: usize,
    /// The cell store directory.
    cells: PathBuf,
    /// Where merged result files go (unsharded passes only).
    out: Option<PathBuf>,
    shard: Option<Shard>,
    resume: bool,
    verify: bool,
    quiet: bool,
}

fn parse_sweep_args(args: &[String]) -> Result<(Vec<String>, bool, SweepCliOptions), String> {
    let mut keys = Vec::new();
    let mut all = false;
    let mut cells: Option<PathBuf> = None;
    let mut shard = None;
    let mut resume = false;
    let mut verify = false;
    let mut flags = CommonFlags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--all" => all = true,
            "--cells" => {
                let value = it.next().ok_or("--cells needs a directory")?;
                cells = Some(PathBuf::from(value));
            }
            "--shard" => {
                let value = it.next().ok_or("--shard needs i/n (e.g. 0/2)")?;
                shard = Some(Shard::parse(value)?);
            }
            "--resume" => resume = true,
            "--verify" => verify = true,
            flag if flag.starts_with('-') => return Err(format!("unknown sweep flag: {flag}")),
            key => keys.push(key.to_string()),
        }
    }
    if shard.is_some() {
        if flags.out.is_some() {
            return Err("--shard passes produce no merged output; drop --out".into());
        }
        if verify {
            return Err("--verify compares merged output and needs an unsharded pass".into());
        }
    }
    let cells = cells.unwrap_or_else(|| {
        flags
            .out
            .as_ref()
            .map(|out| out.join("cells"))
            .unwrap_or_else(|| PathBuf::from("results/cells"))
    });
    Ok((
        keys,
        all,
        SweepCliOptions {
            profile: flags.profile.unwrap_or(Profile::Full),
            threads: flags.threads.unwrap_or_else(default_threads),
            cells,
            out: flags.out,
            shard,
            resume,
            verify,
            quiet: flags.quiet,
        },
    ))
}

fn sweep(args: &[String]) -> ExitCode {
    let parsed = parse_sweep_args(args).and_then(|(keys, all, opts)| {
        resolve(&keys, all, opts.profile).map(|requests| (requests, opts))
    });
    let (requests, opts) = match parsed {
        Ok(ok) => ok,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let specs = specs_of(&requests);
    let store = CellStore::new(&opts.cells);
    let started = Instant::now();
    let pass = SweepOptions {
        profile: opts.profile,
        threads: opts.threads,
        shard: opts.shard,
        resume: opts.resume,
        quiet: opts.quiet,
    };
    // Each experiment's merged outcome, and with --verify the direct run
    // its bytes are compared with, computed on the same budget.
    let job = |spec, budget: &Arc<Budget>| {
        let run = sweep_experiment_on(spec, &store, &pass, budget);
        let direct = opts
            .verify
            .then(|| run_experiment_on(spec, opts.profile, budget, true, None));
        (run, direct)
    };
    let mut runs = Vec::with_capacity(specs.len());
    let mut total = SweepStats::default();
    schedule(
        &specs,
        &Arc::new(Budget::new(opts.threads)),
        job,
        |(run, direct)| {
            if !opts.quiet {
                print!("{}", run.outcome.narration);
                println!("{}: {}", run.outcome.spec.name, run.stats.summary());
            }
            total.add(run.stats);
            runs.push((run, direct));
        },
    );
    println!(
        "sweep [{}{}]: {} ({:.2}s)",
        opts.profile.name(),
        opts.shard
            .map(|s| format!(", shard {}/{}", s.index, s.count))
            .unwrap_or_default(),
        total.summary(),
        started.elapsed().as_secs_f64()
    );
    if opts.shard.is_some() {
        // Sharded passes only populate the store; merged outputs (and
        // check enforcement) belong to the unsharded merge pass.
        println!("cells: {}", store.dir().display());
        return ExitCode::SUCCESS;
    }

    let mut failed_experiments = 0;
    let mut drifted = 0;
    for (run, direct) in &runs {
        if let Some(dir) = &opts.out {
            if let Err(e) = write_outcome(dir, &run.outcome) {
                eprintln!(
                    "error: could not write results for {}: {e}",
                    run.outcome.spec.name
                );
                return ExitCode::from(2);
            }
        }
        if !run.outcome.passed {
            failed_experiments += 1;
            for check in run.outcome.checks.iter().filter(|c| !c.passed) {
                eprintln!("FAILED [{}]: {}", run.outcome.spec.name, check.label);
            }
        }
        if let Some(direct) = direct {
            match verify_against_direct_run(run, direct) {
                Ok(()) => {
                    if !opts.quiet {
                        println!(
                            "verified {}: byte-identical to a direct run",
                            run.outcome.spec.name
                        );
                    }
                }
                Err(message) => {
                    drifted += 1;
                    eprintln!("DRIFT: {message}");
                }
            }
        }
    }
    if let Some(dir) = &opts.out {
        println!("results: {}", dir.display());
    }
    if drifted > 0 {
        eprintln!("{drifted} experiment(s) drifted from the direct engine");
        return ExitCode::from(1);
    }
    if failed_experiments > 0 {
        eprintln!("{failed_experiments} experiment(s) failed enforced checks");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

/// Options of `diversim serve`.
#[derive(Debug, Clone, PartialEq)]
struct ServeOptions {
    /// `None` serves stdin/stdout; `Some(addr)` binds a TCP listener.
    tcp: Option<String>,
    threads: usize,
    cache: usize,
    quiet: bool,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut tcp = None;
    let mut stdio = false;
    let mut threads = None;
    let mut cache = 8usize;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--tcp" => {
                let value = it.next().ok_or("--tcp needs an address (HOST:PORT)")?;
                tcp = Some(value.clone());
            }
            "--threads" => {
                let value = it.next().ok_or("--threads needs a value")?;
                threads = Some(
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| format!("invalid thread count: {value}"))?,
                );
            }
            "--cache" => {
                let value = it.next().ok_or("--cache needs a value")?;
                cache = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid cache capacity: {value}"))?;
            }
            "--quiet" => quiet = true,
            other => return Err(format!("unknown serve argument: {other}")),
        }
    }
    if stdio && tcp.is_some() {
        return Err("pass either --stdio or --tcp ADDR, not both".into());
    }
    Ok(ServeOptions {
        tcp,
        threads: threads.unwrap_or_else(default_threads),
        cache,
        quiet,
    })
}

fn serve(args: &[String]) -> ExitCode {
    let opts = match parse_serve_args(args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let service = std::sync::Arc::new(EvaluationService::new(opts.threads, opts.cache));
    let served = match &opts.tcp {
        Some(addr) => serve_tcp(service, addr.as_str(), opts.quiet),
        None => serve_stdio(&service),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            ExitCode::from(2)
        }
    }
}

fn list() -> ExitCode {
    let mut table = Table::new(
        "registered experiments",
        &["slug", "name", "paper result", "title", "full MC budget"],
    );
    for spec in registry::all() {
        table.row(&[
            spec.slug.to_string(),
            spec.name.to_string(),
            spec.paper_ref.to_string(),
            spec.title.to_string(),
            if spec.full_replications == 0 {
                "exact".to_string()
            } else {
                spec.full_replications.to_string()
            },
        ]);
    }
    println!("{}", table.render());
    println!("run one with `diversim run <slug>`; all with `diversim run --all --fast`.");
    ExitCode::SUCCESS
}

/// Options of `diversim report`.
#[derive(Debug, Clone)]
struct ReportOptions {
    /// Re-run every experiment instead of loading result files.
    run: bool,
    /// Where result files are loaded from when not re-running.
    results: PathBuf,
    profile: Option<Profile>,
    threads: usize,
    /// Book output root; `None` means the workspace root (the committed
    /// book).
    out: Option<PathBuf>,
    quiet: bool,
}

fn parse_report_args(args: &[String]) -> Result<ReportOptions, String> {
    let mut run = false;
    let mut results: Option<PathBuf> = None;
    let mut flags = CommonFlags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--run" => run = true,
            "--results" => {
                let value = it.next().ok_or("--results needs a directory")?;
                results = Some(PathBuf::from(value));
            }
            other => return Err(format!("unknown report argument: {other}")),
        }
    }
    if run && results.is_some() {
        return Err("pass either --run or --results DIR, not both".into());
    }
    if !run && flags.profile.is_some() {
        return Err("--smoke/--fast/--full select the re-run effort and require --run".into());
    }
    if !run && flags.threads.is_some() {
        return Err("--threads selects the re-run parallelism and requires --run".into());
    }
    Ok(ReportOptions {
        run,
        results: results.unwrap_or_else(|| PathBuf::from("results")),
        profile: flags.profile,
        threads: flags.threads.unwrap_or_else(default_threads),
        out: flags.out,
        quiet: flags.quiet,
    })
}

/// The workspace root (two levels above this crate's manifest), so
/// `diversim report` regenerates the committed book from any cwd.
fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn load_or_run_docs(opts: &ReportOptions) -> Result<Vec<ResultDoc>, String> {
    if opts.run {
        let profile = opts.profile.unwrap_or_default();
        let mut docs = Vec::new();
        let job = |spec, budget: &Arc<Budget>| run_experiment_on(spec, profile, budget, true, None);
        schedule(
            &registry::all(),
            &Arc::new(Budget::new(opts.threads)),
            job,
            |outcome| {
                if !opts.quiet {
                    println!(
                        "ran {} ({:.2}s)",
                        outcome.spec.name,
                        outcome.wall.as_secs_f64()
                    );
                }
                docs.push(ResultDoc::from_outcome(&outcome).map_err(|e| e.to_string()));
            },
        );
        return docs.into_iter().collect();
    }
    registry::all()
        .iter()
        .map(|spec| {
            let path = opts.results.join(format!("{}.json", spec.name));
            let text = std::fs::read_to_string(&path).map_err(|e| {
                format!(
                    "could not read {}: {e}\n(write result files with `diversim run --all --out {}`, \
                     or re-run the experiments with `diversim report --run`)",
                    path.display(),
                    opts.results.display()
                )
            })?;
            ResultDoc::from_json(&text, &path.display().to_string()).map_err(|e| e.to_string())
        })
        .collect()
}

fn write_book(root: &Path, book: &book::Book) -> std::io::Result<()> {
    std::fs::create_dir_all(root.join(book::CHAPTER_DIR))?;
    std::fs::write(root.join(book::REPORT_FILE), &book.report)?;
    for chapter in &book.chapters {
        std::fs::write(
            root.join(book::CHAPTER_DIR).join(&chapter.file_name),
            &chapter.markdown,
        )?;
    }
    Ok(())
}

fn report(args: &[String]) -> ExitCode {
    let opts = match parse_report_args(args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let docs = match load_or_run_docs(&opts) {
        Ok(docs) => docs,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    let book = match book::render_book(&docs) {
        Ok(book) => book,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = opts.out.clone().unwrap_or_else(workspace_root);
    if let Err(e) = write_book(&root, &book) {
        eprintln!(
            "error: could not write the book under {}: {e}",
            root.display()
        );
        return ExitCode::from(2);
    }
    let total: usize = docs.iter().map(|d| d.checks.len()).sum();
    let failed: usize = docs.iter().map(|d| d.failed_checks()).sum();
    let failed_experiments = docs
        .iter()
        .filter(|d| d.failed_checks() > 0 && d.enforces_checks())
        .count();
    if !opts.quiet {
        println!(
            "wrote {} + {} chapter(s) under {}",
            book::REPORT_FILE,
            book.chapters.len(),
            root.display()
        );
        println!(
            "{}/{} reproduction checks passed; wall-clock {:.2}s (stdout only — the book itself is \
             byte-deterministic)",
            total - failed,
            total,
            started.elapsed().as_secs_f64()
        );
    }
    if failed_experiments > 0 {
        eprintln!("{failed_experiments} experiment(s) failed enforced checks");
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn docs(args: &[String]) -> ExitCode {
    let md = registry::experiments_md();
    match args {
        [] => {
            print!("{md}");
            ExitCode::SUCCESS
        }
        [flag] if flag == "--write" => {
            // Anchor at the workspace root (two levels above this
            // crate's manifest) so the command works from any cwd.
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("wrote {path} ({} bytes)", md.len());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: diversim docs [--write]");
            ExitCode::from(2)
        }
    }
}

/// Entry point of the `diversim` binary.
pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("list", [])) => list(),
        Some(("list", _)) => {
            eprintln!("usage: diversim list");
            ExitCode::from(2)
        }
        Some(("run", rest)) => match parse_run_args(rest).and_then(|(keys, all, opts)| {
            resolve(&keys, all, opts.profile).map(|requests| (requests, opts))
        }) {
            Ok((requests, opts)) => run_requests(&requests, &opts),
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        },
        Some(("sweep", rest)) => sweep(rest),
        Some(("serve", rest)) => serve(rest),
        Some(("report", rest)) => report(rest),
        Some(("docs", rest)) => docs(rest),
        Some(("help", _)) | Some(("--help", _)) | Some(("-h", _)) | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some((other, _)) => {
            eprintln!("error: unknown command: {other}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_profile_threads_out_and_keys() {
        let (keys, all, opts) = parse_run_args(&strings(&[
            "e01",
            "--fast",
            "--threads",
            "3",
            "--out",
            "r",
            "e02",
        ]))
        .unwrap();
        assert_eq!(keys, ["e01", "e02"]);
        assert!(!all);
        assert_eq!(opts.profile, Profile::Fast);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("r")));
        assert!(!opts.quiet);
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse_run_args(&strings(&["--bogus"])).is_err());
        assert!(parse_run_args(&strings(&["--threads"])).is_err());
        assert!(parse_run_args(&strings(&["--threads", "0"])).is_err());
        assert!(parse_run_args(&strings(&["--threads", "x"])).is_err());
        assert!(parse_run_args(&strings(&["--out"])).is_err());
    }

    #[test]
    fn parse_report_args_covers_modes_and_conflicts() {
        let opts = parse_report_args(&strings(&[])).unwrap();
        assert!(!opts.run);
        assert_eq!(opts.results, std::path::PathBuf::from("results"));
        assert_eq!(opts.profile, None);
        assert!(opts.out.is_none());

        let opts = parse_report_args(&strings(&[
            "--run",
            "--smoke",
            "--threads",
            "2",
            "--out",
            "book",
        ]))
        .unwrap();
        assert!(opts.run);
        assert_eq!(opts.profile, Some(Profile::Smoke));
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.out.as_deref(), Some(std::path::Path::new("book")));

        let opts = parse_report_args(&strings(&["--results", "r", "--quiet"])).unwrap();
        assert!(opts.quiet);
        assert_eq!(opts.results, std::path::PathBuf::from("r"));

        assert!(parse_report_args(&strings(&["--run", "--results", "r"])).is_err());
        assert!(
            parse_report_args(&strings(&["--fast"])).is_err(),
            "profile needs --run"
        );
        assert!(
            parse_report_args(&strings(&["--threads", "2"])).is_err(),
            "threads need --run"
        );
        assert!(parse_report_args(&strings(&["--bogus"])).is_err());
        assert!(parse_report_args(&strings(&["--results"])).is_err());
        assert!(parse_report_args(&strings(&["--threads", "0"])).is_err());
    }

    #[test]
    fn resolve_handles_all_and_unknown() {
        assert_eq!(resolve(&[], true, Profile::Full).unwrap().len(), 20);
        assert!(resolve(&strings(&["e01"]), true, Profile::Full).is_err());
        assert!(resolve(&[], false, Profile::Full).is_err());
        assert!(resolve(&strings(&["e99"]), false, Profile::Full).is_err());
        let requests = resolve(&strings(&["e02", "16"]), false, Profile::Fast).unwrap();
        assert_eq!(requests[0].key, "e02");
        assert_eq!(requests[1].key, "e16");
        assert!(requests.iter().all(|r| r.profile == Profile::Fast));
    }

    #[test]
    fn parse_sweep_args_covers_modes_defaults_and_conflicts() {
        let (keys, all, opts) = parse_sweep_args(&strings(&["--all", "--fast"])).unwrap();
        assert!(keys.is_empty());
        assert!(all);
        assert_eq!(opts.profile, Profile::Fast);
        assert_eq!(opts.cells, PathBuf::from("results/cells"));
        assert!(opts.out.is_none() && opts.shard.is_none());
        assert!(!opts.resume && !opts.verify);

        // --cells defaults under --out when not given explicitly.
        let (_, _, opts) = parse_sweep_args(&strings(&["e01", "--out", "r"])).unwrap();
        assert_eq!(opts.cells, PathBuf::from("r/cells"));
        let (_, _, opts) =
            parse_sweep_args(&strings(&["e01", "--out", "r", "--cells", "c"])).unwrap();
        assert_eq!(opts.cells, PathBuf::from("c"));

        let (keys, _, opts) = parse_sweep_args(&strings(&[
            "e01",
            "--shard",
            "1/2",
            "--smoke",
            "--threads",
            "2",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(keys, ["e01"]);
        assert_eq!(opts.shard, Some(Shard { index: 1, count: 2 }));
        assert_eq!((opts.threads, opts.quiet), (2, true));

        let (_, _, opts) = parse_sweep_args(&strings(&["--all", "--resume", "--verify"])).unwrap();
        assert!(opts.resume && opts.verify);

        // Sharded passes have no merged output to write or verify.
        assert!(parse_sweep_args(&strings(&["--shard", "0/2", "--out", "r"])).is_err());
        assert!(parse_sweep_args(&strings(&["--shard", "0/2", "--verify"])).is_err());
        assert!(parse_sweep_args(&strings(&["--shard", "2/2"])).is_err());
        assert!(parse_sweep_args(&strings(&["--shard"])).is_err());
        assert!(parse_sweep_args(&strings(&["--cells"])).is_err());
        assert!(
            parse_sweep_args(&strings(&["--bench-out", "b.json"])).is_err(),
            "--bench-out is gone"
        );
        assert!(parse_sweep_args(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn parse_serve_args_covers_modes_and_conflicts() {
        let opts = parse_serve_args(&strings(&[])).unwrap();
        assert_eq!(opts.tcp, None);
        assert_eq!(opts.cache, 8);
        assert!(!opts.quiet);

        let opts = parse_serve_args(&strings(&[
            "--tcp",
            "127.0.0.1:7878",
            "--threads",
            "2",
            "--cache",
            "3",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(opts.tcp.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!((opts.threads, opts.cache), (2, 3));
        assert!(opts.quiet);

        assert!(parse_serve_args(&strings(&["--stdio", "--tcp", "x:1"])).is_err());
        assert!(parse_serve_args(&strings(&["--tcp"])).is_err());
        assert!(parse_serve_args(&strings(&["--threads", "0"])).is_err());
        assert!(parse_serve_args(&strings(&["--cache", "0"])).is_err());
        assert!(parse_serve_args(&strings(&["--bogus"])).is_err());
    }
}
