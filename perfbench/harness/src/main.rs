//! The benchmark's in-process worker. `perfbench/run.py` starts one per
//! measured round (so `cpu_s` and `peak_rss_mb` come from the process
//! doing the work) and reads the single JSON line it prints.
//!
//! ```text
//! perfbench-harness spawn PROGRAM ARGS...
//! perfbench-harness sweep-warm --cells DIR --cold DIR
//! perfbench-harness serve-load --addr HOST:PORT --seed S
//! perfbench-harness trace --seed S --work DIR
//! ```

mod client;
mod launch;
mod mix;
mod probe;
mod replay;
mod spans;
mod trace;
mod warm;

use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use diversim_bench::json::Value;
use diversim_bench::sweep::CellStore;

use client::{converse, digest, Outgoing};

/// Worker threads everywhere the benchmark runs diversim code, as
/// `run.py` passes `--threads 2` to `diversim`: no more than the
/// 2-vCPU host the bounds were set on has.
pub const THREADS: usize = 2;

/// `--key value` pairs after the subcommand.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn text(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let text = self.text(key)?;
        text.parse()
            .map_err(|_| format!("--{key} wants a number, got {text:?}"))
    }
}

fn num(x: impl Into<f64>) -> Value {
    Value::Number(x.into())
}

fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn elapsed_ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// One round of `sweep_resume`'s measured phase.
fn sweep_warm(args: &Args) -> Result<Value, String> {
    let store = CellStore::new(args.text("cells")?);
    let cold = warm::read_outputs(&PathBuf::from(args.text("cold")?))
        .map_err(|e| format!("cannot read the cold pass's result files: {e}"))?;
    let report = warm::warm_passes(&store, &cold, warm::PASSES);
    Ok(object(vec![
        (
            "pass_ns",
            Value::Array(report.pass_ns.iter().map(|&ns| num(ns as f64)).collect()),
        ),
        (
            "probe_s",
            Value::Array(report.probe_s.iter().map(|&s| num(s)).collect()),
        ),
        ("chunk", num(warm::CHUNK as f64)),
        ("cpu_s", num(report.cpu_s)),
        ("peak_rss_mb", num(launch::own_peak_rss_mb())),
        ("loads", num(report.loads as f64)),
        ("hits", num(report.hits as f64)),
        ("corrupt", num(report.corrupt as f64)),
        ("outputs", num(report.outputs as f64)),
        ("mismatches", num(report.mismatches as f64)),
    ]))
}

fn outgoing(request: &diversim_bench::serve::EvaluationRequest) -> Outgoing {
    Outgoing {
        id: request.id.clone(),
        line: request.to_json(),
    }
}

/// Runs a command once and reports its cost (see [`launch`]).
fn spawn(argv: &[String]) -> Result<Value, String> {
    let cost = launch::measure(argv).map_err(|e| format!("cannot run {argv:?}: {e}"))?;
    Ok(object(vec![
        ("exit", num(cost.exit)),
        ("wall_s", num(cost.wall_s)),
        ("cpu_s", num(cost.cpu_s)),
        ("peak_rss_mb", num(cost.peak_rss_mb)),
    ]))
}

/// One round of `serve_mixed`: prime the hot fixtures, then drive the
/// schedule closed-loop over [`mix::CONNECTIONS`] connections at once,
/// with the host-speed probe taken before the priming and after the load.
fn serve_load(args: &Args) -> Result<Value, String> {
    let addr: String = args.text("addr")?.to_string();
    let seed: u64 = args.number("seed")?;
    let priming: Vec<Outgoing> = mix::priming(seed).iter().map(outgoing).collect();
    let schedules: Vec<(Vec<usize>, Vec<Outgoing>)> = (0..mix::CONNECTIONS)
        .map(|c| {
            (0..mix::REQUESTS)
                .map(|i| {
                    let (class, request) = mix::scheduled(seed, c, i);
                    (class, outgoing(&request))
                })
                .unzip()
        })
        .collect();
    let connect =
        || TcpStream::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"));

    let probe_before = probe::bracket_s();
    let started = Instant::now();
    let primed = converse(connect()?, &priming);
    let loaded = Instant::now();
    let streams = (0..mix::CONNECTIONS)
        .map(|_| connect())
        .collect::<Result<Vec<_>, _>>()?;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .into_iter()
            .zip(&schedules)
            .map(|(stream, (_, requests))| scope.spawn(move || converse(stream, requests)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client threads do not panic"))
            .collect()
    });
    let load_ns = elapsed_ns(loaded);
    let total_ns = elapsed_ns(started);
    let probe_after = probe::bracket_s();

    let failures = |outcomes: &[client::Outcome]| outcomes.iter().filter(|o| !o.ok).count() as u64;
    let (mut attempted, mut failed) = (primed.len() as u64, failures(&primed));
    let (mut classes, mut latency) = (Vec::new(), Vec::new());
    for ((kinds, _), outcomes) in schedules.iter().zip(&outcomes) {
        attempted += outcomes.len() as u64;
        failed += failures(outcomes);
        for (kind, outcome) in kinds.iter().zip(outcomes) {
            classes.push(num(*kind as f64));
            latency.push(num(outcome.ns as f64));
        }
    }
    let digest = digest(outcomes.iter().flatten().map(|o| o.response.as_deref()));
    Ok(object(vec![
        ("load_ns", num(load_ns)),
        ("total_ns", num(total_ns)),
        ("attempted", num(attempted as f64)),
        ("failed", num(failed as f64)),
        ("digest", Value::String(format!("{digest:016x}"))),
        (
            "class_names",
            Value::Array(
                mix::CLASSES
                    .iter()
                    .map(|c| Value::String(c.to_string()))
                    .collect(),
            ),
        ),
        ("classes", Value::Array(classes)),
        ("latency_ns", Value::Array(latency)),
        (
            "probe_s",
            Value::Array(vec![num(probe_before), num(probe_after)]),
        ),
    ]))
}

/// The traced run.
fn traced(args: &Args) -> Result<Value, String> {
    let cfg = trace::Config {
        seed: args.number("seed")?,
        work: PathBuf::from(args.text("work")?),
    };
    let report = trace::run(&cfg).map_err(|e| format!("traced run failed: {e}"))?;
    let pairs = |items: Vec<(String, Value)>| Value::Object(items);
    Ok(object(vec![
        (
            "metrics",
            pairs(
                report
                    .metrics
                    .into_iter()
                    .map(|(k, v)| (k, num(v)))
                    .collect(),
            ),
        ),
        (
            "samples",
            pairs(
                report
                    .samples
                    .into_iter()
                    .map(|(k, v)| (k, Value::Array(v.into_iter().map(num).collect())))
                    .collect(),
            ),
        ),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(report.failed as f64)),
        ("serve_digest", Value::String(report.serve_digest)),
    ]))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness spawn|sweep-warm|serve-load|trace ...");
        return ExitCode::from(2);
    };
    let result = if command == "spawn" {
        spawn(rest)
    } else {
        Args::parse(rest).and_then(|args| match command.as_str() {
            "sweep-warm" => sweep_warm(&args),
            "serve-load" => serve_load(&args),
            "trace" => traced(&args),
            other => Err(format!("unknown command {other:?}")),
        })
    };
    match result {
        Ok(doc) => {
            println!("{}", doc.to_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench-harness: {message}");
            ExitCode::from(2)
        }
    }
}
