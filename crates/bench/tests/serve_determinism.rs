//! Integration tests of the serve layer's determinism contract: response
//! bytes are a pure function of the request line — independent of the
//! worker thread count, of how many clients interleave on the socket,
//! and of the world cache's capacity (and therefore its hit/miss/evict
//! history). A committed request set pins the response bytes
//! themselves.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use diversim_bench::serve::request::{
    EvaluateRequest, EvaluationRequest, EvaluationResponse, RegimeSpec, RequestKind, StudySpec,
    WorldSpec,
};
use diversim_bench::serve::server::{serve_lines, spawn_tcp};
use diversim_bench::serve::EvaluationService;
use diversim_testing::oracle::IdenticalFailureModel;

const SEED: u64 = 2004;

/// Workload classes of the mix, cycled round-robin per client.
const CLASSES: u64 = 3;

/// The deterministic request mix of client `client`: request `i` draws
/// its class round-robin and its parameters from `(seed, client, i)`
/// only. It cycles worlds, regimes and study kinds: a cache-hot
/// `small-graded` estimate under cycling regimes, a cache-hot growth
/// curve on `mirrored`, and a freshly generated (cache-cold) world.
fn schedule(seed: u64, client: usize, i: u64) -> EvaluationRequest {
    let workload = (i % CLASSES) as usize;
    let kind = match workload {
        0 => RequestKind::Evaluate(EvaluateRequest {
            world: WorldSpec::Fixture {
                name: "small-graded".into(),
            },
            regime: match i % 3 {
                0 => RegimeSpec::Shared,
                1 => RegimeSpec::Independent,
                _ => RegimeSpec::BackToBack {
                    model: IdenticalFailureModel::Bernoulli(0.3),
                },
            },
            suite_size: 4,
            replications: 200,
            study: StudySpec::Estimate,
            system: None,
        }),
        1 => RequestKind::Evaluate(EvaluateRequest {
            world: WorldSpec::Fixture {
                name: "mirrored".into(),
            },
            regime: RegimeSpec::Independent,
            suite_size: 8,
            replications: 100,
            study: StudySpec::Growth {
                checkpoints: vec![0, 4, 8],
            },
            system: None,
        }),
        _ => RequestKind::Evaluate(EvaluateRequest {
            world: WorldSpec::Generated {
                demands: 64,
                faults: 16,
                region_max: 2,
                zipf: 0.8,
                prop_lo: 0.05,
                prop_hi: 0.5,
                // Unique per (client, i): every cold request builds a
                // distinct world, churning the server's LRU.
                seed: seed ^ (client as u64).wrapping_mul(1_000_003).wrapping_add(i),
            },
            regime: RegimeSpec::Shared,
            suite_size: 4,
            replications: 100,
            study: StudySpec::Estimate,
            system: None,
        }),
    };
    EvaluationRequest {
        id: format!("c{client}-r{i}"),
        seed,
        stream: client as u64,
        kind,
    }
}

/// The shared request mix, client by client.
fn request_lines(clients: usize, per_client: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for client in 0..clients {
        for i in 0..per_client {
            lines.push(schedule(SEED, client, i).to_json());
        }
    }
    lines
}

/// Serial single-threaded baseline: request id → response line.
fn baseline(lines: &[String]) -> BTreeMap<String, String> {
    let service = EvaluationService::new(1, 8);
    lines
        .iter()
        .map(|line| {
            let response = service.handle_line(line);
            let (id, ok) = EvaluationResponse::parse_status(&response).expect("malformed response");
            assert!(ok, "baseline request failed: {response}");
            (id, response)
        })
        .collect()
}

#[test]
fn responses_are_identical_across_thread_counts() {
    let lines = request_lines(2, 6);
    let expected = baseline(&lines);
    for threads in [1usize, 4, 8] {
        let service = EvaluationService::new(threads, 8);
        for line in &lines {
            let response = service.handle_line(line);
            let (id, _) = EvaluationResponse::parse_status(&response).unwrap();
            assert_eq!(
                Some(&response),
                expected.get(&id),
                "thread count {threads} changed the bytes of {id}"
            );
        }
    }
}

#[test]
fn interleaved_tcp_clients_match_the_serial_baseline() {
    let clients = 4usize;
    let per_client = 5u64;
    let expected = baseline(&request_lines(clients, per_client));

    let service = Arc::new(EvaluationService::new(4, 8));
    let (addr, _accept) = spawn_tcp(service, "127.0.0.1:0").expect("bind");

    // Interleave: every client holds an open connection while all of
    // them alternate one request at a time, so the server sees the
    // connections concurrently and the cache state each request observes
    // differs from the serial run.
    let streams: Vec<TcpStream> = (0..clients)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    let mut readers: Vec<BufReader<TcpStream>> = streams
        .iter()
        .map(|s| BufReader::new(s.try_clone().expect("clone")))
        .collect();
    let mut streams = streams;

    let mut got = BTreeMap::new();
    for i in 0..per_client {
        for client in 0..clients {
            let line = schedule(SEED, client, i).to_json();
            streams[client]
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut response = String::new();
            readers[client].read_line(&mut response).expect("recv");
            let response = response.trim_end().to_string();
            let (id, ok) = EvaluationResponse::parse_status(&response).expect("malformed");
            assert!(ok, "request {id} failed over TCP: {response}");
            got.insert(id, response);
        }
    }

    assert_eq!(got, expected, "interleaving changed response bytes");
}

#[test]
fn lru_eviction_is_invisible_in_response_bytes() {
    // The schedule cycles through three distinct worlds per client, so a
    // capacity-1 cache must rebuild a world on almost every request.
    let lines = request_lines(1, 9);

    let roomy = EvaluationService::new(2, 16);
    let tight = EvaluationService::new(2, 1);
    for line in &lines {
        assert_eq!(
            roomy.handle_line(line),
            tight.handle_line(line),
            "cache capacity leaked into response bytes"
        );
    }

    let roomy_stats = roomy.cache_stats();
    let tight_stats = tight.cache_stats();
    assert_eq!(roomy_stats.evictions, 0, "capacity 16 should never evict");
    assert!(
        tight_stats.evictions > 0,
        "capacity 1 must evict across {} requests over multiple worlds",
        lines.len()
    );
    assert!(tight_stats.misses > roomy_stats.misses, "forced rebuilds");
    assert_eq!(tight_stats.len, 1);
}

#[test]
fn the_mix_is_valid_wire_and_varies_its_cold_worlds() {
    for client in 0..3 {
        for i in 0..6 {
            let request = schedule(42, client, i);
            assert_eq!(request.stream, client as u64);
            // Every scheduled request survives its own wire round trip.
            assert_eq!(
                EvaluationRequest::parse(&request.to_json()).unwrap(),
                request
            );
        }
    }
    // Cold requests vary their world per (client, i).
    let world = |i| match schedule(1, 0, i).kind {
        RequestKind::Evaluate(e) => e.world.content_hash(),
        _ => unreachable!("the mix holds evaluate requests only"),
    };
    assert_ne!(world(2), world(5));
}

/// The committed request set `tests/golden/serve_requests.ndjson`
/// gets exactly the committed `serve_responses.ndjson` bytes. The set
/// covers four worlds (two fixtures, an inline singleton and a
/// generated universe) under all nine regimes, each as a pair estimate
/// and as and-2 and or-2 systems; growth curves under the five static
/// regimes; 2-of-3 and nested structures; refusals of every kind; an
/// experiment run, pings, protocol errors, a blank line, a CRLF line
/// and the bytes `FF FE`. CI feeds the same file to the release binary.
///
/// To re-bless after an intentional wire change:
/// `DIVERSIM_UPDATE_GOLDEN=1 cargo test -p diversim-bench --test serve_determinism golden`
#[test]
fn golden_request_set_gets_the_blessed_response_bytes() {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"));
    let requests = std::fs::read(dir.join("serve_requests.ndjson")).expect("request set");
    let mut output = Vec::new();
    serve_lines(
        &EvaluationService::new(2, 4),
        requests.as_slice(),
        &mut output,
    )
    .expect("in-memory streams");
    let path = dir.join("serve_responses.ndjson");
    if std::env::var_os("DIVERSIM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &output).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); bless with DIVERSIM_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let output = String::from_utf8(output).expect("responses are UTF-8");
    for (i, (got, want)) in output.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "response line {} drifted", i + 1);
    }
    assert!(
        output == golden,
        "{} response lines where the golden has {}",
        output.lines().count(),
        golden.lines().count()
    );
}
