//! The `serve_mixed` request schedule: six request classes, each request
//! a pure function of the workload seed, the connection and the request
//! index.
//!
//! Every class costs at least ~0.3 ms in process. Cheaper requests
//! (the `loadgen` schedule's ~0.2 ms ones) make the measurement a
//! measurement of vCPU wake-ups rather than of the service.

use diversim_bench::serve::request::{
    EvaluateRequest, EvaluationRequest, RegimeSpec, RequestKind, StudySpec, SystemSpec, WorldSpec,
};
use diversim_sim::policy::PolicySpec;
use diversim_testing::oracle::IdenticalFailureModel;

/// Connections the load runs over at once: no more than the 2-vCPU host
/// the bounds were set on has.
pub const CONNECTIONS: usize = 2;

/// Requests per connection in one round: about a second of load.
pub const REQUESTS: u64 = 600;

/// Class names, in the order of the class indices the schedule uses.
pub const CLASSES: [&str; 6] = ["estimate", "growth", "system", "adaptive", "large", "cold"];

/// The fixtures the hot classes use; priming sends one request for each
/// so the measured load starts with them cached.
pub const HOT_FIXTURES: [&str; 3] = ["small-graded", "mirrored", "large"];

/// A splitmix64 step: the one mixing function every seed of the
/// schedule is derived with.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wire seed: the wire carries integers as JSON numbers, exact only
/// below 2^53.
fn wire_seed(x: u64) -> u64 {
    mix(x) >> 11
}

/// The class order of one connection: a seed-derived permutation of the
/// six classes, cycled (a seeded round-robin).
pub fn class_order(seed: u64, connection: usize) -> [usize; 6] {
    let mut order = [0, 1, 2, 3, 4, 5];
    let mut state = mix(seed ^ mix(connection as u64 + 1));
    for i in (1..order.len()).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

fn fixture(name: &str) -> WorldSpec {
    WorldSpec::Fixture { name: name.into() }
}

fn evaluate(
    world: WorldSpec,
    regime: RegimeSpec,
    suite_size: usize,
    replications: u64,
) -> EvaluateRequest {
    EvaluateRequest {
        world,
        regime,
        suite_size,
        replications,
        study: StudySpec::Estimate,
        system: None,
    }
}

/// Builds the request of `class` for request `i` of `connection`.
pub fn request(seed: u64, connection: usize, i: u64, class: usize) -> EvaluationRequest {
    let op = mix(seed ^ mix((connection as u64) << 32 | i));
    let body = match class {
        // The class recurs every six requests, so its regime cycles on
        // the visit count, not on `i` itself.
        0 => evaluate(
            fixture("small-graded"),
            match (i / 6) % 3 {
                0 => RegimeSpec::Shared,
                1 => RegimeSpec::Independent,
                _ => RegimeSpec::BackToBack {
                    model: IdenticalFailureModel::Bernoulli(0.3),
                },
            },
            4,
            1000,
        ),
        1 => EvaluateRequest {
            study: StudySpec::Growth {
                checkpoints: vec![0, 4, 8],
            },
            ..evaluate(fixture("mirrored"), RegimeSpec::Independent, 8, 400)
        },
        2 => EvaluateRequest {
            system: Some(SystemSpec::KOutOfN {
                k: 2,
                children: (0..3)
                    .map(|index| SystemSpec::Component { index })
                    .collect(),
            }),
            ..evaluate(fixture("small-graded"), RegimeSpec::Shared, 4, 2000)
        },
        3 => evaluate(
            fixture("small-graded"),
            RegimeSpec::Adaptive {
                policy: PolicySpec::EpsilonGreedy { epsilon: 0.1 },
            },
            8,
            400,
        ),
        4 => evaluate(fixture("large"), RegimeSpec::Shared, 16, 300),
        _ => evaluate(
            WorldSpec::Generated {
                demands: 256,
                faults: 48,
                region_max: 3,
                zipf: 0.8,
                prop_lo: 0.05,
                prop_hi: 0.5,
                // Distinct per (seed, connection, i): every cold request
                // builds a new world and, once the cache is full, evicts one.
                seed: wire_seed(op ^ 0xC01D),
            },
            RegimeSpec::Shared,
            4,
            100,
        ),
    };
    EvaluationRequest {
        id: format!("c{connection}-r{i}"),
        seed: wire_seed(op),
        stream: wire_seed(seed ^ mix(connection as u64)),
        kind: RequestKind::Evaluate(body),
    }
}

/// Request `i` of `connection` with its class index.
pub fn scheduled(seed: u64, connection: usize, i: u64) -> (usize, EvaluationRequest) {
    let class = class_order(seed, connection)[(i % 6) as usize];
    (class, request(seed, connection, i, class))
}

/// One priming request per hot fixture.
pub fn priming(seed: u64) -> Vec<EvaluationRequest> {
    HOT_FIXTURES
        .iter()
        .enumerate()
        .map(|(n, name)| EvaluationRequest {
            id: format!("prime-{n}"),
            seed: wire_seed(seed),
            stream: 0,
            kind: RequestKind::Evaluate(evaluate(fixture(name), RegimeSpec::Shared, 4, 10)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_is_a_valid_wire_request() {
        for seed in [0, 7, u64::MAX] {
            for class in 0..CLASSES.len() {
                let request = request(seed, 1, 5, class);
                let line = request.to_json();
                assert_eq!(EvaluationRequest::parse(&line).unwrap(), request);
            }
            for request in priming(seed) {
                assert_eq!(
                    EvaluationRequest::parse(&request.to_json()).unwrap(),
                    request
                );
            }
        }
    }

    #[test]
    fn class_order_is_a_seeded_permutation() {
        for seed in 0..20 {
            let mut order = class_order(seed, 0);
            order.sort_unstable();
            assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        }
        assert_eq!(class_order(3, 1), class_order(3, 1));
        assert!((0..20).any(|s| class_order(s, 0) != class_order(s, 1)));
    }

    #[test]
    fn the_workload_seed_reaches_seeds_streams_and_worlds() {
        let (a, b) = (request(1, 0, 3, 5), request(2, 0, 3, 5));
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.stream, b.stream);
        let world = |r: &EvaluationRequest| match &r.kind {
            RequestKind::Evaluate(e) => e.world.content_hash(),
            other => panic!("unexpected {other:?}"),
        };
        assert_ne!(world(&a), world(&b));
        assert_ne!(world(&a), world(&request(1, 0, 9, 5)));
        assert_eq!(request(1, 0, 3, 5), a);
    }
}
