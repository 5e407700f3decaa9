//! Content-addressed LRU cache of prepared worlds.
//!
//! Building a [`World`] and its scenario precomputation (demand
//! marginals, region masses, the packed-bitset kernel tables) is the
//! expensive part of answering an evaluation request; varying regime,
//! suite size or seed on a built [`Scenario`] is cheap `Arc` sharing.
//! The cache therefore keys *base scenarios* by the request's world
//! spec, looked up by its [`WorldSpec::content_hash`] and confirmed by
//! comparing the whole spec, so a hash collision is a miss rather than
//! another world: requests for the same world — from any client, in
//! any order — share one prepared world, while the LRU bound keeps a
//! long-running server's memory proportional to its working set, not
//! its uptime.
//!
//! Cache state never leaks into responses (a response is a pure
//! function of its request); [`WorldCache::stats`] exists for
//! observability and the eviction-correctness tests.

use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_sim::scenario::Scenario;
use diversim_universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};

use crate::worlds::{self, World};

use super::error::ServeError;
use super::request::WorldSpec;

/// A built world held by the cache: the base [`Scenario`] (default
/// regime/suite/seed — callers vary it per request via the cheap
/// `with_*` methods) plus the label responses report.
#[derive(Debug)]
pub struct CachedWorld {
    /// The world's parameter-derived label.
    pub label: String,
    /// The base scenario owning the prepared world.
    pub scenario: Scenario,
}

/// Counters describing the cache's lifetime behaviour (server-side
/// observability only; see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from a cached world.
    pub hits: u64,
    /// Requests that had to build their world.
    pub misses: u64,
    /// Worlds dropped to respect the capacity bound.
    pub evictions: u64,
    /// Worlds currently held.
    pub len: usize,
}

/// One cached world and the spec it was built from.
struct Entry {
    hash: u64,
    /// Only specs that pass [`WorldSpec::validate`] are stored, and it
    /// rejects NaN parameters, so `==` on stored specs is an
    /// equivalence.
    spec: WorldSpec,
    world: Arc<CachedWorld>,
}

struct Inner {
    /// Most-recently-used first. Linear scan is fine: capacities are
    /// small (worlds are megabytes, not thousands).
    entries: Vec<Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The LRU world cache; see the [module docs](self).
pub struct WorldCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl std::fmt::Debug for WorldCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("WorldCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl Inner {
    /// Moves the entry for `spec` to the front and returns its world.
    fn touch(&mut self, hash: u64, spec: &WorldSpec) -> Option<Arc<CachedWorld>> {
        let pos = self
            .entries
            .iter()
            .position(|e| e.hash == hash && e.spec == *spec)?;
        let entry = self.entries.remove(pos);
        let world = Arc::clone(&entry.world);
        self.entries.insert(0, entry);
        Some(world)
    }
}

impl WorldCache {
    /// A cache holding at most `capacity` worlds (minimum 1).
    pub fn new(capacity: usize) -> Self {
        WorldCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// The world for `spec`, built on miss. The build runs *outside*
    /// the cache lock, so a slow world construction never blocks
    /// requests for already-cached worlds; if two requests race on the
    /// same miss, the first insertion wins and the loser's build is
    /// dropped (both get the same `Arc`).
    ///
    /// # Errors
    ///
    /// The [`WorldSpec`] validation and build errors
    /// ([`ServeError::InvalidField`], [`ServeError::World`],
    /// [`ServeError::Scenario`], [`ServeError::UnknownFixture`]).
    pub fn get(&self, spec: &WorldSpec) -> Result<Arc<CachedWorld>, ServeError> {
        let hash = spec.content_hash();
        {
            let mut inner = self.inner.lock().expect("world cache poisoned");
            if let Some(world) = inner.touch(hash, spec) {
                inner.hits += 1;
                return Ok(world);
            }
            inner.misses += 1;
        }

        spec.validate()?;
        let built = Arc::new(build_world(spec)?);

        let mut inner = self.inner.lock().expect("world cache poisoned");
        if let Some(world) = inner.touch(hash, spec) {
            // Lost the build race; keep the incumbent so every request
            // for this spec shares one prepared world.
            return Ok(world);
        }
        inner.entries.insert(
            0,
            Entry {
                hash,
                spec: spec.clone(),
                world: Arc::clone(&built),
            },
        );
        while inner.entries.len() > self.capacity {
            inner.entries.pop();
            inner.evictions += 1;
        }
        Ok(built)
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("world cache poisoned");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.entries.len(),
        }
    }
}

/// Builds the world a spec describes and its base scenario.
fn build_world(spec: &WorldSpec) -> Result<CachedWorld, ServeError> {
    let world: World = match spec {
        WorldSpec::Singleton { props } => World::singleton_uniform("request", props.clone())?,
        WorldSpec::Fixture { name } => {
            let build = worlds::fixture(name)
                .ok_or_else(|| ServeError::UnknownFixture { name: name.clone() })?;
            build()
        }
        WorldSpec::Generated {
            demands,
            faults,
            region_max,
            zipf,
            prop_lo,
            prop_hi,
            seed,
        } => {
            let universe_spec = UniverseSpec {
                n_demands: *demands,
                n_faults: *faults,
                region_size: RegionSize::Uniform {
                    min: 1,
                    max: *region_max,
                },
                profile: if *zipf > 0.0 {
                    ProfileKind::Zipf(*zipf)
                } else {
                    ProfileKind::Uniform
                },
            };
            let mut rng = StdRng::seed_from_u64(*seed);
            let (universe, pop) = universe_spec.generate_with_population(
                &mut rng,
                PropensityKind::Uniform {
                    lo: *prop_lo,
                    hi: *prop_hi,
                },
            )?;
            World::from_universe("generated", &universe, pop)
        }
    };
    let label = world.label().to_string();
    let scenario = world.scenario().build()?;
    Ok(CachedWorld { label, scenario })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singleton(props: &[f64]) -> WorldSpec {
        WorldSpec::Singleton {
            props: props.to_vec(),
        }
    }

    #[test]
    fn hits_share_the_built_world() {
        let cache = WorldCache::new(4);
        let a1 = cache.get(&singleton(&[0.1, 0.3])).unwrap();
        let a2 = cache.get(&singleton(&[0.1, 0.3])).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                len: 1
            }
        );
    }

    #[test]
    fn capacity_one_evicts_and_rebuilds() {
        let cache = WorldCache::new(1);
        let a1 = cache.get(&singleton(&[0.1])).unwrap();
        cache.get(&singleton(&[0.2])).unwrap();
        let a2 = cache.get(&singleton(&[0.1])).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2), "eviction must force a rebuild");
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn lru_keeps_the_recently_used_world() {
        let cache = WorldCache::new(2);
        let a = cache.get(&singleton(&[0.1])).unwrap();
        cache.get(&singleton(&[0.2])).unwrap();
        cache.get(&singleton(&[0.1])).unwrap(); // refresh a
        cache.get(&singleton(&[0.3])).unwrap(); // evicts 0.2, not a
        let a2 = cache.get(&singleton(&[0.1])).unwrap();
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn fixtures_and_generated_worlds_build() {
        let cache = WorldCache::new(8);
        let fixture = cache
            .get(&WorldSpec::Fixture {
                name: "small-graded".into(),
            })
            .unwrap();
        assert!(fixture.label.starts_with("small-graded"));
        let generated = cache
            .get(&WorldSpec::Generated {
                demands: 32,
                faults: 8,
                region_max: 2,
                zipf: 0.8,
                prop_lo: 0.05,
                prop_hi: 0.5,
                seed: 7,
            })
            .unwrap();
        assert!(generated.label.contains("32 demands"));
    }

    #[test]
    fn a_hash_collision_is_a_miss_not_another_world() {
        let cache = WorldCache::new(4);
        let a = singleton(&[0.1]);
        let b = WorldSpec::Fixture {
            name: "small-graded".into(),
        };
        let world_a = cache.get(&a).unwrap();
        // Plant A's world under B's hash, as an FNV-1a collision would.
        cache.inner.lock().unwrap().entries[0].hash = b.content_hash();
        let world_b = cache.get(&b).unwrap();
        assert!(!Arc::ptr_eq(&world_a, &world_b));
        assert!(
            world_b.label.starts_with("small-graded"),
            "{}",
            world_b.label
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 2, 2));
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let cache = WorldCache::new(0);
        cache.get(&singleton(&[0.1])).unwrap();
        assert_eq!(cache.stats().len, 1);
    }
}
