//! The sweep driver: runs experiments cell-by-cell against a
//! [`CellStore`], with sharding, resume and drift verification.
//!
//! One [`sweep_experiment`] call executes one experiment exactly like
//! `diversim run` — same `RunContext`, same rendering — except that
//! every declared cell is routed through a [`StoreExecutor`]:
//!
//! - **unsharded, no resume**: every cell computes here and is
//!   persisted; the merged outputs are byte-identical to a direct run
//!   (the payload round-trips exactly, and everything else is derived
//!   outside cells).
//! - **`--shard i/n`**: only cells whose content hash lands in this
//!   shard compute (and persist); the rest are skipped with
//!   placeholders, so the outcome's tables are meaningless and the
//!   caller discards them — the cell store is the product.
//! - **`--resume`**: verified cached cells are served from the store
//!   (cache hit); missing or corrupt cells recompute. An unsharded
//!   resume over a fully populated store is the *merge* step: every
//!   cell hits and the run reassembles the exact result files.
//!
//! Shard membership is `content_hash(cell) mod n` — a pure function of
//! the cell identity, so partitions agree across machines, processes
//! and declaration order.

use std::sync::{Arc, Mutex};

use crate::engine::{run_experiment_on, RunOutcome};
use crate::spec::{Budget, ExperimentSpec, Profile};

use super::cell::{CellExecutor, CellId, CellScope};
use super::store::{CellLoad, CellStore};

/// One shard of a sweep: this process owns the cells whose content
/// hash is `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Which shard this is (`0..count`).
    pub index: u64,
    /// Total shards.
    pub count: u64,
}

impl Shard {
    /// Parses the CLI spelling `i/n` (e.g. `0/2`).
    ///
    /// # Errors
    ///
    /// A usage message when the spelling is not `i/n` with `i < n`,
    /// `n ≥ 1`.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let usage = || format!("--shard wants i/n with i < n, got {text:?}");
        let (i, n) = text.split_once('/').ok_or_else(usage)?;
        let index: u64 = i.trim().parse().map_err(|_| usage())?;
        let count: u64 = n.trim().parse().map_err(|_| usage())?;
        if count == 0 || index >= count {
            return Err(usage());
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns `id`.
    pub fn owns(&self, id: &CellId) -> bool {
        id.content_hash() % self.count == self.index
    }
}

/// What happened to the cells of one sweep pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Cells computed here (and persisted).
    pub computed: u64,
    /// Cells served from the store.
    pub hits: u64,
    /// Cells found corrupt on load and recomputed (counted in addition
    /// to `computed`).
    pub corrupt: u64,
    /// Cells skipped as out-of-shard.
    pub skipped: u64,
}

impl SweepStats {
    /// Total cells the experiment declared.
    pub fn declared(&self) -> u64 {
        self.computed + self.hits + self.skipped
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: SweepStats) {
        self.computed += other.computed;
        self.hits += other.hits;
        self.corrupt += other.corrupt;
        self.skipped += other.skipped;
    }

    /// The one-line summary the CLI prints per experiment and in total.
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} computed ({} after corruption), {} cached, {} skipped (other shards)",
            self.declared(),
            self.computed,
            self.corrupt,
            self.hits,
            self.skipped
        )
    }
}

/// How one sweep pass executes.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Replication profile.
    pub profile: Profile,
    /// Worker threads of a pass run on its own ([`sweep_experiment`]).
    pub threads: usize,
    /// Restrict computation to one shard (`None` = all cells).
    pub shard: Option<Shard>,
    /// Serve verified cached cells instead of recomputing them.
    pub resume: bool,
    /// Suppress narration and tables. Sharded passes are always quiet:
    /// their non-payload outputs are placeholder-driven garbage.
    pub quiet: bool,
}

/// One experiment's sweep result: the (merged) outcome plus what
/// happened to its cells.
#[derive(Debug)]
pub struct SweepRun {
    /// The engine outcome. Meaningful only for unsharded passes;
    /// sharded passes produce it structurally but its tables carry
    /// placeholders.
    pub outcome: RunOutcome,
    /// Cell accounting for this experiment.
    pub stats: SweepStats,
}

/// The store-backed [`CellExecutor`] a sweep pass installs.
#[derive(Debug)]
pub struct StoreExecutor {
    store: CellStore,
    shard: Option<Shard>,
    resume: bool,
    stats: Arc<Mutex<SweepStats>>,
}

impl CellExecutor for StoreExecutor {
    fn execute(
        &mut self,
        id: &CellId,
        scope: &CellScope,
        compute: &mut dyn FnMut(&CellScope) -> Vec<f64>,
    ) -> Option<Vec<f64>> {
        let mut stats = self.stats.lock().expect("sweep stats poisoned");
        if let Some(shard) = self.shard {
            if !shard.owns(id) {
                stats.skipped += 1;
                return None;
            }
        }
        if self.resume {
            match self.store.load(id) {
                CellLoad::Hit(values) => {
                    stats.hits += 1;
                    return Some(values);
                }
                CellLoad::Corrupt(reason) => {
                    eprintln!(
                        "sweep: corrupt cell {} ({}): {reason}; recomputing",
                        id.file_name(),
                        id.canonical()
                    );
                    stats.corrupt += 1;
                }
                CellLoad::Miss => {}
            }
        }
        let values = compute(scope);
        if let Err(e) = self.store.save(id, &values) {
            // A store that cannot persist cannot deliver resumability;
            // failing loudly beats silently recomputing forever.
            panic!(
                "sweep: failed to persist cell {} under {}: {e}",
                id.canonical(),
                self.store.dir().display()
            );
        }
        stats.computed += 1;
        Some(values)
    }
}

/// Runs one experiment's sweep pass against `store` on `opts.threads`
/// threads of its own (see the module docs for the mode semantics).
pub fn sweep_experiment(
    spec: &'static ExperimentSpec,
    store: &CellStore,
    opts: &SweepOptions,
) -> SweepRun {
    sweep_experiment_on(spec, store, opts, &Budget::for_one_run(opts.threads))
}

/// [`sweep_experiment`] on a budget shared with other runs, as
/// [`crate::engine::run_experiment_on`]: the calling thread holds one
/// unit of `budget`, and `opts.threads` is not read.
pub(crate) fn sweep_experiment_on(
    spec: &'static ExperimentSpec,
    store: &CellStore,
    opts: &SweepOptions,
    budget: &Arc<Budget>,
) -> SweepRun {
    let stats = Arc::new(Mutex::new(SweepStats::default()));
    let executor = StoreExecutor {
        store: store.clone(),
        shard: opts.shard,
        resume: opts.resume,
        stats: Arc::clone(&stats),
    };
    let quiet = opts.quiet || opts.shard.is_some();
    let outcome = run_experiment_on(spec, opts.profile, budget, quiet, Some(Box::new(executor)));
    let stats = *stats.lock().expect("sweep stats poisoned");
    SweepRun { outcome, stats }
}

/// The drift guard: byte-compares a merged sweep outcome against
/// `direct`, a cell-inline engine run of the same experiment and profile
/// (`diversim sweep --verify` makes it on the pass's shared budget).
///
/// # Errors
///
/// A description naming the experiment and which result file drifted.
pub fn verify_against_direct_run(sweep: &SweepRun, direct: &RunOutcome) -> Result<(), String> {
    let spec = sweep.outcome.spec;
    if sweep.outcome.json != direct.json {
        return Err(format!(
            "{}: sweep JSON drifted from the direct engine run",
            spec.name
        ));
    }
    if sweep.outcome.csv != direct.csv {
        return Err(format!(
            "{}: sweep CSV drifted from the direct engine run",
            spec.name
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parsing_accepts_i_slash_n_only() {
        assert_eq!(Shard::parse("0/2"), Ok(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("3/8"), Ok(Shard { index: 3, count: 8 }));
        for bad in ["", "1", "2/2", "3/2", "a/2", "1/b", "1/0", "-1/2"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn shards_partition_every_cell_exactly_once() {
        let ids: Vec<CellId> = (0..64)
            .map(|i| CellId::new("e99_demo", Profile::Fast, format!("k={i}")))
            .collect();
        for count in 1..=4u64 {
            for id in &ids {
                let owners = (0..count)
                    .filter(|&index| Shard { index, count }.owns(id))
                    .count();
                assert_eq!(
                    owners, 1,
                    "cell must belong to exactly one of {count} shards"
                );
            }
        }
    }

    #[test]
    fn stats_accumulate_and_summarise() {
        let mut total = SweepStats::default();
        total.add(SweepStats {
            computed: 3,
            hits: 2,
            corrupt: 1,
            skipped: 4,
        });
        total.add(SweepStats {
            computed: 1,
            hits: 0,
            corrupt: 0,
            skipped: 0,
        });
        assert_eq!(total.declared(), 10);
        assert_eq!(
            total.summary(),
            "10 cells: 4 computed (1 after corruption), 2 cached, 4 skipped (other shards)"
        );
    }
}
