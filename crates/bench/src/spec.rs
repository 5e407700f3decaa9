//! Declarative experiment specifications and the per-run context.
//!
//! An [`ExperimentSpec`] is the single source of truth for one numbered
//! reproduction of Popov & Littlewood (DSN 2004): identity, the paper
//! result it regenerates, its sweep grid, its replication plan, and the
//! function that executes it. The registry (`crate::registry`) lists
//! all twenty; the engine (`crate::engine`) executes any of them
//! through `sim::runner`'s deterministic-parallel primitives; the CLI
//! (`crate::cli`) and the serve protocol are fronts over that one code
//! path.
//!
//! A [`RunContext`] runs on a [`Budget`] of worker threads. The thread
//! running the experiment holds one unit; every cell the experiment
//! declares ([`RunContext::cell`]) leases all spare units when it starts,
//! computes on `1 +` that many threads, and gives them back when it ends.
//! A run on its own has the budget to itself, so its cells compute on
//! all of it; under the engine's scheduler the experiments running side
//! by side share one budget, and a cell leases what finished experiments
//! left idle. Narration is kept in the context and printed by the
//! caller once the run is over.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::report::Table;
use crate::sweep::cell::{CellData, CellExecutor, CellId, CellScope};

/// Replication profile: how much Monte Carlo effort a run spends.
///
/// Experiments state their replication budgets *at full effort*; the
/// profile scales them. Statistical tolerances inside experiments are
/// written in terms of standard errors, so they widen automatically as
/// budgets shrink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Tiny budgets (full/200, floor 50): exercises every code path in
    /// seconds. Claim checks are recorded but *not* enforced — at this
    /// effort the statistical ones are pure noise.
    Smoke,
    /// Reduced budgets (full/10, floor 400): the CI profile. All claim
    /// checks are enforced.
    Fast,
    /// The paper-faithful budgets. All claim checks are enforced.
    #[default]
    Full,
}

impl Profile {
    /// Scales a full-effort replication budget down to this profile.
    pub fn replications(self, full: u64) -> u64 {
        match self {
            Profile::Smoke => full.min((full / 200).max(50)),
            Profile::Fast => full.min((full / 10).max(400)),
            Profile::Full => full,
        }
    }

    /// Whether failed claim checks fail the run.
    pub fn enforces_checks(self) -> bool {
        !matches!(self, Profile::Smoke)
    }

    /// The CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Fast => "fast",
            Profile::Full => "full",
        }
    }

    /// The inverse of [`Profile::name`]: resolves the CLI/wire
    /// spelling, `None` for anything else.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Profile::Smoke),
            "fast" => Some(Profile::Fast),
            "full" => Some(Profile::Full),
            _ => None,
        }
    }
}

/// One reproduction claim verified during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// What was checked (shown in reports and result files).
    pub label: String,
    /// Whether it held.
    pub passed: bool,
}

/// Axis scale of a declared figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// A linear axis.
    #[default]
    Linear,
    /// A base-10 logarithmic axis. Non-positive values cannot be placed
    /// and are skipped by the renderer.
    Log,
}

/// One plotted series of a [`FigureSpec`]: which table column carries
/// the y values, how the series is labelled, and (optionally) which
/// column carries its Monte Carlo standard error and which rows belong
/// to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesSpec {
    /// Legend label.
    pub label: &'static str,
    /// Header of the column holding the y values.
    pub y: &'static str,
    /// Header of the column holding the standard error of `y`, drawn as
    /// a ±2·SE confidence band around the line.
    pub se: Option<&'static str>,
    /// Row filter `(column, value)`: the series uses only rows whose
    /// `column` cell equals `value` exactly. Lets one long-format table
    /// carry several series (per world, per regime, per grid level).
    pub filter: Option<(&'static str, &'static str)>,
}

impl SeriesSpec {
    /// A plain series: `label`, drawn from column `y`, no band, all rows.
    pub const fn new(label: &'static str, y: &'static str) -> Self {
        SeriesSpec {
            label,
            y,
            se: None,
            filter: None,
        }
    }

    /// The same series with a ±2·SE band read from column `se`.
    pub const fn band(mut self, se: &'static str) -> Self {
        self.se = Some(se);
        self
    }

    /// The same series restricted to rows where `column` equals `value`.
    pub const fn only(mut self, column: &'static str, value: &'static str) -> Self {
        self.filter = Some((column, value));
        self
    }
}

/// A declared figure: how one of an experiment's emitted tables is
/// plotted in the reproduction report.
///
/// The declaration is pure metadata — the `book` module resolves it
/// against the recorded table (by index), extracts `(x, y)` points per
/// series, and hands them to the `render` module. Cells that do not
/// parse as numbers (after stripping a leading identifier prefix such
/// as the `x` of demand ids) are skipped, so tables may freely mix
/// plottable and narrative columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureSpec {
    /// Index into the experiment's emitted tables.
    pub table: usize,
    /// Figure caption (shown under the plot).
    pub caption: &'static str,
    /// Header of the column holding the x values.
    pub x: &'static str,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// X-axis scale.
    pub x_scale: Scale,
    /// Y-axis scale.
    pub y_scale: Scale,
    /// The plotted series, in palette order.
    pub series: &'static [SeriesSpec],
}

impl FigureSpec {
    /// A linear-scaled figure over table `table` with `x` on the x axis.
    pub const fn new(
        table: usize,
        caption: &'static str,
        x: &'static str,
        series: &'static [SeriesSpec],
    ) -> Self {
        FigureSpec {
            table,
            caption,
            x,
            x_label: x,
            y_label: "value",
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            series,
        }
    }

    /// The same figure with explicit axis labels.
    pub const fn labels(mut self, x_label: &'static str, y_label: &'static str) -> Self {
        self.x_label = x_label;
        self.y_label = y_label;
        self
    }

    /// The same figure with a logarithmic y axis.
    pub const fn log_y(mut self) -> Self {
        self.y_scale = Scale::Log;
        self
    }

    /// The same figure with a logarithmic x axis.
    pub const fn log_x(mut self) -> Self {
        self.x_scale = Scale::Log;
        self
    }
}

/// The declarative description of one experiment.
///
/// Everything here is static metadata except `run`, which executes the
/// experiment against a [`RunContext`].
#[derive(Debug, Clone, Copy)]
pub struct ExperimentSpec {
    /// Ordinal, 1–18.
    pub id: u8,
    /// Short handle accepted by the CLI (`"e01"`).
    pub slug: &'static str,
    /// Binary / result-file name (`"e01_el_model"`).
    pub name: &'static str,
    /// One-line human title.
    pub title: &'static str,
    /// The paper result(s) reproduced (`"eqs (6)-(7)"`).
    pub paper_ref: &'static str,
    /// The claim the run re-verifies.
    pub claim: &'static str,
    /// Human description of the sweep grid.
    pub sweep: &'static str,
    /// Total Monte Carlo replication budget at `--full` effort (`0` for
    /// purely exact/enumerative experiments).
    pub full_replications: u64,
    /// How the emitted tables are plotted in the reproduction report
    /// (`diversim report`). Indices refer to the tables in emission
    /// order; an empty slice renders a chapter without figures.
    pub figures: &'static [FigureSpec],
    /// Executes the experiment, recording tables and checks.
    pub run: fn(&mut RunContext),
}

/// A budget of worker threads that experiments share (`--threads`).
///
/// Each running experiment holds one unit; the units nobody holds or
/// leases are *spare*. A cell leases every spare unit while it computes
/// (see [`RunContext::cell`]), so at most [`threads`](Budget::threads)
/// threads compute at once.
#[derive(Debug)]
pub struct Budget {
    threads: usize,
    spare: AtomicUsize,
}

impl Budget {
    /// A budget of `threads` units, all spare: what the engine's
    /// scheduler hands out to its workers.
    ///
    /// # Panics
    ///
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        Budget {
            threads,
            spare: AtomicUsize::new(threads),
        }
    }

    /// The budget of one run on the calling thread: that thread holds
    /// one of the `threads` units for as long as the budget lives, and
    /// the rest are spare.
    ///
    /// # Panics
    ///
    /// If `threads == 0`.
    pub fn for_one_run(threads: usize) -> Arc<Self> {
        let budget = Budget::new(threads);
        budget.spare.store(threads - 1, Ordering::SeqCst);
        Arc::new(budget)
    }

    /// The units the budget was made with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The units nobody holds or leases right now.
    pub fn spare(&self) -> usize {
        self.spare.load(Ordering::SeqCst)
    }

    /// Takes up to `most` spare units until the returned lease drops.
    pub(crate) fn lease(&self, most: usize) -> Lease<'_> {
        let mut units = 0;
        // The closure never refuses, so the update always succeeds; it
        // may run more than once, and `units` keeps the winning take.
        let _ = self
            .spare
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |spare| {
                units = spare.min(most);
                Some(spare - units)
            });
        Lease {
            budget: self,
            units,
        }
    }
}

/// Units of a [`Budget`] taken by [`Budget::lease`]; dropping the lease
/// gives them back, also while a panic unwinds.
pub(crate) struct Lease<'a> {
    budget: &'a Budget,
    units: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.budget.spare.fetch_add(self.units, Ordering::SeqCst);
    }
}

/// Mutable state threaded through one experiment execution: the
/// profile and the thread budget in; tables, claim checks and narration
/// out.
#[derive(Debug)]
pub struct RunContext {
    profile: Profile,
    budget: Arc<Budget>,
    quiet: bool,
    experiment: &'static str,
    cells: Option<Box<dyn CellExecutor>>,
    tables: Vec<Table>,
    table_stems: Vec<String>,
    checks: Vec<Check>,
    narration: String,
}

impl RunContext {
    /// Creates a context for one run on `threads` threads of its own,
    /// whose cells compute inline (no executor).
    pub fn new(profile: Profile, threads: usize, quiet: bool) -> Self {
        Self::on_budget("", profile, Budget::for_one_run(threads), quiet, None)
    }

    /// Creates a context that attributes declared cells to
    /// `experiment`, routes them through `cells` (when given; `None`
    /// computes every cell inline) and leases their threads from
    /// `budget`. The thread that runs the experiment must hold one unit
    /// of `budget` while the run lasts.
    pub fn on_budget(
        experiment: &'static str,
        profile: Profile,
        budget: Arc<Budget>,
        quiet: bool,
        cells: Option<Box<dyn CellExecutor>>,
    ) -> Self {
        RunContext {
            profile,
            budget,
            quiet,
            experiment,
            cells,
            tables: Vec::new(),
            table_stems: Vec::new(),
            checks: Vec::new(),
            narration: String::new(),
        }
    }

    /// The active replication profile.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Scales a full-effort replication budget to the active profile.
    pub fn replications(&self, full: u64) -> u64 {
        self.profile.replications(full)
    }

    /// Declares one **cell** — the shardable, cacheable unit of a
    /// sweep — and returns its payload.
    ///
    /// `key` canonically encodes the sweep point (world, regime, grid
    /// coordinates, replication budget, root seed) in `k=v|k=v` form;
    /// together with the experiment name and profile it is the cell's
    /// complete identity (see [`CellId`]). `compute` must be a pure
    /// function of that identity and the [`CellScope`] it receives,
    /// returning a flat vector of finite values; tables, checks and
    /// narration must be derived from the returned payload *outside*
    /// the closure.
    ///
    /// Without an installed executor (`diversim run`) the closure runs
    /// inline. Under `diversim sweep` the executor may instead serve
    /// the payload from the content-addressed cell store, or skip the
    /// cell entirely when it belongs to another shard — the returned
    /// [`CellData`] then yields `0.0` placeholders and the sweep engine
    /// discards everything derived from them.
    ///
    /// The cell leases every spare unit of the run's [`Budget`] when it
    /// starts and gives them back when it returns (or unwinds): its
    /// [`CellScope::threads`] is the run's own unit plus the lease.
    pub fn cell(
        &mut self,
        key: impl Into<String>,
        compute: impl FnOnce(&CellScope) -> Vec<f64>,
    ) -> CellData {
        let id = CellId::new(self.experiment, self.profile, key);
        let lease = self.budget.lease(usize::MAX);
        let scope = CellScope::new(&id, 1 + lease.units);
        match self.cells.as_mut() {
            None => CellData::live(compute(&scope)),
            Some(executor) => {
                let mut once = Some(compute);
                let values = executor.execute(&id, &scope, &mut |s| {
                    (once.take().expect("cell compute closure called twice"))(s)
                });
                match values {
                    Some(values) => CellData::live(values),
                    None => CellData::skipped(),
                }
            }
        }
    }

    /// Adds a progress/narrative line to the narration unless the run
    /// is quiet.
    pub fn note(&mut self, message: impl AsRef<str>) {
        if !self.quiet {
            self.narration.push_str(message.as_ref());
            self.narration.push('\n');
        }
    }

    /// Records a finished table under a result-file stem, adding it to
    /// the narration unless quiet.
    pub fn emit(&mut self, table: Table, file_stem: &str) {
        if !self.quiet {
            self.narration.push_str(&table.render());
            self.narration.push('\n');
        }
        self.table_stems.push(file_stem.to_string());
        self.tables.push(table);
    }

    /// Records one reproduction-claim check.
    ///
    /// Failures are collected, not thrown: the engine fails the run
    /// afterwards when the profile enforces checks, and the result
    /// files record every check either way.
    pub fn check(&mut self, passed: bool, label: impl Into<String>) {
        self.checks.push(Check {
            passed,
            label: label.into(),
        });
    }

    /// The tables recorded so far.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// The per-table result-file stems (parallel to [`tables`](Self::tables)).
    pub fn table_stems(&self) -> &[String] {
        &self.table_stems
    }

    /// The checks recorded so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    /// The narration and tables recorded so far, as the run would print
    /// them (empty when quiet).
    pub fn narration(&self) -> &str {
        &self.narration
    }

    /// Labels of the failed checks.
    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.label.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_scaling_is_monotone_and_floored() {
        assert_eq!(Profile::Full.replications(60_000), 60_000);
        assert_eq!(Profile::Fast.replications(60_000), 6_000);
        assert_eq!(Profile::Smoke.replications(60_000), 300);
        // Floors kick in for small budgets…
        assert_eq!(Profile::Fast.replications(2_000), 400);
        assert_eq!(Profile::Smoke.replications(2_000), 50);
        // …but never exceed the full budget.
        assert_eq!(Profile::Fast.replications(100), 100);
        assert_eq!(Profile::Smoke.replications(30), 30);
    }

    #[test]
    fn profile_names_and_enforcement() {
        assert_eq!(Profile::Smoke.name(), "smoke");
        assert_eq!(Profile::Fast.name(), "fast");
        assert_eq!(Profile::Full.name(), "full");
        assert!(!Profile::Smoke.enforces_checks());
        assert!(Profile::Fast.enforces_checks());
        assert!(Profile::Full.enforces_checks());
        assert_eq!(Profile::default(), Profile::Full);
    }

    #[test]
    fn context_collects_tables_and_checks() {
        let mut ctx = RunContext::new(Profile::Smoke, 2, true);
        assert_eq!(ctx.replications(10_000), 50);
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        ctx.emit(t, "stem");
        ctx.check(true, "holds");
        ctx.check(false, "broken");
        assert_eq!(ctx.tables().len(), 1);
        assert_eq!(ctx.table_stems(), ["stem".to_string()]);
        assert_eq!(ctx.checks().len(), 2);
        assert_eq!(ctx.failed_checks(), vec!["broken"]);
        assert_eq!(ctx.narration(), "", "quiet runs narrate nothing");
    }

    #[test]
    fn narration_is_kept_in_print_order() {
        let mut ctx = RunContext::new(Profile::Smoke, 1, false);
        ctx.note("first");
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        let rendered = t.render();
        ctx.emit(t, "stem");
        ctx.note("last");
        assert_eq!(ctx.narration(), format!("first\n{rendered}\nlast\n"));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_context_panics() {
        let _ = RunContext::new(Profile::Full, 0, true);
    }

    #[test]
    fn cells_compute_inline_without_an_executor() {
        let mut ctx = RunContext::new(Profile::Fast, 3, true);
        let cell = ctx.cell("k=1", |scope| {
            assert_eq!(scope.threads(), 3);
            vec![1.0, 2.0]
        });
        assert!(cell.is_live());
        assert_eq!(cell.values(), &[1.0, 2.0]);
    }

    #[test]
    fn cells_lease_the_spare_units_and_give_them_back() {
        let budget = Arc::new(Budget::new(4));
        // Two experiments run: each holds a unit, two are spare.
        let held = budget.lease(2);
        let mut ctx = RunContext::on_budget("", Profile::Fast, Arc::clone(&budget), true, None);
        ctx.cell("k=1", |scope| {
            assert_eq!(scope.threads(), 3, "own unit plus both spare ones");
            assert_eq!(budget.spare(), 0);
            vec![]
        });
        assert_eq!(budget.spare(), 2);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.cell("k=2", |_| panic!("cell fails"));
        }));
        assert!(caught.is_err());
        assert_eq!(budget.spare(), 2, "an unwinding cell gives its lease back");
        drop(held);
        assert_eq!(budget.spare(), 4);
    }

    /// An executor that skips every other cell and records what it saw.
    #[derive(Debug, Default)]
    struct EveryOther {
        seen: Vec<String>,
    }

    impl CellExecutor for EveryOther {
        fn execute(
            &mut self,
            id: &CellId,
            scope: &CellScope,
            compute: &mut dyn FnMut(&CellScope) -> Vec<f64>,
        ) -> Option<Vec<f64>> {
            self.seen.push(id.canonical());
            if self.seen.len().is_multiple_of(2) {
                None
            } else {
                Some(compute(scope))
            }
        }
    }

    #[test]
    fn executor_sees_full_identity_and_can_skip() {
        let mut ctx = RunContext::on_budget(
            "e99_demo",
            Profile::Smoke,
            Budget::for_one_run(1),
            true,
            Some(Box::<EveryOther>::default()),
        );
        let first = ctx.cell("k=a", |_| vec![7.0]);
        let second = ctx.cell("k=b", |_| panic!("skipped cells must not compute"));
        assert!(first.is_live());
        assert_eq!(first.get(0), 7.0);
        assert!(!second.is_live());
        assert_eq!(second.get(0), 0.0);
    }

    #[test]
    fn figure_metadata_const_builders_compose() {
        const MC: SeriesSpec = SeriesSpec::new("MC joint", "MC joint")
            .band("MC se")
            .only("world", "mirrored");
        const FIG: FigureSpec = FigureSpec::new(1, "caption", "n", &[MC])
            .labels("suite size n", "system pfd")
            .log_y();
        assert_eq!(MC.label, "MC joint");
        assert_eq!(MC.se, Some("MC se"));
        assert_eq!(MC.filter, Some(("world", "mirrored")));
        assert_eq!(FIG.table, 1);
        assert_eq!(FIG.x, "n");
        assert_eq!(FIG.x_label, "suite size n");
        assert_eq!(FIG.y_label, "system pfd");
        assert_eq!(FIG.x_scale, Scale::Linear);
        assert_eq!(FIG.y_scale, Scale::Log);
        // Defaults: axis labels fall back to the x column / "value".
        const PLAIN: FigureSpec = FigureSpec::new(0, "c", "x", &[]);
        assert_eq!(PLAIN.x_label, "x");
        assert_eq!(PLAIN.y_label, "value");
        assert_eq!(PLAIN.y_scale, Scale::Linear);
        assert_eq!(Scale::default(), Scale::Linear);
    }
}
