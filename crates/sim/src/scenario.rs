//! The typed, precomputing entry point of the simulation engine.
//!
//! A [`Scenario`] is one fully specified instance of the paper's
//! stochastic process: draw versions from `S_A`/`S_B`, draw suites
//! i.i.d. from the operational profile, debug under a
//! [`CampaignRegime`], evaluate exactly over the demand space. It
//! replaces the crate's former family of 8–10-argument free functions
//! with one validated value, built by a [`ScenarioBuilder`]:
//!
//! * construction-time cross-validation (shared demand space, matching
//!   fault models, sane suite sizes, a well-formed structure, a regime
//!   whose parameters are in range and that the structure can run
//!   under) returns a typed [`ScenarioError`] instead of panicking
//!   mid-campaign; [`Scenario::with_regime`] and
//!   [`Scenario::with_structure`] re-run the structure and regime checks
//!   and [`Scenario::with_suite_size`] the suite-size cap, so every
//!   [`Scenario`] is valid;
//! * the system studies score one [`Structure`] (the paper's pair by
//!   default) over components drawn alternately from `S_A` and `S_B`
//!   ([`crate::system`]);
//! * the scenario owns a per-world [`Prepared`] cache (demand marginals,
//!   fault-region usage masses, disjoint-region fast path) built once and
//!   reused by every replication on every thread;
//! * every study is a method: [`Scenario::run`], [`Scenario::estimate`],
//!   [`Scenario::growth`], [`Scenario::adaptive_study`],
//!   [`Scenario::operate`], [`Scenario::mistakes`], …
//!
//! Scenarios are cheap to vary: [`Scenario::with_suite_size`],
//! [`Scenario::with_regime`], [`Scenario::with_seed`] and friends return
//! copies that share the prepared world via `Arc`, so a sweep over suite
//! sizes or regimes pays the precomputation exactly once.
//!
//! # Examples
//!
//! ```
//! use diversim_sim::scenario::Scenario;
//! use diversim_sim::campaign::CampaignRegime;
//! use diversim_sim::world::World;
//!
//! let world = World::singleton_uniform("demo", vec![0.1, 0.3, 0.5])?;
//! let scenario = world
//!     .scenario()
//!     .regime(CampaignRegime::SharedSuite)
//!     .suite_size(4)
//!     .seed(42)
//!     .build()?;
//!
//! // One campaign…
//! let outcome = scenario.run(7);
//! assert!(outcome.system_pfd <= outcome.system_pfd_before);
//! // …or a replicated estimate (deterministic for any thread count).
//! let est = scenario.estimate(500, 4);
//! assert!(est.system_pfd.mean >= 0.0 && est.system_pfd.mean <= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use diversim_core::error::CoreError;
use diversim_core::structure::Structure;
use diversim_stats::seed::SeedSequence;
use diversim_stats::stopping::StoppingRule;
use diversim_testing::error::TestingError;
use diversim_testing::fixing::{Fixer, PerfectFixer};
use diversim_testing::generation::{ProfileGenerator, SuiteGenerator};
use diversim_testing::oracle::{Oracle, PerfectOracle};
use diversim_universe::fault::FaultModel;
use diversim_universe::population::Population;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

use crate::adaptive::{AdaptiveOutcome, AdaptiveStudy};
use crate::campaign::{CampaignRegime, PairOutcome, PAIR};
use crate::common_cause::{ClarificationStudy, MistakeMode, MistakeStudy};
use crate::estimate::PairEstimates;
use crate::growth::{GrowthCurve, GrowthSample, MergedComparison, MergedEstimates};
use crate::operation::{CoverageStudy, OperationLog};
use crate::policy::{PolicyStudy, PolicyTrace};
use crate::prepared::Prepared;
use crate::system::{Before, SystemEstimates, SystemOutcome};
use crate::world::World;

/// Largest accepted suite size — far above any statistically sensible
/// value; the cap catches arithmetic mistakes (e.g. an underflowed
/// `usize`) before they allocate gigabytes of demands.
pub const MAX_SUITE_SIZE: usize = 1 << 24;

/// How replicated studies derive the seed of replication `i` from the
/// scenario's root seed.
///
/// # Examples
///
/// Both policies are pure functions of `(policy, i)`, which is what
/// makes every replicated study thread-count-independent:
///
/// ```
/// use diversim_sim::scenario::SeedPolicy;
///
/// // Offset: consecutive seeds, as historical experiments enumerated.
/// assert_eq!(SeedPolicy::offset(100).seed_for(3), 103);
///
/// // Sequence: SplitMix64-mixed — adjacent replications get unrelated
/// // seeds, and the derivation is stable across runs.
/// let mixed = SeedPolicy::sequence(100);
/// assert_ne!(mixed.seed_for(0), mixed.seed_for(1));
/// assert_eq!(mixed.seed_for(5), mixed.seed_for(5));
///
/// // Re-rooting keeps the derivation rule.
/// assert_eq!(mixed.with_root(7).root(), 7);
/// assert!(matches!(mixed.with_root(7), SeedPolicy::Sequence(7)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeedPolicy {
    /// SplitMix64-mixed seeds: replication `i` receives
    /// [`SeedSequence::new`]`(root)`[`.seed_for(0, i)`](SeedSequence::seed_for)
    /// (the default — distinct, well-mixed, collision-free).
    Sequence(u64),
    /// Consecutive seeds: replication `i` receives `root + i`. Matches
    /// experiments whose historical runs enumerated seeds directly.
    Offset(u64),
}

impl SeedPolicy {
    /// Mixed seeds rooted at `root` (see [`SeedPolicy::Sequence`]).
    pub fn sequence(root: u64) -> Self {
        SeedPolicy::Sequence(root)
    }

    /// Consecutive seeds starting at `root` (see [`SeedPolicy::Offset`]).
    pub fn offset(root: u64) -> Self {
        SeedPolicy::Offset(root)
    }

    /// The root seed.
    pub fn root(self) -> u64 {
        match self {
            SeedPolicy::Sequence(root) | SeedPolicy::Offset(root) => root,
        }
    }

    /// The same derivation rule with a different root.
    pub fn with_root(self, root: u64) -> Self {
        match self {
            SeedPolicy::Sequence(_) => SeedPolicy::Sequence(root),
            SeedPolicy::Offset(_) => SeedPolicy::Offset(root),
        }
    }

    /// The seed of replication `i`. Pure function of `(self, i)`, so
    /// replicated studies are deterministic for any thread count.
    pub fn seed_for(self, i: u64) -> u64 {
        match self {
            SeedPolicy::Sequence(root) => SeedSequence::new(root).seed_for(0, i),
            SeedPolicy::Offset(root) => root.wrapping_add(i),
        }
    }
}

impl Default for SeedPolicy {
    fn default() -> Self {
        SeedPolicy::Sequence(0)
    }
}

/// Why a [`ScenarioBuilder`] (or a scenario method with structured
/// arguments) rejected its inputs.
///
/// Every variant names the offending field or component, and the
/// `Display` messages are stable — the serve layer forwards them
/// verbatim as wire `error` strings. Marked `#[non_exhaustive]`:
/// future validations may add variants without a breaking change.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// A required ingredient was never supplied.
    Missing {
        /// Which ingredient (`"population"`, `"profile"`).
        what: &'static str,
    },
    /// The two populations are defined over different fault models, so no
    /// single campaign semantics exists for the pair.
    ModelMismatch,
    /// A component disagrees with the populations' demand space.
    SpaceMismatch {
        /// Which component (`"profile"`).
        what: &'static str,
        /// The populations' demand-space size.
        expected: usize,
        /// The component's demand-space size.
        found: usize,
    },
    /// The suite size exceeds [`MAX_SUITE_SIZE`].
    SuiteTooLarge {
        /// The requested size.
        size: usize,
        /// The cap it violated.
        limit: usize,
    },
    /// A growth study's checkpoint list is unusable.
    InvalidCheckpoints {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A confidence level outside `(0, 1)`.
    InvalidLevel {
        /// The offending level.
        level: f64,
    },
    /// An adaptive policy's parameter is out of range.
    InvalidPolicy {
        /// Which parameter (`"epsilon"`, `"c"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A back-to-back regime's identical-failure probability γ is
    /// outside `[0, 1]`.
    InvalidGamma {
        /// The offending γ.
        value: f64,
    },
    /// A policy study was requested on a scenario whose regime is not
    /// [`CampaignRegime::Adaptive`].
    NotAdaptive,
    /// A study that only has suite-based semantics was requested on an
    /// adaptive scenario.
    StaticRegimeRequired {
        /// Which study (`"growth"`).
        what: &'static str,
    },
    /// The scenario's structure function is malformed: an empty gate, a
    /// `k` outside `1..=n`, or a tree with no components.
    InvalidStructure {
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A regime with pair-only semantics (back-to-back comparison,
    /// adaptive budget allocation) was applied to a structure that does
    /// not have exactly two components.
    PairRegimeRequired {
        /// Which regime (`"back-to-back"`, `"adaptive"`).
        regime: &'static str,
        /// The system's component count.
        components: usize,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Missing { what } => write!(f, "scenario is missing its {what}"),
            ScenarioError::ModelMismatch => {
                write!(f, "the two populations use different fault models")
            }
            ScenarioError::SpaceMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what} covers {found} demands but the populations' space has {expected}"
            ),
            ScenarioError::SuiteTooLarge { size, limit } => {
                write!(f, "suite size {size} exceeds the sanity cap {limit}")
            }
            ScenarioError::InvalidCheckpoints { reason } => {
                write!(f, "invalid growth checkpoints: {reason}")
            }
            ScenarioError::InvalidLevel { level } => {
                write!(f, "confidence level {level} is outside (0, 1)")
            }
            ScenarioError::InvalidPolicy { what, value } => {
                write!(
                    f,
                    "adaptive policy parameter {what} = {value} is out of range"
                )
            }
            ScenarioError::InvalidGamma { value } => {
                write!(f, "back-to-back gamma = {value} is outside [0, 1]")
            }
            ScenarioError::NotAdaptive => {
                write!(f, "policy studies require an adaptive regime")
            }
            ScenarioError::StaticRegimeRequired { what } => {
                write!(f, "{what} studies require a static suite regime")
            }
            ScenarioError::InvalidStructure { reason } => {
                write!(f, "invalid system structure: {reason}")
            }
            ScenarioError::PairRegimeRequired { regime, components } => {
                write!(
                    f,
                    "{regime} campaigns require exactly two components, the system has {components}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Assembles a validated [`Scenario`]; see the [module docs](self).
///
/// Required: a population (or pair) and an operational profile. Everything
/// else defaults: the structure is the paper's 1-out-of-2 pair
/// ([`Structure::one_out_of_n`]`(2)`), the oracle and fixer are perfect
/// ([`PerfectOracle`] / [`PerfectFixer`]), the regime is
/// [`CampaignRegime::SharedSuite`], the suite is empty and the seed policy
/// is [`SeedPolicy::Sequence`]`(0)`. Suites are always drawn i.i.d. from
/// the operational profile ([`ProfileGenerator`]).
///
/// # Examples
///
/// The assessment lifecycle on one scenario — *estimate* the tested
/// pair, trace reliability *growth*, then *operate* a concrete pair:
///
/// ```
/// use diversim_sim::campaign::CampaignRegime;
/// use diversim_sim::scenario::{Scenario, SeedPolicy};
/// use diversim_sim::world::World;
///
/// let world = World::singleton_uniform("lifecycle", vec![0.3; 12])?;
///
/// // 1. Estimate: replicated campaigns → pfd estimates with intervals
/// // (byte-identical for any thread count).
/// let scenario = Scenario::builder()
///     .world(&world)
///     .regime(CampaignRegime::SharedSuite)
///     .suite_size(6)
///     .seeds(SeedPolicy::sequence(42))
///     .build()?;
/// let est = scenario.estimate(400, 2);
/// assert!(est.system_pfd.mean <= est.version_a_pfd.mean + 1e-12);
///
/// // 2. Growth: pfds at growing testing effort (checkpoint 0 records
/// // the untested pair).
/// let growth = scenario.growth(&[0, 4, 8], 200, 2)?;
/// assert!(growth.system[2].mean() <= growth.system[0].mean());
///
/// // 3. Operate: expose one debugged pair to operational demands.
/// let outcome = scenario.run(7);
/// let log = scenario.operate(&outcome.first, &outcome.second, 1_000, 9);
/// assert!(log.system_failures <= log.failures_a + log.failures_b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    pop_a: Option<Arc<dyn Population>>,
    pop_b: Option<Arc<dyn Population>>,
    profile: Option<UsageProfile>,
    structure: Structure,
    oracle: Arc<dyn Oracle>,
    fixer: Arc<dyn Fixer>,
    regime: CampaignRegime,
    suite_size: usize,
    seeds: SeedPolicy,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// An empty builder with the defaults described on the type.
    pub fn new() -> Self {
        ScenarioBuilder {
            pop_a: None,
            pop_b: None,
            profile: None,
            structure: Structure::one_out_of_n(2),
            oracle: Arc::new(PerfectOracle::new()),
            fixer: Arc::new(PerfectFixer::new()),
            regime: CampaignRegime::SharedSuite,
            suite_size: 0,
            seeds: SeedPolicy::default(),
        }
    }

    /// Uses one methodology for both versions.
    pub fn population<P: Population + 'static>(mut self, pop: P) -> Self {
        let pop: Arc<dyn Population> = Arc::new(pop);
        self.pop_a = Some(Arc::clone(&pop));
        self.pop_b = Some(pop);
        self
    }

    /// Uses two (possibly different) methodologies over one fault model.
    pub fn populations<A, B>(mut self, pop_a: A, pop_b: B) -> Self
    where
        A: Population + 'static,
        B: Population + 'static,
    {
        self.pop_a = Some(Arc::new(pop_a));
        self.pop_b = Some(Arc::new(pop_b));
        self
    }

    /// The structure function of the system studies (default: the
    /// paper's pair, [`Structure::one_out_of_n`]`(2)`); see [`crate::system`].
    pub fn structure(mut self, structure: Structure) -> Self {
        self.structure = structure;
        self
    }

    /// Loads a [`World`]'s populations and profile in one call.
    pub fn world(mut self, world: &World) -> Self {
        self.pop_a = Some(Arc::new(world.pop_a.clone()));
        self.pop_b = Some(Arc::new(world.pop_b.clone()));
        self.profile = Some(world.profile.clone());
        self
    }

    /// The operational profile `Q(·)`, used for exact pfd evaluation and
    /// for suite generation.
    pub fn profile(mut self, profile: UsageProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The failure-detection oracle (default: [`PerfectOracle`]).
    pub fn oracle<O: Oracle + 'static>(mut self, oracle: O) -> Self {
        self.oracle = Arc::new(oracle);
        self
    }

    /// The fault fixer (default: [`PerfectFixer`]).
    pub fn fixer<F: Fixer + 'static>(mut self, fixer: F) -> Self {
        self.fixer = Arc::new(fixer);
        self
    }

    /// The testing regime (default: [`CampaignRegime::SharedSuite`]).
    pub fn regime(mut self, regime: CampaignRegime) -> Self {
        self.regime = regime;
        self
    }

    /// Demands per generated suite (default: 0, a no-op campaign).
    pub fn suite_size(mut self, suite_size: usize) -> Self {
        self.suite_size = suite_size;
        self
    }

    /// The seed policy for replicated studies.
    pub fn seeds(mut self, seeds: SeedPolicy) -> Self {
        self.seeds = seeds;
        self
    }

    /// Shorthand for [`seeds`](Self::seeds)`(`[`SeedPolicy::Sequence`]`(root))`.
    pub fn seed(self, root: u64) -> Self {
        self.seeds(SeedPolicy::Sequence(root))
    }

    /// Validates the assembly and builds the scenario, including its
    /// per-world [`Prepared`] cache.
    ///
    /// # Errors
    ///
    /// * [`ScenarioError::Missing`] — no population or no profile;
    /// * [`ScenarioError::ModelMismatch`] — the populations' fault models
    ///   differ;
    /// * [`ScenarioError::SpaceMismatch`] — the profile covers a
    ///   different demand space than the populations;
    /// * [`ScenarioError::SuiteTooLarge`] — suite size above
    ///   [`MAX_SUITE_SIZE`];
    /// * [`ScenarioError::InvalidStructure`] — a malformed structure;
    /// * [`ScenarioError::InvalidPolicy`] — an adaptive regime whose
    ///   policy parameters are out of range;
    /// * [`ScenarioError::InvalidGamma`] — a back-to-back regime whose γ
    ///   is outside `[0, 1]`;
    /// * [`ScenarioError::PairRegimeRequired`] — a back-to-back or
    ///   adaptive regime on a structure without exactly two components.
    pub fn build(self) -> Result<Scenario, ScenarioError> {
        let missing = ScenarioError::Missing { what: "population" };
        let (pop_a, pop_b) = (self.pop_a.ok_or(missing)?, self.pop_b.ok_or(missing)?);
        if !Arc::ptr_eq(pop_a.model(), pop_b.model()) && pop_a.model() != pop_b.model() {
            return Err(ScenarioError::ModelMismatch);
        }
        let profile = self
            .profile
            .ok_or(ScenarioError::Missing { what: "profile" })?;
        let space = pop_a.model().space();
        if profile.space() != space {
            return Err(ScenarioError::SpaceMismatch {
                what: "profile",
                expected: space.len(),
                found: profile.space().len(),
            });
        }
        check_suite_size(self.suite_size)?;
        check_structure(&self.structure)?;
        check_regime(self.regime, &self.structure)?;
        let generator = Arc::new(ProfileGenerator::new(profile.clone()));
        let prepared = Arc::new(Prepared::new(Arc::clone(pop_a.model()), profile));
        Ok(Scenario {
            pop_a,
            pop_b,
            generator,
            oracle: self.oracle,
            fixer: self.fixer,
            regime: self.regime,
            suite_size: self.suite_size,
            seeds: self.seeds,
            structure: Arc::new(self.structure),
            prepared,
        })
    }
}

/// One validated, precomputed instance of the paper's stochastic process;
/// see the [module docs](self).
///
/// Cloning is cheap (everything heavy sits behind `Arc`s), and the
/// `with_*` methods hand out varied copies that share the prepared world.
#[derive(Debug, Clone)]
pub struct Scenario {
    pop_a: Arc<dyn Population>,
    pop_b: Arc<dyn Population>,
    generator: Arc<ProfileGenerator>,
    oracle: Arc<dyn Oracle>,
    fixer: Arc<dyn Fixer>,
    regime: CampaignRegime,
    suite_size: usize,
    seeds: SeedPolicy,
    structure: Arc<Structure>,
    prepared: Arc<Prepared>,
}

impl Scenario {
    /// Starts an empty [`ScenarioBuilder`].
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    // --- accessors -----------------------------------------------------

    /// The active testing regime.
    pub fn regime(&self) -> CampaignRegime {
        self.regime
    }

    /// Demands per generated suite.
    pub fn suite_size(&self) -> usize {
        self.suite_size
    }

    /// The replication seed policy.
    pub fn seeds(&self) -> SeedPolicy {
        self.seeds
    }

    /// The operational profile `Q(·)`.
    pub fn profile(&self) -> &UsageProfile {
        self.prepared.profile()
    }

    /// The shared fault model.
    pub fn model(&self) -> &Arc<FaultModel> {
        self.prepared.model()
    }

    /// The structure function of the system studies.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The methodology component `i` draws from: A when `i` is even, B
    /// when it is odd, so the pair is components 0 and 1.
    pub(crate) fn component(&self, i: usize) -> &dyn Population {
        [&self.pop_a, &self.pop_b][i % 2].as_ref()
    }

    pub(crate) fn generator(&self) -> &dyn SuiteGenerator {
        self.generator.as_ref()
    }

    pub(crate) fn oracle(&self) -> &dyn Oracle {
        self.oracle.as_ref()
    }

    pub(crate) fn fixer(&self) -> &dyn Fixer {
        self.fixer.as_ref()
    }

    pub(crate) fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    fn require_static_regime(&self, what: &'static str) -> Result<(), ScenarioError> {
        if matches!(self.regime, CampaignRegime::Adaptive(_)) {
            return Err(ScenarioError::StaticRegimeRequired { what });
        }
        Ok(())
    }

    fn require_adaptive_regime(&self) -> Result<(), ScenarioError> {
        if !matches!(self.regime, CampaignRegime::Adaptive(_)) {
            return Err(ScenarioError::NotAdaptive);
        }
        Ok(())
    }

    /// Streams `replications` jobs through the deterministic
    /// [`runner`](crate::runner)'s [`parallel_reduce`], each receiving
    /// the seed the scenario's [`SeedPolicy`] assigns to its replication
    /// index. The single place the policy meets the runner: every
    /// replicated study folds its observables through a
    /// [`Reducer`](diversim_stats::reduce::Reducer) instead of
    /// materialising per-replication vectors.
    ///
    /// [`parallel_reduce`]: crate::runner::parallel_reduce
    pub(crate) fn reduce<R, F>(
        &self,
        replications: u64,
        threads: usize,
        reducer: &R,
        job: F,
    ) -> R::Acc
    where
        R: diversim_stats::reduce::Reducer + Sync,
        R::Acc: Send,
        F: Fn(u64) -> R::Item + Sync,
    {
        let policy = self.seeds;
        crate::runner::parallel_reduce(
            replications,
            SeedSequence::new(policy.root()),
            threads,
            reducer,
            move |i, _| job(policy.seed_for(i)),
        )
    }

    // --- cheap variations (the prepared world is shared) ---------------

    /// The same scenario under a different regime.
    ///
    /// # Errors
    ///
    /// The regime errors of [`ScenarioBuilder::build`]:
    /// [`ScenarioError::InvalidPolicy`], [`ScenarioError::InvalidGamma`]
    /// and [`ScenarioError::PairRegimeRequired`].
    pub fn with_regime(&self, regime: CampaignRegime) -> Result<Self, ScenarioError> {
        check_regime(regime, &self.structure)?;
        let mut s = self.clone();
        s.regime = regime;
        Ok(s)
    }

    /// The same scenario with a different suite size.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::SuiteTooLarge`] if `suite_size` exceeds
    /// [`MAX_SUITE_SIZE`], as from [`ScenarioBuilder::build`].
    pub fn with_suite_size(&self, suite_size: usize) -> Result<Self, ScenarioError> {
        check_suite_size(suite_size)?;
        let mut s = self.clone();
        s.suite_size = suite_size;
        Ok(s)
    }

    /// The same scenario with a different seed policy.
    pub fn with_seeds(&self, seeds: SeedPolicy) -> Self {
        let mut s = self.clone();
        s.seeds = seeds;
        s
    }

    /// The same scenario re-rooted at `root` (the policy's derivation
    /// rule is kept).
    pub fn with_seed(&self, root: u64) -> Self {
        self.with_seeds(self.seeds.with_root(root))
    }

    /// The same scenario judged by a different oracle.
    pub fn with_oracle<O: Oracle + 'static>(&self, oracle: O) -> Self {
        let mut s = self.clone();
        s.oracle = Arc::new(oracle);
        s
    }

    /// The same scenario repaired by a different fixer.
    pub fn with_fixer<F: Fixer + 'static>(&self, fixer: F) -> Self {
        let mut s = self.clone();
        s.fixer = Arc::new(fixer);
        s
    }

    /// The same scenario scored by `structure` (see
    /// [`ScenarioBuilder::structure`]): even components draw from the A
    /// population and odd ones from the B population, so a
    /// two-component structure reproduces the classic A/B pair exactly.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidStructure`] for a malformed structure;
    /// [`ScenarioError::PairRegimeRequired`] if the active regime is
    /// back-to-back or adaptive and the structure does not have exactly
    /// two components.
    pub fn with_structure(&self, structure: Structure) -> Result<Self, ScenarioError> {
        check_structure(&structure)?;
        check_regime(self.regime, &structure)?;
        let mut s = self.clone();
        s.structure = Arc::new(structure);
        Ok(s)
    }

    // --- studies -------------------------------------------------------

    /// Runs one end-to-end campaign of the paper's pair, whatever the
    /// scenario's structure: [`Scenario::system_run`] over
    /// [`Structure::one_out_of_n`]`(2)`. Deterministic in `seed`.
    pub fn run(&self, seed: u64) -> PairOutcome {
        let ([first, second], before, after) =
            crate::system::campaign(self, &PAIR, seed, Before::All);
        let ([first_pfd, second_pfd], system_pfd) = after;
        let (pfds_before, system_pfd_before) = before.expect("evaluated before");
        let [first_pfd_before, second_pfd_before] = pfds_before.expect("evaluated before");
        PairOutcome {
            first,
            second,
            first_pfd,
            second_pfd,
            system_pfd,
            first_pfd_before,
            second_pfd_before,
            system_pfd_before,
        }
    }

    /// Estimates the marginal version and system pfds of the tested pair
    /// by `replications` campaigns, folded through
    /// [`crate::runner::parallel_reduce`].
    ///
    /// Byte-identical for any `threads`, including 1.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `replications == 0`.
    pub fn estimate(&self, replications: u64, threads: usize) -> PairEstimates {
        crate::estimate::estimate(self, replications, threads)
    }

    /// Runs one campaign of the scenario's structure (draw every
    /// component version, draw suite(s), debug each component, evaluate
    /// the composed system exactly). Deterministic in `seed`;
    /// [`Scenario::run`] is this campaign over the paper's pair.
    pub fn system_run(&self, seed: u64) -> SystemOutcome {
        let (versions, before, (component_pfds, system_pfd)) =
            crate::system::campaign(self, &self.structure, seed, Before::All);
        let (pfds_before, system_pfd_before) = before.expect("evaluated before");
        let component_pfds_before = pfds_before.expect("evaluated before");
        SystemOutcome {
            versions,
            component_pfds_before,
            component_pfds,
            system_pfd_before,
            system_pfd,
        }
    }

    /// Replicated system campaigns folded into per-component and system
    /// pfd estimates (byte-identical for any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `replications == 0`.
    pub fn system_estimate(&self, replications: u64, threads: usize) -> SystemEstimates {
        crate::system::estimate_system(self, replications, threads)
    }

    /// One reliability-growth trajectory: debugging proceeds demand by
    /// demand, recording exact pfds at each checkpoint (checkpoint 0
    /// records the untested pair).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCheckpoints`] if `checkpoints` is empty or
    /// not strictly increasing; [`ScenarioError::SuiteTooLarge`] if the
    /// last checkpoint exceeds [`MAX_SUITE_SIZE`];
    /// [`ScenarioError::StaticRegimeRequired`] under an adaptive regime
    /// (growth trajectories replay fixed demand streams, which adaptive
    /// allocation has no notion of).
    pub fn growth_sample(
        &self,
        checkpoints: &[usize],
        seed: u64,
    ) -> Result<GrowthSample, ScenarioError> {
        self.require_static_regime("growth")?;
        validate_checkpoints(checkpoints)?;
        Ok(crate::growth::growth_sample(self, checkpoints, seed))
    }

    /// Replicated growth trajectories aggregated into per-checkpoint
    /// statistics. Deterministic in `(seeds, replications)` for any
    /// thread count.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidCheckpoints`],
    /// [`ScenarioError::SuiteTooLarge`] and
    /// [`ScenarioError::StaticRegimeRequired`] as for
    /// [`Scenario::growth_sample`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn growth(
        &self,
        checkpoints: &[usize],
        replications: u64,
        threads: usize,
    ) -> Result<GrowthCurve, ScenarioError> {
        self.require_static_regime("growth")?;
        validate_checkpoints(checkpoints)?;
        Ok(crate::growth::growth(
            self,
            checkpoints,
            replications,
            threads,
        ))
    }

    /// One §3.4.1 merged-suite comparison: the same pair debugged (a) on
    /// two independent `n`-demand suites vs (b) on the merged `2n`-demand
    /// shared suite. The scenario's regime is immaterial — the comparison
    /// defines both arms itself.
    pub fn merged_comparison(&self, n: usize, seed: u64) -> MergedComparison {
        crate::growth::merged_comparison(self, n, seed)
    }

    /// Replicated [`Scenario::merged_comparison`], all four observables
    /// estimated jointly. Deterministic for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `replications == 0`.
    pub fn merged_estimate(&self, n: usize, replications: u64, threads: usize) -> MergedEstimates {
        crate::growth::merged_estimate(self, n, replications, threads)
    }

    /// One adaptive campaign: a freshly drawn version is debugged on
    /// demands drawn i.i.d. from the operational profile until `rule`
    /// fires (or `max_demands` is reached). The rule sees only *detected*
    /// failures.
    pub fn adaptive(&self, rule: StoppingRule, max_demands: u64, seed: u64) -> AdaptiveOutcome {
        crate::adaptive::adaptive_campaign(self, rule, max_demands, seed)
    }

    /// Replicated adaptive campaigns with calibration statistics against
    /// `target_pfd`. Deterministic for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn adaptive_study(
        &self,
        rule: StoppingRule,
        max_demands: u64,
        target_pfd: f64,
        replications: u64,
        threads: usize,
    ) -> AdaptiveStudy {
        crate::adaptive::adaptive_study(self, rule, max_demands, target_pfd, replications, threads)
    }

    /// The decision trace of one adaptive campaign: which version(s)
    /// received each test and what the oracle reported, plus the realised
    /// [allocation profile](crate::policy::AllocationProfile).
    /// Deterministic in `seed` (same rng stream as [`Scenario::run`]).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NotAdaptive`] unless the scenario's regime is
    /// [`CampaignRegime::Adaptive`].
    pub fn policy_trace(&self, seed: u64) -> Result<PolicyTrace, ScenarioError> {
        self.require_adaptive_regime()?;
        let mut steps = Vec::new();
        let (profile, _) = crate::campaign::allocation_profile(self, seed, Some(&mut steps));
        Ok(PolicyTrace { steps, profile })
    }

    /// Replicated adaptive campaigns reduced to allocation statistics
    /// (shared budget fraction, private/shared execution counts).
    /// Deterministic for any thread count.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NotAdaptive`] unless the scenario's regime is
    /// [`CampaignRegime::Adaptive`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn policy_study(
        &self,
        replications: u64,
        threads: usize,
    ) -> Result<PolicyStudy, ScenarioError> {
        self.require_adaptive_regime()?;
        Ok(crate::policy::policy_study(self, replications, threads))
    }

    /// Exposes a concrete (already tested) pair to `demands` operational
    /// demands drawn from the scenario's profile, recording version and
    /// system failures.
    pub fn operate(&self, a: &Version, b: &Version, demands: u64, seed: u64) -> OperationLog {
        crate::operation::operate(self, a, b, demands, seed)
    }

    /// Empirical coverage of the Clopper–Pearson assessment of a fixed
    /// pair's system pfd across replicated operational exposures.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidLevel`] if `level` is outside `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn coverage(
        &self,
        a: &Version,
        b: &Version,
        demands: u64,
        level: f64,
        replications: u64,
        threads: usize,
    ) -> Result<CoverageStudy, ScenarioError> {
        if !level.is_finite() || !(0.0..1.0).contains(&level) || level == 0.0 {
            return Err(ScenarioError::InvalidLevel { level });
        }
        Ok(crate::operation::coverage(
            self,
            a,
            b,
            demands,
            level,
            replications,
            threads,
        ))
    }

    /// Replicated §5 *mistake* study: draw a pair, inject `count` faults
    /// per [`MistakeMode`], measure the damage at both levels.
    pub fn mistakes(
        &self,
        count: usize,
        mode: MistakeMode,
        replications: u64,
        threads: usize,
    ) -> MistakeStudy {
        crate::common_cause::mistake_study(self, count, mode, replications, threads)
    }

    /// Replicated §5 *clarification* study: `count` random faults are
    /// resolved for both versions simultaneously.
    pub fn clarifications(
        &self,
        count: usize,
        replications: u64,
        threads: usize,
    ) -> ClarificationStudy {
        crate::common_cause::clarification_study(self, count, replications, threads)
    }
}

/// The one structure check every [`Scenario`] has passed, run by
/// [`ScenarioBuilder::build`] and [`Scenario::with_structure`]: every
/// gate has children, every `k` is in range, and the tree names at
/// least one component.
fn check_structure(structure: &Structure) -> Result<(), ScenarioError> {
    structure
        .validate(structure.component_count())
        .map_err(|err| match err {
            CoreError::InvalidStructure { reason } => ScenarioError::InvalidStructure { reason },
            _ => ScenarioError::InvalidStructure {
                reason: "structure has no components",
            },
        })
}

/// The one regime check every [`Scenario`] has passed, run by
/// [`ScenarioBuilder::build`], [`Scenario::with_regime`] and
/// [`Scenario::with_structure`]: the adaptive policy's parameters, the
/// back-to-back γ, and, for these pair-only regimes, a structure of
/// exactly two components. Suite regimes run any structure.
fn check_regime(regime: CampaignRegime, structure: &Structure) -> Result<(), ScenarioError> {
    let pair_only = match regime {
        CampaignRegime::Adaptive(policy) => policy.validate().map(|()| "adaptive")?,
        CampaignRegime::BackToBack(identical) => match identical.validate() {
            Err(TestingError::InvalidProbability { value, .. }) => {
                return Err(ScenarioError::InvalidGamma { value })
            }
            _ => "back-to-back",
        },
        CampaignRegime::IndependentSuites | CampaignRegime::SharedSuite => return Ok(()),
    };
    match structure.component_count() {
        2 => Ok(()),
        components => Err(ScenarioError::PairRegimeRequired {
            regime: pair_only,
            components,
        }),
    }
}

/// The suite-size cap, run by [`ScenarioBuilder::build`],
/// [`Scenario::with_suite_size`] and the growth studies' checkpoint
/// check; public so that front ends refuse the same sizes.
///
/// # Errors
///
/// [`ScenarioError::SuiteTooLarge`] if `size` exceeds
/// [`MAX_SUITE_SIZE`].
pub fn check_suite_size(size: usize) -> Result<(), ScenarioError> {
    if size > MAX_SUITE_SIZE {
        return Err(ScenarioError::SuiteTooLarge {
            size,
            limit: MAX_SUITE_SIZE,
        });
    }
    Ok(())
}

/// A growth study's checkpoints: non-empty, strictly increasing, and
/// the last one (the demands the trajectory debugs on) within the
/// suite-size cap. Run by [`Scenario::growth`] and
/// [`Scenario::growth_sample`]; public so that front ends refuse the
/// same lists.
///
/// # Errors
///
/// [`ScenarioError::InvalidCheckpoints`] if `checkpoints` is empty or not
/// strictly increasing; [`ScenarioError::SuiteTooLarge`] if the last
/// checkpoint exceeds [`MAX_SUITE_SIZE`].
pub fn validate_checkpoints(checkpoints: &[usize]) -> Result<(), ScenarioError> {
    let Some(&last) = checkpoints.last() else {
        return Err(ScenarioError::InvalidCheckpoints {
            reason: "need at least one checkpoint",
        });
    };
    if !checkpoints.windows(2).all(|w| w[0] < w[1]) {
        return Err(ScenarioError::InvalidCheckpoints {
            reason: "checkpoints must be strictly increasing",
        });
    }
    check_suite_size(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use diversim_testing::oracle::IdenticalFailureModel;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::FaultModelBuilder;
    use diversim_universe::population::BernoulliPopulation;

    fn world() -> World {
        World::singleton_uniform("test", vec![0.3, 0.5, 0.7]).unwrap()
    }

    #[test]
    fn missing_population_is_reported() {
        let err = ScenarioBuilder::new()
            .profile(world().profile)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::Missing { what: "population" });
    }

    #[test]
    fn missing_profile_is_reported() {
        let w = world();
        let err = ScenarioBuilder::new()
            .population(w.pop_a)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::Missing { what: "profile" });
    }

    #[test]
    fn mismatched_models_are_rejected() {
        let w = world();
        let other = World::singleton_uniform("other", vec![0.1, 0.2, 0.5, 0.9]).unwrap();
        let err = ScenarioBuilder::new()
            .populations(w.pop_a, other.pop_a)
            .profile(w.profile)
            .build()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ModelMismatch);
    }

    #[test]
    fn mismatched_profile_space_is_rejected() {
        let w = world();
        let wrong = UsageProfile::uniform(DemandSpace::new(5).unwrap());
        let err = ScenarioBuilder::new()
            .population(w.pop_a)
            .profile(wrong)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SpaceMismatch {
                what: "profile",
                expected: 3,
                found: 5
            }
        );
    }

    #[test]
    fn oversized_suite_is_rejected() {
        let err = world()
            .scenario()
            .suite_size(MAX_SUITE_SIZE + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SuiteTooLarge {
                size: MAX_SUITE_SIZE + 1,
                limit: MAX_SUITE_SIZE
            }
        );
    }

    #[test]
    fn every_suite_size_is_capped_with_a_typed_error() {
        let s = world().scenario().suite_size(2).build().unwrap();
        let too_large = ScenarioError::SuiteTooLarge {
            size: MAX_SUITE_SIZE + 1,
            limit: MAX_SUITE_SIZE,
        };
        assert_eq!(
            s.with_suite_size(MAX_SUITE_SIZE + 1).unwrap_err(),
            too_large
        );
        assert_eq!(
            s.with_suite_size(MAX_SUITE_SIZE).unwrap().suite_size(),
            MAX_SUITE_SIZE
        );
        assert_eq!(
            s.growth(&[0, MAX_SUITE_SIZE + 1], 1, 1).unwrap_err(),
            too_large
        );
        assert_eq!(
            s.growth_sample(&[MAX_SUITE_SIZE + 1], 0).unwrap_err(),
            too_large
        );
    }

    #[test]
    fn equal_but_separately_built_models_are_accepted() {
        // Arc identity is not required — structural model equality is.
        let build = || {
            let space = DemandSpace::new(2).unwrap();
            let model = std::sync::Arc::new(
                FaultModelBuilder::new(space)
                    .singleton_faults()
                    .build()
                    .unwrap(),
            );
            BernoulliPopulation::constant(model, 0.4).unwrap()
        };
        let (a, b) = (build(), build());
        let profile = UsageProfile::uniform(DemandSpace::new(2).unwrap());
        assert!(ScenarioBuilder::new()
            .populations(a, b)
            .profile(profile)
            .build()
            .is_ok());
    }

    #[test]
    fn bad_checkpoints_are_typed_errors() {
        let s = world().scenario().suite_size(2).build().unwrap();
        assert_eq!(
            s.growth_sample(&[], 0).unwrap_err(),
            ScenarioError::InvalidCheckpoints {
                reason: "need at least one checkpoint"
            }
        );
        assert_eq!(
            s.growth(&[3, 1], 10, 1).unwrap_err(),
            ScenarioError::InvalidCheckpoints {
                reason: "checkpoints must be strictly increasing"
            }
        );
    }

    #[test]
    fn bad_coverage_level_is_a_typed_error() {
        let s = world().scenario().build().unwrap();
        let model = s.model().clone();
        let v = Version::correct(&model);
        for level in [0.0, 1.0, -0.5] {
            assert_eq!(
                s.coverage(&v, &v, 10, level, 5, 1).unwrap_err(),
                ScenarioError::InvalidLevel { level },
                "level {level} should be rejected"
            );
        }
        assert!(matches!(
            s.coverage(&v, &v, 10, f64::NAN, 5, 1).unwrap_err(),
            ScenarioError::InvalidLevel { .. }
        ));
    }

    #[test]
    fn builder_rejects_gamma_outside_the_unit_interval() {
        for gamma in [1.5, -0.2, f64::NAN] {
            let regime = CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(gamma));
            let err = world().scenario().regime(regime).build().unwrap_err();
            assert!(
                matches!(err, ScenarioError::InvalidGamma { value } if value.to_bits() == gamma.to_bits()),
                "gamma {gamma} gave {err:?}"
            );
        }
        let edge = CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(1.0));
        assert!(world().scenario().regime(edge).build().is_ok());
    }

    #[test]
    fn with_regime_runs_the_builder_regime_check() {
        let s = world().scenario().suite_size(6).build().unwrap();
        let eps = PolicySpec::EpsilonGreedy { epsilon: 1.5 };
        assert_eq!(
            s.with_regime(CampaignRegime::Adaptive(eps)).unwrap_err(),
            ScenarioError::InvalidPolicy {
                what: "epsilon",
                value: 1.5
            }
        );
        let ucb = PolicySpec::UcbIndex { c: f64::NAN };
        assert!(matches!(
            s.with_regime(CampaignRegime::Adaptive(ucb)).unwrap_err(),
            ScenarioError::InvalidPolicy { what: "c", .. }
        ));
        let gamma = CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(-0.2));
        assert_eq!(
            s.with_regime(gamma).unwrap_err(),
            ScenarioError::InvalidGamma { value: -0.2 }
        );
        // A three-component system cannot run a pair-only regime.
        let three = s.with_structure(Structure::series(3)).unwrap();
        assert_eq!(
            three
                .with_regime(CampaignRegime::Adaptive(PolicySpec::RoundRobin))
                .unwrap_err(),
            ScenarioError::PairRegimeRequired {
                regime: "adaptive",
                components: 3
            }
        );
        assert!(three.with_regime(CampaignRegime::IndependentSuites).is_ok());
    }

    #[test]
    fn seed_policies_derive_documented_seeds() {
        assert_eq!(
            SeedPolicy::sequence(9).seed_for(3),
            SeedSequence::new(9).seed_for(0, 3)
        );
        assert_eq!(SeedPolicy::offset(100).seed_for(7), 107);
        assert_eq!(SeedPolicy::default(), SeedPolicy::Sequence(0));
        assert_eq!(
            SeedPolicy::offset(5).with_root(9),
            SeedPolicy::Offset(9),
            "with_root must keep the derivation rule"
        );
        assert_eq!(SeedPolicy::offset(5).root(), 5);
    }

    #[test]
    fn variations_share_the_prepared_world() {
        let s = world().scenario().suite_size(2).seed(1).build().unwrap();
        let varied = s
            .with_suite_size(5)
            .unwrap()
            .with_seed(9)
            .with_regime(CampaignRegime::IndependentSuites)
            .unwrap();
        assert!(Arc::ptr_eq(&s.prepared, &varied.prepared));
        assert_eq!(varied.suite_size(), 5);
        assert_eq!(varied.seeds().root(), 9);
        assert_eq!(varied.regime(), CampaignRegime::IndependentSuites);
        // The original is untouched.
        assert_eq!(s.suite_size(), 2);
        assert_eq!(s.regime(), CampaignRegime::SharedSuite);
    }

    #[test]
    fn errors_render_human_messages() {
        let text = format!(
            "{} / {} / {}",
            ScenarioError::Missing { what: "profile" },
            ScenarioError::ModelMismatch,
            ScenarioError::SuiteTooLarge { size: 9, limit: 5 }
        );
        assert!(text.contains("missing its profile"));
        assert!(text.contains("different fault models"));
        assert!(text.contains("exceeds the sanity cap"));
    }
}
