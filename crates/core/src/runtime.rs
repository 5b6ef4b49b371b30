//! The mission runtime: discovery → recruitment → synthesis → adaptive
//! execution, end to end over the simulator (paper Fig. 1).
//!
//! Execution is exposed at two granularities: [`run_mission`] runs a
//! scenario start to finish, and [`MissionRunner`] steps it one utility
//! window at a time so callers can checkpoint between windows (see
//! `iobt-ckpt` and [`MissionRunner::save`]).

use std::collections::BTreeSet;
use std::fmt;

use iobt_discovery::{
    recruit, AffiliationClassifier, DiscoveryTracker, EmissionModel, NaiveBayes, RecruitPolicy,
    TrackerConfig,
};
use iobt_netsim::{SimDuration, Simulator};
use iobt_obs::{Recorder, TraceEvent};
use iobt_synthesis::{assess, failure_probability, repair_with, AssuranceReport, CompositionProblem, CompositionResult, Solver};
use iobt_types::{Mission, NodeId, NodeSpec, TrustLedger};

use crate::behaviors::{
    new_report_log, new_task_board, CommandSink, ReportLog, SensorReporter, TaskBoard,
    TaskingSink, TaskingStats,
};
use crate::checkpoint::rebuild_from_plan;
use crate::resilience::{DegradationLadder, FailureDetector, LadderStep};
use crate::scenario::{Disruption, Scenario};

/// Execution configuration.
///
/// Construct with [`RunConfig::builder`]; the struct is `#[non_exhaustive]`
/// so it can grow fields without breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RunConfig {
    /// Total mission duration.
    pub duration: SimDuration,
    /// Utility sampling window.
    pub window: SimDuration,
    /// Sensor report period.
    pub report_period: SimDuration,
    /// Whether the runtime repairs the composition when utility drops
    /// (the paper's adaptive reflexes; `false` gives the static baseline).
    pub adaptive: bool,
    /// Utility threshold that triggers a repair.
    pub repair_threshold: f64,
    /// Coverage grid resolution (cells per side).
    pub grid: usize,
    /// Composition solver.
    pub solver: Solver,
    /// Drop recruited assets that cannot reach the command post over the
    /// initial connectivity graph (§III-B network composition: selecting a
    /// sensor that cannot report is wasted coverage).
    pub require_reachability: bool,
    /// Run the sim-time heartbeat failure detector between windows and
    /// repair as soon as nodes are suspected, instead of waiting for the
    /// window to close (requires `adaptive`). Off by default.
    pub early_repair: bool,
    /// Detector ticks per utility window when `early_repair` is on.
    pub detector_ticks: u32,
    /// A watched node is suspected after this many report periods of
    /// silence.
    pub suspicion_periods: f64,
    /// Shed mission requirements down the graceful-degradation ladder
    /// when utility stays critically low, and restore them when it
    /// recovers (requires `adaptive`). Off by default.
    pub degradation_ladder: bool,
    /// Utility below this for `ladder_patience` consecutive windows
    /// sheds one ladder level.
    pub shed_threshold: f64,
    /// Utility at or above this for `ladder_patience` consecutive
    /// windows restores one ladder level.
    pub restore_threshold: f64,
    /// Consecutive windows required before the ladder moves.
    pub ladder_patience: u32,
    /// Disseminate task assignments as acknowledged messages with
    /// bounded deterministic retries, instead of instantaneous
    /// out-of-band activation. Off by default.
    pub acked_tasking: bool,
    /// Maximum task transmission attempts per assignment.
    pub task_attempts: u32,
    /// Base retry delay for task dissemination; attempt `k` backs off
    /// `task_retry_base × 2^(k-1)`.
    pub task_retry_base: SimDuration,
    /// Observability recorder threaded through the whole pipeline
    /// (simulator, solver, repair reflex). Disabled by default.
    pub recorder: Recorder,
    /// Run the network simulator on its legacy reference path
    /// (one-event-at-a-time loop, per-query routing, full graph rebuild
    /// on every invalidation) instead of the batched/incremental fast
    /// path. Both paths are bit-identical by contract; this flag exists
    /// so equivalence tests can hold the oracle and the optimized run
    /// side by side in one process. Off by default.
    pub reference_mode: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            duration: SimDuration::from_secs_f64(120.0),
            window: SimDuration::from_secs_f64(10.0),
            report_period: SimDuration::from_secs_f64(2.0),
            adaptive: true,
            repair_threshold: 0.7,
            grid: 6,
            solver: Solver::Greedy,
            require_reachability: true,
            early_repair: false,
            detector_ticks: 4,
            suspicion_periods: 3.0,
            degradation_ladder: false,
            shed_threshold: 0.45,
            restore_threshold: 0.85,
            ladder_patience: 2,
            acked_tasking: false,
            task_attempts: 4,
            task_retry_base: SimDuration::from_millis(250),
            recorder: Recorder::disabled(),
            reference_mode: false,
        }
    }
}

impl RunConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder {
            config: RunConfig::default(),
        }
    }
}

/// Why a [`RunConfigBuilder`] refused to produce a [`RunConfig`].
///
/// Each variant names a configuration that would silently produce a
/// degenerate run (zero windows, a window that never closes, a
/// threshold no utility can ever cross).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RunConfigError {
    /// The utility window is zero: the window loop would never advance.
    ZeroWindow,
    /// The window is longer than the whole mission: not even one full
    /// window would close.
    WindowExceedsDuration {
        /// Configured window.
        window: SimDuration,
        /// Configured mission duration.
        duration: SimDuration,
    },
    /// A utility threshold lies outside `[0, 1]`, where utility lives.
    ThresholdOutOfRange {
        /// Which threshold field was rejected.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for RunConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunConfigError::ZeroWindow => {
                write!(f, "utility window must be positive")
            }
            RunConfigError::WindowExceedsDuration { window, duration } => write!(
                f,
                "window ({:.3} s) exceeds mission duration ({:.3} s)",
                window.as_secs_f64(),
                duration.as_secs_f64()
            ),
            RunConfigError::ThresholdOutOfRange { field, value } => {
                write!(f, "{field} = {value} is outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for RunConfigError {}

/// Builder for [`RunConfig`] (the supported construction path now that the
/// struct is `#[non_exhaustive]`).
///
/// [`RunConfigBuilder::build`] validates the configuration and returns a
/// typed [`RunConfigError`] for settings that would produce a degenerate
/// run.
///
/// ```
/// use iobt_core::runtime::RunConfig;
/// use iobt_netsim::SimDuration;
///
/// let cfg = RunConfig::builder()
///     .duration(SimDuration::from_secs_f64(60.0))
///     .adaptive(false)
///     .build()
///     .expect("valid configuration");
/// assert!(!cfg.adaptive);
///
/// let err = RunConfig::builder().window(SimDuration::ZERO).build();
/// assert!(err.is_err());
/// ```
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    config: RunConfig,
}

impl RunConfigBuilder {
    /// Sets the total mission duration.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.config.duration = duration;
        self
    }

    /// Sets the utility sampling window.
    pub fn window(mut self, window: SimDuration) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the sensor report period.
    pub fn report_period(mut self, period: SimDuration) -> Self {
        self.config.report_period = period;
        self
    }

    /// Enables or disables the repair reflex.
    pub fn adaptive(mut self, adaptive: bool) -> Self {
        self.config.adaptive = adaptive;
        self
    }

    /// Sets the utility threshold that triggers a repair.
    pub fn repair_threshold(mut self, threshold: f64) -> Self {
        self.config.repair_threshold = threshold;
        self
    }

    /// Sets the coverage grid resolution (cells per side).
    pub fn grid(mut self, grid: usize) -> Self {
        self.config.grid = grid;
        self
    }

    /// Sets the composition solver.
    pub fn solver(mut self, solver: Solver) -> Self {
        self.config.solver = solver;
        self
    }

    /// Enables or disables the reachability filter on recruited assets.
    pub fn require_reachability(mut self, require: bool) -> Self {
        self.config.require_reachability = require;
        self
    }

    /// Enables or disables between-window failure detection and early
    /// repair (active only when `adaptive` is also on).
    pub fn early_repair(mut self, enable: bool) -> Self {
        self.config.early_repair = enable;
        self
    }

    /// Sets the number of detector ticks per utility window.
    pub fn detector_ticks(mut self, ticks: u32) -> Self {
        self.config.detector_ticks = ticks;
        self
    }

    /// Sets the suspicion threshold in report periods.
    pub fn suspicion_periods(mut self, periods: f64) -> Self {
        self.config.suspicion_periods = periods;
        self
    }

    /// Enables or disables the graceful-degradation ladder (active only
    /// when `adaptive` is also on).
    pub fn degradation_ladder(mut self, enable: bool) -> Self {
        self.config.degradation_ladder = enable;
        self
    }

    /// Sets the ladder's shed threshold.
    pub fn shed_threshold(mut self, threshold: f64) -> Self {
        self.config.shed_threshold = threshold;
        self
    }

    /// Sets the ladder's restore threshold.
    pub fn restore_threshold(mut self, threshold: f64) -> Self {
        self.config.restore_threshold = threshold;
        self
    }

    /// Sets how many consecutive windows the ladder waits before moving.
    pub fn ladder_patience(mut self, patience: u32) -> Self {
        self.config.ladder_patience = patience;
        self
    }

    /// Enables or disables acknowledged task dissemination.
    pub fn acked_tasking(mut self, enable: bool) -> Self {
        self.config.acked_tasking = enable;
        self
    }

    /// Sets the task transmission attempt cap.
    pub fn task_attempts(mut self, attempts: u32) -> Self {
        self.config.task_attempts = attempts;
        self
    }

    /// Sets the base retry delay for task dissemination.
    pub fn task_retry_base(mut self, base: SimDuration) -> Self {
        self.config.task_retry_base = base;
        self
    }

    /// Attaches an observability recorder.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.config.recorder = recorder;
        self
    }

    /// Runs the simulator on its legacy reference path (the oracle for
    /// batched/incremental equivalence tests).
    pub fn reference_mode(mut self, enable: bool) -> Self {
        self.config.reference_mode = enable;
        self
    }

    /// Validates and finishes the builder.
    ///
    /// # Errors
    ///
    /// * [`RunConfigError::ZeroWindow`] — the utility window is zero;
    /// * [`RunConfigError::WindowExceedsDuration`] — the window is
    ///   longer than the mission;
    /// * [`RunConfigError::ThresholdOutOfRange`] — `repair_threshold`,
    ///   `shed_threshold` or `restore_threshold` lies outside `[0, 1]`
    ///   (including NaN).
    pub fn build(self) -> Result<RunConfig, RunConfigError> {
        let c = &self.config;
        if c.window.as_micros() == 0 {
            return Err(RunConfigError::ZeroWindow);
        }
        if c.window > c.duration {
            return Err(RunConfigError::WindowExceedsDuration {
                window: c.window,
                duration: c.duration,
            });
        }
        for (field, value) in [
            ("repair_threshold", c.repair_threshold),
            ("shed_threshold", c.shed_threshold),
            ("restore_threshold", c.restore_threshold),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(RunConfigError::ThresholdOutOfRange { field, value });
            }
        }
        Ok(self.config)
    }
}

/// The `Send` half of a [`RunConfig`]: every execution parameter except
/// the [`Recorder`] handle.
///
/// A `Recorder` is deliberately *not* `Send` (it is an `Rc` over shared
/// sinks — see `iobt-obs`), which makes a whole `RunConfig` thread-bound.
/// Schedulers like `iobt-fleet` that move mission work between worker
/// threads split the config with [`RunConfig::into_portable`], ship this
/// carrier across, and rebuild a full config on the destination thread
/// with [`PortableRunConfig::into_config`], attaching a recorder that
/// lives on that thread.
///
/// The split/rebuild round trip is exact: rebuilding with the original
/// recorder yields a config equivalent to the one that was split.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableRunConfig {
    pub(crate) duration: SimDuration,
    pub(crate) window: SimDuration,
    pub(crate) report_period: SimDuration,
    pub(crate) adaptive: bool,
    pub(crate) repair_threshold: f64,
    pub(crate) grid: usize,
    pub(crate) solver: Solver,
    pub(crate) require_reachability: bool,
    pub(crate) early_repair: bool,
    pub(crate) detector_ticks: u32,
    pub(crate) suspicion_periods: f64,
    pub(crate) degradation_ladder: bool,
    pub(crate) shed_threshold: f64,
    pub(crate) restore_threshold: f64,
    pub(crate) ladder_patience: u32,
    pub(crate) acked_tasking: bool,
    pub(crate) task_attempts: u32,
    pub(crate) task_retry_base: SimDuration,
    pub(crate) reference_mode: bool,
}

// The whole point of the carrier: it must stay `Send` even as `RunConfig`
// grows fields. A thread-bound field mistakenly carried over would surface
// here as a compile error rather than in downstream crates.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PortableRunConfig>();
};

impl RunConfig {
    /// Splits this config into its thread-portable half and the recorder
    /// handle (the only field that cannot cross threads).
    pub fn into_portable(self) -> (PortableRunConfig, Recorder) {
        // Exhaustive destructure on purpose: a field added to `RunConfig`
        // must be consciously routed here (portable) or declared
        // thread-bound, never silently dropped.
        let RunConfig {
            duration,
            window,
            report_period,
            adaptive,
            repair_threshold,
            grid,
            solver,
            require_reachability,
            early_repair,
            detector_ticks,
            suspicion_periods,
            degradation_ladder,
            shed_threshold,
            restore_threshold,
            ladder_patience,
            acked_tasking,
            task_attempts,
            task_retry_base,
            recorder,
            reference_mode,
        } = self;
        (
            PortableRunConfig {
                duration,
                window,
                report_period,
                adaptive,
                repair_threshold,
                grid,
                solver,
                require_reachability,
                early_repair,
                detector_ticks,
                suspicion_periods,
                degradation_ladder,
                shed_threshold,
                restore_threshold,
                ladder_patience,
                acked_tasking,
                task_attempts,
                task_retry_base,
                reference_mode,
            },
            recorder,
        )
    }
}

impl PortableRunConfig {
    /// Rebuilds a full [`RunConfig`] on the current thread, attaching
    /// `recorder` (pass [`Recorder::disabled`] to run silent).
    pub fn into_config(self, recorder: Recorder) -> RunConfig {
        let PortableRunConfig {
            duration,
            window,
            report_period,
            adaptive,
            repair_threshold,
            grid,
            solver,
            require_reachability,
            early_repair,
            detector_ticks,
            suspicion_periods,
            degradation_ladder,
            shed_threshold,
            restore_threshold,
            ladder_patience,
            acked_tasking,
            task_attempts,
            task_retry_base,
            reference_mode,
        } = self;
        RunConfig {
            duration,
            window,
            report_period,
            adaptive,
            repair_threshold,
            grid,
            solver,
            require_reachability,
            early_repair,
            detector_ticks,
            suspicion_periods,
            degradation_ladder,
            shed_threshold,
            restore_threshold,
            ladder_patience,
            acked_tasking,
            task_attempts,
            task_retry_base,
            recorder,
            reference_mode,
        }
    }
}

/// Utility measured over one window.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct WindowStat {
    /// Window start, seconds.
    pub start_s: f64,
    /// Nodes expected to report (current selection size).
    pub expected: usize,
    /// Distinct selected nodes whose reports arrived.
    pub reporting: usize,
    /// `reporting / expected` (1.0 when nothing was expected).
    pub utility: f64,
}

/// What one [`MissionRunner::step_window`] call did.
///
/// Replaces the old bare `Option<WindowStat>` progress signal so callers —
/// schedulers in particular — branch on meaning rather than on `Option`
/// combinators. `#[non_exhaustive]` so further outcomes (e.g. a yield
/// point finer than a window) can be added without breaking matches that
/// already handle the two fundamental cases.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum StepOutcome {
    /// One utility window executed and closed.
    WindowClosed {
        /// Zero-based index of the window that just closed.
        window: usize,
        /// The utility measured over it.
        stats: WindowStat,
    },
    /// Every window had already executed; nothing ran. The runner is at a
    /// window boundary and [`MissionRunner::finish`] will produce the
    /// report.
    Finished,
}

impl StepOutcome {
    /// The closed window's stats, or `None` if the mission was already
    /// finished. The bridge for callers that only care about the
    /// measurement (and for tests that `expect` a window to run).
    pub fn window_stat(self) -> Option<WindowStat> {
        match self {
            StepOutcome::WindowClosed { stats, .. } => Some(stats),
            StepOutcome::Finished => None,
        }
    }

    /// `true` when the mission had no window left to run.
    pub fn is_finished(self) -> bool {
        matches!(self, StepOutcome::Finished)
    }
}

/// A full end-state fingerprint of a mission run.
///
/// Captures everything observable about where a run ended — event
/// counters, per-node energy, utility, repairs, and the final selection —
/// so reproducibility tests can assert that two runs of the same scenario
/// and seed agree on *all* of it, not just a summary statistic. Built by
/// [`run_mission`] from the simulator's terminal state.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EndStateDigest {
    /// Messages sent.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped (all causes).
    pub dropped: u64,
    /// Drops for lack of a route.
    pub dropped_no_route: u64,
    /// Drops lost on the channel.
    pub dropped_channel: u64,
    /// Drops because an endpoint was dead.
    pub dropped_dead: u64,
    /// Drops because an endpoint was asleep.
    pub dropped_asleep: u64,
    /// MAC retransmissions across all hops.
    pub retransmits: u64,
    /// Messages tampered by compromised relays.
    pub tampered: u64,
    /// Total energy drawn across the run, joules.
    pub energy_spent_j: f64,
    /// Remaining energy per node at mission end, ascending node id.
    pub node_energy_j: Vec<(NodeId, f64)>,
    /// Mean utility across windows.
    pub mean_utility: f64,
    /// Repairs performed.
    pub repairs: usize,
    /// Final selection (candidate indices), ascending.
    pub final_selection: Vec<usize>,
    /// Resilience counters (suspicions, early repairs, ladder moves,
    /// tasking retries) — part of the digest so same-seed runs must
    /// agree on the whole reaction history, not just the outcome.
    pub resilience: ResilienceReport,
}

/// Counters from the failure-detection / graceful-degradation /
/// acked-tasking reaction layer, for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResilienceReport {
    /// Nodes the heartbeat detector suspected (and handed to repair).
    pub suspected: u64,
    /// Repairs applied from a detector tick rather than a window close.
    pub early_repairs: u64,
    /// Ladder levels shed.
    pub sheds: u64,
    /// Ladder levels restored.
    pub restores: u64,
    /// Ladder level at mission end (0 = full requirement).
    pub final_ladder_level: u64,
    /// Acked task dissemination counters (all zero unless
    /// `acked_tasking` is on).
    pub tasking: TaskingStats,
}

/// Full mission outcome.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct MissionReport {
    /// Assets admitted by recruitment.
    pub recruited: usize,
    /// Assets rejected as suspected red.
    pub rejected_red: usize,
    /// Recruited assets dropped because they could not reach the command
    /// post (only counted when `require_reachability` is on).
    pub unreachable: usize,
    /// Fraction of admitted assets that are truly red (ground truth).
    pub infiltration_rate: f64,
    /// The initial composition.
    pub composition: CompositionResult,
    /// Assurance prediction for the initial composition: probability of
    /// retaining ≥ 90% of the deployed coverage under trust-derived
    /// independent failures.
    pub assurance: AssuranceReport,
    /// Per-window utility trace.
    pub windows: Vec<WindowStat>,
    /// Repairs performed during execution.
    pub repairs: usize,
    /// Network delivery ratio across the run.
    pub delivery_ratio: f64,
    /// Mean end-to-end report latency in milliseconds.
    pub mean_latency_ms: f64,
    /// End-state fingerprint for reproducibility checks.
    pub digest: EndStateDigest,
}

impl MissionReport {
    /// Mean utility across windows.
    pub fn mean_utility(&self) -> f64 {
        if self.windows.is_empty() {
            return 0.0;
        }
        self.windows.iter().map(|w| w.utility).sum::<f64>() / self.windows.len() as f64
    }

    /// Worst window utility.
    pub fn min_utility(&self) -> f64 {
        self.windows
            .iter()
            .map(|w| w.utility)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Mean utility over windows starting at or after `t_s` — used to
    /// measure post-disruption recovery.
    pub fn utility_after(&self, t_s: f64) -> f64 {
        let tail: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.start_s >= t_s)
            .map(|w| w.utility)
            .collect();
        if tail.is_empty() {
            0.0
        } else {
            tail.iter().sum::<f64>() / tail.len() as f64
        }
    }
}

/// The phase 1–3 product of a mission — discovery, recruitment,
/// synthesis and assurance (the paper's Fig. 1 flow up to execution) —
/// composed once and reusable by every resume of that mission.
///
/// A plan is a pure function of `(scenario, config)`, and it is `Send`,
/// so a scheduler can keep it beside the mission's checkpoint bytes and
/// hand it to [`MissionRunner::resume_from_plan`] instead of recomposing
/// the mission at each resume. It stays compact on purpose: it holds the
/// admitted asset ids, not their specs, and no composition problem.
/// A runner, fresh or resumed, rebuilds both from `scenario.catalog` and
/// [`CompositionProblem::from_mission`], which costs microseconds where
/// phases 1–3 cost most of a millisecond at 32 nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionPlan {
    pub(crate) seed: u64,
    /// Admitted assets that passed the reachability probe, in
    /// recruitment order: the composition problem's candidate source.
    pub(crate) admitted: Vec<NodeId>,
    pub(crate) recruited: usize,
    pub(crate) rejected_red: usize,
    pub(crate) unreachable: usize,
    pub(crate) infiltration_rate: f64,
    pub(crate) composition: CompositionResult,
    pub(crate) assurance: AssuranceReport,
}

// Plans cross worker threads inside fleet slots.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<MissionPlan>();
};

impl MissionPlan {
    /// Runs phases 1–3. `recorder` observes the recruitment and solve
    /// events: pass the mission's live recorder on a fresh run and
    /// [`Recorder::disabled`] when recomposing for a resume (the restored
    /// recorder already counted those events the first time).
    pub fn compose(scenario: &Scenario, config: &RunConfig, recorder: &Recorder) -> Self {
        // ---- Phase 1: discovery (side-channel classification + tracking) ----
        let mut emissions = EmissionModel::new(scenario.seed ^ 0xD15C);
        let train = emissions.labelled_dataset(300);
        // lint: allow(panic) — labelled_dataset(300) emits 100 examples per class, so fit always succeeds
        let classifier = NaiveBayes::fit(&train).expect("balanced training set");
        let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
        let mut ledger = TrustLedger::new();
        for node in scenario.catalog.iter() {
            // Red emitters camouflage as gray 10% of the time.
            let obs = emissions.observe_with_spoofing(node.affiliation(), 0.1);
            let posterior = classifier.posterior(&obs);
            tracker.observe(node.id(), 0.0, node.position(), posterior);
            // Second sighting sharpens most estimates (continuous discovery).
            let obs2 = emissions.observe_with_spoofing(node.affiliation(), 0.1);
            tracker.observe(node.id(), 1.0, node.position(), classifier.posterior(&obs2));
            let est = tracker
                .estimate(node.id())
                // lint: allow(panic) — observe() for this id ran two lines up, so the estimate exists
                .expect("just observed")
                .affiliation();
            ledger.enroll(node.id(), est);
        }

        // ---- Phase 2: recruitment ----
        let pool = recruit(
            &scenario.catalog,
            &tracker,
            &ledger,
            &RecruitPolicy::default(),
            2.0,
            TrackerConfig::default().presence_tau_s,
        );
        recorder.record_at(
            0,
            TraceEvent::Recruitment {
                candidates: scenario.catalog.len() as u64,
                recruited: pool.admitted.len() as u64,
            },
        );

        // ---- Phase 3: synthesis + assurance ----
        let mut specs: Vec<NodeSpec> = pool.admitted.iter().map(|a| a.spec.clone()).collect();
        let mut unreachable = 0usize;
        if config.require_reachability {
            // Build the initial connectivity graph once and keep only assets
            // with a route to the command post.
            let mut probe_sim = Simulator::builder(scenario.catalog.clone())
                .terrain(scenario.terrain.clone())
                .seed(scenario.seed)
                .reference_mode(config.reference_mode)
                .build();
            let graph = probe_sim.connectivity();
            let before = specs.len();
            specs.retain(|spec| graph.route(spec.id(), scenario.command_post).is_some());
            unreachable = before - specs.len();
        }
        let problem = CompositionProblem::from_mission(&scenario.mission, &specs, config.grid);
        let composition = config.solver.solve_observed(&problem, recorder);
        let failure_probs: Vec<f64> = composition
            .selected
            .iter()
            .map(|&i| failure_probability(problem.candidates[i].trust, 0.05, 0.3))
            .collect();
        // Assurance is quantified against what was actually deployed: success
        // means retaining >= 90% of the composition's achieved coverage under
        // failures. (The mission's own target may be infeasible for the
        // population, which would make the probability degenerately zero.)
        let mut assurance_problem = problem.clone();
        assurance_problem.required_fraction = composition.coverage * 0.9;
        let assurance = assess(
            &assurance_problem,
            &composition.selected,
            &failure_probs,
            2_000,
            scenario.seed ^ 0xA55E,
        );
        MissionPlan {
            seed: scenario.seed,
            admitted: specs.iter().map(NodeSpec::id).collect(),
            recruited: pool.admitted.len(),
            rejected_red: pool.rejected_red.len(),
            unreachable,
            infiltration_rate: pool.infiltration_rate(),
            composition,
            assurance,
        }
    }
}

/// Builds the phase-4 simulator over the scenario. `schedule_faults` is
/// `false` at checkpoint resume: the restored event queue already holds
/// every scheduled disruption and fault event, and scheduling them again
/// would both duplicate the queue entries and re-emit their
/// `FaultScheduled` trace records.
pub(crate) fn build_sim(
    scenario: &Scenario,
    config: &RunConfig,
    schedule_faults: bool,
) -> Simulator {
    let mut builder = Simulator::builder(scenario.catalog.clone())
        .terrain(scenario.terrain.clone())
        .seed(scenario.seed)
        .reference_mode(config.reference_mode)
        .recorder(config.recorder.clone());
    for j in &scenario.jammers {
        builder = builder.jammer(*j);
    }
    let mut sim = builder.build();
    if schedule_faults {
        for d in &scenario.disruptions {
            match *d {
                Disruption::JammerOn { at, index } => sim.schedule_jammer(at, index, true),
                Disruption::NodeLoss { at, node } => sim.schedule_node_down(at, node),
            }
        }
        scenario.fault_plan.schedule(&mut sim);
    }
    sim
}

/// Step-at-a-time mission execution with crash-safe checkpointing.
///
/// [`MissionRunner::new`] composes the mission's [`MissionPlan`]
/// (discovery, recruitment, synthesis, assurance) and stands up the
/// simulator; [`MissionRunner::step_window`] then executes one utility
/// window at a time, which is exactly the granularity checkpoints are
/// taken at: call [`MissionRunner::save`] between steps, persist the
/// payload with `iobt_ckpt::CheckpointStore`, and after a crash rebuild
/// the runner with [`MissionRunner::resume`], or with
/// [`MissionRunner::resume_from_plan`] when the plan was kept. A resumed
/// run continues the same event, RNG and trace sequence as the
/// uninterrupted run — same-seed digests and metrics fingerprints match
/// bit for bit.
///
/// [`run_mission`] is the convenience wrapper that steps a fresh runner
/// to completion.
pub struct MissionRunner {
    pub(crate) scenario: Scenario,
    pub(crate) config: RunConfig,
    // Phase 1–3 products (kept in the plan or recomputed, never
    // checkpointed); `specs` and `base_problem` are derived from `plan`.
    pub(crate) plan: MissionPlan,
    pub(crate) specs: Vec<NodeSpec>,
    pub(crate) base_problem: CompositionProblem,
    pub(crate) problem: CompositionProblem,
    // Phase 4 (execution) state — everything below is checkpointed.
    pub(crate) sim: Simulator,
    pub(crate) log: ReportLog,
    pub(crate) board: TaskBoard,
    pub(crate) selection: Vec<usize>,
    pub(crate) current: CompositionResult,
    pub(crate) active_reporters: BTreeSet<NodeId>,
    pub(crate) windows: Vec<WindowStat>,
    pub(crate) repairs: usize,
    pub(crate) total_windows: usize,
    pub(crate) next_window: usize,
    pub(crate) failed_ever: BTreeSet<NodeId>,
    pub(crate) detector: FailureDetector,
    pub(crate) ladder: DegradationLadder,
    pub(crate) resilience: ResilienceReport,
    pub(crate) log_cursor: usize,
}

impl fmt::Debug for MissionRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MissionRunner")
            .field("seed", &self.scenario.seed)
            .field("next_window", &self.next_window)
            .field("total_windows", &self.total_windows)
            .field("repairs", &self.repairs)
            .finish()
    }
}

impl MissionRunner {
    /// Composes the mission's plan (phases 1–3) and stands up the
    /// execution simulator, ready to step window 0.
    pub fn new(scenario: &Scenario, config: &RunConfig) -> Self {
        let plan = MissionPlan::compose(scenario, config, &config.recorder);
        let (specs, problem) = rebuild_from_plan(&plan, scenario, config)
            // lint: allow(panic) — the plan was composed from this scenario on the line above, so it fits it
            .expect("a freshly composed plan fits its scenario");
        let mut sim = build_sim(scenario, config, true);
        let log = new_report_log();
        let board = new_task_board();
        if config.acked_tasking {
            sim.set_behavior(
                scenario.command_post,
                Box::new(TaskingSink::new(
                    log.clone(),
                    board.clone(),
                    config.task_attempts,
                    config.task_retry_base,
                )),
            );
        } else {
            sim.set_behavior(
                scenario.command_post,
                Box::new(CommandSink::new(log.clone())),
            );
        }
        let selection = plan.composition.selected.clone();
        let mut active_reporters: BTreeSet<NodeId> = BTreeSet::new();
        let current = plan.composition.clone();
        attach_reporters(
            &mut sim,
            &problem,
            &selection,
            &mut active_reporters,
            scenario,
            config,
            &board,
        );
        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;
        let mut detector = FailureDetector::new(config.report_period, config.suspicion_periods);
        if config.adaptive && config.early_repair {
            for &i in &selection {
                detector.watch(problem.candidates[i].id, sim.now());
            }
        }
        let ladder = DegradationLadder::new(
            config.shed_threshold,
            config.restore_threshold,
            config.ladder_patience,
        );
        MissionRunner {
            scenario: scenario.clone(),
            config: config.clone(),
            plan,
            specs,
            base_problem: problem.clone(),
            problem,
            sim,
            log,
            board,
            selection,
            current,
            active_reporters,
            windows: Vec::new(),
            repairs: 0,
            total_windows,
            next_window: 0,
            failed_ever: BTreeSet::new(),
            detector,
            ladder,
            resilience: ResilienceReport::default(),
            log_cursor: 0,
        }
    }

    /// The mission's phase 1–3 plan. Keep a clone beside the mission's
    /// checkpoints and pass it to [`MissionRunner::resume_from_plan`] to
    /// resume without recomposing.
    pub fn plan(&self) -> &MissionPlan {
        &self.plan
    }

    /// The index of the next window to execute (also: how many windows
    /// have completed).
    pub fn window_index(&self) -> usize {
        self.next_window
    }

    /// Total number of utility windows in the mission.
    pub fn total_windows(&self) -> usize {
        self.total_windows
    }

    /// Whether every window has executed.
    pub fn is_finished(&self) -> bool {
        self.next_window >= self.total_windows
    }

    /// Executes one utility window — simulation slices, heartbeat
    /// detection, the degradation ladder, and the repair reflex — and
    /// reports what happened as a [`StepOutcome`]:
    /// [`StepOutcome::WindowClosed`] with the window's index and stats, or
    /// [`StepOutcome::Finished`] when every window had already run.
    pub fn step_window(&mut self) -> StepOutcome {
        if self.is_finished() {
            return StepOutcome::Finished;
        }
        let w = self.next_window;
        let recorder = self.config.recorder.clone();
        let use_detector = self.config.adaptive && self.config.early_repair;
        let use_ladder = self.config.adaptive && self.config.degradation_ladder;
        let start_s = self.sim.now().as_secs_f64();
        let mark = self.log.borrow().len();
        let ticks = if use_detector {
            self.config.detector_ticks.max(1)
        } else {
            1
        };
        let tick_us = self.config.window.as_micros() / u64::from(ticks);
        for t in 0..ticks {
            // The last tick absorbs the division remainder so every
            // window spans exactly `config.window`.
            let slice = if t + 1 == ticks {
                SimDuration::from_micros(self.config.window.as_micros() - u64::from(t) * tick_us)
            } else {
                SimDuration::from_micros(tick_us)
            };
            self.sim.run_for(slice);
            if !use_detector || w + 1 >= self.total_windows {
                continue;
            }
            // Feed delivered reports to the detector as heartbeats.
            {
                let logref = self.log.borrow();
                for r in &logref[self.log_cursor..] {
                    self.detector.heard(r.from, r.at);
                }
                self.log_cursor = logref.len();
            }
            let now = self.sim.now();
            let new_suspects: Vec<(NodeId, SimDuration)> = self
                .detector
                .suspects(now)
                .into_iter()
                .filter(|(n, _)| !self.failed_ever.contains(n))
                .collect();
            if new_suspects.is_empty() {
                continue;
            }
            for &(node, silent) in &new_suspects {
                recorder.record(TraceEvent::Suspected {
                    node: node.raw(),
                    silent_us: silent.as_micros(),
                });
                self.failed_ever.insert(node);
                self.detector.unwatch(node);
            }
            self.resilience.suspected += new_suspects.len() as u64;
            recorder.record(TraceEvent::EarlyRepair {
                window: w as u64,
                suspects: new_suspects.len() as u64,
            });
            let repaired = repair_with(
                &self.problem,
                &self.current,
                &self.failed_ever,
                self.config.solver,
            );
            if repaired.selected != self.selection {
                self.repairs += 1;
                self.resilience.early_repairs += 1;
                self.selection = repaired.selected.clone();
                self.current = CompositionResult {
                    selected: repaired.selected,
                    coverage: repaired.coverage,
                    cost: self.problem.cost(&self.selection),
                    satisfied: repaired.satisfied,
                };
                attach_reporters(
                    &mut self.sim,
                    &self.problem,
                    &self.selection,
                    &mut self.active_reporters,
                    &self.scenario,
                    &self.config,
                    &self.board,
                );
                for &i in &self.selection {
                    self.detector.watch(self.problem.candidates[i].id, now);
                }
            }
        }
        let delivered: BTreeSet<NodeId> =
            self.log.borrow()[mark..].iter().map(|r| r.from).collect();
        let expected = self.selection.len();
        let reporting = self
            .selection
            .iter()
            .filter(|&&i| delivered.contains(&self.problem.candidates[i].id))
            .count();
        let utility = if expected == 0 {
            1.0
        } else {
            reporting as f64 / expected as f64
        };
        let stat = WindowStat {
            start_s,
            expected,
            reporting,
            utility,
        };
        self.windows.push(stat);
        recorder.record(TraceEvent::WindowClosed {
            window: w as u64,
            delivered: reporting as u64,
            utility,
        });
        // Graceful degradation: when utility stays critically low the
        // population cannot meet the requirement — shed it one rung at a
        // time (redundancy → last modality → coverage fraction) so the
        // reflex below repairs toward an achievable target instead of
        // thrashing; restore rungs when utility recovers.
        if use_ladder && w + 1 < self.total_windows {
            match self.ladder.observe(utility) {
                LadderStep::Shed => {
                    self.resilience.sheds += 1;
                    let level = self.ladder.level();
                    self.problem = degraded_problem(
                        &self.base_problem,
                        &self.scenario.mission,
                        &self.specs,
                        self.config.grid,
                        level,
                    );
                    recorder.record(TraceEvent::Shed {
                        level: level as u64,
                        action: DegradationLadder::action(level),
                    });
                }
                LadderStep::Restore => {
                    self.resilience.restores += 1;
                    let level = self.ladder.level();
                    self.problem = degraded_problem(
                        &self.base_problem,
                        &self.scenario.mission,
                        &self.specs,
                        self.config.grid,
                        level,
                    );
                    recorder.record(TraceEvent::Restore {
                        level: level as u64,
                        action: DegradationLadder::action(level + 1),
                    });
                }
                LadderStep::Hold => {}
            }
        }
        // Reflex: if too few selected assets are heard from, treat the
        // silent ones as lost and re-cover their pairs from spares.
        if self.config.adaptive
            && utility < self.config.repair_threshold
            && w + 1 < self.total_windows
        {
            recorder.record(TraceEvent::RepairTriggered {
                window: w as u64,
                utility,
                threshold: self.config.repair_threshold,
            });
            for &i in &self.selection {
                let id = self.problem.candidates[i].id;
                if !delivered.contains(&id) {
                    self.failed_ever.insert(id);
                }
            }
            let repaired = repair_with(
                &self.problem,
                &self.current,
                &self.failed_ever,
                self.config.solver,
            );
            if repaired.selected != self.selection {
                self.repairs += 1;
                let added = repaired
                    .selected
                    .iter()
                    .filter(|i| !self.selection.contains(i))
                    .count();
                recorder.record(TraceEvent::RepairApplied {
                    window: w as u64,
                    added: added as u64,
                    satisfied: repaired.satisfied,
                });
                self.selection = repaired.selected.clone();
                self.current = CompositionResult {
                    selected: repaired.selected,
                    coverage: repaired.coverage,
                    cost: self.problem.cost(&self.selection),
                    satisfied: repaired.satisfied,
                };
                attach_reporters(
                    &mut self.sim,
                    &self.problem,
                    &self.selection,
                    &mut self.active_reporters,
                    &self.scenario,
                    &self.config,
                    &self.board,
                );
                if use_detector {
                    let now = self.sim.now();
                    for &i in &self.selection {
                        self.detector.watch(self.problem.candidates[i].id, now);
                    }
                }
            }
        }
        self.next_window += 1;
        StepOutcome::WindowClosed { window: w, stats: stat }
    }

    /// Shared handle to the runner's task board. External tasking
    /// front-ends (e.g. the edge bridge's command ingress) queue
    /// assignments here; they enter the mission through the same acked
    /// [`TaskingSink`] dissemination path as runtime-originated tasks,
    /// so an externally injected task is retried, acked, and counted
    /// exactly like a native one.
    pub fn task_board(&self) -> TaskBoard {
        self.board.clone()
    }

    /// Builds the final [`MissionReport`] from the runner's state
    /// (normally called after stepping every window).
    pub fn finish(self) -> MissionReport {
        let mean_utility = if self.windows.is_empty() {
            0.0
        } else {
            self.windows.iter().map(|w| w.utility).sum::<f64>() / self.windows.len() as f64
        };
        let mut final_selection = self.selection.clone();
        final_selection.sort_unstable();
        let node_energy_j: Vec<(NodeId, f64)> = self
            .scenario
            .catalog
            .ids()
            .into_iter()
            .filter_map(|id| self.sim.energy(id).map(|e| (id, e.remaining_j())))
            .collect();
        let mut resilience = self.resilience;
        resilience.final_ladder_level = self.ladder.level() as u64;
        resilience.tasking = self.board.borrow().stats();
        let stats = self.sim.stats();
        let digest = EndStateDigest {
            sent: stats.sent,
            delivered: stats.delivered,
            dropped: stats.dropped,
            dropped_no_route: stats.dropped_no_route,
            dropped_channel: stats.dropped_channel,
            dropped_dead: stats.dropped_dead,
            dropped_asleep: stats.dropped_asleep,
            retransmits: stats.retransmits,
            tampered: stats.tampered,
            energy_spent_j: stats.energy_spent_j,
            node_energy_j,
            mean_utility,
            repairs: self.repairs,
            final_selection,
            resilience,
        };
        self.config.recorder.flush();
        let MissionPlan {
            seed: _,
            admitted: _,
            recruited,
            rejected_red,
            unreachable,
            infiltration_rate,
            composition,
            assurance,
        } = self.plan;
        MissionReport {
            recruited,
            rejected_red,
            unreachable,
            infiltration_rate,
            composition,
            assurance,
            windows: self.windows,
            repairs: self.repairs,
            delivery_ratio: stats.delivery_ratio(),
            mean_latency_ms: stats.latency_ms.mean(),
            digest,
        }
    }
}

/// Runs the full pipeline on a scenario: a fresh [`MissionRunner`]
/// stepped to completion.
pub fn run_mission(scenario: &Scenario, config: &RunConfig) -> MissionReport {
    let mut runner = MissionRunner::new(scenario, config);
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
    runner.finish()
}

fn attach_reporters(
    sim: &mut Simulator,
    problem: &CompositionProblem,
    selection: &[usize],
    active: &mut BTreeSet<NodeId>,
    scenario: &Scenario,
    config: &RunConfig,
    board: &TaskBoard,
) {
    for &i in selection {
        let id = problem.candidates[i].id;
        if active.insert(id) {
            if config.acked_tasking {
                // Dormant until the command post's task message arrives
                // (and is acked); the board drives bounded retries.
                board.borrow_mut().assign(id);
                sim.set_behavior(
                    id,
                    Box::new(SensorReporter::dormant(
                        scenario.command_post,
                        config.report_period,
                        128,
                    )),
                );
            } else {
                sim.set_behavior(
                    id,
                    Box::new(SensorReporter::new(
                        scenario.command_post,
                        config.report_period,
                        128,
                    )),
                );
            }
        }
    }
}

/// Rebuilds the composition problem with the requirement relaxations of
/// ladder `level` applied to the pristine `base`:
///
/// * level ≥ 1 — redundancy drops to 1;
/// * level ≥ 2 — the mission's last required modality is shed (skipped
///   when only one modality is required — a sole modality is the
///   mission, not load);
/// * level ≥ 3 — required coverage fraction × 0.6.
///
/// Candidate order is trust-filtered from the same `specs` in the same
/// order, so selection indices remain valid across rebuilds.
pub(crate) fn degraded_problem(
    base: &CompositionProblem,
    mission: &Mission,
    specs: &[NodeSpec],
    grid: usize,
    level: usize,
) -> CompositionProblem {
    let modalities = mission.required_modalities();
    let mut problem = if level >= 2 && modalities.len() > 1 {
        let mut builder = Mission::builder(mission.id(), mission.kind())
            .area(mission.area())
            .coverage_fraction(mission.coverage_fraction())
            .resilience(mission.resilience())
            .min_trust(mission.min_trust())
            .priority(mission.priority());
        for &m in &modalities[..modalities.len() - 1] {
            builder = builder.require_modality(m);
        }
        CompositionProblem::from_mission(&builder.build(), specs, grid)
    } else {
        base.clone()
    };
    if level >= 1 {
        problem.redundancy = 1;
    }
    if level >= 3 {
        problem.required_fraction = base.required_fraction * 0.6;
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{persistent_surveillance, urban_evacuation};

    fn quick_config() -> RunConfig {
        RunConfig {
            duration: SimDuration::from_secs_f64(60.0),
            window: SimDuration::from_secs_f64(10.0),
            ..RunConfig::default()
        }
    }

    #[test]
    fn full_pipeline_produces_a_coherent_report() {
        let scenario = persistent_surveillance(120, 5);
        let report = run_mission(&scenario, &quick_config());
        assert!(report.recruited > 0, "someone must be recruited");
        assert!(report.composition.coverage > 0.0);
        assert_eq!(report.windows.len(), 6);
        assert!(report.mean_utility() > 0.0, "reports must flow");
        assert!((0.0..=1.0).contains(&report.infiltration_rate));
        assert!(report.assurance.expected_coverage > 0.0);
    }

    #[test]
    fn adaptive_runtime_repairs_after_attrition() {
        let scenario = persistent_surveillance(150, 7);
        let adaptive = run_mission(&scenario, &quick_config());
        let static_run = run_mission(
            &scenario,
            &RunConfig {
                adaptive: false,
                ..quick_config()
            },
        );
        // The adaptive run may repair; the static one never does.
        assert_eq!(static_run.repairs, 0);
        assert!(
            adaptive.utility_after(50.0) >= static_run.utility_after(50.0) - 0.1,
            "adaptive {} vs static {}",
            adaptive.utility_after(50.0),
            static_run.utility_after(50.0)
        );
    }

    #[test]
    fn jamming_scenario_runs_to_completion() {
        let scenario = urban_evacuation(100, 3);
        let report = run_mission(&scenario, &quick_config());
        assert_eq!(report.windows.len(), 6);
        // The jammer fires at t=60 which is the end of this short run, so
        // utility should be healthy throughout.
        assert!(report.mean_utility() > 0.3, "{}", report.mean_utility());
    }

    #[test]
    fn builder_matches_struct_defaults() {
        let built = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .unwrap();
        let literal = quick_config();
        assert_eq!(built.duration, literal.duration);
        assert_eq!(built.window, literal.window);
        assert_eq!(built.adaptive, literal.adaptive);
        assert_eq!(built.repair_threshold, literal.repair_threshold);
        assert_eq!(built.grid, literal.grid);
        assert_eq!(built.solver, literal.solver);
        assert_eq!(built.require_reachability, literal.require_reachability);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert!(matches!(
            RunConfig::builder().window(SimDuration::ZERO).build(),
            Err(RunConfigError::ZeroWindow)
        ));
        assert!(matches!(
            RunConfig::builder()
                .duration(SimDuration::from_secs_f64(5.0))
                .window(SimDuration::from_secs_f64(10.0))
                .build(),
            Err(RunConfigError::WindowExceedsDuration { .. })
        ));
        assert!(matches!(
            RunConfig::builder().repair_threshold(1.5).build(),
            Err(RunConfigError::ThresholdOutOfRange {
                field: "repair_threshold",
                ..
            })
        ));
        assert!(matches!(
            RunConfig::builder().shed_threshold(-0.1).build(),
            Err(RunConfigError::ThresholdOutOfRange {
                field: "shed_threshold",
                ..
            })
        ));
        assert!(matches!(
            RunConfig::builder().restore_threshold(f64::NAN).build(),
            Err(RunConfigError::ThresholdOutOfRange {
                field: "restore_threshold",
                ..
            })
        ));
        // Errors render a human-readable explanation.
        let shown = RunConfig::builder()
            .repair_threshold(2.0)
            .build()
            .unwrap_err()
            .to_string();
        assert!(shown.contains("repair_threshold"), "{shown}");
    }

    #[test]
    fn recorder_traces_the_pipeline() {
        use iobt_obs::Subsystem;

        let scenario = persistent_surveillance(120, 5);
        let (recorder, ring) = iobt_obs::Recorder::memory(100_000);
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .recorder(recorder.clone())
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let records = ring.records();
        assert!(!records.is_empty());
        // One recruitment, one solve, one window-closed per window.
        let kind_count = |k: &str| records.iter().filter(|r| r.event.kind() == k).count();
        assert_eq!(kind_count("recruitment"), 1);
        assert_eq!(kind_count("solve"), 1);
        assert_eq!(kind_count("window_closed"), report.windows.len());
        // Netsim traffic flows through the same recorder with sim-time stamps.
        assert!(records
            .iter()
            .any(|r| r.event.subsystem() == Subsystem::Netsim));
        for pair in records.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us, "sim-time goes backwards");
        }
        let digest = recorder.metrics_digest();
        assert_eq!(digest.counter("core.windows"), Some(6));
        assert_eq!(
            digest.counter("netsim.msg_delivered"),
            Some(report.digest.delivered)
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let scenario = persistent_surveillance(80, 11);
        let cfg = quick_config();
        let a = run_mission(&scenario, &cfg);
        let b = run_mission(&scenario, &cfg);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.repairs, b.repairs);
        assert_eq!(a.recruited, b.recruited);
    }

    #[test]
    fn compose_is_a_pure_function_of_scenario_and_config() {
        // Kept-plan resume relies on this: a kept plan must equal the one
        // a recompose would produce, whatever recorder observed it.
        let scenario = persistent_surveillance(80, 11);
        let cfg = quick_config();
        let (recorder, _ring) = iobt_obs::Recorder::memory(1_000);
        let live = MissionPlan::compose(&scenario, &cfg, &recorder);
        let silent = MissionPlan::compose(&scenario, &cfg, &Recorder::disabled());
        assert_eq!(live, silent);
        let reseeded = persistent_surveillance(80, 12);
        let other = MissionPlan::compose(&reseeded, &cfg, &Recorder::disabled());
        assert_ne!(live, other);
        assert_ne!(live.composition, other.composition, "not just the seed field");
    }

    #[test]
    fn stepped_runner_matches_run_mission() {
        let scenario = persistent_surveillance(80, 11);
        let cfg = quick_config();
        let whole = run_mission(&scenario, &cfg);
        let mut runner = MissionRunner::new(&scenario, &cfg);
        assert_eq!(runner.total_windows(), 6);
        let mut stepped = Vec::new();
        while let StepOutcome::WindowClosed { window, stats } = runner.step_window() {
            assert_eq!(window, stepped.len(), "window indices arrive in order");
            stepped.push(stats);
        }
        assert!(runner.step_window().is_finished(), "stays Finished");
        assert!(runner.is_finished());
        assert_eq!(runner.window_index(), 6);
        let report = runner.finish();
        assert_eq!(stepped, whole.windows);
        assert_eq!(report.digest, whole.digest);
    }

    #[test]
    fn acked_tasking_delivers_assignments_before_reports_flow() {
        let scenario = persistent_surveillance(120, 5);
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .acked_tasking(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let tasking = report.digest.resilience.tasking;
        assert!(tasking.assigned > 0, "someone must be tasked");
        assert!(tasking.acked > 0, "reachable sensors must ack");
        assert!(tasking.acked <= tasking.assigned);
        assert!(
            report.mean_utility() > 0.0,
            "tasked sensors must still report"
        );
    }

    #[test]
    fn early_repair_suspects_silenced_nodes_between_windows() {
        use iobt_faults::FaultPlan;
        use iobt_netsim::SimTime;
        use iobt_types::{Point, Rect};

        let mut scenario = persistent_surveillance(150, 7);
        // A permanent blackout over one quadrant silences every selected
        // sensor inside it mid-window; the detector must notice without
        // waiting for the window to close.
        scenario.fault_plan = FaultPlan::new().blackout(
            SimTime::from_secs_f64(15.0),
            Rect::new(Point::new(0.0, 0.0), Point::new(1_500.0, 1_500.0)),
            None,
        );
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .early_repair(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let res = report.digest.resilience;
        assert!(res.suspected > 0, "blackout victims must be suspected");
        assert!(
            res.early_repairs > 0,
            "suspicion must trigger at least one early repair"
        );
        // Same seed, same config: the whole reaction history replays.
        let again = run_mission(&scenario, &cfg);
        assert_eq!(report.digest, again.digest);
    }

    #[test]
    fn degradation_ladder_sheds_when_coverage_collapses() {
        use iobt_faults::FaultPlan;
        use iobt_netsim::SimTime;

        let mut scenario = persistent_surveillance(120, 5);
        // A permanent blackout over the whole theater: nothing can
        // report, utility pins to zero, and the ladder must shed rather
        // than thrash on repairs it cannot complete.
        scenario.fault_plan = FaultPlan::new().blackout(
            SimTime::from_secs_f64(12.0),
            scenario.mission.area(),
            None,
        );
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(60.0))
            .window(SimDuration::from_secs_f64(10.0))
            .degradation_ladder(true)
            .build()
            .unwrap();
        let report = run_mission(&scenario, &cfg);
        let res = report.digest.resilience;
        assert!(res.sheds >= 1, "ladder must shed under total blackout");
        assert!(res.final_ladder_level >= 1);
        assert_eq!(res.restores, 0, "nothing recovers: no restores");
    }

    #[test]
    fn reaction_features_are_inert_by_default() {
        let scenario = persistent_surveillance(120, 5);
        let report = run_mission(&scenario, &quick_config());
        let res = report.digest.resilience;
        assert_eq!(res, ResilienceReport::default());
        assert_eq!(report.digest.tampered, 0);
    }

    #[test]
    fn builder_covers_resilience_fields() {
        let built = RunConfig::builder()
            .early_repair(true)
            .detector_ticks(8)
            .suspicion_periods(2.5)
            .degradation_ladder(true)
            .shed_threshold(0.4)
            .restore_threshold(0.9)
            .ladder_patience(3)
            .acked_tasking(true)
            .task_attempts(6)
            .task_retry_base(SimDuration::from_millis(500))
            .build()
            .unwrap();
        assert!(built.early_repair);
        assert_eq!(built.detector_ticks, 8);
        assert!((built.suspicion_periods - 2.5).abs() < 1e-12);
        assert!(built.degradation_ladder);
        assert!((built.shed_threshold - 0.4).abs() < 1e-12);
        assert!((built.restore_threshold - 0.9).abs() < 1e-12);
        assert_eq!(built.ladder_patience, 3);
        assert!(built.acked_tasking);
        assert_eq!(built.task_attempts, 6);
        assert_eq!(built.task_retry_base, SimDuration::from_millis(500));
    }
}
