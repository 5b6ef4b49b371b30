//! Mission-level checkpoint payloads: [`MissionRunner::save`],
//! [`MissionRunner::resume`] and [`MissionRunner::resume_from_plan`].
//!
//! A mission checkpoint is taken at a utility-window boundary and
//! captures *only* the execution-phase state that cannot be recomputed:
//!
//! * a **guard** section — scenario seed, catalog size, command post,
//!   and every [`RunConfig`](crate::runtime::RunConfig) field that
//!   shapes execution. Resume verifies the guard against the scenario
//!   and config it was handed and refuses with
//!   [`CkptError::Mismatch`] on any disagreement, because resuming
//!   under a different configuration would silently diverge;
//! * the **window loop** state — next window, repairs, per-window
//!   utility stats, the current selection and composition result, the
//!   set of ever-failed nodes, failure-detector heartbeat table, and
//!   degradation-ladder counters;
//! * the **delivered-report log** and acked-tasking board;
//! * the **recorder clock** — sim-time, trace sequence, per-subsystem
//!   sampling phase, and the full metrics registry (the trace *sink* is
//!   deliberately not captured: a resumed run opens a fresh sink and
//!   appends only post-resume records, so the resumed file equals the
//!   tail of the uninterrupted one);
//! * the **simulator snapshot** from
//!   [`Simulator::save_state`](iobt_netsim::Simulator::save_state) —
//!   clock, RNG stream, event queue, per-node state, fault state, and
//!   behaviour state — as one length-prefixed blob.
//!
//! Everything recomputable from `(scenario, config)` — discovery,
//! recruitment, the composition problem, assurance — is *not* stored.
//! Those phase 1–3 results are the mission's [`MissionPlan`]: a caller
//! that kept the plan (the fleet keeps one per evicted mission)
//! resumes with [`MissionRunner::resume_from_plan`], which only rebuilds
//! the candidate specs and composition problem from the plan's admitted
//! ids; [`MissionRunner::resume`] (crash recovery, no plan at hand)
//! recomposes the plan first with a disabled recorder, so no trace
//! events are double-counted. Wall-clock timings are never stored.

use iobt_ckpt::{CkptError, Dec, DecodeError, Enc};
use iobt_netsim::{SimDuration, SimTime};
use iobt_obs::{HistogramSnapshot, MetricsDigest, Recorder, RecorderCheckpoint, Subsystem};
use iobt_synthesis::{CompositionProblem, CompositionResult, Solver};
use iobt_types::{NodeId, NodeSpec};

use crate::behaviors::{
    mission_behavior_registry, new_report_log, new_task_board, DeliveredReport, TaskingStats,
};
use crate::resilience::{DegradationLadder, FailureDetector};
use crate::runtime::{
    build_sim, degraded_problem, EndStateDigest, MissionPlan, MissionRunner, PortableRunConfig,
    ResilienceReport, RunConfig, WindowStat,
};
use crate::scenario::Scenario;

use std::collections::BTreeSet;

fn mismatch(what: &str, expected: impl std::fmt::Display, found: impl std::fmt::Display) -> CkptError {
    CkptError::Mismatch(format!(
        "checkpoint was taken under a different {what}: checkpoint has {found}, resume has {expected}"
    ))
}

/// Encodes the scenario/config guard. Order is part of the format.
fn encode_guard(e: &mut Enc, scenario: &Scenario, config: &RunConfig) {
    // Exhaustive destructures (R6): a new `Scenario` or `RunConfig`
    // field fails this lint until its guard story is decided. The
    // scenario guard is deliberately shallow — seed, catalog size, and
    // command post identify a scenario cheaply; the heavyweight fields
    // (`terrain`/`mission`/…) are covered transitively by the seed under
    // the deterministic generator. `recorder` is a sink handle, and
    // `reference_mode` selects between equivalence-tested execution
    // paths, so neither shapes the checkpointed state.
    let Scenario {
        catalog,
        terrain: _,
        mission: _,
        intent: _,
        jammers: _,
        disruptions: _,
        fault_plan: _,
        command_post,
        seed,
    } = scenario;
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
        recorder: _,
        reference_mode: _,
    } = config;
    e.u64(*seed);
    e.usize(catalog.len());
    e.u64(command_post.raw());
    e.u64(duration.as_micros());
    e.u64(window.as_micros());
    e.u64(report_period.as_micros());
    e.bool(*adaptive);
    e.f64(*repair_threshold);
    e.usize(*grid);
    e.str(&format!("{solver:?}"));
    e.bool(*require_reachability);
    e.bool(*early_repair);
    e.u32(*detector_ticks);
    e.f64(*suspicion_periods);
    e.bool(*degradation_ladder);
    e.f64(*shed_threshold);
    e.f64(*restore_threshold);
    e.u32(*ladder_patience);
    e.bool(*acked_tasking);
    e.u32(*task_attempts);
    e.u64(task_retry_base.as_micros());
}

/// Decodes and verifies the guard section against the caller's
/// scenario and config.
fn check_guard(d: &mut Dec<'_>, scenario: &Scenario, config: &RunConfig) -> Result<(), CkptError> {
    let seed = d.u64()?;
    if seed != scenario.seed {
        return Err(mismatch("seed", scenario.seed, seed));
    }
    let catalog_len = d.usize()?;
    if catalog_len != scenario.catalog.len() {
        return Err(mismatch("catalog size", scenario.catalog.len(), catalog_len));
    }
    let command_post = d.u64()?;
    if command_post != scenario.command_post.raw() {
        return Err(mismatch(
            "command post",
            scenario.command_post.raw(),
            command_post,
        ));
    }
    let duration = d.u64()?;
    if duration != config.duration.as_micros() {
        return Err(mismatch("duration", config.duration.as_micros(), duration));
    }
    let window = d.u64()?;
    if window != config.window.as_micros() {
        return Err(mismatch("window", config.window.as_micros(), window));
    }
    let report_period = d.u64()?;
    if report_period != config.report_period.as_micros() {
        return Err(mismatch(
            "report period",
            config.report_period.as_micros(),
            report_period,
        ));
    }
    let adaptive = d.bool()?;
    if adaptive != config.adaptive {
        return Err(mismatch("adaptive flag", config.adaptive, adaptive));
    }
    let repair_threshold = d.f64()?;
    if repair_threshold.to_bits() != config.repair_threshold.to_bits() {
        return Err(mismatch(
            "repair threshold",
            config.repair_threshold,
            repair_threshold,
        ));
    }
    let grid = d.usize()?;
    if grid != config.grid {
        return Err(mismatch("grid", config.grid, grid));
    }
    let solver = d.str()?;
    let expected_solver = format!("{:?}", config.solver);
    if solver != expected_solver {
        return Err(mismatch("solver", expected_solver, solver));
    }
    let require_reachability = d.bool()?;
    if require_reachability != config.require_reachability {
        return Err(mismatch(
            "reachability flag",
            config.require_reachability,
            require_reachability,
        ));
    }
    let early_repair = d.bool()?;
    if early_repair != config.early_repair {
        return Err(mismatch("early-repair flag", config.early_repair, early_repair));
    }
    let detector_ticks = d.u32()?;
    if detector_ticks != config.detector_ticks {
        return Err(mismatch(
            "detector ticks",
            config.detector_ticks,
            detector_ticks,
        ));
    }
    let suspicion_periods = d.f64()?;
    if suspicion_periods.to_bits() != config.suspicion_periods.to_bits() {
        return Err(mismatch(
            "suspicion periods",
            config.suspicion_periods,
            suspicion_periods,
        ));
    }
    let degradation_ladder = d.bool()?;
    if degradation_ladder != config.degradation_ladder {
        return Err(mismatch(
            "ladder flag",
            config.degradation_ladder,
            degradation_ladder,
        ));
    }
    let shed_threshold = d.f64()?;
    if shed_threshold.to_bits() != config.shed_threshold.to_bits() {
        return Err(mismatch("shed threshold", config.shed_threshold, shed_threshold));
    }
    let restore_threshold = d.f64()?;
    if restore_threshold.to_bits() != config.restore_threshold.to_bits() {
        return Err(mismatch(
            "restore threshold",
            config.restore_threshold,
            restore_threshold,
        ));
    }
    let ladder_patience = d.u32()?;
    if ladder_patience != config.ladder_patience {
        return Err(mismatch(
            "ladder patience",
            config.ladder_patience,
            ladder_patience,
        ));
    }
    let acked_tasking = d.bool()?;
    if acked_tasking != config.acked_tasking {
        return Err(mismatch("acked-tasking flag", config.acked_tasking, acked_tasking));
    }
    let task_attempts = d.u32()?;
    if task_attempts != config.task_attempts {
        return Err(mismatch("task attempts", config.task_attempts, task_attempts));
    }
    let task_retry_base = d.u64()?;
    if task_retry_base != config.task_retry_base.as_micros() {
        return Err(mismatch(
            "task retry base",
            config.task_retry_base.as_micros(),
            task_retry_base,
        ));
    }
    Ok(())
}

fn enc_digest(e: &mut Enc, digest: &MetricsDigest) {
    // Exhaustive destructures (R6): a new digest or histogram field
    // fails this lint until it is encoded (and decoded, in order).
    let MetricsDigest { counters, gauges, histograms } = digest;
    e.usize(counters.len());
    for (name, value) in counters {
        e.str(name);
        e.u64(*value);
    }
    e.usize(gauges.len());
    for (name, value) in gauges {
        e.str(name);
        e.f64(*value);
    }
    e.usize(histograms.len());
    for (name, snap) in histograms {
        let HistogramSnapshot { bounds, counts, total, sum } = snap;
        e.str(name);
        e.usize(bounds.len());
        for b in bounds {
            e.f64(*b);
        }
        e.usize(counts.len());
        for c in counts {
            e.u64(*c);
        }
        e.u64(*total);
        e.f64(*sum);
    }
}

fn dec_digest(d: &mut Dec<'_>) -> Result<MetricsDigest, DecodeError> {
    let n = d.usize()?;
    let mut counters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let value = d.u64()?;
        counters.push((name, value));
    }
    let n = d.usize()?;
    let mut gauges = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let value = d.f64()?;
        gauges.push((name, value));
    }
    let n = d.usize()?;
    let mut histograms = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = d.str()?;
        let nb = d.usize()?;
        let mut bounds = Vec::with_capacity(nb.min(1024));
        for _ in 0..nb {
            bounds.push(d.f64()?);
        }
        let nc = d.usize()?;
        let mut counts = Vec::with_capacity(nc.min(1024));
        for _ in 0..nc {
            counts.push(d.u64()?);
        }
        let total = d.u64()?;
        let sum = d.f64()?;
        histograms.push((
            name,
            HistogramSnapshot {
                bounds,
                counts,
                total,
                sum,
            },
        ));
    }
    Ok(MetricsDigest {
        counters,
        gauges,
        histograms,
    })
}

fn enc_solver(e: &mut Enc, solver: &Solver) {
    match solver {
        Solver::Greedy => e.u8(0),
        Solver::Anneal { iterations, seed } => {
            e.u8(1);
            e.usize(*iterations);
            e.u64(*seed);
        }
        Solver::Random { seed } => {
            e.u8(2);
            e.u64(*seed);
        }
        Solver::Exhaustive => e.u8(3),
        Solver::Portfolio { iterations, seed } => {
            e.u8(4);
            e.usize(*iterations);
            e.u64(*seed);
        }
    }
}

fn dec_solver(d: &mut Dec<'_>) -> Result<Solver, DecodeError> {
    match d.u8()? {
        0 => Ok(Solver::Greedy),
        1 => Ok(Solver::Anneal {
            iterations: d.usize()?,
            seed: d.u64()?,
        }),
        2 => Ok(Solver::Random { seed: d.u64()? }),
        3 => Ok(Solver::Exhaustive),
        4 => Ok(Solver::Portfolio {
            iterations: d.usize()?,
            seed: d.u64()?,
        }),
        tag => Err(DecodeError::UnknownTag {
            what: "solver",
            tag,
        }),
    }
}

/// Encodes a [`PortableRunConfig`] into `e` with the fixed-order layout
/// [`decode_portable_config`] reads back. Used by schedulers (the fleet
/// manifest) that must persist a mission's execution parameters across a
/// process death and re-admit it bit-identically.
pub fn encode_portable_config(e: &mut Enc, config: &PortableRunConfig) {
    // Exhaustive destructure (R6): a field added to the portable carrier
    // fails this lint until its manifest story is written.
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
    } = config;
    e.u64(duration.as_micros());
    e.u64(window.as_micros());
    e.u64(report_period.as_micros());
    e.bool(*adaptive);
    e.f64(*repair_threshold);
    e.usize(*grid);
    enc_solver(e, solver);
    e.bool(*require_reachability);
    e.bool(*early_repair);
    e.u32(*detector_ticks);
    e.f64(*suspicion_periods);
    e.bool(*degradation_ladder);
    e.f64(*shed_threshold);
    e.f64(*restore_threshold);
    e.u32(*ladder_patience);
    e.bool(*acked_tasking);
    e.u32(*task_attempts);
    e.u64(task_retry_base.as_micros());
    e.bool(*reference_mode);
}

/// Decodes a [`PortableRunConfig`] written by [`encode_portable_config`].
pub fn decode_portable_config(d: &mut Dec<'_>) -> Result<PortableRunConfig, DecodeError> {
    let duration = SimDuration::from_micros(d.u64()?);
    let window = SimDuration::from_micros(d.u64()?);
    let report_period = SimDuration::from_micros(d.u64()?);
    let adaptive = d.bool()?;
    let repair_threshold = d.f64()?;
    let grid = d.usize()?;
    let solver = dec_solver(d)?;
    let require_reachability = d.bool()?;
    let early_repair = d.bool()?;
    let detector_ticks = d.u32()?;
    let suspicion_periods = d.f64()?;
    let degradation_ladder = d.bool()?;
    let shed_threshold = d.f64()?;
    let restore_threshold = d.f64()?;
    let ladder_patience = d.u32()?;
    let acked_tasking = d.bool()?;
    let task_attempts = d.u32()?;
    let task_retry_base = SimDuration::from_micros(d.u64()?);
    let reference_mode = d.bool()?;
    Ok(PortableRunConfig {
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
    })
}

/// Encodes an [`EndStateDigest`] (with its nested [`ResilienceReport`]
/// and [`TaskingStats`]) into `e`, bit-exactly: every `f64` travels as
/// its IEEE-754 pattern, so a digest restored by
/// [`decode_end_state_digest`] compares equal to the one saved. Used by
/// the fleet manifest to keep completed missions' results across a
/// scheduler crash.
pub fn encode_end_state_digest(e: &mut Enc, digest: &EndStateDigest) {
    // Exhaustive destructures (R6): a new digest field fails this lint
    // until it is encoded (and decoded, in order).
    let EndStateDigest {
        sent,
        delivered,
        dropped,
        dropped_no_route,
        dropped_channel,
        dropped_dead,
        dropped_asleep,
        retransmits,
        tampered,
        energy_spent_j,
        node_energy_j,
        mean_utility,
        repairs,
        final_selection,
        resilience,
    } = digest;
    let ResilienceReport {
        suspected,
        early_repairs,
        sheds,
        restores,
        final_ladder_level,
        tasking,
    } = resilience;
    let TaskingStats {
        assigned,
        acked,
        retries,
        abandoned,
        tampered_rejected,
    } = tasking;
    e.u64(*sent);
    e.u64(*delivered);
    e.u64(*dropped);
    e.u64(*dropped_no_route);
    e.u64(*dropped_channel);
    e.u64(*dropped_dead);
    e.u64(*dropped_asleep);
    e.u64(*retransmits);
    e.u64(*tampered);
    e.f64(*energy_spent_j);
    e.usize(node_energy_j.len());
    for (node, energy) in node_energy_j {
        e.u64(node.raw());
        e.f64(*energy);
    }
    e.f64(*mean_utility);
    e.usize(*repairs);
    e.usize(final_selection.len());
    for &i in final_selection {
        e.usize(i);
    }
    e.u64(*suspected);
    e.u64(*early_repairs);
    e.u64(*sheds);
    e.u64(*restores);
    e.u64(*final_ladder_level);
    e.u64(*assigned);
    e.u64(*acked);
    e.u64(*retries);
    e.u64(*abandoned);
    e.u64(*tampered_rejected);
}

/// Decodes an [`EndStateDigest`] written by [`encode_end_state_digest`].
pub fn decode_end_state_digest(d: &mut Dec<'_>) -> Result<EndStateDigest, DecodeError> {
    let sent = d.u64()?;
    let delivered = d.u64()?;
    let dropped = d.u64()?;
    let dropped_no_route = d.u64()?;
    let dropped_channel = d.u64()?;
    let dropped_dead = d.u64()?;
    let dropped_asleep = d.u64()?;
    let retransmits = d.u64()?;
    let tampered = d.u64()?;
    let energy_spent_j = d.f64()?;
    let n = d.usize()?;
    let mut node_energy_j = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let node = NodeId::new(d.u64()?);
        let energy = d.f64()?;
        node_energy_j.push((node, energy));
    }
    let mean_utility = d.f64()?;
    let repairs = d.usize()?;
    let n = d.usize()?;
    let mut final_selection = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        final_selection.push(d.usize()?);
    }
    let suspected = d.u64()?;
    let early_repairs = d.u64()?;
    let sheds = d.u64()?;
    let restores = d.u64()?;
    let final_ladder_level = d.u64()?;
    let assigned = d.u64()?;
    let acked = d.u64()?;
    let retries = d.u64()?;
    let abandoned = d.u64()?;
    let tampered_rejected = d.u64()?;
    Ok(EndStateDigest {
        sent,
        delivered,
        dropped,
        dropped_no_route,
        dropped_channel,
        dropped_dead,
        dropped_asleep,
        retransmits,
        tampered,
        energy_spent_j,
        node_energy_j,
        mean_utility,
        repairs,
        final_selection,
        resilience: ResilienceReport {
            suspected,
            early_repairs,
            sheds,
            restores,
            final_ladder_level,
            tasking: TaskingStats {
                assigned,
                acked,
                retries,
                abandoned,
                tampered_rejected,
            },
        },
    })
}

impl MissionRunner {
    /// Serialises the runner's complete execution state as a checkpoint
    /// payload (wrap it in an envelope with
    /// [`iobt_ckpt::CheckpointStore::save`] or
    /// [`iobt_ckpt::write_checkpoint_atomic`]).
    ///
    /// Call between [`step_window`](MissionRunner::step_window) calls —
    /// window boundaries are the only states the format captures.
    ///
    /// # Errors
    ///
    /// Fails when an attached simulator behaviour is not
    /// checkpointable (see
    /// [`Behavior::save_state`](iobt_netsim::Behavior::save_state)).
    pub fn save(&self) -> Result<Vec<u8>, CkptError> {
        // Exhaustive-destructure convention (R6): adding a field to
        // `MissionRunner` fails this lint until its checkpoint story is
        // written. Phase 1–3 products (`plan` … `problem`) come from the
        // plan at resume; `repair_ms` is wall-clock reporting;
        // `total_windows` is derived from the config.
        let Self {
            scenario: _,
            config: _,
            plan: _,
            specs: _,
            base_problem: _,
            problem: _,
            sim: _,
            log: _,
            board: _,
            selection: _,
            current: _,
            active_reporters: _,
            windows: _,
            repairs: _,
            total_windows: _,
            next_window: _,
            failed_ever: _,
            detector: _,
            ladder: _,
            resilience: _,
            log_cursor: _,
            repair_ms: _,
        } = self;
        let mut e = Enc::new();
        encode_guard(&mut e, &self.scenario, &self.config);

        // Window-loop progress and resilience counters.
        e.usize(self.next_window);
        e.usize(self.repairs);
        e.usize(self.log_cursor);
        e.u64(self.resilience.suspected);
        e.u64(self.resilience.early_repairs);
        e.u64(self.resilience.sheds);
        e.u64(self.resilience.restores);

        // Selection, reporter set, failure history.
        e.usize(self.selection.len());
        for &i in &self.selection {
            e.usize(i);
        }
        e.usize(self.active_reporters.len());
        for id in &self.active_reporters {
            e.u64(id.raw());
        }
        e.usize(self.failed_ever.len());
        for id in &self.failed_ever {
            e.u64(id.raw());
        }

        // Current composition result.
        e.usize(self.current.selected.len());
        for &i in &self.current.selected {
            e.usize(i);
        }
        e.f64(self.current.coverage);
        e.f64(self.current.cost);
        e.bool(self.current.satisfied);

        // Completed windows.
        e.usize(self.windows.len());
        for w in &self.windows {
            e.f64(w.start_s);
            e.usize(w.expected);
            e.usize(w.reporting);
            e.f64(w.utility);
        }

        // Failure detector heartbeat table.
        e.u64(self.detector.threshold().as_micros());
        let entries = self.detector.entries();
        e.usize(entries.len());
        for (node, at) in entries {
            e.u64(node.raw());
            e.u64(at.as_micros());
        }

        // Degradation ladder counters.
        let (level, below, above) = self.ladder.counters();
        e.usize(level);
        e.u32(below);
        e.u32(above);

        // Delivered-report log.
        {
            let log = self.log.borrow();
            e.usize(log.len());
            for r in log.iter() {
                e.u64(r.from.raw());
                e.u64(r.at.as_micros());
            }
        }

        // Acked-tasking board.
        {
            let board = self.board.borrow();
            let pending = board.pending_entries();
            e.usize(pending.len());
            for (node, attempts, next_at) in pending {
                e.u64(node.raw());
                e.u32(attempts);
                e.u64(next_at.as_micros());
            }
            let TaskingStats { assigned, acked, retries, abandoned, tampered_rejected } =
                board.stats();
            e.u64(assigned);
            e.u64(acked);
            e.u64(retries);
            e.u64(abandoned);
            e.u64(tampered_rejected);
        }

        // Recorder clock + metrics (absent when the recorder is
        // disabled; the trace sink is never captured).
        match self.config.recorder.checkpoint() {
            Some(RecorderCheckpoint { t_us, seq, emitted, metrics }) => {
                e.bool(true);
                e.u64(t_us);
                e.u64(seq);
                for v in emitted {
                    e.u64(v);
                }
                enc_digest(&mut e, &metrics);
            }
            None => e.bool(false),
        }

        // Full simulator snapshot as one length-prefixed blob.
        let blob = self.sim.save_state()?;
        e.bytes(&blob);
        Ok(e.into_bytes())
    }

    /// Rebuilds a runner from a checkpoint payload so that stepping it
    /// produces exactly the windows, traces, and end state the
    /// uninterrupted run would have produced.
    ///
    /// `scenario` and `config` must be the ones the checkpointed run
    /// was started with; the payload's guard section is verified
    /// against them. The mission's [`MissionPlan`] (discovery,
    /// recruitment, synthesis, assurance) is recomposed with a disabled
    /// recorder; everything else is restored from the payload. A caller
    /// that still holds the plan should use
    /// [`MissionRunner::resume_from_plan`], which skips the recompose.
    ///
    /// # Errors
    ///
    /// As [`MissionRunner::resume_from_plan`].
    pub fn resume(
        scenario: &Scenario,
        config: &RunConfig,
        payload: &[u8],
    ) -> Result<Self, CkptError> {
        let plan = MissionPlan::compose(scenario, config, &Recorder::disabled());
        Self::resume_from_plan(scenario, config, &plan, payload)
    }

    /// [`MissionRunner::resume`] with the mission's phase 1–3 results
    /// taken from `plan` instead of recomposed: only the candidate specs
    /// and composition problem are rebuilt, from `scenario.catalog` and
    /// the plan's admitted ids. Stepping the result produces exactly
    /// what stepping a [`MissionRunner::resume`]d runner does.
    ///
    /// `plan` must come from [`MissionPlan::compose`] (or
    /// [`MissionRunner::plan`]) under the same `scenario` and `config`.
    ///
    /// # Errors
    ///
    /// * [`CkptError::Decode`] — the payload is malformed (truncated,
    ///   bad tags, trailing bytes);
    /// * [`CkptError::Mismatch`] — the payload decoded but belongs to a
    ///   different scenario, config, or build (unknown behaviour kind,
    ///   node-count disagreement, inconsistent recorder state), or the
    ///   plan does not fit the scenario (different seed, an admitted
    ///   node missing from the catalog, a selected candidate outside
    ///   the rebuilt problem).
    pub fn resume_from_plan(
        scenario: &Scenario,
        config: &RunConfig,
        plan: &MissionPlan,
        payload: &[u8],
    ) -> Result<Self, CkptError> {
        let mut d = Dec::new(payload);
        check_guard(&mut d, scenario, config)?;

        let next_window = d.usize()?;
        let repairs = d.usize()?;
        let log_cursor = d.usize()?;
        let resilience = ResilienceReport {
            suspected: d.u64()?,
            early_repairs: d.u64()?,
            sheds: d.u64()?,
            restores: d.u64()?,
            ..ResilienceReport::default()
        };

        let n = d.usize()?;
        let mut selection = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            selection.push(d.usize()?);
        }
        let n = d.usize()?;
        let mut active_reporters = BTreeSet::new();
        for _ in 0..n {
            active_reporters.insert(NodeId::new(d.u64()?));
        }
        let n = d.usize()?;
        let mut failed_ever = BTreeSet::new();
        for _ in 0..n {
            failed_ever.insert(NodeId::new(d.u64()?));
        }

        let n = d.usize()?;
        let mut current_selected = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            current_selected.push(d.usize()?);
        }
        let current = CompositionResult {
            selected: current_selected,
            coverage: d.f64()?,
            cost: d.f64()?,
            satisfied: d.bool()?,
        };

        let n = d.usize()?;
        let mut windows = Vec::with_capacity(n.min(65_536));
        for _ in 0..n {
            windows.push(WindowStat {
                start_s: d.f64()?,
                expected: d.usize()?,
                reporting: d.usize()?,
                utility: d.f64()?,
            });
        }

        let detector_threshold = SimDuration::from_micros(d.u64()?);
        let n = d.usize()?;
        let mut detector_entries = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let node = NodeId::new(d.u64()?);
            let at = SimTime::from_micros(d.u64()?);
            detector_entries.push((node, at));
        }

        let ladder_level = d.usize()?;
        let ladder_below = d.u32()?;
        let ladder_above = d.u32()?;

        let n = d.usize()?;
        let mut log_entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            log_entries.push(DeliveredReport {
                from: NodeId::new(d.u64()?),
                at: SimTime::from_micros(d.u64()?),
            });
        }
        if log_cursor > log_entries.len() {
            return Err(CkptError::Mismatch(format!(
                "log cursor {log_cursor} exceeds delivered-report log of {}",
                log_entries.len()
            )));
        }

        let n = d.usize()?;
        let mut pending = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            let node = NodeId::new(d.u64()?);
            let attempts = d.u32()?;
            let next_at = SimTime::from_micros(d.u64()?);
            pending.push((node, attempts, next_at));
        }
        let stats = TaskingStats {
            assigned: d.u64()?,
            acked: d.u64()?,
            retries: d.u64()?,
            abandoned: d.u64()?,
            tampered_rejected: d.u64()?,
        };

        let recorder_ck = if d.bool()? {
            let t_us = d.u64()?;
            let seq = d.u64()?;
            let mut emitted = [0u64; Subsystem::COUNT];
            for slot in &mut emitted {
                *slot = d.u64()?;
            }
            let metrics = dec_digest(&mut d)?;
            Some(RecorderCheckpoint {
                t_us,
                seq,
                emitted,
                metrics,
            })
        } else {
            None
        };

        let blob = d.bytes()?.to_vec();
        d.finish()?;

        // All bytes verified — now rebuild the problem the plan was
        // solved over.
        let (specs, base_problem) = rebuild_from_plan(plan, scenario, config)?;
        let problem = if ladder_level == 0 {
            base_problem.clone()
        } else {
            degraded_problem(
                &base_problem,
                &scenario.mission,
                &specs,
                config.grid,
                ladder_level,
            )
        };

        // Stand up a fresh simulator with no faults scheduled (the
        // restored event queue already contains them) and restore the
        // snapshot over it. Behaviours are rebuilt through the registry
        // and share the restored log/board handles.
        let mut sim = build_sim(scenario, config, false);
        let log = new_report_log();
        let board = new_task_board();
        *log.borrow_mut() = log_entries;
        board.borrow_mut().restore(&pending, stats);
        let registry = mission_behavior_registry(&log, &board);
        sim.restore_state(&blob, &registry)?;

        // Restore the recorder clock so post-resume traces continue the
        // original sequence numbering and sampling phase.
        if let Some(ck) = recorder_ck {
            if config.recorder.is_enabled() && !config.recorder.restore_checkpoint(&ck) {
                return Err(CkptError::Mismatch(
                    "recorder metrics in checkpoint are internally inconsistent".to_string(),
                ));
            }
        }

        let detector = FailureDetector::from_checkpoint(detector_threshold, &detector_entries);
        let mut ladder = DegradationLadder::new(
            config.shed_threshold,
            config.restore_threshold,
            config.ladder_patience,
        );
        ladder.restore_counters(ladder_level, ladder_below, ladder_above);

        let total_windows =
            (config.duration.as_secs_f64() / config.window.as_secs_f64()).ceil() as usize;

        Ok(MissionRunner {
            scenario: scenario.clone(),
            config: config.clone(),
            plan: plan.clone(),
            specs,
            base_problem,
            problem,
            sim,
            log,
            board,
            selection,
            current,
            active_reporters,
            windows,
            repairs,
            total_windows,
            next_window,
            failed_ever,
            detector,
            ladder,
            resilience,
            log_cursor,
            repair_ms: 0.0,
        })
    }
}

/// Rebuilds the candidate specs and the composition problem `plan` was
/// solved over, refusing a plan that does not fit `scenario`.
pub(crate) fn rebuild_from_plan(
    plan: &MissionPlan,
    scenario: &Scenario,
    config: &RunConfig,
) -> Result<(Vec<NodeSpec>, CompositionProblem), CkptError> {
    if plan.seed != scenario.seed {
        return Err(CkptError::Mismatch(format!(
            "plan was composed for seed {}, resume has seed {}",
            plan.seed, scenario.seed
        )));
    }
    let specs = plan
        .admitted
        .iter()
        .map(|&id| {
            scenario.catalog.get(id).cloned().ok_or_else(|| {
                CkptError::Mismatch(format!("plan admits node {id}, missing from the catalog"))
            })
        })
        .collect::<Result<Vec<NodeSpec>, CkptError>>()?;
    let problem = CompositionProblem::from_mission(&scenario.mission, &specs, config.grid);
    if let Some(&i) = plan
        .composition
        .selected
        .iter()
        .find(|&&i| i >= problem.candidates.len())
    {
        return Err(CkptError::Mismatch(format!(
            "plan selects candidate {i}, but the rebuilt problem has {} candidates",
            problem.candidates.len()
        )));
    }
    Ok((specs, problem))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::StepOutcome;
    use crate::scenario::persistent_surveillance;
    use iobt_netsim::SimDuration;

    fn cfg() -> RunConfig {
        RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .window(SimDuration::from_secs_f64(10.0))
            .build()
            .expect("valid")
    }

    #[test]
    fn save_resume_roundtrip_reproduces_the_uninterrupted_digest() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let baseline = crate::runtime::run_mission(&scenario, &config);

        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        runner.step_window().window_stat().expect("window 1");
        let payload = runner.save().expect("checkpointable");
        drop(runner); // the "crashed" process

        let mut resumed = MissionRunner::resume(&scenario, &config, &payload).expect("resume");
        assert_eq!(resumed.window_index(), 2);
        while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
        let report = resumed.finish();
        assert_eq!(report.digest, baseline.digest);
        assert_eq!(report.windows, baseline.windows);
    }

    #[test]
    fn resume_rejects_wrong_seed_and_config() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");

        let mut other_seed = scenario.clone();
        other_seed.seed ^= 1;
        assert!(matches!(
            MissionRunner::resume(&other_seed, &config, &payload),
            Err(CkptError::Mismatch(_))
        ));

        let other_cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(40.0))
            .window(SimDuration::from_secs_f64(10.0))
            .repair_threshold(0.5)
            .build()
            .expect("valid");
        assert!(matches!(
            MissionRunner::resume(&scenario, &other_cfg, &payload),
            Err(CkptError::Mismatch(_))
        ));
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");
        // Every prefix must decode to an error, never panic. Stride keeps
        // the test fast on multi-hundred-KB payloads.
        for len in (0..payload.len()).step_by(97) {
            assert!(
                MissionRunner::resume(&scenario, &config, &payload[..len]).is_err(),
                "prefix of {len} bytes must be rejected"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = payload;
        padded.push(0);
        assert!(MissionRunner::resume(&scenario, &config, &padded).is_err());
    }

    /// A window-1 checkpoint plus the plan of the run that wrote it.
    fn planned_checkpoint() -> (Scenario, RunConfig, MissionPlan, Vec<u8>) {
        let scenario = persistent_surveillance(80, 11);
        let config = cfg();
        let mut runner = MissionRunner::new(&scenario, &config);
        runner.step_window().window_stat().expect("window 0");
        let payload = runner.save().expect("checkpointable");
        let plan = runner.plan().clone();
        (scenario, config, plan, payload)
    }

    fn plan_mismatch(
        scenario: &Scenario,
        config: &RunConfig,
        plan: &MissionPlan,
        payload: &[u8],
    ) -> String {
        match MissionRunner::resume_from_plan(scenario, config, plan, payload) {
            Err(CkptError::Mismatch(why)) => why,
            Err(other) => panic!("expected a mismatch, got {other}"),
            Ok(_) => panic!("expected a mismatch, the plan was accepted"),
        }
    }

    /// At every ladder level the problem resume rebuilds from the plan —
    /// base and degraded — equals the one the checkpointed run held.
    #[test]
    fn resume_from_plan_rebuilds_the_degraded_problem_at_every_ladder_level() {
        let (scenario, config, plan, _) = planned_checkpoint();
        for level in 1..=crate::resilience::MAX_LADDER_LEVEL {
            let mut runner = MissionRunner::new(&scenario, &config);
            runner.step_window().window_stat().expect("window 0");
            runner.ladder.restore_counters(level, 0, 0);
            runner.problem = degraded_problem(
                &runner.base_problem,
                &scenario.mission,
                &runner.specs,
                config.grid,
                level,
            );
            let payload = runner.save().expect("checkpointable");
            let resumed = MissionRunner::resume_from_plan(&scenario, &config, &plan, &payload)
                .expect("plan fits its own scenario");
            assert_eq!(resumed.specs, runner.specs, "level {level}");
            assert_eq!(resumed.base_problem, runner.base_problem, "level {level}");
            assert_eq!(resumed.problem, runner.problem, "level {level}");
        }
    }

    #[test]
    fn resume_from_plan_rejects_a_plan_for_another_seed() {
        let (scenario, config, _, payload) = planned_checkpoint();
        let mut other = scenario.clone();
        other.seed ^= 1;
        let foreign = MissionPlan::compose(&other, &config, &Recorder::disabled());
        let why = plan_mismatch(&scenario, &config, &foreign, &payload);
        assert!(why.contains("seed"), "{why}");
    }

    #[test]
    fn resume_from_plan_rejects_an_admitted_node_missing_from_the_catalog() {
        let (scenario, config, mut plan, payload) = planned_checkpoint();
        plan.admitted.push(NodeId::new(u64::MAX));
        let why = plan_mismatch(&scenario, &config, &plan, &payload);
        assert!(why.contains("catalog"), "{why}");
    }

    #[test]
    fn resume_from_plan_rejects_a_selection_outside_the_rebuilt_problem() {
        let (scenario, config, mut plan, payload) = planned_checkpoint();
        plan.composition.selected.push(plan.admitted.len());
        let why = plan_mismatch(&scenario, &config, &plan, &payload);
        assert!(why.contains("candidate"), "{why}");
    }
}
