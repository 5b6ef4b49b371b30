//! Umbrella crate for the IoBT platform: one facade over discovery,
//! assured synthesis, adaptive execution, resilient learning, and the
//! battlefield network simulator, with deterministic observability
//! throughout.
//!
//! Most programs only need the [`prelude`]:
//!
//! ```no_run
//! use iobt::prelude::*;
//!
//! let scenario = persistent_surveillance(200, 42);
//! let (recorder, ring) = Recorder::memory(4096);
//! let config = RunConfig::builder()
//!     .recorder(recorder.clone())
//!     .build()
//!     .expect("valid run config");
//! let report = run_mission(&scenario, &config);
//! println!(
//!     "recruited {}, mean utility {:.2}, {} trace events",
//!     report.recruited,
//!     report.mean_utility(),
//!     ring.records().len()
//! );
//! ```
//!
//! The individual subsystems remain addressable by module for anything the
//! prelude does not cover: [`mod@core`] (mission runtime), [`fleet`]
//! (multi-tenant mission scheduling), [`bridge`] (edge streaming),
//! [`netsim`] (simulator), [`synthesis`], [`adapt`], [`discovery`],
//! [`truth`] (social sensing), [`learning`], [`tomography`], [`obs`]
//! (observability), and [`types`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use iobt_adapt as adapt;
pub use iobt_core as core;
pub use iobt_discovery as discovery;
pub use iobt_faults as faults;
pub use iobt_learning as learning;
pub use iobt_netsim as netsim;
pub use iobt_obs as obs;
pub use iobt_synthesis as synthesis;
pub use iobt_tomography as tomography;
pub use iobt_truth as truth;
pub use iobt_types as types;

pub use iobt_core::ckpt;
pub use iobt_core::{
    run_mission, EndStateDigest, MissionPlan, MissionReport, MissionRunner, PortableRunConfig,
    ResilienceReport, RunConfig, RunConfigBuilder, RunConfigError, StepOutcome, WallClockReport,
    WindowStat,
};
pub use iobt_bridge as bridge;
pub use iobt_bridge::{
    Bridge, BridgeConfig, BridgeError, BridgeReport, ConnState, FaultyTransport, OverflowPolicy,
    TcpTransport, Transport, TransportError, TransportFaultProfile,
};
pub use iobt_fleet as fleet;
pub use iobt_fleet::{
    DiskStore, FailingStore, FaultProfile, Fleet, FleetBuilder, FleetConfigError, FleetSummary,
    MissionError, MissionErrorKind, MissionStatus, MissionTicket, RecoverError, Store, SubmitError,
};
pub use iobt_obs::Recorder;

/// Curated re-exports covering the whole pipeline.
///
/// Name collisions across subsystems are resolved in favour of the mission
/// pipeline: `Scenario` is the mission scenario
/// ([`iobt_core::scenario::Scenario`]); the social-sensing scenario from
/// [`iobt_truth`] stays at `iobt::truth::Scenario`.
pub mod prelude {
    // Mission runtime + scenarios (iobt-core).
    pub use iobt_core::{
        allocate_missions, calibrate_human_trust, diagnose_failures, disaster_relief,
        persistent_surveillance, run_mission, urban_evacuation, CalibrationSummary,
        DegradationLadder, DiagnosisReport, Disruption, EndStateDigest, FailureDetector,
        LadderStep, MissionAllocation, MissionPlan, MissionReport, MissionRunner, NetworkModel,
        PortableRunConfig, ResilienceReport, RunConfig, RunConfigBuilder, RunConfigError,
        Scenario, StepOutcome, TaskingPlan, TaskingStats, WallClockReport, WindowStat,
        COMMAND_POST_ID, MAX_LADDER_LEVEL,
    };
    // Multi-tenant mission scheduling (iobt-fleet).
    pub use iobt_fleet::{
        DiskStore, FailingStore, FaultProfile, Fleet, FleetBuilder, FleetConfigError,
        FleetSummary, MissionError, MissionErrorKind, MissionStatus, MissionTicket, RecoverError,
        Store, SubmitError,
    };
    // Edge streaming bridge (iobt-bridge).
    pub use iobt_bridge::{
        memory_pair, Bridge, BridgeConfig, BridgeError, BridgeReport, ConnState, FaultyTransport,
        OverflowPolicy, TcpTransport, Transport, TransportError, TransportFaultProfile,
    };
    // Crash-safe checkpointing (iobt-ckpt).
    pub use iobt_core::ckpt::{
        write_checkpoint_atomic, CheckpointStore, CkptError, LatestGood,
    };
    // Deterministic fault injection (iobt-faults).
    pub use iobt_faults::{generate_campaign, CampaignConfig, FaultEvent, FaultKind, FaultPlan};
    // Observability (iobt-obs).
    pub use iobt_obs::{
        DropCause, Histogram, HistogramSnapshot, JsonlSink, MetricsDigest, NullSink, Recorder,
        RingHandle, RingSink, SamplingConfig, SharedBytes, Subsystem, TraceEvent, TraceRecord,
        TraceSink,
    };
    // Shared vocabulary types (iobt-types).
    pub use iobt_types::{
        ActuatorKind, Affiliation, CapabilityProfile, CommanderIntent, ComputeClass, EnergyBudget,
        Mission, MissionId, MissionKind, NodeCatalog, NodeId, NodeSpec, Point, Priority, Radio,
        RadioKind, Rect, Sensor, SensorKind, TaskId, TrustLedger, TrustScore,
    };
    // Network simulator (iobt-netsim).
    pub use iobt_netsim::{
        Behavior, Channel, ChurnProcess, Clutter, CompromiseSpec, ConnectivityGraph, Context,
        Jammer, LinkDegradation, Message, MobilityModel, NetStats, PartitionSpec, SimDuration,
        SimTime, Simulator, SimulatorBuilder, SleepSchedule, Summary, Terrain,
    };
    // Assured synthesis (iobt-synthesis).
    pub use iobt_synthesis::{
        assess, failure_probability, repair, repair_with, repair_with_timed, AssuranceReport,
        Candidate, CompositionProblem, CompositionResult, MemberOutcome, RepairResult, SolveStats,
        Solver, SolverBudget,
    };
    // Adaptive reflexes (iobt-adapt).
    pub use iobt_adapt::{
        hotspot_trace, simulate, simulate_observed, ActuationController, ActuationDecision,
        AllocationPolicy, AllocationRun, AuditEntry, Equilibrium, HumanAuthorization, IntentGame,
        InvariantMonitor, ModalitySwitcher, PiController, QueuePlant, StabilizationReport,
        Stabilizer, SwitchPolicy,
    };
    pub use iobt_adapt::estimation::{track, AlphaBetaFilter, FusionRule, TrackingRun};
    // Discovery + recruitment (iobt-discovery).
    pub use iobt_discovery::{
        recruit, AffiliationClassifier, DiscoveryTracker, EmissionModel, NaiveBayes,
        RecruitPolicy, RecruitmentPool, TrackerConfig,
    };
    // Social sensing / truth discovery (iobt-truth). `Scenario` stays out
    // of the prelude to avoid clashing with the mission scenario.
    pub use iobt_truth::{
        discover, majority_vote, rank_attention, weighted_vote, AttentionScore, EmConfig, Report,
        ScenarioBuilder, StreamingDiscoverer, TruthEstimate,
    };
    // Resilient learning (iobt-learning).
    pub use iobt_learning::{
        cost_aware_sgd, decentralized_sgd, logistic_dataset, partition, poison_labels,
        train_blind, train_contextual, train_federated, ActivationPolicy, Aggregator,
        ByzantineAttack, Dataset, FederatedConfig, FederatedRun, LogisticModel, MixingTopology,
        TaskStream,
    };
    // Network tomography (iobt-tomography).
    pub use iobt_tomography::{
        degree_placement, greedy_placement, localize_failures, random_placement, sample_metrics,
        InferenceResult, Localization, MeasurementSystem, Topology,
    };
}
