//! `campaign`: one 1,000-node `persistent_surveillance` mission of
//! 120 simulated seconds under a light generated fault campaign, with
//! early repair, the degradation ladder and acked tasking on. Its
//! recorder feeds the edge bridge over an in-memory transport, pumped
//! once per window and drained at the end. Composition at the scale
//! the paper names; stepping rebuilds the whole connectivity graph on
//! every channel-wide fault; the trace sink and the bridge do real work
//! only here.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use iobt_bridge::{memory_pair, Bridge, BridgeConfig, MemoryEndpoint};
use iobt_ckpt::Enc;
use iobt_core::{
    encode_end_state_digest, persistent_surveillance, MissionRunner, RunConfig, Scenario,
    StepOutcome,
};
use iobt_discovery::{
    recruit, AffiliationClassifier, DiscoveryTracker, EmissionModel, NaiveBayes, RecruitPolicy,
    TrackerConfig,
};
use iobt_faults::{generate_campaign, CampaignConfig};
use iobt_netsim::{SimDuration, Simulator};
use iobt_obs::{Recorder, TraceSink};
use iobt_synthesis::{assess, failure_probability, CompositionProblem};
use iobt_types::{Affiliation, NodeId, TrustLedger};

use crate::decorate::{SinkClock, TimedSink};
use crate::measure::{fnv1a, millis, peak_rss_mb, process_cpu_s, secs, Samples, FNV_OFFSET};
use crate::report::Report;
use crate::{goldens, Budget};

/// Population of the mission (plus its command post).
const NODES: usize = 1_000;
/// Seed of the theater: population, terrain, mission, scripted
/// attrition and the generated fault campaign. The run's seed drives
/// everything stochastic inside the theater (emission sightings and
/// so discovery and recruitment, the radio channel, assurance
/// sampling, the bridge's jitter), so each seed gives different
/// outputs while composition and stepping cost about the same work.
/// With the campaign drawn from the run's seed instead, the number of
/// full graph rebuilds ranged 83–131 across seeds 1–5 and the
/// stepping time with it.
const THEATER_SEED: u64 = 42;
/// Simulated mission length, seconds.
const DURATION_S: f64 = 120.0;
/// Utility-window length, seconds (one bridge pump per window).
const WINDOW_S: f64 = 10.0;
/// Bridge ring and per-tick batch: large enough that one pump per
/// window moves every frame and none is dropped.
const BRIDGE_FRAMES: usize = 1 << 20;
/// Set-ups timed per repetition.
const SETUPS_PER_REP: usize = 16;
/// Pump ticks the final drain may take.
const DRAIN_TICKS: u64 = 64;

struct Stood {
    scenario: Scenario,
    config: RunConfig,
    recorder: Recorder,
    bridge: Bridge,
    consumer: MemoryEndpoint,
}

/// Builds the scenario, its fault plan, the bridge and the recorder.
fn stand_up(seed: u64, sink_clock: Option<&Rc<RefCell<SinkClock>>>) -> Stood {
    let mut scenario = persistent_surveillance(NODES, THEATER_SEED);
    scenario.seed = seed;
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let campaign = CampaignConfig::light(
        SimDuration::from_secs_f64(DURATION_S),
        scenario.mission.area(),
    );
    scenario.fault_plan = generate_campaign(THEATER_SEED, &blue, &campaign);

    let (transport, consumer) = memory_pair();
    let bridge = Bridge::new(
        BridgeConfig {
            mission: seed,
            seed,
            ring_capacity: BRIDGE_FRAMES,
            batch_per_tick: BRIDGE_FRAMES,
            ..BridgeConfig::default()
        },
        Box::new(transport),
    );
    let sink: Box<dyn TraceSink> = match sink_clock {
        Some(clock) => Box::new(TimedSink::new(bridge.sink(), Rc::clone(clock))),
        None => Box::new(bridge.sink()),
    };
    let recorder = Recorder::with_sink(sink);
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(DURATION_S))
        .window(SimDuration::from_secs_f64(WINDOW_S))
        .early_repair(true)
        .degradation_ladder(true)
        .acked_tasking(true)
        .recorder(recorder.clone())
        .build()
        .expect("campaign run config is valid");
    Stood {
        scenario,
        config,
        recorder,
        bridge,
        consumer,
    }
}

/// The phase 1–3 steps the replay times, as per-layer metric names.
const PHASES: [&str; 7] = [
    "discovery.classify_ms",
    "discovery.recruit_ms",
    "netsim.graph_build_ms",
    "netsim.route_ms",
    "synthesis.problem_ms",
    "synthesis.solve_ms",
    "synthesis.assure_ms",
];

/// What the replay composed, to compare with the runner's report.
#[derive(Debug, PartialEq)]
struct Composed {
    recruited: usize,
    unreachable: usize,
    selected: Vec<usize>,
}

/// Replays phases 1–3 of `MissionRunner::new` (discovery, recruitment,
/// reachability, synthesis, assurance) call by call. Returns what it
/// composed, the wall ms of each of [`PHASES`], and the number of
/// reachability routes it asked for.
fn replay_compose(scenario: &Scenario, config: &RunConfig) -> (Composed, [f64; 7], u64) {
    let mut ms = [0.0; 7];
    let start = Instant::now();
    let mut emissions = EmissionModel::new(scenario.seed ^ 0xD15C);
    let train = emissions.labelled_dataset(300);
    let classifier = NaiveBayes::fit(&train).expect("balanced training set");
    let mut tracker = DiscoveryTracker::new(TrackerConfig::default());
    let mut ledger = TrustLedger::new();
    for node in scenario.catalog.iter() {
        let obs = emissions.observe_with_spoofing(node.affiliation(), 0.1);
        tracker.observe(node.id(), 0.0, node.position(), classifier.posterior(&obs));
        let obs2 = emissions.observe_with_spoofing(node.affiliation(), 0.1);
        tracker.observe(node.id(), 1.0, node.position(), classifier.posterior(&obs2));
        let est = tracker
            .estimate(node.id())
            .expect("just observed")
            .affiliation();
        ledger.enroll(node.id(), est);
    }
    ms[0] = millis(start);

    let start = Instant::now();
    let pool = recruit(
        &scenario.catalog,
        &tracker,
        &ledger,
        &RecruitPolicy::default(),
        2.0,
        TrackerConfig::default().presence_tau_s,
    );
    ms[1] = millis(start);

    let mut specs: Vec<_> = pool.admitted.iter().map(|a| a.spec.clone()).collect();
    let start = Instant::now();
    let mut probe = Simulator::builder(scenario.catalog.clone())
        .terrain(scenario.terrain.clone())
        .seed(scenario.seed)
        .build();
    let graph = probe.connectivity();
    ms[2] = millis(start);
    let routes = specs.len();
    let start = Instant::now();
    specs.retain(|spec| graph.route(spec.id(), scenario.command_post).is_some());
    ms[3] = millis(start);

    let start = Instant::now();
    let problem = CompositionProblem::from_mission(&scenario.mission, &specs, config.grid);
    ms[4] = millis(start);
    let start = Instant::now();
    let composition = config.solver.solve(&problem);
    ms[5] = millis(start);
    let start = Instant::now();
    let failure_probs: Vec<f64> = composition
        .selected
        .iter()
        .map(|&i| failure_probability(problem.candidates[i].trust, 0.05, 0.3))
        .collect();
    let mut assurance_problem = problem.clone();
    assurance_problem.required_fraction = composition.coverage * 0.9;
    std::hint::black_box(assess(
        &assurance_problem,
        &composition.selected,
        &failure_probs,
        2_000,
        scenario.seed ^ 0xA55E,
    ));
    ms[6] = millis(start);
    let composed = Composed {
        recruited: pool.admitted.len(),
        unreachable: routes - specs.len(),
        selected: composition.selected,
    };
    (composed, ms, routes as u64)
}

/// FNV-1a over the end-state digest's canonical encoding.
fn digest_fingerprint(digest: &iobt_core::EndStateDigest) -> u64 {
    let mut enc = Enc::new();
    encode_end_state_digest(&mut enc, digest);
    let mut fp = FNV_OFFSET;
    fnv1a(&mut fp, &enc.into_bytes());
    fp
}

/// Per-repetition results that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Outputs {
    digest: u64,
    metrics: u64,
    frames: u64,
}

pub fn run(seed: u64, budget: &Budget, trace: bool, report: &mut Report) {
    println!(
        "inputs: nodes={NODES} theater_seed={THEATER_SEED} sim_seconds={DURATION_S} window_s={WINDOW_S} \
         faults=CampaignConfig::light early_repair=on degradation_ladder=on acked_tasking=on \
         bridge=memory_pair(pump once per window) threads=1"
    );
    let mut setup = Samples::default();
    let mut compose = Samples::default();
    let mut rate = Samples::default();
    let mut cpu = Samples::default();
    let mut plain_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut step_ms = Samples::default();
    let mut pump_s = Samples::default();
    let mut accept_s = Samples::default();
    let mut frames_per_s = Samples::default();
    let mut explained = Samples::default();
    let mut phases: [Samples; 7] = Default::default();
    let mut outputs = Vec::new();
    let mut traced_counts = None;
    let mut rep = 0;
    while budget.more(rep, trace) {
        let traced = trace && rep % 2 == 1;
        let sink_clock = traced.then(|| Rc::new(RefCell::new(SinkClock::default())));
        // Set-up takes well under a millisecond: stand up several times
        // and keep the last, so its median rests on many samples.
        let mut stood = None;
        for _ in 0..SETUPS_PER_REP {
            let start = Instant::now();
            stood = Some(stand_up(seed, sink_clock.as_ref()));
            setup.push(secs(start));
        }
        let stood = stood.expect("at least one set-up per repetition");

        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let mut runner = MissionRunner::new(&stood.scenario, &stood.config);
        let compose_s = secs(start);
        stood.bridge.attach_board(runner.task_board());
        let mut rep_step = Samples::default();
        let mut rep_pump = 0.0;
        let start = Instant::now();
        loop {
            let step = Instant::now();
            if !matches!(runner.step_window(), StepOutcome::WindowClosed { .. }) {
                break;
            }
            let pump = Instant::now();
            stood.bridge.pump();
            if traced {
                rep_step.push((pump - step).as_secs_f64() * 1_000.0);
                rep_pump += secs(pump);
            }
        }
        let drain = Instant::now();
        let drained = stood.bridge.drain(DRAIN_TICKS);
        rep_pump += secs(drain);
        let loop_s = secs(start);
        let cpu_rep = process_cpu_s() - cpu0;
        let mission = runner.finish();

        let bridge = stood.bridge.report();
        let frames = stood.consumer.take_frames();
        let mut frames_fp = FNV_OFFSET;
        for f in &frames {
            fnv1a(&mut frames_fp, f);
        }
        report.attempted += bridge.emitted;
        report.failed += bridge.dropped + bridge.buffered;
        report.check(
            &format!("rep {rep} bridge ledger accounted, drained, nothing dropped"),
            bridge.accounted() && drained.is_ok() && bridge.dropped == 0 && bridge.buffered == 0,
        );
        report.check(
            &format!("rep {rep} consumer received every delivered frame"),
            frames.len() as u64 == bridge.delivered + bridge.heartbeats,
        );
        let metrics = stood.recorder.metrics_digest();
        outputs.push(Outputs {
            digest: digest_fingerprint(&mission.digest),
            metrics: metrics.fingerprint(),
            frames: frames_fp,
        });

        if let Some(clock) = sink_clock {
            traced_wall.push(compose_s + loop_s);
            let clock = clock.borrow();
            let (composed, ms, routes) = replay_compose(&stood.scenario, &stood.config);
            report.check(
                &format!("rep {rep} phase 1-3 replay composes what the runner composed"),
                composed
                    == Composed {
                        recruited: mission.recruited,
                        unreachable: mission.unreachable,
                        selected: mission.composition.selected.clone(),
                    },
            );
            for (all, one) in phases.iter_mut().zip(ms) {
                all.push(one);
            }
            let replay_s = ms.iter().sum::<f64>() / 1_000.0;
            let stepped = rep_step.sum() / 1_000.0;
            println!(
                "rep {rep} breakdown: compose {compose_s:.4} s, replay sums to {:.1}% of it; \
                 loop {loop_s:.4} s = core.step {stepped:.4} (of which obs sink {:.4}) \
                 + bridge pump and drain {rep_pump:.4} + unattributed {:.4}",
                100.0 * replay_s / compose_s,
                clock.accept_s,
                loop_s - stepped - rep_pump
            );
            explained.push((replay_s + stepped + rep_pump) / (compose_s + loop_s));
            step_ms.extend(&rep_step);
            pump_s.push(rep_pump);
            accept_s.push(clock.accept_s);
            frames_per_s.push(bridge.delivered as f64 / rep_pump);
            traced_counts = Some((routes, clock.records, bridge, metrics));
        } else {
            plain_wall.push(compose_s + loop_s);
            compose.push(compose_s);
            rate.push(DURATION_S / loop_s);
            cpu.push(cpu_rep);
            println!(
                "rep {rep}: compose_s={compose_s:.4} loop_s={loop_s:.4} frames={} graph_rebuilds={}",
                bridge.delivered,
                metrics.counter("netsim.graph_rebuilds").unwrap_or(0),
            );
        }
        rep += 1;
    }

    let first = outputs[0];
    println!(
        "fingerprints digest={:016x} metrics={:016x} frames={:016x}",
        first.digest, first.metrics, first.frames
    );
    report.check(
        "every run, traced or not, has the same digest, metrics and frame fingerprints",
        outputs.iter().all(|o| *o == first),
    );
    if let Some((digest, metrics, frames)) = goldens::campaign(seed) {
        report.check(
            &format!("fingerprints equal goldens {digest:016x} {metrics:016x} {frames:016x}"),
            first
                == Outputs {
                    digest,
                    metrics,
                    frames,
                },
        );
    }

    report.median_of("setup_s", &setup);
    report.headline("compose_s", "s", &compose);
    if let Some((routes, records, bridge, metrics)) = traced_counts {
        for (name, samples) in PHASES.into_iter().zip(&phases) {
            report.median_of(name, samples);
        }
        report.metric("netsim.routes", routes as f64);
        report.median_of("core.step_ms", &step_ms);
        report.median_of("obs.sink_accept_s", &accept_s);
        report.metric("obs.records", records as f64);
        report.median_of("bridge.pump_s", &pump_s);
        report.metric("bridge.emitted", bridge.emitted as f64);
        report.metric("bridge.delivered", bridge.delivered as f64);
        report.metric("bridge.dropped", bridge.dropped as f64);
        report.median_of("bridge.frames_per_s", &frames_per_s);
        for name in [
            "netsim.graph_rebuilds",
            "netsim.msg_sent",
            "core.early_repairs",
            "core.repairs_applied",
            "core.task_retries",
            "synthesis.solves",
        ] {
            report.metric(name, metrics.counter(name).unwrap_or(0) as f64);
        }
        report.median_of("bench.explained_share", &explained);
        report.metric(
            "bench.trace_overhead_s",
            traced_wall.median() - plain_wall.median(),
        );
    } else {
        report.median_of("sim_rate", &rate);
        report.median_of("cpu_s", &cpu);
        report.metric("peak_rss_mb", peak_rss_mb());
    }
}
