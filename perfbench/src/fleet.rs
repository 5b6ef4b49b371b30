//! `fleet`: a batch of 1,000 32-node `persistent_surveillance`
//! missions (two 10 s windows each), the `fleet_scale` configuration,
//! drained by `Fleet` with one worker per hardware thread and the
//! default residency. Most missions are evicted and resumed: each
//! resume reruns mission setup and each eviction encodes a checkpoint
//! envelope, so core setup, resume and ckpt dominate. Checkpoints go to
//! the in-memory [`MemStore`], not to disk (see there why).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use iobt_core::{persistent_surveillance, MissionRunner, RunConfig, StepOutcome};
use iobt_fleet::{Fleet, FleetBuilder, MissionStatus, MissionTicket};
use iobt_netsim::SimDuration;
use iobt_obs::Recorder;

use crate::decorate::{MemStore, StoreClock, TimedStore};
use crate::measure::{fnv1a, millis, peak_rss_mb, process_cpu_s, secs, Samples, FNV_OFFSET};
use crate::report::Report;
use crate::{goldens, Budget};

/// Missions per batch (the `fleet_scale` 1k row).
const MISSIONS: usize = 1_000;
/// Nodes per mission.
const MISSION_NODES: usize = 32;
/// Simulated seconds per mission.
const MISSION_SECONDS: f64 = 20.0;
/// Utility-window seconds (two windows per mission).
const WINDOW_SECONDS: f64 = 10.0;
/// Missions of the batch replayed serially per traced repetition for
/// the core timings.
const SAMPLE: usize = 32;

fn run_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(MISSION_SECONDS))
        .window(SimDuration::from_secs_f64(WINDOW_SECONDS))
        .recorder(recorder)
        .build()
        .expect("fleet run config is valid")
}

/// Builds the fleet and submits the batch; mission `i` has seed
/// `seed + i`.
fn stand_up(
    seed: u64,
    workers: usize,
    root: &Path,
    store: Option<Arc<StoreClock>>,
) -> (Fleet, Vec<MissionTicket>) {
    let builder = FleetBuilder::new().workers(workers).checkpoint_root(root);
    let builder = match store {
        Some(clock) => builder.store(TimedStore::new(MemStore::default(), clock)),
        None => builder.store(MemStore::default()),
    };
    let mut fleet = builder.build().expect("fleet config is valid");
    let tickets = (0..MISSIONS)
        .map(|i| {
            let scenario = persistent_surveillance(MISSION_NODES, seed.wrapping_add(i as u64));
            fleet
                .submit(scenario, run_config(Recorder::disabled()))
                .expect("mission is admissible")
        })
        .collect();
    (fleet, tickets)
}

/// The `fleet_scale` combined fingerprint over every mission's end
/// state, in ticket order.
fn fingerprint(fleet: &Fleet, tickets: &[MissionTicket]) -> Option<u64> {
    let mut fp = FNV_OFFSET;
    for &t in tickets {
        let d = fleet.digest(t)?;
        fnv1a(&mut fp, &fleet.metrics_fingerprint(t)?.to_le_bytes());
        for v in [d.sent, d.delivered, d.dropped] {
            fnv1a(&mut fp, &v.to_le_bytes());
        }
        fnv1a(&mut fp, &d.energy_spent_j.to_bits().to_le_bytes());
        fnv1a(&mut fp, &d.mean_utility.to_bits().to_le_bytes());
    }
    Some(fp)
}

/// Core timings of the serial evict/resume replay.
#[derive(Default)]
struct CoreClock {
    setup_ms: Samples,
    step_ms: Samples,
    save_ms: Samples,
    resume_ms: Samples,
}

/// Replays mission `i` of the batch through `MissionRunner` in the
/// fleet's evict/resume pattern (new, step, save, resume, step,
/// finish) and returns its digest and metrics fingerprint.
fn replay(seed: u64, i: usize, clock: &mut CoreClock) -> (iobt_core::EndStateDigest, u64) {
    let scenario = persistent_surveillance(MISSION_NODES, seed.wrapping_add(i as u64));
    let recorder = Recorder::null();
    let config = run_config(recorder);
    let start = Instant::now();
    let mut runner = MissionRunner::new(&scenario, &config);
    clock.setup_ms.push(millis(start));
    let start = Instant::now();
    let stepped = runner.step_window();
    clock.step_ms.push(millis(start));
    assert!(
        matches!(stepped, StepOutcome::WindowClosed { .. }),
        "window 0 runs"
    );
    let start = Instant::now();
    let payload = runner
        .save()
        .expect("mission behaviours are checkpointable");
    clock.save_ms.push(millis(start));
    drop(runner);
    let recorder = Recorder::null();
    let config = run_config(recorder.clone());
    let start = Instant::now();
    let mut runner =
        MissionRunner::resume(&scenario, &config, &payload).expect("own checkpoint resumes");
    clock.resume_ms.push(millis(start));
    while runner.window_index() < runner.total_windows() {
        let start = Instant::now();
        runner.step_window();
        clock.step_ms.push(millis(start));
    }
    let report = runner.finish();
    (report.digest, recorder.metrics_digest().fingerprint())
}

/// The fleet's checkpoint root, inside the working directory. Nothing
/// is written there while checkpoints go to [`MemStore`] and the
/// manifest is off; it keeps any file the fleet might write out of the
/// system temp directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench_run").join(format!("fleet-{}", std::process::id()))
}

pub fn run(seed: u64, budget: &Budget, trace: bool, workers: usize, report: &mut Report) {
    let root = scratch_dir();
    println!(
        "inputs: missions={MISSIONS} nodes_per_mission={MISSION_NODES} mission_seconds={MISSION_SECONDS} \
         window_seconds={WINDOW_SECONDS} workers={workers} max_resident=64/worker checkpoint_root={}",
        root.display()
    );
    let mut setup = Samples::default();
    let mut rate = Samples::default();
    let mut cpu = Samples::default();
    let mut per_mission = Samples::default();
    let mut plain_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut core = CoreClock::default();
    let mut store_save = Samples::default();
    let mut store_load = Samples::default();
    let mut store_clear = Samples::default();
    let mut unattributed = Samples::default();
    let mut share = Samples::default();
    let mut fingerprints = Vec::new();
    let mut last_summary = None;
    let mut bytes_saved = 0;
    let mut rep = 0;
    while budget.more(rep, trace) {
        let traced = trace && rep % 2 == 1;
        let clock = traced.then(|| Arc::new(StoreClock::default()));
        let start = Instant::now();
        let (mut fleet, tickets) = stand_up(seed, workers, &root, clock.clone());
        setup.push(secs(start));

        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let summary = fleet.drain();
        let wall = secs(start);
        let cpu_rep = process_cpu_s() - cpu0;

        let done = tickets
            .iter()
            .filter(|&&t| fleet.poll(t) == Some(MissionStatus::Done))
            .count();
        report.attempted += MISSIONS as u64;
        report.failed += (MISSIONS - done) as u64;
        let fp = fingerprint(&fleet, &tickets);
        report.check(
            &format!("rep {rep} every mission Done"),
            done == MISSIONS && fp.is_some(),
        );
        fingerprints.push(fp.unwrap_or(0));

        if let Some(clock) = clock {
            traced_wall.push(wall);
            let replayed = tickets.iter().enumerate().take(SAMPLE).all(|(i, &t)| {
                let (digest, metrics) = replay(seed, i, &mut core);
                fleet.digest(t) == Some(&digest) && fleet.metrics_fingerprint(t) == Some(metrics)
            });
            report.check(
                &format!(
                    "rep {rep} serial replay of {SAMPLE} missions matches the fleet's results"
                ),
                replayed,
            );
            let saves = StoreClock::take(&clock.save_ms);
            let loads = StoreClock::take(&clock.load_ms);
            let clears = StoreClock::take(&clock.clear_ms);
            // Worker-seconds the drain had, against what the store and
            // the core replay's medians times their counts account for.
            let worker_s = wall * workers as f64;
            let core_s = (summary.completed as f64 * core.setup_ms.median()
                + summary.resumes as f64 * core.resume_ms.median()
                + summary.windows as f64 * core.step_ms.median()
                + summary.evictions as f64 * core.save_ms.median())
                / 1_000.0;
            let store_s = (saves.sum() + loads.sum() + clears.sum()) / 1_000.0;
            println!(
                "rep {rep} breakdown (worker-seconds, estimate): drain {worker_s:.3} = core {core_s:.3} \
                 + store {store_s:.3} (save {:.3}, load {:.3}, clear {:.3}) + unattributed {:.3}",
                saves.sum() / 1_000.0,
                loads.sum() / 1_000.0,
                clears.sum() / 1_000.0,
                worker_s - core_s - store_s
            );
            unattributed.push(worker_s - core_s - store_s);
            share.push((core_s + store_s) / worker_s);
            store_save.extend(&saves);
            store_load.extend(&loads);
            store_clear.extend(&clears);
            bytes_saved = clock.bytes_saved.load(std::sync::atomic::Ordering::Relaxed);
            last_summary = Some(summary);
        } else {
            plain_wall.push(wall);
            rate.push(MISSIONS as f64 * MISSION_SECONDS / wall);
            per_mission.push(MISSIONS as f64 / wall);
            cpu.push(cpu_rep);
            println!(
                "rep {rep}: missions_per_s={:.1} slices={} evictions={} resumes={}",
                MISSIONS as f64 / wall,
                summary.slices,
                summary.evictions,
                summary.resumes
            );
        }
        drop(fleet);
        rep += 1;
    }
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(root.parent().unwrap_or(&root));

    let first = fingerprints[0];
    println!("fingerprint {first:016x}");
    report.check(
        "every drain, traced or not, has the same combined fingerprint",
        fingerprints.iter().all(|&fp| fp == first),
    );
    if let Some(golden) = goldens::fleet(seed) {
        report.check(
            &format!("fingerprint equals golden {golden:016x}"),
            first == golden,
        );
    }

    report.median_of("setup_s", &setup);
    if let Some(s) = last_summary {
        for (name, v) in [
            ("fleet.slices", s.slices),
            ("fleet.windows", s.windows),
            ("fleet.evictions", s.evictions),
            ("fleet.resumes", s.resumes),
            ("fleet.retries", s.retries),
            ("fleet.quarantined", s.quarantined as u64),
        ] {
            report.metric(name, v as f64);
        }
        report.metric("fleet.resume_ratio", s.resumes as f64 / MISSIONS as f64);
        report.median_of("ckpt.store_save_ms", &store_save);
        report.median_of("ckpt.store_load_ms", &store_load);
        report.median_of("ckpt.store_clear_ms", &store_clear);
        report.metric("ckpt.bytes_saved", bytes_saved as f64);
        report.median_of("core.setup_ms", &core.setup_ms);
        report.median_of("core.step_ms", &core.step_ms);
        report.median_of("core.save_ms", &core.save_ms);
        report.median_of("core.resume_ms", &core.resume_ms);
        println!("fleet.unattributed_s is an estimate: drain worker-seconds less store time and core replay medians times their counts");
        report.median_of("fleet.unattributed_s", &unattributed);
        report.median_of("bench.explained_share", &share);
        report.metric(
            "bench.trace_overhead_s",
            traced_wall.median() - plain_wall.median(),
        );
    }
    if !trace {
        report.headline("missions_per_s", "1/s", &per_mission);
        report.median_of("sim_rate", &rate);
        report.median_of("cpu_s", &cpu);
        report.metric("peak_rss_mb", peak_rss_mb());
    }
}
