//! Integration: crash-safe checkpointing with deterministic resume.
//!
//! The property under test is the strongest one the runtime promises: a
//! run killed after *any* window and resumed from its checkpoint must be
//! indistinguishable — end-state digest, metrics fingerprint, and the
//! post-resume JSONL trace — from the same-seed run that was never
//! interrupted. Plus the storage half: corrupted checkpoint files of any
//! kind are rejected with an error, never a panic, and never silently
//! accepted.

use iobt::ckpt::{decode_checkpoint, encode_checkpoint};
use iobt::prelude::*;

const SEEDS: [u64; 4] = [3, 17, 42, 1009];

fn quick_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(60.0))
        .window(SimDuration::from_secs_f64(10.0))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

fn armed_chaos_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(120.0))
        .window(SimDuration::from_secs_f64(10.0))
        .early_repair(true)
        .degradation_ladder(true)
        .acked_tasking(true)
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

fn chaos_scenario(seed: u64) -> Scenario {
    let mut scenario = persistent_surveillance(200, seed);
    let blue: Vec<NodeId> = scenario
        .catalog
        .with_affiliation(Affiliation::Blue)
        .iter()
        .map(|n| n.id())
        .collect();
    let campaign = CampaignConfig::light(
        SimDuration::from_secs_f64(120.0),
        scenario.mission.area(),
    );
    scenario.fault_plan = generate_campaign(seed, &blue, &campaign);
    scenario
}

/// A mission whose ladder sheds mid-run: a permanent blackout over the
/// whole theater pins utility to zero from 12 s on.
fn blackout_scenario(seed: u64) -> Scenario {
    let mut scenario = persistent_surveillance(120, seed);
    scenario.fault_plan =
        FaultPlan::new().blackout(SimTime::from_secs_f64(12.0), scenario.mission.area(), None);
    scenario
}

fn ladder_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(60.0))
        .window(SimDuration::from_secs_f64(10.0))
        .degradation_ladder(true)
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

/// Checks that a resumed runner stands at window `kill_at`, steps it to
/// the end under a fresh JSONL sink and returns its report, metrics
/// fingerprint and post-resume trace bytes.
fn finish_resumed(
    label: &str,
    kill_at: usize,
    make_runner: impl FnOnce(&RunConfig) -> Result<MissionRunner, CkptError>,
    config: fn(Recorder) -> RunConfig,
) -> (MissionReport, u64, Vec<u8>) {
    let sink = SharedBytes::new();
    let recorder = Recorder::jsonl(sink.clone());
    let mut runner =
        make_runner(&config(recorder.clone())).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(
        runner.window_index(),
        kill_at,
        "{label}: resumed at the wrong window"
    );
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
    let report = runner.finish();
    (
        report,
        recorder.metrics_digest().fingerprint(),
        sink.to_vec(),
    )
}

/// Kills `scenario` after every window and resumes each checkpoint twice
/// — recomposing the plan ([`MissionRunner::resume`]) and from the plan
/// the killed run kept ([`MissionRunner::resume_from_plan`]) — asserting
/// both match the uninterrupted run and each other bit for bit. Returns
/// the highest degradation-ladder level any checkpoint was taken at.
fn assert_every_kill_point_resumes(
    label: &str,
    scenario: &Scenario,
    config: fn(Recorder) -> RunConfig,
) -> u64 {
    // The uninterrupted reference run.
    let full = SharedBytes::new();
    let rec = Recorder::jsonl(full.clone());
    let baseline = run_mission(scenario, &config(rec.clone()));
    let baseline_fp = rec.metrics_digest().fingerprint();
    let full_bytes = full.to_vec();

    // One stepped run, checkpointing at every window boundary.
    let (rec_killed, _ring_killed) = Recorder::memory(200_000);
    let mut runner = MissionRunner::new(scenario, &config(rec_killed.clone()));
    let plan = runner.plan().clone();
    assert_eq!(
        MissionPlan::compose(
            scenario,
            &config(Recorder::disabled()),
            &Recorder::disabled()
        ),
        plan,
        "{label}: a silently composed plan must equal the traced one"
    );
    let ladder_level = |rec: &Recorder| {
        let d = rec.metrics_digest();
        d.counter("core.sheds").unwrap_or(0) - d.counter("core.restores").unwrap_or(0)
    };
    let mut max_level = 0;
    let mut payloads = vec![runner.save().expect("checkpoint at window 0")];
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        max_level = max_level.max(ladder_level(&rec_killed));
        payloads.push(runner.save().expect("checkpoint at window boundary"));
    }
    assert_eq!(payloads.len(), baseline.windows.len() + 1);

    // "Crash" at every kill-point and resume from its checkpoint.
    for (kill_at, payload) in payloads.iter().enumerate() {
        let at = format!("{label}, killed after window {kill_at}");
        let (report, fp, bytes) = finish_resumed(
            &at,
            kill_at,
            |cfg| MissionRunner::resume(scenario, cfg, payload),
            config,
        );
        let (plan_report, plan_fp, plan_bytes) = finish_resumed(
            &at,
            kill_at,
            |cfg| MissionRunner::resume_from_plan(scenario, cfg, &plan, payload),
            config,
        );
        assert_eq!(report.digest, baseline.digest, "{at}: digest diverged");
        assert_eq!(
            report.windows, baseline.windows,
            "{at}: utility trace diverged"
        );
        assert_eq!(fp, baseline_fp, "{at}: metrics fingerprint diverged");
        assert!(
            full_bytes.ends_with(&bytes),
            "{at}: trace is not the uninterrupted tail"
        );
        assert_eq!(
            plan_report.digest, report.digest,
            "{at}: plan resume digest diverged"
        );
        assert_eq!(
            plan_report.windows, report.windows,
            "{at}: plan resume windows diverged"
        );
        assert_eq!(
            plan_fp, fp,
            "{at}: plan resume metrics fingerprint diverged"
        );
        assert!(
            plan_bytes == bytes,
            "{at}: plan resume JSONL bytes diverged"
        );
    }
    max_level
}

/// Seeds × scenario families × kill-points: a checkpoint taken after
/// every window (including window 0, before any stepping, and the final
/// window) resumes to the exact digest, metrics fingerprint and JSONL
/// trace tail of the uninterrupted run — whether resume recomposes the
/// mission's plan or reuses the one the killed run kept. The blackout
/// case checkpoints with the degradation ladder engaged, so the degraded
/// problem is rebuilt from the plan's specs.
#[test]
fn crash_resume_matrix_is_bit_identical() {
    for seed in SEEDS {
        for (family, make) in [
            (
                "surveillance",
                persistent_surveillance as fn(usize, u64) -> Scenario,
            ),
            ("evacuation", urban_evacuation),
        ] {
            let label = format!("{family} seed {seed}");
            assert_every_kill_point_resumes(&label, &make(80, seed), quick_config);
        }
    }
    let level = assert_every_kill_point_resumes("blackout", &blackout_scenario(5), ladder_config);
    assert!(
        level > 0,
        "the blackout run must checkpoint with the ladder engaged"
    );
}

/// The same guarantee with the full reaction layer armed and a fault
/// campaign in flight: the checkpoint captures in-flight fault events,
/// detector suspicions, ladder level, and retransmit state.
#[test]
fn chaos_run_killed_mid_campaign_resumes_bit_identically() {
    let seed = 17;
    let scenario = chaos_scenario(seed);

    let (rec, _ring) = Recorder::memory(400_000);
    let baseline = run_mission(&scenario, &armed_chaos_config(rec.clone()));
    let baseline_fp = rec.metrics_digest().fingerprint();
    let res = baseline.digest.resilience;
    assert!(
        res.suspected > 0 || res.sheds > 0 || res.tasking.retries > 0,
        "campaign must actually exercise the reaction layer"
    );

    // Kill mid-campaign, while transient faults are still in the queue.
    let (rec_killed, _rk) = Recorder::memory(400_000);
    let mut runner = MissionRunner::new(&scenario, &armed_chaos_config(rec_killed));
    for _ in 0..5 {
        runner.step_window().window_stat().expect("campaign run has 12 windows");
    }
    let payload = runner.save().expect("checkpointable mid-campaign");
    drop(runner);

    let (rec_resumed, _rr) = Recorder::memory(400_000);
    let mut resumed =
        MissionRunner::resume(&scenario, &armed_chaos_config(rec_resumed.clone()), &payload)
            .expect("resume mid-campaign");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    let report = resumed.finish();
    assert_eq!(report.digest, baseline.digest);
    assert_eq!(report.windows, baseline.windows);
    assert_eq!(rec_resumed.metrics_digest().fingerprint(), baseline_fp);
}

/// The post-resume JSONL trace is byte-identical to the tail of the
/// uninterrupted run's trace: a resumed process appends exactly the
/// records the uninterrupted process would have written from that point.
#[test]
fn post_resume_jsonl_trace_is_the_exact_tail_of_the_uninterrupted_one() {
    let seed = 17;
    let scenario = persistent_surveillance(80, seed);

    let full = SharedBytes::new();
    let baseline = run_mission(
        &scenario,
        &quick_config(Recorder::jsonl(full.clone())),
    );
    let full_bytes = full.to_vec();
    assert!(!full_bytes.is_empty());

    let killed_sink = SharedBytes::new();
    let mut runner = MissionRunner::new(&scenario, &quick_config(Recorder::jsonl(killed_sink)));
    runner.step_window().window_stat().expect("window 0");
    runner.step_window().window_stat().expect("window 1");
    let payload = runner.save().expect("checkpointable");
    drop(runner); // the crash: its sink dies with it

    let tail_sink = SharedBytes::new();
    let resumed_cfg = quick_config(Recorder::jsonl(tail_sink.clone()));
    let mut resumed =
        MissionRunner::resume(&scenario, &resumed_cfg, &payload).expect("resume");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    let report = resumed.finish();
    assert_eq!(report.digest, baseline.digest);

    let tail_bytes = tail_sink.to_vec();
    assert!(!tail_bytes.is_empty(), "post-resume windows must trace");
    assert!(
        full_bytes.ends_with(&tail_bytes),
        "resumed JSONL must be the byte tail of the uninterrupted JSONL \
         (full {} bytes, tail {} bytes)",
        full_bytes.len(),
        tail_bytes.len()
    );
}

/// Corruption fuzz over a *real* mission checkpoint envelope: flipping
/// any single byte, truncating at any length, and appending trailing
/// garbage must each produce `Err` — never a panic, never a silent
/// acceptance.
#[test]
fn corrupted_checkpoint_envelopes_are_always_rejected() {
    let seed = 3;
    let scenario = persistent_surveillance(60, seed);
    let config = quick_config(Recorder::disabled());
    let mut runner = MissionRunner::new(&scenario, &config);
    runner.step_window().window_stat().expect("window 0");
    let payload = runner.save().expect("checkpointable");
    let file = encode_checkpoint(seed, 1, &payload);
    assert!(decode_checkpoint(&file).is_ok(), "pristine file must verify");

    // Flip every byte in turn.
    let mut mutated = file.clone();
    for i in 0..mutated.len() {
        mutated[i] ^= 0xA5;
        assert!(
            decode_checkpoint(&mutated).is_err(),
            "flip at byte {i} must be detected"
        );
        mutated[i] ^= 0xA5;
    }
    assert_eq!(mutated, file, "fuzz loop must restore the original");

    // Truncate at every length.
    for len in 0..file.len() {
        assert!(
            decode_checkpoint(&file[..len]).is_err(),
            "truncation to {len} bytes must be detected"
        );
    }

    // Trailing garbage.
    let mut padded = file.clone();
    padded.extend_from_slice(b"\x00\xff");
    assert!(decode_checkpoint(&padded).is_err());
}

/// The store-level contract end to end: a torn newest file is reported
/// and skipped, the previous good checkpoint loads, and the resumed run
/// still matches the uninterrupted digest.
#[test]
fn store_falls_back_past_a_torn_checkpoint_and_still_resumes_exactly() {
    let seed = 42;
    let scenario = persistent_surveillance(80, seed);
    let config = quick_config(Recorder::disabled());
    let baseline = run_mission(&scenario, &config);

    let dir = std::env::temp_dir().join(format!(
        "iobt-ckpt-integration-{}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open store");

    let mut runner = MissionRunner::new(&scenario, &config);
    for w in 1..=3u64 {
        runner.step_window().window_stat().expect("window");
        let payload = runner.save().expect("checkpointable");
        store.save(seed, w, &payload).expect("write checkpoint");
    }
    drop(runner);

    // Tear the newest checkpoint mid-file, as a crash during a
    // non-atomic write would.
    let newest = store.path_for(3);
    let bytes = std::fs::read(&newest).expect("read newest");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("tear newest");

    let latest = store.load_latest_good(seed).expect("scan");
    assert_eq!(latest.skipped.len(), 1, "torn file must be reported");
    let (window, payload) = latest.loaded.expect("previous good checkpoint");
    assert_eq!(window, 2);

    let mut resumed =
        MissionRunner::resume(&scenario, &config, &payload).expect("resume from fallback");
    while let StepOutcome::WindowClosed { .. } = resumed.step_window() {}
    assert_eq!(resumed.finish().digest, baseline.digest);

    let _ = std::fs::remove_dir_all(&dir);
}
