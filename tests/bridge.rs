//! Integration: the edge bridge under chaos.
//!
//! The contract under test is the tentpole robustness claim: attaching
//! a bridge — over a transport that disconnects, stalls, tears frames,
//! duplicates deliveries, and refuses reconnects — must never panic,
//! must keep the exactly-once ledger
//! (`delivered + dropped + buffered == emitted`) balanced, and must
//! leave the mission's end-state digest and metrics fingerprint
//! *bit-identical* to a bridgeless run. The matrix walks seeds
//! {3, 17, 42} × all three overflow policies × fault profiles
//! including a disconnect armed at every single flush boundary.

use iobt::bridge::{
    memory_pair, parse_command, Bridge, BridgeConfig, BridgeReport, ConnState, FaultyTransport,
    MemoryEndpoint, OverflowPolicy, TransportFaultProfile,
};
use iobt::prelude::*;

const SEEDS: [u64; 3] = [3, 17, 42];

const POLICIES: [OverflowPolicy; 3] = [
    OverflowPolicy::DropOldest,
    OverflowPolicy::DropNewest,
    OverflowPolicy::Block { deadline: 4 },
];

fn scenario_for(seed: u64) -> Scenario {
    urban_evacuation(40, seed)
}

fn mission_config(recorder: Recorder) -> RunConfig {
    RunConfig::builder()
        .duration(SimDuration::from_secs_f64(12.0))
        .window(SimDuration::from_secs_f64(6.0))
        .recorder(recorder)
        .build()
        .expect("valid run config")
}

fn bridge_config(seed: u64, policy: OverflowPolicy) -> BridgeConfig {
    BridgeConfig {
        mission: seed,
        seed,
        ring_capacity: 32,
        overflow: policy,
        backoff_base: 1,
        backoff_cap: 8,
        max_attempts: 4,
        heartbeat_every: 4,
        batch_per_tick: 8,
    }
}

/// Steps the mission to completion without any bridge; the reference
/// digest and metrics fingerprint every bridged run must reproduce.
fn bridgeless_run(seed: u64) -> (EndStateDigest, u64) {
    let recorder = Recorder::null();
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {}
    let report = runner.finish();
    (report.digest, recorder.metrics_digest().fingerprint())
}

/// Steps the same mission with a bridge attached over the given faulty
/// transport, pumping between windows like a host loop would.
fn bridged_run(
    seed: u64,
    policy: OverflowPolicy,
    profile: TransportFaultProfile,
) -> (EndStateDigest, u64, BridgeReport, MemoryEndpoint) {
    let (mem, peer) = memory_pair();
    let transport = FaultyTransport::new(mem, profile);
    let bridge = Bridge::new(bridge_config(seed, policy), Box::new(transport));
    let recorder = Recorder::with_sink(Box::new(bridge.sink()))
        .with_sampling(SamplingConfig::all(16));
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    bridge.attach_board(runner.task_board());
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        bridge.pump_n(4);
    }
    let report = runner.finish();
    // Final drain; under hostile profiles the bridge may time out or
    // give up — both are legitimate outcomes, the ledger still has to
    // balance.
    let _ = bridge.drain(200);
    (
        report.digest,
        recorder.metrics_digest().fingerprint(),
        bridge.report(),
        peer,
    )
}

/// Chaos matrix: every seed × every overflow policy × benign, chaotic,
/// and connect-refusing transports. The mission must be bit-identical
/// to the bridgeless reference in every cell, and the bridge ledger
/// must balance exactly.
#[test]
fn mission_digests_are_bit_identical_under_every_fault_profile() {
    for seed in SEEDS {
        let (ref_digest, ref_fp) = bridgeless_run(seed);
        let mut profiles = vec![
            ("benign", TransportFaultProfile::benign(seed)),
            ("chaos", TransportFaultProfile::chaos(seed)),
        ];
        // Refuse every connect: the bridge must walk the backoff
        // ladder, give up, and detach without touching the mission.
        let mut refuse = TransportFaultProfile::benign(seed);
        refuse.connect_fail_one_in = 1;
        profiles.push(("refuse_all", refuse));

        for policy in POLICIES {
            for (name, profile) in &profiles {
                let (digest, fp, report, _peer) = bridged_run(seed, policy, *profile);
                assert_eq!(
                    digest, ref_digest,
                    "seed {seed} policy {policy:?} profile {name}: digest drifted"
                );
                assert_eq!(
                    fp, ref_fp,
                    "seed {seed} policy {policy:?} profile {name}: fingerprint drifted"
                );
                assert!(
                    report.accounted(),
                    "seed {seed} policy {policy:?} profile {name}: ledger imbalance {report:?}"
                );
                if *name == "refuse_all" {
                    assert_eq!(report.state, ConnState::GaveUp);
                    assert_eq!(report.delivered, 0);
                    assert_eq!(report.dropped, report.emitted);
                }
            }
        }
    }
}

/// Walks a single-shot disconnect across *every* flush boundary of the
/// run, for every seed and overflow policy: no panic, exact
/// accounting, and mission bit-identity at each boundary.
#[test]
fn disconnect_at_every_flush_boundary_is_survivable() {
    for seed in SEEDS {
        let (ref_digest, ref_fp) = bridgeless_run(seed);
        for policy in POLICIES {
            // Benign pass to learn how many transport sends the run
            // performs (frames + heartbeats).
            let (_, _, benign_report, _peer) = bridged_run(
                seed,
                policy,
                TransportFaultProfile::benign(seed),
            );
            let total_sends = benign_report.delivered + benign_report.heartbeats;
            assert!(
                total_sends >= 4,
                "seed {seed}: run too small to exercise boundaries ({total_sends} sends)"
            );
            for boundary in 0..total_sends {
                let mut profile = TransportFaultProfile::benign(seed);
                profile.disconnect_at_send = Some(boundary);
                let (digest, fp, report, _peer) = bridged_run(seed, policy, profile);
                assert_eq!(
                    digest, ref_digest,
                    "seed {seed} policy {policy:?} boundary {boundary}: digest drifted"
                );
                assert_eq!(
                    fp, ref_fp,
                    "seed {seed} policy {policy:?} boundary {boundary}: fingerprint drifted"
                );
                assert!(
                    report.accounted(),
                    "seed {seed} policy {policy:?} boundary {boundary}: imbalance {report:?}"
                );
                // One reconnect must have healed the link: frames kept
                // flowing after the cut.
                assert!(
                    report.delivered > 0,
                    "seed {seed} boundary {boundary}: nothing delivered"
                );
            }
        }
    }
}

/// Consumers dedupe by (topic, seq): under a duplicating + torn-frame
/// transport, the deduped stream the consumer reconstructs is exactly
/// the delivered prefix of the emission order — duplicates collapse,
/// torn frames are discarded, order is preserved.
#[test]
fn consumer_dedup_recovers_exactly_once_delivery() {
    let seed = 17;
    let mut profile = TransportFaultProfile::benign(seed);
    profile.duplicate_one_in = 3;
    profile.partial_one_in = 7;
    let (_, _, report, peer) = bridged_run(seed, OverflowPolicy::DropOldest, profile);
    assert!(report.accounted());
    assert!(report.delivered > 0);

    let mut seen = std::collections::BTreeSet::new();
    let mut deduped = 0u64;
    let mut torn = 0u64;
    for frame in peer.take_frames() {
        let Ok(text) = String::from_utf8(frame) else {
            torn += 1;
            continue;
        };
        // A whole frame is one JSON line ending in `}`; torn prefixes
        // are not.
        if !text.trim_end().ends_with('}') || !text.starts_with("{\"topic\":\"") {
            torn += 1;
            continue;
        }
        if text.contains("/heartbeat\"") {
            continue;
        }
        let key = text.clone();
        if seen.insert(key) {
            deduped += 1;
        }
    }
    assert!(torn > 0, "the partial-write profile should tear frames");
    // Every delivered frame appears at least once; dedup collapses the
    // duplicated deliveries back to the exact delivered count.
    assert_eq!(
        deduped, report.delivered,
        "dedup by frame identity must reconstruct exactly-once delivery"
    );
}

/// Ingress fuzz: every single-bit flip and every truncation of a valid
/// command frame must produce a typed error or a harmless reparse —
/// never a panic — both at the parser and end-to-end through a live
/// bridge.
#[test]
fn ingress_survives_every_flip_and_truncation() {
    let valid = b"{\"src\":5,\"seq\":11,\"cmd\":\"assign\",\"node\":42}".to_vec();
    assert!(parse_command(&valid).is_ok());

    // Truncations: a strict prefix can never be a complete object.
    for cut in 0..valid.len() {
        assert!(
            parse_command(&valid[..cut]).is_err(),
            "truncation at {cut} should be rejected"
        );
    }

    // Bit flips: exercised for the no-panic property; a flip inside a
    // digit may still parse (to different numbers), which is fine.
    for i in 0..valid.len() {
        for bit in 0..8 {
            let mut corrupt = valid.clone();
            corrupt[i] ^= 1 << bit;
            let _ = parse_command(&corrupt);
        }
    }

    // End-to-end: feed the same corruptions through a live bridge; it
    // must stay up, count rejections, and apply the valid command once.
    let (mem, peer) = memory_pair();
    let bridge = Bridge::new(
        BridgeConfig {
            batch_per_tick: 4096,
            ..BridgeConfig::default()
        },
        Box::new(mem),
    );
    let board = iobt::core::new_task_board();
    bridge.attach_board(board);
    bridge.pump();
    assert_eq!(bridge.state(), ConnState::Connected);
    peer.push_command(&valid);
    for i in 0..valid.len() {
        let mut corrupt = valid.clone();
        corrupt[i] ^= 0x80; // force non-ASCII / structural damage
        peer.push_command(&corrupt);
        peer.push_command(&valid[..i]);
    }
    bridge.pump();
    let report = bridge.report();
    assert_eq!(report.cmds_applied, 1, "the valid command applies once");
    assert!(report.cmds_rejected > 0);
    assert_eq!(bridge.state(), ConnState::Connected);
}

/// External tasking rides the acked TaskBoard path: a command injected
/// mid-mission reaches the mission's tasking pipeline, and replaying it
/// is idempotent.
#[test]
fn external_commands_enter_the_mission_once() {
    let seed = 42;
    let (mem, peer) = memory_pair();
    let bridge = Bridge::new(
        bridge_config(seed, OverflowPolicy::DropOldest),
        Box::new(mem),
    );
    let recorder = Recorder::with_sink(Box::new(bridge.sink()));
    let config = mission_config(recorder.clone());
    let scenario = scenario_for(seed);
    let mut runner = MissionRunner::new(&scenario, &config);
    bridge.attach_board(runner.task_board());
    bridge.pump(); // connect
    let cmd = b"{\"src\":9,\"seq\":1,\"cmd\":\"assign\",\"node\":3}";
    peer.push_command(cmd);
    peer.push_command(cmd); // replay
    while let StepOutcome::WindowClosed { .. } = runner.step_window() {
        bridge.pump_n(4);
        peer.push_command(cmd); // replay again mid-mission
    }
    let _ = runner.finish();
    let report = bridge.report();
    assert_eq!(report.cmds_applied, 1, "one (src, seq) applies exactly once");
    assert!(report.cmds_dup >= 2, "replays are counted, not re-applied");
    assert!(report.accounted());
}
