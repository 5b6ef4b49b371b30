//! Fleet-saturation harness: missions/sec and peak RSS with 1k/10k
//! concurrent missions on one scheduler, timed around the whole drain.
//!
//! Each mission is a small persistent-surveillance vignette (32 nodes,
//! 20 simulated seconds, two utility windows). Submitting thousands of
//! them at once drives the scheduler far past its per-worker residency
//! cap, so the run exercises the full admission → slice → checkpoint-
//! evict → resume → complete cycle under genuine memory pressure — the
//! regime the fleet exists for. Per-mission results stay a pure function
//! of each mission's seed, which is what `--fingerprint` checks.
//!
//! ```sh
//! cargo run -p iobt-bench --release --bin fleet_scale -- --json
//! # CI determinism smoke (no timing in the output):
//! cargo run -p iobt-bench --release --bin fleet_scale -- --missions 1000 --fingerprint
//! # Supervision smoke: injected checkpoint-IO faults, then a mid-drain
//! # kill (exit 17) and a manifest recovery whose fingerprint must match
//! # the clean run's:
//! cargo run -p iobt-bench --release --bin fleet_scale -- \
//!     --supervise --missions 64 --fail-one-in 5 --fingerprint
//! cargo run -p iobt-bench --release --bin fleet_scale -- \
//!     --supervise --missions 64 --durable --dir /tmp/d --halt-slices 40
//! cargo run -p iobt-bench --release --bin fleet_scale -- \
//!     --supervise --missions 64 --recover --dir /tmp/d --fingerprint
//! ```
//!
//! The drain's wall clock is taken here, outside the scheduler (which
//! reads none): it never feeds back into the scheduler or any mission,
//! whose results are pure functions of their seeds.

use std::path::PathBuf;
use std::time::Instant;

use iobt_core::{persistent_surveillance, RunConfig, Scenario};
use iobt_fleet::{
    DiskStore, FailingStore, FaultProfile, Fleet, FleetBuilder, MissionStatus, MissionTicket,
};
use iobt_netsim::SimDuration;
use iobt_obs::{fnv1a, FNV_OFFSET};

/// Nodes per mission (small: the point is mission count, not field size).
const MISSION_NODES: usize = 32;
/// Simulated seconds per mission.
const MISSION_SECONDS: f64 = 20.0;
/// Utility-window seconds (two windows per mission).
const WINDOW_SECONDS: f64 = 10.0;

struct SizeResult {
    missions: usize,
    workers: usize,
    wall_s: f64,
    slices: u64,
    evictions: u64,
    resumes: u64,
    peak_rss_mb: f64,
    fingerprint: u64,
}

fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

fn run_size(missions: usize, workers: usize, seed: u64) -> SizeResult {
    let root = std::env::temp_dir().join(format!(
        "iobt-fleet-scale-{}-{missions}",
        std::process::id()
    ));
    let mut fleet = FleetBuilder::new()
        .workers(workers)
        .checkpoint_root(&root)
        .build()
        .expect("bench fleet config is valid");

    let mut tickets = Vec::with_capacity(missions);
    for i in 0..missions {
        let scenario = persistent_surveillance(MISSION_NODES, seed.wrapping_add(i as u64));
        let cfg = RunConfig::builder()
            .duration(SimDuration::from_secs_f64(MISSION_SECONDS))
            .window(SimDuration::from_secs_f64(WINDOW_SECONDS))
            .build()
            .expect("bench run config is valid");
        tickets.push(fleet.submit(scenario, cfg).expect("admissible mission"));
    }

    let start = Instant::now();
    let summary = fleet.drain();
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(
        summary.completed, missions,
        "every submitted mission must complete"
    );

    let fingerprint = combined_fingerprint(&fleet, &tickets);

    let _ = std::fs::remove_dir_all(&root);
    SizeResult {
        missions,
        workers,
        wall_s,
        slices: summary.slices,
        evictions: summary.evictions,
        resumes: summary.resumes,
        peak_rss_mb: peak_rss_mb(),
        fingerprint,
    }
}

/// The mission list for a supervised run: pure function of
/// `(missions, seed)`, so the kill run and the recover run rebuild the
/// exact scenarios the manifest fingerprints expect.
fn supervised_batch(missions: usize, seed: u64) -> Vec<Scenario> {
    (0..missions)
        .map(|i| persistent_surveillance(MISSION_NODES, seed.wrapping_add(i as u64)))
        .collect()
}

/// Fingerprint over every completed mission's end state, in ticket
/// order: metrics fingerprint plus the digest's headline counters.
fn combined_fingerprint(fleet: &Fleet, tickets: &[MissionTicket]) -> u64 {
    let mut fp = FNV_OFFSET;
    for &t in tickets {
        let d = fleet.digest(t).expect("completed mission has a digest");
        let m = fleet
            .metrics_fingerprint(t)
            .expect("mission metrics are on by default");
        fp = fnv1a(fp, &m.to_le_bytes());
        for v in [d.sent, d.delivered, d.dropped] {
            fp = fnv1a(fp, &v.to_le_bytes());
        }
        fp = fnv1a(fp, &d.energy_spent_j.to_bits().to_le_bytes());
        fp = fnv1a(fp, &d.mean_utility.to_bits().to_le_bytes());
    }
    fp
}

/// Supervision smoke: run `missions` with optional injected
/// checkpoint-IO faults, a durable manifest, and a mid-drain kill; or
/// recover a previous kill's manifest and drain it to completion.
/// Exits 17 on a halted (killed) drain so the caller can assert the
/// crash actually happened; otherwise prints the combined fingerprint,
/// which must be identical across clean, faulty, and recovered runs.
#[allow(clippy::too_many_arguments)]
fn run_supervised(
    missions: usize,
    workers: usize,
    seed: u64,
    fail_one_in: u64,
    durable: bool,
    halt_slices: Option<u64>,
    dir: PathBuf,
    recover: bool,
) {
    let scenarios = supervised_batch(missions, seed);
    let (mut fleet, tickets) = if recover {
        let fleet = FleetBuilder::new()
            .workers(workers)
            .checkpoint_root(&dir)
            .recover(scenarios)
            .expect("manifest under --dir rebuilds the fleet");
        let tickets = fleet.tickets();
        (fleet, tickets)
    } else {
        let mut builder = FleetBuilder::new()
            .workers(workers)
            .evict_every_slice(true)
            .checkpoint_root(&dir)
            .durable_manifest(durable)
            .retry_limit(64);
        if fail_one_in > 0 {
            builder = builder.store(FailingStore::new(
                DiskStore::new(&dir),
                FaultProfile::uniform(seed ^ 0xf417, fail_one_in),
            ));
        }
        if let Some(halt) = halt_slices {
            builder = builder.halt_after_slices(halt);
        }
        let mut fleet = builder.build().expect("supervised fleet config is valid");
        let mut tickets = Vec::with_capacity(missions);
        for scenario in scenarios {
            let cfg = RunConfig::builder()
                .duration(SimDuration::from_secs_f64(MISSION_SECONDS))
                .window(SimDuration::from_secs_f64(WINDOW_SECONDS))
                .build()
                .expect("bench run config is valid");
            tickets.push(fleet.submit(scenario, cfg).expect("admissible mission"));
        }
        (fleet, tickets)
    };

    let summary = fleet.drain();
    if halt_slices.is_some() && summary.completed < missions {
        eprintln!(
            "halted mid-drain: completed={} of {} (slices={}, retries={}) — manifest left under {}",
            summary.completed,
            missions,
            summary.slices,
            summary.retries,
            dir.display()
        );
        std::process::exit(17);
    }
    // `summary.completed` counts only missions finished during THIS
    // drain; a recovered fleet may have restored some as already Done,
    // so the invariant is on terminal status, not the drain delta.
    let done = tickets
        .iter()
        .filter(|&&t| fleet.poll(t) == Some(MissionStatus::Done))
        .count();
    assert_eq!(
        done, missions,
        "every mission must end Done (quarantined={})",
        summary.quarantined
    );
    let fp = combined_fingerprint(&fleet, &tickets);
    println!(
        "supervise missions={} workers={} seed={} fail_one_in={} retries={} recovered={} fingerprint={:016x}",
        missions, workers, seed, fail_one_in, summary.retries, recover, fp
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json = args.iter().any(|a| a == "--json");
    let fingerprint_only = args.iter().any(|a| a == "--fingerprint");
    let seed: u64 = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let workers: usize = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
    let sizes: Vec<usize> = args
        .iter()
        .position(|a| a == "--missions")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 10_000]);

    if args.iter().any(|a| a == "--supervise") {
        // Supervision smoke mode: one size (default 64 — the point is
        // fault/crash coverage, not saturation).
        let missions = if args.iter().any(|a| a == "--missions") {
            sizes.first().copied().unwrap_or(64)
        } else {
            64
        };
        let fail_one_in: u64 = args
            .iter()
            .position(|a| a == "--fail-one-in")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let halt_slices: Option<u64> = args
            .iter()
            .position(|a| a == "--halt-slices")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok());
        let dir: PathBuf = args
            .iter()
            .position(|a| a == "--dir")
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::temp_dir().join(format!("iobt-fleet-supervise-{}", std::process::id()))
            });
        run_supervised(
            missions,
            workers,
            seed,
            fail_one_in,
            args.iter().any(|a| a == "--durable"),
            halt_slices,
            dir,
            args.iter().any(|a| a == "--recover"),
        );
        return;
    }

    let mut rows = Vec::new();
    for &n in &sizes {
        let r = run_size(n, workers, seed);
        if fingerprint_only {
            // Eviction/resume counts reflect the actual schedule and vary
            // across multi-worker runs; the smoke output carries only the
            // schedule-independent facts (slice count at quantum 1 is the
            // total window count).
            println!(
                "missions={} workers={} seed={} slices={} fingerprint={:016x}",
                r.missions, r.workers, seed, r.slices, r.fingerprint
            );
        } else if !json {
            println!(
                "missions={:>6} workers={:>3} wall={:>7.2}s missions/s={:>8.1} \
                 slices={} evictions={} resumes={} peak_rss={:.0}MB fp={:016x}",
                r.missions,
                r.workers,
                r.wall_s,
                r.missions as f64 / r.wall_s.max(1e-9),
                r.slices,
                r.evictions,
                r.resumes,
                r.peak_rss_mb,
                r.fingerprint
            );
        }
        rows.push(r);
    }

    if json {
        // Hardware threads of the measuring machine (0 when unknown):
        // rows from different worker counts compare only alongside it.
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        let mut out = String::from("{\n  \"bench\": \"fleet_scale\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"missions\": {}, \"workers\": {}, \"cores\": {}, \"mission_seconds\": {}, \
                 \"windows_per_mission\": 2, \"wall_s\": {:.3}, \"missions_per_sec\": {:.1}, \
                 \"slices\": {}, \"evictions\": {}, \"resumes\": {}, \"peak_rss_mb\": {:.1}, \
                 \"fingerprint\": \"{:016x}\"}}{}\n",
                r.missions,
                r.workers,
                cores,
                MISSION_SECONDS,
                r.wall_s,
                r.missions as f64 / r.wall_s.max(1e-9),
                r.slices,
                r.evictions,
                r.resumes,
                r.peak_rss_mb,
                r.fingerprint,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        print!("{out}");
    }
}
