//! Battlefield-scale netsim throughput harness: events/sec and peak RSS
//! at 1k/10k/100k nodes.
//!
//! The workload is a static sensor field on a √n × √n grid (70 m
//! spacing, wifi mesh) with periodic multi-hop reports from every 7th
//! node to its 10×10-block cluster head, plus a seeded fail/recover
//! churn process — the regime the zero-copy message path, batched event
//! loop, dense routing tables, and incremental connectivity maintenance
//! are built for.
//!
//! ```sh
//! cargo run -p iobt-bench --release --bin netsim_scale -- --json
//! # CI determinism smoke (no timing in the output):
//! cargo run -p iobt-bench --release --bin netsim_scale -- --nodes 10000 --fingerprint
//! ```
//!
//! Wall-clock use here is reporting-only: it never feeds back into the
//! simulation, whose event stream is a pure function of the seed.

use std::time::Instant;

use iobt_netsim::prelude::*;
use iobt_obs::{fnv1a, FNV_OFFSET};
use iobt_types::prelude::*;

/// Grid spacing in meters (adjacent + diagonal wifi links exist, two-away
/// does not, so block traffic is genuinely multi-hop).
const SPACING_M: f64 = 70.0;
/// Simulated duration per size, seconds.
const SIM_SECONDS: f64 = 30.0;
/// Report period per sender, seconds.
const REPORT_PERIOD_S: f64 = 2.0;
/// Report payload size, bytes.
const REPORT_BYTES: usize = 64;

/// Periodic reporter: sends a fixed payload to a fixed sink forever.
struct Reporter {
    sink: NodeId,
}

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        ctx.send(self.sink, 1, vec![0u8; REPORT_BYTES]);
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
    }
}

fn build_catalog(n: u64) -> NodeCatalog {
    let side = (n as f64).sqrt().ceil() as u64;
    let mut catalog = NodeCatalog::new();
    for i in 0..n {
        let (row, col) = (i / side, i % side);
        catalog
            .insert(
                NodeSpec::builder(NodeId::new(i))
                    .affiliation(Affiliation::Blue)
                    .position(Point::new(col as f64 * SPACING_M, row as f64 * SPACING_M))
                    .radio(Radio::new(RadioKind::Wifi))
                    .energy(EnergyBudget::new(50_000.0))
                    .build(),
            )
            .expect("fresh ids never collide");
    }
    catalog
}

/// Cluster head of the 10×10 block containing node `i`: the node at the
/// block's center cell (clamped to the grid).
fn block_head(i: u64, side: u64) -> u64 {
    let (row, col) = (i / side, i % side);
    let head_row = ((row / 10) * 10 + 5).min(side - 1);
    let head_col = ((col / 10) * 10 + 5).min(side - 1);
    head_row * side + head_col
}

struct SizeResult {
    nodes: u64,
    events: u64,
    wall_s: f64,
    sent: u64,
    delivered: u64,
    dropped: u64,
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

fn run_size(n: u64, seed: u64) -> SizeResult {
    let side = (n as f64).sqrt().ceil() as u64;
    let extent = side as f64 * SPACING_M + 100.0;
    let catalog = build_catalog(n);
    let terrain = Terrain::uniform(
        Rect::new(Point::new(-50.0, -50.0), Point::new(extent, extent)),
        Clutter::Open,
    );
    let mut sim = Simulator::builder(catalog).terrain(terrain).seed(seed).build();

    // Every 7th node reports to its block head (multi-hop over the mesh).
    for i in (0..n).step_by(7) {
        let head = block_head(i, side);
        if head != i {
            sim.set_behavior(NodeId::new(i), Box::new(Reporter { sink: NodeId::new(head) }));
        }
    }

    // Seeded churn: ~1.5% of the fleet fails during the run, most recover.
    let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let churn = ChurnProcess::recovering(2_000.0, 10.0, seed);
    churn.schedule(&mut sim, &ids, SimTime::from_secs_f64(SIM_SECONDS));

    let start = Instant::now();
    sim.run_for(SimDuration::from_secs_f64(SIM_SECONDS));
    let wall_s = start.elapsed().as_secs_f64();

    let stats = sim.stats();
    let mut fp = FNV_OFFSET;
    for v in [
        stats.sent,
        stats.delivered,
        stats.dropped,
        stats.dropped_no_route,
        stats.dropped_channel,
        stats.dropped_dead,
        stats.dropped_asleep,
        stats.hop_attempts,
        stats.retransmits,
        sim.events_processed(),
    ] {
        fp = fnv1a(fp, &v.to_le_bytes());
    }
    fp = fnv1a(fp, &stats.energy_spent_j.to_bits().to_le_bytes());
    fp = fnv1a(fp, &stats.latency_ms.mean().to_bits().to_le_bytes());
    for i in 0..n {
        let id = NodeId::new(i);
        fp = fnv1a(fp, &[u8::from(sim.is_alive(id))]);
        if let Some(e) = sim.energy(id) {
            fp = fnv1a(fp, &e.remaining_j().to_bits().to_le_bytes());
        }
    }

    SizeResult {
        nodes: n,
        events: sim.events_processed(),
        wall_s,
        sent: stats.sent,
        delivered: stats.delivered,
        dropped: stats.dropped,
        peak_rss_mb: peak_rss_mb(),
        fingerprint: fp,
    }
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
    let sizes: Vec<u64> = args
        .iter()
        .position(|a| a == "--nodes")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.split(',')
                .filter_map(|p| p.trim().parse().ok())
                .collect()
        })
        .unwrap_or_else(|| vec![1_000, 10_000, 100_000]);

    let mut rows = Vec::new();
    for &n in &sizes {
        let r = run_size(n, seed);
        if fingerprint_only {
            println!(
                "nodes={} seed={} events={} sent={} delivered={} dropped={} fingerprint={:016x}",
                r.nodes, seed, r.events, r.sent, r.delivered, r.dropped, r.fingerprint
            );
        } else if !json {
            println!(
                "nodes={:>7} events={:>9} wall={:>8.2}s events/s={:>10.0} \
                 sent={} delivered={} dropped={} peak_rss={:.0}MB fp={:016x}",
                r.nodes,
                r.events,
                r.wall_s,
                r.events as f64 / r.wall_s.max(1e-9),
                r.sent,
                r.delivered,
                r.dropped,
                r.peak_rss_mb,
                r.fingerprint
            );
        }
        rows.push(r);
    }

    if json {
        let mut out = String::from("{\n  \"bench\": \"netsim_scale\",\n  \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"nodes\": {}, \"sim_seconds\": {}, \"events\": {}, \"wall_s\": {:.3}, \
                 \"events_per_sec\": {:.1}, \"peak_rss_mb\": {:.1}, \"sent\": {}, \
                 \"delivered\": {}, \"dropped\": {}, \"fingerprint\": \"{:016x}\"}}{}\n",
                r.nodes,
                SIM_SECONDS,
                r.events,
                r.wall_s,
                r.events as f64 / r.wall_s.max(1e-9),
                r.peak_rss_mb,
                r.sent,
                r.delivered,
                r.dropped,
                r.fingerprint,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        print!("{out}");
    }
}
