//! `field`: the 100k-node grid sensor field of `netsim_scale`. Every
//! 7th node sends multi-hop reports to its block head under seeded
//! fail/recover churn, with the recorder off, on one thread. Almost all
//! the work is netsim event dispatch, cached routing and incremental
//! graph refresh.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use iobt_netsim::prelude::*;
use iobt_obs::Recorder;
use iobt_types::prelude::*;

use crate::measure::{fnv1a, peak_rss_mb, process_cpu_s, secs, Samples, FNV_OFFSET};
use crate::report::Report;
use crate::{goldens, Budget};

/// Nodes in the field (the largest `netsim_scale` row).
const NODES: u64 = 100_000;
/// Grid spacing, meters: adjacent and diagonal wifi links exist,
/// two-away ones do not, so block traffic is multi-hop.
const SPACING_M: f64 = 70.0;
/// Simulated seconds per run.
const SIM_SECONDS: u32 = 30;
/// Report period per sender, seconds.
const REPORT_PERIOD_S: f64 = 2.0;
/// Report payload, bytes.
const REPORT_BYTES: usize = 64;

/// Wall time spent inside [`Reporter`] callbacks, and inside the
/// `Context::send` calls they make, in the traced run. The callbacks
/// also mark the wall instant at which each report round (every
/// reporter's timer fires at the same multiple of the report period)
/// begins, which times `run_for` one round at a time without splitting
/// the call: every `run_for` call rescans all behaviours, which costs
/// more than the rounds themselves when it is called once a second.
#[derive(Debug, Default)]
struct CallbackClock {
    busy: Cell<Duration>,
    send: Cell<Duration>,
    calls: Cell<u64>,
    round_us: Cell<Option<u64>>,
    rounds: RefCell<Vec<Instant>>,
}

impl CallbackClock {
    fn add(slot: &Cell<Duration>, start: Instant) {
        slot.set(slot.get() + start.elapsed());
    }

    /// Called on entry to every timer callback.
    fn enter(&self, ctx: &Context<'_>, start: Instant) {
        let now_us = ctx.now().as_micros();
        let period_us = (REPORT_PERIOD_S * 1e6) as u64;
        // Nodes that recover from churn restart their timers off the
        // round grid; only on-grid callbacks start a round.
        if now_us.is_multiple_of(period_us) && self.round_us.get() != Some(now_us) {
            self.round_us.set(Some(now_us));
            self.rounds.borrow_mut().push(start);
        }
    }

    fn leave(&self, start: Instant) {
        Self::add(&self.busy, start);
        self.calls.set(self.calls.get() + 1);
    }

    /// Wall ms of each report round of a run that ended at `end`: from
    /// one round's first timer callback to the next's (the last round
    /// ends with the run). The `on_start` callbacks run before the
    /// first round, when the behaviours are attached.
    fn rounds_ms(&self, end: Instant) -> Samples {
        let mut bounds = self.rounds.borrow().clone();
        bounds.push(end);
        let mut rounds = Samples::default();
        for pair in bounds.windows(2) {
            rounds.push((pair[1] - pair[0]).as_secs_f64() * 1_000.0);
        }
        rounds
    }
}

/// Periodic reporter: sends a fixed payload to a fixed sink forever.
struct Reporter {
    sink: NodeId,
    clock: Option<Rc<CallbackClock>>,
}

impl Behavior for Reporter {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let start = Instant::now();
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
        if let Some(clock) = &self.clock {
            clock.leave(start);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        let start = Instant::now();
        if let Some(clock) = &self.clock {
            clock.enter(ctx, start);
        }
        ctx.send(self.sink, 1, vec![0u8; REPORT_BYTES]);
        if let Some(clock) = &self.clock {
            CallbackClock::add(&clock.send, start);
        }
        ctx.set_timer(SimDuration::from_secs_f64(REPORT_PERIOD_S), 0);
        if let Some(clock) = &self.clock {
            clock.leave(start);
        }
    }
}

fn side() -> u64 {
    (NODES as f64).sqrt().ceil() as u64
}

fn catalog() -> NodeCatalog {
    let side = side();
    let mut catalog = NodeCatalog::new();
    for i in 0..NODES {
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

/// Cluster head of the 10×10 block holding node `i`: the block's
/// center cell, clamped to the grid.
fn block_head(i: u64, side: u64) -> u64 {
    let (row, col) = (i / side, i % side);
    let head_row = ((row / 10) * 10 + 5).min(side - 1);
    let head_col = ((col / 10) * 10 + 5).min(side - 1);
    head_row * side + head_col
}

/// Builds the field ready to run, and returns it with the wall seconds
/// `Simulator::build` plus the first `connectivity()` took.
fn stand_up(seed: u64, clock: Option<&Rc<CallbackClock>>, recorder: Recorder) -> (Simulator, f64) {
    let side = side();
    let extent = side as f64 * SPACING_M + 100.0;
    let catalog = catalog();
    let terrain = Terrain::uniform(
        Rect::new(Point::new(-50.0, -50.0), Point::new(extent, extent)),
        Clutter::Open,
    );
    let start = Instant::now();
    let mut sim = Simulator::builder(catalog)
        .terrain(terrain)
        .seed(seed)
        .recorder(recorder)
        .build();
    std::hint::black_box(sim.connectivity());
    let build_s = secs(start);
    for i in (0..NODES).step_by(7) {
        let head = block_head(i, side);
        if head != i {
            let reporter = Reporter {
                sink: NodeId::new(head),
                clock: clock.cloned(),
            };
            sim.set_behavior(NodeId::new(i), Box::new(reporter));
        }
    }
    // Seeded churn: ~1.5% of the field fails during the run, most recover.
    let ids: Vec<NodeId> = (0..NODES).map(NodeId::new).collect();
    ChurnProcess::recovering(2_000.0, 10.0, seed).schedule(
        &mut sim,
        &ids,
        SimTime::from_secs_f64(f64::from(SIM_SECONDS)),
    );
    (sim, build_s)
}

/// The `netsim_scale` fingerprint: every drop cause, hop and event
/// count, energy, latency, and each node's liveness and energy.
fn fingerprint(sim: &Simulator) -> u64 {
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
        fnv1a(&mut fp, &v.to_le_bytes());
    }
    fnv1a(&mut fp, &stats.energy_spent_j.to_bits().to_le_bytes());
    fnv1a(&mut fp, &stats.latency_ms.mean().to_bits().to_le_bytes());
    for i in 0..NODES {
        let id = NodeId::new(i);
        fnv1a(&mut fp, &[u8::from(sim.is_alive(id))]);
        if let Some(e) = sim.energy(id) {
            fnv1a(&mut fp, &e.remaining_j().to_bits().to_le_bytes());
        }
    }
    fp
}

pub fn run(seed: u64, budget: &Budget, trace: bool, report: &mut Report) {
    println!(
        "inputs: nodes={NODES} senders={} sim_seconds={SIM_SECONDS} report_period_s={REPORT_PERIOD_S} \
         churn=recovering(mtbf_s=2000,mttr_s=10) recorder=off threads=1",
        NODES.div_ceil(7)
    );
    let mut setup = Samples::default();
    let mut build_ms = Samples::default();
    let mut rate = Samples::default();
    let mut events_rate = Samples::default();
    let mut cpu = Samples::default();
    let mut plain_wall = Samples::default();
    let mut traced_wall = Samples::default();
    let mut rounds = Samples::default();
    let mut callback_s = Samples::default();
    let mut send_s = Samples::default();
    let mut self_s = Samples::default();
    let mut share = Samples::default();
    let mut callbacks = 0;
    let mut fingerprints = Vec::new();
    let mut rep = 0;
    while budget.more(rep, trace) {
        let traced = trace && rep % 2 == 1;
        let clock = traced.then(|| Rc::new(CallbackClock::default()));
        let start = Instant::now();
        let (mut sim, build_s) = stand_up(seed, clock.as_ref(), Recorder::disabled());
        setup.push(secs(start));
        build_ms.push(build_s * 1_000.0);

        let cpu0 = process_cpu_s();
        let start = Instant::now();
        sim.run_for(SimDuration::from_secs_f64(f64::from(SIM_SECONDS)));
        let end = Instant::now();
        let wall = (end - start).as_secs_f64();
        let cpu_rep = process_cpu_s() - cpu0;
        let events = sim.events_processed();

        if let Some(clock) = &clock {
            let busy = clock.busy.get().as_secs_f64();
            let rep_rounds = clock.rounds_ms(end);
            callback_s.push(busy);
            send_s.push(clock.send.get().as_secs_f64());
            self_s.push(wall - busy);
            rounds.extend(&rep_rounds);
            share.push(rep_rounds.sum() / 1_000.0 / wall);
            callbacks = clock.calls.get();
            traced_wall.push(wall);
        } else {
            rate.push(f64::from(SIM_SECONDS) / wall);
            events_rate.push(events as f64 / wall);
            cpu.push(cpu_rep);
            plain_wall.push(wall);
            println!(
                "rep {rep}: events_per_s={:.1} run_wall_s={wall:.4} cpu_s={cpu_rep:.2}",
                events as f64 / wall
            );
        }
        let stats = sim.stats();
        report.check(
            &format!("rep {rep} delivered + dropped <= sent"),
            stats.delivered + stats.dropped <= stats.sent,
        );
        fingerprints.push(fingerprint(&sim));
        report.attempted += 1;
        rep += 1;
    }

    // One more, untimed run with a metrics-only recorder, for the graph
    // rebuild count (a recorder costs a metrics update per event, so it
    // stays out of the timed repetitions).
    let counts = trace.then(|| {
        let recorder = Recorder::null();
        let (mut sim, _) = stand_up(seed, None, recorder.clone());
        sim.run_for(SimDuration::from_secs_f64(f64::from(SIM_SECONDS)));
        fingerprints.push(fingerprint(&sim));
        report.attempted += 1;
        let stats = sim.stats();
        [
            ("netsim.events", sim.events_processed()),
            ("netsim.sent", stats.sent),
            ("netsim.delivered", stats.delivered),
            ("netsim.dropped", stats.dropped),
            ("netsim.hop_attempts", stats.hop_attempts),
            ("netsim.retransmits", stats.retransmits),
            (
                "netsim.graph_rebuilds",
                recorder
                    .metrics_digest()
                    .counter("netsim.graph_rebuilds")
                    .unwrap_or(0),
            ),
        ]
    });

    let first = fingerprints[0];
    println!("fingerprint {first:016x}");
    report.check(
        "every run (plain, timed, with a recorder) has the same fingerprint",
        fingerprints.iter().all(|&fp| fp == first),
    );
    if let Some(golden) = goldens::field(seed) {
        report.check(
            &format!("fingerprint equals golden {golden:016x}"),
            first == golden,
        );
    }

    report.median_of("setup_s", &setup);
    if let Some(counts) = counts {
        report.median_of("netsim.run_slice_ms", &rounds);
        report.median_of("behavior.callback_s", &callback_s);
        report.metric("behavior.callbacks", callbacks as f64);
        report.median_of("netsim.send_s", &send_s);
        report.median_of("netsim.self_s", &self_s);
        report.median_of("netsim.graph_build_ms", &build_ms);
        for (name, v) in counts {
            report.metric(name, v as f64);
        }
        println!(
            "breakdown (per run of the timed phase): run_for {:.4} s = behaviour callbacks {:.4} s \
             (of which inside Context::send {:.4} s) + netsim event loop self {:.4} s (by subtraction); \
             report rounds cover all but {:.2}% of run_for (before the first round: unattributed)",
            traced_wall.median(),
            callback_s.median(),
            send_s.median(),
            self_s.median(),
            (1.0 - share.median()) * 100.0
        );
        report.median_of("bench.explained_share", &share);
        report.metric(
            "bench.trace_overhead_s",
            traced_wall.median() - plain_wall.median(),
        );
    } else {
        report.headline("events_per_s", "1/s", &events_rate);
        report.median_of("sim_rate", &rate);
        report.median_of("cpu_s", &cpu);
        report.metric("peak_rss_mb", peak_rss_mb());
    }
}
