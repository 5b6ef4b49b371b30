//! Fleet service: submit a mixed batch of missions to the multi-tenant
//! scheduler, drain it across a worker pool with forced checkpoint
//! eviction, and read back per-mission results by ticket.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```

use iobt::prelude::*;

fn main() {
    // A scheduler trace recorder captures admit/slice/evict/resume/
    // complete events; per-mission metrics stay on (the default) so each
    // mission's metrics fingerprint is available afterwards.
    let (trace, ring) = Recorder::memory(4096);
    let mut fleet = FleetBuilder::new()
        .workers(4)
        .evict_every_slice(true) // force every slice through disk
        .recorder(trace.clone())
        .build()
        .expect("valid fleet config");

    // Twelve independent missions across all three scenario families.
    let config = RunConfig::builder()
        .duration(SimDuration::from_secs_f64(60.0))
        .window(SimDuration::from_secs_f64(10.0))
        .build()
        .expect("valid run config");
    let mut tickets = Vec::new();
    for seed in 0..4u64 {
        for scenario in [
            persistent_surveillance(60, 100 + seed),
            urban_evacuation(50, 200 + seed),
            disaster_relief(55, 300 + seed),
        ] {
            let name = scenario.mission.to_string();
            let ticket = fleet
                .submit(scenario, config.clone())
                .expect("admissible mission");
            println!("submitted {ticket}  {name}");
            tickets.push(ticket);
        }
    }

    let summary = fleet.drain();
    println!("\n--- fleet summary ---");
    println!("completed  : {}/{}", summary.completed, summary.submitted);
    println!("slices     : {}", summary.slices);
    println!(
        "evictions  : {} (resumed {} times from disk)",
        summary.evictions, summary.resumes
    );

    println!("\n--- per-mission results ---");
    for &t in &tickets {
        let status = fleet.poll(t).expect("fleet issued this ticket");
        let report = fleet.report(t).expect("completed mission has a report");
        let fp = fleet
            .metrics_fingerprint(t)
            .expect("mission metrics are on by default");
        println!(
            "{t}  {status:?}  utility {:.2}  repairs {:>2}  metrics fp {fp:016x}",
            report.mean_utility(),
            report.repairs
        );
    }

    let events = ring.records();
    println!("\nscheduler trace: {} events (first admissions below)", events.len());
    for r in events.iter().take(3) {
        println!("  {}", r.event.kind());
    }
}
