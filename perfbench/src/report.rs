//! The benchmark's output: human-readable lines for every metric with
//! its unit and sample count, then one JSON object as the last line.

use std::collections::BTreeMap;

use crate::measure::Samples;

/// End-to-end metrics, reported on every workload by the untraced run.
/// Each must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_rate", "s/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported on every workload by the traced run; a
/// layer a workload does not exercise reads 0. Each must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // netsim (field: sliced run_for; campaign: phase 3 replay + digest)
    ("netsim.run_slice_ms", "ms"),
    ("netsim.self_s", "s"),
    ("netsim.send_s", "s"),
    ("netsim.events", "count"),
    ("netsim.sent", "count"),
    ("netsim.delivered", "count"),
    ("netsim.dropped", "count"),
    ("netsim.hop_attempts", "count"),
    ("netsim.retransmits", "count"),
    ("netsim.graph_rebuilds", "count"),
    ("netsim.graph_build_ms", "ms"),
    ("netsim.route_ms", "ms"),
    ("netsim.routes", "count"),
    ("netsim.msg_sent", "count"),
    // the benchmark's own behaviour callbacks (field)
    ("behavior.callback_s", "s"),
    ("behavior.callbacks", "count"),
    // discovery and synthesis (campaign phase 1-3 replay)
    ("discovery.classify_ms", "ms"),
    ("discovery.recruit_ms", "ms"),
    ("synthesis.problem_ms", "ms"),
    ("synthesis.solve_ms", "ms"),
    ("synthesis.assure_ms", "ms"),
    ("synthesis.solves", "count"),
    // core (fleet serial replay; campaign windows and counters)
    ("core.setup_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.save_ms", "ms"),
    ("core.resume_ms", "ms"),
    ("core.early_repairs", "count"),
    ("core.repairs_applied", "count"),
    ("core.task_retries", "count"),
    // ckpt, through the timing Store decorator (fleet)
    ("ckpt.store_save_ms", "ms"),
    ("ckpt.store_load_ms", "ms"),
    ("ckpt.store_clear_ms", "ms"),
    ("ckpt.bytes_saved", "bytes"),
    // fleet scheduler summary (fleet)
    ("fleet.slices", "count"),
    ("fleet.windows", "count"),
    ("fleet.evictions", "count"),
    ("fleet.resumes", "count"),
    ("fleet.retries", "count"),
    ("fleet.quarantined", "count"),
    ("fleet.resume_ratio", "ratio"),
    ("fleet.unattributed_s", "s"),
    // obs, through the timing TraceSink decorator (campaign)
    ("obs.sink_accept_s", "s"),
    ("obs.records", "count"),
    // bridge (campaign)
    ("bridge.pump_s", "s"),
    ("bridge.emitted", "count"),
    ("bridge.delivered", "count"),
    ("bridge.dropped", "count"),
    ("bridge.frames_per_s", "1/s"),
    // the benchmark itself
    ("bench.explained_share", "ratio"),
    ("bench.trace_overhead_s", "s"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed, for `fail_ratio`.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub check_failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]) and prints it with its unit.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name);
        println!("metric {name} = {value} {unit}");
        self.values.insert(name, value);
    }

    /// Records a metric as the median of `samples` and prints
    /// the median, tail percentile and sample count.
    pub fn median_of(&mut self, name: &'static str, samples: &Samples) {
        let unit = unit_of(name);
        println!("metric {name} = {}", samples.describe(unit));
        self.values.insert(name, samples.median());
    }

    /// Prints a headline number that is not part of the JSON result
    /// (it is a fixed multiple of a reported metric, or applies to one
    /// workload only).
    pub fn headline(&self, name: &str, unit: &str, samples: &Samples) {
        println!("headline {name} = {}", samples.describe(unit));
    }

    /// Records an output check; a false `ok` fails the run.
    pub fn check(&mut self, what: &str, ok: bool) {
        println!("check {what}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.check_failures.push(what.to_string());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty() && self.failed == 0
    }

    /// The result object for the given metric set: every listed metric,
    /// with per-layer metrics a workload left idle reading 0.
    pub fn json(&self, set: &[(&str, &str)], idle_is_zero: bool) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if idle_is_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}
