//! One benchmark for the iobt workspace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload field --seed 42 --seconds 20 --trace 0
//! ```
//!
//! Three closed batch workloads, each built from `--seed` and run from
//! this one process (nothing in iobt serves requests as they arrive):
//!
//! * `field` — the 100k-node sensor field of `netsim_scale`: netsim
//!   event dispatch, cached routing and incremental graph refresh. Run
//!   it by hand; `BENCHMARK.json` does not list it, because its
//!   routing-bound run time spread 8–34% over ten seeds on a shared
//!   2-vCPU VM, more than the 25% a listed metric may move;
//! * `fleet` — a batch of 1,000 32-node missions drained by `Fleet`
//!   with one worker per hardware thread: mission setup, resumes and
//!   checkpoint encoding (to an in-memory store);
//! * `campaign` — one 1,000-node mission under a light fault campaign
//!   with early repair, the degradation ladder and acked tasking, its
//!   trace streamed through the edge bridge: composition at scale,
//!   full graph rebuilds, the trace sink and the bridge.
//!
//! Each workload repeats its unit of work (set up, then the timed
//! phase) until `--seconds` have passed, and reports medians. With
//! `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured from
//! this package only: by timing calls into each layer's public
//! functions and by wrapping the public `Store` and `TraceSink` traits
//! in timing decorators. A traced run alternates plain and traced
//! repetitions, checks that both give the same fingerprints, and
//! reports the difference in timed-phase wall time as the tracing
//! overhead. Every run checks its outputs; a failed check prints
//! `"correct": false` and exits non-zero.
//!
//! All times are host wall or CPU time. Simulated statistics are pure
//! functions of the seed.

mod campaign;
mod decorate;
mod field;
mod fleet;
mod goldens;
mod measure;
mod report;

use std::process::ExitCode;
use std::time::Instant;

use report::{Report, END_TO_END, PER_LAYER};

/// How long a run keeps repeating its workload.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Fewest repetitions of each kind (plain, traced) a run makes, so
    /// every median has several samples.
    const MIN_REPS: usize = 3;

    /// Whether to start repetition `rep` (zero-based). Traced runs
    /// alternate plain and traced repetitions and need the minimum of
    /// each.
    pub fn more(&self, rep: usize, trace: bool) -> bool {
        let min = if trace {
            2 * Self::MIN_REPS
        } else {
            Self::MIN_REPS
        };
        rep < min || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload field|fleet|campaign --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let budget = Budget {
        start: Instant::now(),
        seconds: args.seconds,
    };
    let mut report = Report::default();
    match args.workload.as_str() {
        "field" => field::run(args.seed, &budget, args.trace, &mut report),
        "fleet" => fleet::run(args.seed, &budget, args.trace, nproc, &mut report),
        "campaign" => campaign::run(args.seed, &budget, args.trace, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other} (field, fleet, campaign)");
            return ExitCode::from(2);
        }
    }
    println!(
        "headline fail_ratio = {} ({} failed of {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let json = if args.trace {
        report.json(PER_LAYER, true)
    } else {
        report.json(END_TO_END, false)
    };
    match json {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: output checks failed: {:?}",
            report.check_failures
        );
        ExitCode::FAILURE
    }
}
