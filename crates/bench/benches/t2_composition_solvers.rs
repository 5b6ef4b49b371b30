//! Experiment `t2_composition_solvers` (paper §III-B, scalability):
//! solver ablation across the three motivating scenario classes, plus an
//! optimality check against exhaustive search on small instances.

use std::time::Instant;

use iobt_bench::{f1, f3, Table};
use iobt_core::prelude::*;
use iobt_synthesis::{CompositionProblem, Solver};
use iobt_types::NodeSpec;

fn scenario_problem(name: &str, seed: u64) -> (String, CompositionProblem) {
    // The 10k row exercises the indexed construction + portfolio path at
    // the paper's headline scale; the 500-node rows keep the ablation
    // comparable across scenario classes.
    let (scenario, grid) = match name {
        "evacuation" => (urban_evacuation(500, seed), 8),
        "surveillance" => (persistent_surveillance(500, seed), 8),
        "surveillance-10k" => (persistent_surveillance(10_000, seed), 12),
        _ => (disaster_relief(500, seed), 8),
    };
    let specs: Vec<NodeSpec> = scenario.catalog.iter().cloned().collect();
    (
        name.to_string(),
        CompositionProblem::from_mission(&scenario.mission, &specs, grid),
    )
}

fn main() {
    let mut table = Table::new(
        "t2_composition_solvers",
        "Solver ablation across scenario classes (500-node populations + 10k surveillance)",
        &[
            "scenario",
            "solver",
            "coverage",
            "feasible max",
            "cost",
            "nodes",
            "solve ms",
        ],
    );
    for name in ["evacuation", "surveillance", "disaster", "surveillance-10k"] {
        let (label, problem) = scenario_problem(name, 21);
        let feasible = problem.max_achievable_fraction();
        for solver in [
            Solver::Greedy,
            Solver::Anneal {
                iterations: 2_000,
                seed: 5,
            },
            Solver::Portfolio {
                iterations: 2_000,
                seed: 5,
            },
            Solver::Random { seed: 6 },
        ] {
            let t0 = Instant::now();
            let r = solver.solve(&problem);
            let solve_ms = t0.elapsed().as_secs_f64() * 1_000.0;
            table.row(vec![
                label.clone(),
                solver.to_string(),
                f3(r.coverage),
                f3(feasible),
                f1(r.cost),
                r.selected.len().to_string(),
                f1(solve_ms),
            ]);
        }
    }
    table.finish();

    // Optimality gap vs exhaustive on small instances.
    let mut gap = Table::new(
        "t2_optimality_gap",
        "Greedy/anneal cost vs exact optimum (12-candidate instances)",
        &["seed", "greedy cost", "anneal cost", "optimal cost", "greedy gap %"],
    );
    for seed in 0..5u64 {
        // Hand-built feasible instances: 12 visual sensors of mixed range
        // scattered over a 300 m square, full coverage required.
        use iobt_types::{
            Affiliation, EnergyBudget, Mission, MissionId, MissionKind, NodeId, Point, Rect,
            Sensor, SensorKind,
        };
        let specs: Vec<NodeSpec> = (0..12u64)
            .map(|i| {
                let x = ((i * 73 + seed * 37) % 300) as f64;
                let y = ((i * 131 + seed * 59) % 300) as f64;
                let range = 90.0 + ((i * 41) % 140) as f64;
                NodeSpec::builder(NodeId::new(i))
                    .affiliation(if i % 3 == 0 {
                        Affiliation::Gray
                    } else {
                        Affiliation::Blue
                    })
                    .position(Point::new(x, y))
                    .sensor(Sensor::new(SensorKind::Visual, range, 0.9))
                    .energy(EnergyBudget::unlimited())
                    .build()
            })
            .collect();
        let mission = Mission::builder(MissionId::new(1), MissionKind::Surveillance)
            .area(Rect::square(300.0))
            .require_modality(SensorKind::Visual)
            .coverage_fraction(1.0)
            .min_trust(0.3)
            .build();
        let mut problem = CompositionProblem::from_mission(&mission, &specs, 4);
        // Require exactly what the full candidate set can achieve so the
        // exact optimum exists.
        problem.required_fraction = problem.max_achievable_fraction();
        let g = Solver::Greedy.solve(&problem);
        let a = Solver::Anneal {
            iterations: 3_000,
            seed,
        }
        .solve(&problem);
        let e = Solver::Exhaustive.solve(&problem);
        let gap_pct = if e.cost > 0.0 {
            (g.cost - e.cost) / e.cost * 100.0
        } else {
            0.0
        };
        gap.row(vec![
            seed.to_string(),
            f1(g.cost),
            f1(a.cost),
            f1(e.cost),
            f1(gap_pct),
        ]);
    }
    gap.finish();
    println!(
        "\nShape check: greedy ≈ anneal ≪ random in cost at equal coverage on \
         the 500-node scenarios; on the small exact instances annealing \
         reaches the optimum every time while pure greedy occasionally \
         overpays (its guarantee is approximate, not exact)."
    );
}
