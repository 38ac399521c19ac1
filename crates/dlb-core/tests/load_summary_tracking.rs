//! The count-based load-summary tracker behind
//! [`LoadBalancer::load_summary`] must agree with a full scan of the
//! load vector ([`LoadSummary::from_loads`]) after every step, on every
//! path that writes loads: sequential events, the borrow and settlement
//! machinery, the sequential balance executor and the wave executor
//! (`set_step_jobs(4)` with wave threshold 0, so every flush runs in
//! waves).  Querying must also never change what the engine computes.

use dlb_core::{Cluster, LoadBalancer, LoadEvent, LoadSummary, Params, SimpleCluster};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Random events with a drain-heavy second half, so runs visit load
/// build-up, the borrow machinery and empty processors.
fn events(rng: &mut ChaCha8Rng, n: usize, t: usize, steps: usize) -> Vec<LoadEvent> {
    let (p_gen, p_con) = if t * 2 < steps {
        (0.5, 0.35)
    } else {
        (0.2, 0.6)
    };
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            if x < p_gen {
                LoadEvent::Generate
            } else if x < p_gen + p_con {
                LoadEvent::Consume
            } else {
                LoadEvent::Idle
            }
        })
        .collect()
}

/// Steps `engine` with a crash mask that changes every 25 steps,
/// checking the tracked summary against a scan after every step from
/// `observe_from` on (a late first query installs the tracker mid-run).
/// Returns the final loads and metrics.
fn drive(
    engine: &mut dyn LoadBalancer,
    jobs: usize,
    seed: u64,
    steps: usize,
    observe_from: usize,
) -> (Vec<u64>, dlb_core::Metrics) {
    let n = engine.n();
    engine.set_step_jobs(jobs);
    engine.set_wave_threshold(0);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for t in 0..steps {
        let evs = events(&mut rng, n, t, steps);
        let down: Vec<bool> = (0..n).map(|i| (t / 25 + i) % 7 == 0).collect();
        engine.step_masked(&evs, &down);
        if t >= observe_from {
            let loads = engine.loads();
            assert_eq!(
                engine.load_summary(),
                LoadSummary::from_loads(&loads),
                "{} jobs={jobs} seed={seed} step {t}",
                engine.name()
            );
        }
    }
    (engine.loads(), *engine.metrics())
}

#[test]
fn full_model_summary_matches_scan_on_every_path() {
    let mut paths = dlb_core::Metrics::default();
    for seed in 0..6u64 {
        for jobs in [1, 4] {
            let params = Params::new(12, 2, 1.2, 2).unwrap();
            let mut observed = Cluster::new(params, seed);
            let seen = drive(&mut observed, jobs, seed, 300, 0);
            observed.check_invariants().unwrap();
            paths += *observed.metrics();
            let mut late = Cluster::new(params, seed);
            assert_eq!(drive(&mut late, jobs, seed, 300, 150), seen, "late tracker");
            let mut plain = Cluster::new(params, seed);
            assert_eq!(
                drive(&mut plain, jobs, seed, 300, usize::MAX),
                seen,
                "passive"
            );
        }
    }
    // The runs reached the settlement machinery, whose exchanges and
    // class balances write loads too.
    assert!(
        paths.total_borrow > 0 && paths.remote_borrow > 0 && paths.class_balance_ops > 0,
        "{paths:?}"
    );
}

#[test]
fn simple_model_summary_matches_scan_on_every_path() {
    for seed in 0..6u64 {
        for jobs in [1, 4] {
            let params = Params::paper_section7(16);
            let mut observed = SimpleCluster::new(params, seed);
            let seen = drive(&mut observed, jobs, seed, 300, 0);
            observed.check_invariants().unwrap();
            let mut plain = SimpleCluster::new(params, seed);
            assert_eq!(
                drive(&mut plain, jobs, seed, 300, usize::MAX),
                seen,
                "passive"
            );
        }
    }
}

#[test]
fn summary_of_equal_and_very_large_loads() {
    let initial = 1u64 << 40;
    let params = Params::paper_section7(8);
    let mut full = Cluster::with_initial_load(params, 1, initial);
    let mut simple = SimpleCluster::with_initial_load(params, 1, initial);
    for engine in [&mut full as &mut dyn LoadBalancer, &mut simple] {
        let all_equal = LoadSummary {
            min: initial,
            max: initial,
            total: 8 * initial,
        };
        assert_eq!(engine.load_summary(), all_equal, "{}", engine.name());
        drive(engine, 4, 9, 60, 0);
    }
}
