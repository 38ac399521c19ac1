//! PR-9 sparse-engine contract: the compressed-row [`Cluster`] must be
//! *bit-identical* to both the retired flat-arena [`DenseCluster`] and
//! the naive [`RefCluster`] oracle — same RNG consumption, same loads,
//! same metrics, same full `d`/`b` matrices, same trace bytes, on every
//! reachable state, for every `step_jobs` setting and under crash
//! masks.  These proptests drive all three side by side on random small
//! instances and compare full state after every step, mirroring the
//! PR-4 `opt_equivalence` suite one engine generation later.

use dlb_core::reference::RefCluster;
use dlb_core::{Cluster, DenseCluster, ExchangePolicy, LoadBalancer, LoadEvent, Params};
use proptest::{prop_assert, prop_assert_eq, proptest};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Deterministic mixed workload: per-processor generate/consume/idle
/// draws from a seeded stream, biased by `phase` so runs visit both
/// load build-up and drain-down regimes.
fn events_at(rng: &mut ChaCha8Rng, n: usize, t: usize, steps: usize) -> Vec<LoadEvent> {
    let draining = t * 2 > steps;
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            let (p_gen, p_con) = if draining { (0.2, 0.6) } else { (0.55, 0.3) };
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

/// Renders a trace event stream to its serialized line form — the byte
/// representation persisted by `FileSink` — so stream comparisons catch
/// divergence in any field, not just the fields a struct `==` sees.
fn trace_lines(events: &[dlb_trace::TraceEvent]) -> Vec<String> {
    events.iter().map(|e| e.to_line()).collect()
}

proptest! {
    #[test]
    fn sparse_matches_dense_and_reference_step_for_step(
        n_idx in 0usize..4,
        delta_idx in 0usize..2,
        c_idx in 0usize..3,
        aggressive in 0usize..2,
        jobs_idx in 0usize..2,
        initial in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [2usize, 3, 5, 9][n_idx];
        let delta = [1usize, 2][delta_idx].min(n - 1);
        let c_borrow = [0usize, 2, 4][c_idx];
        let jobs = [1usize, 4][jobs_idx];
        let mut params = Params::new(n, delta, 1.2, c_borrow).unwrap();
        if aggressive == 1 {
            params = params.with_exchange(ExchangePolicy::Aggressive);
        }
        let initial = initial * 5;
        let mut sparse = Cluster::with_initial_load(params, seed, initial);
        let mut dense = DenseCluster::with_initial_load(params, seed, initial);
        let mut oracle = RefCluster::with_initial_load(params, seed, initial);
        sparse.set_step_jobs(jobs);
        dense.set_step_jobs(jobs);
        // Threshold 0 forces the wave executor even for tiny flushes so
        // the parallel path is exercised at these sizes.
        sparse.set_wave_threshold(0);
        dense.set_wave_threshold(0);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let steps = 60;
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            sparse.step(&events);
            dense.step(&events);
            oracle.step(&events);
            prop_assert_eq!(sparse.loads(), oracle.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(sparse.loads(), dense.loads(), "dense loads diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), oracle.metrics(), "metrics diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), dense.metrics(), "dense metrics diverged at step {}", t);
            for i in 0..n {
                let (active_d, active_b) = sparse.active_classes(i);
                let mut seen_d = 0usize;
                let mut seen_b = 0usize;
                for c in 0..n {
                    let d = sparse.d(i, c);
                    let b = sparse.b(i, c);
                    prop_assert_eq!(d, oracle.d(i, c), "d[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(b, oracle.b(i, c), "b[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(d, dense.d(i, c), "dense d[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(b, dense.b(i, c), "dense b[{}][{}] at step {}", i, c, t);
                    seen_d += (d > 0) as usize;
                    seen_b += (b > 0) as usize;
                }
                prop_assert_eq!(active_d, seen_d, "active d count of {} at step {}", i, t);
                prop_assert_eq!(active_b, seen_b, "active b count of {} at step {}", i, t);
            }
        }
        prop_assert!(sparse.check_invariants().is_ok());
        prop_assert!(dense.check_invariants().is_ok());
        prop_assert!(oracle.check_invariants().is_ok());
        // The compressed representation can never exceed two dense
        // matrices plus the fixed per-processor vectors by construction;
        // at small n this is a smoke check, at large n the point.
        prop_assert!(sparse.state_bytes() > 0);
    }

    #[test]
    fn paper_scale_groups_match_dense_and_reference(
        n_idx in 0usize..2,
        delta_idx in 0usize..2,
        jobs_idx in 0usize..2,
        initial in 1u64..3,
        seed in 0u64..1_000_000,
    ) {
        // Groups of 8 and 64 members: rows holding dozens of classes
        // and, at δ = 63, a dealer mask with every bit set.  Fewer steps
        // than the small-n family keep the O(n²) comparisons cheap.
        let n = [64usize, 65][n_idx];
        let delta = [7usize, 63][delta_idx];
        let jobs = [1usize, 4][jobs_idx];
        let params = Params::new(n, delta, 1.2, 4).unwrap();
        let initial = initial * 10;
        let mut sparse = Cluster::with_initial_load(params, seed, initial);
        let mut dense = DenseCluster::with_initial_load(params, seed, initial);
        let mut oracle = RefCluster::with_initial_load(params, seed, initial);
        sparse.set_step_jobs(jobs);
        dense.set_step_jobs(jobs);
        sparse.set_wave_threshold(0);
        dense.set_wave_threshold(0);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let steps = 6;
        let mut widest = 0;
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            sparse.step(&events);
            dense.step(&events);
            oracle.step(&events);
            prop_assert_eq!(sparse.loads(), oracle.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(sparse.loads(), dense.loads(), "dense loads diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), oracle.metrics(), "metrics diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), dense.metrics(), "dense metrics diverged at step {}", t);
            for i in 0..n {
                widest = widest.max(sparse.active_classes(i).0);
                for c in 0..n {
                    prop_assert_eq!(sparse.d(i, c), oracle.d(i, c), "d[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(sparse.b(i, c), oracle.b(i, c), "b[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(sparse.d(i, c), dense.d(i, c), "dense d[{}][{}] at step {}", i, c, t);
                    prop_assert_eq!(sparse.b(i, c), dense.b(i, c), "dense b[{}][{}] at step {}", i, c, t);
                }
            }
        }
        prop_assert!(widest >= 10, "rows stayed narrow: at most {} classes", widest);
        prop_assert!(sparse.check_invariants().is_ok());
        prop_assert!(dense.check_invariants().is_ok());
    }

    #[test]
    fn sparse_matches_dense_under_crash_masks(
        n_idx in 0usize..3,
        delta_idx in 0usize..2,
        jobs_idx in 0usize..2,
        initial in 0u64..3,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 6, 10][n_idx];
        let delta = [1usize, 2][delta_idx].min(n - 1);
        let jobs = [1usize, 4][jobs_idx];
        let params = Params::new(n, delta, 1.3, 4).unwrap();
        let initial = initial * 10;
        let mut sparse = Cluster::with_initial_load(params, seed, initial);
        let mut dense = DenseCluster::with_initial_load(params, seed, initial);
        let mut oracle = RefCluster::with_initial_load(params, seed, initial);
        sparse.set_step_jobs(jobs);
        dense.set_step_jobs(jobs);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let mut mask_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead);
        let steps = 80;
        let mut down = vec![false; n];
        for t in 0..steps {
            // Flip the mask every few steps so runs mix crashed and
            // all-alive phases; the full engines use the event-masking
            // `step_masked` default, which must agree bit-for-bit.
            if t % 7 == 0 {
                for f in down.iter_mut() {
                    *f = mask_rng.gen_bool(0.25);
                }
            }
            let events = events_at(&mut ev_rng, n, t, steps);
            sparse.step_masked(&events, &down);
            dense.step_masked(&events, &down);
            // The oracle has no mask entry point; apply the exact
            // event-masking rule the trait default uses.
            let masked: Vec<LoadEvent> = events
                .iter()
                .zip(down.iter())
                .map(|(&e, &d)| if d { LoadEvent::Idle } else { e })
                .collect();
            oracle.step(&masked);
            prop_assert_eq!(sparse.loads(), dense.loads(), "loads diverged at step {}", t);
            prop_assert_eq!(sparse.loads(), oracle.loads(), "oracle loads diverged at step {}", t);
            prop_assert_eq!(sparse.metrics(), dense.metrics(), "metrics diverged at step {}", t);
        }
        prop_assert!(sparse.check_invariants().is_ok());
        prop_assert!(dense.check_invariants().is_ok());
    }

    #[test]
    fn sparse_and_dense_emit_identical_trace_bytes(
        n_idx in 0usize..3,
        jobs_idx in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let n = [3usize, 5, 9][n_idx];
        let jobs = [1usize, 4][jobs_idx];
        let params = Params::paper_section7(n);
        let mut sparse = Cluster::new(params, seed);
        let mut dense = DenseCluster::new(params, seed);
        let sparse_buf = dlb_trace::BufferSink::new();
        let dense_buf = dlb_trace::BufferSink::new();
        sparse.set_trace_sink(sparse_buf.handle());
        dense.set_trace_sink(dense_buf.handle());
        sparse.set_step_jobs(jobs);
        dense.set_step_jobs(jobs);
        sparse.set_wave_threshold(0);
        dense.set_wave_threshold(0);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let steps = 50;
        for t in 0..steps {
            let events = events_at(&mut ev_rng, n, t, steps);
            sparse.step(&events);
            dense.step(&events);
        }
        let sparse_events = sparse_buf.take();
        let dense_events = dense_buf.take();
        prop_assert!(
            !sparse_events.is_empty(),
            "workload must actually trigger balancing for the check to bite"
        );
        prop_assert_eq!(
            trace_lines(&sparse_events),
            trace_lines(&dense_events),
            "trace streams diverged"
        );
    }
}
