//! What the end-to-end benchmark needs besides the `dlb` binary: the
//! workload part of a `dlb run` scenario (to count the events a run
//! processes), a trace-file check and a host-speed calibration kernel.
//!
//! Nothing here touches a balancer, so the end-to-end measurements keep
//! working when the engine's API changes; only the span-traced harness
//! (`perfbench/harness`) calls into the engines.

use std::time::Instant;

use dlb_core::LoadEvent;
use dlb_experiments::{stream_seed, StreamId};
use dlb_json::Json;
use dlb_workload::phase::{PhaseConfig, PhaseWorkload};
use dlb_workload::sparse::{SparseActivity, SparsePattern, SparseWorkload};
use dlb_workload::Workload;

/// The workload kinds the benchmark's `dlb run` scenarios use.
#[derive(Clone, Copy)]
pub enum WorkSpec {
    Phase(PhaseConfig),
    Sparse(SparsePattern),
}

/// The workload of a `dlb run` scenario and the run shape around it.
pub struct RunWork {
    pub n: usize,
    pub steps: usize,
    pub runs: usize,
    pub seed: u64,
    spec: WorkSpec,
}

/// A built workload, one per run.
pub enum Work {
    Dense(PhaseWorkload),
    Sparse(SparseActivity),
}

fn pair<T: dlb_json::FromJson + Copy>(
    value: &Json,
    key: &str,
    default: (T, T),
) -> Result<(T, T), String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => {
            let items: Vec<T> = dlb_json::FromJson::from_json(v)?;
            match items[..] {
                [a, b] => Ok((a, b)),
                _ => Err(format!("{key}: expected a pair")),
            }
        }
    }
}

impl RunWork {
    /// Reads `n`, `steps`, `runs`, `seed` and `workload` of a parsed
    /// `dlb run` scenario, with `dlb run`'s defaults.
    pub fn parse(value: &Json) -> Result<RunWork, String> {
        let workload = dlb_json::field(value, "workload")?;
        let spec = match workload.get("kind").and_then(Json::as_str) {
            Some("phase") => WorkSpec::Phase(PhaseConfig {
                g: pair(workload, "g", (0.1, 0.9))?,
                c: pair(workload, "c", (0.1, 0.7))?,
                len: pair(workload, "len", (150, 400))?,
            }),
            Some("sparse-phase") => WorkSpec::Sparse(SparsePattern::Phase {
                work: dlb_json::field_or(workload, "work", 1)?,
                gap: pair(workload, "gap", (50, 150))?,
            }),
            other => return Err(format!("unsupported workload kind {other:?}")),
        };
        Ok(RunWork {
            n: dlb_json::req(value, "n")?,
            steps: dlb_json::req(value, "steps")?,
            runs: dlb_json::field_or(value, "runs", 10)?,
            seed: dlb_json::field_or(value, "seed", 0)?,
            spec,
        })
    }

    /// The workload of run `r`, seeded as `dlb run` seeds it.
    pub fn build(&self, r: usize) -> Work {
        let seed = stream_seed(self.seed, r as u64, StreamId::Workload);
        match self.spec {
            WorkSpec::Phase(cfg) => Work::Dense(PhaseWorkload::new(self.n, self.steps, cfg, seed)),
            WorkSpec::Sparse(pattern) => Work::Sparse(SparseActivity::new(self.n, pattern, seed)),
        }
    }

    /// Active (non-idle) processor-events over every step of every run.
    pub fn active_events(&self) -> u64 {
        let mut total = 0u64;
        let (mut events, mut active) = (Vec::new(), Vec::new());
        for r in 0..self.runs {
            match self.build(r) {
                Work::Dense(mut w) => {
                    for t in 0..self.steps {
                        w.events_at(t, &mut events);
                        total += events.iter().filter(|e| is_active(e)).count() as u64;
                    }
                }
                Work::Sparse(mut w) => {
                    for t in 0..self.steps {
                        w.active_at(t, &mut active);
                        total += active.len() as u64;
                    }
                }
            }
        }
        total
    }
}

pub fn is_active(e: &LoadEvent) -> bool {
    !matches!(e, LoadEvent::Idle)
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Summary of a JSONL trace as one JSON object: FNV-1a hash, size and
/// event counts.  Every line must be a JSON object with a `"t"` tag
/// that renders back to the same bytes.
pub fn check_trace(bytes: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    let (mut events, mut run_started, mut run_finished, mut load_samples) =
        (0u64, 0u64, 0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if value.render() != line {
            return Err(format!("line {} does not round-trip", i + 1));
        }
        events += 1;
        match value.get("t").and_then(Json::as_str) {
            Some("run_start") => run_started += 1,
            Some("run_end") => run_finished += 1,
            Some("load") => load_samples += 1,
            Some(_) => {}
            None => return Err(format!("line {} has no \"t\" tag", i + 1)),
        }
    }
    Ok(format!(
        "{{\"fnv\":\"{:016x}\",\"bytes\":{},\"events\":{events},\"run_started\":{run_started},\
         \"run_finished\":{run_finished},\"load_samples\":{load_samples}}}",
        fnv1a(bytes),
        bytes.len()
    ))
}

/// xorshift64 step.
fn next_random(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Seconds one fixed kernel takes, as a reference for how fast the host
/// runs at the moment: random updates of a 256 KiB table and a sort of
/// it, 140 times (cache-resident and branchy, like the engine's balance
/// op).  It calls no repository code, so it times the same work in
/// every version of the repository.
pub fn calibrate() -> f64 {
    let mut x = 0x1234_5678_u64;
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 15];
    let mut acc = 0u64;
    for round in 0..140u64 {
        for i in 0..table.len() {
            let j = (next_random(&mut x) as usize) & (table.len() - 1);
            table[j] = table[j].wrapping_add(x ^ round);
            if table[i] & 1 == 0 {
                acc = acc.wrapping_add(table[j]);
            }
        }
        table.sort_unstable();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
