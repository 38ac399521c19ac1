//! Serialisable snapshots of the full algorithm's state.
//!
//! A [`ClusterSnapshot`] captures everything — per-processor matrices,
//! ledgers, metrics and the exact position of the random stream — so a
//! restored cluster continues *bit-identically*.  Useful for
//! checkpointing long experiments and for bug reproduction.

use crate::cluster::Cluster;
use crate::metrics::Metrics;
use crate::params::{ExchangePolicy, Params};
use dlb_json::{FromJson, Json, ToJson};

/// Complete serialisable state of a [`Cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSnapshot {
    /// Network size `n`.
    pub n: usize,
    /// Neighbourhood size `δ`.
    pub delta: usize,
    /// Trigger factor `f`.
    pub f: f64,
    /// Borrow limit `C`.
    pub c_borrow: usize,
    /// Exchange policy.
    pub exchange: ExchangePolicy,
    /// Per-processor `d` matrices (row-major, `n × n`).
    pub d: Vec<Vec<u64>>,
    /// Per-processor `b` matrices.
    pub b: Vec<Vec<u64>>,
    /// Per-processor `l_old` values.
    pub l_old: Vec<u64>,
    /// Ledger: fresh generations per class.
    pub fresh_generated: Vec<u64>,
    /// Ledger: direct consumptions per class.
    pub direct_consumed: Vec<u64>,
    /// Ledger: settled markers per class.
    pub settled: Vec<u64>,
    /// Initial total load at construction.
    pub initial_total: u64,
    /// Activity counters.
    pub metrics: Metrics,
    /// ChaCha seed of the random stream.
    pub rng_seed: [u8; 32],
    /// ChaCha word position of the random stream.
    pub rng_word_pos: u128,
}

impl ToJson for ClusterSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("n".into(), self.n.to_json()),
            ("delta".into(), self.delta.to_json()),
            ("f".into(), self.f.to_json()),
            ("c_borrow".into(), self.c_borrow.to_json()),
            ("exchange".into(), self.exchange.to_json()),
            ("d".into(), self.d.to_json()),
            ("b".into(), self.b.to_json()),
            ("l_old".into(), self.l_old.to_json()),
            ("fresh_generated".into(), self.fresh_generated.to_json()),
            ("direct_consumed".into(), self.direct_consumed.to_json()),
            ("settled".into(), self.settled.to_json()),
            ("initial_total".into(), self.initial_total.to_json()),
            ("metrics".into(), self.metrics.to_json()),
            ("rng_seed".into(), self.rng_seed.to_vec().to_json()),
            ("rng_word_pos".into(), self.rng_word_pos.to_json()),
        ])
    }
}

impl FromJson for ClusterSnapshot {
    fn from_json(value: &Json) -> Result<Self, String> {
        let seed_bytes: Vec<u8> = dlb_json::req(value, "rng_seed")?;
        let rng_seed: [u8; 32] = seed_bytes
            .try_into()
            .map_err(|v: Vec<u8>| format!("rng_seed must hold 32 bytes, got {}", v.len()))?;
        Ok(ClusterSnapshot {
            n: dlb_json::req(value, "n")?,
            delta: dlb_json::req(value, "delta")?,
            f: dlb_json::req(value, "f")?,
            c_borrow: dlb_json::req(value, "c_borrow")?,
            exchange: dlb_json::req(value, "exchange")?,
            d: dlb_json::req(value, "d")?,
            b: dlb_json::req(value, "b")?,
            l_old: dlb_json::req(value, "l_old")?,
            fresh_generated: dlb_json::req(value, "fresh_generated")?,
            direct_consumed: dlb_json::req(value, "direct_consumed")?,
            settled: dlb_json::req(value, "settled")?,
            initial_total: dlb_json::req(value, "initial_total")?,
            metrics: dlb_json::req(value, "metrics")?,
            rng_seed,
            rng_word_pos: dlb_json::req(value, "rng_word_pos")?,
        })
    }
}

impl ClusterSnapshot {
    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).render()
    }

    /// Deserialises from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        FromJson::from_json(&Json::parse(text)?)
    }

    /// Reconstructs the parameter set.
    pub fn params(&self) -> Result<Params, dlb_theory::ParamError> {
        Ok(Params::new(self.n, self.delta, self.f, self.c_borrow)?.with_exchange(self.exchange))
    }
}

impl Cluster {
    /// Captures the complete current state.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.snapshot_impl()
    }

    /// Restores a cluster from a snapshot; the restored cluster continues
    /// bit-identically to the original.
    pub fn restore(snapshot: &ClusterSnapshot) -> Result<Cluster, String> {
        Cluster::restore_impl(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{LoadBalancer, LoadEvent};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn random_events(n: usize, rng: &mut impl Rng) -> Vec<LoadEvent> {
        (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => LoadEvent::Generate,
                1 => LoadEvent::Consume,
                _ => LoadEvent::Idle,
            })
            .collect()
    }

    #[test]
    fn snapshot_restores_bit_identical_continuation() {
        let params = Params::paper_section7(8);
        let mut original = Cluster::new(params, 42);
        let mut ev_rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..120 {
            let ev = random_events(8, &mut ev_rng);
            original.step(&ev);
        }
        let snap = original.snapshot();
        let mut restored = Cluster::restore(&snap).expect("restore");

        let mut ev_rng_a = ChaCha8Rng::seed_from_u64(8);
        let mut ev_rng_b = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..80 {
            original.step(&random_events(8, &mut ev_rng_a));
            restored.step(&random_events(8, &mut ev_rng_b));
        }
        assert_eq!(original.loads(), restored.loads());
        assert_eq!(original.metrics(), restored.metrics());
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restore_rejects_an_oversized_group() {
        let params = Params::new(70, 63, 1.1, 4).unwrap();
        let mut snap = Cluster::new(params, 1).snapshot();
        assert!(Cluster::restore(&snap).is_ok());
        snap.delta = crate::MAX_GROUP;
        let err = Cluster::restore(&snap)
            .err()
            .expect("delta = 64 must not restore");
        assert!(err.contains("at most 64"), "{err}");
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let params = Params::paper_section7(4).with_exchange(ExchangePolicy::Aggressive);
        let mut cluster = Cluster::new(params, 3);
        cluster.step(&[LoadEvent::Generate; 4]);
        let snap = cluster.snapshot();
        let json = snap.to_json();
        let back = ClusterSnapshot::from_json(&json).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.exchange, ExchangePolicy::Aggressive);
    }

    #[test]
    fn restore_rejects_corrupted_snapshot() {
        let params = Params::paper_section7(4);
        let cluster = Cluster::new(params, 1);
        let mut snap = cluster.snapshot();
        snap.d.pop(); // wrong number of processors
        assert!(Cluster::restore(&snap).is_err());
        let mut snap2 = cluster.snapshot();
        snap2.f = 9.0; // invalid parameters
        assert!(Cluster::restore(&snap2).is_err());
    }
}
