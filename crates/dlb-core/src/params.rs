//! Parameters of the full load balancing algorithm.

use crate::balance::MAX_GROUP;
use dlb_json::{FromJson, Json, ToJson};
use dlb_theory::{AlgoParams, ParamError};
use std::fmt;

/// How borrowed-packet markers are repaid when the remote generator still
/// holds self-generated packets (`d_{j,j} > 0`; §4 / appendix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExchangePolicy {
    /// Repay only markers of the remote generator's own class:
    /// `x = min{d_{j,j}, b_{i,j}}`.  Preserves per-class virtual-load
    /// conservation (the invariant the proofs rely on); this is the
    /// default.
    #[default]
    Strict,
    /// The paper's literal appendix rule `x = min{d_{j,j}, Σ_k b_{i,k}}`:
    /// markers of *any* class on the borrower are cancelled against
    /// class-`j` packets.  Minimises the number of borrowed packets left
    /// on the borrower per remote operation, at the cost of per-class
    /// conservation (global conservation still holds).
    Aggressive,
}

impl ToJson for ExchangePolicy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                ExchangePolicy::Strict => "strict",
                ExchangePolicy::Aggressive => "aggressive",
            }
            .to_string(),
        )
    }
}

impl FromJson for ExchangePolicy {
    fn from_json(value: &Json) -> Result<Self, String> {
        match value.as_str() {
            Some("strict") => Ok(ExchangePolicy::Strict),
            Some("aggressive") => Ok(ExchangePolicy::Aggressive),
            other => Err(format!("unknown exchange policy {other:?}")),
        }
    }
}

/// Validated parameter set of the full algorithm: the analysis triple
/// `(n, δ, f)` plus the borrow limit `C` and the exchange policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    algo: AlgoParams,
    c_borrow: usize,
    exchange: ExchangePolicy,
}

impl Params {
    /// Validates and constructs a parameter set.
    ///
    /// `n` is the network size, `delta` the number of random partners per
    /// balancing operation, `f` the trigger factor (`1 ≤ f < δ + 1`), and
    /// `c_borrow` the limit `C` on borrowed packets per processor.
    pub fn new(n: usize, delta: usize, f: f64, c_borrow: usize) -> Result<Self, ParamError> {
        Ok(Params {
            algo: AlgoParams::new(n, delta, f)?,
            c_borrow,
            exchange: ExchangePolicy::Strict,
        })
    }

    /// The configuration of the paper's §7 experiments:
    /// `δ = 1`, `f = 1.1`, `C = 4` on a given network size.
    pub fn paper_section7(n: usize) -> Self {
        Params::new(n, 1, 1.1, 4).expect("paper defaults are valid")
    }

    /// Replaces the exchange policy (builder style).
    pub fn with_exchange(mut self, exchange: ExchangePolicy) -> Self {
        self.exchange = exchange;
        self
    }

    /// The analysis triple `(n, δ, f)`.
    pub fn algo(&self) -> &AlgoParams {
        &self.algo
    }

    /// Network size `n`.
    pub fn n(&self) -> usize {
        self.algo.n()
    }

    /// Neighbourhood size `δ`.
    pub fn delta(&self) -> usize {
        self.algo.delta()
    }

    /// Trigger factor `f`.
    pub fn f(&self) -> f64 {
        self.algo.f()
    }

    /// Borrow limit `C`.
    pub fn c_borrow(&self) -> usize {
        self.c_borrow
    }

    /// Exchange policy for marker repayment.
    pub fn exchange(&self) -> ExchangePolicy {
        self.exchange
    }

    /// The increase-trigger predicate: has the self-generated load grown by
    /// factor `f` since the last balancing?  The `current > last` guard
    /// makes `l_old = 0` behave like the paper's Figure 1 (a first packet
    /// triggers) without triggering on no-change events.  The comparison
    /// carries a relative epsilon so that, e.g., `f = 1.1` and `last = 100`
    /// trigger at exactly 110 despite `1.1` not being representable.
    pub fn grow_triggered(&self, current: u64, last: u64) -> bool {
        let threshold = self.f() * last as f64;
        current > last && current as f64 >= threshold - 1e-9 * threshold
    }

    /// The decrease-trigger predicate (`d_{i,i} ≤ l_old / f`), with the
    /// same epsilon treatment as [`Params::grow_triggered`].
    pub fn shrink_triggered(&self, current: u64, last: u64) -> bool {
        let threshold = last as f64 / self.f();
        current < last && current as f64 <= threshold + 1e-9 * threshold
    }
}

/// A full-model neighbourhood too large to balance: `δ` partners plus
/// the initiator exceed [`MAX_GROUP`] processors.  The practical
/// variants balance raw counts and have no such limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupTooLarge {
    /// The rejected neighbourhood size.
    pub delta: usize,
}

impl fmt::Display for GroupTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delta = {} makes balancing groups of {} processors; the full model \
             balances at most {MAX_GROUP} (delta <= {})",
            self.delta,
            self.delta + 1,
            MAX_GROUP - 1
        )
    }
}

impl std::error::Error for GroupTooLarge {}

/// Checks that a full-model balancing group — `delta` partners plus the
/// initiator — fits [`MAX_GROUP`].
pub fn check_full_group(delta: usize) -> Result<(), GroupTooLarge> {
    if delta < MAX_GROUP {
        Ok(())
    } else {
        Err(GroupTooLarge { delta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = Params::paper_section7(64);
        assert_eq!(p.n(), 64);
        assert_eq!(p.delta(), 1);
        assert!((p.f() - 1.1).abs() < 1e-12);
        assert_eq!(p.c_borrow(), 4);
        assert_eq!(p.exchange(), ExchangePolicy::Strict);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(Params::new(64, 1, 2.0, 4).is_err());
        assert!(Params::new(64, 0, 1.1, 4).is_err());
        assert!(Params::new(1, 1, 1.1, 4).is_err());
    }

    #[test]
    fn grow_trigger_semantics() {
        let p = Params::new(64, 1, 1.1, 4).unwrap();
        // From zero: the first packet triggers (Figure 1 start).
        assert!(p.grow_triggered(1, 0));
        // No event, no trigger.
        assert!(!p.grow_triggered(0, 0));
        // 10 -> 11 with f = 1.1: 11 >= 11.0 triggers.
        assert!(p.grow_triggered(11, 10));
        assert!(!p.grow_triggered(10, 10));
        // 100 -> 109 does not reach 110.
        assert!(!p.grow_triggered(109, 100));
        assert!(p.grow_triggered(110, 100));
    }

    #[test]
    fn shrink_trigger_semantics() {
        let p = Params::new(64, 1, 1.1, 4).unwrap();
        // 11 -> 10: 10 <= 10.0 triggers.
        assert!(p.shrink_triggered(10, 11));
        // 110 -> 101: 101 > 100 no trigger; -> 100 triggers.
        assert!(!p.shrink_triggered(101, 110));
        assert!(p.shrink_triggered(100, 110));
        // Zero last never shrink-triggers.
        assert!(!p.shrink_triggered(0, 0));
    }

    #[test]
    fn builder_exchange_policy() {
        let p = Params::paper_section7(8).with_exchange(ExchangePolicy::Aggressive);
        assert_eq!(p.exchange(), ExchangePolicy::Aggressive);
    }
}
