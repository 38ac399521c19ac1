//! The SPAA'93 dynamic distributed load balancing algorithm of Lüling &
//! Monien, implemented as an executable, instrumented model.
//!
//! Two variants are provided:
//!
//! * [`cluster::Cluster`] — the *analyzable* algorithm of §4 and the paper's
//!   appendix: every processor tracks per-class virtual loads
//!   `d_{i,1..n}`, borrowed-packet markers `b_{i,1..n}` (limit `C`), and
//!   triggers a balancing operation with `δ` random partners whenever its
//!   self-generated load has changed by the factor `f`.  This is the
//!   variant Theorems 3 and 4 are proved for.
//! * [`simple::SimpleCluster`] — the *practical* algorithm of [7] that the
//!   paper's introduction describes: identical trigger, but balancing raw
//!   load counts without the virtual-class bookkeeping.  This is what the
//!   branch-and-bound / Prolog / graphics applications cited by the paper
//!   actually ran.
//!
//! [`cluster::Cluster`] stores the `d`/`b` matrices sparsely
//! ([`sparse::SparseRow`]s, inline while they hold at most one class)
//! in one cache-line record per processor, which is what lets it scale
//! to n = 2²⁰; the retired flat-arena engine survives as
//! [`dense::DenseCluster`] and the naive oracle as
//! [`reference`] — all three are bit-identical, enforced by proptests.
//!
//! [`one_proc`] contains the one-processor-generator(-consumer) models of
//! §3 (the paper's Figure 1), used to validate Theorems 1–3 and the cost
//! bounds of §6 empirically.
//!
//! Everything is deterministic given a seed, and every probabilistic
//! decision draws from a `ChaCha8` stream owned by the structure.
//!
//! ```
//! use dlb_core::{Cluster, LoadBalancer, LoadEvent, Params};
//!
//! // The paper's §7 configuration on 8 processors.
//! let params = Params::new(8, 1, 1.1, 4)?;
//! let mut cluster = Cluster::new(params, 42);
//!
//! // Processor 0 generates; everyone else idles.
//! let mut events = vec![LoadEvent::Idle; 8];
//! events[0] = LoadEvent::Generate;
//! for _ in 0..500 {
//!     cluster.step(&events);
//! }
//!
//! // Balancing spread the producer's 500 packets over the network.
//! assert_eq!(cluster.loads().iter().sum::<u64>(), 500);
//! assert!(cluster.loads().iter().all(|&l| l > 0));
//! cluster.check_invariants().unwrap();
//! # Ok::<(), dlb_theory::ParamError>(())
//! ```

pub mod balance;
pub mod batch;
pub mod cluster;
pub mod dense;
pub mod metrics;
pub mod one_proc;
pub mod params;
pub mod recorder;
#[doc(hidden)]
pub mod reference;
pub mod simple;
pub mod snapshot;
pub mod sparse;
pub mod strategy;
mod summary;
pub mod weighted;

pub use balance::MAX_GROUP;
pub use batch::{step_batch, BatchEvent};
pub use cluster::Cluster;
pub use dense::DenseCluster;
pub use metrics::Metrics;
pub use params::{check_full_group, ExchangePolicy, GroupTooLarge, Params};
pub use recorder::LoadRecorder;
pub use simple::{SimpleCluster, SIMPLE_WAVE_THRESHOLD};
pub use snapshot::ClusterSnapshot;
pub use sparse::SparseRow;
pub use strategy::{
    check_sparse_events, imbalance_stats, ImbalanceStats, LoadBalancer, LoadEvent, LoadSummary,
    DEFAULT_WAVE_THRESHOLD,
};
pub use weighted::WeightedCluster;
