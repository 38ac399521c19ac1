//! Scenario configuration: a JSON description of *what to run* — network
//! size, balancing strategy, workload, horizon, optional fault plan — so
//! experiments can be driven without writing Rust.

use dlb_faults::FaultPlan;
use dlb_json::{FromJson, Json, ToJson};
use dlb_workload::sparse::SparsePattern;

/// A complete runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of processors.
    pub n: usize,
    /// Global time steps per run.
    pub steps: usize,
    /// Independent seeded runs to average over.
    pub runs: usize,
    /// Master seed.
    pub seed: u64,
    /// Ignore the first fraction of each run when summarising quality.
    pub warmup_fraction: f64,
    /// The balancing strategy.
    pub strategy: StrategyConfig,
    /// Optional rival strategies: when non-empty, `dlb run` races
    /// `strategy` against each entry on the identical workload, fault
    /// plan and seeds, and prints a league table instead of a single
    /// report.
    pub balancer: Vec<StrategyConfig>,
    /// The load pattern.
    pub workload: WorkloadConfig,
    /// Optional fault injection: message loss, duplication, jitter,
    /// crashes and partitions, applied per run with a per-run seed.
    pub faults: Option<FaultPlan>,
    /// Optional JSONL trace output path (`dlb run --trace` overrides).
    pub trace: Option<String>,
}

fn default_runs() -> usize {
    10
}

fn default_warmup() -> f64 {
    0.2
}

/// Which balancer to run.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyConfig {
    /// The full §4 virtual-load-class algorithm.
    Full {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Borrow limit.
        c: usize,
    },
    /// The full algorithm on the retired flat-arena engine
    /// (`DenseCluster`) — bit-identical to `full`; exists so the dense
    /// oracle stays reachable end to end from scenarios.
    FullDense {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Borrow limit.
        c: usize,
    },
    /// The practical raw-load variant.
    Simple {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
    },
    /// The practical variant run as a message-level asynchronous
    /// protocol (the substrate fault plans act on).
    Async {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Message latency in time units (one generate/consume tick = 1).
        latency: u64,
    },
    /// Speed-proportional balancing for heterogeneous processors.
    Weighted {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Relative speed per processor (length must equal `n`).
        speeds: Vec<u64>,
    },
    /// The practical variant on an explicit topology.
    Topo {
        /// Partners per balancing operation.
        delta: usize,
        /// Trigger factor.
        f: f64,
        /// Interconnect.
        topology: TopologyConfig,
        /// Restrict partners to topology neighbours.
        neighbors_only: bool,
    },
    /// Rudolph/Slivkin-Allalouf/Upfal '91.
    Rsu91,
    /// Cilk-style random work stealing.
    WorkStealing,
    /// The §5 random-scatter strawman.
    RandomScatter,
    /// First-order diffusion on a topology (Cybenko).
    Diffusion {
        /// Interconnect.
        topology: TopologyConfig,
        /// Exchange coefficient (0 < alpha <= 0.5).
        alpha: f64,
    },
    /// Lin–Keller gradient model.
    Gradient {
        /// Interconnect.
        topology: TopologyConfig,
        /// Low watermark (attracts work below this load).
        low: u64,
        /// High watermark (sheds work above this load).
        high: u64,
    },
    /// Rotor-router quasirandom balancing (arXiv:1006.3302).
    Quasirandom {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Randomised pairwise averaging (arXiv:2302.12201).
    DynamicAveraging {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Greedy unit-token moves to the lightest neighbour (arXiv:1502.04511).
    LocallyOptimal {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// Dimension-exchange matchings (arXiv:1308.0148); topology must be
    /// a hypercube, torus or ring.
    DimensionExchange {
        /// Interconnect.
        topology: TopologyConfig,
    },
    /// No balancing.
    None,
}

fn default_c() -> usize {
    4
}

fn default_latency() -> u64 {
    4
}

/// Interconnect topologies.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyConfig {
    /// Fully connected.
    Complete,
    /// A cycle.
    Ring,
    /// `w × h` wrap-around grid (`w·h` must equal `n`).
    Torus {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// Hypercube on `2^dim` processors.
    Hypercube {
        /// Dimension.
        dim: u32,
    },
    /// Binary de Bruijn graph on `2^dim` processors.
    DeBruijn {
        /// Dimension.
        dim: u32,
    },
    /// Star with centre 0.
    Star,
}

/// Which workload drives the run.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadConfig {
    /// The paper's §7 phase model.
    Phase {
        /// Generation probability range.
        g: (f64, f64),
        /// Consumption probability range.
        c: (f64, f64),
        /// Phase length range.
        len: (usize, usize),
    },
    /// One processor generates every step.
    OneProducer {
        /// Index of the producer.
        producer: usize,
    },
    /// Independent per-processor coin flips.
    Uniform {
        /// P(generate).
        p_gen: f64,
        /// P(consume).
        p_con: f64,
    },
    /// A generating hotspot that moves every `period` steps.
    MovingHotspot {
        /// Steps between hotspot moves.
        period: usize,
        /// P(consume) for everyone else.
        p_con: f64,
    },
    /// Half produce, half consume, roles swap periodically.
    Split {
        /// Steps between role swaps.
        swap_every: usize,
    },
    /// An event-driven structurally sparse pattern (see
    /// [`dlb_workload::sparse`]): only the active processors are
    /// visited each step, so these are the patterns that scale to
    /// `n = 2²⁰`.  JSON kinds: `sparse-phase`, `sparse-hotspot`,
    /// `sparse-bursty`, `sparse-arrivals`.
    Sparse {
        /// Which sparse pattern runs.
        pattern: SparsePattern,
    },
}

impl WorkloadConfig {
    /// Whether this workload supports the event-driven sparse stepping
    /// path (`dlb run` takes it automatically unless `--dense` forces
    /// the O(n)-per-step path).
    pub fn is_sparse(&self) -> bool {
        matches!(self, WorkloadConfig::Sparse { .. })
    }
}

fn default_g() -> (f64, f64) {
    (0.1, 0.9)
}

fn default_cc() -> (f64, f64) {
    (0.1, 0.7)
}

fn default_len() -> (usize, usize) {
    (150, 400)
}

fn kind_of<'a>(value: &'a Json, what: &str) -> Result<&'a str, String> {
    value
        .get("kind")
        .and_then(|k| k.as_str())
        .ok_or_else(|| format!("{what} needs a string \"kind\" field"))
}

fn pair<T: FromJson + Copy>(value: &Json, key: &str, default: (T, T)) -> Result<(T, T), String> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => {
            let items: Vec<T> = FromJson::from_json(v).map_err(|e| format!("{key}: {e}"))?;
            match items[..] {
                [lo, hi] => Ok((lo, hi)),
                _ => Err(format!(
                    "{key} must hold exactly [lo, hi], got {} items",
                    items.len()
                )),
            }
        }
    }
}

fn pair_json<T: ToJson>(pair: &(T, T)) -> Json {
    Json::Arr(vec![pair.0.to_json(), pair.1.to_json()])
}

impl ToJson for TopologyConfig {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let kind = match self {
            TopologyConfig::Complete => "complete",
            TopologyConfig::Ring => "ring",
            TopologyConfig::Torus { w, h } => {
                fields.push(("w".into(), w.to_json()));
                fields.push(("h".into(), h.to_json()));
                "torus"
            }
            TopologyConfig::Hypercube { dim } => {
                fields.push(("dim".into(), dim.to_json()));
                "hypercube"
            }
            TopologyConfig::DeBruijn { dim } => {
                fields.push(("dim".into(), dim.to_json()));
                "de-bruijn"
            }
            TopologyConfig::Star => "star",
        };
        let mut obj = vec![("kind".to_string(), Json::Str(kind.to_string()))];
        obj.extend(fields);
        Json::Obj(obj)
    }
}

impl FromJson for TopologyConfig {
    fn from_json(value: &Json) -> Result<Self, String> {
        let kind = kind_of(value, "topology")?;
        let allowed: &[&str] = match kind {
            "torus" => &["kind", "w", "h"],
            "hypercube" | "de-bruijn" => &["kind", "dim"],
            _ => &["kind"],
        };
        dlb_json::reject_unknown(value, allowed)?;
        match kind {
            "complete" => Ok(TopologyConfig::Complete),
            "ring" => Ok(TopologyConfig::Ring),
            "torus" => Ok(TopologyConfig::Torus {
                w: dlb_json::req(value, "w")?,
                h: dlb_json::req(value, "h")?,
            }),
            "hypercube" => Ok(TopologyConfig::Hypercube {
                dim: dlb_json::req(value, "dim")?,
            }),
            "de-bruijn" => Ok(TopologyConfig::DeBruijn {
                dim: dlb_json::req(value, "dim")?,
            }),
            "star" => Ok(TopologyConfig::Star),
            other => Err(format!("unknown topology kind {other:?}")),
        }
    }
}

impl ToJson for StrategyConfig {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let kind = match self {
            StrategyConfig::Full { delta, f, c } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                fields.push(("c".into(), c.to_json()));
                "full"
            }
            StrategyConfig::FullDense { delta, f, c } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                fields.push(("c".into(), c.to_json()));
                "full-dense"
            }
            StrategyConfig::Simple { delta, f } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                "simple"
            }
            StrategyConfig::Async { delta, f, latency } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                fields.push(("latency".into(), latency.to_json()));
                "async"
            }
            StrategyConfig::Weighted { delta, f, speeds } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                fields.push(("speeds".into(), speeds.to_json()));
                "weighted"
            }
            StrategyConfig::Topo {
                delta,
                f,
                topology,
                neighbors_only,
            } => {
                fields.push(("delta".into(), delta.to_json()));
                fields.push(("f".into(), f.to_json()));
                fields.push(("topology".into(), topology.to_json()));
                fields.push(("neighbors_only".into(), neighbors_only.to_json()));
                "topo"
            }
            StrategyConfig::Rsu91 => "rsu91",
            StrategyConfig::WorkStealing => "work-stealing",
            StrategyConfig::RandomScatter => "random-scatter",
            StrategyConfig::Diffusion { topology, alpha } => {
                fields.push(("topology".into(), topology.to_json()));
                fields.push(("alpha".into(), alpha.to_json()));
                "diffusion"
            }
            StrategyConfig::Gradient {
                topology,
                low,
                high,
            } => {
                fields.push(("topology".into(), topology.to_json()));
                fields.push(("low".into(), low.to_json()));
                fields.push(("high".into(), high.to_json()));
                "gradient"
            }
            StrategyConfig::Quasirandom { topology } => {
                fields.push(("topology".into(), topology.to_json()));
                "quasirandom"
            }
            StrategyConfig::DynamicAveraging { topology } => {
                fields.push(("topology".into(), topology.to_json()));
                "dynamic-averaging"
            }
            StrategyConfig::LocallyOptimal { topology } => {
                fields.push(("topology".into(), topology.to_json()));
                "locally-optimal"
            }
            StrategyConfig::DimensionExchange { topology } => {
                fields.push(("topology".into(), topology.to_json()));
                "dimension-exchange"
            }
            StrategyConfig::None => "none",
        };
        let mut obj = vec![("kind".to_string(), Json::Str(kind.to_string()))];
        obj.extend(fields);
        Json::Obj(obj)
    }
}

impl FromJson for StrategyConfig {
    fn from_json(value: &Json) -> Result<Self, String> {
        let kind = kind_of(value, "strategy")?;
        let allowed: &[&str] = match kind {
            "full" | "full-dense" => &["kind", "delta", "f", "c"],
            "simple" => &["kind", "delta", "f"],
            "async" => &["kind", "delta", "f", "latency"],
            "weighted" => &["kind", "delta", "f", "speeds"],
            "topo" => &["kind", "delta", "f", "topology", "neighbors_only"],
            "diffusion" => &["kind", "topology", "alpha"],
            "gradient" => &["kind", "topology", "low", "high"],
            "quasirandom" | "dynamic-averaging" | "locally-optimal" | "dimension-exchange" => {
                &["kind", "topology"]
            }
            _ => &["kind"],
        };
        dlb_json::reject_unknown(value, allowed)?;
        match kind {
            "full" => Ok(StrategyConfig::Full {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
                c: dlb_json::field_or(value, "c", default_c())?,
            }),
            "full-dense" => Ok(StrategyConfig::FullDense {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
                c: dlb_json::field_or(value, "c", default_c())?,
            }),
            "simple" => Ok(StrategyConfig::Simple {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
            }),
            "async" => Ok(StrategyConfig::Async {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
                latency: dlb_json::field_or(value, "latency", default_latency())?,
            }),
            "weighted" => Ok(StrategyConfig::Weighted {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
                speeds: dlb_json::req(value, "speeds")?,
            }),
            "topo" => Ok(StrategyConfig::Topo {
                delta: dlb_json::req(value, "delta")?,
                f: dlb_json::req(value, "f")?,
                topology: dlb_json::req(value, "topology")?,
                neighbors_only: dlb_json::field_or(value, "neighbors_only", false)?,
            }),
            "rsu91" => Ok(StrategyConfig::Rsu91),
            "work-stealing" => Ok(StrategyConfig::WorkStealing),
            "random-scatter" => Ok(StrategyConfig::RandomScatter),
            "diffusion" => Ok(StrategyConfig::Diffusion {
                topology: dlb_json::req(value, "topology")?,
                alpha: dlb_json::req(value, "alpha")?,
            }),
            "gradient" => Ok(StrategyConfig::Gradient {
                topology: dlb_json::req(value, "topology")?,
                low: dlb_json::req(value, "low")?,
                high: dlb_json::req(value, "high")?,
            }),
            "quasirandom" => Ok(StrategyConfig::Quasirandom {
                topology: dlb_json::req(value, "topology")?,
            }),
            "dynamic-averaging" => Ok(StrategyConfig::DynamicAveraging {
                topology: dlb_json::req(value, "topology")?,
            }),
            "locally-optimal" => Ok(StrategyConfig::LocallyOptimal {
                topology: dlb_json::req(value, "topology")?,
            }),
            "dimension-exchange" => Ok(StrategyConfig::DimensionExchange {
                topology: dlb_json::req(value, "topology")?,
            }),
            "none" => Ok(StrategyConfig::None),
            other => Err(format!("unknown strategy kind {other:?}")),
        }
    }
}

impl ToJson for WorkloadConfig {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        let kind = match self {
            WorkloadConfig::Phase { g, c, len } => {
                fields.push(("g".into(), pair_json(g)));
                fields.push(("c".into(), pair_json(c)));
                fields.push(("len".into(), pair_json(len)));
                "phase"
            }
            WorkloadConfig::OneProducer { producer } => {
                fields.push(("producer".into(), producer.to_json()));
                "one-producer"
            }
            WorkloadConfig::Uniform { p_gen, p_con } => {
                fields.push(("p_gen".into(), p_gen.to_json()));
                fields.push(("p_con".into(), p_con.to_json()));
                "uniform"
            }
            WorkloadConfig::MovingHotspot { period, p_con } => {
                fields.push(("period".into(), period.to_json()));
                fields.push(("p_con".into(), p_con.to_json()));
                "moving-hotspot"
            }
            WorkloadConfig::Split { swap_every } => {
                fields.push(("swap_every".into(), swap_every.to_json()));
                "split"
            }
            WorkloadConfig::Sparse { pattern } => match pattern {
                SparsePattern::Phase { work, gap } => {
                    fields.push(("work".into(), work.to_json()));
                    fields.push(("gap".into(), pair_json(gap)));
                    "sparse-phase"
                }
                SparsePattern::Hotspot {
                    period,
                    consumer_gap,
                } => {
                    fields.push(("period".into(), period.to_json()));
                    fields.push(("consumer_gap".into(), consumer_gap.to_json()));
                    "sparse-hotspot"
                }
                SparsePattern::Bursty {
                    burst,
                    quiet,
                    quiet_gap,
                } => {
                    fields.push(("burst".into(), burst.to_json()));
                    fields.push(("quiet".into(), quiet.to_json()));
                    fields.push(("quiet_gap".into(), quiet_gap.to_json()));
                    "sparse-bursty"
                }
                SparsePattern::Arrivals {
                    arrival_gap,
                    service_gap,
                } => {
                    fields.push(("arrival_gap".into(), arrival_gap.to_json()));
                    fields.push(("service_gap".into(), service_gap.to_json()));
                    "sparse-arrivals"
                }
            },
        };
        let mut obj = vec![("kind".to_string(), Json::Str(kind.to_string()))];
        obj.extend(fields);
        Json::Obj(obj)
    }
}

impl FromJson for WorkloadConfig {
    fn from_json(value: &Json) -> Result<Self, String> {
        let kind = kind_of(value, "workload")?;
        let allowed: &[&str] = match kind {
            "phase" => &["kind", "g", "c", "len"],
            "one-producer" => &["kind", "producer"],
            "uniform" => &["kind", "p_gen", "p_con"],
            "moving-hotspot" => &["kind", "period", "p_con"],
            "split" => &["kind", "swap_every"],
            "sparse-phase" => &["kind", "work", "gap"],
            "sparse-hotspot" => &["kind", "period", "consumer_gap"],
            "sparse-bursty" => &["kind", "burst", "quiet", "quiet_gap"],
            "sparse-arrivals" => &["kind", "arrival_gap", "service_gap"],
            _ => &["kind"],
        };
        dlb_json::reject_unknown(value, allowed)?;
        match kind {
            "phase" => Ok(WorkloadConfig::Phase {
                g: pair(value, "g", default_g())?,
                c: pair(value, "c", default_cc())?,
                len: pair(value, "len", default_len())?,
            }),
            "one-producer" => Ok(WorkloadConfig::OneProducer {
                producer: dlb_json::field_or(value, "producer", 0)?,
            }),
            "uniform" => Ok(WorkloadConfig::Uniform {
                p_gen: dlb_json::req(value, "p_gen")?,
                p_con: dlb_json::req(value, "p_con")?,
            }),
            "moving-hotspot" => Ok(WorkloadConfig::MovingHotspot {
                period: dlb_json::req(value, "period")?,
                p_con: dlb_json::req(value, "p_con")?,
            }),
            "split" => Ok(WorkloadConfig::Split {
                swap_every: dlb_json::req(value, "swap_every")?,
            }),
            "sparse-phase" => Ok(WorkloadConfig::Sparse {
                pattern: SparsePattern::Phase {
                    work: dlb_json::field_or(value, "work", 1)?,
                    gap: pair(value, "gap", (50, 150))?,
                },
            }),
            "sparse-hotspot" => Ok(WorkloadConfig::Sparse {
                pattern: SparsePattern::Hotspot {
                    period: dlb_json::req(value, "period")?,
                    consumer_gap: dlb_json::req(value, "consumer_gap")?,
                },
            }),
            "sparse-bursty" => Ok(WorkloadConfig::Sparse {
                pattern: SparsePattern::Bursty {
                    burst: dlb_json::req(value, "burst")?,
                    quiet: dlb_json::req(value, "quiet")?,
                    quiet_gap: dlb_json::req(value, "quiet_gap")?,
                },
            }),
            "sparse-arrivals" => Ok(WorkloadConfig::Sparse {
                pattern: SparsePattern::Arrivals {
                    arrival_gap: dlb_json::req(value, "arrival_gap")?,
                    service_gap: dlb_json::req(value, "service_gap")?,
                },
            }),
            other => Err(format!("unknown workload kind {other:?}")),
        }
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        let mut obj = vec![
            ("n".to_string(), self.n.to_json()),
            ("steps".to_string(), self.steps.to_json()),
            ("runs".to_string(), self.runs.to_json()),
            ("seed".to_string(), self.seed.to_json()),
            (
                "warmup_fraction".to_string(),
                self.warmup_fraction.to_json(),
            ),
            ("strategy".to_string(), self.strategy.to_json()),
            ("workload".to_string(), self.workload.to_json()),
        ];
        if !self.balancer.is_empty() {
            obj.push(("balancer".to_string(), self.balancer.to_json()));
        }
        if let Some(faults) = &self.faults {
            obj.push(("faults".to_string(), faults.to_json()));
        }
        if let Some(trace) = &self.trace {
            obj.push(("trace".to_string(), Json::Str(trace.clone())));
        }
        Json::Obj(obj)
    }
}

impl FromJson for Scenario {
    fn from_json(value: &Json) -> Result<Self, String> {
        dlb_json::reject_unknown(
            value,
            &[
                "n",
                "steps",
                "runs",
                "seed",
                "warmup_fraction",
                "strategy",
                "workload",
                "balancer",
                "faults",
                "trace",
            ],
        )?;
        let faults = match value.get("faults") {
            None | Some(Json::Null) => None,
            Some(v) => Some(FaultPlan::from_json(v).map_err(|e| format!("faults: {e}"))?),
        };
        let trace = match value.get("trace") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("trace must be a string path")?.to_string()),
        };
        Ok(Scenario {
            n: dlb_json::req(value, "n")?,
            steps: dlb_json::req(value, "steps")?,
            runs: dlb_json::field_or(value, "runs", default_runs())?,
            seed: dlb_json::field_or(value, "seed", 0)?,
            warmup_fraction: dlb_json::field_or(value, "warmup_fraction", default_warmup())?,
            strategy: dlb_json::req(value, "strategy")?,
            workload: dlb_json::req(value, "workload")?,
            balancer: dlb_json::field_or(value, "balancer", Vec::new())?,
            faults,
            trace,
        })
    }
}

impl Scenario {
    /// Parses a scenario from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let scenario: Scenario = FromJson::from_json(&Json::parse(text)?)?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).render_pretty()
    }

    /// Checks cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err("need at least 2 processors".into());
        }
        if self.steps == 0 || self.runs == 0 {
            return Err("steps and runs must be positive".into());
        }
        if !(0.0..1.0).contains(&self.warmup_fraction) {
            return Err("warmup_fraction must lie in [0, 1)".into());
        }
        let all = std::iter::once(&self.strategy).chain(&self.balancer);
        for (i, strategy) in all.enumerate() {
            if let StrategyConfig::Full { delta, .. } | StrategyConfig::FullDense { delta, .. } =
                strategy
            {
                dlb_core::check_full_group(*delta).map_err(|e| match i {
                    0 => format!("strategy.delta: {e}"),
                    _ => format!("balancer[{}].delta: {e}", i - 1),
                })?;
            }
        }
        for strategy in std::iter::once(&self.strategy).chain(&self.balancer) {
            if let StrategyConfig::Weighted { speeds, .. } = strategy {
                if speeds.len() != self.n {
                    return Err(format!(
                        "weighted strategy needs {} speeds, got {}",
                        self.n,
                        speeds.len()
                    ));
                }
            }
        }
        if !self.balancer.is_empty() {
            for strategy in std::iter::once(&self.strategy).chain(&self.balancer) {
                if matches!(strategy, StrategyConfig::Async { .. }) {
                    return Err("the balancer league runs synchronous steps; \
                         \"async\" cannot be a league contender"
                        .into());
                }
            }
        }
        if let WorkloadConfig::Sparse { pattern } = &self.workload {
            pattern.validate().map_err(|e| format!("workload: {e}"))?;
        }
        if let Some(faults) = &self.faults {
            faults
                .validate(self.n)
                .map_err(|e| format!("faults: {e}"))?;
        }
        Ok(())
    }

    /// The built-in demo scenario (paper §7 on 64 processors).
    pub fn demo() -> Self {
        Scenario {
            n: 64,
            steps: 500,
            runs: 10,
            seed: 42,
            warmup_fraction: 0.2,
            strategy: StrategyConfig::Simple { delta: 1, f: 1.1 },
            workload: WorkloadConfig::Phase {
                g: default_g(),
                c: default_cc(),
                len: default_len(),
            },
            balancer: Vec::new(),
            faults: None,
            trace: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_faults::{CrashEvent, CrashMode};

    #[test]
    fn demo_roundtrips() {
        let demo = Scenario::demo();
        let json = demo.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(demo, back);
    }

    #[test]
    fn minimal_json_with_defaults() {
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"}
        }"#;
        let s = Scenario::from_json(text).unwrap();
        assert_eq!(s.runs, 10, "default runs");
        assert_eq!(s.seed, 0, "default seed");
        assert!(matches!(
            s.workload,
            WorkloadConfig::OneProducer { producer: 0 }
        ));
        assert_eq!(s.faults, None, "no faults by default");
    }

    #[test]
    fn validation_errors() {
        let mut s = Scenario::demo();
        s.n = 1;
        assert!(s.validate().is_err());
        let mut s = Scenario::demo();
        s.strategy = StrategyConfig::Weighted {
            delta: 1,
            f: 1.1,
            speeds: vec![1, 2],
        };
        assert!(s.validate().unwrap_err().contains("speeds"));
        let mut s = Scenario::demo();
        s.faults = Some(FaultPlan {
            loss: 2.0,
            ..FaultPlan::default()
        });
        assert!(s.validate().unwrap_err().contains("faults"));
        assert!(Scenario::from_json("{").is_err());
        let mut s = Scenario::demo();
        s.balancer = vec![StrategyConfig::Full {
            delta: 63,
            f: 1.1,
            c: 4,
        }];
        assert!(s.validate().is_ok(), "delta = 63 fills a group of 64");
        s.balancer[0] = StrategyConfig::Full {
            delta: 64,
            f: 1.1,
            c: 4,
        };
        assert!(s.validate().unwrap_err().starts_with("balancer[0].delta: "));
    }

    #[test]
    fn trace_field_roundtrips_and_defaults_to_none() {
        let mut s = Scenario::demo();
        assert_eq!(s.trace, None);
        assert!(!s.to_json().contains("trace"), "omitted when None");
        s.trace = Some("out/trace.jsonl".to_string());
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back.trace.as_deref(), Some("out/trace.jsonl"));
    }

    #[test]
    fn all_strategy_kinds_parse() {
        for kind in [
            r#"{"kind": "full", "delta": 2, "f": 1.3}"#,
            r#"{"kind": "full-dense", "delta": 2, "f": 1.3, "c": 4}"#,
            r#"{"kind": "simple", "delta": 1, "f": 1.1}"#,
            r#"{"kind": "async", "delta": 2, "f": 1.3, "latency": 8}"#,
            r#"{"kind": "async", "delta": 2, "f": 1.3}"#,
            r#"{"kind": "topo", "delta": 1, "f": 1.1, "topology": {"kind": "ring"}, "neighbors_only": true}"#,
            r#"{"kind": "rsu91"}"#,
            r#"{"kind": "work-stealing"}"#,
            r#"{"kind": "random-scatter"}"#,
            r#"{"kind": "gradient", "topology": {"kind": "hypercube", "dim": 3}, "low": 2, "high": 8}"#,
            r#"{"kind": "diffusion", "topology": {"kind": "ring"}, "alpha": 0.25}"#,
            r#"{"kind": "quasirandom", "topology": {"kind": "hypercube", "dim": 3}}"#,
            r#"{"kind": "dynamic-averaging", "topology": {"kind": "complete"}}"#,
            r#"{"kind": "locally-optimal", "topology": {"kind": "torus", "w": 2, "h": 4}}"#,
            r#"{"kind": "dimension-exchange", "topology": {"kind": "ring"}}"#,
            r#"{"kind": "none"}"#,
        ] {
            let value = Json::parse(kind).unwrap();
            let parsed = StrategyConfig::from_json(&value);
            assert!(parsed.is_ok(), "{kind}: {parsed:?}");
        }
    }

    #[test]
    fn unknown_keys_rejected_with_key_path() {
        // Top level.
        let text = r#"{
            "n": 8, "steps": 100, "stepz": 1,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("\"stepz\""), "{err}");

        // Nested: the wrapping `field '...'` context forms the key path.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2, "partners": 3},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'strategy'"), "{err}");
        assert!(err.contains("\"partners\""), "{err}");

        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "simple", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer", "producers": 2}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'workload'"), "{err}");
        assert!(err.contains("\"producers\""), "{err}");

        // Three levels deep: strategy -> topology.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "topo", "delta": 1, "f": 1.2,
                         "topology": {"kind": "hypercube", "dim": 3, "w": 2}},
            "workload": {"kind": "one-producer"}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("field 'strategy'"), "{err}");
        assert!(err.contains("field 'topology'"), "{err}");
        assert!(err.contains("\"w\""), "{err}");

        // Fault plans are strict too.
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "async", "delta": 1, "f": 1.2},
            "workload": {"kind": "one-producer"},
            "faults": {"loss": 0.1, "crashes": [{"proc": 1, "at": 5, "rejoin": 9}]}
        }"#;
        let err = Scenario::from_json(text).unwrap_err();
        assert!(err.contains("faults"), "{err}");
        assert!(err.contains("\"rejoin\""), "{err}");
    }

    #[test]
    fn balancer_list_roundtrips_and_defaults_to_empty() {
        let mut s = Scenario::demo();
        assert!(s.balancer.is_empty());
        assert!(!s.to_json().contains("balancer"), "omitted when empty");
        s.balancer = vec![
            StrategyConfig::Quasirandom {
                topology: TopologyConfig::Hypercube { dim: 6 },
            },
            StrategyConfig::None,
        ];
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn async_cannot_enter_the_league() {
        let mut s = Scenario::demo();
        s.balancer = vec![StrategyConfig::Async {
            delta: 1,
            f: 1.1,
            latency: 4,
        }];
        assert!(s.validate().unwrap_err().contains("async"));
        // Async as the primary strategy is still fine without a league.
        let mut s = Scenario::demo();
        s.strategy = StrategyConfig::Async {
            delta: 1,
            f: 1.1,
            latency: 4,
        };
        assert!(s.validate().is_ok());
    }

    #[test]
    fn async_latency_defaults() {
        let value = Json::parse(r#"{"kind": "async", "delta": 1, "f": 1.2}"#).unwrap();
        let parsed = StrategyConfig::from_json(&value).unwrap();
        assert_eq!(
            parsed,
            StrategyConfig::Async {
                delta: 1,
                f: 1.2,
                latency: 4
            }
        );
    }

    #[test]
    fn faults_section_parses_and_roundtrips() {
        let text = r#"{
            "n": 8, "steps": 100,
            "strategy": {"kind": "async", "delta": 2, "f": 1.3},
            "workload": {"kind": "uniform", "p_gen": 0.5, "p_con": 0.3},
            "faults": {
                "loss": 0.1,
                "jitter": 2,
                "crash_mode": "frozen",
                "crashes": [{"proc": 3, "at": 50, "recover_at": 80}]
            }
        }"#;
        let s = Scenario::from_json(text).unwrap();
        let plan = s.faults.clone().expect("faults parsed");
        assert_eq!(plan.loss, 0.1);
        assert_eq!(plan.jitter, 2);
        assert_eq!(plan.crash_mode, CrashMode::Frozen);
        assert_eq!(
            plan.crashes,
            vec![CrashEvent {
                proc: 3,
                at: 50,
                recover_at: Some(80)
            }]
        );
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
    }

    /// Every committed scenario file must parse under the strict
    /// (unknown-key-rejecting) loaders — `service_*.json` through the
    /// serving loader, everything else through [`Scenario`].  A stray
    /// or misspelled key in any shipped file fails here, not at a
    /// user's command line.
    #[test]
    fn every_committed_scenario_file_parses_strictly() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
            let path = entry.expect("dir entry").path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            seen += 1;
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("readable scenario");
            if name.starts_with("service_") {
                dlb_serve::ServiceScenario::parse(&text)
                    .unwrap_or_else(|e| panic!("scenarios/{name}: {e}"));
            } else {
                Scenario::from_json(&text).unwrap_or_else(|e| panic!("scenarios/{name}: {e}"));
            }
        }
        assert!(seen >= 6, "expected the committed scenario set, saw {seen}");
    }
}
