//! In-process, span-traced replay of the perfbench workloads.
//!
//! ```text
//! perfbench-harness run <scenario.json> --report <out.txt> --spans <out.jsonl> [--trace <out.jsonl>]
//! perfbench-harness serve <scenario.json> --stats <out.json> --spans <out.jsonl>
//! ```
//!
//! `run` repeats what `dlb run` does for a `full`-strategy scenario —
//! the same seeds (`stream_seed`), the same engine entry points, the
//! same report arithmetic — with a span (name, start, end, parent)
//! around every call into a layer.  `serve` calls `run_sim` and then
//! replays the same arrival stream through the generator, the router
//! and the latency histogram on their own.  Both write the reproduced
//! output (report text or stats JSON) so the caller can compare it
//! byte for byte with the binary's, write every span as JSONL once the
//! work is done, and print one JSON object: the per-layer metrics plus
//! the main pass's wall time.
//!
//! The harness calls the engines' own API, so an engine API change has
//! to be carried into this file; the end-to-end measurements do not use
//! it (they need only the `dlb` binary and `perfbench/tools`).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dlb_core::{Cluster, LoadBalancer, LoadRecorder, Metrics, Params};
use dlb_experiments::{stream_seed, StreamId};
use dlb_faults::{FaultInjector, FaultPlan};
use dlb_json::Json;
use dlb_serve::{run_sim, LatencyHistogram, ServiceScenario, TriggerRouter};
use dlb_trace::{BufferSink, FileSink, TraceEvent, TraceSink};
use dlb_workload::service::{Request, RequestSource};
use dlb_workload::sparse::SparseWorkload;
use dlb_workload::Workload;
use perfbench_tools::{is_active, RunWork, Work};

const USAGE: &str = "usage: perfbench-harness <run|serve> <scenario.json> [options]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match (args.first().map(String::as_str), args.get(1)) {
        (Some("run"), Some(path)) => cmd_run(path, &args[2..]),
        (Some("serve"), Some(path)) => cmd_serve(path, &args[2..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}

/// The value following `flag` in `rest`, if the flag is present.
fn option<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(rest: &'a [String], flag: &str) -> Result<&'a str, String> {
    option(rest, flag).ok_or_else(|| format!("missing {flag} <path>"))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

const NO_PARENT: usize = usize::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
}

/// Totals of every span with one name inside one pass.
#[derive(Default, Clone, Copy)]
struct Agg {
    total_ns: u64,
    self_ns: u64,
}

/// In-memory span recorder.  Spans nest through an explicit stack of
/// open spans; nothing is written until [`Tracer::write_jsonl`].
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one; returns its id.
    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Whether span `id` is `root` or lies below it.
    fn within(&self, mut id: usize, root: usize) -> bool {
        while id != NO_PARENT {
            if id == root {
                return true;
            }
            id = self.spans[id].parent;
        }
        false
    }

    /// Per-name total and self time (span time minus the time
    /// its direct children cover) over the spans below `root`.
    fn summary(&self, root: usize) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent != NO_PARENT {
                child_ns[span.parent] += self.duration_ns(id);
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if !self.within(id, root) {
                continue;
            }
            let agg = out.entry(span.name).or_default();
            agg.total_ns += self.duration_ns(id);
            agg.self_ns += self.duration_ns(id).saturating_sub(child_ns[id]);
        }
        out
    }

    /// Durations of every span named `name` below `root`.
    fn durations(&self, name: &str, root: usize) -> Vec<u64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name && self.within(id, root))
            .map(|id| self.duration_ns(id))
            .collect()
    }

    fn write_jsonl(&self, path: &str) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 64);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            text.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}\n",
                span.name, span.start_ns, span.end_ns
            ));
        }
        write(path, &text)
    }
}

fn total_ns(summary: &BTreeMap<&'static str, Agg>, name: &str) -> u64 {
    summary.get(name).map_or(0, |a| a.total_ns)
}

fn self_ns(summary: &BTreeMap<&'static str, Agg>, name: &str) -> u64 {
    summary.get(name).map_or(0, |a| a.self_ns)
}

/// Nearest-rank quantile of `values` (sorted in place).
fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

// ---------------------------------------------------------------------
// Output: every per-layer metric, zero where a workload has no such layer
// ---------------------------------------------------------------------

/// Every per-layer metric the harness reports, in output order.
const METRICS: &[&str] = &[
    "workload.ns_per_event",
    "workload.active_frac",
    "engine.ns_per_event",
    "engine.step_p50_us",
    "engine.step_p99_us",
    "engine.balance_ops",
    "engine.class_balance_ops",
    "engine.packets_migrated",
    "engine.markers_migrated",
    "engine.total_borrow",
    "engine.remote_borrow",
    "engine.borrow_fail",
    "engine.decrease_sim",
    "engine.messages",
    "engine.consume_blocked",
    "engine.consume_failed",
    "engine.ops_per_event",
    "engine.packets_per_op",
    "engine.state_bytes_per_proc",
    "setup.engine_s",
    "setup.workload_s",
    "observe.ns_per_step",
    "trace.events",
    "trace.bytes",
    "trace.engine_ns_per_event",
    "trace.write_ns_per_event",
    "serve.gen_ns_per_req",
    "serve.sim_ns_per_req",
    "router.ns_per_req",
    "hist.ns_per_record",
    "serve.rebalances_per_req",
    "serve.redirects_per_req",
    "serve.issued",
    "serve.completed",
    "serve.dropped",
    "serve.in_flight",
    "share.setup",
    "share.workload",
    "share.engine",
    "share.observe",
    "share.trace",
    "share.serve_gen",
    "share.serve_sim",
    "share.other",
];

struct Output {
    values: BTreeMap<&'static str, f64>,
    /// Wall time of the pass that does what the binary does.
    main_pass_s: f64,
    /// Heap bytes of the engine state at the end of the last run.
    state_bytes: u64,
}

impl Output {
    fn new() -> Self {
        Output {
            values: METRICS.iter().map(|&m| (m, 0.0)).collect(),
            main_pass_s: 0.0,
            state_bytes: 0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.values.contains_key(name), "unlisted metric {name}");
        self.values.insert(name, value);
    }

    fn render(&self) -> Result<String, String> {
        let mut fields = Vec::new();
        for &name in METRICS {
            let v = self.values[name];
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            fields.push(format!("\"{name}\":{v}"));
        }
        Ok(format!(
            "{{\"metrics\":{{{}}},\"main_pass_s\":{},\"state_bytes\":{}}}",
            fields.join(","),
            self.main_pass_s,
            self.state_bytes
        ))
    }
}

// ---------------------------------------------------------------------
// `dlb run` scenarios (the `full` strategy on a phase or sparse-phase
// workload, optionally with a crash plan)
// ---------------------------------------------------------------------

struct RunScenario {
    work: RunWork,
    warmup_fraction: f64,
    delta: usize,
    f: f64,
    c: usize,
    faults: Option<FaultPlan>,
}

/// Reads the subset of the `dlb run` scenario format the benchmark's
/// scenario files use, with `dlb run`'s defaults.
fn parse_run_scenario(text: &str) -> Result<RunScenario, String> {
    let value = Json::parse(text)?;
    let strategy = dlb_json::field(&value, "strategy")?;
    if strategy.get("kind").and_then(Json::as_str) != Some("full") {
        return Err("the harness replays the \"full\" strategy only".into());
    }
    let faults = match value.get("faults") {
        None | Some(Json::Null) => None,
        Some(v) => Some(dlb_json::FromJson::from_json(v)?),
    };
    Ok(RunScenario {
        work: RunWork::parse(&value)?,
        warmup_fraction: dlb_json::field_or(&value, "warmup_fraction", 0.2)?,
        delta: dlb_json::req(strategy, "delta")?,
        f: dlb_json::req(strategy, "f")?,
        c: dlb_json::req(strategy, "c")?,
        faults,
    })
}

/// The fault plan of run `r`, re-seeded per run as `dlb run` does.
fn plan_for_run(sc: &RunScenario, r: usize) -> Option<FaultPlan> {
    sc.faults.as_ref().map(|plan| {
        let mut plan = plan.clone();
        plan.seed = stream_seed(plan.seed, r as u64, StreamId::Faults);
        plan
    })
}

/// Crash masks recomputed only when a crash or rejoin fires, as in
/// `dlb run` (a full `mask_at` per step would cost O(n)).
struct MaskCache {
    boundaries: Vec<u64>,
    next: usize,
    mask: Vec<bool>,
}

impl MaskCache {
    fn new(injector: &FaultInjector) -> Self {
        let mut boundaries: Vec<u64> = injector
            .crashes()
            .iter()
            .flat_map(|c| [Some(c.at), c.recover_at])
            .flatten()
            .collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        MaskCache {
            boundaries,
            next: 0,
            mask: Vec::new(),
        }
    }

    fn at(&mut self, injector: &FaultInjector, t: u64) -> &[bool] {
        let mut crossed = false;
        while self.next < self.boundaries.len() && self.boundaries[self.next] <= t {
            self.next += 1;
            crossed = true;
        }
        if crossed || self.mask.is_empty() {
            self.mask = injector.mask_at(t);
        }
        &self.mask
    }
}

/// What one pass over all runs of a scenario produced.
struct PassResult {
    report: String,
    active_events: u64,
    metrics: Metrics,
    state_bytes: u64,
    trace_events: u64,
    trace_bytes: u64,
}

/// One pass over every run of the scenario, exactly as `dlb run`
/// executes it sequentially; with `trace_path` the engine gets a trace
/// sink and the events are written there afterwards.
fn run_pass(
    tr: &mut Tracer,
    sc: &RunScenario,
    trace_path: Option<&str>,
) -> Result<PassResult, String> {
    let tracing = trace_path.is_some();
    let mut merged = LoadRecorder::new(0, 3.0);
    let mut strategy = String::new();
    let (mut ops, mut migrated) = (0.0, 0.0);
    let mut final_total = 0;
    let mut totals = Metrics::default();
    let mut active_events = 0u64;
    let mut state_bytes = 0u64;
    let mut trace_events: Vec<TraceEvent> = Vec::new();
    for r in 0..sc.work.runs {
        tr.enter("run");
        let seed = stream_seed(sc.work.seed, r as u64, StreamId::Balancer);
        let params = Params::new(sc.work.n, sc.delta, sc.f, sc.c).map_err(|e| e.to_string())?;
        let mut cluster = tr.time("setup.engine", || Cluster::new(params, seed));
        let mut work = tr.time("setup.workload", || sc.work.build(r));
        let warmup = (sc.work.steps as f64 * sc.warmup_fraction) as usize;
        let mut recorder = LoadRecorder::new(warmup, 3.0);
        let buf = BufferSink::new();
        let run_sink = buf.handle();
        let balancer: &mut dyn LoadBalancer = &mut cluster;
        if tracing {
            tr.time("trace.emit", || {
                run_sink.record(&TraceEvent::RunStarted {
                    run: r as u64,
                    seed,
                    n: sc.work.n as u64,
                    strategy: balancer.name().to_string(),
                    delta: sc.delta as u64,
                    f: sc.f,
                    c: sc.c as u64,
                })
            });
            balancer.set_trace_sink(buf.handle());
        }
        let injector = match plan_for_run(sc, r) {
            Some(plan) => Some(FaultInjector::new(plan, sc.work.n)?),
            None => None,
        };
        let mut masks = injector.as_ref().map(MaskCache::new);
        let mut events = Vec::new();
        let mut active = Vec::new();
        for t in 0..sc.work.steps {
            let mask = match (&injector, masks.as_mut()) {
                (Some(inj), Some(cache)) => {
                    tr.enter("faults.mask");
                    let mask = cache.at(inj, t as u64);
                    tr.exit();
                    Some(mask)
                }
                _ => None,
            };
            match &mut work {
                Work::Sparse(w) => {
                    tr.time("workload", || w.active_at(t, &mut active));
                    active_events += active.len() as u64;
                    tr.time("engine", || match mask {
                        Some(mask) => balancer.step_sparse_masked(&active, mask),
                        None => balancer.step_sparse(&active),
                    });
                }
                Work::Dense(w) => {
                    tr.time("workload", || w.events_at(t, &mut events));
                    active_events += events.iter().filter(|e| is_active(e)).count() as u64;
                    tr.time("engine", || match mask {
                        Some(mask) => balancer.step_masked(&events, mask),
                        None => balancer.step(&events),
                    });
                }
            }
            tr.enter("observe");
            let summary = balancer.load_summary();
            recorder.record_summary(summary, sc.work.n);
            tr.exit();
            if tracing {
                tr.time("trace.emit", || {
                    run_sink.record(&TraceEvent::LoadSample {
                        step: t as u64,
                        min: summary.min,
                        max: summary.max,
                        total: summary.total,
                    })
                });
            }
        }
        if tracing {
            tr.time("trace.emit", || {
                run_sink.record(&TraceEvent::RunFinished { run: r as u64 })
            });
        }
        tr.enter("report");
        merged.merge(&recorder);
        strategy = balancer.name().to_string();
        let m = *balancer.metrics();
        ops += m.balance_ops as f64;
        migrated += m.packets_migrated as f64;
        totals += m;
        final_total = balancer.loads().iter().sum();
        tr.exit();
        state_bytes = cluster.state_bytes() as u64;
        trace_events.extend(buf.take());
        tr.exit();
    }
    let (mut trace_count, mut trace_bytes) = (0, 0);
    if let Some(path) = trace_path {
        tr.enter("trace.write");
        let mut sink = FileSink::create(Path::new(path))
            .map_err(|e| format!("cannot create trace {path}: {e}"))?;
        for ev in &trace_events {
            sink.record(ev);
        }
        sink.flush();
        tr.exit();
        trace_count = trace_events.len() as u64;
        trace_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    }
    let report = tr.time("report", || {
        format!(
            "strategy        {}\n\
             mean max/mean   {:.3}\n\
             p95 max/mean    {:.3}\n\
             worst max/mean  {:.3}\n\
             ops/run         {:.1}\n\
             migrated/run    {:.1}\n\
             final total     {}",
            strategy,
            merged.mean_ratio(),
            merged.ratio_quantile(0.95),
            merged.worst_ratio(),
            ops / sc.work.runs as f64,
            migrated / sc.work.runs as f64,
            final_total
        )
    });
    Ok(PassResult {
        report,
        active_events,
        metrics: totals,
        state_bytes,
        trace_events: trace_count,
        trace_bytes,
    })
}

fn cmd_run(path: &str, rest: &[String]) -> Result<String, String> {
    let sc = parse_run_scenario(&read(path)?)?;
    let report_out = required(rest, "--report")?;
    let spans_out = required(rest, "--spans")?;
    let trace_out = option(rest, "--trace");
    let mut tr = Tracer::new();

    // With a trace, an untraced reference pass first: the engine's
    // self time with and without the sink attached isolates the cost
    // of emitting events from inside the engine.
    let reference = match trace_out {
        Some(_) => {
            let id = tr.enter("pass.reference");
            let pass = run_pass(&mut tr, &sc, None)?;
            tr.exit();
            Some((id, pass))
        }
        None => None,
    };
    let main_id = tr.enter("pass.main");
    let main = run_pass(&mut tr, &sc, trace_out)?;
    tr.exit();
    if let Some((_, pass)) = &reference {
        if pass.report != main.report {
            return Err("the traced and untraced passes disagree".into());
        }
    }
    write(report_out, &main.report)?;
    tr.write_jsonl(spans_out)?;

    let s = tr.summary(main_id);
    let main_ns = tr.duration_ns(main_id) as f64;
    let events = main.active_events as f64;
    let steps = (sc.work.steps * sc.work.runs) as f64;
    let m = &main.metrics;
    let mut out = Output::new();
    out.main_pass_s = main_ns / 1e9;
    out.state_bytes = main.state_bytes;
    out.set(
        "workload.ns_per_event",
        ratio(total_ns(&s, "workload") as f64, events),
    );
    out.set(
        "workload.active_frac",
        ratio(events, steps * sc.work.n as f64),
    );
    out.set(
        "engine.ns_per_event",
        ratio(self_ns(&s, "engine") as f64, events),
    );
    let mut step_ns = tr.durations("engine", main_id);
    out.set(
        "engine.step_p50_us",
        quantile(&mut step_ns, 0.50) as f64 / 1e3,
    );
    out.set(
        "engine.step_p99_us",
        quantile(&mut step_ns, 0.99) as f64 / 1e3,
    );
    for (name, value) in [
        ("engine.balance_ops", m.balance_ops),
        ("engine.class_balance_ops", m.class_balance_ops),
        ("engine.packets_migrated", m.packets_migrated),
        ("engine.markers_migrated", m.markers_migrated),
        ("engine.total_borrow", m.total_borrow),
        ("engine.remote_borrow", m.remote_borrow),
        ("engine.borrow_fail", m.borrow_fail),
        ("engine.decrease_sim", m.decrease_sim),
        ("engine.messages", m.messages),
        ("engine.consume_blocked", m.consume_blocked),
        ("engine.consume_failed", m.consume_failed),
    ] {
        out.set(name, value as f64);
    }
    out.set("engine.ops_per_event", ratio(m.balance_ops as f64, events));
    out.set(
        "engine.packets_per_op",
        ratio(m.packets_migrated as f64, m.balance_ops as f64),
    );
    out.set(
        "engine.state_bytes_per_proc",
        main.state_bytes as f64 / sc.work.n as f64,
    );
    out.set(
        "setup.engine_s",
        total_ns(&s, "setup.engine") as f64 / 1e9 / sc.work.runs as f64,
    );
    out.set(
        "setup.workload_s",
        total_ns(&s, "setup.workload") as f64 / 1e9 / sc.work.runs as f64,
    );
    out.set(
        "observe.ns_per_step",
        ratio(total_ns(&s, "observe") as f64, steps),
    );
    if let Some((ref_id, _)) = reference {
        let r = tr.summary(ref_id);
        out.set("trace.events", main.trace_events as f64);
        out.set("trace.bytes", main.trace_bytes as f64);
        out.set(
            "trace.engine_ns_per_event",
            ratio(
                self_ns(&s, "engine") as f64 - self_ns(&r, "engine") as f64,
                events,
            ),
        );
        out.set(
            "trace.write_ns_per_event",
            ratio(total_ns(&s, "trace.write") as f64, events),
        );
    }
    let share = |names: &[&str]| names.iter().map(|n| self_ns(&s, n) as f64).sum::<f64>() / main_ns;
    let shares = [
        ("share.setup", share(&["setup.engine", "setup.workload"])),
        ("share.workload", share(&["workload"])),
        ("share.engine", share(&["engine"])),
        ("share.observe", share(&["observe"])),
        ("share.trace", share(&["trace.emit", "trace.write"])),
    ];
    let mut other = 1.0;
    for (name, value) in shares {
        out.set(name, value);
        other -= value;
    }
    out.set("share.other", other);
    out.render()
}

// ---------------------------------------------------------------------
// `dlb serve --mode sim`
// ---------------------------------------------------------------------

/// Ticks generated, routed and recorded per span in the layer replay.
const REPLAY_CHUNK: u64 = 1000;

fn cmd_serve(path: &str, rest: &[String]) -> Result<String, String> {
    let scenario = ServiceScenario::parse(&read(path)?)?;
    let stats_out = required(rest, "--stats")?;
    let spans_out = required(rest, "--spans")?;
    let mut tr = Tracer::new();

    let main_id = tr.enter("pass.main");
    let stats = tr.time("serve.run_sim", || run_sim(&scenario, None))?;
    tr.exit();
    let mut rendered = dlb_json::ToJson::to_json(&stats).render_pretty();
    rendered.push('\n');
    write(stats_out, &rendered)?;

    // Layer replay: the same arrival stream, generated, routed and
    // recorded in chunks, each layer under its own span.  The replay
    // serves every shard at a fixed cadence of the mean service time
    // and ignores the fault plan; it exists to time the router and the
    // histogram on their own, not to reproduce `run_sim`.
    let layers_id = tr.enter("pass.layers");
    let load = &scenario.load;
    let mut source = RequestSource::new(load.clone(), scenario.seed);
    let mut router =
        TriggerRouter::new(scenario.shards, scenario.delta, scenario.f, scenario.seed)?;
    let mut hist = LatencyHistogram::new();
    let period = (load.service_ticks.0 + load.service_ticks.1)
        .div_ceil(2)
        .max(1);
    let shards = scenario.shards as u64;
    let (mut batch, mut chunk, mut per_tick, mut samples) =
        (Vec::new(), Vec::<Request>::new(), Vec::new(), Vec::new());
    let mut t = 0;
    while t < scenario.ticks {
        let end = (t + REPLAY_CHUNK).min(scenario.ticks);
        chunk.clear();
        per_tick.clear();
        tr.enter("serve.gen");
        for tick in t..end {
            batch.clear();
            source.arrivals_at(tick, &mut batch);
            chunk.extend_from_slice(&batch);
            per_tick.push(batch.len());
        }
        tr.exit();
        tr.enter("router.replay");
        let mut next = 0;
        for (tick, &count) in (t..end).zip(&per_tick) {
            for r in &chunk[next..next + count] {
                if let Some(s) = router.place(r.key) {
                    router.note_enqueue(s);
                    samples.push(router.depth(s) * period + r.service);
                }
            }
            next += count;
            let mut s = (period - tick % period) % period;
            while s < shards {
                if router.depth(s as usize) > 0 {
                    router.note_dequeue(s as usize);
                }
                s += period;
            }
        }
        tr.exit();
        tr.time("hist.record", || {
            for &v in &samples {
                hist.record(v);
            }
        });
        samples.clear();
        t = end;
    }
    tr.exit();
    tr.write_jsonl(spans_out)?;
    if source.issued() != stats.issued {
        return Err(format!(
            "replay issued {} requests, run_sim {}",
            source.issued(),
            stats.issued
        ));
    }

    let main = tr.summary(main_id);
    let layers = tr.summary(layers_id);
    let issued = stats.issued as f64;
    let sim_ns = total_ns(&main, "serve.run_sim") as f64;
    let gen_ns = total_ns(&layers, "serve.gen") as f64;
    let mut out = Output::new();
    out.main_pass_s = tr.duration_ns(main_id) as f64 / 1e9;
    out.set("serve.gen_ns_per_req", ratio(gen_ns, issued));
    out.set("serve.sim_ns_per_req", ratio(sim_ns - gen_ns, issued));
    out.set(
        "router.ns_per_req",
        ratio(total_ns(&layers, "router.replay") as f64, issued),
    );
    out.set(
        "hist.ns_per_record",
        ratio(total_ns(&layers, "hist.record") as f64, hist.count() as f64),
    );
    out.set(
        "serve.rebalances_per_req",
        ratio(stats.rebalances as f64, issued),
    );
    out.set(
        "serve.redirects_per_req",
        ratio(stats.redirected as f64, issued),
    );
    out.set("serve.issued", issued);
    out.set("serve.completed", stats.completed as f64);
    out.set("serve.dropped", stats.dropped as f64);
    out.set("serve.in_flight", stats.in_flight as f64);
    let gen_share = ratio(gen_ns, sim_ns);
    out.set("share.serve_gen", gen_share);
    out.set("share.serve_sim", 1.0 - gen_share);
    out.render()
}
