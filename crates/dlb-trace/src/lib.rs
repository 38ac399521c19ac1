//! Structured event tracing for the dlb simulators.
//!
//! The paper's §6 results bound the *number of balancing operations*
//! needed to track a workload change, and §7's claims are time-series
//! claims — neither is observable from end-of-run aggregates alone.
//! This crate defines a typed event vocabulary ([`TraceEvent`]), a
//! pluggable consumer trait ([`TraceSink`]) and stock sinks:
//!
//! * [`NullSink`] — reports itself disabled so emitters skip event
//!   construction entirely; attaching it costs one branch per site.
//! * [`RingSink`] — keeps the last `cap` events in memory.
//! * [`FileSink`] — byte-stable JSONL: the same run always produces the
//!   same bytes, which is what lets CI diff traces across `--jobs`
//!   values.  A write error is kept and reported by
//!   [`TraceSink::finish`], never a panic.
//! * [`JsonlBuffer`] — the same JSONL bytes, collected in memory for a
//!   later in-order write; [`BufferSink`] keeps the events themselves.
//!
//! Every sink that writes JSONL encodes through one function,
//! [`TraceEvent::write_line`]: static tag and key bytes, no [`Json`]
//! tree, no intermediate `String`.
//!
//! Events carry a logical step/time so multi-threaded producers can
//! buffer locally and merge deterministically ([`merge_by_clock`]).
//!
//! The line format is versioned ([`SCHEMA_VERSION`]); parsers reject
//! lines they cannot round-trip, so the schema cannot drift silently.

use dlb_json::{req, FromJson, Json};
use std::collections::VecDeque;
use std::io::Write as _;
use std::sync::{Arc, Mutex};

/// Version of the JSONL event schema emitted by [`TraceEvent::write_line`].
///
/// Bump on any change to tags, field names or field meaning, and record
/// the change in DESIGN.md.
///
/// v2 added the per-request serving events (`req`, `req_done`,
/// `redirect`); every v1 event renders byte-identically to v1.
///
/// v3 added `handoff` (`AcceptorHandoff`): a sharded wall-mode acceptor
/// sent a rebalance donation plan to a peer acceptor's inbox; every v2
/// event renders byte-identically to v2.
///
/// v4 added `arena` (`ArenaContender`): the balancer arena announces
/// which contender the following run belongs to, making a multi-strategy
/// league trace self-describing; every v3 event renders byte-identically
/// to v3.
pub const SCHEMA_VERSION: u64 = 4;

/// One observable event in a simulation run.
///
/// `step` is the substrate's logical clock: the driver step for the
/// synchronous clusters, simulated time for the desim event loop, and
/// packets-processed for the threaded runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began; carries enough of the configuration to make the
    /// trace self-describing (`trace_analyze` rebuilds the Lemma 5/6
    /// bounds from `n`, `delta`, `f`, `c`).
    RunStarted {
        run: u64,
        seed: u64,
        n: u64,
        strategy: String,
        delta: u64,
        f: f64,
        c: u64,
    },
    /// A processor's trigger fired and it started a balancing operation
    /// with the sampled `partners`. `trigger` is the f-factor ratio
    /// (current self-generated load over the value at the last balance).
    BalanceInitiated {
        step: u64,
        initiator: u64,
        partners: Vec<u64>,
        trigger: f64,
    },
    /// `count` packets left `initiator` during one balancing operation.
    PacketsMigrated {
        step: u64,
        initiator: u64,
        count: u64,
    },
    /// `count` borrowed-packet markers moved off `initiator`.
    MarkerMoved {
        step: u64,
        initiator: u64,
        count: u64,
    },
    /// The fault injector fired: `kind` is one of `loss`,
    /// `transfer_loss`, `duplicate` or `crash`.
    FaultInjected { step: u64, proc: u64, kind: String },
    /// A crashed processor rejoined.
    CrashRecovered { step: u64, proc: u64 },
    /// Wall-clock profile of one driver step (only emitted under
    /// `--profile`; wall times are machine-dependent by nature).
    StepProfile { step: u64, wall_ns: u64, ops: u64 },
    /// Per-step increments of the engine's `Metrics` counters (zero
    /// entries omitted). Summing the deltas over a run reproduces the
    /// run's final `Metrics` exactly.
    StepDelta {
        step: u64,
        counters: Vec<(String, u64)>,
    },
    /// Load distribution snapshot after one driver step.
    LoadSample {
        step: u64,
        min: u64,
        max: u64,
        total: u64,
    },
    /// `dlb-serve`: a request was placed on a shard (`step` is the
    /// arrival tick in simulated mode, elapsed ticks in wall mode).
    RequestRouted { step: u64, req: u64, shard: u64 },
    /// `dlb-serve`: a request finished service; `latency_ticks` is
    /// measured from its *scheduled* arrival (open-loop, so queue delay
    /// under overload is charged to the service, not hidden).
    RequestCompleted {
        step: u64,
        req: u64,
        shard: u64,
        latency_ticks: u64,
    },
    /// `dlb-serve`: `count` queued requests moved between shards — a
    /// trigger-rule rebalance or a crash redistribution.  The service
    /// analogue of `PacketsMigrated`.
    RequestsRedirected {
        step: u64,
        from: u64,
        to: u64,
        count: u64,
    },
    /// `dlb-serve` wall mode: acceptor `from` handed acceptor `to` a
    /// rebalance donation plan covering `count` queued requests (0 for
    /// a pure trigger-baseline reset).  Deliveries are traced at their
    /// landing as `req`/`redirect`; this event makes the cross-group
    /// control flow itself observable.
    AcceptorHandoff {
        step: u64,
        from: u64,
        to: u64,
        count: u64,
    },
    /// Balancer arena: the following run belongs to contender `label`
    /// (its `LoadBalancer::name` is `strategy`), driven by `seed`.  Like
    /// the run delimiters it orders by position, not by step.
    ArenaContender {
        run: u64,
        label: String,
        strategy: String,
        seed: u64,
    },
    /// A run finished.
    RunFinished { run: u64 },
}

/// Writes `{"t":"<tag>","<key>":<value>,...}`: every tag and key is a
/// compile-time byte string, each value goes through the named writer.
macro_rules! jsonl {
    ($out:expr, $tag:literal $(, $key:literal => $writer:ident($value:expr))* $(,)?) => {{
        let out: &mut Vec<u8> = $out;
        out.extend_from_slice(concat!("{\"t\":\"", $tag, "\"").as_bytes());
        $(
            out.extend_from_slice(concat!(",\"", $key, "\":").as_bytes());
            $writer(out, $value);
        )*
        out.push(b'}');
    }};
}

impl TraceEvent {
    /// The logical step/time the event is anchored to (`None` for the
    /// run delimiters, which order by position instead).
    pub fn step(&self) -> Option<u64> {
        match self {
            TraceEvent::RunStarted { .. }
            | TraceEvent::ArenaContender { .. }
            | TraceEvent::RunFinished { .. } => None,
            TraceEvent::BalanceInitiated { step, .. }
            | TraceEvent::PacketsMigrated { step, .. }
            | TraceEvent::MarkerMoved { step, .. }
            | TraceEvent::FaultInjected { step, .. }
            | TraceEvent::CrashRecovered { step, .. }
            | TraceEvent::StepProfile { step, .. }
            | TraceEvent::StepDelta { step, .. }
            | TraceEvent::LoadSample { step, .. }
            | TraceEvent::RequestRouted { step, .. }
            | TraceEvent::RequestCompleted { step, .. }
            | TraceEvent::RequestsRedirected { step, .. }
            | TraceEvent::AcceptorHandoff { step, .. } => Some(*step),
        }
    }

    /// Renders the event as one compact JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = Vec::new();
        self.write_line(&mut out);
        String::from_utf8(out).expect("trace lines are UTF-8")
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`.
    ///
    /// This is the only renderer of the schema: tags and keys are static
    /// byte strings, integers are written from a stack buffer, and floats
    /// and strings go through dlb-json's own [`dlb_json::write_f64`] and
    /// [`dlb_json::write_str`], so a line is byte-identical to the
    /// compact rendering of the equivalent insertion-ordered
    /// [`Json`] object without building one.
    pub fn write_line(&self, out: &mut Vec<u8>) {
        match self {
            TraceEvent::RunStarted {
                run,
                seed,
                n,
                strategy,
                delta,
                f,
                c,
            } => jsonl!(out, "run_start",
                "run" => num(*run), "seed" => num(*seed), "n" => num(*n),
                "strategy" => text(strategy), "delta" => num(*delta),
                "f" => float(*f), "c" => num(*c)),
            TraceEvent::BalanceInitiated {
                step,
                initiator,
                partners,
                trigger,
            } => jsonl!(out, "balance",
                "step" => num(*step), "init" => num(*initiator),
                "partners" => nums(partners), "trigger" => float(*trigger)),
            TraceEvent::PacketsMigrated {
                step,
                initiator,
                count,
            } => jsonl!(out, "packets",
                "step" => num(*step), "init" => num(*initiator), "count" => num(*count)),
            TraceEvent::MarkerMoved {
                step,
                initiator,
                count,
            } => jsonl!(out, "marker",
                "step" => num(*step), "init" => num(*initiator), "count" => num(*count)),
            TraceEvent::FaultInjected { step, proc, kind } => jsonl!(out, "fault",
                "step" => num(*step), "proc" => num(*proc), "kind" => text(kind)),
            TraceEvent::CrashRecovered { step, proc } => jsonl!(out, "recover",
                "step" => num(*step), "proc" => num(*proc)),
            TraceEvent::StepProfile { step, wall_ns, ops } => jsonl!(out, "profile",
                "step" => num(*step), "wall_ns" => num(*wall_ns), "ops" => num(*ops)),
            TraceEvent::StepDelta { step, counters } => jsonl!(out, "delta",
                "step" => num(*step), "counters" => counter_obj(counters)),
            TraceEvent::LoadSample {
                step,
                min,
                max,
                total,
            } => jsonl!(out, "load",
                "step" => num(*step), "min" => num(*min), "max" => num(*max),
                "total" => num(*total)),
            TraceEvent::RequestRouted { step, req, shard } => jsonl!(out, "req",
                "step" => num(*step), "req" => num(*req), "shard" => num(*shard)),
            TraceEvent::RequestCompleted {
                step,
                req,
                shard,
                latency_ticks,
            } => jsonl!(out, "req_done",
                "step" => num(*step), "req" => num(*req), "shard" => num(*shard),
                "latency_ticks" => num(*latency_ticks)),
            TraceEvent::RequestsRedirected {
                step,
                from,
                to,
                count,
            } => jsonl!(out, "redirect",
                "step" => num(*step), "from" => num(*from), "to" => num(*to),
                "count" => num(*count)),
            TraceEvent::AcceptorHandoff {
                step,
                from,
                to,
                count,
            } => jsonl!(out, "handoff",
                "step" => num(*step), "from" => num(*from), "to" => num(*to),
                "count" => num(*count)),
            TraceEvent::ArenaContender {
                run,
                label,
                strategy,
                seed,
            } => jsonl!(out, "arena",
                "run" => num(*run), "label" => text(label),
                "strategy" => text(strategy), "seed" => num(*seed)),
            TraceEvent::RunFinished { run } => jsonl!(out, "run_end", "run" => num(*run)),
        }
    }

    /// Parses one JSONL line back into an event.
    pub fn from_line(line: &str) -> Result<TraceEvent, String> {
        let v = Json::parse(line)?;
        TraceEvent::from_json(&v)
    }
}

/// Appends the decimal digits of `v`.
fn num(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn float(out: &mut Vec<u8>, f: f64) {
    dlb_json::write_f64(out, f);
}

fn text(out: &mut Vec<u8>, s: &str) {
    dlb_json::write_str(out, s);
}

fn nums(out: &mut Vec<u8>, values: &[u64]) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        num(out, v);
    }
    out.push(b']');
}

fn counter_obj(out: &mut Vec<u8>, counters: &[(String, u64)]) {
    out.push(b'{');
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        text(out, name);
        out.push(b':');
        num(out, *v);
    }
    out.push(b'}');
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, String> {
        let tag: String = req(v, "t")?;
        match tag.as_str() {
            "run_start" => Ok(TraceEvent::RunStarted {
                run: req(v, "run")?,
                seed: req(v, "seed")?,
                n: req(v, "n")?,
                strategy: req(v, "strategy")?,
                delta: req(v, "delta")?,
                f: req(v, "f")?,
                c: req(v, "c")?,
            }),
            "balance" => Ok(TraceEvent::BalanceInitiated {
                step: req(v, "step")?,
                initiator: req(v, "init")?,
                partners: req(v, "partners")?,
                trigger: req(v, "trigger")?,
            }),
            "packets" => Ok(TraceEvent::PacketsMigrated {
                step: req(v, "step")?,
                initiator: req(v, "init")?,
                count: req(v, "count")?,
            }),
            "marker" => Ok(TraceEvent::MarkerMoved {
                step: req(v, "step")?,
                initiator: req(v, "init")?,
                count: req(v, "count")?,
            }),
            "fault" => Ok(TraceEvent::FaultInjected {
                step: req(v, "step")?,
                proc: req(v, "proc")?,
                kind: req(v, "kind")?,
            }),
            "recover" => Ok(TraceEvent::CrashRecovered {
                step: req(v, "step")?,
                proc: req(v, "proc")?,
            }),
            "profile" => Ok(TraceEvent::StepProfile {
                step: req(v, "step")?,
                wall_ns: req(v, "wall_ns")?,
                ops: req(v, "ops")?,
            }),
            "delta" => {
                let obj = dlb_json::field(v, "counters")?;
                let fields = match obj {
                    Json::Obj(fields) => fields,
                    _ => return Err("'counters' is not an object".into()),
                };
                let mut counters = Vec::with_capacity(fields.len());
                for (k, val) in fields {
                    counters.push((k.clone(), u64::from_json(val)?));
                }
                Ok(TraceEvent::StepDelta {
                    step: req(v, "step")?,
                    counters,
                })
            }
            "load" => Ok(TraceEvent::LoadSample {
                step: req(v, "step")?,
                min: req(v, "min")?,
                max: req(v, "max")?,
                total: req(v, "total")?,
            }),
            "req" => Ok(TraceEvent::RequestRouted {
                step: req(v, "step")?,
                req: req(v, "req")?,
                shard: req(v, "shard")?,
            }),
            "req_done" => Ok(TraceEvent::RequestCompleted {
                step: req(v, "step")?,
                req: req(v, "req")?,
                shard: req(v, "shard")?,
                latency_ticks: req(v, "latency_ticks")?,
            }),
            "redirect" => Ok(TraceEvent::RequestsRedirected {
                step: req(v, "step")?,
                from: req(v, "from")?,
                to: req(v, "to")?,
                count: req(v, "count")?,
            }),
            "handoff" => Ok(TraceEvent::AcceptorHandoff {
                step: req(v, "step")?,
                from: req(v, "from")?,
                to: req(v, "to")?,
                count: req(v, "count")?,
            }),
            "arena" => Ok(TraceEvent::ArenaContender {
                run: req(v, "run")?,
                label: req(v, "label")?,
                strategy: req(v, "strategy")?,
                seed: req(v, "seed")?,
            }),
            "run_end" => Ok(TraceEvent::RunFinished {
                run: req(v, "run")?,
            }),
            other => Err(format!("unknown event tag '{other}'")),
        }
    }
}

/// Consumer of trace events.
///
/// `record` takes the event by reference so a disabled sink costs no
/// clone; `enabled` lets emitters skip building events at all.
pub trait TraceSink {
    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Flushes, then reports the first I/O error the sink met, if any.
    /// Recording never fails or panics: [`FileSink`] keeps a write error
    /// until this call, so a full disk becomes an error the caller can
    /// report instead of a panic inside an engine.
    fn finish(&mut self) -> std::io::Result<()> {
        self.flush();
        Ok(())
    }

    /// Whether emitters should bother constructing events. Stock sinks
    /// return `true`; [`NullSink`] returns `false`, which is what makes
    /// "tracing disabled" a single predictable branch per site.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the most recent `cap` events in memory.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceEvent>,
}

impl RingSink {
    /// A ring holding at most `cap` events (`cap == 0` keeps none).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap,
            buf: VecDeque::new(),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Consumes the ring, returning the retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into_iter().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
    }
}

/// Streams events as JSONL to a buffered writer; one event per line,
/// byte-stable for identical event sequences.
///
/// Each event is encoded by [`TraceEvent::write_line`] into one reused
/// line buffer.  The first write error is kept, later writes are
/// skipped, and [`TraceSink::finish`] (or [`FileSink::into_inner`])
/// returns it.
pub struct FileSink<W: std::io::Write> {
    out: std::io::BufWriter<W>,
    line: Vec<u8>,
    error: Option<std::io::Error>,
}

impl FileSink<std::fs::File> {
    /// Creates (truncating) `path` and streams JSONL into it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(FileSink::from_writer(std::fs::File::create(path)?))
    }
}

impl<W: std::io::Write> FileSink<W> {
    /// Streams JSONL into an arbitrary writer (tests use `Vec<u8>`).
    pub fn from_writer(w: W) -> Self {
        FileSink {
            out: std::io::BufWriter::new(w),
            line: Vec::new(),
            error: None,
        }
    }

    /// Appends already-encoded JSONL (whole lines, as collected by a
    /// [`JsonlBuffer`]).
    pub fn write_jsonl(&mut self, jsonl: &[u8]) {
        if self.error.is_none() {
            let written = self.out.write_all(jsonl);
            self.keep(written);
        }
    }

    /// Flushes and returns the inner writer, or the first write error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.finish()?;
        self.out.into_inner().map_err(|e| e.into_error())
    }

    fn keep(&mut self, result: std::io::Result<()>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }
}

impl<W: std::io::Write> TraceSink for FileSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_none() {
            self.line.clear();
            event.write_line(&mut self.line);
            self.line.push(b'\n');
            let written = self.out.write_all(&self.line);
            self.keep(written);
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            let flushed = self.out.flush();
            self.keep(flushed);
        }
    }

    fn finish(&mut self) -> std::io::Result<()> {
        self.flush();
        self.error.take().map_or(Ok(()), Err)
    }
}

/// Cheaply cloneable, thread-safe handle to a sink.
///
/// Engines store an `Option<SharedSink>`; `enabled` is sampled once at
/// construction so the per-event hot path with a [`NullSink`] attached
/// is a branch, not a mutex acquisition.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<dyn TraceSink + Send>>,
    enabled: bool,
}

impl SharedSink {
    /// Wraps any sink in a shared handle.
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        let enabled = sink.enabled();
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
            enabled,
        }
    }

    /// Whether emitters should construct events for this sink.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event.
    pub fn record(&self, event: &TraceEvent) {
        if self.enabled {
            self.inner.lock().expect("sink lock").record(event);
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) {
        self.inner.lock().expect("sink lock").flush();
    }

    /// Flushes the underlying sink and returns its first I/O error.
    pub fn finish(&self) -> std::io::Result<()> {
        self.inner.lock().expect("sink lock").finish()
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl TraceSink for SharedSink {
    fn record(&mut self, event: &TraceEvent) {
        SharedSink::record(self, event);
    }

    fn flush(&mut self) {
        SharedSink::flush(self);
    }

    fn finish(&mut self) -> std::io::Result<()> {
        SharedSink::finish(self)
    }

    fn enabled(&self) -> bool {
        self.enabled
    }
}

/// In-memory collector whose events can be taken back out — the bridge
/// between engine-held [`SharedSink`]s and callers that inspect the
/// events afterwards.  Callers that only write them out later (e.g. runs
/// in run-index order) use the cheaper [`JsonlBuffer`].
#[derive(Clone, Default)]
pub struct BufferSink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl BufferSink {
    /// An empty collector.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// A [`SharedSink`] handle feeding this collector.
    pub fn handle(&self) -> SharedSink {
        SharedSink::new(self.clone())
    }

    /// Takes the collected events, leaving the collector empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("buffer lock"))
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.lock().expect("buffer lock").push(event.clone());
    }
}

/// In-memory JSONL collector: each event is encoded by
/// [`TraceEvent::write_line`] as it is recorded, so nothing is cloned or
/// retained but the bytes [`FileSink::write_jsonl`] will write.
#[derive(Clone, Default)]
pub struct JsonlBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl JsonlBuffer {
    /// An empty collector.
    pub fn new() -> Self {
        JsonlBuffer::default()
    }

    /// A [`SharedSink`] handle feeding this collector.
    pub fn handle(&self) -> SharedSink {
        SharedSink::new(self.clone())
    }

    /// Takes the collected JSONL, leaving the collector empty.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.bytes.lock().expect("buffer lock"))
    }
}

impl TraceSink for JsonlBuffer {
    fn record(&mut self, event: &TraceEvent) {
        let mut bytes = self.bytes.lock().expect("buffer lock");
        event.write_line(&mut bytes);
        bytes.push(b'\n');
    }
}

/// Deterministically merges per-producer event streams by logical
/// clock.
///
/// Each stream is a producer's locally-ordered `(clock, event)` buffer.
/// Events are ordered by `(clock, producer index, position)` — a total
/// order independent of thread scheduling, so the merged trace of a
/// threaded run is reproducible.
pub fn merge_by_clock(streams: Vec<Vec<(u64, TraceEvent)>>) -> Vec<TraceEvent> {
    let mut keyed: Vec<(u64, usize, usize, TraceEvent)> = Vec::new();
    for (producer, stream) in streams.into_iter().enumerate() {
        for (pos, (clock, event)) in stream.into_iter().enumerate() {
            keyed.push((clock, producer, pos, event));
        }
    }
    keyed.sort_by_key(|&(clock, producer, pos, _)| (clock, producer, pos));
    keyed.into_iter().map(|(_, _, _, e)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                run: 3,
                seed: 42,
                n: 64,
                strategy: "spaa93-full".into(),
                delta: 1,
                f: 1.1,
                c: 4,
            },
            TraceEvent::BalanceInitiated {
                step: 17,
                initiator: 5,
                partners: vec![9, 2, 61],
                trigger: 1.25,
            },
            TraceEvent::PacketsMigrated {
                step: 17,
                initiator: 5,
                count: 12,
            },
            TraceEvent::MarkerMoved {
                step: 17,
                initiator: 5,
                count: 2,
            },
            TraceEvent::FaultInjected {
                step: 30,
                proc: 7,
                kind: "loss".into(),
            },
            TraceEvent::CrashRecovered { step: 44, proc: 7 },
            TraceEvent::StepProfile {
                step: 17,
                wall_ns: 12345,
                ops: 3,
            },
            TraceEvent::StepDelta {
                step: 17,
                counters: vec![("balance_ops".into(), 1), ("packets_migrated".into(), 12)],
            },
            TraceEvent::LoadSample {
                step: 17,
                min: 0,
                max: 31,
                total: 512,
            },
            TraceEvent::RequestRouted {
                step: 90,
                req: 1001,
                shard: 6,
            },
            TraceEvent::RequestCompleted {
                step: 95,
                req: 1001,
                shard: 6,
                latency_ticks: 5,
            },
            TraceEvent::RequestsRedirected {
                step: 96,
                from: 6,
                to: 2,
                count: 14,
            },
            TraceEvent::AcceptorHandoff {
                step: 97,
                from: 0,
                to: 1,
                count: 9,
            },
            TraceEvent::ArenaContender {
                run: 3,
                label: "quasirandom".into(),
                strategy: "quasirandom".into(),
                seed: 99,
            },
            TraceEvent::RunFinished { run: 3 },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for ev in sample_events() {
            let line = ev.to_line();
            let back = TraceEvent::from_line(&line).expect("parse");
            assert_eq!(ev, back, "line: {line}");
            // Byte stability: re-rendering the parsed event reproduces
            // the original line exactly.
            assert_eq!(line, back.to_line());
        }
    }

    #[test]
    fn whole_valued_trigger_still_round_trips() {
        // `{}` renders 2.0 as "2", which parses back as an integer; the
        // f64 decode must absorb that.
        let ev = TraceEvent::BalanceInitiated {
            step: 1,
            initiator: 0,
            partners: vec![],
            trigger: 2.0,
        };
        let back = TraceEvent::from_line(&ev.to_line()).expect("parse");
        assert_eq!(ev, back);
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(TraceEvent::from_line("{\"t\":\"nope\"}").is_err());
        assert!(TraceEvent::from_line("not json").is_err());
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        assert!(!SharedSink::new(NullSink).enabled());
        assert!(SharedSink::new(RingSink::new(4)).enabled());
    }

    #[test]
    fn ring_sink_keeps_last_cap_events() {
        let mut ring = RingSink::new(2);
        for ev in sample_events() {
            ring.record(&ev);
        }
        assert_eq!(ring.len(), 2);
        let kept = ring.into_events();
        let all = sample_events();
        assert_eq!(kept, all[all.len() - 2..].to_vec());
    }

    #[test]
    fn file_sink_writes_one_line_per_event() {
        let mut sink = FileSink::from_writer(Vec::new());
        for ev in sample_events() {
            sink.record(&ev);
        }
        let bytes = sink.into_inner().expect("inner");
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, ev) in lines.iter().zip(sample_events()) {
            assert_eq!(TraceEvent::from_line(line).expect("parse"), ev);
        }
    }

    /// Accepts `room` bytes, then fails every write like a full disk.
    struct FullAfter {
        room: usize,
    }

    impl std::io::Write for FullAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn file_sink_keeps_the_first_write_error_for_finish() {
        let mut sink = FileSink::from_writer(FullAfter { room: 100 });
        // Far more than the BufWriter holds, so writes reach the writer.
        for _ in 0..1000 {
            for ev in sample_events() {
                sink.record(&ev);
            }
        }
        sink.flush();
        assert_eq!(sink.finish().unwrap_err().to_string(), "disk full");

        let mut sink = FileSink::from_writer(FullAfter { room: 0 });
        sink.record(&TraceEvent::RunFinished { run: 0 });
        assert!(sink.into_inner().is_err(), "into_inner reports it too");

        let shared = SharedSink::new(FileSink::from_writer(FullAfter { room: 0 }));
        shared.record(&TraceEvent::RunFinished { run: 0 });
        assert!(shared.finish().is_err(), "and so does a shared handle");
    }

    #[test]
    fn jsonl_buffer_collects_the_file_sink_bytes() {
        let buf = JsonlBuffer::new();
        let handle = buf.handle();
        let mut direct = FileSink::from_writer(Vec::new());
        for ev in sample_events() {
            handle.record(&ev);
            direct.record(&ev);
        }
        let collected = buf.take();
        assert_eq!(collected, direct.into_inner().unwrap());
        let mut copied = FileSink::from_writer(Vec::new());
        copied.write_jsonl(&collected);
        assert_eq!(copied.into_inner().unwrap(), collected);
        assert!(buf.take().is_empty());
    }

    #[test]
    fn buffer_sink_hands_events_back() {
        let buf = BufferSink::new();
        let handle = buf.handle();
        for ev in sample_events() {
            handle.record(&ev);
        }
        assert_eq!(buf.take(), sample_events());
        assert!(buf.take().is_empty());
    }

    #[test]
    fn merge_by_clock_is_deterministic_and_clock_ordered() {
        let a = vec![
            (1, TraceEvent::RunFinished { run: 0 }),
            (5, TraceEvent::RunFinished { run: 1 }),
        ];
        let b = vec![
            (1, TraceEvent::RunFinished { run: 2 }),
            (3, TraceEvent::RunFinished { run: 3 }),
        ];
        let merged = merge_by_clock(vec![a.clone(), b.clone()]);
        // Clock 1: producer 0 before producer 1; then clocks 3, 5.
        let runs: Vec<u64> = merged
            .iter()
            .map(|e| match e {
                TraceEvent::RunFinished { run } => *run,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(runs, vec![0, 2, 3, 1]);
        // Stream order in, same answer out — keyed by producer index.
        assert_eq!(merged, merge_by_clock(vec![a, b]));
    }
}
