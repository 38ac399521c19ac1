//! Encoder equivalence: [`TraceEvent::write_line`] renders every variant
//! byte for byte like the insertion-ordered `dlb_json::Json` object the
//! schema describes, and `from_line` reads it back.
//!
//! [`tree`] is that object, built the slow way; it exists only here, as
//! the oracle.  Fields are drawn to stress the byte encoder: 0 and
//! `u64::MAX`, empty and long `partners` / `counters`, strings full of
//! quotes, backslashes, control characters and non-ASCII text, and
//! floats well outside the vendored `any::<f64>()` range of [0, 1).

use dlb_json::Json;
use dlb_trace::TraceEvent;
use proptest::prelude::*;
use proptest::ChaCha8Rng;

fn u(v: u64) -> Json {
    Json::Int(v as i128)
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

fn obj(tag: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("t".to_string(), s(tag))];
    all.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(all)
}

/// The schema as a `Json` tree: tag `t` first, then the fields in
/// declaration order.
fn tree(ev: &TraceEvent) -> Json {
    match ev {
        TraceEvent::RunStarted {
            run,
            seed,
            n,
            strategy,
            delta,
            f,
            c,
        } => obj(
            "run_start",
            vec![
                ("run", u(*run)),
                ("seed", u(*seed)),
                ("n", u(*n)),
                ("strategy", s(strategy)),
                ("delta", u(*delta)),
                ("f", Json::Float(*f)),
                ("c", u(*c)),
            ],
        ),
        TraceEvent::BalanceInitiated {
            step,
            initiator,
            partners,
            trigger,
        } => obj(
            "balance",
            vec![
                ("step", u(*step)),
                ("init", u(*initiator)),
                (
                    "partners",
                    Json::Arr(partners.iter().map(|&p| u(p)).collect()),
                ),
                ("trigger", Json::Float(*trigger)),
            ],
        ),
        TraceEvent::PacketsMigrated {
            step,
            initiator,
            count,
        } => obj(
            "packets",
            vec![
                ("step", u(*step)),
                ("init", u(*initiator)),
                ("count", u(*count)),
            ],
        ),
        TraceEvent::MarkerMoved {
            step,
            initiator,
            count,
        } => obj(
            "marker",
            vec![
                ("step", u(*step)),
                ("init", u(*initiator)),
                ("count", u(*count)),
            ],
        ),
        TraceEvent::FaultInjected { step, proc, kind } => obj(
            "fault",
            vec![("step", u(*step)), ("proc", u(*proc)), ("kind", s(kind))],
        ),
        TraceEvent::CrashRecovered { step, proc } => {
            obj("recover", vec![("step", u(*step)), ("proc", u(*proc))])
        }
        TraceEvent::StepProfile { step, wall_ns, ops } => obj(
            "profile",
            vec![
                ("step", u(*step)),
                ("wall_ns", u(*wall_ns)),
                ("ops", u(*ops)),
            ],
        ),
        TraceEvent::StepDelta { step, counters } => obj(
            "delta",
            vec![
                ("step", u(*step)),
                (
                    "counters",
                    Json::Obj(counters.iter().map(|(k, v)| (k.clone(), u(*v))).collect()),
                ),
            ],
        ),
        TraceEvent::LoadSample {
            step,
            min,
            max,
            total,
        } => obj(
            "load",
            vec![
                ("step", u(*step)),
                ("min", u(*min)),
                ("max", u(*max)),
                ("total", u(*total)),
            ],
        ),
        TraceEvent::RequestRouted { step, req, shard } => obj(
            "req",
            vec![("step", u(*step)), ("req", u(*req)), ("shard", u(*shard))],
        ),
        TraceEvent::RequestCompleted {
            step,
            req,
            shard,
            latency_ticks,
        } => obj(
            "req_done",
            vec![
                ("step", u(*step)),
                ("req", u(*req)),
                ("shard", u(*shard)),
                ("latency_ticks", u(*latency_ticks)),
            ],
        ),
        TraceEvent::RequestsRedirected {
            step,
            from,
            to,
            count,
        } => obj(
            "redirect",
            vec![
                ("step", u(*step)),
                ("from", u(*from)),
                ("to", u(*to)),
                ("count", u(*count)),
            ],
        ),
        TraceEvent::AcceptorHandoff {
            step,
            from,
            to,
            count,
        } => obj(
            "handoff",
            vec![
                ("step", u(*step)),
                ("from", u(*from)),
                ("to", u(*to)),
                ("count", u(*count)),
            ],
        ),
        TraceEvent::ArenaContender {
            run,
            label,
            strategy,
            seed,
        } => obj(
            "arena",
            vec![
                ("run", u(*run)),
                ("label", s(label)),
                ("strategy", s(strategy)),
                ("seed", u(*seed)),
            ],
        ),
        TraceEvent::RunFinished { run } => obj("run_end", vec![("run", u(*run))]),
    }
}

/// Floats the random draw mixes in, beyond [0, 1): whole values,
/// subnormals, the extremes, and the non-finite values JSON renders as
/// `null`.
const SPECIAL_FLOATS: [f64; 18] = [
    0.0,
    1.0,
    2.0,
    1.1,
    -3.0,
    4503599627370496.0, // 2^52
    1e15,
    1e20,
    1e300,
    -1e300,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    5e-324, // the smallest subnormal
    2.5e-310,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Characters that need escaping or span several UTF-8 bytes.
const SPECIAL_CHARS: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', '/', 'é', '€',
    '\u{2028}', '😀', 'a',
];

/// Draws field values from the proptest case stream.
struct Draw<'a>(&'a mut ChaCha8Rng);

impl Draw<'_> {
    fn int(&mut self) -> u64 {
        match (0u8..6).generate(self.0) {
            0 => 0,
            1 => u64::MAX,
            2 => (0u64..1000).generate(self.0),
            _ => any::<u64>().generate(self.0),
        }
    }

    fn float(&mut self) -> f64 {
        match (0u8..5).generate(self.0) {
            0 => SPECIAL_FLOATS[(0..SPECIAL_FLOATS.len()).generate(self.0)],
            // Any bit pattern: huge, tiny, negative, NaN or infinite.
            1 => f64::from_bits(any::<u64>().generate(self.0)),
            2 => (0u32..1_000_000).generate(self.0) as f64,
            _ => any::<f64>().generate(self.0) * 8.0,
        }
    }

    fn text(&mut self) -> String {
        let len = (0usize..40).generate(self.0);
        (0..len)
            .map(|_| {
                if any::<bool>().generate(self.0) {
                    SPECIAL_CHARS[(0..SPECIAL_CHARS.len()).generate(self.0)]
                } else {
                    char::from_u32((0u32..0x11_0000).generate(self.0)).unwrap_or('\u{fffd}')
                }
            })
            .collect()
    }

    fn len(&mut self) -> usize {
        match (0u8..4).generate(self.0) {
            0 => 0,
            1 => (200usize..400).generate(self.0),
            _ => (1usize..8).generate(self.0),
        }
    }

    fn event(&mut self, variant: usize) -> TraceEvent {
        match variant {
            0 => TraceEvent::RunStarted {
                run: self.int(),
                seed: self.int(),
                n: self.int(),
                strategy: self.text(),
                delta: self.int(),
                f: self.float(),
                c: self.int(),
            },
            1 => TraceEvent::BalanceInitiated {
                step: self.int(),
                initiator: self.int(),
                partners: (0..self.len()).map(|_| self.int()).collect(),
                trigger: self.float(),
            },
            2 => TraceEvent::PacketsMigrated {
                step: self.int(),
                initiator: self.int(),
                count: self.int(),
            },
            3 => TraceEvent::MarkerMoved {
                step: self.int(),
                initiator: self.int(),
                count: self.int(),
            },
            4 => TraceEvent::FaultInjected {
                step: self.int(),
                proc: self.int(),
                kind: self.text(),
            },
            5 => TraceEvent::CrashRecovered {
                step: self.int(),
                proc: self.int(),
            },
            6 => TraceEvent::StepProfile {
                step: self.int(),
                wall_ns: self.int(),
                ops: self.int(),
            },
            7 => TraceEvent::StepDelta {
                step: self.int(),
                counters: (0..self.len()).map(|_| (self.text(), self.int())).collect(),
            },
            8 => TraceEvent::LoadSample {
                step: self.int(),
                min: self.int(),
                max: self.int(),
                total: self.int(),
            },
            9 => TraceEvent::RequestRouted {
                step: self.int(),
                req: self.int(),
                shard: self.int(),
            },
            10 => TraceEvent::RequestCompleted {
                step: self.int(),
                req: self.int(),
                shard: self.int(),
                latency_ticks: self.int(),
            },
            11 => TraceEvent::RequestsRedirected {
                step: self.int(),
                from: self.int(),
                to: self.int(),
                count: self.int(),
            },
            12 => TraceEvent::AcceptorHandoff {
                step: self.int(),
                from: self.int(),
                to: self.int(),
                count: self.int(),
            },
            13 => TraceEvent::ArenaContender {
                run: self.int(),
                label: self.text(),
                strategy: self.text(),
                seed: self.int(),
            },
            _ => TraceEvent::RunFinished { run: self.int() },
        }
    }
}

const VARIANTS: usize = 15;

/// One event of every variant per case, fields drawn by [`Draw`].
struct EveryVariant;

impl Strategy for EveryVariant {
    type Value = Vec<TraceEvent>;

    fn generate(&self, rng: &mut ChaCha8Rng) -> Vec<TraceEvent> {
        let mut draw = Draw(rng);
        (0..VARIANTS).map(|v| draw.event(v)).collect()
    }
}

/// The event's float field, if it has one.
fn float_field(ev: &TraceEvent) -> Option<f64> {
    match ev {
        TraceEvent::RunStarted { f, .. } => Some(*f),
        TraceEvent::BalanceInitiated { trigger, .. } => Some(*trigger),
        _ => None,
    }
}

fn check(ev: &TraceEvent) -> Result<(), TestCaseError> {
    let expected = tree(ev).render();
    // `write_line` appends: what was in the buffer stays in front.
    let mut out = b"prefix".to_vec();
    ev.write_line(&mut out);
    prop_assert_eq!(&out[..6], b"prefix");
    let line = String::from_utf8(out[6..].to_vec())
        .map_err(|e| TestCaseError::fail(format!("not UTF-8: {e}")))?;
    prop_assert_eq!(&line, &expected, "event {:?}", ev);
    prop_assert_eq!(&ev.to_line(), &expected);
    match float_field(ev) {
        // NaN and the infinities render as `null`, which no f64 field
        // decodes from; the line must still be valid JSON.
        Some(f) if !f.is_finite() => {
            prop_assert!(Json::parse(&line).is_ok(), "invalid JSON: {}", line);
            prop_assert!(TraceEvent::from_line(&line).is_err());
        }
        _ => {
            let back = TraceEvent::from_line(&line)
                .map_err(|e| TestCaseError::fail(format!("parse failed: {e} on {line}")))?;
            prop_assert_eq!(&back, ev, "line: {}", line);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn write_line_matches_the_json_tree_oracle(events in EveryVariant) {
        for ev in &events {
            check(ev)?;
        }
    }
}

#[test]
fn every_special_float_renders_like_the_oracle() {
    for &f in &SPECIAL_FLOATS {
        for ev in [
            TraceEvent::BalanceInitiated {
                step: 1,
                initiator: 2,
                partners: vec![3],
                trigger: f,
            },
            TraceEvent::RunStarted {
                run: 0,
                seed: u64::MAX,
                n: 64,
                strategy: "spaa93-full".into(),
                delta: 1,
                f,
                c: 4,
            },
        ] {
            if let Err(e) = check(&ev) {
                panic!("f = {f:e}: {e:?}");
            }
        }
    }
}

#[test]
fn strings_escape_like_the_oracle() {
    let kind: String = SPECIAL_CHARS.iter().collect();
    let ev = TraceEvent::FaultInjected {
        step: 0,
        proc: u64::MAX,
        kind: format!("{kind}\u{1}end"),
    };
    check(&ev).unwrap();
    assert!(ev
        .to_line()
        .contains(r#""kind":"\"\\\n\r\t\u0000\u0008\u000c\u001f"#));
}
