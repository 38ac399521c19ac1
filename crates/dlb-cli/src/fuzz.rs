//! Robustness fuzzing of every parser user-supplied text reaches:
//! `Json::parse`, the scenario loaders of `dlb run` and `dlb serve`, and
//! `TraceEvent::from_line` (what `trace_analyze` reads traces with).
//! Each must return `Ok` or `Err` and never panic.
//!
//! Inputs are arbitrary bytes, arbitrary strings over the JSON alphabet,
//! and stacked bit-flip / insert / delete / truncate mutations of every
//! committed `scenarios/*.json` and of rendered trace lines.  A file is
//! read as UTF-8 text, so byte inputs go through a lossy decode.

use crate::config::Scenario;
use dlb_json::Json;
use dlb_serve::ServiceScenario;
use dlb_trace::TraceEvent;
use proptest::prelude::*;

/// Bytes that steer the parser into its structural paths.
const JSON_ALPHABET: &[u8] = b"{}[]\":,-+.0123456789eE \\/ntrufalsbx\xc3\xa9";

/// The committed scenario files, in name order.
fn scenario_corpus() -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("scenarios directory")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .map(|path| {
            let bytes = std::fs::read(&path).expect("scenario file");
            (path.display().to_string(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// One rendered line of each event kind a trace of `dlb run` or
/// `dlb serve` holds.
fn trace_corpus() -> Vec<String> {
    [
        TraceEvent::RunStarted {
            run: 0,
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
            partners: vec![9, 61],
            trigger: 1.25,
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
        TraceEvent::RequestCompleted {
            step: 95,
            req: 1001,
            shard: 6,
            latency_ticks: 5,
        },
        TraceEvent::ArenaContender {
            run: 3,
            label: "quasi\"random\\#2".into(),
            strategy: "quasirandom".into(),
            seed: u64::MAX,
        },
    ]
    .iter()
    .map(TraceEvent::to_line)
    .collect()
}

/// Applies `edits` in order; each is `(kind, position, byte)`.
fn mutate(mut bytes: Vec<u8>, edits: &[(u8, usize, u8)]) -> Vec<u8> {
    for &(kind, at, byte) in edits {
        let at = at % (bytes.len() + 1);
        match kind % 4 {
            0 if at < bytes.len() => bytes[at] ^= 1 << (byte % 8),
            1 => bytes.insert(at, JSON_ALPHABET[usize::from(byte) % JSON_ALPHABET.len()]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {}
        }
    }
    bytes
}

/// Runs every parser on `bytes`; a panic fails the case, naming the input.
fn feed(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    std::panic::catch_unwind(|| {
        let _ = Json::parse(&text);
        let _ = Scenario::from_json(&text);
        let _ = ServiceScenario::parse(&text);
        let _ = TraceEvent::from_line(&text);
    })
    .map_err(|_| TestCaseError::fail(format!("a parser panicked on {text:?}")))
}

fn edits() -> impl Strategy<Value = Vec<(u8, usize, u8)>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..8)
}

#[test]
fn corpus_is_present_and_loads() {
    let corpus = scenario_corpus();
    assert!(corpus.len() >= 8, "scenario corpus: {} files", corpus.len());
    for (name, bytes) in &corpus {
        let text = std::str::from_utf8(bytes).expect("UTF-8 scenario");
        assert!(
            Scenario::from_json(text).is_ok() || ServiceScenario::parse(text).is_ok(),
            "{name} loads with neither loader"
        );
    }
    for line in trace_corpus() {
        assert!(TraceEvent::from_line(&line).is_ok(), "{line}");
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        feed(&bytes)?;
    }

    #[test]
    fn json_alphabet_text_never_panics(
        picks in prop::collection::vec(0..JSON_ALPHABET.len(), 0..200),
    ) {
        let bytes: Vec<u8> = picks.into_iter().map(|i| JSON_ALPHABET[i]).collect();
        feed(&bytes)?;
    }

    #[test]
    fn mutated_scenarios_never_panic(file in 0usize..64, edits in edits()) {
        let corpus = scenario_corpus();
        let (_, bytes) = &corpus[file % corpus.len()];
        feed(&mutate(bytes.clone(), &edits))?;
    }

    #[test]
    fn mutated_trace_lines_never_panic(line in 0usize..64, edits in edits()) {
        let corpus = trace_corpus();
        let text = &corpus[line % corpus.len()];
        feed(&mutate(text.as_bytes().to_vec(), &edits))?;
    }
}
