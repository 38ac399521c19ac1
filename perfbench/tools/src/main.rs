//! ```text
//! perfbench-tools count <scenario.json>
//! perfbench-tools check-trace <trace.jsonl>
//! perfbench-tools calibrate
//! ```
//!
//! `count` prints the number of active (non-idle) processor-events of a
//! `dlb run` scenario; `check-trace` prints the FNV-1a hash, size and
//! event counts of a JSONL trace after checking every line; `calibrate`
//! prints how long the host-speed kernel took.  Each prints one JSON
//! object.

use perfbench_tools::{calibrate, check_trace, RunWork};

const USAGE: &str =
    "usage: perfbench-tools count <scenario.json> | check-trace <trace.jsonl> | calibrate";

fn run(args: &[String]) -> Result<String, String> {
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("count"), Some(path)) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let work = RunWork::parse(&dlb_json::Json::parse(&text)?)?;
            Ok(format!("{{\"active_events\":{}}}", work.active_events()))
        }
        (Some("check-trace"), Some(path)) => {
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            check_trace(&bytes).map_err(|e| format!("{path}: {e}"))
        }
        (Some("calibrate"), None) => Ok(format!("{{\"calib_s\":{}}}", calibrate())),
        _ => Err(USAGE.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
