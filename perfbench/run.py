#!/usr/bin/env python3
"""End-to-end benchmark of `dlb run` and `dlb serve --mode sim`, with a
traced per-layer split.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository.  The script builds
the release `dlb` binary and `perfbench/tools` into `$CARGO_TARGET_DIR`
(default `.bench_build`), then

* `--trace 0` runs the binary as a user would, one single-threaded child
  at a time, for `--seconds` seconds: full runs of the workload
  interleaved with set-up probes (the same scenario cut to one step).  It
  checks every output and reports the end-to-end metrics.  It needs
  nothing but the binary and the tools, which call no balancer API.
* `--trace 1` also builds the in-process harness (`perfbench/harness`),
  alternates one untraced binary run with one run of the span-traced
  harness, checks that the harness reproduces the binary's output
  exactly, and reports the per-layer metrics.

`--workload all` runs every workload in both modes and prints every
metric with its unit.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  Everything the
benchmark writes goes to `.bench_work/` in the checkout.
"""

import argparse
import filecmp
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

# The scenario files carry this seed; with it every output is compared
# byte for byte with `perfbench/expected/`.  Any other seed is written
# into a copy of the scenario and checked against invariants instead.
DEFAULT_SEED = 42

WORKLOADS = {
    "paper64": {"kind": "run", "scenario": "paper64.json", "trace": False},
    "paper64_traced": {"kind": "run", "scenario": "paper64.json", "trace": True},
    "million_sparse": {"kind": "run", "scenario": "million_sparse.json", "trace": False},
    "serve_sim": {"kind": "serve", "scenario": "serve_sim.json", "trace": False},
}

# Set-up probes per full run, and the fewest full runs a measurement makes.
PROBES_PER_RUN = 4
MIN_FULL_RUNS = 3
# Median time of `perfbench-tools calibrate` on a 2-core Xeon with a
# 105 MiB LLC; end-to-end timings are scaled to this host speed.
CALIB_REF_S = 0.14
# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850

REPORT_LINES = [
    ("strategy", "strategy"),
    ("mean max/mean", "mean"),
    ("p95 max/mean", "p95"),
    ("worst max/mean", "worst"),
    ("ops/run", "ops"),
    ("migrated/run", "migrated"),
    ("final total", "final_total"),
]


class SetupError(Exception):
    """The benchmark cannot run here (no sources, build failure, ...)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build and machine description
# ----------------------------------------------------------------------


def target_dir():
    raw = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(raw)
    return path if path.is_absolute() else ROOT / path


class Programs:
    """The executables a measurement runs; `harness` is None unless built."""

    def __init__(self, dlb, tools, harness):
        self.dlb = dlb
        self.tools = tools
        self.harness = harness


def build(with_harness):
    """Builds `dlb` and the tools, and the harness if asked to."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SetupError(f"no repository sources next to {BENCH.name}/")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    packages = ["tools"] + (["harness"] if with_harness else [])
    commands = [["cargo", "build", "--release", "--offline", "-q", "-p", "dlb-cli"]]
    commands += [["cargo", "build", "--release", "--offline", "-q",
                  "--manifest-path", str(BENCH / p / "Cargo.toml")] for p in packages]
    for cmd in commands:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise SetupError(f"{' '.join(cmd)}: {e}") from e
        if done.returncode != 0:
            raise SetupError(f"{' '.join(cmd)} exited with {done.returncode}")
    release = target_dir() / "release"
    return Programs(release / "dlb", release / "perfbench-tools",
                    release / "perfbench-harness" if with_harness else None)


def read_text(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def llc_bytes():
    """Size of the highest cache level cpu0 reports, in bytes (0 if unknown)."""
    best_level, best_size = 0, 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = int(read_text(index / "level", "0") or 0)
        size = read_text(index / "size", "0")
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        value = int(size.rstrip("KMG") or 0) * scale
        if level >= best_level:
            best_level, best_size = level, value
    return best_size


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even in a checkout without git metadata."""
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", BENCH.name):
        files += [p for p in (ROOT / top).rglob("*")
                  if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".json", ".py")]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def machine():
    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "llc_bytes": llc_bytes(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": source_digest(),
    }


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


class Child:
    """Outcome of one child process."""

    def __init__(self, wall_s, maxrss_kb, code, stdout):
        self.wall_s = wall_s
        self.maxrss_kb = maxrss_kb
        self.code = code
        self.stdout = stdout


def invoke(args, name):
    """Runs `args` from the checkout root; stdout goes through a file so
    the child never blocks on a pipe, and `wait4` yields its own peak RSS."""
    out_path = WORK / f"{name}.stdout"
    err_path = WORK / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in args], cwd=ROOT, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss, proc.returncode, out_path.read_text())


def program_json(program, args, name):
    """Runs a tools or harness command; returns the JSON it prints."""
    child = invoke([program] + args, name)
    if child.code != 0:
        err = read_text(WORK / f"{name}.stderr")
        raise SetupError(f"{Path(program).name} {args[0]} failed ({child.code}): {err}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Scenarios and output checks
# ----------------------------------------------------------------------


def write_json(path, value):
    path.write_text(json.dumps(value, indent=2) + "\n")


def prepare(workload, seed):
    """Writes the seeded scenario and its set-up probe; returns both paths."""
    spec = WORKLOADS[workload]
    scenario = json.loads((BENCH / "scenarios" / spec["scenario"]).read_text())
    scenario["seed"] = seed
    probe = json.loads(json.dumps(scenario))
    if spec["kind"] == "run":
        probe["steps"], probe["runs"] = 1, 1
    else:
        first = probe["phases"][0]
        probe["ticks"] = 1
        probe["phases"] = [{"ticks": 1, "rate": first["rate"]}]
        probe.pop("faults", None)
    main_path = WORK / f"{workload}.scenario.json"
    probe_path = WORK / f"{workload}.probe.json"
    write_json(main_path, scenario)
    write_json(probe_path, probe)
    return main_path, probe_path


def binary_args(dlb, workload, scenario, trace_path):
    spec = WORKLOADS[workload]
    if spec["kind"] == "serve":
        return [dlb, "serve", scenario, "--mode", "sim"]
    args = [dlb, "run", scenario]
    if spec["trace"]:
        args += ["--trace", trace_path]
    return args


def parse_report(stdout):
    """The `dlb run` report as a dict of strings, or None if malformed."""
    fields = {}
    for line in stdout.splitlines():
        for label, key in REPORT_LINES:
            if line.startswith(label + " "):
                fields[key] = line[len(label):].strip()
    if len(fields) != len(REPORT_LINES):
        return None
    return fields


def report_block(stdout):
    lines = stdout.splitlines()
    starts = [i for i, l in enumerate(lines) if l.startswith("strategy ")]
    ends = [i for i, l in enumerate(lines) if l.startswith("final total ")]
    if not starts or not ends:
        return None
    return "\n".join(lines[starts[0]:ends[-1] + 1])


def run_invariants(stdout):
    """Seed-independent checks of a `dlb run` report; returns a problem or None."""
    fields = parse_report(stdout)
    if fields is None:
        return "report does not parse"
    try:
        ratios = [float(fields[k]) for k in ("mean", "p95", "worst")]
        ops, migrated = float(fields["ops"]), float(fields["migrated"])
        int(fields["final_total"])
    except ValueError:
        return "report field is not a number"
    if not all(math.isfinite(r) and r >= 1.0 for r in ratios):
        return f"ratios {ratios} not finite and >= 1"
    if ratios[0] > ratios[2] or ops < 0 or migrated < 0:
        return "report is inconsistent"
    return None


def serve_stats(stdout):
    """The `dlb serve` stats, or None unless they parse with every field
    the checks read."""
    try:
        stats = json.loads(stdout)
        for key in ("issued", "completed", "dropped", "in_flight"):
            int(stats[key])
        int(stats["latency_ticks"]["count"])
    except (ValueError, KeyError, TypeError):
        return None
    return stats


def serve_invariants(stats):
    if stats is None:
        return "stats do not parse"
    ledger = stats["completed"] + stats["dropped"] + stats["in_flight"]
    if stats["issued"] != ledger:
        return f"ledger broken: issued {stats['issued']} != {ledger}"
    if stats["latency_ticks"]["count"] != stats["completed"]:
        return "latency histogram count differs from completed"
    return None


class Gate:
    """Correctness bookkeeping for one measurement.

    An operation is one binary run (`dlb run`) or one issued request
    (`dlb serve`).  A run fails on a non-zero exit, an output that breaks
    an invariant, an output that differs from the expected one (default
    seed) or from the first run of this measurement (any seed).
    """

    def __init__(self, workload, seed, tools):
        self.workload = workload
        self.kind = WORKLOADS[workload]["kind"]
        self.default_seed = seed == DEFAULT_SEED
        self.tools = tools
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}
        # Requests a serve run issues, per kind of run: the fallback
        # count for a run whose stats do not parse.
        self.issued = {}
        self.expected = {}
        if self.default_seed:
            self.expected["stdout"] = (BENCH / "expected" / f"{workload}.stdout").read_text()
            if self.kind == "serve":
                self.issued["full run"] = json.loads(self.expected["stdout"])["issued"]
            trace_golden = BENCH / "expected" / f"{workload}.trace.json"
            if trace_golden.exists():
                self.expected["trace"] = json.loads(trace_golden.read_text())

    def problem(self, what, message):
        if len(self.problems) < 10:
            self.problems.append(f"{what}: {message}")

    def check(self, what, child, trace_path=None):
        """Checks one full run or set-up probe; returns True if it passed."""
        stats = None
        if child.code != 0:
            problem = f"exit code {child.code}"
        elif self.kind == "run":
            problem = run_invariants(child.stdout)
        else:
            stats = serve_stats(child.stdout)
            problem = serve_invariants(stats)
        if problem is None and what != "probe":
            problem = self.compare(child.stdout, trace_path)
        if problem is not None:
            self.problem(what, problem)
        if self.kind == "run":
            self.attempted += 1
            self.failed += problem is not None
        else:
            if stats is not None:
                self.issued[what] = stats["issued"]
            if problem is None:
                self.attempted += stats["issued"]
                self.failed += stats["dropped"] + stats["in_flight"]
            else:
                # A failed serve run fails every request it issued.
                lost = max(self.issued.get(what, 1), 1)
                self.attempted += lost
                self.failed += lost
        return problem is None

    def compare(self, stdout, trace_path):
        if "stdout" in self.expected and stdout != self.expected["stdout"]:
            return "output differs from the expected output"
        if "stdout" not in self.first:
            self.first["stdout"] = stdout
        elif stdout != self.first["stdout"]:
            return "output differs from the first run's"
        if trace_path is None:
            return None
        if "trace" not in self.first:
            kept = WORK / f"{self.workload}.first-trace.jsonl"
            os.replace(trace_path, kept)
            self.first["trace"] = kept
            try:
                summary = program_json(self.tools, ["check-trace", kept], "check-trace")
            except SetupError as e:
                return str(e)
            self.first["trace_summary"] = summary
            if "trace" in self.expected and summary != self.expected["trace"]:
                return f"trace {summary} differs from the expected {self.expected['trace']}"
            return trace_invariants(summary, self.first["stdout"])
        if not filecmp.cmp(self.first["trace"], trace_path, shallow=False):
            return "trace differs from the first run's"
        return None

    @property
    def correct(self):
        return not self.problems


def trace_invariants(summary, stdout):
    lines = stdout.splitlines()
    runs = steps = None
    for line in lines:
        if line.startswith("running:"):
            # running: <n> processors, <steps> steps x <runs> runs, ...
            words = line.split()
            steps, runs = int(words[3]), int(words[6])
    if runs is None:
        return "no run header in the output"
    if summary["run_started"] != runs or summary["run_finished"] != runs:
        return f"trace has {summary['run_started']} run starts for {runs} runs"
    if summary["load_samples"] != runs * steps:
        return f"trace has {summary['load_samples']} load samples for {runs * steps} steps"
    return None


# ----------------------------------------------------------------------
# Measurements
# ----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else float("nan")


def measure_e2e(workload, seed, seconds, programs):
    """Full runs interleaved with set-up probes for `seconds` seconds."""
    spec = WORKLOADS[workload]
    scenario, probe = prepare(workload, seed)
    trace_path = WORK / f"{workload}.trace.jsonl"
    probe_trace = WORK / f"{workload}.probe-trace.jsonl"
    full_args = binary_args(programs.dlb, workload, scenario.relative_to(ROOT),
                            trace_path.relative_to(ROOT))
    probe_args = binary_args(programs.dlb, workload, probe.relative_to(ROOT),
                             probe_trace.relative_to(ROOT))
    if spec["kind"] == "run":
        work_items = program_json(programs.tools, ["count", scenario], "count")["active_events"]
    gate = Gate(workload, seed, programs.tools)

    def calibrate():
        return program_json(programs.tools, ["calibrate"], "calibrate")["calib_s"]

    # Host calibrations bracket every full run: one opens each cycle and
    # one closes the measurement.  A probe is scaled by the calibration
    # just before it, a full run by the mean of the two around it.
    full, probes, cycles, calibs = [], [], [], [calibrate()]
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(PROBES_PER_RUN):
            child = invoke(probe_args, "probe")
            gate.check("probe", child)
            probes.append((child, calibs[-1]))
        child = invoke(full_args, "full")
        gate.check("full run", child, trace_path if spec["trace"] else None)
        before = calibs[-1]
        calibs.append(calibrate())
        full.append((child, (before + calibs[-1]) / 2))
        now = time.perf_counter()
        cycles.append(now - cycle_start)
        if len(full) >= MIN_FULL_RUNS and now - start + median(cycles) > seconds:
            break

    ref = CALIB_REF_S

    def scaled(runs):
        """Wall times at reference host speed: each multiplied by the
        kernel's reference time over its time next to the run."""
        return [child.wall_s * ref / calib for child, calib in runs]

    def raw(runs):
        return [child.wall_s for child, _ in runs]

    if spec["kind"] == "serve":
        stats = serve_stats(full[0][0].stdout) or {"issued": 0}
        work_items = stats["issued"]
    setup_s = median(scaled(probes))
    setup_raw = median(raw(probes))
    metrics = {
        "setup_s": setup_s,
        "events_per_s": work_items / max(median(scaled(full)) - setup_s, 1e-9),
        "peak_rss_mb": median([child.maxrss_kb for child, _ in full]) / 1024,
    }
    detail = {
        "full_runs": len(full),
        "setup_probes": len(probes),
        "host_slowdown": median(calibs) / ref,
        "setup_s_raw": setup_raw,
        "events_per_s_raw": work_items / max(median(raw(full)) - setup_raw, 1e-9),
        "run_s": [round(w, 6) for w in raw(full)],
        "probe_s": [round(w, 6) for w in raw(probes)],
        "calib_s": [round(c, 6) for c in calibs],
        "work_items": work_items,
        "outputs": output_summary(workload, full[0][0].stdout),
    }
    return gate, metrics, detail


def output_summary(workload, stdout):
    """The deterministic figures of one output, for the printed table."""
    if WORKLOADS[workload]["kind"] == "serve":
        stats = serve_stats(stdout)
        if stats is None:
            return {}
        return {
            "latency_p50_ticks": stats["latency_ticks"]["p50"],
            "latency_p99_ticks": stats["latency_ticks"]["p99"],
            "issued": stats["issued"],
            "failed_frac": (stats["dropped"] + stats["in_flight"]) / max(stats["issued"], 1),
        }
    fields = parse_report(stdout)
    if fields is None:
        return {}
    return {
        "imbalance_mean": float(fields["mean"]),
        "imbalance_p95": float(fields["p95"]),
        "migrated_per_run": float(fields["migrated"]),
    }


def measure_layers(workload, seed, seconds, programs):
    """Untraced binary runs alternated with traced harness runs."""
    spec = WORKLOADS[workload]
    scenario, _ = prepare(workload, seed)
    trace_path = WORK / f"{workload}.trace.jsonl"
    harness_trace = WORK / f"{workload}.harness-trace.jsonl"
    full_args = binary_args(programs.dlb, workload, scenario.relative_to(ROOT),
                            trace_path.relative_to(ROOT))
    harness = programs.harness
    gate = Gate(workload, seed, programs.tools)
    reps, binary_s, harness_s = [], [], []
    state_bytes = 0
    start = time.perf_counter()
    while True:
        child = invoke(full_args, "full")
        ok = gate.check("full run", child, trace_path if spec["trace"] else None)
        binary_s.append(child.wall_s)
        spans = WORK / f"{workload}.spans.jsonl"
        if spec["kind"] == "serve":
            reproduced = WORK / f"{workload}.harness-stats.json"
            out = program_json(harness, ["serve", scenario, "--stats", reproduced,
                                         "--spans", spans], "harness")
            same = reproduced.read_text() == child.stdout
        else:
            reproduced = WORK / f"{workload}.harness-report.txt"
            args = ["run", scenario, "--report", reproduced, "--spans", spans]
            if spec["trace"]:
                args += ["--trace", harness_trace]
            out = program_json(harness, args, "harness")
            same = reproduced.read_text() == report_block(child.stdout)
            if spec["trace"] and ok:
                same = same and filecmp.cmp(gate.first["trace"], harness_trace, shallow=False)
        if ok and not same:
            gate.problem("harness", "the traced harness does not reproduce the binary's output")
        reps.append(out["metrics"])
        harness_s.append(out["main_pass_s"])
        state_bytes = out["state_bytes"]
        if time.perf_counter() - start + median(binary_s) + median(harness_s) > seconds:
            break
    metrics = {name: median([r[name] for r in reps]) for name in reps[0]}
    summary = output_summary(workload, gate.first.get("stdout", ""))
    for name in ("imbalance_mean", "imbalance_p95", "migrated_per_run",
                 "latency_p50_ticks", "latency_p99_ticks"):
        metrics[f"report.{name}"] = summary.get(name, 0.0)
    metrics["report.failed_frac"] = gate.failed / max(gate.attempted, 1)
    metrics["tracing.overhead"] = median(harness_s) / median(binary_s) - 1
    detail = {
        "reps": len(reps),
        "binary_s": [round(x, 6) for x in binary_s],
        "harness_main_pass_s": [round(x, 6) for x in harness_s],
        "state_bytes": state_bytes,
    }
    return gate, metrics, detail


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def metric_specs(trace):
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_table(title, rows):
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>16.6g}  {unit}")


def measure(workload, seed, seconds, trace, programs, mach):
    WORK.mkdir(exist_ok=True)
    measurer = measure_layers if trace else measure_e2e
    gate, values, detail = measurer(workload, seed, seconds, programs)
    metrics = {}
    for m in metric_specs(trace):
        if m["name"] not in values:
            raise SetupError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(f"workload {workload}, seed {seed}, {seconds} s, trace {int(trace)}")
    if trace:
        state = detail["state_bytes"]
        if state:
            print(f"  engine state {state / 2**20:.1f} MiB next to an LLC of "
                  f"{mach['llc_bytes'] / 2**20:.1f} MiB "
                  f"({state / max(mach['llc_bytes'], 1):.2f}x)")
    else:
        print(f"  {detail['full_runs']} full runs, {detail['setup_probes']} set-up probes; "
              f"host slowdown {detail['host_slowdown']:.3f} (raw setup_s "
              f"{detail['setup_s_raw']:.6g}, raw events_per_s {detail['events_per_s_raw']:.6g})")
        print(f"  outputs: {json.dumps(detail['outputs'])}")
    print(f"  correctness: {'ok' if gate.correct else 'FAILED'} "
          f"({'expected outputs' if gate.default_seed else 'invariants and determinism'})")
    for problem in gate.problems:
        print(f"    {problem}")
    print_table("  metrics:", [(n, v["value"], v["unit"]) for n, v in metrics.items()])
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = dict(result, workload=workload, seed=seed, seconds=seconds,
                  trace=int(trace), machine=mach, detail=detail)
    write_json(WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json", record)
    return result


def write_expected(programs):
    """Regenerates `perfbench/expected/` from one default-seed run of each
    workload (for a change that alters the program's output on purpose)."""
    for workload in WORKLOADS:
        scenario, _ = prepare(workload, DEFAULT_SEED)
        trace_path = WORK / f"{workload}.trace.jsonl"
        child = invoke(binary_args(programs.dlb, workload, scenario.relative_to(ROOT),
                                   trace_path.relative_to(ROOT)), "full")
        if child.code != 0:
            raise SetupError(f"{workload} exited with {child.code}")
        (BENCH / "expected" / f"{workload}.stdout").write_text(child.stdout)
        if WORKLOADS[workload]["trace"]:
            summary = program_json(programs.tools, ["check-trace", trace_path], "check-trace")
            write_json(BENCH / "expected" / f"{workload}.trace.json", summary)
        log(f"perfbench: wrote the expected output of {workload}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate perfbench/expected/ and exit")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if args.workload is None and not args.write_expected:
        parser.error("--workload is required")
    try:
        if not SPEC.is_file():
            raise SetupError(f"{SPEC.name} is missing")
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads(SPEC.read_text())["run_seconds"]
        programs = build(with_harness=bool(args.trace) or args.workload == "all")
        WORK.mkdir(exist_ok=True)
        if args.write_expected:
            write_expected(programs)
            return 0
        mach = machine()
        print("machine: " + json.dumps(mach))
        if args.workload != "all":
            result = measure(args.workload, args.seed, seconds, bool(args.trace),
                             programs, mach)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = measure(workload, args.seed, seconds, trace, programs, mach)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, value in part["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = value
                    print()
    except SetupError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
