#!/usr/bin/env python3
"""Whole-run EFM benchmark on knockout instances of yeast Network I.

    python3 perfbench/run.py --workload demo_serial --seed 0 \
        --seconds 10 --trace 0

Run from the repository root.  The first call builds perfbench/ (the
elmo libraries from src/ plus the elmo_perfbench program) into .bench_build/.

Every measured run is a fresh elmo_perfbench process.  With --trace 0 the
runs are untraced and the result holds the end-to-end metrics; with
--trace 1 untraced and traced runs alternate and the result holds the
per-layer metrics.  Runs start until --seconds have passed (at least one of
each kind), one at a time.

Each run's output is checked: exit status 0, the workload's mode count, a
CSV digest equal to the one in perfbench/expected.json, and no BigInt
fallback.  A run that misses any of these counts in "failed".

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it records the host and every sample behind the medians.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cmake")
RUNS = os.path.join(".bench_build", "runs")
PROGRAM = os.path.join(BUILD, "elmo_perfbench")

DEMO_KNOCKOUTS = ["R15", "R33", "R41", "R46", "R92r", "R98", "R100"]
KO3_KNOCKOUTS = ["R15", "R46", "R92r"]

# Closed loop: one run at a time from one process, at most 4 threads.
WORKLOADS = {
    "demo_serial": {"knockouts": DEMO_KNOCKOUTS, "algorithm": "serial"},
    "ko3_serial": {"knockouts": KO3_KNOCKOUTS, "algorithm": "serial"},
    # Algorithm 3, qsub 2, on 4 ranks x 1 thread (set in elmo_perfbench).
    "ko3_combined4": {"knockouts": KO3_KNOCKOUTS, "algorithm": "combined"},
}

# A run killed after this long counts as failed.  Optional runs start only
# within --seconds; a run still needed starts only within LAST_START_S, so
# the benchmark ends well within 180 s.
RUN_TIMEOUT_S = 80
LAST_START_S = 60

# Counts that must repeat exactly between two runs of one workload and seed.
EXACT_COUNTS = ["modes", "nullspace.pairs_probed", "nullspace.rank_tests",
                "nullspace.accepted", "mpsim.bytes_sent"]

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckError(Exception):
    """A run's output is wrong."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ inputs

def permute_network(text, seed):
    """A held-out spelling of a write_network document.

    Seed 0 keeps the document as written.  Any other seed shuffles the
    metabolites of the external and metabolite directives (so the
    stoichiometry rows come in another order) and the terms on each side
    of every reaction.  The order of the reaction lines is kept: it decides
    the solver's processing order, and with it how much work a run does."""
    if seed == 0:
        return text
    rng = random.Random(seed)
    lines = []
    for line in text.splitlines():
        if " : " in line:
            name, equation = line.split(" : ", 1)
            arrow = " <=> " if " <=> " in equation else " => "
            sides = []
            for side in (equation + " ").split(arrow.strip()):
                terms = [t.strip() for t in side.split(" + ") if t.strip()]
                rng.shuffle(terms)
                sides.append(" + ".join(terms))
            line = name + " : " + arrow.join(sides).strip()
        else:
            words = line.split()
            names = words[1:]
            rng.shuffle(names)
            line = " ".join(words[:1] + names)
        lines.append(line)
    return "\n".join(lines) + "\n"


def reversible_reactions(network_text):
    """Names of the reversible reactions of a reaction-list document."""
    names = set()
    for line in network_text.splitlines():
        if " : " in line and "<=>" in line:
            names.add(line.split(" : ", 1)[0].strip())
    return names


# ------------------------------------------------------------------ checks

def csv_digest(data, reversible):
    """(mode count, digest) of an EFM CSV, independent of reaction order.

    Columns are put in name order, each fully reversible mode is oriented
    so its first nonzero is positive (as canonicalize_modes does in the
    file's own order), and rows are sorted before hashing."""
    if not data.endswith(b"\n"):
        raise CheckError("CSV does not end with a newline (truncated)")
    lines = data[:-1].split(b"\n")
    header = lines[0].split(b",")
    if len(set(header)) != len(header):
        raise CheckError("CSV header repeats a reaction")
    order = sorted(range(len(header)), key=lambda i: header[i])
    names = [header[i] for i in order]
    irreversible = [k for k, name in enumerate(names)
                    if name.decode() not in reversible]
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        raw = line.split(b",")
        if len(raw) != len(header):
            raise CheckError("CSV line %d has %d fields, expected %d"
                             % (number, len(raw), len(header)))
        fields = [raw[i] for i in order]
        first = next((f for f in fields if f != b"0"), None)
        if first is None:
            raise CheckError("CSV line %d is the zero mode" % number)
        if first.startswith(b"-") and all(fields[k] == b"0"
                                          for k in irreversible):
            fields = [f[1:] if f.startswith(b"-") else
                      f if f == b"0" else b"-" + f for f in fields]
        rows.append(b",".join(fields))
    rows.sort()
    digest = hashlib.sha256(b",".join(names) + b"\n")
    for row in rows:
        digest.update(row)
        digest.update(b"\n")
    return len(rows), digest.hexdigest()


def check_run(report, csv_path, reversible, expected):
    """Raise CheckError unless one run's report and CSV are right.

    Returns the CSV digest."""
    if report.get("used_bigint"):
        raise CheckError("run fell back to BigInt")
    if report.get("modes") != expected["modes"]:
        raise CheckError("run reported %s modes, expected %d"
                         % (report.get("modes"), expected["modes"]))
    with open(csv_path, "rb") as f:
        data = f.read()
    if len(data) != report.get("csv_bytes"):
        raise CheckError("CSV on disk has %d bytes, the run wrote %s"
                         % (len(data), report.get("csv_bytes")))
    rows, digest = csv_digest(data, reversible)
    if rows != expected["modes"]:
        raise CheckError("CSV has %d modes, expected %d"
                         % (rows, expected["modes"]))
    if digest != expected["digest"]:
        raise CheckError("CSV digest %s, expected %s"
                         % (digest, expected["digest"]))
    return digest


# ------------------------------------------------------------------ build

def build():
    """Configure and build perfbench/ into .bench_build/ (no-op when fresh)."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("perfbench: no elmo sources (src/CMakeLists.txt) under %s"
            % os.getcwd())
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "ab") as build_log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log("perfbench: build failed, see %s" % log_path)
                sys.exit(1)


def host_record():
    """nproc, CPU model, compiler, build type and git sha of this run."""
    record = {"nproc": os.cpu_count(), "cpu": platform.processor() or None,
              "compiler": None, "build_type": None, "git_sha": None}
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
        if match:
            record["cpu"] = match.group(1).strip()
    except OSError:
        pass
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            cache = f.read()
        match = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        record["build_type"] = match.group(1) if match else None
        match = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if match:
            version = subprocess.run([match.group(1), "--version"],
                                     capture_output=True, text=True)
            record["compiler"] = version.stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    if os.path.isdir(".git"):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if sha.returncode == 0:
            record["git_sha"] = sha.stdout.strip()
    return record


# ------------------------------------------------------------------ runs

def make_input(name, seed):
    """Write the workload's network as spelled by `seed`.

    Returns the input path and the names of its reversible reactions."""
    os.makedirs(RUNS, exist_ok=True)
    model_path = os.path.join(RUNS, "%s-model.txt" % name)
    subprocess.run([PROGRAM, "gen", "--knockout",
                    ",".join(WORKLOADS[name]["knockouts"]),
                    "--output", model_path], check=True)
    with open(model_path) as f:
        text = permute_network(f.read(), seed)
    path = os.path.join(RUNS, "%s-seed%d.txt" % (name, seed))
    with open(path, "w") as f:
        f.write(text)
    return path, reversible_reactions(text)


def run_once(name, input_path, traced, index):
    """One elmo_perfbench process; returns (report, csv path)."""
    stem = os.path.join(RUNS, "%s-%d" % (name, index))
    csv_path = stem + ".csv"
    spans_path = stem + "-spans.json"
    command = [PROGRAM, "run", "--input", input_path, "--output", csv_path,
               "--algorithm", WORKLOADS[name]["algorithm"]]
    if traced:
        command += ["--spans", spans_path]
    for path in (csv_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckError("run did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise CheckError("run exited with status %d: %s"
                         % (done.returncode, done.stderr.strip()[-300:]))
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise CheckError("run printed no report")
    return report, csv_path


def measure(name, seed, seconds, trace, expected):
    """Run the workload for `seconds`; returns (result, record).

    result is None when no run of a needed kind succeeded."""
    input_path, reversible = make_input(name, seed)
    untraced, traced, failures = [], [], []
    attempted = 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        needed = not untraced or (trace and not traced)
        if elapsed >= (LAST_START_S if needed else seconds):
            break
        # With --trace 1, untraced and traced runs alternate.
        want_traced = bool(trace) and len(traced) < len(untraced)
        attempted += 1
        csv_path = None
        try:
            report, csv_path = run_once(name, input_path, want_traced,
                                        attempted)
            check_run(report, csv_path, reversible, expected)
            (traced if want_traced else untraced).append(report)
            log("%s run %d (%s): %.3f s" % (
                name, attempted, "traced" if want_traced else "untraced",
                report["wall_s"]))
        except CheckError as error:
            failures.append("run %d: %s" % (attempted, error))
            log("%s run %d failed: %s" % (name, attempted, error))
        finally:
            if csv_path and os.path.exists(csv_path):
                os.remove(csv_path)

    # Findings about the invocation as a whole, not about one run: they
    # make the result incorrect but are not failed runs.
    problems = []
    record = {"workload": name, "seed": seed, "trace": trace,
              "host": host_record(), "failures": failures,
              "problems": problems,
              "untraced_wall_s": [r["wall_s"] for r in untraced],
              "untraced_setup_s": [r["setup_s"] for r in untraced],
              "traced": [{k: r[k] for k in ("wall_s", "metrics")}
                         for r in traced]}
    if not untraced or (trace and not traced):
        return None, record

    # Traced runs of one seed must agree on the exact counts.
    for report in traced[1:]:
        differing = [key for key in EXACT_COUNTS
                     if count(report, key) != count(traced[0], key)]
        if differing:
            problems.append("traced counts differ: %s" % ", ".join(differing))

    walls = [r["wall_s"] for r in untraced]
    if trace:
        values = {key: statistics.median(r["metrics"][key] for r in traced)
                  for key in traced[0]["metrics"]}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(walls))
        units = layer_units()
        missing = sorted(set(units) - set(values))
        if missing:
            problems.append("no value for %s" % ", ".join(missing))
    else:
        values = {
            "wall_s": statistics.median(walls),
            # A set-up takes ~25 ms, so other tenants' bursts show in
            # single samples: take each run's fastest, then the median.
            "setup_s": statistics.median(min(r["setup_s"])
                                         for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in untraced)}
        units = END_TO_END_UNITS
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in units.items() if key in values}
    result = {"correct": not failures and not problems,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, record


def count(report, key):
    return report["modes"] if key == "modes" else report["metrics"][key]


def layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    expected = load_expected()[args.workload]
    result, record = measure(args.workload, args.seed, args.seconds,
                             args.trace, expected)
    if result is None:
        log("perfbench: no run of %s succeeded: %s"
            % (args.workload, record["failures"]))
        return 1
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
