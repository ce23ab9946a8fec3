"""Benchmark for the stringymass CLI: three self-verifying, seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One run is one closed loop: a single client calls ``stringymass.cli.main``
in this process, one job after another, for ``--seconds`` seconds of program
time, finishing the round in progress.  Each job's output is verified before
the next job starts; verification is not timed.

With ``--trace 0`` the run reports the end-to-end metrics.  Times are
scaled to a nominal host speed by a short reference timed around every job.  With ``--trace 1`` it runs the same jobs
untraced, traced and untraced again, and reports the per-layer metrics.  ``--workload all`` runs every workload in a
fresh process of its own and prints one table.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  A per-run record (traffic summary, failures, metrics) is
written under ``.perfbench-runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
WORKLOAD_NAMES = ("sweep", "stringy", "serre")
SETUP_PROBES = 20
MEMORY_JOBS = 3
# Times are reported at a nominal host speed: the speed at which
# _reference_s() takes NOMINAL_REFERENCE_S, about as it did on the tuning
# host at full speed.  The full speed itself drifted from run to run there,
# and the reference tracked the drift.
NOMINAL_REFERENCE_S = 0.00055

# (metric, unit) reported with --trace 0.
END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# A known defect, not a verification failure: rendering q^(1-n) as text
# raises once it passes Python's 4300-digit int-to-str limit, so serre jobs
# with large q and n end in an uncaught ValueError.  The workload stays
# below that limit; the workload's defect_jobs, run after the timed loop,
# are beyond it.
KNOWN_DEFECT = "Exceeds the limit"


def _program_available() -> bool:
    return os.path.isfile(os.path.join(SRC, "stringymass", "cli.py"))


def _import_cli():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from stringymass import cli

    if os.path.realpath(os.path.dirname(cli.__file__)) != os.path.realpath(
            os.path.join(SRC, "stringymass")):
        raise SystemExit(f"error: stringymass imported from {cli.__file__}, not {SRC}")
    return cli


def _prepare(workload_name: str, seed: int, workdir: str):
    """Import the program and start the workload's seeded rounds."""
    cli = _import_cli()
    from workloads import WORKLOADS, rounds

    workload = WORKLOADS[workload_name]
    return cli, workload, rounds(workload, seed, workdir)


def _probe(args, *options: str) -> list[str]:
    """Run this script as a fresh interpreter in a probe mode.  Returns the
    seconds until it printed "ready", then the lines it printed after."""
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as workdir:
        command = [sys.executable, os.path.join(HERE, "run.py"), *options,
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--workdir", workdir]
        start = perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            lines = [child.stdout.readline(), str(perf_counter() - start)]
            lines += child.stdout.read().splitlines()
        if child.returncode or lines[0] != "ready\n":
            raise RuntimeError(f"{options[0]} failed with exit code {child.returncode}")
        return lines[1:]


def _setup_probe(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it has imported the CLI and
    made the first round of inputs, with the reference time the child takes
    right after, which tells the host speed it ran at."""
    seconds, reference = _probe(args, "--setup-probe")
    return float(seconds), float(reference)


def _memory_probe(args, outcome: Outcome, done: list) -> float:
    """Peak resident MiB of a fresh interpreter that imports the CLI and runs the
    run's MEMORY_JOBS jobs with the most output, untimed and unverified, its
    output counted and dropped.  Memory peaks at the largest job, and a whole
    run meets every input of the top cost stratum, so this is the peak a
    process serving the run would reach, without the checker's copies."""
    largest = sorted(range(len(done)), key=outcome.sizes.__getitem__, reverse=True)
    argvs = []
    for index in largest:
        if done[index].argvs not in argvs:
            argvs.append(done[index].argvs)
        if len(argvs) == MEMORY_JOBS:
            break
    _, kib = _probe(args, "--memory-probe", "--jobs", json.dumps(argvs))
    return int(kib) / 1024


def _own_peak_kib() -> int:
    """Peak resident KiB of this process's own memory (VmHWM).

    This is the counter ru_maxrss reports, but ru_maxrss also carries the
    peak of the memory an exec replaced, so in a child spawned by the
    benchmark it would read at least the benchmark's own peak.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


_REFERENCE_ROWS = [{"blocks": [i % 7, i % 5, 3], "euler": f"{i}/{i + 1}",
                    "mass": {"num": [[i, 2, 3], [1, 1, i]], "den": [[0, 1, 1]]}}
                   for i in range(300)]


def _fraction_sum() -> Fraction:
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, k * k + 1)
    return total


def _reference_s() -> float:
    """The host's speed now: best of three timings of a fixed JSON encoding,
    plus best of three of a fixed sum of Fractions.

    The host this was tuned on switches between two speeds, about 1.8x
    apart, for a fraction of a second to tens of seconds at a time, and a
    whole run can fall in a slow stretch.  Timing this around every job
    tells how fast the host ran the job, so its time can be scaled to the
    nominal speed.  The two parts are the program's two kinds of work:
    encoding rows shaped like its output, and arithmetic on Fractions with
    growing denominators.  With a sweep, a serre and a stringy job run in
    turn for 150 s, the 10-second medians of job time / reference time
    varied by 2% (IQR/median) for every job kind; against JSON encoding
    alone by 4-5%, Fractions alone 2-7%, and raw job time 13-17%.
    """
    total = 0.0
    for work in (lambda: json.dumps(_REFERENCE_ROWS), _fraction_sum):
        best = math.inf
        for _ in range(3):
            start = perf_counter()
            work()
            best = min(best, perf_counter() - start)
        total += best
    return total


class _ByteCount:
    """A text sink that keeps only the number of characters written."""

    def __init__(self):
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _call(main, argv) -> tuple[float, int | None, str]:
    """Run one CLI call; a raised exception comes back as exit code None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash of the program: recorded, never fatal
            return perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


class Outcome:
    """Per-job latencies and the tally of passed, failed and wrong jobs."""

    def __init__(self):
        self.latencies: list[float] = []
        # Per job, the mean of the reference times taken just before and after it.
        self.references: list[float] = []
        self.ok: list[bool] = []
        # (seconds, reference time in the probe) per set-up probe
        self.setups: list[tuple[float, float]] = []
        self.wall = 0.0
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.out_bytes = 0
        self.sizes: list[int] = []  # output bytes per job

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def passed(self) -> int:
        return sum(self.ok)

    @property
    def failed(self) -> int:
        return self.attempted - self.passed

    def scaled(self) -> list[float]:
        """Latencies scaled by each job's reference time to the nominal host speed."""
        return [t * NOMINAL_REFERENCE_S / r for t, r in zip(self.latencies, self.references)]


def _run_job(cli, workload, job, outcome: Outcome, tracer=None) -> None:
    elapsed = 0.0
    outputs = []
    out_bytes = 0
    before = _reference_s()
    root = tracer.begin_job() if tracer else None
    try:
        for argv in job.argvs:
            seconds, code, text = _call(cli.main, argv)
            elapsed += seconds
            out_bytes += len(text.encode())
            outputs.append((code, text))
            if code is None:
                break
    finally:
        if tracer:
            tracer.end_job(root, out_bytes)
    outcome.references.append((before + _reference_s()) / 2)
    outcome.latencies.append(elapsed)
    outcome.ok.append(False)
    outcome.wall += elapsed
    outcome.out_bytes += out_bytes
    outcome.sizes.append(out_bytes)
    crash = next((text for code, text in outputs if code is None), None)
    if crash is not None:
        kind = "int_str_limit" if crash.startswith("ValueError") and KNOWN_DEFECT in crash else "crash"
        if kind == "crash":
            outcome.wrong.append(f"{job.params}: {crash[:200]}")
        outcome.failures[kind] = outcome.failures.get(kind, 0) + 1
        return
    if any(code == 2 for code, _ in outputs):
        outcome.failures["refused"] = outcome.failures.get("refused", 0) + 1
        return
    try:
        workload.verify(job.params, outputs)
    except Exception as exc:  # Wrong, or a malformed output the checks tripped on
        outcome.failures["wrong"] = outcome.failures.get("wrong", 0) + 1
        outcome.wrong.append(f"{job.params}: {type(exc).__name__}: {str(exc)[:200]}")
        return
    outcome.ok[-1] = True


def _run_rounds(cli, workload, rounds, budget_s: float, setup_args=None) -> tuple[Outcome, list]:
    """Whole rounds, made as they are reached, until budget_s of program time.

    With setup_args, SETUP_PROBES set-up probes are spread over the run.
    """
    outcome = Outcome()
    done = []
    while outcome.wall < budget_s:
        if setup_args and len(outcome.setups) * budget_s / SETUP_PROBES <= outcome.wall:
            outcome.setups.append(_setup_probe(setup_args))
        for job in next(rounds):
            _run_job(cli, workload, job, outcome)
            done.append(job)
    return outcome, done


def _rerun(cli, workload, jobs, tracer=None) -> Outcome:
    outcome = Outcome()
    for job in jobs:
        _run_job(cli, workload, job, outcome, tracer)
    return outcome


def _timing_metrics(outcome: Outcome) -> dict:
    """Throughput, latency percentiles and set-up time, scaled to the nominal
    host speed.  A set-up probe is scaled by the reference time its own
    process took.
    """
    latencies = outcome.scaled()
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "jobs_per_s": outcome.passed / sum(latencies),
        "job_p50_ms": 1000 * deciles[4],
        "job_p90_ms": 1000 * deciles[8],
        "setup_s": statistics.median(s * NOMINAL_REFERENCE_S / r for s, r in outcome.setups),
    }


def run_workload(args) -> int:
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUNS_DIR, prefix=f"{args.workload}-inputs-")
    try:
        cli, workload, rounds = _prepare(args.workload, args.seed, workdir)
        if args.trace:
            from tracing import Tracer

            # Untraced, traced, untraced again over the same jobs, so that
            # warm-up effects do not bias the overhead ratio.
            before, done = _run_rounds(cli, workload, rounds, args.seconds / 4)
            tracer = Tracer()
            tracer.install()
            try:
                outcome = _rerun(cli, workload, done, tracer)
            finally:
                tracer.uninstall()
            after = _rerun(cli, workload, done)
            untraced = (sum(before.scaled()) + sum(after.scaled())) / 2
            metrics = tracer.layer_metrics(sum(outcome.scaled()), untraced)
        else:
            outcome, done = _run_rounds(cli, workload, rounds, args.seconds, setup_args=args)
            values = _timing_metrics(outcome)
            values["peak_rss_mib"] = _memory_probe(args, outcome, done)
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        known_defect = None
        if workload.defect_jobs:
            # Untimed and apart from attempted/failed; a wrong output still counts.
            probe = _rerun(cli, workload, workload.defect_jobs(args.seed))
            known_defect = {"jobs": probe.attempted, "passed": probe.passed,
                            "failures": probe.failures}
            outcome.wrong += probe.wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": outcome.attempted,
        "repeat_share": 1 - len({job.params for job in done}) / len(done),
        "program_s": outcome.wall,
        "reference_ms_quartiles": [1000 * r for r in statistics.quantiles(outcome.references, n=4)],
        "setup_probes": [{"seconds": s, "reference_ms": 1000 * r} for s, r in outcome.setups],
        "passed": outcome.passed,
        "fail_ratio": outcome.failed / outcome.attempted,
        "failures": outcome.failures,
        "known_defect": known_defect,
        "wrong": outcome.wrong[:20],
        "traffic": workload.traffic(done, outcome.out_bytes),
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = tracer.write_spans(stem + "-spans.csv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({key: record[key] for key in
                      ("workload", "seed", "jobs", "fail_ratio", "failures", "known_defect",
                       "traffic")}))
    for line in outcome.wrong[:5]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    table = []
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True)
        *_, summary, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        known_defect = json.loads(summary)["known_defect"]
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        fail_ratio = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for metric, entry in [*result["metrics"].items(), ("fail_ratio", fail_ratio)]:
            merged["metrics"][f"{name}.{metric}"] = entry
            table.append(f"{name:8} {metric:36} {entry['value']:>14.6g} {entry['unit']}")
        table.append(f"{name:8} {'jobs':36} {result['attempted']:>14} count")
        if known_defect:
            failed = known_defect["jobs"] - known_defect["passed"]
            table.append(f"{name:8} {'known_defect_failed':36} {failed:>14} "
                         f"of {known_defect['jobs']} untimed")
    print("\n".join(table))
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--memory-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--jobs", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _program_available():
        print(f"error: the stringymass sources are missing: no {SRC}/stringymass/cli.py",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, rounds = _prepare(args.workload, args.seed, args.workdir)
        next(rounds)
        print("ready", flush=True)
        print(_reference_s())
        return 0
    if args.memory_probe:
        cli = _import_cli()
        print("ready", flush=True)
        sink = _ByteCount()
        for argvs in json.loads(args.jobs):
            for argv in argvs:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        cli.main(list(argv))
                    except Exception:  # noqa: BLE001 - failures are the timed run's to count
                        pass
        print(_own_peak_kib())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
