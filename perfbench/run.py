"""tcherry benchmark: run one workload's CLI operations and report metrics.

    python3 perfbench/run.py --workload fit-d18-k4 --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34 --trace 0

One client in a closed loop: each operation runs the workload's
``tcherry`` commands one after another, each as a fresh interpreter,
and the next operation starts only when the previous one has ended and
been checked. ``--trace 0`` reports end-to-end metrics; ``--trace 1``
runs the operation in-process once untraced and once traced with
``tracer.Tracer`` and reports per-layer metrics. The last line of
standard output is the JSON result; the lines before it list inputs,
written files and metrics for a reader. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import sha256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
#: An untraced run makes at least MIN_OPS operations and takes
#: SETUP_PER_OP set-up samples after each one.
MIN_OPS = 3
SETUP_PER_OP = 7

END_TO_END_UNITS = {"op_s.p50": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def spawn(argv, cwd: Path, deadline: float):
    """Run ``argv`` to completion; return (exit code, stdout, seconds, rusage)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise OpTimeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with open(cwd / "stdout", "wb+") as out, open(cwd / "stderr", "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        status = usage = None
        try:
            signal.setitimer(signal.ITIMER_REAL, remaining)
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
        if status is None:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            proc.wait()
            raise OpTimeout
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, out.read(), elapsed, usage


def tcherry_argv(args):
    return [sys.executable, "-m", "tcherry", *args]


def measure_setup(work: Path, deadline: float, repeats: int) -> list[float]:
    """Wall seconds for ``repeats`` fresh interpreters to import tcherry.cli."""
    argv = [sys.executable, "-c", "import tcherry.cli"]
    times = []
    for _ in range(repeats):
        code, _, elapsed, _ = spawn(argv, work, deadline)
        if code != 0:
            raise RuntimeError(f"import tcherry.cli exited with {code}")
        times.append(elapsed)
    return times


def cli_operation(workload, work: Path, deadline: float):
    """One operation as a user runs it; returns (seconds, outputs, rusages, problems)."""
    seconds, outputs, usages, problems = 0.0, [], [], []
    for cmd in workload.commands():
        try:
            code, stdout, elapsed, usage = spawn(tcherry_argv(cmd), work, deadline)
        except OpTimeout:
            problems.append(f"tcherry {' '.join(cmd)} did not end before the run's time limit")
            break
        seconds += elapsed
        outputs.append(stdout)
        usages.append(usage)
        if code != 0:
            problems.append(f"tcherry {' '.join(cmd)} exited with {code}")
    return seconds, outputs, usages, problems


def inprocess_operation(workload, work: Path, cli):
    """The same commands through ``cli.main(argv)`` in this process; (seconds, outputs, problems)."""
    outputs, problems = [], []
    gc.collect()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        for cmd in workload.commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd)
            outputs.append(buf.getvalue().encode())
            if code != 0:
                problems.append(f"main({cmd}) returned {code}")
        seconds = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    return seconds, outputs, problems


class Gate:
    """Judges each operation after it ends.

    An operation's outputs are its commands' standard output and the
    files it wrote, named by SHA-256 in ``digests``.
    """

    def __init__(self, workload, work: Path):
        self.workload, self.work = workload, work
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def judge(self, outputs, problems):
        self.attempted += 1
        self.digests = {f"stdout of command {i + 1}": sha256(out)
                        for i, out in enumerate(outputs)}
        self.digests.update(self.workload.written(self.work))
        if not problems:
            problems = self.workload.gate(outputs, self.work)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_untraced(workload, gate, work, seconds, deadline, report):
    """Operations in a closed loop, with set-up samples taken after each one.

    The run stops when the next operation would end past ``seconds``
    of wall time, but not before ``MIN_OPS`` operations. Spreading the
    set-up samples over the run keeps ``setup_s`` from recording only
    the host's speed at one moment.
    """
    measure_setup(work, deadline, 1)  # warm-up, not counted
    start = time.monotonic()
    setup, durations, rss_kib = [], [], []
    while True:
        elapsed, outputs, usages, problems = cli_operation(workload, work, deadline)
        gate.judge(outputs, problems)
        durations.append(elapsed)
        rss_kib.append(max((u.ru_maxrss for u in usages), default=0))
        setup += measure_setup(work, deadline, SETUP_PER_OP)
        spent = time.monotonic() - start
        per_op = spent / len(durations)
        if (len(durations) >= MIN_OPS and spent + per_op > seconds) or \
                time.monotonic() + 2 * per_op > deadline:
            break
    report(f"op_s samples: {' '.join(f'{d:.4f}' for d in durations)}")
    report(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    return {
        "op_s.p50": (statistics.median(durations), len(durations)),
        "peak_rss_mib": (max(rss_kib) / 1024, len(rss_kib)),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def run_traced(workload, gate, work, seconds, deadline, report, seed):
    import tcherry.cli
    from tracer import Tracer, layer_metrics

    cli_s, cli_out, usages, problems = cli_operation(workload, work, deadline)
    gate.judge(cli_out, problems)
    cpu_s = sum(u.ru_utime + u.ru_stime for u in usages)
    if problems:
        raise RuntimeError(f"the CLI operation failed, nothing to trace: {problems}")

    def inprocess(tracer):
        with tracer or contextlib.nullcontext():
            seconds, outputs, problems = inprocess_operation(workload, work, tcherry.cli)
        if outputs != cli_out:
            problems.append("in-process stdout differs from the CLI's")
        gate.judge(outputs, problems)
        return seconds

    rows, tracers = [], []
    start = time.monotonic()
    while True:
        tracer = Tracer(op=len(tracers) + 1)
        tracers.append(tracer)
        # Alternate which run goes first, so the overhead carries no order effect.
        if tracer.op % 2:
            plain_s, traced_s = inprocess(None), inprocess(tracer)
        else:
            traced_s, plain_s = inprocess(tracer), inprocess(None)
        metrics = layer_metrics(tracer, traced_s, workload.rows_loaded)
        metrics.update({"op.traced_s": traced_s, "trace.overhead_s": traced_s - plain_s,
                        "process.cpu_s": cpu_s})
        rows.append(metrics)
        pair_s = plain_s + traced_s
        if time.monotonic() - start + cli_s + pair_s > seconds or \
                time.monotonic() + 2 * pair_s > deadline:
            break
    trace_path = RUNS / f"trace-{workload.name}-s{seed}.json"
    with open(trace_path, "w") as f:
        json.dump({"workload": workload.name, "seed": seed, "ops": [
            {"op": t.op, "calls": dict(sorted(t.calls.items())), "probes": dict(t.probes),
             "spans": [s._asdict() for s in t.spans]} for t in tracers]}, f)
        f.write("\n")
    report(f"spans written to {RUNS.name}/{trace_path.name} ({len(tracers)} traced ops)")
    return {name: (statistics.median(r[name] for r in rows), len(rows)) for name in rows[0]}


def run_workload(workload, seed, seconds, trace, report):
    """Prepare, measure and check one workload; returns (correct, attempted, failed, metrics)."""
    from tracer import UNITS

    deadline = time.monotonic() + RUN_LIMIT_S
    work = RUNS / f"{workload.name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        report(f"workload {workload.name} seed {seed} trace {trace}")
        for label, digest in workload.prepare(seed, work).items():
            report(f"input {label} sha256 {digest}")
        gate = Gate(workload, work)
        if trace:
            metrics = run_traced(workload, gate, work, seconds, deadline, report, seed)
        else:
            metrics = run_untraced(workload, gate, work, seconds, deadline, report)
        for label, digest in gate.digests.items():
            report(f"output {label} sha256 {digest}")
        units = {**END_TO_END_UNITS, **UNITS}
        for problem in sorted(set(gate.problems)):
            report(f"REJECTED: {problem}")
        report(f"failed_frac {gate.failed / gate.attempted:.4f} ratio "
               f"({gate.failed}/{gate.attempted} operations)")
        for metric, (value, count) in metrics.items():
            report(f"{metric} {value:.6g} {units[metric]} (n={count})")
        return gate.failed == 0, gate.attempted, gate.failed, {
            metric: {"value": value, "unit": units[metric]}
            for metric, (value, _) in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "tcherry" / "cli.py").is_file():
        print(f"error: no tcherry sources under {SRC}; run from a tcherry checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace, print)
               for name in names]
    if len(results) == 1:
        correct, attempted, failed, metrics = results[0]
    else:
        correct = all(r[0] for r in results)
        attempted = sum(r[1] for r in results)
        failed = sum(r[2] for r in results)
        metrics = {f"{name}.{metric}": value for name, r in zip(names, results)
                   for metric, value in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
