#!/usr/bin/env python3
"""Layered benchmark for darboux.

    python3 perfbench/run.py --workload catalog192 --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and imports ``darboux`` from its ``src``.
One process, one closed-loop caller: the seeded pass of the workload (see
``workloads.py``) is repeated, each op starting when the previous returns,
until ``--seconds`` have passed (whole passes only).  BLAS threads are
pinned to 1 here, before numpy loads, and in every child process; the
process and its children run on one CPU (see ``pin_to_one_cpu``).

``--trace 0`` prints the end-to-end metrics (tracing off).  Times are in
reference seconds: each measured time is scaled by the host speed that a
fixed probe loop measures next to it: within half a second of it in the
timed phase, just before and just after it for a child process (see
``HostSpeed``).  The measured times themselves are in the meta line under
``raw_seconds``.

* ``setup_s``: ``import darboux`` plus loading the shipped tables in a fresh
  process, median of SETUP_RUNS processes;
* ``wall_s``: time of one pass, each op at its median over the passes;
* ``ops_per_s``: ops of a pass that passed their oracle, over ``wall_s``;
* ``op_p50_ms``: the median over every timed run of those ops;
* ``op_tail_ms``: the highest percentile (at most p99) with at least 10
  samples beyond it (the percentile and the sample count are in the meta
  line).  With TAIL_PER_OP_MIN_OPS ops or more in a pass, the samples are
  the ops of a pass, each at its median over the passes, so that the tail
  names slow ops rather than the moments the host stalled; with fewer, they
  are every timed run of the ops;
* ``ok_frac``: ops that passed their oracle over ops attempted, that is
  1 - failed_frac (a metric that is never 0; failed_frac is in the meta line);
* ``peak_rss_mb``: peak resident memory of this process after the timed phase;
* ``cli_s``: wall time of the workload's CLI twin in a fresh process, median
  of runs made half before and half after the timed phase.

``--trace 1`` runs one pass untraced and one pass traced, plus the CLI twin
in-process, and prints the per-layer metrics (see ``tracing.py``).  Its
counts repeat exactly for a seed, so it measures a fixed pass, not a time.

Every op is checked against an independent oracle (``oracles.py``) after
the timed phase.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's stamp, op counts by failure cause and the tail percentile.  Both
are also written, with the spans of a traced run, to ``.perfbench_out/``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import cmath
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 9
#: Subprocess runs of the CLI twin, in two blocks, one before the timed
#: phase and one after it, so that the runs span the whole run rather than
#: one stretch of the host's speed.  Each block runs the twin at least
#: CLI_MIN_RUNS times and until CLI_MIN_SECONDS are spent (at most
#: CLI_MAX_RUNS times).
CLI_MIN_RUNS, CLI_MIN_SECONDS, CLI_MAX_RUNS = 2, 5.0, 10
CHILD_TIMEOUT = 150
#: Host probes timed just before and just after each child: at least
#: CHILD_PROBES, and for a CLI twin CHILD_PROBE_SHARE of its last run time.
CHILD_PROBES = 25
CHILD_PROBE_SHARE = 0.05
#: See op_tail_ms above.  On recorded catalog192 timelines (192 ops, 3-4
#: passes) per-op medians cut the spread of the tail from 0.07 to 0.05.
TAIL_PER_OP_MIN_OPS = 100

#: The CLI command a user would run for each workload.  moduli_sweep has no
#: twin of its own; `eval` at a modulus near 1 is the nearest CLI path
#: (fresh process, cold modulus cache, theta series and a coefficient build).
CLI_TWINS = {
    "catalog192": ["catalog", "verify", "--all", "--k", "0.6", "--nu", "3", "--h", "5.44"],
    "spectrum": ["eigen", "--k", "0.6", "--nu", "1", "--mode", "function", "--region", "0", "12"],
    "moduli_sweep": ["eval", "--k", "0.99", "--nu", "1", "--h", "0.83"],
    "tables": ["verify"],
}

SETUP_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import darboux\n"
    "darboux.gii_elements()\n"
    "print(time.perf_counter() - start)\n"
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class HostSpeed:
    """How fast this shared host runs Python, moment by moment.

    On a shared 2-vCPU VM, neighbouring tenants slowed identical work by up
    to 1.8x, in spells from under a second to tens of seconds, while CPU
    time tracked wall time (the hypervisor reported almost no steal).  A
    fixed pure-Python loop timed next to the work measures that speed;
    ``scale`` turns a measured time into reference seconds, the time the
    work takes when the loop takes PROBE_REFERENCE_S.  The loop is a
    theta-like series (complex powers, cmath calls, abs and max), the kind
    of code the package spends its time in, and each time is scaled by the
    probes near it rather than by one figure for the whole run.  On recorded
    12 s timelines of catalog192 and tables (8 seeds each, raw wall_s
    spreads 0.18 and 0.28), that gave wall_s spreads of 0.03 and 0.05, where
    one scale per run from a plain complex-arithmetic loop gave 0.11 and
    0.16.  Raw times are reported beside the scaled ones.
    """

    PROBE_REFERENCE_S = 1e-3
    #: Op time between probes in the timed phase.
    PROBE_EVERY_S = 0.025
    #: An op is scaled by the probes that start within WINDOW_S of it.
    WINDOW_S = 0.5
    #: Share of the probes dropped at each end before averaging a window:
    #: a probe caught by a preemption takes 10-20 ms, not 1.
    TRIM = 0.1

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []

    @staticmethod
    def _term(n: int, z: complex, q: complex) -> complex:
        return q ** (n * n) * cmath.cos((2 * n + 1) * z)

    @classmethod
    def _loop(cls) -> int:
        sizes = []
        for j in range(60):
            z, q, total = complex(0.02 * j, 0.05), 0.3 + 0.002j * j, 0j
            for n in range(14):
                term = cls._term(n, z, q)
                total += term
                sizes.append(max(abs(term), abs(total), 1e-300))
        return len(sizes)

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            self._loop()
            self.starts.append(start)
            self.probes.append(time.perf_counter() - start)

    def scale(self, start: float, end: float, margin: float = 0.0) -> float:
        """Reference seconds per measured second over the probes that start
        in [start - margin, end + margin] (the nearest one if none does)."""
        lo = bisect.bisect_left(self.starts, start - margin)
        hi = bisect.bisect_right(self.starts, end + margin)
        window = sorted(self.probes[lo:hi]) or [self.probes[min(lo, len(self.probes) - 1)]]
        cut = int(len(window) * self.TRIM)
        return self.PROBE_REFERENCE_S / statistics.fmean(window[cut:len(window) - cut])


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU.

    On a shared 2-vCPU VM the two vCPUs slowed down independently of each
    other (probe medians of 0.61 and 0.84 ms in the same second).  Without
    a pin, a CLI child could run on the other vCPU than the probes timed
    around it, and the host scale would not apply to it.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _child(argv: list[str], host: HostSpeed,
           probes: int = CHILD_PROBES) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a child between `probes` host probes on each side: (wall seconds,
    host scale, process)."""
    probed = time.perf_counter()
    host.probe(probes)
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    elapsed = time.perf_counter() - start
    host.probe(probes)
    return elapsed, host.scale(probed, time.perf_counter()), proc


def measure_setup(host: HostSpeed) -> tuple[float, float]:
    """Median set-up time of fresh processes: (raw, reference seconds)."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        _, scale, proc = _child([sys.executable, "-c", SETUP_SNIPPET], host)
        if proc.returncode != 0:
            _fail(f"set-up child failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * scale)
    return statistics.median(raw), statistics.median(scaled)


def measure_cli(workload: str, host: HostSpeed, runs: list[tuple[float, float, bool]]) -> None:
    """One block of CLI twin runs, appending (raw seconds, reference
    seconds, succeeded) per run to `runs`."""
    block: list[float] = []
    while len(block) < CLI_MIN_RUNS or (sum(block) < CLI_MIN_SECONDS and len(block) < CLI_MAX_RUNS):
        last = runs[-1][0] if runs else 0.0
        probes = max(CHILD_PROBES, int(CHILD_PROBE_SHARE * last / HostSpeed.PROBE_REFERENCE_S))
        elapsed, scale, proc = _child([sys.executable, "-m", "darboux.cli", *CLI_TWINS[workload]],
                                      host, probes)
        block.append(elapsed)
        runs.append((elapsed, elapsed * scale, proc.returncode == 0 and bool(proc.stdout.strip())))


def stamp() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}


def _probes_for(op_seconds: float) -> int:
    """Probes after `op_seconds` of op time: one per PROBE_EVERY_S (at least
    one, at most 40), so that ops of a second get as many as a run of short
    ops does."""
    return max(1, min(int(op_seconds / HostSpeed.PROBE_EVERY_S), 40))


def run_pass(ops, times=None, tracer=None, host=None, starts=None):
    """One pass over `ops`, appending each op's seconds to `times` and its
    start to `starts`; with a `host`, the host is probed once per
    PROBE_EVERY_S of op time since the last probes.  Returns (results,
    records, seconds of op time)."""
    from execute import describe, execute

    results, records, busy, since_probe = [], [], 0.0, HostSpeed.PROBE_EVERY_S
    for j, op in enumerate(ops):
        if host is not None and since_probe >= HostSpeed.PROBE_EVERY_S:
            host.probe(_probes_for(since_probe))
            since_probe = 0.0
        if tracer is not None:
            tracer.op_id = j
        start = time.perf_counter()
        result = execute(op)
        elapsed = time.perf_counter() - start
        busy += elapsed
        since_probe += elapsed
        if times is not None:
            times.append(elapsed)
        if starts is not None:
            starts.append(start)
        results.append(result)
        records.append(json.dumps(describe(op, result), sort_keys=True))
    if host is not None:
        host.probe(_probes_for(since_probe))
    return results, records, busy


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, at most
    p99 (beyond p99, 10^4 samples of millisecond ops measure the host's
    hiccups, not the ops): (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = max(10, n // 100)
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def judge(ops, results):
    import oracles

    cache = {}
    return [oracles.check(op, result, cache) for op, result in zip(ops, results)]


def end_to_end(workload, ops, seconds):
    import oracles

    host = HostSpeed()
    setup_raw, setup_s = measure_setup(host)
    cli_runs = []
    measure_cli(workload, host, cli_runs)
    raw, starts, passes, first_records, mismatched = [], [], 0, None, set()
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        results, records, _ = run_pass(ops, raw, host=host, starts=starts)
        passes += 1
        if first_records is None:
            first_results, first_records = results, records
        else:
            mismatched.update(j for j, (a, b) in enumerate(zip(first_records, records)) if a != b)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = [t * host.scale(start, start + t, HostSpeed.WINDOW_S) for start, t in zip(starts, raw)]

    verdicts = judge(ops, first_results)
    for j in mismatched:
        verdicts[j] = oracles.Verdict(False, "changed between passes", expected=False)
    measure_cli(workload, host, cli_runs)
    cli_raw = min(r[0] for r in cli_runs)
    cli_s = statistics.median(r[1] for r in cli_runs)
    cli_ok = all(r[2] for r in cli_runs)
    passed = [v.ok for v in verdicts] * passes
    attempted, correct_ops = len(raw), sum(passed)

    def timings(times):
        """wall_s (each op at its median over the passes), p50 and tail."""
        per_op = [statistics.median(times[j::len(ops)]) for j in range(len(ops))]
        good = [t for t, ok in zip(times, passed) if ok] or [0.0]
        if len(ops) >= TAIL_PER_OP_MIN_OPS:
            slow = [t for t, v in zip(per_op, verdicts) if v.ok] or [0.0]
        else:
            slow = good
        return sum(per_op), statistics.median(good), *tail(slow)

    wall_s, p50, tail_s, tail_pct, tail_n = timings(scaled)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (sum(v.ok for v in verdicts) / wall_s, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ok_frac": (correct_ops / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_s": (cli_s, "s"),
    }
    raw_wall, raw_p50, raw_tail = timings(raw)[:3]
    meta = {
        "passes": passes, "ops_per_pass": len(ops),
        "op_tail": {"percentile": tail_pct, "samples": tail_n},
        "failed_ops_per_pass_by_cause": dict(Counter(v.cause for v in verdicts if not v.ok)),
        "failed_frac": 1 - correct_ops / attempted,
        "unexpected_failures": sorted({v.cause for v in verdicts if not v.expected}),
        "cli": {"argv": CLI_TWINS[workload], "runs": len(cli_runs), "ok": cli_ok},
        "setup_runs": SETUP_RUNS,
        "host_probe_ms": {"median": statistics.median(host.probes) * 1e3,
                          "reference": HostSpeed.PROBE_REFERENCE_S * 1e3, "count": len(host.probes)},
        "raw_seconds": {"setup_s": setup_raw, "wall_s": raw_wall, "op_p50_s": raw_p50,
                        "op_tail_s": raw_tail, "cli_s": cli_raw},
    }
    correct = all(v.expected for v in verdicts) and cli_ok
    return correct, attempted, attempted - correct_ops, metrics, meta


def per_layer(workload, seed, ops):
    import darboux.cli
    from tracing import COUNTS, Tracer

    results, plain, untraced_s = run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced, traced_s = run_pass(ops, tracer=tracer)
        layers = tracer.snapshot()
        tracer.op_id = "cli"
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli_rc = darboux.cli.main(CLI_TWINS[workload])
    finally:
        tracer.uninstall()
    layers["cli.main"] = tracer.stats["cli.main"]

    verdicts = judge(ops, results)
    metrics = {name: (m["value"], m["unit"]) for name, m in tracer.metrics(layers).items()}
    # accuracy diagnostics over every finite figure (an op that returned the
    # wrong number of roots has none)
    for name, field in (("worst_residual", "residual"), ("worst_rel_err", "rel_err")):
        finite = [getattr(v, field) for v in verdicts if math.isfinite(getattr(v, field))]
        metrics[f"verify.{name}"] = (max(finite, default=0.0), "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    (OUT / f"records-{workload}-seed{seed}.jsonl").write_text("\n".join(traced) + "\n")
    failed = sum(not v.ok for v in verdicts)
    meta = {
        "records_identical": plain == traced,
        "counts": {name: m[0] for name, m in metrics.items() if name.rsplit(".", 1)[1] in COUNTS},
        "failed_ops_by_cause": dict(Counter(v.cause for v in verdicts if not v.ok)),
        "unexpected_failures": sorted({v.cause for v in verdicts if not v.expected}),
        "cli": {"argv": CLI_TWINS[workload], "rc": cli_rc, "lines": len(out.getvalue().splitlines())},
        "spans": len(tracer.spans),
    }
    correct = all(v.expected for v in verdicts) and plain == traced and cli_rc == 0
    return correct, len(ops), failed, metrics, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_to_one_cpu()

    if not (SRC / "darboux" / "__init__.py").is_file():
        _fail(f"no darboux sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import darboux

    if Path(darboux.__file__).resolve().parent != (SRC / "darboux").resolve():
        _fail(f"imported darboux from {darboux.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    ops = workloads.generate(args.workload, args.seed)
    darboux.gii_elements()      # lazy table load happens before timing
    import oracles

    if args.trace:
        correct, attempted, failed, metrics, meta = per_layer(args.workload, args.seed, ops)
    else:
        correct, attempted, failed, metrics, meta = end_to_end(args.workload, ops, args.seconds)
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, stamp=stamp(), known_defects={
                    f"{kind}/{cause}": why for (kind, cause), why in oracles.KNOWN_DEFECTS.items()})
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
