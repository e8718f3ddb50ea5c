"""momentforge benchmark: a closed loop of generated scenarios in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one op at a time, the next only after the previous one
finished.  An op is what `momentforge all --scenario FILE --out DIR` does for
one scenario, without interpreter start-up: `cli.load_scenario`,
`cli.run_scenario`, `Report.render` and `cli.emit_report`.  The scenarios are
written as INI files from the workload seed (see workloads.py) and carry
their own `[expect]`, so the program checks its answer.  An op fails when it
raises, reports `overall = FAIL`, or misses an expectation; the loop keeps
going either way.

The timed loop makes PASSES passes over the workload's scenarios.  The
host's speed drifts by up to a factor of two, from one second to the next
and also for minutes at a time, so every time is scaled to a reference
speed: a fixed piece of work that does not touch the program
(reference_work) is timed between ops, and an op's seconds are multiplied by
REFERENCE_S over the mean time of the reference work just before and just
after it.  A scenario's time is the best of its scaled passes, and the
percentiles are taken over the scenarios.  Set-up time is scaled the same
way.  The number of scenarios is sized from `--seconds` so that the passes
take about that long (workloads.pool_size).

Before the timed loop the seven bundled scenarios must pass, twice, with
identical report and CSV bytes.  With `--trace 0` the run prints the
end-to-end metrics.  With `--trace 1` every op runs twice, untraced and
with spans around every layer (tracer.py); the two must write the same
bytes, and the run prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Everything the run writes goes under `.perfbench_work/` in the checkout.
Exit code 2 means the benchmark could not run (no result line).
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the set-up
# probes that inherit this environment: one process, one core's worth of
# BLAS, so timings do not depend on the thread count of the machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BUNDLED = ("two_torus", "two_torus_sqrt2", "t4_split", "sphere", "s2xs2",
           "s2xt2_reduce", "t2_gcd2")
OUTPUTS = ("report.txt", "moment_samples.csv", "coverage.csv",
           "matrices.csv")
SETUP_REPEATS = 5       # the run's own set-up plus four child processes
PASSES = 3              # timings per scenario in an untraced run
MAX_STRETCH = 2.0       # cap on a loop, in units of --seconds
REFERENCE_S = 0.024     # reference_work's median seconds on the host that
                        # sized the workloads (a 2-vCPU Linux VM)
MIN_TRACED_OPS = 10     # traced runs: untraced/traced pairs

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def setup_program():
    """Import the program, numpy and scipy with it; return momentforge.cli."""
    if not (SRC / "momentforge" / "cli.py").is_file():
        raise BenchError(f"no momentforge sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from momentforge import cli
        import scipy.spatial  # noqa: F401  (convex_hull imports it lazily)
    except ImportError as exc:
        raise BenchError(f"cannot import momentforge: {exc}") from exc
    return cli


def setup(workload: str, seed: int, count: int, out_dir: Path):
    """Import the program and write `count` scenarios of the workload.
    Returns (cli module, [(Case, path)], seconds)."""
    t0 = time.perf_counter()
    cli = setup_program()
    if out_dir.exists():
        shutil.rmtree(out_dir)
    cases = workloads.generate(workload, seed, count, out_dir)
    return cli, cases, time.perf_counter() - t0


def in_child(function: str, *args: str):
    """Call run.<function>(*args) in a fresh interpreter and return its
    JSON result.  Set-up repeats need a fresh interpreter to import again;
    the correctness gate runs there so that its memory does not count
    toward the workload's peak RSS."""
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "print(json.dumps(getattr(run, sys.argv[2])(*sys.argv[3:])))")
    try:
        proc = subprocess.run([sys.executable, "-c", code, str(HERE),
                               function, *args], capture_output=True,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{function} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{function} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, seed: str, count: str,
                  out_dir: str) -> float:
    """Scaled seconds of one set-up (see the module docstring)."""
    seconds = setup(workload, int(seed), int(count), Path(out_dir))[2]
    seconds *= REFERENCE_S / reference_work()
    shutil.rmtree(out_dir, ignore_errors=True)
    return seconds


# ---------------------------------------------------------------------------
# one op

def run_op(cli, path: Path, out_dir: Path):
    """Run one scenario like `momentforge all --out`.  Returns None on
    success, else why the op failed: the exception and where it was raised,
    or the failed report keys (a missed `[expect]` is one of them)."""
    try:
        report = cli.run_scenario(cli.load_scenario(path))
        report.render()
        cli.emit_report(report, out_dir)
    except Exception as exc:    # a failed op is data; the loop goes on
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).stem}.{frame.name}"
        return f"{type(exc).__name__} in {where}: {exc}"[:300]
    if not report.passed:
        return "FAIL " + ", ".join(report.failures)
    return None


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        p = out_dir / name
        h.update(name.encode())
        h.update(p.read_bytes() if p.is_file() else b"<absent>")
    return h.hexdigest()


def clear(out_dir: Path):
    for name in OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# phases

def correctness_gate(work: str) -> dict:
    """Bundled scenarios must pass and write the same bytes twice; the
    recorded defects are re-run to show whether they still reproduce."""
    work = Path(work)
    cli = setup_program()
    out_dir = work / "gate-out"
    problems = []
    for name in BUNDLED:
        path = cli.bundled_scenario_path(name)
        hashes = []
        for _ in range(2):
            clear(out_dir)
            why = run_op(cli, path, out_dir)
            if why is not None:
                problems.append(f"{name}: {why}")
                break
            hashes.append(digest(out_dir))
        if len(hashes) == 2 and hashes[0] != hashes[1]:
            problems.append(f"{name}: outputs differ between two runs")
    known = {}
    for name, (expected, text) in workloads.known_failures().items():
        path = work / f"known-{name}.ini"
        path.write_text(text)
        why = run_op(cli, path, out_dir)
        known[name] = [expected, why or "pass"]
    return {"problems": problems, "known": known}


def reference_work() -> float:
    """Seconds of a fixed piece of work that does not touch the program,
    about REFERENCE_S: integer and Fraction arithmetic in the interpreter,
    and small and large numpy operations, like the program's own mix.
    Timed next to an op, it tells how fast the host ran at that moment.
    numpy is imported here, after set-up, so that set-up pays for it."""
    from fractions import Fraction
    import numpy as np
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i % 7
    a = Fraction(1, 3)
    for i in range(1, 1500):
        a = a * Fraction(i + 1, i) - Fraction(1, i + 7)
    x = np.arange(8.0)
    for _ in range(1500):
        x = np.sin(x) + x @ x * 1e-3
    y = np.ones(400000)
    for _ in range(10):
        y = y * 1.0001 + 1.0
    return time.perf_counter() - t0


def timed_passes(cli, cases, out_dir: Path, seconds: float):
    """Closed loop of PASSES passes over the cases; after two passes, one
    that would end past MAX_STRETCH * `seconds` is not started.  Returns
    each case's best scaled seconds, the ops run, the failures, and the
    cases whose output bytes differ between passes."""
    best = [float("inf")] * len(cases)
    digests = [set() for _ in cases]
    failures = []
    t_start = time.perf_counter()
    before = reference_work()
    done = 0
    while done < PASSES:
        elapsed = time.perf_counter() - t_start
        if done >= 2 and elapsed * (done + 1) / done > MAX_STRETCH * seconds:
            break
        for i, (case, path) in enumerate(cases):
            clear(out_dir)
            t0 = time.perf_counter()
            why = run_op(cli, path, out_dir)
            t = time.perf_counter() - t0
            after = reference_work()
            best[i] = min(best[i], t * REFERENCE_S / ((before + after) / 2))
            before = after
            digests[i].add(digest(out_dir))
            if why is not None:
                failures.append(f"{case.name} [{case.stratum}] {why}")
        done += 1
    mismatches = [case.name for (case, _), d in zip(cases, digests)
                  if len(d) > 1]
    return best, done * len(cases), failures, mismatches


def traced_loop(cli, cases, out_dir: Path, seconds: float, tracer):
    """Closed loop over the cases, cycling if the pool runs out, for
    `seconds` and at least MIN_TRACED_OPS ops, but never past MAX_STRETCH *
    `seconds` once two ops are done.  Each op runs untraced and traced back
    to back, in an order that alternates from op to op so that drifts in
    machine speed fall on both sides alike, and the two runs must write the
    same bytes.  Returns the per-op seconds keyed by traced (False/True),
    the failures, and the ops whose traced and untraced bytes differ."""
    times = {False: [], True: []}
    failures, mismatches = [], []
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if ((elapsed >= seconds and i >= MIN_TRACED_OPS)
                or (elapsed >= MAX_STRETCH * seconds and i >= 2)):
            break
        case, path = cases[i % len(cases)]
        order = (False, True) if i % 2 == 0 else (True, False)
        digests = set()
        for traced in order:
            clear(out_dir)
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                if traced:
                    why = tracer.op(run_op, cli, path, out_dir)
                else:
                    why = run_op(cli, path, out_dir)
                times[traced].append(time.perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
            digests.add(digest(out_dir))
            if why is not None:
                failures.append(f"{case.name} [{case.stratum}] {why}")
        if len(digests) > 1:
            mismatches.append(case.name)
        i += 1
    return times, failures, mismatches


def provenance(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "loop": "closed, 1 client"}


def show(name: str, value, unit: str):
    print(f"  {name:<34} {value:>14.6g} {unit}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    count = workloads.pool_size(args.workload, args.seconds / PASSES)
    cli, cases, first_setup = setup(args.workload, args.seed, count,
                                    work / "scenarios")
    setups = [first_setup * REFERENCE_S / reference_work()] + [
        in_child("setup_seconds", args.workload, str(args.seed), str(count),
                 str(work / f"setup-{k}"))
        for k in range(1, SETUP_REPEATS)]
    print("provenance " + json.dumps(provenance(args.workload, args.seed)))
    out_dir = work / "out"

    t0 = time.perf_counter()
    gate = in_child("correctness_gate", str(work))
    for p in gate["problems"]:
        print(f"gate: {p}")
    for name, (expected, observed) in gate["known"].items():
        state = "reproduced" if observed.startswith(expected) else "CHANGED"
        print(f"known defect {name}: {state}: expected {expected!r}, "
              f"observed {observed[:160]!r}")
    print(f"set-up samples {' '.join(f'{x:.3f}' for x in setups)} s; "
          f"gate and known defects {time.perf_counter() - t0:.2f} s, "
          f"peak RSS so far {_peak_rss_mb():.1f} MB")

    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        times, failures, mismatches = traced_loop(
            cli, cases, out_dir, args.seconds, tracer)
        for name in mismatches[:20]:
            print(f"trace: traced and untraced {name} wrote different bytes")
        tracer.write(WORK / "traces" / f"{args.workload}-{args.seed}.tsv.gz")
        attempted = len(times[False]) + len(times[True])
        metrics, shares = layer_metrics(tracer, len(times[True]))
        metrics["trace.overhead_share"] = (sum(times[True])
                                           / sum(times[False]) - 1)
        metrics["failed_share"] = len(failures) / attempted
        print("self-time share by layer: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items(),
                                              key=lambda kv: -kv[1])))
    else:
        t0 = time.perf_counter()
        best, attempted, failures, mismatches = timed_passes(
            cli, cases, out_dir, args.seconds)
        wall = time.perf_counter() - t0
        for name in mismatches[:20]:
            print(f"passes: {name} wrote different bytes in two passes")
        p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
        metrics = {
            "setup_s": statistics.median(setups),
            "scenario_s_p50": statistics.median(best),
            "scenario_s_p90": p90,
            "scenarios_per_s": len(best) / sum(best),
            "peak_rss_mb": _peak_rss_mb(),
        }
        beyond = sum(t > p90 for t in best)
        passes = attempted // len(cases)
        print(f"{attempted} ops ({len(cases)} scenarios x {passes} passes) "
              f"in {wall:.2f} s; {beyond} scenarios ({beyond * passes} ops) "
              f"beyond p90")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}:")
    for name, value in metrics.items():
        show(name, value, units[name])
    failed = len(failures)
    if not args.trace:
        show("failed_share", failed / attempted, "1")
    for f in failures[:20]:
        print(f"  failed op: {f}")
    correct = not gate["problems"] and failed == 0 and not mismatches
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
