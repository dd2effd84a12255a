"""The vcn benchmark: named workloads of CLI verbs and API calls, end to end.

Usage (from the root of a checkout; nothing needs to be installed):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's seeded input files with ``bench/inputs.py``
in a fresh interpreter.  With ``--trace 0`` the workload's operation list
then runs as a closed loop with one client, one fresh ``python -m vcn`` or
``bench/driver.py`` process at a time (started through ``bench/launch.py``,
which records the process's peak RSS), in passes that alternate with runs
of the heaviest operation, until about S seconds are spent.  The
end-to-end metrics are medians over each operation's runs, and
``setup_s`` is the median of set-up repeated between operations all
through the run.  With ``--trace 1`` the same operations run in this
process, once plain and once with every layer function wrapped (see
tracing.py); the per-layer metrics come from the traced pass and
``trace.overhead_s`` is the difference between the two.  Every answer is
checked outside the timed window.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# (name, unit) of every end-to-end metric.
END_TO_END = (("wall_s", "s"), ("largest_op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Set-up is timed again after an operation once this many seconds have
# passed since its last sample, so its samples span the whole run.
SETUP_GAP_S = 1.0
STARTUP_REPEATS = 15
OP_TIMEOUT_S = 60.0
# Past this many seconds since start no new pass begins and operations
# are cut short, so that a run always ends within 180 s.
RUN_DEADLINE_S = 160.0


@dataclass
class Outcome:
    op: object
    code: int | None  # None: timed out
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float  # peak resident set of the process; 0 in process
    problem: str | None = None


@dataclass
class Pass:
    wall_s: float
    outcomes: list[Outcome]


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


def _text(data) -> str:
    return data.decode(errors="replace") if isinstance(data, bytes) else data or ""


def run_subprocess(op, timeout: float, work: Path) -> Outcome:
    """Run one operation as a fresh process through bench/launch.py.

    The launcher records the child's own peak RSS; CPU time is the growth
    of this process's children rusage, as children run one at a time.
    """
    peak = work / ".peak_rss_kib"
    peak.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "launch.py"), str(peak), "driver" if op.driver else "vcn", *op.argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, cwd=work, env=_child_env(), timeout=timeout)
        code, stdout, stderr = proc.returncode, _text(proc.stdout), _text(proc.stderr)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        code, stdout, stderr = None, _text(exc.stdout), _text(exc.stderr) + f"timed out after {timeout:.0f} s"
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    rss_mb = int(peak.read_text()) / 1024 if peak.is_file() else 0.0
    return Outcome(op, code, stdout, stderr, wall, cpu, rss_mb)


class _OpTimeout(BaseException):
    """Raised by the alarm in an in-process operation; no handler in vcn catches it."""


@contextmanager
def _alarm(seconds: float):
    def fire(signum, frame):
        raise _OpTimeout

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_inprocess(op, timeout: float, work: Path) -> Outcome:
    import driver
    import vcn.cli

    out, err = io.StringIO(), io.StringIO()
    cpu0, t0 = process_time(), perf_counter()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            with _alarm(timeout):
                if op.driver:
                    print(driver.run(*op.argv))
                else:
                    code = vcn.cli.main(list(op.argv))
        except _OpTimeout:
            code = None
            print(f"timed out after {timeout:.0f} s", file=sys.stderr)
        except Exception:  # a traceback is a wrong outcome, like a crashed process
            code = 1
            traceback.print_exc()
    return Outcome(op, code, out.getvalue(), err.getvalue(), perf_counter() - t0, process_time() - cpu0, 0.0)


def run_pass(ops, execute, deadline: float, work: Path, after_op=None) -> Pass:
    """Run the operation list once, then judge every answer outside the timing.

    after_op(), if given, runs after each operation, outside its timing.
    """
    import workloads

    outcomes = []
    t0 = perf_counter()
    for op in ops:
        outcomes.append(execute(op, max(1.0, min(OP_TIMEOUT_S, deadline - perf_counter())), work))
        if after_op:
            after_op()
    wall = perf_counter() - t0
    for o in outcomes:
        o.problem = workloads.judge(o.op, o.code, o.stdout, o.stderr, work)
    return Pass(wall, outcomes)


def repeat(step, seconds: float, deadline: float) -> list:
    """Call step() until one more call as slow as the slowest so far would overrun."""
    results, walls = [], []
    while not results or (sum(walls) + max(walls) <= seconds and perf_counter() + max(walls) <= deadline):
        t0 = perf_counter()
        results.append(step())
        walls.append(perf_counter() - t0)
    return results


def _run_timed(argv: list[str]) -> None:
    """Run a child to completion; raise on a failure or after OP_TIMEOUT_S.

    The output goes through pipes on purpose: with a timeout and no pipes,
    Popen.wait polls the child with sleeps of up to 50 ms, which would be
    timed with it.  Reading the pipes to their end returns as the child exits.
    """
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, timeout=OP_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(_text(proc.stderr))
        raise subprocess.CalledProcessError(proc.returncode, argv)


def time_setup(workload: str, seed: int, work: Path) -> float:
    shutil.rmtree(work, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(work)]
    t0 = perf_counter()
    _run_timed(argv)
    return perf_counter() - t0


def time_startup() -> float:
    """One vcn process that does no work: the interpreter, the imports, --help."""
    t0 = perf_counter()
    _run_timed([sys.executable, "-m", "vcn", "--help"])
    return perf_counter() - t0


class SetupSampler:
    """Repeats set-up between operations, at most once every SETUP_GAP_S.

    The host's speed drifts over tens of seconds; samples spread over the
    whole run give a steadier median than a burst of repeats at its start.
    """

    def __init__(self, workload: str, seed: int, work: Path, first: float):
        self.args = (workload, seed, work / "setup-sample")
        self.samples = [first]
        self.last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self.last >= SETUP_GAP_S:
            self.samples.append(time_setup(*self.args))
            self.last = perf_counter()


def measure_end_to_end(ops, seconds, deadline, work, setup: SetupSampler):
    """Alternate passes of the operation list with runs of its heaviest operation.

    A user waits longest for the heaviest operation, and the host's speed
    drifts over tens of seconds, so its runs are spread over the whole run
    and fill the time no further pass fits into; that steadies largest_op_s
    and, as it is the largest share of the list, wall_s too.  A pass or a
    run starts only while one as long as the longest so far still fits.
    """
    end = min(perf_counter() + seconds, deadline)
    runs = [[] for _ in ops]
    passes, pass_s = 0, 0.0

    def fits(duration: float) -> bool:
        return perf_counter() + duration <= end

    def heaviest() -> int:
        return max(range(len(ops)), key=lambda i: median(o.wall_s for o in runs[i]))

    def run_heaviest() -> bool:
        heavy = heaviest()
        if not fits(max(o.wall_s for o in runs[heavy])):
            return False
        runs[heavy] += run_pass([ops[heavy]], run_subprocess, deadline, work, setup).outcomes
        return True

    while passes == 0 or fits(pass_s):
        t0 = perf_counter()
        for op_runs, outcome in zip(runs, run_pass(ops, run_subprocess, deadline, work, setup).outcomes):
            op_runs.append(outcome)
        passes, pass_s = passes + 1, max(pass_s, perf_counter() - t0)
        run_heaviest()
    while run_heaviest():
        pass
    heavy = heaviest()

    # Per-operation medians over the runs resist a slow phase of the host
    # that hits a few operations of one pass.
    def per_op(field):
        return [median(getattr(o, field) for o in op_runs) for op_runs in runs]

    metrics = {
        "wall_s": sum(per_op("wall_s")),
        "largest_op_s": max(per_op("wall_s")),
        "peak_rss_mb": max(per_op("rss_mb")),
        "setup_s": median(setup.samples),
    }
    n = f"{passes} passes, heaviest operation {len(runs[heavy])} runs, median per operation"
    samples = {"wall_s": n, "largest_op_s": n, "peak_rss_mb": n, "setup_s": len(setup.samples)}
    notes = [f"diagnostic cpu_s {sum(per_op('cpu_s')):.4f} s (user+system CPU of the processes; {n})"]
    return runs, metrics, samples, notes


def measure_layers(ops, seconds, deadline, work):
    import tracing

    startup = [time_startup() for _ in range(STARTUP_REPEATS)]

    def traced_pair():
        plain = run_pass(ops, run_inprocess, deadline, work)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_pass(ops, run_inprocess, deadline, work)
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = traced.wall_s - plain.wall_s
        return plain, traced, values

    pairs = repeat(traced_pair, seconds, deadline)
    passes = [p for plain, traced, _ in pairs for p in (plain, traced)]
    runs = [[p.outcomes[i] for p in passes] for i in range(len(ops))]
    per_pass = [values for _, _, values in pairs]
    metrics = {"cli.startup_s": median(startup)}
    metrics.update({k: median(v[k] for v in per_pass) for k in per_pass[0]})
    samples = {k: len(per_pass) for k in metrics}
    samples["cli.startup_s"] = len(startup)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    notes = [
        f"in-process pass {median(p.wall_s for p in passes[0::2]):.4f} s untraced, "
        f"{median(p.wall_s for p in passes[1::2]):.4f} s traced; layer self time {self_total:.4f} s"
    ]
    return runs, metrics, samples, notes


def report(workload, seed, runs, metrics, units, samples, notes) -> dict:
    """Print the human-readable lines and return the result object.

    runs holds, for each operation of the list, the outcomes of its runs.
    """
    outcomes = [o for op_runs in runs for o in op_runs]
    failed = [o for o in outcomes if o.problem]
    print(f"workload {workload}, seed {seed}, {len(runs)} operations")
    print(f"{'operation':34} {'runs':>4} {'median wall s':>13} {'median cpu s':>12}")
    for op_runs in runs:
        name = op_runs[0].op.name
        wall, cpu = median(o.wall_s for o in op_runs), median(o.cpu_s for o in op_runs)
        print(f"{name:34} {len(op_runs):4} {wall:13.4f} {cpu:12.4f}")
    for o in failed:
        print(f"WRONG {o.op.name}: {o.problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} (samples: {samples[name]})")
    print(f"failed_ratio {len(failed) / len(outcomes):.6g} ({len(failed)} of {len(outcomes)} operations)")
    for line in notes:
        print(line)
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    started = perf_counter()
    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/vcn/__init__.py", "tests/instance_gen.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a vcn checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload == "zar-search":
        print("zar-search has no random input: the seed is ignored")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    deadline = started + RUN_DEADLINE_S
    try:
        first_setup = time_setup(args.workload, args.seed, work)
        ops = workloads.operations(args.workload, args.seed, work)
        if args.trace:
            import tracing

            units = dict(tracing.PER_LAYER)
            runs, metrics, samples, notes = measure_layers(ops, args.seconds, deadline, work)
        else:
            # only the untraced run reports setup_s, so only it repeats set-up
            setup = SetupSampler(args.workload, args.seed, work, first_setup)
            units = dict(END_TO_END)
            runs, metrics, samples, notes = measure_end_to_end(ops, args.seconds, deadline, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = report(args.workload, args.seed, runs, metrics, units, samples, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
