"""Cold-process benchmark of the arrsheaf CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``.  Each
job is one CLI run in a fresh interpreter, launched one at a time (a closed
loop with one client): the package keeps its caches in module globals, so a
warm process would serve repeats from memory, while users pay the cold cost
on every run.  A pass runs every job of the workload once, on inputs
rewritten by a draw from the seed (see ``seeded_text``); passes repeat while
one more as slow as the slowest so far fits in S seconds (at least one pass).

With ``--trace 0`` the run reports the end-to-end metrics, each a median
over passes where it is a time: ``wall_s`` (one pass), ``setup_s``
(interpreter start, ``import arrsheaf`` and parsing the input, summed over
the jobs, each the median of several probe processes) and ``peak_rss_mb``
(largest child ``ru_maxrss``).  With ``--trace 1`` untraced and traced
passes alternate and the run reports the per-layer metrics of tracer.py,
plus ``cli.cpu_s``, ``cli.import_s`` and the tracing overhead; the spans of
the first traced pass are kept in ``.work/spans-NAME.json``.  The last line
of stdout is one JSON object; lines before it print the same figures for
people, with ``error_rate`` and the wall time of each untraced pass.  See
NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from check import verify
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

RUN_DEADLINE_S = 160.0        # no job runs past this; runs end inside 180 s
JOB_CAP_S = 120.0             # wall-time cap of one job
ADDRESS_SPACE_CAP = 2 << 30   # RLIMIT_AS of one job, bytes
SETUP_PROBES = 25             # least probe processes per job for setup_s


@dataclass(frozen=True)
class Job:
    entry: str                # catalog entry under inputs/
    args: tuple[str, ...]     # CLI arguments before the input path
    field: str | None = None  # replaces the entry's field line


# The Q oracle job (oracle --module D --cover coords --window -6:6 --kmax 8
# on generic-3-4) is left out: on a shared 2-core VM, three workloads fit the
# time budget only with short runs, and short runs did not hold still.  The
# oracle still runs in report-fp (mod-p) and Q ranks still run in
# verdicts-ell4.
WORKLOADS = {
    # lattice side at ell = 4: certificate, kernel bases, D table; no oracle
    "verdicts-ell4": (
        Job("braid-4", ("report", "--skip-kunneth")),
        Job("generic-4-6", ("report", "--skip-kunneth")),
    ),
    # every layer, mod-p RowReducer path, report's duplicated engine calls;
    # the cross-engine window and depth are below the defaults (-6:6, 8) so
    # that a job takes a few seconds and a run holds a dozen passes; one edge
    # cell still fails to stabilize and is excluded, as at the defaults
    "report-fp": (Job("braid-3", ("report", "--kunneth-window", "-3:3", "--kmax", "5"),
                      field="Fp 2147483647"),),
}
SELF_TEST_JOB = Job("boolean-2", ("report",))

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_yield") else "count"


class BenchError(RuntimeError):
    """The harness cannot produce a trustworthy result."""


# ---------------------------------------------------------------------------
# inputs


def seeded_text(job: Job, seed: int) -> str:
    """The catalog entry under a signed permutation of the coordinates and an
    order of the hyperplanes, both drawn from (seed, entry); seed 0 is the
    identity.  The draw is fixed for the whole run, so every pass runs the
    same inputs and two commits run the same inputs for a given seed."""
    lines = (HERE / "inputs" / f"{job.entry}.arr").read_text().splitlines()
    head = [ln for ln in lines if not ln.startswith("hyperplane")]
    if job.field:
        head = [f"field {job.field}" if ln.startswith("field") else ln for ln in head]
    normals = [ln.split()[1:] for ln in lines if ln.startswith("hyperplane")]
    if seed:
        rng = random.Random(f"{seed}:{job.entry}")
        ell = len(normals[0])
        perm = rng.sample(range(ell), ell)
        signs = [rng.choice((1, -1)) for _ in range(ell)]
        moved = []
        for normal in normals:
            out = [""] * ell
            for j, c in enumerate(normal):
                out[perm[j]] = str(signs[j] * Fraction(c))
            moved.append(out)
        normals = rng.sample(moved, len(moved))
    return "\n".join(head + ["hyperplane " + " ".join(n) for n in normals]) + "\n"


# ---------------------------------------------------------------------------
# one capped process


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    timed_out: bool


def _job_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARRSHEAF_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def launch(argv: list[str], stdout: Path, stderr: Path, cap_s: float) -> Outcome:
    """Run argv to completion under the caps; rusage comes from wait4."""
    timed_out = threading.Event()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=_job_env(), cwd=ROOT,
                                preexec_fn=_cap_address_space)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(cap_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, timed_out.is_set())


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    maxrss_mb: float = 0.0
    import_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)


class Runner:
    def __init__(self, workdir: Path, deadline: float, reference: dict):
        self.workdir = workdir
        self.deadline = deadline
        self.reference = reference
        self.count = 0

    def paths(self, stem: str) -> tuple[Path, Path, Path]:
        self.count += 1
        base = self.workdir / f"{self.count:04d}-{stem}"
        return base.with_suffix(".out"), base.with_suffix(".err"), base.with_suffix(".spans")

    def run_job(self, job: Job, path: Path, traced: bool):
        """One job; returns (outcome, payload or None, spans, import_s, error)."""
        out, err, spans_path = self.paths(job.entry)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                    *job.args, str(path)]
        else:
            argv = [sys.executable, "-m", "arrsheaf.cli", *job.args, str(path)]
        cap = min(JOB_CAP_S, self.deadline - time.perf_counter())
        outcome = launch(argv, out, err, cap)
        if outcome.timed_out:
            return outcome, None, [], 0.0, f"killed after {cap:.0f} s"
        if outcome.code != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            return outcome, None, [], 0.0, f"exit {outcome.code}: {' | '.join(tail)}"
        try:
            payload = json.loads(out.read_text())
        except ValueError as exc:
            return outcome, None, [], 0.0, f"stdout is not JSON ({exc})"
        spans, import_s = [], 0.0
        if traced:
            recorded = json.loads(spans_path.read_text())
            spans, import_s = recorded["spans"], recorded["import_s"]
        return outcome, payload, spans, import_s, None

    def run_pass(self, workload: str, inputs: dict, traced: bool) -> PassResult:
        result = PassResult()
        start = time.perf_counter()
        for job in WORKLOADS[workload]:
            key = f"{workload}/{job.entry}"
            outcome, payload, spans, import_s, error = self.run_job(
                job, inputs[job.entry], traced)
            if error is None:
                error = verify(payload, self.reference[key])
            result.attempted += 1
            result.cpu_s += outcome.cpu_s
            result.maxrss_mb = max(result.maxrss_mb, outcome.maxrss_mb)
            result.import_s += import_s
            result.spans.append(spans)
            if error is not None:
                result.failed += 1
                sys.stderr.write(f"perfbench: {key} failed: {error}\n")
        result.wall_s = time.perf_counter() - start
        return result


PROBE = ("import sys, arrsheaf.cli\n"
         "from arrsheaf.arrangement import parse_arrangement\n"
         "with open(sys.argv[1], encoding='utf-8') as fh:\n"
         "    parse_arrangement(fh.read())\n")


def probe_setup(runner: Runner, workload: str, inputs: dict, samples: dict) -> None:
    """One probe process per job: interpreter start, import and parse."""
    for job in WORKLOADS[workload]:
        out, err, _ = runner.paths("probe")
        outcome = launch([sys.executable, "-c", PROBE, str(inputs[job.entry])],
                         out, err, JOB_CAP_S)
        if outcome.code != 0:
            raise BenchError(f"setup probe on {job.entry} exited {outcome.code}: "
                             f"{err.read_text(errors='replace').strip()[-300:]}")
        samples.setdefault(job.entry, []).append(outcome.wall_s)


def self_test(runner: Runner, seed: int) -> None:
    """boolean-2 traced at seed 0, so every hook must resolve, and untraced
    at another seed; both must match the stored reference."""
    job = SELF_TEST_JOB
    for s, traced in ((0, True), (seed or 1, False)):
        path = runner.workdir / f"selftest-{s}.arr"
        path.write_text(seeded_text(job, s))
        _, payload, spans, _, error = runner.run_job(job, path, traced)
        if error is None and traced and not spans:
            error = "traced run recorded no spans"
        if error is None:
            expected = runner.reference[f"self-test/{job.entry}"]
            error = verify(payload, expected)
        if error is not None:
            raise BenchError(f"self-test on {job.entry} (seed {s}) failed: {error}")


# ---------------------------------------------------------------------------
# the run


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "arrsheaf" / "cli.py").is_file():
        raise BenchError(f"no arrsheaf sources under {SRC}")
    started = time.perf_counter()
    reference = json.loads((HERE / "reference.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir, started + RUN_DEADLINE_S, reference)
        self_test(runner, seed)
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        samples: dict[str, list[float]] = {}
        measured = slowest = 0.0
        inputs = {}
        for job in WORKLOADS[workload]:
            inputs[job.entry] = workdir / f"{job.entry}.arr"
            inputs[job.entry].write_text(seeded_text(job, seed))
        while True:
            if not trace:
                probe_setup(runner, workload, inputs, samples)
            plain.append(runner.run_pass(workload, inputs, traced=False))
            spent = plain[-1].wall_s
            if trace:
                traced.append(runner.run_pass(workload, inputs, traced=True))
                spent += traced[-1].wall_s
            measured += spent
            slowest = max(slowest, spent)
            if measured + slowest > seconds:
                break
        while not trace and len(next(iter(samples.values()))) < SETUP_PROBES:
            probe_setup(runner, workload, inputs, samples)
        passes = plain + traced
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        wall = statistics.median(p.wall_s for p in plain)
        if trace:
            (WORK / f"spans-{workload}.json").write_text(
                json.dumps(traced[0].spans))
            per_pass = [layer_metrics(p.spans) for p in traced]
            metrics = {name: statistics.median(m[name] for m in per_pass)
                       for name in per_pass[0]}
            metrics["cli.import_s"] = statistics.median(p.import_s for p in traced)
            metrics["cli.cpu_s"] = statistics.median(p.cpu_s for p in plain)
            metrics["trace.overhead_s"] = (
                statistics.median(p.wall_s for p in traced) - wall)
            units = {name: _unit(name) for name in metrics}
        else:
            setup_s = sum(statistics.median(v) for v in samples.values())
            metrics = {"wall_s": wall, "setup_s": setup_s,
                       "peak_rss_mb": max(p.maxrss_mb for p in plain)}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"{'error_rate':32s} {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(f"{'passes':32s} {len(plain)} untraced, {len(traced)} traced")
    print(f"{'untraced pass wall_s':32s} " + " ".join(f"{p.wall_s:.3f}" for p in plain))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
