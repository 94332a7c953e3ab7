"""priorstab benchmark: two workloads, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-pipeline --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client: it repeats whole rounds of
operations until ``--seconds`` have passed, one operation at a time.  An
operation is one ``priorstab`` CLI subprocess (run from ``src/``) or one
in-process ``stability_profile`` call.  After each round, outside the timed
region, every output is checked by ``check.py``; an operation fails if it
exits nonzero or its output fails a check.  With ``--trace 1`` the same
rounds run in-process through ``priorstab.cli.main`` and the per-layer
metrics come from spans recorded around the package's public functions.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import check
import spans
import workloads as wl

WORKLOADS = ("paper-pipeline", "dense-tables")
IMPORT_REPEATS = 3       # fresh interpreters per traced run for cli.import_s
MAX_NEED_CHECKS = 300    # HiGHS need checks per distinct report
RUN_LIMIT_S = 120.0      # start no round after this, whatever --seconds says

SETUP_CODE = (
    "import sys\n"
    "from priorstab import cli, io\n"
    "args = sys.argv[1:]\n"
    "for name, path in zip(args[::2], args[1::2]):\n"
    "    getattr(io, name)(path)\n"
)
IMPORT_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import priorstab.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Op:
    """One operation of a round; a round may repeat an op.  Exactly one of
    ``argv``, ``prepare`` and ``loads`` is set."""
    name: str                 # names its output directory and its samples
    metric: str               # the end-to-end metric its time feeds
    check: Callable | None = None  # (Op, stdout or profile rows) -> list of errors
    argv: list | None = None  # CLI arguments
    prepare: Callable | None = None  # -> (problem, priors) for an in-process profile
    loads: list | None = None  # set-up: io loader names and paths, alternating
    depends: tuple = ()       # ops whose outputs the check also reads


class Run:
    def __init__(self, root: str, workload: str, seed: int):
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.work = os.path.join(root, ".bench_runs", f"{workload}-seed{seed}-{os.getpid()}")
        self.inputs = os.path.join(self.work, "inputs")
        os.makedirs(self.inputs)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p)
        self.highs = check.HighsCache()
        self.verdicts: dict[str, list[str]] = {}
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env)

    def out(self, name: str) -> str:
        return os.path.join(self.work, "out", name)

    def spawn(self, argv: list[str], log: str) -> tuple[int, float, int]:
        """(exit code, wall seconds, peak RSS in KiB) of one child process,
        with its stdout and stderr in ``log``.out and ``log``.err."""
        self.launcher.stdin.write(json.dumps(
            {"argv": argv, "stdout": log + ".out", "stderr": log + ".err"}) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        reply = json.loads(reply)
        return reply["code"], reply["wall"], reply["maxrss_kib"]

    def interpreter(self, code: str, args=()) -> tuple[float, str]:
        """Wall time and stdout of a fresh interpreter running ``code``."""
        log = os.path.join(self.work, "interpreter")
        status, elapsed, _ = self.spawn([sys.executable, "-c", code, *args], log)
        if status != 0:
            raise RuntimeError(f"interpreter failed: {read_text(log + '.err').strip()}")
        return elapsed, read_text(log + ".out")

    def run_cli(self, op: Op) -> tuple[int, float, str, int]:
        """(exit code, wall seconds, stdout, peak RSS in KiB) of one subprocess."""
        os.makedirs(self.out(op.name), exist_ok=True)
        log = self.out(op.name) + ".log"
        code, elapsed, rss = self.spawn([sys.executable, "-m", "priorstab", *op.argv], log)
        return code, elapsed, read_text(log + ".out"), rss

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def run_main(self, op: Op) -> tuple[int, float, str]:
        """(exit code, wall seconds, stdout) of priorstab.cli.main in-process."""
        import priorstab.cli
        os.makedirs(self.out(op.name), exist_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = priorstab.cli.main(op.argv)
            except Exception:
                traceback.print_exc()
                code = 1
        return code, time.perf_counter() - t0, stdout.getvalue()

    def run_profile(self, op: Op) -> tuple[float, dict, int]:
        """(wall seconds, report-shaped rows, row count) of one profile call."""
        import priorstab.stability
        problem, priors = op.prepare()
        t0 = time.perf_counter()
        profile = priorstab.stability.stability_profile(problem, priors)
        elapsed = time.perf_counter() - t0
        return elapsed, profile_doc(profile, problem, priors), len(profile.rows)

    def verify(self, op: Op, stdout: str, doc: dict | None = None) -> list[str]:
        """Check an op's output once per distinct content."""
        digest = hashlib.sha256(op.name.encode())
        digest.update(stdout.encode())
        if doc is not None:
            digest.update(json.dumps(doc, sort_keys=True).encode())
        for name in (op.name, *op.depends):
            directory = self.out(name)
            for fname in sorted(os.listdir(directory)) if os.path.isdir(directory) else ():
                with open(os.path.join(directory, fname), "rb") as fh:
                    digest.update(fname.encode() + fh.read())
        key = digest.hexdigest()
        if key not in self.verdicts:
            try:
                self.verdicts[key] = op.check(op, doc if doc is not None else stdout)
            except Exception as exc:  # a malformed report is a failed check
                self.verdicts[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return self.verdicts[key]

    def need_rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, zlib.crc32(name.encode())])


def profile_doc(profile, problem, priors) -> dict:
    """A stability_profile result in the shape of analyze's stability.json."""
    rows = []
    for r in profile.rows:
        cert = r.need.certificate
        rows.append({
            "prior": r.prior,
            "act": r.act,
            "is_bayes": bool(r.is_bayes),
            "expected_utility": float(r.expected_utility),
            "rob": check.NOT_BAYES if r.radius.epsilon is None else float(r.radius.epsilon),
            "con": check.INADMISSIBLE if r.need.epsilon is None else float(r.need.epsilon),
            "certificate": None if cert is None else {
                "weights": {a: float(w) for a, w in cert.weights.items()},
                "margins": [float(x) for x in cert.margins],
            },
        })
    return {
        "acts": list(problem.acts),
        "states": list(problem.states),
        "priors": [{"name": p.name, "mass": [float(x) for x in p.mass]} for p in priors],
        "rows": rows,
    }


def read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workload plans: the operations of one round, with their checks.

class Table:
    """A utilities file and its priors, parsed apart from priorstab."""

    def __init__(self, utilities: str, priors: str):
        self.utilities_path = utilities
        self.priors_path = priors

    def load(self):
        acts, states, U = check.read_table(read_text(self.utilities_path), "act")
        names, pstates, masses = check.read_table(read_text(self.priors_path), "prior")
        if pstates != states:
            raise ValueError("benchmark priors and utilities disagree on the states")
        return acts, states, U, names, masses / masses.sum(axis=1, keepdims=True)


class TableOps:
    """Builds the analyze, path, baselines and profile ops on one table."""

    def __init__(self, run: Run, tag: str, table: Table, priors_flag: bool = True):
        self.run, self.tag, self.table, self.priors_flag = run, tag, table, priors_flag
        self.analyze_name = f"analyze-{tag}"

    def _argv(self, command: str, name: str, *extra) -> list[str]:
        argv = [command, "--utilities", self.table.utilities_path]
        if self.priors_flag:
            argv += ["--priors", self.table.priors_path]
        return argv + list(extra) + ["--out", self.run.out(name)]

    def _stability(self, doc: dict, op: Op) -> list[str]:
        acts, states, U, names, masses = self.table.load()
        return check.check_stability(doc, acts, states, U, names, masses,
                                     self.run.need_rng(op.name), MAX_NEED_CHECKS,
                                     self.run.highs)

    def analyze(self) -> Op:
        def verify(op, stdout):
            return self._stability(read_json(os.path.join(self.run.out(op.name), "stability.json")), op)

        name = self.analyze_name
        return Op(name, "analyze_s", verify, self._argv("analyze", name))

    def path(self, prior: str) -> Op:
        def verify(op, stdout):
            acts, _, U, _, _ = self.table.load()
            return check.check_path(
                read_json(os.path.join(self.run.out(op.name), "path.json")),
                read_json(os.path.join(self.run.out(self.analyze_name), "stability.json")),
                acts, U, prior, 3.0)

        name = f"path-{self.tag}-{prior}"
        return Op(name, "path_s", verify, self._argv("path", name, "--prior", prior),
                  depends=(self.analyze_name,))

    def baselines(self, prior: str) -> Op:
        def verify(op, stdout):
            acts, _, U, names, masses = self.table.load()
            return check.check_baselines(
                read_text(os.path.join(self.run.out(op.name), "baselines.csv")), stdout,
                acts, U, prior, masses[names.index(prior)], 0.1, 0.5, 0.5)

        name = f"baselines-{self.tag}-{prior}"
        return Op(name, "baselines_s", verify, self._argv("baselines", name, "--prior", prior))

    def profile(self) -> Op:
        """An in-process profile of the table under all its priors."""
        def prepare():
            from priorstab.core import DecisionProblem, Prior
            acts, states, U, names, masses = self.table.load()
            priors = [Prior(n, p) for n, p in zip(names, masses)]
            return DecisionProblem(acts, states, U), priors

        return Op(f"profile-{self.tag}", "profile_rows_per_s",
                  lambda op, doc: self._stability(doc, op), prepare=prepare)


def scenarios_op(run: Run, name: str, files: dict, panel: dict, weights: str) -> Op:
    def verify(op, stdout):
        out = run.out(op.name)
        return check.check_scenarios(
            read_text(os.path.join(out, "regimes.csv")), read_text(os.path.join(out, "utilities.csv")),
            panel["months"], panel["returns"], wl.ASSETS, panel["planted"], read_text(weights),
            wl.REGIMES)

    argv = ["scenarios", "--monthly", files["monthly"], "--daily", files["daily"],
            "--weights", weights, "--out", run.out(name)]
    return Op(name, "scenarios_s", verify, argv)


def plan(run: Run, workload: str) -> list[Op]:
    """The ops of one round.

    Every kind of op recurs through the round, so that each metric samples
    the whole round rather than one stretch of it.
    """
    weights = os.path.join(run.src, "priorstab", "data", "default_weights.csv")
    panel = wl.make_panel(run.seed)
    files = wl.write_panel(run.inputs, panel)
    scenarios = scenarios_op(run, "scenarios", files, panel, weights)
    if workload == "paper-pipeline":
        catalog = os.path.join(run.src, "priorstab", "data", "default_priors.csv")
        table = Table(os.path.join(run.out("scenarios"), "utilities.csv"), catalog)
        chain = TableOps(run, "catalog", table, priors_flag=False)
        setup = Op("setup", "setup_s", loads=["load_monthly", files["monthly"],
                                              "load_daily", files["daily"],
                                              "load_weights", weights])
        analyze, profile, baselines = chain.analyze(), chain.profile(), chain.baselines("uniform")
        paths = [chain.path(prior) for prior in check.read_table(read_text(catalog), "prior")[0]]
        for op in (analyze, profile, baselines, *paths):
            op.depends += ("scenarios",)
        ops = []
        for first, second in zip(paths[::2], paths[1::2]):
            ops += [setup, scenarios, analyze, first, profile, baselines, second, profile]
        return ops
    tables, loads = [], []
    for index, (n, m) in enumerate(wl.DENSE_SHAPES):
        tag = f"t{index + 1}"
        t = wl.make_dense_table(run.seed, index, n, m, wl.DENSE_PRIORS)
        f = wl.write_table(run.inputs, tag, t)
        tables.append((TableOps(run, tag, Table(f["utilities"], f["priors"])), t["prior_names"][0]))
        loads += ["load_utilities", f["utilities"], "load_priors", f["priors"]]
    setup = Op("setup", "setup_s", loads=loads)
    ops = []
    for table, first in tables:
        ops += [setup, scenarios, table.analyze(), table.path(first), table.baselines(first),
                table.profile()]
    return ops


# ---------------------------------------------------------------------------
# Measurement.

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def record(self, op: Op, code: int, errors: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"{op.name}: exit code {code}")
        elif errors:
            self.failed += 1
            self.wrong += 1
            self.errors.append(f"{op.name}: {errors[0]}")


def another_round(start: float, round_start: float, seconds: float) -> bool:
    """Start another round if it would end nearer ``seconds`` than stopping
    now does, judging its length by the round just finished."""
    now = time.perf_counter()
    return now - start + 0.5 * (now - round_start) < min(seconds, RUN_LIMIT_S)


def summarize(metric: str, by_op: dict[str, list[float]], rows: dict[str, int]) -> float:
    """One metric from its samples: the median of each op's samples, then
    the mean over ops (rows over seconds for the profile), so that every op
    weighs the same however its samples fell in the run."""
    medians = {name: statistics.median(times) for name, times in by_op.items()}
    if metric == "profile_rows_per_s":
        return sum(rows[name] for name in medians) / sum(medians.values())
    return statistics.fmean(medians.values())


def measure(run: Run, ops: list[Op], seconds: int) -> tuple[dict, Tally]:
    """Untraced rounds until ``seconds`` have passed, checks included."""
    tally = Tally()
    setup = next(op for op in ops if op.loads is not None)
    run.interpreter(SETUP_CODE, setup.loads)  # fills the bytecode cache
    samples: dict[str, dict[str, list[float]]] = {}  # metric -> op name -> seconds
    rows: dict[str, int] = {}
    peak_kib = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        pending = []
        for op in ops:
            if op.loads is not None:
                elapsed = run.interpreter(SETUP_CODE, op.loads)[0]
            elif op.argv is not None:
                code, elapsed, stdout, rss = run.run_cli(op)
                peak_kib = max(peak_kib, rss)
                pending.append((op, code, stdout, None))
            else:
                elapsed, doc, rows[op.name] = run.run_profile(op)
                pending.append((op, 0, "", doc))
            samples.setdefault(op.metric, {}).setdefault(op.name, []).append(elapsed)
        for op, code, stdout, doc in pending:
            tally.record(op, code, run.verify(op, stdout, doc) if code == 0 else [])
        if not another_round(start, round_start, seconds):
            break

    metrics = {metric: (summarize(metric, by_op, rows),
                        "rows/s" if metric == "profile_rows_per_s" else "s")
               for metric, by_op in samples.items()}
    metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    print("samples per metric:", json.dumps(
        {metric: sum(map(len, by_op.values())) for metric, by_op in samples.items()}),
        file=sys.stderr)
    return metrics, tally


def measure_traced(run: Run, ops: list[Op], seconds: int, trace_path: str) -> tuple[dict, Tally]:
    """Alternate untraced and traced in-process rounds; per-layer metrics are
    medians over the traced rounds.  Set-up ops are left out: they start an
    interpreter, and ``cli.import_s`` measures that apart."""
    tally = Tally()
    recorder = spans.Recorder()
    walls = {False: [], True: []}
    per_round: list[dict] = []
    kept: list[list] = []
    ops = [op for op in ops if op.loads is None]

    def one_round(traced: bool) -> None:
        wall = 0.0
        pending = []
        if traced:
            recorder.install()
        try:
            for op in ops:
                if op.argv is not None:
                    code, elapsed, stdout = run.run_main(op)
                    pending.append((op, code, stdout, None))
                else:
                    elapsed, doc, _ = run.run_profile(op)
                    pending.append((op, 0, "", doc))
                wall += elapsed
        finally:
            recorder.uninstall()
        walls[traced].append(wall)
        if traced:
            round_spans = recorder.take()
            metrics = spans.layer_metrics(round_spans)
            metrics["trace.wall_s"] = wall
            metrics["trace.accounted_share"] = sum(
                metrics[f"{layer}.self_s"] for layer in spans.LAYERS) / wall
            per_round.append(metrics)
            kept.append(round_spans)
        for op, code, stdout, doc in pending:
            tally.record(op, code, run.verify(op, stdout, doc) if code == 0 else [])

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        one_round(False)
        one_round(True)
        if not another_round(start, round_start, seconds):
            break
    spans.write_spans(trace_path, kept)

    metrics = {name: (statistics.median(r[name] for r in per_round), spans.unit_of(name))
               for name in per_round[0]}
    untraced = statistics.median(walls[False])
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (statistics.median(walls[True]) - untraced, "s")
    imports = [float(run.interpreter(IMPORT_CODE)[1]) for _ in range(IMPORT_REPEATS)]
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    for name, lines in spans.source_lines(os.path.join(run.src, "priorstab")).items():
        metrics[name] = (lines, "lines")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "priorstab", "cli.py")):
        print("bench: no src/priorstab here; run from the root of a priorstab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    run = Run(root, args.workload, args.seed)
    try:
        ops = plan(run, args.workload)
        if args.trace:
            trace_path = os.path.join(root, ".bench_runs",
                                      f"spans-{args.workload}-seed{args.seed}.csv")
            metrics, tally = measure_traced(run, ops, args.seconds, trace_path)
        else:
            metrics, tally = measure(run, ops, args.seconds)
    finally:
        run.close()
        shutil.rmtree(run.work, ignore_errors=True)

    for line in tally.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
