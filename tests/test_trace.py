"""The contract between the package and the benchmark's span recorder.

``bench/spans.py`` wraps every public function of the package's modules from
outside and reads the programs that ``lp.solve_lp`` receives.  This runs
``analyze`` in-process under that recorder, so a renamed function or a
changed program shape shows up here and not only in a benchmark run.  A
profile solves its need programs in ``lp.solve_lps`` calls, a cold stack and
a restart stack, whose programs the recorder does not read, so a spy reads
them here.
"""

import importlib.util
from pathlib import Path

import priorstab.cli
from priorstab import DecisionProblem, Prior, stability_profile
from priorstab.cli import main
from priorstab.stability import NeedKind

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# c is strictly dominated by the even mixture of a and b; b is neither
# optimal at the reference prior nor dominated, so it takes a need program
UTILITIES = "act,s1,s2\na,1.0,0.0\nb,0.0,1.0\nc,0.2,0.2\n"
PRIORS = "prior,s1,s2\nref,0.7,0.3\n"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_analyze(spans_module, tmp_path, utilities, priors, monkeypatch):
    """Run ``analyze`` on the two CSV texts under the recorder; its spans,
    and per ``lp.solve_lps`` call of the profile, the rows and status of
    each program."""
    (tmp_path / "u.csv").write_text(utilities)
    (tmp_path / "p.csv").write_text(priors)
    argv = ["analyze", "--utilities", str(tmp_path / "u.csv"),
            "--priors", str(tmp_path / "p.csv"), "--out", str(tmp_path / "out")]
    stacks = []

    def spied(lps, **kwargs):
        # looked up at call time, so the recorder's wrapper records the span
        outs = priorstab.lp.solve_lps(lps, **kwargs)
        stacks.append([{"rows": lp.eq_matrix.shape[0], "status": out.status.value}
                       for lp, out in zip(lps, outs)])
        return outs

    monkeypatch.setattr(priorstab.stability, "solve_lps", spied)
    recorder = spans_module.Recorder()
    recorder.install()
    try:
        assert main(argv) == 0
    finally:
        recorder.uninstall()
    monkeypatch.undo()
    assert priorstab.cli.main is main  # the recorder left no wrapper behind
    assert priorstab.stability.solve_lps is priorstab.lp.solve_lps
    return recorder.take(), stacks


def need_stacks(spans):
    """The ``lp.solve_lps`` spans that a profile opens: a cold stack, and a
    restart stack where an act has a need at more than one prior."""
    return [s for s in spans if s[1] == "lp.solve_lps"
            and spans[s[0]][1] == "stability.stability_profile"]


def test_analyze_under_the_span_recorder(tmp_path, monkeypatch):
    spans_module = load_spans()
    spans, stacks = traced_analyze(spans_module, tmp_path, UTILITIES, PRIORS, monkeypatch)
    solves = [s for s in spans if s[1] == "lp.solve_lp"]
    assert solves
    by_caller = {}
    for parent, _, _, _, attrs in solves:
        assert set(attrs) == {"rows", "vars", "status"}
        by_caller.setdefault(spans[parent][1], []).append(attrs)
    # the certificate program has the simplex row and one row per state
    for attrs in by_caller["stability.strict_inadmissibility_certificate"]:
        assert attrs["rows"] == 1 + 2
        assert attrs["status"] == "optimal"
    # the need program, posed in dual form, has one row per state and the
    # row of the band budget; b is the one act pending at the one prior
    assert len(need_stacks(spans)) == len(stacks) == 1
    assert [len(stack) for stack in stacks] == [1]
    for attrs in stacks[0]:
        assert attrs["rows"] == 2 + 1
        assert attrs["status"] == "optimal"
    metrics = spans_module.layer_metrics(spans)
    # the recorder counts need solves only under per-row contamination_need
    assert metrics["lp.solves_need"] == 0
    assert metrics["lp.solves_certificate"] > 0


# e is strictly dominated by d; each of a, b, c and d is optimal under one of
# the four priors, so every act but e takes a need program under the other
# three, and the profile restarts each act's program from its first optimum
TABLE = [[1.0, 0.0, 0.2], [0.0, 1.0, 0.3], [0.4, 0.3, 1.0], [0.5, 0.5, 0.5], [0.2, 0.1, 0.2]]
MASSES = {"ref": [0.6, 0.3, 0.1], "p2": [0.2, 0.5, 0.3], "p3": [0.1, 0.2, 0.7],
          "p4": [0.4, 0.4, 0.2]}


def test_restarted_need_solves_keep_the_contract(tmp_path, monkeypatch):
    spans_module = load_spans()
    utilities = "act,s1,s2,s3\n" + "".join(
        f"{act},{','.join(map(str, row))}\n" for act, row in zip("abcde", TABLE)
    )
    priors = "prior,s1,s2,s3\n" + "".join(
        f"{name},{','.join(map(str, mass))}\n" for name, mass in MASSES.items()
    )
    spans, stacks = traced_analyze(spans_module, tmp_path, utilities, priors, monkeypatch)

    profile = stability_profile(
        DecisionProblem("abcde", ("s1", "s2", "s3"), TABLE),
        [Prior(name, mass) for name, mass in MASSES.items()],
    )
    measured = sum(
        not r.is_bayes and r.need.kind is NeedKind.VALUE for r in profile.rows
    )
    assert measured == 12
    needs = [i for i, s in enumerate(spans) if s[1] == "stability.contamination_need"]
    # a cold stack holding each of a, b, c and d at its first prior with a
    # need, and a restart stack holding the two later priors of each, every
    # member with one row per state and the band budget's row
    assert len(need_stacks(spans)) == len(stacks) == 2
    assert [len(stack) for stack in stacks] == [4, 8]
    assert sum(len(stack) for stack in stacks) == measured
    for stack in stacks:
        for attrs in stack:
            assert attrs["rows"] == 3 + 1
            assert attrs["status"] == "optimal"
    metrics = spans_module.layer_metrics(spans)
    # the profile calls no per-row contamination_need, under which alone
    # the recorder counts need calls and need solves
    assert metrics["lp.solves_need"] == 0
    assert metrics["stability.need_calls"] == len(needs) == 0
