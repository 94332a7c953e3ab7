"""The contract between the package and the benchmark's span recorder.

``bench/spans.py`` wraps every public function of the package's modules from
outside.  This runs ``analyze`` in-process under that recorder, so a renamed
function or a changed program shape shows up here and not only in a
benchmark run.  A profile solves its programs only in ``lp.solve_stack``
calls: one stack of certificate programs, a cold stack of need programs and
restart stacks.  The recorder reads none of their programs, so a spy reads
them here.
"""

import importlib.util
from pathlib import Path

import priorstab.cli
from priorstab import DecisionProblem, Prior, stability_profile
from priorstab.cli import main

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
    and per ``lp.solve_stack`` call of the profile, its kind and the rows of
    each program."""
    (tmp_path / "u.csv").write_text(utilities)
    (tmp_path / "p.csv").write_text(priors)
    argv = ["analyze", "--utilities", str(tmp_path / "u.csv"),
            "--priors", str(tmp_path / "p.csv"), "--out", str(tmp_path / "out")]
    stacks = []

    def spied(T, bases, costs):
        # looked up at call time, so the recorder's wrapper records the span
        priorstab.lp.solve_stack(T, bases, costs)
        # a need program's cost row has nonzeros past its first two columns
        # (the reference prior), a certificate program's none
        kind = "need" if costs[0, 2:].any() else "certificate"
        stacks.append((kind, [{"rows": T.shape[1] - 1} for _ in T]))

    monkeypatch.setattr(priorstab.stability, "solve_stack", spied)
    recorder = spans_module.Recorder()
    recorder.install()
    try:
        assert main(argv) == 0
    finally:
        recorder.uninstall()
    monkeypatch.undo()
    assert priorstab.cli.main is main  # the recorder left no wrapper behind
    assert priorstab.stability.solve_stack is priorstab.lp.solve_stack
    return recorder.take(), stacks


def profile_stacks(spans):
    """The ``lp.solve_stack`` spans that a profile opens: a certificate
    stack where an act is Bayes at no profile or probe prior, a cold need
    stack, and a restart stack where an act has a need at more than one
    prior."""
    return [s for s in spans if s[1] == "lp.solve_stack"
            and spans[s[0]][1] == "stability.stability_profile"]


def test_analyze_under_the_span_recorder(tmp_path, monkeypatch):
    spans_module = load_spans()
    spans, stacks = traced_analyze(spans_module, tmp_path, UTILITIES, PRIORS, monkeypatch)
    # every stack is a call of the public lp.solve_stack under the profile
    assert len(profile_stacks(spans)) == len(stacks) == 2
    assert [s for s in spans if s[1] == "lp.solve_stack"] == profile_stacks(spans)
    # c's certificate program has a row per state and the weights' budget
    # row; b's need program, posed in dual form, a row per state and the
    # band budget's row; b is the one act pending at the one prior
    assert stacks == [("certificate", [{"rows": 2 + 1}]), ("need", [{"rows": 2 + 1}])]
    metrics = spans_module.layer_metrics(spans)
    # a profile solves only in lp.solve_stack calls, so no span is of the
    # per-program solve the recorder counts, and it makes no per-row
    # contamination_need call (the certificate counter names a function
    # that no longer exists, so it reads 0 everywhere)
    assert not [s for s in spans if s[1] == "lp.solve_lp"]
    assert metrics["lp.solves_need"] == metrics["lp.solves_certificate"] == 0
    assert metrics["stability.certificate_calls"] == 0


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
        not r.is_bayes and r.need.epsilon is not None for r in profile.rows
    )
    assert measured == 12
    needs = [i for i, s in enumerate(spans) if s[1] == "stability.contamination_need"]
    # e's certificate program, then a cold stack holding each of a, b, c and
    # d at its first prior with a need, and a restart stack holding the two
    # later priors of each, every need member with one row per state and the
    # band budget's row
    assert len(profile_stacks(spans)) == len(stacks) == 3
    assert [(kind, len(stack)) for kind, stack in stacks] == [
        ("certificate", 1), ("need", 4), ("need", 8)]
    assert sum(len(stack) for _, stack in stacks[1:]) == measured
    for _, stack in stacks[1:]:
        for attrs in stack:
            assert attrs["rows"] == 3 + 1
    metrics = spans_module.layer_metrics(spans)
    # the profile calls no per-row contamination_need, under which alone
    # the recorder counts need calls and need solves
    assert metrics["lp.solves_need"] == 0
    assert metrics["stability.need_calls"] == len(needs) == 0
