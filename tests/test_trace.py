"""The contract between the package and the benchmark's span recorder.

``bench/spans.py`` wraps every public function of the package's modules from
outside and reads the programs that ``lp.solve_lp`` receives.  This runs
``analyze`` in-process under that recorder, so a renamed function or a
changed program shape shows up here and not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import priorstab.cli
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


def test_analyze_under_the_span_recorder(tmp_path):
    spans_module = load_spans()
    (tmp_path / "u.csv").write_text(UTILITIES)
    (tmp_path / "p.csv").write_text(PRIORS)
    argv = ["analyze", "--utilities", str(tmp_path / "u.csv"),
            "--priors", str(tmp_path / "p.csv"), "--out", str(tmp_path / "out")]
    recorder = spans_module.Recorder()
    recorder.install()
    try:
        assert main(argv) == 0
    finally:
        recorder.uninstall()
    assert priorstab.cli.main is main  # the recorder left no wrapper behind

    spans = recorder.take()
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
    # row of the band budget
    for attrs in by_caller["stability.contamination_need"]:
        assert attrs["rows"] == 2 + 1
        assert attrs["status"] == "optimal"
    metrics = spans_module.layer_metrics(spans)
    assert metrics["lp.solves_need"] > 0
    assert metrics["lp.solves_certificate"] > 0
