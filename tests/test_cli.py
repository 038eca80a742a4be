import json
import os

import pytest

from relcheck.cli import EXIT_FAIL, EXIT_PASS, EXIT_UNKNOWN, EXIT_USAGE, main
from relcheck.corpus import corpus_dir
from relcheck.diagram import render_svg
from relcheck.model import Scenario


@pytest.fixture()
def tau_scenario(tmp_path):
    data = {
        "kind": "stl",
        "observers": {
            "a": {"base": ["0", "0", "0", "0"], "dir": ["1", "0", "0", "0"]},
            "b": {"base": ["0", "-1", "0", "0"], "dir": ["1", "0", "0", "0"]},
        },
        "signals": {
            "e1": {"beg": ["0", "0", "0", "0"], "end": ["0", "0", "0", "0"]},
            "e2": {"beg": ["2", "0", "0", "0"], "end": ["2", "0", "0", "0"]},
            "ray": {"beg": ["0", "0", "0", "0"], "end": ["1", "1", "0", "0"]},
        },
    }
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_axiom_file(capsys):
    path = os.path.join(corpus_dir(), "ax_axsim.fol")
    assert main(["parse", path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("Defined Sim") == 3


def test_parse_expand_definition(capsys):
    path = os.path.join(corpus_dir(), "def_ev.fol")
    assert main(["parse", path, "--expand", "1"]) == EXIT_PASS
    out = capsys.readouterr().out.strip()
    assert out == "forall a:Ob. T(a, s) <-> R(a, s)"


def test_parse_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.fol"
    bad.write_text("forall a:Ob. T(a,")
    assert main(["parse", str(bad)]) == EXIT_USAGE


def test_eval_tau_query(tau_scenario, capsys):
    code = main(
        ["eval", "--scenario", tau_scenario, "--formula", "exists c:Ob. Tau(c,b,e1,e2)"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "verdict: true" in out
    assert '"0", "2", "0", "0"' in out.replace("'", '"')


def test_eval_false_gives_exit_1(tau_scenario, capsys):
    code = main(["eval", "--scenario", tau_scenario, "--predicate", "Prec", "--args", "e2,e1"])
    assert code == EXIT_FAIL


def test_eval_false_universal_with_counterexample(tau_scenario, capsys):
    # the scenario ships a non-degenerate signal, refuting forall s. Ev(s)
    code = main(["eval", "--scenario", tau_scenario, "--formula", "forall s:Si. Ev(s)"])
    assert code == EXIT_FAIL


def test_eval_unknown_gives_exit_3(tau_scenario, capsys):
    code = main(["eval", "--scenario", tau_scenario, "--formula", "forall a:Ob. M(a,a)"])
    out = capsys.readouterr().out
    assert code == EXIT_UNKNOWN
    assert "forall a:Ob" in out


@pytest.mark.parametrize("observer", ["stl", "ftl"])
def test_eval_simftl_of_a_signal_with_itself(observer, capsys):
    scenario = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios", "ftl.json")
    code = main(["eval", "--scenario", scenario, "--predicate", "SimFTL",
                 "--args", f"{observer},ray,ray"])
    assert code == EXIT_PASS
    assert "verdict: true" in capsys.readouterr().out


@pytest.mark.parametrize("observer", ["stl", "ftl"])
def test_eval_deltaftl_of_a_signal_with_itself(observer, capsys):
    # DeltaFTL's first disjunct holds with every primed signal = ray, since
    # SimFTL relates ray to itself and both observers transmit it
    scenario = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios", "ftl.json")
    code = main(["eval", "--scenario", scenario, "--predicate", "DeltaFTL",
                 "--args", f"{observer},ray,ray,ray,ray"])
    assert code == EXIT_PASS
    assert "verdict: true" in capsys.readouterr().out


def test_eval_stl_on_ftl_scenario(tmp_path, capsys):
    data = {
        "kind": "ftl",
        "observers": {"f": {"base": ["0", "0", "0", "0"], "dir": ["0", "1", "0", "0"]}},
        "signals": {},
    }
    path = tmp_path / "ftl.json"
    path.write_text(json.dumps(data))
    code = main(["eval", "--scenario", str(path), "--predicate", "STL", "--args", "f"])
    assert code == EXIT_FAIL


@pytest.mark.parametrize(
    "formula, atom",
    [
        ("exists q:Si. (T(stl,q) & ray = q)", "T(stl,ray)"),
        ("exists q:Si. (R(stl,q) & ray = q)", "R(stl,ray)"),
    ],
)
def test_eval_equality_with_quantified_signal(formula, atom, capsys):
    # an "=" atom naming the quantified signal is no T/R constraint on its
    # endpoints; q = ray makes the formula the plain atom, or UNKNOWN
    scenario = os.path.join(os.path.dirname(__file__), "..", "demos", "scenarios", "ftl.json")
    want = main(["eval", "--scenario", scenario, "--formula", atom])
    assert want in (EXIT_PASS, EXIT_FAIL)
    assert main(["eval", "--scenario", scenario, "--formula", formula]) in (want, EXIT_UNKNOWN)


def test_eval_bad_scenario_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "stl", "observers": {"x": {"base": ["0","0","0","0"], "dir": ["1","1","0","0"]}}}')
    assert main(["eval", "--scenario", str(path), "--formula", "forall a:Ob. STL(a)"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "a scenario must be a JSON object"),
        ('{"kind": "stl", "observers": [1]}', "'observers' must be an object"),
        ('{"kind": "stl", "observers": {"a": [0, 0]}}', "observer 'a' must be an object"),
    ],
)
def test_malformed_scenario_shape_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert main(["eval", "--scenario", str(path), "--formula", "forall a:Ob. STL(a)"]) == EXIT_USAGE
    assert main(["diagram", "--scenario", str(path), "--out", str(tmp_path / "x.svg")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count(f"scenario error: {message}") == 2
    assert "Traceback" not in err


def test_verify_writes_report_and_is_seeded(tmp_path, capsys):
    report1 = tmp_path / "r1.json"
    report2 = tmp_path / "r2.json"
    for rpt in (report1, report2):
        code = main(
            [
                "verify", "--system", "simplerel", "--model", "stl",
                "--suite", "lemmas", "--cases", "5", "--seed", "42",
                "--report", str(rpt),
            ]
        )
        assert code == EXIT_PASS
    assert report1.read_bytes() == report2.read_bytes()
    payload = json.loads(report1.read_text())
    assert payload["reports"][0]["budget"]["seed"] == 42


def test_verify_unknown_flags(capsys):
    assert main(["verify", "--bogus"]) == EXIT_USAGE


@pytest.mark.parametrize("flag", ["--cases", "--bound"])
@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_verify_counts_below_one_are_usage_errors(flag, value, capsys):
    # --bound -1 used to end in randrange's "empty range" traceback
    assert main(["verify", "--suite", "lemmas", flag, value]) == EXIT_USAGE
    assert "integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_eval_candidates_below_one_are_usage_errors(tau_scenario, value, capsys):
    # --candidates -1 used to slice the pool to pool[:-1], dropping its last
    # entry, so "exists c:Ob. (c = b)" came back UNKNOWN
    formula = "exists c:Ob. (c = b)"
    assert main(["eval", "--scenario", tau_scenario, "--formula", formula, "--candidates", value]) == EXIT_USAGE
    assert "integer >= 1" in capsys.readouterr().err
    assert main(["eval", "--scenario", tau_scenario, "--formula", formula, "--candidates", "2"]) == EXIT_PASS


def test_diagram_deterministic(tau_scenario, tmp_path, capsys):
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    for out in (out1, out2):
        assert main(["diagram", "--scenario", tau_scenario, "--plane", "t-x1", "--out", str(out)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "stroke-dasharray" in text  # the null signal renders dashed
    assert text.count("<circle") >= 2


def test_diagram_bad_plane(tau_scenario, tmp_path):
    assert (
        main(["diagram", "--scenario", tau_scenario, "--plane", "t-x9", "--out", str(tmp_path / "x.svg")])
        == EXIT_USAGE
    )


def test_diagram_empty_scenario(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"kind": "stl", "observers": {}, "signals": {}}')
    out = tmp_path / "empty.svg"
    assert main(["diagram", "--scenario", str(path), "--out", str(out)]) == EXIT_PASS
    assert "<svg" in out.read_text()


def test_ftl_observer_slope_below_one():
    scen = Scenario.from_dict(
        {
            "kind": "ftl",
            "observers": {"f": {"base": ["0", "0", "0", "0"], "dir": ["1", "2", "0", "0"]}},
            "signals": {},
        }
    )
    svg = render_svg(scen, "t-x1")
    # the spacelike worldline spans the full horizontal extent but less than
    # half the vertical: slope magnitude < 1 in the t-x1 projection
    import re

    lines = [l for l in svg.splitlines() if "#204080" in l and "<line" in l]
    coords = [float(x) for x in re.findall(r'[xy][12]="([-0-9.]+)"', lines[-1])]
    x1, y1, x2, y2 = coords
    assert abs(y2 - y1) < abs(x2 - x1)


def test_corpus_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RELCHECK_CORPUS", str(tmp_path))
    assert corpus_dir() == str(tmp_path)


def test_diagram_with_irrational_coordinates_is_deterministic(tmp_path, capsys):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps({
        "kind": "ftl",
        "observers": {
            "a": {"base": ["0", "sqrt(2)", "0", "0"], "dir": ["1", "0", "0", "0"]},
            "f": {"base": ["0", "0", "0", "0"], "dir": ["1", "sqrt(1 + sqrt(2))", "0", "0"]},
        },
        "signals": {"ray": {"beg": ["0", "0", "0", "0"], "end": ["sqrt(2)", "sqrt(2)", "0", "0"]}},
    }))
    outs = [tmp_path / "a.svg", tmp_path / "b.svg"]
    for out in outs:
        assert main(["diagram", "--scenario", str(path), "--out", str(out)]) == EXIT_PASS
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert "<svg" in outs[0].read_text()
