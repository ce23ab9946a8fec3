"""Tests for the command-line front end: output, exit codes, determinism."""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from stringymass import MotivicRational, ONE, L, WildCyclicRep, l_power
from stringymass.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_mass_wild_human_output(capsys):
    code, out, _ = run(capsys, "mass", "wild", "--p", "3", "--blocks", "3")
    assert code == 0
    assert "mass: 2L + 1" in out
    assert "euler: 3" in out


def test_mass_wild_trivial_or_reflection_exits_2(capsys):
    code, _, err = run(capsys, "mass", "wild", "--p", "2", "--blocks", "1,1")
    assert code == 2
    assert "trivial/reflection" in err
    code, _, err = run(capsys, "mass", "wild", "--p", "2", "--blocks", "2")
    assert code == 2


def test_mass_wild_json_round_trip(capsys):
    code, report, _ = run_json(capsys, "mass", "wild", "--p", "2", "--blocks", "2,2,2")
    assert code == 0
    mass = MotivicRational.from_json(report["result"]["mass"])
    assert mass == WildCyclicRep(2, (2, 2, 2)).mass().value
    assert report["result"]["euler"] == "3/2"
    assert report["result"]["crepant_report"]["verdict"] == "obstructed"
    assert report["exit_code"] == 0


def test_mass_tame_output(capsys):
    code, report, _ = run_json(capsys, "mass", "tame", "--m", "3", "--weights", "1,1")
    assert code == 0
    mass = MotivicRational.from_json(report["result"]["mass"])
    assert mass == MotivicRational(ONE + l_power(Fraction(2, 3)) + l_power(Fraction(4, 3)))
    assert report["result"]["euler"] == "3"


def test_mass_divergent_diagnostic(capsys):
    code, report, err = run_json(capsys, "mass", "wild", "--p", "5", "--blocks", "2,2")
    assert code == 0
    assert report["result"]["mass"] == "infinity"
    assert "divergent" in err


def test_invalid_arguments_exit_2(capsys):
    assert run(capsys, "mass", "wild", "--p", "4", "--blocks", "2")[0] == 2
    assert run(capsys, "mass", "tame", "--m", "4", "--weights", "2")[0] == 2
    assert run(capsys, "serre", "--q", "6", "--n", "2")[0] == 2
    assert run(capsys, "serre", "--q", "9", "--n", "3")[0] == 2
    assert run(capsys, "stringy", "--input", "no-such-file.json")[0] == 2
    assert run(capsys, "sweep", "--p", "3", "--max-dim", "50")[0] == 2


def test_uniform_exit_codes(capsys):
    assert run(capsys, "uniform", "--p", "3", "--blocks", "2,2,2")[0] == 0
    assert run(capsys, "uniform", "--p", "2", "--blocks", "2,2,2")[0] == 1


def test_crepant_reports_obstruction_with_exit_0(capsys):
    code, report, _ = run_json(capsys, "crepant", "--p", "2", "--blocks", "2,2,2")
    assert code == 0
    assert report["result"]["verdict"] == "obstructed"
    assert "3/2" in report["result"]["reason"]


def test_serre_report(capsys):
    code, report, _ = run_json(capsys, "serre", "--q", "3", "--n", "2")
    assert code == 0
    result = report["result"]
    assert result["classes"] == 2
    assert result["aut_orders"] == [2, 2]
    assert result["mass"] == "1/3" == result["expected"]
    assert result["ok"] is True


def test_stringy_report_with_chi_and_duality(capsys):
    path = str(FIXTURES / "a1_resolution.json")
    code, report, _ = run_json(capsys, "stringy", "--input", path, "--with-chi")
    assert code == 0
    assert MotivicRational.from_json(report["result"]["motif"]) == MotivicRational(ONE + L)
    assert report["result"]["crepant"] is True
    assert report["result"]["chi_from_pst"] == "1"
    assert report["result"]["chi_direct"] == 1
    # duality fails in dimension 2 because the center is a point
    code, report, _ = run_json(capsys, "stringy", "--input", path, "--check-duality")
    assert code == 1
    assert report["result"]["duality"] == {"dimension": 2, "holds": False}
    code, report, _ = run_json(capsys, "stringy", "--input", path, "--check-duality", "1")
    assert code == 0
    assert report["result"]["duality"] == {"dimension": 1, "holds": True}


def test_sweep_rows(capsys):
    code, report, _ = run_json(capsys, "sweep", "--p", "2", "--max-dim", "4")
    assert code == 0
    rows = {tuple(row["blocks"]): row for row in report["result"]["rows"]}
    assert (2, 1, 1) in rows and rows[(2, 1, 1)]["reflection"] is True
    assert rows[(2, 2)]["uniform"] is True
    assert rows[(2, 2)]["verdict"] == "admissible"
    code, report, _ = run_json(capsys, "sweep", "--p", "3", "--max-dim", "3")
    blocks = [tuple(row["blocks"]) for row in report["result"]["rows"]]
    assert (3,) in blocks and (2, 2) not in blocks


def test_sweep_below_dimension_two_is_empty(capsys):
    code, report, _ = run_json(capsys, "sweep", "--p", "5", "--max-dim", "1")
    assert code == 0
    assert report["result"]["rows"] == []


def test_sweep_admissible_rows_have_integer_euler(capsys):
    for p in ("2", "3", "5"):
        _, report, _ = run_json(capsys, "sweep", "--p", p, "--max-dim", "8")
        for row in report["result"]["rows"]:
            if row["verdict"] == "admissible":
                assert "/" not in row["euler"]


def test_sweep_rows_reparse_to_library_values(capsys):
    _, report, _ = run_json(capsys, "sweep", "--p", "3", "--max-dim", "6")
    for row in report["result"]["rows"]:
        if row["reflection"]:
            continue
        rep = WildCyclicRep(3, tuple(row["blocks"]))
        mass = rep.mass()
        if mass.is_infinite:
            assert row["mass"] == "infinity"
        else:
            assert MotivicRational.from_json(row["mass"]) == mass.value


def test_output_is_deterministic(capsys):
    first = run(capsys, "sweep", "--p", "3", "--max-dim", "6", "--json")
    second = run(capsys, "sweep", "--p", "3", "--max-dim", "6", "--json")
    assert first == second
    assert run(capsys, "serre", "--q", "9", "--n", "4") == run(capsys, "serre", "--q", "9", "--n", "4")


@pytest.mark.parametrize("text", [
    '{"dimension": 2, "divisors": [{"id": "E1", "a": [1, 0]}], "strata": []}',
    '{"dimension": 2, "divisors": [{"id": "E1", "a": [0, 1]}],'
    ' "strata": [{"J": ["E1"], "class": [[1, 0, 1]]}]}',
], ids=["discrepancy", "class-triple"])
def test_stringy_zero_denominator_exits_2(capsys, tmp_path, text):
    path = tmp_path / "strata.json"
    path.write_text(text)
    code, _, err = run(capsys, "stringy", "--input", str(path))
    assert code == 2
    assert "--input" in err
    assert "Traceback" not in err


def _one_divisor(a, cls):
    return json.dumps({"dimension": 2, "divisors": [{"id": "E1", "a": a}],
                       "strata": [{"J": ["E1"], "class": cls}]})


@pytest.mark.parametrize("text", [
    _one_divisor([1, 200003], [[1, 1, 1], [0, 1, 1]]),
    json.dumps({"dimension": 2,
                "divisors": [{"id": "E1", "a": [1, 97]}, {"id": "E2", "a": [1, 89]}],
                "strata": [{"J": ["E1"], "class": [[1, 1, 1]]},
                           {"J": ["E2"], "class": [[1, 1, 1]]},
                           {"J": ["E1", "E2"], "class": [[0, 1, 1]]}]}),
    json.dumps({"dimension": 2, "divisors": [],
                "strata": [{"J": [], "class": [[3000000, 1, 1], [0, 1, 1]]}]}),
    # a near -1 adds (u^r - 1) of degree r = 10^6 with a denominator of degree 1
    _one_divisor([-999999, 1000000], [[0, 1, 1]]),
], ids=["large-prime-denominator", "two-coprime-denominators", "huge-class-exponent",
        "discrepancy-near-minus-one"])
def test_stringy_udegree_budget_exits_2_quickly(capsys, tmp_path, text):
    path = tmp_path / "strata.json"
    path.write_text(text)
    start = time.perf_counter()
    code, _, err = run(capsys, "stringy", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "--input" in err and "MAX_UDEGREE" in err
    assert "Traceback" not in err


def test_stringy_budget_admits_large_prime_denominator(capsys, tmp_path):
    path = tmp_path / "strata.json"
    path.write_text(_one_divisor([1, 2003], [[1, 1, 1], [0, 1, 1]]))
    code, report, _ = run_json(capsys, "stringy", "--input", str(path), "--with-chi")
    assert code == 0
    assert report["result"]["chi_from_pst"] == "1"


# sha256 of the --json standard output of fixed commands; a change to any byte
# of the report (exponents, coefficients, key order, rendering) shows here.
PINNED_JSON = {
    "sweep-p2": (("sweep", "--p", "2", "--max-dim", "10"),
                 "d838346c03b806f55a1504f54b897775b4668be8422f319d165f8a1507c8ec5a"),
    "sweep-p3": (("sweep", "--p", "3", "--max-dim", "10"),
                 "d3a70b0dc0eac01d64d465d2f792898e230697fce75af94e1b372b7e859547f2"),
    "sweep-p5": (("sweep", "--p", "5", "--max-dim", "10"),
                 "0d4e615b597bf34b7b6a7c3ada13be3dba04d9e718ca7a9bb9e105d554495d3d"),
    "sweep-p7": (("sweep", "--p", "7", "--max-dim", "10"),
                 "74ab15acd9a01b2d18c9a88de329831762fa76e3f9609a4579c7eed171f18eb3"),
    "stringy-a1": (("stringy", "--input", "a1_resolution.json", "--with-chi",
                    "--check-duality"),
                   "cee9665263b0dfdb34a9c62ea3d6055c5ddd05ec157f1258ab7a050a9afc65e7"),
    "stringy-one-third": (("stringy", "--input", "one_third_1_1_resolution.json",
                           "--with-chi", "--check-duality"),
                          "9c0a31a9c8d516268ab130df88d42457b0a47c014550608e240b682530935c5e"),
    "stringy-dense-k6": (("stringy", "--input", "dense_k6.json", "--with-chi"),
                         "db290e8ce55a880b7290fd777cdef134af8251339b4cdef86172326b004a91df"),
    "stringy-chain-37-21": (("stringy", "--input", "chain_37_21.json", "--with-chi"),
                            "e4ddf114bd1dafa9661d509b74272268707ca35030076775ec0f54e0f0864a80"),
    "mass-tame": (("mass", "tame", "--m", "12", "--weights", "1,5"),
                  "41138c3a8634b08b6aaad0f74f7fe1437cfed89d6bcc2bfc128e1a10e0f8ff49"),
    "mass-wild": (("mass", "wild", "--p", "3", "--blocks", "3,3"),
                  "06d69a23d744b3c1351504fba94d6141db20a9d42e447adb444a9f7c730339d8"),
    "serre": (("serre", "--q", "49", "--n", "12"),
              "ed3e491d3cf819fda7f28d1f5a137cb40d8f74cf1190b2511e9f7f23fa8cef5d"),
}


@pytest.mark.parametrize("name", PINNED_JSON)
def test_json_output_is_pinned(capsys, monkeypatch, name):
    argv, digest = PINNED_JSON[name]
    monkeypatch.chdir(FIXTURES)  # the report echoes --input, so keep it relative
    _, out, _ = run(capsys, *argv, "--json")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
