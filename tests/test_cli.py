"""Command line interface: verbs, exit codes, report schema."""

import json
import math

import numpy as np
import pytest

from freeform import cli
from freeform import geometry as geo
from freeform.spaceform import BallDomain, SpaceForm


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_verify_caps_passes(capsys):
    code, out, _ = run(["verify", "thm1", "--family", "caps", "--count", "3",
                        "--K", "0"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["suite"] == "thm1"
    assert doc["counts"]["fail"] == 0
    assert doc["counts"]["pass"] >= 1
    assert sum(doc["counts"].values()) == len(doc["records"])
    for rec in doc["records"]:
        assert set(rec) == {"suite", "shape", "n", "K", "k", "lhs", "rhs",
                            "ratio", "status", "hypotheses", "extra",
                            "quadrature"}
        assert set(rec["hypotheses"]) == set(cli.HYPOTHESIS_KEYS)
        assert rec["quadrature"] == {"order": 20, "level": 1}


def test_verify_disks(capsys):
    code, out, _ = run(["verify", "thm1", "--family", "disks", "--K", "0"],
                       capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert all(rec["shape"]["kind"] == "disk" for rec in doc["records"])


def test_verify_perturbed_deterministic(capsys):
    argv = ["verify", "thm1", "--family", "perturbed", "--count", "2",
            "--seed", "7", "--K", "0", "--k", "1"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == cli.EXIT_PASS
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_clock_s")
    d2.pop("wall_clock_s")
    assert d1 == d2


def test_verify_weighted_suite(capsys):
    code, out, _ = run(["verify", "thm4", "--family", "perturbed",
                        "--count", "2", "--seed", "3", "--K", "0", "--k", "1"],
                       capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert all(rec["status"] in ("pass", "inapplicable")
               for rec in doc["records"])


def test_thm4_records_carry_weight_gates(capsys):
    code, out, _ = run(["verify", "thm4", "--family", "caps", "--count", "2",
                        "--K", "all"], capsys)
    assert code == cli.EXIT_PASS
    for rec in json.loads(out)["records"]:
        hyp = rec["hypotheses"]
        assert isinstance(hyp["min_weight"], float) and hyp["min_weight"] > 0.0
        assert isinstance(hyp["substatic_min"], float)


@pytest.mark.parametrize("suite", ["thm4", "cor-convex", "reilly"])
def test_weighted_suites_on_disk_inapplicable(suite, capsys):
    """The disk lies in the zero set of V_a: gated, not a numerical failure."""
    code, out, _ = run(["verify", suite, "--family", "disks", "--K", "0"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["records"]
    for rec in doc["records"]:
        assert rec["status"] == "inapplicable"
        assert rec["lhs"] is None and rec["rhs"] is None
        assert rec["hypotheses"]["half_ball"] is False
        assert rec["hypotheses"]["min_weight"] == pytest.approx(0.0, abs=1e-12)


def test_verify_perez_and_kwong(capsys):
    code, out, _ = run(["verify", "perez", "--family", "closed", "--count",
                        "2", "--seed", "5", "--K", "0"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    names = {rec["suite"] for rec in doc["records"]}
    assert names == {"perez"}
    assert len(doc["records"]) == 6  # two formulations + linkage per shape

    code, out, _ = run(["verify", "kwong", "--family", "closed", "--count",
                        "2", "--seed", "5", "--K", "0"], capsys)
    assert code == cli.EXIT_PASS


def test_verify_identities(capsys):
    code, out, _ = run(["verify", "identities", "--family", "perturbed",
                        "--count", "1", "--seed", "2", "--K", "0"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert len(doc["records"]) == 4


def test_verify_reilly_suite(capsys):
    code, out, _ = run(["verify", "reilly", "--family", "perturbed",
                        "--count", "1", "--seed", "4", "--K", "0", "--k", "1",
                        "--cells", "800"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["records"][0]["status"] in ("pass", "inapplicable")


def test_verify_reilly_records_residuals_and_fails_on_coarse_grid(capsys):
    """The proof-chain record carries its residuals, and a residual above
    its tolerance fails the record even where final lhs <= rhs holds."""
    from freeform import reilly

    code, out, _ = run(["verify", "reilly", "--family", "perturbed",
                        "--count", "1", "--seed", "4", "--K", "0", "--k", "1",
                        "--cells", "200"], capsys)
    assert code == cli.EXIT_FAIL
    (rec,) = json.loads(out)["records"]
    assert rec["status"] == "fail"
    assert set(rec["extra"]) == set(reilly.RESIDUAL_TOLS)
    assert rec["extra"]["pde_residual"] > reilly.RESIDUAL_TOLS["pde_residual"]
    assert rec["lhs"] <= rec["rhs"]


def test_csv_format(capsys):
    code, out, _ = run(["verify", "thm1", "--family", "caps", "--count", "2",
                        "--K", "0", "--format", "csv"], capsys)
    assert code == cli.EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "suite,kind,n,K,k,lhs,rhs,ratio,status"
    assert len(lines) >= 3


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "thm1", "--family", "disks", "--K", "0",
                        "--out", str(path)], capsys)
    assert code == cli.EXIT_PASS
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["suite"] == "thm1"


def test_shape_file_input(tmp_path, capsys):
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    cap = geo.make_cap(sf, ball, 1.2, n=2)
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(geo.shape_to_json(cap)))
    code, out, _ = run(["verify", "thm1", "--shape", str(path)], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["records"][0]["shape"]["kind"] == "cap"


def test_exit_code_config_errors(capsys):
    # unknown suite is an argparse error -> SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense", "--family", "caps"])
    assert exc.value.code == 2
    # no family and no shape
    code, _, err = run(["verify", "thm1"], capsys)
    assert code == cli.EXIT_CONFIG
    assert "family" in err
    # bad k
    code, _, _ = run(["verify", "thm1", "--family", "caps", "--k", "9"],
                     capsys)
    assert code == cli.EXIT_CONFIG
    # disks outside K=0
    code, _, _ = run(["verify", "thm1", "--family", "disks", "--K", "1"],
                     capsys)
    assert code == cli.EXIT_CONFIG


def test_exit_code_bad_shape_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(["verify", "thm1", "--shape", str(bad)], capsys)
    assert code == cli.EXIT_CONFIG

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "dodecahedron"}))
    code, _, _ = run(["verify", "thm1", "--shape", str(wrong)], capsys)
    assert code == cli.EXIT_SHAPE


def test_sweep_csv(capsys):
    code, out, _ = run(["sweep", "thm1", "--epsilon", "0:0.03:0.015",
                        "--K", "0", "--k", "1"], capsys)
    assert code == cli.EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,lhs,rhs,ratio,status"
    assert len(lines) == 4
    first = lines[1].split(",")
    # epsilon = 0 is the umbilic cap: both sides vanish
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) <= 1e-10
    assert abs(float(first[2])) <= 1e-10


def test_sweep_bad_range(capsys):
    code, _, _ = run(["sweep", "thm1", "--epsilon", "oops"], capsys)
    assert code == cli.EXIT_CONFIG
    code, _, _ = run(["sweep", "thm1", "--epsilon", "0.1:0.0:0.01"], capsys)
    assert code == cli.EXIT_CONFIG


def test_describe_cap_closed_forms(capsys):
    code, out, _ = run(["describe", "--family", "caps", "--count", "1",
                        "--K", "0"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    docs = doc if isinstance(doc, list) else [doc]
    for d in docs:
        assert d["free_boundary_residual"]["position"] <= 1e-10
        assert d["free_boundary_residual"]["angle"] <= 1e-10
        assert d["non_umbilicity"] <= 1e-10


def test_describe_disk_values(tmp_path, capsys):
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    disk = geo.make_flat_disk(sf, ball, n=2)
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(geo.shape_to_json(disk)))
    code, out, _ = run(["describe", "--shape", str(path)], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["area"] == pytest.approx(math.pi, rel=1e-12)
    assert doc["boundary_measure"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert doc["average_H"]["1"] == pytest.approx(0.0, abs=1e-12)


def test_describe_cap_radius_one(tmp_path, capsys):
    sf = SpaceForm(0)
    ball = BallDomain(sf, 1.0)
    cap = geo.make_cap(sf, ball, 1.0, n=2)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(geo.shape_to_json(cap)))
    code, out, _ = run(["describe", "--shape", str(path)], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    assert doc["area"] == pytest.approx(2 * math.pi * (1 - 1 / math.sqrt(2)),
                                        rel=1e-10)
    assert doc["boundary_measure"] == pytest.approx(2 * math.pi / math.sqrt(2),
                                                    rel=1e-10)
    np.testing.assert_allclose(doc["kappa_range"], [1.0, 1.0], atol=1e-10)


def test_kwong_requires_closed(capsys):
    code, _, _ = run(["verify", "kwong", "--family", "caps", "--count", "1",
                      "--K", "0"], capsys)
    assert code == cli.EXIT_CONFIG


def test_cor_convex_requires_flat(capsys):
    code, _, _ = run(["verify", "cor-convex", "--family", "caps",
                      "--count", "1", "--K", "1"], capsys)
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("extra", [["--K", "1"], ["--K", "0", "--radius", "0.8"]])
def test_cor_lowdim_requires_unit_euclidean_ball(extra, capsys):
    code, _, err = run(["verify", "cor-lowdim", "--family", "caps",
                        "--count", "2", *extra], capsys)
    assert code == cli.EXIT_CONFIG
    assert "unit Euclidean ball" in err


def test_cor_lowdim_cases(capsys):
    code, out, _ = run(["verify", "cor-lowdim", "--family", "caps",
                        "--count", "2", "--K", "0", "--case", "i"], capsys)
    assert code == cli.EXIT_PASS
    doc = json.loads(out)
    for rec in doc["records"]:
        assert rec["lhs"] == pytest.approx(2 * math.pi, rel=1e-8)


@pytest.mark.parametrize("n,case", [("3", "i"), ("2", "ii")])
def test_cor_lowdim_case_must_match_dimension(n, case, capsys):
    code, out, err = run(["verify", "cor-lowdim", "--family", "caps",
                          "--count", "1", "--n", n, "--case", case], capsys)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert f"case ({case}) needs n=" in err
