import json

import pytest

from partstab import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


ARC_UNSTABLE = ["--kappa", "1", "--length", "4", "--sigma1", "1", "--sigma2", "1"]
ARC_STABLE = ["--kappa", "1", "--length", "0.5", "--sigma1", "1", "--sigma2", "1"]


def test_classify_exit_codes(capsys):
    code, report = run_json(capsys, "classify", *ARC_UNSTABLE)
    assert code == 20
    assert report["verdict"]["classification"] == "Unstable"
    assert report["verdict"]["evidence"] == "crit1-interval"

    code, report = run_json(capsys, "classify", *ARC_STABLE)
    assert code == 0
    assert report["verdict"]["classification"] == "Stable"


def test_classify_input_error_exit_code(capsys):
    code, _ = run(capsys, "classify", "--kappa", "1", "--length", "-1",
                  "--sigma1", "1", "--sigma2", "1")
    assert code == 2
    code, _ = run(capsys, "classify", "--kappa", "1")  # missing flags
    assert code == 2


def test_classify_output_is_deterministic(capsys):
    _, out1 = run(capsys, "classify", *ARC_UNSTABLE)
    _, out2 = run(capsys, "classify", *ARC_UNSTABLE)
    assert out1 == out2
    # floats carry at most 12 significant digits
    report = json.loads(out1)
    mu1 = report["verdict"]["mu1"]
    assert mu1 == float(format(mu1, ".12g"))


def test_classify_with_oracle(capsys):
    code, report = run_json(capsys, "classify", *ARC_UNSTABLE,
                            "--oracle", "--grid", "1001")
    assert code == 20
    assert report["oracle"]["grid"] == 1001
    assert report["oracle"]["abs_err"] < 1e-4


def test_oracle_commands_on_a_coarse_grid(capsys):
    # up to grid - 2 oracle eigenvalues on a 21-node grid
    code, report = run_json(capsys, "oracle-compare", *ARC_UNSTABLE,
                            "--grid", "21", "--eigs", "12")
    assert code == 0
    assert len(report["comparison"]["rows"]) == report["comparison"]["n_analytic_found"]
    _, report = run_json(capsys, "circle", "--radius", "1", "--max-n", "10",
                         "--oracle", "--grid", "21")
    assert len(report["oracle"]["eigenvalues"]) == 19


def test_tol_env_var_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("PARTSTAB_TOL", "1e-6")
    _, report = run_json(capsys, "classify", *ARC_STABLE)
    assert report["inputs"]["tol"] == 1e-6
    _, report = run_json(capsys, "classify", *ARC_STABLE, "--tol", "1e-9")
    assert report["inputs"]["tol"] == 1e-9


def test_sweep_csv_transitions(capsys):
    code, out = run(capsys, "sweep", "--kappa", "1", "--sigma1", "1",
                    "--sigma2", "1", "--l-min", "1", "--l-max", "7",
                    "--steps", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "L,mu1,class,evidence"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    by_length = {float(r[0]): (r[2], r[3]) for r in rows}
    assert by_length[1.0] == ("Stable", "spectrum-positive")
    assert by_length[4.0] == ("Unstable", "crit1-interval")
    assert by_length[7.0] == ("Unstable", "crit2-threshold")


def test_sweep_rejects_bad_range(capsys):
    code, _ = run(capsys, "sweep", "--kappa", "1", "--sigma1", "1",
                  "--sigma2", "1", "--l-min", "3", "--l-max", "1",
                  "--steps", "5")
    assert code == 2


def test_det_curve_sign_change(capsys):
    code, out = run(capsys, "det-curve", "--case", "II", *ARC_UNSTABLE,
                    "--x-max", "6", "--steps", "200")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,D,sign_change"
    flips = sum(int(line.split(",")[2]) for line in lines[1:])
    assert flips == 1


def test_det_curve_flat_case_one(capsys):
    # sigma = 0: sign changes at each multiple of pi
    code, out = run(capsys, "det-curve", "--case", "I", "--kappa", "1",
                    "--length", "2", "--sigma1", "0", "--sigma2", "0",
                    "--x-max", "10", "--steps", "400")
    assert code == 0
    flips = sum(int(line.split(",")[2]) for line in out.strip().splitlines()[1:])
    assert flips == 3


def test_sphere_report(capsys):
    code, report = run_json(capsys, "sphere", "--dim", "3", "--radius", "1",
                            "--max-l", "3")
    assert code == 0
    assert report["verdict"]["classification"] == "Stable"
    assert report["verdict"]["mu1"] == 4.0
    mus = {row["l"]: row["mu"] for row in report["spectrum"]}
    assert mus == {1: 0.0, 2: 4.0, 3: 10.0}
    assert report["spectrum"][0]["translation"] is True


def test_circle_report_with_oracle(capsys):
    code, report = run_json(capsys, "circle", "--radius", "1", "--max-n", "3",
                            "--oracle", "--grid", "1001")
    assert code == 0
    vals = report["oracle"]["eigenvalues"]
    expected = [0.0, 0.0, 3.0, 3.0, 8.0, 8.0]
    assert all(abs(v - e) < 5e-3 for v, e in zip(vals, expected))


def test_multiphase_disconnected(capsys, tmp_path):
    cfg = {"connected": False,
           "interfaces": [{"gamma": 1.0, "kappa": 1.0, "kappa_signed": 1.0,
                           "length": 1.0, "sigma": [1.0, 1.0]}] * 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, report = run_json(capsys, "multiphase", "--config", str(path))
    assert code == 20
    assert report["witness"]["delta2A"] == -9.0
    assert report["verdict"]["evidence"] == "disconnected-witness"


def test_multiphase_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"connected": True, "interfaces": []}))
    code, _ = run(capsys, "multiphase", "--config", str(path))
    assert code == 2


def test_oracle_compare_report(capsys):
    code, report = run_json(capsys, "oracle-compare", "--kappa", "1",
                            "--length", "2", "--sigma1", "0", "--sigma2", "0",
                            "--grid", "2001", "--eigs", "3")
    assert code == 0
    rows = report["comparison"]["rows"]
    assert len(rows) == 3
    assert max(r["rel_err"] for r in rows) <= 1e-4


def test_ellipse_csv(capsys):
    code, out = run(capsys, "ellipse", "--a", "2", "--b", "1",
                    "--samples", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x0,R"
    radii = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(radii) == 10
    assert all(r1 > r2 for r1, r2 in zip(radii, radii[1:]))
