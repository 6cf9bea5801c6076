import json
import math

import pytest

from robinsphere.capbody import octant_fixture, save_body
from robinsphere.cli import main, parse_beta
from robinsphere.report import CSV_COLUMNS, VerificationReport


def test_parse_beta():
    assert parse_beta("-1.5") == -1.5
    assert parse_beta("tan(0.8)") == pytest.approx(math.tan(0.8))
    # tan(pi/2) is about 1.6e16 in floating point: finite, so accepted
    assert parse_beta(f"tan({math.pi / 2!r})") == math.tan(math.pi / 2)


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "tan(nan)"])
def test_ball_eig_non_finite_beta_is_input_error(beta, capsys):
    # the bracket scan never sees a sign change for these and used to hang
    assert main(["ball-eig", "--r", "1.0", f"--beta={beta}"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf"])
def test_ball_eig_non_finite_radius_is_input_error(radius, capsys):
    assert main(["ball-eig", "--r", radius, "--beta", "-1"]) == 2
    assert "radius" in capsys.readouterr().err


def test_ball_eig_neumann(capsys):
    assert main(["ball-eig", "--n", "2", "--r", "0.8", "--beta", "0"]) == 0
    out = capsys.readouterr().out
    assert "lambda = 0.0" in out


def test_ball_eig_cosine_family(capsys, tmp_path):
    csv = tmp_path / "phi.csv"
    code = main(
        ["ball-eig", "--n", "2", "--r", "0.8", "--beta", "tan(0.8)", "--out", str(csv)]
    )
    assert code == 0
    lam = float(capsys.readouterr().out.split("=")[1])
    assert lam == pytest.approx(2.0, abs=1e-8)
    lines = csv.read_text().splitlines()
    assert lines[0] == "rho,phi"
    assert len(lines) > 4000


def test_ball_eig_invalid_radius(capsys):
    assert main(["ball-eig", "--n", "2", "--r", "2.0", "--beta", "-1"]) == 2
    assert "pi/2" in capsys.readouterr().err


def test_verify_thm1_octant(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    code = main(
        [
            "verify-thm1",
            "--fixture",
            "octant",
            "--betas",
            "-1",
            "--k",
            "1024",
            "--json",
            str(out_json),
            "--csv",
            str(out_csv),
        ]
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1
    assert payload["overall"] is True
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1].startswith("octant,-1.0,")


def test_verify_thm1_ball_fixture_sets_equality_flags(tmp_path):
    out_json = tmp_path / "report.json"
    code = main(
        ["verify-thm1", "--fixture", "cap:0.8", "--betas", "-1", "--k", "1024",
         "--json", str(out_json)]
    )
    assert code == 0
    payload = json.loads(out_json.read_text())
    checks = payload["reports"][0]["checks"]
    assert all(c.get("equality") for c in checks)


def test_verify_thm2_random_corpus(tmp_path):
    code = main(
        ["verify-thm2", "--random", "1", "2", "--betas=-0.5,-1", "--k", "1024"]
    )
    assert code == 0


def test_body_file_round_trip(tmp_path):
    path = tmp_path / "octant.body"
    save_body(octant_fixture(), path)
    assert main(["profile", "--body-file", str(path), "--k", "256"]) == 0


def test_profile_writes_csv(tmp_path):
    out = tmp_path / "profile.csv"
    code = main(["profile", "--fixture", "cap:0.9", "--k", "128", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "body_id,t,perimeter"
    assert len(lines) == 130
    assert lines[1] == f"cap:0.9,0.0,{2 * math.pi * math.sin(0.9)!r}"


def test_profile_csv_keeps_every_body(tmp_path):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--random", "1", "2", "--k", "64", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["body_id", "t", "perimeter"]
    ids = [row[0] for row in rows[1:]]
    assert ids == ["random-001-k3"] * 65 + ["random-002-k4"] * 65


@pytest.mark.parametrize("command", ["profile", "steiner-check", "af-check"])
def test_commands_without_rows_write_no_csv(command, tmp_path):
    out = tmp_path / "table.csv"
    assert main([command, "--fixture", "octant", "--csv", str(out)]) == 0
    assert not out.exists()


def test_steiner_and_af_checks():
    assert main(["steiner-check", "--fixture", "octant"]) == 0
    assert main(["af-check", "--random", "1", "2"]) == 0


def test_hyp_witness(tmp_path, capsys):
    out = tmp_path / "witness.json"
    assert main(["hyp-witness", "--delta", "0.1", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["margin"] > 0
    assert "margin" in capsys.readouterr().out


def test_missing_body_source_is_input_error(capsys):
    assert main(["verify-thm1", "--betas", "-1"]) == 2
    assert "body source" in capsys.readouterr().err


def test_positive_beta_rejected(capsys):
    assert main(["verify-thm1", "--fixture", "octant", "--betas", "1.0"]) == 2


def test_config_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "ball-eig", "n": 2, "r": 0.8, "beta": "0"}))
    assert main(["--config", str(cfg)]) == 0
    assert "lambda = 0.0" in capsys.readouterr().out
    assert main(["--config", str(cfg), "--beta", "tan(0.8)"]) == 0
    lam = float(capsys.readouterr().out.split("=")[1])
    assert lam == pytest.approx(2.0, abs=1e-8)


def test_determinism_byte_identical_outputs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out_json = tmp_path / f"{tag}.json"
        out_csv = tmp_path / f"{tag}.csv"
        code = main(
            ["verify-thm1", "--random", "3", "2", "--betas", "-1", "--k", "512",
             "--json", str(out_json), "--csv", str(out_csv)]
        )
        assert code == 0
        outs.append((out_json.read_bytes(), out_csv.read_bytes()))
    assert outs[0] == outs[1]


def test_hyp_witness_invalid_delta(capsys):
    assert main(["hyp-witness", "--delta", "-0.5"]) == 2


def test_parallel_jobs_match_serial(tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out_csv = tmp_path / f"jobs{jobs}.csv"
        code = main(
            ["verify-thm1", "--random", "1", "2", "--betas", "-1", "--k", "512",
             "--jobs", jobs, "--csv", str(out_csv)]
        )
        assert code == 0
        outs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]


def test_exit_code_on_verification_failure(capsys):
    # the exit-code contract, driven through the report emitter directly
    from robinsphere.cli import _emit_reports

    class Args:
        json = None
        csv = None

    failing = VerificationReport(name="synthetic")
    failing.add("forced failure", 1.0, 0.0, -1.0, False)
    assert _emit_reports(Args(), [failing], []) == 1
    assert "FAIL" in capsys.readouterr().out
