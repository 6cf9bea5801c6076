import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import robinsphere
from robinsphere import capbody, cli
from robinsphere.capbody import corpus_body, dumps_body, octant_fixture
from robinsphere.cli import _load_bodies, build_parser, main, parse_beta
from robinsphere.fem import calibrated_ball_error
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
    assert len(lines) == 1 + 4097
    # phi(rho) = cos(R - rho): beta > 0, so phi(R) = psi(0) = 1 is its larger end
    for line in lines[1::512]:
        rho, phi = map(float, line.split(","))
        assert phi == pytest.approx(math.cos(0.8 - rho), abs=1e-12)


@pytest.mark.parametrize(
    "r,beta,expected",
    [
        # the unit-step scan took about 40 s and 1e4 shoots here
        ("1", "-100", -10064.9177028),
        # close to where the RK4 solution starts to overflow near the root
        ("1", "-300", -90193.3346846734),
        # effectively Dirichlet on the hemisphere; the unit-step scan and
        # bisection exited 2 here ("eigenfunction changes sign")
        (repr(math.pi / 2), f"tan({math.pi / 2!r})", 2.0),
    ],
)
def test_ball_eig_extreme_beta(r, beta, expected, capsys):
    assert main(["ball-eig", "--r", r, "--beta", beta]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("lambda = ")
    assert float(line[len("lambda = "):]) == pytest.approx(expected, rel=1e-10, abs=1e-8)


def test_ball_eig_large_negative_beta(capsys):
    # psi overflows RK4 shooting before this eigenvalue (|beta| R above about 340)
    assert main(["ball-eig", "--r", "1", "--beta", "-400"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert float(line[len("lambda = "):]) == pytest.approx(-160257.5437565, rel=1e-11)


def test_ball_eig_past_basis_cap_is_input_error(capsys):
    # the series would need about |beta| tan(R/2) = 5.5e5 terms, past its limit
    start = time.perf_counter()
    assert main(["ball-eig", "--r", "1", "--beta=-1e6"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the series at n = 2")
    assert "needs more than 100000 terms" in err[0]


def test_ball_eig_near_dirichlet_small_ball(capsys):
    # just below the Dirichlet eigenvalue j_(4,1)^2 / R^2 = 5.75829409e7; the
    # Legendre-Galerkin pencil had no Cholesky factor here (exit 2)
    assert main(["ball-eig", "--n", "10", "--r", "1e-3", "--beta", "1.6e16"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert 57582900.0 < float(line[len("lambda = "):]) < 57582940.9


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


def test_verify_thm2_fem_slack_is_calibrated(tmp_path):
    # with a fixed 2% slack this failed the FEM stability check on all three
    # bodies (body 1: ratio -0.084 against the bound -0.040)
    out_json = tmp_path / "thm2.json"
    argv = ["verify-thm2", "--random", "1", "3", "--betas=-5", "--fem-level", "2",
            "--k", "1024", "--json", str(out_json)]
    assert main(argv) == 0
    expected = calibrated_ball_error(2, -5.0)
    for report in json.loads(out_json.read_text())["reports"]:
        assert report["extras"]["fem_rel_tol"] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-thm2", "--random", "1", "0"],
        ["profile", "--random", "1", "0"],
        ["af-check", "--random", "3", "0"],
        ["verify-thm1", "--fixture", "octant", "--betas="],
    ],
)
def test_vacuous_runs_are_input_errors(argv, tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main([*argv, "--json", str(out_json)]) == 2
    assert not out_json.exists()
    assert "error" in capsys.readouterr().err


def test_random_source_is_the_library_corpus(tmp_path):
    argv = ["verify-thm2", "--random", "7", "3", "--betas=-1", "--k", "64"]
    expected = [corpus_body(seed) for seed in (7, 8, 9)]
    loaded = _load_bodies(build_parser().parse_args(argv))
    assert [name for name, _ in loaded] == [name for name, _ in expected]
    assert [dumps_body(b) for _, b in loaded] == [dumps_body(b) for _, b in expected]
    out_csv = tmp_path / "corpus.csv"
    assert main([*argv, "--csv", str(out_csv)]) == 0
    ids = [line.split(",")[0] for line in out_csv.read_text().splitlines()[1:]]
    assert ids == ["random-007-k3", "random-008-k4", "random-009-k5"]


def test_body_file_round_trip(tmp_path):
    path = tmp_path / "octant.body"
    path.write_text(dumps_body(octant_fixture()))
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


@pytest.mark.parametrize("delta", ["1e-9", "1e-8", "1000", "nan"])
def test_hyp_witness_uncertified_delta_is_input_error(delta, capsys):
    # below about 5e-7 the near-vertical geodesic loses its horizontal
    # position to rounding, so the violator is not certified on it; 1000
    # overflows sinh, and nan is not a depth; each message names delta
    assert main(["hyp-witness", "--delta", delta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "delta" in err and err.count("\n") == 1


@pytest.mark.parametrize("document", ["[1, 2]", "null", '"ball-eig"', '{"command": 5, "r": 1}'])
def test_config_not_an_object_is_input_error(tmp_path, capsys, document):
    cfg = tmp_path / "run.json"
    cfg.write_text(document)
    assert main(["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    ("cpus", "bodies", "workers"),
    [(8, 2, [2]), (2, 3, [2]), (1, 2, []), (None, 2, [])],
)
def test_jobs_capped_at_bodies_and_cpus(monkeypatch, cpus, bodies, workers):
    """The pool forks all its workers at the first task, so --jobs 5000 asks
    for no more workers than there are bodies or CPUs, and one worker runs
    serially. The fake pool maps in this process and starts none."""
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code = main(["verify-thm1", "--random", "1", str(bodies), "--betas", "-1", "--k", "64",
                 "--jobs", "5000"])
    assert code == 0
    assert asked == workers


# a CSV residual column and the check it reports, by description
_RESIDUAL_COLUMNS = {
    "res_volume": "|body| <= |ball| (isoperimetric, equal perimeter)",
    "res_inradius": "inradius(body) <= ball radius",
    "res_profile": "P(body_t) <= P(ball_t) + tol_grid at every node",
    "res_numerator": "gradient term: int phi'^2 P(body_t) <= int phi'^2 P(ball_t)",
    "res_quotient": "transplanted quotient <= ball eigenvalue + tol",
    "res_thm2": "rq <= lambda_ball * (1 - c dV)^(-1) + tol",
}


@pytest.mark.parametrize("fixture", ["octant", "cap:0.85"])
def test_csv_residual_columns_match_their_checks(tmp_path, fixture):
    reports, rows = {}, []
    for which in ("thm1", "thm2"):
        out_json, out_csv = tmp_path / f"{which}.json", tmp_path / f"{which}.csv"
        code = main([f"verify-{which}", "--fixture", fixture, "--betas", "-1", "--k", "1024",
                     "--json", str(out_json), "--csv", str(out_csv)])
        assert code == 0
        (reports[which],) = json.loads(out_json.read_text())["reports"]
        rows.append(out_csv.read_text())
    assert rows[0] == rows[1]  # both commands tabulate the same row
    header, row = (line.split(",") for line in rows[0].splitlines())
    row = dict(zip(header, row))
    residuals = {
        c["description"]: c["residual"] for r in reports.values() for c in r["checks"]
    }
    # every check has its column except thm2's guard
    assert set(residuals) - set(_RESIDUAL_COLUMNS.values()) == {"guard: 0 <= c dV < 1"}
    for column, description in _RESIDUAL_COLUMNS.items():
        assert float(row[column]) == residuals[description], column
    assert row["pass_thm1"] == str(reports["thm1"]["overall"])
    assert row["pass_thm2"] == str(reports["thm2"]["overall"])


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


def test_shared_parser_matches_a_fresh_one(tmp_path, capsys):
    """Successive main calls share one parser; each gives the stdout, stderr,
    files and exit code that a freshly built parser gives."""
    assert build_parser() is build_parser()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"command": "verify-thm1", "fixture": "octant", "k": 128}))
    runs = [
        ["ball-eig", "--r", "0.8", "--beta", "-1"],
        ["--config", str(cfg), "--betas=-0.5", "--json", "{out}/config.json"],
        ["verify-thm2", "--fixture", "cap:0.9", "--k", "128", "--csv", "{out}/cap.csv"],
        ["verify-thm1", "--betas", "-1"],  # no body source: an input error
        ["--config", str(cfg), "--k", "64", "--json", "{out}/override.json"],
        ["steiner-check", "--fixture", "octant", "--json", "{out}/steiner.json"],
        ["ball-eig", "--r", "0.8", "--beta", "nan"],
    ]

    def run_all(out, fresh):
        out.mkdir()
        results = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
                cli._config_parser.cache_clear()
            code = main([arg.format(out=out) for arg in argv])
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results, {path.name: path.read_bytes() for path in sorted(out.iterdir())}

    shared = run_all(tmp_path / "shared", fresh=False)
    fresh = run_all(tmp_path / "fresh", fresh=True)
    assert [code for code, _, _ in shared[0]] == [0, 0, 0, 2, 0, 0, 2]
    assert len(shared[1]) == 4
    assert shared == fresh


def test_verify_builds_each_body_geometry_once(monkeypatch):
    """One verify-thm2 item with the FEM oracle builds its body's boundary
    structure, incircle and hemisphere witness once each; the FEM calibration's
    cap is built before the count starts."""
    calibrated_ball_error(2, -1.0)
    calls = Counter()

    def counted(name):
        build = getattr(capbody, name)

        def wrapper(body):
            calls[name, body] += 1
            return build(body)

        return wrapper

    names = ("boundary_structure", "incenter_and_inradius", "hemisphere_witness")
    for name in names:
        monkeypatch.setattr(capbody, name, counted(name))
    assert main(["verify-thm2", "--random", "5", "1", "--betas=-1", "--fem-level", "2"]) == 0
    monkeypatch.undo()
    body = corpus_body(5)[1]
    assert {name: calls[name, body] for name in names} == dict.fromkeys(names, 1)


def test_body_without_hemisphere_witness_is_input_error(tmp_path, capsys):
    # a lune has a boundary and a perimeter, but its poles span only a plane
    path = tmp_path / "lune.txt"
    path.write_text(f"1 0 0 {math.pi / 2!r}\n0 1 0 {math.pi / 2!r}\n")
    assert main(["verify-thm1", "--body-file", str(path), "--k", "512"]) == 2
    assert "no hemisphere witness" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["steiner-check", "af-check", "profile", "verify-thm1"])
def test_non_finite_pole_is_input_error(command, tmp_path, capsys):
    # steiner-check and af-check used to pass this body, and profile blamed
    # the parallel distances
    path = tmp_path / "nan.txt"
    path.write_text("nan 0 1 1.0\n")
    assert main([command, "--body-file", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]


def test_out_of_memory_is_input_error(monkeypatch, capsys):
    def out_of_memory(body):
        raise MemoryError("Unable to allocate 11.8 GiB")

    monkeypatch.setattr(capbody, "incenter_and_inradius", out_of_memory)
    assert main(["verify-thm1", "--fixture", "octant", "--k", "64"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 11.8 GiB"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["ball-eig", "--r", "1", "--beta", "-1"],
        ["verify-thm1", "--random", "1", "2", "--betas=-1", "--k", "512"],
        ["profile", "--random", "1", "2", "--k", "512"],
        ["steiner-check", "--random", "1", "2"],
        ["af-check", "--random", "1", "2"],
        ["hyp-witness", "--delta", "0.1"],
        ["verify-thm2", "--random", "1", "2", "--betas=-1", "--k", "512", "--fem-level", "2"],
    ],
    ids=lambda argv: argv[0] if argv else "import",
)
def test_scipy_loads_only_for_fem(argv, tmp_path):
    # a fresh interpreter imports the CLI, runs argv if given, and lists the
    # scipy modules it loaded; only a FEM solve needs scipy.sparse
    code = (
        "import contextlib, json, os, sys\n"
        "from robinsphere import cli\n"
        "if sys.argv[1:]:\n"
        "    with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null):\n"
        "        assert cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"
    )
    # the child imports the package this process imported
    src = str(Path(robinsphere.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, check=True, env=env, cwd=tmp_path,
    )
    loaded = json.loads(out.stdout)
    if "--fem-level" in argv:
        assert "scipy.sparse" in loaded
    else:
        assert loaded == []
