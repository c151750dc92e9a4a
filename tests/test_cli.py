"""End-to-end command-line interface checks (in process, no subprocess)."""
from __future__ import annotations

import json
import math

import pytest

from orbispec import (
    Spectrum,
    __version__,
    bonnet_myers_cap,
    catalog_model,
    singular_point_cap,
    spectral_isotropy_bound,
    spectral_singular_point_bound,
)
from orbispec.cli import main
from orbispec.weyl import estimate_volume


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_spectrum_command_envelope(capsys):
    doc = run_json(capsys, "spectrum", "--model", "s2-mod-3", "--lambda-max", "6")
    assert doc["tool"] == "orbispec"
    assert doc["version"] == __version__
    assert doc["command"] == "spectrum"
    assert doc["config"]["model"] == "s2-mod-3"
    assert doc["config"]["lambda_max"] == 6.0
    assert doc["spectrum"]["eigenvalues"] == [[0.0, 1], [2.0, 1], [6.0, 1]]
    assert doc["spectrum"]["truncation"] == 6.0


def test_eig_ball_command(capsys):
    doc = run_json(capsys, "eig-ball", "--n", "2", "--kappa", "1", "--r", str(math.pi / 2))
    assert doc["eigenvalue_5dp"] == 2.0
    assert abs(doc["eigenvalue"] - 2.0) < 1e-6
    doc = run_json(capsys, "eig-ball", "--n", "2", "--kappa", "0", "--r", "1")
    assert abs(doc["eigenvalue"] - 5.783185962946785) < 1e-6


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "spectrum", "--model", "t2", "--lambda-max", "100", "--out", str(target)
    )
    assert code == 0
    assert out == ""  # silent when writing to a file
    doc = json.loads(target.read_text())
    assert doc["command"] == "spectrum"


def test_out_to_a_missing_directory_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "eig-ball", "--n", "2", "--kappa", "0", "--r", "1", "--out", str(target)
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error[output]: {target}: "), err
    assert not target.parent.exists()


def _write_spectrum(tmp_path, model_id, lam):
    spec = catalog_model(model_id).spectrum(lam)
    path = tmp_path / f"{model_id}.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


def test_weyl_and_diameter_round_trip(capsys, tmp_path):
    # The spectrum command's output feeds straight back into the pipelines.
    target = tmp_path / "spec.json"
    run_cli(capsys, "spectrum", "--model", "s2", "--lambda-max", "1700", "--out", str(target))
    doc = run_json(capsys, "weyl", "--spectrum", str(target))
    assert doc["fit"]["dimension"] == 2
    assert abs(doc["fit"]["volume"] - 4 * math.pi) < 0.1 * 4 * math.pi
    doc = run_json(
        capsys,
        "diameter",
        "--spectrum",
        str(target),
        "--kappa",
        "1",
        "--n",
        "2",
    )
    assert doc["diameter_bound"] == bonnet_myers_cap(1.0) > math.pi
    assert set(doc["config"]) == {"spectrum", "kappa", "n", "volume"}
    # --n alone: the volume is still resolved, from the spectrum.
    assert doc["source"] == "weyl-estimated"
    spec = Spectrum.from_dict(json.loads(target.read_text())["spectrum"])
    assert doc["volume"] == estimate_volume(spec, 2)
    assert doc["rho"] >= 1
    given = run_json(
        capsys, "diameter", "--spectrum", str(target), "--kappa", "1", "--n", "2",
        "--volume", "12.5",
    )
    assert given["source"] == "given" and given["volume"] == 12.5
    assert (given["diameter_bound"], given["r"], given["rho"]) == (
        doc["diameter_bound"], doc["r"], doc["rho"]
    )


def test_diameter_command_resolves_dimension_like_the_pipelines(capsys, tmp_path):
    # s2-mod-3 declares dimension 2: --n 3 is the same stage failure as in
    # the isotropy pipeline, not a bound with a 2-D volume.
    path = _write_spectrum(tmp_path, "s2-mod-3", 1640.0)
    for command in ("diameter", "isotropy"):
        code, out, err = run_cli(
            capsys, command, "--spectrum", str(path), "--kappa", "1", "--n", "3"
        )
        assert code == 2 and out == ""
        assert err.startswith("error[weyl-dimension]")
    # Without a declared dimension the volume is fitted at the given n.
    payload = json.loads(path.read_text())
    del payload["dimension"]
    path.write_text(json.dumps(payload))
    spec = Spectrum.from_dict(payload)
    for n in (2, 3):
        doc = run_json(capsys, "diameter", "--spectrum", str(path), "--kappa", "1", "--n", str(n))
        assert doc["n"] == n
        assert doc["volume"] == estimate_volume(spec, n)
        assert doc["source"] == "weyl-estimated"


@pytest.mark.parametrize(
    "options",
    [
        (),
        ("--n", "2"),
        ("--n", "2", "--volume", "12.5"),
        ("--volume", "12.5"),
    ],
)
def test_diameter_command_reports_the_isotropy_pipeline(capsys, tmp_path, options):
    path = _write_spectrum(tmp_path, "s2-mod-4", 1640.0)
    doc = run_json(capsys, "diameter", "--spectrum", str(path), "--kappa", "0.5", *options)
    iso = run_json(capsys, "isotropy", "--spectrum", str(path), "--kappa", "0.5", *options)
    rep = iso["report"]
    assert (doc["n"], doc["volume"], doc["source"]) == tuple(
        rep["inputs"][key] for key in ("n", "volume", "source")
    )
    assert (doc["diameter_bound"], doc["r"], doc["rho"]) == (
        rep["diameter_bound"], rep["r_used"], rep["rho"]
    )


def test_diameter_command_refuses_a_report_with_rho_zero(capsys, tmp_path):
    # Without the eigenvalue 0 the smallest radius counts no eigenvalue; the
    # diameter stage refuses the spectrum, as the ball count rests on lam_0 = 0.
    path = tmp_path / "no-zero.json"
    path.write_text(json.dumps({"eigenvalues": [[50.0, 1]], "truncation": 100.0}))
    code, out, err = run_cli(
        capsys, "diameter", "--spectrum", str(path), "--kappa", "0", "--n", "2",
        "--volume", "3.14",
    )
    assert code == 2 and out == ""
    assert err.startswith("error[diameter]") and "lam_0 = 0" in err


def test_infinite_volume_is_refused(capsys, tmp_path):
    # An infinite volume once certified isotropy cap 1 on the pillowcase
    # (true maximum order 2) and printed "volume": Infinity.
    path = _write_spectrum(tmp_path, "pillowcase", 4000.0)
    for command in ("diameter", "isotropy", "singular"):
        code, out, err = run_cli(
            capsys, command, "--spectrum", str(path), "--kappa", "0", "--n", "2",
            "--volume", "inf",
        )
        assert code == 2 and out == "", command
        assert err.startswith("error[weyl-volume]"), err


def test_isotropy_command_matches_library(capsys, tmp_path):
    from orbispec import spectral_isotropy_bound

    model = catalog_model("s2-mod-4")
    path = _write_spectrum(tmp_path, "s2-mod-4", 400.0)
    doc = run_json(
        capsys,
        "isotropy",
        "--spectrum",
        str(path),
        "--kappa",
        "1",
        "--n",
        "2",
        "--volume",
        str(model.volume),
    )
    rep = spectral_isotropy_bound(model.spectrum(400.0), 1.0, n=2, v=model.volume)
    assert doc["report"] == rep.to_dict()
    assert doc["report"]["isotropy_cap"] == 4


def test_singular_command(capsys, tmp_path):
    model = catalog_model("pillowcase")
    path = _write_spectrum(tmp_path, "pillowcase", 3000.0)
    doc = run_json(
        capsys,
        "singular",
        "--spectrum",
        str(path),
        "--kappa",
        "0",
        "--n",
        "2",
        "--volume",
        str(model.volume),
    )
    rep = doc["report"]
    assert rep["singular_cap"] >= 4
    assert 0.0 < rep["r_sep"] < rep["ell"]


def test_constants_command(capsys):
    doc = run_json(
        capsys,
        "constants",
        "--n",
        "2",
        "--kappa",
        "0",
        "--diameter",
        "1",
        "--volume",
        "2",
    )
    assert set(doc) >= {"alpha", "ell", "r"}
    assert 0.0 < doc["r"] < doc["ell"]
    assert abs(doc["ell"] - (1 - 1e-6) * math.sqrt(2 / (3 * math.pi))) < 1e-12


def test_constants_command_clamps_r_at_the_diameter(capsys):
    # r_constant alone gives 0.46 here; the cap pipeline separates at min(r, D)
    doc = run_json(
        capsys, "constants", "--n", "2", "--kappa", "0", "--diameter", "0.05", "--volume", "2"
    )
    assert doc["r"] <= 0.05
    _, constants = singular_point_cap(2, 0.0, 0.05, 2.0)
    assert {k: doc[k] for k in ("alpha", "ell", "r")} == constants


@pytest.mark.parametrize("kappa", ["1", "0", "-1"])
def test_constants_command_refuses_an_infinite_volume(capsys, kappa):
    # It once printed constants at kappa = 1 (and "volume": Infinity) and
    # exited 0, and named a radius or ell at kappa <= 0.
    code, out, err = run_cli(
        capsys, "constants", "--n", "2", "--kappa", kappa, "--diameter", "3", "--volume", "inf"
    )
    assert code == 2 and out == ""
    assert err.startswith("error[domain]: volume must be positive and finite, got inf"), err


@pytest.mark.parametrize("kappa", ["-1e2", "-1e-3", "-.5"])
def test_negative_kappa_in_exponent_form_is_a_value(capsys, kappa):
    # argparse on Python 3.11 took "--kappa -1e2" for a flag: "expected one argument".
    spaced = run_json(capsys, "eig-ball", "--n", "2", "--kappa", kappa, "--r", "1")
    assert spaced == run_json(capsys, "eig-ball", "--n", "2", f"--kappa={kappa}", "--r", "1")
    assert spaced["config"]["kappa"] == float(kappa)


def test_negative_infinite_kappa_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "eig-ball", "--n", "2", "--kappa", "-inf", "--r", "1")
    assert code == 2 and out == ""
    assert err.startswith("error[domain]: curvature must be finite, got -inf"), err


def test_ball_volume_overflow_exits_2_at_its_stage(capsys, tmp_path):
    # The isotropy cap's ball volume sinh(50 D)^2 overflows: a traceback and
    # exit 1 once, a stage-named failure now.
    path = tmp_path / "t2.json"
    run_cli(capsys, "spectrum", "--model", "t2", "--lambda-max", "8000", "--out", str(path))
    code, out, err = run_cli(
        capsys, "isotropy", "--spectrum", str(path), "--kappa=-1e4", "--n", "2", "--volume", "1"
    )
    assert code == 2 and out == ""
    assert err.startswith("error[isotropy-cap]") and "overflows" in err, err


def test_exit_code_1_on_malformed_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "weyl", "--spectrum", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error[input]")
    # structurally valid JSON that is not a spectrum also maps to 1
    bad.write_text(json.dumps({"eigenvalues": [[3.0, 1], [1.0, 1]], "truncation": 5.0}))
    code, _, err = run_cli(capsys, "weyl", "--spectrum", str(bad))
    assert code == 1 and err.startswith("error[input]")
    code, _, err = run_cli(capsys, "weyl", "--spectrum", str(tmp_path / "missing.json"))
    assert code == 1
    # eigenvalues that are not a list of pairs
    for raw in (5, [5], [[1.0, 1, 2]], [["x", 1]]):
        bad.write_text(json.dumps({"eigenvalues": raw, "truncation": 6.0}))
        code, out, err = run_cli(capsys, "weyl", "--spectrum", str(bad))
        assert code == 1 and out == "" and err.startswith("error[input]"), raw
    # a multiplicity or dimension that is not an integral number is refused, not truncated
    bad.write_text(
        '{"eigenvalues": [[0.0, 1], [2.0, 2.9], [6.0, true]], "dimension": 2.7, "truncation": 6.0}'
    )
    code, out, err = run_cli(
        capsys, "diameter", "--spectrum", str(bad), "--kappa", "1", "--n", "2",
        "--volume", "12.566",
    )
    assert code == 1 and out == ""
    assert err.startswith("error[input]") and "2.9" in err


def test_exit_code_2_on_stage_failure(capsys, tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"eigenvalues": [[0.0, 1]], "truncation": 0.05}))
    code, out, err = run_cli(
        capsys, "diameter", "--spectrum", str(path), "--kappa", "1", "--n", "2",
        "--volume", "3.14",
    )
    assert code == 2 and out == ""
    assert err.startswith("error[diameter]")
    code, _, err = run_cli(capsys, "spectrum", "--model", "nope", "--lambda-max", "10")
    assert code == 2 and err.startswith("error[domain]")


def test_verify_quick_subset(capsys):
    doc = run_json(capsys, "verify", "--quick", "--models", "s2-mod-3,t2")
    assert doc["all_sound"] is True
    rows = {row["model"]: row for row in doc["models"]}
    assert set(rows) == {"s2-mod-3", "t2"}
    row = rows["s2-mod-3"]
    assert row["diameter"]["sound"] and row["isotropy"]["sound"]
    assert row["singular"]["sound"] and row["singular"]["true"] == 2
    assert row["weyl"]["dimension_ok"]
    assert rows["t2"]["singular"] is None  # manifold: nothing to cap
    code, _, err = run_cli(capsys, "verify", "--quick", "--models", "unknown-model")
    assert code == 2 and err.startswith("error[domain]")


@pytest.mark.parametrize("flags", [(), ("--quick",)])
def test_verify_rows_are_the_default_pipeline_reports(capsys, flags):
    # --quick changes only the truncations: every row is the library
    # pipeline's report on its default diameter search, field by field.
    doc = run_json(capsys, "verify", *flags)
    assert doc["all_sound"] is True
    rows = {row["model"]: row for row in doc["models"]}
    assert len(rows) == 10
    for model_id, row in rows.items():
        model = catalog_model(model_id)
        n, kappa, v = model.dimension, model.curvature_lower_bound, model.volume
        pipeline = (
            spectral_singular_point_bound
            if model.isolated_singular_count > 0
            else spectral_isotropy_bound
        )
        rep = pipeline(model.spectrum(row["truncation"]), kappa, n=n, v=v)
        assert row["diameter"]["bound"] == rep.diameter_bound, model_id
        assert row["diameter"]["r"] == rep.r_used, model_id
        assert row["isotropy"]["cap"] == rep.isotropy_cap, model_id
        assert (row["singular"] or {}).get("cap") == rep.singular_cap, model_id


def test_verify_rejects_an_empty_selection(capsys):
    # Zero rows would read "all_sound": true with nothing verified.
    for selection in (",", "", " , "):
        code, out, err = run_cli(capsys, "verify", "--quick", "--models", selection)
        assert code == 2 and out == ""
        assert err.startswith("error[domain]")


def test_spectrum_rejects_non_finite_truncations(capsys):
    # inf used to hang the sphere builds and crash the torus builds.
    for model in ("s2", "s2-mod-3", "t2", "pillowcase"):
        for lam in ("inf", "nan", "-1"):
            code, out, err = run_cli(capsys, "spectrum", "--model", model, "--lambda-max", lam)
            assert code == 2 and out == ""
            assert err.startswith("error[domain]"), (model, lam, err)


@pytest.mark.parametrize("truncation", [6.0, 20.0])
def test_volume_fit_below_the_eigenvalue_floor_exits_2(capsys, tmp_path, truncation):
    # 3 and 9 eigenvalues once fitted a volume that certified an isotropy cap
    # below the true order 3 with exit 0.
    path = _write_spectrum(tmp_path, "s2-mod-3", truncation)
    code, out, err = run_cli(
        capsys, "isotropy", "--spectrum", str(path), "--kappa", "1", "--n", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error[weyl-volume]"), err


@pytest.mark.parametrize("grid", ["abc", ","])
def test_radius_grid_option_is_rejected_by_the_parser(capsys, tmp_path, grid):
    # The search covers every admissible radius, so there is no grid to give:
    # the texts that once failed as malformed grids now fail at the parser.
    path = _write_spectrum(tmp_path, "t2", 400.0)
    for command in ("diameter", "isotropy", "singular"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--spectrum", str(path), "--kappa", "0", "--r-grid", grid])
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2 and out == "", command
        assert err.startswith("usage: orbispec"), err
        assert "unrecognized arguments: --r-grid" in err, err


def test_spectrum_file_holding_an_array_exits_1(capsys, tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps([[0.0, 1], [2.0, 3]]))
    code, out, err = run_cli(capsys, "weyl", "--spectrum", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error[input]") and "expected a JSON object" in err


def test_solver_failure_exits_2_as_a_convergence_error(capsys, monkeypatch):
    from orbispec import dirichlet

    failing = dirichlet._linalg()._replace(pbtrf=lambda ab, **kw: (ab, 3))
    monkeypatch.setattr(dirichlet, "_linalg", lambda: failing)
    code, out, err = run_cli(capsys, "eig-ball", "--n", "2", "--kappa", "1", "--r", "1")
    assert code == 2 and out == ""
    assert err.startswith("error[convergence]") and "pbtrf info 3" in err
