import argparse
import json

import pytest

from connsum import checks, cli
from connsum import reports


class TestReports:
    def test_config_hash_stable(self):
        a = reports.config_hash({"x": 1, "y": [2, 3]})
        b = reports.config_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert a != reports.config_hash({"x": 2, "y": [2, 3]})


class TestCli:
    def test_model_build_ok(self, tmp_path):
        rc = cli.main(["model-build", "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "model_build.json").read_text())
        assert data["total_dim"] == 3
        assert "config_hash" in data and "version" in data

    def test_missing_geometry_is_config_error(self, tmp_path):
        rc = cli.main(["model-build", "--geometry", "/no/such/file.json",
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    def test_invalid_dimension_is_config_error(self, tmp_path):
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"n_plus": 2}))
        rc = cli.main(["model-build", "--geometry", str(geo),
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG

    @pytest.mark.parametrize("geometry,message", [
        ({"grid": {"pts_per_decade": 0}}, "pts_per_decade"),
        ({"grid": {"pts_per_decade": -5}}, "pts_per_decade"),
        ([1, 2], "JSON object"),
        ({"radii": {"chi": [5, 3]}}, "radii.chi"),
        ({"radii": {"phi": [10, 6]}}, "radii.phi"),
        ({"radii": {"eta": [8, 4]}}, "radii.eta"),
        ({"radii": {"zeta": [16, 12]}}, "radii.zeta"),
        ({"grid": {"min_segment_pts": 0}}, "min_segment_pts"),
        ({"grid": {"min_segment_pts": 1}}, "min_segment_pts"),
        ({"grid": {"neck_pts": 0}}, "neck_pts"),
        ({"grid": {"pts_per_decade": 2.5}}, "pts_per_decade"),
        ({"grid": {"neck_pts": 129.0}}, "neck_pts"),
        ({"grid": {"pts_per_decade": True}}, "pts_per_decade"),
        ({"grid": {"neck_pts": 31}}, "neck_pts"),
    ])
    def test_malformed_geometry_is_config_error(self, tmp_path, capsys,
                                                geometry, message):
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps(geometry))
        rc = cli.main(["model-build", "--geometry", str(geo),
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n_sigma", ["32", "1"])
    def test_riesz_rejects_even_n_sigma(self, tmp_path, capsys, n_sigma):
        rc = cli.main(["riesz", "--n-sigma", n_sigma, "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert "--n-sigma must be an odd integer" in capsys.readouterr().err
        assert not (tmp_path / "riesz.json").exists()

    @pytest.mark.parametrize("option,value,message", [
        ("--p-bounded", "1.0", "--p-bounded values must be > 1"),
        ("--p-bounded", "0.5", "--p-bounded values must be > 1"),
        ("--p-unbounded", "1.0", "--p-unbounded values must be > 1"),
        ("--p-unbounded", "abc", "take numbers"),
        ("--k0", "0", "--k0 must lie in"),
        ("--k0", "-1", "--k0 must lie in"),
        ("--k0", "1e-20", "--k0 must lie in"),
        # fewer than three R_max: no trend to read a verdict from
        ("--sweep-max", "40", "--sweep-max must be >= 128"),
        ("--sweep-max", "127", "--sweep-max must be >= 128"),
    ])
    def test_riesz_rejects_invalid_option(self, tmp_path, capsys, option,
                                          value, message):
        rc = cli.main(["riesz", option, value, "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "riesz.json").exists()

    def test_resolvent_reports_k0_selection(self, tmp_path):
        assert cli.main(["resolvent", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "resolvent.json").read_text())
        sel = data["k0_selection"]
        assert list(sel["sigma_min"]) == ["0.0001", "0.001", "0.01", "0.05"]
        assert sel["floor"] == 1e-6
        assert data["k0"] == max(float(k) for k, s in sel["sigma_min"].items()
                                 if s > sel["floor"])
        assert "k0_selection" not in data["checks"]

    def test_geometry_file_roundtrip(self, tmp_path):
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({
            "n_plus": 3,
            "spectra": {"minus": {"type": "circle", "length": 6.283185307},
                        "plus": {"type": "point"}},
            "R": 2.0, "S_minus": 64.0, "S_plus": 64.0,
            "grid": {"pts_per_decade": 64, "neck_pts": 65},
        }))
        rc = cli.main(["model-build", "--geometry", str(geo),
                       "--out", str(tmp_path)])
        assert rc == 0

    def test_specfun_check_fault_injection(self, tmp_path, monkeypatch):
        monkeypatch.setattr(checks, "bessel_vs_quadrature",
                            lambda orders, xs: 1e-3)
        rc = cli.main(["specfun-check", "--out", str(tmp_path)])
        assert rc == cli.EXIT_INVARIANT
        data = json.loads((tmp_path / "specfun_check.json").read_text())
        names = [f["invariant"] for f in data["failures"]]
        assert "bessel_vs_quadrature" in names
        assert data["checks"]["bessel_vs_quadrature"]["ok"] is False

    def test_lp_lemmas_deterministic(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            rc = cli.main(["lp-lemmas", "--out", str(out),
                           "--instances", "25", "--seed", "7"])
            assert rc == 0
        assert (out1 / "lp_lemmas.json").read_text() \
            == (out2 / "lp_lemmas.json").read_text()
        assert (out1 / "lp_lemmas.csv").read_text() \
            == (out2 / "lp_lemmas.csv").read_text()

    def test_csv_columns_contract(self, tmp_path):
        # light riesz run: tiny sweep, no witness
        rc = cli.main(["riesz", "--out", str(tmp_path), "--sweep-max", "256",
                       "--n-sigma", "25", "--p-bounded", "1.5",
                       "--skip-witness"])
        header = (tmp_path / "riesz_boundedness.csv").read_text().splitlines()[0]
        assert header == "p,R_max,lower,upper,verdict"
        data = json.loads((tmp_path / "riesz.json").read_text())
        assert data["witness"] == {"applicable": False}
        assert rc in (0, cli.EXIT_INVARIANT)  # small sweep may not stabilize
        assert list(data["checks"]) == ["bounded_p1.5"]
        assert (rc == 0) == data["checks"]["bounded_p1.5"]["ok"]

    def test_witness_inapplicable_for_beta_zero_source(self, tmp_path):
        rc = cli.main(["riesz", "--out", str(tmp_path), "--sweep-max", "256",
                       "--n-sigma", "25", "--p-bounded", "1.5",
                       "--witness-source", "bump"])
        data = json.loads((tmp_path / "riesz.json").read_text())
        assert data["witness"]["applicable"] is False
        assert "beta" in data["witness"]["reason"]
        assert list(data["checks"]) == ["bounded_p1.5"]
        assert (rc == 0) == data["checks"]["bounded_p1.5"]["ok"]


class TestPassRule:
    """One rule for every subcommand: the report's `checks` block, the
    status line and the exit code all come from the same entries."""

    def _finish(self, tmp_path, block):
        args = argparse.Namespace(command="demo", out=str(tmp_path))
        rc = cli.finish(args, "demo.json", {"x": 1}, block)
        return rc, json.loads((tmp_path / "demo.json").read_text())

    def test_empty_block_passes(self, tmp_path, capsys):
        rc, rep = self._finish(tmp_path, {})
        assert rc == cli.EXIT_OK
        assert rep["x"] == 1 and rep["checks"] == {}
        assert capsys.readouterr().out == "demo: ok\n"

    def test_all_ok(self, tmp_path, capsys):
        block = {"a": cli.check(0.5, 1.0), "b": cli.check(0, 0, strict=False)}
        rc, rep = self._finish(tmp_path, block)
        assert rc == cli.EXIT_OK
        assert rep["checks"] == {"a": {"value": 0.5, "bound": 1.0, "ok": True},
                                 "b": {"value": 0, "bound": 0, "ok": True}}
        assert capsys.readouterr().out == "demo: ok\n"

    def test_one_failing_entry(self, tmp_path, capsys):
        block = {"a": cli.check(0.5, 1.0), "b": cli.check(2.0, 1.0),
                 "c": cli.check(True, True, ok=True)}
        rc, rep = self._finish(tmp_path, block)
        assert rc == cli.EXIT_INVARIANT
        assert [n for n, c in rep["checks"].items() if not c["ok"]] == ["b"]
        assert capsys.readouterr().out == "demo: FAILED b\n"

    def test_strict_against_non_strict_at_equality(self):
        assert cli.check(1e-8, 1e-8)["ok"] is False
        assert cli.check(1e-8, 1e-8, strict=False)["ok"] is True
        assert cli.check(float("nan"), 1.0)["ok"] is False
        assert cli.check(float("nan"), 1.0, strict=False)["ok"] is False
        # a library verdict is taken as it is, not recomputed from value
        assert cli.check(2.0, 1.0, ok=True)["ok"] is True
        assert cli.check(0.5, 1.0, ok=False)["ok"] is False


LIGHT = ("specfun-check", "extend", "bvp", "keylemma")


@pytest.fixture(scope="module")
def light_runs(tmp_path_factory):
    """(exit code, report) of each light subcommand at its defaults."""
    out = tmp_path_factory.mktemp("light")
    runs = {}
    for cmd in LIGHT:
        rc = cli.main([cmd, "--out", str(out)])
        name = cmd.replace("-", "_") + ".json"
        runs[cmd] = rc, json.loads((out / name).read_text())
    return runs


@pytest.mark.parametrize("cmd", LIGHT)
def test_exit_code_follows_checks(light_runs, cmd):
    rc, rep = light_runs[cmd]
    assert rep["checks"]
    assert rc in (cli.EXIT_OK, cli.EXIT_INVARIANT)
    assert (rc == cli.EXIT_OK) == all(c["ok"] for c in rep["checks"].values())
    assert rc == cli.EXIT_OK


# the acceptance suite's pinned bound for each quantity the CLI gates too
ACCEPTANCE_PINS = {"BESSEL_RTOL": 1e-10, "ODE_RESIDUAL": 1e-8,
                   "IDENTITY": 1e-8, "HOMOGENEOUS": 1e-10,
                   "BETA_SHIFT": 1e-4, "C0_REL": 1e-4, "ILG_COEF_REL": 1e-3,
                   "ORACLE_REL": 1e-5, "GROWTH_TOL": 0.1}


def test_bounds_equal_acceptance_pins():
    assert {n: getattr(cli, n) for n in ACCEPTANCE_PINS} == ACCEPTANCE_PINS


@pytest.mark.parametrize("cmd,name,pin", [
    ("specfun-check", "bessel_vs_quadrature", 1e-10),
    ("extend", "minus_ode_residual", 1e-8),
    ("bvp", "homogeneous_norm", 1e-10),
    ("bvp", "beta_refinement_shift", 1e-4),
    ("keylemma", "ilg_coefficient_vs_log_harmonic_rel", 1e-3),
])
def test_report_bounds_equal_acceptance_pins(light_runs, cmd, name, pin):
    assert light_runs[cmd][1]["checks"][name]["bound"] == pin
