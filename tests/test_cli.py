import argparse
import hashlib
import json

import numpy as np
import pytest

from connsum import checks, cli, model as md, parametrix as px
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
        # every key the parser does not read is named, at any depth
        ({"S_minux": 512}, "unknown geometry key 'S_minux'"),
        ({"R_max": 512}, "unknown geometry key 'R_max'"),
        ({"spectra": {"minus": {"type": "circle", "lenght": 3.0}}},
         "unknown geometry key 'spectra.minus.lenght'"),
        ({"spectra": {"plus": {"type": "point", "dim": 0}}},
         "unknown geometry key 'spectra.plus.dim'"),
        ({"spectra": {"plus": {"dim": 0, "volume": 2.0, "spectrum": [0.0],
                               "length": 1.0}}},
         "unknown geometry key 'spectra.plus.length'"),
        ({"spectra": {"minus": {"type": "cirlce"}}}, "'spectra.minus.type'"),
        ({"spectra": {"plsu": {"type": "point"}}},
         "unknown geometry key 'spectra.plsu'"),
        # a cross-section's volume is set in its spectra entry only
        ({"volumes": {"minus": 3.0}}, "unknown geometry key 'volumes'"),
        # an integer key is never truncated from a float or a boolean
        ({"n_plus": 3.7}, "n_plus must be an integer"),
        ({"neck_smoothness": 4}, "unknown geometry key 'neck_smoothness'"),
        ({"n_plus": True}, "n_plus must be an integer"),
        ({"spectra": {"plus": {"dim": 0.5, "volume": 2.0,
                               "spectrum": [0.0]}}},
         "spectra.plus.dim must be an integer"),
        ({"spectra": {"minus": {"type": "circle", "l_max": True}}},
         "spectra.minus.l_max must be an integer"),
        # every cutoff transition lies on a product end, |s| > R = 2
        ({"radii": {"eta": [1.8, 8.0]}}, "R < first cutoff radius"),
        # every float of the geometry is a finite number; a string is
        # written to the file as it stands
        ({"radii": 5}, "geometry key 'radii' must be a mapping"),
        ({"radii": {"basepoint": "x"}}, "radii.basepoint must be a finite"),
        ({"radii": {"chi": ["a", "b"]}}, "radii.chi must be a finite"),
        ('{"S_minus": 1e400}', "S_minus must be a finite number"),
        ({"S_minus": float("nan")}, "S_minus must be a finite number"),
        ({"radii": {"phi": [6, float("inf")]}}, "radii.phi must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": float("inf"),
                                "spectrum": [0.0, 1.0]}}},
         "spectra.minus.volume must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": 1.0,
                                "spectrum": [0.0, float("nan")]}}},
         "spectra.minus.spectrum[1] must be a finite"),
        # every cross-section field is read by its key, and none is
        # converted from a string or a boolean
        ({"spectra": {"minus": {"dim": 1, "volume": "x",
                                "spectrum": [0.0]}}},
         "spectra.minus.volume must be a finite"),
        ({"spectra": {"minus": {"type": "circle", "length": "x"}}},
         "spectra.minus.length must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": 1.0, "spectrum": 5}}},
         "spectra.minus.spectrum must be a list"),
        ({"spectra": {"minus": {"dim": 1, "volume": 1.0,
                                "spectrum": [0.0, "a"]}}},
         "spectra.minus.spectrum[1] must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": 1.0}}},
         "missing geometry key 'spectra.minus.spectrum'"),
        ({"grid": 5}, "geometry key 'grid' must be a mapping"),
        ({"spectra": {"minus": {"type": "circle", "length": -1.0}}},
         "spectra.minus.length must be positive"),
        ({"spectra": {"minus": {"type": "circle", "length": 0}}},
         "spectra.minus.length must be positive"),
        ({"spectra": {"minus": {"dim": 1, "volume": True,
                                "spectrum": [0.0, 1.0]}}},
         "spectra.minus.volume must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": 1.0,
                                "spectrum": [False, True]}}},
         "spectra.minus.spectrum[0] must be a finite"),
        ({"spectra": {"minus": {"dim": 1, "volume": "6.28",
                                "spectrum": ["0", "1"]}}},
         "spectra.minus.volume must be a finite"),
        ({"spectra": {"minus": {"type": "circle", "length": True}}},
         "spectra.minus.length must be a finite"),
        ({"spectra": {"minus": {"type": ["circle"]}}},
         "'spectra.minus.type' must be one of"),
        ({"grid": {"neck_ptz": 64}}, "unknown geometry key 'grid.neck_ptz'"),
        ({"radii": {"khi": [3, 5]}}, "unknown geometry key 'radii.khi'"),
        # the cross-section's own checks, behind the key of its entry
        ({"spectra": {"minus": {"dim": 1, "volume": -1.0,
                                "spectrum": [0.0, 1.0]}}},
         "spectra.minus: cross-section volume must be a finite positive"),
        ({"spectra": {"plus": {"dim": 0, "volume": 1.0,
                               "spectrum": [1.0]}}},
         "spectra.plus: cross-section spectrum must start at 0"),
    ])
    def test_malformed_geometry_is_config_error(self, tmp_path, capsys,
                                                geometry, message):
        geo = tmp_path / "geo.json"
        geo.write_text(geometry if isinstance(geometry, str)
                       else json.dumps(geometry))
        rc = cli.main(["model-build", "--geometry", str(geo),
                       "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["specfun-check", "lp-lemmas"])
    def test_geometry_only_where_a_model_is_built(self, tmp_path, capsys,
                                                  command):
        # neither subcommand reads a geometry, so neither takes one
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--geometry", str(tmp_path / "geo.json"),
                      "--out", str(tmp_path)])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--geometry" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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
        # the ends' lengths it sets are checked as the geometry's are
        ("--sweep-max", "inf", "S_minus must be a finite number"),
    ])
    def test_riesz_rejects_invalid_option(self, tmp_path, capsys, option,
                                          value, message):
        rc = cli.main(["riesz", option, value, "--out", str(tmp_path)])
        assert rc == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "riesz.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["specfun-check", "--seed", "-1"], "--seed must be >= 0"),
        (["lp-lemmas", "--seed", "-1"], "--seed must be >= 0"),
        (["lp-lemmas", "--instances", "0"], "--instances must be >= 1"),
        (["lp-lemmas", "--instances", "-3"], "--instances must be >= 1"),
        (["resolvent", "--q", "0"], "--q must be >= 1"),
    ])
    def test_rejects_invalid_integer_option(self, tmp_path, capsys, argv,
                                            message):
        # a configuration error, not a numpy traceback, an invariant
        # violation or a check over zero instances
        rc = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_resolvent_reports_k0_selection(self, tmp_path):
        assert cli.main(["resolvent", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "resolvent.json").read_text())
        sel = data["k0_selection"]
        assert list(sel["sigma_min"]) == ["0.0001", "0.001", "0.01", "0.05"]
        assert sel["floor"] == 1e-6
        assert data["k0"] == max(float(k) for k, s in sel["sigma_min"].items()
                                 if s > sel["floor"])
        assert "k0_selection" not in data["checks"]

    def test_resolvent_factors_each_matrix_once(self, tmp_path,
                                                monkeypatch):
        # E(k) is built once per energy: the finite-rank fix at 0, the
        # four lattice energies, whose factorizations also serve the
        # solve checks at all four and the oracle at 1e-2, 1e-3 and 1e-4,
        # and the five fit energies; no matrix is LU-factored twice, and
        # nothing is solved with a matrix right-hand side.  Each
        # factorization is of the bordered matrix on the m collar rows:
        # of order m at k = 0, where E'' vanishes, and m + 2 elsewhere
        model = md.build_model()
        m = int(np.sum(np.abs(model.s) <= model.radii.zeta[1]))
        errors = []
        factored = []
        shapes = []
        matrix_solves = []
        error_kernel, lu_factor = px.error_kernel, px.lu_factor
        solve = np.linalg.solve

        def counted_error(*args):
            errors.append(args[1])
            return error_kernel(*args)

        def counted_lu(a, *args, **kwargs):
            factored.append(hashlib.sha256(
                np.ascontiguousarray(a).tobytes()).hexdigest())
            shapes.append(a.shape)
            return lu_factor(a, *args, **kwargs)

        def counted_solve(a, b):
            if np.ndim(b) == 2:
                matrix_solves.append(np.shape(b))
            return solve(a, b)

        monkeypatch.setattr(px, "error_kernel", counted_error)
        monkeypatch.setattr(px, "lu_factor", counted_lu)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        assert cli.main(["resolvent", "--out", str(tmp_path)]) == 0
        assert len(errors) == 10 and len(set(errors)) == 10
        assert len(factored) == 10 and len(set(factored)) == len(factored)
        assert shapes == [(m, m)] + 9 * [(m + 2, m + 2)]
        assert matrix_solves == []

    def test_resolvent_reports_solve_errors(self, tmp_path):
        # both figures of the solve at every lattice energy, each with
        # its checks entry under IDENTITY; the identity residuals are gone
        assert cli.main(["resolvent", "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "resolvent.json").read_text())
        lattice = ["0.0001", "0.001", "0.01", "0.05"]
        solves = data["solve_errors"]
        assert solves["bound"] == cli.IDENTITY
        for figure, prefix in (("backward", "backward_error"),
                               ("forward_bound", "forward_bound")):
            assert list(solves[figure]) == lattice
            for k, value in solves[figure].items():
                assert data["checks"][f"{prefix}_k{k}"] == {
                    "value": value, "bound": cli.IDENTITY, "ok": True}
        assert "identity" not in data and "sk_identity" not in data

    def test_extend_large_cross_section_eigenvalue(self, tmp_path):
        # mu R = 894: K_0(mu R) underflows to zero, the scaled ratio of
        # the DtN multiplier does not
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"spectra": {"minus": {
            "dim": 1, "volume": 6.283185307179586,
            "spectrum": [0.0, 2e5]}}}))
        rc = cli.main(["extend", "--geometry", str(geo),
                       "--out", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "extend.json").read_text())
        assert data["minus"]["cross_ratio_at_largest"] == \
            pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("minus", [
        {"type": "circle", "l_max": 0},
        {"dim": 1, "volume": 6.283185307179586, "spectrum": [0.0]}])
    def test_extend_beyond_truncation_is_config_error(self, tmp_path,
                                                      capsys, minus):
        # extend puts boundary data on channel (0, 1), which a minus
        # spectrum with one eigenvalue does not have
        geo = tmp_path / "geo.json"
        geo.write_text(json.dumps({"spectra": {"minus": minus}}))
        out = tmp_path / "out"
        rc = cli.main(["extend", "--geometry", str(geo), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert "beyond the configured spectrum truncation" in err
        assert "Traceback" not in err
        assert not out.exists()

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
