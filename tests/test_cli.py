import json

import pytest

from connsum import cli
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

    def test_specfun_check_fault_injection(self, tmp_path):
        rc = cli.main(["specfun-check", "--out", str(tmp_path),
                       "--bessel-rtol", "1e-30"])
        assert rc == cli.EXIT_INVARIANT
        data = json.loads((tmp_path / "specfun_check.json").read_text())
        names = [f["invariant"] for f in data["failures"]]
        assert "bessel_vs_quadrature" in names

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

    def test_witness_inapplicable_for_beta_zero_source(self, tmp_path):
        rc = cli.main(["riesz", "--out", str(tmp_path), "--sweep-max", "256",
                       "--n-sigma", "25", "--p-bounded", "1.5",
                       "--witness-source", "bump"])
        data = json.loads((tmp_path / "riesz.json").read_text())
        assert data["witness"]["applicable"] is False
        assert "beta" in data["witness"]["reason"]
