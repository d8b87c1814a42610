"""CLI: config validation, CSV output, determinism, exit codes."""

import csv
import hashlib
import json
import re
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import qavar.cli as cli
from qavar.noise import NoiseParams, free_lo_avar

NOISE = {"alpha": 2.0, "beta": 0.4, "gamma": 0.5, "omega0": 3.25e15}
PAR = NoiseParams(**NOISE)
CONFIG_DIR = Path(__file__).parent.parent / "configs"
README = Path(__file__).parent.parent / "README.md"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
GOLDEN = Path(__file__).parent / "golden"
SIM = {"T": 0.5, "n_steps": 400, "n_runs": 2}
MINIMAL = {
    "lo-avar": {"noise": NOISE, "tau": [1.0]},
    "bound": {"noise": NOISE, "tau": [1.0], "atoms": 1, "k_max": 1,
              "probe": {"kind": "plus"}},
    "optimize": {"noise": NOISE, "tau": [1.0], "atoms": 1, "k_max": 1,
                 "probe": {"kind": "optimize-product"}},
    "simulate": {"noise": NOISE, "tau": [1.0], "atoms": 1, "sim": SIM},
    "bound-check": {"noise": NOISE, "tau": [0.5], "atoms": 1, "sim": SIM,
                    "probe": {"kind": "amplitudes", "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}},
}


def config_hash(cfg):
    """The digest run() writes on the '# config-hash' line."""
    canonical = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, doc, mode, extra=(), name="cfg.json", out="out.csv"):
    cfg = write_config(tmp_path, doc, name)
    out_path = tmp_path / out
    code = cli.main([mode, "--config", cfg, "--out", str(out_path), *extra])
    return code, out_path


def csv_rows(path):
    return list(csv.DictReader(line for line in path.read_text().splitlines()
                               if not line.startswith("#")))


class TestValidation:
    def test_missing_blocks_reported_with_paths(self, capsys):
        with pytest.raises(cli.CliConfigError) as exc:
            cli.validate({"mode": "bound", "tau": [1.0]})
        msgs = exc.value.errors
        assert any(m.startswith("noise: missing") for m in msgs)
        assert any(m.startswith("atoms: missing") for m in msgs)
        assert any(m.startswith("k_max: missing") for m in msgs)
        assert any(m.startswith("probe: missing") for m in msgs)

    def test_unknown_keys_rejected(self):
        doc = {"mode": "lo-avar", "noise": dict(NOISE, extra=1), "tau": [1.0],
               "atoms": 1}
        with pytest.raises(cli.CliConfigError) as exc:
            cli.validate(doc)
        msgs = " | ".join(exc.value.errors)
        assert "noise.extra: unknown key" in msgs
        assert "atoms: unknown or not allowed in mode lo-avar" in msgs

    def test_mode_conflict(self):
        doc = {"mode": "simulate", "noise": NOISE, "tau": [1.0]}
        with pytest.raises(cli.CliConfigError, match="command line"):
            cli.validate(doc, mode_override="bound")

    def test_probe_kind_per_mode(self):
        base = {"noise": NOISE, "tau": [1.0], "atoms": 1, "k_max": 1}
        with pytest.raises(cli.CliConfigError, match="probe.kind"):
            cli.validate(dict(base, mode="bound",
                              probe={"kind": "optimize-product"}))
        with pytest.raises(cli.CliConfigError, match="probe.kind"):
            cli.validate(dict(base, mode="optimize", probe={"kind": "plus"}))

    def test_amplitudes_validation(self):
        base = {"mode": "bound", "noise": NOISE, "tau": [1.0], "atoms": 1,
                "k_max": 1}
        with pytest.raises(cli.CliConfigError, match="normalized"):
            cli.validate(dict(base, probe={"kind": "amplitudes",
                                           "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(cli.CliConfigError, match="amplitudes"):
            cli.validate(dict(base, probe={"kind": "plus",
                                           "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        s = np.sqrt(0.5)
        cfg = cli.validate(dict(base, probe={"kind": "amplitudes",
                                             "amplitudes": [[s, 0.0], [0.0, s]]}))
        assert cfg.probe.amplitudes[1] == pytest.approx(1j * s)

    def test_tau_forms(self):
        base = {"mode": "lo-avar", "noise": NOISE}
        cfg = cli.validate(dict(base, tau=[2.0, 1.0]))
        assert list(cfg.taus) == [2.0, 1.0]
        cfg = cli.validate(dict(base, tau={"start": 1.0, "stop": 4.0,
                                           "points": 3, "spacing": "log"}))
        assert np.allclose(cfg.taus, [1.0, 2.0, 4.0])
        with pytest.raises(cli.CliConfigError, match="tau"):
            cli.validate(dict(base, tau=[]))
        with pytest.raises(cli.CliConfigError, match="tau.points"):
            cli.validate(dict(base, tau={"start": 1.0, "stop": 4.0,
                                         "points": 0}))

    def test_sim_tau_must_be_multiple_of_T(self):
        doc = {"mode": "simulate", "noise": NOISE, "tau": [0.7], "atoms": 1,
               "sim": {"T": 0.5, "n_steps": 100, "n_runs": 2}}
        with pytest.raises(cli.CliConfigError, match="multiple"):
            cli.validate(doc)

    @pytest.mark.parametrize("mode", ["simulate", "bound-check"])
    def test_tau_needing_more_than_n_steps_is_a_config_error(self, tmp_path, capsys, mode):
        doc = {"noise": NOISE, "tau": [0.5, 30.0], "atoms": 1, "probe": {"kind": "plus"},
               "sim": {"T": 0.5, "n_steps": 100, "n_runs": 2}}
        if mode == "simulate":
            del doc["probe"]
        code, out = run_cli(tmp_path, doc, mode)
        assert code == 2 and not out.exists()
        assert ("config error: tau: 30.0 needs 2k = 120 steps, more than sim.n_steps=100"
                in capsys.readouterr().err)

    def test_defaults_pinned(self):
        doc = {"mode": "simulate", "noise": NOISE, "tau": [1.0], "atoms": 1,
               "sim": {"T": 0.5, "n_steps": 100, "n_runs": 2}}
        cfg = cli.validate(doc)
        assert cfg.sim.servo.gain == 0.5
        assert cfg.sim.servo.estimator == "linear"
        assert cfg.out == "simulate.csv"
        assert cfg.dim_cap == 20_000
        assert cfg.seed == 0

    def test_seeds_list_must_be_single(self):
        doc = {"mode": "lo-avar", "noise": NOISE, "tau": [1.0],
               "seeds": [1, 2]}
        with pytest.raises(cli.CliConfigError, match="seeds"):
            cli.validate(doc)

    def test_seed_override_wins(self):
        doc = {"mode": "lo-avar", "noise": NOISE, "tau": [1.0], "seeds": [7]}
        assert cli.validate(doc).seed == 7
        assert cli.validate(doc, seed_override=9).seed == 9


class TestSchemaMatchesCanonical:
    """validate(cfg.canonical()) accepts the resolved config and gives it back."""

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_example_configs(self, path):
        cfg = cli.validate(json.loads(path.read_text()))
        assert cli.validate(cfg.canonical()).canonical() == cfg.canonical()

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_minimal_config_per_mode(self, mode):
        cfg = cli.validate(MINIMAL[mode], mode_override=mode)
        assert cli.validate(cfg.canonical()).canonical() == cfg.canonical()


class TestConfigHash:
    """Digests of resolved configs, pinned so that a change to how the config
    is resolved cannot move the '# config-hash' line unnoticed."""

    MINIMAL_DIGESTS = {
        "bound": "f1643eb80da0ca3403074489ebbbbb9b09a0557b5f3f61cf54a7c3ea477ec16f",
        "optimize": "3100fa2176f9be2c3e45cfb234a8dd7d89989613555093466a6f03605c7f7b21",
        "simulate": "900653f14ea6ad57697a63913d1855d90775bb375b1423a3ea9503a3e9a6066a",
        "lo-avar": "e1fe87bff5a42510d00b54261c1ce242e7bb25c1aa95f04358da26daef62d95d",
        "bound-check": "3e3bcec7c261781fb60a295e8c0055d3bf224c1d280250c8d4130eb66f4892f7",
    }

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_minimal_config_digest(self, mode):
        cfg = cli.validate(MINIMAL[mode], mode_override=mode)
        assert config_hash(cfg) == self.MINIMAL_DIGESTS[mode]

    def test_optimize_product_digest(self):
        cfg = cli.validate(json.loads((CONFIG_DIR / "optimize_product.json").read_text()))
        assert config_hash(cfg) == (
            "d6abc87e0f009030f7dcf8aec3a7ce1a7551c91ad8a79e889b9c4cfa593ea711")

    def test_integer_spellings_hash_like_floats(self):
        ints = dict(MINIMAL["simulate"], noise=dict(NOISE, alpha=2), tau=[1],
                    servo={"gain": 1})
        floats = dict(MINIMAL["simulate"], noise=dict(NOISE, alpha=2.0), tau=[1.0],
                      servo={"gain": 1.0})
        a, b = (cli.validate(doc, mode_override="simulate") for doc in (ints, floats))
        assert a.canonical() == b.canonical()
        assert config_hash(a) == config_hash(b) == (
            "df6a620a7307ff2a54e72dc05c4c00a3597beb5b403986f61b255f3d10709f66")


class TestReadmeConfigTable:
    def test_every_field_has_a_row(self):
        text = README.read_text()
        lines = text[text.index("| key | accepted values |"):].splitlines()
        rows = list(takewhile(lambda line: line.startswith("|"), lines))[2:]
        keys = {key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])}
        assert {f.path for f in cli.FIELDS} <= keys
        assert keys - {f.path for f in cli.FIELDS} == {"mode"}


class TestLoAvarMode:
    def test_csv_matches_library(self, tmp_path):
        doc = {"noise": NOISE, "tau": [0.5, 1.0, 2.0]}
        code, out = run_cli(tmp_path, doc, "lo-avar")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# qavar 0.1.0"
        assert lines[1].startswith("# config-hash ")
        assert lines[2] == "# seed 0"
        assert lines[3] == "tau,sigma2_lo,status"
        for line, tau in zip(lines[4:], (0.5, 1.0, 2.0)):
            t, s2, status = line.split(",")
            assert float(t) == tau
            assert float(s2) == free_lo_avar(PAR, tau)  # repr round-trips
            assert status == "ok"

    def test_byte_identical_reruns(self, tmp_path):
        doc = {"noise": NOISE, "tau": {"start": 0.5, "stop": 8.0, "points": 7}}
        _, out1 = run_cli(tmp_path, doc, "lo-avar", out="a.csv")
        _, out2 = run_cli(tmp_path, doc, "lo-avar", out="b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_hash_line_only(self, tmp_path):
        doc = {"noise": NOISE, "tau": [1.0]}
        _, a = run_cli(tmp_path, doc, "lo-avar", out="a.csv")
        _, b = run_cli(tmp_path, doc, "lo-avar", extra=["--seed", "5"], out="b.csv")
        la, lb = a.read_text().splitlines(), b.read_text().splitlines()
        assert la[1] != lb[1] and la[2] != lb[2]
        assert la[0] == lb[0] and la[3:] == lb[3:]


class TestBoundMode:
    def test_bound_zero_noise(self, tmp_path):
        doc = {"noise": {"alpha": 0.0, "beta": 0.0, "gamma": 0.5,
                         "omega0": 3.25e15},
               "tau": [1.0], "atoms": 1, "k_max": 1, "probe": {"kind": "plus"}}
        code, out = run_cli(tmp_path, doc, "bound")
        assert code == 0
        row = out.read_text().splitlines()[4].split(",")
        assert float(row[3]) == 0.0  # sigma2_lo
        assert float(row[4]) == 0.0  # sigma2_q

    def test_threads_do_not_change_bytes(self, tmp_path):
        doc = {"noise": NOISE, "tau": [1.0, 2.0], "atoms": 1, "k_max": 2,
               "probe": {"kind": "plus"}}
        _, a = run_cli(tmp_path, doc, "bound", out="a.csv")
        _, b = run_cli(tmp_path, doc, "bound", extra=["--threads", "2"], out="b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_all_skipped_is_resource_exit(self, tmp_path, capsys):
        doc = {"noise": NOISE, "tau": [4.0], "atoms": 2, "k_max": 4,
               "probe": {"kind": "plus"}, "dim_cap": 2}
        code, out = run_cli(tmp_path, doc, "bound")
        assert code == 3
        content = out.read_text()
        assert "skipped" in content
        assert "all 1 rows skipped" in capsys.readouterr().err

    def test_partial_skip_is_success(self, tmp_path):
        # k=1 fits (dim 3), k>=2 does not; rows stay ok with clamped sweep
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 2, "k_max": 3,
               "probe": {"kind": "plus"}, "dim_cap": 5}
        code, out = run_cli(tmp_path, doc, "bound")
        assert code == 0
        row = out.read_text().splitlines()[4].split(",")
        assert row[1] == "1"  # forced to k=1
        assert row[-1] == "ok"

    def test_rows_sorted_by_tau(self, tmp_path):
        doc = {"noise": NOISE, "tau": [2.0, 0.5, 1.0], "atoms": 1, "k_max": 1,
               "probe": {"kind": "plus"}}
        code, out = run_cli(tmp_path, doc, "bound")
        taus = [float(l.split(",")[0]) for l in out.read_text().splitlines()[4:]]
        assert taus == sorted(taus)


class TestOptimizeMode:
    def test_optimize_writes_state_and_is_deterministic(self, tmp_path):
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 1, "k_max": 1,
               "probe": {"kind": "optimize-product", "family": "coherent"},
               "seeds": [3]}
        _, a = run_cli(tmp_path, doc, "optimize", out="a.csv")
        _, b = run_cli(tmp_path, doc, "optimize", out="b.csv")
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[3].split(",")
        row = a.read_text().splitlines()[4].split(",")
        state = row[header.index("state")]
        assert ":" in state and ";" in state
        assert row[header.index("converged")] in ("true", "false")

    def test_skipped_row_has_every_column(self, tmp_path):
        # like bound, a skipped tau keeps the seed and status columns
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 2, "k_max": 2,
               "probe": {"kind": "optimize-product"}, "dim_cap": 2, "seeds": [4]}
        code, out = run_cli(tmp_path, doc, "optimize")
        assert code == 3
        (row,) = csv_rows(out)
        assert None not in row.values()
        assert row["seed"] == "4"
        assert row["status"] == "skipped: no k in 1..2 fits dimension cap 2 for N=2"


class TestSimulateAndCheckModes:
    def test_simulate_runs(self, tmp_path):
        doc = {"noise": NOISE, "tau": [0.5, 1.0], "atoms": 2,
               "sim": {"T": 0.5, "n_steps": 400, "n_runs": 3}}
        code, out = run_cli(tmp_path, doc, "simulate")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[3].split(",")[:4] == ["tau", "k", "T", "avar"]
        assert len(lines) == 6

    def test_bound_check_no_violation(self, tmp_path):
        doc = {"noise": NOISE, "tau": [0.5], "atoms": 1,
               "probe": {"kind": "plus"},
               "sim": {"T": 0.5, "n_steps": 2000, "n_runs": 4}}
        code, out = run_cli(tmp_path, doc, "bound-check")
        assert code == 0
        header = out.read_text().splitlines()[3].split(",")
        row = out.read_text().splitlines()[4].split(",")
        assert row[header.index("violation")] == "false"

    def test_bound_check_avar_columns_equal_simulate(self, tmp_path):
        # both modes reduce the same ensemble
        doc = {"noise": NOISE, "tau": [1.0, 0.5], "atoms": 2, "sim": SIM, "seeds": [5]}
        _, sim = run_cli(tmp_path, doc, "simulate", out="sim.csv")
        _, chk = run_cli(tmp_path, dict(doc, probe={"kind": "plus"}), "bound-check",
                         name="chk.json", out="chk.csv")
        cols = [[(r["tau"], r["avar"], r["stderr"]) for r in csv_rows(p)] for p in (sim, chk)]
        assert cols[0] == cols[1]
        assert [tau for tau, _, _ in cols[0]] == ["0.5", "1.0"]

    def test_bound_check_skips_tau_over_cap(self, tmp_path):
        # k=1 fits (dim 3), k=2 needs 27
        doc = {"noise": NOISE, "tau": [0.5, 1.0], "atoms": 2,
               "probe": {"kind": "plus"}, "sim": SIM, "dim_cap": 3}
        code, out = run_cli(tmp_path, doc, "bound-check")
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[4:]]
        assert [row[1] for row in rows] == ["1", "2"]
        assert rows[0][-1] == "ok"
        assert rows[1][-1] == "skipped: k=2 needs joint dimension 27 > cap 3"

    def test_bound_check_all_over_cap_is_resource_exit(self, tmp_path, capsys):
        doc = {"noise": NOISE, "tau": [0.5, 1.0], "atoms": 2,
               "probe": {"kind": "plus"}, "sim": SIM, "dim_cap": 2}
        code, out = run_cli(tmp_path, doc, "bound-check")
        assert code == 3
        assert out.read_text().count("skipped: k=") == 2
        assert "all 2 rows skipped" in capsys.readouterr().err


class TestGoldenCsv:
    """CLI output on configs/ against committed files, token by token.

    Only sigma2_q, which comes out of an eigensolve whose last bits may vary
    with the LAPACK build, and c_running, which is computed from it, compare
    at rtol 1e-12.  A change that means to move these bytes regenerates the
    file and says why.
    """

    @pytest.mark.parametrize(
        "name", ["simulate", "bound_check", "lo_avar", "bound_plus", "optimize_product"]
    )
    def test_matches_golden(self, tmp_path, name):
        config = CONFIG_DIR / f"{name}.json"
        out = tmp_path / f"{name}.csv"
        mode = json.loads(config.read_text())["mode"]
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
        got, want = out.read_text(), (GOLDEN / f"{name}.csv").read_text()
        assert got.endswith("\n")
        got, want = got.splitlines(), want.splitlines()
        assert got[:4] == want[:4]  # '#' lines and header
        assert len(got) == len(want)
        header = want[3].split(",")
        for got_row, want_row in zip(got[4:], want[4:]):
            pairs = list(zip(header, got_row.split(","), want_row.split(",")))
            assert len(pairs) == len(header) == got_row.count(",") + 1
            for column, g, w in pairs:
                if column in ("sigma2_q", "c_running"):
                    assert float(g) == pytest.approx(float(w), rel=1e-12, abs=0.0)
                else:
                    assert g == w, (column, got_row)


class TestMainEntry:
    def test_validation_exit_code_and_messages(self, tmp_path, capsys):
        doc = {"noise": dict(NOISE, alpha=-2.0), "tau": [1.0], "bogus": 1}
        code, _ = run_cli(tmp_path, doc, "lo-avar")
        assert code == 2
        err = capsys.readouterr().err
        assert "noise.alpha" in err and "bogus" in err

    def test_bad_json_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["lo-avar", "--config", str(path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path, capsys):
        code = cli.main(["lo-avar", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_numerical_failure_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "free_lo_avar", lambda *_: float("nan"))
        doc = {"noise": NOISE, "tau": [1.0]}
        code, _ = run_cli(tmp_path, doc, "lo-avar")
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_out_from_config(self, tmp_path):
        out_path = tmp_path / "from_config.csv"
        doc = {"noise": NOISE, "tau": [1.0], "out": str(out_path)}
        cfg = write_config(tmp_path, doc)
        code = cli.main(["lo-avar", "--config", cfg])
        assert code == 0
        assert out_path.exists()
