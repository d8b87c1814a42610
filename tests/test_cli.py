"""CLI: config validation, CSV output, determinism, exit codes."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

import qavar.cli as cli
from qavar.core import ProductProbe, Scenario, qavar
from qavar.hilbert import ghz_step_state, plus_step_state
from qavar.noise import NoiseParams, free_lo_avar
from qavar.optimize import bound_curve

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
    canonical = json.dumps(cfg.resolved, sort_keys=True, separators=(",", ":"))
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

    def test_overflowing_tau_over_T_is_a_config_error(self, tmp_path, capsys):
        # tau / sim.T overflows to inf, which has no integer k
        doc = dict(MINIMAL["simulate"], tau=[1e308], sim=dict(SIM, T=1e-308))
        code, out = run_cli(tmp_path, doc, "simulate")
        assert code == 2 and not out.exists()
        assert "config error: tau: 1e+308 is not a positive integer multiple" in capsys.readouterr().err

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

    @pytest.mark.parametrize("mode, doc, want", [
        ("bound", {"tau": [1.0, 2.0], "k_max": 1}, [
            "# config-hash 83b7d388625a5768533e2a7b08c5cf7c17207e390383cad4b376ff9b3c5387b4",
            "tau,k,T,sigma2_lo,sigma2_q,c_running,seed,status",
            "1.0,,,,,,0,skipped: no k in 1..1 fits dimension cap 20000 for N=40000",
            "2.0,,,,,,0,skipped: no k in 1..1 fits dimension cap 20000 for N=40000"]),
        ("bound-check", {"tau": [1.0, 0.5], "sim": SIM}, [
            "# config-hash a432d3b466ca045bca2076c81fe230e5581ebfad18176e0bb276e722233d67ef",
            "tau,k,T,avar,stderr,sigma2_q,violation,seed,status",
            "0.5,1,0.5,,,,,0,skipped: k=1 needs joint dimension 40001 > cap 20000",
            "1.0,2,0.5,,,,,0,skipped: k=2 needs joint dimension 64004800120001 > cap 20000"]),
    ])
    def test_config_the_cap_skips_builds_no_probe(self, tmp_path, monkeypatch, mode, doc, want):
        # N + 1 > dim_cap: no row fits, so the O(N^2) |+> build is skipped
        def refuse(n_atoms):
            raise AssertionError("probe built")

        monkeypatch.setattr(cli, "plus_step_state", refuse)
        doc = dict(doc, noise=NOISE, atoms=40000, probe={"kind": "plus"})
        code, out = run_cli(tmp_path, doc, mode)
        assert code == 3
        assert out.read_text().splitlines() == [f"# qavar {cli.__version__}", want[0], "# seed 0",
                                               *want[1:]]


class TestSchemaMatchesCanonical:
    """validate(cfg.resolved) accepts the resolved config and gives it back."""

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_example_configs(self, path):
        cfg = cli.validate(json.loads(path.read_text()))
        assert cli.validate(cfg.resolved).resolved == cfg.resolved

    @pytest.mark.parametrize("mode", cli.MODES)
    def test_minimal_config_per_mode(self, mode):
        cfg = cli.validate(MINIMAL[mode], mode_override=mode)
        assert cli.validate(cfg.resolved).resolved == cfg.resolved


class TestConfigHash:
    """Digests of resolved configs, pinned so that a change to how the config
    is resolved cannot move the '# config-hash' line unnoticed."""

    MINIMAL_DIGESTS = {
        "bound": "f1643eb80da0ca3403074489ebbbbb9b09a0557b5f3f61cf54a7c3ea477ec16f",
        "optimize": "8b57a9c8268de67d213cdaf5b33e069f51d79b4db6833f3d99ea7ad02ea598a7",
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
            "a1d6fa3339d46c594d0d107be69b60e92d6a2537abd5f48da97f2cbde8ee276b")

    def test_integer_spellings_hash_like_floats(self):
        ints = dict(MINIMAL["simulate"], noise=dict(NOISE, alpha=2), tau=[1],
                    servo={"gain": 1})
        floats = dict(MINIMAL["simulate"], noise=dict(NOISE, alpha=2.0), tau=[1.0],
                      servo={"gain": 1.0})
        a, b = (cli.validate(doc, mode_override="simulate") for doc in (ints, floats))
        assert a.resolved == b.resolved
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

    def test_modes_column_matches_fields(self):
        text = README.read_text()
        lines = text[text.index("| key | accepted values |"):].splitlines()
        rows = list(takewhile(lambda line: line.startswith("|"), lines))[2:]
        modes: dict[str, set] = {}
        for f in cli.FIELDS:  # probe.kind has one row per mode group
            modes.setdefault(f.path, set()).update(f.modes)
        checked = set()
        for row in rows:
            cells = [cell.strip() for cell in row.split("|")[1:-1]]
            named = set(re.findall(r"`([^`]+)`", cells[3]))
            if cells[3] == "all":
                listed = set(cli.MODES)
            elif cells[3].startswith("all but "):
                listed = set(cli.MODES) - named
            else:
                listed = named
            for key in re.findall(r"`([^`]+)`", cells[0]):
                if key in modes:
                    assert listed == modes[key], key
                    checked.add(key)
        assert checked == set(modes)


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

    def test_sweep_stops_below_cap_without_visiting_k_max(self, tmp_path, monkeypatch):
        # D = 2, 8, 32, 128 at N = 1: the library is handed k = 3, never 10^6
        # in one bound_curve call over every tau
        seen = []
        real = cli.bound_curve

        def recorder(noise, n_atoms, taus, k_max, **kw):
            seen.append((list(taus), k_max))
            return real(noise, n_atoms, taus, k_max, **kw)

        monkeypatch.setattr(cli, "bound_curve", recorder)
        doc = {"noise": NOISE, "tau": [2.0, 1.0, 1.5], "atoms": 1, "k_max": 10**6,
               "probe": {"kind": "plus"}, "dim_cap": 100}
        code, _ = run_cli(tmp_path, doc, "bound")
        assert code == 0
        assert seen == [([1.0, 1.5, 2.0], 3)]

    def test_plus_probe_past_int64_binomials(self, tmp_path):
        # C(68, 34) > 2^64 (D = 69 at k = 1)
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 68, "k_max": 1,
               "probe": {"kind": "plus"}}
        code, out = run_cli(tmp_path, doc, "bound")
        assert code == 0
        assert [row["status"] for row in csv_rows(out)] == ["ok"]

    def test_plus_probe_past_float_binomials(self, tmp_path):
        # float(C(1030, 515)) overflows (D = 1031 at k = 1)
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 1030, "k_max": 1,
               "probe": {"kind": "plus"}}
        code, out = run_cli(tmp_path, doc, "bound")
        assert code == 0
        assert [row["status"] for row in csv_rows(out)] == ["ok"]

    def test_rows_sorted_by_tau(self, tmp_path):
        doc = {"noise": NOISE, "tau": [2.0, 0.5, 1.0], "atoms": 1, "k_max": 1,
               "probe": {"kind": "plus"}}
        code, out = run_cli(tmp_path, doc, "bound")
        taus = [float(l.split(",")[0]) for l in out.read_text().splitlines()[4:]]
        assert taus == sorted(taus)


class TestSeedIsInert:
    """bound and optimize draw nothing at random: the master seed reaches
    only the '# seed' line, the config hash and the seed column."""

    @pytest.mark.parametrize("mode, probe", [
        ("bound", {"kind": "plus"}),
        ("optimize", {"kind": "optimize-product"}),
    ])
    def test_seed_moves_only_its_own_tokens(self, tmp_path, mode, probe):
        doc = {"noise": NOISE, "tau": [1.0, 1.5], "atoms": 2, "k_max": 2, "probe": probe}
        outs = [run_cli(tmp_path, doc, mode, extra=["--seed", str(seed)], out=f"{seed}.csv")
                for seed in (3, 4)]
        assert [code for code, _ in outs] == [0, 0]
        a, b = (out.read_text().splitlines() for _, out in outs)
        assert a[0] == b[0] and a[3] == b[3]
        assert a[1] != b[1] and (a[2], b[2]) == ("# seed 3", "# seed 4")
        rows_a, rows_b = csv_rows(outs[0][1]), csv_rows(outs[1][1])
        assert [r.pop("seed") for r in rows_a] == ["3", "3"]
        assert [r.pop("seed") for r in rows_b] == ["4", "4"]
        assert rows_a == rows_b


class TestOptimizeMode:
    def test_optimize_writes_state_and_is_deterministic(self, tmp_path):
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 1, "k_max": 1,
               "probe": {"kind": "optimize-product"}, "seeds": [3]}
        _, a = run_cli(tmp_path, doc, "optimize", out="a.csv")
        _, b = run_cli(tmp_path, doc, "optimize", out="b.csv")
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[3].split(",")
        row = a.read_text().splitlines()[4].split(",")
        state = row[header.index("state")]
        assert ":" in state and ";" in state
        assert row[header.index("converged")] in ("true", "false")

    def test_cap_equals_smaller_k_max(self, tmp_path):
        # dim_cap 30 admits k <= 2 at N = 2 (D = 3, 27, 243)
        doc = {"noise": NOISE, "tau": [1.0], "atoms": 2,
               "probe": {"kind": "optimize-product"}, "seeds": [2]}
        _, capped = run_cli(tmp_path, dict(doc, k_max=3, dim_cap=30), "optimize",
                            name="capped.json", out="capped.csv")
        _, plain = run_cli(tmp_path, dict(doc, k_max=2), "optimize",
                           name="plain.json", out="plain.csv")
        assert csv_rows(capped) == csv_rows(plain)

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


class TestRowsComeFromBoundCurve:
    @pytest.mark.parametrize("mode, probe", [
        ("bound", {"kind": "plus"}),
        ("optimize", {"kind": "optimize-product"}),
        ("optimize", {"kind": "optimize-joint"}),
    ])
    def test_rows_equal_the_scans_token_for_token(self, tmp_path, mode, probe):
        doc = {"noise": NOISE, "tau": [1.5, 1.0], "atoms": 1, "k_max": 2, "probe": probe}
        code, out = run_cli(tmp_path, doc, mode)
        assert code == 0
        spec = plus_step_state(1) if mode == "bound" else probe["kind"]
        want = []
        for scan in bound_curve(PAR, 1, [1.0, 1.5], 2, probe=spec):
            row = {"tau": scan.tau, "k": scan.k_opt, "T": scan.T_opt,
                   "sigma2_lo": scan.sigma2_lo, "sigma2_q": scan.sigma2_q,
                   "c_running": scan.sigma2_q * PAR.omega0**2 * scan.tau}
            if mode == "optimize":
                rep = scan.evaluations[scan.k_opt - 1].report
                row.update(iterations=rep.n_evals, converged=rep.converged,
                           state=cli._fmt_state(rep.state))
            want.append({key: cli._fmt(v) for key, v in row.items()}
                        | {"seed": "0", "status": "ok"})
        assert csv_rows(out) == want


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
        doc = {"noise": NOISE, "tau": [0.5, 1.0], "atoms": 1,
               "probe": {"kind": "plus"},
               "sim": {"T": 0.5, "n_steps": 2000, "n_runs": 4}}
        code, out = run_cli(tmp_path, doc, "bound-check")
        assert code == 0
        rows = csv_rows(out)
        assert [row["violation"] for row in rows] == ["false", "false"]
        # servo noise sits above the bound
        assert all(float(row["avar"]) > float(row["sigma2_q"]) for row in rows)

    def test_bound_check_ghz_rows_are_qavar_and_the_3se_rule(self, tmp_path):
        doc = {"noise": NOISE, "tau": [0.5, 1.0], "atoms": 2, "probe": {"kind": "ghz"},
               "sim": {"T": 0.5, "n_steps": 500, "n_runs": 2}, "seeds": [1]}
        code, out = run_cli(tmp_path, doc, "bound-check")
        assert code == 0
        rows = csv_rows(out)
        assert [row["k"] for row in rows] == ["1", "2"]
        for row, k in zip(rows, (1, 2)):
            scen = Scenario(noise=PAR, n_atoms=2, k=k, T=0.5,
                            probe=ProductProbe(ghz_step_state(2)))
            s2q = qavar(scen).sigma2_q
            assert row["sigma2_q"] == repr(float(s2q))
            below = float(row["avar"]) + 3.0 * float(row["stderr"]) < s2q
            assert row["violation"] == ("true" if below else "false")

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

def assert_matches_golden(out, name):
    """out, the CSV of configs/<name>.json, against its golden file, token by token.

    Only sigma2_q, which comes out of an eigensolve whose last bits may vary
    with the LAPACK build, and c_running, which is computed from it, compare
    at rtol 1e-12.  A change that means to move these bytes regenerates the
    file and says why.
    """
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


class TestGoldenCsv:
    """CLI output on configs/ against committed files (`assert_matches_golden`)."""

    @pytest.mark.parametrize(
        "name", ["simulate", "bound_check", "lo_avar", "bound_plus", "optimize_product"]
    )
    def test_matches_golden(self, tmp_path, name):
        config = CONFIG_DIR / f"{name}.json"
        out = tmp_path / f"{name}.csv"
        mode = json.loads(config.read_text())["mode"]
        assert cli.main([mode, "--config", str(config), "--out", str(out)]) == 0
        assert_matches_golden(out, name)

    def test_optimize_product_takes_few_evaluations(self, tmp_path):
        # N = 2 has one angle, so each row's search is one bounded Brent run
        config = CONFIG_DIR / "optimize_product.json"
        out = tmp_path / "optimize_product.csv"
        assert cli.main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        rows = csv_rows(out)
        assert rows and all(int(row["iterations"]) <= 20 for row in rows)


# Runs <configs>/<name>.json for each name after the first two arguments (the
# config and output folders) in a fresh interpreter, then prints the scipy
# modules it loaded.
_RUN_CONFIGS = """\
import json, sys
from pathlib import Path
from qavar import cli
configs, out = Path(sys.argv[1]), Path(sys.argv[2])
for name in sys.argv[3:]:
    config = configs / f"{name}.json"
    mode = json.loads(config.read_text())["mode"]
    assert cli.main([mode, "--config", str(config), "--out", str(out / f"{name}.csv")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(tmp_path, names, configs=CONFIG_DIR):
    env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _RUN_CONFIGS, str(configs), str(tmp_path),
                           *names], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestStartsWithoutScipy:
    """Only the Nelder-Mead search and the see-saw load scipy; all else runs on numpy."""

    def test_fixed_probe_modes_load_no_scipy(self, tmp_path):
        names = ["bound_plus", "bound_check", "simulate", "lo_avar"]
        assert scipy_modules_after(tmp_path, names) == []
        for name in names:
            assert_matches_golden(tmp_path / f"{name}.csv", name)

    def test_one_angle_product_search_loads_no_scipy(self, tmp_path):
        # N = 2: each row's search is the in-house bounded Brent run
        assert scipy_modules_after(tmp_path, ["optimize_product"]) == []
        assert_matches_golden(tmp_path / "optimize_product.csv", "optimize_product")

    def test_nelder_mead_search_loads_scipy_optimize(self, tmp_path):
        # N = 4 has two angles, so the product search is a Nelder-Mead run
        doc = dict(MINIMAL["optimize"], mode="optimize", atoms=4)
        write_config(tmp_path, doc, "nelder_mead.json")
        assert "scipy.optimize" in scipy_modules_after(tmp_path, ["nelder_mead"], tmp_path)

    def test_see_saw_loads_scipy_linalg_alone(self, tmp_path):
        doc = dict(MINIMAL["optimize"], mode="optimize", atoms=2,
                   probe={"kind": "optimize-joint"})
        write_config(tmp_path, doc, "see_saw.json")
        loaded = scipy_modules_after(tmp_path, ["see_saw"], tmp_path)
        assert "scipy.linalg" in loaded
        assert "scipy.optimize" not in loaded


class TestMainEntry:
    def test_validation_exit_code_and_messages(self, tmp_path, capsys):
        doc = {"noise": dict(NOISE, alpha=-2.0), "tau": [1.0], "bogus": 1}
        code, _ = run_cli(tmp_path, doc, "lo-avar")
        assert code == 2
        err = capsys.readouterr().err
        assert "noise.alpha" in err and "bogus" in err

    @pytest.mark.parametrize("mode, doc, path", [
        ("bound", dict(MINIMAL["bound"], noise=dict(NOISE, alpha=float("inf"))), "noise.alpha"),
        ("simulate", dict(MINIMAL["simulate"],
                          tau={"start": 0.5, "stop": float("inf"), "points": 3}), "tau.stop"),
        ("lo-avar", dict(MINIMAL["lo-avar"], tau=[1.0, float("inf")]), "tau"),
        ("bound", dict(MINIMAL["bound"], probe={
            "kind": "amplitudes", "amplitudes": [[float("nan"), 0.0], [0.5, 0.0]]}),
         "probe.amplitudes"),
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, mode, doc, path):
        # json.dumps writes Infinity and NaN, and json.loads reads them back
        code, out = run_cli(tmp_path, doc, mode)
        assert code == 2 and not out.exists()
        assert f"config error: {path}: must be" in capsys.readouterr().err

    def test_bad_json_exit(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli.main(["lo-avar", "--config", str(path)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text, what", [
        (b"\xff\xfe{}", "'utf-8' codec can't decode"),  # JSON text is UTF-8
        (b"[" * 100_000, "maximum recursion depth"),
        (b"1" * 5000, "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf8", "too-deep", "too-many-digits"])
    def test_unparseable_config_exit(self, tmp_path, capsys, text, what):
        path = tmp_path / "unparseable.json"
        path.write_bytes(text)
        code = cli.main(["bound", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config: invalid JSON: ") and what in err and err.count("\n") == 1

    def test_missing_file_exit(self, tmp_path, capsys):
        code = cli.main(["lo-avar", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_numerical_failure_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "free_lo_avar", lambda *_: float("nan"))
        doc = {"noise": NOISE, "tau": [1.0]}
        code, _ = run_cli(tmp_path, doc, "lo-avar")
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, noise, what", [
        ("lo-avar", {"gamma": 1e-200}, "division by zero"),
        ("bound", {"gamma": 1e-200}, "division by zero"),
        ("simulate", {"gamma": 1e-200}, "division by zero"),
        ("simulate", {"gamma": 1e-158}, "alpha / gamma^2 overflows"),
        ("bound", {"alpha": 1e308}, "alpha / gamma^2 overflows"),
        ("lo-avar", {"gamma": 1e-160}, "alpha / gamma^2 overflows"),
    ])
    def test_kernel_overflow_is_numerical_failure(self, tmp_path, capsys, mode, noise, what):
        # gamma^2 underflows to 0 (1e-200) or to a subnormal (1e-158, 1e-160), or
        # alpha is so large that the kernels' alpha / gamma^2 overflows
        doc = dict(MINIMAL[mode], noise=dict(NOISE, **noise))
        code, out = run_cli(tmp_path, doc, mode)
        assert code == 4 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and what in err

    def test_memory_error_is_resource_exit(self, tmp_path, monkeypatch, capsys):
        # a bare MemoryError has no message, so the line names a fixed reason
        for error, line in ((MemoryError("Unable to allocate 22.4 GiB"),
                             "resource: Unable to allocate 22.4 GiB\n"),
                            (MemoryError(), "resource: out of memory\n")):
            def out_of_memory(*_):
                raise error

            monkeypatch.setattr(cli, "ensemble_avar", out_of_memory)
            doc = {"noise": NOISE, "tau": [1.0], "atoms": 1, "sim": SIM}
            code, out = run_cli(tmp_path, doc, "simulate")
            assert code == 3
            assert capsys.readouterr().err == line
            assert not out.exists()

    def test_tau_range_past_memory_is_resource_exit(self, tmp_path, capsys):
        # passes the schema; numpy refuses the 6.94 EiB grid before touching memory
        doc = {"noise": NOISE, "tau": {"start": 0.25, "stop": 16.0, "points": 10**18}}
        code, out = run_cli(tmp_path, doc, "lo-avar")
        assert code == 3 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("resource: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize("by_option", [True, False], ids=["option", "config"])
    def test_unwritable_out_exit(self, tmp_path, capsys, by_option):
        out_path = tmp_path / "missing" / "out.csv"
        doc = dict(MINIMAL["lo-avar"], **({} if by_option else {"out": str(out_path)}))
        extra = ["--out", str(out_path)] if by_option else []
        code = cli.main(["lo-avar", "--config", write_config(tmp_path, doc), *extra])
        assert code == 2 and not out_path.parent.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"out: cannot write {out_path}: ") and err.count("\n") == 1

    def test_probe_family_is_an_unknown_key(self, tmp_path, capsys):
        probe = {"kind": "optimize-product", "family": "symmetric"}
        doc = dict(MINIMAL["optimize"], probe=probe)
        code, out = run_cli(tmp_path, doc, "optimize")
        assert code == 2 and not out.exists()
        assert "config error: probe.family: unknown key" in capsys.readouterr().err

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL["bound"])
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_out_from_config(self, tmp_path):
        out_path = tmp_path / "from_config.csv"
        doc = {"noise": NOISE, "tau": [1.0], "out": str(out_path)}
        cfg = write_config(tmp_path, doc)
        code = cli.main(["lo-avar", "--config", cfg])
        assert code == 0
        assert out_path.exists()
