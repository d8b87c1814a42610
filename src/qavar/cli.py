"""Command-line front end: JSON config in, CSV out.

    qavar <mode> --config <path> [--out <path>] [--seed <u64>] [--threads <n>]

Modes: bound, optimize, simulate, lo-avar, bound-check.  The config schema is
the FIELDS table below (path, check, default, modes), applied strictly:
unknown or mode-inapplicable keys are rejected and messages carry field
paths.  Output is deterministic: the same config and seeds give a
byte-identical CSV, metadata lines ('# ...') carry the tool version, a hash
of the resolved config, and the master seed.

Exit codes: 0 success, 2 validation error, 3 resource cap left no work,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .clock import ServoConfig, SimConfig, bound_check, ensemble_avar
from .core import DimensionCapError, joint_dim, layout_k
from .hilbert import SymmetricState, ghz_step_state, plus_step_state
from .noise import NoiseParams, free_lo_avar
from .optimize import ProbeSpec, optimize_interrogation

__all__ = ["CliConfigError", "RunConfig", "validate", "run", "main"]

MODES = ("bound", "optimize", "simulate", "lo-avar", "bound-check")
PROBED = ("bound", "optimize", "bound-check")
SIMULATED = ("simulate", "bound-check")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4


class CliConfigError(Exception):
    """Validation failure; `errors` lists one message per offending field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class RunConfig:
    """A validated run: the library objects the row builders use, and the
    resolved config they were built from."""

    mode: str
    resolved: dict
    noise: NoiseParams
    taus: np.ndarray
    seed: int
    out: str
    dim_cap: int
    atoms: int = 0
    k_max: int = 0
    probe: Optional[ProbeSpec] = None
    probe_family: Optional[str] = None
    sim: Optional[SimConfig] = None
    n_runs: int = 0

    def canonical(self) -> dict:
        """Resolved config as a plain dict (hash input; excludes out path)."""
        return self.resolved


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_taus(x: Any) -> bool:
    """A non-empty list of numbers > 0, or a range object (see `_tau_grid`)."""
    return isinstance(x, dict) or (
        isinstance(x, list) and x != [] and all(_is_number(t) and t > 0 for t in x))


def _is_pairs(x: Any) -> bool:
    return isinstance(x, list) and all(
        isinstance(a, list) and len(a) == 2 and all(_is_number(v) for v in a) for a in x
    )


class Check(NamedTuple):
    """What a key accepts: a predicate on the JSON value, the words naming it
    in an error, and the type an accepted value is read as."""

    accepts: Callable[[Any], bool]
    what: str
    read: Callable[[Any], Any] = lambda v: v


def number(op: str, low: float, high: Optional[float] = None) -> Check:
    """A real value with `v op low` (op '>' or '>='), and v <= high if given."""
    above = operator.gt if op == ">" else operator.ge
    what = (f"a number {op} {low}" if high is None
            else f"a number in {'(' if op == '>' else '['}{low}, {high}]")
    return Check(lambda v: _is_number(v) and above(v, low) and (high is None or v <= high),
                 what, float)


def integer(low: int) -> Check:
    return Check(lambda v: _is_int(v) and v >= low, f"an integer >= {low}", int)


def one_of(*choices: str) -> Check:
    return Check(lambda v: v in choices, " or ".join(map(repr, choices)))


class Field(NamedTuple):
    """One config key: dotted path, what it accepts, default (REQUIRED: none;
    None: optional, left out of the resolved config), accepting modes."""

    path: str
    check: Check
    default: Any
    modes: tuple[str, ...]


REQUIRED = object()
FIXED_KINDS = ("plus", "ghz", "amplitudes")
OPT_KINDS = ("optimize-product", "optimize-joint")

# The config schema.  A block ("noise", "probe", ...) is required when one of
# its keys is; `validate` applies this table, then the rules spanning fields.
FIELDS = (
    Field("noise.alpha", number(">=", 0), REQUIRED, MODES),
    Field("noise.beta", number(">=", 0), REQUIRED, MODES),
    Field("noise.gamma", number(">", 0), REQUIRED, MODES),
    Field("noise.omega0", number(">", 0), REQUIRED, MODES),
    Field("tau", Check(_is_taus, "a non-empty list of numbers > 0 or a range object"),
          REQUIRED, MODES),
    Field("atoms", integer(1), REQUIRED, ("bound", "optimize", "simulate", "bound-check")),
    Field("k_max", integer(1), REQUIRED, ("bound", "optimize")),
    Field("probe.kind", Check(lambda v: v in FIXED_KINDS + OPT_KINDS,
                              f"one of {', '.join(FIXED_KINDS + OPT_KINDS)}"), REQUIRED, PROBED),
    Field("probe.amplitudes",
          Check(_is_pairs, "a list of atoms+1 [re, im] pairs",
                lambda pairs: [[float(re), float(im)] for re, im in pairs]), None, PROBED),
    Field("probe.family", one_of("symmetric", "coherent"), "symmetric", PROBED),
    Field("servo.gain", number(">", 0, 2), 0.5, SIMULATED),
    Field("servo.estimator", one_of("linear", "arcsine"), "linear", SIMULATED),
    Field("sim.T", number(">", 0), REQUIRED, SIMULATED),
    Field("sim.n_steps", integer(2), REQUIRED, SIMULATED),
    Field("sim.n_runs", integer(2), REQUIRED, SIMULATED),
    Field("seeds", Check(lambda v: isinstance(v, list) and len(v) == 1 and _is_int(v[0])
                         and v[0] >= 0, "a list with exactly one unsigned integer (master seed)"),
          [0], MODES),
    Field("out", Check(lambda v: isinstance(v, str) and v != "", "a non-empty string"),
          None, MODES),
    Field("dim_cap", integer(2), 20_000, MODES),
)


def _apply_fields(doc: dict, mode: str, errors: list[str]) -> tuple[dict, set]:
    """Check doc against the FIELDS of one mode.

    Returns the accepted (typed) or defaulted values by path, and the paths
    the config gave.  Every problem is appended to errors.
    """
    blocks: dict[str, list[Field]] = {}
    for f in FIELDS:
        if mode in f.modes:
            blocks.setdefault(f.path.split(".")[0], []).append(f)
    errors += [f"{key}: unknown or not allowed in mode {mode}"
               for key in doc if key != "mode" and key not in blocks]
    values: dict[str, Any] = {}
    given: set[str] = set()
    for head, group in blocks.items():
        source = doc
        if "." in group[0].path:
            if head not in doc and any(f.default is REQUIRED for f in group):
                errors.append(f"{head}: missing")
                continue
            source = doc.get(head, {})
            if not isinstance(source, dict):
                errors.append(f"{head}: must be an object")
                continue
            keys = [f.path.split(".")[1] for f in group]
            errors += [f"{head}.{key}: unknown key" for key in source if key not in keys]
        for f in group:
            key = f.path.split(".")[-1]
            if key not in source:
                if f.default is REQUIRED:
                    errors.append(f"{f.path}: missing")
                else:
                    values[f.path] = f.default
            elif f.check.accepts(source[key]):
                values[f.path] = f.check.read(source[key])
                given.add(f.path)
            else:
                errors.append(f"{f.path}: must be {f.check.what}, got {source[key]!r}")
    return values, given


def _tau_grid(td: Any, errors: list[str]) -> Optional[np.ndarray]:
    """The tau list, or the grid of a {start, stop, points, spacing} range."""
    if isinstance(td, list):
        return np.asarray([float(t) for t in td])
    before = len(errors)
    errors += [f"tau.{key}: unknown key" for key in td
               if key not in ("start", "stop", "points", "spacing")]
    start, stop, points = td.get("start"), td.get("stop"), td.get("points")
    spacing = td.get("spacing", "log")
    if not (_is_number(start) and start > 0):
        errors.append("tau.start: must be a number > 0")
    if not (_is_number(stop) and _is_number(start) and stop >= start):
        errors.append("tau.stop: must be a number >= tau.start")
    if not (_is_int(points) and points >= 1):
        errors.append("tau.points: must be an integer >= 1")
    if spacing not in ("log", "linear"):
        errors.append(f"tau.spacing: must be 'log' or 'linear', got {spacing!r}")
    if len(errors) > before:
        return None
    grid = np.geomspace if spacing == "log" else np.linspace
    return grid(float(start), float(stop), int(points))


def validate(
    doc: Any,
    mode_override: Optional[str] = None,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
) -> RunConfig:
    """Check a parsed JSON document against FIELDS and the cross-field rules.

    Raises CliConfigError listing every problem found (field paths included).
    """
    if not isinstance(doc, dict):
        raise CliConfigError(["config: top level must be a JSON object"])
    mode = doc.get("mode", mode_override)
    if mode is None:
        raise CliConfigError(["mode: missing (give it in the config or on the command line)"])
    if mode not in MODES:
        raise CliConfigError([f"mode: must be one of {', '.join(MODES)}; got {mode!r}"])
    if mode_override is not None and mode != mode_override:
        raise CliConfigError(
            [f"mode: config says {doc['mode']!r} but command line says {mode_override!r}"])

    errors: list[str] = []
    err = errors.append
    values, given = _apply_fields(doc, mode, errors)
    taus = _tau_grid(values["tau"], errors) if "tau" in values else None

    kind = values.get("probe.kind")
    want = OPT_KINDS if mode == "optimize" else FIXED_KINDS
    if kind is not None and kind not in want:
        err(f"probe.kind: must be one of {', '.join(want)} in mode {mode}; got {kind!r}")
    atoms, amps = values.get("atoms", 0), None
    if "probe.amplitudes" in given and kind != "amplitudes":
        err("probe.amplitudes: only allowed with kind 'amplitudes'")
    elif kind == "amplitudes" and "probe.amplitudes" in values:
        pairs = values["probe.amplitudes"]
        if pairs is None or (atoms and len(pairs) != atoms + 1):
            err("probe.amplitudes: must be a list of atoms+1 [re, im] pairs")
        else:
            amps = np.array([complex(re, im) for re, im in pairs])
            if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
                err("probe.amplitudes: not normalized within 1e-10")
    if "probe.family" in given and kind != "optimize-product":
        err("probe.family: only allowed with kind 'optimize-product'")

    sim_T, n_steps = values.get("sim.T"), values.get("sim.n_steps")
    if sim_T is not None and taus is not None:
        for t in taus:
            try:
                k = layout_k(t, sim_T)
            except ValueError:
                err(f"tau: {t} is not a positive integer multiple of sim.T={sim_T}")
                continue
            if n_steps is not None and 2 * k > n_steps:
                err(f"tau: {t} needs 2k = {2 * k} steps, more than sim.n_steps={n_steps}")

    if seed_override is not None and seed_override < 0:
        err("--seed: must be >= 0")
    if errors:
        raise CliConfigError(errors)

    seed = values["seeds"][0] if seed_override is None else seed_override
    resolved: dict[str, Any] = {"mode": mode}
    for path, value in values.items():
        head, _, key = path.rpartition(".")
        if value is not None:
            (resolved.setdefault(head, {}) if head else resolved)[key] = value
    resolved.update(tau=[float(t) for t in taus], seeds=[seed])
    resolved.pop("out", None)
    if kind != "optimize-product":
        resolved.get("probe", {}).pop("family", None)

    probe = kind
    if kind == "amplitudes":
        probe = SymmetricState(n_atoms=atoms, amplitudes=amps)
    elif kind in ("plus", "ghz"):
        probe = (plus_step_state if kind == "plus" else ghz_step_state)(atoms)
    noise = NoiseParams(**resolved["noise"])
    sim = (SimConfig(noise, atoms, sim_T, n_steps, ServoConfig(**resolved["servo"]))
           if mode in SIMULATED else None)
    return RunConfig(
        mode=mode,
        resolved=resolved,
        noise=noise,
        taus=taus,
        seed=seed,
        out=out_override if out_override is not None else values["out"] or f"{mode}.csv",
        dim_cap=values["dim_cap"],
        atoms=atoms,
        k_max=values.get("k_max", 0),
        probe=probe,
        probe_family=values.get("probe.family"),
        sim=sim,
        n_runs=values.get("sim.n_runs", 0),
    )


def _fmt(value: Any) -> str:
    """Shortest round-trip CSV token."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _fmt_state(state: np.ndarray) -> str:
    if state.size > 64:
        return f"dim={state.size}"
    return ";".join(f"{float(a.real)!r}:{float(a.imag)!r}" for a in state)


def _rows_lo_avar(cfg: RunConfig, threads: int) -> tuple[list[str], list[list[str]]]:
    rows = [[_fmt(t), _fmt(free_lo_avar(cfg.noise, t)), "ok"] for t in map(float, cfg.taus)]
    return ["tau", "sigma2_lo", "status"], rows


def _rows_scan(cfg: RunConfig, threads: int) -> tuple[list[str], list[list[str]]]:
    """bound and optimize: one k sweep per tau; optimize adds what the
    optimizer reports on the best k."""
    optimized = cfg.mode == "optimize"
    header = (["tau", "k", "T", "sigma2_lo", "sigma2_q", "c_running"]
              + (["iterations", "converged", "state"] if optimized else [])
              + ["seed", "status"])
    w0sq = cfg.noise.omega0**2
    taus = [float(t) for t in sorted(cfg.taus)]
    child_seeds = np.random.SeedSequence(cfg.seed).spawn(len(taus))

    def one(i: int) -> list[str]:
        tau = taus[i]
        try:
            scan = optimize_interrogation(
                cfg.noise, cfg.atoms, tau, cfg.k_max,
                probe=cfg.probe, dim_cap=cfg.dim_cap,
                seed=int(child_seeds[i].generate_state(1)[0]), family=cfg.probe_family,
            )
        except DimensionCapError as exc:
            return [_fmt(tau)] + [""] * (len(header) - 3) + [_fmt(cfg.seed), f"skipped: {exc}"]
        row = [_fmt(tau), _fmt(scan.k_opt), _fmt(scan.T_opt),
               _fmt(scan.sigma2_lo), _fmt(scan.sigma2_q), _fmt(scan.sigma2_q * w0sq * tau)]
        if optimized:
            rep = min(scan.evaluations, key=lambda e: e.sigma2_q).report
            row += [_fmt(rep.n_evals), _fmt(rep.converged), _fmt_state(rep.state)]
        return row + [_fmt(cfg.seed), "ok"]

    if threads <= 1 or len(taus) <= 1:
        return header, [one(i) for i in range(len(taus))]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return header, list(pool.map(one, range(len(taus))))


def _rows_simulate(cfg: RunConfig, threads: int) -> tuple[list[str], list[list[str]]]:
    header = ["tau", "k", "T", "avar", "stderr", "n_pairs", "n_runs", "seed", "status"]
    taus = sorted(float(t) for t in cfg.taus)
    rows = [
        [_fmt(r.tau), _fmt(r.k), _fmt(cfg.sim.T), _fmt(r.avar), _fmt(r.stderr),
         _fmt(r.n_pairs), _fmt(cfg.n_runs), _fmt(cfg.seed), "ok"]
        for r in ensemble_avar(cfg.sim, taus, cfg.n_runs, cfg.seed)
    ]
    return header, rows


def _rows_bound_check(cfg: RunConfig, threads: int) -> tuple[list[str], list[list[str]]]:
    header = ["tau", "k", "T", "avar", "stderr", "sigma2_q", "violation", "seed", "status"]
    taus = sorted(float(t) for t in cfg.taus)
    rows = {}
    for t in taus:
        k = layout_k(t, cfg.sim.T)
        try:
            joint_dim(cfg.atoms, k, cfg.dim_cap)
        except DimensionCapError as exc:
            rows[t] = [_fmt(t), _fmt(k), _fmt(cfg.sim.T), "", "", "", "", _fmt(cfg.seed),
                       f"skipped: {exc}"]
    ok_taus = [t for t in taus if t not in rows]
    for r in bound_check(cfg.sim, cfg.probe, ok_taus, cfg.n_runs, cfg.seed, cfg.dim_cap):
        rows[r.tau] = [
            _fmt(r.tau), _fmt(r.k), _fmt(cfg.sim.T), _fmt(r.avar),
            _fmt(r.stderr), _fmt(r.sigma2_q), _fmt(r.violation),
            _fmt(cfg.seed), "ok",
        ]
    return header, [rows[t] for t in taus]


def run(cfg: RunConfig, threads: int = 1) -> int:
    """Execute a validated run and write the CSV. Returns the exit code."""
    dispatch = {
        "lo-avar": _rows_lo_avar,
        "bound": _rows_scan,
        "optimize": _rows_scan,
        "simulate": _rows_simulate,
        "bound-check": _rows_bound_check,
    }
    try:
        header, rows = dispatch[cfg.mode](cfg, threads)
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    bad = [row for row in rows if {"nan", "inf", "-inf"} & set(row)]
    if bad:
        print(f"numerical failure: non-finite value in output row {bad[0]}", file=sys.stderr)
        return EXIT_NUMERICAL

    canonical = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    lines = [
        f"# qavar {__version__}",
        f"# config-hash {digest}",
        f"# seed {cfg.seed}",
        ",".join(header),
    ]
    lines += [",".join(_csv_escape(tok) for tok in row) for row in rows]
    with open(cfg.out, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")

    if rows and all(row[-1] != "ok" for row in rows):
        print(f"all {len(rows)} rows skipped by the dimension cap", file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def _csv_escape(tok: str) -> str:
    if any(ch in tok for ch in ',"\n'):
        return '"' + tok.replace('"', '""') + '"'
    return tok


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qavar",
        description="Quantum Allan variance bounds and clock-servo simulation.",
    )
    parser.add_argument("mode", choices=MODES, help="computation to run")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output CSV path")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the tau rows of bound and optimize")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"config: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        cfg = validate(doc, mode_override=args.mode, seed_override=args.seed,
                       out_override=args.out)
    except CliConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.threads < 1:
        print("--threads: must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION

    code = run(cfg, threads=args.threads)
    if code == EXIT_OK:
        print(f"wrote {cfg.out}")
    return code


if __name__ == "__main__":
    sys.exit(main())
