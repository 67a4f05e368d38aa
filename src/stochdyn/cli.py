"""Command-line surface: config parsing, experiment commands, JSON/CSV output.

Exit codes: 0 success, 2 unreadable or malformed input, 3 violated
invariant (bad probabilities, degenerate maps, unsupported place, config
mismatch), exhausted budget (word cap, tree nodes, numeric convergence,
quadrature) or a value outside float range, 4 exceptional starting point.
Every stochdyn error carries its code (StochdynError.exit_code); ValueError
and OverflowError exit 3.

Every JSON record embeds the sha256 of the config file bytes, the
effective seed, and the package version, so identical inputs reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from .archpotential import (
    GreenConfig,
    equidist_test_arch,
    gS_eval,
    radii,
    rho_self_energy,
    write_radial_cdf_csv,
)
from .dynsys import (
    ExceptionalStart,
    StochasticSystem,
    bad_primes,
    exceptional_report,
    is_exceptional_system,
    make_map,
    make_system,
    stochastic_degree,
)
from .exactnum import (
    FactorizationTooLarge,
    ProjPointQ,
    StochdynError,
    parse_point,
)
from .heights import l1_height_control_total, weil_height
from .orbits import backward_sample, write_samples_csv
from .padicmodel import equidist_test_padic, write_valuation_cdf_csv
from .stochheight import stoch_height, tail_budget


class ConfigParseError(StochdynError):
    """Config file missing, unreadable, or structurally malformed."""

    exit_code = 2


class InvariantViolation(StochdynError):
    """Config parsed but describes an invalid system or run."""


@dataclass(frozen=True)
class SystemConfig:
    maps: tuple  # ((num_coeffs, den_coeffs, prob: Fraction), ...)
    seed: int = 0
    depth: int = 30
    samples: int = 100000
    tol: float = 1e-3
    sha256: str = ""


def _require(cond: bool, msg: str, kind=ConfigParseError):
    if not cond:
        raise kind(msg)


def _int_field(raw, name: str, default=None) -> int:
    if raw is None and default is not None:
        return default
    _require(isinstance(raw, int) and not isinstance(raw, bool),
             f"{name} must be an integer")
    return raw


def load_config(path: str) -> SystemConfig:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}")
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"config is not valid JSON: {exc}")
    _require(isinstance(data, dict), "config must be a JSON object")
    raw_maps = data.get("maps")
    _require(isinstance(raw_maps, list) and raw_maps,
             "config needs a nonempty 'maps' list")
    maps = []
    for i, entry in enumerate(raw_maps):
        _require(isinstance(entry, dict), f"maps[{i}] must be an object")
        num = entry.get("num_coeffs")
        den = entry.get("den_coeffs")
        for name, coeffs in (("num_coeffs", num), ("den_coeffs", den)):
            _require(isinstance(coeffs, list) and coeffs and
                     all(isinstance(c, int) and not isinstance(c, bool)
                         for c in coeffs),
                     f"maps[{i}].{name} must be a nonempty integer list")
        prob_raw = entry.get("prob")
        _require(isinstance(prob_raw, str), f"maps[{i}].prob must be a string")
        try:
            prob = Fraction(prob_raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigParseError(f"maps[{i}].prob {prob_raw!r} is not a rational")
        maps.append((tuple(num), tuple(den), prob))
    seed = _int_field(data.get("seed"), "seed", 0)
    depth = _int_field(data.get("depth"), "depth", 30)
    samples = _int_field(data.get("samples"), "samples", 100000)
    tol = data.get("tol", 1e-3)
    _require(isinstance(tol, (int, float)) and not isinstance(tol, bool),
             "tol must be a number")
    _require(depth >= 0, "depth must be nonnegative", InvariantViolation)
    _require(samples >= 1, "samples must be positive", InvariantViolation)
    _require(tol > 0, "tol must be positive", InvariantViolation)
    return SystemConfig(tuple(maps), seed, depth, samples, float(tol),
                        hashlib.sha256(blob).hexdigest())


def build_system(cfg: SystemConfig) -> StochasticSystem:
    maps = [make_map(list(num), list(den)) for num, den, _ in cfg.maps]
    return make_system(maps, [prob for _, _, prob in cfg.maps])


def parse_alpha(text: str) -> ProjPointQ:
    try:
        return parse_point(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigParseError(f"cannot parse point {text!r}; use 'a/b' or 'inf'")


def _format_point(p: ProjPointQ) -> str:
    return "inf" if p.is_infinity else str(Fraction(p.a, p.b))


def _emit(payload: dict, cfg: SystemConfig, seed: int, out) -> None:
    record = {
        "config_sha256": cfg.sha256,
        "seed": seed,
        "version": __version__,
    }
    record.update(payload)
    out.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _green_config(cfg: SystemConfig, depth: Optional[int]) -> GreenConfig:
    return GreenConfig(depth=depth, samples=max(cfg.samples // 64, 256),
                       tol=cfg.tol)


def cmd_validate(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    report = exceptional_report(system)
    maps_out = []
    for phi in system.maps:
        entry = {"map": str(phi), "degree": phi.d, "resultant": phi.res}
        try:
            entry["bad_primes"] = sorted(bad_primes(phi))
        except FactorizationTooLarge as exc:
            entry["bad_primes"] = sorted(exc.partial_primes)
            entry["bad_primes_incomplete"] = True
        maps_out.append(entry)
    payload = {
        "maps": maps_out,
        "probs": [str(p) for p in system.probs],
        "stochastic_degree": float(stochastic_degree(system)),
        "distortion_budget": l1_height_control_total(system).total,
        "exceptional_set": [_format_point(p) for p in report.confirmed],
        "exceptional_unresolved": bool(report.unresolved_factors),
    }
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_height(cfg: SystemConfig, args, out) -> int:
    alpha = parse_alpha(args.alpha)
    payload = {"alpha": _format_point(alpha),
               "weil_height": weil_height(alpha)}
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_stoch_height(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    est = stoch_height(system, alpha, args.tol if args.tol else cfg.tol,
                       seed=args.seed)
    payload = {
        "alpha": _format_point(alpha),
        "value": est.value,
        "stderr": est.stderr,
        "tail_bound": est.tail_bound,
        "depth": est.depth,
        "mode": est.mode,
        "samples": est.samples,
    }
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_orbit_sample(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    depth = args.depth if args.depth is not None else cfg.depth
    samples = args.samples if args.samples is not None else cfg.samples
    if is_exceptional_system(system, alpha):
        raise ExceptionalStart(f"{alpha} is exceptional for this system")
    batch = backward_sample(system, alpha, depth, samples, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            write_samples_csv(batch, fh)
        payload = {
            "alpha": _format_point(alpha),
            "depth": depth,
            "samples": samples,
            "csv": args.out,
            "mean_log_abs": float(np.mean(batch.log_abs)),
        }
        _emit(payload, cfg, args.seed, out)
    else:
        write_samples_csv(batch, out)
    return 0


def cmd_equidist(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    depth = args.depth if args.depth is not None else cfg.depth
    samples = args.samples if args.samples is not None else cfg.samples
    if args.place == "arch":
        res = equidist_test_arch(system, alpha, depth, samples, args.seed,
                                 _green_config(cfg, None))
        payload = {"place": "arch", "alpha": _format_point(alpha),
                   "depth": depth, "samples": samples}
        payload.update(res.as_dict())
        if args.out:
            with open(args.out, "w") as fh:
                write_radial_cdf_csv(res.batch, res.law, fh)
            payload["csv"] = args.out
    else:
        p = int(args.place)
        ks, vals, law = equidist_test_padic(system, p, alpha, depth,
                                            samples, args.seed)
        payload = {"place": p, "alpha": _format_point(alpha), "depth": depth,
                   "samples": samples, "ks": ks}
        if args.out:
            with open(args.out, "w") as fh:
                write_valuation_cdf_csv(vals, law, fh)
            payload["csv"] = args.out
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_green_eval(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    alpha = parse_alpha(args.alpha)
    if alpha.is_infinity:
        z = math.inf
    else:
        z = float(Fraction(alpha.a, alpha.b))
    gcfg = _green_config(cfg, args.depth)
    val = gS_eval(system, z, gcfg)
    logplus = 0.0 if alpha.is_infinity or z == 0 else max(math.log(abs(z)), 0.0)
    payload = {
        "alpha": _format_point(alpha),
        "green": val,
        "potential": math.inf if alpha.is_infinity else val + logplus,
        "depth": tail_budget(system).depth(gcfg.tol, gcfg.depth),
        "tol": gcfg.tol,
    }
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_radii(cfg: SystemConfig, args, out) -> int:
    system = build_system(cfg)
    gcfg = _green_config(cfg, None)
    energy = rho_self_energy(system, gcfg)
    r_in, r_out = radii(system, gcfg, energy)
    payload = {"r_in": r_in, "r_out": r_out, "self_energy": energy}
    _emit(payload, cfg, args.seed, out)
    return 0


def cmd_suite(cfg: SystemConfig, args, out) -> int:
    from .acceptance import reference_dyadic_system, run_all

    system = build_system(cfg)
    if system != reference_dyadic_system():
        raise InvariantViolation(
            "the acceptance suite is defined for the reference system "
            "{z^2 (1/2), 2z^2 (1/2)}; adjust the config")
    results = run_all(progress=lambda r: out.write(r.line + "\n"))
    failed = [r for r in results if not r.passed]
    out.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochdyn",
        description="stochastic dynamical heights and equidistribution "
                    "diagnostics for rational map systems over Q")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=False):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        if alpha:
            p.add_argument("alpha", help="rational point 'a/b' or 'inf'")

    common(sub.add_parser("validate", help="check the system and report"))
    common(sub.add_parser("height", help="Weil height of a point"), alpha=True)
    p = sub.add_parser("stoch-height", help="stochastic height of a point")
    common(p, alpha=True)
    p.add_argument("--tol", type=float, default=None)
    p = sub.add_parser("orbit-sample", help="sample the backward orbit measure")
    common(p, alpha=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV output path")
    p = sub.add_parser("equidist", help="equidistribution diagnostics")
    common(p, alpha=True)
    p.add_argument("--place", default="arch",
                   help="'arch' or a prime such as 2")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--out", default=None, help="CDF CSV output path")
    p = sub.add_parser("green-eval", help="Green's function at a point")
    common(p, alpha=True)
    p.add_argument("--depth", type=int, default=None)
    common(sub.add_parser("radii", help="inner and outer radii"))
    common(sub.add_parser("suite", help="run the acceptance battery"))
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "height": cmd_height,
    "stoch-height": cmd_stoch_height,
    "orbit-sample": cmd_orbit_sample,
    "equidist": cmd_equidist,
    "green-eval": cmd_green_eval,
    "radii": cmd_radii,
    "suite": cmd_suite,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is None:
            args.seed = cfg.seed
        if args.command == "equidist" and args.place != "arch":
            try:
                int(args.place)
            except ValueError:
                raise ConfigParseError(
                    f"--place must be 'arch' or a prime, got {args.place!r}")
        return _COMMANDS[args.command](cfg, args, sys.stdout)
    except (StochdynError, ValueError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    sys.exit(main())
