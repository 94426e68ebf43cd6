"""Batch front door: JSON config in, deterministic CSV + text report out.

Config schema (single JSON object):

    {
      "construction": {"preset": "chacon"}            # or explicit:
                      {"h1": 0, "stages": {"kind": "periodic",
                                           "pattern": [{"r": 3, "s": [0,1,0]}]}}
                      {"h1": 0, "stages": {"kind": "random",
                                           "r_max": 5, "s_max": 4, "seed": 7}}
      "command": "classify",
      "params": { ... },                              # command-specific
      "output": {"dir": "out"}                        # optional
    }

Exit codes: 0 success, 2 config error, 3 computation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import construction as cons
from . import limits, mobius, sarnak, tower
from .errors import ConfigError, RankOneError

CSV_NEWLINE = "\n"


# ------------------------------------------------------------ validation

def _expect(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(obj: dict, allowed: set[str], where: str):
    unknown = sorted(set(obj) - allowed)
    _expect(not unknown, f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")


def _get_int(obj, key, where, default=None, minimum=None):
    if key not in obj:
        _expect(default is not None, f"missing required key '{key}' in {where}")
        return default
    v = obj[key]
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"'{key}' in {where} must be an integer, got {v!r}")
    if minimum is not None:
        _expect(v >= minimum, f"'{key}' in {where} must be >= {minimum}, got {v}")
    return v


def _get_number(obj, key, where, default):
    if key not in obj:
        return default
    v = obj[key]
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
            f"'{key}' in {where} must be a number, got {v!r}")
    return float(v)


def _parse_stage(entry, where) -> cons.StageParams:
    _expect(isinstance(entry, dict), f"{where} must be an object with 'r' and 's'")
    _check_keys(entry, {"r", "s"}, where)
    r = _get_int(entry, "r", where)
    s = entry.get("s")
    _expect(isinstance(s, list) and all(isinstance(x, int) for x in s),
            f"'s' in {where} must be a list of integers")
    try:
        return cons.StageParams(r, tuple(s))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_construction(obj) -> cons.ConstructionParams:
    where = "construction"
    _expect(isinstance(obj, dict), f"{where} must be an object")
    if "preset" in obj:
        _check_keys(obj, {"preset"}, where)
        name = obj["preset"]
        try:
            return cons.preset(name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    _check_keys(obj, {"h1", "stages"}, where)
    h1 = _get_int(obj, "h1", where, minimum=0)
    stages = obj.get("stages")
    _expect(isinstance(stages, dict), f"'{where}.stages' must be an object")
    kind = stages.get("kind")
    _expect(kind in ("periodic", "explicit", "random"),
            f"'{where}.stages.kind' must be periodic|explicit|random, got {kind!r}")
    if kind == "random":
        _check_keys(stages, {"kind", "r_max", "s_max", "seed"}, f"{where}.stages")
        try:
            return cons.ConstructionParams.random_bounded(
                h1,
                _get_int(stages, "r_max", f"{where}.stages", minimum=2),
                _get_int(stages, "s_max", f"{where}.stages", minimum=0),
                _get_int(stages, "seed", f"{where}.stages", default=0),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}.stages: {exc}") from None
    key = "pattern" if kind == "periodic" else "stages"
    _check_keys(stages, {"kind", key}, f"{where}.stages")
    entries = stages.get(key)
    _expect(isinstance(entries, list) and entries,
            f"'{where}.stages.{key}' must be a non-empty list")
    parsed = [
        _parse_stage(e, f"{where}.stages.{key}[{i}]") for i, e in enumerate(entries)
    ]
    maker = (cons.ConstructionParams.periodic if kind == "periodic"
             else cons.ConstructionParams.explicit)
    return maker(h1, parsed)


_COMMAND_KEYS = {
    "heights": {"J"},
    "classify": {"horizon", "bound"},
    "labels": {"j", "K", "max_rows"},
    "correlate": {"j", "K", "n"},
    "weak-limit": {"d", "m", "Z", "tau", "min_levels", "shift_factor",
                   "max_shift", "fit_count", "horizon", "ref_stage"},
    "similarity": {"Q", "P", "p", "q", "tol", "tau"},
    "disjointness": {"p", "q", "Z", "min_levels", "shift_factor", "max_shift",
                     "fit_count", "horizon", "ref_stage", "tau", "coeff_tol",
                     "stability_tol", "residual_tol"},
    "cascade": {"p", "levels", "Z", "tau", "min_levels", "shift_factor",
                "max_shift", "fit_count", "horizon", "ref_stage"},
    "mobius-sum": {"N", "stage", "levels", "start", "K"},
    "telescope": {"d", "N", "M", "start", "levels", "K"},
    "factor": {"horizon", "K"},
}


@dataclass(frozen=True)
class RunConfig:
    construction: cons.ConstructionParams
    command: str
    params: dict
    out_dir: str = "."


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config; raises ConfigError naming the offending
    key and location."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config_dict(obj)


def parse_config_dict(obj) -> RunConfig:
    _expect(isinstance(obj, dict), "config must be a JSON object")
    _check_keys(obj, {"construction", "command", "params", "output"}, "config")
    _expect("construction" in obj, "missing required key 'construction' in config")
    _expect("command" in obj, "missing required key 'command' in config")
    construction = _parse_construction(obj["construction"])
    command = obj["command"]
    _expect(command in _COMMAND_KEYS,
            f"unknown command {command!r}; valid commands: {sorted(_COMMAND_KEYS)}")
    params = obj.get("params", {})
    _expect(isinstance(params, dict), "'params' must be an object")
    _check_keys(params, _COMMAND_KEYS[command], f"params for command '{command}'")
    out_dir = "."
    if "output" in obj:
        _expect(isinstance(obj["output"], dict), "'output' must be an object")
        _check_keys(obj["output"], {"dir"}, "output")
        out_dir = obj["output"].get("dir", ".")
        _expect(isinstance(out_dir, str), "'output.dir' must be a string")
    return RunConfig(construction=construction, command=command,
                     params=params, out_dir=out_dir)


# --------------------------------------------------------------- helpers

def _write_csv(path: Path, header: tuple[str, ...], rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + CSV_NEWLINE)
        for row in rows:
            fh.write(",".join(str(x) for x in row) + CSV_NEWLINE)


def _depth_for(params, minimum_levels: int, at_least_stage: int = 1) -> int:
    K = at_least_stage
    while cons.heights(params, K).L(K) < minimum_levels:
        K += 1
    return K


def _policy_from(p: dict) -> limits.DepthPolicy:
    base = limits.DEFAULT_POLICY
    return limits.DepthPolicy(
        min_levels=_get_int(p, "min_levels", "params", default=base.min_levels, minimum=2),
        shift_factor=_get_int(p, "shift_factor", "params", default=base.shift_factor, minimum=1),
        max_shift=_get_int(p, "max_shift", "params", default=base.max_shift, minimum=1),
        fit_count=_get_int(p, "fit_count", "params", default=base.fit_count, minimum=1),
        horizon=_get_int(p, "horizon", "params", default=base.horizon, minimum=2),
        ref_stage=(_get_int(p, "ref_stage", "params", minimum=1)
                   if "ref_stage" in p else None),
    )


def _tolerances_from(p: dict) -> limits.FitTolerances:
    base = limits.DEFAULT_TOLERANCES
    return limits.FitTolerances(
        support_tau=_get_number(p, "tau", "params", base.support_tau),
        coeff_tol=_get_number(p, "coeff_tol", "params", base.coeff_tol),
        stability_tol=_get_number(p, "stability_tol", "params", base.stability_tol),
        residual_tol=_get_number(p, "residual_tol", "params", base.residual_tol),
    )


def _conventions(tols: limits.FitTolerances, policy: limits.DepthPolicy) -> str:
    return "\n".join([
        "conventions:",
        "  level count L_j = h_j + 1; return powers H_j = -(L_j + min s_j(1..r_j-1))",
        f"  tolerances: tau={tols.support_tau} coeff={tols.coeff_tol} "
        f"stability={tols.stability_tol} residual={tols.residual_tol}",
        f"  depth policy: min_levels={policy.min_levels} "
        f"shift_factor={policy.shift_factor} max_shift={policy.max_shift} "
        f"fit_count={policy.fit_count} horizon={policy.horizon}",
    ])


def _poly_from_json(obj, where) -> limits.LimitPolynomial:
    _expect(isinstance(obj, dict), f"{where} must be an object")
    _check_keys(obj, {"coeffs", "theta"}, where)
    raw = obj.get("coeffs", {})
    _expect(isinstance(raw, dict), f"'{where}.coeffs' must be an object")
    coeffs = {}
    for k, v in raw.items():
        try:
            z = int(k)
        except ValueError:
            raise ConfigError(f"'{where}.coeffs' key {k!r} is not an integer") from None
        _expect(isinstance(v, (int, float)), f"'{where}.coeffs[{k}]' must be a number")
        coeffs[z] = float(v)
    theta = _get_number(obj, "theta", where, 0.0)
    window = max((abs(z) for z in coeffs), default=0)
    return limits.LimitPolynomial(window=window, coeffs=coeffs, theta=theta,
                                  fit_residual=0.0)


# -------------------------------------------------------------- commands

def _cmd_heights(cfg, out, report):
    J = _get_int(cfg.params, "J", "params", default=30, minimum=1)
    table = cons.heights(cfg.construction, J)
    _write_csv(out / "heights.csv", ("j", "L", "h"),
               ((j, table.L(j), table.h(j)) for j in range(1, J + 1)))
    report.append(f"heights through stage {J}: L_{J} = {table.L(J)}")


def _cmd_classify(cfg, out, report):
    horizon = _get_int(cfg.params, "horizon", "params", default=40, minimum=1)
    bound = (_get_int(cfg.params, "bound", "params", minimum=1)
             if "bound" in cfg.params else None)
    label = cons.classify(cfg.construction, horizon, bound)
    profile = cons.bounded_profile(cfg.construction, horizon, bound)
    _write_csv(out / "classification.csv", ("field", "value"), [
        ("label", str(label)),
        ("d", label.d),
        ("horizon", horizon),
        ("r_sup", profile.r_sup),
        ("s_sup", profile.s_sup),
    ])
    report.append(f"classification: {label}")
    report.append(f"profile: r_sup={profile.r_sup} s_sup={profile.s_sup} "
                  f"(horizon {horizon})")


def _cmd_labels(cfg, out, report):
    j = _get_int(cfg.params, "j", "params", default=1, minimum=1)
    K = _get_int(cfg.params, "K", "params",
                 default=_depth_for(cfg.construction, 10_000, j), minimum=j)
    max_rows = _get_int(cfg.params, "max_rows", "params", default=10_000, minimum=1)
    model = tower.build_labels(cfg.construction, j, K)
    n = min(model.length, max_rows)

    def rows():
        for pos in range(n):
            lab = model.label(pos)
            if isinstance(lab, tower.ReferenceLevel):
                yield (pos, "level", lab.index)
            else:
                yield (pos, "spacer", lab.inserted_at_stage)

    _write_csv(out / "labels.csv", ("position", "kind", "value"), rows())
    report.append(f"labels: stage {j} through depth {K}, L_K={model.length}, "
                  f"wrote {n} rows")


def _cmd_correlate(cfg, out, report):
    j = _get_int(cfg.params, "j", "params", default=2, minimum=1)
    n = _get_int(cfg.params, "n", "params")
    need = max(10_000, limits.DEFAULT_POLICY.shift_factor * abs(n), abs(n) + 2)
    K = _get_int(cfg.params, "K", "params",
                 default=_depth_for(cfg.construction, need, j), minimum=j)
    mat = tower.correlation_matrix(cfg.construction, j, K, n)
    _write_csv(out / "correlation.csv", ("A", "B", "value", "error"),
               mat.to_csv_rows())
    report.append(f"correlation: stage {j}, depth {K} (L_K={mat.total}), "
                  f"shift n={n}, certified error {mat.error_bound:.3g}")


def _cmd_weak_limit(cfg, out, report):
    p = cfg.params
    d = _get_int(p, "d", "params", default=1, minimum=1)
    m = _get_int(p, "m", "params", default=0, minimum=0)
    Z = _get_int(p, "Z", "params", default=8, minimum=1)
    tau = _get_number(p, "tau", "params", limits.DEFAULT_TOLERANCES.support_tau)
    policy = _policy_from(p)
    res = limits.weak_limit(cfg.construction, d, m, policy=policy, Z=Z)
    _write_csv(out / "weak_limit.csv", ("z", "a_z"),
               res.polynomial.to_csv_rows())
    report.append(f"weak limit of T^({d}*H_(j+{m})): {res.polynomial}")
    report.append(f"  fitted stages {list(res.stages)}, shifts {list(res.shifts)}, "
                  f"ref stage {res.ref_stage}")
    report.append(f"  stability gap {res.stability_gap:.4g}, "
                  f"residual {res.polynomial.fit_residual:.4g}")
    report.append(f"  support(tau={tau}): {sorted(res.polynomial.support(tau))}")


def _cmd_similarity(cfg, out, report):
    p = cfg.params
    _expect("Q" in p and "P" in p, "similarity needs 'Q' and 'P' polynomials")
    Q = _poly_from_json(p["Q"], "params.Q")
    P = _poly_from_json(p["P"], "params.P")
    pp = _get_int(p, "p", "params", minimum=1)
    qq = _get_int(p, "q", "params", minimum=1)
    tol = _get_number(p, "tol", "params", limits.DEFAULT_TOLERANCES.coeff_tol)
    tau = _get_number(p, "tau", "params", limits.DEFAULT_TOLERANCES.support_tau)
    try:
        verdict = limits.is_pq_similar(Q, P, pp, qq, tol=tol, tau=tau)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    witness = sorted((verdict.witness or {}).items())
    _write_csv(out / "similarity.csv", ("r", "coefficient"),
               ((r, repr(c)) for r, c in witness))
    report.append(f"p/q-similar: {verdict.similar} ({verdict.reason})")
    report.append(f"max coefficient gap: {verdict.max_coeff_gap:.4g}")


def _cmd_disjointness(cfg, out, report):
    p = cfg.params
    pp = _get_int(p, "p", "params", minimum=1)
    qq = _get_int(p, "q", "params", minimum=1)
    Z = _get_int(p, "Z", "params", default=8, minimum=1)
    policy = _policy_from(p)
    tols = _tolerances_from(p)
    try:
        verdict = limits.disjointness_certificate(
            cfg.construction, pp, qq, policy=policy, tolerances=tols, Z=Z
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_csv(out / "limit_q.csv", ("z", "a_z"),
               verdict.q_result.polynomial.to_csv_rows())
    _write_csv(out / "limit_p.csv", ("z", "a_z"),
               verdict.p_result.polynomial.to_csv_rows())
    report.append(verdict.diagnostics())


def _cmd_cascade(cfg, out, report):
    p = cfg.params
    prime = _get_int(p, "p", "params", minimum=2)
    n_levels = _get_int(p, "levels", "params", default=3, minimum=1)
    Z = _get_int(p, "Z", "params", default=8, minimum=1)
    tau = _get_number(p, "tau", "params", limits.DEFAULT_TOLERANCES.support_tau)
    policy = _policy_from(p)
    windows = limits.full_window(policy.horizon)
    supports = []
    for m in range(1, n_levels + 1):
        res = limits.weak_limit(cfg.construction, 1, m, windows, policy, Z)
        supports.append(limits.SupportSet(m, res.polynomial.support(tau), tau))
        report.append(f"P(1,{m}) fit: {res.polynomial} "
                      f"support {sorted(supports[-1].zs)}")
    cascade = limits.divisibility_cascade(supports, prime)
    consequence = limits.flatness_consequence(
        cfg.construction, windows, prime, cascade
    )
    _write_csv(
        out / "cascade.csv",
        ("m", "modulus", "holds", "params_divide", "max_abs_spacer_diff"),
        ((row.m, prime**row.m, row.cascade_holds, row.params_divide,
          row.max_abs_diff) for row in consequence.rows),
    )
    report.append(f"cascade holds through M={cascade.max_level} (p={prime})")
    report.append(
        f"parameter check consistent: {consequence.consistent}; "
        f"all spacer differences flat: {consequence.all_flat}; "
        f"bounded spacers force flatness from m={consequence.forced_flat_level}"
    )


def _levels_param(params, default, where) -> list[int]:
    levels = params.get("levels", default)
    _expect(isinstance(levels, list) and all(isinstance(x, int) for x in levels),
            f"'levels' in {where} must be a list of integers")
    return levels


def _cmd_mobius_sum(cfg, out, report):
    p = cfg.params
    N = _get_int(p, "N", "params", default=100_000, minimum=1)
    stage = _get_int(p, "stage", "params", default=1, minimum=1)
    start = _get_int(p, "start", "params", default=0, minimum=0)
    K = _get_int(p, "K", "params",
                 default=_depth_for(cfg.construction, start + N + 2, stage),
                 minimum=stage)
    levels = _levels_param(p, [0], "params")
    tower.checked_heights(cfg.construction, K)
    obs = sarnak.Observable.indicator(cfg.construction, stage, levels)
    table = mobius.sieve_mobius(N)
    res = sarnak.mobius_weighted_sum(cfg.construction, obs, start, N, K, table)
    _write_csv(out / "decay.csv", ("N", "S_N", "S_N/N"), res.decay_rows())
    report.append(f"S_N for indicator of stage-{stage} levels {levels}, "
                  f"start {start}: S_{N} = {res.final}")
    report.append(f"|S_N|/N = {abs(float(res.final)) / N:.6f}")


def _cmd_telescope(cfg, out, report):
    p = cfg.params
    d = _get_int(p, "d", "params", minimum=2)
    N = _get_int(p, "N", "params", default=10_000, minimum=1)
    M = _get_int(p, "M", "params", default=1, minimum=1)
    start = _get_int(p, "start", "params", default=0, minimum=0)
    K = _get_int(p, "K", "params",
                 default=_depth_for(cfg.construction, start + N + 2), minimum=1)
    L_K = tower.checked_heights(cfg.construction, K).L(K)
    levels = _levels_param(p, list(range(0, L_K, d)), "params")
    obs = sarnak.Observable.indicator(cfg.construction, K, levels)
    table = mobius.sieve_mobius(N)
    if M == 1 and sarnak._is_prime(d):
        res = sarnak.telescope_identity_check(
            cfg.construction, obs, d, start, N, K, table
        )
        rows = [
            ("lhs", res.lhs), ("rhs", res.rhs), ("equal", res.equal),
            ("first_term", res.first_term), ("second_term", res.second_term),
            ("n_first", res.n_first), ("n_second", res.n_second),
        ]
        report.append(f"telescope identity (d={d}, N={N}): "
                      f"lhs={res.lhs} rhs={res.rhs} equal={res.equal}")
    else:
        rep = sarnak.prime_extension_report(
            cfg.construction, obs, d, start, N, M, K, table
        )
        rows = [("S_N", rep.s_n)]
        rows += [(f"term_{st.depth}(p={st.prime})", st.term) for st in rep.steps]
        rows += [
            ("remainder", rep.remainder),
            ("remainder_bound", float(rep.remainder_bound)),
            ("identity_holds", rep.identity_holds),
            ("triangle_holds", rep.triangle_holds),
        ]
        report.append(f"prime extension (d={d}, N={N}, M={rep.M}): "
                      f"identity={rep.identity_holds} "
                      f"S_N={rep.s_n} remainder_bound={float(rep.remainder_bound)}")
    _write_csv(out / "telescope.csv", ("quantity", "value"), rows)


def _cmd_factor(cfg, out, report):
    p = cfg.params
    horizon = _get_int(p, "horizon", "params", default=40, minimum=1)
    K = _get_int(p, "K", "params",
                 default=_depth_for(cfg.construction, 10_000), minimum=1)
    part = sarnak.compact_factor(cfg.construction, horizon, K)
    table = cons.heights(cfg.construction, part.checked_through_stage)

    def rows():
        for j in range(1, part.checked_through_stage + 1):
            for col, off in enumerate(
                sarnak._column_offsets(cfg.construction, j, table.L(j)), start=2
            ):
                yield (j, col, off, off % part.d)

    _write_csv(out / "factor.csv", ("stage", "column", "offset", "offset_mod_d"),
               rows())
    report.append(f"cyclic factor: d={part.d}, depth {K} (L_K={part.length}), "
                  f"offsets verified through stage {part.checked_through_stage}")


_DISPATCH = {
    "heights": _cmd_heights,
    "classify": _cmd_classify,
    "labels": _cmd_labels,
    "correlate": _cmd_correlate,
    "weak-limit": _cmd_weak_limit,
    "similarity": _cmd_similarity,
    "disjointness": _cmd_disjointness,
    "cascade": _cmd_cascade,
    "mobius-sum": _cmd_mobius_sum,
    "telescope": _cmd_telescope,
    "factor": _cmd_factor,
}


def run(config: RunConfig, stream=None) -> int:
    """Execute a validated config; returns the process exit code."""
    stream = stream or sys.stdout
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tols = _tolerances_from(config.params)
    policy = _policy_from(config.params)
    report: list[str] = [
        f"construction: {config.construction.describe()}",
        f"command: {config.command}",
        _conventions(tols, policy),
    ]
    try:
        _DISPATCH[config.command](config, out, report)
    except ConfigError:
        raise
    except RankOneError as exc:
        report.append(f"error[{type(exc).__name__}]: {exc}")
        print("\n".join(report), file=stream)
        return 3
    except ValueError as exc:
        report.append(f"error[ValueError]: {exc}")
        print("\n".join(report), file=stream)
        return 3
    print("\n".join(report), file=stream)
    return 0


# ------------------------------------------------------------------ main

def _add_construction_flags(sp):
    sp.add_argument("--preset", choices=sorted(cons.PRESETS))
    sp.add_argument("--construction-json",
                    help="inline JSON for the construction object")
    sp.add_argument("--out", default=".", help="output directory for CSV files")


def _construction_obj(args) -> dict:
    if args.construction_json:
        try:
            return json.loads(args.construction_json)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--construction-json is not valid JSON: {exc}") from None
    if args.preset:
        return {"preset": args.preset}
    raise ConfigError("give either --preset or --construction-json")


_FLAG_SPECS = {
    "heights": [("--J", int)],
    "classify": [("--horizon", int), ("--bound", int)],
    "labels": [("--j", int), ("--K", int), ("--max-rows", int)],
    "correlate": [("--j", int), ("--K", int), ("--n", int)],
    "weak-limit": [("--d", int), ("--m", int), ("--Z", int), ("--tau", float),
                   ("--min-levels", int), ("--shift-factor", int),
                   ("--max-shift", int), ("--fit-count", int),
                   ("--horizon", int), ("--ref-stage", int)],
    "disjointness": [("--p", int), ("--q", int), ("--Z", int), ("--tau", float),
                     ("--min-levels", int), ("--shift-factor", int),
                     ("--max-shift", int), ("--fit-count", int),
                     ("--horizon", int), ("--ref-stage", int),
                     ("--coeff-tol", float), ("--stability-tol", float),
                     ("--residual-tol", float)],
    "cascade": [("--p", int), ("--levels", int), ("--Z", int), ("--tau", float),
                ("--horizon", int), ("--max-shift", int)],
    "mobius-sum": [("--N", int), ("--stage", int), ("--start", int), ("--K", int)],
    "telescope": [("--d", int), ("--N", int), ("--M", int), ("--start", int),
                  ("--K", int)],
    "factor": [("--horizon", int), ("--K", int)],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rankone",
        description="rank-one construction analyses (deterministic CSV reports)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="execute a JSON config file")
    run_p.add_argument("config", help="path to config JSON, or - for stdin")
    run_p.add_argument("--out", default=None,
                       help="override the config's output directory")

    for name, flags in _FLAG_SPECS.items():
        sp = sub.add_parser(name)
        _add_construction_flags(sp)
        for flag, typ in flags:
            sp.add_argument(flag, type=typ)
    sim = sub.add_parser("similarity")
    _add_construction_flags(sim)
    for flag, typ in [("--p", int), ("--q", int), ("--tol", float), ("--tau", float)]:
        sim.add_argument(flag, type=typ)
    sim.add_argument("--Q", help="JSON polynomial {\"coeffs\": {...}, \"theta\": c}")
    sim.add_argument("--P", help="JSON polynomial")

    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            text = (sys.stdin.read() if args.config == "-"
                    else Path(args.config).read_text())
            config = parse_config(text)
            if args.out is not None:
                config = RunConfig(config.construction, config.command,
                                   config.params, args.out)
        else:
            params = {}
            for flag, _ in _FLAG_SPECS.get(args.cmd, []):
                key = flag.lstrip("-").replace("-", "_")
                val = getattr(args, key, None)
                if val is not None:
                    params[key] = val
            if args.cmd == "similarity":
                for key in ("p", "q", "tol", "tau"):
                    val = getattr(args, key, None)
                    if val is not None:
                        params[key] = val
                for key in ("Q", "P"):
                    val = getattr(args, key, None)
                    if val is not None:
                        try:
                            params[key] = json.loads(val)
                        except json.JSONDecodeError as exc:
                            raise ConfigError(f"--{key} is not valid JSON: {exc}")
            config = parse_config_dict({
                "construction": _construction_obj(args),
                "command": args.cmd,
                "params": params,
                "output": {"dir": args.out},
            })
        return run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
