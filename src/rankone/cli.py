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

Each command's params are declared once, in ``COMMANDS``. That table
checks the JSON keys, kinds and minimums, fills the defaults, and gives
every param the flag ``--name`` (``_`` spelled ``-``) of its subcommand.
The fit commands take one depth param, ``max_shift``; the rest of their
depth rule, window and tolerances are ``limits`` constants, printed in
every report.

Each handler is a pure function ``handler(cfg) -> (files, lines)``:
``files`` maps a CSV name to ``(header, rows)``, or to the bytes of a
CSV a fitted polynomial keeps, and ``lines`` are its report lines.
``run`` alone does I/O. It formats every other file's rows through
``_csv_text``, writes the files once all have formatted, then prints
the report. It writes each file's UTF-8 bytes through the os
calls alone, into ``output.dir``, where "" is the current directory.

Exit codes: 0 success, 2 config error (a config file that cannot be read
or is not UTF-8, and JSON with an int past the digits Python reads, or
nested too deep, are ones), 3 computation error or an unusable output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from copy import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from . import construction as cons
from . import limits, sarnak, tower
from .errors import ConfigError, RankOneError

# ------------------------------------------------------------ validation

# Each check formats its message only when it fails: the checks run on
# every op, and most messages name the value or the allowed keys.

def _config_checked(fn, *args):
    """fn(*args), a ValueError it raises turned into a ConfigError."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_keys(obj: dict, allowed: set[str], where: str):
    if not allowed.issuperset(obj):
        raise ConfigError(f"unknown key(s) {sorted(set(obj) - allowed)} in {where}; "
                          f"allowed: {sorted(allowed)}")


# Param kinds: each checks the JSON value of ``key`` in ``where`` and
# returns it in the form the handlers use. Exact type tests keep JSON
# booleans out of integers and numbers.

def _int(v, key, where) -> int:
    if type(v) is not int:
        raise ConfigError(f"'{key}' in {where} must be an integer, got {v!r}")
    return v


def _float(v, key, where) -> float:
    if type(v) not in (int, float):
        raise ConfigError(f"'{key}' in {where} must be a number, got {v!r}")
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"'{key}' in {where} must be finite, got {v!r}")
    return float(v)


def _ints(v, key, where) -> list[int]:
    # the entry types are collected at C speed, with no Python loop; the
    # ints stay Python ints, so that heights stay exact
    if not (type(v) is list and set(map(type, v)) <= {int}):
        raise ConfigError(f"'{key}' in {where} must be a list of integers")
    return v


def _levels(v, key, where):
    """A list of level indices as ``sarnak.level_array``'s read-only
    int64 array, the one conversion of a list that runs to ~1e4 entries.
    A list of ints with one past int64 is kept as it is, for the
    indicator to name the levels outside its stage."""
    if type(v) is list:
        try:
            return sarnak.level_array(v)
        except OverflowError:
            return v
        except ValueError:
            pass
    raise ConfigError(f"'{key}' in {where} must be a list of integers")


def _poly(v, key, where) -> limits.LimitPolynomial:
    where = f"{where}.{key}"
    if not isinstance(v, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(v, {"coeffs", "theta"}, where)
    raw = v.get("coeffs", {})
    if not isinstance(raw, dict):
        raise ConfigError(f"'{where}.coeffs' must be an object")
    coeffs = {}
    for k, c in raw.items():
        try:  # only the plain spelling: int() also reads "01" as 1, "1_0" as 10
            plain = str(int(k)) == k
        except ValueError:
            plain = False
        if not plain:
            raise ConfigError(f"'{where}.coeffs' key {k!r} is not a plain integer "
                              "like '3' or '-2'")
        coeffs[int(k)] = _float(c, f"coeffs[{k}]", where)
    theta = _float(v["theta"], "theta", where) if "theta" in v else 0.0
    return limits.LimitPolynomial(coeffs=coeffs, theta=theta, fit_residual=0.0)


REQUIRED = object()  # default of a param that must be given


class Param(NamedTuple):
    """One param: JSON key ``name``, checked by ``kind``. A ``default``
    of None leaves the value unset (or to the handler, which derives
    it from the construction). ``minimum`` is a number or the name of
    an earlier param of the same command; ``maximum`` is a number."""

    name: str
    kind: Callable
    default: object = REQUIRED
    minimum: int | str | None = None
    maximum: int | None = None


def _resolve(obj: dict, specs: tuple[Param, ...], where: str) -> dict:
    """Every param's value from ``obj``, kind and minimum checked, with
    the defaults filled in. A value is formatted only into the message
    of a failed check: a ``levels`` list holds thousands of ints."""
    out = {}
    for s in specs:
        if s.name in obj:
            v = s.kind(obj[s.name], s.name, where)
            floor = out[s.minimum] if isinstance(s.minimum, str) else s.minimum
            if floor is not None and v < floor:
                raise ConfigError(f"'{s.name}' in {where} must be >= {floor}, got {v}")
            if s.maximum is not None and v > s.maximum:
                raise ConfigError(f"'{s.name}' in {where} must be <= {s.maximum}, got {v}")
        else:
            if s.default is REQUIRED:
                raise ConfigError(f"missing required key '{s.name}' in {where}")
            v = copy(s.default)
        out[s.name] = v
    return out


_H1 = Param("h1", _int, REQUIRED, 0)
_STAGE = (Param("r", _int), Param("s", _ints))
_RANDOM = (Param("r_max", _int, REQUIRED, cons.MIN_COLUMNS, cons.MAX_RANDOM_COLUMNS),
           Param("s_max", _int, REQUIRED, 0),
           Param("seed", _int, 0))


def _parse_stage(entry, where) -> cons.StageParams:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object with 'r' and 's'")
    _check_keys(entry, {"r", "s"}, where)
    v = _resolve(entry, _STAGE, where)
    try:
        return cons.StageParams(v["r"], tuple(v["s"]))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_construction(obj) -> cons.ConstructionParams:
    where = "construction"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    if "preset" in obj:
        _check_keys(obj, {"preset"}, where)
        return _config_checked(cons.preset, obj["preset"])
    _check_keys(obj, {"h1", "stages"}, where)
    h1 = _resolve(obj, (_H1,), where)["h1"]
    stages = obj.get("stages")
    if not isinstance(stages, dict):
        raise ConfigError(f"'{where}.stages' must be an object")
    kind = stages.get("kind")
    if kind not in ("periodic", "explicit", "random"):
        raise ConfigError(f"'{where}.stages.kind' must be periodic|explicit|random, "
                          f"got {kind!r}")
    if kind == "random":
        _check_keys(stages, {"kind", "r_max", "s_max", "seed"}, f"{where}.stages")
        # _H1's and _RANDOM's bounds refuse all that random_bounded does
        return cons.ConstructionParams.random_bounded(
            h1, **_resolve(stages, _RANDOM, f"{where}.stages"))
    key = "pattern" if kind == "periodic" else "stages"
    _check_keys(stages, {"kind", key}, f"{where}.stages")
    entries = stages.get(key)
    if not (isinstance(entries, list) and entries):
        raise ConfigError(f"'{where}.stages.{key}' must be a non-empty list")
    parsed = [
        _parse_stage(e, f"{where}.stages.{key}[{i}]") for i, e in enumerate(entries)
    ]
    maker = (cons.ConstructionParams.periodic if kind == "periodic"
             else cons.ConstructionParams.explicit)
    return maker(h1, parsed)


# Param groups shared by several commands, with the library's defaults.
#: the one depth param of a fit; the rest of its depth rule is fixed in limits
_MAX_SHIFT = Param("max_shift", _int, limits.DEFAULT_MAX_SHIFT, 1)
_PQ = (Param("p", _int, REQUIRED, 1), Param("q", _int, REQUIRED, 1))
#: classification horizon; a tail window needs 3 stages to show a growing gcd
_HORIZON = Param("horizon", _int, 40, 3)
_START = Param("start", _int, 0, 0)
_K = Param("K", _int, None, 1)
_K_FROM_J = Param("K", _int, None, "j")


@dataclass(frozen=True)
class RunConfig:
    """A validated run; ``params`` holds every param of the command,
    resolved by ``parse_config_dict``."""

    construction: cons.ConstructionParams
    command: str
    params: dict
    out_dir: str = "."


def _load_json(what: str, text: str):
    """``text`` parsed as JSON. Past its digits limit Python reads no
    int, and deep nesting exhausts the stack: both are ConfigErrors."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config; raises ConfigError naming the offending
    key and location."""
    return parse_config_dict(_load_json("config", text))


def parse_config_dict(obj) -> RunConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(obj, {"construction", "command", "params", "output"}, "config")
    for key in ("construction", "command"):
        if key not in obj:
            raise ConfigError(f"missing required key '{key}' in config")
    construction = _parse_construction(obj["construction"])
    command = obj["command"]
    if not (isinstance(command, str) and command in COMMANDS):
        raise ConfigError(f"unknown command {command!r}; valid commands: {sorted(COMMANDS)}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    specs = COMMANDS[command].params
    _check_keys(params, {s.name for s in specs}, f"params for command '{command}'")
    params = _resolve(params, specs, "params")
    out_dir = "."
    if "output" in obj:
        if not isinstance(obj["output"], dict):
            raise ConfigError("'output' must be an object")
        _check_keys(obj["output"], {"dir"}, "output")
        out_dir = obj["output"].get("dir", ".")
        if not isinstance(out_dir, str):
            raise ConfigError("'output.dir' must be a string")
    return RunConfig(construction=construction, command=command,
                     params=params, out_dir=out_dir)


# --------------------------------------------------------------- helpers

def _csv_text(name: str, header: tuple[str, ...], rows) -> str:
    """The LF-terminated CSV of ``header`` and ``rows``, drawn one row
    at a time. The CSVs keep exact counts, so an int cell past the
    digits Python prints is a ValueError naming the file, the column
    and the row's cells before it."""
    lines = [",".join(header)]
    for row in rows:
        try:
            lines.append(",".join(map(str, row)))
        except ValueError:  # str of an int past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            i = next(i for i, c in enumerate(row)
                     if isinstance(c, int) and abs(c) >= 10**limit)
            at = ", ".join(f"{h}={c}" for h, c in zip(header, row[:i])) or f"row {len(lines)}"
            raise ValueError(f"{name} keeps exact counts, and its {header[i]} at {at} is "
                             f"{cons.format_count(row[i])}, past the {limit} digits "
                             "Python prints") from None
    lines.append("")
    return "\n".join(lines)


def _depth_for(cfg: RunConfig, j: int = 1, n: int = 0) -> int:
    """The given depth K, else the fits' depth K for shift n."""
    K = cfg.params["K"]
    return limits.depth(cfg.construction, n, j) if K is None else K


#: the report's conventions header, split where a fit command's max_shift
#: goes: the fixed tolerances and depth rule of the fits
_CONVENTIONS = (
    "\n".join([
        "conventions:",
        "  level count L_j = h_j + 1; return powers H_j = -(L_j + min s_j(1..r_j-1))",
        f"  tolerances: tau={limits.SUPPORT_TAU} coeff={limits.COEFF_TOL} "
        f"stability={limits.STABILITY_TOL} residual={limits.RESIDUAL_TOL}",
        f"  depth policy: min_levels={limits.MIN_LEVELS} shift_factor={limits.SHIFT_FACTOR}",
    ]),
    f" fit_count={limits.FIT_COUNT} Z={limits.Z}",
)


def _conventions(specs: tuple[Param, ...], p: dict) -> str:
    """The conventions header, with the run's max_shift when its command
    takes one: formatted once, but for that value."""
    head, tail = _CONVENTIONS
    if _MAX_SHIFT in specs:
        return f"{head} max_shift={p['max_shift']}{tail}"
    return head + tail


# -------------------------------------------------------------- commands

def _printable_heights(params, J: int, what: str = "") -> cons.HeightTable:
    """L_1..L_J, grown no further than the first L_j with more digits than
    Python prints, which then ends the table. With ``what``, such an L_j is
    a ValueError naming its stage: no count or offset from there on can be
    written, and the stage walks grow faster than linearly with J."""
    limit = sys.get_int_max_str_digits()
    table = cons.heights_within(params, J, 10**limit - 1) if limit else cons.heights(params, J)
    m = table.max_stage
    if what and limit and table.L(m) >= 10**limit:
        raise ValueError(f"{what} reaches stage {m}, whose L_{m} = {cons.format_count(table.L(m))}"
                         f" is past the {limit} digits Python prints")
    return table


def _cmd_heights(cfg):
    # a table ending on an unprintable L hands over that row alone, which
    # _csv_text refuses without converting the printable rows before it
    limit = sys.get_int_max_str_digits()
    table = _printable_heights(cfg.construction, cfg.params["J"])
    J = table.max_stage
    first = J if limit and table.L(J) >= 10**limit else 1
    rows = ((j, table.L(j), table.h(j)) for j in range(first, J + 1))
    return ({"heights.csv": (("j", "L", "h"), rows)},
            [f"heights through stage {J}: L_{J} = {cons.format_count(table.L(J))}"])


def _cmd_classify(cfg):
    horizon, bound = cfg.params["horizon"], cfg.params["bound"]
    _printable_heights(cfg.construction, horizon, f"horizon {horizon}")
    label = cons.classify(cfg.construction, horizon, bound)
    profile = cons.bounded_profile(cfg.construction, horizon)
    rows = [("label", str(label)), ("d", "" if label.d is None else label.d),
            ("flat", label.flat), ("horizon", horizon),
            ("r_sup", profile.r_sup), ("s_sup", profile.s_sup)]
    return {"classification.csv": (("field", "value"), rows)}, [
        f"classification: {label}",
        f"profile: r_sup={profile.r_sup} s_sup={profile.s_sup} "
        f"flat={label.flat} (horizon {horizon})",
    ]


def _cmd_labels(cfg):
    j = cfg.params["j"]
    K = _depth_for(cfg, j)
    word = tower.build_labels(cfg.construction, j, K, cfg.params["max_rows"])
    rows = ((pos, "level", v) if v >= 0 else (pos, "spacer", -v)
            for pos, v in enumerate(word.tolist()))
    L_K = cons.format_count(cons.heights(cfg.construction, K).L(K))
    return ({"labels.csv": (("position", "kind", "value"), rows)},
            [f"labels: stage {j} through depth {K}, L_K={L_K}, wrote {len(word)} rows"])


def _cmd_correlate(cfg):
    j, n = cfg.params["j"], cfg.params["n"]
    K = _depth_for(cfg, j, n)
    mat = tower.correlation_matrix(cfg.construction, j, K, n)
    return {"correlation.csv": (("A", "B", "value", "error"), mat.to_csv_rows())}, [
        f"correlation: stage {j}, depth {K} (L_K={mat.total}), "
        f"shift n={n}, error {mat.error_bound:.3g} = |n|/L_K "
        f"{abs(n) / mat.total:.3g} + tail {mat.tail:.3g} "
        f"({tower.TAIL_PROBE_STAGES}-stage probe estimate)"
    ]


def _cmd_weak_limit(cfg):
    d, tau = cfg.params["d"], limits.SUPPORT_TAU
    res = limits.weak_limit(cfg.construction, d, max_shift=cfg.params["max_shift"])
    return {"weak_limit.csv": res.polynomial.to_csv()}, [
        f"weak limit of T^({d}*H_j): {res.polynomial}",
        res.fit_summary(),
        f"  support(tau={tau}): {sorted(res.polynomial.support(tau))}",
    ]


def _cmd_similarity(cfg):
    p = cfg.params
    verdict = _config_checked(limits.is_pq_similar, p["Q"], p["P"], p["p"], p["q"])
    witness = sorted((verdict.witness or {}).items())
    rows = ((r, repr(c)) for r, c in witness)
    return {"similarity.csv": (("r", "coefficient"), rows)}, [
        f"p/q-similar: {verdict.similar} ({verdict.reason})",
        f"max coefficient gap: {verdict.max_coeff_gap:.4g}",
    ]


def _cmd_disjointness(cfg):
    p = cfg.params
    _config_checked(limits.check_pair, p["p"], p["q"])
    verdict = limits.disjointness_certificate(
        cfg.construction, p["p"], p["q"], max_shift=p["max_shift"],
    )
    return {
        "limit_q.csv": verdict.q_result.polynomial.to_csv(),
        "limit_p.csv": verdict.p_result.polynomial.to_csv(),
    }, [verdict.diagnostics()]


def _cmd_cascade(cfg):
    p = cfg.params
    prime = p["p"]
    res = limits.weak_limit(cfg.construction, 1, max_shift=p["max_shift"])
    support = res.polynomial.support(limits.SUPPORT_TAU)
    level = limits.divisibility_cascade(support, prime, p["levels"])
    consequence = limits.flatness_consequence(cfg.construction, res.stages, prime, level,
                                              p["levels"])
    header = ("m", "modulus", "holds", "params_divide", "max_abs_spacer_diff")
    return {"cascade.csv": (header, consequence.rows())}, [
        f"fit of T^(H_j) at stages {list(res.stages)}: {res.polynomial} "
        f"support {sorted(support)}",
        f"cascade holds through M={level} (p={prime})",
        f"parameter check consistent: {consequence.consistent}; "
        f"all spacer differences flat: {consequence.all_flat}; "
        f"bounded spacers force flatness from m={consequence.forced_flat_level}",
    ]


def _cmd_mobius_sum(cfg):
    p = cfg.params
    N, stage, start, levels = p["N"], p["stage"], p["start"], p["levels"]
    obs = sarnak.Observable.indicator(cfg.construction, stage, levels)
    res = sarnak.mobius_weighted_sum(cfg.construction, obs, start, N)
    shown = levels if isinstance(levels, list) else levels.tolist()  # as given
    return {"decay.csv": (("N", "S_N", "S_N/N"), res.decay_rows())}, [
        f"S_N for indicator of stage-{stage} levels {shown}, "
        f"start {start}: S_{N} = {res.final}",
        f"|S_N|/N = {abs(float(res.final)) / N:.6f}",
    ]


def _cmd_telescope(cfg):
    p = cfg.params
    d, N, M, start = p["d"], p["N"], p["M"], p["start"]
    _config_checked(sarnak.extension_primes, d, M)  # a composite d takes M = 1 only
    K = p["K"] or tower.orbit_depth(cfg.construction, 1, start, N)  # a given K is >= 1
    L_K = tower.checked_heights(cfg.construction, K).L(K)
    levels = p["levels"] if p["levels"] is not None else range(0, L_K, d)
    obs = sarnak.Observable.indicator(cfg.construction, K, levels)
    rep = sarnak.prime_extension_report(cfg.construction, obs, d, start, N, M)
    if len(rep.steps) == 1 and rep.steps[0].prime == d:  # one step of a prime d
        first, second = rep.steps[0].term, -rep.remainder  # mu(d)F and mu(d)G
        rhs, equal = first - second, rep.identity_holds
        rows = [("lhs", rep.s_n), ("rhs", rhs), ("equal", equal), ("first_term", first),
                ("second_term", second), ("n_first", N // d), ("n_second", N // (d * d))]
        line = (f"telescope identity (d={d}, N={N}): "
                f"lhs={rep.s_n} rhs={rhs} equal={equal}")
    else:
        rows = [("S_N", rep.s_n)]
        rows += [(f"term_{st.depth}(p={st.prime})", st.term) for st in rep.steps]
        rows += [("remainder", rep.remainder),
                 ("remainder_bound", float(rep.remainder_bound)),
                 ("identity_holds", rep.identity_holds), ("triangle_holds", rep.triangle_holds)]
        line = (f"prime extension (d={d}, N={N}, M={rep.M}): "
                f"identity={rep.identity_holds} "
                f"S_N={rep.s_n} remainder_bound={float(rep.remainder_bound)}")
    return {"telescope.csv": (("quantity", "value"), rows)}, [line]


def _cmd_factor(cfg):
    horizon = cfg.params["horizon"]
    _printable_heights(cfg.construction, horizon, f"horizon {horizon}")
    K = _depth_for(cfg)
    L_K = _printable_heights(cfg.construction, K, f"depth K={K}").L(K)
    d = sarnak.compact_factor(cfg.construction, horizon, K)
    rows = ((j, col, off, off % d) for j in (K, K + 1)
            for col, off in enumerate(cons.column_offsets(cfg.construction, j), start=2))
    return {"factor.csv": (("stage", "column", "offset", "offset_mod_d"), rows)}, [
        f"cyclic factor: d={d}, depth {K} (L_K={cons.format_count(L_K)}), "
        f"offsets verified for stages {K}..{K + 1}"
    ]


class Command(NamedTuple):
    run: Callable
    params: tuple[Param, ...]


#: every command's handler and params, in validation order
COMMANDS = {
    "heights": Command(_cmd_heights, (Param("J", _int, 30, 1),)),
    "classify": Command(_cmd_classify, (_HORIZON, Param("bound", _int, None, 1))),
    "labels": Command(_cmd_labels, (Param("j", _int, 1, 1), _K_FROM_J,
                                    Param("max_rows", _int, 10_000, 1))),
    "correlate": Command(_cmd_correlate, (Param("j", _int, 2, 1), Param("n", _int),
                                          _K_FROM_J)),
    "weak-limit": Command(_cmd_weak_limit, (Param("d", _int, 1, 1), _MAX_SHIFT)),
    "similarity": Command(_cmd_similarity, (Param("Q", _poly), Param("P", _poly), *_PQ)),
    "disjointness": Command(_cmd_disjointness, (*_PQ, _MAX_SHIFT)),
    "cascade": Command(_cmd_cascade, (Param("p", _int, REQUIRED, 2),
                                      Param("levels", _int, 3, 1), _MAX_SHIFT)),
    "mobius-sum": Command(_cmd_mobius_sum, (Param("N", _int, 100_000, 1),
                                            Param("stage", _int, 1, 1), _START,
                                            Param("levels", _levels, [0]))),
    "telescope": Command(_cmd_telescope, (Param("d", _int, REQUIRED, 2),
                                          Param("N", _int, 10_000, 1),
                                          Param("M", _int, 1, 1), _START, _K,
                                          Param("levels", _levels, None))),
    "factor": Command(_cmd_factor, (_HORIZON, _K)),
}


#: O_BINARY keeps os.write from turning LF into CRLF where the OS would
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_bytes(path: str, data: bytes):
    """``data`` as the whole content of the file at ``path``, through
    the os calls alone: a kept answer's op is mostly its file writes,
    and ``open`` adds a buffered text layer the bytes do not need."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:  # os.write may write less than it is given
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def run(config: RunConfig, stream=None) -> int:
    """Execute a validated config; returns the process exit code. The
    one write path: every CSV is formatted before any is written, and a
    kept one is written as it is."""
    command = COMMANDS[config.command]
    report: list[str] = [
        f"construction: {config.construction.describe()}",
        f"command: {config.command}",
        _conventions(command.params, config.params),
    ]
    code = 0
    try:
        if config.out_dir:  # "" is the current directory, which exists
            os.makedirs(config.out_dir, exist_ok=True)
        files, lines = command.run(config)
        data = {name: table if isinstance(table, bytes) else _csv_text(name, *table).encode()
                for name, table in files.items()}
        for name, blob in data.items():
            _write_bytes(os.path.join(config.out_dir, name), blob)
        report += lines
    except ConfigError:
        raise
    except (RankOneError, ValueError, OSError) as exc:
        report.append(f"error[{type(exc).__name__}]: {exc}")
        code = 3
    print("\n".join(report), file=stream or sys.stdout)
    return code


# ------------------------------------------------------------------ main

#: argparse arguments of each kind's flag
_FLAG_ARGS = {
    _int: {"type": int},
    _levels: {"type": int, "nargs": "+"},
    _poly: {"metavar": "JSON"},
}


def _flag(s: Param) -> str:
    return "--" + s.name.replace("_", "-")


def _flag_help(s: Param) -> str:
    text = ("required" if s.default is REQUIRED
            else "optional" if s.default is None else f"default {s.default}")
    return text if s.minimum is None else f"{text}; >= {s.minimum}"


def _add_construction_flags(sp):
    sp.add_argument("--preset", choices=sorted(cons.PRESETS))
    sp.add_argument("--construction-json",
                    help="inline JSON for the construction object")
    sp.add_argument("--out", default=".", help="output directory for CSV files")


def _construction_obj(args) -> dict:
    if args.construction_json:
        return _load_json("--construction-json", args.construction_json)
    if args.preset:
        return {"preset": args.preset}
    raise ConfigError("give either --preset or --construction-json")


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

    for name, command in COMMANDS.items():
        # no prefix matching: a removed flag such as --m must not pass as --max-shift
        sp = sub.add_parser(name, allow_abbrev=False)
        _add_construction_flags(sp)
        for s in command.params:
            sp.add_argument(_flag(s), help=_flag_help(s), **_FLAG_ARGS[s.kind])

    args = parser.parse_args(argv)
    try:
        if args.cmd == "run":
            try:  # a config that cannot be read, or is not UTF-8, is a config error
                text = (sys.stdin.read() if args.config == "-"
                        else Path(args.config).read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
            config = parse_config(text)
            if args.out is not None:
                config = RunConfig(config.construction, config.command,
                                   config.params, args.out)
        else:
            params = {}
            for s in COMMANDS[args.cmd].params:
                val = getattr(args, s.name)
                if val is not None:
                    params[s.name] = _load_json(_flag(s), val) if s.kind is _poly else val
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
