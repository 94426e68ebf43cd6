"""Output checks for every benchmark op.

``extract`` reads what one CLI run produced (its CSVs and text report).
``problems`` lists everything wrong with it: seed-independent invariants
for every op, plus, for the default seed, agreement with goldens recorded
from the CLI. Verdicts and exact integer sums must match the goldens
exactly; fitted limits are only required to lie on the simplex with a
residual no worse than the golden's, because fits need not be unique.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from rankone.mobius import mobius_direct

from workloads import construction_params

VERDICTS = {"EvidenceDisjoint", "SimilarLimits", "Inconclusive"}
SIMPLEX_TOL = 1e-9
RESIDUAL_SLACK = 1e-6
#: S_n at this checkpoint is recomputed without the library's word builder
RECOMPUTE_N = 1000
_MU = [0] + [mobius_direct(n) for n in range(1, RECOMPUTE_N + 1)]


def config_sha(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _csv(path: Path) -> list[list[str]]:
    lines = path.read_text().split("\n")
    return [line.split(",") for line in lines[1:] if line]


def _limit(path: Path) -> dict:
    rows = dict(_csv(path))
    return {"coeffs": {z: float(a) for z, a in rows.items()
                       if z not in ("theta", "residual")},
            "theta": float(rows["theta"]), "residual": float(rows["residual"])}


def _exact_int(text: str) -> int:
    value = float(text)
    if not value.is_integer():
        raise ValueError(f"S_n {text} is not an integer")
    return int(value)


def extract(command: str, out: Path, report: str) -> dict:
    """The result of one op, as plain JSON data."""
    if command == "disjointness":
        verdict = re.search(r"^verdict: (\w+)", report, re.M)
        return {"verdict": verdict.group(1) if verdict else None,
                "q": _limit(out / "limit_q.csv"), "p": _limit(out / "limit_p.csv")}
    if command == "telescope":
        return dict(_csv(out / "telescope.csv"))
    final = re.search(r"^S_N for .*: S_\d+ = (\S+)$", report, re.M)
    return {"checkpoints": [[int(n), _exact_int(s)]
                            for n, s, _ in _csv(out / "decay.csv")],
            "final": final.group(1) if final else None}


def golden_view(command: str, result: dict) -> dict:
    """The part of a result that the goldens pin down."""
    if command == "disjointness":
        return {"verdict": result["verdict"],
                "residual_q": result["q"]["residual"],
                "residual_p": result["p"]["residual"]}
    return result


def label_at(stages, L, j: int, pos: int):
    """Reference-level index of word position ``pos`` relative to stage j,
    or None for a spacer, by walking the stage recursion down from the
    first depth whose word covers ``pos``: stage m+1 stacks r_m copies of
    the stage-m word, copy i followed by s_m(i) spacers."""
    K = j
    while L[K - 1] <= pos:
        K += 1
    for m in range(K - 1, j - 1, -1):
        st = stages[m - 1]
        for gap in st.s:
            if pos < L[m - 1]:
                break
            pos -= L[m - 1]
            if pos < gap:
                return None
            pos -= gap
    return pos


def recompute_s(config: dict, n: int = RECOMPUTE_N) -> int:
    """S_n = sum_{i<=n} f(T^i x) mu(i) from mobius_direct and label_at."""
    p = config["params"]
    params = construction_params(config["construction"])
    top = p["start"] + n
    stages, L = [], [params.h1 + 1]
    while len(L) < p["stage"] or L[-1] <= top:
        stages.append(params.stage(len(L)))
        L.append(L[-1] * stages[-1].r + sum(stages[-1].s))
    levels = set(p["levels"])
    return sum(_MU[i] for i in range(1, n + 1)
               if label_at(stages, L, p["stage"], p["start"] + i) in levels)


def _simplex_problems(name: str, lim: dict) -> list[str]:
    out = []
    values = list(lim["coeffs"].values()) + [lim["theta"]]
    if min(values) < 0:
        out.append(f"{name}: negative coefficient {min(values)}")
    if abs(math.fsum(values) - 1.0) > SIMPLEX_TOL:
        out.append(f"{name}: coefficients + theta sum to {math.fsum(values)!r}")
    if not (math.isfinite(lim["residual"]) and lim["residual"] >= 0):
        out.append(f"{name}: residual {lim['residual']!r}")
    return out


def problems(config: dict, result: dict) -> list[str]:
    """What is wrong with one op's result by the seed-independent checks;
    empty when it passes."""
    command = config["command"]
    out = []
    if command == "disjointness":
        if result["verdict"] not in VERDICTS:
            out.append(f"verdict {result['verdict']!r}")
        out += _simplex_problems("Q", result["q"]) + _simplex_problems("P", result["p"])
    elif command == "telescope":
        flag = "equal" if "equal" in result else "identity_holds"
        if result.get(flag) != "True":
            out.append(f"{flag} is {result.get(flag)!r}")
    else:
        cps = dict(map(tuple, result["checkpoints"]))
        if result["final"] != str(result["checkpoints"][-1][1]):
            out.append(f"final S_N {result['final']} != last checkpoint")
        expect = recompute_s(config)
        if cps.get(RECOMPUTE_N) != expect:
            out.append(f"S_{RECOMPUTE_N} {cps.get(RECOMPUTE_N)} != {expect} recomputed")
    return out


def golden_problems(command: str, result: dict, golden: dict | None) -> list[str]:
    """Disagreements with the golden of the op (None: no golden was
    recorded for its input)."""
    if golden is None:
        return ["no golden recorded for this input"]
    view = golden_view(command, result)
    want = golden["golden"]
    if command != "disjointness":
        return [] if view == want else [f"result {view} != golden {want}"]
    out = []
    if view["verdict"] != want["verdict"]:
        out.append(f"verdict {view['verdict']} != golden {want['verdict']}")
    for key in ("residual_q", "residual_p"):
        if view[key] > want[key] + RESIDUAL_SLACK:
            out.append(f"{key} {view[key]} worse than golden {want[key]}")
    return out
