import contextlib
import filecmp
import io
import json
import os
import re
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankone import _kernels, cli, limits, sarnak, tower
from rankone import construction as cons
from rankone.errors import ConfigError


def make_config(**overrides):
    base = {
        "construction": {"preset": "chacon"},
        "command": "classify",
        "params": {},
    }
    base.update(overrides)
    return json.dumps(base)


# ------------------------------------------------------------- validation

class Unprintable(int):
    """An int that fails the test if it is ever formatted."""

    def __str__(self):
        raise AssertionError("a passing value was formatted")

    __repr__ = __str__

    def __format__(self, spec):
        raise AssertionError("a passing value was formatted")


def test_resolve_formats_nothing_when_every_check_passes():
    def kind(v, key, where):
        return Unprintable(v)

    specs = (cli.Param("a", kind, cli.REQUIRED, 1), cli.Param("b", kind, None),
             cli.Param("c", kind, 4, "a"), cli.Param("d", kind, 6))
    out = cli._resolve({"a": 3, "b": 0, "c": 3}, specs, "params")
    assert out == {"a": 3, "b": 0, "c": 3, "d": 6}


@pytest.mark.parametrize("params,message", [
    (("mobius-sum", {"N": 0}), "'N' in params must be >= 1, got 0"),
    # a minimum named by an earlier param
    (("labels", {"j": 3, "K": 2}), "'K' in params must be >= 3, got 2"),
])
def test_minimum_message(params, message):
    command, params = params
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli.parse_config(make_config(command=command, params=params))


def test_parse_valid_preset_config():
    cfg = cli.parse_config(make_config())
    assert cfg.command == "classify"
    assert cfg.construction.name == "chacon"


def test_parse_explicit_construction():
    cfg = cli.parse_config(json.dumps({
        "construction": {
            "h1": 0,
            "stages": {"kind": "periodic", "pattern": [{"r": 3, "s": [0, 1, 0]}]},
        },
        "command": "heights",
        "params": {"J": 5},
    }))
    from rankone.construction import heights
    assert heights(cfg.construction, 5).levels == (1, 4, 13, 40, 121)


def test_r_below_two_rejected():
    bad = json.dumps({
        "construction": {
            "h1": 0,
            "stages": {"kind": "periodic", "pattern": [{"r": 1, "s": [0]}]},
        },
        "command": "heights",
        "params": {},
    })
    with pytest.raises(ConfigError, match=">= 2"):
        cli.parse_config(bad)


def test_unknown_command_lists_valid_ones():
    with pytest.raises(ConfigError, match="classify"):
        cli.parse_config(make_config(command="frobnicate"))


def test_non_string_command_rejected():
    with pytest.raises(ConfigError, match="unknown command"):
        cli.parse_config(make_config(command=["classify"]))


def test_unknown_param_key_rejected():
    with pytest.raises(ConfigError, match="wat"):
        cli.parse_config(make_config(params={"wat": 1}))


def test_unknown_top_level_key_rejected():
    obj = json.loads(make_config())
    obj["extra"] = 1
    with pytest.raises(ConfigError, match="extra"):
        cli.parse_config(json.dumps(obj))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="JSON"):
        cli.parse_config("{nope")


@pytest.mark.parametrize("key", ["01", "1_0", " 2 ", "+3", "-0", "x", ""])
def test_poly_keys_must_be_plain_integers(key):
    # int() reads the first five, so "01" beside "1" silently replaced a_1
    poly = {"coeffs": {"1": 0.2, key: 0.3}}
    params = {"Q": poly, "P": {"coeffs": {"0": 1}}, "p": 2, "q": 3}
    message = f"'params.Q.coeffs' key {key!r} is not a plain integer like '3' or '-2'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli.parse_config(make_config(command="similarity", params=params))


def test_plain_poly_keys_are_read(tmp_path, capsys):
    params = {"Q": {"coeffs": {"-2": 0.25, "0": 0.25, "10": 0.5}},
              "P": {"coeffs": {"0": 1}}, "p": 2, "q": 3}
    cfg = cli.parse_config(make_config(command="similarity", params=params))
    assert cfg.params["Q"].coeffs == {-2: 0.25, 0: 0.25, 10: 0.5}
    # a key int() would read as another ("01" as 1) is a config error
    code = cli.main(["similarity", "--preset", "chacon", "--p", "2", "--q", "3",
                     "--Q", '{"coeffs": {"1": 0.2, "01": 0.3}}', "--P", '{"coeffs": {"0": 1}}',
                     "--out", str(tmp_path)])
    assert code == 2
    assert "key '01' is not a plain integer" in capsys.readouterr().err


def test_unknown_preset_rejected():
    # a JSON list or object is no key of the preset table (it was a
    # TypeError), nor is a number
    for name in ("lebesgue", ["chacon"], {"a": 1}, 5):
        with pytest.raises(ConfigError, match="unknown preset"):
            cli.parse_config(make_config(construction={"preset": name}))


CHACON = {"preset": "chacon"}
SIMILAR = {"P": {"coeffs": {"0": 1}}, "p": 2, "q": 3}
CONFIG_ERRORS = [
    ({"construction": CHACON, "command": "heights", "params": {"J": 1.5}},
     "'J' in params must be an integer, got 1.5"),
    ({"construction": CHACON, "command": "heights", "params": {"J": True}},
     "'J' in params must be an integer, got True"),
    ({"construction": CHACON, "command": "similarity", "params": {**SIMILAR, "Q": 3}},
     "params.Q must be an object"),
    ({"construction": CHACON, "command": "similarity",
      "params": {**SIMILAR, "Q": {"coeffs": [0.5]}}},
     "'params.Q.coeffs' must be an object"),
    ({"construction": CHACON, "command": "disjointness", "params": {"q": 3}},
     "missing required key 'p' in params"),
    ({"construction": {"h1": 0, "stages": {"kind": "periodic", "pattern": [3]}},
      "command": "heights"},
     "construction.stages.pattern[0] must be an object with 'r' and 's'"),
    ({"construction": "chacon", "command": "heights"}, "construction must be an object"),
    ({"construction": {"h1": 0, "stages": [{"r": 3, "s": [0, 1, 0]}]}, "command": "heights"},
     "'construction.stages' must be an object"),
    ({"construction": {"h1": 0, "stages": {"kind": "cyclic"}}, "command": "heights"},
     "'construction.stages.kind' must be periodic|explicit|random, got 'cyclic'"),
    ({"construction": {"h1": 0, "stages": {"kind": "periodic", "pattern": []}},
      "command": "heights"},
     "'construction.stages.pattern' must be a non-empty list"),
    (["heights"], "config must be a JSON object"),
    ({"command": "heights"}, "missing required key 'construction' in config"),
    ({"construction": CHACON}, "missing required key 'command' in config"),
    ({"construction": CHACON, "command": "heights", "params": [5]},
     "'params' must be an object"),
    ({"construction": CHACON, "command": "heights", "output": "out"},
     "'output' must be an object"),
    ({"construction": CHACON, "command": "heights", "output": {"dir": 5}},
     "'output.dir' must be a string"),
]


@pytest.mark.parametrize("obj,message", CONFIG_ERRORS, ids=[m for _, m in CONFIG_ERRORS])
def test_malformed_configs_name_what_is_wrong(obj, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        cli.parse_config(json.dumps(obj))


def test_a_malformed_config_exits_2_writing_no_csv(tmp_path, capsys):
    obj = {"construction": CHACON, "command": "heights", "params": {"J": 1.5},
           "output": {"dir": str(tmp_path / "out")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "config error: 'J' in params must be an integer, got 1.5\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,floor", [("h1", -1, 0), ("r_max", 1, 2), ("s_max", -1, 0)])
def test_random_construction_minimums_name_the_key(tmp_path, capsys, key, value, floor):
    spec = {"h1": 1, "stages": {"kind": "random", "r_max": 3, "s_max": 3, "seed": 5}}
    (spec if key == "h1" else spec["stages"])[key] = value
    where = "construction" if key == "h1" else "construction.stages"
    assert cli.main(["heights", "--construction-json", json.dumps(spec), "--J", "3",
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: '{key}' in {where} must be >= {floor}, got {value}\n")
    assert not (tmp_path / "out").exists()


def test_random_construction_r_max_is_bounded(tmp_path, capsys):
    # each stage draws up to r_max spacers, so an r_max of 1e9 would not finish
    spec = {"h1": 1, "stages": {"kind": "random", "r_max": 10**9, "s_max": 1, "seed": 1}}
    started = time.perf_counter()
    assert cli.main(["heights", "--construction-json", json.dumps(spec), "--J", "3",
                     "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        f"config error: 'r_max' in construction.stages must be <= {2**20}, got {10**9}\n")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------------- runs

def run_config(tmp_path, text, sub="out"):
    cfg = cli.parse_config(text)
    cfg = cli.RunConfig(cfg.construction, cfg.command, cfg.params,
                        str(tmp_path / sub))
    stream = io.StringIO()
    code = cli.run(cfg, stream=stream)
    return code, stream.getvalue(), tmp_path / sub


def test_classify_run(tmp_path):
    code, out, outdir = run_config(tmp_path, make_config())
    assert code == 0
    assert "classification: TotallyErgodic" in out
    assert "conventions:" in out  # reports are self-describing
    rows = (outdir / "classification.csv").read_text().splitlines()
    assert rows[:4] == ["field,value", "label,TotallyErgodic", "d,1", "flat,False"]
    # an odometer has no finite order, so its d row is empty
    code, out, outdir = run_config(
        tmp_path, make_config(construction={"preset": "flat3"}), "flat3")
    assert code == 0
    rows = (outdir / "classification.csv").read_text().splitlines()
    assert rows[:4] == ["field,value", "label,Odometer", "d,", "flat,True"]


def test_heights_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path, make_config(command="heights", params={"J": 6})
    )
    assert code == 0
    lines = (outdir / "heights.csv").read_text().splitlines()
    assert lines[0] == "j,L,h"
    assert lines[1] == "1,1,0"
    assert lines[-1] == "6,364,363"


def test_correlate_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path,
        make_config(command="correlate", params={"j": 1, "K": 3, "n": 1}),
    )
    assert code == 0
    lines = (outdir / "correlation.csv").read_text().splitlines()
    assert lines[0] == "A,B,value,error"
    assert lines[1].startswith("0,0,")
    for line in lines[1:]:
        assert "np." not in line
        value, error = line.split(",")[2:]
        assert 0.0 <= float(value) <= 1.0 and float(error) > 0.0
    assert "8-stage probe estimate" in out


def test_weak_limit_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path,
        make_config(command="weak-limit",
                    params={"max_shift": 200}),
    )
    assert code == 0
    lines = (outdir / "weak_limit.csv").read_text().splitlines()
    assert lines[0] == "z,a_z"
    assert lines[-1].startswith("residual,")
    assert lines[-2].startswith("theta,")
    assert "weak limit of T^(1*H_j): " in out
    gap = re.search(r"residual \S+, optimality gap (\S+)$", out, re.M)
    assert gap and float(gap.group(1)) <= 1e-12


def test_similarity_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path,
        make_config(command="similarity", params={
            "Q": {"coeffs": {"0": 0.5, "3": 0.5}, "theta": 0},
            "P": {"coeffs": {"0": 0.5, "2": 0.5}, "theta": 0},
            "p": 2, "q": 3,
        }),
    )
    assert code == 0
    assert "p/q-similar: True" in out
    rows = (outdir / "similarity.csv").read_text().splitlines()
    assert rows[0] == "r,coefficient"
    assert len(rows) == 3


def test_mobius_sum_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path, make_config(command="mobius-sum", params={"N": 1000}),
    )
    assert code == 0
    lines = (outdir / "decay.csv").read_text().splitlines()
    assert lines[0] == "N,S_N,S_N/N"
    assert lines[1].startswith("100,")
    assert lines[-1].startswith("1000,")


def test_telescope_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path,
        make_config(construction={"preset": "class4"}, command="telescope",
                    params={"d": 2, "N": 100}),
    )
    assert code == 0
    assert "equal=True" in out


@pytest.mark.parametrize("d,M", [(2, 1), (3, 2), (6, 1)])
def test_telescope_default_levels_are_the_base_class(tmp_path, d, M):
    # without levels, the indicator of E: every d-th stage-K level
    params = cons.cyclic_factor_preset(d)
    construction = {"h1": params.h1, "stages": {"kind": "periodic",
                                                "pattern": [{"r": 2, "s": [0, d]}]}}
    config = {"d": d, "N": 3000, "M": M}
    K = tower.orbit_depth(params, 1, 0, config["N"])
    levels = list(range(0, cons.heights(params, K).L(K), d))
    runs = [run_config(tmp_path, make_config(construction=construction,
                                             command="telescope", params=p), sub)
            for p, sub in ((config, "default"), ({**config, "levels": levels}, "listed"))]
    assert [code for code, _, _ in runs] == [0, 0]
    assert runs[0][1] == runs[1][1]
    assert ((runs[0][2] / "telescope.csv").read_bytes()
            == (runs[1][2] / "telescope.csv").read_bytes())


@pytest.mark.parametrize("argv,rows", [
    (["--d", "2", "--N", "10000"],
     ["lhs,17", "rhs,17", "equal,True", "first_term,-2", "second_term,-19",
      "n_first,5000", "n_second,2500"]),
    (["--d", "3", "--N", "10000", "--K", "14", "--levels", "0", "3", "6", "9", "12"],
     ["lhs,0", "rhs,0", "equal,True", "first_term,1", "second_term,1",
      "n_first,3333", "n_second,1111"]),
], ids=["d2", "d3"])
def test_telescope_identity_rows_are_the_one_step_report(tmp_path, capsys, argv, rows):
    # the prime M = 1 rows, read off the one-step prime extension report
    assert cli.main(["telescope", "--preset", "class4", *argv, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "telescope.csv").read_text().splitlines() == ["quantity,value", *rows]
    v = dict(row.split(",") for row in rows)
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"telescope identity (d={argv[1]}, N=10000): "
        f"lhs={v['lhs']} rhs={v['rhs']} equal=True")


@pytest.mark.parametrize("construction,d,M", [
    ('{"h1":5,"stages":{"kind":"periodic","pattern":[{"r":2,"s":[0,6]}]}}', 6, 3),
    ('{"h1":3,"stages":{"kind":"periodic","pattern":[{"r":2,"s":[0,4]}]}}', 4, 5),
])
def test_telescope_composite_d_with_M_is_a_config_error(tmp_path, capsys, construction, d, M):
    # a composite d unfolds once per prime factor, so an M other than 1 is refused, not
    # silently dropped
    argv = ["telescope", "--construction-json", construction, "--d", str(d),
            "--N", "1000", "--M", str(M), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: M={M} applies to prime d only; d={d} unfolds "
                          "once per prime factor")
    assert not (tmp_path / "telescope.csv").exists()


def test_telescope_refuses_an_M_past_the_word_guard(tmp_path, capsys):
    # from step 26 on, the stride d**u >= 2**26 passes every admitted time,
    # so a large M is refused at once, not unfolded step by step
    started = time.perf_counter()
    assert cli.main(["telescope", "--preset", "class4", "--d", "2", "--N", "100",
                     "--M", "1000000", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == (
        "config error: M=1000000 is past 26: the times of an orbit the word guard admits "
        "are below 50000000 < 2**26, so from step 26 on no step reads a time\n")
    assert not (tmp_path / "telescope.csv").exists()


EXPLICIT_CHACON8 = {"h1": 0, "stages": {"kind": "explicit", "stages": [{"r": 3, "s": [0, 1, 0]}] * 8}}


@pytest.mark.parametrize("argv,lhs", [
    # the default K is the orbit's depth, here stage 9 with L_9 = 9841
    (["--construction-json", json.dumps(EXPLICIT_CHACON8), "--d", "2", "--N", "9840"], 8),
    # the orbit values vanish off multiples of d, whatever the column offsets: chacon
    # has no cyclic factor, but the indicator of its even stage-K levels vanishes at
    # every odd time of an orbit inside the stage-K word
    (["--preset", "chacon", "--d", "2", "--N", "100"], 8),
    (["--preset", "class4", "--d", "3", "--N", "100"], 5),
    (["--preset", "class4", "--d", "3", "--N", "10000"], 3),
    # levels and start off E: the odd levels, from level 1, meet the orbit only at
    # even times, though neither lies in E
    (["--preset", "class4", "--d", "2", "--N", "100", "--start", "1",
      "--levels", "1", "3", "5", "7", "9", "11", "13", "15", "--K", "5"], 2),
], ids=["explicit-chacon8", "chacon-d2", "class4-d3-N100", "class4-d3-N10000",
        "class4-odd-levels"])
def test_telescope_checks_its_hypothesis_on_the_orbit(tmp_path, argv, lhs):
    assert cli.main(["telescope", *argv, "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "telescope.csv").read_text().splitlines()
    assert rows[1:4] == [f"lhs,{lhs}", f"rhs,{lhs}", "equal,True"]


def test_telescope_orbit_check_failure_exits_3(tmp_path, capsys):
    # class4 stage-4 level 1 is the point's first step: time 1, not divisible by 3
    argv = ["--preset", "class4", "--d", "3", "--N", "100", "--levels", "1", "--K", "4"]
    assert cli.main(["telescope", *argv, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error[ConsistencyFailure]: f(T^i x) != 0 at time i=1, not divisible by d=3; "
        "the telescoping identity needs f to vanish there")
    assert not (tmp_path / "telescope.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["mobius-sum", "--preset", "chacon", "--N", "1000", "--stage", "2",
      "--levels", "0", str(2**70), "-3"],
     f"level indices [-3, {2**70}] outside 0..3"),
    (["telescope", "--preset", "class4", "--d", "2", "--N", "100",
      "--levels", str(2**63), "0", "-2", "-2"],
     f"level indices [-2, {2**63}] outside 0..125"),
], ids=["mobius-sum", "telescope"])
def test_out_of_range_levels_exit_3(tmp_path, capsys, argv, message):
    assert cli.main([*argv, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == f"error[ValueError]: {message}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,params", [
    ("mobius-sum", {"N": 1000, "stage": 2, "levels": [0, 2]}),
    ("telescope", {"d": 2, "N": 100, "K": 4, "levels": [0, 2, 4]}),
])
def test_levels_reach_the_indicator_as_a_read_only_int64_array(tmp_path, monkeypatch,
                                                                command, params):
    # the CLI converts a levels list once, at parse time, by flags or by JSON
    seen, indicator = [], sarnak.Observable.indicator
    monkeypatch.setattr(sarnak.Observable, "indicator", classmethod(
        lambda cls, p, stage, indices: seen.append(indices) or indicator(p, stage, indices)))
    argv = [command, "--preset", "class4", "--out", str(tmp_path / "flags")]
    for key, value in params.items():
        argv += [f"--{key}", *map(str, value if isinstance(value, list) else [value])]
    config = tmp_path / "config.json"
    config.write_text(make_config(construction={"preset": "class4"}, command=command,
                                  params=params, output={"dir": str(tmp_path / "json")}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert cli.main(["run", str(config)]) == 0
    assert len(seen) == 2
    for indices in seen:
        assert type(indices) is np.ndarray and indices.dtype == np.int64
        assert not indices.flags.writeable
        assert indices.tolist() == params["levels"]


def test_factor_run(tmp_path):
    code, out, outdir = run_config(
        tmp_path,
        make_config(construction={"preset": "class4"}, command="factor",
                    params={"K": 13}),
    )
    assert code == 0
    assert "d=2" in out
    lines = (outdir / "factor.csv").read_text().splitlines()
    assert lines[0] == "stage,column,offset,offset_mod_d"
    assert all(line.endswith(",0") for line in lines[1:])


def test_factor_lists_only_the_checked_stages(tmp_path):
    # stage 1 has the odd offset 1; only stages K..K+1 are checked
    construction = {"h1": 0, "stages": {"kind": "periodic",
                                        "pattern": [{"r": 2, "s": [0, 2]}]}}
    code, out, outdir = run_config(
        tmp_path,
        make_config(construction=construction, command="factor",
                    params={"K": 10}),
    )
    assert code == 0
    assert "offsets verified for stages 10..11" in out
    rows = (outdir / "factor.csv").read_text().splitlines()[1:]
    assert rows and all(row.endswith(",0") for row in rows)
    assert {row.split(",")[0] for row in rows} == {"10", "11"}


@pytest.mark.parametrize("K,requested", [(12, 13), (13, 13)])
def test_factor_failure_leaves_no_csv(tmp_path, K, requested):
    # the rows of stages K..K+1 need stage 13, which a 12-stage list lacks
    code, out, outdir = run_config(tmp_path, make_config(
        construction=EXPLICIT_CHACON12, command="factor",
        params={"horizon": 12, "K": K}))
    assert code == 3
    assert out.splitlines()[-1] == (
        f"error[StageUnavailable]: explicit construction has 12 stages, "
        f"stage {requested} requested")
    assert not (outdir / "factor.csv").exists()


@pytest.mark.parametrize("d,M", [(2, 1), (7, 1), (6, 1), (4, 1)])
def test_telescope_with_d_beyond_N(tmp_path, d, M):
    construction = {"h1": d - 1, "stages": {"kind": "periodic",
                                            "pattern": [{"r": 2, "s": [0, d]}]}}
    code, out, outdir = run_config(
        tmp_path,
        make_config(construction=construction, command="telescope",
                    params={"d": d, "N": 1, "M": M}),
    )
    assert code == 0
    rows = dict(line.split(",") for line in
                (outdir / "telescope.csv").read_text().splitlines()[1:])
    assert rows.get("equal", rows.get("identity_holds")) == "True"


# L_17 = 64570081 is past the word guard, which counts only the rows built
@pytest.mark.parametrize("K,L_K,max_rows", [(16, 21_523_360, 10_000), (3, 13, 100),
                                            (17, 64_570_081, 5)])
def test_labels_builds_only_the_rows_it_writes(tmp_path, monkeypatch, K, L_K, max_rows):
    asked = min(L_K, max_rows)
    built = []
    build_word = _kernels.build_word

    def spy(*args):
        built.append(args[5])
        return build_word(*args)

    monkeypatch.setattr(_kernels, "build_word", spy)
    code, out, outdir = run_config(tmp_path, make_config(
        command="labels", params={"K": K, "max_rows": max_rows}))
    assert code == 0
    assert built == [asked]
    assert out.splitlines()[-1] == (
        f"labels: stage 1 through depth {K}, L_K={L_K}, wrote {asked} rows")
    assert len((outdir / "labels.csv").read_text().splitlines()) == asked + 1


# the stage-25 level indices would take 3 TiB on chacon, 537 MB on class4
@pytest.mark.parametrize("preset,L_K", [("chacon", 423_644_304_721),
                                        ("class4", 67_108_862)])
def test_labels_of_a_deep_reference_stage_build_only_their_rows(tmp_path, capsys,
                                                                preset, L_K):
    tracemalloc.start()
    try:
        code = cli.main(["labels", "--preset", preset, "--j", "25", "--max-rows", "5",
                         "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2**20
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"labels: stage 25 through depth 25, L_K={L_K}, wrote 5 rows")
    assert (tmp_path / "labels.csv").read_text().splitlines() == [
        "position,kind,value", *(f"{i},level,{i}" for i in range(5))]


def test_computation_error_exit_code(tmp_path):
    code, out, _ = run_config(
        tmp_path,
        make_config(command="correlate", params={"j": 1, "K": 3, "n": 100}),
    )
    assert code == 3
    assert "DepthTooShallow" in out


EXPLICIT_ODOMETER6 = {"h1": 0, "stages": {"kind": "explicit", "stages": [{"r": 2, "s": [0, 0]}] * 6}}
EXPLICIT_CHACON12 = {"h1": 0, "stages": {"kind": "explicit", "stages": [{"r": 3, "s": [0, 1, 0]}] * 12}}
EXPLICIT_CHACON16 = {"h1": 0, "stages": {"kind": "explicit", "stages": [{"r": 3, "s": [0, 1, 0]}] * 16}}


@pytest.mark.parametrize(
    "construction,params,error",
    [
        # stages 5 and 6 fit; the first q-series depth search needs stage 7
        (EXPLICIT_ODOMETER6, {"p": 3, "q": 2},
         "error[StageUnavailable]: explicit construction has 6 stages, stage 7 requested"),
        # the second q-series fit needs the stage-17 word; the third one's
        # depth search, which would need stage 17, is not run
        (EXPLICIT_CHACON16, {"p": 2, "q": 3, "max_shift": 2_000_000},
         "error[ValueError]: stage-17 word has 64570081 levels, over the 50000000 "
         "in-memory limit"),
    ],
    ids=["every-fit-needs-stage-7", "second-fit-needs-stage-17"],
)
def test_disjointness_reports_the_first_fit_that_fails(tmp_path, construction, params, error):
    code, out, _ = run_config(tmp_path, make_config(
        construction=construction, command="disjointness", params=params,
    ))
    assert code == 3
    assert out.splitlines()[-1] == error


def test_cascade_reads_only_the_stages_an_explicit_construction_lists(tmp_path):
    # the cross-check reads the fitted stages 4..6, not stages past the list
    code, out, outdir = run_config(tmp_path, make_config(
        construction=EXPLICIT_CHACON12, command="cascade",
        params={"p": 3, "levels": 2, "max_shift": 400},
    ))
    assert code == 0, out
    assert "stage 31 requested" not in out
    assert (outdir / "cascade.csv").read_text().splitlines() == [
        "m,modulus,holds,params_divide,max_abs_spacer_diff",
        "1,3,False,False,1",
        "2,9,False,False,1",
    ]


def test_cascade_runs_one_fit(tmp_path, monkeypatch):
    fits = []
    weak_limit = limits.weak_limit

    def spy(*args, **kwargs):
        fits.append((args[1:], kwargs))
        return weak_limit(*args, **kwargs)

    monkeypatch.setattr(limits, "weak_limit", spy)
    code, out, outdir = run_config(tmp_path, make_config(
        command="cascade", params={"p": 3, "levels": 6}))
    assert code == 0, out
    assert fits == [((1,), {"max_shift": 2000})]
    assert "fit of T^(H_j) at stages [5, 6, 7]: " in out
    assert out.splitlines()[-2] == "cascade holds through M=0 (p=3)"
    # chacon's limit (I + T)/2 has support {0, 1}; its head spacers differ by 1
    assert (outdir / "cascade.csv").read_text().splitlines() == [
        "m,modulus,holds,params_divide,max_abs_spacer_diff",
        *(f"{m},{3**m},False,False,1" for m in range(1, 7)),
    ]


@pytest.mark.parametrize(
    "argv,csv,error",
    [
        # stages 1 and 2 have shifts -1 and -4, whose targets are basis matrices
        (["weak-limit", "--preset", "chacon", "--max-shift", "4"], "weak_limit.csv",
         "error[ValueError]: fewer than two admissible stages j with L_4=40 <= 1*|H_j| "
         "and 1*|H_j| <= max_shift=4"),
        # shifts -4, -9 and -19 stay inside the 36-level reference tower, where
        # the fit was Theta alone, an empty support; the walk now refuses them
        # (divisibility_cascade refuses an empty support itself)
        (["cascade", "--construction-json",
          '{"h1": 0, "stages": {"kind": "periodic", "pattern": [{"r": 2, "s": [3, 1]}]}}',
          "--p", "2", "--levels", "3", "--max-shift", "20"], "cascade.csv",
         "error[ValueError]: fewer than two admissible stages j with L_4=36 <= 1*|H_j| "
         "and 1*|H_j| <= max_shift=20"),
        # P's stage-3 shift -26 lies inside the 40-level reference tower, where
        # its fit was Theta alone; stage 4 is the only one left
        (["disjointness", "--preset", "chacon", "--p", "2", "--q", "3",
          "--max-shift", "300"], "limit_q.csv",
         "error[ValueError]: fewer than two admissible stages j with L_4=40 <= 2*|H_j| "
         "and 3*|H_j| <= max_shift=300"),
    ],
    ids=["trivial-fit", "empty-support", "inside-the-reference-tower"],
)
def test_fits_that_certify_nothing_exit_3(tmp_path, capsys, argv, csv, error):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == error
    assert not (tmp_path / csv).exists()


def test_disjointness_computation_error_exits_3(tmp_path, capsys):
    code = cli.main(["disjointness", "--preset", "chacon", "--p", "2", "--q", "3",
                     "--max-shift", "2000000", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error[ValueError]: stage-17 word has 64570081 levels, over the 50000000 "
        "in-memory limit")


@pytest.mark.parametrize("p,q,message", [(2, 4, "p=2, q=4 must be coprime"),
                                         (3, 3, "p and q must differ")])
def test_disjointness_pq_errors_are_config_errors(tmp_path, capsys, p, q, message):
    code = cli.main(["disjointness", "--preset", "chacon", "--p", str(p), "--q", str(q),
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "construction,command,params",
    [
        ({"preset": "chacon"}, "mobius-sum", {"N": 55_000_000}),
        ({"preset": "class4"}, "telescope", {"d": 2, "N": 55_000_000}),
        # chacon's L_20 levels are too many for the indicator itself
        ({"preset": "chacon"}, "mobius-sum", {"stage": 20}),
    ],
)
def test_oversized_orbit_fails_before_sieving(tmp_path, monkeypatch,
                                              construction, command, params):
    def no_sieve(n_max):
        raise AssertionError("sieved before the word-length check")

    monkeypatch.setattr(_kernels, "sieve_mobius", no_sieve)
    monkeypatch.setattr(_kernels, "mobius_blocks", no_sieve)
    tracemalloc.start()
    try:
        code, out, _ = run_config(
            tmp_path,
            make_config(construction=construction, command=command, params=params),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # no indicator, word or sieve was allocated
    assert code == 3
    assert "error[ValueError]: stage-" in out
    assert out.splitlines()[-1].endswith("over the 50000000 in-memory limit")


@pytest.mark.parametrize("name,command,params,first,levels", [
    ("chacon", "mobius-sum", {"stage": 100_000, "N": 10}, 17, 64570081),
    ("chacon", "correlate", {"j": 2, "K": 100_000, "n": 1}, 17, 64570081),
    ("class4", "telescope", {"d": 2, "N": 10, "K": 100_000}, 25, 67108862),
])
def test_word_guard_grows_no_level_past_the_first_stage_over_it(tmp_path, name, command,
                                                                params, first, levels):
    # L_j strictly increases, so the first stage past the limit proves a
    # deeper one too large: the table stops there, and the message names it
    cons._level_table.cache_clear()
    code, out, _ = run_config(
        tmp_path, make_config(construction={"preset": name}, command=command, params=params))
    assert code == 3
    K = params.get("K", params.get("stage"))
    assert out.splitlines()[-1] == (
        f"error[ValueError]: stage-{K} word has more levels than the {levels} of stage "
        f"{first}, over the 50000000 in-memory limit")
    assert len(cons._level_table(cons.preset(name))[0]) == first


def test_factor_odometer_exit_code(tmp_path):
    code, out, _ = run_config(
        tmp_path,
        make_config(construction={"preset": "odometer2"}, command="factor",
                    params={"K": 14}),
    )
    assert code == 3
    assert "OdometerCase" in out


def test_factor_reads_the_column_offsets(tmp_path):
    # flat3's offset gcd 2*3^(j-1) grows: an odometer, so no finite d
    code, out, _ = run_config(
        tmp_path, make_config(construction={"preset": "flat3"}, command="factor"))
    assert code == 3
    assert "error[OdometerCase]: column-offset gcd grows" in out
    # constant spacers (2, 2): every offset is even, and d = 2
    two = {"h1": 1, "stages": {"kind": "periodic", "pattern": [{"r": 2, "s": [2, 2]}]}}
    code, out, outdir = run_config(
        tmp_path, make_config(construction=two, command="factor", params={"K": 6}), "two")
    assert code == 0
    assert "cyclic factor: d=2, depth 6" in out
    assert (outdir / "factor.csv").read_text().splitlines()[1:] == ["6,2,190,0", "7,2,382,0"]


def test_run_determinism(tmp_path):
    cfg_text = make_config(
        construction={"h1": 0,
                      "stages": {"kind": "random", "r_max": 4, "s_max": 3,
                                 "seed": 11}},
        command="correlate",
        params={"j": 2, "n": 7, "K": 9},
    )
    _, _, dir_a = run_config(tmp_path, cfg_text, sub="a")
    _, _, dir_b = run_config(tmp_path, cfg_text, sub="b")
    assert filecmp.cmp(dir_a / "correlation.csv", dir_b / "correlation.csv",
                       shallow=False)


# ------------------------------------------------------------------- main

def test_main_subcommand(tmp_path, capsys):
    code = cli.main(["heights", "--preset", "chacon", "--J", "5",
                     "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "heights.csv").exists()


def test_main_run_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="heights", params={"J": 4}))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "res")])
    assert code == 0
    assert (tmp_path / "res" / "heights.csv").exists()


def test_main_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(make_config(command="frobnicate"))
    assert cli.main(["run", str(path)]) == 2


@pytest.mark.parametrize("text,message", [
    ("9" * 5000, "Exceeds the limit (4300 digits)"),  # Python reads no int past 4300
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["5000-digit-int", "deep-nesting"])
def test_unreadable_json_is_a_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command="heights", params={"J": "JSON"}).replace('"JSON"', text))
    construction = '{"h1": JSON, "stages": {"kind": "random", "r_max": 2, "s_max": 0}}'
    for argv, where in (
        (["run", str(path)], "config"),
        (["heights", "--construction-json", construction.replace("JSON", text)],
         "--construction-json"),
        (["similarity", "--preset", "chacon", "--p", "2", "--q", "3", "--P", "{}",
          "--Q", text], "--Q"),
    ):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where} is not valid JSON: ")
        assert message in err


@pytest.mark.parametrize("name,error", [
    ("missing.json", "No such file or directory"),
    ("a-dir", "Is a directory"),
    ("bom.json", "'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, name, error):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe")
    path = tmp_path / name
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config {path}: ")
    assert error in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out,error", [
    ("file", "FileExistsError"),
    ("file/sub", "NotADirectoryError"),
    ("dir", "IsADirectoryError"),  # dir/heights.csv is a directory
])
def test_unusable_output_directory_exits_3(tmp_path, capsys, out, error):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "heights.csv").mkdir(parents=True)
    assert cli.main(["heights", "--preset", "chacon", "--J", "3",
                     "--out", str(tmp_path / out)]) == 3
    report = capsys.readouterr().out.splitlines()
    assert report[-1].startswith(f"error[{error}]: [Errno ")
    assert sum(line.startswith("error[") for line in report) == 1
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("out", ["", "a/b/c"], ids=["current-dir", "missing-nested-dirs"])
def test_run_writes_into_the_output_dir(tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    cfg = cli.parse_config_dict({"construction": {"preset": "chacon"}, "command": "heights",
                                 "params": {"J": 3}, "output": {"dir": out}})
    assert cli.run(cfg, stream=io.StringIO()) == 0
    assert [p.name for p in (tmp_path / out).iterdir()] == ["heights.csv"]
    assert (tmp_path / out / "heights.csv").read_bytes() == b"j,L,h\n1,1,0\n2,4,3\n3,13,12\n"


def test_each_file_holds_the_bytes_of_its_csv_text(tmp_path, monkeypatch):
    # LF line endings, no BOM and a final newline, each file whole even when
    # every os.write writes at most 7 bytes
    writes = []
    write = cli.os.write

    def short_write(fd, data):
        writes.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(cli.os, "write", short_write)
    cfg = cli.parse_config_dict({
        "construction": {"preset": "chacon"}, "command": "disjointness",
        "params": {"p": 2, "q": 3}, "output": {"dir": str(tmp_path)}})
    assert cli.run(cfg, stream=io.StringIO()) == 0
    files, _ = cli.COMMANDS["disjointness"].run(cfg)
    verdict = limits.disjointness_certificate(cfg.construction, 2, 3)
    fits = {"limit_q.csv": verdict.q_result, "limit_p.csv": verdict.p_result}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files) == sorted(fits)
    for name, res in fits.items():
        data = (tmp_path / name).read_bytes()
        # the kept bytes are those the formatter makes of the rows
        assert data == files[name] == cli._csv_text(
            name, ("z", "a_z"), res.polynomial.to_csv_rows()).encode()
        assert b"\r" not in data and data.endswith(b"\n") and data[:1] == b"z"
    assert max(writes) > 7 and sum(min(n, 7) for n in writes) == sum(
        (tmp_path / name).stat().st_size for name in files)


def test_a_config_parsed_twice_reads_one_kept_certificate(tmp_path):
    text = make_config(command="disjointness", params={"p": 2, "q": 3})
    limits._certify.cache_clear()
    first, second = cli.parse_config(text), cli.parse_config(text)
    assert first.construction is second.construction
    for i, cfg in enumerate((first, second)):
        cfg = cli.RunConfig(cfg.construction, cfg.command, cfg.params, str(tmp_path / str(i)))
        assert cli.run(cfg, stream=io.StringIO()) == 0
    info = limits._certify.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_a_kept_certificate_formats_no_row_again(tmp_path, monkeypatch):
    # the second op of a repeated config writes the CSV bytes its kept
    # certificate holds: no row of limit_q.csv or limit_p.csv is joined or
    # encoded again, and the bytes are those the formatter makes of the rows
    formatted, written = [], []
    csv_text, write_bytes = cli._csv_text, cli._write_bytes

    def format_spy(name, header, rows):
        formatted.append(name)
        return csv_text(name, header, rows)

    def write_spy(path, data):
        written.append((os.path.basename(path), data))
        return write_bytes(path, data)

    monkeypatch.setattr(cli, "_csv_text", format_spy)
    monkeypatch.setattr(cli, "_write_bytes", write_spy)
    limits._certify.cache_clear()
    text = make_config(command="disjointness", params={"p": 2, "q": 3})
    for i in range(2):
        cfg = cli.parse_config(text)
        cfg = cli.RunConfig(cfg.construction, cfg.command, cfg.params, str(tmp_path / str(i)))
        assert cli.run(cfg, stream=io.StringIO()) == 0
    assert formatted == [] and limits._certify.cache_info().hits == 1
    verdict = limits.disjointness_certificate(cfg.construction, 2, 3)
    kept = {"limit_q.csv": verdict.q_result.polynomial, "limit_p.csv": verdict.p_result.polynomial}
    assert [name for name, _ in written] == [*kept, *kept]
    for name, data in written[2:]:
        assert data is kept[name].to_csv()
        assert data == csv_text(name, ("z", "a_z"), kept[name].to_csv_rows()).encode()
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "0" / name).read_bytes() == data


def test_main_requires_construction(capsys):
    assert cli.main(["classify"]) == 2


def test_main_disjointness_flags(tmp_path, capsys):
    code = cli.main([
        "disjointness", "--preset", "chacon", "--p", "2", "--q", "3",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "EvidenceDisjoint" in out
    assert len(re.findall(r"residual \S+, optimality gap ", out)) == 2
    assert (tmp_path / "limit_q.csv").exists()
    assert (tmp_path / "limit_p.csv").exists()


def test_main_classify_horizon_one(tmp_path, capsys):
    # a tail window of fewer than 3 stages cannot show a growing offset gcd
    for horizon in ("1", "2"):
        code = cli.main(["classify", "--preset", "chacon", "--horizon", horizon,
                         "--out", str(tmp_path)])
        assert code == 2
        assert "'horizon' in params must be >= 3" in capsys.readouterr().err
    code = cli.main(["classify", "--preset", "chacon", "--horizon", "3",
                     "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "(horizon 3)" in out
    # the fixed depth rule, without the max_shift that classify does not take
    assert ("  depth policy: min_levels=10000 shift_factor=200 fit_count=3 Z=8"
            in out.splitlines())
    assert "max_shift" not in out


@pytest.mark.parametrize(
    "construction,command,params,message",
    [
        ({"h1": 0, "stages": {"kind": "periodic",
                              "pattern": [{"r": 3, "s": [0, True, 0]}]}},
         "heights", {}, "'s' in construction.stages.pattern[0]"),
        ({"preset": "chacon"}, "mobius-sum", {"levels": [0, True]},
         "'levels' in params"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": True}}, "P": {"coeffs": {"0": 1}}, "p": 2, "q": 3},
         "'coeffs[0]' in params.Q"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": float("nan")}}, "P": {"coeffs": {"0": 1}}, "p": 2, "q": 3},
         "'coeffs[0]' in params.Q must be finite"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": 1}}, "P": {"coeffs": {"0": 1}, "theta": float("nan")},
          "p": 2, "q": 3}, "'theta' in params.P must be finite"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": 1}}, "P": {"coeffs": {"0": float("inf")}}, "p": 2, "q": 3},
         "'coeffs[0]' in params.P"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": 1}}, "P": {"coeffs": {"0": 1}, "theta": 10**400},
          "p": 2, "q": 3}, "'theta' in params.P"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": 1}, "theta": float("-inf")}, "P": {"coeffs": {"0": 1}},
          "p": 2, "q": 3}, "'theta' in params.Q"),
        ({"preset": "chacon"}, "similarity",
         {"Q": {"coeffs": {"0": 1}}, "P": {"coeffs": {"0": 1}, "theta": False},
          "p": 2, "q": 3}, "'theta' in params.P must be a number"),
        ({"preset": "class4"}, "telescope", {"d": 2, "levels": [0, True]},
         "'levels' in params must be a list of integers"),
    ],
)
def test_booleans_and_non_finite_numbers_rejected(construction, command, params,
                                                  message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        cli.parse_config(make_config(construction=construction, command=command,
                                     params=params))


# sample JSON value and flag words of each param kind; every int is >= all
# minimums and differs from every default
SAMPLES = {
    cli._int: (7, ["7"]),
    cli._levels: ([0, 2], ["0", "2"]),
    cli._poly: ({"coeffs": {"0": 0.5, "3": 0.5}, "theta": 0.25},
                ['{"coeffs": {"0": 0.5, "3": 0.5}, "theta": 0.25}']),
}
FLAG_CASES = [(name, spec) for name, command in cli.COMMANDS.items()
              for spec in command.params]


@pytest.mark.parametrize("command,spec", FLAG_CASES,
                         ids=[f"{c}-{s.name}" for c, s in FLAG_CASES])
def test_flags_and_json_give_the_same_params(tmp_path, monkeypatch, command, spec):
    specs = [s for s in cli.COMMANDS[command].params
             if s.default is cli.REQUIRED or s == spec]
    json_params, argv = {}, [command, "--preset", "class4", "--out", str(tmp_path)]
    for s in specs:
        value, words = SAMPLES[s.kind]
        json_params[s.name] = value
        argv += ["--" + s.name.replace("_", "-"), *words]
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert cli.main(argv) == 0
    expected = cli.parse_config_dict({
        "construction": {"preset": "class4"}, "command": command,
        "params": json_params, "output": {"dir": str(tmp_path)},
    })
    # a levels array is compared by np.array_equal: == on it is elementwise
    [got] = seen
    assert got.params.keys() == expected.params.keys()
    for key, value in expected.params.items():
        assert type(got.params[key]) is type(value)
        if isinstance(value, np.ndarray):
            assert np.array_equal(got.params[key], value)
        else:
            assert got.params[key] == value
    assert replace(got, params={}) == replace(expected, params={})
    if isinstance(expected.params[spec.name], np.ndarray):
        assert not np.array_equal(expected.params[spec.name], spec.default)
    else:
        assert expected.params[spec.name] != spec.default


REMOVED_DEPTH_CASES = [(c, key) for c in ("weak-limit", "disjointness", "cascade")
                       for key in ("min_levels", "shift_factor", "fit_count", "ref_stage",
                                   "Z", "tau")]
# the stage offset m; as a flag, --m would otherwise pass as a prefix of --max-shift
REMOVED_DEPTH_CASES.append(("weak-limit", "m"))
# the fit horizon, and cascade's cross-check window: it checks the fitted stages
REMOVED_DEPTH_CASES += [(c, "horizon") for c in ("weak-limit", "disjointness", "cascade")]
REMOVED_DEPTH_CASES += [("disjointness", key)
                        for key in ("coeff_tol", "stability_tol", "residual_tol")]
REMOVED_DEPTH_CASES += [("similarity", key) for key in ("tol", "tau")]
# mobius-sum picks the first depth its orbit fits in; K changed no output
REMOVED_DEPTH_CASES.append(("mobius-sum", "K"))


@pytest.mark.parametrize("command,key", REMOVED_DEPTH_CASES,
                         ids=[f"{c}-{k}" for c, k in REMOVED_DEPTH_CASES])
def test_removed_depth_keys_are_refused(tmp_path, capsys, command, key):
    params = {"weak-limit": {}, "mobius-sum": {}, "disjointness": {"p": 2, "q": 3},
              "cascade": {"p": 2},
              "similarity": {"Q": {"coeffs": {"0": 1}}, "P": {"coeffs": {"0": 1}},
                             "p": 2, "q": 3}}[command]
    argv = [command, "--preset", "class4", "--out", str(tmp_path)]
    for name, value in params.items():
        argv += ["--" + name, json.dumps(value)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--" + key.replace("_", "-"), "7"])
    assert exc.value.code == 2
    path = tmp_path / "cfg.json"
    path.write_text(make_config(command=command, params={**params, key: 7}))
    assert cli.main(["run", str(path)]) == 2
    assert f"unknown key(s) ['{key}'] in params for command '{command}'" in capsys.readouterr().err


# ------------------------------------------------ counts past 4300 digits

def test_counts_past_the_print_limit_are_reported_bounded(tmp_path, capsys):
    # class4's L_20000 has 6021 digits, past the 4300 Python prints
    assert cli.main(["labels", "--preset", "class4", "--K", "20000", "--max-rows", "5",
                     "--out", str(tmp_path / "labels")]) == 0
    assert (tmp_path / "labels" / "labels.csv").read_text().splitlines()[1:] == [
        "0,level,0", "1,level,1", "2,level,0", "3,level,1", "4,spacer,1"]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "labels: stage 1 through depth 20000, L_K=7.96055e+6020 (6021 digits), wrote 5 rows")
    # the word guard's message names class4's first stage past the limit,
    # L_25 = 67108862, and computes no count of a deeper stage
    for K in ("20000", "5000"):
        assert cli.main(["telescope", "--preset", "class4", "--d", "2", "--N", "10",
                         "--K", K, "--out", str(tmp_path / "tele")]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"error[ValueError]: stage-{K} word has more levels than the 67108862 of "
            "stage 25, over the 50000000 in-memory limit")
    # heights.csv keeps exact counts, so it stops at the first stage it cannot print
    assert cli.main(["heights", "--preset", "class4", "--J", "20000",
                     "--out", str(tmp_path / "heights")]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error[ValueError]: heights.csv keeps exact counts, and its L at j=14284 is "
        "1.63488e+4300 (4301 digits), past the 4300 digits Python prints")
    assert not (tmp_path / "heights" / "heights.csv").exists()


def test_heights_grow_no_further_than_the_first_unprintable_count(tmp_path, capsys):
    # h1 = 9 and 1000 columns without spacers: L_j = 10^(3j - 2), so L_1434
    # = 10^4300 is the first count of 4301 digits, and the level table stops
    # there, short of the 3000 stages asked for
    params = cons.ConstructionParams.periodic(9, [cons.StageParams(1000, (0,) * 1000)])
    spec = {"h1": 9, "stages": {"kind": "periodic", "pattern": [{"r": 1000, "s": [0] * 1000}]}}
    assert cli.main(["heights", "--construction-json", json.dumps(spec), "--J", "3000",
                     "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == (
        "error[ValueError]: heights.csv keeps exact counts, and its L at j=1434 is "
        "1.00000e+4300 (4301 digits), past the 4300 digits Python prints")
    assert len(cons._level_table(params)[0]) == 1434
    assert not (tmp_path / "heights.csv").exists()


def test_heights_past_the_print_limit_format_only_the_last_row(tmp_path, monkeypatch,
                                                              capsys):
    # the level table of h1 = 9 and 1000 columns ends on L_1434 = 10^4300,
    # so heights hands the formatter that row alone, not the 1433 before it
    seen = []
    csv_text = cli._csv_text

    def spy(name, header, rows):
        seen.append(list(rows))
        return csv_text(name, header, seen[-1])

    monkeypatch.setattr(cli, "_csv_text", spy)
    spec = {"h1": 9, "stages": {"kind": "periodic", "pattern": [{"r": 1000, "s": [0] * 1000}]}}
    assert cli.main(["heights", "--construction-json", json.dumps(spec), "--J", "3000",
                     "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "error[ValueError]: heights.csv keeps exact counts, and its L at j=1434 is ")
    assert [[row[0] for row in rows] for rows in seen] == [[1434]]


def test_factor_refuses_offsets_past_the_print_limit(tmp_path, capsys):
    # factor.csv keeps the exact column offsets of stages K and K + 1: class4's
    # stage-14284 offset L_14284 has 4301 digits, its stage-14283 one 4300
    assert cli.main(["factor", "--preset", "class4", "--K", "14282",
                     "--out", str(tmp_path / "fine")]) == 0
    last = (tmp_path / "fine" / "factor.csv").read_text().splitlines()[-1]
    assert last == f"14283,2,{cons.column_offsets(cons.class4(), 14283)[0]},0"
    capsys.readouterr()
    # a K past the first unprintable L_K, each offset of stage K being at
    # least L_K, is refused with the level table grown no further than that
    # L; K = 14283 gets as far as the CSV, which cannot print stage K + 1
    for K, message in (
            (14283, "factor.csv keeps exact counts, and its offset at stage=14284, "
                    "column=2 is 1.63488e+4300 (4301 digits), past"),
            (15000, "depth K=15000 reaches stage 14284, whose L_14284 = "
                    "1.63488e+4300 (4301 digits) is past")):
        cons._level_table.cache_clear()
        assert cli.main(["factor", "--preset", "class4", "--K", str(K),
                         "--out", str(tmp_path / str(K))]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"error[ValueError]: {message} the 4300 digits Python prints")
        assert len(cons._level_table(cons.class4())[0]) == 14284
        assert not (tmp_path / str(K) / "factor.csv").exists()


def test_classify_and_factor_refuse_horizons_past_the_print_limit(tmp_path, capsys):
    # chacon's L_9014 is its first count past the 4300 digits Python prints:
    # a horizon that reaches it is refused once the level table has grown that
    # far, and no further, however far the horizon lies
    assert cli.main(["classify", "--preset", "chacon", "--horizon", "9013",
                     "--out", str(tmp_path / "fine")]) == 0
    assert (tmp_path / "fine" / "classification.csv").exists()
    capsys.readouterr()
    for command, horizon in (("classify", 9014), ("classify", 100_000_000),
                             ("factor", 100_000)):
        cons._level_table.cache_clear()
        start = time.perf_counter()
        assert cli.main([command, "--preset", "chacon", "--horizon", str(horizon),
                         "--out", str(tmp_path / command)]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"error[ValueError]: horizon {horizon} reaches stage 9014, whose L_9014 = "
            "2.95093e+4300 (4301 digits) is past the 4300 digits Python prints")
        assert len(cons._level_table(cons.chacon())[0]) == 9014
        assert list((tmp_path / command).glob("*.csv")) == []


def test_cascade_refuses_moduli_past_the_print_limit(tmp_path, capsys):
    # cascade.csv keeps each modulus 2^m exactly, and 2^14285 has 4301 digits;
    # flat3's support and spacer differences are {0}, so every level holds
    for levels in ("20000", "300000"):
        assert cli.main(["cascade", "--preset", "flat3", "--p", "2", "--levels", levels,
                         "--max-shift", "400", "--out", str(tmp_path / levels)]) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            "error[ValueError]: cascade.csv keeps exact counts, and its modulus at m=14285 "
            "is 1.63488e+4300 (4301 digits), past the 4300 digits Python prints")
        assert not (tmp_path / levels / "cascade.csv").exists()


def test_cascade_past_the_print_limit_draws_only_the_first_unprintable_row(tmp_path,
                                                                           monkeypatch, capsys):
    # 2^14285 is the first modulus of 4301 digits, so cascade hands the
    # formatter that row alone, not the 14284 printable ones before it
    drawn = []
    csv_text = cli._csv_text

    def spy(name, header, rows):
        def counted():
            for row in rows:
                drawn.append(row[0])
                yield row
        return csv_text(name, header, counted())

    monkeypatch.setattr(cli, "_csv_text", spy)
    assert cli.main(["cascade", "--preset", "flat3", "--p", "2", "--levels", "20000",
                     "--max-shift", "400", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "error[ValueError]: cascade.csv keeps exact counts, and its modulus at m=14285 is ")
    assert drawn == [14285]


@pytest.mark.parametrize("row,where", [
    ((2, "b", 10**4300), "count at n=2, tag=b is 1.00000e+4300 (4301 digits)"),
    ((2, "b", -(10**4300)), "count at n=2, tag=b is -1.00000e+4300 (4301 digits)"),
    ((10**4300, "b", 5), "n at row 2 is 1.00000e+4300 (4301 digits)"),
], ids=["last-column", "negative", "first-column"])
def test_no_command_writes_an_unprintable_int(tmp_path, monkeypatch, capsys, row, where):
    # every CSV goes through one formatter, so any handler's row with an int
    # past the 4300 digits Python prints stops the run before a file is written
    def handler(cfg):
        rows = iter([(1, "a", 5), row])
        return ({"first.csv": (("n", "tag", "count"), [(1, "a", 5)]),
                 "second.csv": (("n", "tag", "count"), rows)}, ["handler line"])

    monkeypatch.setitem(cli.COMMANDS, "heights",
                        cli.Command(handler, cli.COMMANDS["heights"].params))
    assert cli.main(["heights", "--preset", "chacon", "--out", str(tmp_path)]) == 3
    report = capsys.readouterr().out.splitlines()
    assert report[-1] == (f"error[ValueError]: second.csv keeps exact counts, and its "
                          f"{where}, past the 4300 digits Python prints")
    assert "handler line" not in report
    assert list(tmp_path.iterdir()) == []


def test_errors_drawing_rows_pass_through_the_formatter(tmp_path, monkeypatch, capsys):
    def rows():
        yield (1,)
        raise ValueError("no row 2")

    monkeypatch.setitem(cli.COMMANDS, "heights", cli.Command(
        lambda cfg: ({"a.csv": (("n",), rows())}, []), cli.COMMANDS["heights"].params))
    assert cli.main(["heights", "--preset", "chacon", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-1] == "error[ValueError]: no row 2"
    assert not (tmp_path / "a.csv").exists()


def test_heights_below_the_print_limit_stay_exact(tmp_path, capsys):
    # L_14283 has 4300 digits, which Python still prints
    assert cli.main(["heights", "--preset", "class4", "--J", "14283",
                     "--out", str(tmp_path)]) == 0
    last = (tmp_path / "heights.csv").read_text().splitlines()[-1]
    L = cons.heights(cons.class4(), 14283).L(14283)
    assert last == f"14283,{L},{L - 1}"
    assert capsys.readouterr().out.splitlines()[-1] == (
        "heights through stage 14283: L_14283 = 8.17444e+4299 (4300 digits)")
