"""The CLI end to end: each row is one ``rankone`` command line, the exit
code it must return and what its stdout, stderr or output files must hold.

A check is ``Fx`` (a whole line, as ``grep -Fx``), ``F`` (a substring, as
``grep -F``), or a ``sha256``, ``cmp`` (the exact bytes) or ``exists``
tuple on a file. Each row runs in a fresh working directory, in-process
through ``cli.main``. A row with a time bound guards against a hang, so
it runs ``python -m rankone.cli`` in a child process, killed past the
bound. A new CLI behaviour gets a row here, not a CI step; a check that
needs more than a row can give (a level table's length, a traced peak)
is a test in ``test_cli.py``.
"""

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rankone import cli

ROOT = Path(__file__).resolve().parents[1]
RANDOM = '{"h1":1,"stages":{"kind":"random","r_max":3,"s_max":3,"seed":5}}'


def Fx(line, where="stdout"):
    return "Fx", where, line


def F(text, where="stdout"):
    return "F", where, text


def step(id, cmd, code, *checks, timeout=None, stdin=None, files=()):
    return pytest.param(cmd, code, checks, timeout, stdin, dict(files), id=id)


def telescope(out, *rows):
    return [Fx(row, f"{out}/telescope.csv") for row in rows]


STEPS = [
    # the README's disjointness example, end to end
    step("dj", "disjointness --preset chacon --p 2 --q 3 --out dj", 0,
         F("verdict: EvidenceDisjoint")),
    # a random bounded construction whose six fits end on small supports, each reached by
    # block pivoting in a few KKT solves
    step("dj-rand", f"disjointness --construction-json '{RANDOM}' --p 2 --q 3 --max-shift 4000"
         " --out dj-rand", 0, F("verdict: Inconclusive (numerical evidence)"),
         F("residual 0.0009921, optimality gap 1.7e-17"),
         F("similarity: supp(Q) not within 3Z: shifts [1, 2]")),
    # an exact Mobius sum through the sieve and the chunked sum; the whole line: the levels
    # print as the list given, never as an array
    step("ms", "mobius-sum --preset chacon --N 200000 --stage 2 --levels 0 1 --out ms", 0,
         Fx("S_N for indicator of stage-2 levels [0, 1], start 0: S_200000 = 8")),
    # the word guard counts the entries built, not L_K: L_17 = 64570081 is past the 5e7
    # limit, but labels builds only its rows, and mobius-sum its orbit
    step("labels17", "labels --preset chacon --K 17 --max-rows 3 --out labels17", 0),
    step("ms3e7", "mobius-sum --preset chacon --N 30000000 --out ms3e7", 0,
         F("S_30000000 = -1830")),
    # the sieve reads mu over odd n in blocks of BLOCK = 1058400 odd n; at N = 4*BLOCK + 3
    # the sum runs past where the first block's even half (n = 2m, m odd) ends
    step("ms4b", "mobius-sum --preset chacon --N 4233603 --out ms4b", 0, F("S_4233603 = 589")),
    # a process keeps mu's sign planes for the 24 blocks of odd n to n = 50803199, past the
    # word guard, and int8 mu for the first 3, n <= 6350399: an indicator sum reads kept
    # planes alone, so N = 6350400, the last sum within the int8 blocks, and N = 6350401
    # (mu = 1 there), the first past them, both read kept planes
    step("ms-kept", "mobius-sum --preset chacon --N 6350400 --stage 2 --levels 0 1 2 3"
         " --out ms-kept", 0, F("S_6350400 = -145")),
    step("ms-streamed", "mobius-sum --preset chacon --N 6350401 --stage 2 --levels 0 1 2 3"
         " --out ms-streamed", 0, F("S_6350401 = -144")),
    # an indicator's values are counted against mu's sign planes, 64 to a word; this sum
    # reads kept planes into the fourth block, past the int8 blocks, and both of its cuts
    # fall inside a word of their block: the odd read's at k = 3175216, 16 into the fourth
    # block, the even read's at k = 1587608, 529208 = 56 mod 64 into the second
    step("ms-planes", "mobius-sum --preset flat3 --N 6350431 --start 5 --stage 2 --levels 1 3"
         " --out ms-planes", 0, F("S_6350431 = 270")),
    # the largest sum under the word guard reads all 24 kept blocks of planes, each sieved
    # whole on its first use, in well under 20 s
    step("ms49m", "mobius-sum --preset chacon --N 49000000 --stage 2 --levels 0 1 3 --start 5"
         " --out ms49m", 0, F("S_49000000 = -2131"), timeout=20),
    # the sum reads the orbit values as two parity halves, which swap roles at an odd
    # start; both orbits run one odd n past the first block of odd n, n <= 2*BLOCK
    step("ms-odd", "mobius-sum --preset chacon --N 2116801 --start 7 --stage 2 --levels 0 2"
         " --out ms-odd", 0, F("S_2116801 = -390")),
    step("ms-even", "mobius-sum --preset chacon --N 2116802 --start 8 --stage 2 --levels 0 2"
         " --out ms-even", 0, F("S_2116802 = -296")),
    # the sum decodes its orbit values one mu block at a time from one stage word, here
    # W_13 (L_13 = 160823 is this random construction's last level count within BLOCK/4 =
    # 264600); the orbit starts on the seam after the first copy of W_13 in the stage-17
    # word and runs past 4*BLOCK
    step("ms-rand", f"mobius-sum --construction-json '{RANDOM}' --N 4233603 --start 160823"
         " --stage 2 --levels 0 3 5 --out ms-rand", 0, F("S_4233603 = 464")),
    # a stage past the word guard is refused once the level table reaches the first stage
    # over the limit (chacon's 17, class4's 25), without growing it to the stage asked for
    *(step(f"deep-{args.split()[0]}", f"{args} --out deep", 3, timeout=10) for args in (
        "mobius-sum --preset chacon --stage 100000 --N 10",
        "correlate --preset chacon --j 2 --K 100000 --n 1",
        "telescope --preset class4 --d 2 --N 10 --K 100000")),
    # a shift far past the benchmark's: the climb counts its junction rows in groups of at
    # most JUNCTION_BYTES, with the same counts as before
    step("far", f"correlate --construction-json '{RANDOM}' --j 2 --n 150000 --out far", 0,
         ("sha256", "far/correlation.csv",
          "6a58debf03ddf51289dc8a82868c01e72bc86b2193e4480ce5c053b1b3f4eae4"),
         Fx("0,0,0.009666048718140627,0.00431805116285435", "far/correlation.csv"),
         Fx("spacer,spacer,0.062131058822174755,0.00431805116285435", "far/correlation.csv"),
         timeout=20),
    # a preset that is a JSON list or object is an unknown preset (exit 2), not a crash on
    # an unhashable key
    step("preset-list", """heights --construction-json '{"preset": ["chacon"]}'"""
         " --out preset-list", 2),
    # heights grows the level table only through chacon's first count past the 4300 digits
    # Python prints, L_9014, not to the 200000 stages asked for
    step("heights-deep", "heights --preset chacon --J 200000 --out heights-deep", 3,
         F("its L at j=9014"), timeout=10),
    # run writes each CSV through os.open and os.write: LF line endings, no BOM, a final
    # newline
    step("h3", "heights --preset chacon --J 3 --out h3", 0,
         ("cmp", "h3/heights.csv", b"j,L,h\n1,1,0\n2,4,3\n3,13,12\n")),
    # an empty output.dir is the current directory
    step("empty-dir", "run -", 0, ("exists", "heights.csv", None), stdin=json.dumps(
        {"construction": {"preset": "chacon"}, "command": "heights", "params": {"J": 3},
         "output": {"dir": ""}})),
    # the label word as CSV rows: a spacer from the stage-1 restack and one inserted when
    # stacking stage 2
    step("labels", "labels --preset chacon --j 1 --K 3 --out labels", 0,
         Fx("2,spacer,1", "labels/labels.csv"), Fx("8,spacer,2", "labels/labels.csv")),
    # past the int8 blocks (n <= 6350399) the chain's mu is unpacked from the kept planes a
    # block at a time through sieve_mobius
    step("tele7m", "telescope --preset class4 --d 2 --N 7000000 --K 2 --levels 0 2 4"
         " --out tele7m", 0, *telescope("tele7m", "lhs,-58", "rhs,-58", "first_term,112",
                                        "second_term,170")),
    # an orbit in the observable's own stage is read in place, a view of its numerators:
    # N = 3e7 reads class4's stage-24 indicator with no word built (tele7m reads stage 2
    # below its depth)
    step("tele3e7", "telescope --preset class4 --d 2 --N 30000000 --out tele3e7", 0,
         *telescope("tele3e7", "lhs,-398", "rhs,-398", "equal,True", "first_term,-665",
                    "second_term,-267"), timeout=20),
    # the same sum unfolded three times along the prime extension
    step("tele3", "telescope --preset class4 --d 2 --N 10000 --M 3 --out tele3", 0,
         *telescope("tele3", "S_N,17", "identity_holds,True")),
    # an admitted orbit has at most 5e7 entries, so a larger d divides none of its times
    # and is a config error before it is factored: trial division of the prime 2^61 - 1
    # would not finish
    step("tele-huge-d", "telescope --preset class4 --d 2305843009213693951 --N 100"
         " --out tele-huge-d", 2, timeout=10),
    # cascade.csv keeps each modulus 2^m exactly, and 2^14285 has 4301 digits, so the
    # cascade names that level, however many levels are asked for
    *(step(f"cascade{n}", f"cascade --preset flat3 --p 2 --levels {n} --max-shift 400"
           f" --out cascade{n}", 3, F("error[ValueError]: cascade.csv keeps exact counts, and"
                                      " its modulus at m=14285 is 1.63488e+4300 (4301 digits),"
                                      " past the 4300 digits Python prints"), timeout=10)
      for n in (20000, 300000)),
    # column offsets of stages K and K+1 of the cyclic factor
    step("factor", "factor --preset class4 --K 13 --out factor", 0,
         Fx("14,2,32766,0", "factor/factor.csv")),
    # factor.csv keeps exact offsets, each at least L_K: chacon's K = 1000000 stops at its
    # L_9014, not at a table of a million counts
    step("factor1e6", "factor --preset chacon --K 1000000 --out factor1e6", 3,
         F("stage 9014"), timeout=10),
    # one rule for the rational spectrum, the gcd of the column offsets: flat3's grows as
    # 2*3^(j-1) (an odometer), chacon's is 1, and constant spacers (2, 2) on h1 = 1 keep
    # every offset even
    step("cl-flat3", "classify --preset flat3 --out cl-flat3", 0, F("classification: Odometer")),
    step("cl-chacon", "classify --preset chacon --out cl-chacon", 0,
         F("classification: TotallyErgodic")),
    # classify compares the suprema r_sup = 3, s_sup = 1 with --bound: 2 is exceeded, 3 is not
    step("cl-b2", "classify --preset chacon --bound 2 --out cl-b2", 3,
         Fx("error[NotBounded]: parameters exceed bound 2 on horizon 40: r_sup=3, s_sup=1")),
    step("cl-b3", "classify --preset chacon --bound 3 --out cl-b3", 0,
         Fx("classification: TotallyErgodic")),
    step("factor22", """factor --construction-json '{"h1": 1, "stages": {"kind": "periodic","""
         """ "pattern": [{"r": 2, "s": [2, 2]}]}}' --out factor22""", 0,
         F("cyclic factor: d=2")),
    # a 6000-stage explicit construction is hashed once, not per lookup of its level table,
    # and its table is grown by one loop
    step("explicit6000", "run explicit6000.json --out explicit6000", 0,
         Fx("classification: TotallyErgodic"), timeout=5, files={"explicit6000.json": json.dumps(
             {"construction": {"h1": 0, "stages": {"kind": "explicit",
                                                   "stages": [{"r": 2, "s": [0, 1]}] * 6000}},
              "command": "classify", "params": {"horizon": 6000}})}),
    # a random construction draws each stage once, into the keep of its levels, and a
    # height table is read in place: 8000 stages, each drawn once
    step("cl-random", f"classify --construction-json '{RANDOM}' --horizon 8000 --out cl-random",
         0, Fx("classification: TotallyErgodic"), timeout=10),
    # a stage-16 indicator of 21,523,361 levels holds one bool a level
    step("ms16", "mobius-sum --preset chacon --stage 16 --levels 0 5 7 --N 1000000 --out ms16",
         0, F("S_1000000 = -2")),
    # weak-limit supports fed to the divisibility cascade
    step("cascade", "cascade --preset flat3 --p 2 --levels 2 --max-shift 400 --out cascade", 0,
         Fx("2,4,True,True,0", "cascade/cascade.csv")),
    # one fit tested against 3, 9, ..., 729: chacon's limit (I + T)/2 has support {0, 1}
    step("cascade3", "cascade --preset chacon --p 3 --levels 6 --out cascade3", 0,
         Fx("6,729,False,False,1", "cascade3/cascade.csv")),
]


@pytest.mark.parametrize("cmd,code,checks,timeout,stdin,files", STEPS)
def test_step(tmp_path, monkeypatch, capsys, cmd, code, checks, timeout, stdin, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = shlex.split(cmd)
    if timeout:
        proc = subprocess.run([sys.executable, "-m", "rankone.cli", *argv], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, input=stdin,
                              capture_output=True, text=True, timeout=timeout)
        streams = {"stdout": proc.stdout, "stderr": proc.stderr}
        assert proc.returncode == code, streams
    else:
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        streams = {"stdout": captured.out, "stderr": captured.err}
    for kind, where, want in checks:
        if kind == "exists":
            assert (tmp_path / where).is_file()
            continue
        data = streams[where].encode() if where in streams else (tmp_path / where).read_bytes()
        if kind == "sha256":
            assert hashlib.sha256(data).hexdigest() == want
        elif kind == "cmp":
            assert data == want
        elif kind == "Fx":
            assert want in data.decode().split("\n"), (want, where)
        else:
            assert want in data.decode(), (want, where)


def test_ci_runs_rankone_only_in_the_console_script_smokes():
    # every other CLI check is a row above, which Tier-1 runs
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    calls = [line.strip() for line in text.splitlines()
             if re.search(r"\brankone\b", line) and not line.lstrip().startswith("#")]
    assert calls == [
        '- run: rankone weak-limit --preset chacon --max-shift 200 --out "$RUNNER_TEMP/smoke"',
        "- run: rankone disjointness --help"]
