"""The README's library quick tour, run as written.

The tour shows the public names a reader meets first, so it must keep
running: deleting a name it shows fails here. A bare expression whose
comment starts with a Python literal (up to an optional ": note")
states that expression's value, and the value is checked.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs_and_shows_its_values():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    comments = {tok.start[0]: tok.string[1:].strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    env, shown = {}, []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), env)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), env)
        try:
            stated = ast.literal_eval(comments.get(stmt.end_lineno, "").split(": ")[0])
        except (ValueError, SyntaxError):  # a note, not a value
            continue
        assert value == stated, f"README line {stmt.lineno}: {value!r} != {stated!r}"
        shown.append(stated)
    # every value the tour states is checked, none skipped as a note
    assert shown == [(1, 4, 13, 40, 121), "TotallyErgodic", (-121, -364, -1093), 12,
                     "EvidenceDisjoint", (-1, -1, True)]
