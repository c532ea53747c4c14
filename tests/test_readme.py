import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs(capsys):
    """The README's library example runs as written and its value is certified."""
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert 'parse_seq_spec("gtm:2:1")' in code and '"(2n+1)/(2n+2)"' in code
    scope = {}
    exec(code, scope)
    res = scope["res"]
    assert abs(res.log_value + math.log(2.0) / 2) <= res.est_error
    assert capsys.readouterr().out.startswith("0.70710678118654")
