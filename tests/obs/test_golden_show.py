"""``repro show`` text of saved runs against a committed fixture.

``golden/show_text.json`` pins what ``repro show DIR`` prints for one
Table-I app saved with no other flags and for the same app under the
hostile fault profile.  The time section is the only part that reads
the wall clock: its numbers are masked and its rows sorted, so the
fixture pins which queue items it ranks and how often each ran.
Regenerate only for an *intentional* change to the view::

    PYTHONPATH=src python tests/obs/test_golden_show.py
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile

import pytest

from repro.cli import main

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "show_text.json"

PACKAGE = "com.aircrunch.shopalerts"
RUNS = {
    "default": [],
    "hostile": ["--faults", "hostile"],
}


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _masked(text: str, run_dir: pathlib.Path) -> str:
    text = text.replace(str(run_dir), "<run>")
    before, rest = text.split("\n== time ==\n")
    time, after = rest.split("\n\n== explorer ==\n")
    title, header, *rows = re.sub(r" *\d+\.\d+%?", " #", time).splitlines()
    return "\n".join([before, "== time ==", title, header, *sorted(rows),
                      "", "== explorer ==", after])


def show_text(name: str, base: pathlib.Path) -> str:
    run_dir = base / name
    _cli("explore", PACKAGE, "--save", str(run_dir), *RUNS[name])
    # --top covers every queue item, so the rows shown do not depend
    # on how the wall clock ranked them.
    return _masked(_cli("show", str(run_dir), "--top", "100"), run_dir)


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_show_text_matches_golden(name, tmp_path):
    text = show_text(name, tmp_path)
    for header in ("== time ==", "== explorer ==", "== misses =="):
        assert header in text
    assert text == _golden()[name]


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    with tempfile.TemporaryDirectory() as tmp:
        fixture = {name: show_text(name, pathlib.Path(tmp))
                   for name in sorted(RUNS)}
    GOLDEN_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")
