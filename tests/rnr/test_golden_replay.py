"""Byte-identical replay outputs against a committed golden fixture.

``golden/replay_outputs.json`` pins two user-visible replay outputs of
the ``demo:tabs`` figure app:

* the exact stdout of ``repro fragility demo:tabs --seed 7 --json``;
* every ``*.replay.json`` script ``explore demo:tabs --save DIR
  --export-replay`` writes, by file name.

Regenerate the fixture only for *intentional* changes::

    PYTHONPATH=src python tests/rnr/test_golden_replay.py
"""

import contextlib
import io
import json
import pathlib
import tempfile

from repro.cli import main

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "replay_outputs.json")


def _stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def fragility_json() -> str:
    return _stdout_of(["fragility", "demo:tabs", "--seed", "7", "--json"])


def exported_scripts() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        _stdout_of(["explore", "demo:tabs", "--save", directory,
                    "--export-replay"])
        return {path.name: path.read_text(encoding="utf-8")
                for path in sorted(pathlib.Path(directory, "testcases")
                                   .glob("*.replay.json"))}


def golden() -> dict:
    return {"fragility_demo_tabs_seed7": fragility_json(),
            "exported_scripts_demo_tabs": exported_scripts()}


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fragility_json_byte_identical():
    assert fragility_json() == _load()["fragility_demo_tabs_seed7"]


def test_exported_replay_scripts_byte_identical():
    pinned = _load()["exported_scripts_demo_tabs"]
    assert pinned
    assert exported_scripts() == pinned


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden(), indent=1, sort_keys=True)
                           + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
