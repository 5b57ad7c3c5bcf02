"""CLI outputs that the sampling route of ``inner_product`` must not move.

``member`` on every row of the pw and a20 claim tables (membership keeps
the quadrature route), ``verify all``, ``defaults`` and the criterion-11
battery are compared byte for byte, the timestamp aside, with
``data/cli_golden.json``.  That file holds the outputs of the code before
``inner_product`` had a sampling route; ``python tests/test_cli_golden.py``
writes it from the ``dblab`` on the path.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from dblab.cli import main
from dblab.examples import build_a20, build_pw, pw_space
from dblab.expressions import expr_to_json

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
_TIMESTAMP = re.compile(r', "timestamp": "[^"]*"}$')


MAJORIZE = {"f": {"kind": "cos"},
            "majorant": {"type": "nabla", "space": pw_space(1.0).to_json()},
            "domain": {"kind": "line", "y0": 1.0, "ratio": 1.02, "rmax": 1e3}}


def _commands(tmp: Path) -> dict:
    """Name -> (argv, CSV path or None); the majorize config is read from
    ``tmp / "majorize.json"``."""
    cmds = {"defaults": (["defaults"], None), "verify all": (["verify", "all"], None)}
    for inst in (build_pw(1.0), build_a20()):
        for table, rows in (("member", inst.members), ("non-member", inst.non_members)):
            for label, f, key in rows:
                space = json.dumps(inst.spaces[key].to_json())
                cmds[f"member {inst.id} {table} {label} in {key}"] = (
                    ["member", "--space", space, "--f", json.dumps(expr_to_json(f))], None)
    pw1 = json.dumps(pw_space(1.0).to_json())
    cmds["kernel"] = (["kernel", "--space", pw1, "--w", "0.3+0.1i", "--z", "1-0.2i"], None)
    cmds["weaktype"] = (["weaktype", "--q", '{"kind":"quotient","num":{"kind":"const",'
                         '"value":[0,1]},"den":{"kind":"z"}}', "--y0", "1",
                         "--a-grid", "0.2:1.2:0.2", "--out", str(tmp / "wt.csv")], tmp / "wt.csv")
    cmds["majorize"] = (["majorize", "--config", str(tmp / "majorize.json"),
                         "--out", str(tmp / "mj.csv")],
                        tmp / "mj.csv")
    cmds["verify A12"] = (["verify", "A12"], None)
    cmds["example pw"] = (["example", "pw", "--a", "1"], None)
    return cmds


def _run(argv, csv_path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return {"exit": rc, "stdout": _TIMESTAMP.sub("}", out.getvalue().rstrip("\n")),
            "csv": csv_path.read_text() if csv_path else None}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    (tmp / "majorize.json").write_text(json.dumps(MAJORIZE))
    return _commands(tmp)


def test_golden_covers_every_command(golden, commands):
    assert sorted(golden) == sorted(commands)


@pytest.mark.parametrize("name", sorted(_commands(Path("."))))
def test_cli_output_is_byte_identical(golden, commands, name):
    assert _run(*commands[name]) == golden[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "majorize.json").write_text(json.dumps(MAJORIZE))
        docs = {name: _run(*cmd) for name, cmd in _commands(Path(d)).items()}
    GOLDEN.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
