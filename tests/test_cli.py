import ast
import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dblab
from dblab.cli import COMMANDS, _jsonable, build_parser, main, parse_complex
from dblab.examples import a45_truncated_space, build_a20, pw_space
from dblab.expressions import expr_from_json
from dblab.model import InnerFunction, clark_kernel


def run_cli(args, stdin=None):
    """``python -m dblab.cli`` in a fresh process: (exit code, stdout, stderr)."""
    r = subprocess.run([sys.executable, "-m", "dblab.cli"] + args,
                       capture_output=True, text=True, input=stdin)
    return r.returncode, r.stdout, r.stderr


@pytest.fixture
def cli(capsys, monkeypatch):
    """``main`` in this process, with ``run_cli``'s signature and return."""
    def run(args, stdin=None):
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        rc = main(args)
        out, err = capsys.readouterr()
        return rc, out, err
    return run


@pytest.fixture(scope="module")
def pw1_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("spaces") / "pw1.json"
    p.write_text(json.dumps(pw_space(1.0).to_json()))
    return str(p)


def test_parse_complex_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("1.5-2i") == 1.5 - 2j
    assert parse_complex("3") == 3.0
    assert parse_complex("-2.5e-1j") == -0.25j
    assert parse_complex("i") == 1j


def test_eval_const(cli):
    rc, out, _ = cli(["eval", "--f", '{"kind":"const","value":[1,0]}',
                          "--z", "5+0i"])
    doc = json.loads(out)
    assert rc == 0
    assert doc["result"]["value"] == [1.0, 0.0]
    assert doc["config"]["z"] == "5+0i"  # config echoed for provenance


def test_nabla_closed_form(cli, pw1_file):
    rc, out, _ = cli(["nabla", "--space", pw1_file, "--z", "0+1i"])
    assert rc == 0
    got = json.loads(out)["result"]["value"]
    assert abs(got - math.sqrt(math.sinh(2) / (2 * math.pi))) < 1e-12


def test_phase_and_member(cli, pw1_file):
    rc, out, _ = cli(["phase", "--space", pw1_file, "--t", "0.3"])
    assert rc == 0 and abs(json.loads(out)["result"]["value"] - 1.0) < 1e-9
    sinc = {"kind": "product", "children": [
        {"kind": "const", "value": [1.0 / math.pi, 0.0]}, {"kind": "sinc"}]}
    rc, out, _ = cli(["member", "--space", pw1_file, "--f", json.dumps(sinc)])
    assert rc == 0 and json.loads(out)["result"]["verdict"] == "in"


def test_config_on_stdin(cli):
    cfg = json.dumps({"f": {"kind": "exp", "coeff": [0, -1]}, "z": "0+1i"})
    rc, out, _ = cli(["eval", "--config", "-"], stdin=cfg)
    assert rc == 0
    val = json.loads(out)["result"]["value"]
    assert abs(complex(*val) - math.e) < 1e-12


def test_exit_codes():
    # through the entry point: the exit code of main is the process's
    rc, out, _ = run_cli(["eval", "--f", '{"kind":"nope"}', "--z", "0"])
    assert rc == 2 and json.loads(out)["error"]["kind"] == "config-error"
    rc, out, _ = run_cli(["eval", "--f",
                          '{"kind":"quotient","num":{"kind":"const","value":[1,0]},'
                          '"den":{"kind":"z"}}', "--z", "0"])
    assert rc == 1 and json.loads(out)["error"]["kind"] == "pole-hit"


def test_verify_subcommand_exit_status(cli):
    rc, out, _ = cli(["verify", "A12"])
    assert rc == 0 and json.loads(out)["result"]["ok"]


def test_example_build_writes_artifact(cli, tmp_path):
    target = tmp_path / "pw.json"
    rc, out, _ = cli(["example", "pw", "--a", "1", "--out", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["id"] == "pw" and len(doc["members"]) == 5


def test_example_list(cli):
    rc, out, _ = cli(["example", "list"])
    assert rc == 0
    assert "a38" in json.loads(out)["result"]["available"]


def test_example_build_token_and_json_alias(cli, tmp_path):
    target = tmp_path / "pw.json"
    rc, out, _ = cli(["example", "build", "pw", "--a", "2",
                          "--json", str(target)])
    assert rc == 0
    assert json.loads(target.read_text())["params"]["a"] == 2.0


def test_built_instance_feeds_space_commands(cli, tmp_path):
    # an example-instance artifact is accepted wherever a space is expected
    target = tmp_path / "pw1.json"
    rc, _, _ = cli(["example", "pw", "--a", "1", "--out", str(target)])
    assert rc == 0
    rc, out, _ = cli(["nabla", "--space", str(target), "--z", "0+1i"])
    assert rc == 0
    got = json.loads(out)["result"]["value"]
    assert abs(got - math.sqrt(math.sinh(2) / (2 * math.pi))) < 1e-12


def test_malformed_space_is_a_config_error(cli):
    rc, out, _ = cli(["nabla", "--space", '{"nope": 1}', "--z", "0+1i"])
    assert rc == 2
    assert json.loads(out)["error"]["kind"] == "config-error"


def test_malformed_complex_flag_is_a_config_error(cli, pw1_file):
    rc, out, _ = cli(["nabla", "--space", pw1_file, "--z", "bogus"])
    assert rc == 2
    assert json.loads(out)["error"]["kind"] == "config-error"


def _without_timestamp(out: str) -> dict:
    doc = json.loads(out)
    doc.pop("timestamp", None)
    return doc


@pytest.mark.parametrize("args", [["eval", "--f", '{"kind":"z"}', "--z", "-1+1i"],
                                  ["eval", "--f", '{"kind":"z"}', "--z", "-2.5e-1-1e-3j"],
                                  ["kernel", "--space", '{"E":{"kind":"exp","coeff":[0,-1]}}',
                                   "--w", "-1+1i", "--z", "-0.5-2i"]])
def test_complex_flag_values_may_start_with_a_minus(capsys, args):
    joined = [f"{a}={b}" for a, b in zip(args[1::2], args[2::2])]
    rc, doc = _main_json(capsys, args)
    assert rc == 0 and "error" not in doc
    assert main(args[:1] + joined) == 0
    doc.pop("timestamp")
    assert _without_timestamp(capsys.readouterr().out) == doc


AFFINE_POLE = ('{"kind":"affine","child":{"kind":"quotient","num":{"kind":"const","value":[1,0]},'
               '"den":{"kind":"poly","coeffs":[[-1,-1],[1,0]]}},"scale":[1,0],"shift":[2,0]}')


@pytest.mark.parametrize("z", [["--z=-1+1i"], ["--z", "-1+1i"]])
def test_pole_hit_under_an_affine_node_names_the_point_passed(capsys, z):
    # the quotient's pole is at 1+1i, which the shift by 2 reaches from -1+1i
    rc, doc = _main_json(capsys, ["eval", "--f", AFFINE_POLE] + z)
    assert rc == 1 and doc["error"]["kind"] == "pole-hit"
    assert doc["error"]["detail"].startswith("z=(-1+1j) within")


def test_majorize_csv(cli, tmp_path, pw1_file):
    target = tmp_path / "ratios.csv"
    cfg = {
        "f": {"kind": "cos"},
        "majorant": {"type": "nabla", "space": json.loads(open(pw1_file).read())},
        "domain": {"kind": "line", "y0": 1.0, "ratio": 1.01, "rmax": 1e4},
    }
    rc, out, _ = cli(["majorize", "--config", "-", "--out", str(target)],
                         stdin=json.dumps(cfg))
    assert rc == 0
    doc = json.loads(out)["result"]
    assert doc["verdict"] == "majorized"
    rows = target.read_text().strip().splitlines()
    assert rows[0] == "z_re,z_im,ratio"
    assert len(rows) > 500


def test_weaktype_flags(cli, tmp_path):
    q = {"kind": "quotient", "num": {"kind": "const", "value": [0, 1]},
         "den": {"kind": "z"}}
    rc, out, _ = cli(["weaktype", "--q", json.dumps(q), "--y0", "1",
                          "--a-grid", "0.5:1.0:0.25"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["measure"][0] == pytest.approx(2 * math.sqrt(3), abs=1e-6)


def test_meantype_subcommand(cli):
    rc, out, _ = cli(["meantype", "--f", '{"kind":"exp","coeff":[0,2]}'])
    assert rc == 0
    assert abs(json.loads(out)["result"]["value"] - (-2.0)) < 1e-6


def test_herglotz_subcommand(cli, tmp_path):
    target = tmp_path / "density.csv"
    q = {"kind": "quotient", "num": {"kind": "const", "value": [0, 1]},
         "den": {"kind": "z"}}
    rc, out, _ = cli(["herglotz", "--q", json.dumps(q), "--out", str(target)])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["p"] == 0.0
    assert abs(res["point-masses"][0][1] - math.pi) < 1e-6
    assert target.read_text().splitlines()[0] == "t,density"


def test_clark_subcommand(cli):
    rc, out, _ = cli(["clark", "--theta", '{"kind":"exp","a":1.0}',
                          "--z", "0.5+0.8i"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["diagonal"] > 0
    assert res["kernel"]["kind"] == "product"
    assert res["checks"]["contraction-margin"] > 0


def test_clark_of_the_ratio_inner_function(cli):
    space = build_a20().spaces["H"].to_json()
    theta = {"kind": "ratio", "space": space}
    rc, out, _ = cli(["clark", "--theta", json.dumps(theta), "--z", "0.5+0.8i"])
    assert rc == 0
    res = json.loads(out)["result"]
    th = InnerFunction.from_spec(theta)
    z = 0.5 + 0.8j
    pts = np.linspace(-3, 3, 20) + 1j * np.linspace(0.1, 2.0, 20)
    got = expr_from_json(res["kernel"]).values(pts)
    assert np.allclose(got, clark_kernel(th, z).values(pts), rtol=1e-13, atol=0)
    expect = (1 - abs(th.at(z)) ** 2) / (4 * math.pi * z.imag)
    assert res["diagonal"] == pytest.approx(expect, rel=1e-15)
    assert res["checks"]["contraction-margin"] > 0


def test_clark_rejects_boundary_anchor(cli):
    rc, out, _ = cli(["clark", "--theta", '{"kind":"exp","a":1.0}',
                          "--z", "0.5"])
    assert rc == 2


def test_a60scan_subcommand(cli, tmp_path):
    target = tmp_path / "scan.csv"
    rc, out, _ = cli(["a60scan", "--theta", '{"kind":"exp","a":1.0}',
                          "--y0", "1", "--c", "10", "--r-grid", "[4,16,64]",
                          "--out", str(target)])
    assert rc == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[0]["ratio"] > 0.5 and rows[-1]["ratio"] == 0.0
    assert len(target.read_text().splitlines()) == 4


def test_admissible_subcommand(cli, pw1_file):
    sinc = {"kind": "product", "children": [
        {"kind": "const", "value": [1.0 / math.pi, 0.0]}, {"kind": "sinc"}]}
    cfg = {
        "space": json.loads(open(pw1_file).read()),
        "majorant": {"type": "nabla", "space": json.loads(open(pw1_file).read())},
        "domain": {"kind": "axis", "ratio": 1.02, "rmax": 1e4},
        "witnesses": [sinc],
    }
    rc, out, _ = cli(["admissible", "--config", "-"], stdin=json.dumps(cfg))
    assert rc == 0
    assert json.loads(out)["result"]["admissible"] is True


def test_eval_derivative_order(cli, pw1_file):
    rc, out, _ = cli(["eval", "--f", '{"kind":"exp","coeff":[0,-1]}',
                          "--z", "0", "--order", "1"])
    assert rc == 0
    val = json.loads(out)["result"]["value"]
    assert abs(complex(*val) - (-1j)) < 1e-10


@pytest.mark.parametrize("order", ["1", "2"])
def test_eval_derivative_around_a_pole_is_radius_too_large(cli, order):
    # the circle about 5e-4 encloses the pole of 1/z at 0: exit 0 with
    # -4.6e-11 +- 9.2e-4 for -4e6 before the ring mean was checked
    rc, out, _ = cli(["eval", "--f", '{"kind":"quotient","num":{"kind":"const",'
                          '"value":[1,0]},"den":{"kind":"z"}}', "--z", "0.0005",
                          "--order", order])
    assert rc == 1
    assert json.loads(out)["error"]["kind"] == "radius-too-large"


def test_output_round_trips_and_is_deterministic(pw1_file):
    args = ["kernel", "--space", pw1_file, "--w", "0.3+0.1i", "--z", "1-0.2i"]
    docs = []
    for _ in range(2):
        rc, out, _ = run_cli(args)
        assert rc == 0
        doc = json.loads(out)
        doc.pop("timestamp")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_main_entrypoint_in_process(capsys):
    rc = main(["defaults"])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["version"] == 1


def _main_json(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return rc, json.loads(captured.out)


_UNIT_MAJORANT = '{"type":"expr","f":{"kind":"const","value":1}}'


def _pw1_with(**fields):
    return json.dumps({**pw_space(1.0).to_json(), **fields})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["derivative", "--z", "1"],      # unknown subcommand
    ["eval", "--z"],                 # missing value
    ["phase", "--route", "bogus"],   # removed flag
    ["phase", "--space", _pw1_with(), "--t", "1", "--route", "kernel"],
    ["weaktype", "--measure", "bogus"],   # invalid choice
    ["admissible", "--majorant", _UNIT_MAJORANT, "--domain", '{"kind":"line","rmax":50}',
     "--space", _pw1_with(), "--witnesses", "[3]"],
    ["meantype", "--f", '{"kind":"z"}', "--rmin", "-1"],
    ["meantype", "--f", '{"kind":"z"}', "--rmin", "0"],
    ["weaktype", "--q", '{"kind":"const","value":[0,1]}', "--a-grid", "0:1:0"],
])
def test_malformed_command_line_is_a_config_error(capsys, args):
    rc = main(args)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert rc == 2 and doc["error"]["kind"] == "config-error" and doc["error"]["detail"]
    assert err == ""


_E_MINUS_I = '{"E":{"kind":"exp","coeff":[0,-1]}'


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, stdin", [
    (["phase", "--config", "-"], '{"space":%s},"t":0.3,"route":"zero-sum"}' % _E_MINUS_I),
    (["nabla", "--config", "-"], '{"space":%s},"z":"1i","bogus":1}' % _E_MINUS_I),
    (["eval", "--f", '{"kind":"z"}', "--z", "1", "--out", "OUT"], None),
    (["defaults", "--config", "-"], '{"bogus":1}'),
], ids=["phase-route", "nabla-bogus", "eval-out", "defaults-bogus"])
def test_an_input_that_no_command_reads_exits_2(cli, tmp_path, args, stdin):
    # each exited 0 with the input dropped: no file, or a key echoed but never read
    rc, out, err = cli([str(tmp_path / "x.csv") if a == "OUT" else a for a in args], stdin)
    detail = json.loads(out)["error"]["detail"]
    assert rc == 2 and json.loads(out)["error"]["kind"] == "config-error" and err == ""
    assert list(tmp_path.iterdir()) == []
    assert ("unknown config keys" if stdin else "unrecognized arguments") in detail


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_a_row_reads_its_flag_names_as_config_keys_and_rejects_every_other(
        cli, tmp_path, monkeypatch, name):
    _, flags, out = COMMANDS[name]
    seen = []

    def spy(cfg):
        seen.append(dict(cfg))
        return {} if out is None else ({}, None)

    monkeypatch.setitem(COMMANDS, name, (spy, flags, out))
    keys = {flag.lstrip("-"): f"value-{i}" for i, flag in enumerate(flags)}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(keys))
    rc, text, _ = cli([name, "--config", str(path)])
    assert rc == 0 and seen == [keys] and json.loads(text)["config"] == keys
    declared = {flag.lstrip("-") for _, row_flags, _ in COMMANDS.values() for flag in row_flags}
    for bad in sorted(declared - set(keys)) + ["no-such-key", "out", "config"]:
        path.write_text(json.dumps({**keys, bad: 1}))
        rc, text, err = cli([name, "--config", str(path)])
        error = json.loads(text)["error"]
        assert rc == 2 and error["kind"] == "config-error" and err == ""
        assert repr(bad) in error["detail"] and f"{name} accepts" in error["detail"]
    assert len(seen) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0 and "usage" in capsys.readouterr().out


def _readme_usage_commands():
    """The arguments of each ``dblab`` command in README's usage block (the
    first fenced block under "## Command line"), continuation lines joined
    and ``#`` comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv for argv in commands if argv]


def test_readme_usage_block_has_its_commands():
    commands = _readme_usage_commands()
    assert len(commands) >= 10 and all(argv[0] == "dblab" for argv in commands)


def test_readme_usage_block_covers_every_subcommand():
    assert {argv[1] for argv in _readme_usage_commands()} == set(COMMANDS)


@pytest.mark.parametrize("argv", _readme_usage_commands())
def test_readme_usage_parses(argv):
    # parsing only: a flag the docs name that the parser lacks is a ConfigError
    build_parser().parse_args(argv[1:])


def test_overflowing_value_is_a_computation_error(capsys):
    rc, doc = _main_json(capsys, ["eval", "--f", '{"kind":"exp","coeff":[1,0]}', "--z", "800"])
    assert rc == 1 and doc["error"]["kind"] == "overflow"


FAR_PRODUCT = ('{"kind":"canonical-product","zeros":{"kind":"list","genus":1,'
               '"zeros":[[2,1],[-3,0.5],[4,0],[0,-7]]}}')


@pytest.mark.parametrize("order", ["1", "2"])
@pytest.mark.parametrize("z", ["2500", "1e5+1i"])
def test_overflowing_ring_derivative_is_silent(capsys, z, order):
    # the ring sums of overflowed values run without numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["eval", "--f", FAR_PRODUCT, f"--z={z}", "--order", order])
    captured = capsys.readouterr()
    assert rc == 1 and json.loads(captured.out)["error"]["kind"] == "overflow"
    assert captured.err == ""


def test_mistyped_expression_field_is_a_config_error(capsys):
    rc, doc = _main_json(capsys, ["eval", "--f", '{"kind":"sum","children":5}'])
    assert rc == 2 and doc["error"]["kind"] == "config-error"


def test_overflowing_kernel_norm_is_a_computation_error(capsys):
    rc, doc = _main_json(capsys, ["nabla", "--space", '{"E":{"kind":"exp","coeff":[0,-1]}}',
                                  "--z", "0+800i"])
    assert rc == 1 and doc["error"]["kind"] == "overflow"


@pytest.mark.filterwarnings("error")
def test_overflowing_kernel_is_a_computation_error(cli):
    rc, out, err = cli(["kernel", "--space", '{"E":{"kind":"exp","coeff":[0,-1]}}',
                            "--w", "0+800i", "--z", "1+800i"])
    assert rc == 1 and json.loads(out)["error"]["kind"] == "overflow"
    assert err == ""


@pytest.mark.filterwarnings("error")
def test_overflowing_majorization_sample_is_a_computation_error(cli):
    # |cos| / |cos| is 1 on the ray, but cosh overflows past y ~ 710
    rc, out, err = cli(["majorize", "--f", '{"kind":"cos"}',
                            "--majorant", '{"type":"expr","f":{"kind":"cos"}}',
                            "--domain", '{"kind":"ray","beta":0.5,"h":1,"rmax":1000}'])
    doc = json.loads(out)
    assert rc == 1 and doc["error"]["kind"] == "overflow"
    assert "+725.36" in doc["error"]["detail"] and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    # probe and p-fit samples overflow, so the linear coefficient was NaN
    ["herglotz", "--q", '{"kind":"exp","coeff":[0,-800]}'],
    # |E(1)| overflows, and K(1, 1)/|E(1)|^2 was NaN
    ["phase", "--space", '{"E":{"kind":"exp","coeff":[800,-1]}}', "--t", "1"],
    # |E(1)| ~ 1e200 is finite but its square is not
    ["phase", "--space", '{"E":{"kind":"exp","coeff":[460,-1]}}', "--t", "1"],
    # the norm integrand overflows
    ["member", "--space", '{"E":{"kind":"exp","coeff":[0,-1]}}',
     "--f", '{"kind":"exp","coeff":[800,0]}'],
    # theta = e^{1000z} e^{-1000z} is inf * 0 on the check grid, whose
    # contraction margin and boundary deviation were NaN
    ["clark", "--theta", '{"inner":{"kind":"product","children":[{"kind":"exp","coeff":[1000,0]},'
     '{"kind":"exp","coeff":[-1000,0]}]}}', "--z", "0.5+0.8i"],
])
def test_non_finite_result_is_an_overflow_with_nothing_on_stderr(cli, args):
    rc, out, err = cli(args)
    assert rc == 1 and json.loads(out)["error"]["kind"] == "overflow"
    assert len(out.splitlines()) == 1 and err == ""


def _over_poly(coeffs):
    return json.dumps({"kind": "quotient", "num": {"kind": "const", "value": [1, 0]},
                       "den": {"kind": "poly", "coeffs": coeffs}})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coeffs, z, rc, expect", [
    # the root -1e320 is past double range: it is dropped, and -1 is kept
    ([[1, 0], [1e-320, 0]], "1+1i", 0, [1.0, -1e-320]),
    ([[1, 0], [1, 0], [1e-320, 0]], "1+1i", 0, [0.4, -0.2]),
    ([[1, 0], [1, 0], [1e-320, 0]], "-1", 1, "pole-hit"),
])
def test_a_subnormal_leading_coefficient_keeps_the_finite_roots(cli, coeffs, z, rc, expect):
    code, out, err = cli(["eval", "--f", _over_poly(coeffs), "--z", z])
    doc = json.loads(out)
    assert code == rc and err == ""
    if rc:
        assert doc["error"]["kind"] == expect
    else:
        assert np.allclose(doc["result"]["value"], expect, rtol=1e-15, atol=0.0)


def _one_zero_space(zero):
    return json.dumps({"E": {"kind": "poly", "coeffs": [[1, 0], [-1, 0]]},
                       "zeros": {"kind": "list", "genus": 0, "zeros": [zero]}})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zero, kind", [([1, 0], "zero-of-E-on-axis"),
                                        ([1, -5e-324], "overflow")])
def test_zero_sum_phase_at_a_zero_is_a_computation_error(capsys, zero, kind):
    # a real zero at t is 0/0; a subnormal height gives 1/5e-324, past double range
    rc, doc = _main_json(capsys, ["phase", "--space", _one_zero_space(zero), "--t", "1"])
    assert rc == 1 and doc["error"]["kind"] == kind


@pytest.mark.filterwarnings("error")
def test_zero_sum_phase_next_to_a_zero_does_not_underflow(capsys):
    # |t - z|^2 = 1e-400 underflows; (|y|/|t - z|)/|t - z| is 1e200
    rc, doc = _main_json(capsys, ["phase", "--space", _one_zero_space([1, -1e-200]),
                                  "--t", "1"])
    assert rc == 0 and math.isclose(doc["result"]["value"], 1e200, rel_tol=1e-12)


def test_phase_on_a45_truncation_takes_the_zero_sum(capsys, tmp_path):
    # |E| underflows at t = 3, where the kernel formula gave a false zero-of-E-on-axis
    zeros = {"kind": "list", "genus": 0,
             "zeros": [[z.real, z.imag] for z in a45_truncated_space(5002).zeros.zeros]}
    path = tmp_path / "a45.json"
    path.write_text(json.dumps({"E": {"kind": "canonical-product", "zeros": zeros},
                                "zeros": zeros}))
    rc, doc = _main_json(capsys, ["phase", "--space", str(path), "--t", "3"])
    assert rc == 0 and doc["result"]["route"] == "zero-sum"
    assert math.isclose(doc["result"]["value"], 120.87, rel_tol=1e-4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    ["phase", "--space", '{"E":{"kind":"poly","coeffs":[[1,0],[-1,0]]}}', "--t", "nan"],
    ["phase", "--space", _one_zero_space([0, -1]), "--t", "nan"],
    ["phase", "--space", _one_zero_space([0, -1]), "--t", "1e400"],
    ["eval", "--f", '{"kind":"z"}', "--z", "nan"],
    ["eval", "--f", '{"kind":"z"}', "--z", "1+1e400i"],
    *(["eval", "--f", spec, "--z", "0.5"] for spec in (
        '{"kind":"power","child":{"kind":"z"},"exponent":1e400}',
        '{"kind":"power","child":{"kind":"z"},"exponent":true}',
        '{"kind":"const","value":[NaN,0]}',
        '{"kind":"const","value":[1,true]}',
        '{"kind":"exp","coeff":[0,1e400]}',
        '{"kind":"poly","coeffs":[1e400]}',
        '{"kind":"affine","child":{"kind":"z"},"scale":[1e400,0]}',
        '{"kind":"canonical-product","zeros":{"kind":"list","zeros":[[1e400,0]]}}',
        '{"kind":"partial-fractions","poles":{"kind":"list","poles":[1e400],"weights":[1]}}',
        '{"kind":"partial-fractions","poles":{"kind":"list","poles":[2],"weights":[NaN]}}',
        '{"kind":"partial-fractions","poles":{"kind":"list","poles":[true],"weights":[1]}}',
        '{"kind":"canonical-product","zeros":{"kind":"named","name":"a38_g","params":{"n":1e400}}}',
        '{"kind":"partial-fractions","poles":{"kind":"named","name":"a41",'
        '"params":{"alpha":NaN,"n":10}}}')),
    *(["majorize", "--f", '{"kind":"sinc"}', "--majorant", _UNIT_MAJORANT, "--domain", spec]
      for spec in ('{"kind":"line","ratio":NaN,"rmax":50}', '{"kind":"line","rmax":1e400}',
                   '{"kind":"ray","beta":true,"rmax":50}', '{"kind":"line","h":NaN,"rmax":50}',
                   '{"kind":"hray","y0":NaN,"rmax":50}', '{"kind":"union","parts":[]}')),
    *(["phase", "--space", _pw1_with(**{key: value}), "--t", "1"]
      for key, value in (("declared-exp-type", math.nan), ("declared-order", True))),
    *(["clark", "--theta", spec] for spec in (
        '{"kind":"exp","a":NaN}',
        json.dumps({"kind": "ratio", "space": json.loads(_pw1_with()), "alpha": math.inf}),
        '{"kind":"blaschke","zeros":[[0,NaN]]}')),
    *(["majorize", "--f", '{"kind":"sinc"}', "--domain", '{"kind":"line","rmax":50}',
       "--majorant", '{"type":"expr","f":{"kind":"const","value":1},"zero-divisor":[%s]}' % zd]
      for zd in ("[NaN,1]", "[0,Infinity]", "[0,1.5]")),
    ["weaktype", "--q", '{"kind":"const","value":[0,1]}', "--a-grid", "[0.5,Infinity]"],
    ["a60scan", "--theta", '{"kind":"exp","a":1}', "--r-grid", "[4,NaN]"],
    ["example", "pw(nan)"],
    ["example", "pw(x)"],
])
def test_non_finite_numeric_input_is_a_config_error(capsys, args):
    rc = main(args)
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert rc == 2 and doc["error"]["kind"] == "config-error" and err == ""
    assert ("must be finite and not boolean" in doc["error"]["detail"]
            or doc["error"]["detail"] == "a union needs at least one part")


def _zero_divisor_majorize(order):
    return ["majorize", "--f", '{"kind":"sinc"}', "--domain", '{"kind":"line","rmax":50}',
            "--majorant", '{"type":"expr","f":{"kind":"const","value":1},'
                          '"zero-divisor":[[0,%s]]}' % order]


@pytest.mark.parametrize("stdin, args, rc", [
    ('{"f":{"kind":"sin"},"z":"1","order":1.7}', ["eval", "--config", "-"], 2),
    ('{"f":{"kind":"sin"},"z":"1","order":2}', ["eval", "--config", "-"], 0),
    ('{"f":{"kind":"sin"},"z":"1","order":2.0}', ["eval", "--config", "-"], 0),
    ("", _zero_divisor_majorize("2.0"), 0),
], ids=["order-1.7", "order-2", "order-2.0", "zero-divisor-2.0"])
def test_an_integer_field_rejects_a_non_integral_number(capsys, monkeypatch, stdin, args, rc):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(args) == rc
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert err == ""
    if rc == 2:
        assert doc["error"]["kind"] == "config-error" and "whole number" in doc["error"]["detail"]
    else:
        assert "error" not in doc


def _shipped_specs():
    """(command line with ``None`` for the spec, spec) for the pw1 and a20
    spaces, each domain kind, each inner-function kind and each majorant
    type."""
    pw1, a20 = pw_space(1.0).to_json(), build_a20().spaces["H"].to_json()
    sinc = {"kind": "sinc"}
    line = {"kind": "line", "y0": 1.0, "rmax": 20.0}
    hray = {"kind": "hray", "y0": 1.0, "h": 2.0, "ratio": 1.5, "rmax": 20.0}
    domains = [{"kind": "ray", "beta": 0.5, "h": 1.0, "rmax": 20.0}, line,
               {"kind": "axis", "ratio": 1.1, "rmax": 20.0}, hray,
               {"kind": "union", "parts": [line, hray]}]
    inners = [{"kind": "exp", "a": 1.0}, {"kind": "blaschke", "zeros": [[0.0, 1.0], [1, 2]]},
              {"kind": "ratio", "space": pw1, "alpha": 0.5},
              {"kind": "expr", "inner": {"kind": "exp", "coeff": [0.0, 1.0]}}]
    majorants = [{"type": "expr", "f": {"kind": "const", "value": 1}, "zero-divisor": [[0, 1]]},
                 {"type": "mS", "S": sinc, "zero-divisor": [[3.0, 1], [-3.0, 2]]},
                 {"type": "nabla", "space": pw1}]
    majorize = ["majorize", "--f", json.dumps(sinc)]
    return ([(["phase", "--space", None, "--t", "1"], sp) for sp in (pw1, a20)]
            + [(majorize + ["--majorant", _UNIT_MAJORANT, "--domain", None], d) for d in domains]
            + [(["clark", "--theta", None], th) for th in inners]
            + [(majorize + ["--domain", json.dumps(line), "--majorant", None], m)
               for m in majorants])


def _numeric_leaves(spec, path=()):
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        yield path
    elif isinstance(spec, (dict, list)):
        for k, v in (spec.items() if isinstance(spec, dict) else enumerate(spec)):
            yield from _numeric_leaves(v, path + (k,))


def _with_leaf(spec, path, marker):
    if not path:
        return marker
    out = dict(spec) if isinstance(spec, dict) else list(spec)
    out[path[0]] = _with_leaf(spec[path[0]], path[1:], marker)
    return out


_SPECS = _shipped_specs()


@pytest.mark.filterwarnings("error")
@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(_SPECS), pick=st.integers(0, 10**6),
       bad=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "true"]))
def test_one_bad_number_anywhere_in_a_shipped_spec_is_a_config_error(case, pick, bad):
    args, spec = case
    leaves = list(_numeric_leaves(spec))
    text = json.dumps(_with_leaf(spec, leaves[pick % len(leaves)], "@BAD@"))
    args = [text.replace('"@BAD@"', bad) if a is None else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(args)
    lines = out.getvalue().splitlines()
    assert rc == 2 and err.getvalue() == "" and len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "config-error"


def test_jsonable_flags_non_finite_floats_and_complex_parts():
    assert _jsonable(float("nan")) == "nan"
    assert _jsonable(-math.inf) == "-inf"
    assert _jsonable(complex(math.inf, 0.0)) == ["inf", 0.0]
    assert _jsonable(complex(0.5, -2.0)) == [0.5, -2.0]
    assert json.dumps(_jsonable({"v": complex(math.nan, math.inf)}), allow_nan=False)


def test_jsonable_flags_non_finite_numpy_scalars():
    doc = {"a": np.float64("nan"), "b": np.float32(-np.inf), "c": [np.float64(np.inf)],
           "d": np.float64(0.25), "e": np.int64(3)}
    text = json.dumps(_jsonable(doc), allow_nan=False)
    assert json.loads(text) == {"a": "nan", "b": "-inf", "c": ["inf"], "d": 0.25, "e": 3}


def test_herglotz_finds_a_mass_without_importing_scipy():
    q = {"kind": "quotient", "num": {"kind": "const", "value": [0, 1]},
         "den": {"kind": "z"}}
    code = ("import json, sys; from dblab.cli import main; "
            "rc = main(['herglotz', '--q', sys.argv[1]]); "
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(q)],
                       capture_output=True, text=True, check=True)
    result, last = r.stdout.strip().splitlines()
    assert len(json.loads(result)["result"]["point-masses"]) == 1
    assert json.loads(last) == [0, []]


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(Path(dblab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


SIN_OVER_Z = '{"kind":"quotient","num":{"kind":"sin"},"den":{"kind":"z"}}'


@pytest.mark.parametrize("z", ["-5e-324-5e-324i", "1e-310+1e-310i"])
def test_a_subnormal_divisor_is_not_an_overflow(capsys, z):
    # numpy's complex division overflows on a subnormal divisor; sin z / z is 1 there
    rc, doc = _main_json(capsys, ["eval", "--f", SIN_OVER_Z, f"--z={z}"])
    assert rc == 0 and doc["result"]["value"] == [1.0, 0.0]


@pytest.mark.parametrize("calls", [
    [["eval", "--f", SIN_OVER_Z, "--z", "0.5+1i", "--order", "2"],
     ["eval", "--f", SIN_OVER_Z, "--z", "0.5+1i"]],
    [["example", "pw", "--a", "2", "--json", "DIR/a.json"],
     ["example", "pw", "--out", "DIR/b.json"]],
    [["eval", "--f", '{"kind":"cos"}', "--z", "1"],
     ["eval", "--f", '{"kind":"cos"}', "--order", "two"],
     ["eval", "--f", '{"kind":"cos"}', "--z", "2i"]],
    [["verify", "A12"], ["verify"]],
], ids=["eval-order", "example-json-out", "config-error", "verify"])
def test_consecutive_calls_on_one_parser_print_what_a_fresh_process_prints(capsys, tmp_path,
                                                                           calls):
    parser = build_parser()
    for args in calls:
        outs = []
        for where in ("reused", "fresh"):
            d = tmp_path / where
            d.mkdir(exist_ok=True)
            argv = [a.replace("DIR", str(d)) for a in args]
            if where == "reused":
                rc = main(argv)
                out = capsys.readouterr().out
            else:
                rc, out, _ = run_cli(argv)
            outs.append((rc, _without_timestamp(out),
                         {p.name: p.read_text() for p in sorted(d.iterdir())}))
        assert outs[0] == outs[1]
    assert build_parser() is parser
