import subprocess
import sys

import pytest

from dblab import space, theorems
from dblab.errors import UnknownInstance
from dblab.theorems import TABLE, verify_all, verify_theorem


def test_vertical_ray_representation():
    rep = verify_theorem("A12", "a20")
    assert rep.ok
    verdicts = {w.label: w.verdict for w in rep.witnesses}
    assert verdicts["sin z/(pi z)"] == "majorized"
    assert verdicts["cos z"] == "not-majorized"


def test_line_representation_and_its_kernel_norm_gap():
    assert verify_theorem("A18", "a20").ok
    gap = verify_theorem("A18-nabla", "a20")
    assert gap.ok
    # the kernel-norm majorant keeps cos z: strict inclusion on the line
    assert {w.verdict for w in gap.witnesses} == {"majorized"}


def test_axis_union_and_slanted_instances():
    for tid in ("A10", "A13", "A15", "A37", "A48", "A54"):
        assert verify_theorem(tid).ok, tid


def test_sweep_is_green():
    reports = verify_all()
    assert len(reports) == 9
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("instance, checked", [("a20", []), ("poly", ["poly1"])])
def test_verify_checks_only_the_space_its_majorant_uses(monkeypatch, instance, checked):
    calls = []
    real = space.hb_check

    def counting(sp):
        calls.append(sp.label)
        return real(sp)

    # whichever module holds a binding of hb_check
    monkeypatch.setattr(space, "hb_check", counting)
    monkeypatch.setattr(theorems, "hb_check", counting, raising=False)
    assert verify_theorem("A12", instance).ok
    assert calls == checked


def test_unknown_ids_rejected():
    with pytest.raises(UnknownInstance):
        verify_theorem("A99")
    with pytest.raises(UnknownInstance):
        verify_theorem("A12", "nope")


def test_report_serializes():
    doc = verify_theorem("A48").to_json()
    assert doc["ok"] and doc["witnesses"][0]["expected"] == "majorized"


@pytest.mark.parametrize("theorem, instance", list(TABLE))
def test_every_table_entry_is_green(theorem, instance):
    rep = verify_theorem(theorem, instance)
    assert rep.ok and (rep.theorem, rep.instance) == (theorem, instance)


def test_import_loads_neither_scipy_nor_a_thread_pool():
    code = ("import sys, dblab; "
            "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
