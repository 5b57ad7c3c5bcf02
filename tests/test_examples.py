import hashlib
import json
import math

import numpy as np
import pytest

from dblab.errors import ConfigError, UnknownInstance
from dblab.examples import (A46_CONSTANT, LOG2, a38_constant, a38_g_closed,
                            a38_g_sequence, a38_gtilde_sequence, a41_pole_sequence,
                            a45_zero_sequence, build_a20, build_a38, build_a41,
                            build_a45, build_example, build_pw)
from dblab.expressions import expr_from_json, expr_to_json
from dblab.space import hb_check, kernel, membership, phase_derivative


# ---------------------------------------------------------------------------
# Paley-Wiener family
# ---------------------------------------------------------------------------

def test_pw_kernel_and_phase():
    inst = build_pw(1.0)
    sp = inst.spaces["H"]
    assert abs(kernel(sp, 0.0, 0.0) - 1.0 / math.pi) < 1e-12
    assert abs(phase_derivative(sp, 0.3) - 1.0) < 1e-10


def test_pw_ships_five_members_with_closed_norms():
    inst = build_pw(1.0)
    assert len(inst.members) == 5
    norms = inst.extras["member_norms2"]
    assert abs(norms[0] - 1.0 / math.pi) < 1e-14
    # ||k0 + k_pi||^2 = 2/pi: the integer-shift kernels are orthogonal
    assert abs(norms[3] - 2.0 / math.pi) < 1e-12


def test_pw2_membership_of_halved_kernel():
    inst = build_pw(2.0)
    label, f, key = inst.members[0]
    assert membership(inst.spaces[key], f).verdict == "in"


def test_pw_claims_table():
    inst = build_pw(1.0)
    rows = inst.check_claims()
    assert all(r["ok"] for r in rows), rows


def test_pw_alias_with_parameter():
    inst = build_example("pw(2)")
    assert inst.params["a"] == 2.0


def test_unknown_example_rejected():
    with pytest.raises(UnknownInstance):
        build_example("a99")


# ---------------------------------------------------------------------------
# the codimension-one extension of PW_1
# ---------------------------------------------------------------------------

def test_a20_structure_function_is_hb():
    inst = build_a20()
    ok, margin = hb_check(inst.spaces["H"])
    assert ok and margin > 0


def test_a20_cos_lives_in_big_space_only():
    inst = build_a20()
    assert membership(inst.spaces["H"], inst.extras["A"]).verdict == "in"
    assert membership(inst.spaces["L"], inst.extras["A"]).verdict == "out"


def test_a20_claims_table():
    rows = build_a20().check_claims()
    assert all(r["ok"] for r in rows), rows


def _member_rows():
    """(example, label, f, space key, closed-form norm squared) for every
    shipped member of the pw and a20 tables.  PW_1 sits isometrically in
    the a20 space, so ``sin z/(pi z)`` has norm squared 1/pi in H and in L,
    and ``||cos||^2 = pi`` there."""
    pw, a20 = build_pw(1.0), build_a20()
    a20_norms2 = {"sin z/(pi z)": 1.0 / math.pi, "cos z": math.pi}
    rows = [(pw, label, f, key, ref)
            for (label, f, key), ref in zip(pw.members, pw.extras["member_norms2"])]
    rows += [(a20, label, f, key, a20_norms2[label]) for label, f, key in a20.members]
    return [pytest.param(*row, id=f"{row[0].id} {row[1]} in {row[3]}") for row in rows]


@pytest.mark.parametrize("inst, label, f, key, ref", _member_rows())
def test_member_norm_error_covers_the_closed_form(inst, label, f, key, ref):
    diag = membership(inst.spaces[key], f).diagnostics
    assert abs(diag["norm_squared"] - ref) <= diag["norm_error"], diag


def test_a20_modulus_decomposition(rng):
    # |E(t)|^2 = A(t)^2 + B(t)^2 on the real axis
    inst = build_a20()
    t = rng.uniform(-30, 30, 100)
    e = inst.spaces["H"].e.values(t + 0j)
    a = inst.extras["A"].values(t + 0j).real
    b = inst.extras["B"].values(t + 0j).real
    assert np.allclose(np.abs(e) ** 2, a * a + b * b, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# order-1/2 canonical products
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a38():
    return build_a38(100_000)


def test_a38_products_normalized_at_zero(a38):
    assert a38.extras["G"].at(0.0) == 1.0
    assert a38.extras["Gtilde"].at(0.0) == 1.0


def test_a38_closed_form_check(a38):
    x = 7.3
    got = a38.extras["G"].at(x * x)
    expect = complex(a38_g_closed(x * x))
    assert abs(got - expect) / abs(expect) < 1e-6


@pytest.mark.parametrize("n", [1, 5, 1_000_000])
def test_a38_zero_sets_have_the_bits_of_their_formulas(n):
    k = np.arange(1, n + 1, dtype=float)
    for seq, zeros in ((a38_g_sequence(n), k * k - 1j), (a38_gtilde_sequence(n), k * k - 1j * k)):
        assert seq.zeros.dtype == zeros.dtype and seq.zeros.tobytes() == zeros.tobytes()


def test_a38_constant_is_truncation_independent():
    assert abs(a38_constant(2000) - a38_constant(100_000)) < 1e-12


def _hex(c):
    return complex(c).real.hex(), complex(c).imag.hex()


def test_a38_zeta_series_keep_their_bits():
    # the bits the sums, zeros and tail bounds had when each series had its
    # own loop and each sequence its own builder
    g, gtilde = a38_g_sequence(1000), a38_gtilde_sequence(1000)
    assert _hex(g.tail_inv_sum) == ("0x1.0603521cdaeccp-10", "0x1.6df4593c1bd0bp-32")
    assert _hex(gtilde.tail_inv_sum) == ("0x1.06034c6509fadp-10", "0x1.0c2ac1e03e645p-21")
    assert _hex(a38_constant(1000)) == ("0x1.b6cc80dbc3d2ep-3", "-0x1.74de956276b18p+0")
    assert _hex(a38_constant()) == ("0x1.b6cc80dbc3d3ap-3", "-0x1.74de956276b18p+0")
    assert (hashlib.sha256(g.zeros.tobytes()).hexdigest()
            == "7b8ba82f171bdfa48ca89f1406fa4e327d72d6d70259f9d94346ef8c1c2b16e7")
    assert (hashlib.sha256(gtilde.zeros.tobytes()).hexdigest()
            == "302a7861c2ae9bfc13f60a929b82cfe98a57ee33fda9bba4de0c6a3f23b98188")
    r = [0.0, 1.0, 1e5, 3e5, 1e7]
    bound = ["0x0.0p+0", "0x1.6df4593c1c7cdp-32", "0x1.aa06ef96b3b0bp+1",
             "0x1.df47cd898a26cp+4", "0x1.a034bd70a3422p+15"]
    for seq, name in ((g, "a38_g"), (gtilde, "a38_gtilde")):
        assert [float(x).hex() for x in seq.tail_bound_at(r)] == bound
        assert seq.label == name and seq.genus == 0
        assert seq.spec == {"kind": "named", "name": name, "params": {"n": 1000}}


def test_a38_gtilde_decay_window(a38):
    xs = np.geomspace(2.0, 50.0, 80)
    vals = np.abs(a38.extras["Gtilde"].values(xs * xs))
    prod = xs * vals
    assert prod.max() / prod.min() < 10.0


def test_a38_gtilde_slope(a38):
    xs = np.geomspace(5.0, 50.0, 120)
    vals = np.abs(a38.extras["Gtilde"].values(xs * xs))
    lx, ly = np.log(xs), np.log(vals)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean()))
                  / np.sum((lx - lx.mean()) ** 2))
    assert abs(slope - (-1.0)) < 0.1


def test_a38_envelope_brackets_gtilde(a38):
    xs = np.geomspace(2.0, 50.0, 50)
    vals = np.abs(a38.extras["Gtilde"].values(xs * xs))
    env = a38.extras["gtilde_x2_envelope"](xs)
    ratio = vals / env
    assert ratio.max() / ratio.min() < 10.0


def test_a38_truncation_floor():
    with pytest.raises(ConfigError):
        build_a38(100)


# ---------------------------------------------------------------------------
# Herglotz series with power poles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a41():
    return build_a41(2.0, 1.0, 100_000)


def test_a41_mass_sums_converge_to_basel(a41):
    sums = a41.extras["mass_partial_sums"]
    assert np.all(np.diff(sums) > 0)
    assert abs(sums[-1] - a41.extras["mass_limit"]) < 1e-4


def test_a41_imaginary_part_lower_bound(a41):
    xs = np.geomspace(1.0, 1e3, 120)
    vals = a41.extras["im_q"](xs)
    assert vals.min() > 0.1


def test_a41_mobius_identity(a41):
    # Im q = (1 - |Theta|^2) / |1 + Theta|^2, sampled between the poles
    k = np.unique(np.geomspace(1, 90, 50).astype(int))
    xs = (k ** 2 + (k + 1) ** 2) / 2.0
    z = xs + 1j
    qv = a41.extras["q"].values(z)
    tv = a41.extras["theta"].values(z)
    lhs = qv.imag
    rhs = (1.0 - np.abs(tv) ** 2) / np.abs(1.0 + tv) ** 2
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_a41_requires_alpha_above_one():
    with pytest.raises(ConfigError):
        a41_pole_sequence(1.0, 1000)


# ---------------------------------------------------------------------------
# fast-growing phase derivative
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def a45():
    return build_a45(100_000)


def test_a45_series_term_oracle():
    # the n = 2 term at x = log 2 equals 2 log(2)^2 exactly
    zs = a45_zero_sequence(2).zeros
    term = np.sum(np.abs(zs.imag) / np.abs(LOG2 - zs) ** 2)
    near = abs(zs.imag[0]) / abs(LOG2 - zs[0]) ** 2
    assert abs(near - 2.0 * LOG2 ** 2) < 1e-12
    assert term > near  # the mirrored zero adds a little more


def test_a45_lower_bound_inside_truncation_window(a45):
    n = a45.params["n"]
    xs = np.geomspace(LOG2, math.log(n) - 0.1, 50)
    phi = a45.extras["phi"](xs)
    bound = a45.extras["lower_bound"](xs)
    assert np.all(phi >= bound)


def test_a45_truncation_monotone():
    small, big = build_a45(10_000), build_a45(100_000)
    xs = np.geomspace(LOG2, 9.0, 20)
    assert np.all(small.extras["phi"](xs) <= big.extras["phi"](xs))


def test_a46_constant_value():
    assert abs(A46_CONSTANT - 1.0 / (1.0 + 1.0 / math.log(2) ** 4)) < 1e-15


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_instance_serializes_and_members_reload():
    inst = build_pw(1.0)
    doc = json.loads(json.dumps(inst.to_json()))
    f = expr_from_json(doc["members"][0]["f"])
    assert abs(f.at(0.3) - inst.members[0][1].at(0.3)) < 1e-14


def test_named_sequences_reload_through_expr_json(a38):
    g = a38.extras["G"]
    g2 = expr_from_json(json.loads(json.dumps(expr_to_json(g))))
    assert g2.at(4.0) == g.at(4.0)
