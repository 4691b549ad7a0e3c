import gc
import weakref

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from fistab import bounds, fi_core


# closed forms pinned to known values -----------------------------------------


def test_congruence_bounds_application_values():
    assert bounds.congruence_bounds(0, 1) == {
        "delta_le": 2, "hmax_le": 8, "t0_le": 11, "t1_le": 20}


def test_config_bounds_surface_values():
    out = bounds.config_bounds(2, False, 1)
    assert (out["delta_le"], out["hmax_le"], out["t0_le"], out["t1_le"]) \
        == (2, 6, 9, 16)


def test_config_two_vector_fields():
    out = bounds.config_bounds(3, True, 2, two_vector_fields=True)
    assert out == {"delta_le": 2, "hmax_le": 0, "t0_le": 3, "t1_le": 4}


def test_local_cohomology_pinned():
    assert bounds.local_cohomology_bounds(0, 1, 0) == [0, -1, -2]
    assert bounds.local_cohomology_bounds(2, 3, 2) == [4, 3, 2, 0]


def test_star_bounds_roundtrip():
    fwd = bounds.star_bounds(2, 3)
    assert fwd == {"delta_le": 2, "hmax_le": 4}
    back = bounds.star_bounds_from_delta_hmax(2, 4)
    assert back == {"t0_le": 7, "t1_le": 12}


def test_kercoker():
    out = bounds.kercoker_bounds(2, 1, 3, 0)
    assert out == {"ker_delta_le": 2, "ker_hmax_le": 2,
                   "coker_delta_le": 3, "coker_hmax_le": 2}


# growth bounds: closed form vs its own recursion ------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 12))
def test_typeB_growth_matches_step_recursion(a, b, k):
    def t(j):
        return a * j + b

    h = 0
    for j in range(k + 1):
        h = bounds.typeB_step(t(j), t(j + 1), h)
    out = bounds.typeB_growth(a, b, k)
    assert out["hmax_le"] == h
    assert out["delta_le"] == t(k)
    assert out["t0_le"] == max(t(k), t(k) + h + 1)
    assert out["t1_le"] == max(t(k), t(k) + 2 * h + 2)


def test_typeB_growth_symbolic():
    a, b, k = sympy.symbols("a b k", nonnegative=True)
    # summed recursion, assuming the degrees increase with weight
    h = sympy.summation((a * (j := sympy.Symbol("j")) + b)
                        + (a * (j + 1) + b), (j, 0, k))
    closed = a * k ** 2 + 2 * (a + b) * k + a + 2 * b
    assert sympy.simplify(h - closed) == 0


def test_congruence_is_growth_slope_two():
    for d in range(6):
        for k in range(21):
            g = bounds.typeB_growth(2, d, k)
            c = bounds.congruence_bounds(d, k)
            assert c == g


def test_config_orientable_matches_semiinduced_dim2():
    for dim in (2, 3, 4):
        mu = 2 if dim == 2 else 1
        for k in range(6):
            assert bounds.config_bounds(dim, True, k) \
                == bounds.typeA_semiinduced(mu, 2, k)


def test_typeA_propagate_needs_enough_inputs():
    import pytest
    with pytest.raises(ValueError):
        bounds.typeA_propagate(2, [1], [1], 3)
    out = bounds.typeA_propagate(2, [1] * 10, [0] * 10, 1)
    assert out["delta_le"] == 1
    assert out["hmax_le"] >= 0


# audit harness ---------------------------------------------------------------


def test_audit_small_run_clean():
    rep = bounds.audit(7, n_presented=12, n_sums=4, n_maps=4,
                       n_complexes=4, N=6)
    assert rep.instances > 0
    assert rep.checks > 0
    assert rep.ok(), rep.violations


def test_audit_deterministic():
    a = bounds.audit(3, n_presented=6, n_sums=2, n_maps=2, n_complexes=2, N=5)
    b = bounds.audit(3, n_presented=6, n_sums=2, n_maps=2, n_complexes=2, N=5)
    assert (a.instances, a.checks, a.skipped_uncertified, a.violations) \
        == (b.instances, b.checks, b.skipped_uncertified, b.violations)


# induced windows shared within one audit call ----------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """The maps that random_induced_map hands out and weak references to
    the windows that induced_module builds, while the fixture is in use."""
    out = {"maps": [], "windows": []}
    draw, induce = fi_core.random_induced_map, fi_core.induced_module

    def record_map(*args):
        out["maps"].append(draw(*args))
        return out["maps"][-1]

    def record_window(*args):
        M = induce(*args)
        out["windows"].append(weakref.ref(M))
        return M

    monkeypatch.setattr(fi_core, "random_induced_map", record_map)
    monkeypatch.setattr(fi_core, "induced_module", record_window)
    return out


def _content(M):
    return (M.p, M.N, tuple(M.dims),
            tuple(A.tobytes() for mats in M.act for A in mats),
            tuple(P.tobytes() for P in M.phi[1:]))


def test_audit_shares_windows_with_the_same_key(recorded):
    bounds.audit(2025, n_presented=0, n_sums=0, n_maps=15, n_complexes=0,
                 N=6)
    maps = recorded["maps"]
    assert len(maps) == 15
    for side in ("source", "target"):
        by_content: dict = {}
        for f in maps:
            M = getattr(f, side)
            assert by_content.setdefault(_content(M), M) is M
    # 15 maps of 2 distinct sources and 6 distinct targets
    assert len({id(f.source) for f in maps}) == 2
    assert len({id(f.target) for f in maps}) == 6
    assert len(recorded["windows"]) == 8


def test_audit_drops_its_windows_when_it_returns(recorded):
    bounds.audit(7, n_presented=6, n_sums=2, n_maps=4, n_complexes=4, N=5)
    recorded["maps"].clear()
    gc.collect()
    assert recorded["windows"]
    assert all(ref() is None for ref in recorded["windows"])


# (instances, checks, skipped) per family at N = 6, as pinned by the fi_audit
# benchmark workload for seeds 2025 and 7
AUDIT_FAMILIES = {"presented": (60, 0, 0, 0), "derivatives": (0, 15, 0, 0),
                  "maps": (0, 0, 15, 0), "complexes": (0, 0, 0, 15)}
AUDIT_PINNED = {
    2025: {"presented": (74, 448, 0), "derivatives": (15, 15, 0),
           "maps": (15, 51, 6), "complexes": (15, 60, 0)},
    7: {"presented": (74, 448, 0), "derivatives": (15, 15, 0),
        "maps": (15, 47, 7), "complexes": (15, 58, 1)},
}


@pytest.mark.parametrize("seed", sorted(AUDIT_PINNED))
def test_audit_family_counts_pinned(seed):
    for family, sizes in AUDIT_FAMILIES.items():
        rep = bounds.audit(seed, *sizes, N=6)
        assert rep.ok(), rep.violations
        assert (rep.instances, rep.checks, rep.skipped_uncertified) \
            == AUDIT_PINNED[seed][family], family
