"""Hamiltonian construction, labeled eigensystem and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snspin.params import (
    MU_B_HZ_PER_T, MagneticField, ManifoldParams, ground_defaults, reference_field,
)
from snspin.spinmodel import (
    BRANCHES,
    LABELS,
    QUBIT_LABELS,
    SX_I,
    SX_L,
    SX_S,
    SY_I,
    SY_L,
    SY_S,
    SZ_I,
    SZ_L,
    SZ_S,
    _hamiltonian,
    build_hamiltonian,
    closed_form_energies,
    eigensystem,
    eigensystems,
    manifold_eigensystem,
    manifold_eigensystems,
    zeeman_operator,
)

ORTHONORMAL_TOL = 1e-10

ALL_LABELS = {f"{b}.{q}" for b in BRANCHES for q in QUBIT_LABELS}

params_strategy = st.builds(
    ManifoldParams,
    lambda_soc=st.floats(1e9, 5e12),
    upsilon_ioc=st.floats(-1e7, 1e7),
    a_par=st.floats(-1e9, 1e9),
    a_perp=st.floats(-1e9, 1e9),
    strain_egx=st.floats(-2e12, 2e12),
    strain_egy=st.floats(-2e12, 2e12),
)

field_strategy = st.builds(
    MagneticField,
    bx=st.floats(-1e-3, 1e-3),
    by=st.floats(-1e-3, 1e-3),
    bz=st.floats(-1e-3, 1e-3),
)


@settings(max_examples=60, deadline=None)
@given(params=params_strategy, field=field_strategy)
def test_hamiltonian_is_hermitian(params, field):
    h = build_hamiltonian(params, field)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T, atol=1e-6 * max(np.abs(h).max(), 1.0))


@settings(max_examples=40, deadline=None)
@given(params=params_strategy, field=field_strategy)
def test_eigensystem_is_orthonormal_and_labeled(params, field):
    system = manifold_eigensystem(params, field)
    gram = system.states.conj().T @ system.states
    assert np.abs(gram - np.eye(8)).max() < ORTHONORMAL_TOL
    assert sorted(system.labels) == sorted(ALL_LABELS)
    assert np.all(np.diff(system.energies) >= 0)
    # states reproduce their energies
    h = build_hamiltonian(params, field)
    recon = np.real(np.diag(system.states.conj().T @ h @ system.states))
    scale = max(np.abs(system.energies).max(), 1.0)
    assert np.abs(recon - system.energies).max() < 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(params=params_strategy)
def test_zero_field_broker_pair_degenerate(params):
    """At B=0 the two aligned (1B) levels of each branch coincide."""
    system = manifold_eigensystem(params, MagneticField())
    scale = max(params.delta_total, 1.0)
    for branch in BRANCHES:
        gap = system.energy(f"{branch}.1B0M") - system.energy(f"{branch}.1B1M")
        assert abs(gap) < 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(params=params_strategy, bz=st.floats(-1e-3, 1e-3))
def test_axial_field_eigenvectors_have_definite_fz(params, bz):
    """Without a transverse field every eigenvector lies in one Fz sector,
    with 1B0M aligned up and 1B1M aligned down in each branch."""
    system = manifold_eigensystem(params, MagneticField(bz=bz))
    sectors = {"up": [0, 4], "down": [3, 7], "anti": [1, 2, 5, 6]}
    for label, col in zip(system.labels, system.states.T):
        inside = [name for name, idx in sectors.items() if np.any(col[idx] != 0)]
        assert len(inside) == 1
        if label.endswith("1B0M"):
            assert inside == ["up"]
        elif label.endswith("1B1M"):
            assert inside == ["down"]


component_strategy = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3))


@settings(max_examples=40, deadline=None)
@given(params=params_strategy,
       fields=st.lists(st.tuples(component_strategy, component_strategy,
                                 component_strategy), min_size=1, max_size=8))
def test_stacked_eigensystems_match_one_point(params, fields):
    """The stacked path gives every point's energies, phase-fixed states
    and labels bitwise as manifold_eigensystem does, on fields with
    by != 0, on the bx = by = 0 line and at B = 0: in a mixed stack, and
    in an all-axial one that takes only the per-sector branch."""
    points = [(0.0, 0.0, 0.0), (0.0, 0.0, fields[0][2])] + fields
    axial = [(0.0, 0.0, bz) for _, _, bz in points]
    for stack in (points, axial):
        energies, states, columns = manifold_eigensystems(params, *map(np.array, zip(*stack)))
        for i, (bx, by, bz) in enumerate(stack):
            one = manifold_eigensystem(params, MagneticField(bx=bx, by=by, bz=bz))
            assert np.array_equal(energies[i], one.energies)
            assert np.array_equal(states[i], one.states)
            assert tuple(one.labels[c] for c in columns[i]) == LABELS


def test_one_eigh_per_call(monkeypatch):
    """Each path diagonalizes with one ``eigh`` call, at B = 0, at an
    axial field, at the reference field and on a stack that mixes
    sector-coupling and axial points: the Fz sectors are kept apart by a
    basis permutation."""
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    params = ground_defaults()
    for field in (MagneticField(), MagneticField(bz=3e-4), reference_field()):
        shapes.clear()
        manifold_eigensystem(params, field)
        assert shapes == [(8, 8)]
    shapes.clear()
    manifold_eigensystems(params, [0.0, 1e-4, 0.0, 2e-4], [0.0, 0.0, 0.0, 1e-5],
                          [0.0, 0.0, 3e-4, 1e-4])
    assert shapes == [(4, 8, 8)]


def operator_sum(p, bx, by, bz):
    """H and its Zeeman part written out term by term, in the order of the
    module docstring's formula."""
    g_fac = p.g_electron * MU_B_HZ_PER_T
    h = 0.5 * p.lambda_soc * (SZ_L @ SZ_S)
    h = h + 0.5 * p.upsilon_ioc * (SZ_L @ SZ_I)
    h = h - p.strain_egx * SX_L - p.strain_egy * SY_L
    h = h + 0.25 * p.a_perp * (SX_S @ SX_I + SY_S @ SY_I)
    h = h + 0.25 * p.a_par * (SZ_S @ SZ_I)
    zeeman = 0.5 * g_fac * (bx * SX_S + by * SY_S + bz * SZ_S)
    zeeman = zeeman + 0.5 * p.nuclear_gyro * (bx * SX_I + by * SY_I + bz * SZ_I)
    zeeman = zeeman + 0.5 * p.orbital_quench_q * g_fac * bz * SZ_L
    return h + zeeman, zeeman


def test_hamiltonian_bytes_match_operator_sum():
    """H is bitwise the term-by-term sum of the public operators, signed
    zeros included, for float field components and for stacked ones.  A
    signed zero survives the sum only for some sign patterns of the
    couplings and the field, so the draw mixes +-0 and both signs."""
    rng = np.random.default_rng(7)
    names = ("lambda_soc", "upsilon_ioc", "a_par", "a_perp", "strain_egx",
             "strain_egy", "orbital_quench_q", "g_electron", "nuclear_gyro")
    scales = (1e12, 1e6, 1e9, 1e9, 1e12, 1e12, 0.2, 2.0, 1.5e7)

    def signed(scale, size=None):
        values = rng.choice([-0.0, 0.0, -1.0, 1.0], size) * rng.uniform(0.5, 1.5, size)
        return values * scale

    for _ in range(600):
        p = ManifoldParams(**{n: float(signed(s)) for n, s in zip(names, scales)})
        bx, by, bz = signed(1e-3, (3, 5))
        for field in map(MagneticField, bx.tolist(), by.tolist(), bz.tolist()):
            h, zeeman = operator_sum(p, field.bx, field.by, field.bz)
            assert build_hamiltonian(p, field).tobytes() == h.tobytes()
            assert zeeman_operator(p, field).tobytes() == zeeman.tobytes()
        components = [b[:, None, None] for b in (bx, by, bz)]
        stacked, _ = operator_sum(p, *components)
        assert _hamiltonian(p, *components).tobytes() == stacked.tobytes()


def test_double_tie_labels_keep_energy_order():
    """Without an orbital gap two aligned states of one Fz share a branch
    with equal aligned and nuclear-up weights.  The stable sorts of both
    paths then name the lower-energy one 1B0M."""
    p = ManifoldParams(lambda_soc=0.0, upsilon_ioc=-3.9e6, a_perp=-8e8)
    one = manifold_eigensystem(p, MagneticField(bz=1.85e-4))
    pops = np.abs(one.states) ** 2
    aligned, up = pops[[0, 3, 4, 7]].sum(axis=0), pops[[0, 2, 4, 6]].sum(axis=0)
    for branch in BRANCHES:
        pair = [one.index(f"{branch}.1B0M"), one.index(f"{branch}.1B1M")]
        assert aligned[pair[0]] == aligned[pair[1]] and up[pair[0]] == up[pair[1]]
        assert pair[0] < pair[1]
    _, _, columns = manifold_eigensystems(p, [0.0], 0.0, [1.85e-4])
    assert tuple(one.labels[c] for c in columns[0]) == LABELS


def test_zeeman_transverse_field_leaves_orbital_alone():
    p = ground_defaults()
    h = zeeman_operator(p, MagneticField(bx=1e-3))
    # only electron/nuclear sigma_x terms: the diagonal must vanish
    assert np.abs(np.diag(h)).max() == 0.0


def test_zeeman_axial_quenched_orbital_term():
    p = ground_defaults()
    bz = 1e-3
    h = zeeman_operator(p, MagneticField(bz=bz))
    from snspin.params import MU_B_HZ_PER_T

    base = 0.5 * p.g_electron * MU_B_HZ_PER_T * bz
    expected_first = base * (p.orbital_quench_q + 1) + 0.5 * p.nuclear_gyro * bz
    assert h[0, 0] == pytest.approx(expected_first)


def test_eigensystem_rejects_bad_input():
    p = ground_defaults()
    with pytest.raises(ValueError, match="8x8"):
        eigensystem(np.eye(4))
    h = build_hamiltonian(p, MagneticField()).astype(complex)
    with pytest.raises(ValueError, match="8x8"):
        eigensystems(h)
    stack = np.stack([h, h])
    h[0, 1] += 1e6  # break Hermiticity
    with pytest.raises(ValueError, match="Hermitian"):
        eigensystem(h)
    stack[1] = h  # at one point of a stack
    with pytest.raises(ValueError, match="Hermitian"):
        eigensystems(stack)
    # a NaN compares false with everything, so it would pass the Hermitian
    # check and give finite-looking energies; every non-finite entry is refused
    good = build_hamiltonian(p, MagneticField())
    for entries in ([(0, 0)], [(0, 4), (4, 0)], [(1, 6)]):
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            bad = good.copy()
            for i, j in entries:
                bad[i, j] = value
            with pytest.raises(ValueError, match="non-finite"):
                eigensystem(bad)
            with pytest.raises(ValueError, match="non-finite"):
                eigensystems(np.stack([good, bad]))


def test_eigensystem_unknown_label():
    system = manifold_eigensystem(ground_defaults(), MagneticField())
    with pytest.raises(KeyError, match="lower.2B0M"):
        system.energy("lower.2B0M")


def test_gauge_fixing_pivot_real_positive():
    system = manifold_eigensystem(ground_defaults(), reference_field_like())
    for k in range(8):
        col = system.states[:, k]
        pivot = col[np.argmax(np.abs(col))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0


def reference_field_like():
    from snspin.params import reference_field

    return reference_field()


def test_labels_deterministic_under_degeneracy():
    """Zero-field labeling must not depend on LAPACK's arbitrary basis choice."""
    p = ground_defaults()
    a = manifold_eigensystem(p, MagneticField())
    b = manifold_eigensystem(p, MagneticField())
    assert a.labels == b.labels
    assert np.allclose(a.states, b.states)


def test_branch_ordering_lower_below_upper():
    system = manifold_eigensystem(ground_defaults(), MagneticField())
    lower = [system.energy(f"lower.{q}") for q in QUBIT_LABELS]
    upper = [system.energy(f"upper.{q}") for q in QUBIT_LABELS]
    assert max(lower) < min(upper)


def test_memory_label_ordering():
    """0B1M is the higher-energy state of the anti-aligned pair."""
    system = manifold_eigensystem(ground_defaults(), MagneticField())
    for branch in BRANCHES:
        assert system.energy(f"{branch}.0B1M") > system.energy(f"{branch}.0B0M")


def test_closed_form_rejects_bad_order():
    with pytest.raises(ValueError, match="order"):
        closed_form_energies(ground_defaults(), order=3)


def test_closed_form_warns_when_gap_small():
    p = ManifoldParams(lambda_soc=1e9, a_perp=5e8)
    with pytest.warns(UserWarning, match="orbital gap"):
        closed_form_energies(p)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(2e11, 5e12),
    strain=st.floats(-2e12, 2e12),
    a_par=st.floats(-1e9, 1e9),
    a_perp=st.floats(-1e9, 1e9),
    ups=st.floats(-1e6, 1e6),
)
def test_closed_forms_match_diagonalization(lam, strain, a_par, a_perp, ups):
    """First order within 10 A^2/Delta of exact; second order within 10 A^3/Delta^2."""
    p = ManifoldParams(
        lambda_soc=lam, strain_egx=strain, a_par=a_par, a_perp=a_perp,
        upsilon_ioc=ups,
    )
    scale = max(abs(a_par), abs(a_perp), abs(ups), 1.0)
    if p.delta_total < 100 * scale:
        return  # outside the validity regime the forms document
    exact = manifold_eigensystem(p, MagneticField()).level_dict()
    first = closed_form_energies(p, order=1)
    second = closed_form_energies(p, order=2)
    # order 1 drops the nucleus-orbit coupling entirely, so it enters
    # the first-order bound linearly
    floor = 5e-9 * p.delta_total
    bound1 = 10.0 * (scale ** 2 / p.delta_total + abs(ups)) + floor
    bound2 = 10.0 * (scale ** 3 / p.delta_total ** 2
                     + abs(ups) * scale / p.delta_total) + floor
    for label in ALL_LABELS:
        assert abs(first[label] - exact[label]) < bound1
        assert abs(second[label] - exact[label]) < bound2


def test_closed_form_second_order_improves_on_first():
    p = ground_defaults()
    exact = manifold_eigensystem(p, MagneticField()).level_dict()
    first = closed_form_energies(p, order=1)
    second = closed_form_energies(p, order=2)
    err1 = max(abs(first[lab] - exact[lab]) for lab in ALL_LABELS)
    err2 = max(abs(second[lab] - exact[lab]) for lab in ALL_LABELS)
    assert err2 < 0.1 * err1
