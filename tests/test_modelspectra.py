"""Exact model spectra: tori, spheres, and their quotients."""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbispec import (
    DomainError,
    ModelOrbifold,
    OrthogonalAction,
    SingularPoint,
    Spectrum,
    catalog_model,
    counting_function,
    cyclic_generator,
    flat_torus_spectrum,
    harmonic_multiplicity,
    model_catalog,
    sphere_rotation_action,
    sphere_spectrum,
    spectrum_content_id,
)
from orbispec.modelspectra import (
    _dual_modes,
    _invariant_counts,
    _Lattice,
    _sphere_spectrum,
    _torus_spectrum,
)
from oracles import (
    brute_torus_levels,
    character_averages,
    circle_divisor_count,
    elements,
    fraction_torus_spectrum,
    merge_levels,
    orbit_walk_quotient_spectrum,
    series_reciprocal_characters,
)

PI2 = math.pi**2


def test_spectrum_validation():
    Spectrum(((0.0, 1), (2.0, 3)), 10.0)
    with pytest.raises(DomainError):
        Spectrum(((2.0, 1), (1.0, 1)), 10.0)  # not increasing
    with pytest.raises(DomainError):
        Spectrum(((-1.0, 1),), 10.0)
    with pytest.raises(DomainError):
        Spectrum(((0.0, 0),), 10.0)  # zero multiplicity
    with pytest.raises(DomainError):
        Spectrum(((0.0, 1.5),), 10.0)  # non-integer multiplicity
    with pytest.raises(DomainError):
        Spectrum(((11.0, 1),), 10.0)  # beyond truncation
    with pytest.raises(DomainError):
        Spectrum((), -1.0)
    with pytest.raises(DomainError):
        Spectrum((), math.inf)
    with pytest.raises(DomainError):
        Spectrum(((0.0, 2**70),), 10.0)  # multiplicity past int64
    for value in ("1.5", (1.0, 2.0), object(), True, np.True_):
        with pytest.raises(DomainError, match="real number"):
            Spectrum(((value, 1),), 10.0)
    # The truncation is stored as a float; a bool or a non-real is refused.
    assert type(Spectrum((), 10).truncation) is float
    for trunc in (True, "5", None):
        with pytest.raises(DomainError, match="truncation must be a real number"):
            Spectrum(((0.0, 1),), trunc)
    for entries in (((0.0, 1, 2),), ((0.0,),), (5,)):
        with pytest.raises(DomainError, match="pairs"):
            Spectrum(entries, 10.0)
    # An int past every float is an infinite eigenvalue.
    with pytest.raises(DomainError, match="finite"):
        Spectrum(((10**400, 1),), 10.0)


def test_spectrum_round_trip_and_counting():
    spec = Spectrum(((0.0, 1), (2.0, 3), (6.0, 5)), 7.5, dimension=2)
    back = Spectrum.from_dict(spec.to_dict())
    assert back == spec
    assert back.dimension == 2
    assert spec.total_count == 9
    assert counting_function(spec, 0.0) == 1
    assert counting_function(spec, 1.999) == 1
    assert counting_function(spec, 2.0) == 4
    assert counting_function(spec, 7.5) == 9
    with pytest.raises(DomainError):
        counting_function(spec, 7.6)
    with pytest.raises(DomainError):
        Spectrum.from_dict({"eigenvalues": [[0.0, 1]]})  # missing truncation
    with pytest.raises(DomainError):
        Spectrum.from_dict([0.0, 1])
    for bad in ({"eigenvalues": 5, "truncation": 6.0}, {"eigenvalues": [5], "truncation": 6.0}):
        with pytest.raises(DomainError):
            Spectrum.from_dict(bad)
    # Truncating these to ints would undercount rho, hence the diameter bound.
    for bad in (
        {"eigenvalues": [[0.0, 1], [2.0, 2.9]], "truncation": 6.0},
        {"eigenvalues": [[0.0, 1], [6.0, True]], "truncation": 6.0},
        {"eigenvalues": [[0.0, 1]], "truncation": 6.0, "dimension": 2.7},
        {"eigenvalues": [[0.0, 1]], "truncation": 6.0, "dimension": False},
    ):
        with pytest.raises(DomainError):
            Spectrum.from_dict(bad)
    # The JSON route takes the constructor's rules: no bool or string
    # truncation, string or bool eigenvalue, or entry that is not a pair.
    for bad in (
        {"eigenvalues": [[0.0, 1]], "truncation": True},
        {"eigenvalues": [[0.0, 1]], "truncation": "5"},
        {"eigenvalues": [["1.5", 2]], "truncation": 6.0},
        {"eigenvalues": [[False, 1]], "truncation": 6.0},
        {"eigenvalues": [[0.0, 1, 2]], "truncation": 6.0},
    ):
        with pytest.raises(DomainError):
            Spectrum.from_dict(bad)
    spec = Spectrum.from_dict(
        {"eigenvalues": [[0.0, 1.0], [2.0, 3.0]], "truncation": 6.0, "dimension": 2.0}
    )
    assert spec == Spectrum(((0.0, 1), (2.0, 3)), 6.0, dimension=2)
    assert type(spec.entries[1][1]) is int and type(spec.dimension) is int


# Candidate multiplicities and dimensions, valid or not: the constructor is
# the judge.
_INTEGER_LIKE = st.one_of(
    st.integers(-2, 10**6),
    st.integers(-2, 10**6).map(np.int64),
    st.integers(0, 100).map(np.int32),
    st.booleans(),
    st.floats(-2.0, 10.0),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1e6), max_size=6, unique=True).map(sorted),
    mults=st.lists(_INTEGER_LIKE, min_size=6, max_size=6),
    dimension=st.one_of(st.none(), _INTEGER_LIKE),
    headroom=st.floats(0.0, 10.0),
)
def test_every_spectrum_the_constructor_builds_survives_its_json(values, mults, dimension, headroom):
    truncation = (values[-1] if values else 0.0) + headroom
    try:
        spec = Spectrum(tuple(zip(values, mults)), truncation, dimension)
    except DomainError:
        return
    assert Spectrum.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_records_that_their_json_would_refuse_are_refused():
    # Each of these once built, and from_dict then refused its to_dict JSON.
    for entries, dim, doc in (
        (((0.0, True),), None, {"eigenvalues": [[0.0, True]], "truncation": 1.0}),
        (((0.0, 1),), 2.5, {"eigenvalues": [[0.0, 1]], "truncation": 1.0, "dimension": 2.5}),
        (((0.0, 1),), True, {"eigenvalues": [[0.0, 1]], "truncation": 1.0, "dimension": True}),
    ):
        with pytest.raises(DomainError):
            Spectrum(entries, 1.0, dim)
        with pytest.raises(DomainError):
            Spectrum.from_dict(json.loads(json.dumps(doc)))
    # A numpy-integer multiplicity, once refused, is stored as a plain int.
    spec = Spectrum(((0.0, np.int64(1)),), 1.0)
    assert spec == Spectrum(((0.0, 1),), 1.0)
    assert Spectrum.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


def test_spectrum_arrays_are_cached_and_read_only():
    spec = Spectrum(((0.0, 1), (2.0, 3), (6.0, 5)), 7.5, dimension=2)
    for name in ("values", "multiplicities", "cumulative_counts"):
        arr = getattr(spec, name)
        assert getattr(spec, name) is arr
        assert not arr.flags.writeable
    assert spec.values.dtype == np.float64 and spec.multiplicities.dtype == np.int64
    assert spec.cumulative_counts.tolist() == [1, 4, 9]
    assert spec.entries == spec.entries and "entries" not in vars(spec)
    assert spec.entries == ((0.0, 1), (2.0, 3), (6.0, 5))
    assert repr(spec) == (
        "Spectrum(entries=((0.0, 1), (2.0, 3), (6.0, 5)), truncation=7.5, dimension=2)"
    )
    # the derived view is not part of equality or hashing
    twin = Spectrum(spec.entries, 7.5, dimension=2)
    assert twin == spec and hash(twin) == hash(spec)
    assert spec != spec.entries and spec != Spectrum(spec.entries, 7.5)
    for name in ("values", "truncation", "entries"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert Spectrum((), 1.0).total_count == 0
    assert counting_function(Spectrum((), 1.0), 0.5) == 0


_MULTIPLICITY_ARRAYS = st.one_of(
    # (candidates of one kind, the dtype of their array): the routes judge.
    st.tuples(st.lists(st.integers(-2, 10**6), min_size=6, max_size=6), st.just(np.int64)),
    st.tuples(st.lists(st.integers(0, 100).map(np.int32), min_size=6, max_size=6),
              st.just(np.int32)),
    st.tuples(st.lists(st.booleans(), min_size=6, max_size=6), st.just(np.bool_)),
    st.tuples(st.lists(st.floats(-2.0, 10.0), min_size=6, max_size=6), st.just(np.float64)),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1e6), max_size=6, unique=True).map(sorted),
    mults=_MULTIPLICITY_ARRAYS,
    dimension=st.one_of(st.none(), _INTEGER_LIKE),
    headroom=st.floats(0.0, 10.0),
)
def test_tuple_and_array_routes_build_the_same_spectrum(values, mults, dimension, headroom):
    # An empty tuple of pairs holds no multiplicity to judge; its array is int.
    mults, dtype = mults[0][: len(values)], mults[1] if values else np.int64
    truncation = (values[-1] if values else 0.0) + headroom
    built = []
    for build in (
        lambda: Spectrum(tuple(zip(values, mults)), truncation, dimension),
        lambda: Spectrum._from_arrays(
            np.array(values, dtype=float), np.array(mults, dtype=dtype), truncation, dimension
        ),
    ):
        try:
            built.append(build())
        except DomainError:
            built.append(None)
    by_tuple, by_array = built
    assert (by_tuple is None) == (by_array is None)
    # Both refuse exactly bools, floats and values below 1, as multiplicities
    # and as the dimension.
    dim_ok = dimension is None or (
        isinstance(dimension, numbers.Integral) and not isinstance(dimension, bool)
        and dimension >= 1
    )
    ints = dtype in (np.int64, np.int32)
    assert (by_tuple is not None) == (ints and min(mults, default=1) >= 1 and dim_ok)
    if by_tuple is None:
        return
    assert by_tuple == by_array and hash(by_tuple) == hash(by_array)
    assert spectrum_content_id(by_tuple) == spectrum_content_id(by_array)
    assert all(type(m) is int for _, m in by_array.entries)
    back = Spectrum.from_dict(json.loads(json.dumps(by_array.to_dict())))
    assert back == by_tuple and spectrum_content_id(back) == spectrum_content_id(by_tuple)


# spectrum_content_id of each catalog model at the verify truncations (full
# and --quick) and, for the tori, at 256000, as the loop-built spectra read.
CATALOG_CONTENT_IDS = {
    ("s2", 10100.0): "4ca95c32eb433f24",
    ("s2", 1640.0): "bf6161f1779aae4e",
    ("s2-mod-2", 10100.0): "317c443a7e70c300",
    ("s2-mod-2", 1640.0): "bd101d517e16fd2d",
    ("s2-mod-3", 10100.0): "65e6ea2bade4ba2f",
    ("s2-mod-3", 1640.0): "0028d6a382dda5c1",
    ("s2-mod-4", 10100.0): "9c504cf4017b664e",
    ("s2-mod-4", 1640.0): "33056664e7f04a55",
    ("s2-mod-6", 10100.0): "b7617e8fbbdadf1e",
    ("s2-mod-6", 1640.0): "06b18272fcd76f12",
    ("t2", 64000.0): "aee4345fa40a1e0d",
    ("t2", 8000.0): "91d38f541b51d555",
    ("t2", 256000.0): "1f81159c89f92182",
    ("pillowcase", 64000.0): "64a741baaf19e36d",
    ("pillowcase", 8000.0): "6ec49fbdc27aba15",
    ("pillowcase", 256000.0): "57266062ebcf466c",
    ("t2-mod-4", 64000.0): "568666a59cf48070",
    ("t2-mod-4", 8000.0): "d5692b9d9b1ab433",
    ("t2-mod-4", 256000.0): "9d0905b2afe264eb",
    ("s3", 4032.0): "e3af93b92d7c0c11",
    ("s3", 899.0): "206232e5acf1b6ff",
    ("lens-4-1", 4032.0): "1e27bc340826ecb5",
    ("lens-4-1", 899.0): "b32e02c0130cb156",
}


def test_catalog_spectra_keep_their_content_ids():
    assert {m for m, _ in CATALOG_CONTENT_IDS} == {m.model_id for m in model_catalog()}
    for (model_id, truncation), content_id in CATALOG_CONTENT_IDS.items():
        spec = catalog_model(model_id).spectrum(truncation)
        assert spectrum_content_id(spec) == content_id, (model_id, truncation)


def _fresh_spectrum(model, truncation):
    """The record's spectrum built without its held one."""
    if model.lattice_basis is not None:
        return _torus_spectrum(model._lattice, truncation)
    return _sphere_spectrum(model.dimension, model.action, truncation)


@settings(max_examples=15, deadline=None)
@given(
    draws=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0])),
        min_size=1,
        max_size=8,
    )
)
@example(draws=[0.0, -0.0])  # equal truncations that print apart
@example(draws=[-0.0, 0.0])
def test_spectra_cut_from_the_held_one_equal_fresh_builds(draws):
    # Each record starts empty and is asked for the drawn truncations in the
    # drawn order, so some build past the held spectrum and some cut from it.
    for model in model_catalog():
        top = 4000.0 if model.lattice_basis is not None else 400.0 * model.dimension
        record = dataclasses.replace(model)
        for share in draws:
            got = record.spectrum(share * top)
            fresh = _fresh_spectrum(model, share * top)
            assert json.dumps(got.to_dict()) == json.dumps(fresh.to_dict())
            assert got == fresh and hash(got) == hash(fresh)
            assert spectrum_content_id(got) == spectrum_content_id(fresh)
        assert record._held.truncation == max(draws) * top


@pytest.mark.parametrize("model_id", ["t2-mod-4", "s2-mod-3", "lens-4-1"])
def test_a_record_holds_its_largest_spectrum_and_cuts_lower_ones(model_id):
    record = dataclasses.replace(catalog_model(model_id))
    assert record._held is None
    held = record.spectrum(1500.0)
    assert record._held is held and record.spectrum(1500) is held
    assert "_held" not in repr(record)
    cut = record.spectrum(700.0)
    assert record._held is held and cut.truncation == 700.0
    assert cut == _fresh_spectrum(record, 700.0)
    # The cut shares the held arrays, and neither can be written through it.
    assert np.shares_memory(cut.values, held.values)
    for name in ("values", "multiplicities", "cumulative_counts"):
        with pytest.raises(ValueError):
            getattr(cut, name)[0] = 1
    wider = record.spectrum(2000.0)
    assert record._held is wider and wider is not held
    assert record.spectrum(1500.0) == held
    for lam in (-1.0, math.nan, math.inf, -math.inf, True, np.float64("nan"), "10"):
        with pytest.raises(DomainError):
            record.spectrum(lam)
        assert record._held is wider
    assert record.spectrum(2000.0) is wider


@functools.lru_cache(maxsize=None)
def _torus_record(model_id: str):
    """A fresh copy of a torus catalog record holding its spectrum at 64000."""
    record = dataclasses.replace(catalog_model(model_id))
    record.spectrum(64000.0)
    return record


@settings(max_examples=60, deadline=None)
@given(
    model_id=st.sampled_from(["t2", "pillowcase", "t2-mod-4"]),
    share=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
)
@example(model_id="t2", share=0.0)  # the cut holds the zero mode alone
@example(model_id="pillowcase", share=math.nextafter(1.0, 0.0))
def test_a_cut_shares_all_three_held_arrays_and_checks_nothing_again(model_id, share):
    # A cut below the held truncation equals a fresh build from its pairs,
    # takes read-only views of all three held arrays, and never passes
    # through the constructor's checks.
    record = _torus_record(model_id)
    held = record._held
    truncation = share * held.truncation
    fills = []
    real = Spectrum._fill

    def fill(self, *args):
        fills.append(args)
        return real(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Spectrum, "_fill", fill)
        cut = record.spectrum(truncation)
    assert fills == [] and record._held is held
    pairs = [(v, m) for v, m in held.entries if v <= truncation]
    fresh = Spectrum(pairs, truncation, held.dimension)
    assert cut == fresh and cut.total_count == fresh.total_count
    for name in ("values", "multiplicities", "cumulative_counts"):
        part, whole = getattr(cut, name), getattr(held, name)
        assert np.array_equal(part, getattr(fresh, name)), name
        assert part.dtype == whole.dtype and np.shares_memory(part, whole), name
        assert not part.flags.writeable, name


def test_counting_function_rejects_non_finite_bounds():
    # N(nan) = 0 would give rho = 0 and D = 2r: the unsound direction.
    spec = Spectrum(((0.0, 1), (2.0, 3)), 7.5)
    for lam in (math.nan, -math.inf, math.inf, np.float64("nan")):
        with pytest.raises(DomainError):
            counting_function(spec, lam)


def _lattice_dual(model) -> np.ndarray:
    basis = np.asarray(model.lattice_basis, dtype=float)
    a = model.action.generator
    return np.rint(np.linalg.solve(basis.T, a @ basis.T)).astype(np.int64).T


def _oracle_spectrum(model, lam: float) -> Spectrum:
    if model.kind == "flat_torus":
        return fraction_torus_spectrum(model.lattice_basis, lam)
    return orbit_walk_quotient_spectrum(
        model.lattice_basis, _lattice_dual(model), model.action.order, lam
    )


def test_torus_catalog_spectra_equal_fraction_oracle():
    rng = np.random.default_rng(20261018)
    seeded = np.exp(rng.uniform(math.log(8000.0), math.log(256000.0), size=3))
    for lam in [8000.0, 64000.0, 256000.0, *(float(t) for t in seeded)]:
        for mid in ("t2", "pillowcase", "t2-mod-4"):
            model = catalog_model(mid)
            assert model.spectrum(lam) == _oracle_spectrum(model, lam), (mid, lam)


DYADIC = st.integers(-6, 6).map(lambda k: k / 4.0)


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 3).flatmap(
        lambda n: st.lists(st.lists(DYADIC, min_size=n, max_size=n), min_size=n, max_size=n)
    ),
    lam=st.floats(0.0, 300.0),
)
@example(rows=[[1.0, 0.0], [0.1, 1.0]], lam=2000.0)  # Gram denominators force Python ints
def test_torus_spectra_equal_fraction_oracle_on_random_bases(rows, lam):
    basis = np.array(rows)
    assume(abs(np.linalg.det(basis)) >= 0.25)
    n = basis.shape[0]
    assert flat_torus_spectrum(basis, lam) == fraction_torus_spectrum(basis, lam)
    # x -> -x preserves every lattice; its quotient checks the Burnside count.
    model = ModelOrbifold(
        "random-pillow", n, 1.0, 1.0, 0.0,
        lattice_basis=basis, action=OrthogonalAction(2, reversed_axes=n),
    )
    assert model.spectrum(lam) == orbit_walk_quotient_spectrum(
        basis, -np.eye(n, dtype=np.int64), 2, lam
    )


def test_torus_enumeration_switches_to_python_ints_for_wide_forms():
    # 0.1 has a 2^55 denominator, so the integer form cannot stay in int64.
    # Eigenvalues divide key den by det: as floats only while both are below
    # 2^53, else as Python ints.  Each case must equal the Fraction oracle
    # bit for bit.
    skew = np.array([[1.0, 0.0], [0.1, 1.0]])
    for basis, lam, key_dtype in (
        (np.eye(2), 2000.0, np.int64),  # int64 keys and values
        (skew, 2000.0, object),  # Python-int keys and values
        (skew, 200.0, np.int64),  # int64 keys, but key den tops 2^53
        (np.diag([1.0, 1e-10]), 1.0, object),  # the zero mode alone; den tops int64
    ):
        lattice = _Lattice(basis)
        keys, modes = _dual_modes(lattice, lam)
        assert keys.dtype == key_dtype and modes is None, (basis, lam)
        assert flat_torus_spectrum(basis, lam) == fraction_torus_spectrum(basis, lam)
    assert lattice.den >= 2**63


def test_square_torus_levels():
    spec = flat_torus_spectrum(np.eye(2), 9 * PI2)
    # 4 pi^2 (p^2 + q^2): sums of two squares 0,1,2 -> mults 1,4,4
    assert spec.entries[0] == (0.0, 1)
    assert abs(spec.entries[1][0] - 4 * PI2) < 1e-9 and spec.entries[1][1] == 4
    assert abs(spec.entries[2][0] - 8 * PI2) < 1e-9 and spec.entries[2][1] == 4
    assert spec.dimension == 2


def test_circle_levels():
    # R / L Z: eigenvalues 4 pi^2 k^2 / L^2, simple at k = 0 and double after.
    for length in (0.5, 1.0, 3.0):
        lam = 50 * PI2
        spec = flat_torus_spectrum(np.array([[length]]), lam)
        k_max = math.isqrt(int(lam * length**2 / (4 * PI2)))
        assert [m for _, m in spec.entries] == [1] + [2] * k_max
        for k, (v, _) in enumerate(spec.entries):
            assert abs(v - 4 * PI2 * k * k / length**2) <= 1e-12 * max(1.0, v)
        assert spec == fraction_torus_spectrum(np.array([[length]]), lam)


def test_torus_truncation_boundary_is_the_float_check():
    # Just below 4 pi^2 the 1e-12 completeness slack keeps key 1 in the
    # enumeration; its float eigenvalue then tops the truncation and is dropped.
    below = math.nextafter(4 * PI2, 0.0)
    assert flat_torus_spectrum(np.eye(2), below).entries == ((0.0, 1),)
    assert flat_torus_spectrum(np.eye(2), 4 * PI2).entries == ((0.0, 1), (4 * PI2, 4))


def test_rectangular_torus_frozen_levels():
    spec = flat_torus_spectrum(np.diag([1.0, 2.0]), 5 * PI2)
    got = [(v, m) for v, m in spec.entries]
    assert got[0] == (0.0, 1)
    assert abs(got[1][0] - PI2) < 1e-9 and got[1][1] == 2
    assert abs(got[2][0] - 4 * PI2) < 1e-9 and got[2][1] == 4


def test_torus_matches_brute_enumeration_dyadic():
    # Dyadic bases have exactly representable Grams, so levels match exactly.
    rng = np.random.default_rng(7)
    for _ in range(8):
        b = rng.integers(-8, 9, size=(2, 2)) / 4.0
        if abs(np.linalg.det(b)) < 0.25:
            continue
        lam = 150.0
        spec = flat_torus_spectrum(b, lam)
        brute = brute_torus_levels(b, lam)
        assert len(spec.entries) == len(brute)
        for (v, m), (bv, bm) in zip(spec.entries, brute):
            assert abs(v - bv) <= 1e-9 * max(1.0, v)
            assert m == bm


def test_torus_irrational_basis_merged_levels():
    # With irrational entries the exact-arithmetic levels may split ideal
    # shells at the ulp scale; after merging nearby levels the two routes agree.
    hexagonal = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    lam = 500.0
    spec = flat_torus_spectrum(hexagonal, lam)
    ours = merge_levels([(v, m) for v, m in spec.entries])
    brute = merge_levels(brute_torus_levels(hexagonal, lam))
    assert len(ours) == len(brute)
    for (v, m), (bv, bm) in zip(ours, brute):
        assert abs(v - bv) <= 1e-8 * max(1.0, v)
        assert m == bm


def test_torus_rejects_bad_bases():
    with pytest.raises(DomainError):
        flat_torus_spectrum(np.zeros((2, 2)), 10.0)
    with pytest.raises(DomainError):
        flat_torus_spectrum(np.ones((2, 3)), 10.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            flat_torus_spectrum(np.array([[1.0, 0.0], [0.0, bad]]), 10.0)


def test_harmonic_multiplicity_formulas():
    for l in range(12):
        assert harmonic_multiplicity(2, l) == 2 * l + 1
        assert harmonic_multiplicity(3, l) == (l + 1) ** 2
    assert harmonic_multiplicity(2, 0) == 1
    # Dimension count: homogeneous harmonics split trace-free parts
    for n in (4, 5):
        for l in range(1, 8):
            lower = math.comb(n + l - 2, l - 2) if l >= 2 else 0
            assert harmonic_multiplicity(n, l) == math.comb(n + l, l) - lower
    # total in corner cases: the circle has {cos, sin} pairs, negative degrees vanish
    assert harmonic_multiplicity(1, 2) == 2
    assert harmonic_multiplicity(2, -1) == 0


def test_sphere_spectrum_levels():
    for n in (2, 3):
        lam = 80.0
        spec = sphere_spectrum(n, lam)
        l = 0
        for v, m in spec.entries:
            assert abs(v - l * (l + n - 1)) < 1e-12
            assert m == harmonic_multiplicity(n, l)
            l += 1
        assert (l) * (l + n - 1) > lam  # complete up to the truncation
        assert spec.dimension == n


def test_invariant_multiplicity_against_divisor_count():
    # A rotation by 2 pi j / k on S^2 fixes exactly the harmonics Y_{l m}
    # with m divisible by k / gcd(j, k).
    for k in (2, 3, 4, 5, 6, 9):
        act = sphere_rotation_action(k)
        counts = _invariant_counts(act, 12)
        for l in (0, 1, 2, 3, 7, 12):
            assert counts[l] == circle_divisor_count(k, l)


def test_invariant_multiplicity_against_series_recurrence():
    # Independent route: Molien-style power sums of the reciprocal
    # characteristic polynomial give each generator's character.
    rng = np.random.default_rng(11)
    for _ in range(12):
        k = int(rng.integers(2, 8))
        coprime = [e for e in range(1, k) if math.gcd(e, k) == 1]
        dim = int(rng.integers(1, 4))
        exps = [int(coprime[i]) for i in rng.integers(0, len(coprime), size=dim)]
        act = cyclic_generator(k, exps)
        l_max = 9
        total = np.zeros(l_max + 1)
        for g in elements(act):
            total += np.array(series_reciprocal_characters(g, l_max), dtype=float)
        counts = _invariant_counts(act, l_max)
        for l in range(l_max + 1):
            expected = total[l] / act.order
            assert abs(expected - round(expected)) < 1e-8
            assert counts[l] == round(expected)


@st.composite
def cyclic_records(draw):
    """Valid records: order 2..12, up to 3 blocks, fixed and reversed axes, ambient dim >= 2."""
    order = draw(st.integers(2, 12))
    exps = draw(st.lists(st.integers(-order, 2 * order), max_size=3))
    fixed = draw(st.integers(0, 2))
    flipped = draw(st.integers(0, 2))
    assume(2 * len(exps) + fixed + flipped >= 2)
    try:
        return OrthogonalAction(order, exps, fixed, flipped)
    except DomainError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(act=cyclic_records())
@example(act=OrthogonalAction(2, reversed_axes=3))  # the antipodal map of S^2
@example(act=OrthogonalAction(12, (1, 5, 7)))
def test_invariant_counts_equal_float_character_average(act):
    l_max = 40
    average = character_averages(act, l_max)
    counts = _invariant_counts(act, l_max)
    for l in range(l_max + 1):
        assert abs(counts[l] - average[l]) <= 1e-6, (l, average[l])


def test_antipodal_action_kills_odd_degrees():
    counts = _invariant_counts(OrthogonalAction(2, reversed_axes=3), 9)
    for l in range(10):
        expect = 0 if l % 2 else 2 * l + 1
        assert counts[l] == expect


def test_sphere_quotient_frozen_small_levels():
    spec = catalog_model("s2-mod-3").spectrum(6.0)
    assert [(v, m) for v, m in spec.entries] == [(0.0, 1), (2.0, 1), (6.0, 1)]


def test_sphere_quotient_counting_identity():
    # Summing invariant multiplicities over degrees reproduces the quotient count.
    for mid in ("s2-mod-2", "s2-mod-4", "s2-mod-6", "lens-4-1"):
        model = catalog_model(mid)
        spec = model.spectrum(180.0)
        n = model.dimension
        l_max = 0
        while (l_max + 1) * (l_max + n) <= 180.0:
            l_max += 1
        assert spec.total_count == sum(_invariant_counts(model.action, l_max))


def test_pillowcase_frozen_levels():
    spec = catalog_model("pillowcase").spectrum(9 * PI2)
    got = [(v, m) for v, m in spec.entries]
    assert got[0] == (0.0, 1)
    assert abs(got[1][0] - 4 * PI2) < 1e-9 and got[1][1] == 2
    assert abs(got[2][0] - 8 * PI2) < 1e-9 and got[2][1] == 2


def test_torus_quotient_matches_burnside_count():
    # Orbit counts per level must equal the Burnside average of fixed modes.
    model = catalog_model("t2-mod-4")
    rot = np.array([[0, -1], [1, 0]])
    spec = model.spectrum(40 * PI2)
    cover = flat_torus_spectrum(model.lattice_basis, 40 * PI2)
    brute = brute_torus_levels(np.asarray(model.lattice_basis, dtype=float), 40 * PI2)
    by_value = {round(v, 6): m for v, m in spec.entries}
    for v, _ in cover.entries:
        # enumerate the modes on this level and Burnside-count the orbits
        radius = math.sqrt(v) / (2 * math.pi)
        k_max = int(math.ceil(radius)) + 1
        modes = [
            (p, q)
            for p in range(-k_max, k_max + 1)
            for q in range(-k_max, k_max + 1)
            if abs(4 * PI2 * (p * p + q * q) - v) < 1e-6
        ]
        fixed = 0
        g = np.eye(2, dtype=int)
        for _ in range(4):
            fixed += sum(1 for k in modes if tuple(g @ k) == k)
            g = rot @ g
        orbits, rem = divmod(fixed, 4)
        assert rem == 0
        assert by_value.get(round(v, 6), 0) == orbits
    assert len(brute) == len(cover.entries)


def test_torus_quotient_rejects_noncrystallographic_order():
    act = OrthogonalAction(5, (1,))
    with pytest.raises(DomainError, match="crystallographic"):
        ModelOrbifold(
            model_id="bad-5",
            dimension=2,
            volume=0.2,
            diameter=1.0,
            curvature_lower_bound=0.0,
            lattice_basis=np.eye(2),
            action=act,
            singular_points=(SingularPoint(5, True),),
        )


def test_torus_quotient_requires_lattice_symmetry():
    rot = OrthogonalAction(4, (1,))
    # a quarter turn does not preserve a 1 x 2 lattice
    with pytest.raises(DomainError, match="not an integer matrix"):
        ModelOrbifold(
            model_id="bad-rect",
            dimension=2,
            volume=0.5,
            diameter=1.0,
            curvature_lower_bound=0.0,
            lattice_basis=np.diag([1.0, 2.0]),
            action=rot,
            singular_points=(SingularPoint(4, True),),
        )


def test_torus_quotient_requires_the_symmetry_to_preserve_the_exact_form():
    # The sixth turn is an integer matrix on the float hexagonal basis to
    # 1e-9, but sqrt(3)/2 is not exact, so the exact dual form is not
    # preserved and the model is refused when it is built.
    hexagonal = np.array([[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    with pytest.raises(DomainError, match="does not preserve the dual form"):
        ModelOrbifold(
            "hex-mod-6", 2, math.sqrt(3.0) / 12.0, 1.0, 0.0,
            lattice_basis=hexagonal, action=OrthogonalAction(6, (1,)),
        )


def test_sphere_quotient_shape_errors():
    # The record owns the ambient-dimension check, so a mismatch is refused
    # when it is built, before any spectrum.
    with pytest.raises(DomainError, match="R\\^3, but the model needs R\\^4"):
        ModelOrbifold(
            model_id="bad-dim",
            dimension=3,
            volume=1.0,
            diameter=1.0,
            curvature_lower_bound=1.0,
            action=sphere_rotation_action(3),  # acts on S^2, not S^3
            singular_points=(SingularPoint(3, True), SingularPoint(3, True)),
        )
    with pytest.raises(DomainError):
        catalog_model("lens-4-1").spectrum(-1.0)


def test_non_finite_or_negative_truncations_are_domain_errors():
    # inf used to loop forever on spheres and raise a bare OverflowError on tori.
    kinds = set()
    for model in model_catalog():
        kinds.add(model.kind)
        for lam in (math.inf, math.nan, -1.0):
            with pytest.raises(DomainError):
                model.spectrum(lam)
    assert kinds == {"flat_torus", "round_sphere", "sphere_quotient", "torus_quotient"}
    for lam in (math.inf, -math.inf, math.nan, np.float64("inf"), -1.0):
        with pytest.raises(DomainError):
            sphere_spectrum(2, lam)
        with pytest.raises(DomainError):
            flat_torus_spectrum(np.eye(2), lam)
        with pytest.raises(DomainError):
            catalog_model("s2-mod-3").spectrum(lam)


def test_model_validation():
    with pytest.raises(DomainError):
        ModelOrbifold("x", 2, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ModelOrbifold(
            "x", 2, 1.0, 1.0, 1.0,
            singular_points=(SingularPoint(1, True),),
        )
    # Each of these once built: a fractional dimension gave a dimension-2
    # spectrum, and the mismatched action stopped in a bare numpy ValueError.
    with pytest.raises(DomainError):
        ModelOrbifold("x", 2.5, 1.0, 1.0, 0.0, lattice_basis=np.eye(2))
    with pytest.raises(DomainError):
        SingularPoint(2.5, True)
    with pytest.raises(DomainError):
        ModelOrbifold("x", 2, math.inf, 1.0, 0.0)
    with pytest.raises(DomainError, match="R\\^3, but the model needs R\\^2"):
        ModelOrbifold(
            "x", 2, 0.5, 1.0, 0.0,
            lattice_basis=np.eye(2), action=OrthogonalAction(2, reversed_axes=3),
        )
    with pytest.raises(DomainError, match="must be 3 x 3"):
        ModelOrbifold("x", 3, 1.0, 1.0, 0.0, lattice_basis=np.eye(2))


def test_catalog_is_built_once_and_handed_out_in_fresh_lists(monkeypatch):
    # Each torus record reduces its lattice at construction, so the catalog
    # is built once; lookups after that construct no record.
    model_catalog()
    built = []
    real_init = ModelOrbifold.__post_init__

    def counted(self):
        built.append(self.model_id)
        real_init(self)

    monkeypatch.setattr(ModelOrbifold, "__post_init__", counted)
    first = catalog_model("t2-mod-4")
    assert catalog_model("t2-mod-4") is first
    ids = [m.model_id for m in model_catalog()]
    assert built == []
    # The list is the caller's: emptying or refilling it leaves the catalog,
    # and the records' shared lattice basis cannot be written to.
    cat = model_catalog()
    assert cat is not model_catalog()
    cat.clear()
    cat.append(ModelOrbifold("x", 2, 1.0, 1.0, 0.0))
    assert [m.model_id for m in model_catalog()] == ids
    assert catalog_model("t2-mod-4") is first
    with pytest.raises(DomainError, match="unknown model 'x'"):
        catalog_model("x")
    with pytest.raises(ValueError):
        first.lattice_basis[0, 0] = 2.0
    assert built == ["x"]


def test_catalog_ground_truth():
    cat = model_catalog()
    ids = [m.model_id for m in cat]
    assert ids == [
        "s2", "s2-mod-2", "s2-mod-3", "s2-mod-4", "s2-mod-6",
        "t2", "pillowcase", "t2-mod-4", "s3", "lens-4-1",
    ]
    by_id = {m.model_id: m for m in cat}
    # kind is read off the record: lattice or sphere, divided by an action or not
    assert {m.model_id: m.kind for m in cat} == {
        "s2": "round_sphere", "s3": "round_sphere", "t2": "flat_torus",
        "pillowcase": "torus_quotient", "t2-mod-4": "torus_quotient",
        "lens-4-1": "sphere_quotient", **{f"s2-mod-{k}": "sphere_quotient" for k in (2, 3, 4, 6)},
    }
    assert by_id["s2"].max_isotropy_order == 1
    assert by_id["s2"].isolated_singular_count == 0
    for k in (2, 3, 4, 6):
        m = by_id[f"s2-mod-{k}"]
        assert m.max_isotropy_order == k
        assert m.isolated_singular_count == 2
        assert abs(m.volume - 4 * math.pi / k) < 1e-12
        assert m.curvature_lower_bound == 1.0
    pc = by_id["pillowcase"]
    assert pc.max_isotropy_order == 2 and pc.isolated_singular_count == 4
    t4 = by_id["t2-mod-4"]
    assert t4.max_isotropy_order == 4
    assert t4.isolated_singular_count == 3  # two quarter-turn points, one half-turn
    # the lens space is a manifold: the action is free, so no singular points
    assert by_id["lens-4-1"].max_isotropy_order == 1
    assert by_id["lens-4-1"].isolated_singular_count == 0
    assert by_id["s3"].dimension == 3
    for m in cat:
        assert m.volume > 0 and m.diameter > 0
        if m.kind in ("round_sphere", "sphere_quotient"):
            assert m.curvature_lower_bound == 1.0
        else:
            assert m.curvature_lower_bound == 0.0
        spec = m.spectrum(50.0)
        assert spec.entries[0] == (0.0, 1)  # connected: simple zero eigenvalue


def test_catalog_lookup_errors():
    assert catalog_model("t2").model_id == "t2"
    with pytest.raises(DomainError):
        catalog_model("klein-bottle")
