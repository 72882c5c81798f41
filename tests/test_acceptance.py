"""Acceptance battery: twelve self-contained criteria, one test each.

Every test prints a single ``[criterion NN] name: PASS|FAIL (t)`` line
(visible under ``pytest -s``) and enforces its own runtime budget.
"""

import contextlib
import io
import time

import numpy as np

from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    biinvariant_distance,
    center_elements,
    haar_orthogonal,
    haar_sample,
    is_constant_displacement_translation,
    min_displacement,
    random_algebra_element,
)
from homoglab.constant_curvature import (
    EuclideanMotion,
    HyperbolicMotion,
    euclidean_bounded,
    hyperbolic_bounded_probe,
    invariant_geodesic_check,
    is_clifford_sphere,
    is_free_on_sphere,
    lens_group,
    sphere_displacement_profile,
)
from homoglab.finite_groups import (
    GroupType,
    table_identity,
    classify,
    element_orders,
    is_sl25,
    left_translation_matrix,
    named_binary_group,
    special_linear_table,
)
from homoglab.homogeneous import (
    NOT_EQUAL_RANK,
    berger_right_isometry_algebra,
    euler_characteristic,
    group_space,
    hopf_sphere_space,
    killing_length_profile,
    so5_so3_space,
    u1_centralizer_direction,
    weyl_group_order,
)
from homoglab.cli import main as cli_main
from homoglab.verifier import (
    HOMOGENEOUS_WITNESS_FOUND,
    NOT_CONSTANT_DISPLACEMENT,
    VerifyConfig,
    centralizer_algebra,
    sphere_ambient_basis,
    sphere_deck,
    sphere_deck_from_quaternions,
    transitivity_rank,
    verify_instance,
)

SU2 = CompactGroupSpec("SU", 2)
SU3 = CompactGroupSpec("SU", 3)
SO4 = CompactGroupSpec("SO", 4)

NAMED_TAGS = (
    [GroupType("cyclic", n) for n in range(1, 13)]
    + [GroupType("binary_dihedral", m) for m in range(2, 7)]
    + [
        GroupType("binary_tetrahedral", None),
        GroupType("binary_octahedral", None),
        GroupType("binary_icosahedral", None),
    ]
)


def _finish(num, name, limit, start, failures):
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit}s")
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {num:02d}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, "; ".join(failures)


def _random_clifford(ambient: int, rng) -> np.ndarray:
    """Equal-angle block rotation in a random orthonormal frame."""
    theta = rng.uniform(0.05, np.pi - 0.05)
    c, s = np.cos(theta), np.sin(theta)
    W = np.kron(np.eye(ambient // 2), np.array([[c, -s], [s, c]]))
    Q = haar_orthogonal(ambient, rng)
    return Q @ W @ Q.T


def test_criterion_01_group_orders():
    start, failures = time.perf_counter(), []
    for tag in NAMED_TAGS:
        group = named_binary_group(tag)
        if group.order != tag.expected_order():
            failures.append(f"{tag}: order {group.order} != {tag.expected_order()}")
        if classify(group) != tag:
            failures.append(f"classification does not round-trip {tag}")
    _finish(1, "group-orders", 1.0, start, failures)


def test_criterion_02_sl25_recognition():
    start, failures = time.perf_counter(), []
    istar = named_binary_group(GroupType("binary_icosahedral", None))
    if not is_sl25(istar):
        failures.append("binary icosahedral not recognized as SL(2,5)")
    for tag in (GroupType("binary_dihedral", 30), GroupType("cyclic", 120)):
        if is_sl25(named_binary_group(tag)):
            failures.append(f"{tag} wrongly recognized as SL(2,5)")
    table = special_linear_table(5)
    if table.shape != (120, 120):
        failures.append("SL(2,5) table has wrong size")
    ref = np.bincount(element_orders(table, table_identity(table)), minlength=121)
    tab_i = istar.multiplication_table()
    got = np.bincount(element_orders(tab_i, istar.identity_index), minlength=121)
    if not np.array_equal(ref, got):
        failures.append("order profile differs from the explicit SL(2,5) table")
    _finish(2, "sl25-recognition", 5.0, start, failures)


def test_criterion_03_clifford_criterion_soundness():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(3)
    disagreements = 0
    mats = []
    for ambient in (4, 6):
        mats += [haar_orthogonal(ambient, rng) for _ in range(1000)]
        mats += [_random_clifford(ambient, rng) for _ in range(25)]
    for tag in NAMED_TAGS:
        mats += [left_translation_matrix(q) for q in named_binary_group(tag).elements]
    for g in mats:
        exact, _ = is_clifford_sphere(g, tol=1e-9)
        sampled = sphere_displacement_profile(g, 1000, rng).gap <= 1e-7
        if exact != sampled:
            disagreements += 1
    if disagreements:
        failures.append(f"{disagreements} eigen/sampling disagreements")
    _finish(3, "clifford-soundness", 30.0, start, failures)


def test_criterion_04_space_form_battery():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(4)
    for tag in NAMED_TAGS:
        mats = [left_translation_matrix(q) for q in named_binary_group(tag).elements]
        if not is_free_on_sphere(mats).free:
            failures.append(f"{tag} does not act freely")
        for g in mats:
            if not is_clifford_sphere(g)[0]:
                failures.append(f"{tag} has a non-Clifford translation")
                break
    for k in range(2, 13):
        if not all(is_clifford_sphere(g)[0] for g in lens_group(k, (1, 1))):
            failures.append(f"lens({k};1,1) not all constant displacement")
    for k in (5, 7):
        gen = lens_group(k, (1, 2))[1]
        ok, _ = is_clifford_sphere(gen)
        gap = sphere_displacement_profile(gen, 1000, rng).gap
        if ok or gap <= 0.1:
            failures.append(f"lens({k};1,2) generator not flagged (gap {gap:.3f})")
    _finish(4, "space-form-battery", 10.0, start, failures)


def test_criterion_05_geodesic_slide():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(5)
    for ambient in (4, 6):
        for i in range(50):
            g = _random_clifford(ambient, rng)
            x = rng.normal(size=ambient)
            x /= np.linalg.norm(x)
            if not invariant_geodesic_check(g, x, grid=100, tol=1e-8):
                failures.append(f"slide failed on S^{ambient - 1} sample {i}")
    _finish(5, "geodesic-slide", 10.0, start, failures)


def test_criterion_06_translation_constancy_suite():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(6)
    for spec in (SU2, SU3, SO4):
        center = center_elements(spec)
        for i in range(200):
            g1, g2 = haar_sample(spec, rng), haar_sample(spec, rng)
            if i % 5 == 3:
                g1 = center[rng.integers(len(center))]
            elif i % 5 == 4:
                g2 = center[rng.integers(len(center))]
            res = is_constant_displacement_translation(
                spec, TwoSidedIsometry(g1, g2), tol=1e-7, samples=200, rng=rng
            )
            if not res.centrality.agrees_with_sampling:
                failures.append(f"{spec}: verdict/centrality mismatch at trial {i}")
                break
        for _ in range(3):
            iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), inverted=True)
            val, _ = min_displacement(spec, iso, rng=rng)
            if val > 1e-6:
                failures.append(f"{spec}: inverted min displacement {val:.2e}")
    _finish(6, "translation-constancy", 60.0, start, failures)


def test_criterion_07_biinvariant_distance():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(7)
    d = biinvariant_distance(SU2, np.eye(2), -np.eye(2))
    if abs(d - np.pi * np.sqrt(2.0)) > 1e-9:
        failures.append(f"d(I,-I) = {d!r}")
    for i in range(1000):
        g, h, k, a, b = (haar_sample(SU2, rng) for _ in range(5))
        if biinvariant_distance(SU2, g, k) > (
            biinvariant_distance(SU2, g, h) + biinvariant_distance(SU2, h, k) + 1e-9
        ):
            failures.append(f"triangle inequality fails at triple {i}")
            break
        if abs(
            biinvariant_distance(SU2, a @ g @ b, a @ h @ b)
            - biinvariant_distance(SU2, g, h)
        ) > 1e-9:
            failures.append(f"bi-invariance fails at triple {i}")
            break
    _finish(7, "biinvariant-distance", 10.0, start, failures)


def test_criterion_08_killing_profiles():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(8)
    for spec in (SU2, SU3, SO4):
        space = group_space(spec)
        for _ in range(5):
            xi = random_algebra_element(spec, rng, unit=True)
            prof = killing_length_profile(space, xi, samples=100, rng=rng)
            if prof.relative_gap > 1e-8:
                failures.append(f"{spec} field not constant ({prof.relative_gap:.2e})")
    for m in (1, 2):
        space = hopf_sphere_space(m)
        d = u1_centralizer_direction(m + 1, m)
        prof = killing_length_profile(space, None, samples=150, rng=rng, right=d)
        if prof.gap > 1e-6:
            failures.append(f"hopf-{m} fiber field gap {prof.gap:.2e}")
    space = so5_so3_space()
    for i in range(50):
        xi = random_algebra_element(space.group, rng, unit=True)
        prof = killing_length_profile(space, xi, samples=150, rng=rng)
        if prof.relative_gap <= 1e-3:
            failures.append(f"direction {i} looks constant on the 7-manifold")
            break
    _finish(8, "killing-profiles", 60.0, start, failures)


def test_criterion_09_euler_characteristics():
    start, failures = time.perf_counter(), []
    closed = {
        ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
        ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
        ("C", 3): 48, ("D", 4): 192, ("G2", 2): 12,
    }
    for (series, rank), expected in closed.items():
        got = weyl_group_order(series, rank)
        if got != expected:
            failures.append(f"|W({series}{rank})| = {got} != {expected}")
    if euler_characteristic(("A", 2), [("T", 2)]) != 6:
        failures.append("chi of the full flag of SU(3) wrong")
    if euler_characteristic(("A", 2), [("A", 1), ("T", 1)]) != 3:
        failures.append("chi of the complex projective plane wrong")
    if euler_characteristic(("B", 2), [("B", 1)]) is not NOT_EQUAL_RANK:
        failures.append("rank-deficient isotropy not flagged")
    _finish(9, "euler-characteristics", 5.0, start, failures)


def test_criterion_10_berger_dimensions():
    start, failures = time.perf_counter(), []
    dims = [
        berger_right_isometry_algebra(1.0, 1.0).dimension,
        berger_right_isometry_algebra(0.5, 1.0).dimension,
        berger_right_isometry_algebra(0.3, 0.7).dimension,
    ]
    if dims != [3, 1, 0]:
        failures.append(f"dimensions {dims} != [3, 1, 0]")
    _finish(10, "berger-dimensions", 1.0, start, failures)


def test_criterion_11_homogeneity_pipeline():
    start, failures = time.perf_counter(), []
    decks = {
        "lens(5;1,1)": sphere_deck(lens_group(5, (1, 1))),
        "antipodal": sphere_deck([np.eye(4), -np.eye(4)]),
        "binary-dihedral-3": sphere_deck_from_quaternions(
            named_binary_group(GroupType("binary_dihedral", 3))
        ),
        "binary-tetrahedral": sphere_deck_from_quaternions(
            named_binary_group(GroupType("binary_tetrahedral", None))
        ),
        "binary-octahedral": sphere_deck_from_quaternions(
            named_binary_group(GroupType("binary_octahedral", None))
        ),
        "binary-icosahedral": sphere_deck_from_quaternions(
            named_binary_group(GroupType("binary_icosahedral", None))
        ),
    }
    config = VerifyConfig()
    for name, deck in decks.items():
        report = verify_instance(deck, config=config)
        pts, min_rank, dim = report.transitivity
        if report.verdict != HOMOGENEOUS_WITNESS_FOUND:
            failures.append(f"{name}: verdict {report.verdict}")
        elif pts != 1 or min_rank != dim:
            failures.append(f"{name}: rank {min_rank}/{dim} at {pts} points")
    bad = sphere_deck(lens_group(5, (1, 2)))
    report = verify_instance(bad, config=config)
    if report.verdict != NOT_CONSTANT_DISPLACEMENT:
        failures.append(f"lens(5;1,2): verdict {report.verdict}")
    Z = centralizer_algebra(bad, sphere_ambient_basis(4))
    rank, dim = transitivity_rank(Z, bad.model)
    if not rank <= 2 < dim:
        failures.append(f"lens(5;1,2): centralizer rank {rank}, dim {dim}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["check-homogeneity", "--model", "s3", "--group",
                         "binary-icosahedral", "--seed", "42"])
    if code != 0:
        failures.append("documented CLI invocation did not exit 0")
    _finish(11, "homogeneity-pipeline", 60.0, start, failures)


def test_criterion_12_noncompact_probes():
    start, failures = time.perf_counter(), []
    rng = np.random.default_rng(12)
    for i in range(100):
        dim = int(rng.integers(2, 5))
        if i % 2 == 0:
            rot = np.eye(dim)
        else:
            rot = haar_orthogonal(dim, rng)
            if np.max(np.abs(rot - np.eye(dim))) <= 1e-10:
                rot = -np.eye(dim)  # haar draw landed on the identity
        motion = EuclideanMotion(rot, rng.normal(size=dim))
        bounded, _ = euclidean_bounded(motion)
        if bounded != bool(np.max(np.abs(rot - np.eye(dim))) <= 1e-10):
            failures.append(f"euclidean verdict wrong at motion {i}")
            break
    for i in range(100):
        m = rng.normal(size=(2, 2))
        while abs(np.linalg.det(m)) < 0.1:
            m = rng.normal(size=(2, 2))
        m /= np.sqrt(abs(np.linalg.det(m)))
        if np.linalg.det(m) < 0:
            m[0] = -m[0]
        if min(np.max(np.abs(m - np.eye(2))), np.max(np.abs(m + np.eye(2)))) <= 1e-8:
            continue
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
        if not all(b > a for a, b in zip(sups, sups[1:])):
            failures.append(f"sup schedule not strictly increasing at motion {i}")
            break
    for sign in (1.0, -1.0):
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(sign * np.eye(2)))
        if any(s != 0.0 for s in sups):
            failures.append("central motion has nonzero displacement")
    _finish(12, "noncompact-probes", 10.0, start, failures)
