"""End-to-end acceptance battery.

Eight criteria, each printing one verdict line so a plain pytest run leaves
a visible scoreboard.  Two clauses are recorded as expected failures because
exhaustive computation contradicts them; the tests call pytest.xfail only
after checking the facts, so they flip to green automatically if either
clause ever starts to hold.
"""

from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from time import perf_counter

import pytest

from fflv import (
    DominantWeight,
    Permutation,
    Root,
    RootSubset,
    all_permutations,
    all_positive_roots,
    build_highest_weight_module,
    build_inequalities,
    character_from_lattice_points,
    count_integer_points,
    degree_histogram,
    demazure_character_oracle,
    demazure_submodule,
    enumerate_lattice_points,
    essential_monomials,
    fundamental_weight,
    inversion_roots,
    is_kempf,
    is_triangular_element,
    is_triangular_subset,
    marked_chain_points,
    marked_order_points,
    minkowski_sum,
    pbw_filtration_profile,
    rho,
    subset_submodule,
    UnboundedFaceError,
    verify_monomial_basis,
    weyl_dimension,
)

from cartan_component import cartan_component_dimension


def report(capsys, num, name, status, elapsed, budget=None):
    timing = f"{elapsed:.2f}s" if budget is None else f"{elapsed:.2f}s of {budget:.0f}s budget"
    with capsys.disabled():
        print(f"[PRIMARY] criterion {num} ({name}): {status} ({timing})")


def finish(capsys, num, name, problems, t0, budget=None):
    elapsed = perf_counter() - t0
    status = "PASS" if not problems else "FAIL"
    report(capsys, num, name, status, elapsed, budget)
    assert not problems, "; ".join(problems[:5])
    if budget is not None:
        assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget}s"


def triangular_elements(n):
    return [w for w in all_permutations(n) if is_triangular_element(w)]


def all_subsets(n):
    roots = all_positive_roots(n)
    for k in range(len(roots) + 1):
        for combo in combinations(roots, k):
            yield RootSubset.of(n, combo)


def test_criterion_1_triangular_kempf_sweep(capsys):
    t0 = perf_counter()
    problems = []
    for n in (3, 4):
        for w in all_permutations(n):
            if is_kempf(w) and not is_triangular_element(w):
                problems.append(f"Kempf but not triangular: {w}")
    w1 = Permutation.from_word((1, 3, 2), 3)
    if is_triangular_element(w1):
        problems.append(f"{w1} should not be triangular")
    w2 = Permutation.from_word((2, 3, 1), 3)
    if not is_triangular_element(w2) or is_kempf(w2):
        problems.append(f"{w2} should be triangular and not Kempf")
    expected = {Root(1, 1), Root(3, 3), Root(1, 3)}
    if set(inversion_roots(w2).members) != expected:
        problems.append(f"inversion set of {w2} is {inversion_roots(w2).members}")
    finish(capsys, 1, "triangular and Kempf sweep", problems, t0, budget=1.0)


def test_criterion_2_element_subset_agreement(capsys):
    t0 = perf_counter()
    problems = []
    for w in all_permutations(4):
        if is_triangular_element(w) != is_triangular_subset(inversion_roots(w)):
            problems.append(f"classifications disagree at {w}")
    finish(capsys, 2, "element vs subset triangularity", problems, t0)


def test_criterion_3_lattice_count_is_weyl_dimension(capsys):
    t0 = perf_counter()
    problems = []
    for n in (2, 3):
        full = RootSubset.full(n)
        for coeffs in product(range(3), repeat=n):
            lam = DominantWeight(coeffs)
            count = len(enumerate_lattice_points(full, lam))
            if count != weyl_dimension(lam):
                problems.append(f"{coeffs}: {count} != {weyl_dimension(lam)}")
    lam = rho(4)
    count = len(enumerate_lattice_points(RootSubset.full(4), lam))
    if count != weyl_dimension(lam) or count != 1024:
        problems.append(f"rank 4 staircase weight: {count}")
    finish(capsys, 3, "point counts vs dimension formula", problems, t0, budget=10.0)


def test_criterion_4_minkowski_additivity(capsys):
    t0 = perf_counter()
    problems = []
    weights = [fundamental_weight(k, 3) for k in (1, 2, 3)] + [rho(3)]
    for w in triangular_elements(3):
        A = inversion_roots(w)
        cached = {lam: enumerate_lattice_points(A, lam) for lam in weights}
        for lam, mu in combinations_with_replacement(weights, 2):
            left = minkowski_sum(cached[lam], cached[mu])
            if left != enumerate_lattice_points(A, lam + mu):
                problems.append(f"{w}: sum failed at {lam.coeffs}+{mu.coeffs}")
        for lam in weights:
            for k in (2, 3):
                if (reduce(minkowski_sum, [cached[lam]] * k)
                        != enumerate_lattice_points(A, lam.scale(k))):
                    problems.append(f"{w}: {k}-fold sum failed at {lam.coeffs}")
    finish(capsys, 4, "Minkowski additivity of faces", problems, t0, budget=60.0)


def test_criterion_5_marked_poset_counts(capsys):
    t0 = perf_counter()
    budget = 60.0
    problems = []
    lam = rho(3)
    for w in triangular_elements(3):
        A = inversion_roots(w)
        chain = len(marked_chain_points(A, lam))
        if chain != len(enumerate_lattice_points(A, lam)):
            problems.append(f"chain count differs from face count at {w}")
    for A in all_subsets(3):
        for t in (1, 2, 3):
            nu = lam.scale(t)
            if len(marked_chain_points(A, nu)) != len(marked_order_points(A, nu)):
                problems.append(f"chain/order counts differ, t={t}, A={sorted(A.members)}")

    # Converse direction of the characterization: does count equality force
    # triangularity?  Sweep every subset at a regular weight.
    equal_but_not_triangular = []
    for A in all_subsets(3):
        if is_triangular_subset(A):
            continue
        try:
            face = len(enumerate_lattice_points(A, lam))
        except UnboundedFaceError:
            continue
        chain = len(marked_chain_points(A, lam))
        if chain == face:
            equal_but_not_triangular.append(tuple(r.label for r in A.sorted_roots()))

    elapsed = perf_counter() - t0
    if problems or equal_but_not_triangular:
        report(capsys, 5, "marked poset counts", "FAIL", elapsed, budget)
    else:
        report(capsys, 5, "marked poset counts", "PASS", elapsed, budget)
    assert not problems, "; ".join(problems[:5])
    assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget}s"
    if equal_but_not_triangular:
        with capsys.disabled():
            print(f"    count equality does not imply triangularity: "
                  f"{len(equal_but_not_triangular)} of 64 subsets agree anyway, "
                  f"smallest {equal_but_not_triangular[0]}")
        pytest.xfail("count equality holds for non-triangular subsets as well")


def test_criterion_6_character_comparison(capsys):
    t0 = perf_counter()
    budget = 30.0
    problems = []
    lam4 = rho(3)
    for w in triangular_elements(3):
        S = enumerate_lattice_points(inversion_roots(w), lam4)
        if character_from_lattice_points(S, lam4, w) != demazure_character_oracle(w, lam4):
            problems.append(f"characters differ at {w}")
    for w in all_permutations(2):
        for coeffs in ((1, 1), (2, 1), (2, 2)):
            lam = DominantWeight(coeffs)
            S = enumerate_lattice_points(inversion_roots(w), lam)
            if character_from_lattice_points(S, lam, w) != demazure_character_oracle(w, lam):
                problems.append(f"characters differ at {w}, {coeffs}")

    # The smallest non-triangular element is supposed to witness a strict
    # count deficit at the staircase weight; measure it.
    w = Permutation.from_word((1, 3, 2), 3)
    A = inversion_roots(w)
    face = len(enumerate_lattice_points(A, lam4))
    oracle_mass = demazure_character_oracle(w, lam4).mass
    deficit_witnessed = face < oracle_mass

    elapsed = perf_counter() - t0
    status = "PASS" if not problems and deficit_witnessed else "FAIL"
    report(capsys, 6, "character comparison", status, elapsed, budget)
    assert not problems, "; ".join(problems[:5])
    assert elapsed <= budget, f"took {elapsed:.2f}s, budget {budget}s"
    if not deficit_witnessed:
        with capsys.disabled():
            print(f"    no deficit: face count {face} equals oracle mass {oracle_mass} "
                  f"for the non-triangular witness")
        pytest.xfail("expected a strict count deficit; the counts are equal")


def test_criterion_7_module_bases(capsys):
    t0 = perf_counter()
    problems = []

    def battery(module, w, lam):
        A = inversion_roots(w)
        S = enumerate_lattice_points(A, lam)
        # The profile's last entry is the lowering closure's dimension.
        dims = pbw_filtration_profile(module, A)
        rep = verify_monomial_basis(module, S, dims[-1])
        if not rep.ok:
            problems.append(f"monomials fail at {w}, {lam.coeffs}: {rep}")
        dem = demazure_submodule(module, w).dimension
        if not (rep.submodule_dimension == dem == rep.lattice_points):
            problems.append(
                f"dimension mismatch at {w}, {lam.coeffs}: "
                f"{rep.submodule_dimension}, {dem}, {rep.lattice_points}")
        incs = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
        hist = degree_histogram(S)
        if incs != [hist.get(d, 0) for d in range(max(hist) + 1)]:
            problems.append(f"graded profile mismatch at {w}, {lam.coeffs}")

    for coeffs in ((1, 1), (2, 1)):
        lam = DominantWeight(coeffs)
        module = build_highest_weight_module(lam)
        for w in triangular_elements(2):
            battery(module, w, lam)
    lam = rho(3)
    module = build_highest_weight_module(lam)
    for w in triangular_elements(3):
        battery(module, w, lam)
    finish(capsys, 7, "module monomial bases", problems, t0, budget=300.0)


def test_criterion_8_essential_monomials_and_products(capsys):
    t0 = perf_counter()
    problems = []
    for lam in (fundamental_weight(1, 2), DominantWeight((1, 1))):
        module = build_highest_weight_module(lam)
        for A in all_subsets(2):
            if not is_triangular_subset(A):
                continue
            S = enumerate_lattice_points(A, lam)
            if essential_monomials(module, A, subset_submodule(module, A).weights) != S:
                problems.append(f"essential != points, {lam.coeffs}, "
                                f"A={[r.label for r in A.sorted_roots()]}")
            doubled = len(enumerate_lattice_points(A, lam.scale(2)))
            if cartan_component_dimension(lam, lam, A) != doubled:
                problems.append(f"product component mismatch, {lam.coeffs}, "
                                f"A={[r.label for r in A.sorted_roots()]}")
    finish(capsys, 8, "essential monomials and products", problems, t0, budget=60.0)


@pytest.mark.slow
def test_face_counts_are_demazure_dimensions_at_rank5():
    """The Hilbert-function side of the flat degeneration at rank 5: for
    each of the 366 triangular elements and t = 1, 2, the face at t rho(5)
    has dim V_w(t rho(5)) lattice points.  Counted without listing them;
    about 25 s, nearly all of it the character oracle."""
    elements = triangular_elements(5)
    assert len(elements) == 366
    for t in (1, 2):
        lam = rho(5).scale(t)
        for w in elements:
            A = inversion_roots(w)
            count = count_integer_points(5, A.sorted_roots(), build_inequalities(A, lam))
            assert count == demazure_character_oracle(w, lam).mass, (w, t)
