"""Schur polynomials and the Miwa-determinant oracle."""

import random
from collections import Counter
from functools import lru_cache
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (as_rational, coefficient, fails_its_property, mutant, partitions, poly_term,
                      rescale_skipped)
from bgwtau import schur
from bgwtau.algebra import (
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    add_into,
    parse_polynomial,
    weighted_degree,
)
from bgwtau.cutjoin import check_expansion_invariants, tau_expand
from bgwtau.operators import n_coeff
from bgwtau.rational import QQ
from bgwtau.schur import plucker_expansion, schur_in_times, tau_from_schur
from bgwtau.verify import constraint_suite
from bgwtau.zcalculus import phi_terms

P = parse_polynomial


# ---------------------------------------------------------------------------
# Jacobi-Trudi: the independent reference for schur_in_times


@lru_cache(maxsize=None)
def complete_homogeneous(n: int) -> TimePolynomial:
    """Elementary Schur function p_n: exp(sum t_k z^k) = sum p_n z^n, via
    n p_n = sum_{k=1..n} k t_k p_{n-k}."""
    if n < 0:
        return TimePolynomial.zero()
    if n == 0:
        return TimePolynomial.one()
    acc = TimePolynomial.zero()
    for k in range(1, n + 1):
        acc = acc + poly_term(QQ(k, n), TimeMonomial.var(k)) * complete_homogeneous(n - k)
    return acc


def jacobi_trudi(mu) -> TimePolynomial:
    """det( p_{mu_i - i + j} ) by Laplace expansion along the rows."""
    r = len(mu)
    rows = [[complete_homogeneous(mu[i] - i + j) for j in range(r)] for i in range(r)]

    @lru_cache(maxsize=None)
    def minor(cols: frozenset) -> TimePolynomial:
        i = r - len(cols)
        if not cols:
            return TimePolynomial.one()
        acc = TimePolynomial.zero()
        for sgn, j in zip((1, -1) * r, sorted(cols)):
            entry = rows[i][j]
            if not entry:
                continue
            acc = acc + (entry * minor(cols - {j})).scale(sgn)
        return acc

    return minor(frozenset(range(r)))


# ---------------------------------------------------------------------------
# Characters and one Schur polynomial per mu: the reference for the vector
# walk of schur_in_times


def rim_hooks(mu, k) -> list:
    """Every (nu, odd): nu is left after removing a rim hook of length k
    from mu, odd whether its height is odd.  On the beta-set {mu_i + r - i}
    a rim hook of length k is a bead moved from b down to an empty place
    b - k; its height is the number of beads it passes."""
    r = len(mu)
    beta = [p + r - 1 - i for i, p in enumerate(mu)]
    out = []
    for b in beta:
        if b < k or b - k in beta:
            continue
        moved = sorted([x for x in beta if x != b] + [b - k], reverse=True)
        nu = tuple(p for p in (x - r + 1 + i for i, x in enumerate(moved)) if p)
        out.append((nu, sum(b - k < x < b for x in beta) % 2 == 1))
    return out


@lru_cache(maxsize=None)
def character(mu, lam) -> int:
    """Irreducible character chi^mu at cycle type lam (|mu| = |lam|) by
    Murnaghan-Nakayama: remove a rim hook of length lam[0] from mu in every
    way, with sign (-1)^height, and recurse on lam[1:]."""
    if not lam:
        return 1
    total = 0
    for nu, odd in rim_hooks(mu, lam[0]):
        chi = character(nu, lam[1:])
        total += -chi if odd else chi
    return total


@lru_cache(maxsize=None)
def schur_reference(mu) -> TimePolynomial:
    """s_mu with p_k = k t_k: the coefficient of t^lam is
    chi^mu(lam) prod(lam_i) / z_lam = chi^mu(lam) / prod_k m_k(lam)!."""
    out = TimePolynomial.zero()
    for lam in partitions(sum(mu)):
        chi = character(mu, lam)
        if chi:
            mult = sorted(Counter(lam).items())
            z = prod(factorial(e) for _, e in mult)
            out.terms[TimeMonomial(mult)] = Coefficient.rational(QQ(chi, z))
    return out


def combination_reference(vec: dict) -> TimePolynomial:
    """sum_mu vec[mu] s_mu, one reference Schur polynomial per mu."""
    out: dict = {}
    for mu, c in vec.items():
        for mono, c0 in schur_reference(mu).terms.items():
            add_into(out, mono, c0 * c)
    return TimePolynomial(out)


def tau_reference(table) -> list[TimePolynomial]:
    """tau_k = sum_{|mu| = m k} C_mu (h-stripped) s_mu, per mu."""
    m, K = table.m, table.degree // table.m
    vecs = [{} for _ in range(K + 1)]
    for mu, c in table.table.items():
        k = sum(mu) // m
        if k <= K:
            vecs[k][mu] = c.h_part(k)
    return [combination_reference(v) for v in vecs]


def s(mu) -> TimePolynomial:
    """One Schur polynomial through the vector walk."""
    return schur_in_times({tuple(mu): Coefficient.one()})


def test_schur_in_times_matches_jacobi_trudi():
    """Each single-entry vector gives s_mu, and one vector per n holding
    every mu of n with distinct coefficients gives their combination."""
    for n in range(11):
        whole, want = {}, TimePolynomial.zero()
        for i, mu in enumerate(partitions(n)):
            jt = jacobi_trudi(mu)
            assert s(mu) == jt, f"s_{mu}"
            c = Coefficient.rational(QQ(2 * i + 3, i + 1))
            whole[mu] = c
            want = want + jt.scale(c)
        assert schur_in_times(whole) == want, f"n={n}"


def test_character_table_s4():
    """chi^mu(lam) for S_4, rows mu = (4), (3,1), (2,2), (2,1,1), (1,1,1,1)
    over lam = (4), (3,1), (2,2), (2,1,1), (1,1,1,1)."""
    lams = list(partitions(4))
    table = [[character(mu, lam) for lam in lams] for mu in partitions(4)]
    assert table == [
        [1, 1, 1, 1, 1],
        [-1, 0, -1, 1, 3],
        [0, -1, 2, 0, 2],
        [1, 0, -1, -1, 3],
        [-1, 1, 1, -1, 1],
    ]


def test_character_reference_matches_jacobi_trudi():
    for n in range(9):
        for mu in partitions(n):
            assert schur_reference(mu) == jacobi_trudi(mu), f"s_{mu}"


def test_schur_in_times_of_the_empty_vector_and_of_mixed_sizes():
    assert schur_in_times({}) == TimePolynomial.zero()
    assert schur_in_times({(): Coefficient.one()}) == TimePolynomial.one()
    with pytest.raises(ValueError, match="one size"):
        schur_in_times({(2,): Coefficient.one(), (1,): Coefficient.one()})


_atoms = st.tuples(st.integers(-9, 9), st.integers(1, 5), st.integers(-2, 2),
                   st.integers(0, 2), st.integers(0, 2))


def _coefficient(atoms) -> Coefficient:
    out = Coefficient()
    for p, q, h, n, j in atoms:
        out = out + Coefficient.monomial(QQ(p, q), h=h, n=n, j=j)
    return out


_vectors = st.integers(0, 9).flatmap(lambda n: st.dictionaries(
    st.sampled_from(list(partitions(n))),
    st.lists(_atoms, min_size=1, max_size=3).map(_coefficient), max_size=6))


@settings(max_examples=60, deadline=None)
@given(_vectors)
@example({(): Coefficient()})
def test_vector_walk_matches_the_per_mu_reference(vec):
    """Sparse C vectors over mu of one size n <= 9, with rational and
    symbolic (h, N, j) coefficients whose denominators 1..5 need not divide
    one another, and zero entries."""
    assert schur.schur_in_times(vec) == combination_reference(vec)


def test_the_vector_walk_property_sees_a_walk_without_the_common_denominator(monkeypatch):
    """Negative control: a walk that reads each entry's numerators without
    bringing them over the common denominator D fails the property above."""
    monkeypatch.setattr(schur, "schur_in_times",
                        mutant(schur_in_times, "x * (D // c.den)", "x"))
    assert fails_its_property(test_vector_walk_matches_the_per_mu_reference, _vectors)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [0, QQ(7, 11), "symbolic"])
def test_tau_from_schur_matches_the_per_mu_reference(m, N):
    for degree in range(11):
        table = plucker_expansion(m, N, degree)
        assert tau_from_schur(table).coeffs == tau_reference(table), degree


_small_partitions = st.integers(0, 12).flatmap(lambda n: st.sampled_from(list(partitions(n))))


@settings(max_examples=200, deadline=None)
@given(_small_partitions, st.integers(0, 4), st.integers(1, 13))
def test_hook_moves_do_not_depend_on_the_number_of_beads(mu, extra, k):
    """The moves of the beta-set mask of mu on R = len(mu) + extra beads,
    each decoded to its partition, are the rim hooks of mu with their signs
    whatever R: the walk holds every mu of one vector on the longest length
    among them."""
    R = len(mu) + extra
    beads = sum(1 << (p + R - 1 - i) for i, p in enumerate(mu + (0,) * extra))
    moves = [(schur._partition(b), odd) for b, odd in schur._hook_moves(beads, k)]
    assert sorted(moves) == sorted(rim_hooks(mu, k))


def test_a_flipped_hook_sign_is_seen(monkeypatch):
    """One hook move with its sign flipped, the first 1-hook move out of the
    mask that decodes to (2, 1), moves tau off the reference, and at m = 3
    the oracle's own checks see it too."""
    true_moves = schur._hook_moves

    def flipped(beads, k):
        moves = true_moves(beads, k)
        if k == 1 and schur._partition(beads) == (2, 1):
            (first, odd), *rest = moves
            return ((first, not odd), *rest)
        return moves

    monkeypatch.setattr(schur, "_hook_moves", flipped)
    table = plucker_expansion(3, 0, 9)
    bad = tau_from_schur(table)
    assert bad.coeffs != tau_reference(table)
    assert not (check_expansion_invariants(bad).ok and constraint_suite(3, 0, bad).ok)


def test_complete_homogeneous_basics():
    assert complete_homogeneous(0) == TimePolynomial.one()
    assert complete_homogeneous(1) == P("1/1*t1")
    assert complete_homogeneous(2) == P("1/2*t1^2+1/1*t2")


def test_generating_function_inverse():
    """sum p_n(t) x^n * sum p_n(-t) x^n = 1 through degree 8."""
    neg = {}
    for n in range(9):
        neg[n] = TimePolynomial.zero()
        for mono, c in complete_homogeneous(n).terms.items():
            sign = (-1) ** sum(e for _, e in mono.exps)
            neg[n] = neg[n] + poly_term(c.scale(sign), mono)
    for n in range(1, 9):
        acc = TimePolynomial.zero()
        for a in range(n + 1):
            acc = acc + complete_homogeneous(a) * neg[n - a]
        assert not acc, f"degree {n}"


def test_schur_examples():
    assert s((1,)) == P("1/1*t1")
    assert s((1, 1)) == P("1/2*t1^2-1/1*t2")
    assert s((2,)) == P("1/2*t1^2+1/1*t2")


def test_schur_homogeneity():
    for n in range(1, 11):
        for mu in partitions(n):
            assert weighted_degree(s(mu)) == n


def test_plucker_degree_zero():
    table = plucker_expansion(2, 0, 0, points=3)
    assert table.table == {(): Coefficient.one()}


def test_plucker_first_coefficients_m2():
    table = plucker_expansion(2, 0, 2, points=4)
    combo = schur_in_times({mu: coefficient(table, mu).h_part(1) for mu in ((2,), (1, 1))})
    assert combo == P("1/3*t2")


def test_plucker_support():
    for m in (2, 3):
        table = plucker_expansion(m, 0, 2 * m + m, points=3 * m)
        for mu in table.table:
            assert sum(mu) % m == 0


def test_plucker_m_stability():
    a = plucker_expansion(2, 0, 6)
    b = plucker_expansion(2, 0, 6, points=9)
    keys = {mu for mu in a.table} | {mu for mu in b.table if sum(mu) <= 6}
    for mu in keys:
        assert coefficient(a, mu) == coefficient(b, mu), f"C_{mu}"


def test_oracle_matches_recursion_m2():
    T = tau_from_schur(plucker_expansion(2, 0, 6))
    R = tau_expand(2, 0, 3)
    for k in range(4):
        assert T.coeffs[k] == R.coeffs[k]


def test_oracle_matches_recursion_m1():
    T = tau_from_schur(plucker_expansion(1, 0, 6))
    R = tau_expand(1, 0, 6)
    for k in range(7):
        assert T.coeffs[k] == R.coeffs[k]


def test_oracle_matches_recursion_m1_symbolic():
    for D in (3, 12, 16):
        T = tau_from_schur(plucker_expansion(1, "symbolic", D))
        R = tau_expand(1, "symbolic", D)
        for k in range(D + 1):
            assert T.coeffs[k] == R.coeffs[k], f"D={D} k={k}"


def test_oracle_matches_recursion_rational_n():
    for m, nval in ((1, QQ(1, 2)), (1, QQ(-2, 3)), (2, QQ(1, 2)), (2, QQ(-2, 3))):
        D = 6
        T = tau_from_schur(plucker_expansion(m, nval, D))
        R = tau_expand(m, nval, D // m)
        for k in range(D // m + 1):
            assert T.coeffs[k] == R.coeffs[k], f"m={m} N={nval} k={k}"


def test_oracle_m3_invariants():
    T = tau_from_schur(plucker_expansion(3, 0, 8, points=8))
    assert check_expansion_invariants(T).ok
    assert T.coeffs[1] and T.coeffs[2]


def test_oracle_m3_degree_21_passes_its_checks():
    """At m = 3 the oracle is the only route to tau: through degree 21 it
    keeps the (m+1)-reduction and every W3 constraint case."""
    T = tau_from_schur(plucker_expansion(3, 0, 21))
    assert check_expansion_invariants(T).ok
    rep = constraint_suite(3, 0, T)
    assert rep.ok and len(rep.cases) == 18


def test_oracle_matches_recursion_m2_through_degree_20():
    T = tau_from_schur(plucker_expansion(2, 0, 20))
    assert T.coeffs == tau_expand(2, 0, 10).coeffs


class EpsSeries:
    """Truncated univariate power series over exact rationals (test-local,
    used to grade the determinant ratio by total x-degree)."""

    def __init__(self, coeffs, order):
        self.c = list(coeffs) + [QQ(0)] * (order + 1 - len(coeffs))
        self.order = order

    def __add__(self, o):
        return EpsSeries([a + b for a, b in zip(self.c, o.c)], self.order)

    def __sub__(self, o):
        return EpsSeries([a - b for a, b in zip(self.c, o.c)], self.order)

    def __mul__(self, o):
        out = [QQ(0)] * (self.order + 1)
        for i, a in enumerate(self.c):
            if not a:
                continue
            for k, b in enumerate(o.c[: self.order + 1 - i]):
                out[i + k] += a * b
        return EpsSeries(out, self.order)


def eval_times(p: TimePolynomial, values: dict[int, object]) -> Coefficient:
    """Evaluate p at rational time values (all variables must be bound)."""
    out = Coefficient()
    for m, c in p.terms.items():
        q = QQ(1)
        for k, e in m:
            if k not in values:
                raise KeyError(f"no value for t{k}")
            q = q * QQ(values[k]) ** e
        out = out + c.scale(q)
    return out


def test_miwa_point_consistency():
    """Evaluating the Schur expansion at 3 rational Miwa points matches the
    graded determinant ratio det(x_i^(M-j) f_j(eps x_i)) / Vandermonde."""
    m, D, M = 2, 6, 3
    rng = random.Random(3)
    xs = [QQ(rng.randint(1, 9), rng.randint(10, 19)) for _ in range(M)]
    table = plucker_expansion(m, 0, D)

    lhs = [QQ(0)] * (D + 1)
    for mu, c in table.table.items():
        w = sum(mu)
        if w > D or len(mu) > M:
            continue
        tvals = {k: sum(x ** k for x in xs) / k for k in range(1, w + 1)}
        val = as_rational(eval_times(s(mu), tvals))
        coeff = as_rational(c.h_part(w // m))
        lhs[w] += coeff * val

    cj = [[as_rational(c.h_part(k))
           for k, c in enumerate(phi_terms(m, D // m, Coefficient.rational(j + 1)))]
          for j in range(M)]
    vdm_degree = M * (M - 1) // 2
    order = D + vdm_degree
    rows = []
    for i in range(M):
        row = []
        for j in range(M):
            f = [QQ(0)] * (order + 1)
            for k, q in enumerate(cj[j]):
                if m * k <= order:
                    f[m * k] = q * xs[i] ** (m * k)
            ser = EpsSeries(f, order)
            xpow = EpsSeries([xs[i] ** (M - 1 - j)], order)
            shift = [QQ(0)] * (order + 1)
            shift[M - 1 - j] = QQ(1)
            row.append(ser * xpow * EpsSeries(shift, order))
        rows.append(row)
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    vdm = (xs[0] - xs[1]) * (xs[0] - xs[2]) * (xs[1] - xs[2])
    for w in range(D + 1):
        got = det.c[w + vdm_degree] / vdm
        assert got == lhs[w], f"degree {w}: {got} != {lhs[w]}"


def test_plucker_rejects_insufficient_points():
    with pytest.raises(ValueError, match="insufficient Miwa points"):
        plucker_expansion(2, 0, 6, points=4)


def _frobenius(mu):
    """Frobenius coordinates (alpha | beta) of mu: alpha_i = mu_i - i,
    beta_i = mu'_i - i over the diagonal (0-based i, so hooks are (a|b))."""
    conj = [sum(1 for p in mu if p > i) for i in range(mu[0] if mu else 0)]
    d = sum(1 for i, p in enumerate(mu) if p > i)
    return [mu[i] - i - 1 for i in range(d)], [conj[i] - i - 1 for i in range(d)]


def _det(rows) -> Coefficient:
    """Leibniz determinant over Coefficient entries."""
    total = Coefficient()
    for perm in permutations(range(len(rows))):
        inv = sum(perm[i] > perm[k] for i in range(len(perm)) for k in range(i + 1, len(perm)))
        term = Coefficient.one()
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + (-term if inv % 2 else term)
    return total


def giambelli_failures(table) -> list:
    """Every mu, |mu| <= degree, with at least two Frobenius hooks where
    C_(alpha|beta) != det[C_(alpha_i|beta_j)], hook (a|b) = (a+1, 1^b)."""
    bad = []
    for n in range(table.degree + 1):
        for mu in partitions(n):
            alpha, beta = _frobenius(mu)
            if len(alpha) < 2:
                continue
            rows = [[coefficient(table, (a + 1,) + (1,) * b) for b in beta] for a in alpha]
            if _det(rows) != coefficient(table, mu):
                bad.append(mu)
    return bad


@pytest.mark.parametrize("m,N,degree", [(2, 0, 10), (3, 0, 12), (2, "symbolic", 8),
                                         (1, QQ(1, 2), 8)])
def test_oracle_tables_satisfy_giambelli(m, N, degree):
    """A KP tau-function with C_() = 1 is a point of the big cell of the
    Sato Grassmannian, so its Schur coefficients are the determinants of its
    hook coefficients (all Pluecker relations at once)."""
    table = plucker_expansion(m, N, degree)
    assert coefficient(table, ()) == Coefficient.one()
    assert giambelli_failures(table) == []


def test_giambelli_detects_a_corrupted_hook():
    table = plucker_expansion(2, 0, 8)
    table.table[(2,)] = coefficient(table, (2,)) + Coefficient.monomial(1, h=1)
    assert (2, 2) in giambelli_failures(table)


# ---------------------------------------------------------------------------
# The depth-first walk over column exponent tuples: the reference for the
# column pass of plucker_expansion


def plucker_dfs(m: int, N, degree: int, points: int | None = None) -> dict:
    """C_mu for |mu| <= degree, term by term: every tuple of column
    exponents b_j = M - 1 - j + l_j (l_j in {0, m, 2m, ...}, all distinct)
    adds the sign of its sorting permutation times prod_j c_{j, l_j} to C_mu,
    mu_i = b_(i) - (M - 1 - i) over the b_j sorted in descending order."""
    M = degree if points is None else points
    nc = n_coeff(N)
    cols = [phi_terms(m, degree // m, Coefficient.rational(j) - nc) for j in range(1, M + 1)]
    table: dict = {}
    used: list[int] = []  # exponents b_i chosen for the columns i < len(used)

    def children(j: int, budget: int, coeff: Coefficient):
        # coeff is the product of the chosen c_{i, l_i}, i < j
        if j == M:
            order = sorted(range(M), key=lambda i: -used[i])
            mu = tuple(p for p in (used[i] - (M - 1 - pos) for pos, i in enumerate(order)) if p)
            moved = [(i, e) for i, e in enumerate(used) if e != M - 1 - i]
            add_into(table, mu, coeff.scale(_inversion_sign(M, moved)))
            return
        for l in range(0, budget + 1, m):
            e = M - 1 - j + l
            c = cols[j][l // m]
            if e not in used and c:
                yield e, budget - l, coeff * c

    # an explicit stack: M may exceed the interpreter's recursion limit
    stack = [children(0, degree, Coefficient.one())]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if used:
                used.pop()
        else:
            e, budget, coeff = step
            used.append(e)
            stack.append(children(len(used), budget, coeff))
    return table


def _inversion_sign(M: int, moved: list[tuple[int, int]]) -> int:
    """Sign of the permutation that sorts the distinct exponents
    b_i = M - 1 - i + l_i (i < M, l_i >= 0) into descending order, from the
    moved columns alone: moved lists (i, b_i) for the l_i > 0, by i.

    With every l_i = 0 the b_i already descend, so an inversion needs a
    moved column k: an unmoved i < k with b_i = M - 1 - i < b_k, i.e.
    i >= M - b_k, or a moved i < k with b_i < b_k.  An unmoved i > k has
    b_i < M - 1 - k < b_k and never inverts."""
    inv = 0
    for a, (k, b) in enumerate(moved):
        lo = max(0, M - b)
        inv += k - lo  # every i in [lo, k), moved ones corrected below
        for i, bi in moved[:a]:
            inv += (bi < b) - (i >= lo)
    return -1 if inv % 2 else 1


def test_inversion_sign_from_moved_columns_matches_brute_force():
    """The leaf sign of the Pluecker descent, read off the moved columns,
    against a full inversion count of the sorting permutation."""
    rng = random.Random(11)
    for _ in range(400):
        M = rng.randint(1, 30)
        l = [0] * M
        for i in rng.sample(range(M), rng.randint(0, min(M, 5))):
            l[i] = rng.randint(1, 12)
        b = [M - 1 - i + l[i] for i in range(M)]
        if len(set(b)) < M:
            continue  # colliding exponents never reach a leaf
        order = sorted(range(M), key=lambda i: -b[i])
        inv = sum(order[x] > order[y] for x in range(M) for y in range(x + 1, M))
        moved = [(i, e) for i, e in enumerate(b) if l[i]]
        assert _inversion_sign(M, moved) == (-1) ** inv


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("N", [0, QQ(7, 11), "symbolic", QQ(-1, 2)])
def test_column_pass_matches_the_tuple_walk(m, N):
    for degree in range(9):
        for points in (None, degree + 3):
            got = plucker_expansion(m, N, degree, points).table
            assert got == plucker_dfs(m, N, degree, points), (degree, points)


@st.composite
def _column_cases(draw):
    """(m, degree, points, columns): points >= degree columns of
    degree // m + 1 entries, each a sum of one or two atoms as above."""
    m, degree = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    points = degree + draw(st.integers(0, 3))
    size = degree // m + 1
    entry = st.lists(_atoms, min_size=1, max_size=2).map(_coefficient)
    cols = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=points, max_size=points))
    return m, degree, points, cols


@settings(max_examples=100, deadline=None)
@given(_column_cases())
def test_column_pass_matches_the_tuple_walk_on_any_columns(case):
    """The column pass against the tuple walk on drawn columns (phi_terms
    patched for both, as below), whose entry denominators 1..5 need not
    divide one another: a partition's running denominator grows and its
    held numerators are rescaled."""
    m, degree, points, cols = case

    def drawn(_, K, J):
        return cols[int(as_rational(J)) - 1][:K + 1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schur, "phi_terms", drawn)
        mp.setitem(globals(), "phi_terms", drawn)
        got = schur.plucker_expansion(m, 0, degree, points).table
        assert got == plucker_dfs(m, 0, degree, points)


def test_the_column_property_sees_a_step_without_the_rescale(monkeypatch):
    """Negative control: a column step whose shared rescale raises a
    partition's running denominator but leaves the numerators it holds over
    the old one fails the property above."""
    monkeypatch.setattr(schur, "rescaled", rescale_skipped())
    assert fails_its_property(test_column_pass_matches_the_tuple_walk_on_any_columns,
                              _column_cases())


def test_the_column_pass_sees_a_sign_that_ignores_the_chosen_exponents():
    """Negative control: a column step that places every exponent with
    sign +1, whatever chosen exponents lie below it, moves the table off
    the tuple walk at every m."""
    unsigned = mutant(plucker_expansion, "-1 if (S & (1 << e) - 1).bit_count() % 2 else 1", "1")
    for m in (1, 2, 3, 4):
        assert unsigned(m, 0, 8).table != plucker_dfs(m, 0, 8), m


def test_column_pass_sees_a_corrupted_column(monkeypatch):
    """One bumped basis-vector coefficient moves the table off the
    reference built on the true columns."""
    true_terms = schur.phi_terms

    def bumped(m, K, J):
        col = list(true_terms(m, K, J))
        if J == Coefficient.rational(3) and K >= 1:
            col[1] = col[1] + Coefficient.monomial(1, h=1)
        return col

    monkeypatch.setattr(schur, "phi_terms", bumped)
    assert plucker_expansion(2, 0, 8).table != plucker_dfs(2, 0, 8)
