"""Property tests of the hopf and rmatrix checkers on the relation kernel.

Every residual of ``check_module_algebra``, ``check_covariance``,
``invariance_check``, ``verify_I1_identity``, ``check_hecke``,
``check_braid`` and ``projector_sp`` is a term table summed by the
``report.RelationReport`` constructor.  Each report must equal a
reference report built here with plain matrix operations (``act``,
``*``, ``-``, ``is_zero``, ``first_nonzero``): the same family, indices,
relation text, exact-zero flag and worst entry, and a residual of the
same class equal to the reference residual with no stored zero.  Inputs
are the deforming map, the undeformed set, either of them with one
planted entry, random invariant candidates and random sparse braid
matrices.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from dataclasses import dataclass  # noqa: E402

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qclifford import fock  # noqa: E402
from qclifford.deform import (GeneratorSet, build_deforming_map,  # noqa: E402
                              undeformed_set)
from qclifford.hopf import (GENERATOR_NAMES, InvariantElement,  # noqa: E402
                            act, check_covariance, check_module_algebra,
                            classical_js, deformed_js, invariance_check,
                            invariant_number, verify_I1_identity)
from qclifford.linalg import SparseMatrix  # noqa: E402
from qclifford.rmatrix import (RMatrix, _braid_factor, build_rhat_sl,  # noqa: E402
                               check_braid, check_hecke, projector_sp)
from qclifford.scalar import (ONE, Q, RationalFunction,  # noqa: E402
                              parse_rational, q_number, q_power)

from oracles import mirror_js  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None)
#: a module-algebra check is 84 reports, so fewer examples
SLOW_SETTINGS = settings(max_examples=25, deadline=None)

DEFORMED = build_deforming_map(2)
PLAIN = undeformed_set(2)
SETS = {2: (DEFORMED, PLAIN),
        3: (build_deforming_map(3), undeformed_set(3))}
DATA = {"frozen": deformed_js(), "mirror": mirror_js(),
        "classical": deformed_js(ONE)}

#: Laurent monomials and generic denominators
PALETTE = (ONE, -ONE, Q, q_power(-1), -q_power(-2), parse_rational("2*q^-3"),
           parse_rational("(q + 1)/(2*q)"), Q + ONE,
           parse_rational("(1)/(2*q + 3)"), parse_rational("(q)/(q^2 + q + 1)"))


@dataclass
class Reference:
    """A report read off a residual formed with plain matrix operations:
    its flag is the residual's ``is_zero`` and its worst entry the
    residual's ``first_nonzero``, independent of the relation kernel."""

    family: str
    indices: tuple
    relation: str
    residual: object

    @property
    def exact_zero(self) -> bool:
        return self.residual.is_zero

    def worst_entry(self) -> str:
        first = self.residual.first_nonzero()
        if first is None:
            return "0"
        r, c, v = first
        return f"{v} at ({r}, {c})"

    def to_json(self) -> dict:
        return {"family": self.family, "indices": list(self.indices),
                "relation": self.relation, "exact_zero": self.exact_zero,
                "worst_entry": self.worst_entry()}


def assert_same_reports(got, expected):
    assert len(got) == len(expected)
    for report, oracle in zip(got, expected):
        assert report.to_json() == oracle.to_json()
        assert report.exact_zero == oracle.exact_zero
        assert report.worst_entry() == oracle.worst_entry()
        residual = report.residual
        assert type(residual) is type(oracle.residual)
        assert residual == oracle.residual
        assert all(not v.is_zero for row in residual.rows for v in row.values())


# ---------------------------------------------------------------------------
# reference checkers: plain matrix operations
# ---------------------------------------------------------------------------

def labelled(gens):
    return ([(f"Adag_{i}", op) for i, op in enumerate(gens.creators, start=1)]
            + [(f"A^{i}", op) for i, op in enumerate(gens.annihilators, start=1)])


def reference_module_algebra(data, gens):
    samples = labelled(gens)
    reports = []
    for x in GENERATOR_NAMES:
        for y in GENERATOR_NAMES:
            for label, a in samples:
                res = act((x, y), a, data) - act(x, act(y, a, data), data)
                reports.append(Reference(
                    "module-assoc", (x, y, label),
                    f"({x}{y}) |> {label} = {x} |> ({y} |> {label})", res))
    for x in GENERATOR_NAMES:
        for la, a in samples:
            for lb, b in samples:
                rhs = fock.zero(gens.modes)
                for left, right in data.coproduct_word((x,)):
                    rhs = rhs + act(left, a, data) * act(right, b, data)
                reports.append(Reference(
                    "module-leibniz", (x, la, lb),
                    f"{x} |> ({la}.{lb}) obeys the coproduct Leibniz rule",
                    act(x, a * b, data) - rhs))
    return reports


def reference_covariance(gens, data):
    reports = []
    for x in GENERATOR_NAMES:
        for i in (1, 2):
            res = act(x, gens.creators[i - 1], data)
            for j in (1, 2):
                res = res - gens.creators[j - 1].scale(data.rho[x].get(j - 1, i - 1))
            reports.append(Reference(
                "covariance-creator", (x, i),
                f"{x} |> Adag_{i} = rho({x})^j_{i} Adag_j", res))
        sign, s_word = data.antipode_word((x,))
        rho_sx = data.rho_word(s_word)
        for i in (1, 2):
            res = act(x, gens.annihilators[i - 1], data)
            for j in (1, 2):
                res = res - gens.annihilators[j - 1].scale(sign * rho_sx.get(i - 1, j - 1))
            reports.append(Reference(
                "covariance-annihilator", (x, i),
                f"{x} |> A^{i} = rho(S {x})^{i}_j A^j", res))
    return reports


def reference_invariance(element, data, mode):
    expr, label = element.expression, element.label
    if mode == "deformed":
        return [Reference("invariance-deformed", (label, x),
                          f"{x} |> {label} = eps({x}) {label}",
                          act(x, expr, data) - expr.scale(data.counit[x]))
                for x in ("E", "F", "K", "Kinv")]
    js = classical_js()
    return [Reference("invariance-classical", (label, x), f"[{x}, {label}] = 0",
                      js[x] * expr - expr * js[x])
            for x in ("j+", "j-", "j0")]


def reference_I1(gens):
    lhs = fock.zero(gens.modes)
    for c, a in zip(gens.creators, gens.annihilators):
        lhs = lhs + c * a
    rhs = SparseMatrix(1 << gens.modes, [
        {s: q_number(bin(s).count("1"), Q ** -2)} if bin(s).count("1") else {}
        for s in range(1 << gens.modes)])
    res = lhs - rhs
    return Reference("invariant-identity", ("I1_q",),
                     "sum_i Adag_i A^i = (q^-2m - 1)/(q^-2 - 1) on each "
                     "occupation-m eigenspace", res)


def reference_hecke(rhat, q_scalar):
    ident = rhat.identity_like()
    res = (rhat - ident.scale(q_scalar)) * (rhat + ident.scale(q_scalar ** -1))
    return Reference("hecke", (rhat.n,), "(Rhat - q)(Rhat + q^-1) = 0", res)


def reference_braid(rhat):
    r12 = _braid_factor(rhat, left=True)
    r23 = _braid_factor(rhat, left=False)
    return Reference("braid", (rhat.n,), "R12 R23 R12 = R23 R12 R23",
                     (r12 * r23) * r12 - (r23 * r12) * r23)


def reference_sp(rhat):
    n = rhat.n
    ident = rhat.identity_like()
    numer = (rhat * rhat + rhat.scale(q_power(-1 - n) + q_power(-1))
             + ident.scale(q_power(-2 - n)))
    p = numer.scale(((Q + q_power(-1)) * (Q - q_power(-1 - n))) ** -1)
    return p, Reference("sp-idempotency", (n,), "(P+_q)^2 = P+_q", p * p - p)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def planted(gens: GeneratorSet, index: int, r: int, c: int,
            value: RationalFunction) -> GeneratorSet:
    """The set with entry (r, c) of generator ``index`` replaced by value."""
    ops = list(gens.all_generators())
    rows = [dict(row) for row in ops[index].rows]
    rows[r][c] = value
    ops[index] = SparseMatrix(1 << gens.modes, rows)
    n = gens.modes
    return GeneratorSet(ops[:n], ops[n:])


@st.composite
def generator_sets(draw, n_modes=2):
    base = draw(st.sampled_from(SETS[n_modes]))
    if draw(st.booleans()):
        return base
    dim = 1 << n_modes
    return planted(base, draw(st.integers(0, 2 * n_modes - 1)),
                   draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)),
                   draw(st.sampled_from(PALETTE)))


@st.composite
def sparse_rows(draw, dim):
    cells = draw(st.lists(st.tuples(st.integers(0, dim - 1),
                                    st.integers(0, dim - 1),
                                    st.sampled_from(PALETTE)),
                          max_size=2 * dim))
    rows = [{} for _ in range(dim)]
    for r, c, v in cells:
        rows[r][c] = v
    return rows


@st.composite
def braid_matrices(draw):
    n = draw(st.sampled_from((1, 2, 3)))
    if draw(st.integers(0, 3)) == 0:  # a valid sl braid matrix
        return build_rhat_sl(n) if n > 1 else RMatrix(1, [{0: Q}])
    return RMatrix(n, draw(sparse_rows(n * n)))


data_choices = st.sampled_from(sorted(DATA))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@SLOW_SETTINGS
@given(data_choices, generator_sets())
@example("frozen", DEFORMED)
@example("frozen", PLAIN)
def test_module_algebra_matches_matrix_ops(which, gens):
    data = DATA[which]
    assert_same_reports(check_module_algebra(data, gens),
                        reference_module_algebra(data, gens))


@SETTINGS
@given(data_choices, generator_sets())
@example("frozen", DEFORMED)
@example("frozen", PLAIN)
def test_covariance_matches_matrix_ops(which, gens):
    data = DATA[which]
    assert_same_reports(check_covariance(gens, data),
                        reference_covariance(gens, data))


@SETTINGS
@given(data_choices, st.one_of(
    generator_sets().map(lambda g: invariant_number(g, "I1")),
    sparse_rows(4).map(lambda rows: InvariantElement(SparseMatrix(4, rows),
                                                     "random"))))
def test_invariance_matches_matrix_ops(which, element):
    data = DATA[which]
    for mode in ("deformed", "classical"):
        assert_same_reports(invariance_check(element, data, mode),
                            reference_invariance(element, data, mode))


@SETTINGS
@given(st.one_of(generator_sets(2), generator_sets(3)),
       st.sampled_from((None, 1.3, 2)))
@example(DEFORMED, None)
def test_I1_identity_matches_matrix_ops(gens, q_point):
    report = verify_I1_identity(gens)
    oracle = reference_I1(gens)
    assert_same_reports([report], [oracle])
    if q_point is not None:
        assert (report.residual.max_abs(q_point)
                == oracle.residual.max_abs(q_point))


@SETTINGS
@given(braid_matrices(), st.sampled_from((Q, ONE, q_power(-1), Q + ONE)))
def test_hecke_matches_matrix_ops(rhat, q_scalar):
    assert_same_reports([check_hecke(rhat, q_scalar)],
                        [reference_hecke(rhat, q_scalar)])


@SETTINGS
@given(braid_matrices())
@example(build_rhat_sl(3))
def test_braid_matches_matrix_ops(rhat):
    assert_same_reports([check_braid(rhat)], [reference_braid(rhat)])


@SETTINGS
@given(braid_matrices())
@example(build_rhat_sl(3))
def test_projector_sp_matches_matrix_ops(rhat):
    p, report = projector_sp(rhat)
    p_ref, oracle = reference_sp(rhat)
    assert type(p) is RMatrix and type(p_ref) is RMatrix
    assert p == p_ref
    assert all(not v.is_zero for row in p.rows for v in row.values())
    assert_same_reports([report], [oracle])

