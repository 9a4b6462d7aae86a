"""Named state families: generators and the checkerboard classifier.

Families: the two-qutrit checkerboard states (four pure summands with a
fixed sparsity pattern, generically rank 4), the rank-3 antisymmetric
state, Werner states, the tiles and shifts unextendible product bases,
generalized GHZ states, label states, and the reducible 4x4 two-summand
example.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .analyze import classify_state
from .certificates import Certificate
from .linalg import DEFAULT_TOL, ToleranceConfig, dagger, kron
from .random_states import as_rng, complex_gaussian, unit_disc
from .states import BipartiteState, PureState, von_neumann_entropy
from .tripartite import TripartitePure

__all__ = [
    "CheckerboardParams",
    "make_checkerboard",
    "checkerboard_vectors",
    "random_checkerboard",
    "checkerboard_ppt_instance",
    "classify_checkerboard",
    "make_antisymmetric",
    "make_werner",
    "make_tiles_upb",
    "make_shifts_upb",
    "shifts_bipartite_cut",
    "make_generalized_ghz",
    "make_label_state",
    "label_state_entanglement",
    "make_reducible_4x4_example",
    "make_fixture",
    "FIXTURE_BUILDERS",
]


@dataclass(frozen=True)
class CheckerboardParams:
    """The 18 complex parameters of the checkerboard family (no 'o')."""

    a: complex = 0
    b: complex = 0
    c: complex = 0
    d: complex = 0
    e: complex = 0
    f: complex = 0
    g: complex = 0
    h: complex = 0
    i: complex = 0
    j: complex = 0
    k: complex = 0
    l: complex = 0
    m: complex = 0
    n: complex = 0
    p: complex = 0
    q: complex = 0
    r: complex = 0
    s: complex = 0

    def __post_init__(self):
        if all(getattr(self, f.name) == 0 for f in fields(self)):
            raise ValueError("checkerboard parameters must not all vanish")


def checkerboard_vectors(p: CheckerboardParams):
    """The four pure summands; entries live on the checkerboard pattern."""
    def vec(entries):
        v = np.zeros(9, dtype=complex)
        for (row, col), val in entries.items():
            v[row * 3 + col] = val
        return v

    psi1 = vec({(0, 0): p.a, (0, 2): p.d, (1, 1): p.c, (2, 0): p.b, (2, 2): p.e})
    psi2 = vec({(0, 1): p.g, (1, 0): p.f, (1, 2): p.i, (2, 1): p.h})
    psi3 = vec({(0, 0): p.j, (0, 2): p.m, (1, 1): p.l, (2, 0): p.k, (2, 2): p.n})
    psi4 = vec({(0, 1): p.q, (1, 0): p.p, (1, 2): p.s, (2, 1): p.r})
    return [psi1, psi2, psi3, psi4]


def make_checkerboard(p: CheckerboardParams,
                      tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    return BipartiteState.from_vectors(3, 3, checkerboard_vectors(p), tol)


def random_checkerboard(rng=0, tol: ToleranceConfig = DEFAULT_TOL):
    rng = as_rng(rng)
    values = unit_disc(rng, 18)
    names = [f.name for f in fields(CheckerboardParams)]
    params = CheckerboardParams(**dict(zip(names, values)))
    return params, make_checkerboard(params, tol)


def checkerboard_ppt_instance(rng=0, tol: ToleranceConfig = DEFAULT_TOL):
    """A PPT checkerboard state from the constraint chain of the
    distillability proof: h = r k*, |c| = 1, |l| = |r|, l = c r* k / k*."""
    rng = as_rng(rng)
    c = np.exp(2j * np.pi * rng.uniform())
    k = unit_disc(rng, ()) + 0.2
    r = unit_disc(rng, ()) + 0.2
    h = r * np.conj(k)
    l = c * np.conj(r) * k / np.conj(k)
    params = CheckerboardParams(a=1, g=1, f=1, s=1, n=1, c=c, k=k, r=r, h=h, l=l)
    state = make_checkerboard(params, tol)
    return params, state


def classify_checkerboard(state: BipartiteState, rng=17) -> Certificate:
    """The verdict of classify_state, which decides every checkerboard
    state: rank 4 goes to decide_rank4, whose last NPT step compresses
    rho^G to the 2-frames read off its eigenvectors.  An NPT instance
    that no step certifies raises UndecidableError."""
    return classify_state(state, rng=rng)


# ---------------------------------------------------------------------------
# other named families
# ---------------------------------------------------------------------------

def make_antisymmetric(n: int = 3, tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """sum_{i<j} (|ij> - |ji>)(<ij| - <ji|): rank n(n-1)/2, violates the
    right full-rank property."""
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            v = np.zeros(n * n, dtype=complex)
            v[i * n + j] = 1.0
            v[j * n + i] = -1.0
            vecs.append(v)
    return BipartiteState.from_vectors(n, n, vecs, tol)


def make_werner(n: int, phi: float, tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """Non-normalized Werner state I + phi * SWAP, PSD for |phi| <= 1.

    NPT iff phi < -1/n; 1-distillable for phi < -1/2.  No claims are
    made in the NPT 1-undistillable window, where distillability is
    open.
    """
    if abs(phi) > 1:
        raise ValueError("phi must lie in [-1, 1] for positivity")
    swap = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    return BipartiteState(n, n, np.eye(n * n, dtype=complex) + phi * swap, tol)


def make_tiles_upb(tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """Complement of the five-member tiles UPB on 3 (x) 3: a rank-4 PPT
    entangled state whose range contains no product vector."""
    s2, s3 = 1 / np.sqrt(2.0), 1 / np.sqrt(3.0)
    e = np.eye(3)
    members = [
        kron(e[0], s2 * (e[0] - e[1])),
        kron(e[2], s2 * (e[1] - e[2])),
        kron(s2 * (e[0] - e[1]), e[2]),
        kron(s2 * (e[1] - e[2]), e[0]),
        kron(s3 * (e[0] + e[1] + e[2]), s3 * (e[0] + e[1] + e[2])),
    ]
    rho = np.eye(9, dtype=complex)
    for v in members:
        rho -= np.outer(v, v.conj())
    return BipartiteState(3, 3, rho, tol)


def _qubit_pair(theta, phase):
    v = np.array([np.cos(theta), np.exp(1j * phase) * np.sin(theta)], dtype=complex)
    v_perp = np.array([-np.exp(-1j * phase) * np.sin(theta), np.cos(theta)],
                      dtype=complex)
    return v, v_perp


def make_shifts_upb(angles=((np.pi / 4, 0.0),) * 3,
                    tol: ToleranceConfig = DEFAULT_TOL):
    """Three-qubit PPT entangled state I - sum of the four-member UPB
    {|0,0,0>, |1,b,c>, |a,1,c_perp>, |a_perp,b_perp,1>}.

    Returns (rho as an 8x8 matrix, the UPB members).  All three
    bipartite cuts of rho are separable; use shifts_bipartite_cut to
    obtain them as 2 (x) 4 states.
    """
    if len(angles) != 3:
        raise ValueError("need three (theta, phase) pairs")
    pairs = [_qubit_pair(t, ph) for t, ph in angles]
    for v, v_perp in pairs:
        if abs(np.vdot(v, v_perp)) > 1e-12 or abs(np.linalg.norm(v) - 1) > 1e-12:
            raise ValueError("basis pair is not orthonormal")
        if min(abs(v[0]), abs(v[1])) < 1e-9:
            raise ValueError("basis pair must not align with the computational basis")
    e = np.eye(2, dtype=complex)
    (a, a_p), (b, b_p), (c, c_p) = pairs
    members = [
        kron(e[0], kron(e[0], e[0])),
        kron(e[1], kron(b, c)),
        kron(a, kron(e[1], c_p)),
        kron(a_p, kron(b_p, e[1])),
    ]
    gram = np.array([[np.vdot(x, y) for y in members] for x in members])
    if np.linalg.norm(gram - np.eye(4)) > 1e-10:
        raise ValueError("UPB members failed the orthonormality check")
    rho = np.eye(8, dtype=complex)
    for v in members:
        rho -= np.outer(v, v.conj())
    return rho, members


def shifts_bipartite_cut(rho8: np.ndarray, cut: str = "A",
                         tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """View the three-qubit state across one bipartition as a 2 (x) 4 state."""
    t = rho8.reshape(2, 2, 2, 2, 2, 2)
    cut = cut.upper()
    if cut == "A":
        perm = (0, 1, 2, 3, 4, 5)
    elif cut == "B":
        perm = (1, 0, 2, 4, 3, 5)
    elif cut == "C":
        perm = (2, 0, 1, 5, 3, 4)
    else:
        raise ValueError("cut must be 'A', 'B' or 'C'")
    mat = t.transpose(perm).reshape(8, 8)
    return BipartiteState(2, 4, mat, tol)


def make_generalized_ghz(coefficients, tol: ToleranceConfig = DEFAULT_TOL) -> TripartitePure:
    """sum_i a_i |iii> on d (x) d (x) d with d = len(coefficients)."""
    coeffs = np.asarray(coefficients, dtype=complex).reshape(-1)
    d = coeffs.shape[0]
    amp = np.zeros(d ** 3, dtype=complex)
    for i, a in enumerate(coeffs):
        amp[i * d * d + i * d + i] = a
    return TripartitePure((d, d, d), amp, tol)


def _label_probabilities(probabilities, components) -> np.ndarray:
    """The probabilities as a float vector, one per component, checked to
    be nonnegative and to sum to 1."""
    probs = np.asarray(probabilities, dtype=float).reshape(-1)
    if len(components) != probs.shape[0]:
        raise ValueError("need one component per probability")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    return probs


def make_label_state(probabilities, components,
                     tol: ToleranceConfig = DEFAULT_TOL) -> BipartiteState:
    """Label state sum_i p_i |1,i><1,i| (x) |psi_i><psi_i|.

    components are PureState objects on a common d_A (x) d_B space; the
    label lives on the B side, so the result is a B-direct sum and the
    distillable entanglement is sum_i p_i S(tr_A |psi_i><psi_i|).
    """
    probs = _label_probabilities(probabilities, components)
    d_a = components[0].dim_a
    d_b = components[0].dim_b
    if any((c.dim_a, c.dim_b) != (d_a, d_b) for c in components):
        raise ValueError("all components must share the same dimensions")
    k = len(components)
    dim_b_total = k * d_b
    rho = np.zeros((d_a * dim_b_total,) * 2, dtype=complex)
    for i, (p, comp) in enumerate(zip(probs, components)):
        tag = np.zeros(k, dtype=complex)
        tag[i] = 1.0
        amp = comp.amplitudes.reshape(d_a, d_b)
        amp = amp / np.linalg.norm(amp)
        # embed the B part of psi_i into the i-th label sector
        vec = np.einsum("ab,l->alb", amp, tag).reshape(-1)
        rho += p * np.outer(vec, vec.conj())
    return BipartiteState(d_a, dim_b_total, rho, tol)


def label_state_entanglement(probabilities, components) -> float:
    """Distillable entanglement of a label state, in bits:
    sum_i p_i S(tr_A |psi_i><psi_i|) over normalized components."""
    probs = _label_probabilities(probabilities, components)
    total = 0.0
    for p, comp in zip(probs, components):
        amp = comp.amplitudes / np.linalg.norm(comp.amplitudes)
        k = amp.reshape(comp.dim_a, comp.dim_b)
        red_b = dagger(k) @ k
        total += p * von_neumann_entropy(red_b, normalize=True)
    return total


def make_reducible_4x4_example(tol: ToleranceConfig = DEFAULT_TOL):
    """The 4x4 B-direct sum 2|phi1><phi1| + 2|phi2><phi2| with
    phi1 = |11> + |22>, phi2 = |13> + |24>, together with its second
    printed decomposition phi1 +- phi2."""
    phi1 = np.zeros(16, dtype=complex)
    phi1[0 * 4 + 0] = 1.0
    phi1[1 * 4 + 1] = 1.0
    phi2 = np.zeros(16, dtype=complex)
    phi2[0 * 4 + 2] = 1.0
    phi2[1 * 4 + 3] = 1.0
    state = BipartiteState.from_vectors(
        4, 4, [np.sqrt(2) * phi1, np.sqrt(2) * phi2], tol)
    alt = (phi1 + phi2, phi1 - phi2)
    return state, (phi1, phi2), alt


def make_fixture(name: str, tol: ToleranceConfig = DEFAULT_TOL, **params):
    """Build a named fixture from a serializable (name, params) spec.

    Returns a BipartiteState, a TripartitePure, or for the shifts UPB
    the raw 8x8 matrix with its members.
    """
    if name not in FIXTURE_BUILDERS:
        raise ValueError(f"unknown fixture '{name}'; known: {sorted(FIXTURE_BUILDERS)}")
    return FIXTURE_BUILDERS[name](tol=tol, **params)


def _fixture_checkerboard(tol, seed=None, **letters):
    if seed is not None:
        if letters:
            raise ValueError("give either a seed or explicit letters, not both")
        return random_checkerboard(int(seed), tol)[1]
    coerced = {k: complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
               for k, v in letters.items()}
    return make_checkerboard(CheckerboardParams(**coerced), tol)


def _fixture_label(tol, probabilities, kinds, dims=(2, 2), seed=0):
    rng = as_rng(seed)
    d_a, d_b = dims
    comps = []
    for kind in kinds:
        if kind == "bell":
            amp = np.zeros(d_a * d_b, dtype=complex)
            amp[0] = 1.0
            amp[1 * d_b + 1] = 1.0
            comps.append(PureState(d_a, d_b, amp))
        elif kind == "product":
            comps.append(PureState(d_a, d_b, kron(
                complex_gaussian(rng, d_a), complex_gaussian(rng, d_b))))
        elif kind == "random":
            comps.append(PureState(d_a, d_b, complex_gaussian(rng, d_a * d_b)))
        else:
            raise ValueError(f"unknown label component kind '{kind}'")
    return make_label_state(probabilities, comps, tol)


FIXTURE_BUILDERS = {
    "antisymmetric": lambda tol, n=3: make_antisymmetric(int(n), tol),
    "werner": lambda tol, n=3, phi=-1.0: make_werner(int(n), float(phi), tol),
    "upb_tiles_3x3": lambda tol: make_tiles_upb(tol),
    "upb_shifts_2x2x2": lambda tol, angles=((np.pi / 4, 0.0),) * 3:
        make_shifts_upb(tuple(tuple(a) for a in angles), tol),
    "generalized_ghz": lambda tol, coefficients=(1.0, 1.0):
        make_generalized_ghz(coefficients, tol),
    "label_state": _fixture_label,
    "reducible_4x4_example": lambda tol: make_reducible_4x4_example(tol)[0],
    "checkerboard": _fixture_checkerboard,
    "checkerboard_ppt": lambda tol, seed=0: checkerboard_ppt_instance(int(seed), tol)[1],
}
