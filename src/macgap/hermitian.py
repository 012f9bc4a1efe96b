"""Hermitian signatures, point classification, and exact orthogonality
certificates for polynomial maps between projectivized Hermitian spaces.

Orthogonality (every orthogonal pair of points maps to an orthogonal pair)
is certified algebraically: with conjugate variables w~ treated as fresh
indeterminates, the target pairing P(z, w~) must be divisible by the source
pairing Q(z, w~).  Divisibility is decided by a pseudo-remainder in one
w~ variable, and refuted maps come with an exact witness pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .gap_calc import classify_gap
from .polyspace import (
    GRat,
    Poly,
    PolyFormatError,
    coefficient_rows,
    exact_rank,
    format_poly,
    image_span_dim,
    mono,
    parse_poly,
    rng_for,
)


class MapFormatError(ValueError):
    """Malformed map file."""


@dataclass(frozen=True)
class Signature:
    """Counts (r, s, t) of +1, -1, 0 weights of the diagonal Hermitian form."""

    r: int
    s: int
    t: int = 0

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.t < 0 or self.r + self.s + self.t == 0:
            raise ValueError(f"bad signature {(self.r, self.s, self.t)}")

    @property
    def n_vars(self) -> int:
        return self.r + self.s + self.t

    def eps(self, i: int) -> int:
        if i < self.r:
            return 1
        if i < self.r + self.s:
            return -1
        return 0


def inner_product(z, w, sig: Signature) -> GRat:
    """Sum eps_i * z_i * conj(w_i); the last t coordinates are ignored."""
    if len(z) != sig.n_vars or len(w) != sig.n_vars:
        raise ValueError("coordinate length does not match signature")
    total = GRat()
    for i in range(sig.r + sig.s):
        term = z[i] * w[i].conjugate()
        total = total + term if sig.eps(i) == 1 else total - term
    return total


def classify_point(z, sig: Signature) -> str:
    if not any(z):
        raise ValueError("zero vector is not a projective point")
    norm = inner_product(z, z, sig)
    if norm.im:
        raise RuntimeError(f"Hermitian norm {norm} of a point is not real")
    if norm.re > 0:
        return "positive"
    if norm.re < 0:
        return "negative"
    return "null"


@dataclass
class SignedMap:
    """Polynomial map with components in target-block order: r' positive,
    s' negative, t' null-weight."""

    source: Signature
    target: Signature
    degree: int
    components: list[Poly]

    def __post_init__(self):
        want = self.target.n_vars
        if len(self.components) != want:
            raise ValueError(
                f"{len(self.components)} components for target signature "
                f"expecting {want}"
            )
        for p in self.components:
            if p.n_vars != self.source.n_vars:
                raise ValueError("component variable count does not match source")
            if p.degree != self.degree:
                raise ValueError("component degree mismatch")

    def evaluate(self, z) -> list[GRat]:
        return [p.evaluate(z) for p in self.components]


def identity_map(sig: Signature) -> SignedMap:
    comps = [
        mono(sig.n_vars, tuple(1 if j == i else 0 for j in range(sig.n_vars)))
        for i in range(sig.n_vars)
    ]
    return SignedMap(sig, sig, 1, comps)


# ---------------------------------------------------------------------------
# the pairing polynomials

def _embed(p: Poly, total: int, offset: int) -> Poly:
    out = {}
    for exps, c in p.coeffs.items():
        e = [0] * total
        e[offset:offset + len(exps)] = exps
        out[tuple(e)] = c
    q = Poly.__new__(Poly)
    q.n_vars, q.degree, q.coeffs = total, p.degree, out
    return q


def pairing_poly(f: SignedMap) -> Poly:
    """P(z, w~) = sum eps'_j f_j(z) * conj-coeffs(f_j)(w~), in 2*n_vars
    variables (z block first, w~ block second)."""
    nv = f.source.n_vars
    total = Poly(2 * nv, 2 * f.degree, {})
    for j, p in enumerate(f.components):
        e = f.target.eps(j)
        if e == 0 or p.is_zero:
            continue
        prod = _embed(p, 2 * nv, 0) * _embed(p.conjugate_coeffs(), 2 * nv, nv)
        total = total + prod if e == 1 else total - prod
    return total


def source_form_poly(sig: Signature) -> Poly:
    """Q(z, w~) = sum over non-null i of eps_i z_i w~_i."""
    nv = sig.n_vars
    coeffs = {}
    for i in range(sig.r + sig.s):
        e = [0] * (2 * nv)
        e[i] = 1
        e[nv + i] = 1
        coeffs[tuple(e)] = GRat(sig.eps(i))
    return Poly(2 * nv, 2, coeffs)


def _wt_slices(P: Poly, var: int) -> dict[int, Poly]:
    """Coefficients of P as a polynomial in one variable: exponent -> poly
    with that variable zeroed out."""
    slices: dict[int, dict] = {}
    for exps, c in P.coeffs.items():
        e = exps[var]
        rest = exps[:var] + (0,) + exps[var + 1:]
        slices.setdefault(e, {})[rest] = c
    out = {}
    for e, coeffs in slices.items():
        q = Poly.__new__(Poly)
        q.n_vars, q.degree, q.coeffs = P.n_vars, P.degree - e, coeffs
        out[e] = q
    return out


def _divide_exact(P: Poly, Q: Poly) -> Poly:
    """Quotient P/Q for known-divisible homogeneous P; leading terms in
    lexicographic order.  Raises ArithmeticError if divisibility fails."""
    if Q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    quo = Poly(P.n_vars, P.degree - Q.degree, {})
    rem = P
    lt_q = max(Q.coeffs)
    c_q = Q.coeffs[lt_q]
    while not rem.is_zero:
        lt_r = max(rem.coeffs)
        diff = tuple(a - b for a, b in zip(lt_r, lt_q))
        if any(d < 0 for d in diff):
            raise ArithmeticError("leading term not divisible")
        t = mono(P.n_vars, diff, rem.coeffs[lt_r] / c_q)
        quo = quo + t
        rem = rem - t * Q
    return quo


@dataclass
class OrthCertificate:
    verdict: bool
    quotient: Poly | None = None
    witness: tuple | None = None  # (z, w) coordinate lists


def orthogonality_certificate(
    f: SignedMap,
    pivot: int = 0,
    want_quotient: bool = True,
    witness_seed: int = 0,
) -> OrthCertificate:
    """Decide whether f preserves orthogonality of point pairs.

    The verdict is the exact divisibility Q | P, settled by a pseudo-remainder
    in the conjugate variable w~_pivot: with Q = eps_p z_p w~_p + R and P of
    w~_p-degree D, the remainder is sum_e P_e (-R)^e (eps_p z_p)^(D-e), zero
    iff Q divides P.  A true verdict optionally carries the exact quotient;
    a false verdict carries a witness pair of orthogonal points whose images
    pair to a nonzero value.
    """
    sig = f.source
    if sig.r + sig.s < 2:
        raise ValueError("need at least two non-null source coordinates")
    if not 0 <= pivot < sig.r + sig.s:
        raise ValueError("pivot must index a non-null coordinate")
    nv = sig.n_vars
    P = pairing_poly(f)
    Q = source_form_poly(sig)
    if P.is_zero:
        quo = None
        if want_quotient and f.degree >= 1:
            quo = Poly(2 * nv, 2 * f.degree - 2, {})
        return OrthCertificate(True, quotient=quo)

    wp = nv + pivot
    lc = mono(2 * nv, tuple(1 if i == pivot else 0 for i in range(2 * nv)),
              GRat(sig.eps(pivot)))
    neg_r = Poly(2 * nv, 2, {
        e: -c for e, c in Q.coeffs.items() if e[wp] == 0
    })
    slices = _wt_slices(P, wp)
    D = max(slices)
    lc_pow = [mono(2 * nv, (0,) * (2 * nv))]
    for _ in range(D):
        lc_pow.append(lc_pow[-1] * lc)
    acc = slices[D]
    for e in range(D - 1, -1, -1):
        acc = acc * neg_r
        if e in slices:
            acc = acc + slices[e] * lc_pow[D - e]
    if acc.is_zero:
        quo = _divide_exact(P, Q) if want_quotient else None
        return OrthCertificate(True, quotient=quo)
    witness = _witness_search(f, P, pivot, witness_seed)
    return OrthCertificate(False, witness=witness)


def _rand_grat(rng: random.Random) -> GRat:
    im = rng.randint(-3, 3) if rng.random() < 0.4 else 0
    return GRat(rng.randint(-5, 5), im)


def _witness_search(f: SignedMap, P: Poly, pivot: int, seed: int):
    """Point pair (z, w) with <z,w> = 0 and <f(z),f(w)> != 0, found by
    sampling the rational solution chart z_pivot != 0."""
    sig = f.source
    nv = sig.n_vars
    rng = rng_for(seed, "witness")
    ep = GRat(sig.eps(pivot))
    for _ in range(500):
        z = [_rand_grat(rng) for _ in range(nv)]
        if not z[pivot]:
            z[pivot] = GRat(1)
        wt = [_rand_grat(rng) for _ in range(nv)]
        acc = GRat()
        for i in range(sig.r + sig.s):
            if i == pivot:
                continue
            term = z[i] * wt[i]
            acc = acc + term if sig.eps(i) == 1 else acc - term
        wt[pivot] = -acc / (ep * z[pivot])
        if P.evaluate(z + wt):
            w = [c.conjugate() for c in wt]
            return tuple(z), tuple(w)
    raise RuntimeError("no witness found in 500 samples")  # pragma: no cover


def sample_orthogonal_pair(sig: Signature, rng: random.Random):
    """Exact pair with <z, w> = 0, via the same solved-chart construction."""
    if sig.r + sig.s < 1:
        raise ValueError("no non-null coordinates to solve against")
    nv = sig.n_vars
    while True:
        z = [_rand_grat(rng) for _ in range(nv)]
        pivot = next((i for i in range(sig.r + sig.s) if z[i]), None)
        if pivot is not None:
            break
    wt = [_rand_grat(rng) for _ in range(nv)]
    acc = GRat()
    for i in range(sig.r + sig.s):
        if i == pivot:
            continue
        term = z[i] * wt[i]
        acc = acc + term if sig.eps(i) == 1 else acc - term
    wt[pivot] = -acc / (GRat(sig.eps(pivot)) * z[pivot])
    return tuple(z), tuple(c.conjugate() for c in wt)


# ---------------------------------------------------------------------------
# the cubic family saturating the lower gap endpoint

def sharpness_map(k: int, n: int) -> SignedMap:
    """Degree-3 map from signature (k, n+1-k) whose kn+k components are the
    distinct monomials z_i^2 z_j, positively weighted for j < k and
    negatively for j >= k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    nv = n + 1
    pos, neg = [], []
    for i in range(k):
        for j in range(nv):
            e = [0] * nv
            e[i] += 2
            e[j] += 1
            (pos if j < k else neg).append(mono(nv, tuple(e)))
    return SignedMap(
        source=Signature(k, nv - k),
        target=Signature(k * k, k * (nv - k)),
        degree=3,
        components=pos + neg,
    )


def sharpness_quotient(k: int, n: int) -> Poly:
    """The certified quotient of sharpness_map(k, n): sum z_j^2 w~_j^2."""
    nv = n + 1
    coeffs = {}
    for j in range(k):
        e = [0] * (2 * nv)
        e[j] = 2
        e[nv + j] = 2
        coeffs[tuple(e)] = GRat(1)
    return Poly(2 * nv, 4, coeffs)


def null_prolongation(f: SignedMap, psi: Poly, phi: Poly) -> SignedMap:
    """Extend f by one positive and one negative copy of phi, scaling the
    old components by psi; requires deg(phi) = deg(psi) + deg(f) so the
    result is homogeneous, and the two phi slots cancel in the pairing."""
    if f.target.t != 0:
        raise ValueError("prolongation needs a target without null weights")
    nv = f.source.n_vars
    if psi.n_vars != nv or phi.n_vars != nv:
        raise ValueError("psi/phi variable count does not match the source")
    if phi.degree != psi.degree + f.degree:
        raise ValueError(
            f"degree mismatch: deg(phi)={phi.degree}, "
            f"need deg(psi)+deg(f)={psi.degree + f.degree}"
        )
    rp, sp = f.target.r, f.target.s
    scaled = [psi * p for p in f.components]
    comps = scaled[:rp] + [phi] + scaled[rp:rp + sp] + [phi]
    return SignedMap(
        source=f.source,
        target=Signature(rp + 1, sp + 1),
        degree=phi.degree,
        components=comps,
    )


# ---------------------------------------------------------------------------
# span obstruction for orthogonal maps

@dataclass(frozen=True)
class ObstructionRecord:
    dim_e_span: int
    dim_eperp_span: int
    bound: int
    degenerate: str | None
    holds: bool


def _restrict_to_coords(components, keep: list[int]):
    """Set the variables outside `keep` to zero and reindex to len(keep)
    variables; None when every component dies."""
    out = []
    for p in components:
        coeffs = {}
        for exps, c in p.coeffs.items():
            if any(e and i not in keep for i, e in enumerate(exps)):
                continue
            coeffs[tuple(exps[i] for i in keep)] = c
        out.append(Poly(len(keep), p.degree, coeffs))
    if all(p.is_zero for p in out):
        return None
    return out


def span_obstruction_check(f: SignedMap, e_indices) -> ObstructionRecord:
    """Span dimensions of the images of a coordinate subspace E and of its
    orthogonal complement; for an orthogonality-preserving map their sum
    stays below the target's projective dimension."""
    if f.target.t != 0:
        raise ValueError("obstruction check needs a nondegenerate target form")
    nv = f.source.n_vars
    e_set = sorted(set(e_indices))
    if not e_set or any(not 0 <= i < nv for i in e_set):
        raise ValueError("E must be a nonempty set of coordinate indices")
    # under the diagonal form the complement of a coordinate set is the
    # complementary coordinates, plus all null coordinates
    perp = sorted(
        set(range(nv)) - set(e_set) | set(range(f.source.r + f.source.s, nv))
    )
    if not perp:
        raise ValueError("orthogonal complement has no coordinates")
    bound = f.target.r + f.target.s - 2
    sides = {}
    for name, keep in (("E", e_set), ("E_perp", perp)):
        restricted = _restrict_to_coords(f.components, keep)
        sides[name] = None if restricted is None else image_span_dim(restricted)
    degenerate = None
    if sides["E"] is None and sides["E_perp"] is None:
        degenerate = "both"
    elif sides["E"] is None:
        degenerate = "E"
    elif sides["E_perp"] is None:
        degenerate = "E_perp"
    if degenerate is None:
        holds = sides["E"] + sides["E_perp"] <= bound
    else:
        holds = True  # a vanished side demonstrates nothing
    return ObstructionRecord(
        dim_e_span=-1 if sides["E"] is None else sides["E"],
        dim_eperp_span=-1 if sides["E_perp"] is None else sides["E_perp"],
        bound=bound,
        degenerate=degenerate,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# batch suite

@dataclass
class SharpnessSuiteReport:
    max_k: int
    max_n: int
    maps: int = 0
    checks: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def sharpness_suite(max_k: int = 4, max_n: int = 12) -> SharpnessSuiteReport:
    """For each (k, n) with k(k+1) < n <= max_n: component count, exact
    linear independence, certified orthogonality with the expected quotient,
    full span, and the two endpoint classifications."""
    report = SharpnessSuiteReport(max_k=max_k, max_n=max_n)

    def check(k, n, label, ok):
        report.checks += 1
        if not ok:
            report.violations.append((k, n, label))

    for k in range(1, max_k + 1):
        for n in range(k * (k + 1) + 1, max_n + 1):
            f = sharpness_map(k, n)
            report.maps += 1
            count = k * n + k
            check(k, n, "component count", len(f.components) == count)
            rank = exact_rank(
                coefficient_rows(f.components, f.source.n_vars, f.degree)
            )
            check(k, n, "linear independence", rank == count)
            cert = orthogonality_certificate(f)
            check(k, n, "certificate verdict", cert.verdict)
            check(
                k, n, "certificate quotient",
                cert.quotient == sharpness_quotient(k, n),
            )
            check(k, n, "span", image_span_dim(f.components) == count - 1)
            at = classify_gap(n, count)
            below = classify_gap(n, count - 1)
            check(k, n, "endpoint in gap", at.in_gap and at.k == k)
            check(k, n, "below endpoint not in gap", not below.in_gap)
    return report


# ---------------------------------------------------------------------------
# map file format

def format_map(f: SignedMap) -> str:
    lines = [
        f"source {f.source.r} {f.source.s} {f.source.t}",
        f"target {f.target.r} {f.target.s} {f.target.t}",
        f"degree {f.degree}",
    ]
    blocks = (
        ("%pos", f.components[:f.target.r]),
        ("%neg", f.components[f.target.r:f.target.r + f.target.s]),
        ("%null", f.components[f.target.r + f.target.s:]),
    )
    for sep, comps in blocks:
        lines.append(sep)
        lines.extend(format_poly(p) for p in comps)
    return "\n".join(lines) + "\n"


def _parse_header(lines, idx, key):
    while idx < len(lines) and not lines[idx][1].strip():
        idx += 1
    if idx == len(lines):
        raise MapFormatError(f"missing '{key}' header line")
    line_no, text = lines[idx]
    tokens = text.split()
    if tokens[0] != key:
        raise MapFormatError(f"line {line_no}: expected '{key} ...', got {text!r}")
    want = 3 if key in ("source", "target") else 1
    if len(tokens) != want + 1:
        raise MapFormatError(f"line {line_no}: '{key}' takes {want} integers")
    try:
        values = [int(t) for t in tokens[1:]]
    except ValueError:
        raise MapFormatError(f"line {line_no}: non-integer in '{key}'") from None
    return idx + 1, values


def parse_map(text: str) -> SignedMap:
    """Inverse of format_map; diagnostics carry 1-based line numbers."""
    lines = [(i + 1, raw) for i, raw in enumerate(text.splitlines())]
    idx, src = _parse_header(lines, 0, "source")
    idx, tgt = _parse_header(lines, idx, "target")
    idx, (degree,) = _parse_header(lines, idx, "degree")
    try:
        source = Signature(*src)
        target = Signature(*tgt)
    except ValueError as exc:
        raise MapFormatError(str(exc)) from None
    if degree < 0:
        raise MapFormatError("degree must be nonnegative")

    expected = [("%pos", target.r), ("%neg", target.s), ("%null", target.t)]
    components: list[Poly] = []
    block = None
    taken = 0
    block_iter = iter(expected)
    for line_no, raw in lines[idx:]:
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            if block is not None and taken != block[1]:
                raise MapFormatError(
                    f"line {line_no}: block {block[0]} has {taken} components, "
                    f"expected {block[1]}"
                )
            block = next(block_iter, None)
            if block is None or stripped != block[0]:
                raise MapFormatError(
                    f"line {line_no}: unexpected separator {stripped!r}"
                )
            taken = 0
            continue
        if block is None:
            raise MapFormatError(f"line {line_no}: component before %pos")
        try:
            p = parse_poly(stripped, n_vars=source.n_vars, degree=degree)
        except PolyFormatError as exc:
            raise MapFormatError(f"line {line_no}: {exc}") from None
        components.append(p)
        taken += 1
        if taken > block[1]:
            raise MapFormatError(
                f"line {line_no}: too many components in block {block[0]}"
            )
    if block is None:
        raise MapFormatError("missing %pos separator")
    if taken != block[1]:
        raise MapFormatError(
            f"block {block[0]} has {taken} components, expected {block[1]}"
        )
    leftover = next(block_iter, None)
    if leftover is not None:
        raise MapFormatError(f"missing separator {leftover[0]}")
    return SignedMap(source, target, degree, components)
