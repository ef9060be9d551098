"""Exact rational angles on the circle at infinity, the doubling map,
formal orbit portraits, and continued-fraction diagnostics.

Angles are stored in turns (fractions of a full circle) as reduced
big-integer pairs, so every combinatorial test here is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import QuadrayError

PERIODIC_ANGLE_CAP = 24


@dataclass(frozen=True)
class Angle:
    """A rational angle mod 1 turn, kept reduced with 0 <= num < den.

    Ordering compares fraction values (the position on the circle lifted to
    [0, 1)), not the raw integer pairs.
    """

    numerator: int
    denominator: int = 1

    def __lt__(self, other: "Angle") -> bool:
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other: "Angle") -> bool:
        return self.numerator * other.denominator <= other.numerator * self.denominator

    def __gt__(self, other: "Angle") -> bool:
        return other < self

    def __ge__(self, other: "Angle") -> bool:
        return other <= self

    def __post_init__(self):
        num, den = self.numerator, self.denominator
        if den == 0:
            raise ValueError("denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        object.__setattr__(self, "numerator", num // g)
        object.__setattr__(self, "denominator", den // g)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        """Parse 'num/den' or a bare integer."""
        text = text.strip()
        if "/" in text:
            a, b = text.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(text), 1)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"

    def doubled(self) -> "Angle":
        return Angle(2 * self.numerator, self.denominator)

    def halves(self) -> tuple["Angle", "Angle"]:
        """The two preimages under doubling: theta/2 and theta/2 + 1/2."""
        return (Angle(self.numerator, 2 * self.denominator),
                Angle(self.numerator + self.denominator, 2 * self.denominator))


def angle_period(a: Angle) -> int | None:
    """Exact period under doubling: the multiplicative order of 2 modulo the
    denominator, or None when the denominator is even (strictly preperiodic)."""
    den = a.denominator
    if den % 2 == 0:
        return None
    if den == 1:
        return 1
    order, v = 1, 2 % den
    while v != 1:
        v = (2 * v) % den
        order += 1
    return order


def doubling_orbit(a: Angle) -> list[Angle]:
    """Forward doubling orbit until the first repeat (cycle for odd
    denominators, tail plus cycle otherwise)."""
    seen: dict[Angle, int] = {}
    orbit: list[Angle] = []
    while a not in seen:
        seen[a] = len(orbit)
        orbit.append(a)
        a = a.doubled()
    return orbit


def periodic_angles(n: int, cap: int = PERIODIC_ANGLE_CAP) -> list[Angle]:
    """All angles fixed by n-fold doubling: k / (2^n - 1), k = 0 .. 2^n - 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > cap:
        raise QuadrayError(f"periodic_angles level {n} exceeds the cap {cap}")
    d = 2 ** n - 1
    return [Angle(k, d) for k in range(d)]


def _cyclic_descents(values: Sequence[Fraction]) -> int:
    m = len(values)
    return sum(1 for i in range(m) if values[(i + 1) % m] < values[i])


def cyclic_order_preserved(angles: Iterable[Angle],
                           image_map: Callable[[Angle], Angle] | dict) -> bool:
    """True when the image sequence, read around the circle in the order of
    the source angles, is itself cyclically monotone.

    The test counts descents in the image sequence: a cyclically increasing
    list of distinct values has exactly one wrap-around descent.  Exact, no
    floating point.
    """
    if isinstance(image_map, dict):
        image_map = image_map.__getitem__
    src = sorted(set(angles))
    images = [image_map(a) for a in src]
    if len(set(images)) != len(images):
        raise QuadrayError("image_map is not injective on the angle set")
    if len(src) <= 2:
        return True
    return _cyclic_descents([a.as_fraction() for a in images]) <= 1


def unlinked(a_set: Iterable[Angle], b_set: Iterable[Angle]) -> bool:
    """True when B lies in a single complementary arc of A (and vice versa)."""
    a_sorted = sorted(set(a_set))
    b_list = sorted(set(b_set))
    if set(a_sorted) & set(b_list):
        raise QuadrayError("unlinked requires disjoint angle sets")
    if len(a_sorted) <= 1 or len(b_list) <= 1:
        return True

    def gap_index(b: Angle) -> int:
        # Which arc (a_i, a_{i+1}) holds b; the wrap arc gets index len-1.
        fb = b.as_fraction()
        for i in range(len(a_sorted) - 1):
            if a_sorted[i].as_fraction() < fb < a_sorted[i + 1].as_fraction():
                return i
        return len(a_sorted) - 1

    gaps = {gap_index(b) for b in b_list}
    return len(gaps) == 1


@dataclass(frozen=True)
class OrbitPortrait:
    """An ordered family A_1 .. A_p of angle sets attached to a period-p orbit."""

    sets: tuple[tuple[Angle, ...], ...]
    ray_period: int | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "sets",
            tuple(tuple(sorted(set(s))) for s in self.sets))

    @property
    def orbit_period(self) -> int:
        return len(self.sets)

    def all_angles(self) -> list[Angle]:
        return [a for s in self.sets for a in s]

    def to_json(self) -> str:
        doc = {"p": self.orbit_period,
               "sets": [[str(a) for a in s] for s in self.sets]}
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OrbitPortrait":
        doc = json.loads(text)
        sets = tuple(tuple(Angle.parse(t) for t in s) for s in doc["sets"])
        if doc.get("p") != len(sets):
            raise QuadrayError("portrait document: p does not match sets")
        return cls(sets=sets)


@dataclass(frozen=True)
class PortraitReport:
    """Pass/fail record for the four formal-portrait conditions."""

    finite_nonempty: bool
    bijective_order_preserving: bool
    common_period: bool
    pairwise_unlinked: bool
    failures: tuple[str, ...] = ()
    ray_period: int | None = None

    @property
    def ok(self) -> bool:
        return (self.finite_nonempty and self.bijective_order_preserving
                and self.common_period and self.pairwise_unlinked)


@dataclass(frozen=True)
class PortraitClassification:
    valence: int
    ray_cycles: int
    kind: str  # "primitive" | "satellite" | "invalid"


def validate_formal_portrait(portrait: OrbitPortrait) -> PortraitReport:
    """Check the four conditions a formal orbit portrait must satisfy:
    (1) each set finite and nonempty, (2) doubling carries A_i bijectively
    onto A_{i+1} preserving cyclic order, (3) all angles periodic with a
    common period that is a multiple of p, (4) the sets pairwise unlinked.
    Violations are report content, not exceptions.
    """
    p = portrait.orbit_period
    failures: list[str] = []

    cond1 = p > 0 and all(len(s) > 0 for s in portrait.sets)
    if not cond1:
        failures.append("(1) some A_i is empty")

    cond2 = cond1
    if cond1:
        for i in range(p):
            src = portrait.sets[i]
            dst = set(portrait.sets[(i + 1) % p])
            images = {a.doubled() for a in src}
            if images != dst or len(images) != len(src):
                cond2 = False
                failures.append(f"(2) doubling does not carry A_{i + 1} onto the next set")
                break
            if not cyclic_order_preserved(src, lambda a: a.doubled()):
                cond2 = False
                failures.append(f"(2) cyclic order broken on A_{i + 1}")
                break

    periods = {angle_period(a) for a in portrait.all_angles()} if cond1 else {None}
    common = periods.pop() if len(periods) == 1 else None
    cond3 = common is not None and common % p == 0
    if not cond3:
        failures.append("(3) angles lack a common doubling period divisible by p")

    cond4 = True
    for i in range(p):
        for k in range(i + 1, p):
            try:
                if not unlinked(portrait.sets[i], portrait.sets[k]):
                    cond4 = False
            except QuadrayError:
                cond4 = False
            if not cond4:
                failures.append(f"(4) A_{i + 1} and A_{k + 1} are linked")
                break
        if not cond4:
            break

    return PortraitReport(
        finite_nonempty=cond1,
        bijective_order_preserving=cond2,
        common_period=cond3,
        pairwise_unlinked=cond4,
        failures=tuple(failures),
        ray_period=common if cond3 else None,
    )


def classify_portrait(portrait: OrbitPortrait) -> PortraitClassification:
    """Primitive/satellite dichotomy for a valid portrait.

    With valence v = |A_i| and r = (common angle period) / p, valid portraits
    have either r = 1 with v <= 2 (primitive) or v = r > 1 (satellite); any
    other combination is reported as invalid.
    """
    report = validate_formal_portrait(portrait)
    if not report.ok:
        raise QuadrayError(f"portrait fails validation: {report.failures}")
    valence = len(portrait.sets[0])
    r = report.ray_period // portrait.orbit_period
    if r == 1:
        kind = "primitive" if valence <= 2 else "invalid"
    elif valence == r:
        kind = "satellite"
    else:
        kind = "invalid"
    return PortraitClassification(valence=valence, ray_cycles=r, kind=kind)


@dataclass(frozen=True)
class ContinuedFractionReport:
    """Convergent denominators of alpha with the two partial sums
    sum log(q_{n+1})/q_n and sum loglog(q_{n+1})/q_n (n = 1..N)."""

    alpha: float
    convergent_denominators: tuple[int, ...]
    bryuno_partial: float
    perez_marco_partial: float


def _continued_fraction_denominators(alpha: Fraction, count: int) -> list[int]:
    """q_1 .. q_count from the continued-fraction algorithm, exact arithmetic."""
    x = alpha
    a0 = math.floor(x)
    x -= a0
    qs: list[int] = []
    q_prev, q_cur = 1, 0  # q_0 = 1, q_{-1} = 0
    for _ in range(count):
        if x == 0:
            raise QuadrayError(
                "alpha is rational at working precision: continued fraction terminated")
        x = 1 / x
        a = math.floor(x)
        x -= a
        q_prev, q_cur = a * q_prev + q_cur, q_prev
        qs.append(q_prev)
    return qs


def _sums_from_denominators(qs: Sequence[int], n_terms: int) -> tuple[float, float]:
    bryuno = 0.0
    perez_marco = 0.0
    for n in range(1, n_terms + 1):
        q_n, q_next = qs[n - 1], qs[n]
        bryuno += math.log(q_next) / q_n
        if q_next > math.e:
            perez_marco += math.log(math.log(q_next)) / q_n
    return bryuno, perez_marco


def bryuno_sums(alpha: float, n_terms: int) -> ContinuedFractionReport:
    """Continued-fraction denominators of alpha and the partial sums that
    decide linearizability-type conditions.

    alpha is taken at its exact binary64 value; the expansion is computed in
    exact rational arithmetic, so the q_n agree with the underlying real
    until q_n^2 approaches 1/ulp.  A rational alpha raises.
    """
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    qs = _continued_fraction_denominators(Fraction(alpha), n_terms + 1)
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise QuadrayError("convergent denominators failed to increase")
    bry, pm = _sums_from_denominators(qs, n_terms)
    return ContinuedFractionReport(
        alpha=float(alpha),
        convergent_denominators=tuple(qs[:n_terms]),
        bryuno_partial=bry,
        perez_marco_partial=pm,
    )


def bryuno_sums_from_quotients(quotients: Sequence[int], n_terms: int) -> ContinuedFractionReport:
    """Same report built from explicit partial quotients a_1, a_2, ...
    (a_0 is irrelevant to the denominators and taken as 0)."""
    if n_terms < 2:
        raise ValueError("n_terms must be >= 2")
    if len(quotients) < n_terms + 1:
        raise ValueError("need at least n_terms + 1 partial quotients")
    if any(a < 1 for a in quotients):
        raise ValueError("partial quotients must be positive")
    qs: list[int] = []
    q_prev, q_cur = 1, 0
    for a in quotients[: n_terms + 1]:
        q_prev, q_cur = a * q_prev + q_cur, q_prev
        qs.append(q_prev)
    # Approximate value of [0; a_1, a_2, ...] for the report; quotients past
    # the float resolution (or absurdly large) cannot move the value.
    head: list[int] = []
    for a in quotients[: min(len(quotients), 30)]:
        head.append(a)
        if a > 2 ** 60:
            break
    val = Fraction(0)
    for a in reversed(head):
        val = Fraction(1, a + val)
    bry, pm = _sums_from_denominators(qs, n_terms)
    return ContinuedFractionReport(
        alpha=float(val),
        convergent_denominators=tuple(qs[:n_terms]),
        bryuno_partial=bry,
        perez_marco_partial=pm,
    )
