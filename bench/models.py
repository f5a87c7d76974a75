"""Seeded model documents for the benchmark workloads.

Each workload is one ``bvforge`` command line on a generated ``.bv``
document.  The seed varies coefficients and family labels only: the
ansatz, the linear systems and the identity tuples keep the sizes of
the default seed, so a run on any seed measures the same amount of
work.  Seed 0 is the reference model of each workload, written exactly
as the models quoted in the notes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("lift-jet", "lift-finite", "identities")
DEFAULT_SEED = 0

# gl(3) basis E_ij in a fixed enumeration order
_GL3 = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))


@dataclass(frozen=True)
class Job:
    """One workload instance: a model document, a command and its expected output."""

    workload: str
    seed: int
    model_text: str
    command: str
    flags: tuple[str, ...]
    expected_lines: tuple[str, ...]

    @property
    def expected_report(self) -> str:
        """The exact text report, as ``bvforge`` renders it."""
        return "\n".join(self.expected_lines) + "\n"

    def argv(self, model_path: str) -> list[str]:
        return [self.command, model_path, *self.flags]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))


def _labels(rng: random.Random, n: int) -> list[str]:
    """Distinct identifier labels in increasing order.

    Keeping the order of the default labels keeps every canonical
    monomial order, so the lift differs from seed 0 only in its labels
    and its coefficient.
    """
    pool = [f"{letter}{digit}" for letter in "abdeghkmnpqsvwyz" for digit in range(10)]
    return sorted(rng.sample(pool, n))


def _term(c: Fraction, atoms: str) -> str:
    """A one-monomial expression written the way the report prints it."""
    magnitude = abs(c)
    body = atoms if magnitude == 1 else f"{magnitude}*{atoms}"
    return body if c > 0 else f"-{body}"


def _open_algebra(workload: str, seed: int) -> Job:
    """Two gauge symmetries that close only on the u3 equation of motion.

    The solved action needs the quadratic-antifield term
    -q1*q2/(2m) ustar ustar C C, which the report prints as the lift.
    """
    if seed == DEFAULT_SEED:
        fields, gauge = ["1", "2", "3"], ["1", "2"]
        m, q1, q2 = Fraction(1, 2), Fraction(1), Fraction(1)
    else:
        rng = random.Random(f"{workload}:{seed}")
        m, q1, q2 = _rational(rng), _rational(rng), _rational(rng)
        fields, gauge = _labels(rng, 3), _labels(rng, 2)
    f1, f2, f3 = fields
    g1, g2 = gauge
    dimension, bounds, flags = {
        "lift-jet": (1, "jet=1 deg=4", ()),
        "lift-finite": (0, "jet=3 deg=4", ("--bounds", "deg=9")),
    }[workload]
    text = "\n".join([
        f"dimension {dimension}",
        f"fields {f1} {f2} {f3}",
        f"gauge {g1} {g2}",
        f"bounds {bounds}",
        f"lagrangian {_term(m, f'u[{f3}]^2')}",
        "generators",
        f"  r[{f1}, {g1}] = {_term(q1, f'u[{f3}]')}",
        f"  r[{f2}, {g2}] = {_term(q2, f'u[{f1}]')}",
    ]) + "\n"
    lift = _term(-q1 * q2 / (2 * m), f"ustar[{f2}]*ustar[{f3}]*C[{g1}]*C[{g2}]")
    return Job(workload, seed, text, "solve", flags, (f"lift[1] = {lift}", "PASS"))


def _gl3(seed: int) -> Job:
    """gl(3) as a closed algebra: [E_ij, E_kl] = d_jk E_il - d_li E_kj.

    The seed permutes which label names which basis element; the
    identity count depends on the dimension alone.
    """
    names = [f"{i}{j}" for i, j in _GL3]
    if seed != DEFAULT_SEED:
        random.Random(f"identities:{seed}").shuffle(names)
    label = dict(zip(_GL3, names))
    lines = ["dimension 0", "gauge " + " ".join(names), "structure"]
    for a, (i, j) in enumerate(_GL3):
        for k, l in _GL3[a + 1:]:
            coefficients: dict[tuple[int, int], int] = {}
            if j == k:
                coefficients[(i, l)] = coefficients.get((i, l), 0) + 1
            if l == i:
                coefficients[(k, j)] = coefficients.get((k, j), 0) - 1
            for gamma, c in sorted(coefficients.items()):
                if c:
                    lines.append(
                        f"  c[{label[gamma]}, {label[(i, j)]}, {label[(k, l)]}] = {c}")
    text = "\n".join(lines) + "\n"
    return Job("identities", seed, text, "check-linfty", ("-n", "4"),
               ("identities checked = 7314", "PASS"))


def make_job(workload: str, seed: int) -> Job:
    """The job a workload runs for ``seed``; the same seed gives the same job."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "identities":
        return _gl3(seed)
    return _open_algebra(workload, seed)
