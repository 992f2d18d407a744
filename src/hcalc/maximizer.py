"""Finite realization of the almost-maximal directional derivative iteration.

Starting from a Lipschitz field f0 with speed bound 1/2 and a pair
(point, unit direction), each step adds a small homomorphism
t_{m-1} <., E_{m-1}(0)> to the field and then searches a finite candidate
set for a near-maximal directional derivative among pairs that stay inside
the current ball, remain in the tube cover, and satisfy an increment
comparison against the incumbent.  The schedules

    sigma_m = sigma_{m-1} / 5            (allowed: below sigma_{m-1}/4)
    t_m     = min(t_{m-1}/2, sigma_{m-1}/(4m)) / 2
    lambda_m = t_m sigma_m^4 / (4 C_a^4) (allowed: below .. / (2 C_a^4))

sit at interior points of their allowed open ranges; sigma_0 = 2 and
t_0 = min(1/4, mu/2).  The ball radius delta_m is found by halving until
the closed ball fits inside a level-m tube and the incumbent-vs-selected
increment inequality verifies on the t grid, for |t| below
C_h^2 sqrt(1 + Lip E) sqrt(delta_m) / eps_m; the tube distances are those
of cover membership, and a fit their grid scan already shows skips their
golden section.

The constants are fixed, each named once below: C_a = 2 (``C_ANGLE``),
C_h = 4 (``C_HOLDER``), delta_0 = 1 (``DELTA0``), the field shift budget
mu = 1/2 (``MU``) and the cover level of the start, ``UDS_LEVEL`` = 10.
Pairs are compared by :func:`calculus.compare_pairs`, whose constant
K = 8 and t grid :data:`calculus.T_GRID` are the calculus module's, as is
the derivative ladder :data:`calculus.DEFAULT_STEPS`.  A run varies only
its seed, its number of steps and its candidates per step
(:class:`MaximizerConfig`).

The true candidate set is uncountable; the finite surrogate preserves
every checkable invariant but the near-maximality margin is only known
over the sampled candidates (the best-seen margin is recorded, global
optimality is not asserted).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .calculus import (
    T_GRID,
    ScalarField,
    compare_pairs,
    directional_derivative,
    line_increments,
)
from .group import (
    group_inv,
    group_mul,
    horizontal_point,
    project,
    require_unit,
)
from .metric import VECTOR_FIELD_LIP, cc_upper_quick
from .uds import Cover, _rational_unit

__all__ = [
    "Pair",
    "IterationState",
    "MaximizerConfig",
    "Trajectory",
    "step",
    "run",
    "verify_trajectory",
    "C_ANGLE", "C_HOLDER", "DELTA0", "MU", "UDS_LEVEL",
]


@dataclass(frozen=True)
class Pair:
    """Candidate (point, unit horizontal direction)."""

    x: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "direction", require_unit(np.asarray(self.direction, dtype=float)))

    @classmethod
    def in_cover(cls, x, direction, cover: Cover, level: int) -> "Pair":
        pair = cls(x, direction)
        if not cover.contains(pair.x, level):
            raise ValueError("point is not a certified member of the cover at this level")
        return pair


@dataclass(frozen=True)
class IterationState:
    """One accepted step: field shift, selected pair and schedule values.

    ``accum`` holds the homomorphism coefficients defining the step-m field
    f_m = f0 + <p(.), accum>; ``lam`` and ``eps`` are None at step 0.
    """

    m: int
    accum: np.ndarray
    x: np.ndarray
    direction: np.ndarray
    sigma: float
    t: float
    delta: float
    lam: Optional[float] = None
    eps: Optional[float] = None
    e_value: float = 0.0
    candidates: int = 0
    indeterminate: int = 0
    flag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "accum", np.asarray(self.accum, dtype=float))
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "direction", require_unit(np.asarray(self.direction, dtype=float)))

    def field(self, f0: ScalarField) -> ScalarField:
        return f0.shifted(self.accum) if np.any(self.accum != 0.0) else f0

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "accum": self.accum.tolist(),
            "x": self.x.tolist(),
            "direction": self.direction.tolist(),
            "sigma": self.sigma,
            "t": self.t,
            "delta": self.delta,
            "lam": self.lam,
            "eps": self.eps,
            "e_value": self.e_value,
            "candidates": self.candidates,
            "indeterminate": self.indeterminate,
            "flag": self.flag,
        }


C_ANGLE = 2.0
C_HOLDER = 4.0
DELTA0 = 1.0
MU = 0.5
UDS_LEVEL = 10


@dataclass
class MaximizerConfig:
    """What a run may vary; the schedule's constants are the module's."""

    seed: int = 0
    max_steps: int = 10
    budget: int = 512

    def __post_init__(self):
        for name, least in (("seed", 0), ("max_steps", 0), ("budget", 1)):
            value = getattr(self, name)
            # a float budget would fail mid-run, on a slice bound
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            setattr(self, name, int(value))

    @property
    def uds_level(self) -> int:
        """The cover level a start must be a member of (``UDS_LEVEL``)."""
        return UDS_LEVEL

    @classmethod
    def from_json(cls, data: dict) -> "MaximizerConfig":
        if not isinstance(data, dict):
            raise ValueError(f"a maximizer config is a JSON object, got {json.dumps(data)}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> dict:
        return asdict(self)


def _candidate_points(cover: Cover, center: np.ndarray, radius: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Points on cover lines within the metric ball around ``center``.

    Sampling concentrates on the parameter window where each line can
    still meet the ball, so candidates exist at every ball scale.
    """
    per_line = max(3, count // max(len(cover.lines), 1))
    bases, vecs = cover._bases, cover._vecs
    h = vecs[:, :-1]
    h2 = np.vecdot(h, h)
    t_near = np.vecdot(project(center) - bases[:, :-1], h) / h2
    half = 2.0 * radius / np.sqrt(h2)
    lo = np.maximum(cover.spans[:, 0], t_near - half)
    hi = np.minimum(cover.spans[:, 1], t_near + half)
    live = lo < hi
    # one draw for every live line, in line order: the stream of one call per line
    ts = rng.uniform(lo[live, None], hi[live, None], (int(np.sum(live)), per_line))
    cand = (bases[live, None, :] + ts[:, :, None] * vecs[live, None, :]).reshape(-1, len(center))
    keep = cc_upper_quick(group_mul(group_inv(center), cand)) < radius
    pool = np.vstack([center[None, :], cand[keep]])
    if len(pool) > count:
        idx = rng.choice(len(pool) - 1, size=count - 1, replace=False) + 1
        pool = np.vstack([pool[:1], pool[idx]])
    return pool


def _candidate_directions(incumbent: np.ndarray, sigma: float, rng: np.random.Generator, count: int) -> np.ndarray:
    n2 = len(incumbent)
    dirs = [incumbent]
    near = max(1, count // 2)
    for _ in range(near):
        pert = incumbent + sigma * rng.standard_normal(n2)
        norm = np.linalg.norm(pert)
        if norm == 0.0:
            continue
        pert /= norm
        try:
            nums, den = _rational_unit(pert, tol=min(1e-3, sigma / 8 + 1e-9))
            dirs.append(np.array([v / den for v in nums]))
        except ValueError:
            dirs.append(pert)
    extra = max(0, count - len(dirs))
    if extra == 0:
        return np.stack(dirs)
    uniform = rng.standard_normal((extra, n2))
    uniform /= np.linalg.norm(uniform, axis=1, keepdims=True)
    return np.vstack([np.stack(dirs), uniform])


def step(
    state: IterationState,
    f0: ScalarField,
    config: MaximizerConfig,
    cover: Cover,
    rng: np.random.Generator,
) -> IterationState:
    """One iteration: shift the field, then select a near-maximal admissible pair.

    The candidate set pairs points sampled on cover lines inside the
    current ball with directions near the incumbent (plus uniform ones);
    admissibility requires the incumbent-rooted increment comparison with
    slack strictly inside (0, sigma_{m-1}).  The first arg-max of the
    derivative estimates among admissible candidates is selected, so the
    near-maximality condition holds on the sampled set by construction.
    ``indeterminate`` counts the comparisons a greedy scan would have left
    undecided: every diverging estimate, plus each candidate that beat the
    best admissible value seen before it and whose comparison was
    inconclusive.

    The tube distances of the selected point are computed once, at the
    first delta whose increment test passes, by membership's route
    :meth:`Cover._tube_distances` with that delta as the slack: if the grid
    scan already fits the ball in a tube, the golden section is skipped and
    the grid values are kept.  The trajectory is the same as with every
    planar pair refined in full.  A pair the height bound drops is within
    no radius; the refined value never exceeds the grid's best, and float
    addition is monotone, so a grid fit at that delta means both
    ``any(grid + delta <= r)`` and ``any(refined + delta <= r)`` hold there
    and at every smaller delta the search can still reach.  If the grid
    does not fit, the distances are the full refinement.
    """
    m = state.m + 1
    accum = state.accum + state.t * state.direction
    f_m = f0.shifted(accum)
    sigma_prev, t_prev, delta_prev = state.sigma, state.t, state.delta
    sigma_m = sigma_prev / 5.0
    t_m = min(t_prev / 2.0, sigma_prev / (4.0 * m)) / 2.0
    lam_m = t_m * sigma_m**4 / (4.0 * C_ANGLE**4)

    n_dirs = max(4, int(math.sqrt(config.budget)))
    n_pts = max(4, config.budget // n_dirs)
    points = _candidate_points(cover, state.x, delta_prev, rng, n_pts)
    dirs = _candidate_directions(state.direction, sigma_prev, rng, n_dirs)
    # every (point, direction) pair, point-major; pair 0 is the incumbent itself
    cand_x = np.repeat(points, len(dirs), axis=0)[: config.budget + 1]
    cand_e = np.tile(dirs, (len(points), 1))[: config.budget + 1]

    cmp = compare_pairs(f_m, (state.x, state.direction), cand_x, cand_e, sigma=sigma_prev)
    values, required, d_prev = cmp.value, cmp.required_sigma, cmp.star
    admissible = required < sigma_prev * (1.0 - 1e-9)
    # the incumbent stays selected unless an admissible candidate beats it
    best_seen = np.where(admissible, values, -np.inf)
    best_seen[0] = values[0]
    best_idx = int(np.argmax(best_seen))
    best_required = float(required[best_idx]) if admissible[best_idx] else 0.0
    examined = np.ones(len(values), dtype=bool)
    examined[1:] = ~(values[1:] <= np.maximum.accumulate(best_seen)[:-1])
    inconclusive = examined & ~admissible & ((cmp.reason == "") | (cmp.reason == "indeterminate"))
    indeterminate = int(np.sum((cmp.reason == "diverging") | inconclusive))

    flag = "" if best_idx != 0 else "incumbent retained"
    x_m, e_m = cand_x[best_idx], cand_e[best_idx]
    eps_m = sigma_prev / 2.0 if best_required <= 0.0 else min(sigma_prev / 2.0, (sigma_prev - best_required) / 2.0)

    d_move = float(cc_upper_quick(group_mul(group_inv(state.x), x_m)))
    delta_m = max((delta_prev - d_move) / 4.0, 1e-300)
    e_sel = float(values[best_idx])
    t_abs = np.abs(T_GRID)
    inc_sel = line_increments(f_m, x_m, e_m, T_GRID)
    inc_prev = line_increments(f_m, state.x, state.direction, T_GRID)
    gap_sel = e_sel - d_prev.value + sigma_prev
    radii = cover.radii(min(m, cover.depth))
    dist = None  # upper distances from x_m to the lines li, computed at the first delta that reads them
    for _ in range(600):
        t_range = C_HOLDER**2 * math.sqrt(1.0 + VECTOR_FIELD_LIP) * math.sqrt(delta_m) / eps_m
        sel = t_abs < t_range
        if np.all(np.abs(inc_sel - inc_prev)[sel] <= gap_sel * t_abs[sel] + 1e-12):
            if dist is None:
                _, li, dist = cover._tube_distances(x_m[None, :], radii, settle=radii, slack=delta_m)
            # the closed ball fits in a level-m tube, and inside the previous ball
            if np.any(dist + delta_m <= radii[li]) and delta_m + d_move < delta_prev:
                break
        delta_m /= 2.0
    else:
        flag = (flag + "; " if flag else "") + "delta search exhausted"

    return IterationState(
        m=m,
        accum=accum,
        x=x_m,
        direction=e_m,
        sigma=sigma_m,
        t=t_m,
        delta=delta_m,
        lam=lam_m,
        eps=eps_m,
        e_value=e_sel,
        candidates=len(cand_x),
        indeterminate=indeterminate,
        flag=flag,
    )


@dataclass
class Trajectory:
    """Accepted states of a run plus everything needed to re-verify it."""

    states: list
    f0: ScalarField
    config: MaximizerConfig
    cover: Cover

    def final_pair(self) -> Pair:
        s = self.states[-1]
        return Pair(s.x, s.direction)

    def final_field(self) -> ScalarField:
        return self.f0.shifted(self.states[-1].accum + self.states[-1].t * self.states[-1].direction)

    def field_shift_norm(self) -> float:
        s = self.states[-1]
        return float(np.linalg.norm(s.accum + s.t * s.direction))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"config": self.config.to_json()}, sort_keys=True) + "\n")
            for s in self.states:
                fh.write(json.dumps(s.to_json(), sort_keys=True) + "\n")


def run(f0: ScalarField, start: Pair, config: MaximizerConfig, cover: Cover) -> Trajectory:
    """Full iteration from a starting pair.

    Requires a certified speed bound on f0; fields faster than 1/2 are
    rescaled.  A starting direction with negative derivative is flipped.
    Returns the trajectory of accepted states (max_steps of them, or fewer
    when the candidate search stalls).
    """
    if f0.declared_lip is None:
        raise ValueError("f0 needs a declared Lipschitz bound")
    if f0.declared_lip > 0.5:
        scale = 0.5 / f0.declared_lip
        base = f0
        f0 = ScalarField(lambda x: scale * np.asarray(base.eval(x), float),
                         declared_lip=0.5, label=f"scaled({base.label})")
    if not cover.contains(start.x, min(UDS_LEVEL, cover.depth)):
        raise ValueError("starting point is not a certified cover member")
    d0 = directional_derivative(f0, start.x, start.direction)
    direction0 = start.direction if d0.value >= 0 else -start.direction
    rng = np.random.default_rng(config.seed)
    sigma0, t0 = 2.0, min(0.25, MU / 2.0)
    states = [
        IterationState(
            m=0,
            accum=np.zeros_like(start.direction),
            x=start.x,
            direction=direction0,
            sigma=sigma0,
            t=t0,
            delta=DELTA0,
            e_value=abs(d0.value),
        )
    ]
    for _ in range(config.max_steps):
        states.append(step(states[-1], f0, config, cover, rng))
    return Trajectory(states, f0, config, cover)


def verify_trajectory(traj: Trajectory) -> dict:
    """Re-check every trajectory invariant from the log; lists violations.

    Covers the schedule inequalities, geometric decay of sigma, nested
    balls (with the certified upper distance), strictly increasing selected
    derivatives, direction drift within sigma, the total field shift, and
    the final pair's increment-envelope dominance over every recorded
    state within the final ball.
    """
    states = traj.states
    if not states:
        raise ValueError("empty trajectory")
    violations = []
    c4 = 2.0 * C_ANGLE**4
    e_values = []
    for s in states:
        f_s = s.field(traj.f0)
        e_values.append(directional_derivative(f_s, s.x, s.direction).value)
    for prev, s in zip(states, states[1:]):
        if not s.sigma < prev.sigma / 4.0:
            violations.append(f"m={s.m}: sigma not below a quarter of the previous")
        if not s.sigma <= 2.0 / 4.0**s.m:
            violations.append(f"m={s.m}: sigma exceeds 2/4^m")
        if not s.t < min(prev.t / 2.0, prev.sigma / (4.0 * s.m)):
            violations.append(f"m={s.m}: t out of schedule")
        if s.lam is None or not s.lam < s.t * s.sigma**4 / c4:
            violations.append(f"m={s.m}: lambda out of schedule")
        if s.eps is None or not (0.0 < s.eps < prev.sigma):
            violations.append(f"m={s.m}: eps out of range")
        move = float(cc_upper_quick(group_mul(group_inv(prev.x), s.x)))
        if not s.delta < (prev.delta - move) / 2.0:
            violations.append(f"m={s.m}: delta too large for nesting")
        if not move + s.delta < prev.delta:
            violations.append(f"m={s.m}: closed ball not nested")
    for i, j in ((i, j) for i in range(len(states)) for j in range(i + 1, len(states))):
        em, eq = states[i].direction, states[j].direction
        drift = float(cc_upper_quick(group_mul(group_inv(horizontal_point(em)), horizontal_point(eq))))
        if drift > states[i].sigma + 1e-12:
            violations.append(f"direction drift {drift:.3g} from m={states[i].m} to m={states[j].m} exceeds sigma")
    for i in range(1, len(e_values)):
        if not e_values[i] > e_values[i - 1]:
            violations.append(f"m={states[i].m}: selected derivative not strictly increasing")
    shift = traj.field_shift_norm()
    if shift > min(MU, 2.0 * states[0].t) + 1e-12:
        violations.append(f"field shift {shift:.3g} exceeds the allowed budget")
    final = traj.final_pair()
    f_final = traj.final_field()
    lip_final = (traj.f0.declared_lip or 0.5) + shift
    for s in states[:-1]:
        move = float(cc_upper_quick(group_mul(group_inv(final.x), s.x)))
        if move > states[-1].delta:
            continue
        verdict = compare_pairs(f_final, (s.x, s.direction), final.x, final.direction, lip=lip_final).verdict[0]
        if verdict is False:
            violations.append(f"final pair fails the increment envelope against m={s.m}")
    return {
        "states": len(states),
        "violations": violations,
        "clean": not violations,
        "e_values": e_values,
        "final_sigma": states[-1].sigma,
        "field_shift": shift,
    }
