"""Single-round population simulation of the contracting procedure.

Clients drawn from the type distribution face a published menu, pick the
item maximizing their envelope utility (or reject when even the best
item is worse than staying out), exert the clamped best-response effort,
and pass the server-side test with probability theta * effort.  Passers
earn their item's reward; everyone who signed pays the registration fee,
which is forfeited on failure.  Submitted models of passers are weighted
by reward share.

The accounting modes are the config's words: ``ml`` realizes Bernoulli
successes from the seed, ``analytic`` books every client at its
expected values, so the per-client mean converges to the server's
expected utility as the population grows.

A client's choice, effort and pass probability depend only on its type:
``RoundOutcome.sign_up`` takes each type's ``(row, effort, tied)`` column
entries from one ``choose_contract`` call, computes the pass probability
min(1, theta * effort) once per type, and books clients as arrays indexed
by their type.  The ledger is derived from those columns: its JSON holds
one aggregation share per type, and its CSV rows are streamed from
per-type text.
``learning.run_scheme_comparison`` settles its rounds with the same
engine, deciding passes by a trained model's server test.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .config import MODES, child_rng
from .contracts import (
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    _write_json,
    envelope_utilities,
    utility_tolerance,
    verify_feasibility,
)


def choose_contract(theta: float, menu: ContractMenu, c: float) -> tuple[int, float, bool]:
    """A type's whole response to ``menu``: ``(row, effort, tied)``.

    ``row`` is the 0-based menu row of the best item by envelope utility,
    -1 when even that maximum is negative (a maximum of exactly zero is
    accepted, participation at the outside option's value).  Items within
    ``DEFAULT_TOLERANCE`` of the maximum, scaled to the menu's utilities by
    ``utility_tolerance``, tie: the lowest row wins and ``tied`` is set.
    ``effort`` is the best response theta R / c clamped to [0, 1], 0.0 on
    rejection.  These are the type's entries of ``RoundOutcome``'s
    ``type_choice``, ``type_effort`` and ``type_tied``.

    The benchmark tracer (``perfbench/tracer.py``) wraps this function by
    name and reads ``(theta, menu, c)`` from its positional arguments, so
    both stay as they are; ``RoundOutcome.sign_up`` calls it once per type.
    """
    if theta < 0.0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    utilities = envelope_utilities((theta,), menu, c)[0]
    best = utilities.max()
    if best < 0.0:
        return -1, 0.0, False
    tied = np.flatnonzero(best - utilities <= utility_tolerance((theta,), menu, c))
    row = int(tied[0])
    return row, min(max(theta * float(menu.rewards[row]) / c, 0.0), 1.0), len(tied) > 1


def sample_population(profile: TypeProfile, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n client types independently; returns their 0-based type indices."""
    if n < 1:
        raise ValueError("population size must be >= 1")
    return rng.choice(len(profile), size=n, p=profile.betas)


def realize_success(p: float | np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli trials at success probability ``p``, element-wise: a bool
    array of ``p``'s shape.

    One uniform draw per element, in order, so an array of k trials equals
    k scalar calls on the same generator.
    """
    p = np.asarray(p, dtype=float)
    outside = ~((p >= 0.0) & (p <= 1.0))
    if outside.any():
        raise ValueError(f"success probability must lie in [0, 1], got {p[outside].flat[0]}")
    return rng.random(p.shape) < p


_ROWS_PER_WRITE = 1024  # clients formatted per write when streaming the round's CSV


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """One contracting round, stored as columns; the ledger is derived from them.

    A client's choice, effort, success probability and tie flag depend
    only on its type, so they are per-type columns (``type_*``, one entry
    per profile type) indexed by the per-client ``client_type``; only
    ``succeeded`` is a per-client value of its own.  ``type_choice`` is the
    menu row each type takes, read against the menu's columns.

    ``mode='ml'`` books realized fees, rewards and forfeits from the
    ``succeeded`` flags; ``mode='analytic'`` books their expectations
    (succeeded flags stay False there, the success probabilities carry
    the accounting).  Forfeited fees are a subset of fees_collected,
    never double counted.  The ledger is computed on first access; only
    ``realized_server_utility`` evaluates the revenue curve.
    """

    menu: ContractMenu
    curve: RevenueCurve
    client_type: np.ndarray  # 0-based type index of each client
    type_choice: np.ndarray  # 0-based menu row per type, -1 for a rejecting type
    type_effort: np.ndarray
    type_success_prob: np.ndarray
    type_tied: np.ndarray
    mode: str
    succeeded: np.ndarray  # bool per client

    @classmethod
    def sign_up(
        cls, profile: TypeProfile, menu: ContractMenu, curve: RevenueCurve, client_type: np.ndarray
    ) -> "RoundOutcome":
        """Each type picks from ``menu`` once; the round is booked at its
        expected values (``analytic``) until ``with_passes`` realizes it."""
        rows, efforts, tied = zip(*(
            choose_contract(theta, menu, profile.unit_cost) for theta in profile.thetas.tolist()
        ))
        effort = np.array(efforts)
        return cls(
            menu=menu,
            curve=curve,
            client_type=client_type,
            type_choice=np.array(rows),
            type_effort=effort,
            type_success_prob=np.minimum(1.0, profile.thetas * effort),
            type_tied=np.array(tied),
            mode="analytic",
            succeeded=np.zeros(len(client_type), dtype=bool),
        )

    def with_passes(self, passed: np.ndarray) -> "RoundOutcome":
        """This round realized (``ml``): the participants' pass flags, in participant order."""
        succeeded = np.zeros(len(self.client_type), dtype=bool)
        succeeded[self.participant_ids] = passed
        return replace(self, succeeded=succeeded, mode="ml")

    @property
    def participant_ids(self) -> np.ndarray:
        """Ids of the clients whose type accepted an item, in client order."""
        accepted = self.type_choice >= 0
        return np.flatnonzero(accepted[self.client_type])

    @property
    def participant_types(self) -> np.ndarray:
        return self.client_type[self.participant_ids]

    @property
    def participants(self) -> int:
        return len(self.participant_ids)

    @property
    def successes(self) -> int:
        return int(np.count_nonzero(self.succeeded))

    def _type_values(self, column: np.ndarray) -> np.ndarray:
        """Each type's entry of a menu ``column`` at its row, 0.0 for a rejecting type."""
        return np.where(self.type_choice >= 0, column[self.type_choice], 0.0)

    def _participant_values(self, column: np.ndarray) -> np.ndarray:
        """Each participant's entry of a menu ``column``, at its type's row."""
        return self._type_values(column)[self.participant_types]

    @property
    def _pass_weight(self) -> np.ndarray:
        """Per participant: 1.0 or 0.0 as it passed, its pass probability in
        analytic mode.  Adding a 0.0 term leaves a running total unchanged,
        so a realized total is the sum over the passers (or failures) alone."""
        if self.mode == "analytic":
            return self.type_success_prob[self.participant_types]
        return self.succeeded[self.participant_ids].astype(float)

    @cached_property
    def fees_collected(self) -> float:
        return _running_total(self._participant_values(self.menu.fees))

    @cached_property
    def rewards_paid(self) -> float:
        return _running_total(self._pass_weight * self._participant_values(self.menu.rewards))

    @cached_property
    def fees_forfeited(self) -> float:
        return _running_total((1.0 - self._pass_weight) * self._participant_values(self.menu.fees))

    @cached_property
    def realized_server_utility(self) -> float:
        benchmarks, rewards = self.menu.benchmarks.tolist(), self.menu.rewards.tolist()
        margin = [
            0.0 if j < 0 else self.curve(benchmarks[j]) - rewards[j]
            for j in self.type_choice.tolist()
        ]
        return _running_total(
            self._participant_values(self.menu.fees)
            + self._pass_weight * np.array(margin)[self.participant_types]
        )

    @cached_property
    def _type_share(self) -> np.ndarray:
        """Per type: the reward a passer earns (``ml``), or a participant's
        expected reward p R (``analytic``)."""
        reward = self._type_values(self.menu.rewards)
        return self.type_success_prob * reward if self.mode == "analytic" else reward

    @cached_property
    def _weight_holders(self) -> np.ndarray:
        """Ids of the clients that get an aggregation weight, in client order:
        the passers (``ml``), or the participants with a positive expected
        reward (``analytic``)."""
        if self.mode == "analytic":
            return self.participant_ids[self._type_share[self.participant_types] > 0.0]
        return np.flatnonzero(self.succeeded)

    @cached_property
    def type_weight(self) -> np.ndarray:
        """Per type: the aggregation weight of each of its clients that gets
        one, 0.0 for a type with none.

        A passer's weight is its reward over the passers' rewards summed by
        ``np.sum``, pairwise, so not always to ``rewards_paid``'s left-to-right
        bits; equal rewards, or a total of zero, give exactly 1/k for k
        passers, bit-identical to a uniform scheme.
        In ``analytic`` mode a weight is the expected-reward share, over the
        exact (``math.fsum``) total of the positive expected rewards.
        """
        holder_types = self.client_type[self._weight_holders]
        held = np.bincount(holder_types, minlength=len(self.type_choice)) > 0
        shares = self._type_share[holder_types]
        if not len(shares):
            return np.zeros(len(held))
        if self.mode == "analytic":
            return np.where(held, self._type_share / math.fsum(shares.tolist()), 0.0)
        total = float(shares.sum())
        if total <= 0.0 or np.all(shares == shares[0]):
            return np.where(held, 1.0 / len(shares), 0.0)
        return np.where(held, self._type_share / total, 0.0)

    @property
    def aggregation_weights(self) -> dict[int, float]:
        """Client id -> weight, in client order: the dict view of ``type_weight``."""
        ids = self._weight_holders
        return dict(zip(ids.tolist(), self.type_weight[self.client_type[ids]].tolist()))

    def to_json(self, path: str | Path) -> None:
        """The ledger, written by ``_write_json`` like every JSON output.

        ``aggregation_weights`` maps each 1-based type with a weight holder
        to its share of the aggregate, ``type_weight[t] * k_t`` for its k_t
        holders.  The shares are computed after the sums, so their per-holder
        temporaries do not add to the sums' peak memory.
        """
        n = len(self.client_type)
        ledger = {
            "mode": self.mode,
            "n_clients": n,
            "participants": self.participants,
            "successes": self.successes,
            "fees_collected": self.fees_collected,
            "rewards_paid": self.rewards_paid,
            "fees_forfeited": self.fees_forfeited,
            "realized_server_utility": self.realized_server_utility,
            "mean_server_utility_per_client": self.realized_server_utility / n,
            "tied_types": (np.flatnonzero(self.type_tied) + 1).tolist(),
        }
        k = np.bincount(self.client_type[self._weight_holders], minlength=len(self.type_choice))
        held = np.flatnonzero(k)
        ledger["aggregation_weights"] = {
            str(t + 1): w * k_t
            for t, w, k_t in zip(held.tolist(), self.type_weight[held].tolist(), k[held].tolist())
        }
        _write_json(ledger, path)

    def clients_to_csv(self, path: str | Path) -> None:
        """Per-client rows: id, type, choice, effort, succeeded, fee, reward, success_prob.

        Every column but id and succeeded is a function of the client's
        type, so the text after the id is formatted once per (type,
        succeeded) pair, 2I tails, and the rows ``f"{id}{tail}"`` are
        streamed in chunks; no per-client list of the round is built.  No
        field holds a comma, quote or line break, so the bytes are those of
        the csv module's default dialect (',' between fields, '\\r\\n'
        after each row, nothing quoted).
        """
        fees, rewards = self.menu.fees.tolist(), self.menu.rewards.tolist()
        tails = []
        for t, (j, effort, prob) in enumerate(zip(
            self.type_choice.tolist(), self.type_effort.tolist(), self.type_success_prob.tolist()
        )):
            fee, reward = (0.0, 0.0) if j < 0 else (fees[j], rewards[j])
            for success in (False, True):
                tails.append(
                    f",{t + 1},{'reject' if j < 0 else j + 1},{effort!r},{success},"
                    f"{fee!r},{reward!r},{prob!r}\r\n"
                )
        with open(path, "w", newline="") as fh:
            fh.write("id,type,choice,effort,succeeded,fee,reward,success_prob\r\n")
            keys = 2 * self.client_type + self.succeeded
            for start in range(0, len(keys), _ROWS_PER_WRITE):
                chunk = keys[start:start + _ROWS_PER_WRITE].tolist()
                fh.write("".join([f"{i}{tails[k]}" for i, k in enumerate(chunk, start)]))


def _running_total(terms: np.ndarray) -> float:
    """``total = 0.0; for t in terms: total += t``, bit for bit.

    ``np.cumsum`` adds left to right as the loop does; ``np.sum`` adds
    pairwise and can differ in the last bits.
    """
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def run_round(
    profile: TypeProfile,
    menu: ContractMenu,
    curve: RevenueCurve,
    n: int,
    mode: str,
    seed: int,
) -> RoundOutcome:
    """Sample a population, let it contract, realize or expect outcomes, settle.

    ``mode='ml'`` draws Bernoulli successes; ``mode='analytic'`` books
    expected fees/rewards/forfeits per client, in which case the
    aggregation weights are expected-reward shares over clients with a
    positive expected reward.  Deterministic per (inputs, seed); an
    infeasible menu is simulated anyway but triggers a warning.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if n < 1:
        raise ValueError("population size must be >= 1")
    report = verify_feasibility(profile, menu)
    if not report.feasible:
        warnings.warn(
            f"menu is infeasible for this profile: {report.violations()[:3]}",
            stacklevel=2,
        )
    client_type = sample_population(profile, n, child_rng(seed, 0))
    outcome = RoundOutcome.sign_up(profile, menu, curve, client_type)
    if mode == "analytic":
        return outcome
    return outcome.with_passes(realize_success(
        outcome.type_success_prob[outcome.participant_types], child_rng(seed, 1)
    ))
