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

A client's choice, effort and pass probability depend only on its type,
so ``RoundOutcome.sign_up`` chooses once per type and books clients as
arrays indexed by their type; the ledger is derived from those columns.
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

from .config import MODES
from .contracts import (
    DEFAULT_TOLERANCE,
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    _write_json,
    best_response_effort,
    envelope_utilities,
    utility_tolerance,
    verify_feasibility,
)
from .seeding import as_generator, child_rng


@dataclass(frozen=True)
class ContractChoice:
    """Outcome of one client's menu scan.

    ``index`` is the 1-based item index, or None for rejection.  ``tied``
    flags an exact indifference (within tolerance) between several items;
    the lowest tied index wins deterministically.
    """

    index: int | None
    effort: float
    tied: bool
    tie_indices: tuple[int, ...]

    @property
    def rejected(self) -> bool:
        return self.index is None


def choose_contract(
    theta: float,
    menu: ContractMenu,
    c: float,
    tie_tolerance: float = DEFAULT_TOLERANCE,
) -> ContractChoice:
    """Best item by envelope utility; reject when the maximum is negative.

    A maximum of exactly zero is accepted (participation at the outside
    option's value).  Ties within ``tie_tolerance`` of the maximum, scaled
    to the menu's utilities by ``utility_tolerance``, are broken to the
    lowest index and flagged.
    """
    utilities = envelope_utilities((theta,), menu, c)[0]
    best = utilities.max()
    tol = utility_tolerance((theta,), menu, c, tie_tolerance)
    tied_indices = tuple((np.flatnonzero(best - utilities <= tol) + 1).tolist())
    if best < 0.0:
        return ContractChoice(index=None, effort=0.0, tied=False, tie_indices=())
    index = tied_indices[0]
    effort = best_response_effort(theta, float(menu.rewards[index - 1]), c).effort
    return ContractChoice(
        index=index,
        effort=effort,
        tied=len(tied_indices) > 1,
        tie_indices=tied_indices if len(tied_indices) > 1 else (),
    )


def sample_population(
    profile: TypeProfile, n: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Draw n client types independently; returns their 0-based type indices."""
    if n < 1:
        raise ValueError("population size must be >= 1")
    return as_generator(seed).choice(len(profile), size=n, p=profile.betas)


def realize_success(
    theta: float | np.ndarray,
    effort: float | np.ndarray,
    seed: int | np.random.Generator,
) -> bool | np.ndarray:
    """Bernoulli trials at probability min(1, theta * effort), element-wise.

    One uniform draw per element, in order, so an array of k trials equals
    k scalar calls on the same generator.  Scalars give a bool, arrays a
    bool array.
    """
    theta = np.asarray(theta, dtype=float)
    effort = np.asarray(effort, dtype=float)
    outside = ~((effort >= 0.0) & (effort <= 1.0))
    if outside.any():
        raise ValueError(f"effort must lie in [0, 1], got {effort[outside].flat[0]}")
    p = np.minimum(1.0, theta * effort)
    success = as_generator(seed).random(p.shape) < p
    return bool(success) if success.ndim == 0 else success


def _reward_shares(ids: list[int], rewards: np.ndarray) -> dict[int, float]:
    """Reward-share weights over the passers' parallel id and reward columns.

    Each weight is the client's reward over the total reward paid this
    round.  Equal rewards short-circuit to exactly 1/k so the weights are
    bit-identical to a uniform scheme; an all-zero reward total falls
    back to uniform as well.  No passers give an empty map.
    """
    if not ids:
        return {}
    total = float(rewards.sum())
    if total <= 0.0 or np.all(rewards == rewards[0]):
        return dict.fromkeys(ids, 1.0 / len(ids))
    return dict(zip(ids, (rewards / total).tolist()))


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

    profile: TypeProfile
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
        c = profile.unit_cost
        choices = [choose_contract(theta, menu, c) for theta in profile.thetas.tolist()]
        effort = np.array([ch.effort for ch in choices])
        return cls(
            profile=profile,
            menu=menu,
            curve=curve,
            client_type=client_type,
            type_choice=np.array([-1 if ch.rejected else ch.index - 1 for ch in choices]),
            type_effort=effort,
            type_success_prob=np.minimum(1.0, profile.thetas * effort),
            type_tied=np.array([ch.tied for ch in choices]),
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

    def _participant_values(self, column: np.ndarray) -> np.ndarray:
        """Each participant's entry of a menu ``column``, at its type's row."""
        per_type = np.where(self.type_choice >= 0, column[self.type_choice], 0.0)
        return per_type[self.participant_types]

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
    def aggregation_weights(self) -> dict[int, float]:
        """Reward shares of the passers; expected-reward shares in analytic mode."""
        share = self._pass_weight * self._participant_values(self.menu.rewards)
        if self.mode != "analytic":
            passed = self._pass_weight > 0.0
            return _reward_shares(self.participant_ids[passed].tolist(), share[passed])
        positive = share > 0.0
        total = math.fsum(share[positive].tolist())
        if total <= 0.0:
            return {}
        ids = self.participant_ids[positive].tolist()
        return dict(zip(ids, (share[positive] / total).tolist()))

    def to_dict(self) -> dict:
        n = len(self.client_type)
        return {
            "mode": self.mode,
            "n_clients": n,
            "participants": self.participants,
            "successes": self.successes,
            "fees_collected": self.fees_collected,
            "rewards_paid": self.rewards_paid,
            "fees_forfeited": self.fees_forfeited,
            "realized_server_utility": self.realized_server_utility,
            "mean_server_utility_per_client": self.realized_server_utility / n,
            "aggregation_weights": {str(k): v for k, v in self.aggregation_weights.items()},
            "tied_types": (np.flatnonzero(self.type_tied) + 1).tolist(),
        }

    def to_json(self, path: str | Path) -> None:
        _write_json(self.to_dict(), path)

    def clients_to_csv(self, path: str | Path) -> None:
        """Per-client rows: id, type, choice, effort, succeeded, fee, reward, success_prob.

        Every column but id and succeeded is a function of the client's
        type, so each type's text is formatted once.  No field holds a
        comma, quote or line break, so rows are joined in the csv module's
        default dialect (',' between fields, '\\r\\n' after each row)
        without quoting.
        """
        fees, rewards = self.menu.fees.tolist(), self.menu.rewards.tolist()
        heads, tails = [], []
        for t, (j, effort, prob) in enumerate(zip(
            self.type_choice.tolist(), self.type_effort.tolist(), self.type_success_prob.tolist()
        )):
            heads.append(f"{t + 1},{'reject' if j < 0 else j + 1},{effort!r},")
            fee, reward = (0.0, 0.0) if j < 0 else (fees[j], rewards[j])
            tails.append(f",{fee!r},{reward!r},{prob!r}\r\n")
        with open(path, "w", newline="") as fh:
            fh.write("id,type,choice,effort,succeeded,fee,reward,success_prob\r\n")
            fh.writelines(
                f"{cid},{heads[t]}{success}{tails[t]}"
                for cid, (t, success) in enumerate(
                    zip(self.client_type.tolist(), self.succeeded.tolist())
                )
            )


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
    ptype = outcome.participant_types
    return outcome.with_passes(
        realize_success(profile.thetas[ptype], outcome.type_effort[ptype], child_rng(seed, 1))
    )
