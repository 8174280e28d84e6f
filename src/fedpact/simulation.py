"""Single-round population simulation of the contracting procedure.

Clients drawn from the type distribution face a published menu, pick the
item maximizing their envelope utility (or reject when even the best
item is worse than staying out), exert the clamped best-response effort,
and pass the server-side test with probability theta * effort.  Passers
earn their item's reward; everyone who signed pays the registration fee,
which is forfeited on failure.  Submitted models of passers are weighted
by reward share.

Two accounting modes share the ledger code: ``stochastic`` realizes
Bernoulli successes from the seed, ``analytic`` books every client at
its expected values, so the per-client mean converges to the server's
expected utility as the population grows.

A client's choice, effort and pass probability depend only on its type,
so the round chooses once per type and books clients as arrays indexed
by their type; ``RoundOutcome`` stores those columns and builds
per-client ``SimulatedClient`` records only when asked.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .contracts import (
    ClientType,
    ContractItem,
    ContractMenu,
    RevenueCurve,
    TypeProfile,
    best_response_effort,
    client_utility_at_best_response,
    verify_feasibility,
)
from .seeding import as_generator, child_rng

TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ContractChoice:
    """Outcome of one client's menu scan.

    ``index`` is the 1-based item index, or None for rejection.  ``tied``
    flags an exact indifference (within tolerance) between several items;
    the lowest tied index wins deterministically.
    """

    index: int | None
    effort: float
    utility: float
    tied: bool
    tie_indices: tuple[int, ...]

    @property
    def rejected(self) -> bool:
        return self.index is None


def choose_contract(
    theta: float,
    menu: ContractMenu,
    c: float,
    tie_tolerance: float = TIE_TOLERANCE,
) -> ContractChoice:
    """Best item by envelope utility; reject when the maximum is negative.

    A maximum of exactly zero is accepted (participation at the outside
    option's value).  Ties within ``tie_tolerance`` of the maximum are
    broken to the lowest index and flagged.
    """
    utilities = [client_utility_at_best_response(theta, item, c) for item in menu]
    best = max(utilities)
    tied_indices = tuple(
        i + 1 for i, u in enumerate(utilities) if best - u <= tie_tolerance
    )
    if best < 0.0:
        return ContractChoice(
            index=None, effort=0.0, utility=0.0, tied=False, tie_indices=()
        )
    index = tied_indices[0]
    effort = best_response_effort(theta, menu[index - 1].reward, c).effort
    return ContractChoice(
        index=index,
        effort=effort,
        utility=utilities[index - 1],
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


def aggregation_weights(
    succeeded: list[tuple[int, ContractItem]],
) -> dict[int, float]:
    """Reward-share weights over the passing clients.

    Each weight is the client's reward over the total reward paid this
    round.  Equal rewards short-circuit to exactly 1/k so the weights are
    bit-identical to a uniform scheme; an all-zero reward total falls
    back to uniform as well.  Empty input gives an empty map.
    """
    return _reward_shares(
        [cid for cid, _ in succeeded], np.array([item.reward for _, item in succeeded])
    )


def _reward_shares(ids: list[int], rewards: np.ndarray) -> dict[int, float]:
    """``aggregation_weights`` over parallel id and reward columns."""
    if not ids:
        return {}
    total = float(rewards.sum())
    if total <= 0.0 or np.all(rewards == rewards[0]):
        return dict.fromkeys(ids, 1.0 / len(ids))
    return dict(zip(ids, (rewards / total).tolist()))


@dataclass(frozen=True)
class SimulatedClient:
    """One client's round: type, menu choice, effort, and realized outcome."""

    id: int
    true_type: ClientType
    chosen_item: ContractItem | None
    effort: float
    succeeded: bool
    success_prob: float
    tied: bool

    def __post_init__(self) -> None:
        if self.chosen_item is None and (self.effort != 0.0 or self.succeeded):
            raise ValueError("a rejecting client has zero effort and no success")

    @property
    def rejected(self) -> bool:
        return self.chosen_item is None


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """Ledger of one simulated round, with its clients stored as columns.

    Stochastic mode books realized fees, rewards, and forfeits; analytic
    mode books their expectations (succeeded flags stay False there, the
    success probabilities carry the accounting).  Forfeited fees are a
    subset of fees_collected, never double counted.

    A client's choice, effort, success probability and tie flag depend
    only on its type, so they are per-type columns (``type_*``, one entry
    per profile type) indexed by the per-client ``client_type``; only
    ``succeeded`` is a per-client value of its own.
    """

    profile: TypeProfile
    client_type: np.ndarray  # 0-based type index of each client
    succeeded: np.ndarray  # bool per client
    type_item: tuple[ContractItem | None, ...]  # None for a rejecting type
    type_effort: np.ndarray
    type_success_prob: np.ndarray
    type_tied: np.ndarray
    fees_collected: float
    rewards_paid: float
    fees_forfeited: float
    realized_server_utility: float
    aggregation_weights: dict[int, float]
    mode: str

    @property
    def participants(self) -> int:
        accepted = np.array([item is not None for item in self.type_item])
        return int(np.count_nonzero(accepted[self.client_type]))

    @property
    def successes(self) -> int:
        return int(np.count_nonzero(self.succeeded))

    @cached_property
    def ties(self) -> tuple[int, ...]:
        """Ids of the participants that chose between tied items."""
        return tuple(np.flatnonzero(self.type_tied[self.client_type]).tolist())

    @cached_property
    def clients(self) -> tuple[SimulatedClient, ...]:
        """One record per client, built from the columns on first access."""
        types, items = self.profile.types, self.type_item
        efforts = self.type_effort.tolist()
        probs = self.type_success_prob.tolist()
        tied = self.type_tied.tolist()
        return tuple(
            SimulatedClient(
                id=cid,
                true_type=types[t],
                chosen_item=items[t],
                effort=efforts[t],
                succeeded=success,
                success_prob=probs[t],
                tied=tied[t],
            )
            for cid, (t, success) in enumerate(
                zip(self.client_type.tolist(), self.succeeded.tolist())
            )
        )

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
            "ties": list(self.ties),
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def clients_to_csv(self, path: str | Path) -> None:
        """Per-client rows: id, type, choice, effort, succeeded, fee, reward, success_prob.

        Every column but id and succeeded is a function of the client's
        type, so each type's text is formatted once.  No field holds a
        comma, quote or line break, so rows are joined in the csv module's
        default dialect (',' between fields, '\\r\\n' after each row)
        without quoting.
        """
        heads, tails = [], []
        for ctype, item, effort, prob in zip(
            self.profile.types,
            self.type_item,
            self.type_effort.tolist(),
            self.type_success_prob.tolist(),
        ):
            heads.append(f"{ctype.index},{item.index if item else 'reject'},{effort!r},")
            fee, reward = (item.fee, item.reward) if item else (0.0, 0.0)
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

    ``mode='stochastic'`` draws Bernoulli successes; ``mode='analytic'``
    books expected fees/rewards/forfeits per client, in which case the
    aggregation weights are expected-reward shares over clients with a
    positive expected reward.  Deterministic per (inputs, seed); an
    infeasible menu is simulated anyway but triggers a warning.

    The contract choice is made once per type; clients then gather their
    type's fee, reward, margin and success probability by indexing, and
    the ledger totals add the per-client terms in client order.
    """
    if mode not in ("analytic", "stochastic"):
        raise ValueError(f"mode must be 'analytic' or 'stochastic', got {mode!r}")
    if n < 1:
        raise ValueError("population size must be >= 1")
    report = verify_feasibility(profile, menu)
    if not report.feasible:
        warnings.warn(
            f"menu is infeasible for this profile: {report.violations()[:3]}",
            stacklevel=2,
        )
    c = profile.unit_cost
    client_type = sample_population(profile, n, child_rng(seed, 0))

    choices = [choose_contract(t.theta, menu, c) for t in profile.types]
    items = tuple(None if ch.rejected else menu[ch.index - 1] for ch in choices)
    thetas = profile.thetas
    type_effort = np.array([ch.effort for ch in choices])
    type_tied = np.array([ch.tied for ch in choices])
    prob = np.minimum(1.0, thetas * type_effort)
    fee = np.array([0.0 if it is None else it.fee for it in items])
    reward = np.array([0.0 if it is None else it.reward for it in items])
    margin = np.array([0.0 if it is None else curve(it.benchmark) - it.reward for it in items])

    accepted = np.array([not ch.rejected for ch in choices])
    participant = np.flatnonzero(accepted[client_type])  # client ids, in order
    ptype = client_type[participant]
    succeeded = np.zeros(n, dtype=bool)
    fees = _running_total(fee[ptype])
    if mode == "stochastic":
        success = realize_success(thetas[ptype], type_effort[ptype], child_rng(seed, 1))
        succeeded[participant] = success
        won = ptype[success]
        rewards = _running_total(reward[won])
        forfeits = _running_total(fee[ptype[~success]])
        utility = _running_total(np.where(success, (fee + margin)[ptype], fee[ptype]))
        weights = _reward_shares(participant[success].tolist(), reward[won])
    else:
        share = (prob * reward)[ptype]
        rewards = _running_total(share)
        forfeits = _running_total(((1.0 - prob) * fee)[ptype])
        utility = _running_total((fee + prob * margin)[ptype])
        positive = share > 0.0
        shares = share[positive]
        total = math.fsum(shares.tolist())
        weights = (
            dict(zip(participant[positive].tolist(), (shares / total).tolist()))
            if total > 0.0 else {}
        )

    return RoundOutcome(
        profile=profile,
        client_type=client_type,
        succeeded=succeeded,
        type_item=items,
        type_effort=type_effort,
        type_success_prob=prob,
        type_tied=type_tied,
        fees_collected=fees,
        rewards_paid=rewards,
        fees_forfeited=forfeits,
        realized_server_utility=utility,
        aggregation_weights=weights,
        mode=mode,
    )
