"""Shared domain types, round-trace records, and communication-cost accounting.

Vector covariates are stored as tuples of floats so that examples are
hashable, comparable, and JSON-serializable without custom machinery;
numerical code converts to numpy arrays at the boundary. In text mode the
covariate is the question string itself.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

#: A question: either a d-vector (regression/theory mode) or raw text.
Covariate = Union[Tuple[float, ...], str]

BITS_PER_REAL = 64


class ConfigError(ValueError):
    """User input (a config or a data file) that cannot be used."""


def as_covariate(values) -> Covariate:
    """Validate and normalize a covariate.

    Sequences of numbers become tuples of finite floats; strings pass
    through untouched.
    """
    if isinstance(values, str):
        return values
    cov = tuple(float(v) for v in values)
    if len(cov) == 0:
        raise ValueError("covariate must have dimension >= 1")
    if not all(math.isfinite(v) for v in cov):
        raise ValueError(f"covariate has non-finite components: {cov}")
    return cov


def covariate_dim(cov: Covariate) -> Optional[int]:
    return None if isinstance(cov, str) else len(cov)


def covariate_matrix(covariates: Sequence[Covariate]) -> np.ndarray:
    """Stack vector covariates into an (n, d) float array."""
    if any(isinstance(c, str) for c in covariates):
        raise TypeError("text covariates have no matrix representation")
    return np.asarray(covariates, dtype=float).reshape(len(covariates), -1)


def neighbour_matrix(neighbours, n_context: int, n_queries: int) -> np.ndarray:
    """Check a (Q, k >= 1) integer array of indices into ``n_context``
    examples; numpy and Python would silently wrap a negative index."""
    nb = np.asarray(neighbours)
    if (nb.ndim != 2 or nb.shape[0] != n_queries or nb.shape[1] == 0
            or not np.issubdtype(nb.dtype, np.integer)
            or (nb.size and not 0 <= nb.min() <= nb.max() < n_context)):
        raise ValueError(f"neighbours must be ({n_queries}, k >= 1) integer "
                         f"indices < {n_context}, got {nb.dtype} {nb.shape}")
    return nb


# ---------------------------------------------------------------------------
# Labels: tagged union shared by both predictor backends
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealLabel:
    value: float


@dataclass(frozen=True)
class TextLabel:
    answer: str


@dataclass(frozen=True)
class ChoiceLabel:
    option: str


Label = Union[RealLabel, TextLabel, ChoiceLabel]

#: ChoiceLabel used when an answer cannot be mapped to any option.
#: Excluded from majority-vote counts.
ABSTAIN = ChoiceLabel("")


def label_to_json(label: Label) -> dict:
    """The label's fields in dataset records and traces: ``y`` for a real
    label, ``answer`` for text and choice labels, ``answer_kind`` marking
    choices."""
    if isinstance(label, RealLabel):
        return {"y": label.value}
    if isinstance(label, ChoiceLabel):
        return {"answer": label.option, "answer_kind": "choice"}
    if isinstance(label, TextLabel):
        return {"answer": label.answer}
    raise TypeError(f"not a label: {label!r}")


def label_from_json(obj: dict) -> Label:
    if "y" in obj:
        return RealLabel(float(obj["y"]))
    if obj.get("answer_kind") == "choice":
        return ChoiceLabel(str(obj["answer"]))
    if "answer" in obj:
        return TextLabel(str(obj["answer"]))
    raise ValueError(f"record has neither 'y' nor 'answer': {obj}")


def real_values(labels: Sequence[Label]) -> np.ndarray:
    """Extract values from a sequence of RealLabels, rejecting other kinds."""
    out = np.empty(len(labels))
    for i, lab in enumerate(labels):
        if not isinstance(lab, RealLabel):
            raise TypeError(f"expected RealLabel, got {lab!r}")
        out[i] = lab.value
    return out


# ---------------------------------------------------------------------------
# Examples and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example:
    covariate: Covariate
    label: Label
    category: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "covariate", as_covariate(self.covariate))


def _check_dims(covariates: Sequence[Covariate], what: str) -> None:
    dims = {covariate_dim(c) for c in covariates}
    if len(dims) > 1:
        raise ValueError(f"inconsistent covariate dimensions in {what}: {dims}")


@dataclass(frozen=True)
class ClientDataset:
    client_id: int
    examples: Tuple[Example, ...]

    def __post_init__(self):
        examples = tuple(self.examples)
        if len(examples) == 0:
            raise ValueError("client dataset must contain at least one example")
        _check_dims([ex.covariate for ex in examples],
                    f"client {self.client_id} dataset")
        object.__setattr__(self, "examples", examples)

    def __len__(self) -> int:
        return len(self.examples)

    @property
    def dim(self) -> Optional[int]:
        return covariate_dim(self.examples[0].covariate)

    def covariates(self) -> Tuple[Covariate, ...]:
        return tuple(ex.covariate for ex in self.examples)

    def labels(self) -> Tuple[Label, ...]:
        return tuple(ex.label for ex in self.examples)


@dataclass(frozen=True)
class QuerySet:
    """The server's query covariates with their current-round predicted labels."""

    covariates: Tuple[Covariate, ...]
    labels: Tuple[Label, ...]
    round: int

    def __post_init__(self):
        covs = tuple(as_covariate(c) for c in self.covariates)
        labs = tuple(self.labels)
        if len(covs) == 0:
            raise ValueError("query set must contain at least one covariate")
        if len(covs) != len(labs):
            raise ValueError(
                f"query set has {len(covs)} covariates but {len(labs)} labels"
            )
        if self.round < 1:
            raise ValueError("round index starts at 1")
        _check_dims(covs, "query set")
        object.__setattr__(self, "covariates", covs)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return len(self.covariates)

    def pairs(self) -> List[Tuple[Covariate, Label]]:
        return list(zip(self.covariates, self.labels))


# ---------------------------------------------------------------------------
# Round traces
# ---------------------------------------------------------------------------

def _covariate_to_json(cov: Covariate):
    return cov if isinstance(cov, str) else list(cov)


@dataclass(frozen=True)
class RoundTrace:
    """Record of one protocol round: per-client answers and the aggregate."""

    round: int
    per_client_answers: Dict[int, Tuple[Label, ...]]
    aggregated: QuerySet
    theory_w: Optional[Tuple[float, ...]] = None

    def to_json(self) -> dict:
        obj = {
            "round": self.round,
            "per_client_answers": {
                str(cid): [label_to_json(lab) for lab in labs]
                for cid, labs in sorted(self.per_client_answers.items())
            },
            "aggregated": {
                "covariates": [_covariate_to_json(c)
                               for c in self.aggregated.covariates],
                "labels": [label_to_json(lab) for lab in self.aggregated.labels],
                "round": self.aggregated.round,
            },
        }
        if self.theory_w is not None:
            obj["theory_w"] = list(self.theory_w)
        return obj

    @staticmethod
    def from_json(obj: dict) -> "RoundTrace":
        agg = obj["aggregated"]
        theory_w = obj.get("theory_w")
        return RoundTrace(
            round=int(obj["round"]),
            per_client_answers={
                int(cid): tuple(label_from_json(l) for l in labs)
                for cid, labs in obj["per_client_answers"].items()
            },
            aggregated=QuerySet(
                covariates=tuple(as_covariate(c) for c in agg["covariates"]),
                labels=tuple(label_from_json(l) for l in agg["labels"]),
                round=int(agg["round"]),
            ),
            theory_w=tuple(theory_w) if theory_w is not None else None,
        )


def save_traces(traces: Sequence[RoundTrace], path) -> None:
    with open(path, "w") as fh:
        for trace in traces:
            fh.write(json.dumps(trace.to_json()) + "\n")


def load_traces(path) -> List[RoundTrace]:
    traces = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                traces.append(RoundTrace.from_json(json.loads(line)))
    return traces


# ---------------------------------------------------------------------------
# Communication ledger
# ---------------------------------------------------------------------------

DIRECTIONS = ("downlink", "uplink")
UNITS = ("bits", "tokens")


@dataclass(frozen=True)
class LedgerEntry:
    round: int
    direction: str
    client_id: int
    payload_units: int
    unit: str


@dataclass
class CommLedger:
    """Append-only accounting of transmitted payload sizes.

    Mutation must be serialized through a single owner (the protocol engine);
    reads are safe anywhere.
    """

    entries: List[LedgerEntry] = field(default_factory=list)

    def record(self, round: int, direction: str, client_id: int,
               payload_units: int, unit: str) -> "CommLedger":
        if payload_units < 0:
            raise ValueError(f"negative payload: {payload_units}")
        if direction not in DIRECTIONS:
            raise ValueError(f"unknown direction: {direction!r}")
        if unit not in UNITS:
            raise ValueError(f"unknown unit: {unit!r}")
        self.entries.append(LedgerEntry(round, direction, client_id,
                                        int(payload_units), unit))
        return self

    def total(self, unit: Optional[str] = None) -> Union[int, Dict[str, int]]:
        """Sum of payload_units grouped by unit.

        With ``unit`` given, returns that unit's total (0 if absent);
        otherwise returns a dict of totals per unit present.
        """
        totals: Dict[str, int] = {}
        for e in self.entries:
            totals[e.unit] = totals.get(e.unit, 0) + e.payload_units
        if unit is not None:
            return totals.get(unit, 0)
        return totals

    def round_total(self, round: int, unit: str) -> int:
        return sum(e.payload_units for e in self.entries
                   if e.round == round and e.unit == unit)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "direction", "client_id",
                             "payload_units", "unit"])
            for e in self.entries:
                writer.writerow([e.round, e.direction, e.client_id,
                                 e.payload_units, e.unit])


def charge_protocol_round(ledger: CommLedger, round: int, client_ids: Sequence[int],
                          num_queries: int, question_units: int, answer_units: int,
                          unit: str) -> None:
    """Charge one protocol round's traffic to the ledger.

    Downlink per client: the M query payloads (question + current label);
    questions are charged only in round 1, since only the labels change in
    later rounds. Uplink per client: M answers.
    """
    per_question = question_units if round == 1 else 0
    for cid in client_ids:
        ledger.record(round, "downlink", cid,
                      num_queries * (per_question + answer_units), unit)
        ledger.record(round, "uplink", cid, num_queries * answer_units, unit)


# ---------------------------------------------------------------------------
# JSONL dataset schema (shared with the data module)
# ---------------------------------------------------------------------------

def example_to_json(ex: Example) -> dict:
    if isinstance(ex.covariate, str):
        obj: dict = {"question": ex.covariate}
    else:
        obj = {"x": list(ex.covariate)}
    obj.update(label_to_json(ex.label))
    if ex.category is not None:
        obj["category"] = ex.category
    return obj


def example_from_json(obj: dict) -> Example:
    if "question" in obj:
        cov: Covariate = str(obj["question"])
    else:
        cov = as_covariate(obj["x"])
    return Example(covariate=cov, label=label_from_json(obj),
                   category=obj.get("category"))
