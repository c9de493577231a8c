"""Shared domain types, round-trace records, and the communication ledger.

A dataset is stored as columns: vector covariates as one read-only (n, d)
float array, checked when the dataset is built, or text covariates as a
tuple of str, with the labels beside them: real labels as one read-only
float vector (``RealColumn``), text labels as a tuple.
``Example`` is the record type for JSONL I/O; its vector covariate is a
tuple of floats.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral, Real
from typing import (Dict, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

#: A question: either a d-vector (regression/theory mode) or raw text.
Covariate = Union[Tuple[float, ...], str]


class ConfigError(ValueError):
    """User input (a config or a data file) that cannot be used."""


def check_int(name: str, value):
    """``value`` if it is an integer and not a bool, else ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return value


def check_number(name: str, value):
    """``value`` if it is a real number and not a bool, else ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return value


def check_list(name: str, value):
    """``value`` if it is a list or a tuple, else ``TypeError``."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return value


def as_covariate(values) -> Covariate:
    """One covariate, checked as ``covariate_column`` checks a row: a str
    passes through untouched, a vector becomes a tuple of finite floats."""
    row = covariate_column([values])[0]
    return row if isinstance(row, str) else tuple(row.tolist())


def covariate_column(values) -> Union[np.ndarray, Tuple[str, ...]]:
    """Text covariates as a tuple of str; vector ones as a read-only copy,
    an (n, d >= 1) float array checked to be finite. No covariates give a
    (0, 0) array."""
    if not isinstance(values, np.ndarray):
        values = tuple(values)
        texts = sum(isinstance(v, str) for v in values)
        if texts and texts == len(values):
            return values
        if texts:
            raise ValueError("inconsistent covariate dimensions: text and "
                             "vector covariates mixed")
    try:
        column = np.array(values, dtype=float)
    except ValueError as exc:   # ragged rows, or not numbers
        raise ValueError(f"inconsistent covariate dimensions: {exc}") from None
    if len(column) == 0:
        column = np.empty((0, 0))
    elif column.ndim != 2 or column.shape[1] == 0:
        raise ValueError(f"covariates must form an (n, d >= 1) array, got "
                         f"shape {column.shape}")
    elif not np.isfinite(column).all():
        raise ValueError("covariates have non-finite components")
    column.flags.writeable = False
    return column


def stack_covariates(columns) -> Union[np.ndarray, Tuple[Covariate, ...]]:
    """Covariate columns end to end: one read-only array when every column
    is an array, else a tuple of their covariates (text, for one)."""
    if not all(isinstance(col, np.ndarray) for col in columns):
        return tuple(chain.from_iterable(columns))
    stacked = np.concatenate(columns)
    stacked.flags.writeable = False
    return stacked


def covariate_matrix(covariates) -> np.ndarray:
    """Stack vector covariates into an (n, d) float array."""
    if (not isinstance(covariates, np.ndarray)
            and any(isinstance(c, str) for c in covariates)):
        raise TypeError("text covariates have no matrix representation")
    mat = np.asarray(covariates, dtype=float)
    if mat.ndim == 2:
        return mat
    return mat.reshape(len(mat), -1) if mat.size else np.empty((len(mat), 0))


def covariate_text(cov) -> str:
    """A covariate as prompt and lookup text: the question itself, or the
    list of its float components."""
    return cov if isinstance(cov, str) else str([float(v) for v in cov])


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


Label = Union[RealLabel, TextLabel]


def label_to_json(label: Label) -> dict:
    """The label's fields in dataset records and traces: ``y`` for a real
    label, ``answer`` for a text label."""
    if isinstance(label, RealLabel):
        return {"y": label.value}
    if isinstance(label, TextLabel):
        return {"answer": label.answer}
    raise TypeError(f"not a label: {label!r}")


def label_from_json(obj: dict) -> Label:
    if "y" in obj:
        value = float(obj["y"])
        if not math.isfinite(value):
            raise ValueError(f"label y is not finite: {obj['y']!r}")
        return RealLabel(value)
    if "answer" in obj:
        return TextLabel(str(obj["answer"]))
    raise ValueError(f"record has neither 'y' nor 'answer': {obj}")


class RealColumn(SequenceABC):
    """Real labels as one read-only float vector, ``values``.

    It iterates and indexes as ``RealLabel``s, and compares equal to a
    column or a tuple of ``RealLabel``s with the same values.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"a label column is one vector, got shape "
                             f"{values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def wrap(cls, values: np.ndarray) -> "RealColumn":
        """A column over ``values``, a new 1-d float array that nothing
        else holds: it is neither copied nor checked."""
        values.setflags(write=False)
        column = object.__new__(cls)
        object.__setattr__(column, "values", values)
        return column

    def __setattr__(self, name, value):
        raise AttributeError("RealColumn is immutable")

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RealColumn(self.values[index])
        return RealLabel(self.values[index].item())

    def __iter__(self):
        return map(RealLabel, self.values.tolist())

    def __eq__(self, other):
        if isinstance(other, RealColumn):
            return bool(np.array_equal(self.values, other.values))
        if isinstance(other, tuple):
            return tuple(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"RealColumn({self.values.tolist()!r})"


#: Labels as a dataset stores them: see ``label_column``.
Labels = Union[RealColumn, Tuple[Label, ...]]


def label_column(labels: Sequence[Label]) -> Labels:
    """Labels as stored: real ones as a ``RealColumn``, any others (or
    none) as a tuple."""
    if isinstance(labels, RealColumn):
        return labels
    labels = tuple(labels)
    if labels and all(isinstance(lab, RealLabel) for lab in labels):
        return RealColumn([lab.value for lab in labels])
    return labels


def join_labels(columns: Sequence[Labels]) -> Labels:
    """Label columns end to end: a ``RealColumn`` when every non-empty one
    is real, else a tuple."""
    parts = [col for col in columns if len(col)]
    if parts and all(isinstance(col, RealColumn) for col in parts):
        return RealColumn.wrap(np.concatenate([col.values for col in parts]))
    return tuple(chain.from_iterable(parts))


def labels_to_json(labels: Sequence[Label]) -> List[dict]:
    if isinstance(labels, RealColumn):
        return [{"y": v} for v in labels.values.tolist()]
    return [label_to_json(lab) for lab in labels]


def real_values(labels: Sequence[Label]) -> np.ndarray:
    """The values of real labels as a read-only float vector (a column's
    own); other label kinds raise ``TypeError``."""
    labels = label_column(labels)
    if isinstance(labels, RealColumn):
        return labels.values
    if labels:
        kinds = sorted({type(lab).__name__ for lab in labels})
        raise TypeError(f"expected RealLabels, got {', '.join(kinds)}")
    return np.empty(0)


# ---------------------------------------------------------------------------
# Examples and datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example:
    """One record of a JSONL file. Its ``category`` stays here, on the
    records that partitioning reads and writes; no engine code uses one."""

    covariate: Covariate
    label: Label
    category: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "covariate", as_covariate(self.covariate))


class Dataset:
    """Examples as columns: ``covariates`` (see ``covariate_column``), and
    beside them ``labels`` (see ``label_column``), and nothing else.

    Built from ``Example`` records or from the columns. Immutable;
    ``with_labels`` shares the checked covariates instead of checking them
    again.
    """

    __slots__ = ("covariates", "labels")
    _EXTRA: Tuple[str, ...] = ()   # a subclass's own fields

    def __init__(self, examples: Sequence[Example] = (), *, covariates=None,
                 labels: Optional[Sequence[Label]] = None):
        if covariates is None and labels is None:
            examples = tuple(examples)
            covariates = [ex.covariate for ex in examples]
            labels = [ex.label for ex in examples]
        elif examples or covariates is None or labels is None:
            raise TypeError("give examples, or covariates and labels")
        labels = label_column(labels)
        object.__setattr__(self, "covariates", covariate_column(covariates))
        object.__setattr__(self, "labels", labels)
        self._validate()

    def _validate(self) -> None:
        n = len(self.covariates)
        if len(self.labels) != n:
            raise ValueError(f"{type(self).__name__} has {n} covariates and "
                             f"{len(self.labels)} labels")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.covariates, other.covariates
        same = (a == b if isinstance(a, tuple) and isinstance(b, tuple) else
                isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and np.array_equal(a, b))
        return bool(same) and all(
            getattr(self, f) == getattr(other, f)
            for f in ("labels",) + self._EXTRA)

    def __repr__(self) -> str:
        extra = "".join(f"{f}={getattr(self, f)!r}, " for f in self._EXTRA)
        return (f"{type(self).__name__}({extra}{len(self)} examples, "
                f"dim={self.dim})")

    @property
    def dim(self) -> Optional[int]:
        """d for vector covariates, None for text."""
        covs = self.covariates
        return None if isinstance(covs, tuple) else covs.shape[1]

    @property
    def examples(self) -> Tuple[Example, ...]:
        covs = (self.covariates if isinstance(self.covariates, tuple) else
                [tuple(row) for row in self.covariates.tolist()])
        return tuple(map(Example, covs, self.labels))

    def with_labels(self, labels: Sequence[Label]) -> "Dataset":
        """The same covariates (shared, not copied) with new labels."""
        new = object.__new__(type(self))
        for name in Dataset.__slots__ + self._EXTRA:
            object.__setattr__(new, name, getattr(self, name))
        object.__setattr__(new, "labels", label_column(labels))
        new._validate()   # only the labels are new: check their count
        return new


def concat(datasets: Sequence[Dataset]) -> Dataset:
    """The examples of all ``datasets``, in order, as one ``Dataset``."""
    parts = [ds for ds in datasets if len(ds)]
    if not parts:
        return Dataset()
    dims = {ds.dim for ds in parts}  # None for text
    if len(dims) > 1:
        raise ValueError(f"inconsistent covariate dimensions: "
                         f"{sorted(map(str, dims))}")
    return Dataset(
        covariates=stack_covariates([ds.covariates for ds in parts]),
        labels=join_labels([ds.labels for ds in parts]))


class ClientDataset(Dataset):
    """One client's examples; there is at least one."""

    _EXTRA = __slots__ = ("client_id",)

    def __init__(self, client_id: int, examples: Sequence[Example] = (),
                 **columns):
        object.__setattr__(self, "client_id", client_id)
        super().__init__(examples, **columns)

    def _validate(self) -> None:
        super()._validate()
        if len(self) == 0:
            raise ValueError("client dataset must contain at least one "
                             "example")


# ---------------------------------------------------------------------------
# Round traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundTrace:
    """Record of one protocol round: per-client answers and the aggregate."""

    round: int
    per_client_answers: Dict[int, Labels]
    aggregated: Dataset
    theory_w: Optional[Tuple[float, ...]] = None

    @staticmethod
    def from_json(obj: dict) -> "RoundTrace":
        """One trace line; older files' ``aggregated.round`` is ignored.
        A real label column reads back the ``NaN`` and ``Infinity`` that
        ``save_traces`` writes for a run whose labels overflowed."""
        agg = obj["aggregated"]
        if not agg["labels"]:
            raise ValueError("query set must contain at least one covariate")
        theory_w = obj.get("theory_w")
        return RoundTrace(
            round=int(obj["round"]),
            per_client_answers={int(cid): _labels_from_json(labs) for cid, labs
                                in obj["per_client_answers"].items()},
            aggregated=Dataset(covariates=agg["covariates"],
                               labels=_labels_from_json(agg["labels"])),
            theory_w=tuple(theory_w) if theory_w is not None else None,
        )


def _labels_from_json(objs: Sequence[dict]) -> Labels:
    if objs and all("y" in obj for obj in objs):
        return RealColumn([float(obj["y"]) for obj in objs])
    return label_column(label_from_json(obj) for obj in objs)


def _labels_text(labels: Labels) -> str:
    """``json.dumps(labels_to_json(labels))``. A finite real column is
    joined from its floats' reprs, which is what the JSON encoder writes;
    of those reprs, only ``inf`` and ``nan`` hold an ``n``."""
    if isinstance(labels, RealColumn) and len(labels):
        text = '}, {"y": '.join(map(float.__repr__, labels.values.tolist()))
        if "n" not in text:
            return '[{"y": ' + text + '}]'
    return json.dumps(labels_to_json(labels))


def save_traces(traces: Sequence[RoundTrace], path) -> None:
    """One JSON line per trace, as README's "Round traces" lays it out:
    ``round``, ``per_client_answers`` by ascending client id,
    ``aggregated`` (``covariates``, ``labels``) and, if set, ``theory_w``,
    with the ``", "`` and ``": "`` separators of ``json.dumps``. Traces
    that hold one covariate column in a row (a run's do) encode it once."""
    covs, covs_text = None, ""
    with open(path, "w") as fh:
        for trace in traces:
            agg = trace.aggregated
            if agg.covariates is not covs:
                covs = agg.covariates
                covs_text = json.dumps(list(covs) if isinstance(covs, tuple)
                                       else covs.tolist())
            answers = ", ".join(
                f'"{cid}": {_labels_text(trace.per_client_answers[cid])}'
                for cid in sorted(trace.per_client_answers))
            theory_w = ("" if trace.theory_w is None else
                        f', "theory_w": {json.dumps(list(trace.theory_w))}')
            fh.write(f'{{"round": {json.dumps(trace.round)}, '
                     f'"per_client_answers": {{{answers}}}, "aggregated": '
                     f'{{"covariates": {covs_text}, "labels": '
                     f'{_labels_text(agg.labels)}}}{theory_w}}}\n')


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
UNITS = ("bits", "tokens", "observed_tokens")


class LedgerEntry(NamedTuple):
    round: int
    direction: str
    client_id: int
    payload_units: int
    unit: str


@dataclass
class CommLedger:
    """Append-only accounting of transmitted payload sizes, written only
    by ``record``. Mutation must be serialized through a single owner (the
    protocol engine); reads are safe anywhere."""

    entries: List[LedgerEntry] = field(default_factory=list)

    def record(self, rows: Iterable[tuple]) -> None:
        """Append ``rows`` of (round, direction, client_id, payload_units,
        unit), all of them or, when one is bad, none: a payload is an int
        >= 0, a direction is in ``DIRECTIONS`` and a unit in ``UNITS``."""
        entries = [LedgerEntry._make(row) for row in rows]
        for e in entries:
            if check_int("payload_units", e.payload_units) < 0:
                raise ValueError(f"negative payload: {e.payload_units}")
            if e.direction not in DIRECTIONS:
                raise ValueError(f"unknown direction: {e.direction!r}")
            if e.unit not in UNITS:
                raise ValueError(f"unknown unit: {e.unit!r}")
        self.entries.extend(entries)

    def total(self, unit: str) -> int:
        """Sum of the payload_units recorded in ``unit`` (0 if none)."""
        return sum(e.payload_units for e in self.entries if e.unit == unit)

    def round_total(self, round: int, unit: str) -> int:
        return sum(e.payload_units for e in self.entries
                   if e.round == round and e.unit == unit)

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(LedgerEntry._fields)
            writer.writerows(self.entries)


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
    if "question" not in obj and isinstance(obj["x"], str):
        raise ValueError(f"x must be a vector, got a str: {obj['x']!r}")
    cov = str(obj["question"]) if "question" in obj else obj["x"]
    return Example(covariate=cov, label=label_from_json(obj),
                   category=obj.get("category"))
