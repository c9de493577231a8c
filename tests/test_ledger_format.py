"""The bytes ``CommLedger.export_csv`` writes for a run.

The files ``tests/data/golden_ledger_*.csv`` were written before the
protocol charged a round in one call after its answers: a kNN run on the
LSA backend, charged in ``bits`` (``knn_bits_ledger()``), and a text run
against the mock server with mixed token caps, which adds the
``observed_tokens`` each client's backend reported (``text_ledger()``).
A fresh export must reproduce each byte for byte.
"""

from pathlib import Path

import numpy as np
import pytest

from fedicl.backend import GenerationParams, LsaBackend, RemoteBackend
from fedicl.core import ClientDataset, Example, RealLabel, TextLabel
from fedicl.lsa import gamma
from fedicl.protocol import ClientState, ProtocolConfig, run

from mock_llm import MockLlmServer

DATA = Path(__file__).parent / "data"


def knn_bits_ledger():
    """Three rounds of ``fedicl`` with kNN context of 3 on the LSA backend
    (3 clients, 6 examples each, 4 queries, d=3)."""
    rng = np.random.default_rng(15)
    g = gamma(np.eye(3), 7)
    datasets = [ClientDataset(cid, tuple(
        Example(tuple(x), RealLabel(float(x.sum())))
        for x in rng.standard_normal((6, 3)))) for cid in (1, 2, 3)]
    queries = rng.standard_normal((4, 3))
    return run(ProtocolConfig(rounds=3, context_count=3),
               [ClientState(ds.client_id, ds, LsaBackend(g))
                for ds in datasets], queries).ledger


def text_ledger():
    """Two rounds of ``fedicl`` with fusion, three clients of 1-3 examples
    whose backends are capped at 4, 8 and 4 tokens."""
    with MockLlmServer(reply="a short reply") as srv:
        clients = [ClientState(cid, ClientDataset(cid, tuple(
            Example(f"local question {cid}.{i}?", TextLabel(f"answer {i}"))
            for i in range(cid))), RemoteBackend(
                srv.url, params=GenerationParams(max_tokens=cap)))
            for cid, cap in ((1, 4), (2, 8), (3, 4))]
        return run(ProtocolConfig(rounds=2, aggregation="fusion"), clients,
                   ("What causes tides?", "Why is the sky blue?")).ledger


@pytest.mark.parametrize("name,make", [("knn_bits", knn_bits_ledger),
                                       ("text", text_ledger)])
def test_exported_ledger_reproduces_the_golden_file(tmp_path, name, make):
    make().export_csv(tmp_path / "ledger.csv")
    golden = DATA / f"golden_ledger_{name}.csv"
    assert (tmp_path / "ledger.csv").read_bytes() == golden.read_bytes()
