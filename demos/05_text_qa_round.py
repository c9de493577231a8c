"""Text question-answering round against a chat-completions endpoint.

Spins up an in-process OpenAI-compatible stub (the same one the contract
tests use), then runs two refinement rounds of the protocol in text mode:
clients relabel their local questions in context of the server's current
answers, answer the server's queries, and the server fuses the answers.
Point FEDICL_ENDPOINT at a real deployment to run this against a live model
(set FEDICL_API_KEY if the endpoint requires a bearer token).

Run:  python3 demos/05_text_qa_round.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from mock_llm import MockLlmServer  # noqa: E402

from fedicl.backend import GenerationParams, RemoteBackend  # noqa: E402
from fedicl.core import ClientDataset, Example, TextLabel  # noqa: E402
from fedicl.protocol import ClientState, ProtocolConfig, run  # noqa: E402

queries = ("What causes tides?", "Why is the sky blue?")
local = {
    1: [("What orbits the Earth?", "the Moon")],
    2: [("What scatters sunlight?", "air molecules")],
}

with MockLlmServer(reply="gravitational pull of the Moon") as srv:
    endpoint = os.environ.get("FEDICL_ENDPOINT", srv.url)
    params = GenerationParams()  # temperature 0.1, 256-token cap
    clients = []
    for cid, pairs in local.items():
        backend = RemoteBackend(endpoint, params=params)
        ds = ClientDataset(cid, tuple(Example(q, TextLabel(a))
                                      for q, a in pairs))
        clients.append(ClientState(cid, ds, backend))

    result = run(ProtocolConfig(rounds=2, aggregation="fusion"),
                 clients, queries)

    print(f"endpoint: {endpoint}")
    print(f"requests served by the endpoint: {len(srv.requests)}\n")
    for trace in result.traces:
        print(f"after round {trace.round}:")
        for q, a in zip(trace.aggregated.covariates, trace.aggregated.labels):
            print(f"  Q: {q}\n  A: {a.answer}")
    print("\ntoken ledger (nominal: the 256-token per-answer cap; observed: "
          "what the endpoint reported):")
    for k in (1, 2):
        print(f"  round {k}: {result.ledger.round_total(k, 'tokens')} nominal, "
              f"{result.ledger.round_total(k, 'observed_tokens')} observed")
