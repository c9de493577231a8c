"""Federated in-context learning: round-based answer refinement with an
exactly-checkable linear self-attention backend."""

from .core import (ABSTAIN, ChoiceLabel, ClientDataset, CommLedger, Dataset,
                   Example, Label, RealColumn, RealLabel, RoundTrace,
                   TextLabel)
from .lsa import (LsaParams, PretrainSpec, build_embedding, gamma,
                  limit_params, lsa_forward, predict_closed_form, pretrain_gd)
from .theory import (TheoryState, compute_contraction, fixed_point,
                     iterate_recursion, verify_contraction)
from .protocol import (ClientState, ProtocolConfig, aggregate, init_labels,
                       run, step1_relabel, step2_answer)
from .data import (Embedder, IdentityEmbedder, PartitionSpec,
                   dirichlet_partition, knn_context, load_dataset,
                   save_dataset)
from .backend import (GenerationParams, LmBackend, LsaBackend, RemoteBackend,
                      parse_choice, render_prompt)

__version__ = "0.1.0"
