"""Dirichlet non-IID partitioning: from near-uniform to near-one-hot clients.

Each client draws a category-proportion vector q ~ Dir(alpha * prior) and
receives that mix of the corpus without replacement. Small alpha makes
clients specialize in one category; large alpha approaches a uniform split.
The effect is quantified with the per-client category entropy. Each
client's share comes back as its records, in corpus order: client i of the
list has id i + 1.

Run:  python3 demos/04_noniid_partitioning.py
"""

import numpy as np

from fedicl.core import Example, RealLabel
from fedicl.data import PartitionSpec, category_entropy, dirichlet_partition

rng = np.random.default_rng(4)
categories = ("algebra", "biology", "history", "law")
corpus = [Example((float(i), float(rng.standard_normal())), RealLabel(0.0),
                  category=categories[int(rng.integers(4))])
          for i in range(400)]
prior = (0.25, 0.25, 0.25, 0.25)

print(f"corpus: {len(corpus)} examples over {len(categories)} categories\n")

for alpha in (0.01, 0.5, 100.0):
    clients, manifest = dirichlet_partition(
        corpus, PartitionSpec(num_clients=4, alpha=alpha, prior=prior,
                              seed=11))
    assert sum(map(len, clients)) == len(corpus)
    print(f"alpha = {alpha}")
    for cid, records in enumerate(clients, start=1):
        counts = {cat: 0 for cat in categories}
        for ex in records:
            counts[ex.category] += 1
        mix = "  ".join(f"{cat[:4]}={counts[cat]:3d}" for cat in categories)
        print(f"  client {cid}: {mix}   "
              f"entropy={category_entropy(records):.3f} nats")
    ents = [category_entropy(records) for records in clients]
    print(f"  mean entropy {np.mean(ents):.3f} "
          f"(uniform would be {np.log(4):.3f})\n")

print("the manifest maps every corpus index to exactly one client:")
sizes = {}
for cid in manifest.values():
    sizes[cid] = sizes.get(cid, 0) + 1
print(f"  {len(manifest)} assignments, per-client sizes {dict(sorted(sizes.items()))}")
