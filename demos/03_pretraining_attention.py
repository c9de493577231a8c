"""Pretrain a linear self-attention layer and recover the known optimum.

Samples a batch of random linear-regression prompts, runs plain gradient
descent on the in-context prediction risk from the prescribed block
initialization, and shows that the learned predictor converges (up to an
internal rescaling the output is invariant to) to the closed-form optimum

    yhat = x_q^T Gamma^{-1} (1/M sum_i y_i x_i).

Run:  python3 demos/03_pretraining_attention.py   (~5 s)
"""

import numpy as np

from fedicl.lsa import (ClosedFormStep, PretrainSpec, build_embedding,
                        limit_params, lsa_forward, predict_closed_form,
                        prediction_map, pretrain_gd, gamma)

d = 2
spec = PretrainSpec(lam=np.eye(d), t_prompt=10, b_tasks=10_000, sigma=0.5,
                    theta=np.eye(d) * d ** -0.25, step_size=0.05,
                    max_steps=2000, seed=7)

print(f"pretraining: d={d}, {spec.b_tasks} prompts of length "
      f"{spec.t_prompt}, {spec.max_steps} GD steps, "
      f"init scale sigma={spec.sigma}\n")

result = pretrain_gd(spec)
trace = result.loss_trace
print("step      loss")
for i in (0, 1, 10, 100, 500, 1000, len(trace) - 1):
    print(f"{i:5d}   {trace[i]:.6f}")

opt = limit_params(spec.lam, spec.t_prompt)
got, want = prediction_map(result.params), prediction_map(opt)
rel = np.linalg.norm(got - want) / np.linalg.norm(want)
print(f"\nrelative distance of learned predictor from the optimum: "
      f"{rel:.3%}")

# the learned layer now *is* the preconditioned averaging predictor
rng = np.random.default_rng(3)
g = gamma(spec.lam, spec.t_prompt)
examples = [(tuple(x), float(y)) for x, y in
            zip(rng.standard_normal((5, d)), rng.standard_normal(5))]
xq = tuple(rng.standard_normal(d))
e = build_embedding(examples, xq)
print("\nprediction on a fresh prompt:")
print(f"  learned attention layer : {lsa_forward(e, result.params.with_rho(5)):+.5f}")
print(f"  optimal attention layer : {lsa_forward(e, opt.with_rho(5)):+.5f}")
xs, ys = zip(*examples)
# one ask (context covariates, queries, no neighbours), prepared once and
# answered with its labels
step = ClosedFormStep([(xs, [xq], None)], g)
closed_form = predict_closed_form(step, [ys])[0][0]
print(f"  closed-form expression  : {closed_form:+.5f}")
