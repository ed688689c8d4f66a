"""Latent replay vs. input-fed replay: the frozen-lower-layers limit case.

When everything below the tap layer is frozen (weights and BRN moments),
re-injecting stored tap activations is functionally identical to feeding
the stored raw patterns from the input: the joint mini-batch above the
tap is bit-for-bit the same, so the trainable upper layers follow the
same trajectory while skipping the whole lower forward for replay rows.
"""
import numpy as np

from latentreplay import SeededRng, softmax_xent
from latentreplay.layers import Brn, Dense, Relu
from latentreplay.network import Network


def toy_net(seed):
    r = SeededRng(seed)
    layers = [Dense("lower", 6, 8, rng=r), Relu("tap"), Brn("upper_norm", 8),
              Dense("head", 8, 4, rng=r)]
    return Network(layers, input_shape=(6,), tap="tap", head_name="head")


pool = SeededRng(1).normal((60, 6))
pool_y = np.arange(60) % 4
replay_x = SeededRng(2).normal((20, 6))
replay_y = np.arange(20) % 4

net_latent = toy_net(seed=7)
net_native = toy_net(seed=7)
for net in (net_latent, net_native):
    net.freeze_below_tap()  # rate 0 below the tap: the lower part runs in eval mode
    net.lr_mult.update(upper_norm=0.05, head=0.05)

# the external memory of the latent run stores tap activations once
latents = net_latent.tap_activations(replay_x)
print(f"stored {len(latents)} latent volumes of shape {latents.shape[1:]} "
      f"({latents[0].size} elements each, vs {replay_x[0].size} at the input)")

draws = SeededRng(3)
for step in range(50):
    ni = draws.choice(60, 6)
    ri = draws.choice(20, 10)
    y_joint = np.concatenate([pool_y[ni], replay_y[ri]])

    # latent run: 6 rows travel the lower layers, 10 are injected at the tap
    logits, _ = net_latent.forward_concat(pool[ni], latents[ri])
    _, dl = softmax_xent(logits, y_joint)
    net_latent.sgd_step(net_latent.backward(dl))

    # native run: all 16 rows travel the whole network
    logits, _ = net_native.forward(np.concatenate([pool[ni], replay_x[ri]]))
    _, dl = softmax_xent(logits, y_joint)
    net_native.sgd_step(net_native.backward(dl))

worst = 0.0
for name in ("upper_norm", "head"):
    for pname, arr in net_latent.layer(name).params.items():
        delta = np.abs(arr - net_native.layer(name).params[pname]).max()
        worst = max(worst, float(delta))
        print(f"{name}.{pname}: max |delta| = {delta:g}")
print(f"\nafter 50 steps the above-tap parameters differ by at most {worst:g}")
