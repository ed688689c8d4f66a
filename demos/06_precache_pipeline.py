"""Edge-style training session: pre-caching latents while frames arrive.

On a constrained device the frames of a new object session can be pushed
through the frozen lower network as they are captured, caching their tap
activations; once acquisition ends only the class-specific upper layers
need training. Here: 100 frames, then 8 epochs x 5 iterations with
mini-batches of 120 = 20 fresh + 100 replay patterns each.
"""
import queue
import threading
import time

import numpy as np

from latentreplay import (ReplayMemory, SeededRng, build_tinynic_network,
                          compose_minibatch, softmax_xent)

rng = SeededRng(9)
net = build_tinynic_network(classes=10, seed=4, tap="pool")
net.freeze_below_tap()
net.lr_mult["fc"] = 0.5  # the head, the only layer above the tap

# an already-populated replay memory of older sessions (500 latent
# patterns of classes 0..8, each class around its own prototype)
rm = ReplayMemory(500, SeededRng(10))
old_y = rng.randint(0, 9, 500)
protos = rng.normal((9, 1, 16, 16))
old = (protos[old_y] + 0.3 * rng.normal((500, 1, 16, 16))).astype(np.float32)
rm.update(net.tap_activations(old), old_y, 1)

# acquisition thread: 100 frames of the new object (class 9) trickle in
new_frames = rng.normal((100, 1, 16, 16)) + 1.5
frame_q: queue.Queue = queue.Queue()

def acquire():
    for frame in new_frames:  # the frozen lower net, one frame as it arrives
        frame_q.put(net.tap_activations(frame[None])[0])
    frame_q.put(None)

t0 = time.time()
worker = threading.Thread(target=acquire)
worker.start()
cached = []
while (item := frame_q.get()) is not None:
    cached.append(item)
worker.join()
cached = np.stack(cached)
print(f"cached {len(cached)} latents while 'recording' "
      f"({time.time() - t0:.2f}s)")

# training touches only the head: 20 fresh + 100 replay per mini-batch
n_nat, n_rep = compose_minibatch(rm, len(cached), 120)
print(f"mini-batch split: {n_nat} fresh + {n_rep} replay")
t0 = time.time()
steps = 0
for epoch in range(8):
    for it in range(5):
        fresh_idx = rng.choice(len(cached), n_nat)
        rep_idx = rm.sample(n_rep, rng, rows=1)[0]
        pay, y_rep = rm.stacked(rep_idx)
        lat = np.concatenate([cached[fresh_idx], pay])
        y = np.concatenate([np.full(n_nat, 9), y_rep])
        logits, _ = net.forward_concat(None, lat)
        loss, dl = softmax_xent(logits, y)
        net.sgd_step(net.backward(dl))
        steps += 1
print(f"{steps} head-only steps in {time.time() - t0:.2f}s; final loss "
      f"{loss:.3f}")
new_logits = net.predict(new_frames[:20])
old_logits = net.predict(old[:100])
print(f"new class recognized on {np.mean(new_logits.argmax(1) == 9):.0%} "
      f"of its frames; replayed old classes still at "
      f"{np.mean(old_logits.argmax(1) == old_y[:100]):.0%}")
