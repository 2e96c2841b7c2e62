"""Per-step time of the tagger's recurrent product, (B, H) @ (H, 4H), at B = 1..8.

For each batch size B up to tagger.BATCH_CLIPS (8), at H = 256, times the
product as the LSTM step loop runs it for B clips at once: whole, and in
the column blocks of Wh that the tagger picks for B (tagger.wh_blocks, whose
rule is tagger.WH_BLOCK_MACS). The operands are float32, with the state rows
a strided view of a layer output as in tagger._run_direction, on one BLAS
thread: like each `segment --workers` process, the tool first pins numpy's
OpenBLAS to one thread (numutil.pin_one_blas_thread) and keeps it there.
Prints one JSON line per B with the median microseconds per product over
five rounds of --steps products, then exits 1 if a blocked product differs
from the whole one by more than TOL in any entry. Timings are printed,
never checked: the column rule can be measured again on another CPU.

    python3 tools/recurrent_product.py --steps 2000
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from signseg import tagger  # noqa: E402
from signseg.numutil import pin_one_blas_thread  # noqa: E402

# Largest entry-wise difference allowed between the blocked and the whole
# product (entries are sums of H float32 products of order 1/16): a few
# float32 roundings, as the blocks may sum in another order.
TOL = 1e-5
ROUNDS = 5
H_DIM = 256  # the default tagger's hidden width


def per_call_us(products, hprev, steps: int) -> float:
    """Median over ROUNDS of the microseconds one step's products take."""
    times = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(steps):
            for w, out in products:
                np.matmul(hprev, w, out=out)
        times.append((time.perf_counter() - start) / steps * 1e6)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000, help="products per round")
    args = parser.parse_args(argv)
    if args.steps <= 0:
        parser.error("--steps must be positive")
    rng = np.random.default_rng(0)
    wh = rng.uniform(-1 / 16, 1 / 16, size=(H_DIM, 4 * H_DIM)).astype(np.float32)
    worst = 0.0
    pin_one_blas_thread()
    for batch in range(1, tagger.BATCH_CLIPS + 1):
        # one time row of a (T, B, 2H) layer output; the state is its first H columns
        hprev = rng.uniform(-1, 1, size=(batch, 2 * H_DIM)).astype(np.float32)[:, :H_DIM]
        whole, blocked = (np.empty((batch, 4 * H_DIM), dtype=np.float32) for _ in range(2))
        blocks = tagger.wh_blocks(wh, batch)
        products = [(w, blocked[:, c0:c0 + w.shape[1]]) for c0, w in blocks]
        row = {"batch": batch, "columns": blocks[0][1].shape[1], "blocks": len(blocks),
               "whole_us": round(per_call_us([(wh, whole)], hprev, args.steps), 1),
               "blocked_us": round(per_call_us(products, hprev, args.steps), 1)}
        row["max_abs_diff"] = float(np.abs(blocked - whole).max())
        worst = max(worst, row["max_abs_diff"])
        print(json.dumps(row), flush=True)
    if worst > TOL:
        print(f"blocked and whole products differ by {worst:.3g} > {TOL:g}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
