"""Autotune a GPT-J multi-head-attention MMTV layer (paper Fig. 10).

The MHA layer's score/value computation is a batched matrix-vector
product shaped ``(batch x heads, tokens, 256)``.  This example autotunes
it for the simulated UPMEM system and compares against the PrIM-style
hand-tuned baseline and a CPU roofline — the scenario the paper's intro
motivates (LLM inference with the KV cache resident in PIM memory).

Run:  python examples/gptj_attention.py [--trials N]
"""

import argparse

import numpy as np

import repro
from repro.autotune import autotune
from repro.workloads import GPTJ_6B, mha_mmtv


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trials", type=int, default=48)
    parser.add_argument("--batch", type=int, default=4)
    parser.add_argument("--tokens", type=int, default=128)
    args = parser.parse_args()

    wl = mha_mmtv(GPTJ_6B, batch=args.batch, tokens=args.tokens)
    print(
        f"GPT-J 6B MHA MMTV: shape {wl.shape} "
        f"({wl.footprint_mb:.1f} MB, batch={args.batch}, tokens={args.tokens})"
    )

    prim = repro.compile(wl, target="prim").latency
    print(f"PrIM-style baseline : {prim*1e3:8.3f} ms")

    result = autotune(wl, n_trials=args.trials, seed=0)
    print(
        f"ATiM ({args.trials:3d} trials) : {result.best_latency*1e3:8.3f} ms"
        f"   params: {result.best_params}"
    )
    cpu = repro.compile(wl, target="cpu").latency
    print(f"CPU roofline        : {cpu*1e3:8.3f} ms")
    print(
        f"speedup vs PrIM: {prim/result.best_latency:.2f}x,"
        f" vs CPU: {cpu/result.best_latency:.2f}x"
    )

    # Validate the tuned module functionally on a scaled-down instance.
    small = mha_mmtv(GPTJ_6B, batch=1, tokens=16)
    small_result = autotune(small, n_trials=16, seed=0)
    exe = repro.compile(small, params=small_result.best_params)
    inputs = small.random_inputs(0)
    (out,) = exe.run(inputs)
    np.testing.assert_allclose(
        out, small.reference_output(inputs), rtol=1e-3
    )
    print("functional check on 1x16x256 instance: OK")

    lat = repro.compile(wl, params=result.best_params).profile().latency
    print(
        f"breakdown: h2d {lat.h2d*1e3:.3f} ms | kernel {lat.kernel*1e3:.3f} ms"
        f" | d2h+reduce {lat.d2h_plus_host*1e3:.3f} ms"
    )


if __name__ == "__main__":
    main()
