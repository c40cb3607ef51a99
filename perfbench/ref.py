"""A fixed amount of work in a fresh interpreter, independent of projlin.

Usage: python3 perfbench/ref.py

It does what the timed commands spend their time on, without any code of
the program under test: start an interpreter, import numpy, parse a head
vector from text, link children to parents, walk the tree breadth first,
and format the result.  The inputs are fixed, so its wall time changes
only with the speed of the machine; run.py divides the time of each
command by that of the runs of this program beside it (see
``reference_ratios`` there).
"""

import numpy as np

N = 150_000


def main() -> None:
    rng = np.random.default_rng(12345)
    parents = [0] + (np.floor(rng.random(N - 1) * np.arange(1, N)).astype(np.int64) + 1).tolist()
    text = " ".join(map(str, parents))
    heads = [int(t) for t in text.split()]
    children: list[list[int]] = [[] for _ in range(N + 1)]
    for v, h in enumerate(heads, start=1):
        if h:
            children[h].append(v)
    order = [1]
    for v in order:
        order.extend(children[v])
    size = [1] * (N + 1)
    for v in reversed(order[1:]):
        size[heads[v - 1]] += size[v]
    out = " ".join(map(str, order))
    if len(order) != N or size[1] != N or not out:
        raise SystemExit("reference work went wrong")


if __name__ == "__main__":
    main()
