"""Time the box-count kernel on the paths of one builtin scenario.

Each of the builtin's paths is drawn as ``run_scenario`` draws it at the
master seed 20260809 of the pinned builtin reports, on the grid rows the run
holds.  On each path ``box_count_graph`` is timed over ``--repeat`` calls,
and the least time is kept.  A table row per path gives:

* the rows counted (the path's rows in the time set) and the sides;
* that time;
* the points×scales per second: rows × sides / time.

The last line times the one-side ``count_occupied_cubes`` call that
``covering_count`` makes per covering interval.  That call counts the 17 graph
points of a depth-14 Brownian path over [0, 2^-10] at the side 2^-10, again
the least time over ``--repeat`` calls.

Run from anywhere, with the package importable (``PYTHONPATH=src``)::

    python3 tools/box_kernel.py brownian-cantor
    python3 tools/box_kernel.py isotropic-12-interval --paths 4 --repeat 25
"""

import argparse
import time

import numpy as np

import semidim
from semidim.harness import _time_set_masks
from semidim.laws import PathBuffers

SEED = 20260809  # the master seed of the pinned builtin reports


def least_time(call, repeat: int) -> float:
    """The least wall time of ``repeat`` calls of ``call()``, in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def covering_call_seconds(repeat: int) -> float:
    """The least time of the 17-point, one-side call behind ``covering_count``."""
    spec = semidim.validate_exponent(np.array([[0.5]]), 2.0)
    laws = (semidim.BlockLaw(semidim.LawKind.STABLE_SYMMETRIC, alpha=2.0),)
    points = semidim.simulate_path(spec, laws, 14, seed=1).graph_points()[: 2**4 + 1]
    return least_time(lambda: semidim.count_occupied_cubes(points, 2.0**-10), repeat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("builtin", help="a builtin scenario")
    parser.add_argument("--paths", type=int, default=None, help="time paths 0 .. PATHS-1 (default: all of the run's)")
    parser.add_argument("--repeat", type=int, default=25, help="calls a path, of which the least time counts (default: 25)")
    args = parser.parse_args()
    sc = semidim.get_scenario(args.builtin)
    mask, held = _time_set_masks(sc)
    buffers = PathBuffers()
    print("| path | rows | sides | box_count_graph ms | points×scales/s |")
    print("| ---: | ---: | ---: | ---: | ---: |")
    for i in range(sc.n_seeds if args.paths is None else args.paths):
        name = f"scenario/{sc.name}/path/{i}"
        path = semidim.simulate_path(sc.spec, sc.laws, sc.n, SEED, name=name, mask=held, _buffers=buffers)
        seconds = least_time(lambda: semidim.box_count_graph(path, mask, sc.box_sides, _buffers=buffers), args.repeat)
        rows = int(np.count_nonzero(mask if path.rows is None else mask[path.rows]))
        print(f"| {i} | {rows} | {len(sc.box_sides)} | {seconds * 1e3:.3f} | {rows * len(sc.box_sides) / seconds:.3e} |")
    print(f"covering_count one-side call, 17 points: {covering_call_seconds(args.repeat) * 1e6:.1f} µs")


if __name__ == "__main__":
    main()
