"""Print the signed margin of each gating stage of the builtin scenarios,
one row per builtin and master seed, then the least margin of each.

A margin is how far a stage's estimate lies inside its gate; a negative one
is a miss:

* box_graph and sojourn: tol - |estimate - theory|, with the stage's verdict;
* energy: estimate - (theory - 0.25), its lower bound, and
  (box estimate + 0.1) - estimate, its coherence with the box stage, with
  the stage's verdict.

No gate reads the table.  Run from anywhere, with the package importable
(``PYTHONPATH=src``)::

    python3 tools/seed_margins.py                       # every builtin, seeds 1-32
    python3 tools/seed_margins.py brownian-interval --seeds 1 8

Each run of a builtin at a seed is one ``run_scenario`` call.
"""

import argparse

import semidim

COLUMNS = ("builtin", "seed", "box", "box verdict", "sojourn", "sojourn verdict", "energy lower", "energy coherent", "energy verdict")


def margins(report) -> dict:
    """The signed margins and verdicts of a report's gating stages."""
    box, sojourn, energy = (report.stages[key] for key in ("box_graph", "sojourn", "energy"))
    return {
        "box": box["tol"] - abs(box["estimate"] - box["theory"]),
        "box verdict": box["verdict"],
        "sojourn": sojourn["tol"] - abs(sojourn["estimate"] - sojourn["theory"]),
        "sojourn verdict": sojourn["verdict"],
        "energy lower": energy["estimate"] - (energy["theory"] - 0.25),
        "energy coherent": box["estimate"] + 0.1 - energy["estimate"],
        "energy verdict": energy["verdict"],
    }


def row(values) -> str:
    return "| " + " | ".join(f"{v:+.4f}" if isinstance(v, float) else str(v) for v in values) + " |"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("builtins", nargs="*", metavar="BUILTIN", help="builtin scenarios (default: all)")
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 32), metavar=("FIRST", "LAST"), help="master seeds FIRST..LAST (default: 1 32)")
    args = parser.parse_args()
    first, last = args.seeds
    runs = {name: [] for name in args.builtins or semidim.builtin_scenarios()}
    print(row(COLUMNS))
    print(row(["---"] * len(COLUMNS)))
    for name, got in runs.items():
        scenario = semidim.get_scenario(name)
        for seed in range(first, last + 1):
            got.append(margins(semidim.run_scenario(scenario, seed)))
            print(row([name, seed, *got[-1].values()]), flush=True)
    keys = ("box", "sojourn", "energy lower", "energy coherent")
    print()
    print(row(("least margin", *keys)))
    print(row(["---"] * (len(keys) + 1)))
    for name, got in runs.items():
        print(row([name, *(min(m[key] for m in got) for key in keys)]))


if __name__ == "__main__":
    main()
