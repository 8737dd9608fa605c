"""Count the random programs whose rewrite orders end in different graphs.

For each seed s it explores three inputs under the full catalog, with at
most 3,000 states each: `random_graph(Random(s))`, its `gapped` variant
and `diamond_chain(Random(s), 1)`.  An input is divergent when its final
states are not all isomorphic.  Prints one JSON object: the inputs
explored, those over the state cap, and the divergent ones by name.

    PYTHONPATH=src python tests/confluence_scan.py [--seeds 300]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from firmfold import CATALOG, StateLimitExceeded, explore  # noqa: E402
from helpers import scan_inputs  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=300)
    parser.add_argument("--max-states", type=int, default=3000)
    args = parser.parse_args()
    started = time.perf_counter()
    explored, over_cap, divergent = 0, [], []
    for seed in range(args.seeds):
        for name, h in scan_inputs(seed).items():
            try:
                lts = explore(h, CATALOG, max_states=args.max_states)
            except StateLimitExceeded:
                over_cap.append(name)
                continue
            explored += 1
            if not lts.final_states_isomorphic():
                divergent.append(name)
    report = {
        "explored": explored,
        "over_cap": len(over_cap),
        "divergent": len(divergent),
        "divergent_inputs": divergent,
        "seconds": round(time.perf_counter() - started, 1),
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
