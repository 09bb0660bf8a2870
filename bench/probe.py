"""Set-up probe: run in a fresh process, times what a cli run does before
its first trial.

Usage: python3 bench/probe.py ROOT CFG [CFG ...]

Imports cfosync from ROOT/src, then for each config runs load_config,
validate_config and parse_topology.  Prints one JSON line with the elapsed
seconds, measured from before the import.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    root, cfgs = argv[0], argv[1:]
    sys.path.insert(0, f"{root}/src")
    import cfosync  # noqa: F401  (the whole package, as the cli imports it)
    from cfosync.config import load_config, parse_topology, validate_config

    for path in cfgs:
        cfg = load_config(path)
        validate_config(cfg)
        parse_topology(cfg)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
