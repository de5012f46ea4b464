"""Time bklab's set-up in a fresh interpreter.

Set-up is the import of the entry point plus, for each config, the
config parse, ``build_model``, ``gate_conditions`` and ``build_oracle``
that every CLI call does before its first cell.

Usage: python3 setup_probe.py SRC_DIR CONFIG [CONFIG ...]
Prints the elapsed seconds.
"""

import sys
import time


def main(argv):
    src, configs = argv[0], argv[1:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import bklab.cli  # noqa: F401  (the entry point imports every layer)
    from bklab.harness import (build_model, build_oracle, config_from_file,
                               gate_conditions)
    for path in configs:
        config = config_from_file(path)
        model = build_model(config)
        gate_conditions(config, model)
        build_oracle(model, config)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
