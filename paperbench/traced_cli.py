"""``python -m repro`` with the layer wrappers of ``layers.py`` installed.

    python3 paperbench/traced_cli.py SHARD_DIR <repro arguments...>

Pool workers forked by the command write their own snapshots to
``SHARD_DIR``; this process adds its own when the command returns.
"""

import json
import os
import sys

import layers

import repro.cli


def main() -> int:
    shard_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    layers.install(tracer, shard_dir)
    try:
        return repro.cli.main(argv)
    finally:
        path = os.path.join(shard_dir, f"s{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
