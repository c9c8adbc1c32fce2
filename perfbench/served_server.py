"""The ``served_mix`` server process.

    python3 perfbench/served_server.py --cpu N [--trace-path PATH]

Builds a ``WorkbenchServer`` behind ``serve_tcp`` and talks to the load
generator in ``served_mix.py`` with one JSON message per line on
stdin/stdout; it exits when told ``stop`` or when stdin closes.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from common import pin  # noqa: E402
from served_mix import Channel, serve  # noqa: E402

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace-path")
    args = parser.parse_args()
    pin(args.cpu)
    serve(Channel(sys.stdin, sys.stdout), args.trace_path)
