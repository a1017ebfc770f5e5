"""Run the command-line interface: ``python -m pktflow <command> ...``.

The process ends through ``cli.run``, as soon as the command's output is
flushed.
"""

from .cli import run

if __name__ == "__main__":
    run()
