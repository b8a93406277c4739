"""``python -m benchmarks.perf`` — see README.md beside this file.

Process mode spawns its site processes, and every spawned child imports
this module again: the ``__main__`` guard keeps them from re-running the
benchmark (an unguarded script re-executes in each child and the parent
dies in ``accept``).
"""

import time

#: Origin of ``setup_s``: taken before anything imports ``repro``.
PROCESS_START = time.perf_counter()

if __name__ == "__main__":
    from .cli import main

    raise SystemExit(main(PROCESS_START))
