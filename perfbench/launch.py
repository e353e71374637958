"""Run one circlelab CLI op in this fresh interpreter, as ``circlelab`` would.

Usage: python3 launch.py SPAWN_T STAMPS SPANS OP_ID ARGS...

SPAWN_T is the parent's ``time.perf_counter()`` taken just before it
spawned this process; on Linux that clock is CLOCK_MONOTONIC, which all
processes share.  The op's document goes to stdout exactly as the CLI
writes it.  STAMPS receives a JSON object with the clock readings when
``circlelab.cli`` was imported (``import_end``), when the arguments were
parsed and the experiment began (``setup_end``) and when ``main`` returned
(``main_end``).  If SPANS is not ``-``, the layers are traced (see
spans.py): the spans go to SPANS and the span names and work counters
join the stamps.  The environment is used as found.
"""

import json
import os
import sys
import time


def main() -> int:
    spawn_t, stamps_path, spans_path = (float(sys.argv[1]), sys.argv[2],
                                        sys.argv[3])
    op_id, argv = int(sys.argv[4]), sys.argv[5:]
    tracer = None
    if spans_path != "-":
        import spans
        tracer = spans.Tracer(spawn_t)
    # import circlelab from the checkout's src/, never from this directory
    sys.path[0] = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    import circlelab.cli as cli
    stamps = {"import_end": time.perf_counter()}
    if tracer is not None:
        spans.install(tracer)
    run = cli._run

    def timed_run(args):
        stamps["setup_end"] = time.perf_counter()
        return run(args)

    cli._run = timed_run
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    stamps["main_end"] = time.perf_counter()
    if tracer is not None:
        tracer.finish(stamps["main_end"])
        stamps.update(tracer.dump(spans_path, op_id))
    with open(stamps_path, "w") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
