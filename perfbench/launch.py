"""Run the polycert CLI in this process with the benchmark's tracer or speed
probe installed.

    python3 perfbench/launch.py OUT POLYCERT-ARGS...
        install the tracer, call polycert.cli.main(POLYCERT-ARGS), write the
        tracer's aggregates to the JSON file OUT, exit with main's code
    python3 perfbench/launch.py --speed OUT POLYCERT-ARGS...
        start speed.Sampler before polycert.cli is imported, call
        polycert.cli.main(POLYCERT-ARGS), write the sampler's result to the
        JSON file OUT, exit with main's code
    python3 perfbench/launch.py --startup SPAWNED_AT
        print the seconds from SPAWNED_AT (a time.time() reading taken by the
        parent just before it started this process) until polycert.cli is
        imported and main could be called
"""
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    if sys.argv[1] == "--startup":
        spawned_at = float(sys.argv[2])
        import polycert.cli  # noqa: F401
        print(repr(time.time() - spawned_at))
        return 0
    if sys.argv[1] == "--speed":
        from speed import Sampler
        sampler = Sampler()
        sampler.start()
        try:
            import polycert.cli
            return polycert.cli.main(sys.argv[3:])
        finally:
            sampler.stop()
            with open(sys.argv[2], "w", encoding="utf-8") as fh:
                json.dump(sampler.result(), fh)
    out = sys.argv[1]
    import polycert.cli
    from tracer import Tracer
    tracer = Tracer(max_spans=0)
    tracer.install()
    try:
        return polycert.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregates(), fh)


if __name__ == "__main__":
    sys.exit(main())
