"""CLI entry point — the `ray job submit` surface of the engine.

On a real cluster:

    ray job submit --working-dir . -- \
        python -m gojsonschema_ray validate \
            --input /data/clips --out /data/out

Standalone (local): the same command auto-initializes a local Ray session.
The run is resumable: re-submitting after a failure skips partitions already
committed in <out>/manifest.jsonl.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gojsonschema_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="resumable flagship clips validation")
    v.add_argument("--input", required=True, help="clips table dir (parquet/lance)")
    v.add_argument("--out", required=True, help="output dir (violations + manifest)")
    v.add_argument("--ruleset", default=None, help="path to a JSON Schema ruleset")
    v.add_argument("--no-audio", action="store_true")
    v.add_argument("--files-per-partition", type=int, default=4)
    v.add_argument("--audio-cap-ms", type=int, default=50)

    g = sub.add_parser("gen", help="write a deterministic synthetic clips table")
    g.add_argument("--out", required=True)
    g.add_argument("--rows", type=int, default=100_000)
    g.add_argument("--cap-ms", type=int, default=50)
    g.add_argument("--rows-per-file", type=int, default=8192)

    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():  # the job driver may have initialized already
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")

    try:
        if args.cmd == "validate":
            from .pipelines.flagship import run_flagship

            ruleset = None
            if args.ruleset:
                with open(args.ruleset) as f:
                    ruleset = json.load(f)
            summary = run_flagship(
                args.input, args.out,
                ruleset=ruleset,
                with_audio=not args.no_audio,
                files_per_partition=args.files_per_partition,
                audio_cap_ms=args.audio_cap_ms,
            )
            print(json.dumps(summary))
            return 0 if summary.get("partitions") else 1
        if args.cmd == "gen":
            from .datagen import write_clips_parquet

            path = write_clips_parquet(args.out, args.rows,
                                       audio_cap_ms=args.cap_ms,
                                       rows_per_file=args.rows_per_file)
            print(json.dumps({"path": path, "rows": args.rows}))
            return 0
    finally:
        ray.shutdown()
    return 2


if __name__ == "__main__":
    sys.exit(main())
