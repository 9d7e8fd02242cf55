"""One traced msumma CLI process.

Usage: python3 pipebench/clitrace.py METRICS.json SPANS.jsonl OP_ID
           <msumma CLI arguments>

Times ``import msumma.cli`` (``cli.import_s``), installs the layer
wrappers of spans.py, runs ``msumma.cli.main`` as op OP_ID
(``cli.main_s``), writes that op's layer metrics to METRICS.json and
appends its spans to SPANS.jsonl.  The exit code is the CLI's own.
"""
import json
import sys
import time

import spans


def main() -> int:
    metrics_path, spans_path, op_id = sys.argv[1:4]
    argv = sys.argv[4:]
    t0 = time.perf_counter()
    import msumma.cli
    import_s = time.perf_counter() - t0
    tracer = spans.Tracer()
    spans.install(tracer)
    token = tracer.begin_op(int(op_id))
    code = msumma.cli.main(argv)
    metrics = tracer.end_op(token)
    metrics["cli.import_s"] = import_s
    metrics["cli.main_s"] = metrics["op_s"]
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
