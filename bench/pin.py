"""Write bench/pins.json: the output digests that checks without a closed form use.

    python3 bench/pin.py

Run it only at a commit whose outputs are known to be right; the digests it
records are what every later run is checked against.
"""

from __future__ import annotations

import json

import worker
import workloads


def main() -> None:
    client = worker.Client(worker.load_cli())
    pins = {}
    for tiny in (False, True):
        for request in workloads.generate_requests(tiny) + workloads.series_requests(tiny):
            if isinstance(request.expect, workloads.Exact):
                continue
            record = client.call(request.argv, keep=False)
            if record.rc != 0 or record.escaped:
                raise SystemExit(f"{request.key} failed: {record.escaped or record.err_text}")
            pins[request.key] = {"sha256": record.digest, "lines": record.out_lines}
            print(request.key, pins[request.key])
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
