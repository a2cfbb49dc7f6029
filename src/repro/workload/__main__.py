"""Command-line runner for the datacenter workload.

Examples::

    python -m repro.workload --width 8 --height 8 --requests 256
    python -m repro.workload --addr-map strided
    python -m repro.workload --load 5000000 --zipf 1.3 --json
"""

import argparse
import json
import sys

from repro.workload.generator import DatacenterWorkload
from repro.workload.traffic import WorkloadParams


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--width", type=int, default=4)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=64)
    parser.add_argument("--clients", type=int, default=1_000_000,
                        help="simulated client population (multiplexed)")
    parser.add_argument("--keys", type=int, default=1024)
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf skew exponent (0 = uniform)")
    parser.add_argument("--load", type=int, default=2_000_000,
                        help="offered load, requests per second")
    parser.add_argument("--addr-map", choices=("blocked", "strided"),
                        default="blocked")
    parser.add_argument("--payload-words", type=int, default=4)
    parser.add_argument("--window-slots", type=int, default=4)
    parser.add_argument("--json", action="store_true",
                        help="emit the full SLO record as JSON")
    args = parser.parse_args(argv)

    params = WorkloadParams(
        width=args.width, height=args.height, seed=args.seed,
        requests=args.requests, clients=args.clients, keys=args.keys,
        zipf_s=args.zipf, offered_load_rps=args.load,
        payload_words=args.payload_words, window_slots=args.window_slots,
        addr_map=args.addr_map,
    )
    slo = DatacenterWorkload(params).run().results()

    if args.json:
        print(json.dumps(slo, indent=2, sort_keys=True))
        return 0
    print("workload %dx%d seed=%d addr_map=%s"
          % (args.width, args.height, args.seed, args.addr_map))
    print("  offered %d rps, %d requests (%d local), %d responses"
          % (slo["offered_load_rps"], args.requests, slo["local"],
             slo["responses"]))
    print("  duration %d ns, goodput %s rps"
          % (slo["duration_ns"],
             "%.0f" % slo["goodput_rps"] if slo["goodput_rps"] else "n/a"))
    print("  latency p50=%s p99=%s p999=%s ns"
          % (slo["p50_ns"], slo["p99_ns"], slo["p999_ns"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
