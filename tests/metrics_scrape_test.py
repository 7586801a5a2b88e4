#!/usr/bin/env python3
"""End-to-end metrics scrape over the TCP line protocol.

Starts `csdd --serve 0`, runs a known query/update mix through a
socket client, then scrapes `:metrics` and checks that

  * the output is well-formed Prometheus text exposition (0.0.4):
    every sample line parses, every family has exactly one HELP and
    one TYPE comment, and they precede the family's samples;
  * the series reconcile with the traffic: csdd_queries_total equals
    the queries sent, csdd_updates_total the updates sent, the
    csdd_requests_total outcome family sums to all service requests,
    and the latency histogram's _count equals the query count with a
    cumulative, monotone bucket series capped by +Inf == _count;
  * net-, cache-, storage- and evaluator-level families are present,
    so one scrape covers every subsystem.

Usage: metrics_scrape_test.py /path/to/csdd
"""

import re
import signal
import socket
import subprocess
import sys


def read_frame(sock_file):
    """Reads one '.'-terminated response frame; returns its lines."""
    lines = []
    while True:
        line = sock_file.readline()
        if not line:
            raise AssertionError("connection closed mid-frame")
        line = line.rstrip("\n")
        if line == ".":
            return lines
        lines.append(line)


def main():
    csdd = sys.argv[1]
    proc = subprocess.Popen(
        [csdd, "--serve", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = None
        for line in proc.stdout:
            match = re.search(r"serving on port (\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "server never reported its port"

        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock_file = sock.makefile("r")
        read_frame(sock_file)  # banner

        def send(line):
            sock.sendall((line + "\n").encode())
            return read_frame(sock_file)

        updates = [
            "tc(X, Y) :- edge(X, Y).",
            "tc(X, Y) :- edge(X, Z), tc(Z, Y).",
            "edge(a, b).",
            "edge(b, c).",
            "edge(c, d).",
        ]
        queries = [
            "?- tc(a, Y).",
            "?- tc(a, Y).",  # result-cache hit
            "?- edge(X, Y).",
            "?- tc(a Y.",  # parse error: outcome=error, still a request
        ]
        for line in updates:
            send(line)
        for line in queries:
            send(line)

        exposition = send(":metrics")

        # --- Exposition well-formedness ---------------------------------
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*'         # metric name
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'  # first label
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r" [-+0-9.eEinf]+$"                   # value
        )
        samples = {}      # full series line name{labels} -> float value
        help_seen = {}
        type_seen = {}
        families_announced = set()
        for line in exposition:
            if line.startswith("# HELP "):
                family = line.split()[2]
                assert family not in help_seen, f"duplicate HELP {family}"
                help_seen[family] = True
                families_announced.add(family)
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                family, kind = parts[2], parts[3]
                assert family not in type_seen, f"duplicate TYPE {family}"
                assert kind in ("counter", "gauge", "histogram"), line
                type_seen[family] = kind
                families_announced.add(family)
                continue
            assert sample_re.match(line), f"malformed sample line: {line!r}"
            name = line.split("{")[0].split(" ")[0]
            base = re.sub(r"_(bucket|sum|count)$", "", name)
            assert (
                name in families_announced or base in families_announced
            ), f"sample before its HELP/TYPE: {line!r}"
            key = line.rsplit(" ", 1)[0]
            samples[key] = float(line.rsplit(" ", 1)[1])
        assert set(help_seen) == set(type_seen), "HELP/TYPE mismatch"

        def family_sum(family):
            total = 0.0
            found = False
            for key, value in samples.items():
                if key == family or key.startswith(family + "{"):
                    total += value
                    found = True
            assert found, f"family absent: {family}"
            return total

        # --- Series consistency vs the traffic we generated -------------
        assert family_sum("csdd_queries_total") == len(queries)
        assert family_sum("csdd_updates_total") == len(updates)
        # Every request is ok except the one parse error.
        assert samples['csdd_requests_total{outcome="ok"}'] == (
            len(updates) + len(queries) - 1
        )
        assert samples['csdd_requests_total{outcome="error"}'] == 1
        assert family_sum("csdd_requests_total") == len(updates) + len(queries)
        assert samples['csdd_result_cache_lookups_total{result="hit"}'] >= 1

        # Latency histogram: one sample per query, cumulative buckets.
        count = samples["csdd_query_latency_us_count"]
        assert count == len(queries), (count, len(queries))
        buckets = []
        for key, value in samples.items():
            match = re.match(r'csdd_query_latency_us_bucket\{le="(.+)"\}', key)
            if match:
                le = match.group(1)
                bound = float("inf") if le == "+Inf" else float(le)
                buckets.append((bound, value))
        buckets.sort()
        assert buckets, "histogram emitted no buckets"
        assert buckets[-1][0] == float("inf"), "missing +Inf bucket"
        assert buckets[-1][1] == count, "+Inf bucket != _count"
        values = [value for _, value in buckets]
        assert values == sorted(values), "buckets are not cumulative"
        for quantile in ("0.5", "0.95", "0.99"):
            key = f'csdd_query_latency_us_quantile{{quantile="{quantile}"}}'
            assert key in samples, f"missing {key}"

        # --- Every subsystem is represented in one scrape ---------------
        for family in (
            "csdd_net_accepted_total",
            "csdd_net_bytes_total",
            "csdd_evals_total",
            "csdd_fixpoint_iterations_total",
            "csdd_storage_relations",
            "csdd_storage_rows",
        ):
            family_sum(family)
        assert family_sum("csdd_net_accepted_total") >= 1

        sock.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    print("ok")


if __name__ == "__main__":
    main()
