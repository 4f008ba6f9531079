#!/bin/sh
# Checks a /metrics scrape taken from a running ompss-serve right after a
# smoke run against it:
#
#   scripts/serve-metrics.sh FILE
#
# Every tenant class the smoke cycles (bronze, silver, gold) must show a
# non-zero ompss_requests_total, so the metrics plane is attached to the
# serving path, and an ompss_violations_total of exactly 0: the server's own
# count of isolation violations, a cross-check of the smoke's client-side
# gate. The request latency histogram must be there, and no ompss_tune_
# family may be: the runtime has no feedback controller, so one would be a
# constant posing as a setpoint. Exits 1 on the first miss. The CI
# serve-smoke job and `make serve-smoke` call it.
set -eu

f=${1:?usage: serve-metrics.sh FILE}
for t in bronze silver gold; do
	grep -Eq "^ompss_requests_total\{tenant=\"$t\"\} [1-9][0-9]*$" "$f" ||
		{ echo "missing or zero ompss_requests_total{tenant=\"$t\"}" >&2; exit 1; }
	grep -Eq "^ompss_violations_total\{tenant=\"$t\"\} 0$" "$f" ||
		{ echo "missing or nonzero ompss_violations_total{tenant=\"$t\"}" >&2; exit 1; }
done
if grep -E '^(# (HELP|TYPE) )?ompss_tune_' "$f"; then
	echo "scrape exposes an ompss_tune_ family" >&2
	exit 1
fi
grep -q '^ompss_request_seconds_bucket' "$f" ||
	{ echo "missing ompss_request_seconds histogram" >&2; exit 1; }
