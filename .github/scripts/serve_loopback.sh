#!/usr/bin/env bash
# Serves one cell with dpbfl-server and drives it with two dpbfl-client
# processes claiming workers 0-2 and 3-5.
#
#   .github/scripts/serve_loopback.sh LOG SERVER_ARGS...
#
# The server's output goes to LOG (printed at the end). The script reads
# the `listening on tcp://…` or `listening on unix://…` line from it and
# fails when no address appears within 30 s, or when the server or either
# client exits non-zero. The binaries come from $BIN_DIR (default
# target/release).
set -euo pipefail

log=$1
shift
bin=${BIN_DIR:-target/release}

"$bin/dpbfl-server" "$@" > "$log" 2>&1 &
server=$!

addr=""
for _ in $(seq 1 150); do
  addr=$(sed -nE 's#^listening on ((tcp|unix)://.+)$#\1#p' "$log" | head -n 1)
  if [ -n "$addr" ] || ! kill -0 "$server" 2> /dev/null; then
    break
  fi
  sleep 0.2
done
if [ -z "$addr" ]; then
  echo "dpbfl-server exited or printed no listening address within 30 s" >&2
  kill "$server" 2> /dev/null || true
  cat "$log"
  exit 1
fi
echo "server listening on $addr"

"$bin/dpbfl-client" --connect "$addr" --workers 0-2 &
client_a=$!
"$bin/dpbfl-client" --connect "$addr" --workers 3-5 &
client_b=$!

status=0
wait "$client_a" || { echo "dpbfl-client --workers 0-2 failed" >&2; status=1; }
wait "$client_b" || { echo "dpbfl-client --workers 3-5 failed" >&2; status=1; }
# A server whose clients are gone would wait for them until the job times out.
if [ "$status" -ne 0 ]; then
  kill "$server" 2> /dev/null || true
fi
wait "$server" || { echo "dpbfl-server failed" >&2; status=1; }
cat "$log"
exit "$status"
