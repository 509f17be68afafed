#!/usr/bin/env bash
# Exit-code contract of workflow_cli's telemetry flags (workflow_cli.cpp):
#   2  unwritable --metrics/--trace/--spans path, probed before the run
#   3  the run succeeded but a telemetry dump failed
#   0  run and all requested dumps succeeded
# Usage: workflow_cli_telemetry_test.sh <workflow_cli-binary> <repo-root>
set -u
cli="$(realpath "$1")"
repo="$(realpath "$2")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# An unwritable telemetry path must be rejected up front with exit 2 and
# a message naming the path — not a successful run with a lost report.
"$cli" --demo --metrics="$tmp/no-such-dir/m.json" \
    >/dev/null 2>"$tmp/err" && fail "unwritable --metrics exited 0"
code=$?
[ "$code" -eq 2 ] || fail "unwritable --metrics: expected exit 2, got $code"
grep -q "no-such-dir/m.json" "$tmp/err" \
    || fail "stderr does not name the bad path: $(cat "$tmp/err")"

"$cli" --demo --spans="$tmp/no-such-dir/s.json" >/dev/null 2>&1
[ $? -eq 2 ] || fail "unwritable --spans: expected exit 2"

# Happy path: all three telemetry files land and parse.
(cd "$tmp" && "$cli" --demo --metrics=m.json --trace=t.jsonl \
    --spans=s.json >/dev/null 2>&1) || fail "demo run failed"
for f in m.json t.jsonl s.json; do
  [ -s "$tmp/$f" ] || fail "$f missing or empty"
done
python3 -c "
import json, sys
counters = json.load(open(sys.argv[1]))['counters']
opens = {k: v for k, v in counters.items() if k.startswith('fm.open.')}
assert any(v > 0 for v in opens.values()), f'no fm.open.* counter > 0: {opens}'
" "$tmp/m.json" || fail "metrics json malformed or records no FM opens"
# The IO trace is a view over the spans: one Chrome event line per
# descriptor's file span, carrying its byte counts.
python3 -c "
import json, sys
lines = open(sys.argv[1]).read().splitlines()
assert lines, 'no file spans in demo run'
for line in lines:
    event = json.loads(line)
    assert event['cat'] == 'file', event
    assert 'bytes_read' in event['args'], event
" "$tmp/t.jsonl" || fail "trace jsonl malformed"
python3 -c "
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc['traceEvents']
assert events, 'no spans in demo run'
assert any(e['cat'] == 'workflow' for e in events), 'no workflow root span'
" "$tmp/s.json" || fail "spans json malformed"

# The analyzer must accept a real span file end to end.
python3 "$repo/tools/tracepath.py" "$tmp/s.json" >/dev/null \
    || fail "tracepath.py rejected the demo spans"

echo "workflow_cli telemetry contract OK"
