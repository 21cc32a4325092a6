#!/bin/sh
# pin.sh FILE... -- CMD ARG...
# Run CMD and print what a golden file pins: its stdout, its stderr, its
# exit status, then each FILE it was expected to write (JSON is split
# before every trace event or report object, one per line, so a golden
# diff points at the event that moved).
files=
while [ "$1" != "--" ]; do files="$files $1"; shift; done
shift
for f in $files; do rm -f "$f"; done
out=$(mktemp) err=$(mktemp)
"$@" >"$out" 2>"$err"
status=$?
echo "== stdout"; cat "$out"
echo "== stderr"; cat "$err"
echo "== exit $status"
for f in $files; do
  if [ -f "$f" ]; then
    echo "== $f"
    sed -e 's/,{"name"/,\n{"name"/g' -e 's/,{"kind"/,\n{"kind"/g' "$f"
  else
    echo "== $f (not written)"
  fi
done
rm -f "$out" "$err"
