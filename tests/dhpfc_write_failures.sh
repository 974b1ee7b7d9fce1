#!/bin/sh
# dhpfc must exit 1, saying "cannot write", when an output file cannot be
# written: the trace file, and the JSON report in compile and lint mode.
# /dev/full opens fine and fails only when written, so only a checked
# flush catches it.
#
# usage: dhpfc_write_failures.sh DHPFC SOURCE_DIR   (exit 77: no /dev/full)
set -u
dhpfc=$1
sample=$2/examples/sample.hpf
[ -c /dev/full ] || exit 77

fail=0
probe() {
  err=$("$dhpfc" "$@" 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL (exit $rc, want 1): dhpfc $*"
    fail=1
  elif ! printf '%s\n' "$err" | grep -q 'cannot write /dev/full'; then
    echo "FAIL (no 'cannot write /dev/full' on stderr): dhpfc $*"
    fail=1
  else
    echo "ok: dhpfc $*"
  fi
}

probe --quiet --trace-out=/dev/full "$sample"
probe --quiet --report-json=/dev/full "$sample"
probe --quiet --lint --report-json=/dev/full "$sample"
exit "$fail"
