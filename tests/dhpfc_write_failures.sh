#!/bin/sh
# dhpfc must exit 1, saying "cannot write", when an output cannot be
# written: the trace file, the JSON report in compile and lint mode, and
# stdout itself in compile, lint and fuzz mode. /dev/full opens fine and
# fails only when written, so only a checked flush catches it.
#
# usage: dhpfc_write_failures.sh DHPFC SOURCE_DIR   (exit 77: no /dev/full)
set -u
dhpfc=$1
sample=$2/examples/sample.hpf
dead_store=$2/examples/lint/dead-store.hpf
[ -c /dev/full ] || exit 77

fail=0
# probe WHAT ARGS...: dhpfc ARGS must fail writing WHAT, a file or - (stdout,
# which then goes to /dev/full; otherwise it goes to /dev/null).
probe() {
  what=$1
  shift
  out=/dev/null
  [ "$what" = - ] && out=/dev/full
  err=$("$dhpfc" "$@" 2>&1 >"$out")
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL (exit $rc, want 1): dhpfc $* >$out"
    fail=1
  elif ! printf '%s\n' "$err" | grep -qF "cannot write $what"; then
    echo "FAIL (no 'cannot write $what' on stderr): dhpfc $* >$out"
    fail=1
  else
    echo "ok: dhpfc $* >$out"
  fi
}

probe /dev/full --quiet --trace-out=/dev/full "$sample"
probe /dev/full --quiet --report-json=/dev/full "$sample"
probe /dev/full --quiet --lint --report-json=/dev/full "$sample"
probe - "$sample"
probe - --quiet --report-json=- "$sample"
probe - --verify --model-report "$sample"
probe - --lint "$dead_store"
probe - --quiet --fuzz=2 --fuzz-quick
exit "$fail"
