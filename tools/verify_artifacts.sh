#!/bin/sh
# The byte-identity rail, in one command.
#
#   tools/verify_artifacts.sh [--quick] [OUTDIR]
#
# Everything repro-bench prints runs on the virtual clock, so a change that
# is not meant to move modelled time must reproduce every committed artifact
# to the byte.  This script
#
#   1. produces the seven gated BENCH_*.json artifacts into OUTDIR
#      (default: a fresh temporary directory) and cmp's each against
#      benchmarks/baselines/ -- each producing pass must also exit 0;
#   2. runs --forensics a second time and cmp's the two documents;
#   3. runs the three seeded --fault drills (exit 0 = fault detected);
#   4. runs `repro-bench all` and cmp's it against docs/reference_run.txt
#      (~2 min; --quick skips this one step);
#   5. runs tools/bench_gate.py over the produced artifacts.
#
# Every step runs even after a failure, so one run reports everything that
# moved; the exit status is 0 iff all steps held.  Run from anywhere: paths
# are resolved against the repository this script lives in.

set -u

quick=0
out=""
for arg in "$@"; do
    case "$arg" in
        --quick) quick=1 ;;
        -h|--help) sed -n '2,22p' "$0"; exit 0 ;;
        -*) echo "verify_artifacts: unknown option $arg" >&2; exit 2 ;;
        *) out="$arg" ;;
    esac
done

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
[ -n "$out" ] || out=$(mktemp -d "${TMPDIR:-/tmp}/repro-artifacts.XXXXXX")
mkdir -p "$out" || exit 2
out=$(CDPATH= cd -- "$out" && pwd)
cd "$repo" || exit 2

python=${PYTHON:-python}
PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH
failed=0

# step LABEL COMMAND...: run one check, keep going, remember a failure.
step() {
    label=$1
    shift
    if "$@"; then
        echo "ok      $label"
    else
        echo "FAILED  $label"
        failed=1
    fi
}

bench() {
    log=$1
    shift
    "$python" -m repro.bench.cli "$@" > "$out/$log" 2>&1
}

same_as_baseline() {
    cmp "$out/$1" "benchmarks/baselines/$1"
}

# artifact ID ARGS...: produce BENCH_<ID>.json (pass must exit 0), then cmp.
artifact() {
    id=$1
    shift
    step "produce BENCH_$id.json" bench "$id.log" "$@" --json "$out/BENCH_$id.json"
    step "BENCH_$id.json == baseline" same_as_baseline "BENCH_$id.json"
}

artifact columnar columnar
artifact compaction compaction
artifact health --health
artifact flight --flight
artifact certify --certify
artifact verify_plans --verify-plans
artifact forensics --forensics

step "forensics rerun" bench forensics_rerun.log \
    --forensics --json "$out/BENCH_forensics_rerun.json"
step "forensics double run byte-identical" \
    cmp "$out/BENCH_forensics.json" "$out/BENCH_forensics_rerun.json"

step "drill: --health --fault drop-queue-message" \
    bench drill_health.log --health --fault drop-queue-message
step "drill: --certify --fault swap-lane-ops" \
    bench drill_certify.log --certify --fault swap-lane-ops
step "drill: --verify-plans --fault corrupt-delta-rule" \
    bench drill_verify_plans.log --verify-plans --fault corrupt-delta-rule

if [ "$quick" -eq 0 ]; then
    step "repro-bench all" bench out.txt all
    step "repro-bench all == docs/reference_run.txt" \
        cmp "$out/out.txt" docs/reference_run.txt
else
    echo "skipped repro-bench all (--quick)"
fi

step "bench_gate.py" "$python" tools/bench_gate.py \
    "$out/BENCH_columnar.json" "$out/BENCH_compaction.json" \
    "$out/BENCH_health.json" "$out/BENCH_flight.json" \
    "$out/BENCH_certify.json" "$out/BENCH_verify_plans.json" \
    "$out/BENCH_forensics.json"

if [ "$failed" -ne 0 ]; then
    echo "verify_artifacts: FAILED (outputs and logs in $out)" >&2
    echo "if a table or artifact is meant to move, re-baseline it in its own" \
        "commit: python tools/bench_gate.py --update $out/BENCH_<id>.json;" \
        "cp $out/out.txt docs/reference_run.txt" >&2
    exit 1
fi
echo "verify_artifacts: all held (outputs and logs in $out)"
