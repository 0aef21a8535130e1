#!/usr/bin/env bash
# End-to-end smoke checks of the CLIs. The round trips through the
# artifact files must each land on the digest of the uninterrupted,
# unsharded run:
#
#   artifact_roundtrips.sh shard-merge BIN_DIR WORK_DIR
#       --shard 0..2/3 files merged offline == the serial smoke sweep
#   artifact_roundtrips.sh resume BIN_DIR WORK_DIR DATA_DIR
#       a valve-interrupted sweep resumed from its checkpoint, and the
#       committed frontier fixtures resumed, == uninterrupted sweeps
#   artifact_roundtrips.sh kill9 BIN_DIR WORK_DIR
#       a sweep SIGKILLed after its first periodic checkpoint appeared,
#       resumed from whatever is on disk, == the uninterrupted sweep
#
# Parallelism must not change a result:
#
#   artifact_roundtrips.sh torture-jobs BIN_DIR WORK_DIR
#       the smoke campaign at --jobs 2 == --jobs 1, digest and stderr
#   artifact_roundtrips.sh shard-workers BIN_DIR WORK_DIR
#       the smoke campaign on 2 forked workers, and again with 2 of them
#       SIGKILLed by the reaper (a `reaper:` line is required), == serial
#   artifact_roundtrips.sh explore-jobs BIN_DIR WORK_DIR
#       a bprc n=3 exploration cell graded at --jobs 2 == --jobs 1
#
# The explorer's verdicts must hold and its counterexamples replay:
#
#   artifact_roundtrips.sh explore-replay BIN_DIR WORK_DIR
#       `bprc_explore --smoke` passes (real protocols clean, seeded-broken
#       ones caught), and every artifact it writes, at least one,
#       reproduces under `bprc_torture --replay`
#
# Weakened registers must not change a faithful result, and the seeded
# semantics-sensitive bug must be caught under them:
#
#   artifact_roundtrips.sh weakreg BIN_DIR WORK_DIR
#       the smoke campaign under regular and under safe semantics is
#       clean and its digest the same at --jobs 2 as at --jobs 1;
#       broken-needs-atomic under regular is caught by a random campaign
#       (exit 1; every artifact records `semantics regular` and its
#       `stale-reads` choices) and by the explorer (exit 1), and every
#       artifact either wrote, at least one, replays
#
# The crash-containment paths must turn a process-killing protocol into
# recorded worker-crash artifacts instead of dying with it:
#
#   artifact_roundtrips.sh shard-quarantine BIN_DIR WORK_DIR
#       a `--workers 2` campaign of broken-segv completes (exit 1) and
#       quarantines its trials as generative worker-crash artifacts
#   artifact_roundtrips.sh isolate BIN_DIR WORK_DIR
#       an `--isolate` exploration of broken-segv completes (exit 1),
#       counts its worker crashes and writes worker-crash artifacts
#
# The space axis must not depend on parallelism either, and a short
# space budget must be caught:
#
#   artifact_roundtrips.sh space BIN_DIR WORK_DIR
#       the smoke campaign at --space K=3 skips some cells and its digest
#       is the same at --jobs 2 as at --jobs 1; bprc-underprov-cycle and
#       bprc-underprov-slots are caught as bounded-memory failures by
#       random campaigns (exit 1) and by the explorer (exit 1), and every
#       artifact either wrote, at least one, replays
#   artifact_roundtrips.sh frontier-bench BENCH_DIR WORK_DIR
#       bench_frontier (E11) aborts unless every budget's campaign digest
#       is the same at jobs=1, jobs=max and 2 forked workers
#
# And a malformed numeric option must be refused, not parsed as a prefix,
# a thread or process count above the ceiling refused at parse time, and
# bprc_explore's --isolate refused with any --jobs but 1 (0 included):
#
#   artifact_roundtrips.sh cli-args BIN_DIR WORK_DIR
#       each bad value exits 2 with the option named on stderr; an
#       over-ceiling count is followed by a malformed option, so a build
#       that let the count through still exits at parse time, starting
#       nothing, and fails the line for naming the wrong option
#
# A hostile artifact must be refused at parse time, never abort replay:
#
#   artifact_roundtrips.sh hostile-artifacts BIN_DIR WORK_DIR DATA_DIR
#       the committed repro and shard fixtures, each edited to carry a
#       non-bit input, an unregistered protocol or (generative repro) an
#       unregistered adversary, make `bprc_torture --replay` and `--merge`
#       exit 2 with a `line N:` diagnostic; the unedited fixtures replay
#       (exit 0) and merge (exit 1, their recorded finding)
#
# BIN_DIR holds bprc_torture and bprc_explore; BENCH_DIR holds
# bench_frontier. Registered with ctest under the `smoke` label:
# `ctest -L smoke`.
set -euo pipefail

mode=$1
bin=$2
work=$3
data=${4:-}
rm -rf "$work"
mkdir -p "$work"

same_digest() {  # pattern file-a file-b
  local a b
  a=$(grep -E "$1" "$2") || { echo "no digest in $2" >&2; return 1; }
  b=$(grep -E "$1" "$3") || { echo "no digest in $3" >&2; return 1; }
  [ "$a" = "$b" ] || { echo "digest mismatch: $a vs $b" >&2; return 1; }
}

explore_found() {  # bprc_explore exit: 0 = clean, 1 = violations found
  "$bin/bprc_explore" "$@" || [ $? -eq 1 ]
}

exits_with_findings() {  # log command...: must exit 1 (completed, findings)
  local log=$1 status=0
  shift
  "$@" > "$log" 2>&1 || status=$?
  [ "$status" -eq 1 ] ||
    { echo "expected exit 1 (findings recorded), got $status" >&2; return 1; }
}

all_artifacts_match() {  # pattern dir: every .bprc-repro, at least one
  local f count=0
  for f in "$2"/*.bprc-repro; do
    [ -e "$f" ] || break
    grep -qx "$1" "$f" || { echo "$f lacks '$1'" >&2; return 1; }
    count=$((count + 1))
  done
  [ "$count" -gt 0 ] || { echo "no artifacts in $2" >&2; return 1; }
}

all_artifacts_replay() {  # dir: every .bprc-repro, at least one
  local f count=0
  for f in "$1"/*.bprc-repro; do
    [ -e "$f" ] || break
    "$bin/bprc_torture" --replay "$f" > /dev/null ||
      { echo "$f does not replay" >&2; return 1; }
    count=$((count + 1))
  done
  [ "$count" -gt 0 ] || { echo "no artifacts in $1" >&2; return 1; }
}

case "$mode" in
  shard-merge)
    "$bin/bprc_torture" --smoke --quiet --jobs 1 > "$work/serial.out"
    for i in 0 1 2; do
      "$bin/bprc_torture" --smoke --quiet --shard "$i/3" \
        --shard-out "$work/s$i.bprc-shard" > /dev/null
    done
    "$bin/bprc_torture" --smoke --quiet --merge "$work/s0.bprc-shard" \
      "$work/s1.bprc-shard" "$work/s2.bprc-shard" > "$work/merge.out"
    same_digest '^digest=' "$work/serial.out" "$work/merge.out"
    ;;

  resume)
    cell="--protocol bprc --n 3 --inputs 0,1,1 --depth 14 --coin-flips 2"
    f="$work/cut.bprc-frontier"
    "$bin/bprc_explore" $cell --stats > "$work/full.out"
    "$bin/bprc_explore" $cell --stats --max-executions 400 \
      --checkpoint-out "$f" > "$work/cut.out"
    grep -q INCOMPLETE "$work/cut.out"
    "$bin/bprc_explore" $cell --stats --resume "$f" \
      --checkpoint-out "$f" > "$work/resumed.out"
    same_digest 'schedule digest' "$work/full.out" "$work/resumed.out"
    # Frontiers written by an earlier build still resume.
    while read -r name cell; do
      explore_found $cell --stats > "$work/$name.full.out"
      explore_found $cell --stats --resume "$data/$name.bprc-frontier" \
        > "$work/$name.resumed.out"
      same_digest 'schedule digest' "$work/$name.full.out" \
        "$work/$name.resumed.out"
    done <<'EOF'
local-coin-regular-n2 --protocol local-coin --n 2 --inputs 0,1 --depth 16 --coin-flips 3 --register-semantics regular --max-stale-reads 2
broken-needs-atomic-regular-n2 --protocol broken-needs-atomic --n 2 --inputs 0,1 --depth 10 --register-semantics regular
EOF
    ;;

  kill9)
    # ~39k executions against a checkpoint every 500: the first periodic
    # checkpoint lands about 1/80 of the way in, so the kill is mid-sweep.
    cell="--protocol bprc --n 3 --inputs 0,1,1 --depth 26 --coin-flips 2"
    f="$work/kill.bprc-frontier"
    "$bin/bprc_explore" $cell --stats --checkpoint-every 500 \
      --checkpoint-out "$f" > "$work/kill.out" 2>&1 &
    pid=$!
    for _ in $(seq 6000); do
      [ -e "$f" ] && break
      sleep 0.01
    done
    kill -9 "$pid" 2>/dev/null || true
    status=0
    wait "$pid" 2>/dev/null || status=$?
    # The test is vacuous unless the kill landed on a running sweep that
    # had left an unfinished checkpoint behind.
    [ "$status" -eq 137 ] ||
      { echo "sweep was not SIGKILLed (exit $status)" >&2; exit 1; }
    grep -qx 'complete 0' "$f" ||
      { echo "no mid-sweep checkpoint on disk" >&2; exit 1; }
    "$bin/bprc_explore" $cell --stats --resume "$f" \
      --checkpoint-out "$f" > "$work/resumed.out"
    "$bin/bprc_explore" $cell --stats > "$work/full.out"
    same_digest 'schedule digest' "$work/full.out" "$work/resumed.out"
    ;;

  shard-quarantine)
    exits_with_findings "$work/segv.log" "$bin/bprc_torture" --workers 2 \
      --protocol broken-segv --adversary random --n 2 --seeds 4 \
      --max-failures 64 --out "$work/repros"
    grep -q quarantining "$work/segv.log" ||
      { echo "no trial was quarantined" >&2; exit 1; }
    all_artifacts_match 'failure worker-crash' "$work/repros"
    all_artifacts_match 'mode generative' "$work/repros"
    ;;

  isolate)
    exits_with_findings "$work/segv.log" "$bin/bprc_explore" \
      --protocol broken-segv --n 2 --inputs 0,1 --depth 8 --seed 2 \
      --isolate --stats --out "$work/repros"
    grep -Eq ' [1-9][0-9]* worker crash\(es\)' "$work/segv.log" ||
      { echo "no worker crash counted" >&2; exit 1; }
    all_artifacts_match 'failure worker-crash' "$work/repros"
    ;;

  torture-jobs)
    for j in 1 2; do
      "$bin/bprc_torture" --smoke --quiet --jobs "$j" \
        > "$work/j$j.out" 2> "$work/j$j.err"
    done
    same_digest '^digest=' "$work/j1.out" "$work/j2.out"
    diff "$work/j1.err" "$work/j2.err" ||
      { echo "stderr differs between --jobs 1 and --jobs 2" >&2; exit 1; }
    ;;

  shard-workers)
    "$bin/bprc_torture" --smoke --quiet --jobs 1 > "$work/serial.out"
    "$bin/bprc_torture" --smoke --quiet --workers 2 > "$work/w2.out"
    "$bin/bprc_torture" --smoke --workers 2 --reap 2 \
      > "$work/reap.out" 2> "$work/reap.err"
    grep -q 'reaper:' "$work/reap.err" ||
      { echo "the reaper killed no worker" >&2; exit 1; }
    same_digest '^digest=' "$work/serial.out" "$work/w2.out"
    same_digest '^digest=' "$work/serial.out" "$work/reap.out"
    ;;

  explore-jobs)
    cell="--protocol bprc --n 3 --inputs 0,1,1 --depth 14 --coin-flips 2"
    "$bin/bprc_explore" $cell --stats > "$work/j1.out"
    "$bin/bprc_explore" $cell --stats --jobs 2 > "$work/j2.out"
    same_digest 'schedule digest' "$work/j1.out" "$work/j2.out"
    ;;

  explore-replay)
    "$bin/bprc_explore" --smoke --stats --out "$work/repros" \
      > "$work/smoke.out"
    all_artifacts_replay "$work/repros"
    ;;

  weakreg)
    for sem in regular safe; do
      for j in 1 2; do
        "$bin/bprc_torture" --smoke --quiet --jobs "$j" \
          --register-semantics "$sem" > "$work/$sem-j$j.out"
      done
      same_digest '^digest=' "$work/$sem-j1.out" "$work/$sem-j2.out"
    done
    exits_with_findings "$work/bug.log" "$bin/bprc_torture" \
      --protocol broken-needs-atomic --adversary random --n 3 --seeds 32 \
      --register-semantics regular --max-failures 4 --out "$work/repros"
    all_artifacts_match 'semantics regular' "$work/repros"
    all_artifacts_match 'stale-reads .*' "$work/repros"
    exits_with_findings "$work/explore.log" "$bin/bprc_explore" \
      --protocol broken-needs-atomic --n 2 --depth 10 \
      --register-semantics regular --stats --out "$work/repros"
    all_artifacts_replay "$work/repros"
    ;;

  space)
    for j in 1 2; do
      "$bin/bprc_torture" --smoke --quiet --jobs "$j" --space K=3 \
        > "$work/j$j.out"
    done
    grep -q 'space cell(s) skipped' "$work/j1.out" ||
      { echo "no space cell(s) skipped line" >&2; exit 1; }
    same_digest '^digest=' "$work/j1.out" "$work/j2.out"
    for p in bprc-underprov-cycle bprc-underprov-slots; do
      exits_with_findings "$work/$p.log" "$bin/bprc_torture" --protocol "$p" \
        --adversary random --n 2 --n 3 --seeds 4 --max-failures 8 \
        --out "$work/repros"
    done
    exits_with_findings "$work/explore.log" "$bin/bprc_explore" \
      --protocol bprc-underprov-cycle --protocol bprc-underprov-slots \
      --n 2 --depth 8 --stats --out "$work/repros"
    all_artifacts_match 'failure bounded-memory' "$work/repros"
    all_artifacts_replay "$work/repros"
    ;;

  frontier-bench)
    "$bin/bench_frontier" > "$work/frontier.out"
    ;;

  cli-args)
    while read -r option tool args; do
      status=0
      "$bin/$tool" $args > /dev/null 2> "$work/err" || status=$?
      [ "$status" -eq 2 ] ||
        { echo "$tool $args: expected exit 2, got $status" >&2; exit 1; }
      grep -qF -- "$option" "$work/err" ||
        { echo "$tool $args: stderr does not name $option" >&2; exit 1; }
    done <<'EOF'
--depth bprc_explore --depth abc
--n bprc_explore --n 2x
--seeds bprc_torture --seeds abc
--seeds bprc_torture --seeds 3x
--frontier-split bprc_explore --protocol bprc --n 2 --inputs 0,1 --frontier-split 1/2x
--shard bprc_torture --smoke --shard 0/3x
--jobs bprc_torture --jobs 100000 --seeds abc
--workers bprc_torture --workers 100000 --seeds abc
--jobs bprc_explore --jobs 100000 --depth abc
--isolate bprc_explore --protocol bprc --n 2 --inputs 0,1 --isolate --jobs 0
--depth bprc_explore --protocol bprc --n 2 --inputs 0,1 --depth 300
--moves bprc_explore --claim41 --n 8 --moves 40
--max-cache-mb bprc_explore --protocol bprc --n 2 --inputs 0,1 --max-cache-mb 17592186044417
--n bprc_torture --smoke --n 0
--n bprc_torture --n 100000 --seeds abc
--inputs bprc_explore --protocol bprc --n 3 --inputs 0,1,2
--inputs bprc_explore --protocol bprc --n 2 --inputs -1,1
EOF
    ;;

  hostile-artifacts)
    repro=$data/broken-racy-round-robin-n2-0.bprc-repro
    shard=$data/bprc-underprov-cycle-regular-k3.bprc-shard
    "$bin/bprc_torture" --replay "$repro" > /dev/null
    exits_with_findings "$work/merge.log" "$bin/bprc_torture" --merge "$shard"
    i=0
    while read -r option edit; do
      i=$((i + 1))
      if [ "$option" = --replay ]; then src=$repro; else src=$shard; fi
      f=$work/hostile-$i.${src##*.}
      sed "$edit" "$src" > "$f"
      ! cmp -s "$src" "$f" || { echo "'$edit' edits nothing" >&2; exit 1; }
      status=0
      "$bin/bprc_torture" "$option" "$f" > /dev/null 2> "$work/err" ||
        status=$?
      [ "$status" -eq 2 ] ||
        { echo "$option '$edit': expected exit 2, got $status" >&2; exit 1; }
      grep -q ' line [0-9]*: ' "$work/err" ||
        { echo "$option '$edit': no line diagnostic" >&2; exit 1; }
    done <<'EOF'
--replay s/^inputs 1 0$/inputs 1 2/
--replay s/^inputs 1 0$/inputs -1 0/
--replay s/^protocol broken-racy$/protocol no-such-protocol/
--replay s/^adversary round-robin$/adversary no-such-adversary/;s/^schedule 1$/mode generative/
--merge s/^inputs 1 0$/inputs 1 2/
--merge s/^inputs 1 0$/inputs -1 0/
--merge s/^protocol bprc-underprov-cycle$/protocol no-such-protocol/
EOF
    ;;

  *)
    echo "unknown mode: $mode" >&2
    exit 2
    ;;
esac
echo "$mode: OK"
