#!/bin/sh
# Mutant census of the protocol checkers: test/mutants/census.sh
#
# Applies each test/mutants/M*.patch to a fresh copy of the committed tree,
# builds it, and runs every checker on it separately, each run under a
# time and a memory limit. Prints the kill matrix (markdown) on stdout;
# the failing case names of every cell go to census.log in the work
# directory.
#
#   -r REV   tree to mutate (default HEAD of the repository holding this
#            script); the copy comes from `git archive REV`
#   -w DIR   work directory (default: a fresh mktemp -d)
#   MUTANT.. patches to run, named by their path under test/mutants
#            without .patch, e.g. M05 or legacy/M11 (default: every
#            M*.patch; the probes in legacy/ run only when named)
#
# Cells: X a check failed; T the run passed its time limit (a hang);
# s only pinned-schedule expectations failed (a moved yield point shifts
# the schedule a pinned case replays, which is no detection); . clean;
# - checker not in this tree; B the mutant does not build. A mutant is
# killed when a checker other than verify shows X or T. Row M00 is the
# unmutated tree and must be clean. The census is slow (one incremental
# build per mutant) and is not part of `dune runtest`.
set -u
here=$(cd "$(dirname "$0")" && pwd)
repo=$(cd "$here/../.." && pwd)
rev=HEAD work=
# Each checker run gets 60 s and 2 GB of address space: a mutant that
# hangs a suite or leaks without bound (M13 grew pool_smoke past 7 GB)
# fails its run instead of holding the census or exhausting the
# machine's memory.
limit=60 mem=2000000
while getopts r:w: o; do
  case $o in
    r) rev=$OPTARG ;; w) work=$OPTARG ;;
    *) sed -n '2,23p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[ -n "$work" ] || work=$(mktemp -d "${TMPDIR:-/tmp}/hohtx-census.XXXXXX")
mkdir -p "$work"
tree=$work/tree log=$work/census.log
export GIT_CEILING_DIRECTORIES=$work
rm -rf "$tree" && mkdir -p "$tree"
git -C "$repo" archive "$rev" | tar -x -C "$tree" || exit 2
: > "$log"

# Cases that replay a pinned schedule or a seeded search and assert what
# it finds: a mutant that adds or moves a yield point fails them without
# any protocol fault.
pinned='bug #1 straddle: random search
bug #2 publication: PCT search
bug #3 stale hint: PCT search
snapshot straddle (bug #1)
ro publication (bug #2)
stale hint (bug #3)
pinned extension paths
pinned optimization paths
dlist strict fast-fail through the store
skiplist: recycled hint aborts'

targets='test/test_tm.exe test/test_mempool.exe test/test_reclaim.exe
  test/test_rr.exe test/test_structs.exe test/test_lockfree.exe
  test/test_harness.exe test/test_telemetry.exe test/test_dst.exe
  test/test_san.exe test/test_service.exe test/test_soak.exe
  test/dst_smoke.exe test/san_smoke.exe test/service_smoke.exe
  test/pool_smoke.exe bench/main.exe'
bin=$tree/_build/default

# worst of two cells: X > T > s > .
worst() {
  case "$1$2" in *X*) echo X ;; *T*) echo T ;; *s*) echo s ;; *) echo . ;; esac
}

# alcotest executable: X unless every failed case is a pinned one.
# alcotest cuts long case names to its 80 columns ("name..."), so a
# failed name counts as pinned when it is a prefix of a pinned name.
alco() {
  out=$work/out.txt
  (cd "$bin/test" && ulimit -v $mem && timeout "$limit" "./$1.exe" --color=never --show-errors \
     > "$out" 2>&1)
  rc=$?
  [ $rc -eq 0 ] && { echo .; return; }
  [ $rc -eq 124 ] && { echo "  $1: timeout" >> "$log"; echo T; return; }
  fails=$(grep '^  \[FAIL\]' "$out" | sed 's/^  \[FAIL\] *//' | sort -u)
  if [ -z "$fails" ]; then
    echo "  $1: exit $rc: $(grep -v '^ *$' "$out" | tail -n 1)" >> "$log"
    echo X; return
  fi
  printf '%s\n' "$fails" | sed "s/^/  $1: /" >> "$log"
  grep '^FAIL ' "$out" | sort -u | head -n 3 | cut -c1-160 | sed 's/^/    /' \
    >> "$log"
  cell=s
  while IFS= read -r n; do
    n=$(printf '%s' "$n" | sed 's/^.*[0-9]   *//; s/\.\.\.$//; s/\.$//')
    printf '%s\n' "$pinned" | cut -c1-${#n} | grep -qxF "$n" || cell=X
  done <<EOF
$fails
EOF
  echo $cell
}

# transcript smoke: X when a "fixed code is clean" line fails, s when only
# the transcript moved
smoke() {
  out=$work/out.txt
  (cd "$bin/test" && ulimit -v $mem && timeout "$limit" "./$1.exe" > "$out" 2>&1)
  rc=$?
  [ $rc -eq 124 ] && { echo "  $1: timeout" >> "$log"; echo T; return; }
  if [ $rc -eq 0 ] && cmp -s "$out" "$tree/test/$1.expected"; then echo .; return; fi
  grep FAILED "$out" | sed "s/^/  $1: /" >> "$log"
  if grep FAILED "$out" | grep -E 'survives|clean|oracle' > /dev/null; then echo X
  elif [ $rc -ne 0 ] && ! grep -q FAILED "$out"; then
    echo "  $1: exit $rc: $(tail -n 1 "$out")" >> "$log"; echo X
  else echo "  $1: transcript moved" >> "$log"; echo s; fi
}

# plain executable: its exit status
plain() {
  d=$1; shift
  (cd "$d" && ulimit -v $mem && timeout "$limit" "$@" > "$work/out.txt" 2>&1)
  rc=$?
  [ $rc -eq 0 ] && { echo .; return; }
  [ $rc -eq 124 ] && { echo "  $*: timeout" >> "$log"; echo T; return; }
  echo "  $*: exit $rc: $(tail -n 1 "$work/out.txt")" >> "$log"
  echo X
}

col_verify() {
  [ -f "$tree/bin/hohtx_verify.ml" ] || { echo -; return; }
  if timeout "$limit" dune build --root "$tree" @bin/verify > "$work/out.txt" 2>&1
  then echo .
  else grep -E 'HV0|rule|error' "$work/out.txt" | head -n 5 | sed 's/^/  verify: /' >> "$log"; echo X
  fi
}
col_san() { worst "$(alco test_san)" "$(smoke san_smoke)"; }
col_dst() { worst "$(alco test_dst)" "$(smoke dst_smoke)"; }
col_serial() {
  c=.
  for t in test_harness test_service; do c=$(worst $c "$(alco $t)"); done
  for t in service_smoke pool_smoke; do
    c=$(worst $c "$(plain "$bin/test" "./$t.exe")")
  done
  echo $c
}
col_soak() {
  mkdir -p "$work/soak"
  worst "$(alco test_soak)" "$(plain "$work/soak" "$bin/bench/main.exe" soak-smoke)"
}
col_structs() { alco test_structs; }
col_rest() {
  c=.
  for t in test_tm test_rr test_mempool test_reclaim test_lockfree test_telemetry
  do c=$(worst $c "$(alco $t)"); done
  echo $c
}

build() {
  # shellcheck disable=SC2086
  timeout 1800 dune build --root "$tree" $targets > "$work/build.txt" 2>&1
}

row() {
  id=$1 title=$2 equiv=$3
  echo "$id" >> "$log"
  if ! build; then
    head -n 20 "$work/build.txt" | sed 's/^/  build: /' >> "$log"
    echo "| $id | $title | B | B | B | B | B | B | B | does not build |"
    return
  fi
  v=$(col_verify) a=$(col_san) d=$(col_dst) q=$(col_serial)
  k=$(col_soak) st=$(col_structs) r=$(col_rest)
  case "$a$d$q$k$st$r" in
    *X*|*T*) verdict=killed; [ -n "$equiv" ] && verdict="killed, but labelled equivalent" ;;
    *) if [ "$id" = M00 ]; then verdict=clean
       elif [ -n "$equiv" ]; then verdict=equivalent
       else verdict=SURVIVED; fi ;;
  esac
  [ "$id" = M00 ] && [ "$verdict" != clean ] && verdict="BASELINE NOT CLEAN"
  echo "| $id | $title | $v | $a | $d | $q | $k | $st | $r | $verdict |"
}

echo "| Mutant | Mutation | verify | TxSan | DST | Serial_check | Soak | test_structs | other tier-1 | Verdict |"
echo "|---|---|---|---|---|---|---|---|---|---|"
row M00 "(none: the unmutated tree)" ""
if [ $# -eq 0 ]; then
  set -- $(cd "$here" && ls M*.patch | sed 's/\.patch$//')
fi
for id in "$@"; do
  p=$here/$id.patch
  title=$(sed -n '1s/^[^:]*: //p' "$p")
  equiv=$(sed -n 's/^Equivalent: //p' "$p")
  if ! (cd "$tree" && git apply "$p"); then
    echo "| $id | $title | | | | | | | | does not apply |"; continue
  fi
  row "$id" "$title" "$equiv"
  (cd "$tree" && git apply -R "$p") || { echo "$id: cannot revert" >&2; exit 1; }
done
