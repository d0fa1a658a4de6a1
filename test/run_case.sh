#!/bin/sh
# Run one alcotest case by name: test/run_case.sh EXE GROUP CASE
#
# EXE is a test executable under test/ without its suffix (test_structs);
# GROUP and CASE are spelled as `EXE.exe list` prints them. alcotest picks
# a case by index, so the name is resolved through `list` first (with
# --color=never: under `dune exec` it would print ANSI codes). Run from
# the repository root, with dune on the PATH. The exit status is the
# case's, or 1 when EXE has no such case.
if [ $# -ne 3 ]; then
  echo "usage: $0 EXE GROUP CASE" >&2
  exit 2
fi
exe=$1 group=$2 case=$3
i=$(dune exec --display quiet "test/$exe.exe" -- list --color=never \
      | sed -n "s/^$group  *\([0-9][0-9]*\)  *$case\.\$/\1/p")
if [ -z "$i" ]; then
  echo "no test case '$group $case' in $exe"
  exit 1
fi
exec dune exec --display quiet "test/$exe.exe" -- test "^$group\$" "$i"
