#!/bin/sh
# Usage: expect_exit.sh CODE TEXT COMMAND [ARGS...]
#
# Runs COMMAND and passes when it exits with status CODE and its combined
# stdout/stderr contains TEXT (a fixed string).  ctest uses it for the CLI
# checks that need both an exit status and a message.
code=$1
text=$2
shift 2
out=$("$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne "$code" ]; then
  echo "expect_exit: expected exit status $code, got $status"
  exit 1
fi
case $out in
  *"$text"*) exit 0 ;;
esac
echo "expect_exit: output lacks \"$text\""
exit 1
