#!/usr/bin/env bash
# Check that every batch alignment lane kernel linked into the given
# binaries starts on a 64-byte boundary ({sw,nw,sg}_lanes16_{portable,avx2,
# avx512}, clones included). Their speed must not depend on where the linker
# places them; src/bio/CMakeLists.txt asks for the alignment, this checks
# that the linked binary has it. A binary with no such symbol fails too:
# the check would otherwise pass on nothing.
#
#   scripts/check_kernel_alignment.sh BINARY...
set -euo pipefail

status=0
for bin in "$@"; do
  found=0
  while read -r addr _ name; do
    found=$((found + 1))
    if (( 16#$addr % 64 != 0 )); then
      [[ $name =~ (sw|nw|sg)_lanes16_[a-z0-9]+ ]]
      echo "$bin: ${BASH_REMATCH[0]} at 0x$addr is $(( 16#$addr % 64 ))" \
           "bytes into its 64-byte line"
      status=1
    fi
  done < <(nm -C "$bin" | grep -E '(sw|nw|sg)_lanes16_(portable|avx2|avx512)\(')
  if (( found == 0 )); then
    echo "$bin: no lane kernel symbols found"
    status=1
  else
    echo "$bin: $found lane kernel symbols checked"
  fi
done
exit "$status"
