#!/bin/sh
# A finished hdcs_submit job lets its donors leave before it stops: two
# slowed donors (--throttle 20, so the end game hedges a unit and the
# last requests race the completion) must both exit 0, and so must the
# server. Prints "donors A B submit S" with the three exit statuses.
#
#   test_submit_drain.sh <hdcs_submit> <hdcs_donor>
set -u
submit=$1
donor=$2
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

# Two protein queries against 400 database sequences (fixed seed).
awk 'BEGIN { srand(7); aa = "ACDEFGHIKLMNPQRSTVWY"
  for (i = 0; i < 2; i++) { s = ""; for (j = 0; j < 120; j++) s = s substr(aa, int(rand() * 20) + 1, 1)
    printf ">query%d\n%s\n", i, s } }' > "$dir/q.fasta"
awk 'BEGIN { srand(11); aa = "ACDEFGHIKLMNPQRSTVWY"
  for (i = 0; i < 400; i++) { s = ""; for (j = 0; j < 100; j++) s = s substr(aa, int(rand() * 20) + 1, 1)
    printf ">dbseq%d\n%s\n", i, s } }' > "$dir/db.fasta"

"$submit" --app dsearch --queries "$dir/q.fasta" --db "$dir/db.fasta" \
  --port 0 --output "$dir/hits.txt" > "$dir/submit.log" 2>&1 &
spid=$!
port=
for _ in $(seq 100); do
  port=$(sed -n 's/^serving problem .* on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$dir/submit.log")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  cat "$dir/submit.log"
  kill "$spid" 2>/dev/null
  exit 1
fi

"$donor" --port "$port" --throttle 20 --name slow-a > "$dir/a.log" 2>&1 &
pa=$!
"$donor" --port "$port" --throttle 20 --name slow-b > "$dir/b.log" 2>&1 &
pb=$!
wait "$pa"; ea=$?
wait "$pb"; eb=$?
wait "$spid"; es=$?
cat "$dir/submit.log" "$dir/a.log" "$dir/b.log"
echo "donors $ea $eb submit $es"
