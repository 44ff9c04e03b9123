#!/usr/bin/env bash
# The console-script checks: the "eulersum" command on PATH and the demos,
# run from the root of the repository.  Digests pin outputs byte for byte;
# RUNNER_TEMP, set on CI, is a fresh temporary directory when run elsewhere,
# removed when the script exits.
set -eo pipefail
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP="$(mktemp -d)"
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

# pin DIGEST: the SHA-256 of stdin is DIGEST
pin() {
  local got
  got="$(sha256sum | cut -d' ' -f1)"
  test "$got" = "$1" || { echo "digest $got, expected $1" >&2; return 1; }
}

# exits CODE CMD...: CMD exits with CODE
exits() {
  local code="$1" rc=0
  shift
  "$@" || rc=$?
  test "$rc" -eq "$code" || { echo "exit $rc, expected $code: $*" >&2; return 1; }
}

# start-up imports neither numpy nor dataclasses, inspect, json or typing
python -c "import sys; before = set(sys.modules); import eulersums.cli; eulersums.cli.build_parser(); new = set(sys.modules) - before; assert not new & {'numpy', 'dataclasses', 'inspect', 'json', 'typing'}, sorted(new)"
# the parser that start-up builds without the engines prints the same help text
COLUMNS=80 eulersum --help | pin 42182c0bccc39c2da34c7df36ff6b3176947e3ccb66068e870c24ab7c45d24f4
COLUMNS=80 eulersum verify --help | pin bcc2d01acffcbefc4e2482ee79b340cb2a4d81831287526a2c074021787b85b1
eulersum table-check src/eulersums/tables/starter_weight12.jsonl
eulersum verify --tol 1e-6 --table src/eulersums/tables/starter_weight12.jsonl "S(1,1,-3)"
# the JSON of a degree-7 expansion (58 004 terms) stays the same byte for byte
eulersum expand --output json "S(1,2,3,4,5,6,7,2)" | pin 7010cfa0cbad85d51cbd2726a4bc2443efb457679eb4e89c9125b93dea57ffb2
# so does one with repeated barred entries under a barred outer (7 896 terms,
# 38 distinct coefficients)
eulersum expand --output json "S(2,2,-1,-1,-1,-1,-3,-3,-2)" | pin 4d0e0ed96bfd0c88f1eae05fd6dfbb11324ab35e8812ab5907b4e226ce4cd014
# t1 emits its terms in term order: barred and plain first letters under a
# barred outer, whose runs it reverses, and under a plain one (148 terms each)
eulersum expand --output json "S(1,3,-2,-4,-3)" | pin 60475d31efbbe360dabebfc58b2a71852a9f58b89e5f0400850c2bb4cd1104b2
eulersum expand --output json "S(1,3,-2,-4,3)" | pin 106bdd498e37dfa96ada5ab7639242ef7dfb1196cd53eca64309170b2ae6ef9e
# letters past U+FFFF and U+10FFFF: a kernel word's characters index its
# alphabet, never the letters themselves (26 terms, as JSON and as plain text)
eulersum expand --output json "S(1114112,-70000,3,-2)" | pin 2226fb32495dadd276a5aab9067e9f88b2c5651c867e680e0a9bf1d255425630
eulersum expand "S(1114112,-70000,3,-2)" | pin 2c51c63cf1908e5be25767c2ee5778a1291edeb4d29b8afcd7a870b499ad1bfa
# so does a t2 expansion, products of atoms and all (1 439 terms, 754 products)
eulersum expand --engine t2 --output json "S(2,2,3,3,4,4,2)" | pin b3dfb84a8ad0357d3a78bd8f4fc2ff8c77b2d9a2ac951f5ce281a28b0528a2cd
# and the default engine on that index, which runs t1, t2 and linearize and
# checks that they agree (1 370 terms, "engine": "auto(t1, t2 checked)")
eulersum expand --output json "S(2,2,3,3,4,4,2)" | pin 4466b008e465d493cbb7c4a04fed44b17ec6cf050ba687371d73f49c3f49b863
# t1's answers are written as they are produced; the keys after the terms
# stay the same: an outer -1 index ("convergence": "conditional", 1 052 terms),
# the depth-0 S(-3), and the t2-eligible index above forced onto t1 (1 370 terms)
eulersum expand --output json "S(1,-2,3,-4,5,-1)" | pin cca0076ae32bcba321b88d9c3023953e76509c7b0c80c5bb95ecca5cdc25de7b
eulersum expand --output json "S(-3)" | pin e1a9f95decd965dbfac351b7620199f51220241f232a60e20d59ee3059d862e2
eulersum expand --engine t1 --output json "S(2,2,3,3,4,4,2)" | pin 1296bd34cc2ad4360a679d831a9df20a521f516eca08648251f0d07374df12af
# two degree-5 reductions stay the same byte for byte: depth2_odd above the
# table's weight 12 with the triple pass, and both reflection passes
starter=src/eulersums/tables/starter_weight12.jsonl
eulersum reduce --table $starter "S(6,8,-2,-3,-4,-2)" 2>/dev/null | pin c3885de40d1718c8b0594674d8edcd4d268d23c466bdbdb1273a85e17fe92770
eulersum reduce --table $starter "S(-1,-2,-3,-4,-5,-3)" 2>/dev/null | pin bdbd091e0ac45f21e3895d5a5ebd1157b5976451a844b2fe6dabe01d6eb9c04d
# the first of them with its step log, the "  # " lines: 60 steps, of which 25
# depth2_odd rewrites, 22 alt_depth1 and 11 table rewrites and 2 triple reflections
eulersum reduce --trace --table $starter "S(6,8,-2,-3,-4,-2)" 2>/dev/null | pin afb920d9746a8e3cb160a24a07ad5636a94307ec5d2890aa7c625e06887e303b
# the same reduction as JSON: 993 terms, 13 of them products from depth2_odd above
# the table's weight 12
eulersum reduce --output json --table $starter "S(6,8,-2,-3,-4,-2)" | pin 36edaccb4ee02e44dcf61725e6641581f6b840f2c37fed41dfef07cb0c95ec54
# the atoms a degree-5 reduction leaves alone stay the same: its stderr is the
# "unresolved atoms" line
eulersum reduce --engine t1 --table $starter "S(1,2,3,5,-8,3)" 2>&1 >/dev/null | pin a4abbd038d36ca643bded2488fd698ccd14691ec06657ce15437480976dd7b8b
# so do those of a reduction whose deep atoms sit inside products: 20 of the
# 46 unresolved atoms of the t2 expansion below occur in no term alone
eulersum reduce --engine t2 "S(2,2,3,3,2)" 2>&1 >/dev/null | pin af36136727bcc2434ad860789e431d9c72805c54625667a3f9a3d2192d56700b
# a reduction as JSON stays the same byte for byte: atoms of one weight beside
# products of 2-4 factors and z(-1), in term order
eulersum reduce --output json --table $starter "S(-1,-1,-1,-1)" | pin 023d6665e01fa77a12f7f7cd7fd4748322822c02a8d7232edb3218dfec083bfa
# so does one that mixes Li and zeta factors: the one-line table z(-1) = -Li(1,1/2),
# that is -ln 2, puts Li(1,1/2) in products beside zeta atoms, in term order
printf '%s\n' '{"lhs": "z(-1)", "rhs": [{"factors": ["Li(1,1/2)"], "coeff": "-1"}], "weight": 1}' \
  > "$RUNNER_TEMP/li.jsonl"
eulersum table-check --tol 1e-10 "$RUNNER_TEMP/li.jsonl" | grep "1 accepted, 0 rejected"
eulersum reduce --output json --table "$RUNNER_TEMP/li.jsonl" "S(-1,-1,-1,-1)" | pin 3f693bec0fda203d4af2e864b273f75026165102d13b163a4888dc5374e5c81c
# and one whose products hold unresolved atoms: 53 terms, 27 of them products,
# 20 of which hold some of the 46 unresolved atoms
eulersum reduce --engine t2 --output json "S(2,2,3,3,2)" | pin 66417f9fc90ef9d39634dc860182b2f992182ea54fc7ccbfe55a58435faf93af
# two traced reductions stay the same byte for byte: the repeated-slot rule on
# z(2,2,2,2,2) with pair and triple reflections, and a barred depth-5 repeat
eulersum reduce --trace --table $starter "S(2,2,2,2,2)" 2>/dev/null | pin 15b934b6f9c6b2d317849e239911f8c135701690363aa85adcf1941ded731188
eulersum reduce --trace --table $starter "S(-2,-2,-2,-2,-2)" 2>/dev/null | pin 3bec47ac7455983ba5e86bc4b8b3c4a3d4dd9983e76278190c44455471c80a94
# and one in which table entries fire at depths 4 and 3, z(3,1,1,1) and z(4,1,1),
# and the repeated-slot rule on z(3,3): each atom meets only the rules of its depth
eulersum reduce --engine t1 --trace --table $starter "S(1,1,1,3)" 2>/dev/null | pin 147da66daf3e378a8b38aff8f28325a6fc844694ae7606c494a499b4e4dcd427
# a verify batch stays the same byte for byte: the 9 weight-3 log tails and 5 deep
# power tails of weight 9 and 10; the indented comment line is skipped and prints nothing;
# each value is exact, to 15 digits, and each bound, discrepancy and budget is
# rounded up to 3 digits
printf '%s\n' 'S(-2,-1)' 'S(-1,-2)' 'S(-1,-1,-1)' 'S(-1,2)' 'S(1,-2)' \
  '   # deep power tails of weight 9 and 10' 'S(1,-1,-1)' 'S(1,1,-1)' 'S(1,2)' 'S(2,-1)' \
  'S(2,2,3,2)' 'S(2,2,2,-3)' 'S(2,3,3,2)' 'S(3,-2,-2,-3)' 'S(-2,-2,-2,-2,-2)' \
  > "$RUNNER_TEMP/batch.txt"
eulersum verify --tol 1e-6 --table $starter --file "$RUNNER_TEMP/batch.txt" | pin 30ad8dbbccdbd8fb997c2f4bf16e9c909f3850b22f180fd1db8d0748283c0387
# the same batch written twice, in one process: each line after the first reads
# the chain sums that earlier lines stored, the second half reads every atom the
# first stored, and both halves print the bytes above
cat "$RUNNER_TEMP/batch.txt" "$RUNNER_TEMP/batch.txt" > "$RUNNER_TEMP/batch_twice.txt"
eulersum verify --tol 1e-6 --table $starter --file "$RUNNER_TEMP/batch_twice.txt" > "$RUNNER_TEMP/twice.out"
half=$(( $(wc -l < "$RUNNER_TEMP/twice.out") / 2 ))
head -n "$half" "$RUNNER_TEMP/twice.out" | pin 30ad8dbbccdbd8fb997c2f4bf16e9c909f3850b22f180fd1db8d0748283c0387
tail -n +"$((half + 1))" "$RUNNER_TEMP/twice.out" | pin 30ad8dbbccdbd8fb997c2f4bf16e9c909f3850b22f180fd1db8d0748283c0387
# so does one verify of a combination whose atoms share most prefixes (958 terms):
# its atoms come from one walk over the trie of their words, bit for bit
eulersum verify --tol 1e-6 "S(1,3,-5,-2,2,3)" | pin 5a392931ba0e75a72f3a99d15c8e1f713d3f171e4ca0d5c2733839028e7fdb98
# three tails with repeated alternating factors stay the same byte for byte at 1e-10
for s in "S(-1,-1,-1,-1,-1)" "S(-1,-2,-2,-1)" "S(1,1,-1,-1,-1,-1)"; do
  eulersum eval --tol 1e-10 "$s"; done | pin e9e161b7d51d74d861412bacbeaf4d8c037fe5878f5493e5a4f73af2d8fea1db
# every tail expansion, read from the one Euler-Maclaurin builder, stays the same
# byte for byte at 1e-10: H_m (e = 1), H_m^(r) (e >= 2), barred factors of order 2
# and 3, an alternating outer sum, and a barred entry of order 200, the Hoelder
# length, the last whose eta(r) is an atom
for s in "S(1,2,-3,2)" "S(1,3,-2,-2)" "S(1,-2,-3)" "S(-200,2)"; do
  eulersum eval --tol 1e-10 "$s"; done | pin e2f5426a1c239385625f10de02712f517ae82a305f184ae792c52e45e959c5a8
# two LaTeX renderings stay the same byte for byte: barred entries in power
# notation, and ln 2 factors whose sign folds into the coefficient
eulersum expand --output latex "S(-1,-1,2)" | pin d074fca14de743c9221d96f334f03d166b7c412ae5df262da8dacd82bed38e6b
eulersum reduce --output latex "S(-1,-1,-1,-1)" | pin c90b613804018f8e6d5a51f934c42dd5034f6703be61180b6252ff1008076998
# an unbarred inner entry of two or more digits is in parentheses, S_{(12),3},
# so that S(12,3) and S(1,2,3) no longer print alike
eulersum expand --output latex "S(12,3)" | pin dc12a34978ca196aff547dead3b83c92dc6df8e716161b71f4628ed6b8cfc64b
# a large outer exponent costs what a small one does: the walk caps its power
out="$(timeout 10 eulersum eval "S(2,3000000)")"
echo "$out"
test "$out" = "1  bound=2.27e-56  N=100"
# the slowest weight-3 log tail meets 1e-8: nothing on stderr, no "capacity:" line
test -z "$(eulersum eval --tol 1e-8 "S(1,-1,-1)" 2>&1 >/dev/null)"
# the slowest weight-8 log tail meets 1e-10 at N = 100, with nothing on stderr
out="$(eulersum eval --tol 1e-10 "S(1,1,1,1,1,1,1,-1)" 2> "$RUNNER_TEMP/eval.err")"
echo "$out"
case "$out" in *"N=100") ;; *) exit 1 ;; esac
test ! -s "$RUNNER_TEMP/eval.err"
# every starter entry holds exactly: all accepted at the tightest tolerance
eulersum table-check --tol 1e-10 src/eulersums/tables/starter_weight12.jsonl | grep "171 accepted, 0 rejected"
# a tiny coefficient keeps its value and a nonzero bound
printf '{"terms": [{"factors": ["z(2)"], "coeff": "1/1000000000000000000000000000000"}]}' > "$RUNNER_TEMP/tiny.json"
out="$(eulersum eval --json "$RUNNER_TEMP/tiny.json")"
echo "$out"
case "$out" in *"bound=0 "*) exit 1 ;; esac
# Li atoms run through the Hoelder convolution like every other atom: N = 200
printf '%s' '{"terms": [{"factors": ["Li(4,1/2)", "z(2)"], "coeff": "3/7"}, {"factors": ["Li(6,1/2)"], "coeff": "-2"}, {"factors": ["z(-1)", "Li(5,1/2)"], "coeff": "5"}]}' \
  > "$RUNNER_TEMP/li.json"
out="$(eulersum eval --json "$RUNNER_TEMP/li.json")"
echo "$out"
test "$out" = "-2.40536482005149  bound=3.99e-53  N=200"
# a barred entry far past the Hoelder length keeps a tail bound near the walk's floors
out="$(eulersum eval --tol 1e-10 "S(-100000,2)")"
echo "$out"
test "$out" = "1.64493406684823  bound=3.34e-20  N=100"
# usage errors exit 2: a non-UTF-8 table, an option the command does not take,
# a bare S, an expansion dump nested past the recursion limit
printf '\xff\xfe' > "$RUNNER_TEMP/utf16.jsonl"
exits 2 eulersum reduce --table "$RUNNER_TEMP/utf16.jsonl" "S(2,3)"
# a --table path is read as given, whatever the environment holds: li.jsonl,
# written above into RUNNER_TEMP, is not looked up there from the repository root
EULERSUM_TABLE_DIR="$RUNNER_TEMP" exits 2 eulersum reduce --table li.jsonl "S(2,3)"
exits 2 eulersum eval --engine t2 "S(1,2)"
exits 2 eulersum expand "S "
python -c "print('[' * 100000 + ']' * 100000)" > "$RUNNER_TEMP/deep.json"
exits 2 eulersum eval --json "$RUNNER_TEMP/deep.json"
# a reader that closes stdout after a few bytes ends the command quietly: exit 1,
# nothing on stderr (the ! keeps that exit from ending this script)
! eulersum expand --output json "S(1,2,3,4,5,6,7,2)" 2> "$RUNNER_TEMP/pipe.err" | head -c 20 > /dev/null
test "${PIPESTATUS[0]}" -eq 1 || exit 1
test ! -s "$RUNNER_TEMP/pipe.err"
# --require-tables with no --table at all has no usable table: exit 5
exits 5 eulersum reduce --require-tables "S(2,3)"
# a divergent index exits 3, and its stderr starts with the prefix of that code
exits 3 eulersum expand "S(2,1)" 2> "$RUNNER_TEMP/divergent.err"
head -n 1 "$RUNNER_TEMP/divergent.err" | grep "^divergent index: "
# two entries that rewrite into each other hit the reduction step cap: exit 4
printf '%s\n' \
  '{"lhs": "z(4,1)", "rhs": [{"factors": ["z(3,2)"], "coeff": "1"}], "weight": 5}' \
  '{"lhs": "z(3,2)", "rhs": [{"factors": ["z(4,1)"], "coeff": "1"}], "weight": 5}' \
  > "$RUNNER_TEMP/cyclic.jsonl"
exits 4 eulersum reduce --table "$RUNNER_TEMP/cyclic.jsonl" "S(1,4)"
# an index whose expansion is above the enumeration cap (25 inner entries): verify
# exits 4 at once, before the series is summed
exits 4 eulersum verify "S(1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,2)"
# an atom above the Hoelder word cap is refused before its word is built: exit 4
# at once from verify, and from eval on a dump that holds it
exits 4 timeout 10 eulersum verify "S(2,1000000000000000)"
printf '%s' '{"terms": [{"factors": ["z(1000000000000000)"], "coeff": "1"}]}' > "$RUNNER_TEMP/big.json"
exits 4 timeout 10 eulersum eval --json "$RUNNER_TEMP/big.json"
# a depth-2 atom whose closed form has more products than the step cap: exit 4
# at once, before the products are made
exits 4 timeout 10 eulersum reduce "S(2,1000000000000001)"
# an index that parses but whose result holds a number past the interpreter's
# 4300-digit limit: exit 4 naming the limit, not exit 2 "cannot parse index"
exits 4 eulersum reduce "S(-1,20000)" 2> "$RUNNER_TEMP/digits.err"
grep "more than 4300 digits" "$RUNNER_TEMP/digits.err"
# an alternating depth-1 atom whose coefficient 2^(1-s) - 1 would have more bits
# than the step cap: exit 4 at once, before the power is built
exits 4 timeout 10 eulersum reduce "S(4,2,-1000000000001)" 2> "$RUNNER_TEMP/alt.err"
pin 378234d70ddaa984df4b018559f1879424a552fbfdaa3ebc45db6deb663dfd20 < "$RUNNER_TEMP/alt.err"
# several refused odd-weight depth-2 atoms, B = 10^15 + 2: t1's expansion holds
# z(B,5), z(B+2,3) and z(B+3,2) and names z(B,5), the first in term order; t2's
# holds z(5,B) alone and z(3,B) in a product, and names z(5,B), since the single
# atoms are classified before the products
exits 4 timeout 10 eulersum reduce "S(2,3,1000000000000002)" 2> "$RUNNER_TEMP/odd.err"
pin d03ffdbdd3d3911b27fdcaf8cddac1c4391ea173c8aca725938c743685669cc7 < "$RUNNER_TEMP/odd.err"
exits 4 timeout 10 eulersum reduce --engine t2 "S(2,3,1000000000000002)" 2> "$RUNNER_TEMP/odd.err"
pin fbc885ef0c7be54a90d1c04bc15a706370af12b5724cc6dd7780e7b64687f2d3 < "$RUNNER_TEMP/odd.err"
# a legal 4300-digit entry B = 10^4300 - 2, whose reduction names atoms past the
# limit in its steps: exit 4 "cannot print result", not the interpreter's message
B="$(python -c "print('9' * 4299 + '8')")"
exits 4 eulersum reduce "S($B,2,2)" 2> "$RUNNER_TEMP/entry.err"
grep "cannot print result" "$RUNNER_TEMP/entry.err"
# a repeated lhs is rejected on its own line: the first entry alone reduces S(1,2)
printf '%s\n' \
  '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}' \
  '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}' \
  > "$RUNNER_TEMP/dup.jsonl"
out="$(eulersum reduce --table "$RUNNER_TEMP/dup.jsonl" "S(1,2)" 2> "$RUNNER_TEMP/dup.err")"
echo "$out"; cat "$RUNNER_TEMP/dup.err"
test "$out" = "S(1,2) = 2*z(3)"
grep "dup.jsonl:2: rejected: duplicate lhs z(2,1) (first on line 1)" "$RUNNER_TEMP/dup.err"
# a table file that starts with a UTF-8 byte-order mark keeps its first line:
# its one entry z(2,1) = 5*z(3) makes S(1,2) = 6*z(3), not the rules' 2*z(3)
printf '\xef\xbb\xbf%s\n' '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}' \
  > "$RUNNER_TEMP/bom.jsonl"
out="$(eulersum reduce --table "$RUNNER_TEMP/bom.jsonl" "S(1,2)")"
echo "$out"
test "$out" = "S(1,2) = 6*z(3)"
# each of the five demos runs and its stdout stays the same byte for byte
test "$(ls demos/*.py | wc -l)" = 5
PYTHONPATH=src python demos/01_expansions.py | pin cc079d288a8d3f0aa56846b2a89c0a857a360713b470fb405d0600d8f05b1611
PYTHONPATH=src python demos/02_finite_sums_oracle.py | pin a7ca841bdcfa0e325fadb152ce29cc3fea2a8fd0505a85146d069a24de591f31
PYTHONPATH=src python demos/03_identity_reduction.py | pin 4df994bfcc7a6b0f7412c633bb513049a87f2cae26581cbc6891dafb92c9365d
PYTHONPATH=src python demos/04_numeric_verification.py | pin 632e1535f642ffb634cd56e2fd7b1d93275287ae518ceac9afe30c54949b7268
PYTHONPATH=src python demos/05_weight6_catalog.py | pin 3c746e5a5c0a6745d0216185ec59f19d4aed1c861565a7ec1308afb97c9763c4
