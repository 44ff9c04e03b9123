#!/usr/bin/env bash
# The console-script checks: the "eulersum" command on PATH, run from the
# root of the repository.  Digests pin outputs byte for byte; RUNNER_TEMP,
# set on CI, is a fresh temporary directory when run elsewhere.
set -eo pipefail
: "${RUNNER_TEMP:=$(mktemp -d)}"

# start-up imports neither numpy nor dataclasses, inspect or typing
python -c "import sys; before = set(sys.modules); import eulersums.cli; eulersums.cli.build_parser(); new = set(sys.modules) - before; assert not new & {'numpy', 'dataclasses', 'inspect', 'typing'}, sorted(new)"
eulersum table-check src/eulersums/tables/starter_weight12.jsonl
eulersum verify --tol 1e-6 --table src/eulersums/tables/starter_weight12.jsonl "S(1,1,-3)"
# the JSON of a degree-7 expansion (58 004 terms) stays the same byte for byte
digest="$(eulersum expand --output json "S(1,2,3,4,5,6,7,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 7010cfa0cbad85d51cbd2726a4bc2443efb457679eb4e89c9125b93dea57ffb2
# so does one with repeated barred entries under a barred outer (7 896 terms,
# 38 distinct coefficients)
digest="$(eulersum expand --output json "S(2,2,-1,-1,-1,-1,-3,-3,-2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 4d0e0ed96bfd0c88f1eae05fd6dfbb11324ab35e8812ab5907b4e226ce4cd014
# t1 emits its terms in term order: barred and plain first letters under a
# barred outer, whose runs it reverses, and under a plain one (148 terms each)
digest="$(eulersum expand --output json "S(1,3,-2,-4,-3)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 60475d31efbbe360dabebfc58b2a71852a9f58b89e5f0400850c2bb4cd1104b2
digest="$(eulersum expand --output json "S(1,3,-2,-4,3)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 106bdd498e37dfa96ada5ab7639242ef7dfb1196cd53eca64309170b2ae6ef9e
# so does a t2 expansion, products of atoms and all (1 439 terms, 754 products)
digest="$(eulersum expand --engine t2 --output json "S(2,2,3,3,4,4,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = b3dfb84a8ad0357d3a78bd8f4fc2ff8c77b2d9a2ac951f5ce281a28b0528a2cd
# and the default engine on that index, which runs t1, t2 and linearize and
# checks that they agree (1 370 terms, "engine": "auto(t1, t2 checked)")
digest="$(eulersum expand --output json "S(2,2,3,3,4,4,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 4466b008e465d493cbb7c4a04fed44b17ec6cf050ba687371d73f49c3f49b863
# t1's answers are written as they are produced; the keys after the terms
# stay the same: an outer -1 index ("convergence": "conditional", 1 052 terms),
# the depth-0 S(-3), and the t2-eligible index above forced onto t1 (1 370 terms)
digest="$(eulersum expand --output json "S(1,-2,3,-4,5,-1)" | sha256sum | cut -d' ' -f1)"
test "$digest" = cca0076ae32bcba321b88d9c3023953e76509c7b0c80c5bb95ecca5cdc25de7b
digest="$(eulersum expand --output json "S(-3)" | sha256sum | cut -d' ' -f1)"
test "$digest" = e1a9f95decd965dbfac351b7620199f51220241f232a60e20d59ee3059d862e2
digest="$(eulersum expand --engine t1 --output json "S(2,2,3,3,4,4,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 1296bd34cc2ad4360a679d831a9df20a521f516eca08648251f0d07374df12af
# two degree-5 reductions stay the same byte for byte: depth2_odd above the
# table's weight 12 with the triple pass, and both reflection passes
starter=src/eulersums/tables/starter_weight12.jsonl
digest="$(eulersum reduce --table $starter "S(6,8,-2,-3,-4,-2)" 2>/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = c3885de40d1718c8b0594674d8edcd4d268d23c466bdbdb1273a85e17fe92770
digest="$(eulersum reduce --table $starter "S(-1,-2,-3,-4,-5,-3)" 2>/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = bdbd091e0ac45f21e3895d5a5ebd1157b5976451a844b2fe6dabe01d6eb9c04d
# the same reduction as JSON: 993 terms, 13 of them products from depth2_odd above
# the table's weight 12, which go through the JSON writer's branch for non-atoms
digest="$(eulersum reduce --output json --table $starter "S(6,8,-2,-3,-4,-2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 36edaccb4ee02e44dcf61725e6641581f6b840f2c37fed41dfef07cb0c95ec54
# the atoms a degree-5 reduction leaves alone stay the same: its stderr is the
# "unresolved atoms" line
digest="$(eulersum reduce --engine t1 --table $starter "S(1,2,3,5,-8,3)" 2>&1 >/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = a4abbd038d36ca643bded2488fd698ccd14691ec06657ce15437480976dd7b8b
# so do those of a reduction whose deep atoms sit inside products: 20 of the
# 46 unresolved atoms of the t2 expansion below occur in no term alone
digest="$(eulersum reduce --engine t2 "S(2,2,3,3,2)" 2>&1 >/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = af36136727bcc2434ad860789e431d9c72805c54625667a3f9a3d2192d56700b
# a reduction as JSON stays the same byte for byte: atoms of one weight beside
# products of 2-4 factors and z(-1), in term order
digest="$(eulersum reduce --output json --table $starter "S(-1,-1,-1,-1)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 023d6665e01fa77a12f7f7cd7fd4748322822c02a8d7232edb3218dfec083bfa
# so does one that mixes Li and zeta factors: the one-line table z(-1) = -Li(1,1/2),
# that is -ln 2, puts Li(1,1/2) in products beside zeta atoms, in term order
printf '%s\n' '{"lhs": "z(-1)", "rhs": [{"factors": ["Li(1,1/2)"], "coeff": "-1"}], "weight": 1}' \
  > "$RUNNER_TEMP/li.jsonl"
eulersum table-check --tol 1e-10 "$RUNNER_TEMP/li.jsonl" | grep "1 accepted, 0 rejected"
digest="$(eulersum reduce --output json --table "$RUNNER_TEMP/li.jsonl" "S(-1,-1,-1,-1)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 3f693bec0fda203d4af2e864b273f75026165102d13b163a4888dc5374e5c81c
# and one whose products hold unresolved atoms: 53 terms, 27 of them products,
# 20 of which hold some of the 46 unresolved atoms
digest="$(eulersum reduce --engine t2 --output json "S(2,2,3,3,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 66417f9fc90ef9d39634dc860182b2f992182ea54fc7ccbfe55a58435faf93af
# two traced reductions stay the same byte for byte: the repeated-slot rule on
# z(2,2,2,2,2) with pair and triple reflections, and a barred depth-5 repeat
digest="$(eulersum reduce --trace --table $starter "S(2,2,2,2,2)" 2>/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = 15b934b6f9c6b2d317849e239911f8c135701690363aa85adcf1941ded731188
digest="$(eulersum reduce --trace --table $starter "S(-2,-2,-2,-2,-2)" 2>/dev/null | sha256sum | cut -d' ' -f1)"
test "$digest" = 3bec47ac7455983ba5e86bc4b8b3c4a3d4dd9983e76278190c44455471c80a94
# a verify batch stays the same byte for byte: the 9 weight-3 log tails and 5 deep
# power tails of weight 9 and 10; the indented comment line is skipped and prints nothing;
# each value is exact, to 15 digits, and each bound, discrepancy and budget is
# rounded up to 3 digits
printf '%s\n' 'S(-2,-1)' 'S(-1,-2)' 'S(-1,-1,-1)' 'S(-1,2)' 'S(1,-2)' \
  '   # deep power tails of weight 9 and 10' 'S(1,-1,-1)' 'S(1,1,-1)' 'S(1,2)' 'S(2,-1)' \
  'S(2,2,3,2)' 'S(2,2,2,-3)' 'S(2,3,3,2)' 'S(3,-2,-2,-3)' 'S(-2,-2,-2,-2,-2)' \
  > "$RUNNER_TEMP/batch.txt"
digest="$(eulersum verify --tol 1e-6 --table $starter --file "$RUNNER_TEMP/batch.txt" | sha256sum | cut -d' ' -f1)"
test "$digest" = 8be3512e2a377638ba466592c5ff270011e33903c83a755880f0fc3308e4d9db
# so does one verify of a combination whose atoms share most prefixes (958 terms):
# its atoms come from one walk over the trie of their words, bit for bit
digest="$(eulersum verify --tol 1e-6 "S(1,3,-5,-2,2,3)" | sha256sum | cut -d' ' -f1)"
test "$digest" = 8899a23640825128596552b5354a385bb38a6c5a159433a496cbb3dd1feed396
# three tails with repeated alternating factors stay the same byte for byte at 1e-10
digest="$(for s in "S(-1,-1,-1,-1,-1)" "S(-1,-2,-2,-1)" "S(1,1,-1,-1,-1,-1)"; do
  eulersum eval --tol 1e-10 "$s"; done | sha256sum | cut -d' ' -f1)"
test "$digest" = 9ebe5b897942d08fb6365cb1cfd315cdcdaa85ddaddfd312c285045dc5666943
# every tail expansion, read from the one Euler-Maclaurin builder, stays the same
# byte for byte at 1e-10: H_m (e = 1), H_m^(r) (e >= 2), barred factors of order 2
# and 3, an alternating outer sum, and a barred entry of order 200, the Hoelder
# length, the last whose eta(r) is an atom
digest="$(for s in "S(1,2,-3,2)" "S(1,3,-2,-2)" "S(1,-2,-3)" "S(-200,2)"; do
  eulersum eval --tol 1e-10 "$s"; done | sha256sum | cut -d' ' -f1)"
test "$digest" = 1664438820d0987c36d9ea7bf6b7cc1bb39c4219547be2359b6c81b2308cbe27
# two LaTeX renderings stay the same byte for byte: barred entries in power
# notation, and ln 2 factors whose sign folds into the coefficient
digest="$(eulersum expand --output latex "S(-1,-1,2)" | sha256sum | cut -d' ' -f1)"
test "$digest" = d074fca14de743c9221d96f334f03d166b7c412ae5df262da8dacd82bed38e6b
digest="$(eulersum reduce --output latex "S(-1,-1,-1,-1)" | sha256sum | cut -d' ' -f1)"
test "$digest" = c90b613804018f8e6d5a51f934c42dd5034f6703be61180b6252ff1008076998
# an unbarred inner entry of two or more digits is in parentheses, S_{(12),3},
# so that S(12,3) and S(1,2,3) no longer print alike
digest="$(eulersum expand --output latex "S(12,3)" | sha256sum | cut -d' ' -f1)"
test "$digest" = dc12a34978ca196aff547dead3b83c92dc6df8e716161b71f4628ed6b8cfc64b
# a large outer exponent costs what a small one does: the walk caps its power
out="$(timeout 10 eulersum eval "S(2,3000000)")"
echo "$out"
test "$out" = "1  bound=2.33e-56  N=100"
# the slowest weight-3 log tail meets 1e-8: nothing on stderr, no "capacity:" line
test -z "$(eulersum eval --tol 1e-8 "S(1,-1,-1)" 2>&1 >/dev/null)" || exit 1
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
test "$out" = "-2.40536482005149  bound=4.55e-20  N=200"
# a barred entry far past the Hoelder length keeps a tail bound near the walk's floors
out="$(eulersum eval --tol 1e-10 "S(-100000,2)")"
echo "$out"
test "$out" = "1.64493406684823  bound=8.24e-20  N=100"
# usage errors exit 2: a non-UTF-8 table, an option the command does not take,
# a bare S, an expansion dump nested past the recursion limit
set +e
printf '\xff\xfe' > "$RUNNER_TEMP/utf16.jsonl"
eulersum reduce --table "$RUNNER_TEMP/utf16.jsonl" "S(2,3)"
test $? -eq 2 || exit 1
eulersum eval --engine t2 "S(1,2)"
test $? -eq 2 || exit 1
eulersum expand "S "
test $? -eq 2 || exit 1
python -c "print('[' * 100000 + ']' * 100000)" > "$RUNNER_TEMP/deep.json"
eulersum eval --json "$RUNNER_TEMP/deep.json"
test $? -eq 2 || exit 1
# --require-tables with no --table at all has no usable table: exit 5
eulersum reduce --require-tables "S(2,3)"
test $? -eq 5 || exit 1
# a divergent index exits 3, and its stderr starts with the prefix of that code
eulersum expand "S(2,1)" 2> "$RUNNER_TEMP/divergent.err"
test $? -eq 3 || exit 1
head -n 1 "$RUNNER_TEMP/divergent.err" | grep "^divergent index: " || exit 1
# two entries that rewrite into each other hit the reduction step cap: exit 4
printf '%s\n' \
  '{"lhs": "z(4,1)", "rhs": [{"factors": ["z(3,2)"], "coeff": "1"}], "weight": 5}' \
  '{"lhs": "z(3,2)", "rhs": [{"factors": ["z(4,1)"], "coeff": "1"}], "weight": 5}' \
  > "$RUNNER_TEMP/cyclic.jsonl"
eulersum reduce --table "$RUNNER_TEMP/cyclic.jsonl" "S(1,4)"
test $? -eq 4 || exit 1
# an index whose expansion is above the enumeration cap (25 inner entries): verify
# exits 4 at once, before the series is summed
eulersum verify "S(1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,2)"
test $? -eq 4 || exit 1
# an atom above the Hoelder word cap is refused before its word is built: exit 4
# at once from verify, and from eval on a dump that holds it
timeout 10 eulersum verify "S(2,1000000000000000)"
test $? -eq 4 || exit 1
printf '%s' '{"terms": [{"factors": ["z(1000000000000000)"], "coeff": "1"}]}' > "$RUNNER_TEMP/big.json"
timeout 10 eulersum eval --json "$RUNNER_TEMP/big.json"
test $? -eq 4 || exit 1
# a depth-2 atom whose closed form has more products than the step cap: exit 4
# at once, before the products are made
timeout 10 eulersum reduce "S(2,1000000000000001)"
test $? -eq 4 || exit 1
# an index that parses but whose result holds a number past the interpreter's
# 4300-digit limit: exit 4 naming the limit, not exit 2 "cannot parse index"
eulersum reduce "S(-1,20000)" 2> "$RUNNER_TEMP/digits.err"
test $? -eq 4 || exit 1
grep "more than 4300 digits" "$RUNNER_TEMP/digits.err" || exit 1
# an alternating depth-1 atom whose coefficient 2^(1-s) - 1 would have more bits
# than the step cap: exit 4 at once, before the power is built
timeout 10 eulersum reduce "S(4,2,-1000000000001)"
test $? -eq 4 || exit 1
# a legal 4300-digit entry B = 10^4300 - 2, whose reduction names atoms past the
# limit in its steps: exit 4 "cannot print result", not the interpreter's message
B="$(python -c "print('9' * 4299 + '8')")"
eulersum reduce "S($B,2,2)" 2> "$RUNNER_TEMP/entry.err"
test $? -eq 4 || exit 1
grep "cannot print result" "$RUNNER_TEMP/entry.err" || exit 1
set -e
# a repeated lhs is rejected on its own line: the first entry alone reduces S(1,2)
printf '%s\n' \
  '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "1"}], "weight": 3}' \
  '{"lhs": "z(2,1)", "rhs": [{"factors": ["z(3)"], "coeff": "5"}], "weight": 3}' \
  > "$RUNNER_TEMP/dup.jsonl"
out="$(eulersum reduce --table "$RUNNER_TEMP/dup.jsonl" "S(1,2)" 2> "$RUNNER_TEMP/dup.err")"
echo "$out"; cat "$RUNNER_TEMP/dup.err"
test "$out" = "S(1,2) = 2*z(3)"
grep "dup.jsonl:2: rejected: duplicate lhs z(2,1) (first on line 1)" "$RUNNER_TEMP/dup.err"
