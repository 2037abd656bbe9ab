"""The two motivating pass-interaction stories, reproduced end to end.

Case 1: a loop whose trip count (1482) does not divide the requested unroll
factor (4).  Expanding the pragma naively fragments the body with termination
checks; unroll-by-two twice, with a cleanup between, first peels the odd
remainder so the final unroll is a clean factor four.

Case 2: a pipelined loop whose last iteration triggers a guarded inner loop
touching the same accumulator array.  The conservative dependence model
charges the inner loop's full latency to every iteration's initiation
interval until rotation plus jump threading move the guarded region out of
the loop entirely.

Run:  python3 demos/02_case_studies.py
"""
from passforge.corpus import case1_text, case2_text
from passforge.ir import parse_module, print_module
from passforge.passes import PassId, apply_pragma_passes, apply_sequence
from passforge.qor import estimate

print("=== case 1: remainder peeling enables clean unrolling ===")
m1 = parse_module(case1_text())
pragma_only = apply_pragma_passes(m1)
q_naive = estimate(pragma_only)
print(f"pragma-only expansion: {q_naive.cycles} cycles")

seq1 = [PassId.LOOP_UNROLL_PARTIAL, PassId.SCCP, PassId.SIMPLIFYCFG,
        PassId.LOOP_UNROLL_PARTIAL]
opt1, steps = apply_sequence(m1, seq1)
print("sequence:", " -> ".join(p.value for p in seq1))
print("changed per step:", [s.changed for s in steps])
q_opt = estimate(opt1)
main_loop = next(l for l in q_opt.loops if l.loop_id == 2)
print(f"main-loop trip count after restructuring: {main_loop.trip}"
      f"  (1482 = 4*370 + 2)")
print(f"restructured: {q_opt.cycles} cycles "
      f"({100 * (1 - q_opt.cycles / q_naive.cycles):.1f}% better)")

print()
print("=== case 2: threading the guarded inner loop out of the pipeline ===")
m2 = parse_module(case2_text())
q_before = estimate(m2)
loop1 = next(l for l in q_before.loops if l.loop_id == 1)
print(f"before: {q_before.cycles} cycles, achieved II {loop1.achieved_ii} "
      f"(res {loop1.res_mii}, rec {loop1.rec_mii})")

seq2 = [PassId.INSTCOMBINE, PassId.GVN, PassId.LOOP_ROTATE,
        PassId.SIMPLIFYCFG, PassId.JUMP_THREADING]
opt2, _ = apply_sequence(m2, seq2)
q_after = estimate(opt2)
loop1b = next(l for l in q_after.loops if l.loop_id == 1)
print("sequence:", " -> ".join(p.value for p in seq2))
print(f"after: {q_after.cycles} cycles, achieved II {loop1b.achieved_ii} "
      f"== rec_mii {loop1b.rec_mii}")
print(f"total improvement: {100 * (1 - q_after.cycles / q_before.cycles):.1f}%")
print()
print("final loop structure:")
print(print_module(opt2))
