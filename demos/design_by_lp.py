#!/usr/bin/env python3
# Strategyproofness is a finite set of linear equalities and inequalities
# over the table entries, so designing an optimal strategyproof mechanism
# is one exact-rational LP solve. The solve runs over the mass G(U) that a
# strategyproof table puts on each upper set U, 2^m - 2 values, and lifts
# G to the table.

from sepax import (
    check_sp_bruteforce,
    g_program,
    lp_summary,
    solve_design,
    top_class_welfare_objective,
)

print("program sizes (G program; full system, reduced vs naive pairwise):")
for m in (2, 3, 6):
    s = lp_summary(m)
    print(
        f"  m={m}: {s['g_variables']} x {s['g_rows']};"
        f" {s['variables']} variables, {s['reduced_rows']} reduced rows"
        f" vs {s['naive_rows']} naive rows"
    )
print()

# the m=2 G program is small enough to read in full
print(g_program(2).to_text())

# maximize the probability each report gets something from its own top class
designs = {}
for m in (2, 3):
    solution, designs[m] = solve_design(m, top_class_welfare_objective(m))
    print(f"m={m} welfare design: status={solution.status}, "
          f"optimum={solution.objective_value}")
    violation = check_sp_bruteforce(designs[m])
    print(f"  brute-force recheck of the optimum: "
          f"{'strategyproof' if violation is None else 'VIOLATION'}")

print()
print("designed m=2 table:")
for order, lottery in designs[2].items():
    print(f"  {order.text:4s} -> {lottery.texts()}")
