#!/usr/bin/env python3
# Strategyproofness is a finite set of linear equalities and inequalities
# over the table entries, so designing an optimal strategyproof mechanism
# is one exact-rational LP solve.

from sepax import (
    check_sp_bruteforce,
    generate_sp_constraints,
    lp_summary,
    solve_design,
    top_class_welfare_objective,
)

print("constraint system sizes (reduced vs naive pairwise):")
for m in (2, 3):
    s = lp_summary(m, generate_sp_constraints(m))
    print(
        f"  m={m}: {s['variables']} variables, {s['reduced_rows']} reduced rows"
        f" vs {s['naive_rows']} naive rows"
    )
print()

# the m=2 system is small enough to read in full
print(generate_sp_constraints(2).to_text())

# maximize the probability each report gets something from its own top class
for m in (2, 3):
    lp = generate_sp_constraints(m)
    solution, mech = solve_design(lp, m, top_class_welfare_objective(m))
    print(f"m={m} welfare design: status={solution.status}, "
          f"optimum={solution.objective_value}")
    violation = check_sp_bruteforce(mech)
    print(f"  brute-force recheck of the optimum: "
          f"{'strategyproof' if violation is None else 'VIOLATION'}")

print()
print("designed m=2 table:")
solution, mech = solve_design(
    generate_sp_constraints(2), 2, top_class_welfare_objective(2)
)
for order, lottery in mech.items():
    print(f"  {order.text:4s} -> {lottery.texts()}")
